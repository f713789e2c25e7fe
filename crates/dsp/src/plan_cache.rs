//! Thread-local FFT plan cache and scratch-buffer pool.
//!
//! Building an [`Fft`]/[`RealFft`] plan is far more expensive than executing
//! it: twiddle tables, the digit-reversal permutation, and (for Bluestein
//! lengths) the chirp/filter tables plus a forward FFT of the filter are all
//! computed up front. The FTIO hot paths — `Spectrum::from_signal`,
//! `autocorrelation_fft`, and the online prediction tick — transform signals
//! of the *same* length over and over, so this module memoises plans in a
//! small per-thread LRU keyed by transform length (plans serve both
//! directions, so direction is not part of the key) and pools the scratch
//! buffers the transforms work in.
//!
//! Plans share their inner plans through this cache: a Bluestein plan takes
//! its power-of-two convolution plan, and a real-input plan its complex plan,
//! from [`fft_plan`] instead of building a private copy. So each length's
//! tables exist once per thread, and a miss at a Bluestein length costs only
//! its chirp, its filter FFT and (for a real plan) its twiddles. Each kind
//! keeps at most 32 plans. The bound is a count, not bytes: an online window
//! length's plan holds a few kilobytes, and a byte budget big enough for one
//! long offline plan (a 65,536-point ACF plan holds about a megabyte) would
//! let every worker keep hundreds of them.
//!
//! In steady state (plans cached, buffers grown) a spectral pipeline tick
//! performs **zero plan constructions and zero scratch allocations**. The
//! [`stats`] counters make that property testable: `ftio-core` pins it with a
//! steady-state online-prediction test, and any regression shows up as a
//! non-zero delta in `plans_built()` / `scratch_grows`.
//!
//! Everything here is thread-local: no locks on the hot path, and benchmark
//! or engine threads each warm their own cache.

use std::cell::RefCell;
use std::sync::Arc;

use crate::complex::SplitComplex;
use crate::fft::Fft;
use crate::rfft::RealFft;

/// Maximum number of complex-FFT plans, and of real-FFT plans, kept per
/// thread.
const PLAN_CAPACITY: usize = 32;
/// Maximum number of pooled split work buffers kept per thread. One call
/// holds at most four at once: a real FFT's half-spectrum output and packed
/// input, a Bluestein convolution buffer, and the mixed-radix scratch of its
/// inner plan.
const SCRATCH_POOL_CAPACITY: usize = 8;

/// Debug counters of the thread-local plan cache.
///
/// Snapshot with [`stats`] before and after a code region to prove it does
/// not build plans or grow scratch buffers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Complex FFT plans constructed on this thread, the inner plans of
    /// Bluestein and real-input plans included.
    pub fft_plans_built: u64,
    /// Real-input FFT plans constructed on this thread.
    pub rfft_plans_built: u64,
    /// Cache hits (plan served without construction), inner lookups
    /// included.
    pub plan_hits: u64,
    /// Times a scratch buffer had to allocate (grow past its capacity).
    pub scratch_grows: u64,
}

impl PlanCacheStats {
    /// Total number of plans constructed (complex + real).
    pub fn plans_built(&self) -> u64 {
        self.fft_plans_built + self.rfft_plans_built
    }
}

/// Cached plans of one kind with their lengths, most recently used first.
type Plans<P> = Vec<(usize, Arc<P>)>;

#[derive(Default)]
struct CacheInner {
    fft: Plans<Fft>,
    rfft: Plans<RealFft>,
    split: Vec<SplitComplex>,
    stats: PlanCacheStats,
}

thread_local! {
    static CACHE: RefCell<CacheInner> = RefCell::new(CacheInner::default());
}

/// Returns the cached complex FFT plan for `len`, building it on first use.
pub fn fft_plan(len: usize) -> Arc<Fft> {
    cached(len, |c| &mut c.fft, Fft::new, |s| &mut s.fft_plans_built)
}

/// Returns the cached real-input FFT plan for `len`, building it on first use.
pub fn rfft_plan(len: usize) -> Arc<RealFft> {
    cached(
        len,
        |c| &mut c.rfft,
        RealFft::new,
        |s| &mut s.rfft_plans_built,
    )
}

/// The one LRU lookup behind [`fft_plan`] and [`rfft_plan`]: `plans` selects
/// the kind's list and `built` its build counter.
fn cached<P>(
    len: usize,
    plans: fn(&mut CacheInner) -> &mut Plans<P>,
    build: fn(usize) -> P,
    built: fn(&mut PlanCacheStats) -> &mut u64,
) -> Arc<P> {
    let hit = CACHE.with(|cache| {
        let cache = &mut *cache.borrow_mut();
        let list = plans(cache);
        let pos = list.iter().position(|(l, _)| *l == len)?;
        list[..=pos].rotate_right(1);
        let plan = list[0].1.clone();
        cache.stats.plan_hits += 1;
        Some(plan)
    });
    if let Some(plan) = hit {
        return plan;
    }
    // Build outside the borrow: construction re-enters the cache (Bluestein
    // and real plans look up their inner complex plan here).
    let plan = Arc::new(build(len));
    CACHE.with(|cache| {
        let cache = &mut *cache.borrow_mut();
        *built(&mut cache.stats) += 1;
        let list = plans(cache);
        list.insert(0, (len, plan.clone()));
        list.truncate(PLAN_CAPACITY);
    });
    plan
}

/// Snapshot of this thread's cache counters.
pub fn stats() -> PlanCacheStats {
    CACHE.with(|cache| cache.borrow().stats)
}

/// Resets this thread's cache counters to zero (the cached plans and pooled
/// buffers stay warm).
pub fn reset_stats() {
    CACHE.with(|cache| cache.borrow_mut().stats = PlanCacheStats::default());
}

/// Takes a pooled deinterleaved (structure-of-arrays) complex buffer, resized
/// to exactly `len` elements (the FFT kernels rely on the plane length
/// matching the transform length).
///
/// A real allocation — plane capacity growth — counts into
/// [`PlanCacheStats::scratch_grows`], so the steady-state zero-allocation
/// contract covers the split buffers too. Return the buffer with
/// [`give_split`]; the take/give pair is re-entrancy-safe (the Bluestein plan
/// takes nested buffers for its convolution while an outer transform holds
/// one).
pub fn take_split(len: usize) -> SplitComplex {
    // Best fit: the smallest pooled buffer that already holds `len` elements,
    // or — when none is big enough — the largest one (the cheapest to grow).
    // A plain LIFO pop would be pathological for callers that nest buffers of
    // two sizes (a real FFT holds its half-length input while the inner
    // Bluestein plan takes a convolution buffer at least twice as long):
    // popping the short buffer for the long request would reallocate on
    // every call.
    let mut buf = CACHE
        .with(|cache| {
            let pool = &mut cache.borrow_mut().split;
            let fitting = pool
                .iter()
                .enumerate()
                .filter(|(_, b)| b.re.capacity() >= len)
                .min_by_key(|(_, b)| b.re.capacity())
                .map(|(i, _)| i);
            let pick = fitting.or_else(|| {
                pool.iter()
                    .enumerate()
                    .max_by_key(|(_, b)| b.re.capacity())
                    .map(|(i, _)| i)
            });
            pick.map(|i| pool.swap_remove(i))
        })
        .unwrap_or_default();
    if buf.re.capacity() < len {
        CACHE.with(|cache| cache.borrow_mut().stats.scratch_grows += 1);
    }
    buf.resize(len);
    buf
}

/// Returns a split buffer to the pool.
pub fn give_split(buf: SplitComplex) {
    CACHE.with(|cache| {
        let mut cache = cache.borrow_mut();
        if cache.split.len() < SCRATCH_POOL_CAPACITY {
            cache.split.push(buf);
        } else if let Some(smallest) = cache
            .split
            .iter_mut()
            .min_by_key(|existing| existing.re.capacity())
        {
            if smallest.re.capacity() < buf.re.capacity() {
                *smallest = buf;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::Complex;
    use crate::fft::{fft, fft_real, ifft};
    use crate::rfft::rfft;

    #[test]
    fn repeated_transforms_build_one_plan() {
        reset_stats();
        let signal: Vec<f64> = (0..240).map(|i| (i as f64 * 0.2).sin()).collect();
        for _ in 0..5 {
            let _ = fft_real(&signal);
        }
        let stats = stats();
        // fft_real goes through the rfft plan, whose inner 120-point complex
        // plan comes from this cache too: one plan of each kind is built, then
        // every call hits.
        assert_eq!(stats.rfft_plans_built, 1, "{stats:?}");
        assert_eq!(stats.fft_plans_built, 1, "{stats:?}");
        assert!(stats.plan_hits >= 4, "{stats:?}");
    }

    #[test]
    fn steady_state_has_no_plan_builds_or_scratch_grows() {
        let signal: Vec<f64> = (0..360).map(|i| ((i % 30) as f64) - 14.0).collect();
        let complex: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
        // Warm-up: build plans, grow pooled buffers.
        for _ in 0..3 {
            let _ = rfft(&signal);
            let _ = ifft(&fft(&complex));
        }
        let before = stats();
        for _ in 0..10 {
            let _ = rfft(&signal);
            let _ = ifft(&fft(&complex));
        }
        let after = stats();
        assert_eq!(after.plans_built(), before.plans_built());
        assert_eq!(after.scratch_grows, before.scratch_grows);
        assert!(after.plan_hits > before.plan_hits);
    }

    #[test]
    fn lru_evicts_least_recently_used_plans() {
        // Fill the cache beyond capacity with distinct lengths.
        for len in 0..(PLAN_CAPACITY + 4) {
            let _ = fft_plan(len + 2);
        }
        reset_stats();
        // The most recent length must still be cached...
        let _ = fft_plan(PLAN_CAPACITY + 5);
        assert_eq!(stats().fft_plans_built, 0);
        // ...while the oldest was evicted and rebuilds.
        let _ = fft_plan(2);
        assert_eq!(stats().fft_plans_built, 1);
    }

    /// 24 neighbouring window lengths, as the engine meets them across a
    /// fleet: their 24 real plans and the 26 complex plans behind them (12
    /// half lengths, 12 odd lengths and the 256- and 512-point convolutions
    /// of the Bluestein ones) all fit, so a second pass builds nothing.
    #[test]
    fn a_fleet_of_lengths_stays_cached() {
        let lengths = 180..=203;
        for len in lengths.clone() {
            let _ = rfft(&vec![1.0; len]);
        }
        let before = stats();
        for len in lengths {
            let _ = rfft(&vec![1.0; len]);
        }
        let after = stats();
        assert_eq!(after.plans_built(), before.plans_built(), "{after:?}");
        assert_eq!(after.plan_hits - before.plan_hits, 24, "{after:?}");
    }

    #[test]
    fn pooled_split_buffers_are_reused_and_sized_exactly() {
        let a = take_split(1024);
        assert_eq!(a.len(), 1024);
        let cap = a.re.capacity();
        give_split(a);
        reset_stats();
        let b = take_split(512);
        // Resized down to the requested length, no allocation.
        assert_eq!(b.len(), 512);
        assert!(b.re.capacity() >= cap.min(1024));
        assert_eq!(stats().scratch_grows, 0);
        give_split(b);
    }
}

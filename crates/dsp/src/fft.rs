//! Fast Fourier transform implemented from scratch.
//!
//! Two execution strategies are selected automatically by [`Fft`], from the
//! prime factors of the length alone:
//!
//! * an iterative **mixed-radix Cooley–Tukey** transform for lengths whose
//!   prime factors are all small (2, 3, 5, 7), with specialised radix-4 and
//!   radix-2 butterflies — power-of-two lengths run as radix-4 stages plus at
//!   most one radix-2 fixup stage;
//! * **Bluestein's algorithm** (chirp-z transform) for every other length,
//!   which reduces an arbitrary-length DFT to a power-of-two convolution with
//!   chirp and filter tables precomputed in the plan.
//!
//! Both run sequentially on the calling thread. Parallelism lives one level
//! up: the online engine analyses many applications at once on its worker
//! threads (§II-D), each with its own plan cache.
//!
//! All transforms are unnormalised in the forward direction and divide by `N`
//! in the inverse direction, so `ifft(fft(x)) == x`.
//!
//! Execution runs on a **deinterleaved (structure-of-arrays) complex layout**
//! ([`crate::complex::SplitComplex`]): the butterfly kernels read and write
//! separate contiguous `re`/`im` planes with the twiddle tables stored the
//! same way, so the inner `k`-loops autovectorise on stable Rust without any
//! `std::simd`. [`Fft::process_split`] is the native plane entry point; the
//! interleaved `[Complex]` API ([`Fft::process`]) converts at the boundary
//! using pooled plane buffers from the thread-local
//! [`crate::plan_cache`], so steady-state execution still performs **no
//! allocations**. The convenience wrappers [`fft`], [`ifft`] and [`fft_real`]
//! ride the same cache, so repeated calls at the same length neither rebuild
//! plans nor allocate.
//!
//! The FTIO pipeline (see `ftio-core`) applies the DFT to bandwidth signals
//! whose length `N = Δt · fs` is rarely a power of two, which is why
//! arbitrary-length support matters here. Real-valued signals should prefer
//! [`crate::rfft::RealFft`], which halves the work by exploiting the conjugate
//! symmetry of the spectrum.

use crate::complex::{Complex, SplitComplex};
use crate::plan_cache;

/// No plan reads this constant. It is kept, with its value, only because the
/// benchmark's FFT census imports it, and it goes with the next change to the
/// benchmark.
pub const MIN_CONCURRENT_SIZE: usize = 32_768;

/// Transform direction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Time domain to frequency domain (negative exponent).
    Forward,
    /// Frequency domain to time domain (positive exponent, output scaled by `1/N`).
    Inverse,
}

impl Direction {
    #[inline]
    pub(crate) fn sign(self) -> f64 {
        match self {
            Direction::Forward => -1.0,
            Direction::Inverse => 1.0,
        }
    }
}

/// A reusable FFT plan for a fixed transform length.
///
/// Creating a plan precomputes twiddle factors, the digit-reversal
/// permutation, and (for the Bluestein path) the chirp and filter tables.
/// Execution draws pooled plane buffers from [`crate::plan_cache`], so
/// steady-state processing does not allocate.
///
/// # Examples
///
/// ```
/// use ftio_dsp::{Complex, Fft, Direction};
///
/// let fft = Fft::new(8);
/// let mut data: Vec<Complex> = (0..8).map(|i| Complex::from_real(i as f64)).collect();
/// let original = data.clone();
/// fft.process(&mut data, Direction::Forward);
/// fft.process(&mut data, Direction::Inverse);
/// for (a, b) in data.iter().zip(original.iter()) {
///     assert!((a.re - b.re).abs() < 1e-9);
///     assert!(a.im.abs() < 1e-9);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct Fft {
    len: usize,
    kind: PlanKind,
}

#[derive(Clone, Debug)]
enum PlanKind {
    /// Lengths 0 and 1 are identity transforms.
    Trivial,
    /// Iterative mixed-radix Cooley–Tukey over radices 4, 2, 3, 5, 7.
    Smooth(SmoothPlan),
    /// Bluestein chirp-z transform via a power-of-two convolution.
    Bluestein(BluesteinPlan),
}

/// Precomputed state for the iterative mixed-radix transform.
#[derive(Clone, Debug)]
struct SmoothPlan {
    /// Butterfly stages in execution order (sub-transform size grows).
    stages: Vec<Stage>,
    /// Digit-reversal gather: slot `t` of the work buffer reads input `perm[t]`.
    perm: Vec<u32>,
}

/// One mixed-radix butterfly stage combining `radix` sub-transforms of size
/// `m` into transforms of size `radix * m`.
#[derive(Clone, Debug)]
struct Stage {
    radix: usize,
    m: usize,
    /// Deinterleaved inter-stage twiddles `W_M^{s·k}` (`M = radix·m`), real
    /// plane. Layout: one contiguous run of `m` values per butterfly input,
    /// `tw_re[(s−1)·m + k]` for `s in 1..radix`, `k in 0..m` — so every
    /// kernel's `k`-loop reads its twiddles sequentially (SoA, vectorisable).
    tw_re: Vec<f64>,
    /// Deinterleaved inter-stage twiddles, imaginary plane (same layout).
    tw_im: Vec<f64>,
    /// Intra-butterfly roots `W_radix^{s·q}` with layout `roots[s·radix + q]`
    /// (forward sign); only used by the generic odd-radix kernel.
    roots: Vec<Complex>,
}

#[derive(Clone, Debug)]
struct BluesteinPlan {
    /// Convolution length (power of two >= 2*len - 1).
    conv_len: usize,
    /// Chirp sequence `exp(-i*pi*n^2/len)` for n in 0..len (forward sign),
    /// stored as deinterleaved planes so the elementwise chirp multiplies run
    /// on contiguous `f64` streams.
    chirp: SplitComplex,
    /// Forward FFT of the zero-padded, conjugated chirp filter (planes).
    filter_fft: SplitComplex,
    /// Inner power-of-two plan used for the convolution.
    inner: Box<Fft>,
}

impl Fft {
    /// Creates a plan for transforms of length `len`.
    ///
    /// Prefer [`crate::plan_cache::fft_plan`] on hot paths: it memoises plans
    /// per thread so repeated transforms of the same length reuse all tables.
    pub fn new(len: usize) -> Self {
        let kind = if len <= 1 {
            PlanKind::Trivial
        } else {
            let factors = factorize(len);
            if factors.iter().all(|&f| f <= 7) {
                PlanKind::Smooth(SmoothPlan::new(len, &factors))
            } else {
                PlanKind::Bluestein(BluesteinPlan::new(len))
            }
        };
        Fft { len, kind }
    }

    /// The transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the plan length is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Executes the transform in place on an interleaved buffer.
    ///
    /// Work buffers come from the thread-local pool
    /// ([`crate::plan_cache::take_split`]), so steady-state calls do not
    /// allocate.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan length.
    pub fn process(&self, data: &mut [Complex], direction: Direction) {
        assert_eq!(
            data.len(),
            self.len,
            "FFT plan length {} does not match buffer length {}",
            self.len,
            data.len()
        );
        self.execute_interleaved(data, direction);
    }

    /// Executes the transform in place on deinterleaved planes — the layout
    /// the butterfly kernels natively run on. This is the allocation-free hot
    /// path (apart from one pooled gather buffer): no interleave/deinterleave
    /// conversion happens at all.
    ///
    /// # Panics
    ///
    /// Panics if either plane's length differs from the plan length.
    pub fn process_split(&self, re: &mut [f64], im: &mut [f64], direction: Direction) {
        assert_eq!(
            re.len(),
            self.len,
            "FFT plan length {} does not match re-plane length {}",
            self.len,
            re.len()
        );
        assert_eq!(
            im.len(),
            self.len,
            "FFT plan length {} does not match im-plane length {}",
            self.len,
            im.len()
        );
        let conj = direction == Direction::Inverse;
        self.process_split_raw(re, im, conj);
        if conj && !matches!(self.kind, PlanKind::Trivial) {
            normalize_split(re, im);
        }
    }

    /// The unnormalised plane transform shared by every entry point: runs the
    /// plan kernels in place without the inverse `1/N` scale (the callers
    /// apply it), with `conj` selecting the inverse (conjugated-twiddle)
    /// direction.
    fn process_split_raw(&self, re: &mut [f64], im: &mut [f64], conj: bool) {
        match &self.kind {
            PlanKind::Trivial => {}
            PlanKind::Smooth(plan) => {
                let mut scratch = plan_cache::take_split(self.len);
                plan.gather_planes(re, im, &mut scratch);
                plan.run_stages(&mut scratch.re, &mut scratch.im, conj);
                re.copy_from_slice(&scratch.re);
                im.copy_from_slice(&scratch.im);
                plan_cache::give_split(scratch);
            }
            PlanKind::Bluestein(plan) => {
                let direction = if conj {
                    Direction::Inverse
                } else {
                    Direction::Forward
                };
                plan.process_split(re, im, direction);
            }
        }
    }

    /// Shared interleaved execution: deinterleave into pooled planes, run the
    /// plane kernels, reinterleave. The smooth path fuses the deinterleave
    /// with the digit-reversal gather (one pass instead of two).
    fn execute_interleaved(&self, data: &mut [Complex], direction: Direction) {
        let conj = direction == Direction::Inverse;
        match &self.kind {
            PlanKind::Trivial => {}
            PlanKind::Smooth(plan) => {
                let mut work = plan_cache::take_split(self.len);
                plan.gather_interleaved(data, &mut work);
                plan.run_stages(&mut work.re, &mut work.im, conj);
                if conj {
                    normalize_split(&mut work.re, &mut work.im);
                }
                work.copy_to_interleaved(data);
                plan_cache::give_split(work);
            }
            PlanKind::Bluestein(_) => {
                let mut work = plan_cache::take_split(self.len);
                work.copy_from_interleaved(data);
                self.process_split_raw(&mut work.re, &mut work.im, conj);
                if conj {
                    normalize_split(&mut work.re, &mut work.im);
                }
                work.copy_to_interleaved(data);
                plan_cache::give_split(work);
            }
        }
    }

    /// Convenience wrapper: forward-transform a copy of `data` and return it.
    pub fn forward(&self, data: &[Complex]) -> Vec<Complex> {
        let mut buf = data.to_vec();
        self.process(&mut buf, Direction::Forward);
        buf
    }

    /// Convenience wrapper: inverse-transform a copy of `data` and return it.
    pub fn inverse(&self, data: &[Complex]) -> Vec<Complex> {
        let mut buf = data.to_vec();
        self.process(&mut buf, Direction::Inverse);
        buf
    }
}

impl SmoothPlan {
    fn new(len: usize, factors: &[usize]) -> Self {
        // Execution order: odd radices first (smallest sub-transforms), then
        // the radix-2 fixup (when the power of two is odd), then radix-4
        // stages — so the large, cache-hungry stages use the cheapest kernel.
        let twos = factors.iter().filter(|&&f| f == 2).count();
        let mut radices: Vec<usize> = factors.iter().copied().filter(|&f| f != 2).collect();
        if twos % 2 == 1 {
            radices.push(2);
        }
        radices.extend(std::iter::repeat(4).take(twos / 2));

        let mut stages = Vec::with_capacity(radices.len());
        let mut m = 1usize;
        for &radix in &radices {
            let big_m = radix * m;
            let mut tw_re = Vec::with_capacity((radix - 1) * m);
            let mut tw_im = Vec::with_capacity((radix - 1) * m);
            for s in 1..radix {
                for k in 0..m {
                    let angle = -2.0 * std::f64::consts::PI * (s * k) as f64 / big_m as f64;
                    tw_re.push(angle.cos());
                    tw_im.push(angle.sin());
                }
            }
            let mut roots = Vec::with_capacity(radix * radix);
            for s in 0..radix {
                for q in 0..radix {
                    let angle =
                        -2.0 * std::f64::consts::PI * ((s * q) % radix) as f64 / radix as f64;
                    roots.push(Complex::cis(angle));
                }
            }
            stages.push(Stage {
                radix,
                m,
                tw_re,
                tw_im,
                roots,
            });
            m = big_m;
        }
        debug_assert_eq!(m, len);

        // Digit-reversal permutation: decimation happens in the *reverse* of
        // the execution order, so peel digits from the last stage inwards.
        let dec_radices: Vec<usize> = radices.iter().rev().copied().collect();
        let mut perm = Vec::with_capacity(len);
        for i in 0..len {
            let mut rem = i;
            let mut pos = 0usize;
            let mut span = len;
            for &f in &dec_radices {
                span /= f;
                pos += (rem % f) * span;
                rem /= f;
            }
            perm.push(pos as u32);
        }
        // `perm` maps source -> target; invert it into a gather table
        // (target -> source) so execution reads sequentially from scratch.
        let mut gather = vec![0u32; len];
        for (src, &dst) in perm.iter().enumerate() {
            gather[dst as usize] = src as u32;
        }
        SmoothPlan {
            stages,
            perm: gather,
        }
    }

    /// Gathers the digit-reversed input from an interleaved buffer into
    /// planes (deinterleave and permutation fused into one pass).
    fn gather_interleaved(&self, data: &[Complex], out: &mut SplitComplex) {
        for ((slot_re, slot_im), &src) in out
            .re
            .iter_mut()
            .zip(out.im.iter_mut())
            .zip(self.perm.iter())
        {
            let z = data[src as usize];
            *slot_re = z.re;
            *slot_im = z.im;
        }
    }

    /// Gathers the digit-reversed input from source planes into `out`.
    fn gather_planes(&self, re: &[f64], im: &[f64], out: &mut SplitComplex) {
        for ((slot_re, slot_im), &src) in out
            .re
            .iter_mut()
            .zip(out.im.iter_mut())
            .zip(self.perm.iter())
        {
            *slot_re = re[src as usize];
            *slot_im = im[src as usize];
        }
    }

    /// Runs every butterfly stage in place on the (already digit-reversed)
    /// planes.
    fn run_stages(&self, re: &mut [f64], im: &mut [f64], conj: bool) {
        for stage in &self.stages {
            stage_in_place_split(re, im, stage, conj);
        }
    }
}

/// One in-place mixed-radix butterfly stage on deinterleaved planes. The
/// radix-2 and radix-4 bulk kernels loop over contiguous `f64` chunk slices
/// with sequential twiddle reads, which is the shape LLVM autovectorises.
fn stage_in_place_split(re: &mut [f64], im: &mut [f64], stage: &Stage, conj: bool) {
    match stage.radix {
        2 => radix2_stage(re, im, stage, conj),
        4 => radix4_stage(re, im, stage, conj),
        _ => generic_stage(re, im, stage, conj),
    }
}

fn radix2_stage(re: &mut [f64], im: &mut [f64], stage: &Stage, conj: bool) {
    let m = stage.m;
    let sign = if conj { -1.0 } else { 1.0 };
    let wr = &stage.tw_re[..m];
    let wi = &stage.tw_im[..m];
    for (rb, ib) in re.chunks_exact_mut(2 * m).zip(im.chunks_exact_mut(2 * m)) {
        let (r0, r1) = rb.split_at_mut(m);
        let (i0, i1) = ib.split_at_mut(m);
        for k in 0..m {
            let twr = wr[k];
            let twi = sign * wi[k];
            let tr = r1[k] * twr - i1[k] * twi;
            let ti = r1[k] * twi + i1[k] * twr;
            r1[k] = r0[k] - tr;
            i1[k] = i0[k] - ti;
            r0[k] += tr;
            i0[k] += ti;
        }
    }
}

fn radix4_stage(re: &mut [f64], im: &mut [f64], stage: &Stage, conj: bool) {
    let m = stage.m;
    let sign = if conj { -1.0 } else { 1.0 };
    let w1r = &stage.tw_re[..m];
    let w1i = &stage.tw_im[..m];
    let w2r = &stage.tw_re[m..2 * m];
    let w2i = &stage.tw_im[m..2 * m];
    let w3r = &stage.tw_re[2 * m..3 * m];
    let w3i = &stage.tw_im[2 * m..3 * m];
    for (rb, ib) in re.chunks_exact_mut(4 * m).zip(im.chunks_exact_mut(4 * m)) {
        let (r0, rest) = rb.split_at_mut(m);
        let (r1, rest) = rest.split_at_mut(m);
        let (r2, r3) = rest.split_at_mut(m);
        let (i0, rest) = ib.split_at_mut(m);
        let (i1, rest) = rest.split_at_mut(m);
        let (i2, i3) = rest.split_at_mut(m);
        for k in 0..m {
            let v0r = r0[k];
            let v0i = i0[k];
            let (x1r, x1i, t1r, t1i) = (r1[k], i1[k], w1r[k], sign * w1i[k]);
            let v1r = x1r * t1r - x1i * t1i;
            let v1i = x1r * t1i + x1i * t1r;
            let (x2r, x2i, t2wr, t2wi) = (r2[k], i2[k], w2r[k], sign * w2i[k]);
            let v2r = x2r * t2wr - x2i * t2wi;
            let v2i = x2r * t2wi + x2i * t2wr;
            let (x3r, x3i, t3wr, t3wi) = (r3[k], i3[k], w3r[k], sign * w3i[k]);
            let v3r = x3r * t3wr - x3i * t3wi;
            let v3i = x3r * t3wi + x3i * t3wr;

            let t0r = v0r + v2r;
            let t0i = v0i + v2i;
            let t1br = v0r - v2r;
            let t1bi = v0i - v2i;
            let t2r = v1r + v3r;
            let t2i = v1i + v3i;
            // (v1 - v3) rotated by −i (forward) / +i (inverse).
            let dr = v1r - v3r;
            let di = v1i - v3i;
            let t3r = sign * di;
            let t3i = -sign * dr;

            r0[k] = t0r + t2r;
            i0[k] = t0i + t2i;
            r1[k] = t1br + t3r;
            i1[k] = t1bi + t3i;
            r2[k] = t0r - t2r;
            i2[k] = t0i - t2i;
            r3[k] = t1br - t3r;
            i3[k] = t1bi - t3i;
        }
    }
}

/// Generic odd-radix (3, 5, 7) kernel: butterfly inputs are cached in small
/// stack arrays, so the strided writes never overwrite unread inputs.
fn generic_stage(re: &mut [f64], im: &mut [f64], stage: &Stage, conj: bool) {
    let m = stage.m;
    let r = stage.radix;
    let big_m = r * m;
    let sign = if conj { -1.0 } else { 1.0 };
    let mut vr = [0.0f64; 7];
    let mut vi = [0.0f64; 7];
    for (rb, ib) in re.chunks_exact_mut(big_m).zip(im.chunks_exact_mut(big_m)) {
        for k in 0..m {
            vr[0] = rb[k];
            vi[0] = ib[k];
            for s in 1..r {
                let twr = stage.tw_re[(s - 1) * m + k];
                let twi = sign * stage.tw_im[(s - 1) * m + k];
                let xr = rb[s * m + k];
                let xi = ib[s * m + k];
                vr[s] = xr * twr - xi * twi;
                vi[s] = xr * twi + xi * twr;
            }
            for q in 0..r {
                let mut ar = vr[0];
                let mut ai = vi[0];
                for s in 1..r {
                    let root = stage.roots[s * r + q];
                    let twr = root.re;
                    let twi = sign * root.im;
                    ar += vr[s] * twr - vi[s] * twi;
                    ai += vr[s] * twi + vi[s] * twr;
                }
                rb[q * m + k] = ar;
                ib[q * m + k] = ai;
            }
        }
    }
}

impl BluesteinPlan {
    /// Builds the chirp/filter tables.
    fn new(len: usize) -> Self {
        // The smallest power-of-two convolution length that makes the
        // circular convolution equal the linear one on the outputs we keep.
        let conv_len = (2 * len - 1).next_power_of_two();
        // Chirp: c_n = exp(-i * pi * n^2 / len). Computed with n^2 mod 2*len to
        // keep the argument small and avoid precision loss for large n.
        let mut chirp = SplitComplex::with_len(len);
        for n in 0..len {
            let sq = ((n as u128 * n as u128) % (2 * len as u128)) as f64;
            let angle = -std::f64::consts::PI * sq / len as f64;
            chirp.re[n] = angle.cos();
            chirp.im[n] = angle.sin();
        }
        // Filter b_n = conj(chirp), wrapped so that negative indices map to the
        // end of the buffer (circular convolution).
        let mut filter_fft = SplitComplex::with_len(conv_len);
        for n in 0..len {
            filter_fft.re[n] = chirp.re[n];
            filter_fft.im[n] = -chirp.im[n];
            if n != 0 {
                filter_fft.re[conv_len - n] = chirp.re[n];
                filter_fft.im[conv_len - n] = -chirp.im[n];
            }
        }
        let inner = Box::new(Fft::new(conv_len));
        inner.process_split(&mut filter_fft.re, &mut filter_fft.im, Direction::Forward);
        BluesteinPlan {
            conv_len,
            chirp,
            filter_fft,
            inner,
        }
    }

    fn process_split(&self, re: &mut [f64], im: &mut [f64], direction: Direction) {
        let n = re.len();
        let conv_len = self.conv_len;
        // The inverse transform conjugates the chirp — and the filter spectrum
        // (the filter is conjugate-symmetric by construction) — which on the
        // planes is just a sign on the imaginary parts.
        let cs = if direction == Direction::Inverse {
            -1.0
        } else {
            1.0
        };
        let mut a = plan_cache::take_split(conv_len);

        // a_n = x_n * chirp_n, zero-padded to the convolution length.
        for k in 0..n {
            let cr = self.chirp.re[k];
            let ci = cs * self.chirp.im[k];
            a.re[k] = re[k] * cr - im[k] * ci;
            a.im[k] = re[k] * ci + im[k] * cr;
        }
        a.re[n..conv_len].fill(0.0);
        a.im[n..conv_len].fill(0.0);

        self.inner
            .process_split(&mut a.re, &mut a.im, Direction::Forward);
        for k in 0..conv_len {
            let fr = self.filter_fft.re[k];
            let fi = cs * self.filter_fft.im[k];
            let xr = a.re[k];
            let xi = a.im[k];
            a.re[k] = xr * fr - xi * fi;
            a.im[k] = xr * fi + xi * fr;
        }
        self.inner
            .process_split(&mut a.re, &mut a.im, Direction::Inverse);

        for k in 0..n {
            let cr = self.chirp.re[k];
            let ci = cs * self.chirp.im[k];
            let xr = a.re[k];
            let xi = a.im[k];
            re[k] = xr * cr - xi * ci;
            im[k] = xr * ci + xi * cr;
        }
        plan_cache::give_split(a);
    }
}

/// Forward DFT of a real-valued signal, returning the full complex spectrum.
///
/// This is the historical full-spectrum entry point: the discretised bandwidth
/// signal is real, so the spectrum is conjugate-symmetric and only bins
/// `0..=N/2` carry independent information. Internally the transform runs
/// through the cached [`crate::rfft::RealFft`] fast path (an `N/2`-point
/// complex FFT for even `N`) and the redundant upper half is mirrored from the
/// lower bins. Callers that only need bins `0..=N/2` should use [`rfft`].
pub fn fft_real(signal: &[f64]) -> Vec<Complex> {
    let n = signal.len();
    let half = crate::rfft::rfft(signal);
    let mut full = Vec::with_capacity(n);
    full.extend_from_slice(&half);
    full.resize(n, Complex::ZERO);
    for k in 1..n.div_ceil(2) {
        full[n - k] = half[k].conj();
    }
    full
}

/// Forward half-spectrum DFT of a real-valued signal: bins `0..=N/2`.
///
/// Re-exported from [`mod@crate::rfft`]; see [`crate::rfft::RealFft`] for the
/// zero-allocation plan API.
pub use crate::rfft::rfft;

/// Forward FFT of a complex buffer (allocating convenience function).
///
/// Uses the thread-local [`crate::plan_cache`], so repeated calls at the same
/// length reuse the plan and its scratch buffers.
pub fn fft(signal: &[Complex]) -> Vec<Complex> {
    let mut buf = signal.to_vec();
    process_cached(&mut buf, Direction::Forward);
    buf
}

/// Inverse FFT of a complex buffer (allocating convenience function).
///
/// Uses the thread-local [`crate::plan_cache`], so repeated calls at the same
/// length reuse the plan and its scratch buffers.
pub fn ifft(spectrum: &[Complex]) -> Vec<Complex> {
    let mut buf = spectrum.to_vec();
    process_cached(&mut buf, Direction::Inverse);
    buf
}

/// Transforms `data` in place through the plan cache with pooled plane
/// buffers.
pub(crate) fn process_cached(data: &mut [Complex], direction: Direction) {
    let plan = plan_cache::fft_plan(data.len());
    plan.execute_interleaved(data, direction);
}

/// Naive `O(N^2)` DFT used as a cross-check in tests and for very short inputs.
pub fn dft_naive(signal: &[Complex], direction: Direction) -> Vec<Complex> {
    let n = signal.len();
    if n == 0 {
        return Vec::new();
    }
    let sign = direction.sign();
    let mut out = vec![Complex::ZERO; n];
    for (k, out_k) in out.iter_mut().enumerate() {
        let mut acc = Complex::ZERO;
        for (t, &x) in signal.iter().enumerate() {
            let angle = sign * 2.0 * std::f64::consts::PI * (k as f64) * (t as f64) / n as f64;
            acc += x * Complex::cis(angle);
        }
        *out_k = acc;
    }
    if direction == Direction::Inverse {
        normalize(&mut out);
    }
    out
}

/// Returns the prime factorisation of `n` in non-decreasing order.
pub fn factorize(mut n: usize) -> Vec<usize> {
    let mut factors = Vec::new();
    let mut d = 2;
    while d * d <= n {
        while n % d == 0 {
            factors.push(d);
            n /= d;
        }
        d += 1;
    }
    if n > 1 {
        factors.push(n);
    }
    factors
}

pub(crate) fn normalize(data: &mut [Complex]) {
    let inv = 1.0 / data.len() as f64;
    for x in data.iter_mut() {
        *x = x.scale(inv);
    }
}

/// `1/N` scaling of deinterleaved planes — two contiguous `f64` streams, the
/// vectorisable form of [`normalize`].
pub(crate) fn normalize_split(re: &mut [f64], im: &mut [f64]) {
    let inv = 1.0 / re.len() as f64;
    for x in re.iter_mut() {
        *x *= inv;
    }
    for x in im.iter_mut() {
        *x *= inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_spectra_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert!(
                (x.re - y.re).abs() <= tol && (x.im - y.im).abs() <= tol,
                "bin {i}: {x:?} vs {y:?}"
            );
        }
    }

    fn impulse(n: usize) -> Vec<Complex> {
        let mut v = vec![Complex::ZERO; n];
        v[0] = Complex::ONE;
        v
    }

    #[test]
    fn factorize_small_numbers() {
        assert_eq!(factorize(1), Vec::<usize>::new());
        assert_eq!(factorize(2), vec![2]);
        assert_eq!(factorize(12), vec![2, 2, 3]);
        assert_eq!(factorize(97), vec![97]);
        assert_eq!(factorize(360), vec![2, 2, 2, 3, 3, 5]);
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        for &n in &[4usize, 8, 12, 15, 97, 128] {
            let spec = fft(&impulse(n));
            for x in spec {
                assert!((x.re - 1.0).abs() < 1e-9 && x.im.abs() < 1e-9, "n={n}");
            }
        }
    }

    #[test]
    fn constant_signal_concentrates_in_dc() {
        let n = 64;
        let signal = vec![Complex::from_real(2.5); n];
        let spec = fft(&signal);
        assert!((spec[0].re - 2.5 * n as f64).abs() < 1e-9);
        for x in &spec[1..] {
            assert!(x.abs() < 1e-9);
        }
    }

    #[test]
    fn pure_cosine_peaks_at_its_frequency() {
        let n = 128;
        let k0 = 5;
        let signal: Vec<f64> = (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * k0 as f64 * i as f64 / n as f64).cos())
            .collect();
        let spec = fft_real(&signal);
        // Energy concentrated at bins k0 and N-k0, each with amplitude N/2.
        assert!((spec[k0].abs() - n as f64 / 2.0).abs() < 1e-6);
        assert!((spec[n - k0].abs() - n as f64 / 2.0).abs() < 1e-6);
        for (k, x) in spec.iter().enumerate() {
            if k != k0 && k != n - k0 {
                assert!(x.abs() < 1e-6, "leakage at bin {k}");
            }
        }
    }

    #[test]
    fn radix2_matches_naive_dft() {
        let n = 32;
        let signal: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.3).sin(), (i as f64 * 0.7).cos()))
            .collect();
        let fast = fft(&signal);
        let slow = dft_naive(&signal, Direction::Forward);
        assert_spectra_close(&fast, &slow, 1e-9);
    }

    #[test]
    fn all_power_of_two_lengths_match_naive_dft() {
        // Exercises the radix-4 kernel with (n = 4^k) and without (n = 2·4^k)
        // the radix-2 fixup stage.
        for &n in &[2usize, 4, 8, 16, 32, 64, 128, 256] {
            let signal: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.9).sin(), (i as f64 * 0.45).cos()))
                .collect();
            let fast = fft(&signal);
            let slow = dft_naive(&signal, Direction::Forward);
            assert_spectra_close(&fast, &slow, 1e-8);
        }
    }

    #[test]
    fn mixed_radix_matches_naive_dft() {
        for &n in &[6usize, 12, 15, 20, 21, 35, 60, 105, 210, 360] {
            let signal: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 1.1).sin(), (i as f64 * 0.2).cos()))
                .collect();
            let fast = fft(&signal);
            let slow = dft_naive(&signal, Direction::Forward);
            assert_spectra_close(&fast, &slow, 1e-8);
        }
    }

    #[test]
    fn bluestein_matches_naive_dft_for_prime_lengths() {
        for &n in &[11usize, 13, 17, 97, 101, 211] {
            let signal: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            let fast = fft(&signal);
            let slow = dft_naive(&signal, Direction::Forward);
            assert_spectra_close(&fast, &slow, 1e-7);
        }
    }

    #[test]
    fn large_composite_with_big_prime_factor_uses_bluestein() {
        // 2 * 509 has a prime factor > 7 and must go through Bluestein.
        let n = 1018;
        let signal: Vec<Complex> = (0..n)
            .map(|i| Complex::from_real((i % 10) as f64))
            .collect();
        let fast = fft(&signal);
        let slow = dft_naive(&signal, Direction::Forward);
        assert_spectra_close(&fast, &slow, 1e-6);
    }

    #[test]
    fn inverse_recovers_original_for_all_plan_kinds() {
        for &n in &[8usize, 12, 97, 100, 1018] {
            let signal: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64).sin(), (i as f64 / 3.0).cos()))
                .collect();
            let roundtrip = ifft(&fft(&signal));
            assert_spectra_close(&roundtrip, &signal, 1e-7);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 240;
        let signal: Vec<f64> = (0..n).map(|i| ((i * 7) % 13) as f64 - 6.0).collect();
        let spec = fft_real(&signal);
        let time_energy: f64 = signal.iter().map(|x| x * x).sum();
        let freq_energy: f64 = spec.iter().map(|x| x.norm_sqr()).sum::<f64>() / n as f64;
        assert!((time_energy - freq_energy).abs() / time_energy < 1e-9);
    }

    #[test]
    fn real_signal_spectrum_is_conjugate_symmetric() {
        let n = 90;
        let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin() + 0.3).collect();
        let spec = fft_real(&signal);
        for k in 1..n / 2 {
            let a = spec[k];
            let b = spec[n - k].conj();
            assert!((a.re - b.re).abs() < 1e-8 && (a.im - b.im).abs() < 1e-8);
        }
    }

    #[test]
    fn zero_and_one_length_transforms_are_identity() {
        assert!(fft(&[]).is_empty());
        let single = vec![Complex::new(3.0, -1.0)];
        assert_eq!(fft(&single), single);
        assert_eq!(ifft(&single), single);
    }

    #[test]
    #[should_panic(expected = "does not match buffer length")]
    fn mismatched_plan_length_panics() {
        let plan = Fft::new(8);
        let mut buf = vec![Complex::ZERO; 4];
        plan.process(&mut buf, Direction::Forward);
    }

    #[test]
    fn plan_reuse_gives_identical_results() {
        let n = 100;
        let signal: Vec<Complex> = (0..n).map(|i| Complex::from_real(i as f64)).collect();
        let plan = Fft::new(n);
        let a = plan.forward(&signal);
        let b = plan.forward(&signal);
        assert_spectra_close(&a, &b, 0.0);
    }

    #[test]
    fn split_plane_api_matches_interleaved_api() {
        // Smooth power-of-two, mixed-radix, odd-smooth, prime (Bluestein) and
        // composite-with-big-prime lengths, both directions.
        for &n in &[8usize, 12, 15, 60, 64, 97, 105, 360, 1018] {
            let signal: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.77).sin(), (i as f64 * 0.31).cos()))
                .collect();
            let plan = Fft::new(n);
            for direction in [Direction::Forward, Direction::Inverse] {
                let mut interleaved = signal.clone();
                plan.process(&mut interleaved, direction);
                let mut re: Vec<f64> = signal.iter().map(|z| z.re).collect();
                let mut im: Vec<f64> = signal.iter().map(|z| z.im).collect();
                plan.process_split(&mut re, &mut im, direction);
                for (k, z) in interleaved.iter().enumerate() {
                    assert!(
                        (z.re - re[k]).abs() < 1e-12 && (z.im - im[k]).abs() < 1e-12,
                        "n={n} {direction:?} bin {k}: ({}, {}) vs {z:?}",
                        re[k],
                        im[k]
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not match re-plane length")]
    fn mismatched_split_plane_length_panics() {
        let plan = Fft::new(8);
        let mut re = vec![0.0; 4];
        let mut im = vec![0.0; 4];
        plan.process_split(&mut re, &mut im, Direction::Forward);
    }

    #[test]
    fn in_place_and_copying_paths_agree() {
        for &n in &[16usize, 60, 97, 1018] {
            let signal: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.13).cos(), (i as f64 * 0.29).sin()))
                .collect();
            let plan = Fft::new(n);
            let mut in_place = signal.clone();
            plan.process(&mut in_place, Direction::Forward);
            let copying = plan.forward(&signal);
            assert_spectra_close(&in_place, &copying, 0.0);
        }
    }

    #[test]
    fn plan_kind_follows_the_prime_factors() {
        // 2^15 has only small factors → mixed-radix, however long.
        assert!(matches!(Fft::new(32_768).kind, PlanKind::Smooth(_)));
        // 16411 is prime → Bluestein over a 65,536-point convolution, which
        // is itself mixed-radix. So is the hot FTIO length 7919 (16,384).
        assert_eq!(factorize(16_411), vec![16_411]);
        for (n, conv_len) in [(16_411usize, 65_536usize), (7919, 16_384)] {
            match &Fft::new(n).kind {
                PlanKind::Bluestein(plan) => {
                    assert_eq!(plan.conv_len, conv_len, "n={n}");
                    assert!(matches!(plan.inner.kind, PlanKind::Smooth(_)), "n={n}");
                }
                other => panic!("{n} should be Bluestein, got {other:?}"),
            }
        }
    }

    /// The longest transforms offline detection runs (the ACF of a signal of
    /// ≥ 16,385 samples is a 65,536-point real FFT), checked against a
    /// directly evaluated DFT at seeded bins and by an inverse round trip.
    #[test]
    fn large_plans_match_a_direct_dft_and_round_trip() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        const BINS: usize = 16;
        // X[k] = Σ x[t]·W_N^{k·t}, with the exponent reduced mod N before
        // the angle is formed so the reference keeps its precision at large N.
        fn direct_bin(x: &[Complex], k: usize) -> Complex {
            let n = x.len();
            x.iter().enumerate().fold(Complex::ZERO, |acc, (t, &v)| {
                let idx = ((k as u128 * t as u128) % n as u128) as f64;
                acc + v * Complex::cis(-2.0 * std::f64::consts::PI * idx / n as f64)
            })
        }
        fn assert_close(a: Complex, b: Complex, tol: f64, what: &str) {
            assert!(
                (a.re - b.re).abs() <= tol && (a.im - b.im).abs() <= tol,
                "{what}: {a:?} vs {b:?} (tolerance {tol:e})"
            );
        }

        let mut rng = StdRng::seed_from_u64(0x0d59_0f70);
        for n in [32_768usize, 65_536, 16_411] {
            let x: Vec<Complex> = (0..n)
                .map(|_| Complex::new(rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)))
                .collect();
            let tol = 1e-9 * x.iter().map(|v| v.abs()).sum::<f64>();
            let plan = Fft::new(n);
            let spectrum = plan.forward(&x);
            for _ in 0..BINS {
                let k = rng.gen_range(0..n);
                let what = format!("n={n} bin {k}");
                assert_close(spectrum[k], direct_bin(&x, k), tol, &what);
            }
            let back = plan.inverse(&spectrum);
            assert_spectra_close(&back, &x, 1e-9);
        }

        let n = 65_536usize;
        let signal: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let x: Vec<Complex> = signal.iter().map(|&v| Complex::from_real(v)).collect();
        let tol = 1e-9 * signal.iter().map(|v| v.abs()).sum::<f64>();
        let plan = crate::rfft::RealFft::new(n);
        let mut half = Vec::new();
        plan.process(&signal, &mut half);
        for _ in 0..BINS {
            let k = rng.gen_range(0..=n / 2);
            let what = format!("real n={n} bin {k}");
            assert_close(half[k], direct_bin(&x, k), tol, &what);
        }
        let mut back = Vec::new();
        plan.inverse(&half, &mut back);
        for (t, (a, b)) in back.iter().zip(&signal).enumerate() {
            assert!((a - b).abs() <= 1e-9, "real n={n} sample {t}: {a} vs {b}");
        }
    }

    #[test]
    fn linearity_of_the_transform() {
        let n = 64;
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::from_real((i as f64).sin()))
            .collect();
        let y: Vec<Complex> = (0..n)
            .map(|i| Complex::from_real((i as f64).cos()))
            .collect();
        let sum: Vec<Complex> = x.iter().zip(&y).map(|(a, b)| *a + *b).collect();
        let fx = fft(&x);
        let fy = fft(&y);
        let fsum = fft(&sum);
        for k in 0..n {
            let expect = fx[k] + fy[k];
            assert!((fsum[k].re - expect.re).abs() < 1e-9);
            assert!((fsum[k].im - expect.im).abs() < 1e-9);
        }
    }
}

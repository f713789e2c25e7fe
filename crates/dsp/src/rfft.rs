//! Real-input FFT: the forward r2c transform and its c2r inverse.
//!
//! FTIO only ever transforms *real* bandwidth signals, whose spectra are
//! conjugate-symmetric: bins `k` and `N-k` are redundant. [`RealFft`] exploits
//! this by packing the `N` real samples into `N/2` complex values
//! (`z_k = x_{2k} + i·x_{2k+1}`), running an `N/2`-point complex FFT, and
//! recombining with an `O(N)` split post-pass:
//!
//! ```text
//! X_k = (Z_k + conj(Z_{H-k}))/2  −  (i/2)·W_N^k·(Z_k − conj(Z_{H-k})),   H = N/2
//! ```
//!
//! This halves both the arithmetic and the memory traffic compared to running
//! the full `N`-point complex transform, and only bins `0..=N/2` — the ones
//! the single-sided spectrum keeps — are produced. Odd lengths fall back to a
//! complex transform internally but still return only the half spectrum.
//!
//! The inverse direction ([`RealFft::inverse`], even lengths) undoes the split
//! and runs the `N/2`-point complex FFT backwards; the autocorrelation
//! (Wiener–Khinchin) pipeline uses it so the power spectrum never has to be
//! mirrored back to full length.
//!
//! Plans precompute all tables; processing with caller-provided buffers does
//! not allocate once the buffers have grown to size. A plan's complex plan
//! comes from [`crate::plan_cache::fft_plan`], shared with every other plan
//! that needs that length on the thread. The free function [`rfft`] is the
//! cached convenience entry point.

use std::sync::Arc;

use crate::complex::{Complex, SplitComplex};
use crate::fft::{Direction, Fft};
use crate::plan_cache;

/// A reusable real-input FFT plan for a fixed transform length.
///
/// # Examples
///
/// ```
/// use ftio_dsp::rfft::RealFft;
///
/// let plan = RealFft::new(8);
/// let signal: Vec<f64> = (0..8).map(|i| (i as f64 * 0.7).sin()).collect();
/// let mut half = Vec::new();
/// plan.process(&signal, &mut half);
/// assert_eq!(half.len(), 5); // bins 0 ..= N/2
///
/// let mut roundtrip = Vec::new();
/// plan.inverse(&half, &mut roundtrip);
/// for (a, b) in roundtrip.iter().zip(signal.iter()) {
///     assert!((a - b).abs() < 1e-9);
/// }
/// ```
#[derive(Clone, Debug)]
pub struct RealFft {
    len: usize,
    /// Complex plan of length `len/2` (even `len`) or `len` (odd fallback),
    /// taken from the thread's plan cache.
    inner: Arc<Fft>,
    /// Split twiddles `W_N^k = exp(-2πik/N)` for `k in 0..H` (even `len` only).
    twiddles: Vec<Complex>,
}

impl RealFft {
    /// Creates a plan for real transforms of length `len`.
    ///
    /// Prefer [`crate::plan_cache::rfft_plan`] on hot paths: it memoises plans
    /// per thread.
    pub fn new(len: usize) -> Self {
        // Even lengths pack sample pairs into a half-length complex transform;
        // odd lengths (and 0 and 1) run the complex plan of the full length.
        let packed = len > 1 && len % 2 == 0;
        let twiddles = if packed {
            (0..len / 2)
                .map(|k| Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / len as f64))
                .collect()
        } else {
            Vec::new()
        };
        RealFft {
            len,
            inner: plan_cache::fft_plan(if packed { len / 2 } else { len }),
            twiddles,
        }
    }

    /// The real signal length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the plan length is zero.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of half-spectrum bins produced: `N/2 + 1` (0 for an empty plan).
    #[inline]
    pub fn output_len(&self) -> usize {
        if self.len == 0 {
            0
        } else {
            self.len / 2 + 1
        }
    }

    /// Forward transform: writes the half spectrum (bins `0..=N/2`) of the
    /// real `signal` into `out`.
    ///
    /// `out` is resized as needed and reused across calls; work buffers come
    /// from the thread-local pool, so steady-state invocations do not
    /// allocate.
    ///
    /// # Panics
    ///
    /// Panics if `signal.len()` differs from the plan length.
    pub fn process(&self, signal: &[f64], out: &mut Vec<Complex>) {
        assert_eq!(
            signal.len(),
            self.len,
            "real FFT plan length {} does not match signal length {}",
            self.len,
            signal.len()
        );
        self.process_padded(signal, out);
    }

    /// Forward transform of `signal` zero-padded (virtually) to the plan
    /// length: `signal.len()` may be at most `len`; missing samples read as 0.
    ///
    /// This is the entry point for padded convolution-style uses such as the
    /// FFT autocorrelation, which would otherwise have to materialise the
    /// padded buffer.
    ///
    /// # Panics
    ///
    /// Panics if `signal.len()` exceeds the plan length.
    pub fn process_padded(&self, signal: &[f64], out: &mut Vec<Complex>) {
        let mut half = plan_cache::take_split(self.output_len());
        self.process_padded_split(signal, &mut half);
        out.clear();
        out.extend(
            half.re
                .iter()
                .zip(&half.im)
                .map(|(&r, &i)| Complex::new(r, i)),
        );
        plan_cache::give_split(half);
    }

    /// Forward transform with deinterleaved output: writes the half spectrum
    /// (bins `0..=N/2`) of the zero-padded real `signal` into the planes of
    /// `out`.
    ///
    /// This is the native form of the transform — the split recombination and
    /// any downstream elementwise pass (the autocorrelation's `|X|²` fold, a
    /// power-spectrum computation) run on contiguous `f64` planes and
    /// autovectorise. `out` is resized to [`RealFft::output_len`].
    ///
    /// # Panics
    ///
    /// Panics if `signal.len()` exceeds the plan length.
    pub fn process_padded_split(&self, signal: &[f64], out: &mut SplitComplex) {
        assert!(
            signal.len() <= self.len,
            "signal length {} exceeds real FFT plan length {}",
            signal.len(),
            self.len
        );
        let n = self.len;
        if n == 0 {
            out.resize(0);
            return;
        }
        if n == 1 {
            out.resize(1);
            out.re[0] = signal.first().copied().unwrap_or(0.0);
            out.im[0] = 0.0;
            return;
        }
        if n % 2 == 0 {
            let h = n / 2;
            let mut z = plan_cache::take_split(h);
            // Pack pairs of real samples into complex values, zero-padding
            // past the end of `signal`.
            let at = |i: usize| signal.get(i).copied().unwrap_or(0.0);
            for k in 0..h {
                z.re[k] = at(2 * k);
                z.im[k] = at(2 * k + 1);
            }
            self.inner
                .process_split(&mut z.re, &mut z.im, Direction::Forward);

            out.resize(h + 1);
            // DC and Nyquist come straight from Z_0.
            out.re[0] = z.re[0] + z.im[0];
            out.im[0] = 0.0;
            out.re[h] = z.re[0] - z.im[0];
            out.im[h] = 0.0;
            for k in 1..h {
                let ar = z.re[k];
                let ai = z.im[k];
                let br = z.re[h - k];
                let bi = -z.im[h - k];
                let er = 0.5 * (ar + br);
                let ei = 0.5 * (ai + bi);
                let odd_r = 0.5 * (ar - br);
                let odd_i = 0.5 * (ai - bi);
                let w = self.twiddles[k];
                // odd = ((a − conj(b))/2 · W_N^k) · (−i)
                let pr = odd_r * w.re - odd_i * w.im;
                let pi = odd_r * w.im + odd_i * w.re;
                out.re[k] = er + pi;
                out.im[k] = ei - pr;
            }
            plan_cache::give_split(z);
        } else {
            let mut buf = plan_cache::take_split(n);
            for i in 0..n {
                buf.re[i] = signal.get(i).copied().unwrap_or(0.0);
                buf.im[i] = 0.0;
            }
            self.inner
                .process_split(&mut buf.re, &mut buf.im, Direction::Forward);
            out.resize(n / 2 + 1);
            out.re.copy_from_slice(&buf.re[..n / 2 + 1]);
            out.im.copy_from_slice(&buf.im[..n / 2 + 1]);
            plan_cache::give_split(buf);
        }
    }

    /// Inverse transform: recovers the real signal from its half spectrum
    /// (bins `0..=N/2`), including the `1/N` normalisation, so
    /// `inverse(process(x)) == x`.
    ///
    /// `out` is resized as needed and reused across calls.
    ///
    /// # Panics
    ///
    /// Panics if `half.len()` differs from [`RealFft::output_len`].
    pub fn inverse(&self, half: &[Complex], out: &mut Vec<f64>) {
        let mut split = plan_cache::take_split(half.len());
        split.copy_from_interleaved(half);
        self.inverse_split(&split, out);
        plan_cache::give_split(split);
    }

    /// Inverse transform from a deinterleaved half spectrum — the native form
    /// ([`RealFft::process_padded_split`] is the forward counterpart).
    ///
    /// # Panics
    ///
    /// Panics if `half.len()` differs from [`RealFft::output_len`].
    pub fn inverse_split(&self, half: &SplitComplex, out: &mut Vec<f64>) {
        assert_eq!(
            half.len(),
            self.output_len(),
            "half spectrum length {} does not match the {} bins of an N={} plan",
            half.len(),
            self.output_len(),
            self.len
        );
        let n = self.len;
        out.clear();
        if n == 0 {
            return;
        }
        if n == 1 {
            out.push(half.re[0]);
            return;
        }
        if n % 2 == 0 {
            let h = n / 2;
            let mut z = plan_cache::take_split(h);
            // Undo the split: rebuild the H-point spectrum of the packed
            // signal, then one inverse complex FFT de-interleaves the samples.
            z.re[0] = 0.5 * (half.re[0] + half.re[h]);
            z.im[0] = 0.5 * (half.re[0] - half.re[h]);
            for k in 1..h {
                let ar = half.re[k];
                let ai = half.im[k];
                let br = half.re[h - k];
                let bi = -half.im[h - k];
                let er = 0.5 * (ar + br);
                let ei = 0.5 * (ai + bi);
                let odd_r = 0.5 * (ar - br);
                let odd_i = 0.5 * (ai - bi);
                let w = self.twiddles[k];
                // odd = ((a − conj(b))/2 · conj(W_N^k)) · (+i)
                let pr = odd_r * w.re + odd_i * w.im;
                let pi = -odd_r * w.im + odd_i * w.re;
                z.re[k] = er - pi;
                z.im[k] = ei + pr;
            }
            self.inner
                .process_split(&mut z.re, &mut z.im, Direction::Inverse);
            out.resize(n, 0.0);
            for k in 0..h {
                out[2 * k] = z.re[k];
                out[2 * k + 1] = z.im[k];
            }
            plan_cache::give_split(z);
        } else {
            // Odd lengths: mirror the half spectrum and run the complex plan.
            let mut buf = plan_cache::take_split(n);
            buf.re[..half.len()].copy_from_slice(&half.re);
            buf.im[..half.len()].copy_from_slice(&half.im);
            for k in 1..n.div_ceil(2) {
                buf.re[n - k] = half.re[k];
                buf.im[n - k] = -half.im[k];
            }
            self.inner
                .process_split(&mut buf.re, &mut buf.im, Direction::Inverse);
            out.extend(buf.re[..n].iter().copied());
            plan_cache::give_split(buf);
        }
    }
}

/// Forward half-spectrum FFT of a real signal: returns bins `0..=N/2`
/// (`N/2 + 1` values, empty for an empty signal).
///
/// Plans and scratch buffers come from the thread-local
/// [`crate::plan_cache`], so repeated calls at the same length perform no
/// plan construction and no scratch allocation — only the returned vector is
/// fresh. For a fully allocation-free pipeline hold a [`RealFft`] (or use
/// [`crate::plan_cache::rfft_plan`]) and reuse the output buffer.
pub fn rfft(signal: &[f64]) -> Vec<Complex> {
    let plan = plan_cache::rfft_plan(signal.len());
    let mut half = plan_cache::take_split(plan.output_len());
    plan.process_padded_split(signal, &mut half);
    let out = half.to_interleaved();
    plan_cache::give_split(half);
    out
}

/// Inverse of [`rfft`]: recovers the length-`len` real signal from its half
/// spectrum, including the `1/N` normalisation.
///
/// # Panics
///
/// Panics if `half.len() != len / 2 + 1` (for `len > 0`).
pub fn irfft(half: &[Complex], len: usize) -> Vec<f64> {
    let plan = plan_cache::rfft_plan(len);
    let mut split = plan_cache::take_split(half.len());
    split.copy_from_interleaved(half);
    let mut out = Vec::with_capacity(len);
    plan.inverse_split(&split, &mut out);
    plan_cache::give_split(split);
    out
}

/// The canonical half-spectrum length for a real signal of `len` samples.
#[inline]
pub fn half_spectrum_len(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        len / 2 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::{dft_naive, fft_real};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_signal(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| rng.gen_range(-50.0f64..50.0)).collect()
    }

    /// Independent reference: the plain N-point complex transform, built
    /// directly (NOT `fft_real`, which is itself implemented on top of
    /// `rfft` and would make the comparison circular).
    fn full_complex_reference(signal: &[f64]) -> Vec<Complex> {
        let buf: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
        Fft::new(buf.len()).forward(&buf)
    }

    fn assert_half_matches_full(signal: &[f64], tol: f64) {
        let n = signal.len();
        let half = rfft(signal);
        let full = full_complex_reference(signal);
        assert_eq!(half.len(), half_spectrum_len(n));
        for (k, (a, b)) in half.iter().zip(full.iter()).enumerate() {
            let scale = b.abs().max(1.0);
            assert!(
                (a.re - b.re).abs() <= tol * scale && (a.im - b.im).abs() <= tol * scale,
                "n={n} bin {k}: {a:?} vs {b:?}"
            );
        }
    }

    #[test]
    fn fft_real_mirror_matches_the_complex_transform() {
        // `fft_real` reconstructs the upper half from conjugate symmetry;
        // check the full spectrum against the independent complex path for
        // both parities.
        let mut rng = StdRng::seed_from_u64(0x0d59_1007);
        for &n in &[8usize, 9, 90, 97, 128, 1018] {
            let signal = random_signal(&mut rng, n);
            let mirrored = fft_real(&signal);
            let reference = full_complex_reference(&signal);
            assert_eq!(mirrored.len(), reference.len());
            for (k, (a, b)) in mirrored.iter().zip(reference.iter()).enumerate() {
                let scale = b.abs().max(1.0);
                assert!(
                    (a.re - b.re).abs() <= 1e-8 * scale && (a.im - b.im).abs() <= 1e-8 * scale,
                    "n={n} bin {k}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn rfft_matches_complex_fft_across_plan_kinds() {
        let mut rng = StdRng::seed_from_u64(0x0d59_1001);
        // Power-of-two, even-composite, odd-smooth, and prime lengths —
        // including the 7817/7919 prime lengths from the benchmark set.
        for &n in &[
            2usize, 4, 8, 64, 256, 8192, 6, 12, 20, 60, 360, 15, 105, 97, 211, 7817, 7919,
        ] {
            let signal = random_signal(&mut rng, n);
            assert_half_matches_full(&signal, 1e-8);
        }
    }

    #[test]
    fn rfft_matches_naive_dft_for_small_lengths() {
        let mut rng = StdRng::seed_from_u64(0x0d59_1002);
        for &n in &[2usize, 3, 5, 8, 12, 31, 64, 97, 128] {
            let signal = random_signal(&mut rng, n);
            let complex: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
            let slow = dft_naive(&complex, Direction::Forward);
            let half = rfft(&signal);
            for (k, a) in half.iter().enumerate() {
                let b = slow[k];
                let scale = b.abs().max(1.0);
                assert!(
                    (a.re - b.re).abs() <= 1e-8 * scale && (a.im - b.im).abs() <= 1e-8 * scale,
                    "n={n} bin {k}: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn randomized_lengths_match_the_full_path() {
        let mut rng = StdRng::seed_from_u64(0x0d59_1003);
        for _case in 0..48 {
            let n = rng.gen_range(1usize..400);
            let signal = random_signal(&mut rng, n);
            assert_half_matches_full(&signal, 1e-8);
        }
    }

    #[test]
    fn energy_is_preserved_in_the_half_spectrum() {
        let mut rng = StdRng::seed_from_u64(0x0d59_1004);
        for &n in &[16usize, 60, 97, 240, 7817] {
            let signal = random_signal(&mut rng, n);
            let half = rfft(&signal);
            let time_energy: f64 = signal.iter().map(|x| x * x).sum();
            // Parseval over the half spectrum: interior bins count twice.
            let mut freq_energy = half[0].norm_sqr();
            for (k, x) in half.iter().enumerate().skip(1) {
                let double = !(n % 2 == 0 && k == n / 2);
                freq_energy += if double {
                    2.0 * x.norm_sqr()
                } else {
                    x.norm_sqr()
                };
            }
            freq_energy /= n as f64;
            assert!(
                (time_energy - freq_energy).abs() <= 1e-8 * time_energy.max(1.0),
                "n={n}: {time_energy} vs {freq_energy}"
            );
        }
    }

    #[test]
    fn inverse_roundtrips_for_even_and_odd_lengths() {
        let mut rng = StdRng::seed_from_u64(0x0d59_1005);
        for &n in &[2usize, 4, 10, 64, 100, 9, 15, 97, 1018] {
            let signal = random_signal(&mut rng, n);
            let half = rfft(&signal);
            let roundtrip = irfft(&half, n);
            assert_eq!(roundtrip.len(), n);
            for (i, (a, b)) in roundtrip.iter().zip(signal.iter()).enumerate() {
                assert!((a - b).abs() < 1e-8, "n={n} sample {i}: {a} vs {b}");
            }
        }
    }

    #[test]
    fn padded_processing_equals_explicit_zero_padding() {
        let mut rng = StdRng::seed_from_u64(0x0d59_1006);
        let signal = random_signal(&mut rng, 300);
        let padded_len = 1024usize;
        let mut padded = signal.clone();
        padded.resize(padded_len, 0.0);

        let plan = RealFft::new(padded_len);
        let mut out = Vec::new();
        plan.process_padded(&signal, &mut out);
        let expect = rfft(&padded);
        assert_eq!(out.len(), expect.len());
        for (a, b) in out.iter().zip(expect.iter()) {
            assert!((a.re - b.re).abs() < 1e-9 && (a.im - b.im).abs() < 1e-9);
        }
    }

    #[test]
    fn empty_and_single_sample_edge_cases() {
        assert!(rfft(&[]).is_empty());
        assert_eq!(half_spectrum_len(0), 0);
        assert!(irfft(&[], 0).is_empty());

        let single = rfft(&[4.25]);
        assert_eq!(single.len(), 1);
        assert_eq!(single[0], Complex::from_real(4.25));
        let back = irfft(&single, 1);
        assert_eq!(back, vec![4.25]);
    }

    #[test]
    #[should_panic(expected = "does not match signal length")]
    fn mismatched_signal_length_panics() {
        let plan = RealFft::new(8);
        let mut out = Vec::new();
        plan.process(&[1.0; 4], &mut out);
    }

    #[test]
    #[should_panic(expected = "does not match the")]
    fn mismatched_half_spectrum_panics() {
        let plan = RealFft::new(8);
        let mut out = Vec::new();
        plan.inverse(&[Complex::ZERO; 3], &mut out);
    }

    #[test]
    fn real_plans_take_their_complex_plan_from_the_cache() {
        // Even: the half-length plan. Odd: the full-length plan.
        for (len, inner) in [(202usize, 101usize), (203, 203)] {
            let plan = plan_cache::rfft_plan(len);
            assert!(
                Arc::ptr_eq(&plan.inner, &plan_cache::fft_plan(inner)),
                "{len}"
            );
        }
    }
}

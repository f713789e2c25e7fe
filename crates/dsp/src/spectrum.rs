//! Spectral representations of a discretised I/O signal.
//!
//! FTIO inspects the *single-sided power spectrum* of the bandwidth signal
//! (paper §II-B1): for a real signal of `N` samples only the bins
//! `k = 0 ..= N/2` carry independent information, the bin `k` corresponds to
//! the frequency `f_k = k * fs / N`, and the power of a bin is
//! `p_k = |X_k|^2 / N`. Normalising by the total power turns the y-axis into
//! the *contribution of the frequency to the total signal power*, the quantity
//! plotted in the paper's spectrum figures.

use crate::complex::Complex;
use crate::rfft::rfft;

/// Single-sided spectrum of a real-valued signal.
///
/// Holds the complex bins `X_0 ..= X_{N/2}`, the sampling frequency, and the
/// original signal length so that amplitudes, powers and frequencies can be
/// derived without keeping the full symmetric spectrum around.
#[derive(Clone, Debug)]
pub struct Spectrum {
    bins: Vec<Complex>,
    sampling_freq: f64,
    signal_len: usize,
}

impl Spectrum {
    /// Computes the single-sided spectrum of `signal` sampled at `sampling_freq` Hz.
    ///
    /// The bins come from the real-input FFT path ([`mod@crate::rfft`]): only the
    /// `N/2 + 1` single-sided bins are stored, computed for even `N` via an
    /// `N/2`-point complex transform (half the work); odd lengths run a
    /// complex transform internally and keep just the half spectrum. The FFT
    /// plan and scratch buffers are cached per thread
    /// ([`crate::plan_cache`]), so repeated spectra of same-length signals
    /// only allocate the bin vector itself.
    ///
    /// # Panics
    ///
    /// Panics if `sampling_freq` is not strictly positive.
    pub fn from_signal(signal: &[f64], sampling_freq: f64) -> Self {
        assert!(
            sampling_freq > 0.0,
            "sampling frequency must be positive, got {sampling_freq}"
        );
        Spectrum {
            bins: rfft(signal),
            sampling_freq,
            signal_len: signal.len(),
        }
    }

    /// Number of single-sided bins (`N/2 + 1` for a length-`N` signal).
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Length `N` of the original time-domain signal.
    pub fn signal_len(&self) -> usize {
        self.signal_len
    }

    /// Sampling frequency `fs` in Hz.
    pub fn sampling_freq(&self) -> f64 {
        self.sampling_freq
    }

    /// Frequency resolution `fs / N = 1 / Δt` in Hz (spacing between bins).
    pub fn freq_resolution(&self) -> f64 {
        if self.signal_len == 0 {
            0.0
        } else {
            self.sampling_freq / self.signal_len as f64
        }
    }

    /// The frequency in Hz of bin `k`.
    pub fn frequency(&self, k: usize) -> f64 {
        k as f64 * self.freq_resolution()
    }

    /// All bin frequencies, `f_k = k * fs / N` for `k = 0 ..= N/2`.
    pub fn frequencies(&self) -> Vec<f64> {
        (0..self.num_bins()).map(|k| self.frequency(k)).collect()
    }

    /// Raw complex bin `X_k`.
    pub fn bin(&self, k: usize) -> Complex {
        self.bins[k]
    }

    /// The complex bins `X_0 ..= X_{N/2}`.
    pub fn bins(&self) -> &[Complex] {
        &self.bins
    }

    /// DC offset `X_0 / N`, i.e. the mean of the signal.
    pub fn dc_offset(&self) -> f64 {
        if self.signal_len == 0 {
            0.0
        } else {
            self.bins[0].re / self.signal_len as f64
        }
    }

    /// Amplitude spectrum `|X_k|` (raw, not scaled for single-sided display).
    pub fn amplitudes(&self) -> Vec<f64> {
        self.bins.iter().map(|x| x.abs()).collect()
    }

    /// Single-sided display amplitudes: `|X_0|/N` for DC and `2|X_k|/N` for
    /// the remaining bins, matching Eq. (1) of the paper.
    pub fn single_sided_amplitudes(&self) -> Vec<f64> {
        if self.signal_len == 0 {
            return Vec::new();
        }
        let n = self.signal_len as f64;
        self.bins
            .iter()
            .enumerate()
            .map(|(k, x)| {
                if k == 0 {
                    x.abs() / n
                } else {
                    2.0 * x.abs() / n
                }
            })
            .collect()
    }

    /// Phases `arg(X_k)` in radians.
    pub fn phases(&self) -> Vec<f64> {
        self.bins.iter().map(|x| x.arg()).collect()
    }

    /// Power spectrum `p_k = |X_k|^2 / N` (paper §II-B1).
    pub fn powers(&self) -> Vec<f64> {
        if self.signal_len == 0 {
            return Vec::new();
        }
        let n = self.signal_len as f64;
        self.bins.iter().map(|x| x.norm_sqr() / n).collect()
    }

    /// Total power of the single-sided spectrum, including the DC bin.
    pub fn total_power(&self) -> f64 {
        self.powers().iter().sum()
    }

    /// Normalised power spectrum: each `p_k` divided by the total power, so
    /// values express the contribution of each frequency to the signal power.
    ///
    /// If the total power is zero (all-zero signal) an all-zero vector is returned.
    pub fn normalized_powers(&self) -> Vec<f64> {
        let powers = self.powers();
        let total: f64 = powers.iter().sum();
        if total == 0.0 {
            return powers;
        }
        powers.into_iter().map(|p| p / total).collect()
    }

    /// Powers of the non-DC bins (`k >= 1`), the input to outlier detection.
    pub fn powers_without_dc(&self) -> Vec<f64> {
        let p = self.powers();
        if p.len() <= 1 {
            Vec::new()
        } else {
            p[1..].to_vec()
        }
    }

    /// Maximum representable frequency (Nyquist), `fs / 2`.
    pub fn nyquist(&self) -> f64 {
        self.sampling_freq / 2.0
    }

    /// Index of the non-DC bin with the highest power, if any.
    pub fn argmax_power(&self) -> Option<usize> {
        let powers = self.powers();
        powers
            .iter()
            .enumerate()
            .skip(1)
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN power"))
            .map(|(k, _)| k)
    }
}

/// Reconstructs the time-domain signal from the `top_k` highest-power non-DC
/// bins plus the DC offset, using the single-sided cosine form of Eq. (1):
///
/// `x_n = (X_0 + Σ 2|X_k| cos(2πkn/N + arg X_k)) / N`
///
/// This is what the paper's Fig. 13/14 plot (DC offset plus the one to three
/// highest-contributing cosine waves) to compare the detected period against
/// the original signal.
pub fn reconstruct_from_top_bins(spectrum: &Spectrum, top_k: usize) -> Vec<f64> {
    let n = spectrum.signal_len();
    if n == 0 {
        return Vec::new();
    }
    let powers = spectrum.powers();
    // Rank non-DC bins by power.
    let mut order: Vec<usize> = (1..spectrum.num_bins()).collect();
    order.sort_by(|&a, &b| powers[b].partial_cmp(&powers[a]).expect("NaN power"));
    let selected: Vec<usize> = order.into_iter().take(top_k).collect();
    reconstruct_from_bins(spectrum, &selected)
}

/// Reconstructs the time-domain signal from an explicit set of non-DC bins
/// (plus the DC offset, which is always included).
pub fn reconstruct_from_bins(spectrum: &Spectrum, bins: &[usize]) -> Vec<f64> {
    let n = spectrum.signal_len();
    if n == 0 {
        return Vec::new();
    }
    let nf = n as f64;
    let x0 = spectrum.bin(0).re;
    let mut out = vec![x0 / nf; n];
    for &k in bins {
        if k == 0 || k >= spectrum.num_bins() {
            continue;
        }
        let amp = 2.0 * spectrum.bin(k).abs() / nf;
        let phase = spectrum.bin(k).arg();
        for (i, sample) in out.iter_mut().enumerate() {
            let angle = 2.0 * std::f64::consts::PI * k as f64 * i as f64 / nf + phase;
            *sample += amp * angle.cos();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cosine_signal(n: usize, k0: usize, amp: f64, offset: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                offset + amp * (2.0 * std::f64::consts::PI * k0 as f64 * i as f64 / n as f64).cos()
            })
            .collect()
    }

    #[test]
    fn bin_count_and_frequencies() {
        let s = Spectrum::from_signal(&vec![0.0; 100], 10.0);
        assert_eq!(s.num_bins(), 51);
        assert_eq!(s.signal_len(), 100);
        assert!((s.freq_resolution() - 0.1).abs() < 1e-12);
        assert!((s.frequency(10) - 1.0).abs() < 1e-12);
        assert!((s.nyquist() - 5.0).abs() < 1e-12);
        let freqs = s.frequencies();
        assert_eq!(freqs.len(), 51);
        assert!((freqs[50] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn dc_offset_equals_signal_mean() {
        let signal = vec![3.0; 64];
        let s = Spectrum::from_signal(&signal, 1.0);
        assert!((s.dc_offset() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn cosine_power_concentrates_in_one_bin() {
        let n = 200;
        let signal = cosine_signal(n, 8, 2.0, 5.0);
        let s = Spectrum::from_signal(&signal, 1.0);
        let normed = s.normalized_powers();
        // DC dominates, then bin 8; all other non-DC bins are ~zero.
        let non_dc_max = (1..s.num_bins())
            .max_by(|&a, &b| normed[a].partial_cmp(&normed[b]).unwrap())
            .unwrap();
        assert_eq!(non_dc_max, 8);
        assert_eq!(s.argmax_power(), Some(8));
        for (k, &power) in normed.iter().enumerate().take(s.num_bins()).skip(1) {
            if k != 8 {
                assert!(power < 1e-12, "unexpected power at bin {k}");
            }
        }
    }

    #[test]
    fn single_sided_amplitudes_recover_cosine_amplitude() {
        let n = 128;
        let signal = cosine_signal(n, 4, 1.5, 2.0);
        let s = Spectrum::from_signal(&signal, 1.0);
        let amps = s.single_sided_amplitudes();
        assert!((amps[0] - 2.0).abs() < 1e-9, "DC amplitude");
        assert!((amps[4] - 1.5).abs() < 1e-9, "cosine amplitude");
    }

    #[test]
    fn normalized_powers_sum_to_one() {
        let signal: Vec<f64> = (0..150).map(|i| (i % 7) as f64).collect();
        let s = Spectrum::from_signal(&signal, 2.0);
        let total: f64 = s.normalized_powers().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_signal_has_zero_power() {
        let s = Spectrum::from_signal(&vec![0.0; 32], 1.0);
        assert_eq!(s.total_power(), 0.0);
        assert!(s.normalized_powers().iter().all(|&p| p == 0.0));
    }

    #[test]
    fn empty_signal_is_handled() {
        let s = Spectrum::from_signal(&[], 1.0);
        assert_eq!(s.num_bins(), 0);
        assert_eq!(s.dc_offset(), 0.0);
        assert!(s.powers().is_empty());
        assert!(s.powers_without_dc().is_empty());
        assert_eq!(s.argmax_power(), None);
    }

    #[test]
    #[should_panic(expected = "sampling frequency must be positive")]
    fn non_positive_sampling_freq_panics() {
        Spectrum::from_signal(&[1.0, 2.0], 0.0);
    }

    #[test]
    fn reconstruction_with_single_bin_matches_pure_cosine() {
        let n = 100;
        let signal = cosine_signal(n, 5, 3.0, 7.0);
        let s = Spectrum::from_signal(&signal, 1.0);
        let rec = reconstruct_from_top_bins(&s, 1);
        for (a, b) in rec.iter().zip(signal.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn reconstruction_with_more_bins_reduces_error() {
        // Square-ish periodic signal: more harmonics => better fit.
        let n = 240;
        let signal: Vec<f64> = (0..n)
            .map(|i| if (i / 20) % 2 == 0 { 10.0 } else { 0.0 })
            .collect();
        let s = Spectrum::from_signal(&signal, 1.0);
        let err = |rec: &[f64]| -> f64 {
            rec.iter()
                .zip(&signal)
                .map(|(a, b)| (a - b).powi(2))
                .sum::<f64>()
        };
        let e1 = err(&reconstruct_from_top_bins(&s, 1));
        let e5 = err(&reconstruct_from_top_bins(&s, 5));
        let e20 = err(&reconstruct_from_top_bins(&s, 20));
        assert!(e5 < e1);
        assert!(e20 < e5);
    }

    #[test]
    fn reconstruct_from_bins_ignores_invalid_indices() {
        let n = 50;
        let signal = cosine_signal(n, 3, 1.0, 0.5);
        let s = Spectrum::from_signal(&signal, 1.0);
        let rec = reconstruct_from_bins(&s, &[0, 3, 999]);
        for (a, b) in rec.iter().zip(signal.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn powers_without_dc_drops_first_bin() {
        let signal = cosine_signal(64, 2, 1.0, 4.0);
        let s = Spectrum::from_signal(&signal, 1.0);
        let all = s.powers();
        let no_dc = s.powers_without_dc();
        assert_eq!(no_dc.len(), all.len() - 1);
        assert_eq!(no_dc[0], all[1]);
    }
}

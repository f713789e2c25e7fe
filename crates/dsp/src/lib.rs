//! # ftio-dsp
//!
//! Signal-processing substrate for FTIO-rs, the Rust reproduction of
//! *"Capturing Periodic I/O Using Frequency Techniques"* (IPDPS 2024).
//!
//! The crate provides everything the FTIO analysis needs, implemented from
//! scratch with no numeric dependencies:
//!
//! * [`mod@fft`] — fast Fourier transform for arbitrary lengths (mixed-radix
//!   with radix-4/2 kernels, and Bluestein), executing on a deinterleaved
//!   (structure-of-arrays) complex layout ([`complex::SplitComplex`]) whose
//!   contiguous-plane butterfly loops autovectorise on stable Rust, plus a
//!   naive DFT for cross-checking;
//! * [`mod@rfft`] — the real-input FFT fast path: FTIO's signals are real, so
//!   their spectra are conjugate-symmetric and an `N`-point transform reduces
//!   to an `N/2`-point complex FFT plus an `O(N)` recombination — half the
//!   arithmetic and memory traffic of the complex path;
//! * [`plan_cache`] — per-thread memoisation of FFT plans plus a scratch
//!   buffer pool, so the hot spectral paths (`Spectrum::from_signal`, the
//!   FFT autocorrelation, the `ftio-core` online tick) build no plans and
//!   allocate no work buffers in steady state; debug counters
//!   ([`plan_cache::stats`]) make the property testable;
//! * [`spectrum`] — single-sided amplitude/power spectra, normalised power,
//!   and time-domain reconstruction from selected bins (Eq. (1) of the paper);
//! * [`correlation`] — autocorrelation (direct and FFT-based via the real
//!   half-spectrum) and cross-correlation;
//! * [`peaks`] — SciPy-style `find_peaks` with height/threshold/distance/
//!   prominence filters;
//! * [`stats`] — means, variances, percentiles and box-plot summaries;
//! * [`zscore`], [`dbscan`], [`lof`], [`isolation_forest`] — the outlier
//!   detection methods the paper evaluates (§II-B2);
//! * [`window`] — taper functions for the ablation studies.
//!
//! # Quick example
//!
//! ```
//! use ftio_dsp::spectrum::Spectrum;
//! use ftio_dsp::zscore::outlier_indices;
//!
//! // A bandwidth-like signal with a strong 10-sample period.
//! let signal: Vec<f64> = (0..200)
//!     .map(|i| if i % 10 < 2 { 8.0 } else { 0.0 })
//!     .collect();
//! let spectrum = Spectrum::from_signal(&signal, 1.0);
//! let powers = spectrum.powers_without_dc();
//! let outliers = outlier_indices(&powers, 3.0);
//! // Bin 20 (of the non-DC spectrum: index 19) corresponds to f = 0.1 Hz.
//! assert!(outliers.contains(&19));
//! ```

pub mod complex;
pub mod correlation;
pub mod dbscan;
pub mod fft;
pub mod isolation_forest;
pub mod lof;
pub mod peaks;
pub mod plan_cache;
pub mod rfft;
pub mod spectrum;
pub mod stats;
pub mod window;
pub mod zscore;

pub use complex::{Complex, SplitComplex};
pub use correlation::{autocorrelation, autocorrelation_with, Normalization};
pub use dbscan::{cluster_intervals, dbscan_1d, ClusterInterval, Clustering, Label};
pub use fft::{dft_naive, fft, fft_real, ifft, Direction, Fft};
pub use isolation_forest::{isolation_forest_outliers, ForestConfig, IsolationForest};
pub use lof::{local_outlier_factor, LofResult};
pub use peaks::{find_peak_indices, find_peaks, Peak, PeakConfig};
pub use plan_cache::PlanCacheStats;
pub use rfft::{irfft, rfft, RealFft};
pub use spectrum::{reconstruct_from_bins, reconstruct_from_top_bins, Spectrum};
pub use stats::BoxStats;
pub use window::WindowKind;
pub use zscore::{outlier_indices, z_scores};

#[cfg(test)]
// Seeded randomized invariant tests (a property-test stand-in: the build
// environment has no crates.io access, so `proptest` is unavailable).
mod property_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn arbitrary_signal(rng: &mut StdRng, max_len: usize) -> Vec<f64> {
        let n = rng.gen_range(1..max_len);
        (0..n).map(|_| rng.gen_range(-100.0f64..100.0)).collect()
    }

    /// `ifft(fft(x)) == x` for any real signal of any length.
    #[test]
    fn fft_roundtrip_recovers_signal() {
        let mut rng = StdRng::seed_from_u64(0x0d59_0001);
        for _case in 0..64 {
            let signal = arbitrary_signal(&mut rng, 300);
            let complex: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
            let roundtrip = ifft(&fft(&complex));
            for (a, b) in roundtrip.iter().zip(signal.iter()) {
                assert!((a.re - b).abs() < 1e-6);
                assert!(a.im.abs() < 1e-6);
            }
        }
    }

    /// Parseval: time-domain energy equals frequency-domain energy / N.
    #[test]
    fn fft_preserves_energy() {
        let mut rng = StdRng::seed_from_u64(0x0d59_0002);
        for _case in 0..64 {
            let signal = arbitrary_signal(&mut rng, 300);
            let spec = fft_real(&signal);
            let time_energy: f64 = signal.iter().map(|x| x * x).sum();
            let freq_energy: f64 =
                spec.iter().map(|x| x.norm_sqr()).sum::<f64>() / signal.len() as f64;
            assert!((time_energy - freq_energy).abs() <= 1e-6 * time_energy.max(1.0));
        }
    }

    /// The FFT agrees with the O(N^2) reference DFT for random signals.
    #[test]
    fn fft_matches_naive_dft() {
        let mut rng = StdRng::seed_from_u64(0x0d59_0003);
        for _case in 0..64 {
            let signal = arbitrary_signal(&mut rng, 128);
            let complex: Vec<Complex> = signal.iter().map(|&x| Complex::from_real(x)).collect();
            let fast = fft(&complex);
            let slow = dft_naive(&complex, Direction::Forward);
            for (a, b) in fast.iter().zip(slow.iter()) {
                assert!((a.re - b.re).abs() < 1e-5);
                assert!((a.im - b.im).abs() < 1e-5);
            }
        }
    }

    /// Normalised powers always sum to 1 (or 0 for a null signal).
    #[test]
    fn normalized_power_sums_to_one() {
        let mut rng = StdRng::seed_from_u64(0x0d59_0004);
        for _case in 0..64 {
            let signal = arbitrary_signal(&mut rng, 256);
            let spectrum = Spectrum::from_signal(&signal, 2.0);
            let total: f64 = spectrum.normalized_powers().iter().sum();
            assert!((total - 1.0).abs() < 1e-6 || total == 0.0);
        }
    }

    /// The normalised autocorrelation is 1 at lag zero and bounded by 1 in magnitude.
    #[test]
    fn acf_bounded_by_one() {
        let mut rng = StdRng::seed_from_u64(0x0d59_0005);
        for _case in 0..64 {
            let signal = arbitrary_signal(&mut rng, 256);
            let acf = autocorrelation(&signal);
            if acf[0] != 0.0 {
                assert!((acf[0] - 1.0).abs() < 1e-9);
            }
            for &v in &acf {
                assert!(v.abs() <= 1.0 + 1e-9);
            }
        }
    }

    /// Z-score outliers are always a subset of the input indices and the
    /// threshold is monotone: raising it never adds outliers.
    #[test]
    fn zscore_threshold_is_monotone() {
        let mut rng = StdRng::seed_from_u64(0x0d59_0006);
        for _case in 0..64 {
            let signal = arbitrary_signal(&mut rng, 200);
            let lo = outlier_indices(&signal, 2.0);
            let hi = outlier_indices(&signal, 3.0);
            for idx in &hi {
                assert!(lo.contains(idx));
                assert!(*idx < signal.len());
            }
        }
    }

    /// DBSCAN assigns every point either to a cluster or to noise, and
    /// cluster ids are dense in 0..num_clusters.
    #[test]
    fn dbscan_labels_are_consistent() {
        let mut rng = StdRng::seed_from_u64(0x0d59_0007);
        for _case in 0..64 {
            let points: Vec<f64> = (0..rng.gen_range(1usize..100))
                .map(|_| rng.gen_range(0.0f64..50.0))
                .collect();
            let eps = rng.gen_range(0.1f64..5.0);
            let min_pts = rng.gen_range(1usize..5);
            let c = dbscan_1d(&points, eps, min_pts);
            assert_eq!(c.labels.len(), points.len());
            for label in &c.labels {
                if let Some(id) = label.cluster_id() {
                    assert!(id < c.num_clusters);
                }
            }
            let clustered: usize = (0..c.num_clusters).map(|id| c.members(id).len()).sum();
            assert_eq!(clustered + c.noise().len(), points.len());
        }
    }

    /// Cluster-interval probabilities sum to at most 1.
    #[test]
    fn cluster_probabilities_bounded() {
        let mut rng = StdRng::seed_from_u64(0x0d59_0008);
        for _case in 0..64 {
            let points: Vec<f64> = (0..rng.gen_range(1usize..80))
                .map(|_| rng.gen_range(0.0f64..10.0))
                .collect();
            let intervals = cluster_intervals(&points, 0.5, 2);
            let total: f64 = intervals.iter().map(|i| i.probability).sum();
            assert!(total <= 1.0 + 1e-9);
            for i in &intervals {
                assert!(i.min <= i.center && i.center <= i.max);
            }
        }
    }

    /// Peak indices are strictly increasing and never at the boundaries.
    #[test]
    fn peaks_are_interior_and_sorted() {
        let mut rng = StdRng::seed_from_u64(0x0d59_0009);
        for _case in 0..64 {
            let signal = arbitrary_signal(&mut rng, 200);
            let peaks = find_peak_indices(&signal, &PeakConfig::default());
            for w in peaks.windows(2) {
                assert!(w[0] < w[1]);
            }
            for &p in &peaks {
                assert!(p > 0 && p + 1 < signal.len());
            }
        }
    }

    /// Percentile is monotone in p and bounded by the data range.
    #[test]
    fn percentile_is_monotone() {
        let mut rng = StdRng::seed_from_u64(0x0d59_000a);
        for _case in 0..64 {
            let signal = arbitrary_signal(&mut rng, 100);
            let p25 = stats::percentile(&signal, 25.0);
            let p50 = stats::percentile(&signal, 50.0);
            let p75 = stats::percentile(&signal, 75.0);
            assert!(p25 <= p50 + 1e-12);
            assert!(p50 <= p75 + 1e-12);
            assert!(p25 >= stats::min(&signal) - 1e-12);
            assert!(p75 <= stats::max(&signal) + 1e-12);
        }
    }
}

//! # ftio-core
//!
//! The core of FTIO-rs — a Rust reproduction of FTIO, the online method for
//! detecting periodic I/O phases of HPC applications presented in *"Capturing
//! Periodic I/O Using Frequency Techniques"* (IPDPS 2024).
//!
//! FTIO treats the application-level I/O bandwidth over time as a signal,
//! discretises it, applies the discrete Fourier transform, and uses outlier
//! detection on the power spectrum to decide whether a *dominant frequency*
//! exists. Its reciprocal is the period of the I/O phases — the single number
//! contention-avoidance techniques such as I/O schedulers need. Confidence
//! metrics (Z-score-based confidence, autocorrelation refinement) and
//! characterisation metrics (σ_vol, σ_time, R_IO, B_IO, periodicity score)
//! qualify the result; an online mode predicts the period during the run and
//! adapts its analysis window to behavioural changes.
//!
//! ## Module map
//!
//! | paper section | module |
//! |---|---|
//! | §II-A data gathering | [`sampling`] (on top of `ftio-trace`) |
//! | §II-B1 DFT | [`spectrum_info`] (on top of `ftio-dsp`) |
//! | §II-B2 outlier detection | [`outlier`], [`dominant`] |
//! | §II-C confidence + characterisation | [`dominant`], [`autocorrelation`], [`mod@characterize`] |
//! | §II-D online prediction | [`online`], [`freq_merge`], [`cluster`] (multi-application scale-out) |
//! | §II-E parameter selection | [`sampling`] (abstraction error, fs recommendation) |
//! | Figs. 2/13/14 reconstruction | [`reconstruct`] |
//! | adversarial evaluation (this repo) | [`eval`] (tracking latency, harmonic-folded error) |
//! | live deployment (this repo) | [`server`] (socket-facing daemon around [`cluster`]) |
//!
//! ## Quick example
//!
//! ```
//! use ftio_core::{detect_trace, FtioConfig};
//! use ftio_trace::{AppTrace, IoRequest};
//!
//! // An application writing a 2 s burst every 30 s.
//! let mut trace = AppTrace::named("demo", 4);
//! for i in 0..20 {
//!     let start = i as f64 * 30.0;
//!     for rank in 0..4 {
//!         trace.push(IoRequest::write(rank, start, start + 2.0, 500_000_000));
//!     }
//! }
//!
//! let result = detect_trace(&trace, &FtioConfig::with_sampling_freq(1.0));
//! let period = result.period().expect("the trace is periodic");
//! assert!((period - 30.0).abs() < 2.0);
//! println!("{}", ftio_core::report::render(&result));
//! ```

pub mod autocorrelation;
pub mod characterize;
pub mod checkpoint;
pub mod cluster;
pub mod config;
pub mod detection;
pub mod dominant;
pub mod eval;
pub mod freq_merge;
pub mod online;
pub mod outlier;
pub mod reconstruct;
pub mod report;
pub mod sampling;
pub mod server;
pub mod spectrum_info;

pub use autocorrelation::{analyze_acf, AcfAnalysis};
pub use characterize::{characterize, io_ratio, Characterization};
pub use cluster::{
    AppPredictions, BackpressurePolicy, ClusterConfig, ClusterEngine, ClusterStats, Pacing,
    PredictionEvent, ReplayStats, SubmitOutcome, DEFAULT_RESUME_RING,
};
pub use config::{FtioConfig, OutlierMethod};
pub use detection::{
    detect_heatmap, detect_signal, detect_source, detect_trace, detect_trace_window,
    DetectionResult,
};
pub use dominant::{FrequencyCandidate, PeriodicityVerdict};
pub use eval::{
    relative_error, render_report as render_eval_report, score_predictions, score_ticks,
    ChangeTracking, EvalConfig, EvalReport, EvalTick, TickScore,
};
pub use freq_merge::{merge_predictions, FrequencyInterval, FrequencyPrediction};
pub use online::{OnlinePrediction, OnlinePredictor, WindowStrategy};
pub use reconstruct::{reconstruct_bins, reconstruct_candidates, Reconstruction};
pub use sampling::{
    recommend_sampling_freq, sample_heatmap, sample_trace, sample_trace_window, IncrementalSampler,
    RetentionPolicy, SampledSignal, SamplerStats,
};
pub use spectrum_info::SpectrumInfo;

// Seeded randomized invariant tests (a property-test stand-in: the build
// environment has no crates.io access, so `proptest` is unavailable).
#[cfg(test)]
mod property_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Builds a strictly periodic bandwidth signal with the given parameters.
    fn periodic_samples(periods: usize, period_len: usize, burst_len: usize, amp: f64) -> Vec<f64> {
        (0..periods * period_len)
            .map(|i| if i % period_len < burst_len { amp } else { 0.0 })
            .collect()
    }

    /// FTIO recovers the period of any clean pulse train (within one
    /// frequency-resolution step), and the confidence lies in [0, 1].
    #[test]
    fn recovers_clean_pulse_train_periods() {
        let mut rng = StdRng::seed_from_u64(0xf710_0001);
        for case in 0..32 {
            let period_len = rng.gen_range(8usize..60);
            let periods = rng.gen_range(8usize..20);
            let burst_frac = rng.gen_range(0.18f64..0.5);
            let amp = rng.gen_range(1.0f64..1e10);
            // A duty cycle of at least ~18% keeps the harmonic content of the
            // ideal rectangular train below the candidate tolerance; real I/O
            // phases have smoother edges, which the accuracy experiments
            // (Fig. 8 reproduction) cover separately.
            let burst_len = ((period_len as f64 * burst_frac).round() as usize).max(2);
            let samples = periodic_samples(periods, period_len, burst_len, amp);
            let signal = SampledSignal::from_samples(samples, 1.0, 0.0);
            let result = detect_signal(&signal, &FtioConfig::with_sampling_freq(1.0));
            assert!(
                result.is_periodic(),
                "case {case}: clean pulse train must be periodic"
            );
            let detected = result.period().unwrap();
            let resolution_period =
                1.0 / (1.0 / period_len as f64 - result.freq_resolution).max(1e-9);
            assert!(
                (detected - period_len as f64).abs()
                    <= (resolution_period - period_len as f64).abs() + 1e-6,
                "case {case}: period {detected} vs true {period_len}"
            );
            let c = result.confidence();
            assert!((0.0..=1.0).contains(&c), "case {case}: confidence {c}");
            let rc = result.refined_confidence();
            assert!((0.0..=1.0).contains(&rc), "case {case}: refined {rc}");
        }
    }

    /// The characterisation metrics stay within their documented ranges
    /// for arbitrary non-negative signals.
    #[test]
    fn characterization_ranges_hold() {
        let mut rng = StdRng::seed_from_u64(0xf710_0002);
        for case in 0..32 {
            let samples: Vec<f64> = (0..rng.gen_range(30usize..300))
                .map(|_| rng.gen_range(0.0f64..1e9))
                .collect();
            let period = rng.gen_range(3usize..20);
            let signal = SampledSignal::from_samples(samples, 1.0, 0.0);
            if let Some(c) = characterize(&signal, 1.0 / period as f64) {
                assert!((0.0..=1.0).contains(&c.io_time_ratio), "case {case}");
                assert!(c.io_bandwidth >= 0.0, "case {case}");
                assert!(c.sigma_vol >= 0.0, "case {case}");
                assert!(c.sigma_time >= 0.0, "case {case}");
                assert!((0.0..=1.0).contains(&c.periodicity_score), "case {case}");
                assert!(c.volume_per_period >= 0.0, "case {case}");
                assert!(c.num_periods >= 1, "case {case}");
            }
        }
    }

    /// Detection never panics on arbitrary non-negative signals and always
    /// produces confidences in [0, 1] and a finite period when periodic.
    #[test]
    fn detection_is_total_on_arbitrary_signals() {
        let mut rng = StdRng::seed_from_u64(0xf710_0003);
        for case in 0..32 {
            let samples: Vec<f64> = (0..rng.gen_range(0usize..400))
                .map(|_| rng.gen_range(0.0f64..1e8))
                .collect();
            let fs = rng.gen_range(0.5f64..20.0);
            let signal = SampledSignal::from_samples(samples, fs, 0.0);
            let result = detect_signal(&signal, &FtioConfig::with_sampling_freq(fs));
            assert!((0.0..=1.0).contains(&result.confidence()), "case {case}");
            assert!(
                (0.0..=1.0).contains(&result.refined_confidence()),
                "case {case}"
            );
            if let Some(p) = result.period() {
                assert!(p.is_finite() && p > 0.0, "case {case}: period {p}");
            }
            for c in result.candidates() {
                assert!(c.frequency > 0.0, "case {case}");
                assert!(
                    c.normalized_power >= 0.0 && c.normalized_power <= 1.0 + 1e-9,
                    "case {case}: normalized power {}",
                    c.normalized_power
                );
            }
        }
    }

    /// The online predictor's merged intervals always have probabilities
    /// that sum to at most one and contain their own centers.
    #[test]
    fn online_intervals_are_consistent() {
        let mut rng = StdRng::seed_from_u64(0xf710_0004);
        for _case in 0..12 {
            let period = rng.gen_range(5.0f64..30.0);
            let iterations = rng.gen_range(6usize..14);
            let config = FtioConfig {
                sampling_freq: 1.0,
                use_autocorrelation: false,
                ..Default::default()
            };
            let mut predictor = OnlinePredictor::new(config, WindowStrategy::FullHistory);
            for i in 0..iterations {
                let start = i as f64 * period;
                let requests: Vec<ftio_trace::IoRequest> = (0..2)
                    .map(|rank| {
                        ftio_trace::IoRequest::write(rank, start, start + 2.0, 1_000_000_000)
                    })
                    .collect();
                predictor.ingest(requests);
                predictor.predict(start + 2.0);
            }
            let intervals = predictor.merged_intervals();
            let total: f64 = intervals.iter().map(|i| i.probability).sum();
            assert!(total <= 1.0 + 1e-9, "probabilities sum to {total}");
            for interval in &intervals {
                assert!(interval.contains(interval.center_freq));
                assert!(interval.min_freq <= interval.max_freq);
            }
        }
    }

    fn every_outlier_method(rng: &mut StdRng) -> Vec<OutlierMethod> {
        vec![
            OutlierMethod::ZScore {
                threshold: rng.gen_range(0.5f64..6.0),
            },
            OutlierMethod::DbScan {
                eps_factor: rng.gen_range(0.05f64..2.0),
                min_pts: rng.gen_range(1usize..6),
            },
            OutlierMethod::Lof {
                k: rng.gen_range(1usize..8),
                threshold: rng.gen_range(1.0f64..3.0),
            },
            OutlierMethod::IsolationForest {
                threshold: rng.gen_range(0.3f64..0.9),
                seed: rng.gen_range(0u64..1000),
            },
            OutlierMethod::PeakDetection {
                prominence_factor: rng.gen_range(0.05f64..0.9),
            },
        ]
    }

    /// Every outlier method is total on degenerate spectra — empty, one bin,
    /// a single dominant peak in a flat floor, all-equal-amplitude ties, and
    /// extreme-magnitude values — and always reports sorted, in-range,
    /// duplicate-free outlier indices.
    #[test]
    fn outlier_methods_are_total_on_degenerate_spectra() {
        let mut rng = StdRng::seed_from_u64(0xf710_0005);
        for case in 0..24 {
            let n = rng.gen_range(2usize..40);
            let tie = rng.gen_range(1e-3f64..1e9);
            let mut single_peak = vec![tie; n];
            single_peak[rng.gen_range(0..n)] = tie * rng.gen_range(10.0f64..1e4);
            let spectra: Vec<Vec<f64>> = vec![
                Vec::new(),
                vec![rng.gen_range(0.0f64..1e9)],
                vec![tie; n], // all-equal ties
                single_peak,  // one dominant peak
                vec![0.0; n], // silent spectrum
                (0..n)
                    .map(|_| {
                        // Subnormal-to-huge magnitudes (NaN-adjacent without
                        // being NaN: the sampler never emits NaN powers).
                        if rng.gen_bool(0.5) {
                            f64::MIN_POSITIVE * rng.gen_range(0.5f64..2.0)
                        } else {
                            rng.gen_range(1e200f64..1e300)
                        }
                    })
                    .collect(),
            ];
            for powers in &spectra {
                for method in every_outlier_method(&mut rng) {
                    let analysis = outlier::detect_outliers(powers, &method);
                    assert_eq!(analysis.z_scores.len(), powers.len(), "case {case}");
                    let indices = &analysis.outlier_indices;
                    for pair in indices.windows(2) {
                        assert!(pair[0] < pair[1], "case {case}: unsorted {method:?}");
                    }
                    assert!(
                        indices.iter().all(|&i| i < powers.len()),
                        "case {case}: out-of-range index under {method:?}"
                    );
                }
            }
        }
    }

    /// Merging is total and deterministic on degenerate prediction
    /// histories: empty, single prediction, all-identical frequencies, and
    /// confidence values at the NaN-adjacent extremes (0.0, subnormal, 1.0).
    /// Running the merge twice yields an identical interval list, and every
    /// interval stays internally consistent.
    #[test]
    fn freq_merge_is_total_and_deterministic_on_degenerate_histories() {
        let mut rng = StdRng::seed_from_u64(0xf710_0006);
        for case in 0..24u64 {
            let n = rng.gen_range(2usize..24);
            let tie_freq = rng.gen_range(0.01f64..2.0);
            let mut prediction = |freq: f64, confidence: f64, window: f64| FrequencyPrediction {
                time: rng.gen_range(0.0f64..1e4),
                frequency: freq,
                confidence,
                window_length: window,
            };
            let mut rng2 = StdRng::seed_from_u64(0xf710_0006 ^ case);
            let histories: Vec<Vec<FrequencyPrediction>> = vec![
                Vec::new(),
                vec![prediction(tie_freq, 0.5, 100.0)],
                // All-identical frequencies over identical windows: zero
                // resolution spread, the eps floor must still merge them.
                (0..n).map(|_| prediction(tie_freq, 0.5, 100.0)).collect(),
                // Extreme confidences riding on ordinary frequencies.
                (0..n)
                    .map(|_| {
                        let confidence = match rng2.gen_range(0u32..4) {
                            0 => 0.0,
                            1 => 1.0,
                            2 => f64::MIN_POSITIVE,
                            _ => 1.0 - 1e-16,
                        };
                        prediction(rng2.gen_range(0.01f64..2.0), confidence, 50.0)
                    })
                    .collect(),
                // Wildly different window lengths (resolution spread).
                (0..n)
                    .map(|_| {
                        prediction(
                            rng2.gen_range(0.01f64..2.0),
                            0.5,
                            rng2.gen_range(1.0f64..1e5),
                        )
                    })
                    .collect(),
            ];
            for history in &histories {
                for min_cluster in 1..=3usize {
                    let a = merge_predictions(history, min_cluster);
                    let b = merge_predictions(history, min_cluster);
                    assert_eq!(a, b, "case {case}: merge order must be deterministic");
                    let total: f64 = a.iter().map(|i| i.probability).sum();
                    assert!(total <= 1.0 + 1e-9, "case {case}: probability {total}");
                    for interval in &a {
                        assert!(interval.min_freq <= interval.max_freq, "case {case}");
                        assert!(interval.contains(interval.center_freq), "case {case}");
                        assert!(interval.count >= 1, "case {case}");
                        assert!(interval.probability >= 0.0, "case {case}");
                    }
                }
            }
        }
    }
}

//! # ftio-synth
//!
//! Synthetic and semi-synthetic HPC I/O workload generation for FTIO-rs.
//!
//! The paper evaluates FTIO on real cluster runs (IOR, LAMMPS, HACC-IO,
//! miniIO, a Nek5000 Darshan profile) and on "semi-synthetic" traces built
//! from traced IOR phases. Those runs and traces are not redistributable, so
//! this crate generates statistically equivalent workloads, shaped after the
//! descriptions and numbers the paper reports (see DESIGN.md for the
//! substitution table):
//!
//! * [`ior`] — single IOR-like I/O phases, a phase library, and full IOR
//!   benchmark runs (iterations × segments × block/transfer sizes);
//! * [`semi`] — the semi-synthetic application generator of §III-A
//!   (compute phases from a truncated normal, per-process exponential delays,
//!   optional noise) including the ground truth needed to compute detection
//!   errors;
//! * [`noise`] — the low/high background-noise streams;
//! * [`sweep`] — the exact parameter grids of Fig. 8a/8b/8c;
//! * [`lammps`], [`hacc`], [`nek5000`], [`miniio`] — case-study-shaped
//!   workloads (§III-B and Fig. 6);
//! * [`scenarios`] — the Fig. 1 / Fig. 4 phase-boundary illustration, plus
//!   the contention-flavoured adversarial generators (bursty interference,
//!   heavy-tailed request sizes, multi-tenant contention);
//! * [`drift`] — the adversarial scenario framework: [`Scenario`]s with
//!   machine-readable ground truth, and the period-evolution generators
//!   (steady, phase change, AMR-style drift);
//! * [`multi_app`] — seeded application *fleets* (many concurrent periodic
//!   writers with ground truth) driving the cluster engine and its benches;
//! * [`client_stream`] — fleets sliced into per-application encoded chunks,
//!   the client-side payloads `ftio serve` sessions and benches send;
//! * [`distributions`] — the truncated-normal and exponential samplers.
//!
//! # Quick example
//!
//! ```
//! use ftio_synth::ior::PhaseLibrary;
//! use ftio_synth::semi::{generate, SemiSyntheticConfig};
//!
//! let library = PhaseLibrary::paper_default(42);
//! let config = SemiSyntheticConfig { iterations: 5, ..Default::default() };
//! let result = generate(&config, &library, 7);
//! assert_eq!(result.phase_starts.len(), 5);
//! assert!(result.mean_period() > 15.0);
//! ```

pub mod client_stream;
pub mod distributions;
pub mod drift;
pub mod hacc;
pub mod ior;
pub mod lammps;
pub mod miniio;
pub mod multi_app;
pub mod nek5000;
pub mod noise;
pub mod scenarios;
pub mod semi;
pub mod sweep;

use ftio_trace::source::{MemorySource, DEFAULT_BATCH_SIZE};
use ftio_trace::{AppId, AppTrace};

/// Wraps any generated trace as a streaming
/// [`TraceSource`](ftio_trace::source::TraceSource), attributed to the
/// trace's application name — every generator doubles as a source this way,
/// so the same consumers (detection, replay, benches) run on synthetic and
/// recorded data alike.
pub fn trace_source(trace: &AppTrace) -> MemorySource {
    MemorySource::from_trace(
        AppId::from_name(&trace.metadata().application),
        trace,
        DEFAULT_BATCH_SIZE,
    )
}

pub use client_stream::{ChunkEncoding, FleetStream, StreamChunk};
pub use drift::{
    all_scenarios, scenario_by_name, scenario_for, DriftConfig, PhaseChangeConfig, Scenario,
    ScenarioFamily, ScenarioFlush, SteadyConfig,
};
pub use ior::{IoPhase, IorBenchmarkConfig, IorPhaseConfig, PhaseLibrary};
pub use multi_app::{AppStream, FlushEvent, MultiAppConfig, MultiAppWorkload};
pub use noise::NoiseLevel;
pub use scenarios::{
    long_history_burst, long_history_requests, InterferenceConfig, LongHistoryConfig,
    MultiTenantConfig, TailConfig,
};
pub use semi::{generate as generate_semi_synthetic, SemiSyntheticConfig, SemiSyntheticTrace};
pub use sweep::SweepPoint;

// Seeded randomized invariant tests (a property-test stand-in: the build
// environment has no crates.io access, so `proptest` is unavailable).
#[cfg(test)]
mod property_tests {
    use super::*;
    use crate::ior::IorPhaseConfig;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_library() -> PhaseLibrary {
        PhaseLibrary::generate(
            &IorPhaseConfig {
                num_processes: 4,
                bytes_per_process: 100_000_000,
                requests_per_process: 5,
                ..Default::default()
            },
            10,
            0xBEEF,
        )
    }

    /// Semi-synthetic traces always have monotonically increasing phase
    /// starts, a positive mean period, and phase durations that at least
    /// cover the raw phase length.
    #[test]
    fn semi_synthetic_ground_truth_is_consistent() {
        let mut rng = StdRng::seed_from_u64(0x5f17_0001);
        let library = small_library();
        for case in 0..24 {
            let iterations = rng.gen_range(2usize..12);
            let config = SemiSyntheticConfig {
                iterations,
                processes: 4,
                tcpu_mean: rng.gen_range(1.0f64..40.0),
                tcpu_std: rng.gen_range(0.0f64..20.0),
                desync_avg: rng.gen_range(0.0f64..20.0),
                noise: NoiseLevel::None,
            };
            let result = semi::generate(&config, &library, rng.gen_range(0u64..1000));
            assert_eq!(result.phase_starts.len(), iterations, "case {case}");
            assert_eq!(result.phase_durations.len(), iterations, "case {case}");
            for w in result.phase_starts.windows(2) {
                assert!(w[1] > w[0], "case {case}: starts not increasing");
            }
            assert!(result.mean_period() > 0.0, "case {case}");
            for &d in &result.phase_durations {
                assert!(
                    d >= 9.0,
                    "case {case}: phase duration {d} below the library minimum"
                );
            }
            // The trace spans at least the last phase start.
            assert!(result.trace.end_time() >= *result.phase_starts.last().unwrap());
        }
    }

    /// The detection error is zero exactly at the ground truth and scales
    /// linearly with the deviation.
    #[test]
    fn detection_error_scales_linearly() {
        let mut rng = StdRng::seed_from_u64(0x5f17_0002);
        let library = small_library();
        for case in 0..24 {
            let seed = rng.gen_range(0u64..200);
            let factor = rng.gen_range(0.1f64..3.0);
            let result = semi::generate(
                &SemiSyntheticConfig {
                    iterations: 5,
                    processes: 4,
                    ..Default::default()
                },
                &library,
                seed,
            );
            let truth = result.mean_period();
            assert!(result.detection_error(truth) < 1e-12, "case {case}");
            let err = result.detection_error(truth * factor);
            assert!(
                (err - (factor - 1.0).abs()).abs() < 1e-9,
                "case {case}: error {err}"
            );
        }
    }

    /// IOR phases always respect their configured volume exactly.
    #[test]
    fn ior_phase_volume_is_exact() {
        let mut rng = StdRng::seed_from_u64(0x5f17_0003);
        for case in 0..24 {
            let processes = rng.gen_range(1usize..16);
            let requests = rng.gen_range(1usize..20);
            let bytes = rng.gen_range(1_000u64..1_000_000);
            let config = IorPhaseConfig {
                num_processes: processes,
                bytes_per_process: bytes,
                requests_per_process: requests,
                ..Default::default()
            };
            let mut phase_rng = StdRng::seed_from_u64(rng.gen_range(0u64..500));
            let phase = ior::generate_phase(&config, &mut phase_rng);
            let expected = (bytes / requests as u64).max(1) * requests as u64 * processes as u64;
            assert_eq!(phase.volume(), expected, "case {case}");
            assert!(phase.duration > 0.0, "case {case}");
            assert!(phase.requests.iter().all(|r| r.is_valid()), "case {case}");
        }
    }

    /// The LAMMPS and HACC workloads report ground truths consistent with
    /// their configured structure for any seed.
    #[test]
    fn case_study_ground_truth_is_consistent() {
        let mut rng = StdRng::seed_from_u64(0x5f17_0004);
        for case in 0..24 {
            let seed = rng.gen_range(0u64..300);
            let l = lammps::generate(&lammps::LammpsConfig::default(), seed);
            assert_eq!(l.dump_starts.len(), 15, "case {case}");
            assert!(
                l.mean_period > 20.0 && l.mean_period < 36.0,
                "case {case}: {}",
                l.mean_period
            );

            let h = hacc::generate(&hacc::HaccConfig::default(), seed);
            assert_eq!(h.phase_starts.len(), 10, "case {case}");
            assert!(
                h.mean_period() > h.mean_period_without_first(),
                "case {case}"
            );
        }
    }
}

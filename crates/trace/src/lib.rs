//! # ftio-trace
//!
//! I/O-tracing substrate for FTIO-rs — the Rust analog of the paper's TMIO
//! tracing library plus the trace-ingestion paths FTIO supports.
//!
//! The crate models what an MPI-IO interposition layer would record and what
//! the analysis consumes:
//!
//! * [`request`] — rank-level I/O request records (start, end, bytes, kind);
//! * [`app_id`] — typed application identifiers used to route trace data in
//!   multi-application deployments;
//! * [`app_trace`] — the merged application-level trace with windowing and
//!   volume/duration queries;
//! * [`bandwidth`] — the application-level bandwidth-over-time signal derived
//!   from overlapping requests, with volume-preserving sampling;
//! * [`collector`] — the offline/online collector with flush hooks and
//!   activity counters (feeds the tracing-overhead experiment);
//! * [`jsonl`] / [`msgpack`] — the two trace file formats of the reference
//!   tool, both hand-written;
//! * [`darshan`] — binned heatmap profiles (Darshan-style) and their
//!   conversion into bandwidth signals;
//! * [`recorder`] — Recorder-style per-call text traces;
//! * [`source`] — the streaming ingestion layer and the one way to read a
//!   trace: the [`TraceSource`] trait, chunked [`TraceBatch`]es, one reader
//!   per format, format sniffing, [`source::open_path`] for files and
//!   [`source::decode_requests`] for whole buffers (the format modules above
//!   encode, and decode one record for these readers);
//! * [`darshan_parser`] — actual `darshan-parser` / Darshan DXT text output;
//! * [`tmio`] — TMIO-native columnar JSON/MessagePack profiles;
//! * [`wire`] — the length-framed socket envelope spoken by `ftio serve`
//!   clients (hello/data/subscribe/prediction frames, sequenced so
//!   subscribers can resume);
//! * [`faultio`] — deterministic, seeded fault injection over any
//!   `Read`/`Write` (the chaos-test substrate and `ftio client --inject`).
//!
//! # Quick example
//!
//! ```
//! use ftio_trace::{AppTrace, BandwidthTimeline, IoRequest};
//!
//! let mut trace = AppTrace::named("demo", 2);
//! trace.push(IoRequest::write(0, 0.0, 1.0, 1_000_000));
//! trace.push(IoRequest::write(1, 0.5, 1.5, 1_000_000));
//!
//! let timeline = BandwidthTimeline::from_trace(&trace);
//! assert_eq!(timeline.bandwidth_at(0.75), 2_000_000.0);
//! assert_eq!(timeline.volume_in(0.0, 2.0), 2_000_000.0);
//! ```

pub mod app_id;
pub mod app_trace;
pub mod bandwidth;
pub mod collector;
pub mod darshan;
pub mod darshan_parser;
pub mod errors;
pub mod faultio;
pub mod jsonl;
pub mod msgpack;
pub mod recorder;
pub mod request;
pub mod snapshot;
pub mod source;
pub mod tmio;
pub mod truth;
pub mod wire;

pub use app_id::AppId;
pub use app_trace::{AppTrace, TraceMetadata};
pub use bandwidth::BandwidthTimeline;
pub use collector::{Collector, CollectorStats, FlushMode, MemorySink, TraceFormat, TraceSink};
pub use darshan::Heatmap;
pub use errors::{TraceError, TraceResult};
pub use faultio::{FaultPlan, FaultStream};
pub use request::{IoApi, IoKind, IoRequest};
pub use source::{BatchPayload, DrainedInput, MemorySource, SourceFormat, TraceBatch, TraceSource};
pub use truth::{ScenarioTruth, TruthSegment};
pub use wire::{Frame, FrameReader, PredictionUpdate, WireStats};

#[cfg(test)]
// Seeded randomized invariant tests (a property-test stand-in: the build
// environment has no crates.io access, so `proptest` is unavailable).
mod property_tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn arbitrary_request(rng: &mut StdRng) -> IoRequest {
        let rank = rng.gen_range(0usize..64);
        let start = rng.gen_range(0.0f64..1000.0);
        let dur = rng.gen_range(0.0f64..10.0);
        let bytes = rng.gen_range(1u64..10_000_000);
        if rng.gen_bool(0.5) {
            IoRequest::write(rank, start, start + dur, bytes)
        } else {
            IoRequest::read(rank, start, start + dur, bytes)
        }
    }

    fn arbitrary_requests(rng: &mut StdRng, min: usize, max: usize) -> Vec<IoRequest> {
        let n = rng.gen_range(min..max);
        (0..n).map(|_| arbitrary_request(rng)).collect()
    }

    /// JSONL and MessagePack round-trips are lossless for any valid request set.
    #[test]
    fn codecs_round_trip() {
        let mut rng = StdRng::seed_from_u64(0x7ace_0001);
        for _case in 0..48 {
            let requests = arbitrary_requests(&mut rng, 0, 60);
            let text = jsonl::encode_requests(&requests);
            let decoded = source::decode_requests(SourceFormat::Jsonl, text.as_bytes());
            assert_eq!(decoded.unwrap(), requests);
            let packed = msgpack::encode_requests(&requests);
            let decoded = source::decode_requests(SourceFormat::Msgpack, &packed);
            assert_eq!(decoded.unwrap(), requests);
        }
    }

    /// The bandwidth timeline preserves total volume.
    #[test]
    fn timeline_preserves_volume() {
        let mut rng = StdRng::seed_from_u64(0x7ace_0002);
        for _case in 0..48 {
            let requests = arbitrary_requests(&mut rng, 1, 40);
            let timeline = BandwidthTimeline::from_requests(&requests);
            let expected: f64 = requests.iter().map(|r| r.bytes as f64).sum();
            let measured = timeline.total_volume();
            assert!(
                (measured - expected).abs() / expected < 1e-6,
                "expected {expected}, measured {measured}"
            );
        }
    }

    /// Sampling never produces negative bandwidth, and summing the sampled
    /// volume over a window that covers everything recovers the total volume.
    #[test]
    fn sampling_is_non_negative_and_volume_preserving() {
        let mut rng = StdRng::seed_from_u64(0x7ace_0003);
        for _case in 0..48 {
            let requests = arbitrary_requests(&mut rng, 1, 30);
            let fs = rng.gen_range(1.0f64..20.0);
            let timeline = BandwidthTimeline::from_requests(&requests);
            let t0 = timeline.start().floor();
            let t1 = timeline.end().ceil() + 1.0;
            let samples = timeline.sample(t0, t1, fs);
            assert!(samples.iter().all(|&x| x >= 0.0));
            let dt = 1.0 / fs;
            let covered = samples.len() as f64 * dt;
            // Only claim exact volume preservation when the sampling grid covers
            // the whole activity interval.
            if t0 + covered >= timeline.end() {
                let volume: f64 = samples.iter().map(|bw| bw * dt).sum();
                let expected: f64 = requests.iter().map(|r| r.bytes as f64).sum();
                assert!((volume - expected).abs() / expected < 1e-6);
            }
        }
    }

    /// Heatmaps preserve total volume no matter the bin width.
    #[test]
    fn heatmap_preserves_volume() {
        let mut rng = StdRng::seed_from_u64(0x7ace_0004);
        for _case in 0..48 {
            let requests = arbitrary_requests(&mut rng, 1, 30);
            let bin_width = rng.gen_range(0.5f64..30.0);
            let trace = AppTrace::from_requests("prop", 64, requests.clone());
            let heatmap = Heatmap::from_trace(&trace, bin_width);
            let expected: f64 = requests.iter().map(|r| r.bytes as f64).sum();
            assert!((heatmap.total_volume() - expected).abs() / expected < 1e-6);
        }
    }

    /// Windowing a trace never increases its size and keeps only overlapping requests.
    #[test]
    fn windowing_is_a_filter() {
        let mut rng = StdRng::seed_from_u64(0x7ace_0005);
        for _case in 0..48 {
            let requests = arbitrary_requests(&mut rng, 0, 40);
            let t0 = rng.gen_range(0.0f64..500.0);
            let span = rng.gen_range(1.0f64..500.0);
            let trace = AppTrace::from_requests("prop", 64, requests);
            let window = trace.window(t0, t0 + span);
            assert!(window.len() <= trace.len());
            for r in window.requests() {
                assert!(r.overlaps(t0, t0 + span));
            }
            for r in trace.requests() {
                if r.overlaps(t0, t0 + span) {
                    assert!(window.requests().contains(r));
                }
            }
        }
    }

    /// The Recorder text format round-trips sync/async/posix reads and writes.
    #[test]
    fn recorder_round_trips() {
        let mut rng = StdRng::seed_from_u64(0x7ace_0006);
        for _case in 0..48 {
            let requests = arbitrary_requests(&mut rng, 0, 40);
            let text = recorder::encode_requests(&requests);
            let back = source::decode_requests(SourceFormat::Recorder, text.as_bytes()).unwrap();
            assert_eq!(back.len(), requests.len());
            for (a, b) in back.iter().zip(requests.iter()) {
                assert_eq!(a.rank, b.rank);
                assert_eq!(a.bytes, b.bytes);
                assert_eq!(a.kind, b.kind);
                assert!((a.start - b.start).abs() < 1e-5);
                assert!((a.end - b.end).abs() < 1e-5);
            }
        }
    }
}

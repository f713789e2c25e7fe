//! Integration tests of the streaming trace-ingestion subsystem: the
//! checked-in fixture corpus parses through format auto-detection, streamed
//! detection equals materialised detection, and `ClusterEngine::replay`
//! bookkeeping reconciles with the engine counters.

use std::path::{Path, PathBuf};

use ftio_core::{
    detect_heatmap, detect_source, detect_trace, BackpressurePolicy, ClusterConfig, ClusterEngine,
    FtioConfig, Pacing, WindowStrategy,
};
use ftio_trace::source::{drain_single, open_path, DrainedInput, SourceFormat};

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/data")
}

fn fixtures() -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(fixture_dir())
        .expect("tests/data exists")
        .map(|entry| entry.expect("readable dir entry").path())
        .filter(|p| p.is_file())
        // Sealed snapshots ride in the corpus for the restart-recovery lane
        // but are predictor state, not trace input (tests/robustness.rs
        // restores them).
        .filter(|p| p.extension().map_or(true, |ext| ext != "ftiosnap"))
        .collect();
    paths.sort();
    assert!(
        paths.len() >= 8,
        "fixture corpus shrank: {} files (regenerate with \
         `cargo run --example make_fixtures`)",
        paths.len()
    );
    paths
}

fn detection_config() -> FtioConfig {
    FtioConfig {
        sampling_freq: 2.0,
        ..Default::default()
    }
}

/// Every fixture format is represented in the corpus and auto-detects.
#[test]
fn corpus_covers_every_source_format() {
    let mut seen = Vec::new();
    for path in fixtures() {
        let (format, _) = open_path(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        seen.push(format);
    }
    for expected in [
        SourceFormat::Jsonl,
        SourceFormat::Msgpack,
        SourceFormat::TmioJson,
        SourceFormat::TmioMsgpack,
        SourceFormat::DarshanParser,
        SourceFormat::HeatmapText,
        SourceFormat::Recorder,
    ] {
        assert!(
            seen.contains(&expected),
            "no fixture sniffs as {expected:?} (saw {seen:?})"
        );
    }
}

/// The ingestion-corpus smoke check: every fixture parses, yields data, and
/// the detection pipeline finds the period the generator baked in. The
/// `scenario_*` fixtures from the adversarial evaluation harness are exempt
/// from the period guarantee — `scenario_drift.jsonl` exists precisely
/// because a drifting interval defeats the whole-trace DFT (the harness in
/// `tests/accuracy.rs` scores it piecewise instead) — but they must still
/// parse and yield samples.
#[test]
fn every_fixture_parses_and_detects_a_period() {
    for path in fixtures() {
        let (format, mut source) =
            open_path(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        let result = detect_source(source.as_mut(), &detection_config())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(
            result.num_samples > 0,
            "{} ({format:?}): no samples",
            path.display()
        );
        let adversarial = path
            .file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with("scenario_"));
        if adversarial {
            continue;
        }
        let period = result.period().unwrap_or_else(|| {
            panic!(
                "{} ({format:?}): fixtures are periodic by construction",
                path.display()
            )
        });
        assert!(
            period.is_finite() && period > 0.0,
            "{}: period {period}",
            path.display()
        );
    }
}

/// The gzip transport is transparent: the gzipped fixture sniffs to the same
/// format as its plain sibling and produces a bit-identical detection.
#[test]
fn gzipped_fixture_equals_its_plain_sibling() {
    let plain = fixture_dir().join("ior_small.jsonl");
    let gzipped = fixture_dir().join("ior_small.jsonl.gz");
    assert!(
        gzipped.is_file(),
        "gzip fixture missing (regenerate with `cargo run --example make_fixtures`)"
    );
    let (plain_format, mut plain_source) = open_path(&plain).unwrap();
    let (gz_format, mut gz_source) = open_path(&gzipped).unwrap();
    assert_eq!(plain_format, SourceFormat::Jsonl);
    assert_eq!(
        gz_format,
        SourceFormat::Jsonl,
        "transport leaked into format"
    );
    let config = detection_config();
    let from_plain = detect_source(plain_source.as_mut(), &config).unwrap();
    let from_gz = detect_source(gz_source.as_mut(), &config).unwrap();
    assert_eq!(from_plain.num_samples, from_gz.num_samples);
    assert_eq!(from_plain.period(), from_gz.period());
}

/// Acceptance criterion: detection over the *streamed* file equals detection
/// over the *materialised* input, bit for bit, for every fixture.
#[test]
fn streamed_detection_equals_materialized_detection() {
    for path in fixtures() {
        let config = detection_config();
        let (_, mut source) = open_path(&path).unwrap();
        let streamed = detect_source(source.as_mut(), &config).unwrap();

        // Materialise through the same decoders a non-streaming consumer
        // would use, then run the classic entry points.
        let (_, mut source) = open_path(&path).unwrap();
        let materialized = match drain_single(source.as_mut(), "source").unwrap() {
            DrainedInput::Trace(trace) => detect_trace(&trace, &config),
            DrainedInput::Heatmap(heatmap) => detect_heatmap(&heatmap, &config),
        };

        let name = path.display();
        assert_eq!(
            streamed.num_samples, materialized.num_samples,
            "{name}: sample count"
        );
        assert_eq!(
            streamed.sampling_freq.to_bits(),
            materialized.sampling_freq.to_bits(),
            "{name}: sampling frequency"
        );
        assert_eq!(
            streamed.period().map(f64::to_bits),
            materialized.period().map(f64::to_bits),
            "{name}: period"
        );
        assert_eq!(
            streamed.confidence().to_bits(),
            materialized.confidence().to_bits(),
            "{name}: confidence"
        );
        assert_eq!(
            streamed.refined_confidence().to_bits(),
            materialized.refined_confidence().to_bits(),
            "{name}: refined confidence"
        );
    }
}

/// Satellite: replay bookkeeping reconciles with the engine counters for
/// every fixture (`ticks + coalesced + dropped == submitted - rejected`, and
/// the replay-side accept/reject split matches the engine's).
#[test]
fn replay_stats_reconcile_across_the_corpus() {
    for path in fixtures() {
        let (_, mut source) = open_path(&path).unwrap();
        let engine = ClusterEngine::spawn(ClusterConfig {
            shards: 2,
            queue_capacity: 64,
            max_batch: 4,
            policy: BackpressurePolicy::Block,
            ftio: FtioConfig {
                sampling_freq: 2.0,
                use_autocorrelation: false,
                ..Default::default()
            },
            strategy: WindowStrategy::FullHistory,
            ..ClusterConfig::default()
        });
        let replay = engine.replay(source.as_mut(), Pacing::AsFast).unwrap();
        engine.flush();
        let stats = engine.stats();
        let name = path.display();
        assert!(replay.batches > 0, "{name}: no batches replayed");
        assert!(replay.requests > 0, "{name}: no requests replayed");
        assert_eq!(
            stats.submitted,
            replay.accepted + replay.rejected,
            "{name}: engine saw a different submission count"
        );
        assert_eq!(stats.rejected, replay.rejected, "{name}");
        assert_eq!(
            stats.ticks + stats.coalesced + stats.dropped,
            stats.submitted - stats.rejected,
            "{name}: accounting broken: {stats:?}"
        );
        // Sequence counters count every publish; the ring keeps only the last
        // `resume_ring` of each app.
        let apps = engine.all_predictions().into_keys();
        let predictions: u64 = apps.map(|app| engine.resume_window(app).1).sum();
        assert_eq!(predictions, stats.ticks, "{name}");
    }
}

/// The fixtures are regenerable: the checked-in bytes match what
/// `examples/make_fixtures.rs` describes (spot check via the JSONL fixture).
#[test]
fn jsonl_fixture_matches_its_generator_spec() {
    let path = fixture_dir().join("ior_small.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let requests = ftio_trace::jsonl::decode_requests(&text).unwrap();
    // 2 ranks x 20 bursts, period 10 s, first burst at 5 s.
    assert_eq!(requests.len(), 40);
    assert_eq!(requests[0].start, 5.0);
    assert_eq!(requests[0].end, 7.0);
    assert_eq!(requests[2].start - requests[0].start, 10.0);
}

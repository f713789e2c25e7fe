//! Long-horizon robustness integration tests: bounded memory, crash-safe
//! checkpoint/restore, and corrupted-snapshot handling across crates.
//!
//! Three contracts are pinned here (unit-level variants live next to the
//! implementations in `ftio-core`):
//!
//! * **Bounded memory** — with ring retention, the predictor's peak
//!   bin-buffer footprint stays *flat* while the ingested history grows 8×
//!   ([`ftio_synth::scenarios::long_history_requests`] sweep), whereas the
//!   historical keep-all mode grows linearly.
//! * **Restore equivalence** — a predictor (or a whole cluster engine)
//!   snapshotted mid-run and restored into a fresh instance continues
//!   **bit-for-bit** like the uninterrupted original, for every window
//!   strategy.
//! * **Corruption safety** — truncated or bit-flipped snapshots fail with a
//!   positioned [`TraceError`]; they never panic and never restore silently.

use ftio_core::{
    ClusterConfig, ClusterEngine, FtioConfig, OnlinePredictor, Pacing, RetentionPolicy,
    WindowStrategy,
};
use ftio_synth::scenarios::{long_history_burst, long_history_requests, LongHistoryConfig};
use ftio_trace::snapshot::HEADER_LEN;
use ftio_trace::{AppId, MemorySource, TraceError};

fn analysis_config() -> FtioConfig {
    FtioConfig {
        sampling_freq: 2.0,
        use_autocorrelation: false,
        ..Default::default()
    }
}

/// The three window strategies the restore-equivalence contract covers.
fn all_strategies() -> [WindowStrategy; 3] {
    [
        WindowStrategy::FullHistory,
        WindowStrategy::Adaptive { multiple: 3 },
        WindowStrategy::Fixed { length: 120.0 },
    ]
}

fn long_history(bursts: usize) -> (LongHistoryConfig, Vec<ftio_trace::IoRequest>) {
    let config = LongHistoryConfig {
        bursts,
        ranks: 4,
        ..Default::default()
    };
    let requests = long_history_requests(&config);
    (config, requests)
}

/// Satellite: ring retention holds the peak bin-buffer footprint flat across
/// an 8× history sweep, while keep-all grows with the horizon. This is the
/// predictor-level (cross-crate) version of the sampler unit test: the whole
/// ingest → retention → windowed-detection path runs for every sweep point.
#[test]
fn ring_retention_keeps_predictor_memory_flat_across_8x_history_sweep() {
    let memory = RetentionPolicy::Ring { max_bins: 512 };
    let mut ring_peaks = Vec::new();
    let mut keep_all_peaks = Vec::new();
    for scale in [1usize, 2, 4, 8] {
        let (config, requests) = long_history(64 * scale);
        let span = config.span();

        let mut ring = OnlinePredictor::with_memory(
            analysis_config(),
            WindowStrategy::Fixed { length: 120.0 },
            memory,
        );
        ring.ingest(requests.iter().copied());
        let prediction = ring.predict(span);
        let period = prediction.period().expect("ring mode must still detect");
        assert!(
            (period - config.period).abs() < 1.0,
            "ring mode mis-detected at scale {scale}: {period} s"
        );
        ring_peaks.push(ring.sampler().peak_bin_buffer_bytes());

        let mut keep_all = OnlinePredictor::with_memory(
            analysis_config(),
            WindowStrategy::Fixed { length: 120.0 },
            RetentionPolicy::KeepAll,
        );
        keep_all.ingest(requests.iter().copied());
        keep_all.predict(span);
        keep_all_peaks.push(keep_all.sampler().peak_bin_buffer_bytes());
    }
    assert!(
        ring_peaks.iter().all(|&peak| peak == ring_peaks[0]),
        "ring peak moved across the sweep: {ring_peaks:?}"
    );
    assert!(
        keep_all_peaks[3] >= 4 * keep_all_peaks[0],
        "keep-all should grow with history: {keep_all_peaks:?}"
    );
    assert!(
        keep_all_peaks[3] > 8 * ring_peaks[0],
        "at 8x history the ring ceiling must be far below keep-all \
         (ring {}, keep-all {})",
        ring_peaks[0],
        keep_all_peaks[3]
    );
}

/// Collects the full prediction history of a predictor as raw bits, so two
/// runs can be compared for exact (not approximate) equality.
fn history_bits(predictor: &OnlinePredictor) -> Vec<[u64; 4]> {
    predictor
        .history()
        .iter()
        .map(|p| {
            [
                p.time.to_bits(),
                p.frequency.to_bits(),
                p.confidence.to_bits(),
                p.window_length.to_bits(),
            ]
        })
        .collect()
}

/// Drives a predictor through the long-history workload burst by burst,
/// ticking every third burst. When `interrupt` is set, the predictor is
/// snapshotted and replaced by its restored copy right after that burst —
/// simulating a crash plus recovery in a fresh process image.
fn drive(mut predictor: OnlinePredictor, interrupt: Option<usize>) -> OnlinePredictor {
    let config = LongHistoryConfig {
        bursts: 24,
        ranks: 2,
        ..Default::default()
    };
    for index in 0..config.bursts {
        predictor.ingest(long_history_burst(&config, index));
        if index % 3 == 2 {
            predictor.predict((index + 1) as f64 * config.period);
        }
        if interrupt == Some(index) {
            let bytes = predictor.snapshot();
            predictor = OnlinePredictor::restore(&bytes).expect("mid-run snapshot must restore");
        }
    }
    predictor
}

/// Acceptance criterion (synchronous half): snapshot → restore → continue is
/// bit-for-bit identical to an uninterrupted run, for all window strategies.
#[test]
fn predictor_restore_is_bit_for_bit_for_every_window_strategy() {
    for strategy in all_strategies() {
        let uninterrupted = drive(OnlinePredictor::new(analysis_config(), strategy), None);
        let resumed = drive(OnlinePredictor::new(analysis_config(), strategy), Some(11));
        assert!(
            !uninterrupted.history().is_empty(),
            "the workload must produce predictions ({strategy:?})"
        );
        assert_eq!(
            history_bits(&uninterrupted),
            history_bits(&resumed),
            "restore diverged under {strategy:?}"
        );
        assert_eq!(
            uninterrupted.collected_requests(),
            resumed.collected_requests(),
            "request accounting diverged under {strategy:?}"
        );
    }
}

/// Acceptance criterion (cluster half): interrupting a `ClusterEngine::replay`
/// with a snapshot and resuming in a fresh engine yields exactly the
/// predictions the uninterrupted replay produces for the resumed stretch,
/// for all window strategies.
#[test]
fn cluster_replay_resumes_bit_for_bit_for_every_window_strategy() {
    let app = AppId::new(7);
    let batch_size = 8;
    let (_, requests) = long_history(48);
    let half = requests.len() / 2;
    assert_eq!(half % batch_size, 0, "cut must align with batch boundaries");
    for strategy in all_strategies() {
        // `max_batch: 1` pins coalescing: every batch is one tick, so the
        // uninterrupted and resumed runs see identical tick sequences.
        let config = ClusterConfig {
            shards: 2,
            max_batch: 1,
            ftio: analysis_config(),
            strategy,
            ..ClusterConfig::default()
        };

        let engine = ClusterEngine::spawn(config);
        let mut source = MemorySource::from_requests(app, requests.clone(), batch_size);
        engine.replay(&mut source, Pacing::AsFast).unwrap();
        let full = engine.finish();
        let full_history = &full[&app];

        let engine = ClusterEngine::spawn(config);
        let mut first = MemorySource::from_requests(app, requests[..half].to_vec(), batch_size);
        engine.replay(&mut first, Pacing::AsFast).unwrap();
        let bytes = engine.snapshot();
        drop(engine);

        let engine = ClusterEngine::restore(&bytes).expect("cluster snapshot must restore");
        let mut rest = MemorySource::from_requests(app, requests[half..].to_vec(), batch_size);
        engine.replay(&mut rest, Pacing::AsFast).unwrap();
        let resumed = engine.finish();
        let resumed_history = &resumed[&app];

        // The result store is not part of the snapshot: the resumed engine
        // reports only the post-restore predictions, which must equal the
        // tail of the uninterrupted run exactly.
        assert!(!resumed_history.is_empty(), "{strategy:?}");
        let tail = &full_history[full_history.len() - resumed_history.len()..];
        for (expected, actual) in tail.iter().zip(resumed_history.iter()) {
            assert_eq!(
                expected.time.to_bits(),
                actual.time.to_bits(),
                "{strategy:?}"
            );
            assert_eq!(
                expected.window_start.to_bits(),
                actual.window_start.to_bits(),
                "{strategy:?}"
            );
            assert_eq!(
                expected.window_end.to_bits(),
                actual.window_end.to_bits(),
                "{strategy:?}"
            );
            assert_eq!(
                expected.period().map(f64::to_bits),
                actual.period().map(f64::to_bits),
                "{strategy:?}"
            );
            assert_eq!(
                expected.confidence().to_bits(),
                actual.confidence().to_bits(),
                "{strategy:?}"
            );
        }
    }
}

/// Satellite: corrupted checkpoints — truncations and single-bit flips at
/// representative offsets — must fail with a *positioned* [`TraceError`],
/// never panic, and never restore silently.
#[test]
fn corrupted_snapshots_fail_with_positioned_errors_and_never_panic() {
    let predictor = drive(
        OnlinePredictor::new(analysis_config(), WindowStrategy::default()),
        None,
    );
    let bytes = predictor.snapshot();
    assert!(bytes.len() > HEADER_LEN);

    let positioned = |err: TraceError| match err {
        TraceError::Malformed { position, .. } => position,
        other => panic!("expected a positioned malformed error, got {other}"),
    };

    for cut in [0, 1, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
        let err = OnlinePredictor::restore(&bytes[..cut])
            .err()
            .unwrap_or_else(|| panic!("a snapshot truncated to {cut} bytes must not restore"));
        let position = positioned(err);
        assert!(
            position <= cut,
            "error position {position} points past the {cut}-byte input"
        );
    }

    for index in [0, 9, HEADER_LEN - 1, HEADER_LEN + 3, bytes.len() - 1] {
        let mut flipped = bytes.clone();
        flipped[index] ^= 0x40;
        assert!(
            OnlinePredictor::restore(&flipped).is_err(),
            "a bit flip at byte {index} must not restore"
        );
    }

    // Kind confusion: a predictor snapshot is not a cluster snapshot and
    // vice versa — both directions fail with a telling message.
    let err = match ClusterEngine::restore(&bytes) {
        Err(err) => err,
        Ok(_) => panic!("a predictor snapshot must not restore as a cluster"),
    };
    assert!(err.to_string().contains("expected `cluster`"), "{err}");
    let engine = ClusterEngine::spawn(ClusterConfig {
        ftio: analysis_config(),
        ..ClusterConfig::default()
    });
    let cluster_bytes = engine.snapshot();
    drop(engine);
    let err = match OnlinePredictor::restore(&cluster_bytes) {
        Err(err) => err,
        Ok(_) => panic!("a cluster snapshot must not restore as a predictor"),
    };
    assert!(err.to_string().contains("expected `predictor`"), "{err}");

    // Arbitrary non-snapshot bytes (long enough to carry a header) are
    // rejected up front by the container's magic check.
    let garbage = vec![b'x'; HEADER_LEN + 16];
    let err = positioned(OnlinePredictor::restore(&garbage).unwrap_err());
    assert_eq!(err, 0, "bad magic must be reported at offset 0");
}

/// The committed snapshot fixture (regenerated by
/// `cargo run --example make_fixtures`, determinism-checked in CI) restores
/// into a live predictor. The fixture is ingest-only — the 40-request IOR
/// workload with no prediction ticks, because FFT outputs are not bit-stable
/// across platforms — so the tick runs here, after restore.
#[test]
fn committed_checkpoint_fixture_restores_and_predicts() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/data/checkpoint_predictor.ftiosnap");
    let bytes =
        std::fs::read(&path).unwrap_or_else(|e| panic!("missing fixture {} ({e})", path.display()));
    let mut predictor = OnlinePredictor::restore(&bytes).expect("committed fixture must restore");
    assert_eq!(predictor.collected_requests(), 40);
    assert!(
        predictor.history().is_empty(),
        "fixture must be ingest-only"
    );
    let prediction = predictor.predict(250.0);
    let period = prediction.period().expect("restored state must detect");
    assert!((period - 10.0).abs() < 1.0, "detected {period} s");
}

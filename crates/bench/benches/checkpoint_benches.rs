//! Criterion benchmarks of the crash-safe checkpoint layer: snapshot and
//! restore cost of a warm [`OnlinePredictor`] as a function of ingested
//! history length (`checkpoint_predictor`), and of a multi-application
//! [`ClusterEngine`] as a function of fleet size (`checkpoint_cluster`).
//! EXPERIMENTS.md records the numbers; the interesting question is how the
//! cost of a periodic `--checkpoint-every` compares to the replay work it
//! protects.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ftio_core::{
    ClusterConfig, ClusterEngine, FtioConfig, OnlinePredictor, RetentionPolicy, WindowStrategy,
};
use ftio_synth::scenarios::{long_history_requests, LongHistoryConfig};
use ftio_trace::AppId;

fn analysis_config() -> FtioConfig {
    FtioConfig {
        sampling_freq: 2.0,
        use_autocorrelation: false,
        ..Default::default()
    }
}

/// A predictor warmed with `bursts` bursts of the long-history workload and
/// a handful of prediction ticks (so the snapshot carries real history).
fn warm_predictor(bursts: usize, memory: RetentionPolicy) -> OnlinePredictor {
    let config = LongHistoryConfig {
        bursts,
        ranks: 4,
        ..Default::default()
    };
    let mut predictor = OnlinePredictor::with_memory(
        analysis_config(),
        WindowStrategy::Adaptive { multiple: 3 },
        memory,
    );
    predictor.ingest(long_history_requests(&config));
    for tick in 1..=8 {
        predictor.predict(config.span() * tick as f64 / 8.0);
    }
    predictor
}

/// Snapshot + restore cost vs history length, for the unbounded (keep-all)
/// and ring-bounded predictor. Ring retention caps the payload, so its cost
/// should stay flat while keep-all grows with the horizon.
fn bench_checkpoint_predictor(c: &mut Criterion) {
    let ring = RetentionPolicy::Ring { max_bins: 4096 };
    for (label, memory) in [("keep_all", RetentionPolicy::KeepAll), ("ring", ring)] {
        let mut group = c.benchmark_group(format!("checkpoint_predictor/{label}"));
        for bursts in [256usize, 1024, 4096] {
            let predictor = warm_predictor(bursts, memory);
            let bytes = predictor.snapshot();
            group.bench_with_input(BenchmarkId::new("snapshot", bursts), &bursts, |b, _| {
                b.iter(|| black_box(predictor.snapshot()))
            });
            group.bench_with_input(BenchmarkId::new("restore", bursts), &bursts, |b, _| {
                b.iter(|| OnlinePredictor::restore(black_box(&bytes)).expect("restore"))
            });
        }
        group.finish();
    }
}

/// Snapshot + restore cost of a whole engine vs fleet size: `apps`
/// applications, each with a modest warm history, spread over 4 shards.
fn bench_checkpoint_cluster(c: &mut Criterion) {
    let mut group = c.benchmark_group("checkpoint_cluster");
    for apps in [4usize, 16, 64] {
        let workload = LongHistoryConfig {
            bursts: 64,
            ranks: 2,
            ..Default::default()
        };
        let requests = long_history_requests(&workload);
        let engine = ClusterEngine::spawn(ClusterConfig {
            shards: 4,
            ftio: analysis_config(),
            strategy: WindowStrategy::Adaptive { multiple: 3 },
            ..ClusterConfig::default()
        });
        for app in 0..apps {
            engine.submit(AppId::new(app as u64), requests.clone(), workload.span());
        }
        engine.flush();
        let bytes = engine.snapshot();
        group.bench_with_input(BenchmarkId::new("snapshot", apps), &apps, |b, _| {
            b.iter(|| black_box(engine.snapshot()))
        });
        group.bench_with_input(BenchmarkId::new("restore", apps), &apps, |b, _| {
            b.iter(|| ClusterEngine::restore(black_box(&bytes)).expect("restore"))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_checkpoint_predictor,
    bench_checkpoint_cluster
);
criterion_main!(benches);

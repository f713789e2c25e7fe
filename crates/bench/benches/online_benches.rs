//! Criterion benchmarks of the online prediction tick.
//!
//! With the persistent `IncrementalSampler`, the steady-state tick cost is
//! **independent of how much history the predictor has collected**.
//!
//! The `online_tick_vs_history` sweep holds the covered time span — and
//! therefore the discretised signal and its FFT window — fixed while scaling
//! the request density 8× (`ftio_synth::LongHistoryConfig`), so the rows
//! differ only in how much history was folded. EXPERIMENTS.md records the
//! table.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ftio_core::{FtioConfig, OnlinePredictor, WindowStrategy};
use ftio_synth::{long_history_requests, LongHistoryConfig};

fn analysis_config() -> FtioConfig {
    FtioConfig {
        sampling_freq: 2.0,
        use_autocorrelation: false,
        ..Default::default()
    }
}

/// A predictor warmed with `ranks`-dense history over the fixed span, plus
/// the tick time used for every measured prediction.
fn warmed_predictor(ranks: usize) -> (OnlinePredictor, f64) {
    let history = LongHistoryConfig {
        ranks,
        ..Default::default()
    };
    let mut predictor = OnlinePredictor::new(analysis_config(), WindowStrategy::FullHistory);
    predictor.ingest(long_history_requests(&history));
    // Tick at the end of the last burst: the full-history window covers the
    // whole fixed span, so every measured tick analyses the same signal.
    let now = (history.bursts - 1) as f64 * history.period + history.burst_duration;
    (predictor, now)
}

fn bench_online_tick_vs_history(c: &mut Criterion) {
    let mut group = c.benchmark_group("online_tick_vs_history");
    group.sample_size(20);
    // Request density 8..64 ranks per burst: ingested history grows 8×
    // (1,600 → 12,800 requests) at an identical spectral window.
    for ranks in [8usize, 16, 32, 64] {
        let requests = LongHistoryConfig {
            ranks,
            ..Default::default()
        }
        .total_requests();
        let (mut predictor, now) = warmed_predictor(ranks);
        group.bench_function(
            BenchmarkId::new("incremental", format!("{requests}req")),
            |b| {
                b.iter(|| black_box(predictor.predict(black_box(now))));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_online_tick_vs_history);
criterion_main!(benches);

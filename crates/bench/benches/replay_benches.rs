//! Criterion benchmarks of the streaming replay front-end: requests/s from
//! encoded trace bytes through format decoding, the shard queues and the
//! detection ticks (`replay_format`), and the shard sweep over a multi-app
//! fleet source (`replay_shards`). EXPERIMENTS.md records the numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ftio_core::{BackpressurePolicy, ClusterConfig, ClusterEngine, FtioConfig, WindowStrategy};
use ftio_synth::multi_app::{MultiAppConfig, MultiAppWorkload};
use ftio_trace::source::{from_bytes, MemorySource};
use ftio_trace::{jsonl, msgpack, tmio, AppId, IoRequest, SourceFormat};

/// One application's periodic trace: `count` bursts of 2 ranks each.
fn periodic_requests(count: usize) -> Vec<IoRequest> {
    let mut requests = Vec::with_capacity(count * 2);
    for i in 0..count {
        let start = i as f64 * 10.0;
        for rank in 0..2 {
            requests.push(IoRequest::write(rank, start, start + 2.0, 500_000_000));
        }
    }
    requests
}

fn engine_config(shards: usize) -> ClusterConfig {
    ClusterConfig {
        shards,
        queue_capacity: 1024,
        max_batch: 16,
        policy: BackpressurePolicy::Block,
        ftio: FtioConfig {
            sampling_freq: 2.0,
            use_autocorrelation: false,
            ..Default::default()
        },
        // A bounded window keeps the per-tick FFT cost constant, so the
        // format sweep prices decoding + dispatch rather than window growth.
        strategy: WindowStrategy::Fixed { length: 300.0 },
        ..ClusterConfig::default()
    }
}

/// Decode the encoded trace and push it through a 2-shard engine.
fn replay_bytes(format: SourceFormat, bytes: &[u8]) -> u64 {
    let mut source =
        from_bytes(format, AppId::new(1), bytes.to_vec(), 256).expect("benchmark bytes decode");
    let engine = ClusterEngine::spawn(engine_config(2));
    let stats = engine.replay(source.as_mut()).expect("replay");
    engine.finish();
    stats.requests
}

fn bench_replay_format(c: &mut Criterion) {
    let requests = periodic_requests(1500);
    let corpora: Vec<(SourceFormat, Vec<u8>)> = vec![
        (
            SourceFormat::Jsonl,
            jsonl::encode_requests(&requests).into_bytes(),
        ),
        (SourceFormat::Msgpack, msgpack::encode_requests(&requests)),
        (
            SourceFormat::TmioJson,
            tmio::encode_json(2, &requests).into_bytes(),
        ),
        (
            SourceFormat::TmioMsgpack,
            tmio::encode_msgpack(2, &requests),
        ),
    ];
    let mut group = c.benchmark_group("replay_format");
    group.sample_size(10);
    for (format, bytes) in &corpora {
        group.bench_with_input(
            BenchmarkId::new("format", format.as_str()),
            bytes,
            |b, bytes| {
                b.iter(|| black_box(replay_bytes(*format, bytes)));
            },
        );
    }
    group.finish();
}

fn bench_replay_shards(c: &mut Criterion) {
    let workload = MultiAppWorkload::generate(
        &MultiAppConfig {
            apps: 32,
            flushes_per_app: 6,
            ranks_per_app: 2,
            ..Default::default()
        },
        0x4E91A7,
    );
    let source: MemorySource = workload.to_source();
    let mut group = c.benchmark_group("replay_shards");
    group.sample_size(10);
    for shards in [1usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("shards", shards), &source, |b, source| {
            b.iter(|| {
                let mut source = source.clone();
                let engine = ClusterEngine::spawn(engine_config(shards));
                let stats = engine.replay(&mut source).expect("replay");
                engine.finish();
                black_box(stats.requests)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_replay_format, bench_replay_shards);
criterion_main!(benches);

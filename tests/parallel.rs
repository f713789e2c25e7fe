//! Parallel-execution integration tests: the engine's worker/shard
//! decoupling observed from outside the crate.
//!
//! The contracts pinned here:
//!
//! * **Layout-independent results** — replaying the adversarial scenario
//!   suite through the cluster engine produces bit-for-bit identical
//!   predictions whether the engine runs one worker per shard (the historical
//!   layout) or any smaller thread budget. Routing, batching and per-app
//!   ordering are functions of the shard count alone, so the worker count is
//!   purely a throughput knob.
//! * **Zero-allocation steady state under a thread budget** — with fewer
//!   workers than shards, each worker's thread-local FFT plan cache still
//!   converges: steady-state ticks build no plans and grow no scratch.
//! * **Thread-budget parsing** — every engine-backed subcommand reads
//!   `--threads` the same way, with the `FTIO_THREADS` default behind it.
//! * **Serve worker budget** — a serve daemon's CPU budget is exactly the
//!   configured worker count: the workers run every transform themselves,
//!   and the engine's worker threads are the program's only parallelism.

use ftio_cli::{cluster, default_threads, eval, replay, serve};
use ftio_core::server::{Server, ServerConfig, ServerListener};
use ftio_core::{
    BackpressurePolicy, ClusterConfig, ClusterEngine, FtioConfig, OnlinePrediction, WindowStrategy,
};
use ftio_synth::drift::{all_scenarios, Scenario};
use ftio_trace::{AppId, IoRequest};

fn engine_config(shards: usize, threads: usize) -> ClusterConfig {
    ClusterConfig {
        shards,
        queue_capacity: 1024,
        // One submission per tick keeps coalescing independent of worker
        // scheduling, which is what makes cross-layout runs comparable.
        max_batch: 1,
        threads,
        policy: BackpressurePolicy::Block,
        ftio: FtioConfig {
            sampling_freq: 2.0,
            use_autocorrelation: false,
            ..Default::default()
        },
        strategy: WindowStrategy::Adaptive { multiple: 3 },
        ..ClusterConfig::default()
    }
}

/// One prediction as raw bit patterns: time, period, confidence.
type PredictionBits = (u64, Option<u64>, u64);

/// Replays one scenario and returns every prediction as raw bit patterns,
/// sorted per app, so equality means bit-for-bit equality.
fn replay_bits(scenario: &Scenario, threads: usize) -> Vec<(AppId, Vec<PredictionBits>)> {
    let engine = ClusterEngine::spawn(engine_config(4, threads));
    let mut source = scenario.to_source();
    engine
        .replay(&mut source)
        .expect("memory source cannot fail");
    engine.flush();
    let results = engine.finish();
    let mut apps: Vec<AppId> = scenario.apps();
    apps.sort();
    apps.into_iter()
        .map(|app| {
            let bits = results
                .get(&app)
                .map(|history| {
                    history
                        .iter()
                        .map(|p: &OnlinePrediction| {
                            (
                                p.time.to_bits(),
                                p.period().map(f64::to_bits),
                                p.confidence().to_bits(),
                            )
                        })
                        .collect()
                })
                .unwrap_or_default();
            (app, bits)
        })
        .collect()
}

/// Every adversarial scenario, replayed under shrinking thread budgets, lands
/// on exactly the predictions the historical one-worker-per-shard layout
/// produces.
#[test]
fn scenario_suite_is_bit_identical_across_thread_budgets() {
    for scenario in all_scenarios(42) {
        let legacy = replay_bits(&scenario, 0);
        assert!(
            legacy.iter().any(|(_, bits)| !bits.is_empty()),
            "scenario {} produced no predictions",
            scenario.name
        );
        for threads in [1, 2, 4] {
            let threaded = replay_bits(&scenario, threads);
            assert_eq!(
                legacy, threaded,
                "scenario {} diverged at {threads} worker threads",
                scenario.name
            );
        }
    }
}

fn burst(ranks: usize, start: f64, duration: f64, bytes: u64) -> Vec<IoRequest> {
    (0..ranks)
        .map(|rank| IoRequest::write(rank, start, start + duration, bytes))
        .collect()
}

/// With a thread budget below the shard count, each worker serves several
/// shards from one thread-local plan cache — steady-state ticks must still
/// build no FFT plans and grow no scratch on any worker.
#[test]
fn thread_budgeted_steady_state_builds_no_plans() {
    let config = FtioConfig {
        sampling_freq: 2.0,
        use_autocorrelation: true,
        ..Default::default()
    };
    let engine = ClusterEngine::spawn(ClusterConfig {
        shards: 4,
        queue_capacity: 256,
        max_batch: 1,
        threads: 2,
        policy: BackpressurePolicy::Block,
        ftio: config,
        strategy: WindowStrategy::Fixed { length: 300.0 },
        ..ClusterConfig::default()
    });
    assert_eq!(engine.worker_count(), 2);
    let apps: Vec<AppId> = (0..4).map(AppId::new).collect();
    let period = 10.0;
    for &app in &apps {
        let mut history = Vec::new();
        for tick in 0..40 {
            history.extend(burst(4, tick as f64 * period, 2.0, 2_000_000_000));
        }
        engine.submit(app, history, 400.0);
    }
    for tick in 1..4 {
        for &app in &apps {
            let now = 400.0 + tick as f64 * period;
            engine.submit(app, burst(4, now - 2.0, 2.0, 2_000_000_000), now);
        }
    }
    engine.flush();
    let before = engine.plan_cache_stats();
    assert_eq!(before.len(), 2, "one stats slot per worker, not per shard");
    for tick in 4..11 {
        for &app in &apps {
            let now = 400.0 + tick as f64 * period;
            engine.submit(app, burst(4, now - 2.0, 2.0, 2_000_000_000), now);
        }
    }
    engine.flush();
    let after = engine.plan_cache_stats();
    for (worker, (b, a)) in before.iter().zip(&after).enumerate() {
        assert_eq!(
            a.plans_built(),
            b.plans_built(),
            "worker {worker} built FFT plans in steady state: {b:?} -> {a:?}"
        );
        assert_eq!(
            a.scratch_grows, b.scratch_grows,
            "worker {worker} grew FFT scratch in steady state: {b:?} -> {a:?}"
        );
        assert!(a.plan_hits > b.plan_hits, "worker {worker} ran no ticks");
    }
    let results = engine.finish();
    for &app in &apps {
        assert_eq!(results[&app].len(), 11);
    }
}

/// `--threads` means the same engine worker count on every engine-backed
/// subcommand: counts pass through (clamped), `auto` and `0` defer to the
/// `FTIO_THREADS` default, garbage is an error, and no flag is the default.
#[test]
fn thread_budget_parsing_is_uniform() {
    type ParseThreads = fn(&[String]) -> Result<usize, String>;
    let subcommands: [(&str, &[&str], ParseThreads); 4] = [
        ("cluster", &[], |args| {
            cluster::parse_cluster_options(args).map(|o| o.threads)
        }),
        ("replay", &["trace.jsonl"], |args| {
            replay::parse_replay_options(args).map(|o| o.threads)
        }),
        ("serve", &["--tcp", "127.0.0.1:0"], |args| {
            serve::parse_serve_options(args).map(|o| o.threads)
        }),
        ("eval", &["--all", "--engine"], |args| {
            eval::parse_eval_options(args).map(|o| o.threads)
        }),
    ];
    for (name, required, parse) in subcommands {
        let with = |extra: &[&str]| -> Vec<String> {
            required
                .iter()
                .chain(extra)
                .map(|s| s.to_string())
                .collect()
        };
        assert_eq!(parse(&with(&[])), Ok(default_threads()), "{name}");
        for (value, expected) in [("1", 1), ("8", 8), (" 4 ", 4), ("1000000", 256)] {
            let parsed = parse(&with(&["--threads", value]));
            assert_eq!(parsed, Ok(expected), "{name} --threads {value:?}");
        }
        for value in ["auto", "0"] {
            let parsed = parse(&with(&["--threads", value]));
            assert_eq!(parsed, Ok(default_threads()), "{name} --threads {value}");
        }
        for value in ["not-a-number", "-3", ""] {
            let parsed = parse(&with(&["--threads", value]));
            assert!(parsed.is_err(), "{name} --threads {value:?}");
        }
    }
}

/// A serve daemon's CPU-bound budget is the engine worker count: the
/// configured thread knob, clamped to the shard count, with 0 falling back
/// to one worker per shard.
#[test]
fn serve_worker_budget_follows_the_thread_knob() {
    for (shards, threads, expected) in [(8usize, 3usize, 3usize), (4, 0, 4), (2, 16, 2)] {
        let server = Server::start(
            ServerListener::tcp("127.0.0.1:0").expect("bind an ephemeral port"),
            ServerConfig {
                max_connections: 4,
                batch_size: 256,
                cluster: ClusterConfig {
                    shards,
                    threads,
                    ftio: FtioConfig {
                        sampling_freq: 2.0,
                        use_autocorrelation: false,
                        ..Default::default()
                    },
                    ..ClusterConfig::default()
                },
                ..ServerConfig::default()
            },
        )
        .expect("server boots");
        assert_eq!(
            server.worker_count(),
            expected,
            "shards {shards}, threads {threads}"
        );
        server.finish();
    }
}

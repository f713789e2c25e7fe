//! `fleet_replay`: a `ClusterEngine` configured as `ftio replay` configures
//! it, fed by one thread submitting a 256-application fleet schedule as fast
//! as the engine accepts, for `--seconds`, then `finish()`.
//!
//! A second thread holds an all-application subscription and timestamps
//! every prediction, so each flush's wait from `submit` to its prediction is
//! measured the way `serve_stream` measures push latency.

use std::collections::{HashMap, HashSet};
use std::sync::mpsc;
use std::time::Instant;

use ftio_cli::replay::ReplayCliOptions;
use ftio_core::{
    AppPredictions, ClusterConfig, ClusterEngine, ClusterStats, FtioConfig, WindowStrategy,
};
use ftio_synth::{FlushEvent, MultiAppConfig, MultiAppWorkload};
use ftio_trace::AppId;

use crate::report::{mean, median, percentile, Report};
use crate::staged::{FftCensus, ShadowPass};
use crate::sys;
use crate::tracer::Tracer;
use crate::Args;

/// Applications in the fleet: far more distinct FFT lengths than the
/// 16-entry per-thread plan cache holds.
const APPS: usize = 256;
/// Ranks writing each burst.
const RANKS: usize = 32;
/// Flushes per application in one round of the schedule.
const FLUSHES_PER_APP: usize = 32;
/// Rounds a series makes at least, however short `--seconds` is.
const MIN_ROUNDS: usize = 3;

/// The engine settings of `ftio replay` (its option defaults) with
/// `threads` workers.
fn replay_config(threads: usize) -> ClusterConfig {
    let options = ReplayCliOptions::default();
    ClusterConfig {
        shards: options.shards,
        queue_capacity: options.capacity,
        max_batch: options.batch,
        threads,
        policy: options.policy,
        ftio: FtioConfig {
            sampling_freq: options.freq,
            use_autocorrelation: false,
            ..Default::default()
        },
        strategy: WindowStrategy::Adaptive { multiple: 3 },
        ..ClusterConfig::default()
    }
}

/// One round: a fresh engine, the whole schedule, drain, finish.
struct Round {
    setup_s: f64,
    /// Per submitted flush: app, flush time, when `submit` was called.
    submitted: Vec<(AppId, f64, Instant)>,
    /// Time inside each `submit` call, µs.
    submit_us: Vec<f64>,
    elapsed_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    drain_s: f64,
    finish_s: f64,
    stats: ClusterStats,
    plan_hits: u64,
    plans_built: u64,
    results: AppPredictions,
    pushes: Vec<(AppId, f64, Instant)>,
}

/// Spawns an engine, submits `events` in order as fast as it accepts them,
/// drains and finishes it.
fn run_round(config: ClusterConfig, events: Vec<FlushEvent>, tracer: &mut Tracer) -> Round {
    let spawned = Instant::now();
    let engine = tracer.leaf("cluster.spawn", None, u64::MAX, || {
        ClusterEngine::spawn(config)
    });
    let setup_s = spawned.elapsed().as_secs_f64();

    let rx = engine.subscribe(None);
    let (ready_tx, ready_rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let cpu0 = sys::thread_cpu_s();
        ready_tx
            .send(())
            .expect("the submitter waits for the reader");
        let pushes: Vec<(AppId, f64, Instant)> = rx
            .iter()
            .map(|event| (event.app, event.prediction.time, Instant::now()))
            .collect();
        (pushes, sys::thread_cpu_s() - cpu0)
    });
    ready_rx.recv().expect("the reader starts");

    sys::reset_peak_rss();
    let cpu0 = sys::process_cpu_s();
    let mut submitted = Vec::with_capacity(events.len());
    let mut submit_us = Vec::with_capacity(events.len());
    let start = Instant::now();
    for (i, event) in events.into_iter().enumerate() {
        let (app, now) = (event.app, event.now);
        let at = Instant::now();
        tracer.leaf("cluster.submit", None, i as u64, || {
            engine.submit(app, event.requests, now)
        });
        submit_us.push(at.elapsed().as_secs_f64() * 1e6);
        submitted.push((app, now, at));
    }
    let drain_at = Instant::now();
    tracer.leaf("cluster.drain", None, u64::MAX, || engine.flush());
    let drain_s = drain_at.elapsed().as_secs_f64();
    let stats = engine.stats();
    let (plan_hits, plans_built) = engine
        .plan_cache_stats()
        .iter()
        .fold((0, 0), |(h, b), s| (h + s.plan_hits, b + s.plans_built()));
    let finish_at = Instant::now();
    let results = tracer.leaf("cluster.finish", None, u64::MAX, || engine.finish());
    let finish_s = finish_at.elapsed().as_secs_f64();
    let elapsed_s = start.elapsed().as_secs_f64();
    let (pushes, reader_cpu) = reader.join().expect("the reader does not panic");
    let cpu_s = sys::process_cpu_s() - cpu0 - reader_cpu;
    let rss_mb = sys::peak_rss_mb();
    Round {
        setup_s,
        submitted,
        submit_us,
        elapsed_s,
        cpu_s,
        rss_mb,
        drain_s,
        finish_s,
        stats,
        plan_hits,
        plans_built,
        results,
        pushes,
    }
}

/// Submit → covering prediction, ms: (each app's first flush, every other
/// flush), and the flushes no prediction covered.
fn latencies(round: &Round) -> (Vec<f64>, Vec<f64>, u64) {
    let mut by_app: HashMap<AppId, Vec<(f64, Instant)>> = HashMap::new();
    for &(app, time, at) in &round.pushes {
        by_app.entry(app).or_default().push((time, at));
    }
    let mut cursor: HashMap<AppId, usize> = HashMap::new();
    let mut seen: HashSet<AppId> = HashSet::new();
    let (mut first, mut rest, mut uncovered) = (Vec::new(), Vec::new(), 0u64);
    for &(app, time, at) in &round.submitted {
        let pushes = by_app.get(&app).map_or(&[][..], |v| v.as_slice());
        let i = cursor.entry(app).or_insert(0);
        // Predictions of one app arrive in tick order, with rising times.
        while *i < pushes.len() && pushes[*i].0 < time {
            *i += 1;
        }
        let Some(&(_, got)) = pushes.get(*i) else {
            uncovered += 1;
            continue;
        };
        let ms = got.saturating_duration_since(at).as_secs_f64() * 1e3;
        if seen.insert(app) {
            first.push(ms);
        } else {
            rest.push(ms);
        }
    }
    (first, rest, uncovered)
}

/// The output checks of one round.
fn check(round: &Round, uncovered: u64, report: &mut Report) {
    let n = round.submitted.len() as u64;
    report.attempted += n;
    if uncovered > 0 {
        report.fail(
            uncovered,
            format!("{uncovered} flushes got no covering prediction"),
        );
    }
    let s = round.stats;
    if s.ticks + s.panicked + s.coalesced + s.dropped != s.submitted - s.rejected {
        report.fail(1, format!("engine books do not balance: {s:?}"));
    }
    if s.submitted != n || s.rejected + s.dropped + s.panicked > 0 {
        report.fail(
            n.abs_diff(s.submitted).max(1),
            format!("{n} flushes submitted, engine says {s:?}"),
        );
    }
    let mut last_flush: HashMap<AppId, f64> = HashMap::new();
    for &(app, time, _) in &round.submitted {
        last_flush.insert(app, time);
    }
    let stale = last_flush
        .iter()
        .filter(|(app, time)| {
            round
                .results
                .get(app)
                .and_then(|h| h.last())
                .is_none_or(|p| p.time != **time)
        })
        .count() as u64;
    if stale > 0 {
        report.fail(
            stale,
            format!("{stale} apps' last prediction is not at their last flush"),
        );
    }
}

/// What the rounds of one series add up to.
#[derive(Default)]
struct Series {
    setup_s: Vec<f64>,
    flush_rates: Vec<f64>,
    trace_rates: Vec<f64>,
    /// Per-round p50 and p99 of every flush but each app's first, and p50
    /// and p90 of the first flushes, ms.
    push_p50: Vec<f64>,
    push_p99: Vec<f64>,
    first_p50: Vec<f64>,
    first_p90: Vec<f64>,
    latencies: usize,
    cpu_s: f64,
    flushes: u64,
    rss_mb: Vec<f64>,
    period_errors: Vec<f64>,
    submit_us: Vec<f64>,
    drain_ms: Vec<f64>,
    finish_ms: Vec<f64>,
    retained: Vec<f64>,
    stats: ClusterStats,
    plan_hits: u64,
    plans_built: u64,
    census: FftCensus,
}

impl Series {
    fn add(&mut self, fleet: &MultiAppWorkload, round: Round, acf: bool) {
        let (first, rest, _) = latencies(&round);
        let n = round.submitted.len();
        self.setup_s.push(round.setup_s);
        self.flush_rates.push(n as f64 / round.elapsed_s);
        self.trace_rates
            .push(round.results.len() as f64 / round.elapsed_s);
        self.push_p50.push(percentile(&rest, 50.0));
        self.push_p99.push(percentile(&rest, 99.0));
        self.first_p50.push(percentile(&first, 50.0));
        self.first_p90.push(percentile(&first, 90.0));
        self.latencies += rest.len();
        self.cpu_s += round.cpu_s;
        self.flushes += n as u64;
        self.rss_mb.push(round.rss_mb);
        self.submit_us.extend(&round.submit_us);
        self.drain_ms.push(round.drain_s * 1e3);
        self.finish_ms.push(round.finish_s * 1e3);
        self.plan_hits += round.plan_hits;
        self.plans_built += round.plans_built;
        let s = round.stats;
        self.stats.submitted += s.submitted;
        self.stats.coalesced += s.coalesced;
        self.stats.ticks += s.ticks;
        self.stats.rejected += s.rejected;
        self.stats.dropped += s.dropped;
        self.stats.panicked += s.panicked;
        let mut retained = 0usize;
        for history in round.results.values() {
            retained += history.len();
            for prediction in history {
                self.census
                    .add_detection(prediction.result.num_samples, acf);
            }
        }
        self.retained.push(retained as f64);
        for app in &fleet.apps {
            let period = round
                .results
                .get(&app.app)
                .and_then(|h| h.last())
                .and_then(|p| p.period());
            self.period_errors.push(match period {
                Some(period) => (period - app.period).abs() / app.period,
                None => 1.0,
            });
        }
    }
}

/// Rounds of the whole schedule until `seconds` have passed (at least
/// `min_rounds`, at most `max_rounds`), each checked into `report`.
fn run_series(
    fleet: &MultiAppWorkload,
    config: ClusterConfig,
    seconds: f64,
    (min_rounds, max_rounds): (usize, usize),
    tracer: &mut Tracer,
    report: &mut Report,
) -> Series {
    let started = Instant::now();
    let mut series = Series::default();
    let mut rounds = 0;
    while rounds < min_rounds || (rounds < max_rounds && started.elapsed().as_secs_f64() < seconds)
    {
        let round = run_round(config, fleet.events(), tracer);
        let (_, _, uncovered) = latencies(&round);
        check(&round, uncovered, report);
        series.add(fleet, round, config.ftio.use_autocorrelation);
        rounds += 1;
    }
    series
}

/// Runs the workload; with tracing, also a traced series, the one-worker
/// baseline and the shadow pass.
pub fn run(args: &Args, report: &mut Report) {
    let fleet = MultiAppWorkload::generate(
        &MultiAppConfig {
            apps: APPS,
            flushes_per_app: FLUSHES_PER_APP,
            ranks_per_app: RANKS,
            ..Default::default()
        },
        args.seed,
    );
    let config = replay_config(sys::nproc());
    let mut off = Tracer::new(false, Instant::now());
    let plain = run_series(
        &fleet,
        config,
        args.seconds,
        (MIN_ROUNDS, usize::MAX),
        &mut off,
        report,
    );
    report.set("setup_s", median(&plain.setup_s), "s", plain.setup_s.len());
    // Latency percentiles are taken per round (8192 flushes, 256 of them
    // first flushes) and reported as their median over the rounds.
    report.set(
        "push_p50_ms",
        median(&plain.push_p50),
        "ms",
        plain.latencies,
    );
    report.set(
        "push_p99_ms",
        median(&plain.push_p99),
        "ms",
        plain.latencies,
    );
    report.set(
        "first_push_p50_ms",
        median(&plain.first_p50),
        "ms",
        plain.first_p50.len() * APPS,
    );
    report.set(
        "first_push_p90_ms",
        median(&plain.first_p90),
        "ms",
        plain.first_p90.len() * APPS,
    );
    let flushes = plain.flushes as usize;
    report.set(
        "cpu_us_per_flush",
        plain.cpu_s / flushes as f64 * 1e6,
        "us",
        flushes,
    );
    report.set(
        "flushes_per_s",
        median(&plain.flush_rates),
        "1/s",
        plain.flush_rates.len(),
    );
    report.set(
        "traces_per_s",
        median(&plain.trace_rates),
        "1/s",
        plain.trace_rates.len(),
    );
    report.set(
        "period_err_mean",
        mean(&plain.period_errors),
        "ratio",
        plain.period_errors.len(),
    );
    report.set(
        "rss_peak_mb",
        median(&plain.rss_mb),
        "MB",
        plain.rss_mb.len(),
    );
    if !args.trace {
        return;
    }

    let mut tracer = Tracer::new(true, Instant::now());
    let traced = run_series(
        &fleet,
        config,
        args.seconds,
        (MIN_ROUNDS, usize::MAX),
        &mut tracer,
        report,
    );
    let (plain_rate, traced_rate) = (median(&plain.flush_rates), median(&traced.flush_rates));
    report.set(
        "tracing.overhead_pct",
        (plain_rate - traced_rate) / plain_rate * 100.0,
        "%",
        traced.flush_rates.len(),
    );

    // The same schedule on one worker: the scaling baseline.
    let single = run_series(
        &fleet,
        replay_config(1),
        0.0,
        (MIN_ROUNDS, MIN_ROUNDS),
        &mut off,
        report,
    );
    report.set(
        "cluster.speedup",
        plain_rate / median(&single.flush_rates),
        "ratio",
        single.flush_rates.len(),
    );

    // Shadow: the schedule in order on this thread.
    let mut shadow_tracer = Tracer::new(true, tracer.epoch());
    let mut shadow = ShadowPass::new(config);
    for (i, event) in fleet.events().into_iter().enumerate() {
        shadow.flush_requests(
            &mut shadow_tracer,
            event.app,
            event.requests,
            event.now,
            i as u64,
        );
    }
    crate::shadow_metrics(report, &shadow_tracer, &shadow);

    let lookups = plain.plan_hits + plain.plans_built;
    report.set(
        "plan_cache.hit_ratio",
        plain.plan_hits as f64 / lookups.max(1) as f64,
        "ratio",
        lookups as usize,
    );
    report.count("plan_cache.plans_built", plain.plans_built);
    crate::census_metrics(report, &plain.census);
    report.percentiles("cluster.submit_wait_us", &plain.submit_us, "us");
    let s = plain.stats;
    report.set(
        "cluster.coalesced_ratio",
        s.coalesced as f64 / s.submitted.max(1) as f64,
        "ratio",
        s.submitted as usize,
    );
    report.set(
        "cluster.drain_ms",
        median(&plain.drain_ms),
        "ms",
        plain.drain_ms.len(),
    );
    report.set(
        "cluster.finish_ms",
        median(&plain.finish_ms),
        "ms",
        plain.finish_ms.len(),
    );
    report.set(
        "cluster.retained_predictions",
        median(&plain.retained),
        "count",
        plain.retained.len(),
    );
    report.count("cluster.rejected", s.rejected);
    report.count("cluster.dropped", s.dropped);
    report.count("cluster.panicked", s.panicked);
    crate::absent_server_layers(report);
    report.count("gen.threads", 2);
    report.count("gen.connections", 0);

    crate::timed_layers(report, &shadow_tracer);
    tracer.absorb(shadow_tracer);
    crate::finish_trace(args, report, &tracer);
}

//! End-to-end and per-layer benchmark of FTIO-rs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve_stream|fleet_replay|offline_detect --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! Run from the repository root. Inputs are generated from `--seed` before
//! any timing starts; scratch files (the daemon's socket, the offline corpus,
//! the span log) go to `.bench_run/`. The last line of standard output is one
//! JSON object: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`. The process exits non-zero when an output check
//! fails. See `perfbench/README.md` for what each metric means on each
//! workload.

mod fleet;
mod offline;
mod report;
mod serve;
mod staged;
mod sys;
mod tracer;

use std::path::Path;
use std::process::ExitCode;

use report::{percentile, Report};
use staged::{FftCensus, ShadowPass};
use tracer::Tracer;

/// Share of an enclosing staged span its stage spans must cover.
const RECONCILE_TOLERANCE: f64 = 0.10;

/// End-to-end metrics, printed with `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("first_push_p90_ms", "ms"),
    ("cpu_us_per_flush", "us"),
    ("flushes_per_s", "1/s"),
    ("traces_per_s", "1/s"),
    ("rss_peak_mb", "MB"),
];

/// Timed layers: span name (also the prefix of `.calls` and `.share`), the
/// timing metric, and its unit.
const TIMED_LAYERS: [(&str, &str, &str); 10] = [
    ("source.decode", "source.decode_us", "us"),
    ("sampling.sample_trace", "sampling.sample_trace_ms", "ms"),
    ("sampling.fold", "sampling.fold_us", "us"),
    ("sampling.view", "sampling.view_us", "us"),
    ("spectrum_info", "spectrum_info.call_us", "us"),
    ("outlier", "outlier.call_us", "us"),
    ("dominant", "dominant.call_us", "us"),
    ("autocorrelation", "autocorrelation.call_us", "us"),
    ("characterize", "characterize.call_us", "us"),
    ("online.tick", "online.tick_us", "us"),
];

/// Per-layer metrics other than the timed layers, printed with `--trace 1`.
/// The first four are end-to-end metrics too unsteady from run to run on
/// this machine to carry a bound (see `perfbench/README.md`).
const LAYER_METRICS: [(&str, &str); 51] = [
    ("push_p50_ms", "ms"),
    ("push_p99_ms", "ms"),
    ("first_push_p50_ms", "ms"),
    ("period_err_mean", "ratio"),
    ("source.mb_per_s", "MB/s"),
    ("wire.frames", "count"),
    ("wire.bytes", "bytes"),
    ("sampling.n.p50", "count"),
    ("sampling.n.p99", "count"),
    ("fft.smooth", "count"),
    ("fft.bluestein", "count"),
    ("fft.four_step", "count"),
    ("dominant.found_ratio", "ratio"),
    ("online.window_n.p50", "count"),
    ("online.window_n.p99", "count"),
    ("plan_cache.hit_ratio", "ratio"),
    ("plan_cache.plans_built", "count"),
    ("cluster.submit_wait_us.p50", "us"),
    ("cluster.submit_wait_us.p99", "us"),
    ("cluster.coalesced_ratio", "ratio"),
    ("cluster.drain_ms", "ms"),
    ("cluster.finish_ms", "ms"),
    ("cluster.retained_predictions", "count"),
    ("cluster.speedup", "ratio"),
    ("cluster.rejected", "count"),
    ("cluster.dropped", "count"),
    ("cluster.panicked", "count"),
    ("server.accept_ms.p50", "ms"),
    ("server.accept_ms.p99", "ms"),
    ("server.end_ack_ms.p50", "ms"),
    ("server.end_ack_ms.p99", "ms"),
    ("server.residual_us.p50", "us"),
    ("server.residual_us.p99", "us"),
    ("server.overhead_us_per_flush", "us"),
    ("server.apps_seen", "count"),
    ("server.protocol_errors", "count"),
    ("server.shed", "count"),
    ("server.push_dropped", "count"),
    ("server.evicted", "count"),
    ("gen.late_p50_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("gen.idle_probe_p99_ms", "ms"),
    ("gen.threads", "count"),
    ("gen.connections", "count"),
    ("gen.available_parallelism", "count"),
    ("tracing.overhead_pct", "%"),
    ("tracing.spans", "count"),
    ("reconcile.coverage", "ratio"),
    ("reconcile.real_over_staged", "ratio"),
    ("staged.checked", "count"),
    ("staged.mismatches", "count"),
];

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Length of the measured run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Scratch directory for sockets, corpus files and span logs, relative to
/// the repository root the benchmark runs from.
pub const RUN_DIR: &str = ".bench_run";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or(format!("missing value for {flag}"))
    };
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|_| "--seconds takes a number".to_string())?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: value("--workload")?,
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed takes an unsigned integer".to_string())?,
        seconds,
        trace: match value("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err("--trace takes 0 or 1".into()),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    std::fs::create_dir_all(RUN_DIR).expect("create the scratch directory");
    let mut report = Report::default();
    if args.trace {
        let probe = sys::idle_probe_ms(500);
        report.set(
            "gen.idle_probe_p99_ms",
            percentile(&probe, 99.0),
            "ms",
            probe.len(),
        );
        report.count("gen.available_parallelism", sys::nproc() as u64);
    }
    match args.workload.as_str() {
        "serve_stream" => serve::run(&args, &mut report),
        "fleet_replay" => fleet::run(&args, &mut report),
        "offline_detect" => offline::run(&args, &mut report),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    }
    println!(
        "workload {} seed {} seconds {} on {} cores",
        args.workload,
        args.seed,
        args.seconds,
        sys::nproc()
    );
    if args.trace {
        let names = per_layer_names();
        let names: Vec<(&str, &str)> = names.iter().map(|(n, u)| (n.as_str(), *u)).collect();
        report.print(&names);
    } else {
        report.print(&END_TO_END);
    }
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Every per-layer metric name with its unit, in output order.
fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut names = Vec::new();
    for (prefix, timing, unit) in TIMED_LAYERS {
        names.push((format!("{prefix}.calls"), "count"));
        names.push((format!("{timing}.p50"), unit));
        names.push((format!("{timing}.p99"), unit));
        names.push((format!("{prefix}.share"), "ratio"));
    }
    names.extend(LAYER_METRICS.iter().map(|(n, u)| (n.to_string(), *u)));
    names
}

/// Calls, p50/p99 self time and share of every timed layer in `tracer`; a
/// layer the workload does not call reports zero calls.
pub fn timed_layers(report: &mut Report, tracer: &Tracer) {
    for (prefix, timing, unit) in TIMED_LAYERS {
        let layer = tracer.layer(prefix);
        let scale = if unit == "ms" { 1e-3 } else { 1.0 };
        let values: Vec<f64> = layer.self_us.iter().map(|us| us * scale).collect();
        report.count(&format!("{prefix}.calls"), values.len() as u64);
        report.percentiles(timing, &values, unit);
        report.set(
            &format!("{prefix}.share"),
            layer.share,
            "ratio",
            values.len(),
        );
    }
}

/// Metrics of an online shadow pass (`serve_stream`, `fleet_replay`).
pub fn shadow_metrics(report: &mut Report, tracer: &Tracer, shadow: &ShadowPass) {
    let decode_s: f64 = tracer.layer("source.decode").self_us.iter().sum::<f64>() / 1e6;
    let mb_per_s = if decode_s > 0.0 {
        shadow.bytes as f64 / 1e6 / decode_s
    } else {
        0.0
    };
    report.set("source.mb_per_s", mb_per_s, "MB/s", shadow.flushes as usize);
    report.set("sampling.n.p50", 0.0, "count", 0);
    report.set("sampling.n.p99", 0.0, "count", 0);
    report.percentiles("online.window_n", &shadow.window_n, "count");
    report.set(
        "dominant.found_ratio",
        shadow.found as f64 / shadow.flushes.max(1) as f64,
        "ratio",
        shadow.flushes as usize,
    );
    report.count("staged.checked", shadow.flushes);
    report.count("staged.mismatches", shadow.mismatches);
    if shadow.mismatches > 0 {
        report.fail(
            shadow.mismatches,
            format!("{} staged ticks differ from predict", shadow.mismatches),
        );
    }
    coverage_metrics(
        report,
        tracer,
        "online.staged",
        shadow.warm_real_s,
        shadow.warm_staged_s,
    );
}

/// How much of the enclosing staged span its stage spans cover, and the real
/// call's time over the staged calls' time (plan-warm calls only).
pub fn coverage_metrics(
    report: &mut Report,
    tracer: &Tracer,
    parent: &str,
    real_s: f64,
    staged_s: f64,
) {
    let (whole, children) = tracer.coverage(parent);
    let coverage = if whole > 0.0 { children / whole } else { 0.0 };
    report.set("reconcile.coverage", coverage, "ratio", 1);
    if coverage < 1.0 - RECONCILE_TOLERANCE {
        report.fail(
            1,
            format!("stage spans cover {coverage:.3} of `{parent}`, below the stated tolerance"),
        );
    }
    let ratio = if staged_s > 0.0 {
        real_s / staged_s
    } else {
        0.0
    };
    report.set("reconcile.real_over_staged", ratio, "ratio", 1);
}

/// Spectral transforms by plan kind.
pub fn census_metrics(report: &mut Report, census: &FftCensus) {
    report.count("fft.smooth", census.smooth);
    report.count("fft.bluestein", census.bluestein);
    report.count("fft.four_step", census.four_step);
}

/// Engine metrics of a workload that runs no engine.
pub fn absent_cluster_layers(report: &mut Report) {
    report.percentiles("cluster.submit_wait_us", &[], "us");
    for name in ["cluster.coalesced_ratio", "cluster.speedup"] {
        report.set(name, 0.0, "ratio", 0);
    }
    for name in ["cluster.drain_ms", "cluster.finish_ms"] {
        report.set(name, 0.0, "ms", 0);
    }
    for name in [
        "cluster.retained_predictions",
        "cluster.rejected",
        "cluster.dropped",
        "cluster.panicked",
    ] {
        report.count(name, 0);
    }
}

/// Daemon, wire and load-generator metrics of a workload without a socket.
pub fn absent_server_layers(report: &mut Report) {
    for name in ["server.accept_ms", "server.end_ack_ms"] {
        report.percentiles(name, &[], "ms");
    }
    report.percentiles("server.residual_us", &[], "us");
    report.set("server.overhead_us_per_flush", 0.0, "us", 0);
    for name in [
        "server.apps_seen",
        "server.protocol_errors",
        "server.shed",
        "server.push_dropped",
        "server.evicted",
        "wire.frames",
    ] {
        report.count(name, 0);
    }
    report.set("wire.bytes", 0.0, "bytes", 0);
    for name in ["gen.late_p50_ms", "gen.late_p99_ms"] {
        report.set(name, 0.0, "ms", 0);
    }
}

/// Writes the span log of a traced run and counts its spans.
pub fn finish_trace(args: &Args, report: &mut Report, tracer: &Tracer) {
    report.count("tracing.spans", tracer.len() as u64);
    let path = Path::new(RUN_DIR).join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    tracer.write_jsonl(&path).expect("write the span log");
    println!("spans: {}", path.display());
}

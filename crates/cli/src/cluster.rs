//! The `ftio cluster` subcommand: drive a synthetic application fleet through
//! the sharded [`ClusterEngine`] and report per-application accuracy plus
//! engine throughput.
//!
//! This is the command-line face of the "monitor a whole cluster" scenario:
//! it generates `--apps` seeded periodic applications (`ftio_synth::multi_app`),
//! replays their interleaved flush schedule through an engine with the chosen
//! shard count, queue capacity, batch size and backpressure policy, and prints
//! how well each application's period was recovered together with the
//! submit/tick/coalesce/drop counters.

use std::time::Instant;

use ftio_core::{BackpressurePolicy, ClusterConfig, ClusterEngine, FtioConfig, WindowStrategy};
use ftio_synth::multi_app::{MultiAppConfig, MultiAppWorkload};

use crate::{next_value, parse_flag};

/// Options of the `ftio cluster` subcommand.
#[derive(Clone, Copy, Debug)]
pub struct ClusterCliOptions {
    /// Number of synthetic applications.
    pub apps: usize,
    /// Number of predictor shards.
    pub shards: usize,
    /// Flushes (prediction requests) per application.
    pub flushes: usize,
    /// Bounded queue capacity per shard.
    pub capacity: usize,
    /// Maximum submissions of one application coalesced into a tick.
    pub batch: usize,
    /// Backpressure policy.
    pub policy: BackpressurePolicy,
    /// Workload seed.
    pub seed: u64,
    /// Sampling frequency of the analysis.
    pub freq: f64,
    /// Engine worker threads (0 = one worker per shard).
    pub threads: usize,
}

impl Default for ClusterCliOptions {
    fn default() -> Self {
        ClusterCliOptions {
            apps: 32,
            shards: 4,
            flushes: 8,
            capacity: 256,
            batch: 8,
            policy: BackpressurePolicy::Block,
            seed: 0xF1EE7,
            freq: 2.0,
            threads: crate::default_threads(),
        }
    }
}

/// Usage text of the subcommand.
pub const CLUSTER_USAGE: &str = "usage: ftio cluster [options]\n\
     \n\
     Drive a synthetic multi-application fleet through the sharded cluster\n\
     engine and report per-app detection accuracy and engine throughput.\n\
     \n\
     options:\n\
     \x20 --apps <n>                  number of applications (default 32)\n\
     \x20 --shards <n>                predictor shards (default 4)\n\
     \x20 --flushes <n>               flushes per application (default 8)\n\
     \x20 --capacity <n>              per-shard queue capacity (default 256)\n\
     \x20 --batch <n>                 max coalesced submissions per tick (default 8)\n\
     \x20 --policy block|drop-oldest|reject   backpressure policy (default block)\n\
     \x20 --threads <n>|auto          engine worker threads, clamped to the shard\n\
     \x20                             count (default: FTIO_THREADS, else one\n\
     \x20                             worker per shard)\n\
     \x20 --seed <n>                  workload seed (default 0xF1EE7)\n\
     \x20 --freq <hz>                 sampling frequency (default 2)";

/// Parses the arguments following `ftio cluster`.
pub fn parse_cluster_options(args: &[String]) -> Result<ClusterCliOptions, String> {
    let mut options = ClusterCliOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--apps" => options.apps = parse_flag(args, &mut i, "--apps")?,
            "--shards" => options.shards = parse_flag(args, &mut i, "--shards")?,
            "--flushes" => options.flushes = parse_flag(args, &mut i, "--flushes")?,
            "--capacity" => options.capacity = parse_flag(args, &mut i, "--capacity")?,
            "--batch" => options.batch = parse_flag(args, &mut i, "--batch")?,
            "--threads" => {
                let value = next_value(args, &mut i, "--threads")?;
                options.threads = crate::parse_threads_flag(&value)?;
            }
            "--policy" => {
                let value = next_value(args, &mut i, "--policy")?;
                options.policy = BackpressurePolicy::parse(&value)
                    .ok_or(format!("unknown backpressure policy `{value}`"))?;
            }
            "--seed" => {
                let value = next_value(args, &mut i, "--seed")?;
                options.seed = value
                    .parse()
                    .map_err(|_| format!("invalid seed `{value}`"))?;
            }
            "--freq" => {
                let value = next_value(args, &mut i, "--freq")?;
                options.freq = value
                    .parse()
                    .map_err(|_| format!("invalid sampling frequency `{value}`"))?;
                if !(options.freq.is_finite() && options.freq > 0.0) {
                    return Err(format!("invalid sampling frequency `{value}`"));
                }
            }
            other => return Err(format!("unknown cluster option `{other}`")),
        }
        i += 1;
    }
    // The engine clamps zeros internally, but the report prints the requested
    // values — refuse configurations that would silently run as something else.
    if options.apps == 0
        || options.flushes == 0
        || options.shards == 0
        || options.capacity == 0
        || options.batch == 0
    {
        return Err(
            "--apps, --flushes, --shards, --capacity and --batch must be at least 1".into(),
        );
    }
    Ok(options)
}

/// Runs the fleet through the engine and renders the report.
pub fn run_cluster(options: &ClusterCliOptions) -> Result<String, String> {
    let workload = MultiAppWorkload::generate(
        &MultiAppConfig {
            apps: options.apps,
            flushes_per_app: options.flushes,
            ..Default::default()
        },
        options.seed,
    );
    let events = workload.events();
    let config = FtioConfig {
        sampling_freq: options.freq,
        use_autocorrelation: false,
        ..Default::default()
    };
    config.validate()?;
    let engine = ClusterEngine::spawn(ClusterConfig {
        shards: options.shards,
        queue_capacity: options.capacity,
        max_batch: options.batch,
        threads: options.threads,
        policy: options.policy,
        ftio: config,
        strategy: WindowStrategy::Adaptive { multiple: 3 },
        ..ClusterConfig::default()
    });

    let workers = engine.worker_count();

    let started = Instant::now();
    for event in events {
        engine.submit(event.app, event.requests, event.now);
    }
    engine.flush();
    let elapsed = started.elapsed();
    let stats = engine.stats();

    let mut out = String::new();
    out.push_str(&format!(
        "cluster: {} apps x {} flushes, {} shards ({} workers), capacity {}, batch {}, policy {}\n\n",
        options.apps,
        options.flushes,
        options.shards,
        workers,
        options.capacity,
        options.batch,
        options.policy.as_str()
    ));
    out.push_str(&format!(
        "{:>10} {:>12} {:>14} {:>12} {:>10}\n",
        "app", "true (s)", "detected (s)", "error (%)", "ticks"
    ));
    let mut errors: Vec<f64> = Vec::new();
    let mut detected_apps = 0usize;
    let shown = options.apps.min(10);
    for stream in &workload.apps {
        let last = engine.predictions(stream.app).pop();
        let detected = last.and_then(|p| p.period());
        let ticks = engine.resume_window(stream.app).1;
        let line = match detected {
            Some(period) => {
                let error = (period - stream.period).abs() / stream.period;
                errors.push(error);
                detected_apps += 1;
                format!(
                    "{:>10} {:>12.2} {:>14.2} {:>12.1} {:>10}\n",
                    stream.name,
                    stream.period,
                    period,
                    error * 100.0,
                    ticks
                )
            }
            None => format!(
                "{:>10} {:>12.2} {:>14} {:>12} {:>10}\n",
                stream.name, stream.period, "-", "-", ticks
            ),
        };
        if stream.app.raw() < shown as u64 {
            out.push_str(&line);
        }
    }
    if options.apps > shown {
        out.push_str(&format!("  ... ({} more apps)\n", options.apps - shown));
    }
    let mean_error = if errors.is_empty() {
        f64::NAN
    } else {
        errors.iter().sum::<f64>() / errors.len() as f64
    };
    let processed = stats.ticks + stats.coalesced;
    out.push_str(&format!(
        "\nperiod found for {detected_apps}/{} apps (mean |error| {:.1} %)\n",
        options.apps,
        mean_error * 100.0
    ));
    out.push_str(&format!(
        "submitted {}  processed {}  ticks {}  coalesced {}  dropped {}  rejected {}\n",
        stats.submitted, processed, stats.ticks, stats.coalesced, stats.dropped, stats.rejected
    ));
    let secs = elapsed.as_secs_f64().max(1e-9);
    out.push_str(&format!(
        "wall time {:.1} ms  ({:.0} submissions/s, {:.0} ticks/s)\n",
        secs * 1e3,
        stats.submitted as f64 / secs,
        stats.ticks as f64 / secs
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_are_parsed() {
        let options = parse_cluster_options(&strings(&[
            "--apps",
            "8",
            "--shards",
            "2",
            "--flushes",
            "4",
            "--capacity",
            "32",
            "--batch",
            "2",
            "--policy",
            "drop-oldest",
            "--seed",
            "99",
            "--freq",
            "1.5",
        ]))
        .unwrap();
        assert_eq!(options.apps, 8);
        assert_eq!(options.shards, 2);
        assert_eq!(options.flushes, 4);
        assert_eq!(options.capacity, 32);
        assert_eq!(options.batch, 2);
        assert_eq!(options.policy, BackpressurePolicy::DropOldest);
        assert_eq!(options.seed, 99);
        assert_eq!(options.freq, 1.5);
    }

    #[test]
    fn threads_flag_is_parsed() {
        let options = parse_cluster_options(&strings(&["--threads", "3"])).unwrap();
        assert_eq!(options.threads, 3);
        // Garbage in a typed flag is an error, unlike the env variable.
        assert!(parse_cluster_options(&strings(&["--threads", "lots"])).is_err());
        assert!(parse_cluster_options(&strings(&["--threads"])).is_err());
    }

    #[test]
    fn defaults_and_errors() {
        let options = parse_cluster_options(&[]).unwrap();
        assert_eq!(options.apps, 32);
        assert_eq!(options.policy, BackpressurePolicy::Block);
        assert!(parse_cluster_options(&strings(&["--apps"])).is_err());
        assert!(parse_cluster_options(&strings(&["--apps", "zero"])).is_err());
        assert!(parse_cluster_options(&strings(&["--apps", "0"])).is_err());
        assert!(parse_cluster_options(&strings(&["--shards", "0"])).is_err());
        assert!(parse_cluster_options(&strings(&["--capacity", "0"])).is_err());
        assert!(parse_cluster_options(&strings(&["--batch", "0"])).is_err());
        assert!(parse_cluster_options(&strings(&["--policy", "nope"])).is_err());
        assert!(parse_cluster_options(&strings(&["--freq", "-1"])).is_err());
        assert!(parse_cluster_options(&strings(&["--bogus"])).is_err());
    }

    #[test]
    fn tiny_fleet_runs_and_reports() {
        let options = ClusterCliOptions {
            apps: 4,
            shards: 2,
            flushes: 8,
            ..Default::default()
        };
        let report = run_cluster(&options).unwrap();
        assert!(report.contains("4 apps x 8 flushes"), "{report}");
        assert!(report.contains("fleet-0"), "{report}");
        assert!(report.contains("submitted 32"), "{report}");
        // Clean periodic fleets converge for every app.
        assert!(report.contains("period found for 4/4 apps"), "{report}");
    }
}

//! The `ftio replay` subcommand: stream a recorded trace file through the
//! sharded [`ClusterEngine`] and report replay throughput plus detection
//! results.
//!
//! This is the file-driven twin of `ftio cluster`: instead of a synthetic
//! fleet, the submissions come from a [`ftio_trace::source::TraceSource`]
//! opened over a real trace file (any supported format, auto-detected), and
//! the pacing can either push as fast as possible (`--pacing as-fast`,
//! benchmark mode) or follow the recorded timestamps compressed by a speedup
//! factor (`--pacing recorded:<speedup>`).

use std::path::Path;
use std::time::Instant;

use ftio_core::{
    BackpressurePolicy, ClusterConfig, ClusterEngine, FtioConfig, ReplayStats, WindowStrategy,
};
use ftio_trace::source::{open_path, DEFAULT_BATCH_SIZE};
use ftio_trace::SourceFormat;

use crate::{next_value, parse_flag, parse_format};

/// How `ftio replay` paces submissions relative to the recorded timeline of
/// the source.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pacing {
    /// Push batches as fast as the backpressure policy admits them —
    /// benchmark/batch mode.
    AsFast,
    /// Follow the recorded timestamps, accelerated by `speedup` (1.0 replays
    /// in real time, 60.0 replays an hour of trace per minute). The producer
    /// sleeps between submissions so the engine sees the recorded arrival
    /// pattern.
    Recorded {
        /// Time-compression factor (must be positive).
        speedup: f64,
    },
}

impl Pacing {
    /// Parses a `--pacing` value: `as-fast` or `recorded[:<speedup>]`.
    pub fn parse(s: &str) -> Option<Self> {
        let lower = s.to_ascii_lowercase();
        match lower.as_str() {
            "as-fast" | "asfast" | "fast" => Some(Pacing::AsFast),
            "recorded" | "realtime" | "real-time" => Some(Pacing::Recorded { speedup: 1.0 }),
            _ => {
                let speedup: f64 = lower.strip_prefix("recorded:")?.parse().ok()?;
                if speedup.is_finite() && speedup > 0.0 {
                    Some(Pacing::Recorded { speedup })
                } else {
                    None
                }
            }
        }
    }
}

/// Options of the `ftio replay` subcommand.
#[derive(Clone, Debug)]
pub struct ReplayCliOptions {
    /// Path of the trace file to replay.
    pub input: String,
    /// Explicit input format (`None` = auto-detect).
    pub format: Option<SourceFormat>,
    /// Number of predictor shards.
    pub shards: usize,
    /// Bounded queue capacity per shard.
    pub capacity: usize,
    /// Maximum submissions of one application coalesced into a tick.
    pub batch: usize,
    /// Backpressure policy.
    pub policy: BackpressurePolicy,
    /// Engine worker threads (0 = one worker per shard).
    pub threads: usize,
    /// Replay pacing.
    pub pacing: Pacing,
    /// Sampling frequency of the analysis.
    pub freq: f64,
    /// Requests (or bins) per source batch.
    pub batch_size: usize,
    /// Stop after this many replayed batches (`None` = replay everything).
    pub limit: Option<u64>,
    /// Path the engine snapshot is written to (final, plus periodic when
    /// [`ReplayCliOptions::checkpoint_every`] is set).
    pub checkpoint: Option<String>,
    /// Snapshot the engine every N replayed batches (requires `checkpoint`).
    pub checkpoint_every: Option<u64>,
    /// Restore engine state and source position from this snapshot file
    /// before replaying. The engine configuration then comes from the
    /// snapshot; the `shards`/`capacity`/`batch`/`policy`/`threads`/`freq`
    /// options are ignored.
    pub resume: Option<String>,
}

impl Default for ReplayCliOptions {
    fn default() -> Self {
        ReplayCliOptions {
            input: String::new(),
            format: None,
            shards: 4,
            capacity: 256,
            batch: 8,
            policy: BackpressurePolicy::Block,
            threads: crate::default_threads(),
            pacing: Pacing::AsFast,
            freq: 2.0,
            batch_size: DEFAULT_BATCH_SIZE,
            limit: None,
            checkpoint: None,
            checkpoint_every: None,
            resume: None,
        }
    }
}

/// Usage text of the subcommand.
pub const REPLAY_USAGE: &str = "usage: ftio replay <trace-file> [options]\n\
     \n\
     Stream a recorded trace file through the sharded cluster engine —\n\
     batches are routed to shard queues at recorded or accelerated\n\
     timestamps — and report replay throughput and detection results.\n\
     \n\
     options:\n\
     \x20 --format auto|jsonl|msgpack|tmio-json|tmio-msgpack|darshan-parser|heatmap|recorder\n\
     \x20          input format (default: auto)\n\
     \x20 --shards <n>                predictor shards (default 4)\n\
     \x20 --capacity <n>              per-shard queue capacity (default 256)\n\
     \x20 --batch <n>                 max coalesced submissions per tick (default 8)\n\
     \x20 --policy block|drop-oldest|reject   backpressure policy (default block)\n\
     \x20 --threads <n>|auto          engine worker threads, clamped to the shard\n\
     \x20                             count (default: FTIO_THREADS, else one\n\
     \x20                             worker per shard; ignored with --resume)\n\
     \x20 --pacing as-fast|recorded[:<speedup>]   replay pacing (default as-fast)\n\
     \x20 --freq <hz>                 sampling frequency for request traces (default 2)\n\
     \x20 --batch-size <n>            requests per source batch (default 1024)\n\
     \x20 --limit <n>                 stop after n batches (default: whole file)\n\
     \x20 --checkpoint <path>         write an engine snapshot to this file\n\
     \x20 --checkpoint-every <n>      also snapshot every n batches (needs --checkpoint)\n\
     \x20 --resume <path>             restore engine + file position from a snapshot;\n\
     \x20                             the engine configuration comes from the snapshot";

/// Parses the arguments following `ftio replay`.
pub fn parse_replay_options(args: &[String]) -> Result<ReplayCliOptions, String> {
    let mut options = ReplayCliOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--format" => {
                let value = next_value(args, &mut i, "--format")?;
                options.format = parse_format(&value)?;
            }
            "--shards" => options.shards = parse_flag(args, &mut i, "--shards")?,
            "--capacity" => options.capacity = parse_flag(args, &mut i, "--capacity")?,
            "--batch" => options.batch = parse_flag(args, &mut i, "--batch")?,
            "--policy" => {
                let value = next_value(args, &mut i, "--policy")?;
                options.policy = BackpressurePolicy::parse(&value)
                    .ok_or(format!("unknown backpressure policy `{value}`"))?;
            }
            "--threads" => {
                let value = next_value(args, &mut i, "--threads")?;
                options.threads = crate::parse_threads_flag(&value)?;
            }
            "--pacing" => {
                let value = next_value(args, &mut i, "--pacing")?;
                options.pacing = Pacing::parse(&value).ok_or(format!(
                    "unknown pacing `{value}` (expected as-fast or recorded[:<speedup>])"
                ))?;
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
            "--batch-size" => options.batch_size = parse_flag(args, &mut i, "--batch-size")?,
            "--limit" => options.limit = Some(parse_flag(args, &mut i, "--limit")?),
            "--checkpoint" => options.checkpoint = Some(next_value(args, &mut i, "--checkpoint")?),
            "--checkpoint-every" => {
                options.checkpoint_every = Some(parse_flag(args, &mut i, "--checkpoint-every")?)
            }
            "--resume" => options.resume = Some(next_value(args, &mut i, "--resume")?),
            other if other.starts_with("--") => {
                return Err(format!(
                    "unknown replay option `{other}` (see `ftio replay --help`)"
                ))
            }
            path => {
                if !options.input.is_empty() {
                    return Err(format!("unexpected extra argument `{path}`"));
                }
                options.input = path.to_string();
            }
        }
        i += 1;
    }
    if options.input.is_empty() {
        return Err("no input file given".into());
    }
    if options.shards == 0 || options.capacity == 0 || options.batch == 0 {
        return Err("--shards, --capacity and --batch must be at least 1".into());
    }
    if options.batch_size == 0 {
        return Err("--batch-size must be at least 1".into());
    }
    if options.limit == Some(0) {
        return Err("--limit must be at least 1".into());
    }
    if options.checkpoint_every == Some(0) {
        return Err("--checkpoint-every must be at least 1".into());
    }
    if options.checkpoint_every.is_some() && options.checkpoint.is_none() {
        return Err("--checkpoint-every requires --checkpoint <path>".into());
    }
    Ok(options)
}

/// Writes one engine snapshot atomically enough for a crash-safe resume: the
/// bytes go to a sibling temp file first and replace the target with a
/// rename, so an interrupted write never leaves a torn checkpoint behind.
fn write_checkpoint(engine: &ClusterEngine, path: &str, progress: u64) -> Result<(), String> {
    let bytes = engine.snapshot_with_progress(progress);
    let tmp = format!("{path}.tmp");
    std::fs::write(&tmp, &bytes).map_err(|e| format!("cannot write checkpoint `{tmp}`: {e}"))?;
    std::fs::rename(&tmp, path).map_err(|e| format!("cannot move checkpoint into `{path}`: {e}"))
}

/// Opens the file, replays it through the engine and renders the report.
///
/// With `--checkpoint`/`--resume` this is the crash-safe long-horizon path:
/// the engine snapshot carries every application's predictor state plus the
/// number of source batches already consumed, so a resumed replay continues
/// exactly where the interrupted one stopped and produces the same
/// predictions an uninterrupted run would.
pub fn run_replay(options: &ReplayCliOptions) -> Result<String, String> {
    let (format, mut source) = open_path(
        Path::new(&options.input),
        options.format,
        options.batch_size,
    )
    .map_err(|e| e.to_string())?;
    let (engine, skip) = match &options.resume {
        Some(path) => {
            let bytes =
                std::fs::read(path).map_err(|e| format!("cannot read checkpoint `{path}`: {e}"))?;
            ClusterEngine::restore_with_progress(&bytes).map_err(|e| e.to_string())?
        }
        None => {
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
            (engine, 0)
        }
    };

    let started = Instant::now();
    // Pacing and the checkpoint/limit machinery need batch-level control, so
    // the loop mirrors `ClusterEngine::replay` instead of delegating to it.
    // `progress` counts every batch pulled from the source (including empty
    // ones), which is the position a later `--resume` fast-forwards to.
    let mut replay = ReplayStats::default();
    let mut progress: u64 = 0;
    let mut checkpoints_written: u64 = 0;
    let mut timeline_origin: Option<f64> = None;
    while let Some(batch) = source.next_batch().map_err(|e| e.to_string())? {
        progress += 1;
        if progress <= skip {
            continue;
        }
        let app = batch.app;
        let Some(now) = batch.end_time() else {
            continue; // empty batch carries no submission time
        };
        if let Pacing::Recorded { speedup } = options.pacing {
            let origin = *timeline_origin.get_or_insert(now);
            let target = ((now - origin) / speedup).max(0.0);
            let elapsed = started.elapsed().as_secs_f64();
            if target > elapsed {
                std::thread::sleep(std::time::Duration::from_secs_f64(target - elapsed));
            }
        }
        let requests = batch.into_requests();
        replay.batches += 1;
        replay.requests += requests.len() as u64;
        if engine.submit(app, requests, now).accepted() {
            replay.accepted += 1;
        } else {
            replay.rejected += 1;
        }
        if let (Some(every), Some(path)) = (options.checkpoint_every, &options.checkpoint) {
            if replay.batches % every == 0 {
                write_checkpoint(&engine, path, progress)?;
                checkpoints_written += 1;
            }
        }
        if Some(replay.batches) == options.limit {
            break;
        }
    }
    engine.flush();
    if let Some(path) = &options.checkpoint {
        write_checkpoint(&engine, path, progress)?;
        checkpoints_written += 1;
    }
    let elapsed = started.elapsed();
    let stats = engine.stats();
    let results = engine.all_predictions();

    let pacing = match options.pacing {
        Pacing::AsFast => "as-fast".to_string(),
        Pacing::Recorded { speedup } => format!("recorded:{speedup}"),
    };
    let mut out = String::new();
    out.push_str(&format!(
        "replay: {} ({}), {} shards, capacity {}, batch {}, policy {}, pacing {}\n",
        options.input,
        format.as_str(),
        options.shards,
        options.capacity,
        options.batch,
        options.policy.as_str(),
        pacing
    ));
    out.push_str(&format!(
        "source: {} batches, {} requests, {} accepted, {} rejected\n",
        replay.batches, replay.requests, replay.accepted, replay.rejected
    ));
    if let Some(path) = &options.resume {
        out.push_str(&format!(
            "resumed: {path} (skipped {skip} source batches)\n"
        ));
    }
    if let Some(path) = &options.checkpoint {
        out.push_str(&format!(
            "checkpoint: {path} ({checkpoints_written} snapshots, source batch {progress})\n"
        ));
    }
    out.push('\n');
    let mut apps: Vec<_> = results.iter().collect();
    apps.sort_by_key(|(app, _)| **app);
    for (app, history) in apps {
        let (name, published) = (app.to_string(), engine.resume_window(*app).1);
        out.push_str(&crate::app_summary(&name, published, history.last()));
    }
    out.push_str(&format!(
        "\nsubmitted {}  ticks {}  coalesced {}  dropped {}  rejected {}\n",
        stats.submitted, stats.ticks, stats.coalesced, stats.dropped, stats.rejected
    ));
    let secs = elapsed.as_secs_f64().max(1e-9);
    out.push_str(&format!(
        "wall time {:.1} ms  ({:.0} requests/s through the engine)\n",
        secs * 1e3,
        replay.requests as f64 / secs
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftio_trace::{jsonl, IoRequest};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_are_parsed() {
        let options = parse_replay_options(&strings(&[
            "trace.jsonl",
            "--shards",
            "2",
            "--capacity",
            "64",
            "--batch",
            "4",
            "--policy",
            "reject",
            "--threads",
            "2",
            "--pacing",
            "recorded:25",
            "--freq",
            "1.5",
            "--format",
            "jsonl",
        ]))
        .unwrap();
        assert_eq!(options.input, "trace.jsonl");
        assert_eq!(options.shards, 2);
        assert_eq!(options.capacity, 64);
        assert_eq!(options.batch, 4);
        assert_eq!(options.policy, BackpressurePolicy::Reject);
        assert_eq!(options.threads, 2);
        assert_eq!(options.pacing, Pacing::Recorded { speedup: 25.0 });
        assert_eq!(options.freq, 1.5);
        assert_eq!(options.format, Some(SourceFormat::Jsonl));
        let options = parse_replay_options(&strings(&[
            "trace.jsonl",
            "--batch-size",
            "8",
            "--limit",
            "5",
            "--checkpoint",
            "state.ftiosnap",
            "--checkpoint-every",
            "2",
            "--resume",
            "old.ftiosnap",
        ]))
        .unwrap();
        assert_eq!(options.batch_size, 8);
        assert_eq!(options.limit, Some(5));
        assert_eq!(options.checkpoint.as_deref(), Some("state.ftiosnap"));
        assert_eq!(options.checkpoint_every, Some(2));
        assert_eq!(options.resume.as_deref(), Some("old.ftiosnap"));
    }

    #[test]
    fn defaults_and_errors() {
        assert!(parse_replay_options(&[]).is_err());
        assert!(parse_replay_options(&strings(&["a", "b"])).is_err());
        assert!(parse_replay_options(&strings(&["a", "--pacing", "warp"])).is_err());
        assert!(parse_replay_options(&strings(&["a", "--shards", "0"])).is_err());
        assert!(parse_replay_options(&strings(&["a", "--threads", "lots"])).is_err());
        assert!(parse_replay_options(&strings(&["a", "--freq", "-1"])).is_err());
        assert!(parse_replay_options(&strings(&["a", "--bogus"])).is_err());
        assert!(parse_replay_options(&strings(&["a", "--batch-size", "0"])).is_err());
        assert!(parse_replay_options(&strings(&["a", "--limit", "0"])).is_err());
        assert!(parse_replay_options(&strings(&["a", "--checkpoint-every", "0"])).is_err());
        // --checkpoint-every without a checkpoint path has nowhere to write.
        assert!(parse_replay_options(&strings(&["a", "--checkpoint-every", "2"])).is_err());
        let options = parse_replay_options(&strings(&["trace.msgpack"])).unwrap();
        assert_eq!(options.pacing, Pacing::AsFast);
        assert_eq!(options.format, None);
        assert_eq!(options.batch_size, DEFAULT_BATCH_SIZE);
        assert_eq!(options.limit, None);
        assert_eq!(options.checkpoint, None);
        assert_eq!(options.checkpoint_every, None);
        assert_eq!(options.resume, None);
    }

    #[test]
    fn pacing_names_parse() {
        assert_eq!(Pacing::parse("as-fast"), Some(Pacing::AsFast));
        assert_eq!(Pacing::parse("AsFast"), Some(Pacing::AsFast));
        assert_eq!(
            Pacing::parse("recorded"),
            Some(Pacing::Recorded { speedup: 1.0 })
        );
        assert_eq!(
            Pacing::parse("recorded:50"),
            Some(Pacing::Recorded { speedup: 50.0 })
        );
        assert_eq!(Pacing::parse("recorded:0"), None);
        assert_eq!(Pacing::parse("recorded:-3"), None);
        assert_eq!(Pacing::parse("warp"), None);
    }

    /// Recorded pacing preserves results (the sleeps only shape arrival
    /// times): both reports match apart from the header naming the pacing and
    /// the wall-time line.
    #[test]
    fn replay_recorded_pacing_matches_as_fast_results() {
        let mut requests = Vec::new();
        for tick in 0..5 {
            let start = tick as f64 * 12.0;
            for rank in 0..2 {
                requests.push(IoRequest::write(rank, start, start + 2.0, 1_500_000_000));
            }
        }
        let path = std::env::temp_dir().join("ftio_replay_pacing_test.jsonl");
        std::fs::write(&path, jsonl::encode_requests(&requests)).unwrap();
        let run = |pacing: Pacing| {
            let options = ReplayCliOptions {
                input: path.to_str().unwrap().to_string(),
                shards: 1,
                batch: 1,
                batch_size: 2,
                pacing,
                ..Default::default()
            };
            let report = run_replay(&options).unwrap();
            assert!(
                report.contains("5 batches, 10 requests, 5 accepted"),
                "{report}"
            );
            report
                .lines()
                .skip(1)
                .filter(|line| !line.starts_with("wall time"))
                .map(str::to_string)
                .collect::<Vec<_>>()
        };
        let fast = run(Pacing::AsFast);
        // 48 s of recorded timeline at 2000x -> ~24 ms of pacing sleeps.
        let recorded = run(Pacing::Recorded { speedup: 2000.0 });
        assert_eq!(fast, recorded);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn replaying_a_periodic_file_finds_the_period() {
        let mut requests = Vec::new();
        for tick in 0..10 {
            let start = tick as f64 * 10.0;
            for rank in 0..2 {
                requests.push(IoRequest::write(rank, start, start + 2.0, 500_000_000));
            }
        }
        let path = std::env::temp_dir().join("ftio_replay_cli_test.jsonl");
        std::fs::write(&path, jsonl::encode_requests(&requests)).unwrap();
        let options = ReplayCliOptions {
            input: path.to_str().unwrap().to_string(),
            shards: 2,
            ..Default::default()
        };
        let report = run_replay(&options).unwrap();
        assert!(report.contains("jsonl"), "{report}");
        assert!(report.contains("20 requests"), "{report}");
        assert!(report.contains("period 10."), "{report}");
        assert!(report.contains("requests/s"), "{report}");
        let _ = std::fs::remove_file(path);
    }

    /// Extracts the per-application result lines, stripped of the prediction
    /// count: a resumed run counts only its own publishes, so only the detected
    /// period and confidence are expected to match an uninterrupted run.
    fn detections(report: &str) -> Vec<String> {
        report
            .lines()
            .filter_map(|line| line.split_once(" predictions, "))
            .map(|(app, detection)| {
                let app = app.split(':').next().unwrap_or(app);
                format!("{app}: {detection}")
            })
            .collect()
    }

    #[test]
    fn checkpointed_replay_resumes_to_the_same_predictions() {
        let mut requests = Vec::new();
        for tick in 0..12 {
            let start = tick as f64 * 10.0;
            for rank in 0..2 {
                requests.push(IoRequest::write(rank, start, start + 2.0, 500_000_000));
            }
        }
        let dir = std::env::temp_dir();
        let trace = dir.join("ftio_replay_resume_test.jsonl");
        let snapshot = dir.join("ftio_replay_resume_test.ftiosnap");
        std::fs::write(&trace, jsonl::encode_requests(&requests)).unwrap();
        // `--batch 1` keeps coalescing deterministic (one tick per source
        // batch), so the interrupted + resumed pair must land on exactly the
        // detection the uninterrupted run reports.
        let base = ReplayCliOptions {
            input: trace.to_str().unwrap().to_string(),
            batch: 1,
            batch_size: 4,
            ..Default::default()
        };
        let uninterrupted = run_replay(&base).unwrap();

        let first_half = ReplayCliOptions {
            limit: Some(3),
            checkpoint: Some(snapshot.to_str().unwrap().to_string()),
            checkpoint_every: Some(3),
            ..base.clone()
        };
        let partial = run_replay(&first_half).unwrap();
        assert!(partial.contains("3 batches"), "{partial}");
        assert!(partial.contains("source batch 3"), "{partial}");

        let resumed_options = ReplayCliOptions {
            resume: Some(snapshot.to_str().unwrap().to_string()),
            ..base.clone()
        };
        let resumed = run_replay(&resumed_options).unwrap();
        assert!(resumed.contains("skipped 3 source batches"), "{resumed}");
        assert_eq!(detections(&resumed), detections(&uninterrupted));
        assert!(!detections(&uninterrupted).is_empty(), "{uninterrupted}");

        let missing = ReplayCliOptions {
            resume: Some(
                dir.join("ftio_no_such_snapshot")
                    .to_str()
                    .unwrap()
                    .to_string(),
            ),
            ..base.clone()
        };
        assert!(run_replay(&missing).is_err());
        let _ = std::fs::remove_file(trace);
        let _ = std::fs::remove_file(snapshot);
    }
}

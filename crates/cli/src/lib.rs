//! # ftio-cli
//!
//! Shared plumbing of the command-line tools `ftio` (offline detection via
//! `ftio detect`, file replay via `ftio replay`, the `cluster` fleet driver,
//! the `eval` adversarial-scenario harness, the `serve` socket daemon with
//! its `client` counterpart, the `watch` file tail) and `predictor` (online
//! prediction): argument parsing, the streaming trace-ingestion front-end
//! (`ftio_trace::source` with `--format auto` content sniffing), a generated
//! demo workload for quick experimentation, and the [`cluster`] / [`replay`]
//! / [`eval`] / [`serve`] / [`watch`] drivers.

pub mod cluster;
pub mod eval;
pub mod replay;
pub mod serve;
pub mod watch;

use std::path::Path;
use std::str::FromStr;

use ftio_core::{FtioConfig, OnlinePrediction};
use ftio_synth::hacc::{generate as generate_hacc, HaccConfig};
use ftio_trace::source::{drain_single, open_path, SourceFormat, DEFAULT_BATCH_SIZE};
use ftio_trace::AppTrace;

/// Options shared by the detection tools.
#[derive(Clone, Debug, Default)]
pub struct CliOptions {
    /// Path of the input trace, or `None` when `--demo` was given.
    pub input: Option<String>,
    /// Explicit input format; `None` means auto-detect (content sniffing with
    /// an extension fallback).
    pub format: Option<SourceFormat>,
    /// Analysis configuration (sampling frequency, tolerance, ACF, ...).
    pub config: FtioConfig,
    /// Optional analysis window `[t0, t1)`.
    pub window: Option<(f64, f64)>,
    /// Whether to analyse the built-in demo workload.
    pub demo: bool,
}

/// A successfully loaded input: a request-level trace or a Darshan-style
/// heatmap.
pub use ftio_trace::source::DrainedInput as LoadedInput;

/// The `--format` values accepted by the tools.
pub const FORMAT_HELP: &str =
    "auto|jsonl|msgpack|tmio-json|tmio-msgpack|darshan-parser|heatmap|recorder";

/// Parses a `--format` value; `auto` maps to `None` (content sniffing).
pub fn parse_format(value: &str) -> Result<Option<SourceFormat>, String> {
    if value.eq_ignore_ascii_case("auto") {
        return Ok(None);
    }
    SourceFormat::parse(value)
        .map(Some)
        .ok_or(format!("unknown format `{value}` (expected {FORMAT_HELP})"))
}

/// Prints the usage text of `tool` and exits.
pub fn print_usage_and_exit(tool: &str) -> ! {
    println!(
        "usage: {tool} [detect] <trace-file> [options]\n\
         \n\
         options:\n\
         \x20 --format {FORMAT_HELP}\n\
         \x20          input format (default: auto — sniff content, then extension)\n\
         \x20 --freq <hz>                               sampling frequency (default 10)\n\
         \x20 --tolerance <0..1>                        candidate tolerance (default 0.8)\n\
         \x20 --no-autocorrelation                      skip the ACF refinement\n\
         \x20 --window <t0> <t1>                        restrict the analysis window (seconds)\n\
         \x20 --demo                                    analyse a generated demo trace instead of a file"
    );
    if tool == "ftio" {
        println!(
            "\nsubcommands:\n\
             \x20 detect     offline detection on a trace file (same as the bare form)\n\
             \x20 replay     replay a trace file through the sharded cluster engine\n\
             \x20            (see `ftio replay --help`)\n\
             \x20 cluster    drive a synthetic multi-application fleet through the\n\
             \x20            sharded online engine (see `ftio cluster --help`)\n\
             \x20 eval       run the adversarial scenario harness and score the\n\
             \x20            predictor against ground truth (see `ftio eval --help`)\n\
             \x20 serve      run the socket-facing prediction daemon\n\
             \x20            (see `ftio serve --help`)\n\
             \x20 client     stream a trace into a running daemon and print its\n\
             \x20            predictions (see `ftio client --help`)\n\
             \x20 watch      tail a growing trace file and predict live\n\
             \x20            (see `ftio watch --help`)"
        );
    }
    std::process::exit(0);
}

/// Parses the options shared by the detection tools.
pub fn parse_common_options(args: &[String]) -> Result<CliOptions, String> {
    let mut options = CliOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--demo" => options.demo = true,
            "--no-autocorrelation" => options.config.use_autocorrelation = false,
            "--format" => {
                let value = next_value(args, &mut i, "--format")?;
                options.format = parse_format(&value)?;
            }
            "--freq" => {
                let value = next_value(args, &mut i, "--freq")?;
                options.config.sampling_freq = value
                    .parse()
                    .map_err(|_| format!("invalid sampling frequency `{value}`"))?;
            }
            "--tolerance" => {
                let value = next_value(args, &mut i, "--tolerance")?;
                options.config.tolerance = value
                    .parse()
                    .map_err(|_| format!("invalid tolerance `{value}`"))?;
            }
            "--window" => {
                let t0: f64 = next_value(args, &mut i, "--window")?
                    .parse()
                    .map_err(|_| "invalid window start".to_string())?;
                let t1: f64 = next_value(args, &mut i, "--window")?
                    .parse()
                    .map_err(|_| "invalid window end".to_string())?;
                if t1 <= t0 {
                    return Err("window end must be after window start".into());
                }
                options.window = Some((t0, t1));
            }
            other if other.starts_with("--") => return Err(format!("unknown option `{other}`")),
            path => {
                if options.input.is_some() {
                    return Err(format!("unexpected extra argument `{path}`"));
                }
                options.input = Some(path.to_string());
            }
        }
        i += 1;
    }
    if !options.demo && options.input.is_none() {
        return Err("no input file given (or use --demo)".into());
    }
    options.config.validate()?;
    Ok(options)
}

pub use pool::{default_threads, parse_threads_flag};

/// Sizing of the engine's worker pool: the `FTIO_THREADS` environment
/// variable and the `--threads` flag of the engine-backed subcommands. The
/// engine's worker threads are the program's only parallelism; every FFT runs
/// on the worker that needs it.
mod pool {
    /// Environment variable naming the default engine worker count.
    const THREADS_ENV: &str = "FTIO_THREADS";

    /// Upper bound on a worker count — a typo like `FTIO_THREADS=1000000`
    /// must not try to spawn a million threads.
    const MAX_THREADS: usize = 256;

    /// Parses a worker-count override: `Some(n)` for a positive count
    /// (clamped to `MAX_THREADS`), `None` for "auto" (absent, empty, `0`, the
    /// word `auto`) and for garbage.
    fn parse_threads(value: Option<&str>) -> Option<usize> {
        let value = value?.trim();
        if value.is_empty() || value.eq_ignore_ascii_case("auto") {
            return None;
        }
        match value.parse::<usize>() {
            Ok(0) | Err(_) => None,
            Ok(n) => Some(n.min(MAX_THREADS)),
        }
    }

    /// The default engine thread budget of the engine-backed subcommands
    /// (`replay`, `serve`, `cluster`, `eval --engine`): the `FTIO_THREADS`
    /// environment variable when set to a positive count, otherwise `0` —
    /// the legacy one-worker-per-shard cluster layout. A malformed value
    /// degrades to that default instead of taking the process down. An
    /// explicit `--threads` flag overrides the environment; both are clamped
    /// to the shard count by the engine itself.
    pub fn default_threads() -> usize {
        parse_threads(std::env::var(THREADS_ENV).ok().as_deref()).unwrap_or(0)
    }

    /// Parses a `--threads` option value: an explicit positive worker count
    /// wins, `auto` and `0` fall back to [`default_threads`] (the
    /// `FTIO_THREADS` environment). Garbage is an error — unlike the
    /// environment variable, which degrades to the automatic budget, a typed
    /// flag deserves a diagnosis.
    pub fn parse_threads_flag(value: &str) -> Result<usize, String> {
        let trimmed = value.trim();
        if trimmed.eq_ignore_ascii_case("auto") || trimmed == "0" {
            return Ok(default_threads());
        }
        parse_threads(Some(trimmed)).ok_or(format!("invalid value `{value}` for --threads"))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn parse_threads_accepts_counts_and_degrades_gracefully() {
            assert_eq!(parse_threads(None), None);
            assert_eq!(parse_threads(Some("")), None);
            assert_eq!(parse_threads(Some("auto")), None);
            assert_eq!(parse_threads(Some("0")), None);
            assert_eq!(parse_threads(Some("4")), Some(4));
            assert_eq!(parse_threads(Some(" 8 ")), Some(8));
            assert_eq!(parse_threads(Some("not-a-number")), None);
            assert_eq!(parse_threads(Some("-3")), None);
            // Absurd counts clamp instead of spawning a million threads.
            assert_eq!(parse_threads(Some("1000000")), Some(MAX_THREADS));
        }

        #[test]
        fn threads_flag_passes_counts_clamps_and_defers_auto() {
            assert_eq!(parse_threads_flag("1"), Ok(1));
            assert_eq!(parse_threads_flag(" 4 "), Ok(4));
            assert_eq!(parse_threads_flag("1000000"), Ok(256));
            assert_eq!(parse_threads_flag("auto"), Ok(default_threads()));
            assert_eq!(parse_threads_flag("0"), Ok(default_threads()));
            assert!(parse_threads_flag("not-a-number").is_err());
            assert!(parse_threads_flag("-3").is_err());
        }
    }
}

pub(crate) fn next_value(args: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    *i += 1;
    args.get(*i)
        .cloned()
        .ok_or(format!("missing value for {flag}"))
}

/// [`next_value`], parsed as the flag's type.
pub(crate) fn parse_flag<T: FromStr>(
    args: &[String],
    i: &mut usize,
    flag: &str,
) -> Result<T, String> {
    let value = next_value(args, i, flag)?;
    value
        .parse()
        .map_err(|_| format!("invalid value `{value}` for {flag}"))
}

/// One application's line in the `ftio serve` and `ftio replay` reports.
/// Under `--resume-ring 0` no prediction is retained, and the line says so.
pub(crate) fn app_summary(name: &str, published: u64, last: Option<&OnlinePrediction>) -> String {
    let found = match last.map(|p| (p.period(), p.confidence() * 100.0)) {
        Some((Some(period), pct)) => format!("period {period:.2} s (confidence {pct:.1} %)"),
        Some((None, _)) => "no dominant frequency".into(),
        None => "none retained".into(),
    };
    format!("{name}: {published} predictions, {found}\n")
}

/// Loads the input described by the options (or builds the demo workload) —
/// opens a streaming [`ftio_trace::source::TraceSource`] for the file and
/// drains it, so every supported format goes through one ingestion pipeline.
pub fn load_trace(options: &CliOptions) -> Result<LoadedInput, String> {
    if options.demo {
        return Ok(LoadedInput::Trace(demo_trace()));
    }
    let path = options
        .input
        .as_ref()
        .expect("validated by parse_common_options");
    if !Path::new(path).exists() {
        return Err(format!("cannot read `{path}`: no such file"));
    }
    let (_, mut source) = open_path(Path::new(path), options.format, DEFAULT_BATCH_SIZE)
        .map_err(|e| e.to_string())?;
    drain_single(source.as_mut(), path).map_err(|e| e.to_string())
}

/// The demo workload: a HACC-IO-shaped run with ten periodic I/O phases.
pub fn demo_trace() -> AppTrace {
    generate_hacc(&HaccConfig::default(), 0xDE30).trace
}

/// The flush points of the demo workload (used by the `predictor` tool).
pub fn demo_flush_points() -> Vec<f64> {
    generate_hacc(&HaccConfig::default(), 0xDE30).flush_points
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftio_trace::{jsonl, msgpack, Heatmap};

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn format_parsing_accepts_auto_and_names() {
        assert_eq!(parse_format("auto").unwrap(), None);
        assert_eq!(parse_format("AUTO").unwrap(), None);
        assert_eq!(parse_format("jsonl").unwrap(), Some(SourceFormat::Jsonl));
        assert_eq!(
            parse_format("tmio-json").unwrap(),
            Some(SourceFormat::TmioJson)
        );
        assert_eq!(
            parse_format("darshan-parser").unwrap(),
            Some(SourceFormat::DarshanParser)
        );
        assert!(parse_format("nope").is_err());
    }

    #[test]
    fn options_are_parsed() {
        let options = parse_common_options(&strings(&[
            "trace.jsonl",
            "--freq",
            "2.5",
            "--tolerance",
            "0.6",
            "--no-autocorrelation",
            "--format",
            "auto",
            "--window",
            "10",
            "200",
        ]))
        .unwrap();
        assert_eq!(options.input.as_deref(), Some("trace.jsonl"));
        assert_eq!(options.config.sampling_freq, 2.5);
        assert_eq!(options.config.tolerance, 0.6);
        assert!(!options.config.use_autocorrelation);
        assert_eq!(options.format, None);
        assert_eq!(options.window, Some((10.0, 200.0)));
    }

    #[test]
    fn demo_needs_no_input_file() {
        let options = parse_common_options(&strings(&["--demo"])).unwrap();
        assert!(options.demo);
        assert!(options.input.is_none());
        let loaded = load_trace(&options).unwrap();
        match loaded {
            LoadedInput::Trace(trace) => assert!(!trace.is_empty()),
            LoadedInput::Heatmap(_) => panic!("demo should be a request trace"),
        }
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_common_options(&strings(&[])).is_err());
        assert!(parse_common_options(&strings(&["--freq", "abc", "t.jsonl"])).is_err());
        assert!(parse_common_options(&strings(&["--format", "weird", "t.jsonl"])).is_err());
        assert!(parse_common_options(&strings(&["--window", "5", "1", "t.jsonl"])).is_err());
        assert!(parse_common_options(&strings(&["--unknown", "t.jsonl"])).is_err());
        // `--threads` sets engine workers; the detection tools have none.
        assert!(parse_common_options(&strings(&["t.jsonl", "--threads", "2"])).is_err());
        assert!(parse_common_options(&strings(&["a.jsonl", "b.jsonl"])).is_err());
        // Invalid configuration values are caught by validation.
        assert!(parse_common_options(&strings(&["--tolerance", "3.0", "t.jsonl"])).is_err());
    }

    #[test]
    fn loading_round_trips_through_the_codecs() {
        let demo = demo_trace();
        let dir = std::env::temp_dir();

        let jsonl_path = dir.join("ftio_cli_test.jsonl");
        std::fs::write(&jsonl_path, jsonl::encode_requests(demo.requests())).unwrap();
        let options = parse_common_options(&strings(&[jsonl_path.to_str().unwrap()])).unwrap();
        match load_trace(&options).unwrap() {
            LoadedInput::Trace(trace) => assert_eq!(trace.len(), demo.len()),
            _ => panic!("expected a trace"),
        }

        let mp_path = dir.join("ftio_cli_test.msgpack");
        std::fs::write(&mp_path, msgpack::encode_requests(demo.requests())).unwrap();
        let options = parse_common_options(&strings(&[mp_path.to_str().unwrap()])).unwrap();
        match load_trace(&options).unwrap() {
            LoadedInput::Trace(trace) => assert_eq!(trace.len(), demo.len()),
            _ => panic!("expected a trace"),
        }

        let heatmap = Heatmap::new(0.0, 60.0, vec![1.0e9, 0.0, 2.0e9]);
        let hm_path = dir.join("ftio_cli_test.heatmap");
        std::fs::write(&hm_path, heatmap.to_text()).unwrap();
        let options = parse_common_options(&strings(&[hm_path.to_str().unwrap()])).unwrap();
        match load_trace(&options).unwrap() {
            LoadedInput::Heatmap(h) => assert_eq!(h, heatmap),
            _ => panic!("expected a heatmap"),
        }

        let _ = std::fs::remove_file(jsonl_path);
        let _ = std::fs::remove_file(mp_path);
        let _ = std::fs::remove_file(hm_path);
    }

    #[test]
    fn auto_detection_beats_a_lying_extension() {
        // MessagePack bytes behind a `.jsonl` extension: content sniffing wins.
        let demo = demo_trace();
        let path = std::env::temp_dir().join("ftio_cli_lying_extension.jsonl");
        std::fs::write(&path, msgpack::encode_requests(demo.requests())).unwrap();
        let options = parse_common_options(&strings(&[path.to_str().unwrap()])).unwrap();
        match load_trace(&options).unwrap() {
            LoadedInput::Trace(trace) => assert_eq!(trace.len(), demo.len()),
            _ => panic!("expected a trace"),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_file_is_a_readable_error() {
        let options = parse_common_options(&strings(&["/does/not/exist.jsonl"])).unwrap();
        let err = load_trace(&options).unwrap_err();
        assert!(err.contains("cannot read"));
    }

    /// The per-app report line counts publishes, and claims nothing about
    /// the period when the last prediction was not retained.
    #[test]
    fn app_summary_counts_publishes_and_admits_an_empty_ring() {
        use ftio_core::{OnlinePredictor, WindowStrategy};
        use ftio_trace::IoRequest;

        let config = FtioConfig {
            sampling_freq: 2.0,
            use_autocorrelation: false,
            ..Default::default()
        };
        let mut predictor = OnlinePredictor::new(config, WindowStrategy::FullHistory);
        let quiet = predictor.predict(1.0);
        predictor.ingest((0..8).map(|i| {
            let start = i as f64 * 10.0;
            IoRequest::write(0, start, start + 2.0, 1_000_000_000)
        }));
        let periodic = predictor.predict(72.0);
        let line = app_summary("app", 70, Some(&periodic));
        assert!(
            line.starts_with("app: 70 predictions, period 10."),
            "{line}"
        );
        assert!(line.ends_with(" %)\n"), "{line}");
        assert_eq!(
            app_summary("app", 3, Some(&quiet)),
            "app: 3 predictions, no dominant frequency\n"
        );
        assert_eq!(
            app_summary("app", 3, None),
            "app: 3 predictions, none retained\n"
        );
    }

    #[test]
    fn demo_flush_points_are_increasing() {
        let points = demo_flush_points();
        assert_eq!(points.len(), 10);
        for pair in points.windows(2) {
            assert!(pair[1] > pair[0]);
        }
    }
}

//! `ftio` — offline detection of periodic I/O from a trace file.
//!
//! Usage:
//!
//! ```text
//! ftio [detect] <trace-file> [options]
//! ftio --demo [options]
//! ftio replay <trace-file> [replay options]
//! ftio cluster [cluster options]
//! ftio eval <scenario>|--all [eval options]
//! ftio serve --unix <path>|--tcp <host:port> [serve options]
//! ftio client --unix <path>|--tcp <host:port> [client options]
//! ftio watch <trace-file> [watch options]
//!
//! options:
//!   --format auto|jsonl|msgpack|tmio-json|tmio-msgpack|darshan-parser|heatmap|recorder
//!            input format (default: auto — sniff content, then extension)
//!   --freq <hz>                               sampling frequency (default 10)
//!   --tolerance <0..1>                        candidate tolerance (default 0.8)
//!   --no-autocorrelation                      skip the ACF refinement
//!   --window <t0> <t1>                        restrict the analysis window (seconds)
//!   --demo                                    analyse a generated demo trace instead of a file
//! ```
//!
//! The tool mirrors the reference implementation's offline mode: every
//! supported trace format (this crate's JSON Lines / MessagePack, TMIO-native
//! JSON/MessagePack profiles, `darshan-parser` text output including DXT,
//! Recorder text, Darshan-style heatmaps) is ingested through one streaming
//! `TraceSource` pipeline with content sniffing, and the FTIO detection
//! report is printed. The `replay` subcommand streams a trace file through
//! the sharded cluster engine instead; `cluster` drives a synthetic
//! multi-application fleet through it (`--help` on either lists options).

use std::process::ExitCode;

use ftio_cli::cluster::{parse_cluster_options, run_cluster, CLUSTER_USAGE};
use ftio_cli::eval::{parse_eval_options, run_eval, EVAL_USAGE};
use ftio_cli::replay::{parse_replay_options, run_replay, REPLAY_USAGE};
use ftio_cli::serve::{
    parse_client_options, parse_serve_options, run_client, run_serve, CLIENT_USAGE, SERVE_USAGE,
};
use ftio_cli::watch::{parse_watch_options, run_watch, WATCH_USAGE};
use ftio_cli::{load_trace, parse_common_options, print_usage_and_exit};
use ftio_core::{detect_heatmap, detect_signal, report, sample_trace, sample_trace_window};

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("cluster") => return run_cluster_command(&args[1..]),
        Some("replay") => return run_replay_command(&args[1..]),
        Some("eval") => return run_eval_command(&args[1..]),
        Some("serve") => return run_serve_command(&args[1..]),
        Some("client") => return run_client_command(&args[1..]),
        Some("watch") => return run_watch_command(&args[1..]),
        // `ftio detect <file>` is the explicit spelling of the bare form.
        Some("detect") => {
            args.remove(0);
        }
        _ => {}
    }
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        print_usage_and_exit("ftio");
    }
    let options = match parse_common_options(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    let input = match load_trace(&options) {
        Ok(input) => input,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };

    let result = match &input {
        ftio_cli::LoadedInput::Heatmap(heatmap) => detect_heatmap(heatmap, &options.config),
        ftio_cli::LoadedInput::Trace(trace) => {
            println!(
                "trace: {} requests, {} ranks, {:.1} s, {:.2} GB",
                trace.len(),
                trace.active_ranks().len(),
                trace.duration(),
                trace.total_volume() as f64 / 1e9
            );
            let signal = match options.window {
                Some((t0, t1)) => sample_trace_window(trace, t0, t1, options.config.sampling_freq),
                None => sample_trace(trace, options.config.sampling_freq),
            };
            detect_signal(&signal, &options.config)
        }
    };

    println!("{}", report::render(&result));
    match result.period() {
        Some(period) => {
            println!(
                "==> period: {period:.2} s  (confidence {:.1} %, refined {:.1} %)",
                result.confidence() * 100.0,
                result.refined_confidence() * 100.0
            );
            ExitCode::SUCCESS
        }
        None => {
            println!("==> no dominant frequency found (signal not periodic)");
            ExitCode::SUCCESS
        }
    }
}

/// `ftio replay ...`: stream a trace file through the sharded cluster engine
/// and print the replay/detection report.
fn run_replay_command(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{REPLAY_USAGE}");
        return ExitCode::SUCCESS;
    }
    let options = match parse_replay_options(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    match run_replay(&options) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `ftio eval ...`: run the adversarial scenario harness and print the
/// tracking-latency / frequency-error report against ground truth.
fn run_eval_command(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{EVAL_USAGE}");
        return ExitCode::SUCCESS;
    }
    let options = match parse_eval_options(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    match run_eval(&options) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `ftio serve ...`: run the socket-facing prediction daemon until a client
/// sends a Shutdown frame, then print the drained report.
fn run_serve_command(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{SERVE_USAGE}");
        return ExitCode::SUCCESS;
    }
    let options = match parse_serve_options(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    match run_serve(&options) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `ftio client ...`: stream a trace file into a running daemon over the
/// framed wire protocol and print what it answers.
fn run_client_command(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{CLIENT_USAGE}");
        return ExitCode::SUCCESS;
    }
    let options = match parse_client_options(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    match run_client(&options) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `ftio watch ...`: tail a growing trace file and print live predictions.
fn run_watch_command(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{WATCH_USAGE}");
        return ExitCode::SUCCESS;
    }
    let options = match parse_watch_options(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    match run_watch(&options) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

/// `ftio cluster ...`: run the multi-application fleet through the sharded
/// cluster engine and print the accuracy/throughput report.
fn run_cluster_command(args: &[String]) -> ExitCode {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{CLUSTER_USAGE}");
        return ExitCode::SUCCESS;
    }
    let options = match parse_cluster_options(args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("error: {message}");
            return ExitCode::FAILURE;
        }
    };
    match run_cluster(&options) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

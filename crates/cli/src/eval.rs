//! The `ftio eval` subcommand: run the adversarial scenario harness and
//! report tracking latency, frequency error and confidence per scenario.
//!
//! Scenarios are generated on the fly (`ftio_synth::drift`) with known
//! ground truth; each application's flush schedule is driven through the
//! online predictor — or through the sharded [`ClusterEngine`] with
//! `--engine` — and the resulting prediction ticks are scored by
//! [`ftio_core::eval`]. The output pairs the human-readable metric block of
//! every scenario with the machine-readable truth JSON, so runs can be
//! diffed and plotted.

use ftio_core::eval::{render_report, score_predictions, EvalConfig, EvalReport};
use ftio_core::{
    AppPredictions, BackpressurePolicy, ClusterConfig, ClusterEngine, FtioConfig, OnlinePrediction,
    OnlinePredictor, WindowStrategy,
};
use ftio_synth::drift::{all_scenarios, scenario_by_name, Scenario, ScenarioFamily};
use ftio_trace::AppId;

use crate::next_value;

/// Options of the `ftio eval` subcommand.
#[derive(Clone, Debug)]
pub struct EvalCliOptions {
    /// Scenario name to run (`None` with `all = true` runs every family).
    pub scenario: Option<String>,
    /// Run every scenario family.
    pub all: bool,
    /// Only list the available scenario families.
    pub list: bool,
    /// Generator seed.
    pub seed: u64,
    /// Sampling frequency of the analysis.
    pub freq: f64,
    /// Relative period tolerance for the lock criterion.
    pub rel_tolerance: f64,
    /// Drive the flushes through the sharded cluster engine instead of the
    /// synchronous predictor.
    pub engine: bool,
    /// Engine worker threads with `--engine` (0 = one worker per shard).
    pub threads: usize,
}

impl Default for EvalCliOptions {
    fn default() -> Self {
        EvalCliOptions {
            scenario: None,
            all: false,
            list: false,
            seed: 42,
            freq: 2.0,
            rel_tolerance: EvalConfig::default().rel_tolerance,
            engine: false,
            threads: crate::default_threads(),
        }
    }
}

/// Usage text of the subcommand.
pub const EVAL_USAGE: &str = "usage: ftio eval <scenario>|--all [options]\n\
     \n\
     Run the adversarial scenario harness: generate a workload with known\n\
     ground truth, drive it through the online predictor, and report\n\
     tracking latency, frequency error and confidence against the truth.\n\
     \n\
     scenarios: steady, phase-change, drift, bursty-interference,\n\
     \x20          heavy-tailed, multi-tenant\n\
     \n\
     options:\n\
     \x20 --all                run every scenario family\n\
     \x20 --list               list the scenario families and exit\n\
     \x20 --seed <n>           generator seed (default 42)\n\
     \x20 --freq <hz>          sampling frequency of the analysis (default 2)\n\
     \x20 --rel-tolerance <x>  relative period tolerance for the lock\n\
     \x20                      criterion (default 0.15)\n\
     \x20 --engine             drive flushes through the sharded cluster\n\
     \x20                      engine instead of the synchronous predictor\n\
     \x20 --threads <n>|auto   engine worker threads with --engine (default:\n\
     \x20                      FTIO_THREADS, else one worker per shard)";

/// Parses the arguments following `ftio eval`.
pub fn parse_eval_options(args: &[String]) -> Result<EvalCliOptions, String> {
    let mut options = EvalCliOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--all" => options.all = true,
            "--list" => options.list = true,
            "--engine" => options.engine = true,
            "--threads" => {
                let value = next_value(args, &mut i, "--threads")?;
                options.threads = crate::parse_threads_flag(&value)?;
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
            "--rel-tolerance" => {
                let value = next_value(args, &mut i, "--rel-tolerance")?;
                options.rel_tolerance = value
                    .parse()
                    .map_err(|_| format!("invalid tolerance `{value}`"))?;
                if !(options.rel_tolerance.is_finite() && options.rel_tolerance > 0.0) {
                    return Err(format!("invalid tolerance `{value}`"));
                }
            }
            other if other.starts_with("--") => {
                return Err(format!(
                    "unknown eval option `{other}` (see `ftio eval --help`)"
                ))
            }
            name => {
                if options.scenario.is_some() {
                    return Err(format!("unexpected extra argument `{name}`"));
                }
                options.scenario = Some(name.to_string());
            }
        }
        i += 1;
    }
    if !options.list && !options.all && options.scenario.is_none() {
        return Err("no scenario given (or use --all / --list)".into());
    }
    Ok(options)
}

/// The analysis configuration the harness evaluates (autocorrelation off:
/// the scored metric is the spectral path the paper centres on).
fn analysis_config(freq: f64) -> FtioConfig {
    FtioConfig {
        sampling_freq: freq,
        use_autocorrelation: false,
        ..Default::default()
    }
}

/// Runs one application's flush schedule through the synchronous online
/// predictor and returns its prediction ticks.
pub fn run_predictor(scenario: &Scenario, app: AppId, freq: f64) -> Vec<OnlinePrediction> {
    let mut predictor = OnlinePredictor::new(
        analysis_config(freq),
        WindowStrategy::Adaptive { multiple: 3 },
    );
    let mut predictions = Vec::new();
    for flush in scenario.flushes.iter().filter(|f| f.app == app) {
        predictor.ingest(flush.requests.iter().copied());
        predictions.push(predictor.predict(flush.now));
    }
    predictions
}

/// Runs the whole scenario through the sharded cluster engine (one
/// submission per flush, no coalescing) and returns each application's
/// prediction ticks. `threads` is the engine worker budget (0 = one worker
/// per shard); the scoring is layout-independent because per-app order is.
pub fn run_engine(
    scenario: &Scenario,
    freq: f64,
    threads: usize,
) -> Vec<(AppId, Vec<OnlinePrediction>)> {
    let engine = ClusterEngine::spawn(ClusterConfig {
        shards: 2,
        queue_capacity: 1024,
        max_batch: 1,
        threads,
        policy: BackpressurePolicy::Block,
        ftio: analysis_config(freq),
        strategy: WindowStrategy::Adaptive { multiple: 3 },
        ..ClusterConfig::default()
    });
    // The engine retains only each app's last `resume_ring` predictions.
    let events = engine.subscribe(None);
    let mut source = scenario.to_source();
    engine
        .replay(&mut source)
        .expect("memory source cannot fail");
    engine.flush();
    let mut runs = AppPredictions::new();
    for event in events.try_iter() {
        runs.entry(event.app).or_default().push(event.prediction);
    }
    scenario
        .apps()
        .into_iter()
        .map(|app| (app, runs.remove(&app).unwrap_or_default()))
        .collect()
}

/// Scores every application of a scenario and returns `(app, report)` pairs
/// in truth order.
pub fn evaluate_scenario(
    scenario: &Scenario,
    options: &EvalCliOptions,
) -> Vec<(AppId, EvalReport)> {
    let eval_config = EvalConfig {
        rel_tolerance: options.rel_tolerance,
        ..Default::default()
    };
    let runs: Vec<(AppId, Vec<OnlinePrediction>)> = if options.engine {
        run_engine(scenario, options.freq, options.threads)
    } else {
        scenario
            .apps()
            .into_iter()
            .map(|app| (app, run_predictor(scenario, app, options.freq)))
            .collect()
    };
    runs.into_iter()
        .map(|(app, predictions)| {
            let truth = scenario.truth(app).expect("scenario truth per app");
            (app, score_predictions(&predictions, truth, &eval_config))
        })
        .collect()
}

/// Runs the subcommand and renders the report.
pub fn run_eval(options: &EvalCliOptions) -> Result<String, String> {
    if options.list {
        let mut out = String::from("available scenarios:\n");
        for family in ScenarioFamily::all() {
            out.push_str(&format!("  {}\n", family.as_str()));
        }
        return Ok(out);
    }

    let scenarios: Vec<Scenario> = if options.all {
        all_scenarios(options.seed)
    } else {
        let name = options.scenario.as_deref().expect("validated by parser");
        vec![scenario_by_name(name, options.seed).ok_or(format!(
            "unknown scenario `{name}` (see `ftio eval --list`)"
        ))?]
    };

    let mut out = String::new();
    for scenario in &scenarios {
        let multi_app = scenario.apps().len() > 1;
        for (app, report) in evaluate_scenario(scenario, options) {
            let label = if multi_app {
                format!("{} [{app}]", scenario.name)
            } else {
                scenario.name.clone()
            };
            out.push_str(&render_report(&label, &report));
            let truth = scenario.truth(app).expect("scenario truth per app");
            out.push_str(&format!("  truth: {}\n\n", truth.to_json()));
        }
    }
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
        let options = parse_eval_options(&strings(&[
            "drift",
            "--seed",
            "7",
            "--freq",
            "1.5",
            "--rel-tolerance",
            "0.2",
            "--engine",
            "--threads",
            "2",
        ]))
        .unwrap();
        assert_eq!(options.scenario.as_deref(), Some("drift"));
        assert_eq!(options.seed, 7);
        assert_eq!(options.freq, 1.5);
        assert_eq!(options.rel_tolerance, 0.2);
        assert!(options.engine);
        assert_eq!(options.threads, 2);
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_eval_options(&[]).is_err());
        assert!(parse_eval_options(&strings(&["a", "b"])).is_err());
        assert!(parse_eval_options(&strings(&["drift", "--seed", "x"])).is_err());
        assert!(parse_eval_options(&strings(&["drift", "--freq", "-2"])).is_err());
        assert!(parse_eval_options(&strings(&["drift", "--bogus"])).is_err());
        assert!(parse_eval_options(&strings(&["drift", "--threads", "many"])).is_err());
        assert!(parse_eval_options(&strings(&["--rel-tolerance", "0.1"])).is_err());
    }

    #[test]
    fn list_needs_no_scenario() {
        let options = parse_eval_options(&strings(&["--list"])).unwrap();
        let out = run_eval(&options).unwrap();
        for family in ScenarioFamily::all() {
            assert!(out.contains(family.as_str()), "{out}");
        }
    }

    #[test]
    fn unknown_scenario_is_a_readable_error() {
        let options = parse_eval_options(&strings(&["warp-drive"])).unwrap();
        let err = run_eval(&options).unwrap_err();
        assert!(err.contains("unknown scenario"), "{err}");
    }

    #[test]
    fn steady_scenario_locks_and_reports_truth() {
        let options = parse_eval_options(&strings(&["steady"])).unwrap();
        let out = run_eval(&options).unwrap();
        assert!(out.contains("scenario: steady"), "{out}");
        assert!(out.contains("lock-on:         tick"), "{out}");
        assert!(out.contains("\"segments\""), "{out}");
    }

    #[test]
    fn engine_path_produces_the_same_tick_count() {
        let sync_options = parse_eval_options(&strings(&["phase-change"])).unwrap();
        let engine_options = parse_eval_options(&strings(&["phase-change", "--engine"])).unwrap();
        let scenario = scenario_by_name("phase-change", 42).unwrap();
        let sync_reports = evaluate_scenario(&scenario, &sync_options);
        let engine_reports = evaluate_scenario(&scenario, &engine_options);
        assert_eq!(sync_reports.len(), engine_reports.len());
        for ((app_a, a), (app_b, b)) in sync_reports.iter().zip(&engine_reports) {
            assert_eq!(app_a, app_b);
            assert_eq!(a.ticks.len(), b.ticks.len());
        }
    }
}

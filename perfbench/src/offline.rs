//! `offline_detect`: the `ftio detect` path — `ftio_cli::load_trace` →
//! `sample_trace` → `detect_signal` with the default configuration — one
//! trace file at a time on one thread, over a corpus of JSONL files holding
//! two seeded semi-synthetic traces per point of the paper's Fig. 8 grids.
//!
//! A run makes whole passes over the corpus until `--seconds` have passed,
//! so every run detects the same mix of grid points.

use std::path::{Path, PathBuf};
use std::time::Instant;

use ftio_cli::{load_trace, parse_common_options, CliOptions, LoadedInput};
use ftio_core::{detect_signal, detect_trace, sample_trace, DetectionResult, SampledSignal};
use ftio_dsp::plan_cache;
use ftio_synth::ior::PhaseLibrary;
use ftio_synth::semi::{generate, SemiSyntheticTrace};
use ftio_synth::sweep;
use ftio_trace::{jsonl, AppTrace};

use crate::report::{mean, median, percentile, Report};
use crate::staged::{plan_delta, staged_detect, FftCensus};
use crate::sys::{self, Rng};
use crate::tracer::Tracer;
use crate::Args;

/// One corpus file and the trace it was written from.
struct Entry {
    path: PathBuf,
    bytes: u64,
    trace: SemiSyntheticTrace,
}

/// Seed of the IOR phase library, the one the Fig. 8 binaries use: every
/// run draws its traces from the same grid.
const LIBRARY_SEED: u64 = 0x8A;
/// Corpus traces per grid point.
const TRACES_PER_POINT: usize = 2;
/// Traces drawn for each corpus trace; the one of median length is kept.
const CANDIDATES: usize = 7;

fn generate_corpus(args: &Args, dir: &Path) -> Vec<Entry> {
    let library = PhaseLibrary::paper_default(LIBRARY_SEED);
    let mut points = sweep::cpu_ratio_sweep(library.mean_duration());
    points.extend(sweep::desync_sweep());
    points.extend(sweep::variability_sweep());
    let mut rng = Rng::new(args.seed, 2);
    let mut corpus: Vec<Entry> = points
        .iter()
        .cycle()
        .take(points.len() * TRACES_PER_POINT)
        .enumerate()
        .map(|(i, point)| {
            // The seed draws several traces of the grid point and keeps the
            // one of median length, so every run detects about the same
            // amount of signal and run-to-run differences do not come from
            // the corpus.
            let mut candidates: Vec<SemiSyntheticTrace> = (0..CANDIDATES)
                .map(|_| generate(&point.config, &library, rng.next_u64()))
                .collect();
            candidates.sort_by(|a, b| a.trace.duration().total_cmp(&b.trace.duration()));
            let trace = candidates.swap_remove(CANDIDATES / 2);
            let path = dir.join(format!("trace-{i}.jsonl"));
            let text = jsonl::encode_requests(trace.trace.requests());
            std::fs::write(&path, &text).expect("write a corpus file");
            Entry {
                path,
                bytes: text.len() as u64,
                trace,
            }
        })
        .collect();
    // The first part holds one trace per grid point, the set the traced
    // pass runs over; each part is shuffled on its own.
    let (first, rest) = corpus.split_at_mut(points.len());
    rng.shuffle(first);
    rng.shuffle(rest);
    corpus
}

/// The CLI's view of one file: `ftio detect <path>`.
fn cli_options(entry: &Entry) -> CliOptions {
    let path = entry.path.display().to_string();
    parse_common_options(&[path]).expect("a bare path is a valid command line")
}

fn loaded_trace(options: &CliOptions) -> AppTrace {
    match load_trace(options).expect("corpus files load") {
        LoadedInput::Trace(trace) => trace,
        LoadedInput::Heatmap(_) => panic!("corpus files are request traces"),
    }
}

/// One detection on the `ftio detect` path: (result, seconds, loaded trace).
fn detect_file(entry: &Entry) -> (DetectionResult, f64, AppTrace) {
    let started = Instant::now();
    let options = cli_options(entry);
    let trace = loaded_trace(&options);
    let signal = sample_trace(&trace, options.config.sampling_freq);
    let result = detect_signal(&signal, &options.config);
    (result, started.elapsed().as_secs_f64(), trace)
}

/// Whether a loaded trace carries exactly the requests detection reads:
/// times, volume and direction. Ranks are not compared — sampling ignores
/// them, and the JSONL decoder does not keep ranks above 2^53 exact.
fn same_signal_input(loaded: &AppTrace, written: &AppTrace) -> bool {
    loaded.len() == written.len()
        && loaded
            .requests()
            .iter()
            .zip(written.requests())
            .all(|(a, b)| {
                a.start == b.start && a.end == b.end && a.bytes == b.bytes && a.kind == b.kind
            })
}

/// Cold start: a fresh thread's first detection (empty plan cache) of the
/// `ftio --demo` signal — the one-time cost every `ftio detect` process pays.
fn cold_start_s(signal: &SampledSignal) -> f64 {
    let config = ftio_core::FtioConfig::default();
    std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let started = Instant::now();
                std::hint::black_box(detect_signal(signal, &config));
                started.elapsed().as_secs_f64()
            })
            .join()
            .expect("the cold-start thread does not panic")
    })
}

/// Runs the workload; with tracing, also the traced pass.
pub fn run(args: &Args, report: &mut Report) {
    let dir =
        Path::new(crate::RUN_DIR).join(format!("offline-{}-{}", args.seed, std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the corpus directory");
    let corpus = generate_corpus(args, &dir);
    measure(args, &corpus, report);
    std::fs::remove_dir_all(&dir).expect("remove the corpus directory");
}

fn measure(args: &Args, corpus: &[Entry], report: &mut Report) {
    let config = cli_options(&corpus[0]).config;
    let warm_up = sample_trace(&ftio_cli::demo_trace(), config.sampling_freq);
    // One cold start after each trace of the first pass, outside the
    // per-trace timing, so the median spans the whole run.
    let mut setup_s = Vec::with_capacity(corpus.len());

    sys::reset_peak_rss();
    let cpu0 = sys::process_cpu_s();
    let plan0 = plan_cache::stats();
    let mut census = FftCensus::default();
    let (mut first_ms, mut all_ms) = (Vec::new(), Vec::new());
    let mut first_results: Vec<Option<DetectionResult>> = vec![None; corpus.len()];
    let started = Instant::now();
    let mut passes = 0;
    while passes == 0 || started.elapsed().as_secs_f64() < args.seconds {
        for (i, entry) in corpus.iter().enumerate() {
            let (result, seconds, trace) = detect_file(entry);
            census.add_detection(result.num_samples, config.use_autocorrelation);
            all_ms.push(seconds * 1e3);
            if passes == 0 {
                first_ms.push(seconds * 1e3);
                if !same_signal_input(&trace, &entry.trace.trace) {
                    report.fail(
                        1,
                        format!("{} does not load back as written", entry.path.display()),
                    );
                }
                first_results[i] = Some(result);
                setup_s.push(cold_start_s(&warm_up));
            }
        }
        passes += 1;
    }
    let plan = plan_delta(plan0, plan_cache::stats());
    let cpu_s = sys::process_cpu_s() - cpu0;
    let rss_mb = sys::peak_rss_mb();
    let traces = all_ms.len();
    report.attempted = traces as u64;

    // The file path must answer as the library does on the in-memory trace.
    let pick = (args.seed % corpus.len() as u64) as usize;
    let reference = detect_trace(&corpus[pick].trace.trace, &config);
    let from_file = first_results[pick].as_ref().expect("every entry ran");
    if reference.period() != from_file.period() || reference.confidence() != from_file.confidence()
    {
        report.fail(
            1,
            format!(
                "file path and detect_trace disagree on {}",
                corpus[pick].path.display()
            ),
        );
    }

    let busy_s = all_ms.iter().sum::<f64>() / 1e3;
    report.set("setup_s", median(&setup_s), "s", setup_s.len());
    report.set("push_p50_ms", percentile(&all_ms, 50.0), "ms", traces);
    report.set("push_p99_ms", percentile(&all_ms, 99.0), "ms", traces);
    report.set(
        "first_push_p50_ms",
        percentile(&first_ms, 50.0),
        "ms",
        first_ms.len(),
    );
    report.set(
        "first_push_p90_ms",
        percentile(&first_ms, 90.0),
        "ms",
        first_ms.len(),
    );
    report.set(
        "cpu_us_per_flush",
        cpu_s / traces as f64 * 1e6,
        "us",
        traces,
    );
    report.set("flushes_per_s", traces as f64 / busy_s, "1/s", traces);
    report.set("traces_per_s", traces as f64 / busy_s, "1/s", traces);
    let errors: Vec<f64> = corpus
        .iter()
        .zip(&first_results)
        .map(
            |(entry, result)| match result.as_ref().and_then(DetectionResult::period) {
                Some(period) => entry.trace.detection_error(period),
                None => 1.0,
            },
        )
        .collect();
    report.set("period_err_mean", mean(&errors), "ratio", errors.len());
    report.set("rss_peak_mb", rss_mb, "MB", 1);
    if !args.trace {
        return;
    }

    // Traced pass over one trace per grid point: a span around each call
    // into a layer, the detection split into its stages, each checked
    // against `detect_signal`.
    let traced = &corpus[..corpus.len() / TRACES_PER_POINT];
    let mut tracer = Tracer::new(true, Instant::now());
    let (mut traced_s, mut staged_s, mut real_s) = (0.0, 0.0, 0.0);
    let (mut samples, mut found, mut mismatches) = (Vec::new(), 0u64, 0u64);
    let mut bytes = 0u64;
    for (i, entry) in traced.iter().enumerate() {
        let key = i as u64;
        let started = Instant::now();
        let root = tracer.begin("trace", None, key);
        let (options, trace) = tracer.leaf("source.decode", root, key, || {
            let options = cli_options(entry);
            let trace = loaded_trace(&options);
            (options, trace)
        });
        let signal = tracer.leaf("sampling.sample_trace", root, key, || {
            sample_trace(&trace, options.config.sampling_freq)
        });
        let plan_before = plan_cache::stats();
        let staged_at = Instant::now();
        let detect = tracer.begin("detect.staged", root, key);
        let staged = staged_detect(&mut tracer, detect, key, &signal, &options.config);
        tracer.end(detect);
        let staged_took = staged_at.elapsed().as_secs_f64();
        tracer.end(root);
        traced_s += started.elapsed().as_secs_f64();
        let (_, built) = plan_delta(plan_before, plan_cache::stats());
        let real_at = Instant::now();
        let real = detect_signal(&signal, &options.config);
        if built == 0 {
            staged_s += staged_took;
            real_s += real_at.elapsed().as_secs_f64();
        }
        if !staged.matches(&real) {
            mismatches += 1;
        }
        found += u64::from(staged.found());
        samples.push(signal.samples.len() as f64);
        bytes += entry.bytes;
    }
    report.count("staged.checked", traced.len() as u64);
    report.count("staged.mismatches", mismatches);
    if mismatches > 0 {
        report.fail(
            mismatches,
            format!("{mismatches} staged detections differ from detect_signal"),
        );
    }
    let plain_s: f64 = first_ms[..traced.len()].iter().sum::<f64>() / 1e3;
    report.set(
        "tracing.overhead_pct",
        (traced_s - plain_s) / plain_s * 100.0,
        "%",
        traced.len(),
    );
    crate::timed_layers(report, &tracer);
    let decode_s: f64 = tracer.layer("source.decode").self_us.iter().sum::<f64>() / 1e6;
    report.set(
        "source.mb_per_s",
        bytes as f64 / 1e6 / decode_s,
        "MB/s",
        traced.len(),
    );
    report.set(
        "sampling.n.p50",
        percentile(&samples, 50.0),
        "count",
        samples.len(),
    );
    report.set(
        "sampling.n.p99",
        percentile(&samples, 99.0),
        "count",
        samples.len(),
    );
    report.set("online.window_n.p50", 0.0, "count", 0);
    report.set("online.window_n.p99", 0.0, "count", 0);
    report.set(
        "dominant.found_ratio",
        found as f64 / traced.len() as f64,
        "ratio",
        traced.len(),
    );
    crate::coverage_metrics(report, &tracer, "detect.staged", real_s, staged_s);
    let (hits, built) = plan;
    report.set(
        "plan_cache.hit_ratio",
        hits as f64 / (hits + built).max(1) as f64,
        "ratio",
        (hits + built) as usize,
    );
    report.count("plan_cache.plans_built", built);
    crate::census_metrics(report, &census);
    crate::absent_cluster_layers(report);
    crate::absent_server_layers(report);
    report.count("gen.threads", 1);
    report.count("gen.connections", 0);
    crate::finish_trace(args, report, &tracer);
}

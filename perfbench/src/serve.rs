//! `serve_stream`: the `ftio serve` daemon in-process on a Unix socket, fed
//! by an open-loop generator of jobs and watched by one subscriber.
//!
//! Two generator threads, two connections at a time: the writer runs one job
//! connection after another (`Hello`, one `Data` frame per flush when it is
//! due, `End`, read the `Ack`, close, as `ftio client` does), and the reader
//! holds one `Subscribe{app: None}` connection for the whole run.

use std::collections::HashMap;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ftio_cli::serve::{server_config, ServeCliOptions};
use ftio_core::server::{Server, ServerListener, ServerReport};
use ftio_synth::{ChunkEncoding, FleetStream, MultiAppConfig, MultiAppWorkload};
use ftio_trace::wire::{Frame, FrameReader};
use ftio_trace::AppId;

use crate::report::{mean, median, percentile, Report};
use crate::staged::{FftCensus, ShadowPass};
use crate::sys::{self, Rng};
use crate::tracer::Tracer;
use crate::Args;

/// Offered load: flushes per second across the whole run.
const OFFERED_RATE: f64 = 160.0;
/// Flushes each job sends over its connection.
const FLUSHES_PER_JOB: usize = 16;
/// Ranks writing each burst.
const RANKS: usize = 32;
/// Daemon start-ups timed per run; `setup_s` is their median.
const SETUP_STARTS: usize = 41;
/// Deadline on every generator read: a daemon that stops answering fails the
/// run instead of hanging it.
const READ_DEADLINE: Duration = Duration::from_secs(30);

/// One job: its frames, pre-encoded, and when each flush is due.
struct Job {
    app: AppId,
    period: f64,
    hello: Vec<u8>,
    data: Vec<Vec<u8>>,
    /// Trace time of each flush (what a covering prediction must reach).
    times: Vec<f64>,
    /// Due time of each flush, from the start of the run.
    due: Vec<Duration>,
}

fn generate(args: &Args) -> Vec<Job> {
    let flushes = (OFFERED_RATE * args.seconds).ceil() as usize;
    let job_count = flushes.div_ceil(FLUSHES_PER_JOB).max(1);
    let workload = MultiAppWorkload::generate(
        &MultiAppConfig {
            apps: job_count,
            flushes_per_app: FLUSHES_PER_JOB,
            ranks_per_app: RANKS,
            ..Default::default()
        },
        args.seed,
    );
    let stream = FleetStream::new(&workload, ChunkEncoding::Jsonl);
    let mut rng = Rng::new(args.seed, 1);
    let mut clock = 0.0f64;
    stream
        .clients()
        .iter()
        .zip(&workload.apps)
        .map(|((_, chunks), app)| {
            let name = format!("job-{}-{}", args.seed, app.app.raw());
            let mut due = Vec::with_capacity(chunks.len());
            for _ in chunks {
                clock += rng.exponential(1.0 / OFFERED_RATE);
                due.push(Duration::from_secs_f64(clock));
            }
            Job {
                app: AppId::from_name(&name),
                period: app.period,
                hello: Frame::Hello { name }.encode(),
                data: chunks
                    .iter()
                    .map(|c| Frame::Data(c.payload.clone()).encode())
                    .collect(),
                times: chunks.iter().map(|c| c.now).collect(),
                due,
            }
        })
        .collect()
}

/// What the writer saw of one job.
#[derive(Default)]
struct JobLog {
    connected: Option<Instant>,
    welcome: Option<Instant>,
    end_sent: Option<Instant>,
    ack: Option<Instant>,
    /// How late each flush went out, seconds.
    late_s: Vec<f64>,
    errors: Vec<String>,
    wire: Wire,
}

/// Frames and bytes that crossed the generator's sockets, both directions.
#[derive(Clone, Copy, Default)]
struct Wire {
    frames: u64,
    bytes: u64,
}

impl Wire {
    fn sent(&mut self, encoded: &[u8]) {
        self.frames += 1;
        self.bytes += encoded.len() as u64;
    }
}

/// A pushed prediction as the subscriber received it.
struct Push {
    app: AppId,
    time: f64,
    period: Option<f64>,
    at: Instant,
}

/// The result of one pass.
struct Pass {
    setup_s: Vec<f64>,
    start: Instant,
    end: Instant,
    logs: Vec<JobLog>,
    pushes: Vec<Push>,
    subscriber_errors: Vec<String>,
    daemon_cpu_s: f64,
    rss_mb: f64,
    drain_s: f64,
    finish_s: f64,
    report: ServerReport,
    wire: Wire,
    tracer: Tracer,
}

fn options(socket: &Path) -> ServeCliOptions {
    ServeCliOptions {
        unix: Some(socket.display().to_string()),
        threads: sys::nproc(),
        ..ServeCliOptions::default()
    }
}

/// How often the writer looks for frames from the daemon while it waits
/// for the next flush to fall due.
const POLL: Duration = Duration::from_millis(1);

/// Sleeps until `due`, handing every frame the daemon sends meanwhile to
/// `on_frame`. Sleeps are short and the socket is read without blocking:
/// socket read deadlines are rounded to the kernel tick, sleeps are not.
fn wait_until(
    reader: &mut FrameReader<UnixStream>,
    stream: &UnixStream,
    due: Instant,
    mut on_frame: impl FnMut(Frame),
) -> Result<(), String> {
    loop {
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        loop {
            let offset = reader.offset();
            match reader.read_frame() {
                Ok(Some(frame)) => on_frame(frame),
                Ok(None) => return Err("the daemon closed the connection".into()),
                Err(e)
                    if reader.offset() == offset
                        && e.io_kind() == Some(std::io::ErrorKind::WouldBlock) =>
                {
                    break
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        stream.set_nonblocking(false).map_err(|e| e.to_string())?;
        let now = Instant::now();
        if now >= due {
            return Ok(());
        }
        std::thread::sleep((due - now).min(POLL));
    }
}

/// The writer: one job connection at a time, each flush sent when due.
fn run_jobs(
    socket: &Path,
    jobs: &[Job],
    start: Instant,
    trace: bool,
    epoch: Instant,
) -> (Vec<JobLog>, f64, Tracer) {
    let cpu0 = sys::thread_cpu_s();
    let mut tracer = Tracer::new(trace, epoch);
    let mut logs = Vec::with_capacity(jobs.len());
    for (j, job) in jobs.iter().enumerate() {
        let mut log = JobLog::default();
        let key = j as u64;
        let span = tracer.begin("gen.job", None, key);
        if let Err(e) = drive_job(socket, job, start, &mut log, &mut tracer, span, key) {
            log.errors.push(e);
        }
        tracer.end(span);
        logs.push(log);
    }
    (logs, sys::thread_cpu_s() - cpu0, tracer)
}

/// One job connection; spans go under `span`, keyed like it.
fn drive_job(
    socket: &Path,
    job: &Job,
    start: Instant,
    log: &mut JobLog,
    tracer: &mut Tracer,
    span: crate::tracer::SpanId,
    key: u64,
) -> Result<(), String> {
    let first_due = start + job.due[0];
    if let Some(wait) = first_due.checked_duration_since(Instant::now()) {
        std::thread::sleep(wait);
    }
    let connect = tracer.begin("gen.connect", span, key);
    log.connected = Some(Instant::now());
    let mut stream = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
    stream
        .write_all(&job.hello)
        .map_err(|e| format!("hello: {e}"))?;
    tracer.end(connect);
    log.wire.sent(&job.hello);
    let mut reader = FrameReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let on_frame = |frame: Frame, log: &mut JobLog| {
        log.wire.frames += 1;
        match frame {
            Frame::Welcome { .. } => log.welcome = Some(Instant::now()),
            Frame::Error { message, .. } => log.errors.push(message),
            other => log.errors.push(format!("unexpected frame {other:?}")),
        }
    };
    for (k, data) in job.data.iter().enumerate() {
        let due = start + job.due[k];
        if k > 0 {
            wait_until(&mut reader, &stream, due, |frame| on_frame(frame, log))?;
        }
        log.late_s
            .push(Instant::now().saturating_duration_since(due).as_secs_f64());
        tracer
            .leaf("gen.data", span, key, || stream.write_all(data))
            .map_err(|e| format!("data: {e}"))?;
        log.wire.sent(data);
    }
    let end = tracer.begin("gen.end_ack", span, key);
    log.end_sent = Some(Instant::now());
    Frame::End
        .write_to(&mut stream)
        .map_err(|e| format!("end: {e}"))?;
    log.wire.sent(&Frame::End.encode());
    stream
        .set_read_timeout(Some(READ_DEADLINE))
        .map_err(|e| e.to_string())?;
    loop {
        match reader.read_frame() {
            Ok(Some(Frame::Ack)) => {
                log.ack = Some(Instant::now());
                log.wire.frames += 1;
                break;
            }
            Ok(Some(frame)) => on_frame(frame, log),
            Ok(None) => return Err("closed before the Ack".into()),
            Err(e) => return Err(format!("waiting for the Ack: {e}")),
        }
    }
    tracer.end(end);
    log.wire.bytes += reader.offset();
    Ok(())
}

/// The subscriber: every `Prediction` until the `Ack` of its final `End`.
fn run_subscriber(
    mut reader: FrameReader<UnixStream>,
    ready: mpsc::Sender<()>,
) -> (Vec<Push>, Vec<String>, f64, Option<Instant>, Wire) {
    let cpu0 = sys::thread_cpu_s();
    let mut pushes = Vec::new();
    let mut errors = Vec::new();
    let mut ready = Some(ready);
    let mut last_ack = None;
    loop {
        match reader.read_frame() {
            Ok(Some(Frame::Prediction(update))) => pushes.push(Push {
                app: update.app,
                time: update.time,
                period: update.period,
                at: Instant::now(),
            }),
            Ok(Some(Frame::Ack)) => {
                // The first Ack answers the set-up End: the subscription is
                // live. The second answers the final End: every prediction
                // is on the wire.
                match ready.take() {
                    Some(tx) => {
                        let _ = tx.send(());
                    }
                    None => {
                        last_ack = Some(Instant::now());
                        break;
                    }
                }
            }
            Ok(Some(other)) => errors.push(format!("subscriber got {other:?}")),
            Ok(None) => {
                errors.push("subscriber connection closed".into());
                break;
            }
            Err(e) => {
                errors.push(format!("subscriber: {e}"));
                break;
            }
        }
    }
    // Received: every frame read; sent: Subscribe and two End frames.
    let mut wire = Wire {
        frames: pushes.len() as u64 + 2,
        bytes: reader.offset(),
    };
    wire.sent(
        &Frame::Subscribe {
            app: None,
            from_seq: None,
        }
        .encode(),
    );
    wire.sent(&Frame::End.encode());
    wire.sent(&Frame::End.encode());
    (pushes, errors, sys::thread_cpu_s() - cpu0, last_ack, wire)
}

fn start_server(socket: &Path, config: &ftio_core::server::ServerConfig) -> (Server, f64) {
    let listener = ServerListener::unix(socket).expect("bind the benchmark socket");
    let started = Instant::now();
    let server = Server::start(listener, config.clone()).expect("start the daemon");
    (server, started.elapsed().as_secs_f64())
}

/// Starts `count` spare daemons and then one more on `socket`, timing each
/// start into `setup_s`; returns the last one and the spares.
fn start_spares(
    socket: &Path,
    config: &ftio_core::server::ServerConfig,
    count: usize,
    setup_s: &mut Vec<f64>,
) -> (Server, Vec<Server>) {
    let spares: Vec<Server> = (0..count)
        .map(|i| {
            let spare = socket.with_extension(format!("spare{i}"));
            let (server, took) = start_server(&spare, config);
            setup_s.push(took);
            server
        })
        .collect();
    let (server, took) = start_server(socket, config);
    setup_s.push(took);
    (server, spares)
}

/// Shuts daemons down together, so their accept loops' polls overlap.
fn finish_all(servers: Vec<Server>) {
    for server in &servers {
        server.shutdown();
    }
    for server in servers {
        server.wait();
    }
}

fn run_pass(args: &Args, jobs: &[Job], socket: &Path, trace: bool) -> Pass {
    let config = server_config(&options(socket)).expect("the default serve options are valid");
    // Start-ups are timed back to back, each daemon on its own socket, so
    // the machine does not idle between them: half before the run (the last
    // of these serves it) and half after it, so the median spans the run.
    let mut setup_s = Vec::with_capacity(SETUP_STARTS);
    let before = SETUP_STARTS / 2;
    let (server, spares) = start_spares(socket, &config, before, &mut setup_s);
    finish_all(spares);
    let epoch = Instant::now();
    let mut subscriber = UnixStream::connect(socket).expect("connect the subscriber");
    subscriber
        .set_read_timeout(Some(
            READ_DEADLINE + Duration::from_secs_f64(args.seconds * 4.0),
        ))
        .expect("set the subscriber deadline");
    Frame::Subscribe {
        app: None,
        from_seq: None,
    }
    .write_to(&mut subscriber)
    .expect("subscribe");
    Frame::End
        .write_to(&mut subscriber)
        .expect("subscribe barrier");
    let reader = FrameReader::new(subscriber.try_clone().expect("clone the subscriber"));
    let (ready_tx, ready_rx) = mpsc::channel();
    let sub_thread = std::thread::spawn(move || run_subscriber(reader, ready_tx));
    ready_rx
        .recv_timeout(READ_DEADLINE)
        .expect("the subscription goes live");

    sys::reset_peak_rss();
    let cpu0 = sys::process_cpu_s();
    let main_cpu0 = sys::thread_cpu_s();
    let start = Instant::now() + Duration::from_millis(5);
    let (logs, writer_cpu, tracer) = std::thread::scope(|scope| {
        scope
            .spawn(|| run_jobs(socket, jobs, start, trace, epoch))
            .join()
            .expect("the writer thread does not panic")
    });
    let drain_at = Instant::now();
    Frame::End.write_to(&mut subscriber).expect("final barrier");
    let (pushes, subscriber_errors, reader_cpu, last_ack, mut wire) = sub_thread
        .join()
        .expect("the subscriber thread does not panic");
    let drain_s = last_ack.map_or(0.0, |at| at.duration_since(drain_at).as_secs_f64());
    for log in &logs {
        wire.frames += log.wire.frames;
        wire.bytes += log.wire.bytes;
    }
    let end = logs.iter().filter_map(|l| l.ack).max().unwrap_or(start);
    let main_cpu = sys::thread_cpu_s() - main_cpu0;
    let daemon_cpu_s = sys::process_cpu_s() - cpu0 - writer_cpu - reader_cpu - main_cpu;
    let rss_mb = sys::peak_rss_mb();
    drop(subscriber);
    let finish_at = Instant::now();
    let report = server.finish();
    let finish_s = finish_at.elapsed().as_secs_f64();
    let after = SETUP_STARTS - before - 2;
    let (last, mut spares) = start_spares(socket, &config, after, &mut setup_s);
    spares.push(last);
    finish_all(spares);
    Pass {
        setup_s,
        start,
        end,
        logs,
        pushes,
        subscriber_errors,
        daemon_cpu_s,
        rss_mb,
        drain_s,
        finish_s,
        report,
        wire,
        tracer,
    }
}

/// Push latencies of one pass: (first flush of each job, every other flush),
/// ms, plus the flushes no prediction covered, and per-flush latency by key.
struct Latencies {
    first_ms: Vec<f64>,
    rest_ms: Vec<f64>,
    by_key: HashMap<u64, f64>,
    uncovered: u64,
}

fn flush_key(job: usize, flush: usize) -> u64 {
    (job * FLUSHES_PER_JOB + flush) as u64
}

fn latencies(jobs: &[Job], pass: &Pass) -> Latencies {
    let mut by_app: HashMap<AppId, Vec<&Push>> = HashMap::new();
    for push in &pass.pushes {
        by_app.entry(push.app).or_default().push(push);
    }
    let mut out = Latencies {
        first_ms: Vec::new(),
        rest_ms: Vec::new(),
        by_key: HashMap::new(),
        uncovered: 0,
    };
    for (j, job) in jobs.iter().enumerate() {
        let pushes = by_app.get(&job.app).map_or(&[][..], |v| v.as_slice());
        let mut cursor = 0;
        for (k, &time) in job.times.iter().enumerate() {
            // Predictions of one app arrive in tick order, with rising times.
            while cursor < pushes.len() && pushes[cursor].time < time {
                cursor += 1;
            }
            let Some(push) = pushes.get(cursor) else {
                out.uncovered += 1;
                continue;
            };
            let due = pass.start + job.due[k];
            let ms = push.at.saturating_duration_since(due).as_secs_f64() * 1e3;
            out.by_key.insert(flush_key(j, k), ms);
            if k == 0 {
                out.first_ms.push(ms);
            } else {
                out.rest_ms.push(ms);
            }
        }
    }
    out
}

fn check(jobs: &[Job], pass: &Pass, lat: &Latencies, report: &mut Report) {
    let flushes: u64 = jobs.iter().map(|j| j.data.len() as u64).sum();
    report.attempted = flushes;
    if lat.uncovered > 0 {
        report.fail(
            lat.uncovered,
            format!("{} flushes got no covering prediction", lat.uncovered),
        );
    }
    for (j, log) in pass.logs.iter().enumerate() {
        if !log.errors.is_empty() {
            report.fail(
                FLUSHES_PER_JOB as u64,
                format!("job {j}: {}", log.errors.join("; ")),
            );
        } else if log.welcome.is_none() || log.ack.is_none() {
            report.fail(
                FLUSHES_PER_JOB as u64,
                format!("job {j}: no Welcome or no Ack"),
            );
        }
    }
    for error in &pass.subscriber_errors {
        report.fail(1, error.clone());
    }
    let stats = pass.report.cluster;
    if stats.ticks + stats.panicked + stats.coalesced + stats.dropped
        != stats.submitted - stats.rejected
    {
        report.fail(1, format!("engine books do not balance: {stats:?}"));
    }
    if stats.submitted != flushes || stats.rejected + stats.dropped + stats.panicked > 0 {
        report.fail(
            flushes.abs_diff(stats.submitted).max(1),
            format!("{flushes} flushes sent, engine says {stats:?}"),
        );
    }
    let server = &pass.report.server;
    let errors = server.protocol_errors
        + server.shed
        + server.rate_limited
        + server.quota_rejections
        + server.rejected_connections
        + server.evicted_idle
        + server.evicted_stalled
        + server.push_dropped
        + server.slow_disconnects;
    if errors > 0 {
        report.fail(errors, format!("daemon counted errors: {server:?}"));
    }
}

fn end_to_end(jobs: &[Job], pass: &Pass, lat: &Latencies, report: &mut Report) {
    let flushes = lat.first_ms.len() + lat.rest_ms.len();
    let elapsed = pass.end.duration_since(pass.start).as_secs_f64();
    report.set("setup_s", median(&pass.setup_s), "s", pass.setup_s.len());
    report.set(
        "push_p50_ms",
        percentile(&lat.rest_ms, 50.0),
        "ms",
        lat.rest_ms.len(),
    );
    report.set(
        "push_p99_ms",
        percentile(&lat.rest_ms, 99.0),
        "ms",
        lat.rest_ms.len(),
    );
    report.set(
        "first_push_p50_ms",
        percentile(&lat.first_ms, 50.0),
        "ms",
        lat.first_ms.len(),
    );
    report.set(
        "first_push_p90_ms",
        percentile(&lat.first_ms, 90.0),
        "ms",
        lat.first_ms.len(),
    );
    report.set(
        "cpu_us_per_flush",
        pass.daemon_cpu_s / flushes.max(1) as f64 * 1e6,
        "us",
        flushes,
    );
    report.set("flushes_per_s", flushes as f64 / elapsed, "1/s", flushes);
    report.set(
        "traces_per_s",
        jobs.len() as f64 / elapsed,
        "1/s",
        jobs.len(),
    );
    let mut last: HashMap<AppId, Option<f64>> = HashMap::new();
    for push in &pass.pushes {
        last.insert(push.app, push.period);
    }
    let errors: Vec<f64> = jobs
        .iter()
        .map(|job| match last.get(&job.app).copied().flatten() {
            Some(period) => (period - job.period).abs() / job.period,
            None => 1.0,
        })
        .collect();
    report.set("period_err_mean", mean(&errors), "ratio", errors.len());
    report.set("rss_peak_mb", pass.rss_mb, "MB", 1);
}

fn socket_path() -> PathBuf {
    Path::new(crate::RUN_DIR).join(format!("serve-{}.sock", std::process::id()))
}

/// Runs the workload; with tracing, also the traced pass and the shadow pass.
pub fn run(args: &Args, report: &mut Report) {
    let jobs = generate(args);
    let socket = socket_path();
    let plain = run_pass(args, &jobs, &socket, false);
    let lat = latencies(&jobs, &plain);
    check(&jobs, &plain, &lat, report);
    end_to_end(&jobs, &plain, &lat, report);
    if !args.trace {
        return;
    }

    let traced = run_pass(args, &jobs, &socket, true);
    let traced_lat = latencies(&jobs, &traced);
    let mut traced_report = Report::default();
    check(&jobs, &traced, &traced_lat, &mut traced_report);
    for why in traced_report.failures {
        report.fail(1, format!("traced pass: {why}"));
    }
    let plain_p50 = percentile(&lat.rest_ms, 50.0);
    let traced_p50 = percentile(&traced_lat.rest_ms, 50.0);
    report.set(
        "tracing.overhead_pct",
        (traced_p50 - plain_p50) / plain_p50 * 100.0,
        "%",
        traced_lat.rest_ms.len(),
    );

    // Shadow: every flush of every job, in job order, on this thread.
    let config = server_config(&options(&socket)).expect("valid serve options");
    let cluster = config.cluster;
    let mut tracer = Tracer::new(true, traced.tracer.epoch());
    let mut shadow = ShadowPass::new(cluster);
    for (j, job) in jobs.iter().enumerate() {
        for (k, frame) in job.data.iter().enumerate() {
            // A Data frame is a 7-byte header and the payload.
            shadow.flush_bytes(&mut tracer, job.app, &frame[7..], flush_key(j, k));
        }
    }
    crate::shadow_metrics(report, &tracer, &shadow);
    let plan_total = shadow.plan_hits + shadow.plans_built;
    report.set(
        "plan_cache.hit_ratio",
        shadow.plan_hits as f64 / plan_total.max(1) as f64,
        "ratio",
        plan_total as usize,
    );
    report.count("plan_cache.plans_built", shadow.plans_built);

    // The transforms the daemon itself ran, from its retained predictions.
    let mut census = FftCensus::default();
    let mut retained = 0u64;
    for history in traced.report.predictions.values() {
        retained += history.len() as u64;
        for prediction in history {
            census.add_detection(
                prediction.result.num_samples,
                cluster.ftio.use_autocorrelation,
            );
        }
    }
    crate::census_metrics(report, &census);

    let stats = traced.report.cluster;
    report.percentiles("cluster.submit_wait_us", &[], "us");
    report.set(
        "cluster.coalesced_ratio",
        stats.coalesced as f64 / stats.submitted.max(1) as f64,
        "ratio",
        stats.submitted as usize,
    );
    report.set("cluster.drain_ms", traced.drain_s * 1e3, "ms", 1);
    report.set("cluster.finish_ms", traced.finish_s * 1e3, "ms", 1);
    report.count("cluster.retained_predictions", retained);
    report.set("cluster.speedup", 0.0, "ratio", 0);
    report.count("cluster.rejected", stats.rejected);
    report.count("cluster.dropped", stats.dropped);
    report.count("cluster.panicked", stats.panicked);

    let accept_ms: Vec<f64> = traced
        .logs
        .iter()
        .filter_map(|l| Some(l.welcome?.duration_since(l.connected?).as_secs_f64() * 1e3))
        .collect();
    let end_ack_ms: Vec<f64> = traced
        .logs
        .iter()
        .filter_map(|l| Some(l.ack?.duration_since(l.end_sent?).as_secs_f64() * 1e3))
        .collect();
    report.percentiles("server.accept_ms", &accept_ms, "ms");
    report.percentiles("server.end_ack_ms", &end_ack_ms, "ms");
    let residual_us: Vec<f64> = traced_lat
        .by_key
        .iter()
        .filter_map(|(key, ms)| Some(ms * 1e3 - shadow.cost_us.get(key)?))
        .collect();
    report.percentiles("server.residual_us", &residual_us, "us");
    let flushes = (traced_lat.first_ms.len() + traced_lat.rest_ms.len()).max(1) as f64;
    let shadow_cost: Vec<f64> = shadow.cost_us.values().copied().collect();
    report.set(
        "server.overhead_us_per_flush",
        traced.daemon_cpu_s / flushes * 1e6 - mean(&shadow_cost),
        "us",
        shadow_cost.len(),
    );
    let server = &traced.report.server;
    report.count("server.apps_seen", traced.report.predictions.len() as u64);
    report.count("server.protocol_errors", server.protocol_errors);
    report.count(
        "server.shed",
        server.shed + server.rate_limited + server.quota_rejections,
    );
    report.count(
        "server.push_dropped",
        server.push_dropped + server.slow_disconnects,
    );
    report.count(
        "server.evicted",
        server.evicted_idle + server.evicted_stalled + server.rejected_connections,
    );
    report.count("wire.frames", traced.wire.frames);
    report.set("wire.bytes", traced.wire.bytes as f64, "bytes", 1);

    let late_ms: Vec<f64> = traced
        .logs
        .iter()
        .flat_map(|l| l.late_s.iter().map(|s| s * 1e3))
        .collect();
    report.set(
        "gen.late_p50_ms",
        percentile(&late_ms, 50.0),
        "ms",
        late_ms.len(),
    );
    report.set(
        "gen.late_p99_ms",
        percentile(&late_ms, 99.0),
        "ms",
        late_ms.len(),
    );
    report.count("gen.threads", 2);
    report.count("gen.connections", 2);

    crate::timed_layers(report, &tracer);
    let mut spans = traced.tracer;
    spans.absorb(tracer);
    crate::finish_trace(args, report, &spans);
}

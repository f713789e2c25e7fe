//! The `ftio serve` and `ftio client` subcommands: the socket-facing
//! prediction daemon and its bundled test client.
//!
//! `ftio serve` binds a Unix-domain socket or TCP address and multiplexes any
//! number of trace streams into one shared
//! [`ClusterEngine`](ftio_core::ClusterEngine) (see
//! [`ftio_core::server`]). It runs until a client sends a `Shutdown` frame,
//! then drains the shard queues and prints the final cluster report. The
//! hostile-traffic hardening knobs — socket deadlines, idle eviction,
//! bounded push queues, overload shedding, per-tenant quotas — are all
//! exposed as flags.
//!
//! `ftio client` is the matching sender: it connects (with capped,
//! seeded-jitter exponential backoff under `--retries`), names its
//! application, optionally subscribes to live predictions — resuming from a
//! sequence number with `--from-seq` — streams a trace file as `Data`
//! frames, waits for the flush `Ack`, and prints every prediction the server
//! pushed. With `--shutdown` it instead (or additionally) asks the daemon to
//! drain and prints the final stats frame — the CI smoke lane is exactly
//! these two commands run against each other. `--inject <plan>` wraps the
//! connection in a seeded [`FaultStream`] so chaos runs can torture the
//! daemon with short reads, interrupts, bit flips, and truncations from the
//! command line.

use std::io::{Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::Duration;

use ftio_core::server::{
    Server, ServerConfig, ServerListener, SlowSubscriberPolicy, TenantPolicy, TenantQuota,
};
use ftio_core::{BackpressurePolicy, ClusterConfig, FtioConfig};
use ftio_trace::source::DEFAULT_BATCH_SIZE;
use ftio_trace::wire::{Frame, FrameReader};
use ftio_trace::{AppId, FaultPlan, FaultStream};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::{next_value, parse_flag};

/// Options of the `ftio serve` subcommand.
#[derive(Clone, Debug)]
pub struct ServeCliOptions {
    /// Unix-domain socket path to listen on.
    pub unix: Option<String>,
    /// TCP address to listen on (`host:port`; port 0 picks one).
    pub tcp: Option<String>,
    /// Maximum concurrently served connections.
    pub max_conns: usize,
    /// Number of predictor shards.
    pub shards: usize,
    /// Bounded queue capacity per shard.
    pub capacity: usize,
    /// Maximum submissions of one application coalesced into a tick.
    pub batch: usize,
    /// Backpressure policy.
    pub policy: BackpressurePolicy,
    /// Engine worker threads (0 = one worker per shard). Connection handler
    /// threads are I/O-bound and do not count against this budget; each
    /// engine worker runs its transforms itself, so the daemon's CPU-bound
    /// parallelism is exactly this knob.
    pub threads: usize,
    /// Sampling frequency of the analysis.
    pub freq: f64,
    /// Requests per decoded source batch.
    pub batch_size: usize,
    /// Socket read timeout in milliseconds (0 = no deadline).
    pub read_timeout_ms: u64,
    /// Socket write timeout in milliseconds (0 = no deadline).
    pub write_timeout_ms: u64,
    /// Idle-connection eviction deadline in milliseconds (0 = never).
    pub idle_timeout_ms: u64,
    /// Bounded per-subscriber prediction push queue capacity.
    pub push_queue: usize,
    /// What to do when a subscriber's push queue overflows.
    pub slow_policy: SlowSubscriberPolicy,
    /// Suggested client backoff (ms) on shed submissions.
    pub retry_after_ms: u64,
    /// Retained predictions per application for `Subscribe{from_seq}`.
    pub resume_ring: usize,
    /// Per-tenant budgets.
    pub tenants: TenantPolicy,
}

impl Default for ServeCliOptions {
    fn default() -> Self {
        ServeCliOptions {
            unix: None,
            tcp: None,
            max_conns: 64,
            shards: 4,
            capacity: 256,
            batch: 8,
            policy: BackpressurePolicy::Block,
            threads: crate::default_threads(),
            freq: 2.0,
            batch_size: DEFAULT_BATCH_SIZE,
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            idle_timeout_ms: 60_000,
            push_queue: 1024,
            slow_policy: SlowSubscriberPolicy::default(),
            retry_after_ms: 100,
            resume_ring: ftio_core::DEFAULT_RESUME_RING,
            tenants: TenantPolicy::default(),
        }
    }
}

/// Usage text of `ftio serve`.
pub const SERVE_USAGE: &str = "usage: ftio serve --unix <path> | --tcp <host:port> [options]\n\
     \n\
     Run the prediction daemon: accept framed or raw trace streams on a\n\
     socket, route them through the sharded cluster engine, push live\n\
     predictions to subscribed clients, and drain cleanly when a client\n\
     sends a Shutdown frame (`ftio client --shutdown`).\n\
     \n\
     Raw mode needs no client at all:  nc -U <path> < trace.jsonl\n\
     (gzipped traces are decompressed transparently).\n\
     \n\
     options:\n\
     \x20 --unix <path>               listen on a Unix-domain socket\n\
     \x20 --tcp <host:port>           listen on a TCP address (port 0 = pick one)\n\
     \x20 --max-conns <n>             concurrent connection limit (default 64)\n\
     \x20 --shards <n>                predictor shards (default 4)\n\
     \x20 --capacity <n>              per-shard queue capacity (default 256)\n\
     \x20 --batch <n>                 max coalesced submissions per tick (default 8)\n\
     \x20 --policy block|drop-oldest|reject   backpressure policy (default block)\n\
     \x20 --threads <n>|auto          engine worker threads, clamped to the shard\n\
     \x20                             count (default: FTIO_THREADS, else one\n\
     \x20                             worker per shard); this is the daemon's\n\
     \x20                             whole CPU budget\n\
     \x20 --freq <hz>                 sampling frequency (default 2)\n\
     \x20 --batch-size <n>            requests per decoded batch (default 1024)\n\
     \x20 --read-timeout <ms>         socket read deadline; a client stalled\n\
     \x20                             mid-frame past it is evicted (default 5000,\n\
     \x20                             0 = none)\n\
     \x20 --write-timeout <ms>        socket write deadline (default 5000, 0 = none)\n\
     \x20 --idle-timeout <ms>         evict connections with no progress for this\n\
     \x20                             long (default 60000, 0 = never)\n\
     \x20 --push-queue <n>            bounded per-subscriber prediction queue\n\
     \x20                             (default 1024)\n\
     \x20 --slow-policy drop-oldest|disconnect   what to do on push-queue overflow\n\
     \x20                             (default drop-oldest)\n\
     \x20 --retry-after <ms>          backoff hinted to clients on shed submissions\n\
     \x20                             (default 100)\n\
     \x20 --resume-ring <n>           predictions retained per app, for resumable\n\
     \x20                             subscriptions and the drain report; older\n\
     \x20                             ones are counted, not kept (default 64,\n\
     \x20                             0 = none)\n\
     \x20 --tenant <name:spec>        budget one tenant; spec is a comma list of\n\
     \x20                             conns=<n>, apps=<n>, rate=<bytes/s>,\n\
     \x20                             burst=<bytes> (repeatable)\n\
     \x20 --tenant-default <spec>     budget applied to tenants without --tenant";

/// Parses the `conns=..,apps=..,rate=..,burst=..` tenant budget spelling.
pub fn parse_tenant_quota(spec: &str) -> Result<TenantQuota, String> {
    let mut quota = TenantQuota::default();
    for part in spec.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        let (key, value) = part
            .split_once('=')
            .ok_or(format!("tenant budget `{part}` is not key=value"))?;
        match key {
            "conns" => {
                quota.max_connections = value
                    .parse()
                    .map_err(|_| format!("invalid tenant conns `{value}`"))?;
            }
            "apps" => {
                quota.max_apps = value
                    .parse()
                    .map_err(|_| format!("invalid tenant apps `{value}`"))?;
            }
            "rate" => {
                let rate: f64 = value
                    .parse()
                    .map_err(|_| format!("invalid tenant rate `{value}`"))?;
                if !(rate.is_finite() && rate > 0.0) {
                    return Err(format!("invalid tenant rate `{value}`"));
                }
                quota.bytes_per_sec = rate;
            }
            "burst" => {
                let burst: f64 = value
                    .parse()
                    .map_err(|_| format!("invalid tenant burst `{value}`"))?;
                if !(burst.is_finite() && burst > 0.0) {
                    return Err(format!("invalid tenant burst `{value}`"));
                }
                quota.burst_bytes = burst;
            }
            other => {
                return Err(format!(
                    "unknown tenant budget key `{other}` (expected conns|apps|rate|burst)"
                ))
            }
        }
    }
    Ok(quota)
}

/// Parses the arguments following `ftio serve`.
pub fn parse_serve_options(args: &[String]) -> Result<ServeCliOptions, String> {
    let mut options = ServeCliOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--unix" => options.unix = Some(next_value(args, &mut i, "--unix")?),
            "--tcp" => options.tcp = Some(next_value(args, &mut i, "--tcp")?),
            "--max-conns" => options.max_conns = parse_flag(args, &mut i, "--max-conns")?,
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
            "--read-timeout" => {
                options.read_timeout_ms = parse_flag(args, &mut i, "--read-timeout")?
            }
            "--write-timeout" => {
                options.write_timeout_ms = parse_flag(args, &mut i, "--write-timeout")?
            }
            "--idle-timeout" => {
                options.idle_timeout_ms = parse_flag(args, &mut i, "--idle-timeout")?
            }
            "--push-queue" => options.push_queue = parse_flag(args, &mut i, "--push-queue")?,
            "--slow-policy" => {
                let value = next_value(args, &mut i, "--slow-policy")?;
                options.slow_policy = SlowSubscriberPolicy::parse(&value)?;
            }
            "--retry-after" => options.retry_after_ms = parse_flag(args, &mut i, "--retry-after")?,
            "--resume-ring" => options.resume_ring = parse_flag(args, &mut i, "--resume-ring")?,
            "--tenant" => {
                let value = next_value(args, &mut i, "--tenant")?;
                let (name, spec) = value
                    .split_once(':')
                    .ok_or(format!("--tenant `{value}` is not name:spec"))?;
                if name.is_empty() {
                    return Err(format!("--tenant `{value}` has an empty tenant name"));
                }
                let quota = parse_tenant_quota(spec)?;
                options.tenants.tenants.insert(name.to_string(), quota);
            }
            "--tenant-default" => {
                let value = next_value(args, &mut i, "--tenant-default")?;
                options.tenants.default_quota = Some(parse_tenant_quota(&value)?);
            }
            other => {
                return Err(format!(
                    "unknown serve option `{other}` (see `ftio serve --help`)"
                ))
            }
        }
        i += 1;
    }
    match (&options.unix, &options.tcp) {
        (None, None) => return Err("give --unix <path> or --tcp <host:port>".into()),
        (Some(_), Some(_)) => return Err("--unix and --tcp are mutually exclusive".into()),
        _ => {}
    }
    #[cfg(not(unix))]
    if options.unix.is_some() {
        return Err("--unix is not supported on this platform (use --tcp)".into());
    }
    if options.max_conns == 0 {
        return Err("--max-conns must be at least 1".into());
    }
    if options.shards == 0 || options.capacity == 0 || options.batch == 0 {
        return Err("--shards, --capacity and --batch must be at least 1".into());
    }
    if options.batch_size == 0 {
        return Err("--batch-size must be at least 1".into());
    }
    if options.push_queue == 0 {
        return Err("--push-queue must be at least 1".into());
    }
    Ok(options)
}

fn millis_opt(ms: u64) -> Option<Duration> {
    (ms > 0).then(|| Duration::from_millis(ms))
}

/// Builds the [`ServerConfig`] the options describe.
pub fn server_config(options: &ServeCliOptions) -> Result<ServerConfig, String> {
    let ftio = FtioConfig {
        sampling_freq: options.freq,
        use_autocorrelation: false,
        ..Default::default()
    };
    ftio.validate()?;
    Ok(ServerConfig {
        max_connections: options.max_conns,
        batch_size: options.batch_size,
        read_timeout: millis_opt(options.read_timeout_ms),
        write_timeout: millis_opt(options.write_timeout_ms),
        idle_timeout: millis_opt(options.idle_timeout_ms),
        push_queue: options.push_queue,
        slow_policy: options.slow_policy,
        retry_after: Duration::from_millis(options.retry_after_ms.max(1)),
        tenants: options.tenants.clone(),
        cluster: ClusterConfig {
            shards: options.shards,
            queue_capacity: options.capacity,
            max_batch: options.batch,
            threads: options.threads,
            policy: options.policy,
            ftio,
            resume_ring: options.resume_ring,
            ..ClusterConfig::default()
        },
    })
}

/// Boots the daemon, serves until a client shuts it down, and renders the
/// drained report. Prints a `listening on ...` line (and flushes it) as soon
/// as the socket is bound, so a supervising script knows when to connect.
pub fn run_serve(options: &ServeCliOptions) -> Result<String, String> {
    let config = server_config(options)?;
    let listener = bind_listener(options)?;
    let server = Server::start(listener, config).map_err(|e| format!("cannot serve: {e}"))?;
    println!("ftio serve: listening on {}", server.address());
    let _ = std::io::stdout().flush();
    let report = server.wait();
    let stats = &report.cluster;
    let mut out = String::new();
    out.push_str(&format!(
        "served: {} connections ({} raw), {} rejected at the limit, {} protocol errors\n",
        report.server.accepted,
        report.server.raw_connections,
        report.server.rejected_connections,
        report.server.protocol_errors
    ));
    // The hardening counters only earn a line when something happened, so
    // the happy-path report stays as short as it always was.
    let hardening = [
        ("evicted idle", report.server.evicted_idle),
        ("evicted stalled", report.server.evicted_stalled),
        ("shed", report.server.shed),
        ("rate limited", report.server.rate_limited),
        ("quota rejections", report.server.quota_rejections),
        ("push dropped", report.server.push_dropped),
        ("slow disconnects", report.server.slow_disconnects),
        ("resumed subscriptions", report.server.resumed_subscriptions),
    ];
    let nonzero: Vec<String> = hardening
        .iter()
        .filter(|(_, count)| *count > 0)
        .map(|(label, count)| format!("{label} {count}"))
        .collect();
    if !nonzero.is_empty() {
        out.push_str(&format!("hardening: {}\n", nonzero.join("  ")));
    }
    out.push_str(&format!(
        "engine: submitted {}  ticks {}  coalesced {}  dropped {}  rejected {}  panicked {}\n",
        stats.submitted,
        stats.ticks,
        stats.coalesced,
        stats.dropped,
        stats.rejected,
        stats.panicked
    ));
    let mut apps: Vec<_> = report.published.iter().collect();
    apps.sort_by_key(|(app, _)| **app);
    for (app, &published) in apps {
        // Render the hello name when the client announced one; the bare
        // AppId only appears for streams that never said hello.
        let name = report
            .names
            .get(app)
            .cloned()
            .unwrap_or_else(|| app.to_string());
        let last = report.predictions.get(app).and_then(|h| h.last());
        out.push_str(&crate::app_summary(&name, published, last));
    }
    Ok(out)
}

fn bind_listener(options: &ServeCliOptions) -> Result<ServerListener, String> {
    #[cfg(unix)]
    if let Some(path) = &options.unix {
        return ServerListener::unix(path).map_err(|e| format!("cannot bind `{path}`: {e}"));
    }
    let addr = options
        .tcp
        .as_ref()
        .expect("validated by parse_serve_options");
    ServerListener::tcp(addr).map_err(|e| format!("cannot bind `{addr}`: {e}"))
}

/// Options of the `ftio client` subcommand.
#[derive(Clone, Debug, Default)]
pub struct ClientCliOptions {
    /// Unix-domain socket path of the daemon.
    pub unix: Option<String>,
    /// TCP address of the daemon.
    pub tcp: Option<String>,
    /// Application name sent in the `Hello` frame.
    pub name: String,
    /// Trace file streamed as `Data` frames (optional with `--shutdown`).
    pub file: Option<String>,
    /// Whether to subscribe to live predictions for this application.
    pub subscribe: bool,
    /// Resume the subscription from this sequence number (implies
    /// `--subscribe`).
    pub from_seq: Option<u64>,
    /// Whether to send a `Shutdown` frame after the stream (or immediately
    /// when no file was given) and print the daemon's final stats.
    pub shutdown: bool,
    /// Connect retries after a refused/failed connection (0 = fail fast).
    pub retries: u32,
    /// Ceiling of one backoff sleep, in milliseconds.
    pub retry_max_ms: u64,
    /// Seed of the backoff jitter (deterministic schedules for tests).
    pub retry_seed: u64,
    /// Fault-injection plan wrapped around the connection (chaos testing).
    pub inject: Option<FaultPlan>,
}

/// Usage text of `ftio client`.
pub const CLIENT_USAGE: &str = "usage: ftio client --unix <path> | --tcp <host:port> [options]\n\
     \n\
     Stream a trace file into a running `ftio serve` daemon over the framed\n\
     wire protocol and print the predictions it answers with.\n\
     \n\
     options:\n\
     \x20 --unix <path>               connect to a Unix-domain socket\n\
     \x20 --tcp <host:port>           connect to a TCP address\n\
     \x20 --name <app>                application name in the hello frame (default: the file name)\n\
     \x20 --file <trace>              trace file to stream (jsonl/msgpack/..., gzip ok)\n\
     \x20 --subscribe                 receive live predictions for this application\n\
     \x20 --from-seq <n>              resume the subscription from sequence <n>\n\
     \x20                             (implies --subscribe; missed predictions are\n\
     \x20                             replayed from the daemon's resume ring)\n\
     \x20 --shutdown                  ask the daemon to drain and print its final stats\n\
     \x20 --retries <n>               retry a failed connect up to <n> times with\n\
     \x20                             capped exponential backoff (default 0)\n\
     \x20 --retry-max-ms <ms>         backoff sleep ceiling (default 2000)\n\
     \x20 --retry-seed <n>            seed of the backoff jitter (default 0)\n\
     \x20 --inject <plan>             wrap the connection in a seeded fault\n\
     \x20                             injector; plan is a comma list of seed=<n>,\n\
     \x20                             short=<p>, interrupt=<p>, wouldblock=<p>,\n\
     \x20                             corrupt=<p>, truncate=<bytes>, stall=<n>x<ms>";

/// Parses the arguments following `ftio client`.
pub fn parse_client_options(args: &[String]) -> Result<ClientCliOptions, String> {
    let mut options = ClientCliOptions {
        retry_max_ms: 2_000,
        ..Default::default()
    };
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--unix" => options.unix = Some(next_value(args, &mut i, "--unix")?),
            "--tcp" => options.tcp = Some(next_value(args, &mut i, "--tcp")?),
            "--name" => options.name = next_value(args, &mut i, "--name")?,
            "--file" => options.file = Some(next_value(args, &mut i, "--file")?),
            "--subscribe" => options.subscribe = true,
            "--from-seq" => {
                options.from_seq = Some(parse_flag(args, &mut i, "--from-seq")?);
                options.subscribe = true;
            }
            "--shutdown" => options.shutdown = true,
            "--retries" => options.retries = parse_flag(args, &mut i, "--retries")?,
            "--retry-max-ms" => {
                options.retry_max_ms = parse_flag(args, &mut i, "--retry-max-ms")?;
                if options.retry_max_ms == 0 {
                    return Err("--retry-max-ms must be at least 1".into());
                }
            }
            "--retry-seed" => options.retry_seed = parse_flag(args, &mut i, "--retry-seed")?,
            "--inject" => {
                let value = next_value(args, &mut i, "--inject")?;
                options.inject = Some(FaultPlan::parse(&value)?);
            }
            other => {
                return Err(format!(
                    "unknown client option `{other}` (see `ftio client --help`)"
                ))
            }
        }
        i += 1;
    }
    match (&options.unix, &options.tcp) {
        (None, None) => return Err("give --unix <path> or --tcp <host:port>".into()),
        (Some(_), Some(_)) => return Err("--unix and --tcp are mutually exclusive".into()),
        _ => {}
    }
    if options.file.is_none() && !options.shutdown {
        return Err("give --file <trace> to stream, or --shutdown to stop the daemon".into());
    }
    if options.name.is_empty() {
        if let Some(file) = &options.file {
            options.name = std::path::Path::new(file)
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_else(|| file.clone());
        } else {
            options.name = "ftio-client".into();
        }
    }
    Ok(options)
}

/// The deterministic connect-retry schedule: exponential from 25 ms, capped
/// at `max_ms`, with seeded uniform jitter in `[0.5, 1.0)` of the capped
/// value (full sleeps synchronize reconnect storms; jittered ones spread
/// them).
pub fn backoff_schedule(retries: u32, max_ms: u64, seed: u64) -> Vec<Duration> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut base: u64 = 25;
    (0..retries)
        .map(|_| {
            let capped = base.min(max_ms.max(1));
            base = base.saturating_mul(2);
            let jitter: f64 = rng.gen_range(0.5..1.0);
            Duration::from_millis(((capped as f64) * jitter).max(1.0) as u64)
        })
        .collect()
}

enum ClientStream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl ClientStream {
    fn connect_once(options: &ClientCliOptions) -> Result<ClientStream, String> {
        #[cfg(unix)]
        if let Some(path) = &options.unix {
            return UnixStream::connect(path)
                .map(ClientStream::Unix)
                .map_err(|e| format!("cannot connect to `{path}`: {e}"));
        }
        #[cfg(not(unix))]
        if options.unix.is_some() {
            return Err("--unix is not supported on this platform (use --tcp)".into());
        }
        let addr = options.tcp.as_ref().expect("validated by parse");
        TcpStream::connect(addr)
            .map(ClientStream::Tcp)
            .map_err(|e| format!("cannot connect to `{addr}`: {e}"))
    }

    /// Connects, retrying per [`backoff_schedule`] when the daemon is not
    /// there yet (or refused the connection).
    fn connect(options: &ClientCliOptions) -> Result<ClientStream, String> {
        let mut last_error = String::new();
        for (attempt, sleep) in
            backoff_schedule(options.retries, options.retry_max_ms, options.retry_seed)
                .into_iter()
                .enumerate()
        {
            match ClientStream::connect_once(options) {
                Ok(stream) => return Ok(stream),
                Err(e) => {
                    last_error = e;
                    eprintln!(
                        "ftio client: connect attempt {} failed, retrying in {} ms",
                        attempt + 1,
                        sleep.as_millis()
                    );
                    std::thread::sleep(sleep);
                }
            }
        }
        ClientStream::connect_once(options).map_err(|e| {
            if options.retries > 0 {
                format!(
                    "{e} (after {} retries; last: {last_error})",
                    options.retries
                )
            } else {
                e
            }
        })
    }
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            ClientStream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            ClientStream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            ClientStream::Unix(s) => s.flush(),
        }
    }
}

/// Runs one framed client session and renders what the daemon answered.
pub fn run_client(options: &ClientCliOptions) -> Result<String, String> {
    let stream = ClientStream::connect(options)?;
    match &options.inject {
        Some(plan) if !plan.is_noop() => {
            // Chaos mode: every byte in both directions runs through the
            // seeded fault injector.
            run_session(FaultStream::new(stream, plan.clone()), options)
        }
        _ => run_session(stream, options),
    }
}

/// The protocol half of the client, generic over the transport so the fault
/// injector can sit between the session and the socket.
fn run_session<S: Read + Write>(
    mut stream: S,
    options: &ClientCliOptions,
) -> Result<String, String> {
    let send = |stream: &mut S, frame: Frame| -> Result<(), String> {
        frame
            .write_to(stream)
            .map_err(|e| format!("cannot send to the daemon: {e}"))
    };
    send(
        &mut stream,
        Frame::Hello {
            name: options.name.clone(),
        },
    )?;
    if options.subscribe {
        send(
            &mut stream,
            Frame::Subscribe {
                app: Some(AppId::from_name(&options.name)),
                from_seq: options.from_seq,
            },
        )?;
    }
    let mut out = String::new();
    if let Some(file) = &options.file {
        let bytes = std::fs::read(file).map_err(|e| format!("cannot read `{file}`: {e}"))?;
        out.push_str(&format!(
            "{}: streamed {} bytes as `{}`\n",
            file,
            bytes.len(),
            options.name
        ));
        send(&mut stream, Frame::Data(bytes))?;
        send(&mut stream, Frame::End)?;
        stream
            .flush()
            .map_err(|e| format!("cannot send to the daemon: {e}"))?;
        // Collect pushed predictions until the flush Ack.
        let mut frames = FrameReader::new(&mut stream);
        loop {
            match read_server_frame(&mut frames)? {
                Frame::Welcome {
                    oldest_seq,
                    next_seq,
                    ..
                } => out.push_str(&format!(
                    "welcome: `{}` resume window [{oldest_seq}, {next_seq})\n",
                    options.name
                )),
                Frame::Prediction(update) => {
                    let period = match update.period {
                        Some(seconds) => format!("{seconds:.3} s"),
                        None => "none".into(),
                    };
                    out.push_str(&format!(
                        "prediction @ {:.1} s: period {period} (confidence {:.1} %, seq {})\n",
                        update.time,
                        update.confidence * 100.0,
                        update.seq
                    ));
                }
                Frame::Error {
                    message,
                    retry_after_ms: Some(wait_ms),
                } => {
                    // A retryable refusal (shed submissions, byte budget):
                    // the daemon kept the connection; report and carry on.
                    out.push_str(&format!(
                        "daemon asks to retry in {wait_ms} ms: {message}\n"
                    ));
                }
                Frame::Ack => break,
                other => return Err(format!("unexpected frame from the daemon: {other:?}")),
            }
        }
        out.push_str("acknowledged: all predictions for the stream were delivered\n");
    }
    if options.shutdown {
        send(&mut stream, Frame::Shutdown)?;
        stream
            .flush()
            .map_err(|e| format!("cannot send to the daemon: {e}"))?;
        let mut frames = FrameReader::new(&mut stream);
        loop {
            match read_server_frame(&mut frames)? {
                // A shutdown-only session still gets its hello answered, and
                // a subscribed shutdown can still be drained predictions.
                Frame::Welcome { .. } | Frame::Prediction(_) => continue,
                Frame::Error {
                    message,
                    retry_after_ms: Some(_),
                } => {
                    out.push_str(&format!("daemon warning: {message}\n"));
                }
                Frame::Stats(stats) => {
                    out.push_str(&format!(
                        "daemon drained: submitted {}  ticks {}  coalesced {}  dropped {}  rejected {}  (balanced: {})\n",
                        stats.submitted,
                        stats.ticks,
                        stats.coalesced,
                        stats.dropped,
                        stats.rejected,
                        stats.is_balanced()
                    ));
                    break;
                }
                other => return Err(format!("unexpected frame from the daemon: {other:?}")),
            }
        }
    }
    Ok(out)
}

fn read_server_frame<R: Read>(frames: &mut FrameReader<R>) -> Result<Frame, String> {
    match frames.read_frame() {
        // Errors without a retry hint are terminal: the daemon is closing
        // this connection. Retryable errors pass through to the caller.
        Ok(Some(Frame::Error {
            message,
            retry_after_ms: None,
        })) => Err(format!("daemon error: {message}")),
        Ok(Some(frame)) => Ok(frame),
        Ok(None) => Err("the daemon closed the connection".into()),
        Err(e) => Err(format!("broken reply from the daemon: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn serve_options_are_parsed() {
        let options = parse_serve_options(&strings(&[
            "--tcp",
            "127.0.0.1:0",
            "--max-conns",
            "3",
            "--shards",
            "2",
            "--capacity",
            "64",
            "--batch",
            "1",
            "--policy",
            "reject",
            "--threads",
            "2",
            "--freq",
            "1.5",
            "--batch-size",
            "32",
        ]))
        .unwrap();
        assert_eq!(options.tcp.as_deref(), Some("127.0.0.1:0"));
        assert_eq!(options.max_conns, 3);
        assert_eq!(options.shards, 2);
        assert_eq!(options.capacity, 64);
        assert_eq!(options.batch, 1);
        assert_eq!(options.policy, BackpressurePolicy::Reject);
        assert_eq!(options.threads, 2);
        assert_eq!(options.freq, 1.5);
        assert_eq!(options.batch_size, 32);
        assert!(server_config(&options).is_ok());
    }

    #[test]
    fn serve_hardening_options_are_parsed() {
        let options = parse_serve_options(&strings(&[
            "--tcp",
            "127.0.0.1:0",
            "--read-timeout",
            "250",
            "--write-timeout",
            "0",
            "--idle-timeout",
            "1500",
            "--push-queue",
            "4",
            "--slow-policy",
            "disconnect",
            "--retry-after",
            "50",
            "--resume-ring",
            "16",
            "--tenant",
            "acme:conns=2,apps=3,rate=1000,burst=4000",
            "--tenant-default",
            "conns=8",
        ]))
        .unwrap();
        assert_eq!(options.read_timeout_ms, 250);
        assert_eq!(options.write_timeout_ms, 0);
        assert_eq!(options.idle_timeout_ms, 1500);
        assert_eq!(options.push_queue, 4);
        assert_eq!(options.slow_policy, SlowSubscriberPolicy::Disconnect);
        assert_eq!(options.retry_after_ms, 50);
        assert_eq!(options.resume_ring, 16);
        let quota = options.tenants.quota_for("acme").unwrap();
        assert_eq!(quota.max_connections, 2);
        assert_eq!(quota.max_apps, 3);
        assert_eq!(quota.bytes_per_sec, 1000.0);
        assert_eq!(quota.burst_bytes, 4000.0);
        // Unknown tenants fall back to the default budget.
        assert_eq!(
            options.tenants.quota_for("other").unwrap().max_connections,
            8
        );

        let config = server_config(&options).unwrap();
        assert_eq!(config.read_timeout, Some(Duration::from_millis(250)));
        assert_eq!(config.write_timeout, None, "0 disables the deadline");
        assert_eq!(config.idle_timeout, Some(Duration::from_millis(1500)));
        assert_eq!(config.cluster.resume_ring, 16);
    }

    #[test]
    fn serve_options_errors() {
        assert!(parse_serve_options(&[]).is_err());
        assert!(parse_serve_options(&strings(&["--unix", "a", "--tcp", "b"])).is_err());
        assert!(parse_serve_options(&strings(&["--tcp", "a", "--max-conns", "0"])).is_err());
        assert!(parse_serve_options(&strings(&["--tcp", "a", "--shards", "0"])).is_err());
        assert!(parse_serve_options(&strings(&["--tcp", "a", "--threads", "many"])).is_err());
        assert!(parse_serve_options(&strings(&["--tcp", "a", "--freq", "-2"])).is_err());
        assert!(parse_serve_options(&strings(&["--tcp", "a", "--bogus"])).is_err());
        assert!(parse_serve_options(&strings(&["--tcp", "a", "--batch-size", "0"])).is_err());
        assert!(parse_serve_options(&strings(&["--tcp", "a", "--push-queue", "0"])).is_err());
        assert!(parse_serve_options(&strings(&["--tcp", "a", "--slow-policy", "x"])).is_err());
        assert!(parse_serve_options(&strings(&["--tcp", "a", "--tenant", "nocolon"])).is_err());
        assert!(parse_serve_options(&strings(&["--tcp", "a", "--tenant", ":conns=1"])).is_err());
        assert!(parse_serve_options(&strings(&["--tcp", "a", "--tenant", "t:weird=1"])).is_err());
        assert!(
            parse_serve_options(&strings(&["--tcp", "a", "--tenant-default", "rate=-4"])).is_err()
        );
    }

    #[test]
    fn client_options_are_parsed() {
        let options = parse_client_options(&strings(&[
            "--unix",
            "/tmp/ftio.sock",
            "--file",
            "tests/data/ior_small.jsonl",
            "--subscribe",
        ]))
        .unwrap();
        assert_eq!(options.unix.as_deref(), Some("/tmp/ftio.sock"));
        assert_eq!(options.name, "ior_small.jsonl"); // defaults to the file name
        assert!(options.subscribe);
        assert!(!options.shutdown);

        let options =
            parse_client_options(&strings(&["--tcp", "127.0.0.1:7000", "--shutdown"])).unwrap();
        assert!(options.file.is_none());
        assert_eq!(options.name, "ftio-client");
        assert!(options.shutdown);
    }

    #[test]
    fn client_hardening_options_are_parsed() {
        let options = parse_client_options(&strings(&[
            "--tcp",
            "127.0.0.1:7000",
            "--file",
            "t.jsonl",
            "--from-seq",
            "42",
            "--retries",
            "3",
            "--retry-max-ms",
            "500",
            "--retry-seed",
            "7",
            "--inject",
            "seed=1,short=0.5,interrupt=0.1",
        ]))
        .unwrap();
        assert_eq!(options.from_seq, Some(42));
        assert!(options.subscribe, "--from-seq implies --subscribe");
        assert_eq!(options.retries, 3);
        assert_eq!(options.retry_max_ms, 500);
        assert_eq!(options.retry_seed, 7);
        let plan = options.inject.unwrap();
        assert_eq!(plan.seed, 1);
        assert!(!plan.is_noop());
    }

    #[test]
    fn client_options_errors() {
        assert!(parse_client_options(&[]).is_err());
        assert!(parse_client_options(&strings(&["--unix", "a", "--tcp", "b"])).is_err());
        // Neither a file nor a shutdown: the session would do nothing.
        assert!(parse_client_options(&strings(&["--unix", "a"])).is_err());
        assert!(parse_client_options(&strings(&["--unix", "a", "--weird"])).is_err());
        // Malformed fault plans are rejected at parse time.
        assert!(parse_client_options(&strings(&[
            "--unix",
            "a",
            "--shutdown",
            "--inject",
            "short=2.0"
        ]))
        .is_err());
        assert!(parse_client_options(&strings(&[
            "--unix",
            "a",
            "--shutdown",
            "--retry-max-ms",
            "0"
        ]))
        .is_err());
    }

    #[test]
    fn backoff_schedule_is_deterministic_capped_and_jittered() {
        let schedule = backoff_schedule(6, 400, 9);
        assert_eq!(schedule.len(), 6);
        // Same seed, same schedule; different seed, different sleeps.
        assert_eq!(schedule, backoff_schedule(6, 400, 9));
        assert_ne!(schedule, backoff_schedule(6, 400, 10));
        // Every sleep respects the cap, and jitter keeps it above half of
        // the capped exponential base.
        let bases = [25u64, 50, 100, 200, 400, 400];
        for (sleep, base) in schedule.iter().zip(bases) {
            let ms = sleep.as_millis() as u64;
            assert!(ms <= base, "sleep {ms} over base {base}");
            assert!(ms >= base / 2, "sleep {ms} under half of base {base}");
        }
        assert!(backoff_schedule(0, 400, 9).is_empty());
    }

    /// An in-process end-to-end pass: `run_client` (stream + subscribe, then
    /// shutdown) against a `Server` booted with `server_config`, over TCP.
    #[test]
    fn client_round_trips_against_a_served_engine() {
        use ftio_trace::{jsonl, IoRequest};

        let requests: Vec<IoRequest> = (0..12)
            .map(|i| {
                let start = i as f64 * 10.0;
                IoRequest::write(0, start, start + 2.0, 1_000_000_000)
            })
            .collect();
        let file = std::env::temp_dir().join("ftio_serve_cli_test.jsonl");
        std::fs::write(&file, jsonl::encode_requests(&requests)).unwrap();

        let serve_options = ServeCliOptions {
            tcp: Some("127.0.0.1:0".into()),
            shards: 2,
            batch: 1,
            ..Default::default()
        };
        let server = Server::start(
            bind_listener(&serve_options).unwrap(),
            server_config(&serve_options).unwrap(),
        )
        .unwrap();

        let client_options = ClientCliOptions {
            tcp: Some(server.address().to_string()),
            name: "cli-app".into(),
            file: Some(file.to_str().unwrap().to_string()),
            subscribe: true,
            retry_max_ms: 2_000,
            ..Default::default()
        };
        let report = run_client(&client_options).unwrap();
        assert!(
            report.contains("welcome: `cli-app` resume window [0, 0)"),
            "{report}"
        );
        assert!(report.contains("prediction @"), "{report}");
        assert!(report.contains("period 10."), "{report}");
        assert!(report.contains("seq 0"), "{report}");
        assert!(report.contains("acknowledged"), "{report}");

        let stop = ClientCliOptions {
            tcp: Some(server.address().to_string()),
            name: "stopper".into(),
            shutdown: true,
            retry_max_ms: 2_000,
            ..Default::default()
        };
        let report = run_client(&stop).unwrap();
        assert!(report.contains("daemon drained"), "{report}");
        assert!(report.contains("balanced: true"), "{report}");

        let report = server.wait();
        assert_eq!(report.server.accepted, 2);
        assert_eq!(report.server.protocol_errors, 0);
        let _ = std::fs::remove_file(file);
    }

    /// The same round trip with a benign fault plan on the client side:
    /// short reads and interrupts must not corrupt the framed session.
    #[test]
    fn client_survives_benign_fault_injection() {
        use ftio_trace::{jsonl, IoRequest};

        let requests: Vec<IoRequest> = (0..12)
            .map(|i| {
                let start = i as f64 * 10.0;
                IoRequest::write(0, start, start + 2.0, 1_000_000_000)
            })
            .collect();
        let file = std::env::temp_dir().join("ftio_serve_cli_inject_test.jsonl");
        std::fs::write(&file, jsonl::encode_requests(&requests)).unwrap();

        let serve_options = ServeCliOptions {
            tcp: Some("127.0.0.1:0".into()),
            shards: 1,
            batch: 1,
            ..Default::default()
        };
        let server = Server::start(
            bind_listener(&serve_options).unwrap(),
            server_config(&serve_options).unwrap(),
        )
        .unwrap();

        let client_options = ClientCliOptions {
            tcp: Some(server.address().to_string()),
            name: "chaotic".into(),
            file: Some(file.to_str().unwrap().to_string()),
            subscribe: true,
            retry_max_ms: 2_000,
            inject: Some(FaultPlan::parse("seed=3,short=0.7,interrupt=0.3").unwrap()),
            ..Default::default()
        };
        let report = run_client(&client_options).unwrap();
        assert!(report.contains("acknowledged"), "{report}");
        assert!(report.contains("period 10."), "{report}");

        let report = server.finish();
        assert_eq!(report.server.protocol_errors, 0, "{:?}", report.server);
        let _ = std::fs::remove_file(file);
    }
}

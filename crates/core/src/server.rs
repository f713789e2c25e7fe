//! The serving layer: a socket-facing daemon around [`ClusterEngine`].
//!
//! The paper's online mode is meant to run *against a live tracer*: an
//! application-side TMIO layer flushes request records periodically, and the
//! detector answers with period predictions while the job runs. This module
//! is the missing network shell — everything analytical already lives in
//! [`crate::cluster`]; the server only moves bytes:
//!
//! ```text
//! listener ──accept──▶ admission (connection semaphore, tenant quotas)
//!     │                     │ over limit: Error frame, close
//!     ▼                     ▼
//!  accept thread    connection thread (one per client, evicts itself when idle)
//!  (blocks; woken      │ first byte = 0xFD? ──── framed protocol
//!   at shutdown)       │        else ─────────── raw trace stream
//!                      ▼
//!              shard queue (`ClusterEngine::submit`, backpressure policy)
//!                      ▼
//!              shard worker tick ──▶ pusher channel (+ End barriers) ──▶ pusher thread
//!                                      (bounded push queue)    │
//!                                    Prediction frames ◀───────┘
//! ```
//!
//! **Framed connections** speak the [`ftio_trace::wire`] envelope: `Hello`
//! names the application (answered with a [`Frame::Welcome`] advertising the
//! resumable prediction window), `Data` frames carry self-contained trace
//! chunks in any sniffable [`ftio_trace::SourceFormat`] (gzip included),
//! `Subscribe` attaches a live prediction feed — optionally resuming from a
//! sequence number — `End` flushes (every prediction for data sent before
//! the `End` is written *before* the `Ack`), and `Shutdown` drains the whole
//! daemon. **Raw connections** (`nc server.sock < trace.jsonl`) are slurped
//! to EOF, sniffed, replayed, and answered with a one-line text summary.
//!
//! # Failure model
//!
//! The daemon assumes every client is hostile until proven otherwise:
//!
//! * **Deadlines.** Sockets carry read/write timeouts
//!   ([`ServerConfig::read_timeout`]/[`ServerConfig::write_timeout`]); a
//!   client stalled *mid-frame* is evicted as soon as a read times out
//!   (counted in [`ServerStats::evicted_stalled`]), while a client that
//!   completes no frame for [`ServerConfig::idle_timeout`] is evicted by its
//!   own reader ([`ServerStats::evicted_idle`]).
//! * **Slow subscribers.** Prediction pushes go through a bounded
//!   per-connection queue ([`ServerConfig::push_queue`]); an overflow either
//!   drops the oldest queued update or disconnects the subscriber, per
//!   [`ServerConfig::slow_policy`].
//! * **Overload shedding.** When the engine refuses submissions (full queue
//!   under [`BackpressurePolicy::Reject`](crate::BackpressurePolicy) or
//!   drain), the server answers a [`Frame::Error`] with `retry_after_ms`
//!   instead of silently blocking, and keeps the connection open.
//! * **Tenant quotas.** Hello names map onto per-tenant budgets
//!   ([`TenantPolicy`]): concurrent connections, distinct applications, and
//!   a bytes-per-second token bucket. Quota checks and reservations happen
//!   atomically under one lock, so concurrent Hellos cannot race past a
//!   budget.
//!
//! Fault isolation follows PR 7's discipline at the network edge: a client
//! that sends a malformed frame or disconnects mid-frame gets its connection
//! closed with a positioned [`Frame::Error`] while every other connection —
//! and the engine — keeps serving.
//!
//! Graceful shutdown reuses the drain-then-join path: the accept thread stops,
//! every live socket is shut down (unblocking its reader), connection threads
//! are joined, the shard queues are drained, and [`Server::wait`] returns the
//! final [`ClusterStats`] — still satisfying the accounting invariant.

use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
#[cfg(unix)]
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ftio_trace::source::{from_bytes_auto, DEFAULT_BATCH_SIZE};
use ftio_trace::wire::MAX_FRAME_LEN;
use ftio_trace::wire::{Frame, FrameReader, PredictionUpdate, WireStats, FRAME_MAGIC};
use ftio_trace::AppId;

use crate::cluster::{
    lock_recover, AppPredictions, ClusterConfig, ClusterEngine, ClusterStats, Pacing,
    PredictionEvent,
};

/// Safety valve on the `End` barrier: if a pusher thread is stuck, an `End`
/// flush gives up waiting for it after this long instead of hanging the
/// connection.
const BARRIER_TIMEOUT: Duration = Duration::from_secs(10);

/// What to do when a subscriber cannot keep up with its prediction feed and
/// the bounded per-connection push queue overflows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SlowSubscriberPolicy {
    /// Evict the oldest queued update to make room (the subscriber sees a
    /// sequence-number gap it can repair by resubscribing with `from_seq`).
    /// Counted in [`ServerStats::push_dropped`].
    #[default]
    DropOldest,
    /// Send a final [`Frame::Error`] and disconnect the subscriber. Counted
    /// in [`ServerStats::slow_disconnects`].
    Disconnect,
}

impl SlowSubscriberPolicy {
    /// Parses the CLI spelling (`drop-oldest` | `disconnect`).
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "drop-oldest" => Ok(SlowSubscriberPolicy::DropOldest),
            "disconnect" => Ok(SlowSubscriberPolicy::Disconnect),
            other => Err(format!(
                "unknown slow-subscriber policy `{other}` (expected drop-oldest|disconnect)"
            )),
        }
    }

    /// The CLI spelling of this policy.
    pub fn as_str(&self) -> &'static str {
        match self {
            SlowSubscriberPolicy::DropOldest => "drop-oldest",
            SlowSubscriberPolicy::Disconnect => "disconnect",
        }
    }
}

/// Resource budget of one tenant (see [`TenantPolicy`]). The default is
/// unlimited on every axis; narrow the fields you want to enforce.
#[derive(Clone, Copy, Debug)]
pub struct TenantQuota {
    /// Maximum concurrently admitted framed connections.
    pub max_connections: usize,
    /// Maximum distinct applications the tenant may name across the daemon's
    /// lifetime (an application keeps counting after its connections close —
    /// engine state is retained, so the budget is cumulative).
    pub max_apps: usize,
    /// Sustained ingest budget in trace bytes per second (token bucket).
    pub bytes_per_sec: f64,
    /// Token-bucket burst capacity in bytes. When left at the default
    /// (infinite) while `bytes_per_sec` is finite, the bucket defaults to
    /// one second's worth of budget.
    pub burst_bytes: f64,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            max_connections: usize::MAX,
            max_apps: usize::MAX,
            bytes_per_sec: f64::INFINITY,
            burst_bytes: f64::INFINITY,
        }
    }
}

impl TenantQuota {
    fn effective_burst(&self) -> f64 {
        if self.burst_bytes.is_finite() {
            self.burst_bytes
        } else if self.bytes_per_sec.is_finite() {
            self.bytes_per_sec
        } else {
            f64::INFINITY
        }
    }
}

/// Per-tenant budgets, keyed by tenant name. A connection's tenant is the
/// hello name up to the first `/` (`acme/run-17` → `acme`; a name without a
/// slash is its own tenant). Connections whose tenant has no quota — no
/// named entry and no [`TenantPolicy::default_quota`] — are exempt from
/// tenant accounting entirely.
#[derive(Clone, Debug, Default)]
pub struct TenantPolicy {
    /// Budget applied to tenants without a named entry (`None` = exempt).
    pub default_quota: Option<TenantQuota>,
    /// Named per-tenant budgets.
    pub tenants: HashMap<String, TenantQuota>,
}

impl TenantPolicy {
    /// The quota governing `tenant`, if any.
    pub fn quota_for(&self, tenant: &str) -> Option<TenantQuota> {
        self.tenants.get(tenant).copied().or(self.default_quota)
    }

    /// True when no tenant is subject to any budget.
    pub fn is_empty(&self) -> bool {
        self.default_quota.is_none() && self.tenants.is_empty()
    }
}

/// The tenant component of a hello name: everything before the first `/`,
/// or the whole name.
pub fn tenant_of(name: &str) -> &str {
    name.split('/').next().unwrap_or(name)
}

/// Configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum concurrently served connections; further clients are refused
    /// with a [`Frame::Error`] (counted in
    /// [`ServerStats::rejected_connections`]).
    pub max_connections: usize,
    /// Requests per [`ftio_trace::TraceBatch`] when decoding ingested bytes.
    pub batch_size: usize,
    /// Socket read timeout. This is the *stall deadline*: a read that times
    /// out mid-frame evicts the connection immediately; at a frame boundary
    /// it merely bounds how long the reader sleeps between liveness checks.
    /// Sockets use the shorter of this and [`ServerConfig::idle_timeout`]:
    /// with `None` the idle deadline alone bounds every read, or nothing.
    pub read_timeout: Option<Duration>,
    /// Socket write timeout — bounds how long a wedged client can pin a
    /// handler or pusher thread inside a write.
    pub write_timeout: Option<Duration>,
    /// How long a connection may go without completing any frame (or, for
    /// raw connections, receiving any byte; for subscribers, being pushed
    /// any prediction) before its own reader evicts it, at the first read
    /// that returns after this long — at most one read deadline late.
    /// `None` disables idle eviction.
    pub idle_timeout: Option<Duration>,
    /// Capacity of the bounded per-connection prediction push queue (values
    /// below 1 are clamped to 1).
    pub push_queue: usize,
    /// What happens when the push queue overflows.
    pub slow_policy: SlowSubscriberPolicy,
    /// The backoff suggested in `retry_after_ms` when submissions are shed
    /// or a tenant byte budget is exhausted.
    pub retry_after: Duration,
    /// Per-tenant budgets (empty = no tenant enforcement).
    pub tenants: TenantPolicy,
    /// The engine under the server: shard count, queue capacity,
    /// backpressure policy, detection configuration.
    pub cluster: ClusterConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_connections: 64,
            batch_size: DEFAULT_BATCH_SIZE,
            read_timeout: Some(Duration::from_secs(5)),
            write_timeout: Some(Duration::from_secs(5)),
            idle_timeout: Some(Duration::from_secs(60)),
            push_queue: 1024,
            slow_policy: SlowSubscriberPolicy::default(),
            retry_after: Duration::from_millis(100),
            tenants: TenantPolicy::default(),
            cluster: ClusterConfig::default(),
        }
    }
}

/// Where the server listens: a TCP address or a Unix-domain socket path.
pub enum ServerListener {
    /// A bound TCP listener.
    Tcp(TcpListener),
    /// A bound Unix-domain socket listener and its path (unlinked when the
    /// server finishes).
    #[cfg(unix)]
    Unix(UnixListener, PathBuf),
}

impl ServerListener {
    /// Binds a TCP listener (`"127.0.0.1:0"` picks an ephemeral port —
    /// read it back from [`Server::address`]).
    pub fn tcp(addr: &str) -> io::Result<Self> {
        Ok(ServerListener::Tcp(TcpListener::bind(addr)?))
    }

    /// Binds a Unix-domain socket, replacing any stale socket file at the
    /// path. Shutdown wakes the accept thread through that path, so the file
    /// must stay in place while the server runs.
    #[cfg(unix)]
    pub fn unix(path: impl Into<PathBuf>) -> io::Result<Self> {
        let path = path.into();
        // A previous server that died without cleanup leaves the file behind;
        // binding over it is what a restarted daemon wants.
        let _ = std::fs::remove_file(&path);
        Ok(ServerListener::Unix(UnixListener::bind(&path)?, path))
    }

    fn address(&self) -> String {
        match self {
            ServerListener::Tcp(l) => l
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "tcp:?".into()),
            #[cfg(unix)]
            ServerListener::Unix(_, path) => path.display().to_string(),
        }
    }

    /// Connects once to the listener's own address — over loopback when it
    /// is bound to every interface — so that a blocked `accept` returns. A
    /// Unix connect can only wait for backlog room, which `accept` frees.
    fn waker(&self) -> io::Result<Box<dyn Fn() + Send + Sync>> {
        match self {
            ServerListener::Tcp(l) => {
                let mut addr = l.local_addr()?;
                match &mut addr {
                    SocketAddr::V4(a) if a.ip().is_unspecified() => a.set_ip(Ipv4Addr::LOCALHOST),
                    SocketAddr::V6(a) if a.ip().is_unspecified() => a.set_ip(Ipv6Addr::LOCALHOST),
                    _ => {}
                }
                let wake = move || drop(TcpStream::connect_timeout(&addr, Duration::from_secs(1)));
                Ok(Box::new(wake))
            }
            #[cfg(unix)]
            ServerListener::Unix(_, path) => {
                let path = path.clone();
                Ok(Box::new(move || drop(UnixStream::connect(&path))))
            }
        }
    }

    fn accept(&self) -> io::Result<Stream> {
        match self {
            ServerListener::Tcp(l) => l.accept().map(|(stream, _)| Stream::Tcp(stream)),
            #[cfg(unix)]
            ServerListener::Unix(l, _) => l.accept().map(|(stream, _)| Stream::Unix(stream)),
        }
    }
}

/// One accepted connection, TCP or Unix — `Read + Write` either way.
enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Stream {
    fn try_clone(&self) -> io::Result<Stream> {
        match self {
            Stream::Tcp(s) => s.try_clone().map(Stream::Tcp),
            #[cfg(unix)]
            Stream::Unix(s) => s.try_clone().map(Stream::Unix),
        }
    }

    /// Applies the configured socket deadlines.
    fn set_timeouts(&self, read: Option<Duration>, write: Option<Duration>) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => {
                s.set_read_timeout(read)?;
                s.set_write_timeout(write)
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                s.set_read_timeout(read)?;
                s.set_write_timeout(write)
            }
        }
    }

    /// Shuts down both halves, unblocking any thread parked in a read.
    fn close(&self) {
        match self {
            Stream::Tcp(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            #[cfg(unix)]
            Stream::Unix(s) => {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Unix(s) => s.flush(),
        }
    }
}

/// A socket timeout, as either of the kinds platforms use for it.
fn is_timeout_kind(kind: io::ErrorKind) -> bool {
    matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Serving-side counters (the engine's own numbers live in [`ClusterStats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections admitted past the semaphore.
    pub accepted: u64,
    /// Connections refused because the limit was reached.
    pub rejected_connections: u64,
    /// Connections closed for a malformed frame, an undecodable payload, or
    /// a mid-frame disconnect.
    pub protocol_errors: u64,
    /// `Data` frames ingested across all framed connections.
    pub data_frames: u64,
    /// Raw (non-framed) connections served.
    pub raw_connections: u64,
    /// Connections being served right now.
    pub active: u64,
    /// Connections that evicted themselves for making no progress for
    /// [`ServerConfig::idle_timeout`].
    pub evicted_idle: u64,
    /// Connections evicted for stalling mid-frame (read timeout inside a
    /// partially received frame).
    pub evicted_stalled: u64,
    /// Submissions refused by the engine and answered with a retryable
    /// [`Frame::Error`] instead of blocking.
    pub shed: u64,
    /// `Data` frames refused because a tenant's byte budget was exhausted.
    pub rate_limited: u64,
    /// Hellos refused by tenant connection/application quotas.
    pub quota_rejections: u64,
    /// Prediction updates dropped by the slow-subscriber
    /// [`SlowSubscriberPolicy::DropOldest`] policy.
    pub push_dropped: u64,
    /// Subscribers disconnected by the slow-subscriber
    /// [`SlowSubscriberPolicy::Disconnect`] policy.
    pub slow_disconnects: u64,
    /// Subscriptions that resumed with `Subscribe{from_seq}`.
    pub resumed_subscriptions: u64,
}

/// Everything [`Server::wait`] hands back after the daemon drains.
#[derive(Debug)]
pub struct ServerReport {
    /// Engine counters at drain time (the accounting invariant holds).
    pub cluster: ClusterStats,
    /// Serving-side counters.
    pub server: ServerStats,
    /// Each application's last [`ClusterConfig::resume_ring`] predictions.
    pub predictions: AppPredictions,
    /// Each application's count of published predictions, retained or not
    /// (the second half of its [`ClusterEngine::resume_window`]).
    pub published: HashMap<AppId, u64>,
    /// Human-readable names for the [`AppId`]s seen by this daemon, as
    /// announced in [`Frame::Hello`] (raw connections get `raw-{id}`).
    pub names: HashMap<AppId, String>,
}

#[derive(Default)]
struct Counters {
    accepted: AtomicU64,
    rejected_connections: AtomicU64,
    protocol_errors: AtomicU64,
    data_frames: AtomicU64,
    raw_connections: AtomicU64,
    active: AtomicU64,
    evicted_idle: AtomicU64,
    evicted_stalled: AtomicU64,
    shed: AtomicU64,
    rate_limited: AtomicU64,
    quota_rejections: AtomicU64,
    push_dropped: AtomicU64,
    slow_disconnects: AtomicU64,
    resumed_subscriptions: AtomicU64,
}

/// Liveness state of one connection, shared between its reader and its
/// pusher thread.
struct ConnMeta {
    /// Milliseconds (on the server's clock) of the last observed progress:
    /// a completed frame, a raw byte received, or a prediction pushed.
    last_activity_ms: AtomicU64,
    /// Set by whichever side kills the connection first (idle eviction,
    /// slow-subscriber disconnect), so the reader knows its failing socket
    /// was an eviction, not a client protocol error.
    evicted: AtomicBool,
}

impl ConnMeta {
    fn new(now_ms: u64) -> Self {
        ConnMeta {
            last_activity_ms: AtomicU64::new(now_ms),
            evicted: AtomicBool::new(false),
        }
    }

    fn touch(&self, now_ms: u64) {
        self.last_activity_ms.store(now_ms, Ordering::Release);
    }

    fn evicted(&self) -> bool {
        self.evicted.load(Ordering::Acquire)
    }
}

/// A connection's read half: every read that returns checks the idle
/// deadline ([`Shared::evict_if_idle`]). An evicted connection reads as a
/// timeout, and callers then see the eviction flag.
struct ConnReader<'a> {
    stream: Stream,
    shared: &'a Shared,
    meta: &'a ConnMeta,
}

impl Read for ConnReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let read = self.stream.read(buf);
        if self.shared.evict_if_idle(self.meta, &self.stream) {
            return Err(io::ErrorKind::TimedOut.into());
        }
        read
    }
}

/// Runtime accounting of one tenant.
struct TenantState {
    active_connections: usize,
    apps: HashSet<AppId>,
    /// Token bucket for the byte budget.
    tokens: f64,
    last_refill: Instant,
}

/// State shared by the accept loop, every connection thread, and the server
/// handle.
struct Shared {
    engine: ClusterEngine,
    config: ServerConfig,
    running: AtomicBool,
    counters: Counters,
    /// Every live connection's stream clone, so shutdown can unblock readers
    /// parked on idle sockets.
    conns: Mutex<HashMap<u64, Stream>>,
    /// `AppId` → hello name, so reports stay human-readable.
    names: Mutex<HashMap<AppId, String>>,
    /// Tenant accounting (admissions and token buckets).
    tenants: Mutex<HashMap<String, TenantState>>,
    /// The server's clock origin for `ConnMeta` millisecond stamps.
    epoch: Instant,
    /// Wakes the accept thread at shutdown ([`ServerListener::waker`]).
    wake: Box<dyn Fn() + Send + Sync>,
}

impl Shared {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    /// Stops the daemon: the accept thread is woken and exits, and every
    /// live connection's socket is shut down so its reader unblocks, finishes
    /// the work it already accepted, and exits. Idempotent.
    fn initiate_shutdown(&self) {
        self.initiate_shutdown_except(None);
    }

    /// [`Shared::initiate_shutdown`], sparing one connection. The connection
    /// that carried a [`Frame::Shutdown`] must outlive the stop so its
    /// [`Frame::Stats`] reply has a socket to travel on — and the stop must
    /// happen *before* the drain, or connections still ingesting keep the
    /// shard queues topped up and the drain never converges.
    fn initiate_shutdown_except(&self, spare: Option<u64>) {
        if self.running.swap(false, Ordering::SeqCst) {
            for (id, stream) in lock_recover(&self.conns).iter() {
                if Some(*id) != spare {
                    stream.close();
                }
            }
            (self.wake)();
        }
    }

    /// Evicts a connection that has made no progress for
    /// [`ServerConfig::idle_timeout`]: counts it, flags it, and shuts its
    /// socket down (unblocking its pusher). True once it is evicted.
    fn evict_if_idle(&self, meta: &ConnMeta, stream: &Stream) -> bool {
        if let Some(idle) = self.config.idle_timeout {
            let last = meta.last_activity_ms.load(Ordering::Acquire);
            if self.now_ms().saturating_sub(last) >= idle.as_millis() as u64
                && !meta.evicted.swap(true, Ordering::SeqCst)
            {
                self.counters.evicted_idle.fetch_add(1, Ordering::Relaxed);
                stream.close();
            }
        }
        meta.evicted()
    }

    /// Atomically checks and reserves a tenant connection slot (and the
    /// application, if new). `Ok(true)` means a reservation was made and
    /// must be released; `Ok(false)` means the tenant is exempt from
    /// quotas; `Err` carries the client-facing rejection message.
    fn tenant_admit(&self, tenant: &str, app: AppId) -> Result<bool, String> {
        let Some(quota) = self.config.tenants.quota_for(tenant) else {
            return Ok(false);
        };
        let mut tenants = lock_recover(&self.tenants);
        let state = tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState {
                active_connections: 0,
                apps: HashSet::new(),
                tokens: quota.effective_burst(),
                last_refill: Instant::now(),
            });
        if state.active_connections >= quota.max_connections {
            return Err(format!(
                "tenant `{tenant}` connection quota reached ({} active)",
                quota.max_connections
            ));
        }
        if !state.apps.contains(&app) && state.apps.len() >= quota.max_apps {
            return Err(format!(
                "tenant `{tenant}` application quota reached ({} apps)",
                quota.max_apps
            ));
        }
        state.active_connections += 1;
        state.apps.insert(app);
        Ok(true)
    }

    /// Releases a connection slot reserved by [`Shared::tenant_admit`].
    fn tenant_release(&self, tenant: &str) {
        if let Some(state) = lock_recover(&self.tenants).get_mut(tenant) {
            state.active_connections = state.active_connections.saturating_sub(1);
        }
    }

    /// Debits `bytes` from the tenant's token bucket. On an exhausted
    /// budget returns the suggested wait in milliseconds before retrying.
    fn tenant_debit(&self, tenant: &str, bytes: u64) -> Result<(), u64> {
        let Some(quota) = self.config.tenants.quota_for(tenant) else {
            return Ok(());
        };
        if !quota.bytes_per_sec.is_finite() {
            return Ok(());
        }
        let mut tenants = lock_recover(&self.tenants);
        let Some(state) = tenants.get_mut(tenant) else {
            return Ok(());
        };
        let now = Instant::now();
        let elapsed = now.duration_since(state.last_refill).as_secs_f64();
        state.last_refill = now;
        state.tokens = (state.tokens + elapsed * quota.bytes_per_sec).min(quota.effective_burst());
        let need = bytes as f64;
        if state.tokens >= need {
            state.tokens -= need;
            Ok(())
        } else {
            let deficit = need - state.tokens;
            let wait_ms = (deficit / quota.bytes_per_sec * 1000.0).ceil().max(1.0);
            Err(wait_ms.min(u64::MAX as f64) as u64)
        }
    }

    fn server_stats(&self) -> ServerStats {
        ServerStats {
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            rejected_connections: self.counters.rejected_connections.load(Ordering::Relaxed),
            protocol_errors: self.counters.protocol_errors.load(Ordering::Relaxed),
            data_frames: self.counters.data_frames.load(Ordering::Relaxed),
            raw_connections: self.counters.raw_connections.load(Ordering::Relaxed),
            active: self.counters.active.load(Ordering::Relaxed),
            evicted_idle: self.counters.evicted_idle.load(Ordering::Relaxed),
            evicted_stalled: self.counters.evicted_stalled.load(Ordering::Relaxed),
            shed: self.counters.shed.load(Ordering::Relaxed),
            rate_limited: self.counters.rate_limited.load(Ordering::Relaxed),
            quota_rejections: self.counters.quota_rejections.load(Ordering::Relaxed),
            push_dropped: self.counters.push_dropped.load(Ordering::Relaxed),
            slow_disconnects: self.counters.slow_disconnects.load(Ordering::Relaxed),
            resumed_subscriptions: self.counters.resumed_subscriptions.load(Ordering::Relaxed),
        }
    }
}

/// Converts engine counters into their wire representation.
pub fn wire_stats(stats: &ClusterStats) -> WireStats {
    WireStats {
        submitted: stats.submitted,
        rejected: stats.rejected,
        dropped: stats.dropped,
        ticks: stats.ticks,
        coalesced: stats.coalesced,
        panicked: stats.panicked,
    }
}

/// The running daemon: a thread-per-connection server multiplexing trace
/// streams into a shared [`ClusterEngine`].
///
/// ```
/// use ftio_core::server::{Server, ServerConfig, ServerListener};
/// use ftio_core::{ClusterConfig, FtioConfig};
/// use ftio_trace::wire::{Frame, FrameReader};
/// use std::io::Write;
///
/// let config = ServerConfig {
///     cluster: ClusterConfig {
///         shards: 1,
///         ftio: FtioConfig { sampling_freq: 2.0, ..Default::default() },
///         ..Default::default()
///     },
///     ..Default::default()
/// };
/// let server = Server::start(ServerListener::tcp("127.0.0.1:0").unwrap(), config).unwrap();
/// let mut client = std::net::TcpStream::connect(server.address()).unwrap();
/// Frame::Hello { name: "demo".into() }.write_to(&mut client).unwrap();
/// Frame::Data(b"{\"rank\":0,\"start\":0.0,\"end\":1.0,\"bytes\":1000,\"kind\":\"write\"}\n".to_vec())
///     .write_to(&mut client)
///     .unwrap();
/// Frame::End.write_to(&mut client).unwrap();
/// client.flush().unwrap();
/// let mut frames = FrameReader::new(client);
/// // Hello is acked with the resumable subscription window…
/// assert!(matches!(frames.read_frame().unwrap(), Some(Frame::Welcome { .. })));
/// // …and End with an Ack once every prior prediction is on the wire.
/// assert_eq!(frames.read_frame().unwrap(), Some(Frame::Ack));
/// let report = server.finish();
/// assert_eq!(report.cluster.ticks, 1);
/// ```
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    address: String,
}

impl Server {
    /// Binds the accept loop to `listener` and starts serving.
    pub fn start(listener: ServerListener, config: ServerConfig) -> io::Result<Server> {
        let address = listener.address();
        let shared = Arc::new(Shared {
            wake: listener.waker()?,
            engine: ClusterEngine::spawn(config.cluster),
            config,
            running: AtomicBool::new(true),
            counters: Counters::default(),
            conns: Mutex::new(HashMap::new()),
            names: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            epoch: Instant::now(),
        });
        let accept_shared = shared.clone();
        let accept = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(Server {
            shared,
            accept: Some(accept),
            address,
        })
    }

    /// The bound address: `host:port` for TCP (with the ephemeral port
    /// resolved), the socket path for Unix.
    pub fn address(&self) -> &str {
        &self.address
    }

    /// Whether the daemon is still accepting work (false once a client sent
    /// [`Frame::Shutdown`] or [`Server::shutdown`] was called).
    pub fn is_running(&self) -> bool {
        self.shared.running.load(Ordering::SeqCst)
    }

    /// Serving-side counters right now.
    pub fn server_stats(&self) -> ServerStats {
        self.shared.server_stats()
    }

    /// Engine counters right now (see [`ClusterStats`] for the invariant).
    pub fn cluster_stats(&self) -> ClusterStats {
        self.shared.engine.stats()
    }

    /// How many engine worker threads the daemon runs. This is the daemon's
    /// entire CPU-bound budget: connection threads only parse and route, and
    /// each worker runs its own transforms sequentially, so a serve process
    /// never oversubscribes past this count.
    pub fn worker_count(&self) -> usize {
        self.shared.engine.worker_count()
    }

    /// Initiates shutdown without blocking (the programmatic equivalent of a
    /// [`Frame::Shutdown`] from a client). Follow with [`Server::wait`].
    pub fn shutdown(&self) {
        self.shared.initiate_shutdown();
    }

    /// Blocks until the daemon shuts down (via a client's [`Frame::Shutdown`]
    /// or [`Server::shutdown`]), drains the shard queues, and returns the
    /// final report. Connection threads are joined before the queues are
    /// drained, so the report covers every accepted byte.
    pub fn wait(mut self) -> ServerReport {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        self.shared.engine.flush();
        let engine = &self.shared.engine;
        let predictions = engine.all_predictions();
        let published = predictions
            .keys()
            .map(|&app| (app, engine.resume_window(app).1))
            .collect();
        ServerReport {
            cluster: engine.stats(),
            server: self.shared.server_stats(),
            predictions,
            published,
            names: lock_recover(&self.shared.names).clone(),
        }
    }

    /// [`Server::shutdown`] + [`Server::wait`] in one call.
    pub fn finish(self) -> ServerReport {
        self.shutdown();
        self.wait()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Dropped without `wait()`: stop accepting and reap the threads so
        // nothing keeps running behind the caller's back.
        self.shared.initiate_shutdown();
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn accept_loop(listener: ServerListener, shared: Arc<Shared>) {
    // Readers never sleep past the idle deadline, which they enforce.
    let deadlines = [shared.config.read_timeout, shared.config.idle_timeout];
    let read_deadline = deadlines.into_iter().flatten().min();
    let mut next_id = 0u64;
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let accepted = listener.accept();
        // Shutdown wakes this thread by connecting to the listener; whatever
        // was accepted then is neither counted nor served.
        if !shared.running.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = accepted else {
            // Out of descriptors, say: back off rather than spin.
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        next_id += 1;
        let id = next_id;
        // Admission control. Only this thread increments `active`, so the
        // load-then-add pair cannot overshoot the limit.
        let active = shared.counters.active.load(Ordering::SeqCst);
        if active >= shared.config.max_connections as u64 {
            shared
                .counters
                .rejected_connections
                .fetch_add(1, Ordering::Relaxed);
            let mut stream = stream;
            let _ = stream.set_timeouts(None, shared.config.write_timeout);
            let _ = Frame::Error {
                message: format!(
                    "connection limit reached ({} active)",
                    shared.config.max_connections
                ),
                retry_after_ms: Some(shared.config.retry_after.as_millis() as u64),
            }
            .write_to(&mut stream);
            continue; // dropped → closed
        }
        // Socket deadlines from the first byte onwards.
        if stream
            .set_timeouts(read_deadline, shared.config.write_timeout)
            .is_err()
        {
            continue;
        }
        shared.counters.active.fetch_add(1, Ordering::SeqCst);
        shared.counters.accepted.fetch_add(1, Ordering::Relaxed);
        if let Ok(clone) = stream.try_clone() {
            lock_recover(&shared.conns).insert(id, clone);
        }
        let meta = Arc::new(ConnMeta::new(shared.now_ms()));
        let conn_shared = shared.clone();
        handles.push(std::thread::spawn(move || {
            handle_connection(&conn_shared, stream, id, &meta);
            lock_recover(&conn_shared.conns).remove(&id);
            conn_shared.counters.active.fetch_sub(1, Ordering::SeqCst);
        }));
        // Reap finished threads so a long-lived daemon doesn't accumulate
        // handles (dropping a finished handle is free).
        handles.retain(|h| !h.is_finished());
    }
    for handle in handles {
        let _ = handle.join();
    }
    #[cfg(unix)]
    if let ServerListener::Unix(_, path) = &listener {
        let _ = std::fs::remove_file(path);
    }
}

/// Routes one accepted connection: the first byte decides framed (wire
/// envelope, leads with [`FRAME_MAGIC`]) vs raw (anything sniffable — JSONL,
/// msgpack, gzip, …; no trace format starts with `0xFD`).
fn handle_connection(shared: &Arc<Shared>, stream: Stream, id: u64, meta: &Arc<ConnMeta>) {
    let mut reader = ConnReader {
        stream,
        shared,
        meta,
    };
    let mut first = [0u8; 1];
    loop {
        match reader.read(&mut first) {
            Ok(0) => return, // connected and closed without a byte
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout_kind(e.kind()) => {
                // No first byte yet: idle until the reader evicts it.
                if meta.evicted() || !shared.running.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
    }
    meta.touch(shared.now_ms());
    let Ok(writer) = reader.stream.try_clone() else {
        return;
    };
    if first[0] == FRAME_MAGIC[0] {
        framed_connection(shared, reader, writer, first[0], id, meta);
    } else {
        raw_connection(shared, reader, writer, first[0], id, meta);
    }
}

/// Counts a protocol error and tells the client why it is being closed.
fn protocol_error(shared: &Shared, writer: &Mutex<Stream>, message: String) {
    shared
        .counters
        .protocol_errors
        .fetch_add(1, Ordering::Relaxed);
    let _ = Frame::Error {
        message,
        retry_after_ms: None,
    }
    .write_to(&mut *lock_recover(writer));
}

/// Sends a frame to the client. `false` means the socket is gone and the
/// connection loop should end — never unwrap a peer-facing write.
fn send_frame(writer: &Mutex<Stream>, frame: &Frame) -> bool {
    frame.write_to(&mut *lock_recover(writer)).is_ok()
}

fn framed_connection(
    shared: &Arc<Shared>,
    read_half: ConnReader<'_>,
    write_half: Stream,
    first_byte: u8,
    id: u64,
    meta: &Arc<ConnMeta>,
) {
    let writer = Arc::new(Mutex::new(write_half));
    let mut frames = FrameReader::new(io::Cursor::new([first_byte]).chain(read_half));
    let mut app: Option<AppId> = None;
    let mut tenant: Option<String> = None;
    let mut pusher: Option<Pusher> = None;
    let retry_after_ms = shared.config.retry_after.as_millis() as u64;
    loop {
        let boundary = frames.offset();
        let frame = match frames.read_frame() {
            Ok(Some(frame)) => {
                meta.touch(shared.now_ms());
                frame
            }
            Ok(None) => break, // clean close at a frame boundary
            Err(e) if e.io_kind().is_some_and(is_timeout_kind) => {
                if meta.evicted() || !shared.running.load(Ordering::SeqCst) {
                    break; // evicted or shutting down
                }
                if frames.offset() == boundary {
                    // Idle between frames: legal until the idle deadline,
                    // which the reader enforces; we just keep listening.
                    continue;
                }
                // Stalled mid-frame: the client started a frame and stopped
                // feeding it within the read deadline. Evict immediately
                // with a positioned error.
                shared
                    .counters
                    .evicted_stalled
                    .fetch_add(1, Ordering::Relaxed);
                send_frame(
                    &writer,
                    &Frame::Error {
                        message: format!(
                            "connection {id}: stalled mid-frame at byte {} (read deadline exceeded)",
                            frames.offset()
                        ),
                        retry_after_ms: None,
                    },
                );
                break;
            }
            Err(e) => {
                if meta.evicted() || !shared.running.load(Ordering::SeqCst) {
                    break; // the failing socket was closed on purpose
                }
                // Malformed frame or mid-frame disconnect: close *this*
                // connection with the positioned error; everyone else keeps
                // serving.
                protocol_error(shared, &writer, format!("connection {id}: {e}"));
                break;
            }
        };
        match frame {
            Frame::Hello { name } => {
                if app.is_some() {
                    protocol_error(
                        shared,
                        &writer,
                        format!("connection {id}: second hello on one connection"),
                    );
                    break;
                }
                let hello = AppId::from_name(&name);
                let tenant_name = tenant_of(&name).to_string();
                match shared.tenant_admit(&tenant_name, hello) {
                    Ok(true) => tenant = Some(tenant_name),
                    Ok(false) => {}
                    Err(message) => {
                        shared
                            .counters
                            .quota_rejections
                            .fetch_add(1, Ordering::Relaxed);
                        send_frame(
                            &writer,
                            &Frame::Error {
                                message: format!("connection {id}: {message}"),
                                retry_after_ms: None,
                            },
                        );
                        break;
                    }
                }
                lock_recover(&shared.names).insert(hello, name);
                app = Some(hello);
                let (oldest_seq, next_seq) = shared.engine.resume_window(hello);
                if !send_frame(
                    &writer,
                    &Frame::Welcome {
                        app: hello,
                        oldest_seq,
                        next_seq,
                    },
                ) {
                    break;
                }
            }
            Frame::Data(bytes) => {
                let Some(app) = app else {
                    protocol_error(
                        shared,
                        &writer,
                        format!("connection {id}: data frame before hello"),
                    );
                    break;
                };
                if let Some(tenant) = tenant.as_deref() {
                    if let Err(wait_ms) = shared.tenant_debit(tenant, bytes.len() as u64) {
                        shared.counters.rate_limited.fetch_add(1, Ordering::Relaxed);
                        if !send_frame(
                            &writer,
                            &Frame::Error {
                                message: format!(
                                    "connection {id}: tenant `{tenant}` byte budget exhausted \
                                     ({} bytes refused)",
                                    bytes.len()
                                ),
                                retry_after_ms: Some(wait_ms.max(retry_after_ms)),
                            },
                        ) {
                            break;
                        }
                        continue; // frame shed; the connection stays open
                    }
                }
                shared.counters.data_frames.fetch_add(1, Ordering::Relaxed);
                let decoded = from_bytes_auto(None, app, bytes, shared.config.batch_size).and_then(
                    |(_, mut source)| shared.engine.replay(source.as_mut(), Pacing::AsFast),
                );
                match decoded {
                    Ok(replay) if replay.rejected > 0 => {
                        // Overload shedding: the engine refused submissions
                        // (full queue under Reject, or drain). Tell the
                        // client instead of silently losing them, and keep
                        // the connection alive — the work it already sent
                        // is preserved.
                        shared
                            .counters
                            .shed
                            .fetch_add(replay.rejected, Ordering::Relaxed);
                        let draining = !shared.running.load(Ordering::SeqCst);
                        if !send_frame(
                            &writer,
                            &Frame::Error {
                                message: format!(
                                    "connection {id}: {} submissions shed ({})",
                                    replay.rejected,
                                    if draining { "draining" } else { "queue full" }
                                ),
                                retry_after_ms: (!draining).then_some(retry_after_ms),
                            },
                        ) {
                            break;
                        }
                        if draining {
                            break;
                        }
                    }
                    Ok(_) => {}
                    Err(e) => {
                        protocol_error(shared, &writer, format!("connection {id}: {e}"));
                        break;
                    }
                }
            }
            Frame::Subscribe {
                app: filter,
                from_seq,
            } => {
                if from_seq.is_some() && filter.is_none() {
                    protocol_error(
                        shared,
                        &writer,
                        format!("connection {id}: subscribe with from_seq requires an application"),
                    );
                    break;
                }
                // One pusher per connection; a second subscribe narrows or
                // widens nothing — first filter wins.
                if pusher.is_none() {
                    if from_seq.is_some() {
                        shared
                            .counters
                            .resumed_subscriptions
                            .fetch_add(1, Ordering::Relaxed);
                    }
                    pusher = Some(Pusher::spawn(
                        shared,
                        writer.clone(),
                        filter,
                        from_seq,
                        meta.clone(),
                    ));
                }
            }
            Frame::End => {
                shared.engine.flush();
                if let Some(pusher) = &pusher {
                    pusher.barrier();
                }
                if !send_frame(&writer, &Frame::Ack) {
                    break;
                }
                meta.touch(shared.now_ms());
            }
            Frame::Shutdown => {
                // Stop the world first: close every other connection so no
                // new submissions arrive, *then* drain. Draining before the
                // stop livelocks under active ingest — feeders refill the
                // shard queues as fast as the flush empties them. The Stats
                // reply then reports a fully drained engine on the one
                // socket that was spared.
                shared.initiate_shutdown_except(Some(id));
                // Let the evicted peers wind down before draining: a peer
                // that had already read a frame may still be submitting it,
                // and a submission landing after the flush would make the
                // Stats reply unbalanced. Bounded, so one peer stuck in a
                // deadline-free write cannot wedge shutdown.
                let deadline = Instant::now() + BARRIER_TIMEOUT;
                while shared.counters.active.load(Ordering::SeqCst) > 1 && Instant::now() < deadline
                {
                    std::thread::sleep(Duration::from_millis(5));
                }
                shared.engine.flush();
                if let Some(pusher) = &pusher {
                    pusher.barrier();
                }
                let stats = wire_stats(&shared.engine.stats());
                send_frame(&writer, &Frame::Stats(stats));
                break;
            }
            Frame::Ack
            | Frame::Prediction(_)
            | Frame::Stats(_)
            | Frame::Welcome { .. }
            | Frame::Error { .. } => {
                protocol_error(
                    shared,
                    &writer,
                    format!("connection {id}: unexpected server-side frame from a client"),
                );
                break;
            }
        }
    }
    if let Some(tenant) = tenant {
        shared.tenant_release(&tenant);
    }
}

/// A raw connection: slurp to EOF (the client signals completion by closing
/// its write half, `nc` style), sniff, replay, answer with one summary line.
/// Reads go through the socket deadline; a connection that stops sending is
/// evicted once idle and its partial stream is discarded. A stream longer
/// than [`MAX_FRAME_LEN`] — the cap a framed client's `Data` frame has — is
/// refused with an error line and closed.
fn raw_connection(
    shared: &Arc<Shared>,
    mut read_half: ConnReader<'_>,
    mut write_half: Stream,
    first_byte: u8,
    id: u64,
    meta: &Arc<ConnMeta>,
) {
    shared
        .counters
        .raw_connections
        .fetch_add(1, Ordering::Relaxed);
    let mut bytes = vec![first_byte];
    let mut buf = [0u8; 8192];
    loop {
        match read_half.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                bytes.extend_from_slice(&buf[..n]);
                meta.touch(shared.now_ms());
                if bytes.len() > MAX_FRAME_LEN {
                    shared
                        .counters
                        .protocol_errors
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = write_half.write_all(
                        format!(
                            "# ftio error: connection {id}: raw stream exceeds the \
                             {MAX_FRAME_LEN}-byte cap\n"
                        )
                        .as_bytes(),
                    );
                    return;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) if is_timeout_kind(e.kind()) => {
                if meta.evicted() || !shared.running.load(Ordering::SeqCst) {
                    return; // evicted while idle: discard the partial stream
                }
                continue; // the reader owns the idle deadline
            }
            Err(_) => {
                shared
                    .counters
                    .protocol_errors
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
    if meta.evicted() {
        return; // the EOF was our own eviction, not a client close
    }
    let name = format!("raw-{id}");
    let app = AppId::from_name(&name);
    lock_recover(&shared.names).insert(app, name.clone());
    let outcome = from_bytes_auto(None, app, bytes, shared.config.batch_size)
        .and_then(|(_, mut source)| shared.engine.replay(source.as_mut(), Pacing::AsFast));
    match outcome {
        Ok(replay) => {
            shared.engine.flush();
            let published = shared.engine.resume_window(app).1;
            let line = match (published, shared.engine.predictions(app).pop()) {
                (0, _) => format!("# ftio {name}: no accepted submissions\n"),
                (_, Some(last)) => {
                    let period = match last.period() {
                        Some(seconds) => format!("{seconds:.3} s"),
                        None => "none".into(),
                    };
                    format!(
                        "# ftio {name}: {} batches, {published} predictions, period {period}, confidence {:.1} %\n",
                        replay.batches,
                        last.confidence() * 100.0
                    )
                }
                (_, None) => format!(
                    "# ftio {name}: {} batches, {published} predictions, none retained\n",
                    replay.batches
                ),
            };
            let _ = write_half.write_all(line.as_bytes());
        }
        Err(e) => {
            shared
                .counters
                .protocol_errors
                .fetch_add(1, Ordering::Relaxed);
            let _ = write_half.write_all(format!("# ftio error: {e}\n").as_bytes());
        }
    }
}

/// The per-connection subscription pusher: forwards [`PredictionEvent`]s from
/// the engine to the client as [`Frame::Prediction`]s, and answers flush
/// barriers so `End` can guarantee every prediction for already-sent data is
/// on the wire before the `Ack`.
///
/// Its thread blocks on one channel that carries, in order, the engine's
/// events, `End` barriers and the stop message. Between that channel and the
/// socket sits a *bounded* queue of [`ServerConfig::push_queue`] events: a
/// subscriber that reads slower than its feed either loses the oldest queued
/// updates ([`SlowSubscriberPolicy::DropOldest`]) or is disconnected
/// ([`SlowSubscriberPolicy::Disconnect`]) — it can never grow server memory
/// without bound or wedge a shard worker. Dropping the handle stops and
/// joins the thread, which unsubscribes on its way out.
struct Pusher {
    tx: mpsc::Sender<PushMsg>,
    handle: Option<JoinHandle<()>>,
}

/// What a pusher thread receives. The event is boxed: it is many times the
/// size of the other messages.
enum PushMsg {
    Event(Box<PredictionEvent>),
    /// Dropped, which releases its waiter, once every event received before
    /// it is written.
    Barrier(mpsc::Sender<()>),
    Stop,
}

impl Pusher {
    fn spawn(
        shared: &Arc<Shared>,
        writer: Arc<Mutex<Stream>>,
        filter: Option<AppId>,
        from_seq: Option<u64>,
        meta: Arc<ConnMeta>,
    ) -> Pusher {
        let (tx, rx) = mpsc::channel();
        let events = tx.clone();
        let subscription = shared.engine.register(
            filter,
            from_seq,
            Box::new(move |event| events.send(PushMsg::Event(Box::new(event))).is_ok()),
        );
        let shared = shared.clone();
        let handle = std::thread::spawn(move || {
            pusher_loop(&shared, &rx, &writer, &meta);
            shared.engine.unsubscribe(subscription);
        });
        Pusher {
            tx,
            handle: Some(handle),
        }
    }

    /// Blocks until every event already sent to the pusher is written to the
    /// client. Call after [`ClusterEngine::flush`], which guarantees all
    /// ticks for prior submissions have been published.
    fn barrier(&self) {
        let (ack, acked) = mpsc::channel();
        if self.tx.send(PushMsg::Barrier(ack)).is_ok() {
            let _ = acked.recv_timeout(BARRIER_TIMEOUT);
        }
    }
}

impl Drop for Pusher {
    fn drop(&mut self) {
        let _ = self.tx.send(PushMsg::Stop);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn pusher_loop(
    shared: &Shared,
    rx: &mpsc::Receiver<PushMsg>,
    writer: &Mutex<Stream>,
    meta: &ConnMeta,
) {
    let capacity = shared.config.push_queue.max(1);
    let policy = shared.config.slow_policy;
    let mut queue: VecDeque<PredictionEvent> = VecDeque::with_capacity(capacity.min(64));
    let mut barriers = Vec::new();
    'conn: loop {
        // Block only when there is nothing to write.
        let blocked = if queue.is_empty() {
            let Ok(message) = rx.recv() else { break };
            Some(message)
        } else {
            None
        };
        // Move everything received into the bounded queue, applying the
        // slow-subscriber policy on overflow.
        for message in blocked.into_iter().chain(rx.try_iter()) {
            let event = match message {
                PushMsg::Event(event) => event,
                PushMsg::Barrier(ack) => {
                    barriers.push(ack);
                    continue;
                }
                PushMsg::Stop => break 'conn,
            };
            if queue.len() >= capacity {
                match policy {
                    SlowSubscriberPolicy::DropOldest => {
                        queue.pop_front();
                        shared.counters.push_dropped.fetch_add(1, Ordering::Relaxed);
                    }
                    SlowSubscriberPolicy::Disconnect => {
                        shared
                            .counters
                            .slow_disconnects
                            .fetch_add(1, Ordering::Relaxed);
                        meta.evicted.store(true, Ordering::SeqCst);
                        let guard = lock_recover(writer);
                        let _ = Frame::Error {
                            message: format!(
                                "slow subscriber: push queue overflow at {capacity} \
                                 queued predictions"
                            ),
                            retry_after_ms: None,
                        }
                        .write_to(&mut *{ guard });
                        // Shut the socket down so the reader side unblocks
                        // and the connection dies whole.
                        lock_recover(writer).close();
                        break 'conn;
                    }
                }
            }
            queue.push_back(*event);
        }
        // Write one queued event per pass, so draining the channel and
        // writing interleave and the queue bound is honest.
        if let Some(event) = queue.pop_front() {
            let update = PredictionUpdate {
                app: event.app,
                seq: event.seq,
                time: event.prediction.time,
                period: event.prediction.period(),
                confidence: event.prediction.confidence(),
            };
            match Frame::Prediction(update).write_to(&mut *lock_recover(writer)) {
                Ok(()) => meta.touch(shared.now_ms()),
                Err(e) if is_timeout_kind(e.kind()) => {
                    // The write deadline expired with the frame half on the
                    // wire: the subscriber is alive but not reading. The
                    // stream is no longer frame-aligned, so the only sound
                    // policy — whichever was configured — is to disconnect.
                    shared
                        .counters
                        .slow_disconnects
                        .fetch_add(1, Ordering::Relaxed);
                    meta.evicted.store(true, Ordering::SeqCst);
                    lock_recover(writer).close();
                    break;
                }
                Err(_) => break, // client gone
            }
        }
        if queue.is_empty() {
            barriers.clear(); // everything received before them is written
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FtioConfig;
    use ftio_trace::IoRequest;

    fn test_config(shards: usize) -> ServerConfig {
        ServerConfig {
            max_connections: 8,
            batch_size: 64,
            cluster: ClusterConfig {
                shards,
                // One tick per submission — keeps frame/tick counts exact.
                max_batch: 1,
                ftio: FtioConfig {
                    sampling_freq: 2.0,
                    use_autocorrelation: false,
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        }
    }

    fn periodic_jsonl(app_period: f64, bursts: usize) -> Vec<u8> {
        let requests: Vec<IoRequest> = (0..bursts)
            .map(|i| {
                let start = i as f64 * app_period;
                IoRequest::write(0, start, start + 2.0, 1_000_000_000)
            })
            .collect();
        ftio_trace::jsonl::encode_requests(&requests).into_bytes()
    }

    #[test]
    fn framed_tcp_session_end_to_end() {
        let server =
            Server::start(ServerListener::tcp("127.0.0.1:0").unwrap(), test_config(2)).unwrap();
        let mut client = TcpStream::connect(server.address()).unwrap();
        Frame::Hello {
            name: "app-a".into(),
        }
        .write_to(&mut client)
        .unwrap();
        Frame::Subscribe {
            app: Some(AppId::from_name("app-a")),
            from_seq: None,
        }
        .write_to(&mut client)
        .unwrap();
        // Two data frames, then a flush.
        let jsonl = periodic_jsonl(10.0, 12);
        let half = jsonl.len() / 2;
        // Frames must carry whole records: split at a line boundary.
        let cut = jsonl[..half]
            .iter()
            .rposition(|&b| b == b'\n')
            .map(|p| p + 1)
            .unwrap();
        Frame::Data(jsonl[..cut].to_vec())
            .write_to(&mut client)
            .unwrap();
        Frame::Data(jsonl[cut..].to_vec())
            .write_to(&mut client)
            .unwrap();
        Frame::End.write_to(&mut client).unwrap();
        client.flush().unwrap();
        let mut frames = FrameReader::new(client.try_clone().unwrap());
        // Hello is acknowledged with the (empty) resume window.
        match frames.read_frame().unwrap() {
            Some(Frame::Welcome {
                app,
                oldest_seq,
                next_seq,
            }) => {
                assert_eq!(app, AppId::from_name("app-a"));
                assert_eq!((oldest_seq, next_seq), (0, 0));
            }
            other => panic!("expected welcome, got {other:?}"),
        }
        // Every prediction for the two data frames arrives before the Ack.
        let mut predictions = Vec::new();
        loop {
            match frames.read_frame().unwrap().expect("server closed early") {
                Frame::Prediction(update) => predictions.push(update),
                Frame::Ack => break,
                other => panic!("unexpected frame {other:?}"),
            }
        }
        assert_eq!(predictions.len(), 2, "one tick per data frame");
        assert!(predictions
            .iter()
            .all(|p| p.app == AppId::from_name("app-a")));
        // Sequence numbers are dense from zero.
        assert_eq!(
            predictions.iter().map(|p| p.seq).collect::<Vec<_>>(),
            vec![0, 1]
        );
        let last = predictions.last().unwrap();
        let period = last.period.expect("periodic input");
        assert!((period - 10.0).abs() < 1.5, "period {period}");
        // Shutdown drains and reports balanced stats.
        Frame::Shutdown.write_to(&mut client).unwrap();
        match frames.read_frame().unwrap() {
            Some(Frame::Stats(stats)) => {
                assert!(stats.is_balanced(), "{stats:?}");
                assert_eq!(stats.ticks, 2);
            }
            other => panic!("expected stats, got {other:?}"),
        }
        let report = server.wait();
        assert_eq!(report.server.accepted, 1);
        assert_eq!(report.server.protocol_errors, 0);
        assert_eq!(report.cluster.ticks, 2);
        assert_eq!(report.predictions[&AppId::from_name("app-a")].len(), 2);
    }

    /// A connection that subscribes to its own application and closes leaves
    /// no subscription in the engine, although that application never
    /// publishes again to reveal the dead receiver.
    #[test]
    fn closed_subscribed_sessions_leave_no_subscriptions() {
        let server =
            Server::start(ServerListener::tcp("127.0.0.1:0").unwrap(), test_config(1)).unwrap();
        for session in 0..5 {
            let name = format!("once-{session}");
            let mut client = TcpStream::connect(server.address()).unwrap();
            for frame in [
                Frame::Hello { name: name.clone() },
                Frame::Subscribe {
                    app: Some(AppId::from_name(&name)),
                    from_seq: None,
                },
                Frame::Data(periodic_jsonl(10.0, 4)),
                Frame::End,
            ] {
                frame.write_to(&mut client).unwrap();
            }
            let mut frames = FrameReader::new(client);
            while frames.read_frame().unwrap() != Some(Frame::Ack) {}
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.server_stats().active > 0 {
            assert!(Instant::now() < deadline, "connections never closed");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.shared.engine.subscriber_count(), 0);
        let report = server.finish();
        assert_eq!(report.cluster.ticks, 5);
    }

    #[cfg(unix)]
    #[test]
    fn raw_unix_connection_gets_a_summary_line() {
        let path = std::env::temp_dir().join("ftio_server_raw_test.sock");
        let server = Server::start(ServerListener::unix(&path).unwrap(), test_config(1)).unwrap();
        let mut client = UnixStream::connect(&path).unwrap();
        client.write_all(&periodic_jsonl(10.0, 12)).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        assert!(reply.starts_with("# ftio raw-"), "{reply}");
        assert!(reply.contains("period 10."), "{reply}");
        let report = server.finish();
        assert_eq!(report.server.raw_connections, 1);
        assert_eq!(report.cluster.ticks, 1);
        assert!(!path.exists(), "socket file not cleaned up");
    }

    #[test]
    fn gzipped_raw_stream_is_decompressed() {
        let server =
            Server::start(ServerListener::tcp("127.0.0.1:0").unwrap(), test_config(1)).unwrap();
        let mut client = TcpStream::connect(server.address()).unwrap();
        let gz = flate2::gzip_stored(&periodic_jsonl(8.0, 10));
        client.write_all(&gz).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        assert!(reply.contains("period 8."), "{reply}");
        let report = server.finish();
        assert_eq!(report.cluster.ticks, 1);
        assert!(report.server.protocol_errors == 0, "{:?}", report.server);
    }

    #[test]
    fn slow_subscriber_policies_parse_and_render() {
        for policy in [
            SlowSubscriberPolicy::DropOldest,
            SlowSubscriberPolicy::Disconnect,
        ] {
            assert_eq!(SlowSubscriberPolicy::parse(policy.as_str()), Ok(policy));
        }
        assert!(SlowSubscriberPolicy::parse("never").is_err());
    }

    #[test]
    fn tenant_names_derive_from_hello_names() {
        assert_eq!(tenant_of("acme/run-17"), "acme");
        assert_eq!(tenant_of("acme"), "acme");
        assert_eq!(tenant_of("a/b/c"), "a");
        assert_eq!(tenant_of(""), "");
    }

    #[test]
    fn tenant_quotas_are_enforced_atomically() {
        let mut policy = TenantPolicy::default();
        policy.tenants.insert(
            "acme".into(),
            TenantQuota {
                max_connections: 1,
                max_apps: 2,
                ..Default::default()
            },
        );
        let config = ServerConfig {
            tenants: policy,
            ..test_config(1)
        };
        let shared = Shared {
            engine: ClusterEngine::spawn(config.cluster),
            config,
            running: AtomicBool::new(true),
            counters: Counters::default(),
            conns: Mutex::new(HashMap::new()),
            names: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            epoch: Instant::now(),
            wake: Box::new(|| {}),
        };
        let app_a = AppId::from_name("acme/a");
        let app_b = AppId::from_name("acme/b");
        // First connection admitted; second bounces off the conn quota.
        assert_eq!(shared.tenant_admit("acme", app_a), Ok(true));
        let err = shared.tenant_admit("acme", app_a).unwrap_err();
        assert!(err.contains("connection quota"), "{err}");
        // Releasing frees the slot; a second distinct app fits (quota 2)…
        shared.tenant_release("acme");
        assert_eq!(shared.tenant_admit("acme", app_b), Ok(true));
        shared.tenant_release("acme");
        // …but a third distinct app exceeds max_apps even with free slots.
        let app_c = AppId::from_name("acme/c");
        let err = shared.tenant_admit("acme", app_c).unwrap_err();
        assert!(err.contains("application quota"), "{err}");
        // Tenants without any quota are exempt.
        assert_eq!(shared.tenant_admit("other", app_c), Ok(false));
    }

    #[test]
    fn tenant_token_bucket_debits_and_refills() {
        let mut policy = TenantPolicy::default();
        policy.tenants.insert(
            "metered".into(),
            TenantQuota {
                bytes_per_sec: 1000.0,
                burst_bytes: 1000.0,
                ..Default::default()
            },
        );
        let config = ServerConfig {
            tenants: policy,
            ..test_config(1)
        };
        let shared = Shared {
            engine: ClusterEngine::spawn(config.cluster),
            config,
            running: AtomicBool::new(true),
            counters: Counters::default(),
            conns: Mutex::new(HashMap::new()),
            names: Mutex::new(HashMap::new()),
            tenants: Mutex::new(HashMap::new()),
            epoch: Instant::now(),
            wake: Box::new(|| {}),
        };
        let app = AppId::from_name("metered/app");
        assert_eq!(shared.tenant_admit("metered", app), Ok(true));
        // The burst allows 1000 bytes up front; the next debit is refused
        // with a wait proportional to the deficit.
        assert!(shared.tenant_debit("metered", 800).is_ok());
        let wait = shared.tenant_debit("metered", 800).unwrap_err();
        assert!(wait >= 1, "wait {wait}ms");
        // After enough simulated refill time the debit succeeds again.
        std::thread::sleep(Duration::from_millis(700));
        assert!(shared.tenant_debit("metered", 600).is_ok());
    }
}

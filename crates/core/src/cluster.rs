//! Sharded multi-application prediction engine.
//!
//! The paper's online mode (§II-D) runs one FTIO evaluation per application
//! whenever that application appends new I/O data. Monitoring a whole
//! cluster means serving *hundreds* of applications concurrently, and with
//! PR 2's allocation-free spectral path the per-tick analysis is cheap enough
//! that dispatch — not the FFT — becomes the scaling bottleneck.
//! [`ClusterEngine`] addresses that with the standard
//! classification-at-line-rate recipe:
//!
//! * **Sharding** — applications are hashed ([`AppId::shard_index`]) onto a
//!   fixed pool of predictor workers. Each shard owns the
//!   [`OnlinePredictor`] state of its applications exclusively — including
//!   each application's persistent `IncrementalSampler`, so a tick folds only
//!   the newly flushed requests instead of re-binning the full history —
//!   and each worker thread keeps its own warm FFT plan cache
//!   (`ftio_dsp::plan_cache` is thread-local).
//! * **Bounded queues with explicit backpressure** — every shard has a
//!   bounded submission queue; when it fills, the caller-selected
//!   [`BackpressurePolicy`] decides whether the producer blocks, the oldest
//!   queued submission is evicted, or the new submission is rejected.
//! * **Batched flushes** — a worker drains its whole queue at once and
//!   coalesces up to [`ClusterConfig::max_batch`] consecutive submissions of
//!   the same application into a single detection tick (ingest everything,
//!   predict once at the latest timestamp), so a burst of appends costs one
//!   FFT instead of many.
//!
//! One shard with `max_batch = 1` is the single-application case of the
//! paper's Fig. 5: one worker, one prediction per submission.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use ftio_dsp::plan_cache::{self, PlanCacheStats};
use ftio_trace::msgpack::{write_array_header, write_str, write_uint, Reader};
use ftio_trace::source::TraceSource;
use ftio_trace::{snapshot, AppId, IoRequest, TraceResult};

use crate::checkpoint;
use crate::config::FtioConfig;
use crate::online::{OnlinePrediction, OnlinePredictor, WindowStrategy};
use crate::sampling::RetentionPolicy;

/// Locks a mutex, recovering the guarded data if a previous holder panicked.
///
/// Every shared structure in this module is kept consistent across panics:
/// counters are atomics, queue bookkeeping runs in short non-panicking
/// critical sections, and the fallible per-application analysis is confined
/// to `catch_unwind` inside the shard worker. A poisoned lock therefore only
/// means "some thread died elsewhere" — the data behind it is still valid,
/// and the remaining shards must keep serving rather than propagate the
/// crash to every caller.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What happens when a submission meets a full shard queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackpressurePolicy {
    /// The submitting thread blocks until the shard worker frees a slot —
    /// lossless, propagates pressure to the producer.
    #[default]
    Block,
    /// The oldest queued submission of the shard is evicted to make room —
    /// lossy but wait-free; freshest data wins (a stale tick is worth little
    /// to a predictor anyway).
    DropOldest,
    /// The new submission is refused and the caller told so — lossless for
    /// queued work, lets the caller retry or shed load itself.
    Reject,
}

impl BackpressurePolicy {
    /// Parses a policy name as used by the `ftio cluster` command line.
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "block" => Some(BackpressurePolicy::Block),
            "drop-oldest" | "drop_oldest" | "drop" => Some(BackpressurePolicy::DropOldest),
            "reject" => Some(BackpressurePolicy::Reject),
            _ => None,
        }
    }

    /// The canonical lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            BackpressurePolicy::Block => "block",
            BackpressurePolicy::DropOldest => "drop-oldest",
            BackpressurePolicy::Reject => "reject",
        }
    }
}

/// Configuration of a [`ClusterEngine`].
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of shards — the routing/state partitions applications hash
    /// onto (zero is clamped to one). With [`ClusterConfig::threads`] at its
    /// default this is also the worker-thread count.
    pub shards: usize,
    /// Bounded capacity of each shard's submission queue (zero is clamped to
    /// one).
    pub queue_capacity: usize,
    /// Maximum number of queued submissions of one application coalesced into
    /// a single detection tick. `1` disables coalescing: every submission gets
    /// its own prediction.
    pub max_batch: usize,
    /// Policy applied when a shard queue is full.
    pub policy: BackpressurePolicy,
    /// Analysis configuration handed to every per-application predictor.
    pub ftio: FtioConfig,
    /// Window strategy handed to every per-application predictor.
    pub strategy: WindowStrategy,
    /// Bin retention handed to every per-application predictor's sampler,
    /// which can bound a long-horizon deployment's bin buffers. A library
    /// setting: no `ftio` flag selects it, so `ftio serve` keeps every bin.
    pub memory: RetentionPolicy,
    /// Worker threads serving the shard queues. `0` (the default) keeps the
    /// historical one-worker-per-shard layout; any other value spawns
    /// `min(threads, shards)` workers, each owning the shards congruent to
    /// its index modulo the worker count. This decouples the sharding layout
    /// (application routing and state partitioning, which affect snapshot
    /// compatibility and batching) from the physical parallelism (how many
    /// OS threads actually run predictions), so a 16-shard engine can run on
    /// a 4-core box without 16 idle threads. The field is deliberately *not*
    /// serialised into snapshots — it is a deployment knob, not engine
    /// state — so [`ClusterEngine::restore`] comes back in the legacy
    /// layout unless the caller re-applies a thread budget.
    pub threads: usize,
    /// Predictions retained per application, in a bounded ring that is the
    /// engine's only prediction store: a reconnecting subscriber replays from
    /// it ([`ClusterEngine::subscribe_from`]), and [`ClusterEngine::finish`]
    /// and the other history accessors return it. `0` retains nothing; events
    /// still carry sequence numbers. Callers that need every prediction
    /// subscribe before they submit. Like [`threads`](ClusterConfig::threads)
    /// this is a deployment knob, not engine state, and is *not* serialised.
    pub resume_ring: usize,
}

/// Default [`ClusterConfig::resume_ring`]: predictions retained per application.
pub const DEFAULT_RESUME_RING: usize = 64;

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 4,
            queue_capacity: 256,
            max_batch: 16,
            policy: BackpressurePolicy::default(),
            ftio: FtioConfig::default(),
            strategy: WindowStrategy::default(),
            memory: RetentionPolicy::KeepAll,
            threads: 0,
            resume_ring: DEFAULT_RESUME_RING,
        }
    }
}

/// Result of a [`ClusterEngine::submit`] call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SubmitOutcome {
    /// The submission was queued.
    Enqueued,
    /// The submission was queued after evicting this many older submissions
    /// (only under [`BackpressurePolicy::DropOldest`]).
    EnqueuedAfterDrop(usize),
    /// The submission was refused: the queue was full under
    /// [`BackpressurePolicy::Reject`], or the engine is shutting down.
    Rejected,
}

impl SubmitOutcome {
    /// Whether the submission made it into a queue.
    pub fn accepted(self) -> bool {
        !matches!(self, SubmitOutcome::Rejected)
    }
}

/// How [`ClusterEngine::replay`] paces submissions relative to the recorded
/// timeline of the source.
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
    /// Parses a pacing name as used by the `ftio replay` command line:
    /// `as-fast` or `recorded[:<speedup>]`.
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

/// Counters of one [`ClusterEngine::replay`] run. Together with
/// [`ClusterStats`] the books balance: every replayed batch is either
/// accepted or rejected, and `accepted == submitted - rejected` on the
/// engine side when the replay was the engine's only producer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Batches pulled from the source.
    pub batches: u64,
    /// Requests carried by those batches (bin batches count their converted
    /// request view).
    pub requests: u64,
    /// Submissions the engine accepted (queued, possibly after eviction).
    pub accepted: u64,
    /// Submissions the engine refused (full queue under `Reject`, shutdown).
    pub rejected: u64,
}

/// Aggregate counters of a [`ClusterEngine`].
///
/// Invariant (observable after [`ClusterEngine::flush`]): every accepted
/// submission is either the first member of a tick (completed or panicked)
/// or coalesced into one, so
/// `ticks + panicked + coalesced + dropped == submitted - rejected`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Submissions handed to [`ClusterEngine::submit`].
    pub submitted: u64,
    /// Submissions refused (full queue under `Reject`, or engine closed).
    pub rejected: u64,
    /// Submissions evicted by the `DropOldest` policy before being processed.
    pub dropped: u64,
    /// Detection ticks executed (one prediction each).
    pub ticks: u64,
    /// Submissions that were merged into another submission's tick.
    pub coalesced: u64,
    /// Ticks whose analysis panicked. The owning application's predictor
    /// state is discarded (it restarts fresh on its next submission); the
    /// shard keeps serving every other application.
    pub panicked: u64,
}

/// Each application's last [`ClusterConfig::resume_ring`] predictions, as
/// returned by [`ClusterEngine::finish`].
pub type AppPredictions = HashMap<AppId, Vec<OnlinePrediction>>;

/// One prediction pushed to a [`ClusterEngine::subscribe`] receiver.
#[derive(Clone, Debug)]
pub struct PredictionEvent {
    /// The application the prediction belongs to.
    pub app: AppId,
    /// Monotonic per-application sequence number assigned at publish time.
    /// The first prediction of an application is seq 0; a subscriber that
    /// saw seq `n` resumes with [`ClusterEngine::subscribe_from`] at `n + 1`.
    pub seq: u64,
    /// The prediction itself.
    pub prediction: OnlinePrediction,
}

/// A registered subscription: its id, the filter (`None` = every
/// application) and the sink, which returns `false` once its receiving end
/// is gone. Dead sinks are pruned by the shard workers on the next publish.
type Subscriber = (u64, Option<AppId>, EventSink);
pub(crate) type EventSink = Box<dyn Fn(PredictionEvent) -> bool + Send>;

/// Sequenced publish history of one application: the next sequence number to
/// assign plus a bounded ring of the most recently published predictions,
/// the last of which carries `next_seq - 1`.
#[derive(Default)]
struct SeqRing {
    next_seq: u64,
    entries: VecDeque<OnlinePrediction>,
}

impl SeqRing {
    fn oldest_seq(&self) -> u64 {
        self.next_seq - self.entries.len() as u64
    }
}

/// All subscription state behind one lock: live subscribers plus the per-app
/// resume rings, which are the engine's only record of predictions. Keeping
/// both under a single mutex is what makes
/// [`ClusterEngine::subscribe_from`] exact — the ring replay and the
/// registration happen atomically with respect to publishes, so a resuming
/// subscriber can neither miss an event published in between nor receive one
/// twice.
struct SubscriptionHub {
    subscribers: Vec<Subscriber>,
    last_id: u64,
    rings: HashMap<AppId, SeqRing>,
    ring_capacity: usize,
}

/// One queued unit of work: freshly appended requests plus the time at which
/// the application asked for a prediction.
struct Submission {
    app: AppId,
    requests: Vec<IoRequest>,
    now: f64,
    /// Makes the tick panic inside the shard worker — always `false` outside
    /// the fault-isolation tests (see `ClusterEngine::submit_fault`).
    poison: bool,
}

enum QueueItem {
    Work(Submission),
    /// Test-only: parks the shard worker on a gate so tests can saturate the
    /// queue deterministically.
    #[cfg(test)]
    Stall(Arc<tests::Gate>),
}

struct ShardState {
    items: VecDeque<QueueItem>,
    /// Queued plus in-flight items whose results are not yet visible.
    pending: usize,
    closed: bool,
    dropped: u64,
}

/// Wakes a cluster worker that may be serving *several* shard queues: a
/// monotonically increasing sequence number bumped whenever any of the
/// worker's queues gains an item or closes. The worker reads the sequence,
/// scans its queues, and only parks if the sequence has not moved — the
/// classic seqlock-style guard against the missed-wakeup race between "all
/// queues looked empty" and "the worker went to sleep".
struct WorkerSignal {
    seq: Mutex<u64>,
    cond: Condvar,
}

impl WorkerSignal {
    fn new() -> Self {
        WorkerSignal {
            seq: Mutex::new(0),
            cond: Condvar::new(),
        }
    }

    /// Records an event (item enqueued, queue closed) and wakes the worker.
    fn bump(&self) {
        let mut seq = lock_recover(&self.seq);
        *seq = seq.wrapping_add(1);
        self.cond.notify_all();
    }

    /// The sequence to snapshot *before* scanning the queues.
    fn current(&self) -> u64 {
        *lock_recover(&self.seq)
    }

    /// Parks until the sequence moves past the pre-scan snapshot. Returns
    /// immediately if an event already arrived while the worker was scanning.
    fn wait_past(&self, seen: u64) {
        let mut seq = lock_recover(&self.seq);
        while *seq == seen {
            seq = self.cond.wait(seq).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// The three states a non-blocking queue drain can find.
enum Drained {
    /// Items were drained; the worker must process them and call
    /// [`ShardQueue::complete`].
    Batch(Vec<QueueItem>),
    /// Nothing queued right now, but producers may still submit.
    Empty,
    /// Closed and fully drained — this queue will never yield work again.
    Closed,
}

/// A bounded MPSC queue with selectable overflow behaviour, a drain-everything
/// consumer side, and an idle signal for [`ClusterEngine::flush`].
struct ShardQueue {
    state: Mutex<ShardState>,
    /// Signalled when slots free up (blocked producers wait here).
    not_full: Condvar,
    /// Signalled when `pending` reaches zero (`flush` waits here).
    idle: Condvar,
    /// Shared wakeup line of the worker serving this queue (a worker may
    /// serve several queues, so this lives outside the per-queue condvars).
    signal: Arc<WorkerSignal>,
    capacity: usize,
}

impl ShardQueue {
    fn new(capacity: usize, signal: Arc<WorkerSignal>) -> Self {
        ShardQueue {
            state: Mutex::new(ShardState {
                items: VecDeque::new(),
                pending: 0,
                closed: false,
                dropped: 0,
            }),
            not_full: Condvar::new(),
            idle: Condvar::new(),
            signal,
            capacity: capacity.max(1),
        }
    }

    fn push(&self, item: QueueItem, policy: BackpressurePolicy) -> SubmitOutcome {
        let mut state = lock_recover(&self.state);
        let mut evicted = 0usize;
        loop {
            if state.closed {
                return SubmitOutcome::Rejected;
            }
            if state.items.len() < self.capacity {
                break;
            }
            match policy {
                BackpressurePolicy::Block => {
                    state = self
                        .not_full
                        .wait(state)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                BackpressurePolicy::DropOldest => {
                    state.items.pop_front();
                    state.pending -= 1;
                    state.dropped += 1;
                    evicted += 1;
                }
                BackpressurePolicy::Reject => return SubmitOutcome::Rejected,
            }
        }
        state.items.push_back(item);
        state.pending += 1;
        drop(state);
        self.signal.bump();
        if evicted > 0 {
            SubmitOutcome::EnqueuedAfterDrop(evicted)
        } else {
            SubmitOutcome::Enqueued
        }
    }

    /// Drains the whole queue without blocking; [`Drained`] tells the worker
    /// whether to process, move on, or retire this queue.
    fn try_pop_all(&self) -> Drained {
        let mut state = lock_recover(&self.state);
        if state.items.is_empty() {
            if state.closed {
                Drained::Closed
            } else {
                Drained::Empty
            }
        } else {
            let batch: Vec<QueueItem> = state.items.drain(..).collect();
            self.not_full.notify_all();
            Drained::Batch(batch)
        }
    }

    /// Marks `count` drained items as fully processed (results visible).
    fn complete(&self, count: usize) {
        let mut state = lock_recover(&self.state);
        state.pending -= count;
        if state.pending == 0 {
            self.idle.notify_all();
        }
    }

    fn wait_idle(&self) {
        let mut state = lock_recover(&self.state);
        while state.pending > 0 {
            state = self
                .idle
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn close(&self) {
        let mut state = lock_recover(&self.state);
        state.closed = true;
        self.not_full.notify_all();
        drop(state);
        self.signal.bump();
    }

    fn dropped(&self) -> u64 {
        lock_recover(&self.state).dropped
    }
}

#[derive(Default)]
struct SharedCounters {
    submitted: AtomicU64,
    rejected: AtomicU64,
    ticks: AtomicU64,
    coalesced: AtomicU64,
    panicked: AtomicU64,
    /// `dropped` carried over by [`ClusterEngine::restore`]: the live drop
    /// count is owned by the shard queues (which restart at zero), so the
    /// pre-snapshot drops are kept as a baseline added in
    /// [`ClusterEngine::stats`].
    dropped_restored: AtomicU64,
}

/// Sharded, batching, backpressured multi-application prediction engine — the
/// "monitor a whole cluster" deployment of the paper's online mode.
///
/// ```
/// use ftio_core::{BackpressurePolicy, ClusterConfig, ClusterEngine, FtioConfig};
/// use ftio_trace::{AppId, IoRequest};
///
/// let engine = ClusterEngine::spawn(ClusterConfig {
///     shards: 2,
///     ftio: FtioConfig { sampling_freq: 2.0, use_autocorrelation: false, ..Default::default() },
///     ..Default::default()
/// });
/// // Two applications, each writing a burst every 10 s.
/// for tick in 0..8 {
///     let start = tick as f64 * 10.0;
///     for app in 0..2u64 {
///         let burst = vec![IoRequest::write(0, start, start + 2.0, 1_000_000_000)];
///         engine.submit(AppId::new(app), burst, start + 2.0);
///     }
/// }
/// let results = engine.finish();
/// assert_eq!(results.len(), 2);
/// for history in results.values() {
///     let period = history.last().unwrap().period().expect("periodic");
///     assert!((period - 10.0).abs() < 1.5);
/// }
/// ```
pub struct ClusterEngine {
    shards: Vec<Arc<ShardQueue>>,
    handles: Vec<JoinHandle<()>>,
    /// Per-shard predictor state, shared with the owning worker. A worker
    /// only touches the maps of its own shards (and only between queue
    /// drains), so contention is nil; sharing them with the engine handle is
    /// what makes [`ClusterEngine::snapshot`] and [`ClusterEngine::restore`]
    /// possible.
    predictors: Vec<Arc<Mutex<HashMap<AppId, OnlinePredictor>>>>,
    counters: Arc<SharedCounters>,
    plan_stats: Arc<Mutex<Vec<PlanCacheStats>>>,
    hub: Arc<Mutex<SubscriptionHub>>,
    workers: usize,
    config: ClusterConfig,
}

impl ClusterEngine {
    /// Spawns the cluster workers and returns the engine handle.
    ///
    /// [`ClusterConfig::threads`] decides the worker layout: `0` spawns one
    /// worker per shard (the historical behaviour), `n > 0` spawns
    /// `min(n, shards)` workers, worker `w` owning every shard `i` with
    /// `i % workers == w`. Application routing, batching and snapshots are
    /// identical in both layouts.
    pub fn spawn(config: ClusterConfig) -> Self {
        let shards = config.shards.max(1);
        let workers = if config.threads == 0 {
            shards
        } else {
            config.threads.min(shards).max(1)
        };
        let counters = Arc::new(SharedCounters::default());
        let plan_stats = Arc::new(Mutex::new(vec![PlanCacheStats::default(); workers]));
        let hub = Arc::new(Mutex::new(SubscriptionHub {
            subscribers: Vec::new(),
            last_id: 0,
            rings: HashMap::new(),
            ring_capacity: config.resume_ring,
        }));
        let signals: Vec<Arc<WorkerSignal>> = (0..workers)
            .map(|_| Arc::new(WorkerSignal::new()))
            .collect();
        let mut queues = Vec::with_capacity(shards);
        let mut predictor_maps = Vec::with_capacity(shards);
        for shard_index in 0..shards {
            queues.push(Arc::new(ShardQueue::new(
                config.queue_capacity,
                signals[shard_index % workers].clone(),
            )));
            predictor_maps.push(Arc::new(Mutex::new(HashMap::new())));
        }
        let mut handles = Vec::with_capacity(workers);
        for (worker_index, signal) in signals.into_iter().enumerate() {
            let owned: Vec<OwnedShard> = (0..shards)
                .filter(|shard| shard % workers == worker_index)
                .map(|shard| (queues[shard].clone(), predictor_maps[shard].clone()))
                .collect();
            let counters = counters.clone();
            let plan_stats = plan_stats.clone();
            let hub = hub.clone();
            handles.push(std::thread::spawn(move || {
                cluster_worker(
                    worker_index,
                    owned,
                    &signal,
                    &config,
                    &counters,
                    &plan_stats,
                    &hub,
                );
            }));
        }
        ClusterEngine {
            shards: queues,
            handles,
            predictors: predictor_maps,
            counters,
            plan_stats,
            hub,
            workers,
            config,
        }
    }

    /// Routes newly appended requests of `app` to its shard and asks for a
    /// prediction at time `now`. Returns immediately unless the shard queue is
    /// full under [`BackpressurePolicy::Block`].
    pub fn submit(&self, app: AppId, requests: Vec<IoRequest>, now: f64) -> SubmitOutcome {
        self.push_item(
            app,
            Submission {
                app,
                requests,
                now,
                poison: false,
            },
        )
    }

    /// Test-only fault injection: the submitted tick panics inside the shard
    /// worker, exercising the isolation path.
    #[cfg(test)]
    pub(crate) fn submit_fault(&self, app: AppId, now: f64) -> SubmitOutcome {
        self.push_item(
            app,
            Submission {
                app,
                requests: Vec::new(),
                now,
                poison: true,
            },
        )
    }

    fn push_item(&self, app: AppId, submission: Submission) -> SubmitOutcome {
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let shard = &self.shards[app.shard_index(self.shards.len())];
        let outcome = shard.push(QueueItem::Work(submission), self.config.policy);
        if outcome == SubmitOutcome::Rejected {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// Number of shards (routing/state partitions).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of worker threads actually serving the shards:
    /// `shard_count()` in the legacy `threads == 0` layout, otherwise
    /// `min(threads, shards)`.
    pub fn worker_count(&self) -> usize {
        self.workers
    }

    /// Replays a [`TraceSource`] through the shard queues: every batch becomes
    /// one submission of its own application at the batch's recorded end time
    /// (empty batches are skipped). [`Pacing::AsFast`] pushes back-to-back;
    /// [`Pacing::Recorded`] sleeps so submissions arrive on the recorded
    /// timeline compressed by `speedup`. Returns the replay-side counters;
    /// call [`ClusterEngine::flush`] afterwards to wait for the matching
    /// predictions.
    pub fn replay(&self, source: &mut dyn TraceSource, pacing: Pacing) -> TraceResult<ReplayStats> {
        let mut stats = ReplayStats::default();
        let mut timeline_origin: Option<f64> = None;
        let started = std::time::Instant::now();
        while let Some(batch) = source.next_batch()? {
            let app = batch.app;
            let Some(now) = batch.end_time() else {
                continue; // empty batch carries no submission time
            };
            if let Pacing::Recorded { speedup } = pacing {
                let origin = *timeline_origin.get_or_insert(now);
                let target = ((now - origin) / speedup).max(0.0);
                let elapsed = started.elapsed().as_secs_f64();
                if target > elapsed {
                    std::thread::sleep(std::time::Duration::from_secs_f64(target - elapsed));
                }
            }
            let requests = batch.into_requests();
            stats.batches += 1;
            stats.requests += requests.len() as u64;
            if self.submit(app, requests, now).accepted() {
                stats.accepted += 1;
            } else {
                stats.rejected += 1;
            }
        }
        Ok(stats)
    }

    /// Blocks until every queued submission has been processed and its result
    /// is visible in [`ClusterEngine::predictions`].
    pub fn flush(&self) {
        for shard in &self.shards {
            shard.wait_idle();
        }
    }

    /// The last [`ClusterConfig::resume_ring`] predictions `app` published,
    /// in tick order. `resume_window(app).1` counts all it published.
    pub fn predictions(&self, app: AppId) -> Vec<OnlinePrediction> {
        let hub = lock_recover(&self.hub);
        hub.rings
            .get(&app)
            .map_or(Vec::new(), |r| r.entries.iter().cloned().collect())
    }

    /// [`ClusterEngine::predictions`] of every application that published,
    /// so under a `resume_ring` of 0 each is listed with an empty history.
    pub fn all_predictions(&self) -> AppPredictions {
        let hub = lock_recover(&self.hub);
        hub.rings
            .iter()
            .map(|(app, r)| (*app, r.entries.iter().cloned().collect()))
            .collect()
    }

    /// Registers a push subscription: every prediction tick for `app` (or for
    /// *every* application when `app` is `None`) is sent to the returned
    /// receiver as it completes, in the order the owning shard produced it.
    ///
    /// The channel is unbounded — a slow subscriber buffers events rather
    /// than stalling shard workers. Dropping the receiver unsubscribes: the
    /// workers prune closed channels on the next matching publish. This is
    /// the mechanism behind `ftio serve`'s subscribe frames.
    pub fn subscribe(&self, app: Option<AppId>) -> mpsc::Receiver<PredictionEvent> {
        self.subscribe_from(app, None)
    }

    /// Like [`ClusterEngine::subscribe`], optionally resuming `app`'s feed:
    /// retained predictions with `seq >= from_seq` are replayed into the
    /// channel before it goes live. Replay and registration are atomic with
    /// respect to publishes, so the receiver sees every sequence number from
    /// `max(from_seq, oldest retained)` onward exactly once, in order.
    ///
    /// `from_seq` needs a concrete `app` (sequence numbers are
    /// per-application); it is ignored for all-application subscriptions.
    /// Asking for sequence numbers older than the ring retains silently
    /// starts at the oldest retained one — callers can detect the gap by
    /// comparing against [`ClusterEngine::resume_window`] first.
    pub fn subscribe_from(
        &self,
        app: Option<AppId>,
        from_seq: Option<u64>,
    ) -> mpsc::Receiver<PredictionEvent> {
        let (tx, rx) = mpsc::channel();
        self.register(app, from_seq, Box::new(move |event| tx.send(event).is_ok()));
        rx
    }

    /// [`ClusterEngine::subscribe_from`] into any sink. Returns the id that
    /// [`ClusterEngine::unsubscribe`] takes.
    pub(crate) fn register(&self, app: Option<AppId>, from: Option<u64>, sink: EventSink) -> u64 {
        let mut hub = lock_recover(&self.hub);
        if let (Some(app), Some(from)) = (app, from) {
            if let Some(ring) = hub.rings.get(&app) {
                let retained = (ring.oldest_seq()..).zip(&ring.entries);
                for (seq, prediction) in retained.filter(|(seq, _)| *seq >= from) {
                    sink(PredictionEvent {
                        app,
                        seq,
                        prediction: prediction.clone(),
                    });
                }
            }
        }
        hub.last_id += 1;
        let id = hub.last_id;
        hub.subscribers.push((id, app, sink));
        id
    }

    /// Drops subscription `id` now, rather than at the next matching publish
    /// after its receiving end is gone.
    pub(crate) fn unsubscribe(&self, id: u64) {
        let mut hub = lock_recover(&self.hub);
        hub.subscribers.retain(|(other, _, _)| *other != id);
    }

    #[cfg(test)]
    pub(crate) fn subscriber_count(&self) -> usize {
        lock_recover(&self.hub).subscribers.len()
    }

    /// The resumable window of `app`'s prediction feed, as
    /// `(oldest_resumable_seq, next_seq)`: a
    /// [`subscribe_from`](ClusterEngine::subscribe_from) at or above
    /// `oldest_resumable_seq` is gapless, and `next_seq` is how many
    /// predictions the application has published. Both are 0 when it has
    /// never published; they are equal when nothing is retained.
    pub fn resume_window(&self, app: AppId) -> (u64, u64) {
        let hub = lock_recover(&self.hub);
        hub.rings
            .get(&app)
            .map_or((0, 0), |ring| (ring.oldest_seq(), ring.next_seq))
    }

    /// Aggregate engine counters (see [`ClusterStats`] for the invariant).
    pub fn stats(&self) -> ClusterStats {
        ClusterStats {
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            rejected: self.counters.rejected.load(Ordering::Relaxed),
            dropped: self.counters.dropped_restored.load(Ordering::Relaxed)
                + self.shards.iter().map(|s| s.dropped()).sum::<u64>(),
            ticks: self.counters.ticks.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
            panicked: self.counters.panicked.load(Ordering::Relaxed),
        }
    }

    /// Per-*worker* FFT plan-cache counters (one entry per worker thread —
    /// see [`ClusterEngine::worker_count`]), as of each worker's most
    /// recently completed batch (`ftio_dsp`'s cache is thread-local, so the
    /// workers export snapshots). Use with [`ClusterEngine::flush`] to pin
    /// the zero-allocation steady state.
    pub fn plan_cache_stats(&self) -> Vec<PlanCacheStats> {
        lock_recover(&self.plan_stats).clone()
    }

    /// Serialises the engine into a versioned snapshot (see
    /// [`ftio_trace::snapshot`] for the container format): configuration,
    /// aggregate counters and every application's full predictor state.
    ///
    /// The engine is [`flush`](ClusterEngine::flush)ed first so the snapshot
    /// reflects a quiescent point; per-application predictor states are
    /// serialised in ascending [`AppId`] order, so equal engine states
    /// produce byte-identical snapshots regardless of shard count or
    /// submission interleaving. Retained predictions and sequence numbers
    /// are not captured — a restored engine starts with empty rings and
    /// continues producing the same predictions an uninterrupted run would.
    pub fn snapshot(&self) -> Vec<u8> {
        self.snapshot_with_progress(0)
    }

    /// Like [`ClusterEngine::snapshot`], additionally recording an opaque
    /// caller-defined progress marker (e.g. how many source batches were
    /// consumed), returned by [`ClusterEngine::restore_with_progress`].
    pub fn snapshot_with_progress(&self, progress: u64) -> Vec<u8> {
        self.flush();
        let mut payload = Vec::new();
        write_str(&mut payload, checkpoint::KIND_CLUSTER);
        encode_cluster_config(&mut payload, &self.config);
        write_uint(&mut payload, progress);
        let stats = self.stats();
        write_uint(&mut payload, stats.submitted);
        write_uint(&mut payload, stats.rejected);
        write_uint(&mut payload, stats.dropped);
        write_uint(&mut payload, stats.ticks);
        write_uint(&mut payload, stats.coalesced);
        write_uint(&mut payload, stats.panicked);
        // Collect every application's state under its shard lock, then sort
        // by id so the byte stream is independent of hash-map iteration
        // order and shard layout.
        let mut apps: Vec<(u64, Vec<u8>)> = Vec::new();
        for shard in &self.predictors {
            let guard = lock_recover(shard);
            for (app, predictor) in guard.iter() {
                let mut state = Vec::new();
                predictor.encode_state(&mut state);
                apps.push((app.raw(), state));
            }
        }
        apps.sort_unstable_by_key(|&(raw, _)| raw);
        write_array_header(&mut payload, apps.len());
        for (raw, state) in apps {
            write_uint(&mut payload, raw);
            payload.extend_from_slice(&state);
        }
        snapshot::seal(&payload)
    }

    /// Reconstructs an engine from a snapshot produced by
    /// [`ClusterEngine::snapshot`]: spawns fresh workers under the recorded
    /// configuration, seeds them with the recorded predictor states and
    /// carries the aggregate counters forward. Corrupted or truncated input
    /// fails with a positioned [`ftio_trace::TraceError`]; it never panics.
    pub fn restore(data: &[u8]) -> TraceResult<Self> {
        Ok(Self::restore_with_progress(data)?.0)
    }

    /// Like [`ClusterEngine::restore`], additionally returning the progress
    /// marker recorded by [`ClusterEngine::snapshot_with_progress`].
    pub fn restore_with_progress(data: &[u8]) -> TraceResult<(Self, u64)> {
        let payload = snapshot::open(data)?;
        let mut reader = Reader::new(payload);
        checkpoint::expect_kind(&mut reader, checkpoint::KIND_CLUSTER)?;
        let config = decode_cluster_config(&mut reader)?;
        let progress = reader.read_uint()?;
        let submitted = reader.read_uint()?;
        let rejected = reader.read_uint()?;
        let dropped = reader.read_uint()?;
        let ticks = reader.read_uint()?;
        let coalesced = reader.read_uint()?;
        let panicked = reader.read_uint()?;
        let count = reader.read_array_header()?;
        let mut states: Vec<(AppId, OnlinePredictor)> = Vec::with_capacity(count.min(1 << 16));
        for _ in 0..count {
            let app = AppId::new(reader.read_uint()?);
            let predictor = OnlinePredictor::decode_state(&mut reader)?;
            states.push((app, predictor));
        }
        if !reader.is_at_end() {
            return Err(checkpoint::err_at(
                &reader,
                "trailing bytes after cluster state",
            ));
        }
        let engine = ClusterEngine::spawn(config);
        engine
            .counters
            .submitted
            .store(submitted, Ordering::Relaxed);
        engine.counters.rejected.store(rejected, Ordering::Relaxed);
        engine.counters.ticks.store(ticks, Ordering::Relaxed);
        engine
            .counters
            .coalesced
            .store(coalesced, Ordering::Relaxed);
        engine.counters.panicked.store(panicked, Ordering::Relaxed);
        engine
            .counters
            .dropped_restored
            .store(dropped, Ordering::Relaxed);
        let shards = engine.predictors.len();
        for (app, predictor) in states {
            lock_recover(&engine.predictors[app.shard_index(shards)]).insert(app, predictor);
        }
        Ok((engine, progress))
    }

    /// Shuts down: closes all queues, lets every worker drain its remaining
    /// submissions, joins the workers, and returns what
    /// [`ClusterEngine::all_predictions`] would: each application's last
    /// [`ClusterConfig::resume_ring`] predictions.
    pub fn finish(mut self) -> AppPredictions {
        self.shutdown();
        self.all_predictions()
    }

    /// Close + drain + join. In-flight batches are fully processed before the
    /// workers exit, so no accepted submission is ever silently lost.
    fn shutdown(&mut self) {
        for shard in &self.shards {
            shard.close();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }

    #[cfg(test)]
    fn stall_shard(&self, shard_index: usize, gate: Arc<tests::Gate>) {
        let _ = self.shards[shard_index].push(QueueItem::Stall(gate), BackpressurePolicy::Block);
    }
}

impl Drop for ClusterEngine {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn encode_cluster_config(out: &mut Vec<u8>, config: &ClusterConfig) {
    write_uint(out, config.shards as u64);
    write_uint(out, config.queue_capacity as u64);
    write_uint(out, config.max_batch as u64);
    checkpoint::encode_policy(out, config.policy);
    checkpoint::encode_config(out, &config.ftio);
    checkpoint::encode_strategy(out, &config.strategy);
    checkpoint::encode_memory_policy(out, &config.memory);
}

fn decode_cluster_config(reader: &mut Reader<'_>) -> TraceResult<ClusterConfig> {
    Ok(ClusterConfig {
        shards: checkpoint::read_count(reader, "shard count")?,
        queue_capacity: checkpoint::read_count(reader, "queue capacity")?,
        max_batch: checkpoint::read_count(reader, "max batch")?,
        policy: checkpoint::decode_policy(reader)?,
        ftio: checkpoint::decode_config(reader)?,
        strategy: checkpoint::decode_strategy(reader)?,
        memory: checkpoint::decode_memory_policy(reader)?,
        // The thread budget and resume-ring capacity are deployment knobs,
        // not engine state: neither is serialised (keeping snapshots
        // byte-identical across layouts), so a restored engine starts in the
        // legacy one-worker-per-shard layout with the default ring until the
        // deployment re-applies its knobs.
        threads: 0,
        resume_ring: DEFAULT_RESUME_RING,
    })
}

/// Publishes one completed tick: assigns the application's next sequence
/// number, sends the event to every matching subscriber, pruning subscribers
/// whose receiving half is gone, and moves the prediction into the bounded
/// resume ring. Sequencing, delivery and retention happen under the one hub
/// lock, which is what makes resume replay exact. The lock is only contended
/// when subscriptions are added, and the common no-subscriber case is one
/// uncontended lock + a ring push.
fn publish_prediction(hub: &Mutex<SubscriptionHub>, app: AppId, prediction: OnlinePrediction) {
    let mut guard = lock_recover(hub);
    let hub = &mut *guard;
    let ring = hub.rings.entry(app).or_default();
    let seq = ring.next_seq;
    ring.next_seq += 1;
    hub.subscribers.retain(|(_, filter, sink)| {
        if filter.map_or(true, |wanted| wanted == app) {
            sink(PredictionEvent {
                app,
                seq,
                prediction: prediction.clone(),
            })
        } else {
            true
        }
    });
    if hub.ring_capacity > 0 {
        ring.entries.push_back(prediction);
        while ring.entries.len() > hub.ring_capacity {
            ring.entries.pop_front();
        }
    }
}

/// One worker-owned slot: a shard's queue plus its exclusive predictor map.
type OwnedShard = (Arc<ShardQueue>, Arc<Mutex<HashMap<AppId, OnlinePredictor>>>);

/// One cluster worker: round-robin over the owned shard queues, draining,
/// grouping and ticking each, parking on the shared [`WorkerSignal`] when
/// every owned queue is empty, exiting once every owned queue is closed.
fn cluster_worker(
    worker_index: usize,
    owned: Vec<OwnedShard>,
    signal: &WorkerSignal,
    config: &ClusterConfig,
    counters: &SharedCounters,
    plan_stats: &Mutex<Vec<PlanCacheStats>>,
    hub: &Mutex<SubscriptionHub>,
) {
    let mut retired = vec![false; owned.len()];
    let mut live = owned.len();
    while live > 0 {
        // Snapshot the wakeup sequence *before* scanning: if a producer
        // pushes between our scan and the park, the sequence moves and
        // `wait_past` returns immediately.
        let seen = signal.current();
        let mut progressed = false;
        for (slot, (queue, predictors)) in owned.iter().enumerate() {
            if retired[slot] {
                continue;
            }
            match queue.try_pop_all() {
                Drained::Batch(batch) => {
                    progressed = true;
                    let drained = batch.len();
                    process_batch(batch, config, predictors, counters, hub);
                    // Export this thread's plan-cache counters *before*
                    // marking the batch complete, so `flush()` +
                    // `plan_cache_stats()` observes them.
                    lock_recover(plan_stats)[worker_index] = plan_cache::stats();
                    queue.complete(drained);
                }
                Drained::Empty => {}
                Drained::Closed => {
                    retired[slot] = true;
                    live -= 1;
                }
            }
        }
        if live > 0 && !progressed {
            signal.wait_past(seen);
        }
    }
}

/// Processes one drained batch: group the submissions per application
/// (preserving arrival order of first appearance and within each
/// application), coalesce up to `max_batch` consecutive submissions of an
/// application into one detection tick, and publish each tick's prediction.
fn process_batch(
    batch: Vec<QueueItem>,
    config: &ClusterConfig,
    predictors: &Mutex<HashMap<AppId, OnlinePredictor>>,
    counters: &SharedCounters,
    hub: &Mutex<SubscriptionHub>,
) {
    let max_batch = config.max_batch.max(1);
    let mut order: Vec<AppId> = Vec::new();
    let mut groups: HashMap<AppId, Vec<Submission>> = HashMap::new();
    for item in batch {
        match item {
            QueueItem::Work(submission) => {
                groups
                    .entry(submission.app)
                    .or_insert_with(|| {
                        order.push(submission.app);
                        Vec::new()
                    })
                    .push(submission);
            }
            #[cfg(test)]
            QueueItem::Stall(gate) => gate.enter_and_wait(),
        }
    }
    // The predictor map is shared with the engine handle (for snapshots);
    // the worker holds it for the whole drained batch, which costs
    // nothing in steady state because each map has exactly one worker.
    let mut guard = lock_recover(predictors);
    for app in order {
        let submissions = groups.remove(&app).expect("grouped above");
        let mut iter = submissions.into_iter().peekable();
        while iter.peek().is_some() {
            let chunk: Vec<Submission> = iter.by_ref().take(max_batch).collect();
            let chunk_len = chunk.len() as u64;
            let tick_now = chunk
                .iter()
                .fold(f64::NEG_INFINITY, |now, s| now.max(s.now));
            let predictor = guard.entry(app).or_insert_with(|| {
                OnlinePredictor::with_memory(config.ftio, config.strategy, config.memory)
            });
            // Fault isolation: a panicking tick must not take the shard
            // (let alone the engine) down. The chunk counts as consumed,
            // the owning application's predictor — possibly inconsistent
            // mid-ingest — is discarded, and every other application
            // keeps its state and its service.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                for submission in chunk {
                    if submission.poison {
                        panic!("injected shard fault");
                    }
                    predictor.ingest(submission.requests);
                }
                predictor.predict(tick_now)
            }));
            match outcome {
                Ok(prediction) => {
                    publish_prediction(hub, app, prediction);
                    counters.ticks.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    guard.remove(&app);
                    counters.panicked.fetch_add(1, Ordering::Relaxed);
                }
            }
            counters
                .coalesced
                .fetch_add(chunk_len - 1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Two-phase gate for deterministic saturation tests: the worker announces
    /// arrival, then parks until the test opens the gate.
    pub(super) struct Gate {
        state: Mutex<(bool, bool)>, // (worker arrived, gate open)
        cond: Condvar,
    }

    impl Gate {
        pub(super) fn new() -> Arc<Self> {
            Arc::new(Gate {
                state: Mutex::new((false, false)),
                cond: Condvar::new(),
            })
        }

        pub(super) fn enter_and_wait(&self) {
            let mut state = self.state.lock().unwrap();
            state.0 = true;
            self.cond.notify_all();
            while !state.1 {
                state = self.cond.wait(state).unwrap();
            }
        }

        fn wait_entered(&self) {
            let mut state = self.state.lock().unwrap();
            while !state.0 {
                state = self.cond.wait(state).unwrap();
            }
        }

        fn open(&self) {
            let mut state = self.state.lock().unwrap();
            state.1 = true;
            self.cond.notify_all();
        }
    }

    fn fast_config() -> FtioConfig {
        FtioConfig {
            sampling_freq: 2.0,
            use_autocorrelation: false,
            ..Default::default()
        }
    }

    fn burst(rank_count: usize, start: f64, duration: f64, bytes: u64) -> Vec<IoRequest> {
        (0..rank_count)
            .map(|rank| IoRequest::write(rank, start, start + duration, bytes / rank_count as u64))
            .collect()
    }

    fn engine_config(shards: usize, capacity: usize, policy: BackpressurePolicy) -> ClusterConfig {
        ClusterConfig {
            shards,
            queue_capacity: capacity,
            max_batch: 1,
            policy,
            ftio: fast_config(),
            strategy: WindowStrategy::FullHistory,
            memory: RetentionPolicy::KeepAll,
            threads: 0,
            resume_ring: DEFAULT_RESUME_RING,
        }
    }

    /// A prediction as raw bit patterns, so equality is bit-for-bit.
    fn prediction_bits(p: &OnlinePrediction) -> (u64, u64, u64, Option<u64>, u64) {
        (
            p.time.to_bits(),
            p.window_start.to_bits(),
            p.window_end.to_bits(),
            p.period().map(f64::to_bits),
            p.confidence().to_bits(),
        )
    }

    fn assert_accounting(stats: &ClusterStats) {
        assert_eq!(
            stats.ticks + stats.panicked + stats.coalesced + stats.dropped,
            stats.submitted - stats.rejected,
            "accounting broken: {stats:?}"
        );
    }

    #[test]
    fn cluster_detects_each_apps_own_period() {
        let engine = ClusterEngine::spawn(ClusterConfig {
            max_batch: 1,
            ..engine_config(3, 64, BackpressurePolicy::Block)
        });
        let periods = [8.0, 12.0, 15.0, 20.0];
        for tick in 0..10 {
            for (i, &period) in periods.iter().enumerate() {
                let start = tick as f64 * period;
                engine.submit(
                    AppId::new(i as u64),
                    burst(4, start, 2.0, 2_000_000_000),
                    start + 2.0,
                );
            }
        }
        let results = engine.finish();
        assert_eq!(results.len(), periods.len());
        for (i, &period) in periods.iter().enumerate() {
            let history = &results[&AppId::new(i as u64)];
            assert_eq!(history.len(), 10, "app {i} lost ticks");
            let detected = history
                .last()
                .unwrap()
                .period()
                .expect("dominant frequency");
            assert!(
                (detected - period).abs() < 1.5,
                "app {i}: detected {detected}, true {period}"
            );
            // Per-app tick order is preserved even across a shared shard.
            for pair in history.windows(2) {
                assert!(pair[1].time > pair[0].time);
            }
        }
    }

    /// The worker layout derives from `threads`: 0 keeps one worker per
    /// shard, anything else clamps to `min(threads, shards)` — and the
    /// plan-cache export is sized to the workers actually spawned.
    #[test]
    fn thread_budget_decouples_workers_from_shards() {
        let cases = [
            (4usize, 0usize, 4usize), // legacy: one worker per shard
            (4, 1, 1),
            (8, 3, 3),
            (2, 16, 2), // never more workers than shards
        ];
        for (shards, threads, expected) in cases {
            let engine = ClusterEngine::spawn(ClusterConfig {
                threads,
                ..engine_config(shards, 64, BackpressurePolicy::Block)
            });
            assert_eq!(engine.shard_count(), shards);
            assert_eq!(
                engine.worker_count(),
                expected,
                "shards {shards} threads {threads}"
            );
            assert_eq!(engine.plan_cache_stats().len(), expected);
        }
    }

    /// A thread-limited engine produces bit-identical predictions to the
    /// legacy one-worker-per-shard layout: application routing, coalescing
    /// and per-app order are functions of the *shard* layout, which the
    /// thread budget deliberately does not touch.
    #[test]
    fn threaded_engine_matches_legacy_bit_for_bit() {
        let run = |threads: usize| -> Vec<Vec<(u64, Option<u64>)>> {
            let engine = ClusterEngine::spawn(ClusterConfig {
                threads,
                ..engine_config(4, 256, BackpressurePolicy::Block)
            });
            let periods = [8.0, 12.0, 15.0, 20.0, 9.0, 14.0];
            for tick in 0..12 {
                for (i, &period) in periods.iter().enumerate() {
                    let start = tick as f64 * period;
                    engine.submit(
                        AppId::new(i as u64),
                        burst(2, start, 2.0, 1_000_000_000),
                        start + 2.0,
                    );
                }
            }
            let results = engine.finish();
            (0..6u64)
                .map(|app| {
                    results[&AppId::new(app)]
                        .iter()
                        .map(|p| (p.time.to_bits(), p.period().map(f64::to_bits)))
                        .collect()
                })
                .collect()
        };
        let legacy = run(0);
        for threads in [1, 2, 3] {
            assert_eq!(run(threads), legacy, "threads {threads} diverged");
        }
    }

    /// Subscriptions see every completed tick: the all-apps subscription
    /// counts them all, the filtered one only its application, and a dropped
    /// receiver is pruned instead of wedging the shard workers.
    #[test]
    fn subscriptions_push_predictions_per_app() {
        let engine = ClusterEngine::spawn(engine_config(2, 64, BackpressurePolicy::Block));
        let everything = engine.subscribe(None);
        let only_app1 = engine.subscribe(Some(AppId::new(1)));
        drop(engine.subscribe(None)); // dead receiver must not stall anyone
        for tick in 0..6 {
            for app in 0..3u64 {
                let start = tick as f64 * 10.0;
                engine.submit(
                    AppId::new(app),
                    burst(2, start, 2.0, 1_000_000_000),
                    start + 2.0,
                );
            }
        }
        engine.flush();
        let all: Vec<PredictionEvent> = everything.try_iter().collect();
        assert_eq!(all.len(), 18, "3 apps x 6 ticks");
        let filtered: Vec<PredictionEvent> = only_app1.try_iter().collect();
        assert_eq!(filtered.len(), 6);
        assert!(filtered.iter().all(|event| event.app == AppId::new(1)));
        // Per-app sequence numbers are dense from zero, in publish order.
        let seqs: Vec<u64> = filtered.iter().map(|event| event.seq).collect();
        assert_eq!(seqs, (0..6).collect::<Vec<u64>>());
        // Per-app event order matches the result history.
        let history = engine.predictions(AppId::new(1));
        let times: Vec<f64> = filtered.iter().map(|event| event.prediction.time).collect();
        assert_eq!(times, history.iter().map(|p| p.time).collect::<Vec<_>>());
        // The dead subscriber was pruned on first publish.
        assert_eq!(lock_recover(&engine.hub).subscribers.len(), 2);
        assert_accounting(&engine.stats());
    }

    /// `subscribe_from` replays exactly the retained predictions at or above
    /// the requested sequence number, then goes live — no gap, no duplicate.
    #[test]
    fn resumed_subscriptions_replay_exactly_the_missed_predictions() {
        let engine = ClusterEngine::spawn(engine_config(2, 64, BackpressurePolicy::Block));
        let app = AppId::new(3);
        let submit_phase = |range: std::ops::Range<u64>| {
            for tick in range {
                let start = tick as f64 * 10.0;
                engine.submit(app, burst(2, start, 2.0, 1_000_000_000), start + 2.0);
            }
            engine.flush();
        };

        submit_phase(0..4);
        assert_eq!(engine.resume_window(app), (0, 4));

        // A subscriber that saw seqs 0..2 disconnects; the engine keeps
        // publishing; the reconnect at from_seq=2 sees 2.. exactly once.
        submit_phase(4..7);
        let resumed = engine.subscribe_from(Some(app), Some(2));
        submit_phase(7..9);
        let events: Vec<PredictionEvent> = resumed.try_iter().collect();
        let seqs: Vec<u64> = events.iter().map(|event| event.seq).collect();
        assert_eq!(seqs, (2..9).collect::<Vec<u64>>());
        // Replayed events carry the same predictions the history recorded.
        let history = engine.predictions(app);
        for event in &events {
            assert_eq!(
                event.prediction.time, history[event.seq as usize].time,
                "seq {} diverged from history",
                event.seq
            );
        }
        assert_eq!(engine.resume_window(app), (0, 9));
        assert_accounting(&engine.stats());
    }

    /// The resume ring is bounded: old entries are evicted, the advertised
    /// window moves forward, and a too-old resume starts at the oldest
    /// retained entry rather than erroring or gapping silently backwards.
    /// The ring is the engine's only prediction store, so every history
    /// accessor returns exactly what it retains.
    #[test]
    fn resume_ring_is_bounded_and_advertises_its_window() {
        let engine = ClusterEngine::spawn(ClusterConfig {
            resume_ring: 3,
            ..engine_config(1, 64, BackpressurePolicy::Block)
        });
        let app = AppId::new(1);
        let everything = engine.subscribe(Some(app));
        let submit_ticks = |ticks: std::ops::Range<u64>| {
            for tick in ticks {
                let start = tick as f64 * 10.0;
                engine.submit(app, burst(2, start, 2.0, 1_000_000_000), start + 2.0);
            }
            engine.flush();
        };
        submit_ticks(0..8);
        // 8 published, ring keeps the last 3: seqs 5, 6, 7.
        assert_eq!(engine.resume_window(app), (5, 8));
        let resumed = engine.subscribe_from(Some(app), Some(0));
        let seqs: Vec<u64> = resumed.try_iter().map(|event| event.seq).collect();
        assert_eq!(seqs, vec![5, 6, 7]);

        // 10 published: every accessor returns the last 3, bit for bit the
        // last 3 events a subscriber received.
        submit_ticks(8..10);
        assert_eq!(engine.resume_window(app), (7, 10));
        let events: Vec<PredictionEvent> = everything.try_iter().collect();
        assert_eq!(events.len(), 10);
        let last_three: Vec<_> = events[7..]
            .iter()
            .map(|event| prediction_bits(&event.prediction))
            .collect();
        let bits = |history: &[OnlinePrediction]| -> Vec<_> {
            history.iter().map(prediction_bits).collect()
        };
        assert_eq!(bits(&engine.predictions(app)), last_three);
        let all = engine.all_predictions();
        assert_eq!(all.len(), 1);
        assert_eq!(bits(&all[&app]), last_three);
        assert_eq!(bits(&engine.finish()[&app]), last_three);

        // A ring of zero disables retention but keeps sequencing.
        let bare = ClusterEngine::spawn(ClusterConfig {
            resume_ring: 0,
            ..engine_config(1, 64, BackpressurePolicy::Block)
        });
        let live = bare.subscribe(Some(app));
        bare.submit(app, burst(2, 0.0, 2.0, 1_000_000_000), 2.0);
        bare.flush();
        assert_eq!(bare.resume_window(app), (1, 1));
        let events: Vec<PredictionEvent> = live.try_iter().collect();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].seq, 0);
        let nothing = bare.subscribe_from(Some(app), Some(0));
        assert!(nothing.try_iter().next().is_none());
        // The app is still listed, with nothing retained.
        assert!(bare.predictions(app).is_empty());
        assert_eq!(bare.all_predictions().get(&app).map(Vec::len), Some(0));
        assert_eq!(bare.finish().get(&app).map(Vec::len), Some(0));
    }

    #[test]
    fn batching_coalesces_a_burst_of_appends_into_one_tick() {
        let engine = ClusterEngine::spawn(ClusterConfig {
            max_batch: 16,
            ..engine_config(1, 64, BackpressurePolicy::Block)
        });
        let app = AppId::new(7);
        // Stall the single shard so all eight submissions pile up and are
        // drained as one batch.
        let gate = Gate::new();
        engine.stall_shard(0, gate.clone());
        gate.wait_entered();
        for tick in 0..8 {
            let start = tick as f64 * 10.0;
            engine.submit(app, burst(2, start, 2.0, 1_000_000_000), start + 2.0);
        }
        gate.open();
        engine.flush();
        let history = engine.predictions(app);
        assert_eq!(
            history.len(),
            1,
            "eight queued appends must become one tick"
        );
        let only = &history[0];
        // The tick ran at the latest submitted time with all data ingested.
        assert_eq!(only.time, 72.0);
        let stats = engine.stats();
        assert_eq!(stats.ticks, 1);
        assert_eq!(stats.coalesced, 7);
        assert_accounting(&stats);
        drop(engine);
    }

    #[test]
    fn block_policy_loses_nothing_under_pressure() {
        let engine = Arc::new(ClusterEngine::spawn(engine_config(
            2,
            2,
            BackpressurePolicy::Block,
        )));
        let submissions_per_app = 25;
        let producers: Vec<_> = (0..4u64)
            .map(|app_raw| {
                let engine = engine.clone();
                std::thread::spawn(move || {
                    for tick in 0..submissions_per_app {
                        let start = tick as f64 * 10.0;
                        let outcome = engine.submit(
                            AppId::new(app_raw),
                            burst(2, start, 2.0, 1_000_000_000),
                            start + 2.0,
                        );
                        assert!(outcome.accepted(), "block policy must never refuse");
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        engine.flush();
        let stats = engine.stats();
        assert_eq!(stats.submitted, 4 * submissions_per_app);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.dropped, 0);
        assert_accounting(&stats);
        // max_batch = 1: every submission is its own prediction.
        let results = engine.all_predictions();
        let total: usize = results.values().map(Vec::len).sum();
        assert_eq!(total, 4 * submissions_per_app as usize);
    }

    #[test]
    fn block_policy_parks_the_producer_until_a_slot_frees() {
        let engine = Arc::new(ClusterEngine::spawn(engine_config(
            1,
            2,
            BackpressurePolicy::Block,
        )));
        let gate = Gate::new();
        engine.stall_shard(0, gate.clone());
        gate.wait_entered();
        let app = AppId::new(1);
        // Fill the queue to capacity while the worker is parked.
        for tick in 0..2 {
            let start = tick as f64 * 10.0;
            assert_eq!(
                engine.submit(app, burst(1, start, 1.0, 1_000_000), start + 1.0),
                SubmitOutcome::Enqueued
            );
        }
        // The next submission must block until the gate opens.
        let unblocked = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let producer = {
            let engine = engine.clone();
            let unblocked = unblocked.clone();
            std::thread::spawn(move || {
                let outcome = engine.submit(app, burst(1, 20.0, 1.0, 1_000_000), 21.0);
                unblocked.store(true, Ordering::SeqCst);
                assert!(outcome.accepted());
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(60));
        assert!(
            !unblocked.load(Ordering::SeqCst),
            "producer should be parked on the full queue"
        );
        gate.open();
        producer.join().unwrap();
        engine.flush();
        assert_eq!(engine.predictions(app).len(), 3);
        assert_accounting(&engine.stats());
    }

    #[test]
    fn drop_oldest_policy_evicts_the_stalest_submission() {
        let engine = ClusterEngine::spawn(engine_config(1, 3, BackpressurePolicy::DropOldest));
        let gate = Gate::new();
        engine.stall_shard(0, gate.clone());
        gate.wait_entered();
        let app = AppId::new(9);
        // Five submissions into a 3-slot queue: the two oldest get evicted.
        for tick in 0..5 {
            let start = tick as f64 * 10.0;
            let outcome = engine.submit(app, burst(1, start, 1.0, 1_000_000), start + 1.0);
            assert!(outcome.accepted());
            if tick >= 3 {
                assert_eq!(outcome, SubmitOutcome::EnqueuedAfterDrop(1));
            }
        }
        gate.open();
        engine.flush();
        let history = engine.predictions(app);
        assert_eq!(history.len(), 3);
        // The survivors are the three *freshest* submissions (now = 21, 31, 41).
        let times: Vec<f64> = history.iter().map(|p| p.time).collect();
        assert_eq!(times, vec![21.0, 31.0, 41.0]);
        let stats = engine.stats();
        assert_eq!(stats.dropped, 2);
        assert_eq!(stats.rejected, 0);
        assert_accounting(&stats);
        drop(engine);
    }

    #[test]
    fn reject_policy_refuses_when_full_and_keeps_queued_work() {
        let engine = ClusterEngine::spawn(engine_config(1, 2, BackpressurePolicy::Reject));
        let gate = Gate::new();
        engine.stall_shard(0, gate.clone());
        gate.wait_entered();
        let app = AppId::new(3);
        assert_eq!(
            engine.submit(app, burst(1, 0.0, 1.0, 1_000_000), 1.0),
            SubmitOutcome::Enqueued
        );
        assert_eq!(
            engine.submit(app, burst(1, 10.0, 1.0, 1_000_000), 11.0),
            SubmitOutcome::Enqueued
        );
        // Queue full: the next two are refused, not silently dropped.
        for _ in 0..2 {
            assert_eq!(
                engine.submit(app, burst(1, 20.0, 1.0, 1_000_000), 21.0),
                SubmitOutcome::Rejected
            );
        }
        gate.open();
        engine.flush();
        assert_eq!(engine.predictions(app).len(), 2);
        let stats = engine.stats();
        assert_eq!(stats.rejected, 2);
        assert_eq!(stats.dropped, 0);
        assert_accounting(&stats);
        drop(engine);
    }

    /// A submit racing engine shutdown must be *refused*, not lost, parked,
    /// or panicking — this is the contract a producer thread relies on while
    /// another thread drops the engine. Closing a shard queue directly stands
    /// in for the close step of `shutdown()` (same code path), which lets the
    /// test observe the rejection while the engine handle is still alive.
    #[test]
    fn submissions_after_close_are_rejected_not_lost() {
        let engine = ClusterEngine::spawn(engine_config(1, 8, BackpressurePolicy::Block));
        let app = AppId::new(0);
        engine.submit(app, burst(1, 0.0, 1.0, 1_000_000), 1.0);
        engine.flush();
        engine.shards[0].close();
        assert_eq!(
            engine.submit(app, burst(1, 10.0, 1.0, 1_000_000), 11.0),
            SubmitOutcome::Rejected
        );
        let stats = engine.stats();
        assert_eq!(stats.rejected, 1);
        assert_accounting(&stats);
        // The pre-close submission survives shutdown untouched.
        let results = engine.finish();
        assert_eq!(results.values().map(Vec::len).sum::<usize>(), 1);
    }

    /// Tentpole acceptance: a panicking tick inside one shard worker must
    /// not take the engine down — other applications (same shard and other
    /// shards) keep their state and their service, the failure is visible in
    /// [`ClusterStats::panicked`], and shutdown accounting still reconciles.
    #[test]
    fn panicking_tick_is_isolated_to_its_application() {
        let shards = 2usize;
        let engine = ClusterEngine::spawn(engine_config(shards, 64, BackpressurePolicy::Block));
        // One victim plus a same-shard and an other-shard bystander.
        let pick = |shard: usize, skip: usize| {
            (0u64..)
                .map(AppId::new)
                .filter(|app| app.shard_index(shards) == shard)
                .nth(skip)
                .expect("ids are infinite")
        };
        let victim = pick(0, 0);
        let same_shard = pick(0, 1);
        let other_shard = pick(1, 0);
        let apps = [victim, same_shard, other_shard];
        for tick in 0..6 {
            let start = tick as f64 * 10.0;
            for &app in &apps {
                engine.submit(app, burst(2, start, 2.0, 1_000_000_000), start + 2.0);
            }
        }
        engine.flush();
        assert!(engine.submit_fault(victim, 100.0).accepted());
        engine.flush();
        let stats = engine.stats();
        assert_eq!(stats.panicked, 1, "the fault must be visible: {stats:?}");
        assert_accounting(&stats);
        // Everyone — including the victim, restarted from scratch — keeps
        // being served after the fault.
        for &app in &apps {
            engine.submit(app, burst(2, 60.0, 2.0, 1_000_000_000), 62.0);
        }
        engine.flush();
        for &app in &apps {
            assert_eq!(engine.predictions(app).len(), 7, "app {app} lost service");
        }
        let stats = engine.stats();
        assert_eq!(stats.panicked, 1);
        assert_accounting(&stats);
        // Drain-then-join shutdown still works and loses nothing.
        let results = engine.finish();
        assert_eq!(results.len(), 3);
    }

    /// Satellite: a poisoned shared mutex is recovered, not propagated — the
    /// engine API keeps working after a thread panicked while holding the
    /// results lock, which is the subscription hub's lock.
    #[test]
    fn poisoned_results_lock_is_recovered() {
        let engine = ClusterEngine::spawn(engine_config(1, 8, BackpressurePolicy::Block));
        let app = AppId::new(4);
        engine.submit(app, burst(1, 0.0, 1.0, 1_000_000), 1.0);
        engine.flush();
        let hub = engine.hub.clone();
        let poisoner = std::thread::spawn(move || {
            let _guard = hub.lock().unwrap();
            panic!("poison the results lock");
        });
        assert!(poisoner.join().is_err());
        assert!(engine.hub.is_poisoned());
        // Reads recover the data...
        assert_eq!(engine.predictions(app).len(), 1);
        // ...and the worker writes through the poisoned lock just the same.
        engine.submit(app, burst(1, 10.0, 1.0, 1_000_000), 11.0);
        engine.flush();
        assert_eq!(engine.predictions(app).len(), 2);
        assert_accounting(&engine.stats());
    }

    /// Shutdown must be deterministic: dropping the engine drains every
    /// accepted submission before the worker is joined, so the final
    /// prediction of a burst of appends is never silently lost. (A
    /// channel-based engine that enqueues a `Shutdown` sentinel from `Drop`
    /// loses a racing append made after the sentinel.)
    #[test]
    fn dropping_the_engine_drains_in_flight_predictions() {
        for round in 0..8usize {
            let engine = ClusterEngine::spawn(engine_config(1, 64, BackpressurePolicy::Block));
            // The subscription outlives the engine, so it observes what the
            // worker published during the drop-triggered drain.
            let events = engine.subscribe(None);
            let submissions = 3 + round % 4;
            for i in 0..submissions {
                let start = i as f64 * 9.0;
                engine.submit(
                    AppId::new(0),
                    burst(4, start, 1.5, 1_200_000_000),
                    start + 1.5,
                );
            }
            // Drop immediately: the worker may not have started any of the
            // submissions yet — all of them are "in flight".
            drop(engine);
            let drained = events.try_iter().count();
            assert_eq!(
                drained,
                submissions,
                "round {round}: drop lost {} in-flight predictions",
                submissions - drained
            );
        }
    }

    /// Tentpole acceptance: snapshot mid-run → restore → continue matches an
    /// uninterrupted run bit-for-bit, and equal engine states serialise to
    /// identical bytes.
    #[test]
    fn snapshot_restore_resumes_bit_for_bit() {
        let config = engine_config(2, 64, BackpressurePolicy::Block);
        let apps: Vec<AppId> = (0..3).map(AppId::new).collect();
        let run_phase = |engine: &ClusterEngine, ticks: std::ops::Range<usize>| {
            for tick in ticks {
                for (i, app) in apps.iter().enumerate() {
                    let period = 8.0 + 3.0 * i as f64;
                    let start = tick as f64 * period;
                    engine.submit(*app, burst(2, start, 2.0, 1_500_000_000), start + 2.0);
                }
            }
            engine.flush();
        };
        let uninterrupted = ClusterEngine::spawn(config);
        run_phase(&uninterrupted, 0..10);

        let interrupted = ClusterEngine::spawn(config);
        run_phase(&interrupted, 0..5);
        let bytes = interrupted.snapshot_with_progress(5);
        assert_eq!(
            bytes,
            interrupted.snapshot_with_progress(5),
            "equal engine state must serialise to identical bytes"
        );
        drop(interrupted);

        let (resumed, progress) = ClusterEngine::restore_with_progress(&bytes).unwrap();
        assert_eq!(progress, 5);
        run_phase(&resumed, 5..10);
        let full = uninterrupted.finish();
        let tail = resumed.finish();
        for app in &apps {
            let full_history = &full[app];
            let tail_history = &tail[app];
            // The result store restarts empty; the *predictor* state carries
            // over, so the post-restore ticks must equal the uninterrupted
            // run's tail exactly.
            assert_eq!(tail_history.len(), 5);
            let offset = full_history.len() - tail_history.len();
            for (f, t) in full_history[offset..].iter().zip(tail_history) {
                assert_eq!(f.time.to_bits(), t.time.to_bits());
                assert_eq!(f.window_start.to_bits(), t.window_start.to_bits());
                assert_eq!(f.window_end.to_bits(), t.window_end.to_bits());
                assert_eq!(f.period().map(f64::to_bits), t.period().map(f64::to_bits));
                assert_eq!(f.confidence().to_bits(), t.confidence().to_bits());
            }
        }
    }

    /// Satellite: corrupted snapshots fail with a positioned error — never a
    /// panic, never a half-restored engine.
    #[test]
    fn restore_rejects_corrupted_snapshots() {
        let engine = ClusterEngine::spawn(engine_config(1, 8, BackpressurePolicy::Block));
        engine.submit(AppId::new(1), burst(1, 0.0, 1.0, 1_000_000), 1.0);
        let bytes = engine.snapshot();
        drop(engine);
        assert!(ClusterEngine::restore(&bytes).is_ok());
        // Truncation at every interesting boundary...
        for len in [0, 7, snapshot::HEADER_LEN, bytes.len() - 1] {
            assert!(ClusterEngine::restore(&bytes[..len]).is_err(), "len {len}");
        }
        // ...and single-byte corruption anywhere in the stream (header
        // fields are validated, the payload is checksummed).
        for index in [0, 9, snapshot::HEADER_LEN + 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[index] ^= 0x40;
            assert!(ClusterEngine::restore(&bad).is_err(), "index {index}");
        }
        // A predictor snapshot is not a cluster snapshot.
        let predictor = OnlinePredictor::new(fast_config(), WindowStrategy::FullHistory);
        let err = match ClusterEngine::restore(&predictor.snapshot()) {
            Err(err) => err,
            Ok(_) => panic!("a predictor snapshot must not restore as a cluster"),
        };
        assert!(err.to_string().contains("expected `cluster`"), "{err}");
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

    /// Replay routes per-app batches through the shard queues and the books
    /// balance on both sides (satellite: replay stats reconcile).
    #[test]
    fn replay_routes_batches_and_stats_reconcile() {
        use ftio_trace::source::{MemorySource, TraceBatch};
        let engine = ClusterEngine::spawn(ClusterConfig {
            max_batch: 1,
            ..engine_config(2, 64, BackpressurePolicy::Block)
        });
        // Two apps, interleaved periodic batches.
        let mut batches = Vec::new();
        for tick in 0..6 {
            for app in 0..2u64 {
                let start = tick as f64 * 10.0 + app as f64;
                batches.push(TraceBatch::requests(
                    AppId::new(app),
                    burst(2, start, 2.0, 1_000_000_000),
                ));
            }
        }
        let mut source = MemorySource::from_batches(AppId::new(0), batches);
        let replay = engine.replay(&mut source, Pacing::AsFast).unwrap();
        engine.flush();
        assert_eq!(replay.batches, 12);
        assert_eq!(replay.requests, 24);
        assert_eq!(replay.rejected, 0);
        let stats = engine.stats();
        assert_eq!(stats.submitted, replay.accepted + replay.rejected);
        assert_eq!(stats.submitted - stats.rejected, replay.accepted);
        assert_accounting(&stats);
        let results = engine.finish();
        assert_eq!(results.len(), 2);
        for app in 0..2u64 {
            let history = &results[&AppId::new(app)];
            assert_eq!(history.len(), 6);
            let period = history.last().unwrap().period().expect("periodic");
            assert!((period - 10.0).abs() < 1.5, "period {period}");
        }
    }

    /// Rejected replay submissions are counted on both sides of the books.
    #[test]
    fn replay_counts_rejections() {
        use ftio_trace::source::{MemorySource, TraceBatch};
        let engine = ClusterEngine::spawn(engine_config(1, 2, BackpressurePolicy::Reject));
        let gate = Gate::new();
        engine.stall_shard(0, gate.clone());
        gate.wait_entered();
        let batches: Vec<TraceBatch> = (0..5)
            .map(|i| TraceBatch::requests(AppId::new(1), burst(1, i as f64 * 10.0, 1.0, 1_000_000)))
            .collect();
        let mut source = MemorySource::from_batches(AppId::new(1), batches);
        let replay = engine.replay(&mut source, Pacing::AsFast).unwrap();
        gate.open();
        engine.flush();
        assert_eq!(replay.batches, 5);
        assert_eq!(replay.accepted + replay.rejected, 5);
        assert!(replay.rejected > 0, "2-slot queue must reject under stall");
        let stats = engine.stats();
        assert_eq!(stats.rejected, replay.rejected);
        assert_eq!(stats.submitted - stats.rejected, replay.accepted);
        assert_accounting(&stats);
        drop(engine);
    }

    /// Drop-oldest under replay, deterministically: the shard is parked so
    /// every eviction is forced, and the books must still reconcile on both
    /// sides — `ReplayStats` counts what the source offered, `ClusterStats`
    /// counts what the queue did with it, and the survivors are exactly the
    /// freshest `capacity` submissions.
    #[test]
    fn replay_drop_oldest_books_reconcile_when_drops_happen() {
        use ftio_trace::source::{MemorySource, TraceBatch};
        let capacity = 2;
        let batch_count = 6u64;
        let engine =
            ClusterEngine::spawn(engine_config(1, capacity, BackpressurePolicy::DropOldest));
        let gate = Gate::new();
        engine.stall_shard(0, gate.clone());
        gate.wait_entered();
        let app = AppId::new(5);
        let batches: Vec<TraceBatch> = (0..batch_count)
            .map(|i| TraceBatch::requests(app, burst(2, i as f64 * 10.0, 1.0, 1_000_000)))
            .collect();
        let mut source = MemorySource::from_batches(app, batches);
        let replay = engine.replay(&mut source, Pacing::AsFast).unwrap();
        gate.open();
        engine.flush();
        // Drop-oldest never refuses the producer: every batch is accepted...
        assert_eq!(replay.batches, batch_count);
        assert_eq!(replay.requests, batch_count * 2);
        assert_eq!(replay.accepted, batch_count);
        assert_eq!(replay.rejected, 0);
        // ...but the parked 2-slot queue silently sheds all the stale work.
        let stats = engine.stats();
        assert_eq!(stats.submitted, batch_count);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.dropped, batch_count - capacity as u64);
        assert_eq!(stats.ticks, capacity as u64);
        assert_eq!(stats.coalesced, 0);
        assert_accounting(&stats);
        // The survivors are the freshest submissions, in order, and the
        // prediction history length equals the tick count exactly.
        let history = engine.predictions(app);
        assert_eq!(history.len(), stats.ticks as usize);
        let times: Vec<f64> = history.iter().map(|p| p.time).collect();
        assert_eq!(times, vec![41.0, 51.0]);
        drop(engine);
    }

    /// Recorded pacing preserves results (the sleeps only shape arrival
    /// times) and respects the compressed timeline.
    #[test]
    fn replay_recorded_pacing_matches_as_fast_results() {
        use ftio_trace::source::{MemorySource, TraceBatch};
        let make_batches = || -> Vec<TraceBatch> {
            (0..5)
                .map(|i| {
                    TraceBatch::requests(
                        AppId::new(3),
                        burst(2, i as f64 * 12.0, 2.0, 1_500_000_000),
                    )
                })
                .collect()
        };
        let run = |pacing: Pacing| {
            let engine = ClusterEngine::spawn(ClusterConfig {
                max_batch: 1,
                ..engine_config(1, 64, BackpressurePolicy::Block)
            });
            let mut source = MemorySource::from_batches(AppId::new(3), make_batches());
            let replay = engine.replay(&mut source, pacing).unwrap();
            assert_eq!(replay.accepted, 5);
            let results = engine.finish();
            results[&AppId::new(3)]
                .iter()
                .map(|p| (p.time.to_bits(), p.period().map(f64::to_bits)))
                .collect::<Vec<_>>()
        };
        let fast = run(Pacing::AsFast);
        // 48 s of recorded timeline at 2000x -> ~24 ms of pacing sleeps.
        let recorded = run(Pacing::Recorded { speedup: 2000.0 });
        assert_eq!(fast, recorded);
    }

    /// Seeded randomized equivalence: with coalescing disabled, routing many
    /// applications through the sharded engine yields *identical* predictions
    /// to running each application on its own single-threaded predictor.
    #[test]
    fn sharded_results_match_single_threaded_per_app_runs() {
        let mut rng = StdRng::seed_from_u64(0xc1c5_7e12);
        for case in 0..4 {
            let apps = rng.gen_range(3usize..10);
            let shards = rng.gen_range(1usize..5);
            // Per app: a period and a number of flushes.
            let specs: Vec<(f64, usize)> = (0..apps)
                .map(|_| (rng.gen_range(6.0f64..25.0), rng.gen_range(4usize..9)))
                .collect();
            // Build the global submission schedule, interleaved across apps in
            // time order (the order the cluster would see).
            let mut events: Vec<(usize, Vec<IoRequest>, f64)> = Vec::new();
            for (app, &(period, flushes)) in specs.iter().enumerate() {
                for tick in 0..flushes {
                    let start = tick as f64 * period;
                    events.push((app, burst(3, start, 2.0, 1_500_000_000), start + 2.0));
                }
            }
            events.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap());

            let engine = ClusterEngine::spawn(ClusterConfig {
                shards,
                queue_capacity: 512,
                max_batch: 1,
                policy: BackpressurePolicy::Block,
                ftio: fast_config(),
                strategy: WindowStrategy::Adaptive { multiple: 3 },
                memory: RetentionPolicy::KeepAll,
                threads: 0,
                resume_ring: DEFAULT_RESUME_RING,
            });
            let mut reference: Vec<OnlinePredictor> = (0..apps)
                .map(|_| {
                    OnlinePredictor::new(fast_config(), WindowStrategy::Adaptive { multiple: 3 })
                })
                .collect();
            let mut reference_results: Vec<Vec<OnlinePrediction>> = vec![Vec::new(); apps];
            for (app, requests, now) in events {
                engine.submit(AppId::new(app as u64), requests.clone(), now);
                reference[app].ingest(requests);
                reference_results[app].push(reference[app].predict(now));
            }
            let sharded = engine.finish();
            for (app, expected) in reference_results.iter().enumerate() {
                let got = &sharded[&AppId::new(app as u64)];
                assert_eq!(got.len(), expected.len(), "case {case} app {app}");
                for (g, e) in got.iter().zip(expected) {
                    assert_eq!(g.time, e.time, "case {case} app {app}");
                    assert_eq!(g.window_start, e.window_start, "case {case} app {app}");
                    assert_eq!(g.window_end, e.window_end, "case {case} app {app}");
                    assert_eq!(g.period(), e.period(), "case {case} app {app}");
                    assert_eq!(g.confidence(), e.confidence(), "case {case} app {app}");
                }
            }
        }
    }

    /// Acceptance criterion: steady-state cluster ticks run entirely on cached
    /// FFT plans and already-grown scratch, across every shard thread. The
    /// shard workers export their thread-local `plan_cache` counters after
    /// each batch, which makes the property observable from the test thread.
    #[test]
    fn steady_state_cluster_ticks_build_no_plans_and_grow_no_scratch() {
        let config = FtioConfig {
            sampling_freq: 2.0,
            use_autocorrelation: true,
            ..Default::default()
        };
        let engine = ClusterEngine::spawn(ClusterConfig {
            shards: 2,
            queue_capacity: 256,
            max_batch: 1,
            policy: BackpressurePolicy::Block,
            ftio: config,
            strategy: WindowStrategy::Fixed { length: 300.0 },
            memory: RetentionPolicy::KeepAll,
            threads: 0,
            resume_ring: DEFAULT_RESUME_RING,
        });
        let apps: Vec<AppId> = (0..4).map(AppId::new).collect();
        let period = 10.0;
        // History long enough that every analysed window is exactly 300 s
        // (600 samples at fs = 2), delivered as one pre-submission per app.
        for &app in &apps {
            let mut history = Vec::new();
            for tick in 0..40 {
                history.extend(burst(4, tick as f64 * period, 2.0, 2_000_000_000));
            }
            engine.submit(app, history, 400.0);
        }
        // Warm every shard's plan cache for a few ticks.
        for tick in 1..4 {
            for &app in &apps {
                let now = 400.0 + tick as f64 * period;
                engine.submit(app, burst(4, now - 2.0, 2.0, 2_000_000_000), now);
            }
        }
        engine.flush();
        let before = engine.plan_cache_stats();
        for tick in 4..11 {
            for &app in &apps {
                let now = 400.0 + tick as f64 * period;
                engine.submit(app, burst(4, now - 2.0, 2.0, 2_000_000_000), now);
            }
        }
        engine.flush();
        let after = engine.plan_cache_stats();
        assert_eq!(before.len(), after.len());
        for (shard, (b, a)) in before.iter().zip(&after).enumerate() {
            assert_eq!(
                a.plans_built(),
                b.plans_built(),
                "shard {shard} built FFT plans in steady state: {b:?} -> {a:?}"
            );
            assert_eq!(
                a.scratch_grows, b.scratch_grows,
                "shard {shard} grew FFT scratch in steady state: {b:?} -> {a:?}"
            );
            // Sanity: the shard actually went through the cached spectral path.
            assert!(a.plan_hits > b.plan_hits, "shard {shard} ran no ticks");
        }
        let results = engine.finish();
        for &app in &apps {
            assert_eq!(results[&app].len(), 11);
        }
    }

    // ----- concurrency-stress lane (CI runs these with `--ignored`) -----

    /// Hundreds of applications through a saturated 8-shard engine under the
    /// lossless Block policy: nothing may be lost, per-app order must hold,
    /// and the engine must converge on every application's period.
    #[test]
    #[ignore = "concurrency stress — run via the CI stress lane or with --ignored"]
    fn cluster_stress_block_policy_hundreds_of_apps() {
        let apps = 256usize;
        let flushes = 6usize;
        let engine = Arc::new(ClusterEngine::spawn(ClusterConfig {
            shards: 8,
            queue_capacity: 64,
            max_batch: 8,
            policy: BackpressurePolicy::Block,
            ftio: fast_config(),
            strategy: WindowStrategy::FullHistory,
            memory: RetentionPolicy::KeepAll,
            threads: 0,
            resume_ring: DEFAULT_RESUME_RING,
        }));
        let mut rng = StdRng::seed_from_u64(0x57e5_0001);
        let periods: Vec<f64> = (0..apps).map(|_| rng.gen_range(6.0f64..30.0)).collect();
        // Four producer threads, each driving a quarter of the fleet.
        let producers: Vec<_> = (0..4usize)
            .map(|producer| {
                let engine = engine.clone();
                let periods = periods.clone();
                std::thread::spawn(move || {
                    let mine = (producer * apps / 4)..((producer + 1) * apps / 4);
                    for tick in 0..flushes {
                        for (app, &period) in periods.iter().enumerate() {
                            if !mine.contains(&app) {
                                continue;
                            }
                            let start = tick as f64 * period;
                            let outcome = engine.submit(
                                AppId::new(app as u64),
                                burst(2, start, 2.0, 1_000_000_000),
                                start + 2.0,
                            );
                            assert!(outcome.accepted());
                        }
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        engine.flush();
        let stats = engine.stats();
        assert_eq!(stats.submitted, (apps * flushes) as u64);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.dropped, 0);
        assert_accounting(&stats);
        let results = engine.all_predictions();
        assert_eq!(results.len(), apps);
        let mut converged = 0usize;
        for (app, &period) in periods.iter().enumerate() {
            let history = &results[&AppId::new(app as u64)];
            assert!(!history.is_empty(), "app {app} has no predictions");
            // The final tick always covers the full submitted history.
            let last = history.last().unwrap();
            assert_eq!(last.time, (flushes - 1) as f64 * period + 2.0);
            for pair in history.windows(2) {
                assert!(pair[1].time > pair[0].time, "app {app} out of order");
            }
            if let Some(detected) = last.period() {
                if (detected - period).abs() < 0.25 * period {
                    converged += 1;
                }
            }
        }
        // Six clean bursts are plenty: the vast majority must converge.
        assert!(
            converged * 10 >= apps * 8,
            "only {converged}/{apps} converged"
        );
    }

    /// DropOldest under deliberate saturation: park every shard, hammer the
    /// tiny queues from multiple producers, then release and verify the
    /// books balance (processed + dropped == submitted) with real drops.
    #[test]
    #[ignore = "concurrency stress — run via the CI stress lane or with --ignored"]
    fn cluster_stress_drop_oldest_saturation() {
        let engine = Arc::new(ClusterEngine::spawn(ClusterConfig {
            shards: 2,
            queue_capacity: 4,
            max_batch: 4,
            policy: BackpressurePolicy::DropOldest,
            ftio: fast_config(),
            strategy: WindowStrategy::FullHistory,
            memory: RetentionPolicy::KeepAll,
            threads: 0,
            resume_ring: DEFAULT_RESUME_RING,
        }));
        let gates = [Gate::new(), Gate::new()];
        for (shard, gate) in gates.iter().enumerate() {
            engine.stall_shard(shard, gate.clone());
            gate.wait_entered();
        }
        let producers: Vec<_> = (0..4u64)
            .map(|producer| {
                let engine = engine.clone();
                std::thread::spawn(move || {
                    for tick in 0..200u64 {
                        let app = AppId::new(producer * 16 + tick % 16);
                        let start = tick as f64 * 5.0;
                        let outcome =
                            engine.submit(app, burst(1, start, 1.0, 1_000_000), start + 1.0);
                        assert!(outcome.accepted(), "drop-oldest never refuses");
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        for gate in &gates {
            gate.open();
        }
        engine.flush();
        let stats = engine.stats();
        assert_eq!(stats.submitted, 800);
        assert_eq!(stats.rejected, 0);
        assert!(
            stats.dropped > 0,
            "4-slot queues under 800 submissions must drop"
        );
        assert_accounting(&stats);
        let processed: usize = engine.all_predictions().values().map(Vec::len).sum();
        assert!(processed > 0);
    }

    /// Long-history endurance: a fleet keeps flushing for a thousand bursts
    /// per application, so every predictor accumulates a deep request
    /// history while ticking continuously. With the per-app incremental
    /// sampler the engine stays at flat per-tick cost (the pre-PR-5 engine
    /// re-binned the whole history on every tick — quadratic total work);
    /// the run must drain completely, keep per-app order, balance the books
    /// and still detect every application's period at the end.
    #[test]
    #[ignore = "concurrency stress — run via the CI stress lane or with --ignored"]
    fn cluster_stress_long_history() {
        let apps = 8usize;
        let flushes = 1000usize;
        let engine = Arc::new(ClusterEngine::spawn(ClusterConfig {
            shards: 4,
            queue_capacity: 256,
            max_batch: 4,
            policy: BackpressurePolicy::Block,
            ftio: fast_config(),
            memory: RetentionPolicy::KeepAll,
            // Bounded analysis window: tick cost is dominated by the sampling
            // stage, which is exactly what the incremental path makes O(new).
            strategy: WindowStrategy::Fixed { length: 300.0 },
            threads: 0,
            resume_ring: DEFAULT_RESUME_RING,
        }));
        // Opened before any submission, so it sees every published tick; the
        // ring keeps only each app's last `resume_ring`.
        let events = engine.subscribe(None);
        let periods: Vec<f64> = (0..apps).map(|i| 8.0 + i as f64 * 2.0).collect();
        let producers: Vec<_> = (0..2usize)
            .map(|producer| {
                let engine = engine.clone();
                let periods = periods.clone();
                std::thread::spawn(move || {
                    for tick in 0..flushes {
                        for (app, &period) in periods.iter().enumerate() {
                            if app % 2 != producer {
                                continue;
                            }
                            let start = tick as f64 * period;
                            let outcome = engine.submit(
                                AppId::new(app as u64),
                                burst(2, start, 2.0, 1_000_000_000),
                                start + 2.0,
                            );
                            assert!(outcome.accepted(), "block policy must never refuse");
                        }
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        engine.flush();
        let stats = engine.stats();
        assert_eq!(stats.submitted, (apps * flushes) as u64);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.dropped, 0);
        assert_accounting(&stats);
        let mut histories: HashMap<AppId, Vec<(u64, OnlinePrediction)>> = HashMap::new();
        for event in events.try_iter() {
            histories
                .entry(event.app)
                .or_default()
                .push((event.seq, event.prediction));
        }
        assert_eq!(histories.len(), apps);
        let retained = engine.all_predictions();
        assert_eq!(retained.len(), apps);
        // Every tick was published: the ring retains only the last
        // `resume_ring` of each app, the sequence counters count them all.
        let published: u64 = (0..apps as u64)
            .map(|app| engine.resume_window(AppId::new(app)).1)
            .sum();
        assert_eq!(published, stats.ticks);
        for (app, &period) in periods.iter().enumerate() {
            let id = AppId::new(app as u64);
            let history = &histories[&id];
            assert!(
                !history.is_empty(),
                "app {app} produced no predictions at all"
            );
            // Each app's whole run, not just its ring, arrives gapless and in
            // order, and its sequence counter counts exactly those events.
            assert_eq!(history.len() as u64, engine.resume_window(id).1);
            for (expected, (seq, _)) in history.iter().enumerate() {
                assert_eq!(*seq, expected as u64, "app {app} seq gap");
            }
            for pair in history.windows(2) {
                assert!(pair[1].1.time > pair[0].1.time, "app {app} out of order");
            }
            // The ring holds the tail of that run, bit for bit.
            let ring = &retained[&id];
            let tail = &history[history.len() - ring.len()..];
            assert_eq!(ring.len(), DEFAULT_RESUME_RING.min(history.len()));
            assert!(ring
                .iter()
                .zip(tail)
                .all(|(kept, (_, sent))| prediction_bits(kept) == prediction_bits(sent)));
            // Every app published through its full thousand-burst history…
            let last = ring.last().unwrap();
            assert_eq!(last.time, (flushes - 1) as f64 * period + 2.0);
            // …and the final bounded-window tick still locks onto the app's
            // periodic structure. The 300 s window holds a non-integer number
            // of periods for some apps, so the dominant bin can land on a
            // harmonic — accept the fundamental or a low harmonic, never an
            // unrelated period.
            let detected = last.period().expect("final tick must be periodic");
            let ratio = period / detected;
            let nearest = ratio.round().max(1.0);
            assert!(
                nearest <= 3.0 && (ratio - nearest).abs() < 0.1 * nearest,
                "app {app}: detected {detected}, true {period}"
            );
        }
    }

    /// Reject under deliberate saturation: rejected submissions are reported
    /// to the caller, accepted ones are all processed, and nothing deadlocks.
    #[test]
    #[ignore = "concurrency stress — run via the CI stress lane or with --ignored"]
    fn cluster_stress_reject_saturation() {
        let engine = Arc::new(ClusterEngine::spawn(ClusterConfig {
            shards: 2,
            queue_capacity: 4,
            max_batch: 1,
            policy: BackpressurePolicy::Reject,
            ftio: fast_config(),
            strategy: WindowStrategy::FullHistory,
            memory: RetentionPolicy::KeepAll,
            threads: 0,
            resume_ring: DEFAULT_RESUME_RING,
        }));
        let gates = [Gate::new(), Gate::new()];
        for (shard, gate) in gates.iter().enumerate() {
            engine.stall_shard(shard, gate.clone());
            gate.wait_entered();
        }
        let accepted_total = Arc::new(AtomicU64::new(0));
        let producers: Vec<_> = (0..4u64)
            .map(|producer| {
                let engine = engine.clone();
                let accepted_total = accepted_total.clone();
                std::thread::spawn(move || {
                    for tick in 0..200u64 {
                        let app = AppId::new(producer * 16 + tick % 16);
                        let start = tick as f64 * 5.0;
                        let outcome =
                            engine.submit(app, burst(1, start, 1.0, 1_000_000), start + 1.0);
                        if outcome.accepted() {
                            accepted_total.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                })
            })
            .collect();
        for producer in producers {
            producer.join().unwrap();
        }
        for gate in &gates {
            gate.open();
        }
        engine.flush();
        let stats = engine.stats();
        assert_eq!(stats.submitted, 800);
        assert!(stats.rejected > 0, "full 4-slot queues must reject");
        assert_eq!(stats.dropped, 0);
        assert_eq!(
            stats.submitted - stats.rejected,
            accepted_total.load(Ordering::Relaxed)
        );
        assert_accounting(&stats);
        let processed: u64 = (0..64)
            .map(|app| engine.resume_window(AppId::new(app)).1)
            .sum();
        assert_eq!(processed, accepted_total.load(Ordering::Relaxed));
    }
}

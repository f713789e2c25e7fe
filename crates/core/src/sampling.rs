//! Discretisation of the bandwidth signal and the abstraction error.
//!
//! FTIO samples the application-level bandwidth `x(t)` with a sampling
//! frequency `fs`, producing `N = Δt · fs` samples (paper §II-B1). The choice
//! of `fs` matters: too low and the discrete signal no longer represents the
//! original one ("aliasing", paper §II-E and Fig. 6). The *abstraction error*
//! quantifies that mismatch as the relative volume difference between the
//! continuous signal and its discretisation.
//!
//! One discretiser serves every caller: [`IncrementalSampler`] keeps the
//! discretised signal as a bin buffer and folds each request into the bins it
//! overlaps. The online predictor keeps one sampler per application and folds
//! only *newly ingested* requests — `O(new requests)` per ingest, with window
//! strategies served as zero-recomputation [`IncrementalSampler::view`]s —
//! which makes the prediction tick independent of history length. Offline
//! detection ([`sample_trace`], [`sample_trace_window`]) folds the trace into
//! a fresh sampler whose grid starts at the window start, so both modes
//! analyse bins built by the same code.
//! [`BandwidthTimeline::sample`](ftio_trace::BandwidthTimeline::sample) and
//! [`BandwidthTimeline::sample_instantaneous`](ftio_trace::BandwidthTimeline::sample_instantaneous)
//! are the reference definitions the sampler is tested against.

use ftio_trace::msgpack::{write_array_header, write_f64, write_uint, Reader};
use ftio_trace::{AppTrace, Heatmap, IoRequest, TraceResult};

use crate::checkpoint;

/// A discretised bandwidth signal plus the context needed to interpret it.
#[derive(Clone, Debug)]
pub struct SampledSignal {
    /// Bandwidth samples in bytes/second.
    pub samples: Vec<f64>,
    /// Sampling frequency in Hz.
    pub sampling_freq: f64,
    /// Absolute time of the first sample in seconds.
    pub start_time: f64,
    /// Relative volume difference between the discrete and the original
    /// signal (0 = perfect, larger = the discretisation cannot be trusted).
    pub abstraction_error: f64,
}

impl SampledSignal {
    /// Number of samples `N`.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the signal holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Covered time window `Δt = N / fs` in seconds.
    pub fn duration(&self) -> f64 {
        self.samples.len() as f64 / self.sampling_freq
    }

    /// Total volume represented by the samples (bytes).
    pub fn volume(&self) -> f64 {
        self.samples.iter().sum::<f64>() / self.sampling_freq
    }

    /// Mean bandwidth over the window, `V/Δt` in bytes/second.
    pub fn mean_bandwidth(&self) -> f64 {
        if self.samples.is_empty() {
            0.0
        } else {
            self.samples.iter().sum::<f64>() / self.samples.len() as f64
        }
    }

    /// Builds the signal directly from raw samples (no abstraction error known).
    pub fn from_samples(samples: Vec<f64>, sampling_freq: f64, start_time: f64) -> Self {
        assert!(sampling_freq > 0.0, "sampling frequency must be positive");
        SampledSignal {
            samples,
            sampling_freq,
            start_time,
            abstraction_error: 0.0,
        }
    }
}

/// Samples a whole application trace: [`sample_trace_window`] over its
/// activity span, from the earliest start to the latest end of the requests
/// that carry data (an empty signal at 0 s when none does).
pub fn sample_trace(trace: &AppTrace, sampling_freq: f64) -> SampledSignal {
    let requests = trace.requests();
    let Some(t0) = requests
        .iter()
        .filter(|r| IncrementalSampler::carries_data(r))
        .map(|r| r.start)
        .reduce(f64::min)
    else {
        return sample_trace_window(trace, 0.0, 0.0, sampling_freq);
    };
    // Every data-carrying request starts before the span's end, so the
    // window folds them all, and the sampler tracks that end as it folds.
    let mut sampler = IncrementalSampler::anchored(sampling_freq, t0);
    sampler.fold_all(requests);
    sampler.view(t0, sampler.end_time())
}

/// Samples a trace restricted to the window `[t0, t1)`: the
/// `N = ⌊(t1 − t0)·fs⌋` complete bins of an [`IncrementalSampler`] whose grid
/// starts at `t0`. Requests are clipped to the window, and bins without I/O
/// read as zero.
///
/// Each sample is the average bandwidth over its bin, which preserves volume.
/// The abstraction error compares that volume with the point-sampled one
/// (the aggregate bandwidth at each bin's left edge) over the same `N` bins;
/// it grows when `fs` is too low for the burst lengths in the trace (Fig. 6).
pub fn sample_trace_window(
    trace: &AppTrace,
    t0: f64,
    t1: f64,
    sampling_freq: f64,
) -> SampledSignal {
    let mut sampler = IncrementalSampler::anchored(sampling_freq, t0);
    sampler.fold_all(trace.requests().iter().filter(|r| r.start < t1));
    sampler.view(t0, t1)
}

/// Converts a Darshan-style heatmap into a sampled signal. The sampling
/// frequency is taken from the bin width (`fs = 1 / bin_width`), exactly as
/// FTIO does when ingesting Darshan profiles (paper §III-B).
pub fn sample_heatmap(heatmap: &Heatmap) -> SampledSignal {
    SampledSignal {
        samples: heatmap.bandwidth_signal(),
        sampling_freq: heatmap.sampling_freq(),
        start_time: heatmap.start,
        abstraction_error: 0.0,
    }
}

/// Work counters of an [`IncrementalSampler`] — the observable contract of
/// the O(new-data) prediction tick, in the same spirit as
/// `ftio_dsp::plan_cache::stats()`.
///
/// Snapshot before and after a region to prove it folds only the requests it
/// was handed: in steady state the per-tick deltas depend on the *new* data
/// only, never on how much history the sampler already holds (pinned by a
/// test in [`crate::online`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SamplerStats {
    /// Requests folded into the bin buffer.
    pub requests_folded: u64,
    /// Bin updates performed (each request touches only the bins it overlaps).
    pub bins_touched: u64,
    /// Bins appended to the buffer (coverage growth).
    pub bins_grown: u64,
}

/// How an [`IncrementalSampler`] bounds the memory of its bin buffer over a
/// long-horizon run.
///
/// * [`KeepAll`](RetentionPolicy::KeepAll) — every bin is kept. Right for
///   bounded traces and offline analysis, and what `ftio serve` runs with.
/// * [`Ring`](RetentionPolicy::Ring) — a rolling window of the most recent
///   `max_bins` bins; older bins are evicted and volume folded into them
///   afterwards is accounted in [`IncrementalSampler::dropped_volume`]. Right
///   for the `fixed`/`adaptive` window strategies, which never look further
///   back than their window anyway.
///
/// Eviction is deterministic (it runs as part of every fold), so retention
/// preserves the sampler's bit-for-bit chunked-equals-one-shot contract.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RetentionPolicy {
    /// Keep every bin forever (unbounded memory, exact history).
    #[default]
    KeepAll,
    /// Keep only the most recent `max_bins` bins; evict the rest.
    Ring {
        /// Number of bins to retain (must be ≥ 1).
        max_bins: usize,
    },
}

impl RetentionPolicy {
    /// Checks the policy parameters without constructing a sampler.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            RetentionPolicy::KeepAll => Ok(()),
            RetentionPolicy::Ring { max_bins } => {
                if max_bins == 0 {
                    Err("ring retention needs max_bins >= 1".into())
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Incremental discretiser: the volume-preserving bandwidth signal as a
/// growing bin buffer that new requests are *folded into*, instead of being
/// re-derived from the full request history.
///
/// * Bin `b` covers `[origin + b/fs, origin + (b+1)/fs)`, where `origin` is
///   the start time of the first folded request; each bin holds the exact
///   transferred volume inside it, so `bandwidth = volume · fs` is the
///   averaged (volume-preserving) discretisation that
///   [`BandwidthTimeline::sample`](ftio_trace::BandwidthTimeline::sample)
///   defines.
/// * A parallel plane of instantaneous point samples (aggregate bandwidth at
///   each bin's left edge) is maintained the same way, so views can report
///   the abstraction error without ever rebuilding a timeline.
/// * Folding request `r` costs `O(bins overlapped by r)` — independent of how
///   many requests were folded before ([`SamplerStats`] makes this testable).
/// * Requests may arrive in **any order**: a request starting before the
///   current origin extends the buffer *backwards* on the same grid (the
///   origin only ever moves to earlier, grid-aligned instants), so no data is
///   ever clipped. Backward extension costs `O(existing bins)` for the
///   prepend — it only happens when genuinely earlier data shows up, which
///   merged per-rank trace files do but a live online feed does not.
///
/// Determinism: folding the same requests in the same order always produces
/// bit-for-bit identical buffers, whether they arrive in one batch or across
/// many ingests — the incremental-equals-rebuild contract the online
/// predictor pins.
#[derive(Clone, Debug)]
pub struct IncrementalSampler {
    sampling_freq: f64,
    origin: Option<f64>,
    /// Whether the origin was fixed at construction: data before it is then
    /// clipped instead of extending the buffer backwards.
    anchored: bool,
    /// Exact transferred volume (bytes) per retained bin.
    volume: Vec<f64>,
    /// Instantaneous aggregate bandwidth at each retained bin's left edge.
    point: Vec<f64>,
    /// Latest request end time folded so far.
    end_time: f64,
    stats: SamplerStats,
    /// Memory-bounding policy for the bin planes.
    retention: RetentionPolicy,
    /// Logical bin index of `volume[0]`: bins `[0, base)` have been evicted
    /// by the Ring policy. The origin stays the grid anchor of logical bin 0,
    /// so bin edges never move. `base + volume.len()` never overflows.
    base: usize,
    /// Volume (bytes) of folded data that fell before the retained window and
    /// was dropped by the Ring policy rather than binned.
    dropped_volume: f64,
    /// High-water mark of `bin_buffer_bytes()` over this sampler's lifetime.
    peak_bytes: usize,
}

impl IncrementalSampler {
    /// A spread used for zero-duration requests so their volume is preserved,
    /// mirroring
    /// [`BandwidthTimeline::from_requests`](ftio_trace::BandwidthTimeline::from_requests).
    const INSTANT: f64 = 1e-9;

    /// Creates an empty sampler.
    ///
    /// # Panics
    ///
    /// Panics if `sampling_freq` is not strictly positive.
    pub fn new(sampling_freq: f64) -> Self {
        Self::with_retention(sampling_freq, RetentionPolicy::KeepAll)
    }

    /// Creates an empty sampler with a memory-bounding [`RetentionPolicy`].
    ///
    /// # Panics
    ///
    /// Panics if `sampling_freq` is not strictly positive or the retention
    /// parameters are invalid (see [`RetentionPolicy::validate`]).
    pub fn with_retention(sampling_freq: f64, retention: RetentionPolicy) -> Self {
        assert!(sampling_freq > 0.0, "sampling frequency must be positive");
        if let Err(reason) = retention.validate() {
            panic!("invalid retention policy: {reason}");
        }
        IncrementalSampler {
            sampling_freq,
            origin: None,
            anchored: false,
            volume: Vec::new(),
            point: Vec::new(),
            end_time: f64::NEG_INFINITY,
            stats: SamplerStats::default(),
            retention,
            base: 0,
            dropped_volume: 0.0,
            peak_bytes: 0,
        }
    }

    /// An empty sampler whose grid starts at `t0`: the window samplers of
    /// [`sample_trace_window`]. Data before `t0` is clipped, not binned.
    fn anchored(sampling_freq: f64, t0: f64) -> Self {
        IncrementalSampler {
            origin: Some(t0),
            anchored: true,
            ..Self::new(sampling_freq)
        }
    }

    /// Whether a request carries data to bin: invalid and zero-byte requests
    /// do not, as in [`AppTrace::push`] and
    /// [`BandwidthTimeline::from_requests`](ftio_trace::BandwidthTimeline::from_requests).
    fn carries_data(request: &IoRequest) -> bool {
        request.is_valid() && request.bytes > 0
    }

    /// The sampling frequency `fs` in Hz.
    pub fn sampling_freq(&self) -> f64 {
        self.sampling_freq
    }

    /// Absolute time of bin 0's left edge — the start of the first folded
    /// request (0.0 while empty).
    pub fn start_time(&self) -> f64 {
        self.origin.unwrap_or(0.0)
    }

    /// Latest request end time folded so far (0.0 while empty).
    pub fn end_time(&self) -> f64 {
        if self.origin.is_none() {
            0.0
        } else {
            self.end_time
        }
    }

    /// Number of bins currently held.
    pub fn len(&self) -> usize {
        self.volume.len()
    }

    /// Whether nothing has been folded yet.
    pub fn is_empty(&self) -> bool {
        self.origin.is_none()
    }

    /// Number of requests folded so far.
    pub fn requests_folded(&self) -> u64 {
        self.stats.requests_folded
    }

    /// Snapshot of the work counters.
    pub fn stats(&self) -> SamplerStats {
        self.stats
    }

    /// The memory-bounding policy this sampler was built with.
    pub fn retention(&self) -> RetentionPolicy {
        self.retention
    }

    /// Current heap footprint of the bin planes in bytes (counting allocated
    /// capacity, not just length).
    pub fn bin_buffer_bytes(&self) -> usize {
        (self.volume.capacity() + self.point.capacity()) * std::mem::size_of::<f64>()
    }

    /// High-water mark of [`bin_buffer_bytes`](Self::bin_buffer_bytes) over
    /// this sampler's lifetime — the observable the memory-ceiling tests pin.
    pub fn peak_bin_buffer_bytes(&self) -> usize {
        self.peak_bytes
    }

    /// Volume (bytes) dropped by the Ring policy because it fell before the
    /// retained window. Always 0 under `KeepAll`.
    pub fn dropped_volume(&self) -> f64 {
        self.dropped_volume
    }

    /// Absolute time of the oldest instant still represented. Equals
    /// [`start_time`](Self::start_time) until eviction discards history.
    pub fn retained_start_time(&self) -> f64 {
        match self.origin {
            Some(origin) => origin + self.base as f64 / self.sampling_freq,
            None => 0.0,
        }
    }

    /// Folds one request into the bin buffer: `O(bins overlapped)`.
    ///
    /// Invalid or zero-byte requests are skipped, mirroring both
    /// [`AppTrace::push`] and
    /// [`BandwidthTimeline::from_requests`](ftio_trace::BandwidthTimeline::from_requests).
    pub fn fold(&mut self, request: &IoRequest) {
        if !Self::carries_data(request) {
            return;
        }
        let (start, end) = if request.duration() > 0.0 {
            (request.start, request.end)
        } else {
            (request.start, request.start + Self::INSTANT)
        };
        let bw = request.bytes as f64 / (end - start);
        let mut origin = *self.origin.get_or_insert(start);
        self.stats.requests_folded += 1;
        self.end_time = self.end_time.max(end);
        let fs = self.sampling_freq;
        let dt = 1.0 / fs;
        if start < origin && self.base == 0 && !self.anchored {
            // Earlier data than anything seen so far (merged per-rank trace
            // files are explicitly allowed to interleave timestamps): extend
            // the buffer backwards on the same grid, moving the origin to an
            // earlier grid-aligned instant. O(existing bins), but only when
            // genuinely earlier data arrives. Once retention has evicted
            // logical bin 0 (`base > 0`), history before the retained window
            // is gone for good, so such data is clamped and accounted below —
            // bounded memory cannot resurrect old epochs. An anchored sampler
            // clips it at the origin: it lies outside the window.
            let shift = ((origin - start) * fs).ceil() as usize;
            origin -= shift as f64 * dt;
            self.origin = Some(origin);
            self.volume.splice(0..0, std::iter::repeat(0.0).take(shift));
            self.point.splice(0..0, std::iter::repeat(0.0).take(shift));
            self.stats.bins_grown += shift as u64;
        }
        let first = (((start - origin) * fs).floor().max(0.0)) as usize;
        let last = (((end - origin) * fs).ceil() as usize).max(first + 1);
        let held = self.base + self.volume.len();
        if last > held {
            self.stats.bins_grown += (last - held) as u64;
            self.volume.resize(last - self.base, 0.0);
            self.point.resize(last - self.base, 0.0);
        }
        let retained_first = first.max(self.base);
        if first < retained_first {
            // The request reaches into evicted bins: its volume there is
            // dropped, not binned. Account it so operators can see the loss.
            let retained_lo = origin + retained_first as f64 * dt;
            let dropped_span = (end.min(retained_lo) - start).max(0.0);
            self.dropped_volume += bw * dropped_span;
        }
        for b in retained_first..last {
            let bin_lo = origin + b as f64 * dt;
            let overlap = end.min(bin_lo + dt) - start.max(bin_lo);
            if overlap > 0.0 {
                self.volume[b - self.base] += bw * overlap;
                self.stats.bins_touched += 1;
            }
            // Point sample at the bin's left edge: the request is active there
            // iff the edge lies in [start, end) — the same breakpoint
            // semantics as `BandwidthTimeline::bandwidth_at`.
            if bin_lo >= start && bin_lo < end {
                self.point[b - self.base] += bw;
            }
        }
        self.enforce_retention();
        self.peak_bytes = self.peak_bytes.max(self.bin_buffer_bytes());
    }

    /// Hysteresis slack before eviction triggers: evicting on every fold
    /// would turn the ring into a per-fold `O(len)` memmove; batching
    /// evictions keeps the amortised cost `O(1)` per bin while bounding the
    /// plane length at `cap + slack`.
    fn retention_slack(cap: usize) -> usize {
        (cap / 4).max(16)
    }

    /// Applies the retention policy after a fold. Deterministic: depends only
    /// on the current plane lengths, never on timing or batch boundaries.
    fn enforce_retention(&mut self) {
        match self.retention {
            RetentionPolicy::KeepAll => {}
            RetentionPolicy::Ring { max_bins } => {
                if self.volume.len() > max_bins + Self::retention_slack(max_bins) {
                    let evict = self.volume.len() - max_bins;
                    self.volume.drain(..evict);
                    self.point.drain(..evict);
                    self.base += evict;
                }
            }
        }
    }

    /// The (volume, point) planes of logical bin `b`, reading evicted and
    /// uncovered bins as zero.
    fn bin_planes(&self, b: usize) -> (f64, f64) {
        if b >= self.base {
            let i = b - self.base;
            if i < self.volume.len() {
                return (self.volume[i], self.point[i]);
            }
        }
        (0.0, 0.0)
    }

    /// Folds a batch of requests in order.
    pub fn fold_all<'a, I: IntoIterator<Item = &'a IoRequest>>(&mut self, requests: I) {
        for request in requests {
            self.fold(request);
        }
    }

    /// A [`SampledSignal`] over the window `[t0, t1)`, snapped to whole bins:
    /// the first bin is the one containing `t0` (clamped to the origin), and
    /// `floor((t1 − t0_snapped) · fs)` *complete* bins are emitted, so a
    /// trailing fraction of a bin is not part of the window. Bins beyond the
    /// folded coverage read as zero (time without I/O *is* zero bandwidth).
    ///
    /// The abstraction error is the relative difference between the
    /// point-sampled volume (from the incrementally maintained point samples)
    /// and the averaged volume over the viewed bins.
    pub fn view(&self, t0: f64, t1: f64) -> SampledSignal {
        let fs = self.sampling_freq;
        let Some(origin) = self.origin else {
            return SampledSignal {
                samples: Vec::new(),
                sampling_freq: fs,
                start_time: t0.min(t1),
                abstraction_error: 0.0,
            };
        };
        let first = ((t0 - origin) * fs).floor().max(0.0) as usize;
        let last = (((t1 - origin) * fs).floor().max(0.0) as usize).max(first);
        self.view_bins(first, last)
    }

    /// A view over **every** bin still represented, including a partial
    /// trailing bin (its averaged bandwidth covers only the recorded
    /// fraction) — so under `KeepAll` the viewed volume equals the total
    /// folded volume exactly. Under `Ring` it starts at the retained window
    /// (evicted volume is not zero-padded).
    pub fn full_view(&self) -> SampledSignal {
        self.view_bins(self.base, self.base + self.volume.len())
    }

    /// The bin-range core of [`IncrementalSampler::view`]; `first..last` are
    /// logical bin indices on the origin-anchored grid.
    fn view_bins(&self, first: usize, last: usize) -> SampledSignal {
        let fs = self.sampling_freq;
        let origin = self.origin.unwrap_or(0.0);
        let mut samples = Vec::with_capacity(last.saturating_sub(first));
        let mut true_volume = 0.0;
        let mut point_volume = 0.0;
        for b in first..last {
            let (v, p) = self.bin_planes(b);
            samples.push(v * fs);
            true_volume += v;
            point_volume += p / fs;
        }
        let abstraction_error = if true_volume > 0.0 {
            (point_volume - true_volume).abs() / true_volume
        } else {
            0.0
        };
        SampledSignal {
            samples,
            sampling_freq: fs,
            start_time: origin + first as f64 / fs,
            abstraction_error,
        }
    }

    /// Serialises the full sampler state (grid anchor, both planes, counters)
    /// as msgpack for [`crate::checkpoint`] snapshots. Floats are written
    /// bit-exactly, so a decoded sampler continues bit-for-bit.
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        write_f64(out, self.sampling_freq);
        checkpoint::write_opt_f64(out, self.origin);
        write_uint(out, self.base as u64);
        write_f64(out, self.end_time);
        write_uint(out, self.stats.requests_folded);
        write_uint(out, self.stats.bins_touched);
        write_uint(out, self.stats.bins_grown);
        checkpoint::encode_retention(out, &self.retention);
        write_f64(out, self.dropped_volume);
        checkpoint::write_f64_slice(out, &self.volume);
        checkpoint::write_f64_slice(out, &self.point);
        // An empty coarse-level list: the snapshot layout keeps the slot, and
        // decoding rejects a non-empty one.
        write_array_header(out, 0);
    }

    /// Decodes a sampler state written by [`encode_state`](Self::encode_state).
    /// Never panics: structural damage surfaces as a positioned
    /// [`ftio_trace::TraceError`].
    pub(crate) fn decode_state(reader: &mut Reader<'_>) -> TraceResult<Self> {
        let sampling_freq = reader.read_f64()?;
        if !sampling_freq.is_finite() || sampling_freq <= 0.0 {
            return Err(checkpoint::err_at(
                reader,
                format!("sampling frequency {sampling_freq} must be positive and finite"),
            ));
        }
        let origin = checkpoint::read_opt_f64(reader)?;
        let base = checkpoint::read_count(reader, "bin-buffer base")?;
        let end_time = reader.read_f64()?;
        let stats = SamplerStats {
            requests_folded: reader.read_uint()?,
            bins_touched: reader.read_uint()?,
            bins_grown: reader.read_uint()?,
        };
        let retention = checkpoint::decode_retention(reader)?;
        let dropped_volume = reader.read_f64()?;
        let volume = checkpoint::read_f64_vec(reader)?;
        let point = checkpoint::read_f64_vec(reader)?;
        if volume.len() != point.len() {
            return Err(checkpoint::err_at(
                reader,
                format!(
                    "bin plane length mismatch: {} volume vs {} point bins",
                    volume.len(),
                    point.len()
                ),
            ));
        }
        if base.checked_add(volume.len()).is_none() {
            return Err(checkpoint::err_at(
                reader,
                format!(
                    "bin range {base} + {} overflows the bin index",
                    volume.len()
                ),
            ));
        }
        let level_count = reader.read_array_header()?;
        if level_count != 0 {
            return Err(checkpoint::err_at(
                reader,
                format!("unsupported pyramid of {level_count} coarse levels"),
            ));
        }
        let mut sampler = IncrementalSampler {
            sampling_freq,
            origin,
            anchored: false,
            volume,
            point,
            end_time,
            stats,
            retention,
            base,
            dropped_volume,
            peak_bytes: 0,
        };
        sampler.peak_bytes = sampler.bin_buffer_bytes();
        Ok(sampler)
    }
}

/// Recommends a sampling frequency for a trace: the reciprocal of the shortest
/// request duration (capped to `max_freq`), so that even the fastest change in
/// bandwidth is resolved (paper §II-E: "we can find the smallest change in
/// bandwidth over time and use it to calculate fs").
pub fn recommend_sampling_freq(trace: &AppTrace, max_freq: f64) -> f64 {
    let shortest = trace
        .requests()
        .iter()
        .map(|r| r.duration())
        .filter(|&d| d > 0.0)
        .fold(f64::INFINITY, f64::min);
    if !shortest.is_finite() {
        return 1.0_f64.min(max_freq);
    }
    (1.0 / shortest).min(max_freq).max(1e-6)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftio_trace::{BandwidthTimeline, IoRequest};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn bursty_trace(period: f64, burst: f64, count: usize, bytes: u64) -> AppTrace {
        let mut trace = AppTrace::named("bursty", 1);
        for i in 0..count {
            let start = i as f64 * period;
            trace.push(IoRequest::write(0, start, start + burst, bytes));
        }
        trace
    }

    #[test]
    fn sample_trace_covers_the_activity_window() {
        let trace = bursty_trace(10.0, 2.0, 5, 1000);
        let signal = sample_trace(&trace, 1.0);
        // Activity spans 0 .. 42 s; sampling covers floor(42) samples.
        assert_eq!(signal.len(), 42);
        assert_eq!(signal.start_time, 0.0);
        assert!((signal.duration() - 42.0).abs() < 1e-9);
        assert!(signal.mean_bandwidth() > 0.0);
    }

    #[test]
    fn volume_is_preserved_by_averaged_sampling() {
        let trace = bursty_trace(10.0, 2.0, 5, 1000);
        let signal = sample_trace_window(&trace, 0.0, 50.0, 2.0);
        assert!((signal.volume() - 5000.0).abs() < 1e-6);
    }

    #[test]
    fn abstraction_error_grows_when_fs_is_too_low() {
        // 5 ms bursts every second: 1 Hz point sampling misses nearly all of them.
        let trace = bursty_trace(1.0, 0.005, 50, 1_000_000);
        let coarse = sample_trace_window(&trace, 0.0, 51.0, 1.0);
        let fine = sample_trace_window(&trace, 0.0, 51.0, 1000.0);
        assert!(
            coarse.abstraction_error > 0.5,
            "coarse error {}",
            coarse.abstraction_error
        );
        assert!(
            fine.abstraction_error < 0.05,
            "fine error {}",
            fine.abstraction_error
        );
    }

    #[test]
    fn heatmap_sampling_uses_bin_width_as_fs() {
        let heatmap = Heatmap::new(100.0, 50.0, vec![500.0, 0.0, 1000.0]);
        let signal = sample_heatmap(&heatmap);
        assert_eq!(signal.sampling_freq, 0.02);
        assert_eq!(signal.start_time, 100.0);
        assert_eq!(signal.samples, vec![10.0, 0.0, 20.0]);
        assert_eq!(signal.abstraction_error, 0.0);
    }

    #[test]
    fn recommended_fs_resolves_the_shortest_request() {
        let mut trace = AppTrace::named("x", 1);
        trace.push(IoRequest::write(0, 0.0, 0.01, 100)); // 10 ms
        trace.push(IoRequest::write(0, 1.0, 2.0, 100));
        let fs = recommend_sampling_freq(&trace, 1000.0);
        assert!((fs - 100.0).abs() < 1e-9);
        // Capped at max_freq.
        assert_eq!(recommend_sampling_freq(&trace, 20.0), 20.0);
        // Empty trace falls back to 1 Hz.
        assert_eq!(recommend_sampling_freq(&AppTrace::named("e", 1), 10.0), 1.0);
    }

    #[test]
    fn from_samples_constructor() {
        let s = SampledSignal::from_samples(vec![1.0, 2.0, 3.0], 2.0, 5.0);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.duration(), 1.5);
        assert_eq!(s.mean_bandwidth(), 2.0);
        assert_eq!(s.volume(), 3.0);
    }

    #[test]
    #[should_panic(expected = "sampling frequency must be positive")]
    fn zero_fs_panics() {
        SampledSignal::from_samples(vec![1.0], 0.0, 0.0);
    }

    /// A random request list mixing every case the discretiser must handle:
    /// out of order, overlapping, zero-duration, zero-byte and invalid
    /// requests, some starting on whole seconds so bin edges hit breakpoints.
    /// Data-carrying bandwidths stay within a few decades of each other so the
    /// reference's event sweep cancels to well below the checked tolerance.
    fn arbitrary_requests(rng: &mut StdRng) -> Vec<IoRequest> {
        (0..rng.gen_range(0usize..10))
            .map(|rank| {
                let mut start = rng.gen_range(0.0f64..20.0);
                if rng.gen_bool(0.2) {
                    start = start.floor();
                }
                let duration = rng.gen_range(0.05f64..6.0);
                let bytes = (rng.gen_range(1e4f64..1e6) * duration) as u64;
                match rng.gen_range(0u32..10) {
                    0 => IoRequest::write(rank, start, start, rng.gen_range(1u64..5)),
                    1 => IoRequest::write(rank, start, start + duration, 0),
                    2 => IoRequest::write(rank, start, start - duration, bytes),
                    3 => IoRequest::write(rank, -start - 1.0, start, bytes),
                    _ => IoRequest::write(rank, start, start + duration, bytes),
                }
            })
            .collect()
    }

    /// The one discretiser against the reference definitions of `x(t)`'s
    /// samples: the averaged samples of [`BandwidthTimeline::sample`] bin by
    /// bin, and the abstraction error recomputed from
    /// [`BandwidthTimeline::sample_instantaneous`] over the same `N` bins.
    #[test]
    fn window_sampling_matches_the_reference_definitions() {
        let mut rng = StdRng::seed_from_u64(0x5a3b_11e0);
        for case in 0..400 {
            let requests = arbitrary_requests(&mut rng);
            let timeline = BandwidthTimeline::from_requests(&requests);
            let trace = AppTrace::from_requests("random", 1, requests);
            let fs = [0.1, 1.0, 10.0, 1000.0][case % 4];
            let (lo, hi) = (timeline.start(), timeline.end());
            // Start before, inside or after the data; on whole seconds too, so
            // bin edges meet the requests that start on whole seconds.
            let mut t0 = match case / 4 % 3 {
                0 => lo - rng.gen_range(0.0f64..5.0),
                1 => rng.gen_range(lo..hi.max(lo + 1e-3)),
                _ => hi + rng.gen_range(0.0f64..5.0),
            };
            if rng.gen_bool(0.3) {
                t0 = t0.floor();
            }
            // Whole bins only, or a partial trailing bin too.
            let bins = rng.gen_range(0usize..(30.0 * fs) as usize + 2) as f64;
            let t1 = if case % 5 == 0 {
                t0 + bins / fs
            } else {
                t0 + (bins + rng.gen_range(0.0f64..1.0)) / fs
            };
            let signal = sample_trace_window(&trace, t0, t1, fs);
            let averaged = timeline.sample(t0, t1, fs);
            let point = timeline.sample_instantaneous(t0, t1, fs);
            assert_eq!(signal.len(), averaged.len(), "case {case}");
            assert_eq!(signal.start_time, t0, "case {case}");
            let peak = averaged.iter().fold(0.0f64, |m, &x| m.max(x));
            for (b, (x, y)) in signal.samples.iter().zip(&averaged).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-9 * peak,
                    "case {case} fs {fs} bin {b}: {x} vs {y} (peak {peak})"
                );
            }
            let true_volume: f64 = averaged.iter().sum::<f64>() / fs;
            let point_volume: f64 = point.iter().sum::<f64>() / fs;
            let expected = if true_volume > 0.0 {
                (point_volume - true_volume).abs() / true_volume
            } else {
                0.0
            };
            assert!(
                (signal.abstraction_error - expected).abs() <= 1e-9 * expected.max(1.0),
                "case {case} fs {fs}: error {} vs {expected}",
                signal.abstraction_error
            );
        }
    }

    #[test]
    fn sample_trace_is_the_window_over_the_activity_span() {
        let mut rng = StdRng::seed_from_u64(0x5a3b_11e1);
        for case in 0..64 {
            let trace = AppTrace::from_requests("random", 1, arbitrary_requests(&mut rng));
            let timeline = BandwidthTimeline::from_trace(&trace);
            let fs = [0.1, 1.0, 10.0, 1000.0][case % 4];
            let whole = sample_trace(&trace, fs);
            let window = sample_trace_window(&trace, timeline.start(), timeline.end(), fs);
            assert_eq!(whole.start_time.to_bits(), window.start_time.to_bits());
            assert_eq!(whole.samples.len(), window.samples.len(), "case {case}");
            for (x, y) in whole.samples.iter().zip(&window.samples) {
                assert_eq!(x.to_bits(), y.to_bits(), "case {case}");
            }
            assert_eq!(
                whole.abstraction_error.to_bits(),
                window.abstraction_error.to_bits()
            );
        }
    }

    #[test]
    fn empty_trace_gives_an_empty_signal_at_zero() {
        let mut trace = AppTrace::named("empty", 1);
        trace.push(IoRequest::write(0, 3.0, 4.0, 0));
        for signal in [
            sample_trace(&AppTrace::named("empty", 1), 10.0),
            sample_trace(&trace, 10.0),
        ] {
            assert!(signal.is_empty());
            assert_eq!(signal.start_time, 0.0);
            assert_eq!(signal.abstraction_error, 0.0);
        }
    }

    #[test]
    fn chunked_folding_is_bit_for_bit_identical_to_one_shot_folding() {
        let trace = bursty_trace(7.0, 1.3, 40, 12345);
        let requests = trace.requests();
        let mut one_shot = IncrementalSampler::new(2.0);
        one_shot.fold_all(requests);
        // Fold the same sequence in ragged chunks.
        let mut chunked = IncrementalSampler::new(2.0);
        let mut rest = requests;
        for chunk_len in [1usize, 7, 3, 15, 2, 40] {
            let take = chunk_len.min(rest.len());
            chunked.fold_all(&rest[..take]);
            rest = &rest[take..];
        }
        chunked.fold_all(rest);
        let a = one_shot.full_view();
        let b = chunked.full_view();
        assert_eq!(a.samples.len(), b.samples.len());
        for (x, y) in a.samples.iter().zip(&b.samples) {
            assert_eq!(x.to_bits(), y.to_bits(), "bins must match bit-for-bit");
        }
        assert_eq!(a.abstraction_error.to_bits(), b.abstraction_error.to_bits());
        assert_eq!(one_shot.stats(), chunked.stats());
    }

    #[test]
    fn folding_cost_is_independent_of_held_history() {
        // Two samplers with very different history lengths fold the same new
        // burst; the per-fold work counters must move identically.
        let new_burst: Vec<_> = bursty_trace(10.0, 2.0, 1, 999)
            .requests()
            .iter()
            .map(|r| IoRequest::write(r.rank, r.start + 5000.0, r.end + 5000.0, r.bytes))
            .collect();
        let mut short = IncrementalSampler::new(1.0);
        short.fold_all(bursty_trace(10.0, 2.0, 5, 1000).requests());
        let mut long = IncrementalSampler::new(1.0);
        long.fold_all(bursty_trace(10.0, 2.0, 400, 1000).requests());
        let before_short = short.stats();
        let before_long = long.stats();
        for r in &new_burst {
            short.fold(r);
            long.fold(r);
        }
        let d_short = short.stats().bins_touched - before_short.bins_touched;
        let d_long = long.stats().bins_touched - before_long.bins_touched;
        assert_eq!(d_short, d_long, "bin touches must not depend on history");
        assert!(d_long <= 4, "a 2 s burst at 1 Hz touches at most 3 bins");
    }

    #[test]
    fn view_zero_fills_idle_time_beyond_coverage() {
        let mut sampler = IncrementalSampler::new(1.0);
        sampler.fold(&IoRequest::write(0, 10.0, 12.0, 100));
        // Window extends 8 s past the last request: those bins are zero.
        let view = sampler.view(10.0, 20.0);
        assert_eq!(view.len(), 10);
        assert!(view.samples[0] > 0.0);
        assert!(view.samples[3..].iter().all(|&x| x == 0.0));
        // Window before any data at all.
        let empty = IncrementalSampler::new(1.0);
        assert!(empty.view(0.0, 5.0).is_empty());
        assert!(empty.is_empty());
        assert_eq!(empty.start_time(), 0.0);
        assert_eq!(empty.end_time(), 0.0);
    }

    #[test]
    fn earlier_requests_extend_the_buffer_backwards_losing_nothing() {
        // Merged per-rank trace files legally interleave timestamps, so data
        // older than the first-ingested request must still be analysed.
        let mut sampler = IncrementalSampler::new(1.0);
        sampler.fold(&IoRequest::write(0, 100.0, 101.0, 1000));
        // Straddles the original origin.
        sampler.fold(&IoRequest::write(0, 99.0, 101.0, 500));
        // Entirely before it.
        sampler.fold(&IoRequest::write(0, 50.0, 51.0, 77));
        assert_eq!(sampler.start_time(), 50.0);
        let view = sampler.full_view();
        assert!((view.volume() - (1000.0 + 500.0 + 77.0)).abs() < 1e-9);
        assert_eq!(sampler.requests_folded(), 3);
    }

    #[test]
    fn backward_extension_keeps_the_grid_aligned() {
        let mut sampler = IncrementalSampler::new(2.0);
        sampler.fold(&IoRequest::write(0, 10.3, 11.3, 100));
        // 1.1 s earlier: the origin moves back by ceil(1.1 * 2) = 3 bins.
        sampler.fold(&IoRequest::write(0, 9.2, 9.7, 40));
        assert!((sampler.start_time() - (10.3 - 1.5)).abs() < 1e-12);
        let view = sampler.full_view();
        assert!((view.volume() - 140.0).abs() < 1e-9);
        // Bin edges stayed on the original grid (offset 10.3 + k/2).
        assert!(((view.start_time - 10.3) * 2.0).round() - ((view.start_time - 10.3) * 2.0) < 1e-9);
    }

    #[test]
    fn full_view_includes_the_partial_trailing_bin() {
        let mut sampler = IncrementalSampler::new(1.0);
        sampler.fold(&IoRequest::write(0, 10.0, 12.5, 100));
        // The windowed view emits complete bins only (the batch grid)…
        assert_eq!(sampler.view(10.0, 12.5).len(), 2);
        // …while full_view covers every folded bin, so no volume is lost.
        let full = sampler.full_view();
        assert_eq!(full.len(), 3);
        assert!(
            (full.volume() - 100.0).abs() < 1e-9,
            "vol {}",
            full.volume()
        );
    }

    #[test]
    fn zero_duration_requests_preserve_volume_incrementally() {
        let mut sampler = IncrementalSampler::new(1.0);
        sampler.fold(&IoRequest::write(0, 5.0, 5.0, 1000));
        sampler.fold(&IoRequest::write(0, 6.5, 7.5, 0)); // zero bytes: skipped
        let view = sampler.view(5.0, 8.0);
        assert!((view.volume() - 1000.0).abs() < 1e-3);
        assert_eq!(sampler.requests_folded(), 1);
    }

    #[test]
    #[should_panic(expected = "sampling frequency must be positive")]
    fn incremental_sampler_rejects_zero_fs() {
        IncrementalSampler::new(0.0);
    }

    #[test]
    fn empty_window_has_no_samples_and_no_error() {
        let trace = bursty_trace(10.0, 1.0, 3, 100);
        let signal = sample_trace_window(&trace, 100.0, 100.0, 1.0);
        assert!(signal.is_empty());
        assert_eq!(signal.abstraction_error, 0.0);
        assert_eq!(signal.mean_bandwidth(), 0.0);
    }

    #[test]
    fn ring_retention_holds_peak_memory_flat_while_history_grows() {
        let mut ring =
            IncrementalSampler::with_retention(1.0, RetentionPolicy::Ring { max_bins: 64 });
        let mut unbounded = IncrementalSampler::new(1.0);
        let mut peak_after_warmup = 0;
        for i in 0..4000usize {
            let start = i as f64 * 10.0;
            let r = IoRequest::write(0, start, start + 2.0, 1000);
            ring.fold(&r);
            unbounded.fold(&r);
            if i == 500 {
                peak_after_warmup = ring.peak_bin_buffer_bytes();
            }
        }
        // 8× more history after warm-up: the ring's high-water mark must not move.
        assert_eq!(
            ring.peak_bin_buffer_bytes(),
            peak_after_warmup,
            "ring peak grew with history"
        );
        assert!(unbounded.peak_bin_buffer_bytes() > 8 * ring.peak_bin_buffer_bytes());
        // The evicted volume is accounted, not silently lost: nothing is
        // dropped here (all folds land at the fresh end), so retained volume
        // only reflects eviction of *binned* history.
        assert_eq!(ring.dropped_volume(), 0.0);
        assert_eq!(ring.requests_folded(), 4000);
        assert!(ring.len() <= 64 + 16 + 64 / 4);
        assert!(ring.retained_start_time() > ring.start_time());
    }

    #[test]
    fn ring_matches_keepall_over_the_retained_window() {
        let trace = bursty_trace(7.0, 1.3, 300, 12345);
        let mut ring =
            IncrementalSampler::with_retention(2.0, RetentionPolicy::Ring { max_bins: 128 });
        let mut keep_all = IncrementalSampler::new(2.0);
        ring.fold_all(trace.requests());
        keep_all.fold_all(trace.requests());
        // A recent window entirely inside the retained bins is bit-for-bit
        // what the unbounded sampler holds.
        let t1 = keep_all.end_time();
        let t0 = ring.retained_start_time().max(t1 - 40.0);
        let a = ring.view(t0, t1);
        let b = keep_all.view(t0, t1);
        assert_eq!(a.samples.len(), b.samples.len());
        for (i, (x, y)) in a.samples.iter().zip(&b.samples).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "bin {i}");
        }
        assert_eq!(a.start_time, b.start_time);
    }

    #[test]
    fn ring_accounts_volume_that_falls_before_the_retained_window() {
        let mut ring =
            IncrementalSampler::with_retention(1.0, RetentionPolicy::Ring { max_bins: 32 });
        for i in 0..500usize {
            let start = i as f64 * 2.0;
            ring.fold(&IoRequest::write(0, start, start + 1.0, 100));
        }
        assert_eq!(ring.dropped_volume(), 0.0);
        // A laggard lands entirely in the evicted past: fully dropped.
        ring.fold(&IoRequest::write(0, 3.0, 4.0, 777));
        assert!((ring.dropped_volume() - 777.0).abs() < 1e-9);
        // A straddler is split: the part inside the retained window is binned.
        let lo = ring.retained_start_time();
        let before = ring.full_view().volume();
        ring.fold(&IoRequest::write(0, lo - 1.0, lo + 1.0, 200));
        assert!((ring.dropped_volume() - 877.0).abs() < 1e-9);
        assert!((ring.full_view().volume() - before - 100.0).abs() < 1e-9);
        // The grid anchor never moves once bins are evicted.
        assert_eq!(ring.start_time(), 0.0);
    }

    #[test]
    fn retention_is_deterministic_across_chunk_boundaries() {
        let trace = bursty_trace(3.0, 0.8, 600, 999);
        let retention = RetentionPolicy::Ring { max_bins: 48 };
        let mut one_shot = IncrementalSampler::with_retention(2.0, retention);
        one_shot.fold_all(trace.requests());
        let mut chunked = IncrementalSampler::with_retention(2.0, retention);
        let mut rest = trace.requests();
        for chunk_len in [1usize, 13, 113, 7, 301] {
            let take = chunk_len.min(rest.len());
            chunked.fold_all(&rest[..take]);
            rest = &rest[take..];
        }
        chunked.fold_all(rest);
        let a = one_shot.full_view();
        let b = chunked.full_view();
        assert_eq!(a.samples.len(), b.samples.len());
        for (i, (x, y)) in a.samples.iter().zip(&b.samples).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "bin {i}");
        }
        assert_eq!(one_shot.stats(), chunked.stats());
        assert_eq!(
            one_shot.dropped_volume().to_bits(),
            chunked.dropped_volume().to_bits()
        );
    }

    #[test]
    fn sampler_state_round_trips_through_the_codec_and_continues_identically() {
        let trace = bursty_trace(5.0, 1.1, 400, 31337);
        let (head, tail) = trace.requests().split_at(250);
        for retention in [
            RetentionPolicy::KeepAll,
            RetentionPolicy::Ring { max_bins: 40 },
        ] {
            let mut live = IncrementalSampler::with_retention(2.0, retention);
            live.fold_all(head);
            let mut bytes = Vec::new();
            live.encode_state(&mut bytes);
            let mut reader = Reader::new(&bytes);
            let mut restored = IncrementalSampler::decode_state(&mut reader).unwrap();
            assert!(reader.is_at_end(), "{retention:?}: trailing bytes");
            assert_eq!(restored.retention(), retention);
            assert_eq!(restored.stats(), live.stats());
            // A pyramid level list (the last byte is its empty header) and a
            // bin range past the largest index are positioned errors, not
            // panics in a later fold or view.
            let rejection =
                |bytes: &[u8]| match IncrementalSampler::decode_state(&mut Reader::new(bytes)) {
                    Err(ftio_trace::TraceError::Malformed { reason, .. }) => reason,
                    other => panic!("{retention:?}: expected a positioned error, got {other:?}"),
                };
            bytes.pop();
            write_array_header(&mut bytes, 1);
            assert!(rejection(&bytes).contains("pyramid"), "{retention:?}");
            let mut overflowing = live.clone();
            overflowing.base = usize::MAX - 1;
            let mut bytes = Vec::new();
            overflowing.encode_state(&mut bytes);
            assert!(rejection(&bytes).contains("overflows"), "{retention:?}");
            // Continue folding on both sides: bit-for-bit equivalence.
            live.fold_all(tail);
            restored.fold_all(tail);
            let a = live.full_view();
            let b = restored.full_view();
            assert_eq!(a.samples.len(), b.samples.len(), "{retention:?}");
            for (i, (x, y)) in a.samples.iter().zip(&b.samples).enumerate() {
                assert_eq!(x.to_bits(), y.to_bits(), "{retention:?} bin {i}");
            }
            assert_eq!(
                a.abstraction_error.to_bits(),
                b.abstraction_error.to_bits(),
                "{retention:?}"
            );
            assert_eq!(live.stats(), restored.stats(), "{retention:?}");
            assert_eq!(live.end_time().to_bits(), restored.end_time().to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "invalid retention policy")]
    fn zero_capacity_ring_is_rejected() {
        IncrementalSampler::with_retention(1.0, RetentionPolicy::Ring { max_bins: 0 });
    }
}

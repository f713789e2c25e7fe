//! Online period prediction (paper §II-D and Fig. 5/15).
//!
//! In the online mode the application appends newly collected I/O data to its
//! trace after every I/O phase; FTIO is then run on the data gathered so far
//! to predict the period of the *next* phases. Two enhancements deal with
//! changing behaviour:
//!
//! 1. **Adaptive time windows** — once a dominant frequency has been found `k`
//!    times in a row, the analysis window shrinks to `k` times the last found
//!    period, so stale behaviour stops influencing the prediction.
//! 2. **Frequency-interval merging** — the dominant frequencies of all
//!    evaluations are merged with DBSCAN into intervals with probabilities
//!    (see [`crate::freq_merge`]).
//!
//! [`OnlinePredictor`] is the synchronous core used by the benchmarks;
//! [`ClusterEngine`](crate::cluster::ClusterEngine) runs it on worker threads
//! fed through queues, mirroring the paper's "new child process every time
//! new I/O measurements are appended" deployment.

use ftio_trace::msgpack::{self, write_array_header, write_f64, write_str, write_uint, Reader};
use ftio_trace::source::TraceSource;
use ftio_trace::{snapshot, IoRequest, TraceResult};

use crate::checkpoint;
use crate::config::FtioConfig;
use crate::detection::{detect_signal, DetectionResult};
use crate::freq_merge::{merge_predictions, FrequencyInterval, FrequencyPrediction};
use crate::sampling::{IncrementalSampler, RetentionPolicy, SamplerStats};

/// How the analysis time window is chosen for each prediction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WindowStrategy {
    /// Always analyse everything collected so far.
    FullHistory,
    /// Shrink the window to `multiple × last period` once a dominant frequency
    /// has been found `multiple` times in a row (the paper's default with
    /// `multiple = 3`).
    Adaptive {
        /// The `k` in "k times the last found period".
        multiple: usize,
    },
    /// Always analyse the last `length` seconds.
    Fixed {
        /// Window length in seconds.
        length: f64,
    },
}

impl Default for WindowStrategy {
    fn default() -> Self {
        WindowStrategy::Adaptive { multiple: 3 }
    }
}

/// One online prediction.
#[derive(Clone, Debug)]
pub struct OnlinePrediction {
    /// Time at which the prediction was made, seconds.
    pub time: f64,
    /// Start of the analysis window, seconds.
    pub window_start: f64,
    /// End of the analysis window (equals `time`), seconds.
    pub window_end: f64,
    /// The full detection result for that window.
    pub result: DetectionResult,
}

impl OnlinePrediction {
    /// The predicted period, if a dominant frequency was found.
    pub fn period(&self) -> Option<f64> {
        self.result.period()
    }

    /// The confidence of the prediction.
    pub fn confidence(&self) -> f64 {
        self.result.confidence()
    }
}

/// Synchronous online predictor: accumulate requests, predict on demand.
///
/// The predictor holds one [`IncrementalSampler`] across ticks. New requests
/// are folded into it at ingest time (`O(new requests)`), and every tick
/// analyses a window *view* over its bin buffer, so a steady-state tick costs
/// the same however much history has been collected. The raw requests are
/// not kept.
#[derive(Clone, Debug)]
pub struct OnlinePredictor {
    config: FtioConfig,
    strategy: WindowStrategy,
    /// Valid requests ingested so far.
    requests_seen: usize,
    sampler: IncrementalSampler,
    history: Vec<FrequencyPrediction>,
    consecutive_dominant: usize,
    last_period: Option<f64>,
}

impl OnlinePredictor {
    /// Creates a predictor with the given analysis configuration and window
    /// strategy, keeping every bin ([`RetentionPolicy::KeepAll`]).
    ///
    /// # Panics
    ///
    /// Panics if the FTIO configuration is invalid.
    pub fn new(config: FtioConfig, strategy: WindowStrategy) -> Self {
        Self::with_memory(config, strategy, RetentionPolicy::KeepAll)
    }

    /// Creates a predictor whose sampler bounds its bin buffer with `memory`.
    ///
    /// # Panics
    ///
    /// Panics if the FTIO configuration or the retention policy is invalid.
    pub fn with_memory(
        config: FtioConfig,
        strategy: WindowStrategy,
        memory: RetentionPolicy,
    ) -> Self {
        config.validate().expect("invalid FTIO configuration");
        OnlinePredictor {
            config,
            strategy,
            requests_seen: 0,
            sampler: IncrementalSampler::with_retention(config.sampling_freq, memory),
            history: Vec::new(),
            consecutive_dominant: 0,
            last_period: None,
        }
    }

    /// Work counters of the held sampler (see [`SamplerStats`]): the
    /// observable proof that steady-state ticks fold only new data.
    pub fn sampler_stats(&self) -> SamplerStats {
        self.sampler.stats()
    }

    /// Appends newly flushed requests (the data the application just wrote to
    /// its trace file). Each request is folded into the persistent sampler
    /// (`O(bins overlapped)`).
    pub fn ingest<I: IntoIterator<Item = IoRequest>>(&mut self, requests: I) {
        for request in requests {
            self.sampler.fold(&request);
            if request.is_valid() {
                self.requests_seen += 1;
            }
        }
    }

    /// Drains a [`TraceSource`] into the predictor (bin batches are converted
    /// to their request view) and returns the number of requests ingested —
    /// how a recorded file is fed to the online mode.
    pub fn ingest_source(&mut self, source: &mut dyn TraceSource) -> TraceResult<usize> {
        let mut ingested = 0usize;
        while let Some(batch) = source.next_batch()? {
            let requests = batch.into_requests();
            ingested += requests.len();
            self.ingest(requests);
        }
        Ok(ingested)
    }

    /// Number of valid requests collected so far.
    pub fn collected_requests(&self) -> usize {
        self.requests_seen
    }

    /// Read access to the held sampler — memory observability
    /// ([`IncrementalSampler::bin_buffer_bytes`], peak, dropped volume) for
    /// long-horizon deployments.
    pub fn sampler(&self) -> &IncrementalSampler {
        &self.sampler
    }

    /// The analysis window that would be used for a prediction at time `now`.
    ///
    /// The window start is anchored at the sampler origin (the first ingested
    /// request's start time); the signal analysed for the window is the
    /// bin-aligned [`IncrementalSampler::view`] over it.
    pub fn window_at(&self, now: f64) -> (f64, f64) {
        let data_start = self.sampler.start_time();
        let start = match self.strategy {
            WindowStrategy::FullHistory => data_start,
            WindowStrategy::Fixed { length } => (now - length).max(data_start),
            WindowStrategy::Adaptive { multiple } => match self.last_period {
                Some(period) if self.consecutive_dominant >= multiple.max(1) => {
                    (now - multiple as f64 * period).max(data_start)
                }
                _ => data_start,
            },
        };
        (start.min(now), now)
    }

    /// Runs a prediction over the data collected up to `now`.
    ///
    /// The discretised signal is a view over the persistent bin buffer —
    /// nothing is re-derived from the request history, so the sampling stage
    /// of the tick is `O(1)` in history length (the spectral stage remains
    /// `O(window)`).
    pub fn predict(&mut self, now: f64) -> OnlinePrediction {
        let (start, end) = self.window_at(now);
        let signal = self.sampler.view(start, end);
        let result = detect_signal(&signal, &self.config);

        match result.dominant_frequency() {
            Some(freq) => {
                self.consecutive_dominant += 1;
                self.last_period = Some(1.0 / freq);
                self.history.push(FrequencyPrediction {
                    time: now,
                    frequency: freq,
                    confidence: result.confidence(),
                    window_length: end - start,
                });
            }
            None => {
                self.consecutive_dominant = 0;
            }
        }

        OnlinePrediction {
            time: now,
            window_start: start,
            window_end: end,
            result,
        }
    }

    /// All successful (dominant-frequency) predictions so far.
    pub fn history(&self) -> &[FrequencyPrediction] {
        &self.history
    }

    /// Merges the prediction history into frequency intervals with probabilities.
    pub fn merged_intervals(&self) -> Vec<FrequencyInterval> {
        merge_predictions(&self.history, 2)
    }

    /// Number of consecutive predictions that found a dominant frequency.
    pub fn consecutive_dominant(&self) -> usize {
        self.consecutive_dominant
    }

    /// Serialises the predictor into a sealed snapshot file image (see
    /// [`ftio_trace::snapshot`] for the container and [`crate::checkpoint`]
    /// for the payload layout). A predictor restored from these bytes
    /// continues **bit-for-bit** like the uninterrupted original.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut payload = Vec::new();
        write_str(&mut payload, checkpoint::KIND_PREDICTOR);
        self.encode_state(&mut payload);
        snapshot::seal(&payload)
    }

    /// Rebuilds a predictor from [`snapshot`](Self::snapshot) bytes.
    ///
    /// Corrupt input (truncation, bit flips, wrong kind or version) fails
    /// with a positioned [`ftio_trace::TraceError`]; this never panics.
    pub fn restore(data: &[u8]) -> TraceResult<Self> {
        let payload = snapshot::open(data)?;
        let mut reader = Reader::new(payload);
        checkpoint::expect_kind(&mut reader, checkpoint::KIND_PREDICTOR)?;
        let predictor = Self::decode_state(&mut reader)?;
        if !reader.is_at_end() {
            return Err(checkpoint::err_at(
                &reader,
                "trailing bytes after predictor state",
            ));
        }
        Ok(predictor)
    }

    /// Payload-level encoder shared by [`snapshot`](Self::snapshot) and the
    /// cluster-engine checkpoint (which embeds one predictor per application).
    pub(crate) fn encode_state(&self, out: &mut Vec<u8>) {
        checkpoint::encode_config(out, &self.config);
        checkpoint::encode_strategy(out, &self.strategy);
        checkpoint::encode_tick_mode(out);
        checkpoint::encode_memory_policy(out, &self.sampler.retention());
        write_uint(out, self.requests_seen as u64);
        // No request list follows.
        checkpoint::write_flag(out, false);
        self.sampler.encode_state(out);
        write_array_header(out, self.history.len());
        for prediction in &self.history {
            write_f64(out, prediction.time);
            write_f64(out, prediction.frequency);
            write_f64(out, prediction.confidence);
            write_f64(out, prediction.window_length);
        }
        write_uint(out, self.consecutive_dominant as u64);
        checkpoint::write_opt_f64(out, self.last_period);
    }

    /// Payload-level decoder matching [`encode_state`](Self::encode_state).
    pub(crate) fn decode_state(reader: &mut Reader<'_>) -> TraceResult<Self> {
        let config = checkpoint::decode_config(reader)?;
        let strategy = checkpoint::decode_strategy(reader)?;
        checkpoint::decode_tick_mode(reader)?;
        // The retention this slot holds is read again from the sampler state.
        checkpoint::decode_memory_policy(reader)?;
        let requests_seen = checkpoint::read_count(reader, "request count")?;
        if checkpoint::read_flag(reader)? {
            // A raw request list, which older predictors could keep. Nothing
            // reads it: the sampler state below already holds its bins.
            checkpoint::read_count(reader, "rank count")?;
            for _ in 0..reader.read_array_header()? {
                msgpack::decode_request(reader)?;
            }
        }
        let sampler = IncrementalSampler::decode_state(reader)?;
        if (sampler.sampling_freq() - config.sampling_freq).abs() > f64::EPSILON {
            return Err(checkpoint::err_at(
                reader,
                "sampler frequency does not match the analysis configuration",
            ));
        }
        let history_len = reader.read_array_header()?;
        let mut history = Vec::with_capacity(history_len.min(1 << 16));
        for _ in 0..history_len {
            history.push(FrequencyPrediction {
                time: reader.read_f64()?,
                frequency: reader.read_f64()?,
                confidence: reader.read_f64()?,
                window_length: reader.read_f64()?,
            });
        }
        let consecutive_dominant = checkpoint::read_count(reader, "dominant streak")?;
        let last_period = checkpoint::read_opt_f64(reader)?;
        Ok(OnlinePredictor {
            config,
            strategy,
            requests_seen,
            sampler,
            history,
            consecutive_dominant,
            last_period,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Requests for a burst of `duration` seconds starting at `start`.
    fn burst(start: f64, duration: f64, bytes: u64) -> Vec<IoRequest> {
        (0..4)
            .map(|rank| IoRequest::write(rank, start, start + duration, bytes / 4))
            .collect()
    }

    fn config() -> FtioConfig {
        FtioConfig {
            sampling_freq: 2.0,
            use_autocorrelation: false,
            ..Default::default()
        }
    }

    #[test]
    fn predictions_converge_to_the_true_period() {
        let period = 12.0;
        let mut predictor = OnlinePredictor::new(config(), WindowStrategy::FullHistory);
        let mut last: Option<OnlinePrediction> = None;
        for i in 0..12 {
            let start = i as f64 * period;
            predictor.ingest(burst(start, 2.0, 2_000_000_000));
            let now = start + 2.0;
            last = Some(predictor.predict(now));
        }
        let final_prediction = last.unwrap();
        let detected = final_prediction.period().expect("period detected");
        assert!((detected - period).abs() < 1.5, "period {detected}");
        assert!(!predictor.history().is_empty());
        assert!(predictor.collected_requests() > 0);
    }

    #[test]
    fn adaptive_strategy_shrinks_the_window() {
        let period = 10.0;
        let mut predictor =
            OnlinePredictor::new(config(), WindowStrategy::Adaptive { multiple: 3 });
        let mut shrunk = false;
        for i in 0..10 {
            let start = i as f64 * period;
            predictor.ingest(burst(start, 2.0, 2_000_000_000));
            let now = start + 2.0;
            let prediction = predictor.predict(now);
            let window_len = prediction.window_end - prediction.window_start;
            if i >= 4 && predictor.consecutive_dominant() >= 3 && window_len < now - 0.5 {
                // Once adapted, the window is a few periods long, not the full history.
                shrunk = true;
                assert!(
                    window_len <= 6.0 * period,
                    "window {window_len} too long at iteration {i}"
                );
            }
        }
        assert!(
            shrunk,
            "the adaptive window never shrank below the full history"
        );
    }

    #[test]
    fn source_ingestion_matches_direct_ingestion() {
        use ftio_trace::{AppId, AppTrace, MemorySource};
        let period = 11.0;
        let mut requests = Vec::new();
        for i in 0..10 {
            requests.extend(burst(i as f64 * period, 2.0, 2_000_000_000));
        }
        let mut direct = OnlinePredictor::new(config(), WindowStrategy::FullHistory);
        direct.ingest(requests.clone());
        let mut streamed = OnlinePredictor::new(config(), WindowStrategy::FullHistory);
        let trace = AppTrace::from_requests("s", 4, requests.clone());
        let mut source = MemorySource::from_trace(AppId::new(1), &trace, 6);
        let ingested = streamed.ingest_source(&mut source).unwrap();
        assert_eq!(ingested, requests.len());
        assert_eq!(streamed.collected_requests(), direct.collected_requests());
        let now = 9.0 * period + 2.0;
        let a = direct.predict(now);
        let b = streamed.predict(now);
        assert_eq!(a.period(), b.period());
        assert_eq!(a.confidence(), b.confidence());
    }

    #[test]
    fn fixed_strategy_limits_the_window_length() {
        let mut predictor = OnlinePredictor::new(config(), WindowStrategy::Fixed { length: 25.0 });
        for i in 0..8 {
            predictor.ingest(burst(i as f64 * 10.0, 2.0, 1_000_000_000));
        }
        let prediction = predictor.predict(72.0);
        assert!((prediction.window_end - prediction.window_start) <= 25.0 + 1e-9);
        assert!((prediction.window_start - 47.0).abs() < 1e-9);
    }

    /// Out-of-order ingestion (legal for merged per-rank trace files) must
    /// not lose the earlier data: the sampler extends backwards instead of
    /// clipping, so the full-history window reaches back to the true start.
    #[test]
    fn out_of_order_ingestion_is_not_clipped() {
        let mut predictor = OnlinePredictor::new(config(), WindowStrategy::FullHistory);
        predictor.ingest(vec![IoRequest::write(0, 50.0, 51.0, 1_000_000)]);
        predictor.ingest(vec![IoRequest::write(1, 1.0, 2.0, 1_000_000)]);
        let (start, end) = predictor.window_at(60.0);
        assert!(
            start <= 1.0 + 1e-9,
            "window start {start} clipped early data"
        );
        assert_eq!(end, 60.0);
        let prediction = predictor.predict(60.0);
        // fs = 2 Hz over ~59 s of history: both bursts are in the signal.
        assert!(prediction.result.num_samples >= 115);
        assert!(prediction.result.window_start <= 1.0 + 1e-9);
    }

    #[test]
    fn window_never_starts_before_the_first_request() {
        let mut predictor =
            OnlinePredictor::new(config(), WindowStrategy::Fixed { length: 1000.0 });
        predictor.ingest(burst(50.0, 1.0, 1_000_000));
        let (start, end) = predictor.window_at(60.0);
        assert_eq!(start, 50.0);
        assert_eq!(end, 60.0);
    }

    #[test]
    fn history_and_intervals_reflect_consistent_predictions() {
        let period = 8.0;
        let mut predictor = OnlinePredictor::new(config(), WindowStrategy::FullHistory);
        for i in 0..14 {
            let start = i as f64 * period;
            predictor.ingest(burst(start, 1.5, 1_500_000_000));
            predictor.predict(start + 1.5);
        }
        let history = predictor.history();
        assert!(history.len() >= 5, "history too short: {}", history.len());
        let intervals = predictor.merged_intervals();
        assert!(!intervals.is_empty());
        let main = &intervals[0];
        let (lo, hi) = main.period_bounds();
        // Early predictions run on short windows, so the interval sits near the
        // true period rather than containing it exactly.
        assert!(
            lo <= period * 1.15 && hi >= period * 0.85,
            "bounds {lo}..{hi}"
        );
        assert!(main.probability > 0.5);
    }

    #[test]
    fn non_periodic_data_resets_the_consecutive_counter() {
        let mut predictor =
            OnlinePredictor::new(config(), WindowStrategy::Adaptive { multiple: 2 });
        // Periodic part.
        for i in 0..6 {
            predictor.ingest(burst(i as f64 * 10.0, 2.0, 1_000_000_000));
            predictor.predict(i as f64 * 10.0 + 2.0);
        }
        assert!(predictor.consecutive_dominant() >= 2);
        // A long stretch of irregular data.
        predictor.ingest(burst(90.0, 37.0, 500_000));
        predictor.ingest(burst(131.0, 3.0, 800_000_000));
        predictor.ingest(burst(139.0, 22.0, 200_000));
        let p = predictor.predict(170.0);
        if p.period().is_none() {
            assert_eq!(predictor.consecutive_dominant(), 0);
        }
    }

    /// Acceptance test for the allocation-free spectral pipeline: once the
    /// analysis window length stabilises, every further prediction tick must
    /// run entirely on cached FFT plans and already-grown scratch buffers.
    /// The thread-local plan-cache counters make both properties observable
    /// (the predictor runs synchronously on this test's thread).
    #[test]
    fn steady_state_ticks_build_no_plans_and_grow_no_scratch() {
        let config = FtioConfig {
            sampling_freq: 2.0,
            // Exercise the ACF refinement too: a 600-sample window takes the
            // FFT autocorrelation path (n^2 > 2^18).
            use_autocorrelation: true,
            ..Default::default()
        };
        let mut predictor = OnlinePredictor::new(config, WindowStrategy::Fixed { length: 300.0 });
        let period = 10.0;
        let tick = |predictor: &mut OnlinePredictor, now: f64| {
            predictor.ingest(burst(now - 2.0, 2.0, 2_000_000_000));
            predictor.predict(now);
        };
        // History long enough that every analysed window is exactly 300 s
        // (600 samples), then warm the caches for a few ticks.
        for i in 0..40 {
            predictor.ingest(burst(i as f64 * period, 2.0, 2_000_000_000));
        }
        for i in 0..3 {
            tick(&mut predictor, 400.0 + i as f64 * period);
        }
        let before = ftio_dsp::plan_cache::stats();
        for i in 3..10 {
            tick(&mut predictor, 400.0 + i as f64 * period);
        }
        let after = ftio_dsp::plan_cache::stats();
        assert_eq!(
            after.plans_built(),
            before.plans_built(),
            "steady-state ticks must not construct FFT plans: {before:?} -> {after:?}"
        );
        assert_eq!(
            after.scratch_grows, before.scratch_grows,
            "steady-state ticks must not grow FFT scratch buffers: {before:?} -> {after:?}"
        );
        // Sanity: the ticks actually went through the cached spectral path.
        assert!(after.plan_hits > before.plan_hits);
        assert!(predictor.history().len() >= 5);
    }

    /// Tentpole contract: every tick is **bit-for-bit** what rebuilding the
    /// signal from scratch gives — a fresh sampler folded with every request
    /// ingested so far, viewed over the tick's own window — across every window
    /// strategy, since both fold the same requests in the same order.
    #[test]
    fn incremental_and_rebuild_ticks_are_bit_for_bit_identical() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let strategies = [
            WindowStrategy::FullHistory,
            WindowStrategy::Adaptive { multiple: 3 },
            WindowStrategy::Fixed { length: 60.0 },
        ];
        let mut rng = StdRng::seed_from_u64(0x17c4_e11a);
        for strategy in strategies {
            // Use the full default pipeline (autocorrelation on) so the whole
            // tick path is covered, with slight period jitter so windows vary.
            let config = FtioConfig {
                sampling_freq: 2.0,
                ..Default::default()
            };
            let mut predictor = OnlinePredictor::new(config, strategy);
            let mut ingested = Vec::new();
            for i in 0..14 {
                let start = i as f64 * 10.0 + rng.gen_range(-0.5..0.5);
                let data = burst(start, 2.0, 1_500_000_000 + i as u64);
                ingested.extend_from_slice(&data);
                predictor.ingest(data);
                let a = predictor.predict(start + 2.0);
                let mut rebuilt = IncrementalSampler::new(config.sampling_freq);
                rebuilt.fold_all(&ingested);
                let b = detect_signal(&rebuilt.view(a.window_start, a.window_end), &config);
                assert_eq!(a.result.num_samples, b.num_samples);
                assert_eq!(a.result.window_start.to_bits(), b.window_start.to_bits());
                assert_eq!(
                    a.period().map(f64::to_bits),
                    b.period().map(f64::to_bits),
                    "{strategy:?} tick {i}"
                );
                assert_eq!(a.confidence().to_bits(), b.confidence().to_bits());
                assert_eq!(
                    a.result.refined_confidence().to_bits(),
                    b.refined_confidence().to_bits()
                );
            }
        }
    }

    /// A snapshot may carry a raw request list (memory-slot flag 1,
    /// request-list flag 1, a rank count, the requests), as predictors that
    /// kept their requests wrote it. It restores to the same state, and the
    /// restored predictor continues bit for bit.
    #[test]
    fn snapshots_that_carry_requests_still_restore() {
        let mut live = OnlinePredictor::new(config(), WindowStrategy::Adaptive { multiple: 3 });
        let mut ingested = Vec::new();
        for i in 0..8 {
            let data = burst(i as f64 * 10.0, 2.0, 1_000_000_000);
            ingested.extend_from_slice(&data);
            live.ingest(data);
            live.predict(i as f64 * 10.0 + 2.0);
        }
        // The payload before the sampler state, with or without the list.
        let head = |carry: bool| {
            let mut out = Vec::new();
            checkpoint::encode_config(&mut out, &live.config);
            checkpoint::encode_strategy(&mut out, &live.strategy);
            checkpoint::encode_tick_mode(&mut out);
            checkpoint::encode_retention(&mut out, &live.sampler.retention());
            checkpoint::write_flag(&mut out, carry);
            write_uint(&mut out, live.requests_seen as u64);
            checkpoint::write_flag(&mut out, carry);
            if carry {
                write_uint(&mut out, 4);
                write_array_header(&mut out, ingested.len());
                for request in &ingested {
                    msgpack::encode_request(&mut out, request);
                }
            }
            out
        };
        let mut state = Vec::new();
        live.encode_state(&mut state);
        let kept = head(false);
        assert!(state.starts_with(&kept), "the payload layout moved");
        let mut payload = Vec::new();
        write_str(&mut payload, checkpoint::KIND_PREDICTOR);
        payload.extend_from_slice(&head(true));
        payload.extend_from_slice(&state[kept.len()..]);
        let mut restored = OnlinePredictor::restore(&snapshot::seal(&payload)).unwrap();
        assert_eq!(restored.snapshot(), live.snapshot());
        for i in 8..14 {
            let data = burst(i as f64 * 10.0, 2.0, 1_000_000_000);
            live.ingest(data.clone());
            restored.ingest(data);
            let now = i as f64 * 10.0 + 2.0;
            let (a, b) = (live.predict(now), restored.predict(now));
            assert_eq!(a.window_start.to_bits(), b.window_start.to_bits());
            assert_eq!(a.result.num_samples, b.result.num_samples);
            assert_eq!(a.period().map(f64::to_bits), b.period().map(f64::to_bits));
            assert_eq!(a.confidence().to_bits(), b.confidence().to_bits());
        }
        assert_eq!(restored.snapshot(), live.snapshot());
    }

    /// Tentpole counter contract: a steady-state tick folds only the newly
    /// ingested requests — the sampler work per tick is identical whether the
    /// predictor holds a short or an 8x longer history.
    #[test]
    fn steady_state_ticks_touch_only_new_data() {
        #[derive(Debug, PartialEq, Eq)]
        struct Delta {
            requests: u64,
            bins: u64,
        }
        let tick_deltas = |prewarm_bursts: usize| -> Vec<Delta> {
            let mut predictor = OnlinePredictor::new(config(), WindowStrategy::FullHistory);
            for i in 0..prewarm_bursts {
                predictor.ingest(burst(i as f64 * 10.0, 2.0, 2_000_000_000));
            }
            let mut deltas = Vec::new();
            for i in 0..5 {
                let now = (prewarm_bursts + i) as f64 * 10.0 + 2.0;
                let before = predictor.sampler_stats();
                predictor.ingest(burst(now - 2.0, 2.0, 2_000_000_000));
                predictor.predict(now);
                let after = predictor.sampler_stats();
                deltas.push(Delta {
                    requests: after.requests_folded - before.requests_folded,
                    bins: after.bins_touched - before.bins_touched,
                });
            }
            deltas
        };
        let short = tick_deltas(25);
        let long = tick_deltas(200);
        assert_eq!(
            short, long,
            "per-tick sampler work must be independent of history length"
        );
        for delta in &short {
            assert_eq!(delta.requests, 4, "one 4-rank burst per tick");
            // A 2 s burst at fs = 2 Hz overlaps at most 5 bins per request.
            assert!(delta.bins <= 4 * 5, "tick folded too many bins: {delta:?}");
        }
    }
}

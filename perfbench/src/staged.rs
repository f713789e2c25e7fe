//! The detection pipeline called stage by stage through the public API, in
//! the program's order, so each stage gets its own span; plus the census of
//! spectral transforms by FFT plan kind.
//!
//! `detect_signal` runs: spectrum → outliers → dominant selection → ACF
//! (when enabled) → characterisation. [`staged_detect`] calls the same
//! public functions in the same order; [`Staged::matches`] checks the
//! outcome equals the real call's bit for bit.

use std::collections::HashMap;
use std::time::Instant;

use ftio_core::autocorrelation::AcfAnalysis;
use ftio_core::characterize::Characterization;
use ftio_core::dominant::{select_dominant, DominantAnalysis};
use ftio_core::outlier::detect_outliers;
use ftio_core::{
    analyze_acf, characterize, ClusterConfig, DetectionResult, FtioConfig, OnlinePredictor,
    OutlierMethod, SampledSignal, SpectrumInfo,
};
use ftio_dsp::fft::{factorize, MIN_CONCURRENT_SIZE};
use ftio_dsp::plan_cache::{self, PlanCacheStats};
use ftio_trace::source::{from_bytes_auto, DEFAULT_BATCH_SIZE};
use ftio_trace::{AppId, IoRequest};

use crate::tracer::{SpanId, Tracer};

/// What the staged calls produced.
pub struct Staged {
    dominant: DominantAnalysis,
    acf: Option<AcfAnalysis>,
    characterization: Option<Characterization>,
    num_samples: usize,
}

impl Staged {
    /// Whether the real call reached the same answer, bit for bit.
    pub fn matches(&self, real: &DetectionResult) -> bool {
        self.num_samples == real.num_samples
            && self.dominant.dominant == real.dominant.dominant
            && self.dominant.candidates == real.dominant.candidates
            && self.dominant.verdict == real.dominant.verdict
            && self.characterization == real.characterization
            && self.acf.as_ref().map(|a| (a.period, a.confidence))
                == real.acf.as_ref().map(|a| (a.period, a.confidence))
    }

    /// Whether a dominant frequency was found.
    pub fn found(&self) -> bool {
        self.dominant.dominant.is_some()
    }
}

/// Runs the stages of `detect_signal` on `signal` as children of `parent`.
pub fn staged_detect(
    tracer: &mut Tracer,
    parent: SpanId,
    key: u64,
    signal: &SampledSignal,
    config: &FtioConfig,
) -> Staged {
    assert!(
        !config.skip_first_phase,
        "the staged pipeline mirrors the default configuration"
    );
    let fs = signal.sampling_freq;
    let spectrum = tracer.leaf("spectrum_info", parent, key, || {
        SpectrumInfo::from_samples(&signal.samples, fs)
    });
    let outliers = tracer.leaf("outlier", parent, key, || {
        detect_outliers(spectrum.non_dc_powers(), &config.outlier_method)
    });
    let zscore_threshold = match config.outlier_method {
        OutlierMethod::ZScore { threshold } => threshold,
        _ => 3.0,
    };
    let dominant = tracer.leaf("dominant", parent, key, || {
        select_dominant(
            &spectrum,
            &outliers,
            zscore_threshold,
            config.tolerance,
            config.filter_harmonics,
            config.harmonic_tolerance,
        )
    });
    let acf = config.use_autocorrelation.then(|| {
        tracer.leaf("autocorrelation", parent, key, || {
            analyze_acf(
                &signal.samples,
                fs,
                config.acf_peak_height,
                config.acf_outlier_threshold,
            )
        })
    });
    let characterization = tracer.leaf("characterize", parent, key, || {
        dominant
            .dominant
            .and_then(|d| characterize(signal, d.frequency))
    });
    Staged {
        dominant,
        acf,
        characterization,
        num_samples: signal.samples.len(),
    }
}

/// FFT plan kinds, as `ftio_dsp::fft::Fft::new` selects them.
#[derive(Clone, Copy, Debug, Default)]
pub struct FftCensus {
    /// Mixed-radix plans (every prime factor ≤ 7).
    pub smooth: u64,
    /// Bluestein plans whose convolution stays below the four-step cutoff.
    pub bluestein: u64,
    /// Plans that run the four-step decomposition, directly or as the
    /// convolution inside a Bluestein plan.
    pub four_step: u64,
}

impl FftCensus {
    /// Counts one real-input transform of `len` samples. A real FFT of even
    /// length runs a complex FFT of half the length, of odd length a complex
    /// FFT of the full length (`ftio_dsp::rfft::RealFft`).
    pub fn add_real(&mut self, len: usize) {
        let complex = if len.is_multiple_of(2) { len / 2 } else { len };
        if complex <= 1 {
            return;
        }
        let factors = factorize(complex);
        if complex >= MIN_CONCURRENT_SIZE && factors.len() > 1 {
            self.four_step += 1;
        } else if factors.iter().all(|&f| f <= 7) {
            self.smooth += 1;
        } else if (2 * complex - 1).next_power_of_two() >= MIN_CONCURRENT_SIZE {
            self.four_step += 1;
        } else {
            self.bluestein += 1;
        }
    }

    /// Counts the transforms of one detection over `samples` samples: the
    /// spectrum, plus the zero-padded ACF when enabled.
    pub fn add_detection(&mut self, samples: usize, acf: bool) {
        self.add_real(samples);
        if acf && samples > 0 {
            self.add_real((2 * samples).next_power_of_two());
        }
    }
}

/// Plan-cache hits and builds between two snapshots of one thread's cache.
pub fn plan_delta(before: PlanCacheStats, after: PlanCacheStats) -> (u64, u64) {
    (
        after.plan_hits - before.plan_hits,
        after.plans_built() - before.plans_built(),
    )
}

/// Single-threaded pass over an online workload's inputs: decode, ingest,
/// the staged tick, then the real `predict`, one flush at a time.
pub struct ShadowPass {
    /// The engine settings whose predictors the pass mirrors.
    config: ClusterConfig,
    predictors: HashMap<AppId, OnlinePredictor>,
    /// Flushes processed.
    pub flushes: u64,
    /// Ticks whose staged result differed from `predict`'s.
    pub mismatches: u64,
    /// Ticks that found a dominant frequency.
    pub found: u64,
    /// Samples analysed per tick.
    pub window_n: Vec<f64>,
    /// Payload bytes decoded.
    pub bytes: u64,
    /// Decode + ingest + real tick of every flush, µs, by flush key.
    pub cost_us: HashMap<u64, f64>,
    /// Plan-cache hits and builds of the staged spectra.
    pub plan_hits: u64,
    /// See [`ShadowPass::plan_hits`].
    pub plans_built: u64,
    /// Staged and real tick seconds over ticks whose staged spectrum built
    /// no plan (both calls then run with warm plans).
    pub warm_staged_s: f64,
    /// See [`ShadowPass::warm_staged_s`].
    pub warm_real_s: f64,
}

impl ShadowPass {
    /// A pass whose predictors are built as the engine's workers build them.
    pub fn new(config: ClusterConfig) -> Self {
        ShadowPass {
            config,
            predictors: HashMap::new(),
            flushes: 0,
            mismatches: 0,
            found: 0,
            window_n: Vec::new(),
            bytes: 0,
            cost_us: HashMap::new(),
            plan_hits: 0,
            plans_built: 0,
            warm_staged_s: 0.0,
            warm_real_s: 0.0,
        }
    }

    /// One `Data` payload of `app`, decoded as the daemon decodes it.
    pub fn flush_bytes(&mut self, tracer: &mut Tracer, app: AppId, payload: &[u8], key: u64) {
        let root = tracer.begin("shadow.flush", None, key);
        let started = Instant::now();
        let decode = tracer.begin("source.decode", root, key);
        let mut batches = Vec::new();
        let (_, mut source) = from_bytes_auto(None, app, payload.to_vec(), DEFAULT_BATCH_SIZE)
            .expect("generated payloads decode");
        while let Some(batch) = source.next_batch().expect("generated payloads decode") {
            batches.push(batch);
        }
        tracer.end(decode);
        self.bytes += payload.len() as u64;
        let decode_s = started.elapsed().as_secs_f64();
        let mut tick_s = 0.0;
        for batch in batches {
            let Some(now) = batch.end_time() else {
                continue;
            };
            tick_s += self.tick(tracer, root, app, batch.into_requests(), now, key);
        }
        tracer.end(root);
        self.cost_us.insert(key, (decode_s + tick_s) * 1e6);
    }

    /// One flush of `app` handed over as requests (no decode on this path).
    pub fn flush_requests(
        &mut self,
        tracer: &mut Tracer,
        app: AppId,
        requests: Vec<IoRequest>,
        now: f64,
        key: u64,
    ) {
        let root = tracer.begin("shadow.flush", None, key);
        let tick_s = self.tick(tracer, root, app, requests, now, key);
        tracer.end(root);
        self.cost_us.insert(key, tick_s * 1e6);
    }

    /// Ingest, staged tick, real tick; returns the ingest + real tick time.
    fn tick(
        &mut self,
        tracer: &mut Tracer,
        root: SpanId,
        app: AppId,
        requests: Vec<IoRequest>,
        now: f64,
        key: u64,
    ) -> f64 {
        let config = self.config;
        let predictor = self.predictors.entry(app).or_insert_with(|| {
            OnlinePredictor::with_memory(config.ftio, config.strategy, config.memory)
        });
        let started = Instant::now();
        tracer.leaf("sampling.fold", root, key, || predictor.ingest(requests));
        let fold_s = started.elapsed().as_secs_f64();

        let staged_at = Instant::now();
        let staged_span = tracer.begin("online.staged", root, key);
        let signal = tracer.leaf("sampling.view", staged_span, key, || {
            let (start, end) = predictor.window_at(now);
            predictor.sampler().view(start, end)
        });
        let before = plan_cache::stats();
        let staged = staged_detect(tracer, staged_span, key, &signal, &config.ftio);
        let (hits, built) = plan_delta(before, plan_cache::stats());
        tracer.end(staged_span);
        let staged_s = staged_at.elapsed().as_secs_f64();

        let real_at = Instant::now();
        let real = tracer.leaf("online.tick", root, key, || predictor.predict(now));
        let real_s = real_at.elapsed().as_secs_f64();

        self.plan_hits += hits;
        self.plans_built += built;
        if built == 0 {
            self.warm_staged_s += staged_s;
            self.warm_real_s += real_s;
        }
        if !staged.matches(&real.result) {
            self.mismatches += 1;
        }
        if staged.found() {
            self.found += 1;
        }
        self.flushes += 1;
        self.window_n.push(signal.samples.len() as f64);
        fold_s + real_s
    }
}

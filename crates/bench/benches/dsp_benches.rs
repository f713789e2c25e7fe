//! Criterion micro-benchmarks of the signal-processing substrate.
//!
//! The paper reports that the analysis itself takes a few seconds at most
//! (§III-C: 2.2 s for LAMMPS, 5.7 s for IOR, 8.7 s for Nek5000, 3.6 s for
//! HACC-IO, dominated by data import); these benchmarks measure the Rust
//! implementation of the underlying primitives — FFT, autocorrelation, peak
//! detection, outlier detection — over the signal sizes those analyses use.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use ftio_dsp::correlation::{autocorrelation, autocorrelation_fft};
use ftio_dsp::fft::{fft_real, Fft};
use ftio_dsp::peaks::{find_peaks, prominence_naive, PeakConfig};
use ftio_dsp::rfft::rfft;
use ftio_dsp::spectrum::Spectrum;
use ftio_dsp::zscore::outlier_indices;

fn bandwidth_signal(n: usize, period: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            if i % period < period / 5 {
                8.0e9
            } else {
                1.0e6
            }
        })
        .collect()
}

fn bench_fft(c: &mut Criterion) {
    let mut group = c.benchmark_group("fft_real");
    group.sample_size(30);
    // 781 s @ 10 Hz (IOR), 86,000 s @ 0.006 Hz (Nek5000, ~516 bins),
    // a power of two, and a prime length (Bluestein path).
    for &n in &[512usize, 781, 7817, 8192, 7919] {
        let signal = bandwidth_signal(n, 97);
        group.bench_with_input(BenchmarkId::from_parameter(n), &signal, |b, s| {
            b.iter(|| black_box(fft_real(black_box(s))));
        });
    }
    group.finish();
}

fn bench_rfft(c: &mut Criterion) {
    // The half-spectrum real-input path `Spectrum::from_signal` uses: same
    // lengths as `fft_real` so the two tables compare line by line.
    let mut group = c.benchmark_group("rfft");
    group.sample_size(30);
    for &n in &[512usize, 781, 7817, 8192, 7919] {
        let signal = bandwidth_signal(n, 97);
        group.bench_with_input(BenchmarkId::from_parameter(n), &signal, |b, s| {
            b.iter(|| black_box(rfft(black_box(s))));
        });
    }
    group.finish();
}

fn bench_plan_construction(c: &mut Criterion) {
    // What the plan cache saves on every hot-loop call: twiddle/permutation
    // tables for the power-of-two kernel, chirp + filter FFT for Bluestein.
    let mut group = c.benchmark_group("fft_plan_build");
    group.sample_size(20);
    for &n in &[8192usize, 7919] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            b.iter(|| black_box(Fft::new(black_box(n))));
        });
    }
    group.finish();
}

fn bench_large_fft(c: &mut Criterion) {
    // The longest transforms offline detection runs: the ACF of a signal of
    // 16,385 samples or more pads to a 65,536-point real FFT.
    let mut group = c.benchmark_group("fft_large");
    group.sample_size(20);
    for &n in &[32_768usize, 65_536] {
        let signal = bandwidth_signal(n, 97);
        group.bench_with_input(BenchmarkId::from_parameter(n), &signal, |b, s| {
            b.iter(|| black_box(fft_real(black_box(s))));
        });
    }
    group.finish();
}

fn bench_spectrum_and_outliers(c: &mut Criterion) {
    let mut group = c.benchmark_group("power_spectrum_plus_zscore");
    group.sample_size(30);
    for &n in &[781usize, 7817] {
        let signal = bandwidth_signal(n, 111);
        group.bench_with_input(BenchmarkId::from_parameter(n), &signal, |b, s| {
            b.iter(|| {
                let spectrum = Spectrum::from_signal(black_box(s), 10.0);
                let powers = spectrum.powers();
                black_box(outlier_indices(&powers[1..], 3.0))
            });
        });
    }
    group.finish();
}

fn bench_autocorrelation(c: &mut Criterion) {
    let mut group = c.benchmark_group("autocorrelation");
    group.sample_size(20);
    for &n in &[781usize, 2000, 7817] {
        let signal = bandwidth_signal(n, 111);
        group.bench_with_input(BenchmarkId::new("auto", n), &signal, |b, s| {
            b.iter(|| black_box(autocorrelation(black_box(s))));
        });
        group.bench_with_input(BenchmarkId::new("fft_path", n), &signal, |b, s| {
            b.iter(|| black_box(autocorrelation_fft(black_box(s))));
        });
    }
    group.finish();
}

fn bench_peak_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("find_peaks");
    group.sample_size(30);
    let acf = autocorrelation(&bandwidth_signal(7817, 111));
    // The full pipeline: local maxima + filters + single-pass monotonic-stack
    // prominences (O(n) for all peaks together since PR 5).
    group.bench_function("acf_7817", |b| {
        b.iter(|| black_box(find_peaks(black_box(&acf), &PeakConfig::with_height(0.15))));
    });
    // The retained pre-PR-5 prominence baseline: one O(n) walk per peak.
    let peaks = find_peaks(&acf, &PeakConfig::with_height(0.15));
    group.bench_function("acf_7817_naive_prominence", |b| {
        b.iter(|| {
            peaks
                .iter()
                .map(|p| prominence_naive(black_box(&acf), p.index))
                .sum::<f64>()
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fft,
    bench_rfft,
    bench_plan_construction,
    bench_large_fft,
    bench_spectrum_and_outliers,
    bench_autocorrelation,
    bench_peak_detection
);
criterion_main!(benches);

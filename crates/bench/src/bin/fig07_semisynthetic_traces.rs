//! Figure 7 / §III-A: example semi-synthetic application traces.
//!
//! The paper shows three examples of the traces the accuracy study is built
//! from: (a) compute phases a quarter of the I/O-phase length, (b) compute
//! phases drawn from N(11, 22), and (c) an average per-process delay of 22 s
//! inside the I/O phases. This binary generates the same three configurations
//! and prints their ground truth plus a coarse bandwidth profile.

use ftio_core::sample_trace;
use ftio_synth::ior::PhaseLibrary;
use ftio_synth::semi::{generate, SemiSyntheticConfig};
use ftio_synth::NoiseLevel;

fn describe(name: &str, config: &SemiSyntheticConfig, library: &PhaseLibrary, seed: u64) {
    let result = generate(config, library, seed);
    println!("--- {name} ---");
    println!(
        "iterations: {}   requests: {}   duration: {:.1} s",
        config.iterations,
        result.trace.len(),
        result.trace.duration()
    );
    println!(
        "ground-truth mean period: {:.2} s   mean phase length: {:.2} s   I/O time ratio: {:.2}",
        result.mean_period(),
        result.phase_durations.iter().sum::<f64>() / result.phase_durations.len() as f64,
        result.io_time_ratio()
    );
    // Coarse bandwidth profile (1 sample per 10 s) as the series behind the plot.
    let profile: String = sample_trace(&result.trace, 0.1)
        .samples
        .iter()
        .map(|&bw| {
            if bw > 5.0e9 {
                '#'
            } else if bw > 5.0e8 {
                '+'
            } else if bw > 0.0 {
                '.'
            } else {
                ' '
            }
        })
        .collect();
    println!("bandwidth profile (10 s/char, '#'>5 GB/s, '+'>0.5 GB/s, '.'>0):");
    println!("[{profile}]");
    println!();
}

fn main() {
    let library = PhaseLibrary::paper_default(0x07);
    let mean_io = library.mean_duration();

    println!("=== Fig. 7: semi-synthetic application traces ===");
    println!(
        "IOR phase library: {} phases, mean duration {:.2} s\n",
        library.len(),
        mean_io
    );

    // (a) t_cpu is 1/4 of the I/O phase duration.
    describe(
        "(a) t_cpu = 1/4 of the I/O phase",
        &SemiSyntheticConfig {
            tcpu_mean: mean_io / 4.0,
            ..Default::default()
        },
        &library,
        1,
    );
    // (b) t_cpu ~ N(11, 22).
    describe(
        "(b) t_cpu ~ N(11, 22)",
        &SemiSyntheticConfig {
            tcpu_mean: 11.0,
            tcpu_std: 22.0,
            ..Default::default()
        },
        &library,
        2,
    );
    // (c) mean per-process delay of 22 s.
    describe(
        "(c) mean delta_k = 22 s",
        &SemiSyntheticConfig {
            tcpu_mean: 11.0,
            desync_avg: 22.0,
            noise: NoiseLevel::None,
            ..Default::default()
        },
        &library,
        3,
    );
}

//! What the benchmark reads about its own process from `/proc`, plus the
//! seeded generator and the idle-timer probe.

use std::time::{Duration, Instant};

/// Clock ticks per second of `/proc/<pid>/stat` CPU times (`USER_HZ`, 100 on
/// every Linux architecture this runs on).
const USER_HZ: f64 = 100.0;

/// CPU time of the whole process in seconds, exited threads included
/// (`utime + stime` of `/proc/self/stat`, 10 ms resolution).
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("/proc/self/stat is readable");
    // The command name may contain spaces; fields restart after its `)`.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, 11 and 12 here.
    let ticks: f64 =
        fields[11].parse::<f64>().expect("utime") + fields[12].parse::<f64>().expect("stime");
    ticks / USER_HZ
}

/// CPU time of the calling thread in seconds (`/proc/thread-self/schedstat`,
/// nanosecond resolution).
pub fn thread_cpu_s() -> f64 {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .expect("/proc/thread-self/schedstat is readable");
    let ns: f64 = text
        .split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .expect("schedstat starts with the on-CPU time");
    ns / 1e9
}

/// Resets the process's peak-RSS high-water mark to its current RSS, so a
/// later [`peak_rss_mb`] covers only what happened after this call.
pub fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs accepts 5");
}

/// Peak resident memory (`VmHWM`) in MB since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

/// Worker threads the shipped binaries would get on this machine.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// How late a sleeping thread wakes: `rounds` sleeps of 1 ms on an otherwise
/// idle benchmark, returning each oversleep in milliseconds.
pub fn idle_probe_ms(rounds: usize) -> Vec<f64> {
    let nap = Duration::from_millis(1);
    (0..rounds)
        .map(|_| {
            let start = Instant::now();
            std::thread::sleep(nap);
            (start.elapsed().saturating_sub(nap)).as_secs_f64() * 1e3
        })
        .collect()
}

/// SplitMix64: a tiny seeded generator for the benchmark's own schedules.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

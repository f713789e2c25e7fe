//! Application-level bandwidth over time.
//!
//! The tracing library records individual, possibly overlapping requests per
//! rank. FTIO needs the *application-level* bandwidth signal `x(t)`: at any
//! instant, the sum of the bandwidths of all requests active at that instant
//! (paper §II-A; the overlap resolution is linear in the number of requests).
//!
//! [`BandwidthTimeline`] is that signal in piecewise-constant form: a sorted
//! list of breakpoints with the aggregate bandwidth that holds until the next
//! breakpoint. It gives the exact volume of any interval, and its
//! [`sample`](BandwidthTimeline::sample) and
//! [`sample_instantaneous`](BandwidthTimeline::sample_instantaneous) are the
//! reference definitions of the averaged and point-sampled discretisations.
//! The analysis itself discretises with `ftio-core`'s incremental sampler,
//! which folds requests straight into bins and is tested against these.

use crate::app_trace::AppTrace;
use crate::request::IoRequest;

/// Piecewise-constant application-level bandwidth signal.
///
/// Between `times[i]` and `times[i + 1]`, the aggregate bandwidth is
/// `values[i]` bytes/second. Before `times[0]` and after the final breakpoint
/// the bandwidth is zero.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BandwidthTimeline {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl BandwidthTimeline {
    /// Builds the timeline from a set of requests using an event sweep:
    /// every request contributes `bytes / duration` between its start and end.
    /// Zero-duration requests are spread over a very small interval so their
    /// volume is preserved.
    pub fn from_requests(requests: &[IoRequest]) -> Self {
        const INSTANT: f64 = 1e-9;
        // Event sweep: +bw at start, -bw at end. The integer counter tracks
        // how many requests are active so idle gaps read as exactly zero
        // bandwidth instead of accumulating floating-point residue.
        let mut events: Vec<(f64, f64, i64)> = Vec::with_capacity(requests.len() * 2);
        for r in requests {
            if !r.is_valid() || r.bytes == 0 {
                continue;
            }
            let (start, end) = if r.duration() > 0.0 {
                (r.start, r.end)
            } else {
                (r.start, r.start + INSTANT)
            };
            let bw = r.bytes as f64 / (end - start);
            events.push((start, bw, 1));
            events.push((end, -bw, -1));
        }
        if events.is_empty() {
            return BandwidthTimeline::default();
        }
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN event time"));

        let mut times = Vec::new();
        let mut values = Vec::new();
        let mut current = 0.0;
        let mut active: i64 = 0;
        let mut i = 0;
        while i < events.len() {
            let t = events[i].0;
            // Fold all events at the same timestamp.
            while i < events.len() && events[i].0 == t {
                current += events[i].1;
                active += events[i].2;
                i += 1;
            }
            if active == 0 {
                current = 0.0;
            }
            times.push(t);
            values.push(current.max(0.0));
        }
        BandwidthTimeline { times, values }
    }

    /// Builds the timeline for an entire application trace.
    pub fn from_trace(trace: &AppTrace) -> Self {
        Self::from_requests(trace.requests())
    }

    /// Breakpoint times in seconds (sorted ascending).
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Aggregate bandwidth (bytes/s) holding from each breakpoint to the next.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Whether the timeline has no I/O at all.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// First instant with I/O activity (0.0 if empty).
    pub fn start(&self) -> f64 {
        self.times.first().copied().unwrap_or(0.0)
    }

    /// Last breakpoint — after it the bandwidth is zero (0.0 if empty).
    pub fn end(&self) -> f64 {
        self.times.last().copied().unwrap_or(0.0)
    }

    /// The aggregate bandwidth at time `t` in bytes/second.
    pub fn bandwidth_at(&self, t: f64) -> f64 {
        if self.times.is_empty() || t < self.times[0] {
            return 0.0;
        }
        // Index of the last breakpoint <= t.
        let idx = match self
            .times
            .binary_search_by(|x| x.partial_cmp(&t).expect("NaN time"))
        {
            Ok(i) => i,
            Err(0) => return 0.0,
            Err(i) => i - 1,
        };
        self.values[idx]
    }

    /// Exact volume (bytes) transferred inside `[t0, t1)`, by integrating the
    /// piecewise-constant signal.
    pub fn volume_in(&self, t0: f64, t1: f64) -> f64 {
        if self.times.is_empty() || t1 <= t0 {
            return 0.0;
        }
        let mut volume = 0.0;
        for i in 0..self.times.len() {
            let seg_start = self.times[i];
            let seg_end = if i + 1 < self.times.len() {
                self.times[i + 1]
            } else {
                // After the last breakpoint the bandwidth is zero (the last
                // value is always zero after the sweep), so stop here.
                break;
            };
            let lo = seg_start.max(t0);
            let hi = seg_end.min(t1);
            if hi > lo {
                volume += self.values[i] * (hi - lo);
            }
        }
        volume
    }

    /// Total transferred volume in bytes.
    pub fn total_volume(&self) -> f64 {
        self.volume_in(self.start(), self.end() + 1.0)
    }

    /// Samples the signal at `sampling_freq` Hz over `[t0, t1)`: the reference
    /// definition of the discretised sequence `x_n = x(t0 + n / fs)` the DFT
    /// consumes. It costs `O(samples × breakpoints)`; `ftio-core`'s
    /// incremental sampler builds the same bins from the requests directly.
    ///
    /// Each sample carries the *average* bandwidth over its sampling interval
    /// (volume in the interval divided by the interval length), which is what
    /// preserves transferred volume and keeps the abstraction error meaningful.
    pub fn sample(&self, t0: f64, t1: f64, sampling_freq: f64) -> Vec<f64> {
        assert!(sampling_freq > 0.0, "sampling frequency must be positive");
        if t1 <= t0 {
            return Vec::new();
        }
        let dt = 1.0 / sampling_freq;
        let n = ((t1 - t0) * sampling_freq).floor() as usize;
        (0..n)
            .map(|i| {
                let lo = t0 + i as f64 * dt;
                let hi = lo + dt;
                self.volume_in(lo, hi) / dt
            })
            .collect()
    }

    /// Instantaneous-value sampling (point sampling, no averaging): the naive
    /// discretisation that exhibits the aliasing problem of paper Fig. 6.
    pub fn sample_instantaneous(&self, t0: f64, t1: f64, sampling_freq: f64) -> Vec<f64> {
        assert!(sampling_freq > 0.0, "sampling frequency must be positive");
        if t1 <= t0 {
            return Vec::new();
        }
        let dt = 1.0 / sampling_freq;
        let n = ((t1 - t0) * sampling_freq).floor() as usize;
        (0..n)
            .map(|i| self.bandwidth_at(t0 + i as f64 * dt))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::IoRequest;

    #[test]
    fn single_request_yields_rectangular_profile() {
        let tl = BandwidthTimeline::from_requests(&[IoRequest::write(0, 1.0, 3.0, 200)]);
        assert_eq!(tl.bandwidth_at(0.5), 0.0);
        assert_eq!(tl.bandwidth_at(1.0), 100.0);
        assert_eq!(tl.bandwidth_at(2.9), 100.0);
        assert_eq!(tl.bandwidth_at(3.0), 0.0);
        assert_eq!(tl.start(), 1.0);
        assert_eq!(tl.end(), 3.0);
    }

    #[test]
    fn overlapping_requests_add_their_bandwidths() {
        let tl = BandwidthTimeline::from_requests(&[
            IoRequest::write(0, 0.0, 2.0, 200), // 100 B/s
            IoRequest::write(1, 1.0, 3.0, 400), // 200 B/s
        ]);
        assert_eq!(tl.bandwidth_at(0.5), 100.0);
        assert_eq!(tl.bandwidth_at(1.5), 300.0);
        assert_eq!(tl.bandwidth_at(2.5), 200.0);
        assert_eq!(tl.bandwidth_at(3.5), 0.0);
    }

    #[test]
    fn volume_is_preserved() {
        let requests = [
            IoRequest::write(0, 0.0, 2.0, 200),
            IoRequest::write(1, 1.0, 3.0, 400),
            IoRequest::write(2, 10.0, 11.0, 123),
        ];
        let tl = BandwidthTimeline::from_requests(&requests);
        let total: u64 = requests.iter().map(|r| r.bytes).sum();
        assert!((tl.total_volume() - total as f64).abs() < 1e-6);
        assert!((tl.volume_in(0.0, 3.0) - 600.0).abs() < 1e-6);
        assert!((tl.volume_in(0.0, 1.0) - 100.0).abs() < 1e-6);
        assert!((tl.volume_in(9.0, 20.0) - 123.0).abs() < 1e-6);
    }

    #[test]
    fn zero_duration_request_volume_is_kept() {
        let tl = BandwidthTimeline::from_requests(&[IoRequest::write(0, 5.0, 5.0, 1000)]);
        assert!((tl.total_volume() - 1000.0).abs() < 1e-3);
    }

    #[test]
    fn zero_byte_and_invalid_requests_are_ignored() {
        let tl = BandwidthTimeline::from_requests(&[
            IoRequest::write(0, 0.0, 1.0, 0),
            IoRequest::write(0, 3.0, 2.0, 50),
        ]);
        assert!(tl.is_empty());
        assert_eq!(tl.total_volume(), 0.0);
        assert_eq!(tl.bandwidth_at(0.5), 0.0);
    }

    #[test]
    fn sampling_preserves_volume_on_aligned_grid() {
        let tl = BandwidthTimeline::from_requests(&[
            IoRequest::write(0, 0.0, 2.0, 200),
            IoRequest::write(1, 4.0, 6.0, 600),
        ]);
        let samples = tl.sample(0.0, 8.0, 2.0); // dt = 0.5 s, 16 samples
        assert_eq!(samples.len(), 16);
        let volume: f64 = samples.iter().map(|bw| bw * 0.5).sum();
        assert!((volume - 800.0).abs() < 1e-6);
        assert_eq!(samples[0], 100.0);
        assert_eq!(samples[5], 0.0);
        assert_eq!(samples[9], 300.0);
    }

    #[test]
    fn averaged_sampling_differs_from_instantaneous_for_short_bursts() {
        // A 0.1 s burst sampled at 1 Hz: averaging sees it, point sampling misses it.
        let tl = BandwidthTimeline::from_requests(&[IoRequest::write(0, 0.55, 0.65, 1000)]);
        let averaged = tl.sample(0.0, 2.0, 1.0);
        let instant = tl.sample_instantaneous(0.0, 2.0, 1.0);
        assert!(averaged[0] > 0.0);
        assert_eq!(instant[0], 0.0);
    }

    #[test]
    fn from_trace_matches_from_requests() {
        let trace = AppTrace::from_requests(
            "x",
            2,
            vec![
                IoRequest::write(0, 0.0, 1.0, 100),
                IoRequest::write(1, 0.5, 1.5, 100),
            ],
        );
        assert_eq!(
            BandwidthTimeline::from_trace(&trace),
            BandwidthTimeline::from_requests(trace.requests())
        );
    }

    #[test]
    fn empty_sampling_window_is_empty() {
        let tl = BandwidthTimeline::from_requests(&[IoRequest::write(0, 0.0, 1.0, 10)]);
        assert!(tl.sample(5.0, 5.0, 10.0).is_empty());
        assert!(tl.sample(5.0, 4.0, 10.0).is_empty());
    }

    #[test]
    #[should_panic(expected = "sampling frequency must be positive")]
    fn non_positive_sampling_frequency_panics() {
        let tl = BandwidthTimeline::default();
        tl.sample(0.0, 1.0, 0.0);
    }
}

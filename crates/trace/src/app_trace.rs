//! Application-level traces: the collection of all rank-level requests of one
//! application run, plus convenience queries over it.
//!
//! The paper's analysis operates at the *application level*: the per-rank
//! information collected by the tracing library is merged (paper §II-A), and
//! the resulting request set is converted into a bandwidth-over-time signal
//! (see [`crate::bandwidth`]).

use crate::request::{IoKind, IoRequest};

/// Metadata describing the traced run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TraceMetadata {
    /// Human-readable application name (e.g. "IOR", "LAMMPS", "HACC-IO").
    pub application: String,
    /// Number of MPI ranks (or simulated processes).
    pub num_ranks: usize,
    /// Free-form description of the run configuration.
    pub notes: String,
}

/// The full I/O trace of one application run.
#[derive(Clone, Debug, Default)]
pub struct AppTrace {
    metadata: TraceMetadata,
    requests: Vec<IoRequest>,
}

impl AppTrace {
    /// Creates an empty trace with the given metadata.
    pub fn new(metadata: TraceMetadata) -> Self {
        AppTrace {
            metadata,
            requests: Vec::new(),
        }
    }

    /// Creates a trace for `application` with `num_ranks` ranks and no requests.
    pub fn named(application: &str, num_ranks: usize) -> Self {
        AppTrace::new(TraceMetadata {
            application: application.to_string(),
            num_ranks,
            notes: String::new(),
        })
    }

    /// Creates a trace directly from a request list (invalid requests are dropped).
    pub fn from_requests(application: &str, num_ranks: usize, requests: Vec<IoRequest>) -> Self {
        let mut trace = AppTrace::named(application, num_ranks);
        for r in requests {
            trace.push(r);
        }
        trace
    }

    /// The trace metadata.
    pub fn metadata(&self) -> &TraceMetadata {
        &self.metadata
    }

    /// Mutable access to the metadata.
    pub fn metadata_mut(&mut self) -> &mut TraceMetadata {
        &mut self.metadata
    }

    /// All requests, in insertion order.
    pub fn requests(&self) -> &[IoRequest] {
        &self.requests
    }

    /// Appends a request; silently ignores malformed records (negative or NaN
    /// times), mirroring how the reference tooling skips corrupt trace lines.
    pub fn push(&mut self, request: IoRequest) {
        if request.is_valid() {
            self.requests.push(request);
        }
    }

    /// Appends all requests from an iterator.
    pub fn extend<I: IntoIterator<Item = IoRequest>>(&mut self, iter: I) {
        for r in iter {
            self.push(r);
        }
    }

    /// Number of requests in the trace.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// Whether the trace holds no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Earliest request start time, or 0.0 for an empty trace.
    pub fn start_time(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .map(|r| r.start)
            .fold(f64::INFINITY, f64::min)
    }

    /// Latest request end time, or 0.0 for an empty trace.
    pub fn end_time(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        self.requests
            .iter()
            .map(|r| r.end)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Trace length `L(T)` in seconds — from the first request start to the
    /// last request end.
    pub fn duration(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            (self.end_time() - self.start_time()).max(0.0)
        }
    }

    /// Total transferred volume `V(T)` in bytes across all requests.
    pub fn total_volume(&self) -> u64 {
        self.requests.iter().map(|r| r.bytes).sum()
    }

    /// Total volume restricted to one kind of I/O.
    pub fn volume_of_kind(&self, kind: IoKind) -> u64 {
        self.requests
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.bytes)
            .sum()
    }

    /// Set of distinct ranks that issued at least one request.
    pub fn active_ranks(&self) -> Vec<usize> {
        let mut ranks: Vec<usize> = self.requests.iter().map(|r| r.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks
    }

    /// Requests issued by one rank, in insertion order.
    pub fn rank_requests(&self, rank: usize) -> Vec<IoRequest> {
        self.requests
            .iter()
            .copied()
            .filter(|r| r.rank == rank)
            .collect()
    }

    /// Returns a new trace restricted to requests overlapping `[t0, t1)`,
    /// used by the online mode to analyse a shorter time window.
    pub fn window(&self, t0: f64, t1: f64) -> AppTrace {
        let mut out = AppTrace::new(self.metadata.clone());
        out.requests = self
            .requests
            .iter()
            .copied()
            .filter(|r| r.overlaps(t0, t1))
            .collect();
        out
    }

    /// Returns a new trace restricted to one I/O kind.
    pub fn filter_kind(&self, kind: IoKind) -> AppTrace {
        let mut out = AppTrace::new(self.metadata.clone());
        out.requests = self
            .requests
            .iter()
            .copied()
            .filter(|r| r.kind == kind)
            .collect();
        out
    }

    /// Returns a copy of the trace with all requests shifted by `offset` seconds.
    pub fn shifted(&self, offset: f64) -> AppTrace {
        let mut out = AppTrace::new(self.metadata.clone());
        out.requests = self.requests.iter().map(|r| r.shifted(offset)).collect();
        out
    }

    /// Sorts requests by start time (serialisation and some algorithms want
    /// chronological order).
    pub fn sort_by_start(&mut self) {
        self.requests
            .sort_by(|a, b| a.start.partial_cmp(&b.start).expect("NaN request time"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> AppTrace {
        AppTrace::from_requests(
            "test",
            2,
            vec![
                IoRequest::write(0, 1.0, 2.0, 100),
                IoRequest::write(1, 1.5, 3.0, 200),
                IoRequest::read(0, 5.0, 6.0, 50),
            ],
        )
    }

    #[test]
    fn basic_accessors() {
        let t = sample_trace();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.start_time(), 1.0);
        assert_eq!(t.end_time(), 6.0);
        assert_eq!(t.duration(), 5.0);
        assert_eq!(t.total_volume(), 350);
        assert_eq!(t.volume_of_kind(IoKind::Write), 300);
        assert_eq!(t.volume_of_kind(IoKind::Read), 50);
        assert_eq!(t.active_ranks(), vec![0, 1]);
        assert_eq!(t.metadata().application, "test");
    }

    #[test]
    fn empty_trace_defaults() {
        let t = AppTrace::named("empty", 4);
        assert_eq!(t.len(), 0);
        assert_eq!(t.duration(), 0.0);
        assert_eq!(t.start_time(), 0.0);
        assert_eq!(t.end_time(), 0.0);
        assert_eq!(t.total_volume(), 0);
        assert!(t.active_ranks().is_empty());
    }

    #[test]
    fn invalid_requests_are_dropped() {
        let mut t = AppTrace::named("x", 1);
        t.push(IoRequest::write(0, 3.0, 2.0, 10));
        t.push(IoRequest::write(0, f64::NAN, 2.0, 10));
        t.push(IoRequest::write(0, 0.0, 1.0, 10));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn windowing_selects_overlapping_requests() {
        let t = sample_trace();
        let w = t.window(0.0, 2.5);
        assert_eq!(w.len(), 2);
        let w2 = t.window(4.0, 10.0);
        assert_eq!(w2.len(), 1);
        assert_eq!(w2.requests()[0].kind, IoKind::Read);
        let w3 = t.window(100.0, 200.0);
        assert!(w3.is_empty());
    }

    #[test]
    fn filter_by_kind() {
        let t = sample_trace();
        assert_eq!(t.filter_kind(IoKind::Write).len(), 2);
        assert_eq!(t.filter_kind(IoKind::Read).len(), 1);
    }

    #[test]
    fn shifting_moves_all_requests() {
        let t = sample_trace().shifted(10.0);
        assert_eq!(t.start_time(), 11.0);
        assert_eq!(t.end_time(), 16.0);
        assert_eq!(t.duration(), 5.0);
    }

    #[test]
    fn rank_requests_and_sorting() {
        let mut t = AppTrace::named("x", 2);
        t.push(IoRequest::write(0, 5.0, 6.0, 1));
        t.push(IoRequest::write(1, 1.0, 2.0, 2));
        t.push(IoRequest::write(0, 0.0, 0.5, 3));
        assert_eq!(t.rank_requests(0).len(), 2);
        assert_eq!(t.rank_requests(1).len(), 1);
        assert_eq!(t.rank_requests(7).len(), 0);
        t.sort_by_start();
        assert_eq!(t.requests()[0].bytes, 3);
        assert_eq!(t.requests()[2].bytes, 1);
    }
}

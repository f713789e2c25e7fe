//! The trace collector — the Rust analog of the TMIO tracing library.
//!
//! The paper distinguishes two modes (§II-A):
//!
//! * **Offline (detection)**: requests are buffered in memory and written out
//!   once at the end of the run (`MPI_Finalize` in the original tool).
//! * **Online (prediction)**: the application periodically calls a flush hook
//!   ("a single line is added to indicate when to flush the results"), which
//!   appends the newly collected requests to the trace sink, where they can be
//!   analysed while the application keeps running.
//!
//! The collector is thread-safe (ranks in the simulator record concurrently)
//! and keeps simple counters so the tracing-overhead experiment (paper §III-C,
//! Fig. 16) can charge a per-record and per-flush cost.

use std::sync::Mutex;

use crate::app_trace::{AppTrace, TraceMetadata};
use crate::jsonl;
use crate::msgpack;
use crate::request::IoRequest;
use crate::source::SourceFormat;

/// When the collector hands data to its sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlushMode {
    /// Buffer everything, flush once at finalize (offline detection mode).
    Offline,
    /// Flush whenever the application asks for it (online prediction mode).
    Online,
}

/// On-disk encoding used when a flush serialises requests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceFormat {
    /// JSON Lines, one request per line.
    JsonLines,
    /// MessagePack array of request arrays.
    MessagePack,
}

/// Counters describing the collector's activity, used by the overhead model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectorStats {
    /// Number of requests recorded.
    pub recorded: usize,
    /// Number of flush operations performed.
    pub flushes: usize,
    /// Number of requests that have been flushed to the sink.
    pub flushed_requests: usize,
    /// Total bytes produced by serialisation across all flushes.
    pub serialized_bytes: usize,
}

/// A destination for flushed trace data.
///
/// The simulator uses [`MemorySink`]; a real deployment would write to a file.
pub trait TraceSink: Send {
    /// Receives one serialised chunk (one flush worth of requests).
    fn write_chunk(&mut self, chunk: &[u8]);
}

/// A sink that accumulates chunks in memory, useful for tests and simulation.
#[derive(Default)]
pub struct MemorySink {
    chunks: Vec<Vec<u8>>,
}

impl MemorySink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// All chunks received so far.
    pub fn chunks(&self) -> &[Vec<u8>] {
        &self.chunks
    }

    /// Concatenation of all received chunks.
    pub fn concatenated(&self) -> Vec<u8> {
        self.chunks.concat()
    }
}

impl TraceSink for MemorySink {
    fn write_chunk(&mut self, chunk: &[u8]) {
        self.chunks.push(chunk.to_vec());
    }
}

struct CollectorState {
    pending: Vec<IoRequest>,
    all: Vec<IoRequest>,
    stats: CollectorStats,
}

/// Thread-safe request collector.
pub struct Collector {
    metadata: TraceMetadata,
    mode: FlushMode,
    format: TraceFormat,
    state: Mutex<CollectorState>,
}

impl Collector {
    /// Creates a collector for an application run.
    pub fn new(application: &str, num_ranks: usize, mode: FlushMode, format: TraceFormat) -> Self {
        Collector {
            metadata: TraceMetadata {
                application: application.to_string(),
                num_ranks,
                notes: String::new(),
            },
            mode,
            format,
            state: Mutex::new(CollectorState {
                pending: Vec::new(),
                all: Vec::new(),
                stats: CollectorStats::default(),
            }),
        }
    }

    /// The configured flush mode.
    pub fn mode(&self) -> FlushMode {
        self.mode
    }

    /// The configured serialisation format.
    pub fn format(&self) -> TraceFormat {
        self.format
    }

    /// Records one request (called from the rank that issued it).
    pub fn record(&self, request: IoRequest) {
        if !request.is_valid() {
            return;
        }
        let mut state = self.state.lock().expect("collector mutex poisoned");
        state.pending.push(request);
        state.all.push(request);
        state.stats.recorded += 1;
    }

    /// Records a batch of requests.
    pub fn record_all<I: IntoIterator<Item = IoRequest>>(&self, requests: I) {
        let mut state = self.state.lock().expect("collector mutex poisoned");
        for request in requests {
            if request.is_valid() {
                state.pending.push(request);
                state.all.push(request);
                state.stats.recorded += 1;
            }
        }
    }

    /// Flushes pending requests to `sink`. In online mode this is the hook the
    /// application calls after each I/O phase; in offline mode it is called
    /// once by [`Collector::finalize`].
    ///
    /// Returns the number of requests flushed.
    pub fn flush(&self, sink: &mut dyn TraceSink) -> usize {
        let mut state = self.state.lock().expect("collector mutex poisoned");
        if state.pending.is_empty() {
            return 0;
        }
        let pending = std::mem::take(&mut state.pending);
        let chunk = match self.format {
            TraceFormat::JsonLines => jsonl::encode_requests(&pending).into_bytes(),
            TraceFormat::MessagePack => msgpack::encode_requests(&pending),
        };
        state.stats.flushes += 1;
        state.stats.flushed_requests += pending.len();
        state.stats.serialized_bytes += chunk.len();
        sink.write_chunk(&chunk);
        pending.len()
    }

    /// Finalizes the collection: flushes any remaining data (this is the
    /// `MPI_Finalize` hook of the offline mode) and returns the statistics.
    pub fn finalize(&self, sink: &mut dyn TraceSink) -> CollectorStats {
        self.flush(sink);
        self.state.lock().expect("collector mutex poisoned").stats
    }

    /// Activity statistics so far.
    pub fn stats(&self) -> CollectorStats {
        self.state.lock().expect("collector mutex poisoned").stats
    }

    /// Snapshot of everything recorded so far as an [`AppTrace`] — this is
    /// what the online analysis reads at each prediction point.
    pub fn snapshot(&self) -> AppTrace {
        let state = self.state.lock().expect("collector mutex poisoned");
        let mut trace = AppTrace::new(self.metadata.clone());
        trace.extend(state.all.iter().copied());
        trace
    }

    /// Number of requests recorded but not yet flushed.
    pub fn pending_count(&self) -> usize {
        self.state
            .lock()
            .expect("collector mutex poisoned")
            .pending
            .len()
    }
}

/// Parses a trace file produced by flushing in the given format back into
/// requests, decoding each chunk on its own: for MessagePack every flush is
/// its own top-level array, and for JSON Lines each chunk's line numbers
/// then name lines of that flush.
pub fn decode_chunks(
    chunks: &[Vec<u8>],
    format: TraceFormat,
) -> crate::errors::TraceResult<Vec<IoRequest>> {
    let format = match format {
        TraceFormat::JsonLines => SourceFormat::Jsonl,
        TraceFormat::MessagePack => SourceFormat::Msgpack,
    };
    let mut out = Vec::new();
    for chunk in chunks {
        out.extend(crate::source::decode_requests(format, chunk)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(n: usize) -> Vec<IoRequest> {
        (0..n)
            .map(|i| IoRequest::write(i % 4, i as f64, i as f64 + 0.5, 1024))
            .collect()
    }

    #[test]
    fn offline_mode_buffers_until_finalize() {
        let collector = Collector::new("ior", 4, FlushMode::Offline, TraceFormat::JsonLines);
        collector.record_all(requests(10));
        assert_eq!(collector.pending_count(), 10);
        assert_eq!(collector.stats().flushes, 0);

        let mut sink = MemorySink::new();
        let stats = collector.finalize(&mut sink);
        assert_eq!(stats.flushes, 1);
        assert_eq!(stats.flushed_requests, 10);
        assert_eq!(sink.chunks().len(), 1);
        let decoded = decode_chunks(sink.chunks(), TraceFormat::JsonLines).unwrap();
        assert_eq!(decoded.len(), 10);
    }

    #[test]
    fn online_mode_appends_chunks_per_flush() {
        let collector = Collector::new("hacc", 8, FlushMode::Online, TraceFormat::MessagePack);
        let mut sink = MemorySink::new();
        for phase in 0..5 {
            collector.record_all(
                requests(3)
                    .into_iter()
                    .map(|r| r.shifted(phase as f64 * 10.0)),
            );
            let flushed = collector.flush(&mut sink);
            assert_eq!(flushed, 3);
        }
        assert_eq!(collector.stats().flushes, 5);
        assert_eq!(collector.stats().flushed_requests, 15);
        assert_eq!(sink.chunks().len(), 5);
        let decoded = decode_chunks(sink.chunks(), TraceFormat::MessagePack).unwrap();
        assert_eq!(decoded.len(), 15);
    }

    #[test]
    fn flush_with_nothing_pending_is_a_noop() {
        let collector = Collector::new("x", 1, FlushMode::Online, TraceFormat::JsonLines);
        let mut sink = MemorySink::new();
        assert_eq!(collector.flush(&mut sink), 0);
        assert_eq!(collector.stats().flushes, 0);
        assert!(sink.chunks().is_empty());
    }

    #[test]
    fn snapshot_reflects_everything_recorded() {
        let collector = Collector::new("lammps", 2, FlushMode::Online, TraceFormat::JsonLines);
        collector.record_all(requests(4));
        let mut sink = MemorySink::new();
        collector.flush(&mut sink);
        collector.record_all(requests(2).into_iter().map(|r| r.shifted(100.0)));
        let snap = collector.snapshot();
        assert_eq!(snap.len(), 6);
        assert_eq!(snap.metadata().application, "lammps");
        assert_eq!(snap.metadata().num_ranks, 2);
    }

    #[test]
    fn invalid_requests_are_not_recorded() {
        let collector = Collector::new("x", 1, FlushMode::Offline, TraceFormat::JsonLines);
        collector.record(IoRequest::write(0, 5.0, 1.0, 10));
        collector.record(IoRequest::write(0, 1.0, 5.0, 10));
        assert_eq!(collector.stats().recorded, 1);
    }

    #[test]
    fn concurrent_recording_from_many_threads() {
        let collector = std::sync::Arc::new(Collector::new(
            "concurrent",
            16,
            FlushMode::Offline,
            TraceFormat::MessagePack,
        ));
        let mut handles = Vec::new();
        for rank in 0..16 {
            let c = collector.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    c.record(IoRequest::write(rank, i as f64, i as f64 + 0.1, 4096));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(collector.stats().recorded, 1600);
        let mut sink = MemorySink::new();
        let stats = collector.finalize(&mut sink);
        assert_eq!(stats.flushed_requests, 1600);
        let decoded = decode_chunks(sink.chunks(), TraceFormat::MessagePack).unwrap();
        assert_eq!(decoded.len(), 1600);
    }

    #[test]
    fn serialized_bytes_are_counted() {
        let collector = Collector::new("x", 1, FlushMode::Online, TraceFormat::JsonLines);
        collector.record_all(requests(5));
        let mut sink = MemorySink::new();
        collector.flush(&mut sink);
        let stats = collector.stats();
        assert!(stats.serialized_bytes > 0);
        assert_eq!(stats.serialized_bytes, sink.concatenated().len());
    }
}

//! Streaming reader for actual `darshan-parser` text output.
//!
//! The [`crate::darshan`] module handles this crate's own compact heatmap
//! rendering; real Darshan profiles are dumped with the `darshan-parser` /
//! `darshan-dxt-parser` tools, whose text output this module ingests directly
//! (ROADMAP: "accept actual darshan-parser output … for drop-in use on real
//! logs"). Two record dialects appear in that output, often behind a block of
//! `#` comment lines:
//!
//! * **HEATMAP counters** — one counter per line in the standard
//!   `darshan-parser` column layout
//!   (`module  rank  record-id  counter  value  [file  mount  fs]`):
//!
//!   ```text
//!   HEATMAP  -1  15920181672442173319  HEATMAP_F_BIN_WIDTH_SECONDS  0.878906  heatmap:POSIX  UNKNOWN  UNKNOWN
//!   HEATMAP   0  15920181672442173319  HEATMAP_WRITE_BIN_0          6040846   heatmap:POSIX  UNKNOWN  UNKNOWN
//!   ```
//!
//!   Read and write volumes of all ranks and records are aggregated into one
//!   application-level bin vector — exactly what FTIO extracts from a Darshan
//!   profile — and emitted as a bins batch whose sampling frequency is the
//!   reciprocal bin width.
//!
//! * **DXT records** — one intercepted call per line
//!   (`module  rank  op  segment  offset  length  start  end`):
//!
//!   ```text
//!   X_POSIX  0  write  0  0  16777216  0.0321  0.0385
//!   ```
//!
//!   These become [`IoRequest`]s (module `X_MPIIO` maps to the MPI-IO API
//!   level, `X_POSIX`/`X_STDIO` to POSIX) and stream out in batches.
//!
//! A file may carry either dialect; when both appear the request records win
//! and the heatmap is dropped (DXT is strictly richer than the binned view).

use std::io::BufRead;

use crate::app_id::AppId;
use crate::errors::{snippet_of, TraceError, TraceResult};
use crate::request::{IoApi, IoKind, IoRequest};
use crate::source::{read_text_line, validate_request, TraceBatch, TraceSource};

/// Upper bound on heatmap bin indices. Real Darshan heatmaps have at most a
/// few hundred bins; the cap keeps a corrupt index from driving an unbounded
/// allocation while leaving room for very long runs at fine bin widths.
const MAX_HEATMAP_BINS: usize = 1 << 22;

/// Whether a line looks like a counter record of a darshan module this reader
/// does not consume (`POSIX  rank  record-id  COUNTER  value ...`): an
/// upper-case module name in the standard five-plus-column layout.
fn is_other_module_counter(fields: &[&str]) -> bool {
    fields.len() >= 5
        && fields[0].chars().any(|c| c.is_ascii_uppercase())
        && fields[0]
            .chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_' || c == '-')
}

/// Streaming source over `darshan-parser` / `darshan-dxt-parser` text output.
pub struct DarshanParserSource<R: BufRead> {
    reader: R,
    app: AppId,
    batch_size: usize,
    line_number: usize,
    bin_width: Option<f64>,
    bins: Vec<f64>,
    saw_requests: bool,
    heatmap_emitted: bool,
    done: bool,
}

impl<R: BufRead> DarshanParserSource<R> {
    /// Creates a reader with the given batch size.
    pub fn new(reader: R, app: AppId, batch_size: usize) -> Self {
        DarshanParserSource {
            reader,
            app,
            batch_size: batch_size.max(1),
            line_number: 0,
            bin_width: None,
            bins: Vec::new(),
            saw_requests: false,
            heatmap_emitted: false,
            done: false,
        }
    }

    fn parse_heatmap_counter(&mut self, fields: &[&str], line: &str) -> TraceResult<()> {
        if fields.len() < 5 {
            return Err(TraceError::malformed_snippet(
                format!(
                    "HEATMAP record needs at least 5 columns, found {}",
                    fields.len()
                ),
                self.line_number,
                snippet_of(line),
            ));
        }
        let counter = fields[3];
        let value: f64 = fields[4].parse().map_err(|_| {
            TraceError::malformed_snippet(
                format!("invalid HEATMAP counter value `{}`", fields[4]),
                self.line_number,
                snippet_of(line),
            )
        })?;
        if counter == "HEATMAP_F_BIN_WIDTH_SECONDS" {
            if !(value.is_finite() && value > 0.0) {
                return Err(TraceError::invalid("bin_width", "must be positive")
                    .with_context(self.line_number, line));
            }
            match self.bin_width {
                None => self.bin_width = Some(value),
                Some(existing) if (existing - value).abs() > 1e-9 * existing.abs() => {
                    return Err(TraceError::malformed_snippet(
                        format!("conflicting heatmap bin widths ({existing} vs {value})"),
                        self.line_number,
                        snippet_of(line),
                    ));
                }
                Some(_) => {}
            }
            return Ok(());
        }
        let bin_index = counter
            .strip_prefix("HEATMAP_READ_BIN_")
            .or_else(|| counter.strip_prefix("HEATMAP_WRITE_BIN_"));
        if let Some(index_str) = bin_index {
            let index: usize = index_str.parse().map_err(|_| {
                TraceError::malformed_snippet(
                    format!("invalid heatmap bin index in `{counter}`"),
                    self.line_number,
                    snippet_of(line),
                )
            })?;
            if !(value.is_finite() && value >= 0.0) {
                return Err(TraceError::invalid("bin", "volume must be non-negative")
                    .with_context(self.line_number, line));
            }
            if index >= MAX_HEATMAP_BINS {
                return Err(TraceError::malformed_snippet(
                    format!("heatmap bin index {index} exceeds the sanity cap {MAX_HEATMAP_BINS}"),
                    self.line_number,
                    snippet_of(line),
                ));
            }
            if index >= self.bins.len() {
                self.bins.resize(index + 1, 0.0);
            }
            self.bins[index] += value;
        }
        // Other HEATMAP counters (e.g. HEATMAP_F_MAX_TIMESTAMP) are ignored.
        Ok(())
    }

    fn parse_dxt_record(&self, fields: &[&str], line: &str) -> TraceResult<IoRequest> {
        if fields.len() < 8 {
            return Err(TraceError::malformed_snippet(
                format!("DXT record needs 8 columns, found {}", fields.len()),
                self.line_number,
                snippet_of(line),
            ));
        }
        let api = if fields[0] == "X_MPIIO" {
            IoApi::Sync
        } else {
            IoApi::Posix
        };
        let rank: usize = fields[1].parse().map_err(|_| {
            TraceError::malformed_snippet(
                format!("invalid DXT rank `{}`", fields[1]),
                self.line_number,
                snippet_of(line),
            )
        })?;
        let kind = match fields[2].to_ascii_lowercase().as_str() {
            "write" => IoKind::Write,
            "read" => IoKind::Read,
            other => {
                return Err(TraceError::malformed_snippet(
                    format!("unknown DXT operation `{other}`"),
                    self.line_number,
                    snippet_of(line),
                ))
            }
        };
        let bytes: u64 = fields[5].parse().map_err(|_| {
            TraceError::malformed_snippet(
                format!("invalid DXT length `{}`", fields[5]),
                self.line_number,
                snippet_of(line),
            )
        })?;
        let start: f64 = fields[6].parse().map_err(|_| {
            TraceError::malformed_snippet(
                format!("invalid DXT start time `{}`", fields[6]),
                self.line_number,
                snippet_of(line),
            )
        })?;
        let end: f64 = fields[7].parse().map_err(|_| {
            TraceError::malformed_snippet(
                format!("invalid DXT end time `{}`", fields[7]),
                self.line_number,
                snippet_of(line),
            )
        })?;
        let request = IoRequest {
            rank,
            start,
            end,
            bytes,
            kind,
            api,
        };
        validate_request(&request, self.line_number, || line.to_string())?;
        Ok(request)
    }

    fn heatmap_batch(&mut self) -> Option<TraceBatch> {
        if self.heatmap_emitted || self.saw_requests || self.bins.is_empty() {
            return None;
        }
        self.heatmap_emitted = true;
        let bin_width = self.bin_width?;
        Some(TraceBatch::bins(
            self.app,
            0.0,
            bin_width,
            std::mem::take(&mut self.bins),
        ))
    }
}

impl<R: BufRead> TraceSource for DarshanParserSource<R> {
    fn app_id(&self) -> AppId {
        self.app
    }

    fn next_batch(&mut self) -> TraceResult<Option<TraceBatch>> {
        if self.done {
            return Ok(None);
        }
        let mut requests = Vec::new();
        let mut buf = Vec::new();
        while requests.len() < self.batch_size {
            let Some(line) = read_text_line(&mut self.reader, &mut buf, &mut self.line_number)?
            else {
                self.done = true;
                if !self.bins.is_empty() && self.bin_width.is_none() {
                    return Err(TraceError::invalid(
                        "bin_width",
                        "heatmap counters present but no HEATMAP_F_BIN_WIDTH_SECONDS record",
                    ));
                }
                break;
            };
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = trimmed.split_whitespace().collect();
            if fields[0] == "HEATMAP" {
                self.parse_heatmap_counter(&fields, trimmed)?;
            } else if fields[0].starts_with("X_") {
                self.saw_requests = true;
                requests.push(self.parse_dxt_record(&fields, trimmed)?);
            } else if is_other_module_counter(&fields) {
                // Real darshan-parser output interleaves counter rows of many
                // modules (POSIX, MPIIO, STDIO, LUSTRE, ...) in the same
                // `module rank record-id counter value ...` layout; only the
                // heatmap and DXT records carry the data FTIO consumes.
                continue;
            } else {
                return Err(TraceError::malformed_snippet(
                    format!("unrecognised darshan-parser record `{}`", fields[0]),
                    self.line_number,
                    snippet_of(trimmed),
                ));
            }
        }
        if !requests.is_empty() {
            return Ok(Some(TraceBatch::requests(self.app, requests)));
        }
        Ok(self.heatmap_batch())
    }
}

/// Renders a heatmap in `darshan-parser` HEATMAP-counter layout — used to
/// build realistic fixtures and round-trip tests without a darshan install.
/// Volumes are split evenly between two synthetic ranks and between the read
/// and write counters of rank 0 to exercise the aggregation path.
pub fn encode_heatmap_counters(bin_width: f64, bins: &[f64]) -> String {
    let mut out = String::from("# darshan log version: 3.41\n# exe: synthetic\n");
    let record = 15920181672442173319u64;
    for rank in [-1i64, 0, 1] {
        out.push_str(&format!(
            "HEATMAP\t{rank}\t{record}\tHEATMAP_F_BIN_WIDTH_SECONDS\t{bin_width}\theatmap:POSIX\tUNKNOWN\tUNKNOWN\n"
        ));
    }
    for (i, &v) in bins.iter().enumerate() {
        let half = v / 2.0;
        out.push_str(&format!(
            "HEATMAP\t0\t{record}\tHEATMAP_WRITE_BIN_{i}\t{half}\theatmap:POSIX\tUNKNOWN\tUNKNOWN\n"
        ));
        out.push_str(&format!(
            "HEATMAP\t1\t{record}\tHEATMAP_READ_BIN_{i}\t{half}\theatmap:POSIX\tUNKNOWN\tUNKNOWN\n"
        ));
    }
    out
}

/// Renders requests as `darshan-dxt-parser` output — fixture/round-trip
/// helper. Reads and writes map to DXT ops; the API level selects the module
/// column (`X_MPIIO` for MPI-IO, `X_POSIX` otherwise).
pub fn encode_dxt(requests: &[IoRequest]) -> String {
    let mut out = String::from(
        "# darshan DXT trace (synthetic)\n# module\trank\top\tsegment\toffset\tlength\tstart\tend\n",
    );
    for (i, r) in requests.iter().enumerate() {
        let module = match r.api {
            IoApi::Sync | IoApi::Async => "X_MPIIO",
            IoApi::Posix => "X_POSIX",
        };
        out.push_str(&format!(
            "{module}\t{}\t{}\t{i}\t0\t{}\t{:.6}\t{:.6}\n",
            r.rank,
            r.kind.as_str(),
            r.bytes,
            r.start,
            r.end
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::{drain_single, BatchPayload, DrainedInput};

    #[test]
    fn heatmap_counters_aggregate_over_ranks_and_kinds() {
        let bins = vec![100.0, 0.0, 250.0, 0.0];
        let text = encode_heatmap_counters(60.0, &bins);
        let mut source = DarshanParserSource::new(text.as_bytes(), AppId::new(1), 64);
        match drain_single(&mut source, "darshan").unwrap() {
            DrainedInput::Heatmap(h) => {
                assert_eq!(h.bin_width, 60.0);
                assert_eq!(h.bins, bins);
                assert_eq!(h.start, 0.0);
            }
            DrainedInput::Trace(_) => panic!("expected a heatmap"),
        }
    }

    #[test]
    fn dxt_records_stream_as_requests() {
        let requests: Vec<IoRequest> = (0..12)
            .map(|i| IoRequest::write(i % 3, i as f64, i as f64 + 0.25, 1 << 20))
            .collect();
        let text = encode_dxt(&requests);
        let mut source = DarshanParserSource::new(text.as_bytes(), AppId::new(2), 5);
        let mut streamed = Vec::new();
        let mut batches = 0;
        while let Some(batch) = source.next_batch().unwrap() {
            batches += 1;
            assert!(matches!(batch.payload, BatchPayload::Requests(_)));
            streamed.extend(batch.into_requests());
        }
        assert_eq!(batches, 3);
        assert_eq!(streamed.len(), 12);
        for (a, b) in streamed.iter().zip(&requests) {
            assert_eq!(a.rank, b.rank);
            assert_eq!(a.bytes, b.bytes);
            assert_eq!(a.kind, b.kind);
            assert!((a.start - b.start).abs() < 1e-5);
        }
    }

    #[test]
    fn posix_and_mpiio_modules_map_to_api_levels() {
        let text = "\
X_POSIX\t0\twrite\t0\t0\t100\t1.0\t2.0\n\
X_MPIIO\t1\tread\t0\t0\t200\t2.0\t3.0\n";
        let mut source = DarshanParserSource::new(text.as_bytes(), AppId::new(0), 8);
        let batch = source.next_batch().unwrap().unwrap();
        let reqs = batch.into_requests();
        assert_eq!(reqs[0].api, IoApi::Posix);
        assert_eq!(reqs[0].kind, IoKind::Write);
        assert_eq!(reqs[1].api, IoApi::Sync);
        assert_eq!(reqs[1].kind, IoKind::Read);
    }

    #[test]
    fn malformed_records_report_line_and_snippet() {
        let cases = [
            ("X_POSIX\t0\twrite\t0\t0\t100\t1.0\n", "8 columns"),
            ("X_POSIX\t0\tscribble\t0\t0\t100\t1.0\t2.0\n", "scribble"),
            ("X_POSIX\tzero\twrite\t0\t0\t100\t1.0\t2.0\n", "rank"),
            ("X_POSIX\t0\twrite\t0\t0\t100\tNaN\t2.0\n", "start/end"),
            ("X_POSIX\t0\twrite\t0\t0\t100\t5.0\t2.0\n", "start/end"),
            ("HEATMAP\t0\t1\tHEATMAP_WRITE_BIN_x\t5\n", "bin index"),
            (
                "HEATMAP\t0\t1\tHEATMAP_WRITE_BIN_99999999999\t5\tx\tx\tx\n",
                "sanity cap",
            ),
            ("HEATMAP\t0\t1\n", "5 columns"),
            ("bogus stuff that fits no record layout\n", "unrecognised"),
        ];
        for (text, needle) in cases {
            let mut source = DarshanParserSource::new(text.as_bytes(), AppId::new(0), 8);
            let err = source.next_batch().unwrap_err().to_string();
            assert!(err.contains(needle), "`{text}` -> {err}");
            assert!(err.contains("position 1"), "`{text}` -> {err}");
        }
    }

    #[test]
    fn other_module_counters_are_skipped() {
        // A realistic darshan-parser dump interleaves counters of modules the
        // reader does not consume; they must not abort the parse.
        let mut text = String::from(
            "# darshan log version: 3.41\n\
             POSIX\t-1\t7061\tPOSIX_OPENS\t1\t/out.dat\t/\text4\n\
             MPI-IO\t0\t7061\tMPIIO_INDEP_OPENS\t0\t/out.dat\t/\text4\n\
             LUSTRE\t0\t7061\tLUSTRE_STRIPE_WIDTH\t4\t/out.dat\t/\text4\n",
        );
        text.push_str(&encode_heatmap_counters(2.0, &[10.0, 0.0, 30.0]));
        text.push_str("STDIO\t0\t7061\tSTDIO_BYTES_WRITTEN\t512\t/out.dat\t/\text4\n");
        let mut source = DarshanParserSource::new(text.as_bytes(), AppId::new(0), 64);
        match drain_single(&mut source, "darshan").unwrap() {
            DrainedInput::Heatmap(h) => assert_eq!(h.bins, vec![10.0, 0.0, 30.0]),
            DrainedInput::Trace(_) => panic!("expected a heatmap"),
        }
    }

    #[test]
    fn heatmap_without_bin_width_is_an_error() {
        let text = "HEATMAP\t0\t1\tHEATMAP_WRITE_BIN_0\t500\tx\tx\tx\n";
        let mut source = DarshanParserSource::new(text.as_bytes(), AppId::new(0), 8);
        let err = source.next_batch().unwrap_err().to_string();
        assert!(err.contains("HEATMAP_F_BIN_WIDTH_SECONDS"), "{err}");
    }

    #[test]
    fn conflicting_bin_widths_are_rejected() {
        let text = "\
HEATMAP\t0\t1\tHEATMAP_F_BIN_WIDTH_SECONDS\t1.0\tx\tx\tx\n\
HEATMAP\t1\t1\tHEATMAP_F_BIN_WIDTH_SECONDS\t2.0\tx\tx\tx\n";
        let mut source = DarshanParserSource::new(text.as_bytes(), AppId::new(0), 8);
        let err = source.next_batch().unwrap_err().to_string();
        assert!(err.contains("conflicting"), "{err}");
    }

    #[test]
    fn mixed_dialects_prefer_requests() {
        let mut text = encode_heatmap_counters(1.0, &[100.0]);
        text.push_str("X_POSIX\t0\twrite\t0\t0\t42\t1.0\t2.0\n");
        let mut source = DarshanParserSource::new(text.as_bytes(), AppId::new(0), 64);
        match drain_single(&mut source, "mixed").unwrap() {
            DrainedInput::Trace(trace) => {
                assert_eq!(trace.len(), 1);
                assert_eq!(trace.total_volume(), 42);
            }
            DrainedInput::Heatmap(_) => panic!("requests must win"),
        }
    }

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let text = "\n# comment\n\n# another\n";
        let mut source = DarshanParserSource::new(text.as_bytes(), AppId::new(0), 8);
        assert!(source.next_batch().unwrap().is_none());
    }
}

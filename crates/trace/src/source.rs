//! The streaming trace-ingestion layer: one [`TraceSource`] abstraction from
//! real trace files to every consumer, and the only code that reads a trace.
//!
//! The decoders in [`crate::jsonl`], [`crate::msgpack`], [`crate::recorder`],
//! [`crate::tmio`] and [`crate::darshan_parser`] each know one wire format;
//! this module gives them a common, *chunked* face. A [`TraceSource`] yields
//! [`TraceBatch`]es — either I/O requests or heatmap bins, each attributed to
//! an [`AppId`] — until the input is exhausted, so consumers (offline
//! detection, `ftio watch`, the sharded cluster engine's replay front-end,
//! `ftio serve`'s `Data` frames) never need to know where the data came from
//! or hold a whole file in one allocation.
//!
//! The pieces:
//!
//! * [`TraceBatch`] / [`BatchPayload`] — one chunk of ingested data;
//! * [`TraceSource`] — the pull interface (`next_batch`);
//! * [`LineSource`], [`MsgpackSource`], [`HeatmapTextSource`] — one streaming
//!   reader per format this crate encodes (JSON Lines and Recorder text share
//!   [`LineSource`]); [`crate::darshan_parser::DarshanParserSource`] reads
//!   `darshan-parser` text and Darshan DXT traces;
//! * [`MemorySource`] — an in-memory source over already-materialised data:
//!   decoded TMIO profiles, and every synthetic generator;
//! * [`SourceFormat`] — content sniffing (magic bytes / first line);
//! * [`open_path`], [`from_bytes`] and [`from_bytes_auto`] — the one opening
//!   call for a file and its in-memory counterparts; [`decode_requests`] and
//!   [`drain_single`] drain a source whole.
//!
//! ```
//! use ftio_trace::source::{MemorySource, TraceSource};
//! use ftio_trace::{AppId, IoRequest};
//!
//! let requests = vec![
//!     IoRequest::write(0, 0.0, 1.0, 1000),
//!     IoRequest::write(1, 10.0, 11.0, 1000),
//! ];
//! let mut source = MemorySource::from_requests(AppId::new(7), requests, 1);
//! let first = source.next_batch().unwrap().expect("one batch");
//! assert_eq!(first.app, AppId::new(7));
//! assert_eq!(first.len(), 1);
//! ```

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Seek};
use std::path::Path;

use crate::app_id::AppId;
use crate::app_trace::AppTrace;
use crate::darshan::Heatmap;
use crate::errors::{snippet_of, TraceError, TraceResult};
use crate::request::IoRequest;

/// Default number of requests (or bins) per emitted batch.
pub const DEFAULT_BATCH_SIZE: usize = 1024;

/// The data carried by one [`TraceBatch`].
#[derive(Clone, Debug, PartialEq)]
pub enum BatchPayload {
    /// Individual rank-level I/O requests.
    Requests(Vec<IoRequest>),
    /// A contiguous run of heatmap bins (binned transferred volume).
    Bins {
        /// Absolute time of the first bin's left edge, seconds.
        start: f64,
        /// Bin width in seconds.
        bin_width: f64,
        /// Transferred bytes per bin.
        bins: Vec<f64>,
    },
}

/// One chunk of ingested trace data, attributed to an application.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceBatch {
    /// The application this data belongs to.
    pub app: AppId,
    /// The requests or bins.
    pub payload: BatchPayload,
}

impl TraceBatch {
    /// A request batch.
    pub fn requests(app: AppId, requests: Vec<IoRequest>) -> Self {
        TraceBatch {
            app,
            payload: BatchPayload::Requests(requests),
        }
    }

    /// A heatmap-bin batch.
    pub fn bins(app: AppId, start: f64, bin_width: f64, bins: Vec<f64>) -> Self {
        TraceBatch {
            app,
            payload: BatchPayload::Bins {
                start,
                bin_width,
                bins,
            },
        }
    }

    /// Number of records (requests or bins) in the batch.
    pub fn len(&self) -> usize {
        match &self.payload {
            BatchPayload::Requests(requests) => requests.len(),
            BatchPayload::Bins { bins, .. } => bins.len(),
        }
    }

    /// Whether the batch carries no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The latest time covered by the batch (last request end / right edge of
    /// the last bin), or `None` for an empty batch. Replay uses this as the
    /// submission timestamp.
    pub fn end_time(&self) -> Option<f64> {
        match &self.payload {
            BatchPayload::Requests(requests) => requests
                .iter()
                .map(|r| r.end)
                .fold(None, |acc: Option<f64>, e| {
                    Some(acc.map_or(e, |a| a.max(e)))
                }),
            BatchPayload::Bins {
                start,
                bin_width,
                bins,
            } => {
                if bins.is_empty() {
                    None
                } else {
                    Some(start + bins.len() as f64 * bin_width)
                }
            }
        }
    }

    /// Converts the batch into plain requests. Bins become synthetic rank-0
    /// write requests spanning their bin (one per non-empty bin), which is the
    /// volume-preserving request view of a binned profile — consumers that
    /// only speak requests (the online predictor, replay) use this.
    pub fn into_requests(self) -> Vec<IoRequest> {
        match self.payload {
            BatchPayload::Requests(requests) => requests,
            BatchPayload::Bins {
                start,
                bin_width,
                bins,
            } => bins
                .iter()
                .enumerate()
                .filter(|(_, &v)| v > 0.0)
                .map(|(i, &v)| {
                    let t0 = start + i as f64 * bin_width;
                    IoRequest::write(0, t0, t0 + bin_width, v.round() as u64)
                })
                .collect(),
        }
    }
}

/// A pull-based, chunked producer of trace data — the one interface every
/// ingestion path (file readers, in-memory generators) presents to every
/// consumer (detection, online prediction, cluster replay).
pub trait TraceSource {
    /// The application this source attributes its data to by default.
    /// Sources that multiplex several applications (e.g. a generated fleet)
    /// attribute each batch individually and return a representative id here.
    fn app_id(&self) -> AppId;

    /// Pulls the next batch, or `Ok(None)` once the input is exhausted.
    /// After an error or `None` the source should not be polled again.
    fn next_batch(&mut self) -> TraceResult<Option<TraceBatch>>;
}

// --- in-memory source ------------------------------------------------------

/// A [`TraceSource`] over already-materialised data. This is how synthetic
/// generators, tests and benchmarks feed the same consumers as file readers.
#[derive(Clone, Debug)]
pub struct MemorySource {
    app: AppId,
    batches: VecDeque<TraceBatch>,
}

impl MemorySource {
    /// Builds a source that yields the given batches in order.
    pub fn from_batches(app: AppId, batches: Vec<TraceBatch>) -> Self {
        MemorySource {
            app,
            batches: batches.into(),
        }
    }

    /// Chunks a request list into batches of `batch_size`.
    pub fn from_requests(app: AppId, requests: Vec<IoRequest>, batch_size: usize) -> Self {
        let batch_size = batch_size.max(1);
        let batches = requests
            .chunks(batch_size)
            .map(|chunk| TraceBatch::requests(app, chunk.to_vec()))
            .collect();
        MemorySource { app, batches }
    }

    /// Chunks an application trace into request batches.
    pub fn from_trace(app: AppId, trace: &AppTrace, batch_size: usize) -> Self {
        MemorySource::from_requests(app, trace.requests().to_vec(), batch_size)
    }

    /// Chunks a heatmap into bin batches.
    pub fn from_heatmap(app: AppId, heatmap: &Heatmap, batch_size: usize) -> Self {
        let batch_size = batch_size.max(1);
        let batches = heatmap
            .bins
            .chunks(batch_size)
            .enumerate()
            .map(|(i, chunk)| {
                let start = heatmap.start + (i * batch_size) as f64 * heatmap.bin_width;
                TraceBatch::bins(app, start, heatmap.bin_width, chunk.to_vec())
            })
            .collect();
        MemorySource { app, batches }
    }

    /// Number of batches left.
    pub fn remaining_batches(&self) -> usize {
        self.batches.len()
    }
}

impl TraceSource for MemorySource {
    fn app_id(&self) -> AppId {
        self.app
    }

    fn next_batch(&mut self) -> TraceResult<Option<TraceBatch>> {
        Ok(self.batches.pop_front())
    }
}

// --- draining --------------------------------------------------------------

/// The fully-drained content of a single-application source.
#[derive(Clone, Debug)]
pub enum DrainedInput {
    /// The source carried individual requests (possibly converted bins).
    Trace(AppTrace),
    /// The source carried only heatmap bins.
    Heatmap(Heatmap),
}

/// Drains a source into a flat request list; bin batches are converted via
/// [`TraceBatch::into_requests`].
pub fn drain_requests(source: &mut dyn TraceSource) -> TraceResult<Vec<IoRequest>> {
    let mut out = Vec::new();
    while let Some(batch) = source.next_batch()? {
        out.extend(batch.into_requests());
    }
    Ok(out)
}

/// Drains a single-application source completely. A bins-only source yields a
/// [`Heatmap`] (preserving the profile's own sampling frequency); anything
/// with requests yields an [`AppTrace`] (bins, if any, converted to synthetic
/// requests). Consecutive bin batches must agree on the bin width.
pub fn drain_single(source: &mut dyn TraceSource, name: &str) -> TraceResult<DrainedInput> {
    let mut requests: Vec<IoRequest> = Vec::new();
    let mut heatmap: Option<Heatmap> = None;
    while let Some(batch) = source.next_batch()? {
        match batch.payload {
            BatchPayload::Requests(mut chunk) => requests.append(&mut chunk),
            BatchPayload::Bins {
                start,
                bin_width,
                bins,
            } => match &mut heatmap {
                None => heatmap = Some(Heatmap::try_new(start, bin_width, bins)?),
                Some(h) => {
                    if (h.bin_width - bin_width).abs() > 1e-12 * h.bin_width.abs() {
                        return Err(TraceError::invalid(
                            "bin_width",
                            format!(
                                "bin width changed mid-stream ({} -> {bin_width})",
                                h.bin_width
                            ),
                        ));
                    }
                    h.bins.extend_from_slice(&bins);
                }
            },
        }
    }
    match (requests.is_empty(), heatmap) {
        (true, Some(h)) => Ok(DrainedInput::Heatmap(h)),
        (_, maybe_heatmap) => {
            if let Some(h) = maybe_heatmap {
                requests.extend(
                    TraceBatch::bins(source.app_id(), h.start, h.bin_width, h.bins).into_requests(),
                );
            }
            let ranks = requests
                .iter()
                .map(|r| r.rank.saturating_add(1))
                .max()
                .unwrap_or(0);
            Ok(DrainedInput::Trace(AppTrace::from_requests(
                name, ranks, requests,
            )))
        }
    }
}

// --- streaming readers over this crate's own formats -----------------------

/// Decodes one line of a line-oriented trace into a request, or `None` for a
/// line that carries none (blank, comment, metadata call).
type LineDecoder = fn(&str, usize) -> TraceResult<Option<IoRequest>>;

/// Streaming reader over a line-oriented request format — JSON Lines
/// ([`LineSource::jsonl`]) or Recorder text ([`LineSource::recorder`]) — that
/// emits one batch per `batch_size` requests. Every decode error names its
/// physical line (blank lines counted) and quotes it.
pub struct LineSource<R: BufRead> {
    reader: R,
    decode: LineDecoder,
    app: AppId,
    batch_size: usize,
    line_number: usize,
    done: bool,
}

impl<R: BufRead> LineSource<R> {
    /// A JSON Lines reader: one request object per line, blank lines skipped.
    pub fn jsonl(reader: R, app: AppId, batch_size: usize) -> Self {
        LineSource::new(reader, crate::jsonl::decode_line, app, batch_size)
    }

    /// A Recorder-text reader: comments, blank lines and metadata calls are
    /// skipped.
    pub fn recorder(reader: R, app: AppId, batch_size: usize) -> Self {
        LineSource::new(reader, crate::recorder::decode_line, app, batch_size)
    }

    fn new(reader: R, decode: LineDecoder, app: AppId, batch_size: usize) -> Self {
        LineSource {
            reader,
            decode,
            app,
            batch_size: batch_size.max(1),
            line_number: 0,
            done: false,
        }
    }
}

impl<R: BufRead> TraceSource for LineSource<R> {
    fn app_id(&self) -> AppId {
        self.app
    }

    fn next_batch(&mut self) -> TraceResult<Option<TraceBatch>> {
        if self.done {
            return Ok(None);
        }
        let mut requests = Vec::with_capacity(self.batch_size);
        let mut buf = Vec::new();
        while requests.len() < self.batch_size {
            let Some(line) = read_text_line(&mut self.reader, &mut buf, &mut self.line_number)?
            else {
                self.done = true;
                break;
            };
            if let Some(request) = (self.decode)(line, self.line_number)
                .map_err(|e| e.with_context(self.line_number, line.trim()))?
            {
                validate_request(&request, self.line_number, || line.trim().to_string())?;
                requests.push(request);
            }
        }
        if requests.is_empty() {
            Ok(None)
        } else {
            Ok(Some(TraceBatch::requests(self.app, requests)))
        }
    }
}

/// Streaming MessagePack reader over the request-array format.
pub struct MsgpackSource {
    data: Vec<u8>,
    pos: usize,
    remaining: usize,
    app: AppId,
    batch_size: usize,
}

impl MsgpackSource {
    /// Creates a reader over a full MessagePack trace document.
    pub fn new(data: Vec<u8>, app: AppId, batch_size: usize) -> TraceResult<Self> {
        let mut reader = crate::msgpack::Reader::new(&data);
        let remaining = reader
            .read_array_header()
            .map_err(|e| contextualize_msgpack(e, &data))?;
        let pos = reader.position();
        Ok(MsgpackSource {
            data,
            pos,
            remaining,
            app,
            batch_size: batch_size.max(1),
        })
    }
}

/// Attaches the byte offset and a hex snippet to a MessagePack decode error.
fn contextualize_msgpack(error: TraceError, data: &[u8]) -> TraceError {
    match error {
        TraceError::UnexpectedEof => TraceError::malformed_snippet(
            "truncated MessagePack record (unexpected end of input)",
            data.len(),
            crate::errors::snippet_of_bytes(data, data.len()),
        ),
        TraceError::Malformed {
            reason,
            position,
            snippet,
        } => TraceError::Malformed {
            reason,
            position,
            snippet: if snippet.is_empty() {
                crate::errors::snippet_of_bytes(data, position)
            } else {
                snippet
            },
        },
        other => other,
    }
}

impl TraceSource for MsgpackSource {
    fn app_id(&self) -> AppId {
        self.app
    }

    fn next_batch(&mut self) -> TraceResult<Option<TraceBatch>> {
        if self.remaining == 0 {
            return Ok(None);
        }
        let data = self.data.as_slice();
        let take = self.remaining.min(self.batch_size);
        let mut reader = crate::msgpack::Reader::at(data, self.pos);
        let mut requests = Vec::with_capacity(take);
        for _ in 0..take {
            let position = reader.position();
            let request = crate::msgpack::decode_request(&mut reader)
                .map_err(|e| contextualize_msgpack(e.with_context(position, ""), data))?;
            // The hex snippet is only built on the failure path — this loop is
            // the hot decode path of file replay.
            validate_request(&request, position, || {
                crate::errors::snippet_of_bytes(data, position)
            })?;
            requests.push(request);
        }
        self.remaining -= take;
        self.pos = reader.position();
        Ok(Some(TraceBatch::requests(self.app, requests)))
    }
}

/// Streaming reader over this crate's `# darshan-heatmap` text format.
pub struct HeatmapTextSource<R: BufRead> {
    reader: R,
    app: AppId,
    batch_size: usize,
    line_number: usize,
    header: Option<(f64, f64)>, // (start, bin_width)
    emitted_bins: usize,
    done: bool,
}

impl<R: BufRead> HeatmapTextSource<R> {
    /// Creates a reader with the given batch size (bins per batch).
    pub fn new(reader: R, app: AppId, batch_size: usize) -> Self {
        HeatmapTextSource {
            reader,
            app,
            batch_size: batch_size.max(1),
            line_number: 0,
            header: None,
            emitted_bins: 0,
            done: false,
        }
    }

    fn read_header(&mut self) -> TraceResult<(f64, f64)> {
        let mut buf = Vec::new();
        let Some(line) = read_text_line(&mut self.reader, &mut buf, &mut self.line_number)? else {
            return Err(TraceError::UnexpectedEof);
        };
        let header = line.trim();
        if !header.starts_with("# darshan-heatmap") {
            return Err(TraceError::malformed_snippet(
                "missing darshan-heatmap header",
                1,
                snippet_of(header),
            ));
        }
        let mut start = 0.0f64;
        let mut bin_width = 0.0f64;
        for token in header.split_whitespace() {
            if let Some(v) = token.strip_prefix("start=") {
                start = v
                    .parse()
                    .map_err(|_| TraceError::invalid("start", format!("not a number: {v}")))?;
            } else if let Some(v) = token.strip_prefix("bin_width=") {
                bin_width = v
                    .parse()
                    .map_err(|_| TraceError::invalid("bin_width", format!("not a number: {v}")))?;
            }
        }
        if !(bin_width.is_finite() && bin_width > 0.0) {
            return Err(TraceError::invalid("bin_width", "must be positive"));
        }
        if !start.is_finite() {
            return Err(TraceError::invalid("start", "must be finite"));
        }
        Ok((start, bin_width))
    }
}

impl<R: BufRead> TraceSource for HeatmapTextSource<R> {
    fn app_id(&self) -> AppId {
        self.app
    }

    fn next_batch(&mut self) -> TraceResult<Option<TraceBatch>> {
        if self.done {
            return Ok(None);
        }
        let (start, bin_width) = match self.header {
            Some(h) => h,
            None => {
                let h = self.read_header()?;
                self.header = Some(h);
                h
            }
        };
        let mut bins = Vec::with_capacity(self.batch_size);
        let mut buf = Vec::new();
        while bins.len() < self.batch_size {
            let Some(line) = read_text_line(&mut self.reader, &mut buf, &mut self.line_number)?
            else {
                self.done = true;
                break;
            };
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let v: f64 = trimmed.parse().map_err(|_| {
                TraceError::malformed_snippet(
                    format!("invalid bin value `{trimmed}`"),
                    self.line_number,
                    snippet_of(trimmed),
                )
            })?;
            if !(v.is_finite() && v >= 0.0) {
                return Err(TraceError::invalid("bin", "volume must be non-negative")
                    .with_context(self.line_number, trimmed));
            }
            bins.push(v);
        }
        if bins.is_empty() {
            // A header with zero bins is still a (degenerate but valid) heatmap:
            // emit one empty-bins batch so draining yields an empty heatmap.
            if self.emitted_bins == 0 && self.done {
                self.emitted_bins = usize::MAX;
                return Ok(Some(TraceBatch::bins(self.app, start, bin_width, vec![])));
            }
            return Ok(None);
        }
        let batch_start = start + self.emitted_bins as f64 * bin_width;
        self.emitted_bins += bins.len();
        Ok(Some(TraceBatch::bins(
            self.app,
            batch_start,
            bin_width,
            bins,
        )))
    }
}

/// Reads the next line of a text trace into `buf` and counts it in
/// `line_number`; `None` at the end of the input. A line that is not UTF-8
/// is a positioned error quoting the line lossily, like every other decode
/// error, rather than an I/O error that names no line.
pub(crate) fn read_text_line<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
    line_number: &mut usize,
) -> TraceResult<Option<&'b str>> {
    buf.clear();
    if reader.read_until(b'\n', buf)? == 0 {
        return Ok(None);
    }
    *line_number += 1;
    std::str::from_utf8(buf).map(Some).map_err(|e| {
        TraceError::malformed_snippet(
            format!("line is not valid UTF-8 ({e})"),
            *line_number,
            snippet_of(&String::from_utf8_lossy(buf)),
        )
    })
}

/// Rejects decoded requests whose timestamps are NaN, negative, or reversed —
/// the streaming readers surface these as positioned errors instead of letting
/// silent `AppTrace::push` drops hide corrupt inputs. The snippet is built
/// lazily so the valid-request fast path allocates nothing.
pub(crate) fn validate_request(
    request: &IoRequest,
    position: usize,
    snippet: impl FnOnce() -> String,
) -> TraceResult<()> {
    if request.is_valid() {
        Ok(())
    } else {
        Err(TraceError::invalid(
            "start/end",
            format!(
                "invalid request interval [{}, {}] (times must be finite, non-negative and ordered)",
                request.start, request.end
            ),
        )
        .with_context(position, &snippet()))
    }
}

// --- format sniffing and file opening --------------------------------------

/// The on-disk formats the source layer can open.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SourceFormat {
    /// One JSON object per request per line (TMIO online flush format).
    Jsonl,
    /// MessagePack array of request arrays (this crate's binary format).
    Msgpack,
    /// TMIO-native JSON profile (columnar per-mode bandwidth arrays).
    TmioJson,
    /// TMIO-native MessagePack profile (same layout, binary).
    TmioMsgpack,
    /// `darshan-parser` text output: HEATMAP counters and/or DXT records.
    DarshanParser,
    /// This crate's `# darshan-heatmap` text rendering.
    HeatmapText,
    /// Recorder-style per-call text trace.
    Recorder,
}

impl SourceFormat {
    /// Canonical lowercase name (accepted by [`SourceFormat::parse`]).
    pub fn as_str(self) -> &'static str {
        match self {
            SourceFormat::Jsonl => "jsonl",
            SourceFormat::Msgpack => "msgpack",
            SourceFormat::TmioJson => "tmio-json",
            SourceFormat::TmioMsgpack => "tmio-msgpack",
            SourceFormat::DarshanParser => "darshan-parser",
            SourceFormat::HeatmapText => "heatmap",
            SourceFormat::Recorder => "recorder",
        }
    }

    /// Parses a format name as used by `--format` (not including `auto`).
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "jsonl" | "json-lines" | "jsonlines" => Some(SourceFormat::Jsonl),
            "msgpack" | "messagepack" | "mp" => Some(SourceFormat::Msgpack),
            "tmio-json" | "tmio_json" | "tmiojson" => Some(SourceFormat::TmioJson),
            "tmio-msgpack" | "tmio_msgpack" | "tmiomsgpack" => Some(SourceFormat::TmioMsgpack),
            "darshan-parser" | "darshan_parser" | "dxt" => Some(SourceFormat::DarshanParser),
            "heatmap" | "darshan" | "darshan-heatmap" => Some(SourceFormat::HeatmapText),
            "recorder" | "rec" => Some(SourceFormat::Recorder),
            _ => None,
        }
    }

    /// Guesses the format from a file extension (fallback when content
    /// sniffing is inconclusive).
    pub fn from_extension(path: &Path) -> Option<Self> {
        let ext = path.extension()?.to_str()?.to_ascii_lowercase();
        match ext.as_str() {
            "jsonl" => Some(SourceFormat::Jsonl),
            "json" => Some(SourceFormat::TmioJson),
            "msgpack" | "mp" | "bin" => Some(SourceFormat::Msgpack),
            "txt" | "recorder" => Some(SourceFormat::Recorder),
            "darshan" | "heatmap" | "csv" => Some(SourceFormat::HeatmapText),
            "dxt" => Some(SourceFormat::DarshanParser),
            _ => None,
        }
    }

    /// True when the input leads with the gzip magic bytes (`1f 8b`). gzip is
    /// a *transport*, not a [`SourceFormat`] of its own: the open/ingest entry
    /// points decompress the envelope and then sniff the inner format, so any
    /// of the formats above can arrive gzipped.
    pub fn is_gzip(prefix: &[u8]) -> bool {
        prefix.len() >= 2 && prefix[..2] == flate2::GZIP_MAGIC
    }

    /// Sniffs the format from the first bytes of the input (magic bytes for
    /// the binary formats, the first data line for the text formats).
    pub fn sniff(prefix: &[u8]) -> Option<Self> {
        let first = *prefix.first()?;
        match first {
            // MessagePack map → TMIO profile; array → request-array trace.
            0x80..=0x8f | 0xde | 0xdf => return Some(SourceFormat::TmioMsgpack),
            0x90..=0x9f | 0xdc | 0xdd => return Some(SourceFormat::Msgpack),
            _ => {}
        }
        let text = String::from_utf8_lossy(prefix);
        // Our own heatmap header wins over generic comment handling.
        if text.trim_start().starts_with("# darshan-heatmap") {
            return Some(SourceFormat::HeatmapText);
        }
        if text.trim_start().starts_with("# recorder-text") {
            return Some(SourceFormat::Recorder);
        }
        // darshan-parser / DXT output leads with its own comment header. Decide
        // on the header alone: real logs often carry more leading comments
        // (exe, mount table, module list) than the sniff prefix holds, so a
        // data line may not be in view at all.
        let comment_head = text.trim_start();
        if comment_head.starts_with("# darshan") || comment_head.starts_with("# DXT") {
            return Some(SourceFormat::DarshanParser);
        }
        // Otherwise the first non-comment, non-empty line decides.
        let data_line = text
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty() && !l.starts_with('#'))?;
        let fields: Vec<&str> = data_line.split_whitespace().collect();
        if fields[0] == "HEATMAP" || fields[0].starts_with("X_") {
            return Some(SourceFormat::DarshanParser);
        }
        if data_line.starts_with('{') {
            // A complete single-line object with a "rank" key is JSONL; a
            // multi-line document (TMIO pretty-prints) is the TMIO profile.
            if data_line.ends_with('}') && data_line.contains("\"rank\"") {
                return Some(SourceFormat::Jsonl);
            }
            return Some(SourceFormat::TmioJson);
        }
        // Recorder data line: `rank function start end bytes`.
        if fields.len() == 5
            && fields[0].parse::<usize>().is_ok()
            && fields[2].parse::<f64>().is_ok()
            && fields[3].parse::<f64>().is_ok()
            && fields[4].parse::<u64>().is_ok()
        {
            return Some(SourceFormat::Recorder);
        }
        None
    }
}

/// Builds a source over in-memory bytes in the given format. The text formats
/// stream over the buffer; the MessagePack request array decodes
/// incrementally from it. A TMIO profile is columnar, so it has no request
/// before the whole document is decoded: it is decoded here, once, and its
/// requests are emitted in batches from memory.
pub fn from_bytes(
    format: SourceFormat,
    app: AppId,
    bytes: Vec<u8>,
    batch_size: usize,
) -> TraceResult<Box<dyn TraceSource + Send>> {
    Ok(match format {
        SourceFormat::Jsonl => Box::new(LineSource::jsonl(
            std::io::Cursor::new(bytes),
            app,
            batch_size,
        )),
        SourceFormat::Msgpack => Box::new(MsgpackSource::new(bytes, app, batch_size)?),
        SourceFormat::TmioJson => {
            let text = std::str::from_utf8(&bytes).map_err(|e| {
                TraceError::malformed("TMIO JSON profile is not valid UTF-8", e.valid_up_to())
            })?;
            let profile = crate::tmio::decode_json(text)?;
            Box::new(MemorySource::from_requests(
                app,
                profile.requests,
                batch_size,
            ))
        }
        SourceFormat::TmioMsgpack => {
            let profile = crate::tmio::decode_msgpack(&bytes)?;
            Box::new(MemorySource::from_requests(
                app,
                profile.requests,
                batch_size,
            ))
        }
        SourceFormat::DarshanParser => Box::new(crate::darshan_parser::DarshanParserSource::new(
            std::io::Cursor::new(bytes),
            app,
            batch_size,
        )),
        SourceFormat::HeatmapText => Box::new(HeatmapTextSource::new(
            std::io::Cursor::new(bytes),
            app,
            batch_size,
        )),
        SourceFormat::Recorder => Box::new(LineSource::recorder(
            std::io::Cursor::new(bytes),
            app,
            batch_size,
        )),
    })
}

/// Decodes a whole in-memory document into a flat request list: the
/// [`from_bytes`] source, drained ([`drain_requests`]), so whole-buffer
/// decoding and chunked ingestion share one reader per format and one error
/// vocabulary. Heatmap bins come back as their request view.
pub fn decode_requests(format: SourceFormat, bytes: &[u8]) -> TraceResult<Vec<IoRequest>> {
    let app = AppId::from_name(format.as_str());
    drain_requests(from_bytes(format, app, bytes.to_vec(), DEFAULT_BATCH_SIZE)?.as_mut())
}

/// Builds a source over in-memory bytes where the format may be unknown and
/// the payload may be gzip-compressed: a gzip envelope (`1f 8b` magic) is
/// decompressed first, then the (inner) format is sniffed when `format` is
/// `None`. Returns the detected inner format alongside the source.
///
/// This is the byte-level counterpart of [`open_path`], used wherever the
/// input does not live on disk — most prominently per-connection socket
/// ingest in `ftio_core::server`.
pub fn from_bytes_auto(
    format: Option<SourceFormat>,
    app: AppId,
    mut bytes: Vec<u8>,
    batch_size: usize,
) -> TraceResult<(SourceFormat, Box<dyn TraceSource + Send>)> {
    if SourceFormat::is_gzip(&bytes) {
        bytes = gunzip_bytes(&bytes)?;
    }
    let format = match format {
        Some(f) => f,
        None => SourceFormat::sniff(&bytes[..bytes.len().min(4096)]).ok_or_else(|| {
            TraceError::malformed_snippet(
                "cannot determine the trace format of the payload",
                0,
                crate::errors::snippet_of_bytes(&bytes, 0),
            )
        })?,
    };
    Ok((format, from_bytes(format, app, bytes, batch_size)?))
}

/// Decompresses a gzip document, mapping decode failures onto positioned
/// [`TraceError::Malformed`] values like every other reader in this crate.
pub(crate) fn gunzip_bytes(bytes: &[u8]) -> TraceResult<Vec<u8>> {
    flate2::gunzip(bytes).map_err(|e| {
        TraceError::malformed_snippet(
            format!("gzip envelope: {}", e.message()),
            e.offset(),
            crate::errors::snippet_of_bytes(bytes, e.offset()),
        )
    })
}

/// Opens a trace file with an explicit format (or sniffs it when `None`),
/// returning the detected format and a streaming source attributed to
/// `AppId::from_name(<file name>)` that emits `batch_size` requests (or bins)
/// per [`TraceBatch`].
///
/// The format is sniffed from the first 4 KiB, falling back to the file
/// extension. A gzip envelope is decompressed first and the inner content
/// sniffed, with the extension under the `.gz` suffix as the fallback
/// (`trace.jsonl.gz`). The line-oriented formats (JSONL, Recorder,
/// `darshan-parser` text, heatmap text) stream straight off a buffered file
/// handle — peak memory is one batch plus the `BufReader` block, so multi-GB
/// trace files never materialise in memory. The random-access formats (the
/// MessagePack layouts and the whole-document TMIO JSON profile), and any
/// gzipped file, are read into one buffer before decoding.
pub fn open_path(
    path: &Path,
    format: Option<SourceFormat>,
    batch_size: usize,
) -> TraceResult<(SourceFormat, Box<dyn TraceSource + Send>)> {
    let app = AppId::from_name(path.file_name().and_then(|n| n.to_str()).unwrap_or("trace"));
    let mut file = std::fs::File::open(path)?;
    // Sniff on a bounded prefix only.
    let mut prefix = [0u8; 4096];
    let mut filled = 0usize;
    while filled < prefix.len() {
        let n = file.read(&mut prefix[filled..])?;
        if n == 0 {
            break;
        }
        filled += n;
    }
    // gzip transport: the DEFLATE stream has no random access, so slurp and
    // decompress before sniffing and dispatching over the inner bytes.
    let gunzipped = if SourceFormat::is_gzip(&prefix[..filled]) {
        let mut bytes = prefix[..filled].to_vec();
        file.read_to_end(&mut bytes)?;
        Some(gunzip_bytes(&bytes)?)
    } else {
        None
    };
    let (head, named, of) = match &gunzipped {
        Some(inner) => (
            &inner[..inner.len().min(prefix.len())],
            Path::new(path.file_stem().unwrap_or_default()),
            "inside gzipped",
        ),
        None => (&prefix[..filled], path, "of"),
    };
    let format = match format {
        Some(f) => f,
        None => SourceFormat::sniff(head)
            .or_else(|| SourceFormat::from_extension(named))
            .ok_or_else(|| {
                TraceError::malformed_snippet(
                    format!(
                        "cannot determine the trace format {of} `{}`",
                        path.display()
                    ),
                    0,
                    snippet_of(&String::from_utf8_lossy(
                        &head[..head.len().min(SNIPPET_PREFIX)],
                    )),
                )
            })?,
    };
    if let Some(inner) = gunzipped {
        return Ok((format, from_bytes(format, app, inner, batch_size)?));
    }
    // The readers want to see the file from the beginning again.
    file.rewind()?;
    let source: Box<dyn TraceSource + Send> = match format {
        SourceFormat::Jsonl => Box::new(LineSource::jsonl(BufReader::new(file), app, batch_size)),
        SourceFormat::Recorder => {
            Box::new(LineSource::recorder(BufReader::new(file), app, batch_size))
        }
        SourceFormat::HeatmapText => Box::new(HeatmapTextSource::new(
            BufReader::new(file),
            app,
            batch_size,
        )),
        SourceFormat::DarshanParser => Box::new(crate::darshan_parser::DarshanParserSource::new(
            BufReader::new(file),
            app,
            batch_size,
        )),
        SourceFormat::Msgpack | SourceFormat::TmioJson | SourceFormat::TmioMsgpack => {
            // Random-access decoding: one buffer, read through the handle we
            // already hold.
            let mut bytes = Vec::new();
            file.read_to_end(&mut bytes)?;
            from_bytes(format, app, bytes, batch_size)?
        }
    };
    Ok((format, source))
}

const SNIPPET_PREFIX: usize = 64;

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests(n: usize) -> Vec<IoRequest> {
        (0..n)
            .map(|i| IoRequest::write(i % 4, i as f64, i as f64 + 0.5, 1000 + i as u64))
            .collect()
    }

    #[test]
    fn memory_source_chunks_requests() {
        let requests = sample_requests(10);
        let mut source = MemorySource::from_requests(AppId::new(1), requests.clone(), 4);
        assert_eq!(source.remaining_batches(), 3);
        let mut total = 0;
        let mut sizes = Vec::new();
        while let Some(batch) = source.next_batch().unwrap() {
            sizes.push(batch.len());
            total += batch.len();
            assert_eq!(batch.app, AppId::new(1));
        }
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(total, 10);
    }

    #[test]
    fn memory_source_chunks_heatmaps_with_correct_starts() {
        let heatmap = Heatmap::new(10.0, 2.0, (0..7).map(|i| i as f64).collect());
        let mut source = MemorySource::from_heatmap(AppId::new(2), &heatmap, 3);
        let b0 = source.next_batch().unwrap().unwrap();
        let b1 = source.next_batch().unwrap().unwrap();
        let b2 = source.next_batch().unwrap().unwrap();
        assert!(source.next_batch().unwrap().is_none());
        match (&b0.payload, &b1.payload, &b2.payload) {
            (
                BatchPayload::Bins { start: s0, .. },
                BatchPayload::Bins { start: s1, .. },
                BatchPayload::Bins {
                    start: s2,
                    bins: last,
                    ..
                },
            ) => {
                assert_eq!(*s0, 10.0);
                assert_eq!(*s1, 16.0);
                assert_eq!(*s2, 22.0);
                assert_eq!(last.len(), 1);
            }
            other => panic!("expected bins batches, got {other:?}"),
        }
        // Draining reassembles the exact original heatmap.
        let mut source = MemorySource::from_heatmap(AppId::new(2), &heatmap, 3);
        match drain_single(&mut source, "h").unwrap() {
            DrainedInput::Heatmap(h) => assert_eq!(h, heatmap),
            DrainedInput::Trace(_) => panic!("expected a heatmap"),
        }
    }

    #[test]
    fn batch_end_time_and_request_conversion() {
        let batch = TraceBatch::requests(AppId::new(0), sample_requests(3));
        assert_eq!(batch.end_time(), Some(2.5));
        let bins = TraceBatch::bins(AppId::new(0), 5.0, 2.0, vec![0.0, 100.0, 0.0, 50.0]);
        assert_eq!(bins.end_time(), Some(13.0));
        let reqs = bins.into_requests();
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].start, 7.0);
        assert_eq!(reqs[0].bytes, 100);
        assert_eq!(reqs[1].start, 11.0);
        assert!(TraceBatch::requests(AppId::new(0), vec![])
            .end_time()
            .is_none());
    }

    #[test]
    fn jsonl_source_streams_and_matches_decoder() {
        let requests = sample_requests(25);
        let text = crate::jsonl::encode_requests(&requests);
        let mut source = LineSource::jsonl(text.as_bytes(), AppId::new(3), 8);
        let mut streamed = Vec::new();
        let mut batches = 0;
        while let Some(batch) = source.next_batch().unwrap() {
            batches += 1;
            streamed.extend(batch.into_requests());
        }
        assert_eq!(batches, 4);
        assert_eq!(streamed, requests);
    }

    #[test]
    fn msgpack_source_streams_and_matches_decoder() {
        let requests = sample_requests(25);
        let packed = crate::msgpack::encode_requests(&requests);
        let mut source = MsgpackSource::new(packed, AppId::new(4), 10).unwrap();
        let mut streamed = Vec::new();
        while let Some(batch) = source.next_batch().unwrap() {
            streamed.extend(batch.into_requests());
        }
        assert_eq!(streamed, requests);
    }

    #[test]
    fn recorder_source_streams() {
        let requests = sample_requests(9);
        let text = crate::recorder::encode_requests(&requests);
        let mut source = LineSource::recorder(text.as_bytes(), AppId::new(5), 4);
        let streamed = drain_requests(&mut source).unwrap();
        assert_eq!(streamed.len(), 9);
    }

    #[test]
    fn heatmap_text_source_round_trips() {
        let heatmap = Heatmap::new(3.0, 1.5, vec![1.0, 0.0, 2.5, 7.0, 0.0]);
        let text = heatmap.to_text();
        let mut source = HeatmapTextSource::new(text.as_bytes(), AppId::new(6), 2);
        match drain_single(&mut source, "h").unwrap() {
            DrainedInput::Heatmap(h) => assert_eq!(h, heatmap),
            DrainedInput::Trace(_) => panic!("expected heatmap"),
        }
    }

    #[test]
    fn jsonl_source_rejects_nan_and_negative_timestamps() {
        for bad in [
            r#"{"rank":0,"start":-1.0,"end":1.0,"bytes":5,"kind":"write"}"#,
            r#"{"rank":0,"start":2.0,"end":1.0,"bytes":5,"kind":"write"}"#,
        ] {
            let mut source = LineSource::jsonl(bad.as_bytes(), AppId::new(0), 8);
            let err = source.next_batch().unwrap_err();
            let message = err.to_string();
            assert!(message.contains("position 1"), "{message}");
            assert!(message.contains("start/end"), "{message}");
        }
    }

    #[test]
    fn jsonl_errors_carry_line_and_snippet() {
        let doc = format!(
            "{}\n{{\"rank\":1,\"bytes\":2}}\n",
            crate::jsonl::encode_request(&IoRequest::write(0, 0.0, 1.0, 1))
        );
        let mut source = LineSource::jsonl(doc.as_bytes(), AppId::new(0), 8);
        let err = source.next_batch().unwrap_err().to_string();
        assert!(err.contains("position 2"), "{err}");
        assert!(err.contains("near `"), "{err}");
    }

    #[test]
    fn truncated_msgpack_reports_byte_offset_and_hex() {
        let requests = sample_requests(3);
        let mut packed = crate::msgpack::encode_requests(&requests);
        packed.truncate(packed.len() - 5);
        let mut source = MsgpackSource::new(packed, AppId::new(0), 8).unwrap();
        let err = source.next_batch().unwrap_err().to_string();
        assert!(err.contains("truncated"), "{err}");
        assert!(err.contains("position"), "{err}");
    }

    #[test]
    fn out_of_order_lines_are_accepted() {
        // Trace files merge per-rank streams, so descending timestamps across
        // lines are legal; only *within* a record must start <= end hold.
        let doc = "\
{\"rank\":0,\"start\":50.0,\"end\":51.0,\"bytes\":10,\"kind\":\"write\"}\n\
{\"rank\":1,\"start\":1.0,\"end\":2.0,\"bytes\":20,\"kind\":\"read\"}\n";
        let mut source = LineSource::jsonl(doc.as_bytes(), AppId::new(0), 8);
        let requests = drain_requests(&mut source).unwrap();
        assert_eq!(requests.len(), 2);
        assert!(requests[0].start > requests[1].start);
    }

    #[test]
    fn drain_single_mixes_bins_into_requests() {
        let batches = vec![
            TraceBatch::requests(AppId::new(1), sample_requests(2)),
            TraceBatch::bins(AppId::new(1), 10.0, 1.0, vec![500.0]),
        ];
        let mut source = MemorySource::from_batches(AppId::new(1), batches);
        match drain_single(&mut source, "mixed").unwrap() {
            DrainedInput::Trace(trace) => {
                assert_eq!(trace.len(), 3);
                assert_eq!(trace.total_volume(), 1000 + 1001 + 500);
            }
            DrainedInput::Heatmap(_) => panic!("requests present: expected a trace"),
        }
    }

    #[test]
    fn drain_single_rejects_inconsistent_bin_widths() {
        let batches = vec![
            TraceBatch::bins(AppId::new(1), 0.0, 1.0, vec![1.0]),
            TraceBatch::bins(AppId::new(1), 1.0, 2.0, vec![1.0]),
        ];
        let mut source = MemorySource::from_batches(AppId::new(1), batches);
        let err = drain_single(&mut source, "x").unwrap_err().to_string();
        assert!(err.contains("bin width changed"), "{err}");
    }

    #[test]
    fn drain_single_counts_the_largest_rank() {
        let line = format!(
            r#"{{"rank":{},"start":0.0,"end":1.0,"bytes":5,"kind":"write"}}"#,
            usize::MAX
        );
        let (_, mut source) = from_bytes_auto(None, AppId::new(1), line.into_bytes(), 4).unwrap();
        match drain_single(source.as_mut(), "max").unwrap() {
            DrainedInput::Trace(trace) => assert_eq!(trace.metadata().num_ranks, usize::MAX),
            DrainedInput::Heatmap(_) => panic!("expected a trace"),
        }
    }

    #[test]
    fn invalid_utf8_is_a_positioned_error_in_every_text_format() {
        let jsonl = crate::jsonl::encode_request(&IoRequest::write(0, 0.0, 1.0, 1));
        for (format, first_line) in [
            (SourceFormat::Jsonl, jsonl.as_str()),
            (SourceFormat::Recorder, "0 MPI_File_write_all 0.0 0.5 100"),
            (
                SourceFormat::HeatmapText,
                "# darshan-heatmap start=0 bin_width=1",
            ),
            (SourceFormat::DarshanParser, "# darshan log version: 3.41"),
        ] {
            let mut doc = format!("{first_line}\n").into_bytes();
            doc.extend_from_slice(b"{\"rank\":\xff}\n");
            let mut source = from_bytes(format, AppId::new(0), doc, 8).unwrap();
            let err = drain_requests(source.as_mut()).unwrap_err().to_string();
            assert!(err.contains("position 2"), "{format:?}: {err}");
            assert!(err.contains("not valid UTF-8"), "{format:?}: {err}");
            assert!(
                err.contains("near `{\"rank\":\u{fffd}}`"),
                "{format:?}: {err}"
            );
        }
    }

    #[test]
    fn sniffing_identifies_every_format() {
        let requests = sample_requests(3);
        let jsonl = crate::jsonl::encode_requests(&requests);
        assert_eq!(
            SourceFormat::sniff(jsonl.as_bytes()),
            Some(SourceFormat::Jsonl)
        );
        let packed = crate::msgpack::encode_requests(&requests);
        assert_eq!(SourceFormat::sniff(&packed), Some(SourceFormat::Msgpack));
        let recorder = crate::recorder::encode_requests(&requests);
        assert_eq!(
            SourceFormat::sniff(recorder.as_bytes()),
            Some(SourceFormat::Recorder)
        );
        let heatmap = Heatmap::new(0.0, 1.0, vec![1.0]).to_text();
        assert_eq!(
            SourceFormat::sniff(heatmap.as_bytes()),
            Some(SourceFormat::HeatmapText)
        );
        let darshan =
            "# darshan log version 3.41\nHEATMAP\t0\t123\tHEATMAP_F_BIN_WIDTH_SECONDS\t1.0\n";
        assert_eq!(
            SourceFormat::sniff(darshan.as_bytes()),
            Some(SourceFormat::DarshanParser)
        );
        let dxt = "# DXT, file_id: 1\nX_POSIX\t0\twrite\t0\t0\t1048576\t0.03\t0.06\n";
        assert_eq!(
            SourceFormat::sniff(dxt.as_bytes()),
            Some(SourceFormat::DarshanParser)
        );
        assert_eq!(SourceFormat::sniff(b""), None);
        assert_eq!(SourceFormat::sniff(b"garbage data here"), None);
    }

    #[test]
    fn sniffing_darshan_works_from_the_comment_header_alone() {
        // Real darshan-parser logs open with a long comment block (exe, mount
        // table, module list) that can exceed the sniff prefix — the header
        // must be enough, with no data line in view.
        let mut header = String::from("# darshan log version: 3.41\n");
        for i in 0..300 {
            header.push_str(&format!("# mount entry {i}: /scratch{i} lustre\n"));
        }
        assert_eq!(
            SourceFormat::sniff(&header.as_bytes()[..4096]),
            Some(SourceFormat::DarshanParser)
        );
        // Same for a DXT header.
        assert_eq!(
            SourceFormat::sniff(b"# DXT, file_id: 1234, file_name: /out.dat\n"),
            Some(SourceFormat::DarshanParser)
        );
    }

    #[test]
    fn format_names_round_trip() {
        for format in [
            SourceFormat::Jsonl,
            SourceFormat::Msgpack,
            SourceFormat::TmioJson,
            SourceFormat::TmioMsgpack,
            SourceFormat::DarshanParser,
            SourceFormat::HeatmapText,
            SourceFormat::Recorder,
        ] {
            assert_eq!(SourceFormat::parse(format.as_str()), Some(format));
        }
        assert_eq!(SourceFormat::parse("nope"), None);
        assert_eq!(
            SourceFormat::from_extension(Path::new("a/b.jsonl")),
            Some(SourceFormat::Jsonl)
        );
        assert_eq!(SourceFormat::from_extension(Path::new("x")), None);
    }

    #[test]
    fn open_path_sniffs_and_streams_a_file() {
        let dir = std::env::temp_dir();
        let path = dir.join("ftio_source_open_test.unknownext");
        let requests = sample_requests(7);
        std::fs::write(&path, crate::jsonl::encode_requests(&requests)).unwrap();
        let (format, mut source) = open_path(&path, None, DEFAULT_BATCH_SIZE).unwrap();
        assert_eq!(format, SourceFormat::Jsonl);
        let drained = drain_requests(source.as_mut()).unwrap();
        assert_eq!(drained, requests);
        let _ = std::fs::remove_file(&path);
    }

    /// A reader that synthesises a (practically unbounded) JSONL stream lazily
    /// and counts every byte the consumer actually pulls — the observable
    /// proof that the line readers stream instead of slurping.
    struct MeteredJsonl {
        line: usize,
        total_lines: usize,
        pending: Vec<u8>,
        served: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Read for MeteredJsonl {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.pending.is_empty() {
                if self.line >= self.total_lines {
                    return Ok(0);
                }
                let start = self.line as f64;
                self.pending = format!(
                    "{{\"rank\":0,\"start\":{start},\"end\":{},\"bytes\":10,\"kind\":\"write\"}}\n",
                    start + 0.5
                )
                .into_bytes();
                self.line += 1;
            }
            let n = self.pending.len().min(buf.len());
            buf[..n].copy_from_slice(&self.pending[..n]);
            self.pending.drain(..n);
            self.served
                .fetch_add(n, std::sync::atomic::Ordering::Relaxed);
            Ok(n)
        }
    }

    /// Satellite contract: a buffered line reader pulls only what the
    /// requested batches need (one batch plus the `BufReader` block of
    /// read-ahead) — a million-line trace does not materialise in memory.
    #[test]
    fn line_readers_keep_peak_buffering_bounded() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;
        let served = Arc::new(AtomicUsize::new(0));
        let reader = MeteredJsonl {
            line: 0,
            total_lines: 1_000_000,
            pending: Vec::new(),
            served: served.clone(),
        };
        let mut source = LineSource::jsonl(BufReader::new(reader), AppId::new(1), 128);
        for batch_index in 0..3 {
            let batch = source.next_batch().unwrap().expect("stream has data");
            assert_eq!(batch.len(), 128, "batch {batch_index}");
        }
        let pulled = served.load(Ordering::Relaxed);
        // 3 batches × 128 lines × <64 bytes, plus one BufReader block of
        // read-ahead — nowhere near the ~60 MB the full stream holds.
        assert!(
            pulled < 3 * 128 * 64 + 16 * 1024,
            "reader over-pulled: {pulled} bytes for 384 lines"
        );
    }

    /// The streaming `open_path` file path works for every line-oriented
    /// format (the handle is rewound after sniffing) and reproduces exactly
    /// what the whole-buffer decoders yield.
    #[test]
    fn open_path_streams_line_formats_from_the_file_handle() {
        let dir = std::env::temp_dir();
        // Recorder text.
        let requests = sample_requests(9);
        let rec_path = dir.join("ftio_source_stream_test.recorder_x");
        std::fs::write(&rec_path, crate::recorder::encode_requests(&requests)).unwrap();
        let (format, mut source) = open_path(&rec_path, None, DEFAULT_BATCH_SIZE).unwrap();
        assert_eq!(format, SourceFormat::Recorder);
        assert_eq!(drain_requests(source.as_mut()).unwrap(), requests);
        let _ = std::fs::remove_file(&rec_path);
        // Heatmap text.
        let heatmap = Heatmap::new(3.0, 1.5, vec![1.0, 0.0, 2.5, 7.0, 0.0]);
        let hm_path = dir.join("ftio_source_stream_test.heatmap_x");
        std::fs::write(&hm_path, heatmap.to_text()).unwrap();
        let (format, mut source) = open_path(&hm_path, None, DEFAULT_BATCH_SIZE).unwrap();
        assert_eq!(format, SourceFormat::HeatmapText);
        match drain_single(source.as_mut(), "h").unwrap() {
            DrainedInput::Heatmap(h) => assert_eq!(h, heatmap),
            DrainedInput::Trace(_) => panic!("expected heatmap"),
        }
        let _ = std::fs::remove_file(&hm_path);
    }

    /// gzip is a transport: a gzipped file of any sniffable format opens
    /// transparently, the reported format is the *inner* one, and the content
    /// matches the uncompressed original.
    #[test]
    fn open_path_decompresses_gzip_transparently() {
        let dir = std::env::temp_dir();
        let requests = sample_requests(23);
        let jsonl = crate::jsonl::encode_requests(&requests);
        // Sniffed from the decompressed content (extension gives nothing).
        let path = dir.join("ftio_source_gzip_test.unknownext");
        std::fs::write(&path, flate2::gzip_stored(jsonl.as_bytes())).unwrap();
        assert!(SourceFormat::is_gzip(&std::fs::read(&path).unwrap()));
        let (format, mut source) = open_path(&path, None, DEFAULT_BATCH_SIZE).unwrap();
        assert_eq!(format, SourceFormat::Jsonl);
        assert_eq!(drain_requests(source.as_mut()).unwrap(), requests);
        let _ = std::fs::remove_file(&path);
        // Binary inner format (msgpack magic survives the envelope), and the
        // `.gz` double-extension fallback path.
        let packed = crate::msgpack::encode_requests(&requests);
        let path = dir.join("ftio_source_gzip_test.msgpack.gz");
        std::fs::write(&path, flate2::gzip_stored(&packed)).unwrap();
        let (format, mut source) = open_path(&path, None, DEFAULT_BATCH_SIZE).unwrap();
        assert_eq!(format, SourceFormat::Msgpack);
        assert_eq!(drain_requests(source.as_mut()).unwrap(), requests);
        let _ = std::fs::remove_file(&path);
    }

    /// A corrupted gzip envelope surfaces as a positioned `Malformed` error,
    /// not a panic or a silent misparse.
    #[test]
    fn open_path_reports_corrupt_gzip() {
        let dir = std::env::temp_dir();
        let path = dir.join("ftio_source_gzip_corrupt_test.jsonl.gz");
        let mut packed = flate2::gzip_stored(b"{\"rank\":0}\n");
        let n = packed.len();
        packed[n - 1] ^= 0x01; // break the ISIZE trailer
        std::fs::write(&path, packed).unwrap();
        let err = match open_path(&path, None, DEFAULT_BATCH_SIZE) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("corrupt gzip must not open"),
        };
        assert!(err.contains("gzip envelope"), "{err}");
        let _ = std::fs::remove_file(&path);
    }

    /// `from_bytes_auto` — the socket-side entry point — handles both the
    /// gzip envelope and bare payloads.
    #[test]
    fn from_bytes_auto_sniffs_and_gunzips() {
        let requests = sample_requests(11);
        let jsonl = crate::jsonl::encode_requests(&requests);
        for payload in [
            jsonl.clone().into_bytes(),
            flate2::gzip_stored(jsonl.as_bytes()),
        ] {
            let (format, mut source) = from_bytes_auto(None, AppId::new(9), payload, 4).unwrap();
            assert_eq!(format, SourceFormat::Jsonl);
            assert_eq!(drain_requests(source.as_mut()).unwrap(), requests);
        }
        assert!(from_bytes_auto(None, AppId::new(9), b"gibberish".to_vec(), 4).is_err());
    }

    #[test]
    fn open_path_reports_unknown_formats() {
        let dir = std::env::temp_dir();
        let path = dir.join("ftio_source_unknown_test.xyz");
        std::fs::write(&path, "complete nonsense\n").unwrap();
        let err = match open_path(&path, None, DEFAULT_BATCH_SIZE) {
            Err(e) => e.to_string(),
            Ok(_) => panic!("nonsense must not open"),
        };
        assert!(err.contains("cannot determine"), "{err}");
        let _ = std::fs::remove_file(&path);
    }
}

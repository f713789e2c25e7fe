//! TMIO-native profile layouts (JSON and MessagePack).
//!
//! TMIO — the paper's tracing library — flushes its collected metrics as a
//! *columnar* profile rather than a flat request log: one top-level section
//! per I/O mode (`write_sync`, `read_sync`, `write_async_t`, `read_async_t`),
//! each holding a `bandwidth` object with parallel arrays: the per-request
//! average bandwidth `b_rank_avr` (bytes/s) and the request start/end stamps
//! `t_rank_s` / `t_rank_e` (seconds). FTIO consumes exactly these arrays, and
//! this module does the same so TMIO's own JSON/MessagePack output files work
//! drop-in:
//!
//! ```json
//! {
//!   "ranks": 4,
//!   "write_sync": {
//!     "number_of_ranks": 4,
//!     "bandwidth": {
//!       "b_rank_avr": [1048576.0, 2097152.0],
//!       "t_rank_s":   [0.0, 10.0],
//!       "t_rank_e":   [1.0, 10.5],
//!       "ranks":      [0, 1]
//!     }
//!   }
//! }
//! ```
//!
//! The transferred volume of a request is `b · (t_e − t_s)` (rounded to whole
//! bytes); the optional `ranks` array attributes requests to ranks (defaulting
//! to rank 0, since TMIO's aggregate profile does not always keep it). Unknown
//! sections and counters are skipped, so richer TMIO files still parse.
//!
//! Both layouts decode through [`decode_json`] / [`decode_msgpack`] and stream
//! through [`TmioJsonSource`] / [`TmioMsgpackSource`] (columnar files must be
//! read whole before the first request can be formed, so the sources
//! materialise once and then emit chunked batches). Encoders are provided to
//! build fixtures and benchmark corpora without a TMIO install.

use crate::app_id::AppId;
use crate::errors::{snippet_of, TraceError, TraceResult};
use crate::msgpack;
use crate::request::{IoApi, IoKind, IoRequest};
use crate::source::{MemorySource, TraceBatch, TraceSource};

/// The four TMIO profile sections and the request kind/API they map to.
const SECTIONS: [(&str, IoKind, IoApi); 4] = [
    ("write_sync", IoKind::Write, IoApi::Sync),
    ("read_sync", IoKind::Read, IoApi::Sync),
    ("write_async_t", IoKind::Write, IoApi::Async),
    ("read_async_t", IoKind::Read, IoApi::Async),
];

/// A decoded TMIO profile: the rank count and the reconstructed request list
/// (section order, then array order).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TmioProfile {
    /// Number of ranks reported by the profile (0 when absent).
    pub ranks: usize,
    /// The reconstructed rank-level requests.
    pub requests: Vec<IoRequest>,
}

// --- minimal recursive JSON parser ----------------------------------------

/// A JSON value as found in TMIO profiles (objects, arrays, scalars).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, key: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn new(text: &'a str) -> Self {
        JsonParser {
            bytes: text.as_bytes(),
            pos: 0,
        }
    }

    fn error(&self, reason: impl Into<String>) -> TraceError {
        let end = (self.pos + 32).min(self.bytes.len());
        let start = self.pos.min(end);
        TraceError::malformed_snippet(
            reason,
            self.pos,
            snippet_of(&String::from_utf8_lossy(&self.bytes[start..end])),
        )
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b) if b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, byte: u8) -> TraceResult<()> {
        match self.peek() {
            Some(b) if b == byte => {
                self.pos += 1;
                Ok(())
            }
            Some(b) => Err(self.error(format!(
                "expected `{}`, found `{}`",
                byte as char, b as char
            ))),
            None => Err(TraceError::UnexpectedEof),
        }
    }

    fn parse_document(mut self) -> TraceResult<Json> {
        let value = self.parse_value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(self.error("trailing data after JSON document"));
        }
        Ok(value)
    }

    fn parse_value(&mut self) -> TraceResult<Json> {
        self.skip_ws();
        match self.peek().ok_or(TraceError::UnexpectedEof)? {
            b'{' => self.parse_object(),
            b'[' => self.parse_array(),
            b'"' => Ok(Json::Str(self.parse_string()?)),
            b't' | b'f' | b'n' => self.parse_literal(),
            b'-' | b'+' | b'0'..=b'9' => self.parse_number(),
            other => Err(self.error(format!("unexpected character `{}`", other as char))),
        }
    }

    fn parse_object(&mut self) -> TraceResult<Json> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(pairs));
                }
                Some(b) => {
                    return Err(self.error(format!("expected `,` or `}}`, found `{}`", b as char)))
                }
                None => return Err(TraceError::UnexpectedEof),
            }
        }
    }

    fn parse_array(&mut self) -> TraceResult<Json> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                Some(b) => {
                    return Err(self.error(format!("expected `,` or `]`, found `{}`", b as char)))
                }
                None => return Err(TraceError::UnexpectedEof),
            }
        }
    }

    fn parse_string(&mut self) -> TraceResult<String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.peek().ok_or(TraceError::UnexpectedEof)? {
                b'"' => {
                    self.pos += 1;
                    return String::from_utf8(out)
                        .map_err(|_| TraceError::malformed("invalid UTF-8 in string", self.pos));
                }
                b'\\' => {
                    self.pos += 1;
                    match self.peek().ok_or(TraceError::UnexpectedEof)? {
                        b'n' => out.push(b'\n'),
                        b't' => out.push(b'\t'),
                        other => out.push(other),
                    }
                    self.pos += 1;
                }
                other => {
                    out.push(other);
                    self.pos += 1;
                }
            }
        }
    }

    fn parse_literal(&mut self) -> TraceResult<Json> {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_alphabetic()) {
            self.pos += 1;
        }
        match &self.bytes[start..self.pos] {
            b"true" => Ok(Json::Bool(true)),
            b"false" => Ok(Json::Bool(false)),
            b"null" => Ok(Json::Null),
            other => {
                let word = String::from_utf8_lossy(other).to_string();
                self.pos = start;
                Err(self.error(format!("unknown literal `{word}`")))
            }
        }
    }

    fn parse_number(&mut self) -> TraceResult<Json> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b) if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii number");
        text.parse::<f64>().map(Json::Num).map_err(|_| {
            self.pos = start;
            self.error(format!("invalid number `{text}`"))
        })
    }
}

// --- decoding --------------------------------------------------------------

/// Reconstructs requests from one section's parallel bandwidth arrays.
fn section_requests(
    section: &str,
    kind: IoKind,
    api: IoApi,
    b: &[f64],
    ts: &[f64],
    te: &[f64],
    ranks: Option<&[f64]>,
) -> TraceResult<Vec<IoRequest>> {
    if b.len() != ts.len() || b.len() != te.len() || ranks.is_some_and(|r| r.len() != b.len()) {
        return Err(TraceError::invalid(
            "bandwidth",
            format!(
                "section `{section}`: parallel arrays disagree in length \
                 (b_rank_avr {}, t_rank_s {}, t_rank_e {})",
                b.len(),
                ts.len(),
                te.len()
            ),
        ));
    }
    let mut out = Vec::with_capacity(b.len());
    for i in 0..b.len() {
        if !(b[i].is_finite() && b[i] >= 0.0) {
            return Err(TraceError::invalid(
                "b_rank_avr",
                format!(
                    "section `{section}` entry {i}: bandwidth {} is invalid",
                    b[i]
                ),
            ));
        }
        // Ranks are integers in `f64` arrays: one beyond `u64` is an error,
        // not a rank that `as` saturates.
        let rank = match ranks.map(|r| r[i]) {
            None => 0,
            Some(r) if r.fract() != 0.0 || r < 0.0 => {
                return Err(TraceError::invalid(
                    "ranks",
                    format!(
                        "section `{section}` entry {i}: rank {r} is not a non-negative integer"
                    ),
                ))
            }
            Some(r) if r >= crate::jsonl::U64_END => {
                return Err(TraceError::invalid(
                    "ranks",
                    format!(
                        "section `{section}` entry {i}: rank {r} is out of range \
                         for an unsigned 64-bit integer"
                    ),
                ))
            }
            Some(r) => r as usize,
        };
        let request = IoRequest {
            rank,
            start: ts[i],
            end: te[i],
            bytes: (b[i] * (te[i] - ts[i])).round() as u64,
            kind,
            api,
        };
        if !request.is_valid() {
            return Err(TraceError::invalid(
                "t_rank_s/t_rank_e",
                format!(
                    "section `{section}` entry {i}: invalid interval [{}, {}]",
                    ts[i], te[i]
                ),
            ));
        }
        out.push(request);
    }
    Ok(out)
}

fn json_f64_array(value: &Json, field: &'static str) -> TraceResult<Vec<f64>> {
    match value {
        Json::Arr(items) => items
            .iter()
            .map(|v| {
                v.as_f64()
                    .ok_or_else(|| TraceError::invalid(field, "array entry is not a number"))
            })
            .collect(),
        _ => Err(TraceError::invalid(field, "expected an array")),
    }
}

/// Decodes a TMIO-native JSON profile.
pub fn decode_json(text: &str) -> TraceResult<TmioProfile> {
    let root = JsonParser::new(text).parse_document()?;
    if !matches!(root, Json::Obj(_)) {
        return Err(TraceError::malformed(
            "TMIO profile must be a JSON object",
            0,
        ));
    }
    let mut profile = TmioProfile {
        ranks: root
            .get("ranks")
            .and_then(Json::as_f64)
            .map(|r| r as usize)
            .unwrap_or(0),
        requests: Vec::new(),
    };
    let mut any_section = false;
    for (section, kind, api) in SECTIONS {
        let Some(body) = root.get(section) else {
            continue;
        };
        any_section = true;
        // The arrays live in a `bandwidth` sub-object (TMIO layout) but are
        // also accepted directly in the section for hand-written files.
        let bandwidth = body.get("bandwidth").unwrap_or(body);
        let Some(b) = bandwidth.get("b_rank_avr") else {
            continue; // empty section
        };
        let b = json_f64_array(b, "b_rank_avr")?;
        let ts = json_f64_array(
            bandwidth.get("t_rank_s").ok_or_else(|| {
                TraceError::invalid("t_rank_s", format!("missing in section `{section}`"))
            })?,
            "t_rank_s",
        )?;
        let te = json_f64_array(
            bandwidth.get("t_rank_e").ok_or_else(|| {
                TraceError::invalid("t_rank_e", format!("missing in section `{section}`"))
            })?,
            "t_rank_e",
        )?;
        let ranks = bandwidth
            .get("ranks")
            .map(|v| json_f64_array(v, "ranks"))
            .transpose()?;
        if profile.ranks == 0 {
            if let Some(n) = body.get("number_of_ranks").and_then(Json::as_f64) {
                profile.ranks = n as usize;
            }
        }
        profile.requests.extend(section_requests(
            section,
            kind,
            api,
            &b,
            &ts,
            &te,
            ranks.as_deref(),
        )?);
    }
    if !any_section {
        return Err(TraceError::malformed(
            "TMIO profile holds none of the known sections \
             (write_sync/read_sync/write_async_t/read_async_t)",
            0,
        ));
    }
    if profile.ranks == 0 {
        profile.ranks = profile
            .requests
            .iter()
            .map(|r| r.rank + 1)
            .max()
            .unwrap_or(0);
    }
    Ok(profile)
}

/// Decodes a TMIO-native MessagePack profile (same layout as the JSON one,
/// encoded as nested maps).
pub fn decode_msgpack(data: &[u8]) -> TraceResult<TmioProfile> {
    let mut reader = msgpack::Reader::new(data);
    let top = reader.read_map_header()?;
    let mut profile = TmioProfile::default();
    let mut any_section = false;
    for _ in 0..top {
        let key = reader.read_str()?;
        if key == "ranks" {
            profile.ranks = reader.read_uint()? as usize;
            continue;
        }
        let Some(&(section, kind, api)) = SECTIONS.iter().find(|(name, _, _)| *name == key) else {
            reader.skip_value()?;
            continue;
        };
        any_section = true;
        let mut b: Vec<f64> = Vec::new();
        let mut ts: Vec<f64> = Vec::new();
        let mut te: Vec<f64> = Vec::new();
        let mut ranks: Option<Vec<f64>> = None;
        let section_len = reader.read_map_header()?;
        for _ in 0..section_len {
            let section_key = reader.read_str()?;
            match section_key.as_str() {
                "number_of_ranks" => {
                    let n = reader.read_uint()? as usize;
                    if profile.ranks == 0 {
                        profile.ranks = n;
                    }
                }
                "bandwidth" => {
                    let bandwidth_len = reader.read_map_header()?;
                    for _ in 0..bandwidth_len {
                        let field = reader.read_str()?;
                        match field.as_str() {
                            "b_rank_avr" => b = read_f64_array(&mut reader)?,
                            "t_rank_s" => ts = read_f64_array(&mut reader)?,
                            "t_rank_e" => te = read_f64_array(&mut reader)?,
                            "ranks" => ranks = Some(read_f64_array(&mut reader)?),
                            _ => reader.skip_value()?,
                        }
                    }
                }
                _ => reader.skip_value()?,
            }
        }
        profile.requests.extend(section_requests(
            section,
            kind,
            api,
            &b,
            &ts,
            &te,
            ranks.as_deref(),
        )?);
    }
    if !any_section {
        return Err(TraceError::malformed(
            "TMIO profile holds none of the known sections \
             (write_sync/read_sync/write_async_t/read_async_t)",
            0,
        ));
    }
    if profile.ranks == 0 {
        profile.ranks = profile
            .requests
            .iter()
            .map(|r| r.rank + 1)
            .max()
            .unwrap_or(0);
    }
    Ok(profile)
}

fn read_f64_array(reader: &mut msgpack::Reader<'_>) -> TraceResult<Vec<f64>> {
    let len = reader.read_array_header()?;
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(reader.read_f64()?);
    }
    Ok(out)
}

// --- encoding (fixtures, benchmarks, interop tests) ------------------------

fn grouped_sections(requests: &[IoRequest]) -> Vec<(&'static str, Vec<&IoRequest>)> {
    SECTIONS
        .iter()
        .map(|&(name, kind, api)| {
            let members: Vec<&IoRequest> = requests
                .iter()
                .filter(|r| {
                    r.kind == kind
                        && match api {
                            // POSIX requests have no TMIO section; fold them
                            // into the sync one (the API level is not part of
                            // the profile's information content anyway).
                            IoApi::Sync => r.api != IoApi::Async,
                            other => r.api == other,
                        }
                })
                .collect();
            (name, members)
        })
        .filter(|(_, members)| !members.is_empty())
        .collect()
}

/// Encodes requests as a TMIO-native JSON profile.
pub fn encode_json(ranks: usize, requests: &[IoRequest]) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"ranks\": {ranks}"));
    for (section, members) in grouped_sections(requests) {
        out.push_str(",\n");
        out.push_str(&format!(
            "  \"{section}\": {{\n    \"number_of_ranks\": {ranks},\n    \"bandwidth\": {{\n"
        ));
        let join = |f: &dyn Fn(&IoRequest) -> String| {
            members.iter().map(|r| f(r)).collect::<Vec<_>>().join(", ")
        };
        out.push_str(&format!(
            "      \"b_rank_avr\": [{}],\n",
            join(&|r| format!("{}", r.bandwidth()))
        ));
        out.push_str(&format!(
            "      \"t_rank_s\": [{}],\n",
            join(&|r| format!("{}", r.start))
        ));
        out.push_str(&format!(
            "      \"t_rank_e\": [{}],\n",
            join(&|r| format!("{}", r.end))
        ));
        out.push_str(&format!(
            "      \"ranks\": [{}]\n",
            join(&|r| format!("{}", r.rank))
        ));
        out.push_str("    }\n  }");
    }
    out.push_str("\n}\n");
    out
}

/// Encodes requests as a TMIO-native MessagePack profile.
pub fn encode_msgpack(ranks: usize, requests: &[IoRequest]) -> Vec<u8> {
    let sections = grouped_sections(requests);
    let mut out = Vec::new();
    msgpack::write_map_header(&mut out, 1 + sections.len());
    msgpack::write_str(&mut out, "ranks");
    msgpack::write_uint(&mut out, ranks as u64);
    for (section, members) in sections {
        msgpack::write_str(&mut out, section);
        msgpack::write_map_header(&mut out, 2);
        msgpack::write_str(&mut out, "number_of_ranks");
        msgpack::write_uint(&mut out, ranks as u64);
        msgpack::write_str(&mut out, "bandwidth");
        msgpack::write_map_header(&mut out, 4);
        msgpack::write_str(&mut out, "b_rank_avr");
        msgpack::write_array_header(&mut out, members.len());
        for r in &members {
            msgpack::write_f64(&mut out, r.bandwidth());
        }
        msgpack::write_str(&mut out, "t_rank_s");
        msgpack::write_array_header(&mut out, members.len());
        for r in &members {
            msgpack::write_f64(&mut out, r.start);
        }
        msgpack::write_str(&mut out, "t_rank_e");
        msgpack::write_array_header(&mut out, members.len());
        for r in &members {
            msgpack::write_f64(&mut out, r.end);
        }
        msgpack::write_str(&mut out, "ranks");
        msgpack::write_array_header(&mut out, members.len());
        for r in &members {
            msgpack::write_uint(&mut out, r.rank as u64);
        }
    }
    out
}

// --- streaming sources -----------------------------------------------------

/// Streaming source over a TMIO-native JSON profile. Columnar layouts need
/// the whole document before the first request exists, so the source decodes
/// once up front and then emits chunked batches.
pub struct TmioJsonSource {
    inner: MemorySource,
}

impl TmioJsonSource {
    /// Decodes the profile and prepares batched emission.
    pub fn from_bytes(bytes: &[u8], app: AppId, batch_size: usize) -> TraceResult<Self> {
        let text = std::str::from_utf8(bytes).map_err(|e| {
            TraceError::malformed("TMIO JSON profile is not valid UTF-8", e.valid_up_to())
        })?;
        let profile = decode_json(text)?;
        Ok(TmioJsonSource {
            inner: MemorySource::from_requests(app, profile.requests, batch_size),
        })
    }
}

impl TraceSource for TmioJsonSource {
    fn app_id(&self) -> AppId {
        self.inner.app_id()
    }

    fn next_batch(&mut self) -> TraceResult<Option<TraceBatch>> {
        self.inner.next_batch()
    }
}

/// Streaming source over a TMIO-native MessagePack profile (see
/// [`TmioJsonSource`] for why it materialises first).
pub struct TmioMsgpackSource {
    inner: MemorySource,
}

impl TmioMsgpackSource {
    /// Decodes the profile and prepares batched emission.
    pub fn from_bytes(bytes: &[u8], app: AppId, batch_size: usize) -> TraceResult<Self> {
        let profile = decode_msgpack(bytes)?;
        Ok(TmioMsgpackSource {
            inner: MemorySource::from_requests(app, profile.requests, batch_size),
        })
    }
}

impl TraceSource for TmioMsgpackSource {
    fn app_id(&self) -> AppId {
        self.inner.app_id()
    }

    fn next_batch(&mut self) -> TraceResult<Option<TraceBatch>> {
        self.inner.next_batch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::drain_requests;

    fn sample_requests() -> Vec<IoRequest> {
        vec![
            IoRequest::write(0, 0.0, 1.0, 1_048_576),
            IoRequest::write(1, 10.0, 10.5, 2_097_152),
            IoRequest::read(2, 20.0, 21.0, 4096),
            IoRequest {
                rank: 3,
                start: 30.0,
                end: 30.25,
                bytes: 1 << 20,
                kind: IoKind::Write,
                api: IoApi::Async,
            },
        ]
    }

    fn assert_requests_close(got: &[IoRequest], expected: &[IoRequest]) {
        assert_eq!(got.len(), expected.len());
        // Encoding groups by section, so compare as multisets keyed by start.
        let mut got: Vec<&IoRequest> = got.iter().collect();
        let mut expected: Vec<&IoRequest> = expected.iter().collect();
        got.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        expected.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        for (g, e) in got.iter().zip(&expected) {
            assert_eq!(g.rank, e.rank);
            assert_eq!(g.start, e.start);
            assert_eq!(g.end, e.end);
            assert_eq!(
                g.bytes, e.bytes,
                "volume must survive the bandwidth encoding"
            );
            assert_eq!(g.kind, e.kind);
        }
    }

    #[test]
    fn ranks_beyond_u64_are_out_of_range() {
        let profile = |rank: &str| {
            format!(
                r#"{{"write_sync": {{"b_rank_avr": [1.0], "t_rank_s": [0.0],
                    "t_rank_e": [1.0], "ranks": [{rank}]}}}}"#
            )
        };
        let err = decode_json(&profile("1e30")).unwrap_err().to_string();
        assert!(err.contains("out of range"), "{err}");
        // The largest `f64` below 2^64 is still a rank, and counting it
        // does not overflow.
        let largest = decode_json(&profile("18446744073709549568")).unwrap();
        assert_eq!(largest.ranks, 18_446_744_073_709_549_569);
    }

    #[test]
    fn json_profile_round_trips() {
        let requests = sample_requests();
        let text = encode_json(4, &requests);
        let profile = decode_json(&text).unwrap();
        assert_eq!(profile.ranks, 4);
        assert_requests_close(&profile.requests, &requests);
    }

    #[test]
    fn msgpack_profile_round_trips() {
        let requests = sample_requests();
        let packed = encode_msgpack(4, &requests);
        let profile = decode_msgpack(&packed).unwrap();
        assert_eq!(profile.ranks, 4);
        assert_requests_close(&profile.requests, &requests);
    }

    #[test]
    fn sources_stream_the_same_requests() {
        let requests = sample_requests();
        let text = encode_json(4, &requests);
        let mut source = TmioJsonSource::from_bytes(text.as_bytes(), AppId::new(1), 2).unwrap();
        let streamed = drain_requests(&mut source).unwrap();
        assert_requests_close(&streamed, &requests);

        let packed = encode_msgpack(4, &requests);
        let mut source = TmioMsgpackSource::from_bytes(&packed, AppId::new(1), 3).unwrap();
        let streamed = drain_requests(&mut source).unwrap();
        assert_requests_close(&streamed, &requests);
    }

    #[test]
    fn unknown_sections_and_counters_are_skipped() {
        let text = r#"{
            "ranks": 2,
            "io_time": {"total": 12.5},
            "write_sync": {
                "number_of_ranks": 2,
                "total_bytes": 100,
                "bandwidth": {
                    "b_rank_avr": [100.0],
                    "t_rank_s": [0.0],
                    "t_rank_e": [1.0],
                    "b_rank_sum": [200.0]
                }
            }
        }"#;
        let profile = decode_json(text).unwrap();
        assert_eq!(profile.requests.len(), 1);
        assert_eq!(profile.requests[0].bytes, 100);
        assert_eq!(profile.requests[0].rank, 0, "ranks array absent -> rank 0");
    }

    #[test]
    fn mismatched_array_lengths_are_rejected() {
        let text = r#"{"write_sync": {"bandwidth": {
            "b_rank_avr": [1.0, 2.0], "t_rank_s": [0.0], "t_rank_e": [1.0]
        }}}"#;
        let err = decode_json(text).unwrap_err().to_string();
        assert!(err.contains("disagree in length"), "{err}");
    }

    #[test]
    fn invalid_timestamps_and_bandwidths_are_rejected() {
        for (arrays, needle) in [
            (
                r#""b_rank_avr": [1.0], "t_rank_s": [5.0], "t_rank_e": [1.0]"#,
                "invalid interval",
            ),
            (
                r#""b_rank_avr": [-1.0], "t_rank_s": [0.0], "t_rank_e": [1.0]"#,
                "bandwidth",
            ),
            (
                r#""b_rank_avr": [1.0], "t_rank_s": [-2.0], "t_rank_e": [1.0]"#,
                "invalid interval",
            ),
        ] {
            let text = format!(r#"{{"write_sync": {{"bandwidth": {{{arrays}}}}}}}"#);
            let err = decode_json(&text).unwrap_err().to_string();
            assert!(err.contains(needle), "{arrays} -> {err}");
        }
    }

    #[test]
    fn profiles_without_known_sections_are_rejected() {
        let err = decode_json(r#"{"ranks": 4}"#).unwrap_err().to_string();
        assert!(err.contains("none of the known sections"), "{err}");
        let mut packed = Vec::new();
        msgpack::write_map_header(&mut packed, 1);
        msgpack::write_str(&mut packed, "ranks");
        msgpack::write_uint(&mut packed, 4);
        let err = decode_msgpack(&packed).unwrap_err().to_string();
        assert!(err.contains("none of the known sections"), "{err}");
    }

    #[test]
    fn json_syntax_errors_carry_byte_offsets() {
        let cases = [
            ("{\"a\": }", "unexpected character"),
            ("{\"a\": 1,}", "expected"),
            ("{\"a\": nulL}", "literal"),
            ("[1, 2", "unexpected end"),
            ("{\"a\": 1} trailing", "trailing data"),
        ];
        for (text, needle) in cases {
            let err = JsonParser::new(text)
                .parse_document()
                .unwrap_err()
                .to_string();
            assert!(err.contains(needle), "`{text}` -> {err}");
        }
    }

    #[test]
    fn truncated_msgpack_profile_reports_eof() {
        let packed = encode_msgpack(2, &sample_requests());
        let err = decode_msgpack(&packed[..packed.len() - 4]).unwrap_err();
        assert!(matches!(err, TraceError::UnexpectedEof));
    }
}

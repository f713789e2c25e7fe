//! JSON Lines trace format.
//!
//! TMIO's online mode appends one JSON object per flushed request to a trace
//! file (paper §II-A: "JSON Lines or MessagePack"). This module implements the
//! same idea with a small, hand-written encoder and parser — one request per
//! line, no external JSON dependency. Lines look like:
//!
//! ```text
//! {"rank":3,"start":1.25,"end":1.75,"bytes":1048576,"kind":"write","api":"sync"}
//! ```
//!
//! The parser is deliberately forgiving about key order and whitespace but
//! strict about required fields, and skips blank lines.
//!
//! Every JSONL consumer (`ftio detect`, `replay` and `watch`, and `ftio
//! serve`'s `Data` frames) decodes through [`decode_request`], so it
//! allocates nothing for a well-formed line: one pass over the borrowed line
//! matches keys in place against the six request fields, parses numbers from
//! slices of it, and copies a string only when it holds an escape. Building a
//! `String` per key and per number instead made decoding the dominant stage
//! of both paths on a 2-core x86-64 VM: 87 % of loading a 22,400-line trace
//! and 68 % of a served flush's work (measurements in EXPERIMENTS.md).

use std::borrow::Cow;

use crate::errors::{TraceError, TraceResult};
use crate::request::{IoApi, IoKind, IoRequest};

/// Encodes a single request as one JSON line (without the trailing newline).
pub fn encode_request(r: &IoRequest) -> String {
    format!(
        "{{\"rank\":{},\"start\":{},\"end\":{},\"bytes\":{},\"kind\":\"{}\",\"api\":\"{}\"}}",
        r.rank,
        fmt_f64(r.start),
        fmt_f64(r.end),
        r.bytes,
        r.kind.as_str(),
        r.api.as_str()
    )
}

/// Encodes a batch of requests as a JSON Lines document (one line per request,
/// each terminated by `\n`).
pub fn encode_requests(requests: &[IoRequest]) -> String {
    let mut out = String::new();
    for r in requests {
        out.push_str(&encode_request(r));
        out.push('\n');
    }
    out
}

/// Parses one JSON line into a request.
pub fn decode_request(line: &str, line_number: usize) -> TraceResult<IoRequest> {
    let [rank, start, end, bytes, kind, api] = parse_fields(line, line_number)?;
    let missing = |key: &str| TraceError::malformed(format!("missing field `{key}`"), line_number);

    // Integer fields: a malformed or out-of-range value is an error that
    // names the line, never a silently rounded or saturated count.
    let integer = |value: Option<JsonValue<'_>>, key: &'static str| -> TraceResult<u64> {
        value
            .ok_or_else(|| missing(key))?
            .as_u64()
            .map_err(|reason| TraceError::invalid(key, reason).with_context(line_number, line))
    };
    let rank = integer(rank, "rank")?;
    let start = start
        .ok_or_else(|| missing("start"))?
        .as_f64()
        .ok_or_else(|| TraceError::invalid("start", "not a number"))?;
    let end = end
        .ok_or_else(|| missing("end"))?
        .as_f64()
        .ok_or_else(|| TraceError::invalid("end", "not a number"))?;
    let bytes = integer(bytes, "bytes")?;
    let kind_str = kind
        .ok_or_else(|| missing("kind"))?
        .into_str()
        .ok_or_else(|| TraceError::invalid("kind", "not a string"))?;
    let kind = IoKind::parse(&kind_str)
        .ok_or_else(|| TraceError::invalid("kind", format!("unknown kind `{kind_str}`")))?;
    // `api` is optional; default to sync.
    let api = match api {
        Some(v) => {
            let s = v
                .into_str()
                .ok_or_else(|| TraceError::invalid("api", "not a string"))?;
            IoApi::parse(&s)
                .ok_or_else(|| TraceError::invalid("api", format!("unknown api `{s}`")))?
        }
        None => IoApi::Sync,
    };

    Ok(IoRequest {
        rank: rank as usize,
        start,
        end,
        bytes,
        kind,
        api,
    })
}

/// Parses a whole JSON Lines document — a thin adapter that drains the
/// streaming [`crate::source::JsonlSource`], so whole-file decoding and
/// chunked ingestion share one code path. Blank lines are skipped; the first
/// malformed line aborts with an error naming its line number and quoting the
/// offending input.
pub fn decode_requests(text: &str) -> TraceResult<Vec<IoRequest>> {
    let mut source = crate::source::JsonlSource::new(
        text.as_bytes(),
        crate::app_id::AppId::from_name("jsonl"),
        crate::source::DEFAULT_BATCH_SIZE,
    );
    crate::source::drain_requests(&mut source)
}

/// Formats an `f64` so it parses back exactly and never uses exponent notation
/// for the magnitudes that occur in traces.
fn fmt_f64(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e15 {
        format!("{:.1}", x)
    } else {
        format!("{x}")
    }
}

/// 2^64, the first integer a `u64` cannot hold.
pub(crate) const U64_END: f64 = 18_446_744_073_709_551_616.0;

/// A scalar JSON value as found in flat trace records, borrowing from its line.
#[derive(Clone, Debug, PartialEq)]
enum JsonValue<'a> {
    /// A number, with its exact value when the token is an integer (no `.`,
    /// `e` or `E`) that fits `u64`: an `f64` holds integers exactly only up
    /// to 2^53.
    Number {
        value: f64,
        exact: Option<u64>,
    },
    /// A string, copied out of the line only when it holds an escape.
    String(Cow<'a, str>),
    Bool(bool),
    Null,
}

impl<'a> JsonValue<'a> {
    fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// The value as an unsigned integer: integer tokens exactly, integer-valued
    /// float spellings (`1e3`, `7.0`) through their `f64` value.
    fn as_u64(&self) -> Result<u64, &'static str> {
        match *self {
            JsonValue::Number { exact: Some(n), .. } => Ok(n),
            JsonValue::Number { value, .. } if value >= 0.0 && value.fract() == 0.0 => {
                if value < U64_END {
                    Ok(value as u64)
                } else {
                    Err("out of range for an unsigned 64-bit integer")
                }
            }
            _ => Err("not an integer"),
        }
    }

    fn into_str(self) -> Option<Cow<'a, str>> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }
}

/// Parses a flat (non-nested) JSON object in one pass, keeping the first
/// value of each request field in the order [`decode_request`] destructures
/// them. Values of other keys are parsed, so they must be well-formed, and
/// then dropped.
fn parse_fields(line: &str, line_number: usize) -> TraceResult<[Option<JsonValue<'_>>; 6]> {
    const KEYS: [&str; 6] = ["rank", "start", "end", "bytes", "kind", "api"];
    let mut fields: [Option<JsonValue<'_>>; 6] = Default::default();
    let mut cursor = Cursor {
        text: line.trim(),
        pos: 0,
        line_number,
    };

    cursor.expect('{')?;
    cursor.skip_ws();
    if cursor.peek() == Some('}') {
        return Ok(fields);
    }
    loop {
        cursor.skip_ws();
        let key = cursor.string()?;
        cursor.skip_ws();
        cursor.expect(':')?;
        cursor.skip_ws();
        let value = cursor.value()?;
        if let Some(slot) = KEYS.iter().position(|&k| key == k) {
            fields[slot].get_or_insert(value);
        }
        cursor.skip_ws();
        match cursor.next() {
            Some(',') => continue,
            Some('}') => return Ok(fields),
            Some(c) => {
                return Err(TraceError::malformed(
                    format!("expected `,` or `}}`, found `{c}`"),
                    line_number,
                ))
            }
            None => return Err(TraceError::UnexpectedEof),
        }
    }
}

/// A read position in one line; every token it returns is a slice of it.
struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    line_number: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<char> {
        self.text[self.pos..].chars().next()
    }

    fn next(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(char::is_whitespace) {
            self.next();
        }
    }

    /// Advances over the bytes `accept` admits. `accept` must treat every
    /// byte of a multi-byte char alike, so the slice ends on a char boundary.
    fn take_while(&mut self, accept: impl Fn(u8) -> bool) -> &'a str {
        let start = self.pos;
        let bytes = self.text.as_bytes();
        while self.pos < bytes.len() && accept(bytes[self.pos]) {
            self.pos += 1;
        }
        &self.text[start..self.pos]
    }

    fn expect(&mut self, expected: char) -> TraceResult<()> {
        match self.next() {
            Some(c) if c == expected => Ok(()),
            Some(c) => Err(TraceError::malformed(
                format!("expected `{expected}`, found `{c}`"),
                self.line_number,
            )),
            None => Err(TraceError::UnexpectedEof),
        }
    }

    /// A string token: borrowed from the line unless it holds an escape.
    fn string(&mut self) -> TraceResult<Cow<'a, str>> {
        self.expect('"')?;
        let plain = self.take_while(|b| b != b'"' && b != b'\\');
        if self.peek() == Some('"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(plain));
        }
        let mut s = plain.to_string();
        loop {
            match self.next() {
                Some('"') => return Ok(Cow::Owned(s)),
                Some('\\') => match self.next() {
                    Some('n') => s.push('\n'),
                    Some('t') => s.push('\t'),
                    Some(c) => s.push(c),
                    None => return Err(TraceError::UnexpectedEof),
                },
                Some(c) => s.push(c),
                None => return Err(TraceError::UnexpectedEof),
            }
        }
    }

    fn value(&mut self) -> TraceResult<JsonValue<'a>> {
        match self.peek() {
            Some('"') => Ok(JsonValue::String(self.string()?)),
            Some('t' | 'f' | 'n') => match self.take_while(|b| b.is_ascii_alphabetic()) {
                "true" => Ok(JsonValue::Bool(true)),
                "false" => Ok(JsonValue::Bool(false)),
                "null" => Ok(JsonValue::Null),
                other => Err(TraceError::malformed(
                    format!("unknown literal `{other}`"),
                    self.line_number,
                )),
            },
            Some(c) if c.is_ascii_digit() || c == '-' || c == '+' => {
                let num = self.take_while(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                });
                let exact = if num.contains(['.', 'e', 'E']) {
                    None
                } else {
                    num.parse::<u64>().ok()
                };
                let value = match exact {
                    Some(n) => n as f64,
                    None => num.parse::<f64>().map_err(|_| {
                        TraceError::malformed(format!("invalid number `{num}`"), self.line_number)
                    })?,
                };
                Ok(JsonValue::Number { value, exact })
            }
            Some(c) => Err(TraceError::malformed(
                format!("unexpected character `{c}`"),
                self.line_number,
            )),
            None => Err(TraceError::UnexpectedEof),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_single_request() {
        let r = IoRequest::write(7, 1.25, 2.5, 1_048_576);
        let line = encode_request(&r);
        let back = decode_request(&line, 1).unwrap();
        assert_eq!(back, r);
    }

    #[test]
    fn roundtrip_many_requests() {
        let requests: Vec<IoRequest> = (0..50)
            .map(|i| {
                if i % 2 == 0 {
                    IoRequest::write(i, i as f64 * 0.5, i as f64 * 0.5 + 0.1, 1000 + i as u64)
                } else {
                    IoRequest::read(i, i as f64, i as f64 + 1.0, 42)
                }
            })
            .collect();
        let doc = encode_requests(&requests);
        assert_eq!(doc.lines().count(), 50);
        let back = decode_requests(&doc).unwrap();
        assert_eq!(back, requests);
    }

    #[test]
    fn decoder_accepts_whitespace_and_reordered_keys() {
        let line = r#" { "bytes": 10 , "kind" : "read", "end": 2.0, "start": 1.0, "rank": 4 } "#;
        let r = decode_request(line.trim(), 1).unwrap();
        assert_eq!(r.rank, 4);
        assert_eq!(r.kind, IoKind::Read);
        assert_eq!(r.api, IoApi::Sync);
        assert_eq!(r.bytes, 10);
        // The first occurrence of a key wins, keys spelled with escapes too.
        let line = r#"{"r\ank":5,"rank":"x","start":1.0,"end":2.0,"bytes":1,"kind":"wr\ite"}"#;
        assert_eq!(decode_request(line, 1).unwrap().rank, 5);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let doc = format!(
            "\n{}\n\n{}\n",
            encode_request(&IoRequest::write(0, 0.0, 1.0, 1)),
            encode_request(&IoRequest::write(1, 1.0, 2.0, 2))
        );
        let back = decode_requests(&doc).unwrap();
        assert_eq!(back.len(), 2);
    }

    #[test]
    fn missing_field_is_an_error() {
        let line = r#"{"rank":1,"start":0.0,"end":1.0,"kind":"write"}"#;
        let err = decode_request(line, 3).unwrap_err();
        assert!(err.to_string().contains("bytes"));
        assert!(err.to_string().contains("position 3"));
    }

    #[test]
    fn invalid_kind_is_an_error() {
        let line = r#"{"rank":1,"start":0.0,"end":1.0,"bytes":5,"kind":"scribble"}"#;
        let err = decode_request(line, 1).unwrap_err();
        assert!(err.to_string().contains("kind"));
    }

    #[test]
    fn negative_bytes_is_an_error() {
        let line = r#"{"rank":1,"start":0.0,"end":1.0,"bytes":-5,"kind":"write"}"#;
        assert!(decode_request(line, 1).is_err());
    }

    #[test]
    fn garbage_line_reports_its_line_number() {
        let doc = format!(
            "{}\nnot json at all\n",
            encode_request(&IoRequest::write(0, 0.0, 1.0, 1))
        );
        let err = decode_requests(&doc).unwrap_err();
        assert!(err.to_string().contains("position 2"));
    }

    #[test]
    fn scientific_notation_and_fractions_parse() {
        let line =
            r#"{"rank":0,"start":1.5e2,"end":151.25,"bytes":1000000,"kind":"write","api":"async"}"#;
        let r = decode_request(line, 1).unwrap();
        assert_eq!(r.start, 150.0);
        assert_eq!(r.end, 151.25);
        assert_eq!(r.api, IoApi::Async);
    }

    #[test]
    fn float_formatting_round_trips_integers_and_fractions() {
        for &x in &[0.0, 1.0, 1.5, 123456.789, 0.0001, 781.3] {
            let s = fmt_f64(x);
            assert_eq!(s.parse::<f64>().unwrap(), x, "formatting {x} as {s}");
        }
    }

    #[test]
    fn integers_above_2_pow_53_decode_exactly() {
        let requests = vec![
            IoRequest::write(usize::MAX - 1, 1.0, 2.0, (1 << 53) + 1),
            IoRequest::read(3, 2.0, 3.0, u64::MAX),
        ];
        let doc = encode_requests(&requests);
        assert_eq!(decode_requests(&doc).unwrap(), requests);
        // The streaming source, two lines per batch.
        let mut source = crate::source::JsonlSource::new(
            doc.as_bytes(),
            crate::app_id::AppId::from_name("big"),
            2,
        );
        assert_eq!(
            crate::source::drain_requests(&mut source).unwrap(),
            requests
        );
        // Integer-valued float spellings keep their `f64` value.
        let line = r#"{"rank":2.0,"start":0.0,"end":1.0,"bytes":1e3,"kind":"write"}"#;
        let r = decode_request(line, 1).unwrap();
        assert_eq!((r.rank, r.bytes), (2, 1000));
    }

    #[test]
    fn out_of_range_integers_are_positioned_errors() {
        for line in [
            r#"{"rank":1e30,"start":0.0,"end":1.0,"bytes":5,"kind":"write"}"#,
            r#"{"rank":18446744073709551616,"start":0.0,"end":1.0,"bytes":5,"kind":"write"}"#,
            r#"{"rank":0,"start":0.0,"end":1.0,"bytes":1.8446744073709552e19,"kind":"write"}"#,
        ] {
            let err = decode_request(line, 4).unwrap_err().to_string();
            assert!(err.contains("out of range"), "{err}");
            assert!(err.contains("position 4"), "{err}");
            let doc = format!(
                "{}\n{line}\n",
                encode_request(&IoRequest::write(0, 0.0, 1.0, 1))
            );
            let err = decode_requests(&doc).unwrap_err().to_string();
            assert!(err.contains("position 2"), "{err}");
        }
    }

    #[test]
    fn empty_document_decodes_to_empty_vec() {
        assert!(decode_requests("").unwrap().is_empty());
        assert!(decode_requests("\n\n").unwrap().is_empty());
    }

    /// Whitespace, ASCII and Unicode, that re-spelled lines put around tokens.
    const SPACES: [&str; 6] = ["", " ", "\t", "  ", "\u{a0}", "\u{b}"];

    /// A request whose integers sit on the edges of exact decoding (0,
    /// 2^53 ± 1, `u64::MAX`) and whose times run from subnormal up to 1e15.
    fn edge_request(rng: &mut StdRng) -> IoRequest {
        let integer = |rng: &mut StdRng| match rng.gen_range(0..6) {
            0 => 0,
            1 => (1u64 << 53) - 1,
            2 => (1u64 << 53) + 1,
            3 => u64::MAX,
            _ => rng.gen_range(1u64..10_000_000),
        };
        let rank = integer(rng) as usize;
        let bytes = integer(rng);
        let time = |rng: &mut StdRng| match rng.gen_range(0..4) {
            0 => f64::from_bits(rng.gen_range(1u64..1 << 52)),
            1 => rng.gen_range(0u64..100_000) as f64,
            2 => rng.gen_range(0.0..1e15),
            _ => rng.gen::<f64>() * 10f64.powi(rng.gen_range(-300..15)),
        };
        IoRequest {
            rank,
            start: time(rng),
            end: time(rng),
            bytes,
            kind: if rng.gen_bool(0.5) {
                IoKind::Write
            } else {
                IoKind::Read
            },
            api: [IoApi::Sync, IoApi::Async, IoApi::Posix][rng.gen_range(0..3)],
        }
    }

    /// `r` as a JSON object with some of: reordered, duplicated and unknown
    /// keys, ASCII and Unicode whitespace, escaped strings and keys, `true`
    /// and `null` values, `7.0`/`1e3`/`-0` integers, and no `api`.
    fn respelled(r: &IoRequest, rng: &mut StdRng) -> String {
        let mut pairs: Vec<(String, String)> = vec![
            ("rank".into(), r.rank.to_string()),
            ("start".into(), format!("{:?}", r.start)),
            ("end".into(), format!("{:e}", r.end)),
            ("bytes".into(), r.bytes.to_string()),
            ("kind".into(), format!("\"{}\"", r.kind.as_str())),
            ("api".into(), format!("\"{}\"", r.api.as_str())),
        ];
        for _ in 0..rng.gen_range(0..3) {
            let i = rng.gen_range(0..pairs.len());
            let value = match rng.gen_range(0..8) {
                0 => "true".to_string(),
                1 => "null".to_string(),
                2 => "7.0".to_string(),
                3 => "1e3".to_string(),
                4 => "\"w\\rite\"".to_string(),
                5 => "\"\\u0072ead\"".to_string(),
                6 => format!("\"{}\\\"\"", pairs[i].0),
                _ => "-0".to_string(),
            };
            if rng.gen_bool(0.5) {
                pairs[i].1 = value;
            } else {
                let duplicate = (pairs[i].0.clone(), value);
                pairs.insert(rng.gen_range(0..=pairs.len()), duplicate);
            }
        }
        if rng.gen_bool(0.3) {
            let unknown = ("note".into(), "\"h\\u00e9 \\\\ ok\"".into());
            pairs.insert(rng.gen_range(0..=pairs.len()), unknown);
        }
        if rng.gen_bool(0.3) {
            pairs.retain(|(k, _)| k != "api");
        }
        if rng.gen_bool(0.5) {
            for i in (1..pairs.len()).rev() {
                pairs.swap(i, rng.gen_range(0..=i));
            }
        }
        if rng.gen_bool(0.2) {
            let i = rng.gen_range(0..pairs.len());
            pairs[i].0 = pairs[i].0.replacen('a', "\\a", 1);
        }
        let space = |rng: &mut StdRng| SPACES[rng.gen_range(0..SPACES.len())];
        let mut out = format!("{}{{", space(rng));
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (a, b, c, d) = (space(rng), space(rng), space(rng), space(rng));
            out.push_str(&format!("{a}\"{k}\"{b}:{c}{v}{d}"));
        }
        out.push('}');
        out.push_str(space(rng));
        out
    }

    /// `line` after one to three seeded char-level edits: a truncation, a
    /// deletion, or an insertion or replacement with a character the
    /// grammar cares about.
    fn mutated(line: &str, rng: &mut StdRng) -> String {
        const INSERTS: [char; 9] = ['"', '\\', ',', '}', '{', '7', ':', 'é', '€'];
        let mut chars: Vec<char> = line.chars().collect();
        for _ in 0..rng.gen_range(1..4) {
            let at = rng.gen_range(0..=chars.len());
            let c = INSERTS[rng.gen_range(0..INSERTS.len())];
            match rng.gen_range(0..4) {
                0 => chars.truncate(at),
                1 if at < chars.len() => {
                    chars.remove(at);
                }
                2 if at < chars.len() => chars[at] = c,
                _ => chars.insert(at, c),
            }
        }
        chars.into_iter().collect()
    }

    /// The in-place parser decodes every line exactly as the char-iterator
    /// parser it replaced: the same request, `f64`s compared by bits, or an
    /// error with the same message.
    #[test]
    fn decoder_matches_the_reference_parser() {
        let mut rng = StdRng::seed_from_u64(0x0a50_c0de);
        let (mut decoded, mut rejected) = (0, 0);
        for i in 0..6_000 {
            let request = edge_request(&mut rng);
            let line = match i % 3 {
                0 => encode_request(&request),
                1 => respelled(&request, &mut rng),
                _ => mutated(&encode_request(&request), &mut rng),
            };
            match (
                decode_request(&line, i),
                reference::decode_request(&line, i),
            ) {
                (Ok(new), Ok(old)) => {
                    let bits = |r: &IoRequest| (r.start.to_bits(), r.end.to_bits());
                    assert_eq!((new, bits(&new)), (old, bits(&old)), "{line}");
                    decoded += 1;
                }
                (Err(new), Err(old)) => {
                    assert_eq!(new.to_string(), old.to_string(), "{line}");
                    rejected += 1;
                }
                (new, old) => panic!("{line}: {new:?} but the reference gives {old:?}"),
            }
        }
        assert!(
            decoded > 2_500 && rejected > 1_000,
            "{decoded} / {rejected}"
        );
    }

    /// The char-iterator parser `decode_request` used before it parsed in
    /// place, kept verbatim as the reference for the equivalence test.
    mod reference {
        use crate::errors::{TraceError, TraceResult};
        use crate::request::{IoApi, IoKind, IoRequest};

        /// Parses one JSON line into a request.
        pub fn decode_request(line: &str, line_number: usize) -> TraceResult<IoRequest> {
            let fields = parse_flat_object(line, line_number)?;
            let get = |key: &str| -> TraceResult<&JsonValue> {
                fields
                    .iter()
                    .find(|(k, _)| k == key)
                    .map(|(_, v)| v)
                    .ok_or_else(|| {
                        TraceError::malformed(format!("missing field `{key}`"), line_number)
                    })
            };

            // Integer fields: a malformed or out-of-range value is an error that
            // names the line, never a silently rounded or saturated count.
            let integer = |key: &'static str| -> TraceResult<u64> {
                get(key)?.as_u64().map_err(|reason| {
                    TraceError::invalid(key, reason).with_context(line_number, line)
                })
            };
            let rank = integer("rank")?;
            let start = get("start")?
                .as_f64()
                .ok_or_else(|| TraceError::invalid("start", "not a number"))?;
            let end = get("end")?
                .as_f64()
                .ok_or_else(|| TraceError::invalid("end", "not a number"))?;
            let bytes = integer("bytes")?;
            let kind_str = get("kind")?
                .as_str()
                .ok_or_else(|| TraceError::invalid("kind", "not a string"))?;
            let kind = IoKind::parse(kind_str)
                .ok_or_else(|| TraceError::invalid("kind", format!("unknown kind `{kind_str}`")))?;
            // `api` is optional; default to sync.
            let api = match fields.iter().find(|(k, _)| k == "api") {
                Some((_, v)) => {
                    let s = v
                        .as_str()
                        .ok_or_else(|| TraceError::invalid("api", "not a string"))?;
                    IoApi::parse(s)
                        .ok_or_else(|| TraceError::invalid("api", format!("unknown api `{s}`")))?
                }
                None => IoApi::Sync,
            };

            Ok(IoRequest {
                rank: rank as usize,
                start,
                end,
                bytes,
                kind,
                api,
            })
        }

        /// A scalar JSON value as found in flat trace records.
        #[derive(Clone, Debug, PartialEq)]
        enum JsonValue {
            /// A number, with its exact value when the token is an integer (no `.`,
            /// `e` or `E`) that fits `u64`: an `f64` holds integers exactly only up
            /// to 2^53.
            Number {
                value: f64,
                exact: Option<u64>,
            },
            String(String),
            Bool(bool),
            Null,
        }

        impl JsonValue {
            fn as_f64(&self) -> Option<f64> {
                match self {
                    JsonValue::Number { value, .. } => Some(*value),
                    _ => None,
                }
            }

            /// The value as an unsigned integer: integer tokens exactly, integer-valued
            /// float spellings (`1e3`, `7.0`) through their `f64` value.
            fn as_u64(&self) -> Result<u64, &'static str> {
                /// 2^64, the first integer a `u64` cannot hold.
                const U64_END: f64 = 18_446_744_073_709_551_616.0;
                match *self {
                    JsonValue::Number { exact: Some(n), .. } => Ok(n),
                    JsonValue::Number { value, .. } if value >= 0.0 && value.fract() == 0.0 => {
                        if value < U64_END {
                            Ok(value as u64)
                        } else {
                            Err("out of range for an unsigned 64-bit integer")
                        }
                    }
                    _ => Err("not an integer"),
                }
            }

            fn as_str(&self) -> Option<&str> {
                match self {
                    JsonValue::String(s) => Some(s),
                    _ => None,
                }
            }
        }

        /// Parses a flat (non-nested) JSON object into key/value pairs.
        fn parse_flat_object(
            line: &str,
            line_number: usize,
        ) -> TraceResult<Vec<(String, JsonValue)>> {
            let mut chars = line.trim().chars().peekable();
            let mut pairs = Vec::new();

            expect_char(&mut chars, '{', line_number)?;
            skip_ws(&mut chars);
            if chars.peek() == Some(&'}') {
                return Ok(pairs);
            }
            loop {
                skip_ws(&mut chars);
                let key = parse_string(&mut chars, line_number)?;
                skip_ws(&mut chars);
                expect_char(&mut chars, ':', line_number)?;
                skip_ws(&mut chars);
                let value = parse_value(&mut chars, line_number)?;
                pairs.push((key, value));
                skip_ws(&mut chars);
                match chars.next() {
                    Some(',') => continue,
                    Some('}') => break,
                    Some(c) => {
                        return Err(TraceError::malformed(
                            format!("expected `,` or `}}`, found `{c}`"),
                            line_number,
                        ))
                    }
                    None => return Err(TraceError::UnexpectedEof),
                }
            }
            Ok(pairs)
        }

        fn skip_ws(chars: &mut std::iter::Peekable<std::str::Chars<'_>>) {
            while matches!(chars.peek(), Some(c) if c.is_whitespace()) {
                chars.next();
            }
        }

        fn expect_char(
            chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
            expected: char,
            line_number: usize,
        ) -> TraceResult<()> {
            match chars.next() {
                Some(c) if c == expected => Ok(()),
                Some(c) => Err(TraceError::malformed(
                    format!("expected `{expected}`, found `{c}`"),
                    line_number,
                )),
                None => Err(TraceError::UnexpectedEof),
            }
        }

        fn parse_string(
            chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
            line_number: usize,
        ) -> TraceResult<String> {
            expect_char(chars, '"', line_number)?;
            let mut s = String::new();
            loop {
                match chars.next() {
                    Some('"') => return Ok(s),
                    Some('\\') => match chars.next() {
                        Some('"') => s.push('"'),
                        Some('\\') => s.push('\\'),
                        Some('n') => s.push('\n'),
                        Some('t') => s.push('\t'),
                        Some(c) => s.push(c),
                        None => return Err(TraceError::UnexpectedEof),
                    },
                    Some(c) => s.push(c),
                    None => return Err(TraceError::UnexpectedEof),
                }
            }
        }

        fn parse_value(
            chars: &mut std::iter::Peekable<std::str::Chars<'_>>,
            line_number: usize,
        ) -> TraceResult<JsonValue> {
            match chars.peek() {
                Some('"') => Ok(JsonValue::String(parse_string(chars, line_number)?)),
                Some('t') | Some('f') | Some('n') => {
                    let mut word = String::new();
                    while matches!(chars.peek(), Some(c) if c.is_ascii_alphabetic()) {
                        word.push(chars.next().unwrap());
                    }
                    match word.as_str() {
                        "true" => Ok(JsonValue::Bool(true)),
                        "false" => Ok(JsonValue::Bool(false)),
                        "null" => Ok(JsonValue::Null),
                        other => Err(TraceError::malformed(
                            format!("unknown literal `{other}`"),
                            line_number,
                        )),
                    }
                }
                Some(c) if c.is_ascii_digit() || *c == '-' || *c == '+' => {
                    let mut num = String::new();
                    while matches!(chars.peek(), Some(c) if c.is_ascii_digit() || matches!(c, '-' | '+' | '.' | 'e' | 'E'))
                    {
                        num.push(chars.next().unwrap());
                    }
                    let exact = if num.contains(['.', 'e', 'E']) {
                        None
                    } else {
                        num.parse::<u64>().ok()
                    };
                    let value = match exact {
                        Some(n) => n as f64,
                        None => num.parse::<f64>().map_err(|_| {
                            TraceError::malformed(format!("invalid number `{num}`"), line_number)
                        })?,
                    };
                    Ok(JsonValue::Number { value, exact })
                }
                Some(c) => Err(TraceError::malformed(
                    format!("unexpected character `{c}`"),
                    line_number,
                )),
                None => Err(TraceError::UnexpectedEof),
            }
        }
    }
}

//! MessagePack-subset binary trace format.
//!
//! TMIO can flush its records either as JSON Lines or as MessagePack (paper
//! §II-A, ref. \[22\]). This module implements the subset of the MessagePack wire
//! format needed to serialise request records compactly: positive integers
//! (fixint / uint8 / uint16 / uint32 / uint64), float64, fixstr, and arrays
//! (fixarray / array16 / array32).
//!
//! A request is encoded as a 6-element array
//! `[rank, start, end, bytes, kind, api]`, and a trace as an array of requests.
//! The encoding is self-describing enough to be read by any MessagePack
//! library, which is what makes the format attractive for the reference tool.
//!
//! The low-level [`Reader`] also understands maps, booleans, nil and float32,
//! which the TMIO-native profile layout ([`crate::tmio`]) is built from, and
//! supports resuming at a saved byte offset ([`Reader::at`]) so the streaming
//! [`crate::source::MsgpackSource`] can decode a trace incrementally; it is
//! the only reader of a request-array document.

use crate::errors::{TraceError, TraceResult};
use crate::request::{IoApi, IoKind, IoRequest};

// --- low-level encoders ----------------------------------------------------

/// Appends a MessagePack unsigned integer using the smallest representation.
pub fn write_uint(out: &mut Vec<u8>, value: u64) {
    match value {
        0..=0x7f => out.push(value as u8),
        0x80..=0xff => {
            out.push(0xcc);
            out.push(value as u8);
        }
        0x100..=0xffff => {
            out.push(0xcd);
            out.extend_from_slice(&(value as u16).to_be_bytes());
        }
        0x1_0000..=0xffff_ffff => {
            out.push(0xce);
            out.extend_from_slice(&(value as u32).to_be_bytes());
        }
        _ => {
            out.push(0xcf);
            out.extend_from_slice(&value.to_be_bytes());
        }
    }
}

/// Appends a MessagePack float64.
pub fn write_f64(out: &mut Vec<u8>, value: f64) {
    out.push(0xcb);
    out.extend_from_slice(&value.to_be_bytes());
}

/// Appends a MessagePack string (fixstr or str8; trace strings are short).
pub fn write_str(out: &mut Vec<u8>, value: &str) {
    let bytes = value.as_bytes();
    if bytes.len() <= 31 {
        out.push(0xa0 | bytes.len() as u8);
    } else {
        assert!(bytes.len() <= 255, "trace strings are expected to be short");
        out.push(0xd9);
        out.push(bytes.len() as u8);
    }
    out.extend_from_slice(bytes);
}

/// Appends a MessagePack array header for `len` elements.
pub fn write_array_header(out: &mut Vec<u8>, len: usize) {
    if len <= 15 {
        out.push(0x90 | len as u8);
    } else if len <= 0xffff {
        out.push(0xdc);
        out.extend_from_slice(&(len as u16).to_be_bytes());
    } else {
        out.push(0xdd);
        out.extend_from_slice(&(len as u32).to_be_bytes());
    }
}

/// Appends a MessagePack map header for `len` key/value pairs.
pub fn write_map_header(out: &mut Vec<u8>, len: usize) {
    if len <= 15 {
        out.push(0x80 | len as u8);
    } else if len <= 0xffff {
        out.push(0xde);
        out.extend_from_slice(&(len as u16).to_be_bytes());
    } else {
        out.push(0xdf);
        out.extend_from_slice(&(len as u32).to_be_bytes());
    }
}

// --- low-level decoder -----------------------------------------------------

/// Streaming reader over a MessagePack byte buffer.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader at the start of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Creates a reader resuming at a saved byte offset (see
    /// [`Reader::position`]) — the streaming source uses this to continue a
    /// partially decoded document across batches.
    pub fn at(data: &'a [u8], pos: usize) -> Self {
        Reader { data, pos }
    }

    /// Current byte offset (useful for error reporting).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Whether all bytes have been consumed.
    pub fn is_at_end(&self) -> bool {
        self.pos >= self.data.len()
    }

    fn take(&mut self, n: usize) -> TraceResult<&'a [u8]> {
        if self.pos + n > self.data.len() {
            return Err(TraceError::UnexpectedEof);
        }
        let slice = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn byte(&mut self) -> TraceResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads an unsigned integer of any MessagePack width.
    pub fn read_uint(&mut self) -> TraceResult<u64> {
        let tag = self.byte()?;
        match tag {
            0x00..=0x7f => Ok(tag as u64),
            0xcc => Ok(self.byte()? as u64),
            0xcd => Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()) as u64),
            0xce => Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()) as u64),
            0xcf => Ok(u64::from_be_bytes(self.take(8)?.try_into().unwrap())),
            _ => Err(TraceError::malformed(
                format!("expected uint, found tag 0x{tag:02x}"),
                self.pos - 1,
            )),
        }
    }

    /// Reads a float64 (also accepts an integer and widens it, which keeps the
    /// format tolerant of encoders that compact whole-number timestamps).
    pub fn read_f64(&mut self) -> TraceResult<f64> {
        let tag = self
            .data
            .get(self.pos)
            .copied()
            .ok_or(TraceError::UnexpectedEof)?;
        if tag == 0xcb {
            self.pos += 1;
            let bytes = self.take(8)?;
            Ok(f64::from_be_bytes(bytes.try_into().unwrap()))
        } else if tag == 0xca {
            self.pos += 1;
            let bytes = self.take(4)?;
            Ok(f32::from_be_bytes(bytes.try_into().unwrap()) as f64)
        } else {
            Ok(self.read_uint()? as f64)
        }
    }

    /// Reads a string.
    pub fn read_str(&mut self) -> TraceResult<String> {
        let tag = self.byte()?;
        let len = match tag {
            0xa0..=0xbf => (tag & 0x1f) as usize,
            0xd9 => self.byte()? as usize,
            _ => {
                return Err(TraceError::malformed(
                    format!("expected string, found tag 0x{tag:02x}"),
                    self.pos - 1,
                ))
            }
        };
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| TraceError::malformed("invalid UTF-8 in string", self.pos))
    }

    /// Reads an array header and returns the element count.
    pub fn read_array_header(&mut self) -> TraceResult<usize> {
        let tag = self.byte()?;
        match tag {
            0x90..=0x9f => Ok((tag & 0x0f) as usize),
            0xdc => Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()) as usize),
            0xdd => Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()) as usize),
            _ => Err(TraceError::malformed(
                format!("expected array, found tag 0x{tag:02x}"),
                self.pos - 1,
            )),
        }
    }

    /// Reads a map header and returns the pair count.
    pub fn read_map_header(&mut self) -> TraceResult<usize> {
        let tag = self.byte()?;
        match tag {
            0x80..=0x8f => Ok((tag & 0x0f) as usize),
            0xde => Ok(u16::from_be_bytes(self.take(2)?.try_into().unwrap()) as usize),
            0xdf => Ok(u32::from_be_bytes(self.take(4)?.try_into().unwrap()) as usize),
            _ => Err(TraceError::malformed(
                format!("expected map, found tag 0x{tag:02x}"),
                self.pos - 1,
            )),
        }
    }

    /// Skips one value of any supported type — how the TMIO profile reader
    /// steps over counters it does not consume.
    pub fn skip_value(&mut self) -> TraceResult<()> {
        let tag = self
            .data
            .get(self.pos)
            .copied()
            .ok_or(TraceError::UnexpectedEof)?;
        match tag {
            // nil / booleans / fixints.
            0xc0 | 0xc2 | 0xc3 | 0x00..=0x7f | 0xe0..=0xff => {
                self.pos += 1;
                Ok(())
            }
            0xcc | 0xd0 => self.take(2).map(|_| ()),
            0xcd | 0xd1 => self.take(3).map(|_| ()),
            0xca | 0xce | 0xd2 => self.take(5).map(|_| ()),
            0xcb | 0xcf | 0xd3 => self.take(9).map(|_| ()),
            0xa0..=0xbf | 0xd9 => self.read_str().map(|_| ()),
            0x90..=0x9f | 0xdc | 0xdd => {
                let len = self.read_array_header()?;
                for _ in 0..len {
                    self.skip_value()?;
                }
                Ok(())
            }
            0x80..=0x8f | 0xde | 0xdf => {
                let len = self.read_map_header()?;
                for _ in 0..len {
                    self.skip_value()?;
                    self.skip_value()?;
                }
                Ok(())
            }
            other => Err(TraceError::malformed(
                format!("cannot skip unsupported MessagePack tag 0x{other:02x}"),
                self.pos,
            )),
        }
    }
}

// --- request-level encoding ------------------------------------------------

/// Encodes one request as a 6-element MessagePack array.
pub fn encode_request(out: &mut Vec<u8>, r: &IoRequest) {
    write_array_header(out, 6);
    write_uint(out, r.rank as u64);
    write_f64(out, r.start);
    write_f64(out, r.end);
    write_uint(out, r.bytes);
    write_str(out, r.kind.as_str());
    write_str(out, r.api.as_str());
}

/// Encodes a batch of requests as a MessagePack array of request arrays.
pub fn encode_requests(requests: &[IoRequest]) -> Vec<u8> {
    let mut out = Vec::with_capacity(requests.len() * 32 + 8);
    write_array_header(&mut out, requests.len());
    for r in requests {
        encode_request(&mut out, r);
    }
    out
}

/// Decodes one request from the reader.
pub fn decode_request(reader: &mut Reader<'_>) -> TraceResult<IoRequest> {
    let len = reader.read_array_header()?;
    if len != 6 {
        return Err(TraceError::malformed(
            format!("request array must have 6 elements, found {len}"),
            reader.position(),
        ));
    }
    let rank = reader.read_uint()? as usize;
    let start = reader.read_f64()?;
    let end = reader.read_f64()?;
    let bytes = reader.read_uint()?;
    let kind_str = reader.read_str()?;
    let api_str = reader.read_str()?;
    let kind = IoKind::parse(&kind_str)
        .ok_or_else(|| TraceError::invalid("kind", format!("unknown kind `{kind_str}`")))?;
    let api = IoApi::parse(&api_str)
        .ok_or_else(|| TraceError::invalid("api", format!("unknown api `{api_str}`")))?;
    Ok(IoRequest {
        rank,
        start,
        end,
        bytes,
        kind,
        api,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes a whole document through [`crate::source::decode_requests`].
    fn decode_requests(data: &[u8]) -> TraceResult<Vec<IoRequest>> {
        crate::source::decode_requests(crate::SourceFormat::Msgpack, data)
    }

    #[test]
    fn uint_widths_round_trip() {
        for &v in &[
            0u64,
            1,
            127,
            128,
            255,
            256,
            65535,
            65536,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write_uint(&mut buf, v);
            let mut r = Reader::new(&buf);
            assert_eq!(r.read_uint().unwrap(), v);
            assert!(r.is_at_end());
        }
    }

    #[test]
    fn uint_encodings_are_minimal() {
        let sizes = [
            (5u64, 1usize),
            (200, 2),
            (60000, 3),
            (100_000, 5),
            (1 << 40, 9),
        ];
        for (v, expected) in sizes {
            let mut buf = Vec::new();
            write_uint(&mut buf, v);
            assert_eq!(buf.len(), expected, "value {v}");
        }
    }

    #[test]
    fn float_and_string_round_trip() {
        let mut buf = Vec::new();
        write_f64(&mut buf, 123.456);
        write_str(&mut buf, "write");
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_f64().unwrap(), 123.456);
        assert_eq!(r.read_str().unwrap(), "write");
    }

    #[test]
    fn long_strings_use_str8() {
        let s = "x".repeat(100);
        let mut buf = Vec::new();
        write_str(&mut buf, &s);
        assert_eq!(buf[0], 0xd9);
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_str().unwrap(), s);
    }

    #[test]
    fn request_round_trip() {
        let req = IoRequest::write(42, 10.5, 11.25, 2_000_000_000);
        let mut buf = Vec::new();
        encode_request(&mut buf, &req);
        let mut r = Reader::new(&buf);
        assert_eq!(decode_request(&mut r).unwrap(), req);
    }

    #[test]
    fn trace_round_trip_with_many_requests() {
        let requests: Vec<IoRequest> = (0..1000)
            .map(|i| {
                IoRequest::write(
                    i % 32,
                    i as f64 * 0.1,
                    i as f64 * 0.1 + 0.05,
                    i as u64 * 512,
                )
            })
            .collect();
        let buf = encode_requests(&requests);
        let back = decode_requests(&buf).unwrap();
        assert_eq!(back, requests);
    }

    #[test]
    fn large_batches_use_array16_header() {
        let requests: Vec<IoRequest> = (0..20).map(|i| IoRequest::read(i, 0.0, 1.0, 1)).collect();
        let buf = encode_requests(&requests);
        assert_eq!(buf[0], 0xdc);
        assert_eq!(decode_requests(&buf).unwrap().len(), 20);
    }

    #[test]
    fn truncated_buffer_reports_offset_and_snippet() {
        let req = IoRequest::write(1, 0.0, 1.0, 100);
        let mut buf = Vec::new();
        write_array_header(&mut buf, 1);
        encode_request(&mut buf, &req);
        buf.truncate(buf.len() - 3);
        let err = decode_requests(&buf).unwrap_err().to_string();
        assert!(err.contains("truncated"), "{err}");
        // The reported offset is where the truncated record begins, and the
        // snippet shows the bytes around it.
        assert!(err.contains("position 1"), "{err}");
        assert!(err.contains("near `"), "{err}");
    }

    #[test]
    fn maps_bools_and_f32_round_trip() {
        let mut buf = Vec::new();
        write_map_header(&mut buf, 2);
        write_str(&mut buf, "a");
        write_uint(&mut buf, 7);
        write_str(&mut buf, "b");
        buf.push(0xca);
        buf.extend_from_slice(&2.5f32.to_be_bytes());
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_map_header().unwrap(), 2);
        assert_eq!(r.read_str().unwrap(), "a");
        assert_eq!(r.read_uint().unwrap(), 7);
        assert_eq!(r.read_str().unwrap(), "b");
        assert_eq!(r.read_f64().unwrap(), 2.5);
        assert!(r.is_at_end());
        // A large map takes the map16 header.
        let mut big = Vec::new();
        write_map_header(&mut big, 20);
        assert_eq!(big[0], 0xde);
        let mut r = Reader::new(&big);
        assert_eq!(r.read_map_header().unwrap(), 20);
    }

    #[test]
    fn skip_value_steps_over_nested_structures() {
        let mut buf = Vec::new();
        // {"x": [1, "two", 3.0], "y": {"z": null}} followed by a sentinel.
        write_map_header(&mut buf, 2);
        write_str(&mut buf, "x");
        write_array_header(&mut buf, 3);
        write_uint(&mut buf, 1);
        write_str(&mut buf, "two");
        write_f64(&mut buf, 3.0);
        write_str(&mut buf, "y");
        write_map_header(&mut buf, 1);
        write_str(&mut buf, "z");
        buf.push(0xc0); // nil
        write_uint(&mut buf, 42);
        let mut r = Reader::new(&buf);
        r.skip_value().unwrap();
        assert_eq!(r.read_uint().unwrap(), 42);
        assert!(r.is_at_end());
    }

    #[test]
    fn reader_resumes_at_saved_position() {
        let mut buf = Vec::new();
        write_uint(&mut buf, 300);
        write_uint(&mut buf, 7);
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_uint().unwrap(), 300);
        let pos = r.position();
        let mut resumed = Reader::at(&buf, pos);
        assert_eq!(resumed.read_uint().unwrap(), 7);
    }

    #[test]
    fn wrong_tag_is_a_malformed_error() {
        // A float where an array header is expected.
        let mut buf = Vec::new();
        write_f64(&mut buf, 1.0);
        let err = decode_requests(&buf).unwrap_err();
        assert!(err.to_string().contains("expected array"));
    }

    #[test]
    fn wrong_arity_is_rejected() {
        let mut buf = Vec::new();
        write_array_header(&mut buf, 1);
        write_array_header(&mut buf, 2);
        write_uint(&mut buf, 0);
        write_uint(&mut buf, 1);
        let err = decode_requests(&buf).unwrap_err();
        assert!(err.to_string().contains("6 elements"));
    }

    #[test]
    fn binary_is_smaller_than_jsonl() {
        let requests: Vec<IoRequest> = (0..200)
            .map(|i| IoRequest::write(i % 16, i as f64, i as f64 + 0.5, 1_048_576))
            .collect();
        let packed = encode_requests(&requests);
        let text = crate::jsonl::encode_requests(&requests);
        assert!(packed.len() < text.len());
    }
}

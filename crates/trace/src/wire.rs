//! Length-framed wire envelope for socket-facing trace ingest.
//!
//! `ftio serve` accepts two kinds of connection. A *raw* connection writes a
//! trace byte stream in any [`crate::source::SourceFormat`] (optionally
//! gzipped) and closes — convenient for `nc trace.jsonl | …`. A *framed*
//! connection speaks the envelope in this module: explicit application
//! identity, incremental data chunks, prediction subscriptions, and graceful
//! shutdown — what a TMIO-style tracer embedded in a running application
//! needs.
//!
//! The envelope is deliberately minimal: every frame is
//!
//! ```text
//! ┌────────────┬──────┬────────────────┬─────────┐
//! │ magic FD10 │ kind │ length (BE u32)│ payload │
//! │   2 bytes  │ 1 B  │     4 bytes    │ N bytes │
//! └────────────┴──────┴────────────────┴─────────┘
//! ```
//!
//! The magic byte `0xFD` is outside every range the content sniffer claims
//! (MessagePack fixmap/fixarray, gzip's `0x1f`, printable text), so the
//! server can tell framed from raw connections by peeking one byte.
//! Structured payloads reuse the [`crate::msgpack`] primitives; [`Frame::Data`]
//! payloads are opaque trace bytes handed to the ingestion layer
//! ([`crate::source::from_bytes_auto`]), so they may themselves be gzipped.
//!
//! [`FrameReader`] tracks the absolute byte offset of every frame so protocol
//! errors carry a position — the serving layer closes *that* connection with
//! the positioned error and keeps serving the rest.

use std::borrow::Cow;
use std::io::{Read, Write};

use crate::app_id::AppId;
use crate::errors::{TraceError, TraceResult};
use crate::msgpack;

/// The two magic bytes every frame starts with.
pub const FRAME_MAGIC: [u8; 2] = [0xFD, 0x10];

/// Upper bound on a single frame's payload (64 MiB) — a corrupted or hostile
/// length field must not turn into an unbounded allocation.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

const KIND_HELLO: u8 = 1;
const KIND_DATA: u8 = 2;
const KIND_SUBSCRIBE: u8 = 3;
const KIND_END: u8 = 4;
const KIND_SHUTDOWN: u8 = 5;
const KIND_ACK: u8 = 16;
const KIND_PREDICTION: u8 = 17;
const KIND_STATS: u8 = 18;
const KIND_ERROR: u8 = 19;
const KIND_WELCOME: u8 = 20;

/// One prediction update pushed to a subscribed connection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PredictionUpdate {
    /// The application the prediction belongs to.
    pub app: AppId,
    /// Monotonically increasing per-application sequence number, assigned by
    /// the engine when the prediction is published. A reconnecting
    /// subscriber passes the next seq it has not seen as
    /// [`Frame::Subscribe::from_seq`] to resume without gaps or duplicates.
    pub seq: u64,
    /// The submission time that triggered the tick (seconds).
    pub time: f64,
    /// Dominant period in seconds, when the detector found one.
    pub period: Option<f64>,
    /// Detector confidence in `[0, 1]`.
    pub confidence: f64,
}

/// Engine counters as carried on the wire (mirrors
/// `ftio_core::cluster::ClusterStats`, which this crate cannot name — the
/// dependency points the other way).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireStats {
    /// Submissions handed to the engine.
    pub submitted: u64,
    /// Submissions refused (full queue under `Reject`, or engine closed).
    pub rejected: u64,
    /// Submissions evicted by the `DropOldest` policy.
    pub dropped: u64,
    /// Detection ticks executed.
    pub ticks: u64,
    /// Submissions merged into another submission's tick.
    pub coalesced: u64,
    /// Ticks whose analysis panicked.
    pub panicked: u64,
}

impl WireStats {
    /// The drain-time accounting identity every healthy engine satisfies:
    /// every non-rejected submission is eventually ticked, coalesced,
    /// dropped, or lost to a panic.
    pub fn is_balanced(&self) -> bool {
        self.ticks + self.panicked + self.coalesced + self.dropped == self.submitted - self.rejected
    }
}

/// One envelope frame, client→server or server→client.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Client→server: names the application this connection feeds. The
    /// server routes the connection's data to `AppId::from_name(&name)` —
    /// the same derivation clients use, so both sides agree on the id
    /// without a registration round-trip.
    Hello {
        /// Application name (hashed into the [`AppId`]).
        name: String,
    },
    /// Client→server: one chunk of trace bytes in any sniffable
    /// [`crate::source::SourceFormat`], possibly gzipped. Chunks must be
    /// self-contained (no records split across frames).
    Data(Vec<u8>),
    /// Client→server: subscribe this connection to prediction updates for
    /// one application, or for all applications when `app` is `None`.
    Subscribe {
        /// The application to follow (`None` = every application).
        app: Option<AppId>,
        /// Resume point: replay retained predictions with `seq >=
        /// from_seq` before going live. Requires `app` (the sequence space
        /// is per-application); the server rejects `from_seq` without an
        /// app as a protocol error.
        from_seq: Option<u64>,
    },
    /// Client→server: flush — the server forces pending work through the
    /// engine and replies with [`Frame::Ack`].
    End,
    /// Client→server: ask the whole daemon to drain and exit. The server
    /// replies with a final [`Frame::Stats`] before closing.
    Shutdown,
    /// Server→client: acknowledges [`Frame::End`].
    Ack,
    /// Server→client: one prediction update (requires a prior subscribe).
    Prediction(PredictionUpdate),
    /// Server→client: engine counters (the [`Frame::Shutdown`] reply).
    Stats(WireStats),
    /// Server→client: acknowledges [`Frame::Hello`], advertising the
    /// resume window for the named application's prediction feed.
    Welcome {
        /// The [`AppId`] the server derived from the hello name.
        app: AppId,
        /// Oldest sequence number still replayable via
        /// [`Frame::Subscribe::from_seq`] (equals `next_seq` when nothing
        /// is retained).
        oldest_seq: u64,
        /// The sequence number the next published prediction will carry.
        next_seq: u64,
    },
    /// Server→client: something went wrong. When `retry_after_ms` is set
    /// the condition is transient (overload shedding, rate quota) and the
    /// connection stays open — the client should back off and retry.
    /// Without it the error is fatal and the server closes the connection.
    Error {
        /// Human-readable description, with the input position when known.
        message: String,
        /// Suggested backoff before retrying, for transient errors.
        retry_after_ms: Option<u64>,
    },
}

impl Frame {
    fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => KIND_HELLO,
            Frame::Data(_) => KIND_DATA,
            Frame::Subscribe { .. } => KIND_SUBSCRIBE,
            Frame::End => KIND_END,
            Frame::Shutdown => KIND_SHUTDOWN,
            Frame::Ack => KIND_ACK,
            Frame::Prediction(_) => KIND_PREDICTION,
            Frame::Stats(_) => KIND_STATS,
            Frame::Welcome { .. } => KIND_WELCOME,
            Frame::Error { .. } => KIND_ERROR,
        }
    }

    /// The payload bytes; a `Data` frame's are borrowed, not copied.
    fn payload(&self) -> Cow<'_, [u8]> {
        let mut out = Vec::new();
        match self {
            Frame::Hello { name } => msgpack::write_str(&mut out, name),
            Frame::Data(bytes) => return Cow::Borrowed(bytes),
            Frame::Subscribe { app, from_seq } => {
                // [has_app, app, has_from_seq, from_seq]; decode also accepts
                // the 0-/1-entry forms emitted before resume existed.
                msgpack::write_array_header(&mut out, 4);
                msgpack::write_uint(&mut out, u64::from(app.is_some()));
                msgpack::write_uint(&mut out, app.map_or(0, |a| a.raw()));
                msgpack::write_uint(&mut out, u64::from(from_seq.is_some()));
                msgpack::write_uint(&mut out, from_seq.unwrap_or(0));
            }
            Frame::End | Frame::Shutdown | Frame::Ack => {}
            Frame::Prediction(p) => {
                msgpack::write_array_header(&mut out, 6);
                msgpack::write_uint(&mut out, p.app.raw());
                msgpack::write_uint(&mut out, p.seq);
                msgpack::write_f64(&mut out, p.time);
                msgpack::write_uint(&mut out, u64::from(p.period.is_some()));
                msgpack::write_f64(&mut out, p.period.unwrap_or(0.0));
                msgpack::write_f64(&mut out, p.confidence);
            }
            Frame::Stats(s) => {
                msgpack::write_array_header(&mut out, 6);
                for value in [
                    s.submitted,
                    s.rejected,
                    s.dropped,
                    s.ticks,
                    s.coalesced,
                    s.panicked,
                ] {
                    msgpack::write_uint(&mut out, value);
                }
            }
            Frame::Welcome {
                app,
                oldest_seq,
                next_seq,
            } => {
                msgpack::write_array_header(&mut out, 3);
                msgpack::write_uint(&mut out, app.raw());
                msgpack::write_uint(&mut out, *oldest_seq);
                msgpack::write_uint(&mut out, *next_seq);
            }
            Frame::Error {
                message,
                retry_after_ms,
            } => {
                msgpack::write_array_header(&mut out, 3);
                msgpack::write_str(&mut out, message);
                msgpack::write_uint(&mut out, u64::from(retry_after_ms.is_some()));
                msgpack::write_uint(&mut out, retry_after_ms.unwrap_or(0));
            }
        }
        Cow::Owned(out)
    }

    /// Serialises the frame (magic + kind + length + payload). A payload
    /// over [`MAX_FRAME_LEN`] yields bytes no [`FrameReader`] accepts;
    /// [`Frame::write_to`] refuses to send those.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_payload(&self.payload())
    }

    fn encode_payload(&self, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(7 + payload.len());
        out.extend_from_slice(&FRAME_MAGIC);
        out.push(self.kind());
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(payload);
        out
    }

    /// Writes the encoded frame to `w` (one `write_all`, no flush). A
    /// payload over [`MAX_FRAME_LEN`] is an
    /// [`InvalidInput`](std::io::ErrorKind::InvalidInput) error, and
    /// nothing is written.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        let payload = self.payload();
        if payload.len() > MAX_FRAME_LEN {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "frame payload of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
                    payload.len()
                ),
            ));
        }
        w.write_all(&self.encode_payload(&payload))
    }

    fn decode(kind: u8, payload: Vec<u8>, offset: u64) -> TraceResult<Frame> {
        let err = |reason: String| {
            TraceError::malformed_snippet(
                reason,
                offset as usize,
                crate::errors::snippet_of_bytes(&payload, 0),
            )
        };
        let mut reader = msgpack::Reader::new(&payload);
        let frame = match kind {
            KIND_HELLO => Frame::Hello {
                name: reader.read_str()?,
            },
            KIND_DATA => return Ok(Frame::Data(payload)),
            KIND_SUBSCRIBE => {
                let len = reader.read_array_header()?;
                match len {
                    // Legacy forms from before resumable subscriptions.
                    0 => Frame::Subscribe {
                        app: None,
                        from_seq: None,
                    },
                    1 => Frame::Subscribe {
                        app: Some(AppId::new(reader.read_uint()?)),
                        from_seq: None,
                    },
                    4 => {
                        let has_app = reader.read_uint()? != 0;
                        let app = reader.read_uint()?;
                        let has_from = reader.read_uint()? != 0;
                        let from_seq = reader.read_uint()?;
                        Frame::Subscribe {
                            app: has_app.then(|| AppId::new(app)),
                            from_seq: has_from.then_some(from_seq),
                        }
                    }
                    n => return Err(err(format!("subscribe frame with {n} entries"))),
                }
            }
            KIND_END => Frame::End,
            KIND_SHUTDOWN => Frame::Shutdown,
            KIND_ACK => Frame::Ack,
            KIND_PREDICTION => {
                let len = reader.read_array_header()?;
                if len != 6 {
                    return Err(err(format!("prediction frame with {len} fields")));
                }
                let app = AppId::new(reader.read_uint()?);
                let seq = reader.read_uint()?;
                let time = reader.read_f64()?;
                let has_period = reader.read_uint()? != 0;
                let period = reader.read_f64()?;
                Frame::Prediction(PredictionUpdate {
                    app,
                    seq,
                    time,
                    period: has_period.then_some(period),
                    confidence: reader.read_f64()?,
                })
            }
            KIND_STATS => {
                let len = reader.read_array_header()?;
                if len != 6 {
                    return Err(err(format!("stats frame with {len} fields")));
                }
                let mut values = [0u64; 6];
                for value in values.iter_mut() {
                    *value = reader.read_uint()?;
                }
                Frame::Stats(WireStats {
                    submitted: values[0],
                    rejected: values[1],
                    dropped: values[2],
                    ticks: values[3],
                    coalesced: values[4],
                    panicked: values[5],
                })
            }
            KIND_WELCOME => {
                let len = reader.read_array_header()?;
                if len != 3 {
                    return Err(err(format!("welcome frame with {len} fields")));
                }
                Frame::Welcome {
                    app: AppId::new(reader.read_uint()?),
                    oldest_seq: reader.read_uint()?,
                    next_seq: reader.read_uint()?,
                }
            }
            // Error payloads were a bare string before `retry_after_ms`;
            // accept both (a msgpack str never starts with an array header).
            KIND_ERROR => match payload.first() {
                Some(0x90..=0x9f | 0xdc | 0xdd) => {
                    let len = reader.read_array_header()?;
                    if len != 3 {
                        return Err(err(format!("error frame with {len} fields")));
                    }
                    let message = reader.read_str()?;
                    let has_retry = reader.read_uint()? != 0;
                    let retry = reader.read_uint()?;
                    Frame::Error {
                        message,
                        retry_after_ms: has_retry.then_some(retry),
                    }
                }
                _ => Frame::Error {
                    message: reader.read_str()?,
                    retry_after_ms: None,
                },
            },
            other => return Err(err(format!("unknown frame kind 0x{other:02x}"))),
        };
        if !reader.is_at_end() {
            return Err(err(format!(
                "trailing bytes after frame payload (kind 0x{kind:02x})"
            )));
        }
        Ok(frame)
    }
}

/// Incremental frame reader over any [`Read`] stream, tracking the absolute
/// byte offset so every error is positioned.
pub struct FrameReader<R: Read> {
    inner: R,
    offset: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte stream positioned at a frame boundary.
    pub fn new(inner: R) -> Self {
        FrameReader { inner, offset: 0 }
    }

    /// Bytes consumed so far (the offset of the next frame).
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// Consumes the reader, returning the inner stream.
    pub fn into_inner(self) -> R {
        self.inner
    }

    fn fill(&mut self, buf: &mut [u8], what: &str) -> TraceResult<()> {
        let mut filled = 0usize;
        while filled < buf.len() {
            let n = match self.inner.read(&mut buf[filled..]) {
                Ok(n) => n,
                // Interrupted is retriable by contract; a storm of them
                // (see `crate::faultio`) must not kill the connection.
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TraceError::from(e)),
            };
            if n == 0 {
                return Err(TraceError::malformed_snippet(
                    format!("connection closed mid-frame (reading {what})"),
                    (self.offset + filled as u64) as usize,
                    String::new(),
                ));
            }
            filled += n;
        }
        self.offset += buf.len() as u64;
        Ok(())
    }

    /// Reads the next frame. Returns `Ok(None)` on clean end-of-stream (EOF
    /// exactly at a frame boundary); EOF anywhere inside a frame, a bad
    /// magic, an oversized length, or an undecodable payload is a positioned
    /// [`TraceError::Malformed`].
    pub fn read_frame(&mut self) -> TraceResult<Option<Frame>> {
        // The first magic byte decides clean-EOF vs mid-frame truncation.
        let mut first = [0u8; 1];
        loop {
            match self.inner.read(&mut first) {
                Ok(0) => return Ok(None),
                Ok(_) => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(TraceError::from(e)),
            }
        }
        let frame_start = self.offset;
        self.offset += 1;
        let mut rest = [0u8; 6]; // magic[1], kind, length
        self.fill(&mut rest, "frame header")?;
        if first[0] != FRAME_MAGIC[0] || rest[0] != FRAME_MAGIC[1] {
            return Err(TraceError::malformed_snippet(
                format!(
                    "bad frame magic {:02x}{:02x} (expected {:02x}{:02x})",
                    first[0], rest[0], FRAME_MAGIC[0], FRAME_MAGIC[1]
                ),
                frame_start as usize,
                String::new(),
            ));
        }
        let kind = rest[1];
        let len = u32::from_be_bytes([rest[2], rest[3], rest[4], rest[5]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(TraceError::malformed_snippet(
                format!("frame length {len} exceeds the {MAX_FRAME_LEN}-byte cap"),
                frame_start as usize,
                String::new(),
            ));
        }
        let mut payload = vec![0u8; len];
        self.fill(&mut payload, "frame payload")?;
        Frame::decode(kind, payload, frame_start).map(Some)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                name: "ior-run".into(),
            },
            Frame::Data(b"{\"rank\":0}\n".to_vec()),
            Frame::Data(Vec::new()),
            Frame::Subscribe {
                app: None,
                from_seq: None,
            },
            Frame::Subscribe {
                app: Some(AppId::from_name("ior-run")),
                from_seq: None,
            },
            Frame::Subscribe {
                app: Some(AppId::from_name("ior-run")),
                from_seq: Some(17),
            },
            Frame::End,
            Frame::Shutdown,
            Frame::Ack,
            Frame::Prediction(PredictionUpdate {
                app: AppId::new(42),
                seq: 3,
                time: 12.5,
                period: Some(10.0),
                confidence: 0.875,
            }),
            Frame::Prediction(PredictionUpdate {
                app: AppId::new(7),
                seq: 0,
                time: 3.0,
                period: None,
                confidence: 0.0,
            }),
            Frame::Welcome {
                app: AppId::new(42),
                oldest_seq: 5,
                next_seq: 12,
            },
            Frame::Stats(WireStats {
                submitted: 10,
                rejected: 1,
                dropped: 2,
                ticks: 5,
                coalesced: 2,
                panicked: 0,
            }),
            Frame::Error {
                message: "malformed frame at byte 12".into(),
                retry_after_ms: None,
            },
            Frame::Error {
                message: "queue full".into(),
                retry_after_ms: Some(250),
            },
        ]
    }

    #[test]
    fn frames_round_trip_individually_and_streamed() {
        let frames = all_frames();
        let mut stream = Vec::new();
        for frame in &frames {
            frame.write_to(&mut stream).unwrap();
        }
        let mut reader = FrameReader::new(&stream[..]);
        for expected in &frames {
            assert_eq!(reader.read_frame().unwrap().as_ref(), Some(expected));
        }
        assert!(reader.read_frame().unwrap().is_none());
        assert_eq!(reader.offset(), stream.len() as u64);
    }

    #[test]
    fn stats_balance_check() {
        let mut stats = WireStats {
            submitted: 10,
            rejected: 1,
            dropped: 2,
            ticks: 5,
            coalesced: 2,
            panicked: 0,
        };
        assert!(stats.is_balanced());
        stats.ticks += 1;
        assert!(!stats.is_balanced());
    }

    #[test]
    fn clean_eof_is_none_but_truncation_is_positioned() {
        let encoded = Frame::Hello { name: "app".into() }.encode();
        // Clean boundary.
        let mut reader = FrameReader::new(&encoded[..]);
        assert!(reader.read_frame().unwrap().is_some());
        assert!(reader.read_frame().unwrap().is_none());
        // Truncation at every interior byte is an error, not None.
        for cut in 1..encoded.len() {
            let mut reader = FrameReader::new(&encoded[..cut]);
            let err = reader.read_frame().expect_err("truncated frame");
            assert!(err.to_string().contains("mid-frame"), "cut {cut}: {err}");
        }
    }

    #[test]
    fn bad_magic_and_oversized_frames_are_rejected() {
        let mut reader = FrameReader::new(&b"not a frame stream"[..]);
        let err = reader.read_frame().expect_err("bad magic");
        assert!(err.to_string().contains("bad frame magic"), "{err}");

        let mut huge = Vec::from(FRAME_MAGIC);
        huge.push(2); // Data
        huge.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut reader = FrameReader::new(&huge[..]);
        let err = reader.read_frame().expect_err("oversized frame");
        assert!(err.to_string().contains("exceeds"), "{err}");
    }

    /// The writer holds the cap the reader enforces: a frame no reader
    /// would accept is refused before a byte of it is written.
    #[test]
    fn oversized_frames_are_refused_before_writing() {
        let mut buf = Vec::new();
        let err = Frame::Data(vec![0; MAX_FRAME_LEN + 1])
            .write_to(&mut buf)
            .expect_err("oversized frame");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("exceeds"), "{err}");
        assert!(buf.is_empty(), "{} bytes written", buf.len());
    }

    #[test]
    fn unknown_kind_and_trailing_bytes_are_rejected() {
        let mut frame = Vec::from(FRAME_MAGIC);
        frame.push(0x7f);
        frame.extend_from_slice(&0u32.to_be_bytes());
        let mut reader = FrameReader::new(&frame[..]);
        assert!(reader
            .read_frame()
            .expect_err("unknown kind")
            .to_string()
            .contains("unknown frame kind"));

        // An End frame must have an empty payload.
        let mut frame = Vec::from(FRAME_MAGIC);
        frame.push(4); // End
        frame.extend_from_slice(&1u32.to_be_bytes());
        frame.push(0);
        let mut reader = FrameReader::new(&frame[..]);
        assert!(reader
            .read_frame()
            .expect_err("trailing bytes")
            .to_string()
            .contains("trailing bytes"));
    }

    #[test]
    fn errors_carry_the_stream_offset() {
        // A good frame followed by garbage: the error position points past
        // the first frame.
        let mut stream = Frame::Ack.encode();
        let good_len = stream.len();
        stream.extend_from_slice(b"XYZZY..");
        let mut reader = FrameReader::new(&stream[..]);
        assert_eq!(reader.read_frame().unwrap(), Some(Frame::Ack));
        let err = reader.read_frame().expect_err("garbage tail");
        assert!(
            err.to_string().contains(&format!("position {good_len}")),
            "{err}"
        );
    }

    fn raw_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::from(FRAME_MAGIC);
        out.push(kind);
        out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        out.extend_from_slice(payload);
        out
    }

    #[test]
    fn legacy_subscribe_and_error_payloads_still_decode() {
        // Subscribe frames from before resume support: 0- or 1-entry arrays.
        let mut all = msgpack_payload(|out| msgpack::write_array_header(out, 0));
        let mut bytes = raw_frame(3, &all);
        let mut reader = FrameReader::new(&bytes[..]);
        assert_eq!(
            reader.read_frame().unwrap(),
            Some(Frame::Subscribe {
                app: None,
                from_seq: None
            })
        );

        all = msgpack_payload(|out| {
            msgpack::write_array_header(out, 1);
            msgpack::write_uint(out, 99);
        });
        bytes = raw_frame(3, &all);
        let mut reader = FrameReader::new(&bytes[..]);
        assert_eq!(
            reader.read_frame().unwrap(),
            Some(Frame::Subscribe {
                app: Some(AppId::new(99)),
                from_seq: None
            })
        );

        // Error frames used to be a bare msgpack string.
        let legacy = msgpack_payload(|out| msgpack::write_str(out, "boom at byte 9"));
        bytes = raw_frame(19, &legacy);
        let mut reader = FrameReader::new(&bytes[..]);
        assert_eq!(
            reader.read_frame().unwrap(),
            Some(Frame::Error {
                message: "boom at byte 9".into(),
                retry_after_ms: None
            })
        );
    }

    fn msgpack_payload(build: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
        let mut out = Vec::new();
        build(&mut out);
        out
    }

    #[test]
    fn interrupted_storms_do_not_break_frame_reads() {
        use crate::faultio::{FaultPlan, FaultStream};
        let frames = all_frames();
        let mut stream = Vec::new();
        for frame in &frames {
            frame.write_to(&mut stream).unwrap();
        }
        let plan = FaultPlan::parse("seed=21,interrupt=0.4,short=0.6").unwrap();
        let faulty = FaultStream::new(&stream[..], plan);
        let mut reader = FrameReader::new(faulty);
        // `read_frame` must absorb every injected Interrupted and short read
        // and still produce the exact frame sequence.
        for expected in &frames {
            assert_eq!(reader.read_frame().unwrap().as_ref(), Some(expected));
        }
        assert!(reader.read_frame().unwrap().is_none());
    }

    #[test]
    fn frame_magic_is_invisible_to_the_content_sniffer() {
        use crate::source::SourceFormat;
        // The serving layer peeks one byte to route framed vs raw
        // connections; the envelope magic must never collide with a
        // sniffable trace format or the gzip transport.
        let frame = Frame::Hello { name: "app".into() }.encode();
        assert_eq!(SourceFormat::sniff(&frame), None);
        assert!(!SourceFormat::is_gzip(&frame));
    }
}

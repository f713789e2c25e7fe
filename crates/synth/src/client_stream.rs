//! Client-side stream chunking for `ftio serve`.
//!
//! [`MultiAppWorkload`] produces the *server-side*
//! view of a fleet: a globally time-ordered flush schedule. A socket client
//! sees the opposite cut — one application's flushes, each encoded as a
//! self-contained chunk of bytes it can put in a `Data` frame. This module
//! slices a fleet into such per-application chunk sequences, so the serve
//! benches and the CI smoke lane can drive real sockets with synthetic
//! workloads instead of checked-in fixtures.

use ftio_trace::{jsonl, msgpack, AppId};

use crate::multi_app::{AppStream, MultiAppWorkload};

/// Wire encoding of a [`StreamChunk`]'s payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChunkEncoding {
    /// One JSON object per line (`ftio_trace::jsonl`).
    Jsonl,
    /// The binary MessagePack framing (`ftio_trace::msgpack`).
    Msgpack,
}

/// One flush of one application, encoded and ready to send.
#[derive(Clone, Debug)]
pub struct StreamChunk {
    /// The flushing application.
    pub app: AppId,
    /// When the application flushed (seconds since its run started) — drives
    /// paced replays.
    pub now: f64,
    /// The encoded requests; self-contained, sniffable, one `Data` frame.
    pub payload: Vec<u8>,
}

/// A fleet sliced into per-application chunk sequences.
///
/// ```
/// use ftio_synth::{ChunkEncoding, FleetStream, MultiAppConfig, MultiAppWorkload};
///
/// let workload = MultiAppWorkload::generate(
///     &MultiAppConfig { apps: 2, flushes_per_app: 3, ..Default::default() },
///     7,
/// );
/// let stream = FleetStream::new(&workload, ChunkEncoding::Jsonl);
/// assert_eq!(stream.clients().len(), 2);
/// let (app, chunks) = &stream.clients()[0];
/// assert_eq!(chunks.len(), 3);
/// assert!(chunks[0].payload.ends_with(b"\n"));
/// assert_eq!(*app, chunks[0].app);
/// ```
#[derive(Clone, Debug)]
pub struct FleetStream {
    clients: Vec<(AppId, Vec<StreamChunk>)>,
}

impl FleetStream {
    /// Slices `workload` into one chunk sequence per application, each
    /// sequence ordered by flush time.
    pub fn new(workload: &MultiAppWorkload, encoding: ChunkEncoding) -> Self {
        let clients = workload
            .apps
            .iter()
            .map(|stream| {
                (
                    stream.app,
                    chunk_app(stream, workload.flushes_per_app(), encoding),
                )
            })
            .collect();
        FleetStream { clients }
    }

    /// The per-application chunk sequences, one entry per fleet member.
    pub fn clients(&self) -> &[(AppId, Vec<StreamChunk>)] {
        &self.clients
    }

    /// The chunk sequence of one application, if it is part of the fleet.
    pub fn client(&self, app: AppId) -> Option<&[StreamChunk]> {
        self.clients
            .iter()
            .find(|(id, _)| *id == app)
            .map(|(_, chunks)| chunks.as_slice())
    }

    /// Total payload bytes across every client — the denominator of a
    /// socket-ingest throughput measurement.
    pub fn total_bytes(&self) -> usize {
        self.clients
            .iter()
            .flat_map(|(_, chunks)| chunks)
            .map(|chunk| chunk.payload.len())
            .sum()
    }
}

fn chunk_app(stream: &AppStream, flushes: usize, encoding: ChunkEncoding) -> Vec<StreamChunk> {
    (0..flushes)
        .map(|index| {
            let (requests, now) = stream.flush(index);
            let payload = match encoding {
                ChunkEncoding::Jsonl => jsonl::encode_requests(&requests).into_bytes(),
                ChunkEncoding::Msgpack => msgpack::encode_requests(&requests),
            };
            StreamChunk {
                app: stream.app,
                now,
                payload,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multi_app::MultiAppConfig;
    use ftio_trace::source::SourceFormat;

    fn fleet() -> MultiAppWorkload {
        MultiAppWorkload::generate(
            &MultiAppConfig {
                apps: 3,
                flushes_per_app: 4,
                ranks_per_app: 2,
                ..Default::default()
            },
            0xC11E,
        )
    }

    #[test]
    fn every_chunk_is_self_contained_and_sniffable() {
        let workload = fleet();
        for encoding in [ChunkEncoding::Jsonl, ChunkEncoding::Msgpack] {
            let stream = FleetStream::new(&workload, encoding);
            assert_eq!(stream.clients().len(), 3);
            for (app, chunks) in stream.clients() {
                assert_eq!(chunks.len(), 4);
                for chunk in chunks {
                    assert_eq!(chunk.app, *app);
                    let sniffed = SourceFormat::sniff(&chunk.payload).expect("sniffable");
                    let expected = match encoding {
                        ChunkEncoding::Jsonl => SourceFormat::Jsonl,
                        ChunkEncoding::Msgpack => SourceFormat::Msgpack,
                    };
                    assert_eq!(sniffed, expected);
                }
                // Flush times advance by the app's period.
                for pair in chunks.windows(2) {
                    assert!(pair[1].now > pair[0].now);
                }
            }
        }
    }

    #[test]
    fn chunks_decode_back_to_the_flush_requests() {
        let workload = fleet();
        let stream = FleetStream::new(&workload, ChunkEncoding::Jsonl);
        let app_stream = &workload.apps[1];
        let chunks = stream.client(app_stream.app).expect("fleet member");
        for (index, chunk) in chunks.iter().enumerate() {
            let (expected, now) = app_stream.flush(index);
            let decoded = ftio_trace::source::decode_requests(SourceFormat::Jsonl, &chunk.payload);
            assert_eq!(decoded.unwrap(), expected);
            assert_eq!(chunk.now, now);
        }
        assert!(stream.client(AppId::new(999)).is_none());
        assert!(stream.total_bytes() > 0);
    }
}

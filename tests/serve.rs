//! Serving-layer integration tests: the socket daemon end to end.
//!
//! The contracts pinned here:
//!
//! * **Concurrent multiplexing** — two framed clients over one Unix socket
//!   each get the predictions of *their* application, and a graceful
//!   shutdown drains the shard queues with the accounting invariant intact.
//! * **Raw ingestion** — a plain `nc`-style connection (bytes, close) is
//!   sniffed, replayed, and answered with a summary line; gzipped bytes are
//!   decompressed transparently; a stream over the frame cap is refused.
//! * **Flush barriers** — `End` on a subscribed connection is acked after
//!   the predictions it covers, and at once when there are none.
//! * **Bounded prediction store** — the drain report retains each app's last
//!   `resume_ring` predictions and counts every one it published.
//! * **Fault isolation at the network edge** — a malformed frame, a
//!   disconnect mid-frame, or a connection over the admission limit affects
//!   only the offending connection; every other client keeps being served
//!   and the engine's counters still balance.

use std::io::{Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::path::PathBuf;

use ftio_core::server::{Server, ServerConfig, ServerListener, ServerReport};
use ftio_core::{ClusterConfig, ClusterStats, FtioConfig, DEFAULT_RESUME_RING};
use ftio_trace::wire::{Frame, FrameReader, FRAME_MAGIC, MAX_FRAME_LEN};
use ftio_trace::{jsonl, AppId, IoRequest};

fn test_config(shards: usize, max_connections: usize) -> ServerConfig {
    ServerConfig {
        max_connections,
        batch_size: 256,
        cluster: ClusterConfig {
            shards,
            // One tick per Data frame keeps the counters exact.
            max_batch: 1,
            ftio: FtioConfig {
                sampling_freq: 2.0,
                use_autocorrelation: false,
                ..Default::default()
            },
            ..Default::default()
        },
        ..Default::default()
    }
}

/// The observable engine contract: every accepted submission is accounted
/// for — ticked, coalesced, dropped, or panicked.
fn assert_balanced(stats: &ClusterStats) {
    assert_eq!(
        stats.ticks + stats.panicked + stats.coalesced + stats.dropped,
        stats.submitted - stats.rejected,
        "accounting invariant violated: {stats:?}"
    );
}

fn periodic_jsonl(period: f64, bursts: usize) -> Vec<u8> {
    let requests: Vec<IoRequest> = (0..bursts)
        .map(|i| {
            let start = i as f64 * period;
            IoRequest::write(0, start, start + 2.0, 1_000_000_000)
        })
        .collect();
    jsonl::encode_requests(&requests).into_bytes()
}

#[cfg(unix)]
fn socket_path(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ftio_serve_it_{name}.sock"))
}

/// One full framed session: hello, subscribe, stream the payload in `frames`
/// data frames, end, collect predictions until the ack.
fn framed_session<S: Read + Write>(
    mut stream: S,
    name: &str,
    payload: &[u8],
    frames: usize,
) -> Vec<ftio_trace::wire::PredictionUpdate> {
    Frame::Hello { name: name.into() }
        .write_to(&mut stream)
        .unwrap();
    Frame::Subscribe {
        app: Some(AppId::from_name(name)),
        from_seq: None,
    }
    .write_to(&mut stream)
    .unwrap();
    // Split at line boundaries so every frame is a self-contained chunk.
    let mut rest = payload;
    for i in (1..=frames).rev() {
        let take = if i == 1 {
            rest.len()
        } else {
            let target = rest.len() / i;
            rest[..target]
                .iter()
                .rposition(|&b| b == b'\n')
                .map(|p| p + 1)
                .unwrap_or(target)
        };
        let (chunk, remainder) = rest.split_at(take);
        Frame::Data(chunk.to_vec()).write_to(&mut stream).unwrap();
        rest = remainder;
    }
    Frame::End.write_to(&mut stream).unwrap();
    stream.flush().unwrap();
    let mut reader = FrameReader::new(stream);
    let mut predictions = Vec::new();
    loop {
        match reader.read_frame().unwrap().expect("server closed early") {
            Frame::Welcome { .. } => {} // the hello's ack
            Frame::Prediction(update) => predictions.push(update),
            Frame::Ack => break,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    predictions
}

fn shutdown_via_client<S: Read + Write>(mut stream: S) -> ftio_trace::wire::WireStats {
    Frame::Hello {
        name: "stopper".into(),
    }
    .write_to(&mut stream)
    .unwrap();
    Frame::Shutdown.write_to(&mut stream).unwrap();
    stream.flush().unwrap();
    let mut reader = FrameReader::new(stream);
    loop {
        match reader.read_frame().unwrap() {
            Some(Frame::Welcome { .. }) => continue, // the hello's ack
            Some(Frame::Stats(stats)) => return stats,
            other => panic!("expected stats, got {other:?}"),
        }
    }
}

fn finish_and_check(server: Server) -> ServerReport {
    let report = server.wait();
    assert_balanced(&report.cluster);
    report
}

#[cfg(unix)]
#[test]
fn two_concurrent_framed_clients_get_their_own_predictions() {
    let path = socket_path("two_clients");
    let server = Server::start(ServerListener::unix(&path).unwrap(), test_config(2, 8)).unwrap();

    let path_a = path.clone();
    let a = std::thread::spawn(move || {
        framed_session(
            UnixStream::connect(&path_a).unwrap(),
            "app-a",
            &periodic_jsonl(10.0, 12),
            3,
        )
    });
    let path_b = path.clone();
    let b = std::thread::spawn(move || {
        framed_session(
            UnixStream::connect(&path_b).unwrap(),
            "app-b",
            &periodic_jsonl(20.0, 12),
            2,
        )
    });
    let predictions_a = a.join().unwrap();
    let predictions_b = b.join().unwrap();

    // Each subscriber saw only its own application, one tick per data frame.
    assert_eq!(predictions_a.len(), 3);
    assert_eq!(predictions_b.len(), 2);
    assert!(predictions_a
        .iter()
        .all(|p| p.app == AppId::from_name("app-a")));
    assert!(predictions_b
        .iter()
        .all(|p| p.app == AppId::from_name("app-b")));
    let period_a = predictions_a.last().unwrap().period.expect("periodic");
    let period_b = predictions_b.last().unwrap().period.expect("periodic");
    assert!((period_a - 10.0).abs() < 1.5, "app-a period {period_a}");
    assert!((period_b - 20.0).abs() < 3.0, "app-b period {period_b}");

    let stats = shutdown_via_client(UnixStream::connect(&path).unwrap());
    assert!(stats.is_balanced(), "{stats:?}");
    assert_eq!(stats.ticks, 5);

    let report = finish_and_check(server);
    assert_eq!(report.server.accepted, 3);
    assert_eq!(report.server.protocol_errors, 0);
    assert_eq!(report.predictions.len(), 2);
    assert!(!path.exists(), "socket not unlinked after drain");
}

#[cfg(unix)]
#[test]
fn raw_connection_is_sniffed_and_summarised() {
    let path = socket_path("raw");
    let server = Server::start(ServerListener::unix(&path).unwrap(), test_config(1, 4)).unwrap();
    let mut client = UnixStream::connect(&path).unwrap();
    client.write_all(&periodic_jsonl(10.0, 12)).unwrap();
    client.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    client.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("# ftio raw-"), "{reply}");
    assert!(reply.contains("period 10."), "{reply}");
    server.shutdown();
    let report = finish_and_check(server);
    assert_eq!(report.server.raw_connections, 1);
    assert_eq!(report.cluster.ticks, 1);
}

#[cfg(unix)]
#[test]
fn gzipped_raw_connection_is_decompressed() {
    let path = socket_path("gzip");
    let server = Server::start(ServerListener::unix(&path).unwrap(), test_config(1, 4)).unwrap();
    let mut client = UnixStream::connect(&path).unwrap();
    client
        .write_all(&flate2::gzip_stored(&periodic_jsonl(8.0, 10)))
        .unwrap();
    client.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    client.read_to_string(&mut reply).unwrap();
    assert!(reply.contains("period 8."), "{reply}");
    server.shutdown();
    let report = finish_and_check(server);
    assert_eq!(report.server.raw_connections, 1);
    assert_eq!(report.server.protocol_errors, 0);
}

/// A raw stream holds the payload cap a framed `Data` frame has: past
/// `MAX_FRAME_LEN` bytes the daemon stops buffering, answers with an error
/// line and counts a protocol error. The next client is served normally.
#[cfg(unix)]
#[test]
fn raw_stream_over_the_frame_cap_is_refused() {
    let path = socket_path("raw_cap");
    let server = Server::start(ServerListener::unix(&path).unwrap(), test_config(1, 4)).unwrap();
    let mut client = UnixStream::connect(&path).unwrap();
    let chunk = vec![b' '; 1 << 20];
    for _ in 0..MAX_FRAME_LEN / chunk.len() {
        client.write_all(&chunk).unwrap();
    }
    client.write_all(b" ").unwrap();
    // The daemon may already have hung up after the last byte.
    let _ = client.shutdown(std::net::Shutdown::Write);
    let mut reply = String::new();
    client.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("# ftio error:"), "{reply}");
    assert!(reply.contains("cap"), "{reply}");
    assert_eq!(server.server_stats().protocol_errors, 1);

    let mut next = UnixStream::connect(&path).unwrap();
    next.write_all(&periodic_jsonl(10.0, 12)).unwrap();
    next.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    next.read_to_string(&mut reply).unwrap();
    assert!(reply.contains("period 10."), "{reply}");
    server.shutdown();
    let report = finish_and_check(server);
    assert_eq!(report.server.raw_connections, 2);
    assert_eq!(report.server.protocol_errors, 1);
    assert_eq!(report.cluster.ticks, 1);
}

/// `End` on a subscribed connection with no prediction in flight is acked
/// at once: the flush barrier travels through the pusher's channel, and the
/// pusher answers it with nothing to write. A later `End` still orders the
/// new predictions before its `Ack`.
#[test]
fn end_without_new_predictions_is_acked_on_a_subscribed_connection() {
    let server = Server::start(
        ServerListener::tcp("127.0.0.1:0").unwrap(),
        test_config(1, 4),
    )
    .unwrap();
    let mut client = TcpStream::connect(server.address()).unwrap();
    Frame::Hello {
        name: "quiet".into(),
    }
    .write_to(&mut client)
    .unwrap();
    Frame::Subscribe {
        app: Some(AppId::from_name("quiet")),
        from_seq: None,
    }
    .write_to(&mut client)
    .unwrap();
    let started = std::time::Instant::now();
    Frame::End.write_to(&mut client).unwrap();
    Frame::End.write_to(&mut client).unwrap();
    let mut reader = FrameReader::new(client.try_clone().unwrap());
    assert!(matches!(
        reader.read_frame().unwrap(),
        Some(Frame::Welcome { .. })
    ));
    assert_eq!(reader.read_frame().unwrap(), Some(Frame::Ack));
    assert_eq!(reader.read_frame().unwrap(), Some(Frame::Ack));
    assert!(
        started.elapsed() < std::time::Duration::from_secs(5),
        "acks took {:?}",
        started.elapsed()
    );

    Frame::Data(periodic_jsonl(10.0, 12))
        .write_to(&mut client)
        .unwrap();
    Frame::End.write_to(&mut client).unwrap();
    assert!(matches!(
        reader.read_frame().unwrap(),
        Some(Frame::Prediction(update)) if update.seq == 0
    ));
    assert_eq!(reader.read_frame().unwrap(), Some(Frame::Ack));
    drop(reader);
    drop(client);
    server.shutdown();
    let report = finish_and_check(server);
    assert_eq!(report.cluster.ticks, 1);
    assert_eq!(report.server.protocol_errors, 0);
}

/// A gzipped payload inside a framed `Data` chunk: the same transparent
/// transport decompression applies on the framed path.
#[test]
fn gzipped_data_frame_is_decompressed() {
    let server = Server::start(
        ServerListener::tcp("127.0.0.1:0").unwrap(),
        test_config(1, 4),
    )
    .unwrap();
    let client = TcpStream::connect(server.address()).unwrap();
    let gz = flate2::gzip_stored(&periodic_jsonl(10.0, 12));
    let mut stream = client;
    Frame::Hello {
        name: "gz-app".into(),
    }
    .write_to(&mut stream)
    .unwrap();
    Frame::Subscribe {
        app: None,
        from_seq: None,
    }
    .write_to(&mut stream)
    .unwrap();
    Frame::Data(gz).write_to(&mut stream).unwrap();
    Frame::End.write_to(&mut stream).unwrap();
    stream.flush().unwrap();
    let mut reader = FrameReader::new(stream);
    let mut saw_prediction = false;
    loop {
        match reader.read_frame().unwrap().expect("server closed early") {
            Frame::Welcome { .. } => {}
            Frame::Prediction(update) => {
                saw_prediction = true;
                let period = update.period.expect("periodic input");
                assert!((period - 10.0).abs() < 1.5, "period {period}");
            }
            Frame::Ack => break,
            other => panic!("unexpected frame {other:?}"),
        }
    }
    assert!(saw_prediction);
    server.shutdown();
    let report = finish_and_check(server);
    assert_eq!(report.server.data_frames, 1);
    assert_eq!(report.server.protocol_errors, 0);
}

#[cfg(unix)]
#[test]
fn malformed_frame_closes_only_the_offending_connection() {
    let path = socket_path("malformed");
    let server = Server::start(ServerListener::unix(&path).unwrap(), test_config(2, 8)).unwrap();

    // The well-behaved client, streaming slowly in a thread.
    let path_good = path.clone();
    let good = std::thread::spawn(move || {
        framed_session(
            UnixStream::connect(&path_good).unwrap(),
            "good-app",
            &periodic_jsonl(10.0, 12),
            2,
        )
    });

    // The hostile client: a valid hello, then garbage with a bad magic.
    let mut bad = UnixStream::connect(&path).unwrap();
    Frame::Hello {
        name: "bad-app".into(),
    }
    .write_to(&mut bad)
    .unwrap();
    bad.write_all(&[FRAME_MAGIC[0], 0x99, 2, 0, 0, 0, 0, 0xAB])
        .unwrap();
    bad.flush().unwrap();
    let mut reader = FrameReader::new(&mut bad);
    // The hello's Welcome arrives first, then the positioned error.
    assert!(matches!(
        reader.read_frame().unwrap(),
        Some(Frame::Welcome { .. })
    ));
    match reader.read_frame().unwrap() {
        Some(Frame::Error { message, .. }) => {
            assert!(
                message.contains("position"),
                "unpositioned error: {message}"
            );
        }
        other => panic!("expected a positioned error frame, got {other:?}"),
    }
    // The server closed the hostile connection (a clean EOF, or a reset when
    // the unread garbage was still in the server's receive buffer).
    match reader.read_frame() {
        Ok(None) | Err(_) => {}
        Ok(Some(frame)) => panic!("connection not closed, got {frame:?}"),
    }

    // ...while the good client was served to completion.
    let predictions = good.join().unwrap();
    assert_eq!(predictions.len(), 2);
    assert!((predictions.last().unwrap().period.unwrap() - 10.0).abs() < 1.5);

    let stats = shutdown_via_client(UnixStream::connect(&path).unwrap());
    assert!(stats.is_balanced(), "{stats:?}");
    let report = finish_and_check(server);
    assert_eq!(report.server.protocol_errors, 1);
    assert_eq!(report.server.accepted, 3);
}

#[cfg(unix)]
#[test]
fn disconnect_mid_frame_does_not_disturb_other_connections() {
    let path = socket_path("disconnect");
    let server = Server::start(ServerListener::unix(&path).unwrap(), test_config(2, 8)).unwrap();

    // The vanishing client: announce a large data frame, send half, hang up.
    let mut ghost = UnixStream::connect(&path).unwrap();
    Frame::Hello {
        name: "ghost".into(),
    }
    .write_to(&mut ghost)
    .unwrap();
    let payload = periodic_jsonl(10.0, 12);
    let encoded = Frame::Data(payload).encode();
    ghost.write_all(&encoded[..encoded.len() / 2]).unwrap();
    ghost.flush().unwrap();
    // Half-close: the server sees EOF mid-frame (keeping our read half open
    // lets its Welcome and the positioned error frame go out normally).
    ghost.shutdown(std::net::Shutdown::Write).unwrap();

    // A full session on a second connection still works end to end.
    let predictions = framed_session(
        UnixStream::connect(&path).unwrap(),
        "survivor",
        &periodic_jsonl(10.0, 12),
        2,
    );
    assert_eq!(predictions.len(), 2);

    let stats = shutdown_via_client(UnixStream::connect(&path).unwrap());
    assert!(stats.is_balanced(), "{stats:?}");
    drop(ghost);
    let report = finish_and_check(server);
    // The mid-frame EOF is a protocol error; the ghost's half-frame never
    // reached the engine.
    assert_eq!(report.server.protocol_errors, 1);
    assert_eq!(report.cluster.ticks, 2);
}

#[cfg(unix)]
#[test]
fn connections_over_the_limit_are_rejected_with_an_error_frame() {
    let path = socket_path("limit");
    // Limit 2: two parked connections fill the daemon.
    let server = Server::start(ServerListener::unix(&path).unwrap(), test_config(1, 2)).unwrap();

    let hold_a = UnixStream::connect(&path).unwrap();
    let hold_b = UnixStream::connect(&path).unwrap();
    // The holders must be *counted* before the third connect: send a byte and
    // wait until the server reports two active connections.
    for mut hold in [&hold_a, &hold_b] {
        Frame::Hello {
            name: "holder".into(),
        }
        .write_to(&mut hold)
        .unwrap();
    }
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.server_stats().active < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "holders never counted"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    let rejected = UnixStream::connect(&path).unwrap();
    let mut reader = FrameReader::new(rejected);
    match reader.read_frame().unwrap() {
        Some(Frame::Error {
            message,
            retry_after_ms,
        }) => {
            assert!(message.contains("connection limit"), "{message}");
            assert!(retry_after_ms.is_some(), "limit rejections hint a retry");
        }
        other => panic!("expected a limit error, got {other:?}"),
    }
    assert_eq!(reader.read_frame().unwrap(), None, "rejected socket closed");

    // Releasing a holder frees a slot: the next client is served normally.
    drop(hold_a);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while server.server_stats().active >= 2 {
        assert!(std::time::Instant::now() < deadline, "slot never freed");
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let predictions = framed_session(
        UnixStream::connect(&path).unwrap(),
        "late-app",
        &periodic_jsonl(10.0, 12),
        1,
    );
    assert_eq!(predictions.len(), 1);

    drop(hold_b);
    server.shutdown();
    let report = finish_and_check(server);
    assert_eq!(report.server.rejected_connections, 1);
    assert_eq!(report.cluster.ticks, 1);
}

/// A TCP session end to end, also under a resume ring smaller than what the
/// session publishes: the report retains the app's last `resume_ring`
/// predictions and still counts every one it published.
#[test]
fn tcp_smoke_round_trip() {
    for (resume_ring, frames) in [(DEFAULT_RESUME_RING, 2), (2, 10)] {
        let mut config = test_config(2, 4);
        config.cluster.resume_ring = resume_ring;
        let server = Server::start(ServerListener::tcp("127.0.0.1:0").unwrap(), config).unwrap();
        let predictions = framed_session(
            TcpStream::connect(server.address()).unwrap(),
            "tcp-app",
            &periodic_jsonl(10.0, 12),
            frames,
        );
        assert_eq!(predictions.len(), frames);
        let stats = shutdown_via_client(TcpStream::connect(server.address()).unwrap());
        assert!(stats.is_balanced(), "{stats:?}");
        let report = finish_and_check(server);
        assert_eq!(report.server.accepted, 2);
        assert_balanced(&report.cluster);
        let app = AppId::from_name("tcp-app");
        assert_eq!(report.predictions[&app].len(), frames.min(resume_ring));
        assert_eq!(report.published[&app], frames as u64);
    }
}

//! Chaos tests: the serving layer under deterministic hostile traffic.
//!
//! Everything here drives a *real* daemon over real sockets — no mocks — and
//! pins the robustness contracts of the hardening work:
//!
//! * **Deadlines** — a client stalled mid-frame is evicted within the read
//!   deadline while concurrent healthy clients are served to completion; a
//!   connection idle past the idle deadline evicts itself, with or without a
//!   read timeout, even while trickling bytes, but not while it is being
//!   pushed predictions; a daemon on the wildcard address shuts down
//!   promptly.
//! * **Resumable subscriptions** — a subscriber that reconnects with
//!   `Subscribe{from_seq}` receives exactly the predictions it missed (no
//!   gaps, no duplicates), end to end.
//! * **Fault injection** — every seeded [`FaultPlan`] run preserves the
//!   engine accounting invariant and a blast radius of one connection: the
//!   chaotic client may lose its own session, never anybody else's.
//! * **Decode totality** — seeded random bytes thrown at the frame decoder
//!   error out; they never panic and never get accepted as a frame.
//! * **Overload and quotas** — tenant budgets reject at Hello time, byte
//!   budgets shed `Data` frames with a retryable error while the connection
//!   lives on, and `Shutdown` during active ingest always drains balanced.
//!
//! The slow-subscriber tests fill real socket buffers, so they are
//! `#[ignore]`d by default; the CI `chaos` lane runs them in release with
//! `--include-ignored`.

use std::io::{Read, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

use ftio_core::server::{
    Server, ServerConfig, ServerListener, ServerReport, SlowSubscriberPolicy, TenantPolicy,
    TenantQuota,
};
use ftio_core::{ClusterConfig, ClusterStats, FtioConfig, WindowStrategy};
use ftio_trace::wire::{Frame, FrameReader, PredictionUpdate, FRAME_MAGIC};
use ftio_trace::{jsonl, AppId, FaultPlan, FaultStream, IoRequest};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A hardened test daemon: snappy deadlines so eviction is observable in
/// test time, one tick per data frame so the counters are exact.
fn chaos_config() -> ServerConfig {
    ServerConfig {
        max_connections: 16,
        batch_size: 256,
        read_timeout: Some(Duration::from_millis(150)),
        write_timeout: Some(Duration::from_secs(2)),
        idle_timeout: Some(Duration::from_secs(30)),
        cluster: ClusterConfig {
            shards: 2,
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

/// One burst as a self-contained jsonl chunk, offset in time so successive
/// chunks continue the same periodic signal.
fn burst_jsonl(period: f64, index: usize) -> Vec<u8> {
    let start = index as f64 * period;
    jsonl::encode_requests(&[IoRequest::write(0, start, start + 2.0, 1_000_000_000)]).into_bytes()
}

/// Full healthy framed session: hello, subscribe, stream, end, collect until
/// ack. Skips the Welcome.
fn framed_session<S: Read + Write>(
    mut stream: S,
    name: &str,
    payload: &[u8],
    frames: usize,
) -> Vec<PredictionUpdate> {
    Frame::Hello { name: name.into() }
        .write_to(&mut stream)
        .unwrap();
    Frame::Subscribe {
        app: Some(AppId::from_name(name)),
        from_seq: None,
    }
    .write_to(&mut stream)
    .unwrap();
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
            Frame::Welcome { .. } => {}
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
            Some(Frame::Welcome { .. }) | Some(Frame::Prediction(_)) => continue,
            Some(Frame::Stats(stats)) => return stats,
            other => panic!("expected stats, got {other:?}"),
        }
    }
}

/// Waits for `server.wait()` off-thread with a hard deadline, so a hang
/// fails the test instead of wedging the suite.
fn wait_with_deadline(server: Server, deadline: Duration) -> ServerReport {
    let handle = std::thread::spawn(move || server.wait());
    let end = Instant::now() + deadline;
    while !handle.is_finished() {
        assert!(Instant::now() < end, "server.wait() hung past {deadline:?}");
        std::thread::sleep(Duration::from_millis(20));
    }
    handle.join().expect("wait thread panicked")
}

fn poll_until(deadline: Duration, what: &str, mut check: impl FnMut() -> bool) {
    let end = Instant::now() + deadline;
    while !check() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[cfg(unix)]
fn socket_path(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ftio_chaos_{name}.sock"))
}

// ---------------------------------------------------------------------------
// Deadlines & liveness
// ---------------------------------------------------------------------------

/// The tentpole liveness contract: a client that sends half a frame and goes
/// quiet is evicted within the read deadline — with a positioned error —
/// while a concurrent healthy client is served to completion.
#[test]
fn stalled_mid_frame_client_is_evicted_while_others_are_served() {
    let server =
        Server::start(ServerListener::tcp("127.0.0.1:0").unwrap(), chaos_config()).unwrap();
    let address = server.address().to_string();

    // The healthy client, streaming concurrently in a thread.
    let healthy_address = address.clone();
    let healthy = std::thread::spawn(move || {
        framed_session(
            TcpStream::connect(&healthy_address).unwrap(),
            "healthy",
            &periodic_jsonl(10.0, 12),
            3,
        )
    });

    // The stalled client: a complete hello, then half a data frame, then
    // silence.
    let mut stalled = TcpStream::connect(&address).unwrap();
    Frame::Hello {
        name: "staller".into(),
    }
    .write_to(&mut stalled)
    .unwrap();
    let encoded = Frame::Data(periodic_jsonl(10.0, 12)).encode();
    stalled.write_all(&encoded[..encoded.len() / 2]).unwrap();
    stalled.flush().unwrap();

    // The server must evict within the 150 ms read deadline (plus margin for
    // scheduling): Welcome, then the positioned stall error, then EOF.
    let evicted_at = Instant::now();
    let mut reader = FrameReader::new(&stalled);
    assert!(matches!(
        reader.read_frame().unwrap(),
        Some(Frame::Welcome { .. })
    ));
    match reader.read_frame().unwrap() {
        Some(Frame::Error {
            message,
            retry_after_ms,
        }) => {
            assert!(message.contains("stalled mid-frame"), "{message}");
            assert!(message.contains("byte"), "unpositioned: {message}");
            assert_eq!(retry_after_ms, None, "a stall is not retryable");
        }
        other => panic!("expected the stall error, got {other:?}"),
    }
    match reader.read_frame() {
        Ok(None) | Err(_) => {}
        Ok(Some(frame)) => panic!("connection not closed after eviction: {frame:?}"),
    }
    assert!(
        evicted_at.elapsed() < Duration::from_secs(3),
        "eviction took {:?}, deadline is 150 ms",
        evicted_at.elapsed()
    );

    // Blast radius: the healthy session never noticed.
    let predictions = healthy.join().unwrap();
    assert_eq!(predictions.len(), 3);
    assert!((predictions.last().unwrap().period.unwrap() - 10.0).abs() < 1.5);

    let stats = shutdown_via_client(TcpStream::connect(&address).unwrap());
    assert!(stats.is_balanced(), "{stats:?}");
    let report = wait_with_deadline(server, Duration::from_secs(20));
    assert_eq!(report.server.evicted_stalled, 1);
    assert_balanced(&report.cluster);
}

/// A connection that completes no frame for the idle deadline is evicted by
/// its own reader, without being charged as a protocol error.
#[test]
fn idle_connection_is_swept_after_the_idle_deadline() {
    let config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(200)),
        read_timeout: Some(Duration::from_millis(50)),
        ..chaos_config()
    };
    let server = Server::start(ServerListener::tcp("127.0.0.1:0").unwrap(), config).unwrap();
    let mut idler = TcpStream::connect(server.address()).unwrap();
    Frame::Hello {
        name: "idler".into(),
    }
    .write_to(&mut idler)
    .unwrap();
    idler.flush().unwrap();
    // Hello is answered, then nothing more happens on this connection: the
    // sweep closes it and the read sees EOF.
    let mut reader = FrameReader::new(&idler);
    assert!(matches!(
        reader.read_frame().unwrap(),
        Some(Frame::Welcome { .. })
    ));
    let swept_at = Instant::now();
    match reader.read_frame() {
        Ok(None) | Err(_) => {}
        Ok(Some(frame)) => panic!("expected the sweep to close the socket, got {frame:?}"),
    }
    assert!(
        swept_at.elapsed() < Duration::from_secs(5),
        "sweep took {:?}, deadline is 200 ms",
        swept_at.elapsed()
    );
    poll_until(Duration::from_secs(5), "idle eviction counted", || {
        server.server_stats().evicted_idle == 1
    });
    let report = server.finish();
    assert_eq!(report.server.evicted_idle, 1);
    assert_eq!(report.server.protocol_errors, 0, "idle is not an offence");
    assert_balanced(&report.cluster);
}

/// Without a read timeout the idle deadline alone bounds each read, so an
/// idle connection is still woken and evicted as idle.
#[test]
fn idle_connection_is_evicted_without_a_read_timeout() {
    let config = ServerConfig {
        read_timeout: None,
        idle_timeout: Some(Duration::from_millis(200)),
        ..chaos_config()
    };
    let server = Server::start(ServerListener::tcp("127.0.0.1:0").unwrap(), config).unwrap();
    let mut idler = TcpStream::connect(server.address()).unwrap();
    // A client deadline turns a daemon that never evicts into a failed
    // timing assertion instead of a hang.
    idler
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    Frame::Hello {
        name: "idler".into(),
    }
    .write_to(&mut idler)
    .unwrap();
    let mut reader = FrameReader::new(&idler);
    assert!(matches!(
        reader.read_frame().unwrap(),
        Some(Frame::Welcome { .. })
    ));
    let idle_since = Instant::now();
    if let Ok(Some(frame)) = reader.read_frame() {
        panic!("expected the eviction to close the socket, got {frame:?}");
    }
    assert!(
        idle_since.elapsed() < Duration::from_secs(5),
        "eviction took {:?}",
        idle_since.elapsed()
    );
    poll_until(Duration::from_secs(5), "idle eviction counted", || {
        server.server_stats().evicted_idle == 1
    });
    let report = server.finish();
    assert_eq!(report.server.evicted_stalled, 0);
    assert_eq!(report.server.protocol_errors, 0);
}

/// A client that trickles a frame one byte at a time, each byte well inside
/// the read deadline, never times out a read. Having completed no frame for
/// the idle deadline, it is evicted as idle all the same.
#[test]
fn trickling_client_is_evicted_once_idle() {
    let config = ServerConfig {
        read_timeout: Some(Duration::from_millis(200)),
        idle_timeout: Some(Duration::from_millis(300)),
        ..chaos_config()
    };
    let server = Server::start(ServerListener::tcp("127.0.0.1:0").unwrap(), config).unwrap();
    let mut trickler = TcpStream::connect(server.address()).unwrap();
    let started = Instant::now();
    for byte in Frame::Data(periodic_jsonl(10.0, 12)).encode() {
        if server.server_stats().evicted_idle == 1 || trickler.write_all(&[byte]).is_err() {
            break;
        }
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "a trickling client outlived a 300 ms idle deadline"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    poll_until(Duration::from_secs(5), "idle eviction counted", || {
        server.server_stats().evicted_idle == 1
    });
    let report = server.finish();
    assert_eq!(report.server.evicted_stalled, 0);
    assert_eq!(report.server.protocol_errors, 0);
}

/// A subscriber that sends nothing but is pushed a prediction every 100 ms
/// makes progress: it outlives an idle deadline of 300 ms, and is evicted
/// as idle once the pushes stop.
#[test]
fn subscriber_fed_by_pushes_is_not_idle_until_they_stop() {
    let config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(300)),
        ..chaos_config()
    };
    let server = Server::start(ServerListener::tcp("127.0.0.1:0").unwrap(), config).unwrap();
    let mut feeder = TcpStream::connect(server.address()).unwrap();
    Frame::Hello { name: "fed".into() }
        .write_to(&mut feeder)
        .unwrap();
    // Read the Welcome: closing on unread bytes would reset the connection.
    assert!(matches!(
        FrameReader::new(&feeder).read_frame().unwrap(),
        Some(Frame::Welcome { .. })
    ));

    let mut watcher = TcpStream::connect(server.address()).unwrap();
    watcher
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    Frame::Hello {
        name: "watcher".into(),
    }
    .write_to(&mut watcher)
    .unwrap();
    Frame::Subscribe {
        app: Some(AppId::from_name("fed")),
        from_seq: None,
    }
    .write_to(&mut watcher)
    .unwrap();
    // The Ack of an `End` sent after the Subscribe proves the subscription
    // is registered before the first push is published.
    Frame::End.write_to(&mut watcher).unwrap();
    let mut pushes = FrameReader::new(&watcher);
    assert!(matches!(
        pushes.read_frame().unwrap(),
        Some(Frame::Welcome { .. })
    ));
    assert_eq!(pushes.read_frame().unwrap(), Some(Frame::Ack));
    // One push every 100 ms for 1.2 s: four idle deadlines of silence from
    // the watcher itself.
    for i in 0..12 {
        Frame::Data(burst_jsonl(10.0, i))
            .write_to(&mut feeder)
            .unwrap();
        match pushes.read_frame().unwrap() {
            Some(Frame::Prediction(update)) => assert_eq!(update.seq, i as u64),
            other => panic!("expected push {i}, got {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    drop(feeder); // a clean close, not an eviction
    assert_eq!(server.server_stats().evicted_idle, 0);

    let quiet_since = Instant::now();
    if let Ok(Some(frame)) = pushes.read_frame() {
        panic!("expected the eviction to close the socket, got {frame:?}");
    }
    assert!(
        quiet_since.elapsed() < Duration::from_secs(5),
        "eviction took {:?}",
        quiet_since.elapsed()
    );
    poll_until(Duration::from_secs(5), "idle eviction counted", || {
        server.server_stats().evicted_idle == 1
    });
    let report = server.finish();
    assert_eq!(report.server.protocol_errors, 0);
    assert_balanced(&report.cluster);
}

/// A daemon bound to the wildcard address is woken over loopback at
/// shutdown, and the wake-up connection is neither counted nor served.
#[test]
fn wildcard_tcp_daemon_shuts_down_promptly() {
    let server = Server::start(ServerListener::tcp("0.0.0.0:0").unwrap(), chaos_config()).unwrap();
    let port = server.address().rsplit(':').next().unwrap().to_string();
    let predictions = framed_session(
        TcpStream::connect(format!("127.0.0.1:{port}")).unwrap(),
        "wildcard",
        &periodic_jsonl(10.0, 12),
        2,
    );
    assert_eq!(predictions.len(), 2);
    server.shutdown();
    let report = wait_with_deadline(server, Duration::from_secs(5));
    assert_eq!(report.server.accepted, 1);
    assert_balanced(&report.cluster);
}

// ---------------------------------------------------------------------------
// Resumable sequenced subscriptions
// ---------------------------------------------------------------------------

/// The tentpole resume contract, end to end: predictions carry dense
/// sequence numbers; a subscriber that comes back with `Subscribe{from_seq}`
/// receives exactly the missed updates — replayed from the ring — and then
/// the live tail, with no gap and no duplicate at the splice point.
#[test]
fn reconnecting_subscriber_resumes_exactly_where_it_left_off() {
    let server =
        Server::start(ServerListener::tcp("127.0.0.1:0").unwrap(), chaos_config()).unwrap();
    let address = server.address().to_string();
    let app = "resume-app";

    // The feeder connection, kept open across both phases.
    let mut feeder = TcpStream::connect(&address).unwrap();
    Frame::Hello { name: app.into() }
        .write_to(&mut feeder)
        .unwrap();
    let mut feeder_reader = FrameReader::new(feeder.try_clone().unwrap());
    assert!(matches!(
        feeder_reader.read_frame().unwrap(),
        Some(Frame::Welcome { .. })
    ));
    let mut feed = |from: usize, to: usize| {
        for i in from..to {
            Frame::Data(burst_jsonl(10.0, i))
                .write_to(&mut feeder)
                .unwrap();
        }
        Frame::End.write_to(&mut feeder).unwrap();
        feeder.flush().unwrap();
        match feeder_reader.read_frame().unwrap() {
            Some(Frame::Ack) => {}
            other => panic!("expected ack, got {other:?}"),
        }
    };

    // Phase 1: four predictions (seqs 0..4) happen while nobody watches.
    feed(0, 4);

    // The subscriber arrives late. Its Welcome advertises the window, and
    // resuming from seq 2 replays exactly 2 and 3.
    let mut subscriber = TcpStream::connect(&address).unwrap();
    Frame::Hello { name: app.into() }
        .write_to(&mut subscriber)
        .unwrap();
    subscriber.flush().unwrap();
    let mut sub_reader = FrameReader::new(subscriber.try_clone().unwrap());
    match sub_reader.read_frame().unwrap() {
        Some(Frame::Welcome {
            app: welcomed,
            oldest_seq,
            next_seq,
        }) => {
            assert_eq!(welcomed, AppId::from_name(app));
            assert_eq!((oldest_seq, next_seq), (0, 4), "4 retained predictions");
        }
        other => panic!("expected welcome, got {other:?}"),
    }
    Frame::Subscribe {
        app: Some(AppId::from_name(app)),
        from_seq: Some(2),
    }
    .write_to(&mut subscriber)
    .unwrap();
    subscriber.flush().unwrap();

    let mut received = Vec::new();
    for _ in 0..2 {
        match sub_reader.read_frame().unwrap() {
            Some(Frame::Prediction(update)) => received.push(update),
            other => panic!("expected a replayed prediction, got {other:?}"),
        }
    }

    // Phase 2: four more predictions arrive live (seqs 4..8).
    feed(4, 8);
    for _ in 0..4 {
        match sub_reader.read_frame().unwrap() {
            Some(Frame::Prediction(update)) => received.push(update),
            other => panic!("expected a live prediction, got {other:?}"),
        }
    }

    // Exactly the missed predictions, then the live tail: 2..8, dense.
    let seqs: Vec<u64> = received.iter().map(|p| p.seq).collect();
    assert_eq!(
        seqs,
        vec![2, 3, 4, 5, 6, 7],
        "gap or duplicate at the splice"
    );
    assert!(received.iter().all(|p| p.app == AppId::from_name(app)));
    // Replayed updates carry real prediction state, not placeholders: the
    // prediction times are strictly increasing across the splice.
    for pair in received.windows(2) {
        assert!(
            pair[1].time > pair[0].time,
            "prediction times not increasing: {:?}",
            received.iter().map(|p| p.time).collect::<Vec<_>>()
        );
    }

    let stats = shutdown_via_client(TcpStream::connect(&address).unwrap());
    assert!(stats.is_balanced(), "{stats:?}");
    let report = wait_with_deadline(server, Duration::from_secs(20));
    assert_eq!(report.server.resumed_subscriptions, 1);
    assert_eq!(report.cluster.ticks, 8);
    assert_balanced(&report.cluster);
}

// ---------------------------------------------------------------------------
// Deterministic fault injection
// ---------------------------------------------------------------------------

/// The fault matrix: for every seeded plan, a chaotic client runs a full
/// session through the injector while a healthy client runs beside it. The
/// chaotic session may fail — that is the point — but the accounting
/// invariant must survive and the healthy session must complete untouched.
#[test]
fn seeded_fault_plans_preserve_the_invariant_and_the_blast_radius() {
    let plans = [
        // Byte-level turbulence only: the session must actually succeed.
        ("seed=5,short=0.6,interrupt=0.3", true),
        // Bit flips: the session may die (server-side decode error, client-
        // side broken reply) but must die alone.
        ("seed=9,corrupt=0.02", false),
        // The wire goes dead after 900 bytes in either direction.
        ("seed=13,truncate=900", false),
        // Everything at once.
        (
            "seed=17,short=0.5,interrupt=0.2,corrupt=0.05,truncate=1500",
            false,
        ),
    ];
    for (spec, must_succeed) in plans {
        let plan = FaultPlan::parse(spec).unwrap();
        let server =
            Server::start(ServerListener::tcp("127.0.0.1:0").unwrap(), chaos_config()).unwrap();
        let address = server.address().to_string();

        let healthy_address = address.clone();
        let healthy = std::thread::spawn(move || {
            framed_session(
                TcpStream::connect(&healthy_address).unwrap(),
                "bystander",
                &periodic_jsonl(10.0, 12),
                2,
            )
        });

        // The chaotic session, through the injector. Failures are expected
        // for the destructive plans; panics are not.
        let chaotic = std::panic::catch_unwind(|| {
            let stream = TcpStream::connect(&address).unwrap();
            let mut faulted = FaultStream::new(stream, plan.clone());
            let mut run = || -> Result<(), Box<dyn std::error::Error>> {
                Frame::Hello {
                    name: "chaotic".into(),
                }
                .write_to(&mut faulted)?;
                for i in 0..4 {
                    Frame::Data(burst_jsonl(10.0, i)).write_to(&mut faulted)?;
                }
                Frame::End.write_to(&mut faulted)?;
                faulted.flush()?;
                let mut reader = FrameReader::new(&mut faulted);
                loop {
                    match reader.read_frame()? {
                        Some(Frame::Ack) | None => return Ok(()),
                        Some(_) => continue,
                    }
                }
            };
            run().is_ok()
        });
        let outcome = chaotic.expect("fault injection must never panic the client");
        if must_succeed {
            assert!(outcome, "benign plan `{spec}` broke the session");
        }

        // Blast radius: the bystander finished, whatever happened next door.
        let predictions = healthy.join().unwrap();
        assert_eq!(predictions.len(), 2, "plan `{spec}` disturbed a bystander");
        assert!((predictions.last().unwrap().period.unwrap() - 10.0).abs() < 1.5);

        // And the books balance, counting whatever the chaotic client
        // actually managed to submit.
        let stats = shutdown_via_client(TcpStream::connect(&address).unwrap());
        assert!(stats.is_balanced(), "plan `{spec}`: {stats:?}");
        let report = wait_with_deadline(server, Duration::from_secs(30));
        assert_balanced(&report.cluster);
    }
}

/// Decode totality: seeded random garbage — bare, and dressed in a valid
/// frame header — errors out without panicking, across every seed.
#[test]
fn random_bytes_never_panic_the_frame_decoder() {
    for seed in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        // Bare garbage of random length.
        let len = rng.gen_range(1..4096usize);
        let mut bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        let mut reader = FrameReader::new(&bytes[..]);
        // A decoded frame from garbage is astronomically unlikely, still legal.
        while let Ok(Some(_)) = reader.read_frame() {}
        // The same garbage framed under a valid magic + kind + length: the
        // payload decoder must reject it rather than crash.
        let kind = rng.gen_range(0..32u8);
        let payload_len = (bytes.len() as u32).to_be_bytes();
        let mut framed = vec![FRAME_MAGIC[0], FRAME_MAGIC[1], kind];
        framed.extend_from_slice(&payload_len);
        framed.append(&mut bytes);
        let mut reader = FrameReader::new(&framed[..]);
        while let Ok(Some(_)) = reader.read_frame() {}
    }
}

// ---------------------------------------------------------------------------
// Shutdown under load
// ---------------------------------------------------------------------------

/// `Shutdown` while several connections are mid-ingest: the daemon must
/// drain and report balanced books, never hang, and the feeders must all
/// come unstuck.
#[test]
fn shutdown_during_active_ingest_drains_balanced() {
    // A fixed analysis window keeps the drain-time ticks cheap no matter how
    // far the feeders' burst clocks ran ahead — this test is about shutdown
    // semantics, not detection quality.
    let config = ServerConfig {
        cluster: ClusterConfig {
            strategy: WindowStrategy::Fixed { length: 100.0 },
            ..chaos_config().cluster
        },
        ..chaos_config()
    };
    let server = Server::start(ServerListener::tcp("127.0.0.1:0").unwrap(), config).unwrap();
    let address = server.address().to_string();

    let mut feeders = Vec::new();
    for worker in 0..3 {
        let address = address.clone();
        feeders.push(std::thread::spawn(move || {
            let Ok(mut stream) = TcpStream::connect(&address) else {
                return;
            };
            let hello = Frame::Hello {
                name: format!("flood-{worker}"),
            };
            if hello.write_to(&mut stream).is_err() {
                return;
            }
            // Flood until the daemon hangs up on us. The write deadline
            // matters: a flooded connection ends up with a zero receive
            // window, and a client blocked in `write` with no deadline only
            // learns of the close when a persist-mode window probe finally
            // meets the dead socket — minutes later. Deadlines everywhere,
            // client side included.
            stream
                .set_write_timeout(Some(Duration::from_secs(1)))
                .unwrap();
            for i in 0.. {
                if Frame::Data(burst_jsonl(10.0, i))
                    .write_to(&mut stream)
                    .is_err()
                {
                    return;
                }
            }
        }));
    }

    // Let the flood develop, then pull the plug mid-stream.
    poll_until(Duration::from_secs(10), "ingest to start", || {
        server.cluster_stats().submitted > 10
    });
    let stats = shutdown_via_client(TcpStream::connect(&address).unwrap());
    assert!(stats.is_balanced(), "{stats:?}");

    // The feeders must come unstuck promptly — their own write deadline
    // bounds how long a blocked flood outlives the daemon.
    let unstuck = Instant::now();
    for feeder in feeders {
        feeder.join().expect("feeder panicked");
    }
    assert!(
        unstuck.elapsed() < Duration::from_secs(10),
        "feeders stayed stuck {:?} after shutdown",
        unstuck.elapsed()
    );
    let report = wait_with_deadline(server, Duration::from_secs(30));
    assert_balanced(&report.cluster);
    assert!(report.cluster.submitted > 10);
}

// ---------------------------------------------------------------------------
// Tenant quotas & overload shedding
// ---------------------------------------------------------------------------

fn tenant_config(tenant: &str, quota: TenantQuota) -> ServerConfig {
    let mut tenants = TenantPolicy::default();
    tenants.tenants.insert(tenant.into(), quota);
    ServerConfig {
        tenants,
        ..chaos_config()
    }
}

/// Two concurrent Hellos from one budgeted tenant: exactly one is admitted.
/// Releasing the slot lets the next connection in.
#[test]
fn tenant_connection_quota_is_enforced_at_hello_time() {
    let config = tenant_config(
        "acme",
        TenantQuota {
            max_connections: 1,
            ..Default::default()
        },
    );
    let server = Server::start(ServerListener::tcp("127.0.0.1:0").unwrap(), config).unwrap();
    let address = server.address().to_string();

    let mut first = TcpStream::connect(&address).unwrap();
    Frame::Hello {
        name: "acme/run-1".into(),
    }
    .write_to(&mut first)
    .unwrap();
    let mut first_reader = FrameReader::new(first.try_clone().unwrap());
    assert!(matches!(
        first_reader.read_frame().unwrap(),
        Some(Frame::Welcome { .. })
    ));

    // Second connection of the same tenant: bounced with a typed error.
    let mut second = TcpStream::connect(&address).unwrap();
    Frame::Hello {
        name: "acme/run-2".into(),
    }
    .write_to(&mut second)
    .unwrap();
    let mut second_reader = FrameReader::new(second);
    match second_reader.read_frame().unwrap() {
        Some(Frame::Error { message, .. }) => {
            assert!(message.contains("connection quota"), "{message}");
        }
        other => panic!("expected the quota error, got {other:?}"),
    }

    // A different tenant is exempt (no budget configured for it).
    let mut other = TcpStream::connect(&address).unwrap();
    Frame::Hello {
        name: "zen/run-1".into(),
    }
    .write_to(&mut other)
    .unwrap();
    let mut other_reader = FrameReader::new(other.try_clone().unwrap());
    assert!(matches!(
        other_reader.read_frame().unwrap(),
        Some(Frame::Welcome { .. })
    ));

    // Releasing acme's slot admits the tenant again. The tenant slot is
    // released before the `active` counter drops, so `active == 1` (only the
    // zen connection left) proves the slot is free.
    drop(first_reader);
    drop(first);
    poll_until(Duration::from_secs(5), "slot release", || {
        server.server_stats().active == 1
    });
    let mut third = TcpStream::connect(&address).unwrap();
    Frame::Hello {
        name: "acme/run-3".into(),
    }
    .write_to(&mut third)
    .unwrap();
    let mut third_reader = FrameReader::new(third.try_clone().unwrap());
    assert!(matches!(
        third_reader.read_frame().unwrap(),
        Some(Frame::Welcome { .. })
    ));

    drop(third_reader);
    drop(third);
    drop(other_reader);
    let report = server.finish();
    assert_eq!(report.server.quota_rejections, 1);
    assert_balanced(&report.cluster);
}

/// An exhausted tenant byte budget sheds the `Data` frame with a retryable
/// error — and the connection lives on to send within budget and flush.
#[test]
fn rate_limited_data_is_shed_with_a_retry_hint_and_the_connection_survives() {
    let config = tenant_config(
        "metered",
        TenantQuota {
            bytes_per_sec: 1000.0,
            burst_bytes: 1000.0,
            ..Default::default()
        },
    );
    let server = Server::start(ServerListener::tcp("127.0.0.1:0").unwrap(), config).unwrap();
    let mut client = TcpStream::connect(server.address()).unwrap();
    Frame::Hello {
        name: "metered/app".into(),
    }
    .write_to(&mut client)
    .unwrap();
    let mut reader = FrameReader::new(client.try_clone().unwrap());
    assert!(matches!(
        reader.read_frame().unwrap(),
        Some(Frame::Welcome { .. })
    ));

    // Far over the 1000-byte burst: refused with a proportional retry hint.
    let oversized = periodic_jsonl(10.0, 40);
    assert!(oversized.len() > 2000, "test payload too small");
    Frame::Data(oversized).write_to(&mut client).unwrap();
    client.flush().unwrap();
    match reader.read_frame().unwrap() {
        Some(Frame::Error {
            message,
            retry_after_ms,
        }) => {
            assert!(message.contains("byte budget"), "{message}");
            let wait = retry_after_ms.expect("rate limiting is retryable");
            assert!(wait >= 100, "retry hint {wait}ms for a >1000-byte deficit");
        }
        other => panic!("expected the budget error, got {other:?}"),
    }

    // The connection is still alive and serves within-budget data.
    let small = burst_jsonl(10.0, 0);
    assert!(small.len() < 500, "within burst");
    Frame::Data(small).write_to(&mut client).unwrap();
    Frame::End.write_to(&mut client).unwrap();
    client.flush().unwrap();
    loop {
        match reader.read_frame().unwrap() {
            Some(Frame::Ack) => break,
            Some(Frame::Prediction(_)) => continue,
            other => panic!("expected ack, got {other:?}"),
        }
    }

    drop(reader);
    drop(client);
    let report = server.finish();
    assert_eq!(report.server.rate_limited, 1);
    assert_eq!(report.server.protocol_errors, 0);
    assert_eq!(
        report.cluster.ticks, 1,
        "only the within-budget frame ticked"
    );
    assert_balanced(&report.cluster);
}

// ---------------------------------------------------------------------------
// Slow subscribers (socket-buffer-filling: chaos lane only)
// ---------------------------------------------------------------------------

/// Config for the slow-subscriber tests: tiny push queue, cheap ticks (fixed
/// analysis window keeps the per-tick FFT small however many bursts flow).
fn slow_subscriber_config(policy: SlowSubscriberPolicy) -> ServerConfig {
    ServerConfig {
        push_queue: 4,
        slow_policy: policy,
        write_timeout: Some(Duration::from_millis(500)),
        read_timeout: Some(Duration::from_millis(150)),
        cluster: ClusterConfig {
            shards: 1,
            max_batch: 1,
            strategy: WindowStrategy::Fixed { length: 100.0 },
            ftio: FtioConfig {
                sampling_freq: 2.0,
                use_autocorrelation: false,
                ..Default::default()
            },
            ..Default::default()
        },
        ..chaos_config()
    }
}

/// A subscriber that stops reading entirely: once the socket buffer fills,
/// the pusher's write deadline expires mid-frame and the subscriber is
/// disconnected — the feeder and the engine never block. `#[ignore]`d: fills
/// a real socket buffer (CI chaos lane runs it in release).
#[cfg(unix)]
#[test]
#[ignore = "fills a socket buffer; run in the chaos lane (--include-ignored)"]
fn unresponsive_subscriber_is_disconnected_not_waited_for() {
    let path = socket_path("slow_disconnect");
    let server = Server::start(
        ServerListener::unix(&path).unwrap(),
        slow_subscriber_config(SlowSubscriberPolicy::Disconnect),
    )
    .unwrap();

    // The lazy subscriber: subscribes to everything, reads only its Welcome,
    // then never touches the socket again.
    let mut lazy = UnixStream::connect(&path).unwrap();
    Frame::Hello {
        name: "lazy".into(),
    }
    .write_to(&mut lazy)
    .unwrap();
    Frame::Subscribe {
        app: None,
        from_seq: None,
    }
    .write_to(&mut lazy)
    .unwrap();
    lazy.flush().unwrap();
    let mut lazy_reader = FrameReader::new(lazy.try_clone().unwrap());
    assert!(matches!(
        lazy_reader.read_frame().unwrap(),
        Some(Frame::Welcome { .. })
    ));

    // The feeder floods predictions until the subscriber's socket buffer is
    // full, the pusher's write times out, and the disconnect is counted.
    let mut feeder = UnixStream::connect(&path).unwrap();
    Frame::Hello {
        name: "pump".into(),
    }
    .write_to(&mut feeder)
    .unwrap();
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut sent = 0usize;
    while server.server_stats().slow_disconnects == 0 {
        assert!(
            Instant::now() < deadline,
            "no slow disconnect after {sent} bursts"
        );
        Frame::Data(burst_jsonl(10.0, sent))
            .write_to(&mut feeder)
            .unwrap();
        sent += 1;
        if sent % 64 == 0 {
            feeder.flush().unwrap();
        }
    }
    drop(feeder);

    let report = server.finish();
    assert!(report.server.slow_disconnects >= 1);
    assert_balanced(&report.cluster);
}

/// The drop-oldest policy under the same flood, with a subscriber that reads
/// in slow trickles: the bounded push queue overflows and sheds the oldest
/// updates — observable as a sequence gap at the reader between a delivered
/// prefix and the post-drop tail — instead of growing without bound.
/// `#[ignore]`d: timing-heavy. Run in the chaos lane (`--include-ignored`).
#[cfg(unix)]
#[test]
#[ignore = "fills a socket buffer; run in the chaos lane (--include-ignored)"]
fn slow_subscriber_drop_oldest_sheds_updates_not_memory() {
    let path = socket_path("slow_drop");
    let server = Server::start(
        ServerListener::unix(&path).unwrap(),
        ServerConfig {
            write_timeout: Some(Duration::from_secs(5)),
            ..slow_subscriber_config(SlowSubscriberPolicy::DropOldest)
        },
    )
    .unwrap();

    let mut slow = UnixStream::connect(&path).unwrap();
    Frame::Hello {
        name: "slow".into(),
    }
    .write_to(&mut slow)
    .unwrap();
    Frame::Subscribe {
        app: None,
        from_seq: None,
    }
    .write_to(&mut slow)
    .unwrap();
    slow.flush().unwrap();
    let slow_clone = slow.try_clone().unwrap();

    // Trickle reader: one frame, then a nap. The shared counter lets the
    // main thread see how far the trickle has drained.
    let drained = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let drained_by_reader = drained.clone();
    let trickle = std::thread::spawn(move || {
        let mut reader = FrameReader::new(slow_clone);
        let mut seqs = Vec::new();
        loop {
            match reader.read_frame() {
                Ok(Some(Frame::Prediction(update))) => {
                    seqs.push(update.seq);
                    drained_by_reader.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    std::thread::sleep(Duration::from_millis(20));
                }
                Ok(Some(_)) => continue,
                Ok(None) | Err(_) => return seqs,
            }
        }
    });

    let mut feeder = UnixStream::connect(&path).unwrap();
    Frame::Hello {
        name: "pump".into(),
    }
    .write_to(&mut feeder)
    .unwrap();
    let mut feeder_reader = FrameReader::new(feeder.try_clone().unwrap());
    assert!(matches!(
        feeder_reader.read_frame().unwrap(),
        Some(Frame::Welcome { .. })
    ));

    // Phase 1: a small prefix, fenced by End/Ack (the ack barrier guarantees
    // these predictions are written to the subscriber), then confirmed
    // received — the reader owns seqs 0..3 before any overload starts.
    for i in 0..3 {
        Frame::Data(burst_jsonl(10.0, i))
            .write_to(&mut feeder)
            .unwrap();
    }
    Frame::End.write_to(&mut feeder).unwrap();
    feeder.flush().unwrap();
    match feeder_reader.read_frame().unwrap() {
        Some(Frame::Ack) => {}
        other => panic!("expected ack, got {other:?}"),
    }
    poll_until(Duration::from_secs(30), "prefix delivery", || {
        drained.load(std::sync::atomic::Ordering::SeqCst) >= 3
    });

    // Phase 2: the blast. The engine publishes faster than the pusher's
    // one-write-per-pass cycle, the bounded queue overflows, and the oldest
    // phase-2 updates are shed — everything the reader gets from here on
    // sits beyond a gap.
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut sent = 3usize;
    while server.server_stats().push_dropped == 0 {
        assert!(Instant::now() < deadline, "no drop after {sent} bursts");
        Frame::Data(burst_jsonl(10.0, sent))
            .write_to(&mut feeder)
            .unwrap();
        sent += 1;
        if sent % 64 == 0 {
            feeder.flush().unwrap();
        }
    }
    drop(feeder_reader);
    drop(feeder);

    let dropped = server.server_stats().push_dropped;
    assert!(dropped >= 1);

    // Let the trickle reader cross the gap before pulling the plug: with the
    // feeder gone, the push queue and the socket buffer drain to a
    // standstill, and only then does shutdown close the subscriber.
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut last = (0, Instant::now());
    loop {
        assert!(Instant::now() < deadline, "trickle reader never went idle");
        let now = drained.load(std::sync::atomic::Ordering::SeqCst);
        if now != last.0 {
            last = (now, Instant::now());
        } else if last.1.elapsed() > Duration::from_millis(500) {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }

    server.shutdown();
    let report = wait_with_deadline(server, Duration::from_secs(60));
    assert_balanced(&report.cluster);

    // The reader observed a sequence gap — shed updates, not reordered ones.
    drop(slow);
    let seqs = trickle.join().unwrap();
    assert!(!seqs.is_empty());
    assert!(
        seqs.windows(2).all(|w| w[1] > w[0]),
        "sequence numbers must stay monotonic"
    );
    assert!(
        seqs.windows(2).any(|w| w[1] > w[0] + 1),
        "expected a gap from drop-oldest, got dense {} seqs",
        seqs.len()
    );
}

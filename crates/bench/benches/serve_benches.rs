//! Criterion benchmarks of the serving layer: end-to-end socket ingest
//! throughput — encoded bytes through a real Unix-domain (or loopback TCP)
//! socket, the framed wire protocol, format decoding, the shard queues and
//! the detection ticks (`serve_ingest`), and the concurrent-client sweep
//! (`serve_clients`). EXPERIMENTS.md records the numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::io::Write;

use ftio_core::server::{Server, ServerConfig, ServerListener};
use ftio_core::{BackpressurePolicy, ClusterConfig, FtioConfig, WindowStrategy};
use ftio_synth::client_stream::{ChunkEncoding, FleetStream};
use ftio_synth::multi_app::{MultiAppConfig, MultiAppWorkload};
use ftio_trace::wire::{Frame, FrameReader};

fn server_config(shards: usize) -> ServerConfig {
    ServerConfig {
        max_connections: 64,
        batch_size: 256,
        cluster: ClusterConfig {
            shards,
            queue_capacity: 1024,
            max_batch: 16,
            policy: BackpressurePolicy::Block,
            ftio: FtioConfig {
                sampling_freq: 2.0,
                use_autocorrelation: false,
                ..Default::default()
            },
            // A bounded window keeps per-tick FFT cost constant, so the
            // sweep prices the socket + framing + dispatch path.
            strategy: WindowStrategy::Fixed { length: 300.0 },
            ..ClusterConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn fleet(apps: usize, flushes_per_app: usize) -> FleetStream {
    let workload = MultiAppWorkload::generate(
        &MultiAppConfig {
            apps,
            flushes_per_app,
            ranks_per_app: 4,
            ..Default::default()
        },
        0xBE9C,
    );
    FleetStream::new(&workload, ChunkEncoding::Jsonl)
}

#[cfg(unix)]
fn listener(tag: &str) -> ServerListener {
    ServerListener::unix(std::env::temp_dir().join(format!("ftio_bench_{tag}.sock")))
        .expect("bind bench socket")
}

#[cfg(not(unix))]
fn listener(_tag: &str) -> ServerListener {
    ServerListener::tcp("127.0.0.1:0").expect("bind bench socket")
}

#[cfg(unix)]
fn connect(address: &str) -> impl std::io::Read + std::io::Write {
    std::os::unix::net::UnixStream::connect(address).expect("connect to bench socket")
}

#[cfg(not(unix))]
fn connect(address: &str) -> impl std::io::Read + std::io::Write {
    std::net::TcpStream::connect(address).expect("connect to bench socket")
}

/// One client session: hello, every chunk as a data frame, end, await ack.
fn drive_client(address: &str, name: &str, chunks: &[Vec<u8>]) {
    let mut stream = connect(address);
    Frame::Hello { name: name.into() }
        .write_to(&mut stream)
        .expect("hello");
    for chunk in chunks {
        Frame::Data(chunk.clone())
            .write_to(&mut stream)
            .expect("data");
    }
    Frame::End.write_to(&mut stream).expect("end");
    stream.flush().expect("flush");
    let mut reader = FrameReader::new(stream);
    loop {
        match reader.read_frame().expect("server reply") {
            Some(Frame::Ack) => break,
            Some(_) => continue,
            None => panic!("server closed before the ack"),
        }
    }
}

/// The whole fleet through one server, `clients` concurrent connections.
fn serve_fleet(stream: &FleetStream, shards: usize, tag: &str) -> u64 {
    let server = Server::start(listener(tag), server_config(shards)).expect("start server");
    let address = server.address().to_string();
    let handles: Vec<_> = stream
        .clients()
        .iter()
        .map(|(app, chunks)| {
            let address = address.clone();
            let name = format!("bench-{}", app.raw());
            let payloads: Vec<Vec<u8>> = chunks.iter().map(|chunk| chunk.payload.clone()).collect();
            std::thread::spawn(move || drive_client(&address, &name, &payloads))
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }
    let report = server.finish();
    assert_eq!(report.server.protocol_errors, 0, "bench stream broke");
    report.cluster.submitted
}

fn bench_serve_ingest(c: &mut Criterion) {
    // The vendored criterion stub has no throughput reporting; derive MB/s
    // from the wall time and the printed byte counts when recording
    // EXPERIMENTS.md. The small payload measures session latency (server
    // start, accept, drain, shutdown) and the large one per-byte ingest
    // cost.
    let mut group = c.benchmark_group("serve_ingest");
    group.sample_size(10);
    for (label, flushes) in [("small", 24), ("large", 960)] {
        let stream = fleet(4, flushes);
        println!(
            "serve_ingest/{label} payload: {} bytes",
            stream.total_bytes()
        );
        group.bench_with_input(
            BenchmarkId::new("unix_socket_jsonl_4_apps", label),
            &stream,
            |b, stream| {
                b.iter(|| black_box(serve_fleet(stream, 2, "ingest")));
            },
        );
    }
    group.finish();
}

fn bench_serve_clients(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_clients");
    group.sample_size(10);
    for clients in [1usize, 4, 8] {
        let stream = fleet(clients, 24);
        println!(
            "serve_clients/{clients} payload: {} bytes",
            stream.total_bytes()
        );
        group.bench_with_input(
            BenchmarkId::new("clients", clients),
            &stream,
            |b, stream| {
                b.iter(|| black_box(serve_fleet(stream, 4, "clients")));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_serve_ingest, bench_serve_clients);
criterion_main!(benches);

//! Cross-crate integration tests: the full data path from trace collection
//! through serialisation to detection, and API-level consistency of the
//! umbrella crate.

use ftio::prelude::*;
use ftio_trace::collector::{decode_chunks, Collector, FlushMode, MemorySink, TraceFormat};
use ftio_trace::TraceSink;

/// Builds a periodic trace, pushes it through the collector + a trace format,
/// decodes it again and checks the detected period.
fn roundtrip_and_detect(format: TraceFormat) {
    let mut original = AppTrace::named("roundtrip", 8);
    for i in 0..30 {
        let start = i as f64 * 24.0;
        for rank in 0..8 {
            original.push(IoRequest::write(rank, start, start + 3.0, 250_000_000));
        }
    }

    let collector = Collector::new("roundtrip", 8, FlushMode::Online, TraceFormat::JsonLines);
    let mut sink = MemorySink::new();
    // Flush in several chunks, as the online mode would.
    for chunk in original.requests().chunks(40) {
        collector.record_all(chunk.iter().copied());
        let encoded = match format {
            TraceFormat::JsonLines => ftio_trace::jsonl::encode_requests(chunk).into_bytes(),
            TraceFormat::MessagePack => ftio_trace::msgpack::encode_requests(chunk),
        };
        sink.write_chunk(&encoded);
    }
    let decoded = decode_chunks(sink.chunks(), format).expect("decodable trace");
    assert_eq!(decoded.len(), original.len());

    let trace = AppTrace::from_requests("decoded", 8, decoded);
    let result = detect_trace(&trace, &FtioConfig::with_sampling_freq(1.0));
    let period = result.period().expect("periodic trace");
    assert!((period - 24.0).abs() < 1.5, "period {period}");
}

#[test]
fn jsonl_roundtrip_preserves_detectability() {
    roundtrip_and_detect(TraceFormat::JsonLines);
}

#[test]
fn msgpack_roundtrip_preserves_detectability() {
    roundtrip_and_detect(TraceFormat::MessagePack);
}

#[test]
fn recorder_and_heatmap_paths_agree_with_the_request_path() {
    // The same workload analysed from raw requests, from a Recorder-style
    // text rendering, and from a coarse Darshan-style heatmap must yield
    // compatible periods.
    let mut trace = AppTrace::named("multi-format", 4);
    for i in 0..40 {
        let start = i as f64 * 60.0;
        for rank in 0..4 {
            trace.push(IoRequest::write(rank, start, start + 8.0, 1_000_000_000));
        }
    }
    let from_requests = detect_trace(&trace, &FtioConfig::with_sampling_freq(1.0))
        .period()
        .unwrap();

    let text = ftio_trace::recorder::encode_requests(trace.requests());
    let decoded =
        ftio_trace::source::decode_requests(ftio_trace::SourceFormat::Recorder, text.as_bytes())
            .unwrap();
    let recorder_trace = AppTrace::from_requests("recorder", 4, decoded);
    let from_recorder = detect_trace(&recorder_trace, &FtioConfig::with_sampling_freq(1.0))
        .period()
        .unwrap();

    let heatmap = Heatmap::from_trace(&trace, 10.0);
    let from_heatmap = detect_heatmap(&heatmap, &FtioConfig::default())
        .period()
        .unwrap();

    assert!(
        (from_requests - 60.0).abs() < 3.0,
        "requests {from_requests}"
    );
    assert!(
        (from_recorder - from_requests).abs() < 1e-6,
        "recorder {from_recorder}"
    );
    assert!(
        (from_heatmap - from_requests).abs() < 5.0,
        "heatmap {from_heatmap}"
    );
}

#[test]
fn umbrella_prelude_covers_the_main_workflow() {
    // Detection, simulation and scheduling types are all reachable from the
    // prelude, and compose: simulate a tiny cluster, feed a job's trace to FTIO.
    let jobs = vec![
        JobSpec::periodic("app-a", 16, 1, 40.0, 0.2, 6, 2.0e9),
        JobSpec::periodic("app-b", 16, 1, 55.0, 0.2, 5, 2.0e9),
    ];
    let mut policy = ftio_sim::FairSharePolicy;
    let result = Simulator::new(FileSystem::with_bandwidth(8.0e9), jobs, &mut policy).run();
    assert_eq!(result.jobs.len(), 2);

    let detection = detect_trace(&result.jobs[0].trace, &FtioConfig::with_sampling_freq(1.0));
    let period = detection.period().expect("simulated job is periodic");
    assert!((period - 40.0).abs() < 4.0, "period {period}");
}

#[test]
fn sampling_frequency_recommendation_resolves_the_workload() {
    let library = PhaseLibrary::paper_default(77);
    let generated = ftio_synth::generate_semi_synthetic(
        &SemiSyntheticConfig {
            iterations: 6,
            ..Default::default()
        },
        &library,
        3,
    );
    let fs = ftio_core::recommend_sampling_freq(&generated.trace, 100.0);
    assert!(fs > 0.0 && fs <= 100.0);
    // Using the recommended frequency, detection still finds the right period.
    let result = detect_trace(
        &generated.trace,
        &FtioConfig {
            sampling_freq: fs.min(5.0),
            use_autocorrelation: false,
            ..Default::default()
        },
    );
    let period = result.period().expect("periodic");
    assert!(generated.detection_error(period) < 0.1);
}

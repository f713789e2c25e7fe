//! Checkpoint codecs for the online layer.
//!
//! A snapshot file is an [`ftio_trace::snapshot`] container (magic bytes,
//! format version, payload checksum) whose msgpack payload starts with a
//! *kind* string and then the state of the snapshotted object:
//!
//! * [`KIND_PREDICTOR`] — one [`OnlinePredictor`](crate::online::OnlinePredictor):
//!   analysis config, window strategy, memory policy, the full
//!   [`IncrementalSampler`](crate::sampling::IncrementalSampler) bin buffer
//!   (including retention state), the prediction history, and the
//!   adaptive-window bookkeeping. Produced by
//!   [`OnlinePredictor::snapshot`](crate::online::OnlinePredictor::snapshot).
//!   The layout keeps three slots of options that no longer exist: a tick
//!   mode (written 0), request-retention flags (written 0, and a request list
//!   written with flag 1 is read and dropped) and the sampler's coarse-level
//!   list (written empty). A tick-mode tag 1, a retention tag 2 or a
//!   non-empty level list is a decode error.
//! * [`KIND_CLUSTER`] — a whole [`ClusterEngine`](crate::cluster::ClusterEngine):
//!   the engine configuration, aggregate counters, an opaque replay-progress
//!   cursor, and every per-application predictor state across all shards
//!   (sorted by [`AppId`](ftio_trace::AppId) so identical engine states always
//!   serialise to identical bytes). Produced by
//!   [`ClusterEngine::snapshot`](crate::cluster::ClusterEngine::snapshot).
//!
//! Restore invariants (pinned by tests):
//!
//! * **Bit-for-bit continuation** — a predictor or engine restored from a
//!   snapshot produces exactly the predictions the uninterrupted run would
//!   have produced from that point on: every float in the sampler planes and
//!   the prediction history round-trips through msgpack float64 unchanged.
//! * **Totality on corrupt input** — truncated, bit-flipped or
//!   wrong-kind snapshots fail with a structured
//!   [`TraceError`] carrying the byte offset, never a
//!   panic.
//! * **Fresh prediction rings** — prediction *results* (each app's resume
//!   ring of [`OnlinePrediction`](crate::online::OnlinePrediction)s, the
//!   engine's only prediction store) are deliberately not serialised: they
//!   are outputs already delivered to the consumer, not state the
//!   continuation needs. A restored engine's rings start empty.

use ftio_trace::msgpack::{write_array_header, write_f64, write_uint, Reader};
use ftio_trace::{TraceError, TraceResult};

use crate::cluster::BackpressurePolicy;
use crate::config::{FtioConfig, OutlierMethod};
use crate::online::WindowStrategy;
use crate::sampling::RetentionPolicy;

/// Payload-kind tag of a single-predictor snapshot.
pub const KIND_PREDICTOR: &str = "predictor";

/// Payload-kind tag of a cluster-engine snapshot.
pub const KIND_CLUSTER: &str = "cluster";

/// A positioned [`TraceError::Malformed`] at the reader's current offset.
pub(crate) fn err_at(reader: &Reader<'_>, reason: impl Into<String>) -> TraceError {
    TraceError::malformed(reason, reader.position())
}

pub(crate) fn write_flag(out: &mut Vec<u8>, flag: bool) {
    write_uint(out, u64::from(flag));
}

pub(crate) fn read_flag(reader: &mut Reader<'_>) -> TraceResult<bool> {
    match reader.read_uint()? {
        0 => Ok(false),
        1 => Ok(true),
        other => Err(err_at(reader, format!("expected a 0/1 flag, got {other}"))),
    }
}

pub(crate) fn read_count(reader: &mut Reader<'_>, what: &str) -> TraceResult<usize> {
    let raw = reader.read_uint()?;
    usize::try_from(raw).map_err(|_| err_at(reader, format!("{what} {raw} does not fit in usize")))
}

pub(crate) fn write_opt_f64(out: &mut Vec<u8>, value: Option<f64>) {
    match value {
        Some(v) => {
            write_flag(out, true);
            write_f64(out, v);
        }
        None => write_flag(out, false),
    }
}

pub(crate) fn read_opt_f64(reader: &mut Reader<'_>) -> TraceResult<Option<f64>> {
    if read_flag(reader)? {
        Ok(Some(reader.read_f64()?))
    } else {
        Ok(None)
    }
}

pub(crate) fn write_f64_slice(out: &mut Vec<u8>, values: &[f64]) {
    write_array_header(out, values.len());
    for &value in values {
        write_f64(out, value);
    }
}

pub(crate) fn read_f64_vec(reader: &mut Reader<'_>) -> TraceResult<Vec<f64>> {
    let len = reader.read_array_header()?;
    // Cap the pre-allocation: a corrupted length must hit a clean decode
    // error on the missing elements, not an absurd allocation.
    let mut values = Vec::with_capacity(len.min(1 << 16));
    for _ in 0..len {
        values.push(reader.read_f64()?);
    }
    Ok(values)
}

/// Reads and checks the payload-kind tag at the start of a snapshot payload.
pub(crate) fn expect_kind(reader: &mut Reader<'_>, expected: &str) -> TraceResult<()> {
    let kind = reader.read_str()?;
    if kind == expected {
        Ok(())
    } else {
        Err(err_at(
            reader,
            format!("snapshot holds `{kind}` state, expected `{expected}`"),
        ))
    }
}

pub(crate) fn encode_outlier_method(out: &mut Vec<u8>, method: &OutlierMethod) {
    match *method {
        OutlierMethod::ZScore { threshold } => {
            write_uint(out, 0);
            write_f64(out, threshold);
        }
        OutlierMethod::DbScan {
            eps_factor,
            min_pts,
        } => {
            write_uint(out, 1);
            write_f64(out, eps_factor);
            write_uint(out, min_pts as u64);
        }
        OutlierMethod::Lof { k, threshold } => {
            write_uint(out, 2);
            write_uint(out, k as u64);
            write_f64(out, threshold);
        }
        OutlierMethod::IsolationForest { threshold, seed } => {
            write_uint(out, 3);
            write_f64(out, threshold);
            write_uint(out, seed);
        }
        OutlierMethod::PeakDetection { prominence_factor } => {
            write_uint(out, 4);
            write_f64(out, prominence_factor);
        }
    }
}

pub(crate) fn decode_outlier_method(reader: &mut Reader<'_>) -> TraceResult<OutlierMethod> {
    match reader.read_uint()? {
        0 => Ok(OutlierMethod::ZScore {
            threshold: reader.read_f64()?,
        }),
        1 => Ok(OutlierMethod::DbScan {
            eps_factor: reader.read_f64()?,
            min_pts: read_count(reader, "min_pts")?,
        }),
        2 => Ok(OutlierMethod::Lof {
            k: read_count(reader, "k")?,
            threshold: reader.read_f64()?,
        }),
        3 => Ok(OutlierMethod::IsolationForest {
            threshold: reader.read_f64()?,
            seed: reader.read_uint()?,
        }),
        4 => Ok(OutlierMethod::PeakDetection {
            prominence_factor: reader.read_f64()?,
        }),
        tag => Err(err_at(reader, format!("unknown outlier-method tag {tag}"))),
    }
}

pub(crate) fn encode_config(out: &mut Vec<u8>, config: &FtioConfig) {
    write_f64(out, config.sampling_freq);
    encode_outlier_method(out, &config.outlier_method);
    write_f64(out, config.tolerance);
    write_flag(out, config.use_autocorrelation);
    write_f64(out, config.acf_peak_height);
    write_f64(out, config.acf_outlier_threshold);
    write_flag(out, config.filter_harmonics);
    write_f64(out, config.harmonic_tolerance);
    write_flag(out, config.skip_first_phase);
}

pub(crate) fn decode_config(reader: &mut Reader<'_>) -> TraceResult<FtioConfig> {
    let config = FtioConfig {
        sampling_freq: reader.read_f64()?,
        outlier_method: decode_outlier_method(reader)?,
        tolerance: reader.read_f64()?,
        use_autocorrelation: read_flag(reader)?,
        acf_peak_height: reader.read_f64()?,
        acf_outlier_threshold: reader.read_f64()?,
        filter_harmonics: read_flag(reader)?,
        harmonic_tolerance: reader.read_f64()?,
        skip_first_phase: read_flag(reader)?,
    };
    config
        .validate()
        .map_err(|reason| err_at(reader, format!("invalid FTIO configuration: {reason}")))?;
    Ok(config)
}

pub(crate) fn encode_strategy(out: &mut Vec<u8>, strategy: &WindowStrategy) {
    match *strategy {
        WindowStrategy::FullHistory => write_uint(out, 0),
        WindowStrategy::Adaptive { multiple } => {
            write_uint(out, 1);
            write_uint(out, multiple as u64);
        }
        WindowStrategy::Fixed { length } => {
            write_uint(out, 2);
            write_f64(out, length);
        }
    }
}

pub(crate) fn decode_strategy(reader: &mut Reader<'_>) -> TraceResult<WindowStrategy> {
    match reader.read_uint()? {
        0 => Ok(WindowStrategy::FullHistory),
        1 => Ok(WindowStrategy::Adaptive {
            multiple: read_count(reader, "adaptive multiple")?,
        }),
        2 => Ok(WindowStrategy::Fixed {
            length: reader.read_f64()?,
        }),
        tag => Err(err_at(reader, format!("unknown window-strategy tag {tag}"))),
    }
}

/// The tick-mode slot, always tag 0: the predictor has one tick path.
pub(crate) fn encode_tick_mode(out: &mut Vec<u8>) {
    write_uint(out, 0);
}

pub(crate) fn decode_tick_mode(reader: &mut Reader<'_>) -> TraceResult<()> {
    match reader.read_uint()? {
        0 => Ok(()),
        tag => Err(err_at(reader, format!("unsupported tick-mode tag {tag}"))),
    }
}

pub(crate) fn encode_retention(out: &mut Vec<u8>, retention: &RetentionPolicy) {
    match *retention {
        RetentionPolicy::KeepAll => write_uint(out, 0),
        RetentionPolicy::Ring { max_bins } => {
            write_uint(out, 1);
            write_uint(out, max_bins as u64);
        }
    }
}

pub(crate) fn decode_retention(reader: &mut Reader<'_>) -> TraceResult<RetentionPolicy> {
    let retention = match reader.read_uint()? {
        0 => RetentionPolicy::KeepAll,
        1 => RetentionPolicy::Ring {
            max_bins: read_count(reader, "ring max_bins")?,
        },
        tag => {
            return Err(err_at(
                reader,
                format!("unknown retention-policy tag {tag}"),
            ))
        }
    };
    retention
        .validate()
        .map_err(|reason| err_at(reader, format!("invalid retention policy: {reason}")))?;
    Ok(retention)
}

/// The memory-policy slot: the retention, then a request-retention flag that
/// is written 0 and ignored on decode.
pub(crate) fn encode_memory_policy(out: &mut Vec<u8>, memory: &RetentionPolicy) {
    encode_retention(out, memory);
    write_flag(out, false);
}

pub(crate) fn decode_memory_policy(reader: &mut Reader<'_>) -> TraceResult<RetentionPolicy> {
    let retention = decode_retention(reader)?;
    read_flag(reader)?;
    Ok(retention)
}

pub(crate) fn encode_policy(out: &mut Vec<u8>, policy: BackpressurePolicy) {
    write_uint(
        out,
        match policy {
            BackpressurePolicy::Block => 0,
            BackpressurePolicy::DropOldest => 1,
            BackpressurePolicy::Reject => 2,
        },
    );
}

pub(crate) fn decode_policy(reader: &mut Reader<'_>) -> TraceResult<BackpressurePolicy> {
    match reader.read_uint()? {
        0 => Ok(BackpressurePolicy::Block),
        1 => Ok(BackpressurePolicy::DropOldest),
        2 => Ok(BackpressurePolicy::Reject),
        tag => Err(err_at(
            reader,
            format!("unknown backpressure-policy tag {tag}"),
        )),
    }
}

#[allow(unused_imports)] // used by the doc links above
use ftio_trace::snapshot as _snapshot_docs;

#[cfg(test)]
mod tests {
    use super::*;
    use ftio_trace::msgpack::write_str;

    fn round_trip_config(config: FtioConfig) {
        let mut out = Vec::new();
        encode_config(&mut out, &config);
        let mut reader = Reader::new(&out);
        let back = decode_config(&mut reader).unwrap();
        assert_eq!(back, config);
        assert!(reader.is_at_end());
    }

    #[test]
    fn config_round_trips_across_every_outlier_method() {
        let methods = [
            OutlierMethod::ZScore { threshold: 2.5 },
            OutlierMethod::DbScan {
                eps_factor: 0.4,
                min_pts: 3,
            },
            OutlierMethod::Lof {
                k: 5,
                threshold: 1.5,
            },
            OutlierMethod::IsolationForest {
                threshold: 0.62,
                seed: 1234,
            },
            OutlierMethod::PeakDetection {
                prominence_factor: 0.11,
            },
        ];
        for method in methods {
            round_trip_config(FtioConfig {
                outlier_method: method,
                sampling_freq: 3.25,
                use_autocorrelation: false,
                ..Default::default()
            });
        }
        round_trip_config(FtioConfig::default());
    }

    #[test]
    fn strategy_and_mode_round_trip() {
        for strategy in [
            WindowStrategy::FullHistory,
            WindowStrategy::Adaptive { multiple: 4 },
            WindowStrategy::Fixed { length: 123.5 },
        ] {
            let mut out = Vec::new();
            encode_strategy(&mut out, &strategy);
            assert_eq!(decode_strategy(&mut Reader::new(&out)).unwrap(), strategy);
        }
        let mut out = Vec::new();
        encode_tick_mode(&mut out);
        decode_tick_mode(&mut Reader::new(&out)).unwrap();
        for policy in [
            BackpressurePolicy::Block,
            BackpressurePolicy::DropOldest,
            BackpressurePolicy::Reject,
        ] {
            let mut out = Vec::new();
            encode_policy(&mut out, policy);
            assert_eq!(decode_policy(&mut Reader::new(&out)).unwrap(), policy);
        }
    }

    #[test]
    fn memory_policy_round_trips() {
        for memory in [
            RetentionPolicy::KeepAll,
            RetentionPolicy::Ring { max_bins: 512 },
        ] {
            let mut out = Vec::new();
            encode_memory_policy(&mut out, &memory);
            assert_eq!(
                decode_memory_policy(&mut Reader::new(&out)).unwrap(),
                memory
            );
        }
    }

    #[test]
    fn unknown_tags_and_bad_values_are_structured_errors() {
        // Unknown outlier tag.
        let mut out = Vec::new();
        write_uint(&mut out, 9);
        let err = decode_outlier_method(&mut Reader::new(&out)).unwrap_err();
        assert!(err.to_string().contains("outlier-method tag 9"), "{err}");

        // A flag that is not 0/1.
        let mut out = Vec::new();
        write_uint(&mut out, 7);
        assert!(read_flag(&mut Reader::new(&out)).is_err());

        // A config that decodes structurally but fails validation.
        let mut out = Vec::new();
        encode_config(
            &mut out,
            &FtioConfig {
                sampling_freq: 2.0,
                ..Default::default()
            },
        );
        // sampling_freq is the first field: overwrite its float bytes with -1.
        let mut bad = Vec::new();
        write_f64(&mut bad, -1.0);
        out[..bad.len()].copy_from_slice(&bad);
        let err = decode_config(&mut Reader::new(&out)).unwrap_err();
        assert!(
            err.to_string().contains("invalid FTIO configuration"),
            "{err}"
        );

        // The tags of the rebuild tick mode and the pyramid retention.
        let mut out = Vec::new();
        write_uint(&mut out, 1);
        let err = decode_tick_mode(&mut Reader::new(&out)).unwrap_err();
        assert!(err.to_string().contains("tick-mode tag 1"), "{err}");
        let mut out = Vec::new();
        write_uint(&mut out, 2);
        let err = decode_retention(&mut Reader::new(&out)).unwrap_err();
        assert!(err.to_string().contains("retention-policy tag 2"), "{err}");

        // Wrong payload kind.
        let mut out = Vec::new();
        write_str(&mut out, "cluster");
        let err = expect_kind(&mut Reader::new(&out), "predictor").unwrap_err();
        assert!(err.to_string().contains("expected `predictor`"), "{err}");
    }

    #[test]
    fn f64_slices_round_trip_bit_for_bit() {
        let values = [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, 1e-300];
        let mut out = Vec::new();
        write_f64_slice(&mut out, &values);
        let back = read_f64_vec(&mut Reader::new(&out)).unwrap();
        assert_eq!(back.len(), values.len());
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn corrupted_length_headers_fail_cleanly() {
        // An array header declaring 2^32-1 floats over a 3-byte body must
        // error out (EOF), not attempt a giant allocation.
        let mut out = vec![0xdd, 0xff, 0xff, 0xff, 0xff];
        out.extend_from_slice(&[1, 2, 3]);
        assert!(read_f64_vec(&mut Reader::new(&out)).is_err());
    }
}

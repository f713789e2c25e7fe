//! Recorder-style per-rank text traces.
//!
//! The paper mentions that the detection mode also accepts traces from
//! Recorder (§II-A). Recorder stores one record per intercepted call with the
//! issuing rank, the function name, timestamps and the transferred size. A
//! compact text rendering of that information is supported here:
//!
//! ```text
//! 3 MPI_File_write_all 12.500000 12.734000 1048576
//! ```
//!
//! Lines starting with `#` are comments. The function name decides whether the
//! record is a read or a write; unknown functions (metadata operations such as
//! `MPI_File_open`) are skipped, mirroring how FTIO only cares about data
//! transfers.

use crate::errors::{TraceError, TraceResult};
use crate::request::{IoApi, IoKind, IoRequest};

/// Classifies a traced function name into read/write/other.
pub fn classify_function(name: &str) -> Option<(IoKind, IoApi)> {
    let lower = name.to_ascii_lowercase();
    let api = if lower.starts_with("mpi_file_i") {
        IoApi::Async
    } else if lower.starts_with("mpi_") {
        IoApi::Sync
    } else {
        IoApi::Posix
    };
    if lower.contains("write") || lower == "pwrite" || lower == "pwrite64" {
        Some((IoKind::Write, api))
    } else if lower.contains("read") || lower == "pread" || lower == "pread64" {
        Some((IoKind::Read, api))
    } else {
        None
    }
}

/// Encodes requests in the Recorder-style text format.
pub fn encode_requests(requests: &[IoRequest]) -> String {
    let mut out = String::from("# recorder-text rank function start end bytes\n");
    for r in requests {
        let func = match (r.kind, r.api) {
            (IoKind::Write, IoApi::Sync) => "MPI_File_write_all",
            (IoKind::Write, IoApi::Async) => "MPI_File_iwrite",
            (IoKind::Write, IoApi::Posix) => "pwrite",
            (IoKind::Read, IoApi::Sync) => "MPI_File_read_all",
            (IoKind::Read, IoApi::Async) => "MPI_File_iread",
            (IoKind::Read, IoApi::Posix) => "pread",
        };
        out.push_str(&format!(
            "{} {} {:.6} {:.6} {}\n",
            r.rank, func, r.start, r.end, r.bytes
        ));
    }
    out
}

/// Parses one Recorder line. Returns `Ok(None)` for comments, blank lines and
/// records whose function is neither a read nor a write (metadata calls);
/// malformed data lines are an error naming the line. This is the per-line
/// decoder of [`crate::source::LineSource::recorder`].
pub fn decode_line(line: &str, line_number: usize) -> TraceResult<Option<IoRequest>> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(None);
    }
    let fields: Vec<&str> = trimmed.split_whitespace().collect();
    if fields.len() != 5 {
        return Err(TraceError::malformed(
            format!("expected 5 fields, found {}", fields.len()),
            line_number,
        ));
    }
    let rank: usize = fields[0]
        .parse()
        .map_err(|_| TraceError::malformed(format!("invalid rank `{}`", fields[0]), line_number))?;
    let Some((kind, api)) = classify_function(fields[1]) else {
        return Ok(None);
    };
    let start: f64 = fields[2].parse().map_err(|_| {
        TraceError::malformed(format!("invalid start `{}`", fields[2]), line_number)
    })?;
    let end: f64 = fields[3]
        .parse()
        .map_err(|_| TraceError::malformed(format!("invalid end `{}`", fields[3]), line_number))?;
    let bytes: u64 = fields[4].parse().map_err(|_| {
        TraceError::malformed(format!("invalid bytes `{}`", fields[4]), line_number)
    })?;
    Ok(Some(IoRequest {
        rank,
        start,
        end,
        bytes,
        kind,
        api,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Decodes a whole document through [`crate::source::decode_requests`].
    fn decode_requests(text: &str) -> TraceResult<Vec<IoRequest>> {
        crate::source::decode_requests(crate::SourceFormat::Recorder, text.as_bytes())
    }

    #[test]
    fn classify_common_functions() {
        assert_eq!(
            classify_function("MPI_File_write_at_all"),
            Some((IoKind::Write, IoApi::Sync))
        );
        assert_eq!(
            classify_function("MPI_File_iread"),
            Some((IoKind::Read, IoApi::Async))
        );
        assert_eq!(
            classify_function("pwrite64"),
            Some((IoKind::Write, IoApi::Posix))
        );
        assert_eq!(
            classify_function("read"),
            Some((IoKind::Read, IoApi::Posix))
        );
        assert_eq!(classify_function("MPI_File_open"), None);
        assert_eq!(classify_function("fsync"), None);
    }

    #[test]
    fn round_trip_preserves_data_requests() {
        let requests = vec![
            IoRequest::write(0, 1.0, 2.0, 4096),
            IoRequest::read(3, 2.5, 2.75, 100),
            IoRequest {
                rank: 7,
                start: 5.0,
                end: 5.5,
                bytes: 12,
                kind: IoKind::Write,
                api: IoApi::Async,
            },
        ];
        let text = encode_requests(&requests);
        let back = decode_requests(&text).unwrap();
        assert_eq!(back, requests);
    }

    #[test]
    fn metadata_operations_are_skipped() {
        let text = "\
# comment
0 MPI_File_open 0.0 0.1 0
0 MPI_File_write_all 0.1 0.6 1000
0 MPI_File_close 0.6 0.7 0
";
        let back = decode_requests(text).unwrap();
        assert_eq!(back.len(), 1);
        assert_eq!(back[0].bytes, 1000);
    }

    #[test]
    fn malformed_lines_are_reported_with_line_number() {
        let text = "0 MPI_File_write_all 0.0 0.5 100\n1 MPI_File_write_all broken 0.5 100\n";
        let err = decode_requests(text).unwrap_err();
        assert!(err.to_string().contains("position 2"));
    }

    #[test]
    fn wrong_field_count_is_an_error() {
        let err = decode_requests("0 MPI_File_write_all 0.0 0.5\n").unwrap_err();
        assert!(err.to_string().contains("5 fields"));
    }

    #[test]
    fn empty_and_comment_only_documents_are_fine() {
        assert!(decode_requests("").unwrap().is_empty());
        assert!(decode_requests("# nothing here\n\n").unwrap().is_empty());
    }
}

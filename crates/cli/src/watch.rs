//! The `ftio watch` subcommand: tail a growing trace file and predict live.
//!
//! This is the single-application, no-socket deployment mode: an application
//! (or its tracing layer) appends JSONL or Recorder lines to a file, and
//! `ftio watch` polls the file, ingests every newly completed line into an
//! [`OnlinePredictor`], and prints a prediction per poll that saw new data.
//! The lines are decoded by [`LineSource`], the reader `ftio detect` uses, so
//! a line `detect` rejects is an error here too, naming the same line.
//! A partially written trailing line is held back until its newline arrives,
//! and a truncated file (log rotation) restarts the tail from the beginning.
//! Rotation by replacement — delete and recreate, the other common log
//! rotation — is survived too: the tail tracks the file's inode, restarts
//! from byte zero when it changes, and treats the transient gap between the
//! unlink and the recreate as "no new data" instead of an error.

use std::io::{Read, Seek, SeekFrom};
use std::path::Path;
use std::time::{Duration, Instant};

use ftio_core::{FtioConfig, OnlinePredictor, WindowStrategy};
use ftio_trace::source::{drain_requests, LineSource, DEFAULT_BATCH_SIZE};
use ftio_trace::{AppId, IoRequest, TraceError, TraceResult};

use crate::next_value;

/// Options of the `ftio watch` subcommand.
#[derive(Clone, Debug)]
pub struct WatchCliOptions {
    /// Path of the growing trace file.
    pub input: String,
    /// Sampling frequency of the analysis.
    pub freq: f64,
    /// Poll interval in milliseconds.
    pub poll_ms: u64,
    /// Exit after this many seconds without new data (`None` = watch forever).
    pub idle_exit: Option<f64>,
    /// Ingest what is already in the file before tailing (default: true;
    /// `--from-end` starts at the current end instead).
    pub from_start: bool,
}

impl Default for WatchCliOptions {
    fn default() -> Self {
        WatchCliOptions {
            input: String::new(),
            freq: 2.0,
            poll_ms: 250,
            idle_exit: None,
            from_start: true,
        }
    }
}

/// Usage text of the subcommand.
pub const WATCH_USAGE: &str = "usage: ftio watch <trace-file> [options]\n\
     \n\
     Tail a growing JSONL or Recorder trace file and print an online period\n\
     prediction whenever new requests arrive — the file-based sibling of\n\
     `ftio serve` for a single application writing locally.\n\
     \n\
     options:\n\
     \x20 --freq <hz>                 sampling frequency (default 2)\n\
     \x20 --poll <ms>                 poll interval in milliseconds (default 250)\n\
     \x20 --idle-exit <secs>          exit after this long without new data\n\
     \x20 --from-end                  skip data already in the file, tail only new lines;\n\
     \x20                              error positions count lines from where the tail started";

/// Parses the arguments following `ftio watch`.
pub fn parse_watch_options(args: &[String]) -> Result<WatchCliOptions, String> {
    let mut options = WatchCliOptions::default();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--freq" => {
                let value = next_value(args, &mut i, "--freq")?;
                options.freq = value
                    .parse()
                    .map_err(|_| format!("invalid sampling frequency `{value}`"))?;
                if !(options.freq.is_finite() && options.freq > 0.0) {
                    return Err(format!("invalid sampling frequency `{value}`"));
                }
            }
            "--poll" => {
                let value = next_value(args, &mut i, "--poll")?;
                options.poll_ms = value
                    .parse()
                    .map_err(|_| format!("invalid poll interval `{value}`"))?;
                if options.poll_ms == 0 {
                    return Err("--poll must be at least 1 ms".into());
                }
            }
            "--idle-exit" => {
                let value = next_value(args, &mut i, "--idle-exit")?;
                let secs: f64 = value
                    .parse()
                    .map_err(|_| format!("invalid idle-exit `{value}`"))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(format!("invalid idle-exit `{value}`"));
                }
                options.idle_exit = Some(secs);
            }
            "--from-end" => options.from_start = false,
            other if other.starts_with("--") => {
                return Err(format!(
                    "unknown watch option `{other}` (see `ftio watch --help`)"
                ))
            }
            path => {
                if !options.input.is_empty() {
                    return Err(format!("unexpected extra argument `{path}`"));
                }
                options.input = path.to_string();
            }
        }
        i += 1;
    }
    if options.input.is_empty() {
        return Err("no trace file given".into());
    }
    Ok(options)
}

/// The incremental line tail: consumed offset, held-back partial line, and
/// the line format decided from the first non-blank byte.
struct Tail {
    offset: u64,
    partial: Vec<u8>,
    /// Complete lines consumed since the tail started, blank lines counted:
    /// a decode error's position is offset by it, so it names the line of
    /// the file (counted from the tail's start offset).
    lines: usize,
    /// Whether the lines are JSONL (`{` first) rather than Recorder text;
    /// `None` until a non-blank byte arrived.
    jsonl: Option<bool>,
    /// The open file being tailed, held across polls. Holding it pins the
    /// inode, so a delete-and-recreate rotation is guaranteed to produce a
    /// *different* inode number at the path (a freshly freed inode is
    /// otherwise immediately reused on most filesystems, which would make
    /// the swap invisible when the new file has the same length).
    file: Option<std::fs::File>,
    /// Inode of the held file, compared against the path's current inode.
    ino: Option<u64>,
}

impl Tail {
    fn new(offset: u64) -> Self {
        Tail {
            offset,
            partial: Vec::new(),
            lines: 0,
            jsonl: None,
            file: None,
            ino: None,
        }
    }

    /// Reads everything appended since the last poll and decodes the complete
    /// lines. Returns `None` when nothing new arrived (including the moment
    /// between a rotation's unlink and recreate, when the path is briefly
    /// missing).
    fn poll(&mut self, path: &Path) -> TraceResult<Option<Vec<IoRequest>>> {
        // Re-stat the path: a different inode there means the file was
        // rotated by replacement, and everything under the new name is
        // unread — switch to it from byte zero, dropping any partial line
        // of the old incarnation. A missing path is the gap between the
        // rotation's unlink and recreate: keep draining the held file.
        match std::fs::metadata(path) {
            Ok(metadata) => {
                if self.file.is_some() && self.ino != file_ino(&metadata) {
                    self.file = None;
                    self.offset = 0;
                    self.lines = 0;
                    self.partial.clear();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if self.file.is_none() {
                    return Ok(None);
                }
            }
            Err(e) => return Err(e.into()),
        }
        if self.file.is_none() {
            match std::fs::File::open(path) {
                Ok(file) => {
                    self.ino = file_ino(&file.metadata()?);
                    self.file = Some(file);
                }
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
                Err(e) => return Err(e.into()),
            }
        }
        let Some(file) = self.file.as_mut() else {
            return Ok(None);
        };
        let len = file.metadata()?.len();
        if len < self.offset {
            // Truncated (rotated in place) file: start over.
            self.offset = 0;
            self.lines = 0;
            self.partial.clear();
        }
        if len == self.offset {
            return Ok(None);
        }
        file.seek(SeekFrom::Start(self.offset))?;
        let mut fresh = Vec::new();
        file.take(len - self.offset).read_to_end(&mut fresh)?;
        self.offset += fresh.len() as u64;
        self.partial.extend_from_slice(&fresh);
        // Hold back the bytes after the last newline — a line still being
        // written.
        let Some(last_newline) = self.partial.iter().rposition(|&b| b == b'\n') else {
            return Ok(None);
        };
        let complete = self.partial[..=last_newline].to_vec();
        self.partial.drain(..=last_newline);
        let lines_before = self.lines;
        self.lines += complete.iter().filter(|&&b| b == b'\n').count();
        let jsonl = match self.jsonl {
            Some(jsonl) => jsonl,
            None => {
                let Some(&first) = complete.iter().find(|b| !b.is_ascii_whitespace()) else {
                    return Ok(None);
                };
                *self.jsonl.insert(first == b'{')
            }
        };
        let reader = if jsonl {
            LineSource::jsonl
        } else {
            LineSource::recorder
        };
        let mut source = reader(complete.as_slice(), AppId::new(0), DEFAULT_BATCH_SIZE);
        let requests = drain_requests(&mut source).map_err(|e| match e {
            TraceError::Malformed {
                reason,
                position,
                snippet,
            } => TraceError::Malformed {
                reason,
                position: position + lines_before,
                snippet,
            },
            other => other,
        })?;
        Ok((!requests.is_empty()).then_some(requests))
    }
}

/// The file's inode where the platform has one (`None` elsewhere, which
/// degrades to the length-based truncation heuristic only).
fn file_ino(metadata: &std::fs::Metadata) -> Option<u64> {
    #[cfg(unix)]
    {
        use std::os::unix::fs::MetadataExt;
        Some(metadata.ino())
    }
    #[cfg(not(unix))]
    {
        let _ = metadata;
        None
    }
}

/// Tails the file until idle-exit (or forever), printing one prediction line
/// per poll that ingested new requests. Returns a final summary.
pub fn run_watch(options: &WatchCliOptions) -> Result<String, String> {
    let path = Path::new(&options.input);
    if !path.exists() {
        return Err(format!("cannot read `{}`: no such file", options.input));
    }
    let start_offset = if options.from_start {
        0
    } else {
        std::fs::metadata(path).map_err(|e| e.to_string())?.len()
    };
    let mut tail = Tail::new(start_offset);
    let config = FtioConfig {
        sampling_freq: options.freq,
        use_autocorrelation: false,
        ..Default::default()
    };
    config.validate()?;
    let mut predictor = OnlinePredictor::new(config, WindowStrategy::Adaptive { multiple: 3 });
    let mut predictions = 0usize;
    let mut ingested = 0usize;
    let mut last_prediction = None;
    let mut last_data = Instant::now();
    let poll = Duration::from_millis(options.poll_ms);
    loop {
        match tail.poll(path).map_err(|e| e.to_string())? {
            Some(requests) => {
                last_data = Instant::now();
                ingested += requests.len();
                let now = requests
                    .iter()
                    .map(|r| r.end)
                    .fold(f64::NEG_INFINITY, f64::max);
                predictor.ingest(requests);
                let prediction = predictor.predict(now);
                predictions += 1;
                match prediction.period() {
                    Some(period) => println!(
                        "watch @ {now:.1} s: period {period:.3} s (confidence {:.1} %)",
                        prediction.confidence() * 100.0
                    ),
                    None => println!("watch @ {now:.1} s: no dominant frequency yet"),
                }
                last_prediction = Some(prediction);
            }
            None => {
                if let Some(limit) = options.idle_exit {
                    if last_data.elapsed().as_secs_f64() >= limit {
                        break;
                    }
                }
                std::thread::sleep(poll);
            }
        }
    }
    let mut out = format!(
        "watched {}: {} requests ingested, {} predictions\n",
        options.input, ingested, predictions
    );
    match last_prediction.as_ref().and_then(|p| p.period()) {
        Some(period) => out.push_str(&format!(
            "final: period {period:.3} s (confidence {:.1} %)\n",
            last_prediction
                .as_ref()
                .map(|p| p.confidence() * 100.0)
                .unwrap_or(0.0)
        )),
        None => out.push_str("final: no dominant frequency\n"),
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftio_trace::{jsonl, recorder};
    use std::io::Write;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn options_are_parsed() {
        let options = parse_watch_options(&strings(&[
            "trace.jsonl",
            "--freq",
            "1.5",
            "--poll",
            "50",
            "--idle-exit",
            "2.5",
            "--from-end",
        ]))
        .unwrap();
        assert_eq!(options.input, "trace.jsonl");
        assert_eq!(options.freq, 1.5);
        assert_eq!(options.poll_ms, 50);
        assert_eq!(options.idle_exit, Some(2.5));
        assert!(!options.from_start);
    }

    #[test]
    fn option_errors() {
        assert!(parse_watch_options(&[]).is_err());
        assert!(parse_watch_options(&strings(&["a", "b"])).is_err());
        assert!(parse_watch_options(&strings(&["a", "--poll", "0"])).is_err());
        assert!(parse_watch_options(&strings(&["a", "--freq", "nan"])).is_err());
        assert!(parse_watch_options(&strings(&["a", "--idle-exit", "-1"])).is_err());
        assert!(parse_watch_options(&strings(&["a", "--bogus"])).is_err());
    }

    #[test]
    fn tail_holds_back_partial_lines_and_survives_truncation() {
        let path = std::env::temp_dir().join("ftio_watch_tail_test.jsonl");
        let line = |i: usize| {
            let start = i as f64 * 10.0;
            jsonl::encode_requests(&[IoRequest::write(0, start, start + 1.0, 1000)])
        };
        std::fs::write(&path, line(0)).unwrap();
        let mut tail = Tail::new(0);
        let first = tail.poll(&path).unwrap().expect("one complete line");
        assert_eq!(first.len(), 1);
        assert!(tail.poll(&path).unwrap().is_none(), "no new data");

        // Append a line without its newline: held back until completed.
        let full = line(1);
        let (head, rest) = full.split_at(full.len() / 2);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        file.write_all(head.as_bytes()).unwrap();
        file.flush().unwrap();
        assert!(
            tail.poll(&path).unwrap().is_none(),
            "partial line held back"
        );
        file.write_all(rest.as_bytes()).unwrap();
        file.flush().unwrap();
        drop(file);
        let second = tail.poll(&path).unwrap().expect("completed line");
        assert_eq!(second.len(), 1);
        assert!((second[0].start - 10.0).abs() < 1e-9);

        // Truncation restarts the tail from the top.
        std::fs::write(&path, line(5)).unwrap();
        let after = tail.poll(&path).unwrap().expect("restarted tail");
        assert!((after[0].start - 50.0).abs() < 1e-9);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn tail_survives_inode_swap_without_double_ingesting() {
        let dir = std::env::temp_dir().join("ftio_watch_swap_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let line = |i: usize| {
            let start = i as f64 * 10.0;
            jsonl::encode_requests(&[IoRequest::write(0, start, start + 1.0, 1000)])
        };
        // Two complete lines, fully consumed.
        let before = format!("{}{}", line(1), line(2));
        std::fs::write(&path, &before).unwrap();
        let mut tail = Tail::new(0);
        assert_eq!(tail.poll(&path).unwrap().unwrap().len(), 2);
        assert!(tail.poll(&path).unwrap().is_none());

        // Rotation by replacement: unlink, then recreate. The gap where the
        // path is missing is "no new data", not an error…
        std::fs::remove_file(&path).unwrap();
        assert!(tail.poll(&path).unwrap().is_none(), "gap tolerated");
        // …and the recreated file — same byte length as the consumed one, so
        // the truncation heuristic alone would see nothing new — is ingested
        // exactly once from the top.
        let after = format!("{}{}", line(3), line(4));
        assert_eq!(before.len(), after.len(), "lengths must match for the test");
        std::fs::write(&path, &after).unwrap();
        let swapped = tail.poll(&path).unwrap().expect("new inode re-read");
        assert_eq!(swapped.len(), 2);
        assert!((swapped[0].start - 30.0).abs() < 1e-9);
        assert!((swapped[1].start - 40.0).abs() < 1e-9);
        assert!(tail.poll(&path).unwrap().is_none(), "no double ingest");
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn tail_decodes_recorder_lines_too() {
        let path = std::env::temp_dir().join("ftio_watch_recorder_test.txt");
        let requests = vec![
            IoRequest::write(0, 0.0, 1.0, 4096),
            IoRequest::read(1, 2.0, 3.0, 8192),
        ];
        std::fs::write(&path, recorder::encode_requests(&requests)).unwrap();
        let mut tail = Tail::new(0);
        let decoded = tail.poll(&path).unwrap().expect("recorder lines decode");
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[0].bytes, 4096);
        let _ = std::fs::remove_file(path);
    }

    /// Tailed lines go through the reader `ftio detect` uses: a reversed
    /// interval or a line that is not UTF-8 is an error naming its line of
    /// the file, blank lines counted, across polls.
    #[test]
    fn tail_rejects_what_detect_rejects() {
        let path = std::env::temp_dir().join("ftio_watch_reject_test.jsonl");
        let valid = jsonl::encode_requests(&[IoRequest::write(0, 0.0, 1.0, 1000)]);
        std::fs::write(&path, format!("{valid}\n")).unwrap();
        let mut tail = Tail::new(0);
        assert_eq!(tail.poll(&path).unwrap().expect("one valid line").len(), 1);
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        let reversed = r#"{"rank":0,"start":5.0,"end":1.0,"bytes":10,"kind":"write"}"#;
        writeln!(file, "{reversed}").unwrap();
        drop(file);
        let err = tail.poll(&path).unwrap_err().to_string();
        assert!(err.contains("position 3"), "{err}");
        assert!(err.contains("invalid request interval"), "{err}");

        std::fs::write(&path, b"{\"rank\":\xff}\n").unwrap();
        let err = Tail::new(0).poll(&path).unwrap_err().to_string();
        assert!(err.contains("position 1"), "{err}");
        assert!(err.contains("not valid UTF-8"), "{err}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn watching_a_growing_file_predicts_the_period() {
        let path = std::env::temp_dir().join("ftio_watch_run_test.jsonl");
        let requests: Vec<IoRequest> = (0..12)
            .map(|i| {
                let start = i as f64 * 10.0;
                IoRequest::write(0, start, start + 2.0, 1_000_000_000)
            })
            .collect();
        std::fs::write(&path, jsonl::encode_requests(&requests)).unwrap();
        // Everything is already in the file; one poll ingests it, then the
        // idle-exit fires.
        let options = WatchCliOptions {
            input: path.to_str().unwrap().to_string(),
            poll_ms: 10,
            idle_exit: Some(0.05),
            ..Default::default()
        };
        let report = run_watch(&options).unwrap();
        assert!(report.contains("12 requests ingested"), "{report}");
        assert!(report.contains("period 10."), "{report}");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn missing_file_is_a_readable_error() {
        let options = WatchCliOptions {
            input: "/does/not/exist.jsonl".into(),
            ..Default::default()
        };
        assert!(run_watch(&options).unwrap_err().contains("cannot read"));
    }
}

//! In-memory spans recorded around the benchmark's own calls into each layer.
//!
//! A span has a name, a start and end (nanoseconds since the run's epoch),
//! the span that caused it, and the flush or trace it belongs to. Spans stay
//! in memory and are written out as JSON lines when the run ends. A layer's
//! self time is its span's duration minus the time its child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span (`None` when tracing is off).
pub type SpanId = Option<usize>;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary the span wraps.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Flush or trace id shared by every span of one operation.
    pub key: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder of one thread; disabled recorders cost a branch per call.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

/// Per-layer summary of the spans with one name.
#[derive(Clone, Debug, Default)]
pub struct Layer {
    /// Self time of every call, microseconds.
    pub self_us: Vec<f64>,
    /// Sum of self times over the sum of the enclosing spans' durations.
    pub share: f64,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    /// The instant timestamps count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId, key: u64) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            key,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let Some(index) = id {
            self.spans[index].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn leaf<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        key: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, key);
        let result = f();
        self.end(id);
        result
    }

    /// Moves another thread's spans into this recorder (same epoch).
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time (duration minus children) of every span, ns.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::duration_ns).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(span.duration_ns());
            }
        }
        own
    }

    /// Summary of the spans named `name`. The share is taken against each
    /// span's parent, or against all root spans for a root.
    pub fn layer(&self, name: &str) -> Layer {
        let own = self.self_ns();
        let roots: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::duration_ns)
            .sum();
        let mut layer = Layer::default();
        let (mut mine, mut enclosing) = (0u64, 0u64);
        for (i, span) in self.spans.iter().enumerate() {
            if span.name != name {
                continue;
            }
            layer.self_us.push(own[i] as f64 / 1e3);
            mine += own[i];
            match span.parent {
                Some(parent) => enclosing += self.spans[parent].duration_ns(),
                None => enclosing = roots,
            }
        }
        layer.share = if enclosing > 0 {
            mine as f64 / enclosing as f64
        } else {
            0.0
        };
        layer
    }

    /// Total duration of the spans named `parent`, and of their children.
    pub fn coverage(&self, parent: &str) -> (f64, f64) {
        let mut whole = 0u64;
        let mut children = 0u64;
        for span in &self.spans {
            if span.name == parent {
                whole += span.duration_ns();
            } else if let Some(p) = span.parent {
                if self.spans[p].name == parent {
                    children += span.duration_ns();
                }
            }
        }
        (whole as f64 / 1e9, children as f64 / 1e9)
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"key\":{}}}",
                span.name, span.start_ns, span.end_ns, span.key
            )?;
        }
        out.flush()
    }
}

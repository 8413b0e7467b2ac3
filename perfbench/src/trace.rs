//! In-memory span recorder for the traced run.
//!
//! The benchmark records spans around its own calls into each layer's
//! public functions; nothing inside the program is instrumented.  Spans stay
//! in memory until the run ends and are then written out as JSON lines.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Spans of the set-up phase carry this request id.
pub const SETUP: u64 = 0;

/// One timed interval.  All spans of one request share its id; `parent`
/// names the enclosing span of the same request (`None` for a root).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub request: u64,
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A span buffer.  Client threads each fill a [`Tracer::child`] (same
/// clock origin, same request-id counter), merged back when they end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_request: Arc<AtomicU64>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            next_request: Arc::new(AtomicU64::new(SETUP + 1)),
        }
    }

    pub fn child(&self) -> Self {
        Tracer {
            origin: self.origin,
            spans: Vec::with_capacity(1 << 16),
            next_request: Arc::clone(&self.next_request),
        }
    }

    pub fn merge(&mut self, child: Tracer) {
        self.spans.extend(child.spans);
    }

    pub fn next_request(&mut self) -> u64 {
        // Only uniqueness matters; the id publishes no other data.
        self.next_request.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a span that started at `start` and lasted `dur`.
    pub fn record(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<&'static str>,
        start: Instant,
        dur: Duration,
    ) {
        self.spans.push(Span {
            request,
            name,
            parent,
            start_ns: start.saturating_duration_since(self.origin).as_nanos() as u64,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let result = f();
        self.record(request, name, parent, start, start.elapsed());
        result
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::with_capacity(self.spans.len() * 96);
        for span in &self.spans {
            let parent = span
                .parent
                .map_or("null".to_string(), |p| format!("\"{p}\""));
            writeln!(
                text,
                "{{\"request\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"dur_ns\":{}}}",
                span.request, span.name, parent, span.start_ns, span.dur_ns
            )
            .expect("writing to a String cannot fail");
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(text.as_bytes())?;
        file.flush()
    }
}

//! In-memory spans recorded around calls into the program's layers,
//! written out as Chrome `trace_event` JSON (loads in Perfetto or
//! `chrome://tracing`) when the run ends.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Index of a span in its [`Tracer`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    frame: usize,
    parent: Option<SpanId>,
    start: Duration,
    end: Option<Duration>,
    counts: Vec<(&'static str, f64)>,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(4096),
        }
    }

    /// Opens a span; every span of one frame carries that frame's index.
    pub fn open(&mut self, name: &'static str, frame: usize, parent: Option<SpanId>) -> SpanId {
        self.spans.push(Span {
            name,
            frame,
            parent,
            start: self.origin.elapsed(),
            end: None,
            counts: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration.
    pub fn close(&mut self, id: SpanId) -> Duration {
        let now = self.origin.elapsed();
        let span = &mut self.spans[id];
        assert!(span.end.is_none(), "span {} closed twice", span.name);
        span.end = Some(now);
        now - span.start
    }

    /// Attaches a count measured at this span's boundary.
    pub fn count(&mut self, id: SpanId, name: &'static str, value: f64) {
        self.spans[id].counts.push((name, value));
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The Chrome `trace_event` JSON object: one `ph:"X"` event per
    /// closed span, µs timestamps, with frame, span and parent ids and
    /// the span's counts in `args`. `meta` lands in `otherData`.
    pub fn chrome_json(&self, meta: &[(&str, String)]) -> String {
        let mut out = String::with_capacity(128 + self.spans.len() * 160);
        out.push_str("{\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"pid\":1,\"tid\":1,\"name\":\"process_name\",\
             \"args\":{\"name\":\"perfbench\"}}",
        );
        for (id, span) in self.spans.iter().enumerate() {
            let Some(end) = span.end else { continue };
            let ts = span.start.as_nanos() as f64 / 1e3;
            let dur = (end - span.start).as_nanos() as f64 / 1e3;
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":1,\"name\":\"{}\",\"cat\":\"perfbench\",\
                 \"ts\":{ts:.3},\"dur\":{dur:.3},\"args\":{{\"frame\":{},\"span\":{id}",
                span.name, span.frame
            );
            if let Some(parent) = span.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            for (name, value) in &span.counts {
                let _ = write!(out, ",\"{name}\":{value}");
            }
            out.push_str("}}");
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\",\"otherData\":{");
        for (i, (key, value)) in meta.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{key}\":\"{}\"", value.replace(['"', '\\'], "'"));
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_export() {
        let mut t = Tracer::new();
        let frame = t.open("frame", 3, None);
        let child = t.open("extract", 3, Some(frame));
        t.count(child, "kept", 12.0);
        assert!(t.close(child) <= t.close(frame));
        let open = t.open("unfinished", 4, None);
        let json = t.chrome_json(&[("workload", "desk-vga".into())]);
        assert!(json.starts_with("{\"traceEvents\":["), "{json}");
        let balance = |a: char, b: char| json.matches(a).count() == json.matches(b).count();
        assert!(balance('{', '}') && balance('[', ']'), "{json}");
        assert!(json.contains("\"args\":{\"frame\":3,\"span\":1,\"parent\":0,\"kept\":12}"));
        assert!(!json.contains("unfinished"), "open spans are not exported");
        assert!(json.contains("\"otherData\":{\"workload\":\"desk-vga\"}"));
        assert_eq!(t.len(), open + 1);
    }
}

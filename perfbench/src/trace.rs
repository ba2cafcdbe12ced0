//! In-memory span recorder for the traced run.
//!
//! A span wraps one call into a layer's public entry point: its name,
//! the request it belongs to, its parent span, start and end (seconds
//! since the tracer was created), and the flops and estimated bytes the
//! kernels charged while it ran (`tseig_kernels::flops`). The traced run
//! issues one request at a time and nothing else runs in the process,
//! so the process-wide counters see only the span's own work.

use crate::json;
use std::time::Instant;
use tseig_kernels::flops;

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
    pub flops: u64,
    pub bytes: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(4096),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name` of request `request`. Spans
    /// opened by `f` (through the tracer it receives) become children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            request,
            parent: self.open.last().copied(),
            start: 0.0,
            end: 0.0,
            flops: 0,
            bytes: 0,
        });
        self.open.push(id);
        let bytes0 = flops::bytes_snapshot();
        let start = self.origin.elapsed().as_secs_f64();
        let (r, counts) = flops::measure(|| f(self));
        let end = self.origin.elapsed().as_secs_f64();
        let bytes = flops::bytes_snapshot().since(&bytes0).total();
        self.open.pop();
        let s = &mut self.spans[id];
        s.start = start;
        s.end = end;
        s.flops = counts.total();
        s.bytes = bytes;
        r
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// All closed spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Spans as a JSON document (one object per span, in opening order).
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json::object(&[
                    ("id", id.to_string()),
                    ("name", json::string(s.name)),
                    ("request", s.request.to_string()),
                    (
                        "parent",
                        s.parent.map_or("null".to_string(), |p| p.to_string()),
                    ),
                    ("start_s", json::number(s.start)),
                    ("end_s", json::number(s.end)),
                    ("flops", s.flops.to_string()),
                    ("bytes", s.bytes.to_string()),
                ])
            })
            .collect();
        format!("{{\"spans\": [\n{}\n]}}\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_link_to_parent() {
        let mut tr = Tracer::new();
        tr.span("outer", 7, |tr| {
            tr.span("inner", 7, |_| std::hint::black_box(1 + 1));
        });
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!(
            (s[1].name, s[1].parent, s[1].request),
            ("inner", Some(0), 7)
        );
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
        assert!(tr.to_json().contains("\"name\": \"inner\""));
    }
}

//! In-memory spans for the traced run. The benchmark opens one span around
//! each public call it makes into a layer; spans of one request share its
//! id, and a child names the span that caused it. Nothing is written until
//! the run ends.

use dasp_core::PredicateKind;
use std::io::Write;
use std::time::{Duration, Instant};

pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub kind: Option<PredicateKind>,
    pub parent: Option<usize>,
    start: Duration,
    end: Duration,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new() }
    }

    /// Start a span; returns its index for [`close`](Self::close) and for
    /// naming it as a parent.
    pub fn open(
        &mut self,
        req: u64,
        name: &'static str,
        kind: Option<PredicateKind>,
        parent: Option<usize>,
    ) -> usize {
        let start = self.origin.elapsed();
        self.spans.push(Span { req, name, kind, parent, start, end: start });
        self.spans.len() - 1
    }

    pub fn close(&mut self, span: usize) {
        self.spans[span].end = self.origin.elapsed();
    }

    /// Run `f` inside a span.
    pub fn wrap<T>(
        &mut self,
        req: u64,
        name: &'static str,
        kind: Option<PredicateKind>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(req, name, kind, parent);
        let out = f();
        self.close(span);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of the spans called `name` (of one predicate kind, when
    /// given) among the requests `reqs`.
    pub fn durations(
        &self,
        name: &str,
        kind: Option<PredicateKind>,
        reqs: std::ops::Range<u64>,
    ) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name && (kind.is_none() || s.kind == kind))
            .filter(|s| reqs.contains(&s.req))
            .map(Span::duration)
            .collect()
    }

    /// Self time of every span: its duration minus the part of its interval
    /// its children cover.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort();
                let (mut covered, mut reach) = (Duration::ZERO, span.start);
                for &(start, end) in kids.iter() {
                    let (start, end) = (start.max(reach), end.min(span.end));
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration().saturating_sub(covered)
            })
            .collect()
    }

    /// One JSON object per span: request id, span id, name, predicate kind,
    /// start and end in nanoseconds since the run began, parent span id.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let kind =
                s.kind.map_or("null".to_string(), |k| format!("\"{}\"", crate::kind_name(k)));
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"req\":{},\"id\":{id},\"name\":\"{}\",\"kind\":{kind},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.req,
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos()
            )?;
        }
        out.flush()
    }
}

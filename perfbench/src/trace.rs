//! In-memory spans for the traced run: one span per boundary the
//! benchmark calls into (workload → job → cell → chunk, plus one per
//! microbench), written out when the run ends.

use crate::stats::union_len;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Layer names, in the order self times are reported.
pub const LAYERS: [&str; 5] = ["workload", "job", "cell", "chunk", "microbench"];

/// One recorded span; times are seconds since the trace origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer name (one of [`LAYERS`]).
    pub name: &'static str,
    /// Free-form label (cell id, microbench name, job id).
    pub label: String,
    /// Index of the parent span, if any.
    pub parent: Option<usize>,
    /// Start, seconds.
    pub start: f64,
    /// End, seconds.
    pub end: f64,
}

/// A span store shared by the threads of one run.
pub struct Trace {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Trace {
        Trace {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Seconds since the trace origin.
    pub fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    /// Seconds from the trace origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.t0).as_secs_f64()
    }

    /// Records a finished span and returns its id.
    pub fn push(&self, span: Span) -> usize {
        let mut spans = self.spans.lock().expect("trace lock poisoned");
        spans.push(span);
        spans.len() - 1
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&self, name: &'static str, label: String, parent: Option<usize>) -> usize {
        let t = self.now();
        self.push(Span {
            name,
            label,
            parent,
            start: t,
            end: t,
        })
    }

    /// Sets a span's end to now.
    pub fn close(&self, id: usize) {
        let t = self.now();
        self.spans.lock().expect("trace lock poisoned")[id].end = t;
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("trace lock poisoned").clone()
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

/// Self time per layer: each span's duration minus the part of it its
/// children cover, summed per layer name, in [`LAYERS`] order.
pub fn self_times(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start, spans[p].end);
            children[p].push((s.start.max(ps), s.end.min(pe).max(s.start.max(ps))));
        }
    }
    LAYERS
        .iter()
        .map(|&layer| {
            let total = spans
                .iter()
                .zip(children.iter_mut())
                .filter(|(s, _)| s.name == layer)
                .map(|(s, kids)| (s.end - s.start) - union_len(kids))
                .sum();
            (layer, total)
        })
        .collect()
}

/// NDJSON form of the spans, one object per line.
pub fn to_ndjson(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"label\":\"{}\",\"start_s\":{},\"end_s\":{}}}",
            s.name, s.label, s.start, s.end
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            label: String::new(),
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_covered_children() {
        let spans = vec![
            span("job", None, 0.0, 10.0),
            span("cell", Some(0), 1.0, 4.0),
            span("cell", Some(0), 3.0, 6.0),
            span("chunk", Some(1), 1.0, 2.0),
        ];
        let st = self_times(&spans);
        let get = |n: &str| st.iter().find(|(l, _)| *l == n).unwrap().1;
        assert_eq!(get("job"), 5.0);
        assert_eq!(get("cell"), 5.0);
        assert_eq!(get("chunk"), 1.0);
    }
}

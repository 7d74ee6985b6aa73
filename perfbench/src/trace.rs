//! In-memory spans recorded around the benchmark's calls into each
//! layer, written out when the run ends, and each layer's self time.
//!
//! A span has a name (`<layer>.<call>`), a start and an end in
//! nanoseconds since the tracer was made, the index of its parent span
//! within the same operation, and the operation's request id. A span's
//! self time is its duration minus the durations of its children; the
//! calls made here are sequential, so children never overlap.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Spans kept for the output file; self times cover every operation.
const MAX_KEPT_SPANS: usize = 50_000;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent within the same operation's span list.
    pub parent: Option<usize>,
}

#[derive(Debug, Default, Clone, Copy)]
struct SelfTime {
    spans: u64,
    total_ns: u64,
    self_ns: u64,
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    kept: Vec<(u64, Span)>,
    /// Index into `kept` of each kept span's parent.
    kept_parent: Vec<Option<usize>>,
    layers: BTreeMap<&'static str, SelfTime>,
    ops: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            kept: Vec::new(),
            kept_parent: Vec::new(),
            layers: BTreeMap::new(),
            ops: 0,
        }
    }

    /// Nanoseconds since the tracer was made.
    #[inline]
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Converts an instant to tracer time (0 for instants before it).
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records one operation's spans; `spans[0]` is its root.
    pub fn record(&mut self, req: u64, spans: &[Span]) {
        self.ops += 1;
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let children: u64 = spans
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| c.end_ns.saturating_sub(c.start_ns))
                .sum();
            let e = self.layers.entry(s.name).or_default();
            e.spans += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(children);
        }
        if self.kept.len() + spans.len() <= MAX_KEPT_SPANS {
            let base = self.kept.len();
            for s in spans {
                self.kept.push((req, *s));
                self.kept_parent.push(s.parent.map(|p| base + p));
            }
        }
    }

    /// `(span name, spans, mean total ns, mean self ns per operation)`.
    pub fn self_times(&self) -> Vec<(&'static str, u64, f64, f64)> {
        let ops = self.ops.max(1) as f64;
        self.layers
            .iter()
            .map(|(name, t)| {
                (
                    *name,
                    t.spans,
                    t.total_ns as f64 / t.spans.max(1) as f64,
                    t.self_ns as f64 / ops,
                )
            })
            .collect()
    }

    /// Writes the kept spans as JSON lines, then one summary line per
    /// span name.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (req, s)) in self.kept.iter().enumerate() {
            let parent = self.kept_parent[i].map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {req}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, spans, mean_ns, self_ns_per_op) in self.self_times() {
            writeln!(
                out,
                "{{\"layer\": \"{name}\", \"spans\": {spans}, \"mean_ns\": {mean_ns:.1}, \"self_ns_per_op\": {self_ns_per_op:.1}}}"
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        let spans = [
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "a",
                start_ns: 10,
                end_ns: 40,
                parent: Some(0),
            },
            Span {
                name: "b",
                start_ns: 50,
                end_ns: 60,
                parent: Some(0),
            },
        ];
        t.record(1, &spans);
        t.record(2, &spans);
        let st = t.self_times();
        let root = st.iter().find(|r| r.0 == "root").unwrap();
        assert_eq!(root.3, 60.0);
        let a = st.iter().find(|r| r.0 == "a").unwrap();
        assert_eq!((a.1, a.2, a.3), (2, 30.0, 30.0));
        let dir = crate::sys::ScratchDir::new(&std::env::temp_dir(), "trace").unwrap();
        let path = dir.path().join("t.jsonl");
        t.write(&path).unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text.lines().count(), 6 + 3);
        assert!(text.contains("\"parent\": 3, \"req\": 2"));
    }
}

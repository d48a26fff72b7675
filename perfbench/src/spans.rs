//! In-memory span recording for the traced runs.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions: name, start, end, parent span and a group id
//! shared by every span of one reallocation or request. They stay in
//! memory until the run ends and are then written out as JSON lines.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer entry point, e.g. `"session.solve"`.
    pub name: &'static str,
    /// Reallocation / request / solve this span belongs to.
    pub group: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin (0 while open).
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span log with one time origin. Tracers of different threads that
/// share an origin can be merged with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty log whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// The time origin.
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span now; returns its index for [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, group: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            group,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Record an already-timed span.
    pub fn record(
        &mut self,
        name: &'static str,
        group: u64,
        parent: Option<usize>,
        start_ns: u64,
        end_ns: u64,
    ) {
        self.spans.push(Span {
            name,
            group,
            parent,
            start_ns,
            end_ns,
        });
    }

    /// Append another tracer's spans (same origin), remapping parents.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s
        }));
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of all spans called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .sum()
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part of it that its child spans cover.
    pub fn self_s(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0.0) += s.duration_ns().saturating_sub(c) as f64 * 1e-9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"group\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.group, s.start_ns, s.end_ns
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
        let mut t = Tracer::new(Instant::now());
        t.record("root", 0, None, 0, 100);
        t.record("child", 0, Some(0), 10, 40);
        t.record("child", 0, Some(0), 50, 60);
        let own = t.self_s();
        assert!((own["root"] - 60e-9).abs() < 1e-15);
        assert!((own["child"] - 40e-9).abs() < 1e-15);
        assert!((t.total_s("child") - 40e-9).abs() < 1e-15);
    }

    #[test]
    fn absorb_remaps_parents() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.record("x", 0, None, 0, 1);
        let mut b = Tracer::new(origin);
        b.record("y", 1, None, 0, 10);
        b.record("z", 1, Some(0), 2, 4);
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}

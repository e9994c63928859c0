//! In-memory spans around every call the harness makes into a layer's
//! public function. Nothing is written until the window has closed;
//! spans *inside* the program are a later issue, so where a callee runs
//! in-process its children are synthesized from the `ExecReport` the
//! call returned (`db_time`, `compute_time`).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Debug)]
pub struct Span {
    pub op_id: u64,
    pub name: &'static str,
    /// Index of the parent span in the tracer, if any.
    pub parent: Option<u32>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A counter delta observed at an op boundary.
#[derive(Clone, Debug)]
pub struct Count {
    pub op_id: u64,
    pub name: &'static str,
    pub value: f64,
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    pub counts: Vec<Count>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, op_id: u64, name: &'static str, parent: Option<u32>) -> u32 {
        let now = self.now_ns();
        self.push(op_id, name, parent, now, now)
    }

    pub fn close(&mut self, idx: u32) -> u64 {
        let now = self.now_ns();
        let s = &mut self.spans[idx as usize];
        s.end_ns = now;
        now - s.start_ns
    }

    /// Record a span with known bounds (a synthesized child, or one
    /// measured on another thread's clock and rebased).
    pub fn push(
        &mut self,
        op_id: u64,
        name: &'static str,
        parent: Option<u32>,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        self.spans.push(Span {
            op_id,
            name,
            parent,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// A child covering `dur_ns` of its parent, anchored at the
    /// parent's start: the callee reported the duration, not the
    /// position.
    pub fn child_of(&mut self, parent: u32, name: &'static str, dur_ns: u64) -> u32 {
        let p = &self.spans[parent as usize];
        let (op_id, start) = (p.op_id, p.start_ns);
        self.push(op_id, name, Some(parent), start, start + dur_ns)
    }

    pub fn count(&mut self, op_id: u64, name: &'static str, value: f64) {
        self.counts.push(Count { op_id, name, value });
    }

    /// Per span name: each span's self time (its duration minus the part
    /// its children cover), in milliseconds.
    pub fn self_ms(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(c);
            out.entry(s.name).or_default().push(own as f64 / 1e6);
        }
        out
    }

    /// Each layer's share of all traced op time (root spans = ops).
    pub fn shares(&self) -> BTreeMap<&'static str, f64> {
        let total: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .sum();
        self.self_ms()
            .into_iter()
            .map(|(k, v)| (k, v.iter().sum::<f64>() / total.max(1e-12)))
            .collect()
    }

    /// Sum of a counter over all ops.
    pub fn total(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .filter(|c| c.name == name)
            .map(|c| c.value)
            .sum()
    }

    /// One JSON object per line: spans first, then counter deltas.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"span\":{i},\"op_id\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.op_id, s.name, s.start_ns, s.end_ns
            )?;
        }
        for c in &self.counts {
            writeln!(
                w,
                "{{\"op_id\":{},\"count\":\"{}\",\"value\":{}}}",
                c.op_id, c.name, c.value
            )?;
        }
        w.flush()
    }
}

/// The tracer and the root span of the op being traced, when tracing.
pub type Scope<'a> = Option<(&'a mut Tracer, u32)>;

/// Run `f` — a call into a layer's public function — under a span named
/// `name` when tracing is on, and bare when it is off.
pub fn spanned<T>(scope: &mut Scope<'_>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match scope {
        Some((tracer, root)) => {
            let op_id = tracer.spans[*root as usize].op_id;
            let span = tracer.open(op_id, name, Some(*root));
            let out = f();
            tracer.close(span);
            out
        }
        None => f(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let op = t.push(7, "op", None, 0, 10_000_000);
        let exec = t.push(7, "zql.execute", Some(op), 1_000_000, 9_000_000);
        t.child_of(exec, "exec.db", 5_000_000);
        t.child_of(exec, "zql.compute", 1_000_000);
        let own = t.self_ms();
        assert_eq!(own["op"], vec![2.0]);
        assert_eq!(own["zql.execute"], vec![2.0]);
        assert_eq!(own["exec.db"], vec![5.0]);
        let shares = t.shares();
        assert!((shares["exec.db"] - 0.5).abs() < 1e-12);
        assert!((shares.values().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}

//! Host-time measurement: one monotonic clock and an in-memory span tree.
//!
//! Every timing in the benchmark goes through [`now_ns`], so the single
//! wall-clock read of the package sits behind one lint pragma. Spans are
//! recorded as `(name, start, end, parent, op)` and only written out when
//! the run ends ([`Tracer::to_tsv`]), so tracing costs two clock reads
//! and one `Vec` push per span.

use std::fmt::Write as _;
use std::sync::OnceLock;

// cent-lint: allow(d2) -- host time is what this benchmark measures; it never reaches sim state
static EPOCH: OnceLock<std::time::Instant> = OnceLock::new();

/// Nanoseconds since the first call in this process (monotonic).
pub fn now_ns() -> u64 {
    // cent-lint: allow(d2) -- host time is what this benchmark measures; it never reaches sim state
    let epoch = EPOCH.get_or_init(std::time::Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).expect("a run lasts less than 584 years")
}

/// Seconds between two [`now_ns`] readings.
pub fn secs(start_ns: u64, end_ns: u64) -> f64 {
    end_ns.saturating_sub(start_ns) as f64 * 1e-9
}

/// Runs `f` and returns its result with its host duration in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = now_ns();
    let out = f();
    (out, secs(start, now_ns()))
}

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// What ran, e.g. `sim.evaluate` or `device.execute`.
    pub name: &'static str,
    /// Start, [`now_ns`] clock.
    pub start_ns: u64,
    /// End, [`now_ns`] clock.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id: which call, key or group the span belongs to.
    pub op: u64,
}

impl Span {
    /// Host nanoseconds the span covers.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder. Spans nest through [`Tracer::span`]; the
/// innermost open span is the parent of the next one opened.
#[derive(Debug, Default)]
pub struct Tracer {
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// Runs `f` inside a span named `name` tagged with `op`.
    pub fn span<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: now_ns(), end_ns: 0, parent, op });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = now_ns();
        out
    }

    /// Records an already-measured span.
    #[cfg(test)]
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `id`: its duration minus the part of it that its
    /// direct children cover (overlapping children are counted once).
    pub fn self_ns(&self, id: usize) -> u64 {
        let parent = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = parent.start_ns;
        for (a, b) in children {
            let a = a.max(reach);
            if b > a {
                covered += b - a;
                reach = b;
            }
        }
        parent.duration_ns() - covered
    }

    /// Total seconds of the spans named `name` recorded at index `from`
    /// or later, each weighted by `weight(op)`.
    pub fn weighted_secs(&self, from: usize, name: &str, weight: impl Fn(u64) -> f64) -> f64 {
        let ns: f64 = self.spans[from..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 * weight(s.op))
            .sum();
        ns * 1e-9
    }

    /// The spans as tab-separated rows (`id parent op name start_ns end_ns
    /// self_ns`), with a header line.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\tself_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.op,
                s.name,
                s.start_ns,
                s.end_ns,
                self.self_ns(id)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Tracer::default();
        let root = t.push(span("root", 0, 100, None));
        let a = t.push(span("a", 10, 40, Some(root)));
        // Overlaps `a` by 10 ns: the union of children is [10, 60).
        t.push(span("b", 30, 60, Some(root)));
        // A grandchild is covered by its parent, not by the root.
        t.push(span("c", 15, 25, Some(a)));
        assert_eq!(t.self_ns(root), 100 - 50);
        assert_eq!(t.self_ns(a), 30 - 10);
        assert_eq!(t.self_ns(2), 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let mut t = Tracer::default();
        let root = t.push(span("root", 10, 20, None));
        t.push(span("late", 15, 30, Some(root)));
        assert_eq!(t.self_ns(root), 5);
    }

    #[test]
    fn nested_spans_record_parents_and_weights() {
        let mut t = Tracer::default();
        t.span("outer", 7, |t| {
            t.span("inner", 1, |_| ());
            t.span("inner", 2, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[0].op, 7);
        assert!(t.self_ns(0) <= spans[0].duration_ns());
        let once = t.weighted_secs(0, "inner", |_| 1.0);
        let weighted = t.weighted_secs(0, "inner", |op| op as f64);
        let (a, b) = (spans[1].duration_ns() as f64, spans[2].duration_ns() as f64);
        assert!((once - (a + b) * 1e-9).abs() < 1e-15);
        assert!((weighted - (a + 2.0 * b) * 1e-9).abs() < 1e-15);
        assert!(t.to_tsv().lines().count() == 4);
    }
}

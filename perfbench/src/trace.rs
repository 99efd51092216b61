//! In-memory spans recorded around the calls the benchmark makes into
//! each layer. Nothing is written while the workload runs; the spans
//! are summarised once it ends.

use std::time::Instant;

/// One timed interval, in nanoseconds from the trace origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name (`job`, `stage.map`, `kernel.rsmt`, ...).
    pub name: String,
    /// Index of the enclosing span in the same trace.
    pub parent: Option<usize>,
    /// Start offset, ns.
    pub start: u64,
    /// End offset, ns.
    pub end: u64,
}

impl Span {
    /// Wall duration, ns.
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// A flat list of spans sharing one time origin.
#[derive(Debug, Clone)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    /// An empty trace whose offsets count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self { origin, spans: Vec::new() }
    }

    /// The instant offsets count from (hand it to traces recorded on
    /// other threads, then [`Trace::absorb`] them).
    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span and returns its index.
    pub fn push(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.spans.push(Span { name: name.into(), parent, start, end });
        self.spans.len() - 1
    }

    /// Opens a span now; close it with [`Trace::close`].
    pub fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let t = self.now();
        self.push(name, parent, t, t)
    }

    /// Closes an open span now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Times `f` as a span under `parent`.
    pub fn time<T>(&mut self, name: &str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another trace's spans (recorded against the same
    /// origin, e.g. on another thread), re-parenting its roots under
    /// `parent`.
    pub fn absorb(&mut self, other: Trace, parent: Option<usize>) {
        let base = self.spans.len();
        for mut s in other.spans {
            s.parent = match s.parent {
                Some(p) => Some(p + base),
                None => parent,
            };
            self.spans.push(s);
        }
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.duration()).sum::<u64>() as f64 / 1e9
    }

    /// How many spans are named `name`.
    pub fn count(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time of span `id`, ns: its duration minus the part of its
    /// interval that its children cover (overlapping children, such as
    /// concurrent pipeline tails, are counted once).
    pub fn self_time(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let kids: Vec<(u64, u64)> =
            self.spans.iter().filter(|c| c.parent == Some(id)).map(|c| (c.start, c.end)).collect();
        s.duration() - covered(&kids, s.start, s.end)
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> =
        intervals.iter().map(|&(a, b)| (a.max(lo), b.min(hi))).filter(|&(a, b)| a < b).collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    if let Some((a, b)) = cur {
        total += b - a;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_once() {
        let mut t = Trace::new(Instant::now());
        let job = t.push("job", None, 0, 100);
        t.push("stage.a", Some(job), 10, 40);
        // Two concurrent tails overlapping on [50, 70].
        t.push("stage.b", Some(job), 40, 70);
        t.push("stage.c", Some(job), 50, 90);
        // A grandchild does not count against the job directly.
        let b = 2;
        t.push("kernel.k", Some(b), 45, 60);
        assert_eq!(t.self_time(job), 100 - 80);
        assert_eq!(t.self_time(b), 30 - 15);
        assert_eq!(t.self_time(4), 15);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let mut t = Trace::new(Instant::now());
        let p = t.push("p", None, 10, 20);
        t.push("c", Some(p), 0, 15);
        assert_eq!(t.self_time(p), 5);
    }

    #[test]
    fn covered_merges_touching_and_nested_intervals() {
        assert_eq!(covered(&[(0, 10), (10, 20), (5, 8), (30, 35)], 0, 100), 25);
        assert_eq!(covered(&[], 0, 100), 0);
        assert_eq!(covered(&[(50, 150)], 0, 100), 50);
    }

    #[test]
    fn absorb_reparents_roots_and_shifts_indices() {
        let origin = Instant::now();
        let mut t = Trace::new(origin);
        let job = t.push("job", None, 0, 100);
        let mut tail = Trace::new(origin);
        let s = tail.push("stage.map", None, 10, 50);
        tail.push("kernel.x", Some(s), 20, 30);
        t.absorb(tail, Some(job));
        assert_eq!(t.spans()[1].parent, Some(job));
        assert_eq!(t.spans()[2].parent, Some(1));
        assert_eq!(t.total_s("stage.map"), 40e-9);
        assert_eq!(t.count("kernel.x"), 1);
    }
}

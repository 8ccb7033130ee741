//! In-memory host-time spans for the traced run.
//!
//! A [`Tracer`] records one [`Span`] per call into a layer's public
//! function, made from the benchmark's own code: name, start, end, the
//! span that was open when it began (its parent), and the id of the
//! suite item or request it served. Spans stay in memory and are
//! written out once, at the end of the run.
//!
//! A layer's *self time* is its spans' durations minus the part of each
//! interval covered by that span's children (overlapping children are
//! counted once).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `profile` or `sim.run_ftspm`.
    pub name: &'static str,
    /// Suite item or request the span served.
    pub item: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since origin.
    pub start_ns: u64,
    /// End, ns since origin (equal to start while the span is open).
    pub end_ns: u64,
}

/// A span recorder for one thread of the benchmark. A disabled tracer
/// records nothing and never reads the clock, so the untraced run
/// drives the same code with tracing off.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose clock starts at `origin` (share one origin
    /// between threads so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Self {
            enabled: true,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self {
            enabled: false,
            ..Self::new(Instant::now())
        }
    }

    /// Opens a span named `name` for `item`; spans opened before the
    /// matching [`Tracer::exit`] become its children.
    pub fn enter(&mut self, name: &'static str, item: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            item,
            parent: self.open.iter().rev().nth(1).copied(),
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = end_ns;
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records an already-measured interval as a closed span under the
    /// currently open span (used for wire timings taken by the load
    /// generator).
    pub fn record(&mut self, name: &'static str, item: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            item,
            parent: self.open.last().copied(),
            start_ns: at(start),
            end_ns: at(end),
        });
    }

    /// Consumes the tracer, returning its spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Length of the union of `intervals` (each `(start, end)`), clipped to
/// `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, in span order: its duration minus the time
/// its direct children cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| {
            let total = s.end_ns.saturating_sub(s.start_ns);
            total - covered(kids, s.start_ns, s.end_ns).min(total)
        })
        .collect()
}

/// Per-name totals: (self ns, total ns, span count), by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_ns(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += own;
        e.1 += s.end_ns.saturating_sub(s.start_ns);
        e.2 += 1;
    }
    out
}

/// The spans as CSV: `index,name,item,parent,start_ns,end_ns,self_ns`
/// (`parent` empty for roots).
pub fn to_csv(spans: &[Span]) -> String {
    let mut out = String::from("index,name,item,parent,start_ns,end_ns,self_ns\n");
    for (i, (s, own)) in spans.iter().zip(self_ns(spans)).enumerate() {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{i},{},{},{parent},{},{},{own}",
            s.name, s.item, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            item: 0,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // root [0,100) > mid [10,60) > leaf [20,30)
        let spans = vec![
            span("root", None, 0, 100),
            span("mid", Some(0), 10, 60),
            span("leaf", Some(1), 20, 30),
        ];
        // The leaf is subtracted from mid only, not again from root.
        assert_eq!(self_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_with_siblings_and_overlap() {
        // Two disjoint siblings and one overlapping the second (as
        // concurrent children can): covered = [10,30) ∪ [40,70) = 50.
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 40, 60),
            span("c", Some(0), 50, 70),
        ];
        assert_eq!(self_ns(&spans), vec![50, 20, 20, 20]);
        let totals = by_name(&spans);
        assert_eq!(totals["root"], (50, 100, 1));
        assert_eq!(totals["b"], (20, 20, 1));
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("root", None, 10, 20), span("late", Some(0), 15, 40)];
        assert_eq!(self_ns(&spans), vec![5, 25]);
    }

    #[test]
    fn tracer_links_parents() {
        let mut t = Tracer::new(Instant::now());
        t.enter("outer", 7);
        t.enter("inner", 7);
        t.exit();
        let at = Instant::now();
        t.record("wire", 7, at, at);
        t.exit();
        t.enter("next", 8);
        t.exit();
        let s = t.into_spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!(s[3].parent, None);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        assert!(to_csv(&s).starts_with("index,name,item,parent"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        t.enter("outer", 1);
        let at = Instant::now();
        t.record("wire", 1, at, at);
        t.exit();
        assert!(t.into_spans().is_empty());
    }
}

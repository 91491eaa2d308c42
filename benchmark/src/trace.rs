//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark's own code, around its calls into
//! each crate's public functions; nothing inside the crates is
//! instrumented. Each span carries a name, start, end, parent and the id
//! of the op it belongs to, lives in memory while the run measures, and is
//! written out once at exit.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Spans of one op share this id.
    pub op: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// An open span (or, with recording off, just a running stopwatch).
#[must_use = "close the span with Recorder::end"]
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

/// Name of the scaffold span around one whole round; its self time is
/// the part of the run no layer span accounts for.
pub const ROUND: &str = "bench.round";

#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Vec::new(), stack: Vec::new(), op: 0 }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switches recording; returns the previous setting so callers can
    /// restore it (the untraced twin ops of a traced run).
    pub fn set_enabled(&mut self, enabled: bool) -> bool {
        std::mem::replace(&mut self.enabled, enabled)
    }

    /// Starts a new op: spans opened from here on share a fresh op id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span under the innermost open one. The clock is read last,
    /// so the recorder's own bookkeeping stays outside the timed interval.
    pub fn begin(&mut self, name: &'static str) -> Open {
        let index = self.enabled.then(|| {
            let parent = self.stack.last().copied();
            self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, op: self.op });
            self.stack.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { index, started: Instant::now() }
    }

    /// Closes `open` and returns its duration in seconds. The clock is
    /// read first.
    pub fn end(&mut self, open: Open) -> f64 {
        let ended = Instant::now();
        if let Some(index) = open.index {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(index), "spans must close innermost first");
            self.spans[index].start_ns = self.ns(open.started);
            self.spans[index].end_ns = self.ns(ended);
        }
        ended.duration_since(open.started).as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("id", Json::num(id as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::num(s.start_ns as f64)),
                ("end_ns", Json::num(s.end_ns as f64)),
                ("parent", s.parent.map_or(Json::Null, |p| Json::num(p as f64))),
                ("op", Json::num(s.op as f64)),
            ])
        });
        Json::obj([("workload", Json::str(workload)), ("spans", Json::Arr(spans.collect()))])
    }
}

/// Self time of every span in seconds: its duration minus the part of its
/// interval that its child spans cover. Overlapping children are counted
/// once (interval union) and clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns - covered) as f64 / 1e9
        })
        .collect()
}

/// Per-name totals over a finished trace.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotal {
    pub count: u64,
    /// Σ durations.
    pub total_s: f64,
    /// Σ self times.
    pub self_s: f64,
}

pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_s) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_s += s.seconds();
        t.self_s += self_s;
    }
    out
}

/// Share of the traced rounds' wall time that some named layer span
/// accounts for: 1 − (self time of the [`ROUND`] scaffolds ÷ their
/// duration). Since every other span nests inside a round, this equals
/// Σ self time of the layer spans ÷ traced wall.
pub fn coverage(spans: &[Span]) -> f64 {
    match totals_by_name(spans).get(ROUND) {
        Some(t) if t.total_s > 0.0 => 1.0 - t.self_s / t.total_s,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // round [0, 100) > a [10, 60) > b [20, 30); round > c [70, 90)
        let spans = [
            span(ROUND, 0, 100, None),
            span("a", 10, 60, Some(0)),
            span("b", 20, 30, Some(1)),
            span("c", 70, 90, Some(0)),
        ];
        let ns: Vec<f64> = self_times(&spans).iter().map(|s| (s * 1e9).round()).collect();
        assert_eq!(ns, [30.0, 40.0, 10.0, 20.0]);
        // Self times partition the root's duration.
        assert_eq!(ns.iter().sum::<f64>(), 100.0);
        assert!((coverage(&spans) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children that ran on two threads overlap in [30, 50); one also
        // sticks out past the parent's end and is clipped.
        let spans = [
            span(ROUND, 0, 100, None),
            span("w", 10, 50, Some(0)),
            span("w", 30, 80, Some(0)),
            span("w", 90, 130, Some(0)),
            span("w", 35, 45, Some(0)), // wholly inside the union already
        ];
        let selfs = self_times(&spans);
        // Union = [10, 80) ∪ [90, 100) = 80 ns covered, 20 ns self.
        assert_eq!((selfs[0] * 1e9).round(), 20.0);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["w"].count, 4);
        assert_eq!((totals["w"].total_s * 1e9).round(), 140.0);
    }

    #[test]
    fn recorder_nests_by_open_order_and_tags_ops() {
        let mut rec = Recorder::new(true);
        let round = rec.begin(ROUND);
        rec.next_op();
        let a = rec.begin("a");
        let b = rec.begin("b");
        rec.end(b);
        rec.end(a);
        rec.next_op();
        let c = rec.begin("c");
        rec.end(c);
        rec.end(round);
        let s = rec.spans();
        assert_eq!(s.iter().map(|s| s.name).collect::<Vec<_>>(), [ROUND, "a", "b", "c"]);
        assert_eq!(
            s.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(1), Some(0)]
        );
        assert_eq!(s.iter().map(|s| s.op).collect::<Vec<_>>(), [0, 1, 1, 2]);
        assert!(s.iter().all(|s| s.end_ns >= s.start_ns));
        let parsed = Json::parse(&rec.to_json("w").pretty()).unwrap();
        assert_eq!(parsed.get("spans").and_then(Json::as_arr).map(<[Json]>::len), Some(4));
    }

    #[test]
    fn disabled_recorder_times_but_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let open = rec.begin("a");
        assert!(rec.end(open) >= 0.0);
        assert!(rec.spans().is_empty());
        assert_eq!(coverage(rec.spans()), 0.0);
    }
}

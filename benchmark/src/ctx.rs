//! What every workload shares: run options, the timed-op bookkeeping
//! (samples, failures, spans) and the round budget.

use crate::spec;
use crate::stats::{Kind, Samples};
use crate::trace::{Recorder, ROUND};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Options {
    pub seed: u64,
    /// Seconds the rounds may take; a round starts only if the previous
    /// one's duration still fits.
    pub seconds: f64,
    pub trace: bool,
    /// Tiny inputs and exactly two rounds, all checks on.
    pub smoke: bool,
}

/// Ops attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(what);
        }
    }
}

pub struct Ctx {
    pub opts: Options,
    pub rec: Recorder,
    pub samples: Samples,
    pub tally: Tally,
    pub rounds: u64,
    measuring_since: Option<Instant>,
    last_round_s: f64,
}

impl Ctx {
    pub fn new(opts: Options) -> Self {
        let rec = Recorder::new(opts.trace);
        Self {
            opts,
            rec,
            samples: Samples::default(),
            tally: Tally::default(),
            rounds: 0,
            measuring_since: None,
            last_round_s: 0.0,
        }
    }

    /// Runs `f` as one op under a span named `span`, containing a panic.
    /// Returns its result (`None` if it panicked) and its duration.
    pub fn op<R>(&mut self, span: &'static str, f: impl FnOnce() -> R) -> (Option<R>, f64) {
        self.rec.next_op();
        self.step(span, f)
    }

    /// [`op`](Self::op) without a fresh op id: one timed call inside an op
    /// that spans several.
    pub fn step<R>(&mut self, span: &'static str, f: impl FnOnce() -> R) -> (Option<R>, f64) {
        let open = self.rec.begin(span);
        let result = catch_unwind(AssertUnwindSafe(f));
        let seconds = self.rec.end(open);
        (result.ok(), seconds)
    }

    /// Counts one attempted op that is not sampled (round 0 runs cold).
    pub fn count(&mut self, kind: Kind, ok: bool) {
        self.tally.attempted += 1;
        if !ok {
            self.tally.fail(format!("{}[{}] in round {}", kind.0, kind.1, self.rounds));
        }
    }

    /// Books one attempted op: a timing sample when its output verified,
    /// a failure (and no sample) otherwise.
    pub fn book(&mut self, kind: Kind, seconds: f64, ok: bool) {
        self.count(kind, ok);
        if ok {
            self.samples.add(kind, seconds);
        }
    }

    /// [`op`](Self::op) + [`book`](Self::book) for ops whose check is a
    /// predicate over the result. The check runs after the clock stops.
    pub fn timed<R>(
        &mut self,
        span: &'static str,
        kind: Kind,
        f: impl FnOnce() -> R,
        check: impl FnOnce(&R) -> bool,
    ) -> Option<R> {
        let (result, seconds) = self.op(span, f);
        let ok = self.verify(|| result.as_ref().is_some_and(check));
        self.book(kind, seconds, ok);
        result.filter(|_| ok)
    }

    /// Runs an output check under its own span, so that verification
    /// shows in the trace as accounted-for time outside every layer.
    pub fn verify<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let open = self.rec.begin("bench.verify");
        let out = f();
        self.rec.end(open);
        out
    }

    /// Runs `f` with span recording off: the untraced twin of an op, for
    /// `trace.overhead_pct`. The twin's wall time still shows in the
    /// trace, as one opaque span.
    pub fn untraced<R>(&mut self, f: impl FnOnce(&mut Ctx) -> R) -> R {
        let open = self.rec.begin("bench.untraced_twin");
        let was = self.rec.set_enabled(false);
        let out = f(self);
        self.rec.set_enabled(was);
        self.rec.end(open);
        out
    }

    /// Whether another round fits the budget. Smoke runs make exactly two
    /// rounds; otherwise at least one (two when tracing, so that every
    /// per-layer number is the better of two), then as many as end within
    /// `seconds` judging by the previous round's duration.
    pub fn next_round(&mut self) -> bool {
        let since = *self.measuring_since.get_or_insert_with(Instant::now);
        if self.opts.smoke {
            return self.rounds < 2;
        }
        let least = if self.opts.trace { 2 } else { 1 };
        self.rounds < least
            || since.elapsed().as_secs_f64() + self.last_round_s <= self.opts.seconds
    }

    /// Runs one round under the [`ROUND`] scaffold span.
    pub fn round(&mut self, f: impl FnOnce(&mut Ctx)) {
        let open = self.rec.begin(ROUND);
        f(self);
        self.last_round_s = self.rec.end(open);
        self.rounds += 1;
    }
}

/// Metric values by name; every name must be in [`spec`].
#[derive(Debug, Default, Clone)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(spec::find(name).is_some(), "metric {name} is not in the spec tables");
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// `part / whole`, or 0 when the whole is empty (layer not exercised).
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Metrics,
    /// Output identities (`container_digest`, `figure_digest`,
    /// `sim_stats_digest`): not metrics, but `compare` prints when they
    /// differ between two sets of runs.
    pub digests: BTreeMap<&'static str, String>,
}

//! Channel request scheduling: the policy enum and the FR-FCFS write
//! queue behind [`super::Channel`].
//!
//! The simulator resolves read completions synchronously (an SM needs its
//! load's completion time the moment it issues), so the reorder window a
//! real FR-FCFS scheduler holds is modelled asymmetrically:
//!
//! * **Reads** are serviced at arrival, ahead of any buffered write that
//!   has not yet exceeded the age cap (read-over-write priority).
//! * **Writes** are fire-and-forget and buffer in a bounded per-channel
//!   [`WriteQueue`]. The queue drains on the high watermark (capacity
//!   reached → drain to half), opportunistically whenever the data bus
//!   has been idle (the channel is read-idle), and fully at end of
//!   kernel. Drain order is FR-FCFS proper: row-hit-first against the
//!   banks' open rows, oldest-first among equals, and an age cap that
//!   promotes the oldest entry over any row hit so no write starves.
//!
//! [`SchedPolicy::InOrder`] bypasses the queue entirely and reproduces
//! the legacy single-horizon channel bit for bit — the policy a refactor
//! lands under before the default flips, so figure deltas stay
//! attributable to the scheduler and never to the plumbing.

/// Channel scheduling policy (a [`crate::GpuConfig`] knob).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedPolicy {
    /// Legacy model: every request is serviced immediately at arrival in
    /// program order; writes occupy the bus ahead of younger reads.
    InOrder,
    /// FR-FCFS arbitration: reads bypass buffered writes, the write queue
    /// drains row-hit-first with an age cap (see the module docs).
    FrFcfs,
}

/// One buffered write request.
#[derive(Debug, Clone, Copy)]
pub struct PendingWrite {
    /// Data bursts the write moves.
    pub bursts: u32,
    /// When the write reached the channel (SM cycles).
    pub arrival: f64,
    /// Bank the block maps to (computed once, at enqueue).
    pub bank: usize,
    /// Row the block maps to (computed once, at enqueue).
    pub row: u64,
}

/// Bounded FR-FCFS write buffer of one channel.
///
/// Entries stay in arrival order; [`select`](Self::select) implements the
/// arbitration and returns an index for the channel to service.
#[derive(Debug, Clone, Default)]
pub struct WriteQueue {
    entries: Vec<PendingWrite>,
}

impl WriteQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Buffered writes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Arrival time of the oldest buffered write.
    pub fn oldest_arrival(&self) -> Option<f64> {
        self.entries.first().map(|e| e.arrival)
    }

    /// Buffers one write. Entries are treated as age-ordered by insertion:
    /// arrivals are near-monotonic (the engine steps SMs laggard-first and
    /// only fixed codec-latency offsets jitter the order by a few dozen
    /// cycles), so insertion order is the age order FR-FCFS arbitrates on.
    pub fn push(&mut self, w: PendingWrite) {
        self.entries.push(w);
    }

    /// FR-FCFS arbitration at time `now`: the oldest entry when it has
    /// aged past `age_cap` (starvation guard), else the oldest row hit
    /// against the banks' open rows (`open_row(bank)`), else the oldest
    /// entry. `None` on an empty queue.
    pub fn select(
        &self,
        now: f64,
        age_cap: f64,
        open_row: impl Fn(usize) -> Option<u64>,
    ) -> Option<usize> {
        let oldest = self.entries.first()?;
        if now - oldest.arrival > age_cap {
            return Some(0);
        }
        self.entries.iter().position(|e| open_row(e.bank) == Some(e.row)).or(Some(0))
    }

    /// Whether the oldest entry has aged past `age_cap` at time `now`.
    pub fn oldest_overage(&self, now: f64, age_cap: f64) -> bool {
        self.entries.first().is_some_and(|e| now - e.arrival > age_cap)
    }

    /// Removes and returns the entry at `index` (arrival order preserved
    /// for the rest).
    pub fn remove(&mut self, index: usize) -> PendingWrite {
        self.entries.remove(index)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(arrival: f64, bank: usize, row: u64) -> PendingWrite {
        PendingWrite { bursts: 4, arrival, bank, row }
    }

    #[test]
    fn empty_queue_selects_nothing() {
        let q = WriteQueue::new();
        assert_eq!(q.select(100.0, 10.0, |_| None), None);
        assert!(q.is_empty());
        assert_eq!(q.oldest_arrival(), None);
    }

    #[test]
    fn row_hit_beats_older_miss() {
        let mut q = WriteQueue::new();
        q.push(w(0.0, 0, 7)); // row miss (bank 0 has row 1 open)
        q.push(w(1.0, 0, 1)); // row hit
        let i = q.select(2.0, 1e9, |b| if b == 0 { Some(1) } else { None });
        assert_eq!(i, Some(1), "the row hit wins while nothing is overage");
    }

    #[test]
    fn oldest_wins_among_row_hits_and_among_misses() {
        let mut q = WriteQueue::new();
        q.push(w(0.0, 0, 1)); // hit, oldest
        q.push(w(1.0, 0, 1)); // hit, younger
        assert_eq!(q.select(2.0, 1e9, |_| Some(1)), Some(0));
        let mut q = WriteQueue::new();
        q.push(w(0.0, 0, 5)); // miss, oldest
        q.push(w(1.0, 0, 6)); // miss, younger
        assert_eq!(q.select(2.0, 1e9, |_| Some(1)), Some(0));
    }

    #[test]
    fn age_cap_promotes_the_oldest_over_row_hits() {
        let mut q = WriteQueue::new();
        q.push(w(0.0, 0, 7)); // row miss, old
        q.push(w(1.0, 0, 1)); // row hit
        let open = |b: usize| if b == 0 { Some(1) } else { None };
        assert_eq!(q.select(50.0, 100.0, open), Some(1), "under the cap the hit wins");
        assert_eq!(q.select(150.0, 100.0, open), Some(0), "past the cap the oldest wins");
        assert!(q.oldest_overage(150.0, 100.0));
        assert!(!q.oldest_overage(50.0, 100.0));
    }

    #[test]
    fn remove_preserves_arrival_order() {
        let mut q = WriteQueue::new();
        q.push(w(0.0, 0, 0));
        q.push(w(1.0, 0, 1));
        q.push(w(2.0, 0, 2));
        let e = q.remove(1);
        assert_eq!(e.row, 1);
        assert_eq!(q.oldest_arrival(), Some(0.0));
        assert_eq!(q.len(), 2);
        assert_eq!(q.remove(1).row, 2);
    }
}

//! The result board: where workers dump intermediate results for the
//! harness to sample without queueing behind the backlog (the paper's
//! Level-2 "periodically dump intermediate results" instrumentation).
//!
//! One snapshot slot per worker. A worker fills a scratch buffer it owns
//! with its partition's whole summary and *swaps* it with its slot, so a
//! publish holds the slot's lock for a pointer swap, contends with no
//! other worker, and gets the previous snapshot's buffer back as the next
//! publish's scratch — after the first few publishes none allocates. A
//! reader copies each slot out under its lock and merges the copies on its
//! own thread.
//!
//! A slot is always one worker's complete summary at one instant: a vertex
//! the worker no longer holds is gone at its next publish, and a reader can
//! never see half of a publish. Slots of different workers are from
//! different instants.

use std::collections::BTreeMap;
use std::sync::Mutex;

use gt_core::prelude::*;
use gt_core::sync::lock;

/// One worker's published summary: `(vertex, value)` in partition order.
pub type Snapshot = Vec<(VertexId, f64)>;

/// Per-worker snapshot slots (see the module docs).
#[derive(Debug)]
pub struct ResultBoard {
    slots: Vec<Mutex<Snapshot>>,
}

impl ResultBoard {
    /// A board with one empty slot per worker.
    pub fn new(workers: usize) -> Self {
        ResultBoard {
            slots: (0..workers).map(|_| Mutex::default()).collect(),
        }
    }

    /// Makes `snapshot` the worker's published summary and hands the
    /// previous one back in its place — stale content, reusable capacity.
    pub fn publish(&self, worker: usize, snapshot: &mut Snapshot) {
        std::mem::swap(&mut *lock(&self.slots[worker]), snapshot);
    }

    /// Appends the worker's published summary to `out`, holding the slot
    /// for the copy only.
    pub fn read_slot(&self, worker: usize, out: &mut Snapshot) {
        out.extend_from_slice(&lock(&self.slots[worker]));
    }

    /// Every worker's published summary, merged. The map is built here,
    /// on the reader's thread, after the slots are released.
    pub fn values(&self) -> BTreeMap<VertexId, f64> {
        let mut entries = Snapshot::new();
        for worker in 0..self.slots.len() {
            self.read_slot(worker, &mut entries);
        }
        entries.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(ids: std::ops::Range<u64>) -> Snapshot {
        ids.map(|id| (VertexId(id), id as f64)).collect()
    }

    #[test]
    fn publish_then_read_round_trips() {
        let board = ResultBoard::new(2);
        board.publish(0, &mut snapshot(0..3));
        board.publish(1, &mut snapshot(10..12));
        let values = board.values();
        let ids: Vec<u64> = values.keys().map(|id| id.0).collect();
        assert_eq!(ids, [0, 1, 2, 10, 11]);
        assert_eq!(values[&VertexId(11)], 11.0);

        let mut part = vec![(VertexId(99), 0.5)];
        board.read_slot(1, &mut part);
        assert_eq!(part.len(), 3, "read_slot appends");
        assert_eq!(part[1..], snapshot(10..12)[..]);
    }

    #[test]
    fn a_smaller_publish_drops_what_it_no_longer_holds() {
        let board = ResultBoard::new(2);
        board.publish(0, &mut snapshot(0..5));
        board.publish(1, &mut snapshot(10..12));
        let mut scratch = snapshot(3..5);
        board.publish(0, &mut scratch);
        assert_eq!(scratch, snapshot(0..5), "the previous snapshot comes back");
        let ids: Vec<u64> = board.values().keys().map(|id| id.0).collect();
        assert_eq!(ids, [3, 4, 10, 11]);
    }

    #[test]
    fn buffers_are_recycled_not_grown() {
        const SIZE: u64 = 100;
        let board = ResultBoard::new(1);
        let mut scratch = Snapshot::new();
        // The capacity handed back by each publish of a fixed-size summary.
        let mut returned = Vec::new();
        for round in 0..1_000u64 {
            scratch.clear();
            scratch.extend(snapshot(round..round + SIZE));
            board.publish(0, &mut scratch);
            returned.push(scratch.capacity());
        }
        // First the slot's initial empty buffer, then the two real ones in
        // turn — each still at the capacity its first fill gave it.
        assert_eq!(returned[0], 0);
        assert!(returned[1] >= SIZE as usize && returned[2] >= SIZE as usize);
        for round in 3..returned.len() {
            assert_eq!(returned[round], returned[round - 2], "round {round}");
        }
        assert_eq!(board.values().len() as u64, SIZE);
    }

    #[test]
    fn a_slot_never_published_reads_empty() {
        let board = ResultBoard::new(3);
        assert!(board.values().is_empty());
        board.publish(1, &mut snapshot(0..2));
        assert_eq!(board.values().len(), 2);
        let mut part = Snapshot::new();
        board.read_slot(2, &mut part);
        assert!(part.is_empty());
    }
}

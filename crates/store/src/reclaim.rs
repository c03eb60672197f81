//! Lease-deferred memory reclamation (§4.2.3).
//!
//! Shards cannot observe one-sided RDMA Reads, so they cannot reference-count
//! remote pointers. Instead, every RDMA-readable item carries a *lease*: a
//! promise that its memory stays intact until the lease expires. When an item
//! is superseded or deleted, its guardian is flipped immediately (so readers
//! detect staleness) but the block enters this queue and is only returned to
//! the arena once `now > lease_expiry` — at which point no client is entitled
//! to read it anymore.
//!
//! The queue is a min-heap on expiry. The paper runs this on a background
//! thread; here every engine's queue is pumped where its owner already
//! runs, with identical semantics: a primary from the reclamation event the
//! shard server arms for the earliest expiry, a secondary from its
//! replication applier before each record it applies, and any engine from
//! a delete or an allocation that finds the arena full.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A dead block awaiting lease expiry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct DeadBlock {
    /// Arena word offset.
    pub off: u64,
    /// Block length in words.
    pub words: u32,
    /// Absolute virtual time after which the block may be freed.
    pub expiry: u64,
}

impl PartialOrd for DeadBlock {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for DeadBlock {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.expiry, self.off).cmp(&(other.expiry, other.off))
    }
}

/// Min-heap of dead blocks ordered by lease expiry.
#[derive(Debug, Default)]
pub(crate) struct ReclaimQueue {
    heap: BinaryHeap<Reverse<DeadBlock>>,
    pending_words: u64,
    peak_pending_blocks: usize,
    peak_pending_words: u64,
}

impl ReclaimQueue {
    /// Creates an empty queue.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Defers a block until `expiry`.
    pub(crate) fn push(&mut self, off: u64, words: u32, expiry: u64) {
        self.pending_words += words as u64;
        self.heap.push(Reverse(DeadBlock { off, words, expiry }));
        self.peak_pending_blocks = self.peak_pending_blocks.max(self.heap.len());
        self.peak_pending_words = self.peak_pending_words.max(self.pending_words);
    }

    /// Pops every block whose lease expired at or before `now`, invoking
    /// `free` for each. Returns the number of blocks reclaimed.
    pub(crate) fn reclaim(&mut self, now: u64, mut free: impl FnMut(u64, u32)) -> usize {
        let mut n = 0;
        while let Some(Reverse(top)) = self.heap.peek() {
            if top.expiry > now {
                break;
            }
            let Reverse(b) = self.heap.pop().expect("peeked entry");
            self.pending_words -= b.words as u64;
            free(b.off, b.words);
            n += 1;
        }
        n
    }

    /// The blocks waiting, in no particular order.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = DeadBlock> + '_ {
        self.heap.iter().map(|Reverse(b)| *b)
    }

    /// Number of blocks waiting.
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// Earliest pending expiry, if any (used to schedule the next
    /// reclamation event efficiently).
    pub(crate) fn next_expiry(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse(b)| b.expiry)
    }

    /// High-water mark of blocks held back by leases (memory-pressure
    /// diagnostic: how much dead memory the lease protocol pins at worst).
    pub(crate) fn peak_pending(&self) -> (usize, u64) {
        (self.peak_pending_blocks, self.peak_pending_words)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_release_in_expiry_order() {
        let mut q = ReclaimQueue::new();
        q.push(30, 8, 300);
        q.push(10, 8, 100);
        q.push(20, 8, 200);
        let mut freed = Vec::new();
        assert_eq!(q.reclaim(250, |off, _| freed.push(off)), 2);
        assert_eq!(freed, vec![10, 20]);
        assert_eq!(q.len(), 1);
        assert_eq!(q.next_expiry(), Some(300));
    }

    #[test]
    fn nothing_expires_early() {
        let mut q = ReclaimQueue::new();
        q.push(0, 4, 1_000);
        assert_eq!(q.reclaim(999, |_, _| panic!("must not free")), 0);
        assert_eq!(q.reclaim(1_000, |_, _| {}), 1);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn pending_words_accounting() {
        let mut q = ReclaimQueue::new();
        q.push(0, 10, 50);
        q.push(16, 6, 60);
        assert_eq!(q.pending_words, 16);
        q.reclaim(55, |_, _| {});
        assert_eq!(q.pending_words, 6);
        q.reclaim(100, |_, _| {});
        assert_eq!(q.pending_words, 0);
    }

    #[test]
    fn equal_expiries_all_release_together() {
        let mut q = ReclaimQueue::new();
        for i in 0..10 {
            q.push(i * 8, 8, 42);
        }
        let mut n = 0;
        q.reclaim(42, |_, _| n += 1);
        assert_eq!(n, 10);
    }
}

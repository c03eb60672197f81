//! Registered-memory arena.
//!
//! Real RDMA requires memory to be registered with the HCA up front, so the
//! arena is a fixed-capacity slab of 8-byte `AtomicU64` words allocated at
//! shard start. Allocation is a bump pointer plus segregated per-class free
//! lists: requests are rounded up to a *size class* — exact for small blocks
//! (≤ 16 words, covering the paper's 16 B/32 B YCSB items), geometric with
//! eight steps per power of two above that (≤ 12.5 % internal padding) — so
//! near-miss sizes share a list instead of stranding blocks. Classes are
//! derived deterministically from the requested length, so
//! [`free`](Arena::free) with the original `len` always lands on the list
//! [`alloc`](Arena::alloc) drew from. Blocks are never split or coalesced in
//! place; instead [`compact`](Arena::compact) retreats the bump frontier over
//! free blocks that border it, turning tail fragmentation back into headroom
//! any class can be carved from.
//!
//! The arena hands out *word offsets*. Only the owning shard thread calls
//! [`alloc`](Arena::alloc)/[`free`](Arena::free); concurrent remote readers
//! access the words directly through the atomic slice.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Rounds a block length up to its size class, in words.
///
/// Lengths up to 16 words are their own class (zero padding on the hot
/// small-item path). Above that, classes are spaced an eighth of a power of
/// two apart: `step = 2^(⌊log2(len-1)⌋ - 3)`, rounded up to a multiple of
/// `step`, bounding internal waste at 12.5 %.
#[inline]
pub(crate) fn size_class(len: u32) -> u32 {
    if len <= 16 {
        return len;
    }
    let k = 31 - (len - 1).leading_zeros(); // len > 16 ⇒ k ≥ 4
    let step = 1u32 << (k - 3);
    (len + step - 1) & !(step - 1)
}

/// Allocation statistics, used by eviction policies and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Total capacity in words.
    pub capacity_words: u64,
    /// Words currently handed out to live blocks (in class units, i.e.
    /// including per-block class padding).
    pub live_words: u64,
    /// Words sitting on free lists.
    pub free_list_words: u64,
    /// Words never yet allocated (bump headroom).
    pub headroom_words: u64,
    /// Number of alloc calls served.
    pub allocs: u64,
    /// Number of free calls.
    pub frees: u64,
    /// Number of [`Arena::compact`] calls that reclaimed at least one word.
    pub compactions: u64,
    /// Total words returned from free lists to bump headroom by compaction.
    pub compacted_words: u64,
}

/// Fixed-capacity word arena with size-classed free lists.
pub(crate) struct Arena {
    words: Arc<[AtomicU64]>,
    bump: u64,
    /// Size class (words) → offsets of free blocks of that class.
    free: HashMap<u32, Vec<u64>>,
    live_words: u64,
    free_words: u64,
    allocs: u64,
    frees: u64,
    compactions: u64,
    compacted_words: u64,
}

impl Arena {
    /// Creates an arena with `capacity_words` zeroed words.
    pub(crate) fn new(capacity_words: usize) -> Self {
        Arena {
            // Zeroed by the allocator and never written here: the host
            // commits a page when an item first lands on it, so an arena
            // sized for the worst case costs what its occupancy costs.
            // SAFETY: the all-zero bit pattern is a valid `AtomicU64` (it has
            // the representation of `u64`), so every element is initialised.
            words: unsafe { Arc::<[AtomicU64]>::new_zeroed_slice(capacity_words).assume_init() },
            bump: 0,
            free: HashMap::new(),
            live_words: 0,
            free_words: 0,
            allocs: 0,
            frees: 0,
            compactions: 0,
            compacted_words: 0,
        }
    }

    /// The raw word slice — this is the "registered memory region" remote
    /// peers read through one-sided operations.
    #[inline]
    pub(crate) fn words(&self) -> &[AtomicU64] {
        &self.words
    }

    /// Shared handle to the backing memory, for registering the arena as an
    /// RDMA-readable region with the fabric.
    pub(crate) fn memory(&self) -> Arc<[AtomicU64]> {
        self.words.clone()
    }

    /// Capacity in words.
    pub(crate) fn capacity_words(&self) -> u64 {
        self.words.len() as u64
    }

    /// Allocates a block of at least `len` words (rounded up to the size
    /// class). Returns its word offset, or `None` when neither the class free
    /// list nor bump headroom can satisfy it.
    pub(crate) fn alloc(&mut self, len: u32) -> Option<u64> {
        if len == 0 {
            return None;
        }
        let class = size_class(len);
        if let Some(list) = self.free.get_mut(&class) {
            if let Some(off) = list.pop() {
                self.free_words -= class as u64;
                self.live_words += class as u64;
                self.allocs += 1;
                return Some(off);
            }
        }
        let off = self.bump;
        if off + class as u64 <= self.words.len() as u64 {
            self.bump += class as u64;
            self.live_words += class as u64;
            self.allocs += 1;
            Some(off)
        } else {
            None
        }
    }

    /// Returns a block to its class free list. The block must have come from
    /// [`alloc`](Self::alloc) with the same `len` (the class is re-derived
    /// from it).
    ///
    /// The whole class extent is zeroed so stale guardian magics can never
    /// masquerade as live items to a racing RDMA Read that holds an expired
    /// pointer.
    pub(crate) fn free(&mut self, off: u64, len: u32) {
        let class = size_class(len);
        debug_assert!(
            off + class as u64 <= self.words.len() as u64,
            "free out of range"
        );
        for w in &self.words[off as usize..(off + class as u64) as usize] {
            w.store(0, Ordering::Release);
        }
        self.free.entry(class).or_default().push(off);
        self.live_words -= class as u64;
        self.free_words += class as u64;
        self.frees += 1;
    }

    /// Retreats the bump frontier over free blocks that end exactly at it,
    /// converting tail fragmentation back into headroom that *any* size
    /// class can be carved from. Returns the number of words reclaimed.
    ///
    /// O(free blocks) — callers (the engine) only invoke this after an
    /// allocation already failed, so the cost is off the hot path.
    pub(crate) fn compact(&mut self) -> u64 {
        // Blocks are disjoint, so end offsets are unique keys.
        let mut by_end: BTreeMap<u64, (u64, u32)> = BTreeMap::new();
        for (&class, list) in &self.free {
            for &off in list {
                by_end.insert(off + class as u64, (off, class));
            }
        }
        let mut reclaimed = 0u64;
        while let Some((&end, &(off, class))) = by_end.last_key_value() {
            if end != self.bump {
                break;
            }
            by_end.pop_last();
            self.bump = off;
            reclaimed += class as u64;
        }
        if reclaimed > 0 {
            self.free.clear();
            for (off, class) in by_end.into_values() {
                self.free.entry(class).or_default().push(off);
            }
            self.free_words -= reclaimed;
            self.compactions += 1;
            self.compacted_words += reclaimed;
        }
        reclaimed
    }

    /// Point-in-time statistics.
    pub(crate) fn stats(&self) -> ArenaStats {
        ArenaStats {
            capacity_words: self.words.len() as u64,
            live_words: self.live_words,
            free_list_words: self.free_words,
            headroom_words: self.words.len() as u64 - self.bump,
            allocs: self.allocs,
            frees: self.frees,
            compactions: self.compactions,
            compacted_words: self.compacted_words,
        }
    }
}

impl std::fmt::Debug for Arena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Arena({:?})", self.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_allocation_is_contiguous() {
        let mut a = Arena::new(100);
        assert_eq!(a.alloc(10), Some(0));
        assert_eq!(a.alloc(10), Some(10));
        assert_eq!(a.alloc(5), Some(20));
        assert_eq!(a.stats().live_words, 25);
    }

    #[test]
    fn freed_blocks_are_reused_exact_fit() {
        let mut a = Arena::new(100);
        let b1 = a.alloc(8).unwrap();
        let _b2 = a.alloc(8).unwrap();
        a.free(b1, 8);
        assert_eq!(a.alloc(8), Some(b1), "exact-fit reuse");
        // A different size must not steal the freed block.
        let mut a = Arena::new(100);
        let b1 = a.alloc(8).unwrap();
        a.free(b1, 8);
        let b3 = a.alloc(4).unwrap();
        assert_ne!(b3, b1);
    }

    #[test]
    fn exhaustion_returns_none() {
        let mut a = Arena::new(10);
        assert!(a.alloc(11).is_none());
        assert_eq!(a.alloc(10), Some(0));
        assert!(a.alloc(1).is_none());
        a.free(0, 10);
        assert_eq!(a.alloc(10), Some(0), "a freed block serves again");
    }

    #[test]
    fn zero_length_alloc_rejected() {
        let mut a = Arena::new(10);
        assert_eq!(a.alloc(0), None);
    }

    #[test]
    fn free_zeroes_memory() {
        let mut a = Arena::new(16);
        let off = a.alloc(4).unwrap();
        for i in 0..4 {
            a.words()[off as usize + i].store(0xDEAD_BEEF, Ordering::Relaxed);
        }
        a.free(off, 4);
        for i in 0..4 {
            assert_eq!(a.words()[off as usize + i].load(Ordering::Relaxed), 0);
        }
    }

    #[test]
    fn stats_track_alloc_free_cycles() {
        let mut a = Arena::new(1000);
        let mut offs = Vec::new();
        for _ in 0..10 {
            offs.push(a.alloc(7).unwrap());
        }
        for &o in &offs[..5] {
            a.free(o, 7);
        }
        let s = a.stats();
        assert_eq!(s.allocs, 10);
        assert_eq!(s.frees, 5);
        assert_eq!(s.live_words, 35);
        assert_eq!(s.free_list_words, 35);
    }

    #[test]
    fn churn_does_not_leak_capacity() {
        let mut a = Arena::new(64);
        // Arena fits exactly 8 blocks of 8; churn 10_000 alloc/free pairs.
        for i in 0..10_000u64 {
            let off = a.alloc(8).unwrap_or_else(|| panic!("iteration {i} failed"));
            a.free(off, 8);
        }
        assert_eq!(a.stats().live_words, 0);
    }

    #[test]
    fn size_classes_are_exact_small_and_eighth_spaced_large() {
        // Small sizes round to themselves — zero padding for YCSB items.
        for len in 1..=16u32 {
            assert_eq!(size_class(len), len);
        }
        // Large sizes round up to a multiple of 2^(k-3); bounded waste.
        assert_eq!(size_class(17), 18);
        assert_eq!(size_class(18), 18);
        assert_eq!(size_class(31), 32);
        assert_eq!(size_class(32), 32);
        assert_eq!(size_class(33), 36);
        assert_eq!(size_class(1000), 1024);
        for len in 17..50_000u32 {
            let c = size_class(len);
            assert!(c >= len);
            assert!(
                (c - len) as f64 <= 0.125 * len as f64 + 1.0,
                "len {len} class {c}"
            );
            // Idempotent: a class is its own class.
            assert_eq!(size_class(c), c);
        }
    }

    #[test]
    fn near_miss_sizes_share_a_free_list() {
        let mut a = Arena::new(256);
        let b = a.alloc(17).unwrap(); // class 18
        a.free(b, 17);
        // An 18-word request lands in the same class and reuses the block.
        assert_eq!(a.alloc(18), Some(b));
    }

    #[test]
    fn compact_retreats_frontier_over_adjacent_free_blocks() {
        let mut a = Arena::new(64);
        let b1 = a.alloc(8).unwrap();
        let b2 = a.alloc(8).unwrap();
        let b3 = a.alloc(8).unwrap();
        assert_eq!(a.stats().headroom_words, 64 - 24);
        // Free the two blocks bordering the frontier (out of order) plus an
        // interior one that does NOT border it after b1 stays live... b1 is
        // live, so only b2+b3 can be reclaimed.
        a.free(b3, 8);
        a.free(b2, 8);
        assert_eq!(a.compact(), 16);
        let s = a.stats();
        assert_eq!(s.headroom_words, 64 - 8);
        assert_eq!(s.free_list_words, 0);
        assert_eq!(s.compactions, 1);
        assert_eq!(s.compacted_words, 16);
        // The reclaimed headroom can now serve a class no free list held.
        assert_eq!(a.alloc(11), Some(b2));
        let _ = b1;
    }

    #[test]
    fn compact_leaves_interior_fragments_on_free_lists() {
        let mut a = Arena::new(64);
        let b1 = a.alloc(8).unwrap();
        let _b2 = a.alloc(8).unwrap();
        a.free(b1, 8); // interior: b2 is live above it
        assert_eq!(a.compact(), 0);
        let s = a.stats();
        assert_eq!(s.free_list_words, 8);
        assert_eq!(s.compactions, 0);
        // The block is still reusable at its class.
        assert_eq!(a.alloc(8), Some(b1));
    }

    #[test]
    fn compact_reclaims_mixed_classes_in_one_pass() {
        let mut a = Arena::new(256);
        let b1 = a.alloc(5).unwrap();
        let b2 = a.alloc(20).unwrap(); // class 20
        let b3 = a.alloc(7).unwrap();
        a.free(b1, 5);
        a.free(b2, 20);
        a.free(b3, 7);
        // Everything borders the frontier transitively: full retreat.
        assert_eq!(a.compact(), 32);
        assert_eq!(a.stats().headroom_words, 256);
        assert_eq!(a.stats().free_list_words, 0);
        assert_eq!(a.alloc(3), Some(0));
    }
}

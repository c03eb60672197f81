//! Baseline chained hash table for the §4.1.3 ablation.
//!
//! This is the "naive implementation ... that depends on linked lists to
//! resolve hash collisions" the paper contrasts against: every entry is a
//! separately boxed node, lookups chase pointers, and there is no signature
//! filter — each candidate requires a full key comparison. It exposes the
//! same stats as [`crate::CompactTable`] so the A-HASH benchmark can compare
//! pointer dereferences and comparison counts directly.

use crate::table::TableStats;

struct Node {
    hash: u64,
    offset: u64,
    next: Option<Box<Node>>,
}

/// Chained-list hash table mapping key hashes to arena offsets.
pub struct ChainedTable {
    heads: Box<[Option<Box<Node>>]>,
    mask: u64,
    len: usize,
    stats: TableStats,
}

impl ChainedTable {
    /// Creates a table with at least `buckets` chains (rounded to a power of
    /// two).
    pub fn new(buckets: usize) -> Self {
        let n = buckets.next_power_of_two().max(1);
        let mut heads = Vec::with_capacity(n);
        heads.resize_with(n, || None);
        ChainedTable {
            heads: heads.into_boxed_slice(),
            mask: (n - 1) as u64,
            len: 0,
            stats: TableStats::default(),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Statistics snapshot (`buckets_probed` counts node dereferences here).
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Resets statistics.
    pub fn reset_stats(&mut self) {
        self.stats = TableStats::default();
    }

    /// Looks up the offset whose key `is_match` confirms.
    pub fn lookup(&mut self, hash: u64, mut is_match: impl FnMut(u64) -> bool) -> Option<u64> {
        self.stats.lookups += 1;
        let mut cur = self.heads[(hash & self.mask) as usize].as_deref();
        while let Some(n) = cur {
            self.stats.buckets_probed += 1;
            if n.hash == hash {
                self.stats.full_compares += 1;
                if is_match(n.offset) {
                    return Some(n.offset);
                }
                self.stats.false_positives += 1;
            }
            cur = n.next.as_deref();
        }
        None
    }

    /// Inserts an entry (caller guarantees key absence).
    pub fn insert(&mut self, hash: u64, offset: u64) {
        let b = (hash & self.mask) as usize;
        let head = self.heads[b].take();
        self.heads[b] = Some(Box::new(Node {
            hash,
            offset,
            next: head,
        }));
        self.len += 1;
    }

    /// Batched lookup. The chained layout has no group line to prefetch —
    /// chains are pointer soup — so this is simply the scalar loop; it
    /// exists so `perf_index`'s batched rows drive both tables through one
    /// probe loop.
    pub fn lookup_batch(
        &mut self,
        hashes: &[u64],
        out: &mut [Option<u64>],
        mut is_match: impl FnMut(usize, u64) -> bool,
    ) {
        assert!(
            hashes.len() <= crate::LOOKUP_BATCH,
            "batch exceeds LOOKUP_BATCH"
        );
        assert!(out.len() >= hashes.len(), "output buffer too small");
        for (i, &hash) in hashes.iter().enumerate() {
            out[i] = self.lookup(hash, |off| is_match(i, off));
        }
    }

    /// Removes an entry; returns its offset.
    pub fn remove(&mut self, hash: u64, mut is_match: impl FnMut(u64) -> bool) -> Option<u64> {
        let b = (hash & self.mask) as usize;
        let mut link = &mut self.heads[b];
        loop {
            match link {
                None => return None,
                Some(node) if node.hash == hash && is_match(node.offset) => {
                    let removed = link.take().expect("checked Some");
                    *link = removed.next;
                    self.len -= 1;
                    return Some(removed.offset);
                }
                Some(_) => {
                    link = &mut link.as_mut().expect("checked Some").next;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_key;
    use std::collections::HashMap;

    #[test]
    fn basic_ops() {
        let mut t = ChainedTable::new(4);
        t.insert(hash_key(b"a"), 1);
        t.insert(hash_key(b"b"), 2);
        assert_eq!(t.lookup(hash_key(b"a"), |o| o == 1), Some(1));
        assert_eq!(t.lookup(hash_key(b"zz"), |_| true), None);
        assert_eq!(t.lookup(hash_key(b"b"), |o| o == 2), Some(2));
        assert_eq!(t.remove(hash_key(b"a"), |o| o == 1), Some(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_middle_of_chain() {
        let mut t = ChainedTable::new(1); // force one chain
        for i in 0..10u64 {
            t.insert(hash_key(format!("k{i}").as_bytes()), i);
        }
        assert_eq!(t.remove(hash_key(b"k5"), |o| o == 5), Some(5));
        for i in (0..10u64).filter(|&i| i != 5) {
            assert_eq!(
                t.lookup(hash_key(format!("k{i}").as_bytes()), |o| o == i),
                Some(i)
            );
        }
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn randomized_against_std_hashmap() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(99);
        let mut t = ChainedTable::new(4);
        let mut offs: HashMap<Vec<u8>, u64> = HashMap::new();
        let mut next = 1u64;
        for _ in 0..10_000 {
            let k = format!("key-{}", rng.gen_range(0..300)).into_bytes();
            let h = hash_key(&k);
            match rng.gen_range(0..3) {
                0 => {
                    if let std::collections::hash_map::Entry::Vacant(e) = offs.entry(k.clone()) {
                        t.insert(h, next);
                        e.insert(next);
                        next += 1;
                    }
                }
                1 => {
                    let expect = offs.get(&k).copied();
                    assert_eq!(t.lookup(h, |o| Some(o) == expect), expect);
                }
                _ => {
                    let expect = offs.remove(&k);
                    assert_eq!(t.remove(h, |o| Some(o) == expect), expect);
                }
            }
            assert_eq!(t.len(), offs.len());
        }
    }

    #[test]
    fn chains_count_dereferences() {
        let mut t = ChainedTable::new(1);
        for i in 0..32u64 {
            t.insert(hash_key(format!("k{i}").as_bytes()), i);
        }
        t.reset_stats();
        t.lookup(hash_key(b"k0"), |o| o == 0); // inserted first -> deepest
        assert!(t.stats().buckets_probed >= 32, "expected full chain walk");
    }
}

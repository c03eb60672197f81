//! The seed's compact hash table (§4.1.3), now one of the A-HASH
//! ablation's standalone structures (`hydra-bench run abl_hashtable` and
//! `perf_index`), and the [`TableStats`] every index reports.
//!
//! The table stores *locations* (48-bit arena word offsets), not data. Its
//! main branch is a contiguous array of 64-byte buckets — one cache line —
//! each holding an 8-byte header and 7 slots:
//!
//! ```text
//! header : [ occupancy filter : 7+1 bits ][ overflow-bucket link : 56 bits ]
//! slot   : [ key signature    : 16 bits  ][ arena word offset    : 48 bits ]
//! ```
//!
//! A lookup reads one cache line, tests the 7-bit occupancy filter, compares
//! 16-bit signatures, and only dereferences into the arena for a full key
//! comparison when a signature matches — cutting both pointer chasing and key
//! memcmp traffic. Collisions beyond 7 entries chain through dynamically
//! allocated overflow buckets (the 56-bit header link); after removals the
//! table *merges* chained buckets back into earlier free slots and releases
//! emptied overflow buckets.
//!
//! The table has one owner (`&mut` API). Remote RDMA-Read GETs bypass the
//! index entirely — that is the point of the design.

/// Slots per bucket (7 × 8 B slots + 8 B header = 64 B).
pub(crate) const SLOTS_PER_BUCKET: usize = 7;

const SIG_BITS: u64 = 16;
const SIG_MASK: u64 = (1 << SIG_BITS) - 1;
const OFF_MASK: u64 = (1 << 48) - 1;
const FILTER_MASK: u64 = 0x7F;
const LINK_SHIFT: u64 = 8;

#[derive(Clone, Copy, Default)]
#[repr(C, align(64))]
struct Bucket {
    header: u64,
    slots: [u64; SLOTS_PER_BUCKET],
}

impl Bucket {
    #[inline]
    fn filter(&self) -> u64 {
        self.header & FILTER_MASK
    }

    #[inline]
    fn is_used(&self, slot: usize) -> bool {
        self.filter() & (1 << slot) != 0
    }

    #[inline]
    fn set_used(&mut self, slot: usize, used: bool) {
        if used {
            self.header |= 1 << slot;
        } else {
            self.header &= !(1 << slot);
        }
    }

    /// Overflow link: 0 = none, otherwise (overflow index + 1).
    #[inline]
    fn link(&self) -> u64 {
        self.header >> LINK_SHIFT
    }

    #[inline]
    fn set_link(&mut self, link: u64) {
        self.header = (self.header & FILTER_MASK) | (link << LINK_SHIFT);
    }

    #[inline]
    fn slot_sig(&self, slot: usize) -> u16 {
        (self.slots[slot] & SIG_MASK) as u16
    }

    #[inline]
    fn slot_off(&self, slot: usize) -> u64 {
        self.slots[slot] >> SIG_BITS
    }

    #[inline]
    fn set_slot(&mut self, slot: usize, sig: u16, off: u64) {
        debug_assert!(off <= OFF_MASK);
        self.slots[slot] = (sig as u64) | (off << SIG_BITS);
        self.set_used(slot, true);
    }

    #[inline]
    fn clear_slot(&mut self, slot: usize) {
        self.slots[slot] = 0;
        self.set_used(slot, false);
    }

    fn first_free(&self) -> Option<usize> {
        let f = self.filter();
        if f == FILTER_MASK {
            None
        } else {
            Some((!f & FILTER_MASK).trailing_zeros() as usize)
        }
    }

    fn occupancy(&self) -> u32 {
        self.filter().count_ones()
    }
}

/// Lookup/maintenance statistics; drives the A-HASH ablation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TableStats {
    /// Lookup calls.
    pub lookups: u64,
    /// Buckets (cache lines) touched during lookups.
    pub buckets_probed: u64,
    /// 16-bit signature hits that required a full key comparison.
    pub full_compares: u64,
    /// Full comparisons that turned out to be signature false positives.
    pub false_positives: u64,
    /// Overflow buckets allocated.
    pub overflow_allocs: u64,
    /// Overflow buckets merged away after removals.
    pub merges: u64,
    /// Packed table: entries re-placed by rebuilds.
    pub displacements: u64,
    /// Packed table: rebuilds (growth or tombstone purge).
    pub resizes: u64,
    /// Packed table: tombstone lanes discarded by rebuilds.
    pub tombstones_purged: u64,
}

/// The compact hash table. Maps 64-bit key hashes to arena word offsets,
/// delegating full key equality to a caller-provided predicate.
pub struct CompactTable {
    main: Box<[Bucket]>,
    overflow: Vec<Bucket>,
    overflow_free: Vec<u64>,
    mask: u64,
    len: usize,
    stats: TableStats,
}

impl CompactTable {
    /// Creates a table with at least `buckets` main buckets (rounded up to a
    /// power of two). Capacity before chaining is `buckets × 7` entries.
    pub fn new(buckets: usize) -> Self {
        let n = buckets.next_power_of_two().max(1);
        CompactTable {
            main: vec![Bucket::default(); n].into_boxed_slice(),
            overflow: Vec::new(),
            overflow_free: Vec::new(),
            mask: (n - 1) as u64,
            len: 0,
            stats: TableStats::default(),
        }
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TableStats {
        self.stats
    }

    /// Resets statistics (e.g. after warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = TableStats::default();
    }

    #[inline]
    fn bucket_index(&self, hash: u64) -> usize {
        (hash & self.mask) as usize
    }

    fn bucket(&self, id: BucketId) -> &Bucket {
        match id {
            BucketId::Main(i) => &self.main[i],
            BucketId::Overflow(i) => &self.overflow[i],
        }
    }

    fn bucket_mut(&mut self, id: BucketId) -> &mut Bucket {
        match id {
            BucketId::Main(i) => &mut self.main[i],
            BucketId::Overflow(i) => &mut self.overflow[i],
        }
    }

    fn next_in_chain(&self, id: BucketId) -> Option<BucketId> {
        let link = self.bucket(id).link();
        if link == 0 {
            None
        } else {
            Some(BucketId::Overflow((link - 1) as usize))
        }
    }

    /// Looks up the entry whose signature matches `hash` and for which
    /// `is_match(offset)` confirms full key equality. Returns the offset.
    pub fn lookup(&mut self, hash: u64, mut is_match: impl FnMut(u64) -> bool) -> Option<u64> {
        self.stats.lookups += 1;
        let sig = crate::signature(hash);
        let mut cur = BucketId::Main(self.bucket_index(hash));
        loop {
            self.stats.buckets_probed += 1;
            let b = self.bucket(cur);
            let filter = b.filter();
            // Candidate offsets are copied to the stack so `is_match` (which
            // may inspect the table's owner) runs without `b` borrowed — and
            // so a lookup never touches the heap.
            let mut hits = [0u64; SLOTS_PER_BUCKET];
            let mut nhits = 0;
            for s in 0..SLOTS_PER_BUCKET {
                if filter & (1 << s) != 0 && b.slot_sig(s) == sig {
                    hits[nhits] = b.slot_off(s);
                    nhits += 1;
                }
            }
            for &off in &hits[..nhits] {
                self.stats.full_compares += 1;
                if is_match(off) {
                    return Some(off);
                }
                self.stats.false_positives += 1;
            }
            match self.next_in_chain(cur) {
                Some(n) => cur = n,
                None => return None,
            }
        }
    }

    /// Inserts `(hash, offset)`. The caller is responsible for having checked
    /// that the key is not already present.
    pub fn insert(&mut self, hash: u64, offset: u64) {
        assert!(offset <= OFF_MASK, "offset exceeds 48 bits");
        let sig = crate::signature(hash);
        let mut cur = BucketId::Main(self.bucket_index(hash));
        loop {
            if let Some(free) = self.bucket(cur).first_free() {
                self.bucket_mut(cur).set_slot(free, sig, offset);
                self.len += 1;
                return;
            }
            match self.next_in_chain(cur) {
                Some(n) => cur = n,
                None => {
                    let idx = self.alloc_overflow();
                    self.bucket_mut(cur).set_link(idx as u64 + 1);
                    self.overflow[idx].set_slot(0, sig, offset);
                    self.len += 1;
                    return;
                }
            }
        }
    }

    fn alloc_overflow(&mut self) -> usize {
        self.stats.overflow_allocs += 1;
        if let Some(i) = self.overflow_free.pop() {
            self.overflow[i as usize] = Bucket::default();
            i as usize
        } else {
            self.overflow.push(Bucket::default());
            self.overflow.len() - 1
        }
    }

    /// Removes the entry for `hash` confirmed by `is_match`. Returns the
    /// removed offset. Afterwards, attempts to merge chained buckets.
    pub fn remove(&mut self, hash: u64, mut is_match: impl FnMut(u64) -> bool) -> Option<u64> {
        let sig = crate::signature(hash);
        let head = self.bucket_index(hash);
        let mut cur = BucketId::Main(head);
        loop {
            let b = self.bucket(cur);
            let mut found: Option<(usize, u64)> = None;
            for s in 0..SLOTS_PER_BUCKET {
                if b.is_used(s) && b.slot_sig(s) == sig {
                    let off = b.slot_off(s);
                    if is_match(off) {
                        found = Some((s, off));
                        break;
                    }
                }
            }
            if let Some((s, off)) = found {
                self.bucket_mut(cur).clear_slot(s);
                self.len -= 1;
                self.merge_chain(head);
                return Some(off);
            }
            match self.next_in_chain(cur) {
                Some(n) => cur = n,
                None => return None,
            }
        }
    }

    /// Compacts a bucket chain: pulls entries from later overflow buckets
    /// into free slots of earlier buckets and unlinks emptied tails. This is
    /// the paper's "merges multiple buckets together after the remove
    /// operations".
    fn merge_chain(&mut self, head: usize) {
        // Collect the chain ids.
        let mut chain = vec![BucketId::Main(head)];
        let mut cur = BucketId::Main(head);
        while let Some(n) = self.next_in_chain(cur) {
            chain.push(n);
            cur = n;
        }
        if chain.len() == 1 {
            return;
        }
        // Move entries from the tail into the earliest free slots.
        let mut changed = true;
        while changed && chain.len() > 1 {
            changed = false;
            let tail = *chain.last().expect("nonempty chain");
            // Find a free slot in an earlier bucket for each tail entry.
            for s in 0..SLOTS_PER_BUCKET {
                if !self.bucket(tail).is_used(s) {
                    continue;
                }
                let sig = self.bucket(tail).slot_sig(s);
                let off = self.bucket(tail).slot_off(s);
                let dest = chain[..chain.len() - 1]
                    .iter()
                    .copied()
                    .find(|&b| self.bucket(b).first_free().is_some());
                if let Some(d) = dest {
                    let free = self.bucket(d).first_free().expect("free slot");
                    self.bucket_mut(d).set_slot(free, sig, off);
                    self.bucket_mut(tail).clear_slot(s);
                    changed = true;
                }
            }
            if self.bucket(tail).occupancy() == 0 {
                // Unlink and recycle the emptied tail.
                let parent = chain[chain.len() - 2];
                self.bucket_mut(parent).set_link(0);
                if let BucketId::Overflow(i) = tail {
                    self.overflow_free.push(i as u64);
                }
                chain.pop();
                self.stats.merges += 1;
            }
        }
    }

    /// Number of live overflow buckets (chain pressure diagnostic).
    pub(crate) fn overflow_buckets(&self) -> usize {
        self.overflow.len() - self.overflow_free.len()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BucketId {
    Main(usize),
    Overflow(usize),
}

impl std::fmt::Debug for CompactTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompactTable")
            .field("len", &self.len)
            .field("main_buckets", &self.main.len())
            .field("overflow_buckets", &self.overflow_buckets())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_key;
    use std::collections::HashMap;

    /// Test scaffold mapping offsets back to keys so `is_match` can perform
    /// the full comparison the arena would.
    struct Model {
        table: CompactTable,
        by_off: HashMap<u64, Vec<u8>>,
        next_off: u64,
    }

    impl Model {
        fn new(buckets: usize) -> Self {
            Model {
                table: CompactTable::new(buckets),
                by_off: HashMap::new(),
                next_off: 1,
            }
        }

        fn insert(&mut self, key: &[u8]) -> u64 {
            let off = self.next_off;
            self.next_off += 1;
            self.by_off.insert(off, key.to_vec());
            self.table.insert(hash_key(key), off);
            off
        }

        fn lookup(&mut self, key: &[u8]) -> Option<u64> {
            let by_off = &self.by_off;
            self.table.lookup(hash_key(key), |off| {
                by_off.get(&off).is_some_and(|k| k == key)
            })
        }

        fn remove(&mut self, key: &[u8]) -> Option<u64> {
            let by_off = &self.by_off;
            let got = self.table.remove(hash_key(key), |off| {
                by_off.get(&off).is_some_and(|k| k == key)
            });
            if let Some(off) = got {
                self.by_off.remove(&off);
            }
            got
        }
    }

    #[test]
    fn insert_lookup_remove_basic() {
        let mut m = Model::new(4);
        let off = m.insert(b"alpha");
        assert_eq!(m.lookup(b"alpha"), Some(off));
        assert_eq!(m.lookup(b"beta"), None);
        assert_eq!(m.remove(b"alpha"), Some(off));
        assert_eq!(m.lookup(b"alpha"), None);
        assert_eq!(m.remove(b"alpha"), None);
        assert_eq!(m.table.len, 0);
    }

    #[test]
    fn bucket_size_is_one_cache_line() {
        assert_eq!(std::mem::size_of::<Bucket>(), 64);
        assert_eq!(std::mem::align_of::<Bucket>(), 64);
    }

    #[test]
    fn overflow_chains_handle_many_collisions() {
        // 1-bucket table: everything collides into one chain.
        let mut m = Model::new(1);
        let keys: Vec<Vec<u8>> = (0..100).map(|i| format!("key-{i}").into_bytes()).collect();
        let offs: Vec<u64> = keys.iter().map(|k| m.insert(k)).collect();
        assert!(m.table.overflow_buckets() > 0);
        for (k, &o) in keys.iter().zip(&offs) {
            assert_eq!(m.lookup(k), Some(o), "{}", String::from_utf8_lossy(k));
        }
        assert_eq!(m.table.len, 100);
    }

    #[test]
    fn removals_merge_overflow_buckets_away() {
        let mut m = Model::new(1);
        let keys: Vec<Vec<u8>> = (0..50).map(|i| format!("k{i}").into_bytes()).collect();
        for k in &keys {
            m.insert(k);
        }
        let chained = m.table.overflow_buckets();
        assert!(chained >= 6, "expected a deep chain, got {chained}");
        for k in &keys[..43] {
            assert!(m.remove(k).is_some());
        }
        // 7 entries remain; merging must have collapsed the chain entirely.
        assert_eq!(m.table.len, 7);
        assert_eq!(m.table.overflow_buckets(), 0, "chain should merge back");
        assert!(m.table.stats().merges > 0);
        for k in &keys[43..] {
            assert!(m.lookup(k).is_some());
        }
    }

    #[test]
    fn signature_false_positives_are_counted_not_returned() {
        let mut t = CompactTable::new(1);
        // Two entries with identical signature+bucket but different keys.
        let h = hash_key(b"aaa");
        t.insert(h, 1);
        t.insert(h, 2);
        let got = t.lookup(h, |off| off == 2);
        assert_eq!(got, Some(2));
        assert!(t.stats().false_positives >= 1);
        assert!(t.stats().full_compares >= 2);
    }

    #[test]
    fn probe_counts_reflect_cache_line_touches() {
        let mut m = Model::new(64);
        for i in 0..64 {
            m.insert(format!("p{i}").as_bytes());
        }
        m.table.reset_stats();
        for i in 0..64 {
            m.lookup(format!("p{i}").as_bytes());
        }
        let s = m.table.stats();
        assert_eq!(s.lookups, 64);
        // With 64 buckets and 64 well-mixed keys, chains are rare: almost all
        // lookups touch exactly one cache line.
        assert!(
            s.buckets_probed <= 96,
            "buckets_probed={}",
            s.buckets_probed
        );
    }

    #[test]
    fn randomized_against_std_hashmap() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        let mut m = Model::new(8);
        let mut reference: HashMap<Vec<u8>, u64> = HashMap::new();
        for step in 0..20_000 {
            let k = format!("key-{}", rng.gen_range(0..500)).into_bytes();
            match rng.gen_range(0..3) {
                0 => {
                    if let std::collections::hash_map::Entry::Vacant(e) = reference.entry(k.clone())
                    {
                        let off = m.insert(&k);
                        e.insert(off);
                    }
                }
                1 => {
                    assert_eq!(m.lookup(&k), reference.get(&k).copied(), "step {step}");
                }
                _ => {
                    assert_eq!(m.remove(&k), reference.remove(&k), "step {step}");
                }
            }
            assert_eq!(m.table.len, reference.len(), "step {step}");
        }
        for (k, &off) in &reference {
            assert_eq!(m.lookup(k), Some(off));
        }
    }
}

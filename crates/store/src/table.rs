//! The cache-friendly compact hash table (§4.1.3).
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
//! The table is owned exclusively by one shard thread (`&mut` API). Remote
//! RDMA-Read GETs bypass it entirely — that is the point of the design.

/// Slots per bucket (7 × 8 B slots + 8 B header = 64 B).
pub const SLOTS_PER_BUCKET: usize = 7;

/// Maximum keys per [`CompactTable::lookup_batch`] interleaved probe pass.
pub const LOOKUP_BATCH: usize = 16;

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
    /// Packed table: entries re-placed by incremental-resize migration.
    pub displacements: u64,
    /// Packed table: incremental resizes begun (growth or tombstone purge).
    pub resizes: u64,
    /// Packed table: old-half groups drained by migration steps.
    pub migrated_groups: u64,
    /// Packed table: tombstone lanes discarded when a resize began.
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

    /// Creates a table sized for `items` entries at ~70% occupancy.
    pub fn with_capacity(items: usize) -> Self {
        Self::new((items * 10 / 7 / SLOTS_PER_BUCKET).max(1))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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
    pub fn lookup(&mut self, hash: u64, is_match: impl FnMut(u64) -> bool) -> Option<u64> {
        self.stats.lookups += 1;
        let start = BucketId::Main(self.bucket_index(hash));
        self.lookup_from(start, crate::signature(hash), is_match)
    }

    /// Walks a bucket chain starting at `start`, confirming signature hits
    /// through `is_match`. Shared by [`lookup`](Self::lookup) and the chained
    /// fallback of [`lookup_batch`](Self::lookup_batch).
    fn lookup_from(
        &mut self,
        start: BucketId,
        sig: u16,
        mut is_match: impl FnMut(u64) -> bool,
    ) -> Option<u64> {
        let mut cur = start;
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

    /// Batched lookup with an interleaved probe schedule: pass one touches
    /// the main bucket (one cache line) of *every* key and collects its
    /// signature candidates into stack arrays — the software-prefetch shape,
    /// with all lines in flight before any full key comparison dereferences
    /// the arena; pass two confirms candidates in key order. Results and
    /// statistics are exactly what per-key [`lookup`](Self::lookup) calls
    /// would produce (lookups never mutate the table, so the reordering is
    /// unobservable). `is_match` receives the key index alongside the
    /// candidate offset; `out[i]` gets key `i`'s offset. At most
    /// [`LOOKUP_BATCH`] keys per call.
    pub fn lookup_batch(
        &mut self,
        hashes: &[u64],
        out: &mut [Option<u64>],
        mut is_match: impl FnMut(usize, u64) -> bool,
    ) {
        assert!(hashes.len() <= LOOKUP_BATCH, "batch exceeds LOOKUP_BATCH");
        assert!(out.len() >= hashes.len(), "output buffer too small");
        let mut cands = [[0u64; SLOTS_PER_BUCKET]; LOOKUP_BATCH];
        let mut ncands = [0usize; LOOKUP_BATCH];
        let mut chain = [None::<BucketId>; LOOKUP_BATCH];
        for (i, &hash) in hashes.iter().enumerate() {
            self.stats.lookups += 1;
            self.stats.buckets_probed += 1;
            let sig = crate::signature(hash);
            let head = BucketId::Main(self.bucket_index(hash));
            let b = self.bucket(head);
            let filter = b.filter();
            let mut n = 0;
            for s in 0..SLOTS_PER_BUCKET {
                if filter & (1 << s) != 0 && b.slot_sig(s) == sig {
                    cands[i][n] = b.slot_off(s);
                    n += 1;
                }
            }
            ncands[i] = n;
            chain[i] = self.next_in_chain(head);
        }
        for (i, &hash) in hashes.iter().enumerate() {
            let mut found = None;
            for &off in &cands[i][..ncands[i]] {
                self.stats.full_compares += 1;
                if is_match(i, off) {
                    found = Some(off);
                    break;
                }
                self.stats.false_positives += 1;
            }
            if found.is_none() {
                if let Some(start) = chain[i] {
                    found = self.lookup_from(start, crate::signature(hash), |off| is_match(i, off));
                }
            }
            out[i] = found;
        }
    }

    /// Inserts `(hash, offset)`. The caller is responsible for having checked
    /// that the key is not already present (the engine does a lookup first).
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

    /// Replaces the offset of an existing entry (out-of-place update: same
    /// key, new item location). Returns the old offset.
    pub fn replace(
        &mut self,
        hash: u64,
        new_offset: u64,
        mut is_match: impl FnMut(u64) -> bool,
    ) -> Option<u64> {
        assert!(new_offset <= OFF_MASK, "offset exceeds 48 bits");
        let sig = crate::signature(hash);
        let mut cur = BucketId::Main(self.bucket_index(hash));
        loop {
            let b = self.bucket(cur);
            for s in 0..SLOTS_PER_BUCKET {
                if b.is_used(s) && b.slot_sig(s) == sig {
                    let off = b.slot_off(s);
                    if is_match(off) {
                        self.bucket_mut(cur).set_slot(s, sig, new_offset);
                        return Some(off);
                    }
                }
            }
            cur = self.next_in_chain(cur)?;
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

    /// Visits every stored offset (diagnostics, migration, eviction scans).
    pub fn for_each(&self, mut f: impl FnMut(u64)) {
        for head in 0..self.main.len() {
            let mut cur = BucketId::Main(head);
            loop {
                let b = self.bucket(cur);
                for s in 0..SLOTS_PER_BUCKET {
                    if b.is_used(s) {
                        f(b.slot_off(s));
                    }
                }
                match self.next_in_chain(cur) {
                    Some(n) => cur = n,
                    None => break,
                }
            }
        }
    }

    /// Number of live overflow buckets (chain pressure diagnostic).
    pub fn overflow_buckets(&self) -> usize {
        self.overflow.len() - self.overflow_free.len()
    }

    /// Bytes held by the main branch plus all overflow buckets.
    pub fn mem_bytes(&self) -> usize {
        (self.main.len() + self.overflow.len()) * std::mem::size_of::<Bucket>()
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
        assert!(m.table.is_empty());
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
        assert_eq!(m.table.len(), 100);
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
        assert_eq!(m.table.len(), 7);
        assert_eq!(m.table.overflow_buckets(), 0, "chain should merge back");
        assert!(m.table.stats().merges > 0);
        for k in &keys[43..] {
            assert!(m.lookup(k).is_some());
        }
    }

    #[test]
    fn replace_swaps_offset_in_place() {
        let mut m = Model::new(4);
        let off = m.insert(b"k");
        m.by_off.insert(999, b"k".to_vec());
        let by_off = m.by_off.clone();
        let old = m.table.replace(hash_key(b"k"), 999, |o| {
            by_off.get(&o).is_some_and(|k| k == b"k")
        });
        assert_eq!(old, Some(off));
        m.by_off.remove(&off);
        assert_eq!(m.lookup(b"k"), Some(999));
        assert_eq!(m.table.len(), 1, "replace must not change len");
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
    fn for_each_visits_every_entry_once() {
        let mut m = Model::new(2);
        for i in 0..40 {
            m.insert(format!("x{i}").as_bytes());
        }
        let mut seen = Vec::new();
        m.table.for_each(|o| seen.push(o));
        seen.sort_unstable();
        let mut expect: Vec<u64> = m.by_off.keys().copied().collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
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
    fn lookup_batch_matches_scalar_lookups_and_stats() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xBA7C4);
        // Small table → plenty of collisions and overflow chains.
        let mut a = Model::new(2);
        for i in 0..200 {
            a.insert(format!("bk-{i}").as_bytes());
        }
        // Identical twin driven through the scalar path.
        let mut b = Model::new(2);
        for i in 0..200 {
            b.insert(format!("bk-{i}").as_bytes());
        }
        a.table.reset_stats();
        b.table.reset_stats();
        for round in 0..200 {
            let n = rng.gen_range(1..=LOOKUP_BATCH);
            // Mix of present and absent keys.
            let keys: Vec<Vec<u8>> = (0..n)
                .map(|_| format!("bk-{}", rng.gen_range(0..260)).into_bytes())
                .collect();
            let hashes: Vec<u64> = keys.iter().map(|k| hash_key(k)).collect();
            let mut out = [None; LOOKUP_BATCH];
            let by_off = a.by_off.clone();
            a.table.lookup_batch(&hashes, &mut out, |i, off| {
                by_off.get(&off).is_some_and(|k| k == &keys[i])
            });
            for (i, k) in keys.iter().enumerate() {
                assert_eq!(out[i], b.lookup(k), "round {round} key {i}");
            }
        }
        assert_eq!(
            a.table.stats(),
            b.table.stats(),
            "batched probing must charge identical work"
        );
    }

    #[test]
    #[should_panic(expected = "batch exceeds LOOKUP_BATCH")]
    fn oversized_lookup_batch_panics() {
        let mut t = CompactTable::new(4);
        let hashes = [0u64; LOOKUP_BATCH + 1];
        let mut out = [None; LOOKUP_BATCH + 1];
        t.lookup_batch(&hashes, &mut out, |_, _| false);
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
            assert_eq!(m.table.len(), reference.len(), "step {step}");
        }
        for (k, &off) in &reference {
            assert_eq!(m.lookup(k), Some(off));
        }
    }
}

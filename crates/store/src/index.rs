//! The sealed [`Index`] abstraction over the shard's hash structures.
//!
//! Four implementations exist, selected per shard by
//! [`IndexKind`] in the engine configuration:
//!
//! * [`crate::PackedTable`] — the production structure: cache-line-packed
//!   open addressing with SWAR tag probing and incremental resize.
//! * [`crate::CompactTable`] — the seed's overflow-chained compact table
//!   (one line per bucket, 16-bit signatures, dynamic overflow chains).
//! * [`crate::ChainedTable`] — the naive linked-list baseline the paper's
//!   §4.1.3 ablation contrasts against.
//! * [`crate::HybridTable`] — the packed table paired with a packed-leaf
//!   skiplist so ordered scans are possible; point ops are the packed path
//!   unchanged. Requires the `*_keyed` mutation hooks (it must see key
//!   bytes to maintain the ordered view).
//!
//! The trait is *sealed*: the engine's correctness (address stability of
//! arena offsets, single-writer discipline, the rehash-callback contract)
//! is proven against exactly these implementations, so external crates may
//! consume the trait but not implement it. The engine itself stores an
//! [`AnyIndex`] — enum dispatch, so the hot probe loop stays monomorphic
//! and `ShardEngine` stays non-generic.
//!
//! Contract notes shared by all implementations:
//!
//! * Indexes map 64-bit key hashes to 48-bit arena word offsets and never
//!   look at key bytes themselves — full equality is the caller's
//!   `is_match(offset)` predicate. The hybrid's ordered side is the one
//!   exception: it orders by the keys stored in the arena items its offsets
//!   point at, so it is built over the shard's arena.
//! * Mutating operations accept a `rehash(offset) -> hash` callback used by
//!   implementations that relocate entries (the packed table's incremental
//!   resize re-derives the home group of migrated entries from their stored
//!   keys). Implementations that never relocate ignore it. The callback may
//!   only be invoked for offsets currently present in the index, which the
//!   engine guarantees always reference live, un-reclaimed items.
//! * Index entries move; items never do. Arena offsets handed out as remote
//!   pointers stay valid across any index churn (see `hydra_wire`'s
//!   remote-pointer rules).

use crate::table::TableStats;
use crate::{Arena, ChainedTable, CompactTable, HybridTable, PackedTable};

mod private {
    /// Seals [`super::Index`]: only this crate's index structures implement
    /// it, so the engine's invariants cannot be broken from outside.
    pub trait Sealed {}

    impl Sealed for crate::CompactTable {}
    impl Sealed for crate::ChainedTable {}
    impl Sealed for crate::PackedTable {}
    impl Sealed for crate::HybridTable {}
    impl Sealed for super::AnyIndex {}
}

/// Which index structure a shard uses (the `abl_hashtable` A/B axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// Naive linked-list chaining (the ablation baseline).
    Chained,
    /// The seed's compact table: cache-line buckets + overflow chains.
    Compact,
    /// Cache-line-packed open addressing with SWAR probing (production).
    #[default]
    Packed,
    /// Packed table + ordered skiplist: point ops on the SWAR hash path,
    /// range scans on the ordered side (§11).
    Hybrid,
}

/// Common interface of the shard index structures. Sealed — see the module
/// docs for the contract.
pub trait Index: private::Sealed {
    /// Number of entries.
    fn len(&self) -> usize;

    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics snapshot.
    fn stats(&self) -> TableStats;

    /// Resets statistics (e.g. after warm-up).
    fn reset_stats(&mut self);

    /// Bytes held by the index's live structures.
    fn mem_bytes(&self) -> usize;

    /// Looks up the entry whose probe metadata matches `hash` and for which
    /// `is_match(offset)` confirms full key equality.
    fn lookup(&mut self, hash: u64, is_match: impl FnMut(u64) -> bool) -> Option<u64>;

    /// Batched lookup: results and charged statistics identical to per-key
    /// [`lookup`](Self::lookup) calls in key order; implementations may
    /// reorder memory accesses (prefetch/interleave) across the batch. At
    /// most [`crate::LOOKUP_BATCH`] keys per call.
    fn lookup_batch(
        &mut self,
        hashes: &[u64],
        out: &mut [Option<u64>],
        is_match: impl FnMut(usize, u64) -> bool,
    );

    /// Inserts `(hash, offset)`; the caller guarantees the key is absent.
    fn insert(&mut self, hash: u64, offset: u64, rehash: impl FnMut(u64) -> u64);

    /// Replaces the offset of an existing entry (out-of-place update).
    /// Returns the old offset.
    fn replace(
        &mut self,
        hash: u64,
        new_offset: u64,
        is_match: impl FnMut(u64) -> bool,
        rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64>;

    /// Removes the entry confirmed by `is_match`; returns its offset.
    fn remove(
        &mut self,
        hash: u64,
        is_match: impl FnMut(u64) -> bool,
        rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64>;

    /// Refreshes inline per-entry metadata (lease class) after the engine
    /// granted or renewed a lease. No-op for structures without inline
    /// metadata.
    fn touch(&mut self, _hash: u64, _offset: u64, _lease_class: u8) {}

    /// Visits every stored offset.
    fn for_each(&self, f: impl FnMut(u64));

    /// Whether an incremental resize is in progress.
    fn is_resizing(&self) -> bool {
        false
    }

    /// Bytes parked on the retire list awaiting epoch reclamation.
    fn retired_bytes(&self) -> usize {
        0
    }

    /// Frees retired structures; returns how many were reclaimed. Driven
    /// from the engine's reclamation pump (put *and* delete paths).
    fn reclaim_retired(&mut self) -> usize {
        0
    }

    /// Whether this index also maintains an ordered view of the keys (and
    /// therefore supports [`scan_from`](Self::scan_from) natively).
    fn is_ordered(&self) -> bool {
        false
    }

    /// Keyed insert: like [`insert`](Self::insert), but the key bytes are
    /// available for implementations that maintain an ordered view. The
    /// engine always mutates through the keyed hooks; hash-only structures
    /// ignore the key via these defaults.
    fn insert_keyed(
        &mut self,
        hash: u64,
        _key: &[u8],
        offset: u64,
        rehash: impl FnMut(u64) -> u64,
    ) {
        self.insert(hash, offset, rehash)
    }

    /// Keyed variant of [`replace`](Self::replace).
    fn replace_keyed(
        &mut self,
        hash: u64,
        _key: &[u8],
        new_offset: u64,
        is_match: impl FnMut(u64) -> bool,
        rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        self.replace(hash, new_offset, is_match, rehash)
    }

    /// Keyed variant of [`remove`](Self::remove).
    fn remove_keyed(
        &mut self,
        hash: u64,
        _key: &[u8],
        is_match: impl FnMut(u64) -> bool,
        rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        self.remove(hash, is_match, rehash)
    }

    /// Ordered iteration from the first key `>= start`: `f` receives each
    /// `(key, offset)` in key order and returns `false` to stop. Returns
    /// `true` when the iteration ran off the end of the keyspace. Only
    /// meaningful when [`is_ordered`](Self::is_ordered); the default visits
    /// nothing and reports exhaustion (callers emulate scans by sorting a
    /// full dump — see `ShardEngine::scan_into`).
    fn scan_from(&mut self, _start: &[u8], _f: impl FnMut(&[u8], u64) -> bool) -> bool {
        true
    }
}

impl Index for CompactTable {
    fn len(&self) -> usize {
        CompactTable::len(self)
    }

    fn stats(&self) -> TableStats {
        CompactTable::stats(self)
    }

    fn reset_stats(&mut self) {
        CompactTable::reset_stats(self)
    }

    fn mem_bytes(&self) -> usize {
        CompactTable::mem_bytes(self)
    }

    fn lookup(&mut self, hash: u64, is_match: impl FnMut(u64) -> bool) -> Option<u64> {
        CompactTable::lookup(self, hash, is_match)
    }

    fn lookup_batch(
        &mut self,
        hashes: &[u64],
        out: &mut [Option<u64>],
        is_match: impl FnMut(usize, u64) -> bool,
    ) {
        CompactTable::lookup_batch(self, hashes, out, is_match)
    }

    fn insert(&mut self, hash: u64, offset: u64, _rehash: impl FnMut(u64) -> u64) {
        CompactTable::insert(self, hash, offset)
    }

    fn replace(
        &mut self,
        hash: u64,
        new_offset: u64,
        is_match: impl FnMut(u64) -> bool,
        _rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        CompactTable::replace(self, hash, new_offset, is_match)
    }

    fn remove(
        &mut self,
        hash: u64,
        is_match: impl FnMut(u64) -> bool,
        _rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        CompactTable::remove(self, hash, is_match)
    }

    fn for_each(&self, f: impl FnMut(u64)) {
        CompactTable::for_each(self, f)
    }
}

impl Index for ChainedTable {
    fn len(&self) -> usize {
        ChainedTable::len(self)
    }

    fn stats(&self) -> TableStats {
        ChainedTable::stats(self)
    }

    fn reset_stats(&mut self) {
        ChainedTable::reset_stats(self)
    }

    fn mem_bytes(&self) -> usize {
        ChainedTable::mem_bytes(self)
    }

    fn lookup(&mut self, hash: u64, is_match: impl FnMut(u64) -> bool) -> Option<u64> {
        ChainedTable::lookup(self, hash, is_match)
    }

    fn lookup_batch(
        &mut self,
        hashes: &[u64],
        out: &mut [Option<u64>],
        is_match: impl FnMut(usize, u64) -> bool,
    ) {
        ChainedTable::lookup_batch(self, hashes, out, is_match)
    }

    fn insert(&mut self, hash: u64, offset: u64, _rehash: impl FnMut(u64) -> u64) {
        ChainedTable::insert(self, hash, offset)
    }

    fn replace(
        &mut self,
        hash: u64,
        new_offset: u64,
        is_match: impl FnMut(u64) -> bool,
        _rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        ChainedTable::replace(self, hash, new_offset, is_match)
    }

    fn remove(
        &mut self,
        hash: u64,
        is_match: impl FnMut(u64) -> bool,
        _rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        ChainedTable::remove(self, hash, is_match)
    }

    fn for_each(&self, f: impl FnMut(u64)) {
        ChainedTable::for_each(self, f)
    }
}

impl Index for PackedTable {
    fn len(&self) -> usize {
        PackedTable::len(self)
    }

    fn stats(&self) -> TableStats {
        PackedTable::stats(self)
    }

    fn reset_stats(&mut self) {
        PackedTable::reset_stats(self)
    }

    fn mem_bytes(&self) -> usize {
        PackedTable::mem_bytes(self)
    }

    fn lookup(&mut self, hash: u64, is_match: impl FnMut(u64) -> bool) -> Option<u64> {
        PackedTable::lookup(self, hash, is_match)
    }

    fn lookup_batch(
        &mut self,
        hashes: &[u64],
        out: &mut [Option<u64>],
        is_match: impl FnMut(usize, u64) -> bool,
    ) {
        PackedTable::lookup_batch(self, hashes, out, is_match)
    }

    fn insert(&mut self, hash: u64, offset: u64, rehash: impl FnMut(u64) -> u64) {
        PackedTable::insert(self, hash, offset, rehash)
    }

    fn replace(
        &mut self,
        hash: u64,
        new_offset: u64,
        is_match: impl FnMut(u64) -> bool,
        rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        PackedTable::replace(self, hash, new_offset, is_match, rehash)
    }

    fn remove(
        &mut self,
        hash: u64,
        is_match: impl FnMut(u64) -> bool,
        rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        PackedTable::remove(self, hash, is_match, rehash)
    }

    fn touch(&mut self, hash: u64, offset: u64, lease_class: u8) {
        PackedTable::touch(self, hash, offset, lease_class)
    }

    fn for_each(&self, f: impl FnMut(u64)) {
        PackedTable::for_each(self, f)
    }

    fn is_resizing(&self) -> bool {
        PackedTable::is_resizing(self)
    }

    fn retired_bytes(&self) -> usize {
        PackedTable::retired_bytes(self)
    }

    fn reclaim_retired(&mut self) -> usize {
        PackedTable::reclaim_retired(self)
    }
}

/// Enum dispatch over the index structures — the engine stores this so the
/// shard type stays non-generic while each arm's probe loop monomorphizes.
pub enum AnyIndex {
    /// Linked-list chaining.
    Chained(ChainedTable),
    /// Compact table with overflow chains.
    Compact(CompactTable),
    /// Cache-line-packed open addressing.
    Packed(PackedTable),
    /// Packed table + ordered skiplist.
    Hybrid(HybridTable),
}

impl AnyIndex {
    /// Builds the index of `kind` sized for `items` entries over the items
    /// of `arena`.
    pub fn with_capacity(kind: IndexKind, items: usize, arena: &Arena) -> AnyIndex {
        match kind {
            // One chain head per expected item — the conventional load
            // factor the naive designs the paper argues against would run.
            IndexKind::Chained => AnyIndex::Chained(ChainedTable::new(items.max(1))),
            IndexKind::Compact => AnyIndex::Compact(CompactTable::with_capacity(items)),
            IndexKind::Packed => AnyIndex::Packed(PackedTable::with_capacity(items)),
            IndexKind::Hybrid => AnyIndex::Hybrid(HybridTable::with_capacity(items, arena)),
        }
    }

    /// Which kind this index is.
    pub fn kind(&self) -> IndexKind {
        match self {
            AnyIndex::Chained(_) => IndexKind::Chained,
            AnyIndex::Compact(_) => IndexKind::Compact,
            AnyIndex::Packed(_) => IndexKind::Packed,
            AnyIndex::Hybrid(_) => IndexKind::Hybrid,
        }
    }
}

macro_rules! dispatch {
    ($self:expr, $t:ident => $body:expr) => {
        match $self {
            AnyIndex::Chained($t) => $body,
            AnyIndex::Compact($t) => $body,
            AnyIndex::Packed($t) => $body,
            AnyIndex::Hybrid($t) => $body,
        }
    };
}

impl Index for AnyIndex {
    fn len(&self) -> usize {
        dispatch!(self, t => Index::len(t))
    }

    fn stats(&self) -> TableStats {
        dispatch!(self, t => Index::stats(t))
    }

    fn reset_stats(&mut self) {
        dispatch!(self, t => Index::reset_stats(t))
    }

    fn mem_bytes(&self) -> usize {
        dispatch!(self, t => Index::mem_bytes(t))
    }

    fn lookup(&mut self, hash: u64, is_match: impl FnMut(u64) -> bool) -> Option<u64> {
        dispatch!(self, t => Index::lookup(t, hash, is_match))
    }

    fn lookup_batch(
        &mut self,
        hashes: &[u64],
        out: &mut [Option<u64>],
        is_match: impl FnMut(usize, u64) -> bool,
    ) {
        dispatch!(self, t => Index::lookup_batch(t, hashes, out, is_match))
    }

    fn insert(&mut self, hash: u64, offset: u64, rehash: impl FnMut(u64) -> u64) {
        dispatch!(self, t => Index::insert(t, hash, offset, rehash))
    }

    fn replace(
        &mut self,
        hash: u64,
        new_offset: u64,
        is_match: impl FnMut(u64) -> bool,
        rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        dispatch!(self, t => Index::replace(t, hash, new_offset, is_match, rehash))
    }

    fn remove(
        &mut self,
        hash: u64,
        is_match: impl FnMut(u64) -> bool,
        rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        dispatch!(self, t => Index::remove(t, hash, is_match, rehash))
    }

    fn touch(&mut self, hash: u64, offset: u64, lease_class: u8) {
        dispatch!(self, t => Index::touch(t, hash, offset, lease_class))
    }

    fn for_each(&self, f: impl FnMut(u64)) {
        dispatch!(self, t => Index::for_each(t, f))
    }

    fn is_resizing(&self) -> bool {
        dispatch!(self, t => Index::is_resizing(t))
    }

    fn retired_bytes(&self) -> usize {
        dispatch!(self, t => Index::retired_bytes(t))
    }

    fn reclaim_retired(&mut self) -> usize {
        dispatch!(self, t => Index::reclaim_retired(t))
    }

    fn is_ordered(&self) -> bool {
        dispatch!(self, t => Index::is_ordered(t))
    }

    fn insert_keyed(&mut self, hash: u64, key: &[u8], offset: u64, rehash: impl FnMut(u64) -> u64) {
        dispatch!(self, t => Index::insert_keyed(t, hash, key, offset, rehash))
    }

    fn replace_keyed(
        &mut self,
        hash: u64,
        key: &[u8],
        new_offset: u64,
        is_match: impl FnMut(u64) -> bool,
        rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        dispatch!(self, t => Index::replace_keyed(t, hash, key, new_offset, is_match, rehash))
    }

    fn remove_keyed(
        &mut self,
        hash: u64,
        key: &[u8],
        is_match: impl FnMut(u64) -> bool,
        rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        dispatch!(self, t => Index::remove_keyed(t, hash, key, is_match, rehash))
    }

    fn scan_from(&mut self, start: &[u8], f: impl FnMut(&[u8], u64) -> bool) -> bool {
        dispatch!(self, t => Index::scan_from(t, start, f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_key;
    use std::collections::HashMap;

    /// Generic exercise of the [`Index`] surface — runs identically over all
    /// three structures through both static and enum dispatch.
    fn exercise(idx: &mut impl Index) {
        let mut by_off: HashMap<u64, Vec<u8>> = HashMap::new();
        for i in 0..400u64 {
            let k = format!("ix-{i}").into_bytes();
            by_off.insert(i + 1, k.clone());
            let snapshot = by_off.clone();
            idx.insert(hash_key(&k), i + 1, move |o| hash_key(&snapshot[&o]));
        }
        assert_eq!(idx.len(), 400);
        assert!(!idx.is_empty());
        for i in (0..400).step_by(3) {
            let k = format!("ix-{i}").into_bytes();
            let snapshot = by_off.clone();
            let got = idx.lookup(hash_key(&k), |o| snapshot.get(&o).is_some_and(|s| s == &k));
            assert!(got.is_some(), "missing ix-{i}");
        }
        let mut seen = 0usize;
        idx.for_each(|_| seen += 1);
        assert_eq!(seen, 400);
        for i in (0..400).step_by(2) {
            let k = format!("ix-{i}").into_bytes();
            let snap = by_off.clone();
            let removed = idx.remove(
                hash_key(&k),
                |o| snap.get(&o).is_some_and(|s| s == &k),
                |o| hash_key(&snap[&o]),
            );
            let off = removed.expect("present");
            by_off.remove(&off);
        }
        assert_eq!(idx.len(), 200);
        assert!(idx.mem_bytes() > 0);
        assert!(idx.stats().lookups > 0);
        idx.reset_stats();
        assert_eq!(idx.stats().lookups, 0);
    }

    #[test]
    fn all_kinds_pass_the_generic_exercise() {
        for kind in [IndexKind::Chained, IndexKind::Compact, IndexKind::Packed] {
            let mut idx = AnyIndex::with_capacity(kind, 256, &Arena::new(1));
            assert_eq!(idx.kind(), kind);
            exercise(&mut idx);
        }
        exercise(&mut ChainedTable::new(64));
        exercise(&mut CompactTable::new(64));
        exercise(&mut PackedTable::new(64));
    }

    #[test]
    fn default_kind_is_packed() {
        assert_eq!(IndexKind::default(), IndexKind::Packed);
    }
}

//! [`AnyIndex`]: the shard's index, one enum over the three structures
//! [`IndexKind`] names, and the one place a call is dispatched to them.
//!
//! * [`crate::PackedTable`] — the production structure: cache-line-packed
//!   open addressing with SWAR tag probing, grown by one-step rebuilds.
//! * [`crate::CompactTable`] — the seed's overflow-chained compact table
//!   (one line per bucket, 16-bit signatures, dynamic overflow chains).
//! * [`crate::ChainedTable`] — the naive linked-list baseline the paper's
//!   §4.1.3 ablation contrasts against.
//!
//! Key order is not an index's business: the shard engine keeps its ordered
//! view beside whichever of these it holds (`ShardEngine::scan_into`).
//!
//! Why an enum and nothing above it: the engine's correctness (address
//! stability of arena offsets, single-writer discipline, the
//! rehash-callback contract) is proven against exactly these three, so the
//! set is closed; a `match` keeps `ShardEngine` non-generic while each
//! arm's probe loop monomorphizes; and each method forwards to the table's
//! own inherent method of the same name, which the index benches call
//! directly. The tables' signatures differ only in what they ignore — the
//! non-relocating ones never call `rehash` — and the `match` arms are where
//! that argument is dropped.
//!
//! Contract shared by all three:
//!
//! * Indexes map 64-bit key hashes to 48-bit arena word offsets and never
//!   look at key bytes — full equality is the caller's `is_match(offset)`
//!   predicate.
//! * `insert` and `remove` accept a `rehash(offset) -> hash` callback used by
//!   the structure that relocates entries (the packed table's rebuild
//!   re-derives every entry's home group from its stored key). The callback
//!   may only be invoked for offsets currently present in the index, which
//!   the engine guarantees always reference live, un-reclaimed items.
//! * Index entries move; items never do. Arena offsets handed out as remote
//!   pointers stay valid across any index churn (see `hydra_wire`'s
//!   remote-pointer rules).

use crate::table::TableStats;
use crate::{ChainedTable, CompactTable, PackedTable};

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
}

impl IndexKind {
    /// The packed index under the name of the former packed-plus-skiplist
    /// kind. Every kind now scans through the ordered view its engine
    /// builds at its first scan, so that kind is the packed one; the name
    /// stays only because the end-to-end benchmark's workload definitions
    /// (`benchmark/src/workloads.rs`) still spell it. The next change to
    /// the benchmark replaces those uses and removes this alias.
    #[allow(non_upper_case_globals)]
    pub const Hybrid: IndexKind = IndexKind::Packed;
}

/// The shard's index: one of the three structures. See the module docs.
pub enum AnyIndex {
    /// Linked-list chaining.
    Chained(ChainedTable),
    /// Compact table with overflow chains.
    Compact(CompactTable),
    /// Cache-line-packed open addressing.
    Packed(PackedTable),
}

/// The same call on whichever table `$self` holds.
macro_rules! dispatch {
    ($self:expr, $t:ident => $body:expr) => {
        match $self {
            AnyIndex::Chained($t) => $body,
            AnyIndex::Compact($t) => $body,
            AnyIndex::Packed($t) => $body,
        }
    };
}

impl AnyIndex {
    /// Builds an empty index of `kind`. `items` sizes only the
    /// fixed-capacity ablation tables (`Chained`, `Compact`); the packed
    /// index starts at one page and doubles as items arrive.
    pub fn with_capacity(kind: IndexKind, items: usize) -> AnyIndex {
        match kind {
            // One chain head per expected item — the conventional load
            // factor the naive designs the paper argues against would run.
            IndexKind::Chained => AnyIndex::Chained(ChainedTable::new(items.max(1))),
            IndexKind::Compact => AnyIndex::Compact(CompactTable::with_capacity(items)),
            IndexKind::Packed => AnyIndex::Packed(PackedTable::default()),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        dispatch!(self, t => t.len())
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> TableStats {
        dispatch!(self, t => t.stats())
    }

    /// Bytes held by the index's live structures.
    pub fn mem_bytes(&self) -> usize {
        dispatch!(self, t => t.mem_bytes())
    }

    /// Looks up the entry whose probe metadata matches `hash` and for which
    /// `is_match(offset)` confirms full key equality.
    pub fn lookup(&mut self, hash: u64, is_match: impl FnMut(u64) -> bool) -> Option<u64> {
        dispatch!(self, t => t.lookup(hash, is_match))
    }

    /// Batched lookup: results and charged statistics identical to per-key
    /// [`lookup`](Self::lookup) calls in key order; the structures may
    /// reorder memory accesses (prefetch/interleave) across the batch. At
    /// most [`crate::LOOKUP_BATCH`] keys per call.
    pub fn lookup_batch(
        &mut self,
        hashes: &[u64],
        out: &mut [Option<u64>],
        is_match: impl FnMut(usize, u64) -> bool,
    ) {
        dispatch!(self, t => t.lookup_batch(hashes, out, is_match))
    }

    /// Inserts `(hash, offset)`; the caller guarantees the key is absent.
    pub fn insert(&mut self, hash: u64, offset: u64, rehash: impl FnMut(u64) -> u64) {
        match self {
            AnyIndex::Chained(t) => t.insert(hash, offset),
            AnyIndex::Compact(t) => t.insert(hash, offset),
            AnyIndex::Packed(t) => t.insert(hash, offset, rehash),
        }
    }

    /// Replaces the offset of the entry `is_match` confirms (out-of-place
    /// update). Returns the old offset.
    pub fn replace(
        &mut self,
        hash: u64,
        new_offset: u64,
        is_match: impl FnMut(u64) -> bool,
    ) -> Option<u64> {
        dispatch!(self, t => t.replace(hash, new_offset, is_match))
    }

    /// Removes the entry `is_match` confirms; returns its offset.
    pub fn remove(
        &mut self,
        hash: u64,
        is_match: impl FnMut(u64) -> bool,
        rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        match self {
            AnyIndex::Chained(t) => t.remove(hash, is_match),
            AnyIndex::Compact(t) => t.remove(hash, is_match),
            AnyIndex::Packed(t) => t.remove(hash, is_match, rehash),
        }
    }

    /// Visits every stored offset.
    pub fn for_each(&self, f: impl FnMut(u64)) {
        dispatch!(self, t => t.for_each(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::{item_words, ItemRef};
    use crate::{hash_key, Arena, LOOKUP_BATCH};

    /// Every [`IndexKind`] through [`AnyIndex::with_capacity`] and the one
    /// dispatch, over real items in an arena (the packed table's resize
    /// rehashes entries from their stored keys).
    #[test]
    fn all_kinds_pass_the_generic_exercise() {
        for kind in [IndexKind::Chained, IndexKind::Compact, IndexKind::Packed] {
            let mut arena = Arena::new(1 << 14);
            let mem = arena.memory();
            // Small on purpose: the fixed kinds chain, the packed one
            // resizes from its one page under the load.
            let mut idx = AnyIndex::with_capacity(kind, 16);
            assert!(idx.is_empty());
            let mut write = |k: &[u8]| {
                let off = arena.alloc(item_words(k.len(), 0)).expect("arena");
                ItemRef::write_new(arena.words(), off, k, b"");
                off
            };
            let rehash = |o: u64| ItemRef { off: o }.stored_key_hash(&mem);
            let is = |k: &[u8]| {
                let (mem, k) = (mem.clone(), k.to_vec());
                move |o: u64| ItemRef { off: o }.key_eq(&mem, &k)
            };

            let keys: Vec<Vec<u8>> = (0..400u32)
                .map(|i| format!("ix-{:04}", i * 37 % 400).into_bytes())
                .collect();
            let mut offs: Vec<u64> = keys.iter().map(|k| write(k)).collect();
            for (k, &off) in keys.iter().zip(&offs) {
                idx.insert(hash_key(k), off, rehash);
            }
            assert_eq!(idx.len(), 400, "{kind:?}");
            for (k, &off) in keys.iter().zip(&offs).step_by(3) {
                assert_eq!(idx.lookup(hash_key(k), is(k)), Some(off), "{kind:?}");
            }
            assert_eq!(idx.lookup(hash_key(b"absent"), is(b"absent")), None);

            // Replace moves an entry to a fresh item; remove returns it.
            for i in (0..400).step_by(5) {
                let moved = write(&keys[i]);
                let old = idx.replace(hash_key(&keys[i]), moved, is(&keys[i]));
                assert_eq!(old, Some(offs[i]), "{kind:?}");
                offs[i] = moved;
            }
            for i in (0..400).step_by(2) {
                let gone = idx.remove(hash_key(&keys[i]), is(&keys[i]), rehash);
                assert_eq!(gone, Some(offs[i]), "{kind:?}");
                assert_eq!(idx.lookup(hash_key(&keys[i]), is(&keys[i])), None);
            }
            assert_eq!(idx.len(), 200);

            // A batch answers as its lookups would, hit or miss.
            let batch: Vec<usize> = (100..100 + LOOKUP_BATCH).collect();
            let hashes: Vec<u64> = batch.iter().map(|&i| hash_key(&keys[i])).collect();
            let mut out = vec![None; batch.len()];
            idx.lookup_batch(&hashes, &mut out, |j, o| {
                ItemRef { off: o }.key_eq(&mem, &keys[batch[j]])
            });
            for (j, &i) in batch.iter().enumerate() {
                assert_eq!(out[j], (i % 2 == 1).then_some(offs[i]), "{kind:?}");
            }

            let mut live: Vec<u64> = (1..400).step_by(2).map(|i| offs[i]).collect();
            let mut seen = Vec::new();
            idx.for_each(|o| seen.push(o));
            seen.sort_unstable();
            live.sort_unstable();
            assert_eq!(seen, live, "{kind:?}");

            assert!(idx.mem_bytes() > 0);
            assert!(idx.stats().lookups > 0);
            // The packed table doubled from its page once and holds the
            // doubled array alone.
            let packed = kind == IndexKind::Packed;
            assert_eq!(idx.stats().resizes, packed as u64, "{kind:?}");
            if packed {
                assert_eq!(idx.mem_bytes(), 2 * 4096);
            }
        }
    }

    #[test]
    fn default_kind_is_packed() {
        assert_eq!(IndexKind::default(), IndexKind::Packed);
    }
}

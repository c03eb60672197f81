//! [`AnyIndex`]: the shard's index, one enum over the four structures
//! [`IndexKind`] names, and the one place a call is dispatched to them.
//!
//! * [`crate::PackedTable`] — the production structure: cache-line-packed
//!   open addressing with SWAR tag probing and incremental resize.
//! * [`crate::CompactTable`] — the seed's overflow-chained compact table
//!   (one line per bucket, 16-bit signatures, dynamic overflow chains).
//! * [`crate::ChainedTable`] — the naive linked-list baseline the paper's
//!   §4.1.3 ablation contrasts against.
//! * [`crate::HybridTable`] — the packed table paired with a packed-leaf
//!   skiplist, built at the first ordered read, so ordered scans are
//!   possible; point ops are the packed path unchanged.
//!
//! Why an enum and nothing above it: the engine's correctness (address
//! stability of arena offsets, single-writer discipline, the
//! rehash-callback contract) is proven against exactly these four, so the
//! set is closed; a `match` keeps `ShardEngine` non-generic while each
//! arm's probe loop monomorphizes; and each method forwards to the table's
//! own inherent method of the same name, which the index benches call
//! directly. The tables' signatures differ only in what they ignore — the
//! hash-only ones never see key bytes, the non-relocating ones never call
//! `rehash` — and the `match` arms are where those arguments are dropped.
//!
//! Contract shared by all four:
//!
//! * Indexes map 64-bit key hashes to 48-bit arena word offsets and never
//!   look at key bytes themselves — full equality is the caller's
//!   `is_match(offset)` predicate. The hybrid's ordered side is the one
//!   exception: it orders by the keys stored in the arena items its offsets
//!   point at, so it is built over the shard's arena, and every mutation
//!   carries the key (the hybrid uses it once its ordered side exists).
//! * Mutating operations accept a `rehash(offset) -> hash` callback used by
//!   the structures that relocate entries (the packed table's incremental
//!   resize re-derives the home group of migrated entries from their stored
//!   keys). The callback may only be invoked for offsets currently present
//!   in the index, which the engine guarantees always reference live,
//!   un-reclaimed items.
//! * Index entries move; items never do. Arena offsets handed out as remote
//!   pointers stay valid across any index churn (see `hydra_wire`'s
//!   remote-pointer rules).

use crate::table::TableStats;
use crate::{Arena, ChainedTable, CompactTable, HybridTable, PackedTable};

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
    /// range scans on the ordered side (§11). The skiplist is built at the
    /// shard's first ordered read; until then the index is its packed
    /// table alone, and writes pay nothing for order.
    Hybrid,
}

/// The shard's index: one of the four structures. See the module docs.
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

/// The same call on whichever table `$self` holds.
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

impl AnyIndex {
    /// Builds the index of `kind` over the items of `arena`. `items` sizes
    /// only the fixed-capacity ablation tables (`Chained`, `Compact`); the
    /// packed and hybrid indexes start at one page and grow by incremental
    /// resize as items arrive.
    pub fn with_capacity(kind: IndexKind, items: usize, arena: &Arena) -> AnyIndex {
        match kind {
            // One chain head per expected item — the conventional load
            // factor the naive designs the paper argues against would run.
            IndexKind::Chained => AnyIndex::Chained(ChainedTable::new(items.max(1))),
            IndexKind::Compact => AnyIndex::Compact(CompactTable::with_capacity(items)),
            IndexKind::Packed => AnyIndex::Packed(PackedTable::default()),
            IndexKind::Hybrid => AnyIndex::Hybrid(HybridTable::new(arena)),
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

    /// Inserts `(hash, offset)` for `key`; the caller guarantees the key is
    /// absent.
    pub fn insert(&mut self, hash: u64, key: &[u8], offset: u64, rehash: impl FnMut(u64) -> u64) {
        match self {
            AnyIndex::Chained(t) => t.insert(hash, offset),
            AnyIndex::Compact(t) => t.insert(hash, offset),
            AnyIndex::Packed(t) => t.insert(hash, offset, rehash),
            AnyIndex::Hybrid(t) => t.insert(hash, key, offset, rehash),
        }
    }

    /// Replaces the offset of `key`'s existing entry (out-of-place update).
    /// Returns the old offset.
    pub fn replace(
        &mut self,
        hash: u64,
        key: &[u8],
        new_offset: u64,
        is_match: impl FnMut(u64) -> bool,
        rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        match self {
            AnyIndex::Chained(t) => t.replace(hash, new_offset, is_match),
            AnyIndex::Compact(t) => t.replace(hash, new_offset, is_match),
            AnyIndex::Packed(t) => t.replace(hash, new_offset, is_match, rehash),
            AnyIndex::Hybrid(t) => t.replace(hash, key, new_offset, is_match, rehash),
        }
    }

    /// Removes `key`'s entry, confirmed by `is_match`; returns its offset.
    pub fn remove(
        &mut self,
        hash: u64,
        key: &[u8],
        is_match: impl FnMut(u64) -> bool,
        rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        match self {
            AnyIndex::Chained(t) => t.remove(hash, is_match),
            AnyIndex::Compact(t) => t.remove(hash, is_match),
            AnyIndex::Packed(t) => t.remove(hash, is_match, rehash),
            AnyIndex::Hybrid(t) => t.remove(hash, key, is_match, rehash),
        }
    }

    /// Visits every stored offset.
    pub fn for_each(&self, f: impl FnMut(u64)) {
        dispatch!(self, t => t.for_each(f))
    }

    /// Whether an incremental resize is in progress.
    pub fn is_resizing(&self) -> bool {
        match self {
            AnyIndex::Chained(_) | AnyIndex::Compact(_) => false,
            AnyIndex::Packed(t) => t.is_resizing(),
            AnyIndex::Hybrid(t) => t.is_resizing(),
        }
    }

    /// Bytes parked awaiting reclamation: the hybrid's skiplist leaves that
    /// deletes unlinked. (A drained resize half is freed as it drains.)
    pub fn retired_bytes(&self) -> usize {
        match self {
            AnyIndex::Hybrid(t) => t.retired_bytes(),
            _ => 0,
        }
    }

    /// Frees retired leaves; returns how many were reclaimed. Driven from
    /// the engine's reclamation pump (put *and* delete paths).
    pub fn reclaim_retired(&mut self) -> usize {
        match self {
            AnyIndex::Hybrid(t) => t.reclaim_retired(),
            _ => 0,
        }
    }

    /// Whether this index serves an ordered view of the keys (and therefore
    /// supports [`scan_from`](Self::scan_from) natively; the hybrid builds
    /// the view at its first ordered read).
    pub fn is_ordered(&self) -> bool {
        matches!(self, AnyIndex::Hybrid(_))
    }

    /// Ordered iteration from the first key `>= start`: `f` receives each
    /// `(key, offset)` in key order and returns `false` to stop. Returns
    /// `true` when the iteration ran off the end of the keyspace. Only
    /// meaningful when [`is_ordered`](Self::is_ordered); the hash-only
    /// structures visit nothing and report exhaustion (callers emulate
    /// scans by sorting a full dump — see `ShardEngine::scan_into`).
    pub fn scan_from(&mut self, start: &[u8], f: impl FnMut(&[u8], u64) -> bool) -> bool {
        match self {
            AnyIndex::Hybrid(t) => t.scan_from(start, f),
            _ => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::{item_words, ItemRef};
    use crate::skiplist::LEAF_CAP;
    use crate::{hash_key, LOOKUP_BATCH};

    /// Every [`IndexKind`] through [`AnyIndex::with_capacity`] and the one
    /// dispatch, over real items in an arena. At the parent commit this
    /// could only be written for three kinds: it fabricated offsets, which
    /// the hybrid's ordered side cannot follow to a key, and it mutated
    /// through the un-keyed calls, which the hybrid could only panic on.
    #[test]
    fn all_kinds_pass_the_generic_exercise() {
        for kind in [
            IndexKind::Chained,
            IndexKind::Compact,
            IndexKind::Packed,
            IndexKind::Hybrid,
        ] {
            let mut arena = Arena::new(1 << 14);
            let mem = arena.memory();
            // Small on purpose: the fixed kinds chain, the packed kinds
            // resize from their one page under the load.
            let mut idx = AnyIndex::with_capacity(kind, 16, &arena);
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

            // Inserted in scrambled order so key order is the index's doing.
            let keys: Vec<Vec<u8>> = (0..400u32)
                .map(|i| format!("ix-{:04}", i * 37 % 400).into_bytes())
                .collect();
            let mut offs: Vec<u64> = keys.iter().map(|k| write(k)).collect();
            for (k, &off) in keys.iter().zip(&offs) {
                idx.insert(hash_key(k), k, off, rehash);
            }
            assert_eq!(idx.len(), 400, "{kind:?}");
            for (k, &off) in keys.iter().zip(&offs).step_by(3) {
                assert_eq!(idx.lookup(hash_key(k), is(k)), Some(off), "{kind:?}");
            }
            assert_eq!(idx.lookup(hash_key(b"absent"), is(b"absent")), None);

            // Replace moves an entry to a fresh item; remove returns it.
            for i in (0..400).step_by(5) {
                let moved = write(&keys[i]);
                let old = idx.replace(hash_key(&keys[i]), &keys[i], moved, is(&keys[i]), rehash);
                assert_eq!(old, Some(offs[i]), "{kind:?}");
                offs[i] = moved;
            }
            for i in (0..400).step_by(2) {
                let gone = idx.remove(hash_key(&keys[i]), &keys[i], is(&keys[i]), rehash);
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

            // Until its first ordered read the hybrid holds its hash side
            // alone: what the packed index holds, once doubled from its page.
            if matches!(kind, IndexKind::Packed | IndexKind::Hybrid) {
                assert_eq!(idx.mem_bytes(), 2 * 4096, "{kind:?}");
                assert_eq!(idx.retired_bytes(), 0, "{kind:?}");
            }

            // Only the hybrid keeps key order; the rest visit nothing and
            // report the keyspace exhausted.
            let mut scanned = Vec::new();
            let exhausted = idx.scan_from(b"ix-0100", |k, o| {
                scanned.push((k.to_vec(), o));
                true
            });
            assert!(exhausted);
            assert_eq!(idx.is_ordered(), kind == IndexKind::Hybrid);
            if idx.is_ordered() {
                let mut want: Vec<(Vec<u8>, u64)> = (1..400)
                    .step_by(2)
                    .map(|i| (keys[i].clone(), offs[i]))
                    .filter(|(k, _)| k.as_slice() >= b"ix-0100".as_slice())
                    .collect();
                want.sort();
                assert_eq!(scanned, want);
                let mut n = 0;
                assert!(!idx.scan_from(b"", |_, _| {
                    n += 1;
                    n < 10
                }));
                assert_eq!(n, 10);
            } else {
                assert!(scanned.is_empty(), "{kind:?}");
            }

            // Removes after that read reach the ordered side: the smallest
            // live keys, two leaves' worth, empty the leaf behind the head.
            let mut smallest: Vec<usize> = (1..400).step_by(2).collect();
            smallest.sort_by(|&a, &b| keys[a].cmp(&keys[b]));
            for &i in &smallest[..2 * LEAF_CAP] {
                let gone = idx.remove(hash_key(&keys[i]), &keys[i], is(&keys[i]), rehash);
                assert_eq!(gone, Some(offs[i]), "{kind:?}");
            }
            assert_eq!(idx.len(), 200 - 2 * LEAF_CAP);

            assert!(idx.mem_bytes() > 0);
            assert!(idx.stats().lookups > 0);
            assert_eq!(idx.lookup(hash_key(&keys[1]), is(&keys[1])), Some(offs[1]));
            // The packed kinds doubled from their page once and hold the
            // live array alone: no kind holds a drained resize half. Only
            // the hybrid's ordered side parks memory (leaves the removes
            // emptied), and one pump frees it.
            let packed = matches!(kind, IndexKind::Packed | IndexKind::Hybrid);
            assert_eq!(idx.stats().resizes, packed as u64, "{kind:?}");
            assert!(!idx.is_resizing());
            if kind == IndexKind::Packed {
                assert_eq!(idx.mem_bytes(), 2 * 4096);
            }
            let parked = idx.retired_bytes();
            assert_eq!(parked > 0, kind == IndexKind::Hybrid, "{kind:?}");
            assert_eq!(idx.reclaim_retired() > 0, parked > 0);
            assert_eq!(idx.retired_bytes(), 0);
        }
    }

    #[test]
    fn default_kind_is_packed() {
        assert_eq!(IndexKind::default(), IndexKind::Packed);
    }
}

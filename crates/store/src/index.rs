//! [`IndexKind`]: the name configurations give the shard's index.
//!
//! Every shard indexes its items with one [`crate::PackedTable`]:
//! cache-line-packed open addressing with SWAR tag probing, grown by
//! one-step rebuilds (§4.1.3). The compact and chained tables the paper
//! contrasts it with ([`crate::CompactTable`], [`crate::ChainedTable`]) are
//! standalone structures for the A-HASH ablation (`hydra-bench run
//! abl_hashtable` and `perf_index`); no shard holds one. Key order is
//! not the index's business either: the engine keeps its ordered view
//! beside the table (`ShardEngine::scan_into`).

/// The shard's index structure. There is one: the packed table.
///
/// Kept only because the end-to-end benchmark (`benchmark/src`) names it in
/// `ClusterConfig::index` and `EngineConfig::index`, which select nothing.
/// The next change to the benchmark drops those uses, and this type goes
/// with them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexKind {
    /// Cache-line-packed open addressing with SWAR probing.
    #[default]
    Packed,
}

impl IndexKind {
    /// The packed index under the name of the former packed-plus-skiplist
    /// kind, which `benchmark/src/workloads.rs` still spells.
    #[allow(non_upper_case_globals)]
    pub const Hybrid: IndexKind = IndexKind::Packed;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Arena;
    use crate::item::{item_words, ItemRef};
    use crate::{hash_key, PackedTable};

    /// The shard's index through every call the engine makes, over real
    /// items in an arena (a rebuild rehashes entries from their stored
    /// keys).
    #[test]
    fn all_kinds_pass_the_generic_exercise() {
        let mut arena = Arena::new(1 << 14);
        let mem = arena.memory();
        // Past the one page's ceiling of 392, so the load doubles it.
        let mut idx = PackedTable::default();
        assert_eq!(idx.len(), 0);
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
        assert_eq!(idx.len(), 400);
        for (k, &off) in keys.iter().zip(&offs).step_by(3) {
            assert_eq!(idx.lookup(hash_key(k), is(k)), Some(off));
        }
        assert_eq!(idx.lookup(hash_key(b"absent"), is(b"absent")), None);

        // Replace moves an entry to a fresh item; remove returns it.
        for i in (0..400).step_by(5) {
            let moved = write(&keys[i]);
            let old = idx.replace(hash_key(&keys[i]), moved, is(&keys[i]));
            assert_eq!(old, Some(offs[i]));
            offs[i] = moved;
        }
        for i in (0..400).step_by(2) {
            let gone = idx.remove(hash_key(&keys[i]), is(&keys[i]), rehash);
            assert_eq!(gone, Some(offs[i]));
            assert_eq!(idx.lookup(hash_key(&keys[i]), is(&keys[i])), None);
        }
        assert_eq!(idx.len(), 200);

        let mut live: Vec<u64> = (1..400).step_by(2).map(|i| offs[i]).collect();
        let mut seen = Vec::new();
        idx.for_each(|o| seen.push(o));
        seen.sort_unstable();
        live.sort_unstable();
        assert_eq!(seen, live);

        assert!(idx.stats().lookups > 0);
        // The table doubled from its page once and holds the doubled array
        // alone.
        assert_eq!(idx.stats().resizes, 1);
        assert_eq!(idx.mem_bytes(), 2 * 4096);
    }

    #[test]
    fn default_kind_is_packed() {
        assert_eq!(IndexKind::default(), IndexKind::Packed);
    }
}

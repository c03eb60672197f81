//! HydraDB's server-side memory engine.
//!
//! A *shard* (§4.1.1) exclusively owns one partition: a registered-memory
//! [`Arena`] holding the key-value items, a cache-friendly hash index (the
//! packed [`PackedTable`], §4.1.3) mapping key hashes to them, an ordered
//! [`SkipList`] view of the keys built at the shard's first range scan, and a [`ReclaimQueue`] deferring memory reuse
//! until leases expire (§4.2.3). The [`ShardEngine`] ties these together
//! into the operation set the server and the replication applier drive.
//!
//! Concurrency contract, mirroring the paper:
//!
//! * Exactly **one writer** (the shard thread) mutates a partition. The index
//!   and free lists are therefore plain `&mut` structures.
//! * **Many readers** (remote clients doing one-sided RDMA Reads) may read
//!   item memory at any time with zero coordination. Item bytes live in
//!   `AtomicU64` words; items are immutable after publication except for two
//!   trailing atomic words — the *guardian* (liveness flag flipped on
//!   update/delete) and the *lease* (expiry timestamp) — so racy reads are
//!   well-defined and validated by the guardian protocol on the client side.

pub mod arena;
pub mod chained;
pub mod checksum;
pub mod engine;
pub mod heat;
pub mod index;
pub mod item;
pub mod packed;
pub mod reclaim;
pub mod skiplist;
pub mod table;

pub use arena::{size_class, Arena, ArenaStats};
pub use chained::ChainedTable;
pub use checksum::{ChecksumItem, ChecksumVerdict, Crc64};
pub use engine::{
    ArenaBooks, EngineConfig, EngineError, EngineStats, GetResult, ItemInfo, ShardEngine, WriteMode,
};
pub use heat::{HeatEntry, HeatSketch};
pub use index::IndexKind;
pub use item::{
    item_words, rdma_read_len, FetchedItem, ItemError, ItemRef, GUARD_DEAD, GUARD_VALID,
};
pub use packed::{PackedTable, GROUP_SLOTS, LOOKUP_BATCH};
pub use reclaim::ReclaimQueue;
pub use skiplist::{SkipList, SkipListStats, SKIP_MAX_HEIGHT};
pub use table::{CompactTable, TableStats};

/// FNV-1a offset basis (shared with [`item::ItemRef::stored_key_hash`],
/// which must reproduce [`hash_key`] from arena words byte-for-byte).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01B3;

/// Final avalanche (splitmix64 tail) so low bits are well mixed even for
/// short sequential keys.
#[inline]
pub(crate) fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// 64-bit key hash used everywhere: FNV-1a. Stable across runs (and thus
/// across the consistent-hashing ring, signatures, and partition routing).
#[inline]
pub fn hash_key(key: &[u8]) -> u64 {
    let mut h: u64 = FNV_OFFSET;
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    avalanche(h)
}

/// The 16-bit slot signature derived from a key hash (§4.1.3).
#[inline]
pub fn signature(hash: u64) -> u16 {
    // Use high bits, which are independent of the bucket-index bits.
    let s = (hash >> 48) as u16;
    // Zero is reserved for "empty slot"; remap.
    if s == 0 {
        0x5AA5
    } else {
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_deterministic_and_spread() {
        assert_eq!(hash_key(b"user:1"), hash_key(b"user:1"));
        assert_ne!(hash_key(b"user:1"), hash_key(b"user:2"));
        // Low bits must differ across sequential keys (bucket selection).
        let mut low = std::collections::HashSet::new();
        for i in 0..1000u32 {
            low.insert(hash_key(format!("key{i}").as_bytes()) & 0xFFF);
        }
        assert!(low.len() > 800, "low bits poorly mixed: {}", low.len());
    }

    #[test]
    fn signature_never_zero() {
        for i in 0..10_000u64 {
            assert_ne!(signature(i << 48), 0);
        }
    }
}

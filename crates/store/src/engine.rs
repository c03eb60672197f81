//! The shard engine: one partition's complete server-side state machine.
//!
//! A [`ShardEngine`] is owned by exactly one shard thread (or one simulated
//! shard actor) and implements the full §4 protocol surface:
//!
//! * out-of-place writes with guardian flips (INSERT / UPDATE / DELETE),
//! * GETs that bump popularity, extend leases (1–64 s scaled by popularity)
//!   and hand back the remote pointer metadata clients cache for RDMA Reads
//!   (the GET that re-caches a pointer is what renews its lease),
//! * lease-deferred reclamation,
//! * CLOCK eviction when configured as a cache,
//! * ordered range scans through a [`SkipList`] view of the keys, built at
//!   the shard's first scan and kept current from then on (§11).
//!
//! The engine is deliberately transport-free: the server crate feeds it
//! decoded requests; the replication crate feeds it log records; tests feed
//! it directly.

use std::collections::VecDeque;
use std::sync::atomic::AtomicU64;

use crate::arena::{size_class, Arena};
use crate::index::IndexKind;
use crate::item::{item_words, ItemRef};
use crate::reclaim::ReclaimQueue;
use crate::skiplist::leaf_slot;
use crate::{hash_key, ArenaStats, PackedTable, SkipList, SkipListStats, TableStats};

/// Item count below which the CLOCK ring's compaction threshold does not
/// fall: a nearly empty cache compacts its ring at most once per 64 writes,
/// not on every write.
const CLOCK_MIN_ITEMS: usize = 32;

/// Whether the store is a reliable store (INSERT collides) or a cache
/// (upserts + eviction under memory pressure).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMode {
    /// INSERT of an existing key fails; no eviction (allocation failure is an
    /// error surfaced to the client).
    Reliable,
    /// INSERT upserts; allocation failure triggers CLOCK eviction.
    Cache,
}

/// Engine construction parameters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Arena capacity in 8-byte words.
    pub arena_words: usize,
    /// Selects nothing: the packed index starts at one page and grows as
    /// items arrive. Kept only because the end-to-end benchmark
    /// (`benchmark/src/replay.rs`) names it; the next change to the
    /// benchmark drops that use and this field.
    pub expected_items: usize,
    /// Selects nothing: every shard holds a [`PackedTable`]. Kept only
    /// because the end-to-end benchmark (`benchmark/src/replay.rs`) names
    /// it; the next change to the benchmark drops that use and this field.
    pub index: IndexKind,
    /// Reliable store or cache.
    pub write_mode: WriteMode,
    /// Minimum lease term granted on a GET (paper: 1 s).
    pub min_lease_ns: u64,
    /// Maximum lease term (paper: 64 s).
    pub max_lease_ns: u64,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            arena_words: 1 << 20, // 8 MiB
            expected_items: 64 << 10,
            index: IndexKind::default(),
            write_mode: WriteMode::Reliable,
            min_lease_ns: 1_000_000_000,
            max_lease_ns: 64_000_000_000,
        }
    }
}

/// Engine errors surfaced to the protocol layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// INSERT collided in reliable mode.
    Exists,
    /// UPDATE/DELETE of an absent key.
    NotFound,
    /// Arena exhausted (after eviction, in cache mode).
    OutOfMemory,
    /// Key exceeds the 16-bit length field.
    KeyTooLong,
    /// Value exceeds the 32-bit length field.
    ValueTooLong,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            EngineError::Exists => "key already exists",
            EngineError::NotFound => "key not found",
            EngineError::OutOfMemory => "arena exhausted",
            EngineError::KeyTooLong => "key too long",
            EngineError::ValueTooLong => "value too long",
        };
        f.write_str(s)
    }
}

impl std::error::Error for EngineError {}

/// Location metadata for an item, convertible to a wire remote pointer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemInfo {
    /// Word offset of the item in the arena.
    pub off_words: u64,
    /// Bytes a remote RDMA Read must fetch (header..guardian).
    pub read_len: u32,
    /// Absolute lease expiry granted (0 if none).
    pub lease_expiry: u64,
    /// Item version (mod 128): 0 on fresh insert, bumped per replace.
    pub version: u8,
}

/// Result of a server-side GET.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GetResult {
    /// The value bytes.
    pub value: Vec<u8>,
    /// Remote-pointer metadata for the client cache.
    pub info: ItemInfo,
}

/// Where an engine's arena words are, as [`ShardEngine::arena_books`]
/// counts them (size-class words). Every word carved from the arena's bump
/// frontier is held by a live item, sits on a free list, or is retired: a
/// superseded or deleted block waiting in the reclaim queue for its lease
/// to lapse.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArenaBooks {
    /// Words carved from the bump frontier (capacity minus headroom).
    pub allocated: u64,
    /// Words of the items the index reaches.
    pub live: u64,
    /// Words on the arena's free lists.
    pub free: u64,
    /// Words of dead blocks awaiting lease expiry.
    pub retired: u64,
}

impl ArenaBooks {
    /// Whether `allocated = live + free + retired`.
    pub fn balanced(&self) -> bool {
        self.allocated == self.live + self.free + self.retired
    }
}

/// Operation counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    pub gets: u64,
    pub get_hits: u64,
    pub inserts: u64,
    pub updates: u64,
    pub deletes: u64,
    /// Range scans served (each continuation quantum counts once).
    pub scans: u64,
    /// Items emitted across all scans.
    pub scan_items: u64,
    pub evictions: u64,
    pub reclaimed_blocks: u64,
    pub oom_events: u64,
}

/// One partition's storage engine. See module docs.
///
/// ```
/// use hydra_store::{EngineConfig, ShardEngine, WriteMode};
///
/// let mut engine = ShardEngine::new(EngineConfig::default());
/// engine.insert(0, b"user:1", b"ada").unwrap();
/// let got = engine.get(10, b"user:1").unwrap();
/// assert_eq!(got.value, b"ada");
/// assert!(got.info.lease_expiry > 10); // GET granted a lease
/// engine.update(20, b"user:1", b"lovelace").unwrap();
/// assert_eq!(engine.get(30, b"user:1").unwrap().value, b"lovelace");
/// ```
pub struct ShardEngine {
    arena: Arena,
    table: PackedTable,
    /// The keys in order: built from `table` at the first ordered read
    /// ([`scan_into`](Self::scan_into)), `None` until then, and kept
    /// current by every mutation after it.
    ordered: Option<SkipList>,
    reclaim: ReclaimQueue,
    cfg: EngineConfig,
    /// CLOCK ring of (key hash, offset) candidates, kept in cache mode only
    /// (a reliable store never evicts). Entries are validated against the
    /// table on pop, so stale entries (updated/deleted items) are dropped
    /// lazily, and all at once when the ring reaches twice the item count.
    clock: VecDeque<(u64, u64)>,
    stats: EngineStats,
}

impl ShardEngine {
    /// Builds an engine from `cfg`.
    pub fn new(cfg: EngineConfig) -> Self {
        let arena = Arena::new(cfg.arena_words);
        ShardEngine {
            table: PackedTable::default(),
            ordered: None,
            arena,
            reclaim: ReclaimQueue::new(),
            clock: VecDeque::new(),
            cfg,
            stats: EngineStats::default(),
        }
    }

    /// Bytes held by the index's live structures and the ordered view's.
    pub fn index_mem_bytes(&self) -> usize {
        self.table.mem_bytes() + self.ordered.as_ref().map_or(0, SkipList::mem_bytes)
    }

    /// Shape counters of the ordered view: leaves, retired nodes,
    /// comparisons. `None` until the shard's first ordered read builds it.
    pub fn ordered_stats(&self) -> Option<SkipListStats> {
        self.ordered.as_ref().map(SkipList::stats)
    }

    /// The registered-memory word slice remote readers access.
    #[inline]
    pub fn words(&self) -> &[AtomicU64] {
        self.arena.words()
    }

    /// Shared handle to the arena memory for fabric registration.
    pub fn memory(&self) -> std::sync::Arc<[AtomicU64]> {
        self.arena.memory()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Operation counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Index statistics.
    pub fn table_stats(&self) -> TableStats {
        self.table.stats()
    }

    /// Arena statistics.
    pub fn arena_stats(&self) -> ArenaStats {
        self.arena.stats()
    }

    /// Blocks awaiting lease expiry.
    pub fn reclaim_pending(&self) -> usize {
        self.reclaim.len()
    }

    /// Entries in the CLOCK ring (always 0 in reliable mode).
    pub fn clock_len(&self) -> usize {
        self.clock.len()
    }

    /// High-water mark of (blocks, words) pinned by unexpired leases.
    pub fn reclaim_peak(&self) -> (usize, u64) {
        self.reclaim.peak_pending()
    }

    /// The arena's books, in size-class words (see `ArenaBooks`).
    /// Walks every live item and every pending dead block: a check for
    /// tests and audits, not for the serving path.
    pub fn arena_books(&self) -> ArenaBooks {
        let words = self.arena.words();
        let mut live = 0;
        self.table.for_each(|off| {
            live += size_class(ItemRef { off }.total_words(words)) as u64;
        });
        let a = self.arena.stats();
        ArenaBooks {
            allocated: a.capacity_words - a.headroom_words,
            live,
            free: a.free_list_words,
            retired: self
                .reclaim
                .blocks()
                .map(|b| size_class(b.words) as u64)
                .sum(),
        }
    }

    fn check_lengths(key: &[u8], value: &[u8]) -> Result<(), EngineError> {
        if key.len() > u16::MAX as usize {
            return Err(EngineError::KeyTooLong);
        }
        if value.len() >= (1u64 << 32) as usize {
            return Err(EngineError::ValueTooLong);
        }
        Ok(())
    }

    fn find(&mut self, hash: u64, key: &[u8]) -> Option<u64> {
        let words = self.arena.words();
        self.table
            .lookup(hash, |off| ItemRef { off }.key_eq(words, key))
    }

    /// Links a freshly written item into the index, and into the ordered
    /// view once one exists. The rehash callback lets the packed index
    /// re-derive every entry's home group when it rebuilds; it only ever
    /// sees offsets of live items (every engine path removes the index entry
    /// before a block can be reclaimed).
    fn index_insert(&mut self, hash: u64, key: &[u8], off: u64) {
        let words = self.arena.words();
        self.table
            .insert(hash, off, |o| ItemRef { off: o }.stored_key_hash(words));
        if let Some(list) = &mut self.ordered {
            list.upsert(words, key, off);
        }
    }

    fn alloc_item(&mut self, now: u64, klen: usize, vlen: usize) -> Result<u64, EngineError> {
        let need = item_words(klen, vlen);
        if let Some(off) = self.arena.alloc(need) {
            return Ok(off);
        }
        // Reclaim anything whose lease has lapsed, then retry.
        self.pump_reclaim(now);
        if let Some(off) = self.arena.alloc(need) {
            return Ok(off);
        }
        // Still stuck: pull free blocks bordering the bump frontier back
        // into headroom so a size class the free lists have never seen can
        // be carved.
        self.arena.compact();
        if let Some(off) = self.arena.alloc(need) {
            return Ok(off);
        }
        if self.cfg.write_mode == WriteMode::Cache {
            // CLOCK eviction: sweep until an allocation fits or the ring is
            // exhausted twice (every entry got its second chance).
            let budget = self.clock.len() * 2;
            for _ in 0..budget {
                let Some((h, off)) = self.clock.pop_front() else {
                    break;
                };
                let words = self.arena.words();
                let current = self.table.lookup(h, |o| o == off).is_some();
                if !current {
                    continue; // stale ring entry
                }
                let item = ItemRef { off };
                if item.clock_ref(words) {
                    item.set_clock_ref(words, false);
                    self.clock.push_back((h, off));
                    continue;
                }
                // Evict: unlink, kill, defer the block to lease expiry. An
                // ordered view finds its entry by key, read back from the
                // item (cold path; the copy is fine).
                let lease = item.lease(words);
                let total = item.total_words(words);
                let removed = self
                    .table
                    .remove(
                        h,
                        |o| o == off,
                        |o| ItemRef { off: o }.stored_key_hash(words),
                    )
                    .expect("entry verified current");
                debug_assert_eq!(removed, off);
                if let Some(list) = &mut self.ordered {
                    list.remove(words, &item.key(words));
                }
                item.kill(words);
                self.reclaim.push(off, total, lease.max(now));
                self.stats.evictions += 1;
                self.pump_reclaim(now);
                if let Some(off) = self.arena.alloc(need) {
                    return Ok(off);
                }
            }
        }
        self.stats.oom_events += 1;
        Err(EngineError::OutOfMemory)
    }

    /// Enters a freshly written item into the CLOCK ring (cache mode only).
    /// Once the ring holds twice as many entries as there are items, the
    /// entries of items no longer current are dropped: the eviction sweep
    /// skips those anyway. The one thing such an entry could still have
    /// done is give a key written back onto the same block an earlier turn
    /// in the sweep; that key keeps its own, newer entry.
    fn clock_push(&mut self, hash: u64, off: u64) {
        if self.cfg.write_mode != WriteMode::Cache {
            return;
        }
        if self.clock.len() >= 2 * self.table.len().max(CLOCK_MIN_ITEMS) {
            let table = &mut self.table;
            self.clock
                .retain(|&(h, o)| table.lookup(h, |cur| cur == o).is_some());
        }
        self.clock.push_back((hash, off));
    }

    /// INSERT. In reliable mode an existing key yields
    /// [`EngineError::Exists`]; in cache mode it upserts.
    pub fn insert(&mut self, now: u64, key: &[u8], value: &[u8]) -> Result<ItemInfo, EngineError> {
        Self::check_lengths(key, value)?;
        let hash = hash_key(key);
        if let Some(old) = self.find(hash, key) {
            return match self.cfg.write_mode {
                WriteMode::Reliable => Err(EngineError::Exists),
                WriteMode::Cache => {
                    let info = self.replace_item(now, hash, key, value, old)?;
                    self.stats.inserts += 1;
                    Ok(info)
                }
            };
        }
        let off = self.alloc_item(now, key.len(), value.len())?;
        let info = self.link_new(hash, key, value, off);
        self.stats.inserts += 1;
        Ok(info)
    }

    /// UPDATE of an existing key (out-of-place). Absent keys:
    /// [`EngineError::NotFound`] in reliable mode, upsert in cache mode.
    pub fn update(&mut self, now: u64, key: &[u8], value: &[u8]) -> Result<ItemInfo, EngineError> {
        Self::check_lengths(key, value)?;
        let hash = hash_key(key);
        match self.find(hash, key) {
            Some(old) => {
                let info = self.replace_item(now, hash, key, value, old)?;
                self.stats.updates += 1;
                Ok(info)
            }
            None => match self.cfg.write_mode {
                WriteMode::Reliable => Err(EngineError::NotFound),
                WriteMode::Cache => {
                    let off = self.alloc_item(now, key.len(), value.len())?;
                    let info = self.link_new(hash, key, value, off);
                    self.stats.updates += 1;
                    Ok(info)
                }
            },
        }
    }

    /// Upsert regardless of mode — the replication applier uses this for
    /// [`hydra_wire::LogOp::Put`] records.
    pub fn put(&mut self, now: u64, key: &[u8], value: &[u8]) -> Result<ItemInfo, EngineError> {
        Self::check_lengths(key, value)?;
        let hash = hash_key(key);
        match self.find(hash, key) {
            Some(old) => self.replace_item(now, hash, key, value, old),
            None => {
                let off = self.alloc_item(now, key.len(), value.len())?;
                Ok(self.link_new(hash, key, value, off))
            }
        }
    }

    /// Writes a key's first item into the block at `off` and links it.
    fn link_new(&mut self, hash: u64, key: &[u8], value: &[u8], off: u64) -> ItemInfo {
        let item = ItemRef::write_new(self.arena.words(), off, key, value);
        self.index_insert(hash, key, off);
        self.clock_push(hash, off);
        ItemInfo {
            off_words: off,
            read_len: item.read_len(self.arena.words()),
            lease_expiry: 0,
            version: 0,
        }
    }

    /// The §4.2.3 update path: allocate the new item first, flip the old
    /// guardian atomically, swap the index link, defer the old block.
    fn replace_item(
        &mut self,
        now: u64,
        hash: u64,
        key: &[u8],
        value: &[u8],
        old_off: u64,
    ) -> Result<ItemInfo, EngineError> {
        let new_off = self.alloc_item(now, key.len(), value.len())?;
        let old_item = ItemRef { off: old_off };
        if !old_item.is_valid(self.arena.words()) {
            // The CLOCK sweep that made room evicted the very item this
            // write replaces (its block may even be `new_off`): the key is
            // gone, so the write lands as its first item.
            return Ok(self.link_new(hash, key, value, new_off));
        }
        // Bump the 7-bit item version: a client (or replica exporter) holding
        // the old version observes the mismatch even before it sees the dead
        // guardian.
        let version = old_item.version(self.arena.words()).wrapping_add(1) & 0x7F;
        let new_item =
            ItemRef::write_new_versioned(self.arena.words(), new_off, key, value, version);
        let read_len = new_item.read_len(self.arena.words());
        let words = self.arena.words();
        // Carry popularity across versions so lease scaling survives updates.
        new_item.set_popularity(words, old_item.popularity(words));
        let old_words = old_item.total_words(words);
        let old_lease = old_item.lease(words);
        old_item.kill(words);
        let replaced = self.table.replace(hash, new_off, |off| off == old_off);
        debug_assert_eq!(replaced, Some(old_off));
        if let Some(list) = &mut self.ordered {
            list.set(words, key, new_off);
        }
        self.clock_push(hash, new_off);
        self.reclaim.push(old_off, old_words, old_lease.max(now));
        Ok(ItemInfo {
            off_words: new_off,
            read_len,
            lease_expiry: 0,
            version,
        })
    }

    /// Lease tier of an item with popularity `pop`: `floor(log2(pop))`
    /// clamped to 0..=6, i.e. the seven doublings of the §4.2.3 1–64 s
    /// range.
    fn lease_class(pop: u8) -> u8 {
        (63 - (pop as u64).max(1).leading_zeros() as u64).min(6) as u8
    }

    /// Lease term granted to an item with popularity `pop`: doubles per
    /// popularity power-of-two, clamped to `[min_lease, max_lease]` (§4.2.3's
    /// 1–64 s range).
    fn lease_term(&self, pop: u8) -> u64 {
        let term = self
            .cfg
            .min_lease_ns
            .saturating_shl(Self::lease_class(pop) as u32);
        term.clamp(self.cfg.min_lease_ns, self.cfg.max_lease_ns)
    }

    /// Server-side GET: returns the value plus the remote-pointer metadata
    /// and extends the item's lease.
    pub fn get(&mut self, now: u64, key: &[u8]) -> Option<GetResult> {
        let mut value = Vec::new();
        let info = self.get_into(now, key, &mut value)?;
        Some(GetResult { value, info })
    }

    /// [`Self::get`] without the value allocation: clears `out` and appends
    /// the value bytes into it. With a reused scratch buffer this is the
    /// zero-allocation GET the serving hot path runs per request.
    pub fn get_into(&mut self, now: u64, key: &[u8], out: &mut Vec<u8>) -> Option<ItemInfo> {
        out.clear();
        self.stats.gets += 1;
        let hash = hash_key(key);
        let off = self.find(hash, key)?;
        self.stats.get_hits += 1;
        let words = self.arena.words();
        let item = ItemRef { off };
        item.bump_popularity(words);
        item.set_clock_ref(words, true);
        let pop = item.popularity(words);
        let expiry = now + self.lease_term(pop);
        item.extend_lease(words, expiry);
        item.value_into(words, out);
        Some(ItemInfo {
            off_words: off,
            read_len: item.read_len(words),
            lease_expiry: item.lease(words),
            version: item.version(words),
        })
    }

    /// Non-mutating lookup: resolves `key` to its current location without
    /// bumping popularity, extending the lease, or touching CLOCK state.
    /// The primary uses this to export *replica* pointers from a replica's
    /// engine — the replica must not record reads it never served, and the
    /// replica item's own lease state stays untouched (the guardian word
    /// still validates every remote fetch).
    pub fn peek(&mut self, key: &[u8]) -> Option<ItemInfo> {
        let hash = hash_key(key);
        let off = self.find(hash, key)?;
        let words = self.arena.words();
        let item = ItemRef { off };
        Some(ItemInfo {
            off_words: off,
            read_len: item.read_len(words),
            lease_expiry: item.lease(words),
            version: item.version(words),
        })
    }

    /// Extends `key`'s lease to at least `expiry` without bumping popularity
    /// or CLOCK state. The primary uses this to pin a *replica* item for the
    /// duration of a lease it granted on the replica's behalf when exporting
    /// the replica's remote pointer: reclamation on the replica then honours
    /// the exported lease exactly as it honours locally granted ones.
    /// Returns `false` when the key is absent.
    pub fn pin_lease(&mut self, key: &[u8], expiry: u64) -> bool {
        let hash = hash_key(key);
        let Some(off) = self.find(hash, key) else {
            return false;
        };
        ItemRef { off }.extend_lease(self.arena.words(), expiry);
        true
    }

    /// DELETE. Flips the guardian and defers the block.
    pub fn delete(&mut self, now: u64, key: &[u8]) -> Result<(), EngineError> {
        let hash = hash_key(key);
        let Some(off) = self.find(hash, key) else {
            return Err(EngineError::NotFound);
        };
        // Advance the reclamation epoch from the delete path too — a
        // delete-only workload must drain expired blocks and retired skiplist
        // leaves without waiting for a put. Pumping *before* pushing leaves
        // the block killed below for a later epoch, as the lease protocol
        // requires.
        self.pump_reclaim(now);
        let words = self.arena.words();
        let item = ItemRef { off };
        let total = item.total_words(words);
        let lease = item.lease(words);
        self.table.remove(
            hash,
            |o| o == off,
            |o| ItemRef { off: o }.stored_key_hash(words),
        );
        if let Some(list) = &mut self.ordered {
            list.remove(words, key);
        }
        item.kill(words);
        self.reclaim.push(off, total, lease.max(now));
        self.stats.deletes += 1;
        Ok(())
    }

    /// Frees every dead block whose lease has expired. The paper runs this on
    /// a background thread; a primary's server pumps it from a reclamation
    /// event, a secondary's applier before each record it applies. Returns
    /// blocks freed.
    pub fn pump_reclaim(&mut self, now: u64) -> usize {
        let arena = &mut self.arena;
        let n = self
            .reclaim
            .reclaim(now, |off, words| arena.free(off, words));
        self.stats.reclaimed_blocks += n as u64;
        // Ordered-view leaves that deletes unlinked ride the same epoch.
        if let Some(list) = &mut self.ordered {
            list.reclaim_retired();
        }
        n
    }

    /// Earliest pending reclamation deadline (when the next pump is due).
    ///
    /// Retired ordered-view leaves count as immediately-due work: a
    /// read-only workload would otherwise pin them forever (no put/delete
    /// ever runs the pump again).
    pub fn next_reclaim_at(&self) -> Option<u64> {
        if self.ordered.as_ref().is_some_and(|l| l.retired_bytes() > 0) {
            return Some(0);
        }
        self.reclaim.next_expiry()
    }

    /// Visits `(hash-agnostic) offsets` of all live items — used by failover
    /// migration to stream a partition to a new owner.
    pub fn for_each_item(&self, mut f: impl FnMut(Vec<u8>, Vec<u8>)) {
        let words = self.arena.words();
        self.table.for_each(|off| {
            let item = ItemRef { off };
            f(item.key(words), item.value(words));
        });
    }

    /// Ordered range scan from the first key `>= start`. `emit` receives
    /// each `(key, value)` in key order (the value staged in `scratch`) and
    /// returns `false` to stop — the server uses this to cap a scan quantum.
    /// Returns `true` when the keyspace was exhausted, `false` when `emit`
    /// stopped the walk (i.e. more items remain past the last emitted key).
    ///
    /// The walk runs over the ordered view's packed leaves and allocates
    /// nothing after warmup. The shard's first scan builds the view: the
    /// index's offsets, sorted by their items' keys in the arena, loaded in
    /// key order (`SkipList::build`).
    pub fn scan_into(
        &mut self,
        start: &[u8],
        scratch: &mut Vec<u8>,
        mut emit: impl FnMut(&[u8], &[u8]) -> bool,
    ) -> bool {
        self.stats.scans += 1;
        let words = self.arena.words();
        let list = self.ordered.get_or_insert_with(|| {
            let mut offs = Vec::with_capacity(self.table.len());
            self.table.for_each(|off| offs.push(leaf_slot(off)));
            SkipList::build(words, offs)
        });
        let stats = &mut self.stats;
        list.scan_from(words, start, |key, off| {
            stats.scan_items += 1;
            scratch.clear();
            ItemRef { off }.value_into(words, scratch);
            emit(key, scratch)
        })
    }
}

/// `u64::checked_shl` that saturates instead of wrapping.
trait SaturatingShl {
    fn saturating_shl(self, n: u32) -> u64;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, n: u32) -> u64 {
        self.checked_shl(n).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::{FetchedItem, ItemError};
    use crate::skiplist::LEAF_CAP;

    fn cfg_small(mode: WriteMode) -> EngineConfig {
        EngineConfig {
            arena_words: 4096,
            write_mode: mode,
            min_lease_ns: 1_000,
            max_lease_ns: 64_000,
            ..EngineConfig::default()
        }
    }

    fn rdma_fetch(engine: &ShardEngine, info: ItemInfo) -> Vec<u8> {
        // Simulate a one-sided read: copy read_len bytes from the arena.
        let words = engine.words();
        let mut blob = Vec::with_capacity(info.read_len as usize);
        for w in 0..(info.read_len as usize) / 8 {
            blob.extend_from_slice(
                &words[info.off_words as usize + w]
                    .load(std::sync::atomic::Ordering::Relaxed)
                    .to_le_bytes(),
            );
        }
        blob
    }

    #[test]
    fn insert_get_roundtrip() {
        let mut e = ShardEngine::new(cfg_small(WriteMode::Reliable));
        e.insert(0, b"k1", b"v1").unwrap();
        let got = e.get(10, b"k1").unwrap();
        assert_eq!(got.value, b"v1");
        assert!(got.info.lease_expiry > 10);
        assert_eq!(e.get(10, b"missing"), None);
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn reliable_insert_collision_fails() {
        let mut e = ShardEngine::new(cfg_small(WriteMode::Reliable));
        e.insert(0, b"k", b"v").unwrap();
        assert_eq!(e.insert(1, b"k", b"v2").unwrap_err(), EngineError::Exists);
        assert_eq!(e.get(2, b"k").unwrap().value, b"v");
    }

    #[test]
    fn cache_insert_upserts() {
        let mut e = ShardEngine::new(cfg_small(WriteMode::Cache));
        e.insert(0, b"k", b"v1").unwrap();
        e.insert(1, b"k", b"v2").unwrap();
        assert_eq!(e.get(2, b"k").unwrap().value, b"v2");
        assert_eq!(e.len(), 1);
    }

    #[test]
    fn update_is_out_of_place_and_kills_old_item() {
        let mut e = ShardEngine::new(cfg_small(WriteMode::Reliable));
        let i1 = e.insert(0, b"k", b"old-value").unwrap();
        let blob_before = rdma_fetch(&e, i1);
        assert!(FetchedItem::parse(&blob_before, b"k").is_ok());

        let i2 = e.update(5, b"k", b"new-value").unwrap();
        assert_ne!(i1.off_words, i2.off_words, "update must be out-of-place");
        // A stale remote pointer now observes a dead guardian.
        let blob_after = rdma_fetch(&e, i1);
        assert_eq!(
            FetchedItem::parse(&blob_after, b"k").unwrap_err(),
            ItemError::Stale
        );
        // The fresh pointer works.
        let blob_new = rdma_fetch(&e, i2);
        assert_eq!(
            FetchedItem::parse(&blob_new, b"k").unwrap().value,
            b"new-value"
        );
    }

    #[test]
    fn update_missing_key() {
        let mut e = ShardEngine::new(cfg_small(WriteMode::Reliable));
        assert_eq!(
            e.update(0, b"nope", b"v").unwrap_err(),
            EngineError::NotFound
        );
        let mut e = ShardEngine::new(cfg_small(WriteMode::Cache));
        e.update(0, b"nope", b"v").unwrap();
        assert_eq!(e.get(1, b"nope").unwrap().value, b"v");
    }

    #[test]
    fn delete_then_get_misses() {
        let mut e = ShardEngine::new(cfg_small(WriteMode::Reliable));
        let info = e.insert(0, b"k", b"v").unwrap();
        e.delete(1, b"k").unwrap();
        assert_eq!(e.get(2, b"k"), None);
        assert_eq!(e.delete(3, b"k").unwrap_err(), EngineError::NotFound);
        let blob = rdma_fetch(&e, info);
        assert_eq!(
            FetchedItem::parse(&blob, b"k").unwrap_err(),
            ItemError::Stale
        );
    }

    #[test]
    fn version_bumps_on_replace_and_is_deterministic_per_op_sequence() {
        let mut e = ShardEngine::new(cfg_small(WriteMode::Reliable));
        let i0 = e.insert(0, b"vk", b"v0").unwrap();
        assert_eq!(i0.version, 0);
        let i1 = e.update(1, b"vk", b"v1").unwrap();
        assert_eq!(i1.version, 1);
        let i2 = e.put(2, b"vk", b"v2").unwrap();
        assert_eq!(i2.version, 2);
        assert_eq!(e.get(3, b"vk").unwrap().info.version, 2);
        assert_eq!(e.peek(b"vk").unwrap().version, 2);
        // Delete + reinsert restarts at 0: the guardian flip (not the
        // version) is what invalidates pointers across a delete.
        e.delete(4, b"vk").unwrap();
        assert_eq!(e.insert(5, b"vk", b"v3").unwrap().version, 0);
        // A second engine fed the same per-key op sequence agrees — the
        // replica-export version match depends on this determinism.
        let mut r = ShardEngine::new(cfg_small(WriteMode::Reliable));
        r.put(0, b"vk", b"v0").unwrap();
        r.put(1, b"vk", b"v1").unwrap();
        r.put(2, b"vk", b"v2").unwrap();
        r.delete(3, b"vk").unwrap();
        r.put(4, b"vk", b"v3").unwrap();
        assert_eq!(r.peek(b"vk").unwrap().version, 0);
    }

    #[test]
    fn pin_lease_defers_reclaim_without_touching_popularity() {
        let mut e = ShardEngine::new(cfg_small(WriteMode::Reliable));
        e.insert(0, b"pin", b"v").unwrap();
        let pop_lease_before = e.get(10, b"pin").unwrap().info.lease_expiry;
        assert!(e.pin_lease(b"pin", 50_000));
        // pin_lease extends but never shortens; popularity (and thus the
        // server-granted term) is unchanged by the pin.
        let after = e.get(20, b"pin").unwrap().info;
        assert_eq!(after.lease_expiry, 50_000);
        assert!(pop_lease_before < 50_000);
        e.delete(100, b"pin").unwrap();
        assert_eq!(e.pump_reclaim(49_999), 0, "pinned lease must defer reuse");
        assert_eq!(e.pump_reclaim(50_000), 1);
        assert!(!e.pin_lease(b"pin", 60_000), "absent key: no pin");
    }

    #[test]
    fn memory_reuse_waits_for_lease_expiry() {
        let mut e = ShardEngine::new(cfg_small(WriteMode::Reliable));
        e.insert(0, b"k", b"v").unwrap();
        // GET at t=10 grants a lease (min 1000ns -> expiry 1010).
        let lease = e.get(10, b"k").unwrap().info.lease_expiry;
        assert_eq!(lease, 1_010);
        e.delete(20, b"k").unwrap();
        assert_eq!(e.reclaim_pending(), 1);
        assert_eq!(e.pump_reclaim(lease - 1), 0, "must not free during lease");
        assert_eq!(e.pump_reclaim(lease), 1, "frees once lease lapses");
        assert_eq!(e.stats().reclaimed_blocks, 1);
    }

    #[test]
    fn unleased_items_reclaim_immediately_after_now() {
        let mut e = ShardEngine::new(cfg_small(WriteMode::Reliable));
        e.insert(0, b"k", b"v").unwrap();
        e.delete(5, b"k").unwrap(); // never leased
        assert_eq!(e.pump_reclaim(5), 1);
    }

    #[test]
    fn lease_term_scales_with_popularity() {
        let mut e = ShardEngine::new(cfg_small(WriteMode::Reliable));
        e.insert(0, b"hot", b"v").unwrap();
        let first = e.get(0, b"hot").unwrap().info.lease_expiry;
        assert_eq!(first, 1_000, "popularity 1 -> min lease");
        for _ in 0..200 {
            e.get(0, b"hot").unwrap();
        }
        let later = e.get(0, b"hot").unwrap().info.lease_expiry;
        assert_eq!(later, 64_000, "popularity saturated -> max lease");
    }

    #[test]
    fn cache_mode_evicts_under_pressure() {
        let cfg = EngineConfig {
            arena_words: 512,
            write_mode: WriteMode::Cache,
            min_lease_ns: 0,
            max_lease_ns: 0,
            ..EngineConfig::default()
        };
        let mut e = ShardEngine::new(cfg);
        // Each item: 1 + 1 + 4 + 2 = 8 words; arena fits 64.
        for i in 0..200 {
            let key = format!("key{i:04}");
            e.insert(i, key.as_bytes(), &[0xAB; 32])
                .unwrap_or_else(|err| panic!("insert {i}: {err}"));
        }
        assert!(e.stats().evictions > 0, "evictions must have occurred");
        assert!(e.len() <= 64);
        // Recently inserted keys survive.
        assert!(e.get(1_000, b"key0199").is_some());
    }

    #[test]
    fn reliable_mode_oom_is_an_error() {
        let cfg = EngineConfig {
            arena_words: 64,
            write_mode: WriteMode::Reliable,
            min_lease_ns: 1_000,
            max_lease_ns: 64_000,
            ..EngineConfig::default()
        };
        let mut e = ShardEngine::new(cfg);
        let mut failed = false;
        for i in 0..100 {
            if e.insert(i, format!("k{i}").as_bytes(), &[0u8; 16]).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "reliable mode must surface OOM");
        assert!(e.stats().oom_events > 0);
    }

    #[test]
    fn clock_second_chance_protects_hot_items() {
        let cfg = EngineConfig {
            arena_words: 512,
            write_mode: WriteMode::Cache,
            min_lease_ns: 0,
            max_lease_ns: 0,
            ..EngineConfig::default()
        };
        let mut e = ShardEngine::new(cfg);
        e.insert(0, b"hot-key!", &[1; 32]).unwrap();
        for i in 0..500 {
            e.get(i, b"hot-key!"); // keeps the reference bit set
            let key = format!("cold{i:04}");
            let _ = e.insert(i, key.as_bytes(), &[0; 32]);
        }
        assert!(
            e.get(1_000, b"hot-key!").is_some(),
            "hot item must survive CLOCK sweeps"
        );
    }

    #[test]
    fn a_reliable_engine_keeps_no_clock_ring() {
        let mut e = ShardEngine::new(cfg_small(WriteMode::Reliable));
        for i in 0..50u64 {
            let k = format!("k{}", i % 10);
            let _ = e.insert(i, k.as_bytes(), b"v");
            e.update(i, k.as_bytes(), &[i as u8; 8]).unwrap();
            e.put(i, format!("p{i}").as_bytes(), b"v").unwrap();
        }
        assert_eq!(e.clock_len(), 0);
    }

    #[test]
    fn a_cache_clock_ring_stays_within_twice_the_items() {
        let cfg = EngineConfig {
            arena_words: 1 << 14,
            ..cfg_small(WriteMode::Cache)
        };
        let mut e = ShardEngine::new(cfg);
        let mut longest = 0;
        for i in 0..20_000u64 {
            let k = format!("key{:03}", i % 100);
            e.put(i, k.as_bytes(), &[i as u8; 16]).unwrap();
            e.pump_reclaim(i);
            longest = longest.max(e.clock_len());
        }
        assert_eq!(e.len(), 100);
        assert!(
            longest <= 200,
            "ring reached {longest} entries for 100 items"
        );
        assert_eq!(e.stats().evictions, 0);
    }

    #[test]
    fn arena_books_balance_through_churn_evictions_and_compaction() {
        for mode in [WriteMode::Reliable, WriteMode::Cache] {
            // The second arm keeps an ordered view from the first step on:
            // deletes and evictions unlink its leaves as well.
            for view in [false, true] {
                let mut e = ShardEngine::new(EngineConfig {
                    arena_words: 512,
                    write_mode: mode,
                    min_lease_ns: 100,
                    max_lease_ns: 6_400,
                    ..EngineConfig::default()
                });
                if view {
                    e.scan_into(b"", &mut Vec::new(), |_, _| false);
                }
                for i in 0..3_000u64 {
                    // Sizes from one to three size classes above the small
                    // ones, so class padding is in the books too.
                    let k = format!("b{:02}", (i * 7) % 60);
                    let v = vec![i as u8; 8 + (i % 5) as usize * 40];
                    match i % 6 {
                        0 => {
                            let _ = e.delete(i, k.as_bytes());
                        }
                        1 => {
                            let _ = e.get(i, k.as_bytes());
                        }
                        _ => {
                            let _ = e.put(i, k.as_bytes(), &v);
                        }
                    }
                    let books = e.arena_books();
                    assert!(books.balanced(), "{mode:?} {view} step {i}: {books:?}");
                }
                e.pump_reclaim(u64::MAX);
                assert_eq!(e.arena_books().retired, 0);
                assert!(e.arena_books().balanced());
                assert_eq!(e.ordered_stats().is_some(), view);
                assert_eq!(scan_all(&mut e, b""), sorted_dump(&e, b""));
                if mode == WriteMode::Cache {
                    assert!(e.stats().evictions > 0, "{view}: no eviction");
                } else {
                    assert!(e.stats().oom_events > 0, "{view}: arena never filled");
                }
            }
        }
    }

    #[test]
    fn popularity_survives_update() {
        let mut e = ShardEngine::new(cfg_small(WriteMode::Reliable));
        e.insert(0, b"k", b"v1").unwrap();
        for _ in 0..200 {
            e.get(0, b"k").unwrap();
        }
        e.update(1, b"k", b"v2").unwrap();
        // Popularity carried over -> still max lease.
        let lease = e.get(2, b"k").unwrap().info.lease_expiry;
        assert_eq!(lease, 64_002);
    }

    #[test]
    fn for_each_item_enumerates_live_state() {
        let mut e = ShardEngine::new(cfg_small(WriteMode::Reliable));
        e.insert(0, b"a", b"1").unwrap();
        e.insert(0, b"b", b"2").unwrap();
        e.insert(0, b"c", b"3").unwrap();
        e.delete(1, b"b").unwrap();
        let mut seen = Vec::new();
        e.for_each_item(|k, v| seen.push((k, v)));
        seen.sort();
        assert_eq!(
            seen,
            vec![
                (b"a".to_vec(), b"1".to_vec()),
                (b"c".to_vec(), b"3".to_vec())
            ]
        );
    }

    #[test]
    fn stats_count_operations() {
        let mut e = ShardEngine::new(cfg_small(WriteMode::Reliable));
        e.insert(0, b"k", b"v").unwrap();
        e.get(1, b"k").unwrap();
        e.get(1, b"missing");
        e.update(2, b"k", b"v2").unwrap();
        e.delete(3, b"k").unwrap();
        let s = e.stats();
        assert_eq!(s.inserts, 1);
        assert_eq!(s.gets, 2);
        assert_eq!(s.get_hits, 1);
        assert_eq!(s.updates, 1);
        assert_eq!(s.deletes, 1);
    }

    #[test]
    fn heavy_churn_with_reclamation_is_stable() {
        let cfg = EngineConfig {
            arena_words: 8192,
            write_mode: WriteMode::Reliable,
            min_lease_ns: 100,
            max_lease_ns: 6_400,
            ..EngineConfig::default()
        };
        let mut e = ShardEngine::new(cfg);
        for i in 0..64 {
            e.insert(0, format!("key{i:03}").as_bytes(), &[0; 24])
                .unwrap();
        }
        for round in 0u64..2_000 {
            let now = round * 10;
            let k = format!("key{:03}", round % 64);
            e.get(now, k.as_bytes()).unwrap();
            e.update(now, k.as_bytes(), &[round as u8; 24]).unwrap();
            e.pump_reclaim(now);
        }
        // All old versions eventually reclaimed.
        e.pump_reclaim(u64::MAX);
        assert_eq!(e.reclaim_pending(), 0);
        let a = e.arena_stats();
        assert_eq!(a.live_words, 64 * item_words(6, 24) as u64);
    }

    #[test]
    fn delete_only_workload_drains_reclaim_and_holds_no_drained_half() {
        // Regression: the reclamation epoch used to advance only from put
        // paths, so a delete-only phase accumulated expired blocks
        // unboundedly. The index grows under the load and holds one array
        // of the grown size through the deletes.
        let cfg = EngineConfig {
            arena_words: 1 << 16,
            write_mode: WriteMode::Reliable,
            min_lease_ns: 50,
            max_lease_ns: 3_200,
            ..EngineConfig::default()
        };
        let mut e = ShardEngine::new(cfg);
        for i in 0..2_000u64 {
            e.insert(i, format!("dk{i:05}").as_bytes(), &[7; 16])
                .unwrap();
        }
        let grown = e.table_stats().resizes;
        assert!(grown >= 2, "load must grow the index");
        assert_eq!(e.index_mem_bytes(), 4096 << grown);
        // Deletes only from here on; leases are short, so blocks keep
        // coming due as virtual time advances.
        let mut peak_pending = 0;
        for i in 0..2_000u64 {
            let now = 1_000_000 + i * 100; // far past every grant
            e.delete(now, format!("dk{i:05}").as_bytes()).unwrap();
            peak_pending = peak_pending.max(e.reclaim_pending());
            assert_eq!(e.index_mem_bytes(), 4096 << grown, "after {i} deletes");
        }
        assert!(
            peak_pending <= 2,
            "delete-only loop must not grow the reclaim queue: {peak_pending}"
        );
        assert!(e.stats().reclaimed_blocks >= 1_999);
    }

    #[test]
    fn a_grown_index_holds_one_array_with_nothing_due() {
        // An engine starts its packed index at one page, however many items
        // it expects. Each doubling rebuilds the index in the insert that
        // crosses its ceiling: after every insert the index holds one array
        // of `4096 << doublings` bytes, every key stays found, and no
        // reclamation pump is due, so a read-only phase after an insert-only
        // load pins nothing and arms nothing.
        let cfg = EngineConfig {
            arena_words: 1 << 16,
            write_mode: WriteMode::Reliable,
            min_lease_ns: 50,
            max_lease_ns: 3_200,
            ..EngineConfig::default()
        };
        let mut e = ShardEngine::new(cfg);
        assert_eq!(e.index_mem_bytes(), 4096, "one page before any insert");
        let mut scratch = Vec::new();
        let mut i = 0u64;
        let mut doublings = 0;
        while doublings < 3 {
            e.insert(i, format!("ro{i:05}").as_bytes(), &[9; 16])
                .unwrap();
            i += 1;
            assert_eq!(e.index_mem_bytes(), 4096 << e.table_stats().resizes);
            if e.table_stats().resizes > doublings {
                doublings = e.table_stats().resizes;
                for j in 0..i {
                    let key = format!("ro{j:05}");
                    assert!(e.get_into(i, key.as_bytes(), &mut scratch).is_some());
                }
                assert_eq!(e.next_reclaim_at(), None, "after {i} inserts");
            }
        }
        e.get_into(i, b"ro00000", &mut scratch).unwrap();
        assert_eq!(e.index_mem_bytes(), 4096 << 3);
        assert_eq!(e.next_reclaim_at(), None);
    }

    #[test]
    fn item_addresses_are_stable_across_index_resizes() {
        // The address-stability contract behind client-cached remote
        // pointers: a rebuild moves index *entries*, never items.
        let cfg = EngineConfig {
            arena_words: 1 << 16,
            write_mode: WriteMode::Reliable,
            min_lease_ns: 1_000,
            max_lease_ns: 64_000,
            ..EngineConfig::default()
        };
        let mut e = ShardEngine::new(cfg);
        let info = e.insert(0, b"pinned-key", b"pinned-value!!").unwrap();
        // Force multiple rebuilds with unrelated inserts.
        for i in 0..2_000u64 {
            e.insert(i, format!("fill{i:05}").as_bytes(), &[0; 8])
                .unwrap();
        }
        assert!(e.table_stats().resizes >= 2, "resizes must have happened");
        // The cached offset still serves a valid one-sided read...
        let blob = rdma_fetch(&e, info);
        let f = FetchedItem::parse(&blob, b"pinned-key").unwrap();
        assert_eq!(f.value, b"pinned-value!!");
        // ...and the index agrees the item never moved.
        let got = e.get(10, b"pinned-key").unwrap();
        assert_eq!(got.info.off_words, info.off_words);
    }

    /// Every live item, sorted by key, from `start` on: the reference an
    /// ordered scan must equal.
    fn sorted_dump(e: &ShardEngine, start: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut items = Vec::new();
        e.for_each_item(|k, v| items.push((k, v)));
        items.sort();
        items.retain(|(k, _)| k.as_slice() >= start);
        items
    }

    fn scan_all(e: &mut ShardEngine, start: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        let mut scratch = Vec::new();
        let exhausted = e.scan_into(start, &mut scratch, |k, v| {
            out.push((k.to_vec(), v.to_vec()));
            true
        });
        assert!(exhausted);
        out
    }

    fn engine_of(mode: WriteMode, arena_words: usize) -> ShardEngine {
        ShardEngine::new(EngineConfig {
            arena_words,
            write_mode: mode,
            min_lease_ns: 1_000,
            max_lease_ns: 64_000,
            ..EngineConfig::default()
        })
    }

    #[test]
    fn engines_agree_across_index_kinds() {
        // Cheap smoke (the full randomized model check lives in
        // tests/tests/index_equivalence.rs): drive the same script through an
        // engine without an ordered view and one with a view built before the
        // script (so every mutation keeps it), and compare observable
        // results.
        let mut engines: Vec<(ShardEngine, bool)> = [false, true]
            .map(|view| (engine_of(WriteMode::Reliable, 1 << 14), view))
            .into();
        for (e, view) in &mut engines {
            if *view {
                assert!(scan_all(e, b"").is_empty());
            }
        }
        for i in 0..600u64 {
            let k = format!("ek{}", i % 200);
            for (e, _) in &mut engines {
                match i % 4 {
                    0 => {
                        let _ = e.insert(i, k.as_bytes(), &[i as u8; 12]);
                    }
                    1 => {
                        let _ = e.update(i, k.as_bytes(), &[i as u8; 20]);
                    }
                    2 => {
                        let _ = e.delete(i, k.as_bytes());
                    }
                    _ => {}
                }
            }
            let gets: Vec<Option<Vec<u8>>> = engines
                .iter_mut()
                .map(|(e, _)| e.get(i, k.as_bytes()).map(|g| g.value))
                .collect();
            assert!(gets.iter().all(|g| *g == gets[0]), "step {i}: {gets:?}");
        }
        let want = sorted_dump(&engines[0].0, b"");
        for (e, view) in &mut engines {
            assert_eq!(e.len(), want.len());
            assert_eq!(e.ordered_stats().is_some(), *view);
            assert_eq!(scan_all(e, b""), want);
        }
    }

    #[test]
    fn hybrid_scan_matches_emulated_scan_and_mutations() {
        // Scans equal the sorted dump of the shard's items, at the build and
        // after mutations the view has kept up with.
        let mut e = engine_of(WriteMode::Reliable, 1 << 14);
        let churn = |e: &mut ShardEngine, from: u64| {
            for i in from..from + 400 {
                let k = format!("sk{:04}", (i * 37) % 256);
                match i % 5 {
                    0..=2 => {
                        let _ = e.put(i, k.as_bytes(), &[i as u8; 10]);
                    }
                    3 => {
                        let _ = e.delete(i, k.as_bytes());
                    }
                    _ => {
                        e.pump_reclaim(i);
                    }
                }
            }
        };
        churn(&mut e, 0);
        assert_eq!(e.ordered_stats(), None);
        for round in 0..2 {
            // Full-keyspace and mid-keyspace scans agree exactly.
            for start in [b"".as_slice(), b"sk0100", b"sk0255x", b"zzz"] {
                assert_eq!(scan_all(&mut e, start), sorted_dump(&e, start));
            }
            // Early stop reports "more remain".
            let mut n = 0;
            assert!(!e.scan_into(b"", &mut Vec::new(), |_, _| {
                n += 1;
                n < 3
            }));
            if round == 0 {
                churn(&mut e, 400);
            }
        }
        assert!(e.stats().scans >= 10 && e.stats().scan_items > 0);
    }

    #[test]
    fn the_ordered_view_tracks_the_index_from_its_build_on() {
        let mut t = engine_of(WriteMode::Reliable, 1 << 14);
        let mut plain = engine_of(WriteMode::Reliable, 1 << 14);
        // Inserted in scrambled order so key order is the build's doing.
        let keys: Vec<Vec<u8>> = (0..300)
            .map(|i| format!("hy-{:04}", i * 7 % 300).into_bytes())
            .collect();
        for e in [&mut t, &mut plain] {
            for k in &keys {
                e.insert(0, k, b"v0").unwrap();
            }
            // Mutations before the build touch the index alone; the build
            // sees their outcome.
            e.update(1, &keys[3], b"v1").unwrap();
            e.delete(1, &keys[5]).unwrap();
        }
        // No ordered read yet: no view, and the index is all the memory
        // there is.
        assert_eq!(t.ordered_stats(), None);
        assert_eq!(t.index_mem_bytes(), plain.index_mem_bytes());
        assert_eq!(t.next_reclaim_at(), plain.next_reclaim_at());
        // The first ordered read built it: every live key, in full leaves.
        let all = scan_all(&mut t, b"");
        assert_eq!(all, sorted_dump(&t, b""));
        let built = t.ordered_stats().expect("built by the ordered read");
        assert_eq!(built.len, 299);
        assert_eq!(built.leaves, 299u64.div_ceil(LEAF_CAP as u64));
        assert!(t.index_mem_bytes() > plain.index_mem_bytes());
        // The view points where the index points.
        let view = |t: &mut ShardEngine, k: &[u8]| {
            let words = t.arena.words();
            t.ordered.as_mut().expect("built").get(words, k)
        };
        for k in keys.iter().filter(|k| **k != keys[5]) {
            let off = t.peek(k).expect("live").off_words;
            assert_eq!(view(&mut t, k), Some(off));
        }
        assert_eq!(view(&mut t, &keys[5]), None);
        // An update moves both; a delete drops both.
        let moved = t.update(2, &keys[7], b"v2").unwrap().off_words;
        assert_eq!(view(&mut t, &keys[7]), Some(moved));
        t.delete(3, &keys[7]).unwrap();
        assert_eq!(t.len(), 298);
        assert_eq!(t.ordered_stats().expect("built").len, 298);
        assert_eq!(view(&mut t, &keys[7]), None);
        // Only a leaf a delete empties is parked.
        assert_eq!(t.ordered_stats().expect("built").retired_nodes, 0);
        // Inserts after the build reach the view.
        let off = t.insert(4, b"hy-0150a", b"v3").unwrap().off_words;
        assert_eq!(view(&mut t, b"hy-0150a"), Some(off));
        assert_eq!(t.ordered_stats().expect("built").len, 299);
        // Deleting the smallest keys, two leaves' worth, empties the leaf
        // behind the head: it is parked, due at once, and one pump frees it.
        let smallest: Vec<Vec<u8>> = all
            .iter()
            .take(2 * LEAF_CAP)
            .map(|(k, _)| k.clone())
            .collect();
        t.pump_reclaim(u64::MAX);
        for k in &smallest {
            t.delete(5, k).unwrap();
        }
        assert!(t.ordered_stats().expect("built").retired_nodes > 0);
        assert_eq!(t.next_reclaim_at(), Some(0));
        t.pump_reclaim(u64::MAX);
        assert_eq!(t.ordered_stats().expect("built").retired_nodes, 0);
        assert_eq!(t.next_reclaim_at(), None);
        assert_eq!(scan_all(&mut t, b""), sorted_dump(&t, b""));
    }

    #[test]
    fn every_index_kind_scans_through_its_ordered_view() {
        let mut e = engine_of(WriteMode::Reliable, 1 << 10);
        e.insert(0, b"via-b", b"2").unwrap();
        e.insert(0, b"via-a", b"1").unwrap();
        assert!(e.get(1, b"via-a").is_some());
        // Writes and point reads build no view.
        assert!(e.ordered.is_none());
        assert_eq!(
            scan_all(&mut e, b""),
            [
                (b"via-a".to_vec(), b"1".to_vec()),
                (b"via-b".to_vec(), b"2".to_vec())
            ]
        );
        assert_eq!(e.ordered_stats().expect("built").len, 2);
    }

    #[test]
    fn a_write_whose_old_item_the_sweep_evicts_lands_as_its_first_item() {
        // The key written first sits at the CLOCK ring's front, unreferenced:
        // once the arena is full, the allocation for its next write evicts
        // it. Before that case was handled the write "replaced" an entry no
        // longer in the index: the key vanished and the block was queued for
        // reclamation twice.
        let mut e = engine_of(WriteMode::Cache, 64);
        e.put(0, b"A", &[1; 16]).unwrap();
        let mut i = 0;
        while e.arena_stats().headroom_words >= item_words(1, 16) as u64 {
            e.put(0, format!("k{i}").as_bytes(), &[2; 16]).unwrap();
            i += 1;
        }
        assert_eq!(e.stats().evictions, 0);
        let info = e.put(1, b"A", &[3; 16]).unwrap();
        assert_eq!(e.stats().evictions, 1);
        assert_eq!(info.version, 0, "a first item");
        assert_eq!(e.get(2, b"A").unwrap().value, [3; 16]);
        e.pump_reclaim(u64::MAX);
        assert!(e.arena_books().balanced(), "{:?}", e.arena_books());
    }

    #[test]
    fn a_cache_evicts_from_its_ordered_view() {
        // In cache mode, on an arena that fills: after the view exists the
        // CLOCK sweep unlinks its victims from the view too, and every scan
        // equals the items the index still holds.
        let mut e = engine_of(WriteMode::Cache, 1 << 10);
        for i in 0..400u64 {
            if i == 40 {
                assert_eq!(e.stats().evictions, 0, "evicted before the view");
                scan_all(&mut e, b"");
            }
            let k = format!("ev{:04}", i * 7919 % 400);
            e.put(i, k.as_bytes(), &[i as u8; 24]).unwrap();
            if i % 3 == 0 {
                e.get(i, format!("ev{:04}", i * 31 % 400).as_bytes());
            }
            if i % 16 == 0 {
                assert_eq!(scan_all(&mut e, b"ev0200"), sorted_dump(&e, b"ev0200"));
            }
        }
        assert!(e.stats().evictions > 100, "{:?}", e.stats());
        assert_eq!(e.ordered_stats().expect("built").len, e.len() as u64);
        assert_eq!(scan_all(&mut e, b""), sorted_dump(&e, b""));
    }
}

//! Packed-leaf skiplist: the shard's ordered view (§11).
//!
//! HydraDB's hash index answers point ops in one SWAR probe but cannot
//! enumerate keys in order, so range scans would need a full-keyspace sort.
//! [`SkipList`] adds the ordered dimension. Its level 0 is a chain of
//! *packed leaves*: a node is one 64-byte tower (`Tower`) plus one 64-byte
//! leaf (`Leaf`) holding up to [`LEAF_CAP`] arena offsets in key order, so
//! a range walk pays one dependent load per leaf instead of several per
//! item, and the item lines of a leaf — whose addresses all sit in that one
//! line — are fetched together. A leaf covers the keys from its *separator*
//! (the key it was split at, interned into a chain of size-classed [`Arena`]
//! slabs) up to the next leaf's; the keys themselves are not copied: the
//! arena item already stores its key behind the header, and leaves are
//! searched and presented through it. The towers above level 0 route by
//! separator exactly as a skiplist routes by key. A full leaf splits, an
//! emptied one is unlinked and parked on a retired list drained by the
//! engine's reclamation pump — the single writer unlinks, readers of a stale
//! snapshot finish their walk, reclaim frees.
//!
//! The list is a view beside the shard's hash index, not an index kind: a
//! `ShardEngine` builds one at its first ordered read with
//! [`SkipList::build`] (its items sorted in place by their arena keys, then
//! loaded in key order) and from then on its own mutation sites keep it
//! current. Ordered iteration walks the leaves, presenting each key through
//! a reused scratch buffer so steady-state scans allocate nothing.

use std::cmp::Ordering as CmpOrdering;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::arena::{size_class, Arena};
use crate::hash_key;
use crate::item::{cmp_packed, ItemRef};

/// Maximum tower height. With p = 1/4 this comfortably indexes 4^12 ≈ 16M
/// leaves per shard — far above any per-shard sizing in the repo.
pub const SKIP_MAX_HEIGHT: usize = 12;

/// Offset slots in a leaf: 14 × 4 B beside the 8-byte count fill the line.
const LEAF_SLOTS: usize = 14;

/// Items a leaf holds before it splits. Unit tests run on tiny leaves so
/// every structural case (split, emptied leaf, boundary keys) is crossed by
/// a few dozen keys.
pub const LEAF_CAP: usize = if cfg!(test) { 4 } else { LEAF_SLOTS };

/// Null link.
const NIL: u32 = u32::MAX;

/// Initial key-slab capacity in words; slabs double up to [`MAX_SLAB_WORDS`].
const MIN_SLAB_WORDS: u32 = 1 << 10;
/// Largest single slab (2^22 words = 32 MiB); also bounds the offset field of
/// the packed `sep_off` encoding (slab index in the top 8 bits).
const MAX_SLAB_WORDS: u32 = 1 << 22;
const SLAB_OFF_BITS: u32 = 24;
const SLAB_OFF_MASK: u32 = (1 << SLAB_OFF_BITS) - 1;

/// The routing half of a node: exactly one aligned cache line, so a descent
/// touches one line per node visited and tall-tower traversal never splits a
/// node across lines. Layout (64 B): separator ref (4+2), height+pad (2+8),
/// and the full 12-level link array (48).
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Tower {
    /// Packed interned-separator reference: `slab_idx << 24 | word_offset`.
    sep_off: u32,
    /// Separator length in bytes (0 on the head, whose separator is the
    /// empty key: it covers everything below the first split).
    sep_len: u16,
    /// Number of live levels in `next` (1..=SKIP_MAX_HEIGHT).
    height: u8,
    _pad: [u8; 9],
    /// Forward links; `NIL` terminates a level.
    next: [u32; SKIP_MAX_HEIGHT],
}

/// The ordered half of a node: the arena word offsets of the items whose keys
/// fall in `[separator, next separator)`, sorted by key. One aligned cache
/// line; offsets are 32-bit, which addresses 32 GiB of arena per shard.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Leaf {
    offs: [u32; LEAF_SLOTS],
    len: u8,
    _pad: [u8; 7],
}

/// Tower and leaf side by side, aligned as a pair: the two lines a range
/// walk needs of a node are the two halves of one 128-byte block.
#[repr(C, align(128))]
#[derive(Clone, Copy)]
struct Node {
    tower: Tower,
    leaf: Leaf,
}

const _: () = assert!(std::mem::size_of::<Tower>() == 64);
const _: () = assert!(std::mem::align_of::<Tower>() == 64);
const _: () = assert!(std::mem::size_of::<Leaf>() == 64);
const _: () = assert!(std::mem::align_of::<Leaf>() == 64);
const _: () = assert!(LEAF_CAP >= 2 && LEAF_CAP <= LEAF_SLOTS);

impl Node {
    fn empty() -> Node {
        Node {
            tower: Tower {
                sep_off: 0,
                sep_len: 0,
                height: SKIP_MAX_HEIGHT as u8,
                _pad: [0; 9],
                next: [NIL; SKIP_MAX_HEIGHT],
            },
            leaf: Leaf {
                offs: [0; LEAF_SLOTS],
                len: 0,
                _pad: [0; 7],
            },
        }
    }
}

impl Leaf {
    fn items(&self) -> &[u32] {
        &self.offs[..self.len as usize]
    }

    fn insert(&mut self, pos: usize, off: u32) {
        let len = self.len as usize;
        self.offs.copy_within(pos..len, pos + 1);
        self.offs[pos] = off;
        self.len += 1;
    }

    fn remove(&mut self, pos: usize) -> u32 {
        let off = self.offs[pos];
        self.offs.copy_within(pos + 1..self.len as usize, pos);
        self.len -= 1;
        off
    }
}

/// An arena word offset as a leaf stores it.
pub(crate) fn leaf_slot(off: u64) -> u32 {
    u32::try_from(off).expect("ordered index addresses 2^32 arena words")
}

/// Statistics of a shard's ordered view.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SkipListStats {
    /// Live entries.
    pub len: u64,
    /// Linked leaves (the head included).
    pub leaves: u64,
    /// Nodes parked on the retired list awaiting reclaim.
    pub retired_nodes: u64,
    /// Key-slab segments allocated so far.
    pub slabs: u64,
    /// Total comparisons performed by descents and leaf searches.
    pub cmps: u64,
}

/// Single-writer ordered map from byte keys to arena word offsets. The keys
/// live in the arena items the offsets point at, so every operation takes the
/// arena's word slice. See the module docs for the design.
pub struct SkipList {
    /// Node 0 is the head: full height, empty separator, never unlinked.
    nodes: Vec<Node>,
    /// Recycled node indices (from reclaimed leaves).
    free: Vec<u32>,
    /// Unlinked nodes whose separator is still interned; drained by
    /// [`reclaim_retired`](Self::reclaim_retired).
    retired: Vec<u32>,
    retired_bytes: usize,
    /// Size-classed separator slabs; geometrically grown, never shrunk.
    slabs: Vec<Arena>,
    len: u64,
    leaves: u64,
    cmps: u64,
    /// Key presentation buffer, reused across scans and splits (zero-alloc
    /// steady state).
    key_buf: Vec<u8>,
}

impl Default for SkipList {
    fn default() -> Self {
        Self::new()
    }
}

impl SkipList {
    /// Creates an empty skiplist (head node only; no key slab yet).
    pub fn new() -> SkipList {
        SkipList {
            nodes: vec![Node::empty()],
            free: Vec::new(),
            retired: Vec::new(),
            retired_bytes: 0,
            slabs: Vec::new(),
            len: 0,
            leaves: 1,
            cmps: 0,
            key_buf: Vec::new(),
        }
    }

    /// A list of the items at `offs`, one entry each: sorted in place by
    /// their keys, compared word by word in the arena, then upserted in key
    /// order — each one an append, which leaves every leaf but the last
    /// full.
    pub fn build(words: &[AtomicU64], mut offs: Vec<u32>) -> SkipList {
        offs.sort_unstable_by(|&a, &b| {
            ItemRef { off: a as u64 }.key_cmp_item(words, ItemRef { off: b as u64 })
        });
        let mut list = SkipList::new();
        list.nodes.reserve(offs.len() / LEAF_CAP);
        let mut key = Vec::new();
        for off in offs {
            ItemRef { off: off as u64 }.key_into(words, &mut key);
            list.upsert(words, &key, off as u64);
        }
        list
    }

    /// Live entries.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the list is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Deterministic tower height: count trailing zero bit-pairs of a remix
    /// of the separator's hash (p = 1/4 per extra level). No RNG state, so
    /// twin engines fed identical ops build identical structures.
    fn height_for(hash: u64) -> u8 {
        let mut x = hash.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
        let mut h = 1u8;
        while (h as usize) < SKIP_MAX_HEIGHT && x & 3 == 0 {
            h += 1;
            x >>= 2;
        }
        h
    }

    // ---- separator interning ------------------------------------------

    /// Interns `key` into the slab chain, growing it if every slab is full.
    fn intern_key(&mut self, key: &[u8]) -> u32 {
        let words = key.len().div_ceil(8).max(1) as u32;
        if let Some((idx, off)) = self.try_alloc_key(words) {
            self.store_key(idx, off, key);
            return pack_key_off(idx, off);
        }
        // Grow: next slab doubles the last one's capacity (clamped), and is
        // always big enough for the request.
        let next_cap = self
            .slabs
            .last()
            .map(|s| (s.capacity_words() as u32).saturating_mul(2))
            .unwrap_or(MIN_SLAB_WORDS)
            .clamp(MIN_SLAB_WORDS, MAX_SLAB_WORDS)
            .max(size_class(words));
        assert!(
            self.slabs.len() < (1 << (32 - SLAB_OFF_BITS)),
            "skiplist key-slab chain exhausted"
        );
        self.slabs.push(Arena::new(next_cap as usize));
        let idx = self.slabs.len() - 1;
        let off = self.slabs[idx]
            .alloc(words)
            .expect("fresh slab sized for request");
        self.store_key(idx, off as u32, key);
        pack_key_off(idx, off as u32)
    }

    /// Tries the newest slab first (older ones are usually full), then any
    /// older slab whose free lists can still serve the class.
    fn try_alloc_key(&mut self, words: u32) -> Option<(usize, u32)> {
        for idx in (0..self.slabs.len()).rev() {
            if let Some(off) = self.slabs[idx].alloc(words) {
                return Some((idx, off as u32));
            }
        }
        None
    }

    fn store_key(&mut self, slab: usize, off: u32, key: &[u8]) {
        debug_assert!(off <= SLAB_OFF_MASK);
        let words = self.slabs[slab].words();
        for (i, chunk) in key.chunks(8).enumerate() {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            words[off as usize + i].store(u64::from_le_bytes(w), Ordering::Relaxed);
        }
    }

    fn free_key(&mut self, key_off: u32, key_len: u16) {
        let (slab, off) = unpack_key_off(key_off);
        let words = (key_len as usize).div_ceil(8).max(1) as u32;
        self.slabs[slab].free(off as u64, words);
    }

    /// Lexicographic comparison of an interned separator against `probe`
    /// (no staging buffer, no allocation). The head's empty separator has
    /// no slab behind it.
    fn cmp_sep(&self, t: &Tower, probe: &[u8]) -> CmpOrdering {
        if t.sep_len == 0 {
            return 0.cmp(&probe.len());
        }
        let (slab, off) = unpack_key_off(t.sep_off);
        cmp_packed(
            self.slabs[slab].words(),
            off as usize,
            t.sep_len as usize,
            probe,
        )
    }

    // ---- core walks ---------------------------------------------------

    /// Walks down from the head to the node covering `key` — the rightmost
    /// one whose separator is `<= key` — recording the rightmost such node
    /// at every level. The walk never steps onto `stop`: with `stop` the
    /// covering node itself, `update` holds its predecessors instead, which
    /// is what unlinking it needs.
    fn descend(&mut self, key: &[u8], stop: u32, update: &mut [u32; SKIP_MAX_HEIGHT]) -> u32 {
        let mut x = 0u32;
        for lvl in (0..SKIP_MAX_HEIGHT).rev() {
            loop {
                let nxt = self.nodes[x as usize].tower.next[lvl];
                if nxt == NIL || nxt == stop {
                    break;
                }
                self.cmps += 1;
                if self.cmp_sep(&self.nodes[nxt as usize].tower, key) == CmpOrdering::Greater {
                    break;
                }
                x = nxt;
            }
            update[lvl] = x;
        }
        x
    }

    /// Binary search of `node`'s leaf through the arena items: `Ok(i)` when
    /// slot `i` holds `key`, `Err(i)` with its insertion point otherwise.
    fn search(&mut self, words: &[AtomicU64], node: u32, key: &[u8]) -> Result<usize, usize> {
        let mut cmps = 0;
        let found = self.nodes[node as usize]
            .leaf
            .items()
            .binary_search_by(|&off| {
                cmps += 1;
                ItemRef { off: off as u64 }.key_cmp(words, key)
            });
        self.cmps += cmps;
        found
    }

    /// Point lookup (used by tests; the engine answers point ops through
    /// its hash index).
    pub fn get(&mut self, words: &[AtomicU64], key: &[u8]) -> Option<u64> {
        let node = self.descend(key, NIL, &mut [0; SKIP_MAX_HEIGHT]);
        let pos = self.search(words, node, key).ok()?;
        Some(self.nodes[node as usize].leaf.offs[pos] as u64)
    }

    /// Inserts `key → val_off`, or replaces the value offset when the key is
    /// already present. Returns the previous offset, if any. The item at
    /// `val_off` must already hold `key`.
    pub fn upsert(&mut self, words: &[AtomicU64], key: &[u8], val_off: u64) -> Option<u64> {
        let off = leaf_slot(val_off);
        let mut update = [0u32; SKIP_MAX_HEIGHT];
        let node = self.descend(key, NIL, &mut update);
        match self.search(words, node, key) {
            Ok(pos) => Some(self.swap_slot(node, pos, off)),
            Err(pos) => {
                if self.nodes[node as usize].leaf.len as usize == LEAF_CAP {
                    self.split_insert(words, node, pos, off, &update);
                } else {
                    self.nodes[node as usize].leaf.insert(pos, off);
                }
                self.len += 1;
                None
            }
        }
    }

    /// Inserts `off` at `pos` of the full leaf `node` by splitting it: the
    /// upper half moves to a fresh node linked right behind, whose separator
    /// is its first key. An append opens the fresh leaf with the new item
    /// alone instead, so key-ordered loads leave full leaves behind.
    /// `update` is the descent's record for the inserted key; no separator
    /// lies between `node`'s and the new one, so it names the new node's
    /// predecessors too.
    fn split_insert(
        &mut self,
        words: &[AtomicU64],
        node: u32,
        pos: usize,
        off: u32,
        update: &[u32; SKIP_MAX_HEIGHT],
    ) {
        let at = if pos == LEAF_CAP { pos } else { LEAF_CAP / 2 };
        let fresh = self.alloc_node();
        let mut right = Node::empty().leaf;
        let left = &mut self.nodes[node as usize].leaf;
        right.offs[..LEAF_CAP - at].copy_from_slice(&left.offs[at..LEAF_CAP]);
        right.len = (LEAF_CAP - at) as u8;
        left.len = at as u8;
        if pos < at {
            left.insert(pos, off);
        } else {
            right.insert(pos - at, off);
        }
        let mut sep = std::mem::take(&mut self.key_buf);
        ItemRef {
            off: right.offs[0] as u64,
        }
        .key_into(words, &mut sep);
        let height = Self::height_for(hash_key(&sep));
        let sep_off = self.intern_key(&sep);
        let mut tower = Tower {
            sep_off,
            sep_len: sep.len() as u16,
            height,
            ..Node::empty().tower
        };
        self.key_buf = sep;
        for (lvl, &pred) in update.iter().enumerate().take(height as usize) {
            let link = &mut self.nodes[pred as usize].tower.next[lvl];
            tower.next[lvl] = std::mem::replace(link, fresh);
        }
        self.nodes[fresh as usize] = Node { tower, leaf: right };
        self.leaves += 1;
    }

    /// Replaces the value offset of an existing key. Returns the old offset,
    /// or `None` when absent (no structural change either way).
    pub fn set(&mut self, words: &[AtomicU64], key: &[u8], new_off: u64) -> Option<u64> {
        let node = self.descend(key, NIL, &mut [0; SKIP_MAX_HEIGHT]);
        let pos = self.search(words, node, key).ok()?;
        Some(self.swap_slot(node, pos, leaf_slot(new_off)))
    }

    /// Points slot `pos` of `node`'s leaf at `off`; returns what it held.
    fn swap_slot(&mut self, node: u32, pos: usize, off: u32) -> u64 {
        std::mem::replace(&mut self.nodes[node as usize].leaf.offs[pos], off) as u64
    }

    /// Removes `key` from its leaf and returns the removed value offset. A
    /// leaf left empty is unlinked and parked on the retired list (its
    /// separator stays interned until
    /// [`reclaim_retired`](Self::reclaim_retired)); the head stays.
    pub fn remove(&mut self, words: &[AtomicU64], key: &[u8]) -> Option<u64> {
        let mut update = [0u32; SKIP_MAX_HEIGHT];
        let node = self.descend(key, NIL, &mut update);
        let pos = self.search(words, node, key).ok()?;
        let old = self.nodes[node as usize].leaf.remove(pos);
        self.len -= 1;
        if node != 0 && self.nodes[node as usize].leaf.len == 0 {
            // Second descent, stopping short of the node: its predecessors.
            self.descend(key, node, &mut update);
            let t = self.nodes[node as usize].tower;
            for (lvl, &pred) in update.iter().enumerate().take(t.height as usize) {
                debug_assert_eq!(self.nodes[pred as usize].tower.next[lvl], node);
                self.nodes[pred as usize].tower.next[lvl] = t.next[lvl];
            }
            self.leaves -= 1;
            self.retired.push(node);
            self.retired_bytes += Self::node_footprint(t.sep_len);
        }
        Some(old as u64)
    }

    fn node_footprint(sep_len: u16) -> usize {
        let key_words = (sep_len as usize).div_ceil(8).max(1) as u32;
        std::mem::size_of::<Node>() + size_class(key_words) as usize * 8
    }

    fn alloc_node(&mut self) -> u32 {
        if let Some(idx) = self.free.pop() {
            return idx;
        }
        let idx = self.nodes.len() as u32;
        assert!(idx < NIL, "skiplist node space exhausted");
        self.nodes.push(Node::empty());
        idx
    }

    /// Bytes parked on the retired list (nodes + interned separators).
    #[inline]
    pub fn retired_bytes(&self) -> usize {
        self.retired_bytes
    }

    /// Frees the interned separators of retired nodes and recycles the
    /// nodes. Returns the number of nodes reclaimed.
    pub fn reclaim_retired(&mut self) -> usize {
        let n = self.retired.len();
        while let Some(idx) = self.retired.pop() {
            let t = self.nodes[idx as usize].tower;
            self.free_key(t.sep_off, t.sep_len);
            self.free.push(idx);
        }
        self.retired_bytes = 0;
        n
    }

    /// Resident bytes: node storage plus separator slabs.
    pub fn mem_bytes(&self) -> usize {
        let nodes = self.nodes.capacity() * std::mem::size_of::<Node>();
        let slabs: u64 = self.slabs.iter().map(|s| s.capacity_words() * 8).sum();
        nodes + slabs as usize
    }

    /// Point-in-time statistics.
    pub fn stats(&self) -> SkipListStats {
        SkipListStats {
            len: self.len,
            leaves: self.leaves,
            retired_nodes: self.retired.len() as u64,
            slabs: self.slabs.len() as u64,
            cmps: self.cmps,
        }
    }

    /// Ordered iteration from the first key `>= start`. `f` receives each
    /// `(key, value_offset)` and returns `false` to stop early. Returns
    /// `true` when the walk ran off the end of the list (nothing left to
    /// scan), `false` when `f` stopped it — the "more items remain" signal
    /// behind the wire continuation token.
    ///
    /// Each leaf is walked in two passes, like `PackedTable::lookup_batch`:
    /// first touch the next node and the header line of every item the leaf
    /// still has to present — independent loads whose misses overlap — then
    /// present them in order. The key is read from the item into an internal
    /// scratch buffer that is reused across calls: after one warmup scan,
    /// this path allocates nothing.
    pub fn scan_from(
        &mut self,
        words: &[AtomicU64],
        start: &[u8],
        mut f: impl FnMut(&[u8], u64) -> bool,
    ) -> bool {
        let mut node = self.descend(start, NIL, &mut [0; SKIP_MAX_HEIGHT]);
        let mut pos = self.search(words, node, start).unwrap_or_else(|at| at);
        let mut key = std::mem::take(&mut self.key_buf);
        let mut exhausted = true;
        'walk: while node != NIL {
            let Node { tower, leaf } = self.nodes[node as usize];
            let next = tower.next[0];
            if next != NIL {
                let ahead = &self.nodes[next as usize];
                black_box((ahead.tower.height, ahead.leaf.len));
            }
            let items = &leaf.items()[pos..];
            for &off in items {
                black_box(words[off as usize].load(Ordering::Relaxed));
            }
            for &off in items {
                let item = ItemRef { off: off as u64 };
                item.key_into(words, &mut key);
                if !f(&key, off as u64) {
                    exhausted = false;
                    break 'walk;
                }
            }
            node = next;
            pos = 0;
        }
        self.key_buf = key;
        exhausted
    }
}

#[inline]
fn pack_key_off(slab: usize, off: u32) -> u32 {
    debug_assert!(off <= SLAB_OFF_MASK);
    ((slab as u32) << SLAB_OFF_BITS) | off
}

#[inline]
fn unpack_key_off(key_off: u32) -> (usize, u32) {
    ((key_off >> SLAB_OFF_BITS) as usize, key_off & SLAB_OFF_MASK)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::item_words;
    use std::collections::BTreeMap;

    /// Pinned by scripts/check.sh: a tower and a leaf are each exactly one
    /// aligned cache line, and a node is the two side by side.
    #[test]
    fn skiplist_tower_layout_is_one_aligned_cache_line() {
        assert_eq!(std::mem::size_of::<Tower>(), 64);
        assert_eq!(std::mem::align_of::<Tower>(), 64);
        // 12 levels fit exactly: 4+2+1+9 header bytes + 12*4 link bytes.
        assert_eq!(16 + SKIP_MAX_HEIGHT * 4, 64);
        assert_eq!(std::mem::size_of::<Leaf>(), 64);
        assert_eq!(std::mem::align_of::<Leaf>(), 64);
        // 14 offsets beside the count and its padding.
        assert_eq!(LEAF_SLOTS * 4 + 8, 64);
        assert_eq!(std::mem::size_of::<Node>(), 128);
        assert_eq!(std::mem::align_of::<Node>(), 128);
    }

    /// A skiplist over an arena of real items, as the engine drives it: the
    /// item is written first, then indexed by its offset.
    struct Rig {
        arena: Arena,
        list: SkipList,
    }

    impl Rig {
        fn new() -> Rig {
            Rig {
                arena: Arena::new(1 << 16),
                list: SkipList::new(),
            }
        }

        /// Writes a fresh item for `key` and upserts it; returns
        /// `(new offset, displaced offset)`.
        fn put(&mut self, key: &[u8]) -> (u64, Option<u64>) {
            let off = self.arena.alloc(item_words(key.len(), 0)).expect("arena");
            ItemRef::write_new(self.arena.words(), off, key, b"");
            (off, self.list.upsert(self.arena.words(), key, off))
        }

        fn remove(&mut self, key: &[u8]) -> Option<u64> {
            self.list.remove(self.arena.words(), key)
        }

        fn scan(&mut self, start: &[u8], limit: usize) -> (Vec<(Vec<u8>, u64)>, bool) {
            let mut out = Vec::new();
            let exhausted = self.list.scan_from(self.arena.words(), start, |k, v| {
                out.push((k.to_vec(), v));
                out.len() < limit
            });
            (out, exhausted)
        }

        fn dump(&mut self) -> Vec<(Vec<u8>, u64)> {
            let (all, exhausted) = self.scan(b"", usize::MAX);
            assert!(exhausted);
            all
        }

        /// Every linked node in level-0 order: separator, height, and the
        /// leaf's keys. Checks the structure's own invariants on the way.
        fn shape(&self) -> Vec<(Vec<u8>, u8, Vec<Vec<u8>>)> {
            let words = self.arena.words();
            let mut out: Vec<(Vec<u8>, u8, Vec<Vec<u8>>)> = Vec::new();
            let mut node = 0u32;
            while node != NIL {
                let Node { tower, leaf } = self.list.nodes[node as usize];
                let mut sep = Vec::new();
                if tower.sep_len > 0 {
                    let (slab, off) = unpack_key_off(tower.sep_off);
                    let w = self.list.slabs[slab].words();
                    for i in 0..tower.sep_len as usize {
                        let word = w[off as usize + i / 8].load(Ordering::Relaxed);
                        sep.push(word.to_le_bytes()[i % 8]);
                    }
                }
                let keys: Vec<Vec<u8>> = leaf
                    .items()
                    .iter()
                    .map(|&o| ItemRef { off: o as u64 }.key(words))
                    .collect();
                assert!(node == 0 || !keys.is_empty(), "linked empty leaf");
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "leaf out of order");
                assert!(keys.iter().all(|k| *k >= sep), "key below its separator");
                if let Some((_, _, prev)) = out.last() {
                    assert!(prev.iter().all(|k| *k < sep), "key past the next separator");
                }
                out.push((sep, tower.height, keys));
                node = tower.next[0];
            }
            assert_eq!(out.len() as u64, self.list.stats().leaves);
            out
        }
    }

    #[test]
    fn ordered_iteration_matches_btreemap_model() {
        let mut rig = Rig::new();
        let mut model: BTreeMap<Vec<u8>, u64> = BTreeMap::new();
        // Deterministic LCG-driven mixed workload. With test-sized leaves
        // (LEAF_CAP = 4) 700 keys keep ~200 leaves splitting and emptying.
        let mut x = 0x1234_5678_9abc_def0u64;
        let mut step = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            x >> 33
        };
        let (mut splits, mut unlinks) = (0u64, 0u64);
        for i in 0..6_000u64 {
            let k = format!("key-{:05}", step() % 700).into_bytes();
            let leaves = rig.list.stats().leaves;
            match step() % 12 {
                0..=5 => {
                    let (off, old) = rig.put(&k);
                    assert_eq!(old, model.insert(k, off), "upsert {i}");
                }
                6..=7 => {
                    assert_eq!(rig.remove(&k), model.remove(&k), "remove {i}");
                }
                8 => {
                    let words = rig.arena.words();
                    if let Some(&v) = model.get(&k) {
                        // Same item re-linked: the offset is all `set` swaps.
                        assert_eq!(rig.list.set(words, &k, v), Some(v));
                        assert_eq!(rig.list.get(words, &k), Some(v));
                    } else {
                        assert_eq!(rig.list.set(words, &k, 0), None);
                        assert_eq!(rig.list.get(words, &k), None);
                    }
                }
                9..=10 => {
                    // A bounded scan, then its continuation from
                    // `last_key + 0x00`: together they read what one scan
                    // of twice the limit reads.
                    let limit = 1 + (step() % 9) as usize;
                    let (mut got, exhausted) = rig.scan(&k, limit);
                    if !exhausted {
                        let mut cursor = got.last().expect("stopped on an item").0.clone();
                        cursor.push(0);
                        got.extend(rig.scan(&cursor, limit).0);
                    }
                    let want: Vec<(Vec<u8>, u64)> = model
                        .range(k..)
                        .take(2 * limit)
                        .map(|(k, v)| (k.clone(), *v))
                        .collect();
                    assert_eq!(got, want, "scan {i}");
                }
                _ => {
                    rig.list.reclaim_retired();
                }
            }
            assert_eq!(rig.list.len(), model.len() as u64);
            let now = rig.list.stats().leaves;
            splits += u64::from(now > leaves);
            unlinks += u64::from(now < leaves);
        }
        assert!(
            splits > 100 && unlinks > 20,
            "{splits} splits, {unlinks} unlinks"
        );
        rig.shape();
        let want: Vec<(Vec<u8>, u64)> = model.into_iter().collect();
        assert_eq!(rig.dump(), want);
    }

    #[test]
    fn leaf_boundaries_splits_and_unlinks() {
        let mut rig = Rig::new();
        let key = |i: u32| format!("b{i:03}").into_bytes();
        // Key-ordered load: appends split without moving anything, leaving
        // full leaves behind.
        for i in 0..3 * LEAF_CAP as u32 {
            rig.put(&key(10 * i));
        }
        let shape = rig.shape();
        assert_eq!(shape.len(), 3);
        assert!(shape.iter().all(|(_, _, keys)| keys.len() == LEAF_CAP));
        // An insert into the middle of a full leaf halves it.
        rig.put(&key(5));
        let shape = rig.shape();
        assert_eq!(shape.len(), 4);
        assert_eq!(shape[0].2.len(), LEAF_CAP / 2 + 1);
        assert_eq!(shape[1].0, shape[1].2[0], "separator = the key split at");
        // A start key exactly on a separator begins in that leaf; one just
        // below it begins in the previous leaf and crosses over.
        let sep = shape[2].0.clone();
        assert_eq!(rig.scan(&sep, 1).0[0].0, sep);
        let mut below = sep.clone();
        *below.last_mut().unwrap() -= 1;
        assert_eq!(rig.scan(&below, 1).0[0].0, sep);
        // A continuation from the last key of a leaf lands on the first key
        // of the next one.
        let mut cursor = shape[1].2.last().unwrap().clone();
        cursor.push(0);
        assert_eq!(rig.scan(&cursor, 1).0[0].0, sep);
        // Removing a leaf's first key leaves its separator standing: the
        // key comes back into the same leaf.
        assert!(rig.remove(&sep).is_some());
        assert_eq!(rig.shape()[2].0, sep);
        assert_ne!(rig.shape()[2].2[0], sep);
        rig.put(&sep);
        assert_eq!(rig.shape()[2].2[0], sep);
        // Emptying a leaf unlinks and retires it; scans step over the gap.
        for k in shape[2].2.clone() {
            assert!(rig.remove(&k).is_some());
        }
        assert_eq!(rig.shape().len(), 3);
        assert_eq!(rig.list.stats().retired_nodes, 1);
        assert_eq!(rig.scan(&cursor, 1).0[0].0, shape[3].2[0]);
        // The head survives being emptied and takes new smallest keys.
        for k in shape[0].2.clone() {
            assert!(rig.remove(&k).is_some());
        }
        assert_eq!(rig.shape().len(), 3);
        assert!(rig.shape()[0].2.is_empty());
        rig.put(b"a");
        assert_eq!(rig.dump()[0].0, b"a");
    }

    #[test]
    fn twin_lists_build_identical_structures() {
        // Same operations, same structure: heights come from separator
        // hashes and splits from leaf occupancy, never from RNG or addresses.
        let build = || {
            let mut rig = Rig::new();
            let mut x = 99u64;
            for _ in 0..3_000 {
                x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                let k = format!("tw{:04}", (x >> 40) % 400).into_bytes();
                if (x >> 20).is_multiple_of(3) {
                    rig.remove(&k);
                } else {
                    rig.put(&k);
                }
                if (x >> 12).is_multiple_of(64) {
                    rig.list.reclaim_retired();
                }
            }
            rig
        };
        let (a, b) = (build(), build());
        assert_eq!(a.shape(), b.shape());
        assert_eq!(a.list.stats(), b.list.stats());
        assert!(a.list.stats().leaves > 20);
    }

    #[test]
    fn scan_from_starts_at_first_key_geq_start_and_reports_exhaustion() {
        let mut rig = Rig::new();
        let mut offs = Vec::new();
        for i in [10u64, 20, 30, 40] {
            offs.push(rig.put(format!("k{i:03}").as_bytes()).0);
        }
        // Start between keys.
        let (seen, exhausted) = rig.scan(b"k015", usize::MAX);
        assert!(exhausted);
        assert_eq!(
            seen,
            vec![
                (b"k020".to_vec(), offs[1]),
                (b"k030".to_vec(), offs[2]),
                (b"k040".to_vec(), offs[3])
            ]
        );
        // Early stop => not exhausted.
        let (seen, exhausted) = rig.scan(b"", 2);
        assert!(!exhausted);
        assert_eq!(seen.len(), 2);
        // Start past the end: exhausted, nothing visited.
        let words = rig.arena.words();
        let exhausted = rig
            .list
            .scan_from(words, b"zzz", |_, _| panic!("no items expected"));
        assert!(exhausted);
    }

    #[test]
    fn retired_towers_and_keys_are_recycled() {
        let mut rig = Rig::new();
        let keys: Vec<Vec<u8>> = (0..100).map(|i| format!("rk{i:04}").into_bytes()).collect();
        for k in &keys {
            rig.put(k);
        }
        let before = rig.list.stats();
        assert!(before.leaves > 10);
        for k in &keys {
            assert!(rig.remove(k).is_some());
        }
        // Every leaf but the head emptied, was unlinked and is parked.
        assert_eq!(rig.list.stats().leaves, 1);
        assert!(rig.list.retired_bytes() > 0);
        assert_eq!(rig.list.reclaim_retired() as u64, before.leaves - 1);
        assert_eq!(rig.list.retired_bytes(), 0);
        // Re-insert: nodes and separator slab space come from the free
        // lists, no new slab growth and no new node storage.
        let nodes = rig.list.nodes.len();
        for k in &keys {
            rig.put(k);
        }
        assert_eq!(rig.list.stats().slabs, before.slabs);
        assert_eq!(rig.list.nodes.len(), nodes);
        assert_eq!(rig.list.len(), 100);
    }

    #[test]
    fn key_interning_grows_across_slabs() {
        let mut rig = Rig::new();
        // One separator is interned per leaf: 2000 × 64 B keys in
        // test-sized leaves are ~500 separators ≈ 32 KiB, past the first
        // slab (MIN_SLAB_WORDS = 1024 words = 8 KiB).
        for i in 0..2_000u64 {
            let mut k = format!("grow-{i:06}").into_bytes();
            k.resize(64, b'x');
            rig.put(&k);
        }
        assert!(rig.list.stats().slabs > 1, "expected slab chain growth");
        assert_eq!(rig.list.len(), 2_000);
        let items = rig.dump();
        assert_eq!(items.len(), 2_000);
        assert!(items.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn tower_heights_are_deterministic_and_bounded() {
        for i in 0..50_000u64 {
            let h = SkipList::height_for(i);
            assert!((1..=SKIP_MAX_HEIGHT as u8).contains(&h));
            assert_eq!(h, SkipList::height_for(i));
        }
        // Height distribution is roughly geometric with p = 1/4: about a
        // quarter of hashes should reach level 2.
        let tall = (0..50_000u64)
            .filter(|&i| SkipList::height_for(crate::avalanche(i)) >= 2)
            .count();
        assert!((8_000..17_000).contains(&tall), "tall towers: {tall}");
    }
}

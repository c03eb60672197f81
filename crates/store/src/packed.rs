//! Cache-line-packed open-addressing hash index with SWAR tag probing.
//!
//! This is the successor to the overflow-chained [`crate::CompactTable`]: the
//! same one-cache-line-per-probe budget, but with open addressing instead of
//! dynamically allocated overflow buckets, wordwise SWAR probing of an 8-bit
//! tag array instead of a per-slot signature scan, and growth by doubling
//! instead of a fixed main branch. Each group is exactly one 64-byte cache
//! line:
//!
//! ```text
//! word 0 : tag array  [ tag0 ][ tag1 ] ... [ tag6 ][ control byte ]
//! word i : slot i-1   [ arena word offset : 48 bits ]
//! ```
//!
//! * **Tags** — one byte per slot derived from the high hash bits
//!   (`0x00` = empty, `0x01` = tombstone, live tags remapped into
//!   `0x02..=0xFF`). A lookup broadcasts the probe tag across a `u64` and
//!   finds candidate lanes with a branch-free zero-byte SWAR test — no
//!   per-slot loop, no nightly SIMD.
//! * **Control byte** — the group's `OVERFLOWED` sticky bit: an insert once
//!   passed through this group while it was full, so probes must continue to
//!   the next group.
//! * **Slots** — the item's arena word offset and nothing else: the lease
//!   lives in the item header, where one-sided reads and reclamation read
//!   it, so a lookup touches a single cache line before the item.
//!
//! **Probing** is bounded linear group probing: start at `hash & mask`, stop
//! at the first group that has not overflowed. Deletion writes a tombstone
//! when the group has overflowed (so chains stay walkable) and a plain empty
//! lane otherwise.
//!
//! **Rebuild** — when occupancy crosses the configured ceiling, the insert
//! that crosses it allocates the doubled group array and re-places every
//! live entry into it, re-deriving each entry's hash from its arena key via
//! the caller's `rehash` closure; a remove that leaves too many tombstones
//! rebuilds at the same size. Both happen in the one call: the table's owner
//! is its only reader (remote GETs read the arena, not the index), and index
//! work is not priced in virtual time, so spreading the rehash over later
//! mutations would buy nothing and cost every probe a second array.
//!
//! **Growth from a page** — a shard's table starts at one 4 KiB page
//! ([`PackedTable::default`]) and doubles as its items arrive, so index
//! memory is committed as it is used.
//!
//! **Address stability** — rebuilds and displacement move *index entries*,
//! never items: arena word offsets handed to clients as remote pointers stay
//! valid across any amount of index churn (see `hydra_wire::rptr`).

use crate::table::TableStats;

/// Slots per 64-byte group (7 × 8 B slots + 8 B tag/control word).
pub const GROUP_SLOTS: usize = 7;

/// Maximum keys per [`PackedTable::lookup_batch`] interleaved probe pass.
pub const LOOKUP_BATCH: usize = 16;

const TAG_EMPTY: u8 = 0x00;
const TAG_TOMB: u8 = 0x01;

/// The control byte's `OVERFLOWED` bit, in place in the tag word.
const OVERFLOWED: u64 = 1 << 56;

/// Largest arena word offset a slot holds (48 bits).
const OFF_MASK: u64 = (1 << 48) - 1;

const LSB: u64 = 0x0101_0101_0101_0101;
const MSB: u64 = 0x8080_8080_8080_8080;
/// High bit of every tag lane (lanes 0..=6; lane 7 is the control byte).
const LANE_MSB: u64 = 0x0080_8080_8080_8080;

/// Exact per-byte zero detector: bit 7 of byte `i` is set iff byte `i` of
/// `v` is zero. Unlike the classic `(v - LSB) & !v & MSB` trick this form is
/// carry-free, so it has no false positives — which matters because the
/// insert path trusts it to find genuinely free lanes.
#[inline]
fn zero_byte_mask(v: u64) -> u64 {
    !(((v & !MSB).wrapping_add(!MSB)) | v | !MSB)
}

/// Lanes (0..=6) of `tags` equal to `b`, as a mask of per-lane high bits.
#[inline]
fn byte_eq_mask(tags: u64, b: u8) -> u64 {
    zero_byte_mask(tags ^ LSB.wrapping_mul(b as u64)) & LANE_MSB
}

/// The 8-bit probe tag derived from a key hash. Uses bits 56..64 — disjoint
/// from the group-index bits — remapped off the empty/tombstone encodings.
#[inline]
pub fn tag_of(hash: u64) -> u8 {
    let t = (hash >> 56) as u8;
    if t < 2 {
        t + 2
    } else {
        t
    }
}

/// One cache line: 7 tag bytes + control byte, then 7 slot words.
#[derive(Clone, Copy, Default)]
#[repr(C, align(64))]
struct Group {
    tags: u64,
    slots: [u64; GROUP_SLOTS],
}

// The layout contract the whole design rests on; checked at compile time
// (and re-asserted by a named test that scripts/check.sh runs explicitly).
const _: () = assert!(std::mem::size_of::<Group>() == 64);
const _: () = assert!(std::mem::align_of::<Group>() == 64);

impl Group {
    /// Probe chains continue past a group that has overflowed.
    #[inline]
    fn overflowed(&self) -> bool {
        self.tags & OVERFLOWED != 0
    }

    #[inline]
    fn tag_at(&self, lane: usize) -> u8 {
        (self.tags >> (lane * 8)) as u8
    }

    #[inline]
    fn set_tag(&mut self, lane: usize, tag: u8) {
        let shift = lane * 8;
        self.tags = (self.tags & !(0xFFu64 << shift)) | ((tag as u64) << shift);
    }

    /// Candidate lanes whose tag equals `tag`.
    #[inline]
    fn match_mask(&self, tag: u8) -> u64 {
        byte_eq_mask(self.tags, tag)
    }

    /// Lanes free for insertion (empty or tombstone).
    #[inline]
    fn free_mask(&self) -> u64 {
        byte_eq_mask(self.tags, TAG_EMPTY) | byte_eq_mask(self.tags, TAG_TOMB)
    }

    #[inline]
    fn live_lanes(&self) -> impl Iterator<Item = usize> + '_ {
        (0..GROUP_SLOTS).filter(|&l| self.tag_at(l) >= 2)
    }
}

#[inline]
fn lane_of(bit: u64) -> usize {
    (bit.trailing_zeros() / 8) as usize
}

/// Cache-line-packed open-addressing index mapping 64-bit key hashes to
/// 48-bit arena word offsets. Full key equality is delegated to the caller's
/// `is_match` predicate; `insert` and `remove` take a `rehash` closure so a
/// rebuild can re-derive the home group of every entry from its stored key.
/// See the module docs for layout and protocol.
pub struct PackedTable {
    /// A power-of-two count of groups: `hash & (len - 1)` is a home group.
    groups: Box<[Group]>,
    len: usize,
    /// Tombstone lanes (rebuild-debt accounting).
    tombs: usize,
    /// Grow when `(len + tombs) * 8 >= slots * max_load_eighths`.
    max_load_eighths: u32,
    stats: TableStats,
}

impl PackedTable {
    /// Creates a table with at least `groups` groups (rounded up to a power
    /// of two) and the default occupancy ceiling of 7/8.
    pub fn new(groups: usize) -> Self {
        Self::with_max_load(groups, 7)
    }

    /// Creates a table sized for `items` entries at moderate occupancy.
    pub fn with_capacity(items: usize) -> Self {
        Self::new((items.max(1) * 8 / 7 / GROUP_SLOTS).max(1))
    }

    /// Creates a table with an explicit occupancy ceiling in eighths
    /// (`max_load_eighths = 8` disables growth — benchmark use only, for
    /// pinning a target load factor).
    pub fn with_max_load(groups: usize, max_load_eighths: u32) -> Self {
        assert!((1..=8).contains(&max_load_eighths));
        PackedTable {
            groups: Self::empty_groups(groups),
            len: 0,
            tombs: 0,
            max_load_eighths,
            stats: TableStats::default(),
        }
    }

    fn empty_groups(groups: usize) -> Box<[Group]> {
        vec![Group::default(); groups.next_power_of_two().max(1)].into_boxed_slice()
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

    /// Bytes held by the group array.
    pub fn mem_bytes(&self) -> usize {
        self.groups.len() * std::mem::size_of::<Group>()
    }

    /// Looks up the entry whose tag matches `hash` and for which
    /// `is_match(offset)` confirms full key equality. Returns the offset.
    pub fn lookup(&mut self, hash: u64, is_match: impl FnMut(u64) -> bool) -> Option<u64> {
        self.stats.lookups += 1;
        let (idx, lane) = Self::probe(&self.groups, hash, &mut self.stats, is_match)?;
        Some(self.groups[idx].slots[lane])
    }

    /// Walks the probe chain of `hash`, confirming candidates through
    /// `is_match` and charging the work to `stats`; returns the matching
    /// `(group, lane)`. Associated fn so callers can split borrows.
    fn probe(
        groups: &[Group],
        hash: u64,
        stats: &mut TableStats,
        mut is_match: impl FnMut(u64) -> bool,
    ) -> Option<(usize, usize)> {
        let tag = tag_of(hash);
        let mask = groups.len() - 1;
        let mut idx = hash as usize & mask;
        for _ in 0..groups.len() {
            stats.buckets_probed += 1;
            let g = &groups[idx];
            let mut m = g.match_mask(tag);
            while m != 0 {
                let lane = lane_of(m);
                m &= m - 1;
                stats.full_compares += 1;
                if is_match(g.slots[lane]) {
                    return Some((idx, lane));
                }
                stats.false_positives += 1;
            }
            if !g.overflowed() {
                return None;
            }
            idx = (idx + 1) & mask;
        }
        None
    }

    /// Batched lookup: pass one touches (prefetches) every key's home cache
    /// line so the misses overlap; pass two resolves each key with the
    /// ordinary scalar probe. Results and charged statistics are exactly
    /// those of per-key [`lookup`](Self::lookup) calls in key order; only the
    /// memory-access schedule differs. At most [`LOOKUP_BATCH`] keys
    /// per call.
    pub fn lookup_batch(
        &mut self,
        hashes: &[u64],
        out: &mut [Option<u64>],
        mut is_match: impl FnMut(usize, u64) -> bool,
    ) {
        assert!(hashes.len() <= LOOKUP_BATCH, "batch exceeds LOOKUP_BATCH");
        assert!(out.len() >= hashes.len(), "output buffer too small");
        let mask = self.groups.len() - 1;
        for &hash in hashes {
            std::hint::black_box(self.groups[hash as usize & mask].tags);
        }
        for (i, &hash) in hashes.iter().enumerate() {
            out[i] = self.lookup(hash, |off| is_match(i, off));
        }
    }

    /// Occupancy-ceiling check; `true` means growth is due.
    fn over_ceiling(&self) -> bool {
        (self.len + self.tombs) as u64 * 8
            >= self.groups.len() as u64 * GROUP_SLOTS as u64 * self.max_load_eighths as u64
    }

    /// Inserts `(hash, offset)`. The caller guarantees the key is absent.
    /// `rehash` re-derives the hash of a stored offset, for the rebuild an
    /// insert that crosses the occupancy ceiling makes.
    pub fn insert(&mut self, hash: u64, offset: u64, rehash: impl FnMut(u64) -> u64) {
        assert!(offset <= OFF_MASK, "offset exceeds 48 bits");
        if self.max_load_eighths < 8 && self.over_ceiling() {
            self.rebuild(self.groups.len() * 2, rehash);
        }
        assert!(
            self.len + self.tombs < self.groups.len() * GROUP_SLOTS,
            "packed table full"
        );
        if Self::place(&mut self.groups, hash, offset) {
            self.tombs -= 1;
        }
        self.len += 1;
    }

    /// Raw placement: bounded linear group probing from the home group,
    /// setting the sticky `OVERFLOWED` bit on every full group passed.
    /// Returns whether a tombstone lane was reused.
    fn place(groups: &mut [Group], hash: u64, offset: u64) -> bool {
        let tag = tag_of(hash);
        let mask = groups.len() - 1;
        let mut idx = hash as usize & mask;
        loop {
            let g = &mut groups[idx];
            let free = g.free_mask();
            if free != 0 {
                let lane = lane_of(free);
                let was_tomb = g.tag_at(lane) == TAG_TOMB;
                g.slots[lane] = offset;
                g.set_tag(lane, tag);
                return was_tomb;
            }
            g.tags |= OVERFLOWED;
            idx = (idx + 1) & mask;
        }
    }

    /// Replaces the offset of an existing entry (out-of-place update: same
    /// key, new item location). Returns the old offset. Occupancy does not
    /// change, so a replace never rebuilds.
    pub fn replace(
        &mut self,
        hash: u64,
        new_offset: u64,
        is_match: impl FnMut(u64) -> bool,
    ) -> Option<u64> {
        assert!(new_offset <= OFF_MASK, "offset exceeds 48 bits");
        let (idx, lane) = Self::probe(&self.groups, hash, &mut TableStats::default(), is_match)?;
        let slot = &mut self.groups[idx].slots[lane];
        Some(std::mem::replace(slot, new_offset))
    }

    /// Removes the entry for `hash` confirmed by `is_match`; returns its
    /// offset. Writes a tombstone when the group has overflowed (probe
    /// chains must keep walking through it) and a plain empty lane
    /// otherwise; tombstone debt past a quarter of the slots is purged by a
    /// same-size rebuild through `rehash`.
    pub fn remove(
        &mut self,
        hash: u64,
        is_match: impl FnMut(u64) -> bool,
        rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        let (idx, lane) = Self::probe(&self.groups, hash, &mut TableStats::default(), is_match)?;
        let g = &mut self.groups[idx];
        let tomb = g.overflowed();
        g.set_tag(lane, if tomb { TAG_TOMB } else { TAG_EMPTY });
        let off = std::mem::take(&mut g.slots[lane]);
        self.len -= 1;
        self.tombs += tomb as usize;
        if self.max_load_eighths < 8 && self.tombs * 4 > self.groups.len() * GROUP_SLOTS {
            self.rebuild(self.groups.len(), rehash);
        }
        Some(off)
    }

    /// Re-places every live entry into a fresh array of `groups` groups,
    /// re-deriving each one's home group through `rehash`; the old array and
    /// its tombstones are dropped.
    fn rebuild(&mut self, groups: usize, mut rehash: impl FnMut(u64) -> u64) {
        let old = std::mem::replace(&mut self.groups, Self::empty_groups(groups));
        for g in old.iter() {
            for lane in g.live_lanes() {
                let off = g.slots[lane];
                Self::place(&mut self.groups, rehash(off), off);
            }
        }
        self.stats.displacements += self.len as u64;
        self.stats.resizes += 1;
        self.stats.tombstones_purged += self.tombs as u64;
        self.tombs = 0;
    }

    /// Visits every stored offset (diagnostics, migration, eviction scans).
    pub fn for_each(&self, mut f: impl FnMut(u64)) {
        for g in self.groups.iter() {
            for lane in g.live_lanes() {
                f(g.slots[lane]);
            }
        }
    }
}

impl Default for PackedTable {
    /// One 4 KiB page of groups at the default ceiling: where a shard's
    /// index starts before its items arrive.
    fn default() -> Self {
        Self::new(4096 / std::mem::size_of::<Group>())
    }
}

impl std::fmt::Debug for PackedTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedTable")
            .field("len", &self.len)
            .field("groups", &self.groups.len())
            .field("tombs", &self.tombs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash_key;
    use std::collections::HashMap;

    /// Test scaffold mapping offsets back to keys so `is_match` and `rehash`
    /// can behave like the arena would.
    struct Model {
        table: PackedTable,
        by_off: HashMap<u64, Vec<u8>>,
        next_off: u64,
    }

    impl Model {
        fn new(groups: usize) -> Self {
            Model {
                table: PackedTable::new(groups),
                by_off: HashMap::new(),
                next_off: 1,
            }
        }

        fn insert(&mut self, key: &[u8]) -> u64 {
            let off = self.next_off;
            self.next_off += 1;
            self.by_off.insert(off, key.to_vec());
            let by_off = &self.by_off;
            self.table
                .insert(hash_key(key), off, |o| hash_key(&by_off[&o]));
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
            let got = self.table.remove(
                hash_key(key),
                |off| by_off.get(&off).is_some_and(|k| k == key),
                |o| hash_key(&by_off[&o]),
            );
            if let Some(off) = got {
                self.by_off.remove(&off);
            }
            got
        }
    }

    #[test]
    fn layout_is_one_aligned_cache_line() {
        assert_eq!(std::mem::size_of::<Group>(), 64);
        assert_eq!(std::mem::align_of::<Group>(), 64);
        // 7 slots + tag word fill the line exactly; no padding anywhere.
        assert_eq!(GROUP_SLOTS * 8 + 8, 64);
    }

    #[test]
    fn swar_masks_are_exact() {
        // Every byte value must be detected exactly — the insert path
        // depends on free_mask having no false positives.
        for b in 0..=255u8 {
            for lane in 0..8usize {
                let word = (b as u64) << (lane * 8);
                let m = zero_byte_mask(word ^ LSB.wrapping_mul(b as u64));
                for l in 0..8usize {
                    let flagged = m & (0x80u64 << (l * 8)) != 0;
                    let equal = ((word >> (l * 8)) as u8) == b;
                    assert_eq!(flagged, equal, "b={b:#x} lane={lane} l={l}");
                }
            }
        }
    }

    #[test]
    fn tag_never_collides_with_control_values() {
        for h in 0..10_000u64 {
            assert!(tag_of(h << 56) >= 2);
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
    fn displacement_handles_group_overflow() {
        // 1-group table at pinned load: everything probes linearly.
        let mut m = Model::new(1);
        m.table = PackedTable::with_max_load(2, 8); // 14 slots, growth off
        let keys: Vec<Vec<u8>> = (0..14).map(|i| format!("key-{i}").into_bytes()).collect();
        let offs: Vec<u64> = keys.iter().map(|k| m.insert(k)).collect();
        for (k, &o) in keys.iter().zip(&offs) {
            assert_eq!(m.lookup(k), Some(o), "{}", String::from_utf8_lossy(k));
        }
        assert_eq!(m.table.len(), 14);
    }

    #[test]
    fn incremental_resize_preserves_all_entries() {
        let mut m = Model::new(1);
        let keys: Vec<Vec<u8>> = (0..2_000).map(|i| format!("rz-{i}").into_bytes()).collect();
        let offs: Vec<u64> = keys.iter().map(|k| m.insert(k)).collect();
        assert!(m.table.stats().resizes >= 3, "growth must have happened");
        for (k, &o) in keys.iter().zip(&offs) {
            assert_eq!(m.lookup(k), Some(o));
        }
        assert_eq!(m.table.len(), 2_000);
    }

    /// The table holds its one group array and nothing beside it.
    fn assert_one_array(t: &PackedTable) {
        assert!(t.groups.len().is_power_of_two());
        assert_eq!(t.mem_bytes(), t.groups.len() * std::mem::size_of::<Group>());
    }

    #[test]
    fn rebuilds_hold_one_array_after_every_mutation() {
        let mut m = Model::new(1);
        let keys: Vec<Vec<u8>> = (0..4_000).map(|i| format!("rt-{i}").into_bytes()).collect();
        let mut resizes = 0;
        for (i, k) in keys.iter().enumerate() {
            m.insert(k);
            assert_one_array(&m.table);
            if m.table.stats().resizes > resizes {
                resizes = m.table.stats().resizes;
                for k in &keys[..=i] {
                    assert!(m.lookup(k).is_some(), "{}", String::from_utf8_lossy(k));
                }
            }
        }
        assert!(resizes >= 3, "growth must have happened");
        for k in &keys {
            assert!(m.remove(k).is_some());
            assert_one_array(&m.table);
        }
        assert!(m.table.is_empty());
    }

    #[test]
    fn grows_from_one_page_through_eight_doublings() {
        let mut m = Model::new(1);
        m.table = PackedTable::default();
        assert_eq!(m.table.mem_bytes(), 4096, "one page before any insert");
        let mut keys: Vec<Vec<u8>> = Vec::new();
        let mut offs = Vec::new();
        let mut doublings = 0;
        while doublings < 8 {
            let k = format!("pg-{}", keys.len()).into_bytes();
            offs.push(m.insert(&k));
            keys.push(k);
            assert_one_array(&m.table);
            assert_eq!(m.table.mem_bytes(), 4096 << m.table.stats().resizes);
            // Every key after every doubling, and the new key always.
            let grew = m.table.stats().resizes > doublings;
            doublings = m.table.stats().resizes;
            let from = if grew { 0 } else { keys.len() - 1 };
            for (k, &o) in keys.iter().zip(&offs).skip(from) {
                assert_eq!(m.lookup(k), Some(o), "{}", String::from_utf8_lossy(k));
            }
        }
        assert_eq!(m.table.groups.len(), 64 << 8);
    }

    #[test]
    fn growth_misses_stay_constant() {
        // The engine looks a key up before it inserts it, so every insert
        // that loads a shard follows a miss: a miss must cost what it costs
        // in a table that never grew, at every size on the way.
        for n in [25_000, 100_000] {
            let mut m = Model::new(1);
            m.table = PackedTable::default();
            let (mut total, mut worst) = (0, 0);
            for i in 0..n {
                let k = format!("gm-{i}").into_bytes();
                let before = m.table.stats().buckets_probed;
                assert_eq!(m.lookup(&k), None);
                let probed = m.table.stats().buckets_probed - before;
                total += probed;
                worst = worst.max(probed);
                m.insert(&k);
            }
            let mean = total as f64 / n as f64;
            assert!(mean <= 2.0, "{mean:.2} groups per miss at {n} items");
            assert!(worst <= 128, "a miss read {worst} groups at {n} items");
        }
    }

    #[test]
    fn tombstone_debt_triggers_purge_rebuild() {
        // Tombstones only accrue in *overflowed* groups (elsewhere deletion
        // restores a plain empty lane), so force one long probe chain: 60
        // keys that all hash to group 0 of a 16-group table. They fill
        // groups 0..8 linearly and flag each full group OVERFLOWED; total
        // occupancy (60 of 112 slots) stays below the growth ceiling.
        let mut m = Model::new(16);
        let mut keys = Vec::new();
        let mut i = 0u64;
        while keys.len() < 60 {
            let k = format!("tb-{i}").into_bytes();
            if hash_key(&k) & 15 == 0 {
                keys.push(k);
            }
            i += 1;
        }
        for k in &keys {
            m.insert(k);
        }
        assert_eq!(m.table.stats().resizes, 0, "no growth expected");
        for k in &keys[..55] {
            m.remove(k);
        }
        assert!(
            m.table.stats().resizes >= 1,
            "heavy deletion must trigger a tombstone purge"
        );
        assert!(m.table.stats().tombstones_purged > 0);
        for k in &keys[55..] {
            assert!(m.lookup(k).is_some());
        }
        assert_eq!(m.table.len(), 5);
    }

    #[test]
    fn lookup_batch_matches_scalar_lookups_and_stats() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xBA7C4);
        let mut a = Model::new(2);
        let mut b = Model::new(2);
        for i in 0..300 {
            a.insert(format!("bk-{i}").as_bytes());
            b.insert(format!("bk-{i}").as_bytes());
        }
        a.table.reset_stats();
        b.table.reset_stats();
        for round in 0..200 {
            let n = rng.gen_range(1..=LOOKUP_BATCH);
            let keys: Vec<Vec<u8>> = (0..n)
                .map(|_| format!("bk-{}", rng.gen_range(0..400)).into_bytes())
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
        let mut t = PackedTable::new(4);
        let hashes = [0u64; LOOKUP_BATCH + 1];
        let mut out = [None; LOOKUP_BATCH + 1];
        t.lookup_batch(&hashes, &mut out, |_, _| false);
    }

    #[test]
    fn for_each_visits_every_entry_once_across_growth() {
        let mut m = Model::new(1);
        for i in 0..1_500 {
            m.insert(format!("fe-{i}").as_bytes());
        }
        let mut seen = Vec::new();
        m.table.for_each(|o| seen.push(o));
        seen.sort_unstable();
        let mut expect: Vec<u64> = m.by_off.keys().copied().collect();
        expect.sort_unstable();
        assert_eq!(seen, expect);
    }

    #[test]
    fn randomized_against_std_hashmap() {
        use rand::{rngs::SmallRng, Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(0xC0FFEE);
        let mut m = Model::new(2);
        let mut reference: HashMap<Vec<u8>, u64> = HashMap::new();
        for step in 0..30_000 {
            let k = format!("key-{}", rng.gen_range(0..700)).into_bytes();
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

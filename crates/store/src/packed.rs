//! Cache-line-packed open-addressing hash index with SWAR tag probing.
//!
//! This is the successor to the overflow-chained [`crate::CompactTable`]: the
//! same one-cache-line-per-probe budget, but with open addressing instead of
//! dynamically allocated overflow buckets, wordwise SWAR probing of an 8-bit
//! tag array instead of a per-slot signature scan, and *incremental* resize
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
//! * **Control byte** — the group's `OVERFLOWED` sticky bit (an insert once
//!   passed through this group while it was full, so probes must continue to
//!   the next group) and the `MIGRATED` bit (resize has drained this group,
//!   but probe chains still pass through it).
//! * **Slots** — the item's arena word offset and nothing else: the lease
//!   lives in the item header, where one-sided reads and reclamation read
//!   it, so a lookup touches a single cache line before the item.
//!
//! **Probing** is bounded linear group probing: start at `hash & mask`, stop
//! at the first group whose `OVERFLOWED`/`MIGRATED` bits are both clear.
//! Deletion writes a tombstone when the group has overflowed (so chains stay
//! walkable) and a plain empty lane otherwise.
//!
//! **Incremental resize** never stops the world: when occupancy (plus
//! tombstone debt) crosses the configured ceiling, a fresh group array is
//! installed and the full one becomes the *old half*. Every subsequent
//! mutation migrates one old group into the new array (re-deriving each
//! entry's hash from its arena key via the caller's `rehash` closure), so
//! the rehash cost is spread across the very mutations that caused the
//! growth. Lookups probe the new half, then the old; drained old groups are
//! marked `MIGRATED` so probe chains that pass through them keep walking.
//! A fully drained old half is freed by the mutation that drains it: the
//! table's owner is its only reader (remote GETs read the arena, not the
//! index), so nothing can still be probing it.
//!
//! **Growth from a page** — a shard's table starts at one 4 KiB page
//! ([`PackedTable::default`]) and doubles through the same incremental
//! resize as its items arrive, so index memory is committed as it is used.
//!
//! **Address stability** — resize and displacement move *index entries*,
//! never items: arena word offsets handed to clients as remote pointers stay
//! valid across any amount of index churn (see `hydra_wire::rptr`).

use crate::table::TableStats;

/// Slots per 64-byte group (7 × 8 B slots + 8 B tag/control word).
pub const GROUP_SLOTS: usize = 7;

const TAG_EMPTY: u8 = 0x00;
const TAG_TOMB: u8 = 0x01;

const CTRL_SHIFT: u64 = 56;
const CTRL_OVERFLOWED: u8 = 0x01;
const CTRL_MIGRATED: u8 = 0x02;

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
    #[inline]
    fn ctrl(&self) -> u8 {
        (self.tags >> CTRL_SHIFT) as u8
    }

    #[inline]
    fn set_ctrl(&mut self, ctrl: u8) {
        self.tags = (self.tags & !(0xFFu64 << CTRL_SHIFT)) | ((ctrl as u64) << CTRL_SHIFT);
    }

    #[inline]
    fn overflowed(&self) -> bool {
        self.ctrl() & CTRL_OVERFLOWED != 0
    }

    #[inline]
    fn migrated(&self) -> bool {
        self.ctrl() & CTRL_MIGRATED != 0
    }

    /// Probe chains continue through overflowed and migrated groups.
    #[inline]
    fn chains_on(&self) -> bool {
        self.ctrl() & (CTRL_OVERFLOWED | CTRL_MIGRATED) != 0
    }

    #[inline]
    fn set_flag(&mut self, flag: u8) {
        self.set_ctrl(self.ctrl() | flag);
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

/// The group array being drained by an in-progress incremental resize.
struct OldHalf {
    groups: Box<[Group]>,
    mask: u64,
    /// Next group to migrate; groups below this are `MIGRATED`.
    pos: usize,
}

/// Cache-line-packed open-addressing index mapping 64-bit key hashes to
/// 48-bit arena word offsets. Full key equality is delegated to the caller's
/// `is_match` predicate; mutations take a `rehash` closure so incremental
/// resize can re-derive the home group of migrated entries from their stored
/// keys. See the module docs for layout and protocol.
pub struct PackedTable {
    groups: Box<[Group]>,
    mask: u64,
    len: usize,
    /// Tombstone lanes in the live half (resize-debt accounting).
    tombs: usize,
    old: Option<OldHalf>,
    /// Resize when `(len + tombs) * 8 >= slots * max_load_eighths`.
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
        let n = groups.next_power_of_two().max(1);
        PackedTable {
            groups: vec![Group::default(); n].into_boxed_slice(),
            mask: (n - 1) as u64,
            len: 0,
            tombs: 0,
            old: None,
            max_load_eighths,
            stats: TableStats::default(),
        }
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

    /// Whether an incremental resize is in progress.
    pub fn is_resizing(&self) -> bool {
        self.old.is_some()
    }

    /// `(migrated, total)` old groups of the in-progress resize.
    pub fn resize_progress(&self) -> (usize, usize) {
        match &self.old {
            Some(o) => (o.pos, o.groups.len()),
            None => (0, 0),
        }
    }

    /// Bytes held by the group arrays (both halves during a resize).
    pub fn mem_bytes(&self) -> usize {
        let old = self.old.as_ref().map_or(0, |o| o.groups.len());
        (self.groups.len() + old) * std::mem::size_of::<Group>()
    }

    /// Looks up the entry whose tag matches `hash` and for which
    /// `is_match(offset)` confirms full key equality. Returns the offset.
    pub fn lookup(&mut self, hash: u64, mut is_match: impl FnMut(u64) -> bool) -> Option<u64> {
        self.stats.lookups += 1;
        let tag = tag_of(hash);
        if let Some(off) = Self::probe(&self.groups, self.mask, hash, tag, &mut self.stats, |off| {
            is_match(off)
        }) {
            return Some(off);
        }
        let old = self.old.as_ref()?;
        Self::probe(&old.groups, old.mask, hash, tag, &mut self.stats, is_match)
    }

    /// Walks the probe chain of `hash` in one half, confirming candidates
    /// through `is_match`. Associated fn so callers can split borrows.
    fn probe(
        groups: &[Group],
        mask: u64,
        hash: u64,
        tag: u8,
        stats: &mut TableStats,
        mut is_match: impl FnMut(u64) -> bool,
    ) -> Option<u64> {
        let mut idx = (hash & mask) as usize;
        for _ in 0..groups.len() {
            stats.buckets_probed += 1;
            let g = &groups[idx];
            let mut m = g.match_mask(tag);
            while m != 0 {
                let lane = lane_of(m);
                m &= m - 1;
                stats.full_compares += 1;
                let off = g.slots[lane];
                if is_match(off) {
                    return Some(off);
                }
                stats.false_positives += 1;
            }
            if !g.chains_on() {
                return None;
            }
            idx = (idx + 1) & mask as usize;
        }
        None
    }

    /// Batched lookup: pass one touches (prefetches) every key's home cache
    /// line — both halves during a resize — so the misses overlap; pass two
    /// resolves each key with the ordinary scalar probe. Results and charged
    /// statistics are exactly those of per-key [`lookup`](Self::lookup)
    /// calls in key order; only the memory-access schedule differs. At most
    /// [`crate::LOOKUP_BATCH`] keys per call.
    pub fn lookup_batch(
        &mut self,
        hashes: &[u64],
        out: &mut [Option<u64>],
        mut is_match: impl FnMut(usize, u64) -> bool,
    ) {
        assert!(
            hashes.len() <= crate::table::LOOKUP_BATCH,
            "batch exceeds LOOKUP_BATCH"
        );
        assert!(out.len() >= hashes.len(), "output buffer too small");
        for &hash in hashes {
            std::hint::black_box(self.groups[(hash & self.mask) as usize].tags);
            if let Some(old) = &self.old {
                std::hint::black_box(old.groups[(hash & old.mask) as usize].tags);
            }
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
    /// `rehash` re-derives the hash of a stored offset (used to migrate one
    /// old group if a resize is in progress).
    pub fn insert(&mut self, hash: u64, offset: u64, rehash: impl FnMut(u64) -> u64) {
        assert!(offset <= OFF_MASK, "offset exceeds 48 bits");
        if self.old.is_none() && self.over_ceiling() && self.max_load_eighths < 8 {
            self.begin_resize(self.groups.len() * 2);
        }
        assert!(
            self.len + self.tombs < self.groups.len() * GROUP_SLOTS,
            "packed table full"
        );
        let reused_tomb = Self::place(&mut self.groups, self.mask, hash, offset);
        if reused_tomb {
            self.tombs -= 1;
        }
        self.len += 1;
        self.migrate_step(rehash);
    }

    /// Raw placement into one half: bounded linear group probing from the
    /// home group, setting the sticky `OVERFLOWED` bit on every full group
    /// passed. Returns whether a tombstone lane was reused.
    fn place(groups: &mut [Group], mask: u64, hash: u64, offset: u64) -> bool {
        let tag = tag_of(hash);
        let mut idx = (hash & mask) as usize;
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
            g.set_flag(CTRL_OVERFLOWED);
            idx = (idx + 1) & mask as usize;
        }
    }

    /// Replaces the offset of an existing entry (out-of-place update: same
    /// key, new item location). Returns the old offset.
    pub fn replace(
        &mut self,
        hash: u64,
        new_offset: u64,
        mut is_match: impl FnMut(u64) -> bool,
        rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        assert!(new_offset <= OFF_MASK, "offset exceeds 48 bits");
        let tag = tag_of(hash);
        let old_mask = self.old.as_ref().map(|o| o.mask);
        let halves: [Option<(&mut [Group], u64)>; 2] = [
            Some((&mut self.groups, self.mask)),
            self.old
                .as_mut()
                .map(|o| (&mut o.groups[..], old_mask.expect("old half present"))),
        ];
        let mut found = None;
        'halves: for half in halves.into_iter().flatten() {
            let (groups, mask) = half;
            let mut idx = (hash & mask) as usize;
            for _ in 0..groups.len() {
                let g = &mut groups[idx];
                let mut m = g.match_mask(tag);
                while m != 0 {
                    let lane = lane_of(m);
                    m &= m - 1;
                    let off = g.slots[lane];
                    if is_match(off) {
                        g.slots[lane] = new_offset;
                        found = Some(off);
                        break 'halves;
                    }
                }
                if !g.chains_on() {
                    continue 'halves;
                }
                idx = (idx + 1) & mask as usize;
            }
        }
        if found.is_some() {
            self.migrate_step(rehash);
        }
        found
    }

    /// Removes the entry for `hash` confirmed by `is_match`; returns its
    /// offset. Writes a tombstone when the group has overflowed (probe
    /// chains must keep walking through it) and a plain empty lane
    /// otherwise.
    pub fn remove(
        &mut self,
        hash: u64,
        mut is_match: impl FnMut(u64) -> bool,
        rehash: impl FnMut(u64) -> u64,
    ) -> Option<u64> {
        let tag = tag_of(hash);
        let mut removed = None;
        let mut main_tomb = false;
        'done: for half in 0..2 {
            let (groups, mask) = match half {
                0 => (&mut self.groups[..], self.mask),
                _ => match &mut self.old {
                    Some(o) => (&mut o.groups[..], o.mask),
                    None => break,
                },
            };
            let mut idx = (hash & mask) as usize;
            for _ in 0..groups.len() {
                let g = &mut groups[idx];
                let mut m = g.match_mask(tag);
                while m != 0 {
                    let lane = lane_of(m);
                    m &= m - 1;
                    let off = g.slots[lane];
                    if is_match(off) {
                        let tomb = g.overflowed();
                        g.set_tag(lane, if tomb { TAG_TOMB } else { TAG_EMPTY });
                        g.slots[lane] = 0;
                        removed = Some(off);
                        main_tomb = tomb && half == 0;
                        break 'done;
                    }
                }
                if !g.chains_on() {
                    break;
                }
                idx = (idx + 1) & mask as usize;
            }
        }
        if let Some(_off) = removed {
            self.len -= 1;
            if main_tomb {
                self.tombs += 1;
            }
            // Tombstone debt in a non-resizing table degrades probes without
            // growing len; a same-size incremental rebuild purges it.
            if self.old.is_none()
                && self.tombs * 4 > self.groups.len() * GROUP_SLOTS
                && self.max_load_eighths < 8
            {
                self.begin_resize(self.groups.len());
            }
            self.migrate_step(rehash);
        }
        removed
    }

    /// Installs a fresh group array and turns the current one into the old
    /// half; entries migrate one group per subsequent mutation.
    fn begin_resize(&mut self, new_groups: usize) {
        debug_assert!(self.old.is_none(), "nested resize");
        let n = new_groups.next_power_of_two().max(1);
        let fresh = vec![Group::default(); n].into_boxed_slice();
        let old_groups = std::mem::replace(&mut self.groups, fresh);
        self.old = Some(OldHalf {
            groups: old_groups,
            mask: self.mask,
            pos: 0,
        });
        self.mask = (n - 1) as u64;
        self.stats.resizes += 1;
        self.stats.tombstones_purged += self.tombs as u64;
        self.tombs = 0;
    }

    /// Migrates one old group into the live half (the issue's "split one
    /// group per mutation"), re-deriving each entry's home via `rehash`.
    /// Drained groups are flagged `MIGRATED` so probe chains keep walking
    /// through them; a fully drained old half is freed.
    fn migrate_step(&mut self, mut rehash: impl FnMut(u64) -> u64) {
        let Some(old) = &mut self.old else {
            return;
        };
        if old.pos < old.groups.len() {
            let g = old.groups[old.pos];
            for lane in g.live_lanes() {
                let off = g.slots[lane];
                Self::place(&mut self.groups, self.mask, rehash(off), off);
                self.stats.displacements += 1;
            }
            let drained = &mut old.groups[old.pos];
            *drained = Group::default();
            drained.set_flag(CTRL_MIGRATED);
            debug_assert!(drained.migrated() && drained.chains_on());
            old.pos += 1;
            self.stats.migrated_groups += 1;
        }
        if old.pos >= old.groups.len() {
            self.old = None;
        }
    }

    /// Visits every stored offset (diagnostics, migration, eviction scans).
    pub fn for_each(&self, mut f: impl FnMut(u64)) {
        for g in self
            .groups
            .iter()
            .chain(self.old.iter().flat_map(|o| o.groups.iter()))
        {
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
            .field("resizing", &self.is_resizing())
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

    #[test]
    fn lookups_succeed_mid_resize_from_both_halves() {
        let mut m = Model::new(1);
        let mut inserted = Vec::new();
        // Insert until a resize is in progress, then verify every key while
        // entries are split across the halves.
        for i in 0..100_000 {
            let k = format!("mid-{i}").into_bytes();
            m.insert(&k);
            inserted.push(k);
            if m.table.is_resizing() {
                let (pos, total) = m.table.resize_progress();
                if pos * 2 < total {
                    break; // less than half migrated: both halves populated
                }
            }
        }
        assert!(m.table.is_resizing(), "never caught a resize in flight");
        for k in &inserted {
            assert!(m.lookup(k).is_some(), "{}", String::from_utf8_lossy(k));
        }
    }

    #[test]
    fn drained_halves_are_freed_at_once() {
        let mut m = Model::new(1);
        for i in 0..4_000 {
            m.insert(format!("rt-{i}").as_bytes());
        }
        // Drive any in-flight migration to completion with removes.
        let mut i = 0;
        while m.table.is_resizing() {
            m.remove(format!("rt-{i}").as_bytes());
            i += 1;
        }
        assert!(m.table.stats().resizes >= 3, "growth must have happened");
        assert_eq!(
            m.table.mem_bytes(),
            m.table.groups.len() * std::mem::size_of::<Group>(),
            "no drained half may be held"
        );
    }

    #[test]
    fn grows_from_one_page_through_eight_doublings() {
        let mut m = Model::new(1);
        m.table = PackedTable::default();
        assert_eq!(m.table.mem_bytes(), 4096, "one page before any insert");
        let mut keys: Vec<Vec<u8>> = Vec::new();
        let mut offs = Vec::new();
        let mut doublings = 0;
        let mut was_resizing = false;
        while doublings < 8 {
            let k = format!("pg-{}", keys.len()).into_bytes();
            offs.push(m.insert(&k));
            keys.push(k);
            let resizing = m.table.is_resizing();
            // Every key after every insert while the table holds 4 K entries
            // (four doublings, each mid-resize); past that, every key at each
            // quarter of a migration and at its start and end, and the new
            // key always, so the check stays linear in debug builds.
            let (pos, total) = m.table.resize_progress();
            let all = keys.len() <= 4096
                || resizing != was_resizing
                || (resizing && pos % (total / 4) == 0);
            let from = if all { 0 } else { keys.len() - 1 };
            for (k, &o) in keys.iter().zip(&offs).skip(from) {
                assert_eq!(m.lookup(k), Some(o), "{}", String::from_utf8_lossy(k));
            }
            if was_resizing && !resizing {
                doublings += 1;
                assert_eq!(
                    m.table.mem_bytes(),
                    m.table.groups.len() * std::mem::size_of::<Group>(),
                    "a completed resize holds its live array alone"
                );
            }
            was_resizing = resizing;
        }
        assert_eq!(m.table.groups.len(), 64 << 8);
        assert_eq!(m.table.stats().resizes, 8);
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
            let n = rng.gen_range(1..=crate::table::LOOKUP_BATCH);
            let keys: Vec<Vec<u8>> = (0..n)
                .map(|_| format!("bk-{}", rng.gen_range(0..400)).into_bytes())
                .collect();
            let hashes: Vec<u64> = keys.iter().map(|k| hash_key(k)).collect();
            let mut out = [None; crate::table::LOOKUP_BATCH];
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
        let hashes = [0u64; crate::table::LOOKUP_BATCH + 1];
        let mut out = [None; crate::table::LOOKUP_BATCH + 1];
        t.lookup_batch(&hashes, &mut out, |_, _| false);
    }

    #[test]
    fn for_each_visits_every_entry_once_even_mid_resize() {
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

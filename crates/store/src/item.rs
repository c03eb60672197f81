//! Item layout and the guardian-word consistency protocol (§4.2.3).
//!
//! Every key-value pair is laid out in registered memory as:
//!
//! ```text
//! word 0              : header  [klen:16][vlen:32][pop:8][clock:1][version:7]
//! words 1 .. 1+kw     : key bytes   (kw = ceil(klen/8))
//! next vw words       : value bytes (vw = ceil(vlen/8))
//! next word           : guardian  (GUARD_VALID | GUARD_DEAD)
//! last word           : lease     (absolute expiry, virtual ns)
//! ```
//!
//! Items are **immutable after publication** except for the guardian, lease,
//! popularity and flags fields. Updates are out-of-place: the shard allocates
//! a fresh item and atomically flips the old guardian to `GUARD_DEAD`. A
//! remote RDMA Read always fetches through the guardian word, so a client can
//! detect that it retrieved a superseded item and fall back to the message
//! path. The lease word delays physical reclamation (see
//! [`crate::reclaim`]).

use std::sync::atomic::{AtomicU64, Ordering};

/// Guardian value of a live item.
pub const GUARD_VALID: u64 = 0xA11C_E5A1_1D00_0001;
/// Guardian value of a deleted/superseded item.
pub const GUARD_DEAD: u64 = 0xDEAD_17E4_0000_0000;

/// Errors from item parsing/validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemError {
    /// The guardian word says the item was deleted or superseded.
    Stale,
    /// The bytes do not parse as an item for the expected key (memory was
    /// reclaimed and reused, or the fetch raced an in-flight write).
    Corrupt,
    /// The supplied buffer is shorter than the item claims to be.
    Truncated,
}

const KLEN_BITS: u64 = 16;
const VLEN_BITS: u64 = 32;
const KLEN_MASK: u64 = (1 << KLEN_BITS) - 1;
const VLEN_MASK: u64 = (1 << VLEN_BITS) - 1;
const POP_SHIFT: u64 = KLEN_BITS + VLEN_BITS; // 48
const FLAG_SHIFT: u64 = POP_SHIFT + 8; // 56
/// CLOCK reference bit used by cache-mode eviction.
pub const FLAG_CLOCK_REF: u64 = 1;
/// Version counter bits (7-bit, wraps mod 128), packed above the CLOCK bit.
const VERSION_SHIFT: u64 = FLAG_SHIFT + 1; // 57
const VERSION_MASK: u64 = 0x7F;

/// Number of words an item with the given key/value lengths occupies.
#[inline]
pub const fn item_words(klen: usize, vlen: usize) -> u32 {
    (1 + klen.div_ceil(8) + vlen.div_ceil(8) + 2) as u32
}

/// Byte length a remote reader must fetch to cover header..guardian.
#[inline]
pub const fn rdma_read_len(klen: usize, vlen: usize) -> u32 {
    ((1 + klen.div_ceil(8) + vlen.div_ceil(8) + 1) * 8) as u32
}

/// A view of an item at a word offset inside an arena's word slice.
///
/// All methods take the word slice explicitly so the same accessor works on
/// the shard's own arena and (in tests) on fetched copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ItemRef {
    /// Word offset of the item header within the region.
    pub off: u64,
}

impl ItemRef {
    /// Writes a brand-new item at `off` with version 0. The guardian is
    /// published last with `Release` ordering, making the item bytes visible
    /// to any reader that observes `GUARD_VALID`.
    pub fn write_new(words: &[AtomicU64], off: u64, key: &[u8], value: &[u8]) -> ItemRef {
        Self::write_new_versioned(words, off, key, value, 0)
    }

    /// [`Self::write_new`] stamping an explicit item version (mod 128). The
    /// version lives in the header word, which is stored *before* the
    /// guardian publication, so any fetch that validates also reads a
    /// consistent version — the replica-pointer export path relies on this
    /// to detect a replica copy lagging behind the primary.
    pub fn write_new_versioned(
        words: &[AtomicU64],
        off: u64,
        key: &[u8],
        value: &[u8],
        version: u8,
    ) -> ItemRef {
        assert!(key.len() <= KLEN_MASK as usize, "key too long");
        assert!(value.len() <= VLEN_MASK as usize, "value too long");
        let kw = key.len().div_ceil(8);
        let vw = value.len().div_ceil(8);
        let base = off as usize;
        let header = (key.len() as u64)
            | ((value.len() as u64) << KLEN_BITS)
            | (((version as u64) & VERSION_MASK) << VERSION_SHIFT);
        words[base].store(header, Ordering::Relaxed);
        Self::store_bytes(words, base + 1, key);
        Self::store_bytes(words, base + 1 + kw, value);
        words[base + 1 + kw + vw].store(GUARD_VALID, Ordering::Release);
        words[base + 1 + kw + vw + 1].store(0, Ordering::Relaxed);
        ItemRef { off }
    }

    fn store_bytes(words: &[AtomicU64], mut w: usize, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            words[w].store(u64::from_le_bytes(c.try_into().unwrap()), Ordering::Relaxed);
            w += 1;
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            words[w].store(u64::from_le_bytes(buf), Ordering::Relaxed);
        }
    }

    fn load_bytes(words: &[AtomicU64], w: usize, len: usize, out: &mut Vec<u8>) {
        let full = len / 8;
        for i in 0..full {
            out.extend_from_slice(&words[w + i].load(Ordering::Relaxed).to_le_bytes());
        }
        let rem = len % 8;
        if rem != 0 {
            let v = words[w + full].load(Ordering::Relaxed).to_le_bytes();
            out.extend_from_slice(&v[..rem]);
        }
    }

    #[inline]
    fn header(&self, words: &[AtomicU64]) -> u64 {
        words[self.off as usize].load(Ordering::Relaxed)
    }

    /// Key length in bytes.
    #[inline]
    pub fn klen(&self, words: &[AtomicU64]) -> usize {
        (self.header(words) & KLEN_MASK) as usize
    }

    /// Value length in bytes.
    #[inline]
    pub fn vlen(&self, words: &[AtomicU64]) -> usize {
        ((self.header(words) >> KLEN_BITS) & VLEN_MASK) as usize
    }

    /// Total words occupied (header through lease).
    pub fn total_words(&self, words: &[AtomicU64]) -> u32 {
        item_words(self.klen(words), self.vlen(words))
    }

    /// Bytes a remote reader fetches (header through guardian).
    pub fn read_len(&self, words: &[AtomicU64]) -> u32 {
        rdma_read_len(self.klen(words), self.vlen(words))
    }

    /// Copies the key out.
    pub fn key(&self, words: &[AtomicU64]) -> Vec<u8> {
        let klen = self.klen(words);
        let mut out = Vec::with_capacity(klen);
        Self::load_bytes(words, self.off as usize + 1, klen, &mut out);
        out
    }

    /// Compares the stored key against `key` without allocating.
    pub fn key_eq(&self, words: &[AtomicU64], key: &[u8]) -> bool {
        let klen = self.klen(words);
        if klen != key.len() {
            return false;
        }
        let base = self.off as usize + 1;
        let mut chunks = key.chunks_exact(8);
        let mut w = base;
        for c in chunks.by_ref() {
            if words[w].load(Ordering::Relaxed) != u64::from_le_bytes(c.try_into().unwrap()) {
                return false;
            }
            w += 1;
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            if words[w].load(Ordering::Relaxed) != u64::from_le_bytes(buf) {
                return false;
            }
        }
        true
    }

    /// Lexicographic order of the stored key against `probe`, without
    /// allocating: the ordered index keeps arena offsets, not keys, and
    /// searches its leaves through this.
    pub fn key_cmp(&self, words: &[AtomicU64], probe: &[u8]) -> std::cmp::Ordering {
        cmp_packed(words, self.off as usize + 1, self.klen(words), probe)
    }

    /// Lexicographic order of the stored key against `other`'s, copying
    /// neither: keys are zero-padded to whole words, so comparing the
    /// shorter key's words as big-endian integers, then the lengths, orders
    /// them as byte strings. A shard sorts its offsets by this when it builds
    /// its ordered view.
    pub fn key_cmp_item(&self, words: &[AtomicU64], other: ItemRef) -> std::cmp::Ordering {
        let (len, other_len) = (self.klen(words), other.klen(words));
        let (base, other_base) = (self.off as usize + 1, other.off as usize + 1);
        for i in 0..len.min(other_len).div_ceil(8) {
            let mine = words[base + i].load(Ordering::Relaxed).swap_bytes();
            let theirs = words[other_base + i].load(Ordering::Relaxed).swap_bytes();
            if mine != theirs {
                return mine.cmp(&theirs);
            }
        }
        len.cmp(&other_len)
    }

    /// Replaces `out`'s contents with the key bytes (no allocation once
    /// `out` has grown past the largest key).
    pub fn key_into(&self, words: &[AtomicU64], out: &mut Vec<u8>) {
        out.clear();
        Self::load_bytes(words, self.off as usize + 1, self.klen(words), out);
    }

    /// Hashes the stored key without allocating — byte-for-byte identical to
    /// [`crate::hash_key`] on the key bytes. This is what lets the packed
    /// index re-derive an entry's home group when it rebuilds from nothing
    /// but the 48-bit offset in the bucket line: index entries always
    /// reference live items, so the key bytes are immutably present.
    pub fn stored_key_hash(&self, words: &[AtomicU64]) -> u64 {
        let klen = self.klen(words);
        let mut h: u64 = crate::FNV_OFFSET;
        let mut w = self.off as usize + 1;
        let mut remaining = klen;
        while remaining > 0 {
            let v = words[w].load(Ordering::Relaxed);
            let take = remaining.min(8);
            for i in 0..take {
                h ^= (v >> (i * 8)) & 0xFF;
                h = h.wrapping_mul(crate::FNV_PRIME);
            }
            w += 1;
            remaining -= take;
        }
        crate::avalanche(h)
    }

    /// Copies the value out.
    pub fn value(&self, words: &[AtomicU64]) -> Vec<u8> {
        let vlen = self.vlen(words);
        let mut out = Vec::with_capacity(vlen);
        self.value_into(words, &mut out);
        out
    }

    /// Appends the value bytes to `out` — the zero-allocation variant the
    /// server's GET hot path uses with a reused scratch buffer.
    pub fn value_into(&self, words: &[AtomicU64], out: &mut Vec<u8>) {
        let klen = self.klen(words);
        let vlen = self.vlen(words);
        out.reserve(vlen);
        Self::load_bytes(words, self.off as usize + 1 + klen.div_ceil(8), vlen, out);
    }

    fn guardian_word(&self, words: &[AtomicU64]) -> usize {
        self.off as usize + 1 + self.klen(words).div_ceil(8) + self.vlen(words).div_ceil(8)
    }

    /// Loads the guardian with `Acquire` (pairs with the publication store).
    pub fn guardian(&self, words: &[AtomicU64]) -> u64 {
        words[self.guardian_word(words)].load(Ordering::Acquire)
    }

    /// Whether the item is live.
    pub fn is_valid(&self, words: &[AtomicU64]) -> bool {
        self.guardian(words) == GUARD_VALID
    }

    /// Atomically flips the guardian to `GUARD_DEAD`. Returns `true` if the
    /// item was live (i.e. this call performed the kill).
    pub fn kill(&self, words: &[AtomicU64]) -> bool {
        let w = self.guardian_word(words);
        words[w]
            .compare_exchange(GUARD_VALID, GUARD_DEAD, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    fn lease_word(&self, words: &[AtomicU64]) -> usize {
        self.guardian_word(words) + 1
    }

    /// Current lease expiry (absolute virtual ns; 0 = never leased).
    pub fn lease(&self, words: &[AtomicU64]) -> u64 {
        words[self.lease_word(words)].load(Ordering::Relaxed)
    }

    /// Extends the lease to `expiry` if that is later than the current one.
    pub fn extend_lease(&self, words: &[AtomicU64], expiry: u64) {
        let w = self.lease_word(words);
        let cur = words[w].load(Ordering::Relaxed);
        if expiry > cur {
            words[w].store(expiry, Ordering::Relaxed);
        }
    }

    /// Saturating popularity counter (0..=255), bumped on each server-side
    /// access; drives the 1–64 s lease-term scaling.
    pub fn popularity(&self, words: &[AtomicU64]) -> u8 {
        ((self.header(words) >> POP_SHIFT) & 0xFF) as u8
    }

    /// Increments the popularity counter (saturating).
    pub fn bump_popularity(&self, words: &[AtomicU64]) {
        let h = self.header(words);
        let pop = (h >> POP_SHIFT) & 0xFF;
        if pop < 0xFF {
            words[self.off as usize].store(h + (1 << POP_SHIFT), Ordering::Relaxed);
        }
    }

    /// Stores the popularity counter outright — how a replace carries the
    /// old item's popularity to the new one in one header write.
    pub fn set_popularity(&self, words: &[AtomicU64], pop: u8) {
        let h = self.header(words) & !(0xFF << POP_SHIFT);
        words[self.off as usize].store(h | ((pop as u64) << POP_SHIFT), Ordering::Relaxed);
    }

    /// Item version (mod 128), stamped at write time. Fresh inserts start at
    /// 0; each out-of-place replace bumps it, so a replica copy whose version
    /// differs from the primary's is observably stale even while its own
    /// guardian still reads `GUARD_VALID`.
    pub fn version(&self, words: &[AtomicU64]) -> u8 {
        ((self.header(words) >> VERSION_SHIFT) & VERSION_MASK) as u8
    }

    /// Reads the CLOCK reference bit.
    pub fn clock_ref(&self, words: &[AtomicU64]) -> bool {
        (self.header(words) >> FLAG_SHIFT) & FLAG_CLOCK_REF != 0
    }

    /// Sets or clears the CLOCK reference bit.
    pub fn set_clock_ref(&self, words: &[AtomicU64], on: bool) {
        let h = self.header(words);
        let nh = if on {
            h | (FLAG_CLOCK_REF << FLAG_SHIFT)
        } else {
            h & !(FLAG_CLOCK_REF << FLAG_SHIFT)
        };
        if nh != h {
            words[self.off as usize].store(nh, Ordering::Relaxed);
        }
    }
}

/// Lexicographic order of the `len` bytes packed little-endian from word
/// `base` on — how items and the ordered index's slabs store keys — against
/// `probe`, a word at a time: byte-swapped, a word compares like its eight
/// bytes do.
pub(crate) fn cmp_packed(
    words: &[AtomicU64],
    base: usize,
    len: usize,
    probe: &[u8],
) -> std::cmp::Ordering {
    for (i, chunk) in probe[..len.min(probe.len())].chunks(8).enumerate() {
        let unused = 8 * (8 - chunk.len()) as u32;
        let stored = words[base + i].load(Ordering::Relaxed).swap_bytes() >> unused;
        let mut be = [0u8; 8];
        be[8 - chunk.len()..].copy_from_slice(chunk);
        let probed = u64::from_be_bytes(be);
        if stored != probed {
            return stored.cmp(&probed);
        }
    }
    len.cmp(&probe.len())
}

/// Client-side validation of a blob fetched by a one-sided RDMA Read.
///
/// The blob must start at the item header and span
/// [`rdma_read_len`] bytes. Validation checks, in order: structural
/// consistency (lengths fit the blob), the guardian magic, and that the item
/// really holds `expected_key` — which defends even against the
/// reclaimed-and-reused case that the lease protocol is designed to prevent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchedItem {
    /// The value bytes extracted from the blob.
    pub value: Vec<u8>,
    /// The item version stamped in the fetched header (mod 128).
    pub version: u8,
}

impl FetchedItem {
    /// Parses and validates a fetched blob.
    pub fn parse(blob: &[u8], expected_key: &[u8]) -> Result<FetchedItem, ItemError> {
        if blob.len() < 16 {
            return Err(ItemError::Truncated);
        }
        let header = u64::from_le_bytes(blob[0..8].try_into().unwrap());
        let klen = (header & KLEN_MASK) as usize;
        let vlen = ((header >> KLEN_BITS) & VLEN_MASK) as usize;
        let need = rdma_read_len(klen, vlen) as usize;
        if blob.len() < need {
            return Err(ItemError::Truncated);
        }
        let kw = klen.div_ceil(8);
        let vw = vlen.div_ceil(8);
        let guard_off = (1 + kw + vw) * 8;
        let guardian = u64::from_le_bytes(blob[guard_off..guard_off + 8].try_into().unwrap());
        if guardian == GUARD_DEAD {
            return Err(ItemError::Stale);
        }
        if guardian != GUARD_VALID {
            return Err(ItemError::Corrupt);
        }
        let key = &blob[8..8 + klen];
        if key != expected_key {
            return Err(ItemError::Corrupt);
        }
        let vstart = (1 + kw) * 8;
        Ok(FetchedItem {
            value: blob[vstart..vstart + vlen].to_vec(),
            version: ((header >> VERSION_SHIFT) & VERSION_MASK) as u8,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arena_words(n: usize) -> Vec<AtomicU64> {
        (0..n).map(|_| AtomicU64::new(0)).collect()
    }

    fn blob_of(words: &[AtomicU64], item: ItemRef) -> Vec<u8> {
        let len = item.read_len(words) as usize;
        let mut out = Vec::with_capacity(len);
        for w in 0..len / 8 {
            out.extend_from_slice(
                &words[item.off as usize + w]
                    .load(Ordering::Relaxed)
                    .to_le_bytes(),
            );
        }
        out
    }

    #[test]
    fn key_cmp_orders_like_byte_slices() {
        // Against a probe and against a second stored key: every pair from
        // a set built to differ in the first word, in a later word, in the
        // zero-padded tail, in length only, and not at all — including the
        // empty key and bytes above 0x7F.
        let keys: [&[u8]; 12] = [
            b"",
            b"\0",
            b"a",
            b"a\0",
            b"ab",
            b"abcdefgh",
            b"abcdefgh\0",
            b"abcdefghi",
            b"abcdefgi",
            b"abcdefghijklmnop",
            b"abcdefghijklmnoq",
            b"\xff\x80",
        ];
        let words = arena_words(64);
        let mut key_buf = Vec::new();
        for stored in keys {
            let item = ItemRef::write_new(&words, 5, stored, b"v");
            item.key_into(&words, &mut key_buf);
            assert_eq!(key_buf, stored);
            for probe in keys {
                assert_eq!(
                    item.key_cmp(&words, probe),
                    stored.cmp(probe),
                    "{stored:?} vs {probe:?}"
                );
                let other = ItemRef::write_new(&words, 40, probe, b"w");
                assert_eq!(
                    item.key_cmp_item(&words, other),
                    stored.cmp(probe),
                    "{stored:?} vs stored {probe:?}"
                );
            }
        }
    }

    #[test]
    fn write_and_read_back() {
        let words = arena_words(64);
        let item = ItemRef::write_new(&words, 3, b"user:42", b"hello world value");
        assert_eq!(item.klen(&words), 7);
        assert_eq!(item.vlen(&words), 17);
        assert_eq!(item.key(&words), b"user:42");
        assert_eq!(item.value(&words), b"hello world value");
        assert!(item.is_valid(&words));
        assert!(item.key_eq(&words, b"user:42"));
        assert!(!item.key_eq(&words, b"user:43"));
        assert!(!item.key_eq(&words, b"user:4"));
        assert_eq!(item.total_words(&words), item_words(7, 17));
    }

    #[test]
    fn stored_key_hash_matches_hash_key() {
        let words = arena_words(128);
        let mut off = 0u64;
        for key in [
            &b""[..],
            b"k",
            b"8bytes!!",
            b"user:42",
            b"key16bytes......",
            b"a-rather-long-key-spanning-several-words",
        ] {
            let item = ItemRef::write_new(&words, off, key, b"v");
            assert_eq!(
                item.stored_key_hash(&words),
                crate::hash_key(key),
                "key {:?}",
                String::from_utf8_lossy(key)
            );
            off += item.total_words(&words) as u64;
        }
    }

    #[test]
    fn empty_key_and_value() {
        let words = arena_words(8);
        let item = ItemRef::write_new(&words, 0, b"", b"");
        assert_eq!(item.klen(&words), 0);
        assert_eq!(item.vlen(&words), 0);
        assert_eq!(item.total_words(&words), 3);
        assert!(item.is_valid(&words));
    }

    #[test]
    fn kill_is_idempotent_and_one_shot() {
        let words = arena_words(16);
        let item = ItemRef::write_new(&words, 0, b"k", b"v");
        assert!(item.kill(&words));
        assert!(!item.kill(&words), "second kill must report already-dead");
        assert!(!item.is_valid(&words));
        assert_eq!(item.guardian(&words), GUARD_DEAD);
    }

    #[test]
    fn lease_extends_monotonically() {
        let words = arena_words(16);
        let item = ItemRef::write_new(&words, 0, b"k", b"v");
        assert_eq!(item.lease(&words), 0);
        item.extend_lease(&words, 1_000);
        item.extend_lease(&words, 500); // shorter: ignored
        assert_eq!(item.lease(&words), 1_000);
        item.extend_lease(&words, 2_000);
        assert_eq!(item.lease(&words), 2_000);
    }

    #[test]
    fn popularity_saturates() {
        let words = arena_words(16);
        let item = ItemRef::write_new(&words, 0, b"k", b"v");
        for _ in 0..300 {
            item.bump_popularity(&words);
        }
        assert_eq!(item.popularity(&words), 255);
        // Lengths unchanged by popularity writes.
        assert_eq!(item.klen(&words), 1);
        assert_eq!(item.vlen(&words), 1);
    }

    #[test]
    fn set_popularity_writes_the_header_the_bump_loop_wrote() {
        // A replace used to carry popularity over by bumping the new item
        // once per unit; one store must leave the identical header
        // (popularity, version, lengths and flags).
        let words = arena_words(32);
        for pop in 0..=255u8 {
            let looped = ItemRef::write_new_versioned(&words, 0, b"key", b"value!", 42);
            for _ in 0..pop {
                looped.bump_popularity(&words);
            }
            let stored = ItemRef::write_new_versioned(&words, 16, b"key", b"value!", 42);
            stored.set_popularity(&words, pop);
            assert_eq!(stored.header(&words), looped.header(&words), "pop {pop}");
            assert_eq!(stored.popularity(&words), pop);
            assert_eq!(stored.version(&words), 42);
            assert_eq!((stored.klen(&words), stored.vlen(&words)), (3, 6));
        }
    }

    #[test]
    fn version_roundtrips_and_survives_flag_and_pop_writes() {
        let words = arena_words(16);
        let item = ItemRef::write_new_versioned(&words, 0, b"k", b"v", 93);
        assert_eq!(item.version(&words), 93);
        item.set_clock_ref(&words, true);
        for _ in 0..300 {
            item.bump_popularity(&words);
        }
        item.set_clock_ref(&words, false);
        assert_eq!(item.version(&words), 93);
        assert_eq!(item.klen(&words), 1);
        assert_eq!(item.vlen(&words), 1);
        // Fresh writes default to version 0; versions wrap at 7 bits.
        let v0 = ItemRef::write_new(&words, 8, b"k", b"v");
        assert_eq!(v0.version(&words), 0);
        let wrapped = ItemRef::write_new_versioned(&words, 8, b"k", b"v", 128);
        assert_eq!(wrapped.version(&words), 0);
    }

    #[test]
    fn fetched_item_reports_version() {
        let words = arena_words(32);
        let item = ItemRef::write_new_versioned(&words, 0, b"vkey", b"vvalue", 17);
        let blob = blob_of(&words, item);
        let f = FetchedItem::parse(&blob, b"vkey").unwrap();
        assert_eq!(f.value, b"vvalue");
        assert_eq!(f.version, 17);
    }

    #[test]
    fn clock_bit_roundtrip() {
        let words = arena_words(16);
        let item = ItemRef::write_new(&words, 0, b"k", b"v");
        assert!(!item.clock_ref(&words));
        item.set_clock_ref(&words, true);
        assert!(item.clock_ref(&words));
        item.set_clock_ref(&words, false);
        assert!(!item.clock_ref(&words));
    }

    #[test]
    fn fetched_item_validates_live_blob() {
        let words = arena_words(32);
        let item = ItemRef::write_new(&words, 0, b"key16bytes......", &[0xCD; 32]);
        let blob = blob_of(&words, item);
        let f = FetchedItem::parse(&blob, b"key16bytes......").unwrap();
        assert_eq!(f.value, vec![0xCD; 32]);
    }

    #[test]
    fn fetched_item_detects_staleness() {
        let words = arena_words(32);
        let item = ItemRef::write_new(&words, 0, b"k1", b"v1");
        item.kill(&words);
        let blob = blob_of(&words, item);
        assert_eq!(
            FetchedItem::parse(&blob, b"k1").unwrap_err(),
            ItemError::Stale
        );
    }

    #[test]
    fn fetched_item_detects_reuse_by_other_key() {
        let words = arena_words(32);
        // Memory got reclaimed and now holds a different key of equal length.
        let item = ItemRef::write_new(&words, 0, b"other-key", b"zzz");
        let blob = blob_of(&words, item);
        assert_eq!(
            FetchedItem::parse(&blob, b"cached-ke").unwrap_err(),
            ItemError::Corrupt
        );
    }

    #[test]
    fn fetched_item_detects_zeroed_memory() {
        let blob = vec![0u8; 64];
        // Header decodes as klen=0, vlen=0; guardian word is 0 -> corrupt.
        assert_eq!(
            FetchedItem::parse(&blob, b"").unwrap_err(),
            ItemError::Corrupt
        );
    }

    #[test]
    fn fetched_item_detects_truncation() {
        let words = arena_words(32);
        let item = ItemRef::write_new(&words, 0, b"key", b"a-long-enough-value");
        let blob = blob_of(&words, item);
        assert_eq!(
            FetchedItem::parse(&blob[..blob.len() - 8], b"key").unwrap_err(),
            ItemError::Truncated
        );
        assert_eq!(
            FetchedItem::parse(&[], b"key").unwrap_err(),
            ItemError::Truncated
        );
    }

    #[test]
    fn concurrent_readers_see_valid_or_dead_never_torn() {
        use std::sync::Arc;
        let words: Arc<Vec<AtomicU64>> = Arc::new(arena_words(32));
        let item = ItemRef::write_new(&words, 0, b"race-key", b"race-value-0123456");
        let read_len = item.read_len(&words) as usize;
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut readers = Vec::new();
        for _ in 0..2 {
            let w = words.clone();
            let stop = stop.clone();
            readers.push(std::thread::spawn(move || {
                let mut outcomes = [0u64; 2];
                while !stop.load(Ordering::Relaxed) {
                    let mut blob = Vec::with_capacity(read_len);
                    for i in 0..read_len / 8 {
                        blob.extend_from_slice(&w[i].load(Ordering::Relaxed).to_le_bytes());
                    }
                    match FetchedItem::parse(&blob, b"race-key") {
                        Ok(f) => {
                            assert_eq!(f.value, b"race-value-0123456");
                            outcomes[0] += 1;
                        }
                        Err(ItemError::Stale) => outcomes[1] += 1,
                        Err(e) => panic!("unexpected: {e:?}"),
                    }
                    std::thread::yield_now();
                }
                outcomes
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        item.kill(&words);
        stop.store(true, Ordering::Relaxed);
        for r in readers {
            let _ = r.join().unwrap();
        }
    }
}

//! A bounded CLOCK cache with TinyLFU-style admission — the client-side
//! remote-pointer cache.
//!
//! Two requirements shape the structure (Storm, Novakovic et al.: pointer
//! caches only pay off when they stay bounded *and* hot):
//!
//! * **Bounded**: capacity is fixed at construction and nothing is committed
//!   for it: slots are appended as keys arrive, up to `capacity`, and the
//!   index doubles with them. Under overload the CLOCK hand evicts, so memory
//!   is `O(min(capacity, distinct keys cached))` no matter how many keys
//!   stream past.
//! * **Hot**: admission is gated by a [`FreqSketch`] — a newcomer only
//!   displaces the CLOCK victim when its estimated access frequency exceeds
//!   the victim's, so a scan of cold keys cannot flush the hot working set.
//!   The sketch is sized from `capacity` and consulted only by a full cache,
//!   so it is created when the cache first holds half its capacity
//!   (Caffeine's rule): until then no call touches it, and a cache that
//!   never gets there never pays for it. A cache that fills has counted
//!   every touch since it was half full.
//!
//! A cached pointer's lease is the caller's business: it travels inside the
//! value, and the message-path GET that re-caches a pointer is what extends
//! the lease on the server.
//!
//! # Layout
//!
//! One hash per call ([`hash_bytes`](crate::hash_bytes), the value the sketch
//! needs anyway) drives everything. The **index** is one open-addressed
//! array of 8-byte words, `(upper 32 hash bits, slot number + 1)`, 0 for an
//! empty word, at most half full; a key's home is the top bits of its hash,
//! so a word names its own home and neither growth nor deletion reads a
//! slot. Probing is linear; deletion shifts the rest of the run back, so
//! there are no tombstones and a lookup ends at the first empty word. The
//! **slot** holds the key itself (inline up to [`INLINE_KEY`] bytes, boxed
//! beyond), the full hash, the value and the CLOCK bit: a hit touches one
//! index line and the slot (and the four sketch rows once the cache has
//! been half full), and caching a short key allocates nothing beyond the
//! amortised growth of the two arrays.
//!
//! # Decisions
//!
//! What the cache admits, evicts and rejects is a function of the call
//! sequence alone and is pinned by `tests/proptest_clock.rs` against a
//! `HashMap` model: a freed slot is reused before an unused one, the most
//! recently freed first; unused slots are taken in ascending order; the hand
//! sweeps slot numbers in ascending order, wrapping at `capacity`.
//!
//! Interior mutability is one `RefCell`: every client on a node shares the
//! cache through an `Rc`, and those clients are callbacks of one
//! single-threaded event loop, so no call finds it borrowed (a `for_each`
//! closure that calls back into the cache would panic).

use std::cell::RefCell;

use crate::sketch::FreqSketch;

/// Longest key stored in the slot itself; with the length byte and the
/// variant tag it fills the three words a boxed key's variant occupies.
const INLINE_KEY: usize = 22;

/// Index words of a new cache: one cache line.
const MIN_INDEX: usize = 8;

enum Key {
    Inline { len: u8, bytes: [u8; INLINE_KEY] },
    Boxed(Box<[u8]>),
}

impl Key {
    fn new(key: &[u8]) -> Key {
        if key.len() <= INLINE_KEY {
            let mut bytes = [0; INLINE_KEY];
            bytes[..key.len()].copy_from_slice(key);
            Key::Inline {
                len: key.len() as u8,
                bytes,
            }
        } else {
            Key::Boxed(key.into())
        }
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Key::Inline { len, bytes } => &bytes[..*len as usize],
            Key::Boxed(bytes) => bytes,
        }
    }
}

struct Slot<V> {
    key: Key,
    hash: u64,
    value: V,
    /// CLOCK second-chance bit, set on every hit.
    referenced: bool,
}

/// The index word naming `slot` for a key hashing to `hash`.
fn index_word(hash: u64, slot: usize) -> u64 {
    (hash & !0xFFFF_FFFF) | (slot as u64 + 1)
}

struct Inner<V> {
    /// Slots ever used, at most `capacity`; `None` entries are free.
    slots: Vec<Option<Slot<V>>>,
    /// Open-addressed index over the occupied slots (see module docs);
    /// a power of two long.
    index: Vec<u64>,
    /// Freed slot numbers, reused last in, first out.
    free: Vec<u32>,
    /// Occupied slots.
    live: usize,
    /// CLOCK hand position.
    hand: usize,
    /// Created by the insert that first brings `live` to half of
    /// `capacity`.
    sketch: Option<FreqSketch>,
    stats: ClockCacheStats,
}

impl<V> Inner<V> {
    /// Records a touch of `hash` once the cache has been half full.
    fn touch(&mut self, hash: u64) {
        if let Some(sketch) = &mut self.sketch {
            sketch.touch(hash);
        }
    }

    /// Home position of a word (or hash) in the index: its top bits.
    fn home(&self, word: u64) -> usize {
        (word >> (64 - self.index.len().trailing_zeros())) as usize
    }

    /// Slot number of `key`.
    fn find(&self, hash: u64, key: &[u8]) -> Option<usize> {
        let mask = self.index.len() - 1;
        let mut pos = self.home(hash);
        loop {
            let word = self.index[pos];
            if word == 0 {
                return None;
            }
            if word >> 32 == hash >> 32 {
                let slot = (word as u32 - 1) as usize;
                let s = self.slots[slot].as_ref().expect("indexed slot occupied");
                if s.hash == hash && s.key.as_slice() == key {
                    return Some(slot);
                }
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Writes `word` into the first empty position of its probe run.
    fn place(&mut self, word: u64) {
        let mask = self.index.len() - 1;
        let mut pos = self.home(word);
        while self.index[pos] != 0 {
            pos = (pos + 1) & mask;
        }
        self.index[pos] = word;
    }

    /// Makes room in the index for one more entry at no more than half
    /// full, doubling it from its own words: no slot is read, so a key whose
    /// insertion triggered the doubling cannot be indexed twice.
    fn reserve_index(&mut self) {
        if (self.live + 1) * 2 <= self.index.len() {
            return;
        }
        let doubled = vec![0; self.index.len() * 2];
        let old = std::mem::replace(&mut self.index, doubled);
        for word in old.into_iter().filter(|&w| w != 0) {
            self.place(word);
        }
    }

    /// Empties index position `hole` and shifts the rest of its probe run
    /// back over it, so every remaining word stays reachable from its home.
    fn unindex(&mut self, mut hole: usize) {
        let mask = self.index.len() - 1;
        let mut pos = hole;
        loop {
            pos = (pos + 1) & mask;
            let word = self.index[pos];
            if word == 0 {
                break;
            }
            // The word may move back only as far as its home.
            let from_home = pos.wrapping_sub(self.home(word)) & mask;
            if from_home >= (pos.wrapping_sub(hole) & mask) {
                self.index[hole] = word;
                hole = pos;
            }
        }
        self.index[hole] = 0;
    }

    /// Empties slot `idx` and the index word naming it, which is found by
    /// value: no key is compared.
    fn vacate(&mut self, idx: usize) -> Slot<V> {
        let slot = self.slots[idx].take().expect("indexed slot occupied");
        let word = index_word(slot.hash, idx);
        let mut pos = self.home(word);
        while self.index[pos] != word {
            pos = (pos + 1) & (self.index.len() - 1);
        }
        self.unindex(pos);
        self.live -= 1;
        slot
    }
}

/// Statistics counters (monotonic since construction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClockCacheStats {
    /// Lookups that found a live entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries displaced by the CLOCK hand.
    pub evictions: u64,
    /// Insertions rejected by sketch admission (victim was hotter).
    pub rejected: u64,
}

/// Bounded CLOCK cache with sketch-gated admission. See module docs.
pub struct ClockCache<V> {
    inner: RefCell<Inner<V>>,
    capacity: usize,
}

impl<V: Clone> ClockCache<V> {
    /// Builds a cache holding at most `capacity` entries (and at most 2^31:
    /// an index word has 32 bits for the slot number and the index is kept
    /// half empty).
    pub fn new(capacity: usize) -> ClockCache<V> {
        let capacity = capacity.clamp(1, 1 << 31);
        ClockCache {
            inner: RefCell::new(Inner {
                slots: Vec::new(),
                index: vec![0; MIN_INDEX],
                free: Vec::new(),
                live: 0,
                hand: 0,
                sketch: None,
                stats: ClockCacheStats::default(),
            }),
            capacity,
        }
    }

    /// Maximum entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current live entries.
    pub fn len(&self) -> usize {
        self.inner.borrow().live
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> ClockCacheStats {
        self.inner.borrow().stats
    }

    /// Looks up `key`, cloning the value on a hit. Records the touch in the
    /// admission sketch, if there is one yet, and sets the slot's CLOCK
    /// reference bit.
    pub fn get(&self, key: &[u8]) -> Option<V> {
        let hash = crate::hash_bytes(key);
        let mut inner = self.inner.borrow_mut();
        inner.touch(hash);
        let Some(idx) = inner.find(hash, key) else {
            inner.stats.misses += 1;
            return None;
        };
        inner.stats.hits += 1;
        let slot = inner.slots[idx].as_mut().expect("indexed slot occupied");
        slot.referenced = true;
        Some(slot.value.clone())
    }

    /// Inserts or replaces `key`; `_expiry` is ignored. Replacement of an
    /// existing key always succeeds; a brand-new key entering a full cache
    /// must beat the CLOCK victim's sketch estimate or it is rejected
    /// (returns `false`). Rejected keys still record their touch, so a key
    /// that keeps arriving eventually qualifies.
    pub fn insert(&self, key: &[u8], value: V, _expiry: u64) -> bool {
        let hash = crate::hash_bytes(key);
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        inner.touch(hash);
        if let Some(idx) = inner.find(hash, key) {
            let slot = inner.slots[idx].as_mut().expect("indexed slot occupied");
            slot.value = value;
            slot.referenced = true;
            return true;
        }
        let idx = if let Some(idx) = inner.free.pop() {
            idx as usize
        } else if inner.slots.len() < self.capacity {
            inner.slots.push(None);
            inner.slots.len() - 1
        } else {
            // CLOCK sweep: clear reference bits until a victim surfaces,
            // then let the sketch arbitrate newcomer vs victim.
            let cap = self.capacity;
            let victim = loop {
                let hand = inner.hand;
                inner.hand = (hand + 1) % cap;
                let slot = inner.slots[hand].as_mut().expect("full cache: occupied");
                if slot.referenced {
                    slot.referenced = false;
                } else {
                    break hand;
                }
            };
            let victim_hash = inner.slots[victim].as_ref().expect("victim occupied").hash;
            let sketch = inner.sketch.as_ref().expect("a full cache was half full");
            if sketch.estimate(hash) <= sketch.estimate(victim_hash) {
                inner.stats.rejected += 1;
                return false;
            }
            inner.vacate(victim);
            inner.stats.evictions += 1;
            victim
        };
        inner.reserve_index();
        inner.slots[idx] = Some(Slot {
            key: Key::new(key),
            hash,
            value,
            referenced: true,
        });
        inner.place(index_word(hash, idx));
        inner.live += 1;
        if inner.live >= self.capacity / 2 {
            inner
                .sketch
                .get_or_insert_with(|| FreqSketch::new(self.capacity));
        }
        true
    }

    /// Removes `key`, returning its value.
    pub fn remove(&self, key: &[u8]) -> Option<V> {
        let mut inner = self.inner.borrow_mut();
        let idx = inner.find(crate::hash_bytes(key), key)?;
        inner.free.push(idx as u32);
        Some(inner.vacate(idx).value)
    }

    /// Visits a snapshot of live entries (diagnostics / tests).
    pub fn for_each(&self, mut f: impl FnMut(&[u8], &V)) {
        let inner = self.inner.borrow();
        for slot in inner.slots.iter().flatten() {
            f(slot.key.as_slice(), &slot.value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_under_overload() {
        let c: ClockCache<u64> = ClockCache::new(64);
        for i in 0..640u64 {
            c.insert(format!("k{i:05}").as_bytes(), i, 0);
        }
        assert!(c.len() <= 64, "cache exceeded capacity: {}", c.len());
        let mut count = 0;
        c.for_each(|_, _| count += 1);
        assert_eq!(count, c.len());
    }

    #[test]
    fn hot_keys_survive_cold_floods() {
        let c: ClockCache<u64> = ClockCache::new(32);
        // Establish a hot set with repeated touches.
        for round in 0..50 {
            for h in 0..16u64 {
                let key = format!("hot{h:02}");
                c.insert(key.as_bytes(), round, 0);
                c.get(key.as_bytes());
            }
        }
        // Flood with one-shot cold keys (10x capacity).
        for i in 0..320u64 {
            c.insert(format!("cold{i:04}").as_bytes(), i, 0);
        }
        let mut hot_alive = 0;
        for h in 0..16u64 {
            if c.get(format!("hot{h:02}").as_bytes()).is_some() {
                hot_alive += 1;
            }
        }
        assert!(
            hot_alive >= 12,
            "admission must protect the hot set: {hot_alive}/16 alive"
        );
        assert!(c.stats().rejected > 0, "cold keys must have been rejected");
    }

    #[test]
    fn replace_existing_key_always_succeeds() {
        let c: ClockCache<u64> = ClockCache::new(4);
        for i in 0..4u64 {
            assert!(c.insert(format!("k{i}").as_bytes(), i, 0));
        }
        // Full cache: replacing an existing key is not an admission decision.
        assert!(c.insert(b"k2", 99, 0));
        assert_eq!(c.get(b"k2"), Some(99));
    }

    #[test]
    fn remove_frees_a_slot() {
        let c: ClockCache<u64> = ClockCache::new(2);
        c.insert(b"a", 1, 0);
        c.insert(b"b", 2, 0);
        assert_eq!(c.remove(b"a"), Some(1));
        assert_eq!(c.remove(b"a"), None);
        assert_eq!(c.len(), 1);
        // The freed slot admits a newcomer without an eviction fight.
        assert!(c.insert(b"c", 3, 0));
        assert_eq!(c.len(), 2);
    }

    impl<V> ClockCache<V> {
        /// Every occupied slot is named by exactly one index word, found
        /// from its home, and the index is at most half full.
        fn check_index(&self) {
            let inner = self.inner.borrow();
            let words = inner.index.iter().filter(|&&w| w != 0).count();
            assert_eq!(words, inner.live);
            assert!(words * 2 <= inner.index.len());
            let mut occupied = 0;
            for (i, slot) in inner.slots.iter().enumerate() {
                let Some(s) = slot else { continue };
                occupied += 1;
                assert_eq!(inner.find(s.hash, s.key.as_slice()), Some(i));
            }
            assert_eq!(occupied, inner.live);
        }
    }

    #[test]
    fn a_new_cache_commits_one_index_line_and_keys_fill_three_words() {
        let c: ClockCache<u64> = ClockCache::new(64 << 10);
        let inner = c.inner.borrow();
        assert_eq!(inner.slots.capacity(), 0);
        assert_eq!(inner.index.len(), MIN_INDEX);
        assert_eq!(inner.free.capacity(), 0);
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }

    /// The sketch is only consulted by a full cache: it is created by the
    /// insert that brings the cache to half full, once, and counts nothing
    /// from before.
    #[test]
    fn the_sketch_is_created_once_when_the_cache_is_half_full() {
        let c: ClockCache<u64> = ClockCache::new(64);
        let key = |i: u64| format!("half{i:02}");
        for i in 0..31 {
            assert!(c.insert(key(i).as_bytes(), i, 0));
            assert_eq!(c.get(key(i).as_bytes()), Some(i));
        }
        let estimate = |hash: u64| {
            let inner = c.inner.borrow();
            inner.sketch.as_ref().expect("32 of 64 live").estimate(hash)
        };
        c.get(b"absent");
        assert!(
            c.inner.borrow().sketch.is_none(),
            "31 of 64 live: no sketch yet"
        );
        assert!(c.insert(key(31).as_bytes(), 31, 0));
        let sketch: *const FreqSketch = c.inner.borrow().sketch.as_ref().unwrap();
        for i in 0..32 {
            assert_eq!(estimate(crate::hash_bytes(key(i).as_bytes())), 0, "key {i}");
        }
        assert_eq!(estimate(crate::hash_bytes(b"absent")), 0);
        c.get(key(0).as_bytes());
        let hash = crate::hash_bytes(key(0).as_bytes());
        assert_eq!(estimate(hash), 1);
        // Draining below half and filling past it again keeps the sketch.
        for i in 0..32 {
            assert_eq!(c.remove(key(i).as_bytes()), Some(i));
        }
        for i in 0..64 {
            assert!(c.insert(key(i).as_bytes(), i, 0));
        }
        assert!(std::ptr::eq(
            sketch,
            c.inner.borrow().sketch.as_ref().unwrap()
        ));
        assert!(estimate(hash) >= 2);
    }

    /// The trap a first version of the flat index fell into: doubling the
    /// index from the slots while the slot being inserted was already
    /// written indexed that key twice, and the second word outlived the
    /// key's removal. Every insert here is followed by a remove, across
    /// seven doublings.
    #[test]
    fn index_growth_keeps_one_word_per_key() {
        let c: ClockCache<u64> = ClockCache::new(1024);
        for i in 0..600u64 {
            let key = format!("grow{i:04}");
            assert!(c.insert(key.as_bytes(), i, 0));
            c.check_index();
            assert_eq!(c.remove(key.as_bytes()), Some(i));
            assert_eq!(c.get(key.as_bytes()), None);
            c.check_index();
            assert!(c.insert(key.as_bytes(), i, 0));
        }
        c.check_index();
        assert_eq!(c.len(), 600);
        for i in 0..600u64 {
            assert_eq!(c.get(format!("grow{i:04}").as_bytes()), Some(i));
        }
    }
}

//! Decision equivalence of [`ClockCache`]: random call sequences through
//! the cache and through a plain model of the algorithm it replaced — a
//! `HashMap` beside a pre-filled `Vec<Option<_>>`, a free stack, a hand and
//! the real [`FreqSketch`] — must agree on every return value, on `len()`
//! and on every `stats()` field after every call. What the cache admits,
//! evicts and rejects is part of the model of every experiment; its layout
//! is not. The sketch follows the cache's rule: it is created by the insert
//! that first brings the live count to half the capacity, and a touch before
//! that is recorded nowhere.

use std::collections::HashMap;

use hydra_lockfree::{hash_bytes, ClockCache, ClockCacheStats, FreqSketch};
use proptest::prelude::*;

struct Slot {
    key: Vec<u8>,
    hash: u64,
    value: u64,
    referenced: bool,
}

struct Model {
    slots: Vec<Option<Slot>>,
    map: HashMap<Vec<u8>, usize>,
    free: Vec<usize>,
    hand: usize,
    sketch: Option<FreqSketch>,
    stats: ClockCacheStats,
}

impl Model {
    fn new(capacity: usize) -> Model {
        Model {
            slots: (0..capacity).map(|_| None).collect(),
            map: HashMap::new(),
            free: (0..capacity).rev().collect(),
            hand: 0,
            sketch: None,
            stats: ClockCacheStats::default(),
        }
    }

    fn touch(&mut self, hash: u64) {
        if let Some(sketch) = &mut self.sketch {
            sketch.touch(hash);
        }
    }

    fn get(&mut self, key: &[u8]) -> Option<u64> {
        self.touch(hash_bytes(key));
        let Some(&idx) = self.map.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        let slot = self.slots[idx].as_mut().unwrap();
        slot.referenced = true;
        Some(slot.value)
    }

    fn insert(&mut self, key: &[u8], value: u64) -> bool {
        let hash = hash_bytes(key);
        self.touch(hash);
        if let Some(&idx) = self.map.get(key) {
            let slot = self.slots[idx].as_mut().unwrap();
            slot.value = value;
            slot.referenced = true;
            return true;
        }
        let idx = if let Some(idx) = self.free.pop() {
            idx
        } else {
            let victim = loop {
                let hand = self.hand;
                self.hand = (hand + 1) % self.slots.len();
                let slot = self.slots[hand].as_mut().unwrap();
                if !slot.referenced {
                    break hand;
                }
                slot.referenced = false;
            };
            let victim_hash = self.slots[victim].as_ref().unwrap().hash;
            let sketch = self.sketch.as_ref().unwrap();
            if sketch.estimate(hash) <= sketch.estimate(victim_hash) {
                self.stats.rejected += 1;
                return false;
            }
            let old = self.slots[victim].take().unwrap();
            self.map.remove(&old.key);
            self.stats.evictions += 1;
            victim
        };
        self.slots[idx] = Some(Slot {
            key: key.to_vec(),
            hash,
            value,
            referenced: true,
        });
        self.map.insert(key.to_vec(), idx);
        if self.sketch.is_none() && self.map.len() >= self.slots.len() / 2 {
            self.sketch = Some(FreqSketch::new(self.slots.len()));
        }
        true
    }

    fn remove(&mut self, key: &[u8]) -> Option<u64> {
        let idx = self.map.remove(key)?;
        self.free.push(idx);
        self.slots[idx].take().map(|s| s.value)
    }
}

/// Keys of length 0, 1, the inline limit (22), one past it and 200; eight
/// ordinary ones; and eight whose hashes share their top byte, so that in an
/// index of up to 256 words — capacity 16 needs 32 — they share the last
/// home: their probe runs wrap, and removing one shifts the others back.
fn key_pool() -> Vec<Vec<u8>> {
    let mut pool = vec![
        Vec::new(),
        b"k".to_vec(),
        vec![b'i'; 22],
        vec![b'j'; 23],
        vec![b'L'; 200],
    ];
    pool.extend((0..8).map(|i| format!("key{i}").into_bytes()));
    pool.extend(
        (0u32..)
            .map(|n| format!("c{n}").into_bytes())
            .filter(|k| hash_bytes(k) >> 56 == 0xFF)
            .take(8),
    );
    pool
}

const POOL: usize = 21;

#[derive(Debug, Clone)]
enum Op {
    Get(usize),
    /// Key, value and the expiry the cache ignores.
    Insert(usize, u64, u64),
    Remove(usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            6 => (0..POOL).prop_map(Op::Get),
            8 => (0..POOL, any::<u64>(), any::<u64>()).prop_map(|(k, v, e)| Op::Insert(k, v, e)),
            3 => (0..POOL).prop_map(Op::Remove),
        ],
        1..500,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn decisions_match_the_hashmap_model(capacity in 1usize..=16, ops in ops()) {
        let pool = key_pool();
        assert_eq!(pool.len(), POOL);
        let cache: ClockCache<u64> = ClockCache::new(capacity);
        let mut model = Model::new(capacity);
        for op in ops {
            match op {
                Op::Get(k) => assert_eq!(cache.get(&pool[k]), model.get(&pool[k])),
                Op::Insert(k, v, e) => {
                    assert_eq!(cache.insert(&pool[k], v, e), model.insert(&pool[k], v));
                }
                Op::Remove(k) => assert_eq!(cache.remove(&pool[k]), model.remove(&pool[k])),
            }
            assert_eq!(cache.len(), model.map.len());
            assert_eq!(cache.stats(), model.stats);
        }
        // Slot order: which slot each key was given, freed slots included.
        let mut seen = Vec::new();
        cache.for_each(|k, v| seen.push((k.to_vec(), *v)));
        let expect: Vec<(Vec<u8>, u64)> =
            model.slots.iter().flatten().map(|s| (s.key.clone(), s.value)).collect();
        assert_eq!(seen, expect);
    }
}

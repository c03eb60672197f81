//! Decision equivalence of [`ClockCache`]: random call sequences through
//! the cache and through a plain model of the algorithm it replaced — a
//! `HashMap` beside a pre-filled `Vec<Option<_>>`, a free stack, a hand and
//! the real [`FreqSketch`] — must agree on every return value, on `len()`
//! and on every `stats()` field after every call. What the cache admits,
//! evicts, rejects and harvests is part of the model of every experiment;
//! its layout is not.

use std::collections::{BTreeMap, HashMap};

use hydra_lockfree::{hash_bytes, ClockCache, ClockCacheStats, FreqSketch};
use proptest::prelude::*;

/// One wheel bucket (`WHEEL_SHIFT` in `clock.rs`).
const MS: u64 = 1 << 20;

struct Slot {
    key: Vec<u8>,
    hash: u64,
    value: u64,
    referenced: bool,
    expiry: u64,
}

struct Model {
    slots: Vec<Option<Slot>>,
    map: HashMap<Vec<u8>, usize>,
    free: Vec<usize>,
    hand: usize,
    wheel: BTreeMap<u64, Vec<(usize, u64)>>,
    sketch: FreqSketch,
    stats: ClockCacheStats,
}

impl Model {
    fn new(capacity: usize) -> Model {
        Model {
            slots: (0..capacity).map(|_| None).collect(),
            map: HashMap::new(),
            free: (0..capacity).rev().collect(),
            hand: 0,
            wheel: BTreeMap::new(),
            sketch: FreqSketch::new(capacity),
            stats: ClockCacheStats::default(),
        }
    }

    fn file(&mut self, idx: usize, expiry: u64) {
        self.wheel
            .entry(expiry >> 20)
            .or_default()
            .push((idx, expiry));
    }

    fn get(&mut self, key: &[u8]) -> Option<u64> {
        self.sketch.touch(hash_bytes(key));
        let Some(&idx) = self.map.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        let slot = self.slots[idx].as_mut().unwrap();
        slot.referenced = true;
        Some(slot.value)
    }

    fn insert(&mut self, key: &[u8], value: u64, expiry: u64) -> bool {
        let hash = hash_bytes(key);
        self.sketch.touch(hash);
        if let Some(&idx) = self.map.get(key) {
            let slot = self.slots[idx].as_mut().unwrap();
            slot.value = value;
            slot.referenced = true;
            if slot.expiry != expiry {
                slot.expiry = expiry;
                self.file(idx, expiry);
            }
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
            if self.sketch.estimate(hash) <= self.sketch.estimate(victim_hash) {
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
            expiry,
        });
        self.map.insert(key.to_vec(), idx);
        self.file(idx, expiry);
        true
    }

    fn remove(&mut self, key: &[u8]) -> Option<u64> {
        let idx = self.map.remove(key)?;
        self.free.push(idx);
        self.slots[idx].take().map(|s| s.value)
    }

    fn refile(&mut self, key: &[u8], expiry: u64) {
        let Some(&idx) = self.map.get(key) else {
            return;
        };
        let slot = self.slots[idx].as_mut().unwrap();
        if slot.expiry != expiry {
            slot.expiry = expiry;
            self.file(idx, expiry);
        }
    }

    fn expiring(&mut self, now: u64, horizon: u64, limit: usize) -> Vec<(Vec<u8>, u64)> {
        let deadline = now.saturating_add(horizon);
        let mut out = Vec::new();
        let due: Vec<u64> = self
            .wheel
            .range(..=deadline >> 20)
            .map(|(b, _)| *b)
            .collect();
        for bucket in due {
            let mut entries = self.wheel.remove(&bucket).unwrap();
            let mut keep = Vec::new();
            while let Some((idx, filed)) = entries.pop() {
                let Some(slot) = self.slots[idx].as_ref().filter(|s| s.expiry == filed) else {
                    continue;
                };
                if slot.expiry <= deadline && out.len() < limit {
                    out.push((slot.key.clone(), slot.value));
                } else {
                    keep.push((idx, filed));
                }
            }
            if !keep.is_empty() {
                self.wheel.insert(bucket, keep);
            }
            if out.len() >= limit {
                break;
            }
        }
        out
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
    /// `Some(bucket)`: a lease never filed before, in that wheel bucket;
    /// `None`: the lease the key is already filed under, if it is cached.
    Insert(usize, u64, Option<u64>),
    Remove(usize),
    Refile(usize, Option<u64>),
    /// Now and horizon in buckets, and a limit of at least one: a harvest
    /// of nothing still turned the first due bucket's filings around, and
    /// with stale-only buckets swept early that can be a different bucket.
    Expiring(u64, u64, usize),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    let lease = || {
        prop_oneof![
            4 => (0u64..4).prop_map(Some),
            1 => Just(None),
        ]
    };
    proptest::collection::vec(
        prop_oneof![
            6 => (0..POOL).prop_map(Op::Get),
            8 => (0..POOL, any::<u64>(), lease()).prop_map(|(k, v, l)| Op::Insert(k, v, l)),
            3 => (0..POOL).prop_map(Op::Remove),
            2 => (0..POOL, lease()).prop_map(|(k, l)| Op::Refile(k, l)),
            1 => (0u64..5, 0u64..3, 1usize..6).prop_map(|(n, h, l)| Op::Expiring(n, h, l)),
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
        for (step, op) in ops.into_iter().enumerate() {
            // A fresh lease is unique to its call: a slot never returns to an
            // expiry it was filed under before. That is the one sequence the
            // bounded wheel answers differently from the unbounded one (which
            // then harvested the key once per filing), and no lease clock
            // produces it.
            let lease = |key: &[u8], pick: Option<u64>| match pick {
                Some(bucket) => bucket * MS + step as u64,
                None => model.map.get(key).map_or(step as u64, |&i| {
                    model.slots[i].as_ref().unwrap().expiry
                }),
            };
            match op {
                Op::Get(k) => assert_eq!(cache.get(&pool[k]), model.get(&pool[k])),
                Op::Insert(k, v, l) => {
                    let expiry = lease(&pool[k], l);
                    assert_eq!(cache.insert(&pool[k], v, expiry), model.insert(&pool[k], v, expiry));
                }
                Op::Remove(k) => assert_eq!(cache.remove(&pool[k]), model.remove(&pool[k])),
                Op::Refile(k, l) => {
                    let expiry = lease(&pool[k], l);
                    cache.refile(&pool[k], expiry);
                    model.refile(&pool[k], expiry);
                }
                Op::Expiring(now, horizon, limit) => {
                    let limit = if limit == 5 { usize::MAX } else { limit };
                    assert_eq!(
                        cache.expiring(now * MS, horizon * MS, limit),
                        model.expiring(now * MS, horizon * MS, limit)
                    );
                }
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

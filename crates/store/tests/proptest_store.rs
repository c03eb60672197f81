//! Property-based and model-based tests for the storage engine: arbitrary
//! operation sequences against a reference `HashMap`, with reclamation
//! pumped at arbitrary points, must stay observationally equivalent — and a
//! remote reader's view (fetched blobs) must always be current-or-detected.

use std::collections::HashMap;

use hydra_store::{
    item_words, EngineConfig, EngineError, FetchedItem, ItemError, ShardEngine, WriteMode,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, Vec<u8>),
    Update(u8, Vec<u8>),
    Get(u8),
    Delete(u8),
    Reclaim,
    AdvanceTime(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..48))
            .prop_map(|(k, v)| Op::Insert(k, v)),
        (any::<u8>(), proptest::collection::vec(any::<u8>(), 0..48))
            .prop_map(|(k, v)| Op::Update(k, v)),
        any::<u8>().prop_map(Op::Get),
        any::<u8>().prop_map(Op::Delete),
        Just(Op::Reclaim),
        (1u64..5_000).prop_map(Op::AdvanceTime),
    ]
}

fn key_of(k: u8) -> Vec<u8> {
    format!("key-{k:03}").into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn engine_matches_reference_model(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        let mut engine = ShardEngine::new(EngineConfig {
            arena_words: 1 << 15,
            write_mode: WriteMode::Reliable,
            min_lease_ns: 500,
            max_lease_ns: 32_000,
            ..EngineConfig::default()
        });
        let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
        let mut now = 0u64;
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    let key = key_of(k);
                    let got = engine.insert(now, &key, &v);
                    if let std::collections::hash_map::Entry::Vacant(e) = model.entry(key) {
                        got.unwrap();
                        e.insert(v);
                    } else {
                        prop_assert_eq!(got.unwrap_err(), EngineError::Exists);
                    }
                }
                Op::Update(k, v) => {
                    let key = key_of(k);
                    let got = engine.update(now, &key, &v);
                    if let std::collections::hash_map::Entry::Occupied(mut e) = model.entry(key) {
                        got.unwrap();
                        e.insert(v);
                    } else {
                        prop_assert_eq!(got.unwrap_err(), EngineError::NotFound);
                    }
                }
                Op::Get(k) => {
                    let key = key_of(k);
                    let got = engine.get(now, &key).map(|g| g.value);
                    prop_assert_eq!(got, model.get(&key).cloned());
                }
                Op::Delete(k) => {
                    let key = key_of(k);
                    let got = engine.delete(now, &key);
                    if model.remove(&key).is_some() {
                        got.unwrap();
                    } else {
                        prop_assert_eq!(got.unwrap_err(), EngineError::NotFound);
                    }
                }
                Op::Reclaim => {
                    engine.pump_reclaim(now);
                }
                Op::AdvanceTime(dt) => {
                    now += dt;
                }
            }
            prop_assert_eq!(engine.len(), model.len());
        }
        // Final sweep: everything the model holds is retrievable.
        for (k, v) in &model {
            let got = engine.get(now, k).map(|g| g.value);
            prop_assert_eq!(got.as_ref(), Some(v));
        }
        // And reclamation eventually returns all dead memory.
        engine.pump_reclaim(u64::MAX);
        prop_assert_eq!(engine.reclaim_pending(), 0);
    }

    #[test]
    fn fetched_blobs_are_current_or_detected(
        updates in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..32), 1..20),
    ) {
        // A reader snapshots the item location once, then the writer keeps
        // updating. Every snapshot read must parse as either the value that
        // was current at snapshot time or a detected stale — never a wrong
        // value.
        let mut engine = ShardEngine::new(EngineConfig {
            arena_words: 1 << 14,
            write_mode: WriteMode::Reliable,
            min_lease_ns: 1_000_000, // long lease: no reuse during the test
            max_lease_ns: 64_000_000,
            ..EngineConfig::default()
        });
        let key = b"watched-key";
        engine.insert(0, key, &updates[0]).unwrap();
        let mut now = 1;
        for (i, v) in updates.iter().enumerate().skip(1) {
            // Reader caches the current location.
            let info = engine.get(now, key).unwrap().info;
            let snapshot_value = engine.get(now, key).unwrap().value;
            // Writer updates out-of-place.
            engine.update(now + 1, key, v).unwrap();
            // Reader fetches through the stale pointer.
            let words = engine.words();
            let mut blob = Vec::with_capacity(info.read_len as usize);
            for w in 0..(info.read_len as usize) / 8 {
                blob.extend_from_slice(
                    &words[info.off_words as usize + w]
                        .load(std::sync::atomic::Ordering::Relaxed)
                        .to_le_bytes(),
                );
            }
            match FetchedItem::parse(&blob, key) {
                Ok(f) => prop_assert_eq!(f.value, snapshot_value, "iteration {}", i),
                Err(ItemError::Stale) => {} // correctly detected
                Err(e) => prop_assert!(false, "unexpected parse error {e:?}"),
            }
            now += 2;
        }
    }

    #[test]
    fn item_words_matches_layout(klen in 0usize..128, vlen in 0usize..512) {
        // header + key words + value words + guardian + lease
        let expect = 1 + klen.div_ceil(8) + vlen.div_ceil(8) + 2;
        prop_assert_eq!(item_words(klen, vlen) as usize, expect);
    }
}

#[test]
fn cache_mode_never_reports_oom_under_churn() {
    let mut engine = ShardEngine::new(EngineConfig {
        arena_words: 2_048,
        write_mode: WriteMode::Cache,
        min_lease_ns: 0,
        max_lease_ns: 0,
        ..EngineConfig::default()
    });
    for i in 0..5_000u64 {
        let key = format!("churn-{:04}", i % 500);
        engine
            .put(i, key.as_bytes(), &[i as u8; 40])
            .unwrap_or_else(|e| panic!("op {i}: {e}"));
        if i % 97 == 0 {
            engine.pump_reclaim(i);
        }
    }
    assert!(engine.stats().evictions > 0);
}

//! Batched-vs-sequential execution equivalence.
//!
//! The server's quantum path (`run_batch`) groups GET runs for interleaved
//! index probing and packs responses with `push_with`; the singleton path
//! applies one request at a time through `apply_request`. Both must be
//! observationally identical: byte-identical response frames, identical
//! replication records, and identical engine state — for arbitrary request
//! mixes, including duplicate keys inside one batch, misses, collisions,
//! and deletes of absent keys.

use hydra_db::server::{apply_request, run_batch, ReadPlane, ScanBounds};
use hydra_fabric::RegionId;
use hydra_store::{EngineConfig, IndexKind, ShardEngine, WriteMode};
use hydra_wire::{BatchBuilder, BatchFrame, Request};
use proptest::prelude::*;

const NOW: u64 = 5_000;
const ARENA: RegionId = RegionId(7);

#[derive(Debug, Clone)]
enum Op {
    Get(u8),
    Insert(u8, Vec<u8>),
    Update(u8, Vec<u8>),
    Delete(u8),
    Scan(u8, u32),
}

/// Scan bounds used by both execution paths: a quantum small enough that
/// the generated scans exercise truncation (`more` flag) as well as
/// exhaustion, in a slot nothing overflows.
const SCAN: ScanBounds = ScanBounds {
    items: 7,
    slot_bytes: usize::MAX,
    reserved: 0,
};

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            // GET-heavy so batches contain the multi-GET runs the
            // interleaved path optimizes.
            4 => any::<u8>().prop_map(|k| Op::Get(k % 32)),
            1 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..48))
                .prop_map(|(k, v)| Op::Insert(k % 32, v)),
            1 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..48))
                .prop_map(|(k, v)| Op::Update(k % 32, v)),
            1 => any::<u8>().prop_map(|k| Op::Delete(k % 32)),
            1 => (any::<u8>(), 0..16u32).prop_map(|(k, l)| Op::Scan(k % 32, l)),
        ],
        1..96,
    )
}

fn key_of(k: u8) -> Vec<u8> {
    format!("beq-key-{k:03}").into_bytes()
}

fn engine() -> ShardEngine {
    let mut e = ShardEngine::new(EngineConfig {
        arena_words: 1 << 14,
        expected_items: 256,
        index: IndexKind::Packed,
        write_mode: WriteMode::Reliable,
        min_lease_ns: 1_000_000,
        max_lease_ns: 64_000_000,
    });
    // Common pre-population so GETs hit, updates succeed, inserts collide.
    for k in 0..16u8 {
        e.insert(100, &key_of(k), format!("seed-{k}").as_bytes())
            .expect("seed insert");
    }
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_execution_equals_sequential_execution(ops in ops()) {
        // Materialize the request list (owned storage first, borrows after).
        let keys: Vec<Vec<u8>> = ops
            .iter()
            .map(|op| match op {
                Op::Get(k)
                | Op::Insert(k, _)
                | Op::Update(k, _)
                | Op::Delete(k)
                | Op::Scan(k, _) => key_of(*k),
            })
            .collect();
        let reqs: Vec<Request<'_>> = ops
            .iter()
            .zip(&keys)
            .enumerate()
            .map(|(i, (op, key))| {
                let req_id = 1 + i as u64;
                match op {
                    Op::Get(_) => Request::Get { req_id, key },
                    Op::Insert(_, v) => Request::Insert { req_id, key, value: v },
                    Op::Update(_, v) => Request::Update { req_id, key, value: v },
                    Op::Delete(_) => Request::Delete { req_id, key },
                    Op::Scan(_, limit) => Request::Scan { req_id, start: key, limit: *limit },
                }
            })
            .collect();

        // Sequential: one apply_request per op, packed the same way.
        let mut seq_engine = engine();
        let mut seq_builder = BatchBuilder::new();
        let mut seq_scratch = Vec::new();
        let mut seq_plane = ReadPlane::disabled();
        let mut seq_repl = Vec::new();
        for req in &reqs {
            let mut action = None;
            seq_builder.push_with(|out| {
                action = apply_request(
                    &mut seq_engine, NOW, req, ARENA, &mut seq_scratch, SCAN,
                    &mut seq_plane, None, out,
                );
            });
            if let Some(a) = action {
                seq_repl.push(a);
            }
        }

        // Batched: the server's quantum kernel over the whole list.
        let mut batch_engine = engine();
        let mut batch_builder = BatchBuilder::new();
        let mut batch_scratch = Vec::new();
        let mut batch_plane = ReadPlane::disabled();
        let (batch_repl, counts) = run_batch(
            &mut batch_engine, NOW, &reqs, ARENA, &mut batch_scratch, SCAN,
            &mut batch_plane, None, &mut batch_builder,
        );

        // Byte-identical response frames, in request order.
        prop_assert_eq!(seq_builder.bytes(), batch_builder.bytes());
        prop_assert_eq!(
            BatchFrame::parse(batch_builder.bytes()).expect("valid frame").len(),
            reqs.len()
        );
        // Identical replication streams.
        prop_assert_eq!(seq_repl, batch_repl);
        // Identical engine state: counters, index shape, and every key's
        // current value.
        prop_assert_eq!(seq_engine.stats(), batch_engine.stats());
        prop_assert_eq!(seq_engine.table_stats(), batch_engine.table_stats());
        prop_assert_eq!(seq_engine.len(), batch_engine.len());
        for k in 0..32u8 {
            let key = key_of(k);
            let (mut sv, mut bv) = (Vec::new(), Vec::new());
            let s = seq_engine.get_into(NOW + 1, &key, &mut sv);
            let b = batch_engine.get_into(NOW + 1, &key, &mut bv);
            prop_assert_eq!(s.is_some(), b.is_some(), "presence of key {}", k);
            prop_assert_eq!(sv, bv, "value of key {}", k);
        }
        // Counts add up to the request list.
        let total = counts.gets + counts.inserts + counts.updates + counts.deletes
            + counts.scans;
        prop_assert_eq!(total as usize, reqs.len());
    }
}

//! Index-structure equivalence: the packed cache-line-group table, the
//! compact signature table, the chained-list baseline, and the hybrid
//! (packed + skiplist) index must be observationally identical behind
//! `ShardEngine`. Random operation sequences are driven through engines
//! differing only in `EngineConfig::index`; every op result, every post-op
//! length, and the final full iteration contents must agree — across
//! incremental resizes (every engine starts preloaded just under its
//! one-page packed index's ceiling, so the sequence's growth splits it
//! mid-sequence) and across reclamation pumps. A second property pins the
//! hybrid's *ordered* plane: scans, and scans continued from
//! `last_key + 0x00` as the wire protocol continues them, must match a
//! `BTreeMap` model item-for-item under the same interleavings — which
//! split the skiplist's packed leaves, empty and unlink them, and remove
//! their first keys — and a twin engine fed the same operations must build
//! the same structure. A third moves the hybrid's first ordered read, which
//! builds its skiplist, to a random step: before it the hybrid must hold
//! exactly a packed engine's index, after it every walk must match.

use hydra_store::skiplist::LEAF_CAP;
use hydra_store::{EngineConfig, EngineError, IndexKind, ShardEngine, WriteMode};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(u16, Vec<u8>),
    Update(u16, Vec<u8>),
    Put(u16, Vec<u8>),
    Get(u16),
    GetBatch(Vec<u16>),
    Delete(u16),
    Reclaim,
    AdvanceTime(u64),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    fn val() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(any::<u8>(), 0..40)
    }
    prop_oneof![
        3 => (any::<u16>(), val()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => (any::<u16>(), val()).prop_map(|(k, v)| Op::Update(k, v)),
        2 => (any::<u16>(), val()).prop_map(|(k, v)| Op::Put(k, v)),
        3 => any::<u16>().prop_map(Op::Get),
        1 => proptest::collection::vec(any::<u16>(), 1..12).prop_map(Op::GetBatch),
        2 => any::<u16>().prop_map(Op::Delete),
        1 => Just(Op::Reclaim),
        1 => (1u64..4_000).prop_map(Op::AdvanceTime),
    ]
}

fn key_of(k: u16) -> Vec<u8> {
    // 512 distinct keys: enough collisions to exercise deletes/updates,
    // enough spread to push the preloaded packed table through a resize.
    format!("ieq-{:04}", k % 512).into_bytes()
}

/// Items loaded before a sequence: 32 under the 392 entries at which a
/// one-page packed index (64 groups of 7) starts to grow, so a sequence that
/// adds a few dozen keys splits it mid-sequence.
const PRELOAD: usize = 360;

/// The `i`th preloaded key; sorts before every `key_of` key.
fn preload_key(i: usize) -> Vec<u8> {
    format!("fill-{i:04}").into_bytes()
}

fn engine(kind: IndexKind) -> ShardEngine {
    let mut e = ShardEngine::new(EngineConfig {
        arena_words: 1 << 15,
        expected_items: 8,
        index: kind,
        write_mode: WriteMode::Reliable,
        min_lease_ns: 500,
        max_lease_ns: 32_000,
    });
    for i in 0..PRELOAD {
        e.insert(0, &preload_key(i), b"preloaded").expect("preload");
    }
    e
}

fn dump(e: &ShardEngine) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut items = Vec::new();
    e.for_each_item(|k, v| items.push((k, v)));
    items.sort();
    items
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_index_kinds_are_observationally_equivalent(
        ops in proptest::collection::vec(op_strategy(), 1..500),
    ) {
        let mut engines = [
            engine(IndexKind::Packed),
            engine(IndexKind::Chained),
            engine(IndexKind::Compact),
            engine(IndexKind::Hybrid),
        ];
        let mut now = 0u64;
        let mut resized = false;
        let mut most = 0;
        for (step, op) in ops.iter().enumerate() {
            let results: Vec<_> = engines
                .iter_mut()
                .map(|e| apply(e, op, now))
                .collect();
            prop_assert_eq!(
                &results[0], &results[1],
                "packed vs chained diverged at step {} on {:?}", step, op
            );
            prop_assert_eq!(
                &results[0], &results[2],
                "packed vs compact diverged at step {} on {:?}", step, op
            );
            prop_assert_eq!(
                &results[0], &results[3],
                "packed vs hybrid diverged at step {} on {:?}", step, op
            );
            prop_assert_eq!(engines[0].len(), engines[1].len());
            prop_assert_eq!(engines[0].len(), engines[2].len());
            prop_assert_eq!(engines[0].len(), engines[3].len());
            resized |= engines[0].index_resizing();
            most = most.max(engines[0].len());
            if let Op::AdvanceTime(dt) = op {
                now += dt;
            }
        }
        // Resize coverage: most generated sequences push the packed table
        // through at least one split; assert on the stats so a silent
        // "never resizes" regression cannot hide (more than 392 live keys
        // cross the one-page index's ceiling).
        if most > 392 {
            prop_assert!(
                resized || engines[0].table_stats().resizes > 0,
                "packed table never resized despite {} live items",
                most
            );
        }
        // Final iteration contents agree exactly.
        let packed = dump(&engines[0]);
        prop_assert_eq!(&packed, &dump(&engines[1]), "iteration: packed vs chained");
        prop_assert_eq!(&packed, &dump(&engines[2]), "iteration: packed vs compact");
        prop_assert_eq!(&packed, &dump(&engines[3]), "iteration: packed vs hybrid");
        // And everything drains identically.
        for e in &mut engines {
            e.pump_reclaim(u64::MAX);
            prop_assert_eq!(e.reclaim_pending(), 0);
        }
    }
}

/// Ops for the ordered-plane model check: mutations, bounded scans, and
/// bounded scans followed by their continuation.
#[derive(Debug, Clone)]
enum OrderedOp {
    Put(u16, Vec<u8>),
    Delete(u16),
    /// Deletes the next so-many live keys from a start key on: neighbours
    /// in key order, which is what empties a leaf.
    DeleteRun(u16, usize),
    Scan(u16, usize),
    ScanContinued(u16, usize),
    Reclaim,
}

fn ordered_op_strategy() -> impl Strategy<Value = OrderedOp> {
    let val = proptest::collection::vec(any::<u8>(), 0..40);
    prop_oneof![
        8 => (any::<u16>(), val).prop_map(|(k, v)| OrderedOp::Put(k, v)),
        2 => any::<u16>().prop_map(OrderedOp::Delete),
        1 => (any::<u16>(), 24..48usize).prop_map(|(k, n)| OrderedOp::DeleteRun(k, n)),
        2 => (any::<u16>(), 1..24usize).prop_map(|(k, l)| OrderedOp::Scan(k, l)),
        2 => (any::<u16>(), 1..24usize).prop_map(|(k, l)| OrderedOp::ScanContinued(k, l)),
        1 => Just(OrderedOp::Reclaim),
    ]
}

type Items = Vec<(Vec<u8>, Vec<u8>)>;

/// One bounded scan: the items and whether the keyspace ran out.
fn scan(e: &mut ShardEngine, start: &[u8], limit: usize) -> (Items, bool) {
    let mut got: Items = Vec::new();
    let mut scratch = Vec::new();
    let exhausted = e.scan_into(start, &mut scratch, |key, value| {
        got.push((key.to_vec(), value.to_vec()));
        got.len() < limit
    });
    (got, exhausted)
}

/// An ordered-plane run: two hybrid engines (the one under test and a twin
/// fed the same operations), a packed engine fed the same mutations, and the
/// `BTreeMap` model they must all agree with.
struct OrderedRig {
    e: ShardEngine,
    twin: ShardEngine,
    packed: ShardEngine,
    model: BTreeMap<Vec<u8>, Vec<u8>>,
}

impl OrderedRig {
    fn new() -> OrderedRig {
        OrderedRig {
            e: engine(IndexKind::Hybrid),
            twin: engine(IndexKind::Hybrid),
            packed: engine(IndexKind::Packed),
            model: (0..PRELOAD)
                .map(|i| (preload_key(i), b"preloaded".to_vec()))
                .collect(),
        }
    }

    /// Applies `op` to every engine and the model, checking each answer.
    fn apply(&mut self, op: &OrderedOp, step: usize) -> Result<(), TestCaseError> {
        let OrderedRig {
            e,
            twin,
            packed,
            model,
        } = self;
        match op {
            OrderedOp::Put(k, v) => {
                for x in [&mut *e, &mut *twin, &mut *packed] {
                    x.put(0, &key_of(*k), v).expect("put");
                }
                model.insert(key_of(*k), v.clone());
            }
            OrderedOp::Delete(k) => {
                let removed = e.delete(0, &key_of(*k)).is_ok();
                prop_assert_eq!(twin.delete(0, &key_of(*k)).is_ok(), removed);
                prop_assert_eq!(packed.delete(0, &key_of(*k)).is_ok(), removed);
                prop_assert_eq!(
                    removed,
                    model.remove(&key_of(*k)).is_some(),
                    "delete presence diverged at step {}",
                    step
                );
            }
            OrderedOp::DeleteRun(k, n) => {
                let before = e.ordered_stats();
                let run: Vec<Vec<u8>> = model
                    .range(key_of(*k)..)
                    .take(*n)
                    .map(|(k, _)| k.clone())
                    .collect();
                for key in &run {
                    for x in [&mut *e, &mut *twin, &mut *packed] {
                        x.delete(0, key).expect("live key");
                    }
                    model.remove(key);
                }
                // A leaf holds at most `LEAF_CAP` neighbours: this many
                // covered a whole leaf, unlinked when its last key went.
                if let Some(before) = before {
                    if run.len() >= 2 * LEAF_CAP + 2 {
                        let now = e.ordered_stats().expect("built").leaves;
                        prop_assert!(
                            now < before.leaves,
                            "{} keys gone, {} -> {} leaves",
                            run.len(),
                            before.leaves,
                            now
                        );
                    }
                }
            }
            OrderedOp::Scan(k, limit) => {
                let start = key_of(*k);
                let (got, exhausted) = scan(e, &start, *limit);
                prop_assert_eq!(&scan(twin, &start, *limit).0, &got);
                let want: Items = model
                    .range(start..)
                    .take(*limit)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                prop_assert_eq!(&got, &want, "scan diverged at step {}", step);
                prop_assert_eq!(
                    exhausted,
                    want.len() < *limit,
                    "exhaustion flag diverged at step {}",
                    step
                );
            }
            OrderedOp::ScanContinued(k, limit) => {
                // A quantum, then its continuation from the last key's
                // immediate successor: together, one scan of twice the
                // limit, wherever in a leaf the quantum ended.
                let start = key_of(*k);
                let (mut got, exhausted) = scan(e, &start, *limit);
                scan(twin, &start, *limit);
                if !exhausted {
                    let mut cursor = got.last().expect("stopped on an item").0.clone();
                    cursor.push(0);
                    got.extend(scan(e, &cursor, *limit).0);
                    scan(twin, &cursor, *limit);
                }
                let want: Items = model
                    .range(start..)
                    .take(2 * *limit)
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect();
                prop_assert_eq!(&got, &want, "continued scan diverged at step {}", step);
            }
            OrderedOp::Reclaim => {
                for x in [&mut *e, &mut *twin, &mut *packed] {
                    x.pump_reclaim(0);
                }
            }
        }
        prop_assert_eq!(e.len(), model.len());
        prop_assert_eq!(packed.len(), model.len());
        Ok(())
    }

    /// Before any ordered read a hybrid engine is its hash side alone: no
    /// ordered side, and index memory byte-for-byte a packed engine's.
    fn unbuilt(&self) -> Result<(), TestCaseError> {
        for x in [&self.e, &self.twin] {
            prop_assert_eq!(x.ordered_stats(), None);
            prop_assert_eq!(x.index_mem_bytes(), self.packed.index_mem_bytes());
        }
        Ok(())
    }

    /// A full ordered walk from the empty key on both hybrid engines: each
    /// equals the whole model, and the twins hold the same structure — as
    /// many leaves, retired nodes and slabs, walked in as many comparisons,
    /// in as many bytes.
    fn walk(&mut self) -> Result<(), TestCaseError> {
        let (walk, exhausted) = scan(&mut self.e, b"", usize::MAX);
        prop_assert!(exhausted);
        let full: Items = self
            .model
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        prop_assert_eq!(&walk, &full, "ordered walk differs from model");
        prop_assert_eq!(scan(&mut self.twin, b"", usize::MAX).0, full);
        prop_assert!(self.e.ordered_stats().is_some());
        prop_assert_eq!(self.e.ordered_stats(), self.twin.ordered_stats());
        prop_assert_eq!(self.e.index_mem_bytes(), self.twin.index_mem_bytes());
        Ok(())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The hybrid index's ordered iteration must match a `BTreeMap` model
    /// exactly — every bounded scan mid-sequence and the final full walk —
    /// while random put/delete interleavings push the packed half through
    /// incremental resizes (the engine starts preloaded near its ceiling, so
    /// any skiplist/table drift during a split shows up as a wrong scan).
    #[test]
    fn hybrid_ordered_iteration_matches_btreemap_model(
        ops in proptest::collection::vec(ordered_op_strategy(), 1..400),
    ) {
        let mut rig = OrderedRig::new();
        let mut resized = false;
        let mut most = 0;
        for (step, op) in ops.iter().enumerate() {
            rig.apply(op, step)?;
            resized |= rig.e.index_resizing();
            most = most.max(rig.e.len());
        }
        if most > 392 {
            prop_assert!(
                resized || rig.e.table_stats().resizes > 0,
                "hybrid hash half never resized despite {} live items", most
            );
        }
        rig.walk()?;
        // Built by now: the preload alone does not fit four leaves.
        let leaves = rig.e.ordered_stats().expect("built").leaves;
        prop_assert!(leaves > 4, "only {} leaves for {} items", leaves, rig.e.len());
    }

    /// The ordered side is built by the first ordered read, wherever in a
    /// sequence it falls — the first step, any step, or none (scans drawn
    /// before it are skipped) — and mutations and scans after it keep
    /// matching the model. Until it, each hybrid engine holds no ordered
    /// side and exactly a packed engine's index memory.
    #[test]
    fn hybrid_builds_its_ordered_side_at_its_first_ordered_read(
        ops in proptest::collection::vec(ordered_op_strategy(), 0..300),
        first in prop_oneof![Just(0usize), Just(usize::MAX), 0..300usize],
    ) {
        let mut rig = OrderedRig::new();
        for (step, op) in ops.iter().enumerate() {
            if step == first {
                rig.walk()?;
            }
            if step < first {
                if matches!(op, OrderedOp::Scan(..) | OrderedOp::ScanContinued(..)) {
                    continue;
                }
                rig.unbuilt()?;
            }
            rig.apply(op, step)?;
        }
        if first >= ops.len() {
            rig.unbuilt()?;
        }
        rig.walk()?;
    }
}

/// Applies one op and flattens the outcome into a comparable value.
/// `ItemInfo` offsets are excluded (placement is index-specific by design;
/// only the key/value observations must match).
fn apply(e: &mut ShardEngine, op: &Op, now: u64) -> Result<Vec<Option<Vec<u8>>>, EngineError> {
    match op {
        Op::Insert(k, v) => e.insert(now, &key_of(*k), v).map(|_| Vec::new()),
        Op::Update(k, v) => e.update(now, &key_of(*k), v).map(|_| Vec::new()),
        Op::Put(k, v) => e.put(now, &key_of(*k), v).map(|_| Vec::new()),
        Op::Get(k) => Ok(vec![e.get(now, &key_of(*k)).map(|g| g.value)]),
        Op::GetBatch(ks) => {
            let keys: Vec<Vec<u8>> = ks.iter().map(|&k| key_of(k)).collect();
            let refs: Vec<&[u8]> = keys.iter().map(|k| k.as_slice()).collect();
            let mut out: Vec<Option<Vec<u8>>> = vec![None; refs.len()];
            let mut scratch = Vec::new();
            e.get_batch_into(now, &refs, &mut scratch, |i, info, bytes| {
                if info.is_some() {
                    out[i] = Some(bytes.to_vec());
                }
            });
            Ok(out)
        }
        Op::Delete(k) => e.delete(now, &key_of(*k)).map(|_| Vec::new()),
        Op::Reclaim => {
            e.pump_reclaim(now);
            Ok(Vec::new())
        }
        Op::AdvanceTime(_) => Ok(Vec::new()),
    }
}

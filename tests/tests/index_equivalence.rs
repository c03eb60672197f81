//! Index equivalence: a shard's packed index must answer as a `HashMap`
//! model of the same operations does, with or without the ordered view a
//! shard builds at its first scan. Random operation sequences are driven
//! through an engine without a view, one whose view exists from the start,
//! and the model; every op result, every post-op length, and the final full
//! iteration contents must agree — across index rebuilds (every engine
//! starts preloaded just under its one-page packed index's ceiling, so the
//! sequence's growth doubles it mid-sequence) and across reclamation pumps.
//! A second property pins the *ordered* plane: scans, and scans continued
//! from `last_key + 0x00` as the wire protocol continues them, must match a
//! `BTreeMap` model item-for-item under the same interleavings — which split
//! the skiplist's packed leaves, empty and unlink them, and remove their
//! first keys — and a twin engine fed the same operations must build the
//! same structure. A third moves the first ordered read, which builds the
//! view, to a random step, as a reliable store and as a cache whose CLOCK
//! sweep evicts: before it an engine must hold exactly an unscanned twin's
//! index, after it every walk must match the live keys.

use hydra_store::skiplist::LEAF_CAP;
use hydra_store::{EngineConfig, EngineError, ShardEngine, WriteMode};
use proptest::prelude::*;
use std::collections::{BTreeMap, HashMap};

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

/// A preloaded engine in `mode`. A cache's arena holds about 250 items, so
/// its preload already evicts and its CLOCK sweep keeps evicting as a
/// sequence writes.
fn engine_in(mode: WriteMode) -> ShardEngine {
    let mut e = ShardEngine::new(EngineConfig {
        arena_words: match mode {
            WriteMode::Reliable => 1 << 15,
            WriteMode::Cache => 1 << 11,
        },
        write_mode: mode,
        min_lease_ns: 500,
        max_lease_ns: 32_000,
        ..EngineConfig::default()
    });
    for i in 0..PRELOAD {
        e.insert(0, &preload_key(i), b"preloaded").expect("preload");
    }
    e
}

/// Builds `e`'s ordered view with a scan that reads nothing.
fn build_view(e: &mut ShardEngine) {
    e.scan_into(b"", &mut Vec::new(), |_, _| false);
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
        let mut engines = [engine_in(WriteMode::Reliable), engine_in(WriteMode::Reliable)];
        build_view(&mut engines[1]);
        let mut model: HashMap<Vec<u8>, Vec<u8>> = (0..PRELOAD)
            .map(|i| (preload_key(i), b"preloaded".to_vec()))
            .collect();
        let mut now = 0u64;
        let mut most = 0;
        for (step, op) in ops.iter().enumerate() {
            let want = apply_model(&mut model, op);
            for (e, name) in engines.iter_mut().zip(["packed", "packed with a view"]) {
                prop_assert_eq!(
                    &apply(e, op, now), &want,
                    "{} vs the model diverged at step {} on {:?}", name, step, op
                );
                prop_assert_eq!(e.len(), model.len(), "{} at step {}", name, step);
            }
            most = most.max(model.len());
            if let Op::AdvanceTime(dt) = op {
                now += dt;
            }
        }
        // Growth coverage: most generated sequences push the packed table
        // through at least one doubling; assert on the stats so a silent
        // "never resizes" regression cannot hide (more than 392 live keys
        // cross the one-page index's ceiling).
        if most > 392 {
            prop_assert!(
                engines[0].table_stats().resizes > 0,
                "packed table never resized despite {} live items",
                most
            );
        }
        // Final iteration contents agree exactly.
        let mut want: Items = model.into_iter().collect();
        want.sort();
        prop_assert_eq!(&dump(&engines[0]), &want, "iteration: packed vs the model");
        prop_assert_eq!(&dump(&engines[1]), &want, "iteration: packed with a view vs the model");
        prop_assert_eq!(&scan(&mut engines[1], b"", usize::MAX).0, &want, "view vs the model");
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
    /// Puts so-many fresh keys (never drawn, run after a sequence).
    Flood(usize),
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

/// An ordered-plane run: two engines of one mode (the one under test and a
/// twin fed the same operations), an engine of the same mode fed the same
/// mutations and never scanned, and the `BTreeMap` model of the live keys
/// they must all agree with. A cache evicts: after each write the model
/// drops the keys the sweep took.
struct OrderedRig {
    e: ShardEngine,
    twin: ShardEngine,
    plain: ShardEngine,
    model: BTreeMap<Vec<u8>, Vec<u8>>,
    /// Evictions the model has accounted for.
    evictions: u64,
}

impl OrderedRig {
    fn new(mode: WriteMode) -> OrderedRig {
        let mut rig = OrderedRig {
            e: engine_in(mode),
            twin: engine_in(mode),
            plain: engine_in(mode),
            model: (0..PRELOAD)
                .map(|i| (preload_key(i), b"preloaded".to_vec()))
                .collect(),
            evictions: 0,
        };
        rig.forget_evicted();
        rig
    }

    /// Drops from the model the keys the CLOCK sweep has evicted since the
    /// last call: those the never-scanned engine no longer holds.
    fn forget_evicted(&mut self) {
        let evictions = self.plain.stats().evictions;
        if evictions != self.evictions {
            let plain = &mut self.plain;
            self.model.retain(|k, _| plain.peek(k).is_some());
            self.evictions = evictions;
        }
    }

    /// Applies `op` to every engine and the model, checking each answer.
    fn apply(&mut self, op: &OrderedOp, step: usize) -> Result<(), TestCaseError> {
        let OrderedRig {
            e,
            twin,
            plain,
            model,
            ..
        } = self;
        match op {
            OrderedOp::Put(k, v) => {
                // Only a cache can fail a put (nothing left to evict); the
                // three engines fail it alike.
                let ok = e.put(0, &key_of(*k), v).is_ok();
                prop_assert_eq!(twin.put(0, &key_of(*k), v).is_ok(), ok);
                prop_assert_eq!(plain.put(0, &key_of(*k), v).is_ok(), ok);
                if ok {
                    model.insert(key_of(*k), v.clone());
                }
            }
            OrderedOp::Flood(n) => {
                // Fresh keys, sorting after every other: more than a cache
                // holds, so its sweep must evict.
                for i in 0..*n {
                    let (key, v) = (format!("jflood-{i:05}").into_bytes(), [i as u8; 32]);
                    for x in [&mut *e, &mut *twin, &mut *plain] {
                        x.put(0, &key, &v).expect("put");
                    }
                    model.insert(key, v.to_vec());
                }
            }
            OrderedOp::Delete(k) => {
                let removed = e.delete(0, &key_of(*k)).is_ok();
                prop_assert_eq!(twin.delete(0, &key_of(*k)).is_ok(), removed);
                prop_assert_eq!(plain.delete(0, &key_of(*k)).is_ok(), removed);
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
                    for x in [&mut *e, &mut *twin, &mut *plain] {
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
                for x in [&mut *e, &mut *twin, &mut *plain] {
                    x.pump_reclaim(0);
                }
            }
        }
        self.forget_evicted();
        for x in [&self.e, &self.twin] {
            prop_assert_eq!(x.stats().evictions, self.evictions);
            prop_assert_eq!(x.len(), self.model.len());
        }
        prop_assert_eq!(self.plain.len(), self.model.len());
        Ok(())
    }

    /// Before any ordered read an engine is its index alone: no view, and
    /// index memory byte-for-byte the unscanned engine's.
    fn unbuilt(&self) -> Result<(), TestCaseError> {
        for x in [&self.e, &self.twin] {
            prop_assert_eq!(x.ordered_stats(), None);
            prop_assert_eq!(x.index_mem_bytes(), self.plain.index_mem_bytes());
        }
        Ok(())
    }

    /// A full ordered walk from the empty key on both scanned engines: each
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

    /// Ordered iteration must match a `BTreeMap` model exactly — every
    /// bounded scan mid-sequence and the final full walk — while random
    /// put/delete interleavings push the packed index through rebuilds (the
    /// engine starts preloaded near its ceiling, so any view/index drift
    /// across a doubling shows up as a wrong scan).
    #[test]
    fn hybrid_ordered_iteration_matches_btreemap_model(
        ops in proptest::collection::vec(ordered_op_strategy(), 1..400),
    ) {
        let mut rig = OrderedRig::new(WriteMode::Reliable);
        let mut most = 0;
        for (step, op) in ops.iter().enumerate() {
            rig.apply(op, step)?;
            most = most.max(rig.e.len());
        }
        if most > 392 {
            prop_assert!(
                rig.e.table_stats().resizes > 0,
                "packed index never resized despite {} live items", most
            );
        }
        rig.walk()?;
        // Built by now: the preload alone does not fit four leaves.
        let leaves = rig.e.ordered_stats().expect("built").leaves;
        prop_assert!(leaves > 4, "only {} leaves for {} items", leaves, rig.e.len());
    }

    /// The view is built by the first ordered read, wherever in a sequence
    /// it falls — the first step, any step, or none (scans drawn before it
    /// are skipped) — and mutations, evictions and scans after it keep
    /// matching the model of live keys, as a reliable store and as a cache.
    /// Until it, each engine holds no view and exactly an unscanned engine's
    /// index memory. A cache then takes a flood of fresh keys it cannot
    /// hold, so its sweep evicts from a built view.
    #[test]
    fn hybrid_builds_its_ordered_side_at_its_first_ordered_read(
        ops in proptest::collection::vec(ordered_op_strategy(), 0..300),
        first in prop_oneof![Just(0usize), Just(usize::MAX), 0..300usize],
    ) {
        for mode in [WriteMode::Reliable, WriteMode::Cache] {
            let mut rig = OrderedRig::new(mode);
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
            if mode == WriteMode::Cache {
                let evicted = rig.evictions;
                rig.apply(&OrderedOp::Flood(300), ops.len())?;
                prop_assert!(rig.evictions > evicted, "no eviction");
                rig.walk()?;
            }
        }
    }
}

/// What a reliable engine must answer to `op`, from a `HashMap` of its live
/// items, which the op then updates.
fn apply_model(
    model: &mut HashMap<Vec<u8>, Vec<u8>>,
    op: &Op,
) -> Result<Vec<Option<Vec<u8>>>, EngineError> {
    match op {
        Op::Insert(k, v) => match model.entry(key_of(*k)) {
            std::collections::hash_map::Entry::Occupied(_) => Err(EngineError::Exists),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(v.clone());
                Ok(Vec::new())
            }
        },
        Op::Update(k, v) => match model.get_mut(&key_of(*k)) {
            Some(old) => {
                *old = v.clone();
                Ok(Vec::new())
            }
            None => Err(EngineError::NotFound),
        },
        Op::Put(k, v) => {
            model.insert(key_of(*k), v.clone());
            Ok(Vec::new())
        }
        Op::Get(k) => Ok(vec![model.get(&key_of(*k)).cloned()]),
        Op::GetBatch(ks) => Ok(ks.iter().map(|&k| model.get(&key_of(k)).cloned()).collect()),
        Op::Delete(k) => match model.remove(&key_of(*k)) {
            Some(_) => Ok(Vec::new()),
            None => Err(EngineError::NotFound),
        },
        Op::Reclaim | Op::AdvanceTime(_) => Ok(Vec::new()),
    }
}

/// Applies one op and flattens the outcome into a comparable value.
/// `ItemInfo` offsets are excluded (the model has no placement; only the
/// key/value observations must match).
fn apply(e: &mut ShardEngine, op: &Op, now: u64) -> Result<Vec<Option<Vec<u8>>>, EngineError> {
    match op {
        Op::Insert(k, v) => e.insert(now, &key_of(*k), v).map(|_| Vec::new()),
        Op::Update(k, v) => e.update(now, &key_of(*k), v).map(|_| Vec::new()),
        Op::Put(k, v) => e.put(now, &key_of(*k), v).map(|_| Vec::new()),
        Op::Get(k) => Ok(vec![e.get(now, &key_of(*k)).map(|g| g.value)]),
        Op::GetBatch(ks) => {
            let mut scratch = Vec::new();
            Ok(ks
                .iter()
                .map(|&k| {
                    let hit = e.get_into(now, &key_of(k), &mut scratch);
                    hit.map(|_| scratch.clone())
                })
                .collect())
        }
        Op::Delete(k) => e.delete(now, &key_of(*k)).map(|_| Vec::new()),
        Op::Reclaim => {
            e.pump_reclaim(now);
            Ok(Vec::new())
        }
        Op::AdvanceTime(_) => Ok(Vec::new()),
    }
}

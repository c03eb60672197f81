//! Property tests for RDMA Logging Replication: under arbitrary operation
//! streams and arbitrary injected processing failures, the secondary must
//! converge to exactly the primary's final state (no loss, no duplication,
//! no reordering effects).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use hydra_fabric::{Fabric, FabricConfig};
use hydra_replication::{ReplConfig, ReplMode, ReplicationPair};
use hydra_sim::Sim;
use hydra_store::{EngineConfig, IndexKind, ShardEngine, WriteMode};
use hydra_wire::LogOp;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Put(u8, Vec<u8>),
    Delete(u8),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..24))
                .prop_map(|(k, v)| Op::Put(k % 48, v)),
            1 => any::<u8>().prop_map(|k| Op::Delete(k % 48)),
        ],
        1..150,
    )
}

fn key_of(k: u8) -> Vec<u8> {
    format!("rk{k:03}").into_bytes()
}

/// The secondary's sorted (key, value) state, for cross-mode comparison.
type ObservedState = Vec<(Vec<u8>, Vec<u8>)>;

fn run(
    ops: &[Op],
    fail_seqs: &[u64],
    mode: ReplMode,
    ring_words: usize,
) -> Result<(), TestCaseError> {
    let mut sim = Sim::new(7);
    let fab = Fabric::new(FabricConfig::default());
    let p = fab.add_node();
    let s = fab.add_node();
    let engine = Rc::new(RefCell::new(ShardEngine::new(EngineConfig {
        arena_words: 1 << 15,
        expected_items: 512,
        index: IndexKind::Packed,
        write_mode: WriteMode::Reliable,
        min_lease_ns: 100,
        max_lease_ns: 6_400,
    })));
    let pair = ReplicationPair::new(
        &fab,
        p,
        s,
        engine.clone(),
        ReplConfig {
            ring_words,
            mode,
            apply_cost_ns: 150,
            ..ReplConfig::default()
        },
    );
    for &f in fail_seqs {
        pair.inject_failure(f);
    }
    // The primary's reference state.
    let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    for op in ops {
        match op {
            Op::Put(k, v) => {
                model.insert(key_of(*k), v.clone());
                pair.replicate(&mut sim, LogOp::Put, &key_of(*k), v, None)
                    .expect("record fits ring");
            }
            Op::Delete(k) => {
                model.remove(&key_of(*k));
                pair.replicate(&mut sim, LogOp::Delete, &key_of(*k), &[], None)
                    .expect("record fits ring");
            }
        }
    }
    // Drain the channel (the pair keeps soliciting acks as needed).
    pair.request_ack(&mut sim);
    sim.run();
    // Secondary state must equal the model exactly.
    let mut engine = engine.borrow_mut();
    prop_assert_eq!(engine.len(), model.len(), "item count");
    for (k, v) in &model {
        let got = engine.get(u64::MAX / 2, k).map(|g| g.value);
        prop_assert_eq!(
            got.as_ref(),
            Some(v),
            "key {:?}",
            String::from_utf8_lossy(k)
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn secondary_converges_without_failures(ops in ops()) {
        run(&ops, &[], ReplMode::Logging { ack_every: 8 }, 1 << 14)?;
    }

    #[test]
    fn secondary_converges_with_injected_failures(
        ops in ops(),
        fails in proptest::collection::vec(1u64..150, 0..6),
    ) {
        run(&ops, &fails, ReplMode::Logging { ack_every: 5 }, 1 << 14)?;
    }

    #[test]
    fn secondary_converges_on_tiny_ring(ops in ops()) {
        // Constant wrapping + stalls + backlog draining.
        run(&ops, &[], ReplMode::Logging { ack_every: 4 }, 256)?;
    }

    #[test]
    fn strict_mode_converges_with_failures(
        ops in ops(),
        fails in proptest::collection::vec(1u64..150, 0..4),
    ) {
        run(&ops, &fails, ReplMode::Strict, 1 << 14)?;
    }

    #[test]
    fn strict_converges_on_tiny_ring_with_failures(
        ops in ops(),
        fails in proptest::collection::vec(1u64..150, 0..4),
    ) {
        // Every record asks for its ack, so each one's `AckRequest` ships
        // inside the ring's headroom while the ring wraps and stalls.
        run(&ops, &fails, ReplMode::Strict, 256)?;
    }

    #[test]
    fn group_commit_converges_with_failures(
        ops in ops(),
        fails in proptest::collection::vec(1u64..150, 0..6),
    ) {
        run(&ops, &fails, ReplMode::GroupCommit, 1 << 14)?;
    }

    #[test]
    fn group_commit_converges_on_tiny_ring(ops in ops()) {
        // Constant wrapping + stalls + backlog draining under the ack train.
        run(&ops, &[], ReplMode::GroupCommit, 256)?;
    }

    // Observational equivalence: group commit and per-record strict are the
    // same protocol to an observer — byte-identical engine state on both
    // ends once drained, and no completion ever fires before a cumulative
    // ack covers its record.
    #[test]
    fn group_commit_equivalent_to_strict(
        ops in ops(),
        fails in proptest::collection::vec(1u64..150, 0..4),
    ) {
        let strict = run_observed(&ops, &fails, ReplMode::Strict, 1 << 14)?;
        let gc = run_observed(&ops, &fails, ReplMode::GroupCommit, 1 << 14)?;
        prop_assert_eq!(strict, gc, "secondary state diverged between modes");
    }
}

/// Runs `ops` through a pair whose completions assert the ack-coverage
/// invariant (a callback may only fire once `acked >= seq`), then returns
/// the secondary's sorted state for cross-mode comparison.
fn run_observed(
    ops: &[Op],
    fail_seqs: &[u64],
    mode: ReplMode,
    ring_words: usize,
) -> Result<ObservedState, TestCaseError> {
    let mut sim = Sim::new(7);
    let fab = Fabric::new(FabricConfig::default());
    let p = fab.add_node();
    let s = fab.add_node();
    let engine = Rc::new(RefCell::new(ShardEngine::new(EngineConfig {
        arena_words: 1 << 15,
        expected_items: 512,
        index: IndexKind::Packed,
        write_mode: WriteMode::Reliable,
        min_lease_ns: 100,
        max_lease_ns: 6_400,
    })));
    let pair = ReplicationPair::new(
        &fab,
        p,
        s,
        engine.clone(),
        ReplConfig {
            ring_words,
            mode,
            apply_cost_ns: 150,
            ..ReplConfig::default()
        },
    );
    for &f in fail_seqs {
        pair.inject_failure(f);
    }
    let strict_semantics = mode.strict_semantics();
    let completions = Rc::new(RefCell::new(Vec::<bool>::new()));
    for op in ops {
        // The data record this call will ship gets the next sequence.
        let seq = pair.acked() + pair.lag() + 1;
        let covered = {
            let pair = pair.clone();
            let completions = completions.clone();
            Box::new(move |_: &mut Sim| {
                completions.borrow_mut().push(pair.acked() >= seq);
            })
        };
        let (log_op, key, value) = match op {
            Op::Put(k, v) => (LogOp::Put, key_of(*k), v.clone()),
            Op::Delete(k) => (LogOp::Delete, key_of(*k), Vec::new()),
        };
        pair.replicate(&mut sim, log_op, &key, &value, Some(covered))
            .expect("record fits ring");
    }
    pair.request_ack(&mut sim);
    sim.run();
    let done = completions.borrow();
    prop_assert_eq!(done.len(), ops.len(), "every completion fired");
    if strict_semantics {
        prop_assert!(
            done.iter().all(|&covered| covered),
            "a strict-semantics completion fired before its covering ack"
        );
    }
    let engine = engine.borrow();
    let mut items = Vec::new();
    engine.for_each_item(|k, v| items.push((k, v)));
    items.sort();
    Ok(items)
}

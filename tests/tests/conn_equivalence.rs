//! Connection-plane observational equivalence: dedicated QPs vs the
//! multiplexed channel.
//!
//! QP multiplexing changes *which queue pair* carries a partition's
//! traffic, never what the traffic computes: the per-partition message
//! buffers, connection slots and kicks are untouched, and the channel tag
//! rides pad bytes the codec ignores. Two properties pin that down:
//!
//! 1. **Sequential parity** — for a closed-loop client replaying an
//!    arbitrary mixed GET/PUT/DELETE/SCAN program, the multiplexed run
//!    must produce byte-identical responses at identical virtual times,
//!    and leave every shard engine with identical contents.
//! 2. **Sharing is real** — the multiplexed client provably holds one QP
//!    per server node (not one per partition), so the parity above is not
//!    vacuous.
//! 3. **Parity across a reroute** — partition 0's primary crashes in the
//!    middle of the program and its secondary is promoted: both modes still
//!    agree, every channel routes exactly the tags of the partitions it
//!    carries (one on a dedicated connection), and the rerouted
//!    partition's old tag is gone from its old channel.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use hydra_chaos::FaultEvent;
use hydra_db::client::{OpCb, OpError};
use hydra_db::{ChaosController, Cluster, ClusterBuilder, ClusterConfig, HydraClient};
use hydra_fabric::QpId;
use hydra_sim::time::SEC;
use hydra_sim::SimTime;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Get(u8),
    Insert(u8, u8),
    Update(u8, u8),
    Delete(u8),
    Scan(u8, u32),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            3 => any::<u8>().prop_map(|k| Op::Get(k % 24)),
            1 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k % 24, v)),
            1 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Op::Update(k % 24, v)),
            1 => any::<u8>().prop_map(|k| Op::Delete(k % 24)),
            1 => (any::<u8>(), 1..40u32).prop_map(|(k, l)| Op::Scan(k % 24, l)),
        ],
        1..32,
    )
}

fn key_of(k: u8) -> Vec<u8> {
    format!("seq-key-{k:03}").into_bytes()
}

fn value_of(k: u8, v: u8) -> Vec<u8> {
    format!("val-{k}-{v}").into_bytes()
}

type Trace = Vec<(SimTime, String)>;

fn render(res: &Result<Option<Vec<u8>>, OpError>) -> String {
    match res {
        Ok(Some(v)) => format!("ok:{v:?}"),
        Ok(None) => "miss".to_string(),
        Err(e) => format!("err:{e:?}"),
    }
}

fn cluster_with(mux: bool, cfg_tweak: impl FnOnce(&mut ClusterConfig)) -> Cluster {
    let mut cfg = ClusterConfig {
        seed: 4242,
        server_nodes: 2,
        shards_per_node: 2,
        client_nodes: 1,
        mux_connections: mux,
        ..ClusterConfig::default()
    };
    cfg_tweak(&mut cfg);
    ClusterBuilder::new(cfg).build()
}

/// Replays `ops` closed-loop and returns the completion trace plus a
/// canonical dump of every shard engine's final contents.
fn run_sequential(mux: bool, ops: &[Op], tweak: fn(&mut ClusterConfig)) -> (Trace, Vec<String>) {
    run_program(mux, ops, tweak, None)
}

/// Partition 0's connection just before the crash: its QP and its tag.
type Rerouted = Rc<Cell<Option<(QpId, u16)>>>;

/// A crash of partition 0's primary, applied just before op `at` issues.
struct Crash {
    at: usize,
    chaos: ChaosController,
    before: Rerouted,
}

/// [`run_sequential`], optionally with a [`Crash`] at op `crash_at` (the
/// cluster then runs one secondary per partition and failure detection).
fn run_program(
    mux: bool,
    ops: &[Op],
    tweak: fn(&mut ClusterConfig),
    crash_at: Option<usize>,
) -> (Trace, Vec<String>) {
    let mut cluster = cluster_with(mux, |cfg| {
        tweak(cfg);
        if crash_at.is_some() {
            cfg.replicas = 1;
        }
    });
    let client = cluster.add_client(0);
    for k in 0..12u8 {
        hydra_integration::put_ok(&mut cluster, &client, &key_of(k), &value_of(k, 0));
    }
    let before: Rerouted = Rc::default();
    let crash = crash_at.map(|at| {
        let until = cluster.sim.now() + SEC;
        cluster.enable_ha(until);
        Rc::new(Crash {
            at,
            chaos: cluster.chaos(),
            before: before.clone(),
        })
    });
    let trace: Rc<RefCell<Trace>> = Rc::new(RefCell::new(Vec::new()));
    let done = Rc::new(Cell::new(false));

    fn step(
        sim: &mut hydra_sim::Sim,
        client: HydraClient,
        ops: Rc<Vec<Op>>,
        i: usize,
        trace: Rc<RefCell<Trace>>,
        done: Rc<Cell<bool>>,
        crash: Option<Rc<Crash>>,
    ) {
        if i >= ops.len() {
            done.set(true);
            return;
        }
        if let Some(c) = crash.as_ref().filter(|c| c.at == i) {
            let qp = client.conn_qp(0);
            c.before
                .set(qp.zip(client.conn_tags(0).map(|(tag, _)| tag)));
            c.chaos
                .apply(sim, &FaultEvent::CrashPrimary { partition: 0 });
        }
        let op = ops[i].clone();
        let c2 = client.clone();
        let t2 = trace.clone();
        let cont: OpCb = Box::new(move |sim, res| {
            t2.borrow_mut().push((sim.now(), render(&res)));
            step(sim, c2, ops, i + 1, trace, done, crash);
        });
        match op {
            Op::Get(k) => client.get(sim, &key_of(k), cont),
            Op::Insert(k, v) => client.insert(sim, &key_of(k), &value_of(k, v), cont),
            Op::Update(k, v) => client.update(sim, &key_of(k), &value_of(k, v), cont),
            Op::Delete(k) => client.delete(sim, &key_of(k), cont),
            Op::Scan(k, limit) => client.scan(sim, &key_of(k), limit, cont),
        }
    }

    let ops_rc = Rc::new(ops.to_vec());
    step(
        &mut cluster.sim,
        client.clone(),
        ops_rc,
        0,
        trace.clone(),
        done.clone(),
        crash,
    );
    cluster.sim.run();
    assert!(done.get(), "op chain did not complete");
    if crash_at.is_some() {
        assert_eq!(cluster.promotions(), 1, "partition 0 failed over");
    }

    // Sanity: under mux every touched partition on one node reports the
    // same pooled QP; dedicated mode reports distinct ones.
    let mut by_node: std::collections::HashMap<u32, Vec<hydra_fabric::QpId>> = Default::default();
    for p in 0..cluster.cfg.total_shards() {
        if let Some(qp) = client.conn_qp(p) {
            let node = cluster.shard(p).primary.borrow().node.0;
            by_node.entry(node).or_default().push(qp);
        }
    }
    for (node, qps) in &by_node {
        let distinct: std::collections::HashSet<_> = qps.iter().collect();
        if mux {
            assert_eq!(
                distinct.len(),
                1,
                "node {node} must pool one QP, got {qps:?}"
            );
        } else {
            assert_eq!(distinct.len(), qps.len(), "dedicated QPs must be distinct");
        }
    }

    // Every channel routes exactly the tags of the partitions riding it: one
    // on a dedicated connection, and no tag of a rerouted partition.
    let conns: Vec<(QpId, u16, Vec<u16>)> = (0..cluster.cfg.total_shards())
        .filter_map(|p| {
            let (tag, routed) = client.conn_tags(p)?;
            Some((client.conn_qp(p)?, tag, routed))
        })
        .collect();
    for (qp, _, routed) in &conns {
        let mut riding: Vec<u16> = conns
            .iter()
            .filter(|(q, ..)| q == qp)
            .map(|&(_, tag, _)| tag)
            .collect();
        riding.sort_unstable();
        assert_eq!(
            routed, &riding,
            "channel {qp:?} routes stale or foreign tags"
        );
        if !mux {
            assert_eq!(routed, &[0], "a dedicated channel carries one tag");
        }
    }
    if let Some((old_qp, old_tag)) = before.get() {
        assert_ne!(client.conn_qp(0), Some(old_qp), "partition 0 was rerouted");
        let on_old: Vec<_> = conns.iter().filter(|(qp, ..)| *qp == old_qp).collect();
        // Under mux partition 0's sibling still rides the old channel, which
        // no longer routes partition 0's old tag; a dedicated channel left
        // with its partition.
        assert_eq!(on_old.is_empty(), !mux, "who rides the old channel");
        for (_, _, routed) in on_old {
            assert!(
                !routed.contains(&old_tag),
                "retired tag {old_tag} still routed"
            );
        }
    }

    // Canonical engine state: every key's value, per partition. Probing via
    // `get` post-run mutates lease bookkeeping identically on both sides, so
    // the dumps stay comparable.
    let now = cluster.sim.now();
    let mut engines = Vec::new();
    for p in 0..cluster.cfg.total_shards() {
        let h = cluster.shard(p);
        let primary = h.primary.borrow();
        let mut engine = primary.engine.borrow_mut();
        let dump: Vec<String> = (0..24u8)
            .filter_map(|k| {
                engine
                    .get(now, &key_of(k))
                    .map(|r| format!("{k}={:?}", r.value))
            })
            .collect();
        engines.push(format!("p{p}:[{}]", dump.join(",")));
    }
    (Rc::try_unwrap(trace).unwrap().into_inner(), engines)
}

/// Runs `ops` with partition 0's primary crashed half-way through, then
/// updates every key (the message path) so every partition, the rerouted
/// one included, is connected at the end.
fn run_rerouted(mux: bool, ops: &[Op], tweak: fn(&mut ClusterConfig)) -> (Trace, Vec<String>) {
    let sweep = (0..24).map(|k| Op::Update(k, u8::MAX));
    let program: Vec<Op> = ops.iter().cloned().chain(sweep).collect();
    run_program(mux, &program, tweak, Some(ops.len() / 2))
}

fn no_tweak(_: &mut ClusterConfig) {}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Multiplexed and dedicated clients are observationally equivalent on
    /// the default (RDMA-Write + Read) plane: byte-identical responses at
    /// identical virtual times, identical final engine state.
    #[test]
    fn mux_matches_dedicated_rdma_write_read(ops in ops()) {
        let (ded_trace, ded_engines) = run_sequential(false, &ops, no_tweak);
        let (mux_trace, mux_engines) = run_sequential(true, &ops, no_tweak);
        prop_assert_eq!(ded_trace, mux_trace);
        prop_assert_eq!(ded_engines, mux_engines);
    }

    /// Same property on the two-sided Send/Recv plane, where the channel
    /// tag actually drives the server's demux (the one code path that
    /// could diverge).
    #[test]
    fn mux_matches_dedicated_send_recv(ops in ops()) {
        fn send_recv(cfg: &mut ClusterConfig) {
            cfg.client_mode = hydra_db::ClientMode::SendRecv;
        }
        let (ded_trace, ded_engines) = run_sequential(false, &ops, send_recv);
        let (mux_trace, mux_engines) = run_sequential(true, &ops, send_recv);
        prop_assert_eq!(ded_trace, mux_trace);
        prop_assert_eq!(ded_engines, mux_engines);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Parity survives partition 0's fail-over mid-program on the default
    /// plane: the rerouted partition's requests reach the promoted primary
    /// over a fresh QP (dedicated) or the surviving node's channel (mux).
    #[test]
    fn mux_matches_dedicated_across_a_reroute(ops in ops()) {
        let (ded_trace, ded_engines) = run_rerouted(false, &ops, no_tweak);
        let (mux_trace, mux_engines) = run_rerouted(true, &ops, no_tweak);
        prop_assert_eq!(ded_trace, mux_trace);
        prop_assert_eq!(ded_engines, mux_engines);
    }

    /// The same across a reroute on the Send/Recv plane, where a retired
    /// tag is what stops the old channel's recv handler.
    #[test]
    fn mux_matches_dedicated_across_a_reroute_send_recv(ops in ops()) {
        fn send_recv(cfg: &mut ClusterConfig) {
            cfg.client_mode = hydra_db::ClientMode::SendRecv;
        }
        let (ded_trace, ded_engines) = run_rerouted(false, &ops, send_recv);
        let (mux_trace, mux_engines) = run_rerouted(true, &ops, send_recv);
        prop_assert_eq!(ded_trace, mux_trace);
        prop_assert_eq!(ded_engines, mux_engines);
    }
}

/// SRQ + huge pages are pure resource-model changes: the same program over
/// the fully optimized connection plane (mux + SRQ + 2 MiB pages) returns
/// the same responses as the unoptimized baseline at small scale, where no
/// cache ever misses in either configuration.
#[test]
fn optimized_connection_plane_is_transparent_at_small_scale() {
    let ops: Vec<Op> = (0..24u8)
        .map(|i| match i % 4 {
            0 => Op::Insert(i, i),
            1 => Op::Get(i.wrapping_sub(1)),
            2 => Op::Update(i.wrapping_sub(2), i),
            _ => Op::Scan(0, 12),
        })
        .collect();
    let (base_trace, base_engines) = run_sequential(false, &ops, no_tweak);
    let (opt_trace, opt_engines) = run_sequential(true, &ops, |cfg| {
        cfg.srq = true;
        cfg.page_bytes = 2 << 20;
    });
    assert_eq!(base_trace, opt_trace);
    assert_eq!(base_engines, opt_engines);
}

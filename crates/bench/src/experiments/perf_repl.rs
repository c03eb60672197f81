//! BENCH_repl — the group-commit write plane vs per-record strict acks.
//!
//! Two views of the same protocol change:
//!
//! 1. **Channel microbench** — a single [`ReplicationPair`] driven closed-
//!    loop at pipeline depth D. Per-record strict req/ack serializes one
//!    ring write + one ack round trip + one cold merge per record, so its
//!    throughput is pinned by `apply + ack` regardless of depth. Group
//!    commit ships doorbell-coalesced log quanta, lets one cumulative ack
//!    cover everything it has applied, and streams the backlog through the
//!    batched applier — depth converts directly into merge amortization.
//!
//! 2. **Cluster sweep** — the fig13 single-shard serving setup under a
//!    write-heavy YCSB workload (and YCSB-A for the mixed view), sweeping
//!    replication mode x replicas x client pipeline depth. Reports the
//!    strict-semantics write p50 (every completion gated on a covering
//!    ack) and the throughput ratio over per-record strict.
//!
//! Claims (the study's floors): group commit sustains >= 1.5x
//! the per-record strict record rate at channel depth 64, >= 1.3x cluster
//! write throughput at depth 64, and a strict-semantics write p50 <= 5.5 us
//! with one synchronous replica.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use hydra_db::{costs, AimdConfig, ClusterConfig, ReplicationMode};
use hydra_fabric::{Fabric, FabricConfig};
use hydra_replication::{ReplConfig, ReplMode, ReplicationPair};
use hydra_sim::{Histogram, Sim};
use hydra_store::{EngineConfig, ShardEngine, WriteMode};
use hydra_wire::LogOp;
use hydra_ycsb::{run_workload, DriverConfig, Workload};

use crate::{one_workload, paper_cluster, replicated_shard_config, Report, Scale};

struct PairBench {
    pair: ReplicationPair,
    issued: Cell<u64>,
    completed: Cell<u64>,
    total: u64,
    lat: RefCell<Histogram>,
    end: Cell<u64>,
    keys: Vec<Vec<u8>>,
}

fn issue(b: &Rc<PairBench>, sim: &mut Sim) {
    let i = b.issued.get();
    if i >= b.total {
        return;
    }
    b.issued.set(i + 1);
    let key = b.keys[(i as usize) % b.keys.len()].clone();
    let t0 = sim.now();
    let b2 = b.clone();
    let cb: Box<dyn FnOnce(&mut Sim)> = Box::new(move |sim: &mut Sim| {
        b2.lat.borrow_mut().record(sim.now().saturating_sub(t0));
        let done = b2.completed.get() + 1;
        b2.completed.set(done);
        if done == b2.total {
            b2.end.set(sim.now());
        }
        issue(&b2, sim);
    });
    let value = [0xCD; 32];
    b.pair
        .replicate(sim, LogOp::Put, &key, &value, Some(cb))
        .expect("record fits ring");
}

/// Closed-loop channel throughput at pipeline depth `depth`: records/sec
/// over virtual time plus the ack-gated completion latency distribution.
fn run_pair(mode: ReplMode, depth: usize, total: u64) -> (f64, f64, f64) {
    let mut sim = Sim::new(41);
    let fab = Fabric::new(FabricConfig::default());
    let p = fab.add_node();
    let s = fab.add_node();
    let engine = Rc::new(RefCell::new(ShardEngine::new(EngineConfig {
        arena_words: 1 << 22,
        write_mode: WriteMode::Reliable,
        min_lease_ns: 100,
        max_lease_ns: 6_400,
        ..EngineConfig::default()
    })));
    let pair = ReplicationPair::new(
        &fab,
        p,
        s,
        engine,
        ReplConfig {
            ring_words: 1 << 18,
            mode,
            // The cluster's channel: apply cost = the primary's write cost.
            apply_cost_ns: costs::WRITE_NS,
            ..ReplConfig::default()
        },
    );
    let bench = Rc::new(PairBench {
        pair,
        issued: Cell::new(0),
        completed: Cell::new(0),
        total,
        lat: RefCell::new(Histogram::new()),
        end: Cell::new(0),
        keys: (0..1024u32)
            .map(|i| format!("repl-key-{i:06}").into_bytes())
            .collect(),
    });
    for _ in 0..depth {
        issue(&bench, &mut sim);
    }
    sim.run();
    assert_eq!(bench.completed.get(), total, "channel drained every record");
    let elapsed = bench.end.get().max(1);
    let mrecs = total as f64 / (elapsed as f64 / 1e9) / 1e6;
    let lat = bench.lat.borrow();
    (
        mrecs,
        lat.quantile(0.5) as f64 / 1_000.0,
        lat.quantile(0.99) as f64 / 1_000.0,
    )
}

/// Fig13-style serving setup: one shard, dedicated replica machines, the
/// replication channel as the only difference between arms. Total depth =
/// clients x window; AIMD stays off so the sweep controls the window, and
/// depth 1 is a true single closed-loop client (the latency gate's view).
fn cluster_run(
    mode: ReplicationMode,
    replicas: u32,
    clients: usize,
    window: usize,
    wl: &Workload,
) -> hydra_ycsb::WorkloadReport {
    let cfg = ClusterConfig {
        pipeline_depth: window,
        aimd: AimdConfig { enabled: false },
        ..replicated_shard_config(mode, replicas)
    };
    let (mut cluster, cl) = paper_cluster(cfg, clients);
    let dcfg = DriverConfig {
        window,
        ..DriverConfig::default()
    };
    run_workload(&mut cluster.sim, &cl, wl, &dcfg)
}

pub(crate) fn run(scale: Scale, report: &mut Report) {

    // Part 1: the replication channel in isolation.
    report.line("## channel microbench (one ReplicationPair, closed loop)");
    report.header("protocol<22|depth>6|Mrec/s>10.3|p50_us>10.2|p99_us>10.2");
    let total = (scale.ops() / 2).max(5_000);
    let mut rate = HashMap::new();
    for (label, k, mode) in [
        ("strict req/ack", "strict", ReplMode::Strict),
        ("group commit", "gc", ReplMode::GroupCommit),
    ] {
        for depth in [1usize, 16, 64] {
            let (mrecs, p50, p99) = run_pair(mode, depth, total);
            report.row(&[&label, &depth, &mrecs, &p50, &p99]);
            report.datum(&format!("pair/{k}/d{depth}/mrecs"), mrecs);
            report.datum(&format!("pair/{k}/d{depth}/p50_us"), p50);
            rate.insert((k, depth), mrecs);
        }
    }
    let pair_speedup = rate[&("gc", 64)] / rate[&("strict", 64)].max(1e-9);
    report.line(&format!(
        "# channel speedup at depth 64: {pair_speedup:.2}x (floor 1.5x)"
    ));
    report.datum("pair/speedup_d64", pair_speedup);

    // Part 2: end-to-end cluster sweep (write-heavy, then YCSB-A).
    report.line("");
    report.line("## cluster sweep (single shard, depth = clients x window)");
    report.header(
        "workload<12|protocol<16|reps>4|depth>6|Mops>10.3|upd_p50_us>12.2|upd_p99_us>12.2",
    );
    let arms = [
        ("strict", ReplicationMode::Strict),
        ("gc", ReplicationMode::GroupCommit),
    ];
    // Write-heavy runs with one replica, by protocol and depth.
    let mut write_heavy = HashMap::new();
    for (wl_name, read_ratio) in [("write-heavy", 0.0), ("ycsb-a", 0.5)] {
        let wl = one_workload(scale, read_ratio, true, 47);
        for (name, mode) in arms {
            for replicas in [1u32, 2] {
                for (clients, window) in [(1usize, 1usize), (4, 4), (8, 8)] {
                    let depth = clients * window;
                    // YCSB-A rides along at the grid's corners only.
                    if wl_name == "ycsb-a" && (replicas != 1 || depth == 16) {
                        continue;
                    }
                    let r = cluster_run(mode, replicas, clients, window, &wl);
                    if wl_name == "write-heavy" && replicas == 1 {
                        write_heavy.insert((name, depth), (r.mops, r.update_p50_us));
                    }
                    let (p50, p99) = (r.update_p50_us, r.update_p99_us);
                    report.row(&[&wl_name, &name, &replicas, &depth, &r.mops, &p50, &p99]);
                    report.datum(
                        &format!("{wl_name}/{name}/r{replicas}/d{depth}/mops"),
                        r.mops,
                    );
                    report.datum(
                        &format!("{wl_name}/{name}/r{replicas}/d{depth}/upd_p50_us"),
                        r.update_p50_us,
                    );
                }
            }
        }
    }
    let cluster_speedup = write_heavy[&("gc", 64)].0 / write_heavy[&("strict", 64)].0.max(1e-9);
    let gc_p50_d1_r1 = write_heavy[&("gc", 1)].1;
    report.line(&format!(
        "# cluster write speedup at depth 64 (r1): {cluster_speedup:.2}x (floor 1.3x)"
    ));
    report.line(&format!(
        "# group-commit write p50, depth 1, 1 replica: {gc_p50_d1_r1:.2} us (ceiling 5.5 us)"
    ));
    report.datum("cluster/speedup_d64", cluster_speedup);
    report.datum("cluster/gc_p50_d1_r1_us", gc_p50_d1_r1);
    report.claim(
        pair_speedup >= 1.5,
        format!("channel speedup at depth 64 {pair_speedup:.2}x"),
        "group commit sustains >= 1.5x per-record strict at channel depth 64",
    );
    report.claim(
        cluster_speedup >= 1.3,
        format!("cluster write speedup at depth 64 {cluster_speedup:.2}x"),
        "group commit delivers >= 1.3x cluster write throughput at depth 64",
    );
    report.claim(
        gc_p50_d1_r1 <= 5.5,
        format!("group-commit write p50, depth 1, 1 replica: {gc_p50_d1_r1:.2} us"),
        "a strict-semantics write p50 with one replica stays <= 5.5 us",
    );
}

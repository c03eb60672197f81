//! Fault-injection integration (the `hydra_db::chaos` adversary): random and
//! directed fault plans against replicated clusters, with every client op
//! recorded and the resulting history checked for per-key linearizability,
//! read integrity (no torn or never-written values) and replica convergence
//! after recovery. Any failure message carries the `HYDRA_SEED` that
//! replays it.

use std::cell::Cell;
use std::rc::Rc;

use hydra_db::chaos::{check_convergence, ChaosController, FaultEvent, FaultPlan, RecordingClient};
use hydra_db::{ClusterBuilder, ClusterConfig, ReplicationMode, SchedulerKind};
use hydra_sim::time::{MS, SEC};
use hydra_sim::Sim;
use proptest::prelude::*;

/// Recorded clients per chaos round: enough closed-loop clients over two
/// partitions that requests queue at a shard, so rounds drive its sweeps
/// (two or more bare requests taken from a lane as one quantum) as well as
/// its singletons.
const CLIENTS: usize = 4;

/// Closed-loop recorded workload: `total` ops over `keys`, two writes per
/// read, unique write values (`c<client>-<op>`), tolerant of op failures
/// (the checker treats failed writes as maybe-applied).
fn drive(
    sim: &mut Sim,
    client: RecordingClient,
    keys: Rc<Vec<Vec<u8>>>,
    i: usize,
    total: usize,
    done: Rc<Cell<bool>>,
) {
    if i >= total {
        done.set(true);
        return;
    }
    let key = keys[i % keys.len()].clone();
    let c2 = client.clone();
    let cont: hydra_db::client::OpCb = Box::new(move |sim, _r| {
        drive(sim, c2, keys, i + 1, total, done);
    });
    if i % 3 == 2 {
        client.get(sim, &key, cont);
    } else {
        let value = format!("c{}-{}", client.client().id(), i).into_bytes();
        client.put(sim, &key, &value, cont);
    }
}

/// Like [`drive`], but every fifth op is a SCAN over the shared key space.
/// Each returned item is recorded as a Get observation spanning the scan
/// window, so a torn or stale item under fail-over fails the checker.
fn drive_with_scans(
    sim: &mut Sim,
    client: RecordingClient,
    keys: Rc<Vec<Vec<u8>>>,
    i: usize,
    total: usize,
    done: Rc<Cell<bool>>,
) {
    if i >= total {
        done.set(true);
        return;
    }
    let key = keys[i % keys.len()].clone();
    let c2 = client.clone();
    let cont: hydra_db::client::OpCb = Box::new(move |sim, _r| {
        drive_with_scans(sim, c2, keys, i + 1, total, done);
    });
    if i % 5 == 4 {
        client.scan(sim, &key, 8, cont);
    } else if i % 3 == 2 {
        client.get(sim, &key, cont);
    } else {
        let value = format!("c{}-{}", client.client().id(), i).into_bytes();
        client.put(sim, &key, &value, cont);
    }
}

/// One full chaos round: 3 machines, 2 partitions, one synchronous replica
/// each, HA armed, a random fault plan derived from `seed`, [`CLIENTS`]
/// recorded clients, recovery, then all three checks. Returns what the
/// shards still standing ran of the quantum paths (see [`quanta`]).
fn chaos_round(seed: u64) -> Quanta {
    chaos_round_with(seed, false)
}

/// `spread` additionally enables replica read spreading with an aggressive
/// export threshold, so fast-path reads rotate over primary + secondary
/// pointers while the fault plan fires.
fn chaos_round_with(seed: u64, spread: bool) -> Quanta {
    chaos_round_inner(seed, spread, false)
}

/// A chaos round on a cluster whose workload interleaves
/// SCANs with the writes: every returned scan item is checked against the
/// recorded write history, so fail-over can never surface a torn or stale
/// item through the ordered plane.
fn chaos_scan_round(seed: u64) -> Quanta {
    chaos_round_inner(seed, false, true)
}

/// A scan-bearing chaos round with aggressive dual-lane preemption: tiny
/// scan chunks force running scans to yield whenever a point op lands, so
/// crashes and revivals race against mid-flight yielded scans (the
/// re-queued remainder must be dropped cleanly on a dead shard and the
/// lanes must drain after revival).
fn chaos_lane_round(seed: u64) -> Quanta {
    chaos_round_cfg(seed, false, true, |cfg| {
        cfg.scheduler = SchedulerKind::DualLane;
        cfg.scan_chunk_items = 4;
    })
}

/// FIFO service — the lane scheduler with every task classified into one
/// lane — under the same adversary: keeps the non-default classification
/// exercised against faults.
fn chaos_fifo_round(seed: u64) -> Quanta {
    chaos_round_cfg(seed, false, true, |cfg| {
        cfg.scheduler = SchedulerKind::Fifo;
    })
}

/// The group-commit write plane under the full adversary: cumulative acks,
/// piggybacked ack requests and the batched applier must preserve exactly
/// the per-record strict guarantees while crashes, drops and delays hit the
/// channel. The shared driver is already write-heavy (two writes per read).
fn chaos_gc_round(seed: u64) -> Quanta {
    chaos_round_cfg(seed, false, false, |cfg| {
        cfg.replication = ReplicationMode::GroupCommit;
    })
}

fn chaos_round_inner(seed: u64, spread: bool, scans: bool) -> Quanta {
    chaos_round_cfg(seed, spread, scans, |_| {})
}

/// The multiplexed connection plane under the full adversary: one QP per
/// (client, server node) carrying every partition's traffic, SRQ receive
/// pooling, and Send/Recv serving so the channel-tag demux is the live
/// request path. A QP-level fault now fans out to *all* partitions sharing
/// the channel, and fail-over re-homes a partition onto the surviving
/// node's channel mid-plan — the checker must stay clean regardless.
fn chaos_mux_round(seed: u64) -> Quanta {
    chaos_round_cfg(seed, false, true, |cfg| {
        cfg.mux_connections = true;
        cfg.srq = true;
        cfg.client_mode = hydra_db::ClientMode::SendRecv;
    })
}

/// What shards ran of the quantum paths: sweeps — quanta of two or more
/// bare requests taken from a lane together — and absorbed writes — UPDATEs
/// a later UPDATE of the key overwrote inside their quantum.
#[derive(Clone, Copy, Default)]
struct Quanta {
    sweeps: u64,
    absorbed: u64,
}

impl std::iter::Sum for Quanta {
    fn sum<I: Iterator<Item = Quanta>>(rounds: I) -> Quanta {
        rounds.fold(Quanta::default(), |a, b| Quanta {
            sweeps: a.sweeps + b.sweeps,
            absorbed: a.absorbed + b.absorbed,
        })
    }
}

/// The [`Quanta`] of every shard of `cluster` still standing (a deposed
/// primary's count leaves with it).
fn quanta(cluster: &hydra_db::Cluster) -> Quanta {
    (0..cluster.report().rows.len() as u32)
        .flat_map(|p| {
            let group = cluster.shard(p);
            let shards = std::iter::once(group.primary).chain(group.secondaries);
            shards.map(|s| {
                let stats = s.borrow().stats();
                Quanta {
                    sweeps: stats.sweeps,
                    absorbed: stats.absorbed_writes,
                }
            })
        })
        .sum()
}

/// A soak drove the sweep path and the absorption of overwritten writes: at
/// least one of its rounds took two or more bare requests from a lane as
/// one quantum, and at least one answered an UPDATE its quantum overwrote
/// without writing it.
fn assert_swept(soak: &str, quanta: Quanta) {
    assert!(
        quanta.sweeps > 0,
        "{soak}: no round formed a sweep of two or more"
    );
    assert!(quanta.absorbed > 0, "{soak}: no round absorbed a write");
}

fn chaos_round_cfg(
    seed: u64,
    spread: bool,
    scans: bool,
    tweak: impl FnOnce(&mut ClusterConfig),
) -> Quanta {
    let horizon = 400 * MS;
    let mut cfg = ClusterConfig {
        seed,
        server_nodes: 3,
        partitions: Some(2),
        client_nodes: 1,
        replicas: 1,
        replication: ReplicationMode::Strict,
        replica_read_spread: spread,
        hot_read_threshold: if spread { 1 } else { 8 },
        ..ClusterConfig::default()
    };
    tweak(&mut cfg);
    let mut cluster = ClusterBuilder::new(cfg).build();
    cluster.enable_ha(horizon + SEC);
    let plan = FaultPlan::random(seed, 3, 2, horizon);
    cluster.install_plan(&plan);
    let chaos = cluster.chaos();

    let keys: Rc<Vec<Vec<u8>>> = Rc::new(
        (0..12)
            .map(|i| format!("key-{i:02}").into_bytes())
            .collect(),
    );
    let mut dones = Vec::new();
    for c in 0..CLIENTS {
        let client = cluster.add_recording_client(c);
        let done = Rc::new(Cell::new(false));
        if scans {
            drive_with_scans(&mut cluster.sim, client, keys.clone(), 0, 60, done.clone());
        } else {
            drive(&mut cluster.sim, client, keys.clone(), 0, 60, done.clone());
        }
        dones.push(done);
    }
    cluster.sim.run();
    assert!(
        dones.iter().all(|d| d.get()),
        "HYDRA_SEED={seed}: client chains did not complete"
    );
    // Make sure every planned fault has fired before declaring recovery.
    let target = (plan.last_event_at() + 50 * MS).max(cluster.sim.now());
    cluster.sim.run_until(target);

    chaos.recover(&mut cluster.sim);
    cluster.settle_replication();

    // The cluster must actually serve again: a fresh recorded write+read.
    let probe = cluster.add_recording_client(0);
    let ok = Rc::new(Cell::new(false));
    let ok2 = ok.clone();
    let p2 = probe.clone();
    probe.put(
        &mut cluster.sim,
        b"post-recovery-probe",
        b"alive",
        Box::new(move |sim, r| {
            r.expect("post-recovery write succeeds");
            p2.get(
                sim,
                b"post-recovery-probe",
                Box::new(move |_, r| {
                    assert_eq!(r.unwrap().as_deref(), Some(b"alive".as_slice()));
                    ok2.set(true);
                }),
            );
        }),
    );
    cluster.sim.run();
    assert!(ok.get(), "HYDRA_SEED={seed}: post-recovery probe stalled");
    cluster.settle_replication();

    let history = chaos.history();
    // Scan rounds record per-item observations instead of one entry per
    // scan invocation, and a scan that failed mid-fault records nothing.
    let min_recorded = CLIENTS * if scans { 48 } else { 60 } + usize::from(!scans);
    assert!(
        history.len() >= min_recorded,
        "both workloads plus the probe recorded (got {})",
        history.len()
    );
    assert_history_clean(&cluster, &chaos, seed);
    quanta(&cluster)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Whatever a random (but seed-replayable) fault plan throws at a
    /// replicated cluster — crashes, partitions, lost/duplicated/delayed
    /// replication frames, slow NICs, forced lease expiry — the recorded
    /// history stays linearizable per key, reads never observe torn or
    /// invented values, and replicas converge after recovery.
    #[test]
    fn random_fault_plans_never_break_consistency(seed in 0u64..10_000) {
        chaos_round(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The same adversary with replica read spreading enabled: hot keys
    /// export secondary remote pointers and clients rotate fast-path reads
    /// over the whole replica group while machines crash, leases lapse and
    /// replication frames are dropped. Consistency must not depend on which
    /// copy a read happened to land on.
    #[test]
    fn random_fault_plans_with_replica_spreading(seed in 0u64..10_000) {
        chaos_round_with(seed, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random fault plans against a cluster whose workload
    /// interleaves SCANs with writes: every scan-returned item is recorded
    /// as a read observation and must linearize inside the scan window —
    /// scans never observe torn or stale items across fail-over.
    #[test]
    fn random_fault_plans_with_scans(seed in 0u64..10_000) {
        chaos_scan_round(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Scan-heavy chaos with tiny dual-lane chunks: preempted scans yield
    /// mid-flight while machines crash and revive. The re-queued remainders
    /// must be discarded cleanly on dead shards, the lanes must drain after
    /// revival, and the recorded history must stay consistent throughout.
    #[test]
    fn random_fault_plans_with_lane_preemption(seed in 0u64..10_000) {
        chaos_lane_round(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The non-default FIFO scheduler against the same adversary, so the
    /// legacy run-queue path keeps its fault coverage.
    #[test]
    fn random_fault_plans_with_fifo_scheduler(seed in 0u64..10_000) {
        chaos_fifo_round(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The group-commit replication mode under random fault plans: write
    /// completions gated on cumulative acks must stay linearizable and
    /// converge even when the ack train itself is dropped, delayed or
    /// duplicated and machines crash mid-quantum.
    #[test]
    fn random_fault_plans_under_group_commit(seed in 0u64..10_000) {
        chaos_gc_round(seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Random fault plans against the multiplexed connection plane (QP
    /// pooling + SRQ + tag demux): channel-level faults hit every partition
    /// sharing the QP and promotions re-home partitions across channels,
    /// yet the recorded history stays linearizable and replicas converge.
    #[test]
    fn random_fault_plans_with_multiplexed_channels(seed in 0u64..10_000) {
        chaos_mux_round(seed);
    }
}

/// Exhaustive sweep for local soak runs: `cargo test -- --ignored chaos`.
#[test]
#[ignore = "soak: ~100 full chaos rounds"]
fn chaos_round_soak() {
    assert_swept("chaos_round_soak", (0..100u64).map(chaos_round).sum());
}

/// Scan-bearing soak: `cargo test -- --ignored chaos_scan`.
#[test]
#[ignore = "soak: ~50 scan-heavy chaos rounds"]
fn chaos_scan_round_soak() {
    assert_swept(
        "chaos_scan_round_soak",
        (0..50u64).map(chaos_scan_round).sum(),
    );
}

/// Dual-lane preemption soak: `cargo test -- --ignored chaos_lane`.
#[test]
#[ignore = "soak: ~50 preemption-heavy chaos rounds"]
fn chaos_lane_round_soak() {
    assert_swept(
        "chaos_lane_round_soak",
        (0..50u64).map(chaos_lane_round).sum(),
    );
}

/// FIFO soak — every task in one lane, so sweeps are runs of consecutive
/// point ops between scans: `cargo test -- --ignored chaos_fifo`.
#[test]
#[ignore = "soak: ~50 single-lane chaos rounds"]
fn chaos_fifo_round_soak() {
    assert_swept(
        "chaos_fifo_round_soak",
        (0..50u64).map(chaos_fifo_round).sum(),
    );
}

/// Group-commit soak over write-heavy seeds (the shared driver issues two
/// writes per read): `cargo test -- --ignored chaos_gc`.
#[test]
#[ignore = "soak: ~50 group-commit chaos rounds"]
fn chaos_gc_round_soak() {
    assert_swept("chaos_gc_round_soak", (0..50u64).map(chaos_gc_round).sum());
}

/// Multiplexed-channel soak: `cargo test -- --ignored chaos_mux`.
#[test]
#[ignore = "soak: ~50 multiplexed-channel chaos rounds"]
fn chaos_mux_round_soak() {
    assert_swept(
        "chaos_mux_round_soak",
        (0..50u64).map(chaos_mux_round).sum(),
    );
}

/// Directed fan-out check: with multiplexing on, a fault programmed on the
/// one pooled QP delays traffic of *every* partition behind it; with
/// dedicated QPs the same fault stays confined to its own partition. This
/// is the observable blast-radius trade the Storm/RDMAvisor design makes,
/// pinned down so it stays intentional.
#[test]
fn mux_qp_fault_fans_out_to_channel_partners() {
    use hydra_fabric::LinkFault;
    use hydra_sim::SimTime;

    const DELAY: SimTime = 150_000;

    /// Returns (baseline, faulted) GET latency per partition after
    /// programming a delay fault on partition 0's QP.
    fn run(mux: bool) -> ([SimTime; 2], [SimTime; 2]) {
        let cfg = ClusterConfig {
            seed: 909,
            server_nodes: 1,
            partitions: Some(2),
            client_nodes: 1,
            // Message-path GETs only, so every op actually crosses the QP.
            client_mode: hydra_db::ClientMode::RdmaWrite,
            mux_connections: mux,
            srq: mux,
            ..ClusterConfig::default()
        };
        let mut cluster = ClusterBuilder::new(cfg).build();
        let client = cluster.add_client(0);

        // One key per partition, routed through the live ring.
        let mut keys: [Option<Vec<u8>>; 2] = [None, None];
        for i in 0u32.. {
            let k = format!("fan-key-{i:03}").into_bytes();
            let p = cluster.directory.borrow().ring.route(&k).unwrap().0 as usize;
            if keys[p].is_none() {
                keys[p] = Some(k);
                if keys.iter().all(|k| k.is_some()) {
                    break;
                }
            }
        }
        let keys = keys.map(Option::unwrap);
        for (i, k) in keys.iter().enumerate() {
            hydra_integration::put_ok(&mut cluster, &client, k, format!("v{i}").as_bytes());
        }
        let qp0 = client.conn_qp(0).expect("partition 0 connected");
        let qp1 = client.conn_qp(1).expect("partition 1 connected");
        if mux {
            assert_eq!(qp0, qp1, "mux must pool both partitions on one QP");
        } else {
            assert_ne!(qp0, qp1, "dedicated partitions own distinct QPs");
        }

        let lat = |cluster: &mut hydra_db::Cluster, key: &[u8]| -> SimTime {
            let t0 = cluster.sim.now();
            let v = hydra_integration::get_value(cluster, &client, key);
            assert!(v.is_some(), "faulted GET must still complete");
            cluster.sim.now() - t0
        };
        let base = [lat(&mut cluster, &keys[0]), lat(&mut cluster, &keys[1])];

        cluster
            .fab
            .set_qp_fault(qp0, LinkFault::delay_next(8, DELAY));
        let faulted = [lat(&mut cluster, &keys[0]), lat(&mut cluster, &keys[1])];
        (base, faulted)
    }

    let (ded_base, ded_faulted) = run(false);
    assert!(
        ded_faulted[0] >= ded_base[0] + DELAY,
        "dedicated: the faulted partition sees the delay \
         ({} vs base {})",
        ded_faulted[0],
        ded_base[0]
    );
    assert!(
        ded_faulted[1] < ded_base[1] + DELAY / 2,
        "dedicated: the sibling partition is untouched \
         ({} vs base {})",
        ded_faulted[1],
        ded_base[1]
    );

    let (mux_base, mux_faulted) = run(true);
    assert!(
        mux_faulted[0] >= mux_base[0] + DELAY,
        "mux: the faulted partition sees the delay ({} vs base {})",
        mux_faulted[0],
        mux_base[0]
    );
    assert!(
        mux_faulted[1] >= mux_base[1] + DELAY,
        "mux: the channel partner inherits the fault ({} vs base {})",
        mux_faulted[1],
        mux_base[1]
    );
}

/// The legacy kill hooks now route through the chaos controller: same
/// detection and SWAT promotion behavior, but the faults are logged.
#[test]
fn kill_primary_via_chaos_controller_still_promotes() {
    let cfg = ClusterConfig {
        seed: 5,
        server_nodes: 3,
        partitions: Some(2),
        client_nodes: 1,
        replicas: 1,
        replication: ReplicationMode::Strict,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    cluster.enable_ha(2 * SEC);
    cluster.sim.run_until(20 * MS);
    cluster.kill_primary(0);
    cluster.kill_swat_leader();
    // Was run_until(500 ms): the session window plus the hand-over. Now the
    // surviving SWAT member has the secondary's report within a millisecond.
    cluster.sim.run_until(21 * MS);
    assert_eq!(cluster.promotions(), 1, "partition 0 failed over");
    assert!(
        cluster.session_alive_id(cluster.session_id(0)),
        "new primary registered a session"
    );
    let chaos = cluster.chaos();
    assert_eq!(
        chaos.injected(),
        2,
        "both kills flowed through the chaos API"
    );
}

/// Directed mid-batch processing failure (PAPER.md §5.2): a secondary that
/// fails to apply a record in the middle of a doorbell-batched shipment
/// discards from the gap on; the primary detects the gap from the ack
/// high-water mark, rolls back, and resends — and the replica converges.
#[test]
fn crash_mid_replicate_batch_rolls_back_and_resends() {
    use hydra_fabric::{Fabric, FabricConfig};
    use hydra_replication::{ReplConfig, ReplMode, ReplicationPair};
    use hydra_store::{EngineConfig, ShardEngine, WriteMode};
    use hydra_wire::LogOp;
    use std::cell::RefCell;

    let mut sim = Sim::new(11);
    let fab = Fabric::new(FabricConfig::default());
    let p = fab.add_node();
    let s = fab.add_node();
    let engine = Rc::new(RefCell::new(ShardEngine::new(EngineConfig {
        arena_words: 1 << 16,
        write_mode: WriteMode::Reliable,
        min_lease_ns: 1_000,
        max_lease_ns: 64_000,
        ..EngineConfig::default()
    })));
    let pair = ReplicationPair::new(
        &fab,
        p,
        s,
        engine.clone(),
        ReplConfig {
            mode: ReplMode::Logging { ack_every: 5 },
            ..Default::default()
        },
    );
    // The 13th record of the batch will fail to process on the secondary.
    pair.inject_failure(13);
    let records: Vec<(Vec<u8>, Vec<u8>)> = (0..32u32)
        .map(|i| (format!("bk{i:02}").into_bytes(), i.to_le_bytes().to_vec()))
        .collect();
    let refs: Vec<(LogOp, &[u8], &[u8])> = records
        .iter()
        .map(|(k, v)| (LogOp::Put, k.as_slice(), v.as_slice()))
        .collect();
    let done = Rc::new(Cell::new(false));
    let d = done.clone();
    pair.replicate_batch(&mut sim, &refs, Some(Box::new(move |_| d.set(true))))
        .expect("batch fits the replication ring");
    sim.run();
    pair.request_ack(&mut sim);
    sim.run();
    assert!(
        done.get(),
        "batch completion fires despite the mid-batch gap"
    );
    let st = pair.stats();
    assert!(st.rollbacks >= 1, "gap must trigger a rollback");
    assert!(st.discarded >= 1, "secondary discards from the gap on");
    assert!(st.resends >= 1, "primary resends the discarded tail");
    let mut e = engine.borrow_mut();
    assert_eq!(e.len(), 32, "secondary converges to the full batch");
    for (k, v) in &records {
        assert_eq!(e.get(0, k).map(|g| g.value), Some(v.clone()));
    }
}

/// Directed group-commit crash arm: kill a primary inside the exact window
/// where a log quantum has been shipped to the secondary but the covering
/// cumulative ack has not yet returned. Completions only fire once an ack
/// covers their record, so every write the client saw succeed must survive
/// the fail-over on the promoted secondary; writes caught inside the window
/// may be retried but can never be lost-after-ack or torn.
#[test]
fn crash_primary_between_ship_and_cumulative_ack() {
    let seed = 23;
    let cfg = ClusterConfig {
        seed,
        server_nodes: 3,
        partitions: Some(2),
        client_nodes: 1,
        replicas: 1,
        replication: ReplicationMode::GroupCommit,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    cluster.enable_ha(2 * SEC);
    let chaos = cluster.chaos();

    let keys: Rc<Vec<Vec<u8>>> = Rc::new(
        (0..12)
            .map(|i| format!("gckey-{i:02}").into_bytes())
            .collect(),
    );
    let client = cluster.add_recording_client(0);
    let done = Rc::new(Cell::new(false));
    drive(&mut cluster.sim, client, keys.clone(), 0, 80, done.clone());

    // Step the simulation until partition 0 provably holds a shipped but
    // not yet cumulatively acked quantum (occupied ring words and a lagging
    // watermark), then pull the plug on its primary inside that window.
    let mut armed = false;
    for _ in 0..200_000 {
        if !cluster.sim.step() {
            break;
        }
        let row = cluster.report().rows[0].clone();
        if row.repl_inflight_words > 0 && row.repl_lag_max > 0 {
            armed = true;
            break;
        }
    }
    assert!(
        armed,
        "never caught a quantum between ship and cumulative ack"
    );
    cluster.kill_primary(0);

    cluster.sim.run();
    assert!(done.get(), "write chain must complete across the fail-over");
    assert!(cluster.promotions() >= 1, "the secondary must take over");

    chaos.recover(&mut cluster.sim);
    cluster.settle_replication();
    assert_history_clean(&cluster, &chaos, seed);
}

/// Lease-reclamation safety (§4.2.3): force-expire every read lease while a
/// client holds cached remote pointers, let the freed blocks be reused by
/// other keys, and keep reading over the one-sided fast path. The guardian
/// word must force the message fallback — never a torn or stale value.
#[test]
fn forced_lease_expiry_never_yields_stale_fast_path_reads() {
    let cfg = ClusterConfig {
        seed: 9,
        client_nodes: 1,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let client = cluster.add_recording_client(0);
    let chaos = cluster.chaos();

    fn put_rec(cluster: &mut hydra_db::Cluster, c: &RecordingClient, k: &[u8], v: &[u8]) {
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        c.put(
            &mut cluster.sim,
            k,
            v,
            Box::new(move |_, r| {
                r.expect("put succeeds");
                d.set(true);
            }),
        );
        while !done.get() {
            assert!(cluster.sim.step(), "queue drained before completion");
        }
    }
    fn get_rec(cluster: &mut hydra_db::Cluster, c: &RecordingClient, k: &[u8]) -> Option<Vec<u8>> {
        let out: Rc<RefCellOpt> = Rc::new(std::cell::RefCell::new(None));
        let done = Rc::new(Cell::new(false));
        let (o, d) = (out.clone(), done.clone());
        c.get(
            &mut cluster.sim,
            k,
            Box::new(move |_, r| {
                *o.borrow_mut() = Some(r.expect("get succeeds"));
                d.set(true);
            }),
        );
        while !done.get() {
            assert!(cluster.sim.step(), "queue drained before completion");
        }
        let got = out.borrow_mut().take();
        got.expect("get completed")
    }
    type RefCellOpt = std::cell::RefCell<Option<Option<Vec<u8>>>>;

    let victims: Vec<Vec<u8>> = (0..50)
        .map(|i| format!("lease-{i:03}").into_bytes())
        .collect();
    for (i, k) in victims.iter().enumerate() {
        put_rec(&mut cluster, &client, k, format!("v0-{i}").as_bytes());
    }
    // Warm the remote-pointer cache: the second read of each key takes the
    // one-sided path against the cached pointer.
    for k in &victims {
        assert!(get_rec(&mut cluster, &client, k).is_some());
        assert!(get_rec(&mut cluster, &client, k).is_some());
    }
    assert!(
        cluster.clients()[0].stats().rptr_hits > 0,
        "fast path must be in play before the fault"
    );

    // Overwrite every victim (old blocks retire behind their leases), then
    // force-expire all leases and churn the arena so the freed blocks are
    // reused by unrelated keys — cached pointers now dangle into foreign,
    // rewritten memory.
    for (i, k) in victims.iter().enumerate() {
        put_rec(&mut cluster, &client, k, format!("v1-{i}").as_bytes());
    }
    for p in 0..cluster.cfg.total_shards() {
        chaos.apply(&mut cluster.sim, &FaultEvent::ExpireLease { partition: p });
    }
    for i in 0..400 {
        let k = format!("filler-{i:04}");
        put_rec(
            &mut cluster,
            &client,
            k.as_bytes(),
            format!("f-{i}").as_bytes(),
        );
    }

    // Every dangling-pointer read must detect the invalid guardian and fall
    // back to the message path: current value, never v0, never torn bytes.
    for (i, k) in victims.iter().enumerate() {
        assert_eq!(
            get_rec(&mut cluster, &client, k).as_deref(),
            Some(format!("v1-{i}").as_bytes()),
            "stale or torn fast-path read of {}",
            String::from_utf8_lossy(k)
        );
    }
    let s = cluster.clients()[0].stats();
    assert!(
        s.invalid_hits >= 1,
        "at least one dangling pointer must have been caught by the guardian \
         (got {} invalid hits)",
        s.invalid_hits
    );
    // The recorded history agrees: every read observed a written value.
    let history = chaos.history();
    if let Err(v) = history.check_reads_observed_writes() {
        panic!("{v}");
    }
    if let Err(v) = history.check_linearizable() {
        panic!("{v}");
    }
}

/// Replica-read staleness (read spreading): warm a client's pointer cache
/// with exported secondary pointers, overwrite every victim, force-expire
/// all leases — primary *and* replica-pinned — and churn both arenas so the
/// retired blocks are reused. Re-reads rotate over primary and secondary
/// copies; every dangling pointer (whichever machine it aims at) must be
/// caught by the guardian/version check and fall back to the message path.
#[test]
fn forced_lease_expiry_never_yields_stale_replica_reads() {
    let cfg = ClusterConfig {
        seed: 13,
        server_nodes: 3,
        partitions: Some(2),
        client_nodes: 1,
        replicas: 2,
        replication: ReplicationMode::Strict,
        replica_read_spread: true,
        hot_read_threshold: 1,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let client = cluster.add_recording_client(0);
    let chaos = cluster.chaos();

    fn put_rec(cluster: &mut hydra_db::Cluster, c: &RecordingClient, k: &[u8], v: &[u8]) {
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        c.put(
            &mut cluster.sim,
            k,
            v,
            Box::new(move |_, r| {
                r.expect("put succeeds");
                d.set(true);
            }),
        );
        while !done.get() {
            assert!(cluster.sim.step(), "queue drained before completion");
        }
    }
    fn get_rec(cluster: &mut hydra_db::Cluster, c: &RecordingClient, k: &[u8]) -> Option<Vec<u8>> {
        let out: Rc<RefCellOpt> = Rc::new(std::cell::RefCell::new(None));
        let done = Rc::new(Cell::new(false));
        let (o, d) = (out.clone(), done.clone());
        c.get(
            &mut cluster.sim,
            k,
            Box::new(move |_, r| {
                *o.borrow_mut() = Some(r.expect("get succeeds"));
                d.set(true);
            }),
        );
        while !done.get() {
            assert!(cluster.sim.step(), "queue drained before completion");
        }
        let got = out.borrow_mut().take();
        got.expect("get completed")
    }
    type RefCellOpt = std::cell::RefCell<Option<Option<Vec<u8>>>>;

    let victims: Vec<Vec<u8>> = (0..50)
        .map(|i| format!("spread-{i:03}").into_bytes())
        .collect();
    for (i, k) in victims.iter().enumerate() {
        put_rec(&mut cluster, &client, k, format!("v0-{i}").as_bytes());
    }
    // Warm: the first GET caches the primary pointer plus the exported
    // secondary pointers (threshold 1 makes every key hot); the next reads
    // rotate over the replica group.
    for k in &victims {
        for _ in 0..4 {
            assert!(get_rec(&mut cluster, &client, k).is_some());
        }
    }
    let warm = cluster.clients()[0].stats();
    assert!(warm.rptr_hits > 0, "fast path must be in play");
    assert!(
        warm.replica_reads > 0,
        "spread reads must hit secondary copies before the fault"
    );

    // Overwrite (old blocks retire on primary AND secondaries), lapse every
    // lease on all copies, then churn the arenas so the freed blocks are
    // reused by unrelated keys.
    for (i, k) in victims.iter().enumerate() {
        put_rec(&mut cluster, &client, k, format!("v1-{i}").as_bytes());
    }
    for p in 0..cluster.cfg.total_shards() {
        chaos.apply(&mut cluster.sim, &FaultEvent::ExpireLease { partition: p });
    }
    for i in 0..400 {
        let k = format!("filler-{i:04}");
        put_rec(
            &mut cluster,
            &client,
            k.as_bytes(),
            format!("f-{i}").as_bytes(),
        );
    }

    for (i, k) in victims.iter().enumerate() {
        assert_eq!(
            get_rec(&mut cluster, &client, k).as_deref(),
            Some(format!("v1-{i}").as_bytes()),
            "stale or torn spread read of {}",
            String::from_utf8_lossy(k)
        );
    }
    let s = cluster.clients()[0].stats();
    assert!(
        s.invalid_hits >= 1,
        "at least one dangling pointer must have been caught \
         (got {} invalid hits)",
        s.invalid_hits
    );
    let history = chaos.history();
    if let Err(v) = history.check_reads_observed_writes() {
        panic!("{v}");
    }
    if let Err(v) = history.check_linearizable() {
        panic!("{v}");
    }
}

/// Crash the machine hosting a secondary while a client is actively
/// spreading fast-path reads over it. One-sided reads to a powered-off
/// machine vanish on the wire; the client's op timeout must convert them to
/// message-path retries against the primary — no lost or wrong reads, and
/// zero acknowledged writes lost.
#[test]
fn replica_crash_under_spreading_falls_back_to_primary() {
    let cfg = ClusterConfig {
        seed: 17,
        server_nodes: 3,
        partitions: Some(2),
        client_nodes: 1,
        replicas: 2,
        replication: ReplicationMode::Strict,
        replica_read_spread: true,
        hot_read_threshold: 1,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let client = cluster.add_recording_client(0);
    let chaos = cluster.chaos();

    fn put_rec(cluster: &mut hydra_db::Cluster, c: &RecordingClient, k: &[u8], v: &[u8]) {
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        c.put(
            &mut cluster.sim,
            k,
            v,
            Box::new(move |_, r| {
                r.expect("put succeeds");
                d.set(true);
            }),
        );
        while !done.get() {
            assert!(cluster.sim.step(), "queue drained before completion");
        }
    }
    fn get_rec(cluster: &mut hydra_db::Cluster, c: &RecordingClient, k: &[u8]) -> Option<Vec<u8>> {
        let out: Rc<RefCellOpt> = Rc::new(std::cell::RefCell::new(None));
        let done = Rc::new(Cell::new(false));
        let (o, d) = (out.clone(), done.clone());
        c.get(
            &mut cluster.sim,
            k,
            Box::new(move |_, r| {
                *o.borrow_mut() = Some(r.expect("get succeeds"));
                d.set(true);
            }),
        );
        while !done.get() {
            assert!(cluster.sim.step(), "queue drained before completion");
        }
        let got = out.borrow_mut().take();
        got.expect("get completed")
    }
    type RefCellOpt = std::cell::RefCell<Option<Option<Vec<u8>>>>;

    let keys: Vec<Vec<u8>> = (0..20).map(|i| format!("rc-{i:02}").into_bytes()).collect();
    for (i, k) in keys.iter().enumerate() {
        put_rec(&mut cluster, &client, k, format!("v-{i}").as_bytes());
    }
    for k in &keys {
        for _ in 0..4 {
            assert!(get_rec(&mut cluster, &client, k).is_some());
        }
    }
    assert!(
        cluster.clients()[0].stats().replica_reads > 0,
        "spread reads must be live before the crash"
    );

    // Power off a machine that hosts only secondaries (no HA is armed, so
    // crashing a primary's machine would just take its partition down —
    // that fail-over story is covered by the random chaos rounds).
    let primary_nodes: Vec<_> = (0..cluster.cfg.total_shards())
        .map(|p| cluster.shard(p).primary.borrow().node)
        .collect();
    let victim_node = cluster
        .shard(0)
        .secondaries
        .iter()
        .map(|s| s.borrow().node)
        .find(|n| !primary_nodes.contains(n))
        .expect("a secondary-only machine exists");
    let victim_idx = cluster
        .server_nodes
        .iter()
        .position(|n| *n == victim_node)
        .expect("secondary lives on a server machine");
    chaos.apply(
        &mut cluster.sim,
        &FaultEvent::CrashNode { node: victim_idx },
    );

    // Keep reading: spread reads aimed at the dead machine time out and
    // retry over the message path; every read still returns the current
    // value.
    for (i, k) in keys.iter().enumerate() {
        for _ in 0..3 {
            assert_eq!(
                get_rec(&mut cluster, &client, k).as_deref(),
                Some(format!("v-{i}").as_bytes()),
                "wrong value after replica crash for {}",
                String::from_utf8_lossy(k)
            );
        }
    }
    let s = cluster.clients()[0].stats();
    assert!(
        s.timeouts >= 1,
        "at least one spread read must have timed out against the dead \
         machine (got {} timeouts)",
        s.timeouts
    );
    let history = chaos.history();
    if let Err(v) = history.check_reads_observed_writes() {
        panic!("{v}");
    }
    if let Err(v) = history.check_linearizable() {
        panic!("{v}");
    }
}

// ---- fail-over: the liveness probe, the fence and the wake ----

/// What one [`failover_run`] observed.
struct FailoverRun {
    /// Ops that completed with an error.
    failed: u64,
    /// `Timeout`s the clients counted (attempts given up on by timer).
    timeouts: u64,
    /// The longest any client waited for one op, fault included.
    worst_wait: hydra_sim::SimTime,
    /// Clients whose private key reads back older than their last
    /// acknowledged write to it.
    lost: u64,
    promotions: u64,
}

/// The `failover` benchmark's traffic on the `chaos_recovery` deployment: 50
/// closed-loop clients, GET / UPDATE alternating over shared keys with every
/// eighth op an UPDATE of the client's own key to a rising counter; 3
/// machines, 2 partitions, one group-commit replica each, so machine 0 hosts
/// nothing but partition 0's primary. `fault` lands `fault_after` after
/// `enable_ha`; traffic runs 2 ms past it, then every private key is read
/// back.
fn failover_run(fault: FaultEvent, fault_after: hydra_sim::SimTime) -> FailoverRun {
    use hydra_db::HydraClient;
    use hydra_sim::SimTime;
    use std::cell::RefCell;

    const CLIENTS: usize = 50;
    let cfg = ClusterConfig {
        seed: 1,
        server_nodes: 3,
        partitions: Some(2),
        client_nodes: 1,
        replicas: 1,
        replication: ReplicationMode::GroupCommit,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let clients: Vec<HydraClient> = (0..CLIENTS).map(|c| cluster.add_client(c)).collect();
    let keys: Rc<Vec<Vec<u8>>> = Rc::new(
        (0..256 + CLIENTS)
            .map(|i| format!("fo-{i:04}").into_bytes())
            .collect(),
    );
    for (i, k) in keys.iter().enumerate() {
        hydra_integration::put_ok(&mut cluster, &clients[i % CLIENTS], k, &0u64.to_le_bytes());
    }

    #[derive(Default)]
    struct Tally {
        failed: u64,
        worst_wait: SimTime,
        /// Per client: the last acknowledged value of its private key.
        acked: Vec<u64>,
        stop: bool,
        idle: usize,
    }
    let tally = Rc::new(RefCell::new(Tally {
        acked: vec![0; CLIENTS],
        ..Tally::default()
    }));
    fn next(
        sim: &mut Sim,
        client: HydraClient,
        c: usize,
        i: u64,
        keys: Rc<Vec<Vec<u8>>>,
        tally: Rc<RefCell<Tally>>,
    ) {
        if tally.borrow().stop {
            tally.borrow_mut().idle += 1;
            return;
        }
        let issued = sim.now();
        let private = i % 8 == 7;
        let (c2, k2, t2) = (client.clone(), keys.clone(), tally.clone());
        let done: hydra_db::client::OpCb = Box::new(move |sim, r| {
            {
                let mut t = t2.borrow_mut();
                t.worst_wait = t.worst_wait.max(sim.now() - issued);
                match r {
                    Ok(_) if private => t.acked[c] = i,
                    Ok(_) => {}
                    Err(_) => t.failed += 1,
                }
            }
            next(sim, c2, c, i + 1, k2, t2);
        });
        let shared = &keys[(i as usize * 31 + c * 7) % 256];
        if private {
            client.update(sim, &keys[256 + c], &i.to_le_bytes(), done);
        } else if i.is_multiple_of(2) {
            client.get(sim, shared, done);
        } else {
            client.update(sim, shared, &i.to_le_bytes(), done);
        }
    }
    for (c, client) in clients.iter().enumerate() {
        next(
            &mut cluster.sim,
            client.clone(),
            c,
            0,
            keys.clone(),
            tally.clone(),
        );
    }

    let fault_at = cluster.sim.now() + fault_after;
    cluster.enable_ha(fault_at + 10 * MS);
    cluster.sim.run_until(fault_at);
    let chaos = cluster.chaos();
    chaos.apply(&mut cluster.sim, &fault);
    cluster.sim.run_until(fault_at + 2 * MS);
    tally.borrow_mut().stop = true;
    while tally.borrow().idle < CLIENTS {
        assert!(cluster.sim.step(), "a client never came back");
    }

    let mut lost = 0;
    for (c, client) in clients.iter().enumerate() {
        let got = hydra_integration::get_value(&mut cluster, client, &keys[256 + c])
            .expect("private key exists");
        let got = u64::from_le_bytes(got.try_into().expect("8-byte counter"));
        lost += u64::from(got < tally.borrow().acked[c]);
    }
    let t = tally.borrow();
    FailoverRun {
        failed: t.failed,
        timeouts: clients.iter().map(|c| c.stats().timeouts).sum(),
        worst_wait: t.worst_wait,
        lost,
        promotions: cluster.promotions(),
    }
}

/// Sweeps the fault's phase: twelve instants for each of `crash_primary`,
/// `crash_node` and `partition_node` — eight spread over one 10 ms
/// coordination tick, four inside one liveness beat — under the `failover`
/// benchmark's 50 closed-loop clients. Wherever the fault falls: no op
/// fails, no attempt times out, no client waits a millisecond, no
/// acknowledged write is lost, and there is exactly one promotion.
///
/// At the parent (`785d068`) detection was the 25 ms coordination session
/// noticed at the next 10 ms tick, against a client that gave up after four
/// attempts 10 ms apart: at the first four tick phases below the fault was
/// detected 25–30 ms later and every blocked op succeeded on its last
/// attempt, after a 30 ms wait; at the last four detection took 30–35 ms,
/// the last attempt went out before the promotion, and every blocked op —
/// one per client — failed with `Timeout` (`benchmark/README.md`, trap 4).
#[test]
fn failover_is_a_few_missed_beats_at_every_fault_phase() {
    use hydra_db::BEAT_NS;
    let faults = [
        FaultEvent::CrashPrimary { partition: 0 },
        FaultEvent::CrashNode { node: 0 },
        FaultEvent::Partition { nodes: vec![0] },
    ];
    let tick_phases = (0..8u64).map(|i| MS + i * 10 * MS / 8);
    let beat_phases = (0..4u64).map(|i| MS + i * BEAT_NS / 4 + 1);
    for fault in &faults {
        for phase in tick_phases.clone().chain(beat_phases.clone()) {
            let run = failover_run(fault.clone(), phase);
            let at = format!("{fault:?} {phase} ns after enable_ha");
            assert_eq!(run.failed, 0, "{at}: failed ops");
            assert_eq!(run.timeouts, 0, "{at}: timeouts");
            assert!(
                run.worst_wait < MS,
                "{at}: a client waited {} ns",
                run.worst_wait
            );
            assert_eq!(run.lost, 0, "{at}: acknowledged writes lost");
            assert_eq!(run.promotions, 1, "{at}: one fault, one promotion");
        }
    }
}

/// The checks every recorded fault arm ends with: per-key
/// linearizability, reads that observed real writes, converged replicas,
/// and balanced arena books on every copy (each carved word live, free or
/// retired).
fn assert_history_clean(cluster: &hydra_db::Cluster, chaos: &ChaosController, seed: u64) {
    let history = chaos.history();
    if let Err(v) = history.check_linearizable() {
        panic!("{v}");
    }
    if let Err(v) = history.check_reads_observed_writes() {
        panic!("{v}");
    }
    for p in 0..cluster.cfg.total_shards() {
        if let Err(v) = check_convergence(seed, &cluster.replica_dumps(p)) {
            panic!("partition {p}: {v}");
        }
        let h = cluster.shard(p);
        for server in std::iter::once(&h.primary).chain(&h.secondaries) {
            let books = server.borrow().engine.borrow().arena_books();
            assert!(books.balanced(), "partition {p}: {books:?}");
        }
    }
}

/// One of the recorded workload's keys that routes to `partition`.
fn key_on(cluster: &hydra_db::Cluster, partition: u32) -> Vec<u8> {
    let dir = cluster.directory.borrow();
    (0..)
        .map(|i| format!("fo-{i:02}").into_bytes())
        .find(|k| dir.ring.route(k).unwrap().0 == partition)
        .unwrap()
}

/// A 3-machine, 2-partition, one-replica group-commit cluster with HA armed
/// (partition `p`: primary on machine `p`, secondary on machine `p + 1`),
/// one recorded client driving `ops` closed-loop ops over twelve keys.
fn recorded_gc_cluster(
    seed: u64,
    replicas: u32,
    ops: usize,
) -> (hydra_db::Cluster, ChaosController, Rc<Cell<bool>>) {
    let cfg = ClusterConfig {
        seed,
        server_nodes: 3,
        partitions: Some(2),
        client_nodes: 1,
        replicas,
        replication: ReplicationMode::GroupCommit,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    cluster.enable_ha(2 * SEC);
    let chaos = cluster.chaos();
    let keys: Rc<Vec<Vec<u8>>> =
        Rc::new((0..12).map(|i| format!("fo-{i:02}").into_bytes()).collect());
    let client = cluster.add_recording_client(0);
    let done = Rc::new(Cell::new(false));
    drive(&mut cluster.sim, client, keys, 0, ops, done.clone());
    (cluster, chaos, done)
}

/// Directed false suspicion: the link from partition 0's secondary back to
/// its primary turns slow — probe reads and acks take 600 µs — while the
/// primary is alive, serving, and has a group-commit ack train in flight.
/// The secondary fences a healthy primary and SWAT promotes it. That must
/// be safe: nothing the old primary shipped after the revocation reaches
/// the replica or is acknowledged (the history stays linearizable and the
/// replicas converge), the promotion happens once, and the old primary is
/// still deposed after the link heals.
///
/// Cannot be expressed at the parent: a slow link there delays acks and
/// nothing else — no detector reads across it, nothing revokes a ring.
#[test]
fn a_falsely_suspected_primary_is_fenced_before_it_is_replaced() {
    let seed = 31;
    let (mut cluster, chaos, done) = recorded_gc_cluster(seed, 1, 400);
    let old_primary = cluster.shard(0).primary;
    // Catch partition 0 with a quantum shipped and not yet acknowledged,
    // then slow the way back.
    loop {
        assert!(cluster.sim.step(), "never caught an ack train in flight");
        let row = &cluster.report().rows[0];
        if row.repl_inflight_words > 0 && row.repl_lag_max > 0 {
            break;
        }
    }
    chaos.apply(
        &mut cluster.sim,
        &FaultEvent::DelayMessage {
            from: 1,
            to: 0,
            delay_ns: 600_000,
            count: 10_000,
        },
    );
    // The moment the ring closes — the primary has not been told, nor has
    // SWAT — a second client sends the old primary one more write.
    while cluster.report().rows[0].repl_fenced == 0 {
        assert!(cluster.sim.step(), "the secondary never fenced");
    }
    assert_eq!(cluster.promotions(), 0, "fenced first, promoted later");
    let late = cluster.add_recording_client(0);
    let key = key_on(&cluster, 0);
    let acked_at = Rc::new(Cell::new(0));
    let a = acked_at.clone();
    late.put(
        &mut cluster.sim,
        &key,
        b"shipped-after-the-fence",
        Box::new(move |sim, r| {
            r.expect("the write survives the fail-over");
            a.set(sim.now());
        }),
    );
    let fenced_at = cluster.sim.now();
    cluster.sim.run_until(fenced_at + 2 * MS);
    let failovers = cluster.failovers();
    assert_eq!(failovers.len(), 1, "{failovers:?}");
    assert_eq!(
        (failovers[0].partition, failovers[0].fenced_at),
        (0, fenced_at)
    );
    assert!(
        cluster.fab.stats().errors >= 1,
        "the old primary shipped it and the closed ring refused it"
    );
    assert!(
        acked_at.get() > failovers[0].promoted_at,
        "acknowledged by the new primary, not by the fenced one \
         (acked at {}, {failovers:?})",
        acked_at.get()
    );
    assert!(!old_primary.borrow().alive, "deposed with the promotion");
    assert!(
        !Rc::ptr_eq(&cluster.shard(0).primary, &old_primary),
        "the secondary took over"
    );

    chaos.apply(&mut cluster.sim, &FaultEvent::Heal);
    cluster.sim.run();
    assert!(done.get(), "traffic ran on across the fail-over");
    assert_eq!(
        cluster.promotions(),
        1,
        "healing brings no second promotion"
    );
    assert!(
        !old_primary.borrow().alive,
        "and the old primary stays deposed"
    );
    chaos.recover(&mut cluster.sim);
    cluster.settle_replication();
    assert_history_clean(&cluster, &chaos, seed);
}

/// Directed isolated secondary: machine 2 hosts nothing but partition 1's
/// secondary, and is cut off from everything — its primary and the
/// coordination service included. It may fence (it cannot tell a dead
/// primary from a dead link), but its report goes nowhere, so it is never
/// promoted: the primary keeps serving reads, its writes stall behind the
/// closed ring exactly as they stall behind a dropped frame today, and
/// `recover()` resyncs the secondary over a fresh ring.
///
/// At the parent the same fault dropped the ring's frames and stalled the
/// same writes; there was no fence for `repl_fenced` to report.
#[test]
fn an_isolated_secondary_fences_but_is_never_promoted() {
    use hydra_db::OpError;
    let seed = 37;
    let (mut cluster, chaos, done) = recorded_gc_cluster(seed, 1, 30);
    cluster.sim.run_until(20 * MS);
    assert!(done.get());
    chaos.apply(&mut cluster.sim, &FaultEvent::Partition { nodes: vec![2] });
    cluster.sim.run_until(25 * MS);
    assert_eq!(cluster.report().rows[1].repl_fenced, 1, "it did fence");
    assert_eq!(cluster.promotions(), 0, "and nobody heard about it");

    // A key of partition 1: reads are served, writes stall.
    let client = cluster.add_recording_client(0);
    let key = key_on(&cluster, 1);
    let outcome = Rc::new(Cell::new(None));
    let o = outcome.clone();
    client.get(
        &mut cluster.sim,
        &key,
        Box::new(move |_, r| o.set(Some(r.is_ok()))),
    );
    cluster.sim.run_until(26 * MS);
    assert_eq!(outcome.get(), Some(true), "the primary still serves reads");
    let o = outcome.clone();
    client.put(
        &mut cluster.sim,
        &key,
        b"stalled",
        Box::new(move |_, r| o.set(Some(r == Err(OpError::Timeout)))),
    );
    cluster.sim.run_until(100 * MS);
    assert_eq!(outcome.get(), Some(true), "the write stalls into a Timeout");
    assert_eq!(cluster.promotions(), 0);

    chaos.recover(&mut cluster.sim);
    cluster.settle_replication();
    assert_eq!(cluster.report().rows[1].repl_fenced, 0, "resynced");
    let o = outcome.clone();
    client.put(
        &mut cluster.sim,
        &key,
        b"flows again",
        Box::new(move |_, r| o.set(Some(r.is_ok()))),
    );
    cluster.sim.run_until(cluster.sim.now() + MS);
    assert_eq!(outcome.get(), Some(true), "writes flow over the fresh ring");
    cluster.settle_replication();
    assert_history_clean(&cluster, &chaos, seed);
}

/// One fault, one promotion — with a second secondary standing by, whose
/// own ring the promotion closes too, nothing promotes twice; and the next
/// fault is detected by the survivor and promotes once more.
#[test]
fn one_fault_is_exactly_one_promotion() {
    let seed = 41;
    let (mut cluster, chaos, done) = recorded_gc_cluster(seed, 2, 200);
    cluster.sim.run_until(5 * MS);
    cluster.kill_primary(0);
    cluster.sim.run_until(50 * MS);
    assert_eq!(cluster.promotions(), 1);
    assert_eq!(cluster.shard(0).secondaries.len(), 1, "one stand-by left");
    cluster.kill_primary(0);
    cluster.sim.run();
    assert!(done.get());
    assert_eq!(cluster.promotions(), 2);
    assert_eq!(cluster.failovers().len(), 2);
    chaos.recover(&mut cluster.sim);
    cluster.settle_replication();
    assert_history_clean(&cluster, &chaos, seed);
}

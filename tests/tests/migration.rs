//! Elastic membership (§5.1): live node-join and node-drain migrations under
//! recorded client traffic, with ownership audits, Wing & Gong
//! linearizability checks across the flip, a crash-during-DoubleWrite join
//! abort arm, a drain abort arm, and the plans that follow an aborted drain.

use std::cell::Cell;
use std::rc::Rc;

use hydra_db::chaos::{FaultEvent, FaultPlan, RecordingClient};
use hydra_db::{ClusterBuilder, ClusterConfig, MigrationOutcome, ReplicationMode};
use hydra_integration::{get_value, put_ok, step_until};
use hydra_sim::time::MS;
use hydra_sim::Sim;

#[test]
fn node_join_migrates_ranges_and_preserves_every_key() {
    let cfg = ClusterConfig {
        server_nodes: 2,
        shards_per_node: 2,
        client_nodes: 1,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let client = cluster.add_client(0);
    let n = 600;
    for i in 0..n {
        let k = format!("mig-key-{i:05}");
        put_ok(
            &mut cluster,
            &client,
            k.as_bytes(),
            format!("val-{i}").as_bytes(),
        );
    }
    let before_per_shard: Vec<usize> = (0..4)
        .map(|p| cluster.shard(p).primary.borrow().engine.borrow().len())
        .collect();
    let gen_before = cluster.generation();

    // A new machine joins with 2 fresh shards.
    let new_parts = cluster.add_server_with_migration(2);
    assert_eq!(new_parts, vec![4, 5]);
    assert!(cluster.generation() > gen_before);

    // The new shards own real ranges...
    for &p in &new_parts {
        let n = cluster.shard(p).primary.borrow().engine.borrow().len();
        assert!(n > 20, "new partition {p} received only {n} keys");
    }
    // ...taken from the old owners...
    let after_per_shard: Vec<usize> = (0..4)
        .map(|p| cluster.shard(p).primary.borrow().engine.borrow().len())
        .collect();
    for (p, (&b, &a)) in before_per_shard.iter().zip(&after_per_shard).enumerate() {
        assert!(a < b, "old shard {p} did not shed load ({b} -> {a})");
    }
    // ...and nothing was lost or duplicated.
    assert_eq!(cluster.total_items(), n as usize);
    for i in 0..n {
        let k = format!("mig-key-{i:05}");
        assert_eq!(
            get_value(&mut cluster, &client, k.as_bytes()).as_deref(),
            Some(format!("val-{i}").as_bytes()),
            "key {i} lost in migration"
        );
    }
}

#[test]
fn warm_pointer_caches_survive_migration_via_fallback() {
    let mut cluster = ClusterBuilder::new(ClusterConfig::default()).build();
    let client = cluster.add_client(0);
    let keys: Vec<String> = (0..200).map(|i| format!("warm-{i:04}")).collect();
    for k in &keys {
        put_ok(&mut cluster, &client, k.as_bytes(), b"v0");
    }
    // Warm the remote-pointer cache for every key.
    for k in &keys {
        assert!(get_value(&mut cluster, &client, k.as_bytes()).is_some());
    }
    let hits_before = cluster.clients()[0].stats().rptr_hits;

    cluster.add_server_with_migration(2);

    // Every key still reads correctly; moved keys resolve through the
    // guardian-detected fallback, unmoved ones keep their fast path.
    for k in &keys {
        assert_eq!(
            get_value(&mut cluster, &client, k.as_bytes()).as_deref(),
            Some(b"v0".as_slice()),
            "{k}"
        );
    }
    let s = cluster.clients()[0].stats();
    assert!(
        s.invalid_hits > 0,
        "moved keys must have produced stale-pointer fallbacks"
    );
    assert!(
        s.rptr_hits > hits_before,
        "unmoved keys must still enjoy the fast path"
    );
}

/// Closed-loop recorded workload in rounds of six ops: two PUTs of shared
/// keys, a GET, an INSERT of a fresh key and the DELETE of that key, then a
/// GET (a SCAN when `scans` is set, so the ordered plane is exercised across
/// the flip too). Write values are unique; op failures are tolerated (the
/// checker treats failed writes as maybe-applied). The fresh keys are
/// created and removed while ranges move, so forwarded inserts and deletes
/// are exercised; once the round settles none may be left on any live
/// primary ([`assert_no_fresh_keys`]).
#[allow(clippy::too_many_arguments)]
fn drive_mix(
    sim: &mut Sim,
    client: RecordingClient,
    keys: Rc<Vec<Vec<u8>>>,
    i: usize,
    total: usize,
    scans: bool,
    done: Rc<Cell<bool>>,
) {
    if i >= total {
        done.set(true);
        return;
    }
    let key = keys[i % keys.len()].clone();
    let c2 = client.clone();
    let cont: hydra_db::client::OpCb = Box::new(move |sim, _r| {
        drive_mix(sim, c2, keys, i + 1, total, scans, done);
    });
    let fresh = |j: usize| format!("fresh-c{}-{j}", client.client().id()).into_bytes();
    let value = format!("c{}-{}", client.client().id(), i).into_bytes();
    match i % 6 {
        5 if scans => client.scan(sim, &key, 8, cont),
        2 | 5 => client.get(sim, &key, cont),
        3 => client.insert(sim, &fresh(i), &value, cont),
        4 => client.delete(sim, &fresh(i - 1), cont),
        _ => client.put(sim, &key, &value, cont),
    }
}

/// Every fresh key [`drive_mix`] inserted it also deleted: none may remain
/// on any live primary, in the ring or out of it.
fn assert_no_fresh_keys(cluster: &hydra_db::Cluster, seed: u64) {
    for p in 0..cluster.report().rows.len() as u32 {
        let primary = cluster.shard(p).primary;
        let primary = primary.borrow();
        if !primary.alive {
            continue;
        }
        primary.engine.borrow().for_each_item(|k, _| {
            assert!(
                !k.starts_with(b"fresh-"),
                "HYDRA_SEED={seed}: deleted key {} survives on partition {p}",
                String::from_utf8_lossy(&k)
            );
        });
    }
}

/// Closed-loop recorded UPDATEs of one hot key, unique values. Two of these
/// started together keep meeting at the key's shard in one sweep — under
/// Strict replication both answers leave with the same ack — so the shard
/// absorbs the first UPDATE of each pair.
fn drive_hot(
    sim: &mut Sim,
    client: RecordingClient,
    key: Vec<u8>,
    i: usize,
    total: usize,
    done: Rc<Cell<bool>>,
) {
    if i >= total {
        done.set(true);
        return;
    }
    let value = format!("h{}-{}", client.client().id(), i).into_bytes();
    let (c2, k2) = (client.clone(), key.clone());
    let cont: hydra_db::client::OpCb = Box::new(move |sim, _r| {
        drive_hot(sim, c2, k2, i + 1, total, done);
    });
    client.update(sim, &key, &value, cont);
}

/// Keys [`elastic_round`] loads besides the ones its clients use.
const BALLAST: usize = 240;

/// One elastic round: a node joins mid-traffic (scripted `JoinNode` chaos
/// event at a workload-pinned op count), then the first machine drains out
/// under a second recorded wave; in each wave two more clients update one
/// hot key together. The history must stay linearizable across
/// both flips, no key may be lost, duplicated, or misplaced, and the old
/// owners must shed their ranges completely. Returns the sweeps (quanta of
/// two or more bare requests taken from a lane together) the primaries ran
/// and the writes they absorbed (UPDATEs a later UPDATE of the key
/// overwrote inside their quantum).
fn elastic_round(seed: u64) -> (u64, u64) {
    let cfg = ClusterConfig {
        seed,
        server_nodes: 3,
        partitions: Some(3),
        client_nodes: 1,
        replicas: 1,
        replication: ReplicationMode::Strict,
        // Small quanta over the ballast below keep each walk going for
        // many ticks after it has visited the recorded keys, which sort
        // first: their later writes reach the new owners only by forward.
        migration_quantum_items: 8,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    // Recorded too: a scan may return ballast.
    let loader = cluster.add_recording_client(0);
    for i in 0..BALLAST {
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        let key = format!("zz-{i:03}");
        let cb: hydra_db::client::OpCb = Box::new(move |_, _| d.set(true));
        loader.put(&mut cluster.sim, key.as_bytes(), b"b", cb);
        step_until(&mut cluster, &done);
    }
    // The join fires through the chaos plane once 30 recorded ops past the
    // ballast have been invoked, pinning the reconfiguration to a point in
    // the workload.
    let join_at = BALLAST as u64 + 30;
    let plan = FaultPlan::new(seed).at_op(join_at, FaultEvent::JoinNode { shards: 2 });
    cluster.install_plan(&plan);
    let chaos = cluster.chaos();

    let keys: Rc<Vec<Vec<u8>>> =
        Rc::new((0..16).map(|i| format!("el-{i:02}").into_bytes()).collect());
    let mut dones = Vec::new();
    for c in 0..2 {
        let client = cluster.add_recording_client(0);
        let done = Rc::new(Cell::new(false));
        drive_mix(
            &mut cluster.sim,
            client,
            keys.clone(),
            0,
            80,
            c == 1,
            done.clone(),
        );
        dones.push(done);
    }
    hot_pair(&mut cluster, &keys[0], &mut dones);
    cluster.sim.run();
    assert!(
        dones.iter().all(|d| d.get()),
        "HYDRA_SEED={seed}: join-wave chains did not complete"
    );
    assert_eq!(
        cluster.migration.completed(),
        1,
        "HYDRA_SEED={seed}: join must settle once the queue drains"
    );
    let gen_after_join = cluster.generation();
    assert_eq!(
        cluster.migration_epoch(),
        gen_after_join,
        "HYDRA_SEED={seed}: flip must publish the ring generation"
    );
    assert_no_fresh_keys(&cluster, seed);

    // Second wave: drain the first machine while fresh traffic runs.
    let handle = cluster.start_drain_server(0);
    let mut dones2 = Vec::new();
    for _ in 0..2 {
        let client = cluster.add_recording_client(0);
        let done = Rc::new(Cell::new(false));
        drive_mix(
            &mut cluster.sim,
            client,
            keys.clone(),
            0,
            80,
            false,
            done.clone(),
        );
        dones2.push(done);
    }
    hot_pair(&mut cluster, &keys[0], &mut dones2);
    cluster.sim.run();
    assert!(
        dones2.iter().all(|d| d.get()),
        "HYDRA_SEED={seed}: drain-wave chains did not complete"
    );
    assert_eq!(
        handle.outcome(),
        MigrationOutcome::Completed,
        "HYDRA_SEED={seed}: drain must settle"
    );
    assert!(cluster.generation() > gen_after_join);
    assert_eq!(cluster.migration_epoch(), cluster.generation());

    // Nothing lost, duplicated, or misplaced; departed owners fully shed.
    assert_eq!(
        cluster.ownership_audit(),
        (0, 0),
        "HYDRA_SEED={seed}: misplaced or duplicated keys after the round"
    );
    assert_eq!(
        cluster.total_items(),
        keys.len() + BALLAST,
        "HYDRA_SEED={seed}"
    );
    assert_no_fresh_keys(&cluster, seed);
    for p in handle.departing_partitions() {
        let left = cluster.shard(p).primary.borrow().engine.borrow().len();
        assert_eq!(
            left, 0,
            "HYDRA_SEED={seed}: drained partition {p} still holds {left} keys"
        );
    }

    let history = chaos.history();
    if let Err(v) = history.check_linearizable() {
        panic!("HYDRA_SEED={seed}: {v}");
    }
    if let Err(v) = history.check_reads_observed_writes() {
        panic!("HYDRA_SEED={seed}: {v}");
    }
    (0..cluster.report().rows.len() as u32)
        .map(|p| cluster.shard(p).primary.borrow().stats())
        .fold((0, 0), |(sweeps, absorbed), s| {
            (sweeps + s.sweeps, absorbed + s.absorbed_writes)
        })
}

/// Starts two [`drive_hot`] clients on `key` at the same instant.
fn hot_pair(cluster: &mut hydra_db::Cluster, key: &[u8], dones: &mut Vec<Rc<Cell<bool>>>) {
    for _ in 0..2 {
        let client = cluster.add_recording_client(0);
        let done = Rc::new(Cell::new(false));
        drive_hot(&mut cluster.sim, client, key.to_vec(), 0, 12, done.clone());
        dones.push(done);
    }
}

#[test]
fn live_join_and_drain_under_recorded_traffic_stay_linearizable() {
    elastic_round(21);
}

/// Crash the joining machine while the plan is in its DoubleWrite window:
/// the plan must abort, every key must stay readable from the old owners
/// (the flip never happened), and the cluster must keep serving.
fn abort_round(seed: u64) {
    let cfg = ClusterConfig {
        seed,
        server_nodes: 2,
        shards_per_node: 2,
        client_nodes: 1,
        // A tiny quantum stretches the walks: the first source to finish
        // waits in DoubleWrite for the others, and the crash below lands in
        // that window.
        migration_quantum_items: 8,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let client = cluster.add_client(0);
    let n = 400;
    for i in 0..n {
        let k = format!("dw-key-{i:04}");
        put_ok(
            &mut cluster,
            &client,
            k.as_bytes(),
            format!("val-{i}").as_bytes(),
        );
    }
    let gen_before = cluster.generation();
    let chaos = cluster.chaos();
    let new_idx = cluster.server_nodes.len();
    let handle = cluster.start_migration(2);

    // Step until a source enters DoubleWrite, then power off the joiner.
    let mut saw_dw = false;
    while cluster.sim.step() {
        if handle.flipped() {
            break;
        }
        if cluster
            .report()
            .rows
            .iter()
            .any(|r| r.migration_phase == "dblwrite")
        {
            saw_dw = true;
            break;
        }
    }
    assert!(
        saw_dw,
        "HYDRA_SEED={seed}: double-write window never observed"
    );
    chaos.apply(&mut cluster.sim, &FaultEvent::CrashNode { node: new_idx });
    cluster.sim.run();

    assert_eq!(
        handle.outcome(),
        MigrationOutcome::Aborted,
        "HYDRA_SEED={seed}: losing the joiner mid-copy must abort the plan"
    );
    assert_eq!(cluster.migration.aborted(), 1);
    assert_eq!(
        cluster.generation(),
        gen_before,
        "HYDRA_SEED={seed}: an aborted plan must not flip the ring"
    );
    assert_eq!(cluster.ownership_audit(), (0, 0), "HYDRA_SEED={seed}");
    assert_eq!(cluster.total_items(), n as usize, "HYDRA_SEED={seed}");
    // The torn-down partitions' sessions end with them.
    for p in 4..6 {
        assert!(
            !cluster.session_alive_id(cluster.session_id(p)),
            "HYDRA_SEED={seed}: aborted partition {p} kept its session"
        );
    }
    for i in 0..n {
        let k = format!("dw-key-{i:04}");
        assert_eq!(
            get_value(&mut cluster, &client, k.as_bytes()).as_deref(),
            Some(format!("val-{i}").as_bytes()),
            "HYDRA_SEED={seed}: key {i} lost in aborted migration"
        );
    }
    // Still serviceable after the abort.
    put_ok(&mut cluster, &client, b"post-abort-probe", b"alive");
    assert_eq!(
        get_value(&mut cluster, &client, b"post-abort-probe").as_deref(),
        Some(b"alive".as_slice())
    );
}

#[test]
fn crash_of_joining_node_mid_double_write_aborts_cleanly() {
    abort_round(33);
}

/// When [`drain_abort_round`] crashes destination 1's primary.
#[derive(Clone, Copy, PartialEq)]
enum DrainCrash {
    /// Once the source has shipped its first quantum: destination 2's batch
    /// lands and waits on its core behind its apply cost past the abort.
    Queued,
    /// As `Queued`, but destination 2's batch is held on the link past the
    /// abort, so it must bounce off the revoked landing buffer.
    OnTheWire,
    /// Once destination 1 has applied its batch, which its secondary — the
    /// primary promoted after the abort — has received too.
    Applied,
}

/// Crash one destination's primary while a node drain is copying: the plan
/// aborts, and every live destination, the promoted one included, must
/// drop every partial copy it holds, whenever the copy arrived. Every key
/// stays readable from its pre-drain owner.
fn drain_abort_round(seed: u64, crash: DrainCrash) {
    let cfg = ClusterConfig {
        seed,
        server_nodes: 4,
        shards_per_node: 1,
        client_nodes: 1,
        replicas: 1,
        // A quantum of a whole partition ships each destination a batch
        // whose apply outlasts a migration tick.
        migration_quantum_items: 1024,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    cluster.enable_ha(50 * MS);
    let client = cluster.add_client(0);
    let n = 2_000;
    for i in 0..n {
        let k = format!("da-key-{i:04}");
        put_ok(
            &mut cluster,
            &client,
            k.as_bytes(),
            format!("val-{i}").as_bytes(),
        );
    }
    let chaos = cluster.chaos();
    // Partition p is homed on machine p and replicated on machine p + 1:
    // draining machine 0 streams partition 0 to destinations 1, 2 and 3,
    // and nothing but the shipments flows from machine 0 to machine 2.
    let handle = cluster.start_drain_server(0);
    if crash == DrainCrash::OnTheWire {
        chaos.apply(
            &mut cluster.sim,
            &FaultEvent::DelayMessage {
                from: 0,
                to: 2,
                delay_ns: 300_000,
                count: 1,
            },
        );
    }
    let bounced = cluster.fab.stats().errors;
    // Step until the source has shipped its first quantum (destination 2's
    // channel has shipped records it has not applied), or until destination
    // 1 has applied its batch, then crash destination 1.
    let held = cluster.shard(1).primary.borrow().engine.borrow().len();
    while cluster.sim.step() {
        let crash_now = match crash {
            DrainCrash::Applied => cluster.shard(1).primary.borrow().engine.borrow().len() > held,
            _ => cluster.report().rows[0].moved_keys > 0,
        };
        if crash_now {
            break;
        }
    }
    chaos.apply(&mut cluster.sim, &FaultEvent::CrashPrimary { partition: 1 });
    cluster.sim.run();

    assert_eq!(
        handle.outcome(),
        MigrationOutcome::Aborted,
        "HYDRA_SEED={seed}: losing a destination mid-copy must abort the drain"
    );
    assert!(!handle.flipped(), "HYDRA_SEED={seed}");
    assert_eq!(cluster.ownership_audit(), (0, 0), "HYDRA_SEED={seed}");
    assert_eq!(cluster.total_items(), n as usize, "HYDRA_SEED={seed}");
    for i in 0..n {
        let k = format!("da-key-{i:04}");
        assert_eq!(
            get_value(&mut cluster, &client, k.as_bytes()).as_deref(),
            Some(format!("val-{i}").as_bytes()),
            "HYDRA_SEED={seed}: key {i} lost in aborted drain"
        );
    }
    if crash == DrainCrash::OnTheWire {
        assert!(
            cluster.fab.stats().errors > bounced,
            "HYDRA_SEED={seed}: the held shipment must bounce off the revoked buffer"
        );
    }
}

#[test]
fn crash_of_a_destination_mid_drain_leaves_no_partial_copies() {
    for crash in [
        DrainCrash::Queued,
        DrainCrash::OnTheWire,
        DrainCrash::Applied,
    ] {
        drain_abort_round(35, crash);
    }
}

/// Without failure detection a crashed destination is never replaced: the
/// aborted drain cleans up the live destinations and settles without it
/// once the stall guard gives up, rather than ticking forever.
#[test]
fn an_aborted_drain_settles_without_a_destination_that_stays_down() {
    let cfg = ClusterConfig {
        server_nodes: 4,
        shards_per_node: 1,
        client_nodes: 1,
        replicas: 1,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let client = cluster.add_client(0);
    for i in 0..2_000 {
        put_ok(
            &mut cluster,
            &client,
            format!("sd-key-{i:04}").as_bytes(),
            b"v",
        );
    }
    let chaos = cluster.chaos();
    let held = |c: &hydra_db::Cluster| [2, 3].map(|p| c.report().rows[p].items);
    let before = held(&cluster);
    let handle = cluster.start_drain_server(0);
    while cluster.sim.step() && cluster.report().rows[0].moved_keys == 0 {}
    chaos.apply(&mut cluster.sim, &FaultEvent::CrashPrimary { partition: 1 });
    cluster.sim.run();

    assert_eq!(handle.outcome(), MigrationOutcome::Aborted);
    for p in [2, 3] {
        let phase = cluster.report().rows[p].migration_phase;
        assert_eq!(phase, "done", "destination {p} finished its walk");
    }
    assert_eq!(cluster.report().rows[1].migration_phase, "aborted");
    assert_eq!(held(&cluster), before, "no partial copy left on 2 or 3");
}

/// The plan [`replan_round`] starts once an aborted drain settles.
#[derive(Clone, Copy)]
enum Replan {
    /// The same drain again.
    RetryDrain,
    /// A node join, which makes every live shard a source.
    Join,
}

/// Abort a node drain once its destinations hold partial copies, with a
/// quantum that walks each destination's keys in several steps, then start
/// the next plan the moment the aborted one has settled and every partition
/// is served again. The aborted plan must
/// not settle before its destinations have dropped every partial copy: the
/// next plan completes, and every key is in its one place and readable.
fn replan_round(seed: u64, next: Replan) {
    let cfg = ClusterConfig {
        seed,
        server_nodes: 4,
        shards_per_node: 1,
        client_nodes: 1,
        replicas: 1,
        migration_quantum_items: 32,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let client = cluster.add_client(0);
    let n = 12_000;
    for i in 0..n {
        let k = format!("rp-key-{i:04}");
        put_ok(
            &mut cluster,
            &client,
            k.as_bytes(),
            format!("val-{i}").as_bytes(),
        );
    }
    // Failure detection from the end of the load on.
    let loaded = cluster.sim.now();
    cluster.enable_ha(loaded + 50 * MS);
    let chaos = cluster.chaos();
    let aborted = cluster.start_drain_server(0);
    while cluster.sim.step() && cluster.report().rows[0].moved_keys < 4 * 32 {}
    chaos.apply(&mut cluster.sim, &FaultEvent::CrashPrimary { partition: 1 });
    // The next plan starts the moment the abort has settled and the
    // crashed destination's secondary has taken over.
    let ready = |c: &hydra_db::Cluster| aborted.is_settled() && c.shard(1).primary.borrow().alive;
    while cluster.sim.step() && !ready(&cluster) {}
    assert_eq!(
        aborted.outcome(),
        MigrationOutcome::Aborted,
        "HYDRA_SEED={seed}: losing a destination mid-copy must abort the drain"
    );
    assert_eq!(
        cluster.ownership_audit(),
        (0, 0),
        "HYDRA_SEED={seed}: an aborted drain settles once no destination holds a partial copy"
    );
    let handle = match next {
        Replan::RetryDrain => cluster.start_drain_server(0),
        Replan::Join => cluster.start_migration(2),
    };
    cluster.sim.run();

    assert_eq!(
        handle.outcome(),
        MigrationOutcome::Completed,
        "HYDRA_SEED={seed}: the plan after the abort must complete"
    );
    assert_eq!(cluster.ownership_audit(), (0, 0), "HYDRA_SEED={seed}");
    assert_eq!(cluster.total_items(), n as usize, "HYDRA_SEED={seed}");
    for i in 0..n {
        let k = format!("rp-key-{i:04}");
        assert_eq!(
            get_value(&mut cluster, &client, k.as_bytes()).as_deref(),
            Some(format!("val-{i}").as_bytes()),
            "HYDRA_SEED={seed}: key {i} lost after an aborted drain"
        );
    }
}

#[test]
fn the_plan_after_an_aborted_drain_finds_no_partial_copies() {
    for next in [Replan::RetryDrain, Replan::Join] {
        replan_round(37, next);
    }
}

/// Seeded elastic soak: `cargo test -- --ignored elastic`. Every seed runs
/// a full join+drain round under recorded traffic; every third also runs
/// the crash-during-DoubleWrite abort arm, the three drain abort arms and
/// the two plans that follow an aborted drain. The
/// rounds must have driven the sweep path and absorbed an overwritten write
/// at least once.
#[test]
#[ignore = "soak: ~12 elastic rounds with linearizability checks"]
fn elastic_round_soak() {
    let (mut sweeps, mut absorbed) = (0, 0);
    for seed in 0..12u64 {
        let (s, a) = elastic_round(seed);
        (sweeps, absorbed) = (sweeps + s, absorbed + a);
        if seed % 3 == 0 {
            abort_round(seed);
            for crash in [
                DrainCrash::Queued,
                DrainCrash::OnTheWire,
                DrainCrash::Applied,
            ] {
                drain_abort_round(seed, crash);
            }
            for next in [Replan::RetryDrain, Replan::Join] {
                replan_round(seed, next);
            }
        }
    }
    assert!(sweeps > 0, "no elastic round formed a sweep of two or more");
    assert!(absorbed > 0, "no elastic round absorbed a write");
}

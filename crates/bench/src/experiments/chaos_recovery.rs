//! Recovery-time benchmark (BENCH_chaos): for each injected fault type,
//! measure the three phases of HydraDB's resilience story (§5.1) on the
//! virtual clock —
//!
//! * **detection**: fault injection → the secondary has missed `MISSES`
//!   liveness beats in a row, suspected its primary and fenced it (revoked
//!   its ring, applied what had landed);
//! * **failover**: fault injection → the SWAT leader has the report, has
//!   expired the primary's session, promoted the secondary and published
//!   the new partition map;
//! * **first op**: fault injection → a client write against the failed
//!   partition completes successfully again (full client-visible outage).
//!
//! Faults come from the hydra-chaos plan vocabulary and are injected through
//! the cluster's chaos controller, exactly as the consistency tests do.
//! `HYDRA_SEED` repins the run.

use std::cell::Cell;
use std::rc::Rc;

use hydra_chaos::FaultEvent;
use hydra_db::{Cluster, ClusterBuilder, ClusterConfig, ReplicationMode, ShardId, BEAT_NS, MISSES};
use hydra_sim::time::{MS, SEC, US};

use crate::{in_sequence, Report, Scale};

/// A key that the consistent-hash ring routes to `partition`.
fn key_for_partition(cluster: &Cluster, partition: u32) -> Vec<u8> {
    let dir = cluster.directory.borrow();
    for i in 0..100_000u32 {
        let k = format!("bench-probe-{i:06}").into_bytes();
        if dir.ring.route(&k) == Some(ShardId(partition)) {
            return k;
        }
    }
    panic!("no key routes to partition {partition}");
}

struct Timings {
    detection_us: f64,
    failover_us: f64,
    first_op_us: f64,
    /// One-sided GETs of a warmed key that completed successfully between
    /// fault injection and promotion. A process crash leaves the machine's
    /// memory readable over RDMA, so fast-path readers sail through the
    /// outage; a machine crash or partition takes the fast path down with
    /// the message path (§4.2.3's availability story, measured).
    reads_in_outage: u64,
}

/// Builds a fresh 3-machine, 2-partition, 1-replica Strict cluster, injects
/// `faults` against partition 0 at `inject_at` (varying the phase relative
/// to the liveness beat across trials), and measures the phases.
fn measure(seed: u64, faults: &[FaultEvent], inject_at: u64) -> Timings {
    let cfg = ClusterConfig {
        seed,
        server_nodes: 3,
        partitions: Some(2),
        client_nodes: 1,
        replicas: 1,
        replication: ReplicationMode::Strict,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    cluster.enable_ha(10 * SEC);
    let client = cluster.add_client(0);
    let probe_key = key_for_partition(&cluster, 0);

    // Seed the partition and warm a reader's remote-pointer cache (two GETs:
    // the first learns the pointer, the second takes the one-sided path).
    let reader = cluster.add_client(0);
    let (writer, r, key) = (client.clone(), reader.clone(), probe_key.clone());
    let warm = in_sequence(&mut cluster.sim, 3, move |sim, i, next| {
        let cb = Box::new(move |sim: &mut _, res: Result<_, _>| {
            res.expect("warm-up op succeeds");
            next(sim);
        });
        if i == 0 {
            writer.put(sim, &key, b"pre-fault", cb);
        } else {
            r.get(sim, &key, cb);
        }
    });
    cluster.sim.run_until(inject_at);
    assert!(warm.get());

    let chaos = cluster.chaos();
    let t0 = cluster.sim.now();
    for f in faults {
        chaos.apply(&mut cluster.sim, f);
    }

    // Closed-loop fast-path reader running through the outage: counts
    // lease-guarded one-sided GETs that still complete while the primary is
    // failed but not yet replaced.
    let reads_ok = Rc::new(Cell::new(0u64));
    let reads_stop = Rc::new(Cell::new(false));
    let (ok, stop, key) = (reads_ok.clone(), reads_stop.clone(), probe_key.clone());
    in_sequence(&mut cluster.sim, u64::MAX, move |sim, _, next| {
        if stop.get() {
            return;
        }
        let (ok, stop) = (ok.clone(), stop.clone());
        reader.get(
            sim,
            &key,
            Box::new(move |sim, r| {
                if r.is_ok() && !stop.get() {
                    ok.set(ok.get() + 1);
                }
                next(sim);
            }),
        );
    });

    // Phases 1 and 2: step event by event to the promotion, so the reader
    // stops at that instant; the fail-over log has both stamps.
    while cluster.promotions() == 0 {
        assert!(cluster.sim.step(), "failover never happened");
        assert!(cluster.sim.now() - t0 < 5 * SEC, "failover never happened");
    }
    let reads_in_outage = reads_ok.get();
    reads_stop.set(true);
    let log = cluster.failovers()[0];
    let (detection, failover) = (log.fenced_at - t0, log.promoted_at - t0);

    // Phase 3: first successful client op against the failed partition.
    // Retry the write until it lands on the promoted primary (a client
    // that had nothing parked on the old one finds the new map when it
    // routes its next op).
    let first_ok = Rc::new(Cell::new(0));
    let done = first_ok.clone();
    in_sequence(&mut cluster.sim, u64::MAX, move |sim, _, next| {
        let done = done.clone();
        client.put(
            sim,
            &probe_key,
            b"post-fault",
            Box::new(move |sim, r| match r {
                Ok(_) => done.set(sim.now()),
                Err(_) => next(sim),
            }),
        );
    });
    while first_ok.get() == 0 {
        let t = cluster.sim.now() + 50 * US;
        cluster.sim.run_until(t);
        assert!(cluster.sim.now() - t0 < 5 * SEC, "service never recovered");
    }
    let first_op = first_ok.get() - t0;

    Timings {
        detection_us: detection as f64 / 1_000.0,
        failover_us: failover as f64 / 1_000.0,
        first_op_us: first_op as f64 / 1_000.0,
        reads_in_outage,
    }
}

pub(crate) fn run(_: Scale, report: &mut Report) {
    let seed = hydra_sim::seed_from_env(42);
    report.line(&format!("# seed={seed} (set HYDRA_SEED to repin)"));
    report.line(&format!(
        "# 3 machines, 2 partitions, 1 sync replica; liveness beat {} us, \
         suspicion after {MISSES} missed beats, one socket hop to the \
         promotion; 8 trials de-phased across the beat",
        BEAT_NS / US
    ));
    report.line(
        "# *_us columns in microseconds; outage_reads = one-sided GETs of a \
         warmed key completing during the fault-to-promotion window",
    );
    report.header(
        "fault<24|detect_mean>12.1|detect_max>12.1|failover_mean>13.1|first_op_mean>13.1|\
         first_op_max>12.1|outage_reads>13",
    );
    report.datum("seed", seed);

    let crash = FaultEvent::CrashPrimary { partition: 0 };
    let cases = [
        ("crash_primary", vec![crash.clone()]),
        ("crash_node", vec![FaultEvent::CrashNode { node: 0 }]),
        ("partition_node", vec![FaultEvent::Partition { nodes: vec![0] }]),
        ("swat_leader_then_crash", vec![FaultEvent::ExpireSwatLeader, crash]),
    ];
    // De-phase the injection instant against the beat: real faults don't
    // align with the detector, so the timings below sweep the phase (steps
    // of 13 us inside the beat, 1.3 ms across the SWAT tick).
    let trials: Vec<u64> = (0..8u64).map(|i| 50 * MS + i * 1_313 * US).collect();
    for (name, faults) in cases {
        let runs: Vec<Timings> = trials
            .iter()
            .map(|&at| measure(seed, &faults, at))
            .collect();
        let mean =
            |f: fn(&Timings) -> f64| -> f64 { runs.iter().map(f).sum::<f64>() / runs.len() as f64 };
        let max = |f: fn(&Timings) -> f64| -> f64 { runs.iter().map(f).fold(0.0, f64::max) };
        let (dm, dx) = (mean(|t| t.detection_us), max(|t| t.detection_us));
        let fm = mean(|t| t.failover_us);
        let (om, ox) = (mean(|t| t.first_op_us), max(|t| t.first_op_us));
        let reads: u64 = runs.iter().map(|t| t.reads_in_outage).sum::<u64>() / runs.len() as u64;
        report.row(&[&name, &dm, &dx, &fm, &om, &ox, &reads]);
        report.datum(
            name,
            serde_json::json!({
                "detection_mean_us": dm,
                "detection_max_us": dx,
                "failover_mean_us": fm,
                "first_op_mean_us": om,
                "first_op_max_us": ox,
                "outage_reads_mean": reads,
                "trials": runs.len(),
            }),
        );
        // The floor: a fault is acted on within MISSES + 1 beats, wherever
        // in the beat it falls (34 800 us under the session timeout).
        report.claim(
            dx < 1_000.0,
            format!(
                "{name}: detection took {dx} us; the probe's bound is {} us",
                (MISSES as u64 + 1) * BEAT_NS / US
            ),
            "a failed primary is fenced and replaced within a few missed beats, under 1 ms",
        );
    }
}

//! High availability end to end (§5), driven by a scripted chaos plan:
//! replicated writes, a machine crash and a network partition injected by
//! the `hydra_db::chaos` engine, detection by the secondaries' RDMA-read liveness
//! probe ("a few missed heartbeats"), fence, SWAT promotion and client
//! wake — printed as a timeline in microseconds — then recovery and
//! machine-checked consistency: every recorded op linearizable, no stale
//! reads, replicas converged, and zero acknowledged-data loss.
//!
//! Run with: `cargo run --release --example failover`
//! Replay any run exactly with `HYDRA_SEED=<seed>`.

use std::cell::Cell;
use std::rc::Rc;

use hydra_db::chaos::{check_convergence, FaultEvent, FaultPlan, RecordingClient};
use hydra_db::{ClusterBuilder, ClusterConfig, ReplicationMode};
use hydra_sim::time::{SimTime, MS, SEC, US};

fn main() {
    let seed = hydra_sim::seed_from_env(42);
    let cfg = ClusterConfig {
        seed,
        server_nodes: 3,
        shards_per_node: 1,
        client_nodes: 1,
        replicas: 1,
        replication: ReplicationMode::Strict,
        op_timeout_ns: 20 * MS,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    cluster.enable_ha(5 * SEC);
    let client = cluster.add_recording_client(0);
    let chaos = cluster.chaos();

    // The adversary's script: machine 0 dies at 60 ms and stays down for
    // 120 ms; while it is being repaired, machine 1 drops out of the
    // network for 60 ms. Every fault is data, logged and replayable.
    // (when, what, the partition whose primary it takes out)
    let faults = [
        (60 * MS, FaultEvent::CrashNode { node: 0 }, 0u32),
        (100 * MS, FaultEvent::Partition { nodes: vec![1] }, 1u32),
    ];
    let plan = FaultPlan::new(seed)
        .at(faults[0].0, faults[0].1.clone())
        .at(faults[1].0, faults[1].1.clone())
        .at(160 * MS, FaultEvent::Heal)
        .at(180 * MS, FaultEvent::RestartNode { node: 0 });
    cluster.install_plan(&plan);

    // A canary per fault: 10 us after it, a second client writes to the
    // partition that just lost its primary. The write parks on the dead
    // primary; when it is acknowledged is the client-visible outage.
    let canary = cluster.add_recording_client(0);
    let served: Vec<Rc<Cell<SimTime>>> = faults
        .iter()
        .map(|&(at, _, partition)| {
            let key = (0..)
                .map(|i| format!("canary:{i:03}"))
                .find(|k| {
                    let dir = cluster.directory.borrow();
                    dir.ring.route(k.as_bytes()).map(|s| s.0) == Some(partition)
                })
                .expect("some key routes to every partition");
            let (canary, acked_at) = (canary.clone(), Rc::new(Cell::new(0)));
            let a = acked_at.clone();
            cluster.sim.schedule_at(at + 10 * US, move |sim| {
                canary.put(
                    sim,
                    key.as_bytes(),
                    b"first op after the fault",
                    Box::new(move |sim, r| {
                        r.expect("the canary outlives the fail-over");
                        a.set(sim.now());
                    }),
                );
            });
            acked_at
        })
        .collect();

    // Write a stream of orders with synchronous replication, recorded in
    // the chaos history and paced 1 ms apart so the stream runs straight
    // through both fault windows. Writes overlapping a window may time out
    // — the checker treats those as maybe-applied.
    let keys: Rc<Vec<String>> = Rc::new((0..200).map(|i| format!("order:{i:06}")).collect());
    let loaded = Rc::new(Cell::new(0usize));
    let failed = Rc::new(Cell::new(0usize));
    fn put_all(
        sim: &mut hydra_sim::Sim,
        client: RecordingClient,
        keys: Rc<Vec<String>>,
        i: usize,
        loaded: Rc<Cell<usize>>,
        failed: Rc<Cell<usize>>,
    ) {
        if i >= keys.len() {
            return;
        }
        let key = keys[i].clone();
        let value = format!("{{\"status\":\"paid\",\"seq\":{i}}}");
        let c2 = client.clone();
        client.put(
            sim,
            key.as_bytes(),
            value.as_bytes(),
            Box::new(move |sim, r| {
                match r {
                    Ok(_) => loaded.set(loaded.get() + 1),
                    Err(_) => failed.set(failed.get() + 1),
                }
                sim.schedule_in(MS, move |sim| {
                    put_all(sim, c2, keys, i + 1, loaded, failed);
                });
            }),
        );
    }
    put_all(
        &mut cluster.sim,
        client.clone(),
        keys.clone(),
        0,
        loaded.clone(),
        failed.clone(),
    );
    cluster.sim.run();
    println!(
        "acknowledged {} replicated writes ({} timed out inside fault windows)",
        loaded.get(),
        failed.get()
    );
    // Each fail-over against its fault: the secondary's third missed beat
    // (it suspects and fences in the same instant), the promotion one
    // socket hop later, the canary's write served one more hop and a round
    // trip after that.
    println!("fail-over timeline (us after the fault):");
    for (f, ((at, fault, _), served)) in cluster.failovers().iter().zip(faults.iter().zip(&served))
    {
        let us = |t: SimTime| (t - at) as f64 / US as f64;
        println!(
            "  partition {}: {fault:?} at {} us -> suspected +{:.1} -> fenced +{:.1} \
             -> promoted +{:.1} -> first op served +{:.1}",
            f.partition,
            at / US,
            us(f.fenced_at),
            us(f.fenced_at),
            us(f.promoted_at),
            us(served.get()),
        );
        assert!(served.get() - at < MS, "fail-over in a few missed beats");
    }
    println!(
        "chaos injected {} faults; SWAT performed {} promotions (directory generation {})",
        chaos.injected(),
        cluster.promotions(),
        cluster.generation()
    );
    assert!(chaos.injected() >= 4, "the whole plan fired");
    assert!(
        cluster.promotions() >= 1,
        "the crash must have forced at least one promotion"
    );

    // Recovery: restart anything still down, heal the network, resync any
    // replication channel the faults left stalled, and drain.
    chaos.recover(&mut cluster.sim);
    cluster.settle_replication();

    // Every *acknowledged* order must still be readable — zero data loss.
    let verified = Rc::new(Cell::new(0usize));
    fn verify(
        sim: &mut hydra_sim::Sim,
        client: RecordingClient,
        keys: Rc<Vec<String>>,
        i: usize,
        verified: Rc<Cell<usize>>,
    ) {
        if i >= keys.len() {
            return;
        }
        let key = keys[i].clone();
        let c2 = client.clone();
        client.get(
            sim,
            key.as_bytes(),
            Box::new(move |sim, r| {
                if let Some(v) = r.expect("get succeeds after recovery") {
                    assert!(
                        v.ends_with(format!("\"seq\":{i}}}").as_bytes()),
                        "order {i} returned foreign bytes"
                    );
                    verified.set(verified.get() + 1);
                }
                verify(sim, c2, keys, i + 1, verified);
            }),
        );
    }
    verify(
        &mut cluster.sim,
        client.clone(),
        keys.clone(),
        0,
        verified.clone(),
    );
    cluster.sim.run();
    println!(
        "verified {}/{} orders after recovery ({} acknowledged)",
        verified.get(),
        keys.len(),
        loaded.get()
    );
    assert!(
        verified.get() >= loaded.get(),
        "acknowledged write lost: only {}/{} orders survive",
        verified.get(),
        loaded.get()
    );

    // The recorded history proves it: linearizable per key, no read of
    // never-written bytes, replicas converged. Failures print the seed.
    let history = chaos.history();
    history.check_linearizable().expect("history linearizable");
    history
        .check_reads_observed_writes()
        .expect("no torn or invented reads");
    for p in 0..cluster.cfg.total_shards() {
        check_convergence(seed, &cluster.replica_dumps(p)).expect("replicas converged");
    }
    println!(
        "history: {} ops recorded, {} ok, {} failed — linearizable, reads clean, replicas converged",
        history.len(),
        history.completed_ok(),
        history.failed()
    );
    let s = client.client().stats();
    println!(
        "client path: {} timeouts, {} retries, {} invalid fast reads re-routed",
        s.timeouts, s.retries, s.invalid_hits
    );
}

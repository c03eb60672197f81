//! Elastic membership: watch a live node join stream ranges to its new
//! shards, flip ownership atomically, and drain the old owners — then run
//! the inverse reconfiguration (a node drain) on the same cluster.
//!
//! The operator-facing [`Cluster::report`] is printed mid-flight so the
//! migration state machine (snapshot → dblwrite → flip → drain)
//! is visible per partition, alongside the moved/drained key counters and
//! the migration epoch published at the flip.
//!
//! Run with: `cargo run --release --example elastic`
//! Replay any run exactly with `HYDRA_SEED=<seed>`.

use std::cell::Cell;
use std::rc::Rc;

use hydra_db::{ClusterBuilder, ClusterConfig};

fn main() {
    let seed = hydra_sim::seed_from_env(7);
    let cfg = ClusterConfig {
        seed,
        server_nodes: 2,
        shards_per_node: 2,
        client_nodes: 1,
        // A small quantum stretches the copy so the mid-flight report below
        // reliably catches the plan between phases.
        migration_quantum_items: 16,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let client = cluster.add_client(0);

    // Seed the store with a keyspace big enough to shed visible ranges.
    let keys: Rc<Vec<String>> = Rc::new((0..500).map(|i| format!("acct:{i:05}")).collect());
    {
        let loaded = Rc::new(Cell::new(0usize));
        fn put_all(
            sim: &mut hydra_sim::Sim,
            client: hydra_db::HydraClient,
            keys: Rc<Vec<String>>,
            i: usize,
            loaded: Rc<Cell<usize>>,
        ) {
            if i >= keys.len() {
                return;
            }
            let key = keys[i].clone();
            let c2 = client.clone();
            client.put(
                sim,
                key.as_bytes(),
                format!("balance={i}").as_bytes(),
                Box::new(move |sim, r| {
                    r.expect("load write succeeds");
                    loaded.set(loaded.get() + 1);
                    put_all(sim, c2, keys, i + 1, loaded);
                }),
            );
        }
        put_all(
            &mut cluster.sim,
            client.clone(),
            keys.clone(),
            0,
            loaded.clone(),
        );
        cluster.sim.run();
        assert_eq!(loaded.get(), keys.len());
    }
    println!(
        "loaded {} keys across {} partitions (generation {})",
        keys.len(),
        cluster.cfg.total_shards(),
        cluster.generation()
    );

    // A new machine joins with two fresh partitions; the migration engine
    // streams the moving ranges toward it in bounded quanta. Step the sim
    // until a source reports a copy phase and show the operator's view.
    let handle = cluster.start_migration(2);
    while cluster.sim.step() {
        if cluster
            .report()
            .rows
            .iter()
            .any(|r| r.migration_phase != "idle" && r.migration_phase != "receive")
        {
            break;
        }
    }
    println!("\n== mid-migration ==");
    print!("{}", cluster.report());

    cluster.sim.run();
    assert!(handle.flipped(), "the join must flip ownership");
    println!("\n== after the join settles ==");
    print!("{}", cluster.report());
    println!(
        "flip published migration_epoch = {} (moved {} keys, {} bytes)",
        cluster.migration_epoch(),
        handle.moved_keys(),
        handle.moved_bytes()
    );
    let (misplaced, duplicated) = cluster.ownership_audit();
    assert_eq!((misplaced, duplicated), (0, 0));
    assert_eq!(cluster.total_items(), keys.len());

    // The inverse reconfiguration: retire machine 0. Its partitions stream
    // everything away and leave the directory at the flip.
    let departed = cluster.drain_server(0);
    println!("\n== after draining node 0 (partitions {departed:?} retired) ==");
    print!("{}", cluster.report());
    assert_eq!(cluster.ownership_audit(), (0, 0));
    assert_eq!(cluster.total_items(), keys.len());

    // Every key still reads back through the reshaped directory.
    let verified = Rc::new(Cell::new(0usize));
    {
        fn verify(
            sim: &mut hydra_sim::Sim,
            client: hydra_db::HydraClient,
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
                key.clone().as_bytes(),
                Box::new(move |sim, r| {
                    let v = r.expect("get succeeds").expect("key present");
                    assert_eq!(v, format!("balance={i}").into_bytes(), "{key}");
                    verified.set(verified.get() + 1);
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
    }
    println!(
        "\nverified {}/{} keys after two reconfigurations (generation {})",
        verified.get(),
        keys.len(),
        cluster.generation()
    );
    assert_eq!(verified.get(), keys.len());
}

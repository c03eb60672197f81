//! Teardown: a dropped cluster gives back what it built.
//!
//! After a replicated workload — group commit, pipelined clients, with and
//! without fail-over monitoring, over one-sided and two-sided transports —
//! dropping the cluster and its clients must drop every shard server,
//! primary and secondary, and every arena. A reference cycle through the
//! simulator's pending events, the directory, the replication channel or a
//! receive handler the fabric keeps would hold them alive, and each leaked
//! cluster would hold its arenas and indexes for the life of the process.

use std::rc::Rc;
use std::sync::Arc;

use hydra_db::{ClientMode, ClusterBuilder, ClusterConfig, ReplicationMode};
use hydra_sim::time::SEC;
use hydra_ycsb::{run_workload, DriverConfig, KeyDist, OpMix, Workload};

fn dropped_cluster_releases_its_shards(ha: bool, client_mode: ClientMode, mux: bool) {
    let cfg = ClusterConfig {
        client_mode,
        mux_connections: mux,
        server_nodes: 2,
        shards_per_node: 2,
        client_nodes: 2,
        replicas: 1,
        replication: ReplicationMode::GroupCommit,
        pipeline_depth: 4,
        arena_words: 1 << 16,
        repl_ring_words: 1 << 14,
        ..ClusterConfig::default()
    };
    let partitions = cfg.server_nodes * cfg.shards_per_node;
    let mut cluster = ClusterBuilder::new(cfg).build();
    if ha {
        cluster.enable_ha(SEC);
    }
    let clients: Vec<_> = (0..8).map(|i| cluster.add_client(i % 2)).collect();
    let wl = Workload {
        records: 2_000,
        ops: 8_000,
        read_ratio: 0.5,
        dist: KeyDist::zipfian(),
        key_len: 16,
        value_len: 32,
        seed: 7,
        mix: OpMix::ReadUpdate,
    };
    let driver = DriverConfig {
        window: 4,
        ..DriverConfig::default()
    };
    let report = run_workload(&mut cluster.sim, &clients, &wl, &driver);
    assert!(report.ops > 0);

    let mut servers = Vec::new();
    let mut arenas = Vec::new();
    for p in 0..partitions {
        let shard = cluster.shard(p);
        for server in std::iter::once(&shard.primary).chain(&shard.secondaries) {
            servers.push(Rc::downgrade(server));
            arenas.push(Arc::downgrade(&server.borrow().engine.borrow().memory()));
        }
    }
    assert_eq!(servers.len(), 2 * partitions as usize, "one secondary each");

    drop(clients);
    drop(cluster);
    let live = servers.iter().filter(|s| s.upgrade().is_some()).count();
    assert_eq!(live, 0, "shard servers outlived their cluster");
    let live = arenas.iter().filter(|a| a.upgrade().is_some()).count();
    assert_eq!(live, 0, "arenas outlived their cluster");
}

#[test]
fn a_dropped_replicated_cluster_releases_its_shards_and_arenas() {
    dropped_cluster_releases_its_shards(false, ClientMode::RdmaWriteRead, false);
}

#[test]
fn a_dropped_monitored_cluster_releases_its_shards_and_arenas() {
    dropped_cluster_releases_its_shards(true, ClientMode::RdmaWriteRead, false);
}

/// The fabric keeps each QP's receive handlers; a server-side handler that
/// held its shard (or a multiplexed channel's demux table) strongly closed a
/// cycle through the shard's own fabric handle.
#[test]
fn a_dropped_send_recv_cluster_releases_its_shards_and_arenas() {
    dropped_cluster_releases_its_shards(false, ClientMode::SendRecv, false);
    dropped_cluster_releases_its_shards(false, ClientMode::SendRecv, true);
}

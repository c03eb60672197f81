//! Figure 13 — replication cost: mean INSERT latency into a single shard
//! under (i) no replication, (ii) strict request/acknowledge, and (iii) RDMA
//! Logging replication, for 1 and 2 secondaries and a growing client count.
//! The paper's headline: strict acks double the no-replication latency,
//! while RDMA Logging adds only ~12% (1 replica) / ~41% (2 replicas).
//!
//! The figure's shape is asserted after the table is saved: at every client
//! and replica count none < logging < strict and group commit <= logging,
//! logging costs at least 5 %, and strict is at least 1.8x none at one
//! client. A claim that fails prints the paper sentence it contradicts.

use std::cell::Cell;
use std::rc::Rc;

use hydra_bench::{Report, Scale};
use hydra_db::{ClusterBuilder, ClusterConfig, HydraClient, ReplicationMode};
use hydra_sim::Sim;

fn insert_stream(
    sim: &mut Sim,
    client: &HydraClient,
    prefix: u64,
    count: u64,
    done: Rc<Cell<usize>>,
) {
    fn step(
        sim: &mut Sim,
        client: HydraClient,
        prefix: u64,
        i: u64,
        count: u64,
        done: Rc<Cell<usize>>,
    ) {
        if i >= count {
            done.set(done.get() + 1);
            return;
        }
        let key = format!("c{prefix:03}-k{i:012}");
        let c2 = client.clone();
        client.insert(
            sim,
            key.as_bytes(),
            &[0xAB; 32],
            Box::new(move |sim, r| {
                r.expect("insert succeeds");
                step(sim, c2, prefix, i + 1, count, done);
            }),
        );
    }
    step(sim, client.clone(), prefix, 0, count, done);
}

/// Mean INSERT latency (µs) with `repl` = (mode, secondaries), or with no
/// replica at all.
fn mean_insert_latency(repl: Option<(ReplicationMode, u32)>, clients: usize, inserts: u64) -> f64 {
    let (mode, replicas) = repl.unwrap_or((ReplicationMode::GroupCommit, 0));
    let cfg = ClusterConfig {
        server_nodes: 1 + replicas.max(1),
        shards_per_node: 1,
        partitions: Some(1),
        client_nodes: 2,
        replicas,
        replication: mode,
        arena_words: 1 << 23,
        expected_items: 1 << 20,
        repl_ring_words: 1 << 18,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let clients: Vec<_> = (0..clients).map(|i| cluster.add_client(i % 2)).collect();
    let done = Rc::new(Cell::new(0usize));
    for (i, c) in clients.iter().enumerate() {
        insert_stream(&mut cluster.sim, c, i as u64, inserts, done.clone());
    }
    cluster.sim.run();
    assert_eq!(done.get(), clients.len());
    let mut lat = hydra_sim::Histogram::new();
    for c in &clients {
        lat.merge(&c.stats().update_lat);
    }
    lat.mean() / 1_000.0
}

fn main() {
    let scale = Scale::from_env();
    let inserts_per_client = (scale.ops() / 20).max(500);
    let mut report = Report::new(
        "fig13_replication",
        "Fig. 13: INSERT latency under replication protocols (single shard)",
    );
    report.line(&format!(
        "{:<10} {:<22} {:>10} {:>10} {:>12}",
        "clients", "protocol", "mean_us", "vs none", "overhead"
    ));
    let mut contradicted = Vec::new();
    let mut claim = |holds: bool, row: String, paper: &str| {
        if !holds {
            contradicted.push(format!("{row}: contradicts \"{paper}\""));
        }
    };
    for clients in [1usize, 2, 4, 8] {
        let none = mean_insert_latency(None, clients, inserts_per_client);
        report.line(&format!(
            "{:<10} {:<22} {:>10.2} {:>10} {:>12}",
            clients, "no replication", none, "1.00x", "-"
        ));
        report.datum(&format!("none/{clients}"), none);
        for replicas in [1u32, 2] {
            let [strict, logging, gc] = [
                ("strict req/ack", ReplicationMode::Strict),
                ("RDMA logging", ReplicationMode::Logging { ack_every: 32 }),
                ("group commit", ReplicationMode::GroupCommit),
            ]
            .map(|(label, mode)| {
                let us = mean_insert_latency(Some((mode, replicas)), clients, inserts_per_client);
                report.line(&format!(
                    "{:<10} {:<22} {:>10.2} {:>9.2}x {:>11.1}%",
                    clients,
                    format!("{label} x{replicas}"),
                    us,
                    us / none,
                    (us / none - 1.0) * 100.0
                ));
                report.datum(&format!("{label}-r{replicas}/{clients}"), us);
                us
            });
            let row = |what: &str| format!("{clients} clients x{replicas}: {what}");
            claim(
                none < logging && logging < strict,
                row(&format!(
                    "none {none:.2} / logging {logging:.2} / strict {strict:.2} us"
                )),
                "strict request/acknowledge doubles the latency of no replication, \
                 while RDMA Logging adds only a fraction of it",
            );
            claim(
                logging >= 1.05 * none,
                row(&format!("logging {:+.1} %", (logging / none - 1.0) * 100.0)),
                "RDMA Logging costs 12.3 % with one replica and 41.1 % with two",
            );
            claim(
                clients > 1 || strict >= 1.8 * none,
                row(&format!("strict {:.2}x none", strict / none)),
                "strict request/acknowledge doubles the latency of no replication",
            );
            claim(
                gc <= logging,
                row(&format!(
                    "group commit {gc:.2} us > logging {logging:.2} us"
                )),
                "(DESIGN §14) group commit keeps strict's promise at no more than \
                 RDMA Logging's latency",
            );
        }
    }
    report.line(
        "# paper anchors: strict ~2.0x none; logging ~1.12x (1 replica), ~1.41x (2 replicas)",
    );
    report.save();
    assert!(
        contradicted.is_empty(),
        "Fig. 13's shape does not hold:\n{}",
        contradicted.join("\n")
    );
}

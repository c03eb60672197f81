//! Figure 13 — replication cost: mean INSERT latency into a single shard
//! under (i) no replication, (ii) strict request/acknowledge, and (iii) RDMA
//! Logging replication, for 1 and 2 secondaries and a growing client count.
//! The paper's headline: strict acks double the no-replication latency,
//! while RDMA Logging adds only ~12% (1 replica) / ~41% (2 replicas).
//!
//! The figure's shape is four claims: at every client and replica count
//! none < logging < strict and group commit <= logging, logging costs at
//! least 5 %, and strict is at least 1.8x none at one client.

use hydra_db::ReplicationMode;

use crate::{in_sequence, paper_cluster, replicated_shard_config, Report, Scale};

/// Mean INSERT latency (µs) with `repl` = (mode, secondaries), or with no
/// replica at all.
fn mean_insert_latency(repl: Option<(ReplicationMode, u32)>, clients: usize, inserts: u64) -> f64 {
    let (mode, replicas) = repl.unwrap_or((ReplicationMode::GroupCommit, 0));
    let (mut cluster, clients) = paper_cluster(replicated_shard_config(mode, replicas), clients);
    let streams: Vec<_> = (clients.iter().enumerate())
        .map(|(c, client)| {
            let client = client.clone();
            in_sequence(&mut cluster.sim, inserts, move |sim, i, next| {
                let key = format!("c{c:03}-k{i:012}");
                let cb = Box::new(move |sim: &mut _, r: Result<_, _>| {
                    r.expect("insert succeeds");
                    next(sim);
                });
                client.insert(sim, key.as_bytes(), &[0xAB; 32], cb);
            })
        })
        .collect();
    cluster.sim.run();
    assert!(streams.iter().all(|done| done.get()));
    let mut lat = hydra_sim::Histogram::new();
    for c in &clients {
        lat.merge(&c.stats().update_lat);
    }
    lat.mean() / 1_000.0
}

pub(crate) fn run(scale: Scale, report: &mut Report) {
    let inserts_per_client = (scale.ops() / 20).max(500);
    report.header("clients<10|protocol<22|mean_us>10.2|vs none>10|overhead>12");
    for clients in [1usize, 2, 4, 8] {
        let none = mean_insert_latency(None, clients, inserts_per_client);
        report.row(&[&clients, &"no replication", &none, &"1.00x", &"-"]);
        report.datum(&format!("none/{clients}"), none);
        for replicas in [1u32, 2] {
            let [strict, logging, gc] = [
                ("strict req/ack", ReplicationMode::Strict),
                ("RDMA logging", ReplicationMode::Logging { ack_every: 32 }),
                ("group commit", ReplicationMode::GroupCommit),
            ]
            .map(|(label, mode)| {
                let us = mean_insert_latency(Some((mode, replicas)), clients, inserts_per_client);
                let (vs, overhead) = (us / none, (us / none - 1.0) * 100.0);
                let (vs, overhead) = (format!("{vs:.2}x"), format!("{overhead:.1}%"));
                report.row(&[&clients, &format!("{label} x{replicas}"), &us, &vs, &overhead]);
                report.datum(&format!("{label}-r{replicas}/{clients}"), us);
                us
            });
            let row = |what: &str| format!("{clients} clients x{replicas}: {what}");
            report.claim(
                none < logging && logging < strict,
                row(&format!(
                    "none {none:.2} / logging {logging:.2} / strict {strict:.2} us"
                )),
                "strict request/acknowledge doubles the latency of no replication, \
                 while RDMA Logging adds only a fraction of it",
            );
            report.claim(
                logging >= 1.05 * none,
                row(&format!("logging {:+.1} %", (logging / none - 1.0) * 100.0)),
                "RDMA Logging costs 12.3 % with one replica and 41.1 % with two",
            );
            report.claim(
                clients > 1 || strict >= 1.8 * none,
                row(&format!("strict {:.2}x none", strict / none)),
                "strict request/acknowledge doubles the latency of no replication",
            );
            report.claim(
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
}

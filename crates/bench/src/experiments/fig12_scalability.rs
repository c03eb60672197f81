//! Figure 12 — scalability, four panels:
//! (a) scale-out, Uniform: 1–7 server machines, 1 shard each, 60 clients;
//! (b) scale-out, Zipfian: skew caps rebalancing at a saturation point;
//! (c) scale-up, Uniform: 1–8 shards on one machine (QP-count driver
//!     pressure eventually bites);
//! (d) scale-up, Zipfian.
//!
//! Throughput is normalized to the 1-server/1-shard case per workload, as in
//! the paper. Clients are collocated with the servers in the scale-out runs
//! (the 8-machine cluster has no spare nodes), which is what attenuates the
//! 100%-GET series.

use hydra_db::ClusterConfig;

use crate::{one_workload, paper_cluster_config, run_hydra, Report, Scale};

const MIXES: [(&str, f64); 3] = [("50g-50u", 0.5), ("90g-10u", 0.9), ("100g", 1.0)];

pub(crate) fn run(scale: Scale, report: &mut Report) {
    for (panel, zipf) in [
        ("(a) scale-out uniform", false),
        ("(b) scale-out zipfian", true),
        ("(c) scale-up uniform", false),
        ("(d) scale-up zipfian", true),
    ] {
        let out = panel.contains("scale-out");
        let (axis, max, setup) = if out {
            ("servers", 7, "servers 1..7, 1 shard each, 60 collocated clients")
        } else {
            ("shards", 8, "shards 1..8 on one machine, 60 clients on 6 machines")
        };
        report.line(&format!("\n{panel}: {setup}"));
        let [m0, m1, m2] = MIXES.map(|m| m.0);
        report.header(&format!("{axis}<10|{m0}>8.2|{m1}>8.2|{m2}>8.2"));
        let mut base = [0.0f64; 3];
        for n in 1..=max {
            let cfg = ClusterConfig {
                server_nodes: if out { n } else { 1 },
                shards_per_node: if out { 1 } else { n },
                client_nodes: if out { 1 } else { 6 },
                collocate_clients: out,
                ..paper_cluster_config()
            };
            let mut row = [0.0f64; 3];
            for (mi, (mix, ratio)) in MIXES.iter().enumerate() {
                let wl = one_workload(scale, *ratio, zipf, 12);
                let mops = run_hydra(cfg.clone(), 60, &wl).mops;
                if n == 1 {
                    base[mi] = mops;
                }
                row[mi] = mops / base[mi];
                report.datum(&format!("{panel}/{mix}/{n}"), mops);
            }
            report.row(&[&n, &row[0], &row[1], &row[2]]);
        }
    }
}

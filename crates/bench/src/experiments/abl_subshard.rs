//! A-SUBSHARD — the §6.3 future-work proposal, implemented and measured:
//! "too many RDMA connections can prevent HydraDB from scaling out on a
//! single machine. A potential solution is a sub-sharding mechanism to allow
//! a single shard instance to use multiple cores for independent sub-shards
//! while the main process maintains all the connections."
//!
//! Compares, on one 8-core server machine under growing client counts:
//!   (A) 8 independent shard instances  -> clients x 8 QPs at the driver;
//!   (B) 1 instance with 8 sub-shards   -> clients x 1 QPs.

use hydra_db::{ClusterConfig, ExecModel};
use hydra_ycsb::{run_workload, DriverConfig, Workload};

use crate::{one_workload, paper_cluster, paper_cluster_config, Report, Scale};

fn run_arm(clients: usize, exec: ExecModel, shards: u32, wl: &Workload) -> (f64, u32) {
    let cfg = ClusterConfig {
        shards_per_node: shards,
        client_nodes: 6,
        exec_model: exec,
        ..paper_cluster_config()
    };
    let (mut cluster, cs) = paper_cluster(cfg, clients);
    let r = run_workload(&mut cluster.sim, &cs, wl, &DriverConfig::default());
    let qps = cluster.fab.qp_count(cluster.server_nodes[0]);
    (r.mops, qps)
}

pub(crate) fn run(scale: Scale, report: &mut Report) {
    report.header("clients<10|8-shards Mops>14.3|QPs>10|sub-shard Mops>16.3|QPs>10|gain>8");
    for clients in [30usize, 60, 90, 120] {
        let wl = Workload {
            ops: (scale.ops() / 2).max(10_000),
            ..one_workload(scale, 0.5, false, 61)
        };
        let (flat, flat_qps) = run_arm(clients, ExecModel::SingleThreaded, 8, &wl);
        let (sub, sub_qps) = run_arm(clients, ExecModel::SubSharded { subs: 8 }, 1, &wl);
        let gain = format!("{:.1}%", (sub / flat - 1.0) * 100.0);
        report.row(&[&clients, &flat, &flat_qps, &sub, &sub_qps, &gain]);
        report.datum(
            &format!("{clients}"),
            serde_json::json!({
                "flat_mops": flat, "flat_qps": flat_qps,
                "subshard_mops": sub, "subshard_qps": sub_qps,
            }),
        );
    }
    report.line("# sub-sharding keeps driver QP counts flat; its advantage appears exactly when clients x shards crosses the driver threshold");
}

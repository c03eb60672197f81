//! Figure 10 — incremental evaluation of the RDMA design choices on the six
//! YCSB workloads: Send/Recv baseline, then RDMA-Write message passing, then
//! remote-pointer RDMA-Read GETs on top; plus the pipelined execution model
//! of §6.2.1 (which uses 4x the cores yet loses to single-threaded shards).
//!
//! The figure's shape is a claim: under Zipf, what remote-pointer reads add
//! over RDMA-Write-only messaging does not shrink as the GET share rises
//! (50, 90, 100 %) — the paper's "more GETs, more benefit from one-sided
//! reads".

use hydra_db::{ClientMode, ClusterConfig, ExecModel};

use crate::{paper_cluster_config, paper_workloads, run_hydra, Report, ReportRow};
use crate::Scale;

pub fn run(scale: Scale, report: &mut Report) {
    let clients = 50;
    report.header(
        "workload<16|Send/Recv>12.3|RDMA Write Only>16.3|RDMA Write + Read>18.3|\
         Pipeline + Write>20.3",
    );
    // "+read vs write" of each Zipf workload, in rising GET share.
    let mut zipf_gains = Vec::new();
    for (name, wl) in paper_workloads(scale, 10) {
        let mut row = Vec::new();
        // The §6.2 client-mode design points, in presentation order.
        for mode in [ClientMode::SendRecv, ClientMode::RdmaWrite, ClientMode::RdmaWriteRead] {
            let cfg = ClusterConfig {
                client_mode: mode,
                ..paper_cluster_config()
            };
            let r = run_hydra(cfg, clients, &wl);
            report.datum(&format!("{name}/{mode:?}"), ReportRow(&r));
            row.push(r.mops);
        }
        // Pipelined ablation: RDMA Write messages, decoupled detect/handle,
        // 2 workers + dispatcher per shard (4x the cores of single-threaded).
        let pipe_cfg = ClusterConfig {
            client_mode: ClientMode::RdmaWrite,
            exec_model: ExecModel::Pipelined { workers: 2 },
            ..paper_cluster_config()
        };
        let pipe = run_hydra(pipe_cfg, clients, &wl);
        report.datum(&format!("{name}/Pipelined"), ReportRow(&pipe));
        report.row(&[&name, &row[0], &row[1], &row[2], &pipe.mops]);
        let read_gain = (row[2] / row[1] - 1.0) * 100.0;
        report.line(&format!(
            "{:<16}   write vs send/recv: {:+.1}% | +read vs write: {:+.1}% | single vs pipelined: {:+.1}%",
            "",
            (row[1] / row[0] - 1.0) * 100.0,
            read_gain,
            (row[1] / pipe.mops - 1.0) * 100.0,
        ));
        if name.ends_with("-zipf") {
            zipf_gains.push((name, read_gain));
        }
    }
    for pair in zipf_gains.windows(2) {
        let ((lo, lo_gain), (hi, hi_gain)) = (&pair[0], &pair[1]);
        report.claim(
            hi_gain >= lo_gain,
            format!("+read vs write falls from {lo_gain:+.1}% ({lo}) to {hi_gain:+.1}% ({hi})"),
            "more GETs, more benefit from one-sided reads (+10.1 / +14.4 / +29.9 % at Zipf \
             50 / 90 / 100 % GET)",
        );
    }
}

//! Figure 10 — incremental evaluation of the RDMA design choices on the six
//! YCSB workloads: Send/Recv baseline, then RDMA-Write message passing, then
//! remote-pointer RDMA-Read GETs on top; plus the pipelined execution model
//! of §6.2.1 (which uses 4x the cores yet loses to single-threaded shards).
//!
//! The figure's shape is asserted after the table is saved: under Zipf, what
//! remote-pointer reads add over RDMA-Write-only messaging does not shrink as
//! the GET share rises (50, 90, 100 %) — the paper's "more GETs, more
//! benefit from one-sided reads".

use hydra_bench::{design_points, paper_cluster_config, paper_workloads, Report, ReportRow, Scale};
use hydra_db::ExecModel;

fn main() {
    let scale = Scale::from_env();
    let clients = 50;
    let mut report = Report::new(
        "fig10_incremental",
        "Fig. 10: incremental RDMA design choices (throughput, Mops)",
    );
    report.line(&format!(
        "{:<16} {:>12} {:>16} {:>18} {:>20}",
        "workload", "Send/Recv", "RDMA Write Only", "RDMA Write + Read", "Pipeline + Write"
    ));
    // "+read vs write" of each Zipf workload, in rising GET share.
    let mut zipf_gains = Vec::new();
    for (name, wl) in paper_workloads(scale, 10) {
        let mut row = Vec::new();
        for (_, mode) in design_points() {
            let cfg = hydra_db::ClusterConfig {
                client_mode: mode,
                ..paper_cluster_config()
            };
            let r = hydra_bench::run_hydra(cfg, clients, &wl);
            report.datum(&format!("{name}/{mode:?}"), ReportRow::from(&r));
            row.push(r.mops);
        }
        // Pipelined ablation: RDMA Write messages, decoupled detect/handle,
        // 2 workers + dispatcher per shard (4x the cores of single-threaded).
        let pipe_cfg = hydra_db::ClusterConfig {
            client_mode: hydra_db::ClientMode::RdmaWrite,
            exec_model: ExecModel::Pipelined { workers: 2 },
            ..paper_cluster_config()
        };
        let pipe = hydra_bench::run_hydra(pipe_cfg, clients, &wl);
        report.datum(&format!("{name}/Pipelined"), ReportRow::from(&pipe));
        report.line(&format!(
            "{:<16} {:>12.3} {:>16.3} {:>18.3} {:>20.3}",
            name, row[0], row[1], row[2], pipe.mops
        ));
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
    report.save();
    for pair in zipf_gains.windows(2) {
        let ((lo, lo_gain), (hi, hi_gain)) = (&pair[0], &pair[1]);
        assert!(
            hi_gain >= lo_gain,
            "Fig. 10's shape does not hold: +read vs write falls from {lo_gain:+.1}% ({lo}) \
             to {hi_gain:+.1}% ({hi}) as the GET share rises"
        );
    }
}

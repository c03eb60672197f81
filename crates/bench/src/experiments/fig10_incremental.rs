//! Figure 10 — incremental evaluation of the RDMA design choices on the six
//! YCSB workloads: Send/Recv baseline, then RDMA-Write message passing, then
//! remote-pointer RDMA-Read GETs on top; plus the pipelined execution model
//! of §6.2.1 (which uses 4x the cores yet loses to single-threaded shards).
//!
//! The figure's shape is claimed: RDMA-Write messaging beats Send/Recv and
//! single-threaded shards beat the pipelined model on every mix; under Zipf,
//! what remote-pointer reads add over RDMA-Write-only messaging does not
//! shrink as the GET share rises (50, 90, 100 %) — the paper's "more GETs,
//! more benefit from one-sided reads" — and at 90 and 100 % GET it is larger
//! than under Uniform.

use std::collections::HashMap;

use hydra_db::{ClientMode, ClusterConfig, ExecModel};

use crate::{paper_cluster_config, paper_workloads, run_hydra, Report, ReportRow};
use crate::Scale;

pub(crate) fn run(scale: Scale, report: &mut Report) {
    let clients = 50;
    report.header(
        "workload<16|Send/Recv>12.3|RDMA Write Only>16.3|RDMA Write + Read>18.3|\
         Pipeline + Write>20.3",
    );
    // "+read vs write" of each workload.
    let mut read_gains = HashMap::new();
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
        report.claim(
            row[1] > row[0],
            format!("{name}: RDMA Write {:.3} vs Send/Recv {:.3} Mops", row[1], row[0]),
            "RDMA-Write messaging beats Send/Recv by 74.7-162.6 %",
        );
        report.claim(
            row[1] > pipe.mops,
            format!("{name}: single-threaded {:.3} vs pipelined {:.3} Mops", row[1], pipe.mops),
            "single-threaded beats the pipelined model (4x the cores) by 27.4-94.8 %",
        );
        read_gains.insert(name, read_gain);
    }
    let gain = |mix: &str, dist: &str| read_gains[&format!("{mix}-{dist}")];
    for [lo, hi] in [["50g-50u", "90g-10u"], ["90g-10u", "100g"]] {
        let (lo_gain, hi_gain) = (gain(lo, "zipf"), gain(hi, "zipf"));
        report.claim(
            hi_gain >= lo_gain,
            format!("Zipf: +read vs write {lo_gain:+.1}% ({lo}) > {hi_gain:+.1}% ({hi})"),
            "more GETs, more benefit from one-sided reads (+10.1 / +14.4 / +29.9 % at Zipf \
             50 / 90 / 100 % GET)",
        );
    }
    for mix in ["90g-10u", "100g"] {
        let (zipf, uniform) = (gain(mix, "zipf"), gain(mix, "uniform"));
        report.claim(
            uniform < zipf,
            format!("{mix}: +read vs write {uniform:+.1}% Uniform vs {zipf:+.1}% Zipf"),
            "adding RDMA Read gains less for Uniform than for Zipf",
        );
    }
}

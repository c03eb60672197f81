//! Connection scaling: the NIC resource cliff and the mux/huge-page fix.
//!
//! Sweeps the client count against the paper serving topology (1 server
//! machine, 4 shards) under four connection-plane arms:
//!
//! * **ded/4k** — one QP per (client, partition), 4 KiB page registration:
//!   the naive plane. Past the NIC's on-chip QP-state (ICM) and MTT cache
//!   capacities every message pays PCIe context fetches, and the driver's
//!   per-connection overhead compounds — throughput collapses.
//! * **ded/huge** — dedicated QPs but 2 MiB pages: the MTT collapses ~512x,
//!   isolating the QP-state share of the cliff.
//! * **mux/4k** — one QP per (client, server machine) with tag demux + SRQ:
//!   QP count drops by the shards-per-node factor, isolating the MTT share.
//! * **mux/huge** — both fixes (the Storm/RDMAvisor recipe): the NIC
//!   working set stays on chip across the whole sweep.
//!
//! Claims (the study's floors):
//! * at the top of the sweep, **mux/huge >= 1.3x ded/4k** throughput;
//! * at 16 clients (where no cache can miss), mux/huge costs **<= 5%**
//!   vs ded/4k — the optimizations are free when the fabric is small.

use hydra_db::ClusterConfig;
use hydra_ycsb::{run_workload, DriverConfig, Workload, WorkloadReport};

use crate::{one_workload, paper_cluster, paper_cluster_config, Report, Scale};

/// Name, QP multiplexing + SRQ, 2 MiB pages.
const ARMS: [(&str, bool, bool); 4] = [
    ("ded/4k", false, false),
    ("ded/huge", false, true),
    ("mux/4k", true, false),
    ("mux/huge", true, true),
];

struct ArmResult {
    rep: WorkloadReport,
    server_qps: u32,
    mtt_entries: u64,
    qp_misses: u64,
    mtt_misses: u64,
    miss_pen_ms: f64,
}

fn run_arm(mux: bool, huge: bool, clients: usize, wl: &Workload) -> ArmResult {
    let page = if huge { 2 << 20 } else { 4096 };
    let mut cfg = ClusterConfig {
        mux_connections: mux,
        srq: mux,
        page_bytes: page,
        // The dedicated/4K arm is *supposed* to collapse at the top of the
        // sweep; keep the client from declaring its own slowness a timeout.
        op_timeout_ns: 250 * hydra_sim::time::MS,
        ..paper_cluster_config()
    };
    cfg.fabric.default_page_bytes = page;
    let (mut cluster, handles) = paper_cluster(cfg, clients);
    let rep = run_workload(&mut cluster.sim, &handles, wl, &DriverConfig::default());
    let node = cluster.server_nodes[0];
    let stats = cluster.fab.node_stats(node);
    ArmResult {
        rep,
        server_qps: cluster.fab.qp_count(node),
        mtt_entries: cluster.fab.mtt_registered(node),
        qp_misses: stats.qp_cache_misses,
        mtt_misses: stats.mtt_cache_misses,
        miss_pen_ms: stats.miss_penalty_ns as f64 / 1e6,
    }
}

pub fn run(scale: Scale, report: &mut Report) {
    let counts: &[usize] = match scale {
        Scale::Smoke => &[16, 256],
        _ => &[16, 128, 512, 2048],
    };
    let top = *counts.last().unwrap();

    report.line(&format!(
        "# {} records, {} ops per run; 1 server node x 4 shards; 50/50 read-update",
        scale.records(),
        scale.ops()
    ));
    report.header(
        "clients<8|arm<9|mops>8.3|get_p99_us>11.2|srv_qps>8|mtt_ent>8|qp_miss>9|mtt_miss>9|\
         miss_pen_ms>12.2",
    );

    // (clients, arm) -> mops, for the floor checks after the sweep.
    let mut mops = std::collections::HashMap::new();
    for &clients in counts {
        let wl = one_workload(scale, 0.5, false, 47);
        for (name, mux, huge) in ARMS {
            let r = run_arm(mux, huge, clients, &wl);
            assert_eq!(r.rep.errors, 0, "{name} @ {clients} clients: run must be error-free");
            let (rate, p99) = (r.rep.mops, r.rep.get_p99_us);
            let (qps, mtt) = (r.server_qps, r.mtt_entries);
            let (qp_miss, mtt_miss, pen) = (r.qp_misses, r.mtt_misses, r.miss_pen_ms);
            report.row(&[&clients, &name, &rate, &p99, &qps, &mtt, &qp_miss, &mtt_miss, &pen]);
            let key = name.replace('/', "_");
            report.datum(&format!("{key}_mops_{clients}"), r.rep.mops);
            report.datum(&format!("{key}_get_p99_us_{clients}"), r.rep.get_p99_us);
            if clients == top {
                report.datum(&format!("{key}_server_qps_top"), r.server_qps);
                report.datum(&format!("{key}_qp_misses_top"), r.qp_misses);
                report.datum(&format!("{key}_mtt_misses_top"), r.mtt_misses);
            }
            mops.insert((clients, name), r.rep.mops);
        }
    }

    let ratio_at = |clients: usize| -> f64 {
        mops[&(clients, "mux/huge")] / mops[&(clients, "ded/4k")].max(1e-9)
    };
    let top_ratio = ratio_at(top);
    let small_ratio = ratio_at(counts[0]);
    report.line(&format!(
        "# mux/huge vs ded/4k: {:.3}x at {} clients, {:.3}x at {} clients",
        small_ratio, counts[0], top_ratio, top
    ));
    report.datum("mux_huge_over_ded_4k_top", top_ratio);
    report.datum("mux_huge_over_ded_4k_small", small_ratio);

    report.claim(
        top_ratio >= 1.3,
        format!("mux/huge {top_ratio:.3}x ded/4k at {top} clients"),
        "mux + huge pages beat dedicated QPs on 4 KiB pages by >= 1.3x at the top of the sweep",
    );
    report.claim(
        small_ratio >= 0.95,
        format!("mux/huge {small_ratio:.3}x ded/4k at {} clients", counts[0]),
        "mux + huge pages cost <= 5 % where the NIC caches never miss",
    );
}

//! Scan plane (YCSB-E) through the cluster, on the virtual clock.
//!
//! Two measurements:
//!
//! 1. **Cluster YCSB-E** — `Workload::workload_e` (95% scans, uniform
//!    length 1..=100, 5% inserts) through the full wire/server/client scan
//!    plane, reporting end-to-end virtual-time throughput and scan latency.
//! 2. **Fan-out** — the same workload on 1, 2, 4, 8 and 16 partitions:
//!    steps per scan and items fetched per item returned (acceptance
//!    ceilings 2.0 on 4 partitions, 3.0 on 16).
//!
//! Every row is deterministic, so `scripts/regen.sh` compares them. The
//! shard's ordered view, timed on the wall clock, is `perf_scan`'s.

use hydra_ycsb::{run_workload, DriverConfig, Workload};

use crate::{paper_cluster, paper_cluster_config, run_hydra, Report, Scale};

pub(crate) fn run(scale: Scale, report: &mut Report) {
    let records = scale.records();
    let r = run_hydra(paper_cluster_config(), 50, &Workload::workload_e(records, scale.ops(), 27));
    report.line(&format!(
        "# ycsb-e (hybrid cluster): {:.3} Mops | {} scans | scan mean {:.2}us p99 {:.2}us",
        r.mops, r.scans, r.scan_mean_us, r.scan_p99_us
    ));
    report.datum(
        "ycsb_e_hybrid",
        serde_json::json!({
            "mops": r.mops,
            "scans": r.scans,
            "scan_mean_us": r.scan_mean_us,
            "scan_p99_us": r.scan_p99_us,
            "errors": r.errors,
        }),
    );

    // --- what the client's fan-out costs over its result ---
    // The same workload on 1 to 16 partitions: steps per scan, and items the
    // partitions shipped per item the merged answers kept. Asking every
    // partition for the whole limit made the second column the partition
    // count; a quota per partition keeps it near 2.
    report.line("# fan-out (ycsb-e): partitions  steps_per_scan  fetched_per_returned");
    let mut fanout = Vec::new();
    for (server_nodes, shards_per_node) in [(1, 1), (1, 2), (1, 4), (2, 4), (4, 4)] {
        let cfg = hydra_db::ClusterConfig {
            server_nodes,
            shards_per_node,
            ..paper_cluster_config()
        };
        let (mut cluster, clients) = paper_cluster(cfg, 50);
        let wl = Workload::workload_e(records.min(100_000), scale.ops() / 6, 27);
        let r = run_workload(&mut cluster.sim, &clients, &wl, &DriverConfig::default());
        assert_eq!(r.errors, 0);
        let stats: Vec<_> = clients.iter().map(|c| c.stats()).collect();
        let sum = |f: fn(&hydra_db::ClientStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
        let steps_per_scan = sum(|s| s.scan_steps) / sum(|s| s.scans);
        let fetched_per_returned = sum(|s| s.scan_items_fetched) / sum(|s| s.scan_items_returned);
        let partitions = server_nodes * shards_per_node;
        report.line(&format!(
            "{:<22} {partitions:>7} {steps_per_scan:>15.3} {fetched_per_returned:>21.2}",
            "fanout"
        ));
        fanout.push(serde_json::json!({
            "partitions": partitions,
            "steps_per_scan": steps_per_scan,
            "fetched_per_returned": fetched_per_returned,
        }));
        let ceiling = match partitions {
            4 => 2.0,
            16 => 3.0,
            _ => f64::INFINITY,
        };
        report.claim(
            fetched_per_returned <= ceiling,
            format!("{partitions} partitions: fetched {fetched_per_returned:.2}x returned"),
            &format!("a scan on {partitions} partitions fetches <= {ceiling}x what it returns"),
        );
    }
    report.datum("fanout", fanout);
}

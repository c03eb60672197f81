//! Figure 9 — peak throughput and average GET/UPDATE latency of HydraDB
//! against Memcached-, Redis- and RAMCloud-like stores across the six YCSB
//! workloads (replication disabled for fairness, §6.1).

use std::collections::HashMap;

use hydra_baselines::BaselineConfig;

use crate::{paper_cluster_config, paper_workloads, run_baseline, run_hydra, Report, ReportRow};
use crate::Scale;

pub fn run(scale: Scale, report: &mut Report) {
    let clients = 50;
    report.header("workload<16|system<14|Mops>10.3|get_us>12.2|update_us>12.2");
    let mut hydra_mops = HashMap::new();
    for (name, wl) in paper_workloads(scale, 9) {
        let hydra = run_hydra(paper_cluster_config(), clients, &wl);
        let memcached = run_baseline(BaselineConfig::memcached(), clients, &wl);
        let redis = run_baseline(BaselineConfig::redis(), clients, &wl);
        let ramcloud = run_baseline(BaselineConfig::ramcloud(), clients, &wl);
        for (sys, r) in [
            ("HydraDB", &hydra),
            ("Memcached-like", &memcached),
            ("Redis-like", &redis),
            ("RAMCloud-like", &ramcloud),
        ] {
            report.row(&[&name, &sys, &r.mops, &r.get_mean_us, &r.update_mean_us]);
            report.datum(&format!("{name}/{sys}"), ReportRow(r));
        }
        let worst = memcached.mops.min(redis.mops).min(ramcloud.mops);
        let best = memcached.mops.max(redis.mops).max(ramcloud.mops);
        report.line(&format!(
            "{:<16} -> HydraDB is {:.1}x the best baseline, {:.1}x the worst",
            "",
            hydra.mops / best,
            hydra.mops / worst
        ));
        report.claim(
            hydra.mops >= 9.0 * worst,
            format!("{name}: HydraDB {:.1}x the worst baseline", hydra.mops / worst),
            "an order of magnitude higher throughput than Memcached, Redis and RAMCloud",
        );
        report.claim(
            ramcloud.mops > memcached.mops.max(redis.mops),
            format!(
                "{name}: RAMCloud-like {:.3} Mops, Memcached-like {:.3}, Redis-like {:.3}",
                ramcloud.mops, memcached.mops, redis.mops
            ),
            "RAMCloud's native verbs beat the IPoIB socket stores (RAMCloud > Redis ≈ Memcached)",
        );
        hydra_mops.insert(name, hydra.mops);
    }
    for dist in ["zipf", "uniform"] {
        let [half, most, all] =
            ["50g-50u", "90g-10u", "100g"].map(|mix| hydra_mops[&format!("{mix}-{dist}")]);
        report.claim(
            half < most && most < all,
            format!("{dist}: HydraDB {half:.3} / {most:.3} / {all:.3} Mops at 50 / 90 / 100 % GET"),
            "throughput grows +246.3 % (Zipf) / +182.8 % (Uniform) from 50 % to 100 % GET",
        );
    }
    let (zipf, uniform) = (hydra_mops["100g-zipf"], hydra_mops["100g-uniform"]);
    report.claim(
        zipf > uniform,
        format!("100 % GET: Zipf {zipf:.3} vs Uniform {uniform:.3} Mops"),
        "better performance for skewed read-intensive workloads",
    );
}

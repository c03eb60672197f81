//! T-SLEEP ablation (§4.2.1) — the sustained-polling CPU question: after a
//! bounded number of empty polls the shard issues a 100 ns high-resolution
//! sleep. This keeps CPU burn negligible under light load at a bounded
//! latency cost (half a sleep quantum of expected detection delay).
//!
//! The simulator charges request *processing* to the shard core and models
//! detection delay explicitly, so this report combines a measured part
//! (processing utilization, latency with/without the backoff) with the
//! analytic identity that a no-backoff polling loop occupies its core 100%
//! of the time by construction.

use hydra_db::{costs, ClusterConfig};
use hydra_ycsb::{run_workload, DriverConfig};

use crate::{one_workload, paper_cluster, paper_cluster_config, Report, Scale};

pub fn run(scale: Scale, report: &mut Report) {
    report.header(
        "clients<10|Mops>12.3|lat_sleep_us>14.2|lat_spin_us>14.2|cpu_sleep>16|cpu_spin>16",
    );
    for clients in [1usize, 2, 4, 8, 16, 32, 50] {
        let mut results = Vec::new();
        for sleep in [Some(100u64), None] {
            let cfg = ClusterConfig {
                sleep_backoff_ns: sleep,
                ..paper_cluster_config()
            };
            let wl = hydra_ycsb::Workload {
                ops: (scale.ops() / 4).max(4_000),
                ..one_workload(scale, 0.9, true, 21)
            };
            let (mut cluster, cs) = paper_cluster(cfg, clients);
            let r = run_workload(&mut cluster.sim, &cs, &wl, &DriverConfig::default());
            // Processing utilization per shard core, derived from the
            // measured rate and the cost model (the simulator charges
            // exactly these costs to the core): rate/shard x mean op cost.
            let mean_cost = 0.9 * (costs::GET_NS + costs::POLL_NS) as f64
                + 0.1 * (costs::WRITE_NS + costs::POLL_NS + 2) as f64;
            let per_shard_rate = r.mops * 1e6 / cluster.cfg.total_shards() as f64;
            // RDMA-Read hits never touch the core.
            let served = r.msg_gets + r.invalid_hits; // server-handled gets
            let total_gets = served + r.rptr_hits;
            let offload = if total_gets == 0 {
                1.0
            } else {
                served as f64 / total_gets as f64
            };
            let proc_util = (per_shard_rate * mean_cost * 1e-9 * (0.1 + 0.9 * offload)).min(1.0);
            results.push((r, proc_util));
        }
        let (with_sleep, util_sleep) = &results[0];
        let (spin, _) = &results[1];
        let cpu_sleep = format!("{:.1}%", util_sleep * 100.0);
        let (lat_sleep, lat_spin) = (with_sleep.get_mean_us, spin.get_mean_us);
        report.row(&[&clients, &spin.mops, &lat_sleep, &lat_spin, &cpu_sleep, &"100% (spin)"]);
        report.datum(
            &format!("{clients}"),
            serde_json::json!({
                "mops": spin.mops,
                "lat_sleep_us": with_sleep.get_mean_us,
                "lat_spin_us": spin.get_mean_us,
                "cpu_processing_frac": util_sleep,
            }),
        );
    }
    report.line("# with backoff, CPU burn tracks offered load (negligible when idle); latency cost is <= sleep/2 per op");
}

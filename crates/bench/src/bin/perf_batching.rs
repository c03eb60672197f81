//! BENCH_batching — doorbell-batched verbs and batched request execution.
//!
//! Measures the end-to-end win of the batching/pipelining layer on the
//! paper's serving setup (1 server x 4 shards, 50 clients): clients run
//! read-only Zipfian GETs through the RDMA-Write message path, either
//! closed-loop (depth 1, every request its own frame, WQE and doorbell)
//! or pipelined (depth d, up to b requests per batch frame; the server
//! drains the frame in one quantum with interleaved index probing and one
//! response frame).
//!
//! Both arms charge the same measured WQE-build + doorbell MMIO cost
//! (`post_wqe_ns = 180`) so the comparison isolates batching, not a cost
//! model asymmetry: the default configuration keeps `post_wqe_ns = 0` and
//! is untouched by this study.
//!
//! The closed-loop arm is not batch-free: its depth-1 clients ship bare
//! requests, and a busy shard serves the bare requests it finds queued as
//! one sweep at the same batched marginal cost (DESIGN §7). So the ratio
//! compares client frames against server-side sweeps, and its floor is
//! 1.4× (1.64× before the shard swept; 1.46× at smoke and 1.47× at normal
//! scale with it). The frame arm never sweeps, and its own floor is its
//! rate before sweeps existed, per scale: batching must not lose throughput
//! to them.
//!
//! The AIMD congestion window (on by default) is disabled here: this is an
//! ablation of *fixed-depth* batching, and an adaptive controller would
//! fight the very knob the grid sweeps (at depth 64 it throttles the window
//! to cap client-observed latency, which is its job in production and
//! exactly wrong in a throughput ablation — `perf_mix` covers the adaptive
//! behaviour).

use hydra_bench::{one_workload, paper_cluster_config, Report, ReportRow, Scale};
use hydra_db::{AimdConfig, ClientMode, ClusterBuilder, ClusterConfig};
use hydra_ycsb::{run_workload, DriverConfig};

const CLIENTS: usize = 50;
const POST_WQE_NS: u64 = 180;

/// Depth-64 / batch-16 GET throughput (Mops) before the shard swept bare
/// requests, per scale (rounded down): a frame-only arm must not fall below it.
fn frame_arm_floor(scale: Scale) -> f64 {
    match scale {
        Scale::Smoke => 6.146,
        Scale::Normal => 8.342,
        Scale::Paper => 7.482,
    }
}

fn run_point(depth: usize, batch: usize, scale: Scale) -> (hydra_ycsb::WorkloadReport, f64) {
    let cfg = ClusterConfig {
        client_mode: ClientMode::RdmaWrite,
        pipeline_depth: depth,
        max_batch: batch,
        post_wqe_ns: POST_WQE_NS,
        aimd: AimdConfig { enabled: false },
        ..paper_cluster_config()
    };
    let wl = one_workload(scale, 1.0, true, 33);
    let nodes = cfg.client_nodes as usize;
    let mut cluster = ClusterBuilder::new(cfg).build();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|i| cluster.add_client(i % nodes))
        .collect();
    let dcfg = DriverConfig {
        window: depth,
        ..DriverConfig::default()
    };
    let db0 = cluster.fab.stats().doorbells;
    let r = run_workload(&mut cluster.sim, &clients, &wl, &dcfg);
    let doorbells = cluster.fab.stats().doorbells - db0;
    let per_op = doorbells as f64 / r.ops.max(1) as f64;
    (r, per_op)
}

fn main() {
    let scale = Scale::from_env();
    let mut report = Report::new(
        "BENCH_batching",
        "Doorbell batching + batched execution: GET throughput vs pipeline depth / batch size",
    );
    report.line(&format!(
        "{:<14} {:>10} {:>12} {:>12} {:>14}",
        "depth/batch", "Mops", "get_us", "p99_us", "doorbells/op"
    ));
    let grid = [(1usize, 1usize), (4, 4), (16, 16), (64, 16)];
    let mut baseline = 0.0;
    let (mut d64_b16, mut speedup_d64_b16) = (0.0, 0.0);
    for (depth, batch) in grid {
        let (r, per_op) = run_point(depth, batch, scale);
        if depth == 1 {
            baseline = r.mops;
        }
        if depth == 64 {
            d64_b16 = r.mops;
            speedup_d64_b16 = r.mops / baseline;
        }
        report.line(&format!(
            "{:<14} {:>10.3} {:>12.2} {:>12.2} {:>14.2}",
            format!("d{depth} b{batch}"),
            r.mops,
            r.get_mean_us,
            r.get_p99_us,
            per_op
        ));
        report.datum(&format!("d{depth}_b{batch}"), ReportRow::from(&r));
        report.datum(&format!("d{depth}_b{batch}_doorbells_per_op"), per_op);
    }
    let floor = frame_arm_floor(scale);
    report.line(&format!(
        "# speedup d64/b16 over closed-loop: {speedup_d64_b16:.2}x (acceptance floor 1.4x)"
    ));
    report.line(&format!(
        "# d64/b16: {d64_b16:.3} Mops (acceptance floor {floor:.3}, its rate before sweeps)"
    ));
    report.datum("speedup_d64_b16", speedup_d64_b16);
    report.save();
    assert!(
        speedup_d64_b16 >= 1.4,
        "batched pipeline must deliver >= 1.4x the GETs of swept bare requests ({speedup_d64_b16:.2}x)"
    );
    assert!(
        d64_b16 >= floor,
        "the frame arm fell below its rate before sweeps ({d64_b16:.3} < {floor:.3} Mops)"
    );
}

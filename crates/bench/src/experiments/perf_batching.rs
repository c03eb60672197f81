//! BENCH_batching — doorbell-batched verbs and batched request execution.
//!
//! Measures the end-to-end win of the batching/pipelining layer on the
//! paper's serving setup (1 server x 4 shards, 50 clients): clients run
//! read-only Zipfian GETs through the RDMA-Write message path, either
//! closed-loop (depth 1, every request its own frame, WQE and doorbell)
//! or pipelined (depth d, up to b requests per batch frame; the server
//! drains the frame in one quantum at the batched marginal cost and answers
//! in one response frame).
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

use hydra_db::{AimdConfig, ClientMode, ClusterConfig};
use hydra_ycsb::{run_workload, DriverConfig};

use crate::{one_workload, paper_cluster, paper_cluster_config, Report, ReportRow, Scale};

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
    let (mut cluster, clients) = paper_cluster(cfg, CLIENTS);
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

pub(crate) fn run(scale: Scale, report: &mut Report) {
    report.header("depth/batch<14|Mops>10.3|get_us>12.2|p99_us>12.2|doorbells/op>14.2");
    let mut mops = Vec::new();
    for (depth, batch) in [(1usize, 1usize), (4, 4), (16, 16), (64, 16)] {
        let (r, per_op) = run_point(depth, batch, scale);
        mops.push(r.mops);
        let arm = format!("d{depth} b{batch}");
        report.row(&[&arm, &r.mops, &r.get_mean_us, &r.get_p99_us, &per_op]);
        report.datum(&format!("d{depth}_b{batch}"), ReportRow(&r));
        report.datum(&format!("d{depth}_b{batch}_doorbells_per_op"), per_op);
    }
    let (d64_b16, floor) = (mops[3], frame_arm_floor(scale));
    let speedup_d64_b16 = d64_b16 / mops[0];
    report.line(&format!(
        "# speedup d64/b16 over closed-loop: {speedup_d64_b16:.2}x (acceptance floor 1.4x)"
    ));
    report.line(&format!(
        "# d64/b16: {d64_b16:.3} Mops (acceptance floor {floor:.3}, its rate before sweeps)"
    ));
    report.datum("speedup_d64_b16", speedup_d64_b16);
    report.claim(
        speedup_d64_b16 >= 1.4,
        format!("d64/b16 {speedup_d64_b16:.2}x the closed loop"),
        "a batched pipeline delivers >= 1.4x the GETs of swept bare requests",
    );
    report.claim(
        d64_b16 >= floor,
        format!("d64/b16 {d64_b16:.3} < {floor:.3} Mops"),
        "the frame arm keeps at least its rate before sweeps",
    );
}

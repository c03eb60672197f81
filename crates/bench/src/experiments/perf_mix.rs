//! Mixed read plane: tail-latency isolation of point GETs from range scans.
//!
//! Three cluster runs over the same paper topology, all with
//! message-path GETs (`ClientMode::RdmaWrite`) so every point op crosses the
//! shard core and actually contends with the scan plane:
//!
//! 1. **pure-point** — `workload_mix(ratio = 1.0)`: 100% point GETs under
//!    the dual-lane scheduler. The uncontended baseline p99.
//! 2. **mix / Fifo** — `workload_mix(ratio = 0.5)`: 50% GETs + 50% scans on
//!    the legacy FIFO run queue. Point ops queue behind whole scan
//!    dispatches, inflating the GET tail.
//! 3. **mix / DualLane** — the same mix under deficit-round-robin lanes with
//!    preemptible scan chunks.
//!
//! Claims (the study's floors):
//! * mixed point-GET p99 under DualLane stays within **2x** the pure-point
//!   p99 — scans no longer own the tail;
//! * DualLane scan throughput stays at **>= 0.9x** the FIFO run — isolation
//!   is not bought by starving the scan plane.

use hydra_db::{ClientMode, ClusterConfig, SchedulerKind};
use hydra_ycsb::{Workload, WorkloadReport};

use crate::{paper_cluster_config, run_hydra, Report, Scale};

fn run_arm(scheduler: SchedulerKind, wl: &Workload) -> WorkloadReport {
    let cfg = ClusterConfig {
        client_mode: ClientMode::RdmaWrite,
        scheduler,
        ..paper_cluster_config()
    };
    run_hydra(cfg, 50, wl)
}

/// Completed scans per second of virtual time.
fn scan_rate(r: &WorkloadReport) -> f64 {
    r.scans as f64 / (r.elapsed_ns as f64 / 1e9).max(1e-9)
}

pub fn run(scale: Scale, report: &mut Report) {
    let (records, ops) = (scale.records(), scale.ops());
    let seed = hydra_sim::seed_from_env(31);

    report.line(&format!(
        "# {records} records, {ops} ops per run; message-path GETs; scans <=100 items"
    ));

    let pure_wl = Workload::workload_mix(records, ops, seed, 1.0);
    let mix_wl = Workload::workload_mix(records, ops, seed, 0.5);

    let pure = run_arm(SchedulerKind::DualLane, &pure_wl);
    let fifo = run_arm(SchedulerKind::Fifo, &mix_wl);
    let dual = run_arm(SchedulerKind::DualLane, &mix_wl);

    report.header("run<18|mops>10.3|get_p99_us>12.2|scan_p99_us>12.2|scans_per_sec>14.0");
    for (name, r) in [
        ("pure-point", &pure),
        ("mix-fifo", &fifo),
        ("mix-dual", &dual),
    ] {
        report.row(&[&name, &r.mops, &r.get_p99_us, &r.scan_p99_us, &scan_rate(r)]);
        assert_eq!(r.errors, 0, "{name}: run must be error-free");
    }

    let p99_blowup_fifo = fifo.get_p99_us / pure.get_p99_us.max(1e-9);
    let p99_blowup_dual = dual.get_p99_us / pure.get_p99_us.max(1e-9);
    let scan_ratio = scan_rate(&dual) / scan_rate(&fifo).max(1e-9);

    report.line(&format!(
        "# point-GET p99 blowup vs pure-point: fifo {p99_blowup_fifo:.2}x, dual-lane {p99_blowup_dual:.2}x"
    ));
    report.line(&format!(
        "# dual-lane scan throughput holds {scan_ratio:.3}x of fifo"
    ));

    report.datum("pure_point_get_p99_us", pure.get_p99_us);
    report.datum("mix_fifo_get_p99_us", fifo.get_p99_us);
    report.datum("mix_dual_get_p99_us", dual.get_p99_us);
    report.datum("p99_blowup_fifo", p99_blowup_fifo);
    report.datum("p99_blowup_dual", p99_blowup_dual);
    report.datum("fifo_scans_per_s", scan_rate(&fifo));
    report.datum("dual_scans_per_s", scan_rate(&dual));
    report.datum("scan_throughput_ratio", scan_ratio);
    report.datum("mix_fifo_mops", fifo.mops);
    report.datum("mix_dual_mops", dual.mops);

    report.claim(
        p99_blowup_dual <= 2.0,
        format!(
            "DualLane mixed GET p99 {p99_blowup_dual:.2}x pure-point ({:.2} vs {:.2} us)",
            dual.get_p99_us, pure.get_p99_us
        ),
        "mixed point-GET p99 under DualLane stays within 2x of pure-point",
    );
    report.claim(
        scan_ratio >= 0.9,
        format!("DualLane scan throughput {scan_ratio:.3}x FIFO"),
        "DualLane scan throughput holds >= 0.9x of FIFO",
    );
}

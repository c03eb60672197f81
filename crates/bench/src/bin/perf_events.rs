//! Hot-path wall-clock benchmark for this PR's zero-allocation work.
//!
//! Two measurements, written to `results/BENCH_hotpath.json`:
//!
//! 1. **Event throughput** — the slab + timer-wheel scheduler
//!    ([`hydra_sim::Sim`]) against the seed's boxed-closure binary-heap
//!    scheduler (kept verbatim as [`hydra_sim::reference::Sim`]), on the
//!    same deterministic workloads. The acceptance bar for the PR is a
//!    ≥2× speedup on event churn.
//! 2. **Peak RSS** — `VmHWM` from `/proc/self/status`, recorded after the
//!    runs as a coarse memory footprint check.
//!
//! Whole-cluster serving rate is the benchmark's `host_kops` (`benchmark/`),
//! which times the traffic window alone.
//!
//! Both schedulers expose the same API, so each workload is written once
//! as a macro and instantiated per scheduler type.

use std::time::Instant;

use hydra_bench::{Report, Scale};

/// Self-perpetuating timer churn: `fanout` events each reschedule
/// themselves at a pseudorandom small delay until `total` events have
/// fired. This is the steady-state shape of the simulator under load —
/// every fire allocates (seed) or reuses a slab cell (new).
macro_rules! churn_events {
    ($sim_ty:ty, $fanout:expr, $total:expr) => {{
        use std::cell::Cell;
        use std::rc::Rc;
        let mut sim = <$sim_ty>::new(7);
        let fired = Rc::new(Cell::new(0u64));
        let total: u64 = $total;
        // Each of the `fanout` chains stops rearming once the whole run has
        // `fanout` events left, so exactly `total` fire overall.
        let stop: u64 = total - $fanout as u64;
        fn rearm(sim: &mut $sim_ty, fired: Rc<Cell<u64>>, stop: u64, state: u64) {
            let n = fired.get() + 1;
            fired.set(n);
            if n > stop {
                return;
            }
            // xorshift for the next delay: deterministic, allocation-free.
            let mut s = state ^ (state << 13);
            s ^= s >> 7;
            s ^= s << 17;
            let delay = 1 + s % 1_000;
            sim.schedule_in(delay, move |sim| rearm(sim, fired, stop, s));
        }
        for i in 0..$fanout {
            let f = fired.clone();
            let seed = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1);
            sim.schedule_in(1 + seed % 1_000, move |sim| rearm(sim, f, stop, seed));
        }
        let t = Instant::now();
        sim.run();
        (t.elapsed(), fired.get())
    }};
}

/// Cancel-heavy churn: every fired event schedules two successors and
/// cancels one of them, so half of all scheduled events are cancelled in
/// flight. Exercises the seed's `HashSet` bookkeeping against the new
/// scheduler's generational tombstones.
macro_rules! churn_cancels {
    ($sim_ty:ty, $fanout:expr, $total:expr) => {{
        use std::cell::Cell;
        use std::rc::Rc;
        let mut sim = <$sim_ty>::new(7);
        let fired = Rc::new(Cell::new(0u64));
        let total: u64 = $total;
        let stop: u64 = total - $fanout as u64;
        fn rearm(sim: &mut $sim_ty, fired: Rc<Cell<u64>>, stop: u64, state: u64) {
            let n = fired.get() + 1;
            fired.set(n);
            if n > stop {
                return;
            }
            let mut s = state ^ (state << 13);
            s ^= s >> 7;
            s ^= s << 17;
            let keep = fired.clone();
            sim.schedule_in(1 + s % 500, move |sim| rearm(sim, keep, stop, s));
            let doomed = sim.schedule_in(1 + (s >> 32) % 500, |_| {
                panic!("cancelled event fired");
            });
            sim.cancel(doomed);
        }
        for i in 0..$fanout {
            let f = fired.clone();
            let seed = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1);
            sim.schedule_in(1 + seed % 500, move |sim| rearm(sim, f, stop, seed));
        }
        let t = Instant::now();
        sim.run();
        (t.elapsed(), fired.get())
    }};
}

fn events_per_sec(elapsed: std::time::Duration, fired: u64) -> f64 {
    fired as f64 / elapsed.as_secs_f64()
}

/// `VmHWM` (peak resident set) in KiB from `/proc/self/status`, or 0 when
/// unavailable (non-Linux).
fn peak_rss_kib() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches(" kB").trim().parse().ok())
        .unwrap_or(0)
}

fn main() {
    let scale = Scale::from_env();
    let (fanout, total) = match scale {
        Scale::Smoke => (1_024u32, 200_000u64),
        Scale::Normal => (4_096, 2_000_000),
        Scale::Paper => (4_096, 10_000_000),
    };
    let mut report = Report::new(
        "BENCH_hotpath",
        "Hot-path benchmark: slab+wheel scheduler vs seed heap, peak RSS",
    );

    report.line(&format!(
        "{:<22} {:>14} {:>14} {:>8}",
        "workload", "slab+wheel", "seed heap", "speedup"
    ));
    for (name, run_wheel, run_heap) in [
        (
            "timer_churn",
            churn_events!(hydra_sim::Sim, fanout, total),
            churn_events!(hydra_sim::reference::Sim, fanout, total),
        ),
        (
            "cancel_churn",
            churn_cancels!(hydra_sim::Sim, fanout, total / 2),
            churn_cancels!(hydra_sim::reference::Sim, fanout, total / 2),
        ),
    ] {
        let (wheel_t, wheel_n) = run_wheel;
        let (heap_t, heap_n) = run_heap;
        assert_eq!(wheel_n, heap_n, "schedulers must fire the same event count");
        let wheel_eps = events_per_sec(wheel_t, wheel_n);
        let heap_eps = events_per_sec(heap_t, heap_n);
        let speedup = wheel_eps / heap_eps;
        report.line(&format!(
            "{:<22} {:>11.2} M/s {:>11.2} M/s {:>7.2}x",
            name,
            wheel_eps / 1e6,
            heap_eps / 1e6,
            speedup
        ));
        report.datum(&format!("{name}/events_per_sec_slab_wheel"), wheel_eps);
        report.datum(&format!("{name}/events_per_sec_seed_heap"), heap_eps);
        report.datum(&format!("{name}/speedup"), speedup);
        report.datum(&format!("{name}/events_fired"), wheel_n);
    }

    let rss = peak_rss_kib();
    report.line(&format!("peak RSS: {} KiB", rss));
    report.datum("peak_rss_kib", rss);
    report.datum("scale", format!("{scale:?}"));
    report.save();
}

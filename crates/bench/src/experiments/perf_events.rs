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

use crate::{Report, Scale};

/// Self-perpetuating timer churn: `fanout` events each reschedule
/// themselves at a pseudorandom delay in `1..=spread` until `total` events
/// have fired. This is the steady-state shape of the simulator under load —
/// every fire allocates (seed) or reuses a slab cell (new). With `cancel`,
/// every fired event also schedules a second successor and cancels it, so
/// half of all scheduled events are cancelled in flight: the seed's
/// `HashSet` bookkeeping against the new scheduler's generational
/// tombstones.
macro_rules! churn {
    ($sim_ty:ty, $fanout:expr, $total:expr, $spread:expr, $cancel:expr) => {{
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
            sim.schedule_in(1 + s % $spread, move |sim| rearm(sim, fired, stop, s));
            if $cancel {
                let doomed = sim.schedule_in(1 + (s >> 32) % $spread, |_| {
                    panic!("cancelled event fired");
                });
                sim.cancel(doomed);
            }
        }
        for i in 0..$fanout {
            let f = fired.clone();
            let seed = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(i as u64 + 1);
            sim.schedule_in(1 + seed % $spread, move |sim| rearm(sim, f, stop, seed));
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

pub fn run(scale: Scale, report: &mut Report) {
    let (fanout, total) = match scale {
        Scale::Smoke => (1_024u32, 200_000u64),
        Scale::Normal => (4_096, 2_000_000),
        Scale::Paper => (4_096, 10_000_000),
    };

    report.header("workload<22|slab+wheel>14|seed heap>14|speedup>8");
    for (name, (wheel_t, wheel_n), (heap_t, heap_n)) in [
        (
            "timer_churn",
            churn!(hydra_sim::Sim, fanout, total, 1_000, false),
            churn!(hydra_sim::reference::Sim, fanout, total, 1_000, false),
        ),
        (
            "cancel_churn",
            churn!(hydra_sim::Sim, fanout, total / 2, 500, true),
            churn!(hydra_sim::reference::Sim, fanout, total / 2, 500, true),
        ),
    ] {
        assert_eq!(wheel_n, heap_n, "schedulers must fire the same event count");
        let wheel_eps = events_per_sec(wheel_t, wheel_n);
        let heap_eps = events_per_sec(heap_t, heap_n);
        let speedup = wheel_eps / heap_eps;
        let [wheel, heap] = [wheel_eps, heap_eps].map(|eps| format!("{:.2} M/s", eps / 1e6));
        report.row(&[&name, &wheel, &heap, &format!("{speedup:.2}x")]);
        report.datum(&format!("{name}/events_per_sec_slab_wheel"), wheel_eps);
        report.datum(&format!("{name}/events_per_sec_seed_heap"), heap_eps);
        report.datum(&format!("{name}/speedup"), speedup);
        report.datum(&format!("{name}/events_fired"), wheel_n);
    }

    let rss = peak_rss_kib();
    report.line(&format!("peak RSS: {} KiB", rss));
    report.datum("peak_rss_kib", rss);
    report.datum("scale", format!("{scale:?}"));
}

//! Property tests for the simulation kernel: ordering, clock monotonicity,
//! resource conservation and histogram accuracy under arbitrary inputs.

use std::cell::RefCell;
use std::rc::Rc;

use hydra_sim::{FifoResource, Histogram, Sim};
use proptest::prelude::*;

/// Interprets one op script on a scheduler type. Both `hydra_sim::Sim` and
/// `hydra_sim::reference::Sim` expose the same API but distinct types, so
/// this is a macro rather than a generic fn. Each `(t, kind)` op either
/// schedules a logging event, schedules an event that schedules a child,
/// cancels an earlier id, schedules a million times further out, or
/// schedules at the absolute time `t` (at the clock, if that has passed);
/// the script runs in two phases separated by a `run_until` so cancels also
/// hit already-fired ids and inserts land near an advanced clock.
macro_rules! run_script {
    ($sim_ty:ty, $ops:expr) => {{
        let ops: &Vec<(u64, u8)> = $ops;
        let mut sim = <$sim_ty>::new(7);
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        let mut ids = Vec::new();
        let half = ops.len() / 2;
        for (i, &(t, kind)) in ops.iter().enumerate() {
            if i == half {
                sim.run_until(100_000);
            }
            let l = log.clone();
            match kind % 5 {
                // Plain event.
                0 => ids.push(sim.schedule_in(t, move |sim| l.borrow_mut().push((sim.now(), i)))),
                // Event whose handler schedules a child.
                1 => ids.push(sim.schedule_in(t, move |sim| {
                    l.borrow_mut().push((sim.now(), i));
                    let l2 = l.clone();
                    sim.schedule_in((i as u64 % 7) * 3, move |sim| {
                        l2.borrow_mut().push((sim.now(), i + 10_000));
                    });
                })),
                // Cancel an earlier (possibly already fired) id, then
                // schedule.
                2 => {
                    if !ids.is_empty() {
                        let target = ids[(i * 7) % ids.len()];
                        sim.cancel(target);
                    }
                    ids.push(sim.schedule_in(t, move |sim| l.borrow_mut().push((sim.now(), i))));
                }
                // Far future: t scaled up a million times, at most 2^62.
                3 => ids.push(
                    sim.schedule_in(t.saturating_mul(1_000_000).min(1 << 62), move |sim| {
                        l.borrow_mut().push((sim.now(), i))
                    }),
                ),
                // Absolute: `t` itself, wherever it falls against the clock.
                _ => {
                    let at = t.max(sim.now());
                    ids.push(sim.schedule_at(at, move |sim| l.borrow_mut().push((sim.now(), i))));
                }
            }
        }
        sim.run();
        assert!(sim.is_idle());
        Rc::try_unwrap(log).unwrap().into_inner()
    }};
}

/// Times for the scheduler equivalence: short delays, times straddling a
/// power of 2^6 (a level boundary), and anything up to 2^62.
fn wheel_time() -> impl Strategy<Value = u64> {
    prop_oneof![
        4 => 0u64..200_000,
        2 => (1u32..=10, 0u64..16).prop_map(|(level, d)| (1u64 << (6 * level)) + d - 8),
        1 => 0u64..1 << 62,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Events execute in (time, scheduling-order) and the clock never runs
    /// backwards.
    #[test]
    fn event_order_is_total_and_clock_monotone(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut sim = Sim::new(1);
        let log: Rc<RefCell<Vec<(u64, usize)>>> = Rc::new(RefCell::new(Vec::new()));
        for (i, &t) in times.iter().enumerate() {
            let l = log.clone();
            sim.schedule_at(t, move |sim| l.borrow_mut().push((sim.now(), i)));
        }
        sim.run();
        let log = log.borrow();
        prop_assert_eq!(log.len(), times.len());
        for w in log.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "clock ran backwards");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "tie broken out of scheduling order");
            }
        }
        for &(at, i) in log.iter() {
            prop_assert_eq!(at, times[i], "event fired at the wrong time");
        }
    }

    /// A FIFO resource conserves work: total busy time equals the sum of
    /// requested durations, and completions never overlap.
    #[test]
    fn fifo_resource_conserves_work(jobs in proptest::collection::vec((0u64..10_000, 1u64..500), 1..100)) {
        let mut r = FifoResource::new("prop");
        let mut sorted = jobs.clone();
        sorted.sort_by_key(|&(at, _)| at);
        let mut prev_end = 0u64;
        let mut total = 0u64;
        for &(at, dur) in &sorted {
            let start = r.free_at().max(at);
            let end = r.acquire(at, dur);
            prop_assert!(start >= at, "service before arrival");
            prop_assert!(start >= prev_end, "overlapping service");
            prop_assert_eq!(end - start, dur);
            prev_end = end;
            total += dur;
        }
        prop_assert_eq!(r.total_busy(), total);
        prop_assert!(r.utilization(prev_end) <= 1.0);
    }

    /// Histogram quantiles stay within the recorded min/max and are
    /// monotone in p; the mean is exact.
    #[test]
    fn histogram_quantiles_are_sane(samples in proptest::collection::vec(0u64..10_000_000, 1..500)) {
        let mut h = Histogram::new();
        let mut sum = 0u128;
        for &s in &samples {
            h.record(s);
            sum += s as u128;
        }
        let min = *samples.iter().min().unwrap();
        let max = *samples.iter().max().unwrap();
        prop_assert_eq!(h.min(), min);
        prop_assert_eq!(h.max(), max);
        let exact_mean = sum as f64 / samples.len() as f64;
        prop_assert!((h.mean() - exact_mean).abs() < 1e-6);
        let mut last = 0u64;
        for p in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let q = h.quantile(p);
            prop_assert!(q >= min && q <= max, "q({p})={q} outside [{min},{max}]");
            prop_assert!(q >= last, "quantiles not monotone");
            last = q;
        }
    }

    /// Quantile error is bounded by the sub-bucket resolution (~3.2%).
    #[test]
    fn histogram_median_error_is_bounded(shift in 5u32..24) {
        let mut h = Histogram::new();
        let n = 1u64 << shift;
        for v in 1..=n {
            h.record(v);
        }
        let got = h.quantile(0.5) as f64;
        let expect = (n / 2) as f64;
        prop_assert!((got - expect).abs() / expect < 0.04, "median {got} vs {expect}");
    }

    /// The slab + timer-wheel scheduler is observationally equivalent to the
    /// seed heap scheduler: any schedule/cancel interleaving — including
    /// handler-nested scheduling, mid-run `run_until`, times in every level
    /// of the wheel up to 2^62 ns, and times a few ns either side of a power
    /// of 2^6, where an event changes level — executes in the identical
    /// order.
    #[test]
    fn slab_wheel_matches_reference_heap(ops in proptest::collection::vec((wheel_time(), any::<u8>()), 1..120)) {
        let wheel = run_script!(hydra_sim::Sim, &ops);
        let heap = run_script!(hydra_sim::reference::Sim, &ops);
        prop_assert_eq!(wheel, heap);
    }

    /// Cancelled events never run, and cancelling is stable under arbitrary
    /// subsets.
    #[test]
    fn cancelled_events_never_fire(n in 1usize..100, cancel_mask in any::<u128>()) {
        let mut sim = Sim::new(2);
        let fired: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let mut ids = Vec::new();
        for i in 0..n {
            let f = fired.clone();
            ids.push(sim.schedule_at((i as u64 + 1) * 10, move |_| f.borrow_mut().push(i)));
        }
        let mut expected = Vec::new();
        for (i, id) in ids.into_iter().enumerate() {
            if cancel_mask & (1 << (i % 128)) != 0 {
                sim.cancel(id);
            } else {
                expected.push(i);
            }
        }
        sim.run();
        prop_assert_eq!(&*fired.borrow(), &expected);
    }
}

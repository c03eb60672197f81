//! The original heap-based scheduler, kept verbatim as a reference.
//!
//! This is the seed implementation that [`crate::scheduler::Sim`] replaced:
//! one `Box<dyn FnOnce>` per event, a `BinaryHeap` keyed on `(time, seq)`,
//! and a side `HashSet` for cancellation. It exists for two reasons:
//!
//! 1. **Equivalence testing.** The proptests in `tests/proptest_sim.rs` run
//!    random schedule/cancel interleavings against both schedulers and
//!    assert identical execution order — the slab + timer-wheel scheduler
//!    must be observationally indistinguishable from this one.
//! 2. **Benchmarking.** `hydra-bench run perf_events` measures both so the
//!    hot-path speedup in `results/BENCH_hotpath.json` is computed against
//!    the real before-state, not a synthetic baseline.
//!
//! Do not use it in simulation code; it allocates per event and leaks one
//! `HashSet` entry per cancel-after-fire.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Identifier of a scheduled event, usable for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

type EventFn = Box<dyn FnOnce(&mut Sim)>;

struct Entry {
    at: SimTime,
    seq: u64,
    cancelled: bool,
    f: Option<EventFn>,
}

// BinaryHeap is a max-heap; invert the ordering so the earliest (time, seq)
// pops first. Ties at the same virtual time resolve in scheduling order,
// which is what makes runs reproducible.
impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The seed scheduler: virtual clock plus a priority queue of boxed closures.
pub struct Sim {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Entry>,
    cancelled: std::collections::HashSet<u64>,
    executed: u64,
}

impl Sim {
    /// Creates an empty simulation. The seed is accepted for parity with
    /// the wheel scheduler's constructor; the reference draws no randomness.
    pub fn new(_seed: u64) -> Self {
        Sim {
            now: 0,
            seq: 0,
            queue: BinaryHeap::new(),
            cancelled: std::collections::HashSet::new(),
            executed: 0,
        }
    }

    /// Current virtual time in nanoseconds.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `f` to run at absolute virtual time `at`.
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Sim) + 'static) -> EventId {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={} now={}",
            at,
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry {
            at,
            seq,
            cancelled: false,
            f: Some(Box::new(f)),
        });
        EventId(seq)
    }

    /// Schedules `f` to run `delay` nanoseconds from now.
    pub fn schedule_in(&mut self, delay: SimTime, f: impl FnOnce(&mut Sim) + 'static) -> EventId {
        self.schedule_at(self.now + delay, f)
    }

    /// Cancels a previously scheduled event.
    pub fn cancel(&mut self, id: EventId) {
        self.cancelled.insert(id.0);
    }

    /// Runs events until the queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs events with `at <= deadline`, then advances the clock to
    /// `deadline` (if it is later than the last event executed).
    ///
    /// One deliberate fix over the seed version: cancelled entries at the
    /// queue head are dropped *before* the deadline check. The seed peeked
    /// the raw head, so a cancelled entry inside the deadline made `step()`
    /// fire the next live event even when it lay beyond the deadline,
    /// overshooting the clock. The wheel scheduler never overshoots, and the
    /// equivalence proptest holds both to the correct behaviour.
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            while let Some(e) = self.queue.peek() {
                if e.cancelled || self.cancelled.contains(&e.seq) {
                    let e = self.queue.pop().expect("peeked entry");
                    self.cancelled.remove(&e.seq);
                } else {
                    break;
                }
            }
            match self.queue.peek() {
                Some(e) if e.at <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        if self.now < deadline {
            self.now = deadline;
        }
    }

    /// Executes the next event, if any. Returns `false` when the queue is
    /// empty.
    pub(crate) fn step(&mut self) -> bool {
        loop {
            let Some(mut entry) = self.queue.pop() else {
                return false;
            };
            if entry.cancelled || self.cancelled.remove(&entry.seq) {
                continue;
            }
            debug_assert!(entry.at >= self.now, "time went backwards");
            self.now = entry.at;
            self.executed += 1;
            let f = entry.f.take().expect("event closure already taken");
            f(self);
            return true;
        }
    }

    /// Whether any events remain scheduled (cancelled-but-unpopped entries
    /// count, matching the seed's behaviour).
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.queue.len())
            .field("executed", &self.executed)
            .finish()
    }
}

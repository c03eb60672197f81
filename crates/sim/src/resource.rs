//! Timed serial resources.
//!
//! A [`FifoResource`] models anything that serves one request at a time —
//! a shard's CPU core, a NIC's DMA engine, an IPoIB soft-interrupt path.
//! Instead of emitting begin/end event pairs, callers *reserve* service time
//! and get back the completion timestamp; queueing delay falls out of the
//! `busy_until` bookkeeping, which keeps event counts (and therefore wall
//! time on the host) low.
//!
//! The treatment is exact for a work-conserving FIFO server only when
//! reservations are made in the order their jobs can start. The resource
//! keeps one `busy_until` watermark, not a timeline: a job booked for a
//! start in the future (a NIC leg reserved when its verb is posted, ahead of
//! the packet's arrival) pushes the watermark there, and a job booked later
//! that was ready earlier queues behind it instead of filling the idle gap
//! before it (`a_job_booked_ahead_delays_an_earlier_ready_one` pins this).

use crate::time::SimTime;

/// A serial FIFO server with utilization accounting.
#[derive(Debug, Clone)]
pub struct FifoResource {
    name: String,
    busy_until: SimTime,
    total_busy: SimTime,
    opened_at: SimTime,
    frozen_at: Option<SimTime>,
}

impl FifoResource {
    /// Creates an idle resource. `name` labels it in panic messages.
    pub fn new(name: impl Into<String>) -> Self {
        FifoResource {
            name: name.into(),
            busy_until: 0,
            total_busy: 0,
            opened_at: 0,
            frozen_at: None,
        }
    }

    /// Suspends the server at `now` (node crash / power loss). No new work
    /// may be reserved while frozen — callers must gate arrivals (the fabric
    /// fault layer drops traffic to crashed nodes before it reaches the NIC
    /// engines); an acquire on a frozen resource panics to surface gate
    /// leaks deterministically. Already-reserved work is paused and resumes
    /// after [`unfreeze`](Self::unfreeze).
    pub fn freeze(&mut self, now: SimTime) {
        if self.frozen_at.is_none() {
            self.frozen_at = Some(now);
        }
    }

    /// Resumes a frozen server at `now`. Work that was queued when the
    /// freeze hit is shifted by the pause duration, as if the server had
    /// been powered off mid-job; an idle server stays idle.
    pub fn unfreeze(&mut self, now: SimTime) {
        if let Some(t0) = self.frozen_at.take() {
            let pause = now.saturating_sub(t0);
            if self.busy_until > t0 {
                self.busy_until += pause;
            }
        }
    }

    /// Reserves `dur` nanoseconds of service starting no earlier than `now`,
    /// queued behind any previously reserved work. Returns the completion
    /// time.
    pub fn acquire(&mut self, now: SimTime, dur: SimTime) -> SimTime {
        assert!(self.frozen_at.is_none(), "acquire on frozen {}", self.name);
        let start = self.busy_until.max(now);
        self.busy_until = start + dur;
        self.total_busy += dur;
        self.busy_until
    }

    /// Cancels the *unstarted tail* of the most recent reservation: service
    /// that was reserved past `from` is handed back, so the resource frees at
    /// `from` instead of its previous `free_at()`. The caller guarantees
    /// `from` is inside (or at the end of) the last reservation — this is the
    /// preemption primitive for interruptible work: reserve the full job,
    /// and if a higher-priority arrival needs the server, truncate the tail
    /// at a safe boundary and re-reserve the remainder later.
    ///
    /// Returns the number of nanoseconds released. Preempting at or after
    /// `free_at()` is a no-op (the job already finished on schedule).
    pub fn preempt_tail(&mut self, from: SimTime) -> SimTime {
        assert!(
            self.frozen_at.is_none(),
            "preempt_tail on frozen {}",
            self.name
        );
        let released = self.busy_until.saturating_sub(from);
        // `total_busy` may have been reset mid-reservation (warm-up window);
        // saturate rather than underflow.
        self.total_busy = self.total_busy.saturating_sub(released);
        self.busy_until = self.busy_until.min(from);
        released
    }

    /// The earliest time a new reservation could begin service.
    pub fn free_at(&self) -> SimTime {
        self.busy_until
    }

    /// Whether the resource would be idle at time `now`.
    pub fn idle_at(&self, now: SimTime) -> bool {
        self.busy_until <= now
    }

    /// Total busy nanoseconds reserved since creation (or the last
    /// [`reset_window`](Self::reset_window)).
    pub fn total_busy(&self) -> SimTime {
        self.total_busy
    }

    /// Utilization over `[window_start, now]`: busy time divided by elapsed
    /// time, clamped to 1.0. Uses the accounting window opened at creation or
    /// the last `reset_window` call.
    pub fn utilization(&self, now: SimTime) -> f64 {
        let span = now.saturating_sub(self.opened_at);
        if span == 0 {
            return 0.0;
        }
        (self.total_busy as f64 / span as f64).min(1.0)
    }

    /// Restarts utilization accounting at `now` (e.g. after warm-up).
    pub fn reset_window(&mut self, now: SimTime) {
        self.opened_at = now;
        self.total_busy = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = FifoResource::new("cpu0");
        assert_eq!(r.acquire(100, 10), 110);
        assert_eq!(r.free_at(), 110);
    }

    #[test]
    fn busy_resource_queues() {
        let mut r = FifoResource::new("cpu0");
        assert_eq!(r.acquire(0, 100), 100);
        // Arrives at t=10 but must wait until 100.
        let start = r.free_at().max(10);
        let end = r.acquire(10, 50);
        assert_eq!(start, 100);
        assert_eq!(end, 150);
    }

    #[test]
    fn gaps_do_not_accumulate_busy_time() {
        let mut r = FifoResource::new("nic");
        r.acquire(0, 10);
        r.acquire(1_000, 10);
        assert_eq!(r.total_busy(), 20);
        assert!((r.utilization(1_010) - 20.0 / 1_010.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_clamps_and_handles_empty_window() {
        let mut r = FifoResource::new("x");
        assert_eq!(r.utilization(0), 0.0);
        r.acquire(0, 100);
        assert_eq!(r.utilization(50), 1.0);
    }

    #[test]
    fn reset_window_restarts_accounting() {
        let mut r = FifoResource::new("x");
        r.acquire(0, 100);
        r.reset_window(1_000);
        assert_eq!(r.total_busy(), 0);
        r.acquire(1_000, 50);
        assert!((r.utilization(1_100) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn freeze_pauses_queued_work() {
        let mut r = FifoResource::new("nic");
        r.acquire(0, 100);
        r.freeze(40);
        // Crash lasted 60ns; the remaining 60ns of service resumes at 100.
        r.unfreeze(100);
        assert_eq!(r.free_at(), 160);
        assert_eq!(r.acquire(100, 10), 170);
    }

    #[test]
    fn freeze_of_idle_resource_leaves_it_idle() {
        let mut r = FifoResource::new("nic");
        r.acquire(0, 10);
        r.freeze(50);
        r.freeze(60); // idempotent: the first freeze wins
        r.unfreeze(500);
        assert_eq!(r.free_at(), 10);
        assert_eq!(r.acquire(500, 5), 505);
        // Unfreeze without a matching freeze is a no-op.
        r.unfreeze(600);
        assert_eq!(r.free_at(), 505);
    }

    #[test]
    #[should_panic(expected = "acquire on frozen")]
    fn acquire_while_frozen_panics() {
        let mut r = FifoResource::new("nic");
        r.freeze(0);
        r.acquire(10, 5);
    }

    #[test]
    fn preempt_tail_releases_unstarted_service() {
        let mut r = FifoResource::new("cpu");
        // A 10µs scan reserved at t=0; a point op arrives at t=3_100 and the
        // scan yields at its 4µs chunk boundary.
        assert_eq!(r.acquire(0, 10_000), 10_000);
        assert_eq!(r.preempt_tail(4_000), 6_000);
        assert_eq!(r.free_at(), 4_000);
        assert_eq!(r.total_busy(), 4_000);
        // The freed tail is immediately reservable; the remainder re-queues
        // behind it like any other job.
        assert_eq!(r.acquire(3_100, 500), 4_500);
        assert_eq!(r.acquire(4_500, 6_000), 10_500);
        assert_eq!(r.total_busy(), 10_500);
    }

    #[test]
    fn preempt_tail_at_or_past_completion_is_noop() {
        let mut r = FifoResource::new("cpu");
        r.acquire(0, 100);
        assert_eq!(r.preempt_tail(100), 0);
        assert_eq!(r.preempt_tail(250), 0);
        assert_eq!(r.free_at(), 100);
        assert_eq!(r.total_busy(), 100);
    }

    #[test]
    fn preempt_tail_survives_window_reset() {
        let mut r = FifoResource::new("cpu");
        r.acquire(0, 10_000);
        r.reset_window(2_000); // warm-up cut mid-reservation
        assert_eq!(r.preempt_tail(4_000), 6_000);
        assert_eq!(r.total_busy(), 0); // saturates, never underflows
        assert_eq!(r.free_at(), 4_000);
    }

    #[test]
    #[should_panic(expected = "preempt_tail on frozen")]
    fn preempt_tail_while_frozen_panics() {
        let mut r = FifoResource::new("cpu");
        r.acquire(0, 100);
        r.freeze(10);
        r.preempt_tail(50);
    }

    /// How the resource behaves today when reservations are not made in
    /// start-time order: the server is idle over [0, 1 000), yet a job ready
    /// at 10 waits until 1 100 because a job starting at 1 000 was booked
    /// first. A gap-filling (timeline) server would finish it at 60.
    #[test]
    fn a_job_booked_ahead_delays_an_earlier_ready_one() {
        let mut r = FifoResource::new("nic.rx");
        assert_eq!(r.acquire(1_000, 100), 1_100);
        let start = r.free_at().max(10);
        let end = r.acquire(10, 50);
        assert_eq!((start, end), (1_100, 1_150));
        // The busy time is right; only the order is not.
        assert_eq!(r.total_busy(), 150);
    }

    #[test]
    fn back_to_back_jobs_saturate() {
        let mut r = FifoResource::new("x");
        let mut t = 0;
        for _ in 0..1000 {
            t = r.acquire(0, 7);
        }
        assert_eq!(t, 7_000);
        assert_eq!(r.utilization(7_000), 1.0);
    }
}

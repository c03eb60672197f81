//! The event scheduler: a virtual clock driving a slab-backed event arena
//! and a hierarchical timer wheel.
//!
//! Hot-path design (see DESIGN.md "Hot-path performance"):
//!
//! * **Event arena.** Every scheduled closure lives in a slab cell with a
//!   64-byte inline payload; closures that fit (all of the simulator's own
//!   completion/timer closures do) are stored without heap allocation, larger
//!   ones fall back to one boxed allocation. Freed cells go on a free list,
//!   so steady-state scheduling allocates nothing.
//! * **Generational `EventId`s.** An id is `(cell index, generation)`; the
//!   generation bumps on every free, so an id is live exactly while its
//!   generation matches its cell's, and a stale cancel is a cheap no-op.
//! * **Cancellation frees at once.** `cancel` drops the closure and frees
//!   the cell, which the next `schedule_at` reuses: the arena holds live
//!   events only. The wheel keeps the cancelled id and skips it when it next
//!   touches its slot, as it skips any id whose generation has moved on.
//! * **Hierarchical timer wheel.** Eleven levels of 64 slots; level `L`
//!   slots are `2^(6L)` ns wide, and the top level, whose slots are `2^60`
//!   ns wide, uses 16 of them: the levels cover all 64 bits of virtual
//!   time, so every event, however far ahead, has a slot and the wheel is
//!   the one event queue.
//!
//! Determinism contract (load-bearing for every experiment): events execute
//! in `(time, scheduling-order)` — exactly the order the old
//! `BinaryHeap<(time, seq)>` produced. The wheel preserves it structurally:
//! a level-0 slot is a single timestamp; slots only receive cascaded events
//! while empty (a cascade fires only when all lower levels are empty); and a
//! direct insert always carries the globally latest sequence number. So
//! every slot vector stays sequence-sorted without ever sorting.

use std::mem::MaybeUninit;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::time::SimTime;

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS;
/// Enough levels for the highest bit of a `u64` time: level 10 holds bits
/// 60..64.
const LEVELS: usize = 64_usize.div_ceil(SLOT_BITS as usize);

/// Inline closure storage per arena cell. 64 bytes covers the workspace's
/// fattest hot-path closures (fabric completions capture an `Arc`, a `Vec`
/// and a boxed callback — about five words).
const INLINE_WORDS: usize = 8;

type Payload = MaybeUninit<[usize; INLINE_WORDS]>;
/// Moves the closure out of `*payload` and calls it. `payload` must hold a
/// valid closure of the type this fn was monomorphized for; the payload is
/// logically uninitialized afterwards.
type CallFn = unsafe fn(*mut Payload, &mut Sim);
/// Drops the closure in `*payload` without calling it (same contract).
type DropFn = unsafe fn(*mut Payload);

unsafe fn call_inline<F: FnOnce(&mut Sim)>(payload: *mut Payload, sim: &mut Sim) {
    ((*payload).as_mut_ptr() as *mut F).read()(sim)
}

unsafe fn drop_inline<F: FnOnce(&mut Sim)>(payload: *mut Payload) {
    drop(((*payload).as_mut_ptr() as *mut F).read())
}

unsafe fn call_boxed<F: FnOnce(&mut Sim)>(payload: *mut Payload, sim: &mut Sim) {
    ((*payload).as_mut_ptr() as *mut Box<F>).read()(sim)
}

unsafe fn drop_boxed<F: FnOnce(&mut Sim)>(payload: *mut Payload) {
    drop(((*payload).as_mut_ptr() as *mut Box<F>).read())
}

/// Identifier of a scheduled event, usable for cancellation.
///
/// Packs `(generation << 32) | arena cell index`; a generation mismatch means
/// the event already fired or was cancelled and its cell was freed, so the
/// cancel is a no-op and the wheel skips the id. (A 32-bit generation would
/// need four billion reuses of one cell while a stale id is still held, in
/// the caller's hands or the wheel's, to alias — not a practical concern for
/// simulation runs.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(u64);

impl EventId {
    fn new(index: u32, gen: u32) -> EventId {
        EventId(((gen as u64) << 32) | index as u64)
    }

    fn index(self) -> u32 {
        self.0 as u32
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// One arena cell. It holds a pending event's closure iff its generation
/// matches that event's id; a free cell's generation matches no id issued.
struct Cell {
    gen: u32,
    next_free: u32,
    at: SimTime,
    call: CallFn,
    drop_fn: DropFn,
    payload: Payload,
}

const NO_FREE: u32 = u32::MAX;

/// The simulation world: virtual clock, event queue and the run's RNG.
///
/// Event handlers receive `&mut Sim` and may schedule further events. Shared
/// mutable actor state lives in `Rc<RefCell<..>>` (the simulation is
/// single-threaded) or in the `Arc`-and-atomics data-plane structures that the
/// rest of the workspace provides.
pub struct Sim {
    now: SimTime,
    /// Wheel reference time. Invariants: `cursor <= at` for every pending
    /// event, and all level/slot assignments are relative to it. Trails
    /// `now` after `run_until` advances the clock past the last event.
    cursor: SimTime,
    /// Event arena; payloads hold the closures inline.
    slab: Vec<Cell>,
    free_head: u32,
    /// `wheel[l * SLOTS + s]`: event ids, always sequence-sorted. An id
    /// whose generation no longer matches its cell's was cancelled.
    wheel: Vec<Vec<EventId>>,
    /// Per-level slot-occupancy bitmaps.
    occupancy: [u64; LEVELS],
    /// The level-0 slot currently being fired, swapped out wholesale so
    /// handlers can schedule back into that same slot.
    ready: Vec<EventId>,
    ready_pos: usize,
    ready_at: SimTime,
    /// Events scheduled and not yet fired or cancelled: the cells in use.
    live: usize,
    rng: SmallRng,
    executed: u64,
}

impl Sim {
    /// Creates a simulation whose RNG is seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        Sim {
            now: 0,
            cursor: 0,
            slab: Vec::new(),
            free_head: NO_FREE,
            wheel: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occupancy: [0; LEVELS],
            ready: Vec::new(),
            ready_pos: 0,
            ready_at: 0,
            live: 0,
            rng: SmallRng::seed_from_u64(seed),
            executed: 0,
        }
    }

    /// Current virtual time in nanoseconds.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events executed so far.
    pub fn executed_events(&self) -> u64 {
        self.executed
    }

    /// Number of events scheduled and not yet fired or cancelled.
    pub fn pending_events(&self) -> usize {
        self.live
    }

    /// Arena capacity in cells: the peak number of simultaneously pending
    /// events, since firing and cancelling both free a cell for the next
    /// schedule. Scheduling or cancellation traffic does not grow it.
    pub fn arena_cells(&self) -> usize {
        self.slab.len()
    }

    /// The run's deterministic RNG.
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Schedules `f` to run at absolute virtual time `at`.
    ///
    /// Scheduling in the past is a logic error and panics: silently clamping
    /// would hide causality bugs in protocol code.
    pub fn schedule_at<F: FnOnce(&mut Sim) + 'static>(&mut self, at: SimTime, f: F) -> EventId {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={} now={}",
            at,
            self.now
        );
        let index = self.alloc_cell();
        let cell = &mut self.slab[index as usize];
        cell.at = at;
        if std::mem::size_of::<F>() <= INLINE_WORDS * std::mem::size_of::<usize>()
            && std::mem::align_of::<F>() <= std::mem::align_of::<usize>()
        {
            unsafe { (cell.payload.as_mut_ptr() as *mut F).write(f) };
            cell.call = call_inline::<F>;
            cell.drop_fn = drop_inline::<F>;
        } else {
            unsafe { (cell.payload.as_mut_ptr() as *mut Box<F>).write(Box::new(f)) };
            cell.call = call_boxed::<F>;
            cell.drop_fn = drop_boxed::<F>;
        }
        let id = EventId::new(index, cell.gen);
        self.live += 1;
        self.insert(id, at);
        id
    }

    /// Schedules `f` to run `delay` nanoseconds from now.
    pub fn schedule_in<F: FnOnce(&mut Sim) + 'static>(&mut self, delay: SimTime, f: F) -> EventId {
        self.schedule_at(self.now + delay, f)
    }

    /// Cancels a previously scheduled event. Cancelling an event that already
    /// ran (or was already cancelled) is a no-op: the generation check makes
    /// stale ids inert, and nothing is retained per cancel.
    pub fn cancel(&mut self, id: EventId) {
        if !self.is_live(id) {
            return;
        }
        // Drop the closure and free the cell now; the id left in the wheel
        // is stale from here on and is skipped where it is found.
        let cell = &mut self.slab[id.index() as usize];
        unsafe { (cell.drop_fn)(&mut cell.payload) };
        self.free_cell(id.index());
        self.live -= 1;
    }

    /// Runs events until the queue is empty.
    pub fn run(&mut self) {
        while self.step() {}
    }

    /// Runs events with `at <= deadline`, then advances the clock to
    /// `deadline` (if it is later than the last event executed).
    pub fn run_until(&mut self, deadline: SimTime) {
        loop {
            match self.peek_next_at() {
                Some(at) if at <= deadline => {
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
    pub fn step(&mut self) -> bool {
        loop {
            if !self.advance_to_ready() {
                return false;
            }
            let id = self.ready[self.ready_pos];
            self.ready_pos += 1;
            let cell = &mut self.slab[id.index() as usize];
            if cell.gen != id.generation() {
                continue; // cancelled
            }
            let at = cell.at;
            debug_assert!(at >= self.now, "time went backwards");
            debug_assert_eq!(at, self.ready_at, "ready batch time skewed");
            let call = cell.call;
            // Move the closure's bytes to the stack and free the cell
            // *before* invoking it: the handler may schedule into (and thus
            // reuse) this very cell, so the arena copy must already be dead.
            let mut payload: Payload = MaybeUninit::uninit();
            unsafe {
                std::ptr::copy_nonoverlapping(&cell.payload, &mut payload, 1);
            }
            self.free_cell(id.index());
            self.live -= 1;
            self.now = at;
            self.cursor = at;
            self.executed += 1;
            unsafe { call(&mut payload, self) };
            return true;
        }
    }

    /// Whether any events remain scheduled.
    pub fn is_idle(&self) -> bool {
        self.live == 0
    }

    // ---- arena ----------------------------------------------------------

    /// Whether `id`'s event is still pending: its cell has not been freed
    /// since the id was issued.
    fn is_live(&self, id: EventId) -> bool {
        self.slab
            .get(id.index() as usize)
            .is_some_and(|cell| cell.gen == id.generation())
    }

    fn alloc_cell(&mut self) -> u32 {
        if self.free_head != NO_FREE {
            let index = self.free_head;
            self.free_head = self.slab[index as usize].next_free;
            return index;
        }
        let index = u32::try_from(self.slab.len()).expect("event arena exceeds u32 indices");
        self.slab.push(Cell {
            gen: 0,
            next_free: NO_FREE,
            at: 0,
            call: call_inline::<fn(&mut Sim)>,
            drop_fn: drop_inline::<fn(&mut Sim)>,
            payload: MaybeUninit::uninit(),
        });
        index
    }

    fn free_cell(&mut self, index: u32) {
        let cell = &mut self.slab[index as usize];
        cell.gen = cell.gen.wrapping_add(1);
        cell.next_free = self.free_head;
        self.free_head = index;
    }

    // ---- wheel ----------------------------------------------------------

    /// Level for an event at `at` relative to the cursor: level `L` iff the
    /// highest bit where `at` and `cursor` differ lies in `[6L, 6L+6)`
    /// (level 0 when they are equal).
    #[inline]
    fn level_of(&self, at: SimTime) -> usize {
        let msb = 63 - ((at ^ self.cursor) | 1).leading_zeros();
        (msb / SLOT_BITS) as usize
    }

    fn insert(&mut self, id: EventId, at: SimTime) {
        debug_assert!(at >= self.cursor);
        let level = self.level_of(at);
        let slot = ((at >> (SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.wheel[level * SLOTS + slot].push(id);
        self.occupancy[level] |= 1 << slot;
    }

    /// Ensures `ready[ready_pos..]` holds the next due batch (all events at
    /// one timestamp, sequence-ordered). Returns `false` when nothing is
    /// pending. Commits cursor advances and cascades.
    fn advance_to_ready(&mut self) -> bool {
        loop {
            if self.ready_pos < self.ready.len() {
                return true;
            }
            self.ready.clear();
            self.ready_pos = 0;
            let Some(level) = self.occupancy.iter().position(|&b| b != 0) else {
                // Queue truly empty (trailing cancelled ids all skipped).
                // Re-anchor the wheel at the clock: cascading past them
                // may have carried the cursor beyond `now`, and
                // the next insert must see `cursor <= at`.
                self.cursor = self.now;
                return false;
            };
            let slot = self.occupancy[level].trailing_zeros() as usize;
            self.occupancy[level] &= !(1 << slot);
            if level == 0 {
                // A level-0 slot is one exact timestamp: swap it out as the
                // ready batch. (Swapping keeps both vectors' capacity alive,
                // so steady state allocates nothing.)
                std::mem::swap(&mut self.ready, &mut self.wheel[slot]);
                self.ready_at = (self.cursor & !(SLOTS as u64 - 1)) | slot as u64;
            } else {
                // Cascade the slot downwards. Only reached when all lower
                // levels are empty, which is what keeps slot vectors
                // sequence-sorted: cascaded events land in empty slots, and
                // later direct inserts always have higher sequence numbers.
                let width = SLOT_BITS * level as u32;
                // The bits above this level's span; none above the top one.
                let above = u64::MAX.checked_shl(width + SLOT_BITS).unwrap_or(0);
                let slot_start = (self.cursor & above) | ((slot as u64) << width);
                // `run_until` can leave the cursor inside this slot's span;
                // never move it backwards.
                self.cursor = self.cursor.max(slot_start);
                let mut buf = std::mem::take(&mut self.wheel[level * SLOTS + slot]);
                for &id in &buf {
                    let cell = &self.slab[id.index() as usize];
                    if cell.gen == id.generation() {
                        let at = cell.at;
                        debug_assert!(self.level_of(at) < level);
                        self.insert(id, at);
                    }
                }
                buf.clear();
                // Return the buffer (and its capacity) to the slot it came
                // from: cascades re-insert strictly below `level`, so the
                // slot is still empty.
                self.wheel[level * SLOTS + slot] = buf;
            }
        }
    }

    /// Time of the next live event, without committing cursor movement
    /// (cascades). The only mutation is dropping cancelled ids, which is
    /// unobservable. Used by `run_until` to decide whether to fire.
    fn peek_next_at(&mut self) -> Option<SimTime> {
        // Ready batch first.
        while self.ready_pos < self.ready.len() {
            if self.is_live(self.ready[self.ready_pos]) {
                return Some(self.ready_at);
            }
            self.ready_pos += 1;
        }
        // The earliest pending event lives in the lowest occupied slot of
        // the lowest non-empty level (levels are strictly time-ordered).
        for level in 0..LEVELS {
            while self.occupancy[level] != 0 {
                let slot = self.occupancy[level].trailing_zeros() as usize;
                let slot_idx = level * SLOTS + slot;
                let mut vec = std::mem::take(&mut self.wheel[slot_idx]);
                vec.retain(|&id| self.is_live(id));
                let earliest = vec
                    .iter()
                    .map(|&id| self.slab[id.index() as usize].at)
                    .min();
                self.wheel[slot_idx] = vec;
                match earliest {
                    None => self.occupancy[level] &= !(1 << slot),
                    Some(at) => return Some(at),
                }
            }
        }
        None
    }
}

impl Drop for Sim {
    fn drop(&mut self) {
        // Pending closures own resources (Rc's, callbacks); drop them. Every
        // pending event has its one live id in the wheel or the ready batch.
        let ready = std::mem::take(&mut self.ready);
        let wheel = std::mem::take(&mut self.wheel);
        for &id in ready[self.ready_pos..].iter().chain(wheel.iter().flatten()) {
            if self.is_live(id) {
                let cell = &mut self.slab[id.index() as usize];
                unsafe { (cell.drop_fn)(&mut cell.payload) };
                self.free_cell(id.index());
            }
        }
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now)
            .field("pending", &self.live)
            .field("executed", &self.executed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for &t in &[50u64, 10, 30, 20, 40] {
            let o = order.clone();
            sim.schedule_at(t, move |sim| o.borrow_mut().push(sim.now()));
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![10, 20, 30, 40, 50]);
        assert_eq!(sim.executed_events(), 5);
    }

    #[test]
    fn ties_break_in_scheduling_order() {
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..10 {
            let o = order.clone();
            sim.schedule_at(100, move |_| o.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn events_can_schedule_events() {
        let mut sim = Sim::new(1);
        let hits = Rc::new(RefCell::new(Vec::new()));
        let h = hits.clone();
        sim.schedule_at(5, move |sim| {
            h.borrow_mut().push(sim.now());
            let h2 = h.clone();
            sim.schedule_in(7, move |sim| h2.borrow_mut().push(sim.now()));
        });
        sim.run();
        assert_eq!(*hits.borrow(), vec![5, 12]);
    }

    #[test]
    fn cancel_suppresses_execution() {
        let mut sim = Sim::new(1);
        let hits = Rc::new(RefCell::new(0u32));
        let h = hits.clone();
        let id = sim.schedule_at(10, move |_| *h.borrow_mut() += 1);
        sim.cancel(id);
        sim.run();
        assert_eq!(*hits.borrow(), 0);
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let mut sim = Sim::new(1);
        sim.schedule_at(10, |_| {});
        sim.schedule_at(100, |_| {});
        sim.run_until(50);
        assert_eq!(sim.now(), 50);
        assert!(!sim.is_idle());
        sim.run();
        assert_eq!(sim.now(), 100);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Sim::new(1);
        sim.schedule_at(10, |sim| {
            sim.schedule_at(5, |_| {});
        });
        sim.run();
    }

    #[test]
    fn identical_seeds_are_deterministic() {
        fn run(seed: u64) -> Vec<u64> {
            use rand::Rng;
            let mut sim = Sim::new(seed);
            let out = Rc::new(RefCell::new(Vec::new()));
            for _ in 0..100 {
                let o = out.clone();
                let d: u64 = 1 + (seed % 3);
                sim.schedule_in(d, move |sim| {
                    let v: u64 = sim.rng().gen();
                    o.borrow_mut().push(v ^ sim.now());
                });
            }
            sim.run();
            Rc::try_unwrap(out).unwrap().into_inner()
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    // ---- slab + wheel specifics -----------------------------------------

    #[test]
    fn far_future_events_cross_the_wheel_horizon() {
        // Past the six levels an older wheel had (2^36 ns), and nearby,
        // interleaved.
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        for &t in &[1u64 << 40, 5, (1 << 40) + 1, 1 << 36, 70_000_000_000] {
            let o = order.clone();
            sim.schedule_at(t, move |sim| o.borrow_mut().push(sim.now()));
        }
        sim.run();
        assert_eq!(
            *order.borrow(),
            vec![5, 1 << 36, 70_000_000_000, 1 << 40, (1 << 40) + 1]
        );
    }

    #[test]
    fn ties_across_overflow_and_wheel_keep_scheduling_order() {
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        let t = 1u64 << 38;
        for i in 0..6 {
            let o = order.clone();
            // All at the same far-future instant, in a high level; must
            // fire 0..6 in order after cascading down.
            sim.schedule_at(t, move |_| o.borrow_mut().push(i));
        }
        sim.run();
        assert_eq!(*order.borrow(), (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn handler_scheduling_at_its_own_time_runs_last_in_batch() {
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        let o0 = order.clone();
        sim.schedule_at(10, move |sim| {
            o0.borrow_mut().push("first");
            let o = o0.clone();
            sim.schedule_at(10, move |_| o.borrow_mut().push("zero-delay"));
        });
        let o1 = order.clone();
        sim.schedule_at(10, move |_| o1.borrow_mut().push("second"));
        sim.run();
        assert_eq!(*order.borrow(), vec!["first", "second", "zero-delay"]);
    }

    #[test]
    fn arena_reuses_cells_and_generations_make_stale_cancels_inert() {
        let mut sim = Sim::new(1);
        let hits = Rc::new(RefCell::new(0u32));
        let h0 = hits.clone();
        let first = sim.schedule_at(1, move |_| *h0.borrow_mut() += 1);
        sim.run();
        // The cell is reused for the next event...
        let h1 = hits.clone();
        let second = sim.schedule_at(2, move |_| *h1.borrow_mut() += 10);
        assert_eq!(first.index(), second.index());
        assert_ne!(first.generation(), second.generation());
        // ...and cancelling through the stale id must not kill it.
        sim.cancel(first);
        sim.run();
        assert_eq!(*hits.borrow(), 11);
        assert_eq!(sim.arena_cells(), 1);
    }

    #[test]
    fn cancel_after_fire_does_not_grow_memory() {
        // Regression for the old `HashSet<u64>` cancel bookkeeping, which
        // leaked one entry per cancel-after-fire forever. The arena must stay
        // at its steady-state size no matter how many stale cancels arrive.
        let mut sim = Sim::new(1);
        let mut stale = Vec::new();
        for round in 0..10_000u64 {
            let id = sim.schedule_at(round, |_| {});
            sim.run();
            stale.push(id);
        }
        for id in stale {
            sim.cancel(id); // all no-ops
        }
        assert_eq!(sim.arena_cells(), 1, "arena grew under stale cancels");
        assert!(sim.is_idle());
        // A live cancel frees its cell at once, so schedule+cancel churn
        // reuses the one cell however far ahead each event was due.
        for round in 0..10_000u64 {
            let id = sim.schedule_at(20_000 + round, |_| {});
            sim.cancel(id);
            assert_eq!(sim.arena_cells(), 1, "arena grew under live cancels");
        }
        sim.run();
        assert_eq!(sim.arena_cells(), 1);
        assert!(sim.is_idle());
    }

    #[test]
    fn a_cell_freed_mid_batch_is_reused_and_its_stale_entry_skipped() {
        // A handler cancels an event later in the current ready batch, then
        // schedules at the same tick: the new event takes the freed cell,
        // the cancelled one's ready entry is skipped, and the new event fires
        // after the batch, in scheduling order.
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        let victim = Rc::new(RefCell::new(None));
        let (o, v) = (order.clone(), victim.clone());
        sim.schedule_at(10, move |sim| {
            o.borrow_mut().push("first");
            let victim = v.borrow_mut().take().unwrap();
            sim.cancel(victim);
            let o2 = o.clone();
            let reborn = sim.schedule_at(10, move |_| o2.borrow_mut().push("reborn"));
            assert_eq!(reborn.index(), victim.index(), "freed cell not reused");
            assert_ne!(reborn.generation(), victim.generation());
            let o3 = o.clone();
            sim.schedule_at(10, move |_| o3.borrow_mut().push("after"));
        });
        let o = order.clone();
        *victim.borrow_mut() = Some(sim.schedule_at(10, move |_| o.borrow_mut().push("cancelled")));
        let o = order.clone();
        sim.schedule_at(10, move |_| o.borrow_mut().push("second"));
        sim.run();
        assert_eq!(*order.borrow(), vec!["first", "second", "reborn", "after"]);
        assert_eq!(sim.executed_events(), 4);
        assert_eq!(sim.arena_cells(), 3);
    }

    #[test]
    fn a_cell_is_a_64_byte_payload_and_four_words() {
        assert_eq!(std::mem::size_of::<Cell>(), 96);
    }

    #[test]
    fn large_closures_fall_back_to_boxing() {
        let mut sim = Sim::new(1);
        let big = [7u8; 256]; // larger than the 64-byte inline payload
        let out = Rc::new(RefCell::new(0u64));
        let o = out.clone();
        sim.schedule_at(3, move |_| {
            *o.borrow_mut() = big.iter().map(|&b| b as u64).sum();
        });
        sim.run();
        assert_eq!(*out.borrow(), 7 * 256);
    }

    #[test]
    fn dropping_sim_drops_pending_closures() {
        struct NoteDrop(Rc<RefCell<u32>>);
        impl Drop for NoteDrop {
            fn drop(&mut self) {
                *self.0.borrow_mut() += 1;
            }
        }
        let drops = Rc::new(RefCell::new(0u32));
        {
            let mut sim = Sim::new(1);
            for t in [1u64, 2, 1 << 40] {
                let token = NoteDrop(drops.clone());
                sim.schedule_at(t, move |_| {
                    let _keep = &token;
                });
            }
            let cancelled = {
                let token = NoteDrop(drops.clone());
                sim.schedule_at(5, move |_| {
                    let _keep = &token;
                })
            };
            sim.cancel(cancelled); // drops its closure immediately
            assert_eq!(*drops.borrow(), 1);
        }
        assert_eq!(*drops.borrow(), 4);
    }

    #[test]
    fn run_until_then_scheduling_near_the_cursor_stays_ordered() {
        // run_until advances `now` past the cursor; later inserts must still
        // fire in (time, seq) order even when they straddle slot boundaries.
        let mut sim = Sim::new(1);
        sim.schedule_at(100_000, |_| {});
        sim.run_until(70_000);
        assert_eq!(sim.now(), 70_000);
        let order = Rc::new(RefCell::new(Vec::new()));
        for &t in &[70_001u64, 99_999, 70_002, 100_001] {
            let o = order.clone();
            sim.schedule_at(t, move |sim| o.borrow_mut().push(sim.now()));
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![70_001, 70_002, 99_999, 100_001]);
        assert_eq!(sim.executed_events(), 5);
    }

    #[test]
    fn cancelled_far_future_events_do_not_strand_the_cursor() {
        // Draining a queue whose tail is all tombstones (e.g. a cancelled
        // lease timer) must not leave the wheel cursor ahead of the clock:
        // the next near-term insert would otherwise violate `cursor <= at`.
        let mut sim = Sim::new(1);
        sim.schedule_at(10, |_| {});
        let far = sim.schedule_at(1 << 20, |_| {});
        let farther = sim.schedule_at(1 << 40, |_| {});
        sim.cancel(far);
        sim.cancel(farther);
        sim.run();
        assert_eq!(sim.now(), 10);
        let fired = Rc::new(RefCell::new(false));
        let f = fired.clone();
        sim.schedule_at(11, move |_| *f.borrow_mut() = true);
        sim.run();
        assert!(*fired.borrow());
        assert_eq!(sim.now(), 11);
    }

    #[test]
    fn the_top_level_holds_the_last_bits_of_time() {
        // Times whose highest differing bit is 60..63 live in the 16-slot
        // top level; cascading from it must not shift past bit 63.
        let mut sim = Sim::new(1);
        let order = Rc::new(RefCell::new(Vec::new()));
        let times = [
            u64::MAX,
            1 << 63,
            (1 << 60) - 1,
            1 << 60,
            u64::MAX - 1,
            (1 << 63) + 5,
            7,
        ];
        for &t in &times {
            let o = order.clone();
            sim.schedule_at(t, move |sim| o.borrow_mut().push(sim.now()));
        }
        let o = order.clone();
        sim.schedule_at(1 << 62, move |sim| {
            o.borrow_mut().push(sim.now());
            let o = o.clone();
            sim.schedule_in(3, move |sim| o.borrow_mut().push(sim.now()));
        });
        sim.run();
        let mut want = times.to_vec();
        want.extend([1 << 62, (1 << 62) + 3]);
        want.sort_unstable();
        assert_eq!(*order.borrow(), want);
    }

    #[test]
    fn pending_events_tracks_live_population() {
        let mut sim = Sim::new(1);
        let a = sim.schedule_at(10, |_| {});
        let _b = sim.schedule_at(20, |_| {});
        assert_eq!(sim.pending_events(), 2);
        sim.cancel(a);
        assert_eq!(sim.pending_events(), 1);
        sim.run();
        assert_eq!(sim.pending_events(), 0);
    }
}

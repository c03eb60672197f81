//! A lock-free approximate frequency sketch (count-min with aging) for
//! admission decisions on the shared pointer cache — the TinyLFU filter of
//! Einziger et al. reduced to what a CLOCK cache needs: "has this key been
//! seen more often than the eviction candidate?".
//!
//! Four hash rows of saturating counters; the estimate is the row minimum.
//! Counters age by periodic halving once the sketch has absorbed
//! `sample = 8 × width` touches, so a formerly-hot key stops outvoting the
//! current working set. All operations are single atomic loads/stores per
//! row — callers may share one sketch across every client thread on a node.
//! The rows of one key are four independent cache lines, on four random
//! pages of a large sketch, so every touch commits memory: a
//! [`ClockCache`](crate::ClockCache), which asks it only when full, creates
//! its sketch once it is half full.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

const ROWS: usize = 4;
/// Counters saturate here; halving keeps headroom below it in practice.
const MAX_COUNT: u32 = u32::MAX;

/// Approximate per-key touch counts with bounded memory.
pub struct FreqSketch {
    /// `ROWS` logical rows concatenated; each row is `width` counters.
    counters: Box<[AtomicU32]>,
    /// Power-of-two row width (mask = width - 1).
    mask: u64,
    /// Touches since the last aging pass.
    ops: AtomicU64,
    /// Aging threshold.
    sample: u64,
}

impl FreqSketch {
    /// Builds a sketch with at least `width` counters per row (rounded up
    /// to a power of two).
    pub fn new(width: usize) -> FreqSketch {
        let width = width.max(16).next_power_of_two();
        FreqSketch {
            // Zeroed by the allocator and never written here: traffic
            // commits the counters' pages, construction does not (a fill
            // loop commits all of them in a debug build).
            // SAFETY: the all-zero bit pattern is a valid `AtomicU32`.
            counters: unsafe { Box::<[AtomicU32]>::new_zeroed_slice(width * ROWS).assume_init() },
            mask: (width - 1) as u64,
            ops: AtomicU64::new(0),
            sample: (width as u64) * 8,
        }
    }

    fn slot(&self, row: usize, hash: u64) -> &AtomicU32 {
        // Derive per-row hashes by remixing with odd multipliers; the
        // input hash is already avalanche-mixed by the caller.
        let h = hash
            .wrapping_mul(
                [
                    0x9E37_79B9_7F4A_7C15,
                    0xC2B2_AE3D_27D4_EB4F,
                    0x1656_67B1_9E37_79F9,
                    0x27D4_EB2F_1656_67C5,
                ][row],
            )
            .rotate_right(row as u32 * 16 + 1);
        let idx = (h & self.mask) as usize + row * ((self.mask + 1) as usize);
        &self.counters[idx]
    }

    /// Records one touch of `hash` and returns the updated estimate.
    pub fn touch(&self, hash: u64) -> u32 {
        let mut est = MAX_COUNT;
        for row in 0..ROWS {
            let c = self.slot(row, hash);
            let cur = c.load(Ordering::Relaxed);
            if cur < MAX_COUNT {
                // A lost race just undercounts by one; the sketch is
                // approximate by construction.
                c.store(cur + 1, Ordering::Relaxed);
                est = est.min(cur + 1);
            } else {
                est = est.min(cur);
            }
        }
        if self.ops.fetch_add(1, Ordering::Relaxed) + 1 >= self.sample {
            self.age();
        }
        est
    }

    /// Estimated touch count for `hash` (row minimum, never undercounts a
    /// key below its true aged frequency... minus races).
    pub fn estimate(&self, hash: u64) -> u32 {
        (0..ROWS)
            .map(|row| self.slot(row, hash).load(Ordering::Relaxed))
            .min()
            .unwrap_or(0)
    }

    /// Halves every counter — the aging step that keeps the sketch tracking
    /// the *current* working set.
    fn age(&self) {
        self.ops.store(0, Ordering::Relaxed);
        for c in &self.counters {
            let cur = c.load(Ordering::Relaxed);
            c.store(cur / 2, Ordering::Relaxed);
        }
    }
}

impl std::fmt::Debug for FreqSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FreqSketch")
            .field("width", &(self.mask + 1))
            .field("ops", &self.ops.load(Ordering::Relaxed))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_keys_outvote_cold_keys() {
        let s = FreqSketch::new(1024);
        for _ in 0..100 {
            s.touch(0xDEAD_BEEF);
        }
        s.touch(0xC01D_C0DE);
        assert!(s.estimate(0xDEAD_BEEF) > s.estimate(0xC01D_C0DE));
        assert!(s.estimate(0xDEAD_BEEF) >= 100);
    }

    #[test]
    fn unseen_keys_estimate_near_zero() {
        let s = FreqSketch::new(1024);
        for h in 0..64u64 {
            s.touch(h.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        // Collisions can lift an unseen key's estimate, but with 4 rows and
        // 64 touched keys in 1024 slots it stays tiny.
        assert!(s.estimate(0xFFFF_FFFF_0000_0001) <= 2);
    }

    #[test]
    fn aging_halves_counts() {
        let s = FreqSketch::new(16); // sample = 16*8 = 128
        for _ in 0..100 {
            s.touch(42);
        }
        let before = s.estimate(42);
        // Drive past the sample threshold to trigger aging.
        for i in 0..64u64 {
            s.touch(i.wrapping_mul(0x517C_C1B7_2722_0A95));
        }
        assert!(
            s.estimate(42) < before,
            "aging must decay stale frequencies"
        );
    }
}

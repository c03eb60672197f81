//! An approximate frequency sketch (count-min with aging) for admission
//! decisions on the pointer cache — the TinyLFU filter of Einziger et al.
//! reduced to what a CLOCK cache needs: "has this key been seen more often
//! than the eviction candidate?".
//!
//! Four hash rows of saturating counters; the estimate is the row minimum.
//! Counters age by periodic halving once the sketch has absorbed
//! `sample = 8 × width` touches, so a formerly-hot key stops outvoting the
//! current working set. The rows of one key are four independent cache
//! lines, on four random pages of a large sketch, so every touch commits
//! memory: a [`ClockCache`](crate::ClockCache), which asks it only when full,
//! creates its sketch once it is half full.

const ROWS: usize = 4;

/// Approximate per-key touch counts with bounded memory.
pub struct FreqSketch {
    /// `ROWS` logical rows concatenated; each row is `width` counters.
    counters: Box<[u32]>,
    /// Power-of-two row width (mask = width - 1).
    mask: u64,
    /// Touches since the last aging pass.
    ops: u64,
    /// Aging threshold.
    sample: u64,
}

impl FreqSketch {
    /// Builds a sketch with at least `width` counters per row (rounded up
    /// to a power of two).
    pub fn new(width: usize) -> FreqSketch {
        let width = width.max(16).next_power_of_two();
        FreqSketch {
            // `vec![0; n]` asks the allocator for zeroed memory and writes
            // nothing: traffic commits the counters' pages, construction
            // does not.
            counters: vec![0; width * ROWS].into_boxed_slice(),
            mask: (width - 1) as u64,
            ops: 0,
            sample: (width as u64) * 8,
        }
    }

    fn slot(&self, row: usize, hash: u64) -> usize {
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
        (h & self.mask) as usize + row * ((self.mask + 1) as usize)
    }

    /// Records one touch of `hash` and returns the updated estimate.
    pub fn touch(&mut self, hash: u64) -> u32 {
        let mut est = u32::MAX;
        for row in 0..ROWS {
            let slot = self.slot(row, hash);
            let c = &mut self.counters[slot];
            *c = c.saturating_add(1);
            est = est.min(*c);
        }
        self.ops += 1;
        if self.ops >= self.sample {
            self.age();
        }
        est
    }

    /// Estimated touch count for `hash` (row minimum, never below the key's
    /// true aged frequency).
    pub fn estimate(&self, hash: u64) -> u32 {
        (0..ROWS)
            .map(|row| self.counters[self.slot(row, hash)])
            .min()
            .unwrap_or(0)
    }

    /// Halves every counter — the aging step that keeps the sketch tracking
    /// the *current* working set.
    fn age(&mut self) {
        self.ops = 0;
        for c in self.counters.iter_mut() {
            *c /= 2;
        }
    }
}

impl std::fmt::Debug for FreqSketch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FreqSketch")
            .field("width", &(self.mask + 1))
            .field("ops", &self.ops)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_keys_outvote_cold_keys() {
        let mut s = FreqSketch::new(1024);
        for _ in 0..100 {
            s.touch(0xDEAD_BEEF);
        }
        s.touch(0xC01D_C0DE);
        assert!(s.estimate(0xDEAD_BEEF) > s.estimate(0xC01D_C0DE));
        assert!(s.estimate(0xDEAD_BEEF) >= 100);
    }

    #[test]
    fn unseen_keys_estimate_near_zero() {
        let mut s = FreqSketch::new(1024);
        for h in 0..64u64 {
            s.touch(h.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        }
        // Collisions can lift an unseen key's estimate, but with 4 rows and
        // 64 touched keys in 1024 slots it stays tiny.
        assert!(s.estimate(0xFFFF_FFFF_0000_0001) <= 2);
    }

    #[test]
    fn aging_halves_counts() {
        let mut s = FreqSketch::new(16); // sample = 16*8 = 128
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

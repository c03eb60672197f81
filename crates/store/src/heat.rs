//! Per-shard read-heat tracking: a space-saving top-k sketch (Metwally et
//! al., "Efficient Computation of Frequent and Top-k Elements in Data
//! Streams") over key hashes.
//!
//! The shard touches the sketch on every GET; keys whose estimated count
//! clears a threshold are *hot* and have their replica remote pointers
//! exported in GET responses, turning replication capacity into read
//! capacity exactly where the skew concentrates. Capacity is fixed at
//! construction and all operations are allocation-free: the monitored set
//! lives in a preallocated slot array scanned linearly (capacities are a
//! few dozen to a few hundred entries — one cache sweep, not a hash table).
//!
//! Space-saving guarantee: any key with true count > N/k is in the sketch,
//! and estimates never undercount (a displaced key inherits the victim's
//! count as its error bound).

/// One monitored key: hash, estimated count, and the overestimation bound
/// inherited from the displaced predecessor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct HeatEntry {
    /// Avalanche-mixed key hash (see [`crate::hash_key`]).
    pub hash: u64,
    /// Estimated touch count (count of the displaced victim + touches).
    pub count: u64,
    /// Error bound: the count this entry started from on admission.
    pub err: u64,
}

/// Fixed-capacity space-saving top-k sketch.
#[derive(Debug, Clone)]
pub struct HeatSketch {
    entries: Vec<HeatEntry>,
    cap: usize,
}

impl HeatSketch {
    /// Builds a sketch tracking up to `cap` keys (`cap` ≥ 1).
    pub fn new(cap: usize) -> HeatSketch {
        let cap = cap.max(1);
        HeatSketch {
            entries: Vec::with_capacity(cap),
            cap,
        }
    }

    /// Records one read of `hash`; returns the key's updated estimate.
    pub fn touch(&mut self, hash: u64) -> u64 {
        let mut min_idx = 0usize;
        let mut min_count = u64::MAX;
        for (i, e) in self.entries.iter_mut().enumerate() {
            if e.hash == hash {
                e.count += 1;
                return e.count;
            }
            if e.count < min_count {
                min_count = e.count;
                min_idx = i;
            }
        }
        if self.entries.len() < self.cap {
            self.entries.push(HeatEntry {
                hash,
                count: 1,
                err: 0,
            });
            return 1;
        }
        // Displace the coldest monitored key; the newcomer inherits its
        // count (the space-saving overestimate) plus this touch.
        let e = &mut self.entries[min_idx];
        e.hash = hash;
        e.err = e.count;
        e.count += 1;
        e.count
    }

    /// Whether `hash` is currently estimated at or above `threshold`
    /// *guaranteed* touches (estimate minus the admission error bound, so a
    /// freshly displaced cold key does not spuriously read as hot).
    pub fn is_hot(&self, hash: u64, threshold: u64) -> bool {
        self.entries
            .iter()
            .find(|e| e.hash == hash)
            .is_some_and(|e| e.count.saturating_sub(e.err) >= threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Estimated count for `hash`; 0 when not monitored.
    fn estimate(s: &HeatSketch, hash: u64) -> u64 {
        s.entries
            .iter()
            .find(|e| e.hash == hash)
            .map_or(0, |e| e.count)
    }

    #[test]
    fn tracks_heavy_hitters_exactly_when_under_capacity() {
        let mut s = HeatSketch::new(8);
        for _ in 0..50 {
            s.touch(1);
        }
        for _ in 0..10 {
            s.touch(2);
        }
        assert_eq!(estimate(&s, 1), 50);
        assert_eq!(estimate(&s, 2), 10);
        assert!(s.is_hot(1, 50));
        assert!(!s.is_hot(2, 11));
    }

    #[test]
    fn heavy_hitter_survives_a_flood_of_cold_keys() {
        const HOT: u64 = 0xAB;
        let mut s = HeatSketch::new(16);
        for _ in 0..1_000 {
            s.touch(HOT);
        }
        // 10k distinct cold keys churn the other 15 slots.
        for i in 0..10_000u64 {
            s.touch(i.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 << 63);
        }
        assert!(
            s.is_hot(HOT, 500),
            "space-saving must retain the heavy hitter"
        );
    }

    #[test]
    fn displaced_keys_carry_error_bounds() {
        let mut s = HeatSketch::new(2);
        for _ in 0..10 {
            s.touch(1);
        }
        for _ in 0..5 {
            s.touch(2);
        }
        s.touch(3); // displaces key 2 (count 5) -> estimate 6, err 5
        assert_eq!(estimate(&s, 3), 6);
        assert!(
            !s.is_hot(3, 2),
            "guaranteed count (estimate - err) must gate hotness"
        );
        assert!(s.is_hot(1, 10));
    }

    #[test]
    fn touch_is_zero_alloc_after_construction() {
        let mut s = HeatSketch::new(64);
        // Fill to capacity first (pushes stay within the preallocation).
        for i in 0..64u64 {
            s.touch(i);
        }
        // 10k touches over a churning key set: no growth possible.
        for i in 0..10_000u64 {
            s.touch(i % 200);
        }
        assert_eq!(s.entries.len(), 64);
    }
}

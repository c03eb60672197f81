//! The client-side remote-pointer cache (§4.2.4 of the HydraDB paper) and
//! its parts: [`ClockCache`], a bounded CLOCK cache that a client owns alone
//! or shares with every client on its node; the [`FreqSketch`] that gates
//! admission to it; and [`hash_bytes`], the one key hash both are driven by.
//! The clients sharing a cache run on one single-threaded event loop, so
//! nothing here is lock-free or even `Sync`: the crate keeps its name only
//! because the benchmark package names it.

#![forbid(unsafe_code)]

mod clock;
mod sketch;

pub use clock::{ClockCache, ClockCacheStats};
pub use sketch::FreqSketch;

/// Hashes a key: FNV-1a over the key's length (eight little-endian bytes,
/// so a key and its zero-extended prefix differ from the first byte) and
/// then its bytes, finished with an avalanche mix. Stable and
/// dependency-free: which pointers a cache admits and evicts is a function
/// of these values, so they are part of every experiment's model.
pub fn hash_bytes(key: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in (key.len() as u64).to_le_bytes().iter().chain(key) {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The values every committed result was produced under.
    #[test]
    fn hash_values_are_pinned() {
        assert_eq!(hash_bytes(b""), 0x813f_0174_a236_7c13);
        assert_eq!(hash_bytes(b"a"), 0xb2a8_1edc_870f_611d);
        assert_eq!(hash_bytes(b"user0000000042"), 0x5753_ab5c_61d4_2583);
        assert_eq!(
            hash_bytes(b"a-key-longer-than-twenty-two-bytes-0001"),
            0x26b7_982a_e7e5_2dc6
        );
    }
}

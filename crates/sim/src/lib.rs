//! Deterministic discrete-event simulation kernel.
//!
//! The HydraDB reproduction runs its cluster experiments on a virtual clock:
//! nodes, NIC ports and CPU cores are *timed resources*, and every protocol
//! action (an RDMA write landing in a request ring, a shard picking up a
//! message during its polling sweep, a lease expiring) is an *event* scheduled
//! at a nanosecond-precision virtual time.
//!
//! Design goals:
//!
//! * **Determinism.** Two runs with the same seed produce byte-identical
//!   results. Events that fire at the same virtual time are ordered by their
//!   scheduling sequence number.
//! * **Analytic queueing.** Serial resources ([`FifoResource`]) compute
//!   completion times in O(1) instead of generating start/stop event pairs,
//!   which keeps multi-million-request experiments fast on a single host core.
//! * **Real data plane.** The simulator owns *time*, not *bytes*: the memory
//!   regions, hash tables and ring buffers manipulated by event handlers are
//!   the same thread-safe structures exercised by real OS threads in the unit
//!   and stress tests.
//!
//! # Example
//!
//! ```
//! use hydra_sim::{Sim, time::US};
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let mut sim = Sim::new(42);
//! let fired = Rc::new(Cell::new(0u64));
//! let f = fired.clone();
//! sim.schedule_in(3 * US, move |sim| {
//!     f.set(sim.now());
//! });
//! sim.run();
//! assert_eq!(fired.get(), 3 * US);
//! ```

pub mod reference;
mod resource;
mod scheduler;
mod stats;
pub mod time;

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

pub use resource::FifoResource;
pub use scheduler::{EventId, Sim};
pub use stats::Histogram;
pub use time::SimTime;

/// The cluster-wide RNG seed: the `HYDRA_SEED` environment variable if set
/// (decimal, or hex with an `0x` prefix), else `default`.
///
/// Every randomized component — the simulator clock jitter, YCSB key
/// streams, chaos fault plans — derives its seed through this single choke
/// point, so any failing run reproduces exactly by re-running with the seed
/// the failure printed.
pub fn seed_from_env(default: u64) -> u64 {
    match std::env::var("HYDRA_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                u64::from_str_radix(hex, 16)
            } else {
                s.parse()
            };
            parsed.unwrap_or_else(|_| panic!("HYDRA_SEED is not a valid u64: {s:?}"))
        }
        Err(_) => default,
    }
}

/// A map keyed by `u64` ids the process numbered itself (op ids, record
/// sequence numbers, QP ids), hashed by [`IdHasher`].
pub type IdMap<V> = HashMap<u64, V, BuildHasherDefault<IdHasher>>;

/// Multiply-shift hash of one `u64` id. The ids are the process's own, so
/// SipHash's keyed mixing buys nothing, and a fixed hash lays a map out the
/// same way in every run; folding the upper product half down keeps ids that
/// differ only above bit 32 apart in the low bits a table indexes by.
#[derive(Default)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("IdHasher keys are u64 ids");
    }

    fn write_u64(&mut self, id: u64) {
        let h = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

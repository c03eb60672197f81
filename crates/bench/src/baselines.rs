//! Baseline key-value stores for the §6.1 comparison (Fig. 9) and the §2
//! application studies.
//!
//! These are *architectural miniatures*, not reimplementations: each captures
//! the structural properties that determine how the original behaves next to
//! HydraDB on the same fabric —
//!
//! * **Memcached-like** — one multi-threaded process over the kernel socket
//!   path (IPoIB), worker threads sharing one cache with a lock-protected
//!   critical section per operation.
//! * **Redis-like** — N single-threaded instances over sockets, client-side
//!   sharding (the paper runs 8 instances with fine-grained sharding).
//! * **RAMCloud-like** — native InfiniBand Send/Recv, a log-structured store,
//!   and RAMCloud's dispatch-thread architecture: every request and response
//!   passes through one dispatch thread that hands work to worker threads.
//! * **G2-DB-like** — the "in-memory database" of Fig. 3: socket transport
//!   and a coarse lock serializing the entire (expensive) operation.
//!
//! None of them can use one-sided RDMA — that is the point of the
//! comparison. All serve the same `hydra-wire` protocol, so the
//! [`hydra_ycsb`] driver benchmarks them byte-for-byte identically.

mod client;
mod cluster;
mod server;

pub(crate) use cluster::{BaselineCluster, BaselineConfig};
pub(crate) use server::BaselineKind;

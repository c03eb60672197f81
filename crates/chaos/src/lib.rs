//! Deterministic fault injection and consistency checking.
//!
//! HydraDB's headline claim is *resilience*: SWAT failure detection, lease
//! guarded one-sided reads and RDMA-logged replication all exist to survive
//! failures (PAPER.md §4.2.3, §5). This crate is the adversary that earns
//! that claim: it turns "the cluster survives failures" from a happy-path
//! example into a checked property.
//!
//! Two halves:
//!
//! * `plan` — a **fault plan**: a seed-reproducible schedule of fault
//!   events ([`FaultEvent`]) pinned to virtual times or op-count triggers
//!   ([`Trigger`]). Plans are plain data; the `hydra-db` crate owns the
//!   machinery that applies them to a live cluster through the fabric and
//!   simulator fault hooks. [`FaultPlan::random`] derives an arbitrarily
//!   nasty but *replayable* plan from a seed.
//! * [`history`] — a **history checker**: every client op is recorded with
//!   its invocation/response times on the virtual clock, and the resulting
//!   history is verified for per-key register linearizability (Wing & Gong
//!   style DFS with memoization), value integrity (no read returns bytes
//!   that were never written — the torn/stale-read lease-safety check) and
//!   replica convergence after heal.
//!
//! Every check failure prints the seed that produced it; re-running with
//! `HYDRA_SEED=<seed>` reproduces the run event for event.

#![forbid(unsafe_code)]

pub mod history;
mod plan;

pub use history::{check_convergence, History, Outcome, ReplicaDump};
pub use plan::{FaultEvent, FaultPlan, PlannedFault, Trigger};

//! ZooKeeper-like coordination kernel for HydraDB's HA layer (§5.1).
//!
//! The paper deploys a 3–5 node ZooKeeper ensemble whose *semantics* —
//! a znode tree with ephemeral/sequential nodes and sessions that expire on
//! missed heartbeats — drive the SWAT (Status Watcher and reAct Team)
//! failure-reaction pipeline. ZooKeeper's one-shot watches are not here:
//! since shard liveness moved onto the fabric (a secondary's RDMA-read probe
//! reports a silent primary) nothing in the cluster registers one, and SWAT
//! members learn who leads by asking on their tick. This crate implements those
//! semantics as a deterministic state machine driven by explicit timestamps,
//! so it runs identically under the discrete-event simulator and in
//! plain unit tests. The replicated-consensus internals of ZooKeeper are out
//! of scope (DESIGN.md §1): HydraDB only consumes the client-visible API.
//!
//! [`election`] builds the standard ephemeral-sequential leader-election
//! recipe on top, used both for the SWAT leader and for primary-shard
//! fail-over ordering.

#![forbid(unsafe_code)]

pub mod election;
pub mod tree;

pub use election::LeaderElection;
pub use tree::{Coord, CoordError, CreateMode, SessionId, Stat};

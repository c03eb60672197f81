//! HydraDB — a resilient RDMA-driven key-value middleware.
//!
//! This is the core crate of the SC '15 reproduction: the shard server, the
//! client library, and the cluster runtime, built on the substrates in the
//! sibling crates (`hydra-fabric` for verbs, `hydra-store` for the memory
//! engine, `hydra-replication` for HA log shipping), its own table of
//! ZooKeeper-like sessions (`coord`), which the SWAT group consumes, and the
//! adversary that checks its resilience ([`chaos`]: fault
//! plans, their injection, and the linearizability and convergence checker).
//!
//! # Architecture (paper §4–§5)
//!
//! * Data is partitioned by consistent hashing (`ring`) across *shards*,
//!   single-threaded processes each pinned to one core and exclusively owning
//!   one partition ([`server`]).
//! * Clients ([`client`]) reach shards through RDMA-Write message passing
//!   with indicator polling; GETs of previously seen keys bypass the server
//!   entirely via one-sided RDMA Reads against cached remote pointers,
//!   validated by guardian words and bounded by leases.
//! * Every primary shard synchronously replicates to `R` secondaries with
//!   RDMA Logging Replication; a secondary's one-sided probe of its primary
//!   fences a silent one and reports to the SWAT group, whose
//!   earliest-joined live member promotes the secondary (`cluster`).
//!
//! # Quick start
//!
//! ```
//! use hydra_db::{ClusterBuilder, ClusterConfig};
//!
//! let mut cluster = ClusterBuilder::new(ClusterConfig::default()).build();
//! let client = cluster.add_client(0);
//!
//! // Closed loop, as the paper's YCSB drivers: chain the GET off the PUT.
//! let c2 = client.clone();
//! client.put(
//!     &mut cluster.sim,
//!     b"greeting",
//!     b"hello, fabric",
//!     Box::new(move |sim, r| {
//!         r.unwrap();
//!         c2.get(sim, b"greeting", Box::new(|_, r| {
//!             assert_eq!(r.unwrap().as_deref(), Some(b"hello, fabric".as_slice()));
//!         }));
//!     }),
//! );
//! cluster.sim.run();
//! ```

#![forbid(unsafe_code)]

pub mod chaos;
pub mod client;
mod cluster;
mod config;
mod coord;
pub mod costs;
mod migration;
mod ring;
pub mod server;

pub use client::{ClientStats, HydraClient, OpError};
pub use cluster::{Cluster, ClusterBuilder};
pub use config::{
    AimdConfig, ClientMode, ClusterConfig, ExecModel, ReplicationMode, SchedulerKind,
};
pub use coord::SessionId;
pub use hydra_replication::{BEAT_NS, MISSES};
pub use hydra_store::IndexKind;
pub use migration::{MigrationEngine, MigrationOutcome};
pub use ring::ShardId;

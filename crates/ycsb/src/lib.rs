//! YCSB-equivalent workload generation and the closed-loop benchmark driver.
//!
//! The paper evaluates with six YCSB workloads: {50/50, 90/10, 100/0}
//! GET/UPDATE mixes, each under Zipfian and Uniform request distributions,
//! over 16-byte keys and 32-byte values (§6). Because "YCSB workload
//! generation can be highly CPU-intensive", the paper pre-generates all
//! requests before measuring — [`Workload::generate`] does the same,
//! producing a deterministic per-client op stream from a seed.
//!
//! `driver` replays those streams against a `hydra_db::Cluster` with
//! closed-loop clients and reports throughput and latency exactly as the
//! figures need them.

#![forbid(unsafe_code)]

mod driver;
mod workload;
mod zipf;

pub use driver::{
    run_workload, run_workload_hooked, DriverConfig, KvCb, KvClient, KvSnapshot, OpHook,
    WorkloadReport,
};
pub use workload::{KeyDist, Op, OpMix, Workload};
pub use zipf::ZipfianGenerator;

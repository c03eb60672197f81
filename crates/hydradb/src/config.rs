//! Deployment configuration. The CPU calibration is [`crate::costs`].

use hydra_fabric::{FabricConfig, Transport};
use hydra_replication::ReplConfig;
use hydra_sim::time::{SimTime, MS};
use hydra_store::{IndexKind, WriteMode};

use crate::costs;

/// Server-side execution model (§4.1.1, evaluated in §6.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecModel {
    /// One thread per shard performs both request detection and handling —
    /// HydraDB's choice when RDMA moves the data.
    SingleThreaded,
    /// The conventional decoupled design: dedicated dispatch threads hand
    /// requests to worker threads over synchronized queues. Uses more cores
    /// and pays a hand-off + synchronization cost per request.
    Pipelined {
        /// Worker threads per shard instance (the paper's ablation uses 2).
        workers: u32,
    },
    /// The §6.3 *sub-sharding* proposal (implemented here as an extension):
    /// one instance keeps all RDMA connections — so driver QP pressure stays
    /// at `clients x instances` instead of `clients x cores` — while `subs`
    /// independent sub-shards on their own cores serve disjoint key ranges.
    /// The connection-owning thread polls and routes; hand-off is an
    /// in-process enqueue, far cheaper than the pipelined model's
    /// synchronized queues.
    SubSharded {
        /// Sub-shard cores per instance.
        subs: u32,
    },
}

/// Client communication mode (the §6.2 incremental design points).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClientMode {
    /// Verbs Send/Recv for both requests and responses (baseline).
    SendRecv,
    /// RDMA-Write message passing with sustained polling ("RDMA Write Only").
    RdmaWrite,
    /// RDMA-Write messages + remote-pointer-cached RDMA-Read GETs
    /// ("RDMA Write + Read").
    RdmaWriteRead,
}

impl ClientMode {
    /// Whether GETs may use one-sided reads.
    pub fn rdma_read(self) -> bool {
        matches!(self, ClientMode::RdmaWriteRead)
    }

    /// Whether messages travel as one-sided writes (vs Send/Recv).
    pub(crate) fn rdma_write(self) -> bool {
        !matches!(self, ClientMode::SendRecv)
    }
}

/// How a shard's lane scheduler classifies arriving work (§12).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Arrival-order service (the pre-§12 baseline): every task is
    /// classified into one lane. A point GET that arrives behind a full
    /// scan quantum waits out the whole quantum.
    Fifo,
    /// Dual-lane deficit-round-robin: point ops (GET/PUT/DELETE) ride a
    /// latency lane, SCANs and batch quanta ride a throughput lane, and
    /// running scans yield the core at chunk boundaries whenever the
    /// latency lane is non-empty.
    DualLane,
}

/// Client-side AIMD window controller (§12.4): the per-connection frame
/// window grows additively while the shard reports a shallow backlog and is
/// cut multiplicatively when the response frames carry a deep backlog hint
/// (or completion latency blows past the target), so scan-congested shards
/// shed window instead of queueing. Its gains are constants beside
/// `AimdWindow`.
#[derive(Debug, Clone)]
pub struct AimdConfig {
    /// Gate for the controller; off = fixed `max_batch` packing.
    pub enabled: bool,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig { enabled: true }
    }
}

/// How writes replicate to secondaries (§5.2, Fig. 13): the acknowledgement
/// mode every primary/secondary channel runs in. A deployment that does not
/// replicate says so with `replicas: 0`.
pub use hydra_replication::ReplMode as ReplicationMode;

/// Whole-cluster deployment description consumed by
/// [`crate::ClusterBuilder`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// RNG seed for the run.
    pub seed: u64,
    /// Number of server machines.
    pub server_nodes: u32,
    /// Shard instances per server machine.
    pub shards_per_node: u32,
    /// Override the partition count (default: `server_nodes × shards_per_node`).
    /// With an override, partition `p`'s primary is homed on node
    /// `p % server_nodes` — used e.g. by the Fig. 13 single-shard deployment
    /// whose secondaries live on the other machines.
    pub partitions: Option<u32>,
    /// Number of client machines (clients are placed round-robin).
    pub client_nodes: u32,
    /// Place clients on the *server* machines instead of dedicated client
    /// machines — the §6.3 scale-out deployment where the 8-machine cluster
    /// cannot dedicate nodes, which attenuates 100%-GET scaling.
    pub collocate_clients: bool,
    /// Secondary replicas per partition (0 = no HA).
    pub replicas: u32,
    /// Replication acknowledgement mode (unused while `replicas` is 0).
    pub replication: ReplicationMode,
    /// Client communication mode.
    pub client_mode: ClientMode,
    /// Server execution model.
    pub exec_model: ExecModel,
    /// Reliable store or cache semantics.
    pub write_mode: WriteMode,
    /// Selects nothing: every shard indexes its items with the packed
    /// cache-line-group table. Kept only because the end-to-end benchmark
    /// (`benchmark/src/workloads.rs`) names it; the next change to the
    /// benchmark drops that use and this field.
    pub index: IndexKind,
    /// Share the remote-pointer cache among clients on one node (§4.2.4).
    pub shared_ptr_cache: bool,
    /// Bound on cached remote pointers per client (or per node, when the
    /// cache is shared): the CLOCK pointer cache evicts beyond this.
    pub ptr_cache_capacity: usize,
    /// Export replica remote pointers for hot keys in GET responses and let
    /// clients spread fast-path reads across primary + replicas.
    pub replica_read_spread: bool,
    /// Per-shard space-saving read-heat sketch capacity (monitored keys).
    pub heat_sketch_cap: usize,
    /// Guaranteed sketch touches (estimate − error) above which a key is hot
    /// enough to export replica pointers.
    pub hot_read_threshold: u64,
    /// Arena words per shard.
    pub arena_words: usize,
    /// Selects nothing: a shard's index starts at one page and grows as
    /// items arrive. Kept only because the end-to-end benchmark
    /// (`benchmark/src/workloads.rs`) names it; the next change to the
    /// benchmark drops that use and this field.
    pub expected_items: usize,
    /// Request/response buffer slot size in words (bounds message size).
    pub msg_slot_words: usize,
    /// Outstanding operations a client may keep in flight (1 = the paper's
    /// closed-loop YCSB discipline). Selects the client's shipping shape:
    /// at 1 a request travels as a bare message; above it, queued requests
    /// ship as batch frames.
    pub pipeline_depth: usize,
    /// Maximum requests packed into one batch frame (one doorbell, one
    /// server execution quantum).
    pub max_batch: usize,
    /// CPU cost to build one send/write WQE and ring the doorbell when
    /// posting a response. Charged once per response: per bare request,
    /// swept or alone, and once per frame (one WQE carries all of a frame's
    /// answers). 0 keeps the pre-batching calibration; the batching study
    /// sets it to a measured MMIO cost.
    pub post_wqe_ns: SimTime,
    /// Run-queue discipline for single-threaded shards (§12).
    pub scheduler: SchedulerKind,
    /// Items a running scan emits between preemption points under
    /// [`SchedulerKind::DualLane`]: a latency-lane arrival forces the scan
    /// to yield at the next chunk boundary (~`scan_chunk_items ×
    /// costs::SCAN_ITEM_NS` away) instead of holding the core for the full
    /// quantum.
    pub scan_chunk_items: u32,
    /// Client-side AIMD window controller (§12.4).
    pub aimd: AimdConfig,
    /// Minimum lease term (paper: 1 s).
    pub min_lease_ns: SimTime,
    /// Maximum lease term (paper: 64 s).
    pub max_lease_ns: SimTime,
    /// Poll-loop sleep backoff (§4.2.1's 100 ns high-resolution sleep);
    /// `None` burns the core busy-polling.
    pub sleep_backoff_ns: Option<SimTime>,
    /// Transport for client connections: native RDMA or the kernel socket
    /// path (HydraDB's TCP mode, Fig. 2). Socket implies `SendRecv`.
    pub transport: Transport,
    /// Client-side response timeout per attempt: the backstop behind the
    /// directory-change wake (a lost response, a dead shard nobody replaced).
    pub op_timeout_ns: SimTime,
    /// Replication ring words per secondary.
    pub repl_ring_words: usize,
    /// Fabric latency model.
    pub fabric: FabricConfig,
    /// Keys a live migration walk visits per quantum (the snapshot copy,
    /// the post-flip drain). Each quantum rides the throughput lane, so
    /// the latency lane keeps serving point ops between quanta; smaller
    /// quanta trade rebalance time for a shallower tail-latency dip.
    pub migration_quantum_items: u32,
    /// Pool one QP per (client, server node) instead of one per partition:
    /// requests carry a channel tag in the frame-header pad bytes and the
    /// server demuxes to the tagged partition's connection state. Cuts a
    /// client's QP footprint from `partitions` to `server_nodes` and the
    /// server's from `clients × shards_per_node` to `clients` — the Storm
    /// fix for the NIC's ICM-cache connection cliff.
    pub mux_connections: bool,
    /// Post server receive buffers to one shared receive queue per node
    /// instead of a dedicated ring per QP, so posted-buffer memory stays
    /// O(1) in the connection count.
    pub srq: bool,
    /// Translation page size for the memory regions hydradb registers
    /// (arenas, message buffers, replication rings). The 4 KiB default
    /// models ordinary mappings; 2 MiB huge pages collapse the MTT
    /// footprint ~512× and keep the translation cache always-hit.
    pub page_bytes: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            // One knob reproduces a whole run: HYDRA_SEED overrides the
            // default and threads through the sim, fault plans and workloads.
            seed: hydra_sim::seed_from_env(42),
            server_nodes: 1,
            shards_per_node: 4,
            partitions: None,
            client_nodes: 1,
            collocate_clients: false,
            replicas: 0,
            replication: ReplicationMode::GroupCommit,
            client_mode: ClientMode::RdmaWriteRead,
            exec_model: ExecModel::SingleThreaded,
            write_mode: WriteMode::Reliable,
            index: IndexKind::Packed,
            shared_ptr_cache: false,
            ptr_cache_capacity: 64 << 10,
            replica_read_spread: false,
            heat_sketch_cap: 128,
            hot_read_threshold: 8,
            arena_words: 1 << 20,
            expected_items: 128 << 10,
            msg_slot_words: 1 << 10,
            pipeline_depth: 1,
            max_batch: 16,
            post_wqe_ns: 0,
            scheduler: SchedulerKind::DualLane,
            scan_chunk_items: 64,
            aimd: AimdConfig::default(),
            min_lease_ns: 1_000_000_000,
            max_lease_ns: 64_000_000_000,
            sleep_backoff_ns: Some(100),
            transport: Transport::Rdma,
            op_timeout_ns: 10 * MS,
            repl_ring_words: 1 << 16,
            fabric: FabricConfig::default(),
            migration_quantum_items: 128,
            mux_connections: false,
            srq: false,
            page_bytes: 4096,
        }
    }
}

impl ClusterConfig {
    /// Total shard count.
    pub fn total_shards(&self) -> u32 {
        self.partitions
            .unwrap_or(self.server_nodes * self.shards_per_node)
    }

    /// The settings every primary/secondary replication channel of this
    /// deployment runs with, or `None` when writes do not replicate.
    pub(crate) fn repl_config(&self) -> Option<ReplConfig> {
        (self.replicas > 0).then_some(ReplConfig {
            ring_words: self.repl_ring_words,
            mode: self.replication,
            apply_cost_ns: costs::WRITE_NS,
            page_bytes: self.page_bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_coherent() {
        let c = ClusterConfig::default();
        assert_eq!(c.total_shards(), 4);
        assert_eq!(c.scheduler, SchedulerKind::DualLane);
        // A scan chunk must fit inside the scan quantum.
        assert!(c.scan_chunk_items as u64 * costs::SCAN_ITEM_NS <= crate::server::SCAN_QUANTUM_NS);
        assert!(c.aimd.enabled);
        assert!(c.client_mode.rdma_read());
        assert!(c.client_mode.rdma_write());
        assert!(!ClientMode::SendRecv.rdma_write());
        assert!(!ClientMode::RdmaWrite.rdma_read());
        assert!(ClientMode::RdmaWrite.rdma_write());
        // Connection-scaling knobs: dedicated QPs + per-QP rings + 4 KiB
        // pages by default (the unoptimized baseline).
        assert!(!c.mux_connections && !c.srq);
        assert!(c.page_bytes.is_power_of_two());
        assert_eq!(c.page_bytes, c.fabric.default_page_bytes);
    }
}

//! Deployment and cost-model configuration.

use hydra_fabric::{FabricConfig, Transport};
use hydra_replication::{ReplConfig, ReplMode};
use hydra_sim::time::{SimTime, MS};
use hydra_store::{IndexKind, WriteMode};

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
    pub fn rdma_write(self) -> bool {
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

/// Client-side AIMD window controller parameters (§12.4): the
/// per-connection frame window grows additively while the shard
/// reports a shallow backlog and is cut multiplicatively when the response
/// frames carry a deep backlog hint (or completion latency blows past the
/// target), so scan-congested shards shed window instead of queueing.
#[derive(Debug, Clone)]
pub struct AimdConfig {
    /// Gate for the controller; off = fixed `max_batch` packing.
    pub enabled: bool,
    /// Floor on the congestion window (requests per frame).
    pub min_window: usize,
    /// Additive increase per congestion-free response frame.
    pub increase: f64,
    /// Multiplicative decrease factor applied on congestion (0 < f < 1).
    pub decrease: f64,
    /// Backlog hint (µs of queued shard-core work) at or below which the
    /// window may grow.
    pub backlog_lo_us: u16,
    /// Backlog hint at or above which the window is cut.
    pub backlog_hi_us: u16,
    /// Frame completion latency above which the window is cut even without
    /// a backlog hint (covers SendRecv and hint-less servers).
    pub latency_target_ns: SimTime,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            enabled: true,
            min_window: 1,
            increase: 1.0,
            decrease: 0.5,
            // A response frame normally reports ≤ a few µs of backlog (one
            // point quantum); a scan quantum parked ahead reports ≥ 25 µs.
            backlog_lo_us: 4,
            backlog_hi_us: 16,
            latency_target_ns: 200_000,
        }
    }
}

/// How writes replicate to secondaries (§5.2, Fig. 13).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplicationMode {
    /// No replication (cache deployments, baseline measurements).
    None,
    /// Strict request/acknowledge per record.
    Strict,
    /// RDMA Logging with relaxed acks every `ack_every` records.
    Logging {
        /// Records between acknowledgement requests.
        ack_every: u32,
    },
    /// Group commit: strict durability (respond only once a cumulative ack
    /// covers the record) with doorbell-coalesced log quanta, one watermark
    /// ack per train, and seq-ordered release of held responses.
    GroupCommit,
}

impl ReplicationMode {
    /// Whether responses are held for a covering secondary acknowledgement
    /// (strict durability semantics) rather than completing at delivery.
    pub fn strict_semantics(&self) -> bool {
        matches!(self, ReplicationMode::Strict | ReplicationMode::GroupCommit)
    }

    /// The acknowledgement mode each primary/secondary channel runs in, or
    /// `None` when writes do not replicate.
    pub fn repl_mode(self) -> Option<ReplMode> {
        match self {
            ReplicationMode::None => None,
            ReplicationMode::Strict => Some(ReplMode::Strict),
            ReplicationMode::Logging { ack_every } => Some(ReplMode::Logging { ack_every }),
            ReplicationMode::GroupCommit => Some(ReplMode::GroupCommit),
        }
    }
}

/// Server CPU cost model (nanoseconds of shard-core time per action).
///
/// Values approximate a 2.6 GHz Xeon doing the corresponding work on
/// cache-resident state; they anchor absolute throughput but the figures
/// only claim relative shapes.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Hash-table lookup + response assembly for a GET.
    pub get_ns: SimTime,
    /// Allocation + item write + index insert for INSERT/UPDATE.
    pub write_ns: SimTime,
    /// Index removal + guardian flip for DELETE.
    pub delete_ns: SimTime,
    /// Per-value-byte copy cost on the server.
    pub per_byte_ns: f64,
    /// Cost of one polling sweep step (checking a request buffer).
    pub poll_ns: SimTime,
    /// Pipelined model: fixed serial hand-off cost per request on the
    /// dispatch path (detection, request copy, enqueue, wake, response
    /// hand-back).
    pub dispatch_ns: SimTime,
    /// Pipelined model: the *state-mutating* share of an op (its cost beyond
    /// a plain GET) effectively serializes through the shared partition with
    /// cross-core coherence amplification — the cache lines a worker dirties
    /// must bounce to whichever thread touches them next. Calibrated against
    /// §6.2.1 (single-threaded wins 27.4-94.8%, most at 50/50).
    pub pipeline_mutation_factor: f64,
    /// Pipelined model: queue synchronization overhead per request.
    pub sync_ns: SimTime,
    /// Two-sided (Send/Recv) mode: server CPU charge per message for recv
    /// WQE replenishment + CQE handling — the cost HERD's analysis (and
    /// §4.2.1) holds against Send/Recv-based designs.
    pub recv_cpu_ns: SimTime,
    /// Client-side processing per completed operation.
    pub client_ns: SimTime,
    /// CPU cost to build one send/write WQE and ring the doorbell when
    /// posting a response. Charged per response on the singleton path and
    /// once per frame on the batched path (one WQE carries the whole
    /// response batch). Defaults to 0 so pre-batching calibrations are
    /// untouched; the batching study sets it to a measured MMIO cost.
    pub post_wqe_ns: SimTime,
    /// Multiplier on `get_ns` for GETs served through the batched path:
    /// interleaved bucket probing overlaps the index cache misses of
    /// neighbouring keys (memory-level parallelism), so a batched GET's
    /// probe phase costs less than a serial one.
    pub batch_probe_factor: f64,
    /// Multiplier on `write_ns` for INSERT/UPDATEs executed through the
    /// batched path: like `batch_probe_factor`, neighbouring writes in a
    /// quantum overlap their index-probe and arena-allocation misses
    /// (memory-level parallelism), and the write path has more miss work to
    /// hide than a pure probe. Value copies (`per_byte_ns`) stay serial.
    pub batch_write_factor: f64,
    /// Sub-sharding model: in-process hand-off from the connection thread
    /// to a sub-shard core (no kernel synchronization, just a queue push).
    pub subshard_handoff_ns: SimTime,
    /// Fixed cost of a SCAN: skiplist descent to the start key + response
    /// header assembly.
    pub scan_base_ns: SimTime,
    /// Per-returned-item cost of a SCAN: successor hop + key/value copy into
    /// the packed response.
    pub scan_item_ns: SimTime,
    /// Cost to resume a preempted scan from its in-engine cursor (guardian
    /// revalidation + one successor hop) — far cheaper than the full
    /// `scan_base_ns` descent, and paid only when a scan actually yielded.
    pub scan_resume_ns: SimTime,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            get_ns: 450,
            write_ns: 2_200,
            delete_ns: 1_500,
            per_byte_ns: 0.06,
            poll_ns: 15,
            dispatch_ns: 600,
            pipeline_mutation_factor: 2.4,
            sync_ns: 400,
            recv_cpu_ns: 500,
            client_ns: 150,
            post_wqe_ns: 0,
            batch_probe_factor: 0.85,
            batch_write_factor: 0.7,
            subshard_handoff_ns: 120,
            scan_base_ns: 600,
            scan_item_ns: 50,
            scan_resume_ns: 150,
        }
    }
}

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
    /// Replication acknowledgement mode.
    pub replication: ReplicationMode,
    /// Client communication mode.
    pub client_mode: ClientMode,
    /// Server execution model.
    pub exec_model: ExecModel,
    /// Reliable store or cache semantics.
    pub write_mode: WriteMode,
    /// Index structure per shard: the paper's chained table, the compact
    /// signature table, the packed cache-line-group table (the default; see
    /// `abl_hashtable` for the A/B), or the packed table paired with an
    /// ordered skiplist, which serves range scans natively.
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
    /// Expected items per shard (sizes the index).
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
    /// Shard-core time budget one SCAN may consume before the server
    /// truncates it and hands the client a continuation (`more` flag). Keeps
    /// a long range scan from parking behind it every point op in the
    /// quantum: the per-scan charge is `scan_base_ns + items × scan_item_ns`,
    /// and the item count is capped so the charge never exceeds this budget.
    pub scan_quantum_ns: SimTime,
    /// Run-queue discipline for single-threaded shards (§12).
    pub scheduler: SchedulerKind,
    /// Items a running scan emits between preemption points under
    /// [`SchedulerKind::DualLane`]: a latency-lane arrival forces the scan
    /// to yield at the next chunk boundary (~`scan_chunk_items ×
    /// scan_item_ns` away) instead of holding the core for the full quantum.
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
    /// Server CPU cost model.
    pub costs: CostModel,
    /// Items a live migration moves per quantum (snapshot scan, catch-up
    /// flush, post-flip drain). Each quantum rides the throughput lane, so
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
            replication: ReplicationMode::None,
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
            scan_quantum_ns: 25_000,
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
            costs: CostModel::default(),
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
    pub fn repl_config(&self) -> Option<ReplConfig> {
        Some(ReplConfig {
            ring_words: self.repl_ring_words,
            mode: self.replication.repl_mode()?,
            apply_cost_ns: self.costs.write_ns,
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
        // A scan chunk must fit inside the scan quantum, and the resume
        // charge must undercut a fresh descent (else preemption never pays).
        assert!(c.scan_chunk_items as u64 * c.costs.scan_item_ns <= c.scan_quantum_ns);
        assert!(c.costs.scan_resume_ns < c.costs.scan_base_ns);
        let a = &c.aimd;
        assert!(a.min_window >= 1);
        assert!(a.decrease > 0.0 && a.decrease < 1.0);
        assert!(a.backlog_lo_us < a.backlog_hi_us);
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

//! Server and client CPU calibration: nanoseconds of core time per action.
//!
//! Values approximate a 2.6 GHz Xeon doing the corresponding work on
//! cache-resident state; they anchor absolute throughput but the figures
//! only claim relative shapes. They are constants, not configuration: every
//! experiment runs at these values, so a field per value would only widen
//! the configuration space the tests and the benchmark do not cover. The one
//! charge an experiment does vary, the response WQE post, is
//! [`ClusterConfig::post_wqe_ns`](crate::ClusterConfig::post_wqe_ns).

use hydra_sim::time::SimTime;

/// Hash-table lookup + response assembly for a GET.
pub const GET_NS: SimTime = 450;
/// Allocation + item write + index insert for INSERT/UPDATE (also what a
/// secondary pays to apply one replicated record).
pub const WRITE_NS: SimTime = 2_200;
/// Index removal + guardian flip for DELETE.
pub const DELETE_NS: SimTime = 1_500;
/// Per-value-byte copy cost on the server.
pub const PER_BYTE_NS: f64 = 0.06;
/// Cost of one polling sweep step (checking a request buffer).
pub const POLL_NS: SimTime = 15;
/// Pipelined model: fixed serial hand-off cost per request on the dispatch
/// path (detection, request copy, enqueue, wake, response hand-back).
pub(crate) const DISPATCH_NS: SimTime = 600;
/// Pipelined model: the *state-mutating* share of an op (its cost beyond a
/// plain GET) effectively serializes through the shared partition with
/// cross-core coherence amplification — the cache lines a worker dirties
/// must bounce to whichever thread touches them next. Calibrated against
/// §6.2.1 (single-threaded wins 27.4-94.8%, most at 50/50).
pub(crate) const PIPELINE_MUTATION_FACTOR: f64 = 2.4;
/// Pipelined model: queue synchronization overhead per request.
pub(crate) const SYNC_NS: SimTime = 400;
/// Two-sided (Send/Recv) mode: server CPU charge per message for recv WQE
/// replenishment + CQE handling — the cost HERD's analysis (and §4.2.1)
/// holds against Send/Recv-based designs.
pub const RECV_CPU_NS: SimTime = 500;
/// Client-side processing per completed operation.
pub(crate) const CLIENT_NS: SimTime = 150;
/// Multiplier on [`GET_NS`] for GETs that share a quantum with other
/// requests: the modelled shard overlaps the index cache misses of
/// neighbouring keys (memory-level parallelism), so a batched GET's probe
/// phase costs less than a serial one. Like [`BATCH_WRITE_FACTOR`], it
/// prices the paper's shard, not this code, which probes each key of a
/// quantum on its own.
pub const BATCH_PROBE_FACTOR: f64 = 0.85;
/// Multiplier on [`WRITE_NS`] for INSERT/UPDATEs that share a quantum:
/// neighbouring writes overlap their index-probe and arena-allocation
/// misses in the modelled shard, and the write path has more miss work to
/// hide than a pure probe. Value copies ([`PER_BYTE_NS`]) stay serial.
pub const BATCH_WRITE_FACTOR: f64 = 0.7;
/// Sub-sharding model: in-process hand-off from the connection thread to a
/// sub-shard core (no kernel synchronization, just a queue push).
pub(crate) const SUBSHARD_HANDOFF_NS: SimTime = 120;
/// Fixed cost of a SCAN: skiplist descent to the start key + response
/// header assembly.
pub(crate) const SCAN_BASE_NS: SimTime = 600;
/// Per-returned-item cost of a SCAN: successor hop + key/value copy into
/// the packed response.
pub(crate) const SCAN_ITEM_NS: SimTime = 50;
/// Cost to resume a preempted scan from its in-engine cursor (guardian
/// revalidation + one successor hop) — far cheaper than the full
/// [`SCAN_BASE_NS`] descent, and paid only when a scan actually yielded.
pub(crate) const SCAN_RESUME_NS: SimTime = 150;

// A resume must undercut a fresh descent, else preemption never pays.
const _: () = assert!(SCAN_RESUME_NS < SCAN_BASE_NS);

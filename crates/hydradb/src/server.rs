//! The shard server: a single-threaded partition owner (§4.1.1).
//!
//! One `ShardServer` models one *shard* process pinned to one core. Clients
//! deposit framed requests into per-connection request buffers with RDMA
//! Writes; the shard's polling loop detects them, executes the operation
//! against its [`ShardEngine`], replicates writes to its secondaries, and
//! RDMA-Writes the framed response back into the client's response buffer.
//!
//! Under the simulator the "polling loop" is event-driven but cost-faithful:
//! request pickup pays the sweep/sleep detection latency, every operation
//! occupies the shard's core (a [`FifoResource`]). Every arrival takes one
//! route — admission, lane scheduler, quantum executor, replication,
//! response (DESIGN §7) — except under the decoupled execution ablations,
//! which branch off at admission into the `decoupled` submodule. A busy
//! shard serves the bare point ops its lane holds, from every connection,
//! as one quantum: a *sweep* (`ShardServer::take_sweep`). A lone request
//! and a frame are sweeps of one; every sweep runs through one executor,
//! `ShardServer::execute`.

use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hydra_fabric::{Fabric, NodeId, QpId, RegionId};
use hydra_replication::ReplicationPair;
use hydra_sim::time::SimTime;
use hydra_sim::{EventId, FifoResource, Sim};
use hydra_store::{EngineError, HeatSketch, ItemInfo, ShardEngine, WriteMode};
use hydra_wire::{
    for_each_message_mut, frame, messages, scan_items_push, scan_response_begin,
    scan_response_finish, set_backlog_hint, BatchBuilder, BatchFrame, LogOp, RemotePtr, ReplicaPtr,
    ReplicaSet, Request, Response, Status, BATCH_ENTRY_HDR, BATCH_HDR, MAX_EXPORT_PTRS, RESP_HDR,
    SCAN_ENTRY_HDR, SCAN_ITEMS_HDR,
};

use crate::config::{ClusterConfig, SchedulerKind};
use crate::costs;
use crate::migration::{ChannelShipments, MigrationState, RecordsByDst};
use crate::ring::ShardId;

mod decoupled;
use decoupled::Decoupled;

/// Buckets in the log2 observability histograms.
pub const HIST_BUCKETS: usize = 16;

/// Distinct request kinds tracked by the per-op service-time breakdown
/// (rows of [`ServerStats::service_time_hist_by_op`], in [`op_slot`] order).
pub(crate) const OP_KINDS: usize = 6;

/// Row index of `req`'s kind in [`ServerStats::service_time_hist_by_op`]:
/// its wire opcode less one, so Get, Insert, Update, Delete, then Scan in
/// row 5. Row 4, the retired opcode 5's, stays empty.
pub(crate) fn op_slot(req: &Request<'_>) -> usize {
    req.op() as usize - 1
}

/// Whether an arriving payload decodes whole: a batch frame that parses and
/// carries only requests, or one bare request.
fn well_formed(payload: &[u8]) -> bool {
    if BatchFrame::is_batch(payload) {
        BatchFrame::parse(payload).is_some_and(|f| f.iter().all(|m| Request::decode(m).is_some()))
    } else {
        Request::decode(payload).is_some()
    }
}

/// Whether `req` mutates the store (and so, succeeding, replicates).
fn is_write(req: &Request<'_>) -> bool {
    matches!(
        req,
        Request::Insert { .. } | Request::Update { .. } | Request::Delete { .. }
    )
}

/// The key a point request names; `None` for a scan, which may read any.
fn point_key<'a>(req: &Request<'a>) -> Option<&'a [u8]> {
    match req {
        Request::Get { key, .. }
        | Request::Insert { key, .. }
        | Request::Update { key, .. }
        | Request::Delete { key, .. } => Some(*key),
        Request::Scan { .. } => None,
    }
}

/// Whether `reqs[i]`, a quantum's requests in order, is an UPDATE its
/// quantum overwrites: the first later request on its key (a scan may read
/// any) is an UPDATE. Both are pending at dispatch and nothing observes the
/// key between them, so the shard *absorbs* the first — prices it as the
/// GET probe that decides its answer and answers it without writing
/// anything ([`ShardServer::run_quantum`]).
fn absorbed(reqs: &[Request<'_>], i: usize) -> bool {
    let Request::Update { key, .. } = reqs[i] else {
        return false;
    };
    let on_key = |r: &&Request<'_>| point_key(r).is_none_or(|k| k == key);
    matches!(
        reqs[i + 1..].iter().find(on_key),
        Some(Request::Update { .. })
    )
}

/// The absorbed UPDATE `reqs[j]` overwrites, if it overwrites one: the
/// inverse of [`absorbed`].
fn absorbs(reqs: &[Request<'_>], j: usize) -> Option<usize> {
    let Request::Update { key, .. } = reqs[j] else {
        return None;
    };
    let i = reqs[..j]
        .iter()
        .rposition(|r| point_key(r).is_none_or(|k| k == key))?;
    matches!(reqs[i], Request::Update { .. }).then_some(i)
}

/// Log2 bucket index for a histogram sample (0 stays in bucket 0).
fn log2_bucket(v: u64) -> usize {
    ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

/// Shard-core time budget one SCAN may consume before the server truncates
/// it and hands the client a continuation (`more` flag). Keeps a long range
/// scan from parking behind it every point op in the quantum.
pub(crate) const SCAN_QUANTUM_NS: SimTime = 25_000;

/// Largest item count one scan may return inside its quantum: the biggest
/// `C` with `SCAN_BASE_NS + C × SCAN_ITEM_NS ≤ SCAN_QUANTUM_NS`. The server
/// truncates longer scans here and sets the response's `more` flag; the
/// client continues from its last received key.
pub(crate) const SCAN_QUANTUM_ITEMS: u32 =
    ((SCAN_QUANTUM_NS - costs::SCAN_BASE_NS) / costs::SCAN_ITEM_NS) as u32;

// A scan always makes progress.
const _: () = assert!(SCAN_QUANTUM_ITEMS >= 1);

/// Shard-core charge for a scan requesting `limit` items: the descent base
/// plus per-item cost for the items actually served (the quantum cap bounds
/// the count, so for any `limit` the charge never exceeds
/// [`SCAN_QUANTUM_NS`] — pinned by `scan_cost_respects_quantum_budget`).
pub(crate) fn scan_cost(limit: u32) -> SimTime {
    costs::SCAN_BASE_NS + limit.min(SCAN_QUANTUM_ITEMS) as SimTime * costs::SCAN_ITEM_NS
}

/// Operation counters for one shard.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub requests: u64,
    pub gets: u64,
    pub inserts: u64,
    pub updates: u64,
    pub deletes: u64,
    pub scans: u64,
    pub responses: u64,
    pub dropped_while_dead: u64,
    /// Arrivals dropped at admission because they did not decode: a corrupt
    /// request frame, a batch frame that does not parse, or any request
    /// that is not one.
    pub malformed: u64,
    /// Batch frames executed through the quantum path.
    pub batches: u64,
    /// Requests that arrived inside batch frames (subset of `requests`).
    pub batched_requests: u64,
    /// Sweeps: quanta of two or more bare point ops, from one or more
    /// connections, that the shard took from a lane together.
    pub sweeps: u64,
    /// Bare requests executed inside sweeps (subset of `requests`).
    pub swept_requests: u64,
    /// UPDATEs a later UPDATE of the same key overwrote inside their
    /// quantum: priced and answered as the GET probe that decides their
    /// status, never written (subset of `updates`).
    pub absorbed_writes: u64,
    /// Log2 histogram of the shard-core queue depth observed at request
    /// arrival (estimated as core backlog divided by this request's cost):
    /// bucket 0 counts arrivals that found the core idle, bucket k counts
    /// arrivals that queued behind ~2^(k-1) requests' worth of work.
    pub queue_depth_hist: [u64; HIST_BUCKETS],
    /// Per-op-kind log2 histogram of *service time* (sojourn: arrival to
    /// engine completion, ns), one row per `op_slot`. This is the server
    /// side of the tail-latency story: queueing plus execution, before the
    /// response travels back.
    pub service_time_hist_by_op: [[u64; HIST_BUCKETS]; OP_KINDS],
    /// Scan chunk grains executed by the dual-lane scheduler (a never-yielded
    /// scan counts its whole dispatch as chunks too).
    pub scan_chunks: u64,
    /// Times a running scan was forced to yield at a chunk boundary because
    /// the latency lane went non-empty.
    pub scan_preemptions: u64,
    /// Background-reclamation pump firings (one per distinct lease-expiry
    /// instant, not one per write).
    pub reclaim_pumps: u64,
}

/// A secondary's remotely readable arena, registered with the primary so
/// hot GETs can export replica pointers (read spreading).
pub(crate) struct ReplicaExport {
    /// Fabric node hosting the replica (clients open per-node QPs).
    pub node: NodeId,
    /// The replica's registered arena region.
    pub region: RegionId,
    /// The replica engine, peeked at export time for offset/version match
    /// and lease pinning.
    pub engine: Rc<RefCell<ShardEngine>>,
}

/// The shard's skew-resilient read plane: a space-saving heat sketch that
/// identifies the hot key set, plus the replica-export registry used to
/// piggyback replica remote pointers on hot GET responses.
///
/// Consistency of exported pointers rests on three facts, each pinned by a
/// test elsewhere in the tree:
///
/// 1. **Export-time match** — a replica pointer is exported only when the
///    replica holds the key at the *same item version* as the primary, so
///    the pointer refers to exactly the value being returned.
/// 2. **Update invalidation** — applying an update on the replica runs the
///    same `replace_item` path as the primary: the superseded block's
///    guardian flips to `GUARD_DEAD` *immediately*, so every cached pointer
///    to it (client-side, any node) fails validation on its next fetch. The
///    version bits catch the residual ABA (block reused for the same key).
/// 3. **Lease pinning** — the primary pins the replica item's lease to the
///    expiry it granted ([`ShardEngine::pin_lease`]), so replica-side
///    reclamation honours exported leases exactly like local ones.
pub struct ReadPlane {
    heat: HeatSketch,
    exports: Vec<ReplicaExport>,
    spread: bool,
    threshold: u64,
    min_lease_ns: u64,
    /// Log2 histogram of per-key heat-sketch counts observed at GET time:
    /// the read-skew profile actually seen by this shard.
    pub heat_hist: [u64; HIST_BUCKETS],
    /// GET responses that carried a replica set.
    pub exported_sets: u64,
    /// Total replica pointers exported (≤ `exported_sets * MAX_EXPORT_PTRS`).
    pub exported_ptrs: u64,
}

impl ReadPlane {
    /// Builds a read plane; `spread` gates pointer export, the sketch always
    /// runs (it feeds the heat histogram and client-side admission parity).
    pub(crate) fn new(
        sketch_cap: usize,
        spread: bool,
        threshold: u64,
        min_lease_ns: u64,
    ) -> ReadPlane {
        ReadPlane {
            heat: HeatSketch::new(sketch_cap),
            exports: Vec::new(),
            spread,
            threshold,
            min_lease_ns: min_lease_ns.max(1),
            heat_hist: [0; HIST_BUCKETS],
            exported_sets: 0,
            exported_ptrs: 0,
        }
    }

    /// A plane that tracks heat but never exports (tests, baselines).
    pub fn disabled() -> ReadPlane {
        ReadPlane::new(16, false, u64::MAX, 1)
    }

    /// Drops every registered export (fail-over re-couples replicas).
    pub(crate) fn clear_exports(&mut self) {
        self.exports.clear();
    }

    /// Registers a secondary's arena for read spreading. Re-registering a
    /// replica (re-coupled after a resync) replaces its entry in place.
    pub(crate) fn add_export(&mut self, export: ReplicaExport) {
        let same = |e: &ReplicaExport| Rc::ptr_eq(&e.engine, &export.engine);
        match self.exports.iter().position(same) {
            Some(i) => self.exports[i] = export,
            None => self.exports.push(export),
        }
    }

    /// Records one GET against `key` in the sketch; returns whether the key
    /// is confidently hot (count minus sketch error beats the threshold).
    fn note_get(&mut self, key: &[u8]) -> bool {
        let hash = hydra_store::hash_key(key);
        let count = self.heat.touch(hash);
        self.heat_hist[log2_bucket(count)] += 1;
        self.heat.is_hot(hash, self.threshold)
    }

    /// Builds the replica set piggybacked on a hot GET response: one entry
    /// per replica currently holding `key` at the primary's item version,
    /// with the replica's lease pinned to the granted expiry.
    fn export(
        &mut self,
        now: SimTime,
        key: &[u8],
        info: &ItemInfo,
        hot: bool,
    ) -> Option<ReplicaSet> {
        if !self.spread || !hot || self.exports.is_empty() {
            return None;
        }
        let mut set = ReplicaSet::new(info.version);
        // Lease class: granted duration in units of the minimum lease. No
        // client reads it; the byte keeps the response layout.
        let lease_class =
            (info.lease_expiry.saturating_sub(now) / self.min_lease_ns).min(255) as u8;
        for ex in self.exports.iter().take(MAX_EXPORT_PTRS) {
            let mut eng = ex.engine.borrow_mut();
            let Some(rinfo) = eng.peek(key) else { continue };
            if rinfo.version != info.version {
                continue; // replica lags (or ran ahead): not this version
            }
            if !eng.pin_lease(key, info.lease_expiry) {
                continue;
            }
            set.push(ReplicaPtr {
                node: ex.node.0,
                lease_class,
                rptr: RemotePtr::new(ex.region.0, rinfo.off_words * 8, rinfo.read_len),
            });
        }
        self.exported_sets += 1;
        self.exported_ptrs += set.len() as u64;
        Some(set)
    }
}

/// Index of the latency lane (GET / PUT / DELETE) in the dual-lane scheduler.
const LAT: usize = 0;
/// Index of the throughput lane (scans and batch quanta).
const THR: usize = 1;
/// Deficit-round-robin credit each lane earns per scheduling round (ns of
/// shard-core time). Equal quanta: a saturated shard splits core time evenly
/// between point ops and scan/batch quanta; either lane may use the full
/// core when the other is idle (DRR is work-conserving).
const LANE_QUANTUM_NS: [SimTime; 2] = [4_000, 4_000];
/// Most bare point ops one sweep takes from a lane; a frame is a quantum of
/// its own, whatever it holds.
pub const SWEEP_MAX: usize = 16;

/// In-engine state of a scan executing in preemptible chunks: the response
/// accumulates across chunk executions and the cursor tracks the next key,
/// so a yielded scan resumes exactly where it stopped and the final wire
/// frame (items, `more` flag, count) is identical to an uninterrupted scan
/// over a quiescent engine.
struct ScanTask {
    conn_idx: usize,
    req_id: u64,
    /// Next key to walk from (original start, then `last_key + 0x00`).
    cursor: Vec<u8>,
    /// Items still allowed (starts at `limit.min(SCAN_QUANTUM_ITEMS)`).
    remaining: u32,
    /// Items already packed into `resp` by earlier chunks.
    served: u32,
    /// The response being framed in place (`scan_response_begin` applied):
    /// drawn from the shard's pool at the first chunk, sent as it stands.
    resp: Vec<u8>,
    arrived: SimTime,
}

/// One member of a quantum — a bare point op or a whole frame — taken from
/// its lane at dispatch.
struct Member {
    conn_idx: usize,
    payload: Vec<u8>,
    arrived: SimTime,
    /// When its response may leave: dispatch plus the prices of the
    /// members up to and including it.
    ready_at: SimTime,
}

/// A member's response on its way out: it leaves at the member's release
/// time, and a write that produced a record also waits for `acks`.
struct Release {
    conn_idx: usize,
    resp: Vec<u8>,
    acks: Option<AckGate>,
}

/// The acks a quantum's shipment still awaits, one per secondary. A
/// response whose time comes before them waits in [`ShardServer::held`].
type AckGate = Rc<Cell<usize>>;

/// Hands `v`'s allocation back emptied, for requests borrowing from other
/// payloads: every quantum decodes into the same buffer. (Collecting a
/// `Vec`'s own `into_iter` reuses its allocation.)
fn recycle<'b>(mut v: Vec<Request<'_>>) -> Vec<Request<'b>> {
    v.clear();
    v.into_iter().map(|_| unreachable!("cleared")).collect()
}

/// Deferred migration work executed once its shard-core charge has been
/// paid (a snapshot or drain quantum, or an inbound record batch).
pub(crate) type MigWork = Box<dyn FnOnce(&Rc<RefCell<ShardServer>>, &mut Sim)>;

/// One unit of work queued on a lane. The shard-core cost rides alongside
/// in the lane deque (it is fixed at enqueue time).
enum LaneTask {
    /// A request quantum's head — one bare point op or a whole batch frame
    /// — gathered into a sweep by [`ShardServer::take_sweep`] at dispatch.
    Quantum {
        conn_idx: usize,
        payload: Vec<u8>,
        arrived: SimTime,
        /// It carries a write.
        writes: bool,
        /// A bare point op's price as a member of a sweep of two or more;
        /// `None` for a frame, which never sweeps.
        swept_ns: Option<SimTime>,
    },
    /// A bare scan, executed in preemptible chunks.
    Scan(ScanTask),
    /// A dispatched quantum that runs when its slot ends, its members
    /// waiting in `ShardServer::sweep`.
    Late,
    /// A quantum that ran at dispatch, and the response due when its slot
    /// ends.
    Ran(Option<Release>),
    /// A migration quantum or inbound record batch (throughput lane: data
    /// movement shares bandwidth with scans and never blocks point ops).
    Mig(MigWork),
}

/// The task currently occupying the shard core under the dual-lane
/// scheduler (at most one at a time; lanes queue behind it).
struct Running {
    /// Completion (or, once preempted, yield-boundary) event.
    ev: EventId,
    start: SimTime,
    end: SimTime,
    /// Service time before the first item grain of this dispatch (scan
    /// descent or resume cost plus fixed per-op overheads); chunk boundaries
    /// step from `start + head_ns`.
    head_ns: SimTime,
    /// Set when a yield is armed: items this dispatch will have served by
    /// the boundary. Also marks the dispatch non-preemptible (one yield per
    /// dispatch; the remainder re-queues and can be preempted again there).
    yield_items: Option<u32>,
    task: LaneTask,
}

/// Deficit-round-robin dual-lane run queue (§ tail-latency isolation): the
/// latency lane holds point ops, the throughput lane scans and batch
/// quanta. Each lane earns `quantum` ns of credit per visit and serves its
/// FIFO head while the credit lasts, so point ops are isolated from
/// scan/batch head-of-line blocking while the throughput lane keeps a
/// configurable bandwidth share. Tasks are dispatched one at a time onto
/// the shard core; queued tasks live here, not in the core's reservation
/// queue, which is what makes scan preemption (releasing the core's
/// reserved tail) possible.
#[derive(Default)]
struct DualLaneSched {
    lanes: [VecDeque<(LaneTask, SimTime)>; 2],
    /// Sum of queued (undispatched) costs per lane — the scheduler's share
    /// of the backlog hint.
    queued_ns: [SimTime; 2],
    deficit: [SimTime; 2],
    current: usize,
    running: Option<Running>,
    /// A detection-latency pump is armed (arrival found the shard fully
    /// idle); further arrivals queue behind it instead of re-arming.
    pump_armed: bool,
}

impl DualLaneSched {
    /// Whether the shard is fully idle from the scheduler's point of view:
    /// nothing running, nothing queued, no detection pump pending.
    fn is_idle(&self) -> bool {
        self.running.is_none()
            && self.lanes[LAT].is_empty()
            && self.lanes[THR].is_empty()
            && !self.pump_armed
    }

    /// Total undispatched backlog across both lanes, in ns of shard-core time.
    fn queued_total(&self) -> SimTime {
        self.queued_ns[LAT] + self.queued_ns[THR]
    }

    fn enqueue(&mut self, lane: usize, task: LaneTask, cost: SimTime) {
        self.queued_ns[lane] += cost;
        self.lanes[lane].push_back((task, cost));
    }

    /// Re-queues a yielded scan remainder at the *front* of its lane: it
    /// already consumed throughput-lane credit, so it goes next when the
    /// lane is served again.
    fn push_front(&mut self, lane: usize, task: LaneTask, cost: SimTime) {
        self.queued_ns[lane] += cost;
        self.lanes[lane].push_front((task, cost));
    }

    /// DRR pick: serves the current lane's FIFO head while its deficit
    /// lasts, crediting `quantum[lane]` and rotating otherwise. Deficits
    /// reset when the queue fully drains, so an idle period never banks
    /// credit.
    fn next(&mut self, quantum: [SimTime; 2]) -> Option<(LaneTask, SimTime)> {
        if self.lanes[LAT].is_empty() && self.lanes[THR].is_empty() {
            self.deficit = [0; 2];
            return None;
        }
        loop {
            let lane = self.current;
            match self.lanes[lane].front() {
                None => {
                    self.deficit[lane] = 0;
                    self.current ^= 1;
                }
                Some((_, cost)) if self.deficit[lane] >= *cost => {
                    let (task, cost) = self.lanes[lane].pop_front().expect("non-empty head");
                    self.deficit[lane] -= cost;
                    self.queued_ns[lane] = self.queued_ns[lane].saturating_sub(cost);
                    return Some((task, cost));
                }
                Some(_) => {
                    self.deficit[lane] += quantum[lane].max(1);
                    self.current ^= 1;
                }
            }
        }
    }

    /// The pick [`Self::next`] would make after the one it just made, taken
    /// only when it comes from the same lane and `price` prices its head as
    /// a sweep member: the head is charged that price, not its queued cost.
    /// Stops (`None`) at a head `price` refuses, or when the lane's credit
    /// does not cover the head while the other lane has work — `next` would
    /// rotate there. With the other lane idle, `next` would credit this
    /// lane round by round until the head fits; so does this.
    fn next_member(
        &mut self,
        quantum: [SimTime; 2],
        price: impl Fn(&LaneTask) -> Option<SimTime>,
    ) -> Option<(LaneTask, SimTime)> {
        let lane = self.current;
        let swept = price(&self.lanes[lane].front()?.0)?;
        if self.deficit[lane] < swept {
            if !self.lanes[lane ^ 1].is_empty() {
                return None;
            }
            let q = quantum[lane].max(1);
            self.deficit[lane] += (swept - self.deficit[lane]).div_ceil(q) * q;
            self.deficit[lane ^ 1] = 0;
        }
        let (task, cost) = self.lanes[lane].pop_front().expect("non-empty head");
        self.deficit[lane] -= swept;
        self.queued_ns[lane] = self.queued_ns[lane].saturating_sub(cost);
        Some((task, swept))
    }

    /// Drops everything queued (shard crashed); returns the task count.
    fn clear_queued(&mut self) -> u64 {
        let n = (self.lanes[LAT].len() + self.lanes[THR].len()) as u64;
        self.lanes[LAT].clear();
        self.lanes[THR].clear();
        self.queued_ns = [0; 2];
        self.deficit = [0; 2];
        n
    }
}

/// Ownership checks consulted by the execution kernels while a migration is
/// installed on the shard. `wrong_owner` yields the directory generation for
/// a wire-level redirect when the *live* ring routes the key elsewhere (a
/// stale client pointer landed here after the flip); `owns` filters scan
/// items so moved-in copies stay invisible before the flip and moved-out
/// copies become invisible at it.
pub struct OwnershipGate<'g> {
    pub wrong_owner: &'g dyn Fn(&[u8]) -> Option<u64>,
    pub owns: &'g dyn Fn(&[u8]) -> bool,
}

/// Runs `f` under the ownership gate for `mig` (or with no gate when the
/// shard is not participating in a migration). The gate is self-deactivating:
/// it consults the live ring, so once a completed plan's ring is in place it
/// passes every key the shard owns.
pub(crate) fn with_gate<R>(
    mig: Option<&Rc<RefCell<MigrationState>>>,
    f: impl FnOnce(Option<&OwnershipGate<'_>>) -> R,
) -> R {
    match mig {
        Some(m) => {
            let wrong_owner = |k: &[u8]| m.borrow().wrong_owner(k);
            let owns = |k: &[u8]| m.borrow().owns(k);
            let gate = OwnershipGate {
                wrong_owner: &wrong_owner,
                owns: &owns,
            };
            f(Some(&gate))
        }
        None => f(None),
    }
}

/// What bounds one scan step besides the client's limit.
#[derive(Debug, Clone, Copy)]
pub struct ScanBounds {
    /// Most items a step returns: its quantum (`SCAN_QUANTUM_ITEMS`).
    pub items: u32,
    /// Payload bytes the connection's message slot carries: the response —
    /// with everything sharing its frame — must fit.
    pub slot_bytes: usize,
    /// Bytes of the slot spoken for by the responses still to come behind
    /// this one in the same frame (0 for a bare scan).
    pub reserved: usize,
}

impl ScanBounds {
    /// The bounds `cfg` puts on a scan answered in a payload of its own.
    pub fn of(cfg: &ClusterConfig) -> ScanBounds {
        ScanBounds {
            items: SCAN_QUANTUM_ITEMS,
            slot_bytes: frame::max_payload(cfg.msg_slot_words),
            reserved: 0,
        }
    }

    /// The least a response takes of a frame: what a scan step behind this
    /// one must be left with to answer at all.
    pub const MIN_RESPONSE: usize = BATCH_ENTRY_HDR + RESP_HDR + SCAN_ITEMS_HDR;
}

/// How a scan walk ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ScanEnd {
    /// Ran off the end of the shard's keys: nothing remains.
    Drained,
    /// Stopped at the item allowance (probing one item past it).
    Allowance,
    /// The next item did not fit the bytes left; `stuck` when it would not
    /// fit a response of its own either, so no continuation can pass it.
    Full { stuck: bool },
}

/// The one scan walk, under the bare scan's chunks and the in-frame scan
/// alike: appends the items from `cursor` on to the scan response open at the
/// end of `out` — at most `bounds.items` of them (the caller has narrowed
/// that to what this step may still return), skipping what the live ring
/// routes elsewhere, stopping before the one that would grow `out` past
/// what `bounds` leaves it — and reports how many it appended and why it
/// stopped. `last_key`, when asked for, receives the last appended key.
fn pack_scan_items(
    engine: &mut ShardEngine,
    cursor: &[u8],
    scratch: &mut Vec<u8>,
    owns: impl Fn(&[u8]) -> bool,
    bounds: ScanBounds,
    out: &mut Vec<u8>,
    mut last_key: Option<&mut Vec<u8>>,
) -> (u32, ScanEnd) {
    let cap = bounds.slot_bytes.saturating_sub(bounds.reserved);
    let sole = bounds
        .slot_bytes
        .saturating_sub(BATCH_HDR + ScanBounds::MIN_RESPONSE);
    let mut count = 0u32;
    let mut end = ScanEnd::Drained;
    engine.scan_into(cursor, scratch, |k, v| {
        if count == bounds.items {
            end = ScanEnd::Allowance;
            return false;
        }
        if !owns(k) {
            return true; // not ours under the live ring: skip
        }
        let entry = SCAN_ENTRY_HDR + k.len() + v.len();
        if out.len() + entry > cap {
            end = ScanEnd::Full {
                stuck: entry > sole,
            };
            return false;
        }
        scan_items_push(out, k, v);
        if let Some(last) = last_key.as_deref_mut() {
            last.clear();
            last.extend_from_slice(k);
        }
        count += 1;
        true
    });
    (count, end)
}

/// Completes the scan response open at `at` in `out` after a walk that
/// ended in `end` with `served` items appended in all. A scan stuck on its
/// first item — one too large for any response — answers `Error` instead
/// of an empty list the client would follow forever.
fn finish_scan_response(out: &mut Vec<u8>, at: usize, req_id: u64, served: u32, end: ScanEnd) {
    if served == 0 && end == (ScanEnd::Full { stuck: true }) {
        out.truncate(at);
        Response::status_only(Status::Error, req_id).encode_into(out);
    } else {
        scan_response_finish(out, at, end != ScanEnd::Drained, served);
    }
}

/// Applies one decoded request to `engine`, appending the encoded response
/// to `out`. Returns the replication action for successful writes.
///
/// This is the execution kernel [`ShardServer`]'s quantum runs every request
/// through but the UPDATEs it absorbs, so a quantum is behaviourally
/// identical to its requests applied one at a time by construction; the
/// quantum-vs-sequential property tests in `tests/` pin that down. `scratch` is the reused GET
/// value buffer; `scan` bounds what one SCAN may return, its items going
/// straight into `out`. The returned slices borrow from the request payload,
/// never from the engine.
#[allow(clippy::too_many_arguments)]
pub fn apply_request<'a>(
    engine: &mut ShardEngine,
    now: SimTime,
    req: &Request<'a>,
    arena_region: RegionId,
    scratch: &mut Vec<u8>,
    scan: ScanBounds,
    plane: &mut ReadPlane,
    gate: Option<&OwnershipGate<'_>>,
    out: &mut Vec<u8>,
) -> Option<(LogOp, &'a [u8], &'a [u8])> {
    let req_id = req.req_id();
    let redirect = point_key(req).and_then(|key| gate.and_then(|g| (g.wrong_owner)(key)));
    if let Some(generation) = redirect {
        Response::wrong_owner(req_id, generation).encode_into(out);
        return None;
    }
    let (done, record) = match req {
        Request::Get { key, .. } => {
            match engine.get_into(now, key, scratch) {
                Some(info) => {
                    let hot = plane.note_get(key);
                    let replicas = plane.export(now, key, &info, hot);
                    Response {
                        status: Status::Ok,
                        req_id,
                        value: scratch,
                        rptr: RemotePtr::new(arena_region.0, info.off_words * 8, info.read_len),
                        lease_expiry: info.lease_expiry,
                        replicas,
                    }
                    .encode_into(out)
                }
                None => {
                    plane.note_get(key);
                    Response::status_only(Status::NotFound, req_id).encode_into(out)
                }
            }
            return None;
        }
        Request::Insert { key, value, .. } => (
            engine.insert(now, key, value).map(drop),
            (LogOp::Put, *key, *value),
        ),
        Request::Update { key, value, .. } => (
            engine.update(now, key, value).map(drop),
            (LogOp::Put, *key, *value),
        ),
        Request::Delete { key, .. } => (engine.delete(now, key), (LogOp::Delete, *key, &[][..])),
        Request::Scan { start, limit, .. } => {
            // Read-only: walk the ordered index from `start`, pack up to
            // `min(limit, quantum)` items that fit the slot, and flag
            // truncation so the client can continue from its last key. The
            // quantum keeps a long range from occupying the core past its
            // budget; the slot is what the response travels in.
            let at = scan_response_begin(out, req_id);
            let owns = |k: &[u8]| gate.is_none_or(|g| (g.owns)(k));
            let step = ScanBounds {
                items: (*limit).min(scan.items),
                ..scan
            };
            let (count, end) = pack_scan_items(engine, start, scratch, owns, step, out, None);
            finish_scan_response(out, at, req_id, count, end);
            return None;
        }
    };
    // A write answers its outcome and, done, yields its replication record.
    let status = match done {
        Ok(()) => Status::Ok,
        Err(EngineError::Exists) => Status::Exists,
        Err(EngineError::NotFound) => Status::NotFound,
        Err(_) => Status::Error,
    };
    Response::status_only(status, req_id).encode_into(out);
    done.is_ok().then_some(record)
}

/// Replication records produced by a quantum: one `(op, key, value)` triple
/// per successful write, borrowing the request payloads.
type ReplRecords<'a> = Vec<(LogOp, &'a [u8], &'a [u8])>;

/// One client connection as seen by the server: where its responses go.
/// Under Send/Recv its requests arrive through the client channel's recv
/// handler, which names the connection by its index; the transport is the
/// cluster's ([`ShardServer::send_recv`]).
pub(crate) struct ServerConn {
    /// The channel's QP — shared with other partitions under
    /// [`ClusterConfig::mux_connections`].
    pub qp: QpId,
    /// Request buffer (registered on the server's node). Unused in
    /// Send/Recv mode.
    pub req_mem: Arc<[AtomicU64]>,
    /// The client's response buffer region (on the client's node).
    pub resp_region: RegionId,
    /// Invoked after the response write is delivered — the client's
    /// polling-loop kick.
    pub client_kick: Rc<dyn Fn(&mut Sim)>,
}

/// A shard server instance. Wrapped in `Rc<RefCell<..>>` by the cluster.
pub struct ShardServer {
    pub id: ShardId,
    pub node: NodeId,
    pub engine: Rc<RefCell<ShardEngine>>,
    /// The arena registered for one-sided client reads.
    pub arena_region: RegionId,
    pub(crate) cfg: Rc<ClusterConfig>,
    /// Shard core (the dispatcher under the decoupled ablation models).
    cpu: FifoResource,
    /// Hand-off cores of the decoupled ablation models (`None` for the
    /// single-threaded shard).
    decoupled: Option<Decoupled>,
    pub(crate) conns: Vec<ServerConn>,
    /// Replication channels to this shard's secondaries.
    pub(crate) repl: Vec<ReplicationPair>,
    pub alive: bool,
    fab: Fabric,
    stats: ServerStats,
    /// The armed reclamation pump, if any, and when it fires (lazy GC
    /// scheduling).
    reclaim_armed: Option<(SimTime, EventId)>,
    /// Reused GET value buffer — steady-state GETs allocate nothing for the
    /// value copy.
    get_scratch: Vec<u8>,
    /// Response buffers back from the wire: a response is built in one of
    /// these and returns here once framed, so steady-state responses —
    /// scan responses, which grow item by item, above all — neither
    /// allocate nor regrow.
    resp_pool: Vec<Vec<u8>>,
    /// Reused response-batch builder for the quantum path.
    resp_batch: BatchBuilder,
    /// Heat tracking + replica pointer export (read spreading).
    plane: ReadPlane,
    /// The shard core's run queue.
    sched: DualLaneSched,
    /// The quantum on the core: filled from a lane by [`Self::take_sweep`],
    /// emptied by [`Self::execute`], its capacity kept for the next one.
    sweep: Vec<Member>,
    /// The quantum's decoded requests, emptied between quanta (see
    /// [`recycle`]).
    reqs: Vec<Request<'static>>,
    /// Responses whose time came before the acks of their quantum's
    /// shipment, with the gate that holds them (connection, bytes), in the
    /// order their time came.
    held: Vec<(AckGate, usize, Vec<u8>)>,
    /// Live-migration bookkeeping while this shard participates in a plan
    /// (source or destination); provides the ownership gate and the
    /// double-write forwarding hook. Carried across fail-over by promotion.
    pub(crate) mig: Option<Rc<RefCell<MigrationState>>>,
}

impl ShardServer {
    /// Creates a shard bound to `node`, registering its arena with the
    /// fabric.
    pub(crate) fn new(
        id: ShardId,
        node: NodeId,
        fab: &Fabric,
        cfg: Rc<ClusterConfig>,
    ) -> Rc<RefCell<ShardServer>> {
        let engine = Rc::new(RefCell::new(ShardEngine::new(hydra_store::EngineConfig {
            arena_words: cfg.arena_words,
            write_mode: cfg.write_mode,
            min_lease_ns: cfg.min_lease_ns,
            max_lease_ns: cfg.max_lease_ns,
            ..hydra_store::EngineConfig::default()
        })));
        let arena_region = fab.register_paged(node, engine.borrow().memory(), cfg.page_bytes);
        let plane = ReadPlane::new(
            cfg.heat_sketch_cap,
            cfg.replica_read_spread,
            cfg.hot_read_threshold,
            cfg.min_lease_ns,
        );
        Rc::new(RefCell::new(ShardServer {
            id,
            node,
            engine,
            arena_region,
            cpu: FifoResource::new(format!("shard{}.core", id.0)),
            decoupled: Decoupled::new(cfg.exec_model, id),
            cfg,
            conns: Vec::new(),
            repl: Vec::new(),
            alive: true,
            fab: fab.clone(),
            stats: ServerStats::default(),
            reclaim_armed: None,
            get_scratch: Vec::new(),
            resp_pool: Vec::new(),
            resp_batch: BatchBuilder::new(),
            plane,
            sched: DualLaneSched::default(),
            sweep: Vec::new(),
            reqs: Vec::new(),
            held: Vec::new(),
            mig: None,
        }))
    }

    /// Attaches a replication channel to a secondary.
    pub(crate) fn add_replica(&mut self, pair: ReplicationPair) {
        self.repl.push(pair);
    }

    /// Registers a secondary's arena for hot-key pointer export.
    pub(crate) fn add_replica_export(&mut self, export: ReplicaExport) {
        self.plane.add_export(export);
    }

    /// Drops all registered exports (fail-over re-couples the group).
    pub(crate) fn clear_replica_exports(&mut self) {
        self.plane.clear_exports();
    }

    /// The read-skew histogram observed by this shard (log2 buckets of
    /// per-key sketch counts at GET time).
    pub fn read_heat_hist(&self) -> [u64; HIST_BUCKETS] {
        self.plane.heat_hist
    }

    /// (responses carrying a replica set, total replica pointers exported).
    pub fn export_counters(&self) -> (u64, u64) {
        (self.plane.exported_sets, self.plane.exported_ptrs)
    }

    /// Registers a client connection; returns its index (used by the
    /// client's kick closures).
    pub(crate) fn add_conn(&mut self, conn: ServerConn) -> usize {
        self.conns.push(conn);
        self.conns.len() - 1
    }

    /// Operation counters.
    pub fn stats(&self) -> ServerStats {
        self.stats
    }

    /// Utilization of the shard core over the window since reset.
    pub fn cpu_utilization(&self, now: SimTime) -> f64 {
        self.cpu.utilization(now)
    }

    /// Restarts CPU accounting (after warm-up).
    pub fn reset_cpu_window(&mut self, now: SimTime) {
        self.cpu.reset_window(now);
        if let Some(d) = &mut self.decoupled {
            d.reset_window(now);
        }
    }

    /// Shard-core cost of `req` itself, without the per-arrival sweep step
    /// and response post. Requests sharing a quantum (`batched`) are priced
    /// as the modelled shard serves them, overlapping their index and
    /// allocation misses ([`costs::BATCH_PROBE_FACTOR`],
    /// [`costs::BATCH_WRITE_FACTOR`]); value copies stay serial.
    fn item_cost(&self, req: &Request<'_>, batched: bool) -> SimTime {
        let (probe, write) = if batched {
            (costs::BATCH_PROBE_FACTOR, costs::BATCH_WRITE_FACTOR)
        } else {
            (1.0, 1.0)
        };
        let base = match req {
            Request::Get { .. } => (costs::GET_NS as f64 * probe).round() as SimTime,
            Request::Insert { value, .. } | Request::Update { value, .. } => {
                (costs::WRITE_NS as f64 * write).round() as SimTime
                    + (value.len() as f64 * costs::PER_BYTE_NS).round() as SimTime
            }
            Request::Delete { .. } => costs::DELETE_NS,
            Request::Scan { limit, .. } => scan_cost(*limit),
        };
        // Two-sided transports make the server CPU shepherd every message
        // through the receive queue (§4.2.1 / HERD).
        base + costs::RECV_CPU_NS * SimTime::from(self.send_recv())
    }

    /// Shard-core cost of an absorbed UPDATE ([`absorbed`]): the GET probe
    /// that decides its answer.
    fn probe_cost(&self, batched: bool) -> SimTime {
        self.item_cost(
            &Request::Get {
                req_id: 0,
                key: &[],
            },
            batched,
        )
    }

    /// Whether clients run the two-sided Send/Recv protocol (the §6.2
    /// baseline) instead of RDMA-Write message passing.
    fn send_recv(&self) -> bool {
        !self.cfg.client_mode.rdma_write()
    }

    /// Delay before an idle shard notices an arrival: the sweep position
    /// and the sleep backoff. A busy shard detects for free — its loop
    /// re-polls right after finishing, and queueing dominates.
    fn detection_ns(&self) -> SimTime {
        costs::POLL_NS * (self.conns.len() as u64 / 2) + self.cfg.sleep_backoff_ns.unwrap_or(0) / 2
    }

    /// Entry point for RDMA-Write mode: a request frame has landed in
    /// connection `conn_idx`'s buffer. Polls it out and admits it.
    pub(crate) fn on_request(this: &Rc<RefCell<ShardServer>>, sim: &mut Sim, conn_idx: usize) {
        let payload = {
            let mut s = this.borrow_mut();
            if !s.alive {
                s.stats.dropped_while_dead += 1;
                return;
            }
            let conn = &s.conns[conn_idx];
            match frame::poll_message(&conn.req_mem) {
                Ok(Some(p)) => {
                    frame::consume_message(&conn.req_mem, p.len());
                    p
                }
                Ok(None) => return, // spurious kick (already drained)
                Err(_) => {
                    // Nothing says how long the frame was meant to be:
                    // clear the whole slot, head word last, so the sender
                    // finds it free again.
                    for w in conn.req_mem.iter().rev() {
                        w.store(0, Ordering::Release);
                    }
                    s.stats.malformed += 1;
                    return;
                }
            }
        };
        Self::on_request_payload(this, sim, conn_idx, payload);
    }

    /// Admission: every arriving payload — one bare request or a batch
    /// frame, over either transport (Send/Recv payloads arrive here straight
    /// from the verbs receive queue) — becomes one lane task. The decoupled
    /// ablation models branch off here and nowhere else. This is also where
    /// bytes from outside are judged: a payload that does not decode whole
    /// is dropped and counted before any cost is charged, so everything
    /// downstream may `expect` what it decodes again.
    pub fn on_request_payload(
        this: &Rc<RefCell<ShardServer>>,
        sim: &mut Sim,
        conn_idx: usize,
        payload: Vec<u8>,
    ) {
        let (lane, task, cost) = {
            let mut s = this.borrow_mut();
            if !s.alive {
                s.stats.dropped_while_dead += 1;
                return;
            }
            if !well_formed(&payload) {
                s.stats.malformed += 1;
                return;
            }
            if s.decoupled.is_some() {
                drop(s);
                return decoupled::admit(this, sim, conn_idx, payload);
            }
            s.admit(sim.now(), conn_idx, payload)
        };
        Self::enqueue(this, sim, lane, task, cost);
    }

    /// Decodes an arrival, prices it, samples the queue-depth histograms and
    /// classifies it into a lane. A bare message pays its own sweep step and
    /// response WQE; a frame's requests share one of each and run at the
    /// batched marginal cost, but for an UPDATE the frame overwrites
    /// ([`absorbed`]), which costs the probe that decides its answer. A bare
    /// point op also carries its price as a member of a sweep: its own step
    /// and WQE, at the batched marginal cost.
    fn admit(
        &mut self,
        now: SimTime,
        conn_idx: usize,
        payload: Vec<u8>,
    ) -> (usize, LaneTask, SimTime) {
        let batched = BatchFrame::is_batch(&payload);
        let fixed = costs::POLL_NS + self.cfg.post_wqe_ns;
        let own_fixed = if batched { 0 } else { fixed };
        // Queue depth at arrival ≈ core backlog (running task) plus both
        // lanes' undispatched work, over the request's cost.
        let backlog = self.cpu.free_at().saturating_sub(now) + self.sched.queued_total();
        let mut reqs = recycle(std::mem::take(&mut self.reqs));
        let decode = |msg| Request::decode(msg).expect("admission validated it");
        reqs.extend(messages(&payload).map(decode));
        let (mut total, n) = (0, reqs.len() as u64);
        // Whether the arrival carries a write; what a bare one turned out to
        // be (a scan?) and what it costs as a member of a sweep.
        let (mut scan, mut writes, mut swept) = (None, false, 0);
        for (i, req) in reqs.iter().enumerate() {
            let cost = if absorbed(&reqs, i) {
                self.probe_cost(batched)
            } else {
                self.item_cost(req, batched)
            };
            total += cost;
            writes |= is_write(req);
            if !batched {
                swept = fixed + self.item_cost(req, true);
                if let Request::Scan {
                    req_id,
                    start,
                    limit,
                } = req
                {
                    scan = Some((*req_id, start.to_vec(), *limit));
                }
            }
        }
        self.reqs = recycle(reqs);
        self.stats.requests += n;
        if batched {
            self.stats.batches += 1;
            self.stats.batched_requests += n;
        }
        // One depth sample per arrival, against the mean per-request cost.
        let mean_cost = total / n.max(1) + own_fixed;
        self.stats.queue_depth_hist[log2_bucket(backlog / mean_cost.max(1))] += 1;
        let cost = fixed + total;
        // A bare scan runs in preemptible chunks on the throughput lane; a
        // frame rides it whole (one frame, one dispatch — batches never
        // preempt and are never preempted); every other bare request is a
        // latency-lane point op. FIFO service is the same scheduler with
        // every task in one lane: arrival order, nothing to preempt for.
        if let Some((req_id, cursor, limit)) = scan {
            let task = LaneTask::Scan(ScanTask {
                conn_idx,
                req_id,
                cursor,
                remaining: limit.min(SCAN_QUANTUM_ITEMS),
                served: 0,
                resp: Vec::new(),
                arrived: now,
            });
            return (THR, task, cost);
        }
        let one_lane = matches!(self.cfg.scheduler, SchedulerKind::Fifo);
        let lane = if batched || one_lane { THR } else { LAT };
        let task = LaneTask::Quantum {
            conn_idx,
            payload,
            arrived: now,
            writes,
            swept_ns: (!batched).then_some(swept),
        };
        (lane, task, cost)
    }

    /// Queues a task on `lane` and kicks the scheduler: a fully idle shard
    /// pays the detection latency via an armed pump; a busy shard just
    /// queues — the completion event re-pumps for free. Latency-lane
    /// arrivals additionally force a running scan to its next chunk
    /// boundary.
    fn enqueue(
        this: &Rc<RefCell<ShardServer>>,
        sim: &mut Sim,
        lane: usize,
        task: LaneTask,
        cost: SimTime,
    ) {
        let now = sim.now();
        let armed_at = {
            let mut s = this.borrow_mut();
            let idle = s.sched.is_idle() && s.cpu.idle_at(now);
            s.sched.enqueue(lane, task, cost);
            if idle {
                s.sched.pump_armed = true;
                Some(now + s.detection_ns())
            } else {
                if lane == LAT {
                    Self::preempt_running_scan(&mut s, sim, now, this);
                }
                None
            }
        };
        if let Some(at) = armed_at {
            let this2 = this.clone();
            sim.schedule_at(at, move |sim| {
                this2.borrow_mut().sched.pump_armed = false;
                Self::pump(&this2, sim);
            });
        }
    }

    /// If the task occupying the core is a not-yet-preempted scan, truncate
    /// its reservation at the next chunk boundary at or after `now` and
    /// re-aim its event there: the covered chunks execute at the boundary,
    /// the remainder re-queues, and the freed tail serves the latency lane.
    fn preempt_running_scan(
        s: &mut ShardServer,
        sim: &mut Sim,
        now: SimTime,
        this: &Rc<RefCell<ShardServer>>,
    ) {
        let Some(mut r) = s.sched.running.take() else {
            return;
        };
        if matches!(r.task, LaneTask::Scan(_)) && r.yield_items.is_none() {
            let chunk_items = s.cfg.scan_chunk_items.max(1) as u64;
            let chunk_ns = chunk_items * costs::SCAN_ITEM_NS;
            let head_end = r.start + r.head_ns;
            // Smallest whole-chunk boundary at or after the arrival (at
            // least one chunk completes per dispatch, so a scan always
            // makes progress).
            let k = if now <= head_end {
                1
            } else {
                (now - head_end).div_ceil(chunk_ns).max(1)
            };
            let boundary = head_end + k * chunk_ns;
            // A boundary at or past the dispatch end means the scan is
            // nearly done: let it finish (k × chunk ≥ remaining items).
            if boundary < r.end {
                sim.cancel(r.ev);
                s.cpu.preempt_tail(boundary);
                s.stats.scan_preemptions += 1;
                r.end = boundary;
                r.yield_items = Some((k * chunk_items) as u32);
                let this2 = this.clone();
                r.ev = sim.schedule_at(boundary, move |sim| {
                    Self::on_task_complete(&this2, sim);
                });
            }
        }
        s.sched.running = Some(r);
    }

    /// Dispatches the next DRR pick onto the (idle) shard core. At most one
    /// task runs at a time; its completion event re-pumps. A request quantum
    /// gathers its sweep and runs here, at dispatch — unless it holds a
    /// write its secondaries may see only after the local merge (`Strict`,
    /// `Logging`: the execute-then-replicate order, DESIGN §14), which runs
    /// when its slot ends.
    fn pump(this: &Rc<RefCell<ShardServer>>, sim: &mut Sim) {
        let mut s = this.borrow_mut();
        if s.sched.running.is_some() {
            return;
        }
        if !s.alive {
            let dropped = s.sched.clear_queued();
            s.stats.dropped_while_dead += dropped;
            return;
        }
        let Some((task, cost)) = s.sched.next(LANE_QUANTUM_NS) else {
            return;
        };
        let now = sim.now();
        let (task, cost, run_now) = match task {
            LaneTask::Quantum { .. } => {
                let (cost, writes) = s.take_sweep(now, task, cost);
                let late = writes && !s.repl.is_empty() && !s.cfg.replication.overlaps_merge();
                (LaneTask::Late, cost, !late)
            }
            t => (t, cost, false),
        };
        let done = s.cpu.acquire(now, cost);
        let head_ns = match &task {
            LaneTask::Scan(t) => cost.saturating_sub(t.remaining as SimTime * costs::SCAN_ITEM_NS),
            _ => 0,
        };
        let this2 = this.clone();
        let ev = sim.schedule_at(done, move |sim| {
            Self::on_task_complete(&this2, sim);
        });
        drop(s);
        let task = if run_now {
            LaneTask::Ran(Self::execute(this, sim))
        } else {
            task
        };
        this.borrow_mut().sched.running = Some(Running {
            ev,
            start: now,
            end: done,
            head_ns,
            yield_items: None,
            task,
        });
    }

    /// Gathers the quantum `first` (just picked, charged `cost`) heads into
    /// `self.sweep`; returns its price and whether it holds a write. A frame
    /// is a quantum of its own. A bare point op also takes the bare point
    /// ops [`DualLaneSched::next_member`] hands over from the same lane, up
    /// to [`SWEEP_MAX`] in all; with two or more, each is charged its
    /// sweep price — an UPDATE the sweep overwrites ([`absorbed`]) the probe
    /// that decides its answer, the lane getting the difference back — and
    /// alone it keeps its singleton cost. Each member may answer at
    /// dispatch plus the prices up to and including its own.
    fn take_sweep(&mut self, now: SimTime, first: LaneTask, cost: SimTime) -> (SimTime, bool) {
        let swept_ns = |t: &LaneTask| match t {
            LaneTask::Quantum { swept_ns, .. } => *swept_ns,
            _ => None,
        };
        let lane = self.sched.current;
        let (mut price, mut second) = (cost, None);
        if let Some(swept) = swept_ns(&first) {
            // The head is charged its sweep price if anything joins it.
            self.sched.deficit[lane] += cost - swept;
            second = self.sched.next_member(LANE_QUANTUM_NS, swept_ns);
            match second {
                Some(_) => price = swept,
                None => self.sched.deficit[lane] -= cost - swept,
            }
        }
        let more = if second.is_some() { SWEEP_MAX - 2 } else { 0 };
        let rest = std::iter::from_fn(|| self.sched.next_member(LANE_QUANTUM_NS, swept_ns));
        let mut members = std::mem::take(&mut self.sweep);
        let mut prices = [0; SWEEP_MAX];
        let mut writes = false;
        for (task, price) in [(first, price)]
            .into_iter()
            .chain(second)
            .chain(rest.take(more))
        {
            let LaneTask::Quantum {
                conn_idx,
                payload,
                arrived,
                writes: w,
                ..
            } = task
            else {
                unreachable!("quantum members are request quanta");
            };
            prices[members.len()] = price;
            writes |= w;
            members.push(Member {
                conn_idx,
                payload,
                arrived,
                ready_at: now,
            });
        }
        if members.len() > 1 {
            let mut reqs = recycle(std::mem::take(&mut self.reqs));
            let decode = |msg| Request::decode(msg).expect("validated on arrival");
            reqs.extend(members.iter().map(|m| decode(&m.payload)));
            let probe = costs::POLL_NS + self.cfg.post_wqe_ns + self.probe_cost(true);
            for (i, price) in prices[..members.len()].iter_mut().enumerate() {
                if absorbed(&reqs, i) {
                    self.sched.deficit[lane] += *price - probe;
                    *price = probe;
                }
            }
            self.reqs = recycle(reqs);
        }
        let mut total = 0;
        for (m, price) in members.iter_mut().zip(prices) {
            total += price;
            m.ready_at = now + total;
        }
        self.sweep = members;
        (total, writes)
    }

    /// The dispatched task reached the end of its core slot (or, for a
    /// preempted scan, its yield boundary): run or answer what is due, then
    /// pump the next pick.
    fn on_task_complete(this: &Rc<RefCell<ShardServer>>, sim: &mut Sim) {
        let r = this.borrow_mut().sched.running.take();
        let Some(r) = r else { return };
        match r.task {
            LaneTask::Late => {
                Self::execute(this, sim);
            }
            LaneTask::Ran(due) => {
                if let Some(due) = due {
                    Self::release(this, sim, due);
                }
            }
            LaneTask::Scan(task) => Self::run_scan(this, sim, task, r.yield_items),
            LaneTask::Mig(work) => {
                if this.borrow().alive {
                    work(this, sim)
                }
            }
            LaneTask::Quantum { .. } => unreachable!("a quantum is dispatched as a sweep"),
        }
        Self::pump(this, sim);
    }

    /// Charges `cost` of shard-core time on the throughput lane, then runs
    /// `work` — migration quanta share bandwidth with scans/batches and
    /// point-op tails stay isolated. Dropped silently if the shard is (or
    /// goes) dead — the migration engine's stall guard turns the missing
    /// progress into an abort.
    pub(crate) fn run_on_core(
        this: &Rc<RefCell<ShardServer>>,
        sim: &mut Sim,
        cost: SimTime,
        work: MigWork,
    ) {
        if this.borrow().alive {
            Self::enqueue(this, sim, THR, LaneTask::Mig(work), cost);
        }
    }

    /// Applies inbound migration records at a destination shard: Put
    /// upserts, Delete removes-if-present (merge semantics — a forwarded
    /// write may come before or after the walk's record of its key). The
    /// records then replicate to this shard's own secondaries and
    /// `on_applied` fires (the channel's applied counter, which the flip's
    /// quiescence check reads).
    pub(crate) fn apply_migration_records(
        this: &Rc<RefCell<ShardServer>>,
        sim: &mut Sim,
        records: Vec<(LogOp, Vec<u8>, Vec<u8>)>,
        on_applied: Box<dyn FnOnce(&mut Sim)>,
    ) {
        if records.is_empty() {
            on_applied(sim);
            return;
        }
        if !this.borrow().alive {
            return;
        }
        let cost = records
            .iter()
            .map(|(op, _k, v)| match op {
                LogOp::Delete => costs::DELETE_NS,
                _ => costs::WRITE_NS + (v.len() as f64 * costs::PER_BYTE_NS).round() as SimTime,
            })
            .sum::<SimTime>()
            + costs::POLL_NS;
        Self::run_on_core(
            this,
            sim,
            cost,
            Box::new(move |this, sim| {
                let pairs = {
                    let s = this.borrow_mut();
                    let now = sim.now();
                    let engine_rc = s.engine.clone();
                    let mut engine = engine_rc.borrow_mut();
                    for (op, k, v) in &records {
                        match op {
                            LogOp::Delete => {
                                let _ = engine.delete(now, k);
                            }
                            _ => {
                                engine
                                    .put(now, k, v)
                                    .expect("destination arena sized for migration");
                            }
                        }
                    }
                    drop(engine);
                    s.repl.clone()
                };
                if !pairs.is_empty() {
                    let borrowed: Vec<(LogOp, &[u8], &[u8])> = records
                        .iter()
                        .map(|(op, k, v)| (*op, k.as_slice(), v.as_slice()))
                        .collect();
                    for pair in &pairs {
                        pair.replicate_batch(sim, &borrowed, None)
                            .expect("migrated records bounded by msg slot, fit repl ring");
                    }
                }
                on_applied(sim);
            }),
        );
    }

    /// A scan dispatch reached the end of its slot. Un-preempted
    /// (`yield_items` is `None`) it serves its whole remaining allowance,
    /// probes one item past it for the `more` flag — the same callback
    /// contract as [`apply_request`], so the wire frame is byte-identical
    /// over a quiescent engine — and responds. Preempted, it serves the
    /// chunks covered up to the yield boundary, then either finishes (range
    /// drained ⇒ `more = false`; the freed tail already serves the latency
    /// lane) or re-queues the remainder at the front of the throughput lane
    /// with the cheaper resume cost.
    fn run_scan(
        this: &Rc<RefCell<ShardServer>>,
        sim: &mut Sim,
        mut task: ScanTask,
        yield_items: Option<u32>,
    ) {
        let mut s = this.borrow_mut();
        if !s.alive {
            return;
        }
        let allowance = yield_items.map_or(task.remaining, |y| y.min(task.remaining));
        if task.resp.is_empty() {
            task.resp = s.resp_pool.pop().unwrap_or_default();
            scan_response_begin(&mut task.resp, task.req_id);
        }
        let engine_rc = s.engine.clone();
        let mig = s.mig.clone();
        let mut scratch = std::mem::take(&mut s.get_scratch);
        let mut last_key: Vec<u8> = Vec::new();
        let (count, end) = pack_scan_items(
            &mut engine_rc.borrow_mut(),
            &task.cursor,
            &mut scratch,
            |k| mig.as_ref().is_none_or(|m| m.borrow().owns(k)),
            ScanBounds {
                items: allowance,
                ..ScanBounds::of(&s.cfg)
            },
            &mut task.resp,
            yield_items.is_some().then_some(&mut last_key),
        );
        s.get_scratch = scratch;
        task.served += count;
        task.remaining -= count;
        let chunk = s.cfg.scan_chunk_items.max(1) as u64;
        s.stats.scan_chunks += (count as u64).div_ceil(chunk).max(1);
        if yield_items.is_some() && end == ScanEnd::Allowance {
            last_key.push(0);
            task.cursor = last_key;
            let cost = costs::SCAN_RESUME_NS + task.remaining as SimTime * costs::SCAN_ITEM_NS;
            s.sched.push_front(THR, LaneTask::Scan(task), cost);
            return;
        }
        finish_scan_response(&mut task.resp, 0, task.req_id, task.served, end);
        s.stats.scans += 1;
        s.stats.service_time_hist_by_op[5][log2_bucket(sim.now().saturating_sub(task.arrived))] +=
            1;
        drop(s);
        Self::maybe_schedule_reclaim(this, sim);
        Self::send_response_frame(this, sim, task.conn_idx, task.resp);
    }

    /// The one quantum executor: runs the members [`Self::take_sweep`] left
    /// in `self.sweep` — a frame, or up to [`SWEEP_MAX`] bare point ops
    /// from any connections — now, as one [`run_quantum`](Self::run_quantum)
    /// in queue order, ships their writes' records in one shipment per
    /// secondary, and answers each member in the shape it asked: a bare
    /// response, or one response frame carrying all of a frame's answers in
    /// request order.
    ///
    /// A member's response leaves at its `ready_at`; one that produced a
    /// record also waits for the acks covering the shipment. Whatever is
    /// due by now leaves now (a late quantum, the decoupled models); the
    /// one due when the slot ends is returned for the completion event to
    /// release before the next pick; the rest are scheduled.
    ///
    /// Hot-path contract: requests are decoded once here and their
    /// key/value slices stay borrowed from the payloads end to end — the
    /// engine copies into its arena where it must, replication reads the
    /// borrowed slices directly, and GET values land in a per-shard scratch
    /// buffer reused across requests. No per-request `to_vec()`.
    fn execute(this: &Rc<RefCell<ShardServer>>, sim: &mut Sim) -> Option<Release> {
        let now = sim.now();
        let mut members = std::mem::take(&mut this.borrow_mut().sweep);
        let mut out: [Option<Release>; SWEEP_MAX] = Default::default();
        let (records, forwards, pairs, acks) = {
            let mut s = this.borrow_mut();
            if !s.alive {
                members.clear();
                s.sweep = members;
                return None;
            }
            let s = &mut *s;
            let mut reqs = recycle(std::mem::take(&mut s.reqs));
            for m in &members {
                let from = reqs.len();
                let decode = |msg| Request::decode(msg).expect("validated on arrival");
                reqs.extend(messages(&m.payload).map(decode));
                // A member's requests complete when its response is due.
                let bucket = log2_bucket(m.ready_at.saturating_sub(m.arrived));
                for req in &reqs[from..] {
                    s.stats.service_time_hist_by_op[op_slot(req)][bucket] += 1;
                }
            }
            let (records, forwards) = s.run_quantum(now, &reqs);
            if members.len() > 1 {
                s.stats.sweeps += 1;
                s.stats.swept_requests += members.len() as u64;
            }
            // Star replication: the shard pipeline is NOT held for the round
            // trip — later quanta execute and ship while these acks are in
            // flight; only the responses of writes that produced a record
            // wait for them.
            let pairs = if records.is_empty() {
                Vec::new()
            } else {
                s.repl.clone()
            };
            let acks = (!pairs.is_empty()).then(|| Rc::new(Cell::new(pairs.len())));
            let bytes = s.resp_batch.bytes();
            // A write answered Ok produced a record, or was absorbed by one
            // that did.
            let recorded =
                |(req, msg): (&Request<'_>, &[u8])| msg[0] == Status::Ok as u8 && is_write(req);
            let mut answers = reqs.iter().zip(messages(bytes));
            for (m, out) in members.iter().zip(&mut out) {
                let mut resp = s.resp_pool.pop().unwrap_or_default();
                let held = if BatchFrame::is_batch(&m.payload) {
                    resp.extend_from_slice(bytes);
                    answers.by_ref().any(recorded)
                } else {
                    let answer = answers.next().expect("an answer per request");
                    resp.extend_from_slice(answer.1);
                    recorded(answer)
                };
                let acks = acks.clone().filter(|_| held);
                *out = Some(Release {
                    conn_idx: m.conn_idx,
                    resp,
                    acks,
                });
            }
            s.reqs = recycle(reqs);
            (records, forwards, pairs, acks)
        };
        Self::maybe_schedule_reclaim(this, sim);
        for (ch, recs) in forwards {
            ch.ship(sim, recs);
        }
        let mut due = None;
        let last = members.len() - 1;
        for (i, (m, r)) in members.iter().zip(out.into_iter().flatten()).enumerate() {
            if m.ready_at <= now {
                Self::release(this, sim, r);
            } else if i == last {
                due = Some(r);
            } else {
                let this = this.clone();
                sim.schedule_at(m.ready_at, move |sim| Self::release(&this, sim, r));
            }
        }
        for pair in &pairs {
            let (this, acks) = (this.clone(), acks.clone().expect("acks await a shipment"));
            let on_ack = move |sim: &mut Sim| {
                acks.set(acks.get() - 1);
                if acks.get() == 0 {
                    Self::release_held(&this, sim, &acks);
                }
            };
            pair.replicate_batch(sim, &records, Some(Box::new(on_ack)))
                .expect("writes bounded by msg slot, fit repl ring");
        }
        drop(records);
        members.clear();
        this.borrow_mut().sweep = members;
        due
    }

    /// Sends a response whose time has come — unless it still waits for
    /// acks, in which case it joins the ones they will release.
    fn release(this: &Rc<RefCell<ShardServer>>, sim: &mut Sim, r: Release) {
        if let Some(acks) = r.acks.filter(|a| a.get() > 0) {
            this.borrow_mut().held.push((acks, r.conn_idx, r.resp));
            return;
        }
        Self::send_response_frame(this, sim, r.conn_idx, r.resp);
    }

    /// The last ack `acks` awaited is in: sends the responses it held, in
    /// the order their time came.
    fn release_held(this: &Rc<RefCell<ShardServer>>, sim: &mut Sim, acks: &AckGate) {
        loop {
            let (_, conn_idx, resp) = {
                let mut s = this.borrow_mut();
                let Some(i) = s.held.iter().position(|(a, ..)| Rc::ptr_eq(a, acks)) else {
                    return;
                };
                s.held.remove(i)
            };
            Self::send_response_frame(this, sim, conn_idx, resp);
        }
    }

    /// Runs `reqs` at `now` as one quantum into the response builder and
    /// counts them. Every request runs through [`apply_request`], in order,
    /// but the UPDATEs the quantum overwrites ([`absorbed`]): such a write
    /// answers as the probe that decides it — the redirect the live ring
    /// calls for, else `Ok` if the key is present (or the engine upserts),
    /// `NotFound` if not — and writes nothing. The write that overwrites it
    /// runs by itself, and should it fail, [`Self::fall_back`] applies the
    /// absorbed one after all. A scan may fill the frame only as far as
    /// leaves every request behind it room to answer. Returns the
    /// replication records of the successful writes and their migration
    /// forwards — each moving key's write, to its new owner, before the flip
    /// — grouped per destination channel, to ship once the caller's borrow
    /// drops.
    fn run_quantum<'a>(
        &mut self,
        now: SimTime,
        reqs: &[Request<'a>],
    ) -> (ReplRecords<'a>, ChannelShipments) {
        self.resp_batch.clear();
        let engine_rc = self.engine.clone();
        let engine = &mut *engine_rc.borrow_mut();
        let mig = self.mig.clone();
        let upserts = self.cfg.write_mode == WriteMode::Cache;
        let mut repl = Vec::new();
        with_gate(mig.as_ref(), |gate| {
            for (i, req) in reqs.iter().enumerate() {
                if absorbed(reqs, i) {
                    let Request::Update { req_id, key, .. } = *req else {
                        unreachable!("only an UPDATE is absorbed");
                    };
                    let answer = match gate.and_then(|g| (g.wrong_owner)(key)) {
                        Some(generation) => Response::wrong_owner(req_id, generation),
                        None if upserts || engine.peek(key).is_some() => {
                            Response::status_only(Status::Ok, req_id)
                        }
                        None => Response::status_only(Status::NotFound, req_id),
                    };
                    self.resp_batch.push_with(|out| answer.encode_into(out));
                    self.stats.updates += 1;
                    self.stats.absorbed_writes += 1;
                    continue;
                }
                let status = self.resp_batch.bytes().len() + BATCH_ENTRY_HDR;
                let scan = ScanBounds {
                    reserved: (reqs.len() - i - 1) * ScanBounds::MIN_RESPONSE,
                    ..ScanBounds::of(&self.cfg)
                };
                let mut record = None;
                self.resp_batch.push_with(|out| {
                    record = apply_request(
                        engine,
                        now,
                        req,
                        self.arena_region,
                        &mut self.get_scratch,
                        scan,
                        &mut self.plane,
                        gate,
                        out,
                    );
                });
                repl.extend(record);
                *match req {
                    Request::Get { .. } => &mut self.stats.gets,
                    Request::Insert { .. } => &mut self.stats.inserts,
                    Request::Update { .. } => &mut self.stats.updates,
                    Request::Delete { .. } => &mut self.stats.deletes,
                    Request::Scan { .. } => &mut self.stats.scans,
                } += 1;
                if absorbs(reqs, i).is_some() && self.resp_batch.bytes()[status] != Status::Ok as u8
                {
                    self.fall_back(engine, now, reqs, i, gate, &mut repl);
                }
            }
        });
        let mut forwards: ChannelShipments = Vec::new();
        if let Some(m) = &mig {
            let mut grouped: RecordsByDst = BTreeMap::new();
            {
                let mut mm = m.borrow_mut();
                for (op, k, v) in &repl {
                    if let Some(d) = mm.on_local_write(k) {
                        grouped
                            .entry(d)
                            .or_default()
                            .push((*op, k.to_vec(), v.to_vec()));
                    }
                }
            }
            let mm = m.borrow();
            for (d, recs) in grouped {
                if let Some(ch) = mm.channel(d) {
                    forwards.push((ch, recs));
                }
            }
        }
        (repl, forwards)
    }

    /// `reqs[j]` ran and failed: the write it absorbed, if any, is applied
    /// for real behind it and its answer corrected — and, failing too, so is
    /// the one that one absorbed, down the chain. Nothing on the key ran in
    /// between, so each lands as it would have in its own place.
    fn fall_back<'a>(
        &mut self,
        engine: &mut ShardEngine,
        now: SimTime,
        reqs: &[Request<'a>],
        mut j: usize,
        gate: Option<&OwnershipGate<'_>>,
        repl: &mut ReplRecords<'a>,
    ) {
        while let Some(i) = absorbs(reqs, j) {
            let mut answer = self.resp_pool.pop().unwrap_or_default();
            let record = apply_request(
                engine,
                now,
                &reqs[i],
                self.arena_region,
                &mut self.get_scratch,
                ScanBounds::of(&self.cfg),
                &mut self.plane,
                gate,
                &mut answer,
            );
            if let Some(record) = record {
                repl.push(record);
                self.stats.absorbed_writes -= 1;
            }
            if messages(self.resp_batch.bytes()).nth(i) != Some(&answer[..]) {
                // Rebuilt with the answer in its place: a failure path only.
                let answers = std::mem::take(&mut self.resp_batch);
                for (k, msg) in messages(answers.bytes()).enumerate() {
                    self.resp_batch.push(if k == i { &answer } else { msg });
                }
            }
            let done = answer[0] == Status::Ok as u8;
            answer.clear();
            self.resp_pool.push(answer);
            if done {
                return;
            }
            j = i;
        }
    }

    /// Arms the background-reclamation event for the earliest pending lease
    /// expiry. The paper uses a background thread; the event-driven pump has
    /// identical semantics and terminates when the queue drains. At most one
    /// pump is armed at a time: arming an earlier expiry cancels the later
    /// event (its time is re-armed when the earlier one fires).
    fn maybe_schedule_reclaim(this: &Rc<RefCell<ShardServer>>, sim: &mut Sim) {
        let mut s = this.borrow_mut();
        let Some(t) = s.engine.borrow().next_reclaim_at() else {
            return;
        };
        let at = t.max(sim.now());
        match s.reclaim_armed {
            Some((armed_at, _)) if armed_at <= at => return,
            Some((_, later)) => sim.cancel(later),
            None => {}
        }
        let this2 = this.clone();
        let ev = sim.schedule_at(at, move |sim| {
            {
                let mut s = this2.borrow_mut();
                s.reclaim_armed = None;
                s.stats.reclaim_pumps += 1;
                s.engine.borrow_mut().pump_reclaim(sim.now());
            }
            Self::maybe_schedule_reclaim(&this2, sim);
        });
        s.reclaim_armed = Some((at, ev));
    }

    /// Frames and writes a response — one answer, or a response frame of
    /// them (a whole batch travels as one write / one doorbell) — into the
    /// client's response buffer (RDMA-Write mode), or posts it as a Send
    /// (Send/Recv mode).
    fn send_response_frame(
        this: &Rc<RefCell<ShardServer>>,
        sim: &mut Sim,
        conn_idx: usize,
        mut resp: Vec<u8>,
    ) {
        let (fab, qp, node, region, kick, send_recv) = {
            let mut s = this.borrow_mut();
            if !s.alive {
                return;
            }
            // Piggyback the shard's backlog (µs, saturating at u16::MAX) in
            // the response pad bytes: core reservation still ahead of `now`
            // plus both lanes' undispatched work. The client's AIMD window
            // controller reads it as its congestion signal. An unloaded
            // shard stamps 0, which is byte-identical to the zeroed pad.
            let backlog = s.cpu.free_at().saturating_sub(sim.now()) + s.sched.queued_total();
            let hint = (backlog / 1_000).min(u16::MAX as u64) as u16;
            let mut answers = 0;
            if !for_each_message_mut(&mut resp, |m| {
                set_backlog_hint(m, hint);
                answers += 1;
            }) {
                set_backlog_hint(&mut resp, hint);
                answers = 1;
            }
            s.stats.responses += answers;
            let conn = &s.conns[conn_idx];
            (
                s.fab.clone(),
                conn.qp,
                s.node,
                conn.resp_region,
                conn.client_kick.clone(),
                s.send_recv(),
            )
        };
        if send_recv {
            // The client's recv handler consumes the payload directly.
            fab.post_send(sim, qp, node, resp);
        } else {
            let words = frame::frame_to_words(&resp);
            resp.clear();
            this.borrow_mut().resp_pool.push(resp);
            fab.post_write(
                sim,
                qp,
                node,
                words,
                region,
                0,
                Some(Box::new(move |sim| kick(sim))),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scan-quantum invariant: for ANY requested limit, the shard-core
    /// charge of one scan stays within the configured quantum budget, and
    /// the item cap is exactly the largest count that fits.
    #[test]
    fn scan_cost_respects_quantum_budget() {
        let cap = SCAN_QUANTUM_ITEMS;
        // The cap fills the budget: one more item would overflow it.
        assert!(scan_cost(cap) <= SCAN_QUANTUM_NS);
        assert!(scan_cost(cap) + costs::SCAN_ITEM_NS > SCAN_QUANTUM_NS);
        for limit in [0u32, 1, 10, 100, cap, cap + 1, 1 << 20, u32::MAX] {
            let cost = scan_cost(limit);
            assert!(
                cost <= SCAN_QUANTUM_NS,
                "limit={limit}: cost {cost} exceeds quantum {SCAN_QUANTUM_NS}"
            );
        }
        // Below the cap the charge is exactly base + items × per-item.
        assert_eq!(
            scan_cost(100),
            costs::SCAN_BASE_NS + 100 * costs::SCAN_ITEM_NS
        );
    }

    /// A quantum task tagged by `conn_idx` so picks can be told apart.
    fn quantum(conn_idx: usize) -> LaneTask {
        LaneTask::Quantum {
            conn_idx,
            payload: Vec::new(),
            arrived: 0,
            writes: false,
            swept_ns: None,
        }
    }

    fn conn_of(task: &LaneTask) -> usize {
        match task {
            LaneTask::Quantum { conn_idx, .. } => *conn_idx,
            _ => unreachable!("tests queue only quanta"),
        }
    }

    /// Point ops are tagged conn 0, batch quanta conn 1.
    const POINT: usize = 0;
    const BATCH: usize = 1;

    /// Latency isolation: point ops enqueued *behind* two full scan quanta
    /// are still served first — the latency lane's credit covers them long
    /// before the throughput lane banks enough deficit for a scan.
    #[test]
    fn drr_serves_latency_lane_past_queued_scans() {
        let mut s = DualLaneSched::default();
        for _ in 0..2 {
            s.enqueue(THR, quantum(BATCH), 8_000);
        }
        for _ in 0..8 {
            s.enqueue(LAT, quantum(POINT), 500);
        }
        assert_eq!(s.queued_total(), 2 * 8_000 + 8 * 500);
        let mut order = Vec::new();
        while let Some((t, c)) = s.next(LANE_QUANTUM_NS) {
            order.push((conn_of(&t) == POINT, c));
        }
        assert_eq!(order.len(), 10);
        assert!(
            order[..8].iter().all(|(is_point, _)| *is_point),
            "all point ops before any scan quantum: {order:?}"
        );
        assert!(order[8..].iter().all(|(is_point, _)| !*is_point));
        assert_eq!(s.queued_total(), 0);
        // Draining resets the deficits: no credit is banked across idle.
        assert_eq!(s.deficit, [0; 2]);
        assert!(s.next(LANE_QUANTUM_NS).is_none());
    }

    /// With sustained load on both lanes, equal quanta split the core's
    /// bandwidth roughly evenly rather than starving the throughput lane.
    #[test]
    fn drr_shares_bandwidth_between_backlogged_lanes() {
        let mut s = DualLaneSched::default();
        for _ in 0..64 {
            s.enqueue(LAT, quantum(POINT), 500);
        }
        for _ in 0..4 {
            s.enqueue(THR, quantum(BATCH), 8_000);
        }
        // Serve half the total work and measure the split.
        let mut lat_ns = 0u64;
        let mut thr_ns = 0u64;
        while lat_ns + thr_ns < 32_000 {
            let (t, c) = s.next(LANE_QUANTUM_NS).expect("backlogged");
            if conn_of(&t) == POINT {
                lat_ns += c;
            } else {
                thr_ns += c;
            }
        }
        let share = thr_ns as f64 / (lat_ns + thr_ns) as f64;
        assert!(
            (0.3..=0.7).contains(&share),
            "throughput share {share:.2} not balanced (lat {lat_ns} thr {thr_ns})"
        );
    }

    /// FIFO order within a lane — which is all of FIFO service when every
    /// task is classified into one lane — and push_front puts a yielded
    /// remainder at the head of its lane.
    #[test]
    fn drr_keeps_fifo_within_lane_and_honours_push_front() {
        let mut s = DualLaneSched::default();
        // Mixed costs, far beyond one round's credit: order must not bend.
        for (id, cost) in [(0, 100), (1, 9_000), (2, 100)] {
            s.enqueue(THR, quantum(id), cost);
        }
        let (t, _) = s.next(LANE_QUANTUM_NS).unwrap();
        assert_eq!(conn_of(&t), 0);
        s.push_front(THR, quantum(9), 100);
        let picks: Vec<usize> = std::iter::from_fn(|| s.next(LANE_QUANTUM_NS))
            .map(|(t, _)| conn_of(&t))
            .collect();
        assert_eq!(picks, vec![9, 1, 2]);
    }

    /// A bare point op tagged by `conn_idx`, priced `swept` inside a sweep.
    fn point(conn_idx: usize, swept: SimTime) -> LaneTask {
        LaneTask::Quantum {
            conn_idx,
            payload: Vec::new(),
            arrived: 0,
            writes: false,
            swept_ns: Some(swept),
        }
    }

    fn swept_ns(t: &LaneTask) -> Option<SimTime> {
        match t {
            LaneTask::Quantum { swept_ns, .. } => *swept_ns,
            _ => None,
        }
    }

    /// A sweep takes the picks `next` would make from the lane it serves,
    /// charged at their sweep price, and stops at a task that does not
    /// sweep (a frame) without taking it.
    #[test]
    fn sweep_members_are_consecutive_picks_at_their_sweep_price() {
        let mut s = DualLaneSched::default();
        for c in 0..3 {
            s.enqueue(THR, point(c, 300), 500);
        }
        s.enqueue(THR, quantum(9), 500);
        s.enqueue(THR, point(4, 300), 500);
        let (t, _) = s.next(LANE_QUANTUM_NS).unwrap();
        assert_eq!(conn_of(&t), 0);
        let picks: Vec<(usize, SimTime)> =
            std::iter::from_fn(|| s.next_member(LANE_QUANTUM_NS, swept_ns))
                .map(|(t, price)| (conn_of(&t), price))
                .collect();
        assert_eq!(picks, vec![(1, 300), (2, 300)], "stops at the frame");
        assert_eq!(s.queued_total(), 2 * 500, "queued costs leave the lane");
        assert_eq!(s.deficit[THR], LANE_QUANTUM_NS[THR] - 500 - 2 * 300);
        assert_eq!(conn_of(&s.next(LANE_QUANTUM_NS).unwrap().0), 9);
    }

    /// DRR keeps its bandwidth split: a sweep ends where its lane's credit
    /// runs out while the other lane has work (`next` would rotate there),
    /// and runs on — crediting round by round as `next` would — while the
    /// other lane is idle.
    #[test]
    fn sweeps_end_where_the_lane_credit_does_while_the_other_lane_waits() {
        let member = 1_500;
        let mut s = DualLaneSched::default();
        for c in 0..8 {
            s.enqueue(LAT, point(c, member), 2_000);
        }
        s.enqueue(THR, quantum(99), 8_000);
        s.next(LANE_QUANTUM_NS).unwrap();
        let taken = std::iter::from_fn(|| s.next_member(LANE_QUANTUM_NS, swept_ns)).count();
        // 4 000 ns of credit: the head's 2 000, then one more member.
        assert_eq!(taken, 1);
        let mut s = DualLaneSched::default();
        for c in 0..8 {
            s.enqueue(LAT, point(c, member), 2_000);
        }
        s.next(LANE_QUANTUM_NS).unwrap();
        let taken = std::iter::from_fn(|| s.next_member(LANE_QUANTUM_NS, swept_ns)).count();
        assert_eq!(taken, 7, "an idle throughput lane never ends a sweep");
        assert!(s.deficit[LAT] < LANE_QUANTUM_NS[LAT]);
    }

    #[test]
    fn op_slot_covers_every_request_kind() {
        let reqs = [
            Request::Get {
                req_id: 1,
                key: b"k",
            },
            Request::Insert {
                req_id: 2,
                key: b"k",
                value: b"v",
            },
            Request::Update {
                req_id: 3,
                key: b"k",
                value: b"v",
            },
            Request::Delete {
                req_id: 4,
                key: b"k",
            },
            Request::Scan {
                req_id: 6,
                start: b"k",
                limit: 10,
            },
        ];
        let slots: Vec<usize> = reqs.iter().map(op_slot).collect();
        assert_eq!(slots, [0, 1, 2, 3, 5]);
        assert_eq!(OP_KINDS, 6, "SCAN keeps row 5");
    }
}

//! The HydraDB client library (§4.2).
//!
//! A client routes each key through the consistent-hash ring to its
//! partition's primary shard and talks to it over a connection of its own:
//! a request buffer on the server's node and a response buffer on its own
//! node, both written one-sidedly and detected by polling (§4.2.1). The
//! connection rides a channel: a QP of its own, or one shared with every
//! partition on the same server machine
//! ([`ClusterConfig::mux_connections`]). GETs of
//! previously accessed keys take the fast path: the remote pointer returned
//! by the first access is cached (privately, or in the node-wide shared
//! cache of §4.2.4) and, while its lease holds, later GETs fetch the
//! item directly with a one-sided RDMA Read and validate it against the
//! guardian word — falling back to the message path when the item was
//! updated underneath (§4.2.3).
//!
//! Every operation takes one route: `submit` assigns it a request id and
//! queues it on its partition, `pump` ships whatever the connection can take,
//! and the response (or a timeout) settles it through the in-flight table.
//! [`ClusterConfig::pipeline_depth`] selects only the *shipping shape*: at
//! depth 1 (the paper's closed-loop YCSB discipline) a request travels as a
//! bare message; above it, queued requests ship as multi-request batch
//! frames ([`hydra_wire::BatchBuilder`]) — one RDMA Write, one doorbell, one server
//! polling sweep for a whole window of requests, up to `max_batch` per
//! frame — and the server answers with one response frame per request
//! frame. Either way a connection's message slot holds one shipment at a
//! time. A fail-over reaches clients as a directory-change notification:
//! every shipment parked on a replaced primary is re-routed at once
//! (`HydraClient::wake_subscribers`). The backstop — for a lost response,
//! a dead shard nobody replaced — is the timeout: an unanswered shipment is
//! retried against the partition's current primary a bounded number of
//! times.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::{Rc, Weak};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hydra_fabric::{Fabric, NodeId, QpId, RegionId, Transport};
use hydra_lockfree::ClockCache;
use hydra_sim::time::SimTime;
use hydra_sim::{Histogram, IdMap, Sim};
use hydra_store::{FetchedItem, ItemError};
use hydra_wire::{
    backlog_hint, frame, messages, scan_items_merge, scan_items_rank, BatchBuilder, BatchFrame,
    RemotePtr, Request, Response, ScanItems, ScanSpan, Status,
};

use crate::cluster::Directory;
use crate::config::ClusterConfig;
use crate::costs;
use crate::server::{ServerConn, ShardServer};

/// Client-visible operation failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpError {
    /// UPDATE/DELETE of an absent key.
    NotFound,
    /// INSERT collided (reliable mode).
    Exists,
    /// No response within the timeout after all retries (dead shard).
    Timeout,
    /// Request exceeds the connection's message slot.
    TooLarge,
    /// Server-side error (allocation failure etc.).
    Server,
}

/// Completion callback: `Ok(Some(value))` for GET hits, `Ok(None)` for GET
/// misses, `Ok(None)` for successful writes. (A scan step — internal to
/// [`HydraClient::scan`] — completes with its whole response message, so
/// the payload polled off the wire changes hands instead of being copied.)
pub type OpCb = Box<dyn FnOnce(&mut Sim, Result<Option<Vec<u8>>, OpError>)>;

/// Per-client counters and latency recordings.
#[derive(Debug, Default, Clone)]
pub struct ClientStats {
    pub ops: u64,
    pub gets: u64,
    pub msg_gets: u64,
    pub rptr_reads: u64,
    pub rptr_hits: u64,
    pub invalid_hits: u64,
    /// GETs of a key whose cached pointer was suspect: sent as message GETs
    /// instead of one-sided reads (subset of `msg_gets`).
    pub suspect_gets: u64,
    /// Fast-path reads issued against a replica instead of the primary
    /// (subset of `rptr_reads`; read spreading).
    pub replica_reads: u64,
    pub inserts: u64,
    pub updates: u64,
    pub deletes: u64,
    /// Logical range scans started by the application.
    pub scans: u64,
    /// Per-partition scan requests shipped (fan-out steps plus quantum
    /// continuations; ≥ `scans × partitions` when scans run).
    pub scan_steps: u64,
    /// Items the scan steps' responses carried.
    pub scan_items_fetched: u64,
    /// Items the merged answers kept of them: fetched ÷ returned is what the
    /// fan-out costs over its result.
    pub scan_items_returned: u64,
    pub timeouts: u64,
    pub retries: u64,
    /// `WrongOwner` redirects received (stale routing after a migration
    /// flip): the op re-resolved through the shared directory and retried.
    pub redirects: u64,
    /// Arrivals dropped because their bytes did not decode: a corrupt
    /// response frame, a batch frame that does not parse, a message that is
    /// not a response.
    pub malformed: u64,
    /// GET completion latency (both fast and message paths).
    pub get_lat: Histogram,
    /// INSERT/UPDATE/DELETE completion latency.
    pub update_lat: Histogram,
    /// End-to-end SCAN latency (full fan-out + continuations + merge).
    pub scan_lat: Histogram,
}

/// One replica's remote location for a cached key (read spreading).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ReplicaTarget {
    /// Fabric node hosting the replica.
    pub node: u32,
    /// Location of the replica's copy in its arena.
    pub rptr: RemotePtr,
}

/// A cached remote pointer (§4.2.2), optionally widened with the replica
/// set the server exported for hot keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CachedPtr {
    /// Partition whose primary exposed the pointer.
    pub partition: u32,
    /// Location of the item in the server arena.
    pub rptr: RemotePtr,
    /// Lease expiry; the pointer must not be used past this instant.
    pub lease_expiry: u64,
    /// Item version at export time, when the server stamped one (hot keys).
    /// Fetches are rejected as stale if the fetched version differs — the
    /// ABA guard for blocks reused behind a still-valid guardian.
    pub version: Option<u8>,
    /// Replica locations exported with the pointer, `None` when there
    /// were none: only hot keys carry them, so they live out of line and a
    /// clone shares them.
    pub replicas: Option<Rc<[ReplicaTarget]>>,
    /// The key was seen superseded — a read found its item dead, or the
    /// shard answered with a pointer other than the one the client held —
    /// and has not since been seen holding still. A suspect pointer is not
    /// read: its GETs take the message path and carry it along.
    pub suspect: bool,
}

/// Remote-pointer cache: a bounded CLOCK cache with sketch-gated admission.
/// One handle type whether a client holds the only clone or every client on
/// its node holds one (§4.2.4): the clients of a node are callbacks of one
/// single-threaded event loop, so an `Rc` shares the cache. Bounded
/// capacity means a key-space sweep cannot grow the cache without limit, and
/// the admission sketch keeps the hot set resident under skew.
#[derive(Clone)]
pub(crate) struct PtrCache(Rc<ClockCache<CachedPtr>>);

impl PtrCache {
    pub(crate) fn new(capacity: usize) -> PtrCache {
        PtrCache(Rc::new(ClockCache::new(capacity)))
    }

    fn get(&self, key: &[u8]) -> Option<CachedPtr> {
        self.0.get(key)
    }

    fn insert(&self, key: &[u8], ptr: CachedPtr) {
        // Admission may reject a cold newcomer.
        self.0.insert(key, ptr, 0);
    }

    fn remove(&self, key: &[u8]) {
        self.0.remove(key);
    }

    /// Live entries (bounded by construction; tests assert it).
    fn len(&self) -> usize {
        self.0.len()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpKind {
    Get,
    RdmaGet,
    Insert,
    Update,
    Delete,
    Scan,
}

/// An operation submitted and not yet settled: queued behind its
/// connection, shipped, or posted as a one-sided read.
struct InFlightOp {
    req_id: u64,
    kind: OpKind,
    key: Vec<u8>,
    value: Vec<u8>,
    cb: Option<OpCb>,
    issued_at: SimTime,
    attempts: u32,
    /// The shipment this op travelled in (the ops of one frame share it);
    /// what its timeout and its connection slot are keyed by. 0 until
    /// shipped.
    ship: u64,
    /// Timeout of an op that holds no connection slot (a Send/Recv message,
    /// a replica read); a slot shipment's timer sits in its [`Slot`].
    /// Cancelled on completion so the event queue never drags the virtual
    /// clock to the timeout horizon.
    timeout_ev: Option<hydra_sim::EventId>,
    /// Item version the fetched blob must carry (fast-path reads of keys
    /// whose pointer was exported with a version stamp).
    expect_version: Option<u8>,
    /// Partition this op was dispatched to. Scans retry against it directly
    /// (a scan cursor must NOT be re-routed by key hash — the step belongs
    /// to one partition regardless of where its cursor key would route).
    partition: u32,
    /// The cached pointer a GET checks on the shard in place of a one-sided
    /// read (or after one, or of one that never came back): the pointer in
    /// its response is cached suspect iff it differs — an unchanged pointer
    /// means a read would have found the item live. `None` for a cold miss.
    seen: Option<RemotePtr>,
}

impl InFlightOp {
    /// An operation's first attempt, before it is given a request id, a
    /// partition or a shipment.
    fn new(
        kind: OpKind,
        key: Vec<u8>,
        value: Vec<u8>,
        cb: Option<OpCb>,
        issued_at: SimTime,
    ) -> InFlightOp {
        InFlightOp {
            req_id: 0,
            kind,
            key,
            value,
            cb,
            issued_at,
            attempts: 1,
            ship: 0,
            timeout_ev: None,
            expect_version: None,
            partition: 0,
            seen: None,
        }
    }
}

/// In-progress range scan: hash partitioning scatters the key range across
/// every partition, so the client reads each one — a quota first, then only
/// as far as the merged answer is still unsettled — one step at a time,
/// following the servers' quantum continuations, then merges.
struct ScanState {
    /// Original start key (where every partition is first read from).
    start: Vec<u8>,
    /// Global item target.
    limit: u32,
    /// Partition ids in fan-out order.
    partitions: Rc<[u32]>,
    /// Partitions the first pass has reached.
    asked: usize,
    /// Index (into `partitions`) of the partition being read.
    at: usize,
    /// Items the partition being read still owes the request made of it.
    want: u32,
    /// The response message of every step so far, as it came off the wire,
    /// with the index of the partition that sent it and the bounds of the
    /// run it carries, validated once on arrival: each run is key-sorted,
    /// merged straight out of these at the end. What is known of a
    /// partition is read off its runs.
    runs: Vec<(usize, Vec<u8>, ScanSpan)>,
    issued_at: SimTime,
}

impl ScanState {
    /// Everything received so far.
    fn all_runs(&self) -> impl Iterator<Item = ScanItems<'_>> {
        self.runs.iter().map(|(_, msg, span)| span.items(msg))
    }

    /// What partition `at` has sent, latest step first.
    fn runs_of(&self, at: usize) -> impl Iterator<Item = ScanItems<'_>> {
        let of_part = self.runs.iter().rev().filter(move |(part, ..)| *part == at);
        of_part.map(|(_, msg, span)| span.items(msg))
    }

    /// The last key partition `at` has sent, if it has sent any.
    fn last_key(&self, at: usize) -> Option<&[u8]> {
        let (last, _) = self.runs_of(at).find_map(|run| run.iter().last())?;
        Some(last)
    }

    /// The first partition the answer is not settled on, and the most it can
    /// still add: one that has more to send past a last key with fewer than
    /// `limit` received items at or before it. Every other partition is
    /// drained, or read up to the `limit`-th smallest key received — past
    /// which nothing of the answer lies.
    fn unsettled(&self) -> Option<(usize, u32)> {
        (0..self.partitions.len()).find_map(|at| {
            if !self.runs_of(at).next()?.more() {
                return None;
            }
            let rank = scan_items_rank(self.all_runs(), self.last_key(at)?);
            let short = (self.limit as usize).checked_sub(rank)?;
            (short > 0).then_some((at, short as u32))
        })
    }
}

/// What a scan of `limit` items asks each of `partitions` partitions for
/// first: its Binomial(`limit`, 1/`partitions`) share of the answer at the
/// mean plus two standard deviations, rounded up. Derived, not tuned; one
/// partition is asked for everything.
pub fn scan_quota(limit: u32, partitions: usize) -> u32 {
    let (l, p) = (limit as f64, partitions.max(1) as f64);
    let share = (l / p).ceil() + (2.0 * (l * (p - 1.0)).sqrt() / p).ceil() + 1.0;
    share.min(l) as u32
}

/// Floor on the AIMD congestion window (requests per frame).
pub(crate) const MIN_WINDOW: usize = 1;
/// Additive increase per congestion-free response frame.
pub(crate) const INCREASE: f64 = 1.0;
/// Multiplicative decrease factor applied on congestion.
pub(crate) const DECREASE: f64 = 0.5;
/// Backlog hint (µs of queued shard-core work) at or below which the window
/// may grow. A response frame normally reports ≤ a few µs of backlog (one
/// point quantum); a scan quantum parked ahead reports ≥ 25 µs.
pub(crate) const BACKLOG_LO_US: u16 = 4;
/// Backlog hint at or above which the window is cut.
pub(crate) const BACKLOG_HI_US: u16 = 16;
/// Frame completion latency above which the window is cut even without a
/// backlog hint (covers SendRecv and hint-less servers).
pub(crate) const LATENCY_TARGET_NS: SimTime = 200_000;

const _: () = assert!(MIN_WINDOW >= 1);
const _: () = assert!(BACKLOG_LO_US < BACKLOG_HI_US);
const _: () = assert!(DECREASE > 0.0 && DECREASE < 1.0);

/// Per-connection AIMD congestion window bounding how many requests the
/// client packs into one frame. Two signals drive it, both read
/// from settled response frames: the server's piggybacked backlog hint
/// (µs of shard-core work queued at response time, riding the response pad
/// bytes) and the frame's observed completion latency. A congested frame
/// (hint at or above [`BACKLOG_HI_US`], or latency above
/// [`LATENCY_TARGET_NS`]) halves the window; a comfortably clear frame (hint
/// at or below [`BACKLOG_LO_US`]) grows it by one; in between it holds. The
/// window starts at the configured maximum — an unloaded cluster keeps
/// full-rate batching from the first frame, and only measured congestion
/// sheds it.
#[derive(Debug, Clone)]
pub(crate) struct AimdWindow {
    cwnd: f64,
    max: usize,
}

impl AimdWindow {
    /// Builds a controller capped at `max` requests per frame (the
    /// transport's `max_batch`).
    pub(crate) fn new(max: usize) -> AimdWindow {
        let max = max.max(MIN_WINDOW);
        AimdWindow {
            cwnd: max as f64,
            max,
        }
    }

    /// Current window: how many requests the next frame may carry.
    pub(crate) fn window(&self) -> usize {
        (self.cwnd as usize).clamp(MIN_WINDOW, self.max)
    }

    /// Feeds one settled response frame into the controller: `max_hint_us`
    /// is the largest backlog hint across the frame's responses and
    /// `frame_latency_ns` the ship-to-settle time of the whole frame.
    pub(crate) fn on_frame(&mut self, max_hint_us: u16, frame_latency_ns: SimTime) {
        if max_hint_us >= BACKLOG_HI_US || frame_latency_ns > LATENCY_TARGET_NS {
            self.cwnd = (self.cwnd * DECREASE).max(MIN_WINDOW as f64);
        } else if max_hint_us <= BACKLOG_LO_US {
            self.cwnd = (self.cwnd + INCREASE).min(self.max as f64);
        }
        // Between the watermarks: hold — the backlog is draining.
    }

    /// A frame timed out entirely: treat it as maximal congestion.
    pub(crate) fn on_timeout(&mut self) {
        self.on_frame(u16::MAX, SimTime::MAX);
    }
}

/// A connection's request buffer holds one shipment — a bare message or a
/// batch frame — until its response arrives (or its timeout fires).
struct Slot {
    ship: u64,
    timeout_ev: hydra_sim::EventId,
    /// When the shipment left — settling measures frame latency for AIMD.
    shipped_at: SimTime,
}

struct ClientConn {
    server: Rc<RefCell<ShardServer>>,
    /// The channel this connection rides; `qp` is its QP, copied so the
    /// request path does not go through the channel.
    channel: Rc<Channel>,
    qp: QpId,
    /// The channel tag stamped into request headers (0 on a channel of
    /// one — the wire default).
    tag: u16,
    req_region: RegionId,
    resp_mem: Arc<[AtomicU64]>,
    arena_region: RegionId,
    /// Kicks the server's polling loop when a request write lands.
    server_kick: Rc<dyn Fn(&mut Sim)>,
}

/// The QP a connection rides and the partitions it carries. A dedicated
/// connection opens a channel of its own; under
/// [`ClusterConfig::mux_connections`] every partition homed on one server
/// node joins that node's channel, sharing the queue pair — the
/// NIC-resident state — while keeping its own message buffers, connection
/// slot and kicks. Requests carry the partition's channel tag
/// ([`hydra_wire::set_channel_tag`]), which the Send/Recv receive path
/// routes by.
struct Channel {
    qp: QpId,
    /// Next channel tag to hand to a partition joining this channel.
    next_tag: Cell<u16>,
    /// The server node's recv handler holds the channel weakly.
    demux: RefCell<DemuxTable>,
}

/// Channel tag → the tagged partition's server instance and connection
/// slot.
type DemuxTable = HashMap<u16, (Rc<RefCell<ShardServer>>, usize)>;

impl Channel {
    /// Connects a fresh QP from the client's `node` to `server_node` and
    /// provisions its receives: per QP endpoint, a dedicated ring each
    /// side, or the server's node-wide SRQ pool.
    fn open(fab: &Fabric, cfg: &ClusterConfig, node: NodeId, server_node: NodeId) -> Rc<Channel> {
        let qp = fab.connect(node, server_node, cfg.transport);
        if cfg.srq {
            fab.ensure_srq(server_node, SRQ_DEPTH);
        } else {
            fab.provision_recvs(server_node, RECV_RING_DEPTH);
        }
        fab.provision_recvs(node, RECV_RING_DEPTH);
        Rc::new(Channel {
            qp,
            next_tag: Cell::new(0),
            demux: RefCell::default(),
        })
    }

    /// Two-sided mode: installs the channel's pair of recv handlers.
    /// Requests route by their stamped channel tag; responses key on
    /// req_id. The fabric keeps the handlers and a shard holds the fabric,
    /// so each holds its channel or client weakly: a strong one is a cycle
    /// that outlives the cluster. The client holds both while it can send.
    fn listen(
        self: &Rc<Channel>,
        fab: &Fabric,
        node: NodeId,
        server_node: NodeId,
        client: Weak<RefCell<ClientInner>>,
    ) {
        let ch = Rc::downgrade(self);
        fab.set_recv_handler(
            self.qp,
            server_node,
            Rc::new(move |sim: &mut Sim, _qp, payload: Vec<u8>| {
                let Some(ch) = ch.upgrade() else {
                    return; // the channel's client is gone
                };
                let tag = hydra_wire::channel_tag(&payload);
                let target = ch.demux.borrow().get(&tag).cloned();
                if let Some((server_rc, idx)) = target {
                    ShardServer::on_request_payload(&server_rc, sim, idx, payload);
                } // else the tag retired: its partition was rerouted
            }),
        );
        fab.set_recv_handler(
            self.qp,
            node,
            Rc::new(move |sim: &mut Sim, _qp, payload: Vec<u8>| {
                if let Some(rc) = client.upgrade() {
                    HydraClient { inner: rc }.on_response_payload(sim, payload);
                }
            }),
        );
    }
}

/// An operation queued behind its connection, not yet shipped.
struct QueuedOp {
    op: InFlightOp,
    payload: Vec<u8>,
}

/// What a partition's traffic waits in and on, whichever connection
/// currently serves the partition.
#[derive(Default)]
struct Outbox {
    /// Submitted operations awaiting a free connection slot.
    queue: std::collections::VecDeque<QueuedOp>,
    /// The shipment occupying the connection's message slot, if any.
    slot: Option<Slot>,
    /// AIMD congestion window (batch-frame shipping only).
    aimd: Option<AimdWindow>,
}

pub(crate) struct ClientInner {
    id: u32,
    node: NodeId,
    fab: Fabric,
    cfg: Rc<ClusterConfig>,
    directory: Rc<RefCell<Directory>>,
    /// The connection serving each partition, indexed like `outboxes`.
    conns: Vec<Option<ClientConn>>,
    /// Multiplexed mode: the shared channel of each server node.
    channels: HashMap<u32, Rc<Channel>>,
    ptr_cache: PtrCache,
    /// Lazily opened QPs to replica-hosting nodes (read spreading).
    replica_qps: HashMap<u32, QpId>,
    /// Round-robin cursor spreading fast-path reads across primary+replicas.
    spread_rr: u64,
    next_req_id: u64,
    next_ship: u64,
    /// Operations shipped (or posted one-sided) and awaiting completion,
    /// keyed by request id.
    window: IdMap<InFlightOp>,
    /// Per-partition queue, connection slot and congestion window, indexed
    /// by partition id (ids are small and dense).
    outboxes: Vec<Outbox>,
    /// Reused request-frame builder.
    req_batch: BatchBuilder,
    /// The directory's partition ids in scan fan-out order, as of the
    /// directory generation they were listed at.
    scan_order: Option<(u64, Rc<[u32]>)>,
    stats: ClientStats,
}

impl ClientInner {
    fn conn(&self, partition: u32) -> Option<&ClientConn> {
        self.conns.get(partition as usize)?.as_ref()
    }

    fn outbox(&mut self, partition: u32) -> &mut Outbox {
        let i = partition as usize;
        if i >= self.outboxes.len() {
            self.outboxes.resize_with(i + 1, Outbox::default);
        }
        &mut self.outboxes[i]
    }

    /// Takes every in-flight op `which` selects out of the window, in
    /// submission order whatever order the map iterates in.
    fn take_ops(&mut self, which: impl Fn(&InFlightOp) -> bool) -> Vec<InFlightOp> {
        let mut ids: Vec<u64> = self
            .window
            .values()
            .filter(|op| which(op))
            .map(|op| op.req_id)
            .collect();
        ids.sort_unstable();
        ids.iter().filter_map(|id| self.window.remove(id)).collect()
    }
}

/// Handle to one client. Cheap to clone; all clones share state.
#[derive(Clone)]
pub struct HydraClient {
    inner: Rc<RefCell<ClientInner>>,
}

const MAX_ATTEMPTS: u32 = 4;

/// Receive buffers posted per connection endpoint (a dedicated ring per QP).
pub(crate) const RECV_RING_DEPTH: u64 = 16;
/// Receive buffers in a server node's shared receive queue when
/// [`ClusterConfig::srq`] replaces the per-QP rings there.
pub(crate) const SRQ_DEPTH: u64 = 1024;
// The pool must dwarf a single ring or sharing it would *shrink* capacity.
const _: () = assert!(SRQ_DEPTH > RECV_RING_DEPTH);

impl HydraClient {
    pub(crate) fn new(
        id: u32,
        node: NodeId,
        fab: Fabric,
        cfg: Rc<ClusterConfig>,
        directory: Rc<RefCell<Directory>>,
        ptr_cache: PtrCache,
    ) -> HydraClient {
        let subscription = directory.clone();
        let client = HydraClient {
            inner: Rc::new(RefCell::new(ClientInner {
                id,
                node,
                fab,
                cfg,
                directory,
                conns: Vec::new(),
                channels: HashMap::new(),
                ptr_cache,
                replica_qps: HashMap::new(),
                spread_rr: id as u64, // desynchronize clients' rotors
                next_req_id: 0,
                next_ship: 0,
                window: IdMap::default(),
                outboxes: Vec::new(),
                req_batch: BatchBuilder::new(),
                scan_order: None,
                stats: ClientStats::default(),
            })),
        };
        subscription
            .borrow_mut()
            .subscribers
            .push(Rc::downgrade(&client.inner));
        client
    }

    /// Delivers a directory-change notification to every live client, `hop`
    /// after the change was published (the coordination service speaks TCP):
    /// each re-routes whatever it has parked on a replaced primary.
    pub(crate) fn wake_subscribers(
        directory: &Rc<RefCell<Directory>>,
        sim: &mut Sim,
        hop: SimTime,
    ) {
        let directory = directory.clone();
        sim.schedule_in(hop, move |sim| {
            let clients: Vec<_> = {
                let mut dir = directory.borrow_mut();
                dir.subscribers.retain(|c| c.strong_count() > 0);
                dir.subscribers.iter().filter_map(|c| c.upgrade()).collect()
            };
            for inner in clients {
                HydraClient { inner }.on_directory_change(sim);
            }
        });
    }

    /// The directory names a new primary for some partitions: for each one
    /// this client still holds a connection to the old primary of, take
    /// back every operation shipped there and send it again through the
    /// directory — now, not when its timer would have fired. The attempt
    /// was cut short, not failed, so it does not count against the op.
    fn on_directory_change(&self, sim: &mut Sim) {
        let stale: Vec<u32> = {
            let inner = self.inner.borrow();
            let dir = inner.directory.borrow();
            let replaced = |(p, conn): (usize, &Option<ClientConn>)| {
                let current = dir.shards.get(&(p as u32))?;
                let conn = conn.as_ref()?;
                (!Rc::ptr_eq(&conn.server, current)).then_some(p as u32)
            };
            inner
                .conns
                .iter()
                .enumerate()
                .filter_map(replaced)
                .collect()
        };
        for partition in stale {
            let ops = {
                let mut inner = self.inner.borrow_mut();
                let ops = inner.take_ops(|op| op.partition == partition);
                if let Some(slot) = inner.outbox(partition).slot.take() {
                    sim.cancel(slot.timeout_ev);
                }
                ops
            };
            for op in ops {
                if let Some(ev) = op.timeout_ev {
                    sim.cancel(ev);
                }
                let attempts = op.attempts;
                self.resubmit(sim, op, attempts);
            }
            self.pump(sim, partition);
        }
    }

    pub fn id(&self) -> u32 {
        self.inner.borrow().id
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ClientStats {
        self.inner.borrow().stats.clone()
    }

    /// [`ClientStats::suspect_gets`], without copying the histograms.
    pub(crate) fn suspect_gets(&self) -> u64 {
        self.inner.borrow().stats.suspect_gets
    }

    /// Clears counters and histograms — called between the load phase and
    /// the measured run, exactly like YCSB's warm-up discard.
    pub fn reset_stats(&self) {
        self.inner.borrow_mut().stats = ClientStats::default();
    }

    /// Live entries in this client's pointer cache (shared caches report
    /// the node-wide count). Bounded by `ptr_cache_capacity`.
    pub fn ptr_cache_len(&self) -> usize {
        self.inner.borrow().ptr_cache.len()
    }

    /// The QP of the channel serving `partition`'s connection, if one has
    /// been built. Under [`ClusterConfig::mux_connections`] every partition
    /// homed on one server node reports the same shared QP — tests use this
    /// to verify the sharing (and chaos tests to fault the shared channel).
    pub fn conn_qp(&self, partition: u32) -> Option<QpId> {
        self.inner.borrow().conn(partition).map(|c| c.qp)
    }

    /// `partition`'s channel tag and every tag its channel still routes,
    /// sorted: one on a dedicated connection, one per partition sharing
    /// the QP under mux — a rerouted partition's old tag is gone.
    pub fn conn_tags(&self, partition: u32) -> Option<(u16, Vec<u16>)> {
        let inner = self.inner.borrow();
        let conn = inner.conn(partition)?;
        let mut tags: Vec<u16> = conn.channel.demux.borrow().keys().copied().collect();
        tags.sort_unstable();
        Some((conn.tag, tags))
    }

    /// Operations issued but not yet completed (shipped, posted one-sided,
    /// or queued behind a connection slot). Drivers use this to keep
    /// `pipeline_depth` ops in flight.
    pub fn in_flight(&self) -> usize {
        let inner = self.inner.borrow();
        inner.window.len() + inner.outboxes.iter().map(|o| o.queue.len()).sum::<usize>()
    }

    /// GET: fast path via cached remote pointer when possible, message path
    /// otherwise.
    pub fn get(&self, sim: &mut Sim, key: &[u8], cb: OpCb) {
        let use_read = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.gets += 1;
            inner.stats.ops += 1;
            inner.cfg.client_mode.rdma_read()
        };
        if use_read {
            if let Some(ptr) = self.valid_cached_ptr(sim.now(), key) {
                self.issue_rdma_get(sim, key.to_vec(), ptr, cb);
                return;
            }
        }
        self.inner.borrow_mut().stats.msg_gets += 1;
        let op = InFlightOp::new(OpKind::Get, key.to_vec(), Vec::new(), Some(cb), sim.now());
        self.submit(sim, op);
    }

    /// INSERT a new key.
    pub fn insert(&self, sim: &mut Sim, key: &[u8], value: &[u8], cb: OpCb) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.stats.inserts += 1;
            inner.stats.ops += 1;
        }
        let op = InFlightOp::new(
            OpKind::Insert,
            key.to_vec(),
            value.to_vec(),
            Some(cb),
            sim.now(),
        );
        self.submit(sim, op);
    }

    /// UPDATE an existing key.
    pub fn update(&self, sim: &mut Sim, key: &[u8], value: &[u8], cb: OpCb) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.stats.updates += 1;
            inner.stats.ops += 1;
        }
        let op = InFlightOp::new(
            OpKind::Update,
            key.to_vec(),
            value.to_vec(),
            Some(cb),
            sim.now(),
        );
        self.submit(sim, op);
    }

    /// Upsert sugar used by examples: INSERT, retrying as UPDATE on
    /// collision.
    pub fn put(&self, sim: &mut Sim, key: &[u8], value: &[u8], cb: OpCb) {
        let this = self.clone();
        let key2 = key.to_vec();
        let value2 = value.to_vec();
        self.insert(
            sim,
            key,
            value,
            Box::new(move |sim, res| match res {
                Err(OpError::Exists) => this.update(sim, &key2, &value2, cb),
                other => cb(sim, other),
            }),
        );
    }

    /// DELETE a key.
    pub fn delete(&self, sim: &mut Sim, key: &[u8], cb: OpCb) {
        {
            let mut inner = self.inner.borrow_mut();
            inner.stats.deletes += 1;
            inner.stats.ops += 1;
        }
        let op = InFlightOp::new(
            OpKind::Delete,
            key.to_vec(),
            Vec::new(),
            Some(cb),
            sim.now(),
        );
        self.submit(sim, op);
    }

    /// Ordered range scan: the `limit` smallest keys `>= start` cluster-wide,
    /// with their values. Hash partitioning scatters the key range over every
    /// partition, so the client asks each in turn (closed-loop discipline)
    /// for its likely share of the answer ([`scan_quota`]), then tops up only
    /// the partitions whose last key still sorts among the `limit` smallest
    /// received — following each server's continuation (`more` flag →
    /// reissue from the last received key + `0x00`) so no single request
    /// occupies a shard core past its scan quantum. The callback receives
    /// the merged result as a packed [`hydra_wire::ScanItems`] payload
    /// (`more = false`), key-sorted and truncated to `limit`.
    pub fn scan(&self, sim: &mut Sim, start: &[u8], limit: u32, cb: OpCb) {
        let partitions = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.scans += 1;
            inner.stats.ops += 1;
            // The partition set changes only with the directory generation.
            let generation = inner.directory.borrow().generation;
            match &inner.scan_order {
                Some((listed_at, order)) if *listed_at == generation => order.clone(),
                _ => {
                    let mut ps: Vec<u32> =
                        inner.directory.borrow().shards.keys().copied().collect();
                    ps.sort_unstable();
                    let order: Rc<[u32]> = ps.into();
                    inner.scan_order = Some((generation, order.clone()));
                    order
                }
            }
        };
        let state = ScanState {
            start: start.to_vec(),
            limit,
            runs: Vec::with_capacity(partitions.len()),
            partitions,
            asked: 0,
            at: 0,
            want: 0,
            issued_at: sim.now(),
        };
        self.scan_next(sim, state, cb);
    }

    /// Moves the scan to the partition it has to read next — the first pass
    /// asks each for its quota, after it whichever is still unsettled for
    /// what it is short — or finishes it when none is (or `limit` is 0).
    /// What is unsettled is judged afresh at every pick: every item that
    /// arrives can only lower the `limit`-th smallest key.
    fn scan_next(&self, sim: &mut Sim, mut state: ScanState, cb: OpCb) {
        let next = if state.limit == 0 {
            None
        } else if state.asked < state.partitions.len() {
            let at = state.asked;
            state.asked += 1;
            Some((at, scan_quota(state.limit, state.partitions.len())))
        } else {
            state.unsettled()
        };
        let Some((at, want)) = next else {
            self.finish_scan(sim, state, cb);
            return;
        };
        (state.at, state.want) = (at, want);
        self.scan_step(sim, state, cb);
    }

    /// Issues the next request to the partition being read: what it still
    /// owes, from just past the last key it sent (`start` if none).
    fn scan_step(&self, sim: &mut Sim, state: ScanState, cb: OpCb) {
        let partition = state.partitions[state.at];
        let cursor = match state.last_key(state.at) {
            Some(last) => [last, &[0]].concat(),
            None => state.start.clone(),
        };
        let want = state.want;
        let this = self.clone();
        let step_cb: OpCb = Box::new(move |sim, res| {
            this.on_scan_step(sim, state, cb, res);
        });
        self.issue_scan_request(sim, partition, cursor, want, step_cb);
    }

    /// Settles one per-partition response: keep its run, continue the same
    /// partition while the server reports truncation short of what was
    /// asked, else move on.
    fn on_scan_step(
        &self,
        sim: &mut Sim,
        mut state: ScanState,
        cb: OpCb,
        res: Result<Option<Vec<u8>>, OpError>,
    ) {
        // A scan step answers Ok(a packed item list): anything else fails
        // the scan, with the underlying failure if there is one.
        let msg = match res {
            Ok(msg) => msg.unwrap_or_default(),
            Err(e) => {
                cb(sim, Err(e));
                return;
            }
        };
        let Some(span) = ScanSpan::of_response(&msg) else {
            cb(sim, Err(OpError::Server));
            return;
        };
        let run = span.items(&msg);
        let (got, more) = (run.len() as u32, run.more());
        self.inner.borrow_mut().stats.scan_items_fetched += got as u64;
        state.want = state.want.saturating_sub(got);
        state.runs.push((state.at, msg, span));
        if more && state.want > 0 {
            // Continuation: resume just past the last received key. A step
            // crowded out of its response frame (a frame's responses share
            // one slot) carries nothing and is asked again as it was.
            self.scan_step(sim, state, cb);
        } else {
            self.scan_next(sim, state, cb);
        }
    }

    /// Merges the fan-out: the steps' key-sorted runs, k-way, into one list
    /// truncated to the global limit. Keys are unique cluster-wide (each
    /// lives on one partition), so the merge needs no dedup.
    fn finish_scan(&self, sim: &mut Sim, state: ScanState, cb: OpCb) {
        let mut packed = Vec::new();
        let returned = scan_items_merge(state.all_runs(), state.limit, &mut packed);
        {
            let mut inner = self.inner.borrow_mut();
            let lat = sim.now() - state.issued_at;
            inner.stats.scan_lat.record(lat);
            inner.stats.scan_items_returned += returned as u64;
        }
        cb(sim, Ok(Some(packed)));
    }

    /// Submits one partition-pinned scan request.
    fn issue_scan_request(
        &self,
        sim: &mut Sim,
        partition: u32,
        cursor: Vec<u8>,
        limit: u32,
        cb: OpCb,
    ) {
        self.inner.borrow_mut().stats.scan_steps += 1;
        let limit = limit.to_le_bytes().to_vec();
        let op = InFlightOp {
            partition,
            ..InFlightOp::new(OpKind::Scan, cursor, limit, Some(cb), sim.now())
        };
        self.submit_to(sim, op);
    }

    // ---- fast path ----

    fn valid_cached_ptr(&self, now: SimTime, key: &[u8]) -> Option<CachedPtr> {
        let mut inner = self.inner.borrow_mut();
        let ptr = inner.ptr_cache.get(key)?;
        if ptr.lease_expiry <= now {
            return None; // lease lapsed: pointer may dangle, do not use
        }
        // A migration flip may have moved the key: a pointer into a shard
        // the live ring no longer routes to is stale, drop it eagerly
        // rather than read a retired copy.
        let owner = inner.directory.borrow().ring.route(key).map(|s| s.0);
        if owner != Some(ptr.partition) {
            inner.stats.invalid_hits += 1;
            inner.ptr_cache.remove(key);
            return None;
        }
        Some(ptr)
    }

    /// Picks the read target for a multi-pointer entry: 0 = primary,
    /// k > 0 = `ptr.replicas[k - 1]`. Advances the per-client round-robin
    /// rotor only when spreading applies.
    fn pick_spread_target(&self, ptr: &CachedPtr) -> usize {
        let mut inner = self.inner.borrow_mut();
        let n = match &ptr.replicas {
            Some(replicas) if inner.cfg.replica_read_spread => 1 + replicas.len(),
            _ => return 0,
        };
        let pick = (inner.spread_rr % n as u64) as usize;
        inner.spread_rr = inner.spread_rr.wrapping_add(1);
        pick
    }

    /// Lazily opens (and caches) a QP to a replica-hosting node.
    fn ensure_replica_qp(&self, node: u32) -> QpId {
        let mut inner = self.inner.borrow_mut();
        if let Some(&qp) = inner.replica_qps.get(&node) {
            return qp;
        }
        let qp = inner.fab.connect(inner.node, NodeId(node), Transport::Rdma);
        inner.replica_qps.insert(node, qp);
        qp
    }

    /// Fast-path GET: a one-sided read of the cached location, flying
    /// beside whatever else is in flight — unless the pointer is suspect,
    /// when the GET takes the message path carrying it instead.
    fn issue_rdma_get(&self, sim: &mut Sim, key: Vec<u8>, ptr: CachedPtr, cb: OpCb) {
        self.ensure_conn(ptr.partition);
        // A suspect pointer is read nowhere, so it turns no spread rotor.
        let pick = if ptr.suspect {
            0
        } else {
            self.pick_spread_target(&ptr)
        };
        // The read's target, or (`Err`) what the message GET carries.
        let target = if pick == 0 {
            let mut inner = self.inner.borrow_mut();
            let conn = inner.conn(ptr.partition).expect("ensure_conn built it");
            let (qp, arena_region) = (conn.qp, conn.arena_region);
            // After a fail-over the partition's arena is a different region;
            // a pointer into the old one is useless.
            if arena_region.0 != ptr.rptr.region {
                inner.stats.rptr_reads += 1;
                inner.stats.invalid_hits += 1;
                inner.stats.msg_gets += 1;
                inner.ptr_cache.remove(&key);
                Err(None)
            } else if ptr.suspect {
                inner.stats.suspect_gets += 1;
                inner.stats.msg_gets += 1;
                Err(Some(ptr.rptr))
            } else {
                inner.stats.rptr_reads += 1;
                Ok((qp, arena_region, ptr.rptr, false))
            }
        } else {
            let target = ptr.replicas.as_ref().expect("picked a replica")[pick - 1];
            let qp = self.ensure_replica_qp(target.node);
            let mut inner = self.inner.borrow_mut();
            inner.stats.rptr_reads += 1;
            inner.stats.replica_reads += 1;
            Ok((qp, RegionId(target.rptr.region), target.rptr, true))
        };
        let now = sim.now();
        let (qp, region, rptr, replica) = match target {
            Ok(target) => target,
            Err(seen) => {
                let op = InFlightOp {
                    seen,
                    ..InFlightOp::new(OpKind::Get, key, Vec::new(), Some(cb), now)
                };
                self.submit(sim, op);
                return;
            }
        };
        let (req_id, ship, node, fab) = {
            let mut inner = self.inner.borrow_mut();
            inner.next_req_id += 1;
            inner.next_ship += 1;
            let (req_id, ship) = (inner.next_req_id, inner.next_ship);
            inner.window.insert(
                req_id,
                InFlightOp {
                    req_id,
                    ship,
                    expect_version: ptr.version,
                    partition: ptr.partition,
                    seen: Some(ptr.rptr),
                    ..InFlightOp::new(OpKind::RdmaGet, key, Vec::new(), Some(cb), now)
                },
            );
            (req_id, ship, inner.node, inner.fab.clone())
        };
        // Primary reads always complete (the NIC answers even when the shard
        // process is dead); a replica's *machine* may be gone, in which case
        // the read vanishes — arm a timeout.
        if replica {
            let ev = self.arm_timeout(sim, ship);
            if let Some(op) = self.inner.borrow_mut().window.get_mut(&req_id) {
                op.timeout_ev = Some(ev);
            }
        }
        let this = self.clone();
        fab.post_read(
            sim,
            qp,
            node,
            region,
            (rptr.offset / 8) as usize,
            rptr.len as usize,
            Box::new(move |sim, blob| this.on_rdma_get_done(sim, req_id, blob)),
        );
    }

    fn on_rdma_get_done(&self, sim: &mut Sim, req_id: u64, blob: Vec<u8>) {
        let Some(op) = self.inner.borrow_mut().window.remove(&req_id) else {
            return; // late completion of a timed-out replica read
        };
        debug_assert_eq!(op.kind, OpKind::RdmaGet);
        if let Some(ev) = op.timeout_ev {
            sim.cancel(ev);
        }
        let (key, cb, issued_at, seen) = (op.key, op.cb, op.issued_at, op.seen);
        let fetched = FetchedItem::parse(&blob, &key).and_then(|item| {
            // Version stamp check: the guardian proves the block holds *a*
            // live item for this key; the version pins it to the one the
            // pointer was exported for (ABA guard across block reuse).
            match op.expect_version {
                Some(v) if item.version != v => Err(ItemError::Stale),
                _ => Ok(item),
            }
        });
        match fetched {
            Ok(item) => {
                {
                    let mut inner = self.inner.borrow_mut();
                    inner.stats.rptr_hits += 1;
                    let lat = sim.now() - issued_at;
                    inner.stats.get_lat.record(lat + costs::CLIENT_NS);
                }
                if let Some(cb) = cb {
                    sim.schedule_in(costs::CLIENT_NS, move |sim| cb(sim, Ok(Some(item.value))));
                }
            }
            Err(ItemError::Stale) | Err(ItemError::Corrupt) | Err(ItemError::Truncated) => {
                // Outdated or reclaimed item observed: invalid hit. Drop the
                // pointer and fetch the latest version via the message path,
                // carrying the dead pointer: the one that comes back differs
                // from it and is cached suspect.
                {
                    let mut inner = self.inner.borrow_mut();
                    inner.stats.invalid_hits += 1;
                    inner.stats.msg_gets += 1;
                    inner.ptr_cache.remove(&key);
                }
                // Preserve the original issue time so the recorded latency
                // covers the full (wasted read + retry) window.
                let op = InFlightOp {
                    seen,
                    ..InFlightOp::new(OpKind::Get, key, Vec::new(), cb, issued_at)
                };
                self.submit(sim, op);
            }
        }
    }

    // ---- message path ----

    /// Routes a keyed op to its partition and submits it there.
    fn submit(&self, sim: &mut Sim, mut op: InFlightOp) {
        let partition = {
            let inner = self.inner.borrow();
            let dir = inner.directory.borrow();
            dir.ring.route(&op.key).map(|s| s.0)
        };
        match partition {
            Some(p) => {
                op.partition = p;
                self.submit_to(sim, op);
            }
            None => {
                if let Some(cb) = op.cb {
                    cb(sim, Err(OpError::Server));
                }
            }
        }
    }

    /// Assigns the op a fresh request id, encodes it and queues it on its
    /// partition — scan steps come here directly, being partition-pinned
    /// rather than key-routed. Everything else the op carries — its issue
    /// time above all, so retries keep their full latency window — goes
    /// along.
    fn submit_to(&self, sim: &mut Sim, mut op: InFlightOp) {
        op.req_id = {
            let mut inner = self.inner.borrow_mut();
            inner.next_req_id += 1;
            inner.next_req_id
        };
        (op.ship, op.timeout_ev) = (0, None);
        let payload = encode_request(op.kind, op.req_id, &op.key, &op.value);
        self.enqueue(sim, op, payload);
    }

    /// Queues an encoded request behind its partition's connection slot and
    /// pumps the connection.
    fn enqueue(&self, sim: &mut Sim, op: InFlightOp, payload: Vec<u8>) {
        let partition = op.partition;
        let fits = {
            let inner = self.inner.borrow();
            // The op must fit a shipment of its own.
            let alone = if ships_frames(&inner.cfg) {
                hydra_wire::BATCH_HDR + hydra_wire::BATCH_ENTRY_HDR + payload.len()
            } else {
                payload.len()
            };
            frame::frame_words(alone) <= inner.cfg.msg_slot_words
        };
        if !fits {
            if let Some(cb) = op.cb {
                cb(sim, Err(OpError::TooLarge));
            }
            return;
        }
        self.inner
            .borrow_mut()
            .outbox(partition)
            .queue
            .push_back(QueuedOp { op, payload });
        self.pump(sim, partition);
    }

    /// Ships queued operations for `partition` if the connection can take
    /// them. The shipping shape is all that transport and depth select:
    /// Send/Recv posts every queued request as its own message (one
    /// doorbell for the train); RDMA Write fills the connection's one
    /// message slot — with a bare request at depth 1, with a batch frame
    /// (even of one request) above it — and waits for the response to free
    /// it.
    fn pump(&self, sim: &mut Sim, partition: u32) {
        {
            let mut inner = self.inner.borrow_mut();
            let rdma_write = inner.cfg.client_mode.rdma_write();
            let outbox = inner.outbox(partition);
            // One shipment in flight per connection slot.
            if outbox.queue.is_empty() || (rdma_write && outbox.slot.is_some()) {
                return;
            }
        }
        self.ensure_conn(partition);
        let mut inner_ref = self.inner.borrow_mut();
        let inner = &mut *inner_ref;
        let fab = inner.fab.clone();
        let node = inner.node;
        let conn = inner.conns[partition as usize]
            .as_ref()
            .expect("ensure_conn built it");
        let (qp, tag) = (conn.qp, conn.tag);
        let outbox = &mut inner.outboxes[partition as usize];
        let q = &mut outbox.queue;
        if !inner.cfg.client_mode.rdma_write() {
            // Individual responses, so every message is a shipment of its
            // own with a timeout of its own.
            let mut payloads = Vec::with_capacity(q.len());
            let mut shipped = Vec::with_capacity(q.len());
            while let Some(mut item) = q.pop_front() {
                hydra_wire::set_channel_tag(&mut item.payload, tag);
                inner.next_ship += 1;
                item.op.ship = inner.next_ship;
                shipped.push((item.op.req_id, item.op.ship));
                payloads.push(item.payload);
                inner.window.insert(item.op.req_id, item.op);
            }
            drop(inner_ref);
            fab.post_send_batch(sim, qp, node, payloads);
            for (req_id, ship) in shipped {
                let ev = self.arm_timeout(sim, ship);
                if let Some(op) = self.inner.borrow_mut().window.get_mut(&req_id) {
                    op.timeout_ev = Some(ev);
                }
            }
            return;
        }
        inner.next_ship += 1;
        let ship = inner.next_ship;
        let frames = ships_frames(&inner.cfg);
        let slot_words = inner.cfg.msg_slot_words;
        // AIMD: the congestion window bounds a frame below max_batch;
        // excess operations stay queued client-side (the window sheds load
        // instead of deepening the server's run queue).
        let window = if !frames {
            1
        } else if inner.cfg.aimd.enabled {
            let max_batch = inner.cfg.max_batch.max(1);
            outbox
                .aimd
                .get_or_insert_with(|| AimdWindow::new(max_batch))
                .window()
                .min(max_batch)
        } else {
            inner.cfg.max_batch.max(1)
        };
        let builder = &mut inner.req_batch;
        builder.clear();
        let mut bare = None;
        let mut taken = 0;
        while taken < window {
            let Some(front) = q.front() else { break };
            let grown = frame::frame_words(builder.byte_len_with(front.payload.len()));
            if taken > 0 && grown > slot_words {
                break; // next op overflows the slot; ship what we have
            }
            let mut item = q.pop_front().expect("front exists");
            hydra_wire::set_channel_tag(&mut item.payload, tag);
            item.op.ship = ship;
            inner.window.insert(item.op.req_id, item.op);
            if frames {
                builder.push(&item.payload);
            } else {
                bare = Some(item.payload);
            }
            taken += 1;
        }
        let words = frame::frame_to_words(bare.as_deref().unwrap_or(builder.bytes()));
        let req_region = conn.req_region;
        // Delivery wakes the shard's polling loop on this connection.
        let server_kick = conn.server_kick.clone();
        drop(inner_ref);
        fab.post_write(
            sim,
            qp,
            node,
            words,
            req_region,
            0,
            Some(Box::new(move |sim| server_kick(sim))),
        );
        // If the shipment is still unanswered when this fires, the shard is
        // unresponsive (dead or overloaded).
        let timeout_ev = self.arm_timeout(sim, ship);
        self.inner.borrow_mut().outbox(partition).slot = Some(Slot {
            ship,
            timeout_ev,
            shipped_at: sim.now(),
        });
    }

    fn arm_timeout(&self, sim: &mut Sim, ship: u64) -> hydra_sim::EventId {
        let timeout = self.inner.borrow().cfg.op_timeout_ns;
        let this = self.clone();
        sim.schedule_in(timeout, move |sim| this.on_timeout(sim, ship))
    }

    /// Shipment `ship` went unanswered: put every op it carried through the
    /// one retry policy, then free its connection slot — after the retries
    /// have re-queued, so they leave together in the next shipment.
    fn on_timeout(&self, sim: &mut Sim, ship: u64) {
        let (ops, slot) = {
            let mut inner = self.inner.borrow_mut();
            let ops = inner.take_ops(|op| op.ship == ship);
            let Some(first) = ops.first() else {
                return; // answered long ago
            };
            inner.stats.timeouts += ops.len() as u64;
            let partition = first.partition;
            let slot = &inner.outbox(partition).slot;
            let holds_slot = slot.as_ref().is_some_and(|s| s.ship == ship);
            (ops, holds_slot.then_some(partition))
        };
        for op in ops {
            self.retry(sim, op);
        }
        if let Some(partition) = slot {
            {
                let mut inner = self.inner.borrow_mut();
                let outbox = inner.outbox(partition);
                outbox.slot = None;
                // A whole shipment unanswered is maximal congestion.
                if let Some(win) = &mut outbox.aimd {
                    win.on_timeout();
                }
            }
            self.pump(sim, partition);
        }
    }

    /// The one timeout policy: up to [`MAX_ATTEMPTS`] shipments per op.
    fn retry(&self, sim: &mut Sim, op: InFlightOp) {
        if op.attempts >= MAX_ATTEMPTS {
            if let Some(cb) = op.cb {
                cb(sim, Err(OpError::Timeout));
            }
            return;
        }
        let attempts = op.attempts + 1;
        self.resubmit(sim, op, attempts);
    }

    /// Sends `op` again as its attempt number `attempts`, re-resolving the
    /// route (the partition's primary may have been replaced by SWAT; `pump`
    /// rebuilds a connection that points at a deposed one) and keeping the
    /// original issue time and the pointer a GET carries.
    fn resubmit(&self, sim: &mut Sim, mut op: InFlightOp, attempts: u32) {
        {
            let mut inner = self.inner.borrow_mut();
            if op.kind == OpKind::RdmaGet {
                // A one-sided read that will not come back — its replica's
                // machine crashed, or its primary was replaced. Drop the
                // pointer and go through the message path.
                inner.stats.invalid_hits += 1;
                inner.stats.msg_gets += 1;
                inner.ptr_cache.remove(&op.key);
                op.kind = OpKind::Get;
            }
            inner.stats.retries += 1;
        }
        op.attempts = attempts;
        if op.kind == OpKind::Scan {
            // A scan step is pinned to its partition; the cursor key must
            // not be re-routed by hash.
            self.submit_to(sim, op);
        } else {
            self.submit(sim, op);
        }
    }

    /// Builds (or reuses) the connection to `partition`'s current primary.
    ///
    /// Every connection rides a [`Channel`]: a fresh one of its own, or,
    /// under [`ClusterConfig::mux_connections`], the one this client shares
    /// with the server node. A connection that replaces a stale one (a
    /// fail-over or migration rerouted the partition) first retires the
    /// old tag, so the old channel stops routing it to the old server
    /// instance.
    fn ensure_conn(&self, partition: u32) {
        let mut guard = self.inner.borrow_mut();
        let inner = &mut *guard;
        let current = inner.directory.borrow().shards[&partition].clone();
        if let Some(old) = inner.conn(partition) {
            if Rc::ptr_eq(&old.server, &current) {
                return;
            }
            old.channel.demux.borrow_mut().remove(&old.tag);
        }
        let (server_node, arena_region) = {
            let s = current.borrow();
            (s.node, s.arena_region)
        };
        let (fab, cfg, node) = (&inner.fab, &inner.cfg, inner.node);
        let (req_region, req_mem) =
            fab.alloc_region_paged(server_node, cfg.msg_slot_words, cfg.page_bytes);
        let (resp_region, resp_mem) =
            fab.alloc_region_paged(node, cfg.msg_slot_words, cfg.page_bytes);
        let fresh = !(cfg.mux_connections && inner.channels.contains_key(&server_node.0));
        let channel = if fresh {
            Channel::open(fab, cfg, node, server_node)
        } else {
            inner.channels[&server_node.0].clone()
        };
        if fresh && cfg.mux_connections {
            inner.channels.insert(server_node.0, channel.clone());
        }
        let (qp, tag) = (channel.qp, channel.next_tag.get());
        channel.next_tag.set(tag.wrapping_add(1));
        let send_recv = !cfg.client_mode.rdma_write();
        let weak = Rc::downgrade(&self.inner);
        // The server's kick into this client when a response lands.
        let client_kick: Rc<dyn Fn(&mut Sim)> = {
            let weak = weak.clone();
            Rc::new(move |sim: &mut Sim| {
                if let Some(rc) = weak.upgrade() {
                    HydraClient { inner: rc }.on_response_kick(sim, partition);
                }
            })
        };
        let conn_idx = current.borrow_mut().add_conn(ServerConn {
            qp,
            req_mem,
            resp_region,
            client_kick,
        });
        channel
            .demux
            .borrow_mut()
            .insert(tag, (current.clone(), conn_idx));
        if fresh && send_recv {
            channel.listen(fab, node, server_node, weak);
        }
        let server_kick: Rc<dyn Fn(&mut Sim)> = {
            let server_rc = current.clone();
            Rc::new(move |sim: &mut Sim| {
                ShardServer::on_request(&server_rc, sim, conn_idx);
            })
        };
        let i = partition as usize;
        if i >= inner.conns.len() {
            inner.conns.resize_with(i + 1, || None);
        }
        inner.conns[i] = Some(ClientConn {
            server: current,
            channel,
            qp,
            tag,
            req_region,
            resp_mem,
            arena_region,
            server_kick,
        });
    }

    fn on_response_kick(&self, sim: &mut Sim, partition: u32) {
        let payload = {
            let mut inner = self.inner.borrow_mut();
            let Some(conn) = inner.conn(partition) else {
                return;
            };
            match frame::poll_message(&conn.resp_mem) {
                Ok(Some(p)) => {
                    frame::consume_message(&conn.resp_mem, p.len());
                    p
                }
                Ok(None) => return,
                Err(_) => {
                    // As the server does with a corrupt request frame: clear
                    // the whole buffer, head word last, and count it. The
                    // shipment it should have answered times out.
                    for w in conn.resp_mem.iter().rev() {
                        w.store(0, Ordering::Release);
                    }
                    inner.stats.malformed += 1;
                    return;
                }
            }
        };
        self.on_response_payload(sim, payload);
    }

    /// Settles every response `payload` carries (one bare response, or one
    /// response frame answering one request frame), frees the connection
    /// slot their shipment held, and pumps the next shipment into it. Both
    /// transports end here, so this is where bytes from outside are judged:
    /// a frame that does not parse is dropped whole, a message that is not a
    /// response is dropped by itself, each counted once; whatever they
    /// should have answered is left to its timeout.
    pub fn on_response_payload(&self, sim: &mut Sim, payload: Vec<u8>) {
        let batched = BatchFrame::is_batch(&payload);
        if batched && BatchFrame::parse(&payload).is_none() {
            self.inner.borrow_mut().stats.malformed += 1;
            return;
        }
        // The server stamps its backlog (µs) into every response; the worst
        // message of a frame is the congestion signal.
        let mut max_hint: u16 = 0;
        let mut freed = None;
        // A scan step keeps its response message. One that came bare is the
        // payload: it settles once the borrow below ends and takes the
        // payload with it, uncopied.
        let mut bare_scan = None;
        for msg in messages(&payload) {
            max_hint = max_hint.max(backlog_hint(msg));
            let Some(resp) = Response::decode(msg) else {
                self.inner.borrow_mut().stats.malformed += 1;
                continue;
            };
            let op = {
                let mut inner = self.inner.borrow_mut();
                let Some(op) = inner.window.remove(&resp.req_id) else {
                    continue; // late response for a timed-out attempt
                };
                let slot = &mut inner.outbox(op.partition).slot;
                if slot.as_ref().is_some_and(|s| s.ship == op.ship) {
                    let slot = slot.take().expect("checked above");
                    sim.cancel(slot.timeout_ev);
                    freed = Some((op.partition, slot.shipped_at));
                }
                op
            };
            if let Some(ev) = op.timeout_ev {
                sim.cancel(ev);
            }
            match (op.kind, batched) {
                (OpKind::Scan, false) => bare_scan = Some((op, resp.status)),
                (OpKind::Scan, true) => self.complete_op(sim, op, &resp, Some(msg.to_vec())),
                _ => self.complete_op(sim, op, &resp, None),
            }
        }
        if let Some((op, status)) = bare_scan {
            let resp = Response::status_only(status, op.req_id);
            self.complete_op(sim, op, &resp, Some(payload));
        }
        let Some((partition, shipped_at)) = freed else {
            return;
        };
        if batched {
            if let Some(win) = &mut self.inner.borrow_mut().outbox(partition).aimd {
                win.on_frame(max_hint, sim.now().saturating_sub(shipped_at));
            }
        }
        self.pump(sim, partition);
    }

    /// Settles one completed operation against its decoded response:
    /// pointer-cache upkeep, verdict mapping, latency recording, callback.
    /// `scan_msg` is the response message itself, owned, when the operation
    /// is a scan step: the step's completion value.
    fn complete_op(
        &self,
        sim: &mut Sim,
        out: InFlightOp,
        resp: &Response<'_>,
        scan_msg: Option<Vec<u8>>,
    ) {
        let now = sim.now();
        // Ownership redirect: the shard no longer owns the key (migration
        // flipped the ring). The shared directory already carries the new
        // ring, so re-routing by hash lands on the current owner. Scan steps
        // are partition-pinned (the emit filter on the server drops moved
        // keys), so only keyed ops redirect.
        if resp.status == Status::WrongOwner && out.kind != OpKind::Scan {
            {
                let mut inner = self.inner.borrow_mut();
                inner.stats.redirects += 1;
                inner.ptr_cache.remove(&out.key);
            }
            if out.attempts >= MAX_ATTEMPTS {
                if let Some(cb) = out.cb {
                    cb(sim, Err(OpError::Server));
                }
                return;
            }
            let attempts = out.attempts + 1;
            self.submit(sim, InFlightOp { attempts, ..out });
            return;
        }
        let verdict = {
            let mut inner = self.inner.borrow_mut();
            let verdict: Result<Option<Vec<u8>>, OpError> = match (out.kind, resp.status) {
                (OpKind::Get, Status::Ok) => {
                    if inner.cfg.client_mode.rdma_read()
                        && !resp.rptr.is_none()
                        && resp.lease_expiry > now
                    {
                        let dir = inner.directory.borrow();
                        let partition = dir.ring.route(&out.key).map(|s| s.0);
                        drop(dir);
                        if let Some(partition) = partition {
                            // Hot keys arrive with a replica set: keep the
                            // version stamp and spread targets alongside the
                            // primary pointer.
                            let version = resp.replicas.as_ref().map(|set| set.version);
                            let replicas = resp
                                .replicas
                                .as_ref()
                                .map(|set| set.entries())
                                .filter(|entries| !entries.is_empty())
                                .map(|entries| {
                                    entries
                                        .iter()
                                        .map(|e| ReplicaTarget {
                                            node: e.node,
                                            rptr: e.rptr,
                                        })
                                        .collect()
                                });
                            inner.ptr_cache.insert(
                                &out.key,
                                CachedPtr {
                                    partition,
                                    rptr: resp.rptr,
                                    lease_expiry: resp.lease_expiry,
                                    version,
                                    replicas,
                                    suspect: out.seen.is_some_and(|seen| seen != resp.rptr),
                                },
                            );
                        }
                    }
                    Ok(Some(resp.value.to_vec()))
                }
                (OpKind::Get, Status::NotFound) => Ok(None),
                // A scan step's value is its whole response message.
                (OpKind::Scan, Status::Ok) => Ok(scan_msg),
                (_, Status::Ok) => Ok(None),
                (_, Status::NotFound) => Err(OpError::NotFound),
                (_, Status::Exists) => Err(OpError::Exists),
                (_, Status::Error) => Err(OpError::Server),
                // Unredirected WrongOwner (a scan step): surface as a server
                // error; callers fall back through the message path.
                (_, Status::WrongOwner) => Err(OpError::Server),
            };
            let lat = now - out.issued_at + costs::CLIENT_NS;
            match out.kind {
                OpKind::Get | OpKind::RdmaGet => inner.stats.get_lat.record(lat),
                // Scan latency is recorded end-to-end by `finish_scan`, not
                // per fan-out step.
                OpKind::Scan => {}
                _ => inner.stats.update_lat.record(lat),
            }
            verdict
        };
        if let Some(cb) = out.cb {
            sim.schedule_in(costs::CLIENT_NS, move |sim| cb(sim, verdict));
        }
    }
}

/// Whether requests ship as batch frames (RDMA Write at depth > 1) rather
/// than as bare messages.
fn ships_frames(cfg: &ClusterConfig) -> bool {
    cfg.client_mode.rdma_write() && cfg.pipeline_depth > 1
}

fn encode_request(kind: OpKind, req_id: u64, key: &[u8], value: &[u8]) -> Vec<u8> {
    match kind {
        OpKind::Get => Request::Get { req_id, key }.encode(),
        OpKind::Insert => Request::Insert { req_id, key, value }.encode(),
        OpKind::Update => Request::Update { req_id, key, value }.encode(),
        OpKind::Delete => Request::Delete { req_id, key }.encode(),
        // Scan steps carry the cursor as the key and the 4-byte limit as the
        // value, mirroring the wire layout.
        OpKind::Scan => Request::Scan {
            req_id,
            start: key,
            limit: u32::from_le_bytes(value.try_into().expect("4-byte scan limit")),
        }
        .encode(),
        OpKind::RdmaGet => unreachable!("not a message op"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A pointer-cache slot is the key, the hash, this value and a bit:
    /// replica targets, which only hot keys carry, live out of line.
    #[test]
    fn a_cached_pointer_fits_in_48_bytes() {
        assert!(std::mem::size_of::<CachedPtr>() <= 48);
    }

    /// The client half of `corrupt_request_frame_is_counted_and_the_slot_
    /// released` (ROADMAP 4(e)): a response buffer whose head word is not a
    /// frame header is counted, cleared and survived; the parent commit
    /// panicked with `corrupt response frame`.
    #[test]
    fn corrupt_response_frame_is_counted_and_the_buffer_cleared() {
        let cfg = ClusterConfig {
            server_nodes: 1,
            shards_per_node: 1,
            ..ClusterConfig::default()
        };
        let mut cluster = crate::ClusterBuilder::new(cfg).build();
        let client = cluster.add_client(0);
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let cb = move |_: &mut Sim, r| *g.borrow_mut() = Some(r);
        client.insert(&mut cluster.sim, b"canary", b"alive", Box::new(cb.clone()));
        cluster.sim.run();
        assert_eq!(got.borrow_mut().take(), Some(Ok(None)));
        let buffer = client.inner.borrow().conn(0).unwrap().resp_mem.clone();
        buffer[0].store(0xDEAD_BEEF_0000_0040, Ordering::Release);
        buffer[5].store(7, Ordering::Release);
        client.on_response_kick(&mut cluster.sim, 0);
        assert_eq!(client.stats().malformed, 1);
        assert!(buffer.iter().all(|w| w.load(Ordering::Acquire) == 0));
        client.get(&mut cluster.sim, b"canary", Box::new(cb));
        cluster.sim.run();
        assert_eq!(got.borrow_mut().take(), Some(Ok(Some(b"alive".to_vec()))));
    }

    /// A suspect GET whose shipment times out is retried still carrying the
    /// pointer it was sent to check: the retry's answer, a pointer other
    /// than the carried one, leaves the entry suspect — a cold miss's answer
    /// would have cleared it.
    #[test]
    fn a_suspect_get_keeps_its_pointer_across_a_retry() {
        let cfg = ClusterConfig {
            server_nodes: 1,
            shards_per_node: 1,
            ..ClusterConfig::default()
        };
        let mut cluster = crate::ClusterBuilder::new(cfg).build();
        let client = cluster.add_client(0);
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        let cb = move |_: &mut Sim, r| *g.borrow_mut() = Some(r);
        client.insert(&mut cluster.sim, b"k", b"v", Box::new(cb.clone()));
        client.get(&mut cluster.sim, b"k", Box::new(cb.clone()));
        cluster.sim.run();
        let cache = client.inner.borrow().ptr_cache.clone();
        let live = cache.get(b"k").expect("the GET cached its pointer");
        assert!(!live.suspect, "a cold miss is never suspect");
        // Suspect of a pointer the shard no longer hands out.
        let mut dead = live.clone();
        dead.rptr.offset += 8;
        dead.suspect = true;
        cache.insert(b"k", dead);
        client.get(&mut cluster.sim, b"k", Box::new(cb));
        let ship = client.inner.borrow().window.values().next().unwrap().ship;
        client.on_timeout(&mut cluster.sim, ship);
        cluster.sim.run();
        assert_eq!(got.borrow_mut().take(), Some(Ok(Some(b"v".to_vec()))));
        let s = client.stats();
        assert_eq!((s.suspect_gets, s.retries, s.rptr_reads), (1, 1, 0));
        let now = cache.get(b"k").unwrap();
        assert_eq!(now.rptr, live.rptr);
        assert!(now.suspect, "judged against the pointer it carried");
    }

    /// Golden trace of the AIMD controller: cold start at line rate, a
    /// congestion step (high backlog hints) walking the window down
    /// multiplicatively to the floor, a hold band that leaves it put, and
    /// additive recovery back to the cap. Pure function of its inputs —
    /// any behavioural change to the controller must rewrite this trace.
    #[test]
    fn aimd_window_golden_trace() {
        let mut w = AimdWindow::new(16);
        // Cold start: full window (an unloaded cluster keeps max batching).
        assert_eq!(w.window(), 16);
        // Congestion step: backlog hint at the high watermark halves the
        // window per frame down to the floor.
        let mut trace = Vec::new();
        for _ in 0..6 {
            w.on_frame(BACKLOG_HI_US, 10_000);
            trace.push(w.window());
        }
        assert_eq!(trace, vec![8, 4, 2, 1, 1, 1]);
        // Hold band: a hint between the watermarks leaves the window alone.
        w.on_frame(BACKLOG_LO_US + 1, 10_000);
        assert_eq!(w.window(), 1);
        // Recovery: clear frames (hint at/below the low watermark) climb
        // additively, capped at max_batch.
        let mut trace = Vec::new();
        for _ in 0..16 {
            w.on_frame(0, 10_000);
            trace.push(w.window());
        }
        assert_eq!(
            trace,
            vec![2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 16]
        );
        // A latency breach alone (hint clear) is also congestion.
        w.on_frame(0, LATENCY_TARGET_NS + 1);
        assert_eq!(w.window(), 8);
        // A frame timeout is maximal congestion.
        let mut w2 = AimdWindow::new(16);
        w2.on_timeout();
        assert_eq!(w2.window(), 8);
        // Repeated timeouts stop at the floor.
        for _ in 0..10 {
            w2.on_timeout();
        }
        assert_eq!(w2.window(), MIN_WINDOW);
    }
}

//! RDMA Logging Replication (§5.2).
//!
//! A secondary shard's memory is *Single-Writer Zero-Reader*: only its
//! primary writes to it and no client ever reads it. HydraDB exploits this by
//! exposing a large ring of registered memory from the secondary to the
//! primary and letting the primary replicate every write request with plain
//! one-sided RDMA Writes in a log-structured fashion — no per-request
//! acknowledgement round trip.
//!
//! Protocol, as implemented here — one protocol for every [`ReplMode`]:
//!
//! * Every write joins the primary's backlog, and one *flush* takes every
//!   parked record the ring has room for, in order. It assigns each its
//!   sequence number (+1 per record), frames it with the indicator format
//!   ([`hydra_wire::frame`]) at the ring cursor — behind a 1-word `WRAP`
//!   marker when the frame has to start over at the ring edge — adds the
//!   `AckRequest` records the mode asks for, and posts it all with one
//!   doorbell. Records the ring cannot take stay parked until an ack frees
//!   their space, and an `AckRequest` ships while they do.
//! * A dedicated applier on the secondary consumes frames in order, applying
//!   records whose sequence matches its expectation and *discarding*
//!   everything after a gap or a processing failure.
//! * The secondary acks only when it reaches an `AckRequest`: it RDMA-writes
//!   `(acked_seq, resend_from?)` into a small ack region on the *primary*
//!   (so even control traffic is one-sided). The ack is cumulative — the
//!   highest contiguously accepted sequence — and the primary releases
//!   *every* waiter at or below it. On a resend indication the primary
//!   rolls back and re-ships every unacknowledged record, in order, with
//!   one doorbell that ends in an `AckRequest`.
//! * The modes differ in three answers, each a [`ReplMode`] method:
//!
//!   | mode | completes at | asks for an ack | ack is built |
//!   |---|---|---|---|
//!   | Strict | the covering ack | after every record | on the apply path |
//!   | Logging{n} | delivery | after every n-th record | on the apply path |
//!   | GroupCommit | the covering ack | when none is outstanding and data is unacked | from the receive path |
//!
//!   Logging is the paper's relaxed mode: a write completes when its RDMA
//!   Write is delivered — one one-way flight; repairs happen asynchronously.
//!   Strict is Fig. 13's "request/acknowledge" baseline. Group commit keeps
//!   strict's respond-only-after-ack durability at a fraction of the ack
//!   traffic: its `AckRequest` rides the doorbell of the quantum it covers,
//!   and while data is unacked one request is always in flight (the ack
//!   train). The ack-coverage invariant: a waiter fires only once its
//!   record — and every record before it — is contiguously staged in the
//!   replica (gaps and processing failures stall the watermark until the
//!   rollback resend repairs them), so an acknowledged write survives a
//!   primary crash.
//! * The secondary drains each delivered quantum through a batched applier:
//!   consecutive records of one drain pass merge at `BATCH_APPLY_FACTOR`
//!   of the cold cost (streaming a contiguous log quantum overlaps its
//!   misses). An ack built on the apply path breaks
//!   the stream; group commit's watermark is published from the receive
//!   path, delayed only when the merge backlog exceeds `STAGED_ACK_LAG_NS`
//!   (bounded-apply-queue backpressure).
//!
//! The channel is also the partition's failure detector and its fence
//! (DESIGN.md §16). The primary [`stamp`](ReplicationPair::stamp)s a liveness
//! word in its ack region every [`BEAT_NS`]; the secondary
//! [`probe`](ReplicationPair::probe)s it with a one-sided Read over the same
//! QP every beat, and [`MISSES`] beats in a row without a fresh stamp are a
//! suspicion. A suspecting secondary [`fence`](ReplicationPair::fence)s
//! before it tells anyone: it revokes the primary's write permission on the
//! ring — from that instant no record can land, so nothing the primary still
//! ships can ever be acknowledged — and applies what had already landed.
//! A primary that was merely slow finds out from its first bounced ring
//! write and stops shipping ([`is_revoked`](ReplicationPair::is_revoked)).

#![forbid(unsafe_code)]

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hydra_fabric::{BatchWrite, Fabric, NodeId, QpId, RegionId, WcError, WriteDelivered};
use hydra_sim::time::SimTime;
use hydra_sim::{FifoResource, Sim};
use hydra_store::ShardEngine;
use hydra_wire::frame;
use hydra_wire::{LogOp, LogRecord};

/// Sentinel word marking "jump back to offset 0" in the ring.
pub const WRAP_MARKER: u64 = 0x5752_4150_5F5F_5F5F; // "WRAP____"

/// Period of the liveness beat: the primary stamps and the secondary probes
/// once per beat. A probe is one 8-byte Read (≈ 2 µs round trip), so the
/// period is set by how often a healthy primary may be late, not by cost.
pub const BEAT_NS: SimTime = 100_000;

/// Consecutive beats without a fresh stamp after which the secondary
/// suspects — and fences — its primary: "a few missed heartbeats" (§5.1).
/// A fault is acted on between `MISSES` and `MISSES + 1` beats after it.
pub const MISSES: u32 = 3;

/// Words of the primary's ack region: `(acked, resend_from)`, one spare,
/// and the liveness stamp.
const ACK_REGION_WORDS: usize = 4;
const LIVENESS_WORD: usize = 3;

/// Replication acknowledgement mode. The pair asks the methods below and
/// never matches on the variants:
///
/// | mode | completes at | asks for an ack | ack is built |
/// |---|---|---|---|
/// | Strict | the covering ack | after every record | on the apply path |
/// | Logging{n} | delivery | after every n-th record | on the apply path |
/// | GroupCommit | the covering ack | when none is outstanding and data is unacked | from the receive path |
///
/// In every mode an `AckRequest` also ships while records stay parked
/// behind a full ring and none is outstanding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplMode {
    /// Conventional request/acknowledge: every record asks for an ack and
    /// completion waits for it (the Fig. 13 baseline).
    Strict,
    /// RDMA Logging: complete at write delivery; solicit an ack every
    /// `ack_every` records ("several tens" in the paper).
    Logging {
        /// Records between acknowledgement requests.
        ack_every: u32,
    },
    /// Group commit: strict's durability (complete only at a covering ack)
    /// with cumulative acknowledgements. An `AckRequest` rides the doorbell
    /// of the quantum it covers whenever none is outstanding, and one
    /// watermark ack releases every waiter at or below it in sequence order.
    GroupCommit,
}

impl ReplMode {
    /// Whether a write completes at the ack covering its record (the client
    /// response is held until then) rather than at its delivery.
    pub fn strict_semantics(&self) -> bool {
        matches!(self, ReplMode::Strict | ReplMode::GroupCommit)
    }

    /// Whether a flush asks for an ack right behind a record, `since`
    /// records after the last request (this one included).
    fn asks_after_record(&self, since: u32) -> bool {
        match *self {
            ReplMode::Strict => true,
            ReplMode::Logging { ack_every } => since >= ack_every,
            ReplMode::GroupCommit => false,
        }
    }

    /// Whether a flush ends in an `AckRequest` whenever none is outstanding
    /// and a record is unacknowledged: group commit's ack train, one
    /// cumulative ack per round trip however many records landed meanwhile.
    fn asks_while_unacked(&self) -> bool {
        matches!(self, ReplMode::GroupCommit)
    }

    /// Whether the secondary publishes its ack from the receive path (group
    /// commit's watermark) rather than building it on the apply path, where
    /// the applier leaves its decode-merge loop to do so.
    fn acks_on_receive(&self) -> bool {
        matches!(self, ReplMode::GroupCommit)
    }

    /// Whether a record may leave before the primary's local merge of it
    /// ends, its flight overlapping the merge. Only group commit ships that
    /// early; Strict and Logging are the paper's execute-then-replicate
    /// baselines.
    pub fn overlaps_merge(&self) -> bool {
        matches!(self, ReplMode::GroupCommit)
    }
}

/// Configuration for one primary/secondary pair.
#[derive(Debug, Clone)]
pub struct ReplConfig {
    /// Ring capacity in words (the "large chunk of memory" exposed by the
    /// secondary).
    pub ring_words: usize,
    /// Acknowledgement mode.
    pub mode: ReplMode,
    /// Secondary CPU cost to merge one record into its store.
    pub apply_cost_ns: u64,
    /// Translation page size the ring and ack regions register with on the
    /// fabric's NIC model (4 KiB default mappings; 2 MiB collapses the MTT
    /// footprint).
    pub page_bytes: usize,
}

impl Default for ReplConfig {
    fn default() -> Self {
        ReplConfig {
            ring_words: 1 << 16,
            mode: ReplMode::Logging { ack_every: 32 },
            apply_cost_ns: 600,
            page_bytes: 4096,
        }
    }
}

/// Words of ring headroom the primary always keeps free beyond one frame of
/// potential wrap-marker waste, so `AckRequest` frames can ship even when
/// the ring is otherwise saturated.
pub const RING_HEADROOM_WORDS: usize = 16;

/// Secondary CPU cost of the replication control plane: reading the
/// watermark for an `AckRequest`, or building and posting one ack WQE. The
/// records themselves carry the (much larger) merge cost.
const ACK_CONTROL_NS: u64 = 100;

/// Merge-cost multiplier for records merged mid-stream by the batched
/// applier. Streaming backlogged log records out of the ring amortizes
/// decode and overlaps index/arena cache misses, as a quantum's writes do
/// on the primary, so a warm merge costs `apply_cost_ns ×` this. The
/// stream breaks — and the next record pays the full cold cost — when the
/// applier idles, and whenever an ack built on the apply path (Strict's
/// after every record, Logging's after every `ack_every`-th) forces the
/// applier out of its decode-merge loop. Group commit's cumulative watermark
/// is published from the receive path, so its acks never break the stream.
const BATCH_APPLY_FACTOR: f64 = 0.55;

/// GroupCommit only: how far (in modeled merge time) the receive-path
/// watermark ack may run ahead of the applier's merge completion. Within
/// the bound the ack is published as soon as the quantum is staged; beyond
/// it the ack is delayed by the excess — a bounded apply queue, so
/// acknowledgement throughput can never outrun the applier for long.
const STAGED_ACK_LAG_NS: u64 = 25_000;

/// Errors surfaced by the replication API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplError {
    /// The record's frame can never fit the secondary's ring, even when the
    /// ring is empty (the budget keeps one frame plus
    /// [`RING_HEADROOM_WORDS`] in reserve). Shipping it would previously
    /// underflow the budget arithmetic; now it is rejected up front.
    RecordTooLarge {
        /// Words the framed record needs.
        frame_words: usize,
        /// Capacity of the ring in words.
        ring_words: usize,
    },
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::RecordTooLarge {
                frame_words,
                ring_words,
            } => write!(
                f,
                "log record of {frame_words} words cannot fit a {ring_words}-word \
                 replication ring (needs 2*frame + {RING_HEADROOM_WORDS} words)"
            ),
        }
    }
}

impl std::error::Error for ReplError {}

/// Counters for reporting and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplStats {
    /// Data records shipped (first transmission).
    pub records: u64,
    /// Records re-shipped during rollback.
    pub resends: u64,
    /// AckRequest records shipped.
    pub ack_requests: u64,
    /// Acks received by the primary.
    pub acks: u64,
    /// Rollback episodes.
    pub rollbacks: u64,
    /// Records applied by the secondary.
    pub applied: u64,
    /// Records discarded by the secondary (gap/failure skipping).
    pub discarded: u64,
    /// Local replica copies killed on a forward-gap discard so exported
    /// pointers cannot serve a stale value while the rollback resend is in
    /// flight.
    pub invalidated: u64,
    /// Flushes that left records parked behind a full ring.
    pub stalls: u64,
    /// Doorbells posted: every ring write — first shipments, `AckRequest`s
    /// and rollback resends alike — leaves with one per flush or resend.
    pub batches: u64,
    /// Histogram of group-commit release-batch sizes: bucket `i` counts the
    /// cumulative acks that released `n` waiters with
    /// `2^i <= n < 2^(i+1)` (bucket 0 = single-waiter releases).
    pub release_hist: [u64; 16],
}

impl ReplStats {
    /// Total waiter releases recorded in [`release_hist`](Self::release_hist)
    /// (i.e. acks that completed at least one held response).
    pub fn releases(&self) -> u64 {
        self.release_hist.iter().sum()
    }
}

struct PendingRec {
    seq: u64,
    op: LogOp,
    key: Vec<u8>,
    value: Vec<u8>,
}

impl PendingRec {
    fn record(&self) -> LogRecord<'_> {
        LogRecord {
            seq: self.seq,
            op: self.op,
            key: &self.key,
            value: &self.value,
        }
    }
}

type DoneCb = Box<dyn FnOnce(&mut Sim)>;

/// A record waiting for the next flush to find ring room for it; a
/// quantum's completion rides its last record.
struct Parked {
    op: LogOp,
    key: Vec<u8>,
    value: Vec<u8>,
    on_done: Option<DoneCb>,
}

struct Primary {
    node: NodeId,
    qp: QpId,
    ring_region: RegionId,
    ring_words: usize,
    write_off: usize,
    next_seq: u64,
    acked: u64,
    inflight_words: usize,
    /// Shipped, unacknowledged records (data and `AckRequest`s) in
    /// sequence order — what a rollback re-ships.
    pending: VecDeque<PendingRec>,
    /// Strict-semantics completions keyed by the sequence whose covering
    /// ack releases them.
    waiters: HashMap<u64, DoneCb>,
    /// Data records since the last `AckRequest`.
    since_ack_req: u32,
    /// Sequence of the last `AckRequest` while no ack has covered it.
    ack_req_seq: Option<u64>,
    backlog: VecDeque<Parked>,
    /// Ring writes framed for the next doorbell. Kept across posts, so a
    /// warm channel frames into a list it already has.
    writes: Vec<BatchWrite>,
    ack_mem: Arc<[AtomicU64]>,
    last_ack_processed: u64,
    /// A ring write came back refused: the secondary revoked this primary's
    /// write permission. Nothing ships from here on and nothing still held
    /// is ever acknowledged.
    revoked: bool,
}

impl Primary {
    /// Assigns the next sequence number to a record and files it as
    /// pending.
    fn assign_seq(&mut self, op: LogOp, key: Vec<u8>, value: Vec<u8>) -> u64 {
        self.next_seq += 1;
        let seq = self.next_seq;
        if op == LogOp::AckRequest {
            self.since_ack_req = 0;
            self.ack_req_seq = Some(seq);
        } else {
            self.since_ack_req += 1;
        }
        self.pending.push_back(PendingRec {
            seq,
            op,
            key,
            value,
        });
        seq
    }

    /// Pending record `seq` (pending holds every unacknowledged sequence,
    /// contiguously).
    fn rec(&self, seq: u64) -> &PendingRec {
        let first = self.pending.front().expect("the record is pending").seq;
        let r = &self.pending[(seq - first) as usize];
        debug_assert_eq!(r.seq, seq);
        r
    }

    /// Whether the ring can take a record of this size now. One frame of
    /// wrap-marker waste plus [`RING_HEADROOM_WORDS`] stay in reserve so
    /// `AckRequest`s always fit. (Oversized records were rejected at the
    /// public boundary, so the saturation can only be hit by a
    /// misconfigured ring.)
    fn has_room(&self, key_len: usize, value_len: usize) -> bool {
        let need = frame::frame_words(LogRecord::encoded_len_for(key_len, value_len));
        let budget = self.ring_words.saturating_sub(need + RING_HEADROOM_WORDS);
        self.inflight_words + need <= budget
    }
}

struct Secondary {
    node: NodeId,
    engine: Rc<RefCell<ShardEngine>>,
    ring_mem: Arc<[AtomicU64]>,
    read_off: usize,
    expected: u64,
    discarded_since_ack: bool,
    cpu: FifoResource,
    /// Whether the applier is mid-stream: the previous record was merged in
    /// the same uninterrupted decode-merge loop, so the next backlogged
    /// record pays the warm (amortized) cost. Broken by idling (the loop
    /// parks) and by acks built on the apply path (Strict and Logging,
    /// draining the loop's locality); the
    /// group-commit watermark publishes from the receive path and leaves
    /// the stream intact.
    stream_warm: bool,
    fail_seqs: std::collections::HashSet<u64>,
    ack_region: RegionId,
    /// The failure detector's state, advanced once per beat.
    probe: Probe,
    /// Set by [`ReplicationPair::fence`]: the ring is closed to its primary
    /// and drained; the applier never runs again.
    fenced: bool,
}

/// What the secondary knows of its primary's liveness stamp.
struct Probe {
    /// Highest stamp any completed probe has returned.
    seen: u64,
    /// A probe completed since the last beat with a stamp above `seen`
    /// (starts true: before the first probe there is nothing to miss).
    fresh: bool,
    /// Beats in a row that ended without a fresh stamp.
    misses: u32,
}

struct Shared {
    fab: Fabric,
    cfg: ReplConfig,
    p: RefCell<Primary>,
    s: RefCell<Secondary>,
    stats: RefCell<ReplStats>,
    /// Set by [`ReplicationPair::sever`]: the channel is being retired
    /// (secondary crashed / replaced by reattach). Every subsequent call
    /// degrades to a no-op so stray in-flight completions can't touch a
    /// dead secondary's engine.
    severed: std::cell::Cell<bool>,
}

/// A primary shard's replication channel to one secondary shard.
///
/// The HydraDB server composes one pair per replica; an INSERT/UPDATE is
/// client-visible once every pair reports completion (per its mode).
#[derive(Clone)]
pub struct ReplicationPair {
    shared: Rc<Shared>,
}

impl ReplicationPair {
    /// Wires a pair up: allocates the secondary's exposed ring and the
    /// primary's ack region, and connects a dedicated RDMA QP.
    pub fn new(
        fab: &Fabric,
        primary_node: NodeId,
        secondary_node: NodeId,
        engine: Rc<RefCell<ShardEngine>>,
        cfg: ReplConfig,
    ) -> Self {
        assert!(cfg.ring_words >= 64, "ring too small to hold a frame");
        let qp = fab.connect(primary_node, secondary_node, hydra_fabric::Transport::Rdma);
        let (ring_region, ring_mem) =
            fab.alloc_region_paged(secondary_node, cfg.ring_words, cfg.page_bytes);
        let (ack_region, ack_mem) =
            fab.alloc_region_paged(primary_node, ACK_REGION_WORDS, cfg.page_bytes);
        let shared = Rc::new(Shared {
            fab: fab.clone(),
            cfg: cfg.clone(),
            p: RefCell::new(Primary {
                node: primary_node,
                qp,
                ring_region,
                ring_words: cfg.ring_words,
                write_off: 0,
                next_seq: 0,
                acked: 0,
                inflight_words: 0,
                pending: VecDeque::new(),
                waiters: HashMap::new(),
                since_ack_req: 0,
                ack_req_seq: None,
                backlog: VecDeque::new(),
                writes: Vec::new(),
                ack_mem,
                last_ack_processed: 0,
                revoked: false,
            }),
            s: RefCell::new(Secondary {
                node: secondary_node,
                engine,
                ring_mem,
                read_off: 0,
                expected: 0,
                discarded_since_ack: false,
                cpu: FifoResource::new("secondary.applier"),
                stream_warm: false,
                fail_seqs: std::collections::HashSet::new(),
                ack_region,
                probe: Probe {
                    seen: 0,
                    fresh: true,
                    misses: 0,
                },
                fenced: false,
            }),
            stats: RefCell::new(ReplStats::default()),
            severed: std::cell::Cell::new(false),
        });
        // The primary's end of the QP: a refused ring write is how it learns
        // that it was fenced.
        let weak = Rc::downgrade(&shared);
        fab.set_error_handler(
            qp,
            primary_node,
            Rc::new(move |_sim: &mut Sim, _qp, err| {
                if let (WcError::PermissionRevoked, Some(shared)) = (err, weak.upgrade()) {
                    shared.p.borrow_mut().revoked = true;
                }
            }),
        );
        ReplicationPair { shared }
    }

    /// Whether `other` is a handle to this same channel.
    pub fn same_channel(&self, other: &ReplicationPair) -> bool {
        Rc::ptr_eq(&self.shared, &other.shared)
    }

    // ---- liveness probe and fence ----

    /// Primary side, once per beat while the shard process is alive: advance
    /// the liveness stamp in the ack region.
    pub fn stamp(&self) {
        self.shared.p.borrow().ack_mem[LIVENESS_WORD].fetch_add(1, Ordering::Release);
    }

    /// Secondary side, once per beat: judge the beat that just ended — a
    /// probe that is not back, or came back with a stamp it had seen before,
    /// is a miss — and post the next one-sided Read of the stamp over the
    /// replication QP. On the [`MISSES`]th miss in a row the secondary
    /// [`fence`](Self::fence)s and this returns `true`, once: the caller
    /// owes the coordination service a report.
    pub fn probe(&self, sim: &mut Sim) -> bool {
        let shared = &self.shared;
        if shared.severed.get() {
            return false;
        }
        let (node, region) = {
            let mut s = shared.s.borrow_mut();
            if s.fenced {
                return false;
            }
            let probe = &mut s.probe;
            probe.misses = if probe.fresh { 0 } else { probe.misses + 1 };
            probe.fresh = false;
            if probe.misses >= MISSES {
                drop(s);
                self.fence(sim);
                return true;
            }
            (s.node, s.ack_region)
        };
        let qp = shared.p.borrow().qp;
        let shared2 = shared.clone();
        shared.fab.post_read(
            sim,
            qp,
            node,
            region,
            LIVENESS_WORD,
            8,
            Box::new(move |_, blob| {
                let stamp = u64::from_le_bytes(blob.try_into().expect("one word"));
                let probe = &mut shared2.s.borrow_mut().probe;
                if stamp > probe.seen {
                    probe.seen = stamp;
                    probe.fresh = true;
                }
            }),
        );
        false
    }

    /// Secondary side: close the ring to its primary. The write permission
    /// is revoked first — a local NIC operation, so from this instant no
    /// further record can land, whatever the primary believes — and then
    /// everything that had landed is applied (and acknowledged: it is
    /// durable here). The applier never runs again; the secondary's state is
    /// final and safe to promote. Idempotent.
    pub fn fence(&self, sim: &mut Sim) {
        let shared = &self.shared;
        if shared.severed.get() || shared.s.borrow().fenced {
            return;
        }
        let ring = shared.p.borrow().ring_region;
        shared.fab.revoke_write(ring);
        Self::poll_secondary(shared, sim);
        shared.s.borrow_mut().fenced = true;
    }

    /// Whether the secondary has [`fence`](Self::fence)d this channel.
    pub fn is_fenced(&self) -> bool {
        self.shared.s.borrow().fenced
    }

    /// Whether the primary has learned, from a refused ring write, that its
    /// write permission is gone.
    pub fn is_revoked(&self) -> bool {
        self.shared.p.borrow().revoked
    }

    /// The node hosting the primary end of this channel.
    pub fn primary_node(&self) -> NodeId {
        self.shared.p.borrow().node
    }

    /// The node hosting the secondary end of this channel.
    pub fn secondary_node(&self) -> NodeId {
        self.shared.s.borrow().node
    }

    /// Whether [`sever`](Self::sever) has retired this channel.
    pub fn is_severed(&self) -> bool {
        self.shared.severed.get()
    }

    /// Retires the channel, e.g. because the secondary's machine crashed
    /// and the shard is being rebuilt through a fresh pair. Outstanding
    /// strict waiters and backlogged completions fire immediately — the
    /// replacement secondary is seeded from a snapshot of the primary's
    /// *current* state, which already contains every record this channel
    /// could still have delivered — and every later call on the pair is a
    /// no-op (completions still fire so callers never hang). The channel's
    /// QP, ring and ack region are released with it: writes already posted
    /// bounce off the deregistered ring.
    pub fn sever(&self, sim: &mut Sim) {
        if self.shared.severed.replace(true) {
            return;
        }
        let mut fire: Vec<DoneCb> = Vec::new();
        {
            let mut p = self.shared.p.borrow_mut();
            let fab = &self.shared.fab;
            fab.disconnect(p.qp);
            fab.deregister(p.ring_region);
            fab.deregister(self.shared.s.borrow().ack_region);
            // In sequence order: the release order must not depend on the
            // map's per-process hashing.
            let mut waiters: Vec<(u64, DoneCb)> = p.waiters.drain().collect();
            waiters.sort_by_key(|(seq, _)| *seq);
            fire.extend(waiters.into_iter().map(|(_, cb)| cb));
            fire.extend(p.backlog.drain(..).filter_map(|r| r.on_done));
        }
        for cb in fire {
            cb(sim);
        }
    }

    /// One-record convenience over [`replicate_batch`](Self::replicate_batch).
    pub fn replicate(
        &self,
        sim: &mut Sim,
        op: LogOp,
        key: &[u8],
        value: &[u8],
        on_done: Option<DoneCb>,
    ) -> Result<(), ReplError> {
        self.replicate_batch(sim, &[(op, key, value)], on_done)
    }

    /// Rejects records whose frame could never ship: the ring budget keeps
    /// one frame of wrap-marker waste plus [`RING_HEADROOM_WORDS`] in
    /// reserve, so a record only ever fits when
    /// `2 * frame + RING_HEADROOM_WORDS <= ring_words`. Anything larger
    /// used to underflow the budget arithmetic.
    fn check_fits(cfg: &ReplConfig, key_len: usize, value_len: usize) -> Result<(), ReplError> {
        let frame_words = frame::frame_words(LogRecord::encoded_len_for(key_len, value_len));
        if 2 * frame_words + RING_HEADROOM_WORDS > cfg.ring_words {
            return Err(ReplError::RecordTooLarge {
                frame_words,
                ring_words: cfg.ring_words,
            });
        }
        Ok(())
    }

    /// The one replication entry point: appends a quantum of writes (one
    /// record or many) to the backlog and flushes, so every record the ring
    /// has room for leaves with one doorbell — the NIC pays one MMIO kick
    /// per quantum instead of one per record — and the rest leave, in order,
    /// with the flush of the ack that frees their space. `on_done` rides the
    /// quantum's last record and fires per the pair's own [`ReplMode`]: at
    /// that record's delivery, or when the ack covering it lands (acks are
    /// cumulative, so it covers the whole quantum).
    ///
    /// Returns [`ReplError::RecordTooLarge`] — without shipping anything —
    /// if any record can never fit the ring.
    pub fn replicate_batch(
        &self,
        sim: &mut Sim,
        records: &[(LogOp, &[u8], &[u8])],
        on_done: Option<DoneCb>,
    ) -> Result<(), ReplError> {
        for &(op, key, value) in records {
            assert!(
                op != LogOp::AckRequest,
                "AckRequests are generated internally"
            );
            Self::check_fits(&self.shared.cfg, key.len(), value.len())?;
        }
        if records.is_empty() || self.shared.severed.get() {
            if let Some(cb) = on_done {
                cb(sim);
            }
            return Ok(());
        }
        {
            let mut p = self.shared.p.borrow_mut();
            if p.revoked {
                // Fenced: the record cannot reach the replica, so its
                // completion must never fire. Dropped with the callback.
                return Ok(());
            }
            p.backlog
                .extend(records.iter().map(|&(op, key, value)| Parked {
                    op,
                    key: key.to_vec(),
                    value: value.to_vec(),
                    on_done: None,
                }));
            p.backlog.back_mut().expect("records were appended").on_done = on_done;
        }
        Self::flush(&self.shared, sim, false);
        Ok(())
    }

    /// Reserves `need` words at the ring cursor (write offset and inflight
    /// budget). A frame that would straddle the ring edge starts over at
    /// offset 0; the returned marker offset, if any, is where the caller
    /// must plant a [`WRAP_MARKER`] first so the reader follows. A frame
    /// that ended exactly at the edge needs none: the reader wraps
    /// implicitly.
    fn ring_place(p: &mut Primary, need: usize) -> (Option<usize>, usize) {
        let mut marker = None;
        if p.write_off == p.ring_words {
            p.write_off = 0;
        } else if p.write_off + need > p.ring_words {
            marker = Some(p.write_off);
            p.inflight_words += p.ring_words - p.write_off;
            p.write_off = 0;
        }
        let off = p.write_off;
        p.write_off += need;
        p.inflight_words += need;
        (marker, off)
    }

    /// Frames pending record `seq` at the ring cursor for the next post: the
    /// wrap-marker write, when the frame had to start over at offset 0, then
    /// the record's ring write carrying `on_delivered`. The one framing
    /// path — first shipments, `AckRequest`s and rollback resends all come
    /// through here.
    fn frame_record(p: &mut Primary, seq: u64, on_delivered: Option<WriteDelivered>) {
        let words = frame::frame_to_words(&p.rec(seq).record().encode());
        let (marker, off) = Self::ring_place(p, words.len());
        let ring_write = |words, dst_word_off, on_delivered| BatchWrite {
            words,
            dst_region: p.ring_region,
            dst_word_off,
            on_delivered,
        };
        if let Some(marker_off) = marker {
            p.writes
                .push(ring_write(vec![WRAP_MARKER], marker_off, None));
        }
        p.writes.push(ring_write(words, off, on_delivered));
    }

    /// Last sequence the secondary has acknowledged (0 = none yet; sequences
    /// are 1-based externally).
    pub fn acked(&self) -> u64 {
        self.shared.p.borrow().acked
    }

    /// Replication lag in records: sequences assigned (data and
    /// `AckRequest`s) but not yet covered by a cumulative ack.
    pub fn lag(&self) -> u64 {
        let p = self.shared.p.borrow();
        p.next_seq - p.acked
    }

    /// Ring words occupied by shipped-but-unacknowledged frames (including
    /// wrap-marker waste).
    pub fn inflight_words(&self) -> usize {
        self.shared.p.borrow().inflight_words
    }

    /// Records parked behind a full ring, waiting for an ack to free space.
    pub fn backlog_len(&self) -> usize {
        self.shared.p.borrow().backlog.len()
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> ReplStats {
        *self.shared.stats.borrow()
    }

    /// Marks `seq` (1-based, in shipping order of data records) to fail
    /// processing once on the secondary — the §5.2 failure path.
    pub fn inject_failure(&self, seq: u64) {
        self.shared.s.borrow_mut().fail_seqs.insert(seq);
    }

    /// Forces an acknowledgement request (used by shutdown/failover to drain
    /// the channel): a flush that adds an `AckRequest` even when one is
    /// outstanding, so a lost request is replaced.
    pub fn request_ack(&self, sim: &mut Sim) {
        Self::flush(&self.shared, sim, true);
    }

    // ---- primary side ----

    /// The one way into the ring. Takes every parked record the ring has
    /// room for, in order: assigns its sequence number, frames it at the
    /// ring cursor and registers its completion — a waiter for the covering
    /// ack, or its write's delivery, per the mode. Adds the `AckRequest`s the
    /// mode asks for — one more if records stay parked and none is
    /// outstanding, and one whatever the mode says under `force` — and posts
    /// everything with one doorbell. A fenced primary assigns nothing.
    fn flush(shared: &Rc<Shared>, sim: &mut Sim, force: bool) {
        if shared.severed.get() {
            return;
        }
        let mode = shared.cfg.mode;
        let mut p = shared.p.borrow_mut();
        if p.revoked {
            return;
        }
        let (mut records, mut ack_requests) = (0, 0);
        while p
            .backlog
            .front()
            .is_some_and(|r| p.has_room(r.key.len(), r.value.len()))
        {
            let r = p.backlog.pop_front().expect("checked front");
            let seq = p.assign_seq(r.op, r.key, r.value);
            let on_delivered = match r.on_done {
                Some(cb) if mode.strict_semantics() => {
                    p.waiters.insert(seq, cb);
                    None
                }
                cb => cb,
            };
            Self::frame_record(&mut p, seq, on_delivered);
            records += 1;
            if mode.asks_after_record(p.since_ack_req) {
                Self::ask(&mut p);
                ack_requests += 1;
            }
        }
        let parked = !p.backlog.is_empty();
        let idle = p.ack_req_seq.is_none();
        // With no request outstanding, every pending record is data.
        if force || idle && (parked || mode.asks_while_unacked() && !p.pending.is_empty()) {
            Self::ask(&mut p);
            ack_requests += 1;
        }
        drop(p);
        {
            let mut st = shared.stats.borrow_mut();
            st.records += records;
            st.ack_requests += ack_requests;
            st.stalls += u64::from(parked);
        }
        Self::post(shared, sim);
    }

    /// Handles an ack that landed in the primary's ack region: releases
    /// every waiter it covers, re-ships a rolled-back suffix, and flushes
    /// what the freed ring space now takes.
    fn on_ack(shared: &Rc<Shared>, sim: &mut Sim) {
        if shared.severed.get() {
            return;
        }
        shared.stats.borrow_mut().acks += 1;
        let (acked_raw, resend_raw) = {
            let p = shared.p.borrow();
            (
                p.ack_mem[0].load(Ordering::Acquire),
                p.ack_mem[1].load(Ordering::Acquire),
            )
        };
        if acked_raw == 0 {
            return;
        }
        let acked = acked_raw - 1;
        let resend_from = (resend_raw > 0).then(|| resend_raw - 1);
        let mut fire: Vec<DoneCb> = Vec::new();
        let mut resend = None;
        {
            let mut p = shared.p.borrow_mut();
            if acked < p.last_ack_processed && resend_from.is_none() {
                return; // stale ack overtaken by a newer one
            }
            p.last_ack_processed = acked;
            p.acked = p.acked.max(acked);
            let acked_now = p.acked;
            while p.pending.front().is_some_and(|r| r.seq <= acked_now) {
                let r = p.pending.pop_front().expect("checked front");
                if let Some(cb) = p.waiters.remove(&r.seq) {
                    fire.push(cb);
                }
            }
            // Only an ack that covers the last request retires it: several
            // may be in flight (Strict asks after every record), and an ack
            // for an earlier one says nothing about a request still in the
            // ring.
            if p.ack_req_seq.is_some_and(|s| s <= acked_now) {
                p.ack_req_seq = None;
            }
            // Recompute in-flight budget: only unacked records occupy the ring.
            p.inflight_words = p
                .pending
                .iter()
                .map(|r| frame::frame_words(r.record().encoded_len()))
                .sum();
            if let (Some(from), Some(last)) = (resend_from, p.pending.back()) {
                resend = Some((from.max(acked_now + 1), last.seq));
            }
        }
        if !fire.is_empty() {
            // log2 bucket: releases of size [2^i, 2^(i+1)) land in bucket i.
            let bucket = (usize::BITS - 1 - fire.len().leading_zeros()).min(15) as usize;
            shared.stats.borrow_mut().release_hist[bucket] += 1;
        }
        for cb in fire {
            cb(sim);
        }
        if let Some((from, last)) = resend {
            Self::resend(shared, sim, from, last);
        }
        Self::flush(shared, sim, false);
    }

    /// Re-ships pending records `from..=last` with one doorbell that ends
    /// in an `AckRequest` — the suffix's own, or a fresh one.
    fn resend(shared: &Rc<Shared>, sim: &mut Sim, from: u64, last: u64) {
        {
            let mut p = shared.p.borrow_mut();
            if shared.severed.get() || p.revoked || from > last {
                return;
            }
            for seq in from..=last {
                Self::frame_record(&mut p, seq, None);
            }
            let mut st = shared.stats.borrow_mut();
            if p.rec(last).op != LogOp::AckRequest {
                Self::ask(&mut p);
                st.ack_requests += 1;
            }
            st.rollbacks += 1;
            st.resends += last + 1 - from;
        }
        Self::post(shared, sim);
    }

    /// Assigns the next sequence number to an `AckRequest` and frames it.
    fn ask(p: &mut Primary) {
        let seq = p.assign_seq(LogOp::AckRequest, Vec::new(), Vec::new());
        Self::frame_record(p, seq, None);
    }

    /// Posts the framed ring writes with one doorbell. Deliveries land in
    /// posting order, so the last write's delivery kicks the applier for
    /// them all.
    fn post(shared: &Rc<Shared>, sim: &mut Sim) {
        let (qp, node, mut writes) = {
            let mut p = shared.p.borrow_mut();
            let Some(last) = p.writes.last_mut() else {
                return;
            };
            let done = last.on_delivered.take();
            let shared2 = shared.clone();
            last.on_delivered = Some(Box::new(move |sim: &mut Sim| {
                if let Some(cb) = done {
                    cb(sim);
                }
                Self::poll_secondary(&shared2, sim);
            }));
            (p.qp, p.node, std::mem::take(&mut p.writes))
        };
        shared.stats.borrow_mut().batches += 1;
        shared.fab.post_write_batch(sim, qp, node, writes.drain(..));
        shared.p.borrow_mut().writes = writes;
    }

    // ---- secondary side ----

    /// Drains every complete frame currently visible in the ring.
    ///
    /// The drain is a batched applier: the first record of a pass pays the
    /// cold `apply_cost_ns`, and each consecutive in-order record after it
    /// merges warm at `apply_cost_ns ×` [`BATCH_APPLY_FACTOR`] — streaming a
    /// contiguous log quantum out of the ring amortizes decode and
    /// overlaps index/arena misses. Sending an ack ends the stream (the
    /// applier turned around to talk to the NIC), which is also what keeps
    /// Strict mode — an ack after every record — at the cold per-record
    /// cost that fig. 13 models.
    fn poll_secondary(shared: &Rc<Shared>, sim: &mut Sim) {
        if shared.severed.get() || shared.s.borrow().fenced {
            return;
        }
        loop {
            enum Step {
                Idle,
                Wrapped,
                Record { payload: Vec<u8> },
            }
            let step = {
                let mut s = shared.s.borrow_mut();
                if s.read_off == s.ring_mem.len() {
                    s.read_off = 0; // implicit wrap at the exact ring edge
                }
                let off = s.read_off;
                let head = s.ring_mem[off].load(Ordering::Acquire);
                if head == 0 {
                    Step::Idle
                } else if head == WRAP_MARKER {
                    s.ring_mem[off].store(0, Ordering::Release);
                    s.read_off = 0;
                    Step::Wrapped
                } else {
                    match frame::poll_message(&s.ring_mem[off..]) {
                        Ok(Some(payload)) => {
                            let len = payload.len();
                            frame::consume_message(&s.ring_mem[off..], len);
                            s.read_off += frame::frame_words(len);
                            Step::Record { payload }
                        }
                        Ok(None) => Step::Idle, // body still in flight
                        Err(e) => panic!("corrupt replication frame: {e}"),
                    }
                }
            };
            match step {
                Step::Idle => return,
                Step::Wrapped => continue,
                Step::Record { payload } => {
                    Self::apply_record(shared, sim, &payload);
                }
            }
        }
    }

    /// Merges one record, tracking the applier's warm-stream state: a
    /// record that reaches a still-busy applier whose stream is unbroken
    /// pays the amortized [`BATCH_APPLY_FACTOR`] cost; `AckRequest`s are
    /// control records (they only read the watermark) and cost a fixed
    /// [`ACK_CONTROL_NS`].
    fn apply_record(shared: &Rc<Shared>, sim: &mut Sim, payload: &[u8]) {
        if shared.severed.get() {
            return;
        }
        let rec = LogRecord::decode(payload).expect("valid log record");
        let now = sim.now();
        let mut send_ack = false;
        {
            let mut s = shared.s.borrow_mut();
            let failed = s.fail_seqs.remove(&rec.seq);
            let in_order = rec.seq == s.expected + 1;
            if failed || !in_order {
                // Gap or processing failure: stop advancing, discard.
                shared.stats.borrow_mut().discarded += 1;
                // A discarded record *ahead* of the applied prefix (a gap or
                // an injected processing failure on the next record) is lost:
                // the next ack asks for a resend from `expected + 1`. It also
                // leaves the replica's copy of this key outdated relative to
                // a record the primary may already count as delivered — and
                // that copy could be serving one-sided reads via an exported
                // pointer. Kill the local copy so stale fast-path reads fail
                // guardian validation; the rollback resend is guaranteed to
                // re-apply this key. Records at or below `expected` are
                // duplicates of a resend: they lose nothing, so they ask for
                // no resend (each one would re-ship the whole suffix, and a
                // resend that arrives twice would multiply itself), and
                // killing for them would break convergence, since the resend
                // never covers them again.
                if rec.seq > s.expected {
                    s.discarded_since_ack = true;
                    if matches!(rec.op, LogOp::Put | LogOp::Delete) {
                        let _ = s.engine.borrow_mut().delete(now, rec.key);
                        shared.stats.borrow_mut().invalidated += 1;
                    }
                }
                if rec.op == LogOp::AckRequest {
                    send_ack = true;
                }
            } else {
                let cost = if rec.op == LogOp::AckRequest {
                    ACK_CONTROL_NS
                } else if s.stream_warm && s.cpu.free_at() > now {
                    (((shared.cfg.apply_cost_ns as f64) * BATCH_APPLY_FACTOR).round() as u64).max(1)
                } else {
                    shared.cfg.apply_cost_ns
                };
                s.cpu.acquire(now, cost);
                if rec.op != LogOp::AckRequest {
                    s.stream_warm = true;
                }
                // The secondary runs no reclamation event of its own: it
                // frees the superseded blocks whose leases (its own, or one
                // the primary pinned when it exported a replica pointer)
                // have lapsed as it applies, before the write that may need
                // the room.
                {
                    let mut engine = s.engine.borrow_mut();
                    if engine.next_reclaim_at().is_some_and(|t| t <= now) {
                        engine.pump_reclaim(now);
                    }
                }
                match rec.op {
                    LogOp::Put => {
                        s.engine
                            .borrow_mut()
                            .put(now, rec.key, rec.value)
                            .expect("secondary arena sized for the workload");
                        shared.stats.borrow_mut().applied += 1;
                    }
                    LogOp::Delete => {
                        // Deleting an absent key is possible after rollback
                        // repair ordering; treat as applied.
                        let _ = s.engine.borrow_mut().delete(now, rec.key);
                        shared.stats.borrow_mut().applied += 1;
                    }
                    LogOp::AckRequest => {
                        send_ack = true;
                    }
                }
                s.expected = rec.seq;
            }
        }
        if send_ack {
            Self::send_ack(shared, sim);
        }
    }

    fn send_ack(shared: &Rc<Shared>, sim: &mut Sim) {
        let now = sim.now();
        let (qp, node, region, words, ack_delay) = {
            let mut s = shared.s.borrow_mut();
            let acked = s.expected; // 1-based: last applied seq
            let resend = if s.discarded_since_ack {
                s.expected + 1 + 1
            } else {
                0
            };
            s.discarded_since_ack = false;
            let delay = if shared.cfg.mode.acks_on_receive() {
                // Group commit publishes the watermark from the receive
                // path: the quantum's records are already staged (the
                // engine merge happens as the frames are drained, only the
                // modeled merge *time* completes later), so the ack does
                // not queue behind the applier's merge backlog — unless
                // that backlog exceeds the bounded apply queue, in which
                // case the ack waits out the excess as backpressure.
                let merge_lag = s.cpu.free_at().saturating_sub(now);
                ACK_CONTROL_NS + merge_lag.saturating_sub(STAGED_ACK_LAG_NS)
            } else {
                // Per-record protocol: the applier thread itself builds and
                // posts the ack once it reaches the record — leaving the
                // decode-merge loop, which breaks the warm stream.
                s.stream_warm = false;
                let t = s.cpu.acquire(now, ACK_CONTROL_NS);
                t.saturating_sub(now)
            };
            (
                shared.p.borrow().qp,
                s.node,
                s.ack_region,
                vec![acked + 1, resend],
                delay,
            )
        };
        let shared2 = shared.clone();
        let fab = shared.fab.clone();
        sim.schedule_in(ack_delay, move |sim| {
            if shared2.severed.get() {
                return; // the channel and its QP were retired meanwhile
            }
            let on_ack: Box<dyn FnOnce(&mut Sim)> =
                Box::new(move |sim| ReplicationPair::on_ack(&shared2, sim));
            fab.post_write(sim, qp, node, words, region, 0, Some(on_ack));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_fabric::FabricConfig;
    use hydra_store::{EngineConfig, WriteMode};

    fn setup(cfg: ReplConfig) -> (Sim, Fabric, ReplicationPair, Rc<RefCell<ShardEngine>>) {
        let sim = Sim::new(11);
        let fab = Fabric::new(FabricConfig::default());
        let p = fab.add_node();
        let s = fab.add_node();
        let engine = Rc::new(RefCell::new(ShardEngine::new(EngineConfig {
            arena_words: 1 << 16,
            write_mode: WriteMode::Reliable,
            min_lease_ns: 1_000,
            max_lease_ns: 64_000,
            ..EngineConfig::default()
        })));
        let pair = ReplicationPair::new(&fab, p, s, engine.clone(), cfg);
        (sim, fab, pair, engine)
    }

    #[test]
    fn records_apply_in_order_on_secondary() {
        let (mut sim, _fab, pair, engine) = setup(ReplConfig::default());
        for i in 0..100u32 {
            let key = format!("k{i:03}");
            pair.replicate(&mut sim, LogOp::Put, key.as_bytes(), &i.to_le_bytes(), None)
                .unwrap();
        }
        sim.run();
        assert_eq!(pair.stats().applied, 100);
        assert_eq!(pair.stats().discarded, 0);
        let mut e = engine.borrow_mut();
        for i in 0..100u32 {
            let key = format!("k{i:03}");
            assert_eq!(e.get(0, key.as_bytes()).unwrap().value, i.to_le_bytes());
        }
    }

    #[test]
    fn a_secondary_frees_superseded_blocks_as_it_applies() {
        // No reclamation event runs on a secondary: each record it applies
        // first frees the blocks whose leases have lapsed. A block pinned
        // under a lease the primary exported stays until that lease ends.
        let (mut sim, _fab, pair, engine) = setup(ReplConfig::default());
        pair.replicate(&mut sim, LogOp::Put, b"hot", b"v0", None)
            .unwrap();
        sim.run();
        let pinned = engine.borrow_mut().peek(b"hot").unwrap();
        let pin_until = sim.now() + 500_000;
        assert!(engine.borrow_mut().pin_lease(b"hot", pin_until));
        let mut reused_after_expiry = false;
        for round in 1..=200u64 {
            let value = format!("v{round}");
            pair.replicate(&mut sim, LogOp::Put, b"hot", value.as_bytes(), None)
                .unwrap();
            sim.run_until(round * 10_000);
            let mut e = engine.borrow_mut();
            assert!(e.arena_books().balanced(), "round {round}");
            let at = e.peek(b"hot").unwrap().off_words;
            // At most the block superseded since the last apply waits, and
            // the pinned one until its lease ends.
            let pending = e.reclaim_pending();
            if sim.now() < pin_until {
                assert_ne!(at, pinned.off_words, "round {round}: reused under a lease");
                assert!(pending <= 2, "round {round}: {pending} pending");
            } else {
                reused_after_expiry |= at == pinned.off_words;
                assert!(pending <= 1, "round {round}: {pending} pending");
            }
        }
        assert!(
            reused_after_expiry,
            "the pinned block is reused once its lease ends"
        );
        sim.run();
        assert_eq!(pair.stats().applied, 201);
        let mut e = engine.borrow_mut();
        assert_eq!(e.get(sim.now(), b"hot").unwrap().value, b"v200");
        assert!(e.stats().reclaimed_blocks >= 198);
        // The arena holds about one item: freed blocks were reused.
        let item = pinned.read_len as u64 / 8 + 1;
        assert!(
            e.arena_books().allocated <= 4 * item,
            "{:?}",
            e.arena_books()
        );
    }

    #[test]
    fn relaxed_completion_is_one_flight() {
        let (mut sim, _fab, pair, _engine) = setup(ReplConfig::default());
        let done_at = Rc::new(std::cell::Cell::new(0u64));
        let d = done_at.clone();
        pair.replicate(
            &mut sim,
            LogOp::Put,
            b"k",
            b"v",
            Some(Box::new(move |sim| d.set(sim.now()))),
        )
        .unwrap();
        sim.run();
        let t = done_at.get();
        assert!(t > 0 && t < 2_000, "one-way delivery expected, got {t}ns");
    }

    #[test]
    fn strict_completion_waits_for_ack() {
        let cfg = ReplConfig {
            mode: ReplMode::Strict,
            ..ReplConfig::default()
        };
        let (mut sim, _fab, pair, _engine) = setup(cfg);
        let done_at = Rc::new(std::cell::Cell::new(0u64));
        let d = done_at.clone();
        pair.replicate(
            &mut sim,
            LogOp::Put,
            b"k",
            b"v",
            Some(Box::new(move |sim| d.set(sim.now()))),
        )
        .unwrap();
        sim.run();
        let t = done_at.get();
        assert!(t > 2_000, "strict ack requires a round trip, got {t}ns");
        // The record, then the `AckRequest` that asked for its ack.
        assert_eq!(pair.acked(), 2);
    }

    #[test]
    fn ack_requests_follow_ack_every() {
        let cfg = ReplConfig {
            mode: ReplMode::Logging { ack_every: 10 },
            ..Default::default()
        };
        let (mut sim, _fab, pair, _engine) = setup(cfg);
        for i in 0..100u32 {
            pair.replicate(&mut sim, LogOp::Put, format!("k{i}").as_bytes(), b"v", None)
                .unwrap();
            sim.run(); // sequential: each record fully delivered before next
        }
        let st = pair.stats();
        assert!(
            (8..=14).contains(&st.ack_requests),
            "expected ~10 ack requests, got {}",
            st.ack_requests
        );
        assert!(st.acks >= st.ack_requests, "every request answered");
        assert!(pair.acked() >= 100, "acked through the last ack request");
    }

    #[test]
    fn ring_wraps_and_keeps_applying() {
        let cfg = ReplConfig {
            ring_words: 256, // tiny: forces many wraps over 300 records
            mode: ReplMode::Logging { ack_every: 8 },
            apply_cost_ns: 100,
            ..Default::default()
        };
        let (mut sim, _fab, pair, engine) = setup(cfg);
        for i in 0..300u32 {
            let key = format!("key-{i:04}");
            pair.replicate(&mut sim, LogOp::Put, key.as_bytes(), &[i as u8; 24], None)
                .unwrap();
            sim.run();
        }
        assert_eq!(pair.stats().applied, 300);
        assert!(pair.stats().stalls > 0 || pair.stats().ack_requests > 10);
        let mut e = engine.borrow_mut();
        assert_eq!(e.len(), 300);
        assert_eq!(e.get(0, b"key-0299").unwrap().value, [43u8; 24]);
    }

    #[test]
    fn burst_larger_than_ring_drains_via_backlog() {
        let cfg = ReplConfig {
            ring_words: 512,
            mode: ReplMode::Logging { ack_every: 8 },
            apply_cost_ns: 200,
            ..Default::default()
        };
        let (mut sim, _fab, pair, engine) = setup(cfg);
        // Post everything at t=0 without draining the sim in between.
        for i in 0..500u32 {
            let key = format!("key-{i:04}");
            pair.replicate(&mut sim, LogOp::Put, key.as_bytes(), &[1u8; 16], None)
                .unwrap();
        }
        sim.run();
        assert_eq!(engine.borrow().len(), 500, "all records applied");
        assert!(pair.stats().stalls > 0, "burst must have stalled");
    }

    #[test]
    fn injected_failure_triggers_rollback_and_repair() {
        let cfg = ReplConfig {
            mode: ReplMode::Logging { ack_every: 5 },
            ..Default::default()
        };
        let (mut sim, _fab, pair, engine) = setup(cfg);
        pair.inject_failure(3);
        for i in 0..20u32 {
            let key = format!("k{i:02}");
            pair.replicate(&mut sim, LogOp::Put, key.as_bytes(), &i.to_le_bytes(), None)
                .unwrap();
        }
        sim.run();
        let st = pair.stats();
        assert!(st.rollbacks >= 1, "failure must cause a rollback");
        assert!(st.discarded >= 1);
        assert!(st.resends >= 1);
        // Despite the failure, the secondary converges to the full state.
        let mut e = engine.borrow_mut();
        for i in 0..20u32 {
            let key = format!("k{i:02}");
            assert_eq!(
                e.get(0, key.as_bytes()).map(|g| g.value),
                Some(i.to_le_bytes().to_vec()),
                "key {i}"
            );
        }
        assert_eq!(e.len(), 20);
    }

    #[test]
    fn forward_gap_discard_kills_the_stale_replica_copy_then_repairs() {
        // A key is applied at v0, then an injected failure discards its v1
        // record. While the rollback is in flight the replica must NOT hold
        // a guardian-valid v0 copy (an exported pointer would serve a stale
        // read for a write the primary already acked): the discard path
        // kills the local copy, and the resend re-applies v1.
        let cfg = ReplConfig {
            mode: ReplMode::Logging { ack_every: 4 },
            ..Default::default()
        };
        let (mut sim, _fab, pair, engine) = setup(cfg);
        pair.replicate(&mut sim, LogOp::Put, b"vk", b"v0", None)
            .unwrap();
        sim.run();
        assert_eq!(engine.borrow_mut().get(0, b"vk").unwrap().value, b"v0");
        // Seq 2 is the next record: fail it, so it is discarded ahead of
        // the applied prefix (rec.seq > expected).
        pair.inject_failure(2);
        pair.replicate(&mut sim, LogOp::Put, b"vk", b"v1", None)
            .unwrap();
        // Step until the discard lands, then check the copy died *before*
        // the rollback repairs it.
        let mut saw_killed = false;
        while sim.step() {
            let st = pair.stats();
            if st.invalidated >= 1 && engine.borrow_mut().get(0, b"vk").is_none() {
                saw_killed = true;
            }
        }
        assert!(saw_killed, "stale replica copy must be killed on discard");
        // Filler records reach the ack_every threshold, so an AckRequest
        // ships, the gap surfaces, and the rollback resend repairs vk.
        for i in 0..8u32 {
            pair.replicate(&mut sim, LogOp::Put, format!("f{i}").as_bytes(), b"x", None)
                .unwrap();
        }
        sim.run();
        let st = pair.stats();
        assert!(st.invalidated >= 1);
        assert!(st.rollbacks >= 1);
        // Convergence: the resend re-applied v1.
        assert_eq!(engine.borrow_mut().get(0, b"vk").unwrap().value, b"v1");
    }

    #[test]
    fn batched_records_apply_in_order_with_one_doorbell() {
        let (mut sim, fab, pair, engine) = setup(ReplConfig::default());
        let records: Vec<(Vec<u8>, Vec<u8>)> = (0..24u32)
            .map(|i| (format!("bk{i:02}").into_bytes(), i.to_le_bytes().to_vec()))
            .collect();
        let refs: Vec<(LogOp, &[u8], &[u8])> = records
            .iter()
            .map(|(k, v)| (LogOp::Put, k.as_slice(), v.as_slice()))
            .collect();
        pair.replicate_batch(&mut sim, &refs, None).unwrap();
        let doorbells_after_post = fab.stats().doorbells;
        sim.run();
        assert_eq!(doorbells_after_post, 1, "one doorbell for the quantum");
        let st = pair.stats();
        assert_eq!(st.records, 24);
        assert_eq!(st.applied, 24);
        assert_eq!(st.batches, 1);
        assert_eq!(st.discarded, 0);
        let mut e = engine.borrow_mut();
        for (i, (k, v)) in records.iter().enumerate() {
            assert_eq!(e.get(0, k).unwrap().value, *v, "record {i}");
        }
    }

    #[test]
    fn batch_completion_fires_once_after_last_delivery() {
        let (mut sim, _fab, pair, _engine) = setup(ReplConfig::default());
        let fired = Rc::new(std::cell::Cell::new(0u32));
        let f = fired.clone();
        let refs: Vec<(LogOp, &[u8], &[u8])> = (0..8)
            .map(|_| (LogOp::Put, b"k".as_slice(), b"v".as_slice()))
            .collect();
        pair.replicate_batch(&mut sim, &refs, Some(Box::new(move |_| f.set(f.get() + 1))))
            .unwrap();
        sim.run();
        assert_eq!(fired.get(), 1);
        assert_eq!(pair.stats().applied, 8);
    }

    #[test]
    fn batch_overflowing_the_ring_drains_via_backlog() {
        let cfg = ReplConfig {
            ring_words: 256,
            mode: ReplMode::Logging { ack_every: 8 },
            apply_cost_ns: 100,
            ..Default::default()
        };
        let (mut sim, _fab, pair, engine) = setup(cfg);
        let records: Vec<(Vec<u8>, Vec<u8>)> = (0..60u32)
            .map(|i| (format!("key-{i:04}").into_bytes(), vec![i as u8; 24]))
            .collect();
        let refs: Vec<(LogOp, &[u8], &[u8])> = records
            .iter()
            .map(|(k, v)| (LogOp::Put, k.as_slice(), v.as_slice()))
            .collect();
        let fired = Rc::new(std::cell::Cell::new(0u32));
        let f = fired.clone();
        pair.replicate_batch(&mut sim, &refs, Some(Box::new(move |_| f.set(f.get() + 1))))
            .unwrap();
        sim.run();
        assert_eq!(fired.get(), 1, "completion after head and tail both drain");
        assert!(pair.stats().stalls > 0, "tail must have backlogged");
        assert_eq!(engine.borrow().len(), 60, "every record applied");
    }

    #[test]
    fn strict_batch_completes_at_the_last_ack() {
        let cfg = ReplConfig {
            mode: ReplMode::Strict,
            ..ReplConfig::default()
        };
        let (mut sim, _fab, pair, engine) = setup(cfg);
        let done_at = Rc::new(std::cell::Cell::new(0u64));
        let d = done_at.clone();
        let refs: Vec<(LogOp, &[u8], &[u8])> = vec![
            (LogOp::Put, b"a".as_slice(), b"1".as_slice()),
            (LogOp::Put, b"b".as_slice(), b"2".as_slice()),
            (LogOp::Put, b"c".as_slice(), b"3".as_slice()),
        ];
        pair.replicate_batch(&mut sim, &refs, Some(Box::new(move |sim| d.set(sim.now()))))
            .unwrap();
        sim.run();
        assert!(done_at.get() > 2_000, "strict batch waits for acks");
        // Each record is followed by the `AckRequest` it asked for.
        assert_eq!(pair.acked(), 6);
        assert_eq!(pair.stats().ack_requests, 3);
        assert_eq!(engine.borrow().len(), 3);
    }

    /// Steps `sim` until `done` holds; returns the doorbells rung by the
    /// event that made it so.
    fn doorbells_of_the_step_that(sim: &mut Sim, fab: &Fabric, done: impl Fn() -> bool) -> u64 {
        loop {
            let before = fab.stats().doorbells;
            assert!(sim.step(), "the sim drained first");
            if done() {
                return fab.stats().doorbells - before;
            }
        }
    }

    #[test]
    fn parked_records_leave_in_one_doorbell_once_an_ack_frees_room() {
        let cfg = ReplConfig {
            ring_words: 256,
            mode: ReplMode::Logging { ack_every: 1_000 },
            ..Default::default()
        };
        let (mut sim, fab, pair, engine) = setup(cfg);
        let records: Vec<Vec<u8>> = (0..60u32)
            .map(|i| format!("key-{i:04}").into_bytes())
            .collect();
        let refs: Vec<(LogOp, &[u8], &[u8])> = records
            .iter()
            .map(|k| (LogOp::Put, k.as_slice(), [9u8; 24].as_slice()))
            .collect();
        pair.replicate_batch(&mut sim, &refs, None).unwrap();
        assert_eq!(fab.stats().doorbells, 1);
        let parked = pair.backlog_len();
        assert!(parked > 2, "the ring took only part of the quantum");
        // The flush that parked them asked for the ack that frees room.
        assert_eq!(pair.stats().ack_requests, 1);
        let rung = doorbells_of_the_step_that(&mut sim, &fab, || pair.stats().acks == 1);
        assert_eq!(
            rung, 1,
            "the ack's flush posts what now fits with one doorbell"
        );
        assert!(
            parked - pair.backlog_len() >= 2,
            "more than one parked record left"
        );
        sim.run();
        assert_eq!(engine.borrow().len(), 60);
        assert_eq!(pair.backlog_len(), 0);
    }

    #[test]
    fn a_logging_ack_request_rides_the_doorbell_of_the_record_that_made_it_due() {
        let cfg = ReplConfig {
            mode: ReplMode::Logging { ack_every: 4 },
            ..Default::default()
        };
        let (mut sim, fab, pair, _engine) = setup(cfg);
        for i in 0..4u32 {
            let before = fab.stats().doorbells;
            pair.replicate(&mut sim, LogOp::Put, format!("k{i}").as_bytes(), b"v", None)
                .unwrap();
            assert_eq!(fab.stats().doorbells - before, 1, "record {i}");
            sim.run();
        }
        let st = pair.stats();
        assert_eq!((st.ack_requests, st.acks), (1, 1));
        assert_eq!(
            pair.acked(),
            5,
            "four records and the request behind the fourth"
        );
    }

    #[test]
    fn a_resend_is_one_doorbell_ending_in_an_ack_request() {
        let cfg = ReplConfig {
            mode: ReplMode::Logging { ack_every: 4 },
            ..Default::default()
        };
        let (mut sim, fab, pair, engine) = setup(cfg);
        pair.inject_failure(2);
        let keys: Vec<Vec<u8>> = (0..5u32).map(|i| format!("r{i}").into_bytes()).collect();
        let refs: Vec<(LogOp, &[u8], &[u8])> = keys
            .iter()
            .map(|k| (LogOp::Put, k.as_slice(), b"v".as_slice()))
            .collect();
        // Records 1-4 and the request behind the fourth, then record 6 while
        // that request is still out: the suffix to resend ends in data.
        pair.replicate_batch(&mut sim, &refs[..4], None).unwrap();
        pair.replicate_batch(&mut sim, &refs[4..], None).unwrap();
        let rung = doorbells_of_the_step_that(&mut sim, &fab, || pair.stats().rollbacks == 1);
        assert_eq!(rung, 1, "the rolled-back suffix leaves with one doorbell");
        assert_eq!(pair.stats().resends, 5, "sequences 2 to 6");
        {
            let p = pair.shared.p.borrow();
            assert_eq!(p.pending.back().map(|r| r.op), Some(LogOp::AckRequest));
            assert_eq!(p.ack_req_seq, Some(7), "a fresh request closes the resend");
        }
        sim.run();
        assert_eq!(engine.borrow().len(), 5);
        assert_eq!(pair.lag(), 0);
    }

    /// Regression: a primary that learned it was fenced still assigned a
    /// sequence number to every `AckRequest` it was asked for — and never
    /// shipped it — so `lag()` and `ack_requests` grew without bound.
    #[test]
    fn a_fenced_channel_assigns_nothing_more() {
        let cfg = ReplConfig {
            mode: ReplMode::GroupCommit,
            ..ReplConfig::default()
        };
        let (mut sim, _fab, pair, _engine) = setup(cfg);
        pair.replicate(&mut sim, LogOp::Put, b"one", b"v", None)
            .unwrap();
        sim.run();
        pair.fence(&mut sim);
        pair.replicate(&mut sim, LogOp::Put, b"bounced", b"v", None)
            .unwrap();
        sim.run();
        assert!(pair.is_revoked());
        let (lag, asked) = (pair.lag(), pair.stats().ack_requests);
        assert_eq!((lag, asked), (2, 2));
        for _ in 0..3 {
            pair.request_ack(&mut sim);
        }
        sim.run();
        assert_eq!((pair.lag(), pair.stats().ack_requests), (lag, asked));
    }

    /// Regression: 200 strict puts posted at once against a ring that holds
    /// a fraction of them. Parked records used to take another record's (or
    /// an `AckRequest`'s) sequence for their waiter, and every per-record
    /// ack cleared the outstanding-request flag, so each re-parked record
    /// solicited again until `AckRequest` frames filled the ring: the sim
    /// never quiesced and completions fired before their record applied.
    #[test]
    fn strict_under_ring_pressure_quiesces_and_completes_each_record_once() {
        const RECORDS: u32 = 200;
        let cfg = ReplConfig {
            ring_words: 512,
            mode: ReplMode::Strict,
            ..ReplConfig::default()
        };
        let (mut sim, _fab, pair, engine) = setup(cfg);
        let fired = Rc::new(RefCell::new(vec![0u32; RECORDS as usize]));
        for i in 0..RECORDS {
            let key = format!("key-{i:04}").into_bytes();
            let (fired, engine, key2) = (fired.clone(), engine.clone(), key.clone());
            pair.replicate(
                &mut sim,
                LogOp::Put,
                &key,
                &[7u8; 16],
                Some(Box::new(move |_| {
                    fired.borrow_mut()[i as usize] += 1;
                    assert!(
                        engine.borrow_mut().get(0, &key2).is_some(),
                        "record {i} completed before the secondary applied it"
                    );
                })),
            )
            .unwrap();
        }
        let mut events = 0u64;
        while sim.step() {
            events += 1;
            assert!(events < 100_000, "strict channel did not quiesce");
        }
        assert!(
            fired.borrow().iter().all(|&n| n == 1),
            "every completion fires exactly once: {:?}",
            fired.borrow()
        );
        let st = pair.stats();
        assert!(st.stalls > 0, "the burst must have hit ring pressure");
        assert_eq!((st.records, st.applied), (200, 200));
        assert!(
            st.ack_requests <= st.records,
            "{} ack requests for {} records",
            st.ack_requests,
            st.records
        );
        assert_eq!((pair.backlog_len(), pair.inflight_words()), (0, 0));
    }

    #[test]
    fn deletes_replicate() {
        let (mut sim, _fab, pair, engine) = setup(ReplConfig::default());
        pair.replicate(&mut sim, LogOp::Put, b"gone", b"v", None)
            .unwrap();
        pair.replicate(&mut sim, LogOp::Put, b"kept", b"v", None)
            .unwrap();
        pair.replicate(&mut sim, LogOp::Delete, b"gone", &[], None)
            .unwrap();
        sim.run();
        let mut e = engine.borrow_mut();
        assert!(e.get(0, b"gone").is_none());
        assert!(e.get(0, b"kept").is_some());
    }

    #[test]
    fn severed_pair_completes_everything_and_goes_quiet() {
        let cfg = ReplConfig {
            mode: ReplMode::Strict,
            ..ReplConfig::default()
        };
        let (mut sim, _fab, pair, engine) = setup(cfg);
        // Park a strict waiter in flight, then sever before the ack lands.
        let fired = Rc::new(std::cell::Cell::new(0u32));
        let f = fired.clone();
        pair.replicate(
            &mut sim,
            LogOp::Put,
            b"k",
            b"v",
            Some(Box::new(move |_| f.set(f.get() + 1))),
        )
        .unwrap();
        pair.sever(&mut sim);
        assert_eq!(fired.get(), 1, "sever fires the parked strict waiter");
        assert!(pair.is_severed());
        // Post-sever traffic completes immediately and applies nothing.
        let applied_before = pair.stats().applied;
        let f = fired.clone();
        pair.replicate(
            &mut sim,
            LogOp::Put,
            b"post",
            b"v",
            Some(Box::new(move |_| f.set(f.get() + 1))),
        )
        .unwrap();
        let f = fired.clone();
        pair.replicate_batch(
            &mut sim,
            &[(LogOp::Put, b"post2".as_slice(), b"v".as_slice())],
            Some(Box::new(move |_| f.set(f.get() + 1))),
        )
        .unwrap();
        pair.request_ack(&mut sim);
        sim.run();
        assert_eq!(fired.get(), 3, "post-sever completions fire immediately");
        assert_eq!(pair.stats().applied, applied_before);
        assert!(engine.borrow_mut().get(0, b"post").is_none());
        // Severing twice is harmless.
        pair.sever(&mut sim);
    }

    /// Drives the detector the way the cluster does: one `stamp` (while the
    /// primary is `alive`) and one `probe` per beat, `beats` times. Returns
    /// the beat (1-based) on which the secondary suspected, if it did.
    fn beat(
        sim: &mut Sim,
        pair: &ReplicationPair,
        beats: u32,
        alive: impl Fn(u32) -> bool,
    ) -> Option<u32> {
        let mut suspected = None;
        for b in 1..=beats {
            let at = sim.now() + BEAT_NS;
            sim.run_until(at);
            if alive(b) {
                pair.stamp();
            }
            if pair.probe(sim) {
                suspected.get_or_insert(b);
            }
        }
        suspected
    }

    #[test]
    fn probe_suspects_after_exactly_misses_silent_beats() {
        let (mut sim, fab, pair, _engine) = setup(ReplConfig::default());
        // A live primary is never suspected, however long it is watched.
        assert_eq!(beat(&mut sim, &pair, 50, |_| true), None);
        assert!(!pair.is_fenced());
        let reads = fab.stats().reads;
        assert_eq!(reads, 50, "one 8-byte read per beat");
        // It falls silent after beat 3 of this stretch: the probes of beats
        // 4, 5 and 6 come back stale, and beat 7 — which judges the third —
        // raises the suspicion. Once.
        assert_eq!(beat(&mut sim, &pair, 12, |b| b <= 3), Some(3 + MISSES + 1));
        assert!(pair.is_fenced());
        assert_eq!(
            fab.stats().reads,
            reads + 3 + MISSES as u64,
            "a fenced channel stops probing"
        );
    }

    #[test]
    fn late_probes_are_misses_not_a_suspicion() {
        let (mut sim, fab, pair, _engine) = setup(ReplConfig::default());
        beat(&mut sim, &pair, 3, |_| true);
        // Two probes in a row are held up for longer than a beat...
        let (s, p) = (pair.secondary_node(), pair.primary_node());
        fab.set_pair_fault(s, p, hydra_fabric::LinkFault::delay_next(2, 150_000));
        // ...and the stamps they finally carry are as good as any.
        assert_eq!(beat(&mut sim, &pair, 20, |_| true), None);
        assert!(!pair.is_fenced());
    }

    #[test]
    fn fence_drains_what_landed_and_bounces_what_follows() {
        let cfg = ReplConfig {
            mode: ReplMode::GroupCommit,
            ..ReplConfig::default()
        };
        let (mut sim, fab, pair, engine) = setup(cfg);
        let acked: Rc<RefCell<Vec<&str>>> = Rc::new(RefCell::new(Vec::new()));
        let done = |tag: &'static str| -> Option<DoneCb> {
            let a = acked.clone();
            Some(Box::new(move |_| a.borrow_mut().push(tag)))
        };
        pair.replicate(&mut sim, LogOp::Put, b"early", b"v", done("early"))
            .unwrap();
        sim.run();
        // An ack train of six records: its frames land one by one, the
        // applier's kick and the ack request ride behind the last. Stop when
        // the first has landed and the rest are still in flight.
        let train: Vec<Vec<u8>> = (0..6).map(|i| format!("train-{i}").into_bytes()).collect();
        let refs: Vec<(LogOp, &[u8], &[u8])> = train
            .iter()
            .map(|k| (LogOp::Put, k.as_slice(), b"v".as_slice()))
            .collect();
        let head = pair.shared.s.borrow().read_off;
        pair.replicate_batch(&mut sim, &refs, done("train"))
            .unwrap();
        while pair.shared.s.borrow().ring_mem[head].load(Ordering::Acquire) == 0 {
            assert!(sim.step());
        }
        assert_eq!(pair.stats().applied, 1, "landed, not yet applied");
        pair.fence(&mut sim);
        assert!(pair.is_fenced());
        let drained = pair.stats().applied - 1;
        assert!(
            (1..6).contains(&drained),
            "the fence applies the landed prefix itself ({drained} of 6)"
        );
        assert!(engine.borrow_mut().get(0, b"train-0").is_some());
        // The primary does not know yet and ships on.
        pair.replicate(&mut sim, LogOp::Put, b"late", b"v", done("late"))
            .unwrap();
        sim.run();
        assert!(pair.is_revoked(), "the first bounce told the primary");
        assert_eq!(
            *acked.borrow(),
            ["early"],
            "neither the train in flight nor anything after it is ever acknowledged"
        );
        assert_eq!(pair.stats().applied, 1 + drained, "the ring stayed closed");
        let mut e = engine.borrow_mut();
        assert!(e.get(0, b"train-5").is_none() && e.get(0, b"late").is_none());
        drop(e);
        // Nothing ships any more, and nothing it is handed ever completes.
        let writes = fab.stats().writes;
        pair.replicate(&mut sim, LogOp::Put, b"after", b"v", done("after"))
            .unwrap();
        sim.run();
        assert_eq!(fab.stats().writes, writes);
        assert_eq!(acked.borrow().len(), 1);
        // Fencing twice is harmless.
        pair.fence(&mut sim);
    }

    #[test]
    fn node_accessors_report_the_wiring() {
        let (_sim, fab, pair, _engine) = setup(ReplConfig::default());
        let _ = &fab;
        assert_ne!(pair.primary_node(), pair.secondary_node());
    }

    #[test]
    fn strict_mode_latency_exceeds_logging_latency() {
        // The Fig. 13 shape: relaxed replication costs a fraction of strict.
        let measure = |mode: ReplMode| {
            let cfg = ReplConfig {
                mode,
                ..Default::default()
            };
            let (mut sim, _fab, pair, _engine) = setup(cfg);
            let total = Rc::new(std::cell::Cell::new(0u64));
            for _ in 0..50 {
                let t0 = sim.now();
                let done = Rc::new(std::cell::Cell::new(0u64));
                let d = done.clone();
                let cb: DoneCb = Box::new(move |sim: &mut Sim| d.set(sim.now()));
                pair.replicate(&mut sim, LogOp::Put, b"key", b"value", Some(cb))
                    .unwrap();
                sim.run();
                total.set(total.get() + (done.get() - t0));
            }
            total.get() / 50
        };
        let strict = measure(ReplMode::Strict);
        let logging = measure(ReplMode::Logging { ack_every: 32 });
        assert!(
            strict as f64 > logging as f64 * 1.7,
            "strict {strict}ns vs logging {logging}ns"
        );
    }

    #[test]
    fn oversized_record_is_rejected_not_underflowed() {
        // Regression: `ring_words - frame_len - 16` used to underflow (debug
        // panic / release wrap) when a record outgrew the ring. Both entry
        // points must reject cleanly and ship nothing.
        let cfg = ReplConfig {
            ring_words: 64,
            mode: ReplMode::Logging { ack_every: 4 },
            ..Default::default()
        };
        let (mut sim, _fab, pair, engine) = setup(cfg);
        let big = vec![7u8; 4096];
        let err = pair
            .replicate(&mut sim, LogOp::Put, b"k", &big, None)
            .unwrap_err();
        assert!(
            matches!(err, ReplError::RecordTooLarge { ring_words: 64, .. }),
            "{err}"
        );
        let refs: Vec<(LogOp, &[u8], &[u8])> = vec![
            (LogOp::Put, b"small".as_slice(), b"v".as_slice()),
            (LogOp::Put, b"big".as_slice(), big.as_slice()),
        ];
        let fired = Rc::new(std::cell::Cell::new(0u32));
        let f = fired.clone();
        let err = pair
            .replicate_batch(&mut sim, &refs, Some(Box::new(move |_| f.set(f.get() + 1))))
            .unwrap_err();
        assert!(matches!(err, ReplError::RecordTooLarge { .. }));
        sim.run();
        // Atomic rejection: not even the small leading record shipped.
        assert_eq!(pair.stats().records, 0);
        assert_eq!(fired.get(), 0, "no completion for a rejected batch");
        assert_eq!(engine.borrow().len(), 0);
        // A record that does fit still flows normally afterwards.
        pair.replicate(&mut sim, LogOp::Put, b"ok", b"v", None)
            .unwrap();
        sim.run();
        assert_eq!(engine.borrow().len(), 1);
    }

    #[test]
    fn group_commit_completes_only_at_the_covering_ack() {
        // Baseline: one-way delivery time on an identical relaxed pair.
        let (mut sim, _fab, pair, _engine) = setup(ReplConfig::default());
        let delivery_at = Rc::new(std::cell::Cell::new(0u64));
        let d = delivery_at.clone();
        pair.replicate(
            &mut sim,
            LogOp::Put,
            b"k",
            b"v",
            Some(Box::new(move |sim| d.set(sim.now()))),
        )
        .unwrap();
        sim.run();
        let one_way = delivery_at.get();
        assert!(one_way > 0);

        let cfg = ReplConfig {
            mode: ReplMode::GroupCommit,
            ..Default::default()
        };
        let (mut sim, _fab, pair, _engine) = setup(cfg);
        let observed = Rc::new(std::cell::Cell::new((0u64, false)));
        let o = observed.clone();
        let p2 = pair.clone();
        pair.replicate(
            &mut sim,
            LogOp::Put,
            b"k",
            b"v",
            Some(Box::new(move |sim| o.set((sim.now(), p2.acked() >= 1)))),
        )
        .unwrap();
        sim.run();
        let (t, covered) = observed.get();
        assert!(
            t as f64 > one_way as f64 * 1.5,
            "group commit waits for the ack round trip: {t}ns vs {one_way}ns one-way"
        );
        assert!(
            covered,
            "completion fired before the cumulative ack covered seq 1"
        );
        assert_eq!(pair.acked(), pair.shared.p.borrow().next_seq);
    }

    #[test]
    fn group_commit_batch_is_one_doorbell_and_one_cumulative_ack() {
        let cfg = ReplConfig {
            mode: ReplMode::GroupCommit,
            ..Default::default()
        };
        let (mut sim, fab, pair, engine) = setup(cfg);
        let records: Vec<(Vec<u8>, Vec<u8>)> = (0..24u32)
            .map(|i| (format!("gk{i:02}").into_bytes(), i.to_le_bytes().to_vec()))
            .collect();
        let refs: Vec<(LogOp, &[u8], &[u8])> = records
            .iter()
            .map(|(k, v)| (LogOp::Put, k.as_slice(), v.as_slice()))
            .collect();
        let done_at = Rc::new(std::cell::Cell::new(0u64));
        let d = done_at.clone();
        pair.replicate_batch(&mut sim, &refs, Some(Box::new(move |sim| d.set(sim.now()))))
            .unwrap();
        let doorbells_after_post = fab.stats().doorbells;
        sim.run();
        // The 24 records AND the piggybacked AckRequest share one doorbell.
        assert_eq!(
            doorbells_after_post, 1,
            "ackreq must ride the batch doorbell"
        );
        let st = pair.stats();
        assert_eq!(st.records, 24);
        assert_eq!(st.applied, 24);
        assert_eq!(st.ack_requests, 1, "one cumulative ack request per quantum");
        assert_eq!(st.acks, 1, "one watermark ack covers the whole quantum");
        assert!(
            done_at.get() > 2_000,
            "completion held for the covering ack"
        );
        assert_eq!(engine.borrow().len(), 24);
        // The single ack released the whole quantum's waiter in one batch.
        assert_eq!(st.releases(), 1);
    }

    #[test]
    fn group_commit_ack_train_covers_records_shipped_mid_flight() {
        let cfg = ReplConfig {
            mode: ReplMode::GroupCommit,
            ..Default::default()
        };
        let (mut sim, _fab, pair, engine) = setup(cfg);
        let fired = Rc::new(std::cell::Cell::new(0u32));
        // First record solicits an ackreq; the rest ship while it is in
        // flight, so on_ack's re-solicitation must pick them up.
        for i in 0..12u32 {
            let f = fired.clone();
            pair.replicate(
                &mut sim,
                LogOp::Put,
                format!("t{i:02}").as_bytes(),
                b"v",
                Some(Box::new(move |_| f.set(f.get() + 1))),
            )
            .unwrap();
        }
        sim.run();
        assert_eq!(fired.get(), 12, "every waiter released by the ack train");
        assert_eq!(engine.borrow().len(), 12);
        let st = pair.stats();
        assert!(
            st.ack_requests < 12,
            "cumulative acks must coalesce: {} ack requests for 12 records",
            st.ack_requests
        );
        assert_eq!(pair.lag(), 0, "train quiesces once everything is covered");
        assert_eq!(pair.inflight_words(), 0);
        assert_eq!(pair.backlog_len(), 0);
    }

    #[test]
    fn group_commit_converges_through_failure_rollback() {
        let cfg = ReplConfig {
            mode: ReplMode::GroupCommit,
            ..Default::default()
        };
        let (mut sim, _fab, pair, engine) = setup(cfg);
        pair.inject_failure(3);
        let fired = Rc::new(std::cell::Cell::new(0u32));
        for i in 0..10u32 {
            let f = fired.clone();
            pair.replicate(
                &mut sim,
                LogOp::Put,
                format!("r{i:02}").as_bytes(),
                &i.to_le_bytes(),
                Some(Box::new(move |_| f.set(f.get() + 1))),
            )
            .unwrap();
        }
        sim.run();
        let st = pair.stats();
        assert!(
            st.rollbacks >= 1,
            "failure must stall the watermark and roll back"
        );
        assert_eq!(
            fired.get(),
            10,
            "resend repairs and the train releases everyone"
        );
        let mut e = engine.borrow_mut();
        for i in 0..10u32 {
            let key = format!("r{i:02}");
            assert_eq!(
                e.get(0, key.as_bytes()).unwrap().value,
                i.to_le_bytes(),
                "key {i}"
            );
        }
    }
}

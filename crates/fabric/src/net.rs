//! The fabric itself: nodes, regions, queue pairs and the four verbs.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use hydra_sim::time::SimTime;
use hydra_sim::{FifoResource, IdMap, Sim};
use rand::Rng;

use crate::config::{
    nic_ser, scaled, wqe_cost, FabricConfig, Transport, NIC_MISS_NS, RDMA_DMA_NS, RDMA_PROP_NS,
    SEND_RECV_EXTRA_NS, SOCKET_PROP_NS,
};

/// A machine on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub u32);

/// A registered memory region, as a remote writer names it.
///
/// Like [`QpId`], the raw id packs a slot index (low 24 bits) beside a
/// counter (high 8 bits): the region's *write-permission epoch* at the time
/// the handle was issued. [`Fabric::revoke_write`] bumps the region's epoch,
/// so every Write carrying an older handle bounces at the target NIC —
/// memory untouched, completion in error at the initiator — while Reads,
/// which need no write permission, keep working through any handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RegionId(pub u32);

impl RegionId {
    fn slot(self) -> usize {
        (self.0 & QP_SLOT_MASK) as usize
    }

    fn epoch(self) -> u32 {
        self.0 >> QP_SLOT_BITS
    }
}

/// A queue pair (reliable connection between two nodes).
///
/// The raw id packs a slot index (low 24 bits) and a generation counter
/// (high 8 bits): [`Fabric::disconnect`] recycles the slot and bumps the
/// generation, so a stale handle kept across a disconnect can never
/// silently address the connection that now occupies the slot — a verb
/// posted on it is flushed in error ([`WcError::QpGone`]) while the slot is
/// free, and panics once another connection has taken it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QpId(pub u32);

const QP_SLOT_BITS: u32 = 24;
const QP_SLOT_MASK: u32 = (1 << QP_SLOT_BITS) - 1;

impl QpId {
    fn pack(slot: usize, generation: u32) -> QpId {
        debug_assert!(slot as u32 <= QP_SLOT_MASK, "QP slot space exhausted");
        QpId(((generation & 0xFF) << QP_SLOT_BITS) | (slot as u32 & QP_SLOT_MASK))
    }

    fn slot(self) -> usize {
        (self.0 & QP_SLOT_MASK) as usize
    }

    fn generation(self) -> u32 {
        self.0 >> QP_SLOT_BITS
    }
}

/// Callback invoked when a Send arrives at an endpoint.
pub(crate) type RecvHandler = dyn Fn(&mut Sim, QpId, Vec<u8>);

/// Callback fired when a one-sided Write has landed in the target region.
pub type WriteDelivered = Box<dyn FnOnce(&mut Sim)>;

/// Callback fired when a one-sided Read's response reaches the initiator.
pub(crate) type ReadComplete = Box<dyn FnOnce(&mut Sim, Vec<u8>)>;

/// Why a posted WQE completed in error at its initiator instead of landing.
/// Every variant is a condition the *target* side decides — a peer can
/// provoke it at will — so none of them may take the process down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WcError {
    /// The Write's region handle carries a revoked write-permission epoch.
    PermissionRevoked,
    /// The Write runs past the end of its target region.
    OutOfBounds,
    /// The Write's target region is not registered on the peer.
    RegionNotOnPeer,
    /// The queue pair was torn down before the WQE was posted.
    QpGone,
    /// The peer registered no receive handler for this Send.
    NoReceiver,
}

/// Callback invoked at an endpoint when a WQE it posted on the queue pair
/// completes in error.
pub(crate) type ErrorHandler = dyn Fn(&mut Sim, QpId, WcError);

/// Per-node traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    pub writes: u64,
    pub reads: u64,
    pub sends: u64,
    pub bytes_tx: u64,
    pub bytes_rx: u64,
    /// MMIO doorbells rung by this node. Each singleton verb post rings one;
    /// a doorbell-batched post rings one for the whole WQE chain.
    pub doorbells: u64,
    /// QP-state (ICM) cache references that found the context on chip
    /// (compulsory fills into a non-full cache count here: the model
    /// charges capacity misses, not connection warm-up).
    pub qp_cache_hits: u64,
    /// QP-state cache references that had to evict and fetch over PCIe.
    pub qp_cache_misses: u64,
    /// Translation (MTT) cache references served on chip.
    pub mtt_cache_hits: u64,
    /// Translation cache references that had to evict and fetch over PCIe.
    pub mtt_cache_misses: u64,
    /// Total PCIe-fetch surcharge (ns) this node's NIC paid for the misses
    /// above.
    pub miss_penalty_ns: u64,
}

/// Fabric-wide counters: the sum of every node's [`NodeStats`], plus the
/// completions in error.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    pub writes: u64,
    pub reads: u64,
    pub sends: u64,
    /// Bytes moved (the sum of every node's `bytes_tx`).
    pub bytes: u64,
    pub doorbells: u64,
    /// WQEs that completed in error at their initiator ([`WcError`]); they
    /// appear in no other counter.
    pub errors: u64,
}

/// One WQE of a doorbell-batched Write chain (see
/// [`Fabric::post_write_batch`]).
pub struct BatchWrite {
    pub words: Vec<u64>,
    pub dst_region: RegionId,
    pub dst_word_off: usize,
    pub on_delivered: Option<WriteDelivered>,
}

/// What one WQE handed to the posting kernel carries.
enum Wqe {
    Write(BatchWrite),
    Send(Vec<u8>),
}

/// Which traffic counter an operation bumps.
#[derive(Clone, Copy)]
enum Verb {
    Write,
    Read,
    Send,
}

/// A fault program installed on a link (one QP, or every QP between a node
/// pair). Counts tick down as messages hit the link, so faults self-expire;
/// `u32::MAX` means "until cleared".
///
/// Evaluation order per message: drop counts, then probabilistic drop, then
/// delay, then duplication. The QP-level fault (if any) is consulted before
/// the pair-level one; a message is affected by at most one drop but
/// accumulates delay from both levels.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkFault {
    /// Drop the next `drop_next` messages outright.
    pub drop_next: u32,
    /// Independently drop each message with this probability (uses the sim
    /// RNG, so runs stay seed-deterministic; the RNG is only consumed when
    /// this is non-zero).
    pub drop_prob: f64,
    /// Extra in-flight delay added to each of the next `delay_next`
    /// messages.
    pub delay_ns: SimTime,
    /// How many messages `delay_ns` still applies to.
    pub delay_next: u32,
    /// Deliver the next `dup_next` messages twice (redelivery, as after an
    /// RC retransmit). Applies to Sends and to Writes (the payload lands a
    /// second time); Reads are never duplicated.
    pub dup_next: u32,
}

impl LinkFault {
    /// A fault that drops the next `n` messages.
    pub fn drop_next(n: u32) -> Self {
        LinkFault {
            drop_next: n,
            ..Default::default()
        }
    }

    /// A fault that delays the next `n` messages by `delay_ns`.
    pub fn delay_next(n: u32, delay_ns: SimTime) -> Self {
        LinkFault {
            delay_ns,
            delay_next: n,
            ..Default::default()
        }
    }

    /// A fault that redelivers the next `n` messages.
    pub fn duplicate_next(n: u32) -> Self {
        LinkFault {
            dup_next: n,
            ..Default::default()
        }
    }
}

/// Counters for injected faults (see [`Fabric::fault_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    pub dropped: u64,
    pub delayed: u64,
    pub duplicated: u64,
}

#[derive(Default)]
struct FaultState {
    qp: HashMap<u32, LinkFault>,
    pair: HashMap<(u32, u32), LinkFault>,
    /// Symmetric node-pair cuts (network partition).
    cut: HashSet<(u32, u32)>,
    /// Crashed nodes: all traffic from or to them vanishes on the wire.
    crashed: HashSet<u32>,
    /// Per-node NIC slowdown multipliers (degraded link / thermal
    /// throttling); absent means 1.0.
    slow: HashMap<u32, f64>,
    stats: FaultStats,
}

impl FaultState {
    fn quiet(&self) -> bool {
        self.qp.is_empty() && self.pair.is_empty() && self.cut.is_empty() && self.crashed.is_empty()
    }
}

/// What the fault layer decided for one message / WQE.
enum FaultVerdict {
    /// The message vanishes: no NIC time, no delivery, no completion.
    Drop,
    Deliver {
        extra_delay: SimTime,
        duplicate: bool,
    },
}

fn cut_key(a: NodeId, b: NodeId) -> (u32, u32) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

/// An O(1) LRU set modeling one on-chip NIC cache (QP state or MTT).
///
/// Entries are u64 keys in an intrusive doubly linked list over a slab;
/// `touch` either finds the key (hit, moved to front), fills a free line
/// (compulsory fill — counted as a hit, because the model charges the
/// *capacity* cliff, not one-time warm-up), or evicts the LRU tail and
/// reports a miss. Capacity 0 disables the cache (every touch hits).
pub(crate) struct NicCache {
    cap: usize,
    map: IdMap<usize>,
    slab: Vec<CacheLine>,
    head: usize,
    tail: usize,
}

struct CacheLine {
    key: u64,
    prev: usize,
    next: usize,
}

const LRU_NIL: usize = usize::MAX;

impl NicCache {
    pub(crate) fn new(cap: usize) -> NicCache {
        NicCache {
            cap,
            map: IdMap::default(),
            slab: Vec::new(),
            head: LRU_NIL,
            tail: LRU_NIL,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev != LRU_NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != LRU_NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = LRU_NIL;
        self.slab[i].next = self.head;
        if self.head != LRU_NIL {
            self.slab[self.head].prev = i;
        } else {
            self.tail = i;
        }
        self.head = i;
    }

    /// References `key`; returns `true` on a capacity miss (the key was
    /// absent and filling it required evicting the LRU entry).
    pub(crate) fn touch(&mut self, key: u64) -> bool {
        if self.cap == 0 {
            return false;
        }
        if let Some(&i) = self.map.get(&key) {
            if self.head != i {
                self.unlink(i);
                self.push_front(i);
            }
            return false;
        }
        if self.slab.len() < self.cap {
            // Compulsory fill into a free line: no eviction, no surcharge.
            let i = self.slab.len();
            self.slab.push(CacheLine {
                key,
                prev: LRU_NIL,
                next: LRU_NIL,
            });
            self.map.insert(key, i);
            self.push_front(i);
            return false;
        }
        // Full: evict the LRU tail and reuse its line.
        let i = self.tail;
        self.unlink(i);
        let old = std::mem::replace(&mut self.slab[i].key, key);
        self.map.remove(&old);
        self.map.insert(key, i);
        self.push_front(i);
        true
    }

    /// Current number of resident entries.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.slab.len()
    }
}

struct Node {
    nic_tx: FifoResource,
    nic_rx: FifoResource,
    qp_count: u32,
    stats: NodeStats,
    /// On-chip QP-state (ICM) cache; keys are raw QP ids.
    qp_cache: NicCache,
    /// On-chip translation cache; keys are `(region << 32) | page_index`.
    mtt_cache: NicCache,
    /// Translation entries consumed by regions registered on this node
    /// (`ceil(region_bytes / page_bytes)` summed over regions).
    mtt_registered: u64,
    /// Receive buffers currently provisioned on this node (per-QP rings
    /// and/or the node SRQ).
    recv_posted: u64,
    /// Whether the node-wide shared receive queue has been provisioned.
    srq_installed: bool,
}

struct Region {
    node: NodeId,
    mem: Arc<[AtomicU64]>,
    /// Translation granularity this region was registered with.
    page_bytes: usize,
    /// Current write-permission epoch: a Write lands only through a handle
    /// stamped with it.
    write_epoch: u32,
}

impl Region {
    /// Translation entries the registration holds on its node's NIC.
    fn mtt_entries(&self) -> u64 {
        (self.mem.len() * 8).div_ceil(self.page_bytes) as u64
    }
}

struct Qp {
    a: NodeId,
    b: NodeId,
    transport: Transport,
    handler_a: Option<Rc<RecvHandler>>,
    handler_b: Option<Rc<RecvHandler>>,
    errors_a: Option<Rc<ErrorHandler>>,
    errors_b: Option<Rc<ErrorHandler>>,
}

impl Qp {
    fn peer_of(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("node {n:?} is not an endpoint of this QP");
        }
    }
}

/// One entry of the QP table: the live connection (if any) plus the
/// generation stamped into handles addressing this slot.
struct QpSlot {
    generation: u32,
    qp: Option<Qp>,
}

struct Inner {
    cfg: FabricConfig,
    nodes: Vec<Node>,
    regions: Vec<Region>,
    qps: Vec<QpSlot>,
    /// Recyclable QP slots (indices into `qps` whose `qp` is `None`).
    free_qps: Vec<u32>,
    /// WQEs that completed in error ([`FabricStats::errors`]).
    errors: u64,
    faults: FaultState,
}

impl Inner {
    /// Multiplier on `n`'s RDMA NIC service times: the driver-scalability
    /// slope past `qp_threshold` connections times any injected slowdown
    /// (1.0 on a healthy, lightly connected machine).
    fn penalty(&self, n: NodeId) -> f64 {
        let slow = self.faults.slow.get(&n.0).copied().unwrap_or(1.0);
        self.cfg.qp_penalty(self.nodes[n.0 as usize].qp_count) * slow
    }

    /// Books one delivered operation of `bytes` posted by `initiator`
    /// towards `peer` (a Read's bytes flow back, everything else's out), and
    /// the doorbell if this operation rang one.
    fn count(&mut self, verb: Verb, initiator: NodeId, peer: NodeId, bytes: usize, doorbell: bool) {
        let (bytes, doorbell) = (bytes as u64, doorbell as u64);
        let src = &mut self.nodes[initiator.0 as usize].stats;
        match verb {
            Verb::Write => src.writes += 1,
            Verb::Read => src.reads += 1,
            Verb::Send => src.sends += 1,
        }
        src.doorbells += doorbell;
        let (tx, rx) = match verb {
            Verb::Read => (peer, initiator),
            Verb::Write | Verb::Send => (initiator, peer),
        };
        self.nodes[tx.0 as usize].stats.bytes_tx += bytes;
        self.nodes[rx.0 as usize].stats.bytes_rx += bytes;
    }

    /// Resolves a QP handle, panicking on a stale or disconnected id.
    fn qp(&self, id: QpId) -> &Qp {
        let slot = self
            .qps
            .get(id.slot())
            .unwrap_or_else(|| panic!("unknown QP slot {id:?}"));
        assert_eq!(
            slot.generation,
            id.generation(),
            "stale QpId {id:?}: slot was recycled by a later connect"
        );
        slot.qp
            .as_ref()
            .unwrap_or_else(|| panic!("QpId {id:?} was disconnected"))
    }

    /// Resolves the handle a verb was posted on. `None` when the connection
    /// was torn down and its slot has not been reused: either end may
    /// disconnect under a poster that could not know, so the WQE is flushed
    /// in error ([`WcError::QpGone`]) rather than treated as a bug. A handle
    /// into a recycled slot, or one that never existed, still panics.
    fn posted_qp(&self, id: QpId) -> Option<&Qp> {
        let free = self.qps.get(id.slot()).is_some_and(|s| s.qp.is_none());
        (!free).then(|| self.qp(id))
    }

    /// Books a completion in error for a WQE `from` posted on `qp` and hands
    /// it to that endpoint's error handler at `at`, if it registered one and
    /// the connection is still there to look it up on (a refusal can come
    /// back to a QP torn down, even recycled, in the meantime).
    fn complete_in_error(
        &mut self,
        sim: &mut Sim,
        qp: QpId,
        from: NodeId,
        err: WcError,
        at: SimTime,
    ) {
        self.errors += 1;
        let live = self
            .qps
            .get(qp.slot())
            .filter(|s| s.generation == qp.generation())
            .and_then(|s| s.qp.as_ref());
        let handler = live.and_then(|q| {
            if from == q.a {
                q.errors_a.clone()
            } else {
                q.errors_b.clone()
            }
        });
        if let Some(handler) = handler {
            sim.schedule_at(at, move |sim| handler(sim, qp, err));
        }
    }

    /// Whether a Write through `region` may land now; the verdict of the
    /// target NIC, which owns the region's current permission epoch.
    fn write_verdict(
        &self,
        region: RegionId,
        to: NodeId,
        off: usize,
        words: usize,
    ) -> Result<(), WcError> {
        let r = &self.regions[region.slot()];
        if r.node != to {
            Err(WcError::RegionNotOnPeer)
        } else if off + words > r.mem.len() {
            Err(WcError::OutOfBounds)
        } else if r.write_epoch != region.epoch() {
            Err(WcError::PermissionRevoked)
        } else {
            Ok(())
        }
    }

    /// Mutable variant of [`qp`](Self::qp).
    fn qp_mut(&mut self, id: QpId) -> &mut Qp {
        let slot = self
            .qps
            .get_mut(id.slot())
            .unwrap_or_else(|| panic!("unknown QP slot {id:?}"));
        assert_eq!(
            slot.generation,
            id.generation(),
            "stale QpId {id:?}: slot was recycled by a later connect"
        );
        slot.qp
            .as_mut()
            .unwrap_or_else(|| panic!("QpId {id:?} was disconnected"))
    }

    /// References `node`'s QP-state cache for `qp` and returns the PCIe
    /// surcharge (0 on hit / warm fill).
    fn qp_state_touch(&mut self, node: NodeId, qp: QpId) -> SimTime {
        let n = &mut self.nodes[node.0 as usize];
        if n.qp_cache.touch(qp.0 as u64) {
            n.stats.qp_cache_misses += 1;
            n.stats.miss_penalty_ns += NIC_MISS_NS;
            NIC_MISS_NS
        } else {
            n.stats.qp_cache_hits += 1;
            0
        }
    }

    /// References `node`'s translation cache for every page of
    /// `region[byte_off .. byte_off + len_bytes)` and returns the summed
    /// PCIe surcharge. The region must live on `node`.
    fn mtt_touch(
        &mut self,
        node: NodeId,
        region: RegionId,
        byte_off: usize,
        len_bytes: usize,
    ) -> SimTime {
        let page = self.regions[region.slot()].page_bytes;
        let first = byte_off / page;
        let last = (byte_off + len_bytes.max(1) - 1) / page;
        let n = &mut self.nodes[node.0 as usize];
        let mut surcharge = 0;
        for p in first..=last {
            let key = ((region.slot() as u64) << 32) | p as u64;
            if n.mtt_cache.touch(key) {
                n.stats.mtt_cache_misses += 1;
                n.stats.miss_penalty_ns += NIC_MISS_NS;
                surcharge += NIC_MISS_NS;
            } else {
                n.stats.mtt_cache_hits += 1;
            }
        }
        surcharge
    }

    /// Runs one message (or one WQE of a batch) through the installed
    /// faults. `sim` is needed only for probabilistic drops.
    fn fault_verdict(&mut self, sim: &mut Sim, qp: QpId, from: NodeId, to: NodeId) -> FaultVerdict {
        if self.faults.quiet() {
            return FaultVerdict::Deliver {
                extra_delay: 0,
                duplicate: false,
            };
        }
        if self.faults.crashed.contains(&from.0) || self.faults.crashed.contains(&to.0) {
            self.faults.stats.dropped += 1;
            return FaultVerdict::Drop;
        }
        if self.faults.cut.contains(&cut_key(from, to)) {
            self.faults.stats.dropped += 1;
            return FaultVerdict::Drop;
        }
        let mut extra_delay = 0;
        let mut duplicate = false;
        for level in 0..2u8 {
            let fault = if level == 0 {
                self.faults.qp.get_mut(&qp.0)
            } else {
                self.faults.pair.get_mut(&(from.0, to.0))
            };
            let Some(fault) = fault else { continue };
            if fault.drop_next > 0 {
                fault.drop_next -= 1;
                self.faults.stats.dropped += 1;
                return FaultVerdict::Drop;
            }
            if fault.drop_prob > 0.0 && sim.rng().gen_bool(fault.drop_prob) {
                self.faults.stats.dropped += 1;
                return FaultVerdict::Drop;
            }
            if fault.delay_next > 0 {
                if fault.delay_next != u32::MAX {
                    fault.delay_next -= 1;
                }
                extra_delay += fault.delay_ns;
            }
            if fault.dup_next > 0 {
                if fault.dup_next != u32::MAX {
                    fault.dup_next -= 1;
                }
                duplicate = true;
            }
        }
        if extra_delay > 0 {
            self.faults.stats.delayed += 1;
        }
        if duplicate {
            self.faults.stats.duplicated += 1;
        }
        FaultVerdict::Deliver {
            extra_delay,
            duplicate,
        }
    }
}

/// Handle to the shared fabric. Clones are cheap and refer to the same
/// network.
#[derive(Clone)]
pub struct Fabric {
    inner: Rc<RefCell<Inner>>,
}

impl Fabric {
    /// Creates a fabric with the given latency model.
    pub fn new(cfg: FabricConfig) -> Self {
        Fabric {
            inner: Rc::new(RefCell::new(Inner {
                cfg,
                nodes: Vec::new(),
                regions: Vec::new(),
                qps: Vec::new(),
                free_qps: Vec::new(),
                errors: 0,
                faults: FaultState::default(),
            })),
        }
    }

    /// Installs a fault program on one queue pair (both directions).
    pub fn set_qp_fault(&self, qp: QpId, fault: LinkFault) {
        self.inner.borrow_mut().faults.qp.insert(qp.0, fault);
    }

    /// Installs a fault program on every message flowing `from -> to`,
    /// regardless of queue pair. Directional: the reverse path is
    /// unaffected.
    pub fn set_pair_fault(&self, from: NodeId, to: NodeId, fault: LinkFault) {
        self.inner
            .borrow_mut()
            .faults
            .pair
            .insert((from.0, to.0), fault);
    }

    /// Severs all connectivity between `a` and `b` (network partition).
    /// Symmetric; messages in either direction vanish until
    /// [`heal`](Self::heal).
    pub fn block_pair(&self, a: NodeId, b: NodeId) {
        self.inner.borrow_mut().faults.cut.insert(cut_key(a, b));
    }

    /// Heals every partition cut and clears all link fault programs.
    /// Crashed-node flags are left alone — a healed network does not revive
    /// a dead machine.
    pub fn heal(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.faults.cut.clear();
        inner.faults.qp.clear();
        inner.faults.pair.clear();
    }

    /// Marks `node` crashed (or alive again). While crashed, every message
    /// from or to the node vanishes on the wire; pair this with
    /// [`freeze_node`](Self::freeze_node) so the node's NIC engines stop
    /// accruing service time.
    pub fn set_node_crashed(&self, node: NodeId, crashed: bool) {
        let mut inner = self.inner.borrow_mut();
        if crashed {
            inner.faults.crashed.insert(node.0);
        } else {
            inner.faults.crashed.remove(&node.0);
        }
    }

    /// Whether `node` is currently marked crashed.
    pub fn is_node_crashed(&self, node: NodeId) -> bool {
        self.inner.borrow().faults.crashed.contains(&node.0)
    }

    /// Applies a service-time multiplier to `node`'s NIC costs (1.0 =
    /// healthy, 4.0 = everything four times slower). Models a degraded or
    /// thermally throttled machine.
    pub fn set_node_slow(&self, node: NodeId, factor: f64) {
        let mut inner = self.inner.borrow_mut();
        if factor == 1.0 {
            inner.faults.slow.remove(&node.0);
        } else {
            assert!(factor > 0.0, "slow factor must be positive");
            inner.faults.slow.insert(node.0, factor);
        }
    }

    /// Freezes `node`'s NIC engines at `now` (crash). In-flight service is
    /// paused; acquiring a frozen engine panics, which the crashed-node drop
    /// gate makes unreachable.
    pub fn freeze_node(&self, node: NodeId, now: SimTime) {
        let mut inner = self.inner.borrow_mut();
        let n = &mut inner.nodes[node.0 as usize];
        n.nic_tx.freeze(now);
        n.nic_rx.freeze(now);
    }

    /// Unfreezes `node`'s NIC engines at `now` (restart).
    pub fn unfreeze_node(&self, node: NodeId, now: SimTime) {
        let mut inner = self.inner.borrow_mut();
        let n = &mut inner.nodes[node.0 as usize];
        n.nic_tx.unfreeze(now);
        n.nic_rx.unfreeze(now);
    }

    /// Counters of injected fault effects since fabric creation.
    pub fn fault_stats(&self) -> FaultStats {
        self.inner.borrow().faults.stats
    }

    /// Adds a machine and returns its id.
    pub fn add_node(&self) -> NodeId {
        let mut inner = self.inner.borrow_mut();
        let id = NodeId(inner.nodes.len() as u32);
        let (qp_cap, mtt_cap) = (inner.cfg.qp_cache_entries, inner.cfg.mtt_cache_entries);
        inner.nodes.push(Node {
            nic_tx: FifoResource::new(format!("node{}.tx", id.0)),
            nic_rx: FifoResource::new(format!("node{}.rx", id.0)),
            qp_count: 0,
            stats: NodeStats::default(),
            qp_cache: NicCache::new(qp_cap),
            mtt_cache: NicCache::new(mtt_cap),
            mtt_registered: 0,
            recv_posted: 0,
            srq_installed: false,
        });
        id
    }

    /// Registers externally owned memory on `node`, mapped with
    /// `page_bytes` pages. Registration consumes
    /// `ceil(bytes / page_bytes)` translation entries on the node's NIC —
    /// huge pages (2 MiB) collapse that footprint ~512× against the 4 KiB
    /// default, which is what keeps a large arena resident in the MTT
    /// cache.
    pub fn register_paged(
        &self,
        node: NodeId,
        mem: Arc<[AtomicU64]>,
        page_bytes: usize,
    ) -> RegionId {
        assert!(
            page_bytes.is_power_of_two() && page_bytes >= 64,
            "page size must be a power of two of at least 64 B"
        );
        let mut inner = self.inner.borrow_mut();
        let slot = inner.regions.len();
        assert!(slot <= QP_SLOT_MASK as usize, "region table exhausted");
        let region = Region {
            node,
            mem,
            page_bytes,
            write_epoch: 0,
        };
        inner.nodes[node.0 as usize].mtt_registered += region.mtt_entries();
        inner.regions.push(region);
        RegionId(slot as u32)
    }

    /// Allocates and registers a zeroed region of `words` words on `node`
    /// (message buffers, replication rings) at the default translation
    /// granularity.
    pub fn alloc_region(&self, node: NodeId, words: usize) -> (RegionId, Arc<[AtomicU64]>) {
        let page = self.inner.borrow().cfg.default_page_bytes;
        self.alloc_region_paged(node, words, page)
    }

    /// Allocates and registers a zeroed region mapped with `page_bytes`
    /// pages (see [`register_paged`](Self::register_paged)).
    pub fn alloc_region_paged(
        &self,
        node: NodeId,
        words: usize,
        page_bytes: usize,
    ) -> (RegionId, Arc<[AtomicU64]>) {
        // Zeroed by the allocator and never written here: the host commits a
        // page when traffic first touches it, however large the region is.
        // SAFETY: the all-zero bit pattern is a valid `AtomicU64` (it has the
        // representation of `u64`), so every element is initialised.
        let mem = unsafe { Arc::<[AtomicU64]>::new_zeroed_slice(words).assume_init() };
        (self.register_paged(node, mem.clone(), page_bytes), mem)
    }

    /// Deregisters `region`: its translation entries return to the node's
    /// budget and the fabric lets go of the memory. The slot is retired, not
    /// reused, and the permission epoch moves on, so a Write still in flight
    /// to it bounces exactly as after [`revoke_write`](Self::revoke_write);
    /// the owner must have stopped reading through it.
    pub fn deregister(&self, region: RegionId) {
        let mut inner = self.inner.borrow_mut();
        let r = &mut inner.regions[region.slot()];
        let (node, entries) = (r.node.0 as usize, r.mtt_entries());
        r.mem = Arc::new([]);
        r.write_epoch = (r.write_epoch + 1) & 0xFF;
        inner.nodes[node].mtt_registered -= entries;
    }

    /// Translation entries consumed by regions registered on `node`.
    pub fn mtt_registered(&self, node: NodeId) -> u64 {
        self.inner.borrow().nodes[node.0 as usize].mtt_registered
    }

    /// Provisions `n` receive buffers on `node` (a per-QP recv ring).
    /// Pure accounting: the posted-buffer footprint is what the SRQ
    /// optimization bounds, and reports surface it.
    pub fn provision_recvs(&self, node: NodeId, n: u64) {
        self.inner.borrow_mut().nodes[node.0 as usize].recv_posted += n;
    }

    /// Provisions the node-wide shared receive queue: one pool of `depth`
    /// buffers every connection terminating at `node` consumes from,
    /// instead of a dedicated ring per QP. Idempotent — only the first
    /// call posts buffers, so per-connection setup paths may call it
    /// unconditionally.
    pub fn ensure_srq(&self, node: NodeId, depth: u64) {
        let mut inner = self.inner.borrow_mut();
        let node = &mut inner.nodes[node.0 as usize];
        if !node.srq_installed {
            node.srq_installed = true;
            node.recv_posted += depth;
        }
    }

    /// Receive buffers currently provisioned on `node` (rings + SRQ).
    pub fn recv_posted(&self, node: NodeId) -> u64 {
        self.inner.borrow().nodes[node.0 as usize].recv_posted
    }

    /// Revokes write permission on `region`: its permission epoch moves on,
    /// so every Write still carrying an older handle — posted from now on,
    /// or already in flight and arriving from now on — leaves the memory
    /// untouched and completes in error at its initiator
    /// ([`WcError::PermissionRevoked`]). The owner's NIC does this locally,
    /// in no virtual time. Returns the handle of the new epoch, for whoever
    /// the owner grants write access next.
    pub fn revoke_write(&self, region: RegionId) -> RegionId {
        let mut inner = self.inner.borrow_mut();
        let r = &mut inner.regions[region.slot()];
        r.write_epoch = (r.write_epoch + 1) & 0xFF;
        RegionId((r.write_epoch << QP_SLOT_BITS) | region.slot() as u32)
    }

    /// Establishes a queue pair between `a` and `b`. Slots freed by
    /// [`disconnect`](Self::disconnect) are recycled from a free-list with
    /// a bumped generation, so the QP table stays bounded under
    /// migration/reconnect churn and stale ids are caught rather than
    /// silently aliased.
    pub fn connect(&self, a: NodeId, b: NodeId, transport: Transport) -> QpId {
        let mut inner = self.inner.borrow_mut();
        let qp = Qp {
            a,
            b,
            transport,
            handler_a: None,
            handler_b: None,
            errors_a: None,
            errors_b: None,
        };
        let id = match inner.free_qps.pop() {
            Some(slot) => {
                let s = &mut inner.qps[slot as usize];
                debug_assert!(s.qp.is_none(), "free-list slot still occupied");
                s.qp = Some(qp);
                QpId::pack(slot as usize, s.generation)
            }
            None => {
                let slot = inner.qps.len();
                assert!(slot < (1 << QP_SLOT_BITS), "QP table exhausted");
                inner.qps.push(QpSlot {
                    generation: 0,
                    qp: Some(qp),
                });
                QpId::pack(slot, 0)
            }
        };
        inner.nodes[a.0 as usize].qp_count += 1;
        inner.nodes[b.0 as usize].qp_count += 1;
        id
    }

    /// Tears down a queue pair (failover, migration): driver load drops on
    /// both endpoints and the slot returns to the free-list with its
    /// generation bumped, so any verb posted on the stale id panics instead
    /// of hitting whichever connection reuses the slot.
    pub fn disconnect(&self, qp: QpId) {
        let mut inner = self.inner.borrow_mut();
        let (a, b) = {
            let q = inner.qp(qp);
            (q.a, q.b)
        };
        inner.nodes[a.0 as usize].qp_count = inner.nodes[a.0 as usize].qp_count.saturating_sub(1);
        inner.nodes[b.0 as usize].qp_count = inner.nodes[b.0 as usize].qp_count.saturating_sub(1);
        let slot = qp.slot();
        let s = &mut inner.qps[slot];
        s.qp = None;
        s.generation = (s.generation + 1) & 0xFF;
        inner.free_qps.push(slot as u32);
        // Faults are keyed by the full (slot, generation) id, so a recycled
        // slot never inherits a dead connection's fault program.
        inner.faults.qp.remove(&qp.0);
    }

    /// Registers the Send/Recv delivery callback for `endpoint`'s side of
    /// `qp`.
    pub fn set_recv_handler(&self, qp: QpId, endpoint: NodeId, handler: Rc<RecvHandler>) {
        let mut inner = self.inner.borrow_mut();
        let q = inner.qp_mut(qp);
        if endpoint == q.a {
            q.handler_a = Some(handler);
        } else if endpoint == q.b {
            q.handler_b = Some(handler);
        } else {
            panic!("node {endpoint:?} is not an endpoint of qp {qp:?}");
        }
    }

    /// Registers the callback that receives `endpoint`'s completions in
    /// error on `qp` ([`WcError`]). Without one they are only counted
    /// ([`FabricStats::errors`]).
    pub fn set_error_handler(&self, qp: QpId, endpoint: NodeId, handler: Rc<ErrorHandler>) {
        let mut inner = self.inner.borrow_mut();
        let q = inner.qp_mut(qp);
        if endpoint == q.a {
            q.errors_a = Some(handler);
        } else if endpoint == q.b {
            q.errors_b = Some(handler);
        } else {
            panic!("node {endpoint:?} is not an endpoint of qp {qp:?}");
        }
    }

    /// Number of QPs currently terminating at `node`.
    pub fn qp_count(&self, node: NodeId) -> u32 {
        self.inner.borrow().nodes[node.0 as usize].qp_count
    }

    /// Per-node statistics.
    pub fn node_stats(&self, node: NodeId) -> NodeStats {
        self.inner.borrow().nodes[node.0 as usize].stats
    }

    /// Fabric-wide statistics: every node's counters summed.
    pub fn stats(&self) -> FabricStats {
        let inner = self.inner.borrow();
        let mut s = FabricStats {
            errors: inner.errors,
            ..FabricStats::default()
        };
        for n in &inner.nodes {
            s.writes += n.stats.writes;
            s.reads += n.stats.reads;
            s.sends += n.stats.sends;
            s.bytes += n.stats.bytes_tx;
            s.doorbells += n.stats.doorbells;
        }
        s
    }

    /// One-sided RDMA Write: `words` land in `dst_region` at
    /// `dst_word_off`, in increasing address order, with zero target-CPU
    /// involvement. `on_delivered` (if any) fires at delivery time — callers
    /// use it to model "data is now visible" hooks; real initiators learn of
    /// completion only through higher-level protocol responses. A chain of
    /// one through [`post_write_batch`](Self::post_write_batch).
    #[allow(clippy::too_many_arguments)] // verbs post calls are wide by nature
    pub fn post_write(
        &self,
        sim: &mut Sim,
        qp: QpId,
        from: NodeId,
        words: Vec<u64>,
        dst_region: RegionId,
        dst_word_off: usize,
        on_delivered: Option<WriteDelivered>,
    ) {
        let write = BatchWrite {
            words,
            dst_region,
            dst_word_off,
            on_delivered,
        };
        self.post_write_batch(sim, qp, from, [write]);
    }

    /// Doorbell-batched one-sided Writes: the whole chain of WQEs is handed
    /// to the NIC with a single MMIO doorbell. The first WQE pays the full
    /// per-op initiator cost (`RDMA_OP_NS`); each subsequent
    /// WQE only the marginal chained-WQE fetch
    /// (`RDMA_WQE_NS`). Every write still serializes its own
    /// bytes, flies and DMAs independently, and lands in posting order;
    /// semantics are identical to the same sequence of
    /// [`post_write`](Self::post_write) calls — only the initiator-side
    /// fixed cost is amortized.
    pub fn post_write_batch(
        &self,
        sim: &mut Sim,
        qp: QpId,
        from: NodeId,
        writes: impl IntoIterator<Item = BatchWrite>,
    ) {
        self.post_chain(sim, qp, from, writes.into_iter().map(Wqe::Write));
    }

    /// Two-sided Send: `payload` is delivered to the peer's registered recv
    /// handler. Works on both transports with their respective cost models.
    /// A chain of one through [`post_send_batch`](Self::post_send_batch).
    pub fn post_send(&self, sim: &mut Sim, qp: QpId, from: NodeId, payload: Vec<u8>) {
        self.post_send_batch(sim, qp, from, [payload]);
    }

    /// Doorbell-batched two-sided Sends: the payloads are posted as one WQE
    /// chain with a single doorbell and delivered to the peer's recv handler
    /// one by one, in posting order. Only the initiator-side fixed cost is
    /// amortized; each message still pays its own serialization, flight and
    /// receive processing. On the socket transport there is no doorbell to
    /// amortize: every message pays the full per-message stack cost.
    pub fn post_send_batch(
        &self,
        sim: &mut Sim,
        qp: QpId,
        from: NodeId,
        payloads: impl IntoIterator<Item = Vec<u8>>,
    ) {
        self.post_chain(sim, qp, from, payloads.into_iter().map(Wqe::Send));
    }

    /// The posting kernel under the Write and Send verbs: one doorbell's
    /// worth of WQEs from `from` over `qp`. Everything the NIC model charges
    /// for a posted WQE is decided here, once — so a per-QP permission check
    /// or a doorbell/arrival stamp is one edit, not one per verb.
    ///
    /// Each WQE runs the fault gauntlet on its own: a drop program can
    /// swallow one record out of the middle of a chain, which is exactly the
    /// crash-mid-batch scenario replication's gap detection exists for. A
    /// dropped WQE vanishes whole (no NIC time, no counters); the chain's
    /// doorbell belongs to the first WQE that survives. That WQE pays
    /// [`crate::RDMA_OP_NS`] and references the QP context on both
    /// NICs — which keep it resident while they walk the chain — and every
    /// later one pays only [`crate::RDMA_WQE_NS`]. Writes also
    /// reference the target's translation cache, per WQE. Socket messages
    /// share nothing: each is a doorbell of its own, at the flat socket
    /// costs, with no NIC-resident state.
    ///
    /// A WQE the target would refuse — a Write through a revoked handle,
    /// outside its region or into a region that is not the peer's, a Send
    /// nobody receives, anything on a torn-down QP — is accounted like a
    /// dropped one, except that the refusal comes back: it completes in
    /// error at the initiator ([`WcError`]) one round trip later. A Write
    /// whose permission is revoked while it is in flight has paid its way
    /// and is refused on arrival instead (see [`arrive`](Self::arrive)).
    fn post_chain(&self, sim: &mut Sim, qp: QpId, from: NodeId, chain: impl Iterator<Item = Wqe>) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let Some(q) = inner.posted_qp(qp) else {
            for _ in chain {
                inner.complete_in_error(sim, qp, from, WcError::QpGone, sim.now());
            }
            return;
        };
        let to = q.peer_of(from);
        let rdma = q.transport == Transport::Rdma;
        let handler = if to == q.a {
            q.handler_a.clone()
        } else {
            q.handler_b.clone()
        };
        let (pen_src, pen_dst) = (inner.penalty(from), inner.penalty(to));
        let prop = if rdma { RDMA_PROP_NS } else { SOCKET_PROP_NS };
        let mut rung = false;
        for wqe in chain {
            assert!(
                rdma || matches!(wqe, Wqe::Send(_)),
                "RDMA Write requires an RDMA QP"
            );
            let FaultVerdict::Deliver {
                extra_delay,
                duplicate,
            } = inner.fault_verdict(sim, qp, from, to)
            else {
                continue;
            };
            let refused = match &wqe {
                Wqe::Write(w) => inner
                    .write_verdict(w.dst_region, to, w.dst_word_off, w.words.len())
                    .err(),
                Wqe::Send(_) => handler.is_none().then_some(WcError::NoReceiver),
            };
            if let Some(err) = refused {
                inner.complete_in_error(sim, qp, from, err, sim.now() + 2 * prop);
                continue;
            }
            let first = !(rdma && rung);
            rung = true;
            let (bytes, verb) = match &wqe {
                Wqe::Write(w) => (w.words.len() * 8, Verb::Write),
                Wqe::Send(p) => (p.len(), Verb::Send),
            };
            let (tx_cost, rx_cost) = if rdma {
                let (mut tx_miss, mut rx_miss) = (0, 0);
                if first {
                    tx_miss = inner.qp_state_touch(from, qp);
                    rx_miss = inner.qp_state_touch(to, qp);
                }
                let rx_fixed = match &wqe {
                    Wqe::Write(w) => {
                        rx_miss += inner.mtt_touch(to, w.dst_region, w.dst_word_off * 8, bytes);
                        RDMA_DMA_NS
                    }
                    Wqe::Send(_) => RDMA_DMA_NS + SEND_RECV_EXTRA_NS,
                };
                let ser = nic_ser(bytes);
                (
                    wqe_cost(first, ser, pen_src) + tx_miss,
                    scaled(rx_fixed + ser, pen_dst) + rx_miss,
                )
            } else {
                let cost = inner.cfg.socket_op_ns + inner.cfg.socket_ser(bytes);
                (cost, cost)
            };
            let tx_done = inner.nodes[from.0 as usize]
                .nic_tx
                .acquire(sim.now(), tx_cost);
            let deliver_at = inner.nodes[to.0 as usize]
                .nic_rx
                .acquire(tx_done + prop, rx_cost)
                + extra_delay;
            inner.count(verb, from, to, bytes, first);
            // A redelivered copy (as after an RC retransmit) arrives just
            // behind the original, with no completion callback of its own.
            match wqe {
                Wqe::Write(w) => {
                    // The delivery event carries the Fabric handle instead of
                    // the region's memory so the target can judge the handle
                    // on arrival; a 32-bit offset keeps the closure inside
                    // the scheduler's 64-byte inline payload (no allocation).
                    let off =
                        u32::try_from(w.dst_word_off).expect("in bounds of a 24-bit-slot region");
                    let (region, on_delivered) = (w.dst_region, w.on_delivered);
                    if duplicate {
                        let (fab, words) = (self.clone(), w.words.clone());
                        sim.schedule_at(deliver_at + 1, move |_| {
                            fab.arrive(region, off, words);
                        });
                    }
                    let fab = self.clone();
                    sim.schedule_at(deliver_at, move |sim| {
                        if !fab.arrive(region, off, w.words) {
                            let mut inner = fab.inner.borrow_mut();
                            let at = sim.now() + RDMA_PROP_NS;
                            inner.complete_in_error(sim, qp, from, WcError::PermissionRevoked, at);
                        } else if let Some(cb) = on_delivered {
                            cb(sim);
                        }
                    });
                }
                Wqe::Send(payload) => {
                    let handler = handler.clone().expect("a Send nobody receives was refused");
                    if duplicate {
                        let (handler, payload) = (handler.clone(), payload.clone());
                        sim.schedule_at(deliver_at + 1, move |sim| handler(sim, qp, payload));
                    }
                    sim.schedule_at(deliver_at, move |sim| handler(sim, qp, payload));
                }
            }
        }
    }

    /// A Write reaches its target NIC, which checks the handle against the
    /// region's permission epoch as it stands *now*: the payload lands, or
    /// — revoked while in flight — the memory stays untouched. Returns
    /// whether it landed.
    fn arrive(&self, region: RegionId, off: u32, words: Vec<u64>) -> bool {
        let inner = self.inner.borrow();
        let r = &inner.regions[region.slot()];
        let permitted = r.write_epoch == region.epoch();
        if permitted {
            land(&r.mem, off as usize, words);
        }
        permitted
    }

    /// One-sided RDMA Read of `len_bytes` from `src_region` at
    /// `src_word_off`. The target memory is snapshotted when the request
    /// reaches the target NIC; `on_complete` receives the bytes when the
    /// response lands back at the initiator. A four-leg trip of its own, on
    /// the posting kernel's hop, cache and counter helpers.
    #[allow(clippy::too_many_arguments)] // verbs post calls are wide by nature
    pub fn post_read(
        &self,
        sim: &mut Sim,
        qp: QpId,
        from: NodeId,
        src_region: RegionId,
        src_word_off: usize,
        len_bytes: usize,
        on_complete: ReadComplete,
    ) {
        let words = len_bytes.div_ceil(8);
        let (mem, snap_at, done_at) = {
            let mut inner = self.inner.borrow_mut();
            let inner = &mut *inner;
            let Some(q) = inner.posted_qp(qp) else {
                inner.complete_in_error(sim, qp, from, WcError::QpGone, sim.now());
                return;
            };
            assert_eq!(
                q.transport,
                Transport::Rdma,
                "RDMA Read requires an RDMA QP"
            );
            let target = q.peer_of(from);
            // A dropped read never completes; the initiator's own timeout
            // machinery is what notices. Reads are never duplicated.
            let FaultVerdict::Deliver { extra_delay, .. } =
                inner.fault_verdict(sim, qp, from, target)
            else {
                return;
            };
            let region = &inner.regions[src_region.slot()];
            assert_eq!(region.node, target, "read source region not on peer node");
            assert!(
                src_word_off + words <= region.mem.len(),
                "read beyond region bounds"
            );
            let mem = region.mem.clone();
            let (pen_src, pen_dst) = (inner.penalty(from), inner.penalty(target));
            let prop = RDMA_PROP_NS;
            let dma = RDMA_DMA_NS;
            let ser = nic_ser(len_bytes);
            let tx_miss = inner.qp_state_touch(from, qp);
            let rx_miss = inner.qp_state_touch(target, qp)
                + inner.mtt_touch(target, src_region, src_word_off * 8, len_bytes);
            // Request flight.
            let tx_done = inner.nodes[from.0 as usize]
                .nic_tx
                .acquire(sim.now(), wqe_cost(true, 0, pen_src) + tx_miss);
            // The target HCA serves the read in hardware: one DMA fetch, no
            // WQE processing (that is the initiator's job) and no CPU.
            let snap_at = inner.nodes[target.0 as usize]
                .nic_rx
                .acquire(tx_done + prop, scaled(dma, pen_dst) + rx_miss);
            let resp_tx = inner.nodes[target.0 as usize]
                .nic_tx
                .acquire(snap_at, scaled(ser, pen_dst));
            let done_at = inner.nodes[from.0 as usize]
                .nic_rx
                .acquire(resp_tx + prop, scaled(dma, pen_src));
            inner.count(Verb::Read, from, target, len_bytes, true);
            // A delayed read stalls in the request path: the snapshot itself
            // happens later, exactly like a slow wire would behave.
            (mem, snap_at + extra_delay, done_at + extra_delay)
        };
        sim.schedule_at(snap_at, move |sim| {
            let mut blob = Vec::with_capacity(words * 8);
            for w in 0..words {
                blob.extend_from_slice(
                    &mem[src_word_off + w].load(Ordering::Acquire).to_le_bytes(),
                );
            }
            blob.truncate(len_bytes);
            sim.schedule_at(done_at.max(sim.now()), move |sim| on_complete(sim, blob));
        });
    }
}

/// Lands a Write's payload: increasing address order, the final store
/// releases the payload.
fn land(mem: &[AtomicU64], off: usize, words: Vec<u64>) {
    let n = words.len();
    for (i, w) in words.into_iter().enumerate() {
        let ord = if i + 1 == n {
            Ordering::Release
        } else {
            Ordering::Relaxed
        };
        mem[off + i].store(w, ord);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_sim::time::US;
    use std::cell::Cell;

    fn setup() -> (Sim, Fabric, NodeId, NodeId, QpId) {
        let sim = Sim::new(7);
        let fab = Fabric::new(FabricConfig::default());
        let a = fab.add_node();
        let b = fab.add_node();
        let qp = fab.connect(a, b, Transport::Rdma);
        (sim, fab, a, b, qp)
    }

    #[test]
    fn write_lands_at_positive_latency_and_mutates_target() {
        let (mut sim, fab, a, target, qp) = setup();
        let (region, mem) = fab.alloc_region(target, 64);
        let delivered = Rc::new(Cell::new(0u64));
        let d = delivered.clone();
        fab.post_write(
            &mut sim,
            qp,
            a,
            vec![11, 22, 33],
            region,
            4,
            Some(Box::new(move |sim| d.set(sim.now()))),
        );
        assert_eq!(
            mem[4].load(Ordering::Relaxed),
            0,
            "no mutation before delivery"
        );
        sim.run();
        assert_eq!(mem[4].load(Ordering::Relaxed), 11);
        assert_eq!(mem[5].load(Ordering::Relaxed), 22);
        assert_eq!(mem[6].load(Ordering::Relaxed), 33);
        let t = delivered.get();
        assert!(
            t > 500 && t < 5_000,
            "one-way small write should be ~0.8-3us, got {t}ns"
        );
    }

    #[test]
    fn back_to_back_writes_arrive_in_order() {
        let (mut sim, fab, a, b, qp) = setup();
        let (region, _mem) = fab.alloc_region(b, 64);
        let order = Rc::new(RefCell::new(Vec::new()));
        for i in 0..5u64 {
            let o = order.clone();
            fab.post_write(
                &mut sim,
                qp,
                a,
                vec![i],
                region,
                i as usize,
                Some(Box::new(move |_| o.borrow_mut().push(i))),
            );
        }
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn read_snapshots_memory_at_target_arrival_time() {
        let (mut sim, fab, a, b, qp) = setup();
        let (region, mem) = fab.alloc_region(b, 8);
        mem[0].store(0xAAAA, Ordering::Relaxed);
        // Server-side mutation scheduled at t = 10us.
        {
            let mem = mem.clone();
            sim.schedule_at(10 * US, move |_| mem[0].store(0xBBBB, Ordering::Relaxed));
        }
        let got_early = Rc::new(Cell::new(0u64));
        let got_late = Rc::new(Cell::new(0u64));
        {
            let g = got_early.clone();
            fab.post_read(
                &mut sim,
                qp,
                a,
                region,
                0,
                8,
                Box::new(move |_, blob| g.set(u64::from_le_bytes(blob.try_into().unwrap()))),
            );
        }
        {
            let fab2 = fab.clone();
            let g = got_late.clone();
            sim.schedule_at(20 * US, move |sim| {
                fab2.post_read(
                    sim,
                    qp,
                    a,
                    region,
                    0,
                    8,
                    Box::new(move |_, blob| g.set(u64::from_le_bytes(blob.try_into().unwrap()))),
                );
            });
        }
        sim.run();
        assert_eq!(
            got_early.get(),
            0xAAAA,
            "read before the write sees the old value"
        );
        assert_eq!(
            got_late.get(),
            0xBBBB,
            "read after the write sees the new value"
        );
    }

    #[test]
    fn read_rtt_in_expected_range() {
        let (mut sim, fab, a, target, qp) = setup();
        let (region, _mem) = fab.alloc_region(target, 16);
        let done = Rc::new(Cell::new(0u64));
        let d = done.clone();
        fab.post_read(
            &mut sim,
            qp,
            a,
            region,
            0,
            64,
            Box::new(move |sim, _| d.set(sim.now())),
        );
        sim.run();
        let rtt = done.get();
        assert!(
            (1_000..=3_000).contains(&rtt),
            "64B read RTT {rtt}ns outside 1-3us"
        );
    }

    #[test]
    fn send_recv_invokes_handler_with_payload() {
        let (mut sim, fab, a, b, qp) = setup();
        let got = Rc::new(RefCell::new(Vec::new()));
        {
            let got = got.clone();
            fab.set_recv_handler(
                qp,
                b,
                Rc::new(move |sim: &mut Sim, _qp, payload: Vec<u8>| {
                    got.borrow_mut().push((sim.now(), payload));
                }),
            );
        }
        fab.post_send(&mut sim, qp, a, b"hello-fabric".to_vec());
        sim.run();
        let got = got.borrow();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].1, b"hello-fabric");
        assert!(got[0].0 > 1_000, "send latency must exceed write latency");
    }

    #[test]
    fn socket_transport_is_an_order_of_magnitude_slower() {
        let sim_t = |transport| {
            let mut sim = Sim::new(1);
            let fab = Fabric::new(FabricConfig::default());
            let a = fab.add_node();
            let b = fab.add_node();
            let qp = fab.connect(a, b, transport);
            let done = Rc::new(Cell::new(0u64));
            let d = done.clone();
            fab.set_recv_handler(qp, b, Rc::new(move |sim: &mut Sim, _, _| d.set(sim.now())));
            fab.post_send(&mut sim, qp, a, vec![0u8; 64]);
            sim.run();
            done.get()
        };
        let rdma = sim_t(Transport::Rdma);
        let socket = sim_t(Transport::Socket);
        assert_eq!(
            socket,
            FabricConfig::default().socket_one_way(64),
            "the closed form control messages are charged is this path's cost"
        );
        assert!(
            socket > 10 * rdma,
            "socket one-way {socket}ns should dwarf rdma {rdma}ns"
        );
    }

    #[test]
    fn qp_pressure_slows_operations() {
        let mut times = Vec::new();
        for extra_qps in [0u32, 800] {
            let mut sim = Sim::new(1);
            let fab = Fabric::new(FabricConfig::default());
            let a = fab.add_node();
            let b = fab.add_node();
            let qp = fab.connect(a, b, Transport::Rdma);
            for _ in 0..extra_qps {
                fab.connect(a, b, Transport::Rdma);
            }
            let (region, _mem) = fab.alloc_region(b, 16);
            let done = Rc::new(Cell::new(0u64));
            let d = done.clone();
            fab.post_read(
                &mut sim,
                qp,
                a,
                region,
                0,
                64,
                Box::new(move |sim, _| d.set(sim.now())),
            );
            sim.run();
            times.push(done.get());
        }
        assert!(
            times[1] as f64 > times[0] as f64 * 1.3,
            "driver penalty absent: {:?}",
            times
        );
    }

    #[test]
    fn nic_saturation_queues_operations() {
        let (mut sim, fab, a, b, qp) = setup();
        let (region, _mem) = fab.alloc_region(b, 1 << 16);
        let completions = Rc::new(RefCell::new(Vec::new()));
        // 100 large reads posted at t=0 must serialize on the target NIC.
        for _ in 0..100 {
            let c = completions.clone();
            fab.post_read(
                &mut sim,
                qp,
                a,
                region,
                0,
                32 * 1024,
                Box::new(move |sim, _| c.borrow_mut().push(sim.now())),
            );
        }
        sim.run();
        let c = completions.borrow();
        assert_eq!(c.len(), 100);
        let first = c[0];
        let last = *c.last().unwrap();
        // 32 KiB at 0.2 ns/B = ~6.5us serialization each; 100 of them must
        // take at least ~650us end to end.
        assert!(
            last - first > 500 * US,
            "spread {}ns too small",
            last - first
        );
    }

    /// Collects `endpoint`'s completions in error on `qp` as `(tick, error)`.
    fn errors_of(fab: &Fabric, qp: QpId, endpoint: NodeId) -> Rc<RefCell<Vec<(u64, WcError)>>> {
        let seen = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        fab.set_error_handler(
            qp,
            endpoint,
            Rc::new(move |sim: &mut Sim, _qp, err| s.borrow_mut().push((sim.now(), err))),
        );
        seen
    }

    #[test]
    fn write_to_region_on_wrong_node_completes_in_error() {
        let (mut sim, fab, a, _b, qp) = setup();
        let errors = errors_of(&fab, qp, a);
        // Region on the *initiator's* node: not the peer's to write.
        let (region, mem) = fab.alloc_region(a, 8);
        fab.post_write(&mut sim, qp, a, vec![1], region, 0, None);
        sim.run();
        assert_eq!(mem[0].load(Ordering::Relaxed), 0, "memory untouched");
        let prop = RDMA_PROP_NS;
        assert_eq!(*errors.borrow(), [(2 * prop, WcError::RegionNotOnPeer)]);
        assert_eq!(fab.stats().errors, 1);
        assert_eq!(fab.stats().writes, 0, "a refused WQE is not a write");
    }

    #[test]
    fn out_of_bounds_write_completes_in_error() {
        let (mut sim, fab, a, b, qp) = setup();
        let errors = errors_of(&fab, qp, a);
        let (region, mem) = fab.alloc_region(b, 4);
        fab.post_write(&mut sim, qp, a, vec![1, 2, 3, 4, 5], region, 0, None);
        sim.run();
        assert!(mem.iter().all(|w| w.load(Ordering::Relaxed) == 0));
        assert_eq!(errors.borrow().len(), 1);
        assert_eq!(errors.borrow()[0].1, WcError::OutOfBounds);
        assert_eq!(fab.node_stats(a).doorbells, 0, "no NIC time either");
    }

    #[test]
    fn post_on_a_torn_down_qp_is_flushed_in_error() {
        let (mut sim, fab, a, b, qp) = setup();
        let (region, mem) = fab.alloc_region(b, 4);
        // The peer tears the connection down under the poster's feet.
        fab.disconnect(qp);
        fab.post_write(&mut sim, qp, a, vec![7], region, 0, None);
        fab.post_send(&mut sim, qp, a, vec![1, 2, 3]);
        fab.post_read(
            &mut sim,
            qp,
            a,
            region,
            0,
            8,
            Box::new(|_, _| panic!("never completes")),
        );
        sim.run();
        assert_eq!(mem[0].load(Ordering::Relaxed), 0);
        assert_eq!(fab.stats().errors, 3, "one flush per WQE");
        let s = fab.stats();
        assert_eq!((s.writes, s.sends, s.reads), (0, 0, 0));
    }

    #[test]
    fn send_without_a_receiver_completes_in_error() {
        let (mut sim, fab, a, _b, qp) = setup();
        let errors = errors_of(&fab, qp, a);
        fab.post_send(&mut sim, qp, a, vec![9; 16]);
        sim.run();
        assert_eq!(errors.borrow().len(), 1);
        assert_eq!(errors.borrow()[0].1, WcError::NoReceiver);
        assert_eq!(fab.stats().sends, 0);
    }

    #[test]
    fn revoked_handle_bounces_at_the_post_and_in_flight() {
        let (mut sim, fab, a, b, qp) = setup();
        let errors = errors_of(&fab, qp, a);
        let (region, mem) = fab.alloc_region(b, 8);
        // In flight when the permission goes: paid for, refused on arrival.
        let delivered = Rc::new(Cell::new(false));
        let d = delivered.clone();
        fab.post_write(
            &mut sim,
            qp,
            a,
            vec![11],
            region,
            0,
            Some(Box::new(move |_| d.set(true))),
        );
        let fresh = fab.revoke_write(region);
        assert_ne!(fresh, region, "the new epoch has a handle of its own");
        // Posted after the revocation: refused outright, no NIC time.
        fab.post_write(&mut sim, qp, a, vec![22], region, 1, None);
        sim.run();
        assert!(!delivered.get(), "a bounced write has no delivery");
        assert!(mem.iter().all(|w| w.load(Ordering::Relaxed) == 0));
        let kinds: Vec<WcError> = errors.borrow().iter().map(|e| e.1).collect();
        assert_eq!(kinds, [WcError::PermissionRevoked; 2]);
        assert_eq!(fab.stats().writes, 1, "only the in-flight one was charged");
        // The new epoch's handle writes, and any handle still reads.
        fab.post_write(&mut sim, qp, a, vec![33], fresh, 2, None);
        let got = Rc::new(Cell::new(0u64));
        let g = got.clone();
        fab.post_read(
            &mut sim,
            qp,
            a,
            region,
            2,
            8,
            Box::new(move |_, blob| g.set(u64::from_le_bytes(blob.try_into().unwrap()))),
        );
        sim.run();
        assert_eq!(mem[2].load(Ordering::Relaxed), 33);
        assert_eq!(got.get(), 33);
        assert_eq!(errors.borrow().len(), 2);
    }

    #[test]
    fn deregistering_returns_the_entries_and_bounces_what_is_in_flight() {
        let (mut sim, fab, a, b, qp) = setup();
        let errors = errors_of(&fab, qp, a);
        let before = fab.mtt_registered(b);
        let (region, mem) = fab.alloc_region_paged(b, 2048, 4096);
        assert_eq!(fab.mtt_registered(b), before + 4);
        fab.post_write(&mut sim, qp, a, vec![7], region, 0, None);
        fab.deregister(region);
        assert_eq!(fab.mtt_registered(b), before);
        fab.post_write(&mut sim, qp, a, vec![8], region, 0, None);
        sim.run();
        assert!(mem.iter().all(|w| w.load(Ordering::Relaxed) == 0));
        let kinds: Vec<WcError> = errors.borrow().iter().map(|e| e.1).collect();
        assert_eq!(kinds, [WcError::OutOfBounds, WcError::PermissionRevoked]);
    }

    #[test]
    fn refusal_returning_to_a_recycled_qp_is_only_counted() {
        let (mut sim, fab, a, b, qp) = setup();
        let (region, _mem) = fab.alloc_region(b, 8);
        fab.post_write(&mut sim, qp, a, vec![5], region, 0, None);
        fab.revoke_write(region);
        // The connection goes, and another takes its slot, while the Write
        // is still in flight.
        fab.disconnect(qp);
        let _fresh = fab.connect(a, b, Transport::Rdma);
        sim.run();
        assert_eq!(fab.stats().errors, 1);
    }

    #[test]
    fn stats_accumulate() {
        let (mut sim, fab, a, b, qp) = setup();
        let (region, _mem) = fab.alloc_region(b, 64);
        fab.post_write(&mut sim, qp, a, vec![1, 2], region, 0, None);
        fab.post_read(&mut sim, qp, a, region, 0, 16, Box::new(|_, _| {}));
        sim.run();
        let s = fab.stats();
        assert_eq!(s.writes, 1);
        assert_eq!(s.reads, 1);
        assert_eq!(s.bytes, 32);
        assert_eq!(fab.node_stats(a).bytes_tx, 16);
        assert_eq!(fab.node_stats(a).bytes_rx, 16);
        // Sends both ways, then one completion in error: a region on the
        // initiator's own node is not the peer's to write.
        fab.set_recv_handler(qp, b, Rc::new(|_: &mut Sim, _, _| {}));
        fab.set_recv_handler(qp, a, Rc::new(|_: &mut Sim, _, _| {}));
        fab.post_send(&mut sim, qp, a, vec![7; 24]);
        fab.post_send(&mut sim, qp, b, vec![8; 8]);
        let (own, _own_mem) = fab.alloc_region(a, 8);
        fab.post_write(&mut sim, qp, a, vec![3], own, 0, None);
        sim.run();
        // The fabric-wide counters are the nodes' counters summed.
        let (na, nb) = (fab.node_stats(a), fab.node_stats(b));
        let s = fab.stats();
        assert_eq!(
            s,
            FabricStats {
                writes: na.writes + nb.writes,
                reads: na.reads + nb.reads,
                sends: na.sends + nb.sends,
                bytes: na.bytes_tx + nb.bytes_tx,
                doorbells: na.doorbells + nb.doorbells,
                errors: 1,
            }
        );
        assert_eq!((s.writes, s.reads, s.sends), (1, 1, 2));
        assert_eq!(s.bytes, 32 + 24 + 8);
        assert_eq!(s.doorbells, 4);
        assert_eq!(s.bytes, na.bytes_rx + nb.bytes_rx);
        assert_eq!(fab.qp_count(a), 1);
        fab.disconnect(qp);
        assert_eq!(fab.qp_count(a), 0);
    }

    #[test]
    fn doorbell_batched_writes_free_the_initiator_nic_earlier() {
        // Same 16 writes to node b, once as 16 doorbells and once as one WQE
        // chain. The per-write delivery times are receiver-DMA-bound either
        // way; the amortization shows up at the *initiator* — its TX engine
        // drains much earlier, so a subsequent probe write to a third node c
        // completes sooner after a batch.
        let run = |batched: bool| {
            let (mut sim, fab, a, b, qp) = setup();
            let c = fab.add_node();
            let qp_c = fab.connect(a, c, Transport::Rdma);
            let (region, _mem) = fab.alloc_region(b, 64);
            let (probe_region, _pm) = fab.alloc_region(c, 8);
            let last = Rc::new(Cell::new(0u64));
            if batched {
                let writes = (0..16u64).map(|i| {
                    let l = last.clone();
                    BatchWrite {
                        words: vec![i + 1],
                        dst_region: region,
                        dst_word_off: i as usize,
                        on_delivered: Some(Box::new(move |sim: &mut Sim| l.set(sim.now()))),
                    }
                });
                fab.post_write_batch(&mut sim, qp, a, writes);
            } else {
                for i in 0..16u64 {
                    let l = last.clone();
                    fab.post_write(
                        &mut sim,
                        qp,
                        a,
                        vec![i + 1],
                        region,
                        i as usize,
                        Some(Box::new(move |sim| l.set(sim.now()))),
                    );
                }
            }
            let probe_at = Rc::new(Cell::new(0u64));
            let p = probe_at.clone();
            fab.post_write(
                &mut sim,
                qp_c,
                a,
                vec![1],
                probe_region,
                0,
                Some(Box::new(move |sim| p.set(sim.now()))),
            );
            sim.run();
            (last.get(), probe_at.get(), fab.stats())
        };
        let (batch_done, batch_probe, batch_stats) = run(true);
        let (single_done, single_probe, single_stats) = run(false);
        assert!(
            batch_done <= single_done,
            "batching must never slow delivery"
        );
        assert!(
            batch_probe < single_probe,
            "probe after batch ({batch_probe}ns) must beat probe after 16 doorbells ({single_probe}ns)"
        );
        assert_eq!(batch_stats.writes, 17);
        assert_eq!(batch_stats.doorbells, 2); // one for the chain, one probe
        assert_eq!(single_stats.doorbells, 17);
        assert_eq!(batch_stats.bytes, single_stats.bytes);
    }

    #[test]
    fn batched_writes_land_in_order_with_correct_contents() {
        let (mut sim, fab, a, b, qp) = setup();
        let (region, mem) = fab.alloc_region(b, 64);
        let order = Rc::new(RefCell::new(Vec::new()));
        let writes = (0..5u64).map(|i| {
            let o = order.clone();
            BatchWrite {
                words: vec![100 + i],
                dst_region: region,
                dst_word_off: i as usize,
                on_delivered: Some(Box::new(move |_: &mut Sim| o.borrow_mut().push(i))),
            }
        });
        fab.post_write_batch(&mut sim, qp, a, writes);
        sim.run();
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3, 4]);
        for i in 0..5 {
            assert_eq!(mem[i].load(Ordering::Relaxed), 100 + i as u64);
        }
    }

    #[test]
    fn doorbell_batched_sends_deliver_all_payloads_in_order() {
        let (mut sim, fab, a, b, qp) = setup();
        let got = Rc::new(RefCell::new(Vec::new()));
        {
            let got = got.clone();
            fab.set_recv_handler(
                qp,
                b,
                Rc::new(move |sim: &mut Sim, _qp, payload: Vec<u8>| {
                    got.borrow_mut().push((sim.now(), payload));
                }),
            );
        }
        fab.post_send_batch(&mut sim, qp, a, (0..8u8).map(|i| vec![i; 4]));
        sim.run();
        let got = got.borrow();
        assert_eq!(got.len(), 8);
        for (i, (_, p)) in got.iter().enumerate() {
            assert_eq!(p, &vec![i as u8; 4]);
        }
        assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
        let s = fab.stats();
        assert_eq!(s.sends, 8);
        assert_eq!(s.doorbells, 1);
        // Sanity: delivery is no later than 8 individually-posted sends.
        let (mut sim2, fab2, a2, b2, qp2) = setup();
        let last2 = Rc::new(Cell::new(0u64));
        {
            let l = last2.clone();
            fab2.set_recv_handler(
                qp2,
                b2,
                Rc::new(move |sim: &mut Sim, _, _| l.set(sim.now())),
            );
        }
        for i in 0..8u8 {
            fab2.post_send(&mut sim2, qp2, a2, vec![i; 4]);
        }
        sim2.run();
        assert!(got.last().unwrap().0 <= last2.get());
    }

    #[test]
    fn drop_fault_swallows_exactly_n_messages() {
        let (mut sim, fab, a, b, qp) = setup();
        let (region, mem) = fab.alloc_region(b, 8);
        fab.set_pair_fault(a, b, LinkFault::drop_next(2));
        for i in 0..4u64 {
            fab.post_write(&mut sim, qp, a, vec![i + 1], region, i as usize, None);
        }
        sim.run();
        assert_eq!(mem[0].load(Ordering::Relaxed), 0, "first write dropped");
        assert_eq!(mem[1].load(Ordering::Relaxed), 0, "second write dropped");
        assert_eq!(mem[2].load(Ordering::Relaxed), 3);
        assert_eq!(mem[3].load(Ordering::Relaxed), 4);
        let fs = fab.fault_stats();
        assert_eq!(fs.dropped, 2);
        // Dropped writes never count as traffic.
        assert_eq!(fab.stats().writes, 2);
    }

    #[test]
    fn pair_fault_is_directional() {
        let (mut sim, fab, a, b, qp) = setup();
        fab.set_pair_fault(a, b, LinkFault::drop_next(u32::MAX));
        let (region_b, mem_b) = fab.alloc_region(b, 8);
        let (region_a, mem_a) = fab.alloc_region(a, 8);
        fab.post_write(&mut sim, qp, a, vec![7], region_b, 0, None);
        fab.post_write(&mut sim, qp, b, vec![9], region_a, 0, None);
        sim.run();
        assert_eq!(mem_b[0].load(Ordering::Relaxed), 0, "a->b dropped");
        assert_eq!(mem_a[0].load(Ordering::Relaxed), 9, "b->a unaffected");
    }

    #[test]
    fn partition_blocks_both_directions_until_healed() {
        let (mut sim, fab, a, b, qp) = setup();
        let (region, mem) = fab.alloc_region(b, 8);
        fab.block_pair(a, b);
        fab.post_write(&mut sim, qp, a, vec![1], region, 0, None);
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        fab.post_read(
            &mut sim,
            qp,
            a,
            region,
            0,
            8,
            Box::new(move |_, _| d.set(true)),
        );
        sim.run();
        assert_eq!(mem[0].load(Ordering::Relaxed), 0);
        assert!(!done.get(), "read across a cut must never complete");
        fab.heal();
        fab.post_write(&mut sim, qp, a, vec![2], region, 0, None);
        sim.run();
        assert_eq!(mem[0].load(Ordering::Relaxed), 2);
        assert_eq!(fab.fault_stats().dropped, 2);
    }

    #[test]
    fn crashed_node_drops_all_traffic_and_freezes_nics() {
        let (mut sim, fab, a, b, qp) = setup();
        let (region, mem) = fab.alloc_region(b, 8);
        fab.set_node_crashed(b, true);
        fab.freeze_node(b, sim.now());
        assert!(fab.is_node_crashed(b));
        fab.post_write(&mut sim, qp, a, vec![5], region, 0, None);
        fab.post_send(&mut sim, qp, a, vec![1, 2, 3]);
        sim.run();
        assert_eq!(mem[0].load(Ordering::Relaxed), 0);
        // Restart: traffic flows again.
        fab.set_node_crashed(b, false);
        fab.unfreeze_node(b, sim.now());
        fab.post_write(&mut sim, qp, a, vec![5], region, 0, None);
        sim.run();
        assert_eq!(mem[0].load(Ordering::Relaxed), 5);
    }

    #[test]
    fn delay_fault_defers_delivery_by_the_programmed_amount() {
        let deliver = |delay: SimTime| {
            let (mut sim, fab, a, b, qp) = setup();
            let (region, _mem) = fab.alloc_region(b, 8);
            if delay > 0 {
                fab.set_pair_fault(a, b, LinkFault::delay_next(1, delay));
            }
            let at = Rc::new(Cell::new(0u64));
            let t = at.clone();
            fab.post_write(
                &mut sim,
                qp,
                a,
                vec![1],
                region,
                0,
                Some(Box::new(move |sim| t.set(sim.now()))),
            );
            sim.run();
            at.get()
        };
        let base = deliver(0);
        let slowed = deliver(50 * US);
        assert_eq!(slowed, base + 50 * US);
    }

    #[test]
    fn duplicate_fault_redelivers_sends_and_write_payloads() {
        let (mut sim, fab, a, b, qp) = setup();
        let count = Rc::new(Cell::new(0u32));
        {
            let c = count.clone();
            fab.set_recv_handler(
                qp,
                b,
                Rc::new(move |_sim: &mut Sim, _, _| c.set(c.get() + 1)),
            );
        }
        fab.set_pair_fault(a, b, LinkFault::duplicate_next(1));
        fab.post_send(&mut sim, qp, a, vec![1]);
        fab.post_send(&mut sim, qp, a, vec![2]);
        sim.run();
        assert_eq!(count.get(), 3, "first send delivered twice, second once");
        assert_eq!(fab.fault_stats().duplicated, 1);
        // A duplicated write re-lands its payload after delivery: observable
        // by a poller that consumed (zeroed) the first copy.
        let (region, mem) = fab.alloc_region(b, 8);
        fab.set_pair_fault(a, b, LinkFault::duplicate_next(1));
        let m = mem.clone();
        fab.post_write(
            &mut sim,
            qp,
            a,
            vec![42],
            region,
            0,
            Some(Box::new(move |_| m[0].store(0, Ordering::Relaxed))),
        );
        sim.run();
        assert_eq!(
            mem[0].load(Ordering::Relaxed),
            42,
            "redelivered copy re-stored the payload after the consumer zeroed it"
        );
    }

    #[test]
    fn slow_node_stretches_service_times() {
        let rtt = |factor: f64| {
            let (mut sim, fab, a, b, qp) = setup();
            let (region, _mem) = fab.alloc_region(b, 16);
            fab.set_node_slow(b, factor);
            let done = Rc::new(Cell::new(0u64));
            let d = done.clone();
            fab.post_read(
                &mut sim,
                qp,
                a,
                region,
                0,
                64,
                Box::new(move |sim, _| d.set(sim.now())),
            );
            sim.run();
            done.get()
        };
        let healthy = rtt(1.0);
        let throttled = rtt(8.0);
        assert!(
            throttled > healthy + healthy / 2,
            "8x slowdown of the target must show up in the RTT: {healthy} vs {throttled}"
        );
    }

    #[test]
    fn batch_write_drop_swallows_one_wqe_from_the_middle() {
        let (mut sim, fab, a, b, qp) = setup();
        let (region, mem) = fab.alloc_region(b, 8);
        fab.post_write_batch(
            &mut sim,
            qp,
            a,
            (0..2u64).map(|i| BatchWrite {
                words: vec![i + 1],
                dst_region: region,
                dst_word_off: i as usize,
                on_delivered: None,
            }),
        );
        fab.set_pair_fault(a, b, LinkFault::drop_next(1));
        fab.post_write_batch(
            &mut sim,
            qp,
            a,
            (2..5u64).map(|i| BatchWrite {
                words: vec![i + 1],
                dst_region: region,
                dst_word_off: i as usize,
                on_delivered: None,
            }),
        );
        sim.run();
        assert_eq!(mem[0].load(Ordering::Relaxed), 1);
        assert_eq!(mem[1].load(Ordering::Relaxed), 2);
        assert_eq!(mem[2].load(Ordering::Relaxed), 0, "dropped mid-chain WQE");
        assert_eq!(mem[3].load(Ordering::Relaxed), 4);
        assert_eq!(mem[4].load(Ordering::Relaxed), 5);
    }

    #[test]
    fn probabilistic_drop_is_seed_deterministic() {
        let run = |seed: u64| {
            let mut sim = Sim::new(seed);
            let fab = Fabric::new(FabricConfig::default());
            let a = fab.add_node();
            let b = fab.add_node();
            let qp = fab.connect(a, b, Transport::Rdma);
            let (region, mem) = fab.alloc_region(b, 64);
            fab.set_pair_fault(
                a,
                b,
                LinkFault {
                    drop_prob: 0.5,
                    ..Default::default()
                },
            );
            for i in 0..32u64 {
                fab.post_write(&mut sim, qp, a, vec![1], region, i as usize, None);
            }
            sim.run();
            (0..32)
                .map(|i| mem[i].load(Ordering::Relaxed))
                .collect::<Vec<_>>()
        };
        let x = run(11);
        let y = run(11);
        let z = run(12);
        assert_eq!(x, y, "same seed, same losses");
        assert!(x.contains(&0) && x.contains(&1));
        assert_ne!(x, z, "different seed should lose different messages");
    }

    #[test]
    fn framed_message_over_fabric_write() {
        // End-to-end: a client frames a request with hydra-wire, writes it
        // into the server's request buffer, the server polls it at delivery
        // time.
        use hydra_wire::frame;
        let (mut sim, fab, a, b, qp) = setup();
        let (region, mem) = fab.alloc_region(b, 64);
        // Frame into a local staging buffer, then ship the words.
        let staging: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        let n = frame::write_message(&staging, b"GET user:42").unwrap();
        let words: Vec<u64> = staging[..n]
            .iter()
            .map(|w| w.load(Ordering::Relaxed))
            .collect();
        let polled = Rc::new(RefCell::new(None));
        {
            let polled = polled.clone();
            let mem = mem.clone();
            fab.post_write(
                &mut sim,
                qp,
                a,
                words,
                region,
                0,
                Some(Box::new(move |_| {
                    let msg = frame::poll_message(&mem).unwrap().expect("complete frame");
                    frame::consume_message(&mem, msg.len());
                    *polled.borrow_mut() = Some(msg);
                })),
            );
        }
        sim.run();
        assert_eq!(polled.borrow().as_deref(), Some(b"GET user:42".as_slice()));
    }

    #[test]
    fn lru_cache_golden_trace() {
        // Golden trace for the NIC cache replacement policy: capacity 3,
        // misses charged only when a fill evicts.
        let mut c = NicCache::new(3);
        assert!(!c.touch(1), "compulsory fill is free");
        assert!(!c.touch(2), "compulsory fill is free");
        assert!(!c.touch(3), "compulsory fill is free");
        assert_eq!(c.len(), 3);
        assert!(!c.touch(1), "hit");
        // LRU order now (MRU..LRU) = 1, 3, 2 -> filling 4 evicts 2.
        assert!(c.touch(4), "capacity miss evicts LRU");
        assert!(!c.touch(1), "1 stayed resident");
        assert!(!c.touch(3), "3 stayed resident");
        assert!(c.touch(2), "2 was the eviction victim");
        // 2's fill evicted 4 (LRU after the touches above).
        assert!(c.touch(4), "4 was evicted in turn");
        assert_eq!(c.len(), 3, "resident count pinned at capacity");
        // cap == 0 disables the model entirely.
        let mut off = NicCache::new(0);
        for k in 0..100 {
            assert!(!off.touch(k));
        }
    }

    #[test]
    fn qp_slot_churn_stays_bounded() {
        // Regression: connect used to always push a new slot and disconnect
        // never reclaimed it, so migration/reconnect cycles grew the QP
        // table forever.
        let (_sim, fab, a, b, qp0) = setup();
        fab.disconnect(qp0);
        let mut last = qp0;
        for _ in 0..1000 {
            let qp = fab.connect(a, b, Transport::Rdma);
            assert_eq!(qp.slot(), last.slot(), "free-list must recycle the slot");
            assert_ne!(qp, last, "recycled id must carry a new generation");
            fab.disconnect(qp);
            last = qp;
        }
        let inner = fab.inner.borrow();
        assert_eq!(inner.qps.len(), 1, "churn must not grow the table");
        assert_eq!(inner.free_qps.len(), 1);
        drop(inner);
        assert_eq!(fab.qp_count(a), 0);
        assert_eq!(fab.qp_count(b), 0);
    }

    #[test]
    #[should_panic(expected = "stale QpId")]
    fn stale_qp_id_is_rejected_after_recycle() {
        let (mut sim, fab, a, b, qp) = setup();
        fab.disconnect(qp);
        let _fresh = fab.connect(a, b, Transport::Rdma);
        // The old id aliases the recycled slot but its generation is stale.
        fab.post_send(&mut sim, qp, a, vec![1, 2, 3]);
    }

    #[test]
    fn qp_cache_thrash_adds_miss_surcharge() {
        // More active QPs than ICM cache lines: round-robin ops across them
        // must pay the PCIe fetch on (nearly) every touch, visible both in
        // the counters and in delivery latency.
        let cfg = FabricConfig {
            qp_cache_entries: 4,
            qp_threshold: 10_000, // isolate the cache cliff from the driver slope
            ..FabricConfig::default()
        };
        let sim = &mut Sim::new(7);
        let fab = Fabric::new(cfg.clone());
        let a = fab.add_node();
        let b = fab.add_node();
        let qps: Vec<QpId> = (0..8).map(|_| fab.connect(a, b, Transport::Rdma)).collect();
        let (region, _mem) = fab.alloc_region(b, 1024);
        for round in 0..4 {
            for (i, &qp) in qps.iter().enumerate() {
                fab.post_write(sim, qp, a, vec![round as u64], region, i, None);
            }
        }
        sim.run();
        let s = fab.node_stats(a);
        // Warm-up fills 4 lines for free; with 8 QPs round-robin over a
        // 4-line cache every subsequent touch evicts.
        assert!(
            s.qp_cache_misses >= 24,
            "expected heavy ICM thrash, got {} misses / {} hits",
            s.qp_cache_misses,
            s.qp_cache_hits
        );
        assert_eq!(
            s.miss_penalty_ns,
            (s.qp_cache_misses + s.mtt_cache_misses) * NIC_MISS_NS,
            "surcharge must equal misses x NIC_MISS_NS"
        );
        // A config with 8+ lines sees zero misses on the same trace.
        let roomy = FabricConfig {
            qp_cache_entries: 8,
            qp_threshold: 10_000,
            ..FabricConfig::default()
        };
        let sim2 = &mut Sim::new(7);
        let fab2 = Fabric::new(roomy);
        let a2 = fab2.add_node();
        let b2 = fab2.add_node();
        let qps2: Vec<QpId> = (0..8)
            .map(|_| fab2.connect(a2, b2, Transport::Rdma))
            .collect();
        let (region2, _mem2) = fab2.alloc_region(b2, 1024);
        for round in 0..4 {
            for (i, &qp) in qps2.iter().enumerate() {
                fab2.post_write(sim2, qp, a2, vec![round as u64], region2, i, None);
            }
        }
        sim2.run();
        assert_eq!(fab2.node_stats(a2).qp_cache_misses, 0);
        assert!(
            sim.now() > sim2.now(),
            "thrashed run must finish later: {} vs {}",
            sim.now(),
            sim2.now()
        );
    }

    #[test]
    fn huge_pages_collapse_mtt_footprint() {
        let fab = Fabric::new(FabricConfig::default());
        let n = fab.add_node();
        let words = 1 << 20; // 8 MiB region
        let (_r4k, _m1) = fab.alloc_region_paged(n, words, 4096);
        assert_eq!(fab.mtt_registered(n), 2048, "8 MiB / 4 KiB pages");
        let before = fab.mtt_registered(n);
        let (_r2m, _m2) = fab.alloc_region_paged(n, words, 2 << 20);
        assert_eq!(
            fab.mtt_registered(n) - before,
            4,
            "8 MiB / 2 MiB huge pages = 512x fewer entries"
        );
    }

    #[test]
    fn mtt_thrash_charges_translation_misses() {
        // A region larger than the translation cache, swept with 4 KiB
        // pages, must thrash; the same sweep with huge pages stays resident.
        let cfg = FabricConfig {
            mtt_cache_entries: 8,
            qp_threshold: 10_000,
            ..FabricConfig::default()
        };
        let sweep = |page_bytes: usize| -> (u64, u64) {
            let sim = &mut Sim::new(7);
            let fab = Fabric::new(cfg.clone());
            let a = fab.add_node();
            let b = fab.add_node();
            let qp = fab.connect(a, b, Transport::Rdma);
            // 16 pages of 4 KiB = 8192 words.
            let (region, _mem) = fab.alloc_region_paged(b, 8192, page_bytes);
            for round in 0..3 {
                for page in 0..16 {
                    fab.post_write(sim, qp, a, vec![round], region, page * 512, None);
                }
            }
            sim.run();
            let s = fab.node_stats(b);
            (s.mtt_cache_misses, s.mtt_cache_hits)
        };
        let (misses_4k, _) = sweep(4096);
        let (misses_huge, hits_huge) = sweep(2 << 20);
        assert!(
            misses_4k >= 32,
            "16-page sweep over an 8-line cache must thrash, got {misses_4k}"
        );
        assert_eq!(misses_huge, 0, "one huge page covers the whole region");
        assert!(hits_huge > 0);
    }

    #[test]
    fn srq_accounting_is_idempotent_and_bounded() {
        let fab = Fabric::new(FabricConfig::default());
        let n = fab.add_node();
        // Dedicated rings: each connection posts its own buffers.
        fab.provision_recvs(n, 16);
        fab.provision_recvs(n, 16);
        assert_eq!(fab.recv_posted(n), 32);
        // SRQ: first ensure posts the pool, later ensures are no-ops.
        fab.ensure_srq(n, 1024);
        fab.ensure_srq(n, 1024);
        fab.ensure_srq(n, 1024);
        assert_eq!(fab.recv_posted(n), 32 + 1024);
    }

    #[test]
    fn warm_cache_fills_are_free_at_small_scale() {
        // At a handful of connections the caches never evict, so the model
        // must not perturb the calibrated latency anchors at all.
        let (mut sim, fab, a, target, qp) = setup();
        let (region, _mem) = fab.alloc_region(target, 64);
        for i in 0..32 {
            fab.post_write(&mut sim, qp, a, vec![i], region, (i % 64) as usize, None);
        }
        sim.run();
        let s = fab.node_stats(a);
        let t = fab.node_stats(target);
        assert_eq!(s.qp_cache_misses, 0);
        assert_eq!(t.qp_cache_misses + t.mtt_cache_misses, 0);
        assert_eq!(s.miss_penalty_ns + t.miss_penalty_ns, 0);
        assert!(s.qp_cache_hits > 0, "warm touches still counted as hits");
    }
}

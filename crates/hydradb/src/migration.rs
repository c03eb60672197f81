//! Live migration: online shard join/drain under client traffic (§5.1).
//!
//! The paper's SWAT manager "notif\[ies\] certain shards to migrate data to
//! newly joined nodes"; this module is that control plane. A migration is a
//! per-source-shard state machine
//!
//! ```text
//! Snapshot → DoubleWrite → (flip) → Drain → Done
//! ```
//!
//! driven by a recurring tick:
//!
//! * **Snapshot** — the source lists its keys once, in key order, and walks
//!   the list in bounded quanta ([`ClusterConfig::migration_quantum_items`]
//!   keys per `TICK_NS`), streaming every key still present whose hash
//!   routes elsewhere under the *target* ring to its new owner over a
//!   dedicated RDMA channel. Quanta ride the throughput lane of the dual-lane
//!   scheduler, so point-op tail latency stays isolated. From the plan's
//!   start, every write the source applies to a moving key — update, insert
//!   or delete — is also forwarded to the new owner through the channel.
//!   Walk shipments and forwards leave on that one channel in the order the
//!   source's engine took them, and its deliveries are FIFO, so the
//!   destination ends with the source's last value; a key inserted after the
//!   listing reaches it by its forward.
//! * **DoubleWrite** — the walk is over; forwarding goes on.
//! * **Flip** — once every source is in DoubleWrite and every channel is
//!   quiescent (shipped == applied), one tick event atomically swaps the
//!   directory ring for the target ring, bumps the generation, publishes the
//!   epoch (`Cluster::migration_epoch`), and exposes the new owners.
//!   Because the swap happens inside a single event with no record in
//!   flight, no read can observe a pre-flip value after the flip:
//!   the handoff is linearizable.
//! * **Drain** — the old owners walk a fresh listing (same quanta) and
//!   delete the keys they shed, replicating the deletes to their own
//!   secondaries. Old owners answer any straggler request for a moved key
//!   with a wire-level `WrongOwner{generation}` redirect (see
//!   `MigrationState::wrong_owner`); clients drop the stale remote pointer
//!   and re-route through the already-updated shared directory.
//!
//! A node **join** creates the new partitions through the builder's own
//! `HaState::spawn_group` (replicas, replication channels and coordination
//! sessions included) but keeps them out of the live ring and directory
//! until the flip. A node **drain** is the inverse: the
//! departing node's partitions stream everything to the surviving owners and
//! leave the ring at the flip, remaining alive-but-empty so in-flight
//! requests still get redirects.
//!
//! If a participating primary dies before the flip, the plan **aborts**: the
//! join's half-built partitions are torn down; a drain revokes its channels'
//! landing buffers, so nothing still in flight lands, and each live
//! destination — or, for one that died, the secondary promoted in its place
//! — runs the Drain walk to drop every key the live ring routes elsewhere,
//! and the plan settles only once all of them have. The pre-flip owners
//! keep serving — no key is lost or duplicated either way.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use hydra_fabric::{Fabric, NodeId, QpId, RegionId, Transport};
use hydra_sim::time::SimTime;
use hydra_sim::Sim;
use hydra_store::{ItemRef, ShardEngine};
use hydra_wire::LogOp;

use crate::cluster::{Directory, HaState};
use crate::config::ClusterConfig;
use crate::costs;
use crate::ring::{HashRing, ShardId};
use crate::server::ShardServer;

/// Pacing interval between successive migration quanta of one
/// source-partition job (the migration rate is roughly
/// `migration_quantum_items / TICK_NS`).
const TICK_NS: SimTime = 100_000;

/// Ticks without any shipped/applied/phase progress before an un-flipped
/// plan gives up (a crashed participant whose failure the liveness check
/// cannot see — e.g. dropped migration records — must not hang the sim).
const STALL_TICK_LIMIT: u64 = 10_000;

/// Smallest staging buffer registered (one default 4 KiB translation page).
const STAGING_MIN_WORDS: usize = 512;

/// The landing buffer bulk transfers to one machine are written into —
/// migration shipments, a restarted replica's snapshot. Registered at the
/// cluster's page size, and re-registered only when a transfer outgrows it:
/// whole pages, doubling, so a stream of small transfers settles on one
/// registration. (An outgrown buffer stays registered, since a transfer may
/// still be in flight to it; doubling bounds the lot at twice the largest.
/// A region per transfer would grow the machine's MTT footprint without
/// limit.)
pub(crate) struct Staging {
    node: NodeId,
    page_bytes: usize,
    /// Every buffer registered, with the words it holds; the current one
    /// last.
    regions: RefCell<Vec<(RegionId, usize)>>,
}

impl Staging {
    pub(crate) fn new(node: NodeId, page_bytes: usize) -> Staging {
        Staging {
            node,
            page_bytes,
            regions: RefCell::new(Vec::new()),
        }
    }

    /// The buffer, grown to hold `words`.
    pub(crate) fn region_for(&self, fab: &Fabric, words: usize) -> RegionId {
        let mut regions = self.regions.borrow_mut();
        match regions.last() {
            Some(&(region, cap)) if cap >= words => region,
            _ => {
                let cap = words.next_power_of_two().max(STAGING_MIN_WORDS);
                let (region, _mem) = fab.alloc_region_paged(self.node, cap, self.page_bytes);
                regions.push((region, cap));
                region
            }
        }
    }

    /// Revokes write permission on every buffer: a transfer still in flight
    /// lands nowhere and delivers nothing.
    fn revoke(&self, fab: &Fabric) {
        for &(region, _) in self.regions.borrow().iter() {
            fab.revoke_write(region);
        }
    }
}

/// One migration record: operation, key, value.
pub(crate) type MigRecord = (LogOp, Vec<u8>, Vec<u8>);
/// Records grouped by destination partition.
pub(crate) type RecordsByDst = BTreeMap<u32, Vec<MigRecord>>;
/// Grouped records resolved to their channels, ready to ship.
pub(crate) type ChannelShipments = Vec<(MigrationChannel, Vec<MigRecord>)>;
/// A shard picked up by the tick for its next walk quantum.
type QuantumDispatch = (Rc<RefCell<ShardServer>>, Rc<RefCell<MigrationState>>);

/// Where a shard stands in the migration state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum MigrationPhase {
    /// Source: walking its key list to the new owners, forwarding every
    /// moving write.
    Snapshot,
    /// Source: walk done, forwarding every moving write (pre-flip).
    DoubleWrite,
    /// Source: post-flip, deleting the shed ranges locally. Destination of
    /// an aborted drain: deleting the partial copies it holds.
    Drain,
    /// Destination: applying inbound migration records.
    Receive,
    /// Finished its role in a completed migration.
    Done,
    /// The plan was aborted before the flip.
    Aborted,
}

impl MigrationPhase {
    /// Short operator-facing label (used by the cluster report).
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            MigrationPhase::Snapshot => "snapshot",
            MigrationPhase::DoubleWrite => "dblwrite",
            MigrationPhase::Drain => "drain",
            MigrationPhase::Receive => "receive",
            MigrationPhase::Done => "done",
            MigrationPhase::Aborted => "aborted",
        }
    }
}

impl std::fmt::Display for MigrationPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One source → destination record stream: a dedicated QP whose deliveries
/// are FIFO, with shipped/applied counters for the quiescence check.
#[derive(Clone)]
pub(crate) struct MigrationChannel {
    fab: Fabric,
    qp: QpId,
    src_node: NodeId,
    dst: Rc<RefCell<ShardServer>>,
    /// The destination-side landing buffer shipments are written into.
    staging: Rc<Staging>,
    shipped: Rc<Cell<u64>>,
    applied: Rc<Cell<u64>>,
}

impl MigrationChannel {
    fn new(fab: &Fabric, src_node: NodeId, dst: &Rc<RefCell<ShardServer>>) -> MigrationChannel {
        let (dst_node, page_bytes) = {
            let dst = dst.borrow();
            (dst.node, dst.cfg.page_bytes)
        };
        MigrationChannel {
            fab: fab.clone(),
            qp: fab.connect(src_node, dst_node, Transport::Rdma),
            src_node,
            dst: dst.clone(),
            staging: Rc::new(Staging::new(dst_node, page_bytes)),
            shipped: Rc::new(Cell::new(0)),
            applied: Rc::new(Cell::new(0)),
        }
    }

    /// Every shipped record has been applied at the destination.
    fn quiescent(&self) -> bool {
        self.shipped.get() == self.applied.get()
    }

    /// Streams `records` to the destination as one RDMA write sized for the
    /// payload; on delivery they are applied through the destination's core
    /// (merge semantics: Put upserts, Delete ignores absent keys) and
    /// replicated to the destination's own secondaries.
    pub(crate) fn ship(&self, sim: &mut Sim, records: Vec<(LogOp, Vec<u8>, Vec<u8>)>) {
        if records.is_empty() {
            return;
        }
        let n = records.len() as u64;
        self.shipped.set(self.shipped.get() + n);
        let bytes: usize = records.iter().map(|(_, k, v)| k.len() + v.len() + 16).sum();
        let words = bytes.div_ceil(8).max(1);
        let region = self.staging.region_for(&self.fab, words);
        let dst = self.dst.clone();
        let applied = self.applied.clone();
        self.fab.post_write(
            sim,
            self.qp,
            self.src_node,
            vec![0u64; words],
            region,
            0,
            Some(Box::new(move |sim| {
                ShardServer::apply_migration_records(
                    &dst,
                    sim,
                    records,
                    Box::new(move |_sim| {
                        applied.set(applied.get() + n);
                    }),
                );
            })),
        );
    }

    /// Closes the stream, revoking the destination's landing buffers first
    /// so no shipment still in flight is applied.
    fn close(&self) {
        self.staging.revoke(&self.fab);
        self.fab.disconnect(self.qp);
    }
}

/// Per-shard migration bookkeeping, installed on every participating
/// [`ShardServer`] (sources and destinations) for the duration of the plan
/// and kept installed afterwards: the ownership gate it provides is
/// self-deactivating (it consults the live ring), and survives fail-over
/// because promotion carries it to the new primary.
pub(crate) struct MigrationState {
    pub(crate) self_shard: ShardId,
    pub(crate) directory: Rc<RefCell<Directory>>,
    /// The ring the cluster converges to (becomes live at the flip).
    target_ring: Rc<HashRing>,
    pub(crate) phase: MigrationPhase,
    /// Record streams to each destination partition this source feeds.
    channels: BTreeMap<u32, MigrationChannel>,
    /// The keys the current walk has still to visit, in descending key
    /// order (a quantum pops from the back); `None` until the walk's first
    /// quantum lists them.
    walk: Option<Vec<Vec<u8>>>,
    /// A quantum of the walk is queued or running on the shard's core.
    queued: bool,
    pub(crate) moved_keys: u64,
    pub(crate) moved_bytes: u64,
    pub(crate) forwarded: u64,
    pub(crate) drained_keys: u64,
}

impl MigrationState {
    fn new(
        self_shard: ShardId,
        directory: Rc<RefCell<Directory>>,
        target_ring: Rc<HashRing>,
        phase: MigrationPhase,
    ) -> Rc<RefCell<MigrationState>> {
        Rc::new(RefCell::new(MigrationState {
            self_shard,
            directory,
            target_ring,
            phase,
            channels: BTreeMap::new(),
            walk: None,
            queued: false,
            moved_keys: 0,
            moved_bytes: 0,
            forwarded: 0,
            drained_keys: 0,
        }))
    }

    /// The redirect gate: `Some(generation)` when the *live* ring no longer
    /// routes `key` here. Self-activating at the flip (the directory swap is
    /// atomic) and phase-independent, so even an aborted participant answers
    /// correctly.
    pub(crate) fn wrong_owner(&self, key: &[u8]) -> Option<u64> {
        let dir = self.directory.borrow();
        if dir.ring.route(key) == Some(self.self_shard) {
            None
        } else {
            Some(dir.generation)
        }
    }

    /// Whether the live ring routes `key` to this shard (scan filtering:
    /// moved-in copies stay invisible until the flip, moved-out copies
    /// become invisible at it).
    pub(crate) fn owns(&self, key: &[u8]) -> bool {
        self.directory.borrow().ring.route(key) == Some(self.self_shard)
    }

    /// The destination partition `key` moves to under the target ring, if
    /// it leaves this shard.
    fn moving_dst(&self, key: &[u8]) -> Option<u32> {
        match self.target_ring.route(key) {
            Some(s) if s != self.self_shard => Some(s.0),
            _ => None,
        }
    }

    /// Hook invoked by the server for every *successful* local write:
    /// before the flip, the destination a moving key's write is forwarded
    /// to.
    pub(crate) fn on_local_write(&mut self, key: &[u8]) -> Option<u32> {
        if !matches!(
            self.phase,
            MigrationPhase::Snapshot | MigrationPhase::DoubleWrite
        ) {
            return None;
        }
        let dst = self.moving_dst(key);
        if dst.is_some() {
            self.forwarded += 1;
        }
        dst
    }

    /// The record stream toward destination partition `dst`.
    pub(crate) fn channel(&self, dst: u32) -> Option<MigrationChannel> {
        self.channels.get(&dst).cloned()
    }
}

/// Final disposition of a migration plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MigrationOutcome {
    /// Still running.
    InFlight,
    /// Flipped and fully drained.
    Completed,
    /// Torn down before the flip (participant death or stall).
    Aborted,
}

enum PlanKind {
    Join { new_parts: Vec<u32> },
    Drain { departing: Vec<u32> },
}

/// The two rings a plan moves between: the live directory and the ring it
/// converges to. Enlists shards into the plan.
struct PlanRings {
    directory: Rc<RefCell<Directory>>,
    target: Rc<HashRing>,
}

impl PlanRings {
    /// Installs fresh migration bookkeeping on partition `p`'s primary.
    fn enlist(&self, ha: &HaState, p: u32, phase: MigrationPhase) -> Rc<RefCell<MigrationState>> {
        let state = MigrationState::new(
            ShardId(p),
            self.directory.clone(),
            self.target.clone(),
            phase,
        );
        ha.partitions[p as usize].primary.borrow_mut().mig = Some(state.clone());
        state
    }

    /// Makes partition `dst` a destination: Receive-phase bookkeeping.
    fn dst_job(&self, ha: &HaState, dst: u32) -> Job {
        Job {
            partition: dst,
            state: self.enlist(ha, dst, MigrationPhase::Receive),
        }
    }

    /// Makes partition `src` a source: Snapshot-phase bookkeeping with one
    /// record stream to each destination partition.
    fn source_job(&self, fab: &Fabric, ha: &HaState, src: u32, dsts: &[u32]) -> Job {
        let state = self.enlist(ha, src, MigrationPhase::Snapshot);
        let src_node = ha.partitions[src as usize].primary.borrow().node;
        for &d in dsts {
            let dst = &ha.partitions[d as usize].primary;
            let channel = MigrationChannel::new(fab, src_node, dst);
            state.borrow_mut().channels.insert(d, channel);
        }
        Job {
            partition: src,
            state,
        }
    }
}

/// One partition's part in a plan.
struct Job {
    partition: u32,
    state: Rc<RefCell<MigrationState>>,
}

struct PlanInner {
    kind: PlanKind,
    /// The sources.
    jobs: Vec<Job>,
    /// The destinations.
    dsts: Vec<Job>,
    flipped: bool,
    /// Aborted before the flip; the destinations are dropping their partial
    /// copies, and the plan settles once they all have.
    aborting: bool,
    outcome: MigrationOutcome,
    /// Progress fingerprint + age for the stall guard.
    last_progress: (u64, u64, u64),
    stall_ticks: u64,
}

impl PlanInner {
    fn progress_fingerprint(&self) -> (u64, u64, u64) {
        let mut shipped = 0;
        let mut applied = 0;
        let mut phases = 0u64;
        for job in self.jobs.iter().chain(&self.dsts) {
            let st = job.state.borrow();
            for ch in st.channels.values() {
                shipped += ch.shipped.get();
                applied += ch.applied.get();
            }
            phases = phases
                .wrapping_mul(31)
                .wrapping_add(st.phase as u64)
                .wrapping_add(st.moved_keys + st.drained_keys)
                .wrapping_add(st.walk.as_ref().map_or(0, |w| w.len() as u64));
        }
        (shipped, applied, phases)
    }
}

/// Clonable observer handle for one migration plan.
#[derive(Clone)]
pub struct MigrationHandle {
    plan: Rc<RefCell<PlanInner>>,
}

impl MigrationHandle {
    /// Current disposition.
    pub fn outcome(&self) -> MigrationOutcome {
        self.plan.borrow().outcome
    }

    /// Whether the plan reached a terminal state.
    pub fn is_settled(&self) -> bool {
        self.plan.borrow().outcome != MigrationOutcome::InFlight
    }

    /// Whether ownership has flipped to the target ring.
    pub fn flipped(&self) -> bool {
        self.plan.borrow().flipped
    }

    /// Partitions a join created (empty for a drain).
    pub(crate) fn new_partitions(&self) -> Vec<u32> {
        match &self.plan.borrow().kind {
            PlanKind::Join { new_parts } => new_parts.clone(),
            PlanKind::Drain { .. } => Vec::new(),
        }
    }

    /// Partitions a drain retires (empty for a join).
    pub fn departing_partitions(&self) -> Vec<u32> {
        match &self.plan.borrow().kind {
            PlanKind::Drain { departing } => departing.clone(),
            PlanKind::Join { .. } => Vec::new(),
        }
    }

    /// Keys streamed by the snapshot walks across all sources.
    pub fn moved_keys(&self) -> u64 {
        self.plan
            .borrow()
            .jobs
            .iter()
            .map(|j| j.state.borrow().moved_keys)
            .sum()
    }

    /// Payload bytes streamed across all sources.
    pub fn moved_bytes(&self) -> u64 {
        self.plan
            .borrow()
            .jobs
            .iter()
            .map(|j| j.state.borrow().moved_bytes)
            .sum()
    }

    /// Writes forwarded to new owners across all sources.
    pub fn forwarded(&self) -> u64 {
        self.plan
            .borrow()
            .jobs
            .iter()
            .map(|j| j.state.borrow().forwarded)
            .sum()
    }
}

struct EngineInner {
    fab: Fabric,
    cfg: Rc<ClusterConfig>,
    ha: Rc<RefCell<HaState>>,
    directory: Rc<RefCell<Directory>>,
    active: Option<(Rc<RefCell<PlanInner>>, MigrationHandle)>,
    completed: u64,
    aborted: u64,
}

/// The migration orchestrator: owns the active plan and drives it with a
/// recurring tick. One plan runs at a time.
#[derive(Clone)]
pub struct MigrationEngine {
    inner: Rc<RefCell<EngineInner>>,
}

impl MigrationEngine {
    pub(crate) fn new(
        fab: Fabric,
        cfg: Rc<ClusterConfig>,
        ha: Rc<RefCell<HaState>>,
        directory: Rc<RefCell<Directory>>,
    ) -> MigrationEngine {
        MigrationEngine {
            inner: Rc::new(RefCell::new(EngineInner {
                fab,
                cfg,
                ha,
                directory,
                active: None,
                completed: 0,
                aborted: 0,
            })),
        }
    }

    /// Plans completed so far.
    pub fn completed(&self) -> u64 {
        self.inner.borrow().completed
    }

    /// Plans aborted so far.
    pub fn aborted(&self) -> u64 {
        self.inner.borrow().aborted
    }

    /// Handle to the most recent plan, if any.
    pub fn active(&self) -> Option<MigrationHandle> {
        self.inner.borrow().active.as_ref().map(|(_, h)| h.clone())
    }

    fn assert_settled(inner: &EngineInner) {
        assert!(
            inner
                .active
                .as_ref()
                .is_none_or(|(p, _)| p.borrow().outcome != MigrationOutcome::InFlight),
            "one migration at a time: the previous plan has not settled"
        );
    }

    /// Starts a node-join plan: a new machine comes up on the fabric and
    /// joins the server list, `new_shards` fresh partitions spawned on it by
    /// the builder's group assembler, every live shard streaming its moving
    /// ranges toward them. The new partitions join the directory only at
    /// the flip.
    pub(crate) fn start_join(&self, sim: &mut Sim, new_shards: u32) -> MigrationHandle {
        assert!(new_shards > 0);
        let (fab, ha_rc, directory) = {
            let inner = self.inner.borrow();
            Self::assert_settled(&inner);
            (inner.fab.clone(), inner.ha.clone(), inner.directory.clone())
        };
        let mut ha = ha_rc.borrow_mut();
        let home = ha.server_nodes.len();
        ha.server_nodes.push(fab.add_node());

        // Spawn the new groups through the builder's own assembler — their
        // replicas land on the *existing* machines, so a joiner crash never
        // strands the only copy of migrated data — but keep them out of the
        // live ring and directory until the flip.
        let new_parts: Vec<u32> = (0..new_shards)
            .map(|_| ha.spawn_group(home, sim.now()))
            .collect();

        // Target ring: live ring plus the joiners (monotone consistent
        // hashing: only ranges moving *to* them change owners).
        let mut tring = directory.borrow().ring.clone();
        for &p in &new_parts {
            tring.add_shard(ShardId(p));
        }
        let plan = PlanRings {
            directory,
            target: Rc::new(tring),
        };
        let dsts = new_parts.iter().map(|&p| plan.dst_job(&ha, p)).collect();

        // Every live shard is a source (consistent hashing moves a slice of
        // each one's range to the joiners).
        let live: Vec<u32> = plan.directory.borrow().ring.shards().map(|s| s.0).collect();
        let jobs = live
            .iter()
            .map(|&src| plan.source_job(&fab, &ha, src, &new_parts))
            .collect();
        drop(ha);
        self.install_plan(sim, PlanKind::Join { new_parts }, jobs, dsts)
    }

    /// Starts a node-drain plan: every live partition homed on `node`
    /// streams its whole range to the surviving owners (per the target ring
    /// without it) and leaves the directory at the flip.
    pub(crate) fn start_drain(&self, sim: &mut Sim, node: NodeId) -> MigrationHandle {
        let (fab, ha_rc, directory) = {
            let inner = self.inner.borrow();
            Self::assert_settled(&inner);
            (inner.fab.clone(), inner.ha.clone(), inner.directory.clone())
        };
        let ha = ha_rc.borrow();
        let live: Vec<u32> = directory.borrow().ring.shards().map(|s| s.0).collect();
        let departing: Vec<u32> = live
            .iter()
            .copied()
            .filter(|&p| ha.partitions[p as usize].primary.borrow().node == node)
            .collect();
        let remaining: Vec<u32> = live
            .iter()
            .copied()
            .filter(|p| !departing.contains(p))
            .collect();
        assert!(
            !departing.is_empty(),
            "drained node {node:?} hosts no live partition"
        );
        assert!(!remaining.is_empty(), "cannot drain the last server node");

        let mut tring = directory.borrow().ring.clone();
        for &p in &departing {
            tring.remove_shard(ShardId(p));
        }
        let plan = PlanRings {
            directory,
            target: Rc::new(tring),
        };

        // Survivors are destinations: install Receive-side bookkeeping
        // (their live serving is untouched — the ownership gate passes every
        // key they already own).
        let dsts = remaining.iter().map(|&p| plan.dst_job(&ha, p)).collect();
        let jobs = departing
            .iter()
            .map(|&src| plan.source_job(&fab, &ha, src, &remaining))
            .collect();
        drop(ha);
        self.install_plan(sim, PlanKind::Drain { departing }, jobs, dsts)
    }

    fn install_plan(
        &self,
        sim: &mut Sim,
        kind: PlanKind,
        jobs: Vec<Job>,
        dsts: Vec<Job>,
    ) -> MigrationHandle {
        let plan = Rc::new(RefCell::new(PlanInner {
            kind,
            jobs,
            dsts,
            flipped: false,
            aborting: false,
            outcome: MigrationOutcome::InFlight,
            last_progress: (u64::MAX, u64::MAX, u64::MAX),
            stall_ticks: 0,
        }));
        let handle = MigrationHandle { plan: plan.clone() };
        self.inner.borrow_mut().active = Some((plan, handle.clone()));
        self.schedule_tick(sim);
        handle
    }

    fn schedule_tick(&self, sim: &mut Sim) {
        let me = self.clone();
        sim.schedule_in(TICK_NS, move |sim| {
            if me.tick(sim) {
                me.schedule_tick(sim);
            }
        });
    }

    /// One orchestration step. Returns whether the tick should re-arm.
    fn tick(&self, sim: &mut Sim) -> bool {
        let (plan, ha_rc, cfg) = {
            let inner = self.inner.borrow();
            match &inner.active {
                Some((p, _)) if p.borrow().outcome == MigrationOutcome::InFlight => {
                    (p.clone(), inner.ha.clone(), inner.cfg.clone())
                }
                _ => return false,
            }
        };

        // 1. Liveness: before the flip any dead participant aborts the plan;
        //    after it a dead source simply cannot drain (its copies die with
        //    it and are invisible to the post-flip directory). A destination
        //    that dies while an aborted drain cleans up loses the quantum
        //    queued on it; its walk continues on whichever shard serves the
        //    partition next (see `on_promotion`).
        let (flipped, aborting) = {
            let p = plan.borrow();
            (p.flipped, p.aborting)
        };
        {
            let ha = ha_rc.borrow();
            let p = plan.borrow();
            let dead = |part: u32| !ha.partitions[part as usize].primary.borrow().alive;
            if aborting {
                for job in p.dsts.iter().filter(|j| dead(j.partition)) {
                    job.state.borrow_mut().queued = false;
                }
            } else if flipped {
                for job in p.jobs.iter().filter(|j| dead(j.partition)) {
                    let mut st = job.state.borrow_mut();
                    if st.phase == MigrationPhase::Drain {
                        st.phase = MigrationPhase::Done;
                    }
                }
            } else if p.jobs.iter().chain(&p.dsts).any(|j| dead(j.partition)) {
                drop(p);
                drop(ha);
                self.abort(&plan);
                return plan.borrow().outcome == MigrationOutcome::InFlight;
            }
        }

        // 2. Stall guard: no counter movement for too long means records
        //    are being dropped on the floor — tear down rather than hang. An
        //    aborted drain whose destination stays down that long settles
        //    without it.
        {
            let mut p = plan.borrow_mut();
            let fp = p.progress_fingerprint();
            if fp == p.last_progress {
                p.stall_ticks += 1;
            } else {
                p.last_progress = fp;
                p.stall_ticks = 0;
            }
            if !flipped && p.stall_ticks > STALL_TICK_LIMIT {
                drop(p);
                if aborting {
                    self.settle(&plan, MigrationOutcome::Aborted);
                } else {
                    self.abort(&plan);
                }
                return plan.borrow().outcome == MigrationOutcome::InFlight;
            }
        }

        // 3. Dispatch one bounded quantum per walking shard that is between
        //    quanta: a source in Snapshot or Drain, or an aborted drain's
        //    destination in Drain.
        let quantum = cfg.migration_quantum_items.max(1);
        let dispatches: Vec<QuantumDispatch> = {
            let ha = ha_rc.borrow();
            let p = plan.borrow();
            p.jobs
                .iter()
                .chain(&p.dsts)
                .filter(|j| {
                    let st = j.state.borrow();
                    !st.queued
                        && matches!(st.phase, MigrationPhase::Snapshot | MigrationPhase::Drain)
                })
                .filter_map(|j| {
                    let server = ha.partitions[j.partition as usize].primary.clone();
                    let alive = server.borrow().alive;
                    alive.then(|| (server, j.state.clone()))
                })
                .collect()
        };
        for (server, state) in dispatches {
            state.borrow_mut().queued = true;
            ShardServer::run_on_core(
                &server,
                sim,
                walk_ns(quantum),
                Box::new(move |this, sim| {
                    let phase = {
                        let mut st = state.borrow_mut();
                        st.queued = false;
                        st.phase
                    };
                    match phase {
                        MigrationPhase::Snapshot => snapshot_quantum(this, sim, &state, quantum),
                        MigrationPhase::Drain if drain_quantum(this, sim, &state, quantum) => {
                            state.borrow_mut().phase = MigrationPhase::Done;
                        }
                        _ => {}
                    }
                }),
            );
        }

        // 4. Flip: all sources double-writing and every channel quiescent.
        //    The check and the swap share this event, so no record is in
        //    flight when ownership changes hands.
        if !flipped {
            let ready = {
                let p = plan.borrow();
                p.jobs.iter().all(|j| {
                    let st = j.state.borrow();
                    st.phase == MigrationPhase::DoubleWrite
                        && st.channels.values().all(|ch| ch.quiescent())
                })
            };
            if ready {
                self.do_flip(&plan);
            }
        }

        // 5. Settle: flipped and every source fully drained, or aborted and
        //    every destination cleaned up.
        let settled = {
            let p = plan.borrow();
            let done = |jobs: &[Job]| {
                jobs.iter()
                    .all(|j| j.state.borrow().phase == MigrationPhase::Done)
            };
            if p.aborting && done(&p.dsts) {
                Some(MigrationOutcome::Aborted)
            } else if p.flipped && done(&p.jobs) {
                Some(MigrationOutcome::Completed)
            } else {
                None
            }
        };
        if let Some(outcome) = settled {
            self.settle(&plan, outcome);
            return false;
        }
        true
    }

    /// Atomically swaps ownership to the target ring: new directory ring +
    /// generation, joiners enter / departers leave the shard map, the epoch
    /// is published to the coordination state, and sources move to Drain.
    fn do_flip(&self, plan: &Rc<RefCell<PlanInner>>) {
        let (ha_rc, directory) = {
            let inner = self.inner.borrow();
            (inner.ha.clone(), inner.directory.clone())
        };
        let mut p = plan.borrow_mut();
        let target = p.jobs[0].state.borrow().target_ring.clone();
        {
            let mut dir = directory.borrow_mut();
            dir.ring = (*target).clone();
            dir.generation += 1;
            let mut ha = ha_rc.borrow_mut();
            match &p.kind {
                PlanKind::Join { new_parts } => {
                    for &np in new_parts {
                        let primary = ha.partitions[np as usize].primary.clone();
                        dir.shards.insert(np, primary);
                    }
                }
                PlanKind::Drain { departing } => {
                    for dp in departing {
                        dir.shards.remove(dp);
                    }
                }
            }
            ha.migration_epoch = dir.generation;
        }
        p.flipped = true;
        for job in &p.jobs {
            job.state.borrow_mut().phase = MigrationPhase::Drain;
        }
    }

    /// Terminal state. The channels close, and every destination settles
    /// too: into Done after the flip, into Aborted otherwise unless it has
    /// finished cleaning up.
    fn settle(&self, plan: &Rc<RefCell<PlanInner>>, outcome: MigrationOutcome) {
        let mut p = plan.borrow_mut();
        for job in &p.jobs {
            let mut st = job.state.borrow_mut();
            for ch in st.channels.values() {
                ch.close();
            }
            st.channels.clear();
        }
        let dst_phase = match outcome {
            MigrationOutcome::Completed => MigrationPhase::Done,
            _ => MigrationPhase::Aborted,
        };
        for job in &p.dsts {
            let mut st = job.state.borrow_mut();
            if st.phase != MigrationPhase::Done {
                st.phase = dst_phase;
            }
        }
        p.outcome = outcome;
        let mut inner = self.inner.borrow_mut();
        match outcome {
            MigrationOutcome::Completed => inner.completed += 1,
            _ => inner.aborted += 1,
        }
    }

    /// Pre-flip teardown. Every channel closes at once, so nothing still in
    /// flight lands. A join's half-built partitions die whole (primary and
    /// replicas), so a later promotion can never resurrect partial migrated
    /// data, and the plan settles. A drain's destinations move to Drain: the
    /// tick walks each on its core — behind any batch already queued there —
    /// dropping every key the live ring routes elsewhere, and the plan
    /// settles once all of them have. Either way the pre-flip owners still
    /// hold everything: no key is lost and none is duplicated.
    fn abort(&self, plan: &Rc<RefCell<PlanInner>>) {
        let (ha_rc, directory) = {
            let inner = self.inner.borrow();
            (inner.ha.clone(), inner.directory.clone())
        };
        let mut guard = plan.borrow_mut();
        let p = &mut *guard;
        for job in &p.jobs {
            let mut st = job.state.borrow_mut();
            st.phase = MigrationPhase::Aborted;
            for ch in st.channels.values() {
                ch.close();
            }
            st.channels.clear();
        }
        match &p.kind {
            PlanKind::Join { new_parts } => {
                let mut ha = ha_rc.borrow_mut();
                let mut dir = directory.borrow_mut();
                let mut dir_changed = false;
                for &np in new_parts {
                    let state = &ha.partitions[np as usize];
                    state.primary.borrow_mut().alive = false;
                    for sec in &state.secondaries {
                        sec.borrow_mut().alive = false;
                    }
                    let session = state.session;
                    ha.coord.expire_session(session);
                    // A fail-over may have slipped the partition into the
                    // shard map before this abort; evict it.
                    dir_changed |= dir.shards.remove(&np).is_some();
                }
                if dir_changed {
                    dir.generation += 1;
                }
                drop(guard);
                self.settle(plan, MigrationOutcome::Aborted);
            }
            PlanKind::Drain { .. } => {
                for job in &p.dsts {
                    job.state.borrow_mut().phase = MigrationPhase::Drain;
                }
                p.aborting = true;
                p.stall_ticks = 0;
            }
        }
    }
}

/// The next `quantum` keys of a walk that are still present in `engine`, and
/// whether the walk is over (it then resets, for the next walk to list
/// afresh). A walk lists the shard's keys once, at its first quantum; keys
/// inserted later are not visited, keys deleted since are skipped.
fn walk_quantum(
    engine: &mut ShardEngine,
    walk: &mut Option<Vec<Vec<u8>>>,
    quantum: u32,
) -> (Vec<Vec<u8>>, bool) {
    let keys = walk.get_or_insert_with(|| {
        let mut keys = Vec::with_capacity(engine.len());
        engine.for_each_item(|k, _| keys.push(k));
        keys.sort_unstable_by(|a, b| b.cmp(a));
        keys
    });
    let mut visited = Vec::new();
    while let Some(k) = keys.last() {
        if engine.peek(k).is_none() {
            keys.pop();
        } else if visited.len() == quantum as usize {
            return (visited, false);
        } else {
            visited.extend(keys.pop());
        }
    }
    *walk = None;
    (visited, true)
}

/// `key`'s value, read without the side effects of a GET (no popularity
/// bump, no lease extension).
fn value_of(engine: &mut ShardEngine, key: &[u8]) -> Option<Vec<u8>> {
    let off = engine.peek(key)?.off_words;
    Some(ItemRef { off }.value(engine.words()))
}

/// One snapshot quantum: visit the walk's next `quantum` keys, streaming the
/// moving ones to their destinations; a finished walk moves the source to
/// DoubleWrite.
fn snapshot_quantum(
    this: &Rc<RefCell<ShardServer>>,
    sim: &mut Sim,
    state: &Rc<RefCell<MigrationState>>,
    quantum: u32,
) {
    let engine_rc = this.borrow().engine.clone();
    let mut engine = engine_rc.borrow_mut();
    let mut st = state.borrow_mut();
    let (keys, done) = walk_quantum(&mut engine, &mut st.walk, quantum);
    let mut by_dst: RecordsByDst = BTreeMap::new();
    for k in keys {
        // A key bound for a shard with no channel is no copy of this plan's:
        // the live ring routes it elsewhere too.
        let dst = st.moving_dst(&k).filter(|d| st.channels.contains_key(d));
        if let Some(d) = dst {
            let v = value_of(&mut engine, &k).expect("visited keys are present");
            st.moved_keys += 1;
            st.moved_bytes += (k.len() + v.len() + 16) as u64;
            by_dst.entry(d).or_default().push((LogOp::Put, k, v));
        }
    }
    if done {
        st.phase = MigrationPhase::DoubleWrite;
    }
    let ships: ChannelShipments = by_dst
        .into_iter()
        .map(|(d, recs)| (st.channels[&d].clone(), recs))
        .collect();
    drop((engine, st));
    for (ch, recs) in ships {
        ch.ship(sim, recs);
    }
}

/// Shard-core time one walk quantum is charged.
fn walk_ns(quantum: u32) -> SimTime {
    costs::SCAN_BASE_NS + quantum as SimTime * costs::SCAN_ITEM_NS
}

/// One drain quantum: visit the walk's next `quantum` keys and delete the
/// ones the live ring routes elsewhere, replicating the deletes to this
/// shard's own secondaries. Returns whether the walk is over.
fn drain_quantum(
    this: &Rc<RefCell<ShardServer>>,
    sim: &mut Sim,
    state: &Rc<RefCell<MigrationState>>,
    quantum: u32,
) -> bool {
    let engine_rc = this.borrow().engine.clone();
    let now = sim.now();
    let (doomed, done) = {
        let mut engine = engine_rc.borrow_mut();
        let mut st = state.borrow_mut();
        let (mut keys, done) = walk_quantum(&mut engine, &mut st.walk, quantum);
        keys.retain(|k| !st.owns(k));
        for k in &keys {
            let _ = engine.delete(now, k);
        }
        st.drained_keys += keys.len() as u64;
        (keys, done)
    };
    if !doomed.is_empty() {
        let pairs = this.borrow().repl.clone();
        if !pairs.is_empty() {
            let records: Vec<(LogOp, &[u8], &[u8])> = doomed
                .iter()
                .map(|k| (LogOp::Delete, k.as_slice(), &[][..]))
                .collect();
            for pair in &pairs {
                pair.replicate_batch(sim, &records, None)
                    .expect("drain deletes bounded by the quantum fit the repl ring");
            }
        }
    }
    done
}

/// Restarts the walk, if any, of a promoted primary that inherits a
/// plan's state: it lists the promoted shard's own keys afresh — its deposed
/// predecessor may have replicated partial copies, or applied deletes it
/// never replicated, that the old listing misses — and the quantum queued
/// on the predecessor is lost.
pub(crate) fn on_promotion(server: &Rc<RefCell<ShardServer>>) {
    if let Some(state) = &server.borrow().mig {
        let mut st = state.borrow_mut();
        st.walk = None;
        st.queued = false;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hydra_store::{EngineConfig, WriteMode};

    #[test]
    fn a_walk_visits_the_keys_it_listed_in_key_order() {
        let mut engine = ShardEngine::new(EngineConfig {
            arena_words: 4096,
            write_mode: WriteMode::Reliable,
            min_lease_ns: 1_000,
            max_lease_ns: 64_000,
            ..EngineConfig::default()
        });
        for k in ["d", "a", "c", "b", "e"] {
            engine.insert(0, k.as_bytes(), b"v").unwrap();
        }
        let keys =
            |ks: &[&str]| -> Vec<Vec<u8>> { ks.iter().map(|k| k.as_bytes().to_vec()).collect() };
        let mut walk = None;
        assert_eq!(
            walk_quantum(&mut engine, &mut walk, 2),
            (keys(&["a", "b"]), false)
        );
        // A key deleted since the listing is skipped, one inserted after it
        // is not visited, and an exactly full last quantum ends the walk.
        engine.delete(0, b"c").unwrap();
        engine.insert(0, b"bb", b"v").unwrap();
        assert_eq!(
            walk_quantum(&mut engine, &mut walk, 2),
            (keys(&["d", "e"]), true)
        );
        assert!(walk.is_none());
        // The next walk lists afresh.
        assert_eq!(
            walk_quantum(&mut engine, &mut walk, 8),
            (keys(&["a", "b", "bb", "d", "e"]), true)
        );
        // Reading a value for shipment leaves the item's lease alone.
        let lease = engine.peek(b"d").unwrap().lease_expiry;
        assert_eq!(value_of(&mut engine, b"d").as_deref(), Some(&b"v"[..]));
        assert_eq!(engine.peek(b"d").unwrap().lease_expiry, lease);
    }

    #[test]
    fn phase_labels_are_stable() {
        for (phase, label) in [
            (MigrationPhase::Snapshot, "snapshot"),
            (MigrationPhase::DoubleWrite, "dblwrite"),
            (MigrationPhase::Drain, "drain"),
            (MigrationPhase::Receive, "receive"),
            (MigrationPhase::Done, "done"),
            (MigrationPhase::Aborted, "aborted"),
        ] {
            assert_eq!(phase.as_str(), label);
            assert_eq!(phase.to_string(), label);
        }
    }

    #[test]
    fn ownership_gate_follows_the_live_ring() {
        let mut ring = HashRing::new();
        ring.add_shard(ShardId(0));
        ring.add_shard(ShardId(1));
        let mut target = ring.clone();
        target.add_shard(ShardId(2));
        let dir = Rc::new(RefCell::new(Directory {
            ring,
            shards: std::collections::HashMap::new(),
            generation: 7,
            subscribers: Vec::new(),
        }));
        let st = MigrationState::new(
            ShardId(0),
            dir.clone(),
            Rc::new(target.clone()),
            MigrationPhase::Snapshot,
        );
        let st = st.borrow();
        // Probe keys this shard owns and does not own under the live ring.
        let mut owned = None;
        let mut foreign = None;
        for i in 0..1_000 {
            let k = format!("gate-{i}");
            // Guards spell out the shard id: a plain `Some(_)` second arm
            // would swallow shard-0 keys once `owned` is filled.
            match dir.borrow().ring.route(k.as_bytes()) {
                Some(ShardId(0)) if owned.is_none() => owned = Some(k),
                Some(s) if s != ShardId(0) && foreign.is_none() => foreign = Some(k),
                _ => {}
            }
            if owned.is_some() && foreign.is_some() {
                break;
            }
        }
        let owned = owned.expect("some key routes here");
        let foreign = foreign.expect("some key routes elsewhere");
        assert!(st.owns(owned.as_bytes()));
        assert_eq!(st.wrong_owner(owned.as_bytes()), None);
        assert!(!st.owns(foreign.as_bytes()));
        assert_eq!(st.wrong_owner(foreign.as_bytes()), Some(7));
        // moving_dst follows the target ring and never names self.
        for i in 0..200 {
            let k = format!("gate-{i}");
            if let Some(d) = st.moving_dst(k.as_bytes()) {
                assert_ne!(d, 0);
                assert_eq!(target.route(k.as_bytes()), Some(ShardId(d)));
            } else {
                assert_eq!(target.route(k.as_bytes()), Some(ShardId(0)));
            }
        }
    }
}

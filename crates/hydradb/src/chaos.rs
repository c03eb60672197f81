//! Deterministic fault injection and consistency checking.
//!
//! HydraDB's headline claim is *resilience*: SWAT failure detection, lease
//! guarded one-sided reads and RDMA-logged replication all exist to survive
//! failures (PAPER.md §4.2.3, §5). This module is the adversary that earns
//! that claim: it turns "the cluster survives failures" from a happy-path
//! example into a checked property. Three parts:
//!
//! * `plan` — a **fault plan**: a seed-reproducible schedule of fault
//!   events ([`FaultEvent`]) pinned to virtual times or op-count triggers.
//!   Plans are plain data; [`FaultPlan::random`] derives an arbitrarily
//!   nasty but *replayable* plan from a seed.
//! * [`ChaosController`] — *how* each fault lands on a
//!   [`Cluster`](crate::Cluster):
//!   * machine faults map to the fabric's crash/freeze hooks (NIC engines
//!     pause, traffic vanishes) plus the shard servers' liveness flags, so
//!     the liveness probe and SWAT promotion run exactly as for an organic
//!     failure;
//!   * network faults map to the fabric's per-link drop/delay/duplicate
//!     interceptors and symmetric partition cuts — which the probe's reads
//!     cross like any other traffic — with isolated machines also cut off
//!     from the coordination service (an external quorum ensemble that is
//!     not on the fabric), so a secondary there cannot report a suspicion;
//!   * restarts rebuild the node's shards: a never-promoted primary comes
//!     back with its memory intact, stale or promoted-away secondaries are
//!     resynced from the current primary's state over a fresh replication
//!     channel (the old, possibly mid-stream channel is severed).
//! * `history` — a **history checker**: every op of a [`RecordingClient`]
//!   is logged in a [`History`] with its invocation and response on the
//!   virtual clock, and the history is verified for per-key register
//!   linearizability (Wing & Gong style DFS with memoization), value
//!   integrity (no read returns bytes that were never written — the
//!   torn/stale-read lease-safety check) and, through
//!   [`check_convergence`], replica convergence after heal.
//!
//! The history is tagged with the cluster seed, so every checker failure
//! prints the `HYDRA_SEED=<seed>` that reproduces the run event for event.

mod history;
mod plan;

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use hydra_fabric::{Fabric, LinkFault, NodeId, Transport};
use hydra_replication::ReplicationPair;
use hydra_sim::Sim;

use crate::client::{HydraClient, OpCb};
use crate::cluster::{couple, HaState};
use crate::config::ClusterConfig;
use crate::migration::{MigrationEngine, Staging};
use crate::ring::ShardId;
use crate::server::ShardServer;

use history::OpKind as HistOp;
pub use history::{check_convergence, History};
pub(crate) use history::{Outcome, ReplicaDump};
pub use plan::{FaultEvent, FaultPlan};
use plan::{PlannedFault, Trigger};

/// A shared shard-server handle, as stored in [`HaState`] partitions.
type Srv = Rc<RefCell<ShardServer>>;

struct ChaosInner {
    ha: Rc<RefCell<HaState>>,
    fab: Fabric,
    cfg: Rc<ClusterConfig>,
    migration: MigrationEngine,
    history: History,
    /// Op-count-triggered faults still waiting for the workload to reach
    /// their threshold.
    armed: Vec<PlannedFault>,
    /// Server-node indices currently powered off.
    crashed: HashSet<usize>,
    /// Faults applied so far (all kinds).
    injected: u64,
    /// Distinct ids for secondaries rebuilt after a restart.
    rebuilt_shards: u32,
    /// Where resync snapshots land, one buffer per secondary machine
    /// (fabric node id).
    resync_staging: HashMap<u32, Staging>,
}

/// Applies fault plans to one cluster. Cheap to clone; obtained from
/// [`Cluster::chaos`](crate::Cluster::chaos). All injection — including
/// the legacy [`Cluster::kill_primary`](crate::Cluster::kill_primary) /
/// [`Cluster::kill_swat_leader`](crate::Cluster::kill_swat_leader) test
/// hooks — funnels through [`apply`](Self::apply).
#[derive(Clone)]
pub struct ChaosController {
    inner: Rc<RefCell<ChaosInner>>,
}

impl ChaosController {
    pub(crate) fn new(
        ha: Rc<RefCell<HaState>>,
        fab: Fabric,
        cfg: Rc<ClusterConfig>,
        migration: MigrationEngine,
    ) -> Self {
        let history = History::new(cfg.seed);
        ChaosController {
            inner: Rc::new(RefCell::new(ChaosInner {
                ha,
                fab,
                cfg,
                migration,
                history,
                armed: Vec::new(),
                crashed: HashSet::new(),
                injected: 0,
                rebuilt_shards: 0,
                resync_staging: HashMap::new(),
            })),
        }
    }

    /// The shared op log every [`RecordingClient`] appends to.
    pub fn history(&self) -> History {
        self.inner.borrow().history.clone()
    }

    /// Faults applied so far.
    pub fn injected(&self) -> u64 {
        self.inner.borrow().injected
    }

    /// Server-node indices currently crashed (sorted).
    pub(crate) fn crashed_nodes(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.inner.borrow().crashed.iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Schedules every fault in `plan`: time triggers land on the event
    /// queue (clamped to now for past times), op-count triggers arm and
    /// fire as recording clients invoke operations.
    pub(crate) fn install_plan(&self, sim: &mut Sim, plan: &FaultPlan) {
        let now = sim.now();
        for pf in &plan.faults {
            match pf.trigger {
                Trigger::At(t) => {
                    let this = self.clone();
                    let fault = pf.fault.clone();
                    sim.schedule_at(t.max(now), move |sim| this.apply(sim, &fault));
                }
                Trigger::AtOp(_) => self.inner.borrow_mut().armed.push(pf.clone()),
            }
        }
        self.inner
            .borrow_mut()
            .armed
            .sort_by_key(|pf| match pf.trigger {
                Trigger::AtOp(n) => n,
                Trigger::At(t) => t,
            });
    }

    /// Called on every recorded invocation; fires armed op-count faults
    /// whose threshold the history has reached.
    pub(crate) fn note_invocation(&self, sim: &mut Sim) {
        let due: Vec<FaultEvent> = {
            let mut inner = self.inner.borrow_mut();
            let n = inner.history.len() as u64;
            let mut due = Vec::new();
            inner.armed.retain(|pf| match pf.trigger {
                Trigger::AtOp(at) if at <= n => {
                    due.push(pf.fault.clone());
                    false
                }
                _ => true,
            });
            due
        };
        for fault in due {
            self.apply(sim, &fault);
        }
    }

    /// Restores full service: restarts every crashed machine, heals the
    /// network, and repairs replication channels left stalled by dropped
    /// ring frames. Convergence checks run after this settles.
    pub fn recover(&self, sim: &mut Sim) {
        for idx in self.crashed_nodes() {
            self.apply(sim, &FaultEvent::RestartNode { node: idx });
        }
        self.apply(sim, &FaultEvent::Heal);
        sim.run();
        self.repair_stalled_replication(sim);
    }

    /// A dropped ring frame leaves a zero slot the secondary's applier can
    /// never fill — it parks there silently, and every later record (and in
    /// Strict mode every later write) stalls behind it. So does a ring its
    /// secondary fenced while cut off from the coordination service: the
    /// primary was never deposed, and nothing reopens a revoked ring. The
    /// only repair is the one a real operator performs: detect the laggard
    /// by its ack high-water mark, or by its fence, and resync it from the
    /// primary.
    fn repair_stalled_replication(&self, sim: &mut Sim) {
        let (cfg, ha_rc) = {
            let inner = self.inner.borrow();
            (inner.cfg.clone(), inner.ha.clone())
        };
        if cfg.replicas == 0 {
            return;
        }
        let groups: Vec<(Srv, Vec<Srv>)> = {
            let ha = ha_rc.borrow();
            ha.partitions
                .iter()
                .map(|p| (p.primary.clone(), p.secondaries.clone()))
                .collect()
        };
        // Give every channel a chance to drain organically first.
        for (primary, _) in &groups {
            if !primary.borrow().alive {
                continue;
            }
            let pairs = primary.borrow().repl.clone();
            for pair in &pairs {
                pair.request_ack(sim);
            }
        }
        sim.run();
        for (primary, secondaries) in &groups {
            if !primary.borrow().alive {
                continue;
            }
            for sec in secondaries {
                if !sec.borrow().alive {
                    continue;
                }
                let sec_node = sec.borrow().node;
                let lagging = primary
                    .borrow()
                    .repl
                    .iter()
                    .find(|pair| pair.secondary_node() == sec_node)
                    .is_none_or(|pair| pair.acked() < pair.stats().records || pair.is_fenced());
                if lagging {
                    self.resync_secondary(sim, primary, sec);
                }
            }
        }
        sim.run();
    }

    /// Injects one fault now.
    pub fn apply(&self, sim: &mut Sim, fault: &FaultEvent) {
        self.inner.borrow_mut().injected += 1;
        match fault {
            FaultEvent::CrashNode { node } => self.crash_node(sim, *node),
            FaultEvent::RestartNode { node } => self.restart_node(sim, *node),
            FaultEvent::Partition { nodes } => self.partition(nodes),
            FaultEvent::Heal => self.heal(),
            FaultEvent::DropMessage { from, to, count } => {
                self.pair_fault(*from, *to, LinkFault::drop_next(*count));
            }
            FaultEvent::DelayMessage {
                from,
                to,
                delay_ns,
                count,
            } => {
                self.pair_fault(*from, *to, LinkFault::delay_next(*count, *delay_ns));
            }
            FaultEvent::DuplicateMessage { from, to, count } => {
                self.pair_fault(*from, *to, LinkFault::duplicate_next(*count));
            }
            FaultEvent::SlowNode { node, factor } => {
                let fab = self.inner.borrow().fab.clone();
                fab.set_node_slow(self.server_node(*node), *factor);
            }
            FaultEvent::ExpireLease { partition } => self.expire_lease(*partition),
            FaultEvent::CrashPrimary { partition } => self.crash_primary(*partition),
            FaultEvent::ExpireSwatLeader => self.expire_swat_leader(),
            FaultEvent::FailReplApply { partition, seq } => {
                self.fail_repl_apply(*partition, *seq);
            }
            FaultEvent::JoinNode { shards } => self.join_node(sim, *shards),
            FaultEvent::DrainNode { node } => self.drain_node(sim, *node),
        }
    }

    /// The fabric node of server machine `idx`, resolved against the
    /// cluster's one machine list.
    fn server_node(&self, idx: usize) -> NodeId {
        self.inner.borrow().ha.borrow().server_nodes[idx]
    }

    // ---- elasticity events ----

    /// Brings a fresh machine online and starts a live join migration of
    /// `shards` new partitions toward it — the join
    /// [`Cluster::start_migration`](crate::Cluster::start_migration) starts.
    /// The plan ticks in the background; ownership flips once the copy
    /// quiesces. Composes with the machine faults above: crashing the new
    /// node mid-copy aborts the plan.
    fn join_node(&self, sim: &mut Sim, shards: u32) {
        let migration = self.inner.borrow().migration.clone();
        migration.start_join(sim, shards);
    }

    /// Starts a live drain of server node `idx`: every primary hosted there
    /// streams its range to the survivors and leaves the ring at the flip.
    fn drain_node(&self, sim: &mut Sim, idx: usize) {
        let migration = self.inner.borrow().migration.clone();
        migration.start_drain(sim, self.server_node(idx));
    }

    // ---- machine faults ----

    fn crash_node(&self, sim: &mut Sim, idx: usize) {
        let node = self.server_node(idx);
        let (fab, ha) = {
            let mut inner = self.inner.borrow_mut();
            if !inner.crashed.insert(idx) {
                return; // already down
            }
            (inner.fab.clone(), inner.ha.clone())
        };
        // Power off the machine: NIC engines freeze mid-service, every
        // message from or to it vanishes on the wire.
        fab.set_node_crashed(node, true);
        fab.freeze_node(node, sim.now());
        // Every shard process hosted there goes dark: primaries stop
        // serving and stamping (their secondaries notice the silence),
        // secondaries become non-promotable.
        let ha = ha.borrow();
        for p in &ha.partitions {
            if p.primary.borrow().node == node {
                p.primary.borrow_mut().alive = false;
            }
            for s in &p.secondaries {
                if s.borrow().node == node {
                    s.borrow_mut().alive = false;
                }
            }
        }
    }

    fn restart_node(&self, sim: &mut Sim, idx: usize) {
        let node = self.server_node(idx);
        let (fab, ha_rc, cfg) = {
            let mut inner = self.inner.borrow_mut();
            inner.crashed.remove(&idx);
            (inner.fab.clone(), inner.ha.clone(), inner.cfg.clone())
        };
        fab.unfreeze_node(node, sim.now());
        fab.set_node_crashed(node, false);
        let replicates = cfg.replicas > 0;
        let n_parts = ha_rc.borrow().partitions.len();
        for p in 0..n_parts {
            let (primary, secondaries) = {
                let ha = ha_rc.borrow();
                let st = &ha.partitions[p];
                (st.primary.clone(), st.secondaries.clone())
            };
            // A primary hosted here that was never promoted away (nobody
            // was left to suspect it) restarts with its memory intact and
            // its membership record standing, and resumes stamping.
            if primary.borrow().node == node && !primary.borrow().alive {
                primary.borrow_mut().alive = true;
            }
            if !primary.borrow().alive {
                continue; // partition fully down; nothing to rebuild against
            }
            // Stale secondaries hosted here: their ring stream is ruined
            // (frames dropped while crashed leave holes the applier can
            // never fill), so rebuild state from the primary and replace
            // the channel.
            if primary.borrow().node != node {
                for sec in secondaries.iter().filter(|s| s.borrow().node == node) {
                    sec.borrow_mut().alive = true;
                    if replicates {
                        self.resync_secondary(sim, &primary, sec);
                    }
                }
                // A replica promoted away (or lost with the old primary)
                // while this machine was down: rebuild a fresh secondary
                // here so the partition regains its replication factor.
                let have = ha_rc.borrow().partitions[p].secondaries.len();
                let on_node = ha_rc.borrow().partitions[p]
                    .secondaries
                    .iter()
                    .any(|s| s.borrow().node == node);
                if have < cfg.replicas as usize && !on_node {
                    let id = {
                        let mut inner = self.inner.borrow_mut();
                        inner.rebuilt_shards += 1;
                        ShardId(90_000 + inner.rebuilt_shards)
                    };
                    let sec = ShardServer::new(id, node, &fab, cfg.clone());
                    if replicates {
                        self.resync_secondary(sim, &primary, &sec);
                    }
                    ha_rc.borrow_mut().partitions[p].secondaries.push(sec);
                }
            }
        }
    }

    /// Rebuilds `sec` as a faithful copy of `primary` and replaces the
    /// replication channel between them: the old pair (possibly stalled
    /// mid-stream) is severed, the secondary's engine is wiped and reloaded
    /// from a snapshot of the primary, and a fresh pair takes over. One
    /// bulk RDMA Write sized to the snapshot models the transfer cost.
    fn resync_secondary(
        &self,
        sim: &mut Sim,
        primary: &Rc<RefCell<ShardServer>>,
        sec: &Rc<RefCell<ShardServer>>,
    ) {
        let (fab, cfg) = {
            let inner = self.inner.borrow();
            (inner.fab.clone(), inner.cfg.clone())
        };
        let sec_node = sec.borrow().node;
        let prim_node = primary.borrow().node;
        // 1. Retire the old channel.
        let old_pairs: Vec<ReplicationPair> = {
            let mut prim = primary.borrow_mut();
            let mut removed = Vec::new();
            let mut i = 0;
            while i < prim.repl.len() {
                if prim.repl[i].secondary_node() == sec_node {
                    removed.push(prim.repl.remove(i));
                } else {
                    i += 1;
                }
            }
            removed
        };
        for pair in &old_pairs {
            pair.sever(sim);
        }
        // 2. Wipe whatever partial state the secondary holds.
        let now = sim.now();
        {
            let engine = sec.borrow().engine.clone();
            let mut engine = engine.borrow_mut();
            let mut keys = Vec::new();
            engine.for_each_item(|k, _| keys.push(k));
            for k in &keys {
                let _ = engine.delete(now, k);
            }
            engine.pump_reclaim(u64::MAX);
        }
        // 3. Load the snapshot of the primary's current state.
        let items: Vec<(Vec<u8>, Vec<u8>)> = {
            let engine = primary.borrow().engine.clone();
            let engine = engine.borrow();
            let mut v = Vec::new();
            engine.for_each_item(|k, val| v.push((k, val)));
            v
        };
        {
            let engine = sec.borrow().engine.clone();
            let mut engine = engine.borrow_mut();
            for (k, v) in &items {
                engine
                    .put(now, k, v)
                    .expect("secondary arena sized for resync");
            }
        }
        // 4. Fresh replication channel (and replica export) from the
        //    current primary.
        couple(&fab, &cfg, primary, sec);
        // 5. The snapshot travels as one bulk write (cost modeling only —
        //    state already copied above, deterministically) over a QP of
        //    its own, released as soon as the write is posted: delivery
        //    does not consult it.
        let bytes: usize = items.iter().map(|(k, v)| k.len() + v.len() + 16).sum();
        if bytes > 0 {
            let words = bytes.div_ceil(8);
            let qp = fab.connect(prim_node, sec_node, Transport::Rdma);
            let region = self
                .inner
                .borrow_mut()
                .resync_staging
                .entry(sec_node.0)
                .or_insert_with(|| Staging::new(sec_node, cfg.page_bytes))
                .region_for(&fab, words);
            fab.post_write(sim, qp, prim_node, vec![0u64; words], region, 0, None);
            fab.disconnect(qp);
        }
    }

    // ---- network faults ----

    fn partition(&self, idxs: &[usize]) {
        let (fab, ha, isolated, others) = {
            let inner = self.inner.borrow();
            let ha = inner.ha.borrow();
            let isolated: Vec<NodeId> = idxs.iter().map(|&i| ha.server_nodes[i]).collect();
            let iso_set: HashSet<u32> = isolated.iter().map(|n| n.0).collect();
            let others: Vec<NodeId> = ha
                .server_nodes
                .iter()
                .chain(&ha.client_nodes)
                .filter(|n| !iso_set.contains(&n.0))
                .copied()
                .collect();
            (inner.fab.clone(), inner.ha.clone(), isolated, others)
        };
        for &a in &isolated {
            for &b in &others {
                fab.block_pair(a, b);
            }
        }
        // The coordination service is not on the fabric, so isolation from
        // it is recorded explicitly: a suspicion report from an isolated
        // secondary is lost. An isolated primary needs no such help — the
        // probe's reads die on the cut, its secondary fences and reports,
        // and on heal the deposed primary stays demoted.
        let mut ha = ha.borrow_mut();
        for n in &isolated {
            ha.partitioned_nodes.insert(n.0);
        }
    }

    fn heal(&self) {
        let (fab, ha) = {
            let inner = self.inner.borrow();
            (inner.fab.clone(), inner.ha.clone())
        };
        fab.heal();
        ha.borrow_mut().partitioned_nodes.clear();
    }

    fn pair_fault(&self, from: usize, to: usize, fault: LinkFault) {
        let fab = self.inner.borrow().fab.clone();
        fab.set_pair_fault(self.server_node(from), self.server_node(to), fault);
    }

    // ---- process / protocol faults ----

    fn expire_lease(&self, partition: u32) {
        let ha = self.inner.borrow().ha.clone();
        let ha = ha.borrow();
        let state = &ha.partitions[partition as usize];
        // Reclaim every deferred block as if all read leases had lapsed:
        // cached remote pointers into this shard now dangle and only the
        // guardian word protects fast-path readers. Secondaries pin leases
        // too (exported replica pointers for read spreading), so the fault
        // must lapse those as well.
        let engine = state.primary.borrow().engine.clone();
        engine.borrow_mut().pump_reclaim(u64::MAX);
        for sec in &state.secondaries {
            let engine = sec.borrow().engine.clone();
            engine.borrow_mut().pump_reclaim(u64::MAX);
        }
    }

    fn crash_primary(&self, partition: u32) {
        let ha = self.inner.borrow().ha.clone();
        let ha = ha.borrow();
        ha.partitions[partition as usize].primary.borrow_mut().alive = false;
    }

    fn expire_swat_leader(&self) {
        let ha = self.inner.borrow().ha.clone();
        let mut ha = ha.borrow_mut();
        if let Some(idx) = ha.swat_leader_idx() {
            let s = ha.swat_sessions[idx];
            ha.coord.expire_session(s);
        }
    }

    fn fail_repl_apply(&self, partition: u32, seq: u64) {
        let ha = self.inner.borrow().ha.clone();
        let ha = ha.borrow();
        let pairs = ha.partitions[partition as usize]
            .primary
            .borrow()
            .repl
            .clone();
        for pair in &pairs {
            pair.inject_failure(seq);
        }
    }
}

/// A [`HydraClient`] whose every operation is recorded in the cluster's
/// chaos [`History`] (invocation and response on the virtual clock), and
/// whose invocations drive op-count fault triggers. Obtained from
/// [`Cluster::add_recording_client`](crate::Cluster::add_recording_client).
#[derive(Clone)]
pub struct RecordingClient {
    client: HydraClient,
    chaos: ChaosController,
}

impl RecordingClient {
    pub(crate) fn new(client: HydraClient, chaos: ChaosController) -> Self {
        RecordingClient { client, chaos }
    }

    /// The wrapped client (for stats etc.).
    pub fn client(&self) -> &HydraClient {
        &self.client
    }

    /// GET, recorded. Failed reads constrain nothing in the checker.
    pub fn get(&self, sim: &mut Sim, key: &[u8], cb: OpCb) {
        let id = self
            .chaos
            .history()
            .begin(HistOp::Get, key, None, sim.now());
        self.chaos.note_invocation(sim);
        let hist = self.chaos.history();
        self.client.get(
            sim,
            key,
            Box::new(move |sim, res| {
                let outcome = match &res {
                    Ok(v) => Outcome::Ok(v.clone()),
                    Err(_) => Outcome::Failed,
                };
                hist.end(id, sim.now(), outcome);
                cb(sim, res);
            }),
        );
    }

    /// INSERT, recorded. A failed insert is maybe-applied: the request may
    /// have executed after the client gave up (or before a lost response).
    pub fn insert(&self, sim: &mut Sim, key: &[u8], value: &[u8], cb: OpCb) {
        self.write_op(sim, HistOp::Insert, key, value, cb);
    }

    /// UPDATE, recorded (maybe-applied on failure).
    pub fn update(&self, sim: &mut Sim, key: &[u8], value: &[u8], cb: OpCb) {
        self.write_op(sim, HistOp::Update, key, value, cb);
    }

    /// Upsert, recorded (maybe-applied on failure).
    pub fn put(&self, sim: &mut Sim, key: &[u8], value: &[u8], cb: OpCb) {
        self.write_op(sim, HistOp::Put, key, value, cb);
    }

    /// SCAN, recorded as one Get observation per returned item, each
    /// spanning the whole scan window [invoke, completion]. A torn or stale
    /// item — a value no write ever produced, or one already overwritten
    /// before the scan began — cannot linearize inside that window, so the
    /// checker flags it. Failed scans constrain nothing.
    pub fn scan(&self, sim: &mut Sim, start: &[u8], limit: u32, cb: OpCb) {
        let invoked = sim.now();
        self.chaos.note_invocation(sim);
        let hist = self.chaos.history();
        self.client.scan(
            sim,
            start,
            limit,
            Box::new(move |sim, res| {
                let done = sim.now();
                if let Ok(Some(payload)) = &res {
                    if let Some(items) = hydra_wire::ScanItems::parse(payload) {
                        for (k, v) in &items {
                            let id = hist.begin(HistOp::Get, k, None, invoked);
                            hist.end(id, done, Outcome::Ok(Some(v.to_vec())));
                        }
                    }
                }
                cb(sim, res);
            }),
        );
    }

    /// DELETE, recorded (maybe-applied on failure).
    pub fn delete(&self, sim: &mut Sim, key: &[u8], cb: OpCb) {
        let id = self
            .chaos
            .history()
            .begin(HistOp::Delete, key, None, sim.now());
        self.chaos.note_invocation(sim);
        let hist = self.chaos.history();
        self.client.delete(
            sim,
            key,
            Box::new(move |sim, res| {
                let outcome = match &res {
                    Ok(_) => Outcome::Ok(None),
                    Err(_) => Outcome::Failed,
                };
                hist.end(id, sim.now(), outcome);
                cb(sim, res);
            }),
        );
    }

    fn write_op(&self, sim: &mut Sim, kind: HistOp, key: &[u8], value: &[u8], cb: OpCb) {
        let id = self
            .chaos
            .history()
            .begin(kind, key, Some(value), sim.now());
        self.chaos.note_invocation(sim);
        let hist = self.chaos.history();
        let go = |sim: &mut Sim, cb2: OpCb| match kind {
            HistOp::Insert => self.client.insert(sim, key, value, cb2),
            HistOp::Update => self.client.update(sim, key, value, cb2),
            HistOp::Put => self.client.put(sim, key, value, cb2),
            _ => unreachable!("write_op handles writes only"),
        };
        go(
            sim,
            Box::new(move |sim, res| {
                let outcome = match &res {
                    Ok(_) => Outcome::Ok(None),
                    Err(_) => Outcome::Failed,
                };
                hist.end(id, sim.now(), outcome);
                cb(sim, res);
            }),
        );
    }
}

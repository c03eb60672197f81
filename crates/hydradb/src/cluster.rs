//! Cluster runtime: deployment, partition directory, and the SWAT
//! high-availability pipeline (§5.1).
//!
//! A [`ClusterBuilder`] materializes a [`ClusterConfig`] into fabric nodes,
//! shard servers (primaries + secondaries coupled by replication channels),
//! a ZooKeeper-like coordination service, and the SWAT group. The resulting
//! [`Cluster`] owns the simulation and hands out [`HydraClient`]s.
//!
//! Failure handling follows the paper's "a few missed heartbeats" (§5.1),
//! with the heartbeats moved onto the fabric (DESIGN.md §16). Every primary
//! shard owns an ephemeral znode under `/servers` — its membership record —
//! and stamps a liveness word in registered memory every beat; its first
//! live secondary reads the word one-sidedly every beat and, after
//! [`MISSES`](hydra_replication::MISSES) beats without a fresh stamp,
//! revokes the primary's write permission on its replication ring, applies
//! what had landed and reports to the SWAT leader (elected via
//! ephemeral-sequential znodes). The leader
//! expires the primary's session, promotes the reporter, re-couples the
//! remaining secondaries and publishes the new partition map — which wakes
//! every client with a shipment parked on the deposed primary. Both
//! notifications travel at the socket path's one-way latency.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use hydra_fabric::{Fabric, NodeId, Transport};
use hydra_replication::{ReplicationPair, BEAT_NS};
use hydra_sim::time::{SimTime, MS};
use hydra_sim::Sim;

use crate::chaos::{ChaosController, FaultEvent, FaultPlan, RecordingClient, ReplicaDump};
use crate::client::{ClientInner, HydraClient, PtrCache};
use crate::config::{ClientMode, ClusterConfig};
use crate::coord::{Coord, CreateMode, LeaderElection, SessionId};
use crate::migration::{self, MigrationEngine, MigrationHandle, MigrationOutcome};
use crate::ring::{HashRing, ShardId};
use crate::server::{ReplicaExport, ShardServer};

/// The cluster-wide view clients route through: the consistent-hash ring
/// plus the current primary of every partition. SWAT mutates it on
/// fail-over; the generation counter lets caches notice.
pub struct Directory {
    /// Key → partition routing.
    pub ring: HashRing,
    /// Partition → current primary.
    pub shards: HashMap<u32, Rc<RefCell<ShardServer>>>,
    /// Bumped on every reconfiguration.
    pub generation: u64,
    /// Clients to wake when a fail-over replaces a primary.
    pub(crate) subscribers: Vec<std::rc::Weak<RefCell<ClientInner>>>,
}

/// Payload of the two fail-over notifications (suspicion report, directory
/// change): a partition id and a generation, with headers.
const NOTIFY_BYTES: usize = 64;

/// The SWAT members' own coordination sessions, which decide who leads:
/// heartbeat period, session-expiry scan period, and the silence after which
/// a member loses its place in the election. (Shard liveness is not a
/// coordination matter: each primary is probed by its secondary every
/// [`BEAT_NS`], DESIGN.md §16.)
const SWAT_HEARTBEAT_NS: SimTime = 5 * MS;
const SWAT_TICK_NS: SimTime = 10 * MS;
const SWAT_SESSION_TIMEOUT_NS: SimTime = 25 * MS;

/// One completed fail-over, on the virtual clock (see
/// [`Cluster::failovers`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Failover {
    pub partition: u32,
    /// The secondary's last missed beat: it suspected its primary, revoked
    /// the ring and drained it, all at this instant.
    pub fenced_at: SimTime,
    /// The SWAT leader had the report, expired the old session, promoted
    /// the reporter and published the directory.
    pub promoted_at: SimTime,
}

/// Operator-facing snapshot of the whole cluster (see
/// [`Cluster::report`]).
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Directory generation (bumps on every reconfiguration).
    pub generation: u64,
    /// SWAT promotions performed so far.
    pub promotions: u64,
    /// GETs the cluster's clients sent as message GETs because the key's
    /// cached pointer was suspect ([`crate::client::ClientStats::suspect_gets`]).
    pub suspect_gets: u64,
    /// One row per partition.
    pub rows: Vec<PartitionReport>,
    /// One row per machine: fabric/NIC occupancy (connection-scaling
    /// health).
    pub nodes: Vec<NodeFabricReport>,
}

/// Per-machine fabric occupancy in a [`ClusterReport`]: how hard the node
/// leans on the NIC's connection-scaling resources (QP table, posted recv
/// buffers, on-chip QP-state and translation caches).
#[derive(Debug, Clone)]
pub struct NodeFabricReport {
    pub node: u32,
    /// QPs currently terminating at this machine.
    pub qps: u32,
    /// Receive buffers provisioned (per-QP rings + SRQ pool).
    pub recv_posted: u64,
    /// Translation entries consumed by registered regions
    /// (`ceil(bytes / page_bytes)` per region).
    pub mtt_entries: u64,
    /// QP-state (ICM) cache hits / capacity misses.
    pub qp_cache_hits: u64,
    pub qp_cache_misses: u64,
    /// Translation (MTT) cache hits / capacity misses.
    pub mtt_cache_hits: u64,
    pub mtt_cache_misses: u64,
    /// Total PCIe-fetch surcharge this node's NIC paid for cold entries.
    pub miss_penalty_ns: u64,
}

impl std::fmt::Display for ClusterReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "cluster generation {} ({} promotions, {} suspect gets)",
            self.generation, self.promotions, self.suspect_gets
        )?;
        writeln!(
            f,
            "{:<5} {:<5} {:<6} {:>9} {:>8} {:>8} {:>8} {:>8} {:>10} {:>9} {:>6} {:>8} {:>6} {:>6} {:>8} {:>8} {:<9} {:>8} {:>8}",
            "part",
            "node",
            "alive",
            "items",
            "mem%",
            "reclaim",
            "rmem%",
            "rreclaim",
            "requests",
            "malformed",
            "fill",
            "absorbed",
            "secs",
            "lag",
            "backlog",
            "acks/rec",
            "phase",
            "moved",
            "drained"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<5} {:<5} {:<6} {:>9} {:>7.1}% {:>8} {:>7.1}% {:>8} {:>10} {:>9} {:>6.2} {:>8} {:>6} {:>6} {:>8} {:>8.3} {:<9} {:>8} {:>8}",
                r.partition,
                r.node,
                r.alive,
                r.items,
                r.arena_occupancy * 100.0,
                r.reclaim_pending,
                r.replica_arena_occupancy * 100.0,
                r.replica_reclaim_pending,
                r.requests,
                r.malformed,
                r.sweep_fill,
                r.absorbed_writes,
                r.secondaries,
                r.repl_lag_max,
                r.repl_backlog,
                r.repl_acks_per_record,
                r.migration_phase,
                r.moved_keys,
                r.drained_keys
            )?;
        }
        writeln!(
            f,
            "{:<5} {:>6} {:>8} {:>9} {:>10} {:>10} {:>10} {:>10} {:>12}",
            "node",
            "qps",
            "recvs",
            "mtt_ent",
            "qp_hits",
            "qp_miss",
            "mtt_hits",
            "mtt_miss",
            "miss_pen_ns"
        )?;
        for n in &self.nodes {
            writeln!(
                f,
                "{:<5} {:>6} {:>8} {:>9} {:>10} {:>10} {:>10} {:>10} {:>12}",
                n.node,
                n.qps,
                n.recv_posted,
                n.mtt_entries,
                n.qp_cache_hits,
                n.qp_cache_misses,
                n.mtt_cache_hits,
                n.mtt_cache_misses,
                n.miss_penalty_ns
            )?;
        }
        Ok(())
    }
}

/// One partition's row in a [`ClusterReport`].
#[derive(Debug, Clone)]
pub struct PartitionReport {
    pub partition: u32,
    pub node: u32,
    pub alive: bool,
    pub items: usize,
    /// The primary's arena occupancy (live words over capacity).
    pub arena_occupancy: f64,
    /// Dead blocks the primary's engine holds for lapsing leases.
    pub reclaim_pending: usize,
    /// The largest arena occupancy among the partition's secondaries (0
    /// without one).
    pub replica_arena_occupancy: f64,
    /// The most dead blocks any of the partition's secondaries holds.
    pub replica_reclaim_pending: usize,
    pub requests: u64,
    /// Arrivals the primary dropped at admission because they did not
    /// decode.
    pub malformed: u64,
    /// Mean bare requests per sweep (a quantum of two or more taken from a
    /// lane together); 0 when the primary never swept.
    pub sweep_fill: f64,
    /// UPDATEs the primary answered without writing, a later UPDATE of the
    /// key overwriting them inside their quantum.
    pub absorbed_writes: u64,
    pub responses: u64,
    pub secondaries: usize,
    /// Worst per-pair replication lag (`next_seq - acked`, includes
    /// in-flight AckRequests) across this partition's channels.
    pub repl_lag_max: u64,
    /// Ring words occupied by shipped-but-unacknowledged frames, summed
    /// over the partition's channels.
    pub repl_inflight_words: usize,
    /// Records parked behind full rings, summed over the channels.
    pub repl_backlog: usize,
    /// Channels whose secondary has fenced them (suspected this primary and
    /// revoked its ring). On a live primary that means the suspicion never
    /// reached SWAT: its writes stall until the secondary is resynced.
    pub repl_fenced: usize,
    /// Acknowledgements received per shipped record (cumulative acks push
    /// this well below 1.0; per-record strict sits at ~1.0).
    pub repl_acks_per_record: f64,
    /// Group-commit release-batch size histogram (log2 buckets), summed
    /// over the partition's channels: bucket `i` counts cumulative acks
    /// that released `2^i..2^(i+1)` held responses at once.
    pub repl_release_hist: [u64; 16],
    /// Live-migration state-machine phase label (`"idle"` outside a plan).
    pub migration_phase: &'static str,
    /// Keys this partition streamed out as a migration source.
    pub moved_keys: u64,
    /// Payload bytes this partition streamed out as a migration source.
    pub moved_bytes: u64,
    /// Keys this partition deleted in its post-flip drain.
    pub drained_keys: u64,
}

/// Share of an engine's arena that live and retired blocks hold.
fn occupancy(engine: &hydra_store::ShardEngine) -> f64 {
    let a = engine.arena_stats();
    a.live_words as f64 / a.capacity_words.max(1) as f64
}

/// Snapshot handle to one partition's replica group.
pub struct ShardHandle {
    pub partition: u32,
    pub primary: Rc<RefCell<ShardServer>>,
    pub secondaries: Vec<Rc<RefCell<ShardServer>>>,
}

pub(crate) struct PartitionState {
    pub(crate) primary: Rc<RefCell<ShardServer>>,
    pub(crate) secondaries: Vec<Rc<RefCell<ShardServer>>>,
    pub(crate) session: SessionId,
}

/// The ephemeral znode partition `p`'s primary holds while its session
/// lives: the partition's membership record, gone when SWAT expires the
/// session to depose the primary.
pub(crate) fn partition_znode(p: usize) -> String {
    format!("/servers/part-{p}")
}

/// Couples `secondary` to `primary`: a fresh replication channel, plus the
/// secondary's arena registered for hot-key pointer export (read
/// spreading). Nothing to couple when the deployment does not replicate.
pub(crate) fn couple(
    fab: &Fabric,
    cfg: &ClusterConfig,
    primary: &Rc<RefCell<ShardServer>>,
    secondary: &Rc<RefCell<ShardServer>>,
) {
    let Some(repl) = cfg.repl_config() else {
        return;
    };
    let sec = secondary.borrow();
    let mut prim = primary.borrow_mut();
    let pair = ReplicationPair::new(fab, prim.node, sec.node, sec.engine.clone(), repl);
    prim.add_replica(pair);
    prim.add_replica_export(ReplicaExport {
        node: sec.node,
        region: sec.arena_region,
        engine: sec.engine.clone(),
    });
}

pub(crate) struct HaState {
    pub(crate) coord: Coord,
    pub(crate) partitions: Vec<PartitionState>,
    pub(crate) directory: Rc<RefCell<Directory>>,
    pub(crate) fab: Fabric,
    pub(crate) cfg: Rc<ClusterConfig>,
    /// Server machines in the order they came up: the builder's, then each
    /// joined one. The one list every node index resolves against — fault
    /// targets, drains, collocated clients, group placement and reports.
    pub(crate) server_nodes: Vec<NodeId>,
    /// Client machines, in id order.
    pub(crate) client_nodes: Vec<NodeId>,
    pub(crate) swat_sessions: Vec<SessionId>,
    pub(crate) swat_elections: Vec<LeaderElection>,
    pub(crate) promotions: u64,
    pub(crate) failovers: Vec<Failover>,
    pub(crate) monitoring_until: SimTime,
    /// Server machines currently cut off from the coordination ensemble by
    /// an injected network partition (fabric node ids): a secondary there
    /// may fence its primary but its report never arrives, so it is never
    /// promoted.
    pub(crate) partitioned_nodes: std::collections::HashSet<u32>,
}

impl HaState {
    /// The SWAT member currently leading reactions, if any.
    pub(crate) fn swat_leader_idx(&self) -> Option<usize> {
        self.swat_elections
            .iter()
            .position(|e| e.is_leader(&self.coord).unwrap_or(false))
    }

    /// Assembles the next partition's replica group: a primary on
    /// `server_nodes[home]`, one dedicated secondary (serving no client until
    /// promoted) on each of the `replicas` machines after it, coupled, and
    /// the primary registered with the coordination service. Returns the
    /// partition id. Publishing it — ring and directory — is the caller's
    /// step: the builder does so at once, a live join only at its flip.
    pub(crate) fn spawn_group(&mut self, home: usize, now: SimTime) -> u32 {
        let p = self.partitions.len() as u32;
        let nodes = &self.server_nodes;
        let primary = ShardServer::new(ShardId(p), nodes[home], &self.fab, self.cfg.clone());
        let secondaries: Vec<_> = (1..=self.cfg.replicas)
            .map(|r| {
                let node = nodes[(home + r as usize) % nodes.len()];
                let sec =
                    ShardServer::new(ShardId(p + (r * 10_000)), node, &self.fab, self.cfg.clone());
                couple(&self.fab, &self.cfg, &primary, &sec);
                sec
            })
            .collect();
        let session = self.register_primary(p as usize, now);
        self.partitions.push(PartitionState {
            primary,
            secondaries,
            session,
        });
        p
    }

    /// Registers partition `p`'s (new) primary with the coordination
    /// service: a session owning the partition's ephemeral znode, the
    /// membership record. The session never times out — liveness is the
    /// probe's business — and ends when SWAT expires it to depose its
    /// holder.
    pub(crate) fn register_primary(&mut self, p: usize, now: SimTime) -> SessionId {
        let session = self.coord.create_session(now, SimTime::MAX);
        self.coord
            .create(
                &partition_znode(p),
                p.to_string().into_bytes(),
                CreateMode::Ephemeral,
                Some(session),
            )
            .expect("the predecessor's znode went with its session");
        session
    }

    /// One beat of every partition's failure detector: live primaries stamp
    /// their liveness word, each partition's first live secondary probes it.
    /// Returns the secondaries that suspected (and fenced) their primary on
    /// this beat, as `(partition, their channel, their machine)`.
    fn beat(&self, sim: &mut Sim) -> Vec<(usize, ReplicationPair, NodeId)> {
        let mut suspects = Vec::new();
        for (p, state) in self.partitions.iter().enumerate() {
            let primary = state.primary.borrow();
            if primary.alive && !self.fab.is_node_crashed(primary.node) {
                for pair in &primary.repl {
                    pair.stamp();
                }
            }
            let Some(node) = state
                .secondaries
                .iter()
                .find_map(|s| Some(s.borrow()).filter(|s| s.alive).map(|s| s.node))
            else {
                continue;
            };
            let channel = primary.repl.iter().find(|c| c.secondary_node() == node);
            if let Some(pair) = channel.filter(|pair| pair.probe(sim)) {
                suspects.push((p, pair.clone(), node));
            }
        }
        suspects
    }

    /// A secondary's suspicion report reached the coordination service. The
    /// SWAT leader acts on it unless it is stale — the partition has been
    /// reconfigured since `channel` was its primary's — so one fault is one
    /// promotion.
    fn on_suspicion(
        &mut self,
        sim: &mut Sim,
        partition: usize,
        channel: &ReplicationPair,
        fenced_at: SimTime,
    ) {
        // Only the SWAT leader reacts (§5.1); with the whole SWAT group
        // down, failures go unhandled.
        if self.swat_leader_idx().is_none() {
            return;
        }
        let primary = self.partitions[partition].primary.clone();
        let current = primary
            .borrow()
            .repl
            .iter()
            .any(|c| c.same_channel(channel));
        if current && self.promote(sim, partition) {
            self.failovers.push(Failover {
                partition: partition as u32,
                fenced_at,
                promoted_at: sim.now(),
            });
        }
    }

    /// Deposes partition `partition`'s primary: expire its session, promote
    /// the first live secondary, re-couple the remaining secondaries to it,
    /// publish the new map and wake the clients.
    fn promote(&mut self, sim: &mut Sim, partition: usize) -> bool {
        let state = &mut self.partitions[partition];
        let Some(idx) = state.secondaries.iter().position(|s| s.borrow().alive) else {
            return false; // no live secondary: partition is down
        };
        let new_primary = state.secondaries.remove(idx);
        let old_primary = std::mem::replace(&mut state.primary, new_primary.clone());
        self.coord.expire_session(state.session);
        {
            // Live-migration bookkeeping survives fail-over: the promoted
            // primary owns the same key range, so it inherits the ownership
            // gate and forwarding state.
            let mut op = old_primary.borrow_mut();
            op.alive = false;
            // Every ring of the deposed primary closes, not only the
            // reporter's: whatever it still ships lands nowhere, and each
            // secondary's state is final before it is re-coupled.
            for pair in &op.repl {
                pair.fence(sim);
            }
            let mut np = new_primary.borrow_mut();
            np.mig = op.mig.take();
            // The old primary's channels and exports die with it, and the
            // promoted shard must not export itself.
            np.repl.clear();
            np.clear_replica_exports();
        }
        for sec in &state.secondaries {
            couple(&self.fab, &self.cfg, &new_primary, sec);
        }
        migration::on_promotion(&new_primary);
        // New primary registers its own session + ephemeral.
        let session = self.register_primary(partition, sim.now());
        self.partitions[partition].session = session;
        // Publish the reconfiguration.
        {
            let mut dir = self.directory.borrow_mut();
            dir.shards.insert(partition as u32, new_primary);
            dir.generation += 1;
        }
        self.promotions += 1;
        let hop = self.cfg.fabric.socket_one_way(NOTIFY_BYTES);
        HydraClient::wake_subscribers(&self.directory, sim, hop);
        true
    }
}

/// Builds a [`Cluster`] from a [`ClusterConfig`].
pub struct ClusterBuilder {
    cfg: ClusterConfig,
}

impl ClusterBuilder {
    /// Starts a builder.
    pub fn new(cfg: ClusterConfig) -> Self {
        ClusterBuilder { cfg }
    }

    /// Materializes the deployment.
    pub fn build(self) -> Cluster {
        let cfg = Rc::new(self.cfg);
        assert!(
            cfg.transport == Transport::Rdma || cfg.client_mode == ClientMode::SendRecv,
            "the socket transport has no one-sided verbs: use ClientMode::SendRecv"
        );
        let mut sim = Sim::new(cfg.seed);
        let fab = Fabric::new(cfg.fabric.clone());
        let server_nodes: Vec<NodeId> = (0..cfg.server_nodes).map(|_| fab.add_node()).collect();
        let client_nodes: Vec<NodeId> = (0..cfg.client_nodes).map(|_| fab.add_node()).collect();

        let mut coord = Coord::new();
        coord
            .create("/servers", Vec::new(), CreateMode::Persistent, None)
            .expect("fresh tree");
        let directory = Rc::new(RefCell::new(Directory {
            ring: HashRing::new(),
            shards: HashMap::new(),
            generation: 0,
            subscribers: Vec::new(),
        }));
        let mut ha = HaState {
            coord,
            partitions: Vec::new(),
            directory: directory.clone(),
            fab: fab.clone(),
            cfg: cfg.clone(),
            server_nodes: server_nodes.clone(),
            client_nodes: client_nodes.clone(),
            swat_sessions: Vec::new(),
            swat_elections: Vec::new(),
            promotions: 0,
            failovers: Vec::new(),
            monitoring_until: 0,
            partitioned_nodes: std::collections::HashSet::new(),
        };

        for i in 0..cfg.total_shards() {
            let home = if cfg.partitions.is_some() {
                (i % cfg.server_nodes) as usize
            } else {
                (i / cfg.shards_per_node) as usize
            };
            let p = ha.spawn_group(home, 0);
            let mut dir = directory.borrow_mut();
            dir.ring.add_shard(ShardId(p));
            dir.shards
                .insert(p, ha.partitions[p as usize].primary.clone());
        }

        // SWAT group: two members with an ephemeral-sequential election.
        for m in 0..2 {
            let s = ha.coord.create_session(0, SWAT_SESSION_TIMEOUT_NS);
            let e = LeaderElection::join(
                &mut ha.coord,
                "/swat/election",
                s,
                format!("swat-{m}").into_bytes(),
            )
            .expect("election joins");
            ha.swat_sessions.push(s);
            ha.swat_elections.push(e);
        }

        let ha = Rc::new(RefCell::new(ha));
        let migration =
            MigrationEngine::new(fab.clone(), cfg.clone(), ha.clone(), directory.clone());
        // Settle any setup events (none today, but keeps the invariant that
        // build() returns a quiescent cluster).
        sim.run();
        Cluster {
            sim,
            fab,
            cfg,
            directory,
            ha,
            migration,
            server_nodes,
            client_nodes,
            clients: Vec::new(),
            shared_caches: HashMap::new(),
            next_client_id: 0,
            chaos: None,
        }
    }
}

/// A deployed HydraDB cluster plus its simulation.
pub struct Cluster {
    /// The virtual clock and event queue. Drive it with `run`/`run_until`.
    pub sim: Sim,
    /// The fabric (for traffic statistics).
    pub fab: Fabric,
    /// The active configuration.
    pub cfg: Rc<ClusterConfig>,
    /// Partition directory shared with clients.
    pub directory: Rc<RefCell<Directory>>,
    ha: Rc<RefCell<HaState>>,
    /// Live-migration orchestrator (node join/drain under traffic).
    pub migration: MigrationEngine,
    /// The server machines the builder made, in id order. Machines joined
    /// later are not added here: [`server_machines`](Self::server_machines)
    /// is the live list. Public only because the benchmark's per-layer
    /// table (`benchmark/src/layers.rs`) reads it.
    pub server_nodes: Vec<NodeId>,
    /// Client machines, in id order. Public only because the benchmark's
    /// per-layer table (`benchmark/src/layers.rs`) reads it.
    pub client_nodes: Vec<NodeId>,
    clients: Vec<HydraClient>,
    shared_caches: HashMap<usize, PtrCache>,
    next_client_id: u32,
    chaos: Option<ChaosController>,
}

impl Cluster {
    /// Creates a client homed on client machine `node_idx` (round-robin
    /// placement is the caller's policy).
    pub fn add_client(&mut self, node_idx: usize) -> HydraClient {
        let node = if self.cfg.collocate_clients {
            let servers = &self.ha.borrow().server_nodes;
            servers[node_idx % servers.len()]
        } else {
            self.client_nodes[node_idx % self.client_nodes.len()]
        };
        let cap = self.cfg.ptr_cache_capacity;
        let ptr_cache = if self.cfg.shared_ptr_cache {
            self.shared_caches
                .entry(node_idx % self.client_nodes.len())
                .or_insert_with(|| PtrCache::new(cap))
                .clone()
        } else {
            PtrCache::new(cap)
        };
        let id = self.next_client_id;
        self.next_client_id += 1;
        let client = HydraClient::new(
            id,
            node,
            self.fab.clone(),
            self.cfg.clone(),
            self.directory.clone(),
            ptr_cache,
        );
        self.clients.push(client.clone());
        client
    }

    /// Every server machine, joined ones included, in the order they came
    /// up; index `i` here is server node `i` of [`FaultEvent`]s and of
    /// [`start_drain_server`](Self::start_drain_server).
    pub fn server_machines(&self) -> Vec<NodeId> {
        self.ha.borrow().server_nodes.clone()
    }

    /// All clients created so far.
    pub fn clients(&self) -> &[HydraClient] {
        &self.clients
    }

    /// Snapshot of one partition's replica group.
    pub fn shard(&self, partition: u32) -> ShardHandle {
        let ha = self.ha.borrow();
        let p = &ha.partitions[partition as usize];
        ShardHandle {
            partition,
            primary: p.primary.clone(),
            secondaries: p.secondaries.clone(),
        }
    }

    /// Number of promotions SWAT has performed.
    pub fn promotions(&self) -> u64 {
        self.ha.borrow().promotions
    }

    /// Current directory generation.
    pub fn generation(&self) -> u64 {
        self.directory.borrow().generation
    }

    /// Completed fail-overs, oldest first.
    pub fn failovers(&self) -> Vec<Failover> {
        self.ha.borrow().failovers.clone()
    }

    /// Starts the failure-detection machinery until virtual time `until`:
    /// the liveness beat between every primary and its first live secondary
    /// (period [`BEAT_NS`], suspicion after
    /// [`MISSES`](hydra_replication::MISSES) missed beats), and the SWAT
    /// members' own coordination sessions (the `SWAT_*_NS` constants), which
    /// decide who leads.
    /// Without this, failures are never detected.
    pub fn enable_ha(&mut self, until: SimTime) {
        {
            let mut ha = self.ha.borrow_mut();
            ha.monitoring_until = until;
            // Align session liveness with the monitoring start.
            let now = self.sim.now();
            for s in ha.swat_sessions.clone() {
                let _ = ha.coord.heartbeat(s, now);
            }
        }
        Self::schedule_beat(&self.ha, &mut self.sim);
        Self::schedule_heartbeat(&self.ha, &mut self.sim);
        Self::schedule_tick(&self.ha, &mut self.sim);
    }

    fn schedule_beat(ha: &Rc<RefCell<HaState>>, sim: &mut Sim) {
        let ha2 = ha.clone();
        sim.schedule_in(BEAT_NS, move |sim| {
            let now = sim.now();
            if now > ha2.borrow().monitoring_until {
                return;
            }
            let suspects = ha2.borrow().beat(sim);
            for (partition, channel, node) in suspects {
                let ha = ha2.borrow();
                // The report is a message to the coordination service: it
                // takes the socket path, and from a machine cut off from the
                // ensemble it never arrives.
                if ha.partitioned_nodes.contains(&node.0) {
                    continue;
                }
                let hop = ha.cfg.fabric.socket_one_way(NOTIFY_BYTES);
                let ha3 = ha2.clone();
                sim.schedule_in(hop, move |sim| {
                    ha3.borrow_mut().on_suspicion(sim, partition, &channel, now);
                });
            }
            Cluster::schedule_beat(&ha2, sim);
        });
    }

    fn schedule_heartbeat(ha: &Rc<RefCell<HaState>>, sim: &mut Sim) {
        let ha2 = ha.clone();
        sim.schedule_in(SWAT_HEARTBEAT_NS, move |sim| {
            let now = sim.now();
            {
                let mut ha = ha2.borrow_mut();
                if now > ha.monitoring_until {
                    return;
                }
                for s in ha.swat_sessions.clone() {
                    if ha.coord.session_alive(s) {
                        let _ = ha.coord.heartbeat(s, now);
                    }
                }
            }
            Cluster::schedule_heartbeat(&ha2, sim);
        });
    }

    fn schedule_tick(ha: &Rc<RefCell<HaState>>, sim: &mut Sim) {
        let ha2 = ha.clone();
        sim.schedule_in(SWAT_TICK_NS, move |sim| {
            let now = sim.now();
            {
                let mut ha = ha2.borrow_mut();
                if now > ha.monitoring_until {
                    return;
                }
                // Expires SWAT members that fell silent; the election's
                // ephemeral-sequential znodes go with their sessions.
                ha.coord.tick(now);
            }
            Cluster::schedule_tick(&ha2, sim);
        });
    }

    /// The fault-injection controller for this cluster (created on first
    /// use). All failures — scripted plans and the legacy kill hooks below —
    /// go through it, so every run shares one history and one fault log.
    pub fn chaos(&mut self) -> ChaosController {
        if self.chaos.is_none() {
            self.chaos = Some(ChaosController::new(
                self.ha.clone(),
                self.fab.clone(),
                self.cfg.clone(),
                self.migration.clone(),
            ));
        }
        self.chaos.clone().unwrap()
    }

    /// Creates a client homed like [`add_client`](Self::add_client) whose
    /// every op is recorded in the chaos history for consistency checking.
    pub fn add_recording_client(&mut self, node_idx: usize) -> RecordingClient {
        let client = self.add_client(node_idx);
        let chaos = self.chaos();
        RecordingClient::new(client, chaos)
    }

    /// Installs a fault plan on this cluster's controller.
    pub fn install_plan(&mut self, plan: &FaultPlan) {
        let chaos = self.chaos();
        chaos.install_plan(&mut self.sim, plan);
    }

    /// Whether a partition's coordination session is currently live.
    pub fn session_alive(&self, partition: u32) -> bool {
        let ha = self.ha.borrow();
        let s = ha.partitions[partition as usize].session;
        ha.coord.session_alive(s)
    }

    /// The partition's current coordination session id. Failover expires
    /// and replaces it, so capture it *before* a fault to observe that
    /// session's end: the instant the SWAT leader acted on the suspicion.
    pub fn session_id(&self, partition: u32) -> SessionId {
        self.ha.borrow().partitions[partition as usize].session
    }

    /// Whether a specific coordination session is still live.
    pub fn session_alive_id(&self, session: SessionId) -> bool {
        self.ha.borrow().coord.session_alive(session)
    }

    /// Crashes a partition's current primary process: it stops serving,
    /// stamping its liveness word, and replicating. Detection requires
    /// [`enable_ha`](Self::enable_ha). Thin wrapper over the chaos
    /// controller's [`FaultEvent::CrashPrimary`].
    pub fn kill_primary(&mut self, partition: u32) {
        let chaos = self.chaos();
        chaos.apply(&mut self.sim, &FaultEvent::CrashPrimary { partition });
    }

    /// Crashes the current SWAT leader (tests the leader hand-over path).
    /// Thin wrapper over [`FaultEvent::ExpireSwatLeader`].
    pub fn kill_swat_leader(&mut self) {
        let chaos = self.chaos();
        chaos.apply(&mut self.sim, &FaultEvent::ExpireSwatLeader);
    }

    /// Drives outstanding replication to a fixed point: requests acks on
    /// every live channel and pumps the sim until per-pair counters stop
    /// moving (stalled channels to dead secondaries stabilize too). Call
    /// after [`ChaosController::recover`] and before convergence checks.
    pub fn settle_replication(&mut self) {
        let mut last: Option<Vec<(u64, u64, u64, u64)>> = None;
        for _ in 0..24 {
            let pairs: Vec<ReplicationPair> = {
                let ha = self.ha.borrow();
                ha.partitions
                    .iter()
                    .flat_map(|p| p.primary.borrow().repl.clone())
                    .collect()
            };
            for pair in &pairs {
                pair.request_ack(&mut self.sim);
            }
            self.sim.run();
            let fp: Vec<(u64, u64, u64, u64)> = pairs
                .iter()
                .map(|p| {
                    let st = p.stats();
                    (st.records, st.applied, st.discarded, st.resends)
                })
                .collect();
            if last.as_ref() == Some(&fp) {
                return;
            }
            last = Some(fp);
        }
    }

    /// Sorted key-value dumps of one partition's replicas, labeled for the
    /// convergence checker
    /// ([`check_convergence`](crate::chaos::check_convergence)).
    pub fn replica_dumps(&self, partition: u32) -> Vec<ReplicaDump> {
        let ha = self.ha.borrow();
        let state = &ha.partitions[partition as usize];
        let dump = |server: &Rc<RefCell<ShardServer>>| {
            let engine = server.borrow().engine.clone();
            let engine = engine.borrow();
            let mut items = Vec::new();
            engine.for_each_item(|k, v| items.push((k, v)));
            items.sort();
            items
        };
        let mut out = Vec::new();
        out.push((
            format!("primary(node {})", state.primary.borrow().node.0),
            dump(&state.primary),
        ));
        for (i, sec) in state.secondaries.iter().enumerate() {
            out.push((
                format!("secondary{}(node {})", i, sec.borrow().node.0),
                dump(sec),
            ));
        }
        out
    }

    /// Immediately promotes a secondary (bypassing detection) — unit-test
    /// hook for the reconfiguration logic itself.
    pub fn force_promote(&mut self, partition: u32) -> bool {
        let ha = self.ha.clone();
        let mut ha = ha.borrow_mut();
        ha.promote(&mut self.sim, partition as usize)
    }

    /// Aggregate engine item count across primaries (diagnostics).
    pub fn total_items(&self) -> usize {
        let dir = self.directory.borrow();
        dir.shards
            .values()
            .map(|s| s.borrow().engine.borrow().len())
            .sum()
    }

    /// Structured snapshot of every partition's health — the operator view
    /// (items, memory occupancy, index pressure, pending reclamation,
    /// request counters, replication lag).
    pub fn report(&self) -> ClusterReport {
        let ha = self.ha.borrow();
        let rows = ha
            .partitions
            .iter()
            .enumerate()
            .map(|(p, state)| {
                let s = state.primary.borrow();
                let engine = s.engine.borrow();
                let stats = s.stats();
                let repl_lag_max = s.repl.iter().map(|pair| pair.lag()).max().unwrap_or(0);
                let repl_inflight_words: usize =
                    s.repl.iter().map(|pair| pair.inflight_words()).sum();
                let repl_backlog: usize = s.repl.iter().map(|pair| pair.backlog_len()).sum();
                let repl_fenced = s.repl.iter().filter(|pair| pair.is_fenced()).count();
                let (acks, records) = s.repl.iter().fold((0u64, 0u64), |(a, r), pair| {
                    let st = pair.stats();
                    (a + st.acks, r + st.records)
                });
                let repl_acks_per_record = acks as f64 / records.max(1) as f64;
                let mut repl_release_hist = [0u64; 16];
                for pair in &s.repl {
                    for (b, n) in pair.stats().release_hist.iter().enumerate() {
                        repl_release_hist[b] += n;
                    }
                }
                let (migration_phase, moved_keys, moved_bytes, drained_keys) = match &s.mig {
                    Some(m) => {
                        let m = m.borrow();
                        (
                            m.phase.as_str(),
                            m.moved_keys,
                            m.moved_bytes,
                            m.drained_keys,
                        )
                    }
                    None => ("idle", 0, 0, 0),
                };
                let (replica_arena_occupancy, replica_reclaim_pending) = state
                    .secondaries
                    .iter()
                    .fold((0.0f64, 0), |(occ, pending), sec| {
                        let sec = sec.borrow();
                        let e = sec.engine.borrow();
                        (occ.max(occupancy(&e)), pending.max(e.reclaim_pending()))
                    });
                PartitionReport {
                    partition: p as u32,
                    node: s.node.0,
                    alive: s.alive,
                    items: engine.len(),
                    arena_occupancy: occupancy(&engine),
                    reclaim_pending: engine.reclaim_pending(),
                    replica_arena_occupancy,
                    replica_reclaim_pending,
                    requests: stats.requests,
                    malformed: stats.malformed,
                    sweep_fill: stats.swept_requests as f64 / stats.sweeps.max(1) as f64,
                    absorbed_writes: stats.absorbed_writes,
                    responses: stats.responses,
                    secondaries: state.secondaries.len(),
                    repl_lag_max,
                    repl_inflight_words,
                    repl_backlog,
                    repl_fenced,
                    repl_acks_per_record,
                    repl_release_hist,
                    migration_phase,
                    moved_keys,
                    moved_bytes,
                    drained_keys,
                }
            })
            .collect();
        let nodes = ha
            .server_nodes
            .iter()
            .chain(&ha.client_nodes)
            .map(|&n| {
                let st = self.fab.node_stats(n);
                NodeFabricReport {
                    node: n.0,
                    qps: self.fab.qp_count(n),
                    recv_posted: self.fab.recv_posted(n),
                    mtt_entries: self.fab.mtt_registered(n),
                    qp_cache_hits: st.qp_cache_hits,
                    qp_cache_misses: st.qp_cache_misses,
                    mtt_cache_hits: st.mtt_cache_hits,
                    mtt_cache_misses: st.mtt_cache_misses,
                    miss_penalty_ns: st.miss_penalty_ns,
                }
            })
            .collect();
        ClusterReport {
            generation: self.directory.borrow().generation,
            promotions: ha.promotions,
            suspect_gets: self.clients.iter().map(HydraClient::suspect_gets).sum(),
            rows,
            nodes,
        }
    }

    /// Starts a *live* node-join migration (§5.1: SWAT "notifying certain
    /// shards to migrate data to newly joined nodes"): adds a server machine
    /// carrying `new_shards` fresh partitions and begins streaming the
    /// moving ranges toward them in bounded quanta while client traffic
    /// keeps flowing. Ownership flips atomically once the copy converges;
    /// see `migration` for the state machine. Returns the plan
    /// handle; drive `sim` (or keep issuing ops) to make progress.
    pub fn start_migration(&mut self, new_shards: u32) -> MigrationHandle {
        self.migration.start_join(&mut self.sim, new_shards)
    }

    /// Node-join reconfiguration run to completion: starts a live join plan
    /// and drains the event queue. Returns the new partition ids. Clients
    /// created before the call route through the shared directory, so any
    /// op issued after the flip lands on the new owners; a straggler hitting
    /// the old owner gets a `WrongOwner` redirect.
    pub fn add_server_with_migration(&mut self, new_shards: u32) -> Vec<u32> {
        let handle = self.start_migration(new_shards);
        self.sim.run();
        assert_eq!(
            handle.outcome(),
            MigrationOutcome::Completed,
            "join migration settles when the queue drains"
        );
        handle.new_partitions()
    }

    /// Starts a *live* node-drain migration (the inverse of a join): every
    /// partition homed on server machine `node_idx` streams its whole range
    /// to the surviving owners and leaves the ring at the flip. Returns the
    /// plan handle.
    pub fn start_drain_server(&mut self, node_idx: usize) -> MigrationHandle {
        let node = self.ha.borrow().server_nodes[node_idx];
        self.migration.start_drain(&mut self.sim, node)
    }

    /// Node-leave reconfiguration run to completion: starts a live drain
    /// plan and drains the event queue. Returns the retired partition ids.
    pub fn drain_server(&mut self, node_idx: usize) -> Vec<u32> {
        let handle = self.start_drain_server(node_idx);
        self.sim.run();
        assert_eq!(
            handle.outcome(),
            MigrationOutcome::Completed,
            "drain migration settles when the queue drains"
        );
        handle.departing_partitions()
    }

    /// The ring generation last published to the `/migration/epoch` znode
    /// at an ownership flip (0 if no migration has flipped yet).
    pub fn migration_epoch(&self) -> u64 {
        let ha = self.ha.borrow();
        ha.coord
            .get_data("/migration/epoch")
            .ok()
            .and_then(|b| b.try_into().ok().map(u64::from_le_bytes))
            .unwrap_or(0)
    }

    /// Audits key placement across the live directory: returns
    /// `(misplaced, duplicated)` — keys stored on a shard the ring does not
    /// route them to, and keys present on more than one live primary. Both
    /// must be zero once a migration has settled.
    pub fn ownership_audit(&self) -> (usize, usize) {
        let dir = self.directory.borrow();
        let mut parts: Vec<u32> = dir.shards.keys().copied().collect();
        parts.sort_unstable();
        let mut misplaced = 0usize;
        let mut counts: HashMap<Vec<u8>, usize> = HashMap::new();
        for p in parts {
            let engine = dir.shards[&p].borrow().engine.clone();
            let engine = engine.borrow();
            engine.for_each_item(|k, _v| {
                if dir.ring.route(&k) != Some(ShardId(p)) {
                    misplaced += 1;
                }
                *counts.entry(k).or_insert(0) += 1;
            });
        }
        let duplicated = counts.values().filter(|&&c| c > 1).count();
        (misplaced, duplicated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_creates_routable_cluster() {
        let cluster = ClusterBuilder::new(ClusterConfig::default()).build();
        let dir = cluster.directory.borrow();
        assert_eq!(dir.shards.len(), 4);
        assert!(dir.ring.route(b"any-key").is_some());
    }

    /// Touches every partition from one client and returns the cluster
    /// plus the client (ops complete — the sim is drained).
    fn run_all_partitions(cfg: ClusterConfig) -> (Cluster, crate::HydraClient) {
        let shards = cfg.total_shards();
        let mut cluster = ClusterBuilder::new(cfg).build();
        let client = cluster.add_client(0);
        // Enough distinct keys to land on all partitions.
        for i in 0..(shards * 8) {
            let key = format!("key-{i:04}");
            let c = client.clone();
            let k = key.clone().into_bytes();
            cluster.sim.schedule_at(cluster.sim.now(), move |sim| {
                c.insert(sim, &k, b"value", Box::new(|_, r| assert!(r.is_ok())));
            });
            cluster.sim.run();
        }
        (cluster, client)
    }

    /// A request slot whose head word is not a frame header (ROADMAP 4(e))
    /// is counted, cleared for the sender and survived; the parent commit
    /// panicked with `corrupt request frame`.
    #[test]
    fn corrupt_request_frame_is_counted_and_the_slot_released() {
        use std::sync::atomic::Ordering;
        let cfg = ClusterConfig {
            server_nodes: 1,
            shards_per_node: 1,
            ..ClusterConfig::default()
        };
        let (mut cluster, client) = run_all_partitions(cfg);
        let shard = cluster.shard(0).primary;
        let slot = shard.borrow().conns[0].req_mem.clone();
        slot[0].store(0xDEAD_BEEF_0000_0040, Ordering::Release);
        slot[5].store(7, Ordering::Release);
        ShardServer::on_request(&shard, &mut cluster.sim, 0);
        assert_eq!(shard.borrow().stats().malformed, 1);
        assert!(slot.iter().all(|w| w.load(Ordering::Acquire) == 0));
        // Opcode 5 is retired: a frame carrying it is dropped too, even one
        // whose value area is the empty key list the old renewal carried.
        let mut retired = hydra_wire::Request::Insert {
            req_id: 1,
            key: b"",
            value: &0u32.to_le_bytes(),
        }
        .encode();
        retired[0] = 5;
        for (w, v) in slot.iter().zip(hydra_wire::frame_to_words(&retired)) {
            w.store(v, Ordering::Release);
        }
        ShardServer::on_request(&shard, &mut cluster.sim, 0);
        assert_eq!(shard.borrow().stats().malformed, 2);
        assert!(slot.iter().all(|w| w.load(Ordering::Acquire) == 0));
        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        client.get(
            &mut cluster.sim,
            b"key-0000",
            Box::new(move |_, r| *g.borrow_mut() = Some(r)),
        );
        cluster.sim.run();
        assert_eq!(got.borrow_mut().take(), Some(Ok(Some(b"value".to_vec()))));
    }

    #[test]
    fn mux_pools_one_qp_per_server_node() {
        let cfg = ClusterConfig {
            server_nodes: 2,
            shards_per_node: 2,
            mux_connections: true,
            ..ClusterConfig::default()
        };
        let (cluster, client) = run_all_partitions(cfg);
        // Every partition has a connection, but partitions homed on the
        // same node share one QP.
        let mut by_node: HashMap<u32, Vec<hydra_fabric::QpId>> = HashMap::new();
        for p in 0..4 {
            let qp = client.conn_qp(p).expect("partition touched");
            let node = cluster.shard(p).primary.borrow().node.0;
            by_node.entry(node).or_default().push(qp);
        }
        assert_eq!(by_node.len(), 2);
        for (node, qps) in &by_node {
            assert!(
                qps.windows(2).all(|w| w[0] == w[1]),
                "node {node}: partitions must share the pooled QP, got {qps:?}"
            );
        }
        let (a, b) = (by_node[&0][0], by_node[&1][0]);
        assert_ne!(a, b, "distinct server nodes use distinct QPs");
        // The client node terminates exactly server_nodes client QPs
        // (replication/migration QPs live between server nodes).
        let client_node = cluster.client_nodes[0];
        assert_eq!(cluster.fab.qp_count(client_node), 2);

        // Dedicated mode on the same deployment: one QP per partition.
        let cfg = ClusterConfig {
            server_nodes: 2,
            shards_per_node: 2,
            mux_connections: false,
            ..ClusterConfig::default()
        };
        let (cluster, client) = run_all_partitions(cfg);
        let qps: std::collections::HashSet<_> = (0..4)
            .map(|p| client.conn_qp(p).expect("touched"))
            .collect();
        assert_eq!(qps.len(), 4, "dedicated mode keeps per-partition QPs");
        assert_eq!(cluster.fab.qp_count(cluster.client_nodes[0]), 4);
    }

    #[test]
    fn report_surfaces_fabric_occupancy() {
        let cfg = ClusterConfig {
            server_nodes: 1,
            shards_per_node: 4,
            ..ClusterConfig::default()
        };
        let (cluster, _client) = run_all_partitions(cfg);
        let report = cluster.report();
        assert_eq!(report.nodes.len(), 2, "1 server + 1 client machine");
        let server = &report.nodes[0];
        assert_eq!(server.node, cluster.server_nodes[0].0);
        assert_eq!(server.qps, 4, "4 dedicated partition connections");
        assert!(server.recv_posted > 0, "per-QP recv rings provisioned");
        // 4 shard arenas + 4 request slots at 4 KiB pages.
        assert!(server.mtt_entries > 0);
        // Default caches are far larger than this deployment: warm fills
        // only, zero misses, zero surcharge.
        assert!(server.qp_cache_hits > 0);
        assert_eq!(server.qp_cache_misses, 0);
        assert_eq!(server.mtt_cache_misses, 0);
        assert_eq!(server.miss_penalty_ns, 0);
        // The text rendering includes the occupancy table.
        let text = format!("{report}");
        assert!(text.contains("miss_pen_ns"));
    }

    #[test]
    fn live_join_registers_at_the_cluster_page_size() {
        // Regression: the join path spelled out its own ReplConfig and left
        // `page_bytes` at the 4 KiB default, so on a huge-page cluster the
        // new partition's 64 K-word replication ring alone took 128 MTT
        // entries on the machine hosting its secondary.
        let mut cfg = ClusterConfig {
            server_nodes: 2,
            shards_per_node: 1,
            replicas: 1,
            replication: crate::config::ReplicationMode::GroupCommit,
            page_bytes: 2 << 20,
            ..ClusterConfig::default()
        };
        cfg.fabric.default_page_bytes = cfg.page_bytes;
        let mut cluster = ClusterBuilder::new(cfg).build();
        let mtt = |c: &Cluster| -> Vec<u64> {
            let per_node = |&n| c.fab.mtt_registered(n);
            c.server_nodes.iter().map(per_node).collect()
        };
        // Each builder node holds one primary (arena + ack region) and one
        // secondary (arena + ring): everything one partition registers.
        let before = mtt(&cluster);
        let group = before[0];
        cluster.add_server_with_migration(1);
        let after = mtt(&cluster);
        for (node, &entries) in after.iter().enumerate() {
            let grew = entries - before.get(node).copied().unwrap_or(0);
            assert!(
                grew <= group,
                "node {node}: joining one partition registered {grew} MTT entries, \
                 a builder-made one registers {group}"
            );
        }
    }

    #[test]
    fn srq_and_huge_pages_shrink_nic_footprint() {
        let base = ClusterConfig {
            server_nodes: 1,
            shards_per_node: 4,
            ..ClusterConfig::default()
        };
        let (dedicated, _c) = run_all_partitions(base.clone());
        let srq_cfg = ClusterConfig {
            srq: true,
            page_bytes: 2 << 20,
            ..base
        };
        let (optimized, _c) = run_all_partitions(srq_cfg.clone());
        let node = dedicated.server_nodes[0];
        // Rings: 4 conns x recv_ring_depth. SRQ: one pool, regardless of
        // connection count.
        assert_eq!(
            dedicated.fab.recv_posted(node),
            4 * crate::client::RECV_RING_DEPTH
        );
        assert_eq!(
            optimized.fab.recv_posted(optimized.server_nodes[0]),
            crate::client::SRQ_DEPTH
        );
        // Huge pages collapse the MTT footprint of the same regions.
        let mtt_4k = dedicated.fab.mtt_registered(node);
        let mtt_huge = optimized.fab.mtt_registered(optimized.server_nodes[0]);
        assert!(
            mtt_huge * 64 < mtt_4k,
            "2 MiB pages must collapse MTT entries: {mtt_huge} vs {mtt_4k}"
        );
    }
}

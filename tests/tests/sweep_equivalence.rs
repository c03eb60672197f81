//! Sweep equivalence: a shard serves what its lanes hold — a lone bare
//! request, a frame, or the bare requests queued from every connection — as
//! one quantum through one executor, and that changes *when* a response
//! leaves, never *what* it says.
//!
//! Bare requests and frames are injected straight into a shard's admission
//! on 2–16 client connections, in random interleavings over a few hot keys,
//! under both schedulers, with no replica or one under each replication
//! mode, and with and without an installed migration gate (a completed join
//! leaves the source shard redirecting the keys it gave away). The
//! responses are caught on the client side of each Send/Recv connection and
//! checked against three oracles:
//!
//! - **Bytes.** Every response (backlog hints zeroed) and the final engine
//!   state equal one-at-a-time execution in arrival order: `apply_request`
//!   on a mirror engine, each request at the instant its quantum executed —
//!   but an absorbed UPDATE, which answers what a probe of the mirror finds
//!   (or the redirect) and writes nothing.
//! - **Timing.** A model of the core replays the arrivals through the
//!   shard's deficit-round-robin lanes. Every quantum executes at dispatch —
//!   a lone request at its own price, a frame at its frame price, a sweep of
//!   two or more at each member's batched price, an UPDATE the quantum
//!   overwrites (absorbs) at the price of a GET — except one that holds a
//!   write replicated under `Strict` or `Logging`: it executes when its
//!   slot ends, and so do the GETs swept with it. Member *i*'s response
//!   leaves at dispatch + the cumulative price of members 0..=i, or when its
//!   quantum executed if that is later. Every observed response post tick
//!   must be the model's — no earlier than it, for a write that produced a
//!   record and so also waits for its secondary's ack.
//! - **Counters.** `ServerStats::{sweeps, swept_requests, absorbed_writes}`
//!   equal the model's.
//!
//! Directed tests pin what the proptest cannot see: spaced arrivals never
//! sweep and answer exactly at arrival + detection + singleton price; a
//! replicated sweep ships its writes in one doorbell while its GETs leave on
//! time and its writes wait for the covering ack; and an absorbed UPDATE is
//! blocked by a request on its key between it and its successor, answers
//! `NotFound` for a missing key, is applied after all when its successor
//! fails, waits for the covering ack, and passes on its successor's
//! redirect.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use hydra_db::server::{
    apply_request, OwnershipGate, ReadPlane, ScanBounds, ShardServer, SWEEP_MAX,
};
use hydra_db::{
    costs, ClientMode, Cluster, ClusterBuilder, ClusterConfig, ReplicationMode, SchedulerKind,
};
use hydra_sim::SimTime;
use hydra_store::{EngineConfig, ShardEngine};
use hydra_wire::{
    for_each_message_mut, messages, set_backlog_hint, BatchBuilder, BatchFrame, Request, Response,
    Status,
};
use proptest::prelude::*;

const KEYS: u8 = 8;
const REQ_BASE: u64 = 1 << 40;
/// Request ids of one arrival: `REQ_BASE + (arrival << 8) + position`.
const POSITIONS: u64 = 1 << 8;
/// Credit a lane earns per DRR visit (the server's `LANE_QUANTUM_NS`).
const LANE_QUANTUM: SimTime = 4_000;

#[derive(Debug, Clone)]
enum Op {
    Get(u8),
    Insert(u8, u8),
    Update(u8, u8),
    Delete(u8),
    /// An UPDATE of a key to a value no small arena holds.
    Big(u8),
}

#[derive(Debug, Clone)]
struct Arrival {
    /// Ticks after the previous arrival (0: same instant, queued behind it).
    gap: SimTime,
    conn: usize,
    /// One bare request, or (`frame`) a batch frame of these.
    ops: Vec<Op>,
    frame: bool,
}

impl Arrival {
    fn bare(gap: SimTime, conn: usize, op: Op) -> Arrival {
        Arrival {
            gap,
            conn,
            ops: vec![op],
            frame: false,
        }
    }
}

fn key_of(k: u8) -> Vec<u8> {
    format!("sweep-key-{k}").into_bytes()
}

/// The value tag `tag` writes.
fn value(tag: u8) -> Vec<u8> {
    vec![b'a' + tag % 26; 8 + (tag % 24) as usize]
}

/// The encoded request `op` becomes at `position` of arrival `i`.
fn encode(i: usize, position: usize, op: &Op) -> Vec<u8> {
    let req_id = REQ_BASE + i as u64 * POSITIONS + position as u64;
    match op {
        Op::Get(k) => Request::Get {
            req_id,
            key: &key_of(*k),
        }
        .encode(),
        Op::Insert(k, v) => Request::Insert {
            req_id,
            key: &key_of(*k),
            value: &value(*v),
        }
        .encode(),
        Op::Update(k, v) => Request::Update {
            req_id,
            key: &key_of(*k),
            value: &value(*v),
        }
        .encode(),
        Op::Delete(k) => Request::Delete {
            req_id,
            key: &key_of(*k),
        }
        .encode(),
        Op::Big(k) => Request::Update {
            req_id,
            key: &key_of(*k),
            value: &[b'z'; 6_000],
        }
        .encode(),
    }
}

/// The payload arrival `i` delivers: its one request, or its frame.
fn payload(i: usize, a: &Arrival) -> Vec<u8> {
    if !a.frame {
        return encode(i, 0, &a.ops[0]);
    }
    let mut frame = BatchBuilder::new();
    for (position, op) in a.ops.iter().enumerate() {
        frame.push(&encode(i, position, op));
    }
    frame.bytes().to_vec()
}

/// The arrival whose request `req_id` is.
fn arrival_of(req_id: u64) -> usize {
    ((req_id - REQ_BASE) / POSITIONS) as usize
}

fn is_write(req: &Request<'_>) -> bool {
    matches!(
        req,
        Request::Insert { .. } | Request::Update { .. } | Request::Delete { .. }
    )
}

/// The shard's absorption rule over a quantum's requests: `reqs[i]` is an
/// UPDATE and the first later request on its key is an UPDATE too.
fn absorbed(reqs: &[&Request<'_>], i: usize) -> bool {
    fn key_of<'a>(r: &Request<'a>) -> &'a [u8] {
        match r {
            Request::Get { key, .. }
            | Request::Insert { key, .. }
            | Request::Update { key, .. }
            | Request::Delete { key, .. } => key,
            Request::Scan { .. } => unreachable!("no scans here"),
        }
    }
    let Request::Update { key, .. } = reqs[i] else {
        return false;
    };
    let next = reqs[i + 1..].iter().find(|r| key_of(r) == *key);
    matches!(next, Some(Request::Update { .. }))
}

/// What an absorbed UPDATE costs in place of its own price: a GET's.
fn probe(swept: bool) -> SimTime {
    price(
        &Request::Get {
            req_id: 0,
            key: &[],
        },
        swept,
    )
}

/// Shard-core price of `req` over a Send/Recv connection: its poll step
/// and response WQE (`post_wqe_ns` is 0 here), the receive-queue charge,
/// and its own cost — at the batched marginal rate inside a sweep.
fn price(req: &Request<'_>, swept: bool) -> SimTime {
    let (probe, write) = if swept {
        (costs::BATCH_PROBE_FACTOR, costs::BATCH_WRITE_FACTOR)
    } else {
        (1.0, 1.0)
    };
    let own = match req {
        Request::Get { .. } => (costs::GET_NS as f64 * probe).round() as SimTime,
        Request::Insert { value, .. } | Request::Update { value, .. } => {
            (costs::WRITE_NS as f64 * write).round() as SimTime
                + (value.len() as f64 * costs::PER_BYTE_NS).round() as SimTime
        }
        Request::Delete { .. } => costs::DELETE_NS,
        Request::Scan { .. } => unreachable!("scans do not sweep"),
    };
    costs::POLL_NS + costs::RECV_CPU_NS + own
}

/// A queued task of the model: its arrival, its queued cost, and its price
/// as a sweep member (`None` for a frame, which never sweeps).
type Task = (usize, SimTime, Option<SimTime>);

/// The shard's two deficit-round-robin lanes (`DualLaneSched`), replayed.
#[derive(Default)]
struct Lanes {
    queued: [VecDeque<Task>; 2],
    deficit: [SimTime; 2],
    current: usize,
}

impl Lanes {
    fn is_empty(&self) -> bool {
        self.queued.iter().all(VecDeque::is_empty)
    }

    /// The DRR pick.
    fn next(&mut self) -> Option<Task> {
        if self.is_empty() {
            self.deficit = [0; 2];
            return None;
        }
        loop {
            let lane = self.current;
            match self.queued[lane].front() {
                None => {
                    self.deficit[lane] = 0;
                    self.current ^= 1;
                }
                Some(&(_, cost, _)) if self.deficit[lane] >= cost => {
                    self.deficit[lane] -= cost;
                    return self.queued[lane].pop_front();
                }
                Some(_) => {
                    self.deficit[lane] += LANE_QUANTUM;
                    self.current ^= 1;
                }
            }
        }
    }

    /// The next sweep member from the lane just served, at its sweep price:
    /// none at a frame, or where the lane's credit ends while the other
    /// lane waits.
    fn next_member(&mut self) -> Option<(usize, SimTime)> {
        let lane = self.current;
        let swept = self.queued[lane].front()?.2?;
        if self.deficit[lane] < swept {
            if !self.queued[lane ^ 1].is_empty() {
                return None;
            }
            self.deficit[lane] +=
                (swept - self.deficit[lane]).div_ceil(LANE_QUANTUM) * LANE_QUANTUM;
            self.deficit[lane ^ 1] = 0;
        }
        self.deficit[lane] -= swept;
        self.queued[lane].pop_front().map(|(i, _, _)| (i, swept))
    }
}

/// One quantum of the model: its members (arrival indices), when it
/// executed, and when each member's response is due.
struct Quantum {
    members: Vec<usize>,
    exec_at: SimTime,
    due: Vec<SimTime>,
}

/// Replays the arrivals (`at`, nudged past any tick where the core
/// dispatches, so no arrival races a dispatch at the same instant) through
/// the shard core: an idle shard notices an arrival after `detection`; a
/// busy one picks from its lanes when the running quantum ends. `late`:
/// a quantum that holds a write executes when its slot ends.
fn model(
    at: &mut [SimTime],
    arrivals: &[Arrival],
    reqs: &[Vec<Request<'_>>],
    detection: SimTime,
    fifo: bool,
    late: bool,
) -> Vec<Quantum> {
    let mut quanta = Vec::new();
    let mut lanes = Lanes::default();
    // The next dispatch: the armed detection pump, or the running
    // quantum's end. Never both.
    let mut next_dispatch: Option<SimTime> = None;
    let mut running = false;
    let mut i = 0;
    loop {
        if i < at.len() {
            if i > 0 {
                at[i] = at[i].max(at[i - 1]);
            }
            if next_dispatch == Some(at[i]) {
                at[i] += 1;
            }
            if next_dispatch.is_none_or(|d| at[i] < d) {
                if !running && next_dispatch.is_none() && lanes.is_empty() {
                    next_dispatch = Some(at[i] + detection);
                }
                let task = if arrivals[i].frame {
                    let frame: Vec<&Request<'_>> = reqs[i].iter().collect();
                    let own: SimTime = (0..frame.len())
                        .map(|k| match absorbed(&frame, k) {
                            true => probe(true) - costs::POLL_NS,
                            false => price(frame[k], true) - costs::POLL_NS,
                        })
                        .sum();
                    (i, costs::POLL_NS + own, None)
                } else {
                    (i, price(&reqs[i][0], false), Some(price(&reqs[i][0], true)))
                };
                // Frames ride the throughput lane; FIFO puts everything there.
                let lane = usize::from(fifo || arrivals[i].frame);
                lanes.queued[lane].push_back(task);
                i += 1;
                continue;
            }
        }
        let Some(d) = next_dispatch.take() else {
            break;
        };
        let Some((first, cost, swept)) = lanes.next() else {
            running = false;
            continue;
        };
        running = true;
        let mut picks = Vec::new();
        match swept {
            Some(p) => {
                // The head pays its sweep price if anything joins it.
                let lane = lanes.current;
                lanes.deficit[lane] += cost - p;
                if let Some(second) = lanes.next_member() {
                    picks.extend([(first, p), second]);
                    while picks.len() < SWEEP_MAX {
                        let Some(member) = lanes.next_member() else {
                            break;
                        };
                        picks.push(member);
                    }
                } else {
                    lanes.deficit[lane] -= cost - p;
                    picks.push((first, cost));
                }
            }
            None => picks.push((first, cost)),
        }
        if picks.len() > 1 {
            // A member the sweep overwrites costs a GET; the lane gets the
            // difference back.
            let members: Vec<&Request<'_>> = picks.iter().map(|&(m, _)| &reqs[m][0]).collect();
            for (k, pick) in picks.iter_mut().enumerate() {
                if absorbed(&members, k) {
                    lanes.deficit[lanes.current] += pick.1 - probe(true);
                    pick.1 = probe(true);
                }
            }
        }
        let mut t = d;
        let due: Vec<SimTime> = picks
            .iter()
            .map(|&(_, p)| {
                t += p;
                t
            })
            .collect();
        let writes = picks.iter().any(|&(m, _)| reqs[m].iter().any(is_write));
        quanta.push(Quantum {
            members: picks.iter().map(|&(m, _)| m).collect(),
            exec_at: if late && writes { t } else { d },
            due,
        });
        next_dispatch = Some(t);
    }
    quanta
}

/// Responses caught on the client side: (connection, payload).
type Caught = Rc<RefCell<Vec<(usize, Vec<u8>)>>>;

/// A one-partition cluster with `conns` connected Send/Recv clients whose
/// response deliveries land in the returned list instead of the clients,
/// its primary replicating to one secondary under `repl`, if any. `gated`
/// first joins another server by live migration, leaving the shard a gate
/// that redirects the keys it gave away.
fn cluster(
    conns: usize,
    scheduler: SchedulerKind,
    repl: Option<ReplicationMode>,
    gated: bool,
) -> (Cluster, Caught) {
    cluster_of(conns, scheduler, repl, gated, 1 << 16)
}

/// [`cluster`], its shards' arenas `arena_words` long.
fn cluster_of(
    conns: usize,
    scheduler: SchedulerKind,
    repl: Option<ReplicationMode>,
    gated: bool,
    arena_words: usize,
) -> (Cluster, Caught) {
    let replicas = u32::from(repl.is_some());
    let mut cluster = ClusterBuilder::new(ClusterConfig {
        seed: 26,
        server_nodes: 1 + replicas,
        partitions: Some(1),
        client_nodes: 1,
        client_mode: ClientMode::SendRecv,
        scheduler,
        replicas,
        replication: repl.unwrap_or(ReplicationMode::GroupCommit),
        arena_words,
        ..ClusterConfig::default()
    })
    .build();
    if gated {
        cluster.add_server_with_migration(1);
    }
    // A GET of an absent key the shard owns opens each client's connection
    // (the server numbers them in this order) and leaves the engine
    // untouched. It also leaves the shard's lanes as the model starts them:
    // the latency lane was served last.
    let me = cluster.shard(0).primary.borrow().id;
    let connect = (0..)
        .map(|i| format!("connect-{i}").into_bytes())
        .find(|k| cluster.directory.borrow().ring.route(k) == Some(me))
        .expect("the shard owns some key");
    let clients: Vec<_> = (0..conns).map(|_| cluster.add_client(0)).collect();
    for c in &clients {
        assert_eq!(
            hydra_integration::get_value(&mut cluster, c, &connect),
            None
        );
    }
    let caught: Caught = Rc::default();
    let client_node = cluster.client_nodes[0];
    for (conn, c) in clients.iter().enumerate() {
        let qp = c.conn_qp(0).expect("connected");
        let caught = caught.clone();
        cluster.fab.set_recv_handler(
            qp,
            client_node,
            Rc::new(move |_, _, payload| caught.borrow_mut().push((conn, payload))),
        );
    }
    (cluster, caught)
}

/// Delay before an idle shard with `conns` connections notices an arrival
/// (`ShardServer::detection_ns` at the default 100 ns sleep backoff).
fn detection(conns: usize) -> SimTime {
    costs::POLL_NS * (conns as u64 / 2) + 100 / 2
}

/// Schedules the arrivals at `at` into partition 0's primary, then steps
/// the simulation until every response has been caught. Returns the tick
/// each answer was posted at (the shard's `ServerStats::responses` rising:
/// a frame's response posts all its answers at once).
fn drive(
    cluster: &mut Cluster,
    caught: &Caught,
    at: &[SimTime],
    arrivals: &[Arrival],
) -> Vec<SimTime> {
    let shard = cluster.shard(0).primary;
    let answered = || shard.borrow().stats().responses;
    for (i, (a, &t)) in arrivals.iter().zip(at).enumerate() {
        let (shard, conn, payload) = (shard.clone(), a.conn, payload(i, a));
        cluster.sim.schedule_at(t, move |sim| {
            ShardServer::on_request_payload(&shard, sim, conn, payload);
        });
    }
    let mut posts = Vec::new();
    let mut sent = answered();
    while caught.borrow().len() < arrivals.len() {
        assert!(cluster.sim.step(), "queue drained before every response");
        let now = answered();
        posts.extend((sent..now).map(|_| cluster.sim.now()));
        sent = now;
    }
    posts
}

fn engine_of(cfg: &ClusterConfig) -> ShardEngine {
    ShardEngine::new(EngineConfig {
        arena_words: cfg.arena_words,
        write_mode: cfg.write_mode,
        min_lease_ns: cfg.min_lease_ns,
        max_lease_ns: cfg.max_lease_ns,
        ..EngineConfig::default()
    })
}

fn contents(engine: &ShardEngine) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut items = BTreeMap::new();
    engine.for_each_item(|k, v| {
        items.insert(k, v);
    });
    items
}

fn sweeps_equal_one_at_a_time(
    conns: usize,
    arrivals: Vec<Arrival>,
    scheduler: SchedulerKind,
    repl: Option<ReplicationMode>,
    gated: bool,
) -> Result<(), TestCaseError> {
    let (mut cluster, caught) = cluster(conns, scheduler, repl, gated);
    let shard = cluster.shard(0).primary;
    let payloads: Vec<Vec<u8>> = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| payload(i, a))
        .collect();
    let reqs: Vec<Vec<Request<'_>>> = payloads
        .iter()
        .map(|p| {
            messages(p)
                .map(|m| Request::decode(m).expect("well-formed"))
                .collect()
        })
        .collect();
    let mut at: Vec<SimTime> = Vec::with_capacity(arrivals.len());
    let mut t = cluster.sim.now() + 10_000;
    for a in &arrivals {
        t += a.gap;
        at.push(t);
    }
    let late = repl.is_some_and(|m| !m.overlaps_merge());
    let fifo = scheduler == SchedulerKind::Fifo;
    let quanta = model(&mut at, &arrivals, &reqs, detection(conns), fifo, late);
    let before = shard.borrow().stats();
    let observed = drive(&mut cluster, &caught, &at, &arrivals);

    // Counters: the sweeps the model formed.
    let stats = shard.borrow().stats();
    let swept: Vec<&Quantum> = quanta.iter().filter(|q| q.members.len() > 1).collect();
    prop_assert_eq!(stats.sweeps - before.sweeps, swept.len() as u64);
    prop_assert_eq!(
        stats.swept_requests - before.swept_requests,
        swept.iter().map(|q| q.members.len() as u64).sum::<u64>()
    );

    // Bytes: one request at a time, in arrival order, each at the instant
    // its quantum executed, on a mirror of the shard's engine and gate. A
    // frame's answers travel in one response frame.
    let mut mirror = engine_of(&cluster.cfg);
    let mut plane = ReadPlane::disabled();
    let (arena, me) = {
        let s = shard.borrow();
        (s.arena_region, s.id)
    };
    let dir = cluster.directory.clone();
    let wrong_owner = |k: &[u8]| {
        let d = dir.borrow();
        (d.ring.route(k) != Some(me)).then_some(d.generation)
    };
    let owns = |k: &[u8]| dir.borrow().ring.route(k) == Some(me);
    let gate = OwnershipGate {
        wrong_owner: &wrong_owner,
        owns: &owns,
    };
    let mut want: Vec<Vec<u8>> = vec![Vec::new(); arrivals.len()];
    // Whether an arrival produced a replication record.
    let mut recorded = vec![false; arrivals.len()];
    let mut scratch = Vec::new();
    let mut last_exec = None;
    let mut absorbed_writes = 0;
    for q in &quanta {
        // The shard frees retired blocks from an event at the instant they
        // were retired: it runs between two quanta, unless the second
        // executes in the same instant (a late quantum ran as its slot
        // ended, and the next pick runs at that dispatch). Where a block
        // lands shows in a GET's remote pointer.
        if let Some(t) = last_exec.filter(|&t| t < q.exec_at) {
            mirror.pump_reclaim(t);
        }
        last_exec = Some(q.exec_at);
        let quantum: Vec<&Request<'_>> = q.members.iter().flat_map(|&m| &reqs[m]).collect();
        let mut at = 0;
        for &m in &q.members {
            let mut frame = BatchBuilder::new();
            for req in &reqs[m] {
                let over = absorbed(&quantum, at);
                at += 1;
                frame.push_with(|out| {
                    let Request::Update { req_id, key, .. } = req else {
                        recorded[m] |= apply_request(
                            &mut mirror,
                            q.exec_at,
                            req,
                            arena,
                            &mut scratch,
                            ScanBounds::of(&cluster.cfg),
                            &mut plane,
                            gated.then_some(&gate),
                            out,
                        )
                        .is_some();
                        return;
                    };
                    let redirect = wrong_owner(key).filter(|_| gated);
                    let answer = match redirect {
                        _ if !over => {
                            let record = apply_request(
                                &mut mirror,
                                q.exec_at,
                                req,
                                arena,
                                &mut scratch,
                                ScanBounds::of(&cluster.cfg),
                                &mut plane,
                                gated.then_some(&gate),
                                out,
                            );
                            recorded[m] |= record.is_some();
                            return;
                        }
                        Some(generation) => Response::wrong_owner(*req_id, generation),
                        None if mirror.peek(key).is_some() => {
                            // Its Ok waits for the ack its successor's
                            // record brings.
                            recorded[m] = true;
                            Response::status_only(Status::Ok, *req_id)
                        }
                        None => Response::status_only(Status::NotFound, *req_id),
                    };
                    absorbed_writes += 1;
                    answer.encode_into(out);
                });
            }
            want[m] = if arrivals[m].frame {
                frame.bytes().to_vec()
            } else {
                messages(frame.bytes()).next().expect("one answer").to_vec()
            };
        }
    }
    let caught = caught.borrow();
    prop_assert_eq!(caught.len(), arrivals.len());
    for (conn, payload) in caught.iter() {
        let mut got = payload.clone();
        if !for_each_message_mut(&mut got, |m| set_backlog_hint(m, 0)) {
            set_backlog_hint(&mut got, 0);
        }
        let first = messages(&got).next().expect("an answer");
        let i = arrival_of(Response::decode(first).expect("a response").req_id);
        prop_assert_eq!(*conn, arrivals[i].conn, "answered on its own connection");
        prop_assert_eq!(BatchFrame::is_batch(&got), arrivals[i].frame);
        prop_assert_eq!(&got, &want[i], "response to arrival {}", i);
    }
    prop_assert_eq!(contents(&shard.borrow().engine.borrow()), contents(&mirror));
    prop_assert_eq!(
        shard.borrow().stats().absorbed_writes - before.absorbed_writes,
        absorbed_writes
    );

    // Timing: every answer posted where the model puts it — no earlier,
    // for one that also waits for its record's ack.
    let (mut exact, mut bounds) = (Vec::new(), Vec::new());
    for q in &quanta {
        for (&m, &due) in q.members.iter().zip(&q.due) {
            let due = due.max(q.exec_at);
            let answers = std::iter::repeat_n(due, arrivals[m].ops.len());
            if repl.is_some() && recorded[m] {
                bounds.extend(answers);
            } else {
                exact.extend(answers);
            }
        }
    }
    let mut left = observed.clone();
    for due in &exact {
        let at = left.iter().position(|p| p == due);
        prop_assert!(
            at.is_some(),
            "no response posted at {}: {:?}",
            due,
            observed
        );
        left.remove(at.unwrap());
    }
    bounds.sort_unstable();
    prop_assert_eq!(left.len(), bounds.len());
    for (posted, due) in left.iter().zip(&bounds) {
        prop_assert!(
            posted >= due,
            "a write posted at {}, before {}",
            posted,
            due
        );
    }
    Ok(())
}

fn op() -> impl Strategy<Value = Op> {
    let k = 0..KEYS;
    prop_oneof![
        4 => k.clone().prop_map(Op::Get),
        2 => (k.clone(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => (k.clone(), any::<u8>()).prop_map(|(k, v)| Op::Update(k, v)),
        1 => k.prop_map(Op::Delete),
    ]
}

/// Arrivals on up to 16 connections (folded onto the case's count): mostly
/// bare requests, some frames of one to six.
fn arrivals() -> impl Strategy<Value = Vec<Arrival>> {
    // Mostly bursts (queued behind the previous arrival), some arrivals
    // mid-quantum, a few after the shard went idle again.
    let gap = prop_oneof![4 => Just(0u64), 3 => 1..2_000u64, 1 => 2_000..40_000u64];
    let frame = prop_oneof![5 => Just(0usize), 1 => 1..7usize];
    proptest::collection::vec(
        (gap, 0..16usize, proptest::collection::vec(op(), 6), frame).prop_map(
            |(gap, conn, mut ops, frame)| {
                ops.truncate(frame.max(1));
                Arrival {
                    gap,
                    conn,
                    ops,
                    frame: frame > 0,
                }
            },
        ),
        1..72,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn sweeps_answer_like_one_request_at_a_time(
        conns in 2usize..=16,
        mut arrivals in arrivals(),
        fifo in any::<bool>(),
        repl in 0..4usize,
        gated in any::<bool>(),
    ) {
        for a in &mut arrivals {
            a.conn %= conns;
        }
        let scheduler = if fifo { SchedulerKind::Fifo } else { SchedulerKind::DualLane };
        let repl = [
            None,
            Some(ReplicationMode::Strict),
            Some(ReplicationMode::Logging { ack_every: 4 }),
            Some(ReplicationMode::GroupCommit),
        ][repl];
        sweeps_equal_one_at_a_time(conns, arrivals, scheduler, repl, gated)?;
    }
}

/// The gated arm exercises redirects: the join moved some of the hot keys
/// away from the shard, and kept some.
#[test]
fn the_gate_redirects_some_hot_keys_and_keeps_others() {
    let (cluster, _) = cluster(2, SchedulerKind::DualLane, None, true);
    let me = cluster.shard(0).primary.borrow().id;
    let dir = cluster.directory.borrow();
    let kept = (0..KEYS)
        .filter(|&k| dir.ring.route(&key_of(k)) == Some(me))
        .count();
    assert!(
        0 < kept && kept < KEYS as usize,
        "{kept} of {KEYS} keys kept"
    );
}

/// A request that finds the shard idle is a sweep of one at its singleton
/// price: it runs at dispatch and answers when its slot ends, at arrival +
/// detection + its own unbatched price.
#[test]
fn spaced_arrivals_never_sweep_and_keep_singleton_timing() {
    for scheduler in [SchedulerKind::DualLane, SchedulerKind::Fifo] {
        let conns = 4;
        let (mut cluster, caught) = cluster(conns, scheduler, None, false);
        let ops = [
            Op::Insert(1, 3),
            Op::Get(1),
            Op::Update(1, 9),
            Op::Get(2),
            Op::Delete(1),
            Op::Get(1),
        ];
        let arrivals: Vec<Arrival> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| Arrival::bare(50_000, i % conns, op.clone()))
            .collect();
        let start = cluster.sim.now();
        let at: Vec<SimTime> = (1..=ops.len() as u64).map(|i| start + i * 50_000).collect();
        let posts = drive(&mut cluster, &caught, &at, &arrivals);
        let expected: Vec<SimTime> = arrivals
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let payload = encode(i, 0, &a.ops[0]);
                at[i] + detection(conns) + price(&Request::decode(&payload).unwrap(), false)
            })
            .collect();
        assert_eq!(posts, expected, "{scheduler:?}");
        assert_eq!(cluster.shard(0).primary.borrow().stats().sweeps, 0);
    }
}

/// Under group commit, a sweep's writes reach the secondary as one
/// shipment — one doorbell beside the members' own response posts — its
/// GETs leave at their cumulative price, and each write leaves only once
/// the ack covering the shipment is in (never before its own price).
#[test]
fn a_replicated_sweep_ships_once_and_holds_only_its_writes() {
    let conns = 8;
    let mut cluster = ClusterBuilder::new(ClusterConfig {
        seed: 26,
        server_nodes: 2,
        partitions: Some(1),
        client_nodes: 1,
        client_mode: ClientMode::SendRecv,
        replicas: 1,
        replication: ReplicationMode::GroupCommit,
        arena_words: 1 << 16,
        ..ClusterConfig::default()
    })
    .build();
    let clients: Vec<_> = (0..conns).map(|_| cluster.add_client(0)).collect();
    for (k, c) in clients.iter().enumerate() {
        hydra_integration::put_ok(&mut cluster, c, &key_of(k as u8), b"before");
    }
    cluster.sim.run();
    let caught: Caught = Rc::default();
    for (conn, c) in clients.iter().enumerate() {
        let caught = caught.clone();
        cluster.fab.set_recv_handler(
            c.conn_qp(0).expect("connected"),
            cluster.client_nodes[0],
            Rc::new(move |_, _, payload| caught.borrow_mut().push((conn, payload))),
        );
    }
    let ops: Vec<Op> = (0..conns as u8)
        .map(|k| {
            if k % 2 == 0 {
                Op::Update(k, k)
            } else {
                Op::Get(k)
            }
        })
        .collect();
    let arrivals: Vec<Arrival> = ops
        .iter()
        .enumerate()
        .map(|(conn, op)| Arrival::bare(0, conn, op.clone()))
        .collect();
    let t0 = cluster.sim.now() + 10_000;
    let at = vec![t0; conns];
    let node = cluster.shard(0).primary.borrow().node;
    let before = cluster.fab.node_stats(node);
    let posts = drive(&mut cluster, &caught, &at, &arrivals);
    let after = cluster.fab.node_stats(node);
    assert_eq!(
        after.doorbells - before.doorbells,
        conns as u64 + 1,
        "one doorbell per response, one for the whole shipment"
    );
    let stats = cluster.shard(0).primary.borrow().stats();
    assert_eq!((stats.sweeps, stats.swept_requests), (1, conns as u64));

    // Member i leaves at dispatch + its cumulative price, writes no earlier.
    let dispatch = t0 + detection(conns);
    let mut t = dispatch;
    let (mut gets, mut writes) = (Vec::new(), Vec::new());
    for (i, a) in arrivals.iter().enumerate() {
        let payload = encode(i, 0, &a.ops[0]);
        t += price(&Request::decode(&payload).unwrap(), true);
        match a.ops[0] {
            Op::Get(_) => gets.push(t),
            _ => writes.push(t),
        }
    }
    let mut left = posts.clone();
    for g in &gets {
        let at = left.iter().position(|p| p == g);
        assert!(
            at.is_some(),
            "a GET due at {g} did not leave then: {posts:?}"
        );
        left.remove(at.unwrap());
    }
    assert_eq!(left.len(), writes.len());
    for (w, due) in left.iter().zip(&writes) {
        assert!(w >= due, "a write left at {w}, before its price ({due})");
    }
    assert!(
        left[0] > writes[0],
        "the first write waits for the shipment's ack"
    );
}

/// Runs `setup` one request at a time on connection 0, then `ops` at one
/// instant, one per connection, so the shard takes them as one sweep.
/// Returns what each of `ops` answered (status and value) and the tick each
/// answer of the burst was posted at, in time order.
fn burst(
    cluster: &mut Cluster,
    caught: &Caught,
    setup: &[Op],
    ops: &[Op],
) -> (Vec<(Status, Vec<u8>)>, Vec<SimTime>) {
    let start = cluster.sim.now() + 10_000;
    let spaced = setup.iter().enumerate().map(|(i, op)| {
        let at = start + i as SimTime * 50_000;
        (at, Arrival::bare(0, 0, op.clone()))
    });
    let burst_at = start + setup.len() as SimTime * 50_000;
    let together =
        (ops.iter().enumerate()).map(|(c, op)| (burst_at, Arrival::bare(0, c, op.clone())));
    let (at, arrivals): (Vec<SimTime>, Vec<Arrival>) = spaced.chain(together).unzip();
    let before = cluster.shard(0).primary.borrow().stats().sweeps;
    let posts = drive(cluster, caught, &at, &arrivals);
    assert_eq!(
        cluster.shard(0).primary.borrow().stats().sweeps - before,
        1,
        "the burst is one sweep"
    );
    let mut answers = vec![None; arrivals.len()];
    for (_, payload) in caught.borrow().iter() {
        let resp = Response::decode(payload).expect("a response");
        answers[arrival_of(resp.req_id)] = Some((resp.status, resp.value.to_vec()));
    }
    let answers = answers.split_off(setup.len());
    (
        answers.into_iter().map(Option::unwrap).collect(),
        posts[setup.len()..].to_vec(),
    )
}

fn absorbed_writes(cluster: &Cluster) -> u64 {
    cluster.shard(0).primary.borrow().stats().absorbed_writes
}

fn value_in(cluster: &Cluster, k: u8) -> Option<Vec<u8>> {
    contents(&cluster.shard(0).primary.borrow().engine.borrow()).remove(&key_of(k))
}

/// Two UPDATEs of a key in one sweep: the first is answered and never
/// written. A GET of the key between them sees the first, so it blocks that.
#[test]
fn a_request_on_the_key_between_two_updates_blocks_absorption() {
    let (mut cluster, caught) = cluster(3, SchedulerKind::DualLane, None, false);
    let updates = [Op::Update(1, 1), Op::Update(1, 2)];
    let (answers, _) = burst(&mut cluster, &caught, &[Op::Insert(1, 0)], &updates);
    assert!(answers.iter().all(|(s, _)| *s == Status::Ok));
    assert_eq!(absorbed_writes(&cluster), 1);
    assert_eq!(value_in(&cluster, 1), Some(value(2)));
    let (mut blocked, caught) = self::cluster(3, SchedulerKind::DualLane, None, false);
    let between = [Op::Update(1, 1), Op::Get(1), Op::Update(1, 2)];
    let (answers, _) = burst(&mut blocked, &caught, &[Op::Insert(1, 0)], &between);
    assert_eq!(answers[1], (Status::Ok, value(1)), "the GET sees the first");
    assert_eq!(absorbed_writes(&blocked), 0);
    assert_eq!(value_in(&blocked, 1), Some(value(2)));
}

/// An absorbed UPDATE of a key the shard does not hold answers `NotFound`,
/// as its successor does.
#[test]
fn an_absorbed_update_of_a_missing_key_answers_not_found() {
    let (mut cluster, caught) = cluster(2, SchedulerKind::DualLane, None, false);
    let updates = [Op::Update(3, 1), Op::Update(3, 2)];
    let (answers, _) = burst(&mut cluster, &caught, &[], &updates);
    let statuses: Vec<Status> = answers.iter().map(|(s, _)| *s).collect();
    assert_eq!(statuses, [Status::NotFound, Status::NotFound]);
    assert_eq!(absorbed_writes(&cluster), 1);
    assert_eq!(value_in(&cluster, 3), None);
}

/// When the UPDATE that overwrote an absorbed one fails — its value does not
/// fit the arena — the absorbed one is applied after all, and answers what
/// applying it answered.
#[test]
fn a_failed_successor_makes_the_absorbed_write_apply() {
    let small_arena = 1 << 9;
    let (mut cluster, caught) = cluster_of(2, SchedulerKind::DualLane, None, false, small_arena);
    let updates = [Op::Update(1, 1), Op::Big(1)];
    let (answers, _) = burst(&mut cluster, &caught, &[Op::Insert(1, 0)], &updates);
    let statuses: Vec<Status> = answers.iter().map(|(s, _)| *s).collect();
    assert_eq!(statuses, [Status::Ok, Status::Error]);
    assert_eq!(value_in(&cluster, 1), Some(value(1)), "applied after all");
    assert_eq!(absorbed_writes(&cluster), 0);
    let (mut both, caught) = cluster_of(2, SchedulerKind::DualLane, None, false, small_arena);
    let updates = [Op::Big(1), Op::Big(1)];
    let (answers, _) = burst(&mut both, &caught, &[Op::Insert(1, 0)], &updates);
    let statuses: Vec<Status> = answers.iter().map(|(s, _)| *s).collect();
    assert_eq!(
        statuses,
        [Status::Error, Status::Error],
        "its answer corrected"
    );
    assert_eq!(value_in(&both, 1), Some(value(0)));
}

/// An absorbed UPDATE's `Ok` is a write's: it waits for the ack covering
/// the sweep's shipment — which its successor's record brings — and does not
/// leave at its own price.
#[test]
fn an_absorbed_ok_waits_for_the_covering_ack() {
    let repl = Some(ReplicationMode::GroupCommit);
    let (mut cluster, caught) = cluster(2, SchedulerKind::DualLane, repl, false);
    let updates = [Op::Update(1, 1), Op::Update(1, 2)];
    let start = cluster.sim.now() + 10_000;
    let (answers, posts) = burst(&mut cluster, &caught, &[Op::Insert(1, 0)], &updates);
    assert!(answers.iter().all(|(s, _)| *s == Status::Ok));
    assert_eq!(absorbed_writes(&cluster), 1);
    let own_price = start + 50_000 + detection(2) + probe(true);
    assert!(
        posts.iter().all(|&p| p > own_price),
        "both answers wait for the ack, none leaves at {own_price}: {posts:?}"
    );
}

/// Under migration, an absorbed UPDATE of a key the shard gave away gets
/// the redirect its successor gets.
#[test]
fn an_absorbed_update_passes_on_its_successors_redirect() {
    let (mut cluster, caught) = cluster(2, SchedulerKind::DualLane, None, true);
    let me = cluster.shard(0).primary.borrow().id;
    let moved = (0..KEYS)
        .find(|&k| cluster.directory.borrow().ring.route(&key_of(k)) != Some(me))
        .expect("the join moved a key");
    let updates = [Op::Update(moved, 1), Op::Update(moved, 2)];
    let (answers, _) = burst(&mut cluster, &caught, &[], &updates);
    let statuses: Vec<Status> = answers.iter().map(|(s, _)| *s).collect();
    assert_eq!(statuses, [Status::WrongOwner, Status::WrongOwner]);
    assert_eq!(absorbed_writes(&cluster), 1);
}

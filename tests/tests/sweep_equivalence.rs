//! Sweep equivalence: a busy shard serves the bare requests its lane holds,
//! from every connection, as one quantum — and that changes *when* a
//! response leaves, never *what* it says.
//!
//! Requests are injected straight into a shard's admission on 2–16 client
//! connections, in random interleavings over a few hot keys, under both
//! schedulers, with and without an installed migration gate (a completed
//! join leaves the source shard redirecting the keys it gave away). The
//! responses are caught on the client side of each Send/Recv connection and
//! checked against three oracles:
//!
//! - **Bytes.** Every response (backlog hint zeroed) and the final engine
//!   state equal one-at-a-time execution in arrival order: `apply_request`
//!   on a mirror engine, each request at the instant its quantum executed.
//! - **Timing.** A model of the core replays the arrivals. A quantum of one
//!   is the singleton it always was — priced alone, executed and answered
//!   at the end of its slot; a sweep of two or more executes at dispatch
//!   and member *i*'s response leaves at dispatch + the cumulative price
//!   of members 0..=i (each its own poll step, its own response WQE, the
//!   batched marginal cost). Every observed response post tick must be the
//!   model's.
//! - **Counters.** `ServerStats::{sweeps, swept_requests}` equal the
//!   model's.
//!
//! Two directed tests pin what the proptest cannot see: spaced arrivals
//! never sweep and answer exactly at arrival + detection + singleton price,
//! and a replicated sweep ships its writes in one doorbell while its GETs
//! leave on time and its writes wait for the covering ack.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use hydra_db::server::{apply_request, OwnershipGate, ReadPlane, ScanBounds, ShardServer};
use hydra_db::{
    costs, ClientMode, Cluster, ClusterBuilder, ClusterConfig, ReplicationMode, SchedulerKind,
};
use hydra_sim::SimTime;
use hydra_store::{EngineConfig, ShardEngine, LOOKUP_BATCH};
use hydra_wire::{set_backlog_hint, KeyList, Request, Response};
use proptest::prelude::*;

const KEYS: u8 = 8;
const REQ_BASE: u64 = 1 << 40;

#[derive(Debug, Clone)]
enum Op {
    Get(u8),
    Insert(u8, u8),
    Update(u8, u8),
    Delete(u8),
    Renew(u8, u8),
}

#[derive(Debug, Clone)]
struct Arrival {
    /// Ticks after the previous arrival (0: same instant, queued behind it).
    gap: SimTime,
    conn: usize,
    op: Op,
}

fn key_of(k: u8) -> Vec<u8> {
    format!("sweep-key-{k}").into_bytes()
}

/// The encoded request `op` becomes as arrival `i`.
fn encode(i: usize, op: &Op) -> Vec<u8> {
    let req_id = REQ_BASE + i as u64;
    let value = |tag: u8| vec![b'a' + tag % 26; 8 + (tag % 24) as usize];
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
        Op::Renew(a, b) => {
            let (a, b) = (key_of(*a), key_of(*b));
            let keys = [a.as_slice(), b.as_slice()];
            Request::LeaseRenew {
                req_id,
                keys: KeyList::Slices(&keys),
            }
            .encode()
        }
    }
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
        Request::LeaseRenew { keys, .. } => costs::GET_NS / 2 * keys.len().max(1) as SimTime,
        Request::Scan { .. } => unreachable!("scans do not sweep"),
    };
    costs::POLL_NS + costs::RECV_CPU_NS + own
}

/// One quantum of the model: its members (arrival indices), when it
/// executed, and when each member's response was posted.
struct Quantum {
    members: Vec<usize>,
    exec_at: SimTime,
    posts: Vec<SimTime>,
}

/// Replays the arrivals (`at`, nudged past any tick where the core
/// dispatches, so no arrival races a dispatch at the same instant) through
/// the shard core: an idle shard notices an arrival after `detection`; a
/// busy one takes what its lane holds, up to `LOOKUP_BATCH`, when the
/// running quantum ends.
fn model(at: &mut [SimTime], reqs: &[Request<'_>], detection: SimTime) -> Vec<Quantum> {
    let mut quanta = Vec::new();
    let mut queue: VecDeque<usize> = VecDeque::new();
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
                if !running && next_dispatch.is_none() && queue.is_empty() {
                    next_dispatch = Some(at[i] + detection);
                }
                queue.push_back(i);
                i += 1;
                continue;
            }
        }
        let Some(d) = next_dispatch.take() else {
            break;
        };
        running = !queue.is_empty();
        if !running {
            continue;
        }
        let n = queue.len().min(LOOKUP_BATCH);
        let members: Vec<usize> = queue.drain(..n).collect();
        let quantum = if n == 1 {
            let end = d + price(&reqs[members[0]], false);
            Quantum {
                members,
                exec_at: end,
                posts: vec![end],
            }
        } else {
            let mut t = d;
            let posts = members
                .iter()
                .map(|&m| {
                    t += price(&reqs[m], true);
                    t
                })
                .collect();
            Quantum {
                members,
                exec_at: d,
                posts,
            }
        };
        next_dispatch = Some(*quantum.posts.last().expect("a member"));
        quanta.push(quantum);
    }
    quanta
}

/// Responses caught on the client side: (connection, payload).
type Caught = Rc<RefCell<Vec<(usize, Vec<u8>)>>>;

/// A one-shard cluster with `conns` connected Send/Recv clients whose
/// response deliveries land in the returned list instead of the clients.
/// `gated` first joins a second server by live migration, leaving the shard
/// a gate that redirects the keys it gave away.
fn cluster(conns: usize, scheduler: SchedulerKind, gated: bool) -> (Cluster, Caught) {
    let mut cluster = ClusterBuilder::new(ClusterConfig {
        seed: 26,
        server_nodes: 1,
        partitions: Some(1),
        client_nodes: 1,
        client_mode: ClientMode::SendRecv,
        scheduler,
        arena_words: 1 << 16,
        expected_items: 1 << 10,
        ..ClusterConfig::default()
    })
    .build();
    let clients: Vec<_> = (0..conns).map(|_| cluster.add_client(0)).collect();
    // A GET of an absent key opens each client's connection (the server
    // numbers them in this order) and leaves the engine untouched.
    for c in &clients {
        assert_eq!(
            hydra_integration::get_value(&mut cluster, c, b"connect"),
            None
        );
    }
    if gated {
        cluster.add_server_with_migration(1);
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
/// of every response post (the shard node's Send count rising).
fn drive(
    cluster: &mut Cluster,
    caught: &Caught,
    at: &[SimTime],
    arrivals: &[Arrival],
) -> Vec<SimTime> {
    let shard = cluster.shard(0).primary;
    let node = shard.borrow().node;
    for (i, (a, &t)) in arrivals.iter().zip(at).enumerate() {
        let (shard, conn, payload) = (shard.clone(), a.conn, encode(i, &a.op));
        cluster.sim.schedule_at(t, move |sim| {
            ShardServer::on_request_payload(&shard, sim, conn, payload);
        });
    }
    let mut posts = Vec::new();
    let mut sent = cluster.fab.node_stats(node).sends;
    while caught.borrow().len() < arrivals.len() {
        assert!(cluster.sim.step(), "queue drained before every response");
        let now = cluster.fab.node_stats(node).sends;
        posts.extend((sent..now).map(|_| cluster.sim.now()));
        sent = now;
    }
    posts
}

fn engine_of(cfg: &ClusterConfig) -> ShardEngine {
    ShardEngine::new(EngineConfig {
        arena_words: cfg.arena_words,
        expected_items: cfg.expected_items,
        index: cfg.index,
        write_mode: cfg.write_mode,
        min_lease_ns: cfg.min_lease_ns,
        max_lease_ns: cfg.max_lease_ns,
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
    gated: bool,
) -> Result<(), TestCaseError> {
    let (mut cluster, caught) = cluster(conns, scheduler, gated);
    let shard = cluster.shard(0).primary;
    let payloads: Vec<Vec<u8>> = arrivals
        .iter()
        .enumerate()
        .map(|(i, a)| encode(i, &a.op))
        .collect();
    let reqs: Vec<Request<'_>> = payloads
        .iter()
        .map(|p| Request::decode(p).expect("well-formed"))
        .collect();
    let mut at: Vec<SimTime> = Vec::with_capacity(arrivals.len());
    let mut t = cluster.sim.now() + 10_000;
    for a in &arrivals {
        t += a.gap;
        at.push(t);
    }
    let quanta = model(&mut at, &reqs, detection(conns));
    let before = shard.borrow().stats();
    let observed = drive(&mut cluster, &caught, &at, &arrivals);

    // Timing: every post where the model puts it.
    let mut expected: Vec<SimTime> = quanta.iter().flat_map(|q| q.posts.clone()).collect();
    expected.sort_unstable();
    prop_assert_eq!(&observed, &expected, "response post ticks");

    // Counters: the sweeps the model formed.
    let stats = shard.borrow().stats();
    let swept: Vec<&Quantum> = quanta.iter().filter(|q| q.members.len() > 1).collect();
    prop_assert_eq!(stats.sweeps - before.sweeps, swept.len() as u64);
    prop_assert_eq!(
        stats.swept_requests - before.swept_requests,
        swept.iter().map(|q| q.members.len() as u64).sum::<u64>()
    );

    // Bytes: one request at a time, in arrival order, each at the instant
    // its quantum executed, on a mirror of the shard's engine and gate.
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
    let mut want: Vec<Vec<u8>> = vec![Vec::new(); reqs.len()];
    let mut scratch = Vec::new();
    let mut last_exec = None;
    for q in &quanta {
        // The shard frees retired blocks from an event at the instant they
        // were retired: it runs between two quanta, unless the second
        // executes in the same instant (a sweep dispatched as a singleton's
        // slot ends). Where a block lands shows in a GET's remote pointer.
        if let Some(t) = last_exec.filter(|&t| t < q.exec_at) {
            mirror.pump_reclaim(t);
        }
        last_exec = Some(q.exec_at);
        for &m in &q.members {
            apply_request(
                &mut mirror,
                q.exec_at,
                &reqs[m],
                arena,
                &mut scratch,
                ScanBounds::of(&cluster.cfg),
                &mut plane,
                gated.then_some(&gate),
                &mut want[m],
            );
        }
    }
    let caught = caught.borrow();
    prop_assert_eq!(caught.len(), reqs.len());
    for (conn, payload) in caught.iter() {
        let mut got = payload.clone();
        set_backlog_hint(&mut got, 0);
        let req_id = Response::decode(&got).expect("a response").req_id;
        let i = (req_id - REQ_BASE) as usize;
        prop_assert_eq!(*conn, arrivals[i].conn, "answered on its own connection");
        prop_assert_eq!(&got, &want[i], "response to arrival {}", i);
    }
    prop_assert_eq!(contents(&shard.borrow().engine.borrow()), contents(&mirror));
    Ok(())
}

fn op() -> impl Strategy<Value = Op> {
    let k = 0..KEYS;
    prop_oneof![
        4 => k.clone().prop_map(Op::Get),
        2 => (k.clone(), any::<u8>()).prop_map(|(k, v)| Op::Insert(k, v)),
        2 => (k.clone(), any::<u8>()).prop_map(|(k, v)| Op::Update(k, v)),
        1 => k.clone().prop_map(Op::Delete),
        1 => (k.clone(), k).prop_map(|(a, b)| Op::Renew(a, b)),
    ]
}

/// Arrivals on up to 16 connections (folded onto the case's count).
fn arrivals() -> impl Strategy<Value = Vec<Arrival>> {
    // Mostly bursts (queued behind the previous arrival), some arrivals
    // mid-quantum, a few after the shard went idle again.
    let gap = prop_oneof![4 => Just(0u64), 3 => 1..2_000u64, 1 => 2_000..40_000u64];
    proptest::collection::vec(
        (gap, 0..16usize, op()).prop_map(|(gap, conn, op)| Arrival { gap, conn, op }),
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
        gated in any::<bool>(),
    ) {
        for a in &mut arrivals {
            a.conn %= conns;
        }
        let scheduler = if fifo { SchedulerKind::Fifo } else { SchedulerKind::DualLane };
        sweeps_equal_one_at_a_time(conns, arrivals, scheduler, gated)?;
    }
}

/// The gated arm exercises redirects: the join moved some of the hot keys
/// away from the shard, and kept some.
#[test]
fn the_gate_redirects_some_hot_keys_and_keeps_others() {
    let (cluster, _) = cluster(2, SchedulerKind::DualLane, true);
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

/// A request that finds the shard idle is a sweep of one: the singleton it
/// always was, answered at arrival + detection + its own unbatched price.
#[test]
fn spaced_arrivals_never_sweep_and_keep_singleton_timing() {
    for scheduler in [SchedulerKind::DualLane, SchedulerKind::Fifo] {
        let conns = 4;
        let (mut cluster, caught) = cluster(conns, scheduler, false);
        let ops = [
            Op::Insert(1, 3),
            Op::Get(1),
            Op::Update(1, 9),
            Op::Renew(1, 2),
            Op::Get(2),
            Op::Delete(1),
            Op::Get(1),
        ];
        let arrivals: Vec<Arrival> = ops
            .iter()
            .enumerate()
            .map(|(i, op)| Arrival {
                gap: 50_000,
                conn: i % conns,
                op: op.clone(),
            })
            .collect();
        let start = cluster.sim.now();
        let at: Vec<SimTime> = (1..=ops.len() as u64).map(|i| start + i * 50_000).collect();
        let posts = drive(&mut cluster, &caught, &at, &arrivals);
        let expected: Vec<SimTime> = arrivals
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let payload = encode(i, &a.op);
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
        expected_items: 1 << 10,
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
        .map(|(conn, op)| Arrival {
            gap: 0,
            conn,
            op: op.clone(),
        })
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
        let payload = encode(i, &a.op);
        t += price(&Request::decode(&payload).unwrap(), true);
        match a.op {
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

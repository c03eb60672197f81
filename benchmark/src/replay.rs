//! Layer replays for `--trace 1`: the same seed's op stream fed straight
//! into one layer's public API, timed on the host clock (process CPU time,
//! like the window's segments).
//!
//! A replay reports host ns per call of that layer. Multiplied by the
//! layer's calls per op in the live window it estimates the layer's share
//! of the host cost of an op; what the replays leave unexplained is the
//! glue in `hydradb` (`hydradb.residual_*`). Replays of layers that sit on
//! other layers (fabric on sim, replication on fabric, sim and store) also
//! report how many of the lower layers' calls they made, so the lower
//! layers' time can be taken out and no nanosecond is counted twice.

use std::cell::{Cell, RefCell};
use std::hint::black_box;
use std::rc::Rc;

use hydra_fabric::{Fabric, FabricConfig, Transport};
use hydra_lockfree::ClockCache;
use hydra_replication::{ReplConfig, ReplMode, ReplicationPair};
use hydra_sim::Sim;
use hydra_store::{EngineConfig, IndexKind, ShardEngine};
use hydra_wire::{
    scan_items_begin, scan_items_finish, scan_items_push, LogOp, RemotePtr, Request, Response,
    ScanItems, Status,
};
use hydra_ycsb::Op;

use crate::harness::cpu_ns;
use crate::workloads::VALUE_LEN;

/// Ops each replay consumes from the stream.
pub const REPLAY_OPS: usize = 200_000;
/// Scans a by-kind replay consumes at most.
const REPLAY_SCANS: usize = 20_000;

/// One layer's replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct Replayed {
    /// Calls into the layer.
    pub calls: u64,
    /// Host ns per call, lower layers included.
    pub ns_per_call: f64,
    /// Simulator events the replay executed.
    pub sim_events: u64,
    /// Fabric verbs the replay posted.
    pub verbs: u64,
}

impl Replayed {
    fn timed(calls: u64, started: u64) -> Replayed {
        Replayed {
            calls,
            ns_per_call: (cpu_ns() - started) as f64 / calls.max(1) as f64,
            ..Replayed::default()
        }
    }

    /// Host ns per call with the lower layers' time taken out.
    pub fn self_ns(&self, sim_ns_per_event: f64, fabric_self_ns_per_verb: f64) -> f64 {
        let calls = self.calls.max(1) as f64;
        let lower =
            self.sim_events as f64 * sim_ns_per_event + self.verbs as f64 * fabric_self_ns_per_verb;
        (self.ns_per_call - lower / calls).max(0.0)
    }
}

const VALUE: [u8; VALUE_LEN] = [0x5A; VALUE_LEN];

fn op_id(op: &Op) -> u64 {
    match *op {
        Op::Read(id) | Op::Update(id) | Op::Insert(id) | Op::Scan(id, _) => id,
    }
}

/// `sim`: schedule and fire `events` events through 64 self-rearming
/// chains with pseudo-random sub-microsecond delays — the queue shape of a
/// cluster under closed-loop load.
pub fn sim(events: u64) -> Replayed {
    fn rearm(sim: &mut Sim, left: Rc<Cell<u64>>, state: u64) {
        if left.get() == 0 {
            return;
        }
        left.set(left.get() - 1);
        let mut s = state ^ (state << 13);
        s ^= s >> 7;
        s ^= s << 17;
        sim.schedule_in(1 + s % 1_000, move |sim| rearm(sim, left, s));
    }
    let mut sim = Sim::new(7);
    let left = Rc::new(Cell::new(events));
    let started = cpu_ns();
    for chain in 1..=64u64 {
        let left = left.clone();
        let seed = chain.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        sim.schedule_in(1 + seed % 1_000, move |sim| rearm(sim, left, seed));
    }
    sim.run();
    let fired = sim.executed_events();
    Replayed {
        sim_events: fired,
        ..Replayed::timed(fired, started)
    }
}

/// `fabric`: `rounds` rounds of one 64 B `post_write` and one 64 B
/// `post_read` between two nodes, deliveries included.
pub fn fabric(rounds: u64) -> Replayed {
    let mut sim = Sim::new(7);
    let fab = Fabric::new(FabricConfig::default());
    let (a, b) = (fab.add_node(), fab.add_node());
    let qp = fab.connect(a, b, Transport::Rdma);
    let (region, _mem) = fab.alloc_region(b, 1 << 10);
    let started = cpu_ns();
    for i in 0..rounds {
        let off = (i as usize * 8) % (1 << 9);
        fab.post_write(&mut sim, qp, a, vec![i; 8], region, off, None);
        fab.post_read(
            &mut sim,
            qp,
            a,
            region,
            off,
            64,
            Box::new(|_, bytes| {
                black_box(bytes);
            }),
        );
        if i % 16 == 15 {
            sim.run();
        }
    }
    sim.run();
    let verbs = 2 * rounds;
    Replayed {
        sim_events: sim.executed_events(),
        verbs,
        ..Replayed::timed(verbs, started)
    }
}

/// Host ns per call of a layer whose cost depends on the op kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct ByKind {
    pub get: f64,
    pub write: f64,
    pub scan: f64,
}

impl ByKind {
    /// Host ns per op given each kind's calls per op in the live window.
    pub fn per_op(&self, gets: f64, writes: f64, scans: f64) -> f64 {
        self.get * gets + self.write * writes + self.scan * scans
    }
}

/// Scan lengths of the stream's scans (empty when it has none).
fn scan_limits(ops: &[Op]) -> Vec<(u64, u32)> {
    ops.iter()
        .filter_map(|op| match *op {
            Op::Scan(id, limit) => Some((id, limit)),
            _ => None,
        })
        .take(REPLAY_SCANS)
        .collect()
}

fn ns_per(calls: usize, started: u64) -> f64 {
    (cpu_ns() - started) as f64 / calls.max(1) as f64
}

/// `wire`: one message round per key of the stream and per kind — request
/// `encode_into` + `decode`, response `encode_into` + `decode` (a scan's
/// response carries its packed items, parsed as the client does).
pub fn wire(ops: &[Op], keys: &[Vec<u8>]) -> ByKind {
    let (mut req, mut resp, mut items) = (Vec::new(), Vec::new(), Vec::new());
    let mut round = |request: Request<'_>, value: &[u8], is_scan: bool| {
        req.clear();
        request.encode_into(&mut req);
        black_box(Request::decode(&req));
        let response = Response {
            status: Status::Ok,
            req_id: request.req_id(),
            value,
            rptr: RemotePtr::new(1, 64, 72),
            lease_expiry: 1,
            replicas: None,
        };
        resp.clear();
        response.encode_into(&mut resp);
        let decoded = Response::decode(&resp).expect("round trip");
        if is_scan {
            let parsed = ScanItems::parse(decoded.value).expect("round trip");
            black_box(parsed.iter().count());
        }
    };
    let mut out = ByKind::default();
    let started = cpu_ns();
    for (i, op) in ops.iter().enumerate() {
        let key = keys[op_id(op) as usize].as_slice();
        round(
            Request::Get {
                req_id: i as u64,
                key,
            },
            &VALUE,
            false,
        );
    }
    out.get = ns_per(ops.len(), started);
    let started = cpu_ns();
    for (i, op) in ops.iter().enumerate() {
        let key = keys[op_id(op) as usize].as_slice();
        let request = Request::Update {
            req_id: i as u64,
            key,
            value: &VALUE,
        };
        round(request, &[], false);
    }
    out.write = ns_per(ops.len(), started);
    let scans = scan_limits(ops);
    let started = cpu_ns();
    for (i, &(id, limit)) in scans.iter().enumerate() {
        let start = keys[id as usize].as_slice();
        scan_items_begin(&mut items);
        for _ in 0..limit {
            scan_items_push(&mut items, start, &VALUE);
        }
        scan_items_finish(&mut items, false, limit);
        let request = Request::Scan {
            req_id: i as u64,
            start,
            limit,
        };
        round(request, &items, true);
    }
    out.scan = ns_per(scans.len(), started);
    out
}

fn loaded_engine(index: IndexKind, keys: &[Vec<u8>]) -> ShardEngine {
    let mut engine = ShardEngine::new(EngineConfig {
        arena_words: 1 << 23,
        expected_items: 1 << 20,
        index,
        ..EngineConfig::default()
    });
    for key in keys {
        engine.insert(0, key, &VALUE).expect("fresh engine");
    }
    engine
}

/// `store`: the stream's keys against one standalone `ShardEngine` holding
/// every key, once per kind (`get_into`, `update`, `scan_into`). One
/// engine holds what the live cluster spreads over its shards, so its
/// working set is the larger one.
pub fn store(index: IndexKind, ops: &[Op], keys: &[Vec<u8>]) -> ByKind {
    let mut engine = loaded_engine(index, keys);
    let mut scratch = Vec::new();
    let mut out = ByKind::default();
    let started = cpu_ns();
    for (now, op) in ops.iter().enumerate() {
        let key = keys[op_id(op) as usize].as_slice();
        black_box(engine.get_into(now as u64, key, &mut scratch));
    }
    out.get = ns_per(ops.len(), started);
    let started = cpu_ns();
    for (now, op) in ops.iter().enumerate() {
        let key = keys[op_id(op) as usize].as_slice();
        black_box(engine.update(now as u64, key, &VALUE)).expect("loaded key");
    }
    out.write = ns_per(ops.len(), started);
    let scans = scan_limits(ops);
    let started = cpu_ns();
    for &(id, limit) in &scans {
        let mut left = limit;
        engine.scan_into(&keys[id as usize], &mut scratch, |k, v| {
            black_box((k, v));
            left -= 1;
            left > 0
        });
    }
    out.scan = ns_per(scans.len(), started);
    out
}

/// `lockfree`: every GET key looked up in a 64 K-entry `ClockCache` and
/// inserted on a miss, as the client's pointer cache sees the stream.
pub fn ptr_cache(ops: &[Op], keys: &[Vec<u8>]) -> Replayed {
    let cache: ClockCache<u64> = ClockCache::new(64 << 10);
    let mut calls = 0;
    let started = cpu_ns();
    for op in ops {
        if let Op::Read(id) = *op {
            let key = keys[id as usize].as_slice();
            calls += 1;
            if black_box(cache.get(key)).is_none() {
                cache.insert(key, id, u64::MAX);
            }
        }
    }
    Replayed::timed(calls, started)
}

/// `replication`: every op's key shipped as one group-commit record
/// through a `ReplicationPair` to a secondary engine on a two-node fabric,
/// acknowledgement and apply included.
pub fn replication(index: IndexKind, ops: &[Op], keys: &[Vec<u8>]) -> Replayed {
    let mut sim = Sim::new(7);
    let fab = Fabric::new(FabricConfig::default());
    let (primary, secondary) = (fab.add_node(), fab.add_node());
    let engine = Rc::new(RefCell::new(loaded_engine(index, keys)));
    let pair = ReplicationPair::new(
        &fab,
        primary,
        secondary,
        engine,
        ReplConfig {
            ring_words: 1 << 18,
            mode: ReplMode::GroupCommit,
            ..ReplConfig::default()
        },
    );
    let acked = Rc::new(Cell::new(0u64));
    let verbs_before = fab.stats();
    let started = cpu_ns();
    for (i, op) in ops.iter().enumerate() {
        let key = keys[op_id(op) as usize].as_slice();
        let acked = acked.clone();
        pair.replicate_batch(
            &mut sim,
            &[(LogOp::Put, key, &VALUE)],
            Some(Box::new(move |_| acked.set(acked.get() + 1))),
        )
        .expect("record fits the ring");
        if i % 8 == 7 {
            sim.run();
        }
    }
    sim.run();
    let timed = Replayed::timed(ops.len() as u64, started);
    assert_eq!(acked.get(), ops.len() as u64, "every record acknowledged");
    let verbs = fab.stats();
    Replayed {
        sim_events: sim.executed_events(),
        verbs: (verbs.writes + verbs.reads + verbs.sends)
            - (verbs_before.writes + verbs_before.reads + verbs_before.sends),
        ..timed
    }
}

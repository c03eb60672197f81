//! The decoupled execution ablations: §6.2.1's dispatcher + workers
//! (`ExecModel::Pipelined`) and §6.3's sub-sharding (`ExecModel::SubSharded`).
//!
//! HydraDB's shard is one thread doing request detection *and* handling.
//! These two models hand each request from the connection-owning thread to
//! another core, and exist to reproduce why that loses when the NIC already
//! moves the data (Fig. 10) and what sub-sharding would buy (§6.3). They
//! hook into the request path at exactly one point —
//! [`ShardServer::on_request_payload`] hands an arriving payload to
//! [`admit`] instead of the lane scheduler — and rejoin it at the quantum
//! executor, one request per quantum, run when its hand-off core is done.

use std::cell::RefCell;
use std::rc::Rc;

use hydra_sim::time::SimTime;
use hydra_sim::{FifoResource, Sim};
use hydra_wire::{messages, Request};

use super::{log2_bucket, Member, ShardServer};
use crate::config::ExecModel;
use crate::costs;
use crate::ring::ShardId;

/// The cores requests are handed to (the shard's own core is the
/// dispatcher).
pub(super) struct Decoupled {
    workers: Vec<FifoResource>,
    /// Sub-shards own disjoint key ranges: requests route by key hash, and
    /// the hand-off is an in-process enqueue. Otherwise any worker takes any
    /// request, over synchronized queues.
    keyed: bool,
}

impl Decoupled {
    /// The hand-off cores `model` calls for, or `None` for the
    /// single-threaded shard.
    pub(super) fn new(model: ExecModel, shard: ShardId) -> Option<Decoupled> {
        let (cores, keyed, role) = match model {
            ExecModel::SingleThreaded => return None,
            ExecModel::Pipelined { workers } => (workers, false, "worker"),
            ExecModel::SubSharded { subs } => (subs, true, "sub"),
        };
        let workers = (0..cores)
            .map(|w| FifoResource::new(format!("shard{}.{role}{w}", shard.0)))
            .collect();
        Some(Decoupled { workers, keyed })
    }

    pub(super) fn reset_window(&mut self, now: SimTime) {
        for w in &mut self.workers {
            w.reset_window(now);
        }
    }
}

/// Admits an arriving payload: each request it carries (these models have no
/// quantum scheduling, so a batch frame is unpacked) is charged to the
/// dispatch core and a hand-off core, and executes when that core is done.
pub(super) fn admit(
    this: &Rc<RefCell<ShardServer>>,
    sim: &mut Sim,
    conn_idx: usize,
    payload: Vec<u8>,
) {
    let now = sim.now();
    for msg in messages(&payload) {
        let done_at = dispatch(&mut this.borrow_mut(), now, msg);
        let (this, payload) = (this.clone(), msg.to_vec());
        sim.schedule_at(done_at, move |sim| {
            this.borrow_mut().sweep.push(Member {
                conn_idx,
                payload,
                arrived: now,
                ready_at: done_at,
            });
            // Due now: the executor answers at once and returns nothing.
            ShardServer::execute(&this, sim);
        });
    }
}

/// Reserves the dispatch core and a hand-off core for one request; returns
/// when the hand-off core finishes it.
fn dispatch(s: &mut ShardServer, now: SimTime, msg: &[u8]) -> SimTime {
    let req = Request::decode(msg).expect("admission validated it");
    let cost = s.item_cost(&req, false) + costs::POLL_NS + s.cfg.post_wqe_ns;
    s.stats.requests += 1;
    let backlog = s.cpu.free_at().saturating_sub(now);
    s.stats.queue_depth_hist[log2_bucket(backlog / cost.max(1))] += 1;
    let arrival = if s.cpu.idle_at(now) {
        now + s.detection_ns()
    } else {
        now
    };
    let d = s.decoupled.as_mut().expect("decoupled model");
    if d.keyed {
        // The connection-owning thread pays only the poll + route cost.
        let routed = s
            .cpu
            .acquire(arrival, costs::POLL_NS + costs::SUBSHARD_HANDOFF_NS);
        let key = match &req {
            Request::Get { key, .. }
            | Request::Insert { key, .. }
            | Request::Update { key, .. }
            | Request::Delete { key, .. } => *key,
            // Scans route by start key: cost accounting only — every
            // sub-shard sees the same engine.
            Request::Scan { start, .. } => *start,
        };
        let sub = hydra_store::hash_key(key) % d.workers.len() as u64;
        d.workers[sub as usize].acquire(routed, cost)
    } else {
        // The state-mutating share of the op serializes on the dispatch
        // path with cross-core coherence amplification.
        let mutation = cost.saturating_sub(costs::GET_NS + costs::POLL_NS);
        let serial = costs::DISPATCH_NS
            + (costs::PIPELINE_MUTATION_FACTOR * mutation as f64).round() as SimTime;
        let dispatched = s.cpu.acquire(arrival, serial);
        let worker = d
            .workers
            .iter_mut()
            .min_by_key(|w| w.free_at())
            .expect("pipelined model has workers");
        worker.acquire(dispatched + costs::SYNC_NS, cost)
    }
}

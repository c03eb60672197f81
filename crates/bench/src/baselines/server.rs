//! The baseline server process models.

use std::cell::RefCell;
use std::rc::Rc;

use hydra_fabric::{Fabric, NodeId, QpId};
use hydra_sim::time::SimTime;
use hydra_sim::{FifoResource, Sim};
use hydra_store::{EngineConfig, EngineError, ShardEngine, WriteMode};
use hydra_wire::{written_value_len, RemotePtr, Request, Response, Status};

/// Which baseline architecture a server instance runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BaselineKind {
    /// Multi-threaded shared-cache process over sockets; each op ends in a
    /// lock-protected critical section (hash table + LRU maintenance).
    Memcached {
        /// Worker threads (the paper assigns 8).
        threads: u32,
        /// Critical-section length per op.
        lock_ns: SimTime,
        /// CPU cost per op outside the lock.
        op_ns: SimTime,
    },
    /// One single-threaded event-loop instance (of N, sharded client-side).
    Redis {
        /// CPU cost per op on the event loop.
        op_ns: SimTime,
    },
    /// Native-verbs server with RAMCloud's dispatch/worker split: the
    /// dispatch thread touches every request and every response.
    RamCloud {
        /// Worker threads.
        threads: u32,
        /// Dispatch cost per inbound request.
        dispatch_rx_ns: SimTime,
        /// Dispatch cost per outbound response.
        dispatch_tx_ns: SimTime,
        /// Worker CPU per op.
        op_ns: SimTime,
    },
    /// Fig. 3's in-memory database: the whole (expensive) op holds a global
    /// lock.
    G2Db {
        /// Worker threads (they mostly wait on the lock).
        threads: u32,
        /// Fully serialized op cost.
        op_ns: SimTime,
    },
}

impl BaselineKind {
    /// Paper-calibrated Memcached defaults (v1.4.21, 8 threads).
    pub(crate) fn memcached() -> Self {
        BaselineKind::Memcached {
            threads: 8,
            lock_ns: 450,
            op_ns: 1_500,
        }
    }

    /// Paper-calibrated Redis instance defaults (v2.8.17).
    pub(crate) fn redis() -> Self {
        BaselineKind::Redis { op_ns: 1_100 }
    }

    /// Paper-calibrated RAMCloud defaults (8 worker threads).
    pub(crate) fn ramcloud() -> Self {
        BaselineKind::RamCloud {
            threads: 8,
            dispatch_rx_ns: 500,
            dispatch_tx_ns: 400,
            op_ns: 850,
        }
    }

    /// Fig. 3 in-memory database defaults.
    pub(crate) fn g2db() -> Self {
        BaselineKind::G2Db {
            threads: 8,
            op_ns: 3_200,
        }
    }
}

/// One baseline server instance bound to a fabric node.
pub(crate) struct BaselineServer {
    pub node: NodeId,
    pub engine: Rc<RefCell<ShardEngine>>,
    kind: BaselineKind,
    fab: Fabric,
    workers: Vec<FifoResource>,
    lock: FifoResource,
    dispatch: FifoResource,
    per_byte_ns: f64,
}

impl BaselineServer {
    /// Creates an instance of `kind` on `node`.
    pub(crate) fn new(
        node: NodeId,
        fab: &Fabric,
        kind: BaselineKind,
        arena_words: usize,
    ) -> Rc<RefCell<BaselineServer>> {
        let engine = Rc::new(RefCell::new(ShardEngine::new(EngineConfig {
            arena_words,
            write_mode: WriteMode::Cache,
            min_lease_ns: 0,
            max_lease_ns: 0,
            ..EngineConfig::default()
        })));
        let threads = match kind {
            BaselineKind::Memcached { threads, .. }
            | BaselineKind::RamCloud { threads, .. }
            | BaselineKind::G2Db { threads, .. } => threads,
            BaselineKind::Redis { .. } => 1,
        };
        let workers = (0..threads)
            .map(|t| FifoResource::new(format!("baseline.worker{t}")))
            .collect();
        Rc::new(RefCell::new(BaselineServer {
            node,
            engine,
            kind,
            fab: fab.clone(),
            workers,
            lock: FifoResource::new("baseline.lock"),
            dispatch: FifoResource::new("baseline.dispatch"),
            per_byte_ns: 0.25,
        }))
    }

    /// Completion time of an op arriving at `now`, per the service model.
    fn schedule(&mut self, now: SimTime, cost: SimTime) -> SimTime {
        match self.kind {
            BaselineKind::Memcached { lock_ns, .. } => {
                let body = cost.saturating_sub(lock_ns);
                let w = self
                    .workers
                    .iter_mut()
                    .min_by_key(|w| w.free_at())
                    .expect("workers exist");
                let t1 = w.acquire(now, body);
                self.lock.acquire(t1, lock_ns)
            }
            BaselineKind::Redis { .. } => self.workers[0].acquire(now, cost),
            BaselineKind::RamCloud {
                dispatch_rx_ns,
                dispatch_tx_ns,
                ..
            } => {
                let t1 = self.dispatch.acquire(now, dispatch_rx_ns);
                let w = self
                    .workers
                    .iter_mut()
                    .min_by_key(|w| w.free_at())
                    .expect("workers exist");
                let t2 = w.acquire(t1, cost);
                self.dispatch.acquire(t2, dispatch_tx_ns)
            }
            BaselineKind::G2Db { .. } => self.lock.acquire(now, cost),
        }
    }

    fn op_base(&self) -> SimTime {
        match self.kind {
            BaselineKind::Memcached { op_ns, .. }
            | BaselineKind::Redis { op_ns }
            | BaselineKind::RamCloud { op_ns, .. }
            | BaselineKind::G2Db { op_ns, .. } => op_ns,
        }
    }

    /// Handles a request payload arriving on `qp` (wired as the recv
    /// handler by the cluster); replies with a Send on the same QP.
    pub(crate) fn on_request(
        this: &Rc<RefCell<BaselineServer>>,
        sim: &mut Sim,
        qp: QpId,
        payload: Vec<u8>,
    ) {
        let done_at = {
            let mut s = this.borrow_mut();
            // Priced from the header; `execute` decodes the request once.
            let bytes = written_value_len(&payload);
            let cost = s.op_base() + (bytes as f64 * s.per_byte_ns).round() as SimTime;
            s.schedule(sim.now(), cost)
        };
        let this2 = this.clone();
        sim.schedule_at(done_at, move |sim| {
            Self::execute(&this2, sim, qp, payload);
        });
    }

    fn execute(this: &Rc<RefCell<BaselineServer>>, sim: &mut Sim, qp: QpId, payload: Vec<u8>) {
        let resp = {
            let s = this.borrow();
            let now = sim.now();
            let req = Request::decode(&payload).expect("well-formed request");
            let req_id = req.req_id();
            let mut engine = s.engine.borrow_mut();
            let to = |status: Status| Response::status_only(status, req_id).encode();
            let err = |e: EngineError| match e {
                EngineError::Exists => Status::Exists,
                EngineError::NotFound => Status::NotFound,
                _ => Status::Error,
            };
            let resp = match req {
                Request::Get { key, .. } => match engine.get(now, key) {
                    // Baselines expose no remote pointers: value only.
                    Some(got) => Response {
                        status: Status::Ok,
                        req_id,
                        value: &got.value,
                        rptr: RemotePtr::none(),
                        lease_expiry: 0,
                        replicas: None,
                    }
                    .encode(),
                    None => to(Status::NotFound),
                },
                Request::Insert { key, value, .. } => match engine.insert(now, key, value) {
                    Ok(_) => to(Status::Ok),
                    Err(e) => to(err(e)),
                },
                Request::Update { key, value, .. } => match engine.update(now, key, value) {
                    Ok(_) => to(Status::Ok),
                    Err(e) => to(err(e)),
                },
                Request::Delete { key, .. } => match engine.delete(now, key) {
                    Ok(()) => to(Status::Ok),
                    Err(e) => to(err(e)),
                },
                // Baseline stores are hash-only; they never advertise SCAN
                // and reject it if asked.
                Request::Scan { .. } => to(Status::Error),
            };
            drop(engine);
            resp
        };
        let (fab, node) = {
            let s = this.borrow();
            (s.fab.clone(), s.node)
        };
        fab.post_send(sim, qp, node, resp);
    }
}

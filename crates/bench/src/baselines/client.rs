//! Closed-loop baseline client with client-side sharding.

use std::cell::RefCell;
use std::rc::Rc;

use hydra_db::OpError;
use hydra_fabric::{Fabric, NodeId, QpId};
use hydra_sim::{Histogram, Sim};
use hydra_store::hash_key;
use hydra_wire::{Request, Response, Status};
use hydra_ycsb::{KvCb, KvClient, KvSnapshot};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Get,
    Write,
}

struct Outstanding {
    req_id: u64,
    kind: Kind,
    cb: Option<KvCb>,
    issued_at: u64,
}

struct Inner {
    node: NodeId,
    fab: Fabric,
    /// One QP per server instance (client-side sharding, §3's Redis note).
    conns: Vec<QpId>,
    next_req_id: u64,
    pending: Option<Outstanding>,
    ops: u64,
    get_lat: Histogram,
    update_lat: Histogram,
}

/// A closed-loop client of a [`crate::BaselineCluster`].
#[derive(Clone)]
pub(crate) struct BaselineClient {
    inner: Rc<RefCell<Inner>>,
}

impl BaselineClient {
    pub(crate) fn new(node: NodeId, fab: Fabric) -> BaselineClient {
        BaselineClient {
            inner: Rc::new(RefCell::new(Inner {
                node,
                fab,
                conns: Vec::new(),
                next_req_id: 0,
                pending: None,
                ops: 0,
                get_lat: Histogram::new(),
                update_lat: Histogram::new(),
            })),
        }
    }

    pub(crate) fn add_conn(&self, qp: QpId) {
        self.inner.borrow_mut().conns.push(qp);
    }

    pub(crate) fn node(&self) -> NodeId {
        self.inner.borrow().node
    }

    /// Handles a response payload (wired as the client-side recv handler).
    pub(crate) fn on_response(&self, sim: &mut Sim, payload: Vec<u8>) {
        let (out, verdict) = {
            let mut inner = self.inner.borrow_mut();
            let resp = Response::decode(&payload).expect("well-formed response");
            let matches = inner
                .pending
                .as_ref()
                .is_some_and(|o| o.req_id == resp.req_id);
            if !matches {
                return;
            }
            let out = inner.pending.take().expect("checked");
            let verdict: Result<Option<Vec<u8>>, OpError> = match (out.kind, resp.status) {
                (Kind::Get, Status::Ok) => Ok(Some(resp.value.to_vec())),
                (Kind::Get, Status::NotFound) => Ok(None),
                (_, Status::Ok) => Ok(None),
                (_, Status::NotFound) => Err(OpError::NotFound),
                (_, Status::Exists) => Err(OpError::Exists),
                (_, Status::Error) => Err(OpError::Server),
                // Baselines are static deployments; an ownership redirect
                // (HydraDB elasticity) can never arrive here.
                (_, Status::WrongOwner) => Err(OpError::Server),
            };
            let lat = sim.now() - out.issued_at;
            inner.ops += 1;
            match out.kind {
                Kind::Get => inner.get_lat.record(lat),
                Kind::Write => inner.update_lat.record(lat),
            }
            (out, verdict)
        };
        if let Some(cb) = out.cb {
            cb(sim, verdict);
        }
    }

    fn issue(
        &self,
        sim: &mut Sim,
        kind: Kind,
        payload: Vec<u8>,
        shard_hash: u64,
        req_id: u64,
        cb: KvCb,
    ) {
        let (fab, node, qp) = {
            let mut inner = self.inner.borrow_mut();
            assert!(inner.pending.is_none(), "client is closed-loop");
            assert!(!inner.conns.is_empty(), "client not connected");
            let qp = inner.conns[(shard_hash % inner.conns.len() as u64) as usize];
            inner.pending = Some(Outstanding {
                req_id,
                kind,
                cb: Some(cb),
                issued_at: sim.now(),
            });
            (inner.fab.clone(), inner.node, qp)
        };
        fab.post_send(sim, qp, node, payload);
    }

    fn next_id(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        inner.next_req_id += 1;
        inner.next_req_id
    }
}

impl KvClient for BaselineClient {
    fn kv_get(&self, sim: &mut Sim, key: &[u8], cb: KvCb) {
        let req_id = self.next_id();
        let payload = Request::Get { req_id, key }.encode();
        self.issue(sim, Kind::Get, payload, hash_key(key), req_id, cb);
    }

    fn kv_insert(&self, sim: &mut Sim, key: &[u8], value: &[u8], cb: KvCb) {
        let req_id = self.next_id();
        let payload = Request::Insert { req_id, key, value }.encode();
        self.issue(sim, Kind::Write, payload, hash_key(key), req_id, cb);
    }

    fn kv_update(&self, sim: &mut Sim, key: &[u8], value: &[u8], cb: KvCb) {
        let req_id = self.next_id();
        let payload = Request::Update { req_id, key, value }.encode();
        self.issue(sim, Kind::Write, payload, hash_key(key), req_id, cb);
    }

    fn kv_reset_stats(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.ops = 0;
        inner.get_lat.reset();
        inner.update_lat.reset();
    }

    fn kv_snapshot(&self) -> KvSnapshot {
        let inner = self.inner.borrow();
        KvSnapshot {
            ops: inner.ops,
            get_lat: inner.get_lat.clone(),
            update_lat: inner.update_lat.clone(),
            rptr_hits: 0,
            invalid_hits: 0,
            msg_gets: inner.get_lat.count(),
            ..Default::default()
        }
    }
}

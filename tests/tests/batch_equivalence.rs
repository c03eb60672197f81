//! Quantum-vs-sequential execution equivalence.
//!
//! A shard runs every request of a quantum through `apply_request`, in
//! order, but the UPDATEs the quantum overwrites (absorbed: they answer as
//! the probe that decides them and write nothing). One frame of up to 96
//! GETs, writes and scans — long GET runs, duplicate keys, misses,
//! collisions, deletes of absent keys, and scans that fill what the frame
//! leaves them — is injected into a one-shard cluster's admission over a
//! Send/Recv connection. It must match one request at a time through
//! `apply_request` on a mirror engine under the shard's own scan bounds
//! (each scan leaving `ScanBounds::MIN_RESPONSE` for every answer behind
//! it): the byte-identical response frame (backlog hints zeroed), the same
//! final engine contents, and `ServerStats` counting the frame's requests
//! kind by kind.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use hydra_db::server::{apply_request, ReadPlane, ScanBounds, ServerStats, ShardServer};
use hydra_db::{ClientMode, ClusterBuilder, ClusterConfig};
use hydra_fabric::RegionId;
use hydra_store::{EngineConfig, ShardEngine};
use hydra_wire::{
    for_each_message_mut, messages, set_backlog_hint, BatchBuilder, BatchFrame, Request, Response,
    Status, BATCH_HDR,
};
use proptest::prelude::*;

/// Most requests one generated frame holds.
const MAX_OPS: usize = 96;
/// Longest value a generated write carries.
const MAX_VALUE: usize = 47;
/// A message slot just large enough for `MAX_OPS` answers of the least size
/// a response takes, so the scans of a long frame run into the room they
/// leave the answers behind them.
const SLOT_WORDS: usize = 2 + (BATCH_HDR + MAX_OPS * ScanBounds::MIN_RESPONSE).div_ceil(8);

#[derive(Debug, Clone)]
enum Op {
    Get(u8),
    Insert(u8, Vec<u8>),
    Update(u8, Vec<u8>),
    Delete(u8),
    Scan(u8, u32),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            // GET-heavy so frames hold long GET runs.
            4 => any::<u8>().prop_map(|k| Op::Get(k % 32)),
            1 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..MAX_VALUE + 1))
                .prop_map(|(k, v)| Op::Insert(k % 32, v)),
            1 => (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..MAX_VALUE + 1))
                .prop_map(|(k, v)| Op::Update(k % 32, v)),
            1 => any::<u8>().prop_map(|k| Op::Delete(k % 32)),
            1 => (any::<u8>(), 0..16u32).prop_map(|(k, l)| Op::Scan(k % 32, l)),
        ],
        1..MAX_OPS,
    )
}

fn key_of(k: u8) -> Vec<u8> {
    format!("beq-key-{k:03}").into_bytes()
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

/// Common pre-population so GETs hit, updates succeed, inserts collide.
fn seed(engine: &mut ShardEngine) {
    for k in 0..16u8 {
        engine
            .insert(100, &key_of(k), format!("seed-{k}").as_bytes())
            .expect("seed insert");
    }
}

fn contents(engine: &ShardEngine) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut items = BTreeMap::new();
    engine.for_each_item(|k, v| {
        items.insert(k, v);
    });
    items
}

/// The per-kind counts of `stats`: gets, inserts, updates, deletes, scans.
fn kinds(stats: ServerStats) -> [u64; 5] {
    [
        stats.gets,
        stats.inserts,
        stats.updates,
        stats.deletes,
        stats.scans,
    ]
}

/// Whether the shard absorbs `reqs[i]`: an UPDATE whose first later request
/// on its key — a scan reads every key — is an UPDATE too.
fn absorbed(reqs: &[Request<'_>], i: usize) -> bool {
    let Request::Update { key, .. } = reqs[i] else {
        return false;
    };
    let next = reqs[i + 1..].iter().find(|r| match r {
        Request::Get { key: k, .. }
        | Request::Insert { key: k, .. }
        | Request::Update { key: k, .. }
        | Request::Delete { key: k, .. } => *k == key,
        Request::Scan { .. } => true,
    });
    matches!(next, Some(Request::Update { .. }))
}

/// The frame one request at a time: `apply_request` on `mirror` at `now`,
/// each scan under the bounds the shard gives it in the frame, an absorbed
/// UPDATE answering what a probe of `mirror` finds. Returns the answers and
/// the per-kind counts.
fn sequential(
    mirror: &mut ShardEngine,
    now: u64,
    reqs: &[Request<'_>],
    arena: RegionId,
    cfg: &ClusterConfig,
) -> (Vec<u8>, [u64; 5]) {
    let mut frame = BatchBuilder::new();
    let mut scratch = Vec::new();
    let mut plane = ReadPlane::disabled();
    let mut counts = [0; 5];
    for (i, req) in reqs.iter().enumerate() {
        counts[match req {
            Request::Get { .. } => 0,
            Request::Insert { .. } => 1,
            Request::Update { .. } => 2,
            Request::Delete { .. } => 3,
            Request::Scan { .. } => 4,
        }] += 1;
        if absorbed(reqs, i) {
            let Request::Update { req_id, key, .. } = *req else {
                unreachable!("only an UPDATE is absorbed");
            };
            let status = match mirror.peek(key) {
                Some(_) => Status::Ok,
                None => Status::NotFound,
            };
            frame.push_with(|out| Response::status_only(status, req_id).encode_into(out));
            continue;
        }
        let scan = ScanBounds {
            reserved: (reqs.len() - i - 1) * ScanBounds::MIN_RESPONSE,
            ..ScanBounds::of(cfg)
        };
        frame.push_with(|out| {
            apply_request(
                mirror,
                now,
                req,
                arena,
                &mut scratch,
                scan,
                &mut plane,
                None,
                out,
            );
        });
    }
    (frame.bytes().to_vec(), counts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_execution_equals_sequential_execution(ops in ops()) {
        let mut frame = BatchBuilder::new();
        for (i, op) in ops.iter().enumerate() {
            let req_id = 1 + i as u64;
            let req = match op {
                Op::Get(k) => Request::Get { req_id, key: &key_of(*k) }.encode(),
                Op::Insert(k, v) => Request::Insert { req_id, key: &key_of(*k), value: v }.encode(),
                Op::Update(k, v) => Request::Update { req_id, key: &key_of(*k), value: v }.encode(),
                Op::Delete(k) => Request::Delete { req_id, key: &key_of(*k) }.encode(),
                Op::Scan(k, limit) => {
                    Request::Scan { req_id, start: &key_of(*k), limit: *limit }.encode()
                }
            };
            frame.push(&req);
        }
        let payload = frame.bytes().to_vec();
        let reqs: Vec<Request<'_>> = messages(&payload)
            .map(|m| Request::decode(m).expect("well-formed"))
            .collect();

        // A one-shard cluster whose one Send/Recv connection delivers its
        // responses into `caught`; a GET of an absent key opens it.
        let mut cluster = ClusterBuilder::new(ClusterConfig {
            server_nodes: 1,
            partitions: Some(1),
            client_nodes: 1,
            client_mode: ClientMode::SendRecv,
            msg_slot_words: SLOT_WORDS,
            ..ClusterConfig::default()
        })
        .build();
        let client = cluster.add_client(0);
        prop_assert_eq!(hydra_integration::get_value(&mut cluster, &client, b"connect"), None);
        let caught: Rc<RefCell<Vec<Vec<u8>>>> = Rc::default();
        let sink = caught.clone();
        cluster.fab.set_recv_handler(
            client.conn_qp(0).expect("connected"),
            cluster.client_nodes[0],
            Rc::new(move |_, _, payload| sink.borrow_mut().push(payload)),
        );
        let shard = cluster.shard(0).primary;
        seed(&mut shard.borrow().engine.borrow_mut());
        let mut mirror = engine_of(&cluster.cfg);
        seed(&mut mirror);

        // The idle shard notices the frame after its detection delay (one
        // connection, the default 100 ns sleep backoff) and runs it then.
        let at = cluster.sim.now() + 10_000;
        let exec_at = at + 100 / 2;
        let before = shard.borrow().stats();
        let (target, sent) = (shard.clone(), payload.clone());
        cluster.sim.schedule_at(at, move |sim| {
            ShardServer::on_request_payload(&target, sim, 0, sent);
        });
        while caught.borrow().is_empty() {
            prop_assert!(cluster.sim.step(), "queue drained before the response");
        }
        let after = shard.borrow().stats();
        let arena = shard.borrow().arena_region;
        let (want, counts) = sequential(&mut mirror, exec_at, &reqs, arena, &cluster.cfg);

        // Byte-identical response frame, one answer per request in order.
        let mut got = caught.borrow()[0].clone();
        prop_assert!(for_each_message_mut(&mut got, |m| set_backlog_hint(m, 0)));
        prop_assert_eq!(BatchFrame::parse(&got).expect("valid frame").len(), reqs.len());
        prop_assert_eq!(got, want);
        // The same final engine contents.
        prop_assert_eq!(contents(&shard.borrow().engine.borrow()), contents(&mirror));
        // Every request counted once, under its own kind.
        let counted: Vec<u64> = kinds(after).iter().zip(kinds(before)).map(|(a, b)| a - b).collect();
        prop_assert_eq!(counted, counts.to_vec());
    }
}

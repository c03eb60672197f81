//! Cluster-level property tests: the distributed system, driven through the
//! real client/server/replication protocol, must remain observationally
//! equivalent to a `HashMap` — under arbitrary op interleavings, with and
//! without replication.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use hydra_db::server::ShardServer;
use hydra_db::{ClientMode, ClusterBuilder, ClusterConfig, ExecModel, OpError, ReplicationMode};
use hydra_wire::{
    scan_items_begin, scan_items_finish, scan_items_push, BatchBuilder, BatchFrame, ReplicaPtr,
    ReplicaSet, Request, Response, ScanItems, Status, BATCH_MAGIC,
};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Insert(u8, Vec<u8>),
    Update(u8, Vec<u8>),
    Get(u8),
    Delete(u8),
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        prop_oneof![
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..40))
                .prop_map(|(k, v)| Op::Insert(k % 64, v)),
            (any::<u8>(), proptest::collection::vec(any::<u8>(), 1..40))
                .prop_map(|(k, v)| Op::Update(k % 64, v)),
            any::<u8>().prop_map(|k| Op::Get(k % 64)),
            any::<u8>().prop_map(|k| Op::Delete(k % 64)),
        ],
        1..120,
    )
}

fn key_of(k: u8) -> Vec<u8> {
    format!("prop-key-{k:03}").into_bytes()
}

fn run_scenario(ops: Vec<Op>, cfg: ClusterConfig) -> Result<(), TestCaseError> {
    let mut cluster = ClusterBuilder::new(cfg).build();
    let client = cluster.add_client(0);
    let model: Rc<RefCell<HashMap<Vec<u8>, Vec<u8>>>> = Rc::new(RefCell::new(HashMap::new()));
    let failures: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));

    // Each op completes (closed loop) before the next is issued, and the
    // completion callback checks the outcome against the model.
    for op in ops {
        let model = model.clone();
        let failures = failures.clone();
        let done = Rc::new(std::cell::Cell::new(false));
        let d = done.clone();
        match op {
            Op::Insert(k, v) => {
                let key = key_of(k);
                let existed = model.borrow().contains_key(&key);
                if !existed {
                    model.borrow_mut().insert(key.clone(), v.clone());
                }
                client.insert(
                    &mut cluster.sim,
                    &key,
                    &v,
                    Box::new(move |_, r| {
                        match (existed, r) {
                            (false, Ok(_)) | (true, Err(OpError::Exists)) => {}
                            (e, r) => failures
                                .borrow_mut()
                                .push(format!("insert existed={e} got {r:?}")),
                        }
                        d.set(true);
                    }),
                );
            }
            Op::Update(k, v) => {
                let key = key_of(k);
                let existed = model.borrow().contains_key(&key);
                if existed {
                    model.borrow_mut().insert(key.clone(), v.clone());
                }
                client.update(
                    &mut cluster.sim,
                    &key,
                    &v,
                    Box::new(move |_, r| {
                        match (existed, r) {
                            (true, Ok(_)) | (false, Err(OpError::NotFound)) => {}
                            (e, r) => failures
                                .borrow_mut()
                                .push(format!("update existed={e} got {r:?}")),
                        }
                        d.set(true);
                    }),
                );
            }
            Op::Get(k) => {
                let key = key_of(k);
                let expect = model.borrow().get(&key).cloned();
                client.get(
                    &mut cluster.sim,
                    &key,
                    Box::new(move |_, r| {
                        match r {
                            Ok(got) if got == expect => {}
                            other => failures
                                .borrow_mut()
                                .push(format!("get expected {expect:?} got {other:?}")),
                        }
                        d.set(true);
                    }),
                );
            }
            Op::Delete(k) => {
                let key = key_of(k);
                let existed = model.borrow_mut().remove(&key).is_some();
                client.delete(
                    &mut cluster.sim,
                    &key,
                    Box::new(move |_, r| {
                        match (existed, r) {
                            (true, Ok(_)) | (false, Err(OpError::NotFound)) => {}
                            (e, r) => failures
                                .borrow_mut()
                                .push(format!("delete existed={e} got {r:?}")),
                        }
                        d.set(true);
                    }),
                );
            }
        }
        while !done.get() {
            prop_assert!(cluster.sim.step(), "queue drained early");
        }
    }
    let fails = failures.borrow();
    prop_assert!(
        fails.is_empty(),
        "mismatches: {:?}",
        &fails[..fails.len().min(3)]
    );
    // Ground truth: server-side item count equals the model.
    prop_assert_eq!(cluster.total_items(), model.borrow().len());
    Ok(())
}

/// One arrival at the shard's admission site, to be built from a template.
#[derive(Debug, Clone)]
struct Arrival {
    /// 0: the raw bytes; 1: the raw bytes behind the batch magic;
    /// 2: a valid request cut short; 3: a valid request with one bit flipped;
    /// 4 / 5: a valid frame whose middle request is cut short / bit-flipped;
    /// 6 / 7: a whole valid frame cut short / bit-flipped;
    /// 8 / 9: a valid request / a valid frame, untouched.
    shape: u8,
    /// Which valid request is the template (or the frame's middle entry).
    template: u8,
    raw: Vec<u8>,
    /// Where to cut or which bit to flip, scaled to the victim's length.
    at: u16,
}

fn arrivals() -> impl Strategy<Value = Vec<Arrival>> {
    proptest::collection::vec(
        (
            0u8..10,
            any::<u8>(),
            proptest::collection::vec(any::<u8>(), 0..96),
            any::<u16>(),
        )
            .prop_map(|(shape, template, raw, at)| Arrival {
                shape,
                template,
                raw,
                at,
            }),
        1..24,
    )
}

/// One valid encoded request of each kind, over keys the shard may or may
/// not hold. Ids sit far above anything the client issues.
fn valid_request(template: u8) -> Vec<u8> {
    let req_id = (1 << 40) + template as u64;
    let key = key_of(template % 8);
    match template % 5 {
        0 => Request::Get { req_id, key: &key },
        1 => Request::Insert {
            req_id,
            key: &key,
            value: b"injected",
        },
        2 => Request::Update {
            req_id,
            key: &key,
            value: b"injected-update",
        },
        3 => Request::Delete { req_id, key: &key },
        _ => Request::Scan {
            req_id,
            start: &key,
            limit: template as u32,
        },
    }
    .encode()
}

fn cut(mut bytes: Vec<u8>, at: u16) -> Vec<u8> {
    // Always strictly shorter: a cut request can never decode.
    bytes.truncate(at as usize % bytes.len());
    bytes
}

fn flip(mut bytes: Vec<u8>, at: u16) -> Vec<u8> {
    let bit = at as usize % (bytes.len() * 8);
    bytes[bit / 8] ^= 1 << (bit % 8);
    bytes
}

fn frame_of(msgs: &[Vec<u8>]) -> Vec<u8> {
    let mut b = BatchBuilder::new();
    for m in msgs {
        b.push(m);
    }
    b.bytes().to_vec()
}

impl Arrival {
    /// The arrival's bytes, with `valid_message` supplying the well-formed
    /// messages it is built from (requests for a shard, responses for a
    /// client).
    fn payload(&self, valid_message: fn(u8) -> Vec<u8>) -> Vec<u8> {
        let valid = valid_message(self.template);
        let around = |middle: Vec<u8>| {
            frame_of(&[
                valid_message(self.template.wrapping_add(1)),
                middle,
                valid_message(self.template.wrapping_add(2)),
            ])
        };
        match self.shape {
            0 => self.raw.clone(),
            1 => [&[BATCH_MAGIC], self.raw.as_slice()].concat(),
            2 => cut(valid, self.at),
            3 => flip(valid, self.at),
            4 => around(cut(valid, self.at)),
            5 => around(flip(valid, self.at)),
            6 => cut(around(valid), self.at),
            7 => flip(around(valid), self.at),
            8 => valid,
            _ => around(valid),
        }
    }
}

/// How many requests `payload` carries if every byte of it decodes, `None`
/// if any does not. Cut-short payloads are bad by construction; the rest
/// are judged by the codec, as the server must.
fn requests_in(payload: &[u8]) -> Option<u64> {
    if BatchFrame::is_batch(payload) {
        let frame = BatchFrame::parse(payload)?;
        frame
            .iter()
            .all(|m| Request::decode(m).is_some())
            .then_some(frame.len() as u64)
    } else {
        Request::decode(payload).map(|_| 1)
    }
}

/// ROADMAP 4(e): bytes that do not decode are dropped and counted at the
/// shard's one admission site, and the connection they arrived on keeps
/// working. At the parent commit the first bad arrival panicked the process
/// (`expect("well-formed request")` / `expect("well-formed batch frame")`).
fn hostile_arrivals_are_counted_not_fatal(
    arrivals: Vec<Arrival>,
    cfg: ClusterConfig,
) -> Result<(), TestCaseError> {
    let (mut cluster, client, landing) = client_with_canary(cfg);
    let shard = cluster.shard(0).primary;
    let before = shard.borrow().stats();

    let (mut bad, mut requests) = (0u64, 0u64);
    for a in &arrivals {
        let payload = a.payload(valid_request);
        let carried = requests_in(&payload);
        if matches!(a.shape, 2 | 4 | 6) {
            prop_assert_eq!(carried, None, "a cut payload decoded: {:?}", a);
        }
        match carried {
            Some(n) => requests += n,
            None => bad += 1,
        }
        ShardServer::on_request_payload(&shard, &mut cluster.sim, 0, payload);
        // One shipment per connection slot at a time, as a client would.
        cluster.sim.run();
        let now = shard.borrow().stats();
        prop_assert_eq!(now.malformed - before.malformed, bad, "after {:?}", a);
        prop_assert_eq!(now.requests - before.requests, requests, "after {:?}", a);
    }

    canary_still_answers(&mut cluster, &client, &landing);
    prop_assert_eq!(shard.borrow().stats().malformed - before.malformed, bad);
    Ok(())
}

/// One valid encoded response of each kind. Ids sit far above anything the
/// client issues, so none of them answers an operation.
fn valid_response(template: u8) -> Vec<u8> {
    let req_id = (1 << 40) + template as u64;
    let mut replicas = ReplicaSet::new(template);
    replicas.push(ReplicaPtr::default());
    match template % 6 {
        0 => Response {
            value: b"a value nobody asked for",
            ..Response::status_only(Status::Ok, req_id)
        },
        1 => Response::status_only(Status::NotFound, req_id),
        2 => Response::status_only(Status::Error, req_id),
        3 => Response::wrong_owner(req_id, template as u64),
        4 => Response {
            value: b"hot",
            lease_expiry: u64::MAX,
            replicas: Some(replicas),
            ..Response::status_only(Status::Ok, req_id)
        },
        _ => Response::status_only(Status::Exists, req_id),
    }
    .encode()
}

/// What the client must reject of `payload`: a frame that does not parse
/// counts once, as does each message — bare or framed — that is not a
/// response. Judged by the codec, as the client must.
fn rejects_in(payload: &[u8]) -> u64 {
    let not_a_response = |m: &[u8]| Response::decode(m).is_none();
    if BatchFrame::is_batch(payload) {
        BatchFrame::parse(payload)
            .map_or(1, |f| f.iter().filter(|m| not_a_response(m)).count() as u64)
    } else {
        not_a_response(payload) as u64
    }
}

/// Where a test's completions land.
type Landing = Rc<RefCell<Option<Result<Option<Vec<u8>>, OpError>>>>;

/// A cluster, a client whose connection the canary's insert has opened, and
/// the slot its completions land in.
fn client_with_canary(cfg: ClusterConfig) -> (hydra_db::Cluster, hydra_db::HydraClient, Landing) {
    let mut cluster = ClusterBuilder::new(cfg).build();
    let client = cluster.add_client(0);
    let landing: Landing = Rc::new(RefCell::new(None));
    let l = landing.clone();
    client.insert(
        &mut cluster.sim,
        b"canary",
        b"alive",
        Box::new(move |_, v| *l.borrow_mut() = Some(v)),
    );
    cluster.sim.run();
    assert_eq!(landing.borrow_mut().take(), Some(Ok(None)));
    (cluster, client, landing)
}

fn canary_still_answers(
    cluster: &mut hydra_db::Cluster,
    client: &hydra_db::HydraClient,
    landing: &Landing,
) {
    let l = landing.clone();
    client.get(
        &mut cluster.sim,
        b"canary",
        Box::new(move |_, v| *l.borrow_mut() = Some(v)),
    );
    cluster.sim.run();
    assert_eq!(
        landing.borrow_mut().take(),
        Some(Ok(Some(b"alive".to_vec())))
    );
}

/// ROADMAP 4(e), client half: bytes that do not decode are dropped and
/// counted where responses of either transport arrive, and the client keeps
/// working. At the parent commit the first bad arrival panicked the process
/// (`expect("well-formed response")` / `expect("well-formed batch frame")`).
fn hostile_responses_are_counted_not_fatal(
    arrivals: Vec<Arrival>,
    cfg: ClusterConfig,
) -> Result<(), TestCaseError> {
    let (mut cluster, client, landing) = client_with_canary(cfg);
    let mut bad = 0u64;
    for a in &arrivals {
        let payload = a.payload(valid_response);
        let rejects = rejects_in(&payload);
        if matches!(a.shape, 2 | 4 | 6) {
            prop_assert!(rejects > 0, "a cut payload decoded: {:?}", a);
        }
        bad += rejects;
        client.on_response_payload(&mut cluster.sim, payload);
        cluster.sim.run();
        prop_assert_eq!(client.stats().malformed, bad, "after {:?}", a);
    }
    canary_still_answers(&mut cluster, &client, &landing);
    prop_assert_eq!(client.stats().malformed, bad);
    prop_assert_eq!(client.in_flight(), 0);
    Ok(())
}

/// The other place outside bytes are trusted: a scan step's value. Each
/// `value` is delivered as the `Ok` answer to a scan step in flight, bare or
/// inside a response frame. One that is not a packed item list fails that
/// scan with `OpError::Server` — at the parent `scan_run` panicked
/// (`expect("well-formed scan payload")`) — and is not counted malformed: it
/// was a response. One that still parses is followed like any other.
fn hostile_scan_values_fail_the_scan_not_the_process(
    values: Vec<Vec<u8>>,
    cfg: ClusterConfig,
) -> Result<(), TestCaseError> {
    let framed = cfg.pipeline_depth > 1;
    let (mut cluster, client, landing) = client_with_canary(cfg);
    for value in &values {
        let l = landing.clone();
        client.scan(
            &mut cluster.sim,
            b"c",
            10,
            Box::new(move |_, v| *l.borrow_mut() = Some(v)),
        );
        // The step is in flight under one of the ids issued so far; the
        // other answers are late ones for nobody.
        for req_id in 1..=client.stats().ops + client.stats().scan_steps {
            let answer = Response {
                value,
                ..Response::status_only(Status::Ok, req_id)
            }
            .encode();
            let payload = if framed { frame_of(&[answer]) } else { answer };
            client.on_response_payload(&mut cluster.sim, payload);
        }
        cluster.sim.run();
        let outcome = landing.borrow_mut().take();
        if ScanItems::parse(value).is_none() {
            prop_assert_eq!(outcome, Some(Err(OpError::Server)), "value {:?}", value);
        } else {
            prop_assert!(outcome.is_some(), "value {:?}", value);
        }
    }
    canary_still_answers(&mut cluster, &client, &landing);
    prop_assert_eq!(client.stats().malformed, 0);
    prop_assert_eq!(client.in_flight(), 0);
    Ok(())
}

/// A packed list of the canary alone, with one bit flipped.
fn flipped_scan_value(at: u16) -> Vec<u8> {
    let mut packed = Vec::new();
    scan_items_begin(&mut packed);
    scan_items_push(&mut packed, b"canary", b"alive");
    scan_items_finish(&mut packed, false, 1);
    flip(packed, at)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn malformed_responses_are_dropped_and_counted(arrivals in arrivals()) {
        let one_shard = ClusterConfig {
            server_nodes: 1,
            shards_per_node: 1,
            client_nodes: 1,
            ..ClusterConfig::default()
        };
        hostile_responses_are_counted_not_fatal(arrivals.clone(), one_shard.clone())?;
        // Send/Recv payloads reach the same site straight off the verbs.
        let send_recv = ClusterConfig {
            client_mode: ClientMode::SendRecv,
            ..one_shard
        };
        hostile_responses_are_counted_not_fatal(arrivals, send_recv)?;
    }

    #[test]
    fn malformed_scan_values_fail_the_scan(
        values in proptest::collection::vec(
            prop_oneof![
                proptest::collection::vec(any::<u8>(), 0..64),
                any::<u16>().prop_map(flipped_scan_value),
            ],
            1..12,
        ),
    ) {
        let bare = ClusterConfig {
            server_nodes: 1,
            shards_per_node: 1,
            client_nodes: 1,
            client_mode: ClientMode::RdmaWrite,
            ..ClusterConfig::default()
        };
        hostile_scan_values_fail_the_scan_not_the_process(values.clone(), bare.clone())?;
        let framed = ClusterConfig {
            pipeline_depth: 8,
            ..bare
        };
        hostile_scan_values_fail_the_scan_not_the_process(values, framed)?;
    }

    #[test]
    fn malformed_arrivals_are_dropped_and_counted(arrivals in arrivals()) {
        let one_shard = ClusterConfig {
            server_nodes: 1,
            shards_per_node: 1,
            client_nodes: 1,
            ..ClusterConfig::default()
        };
        hostile_arrivals_are_counted_not_fatal(arrivals.clone(), one_shard.clone())?;
        // The decoupled models branch off at the same admission site.
        let pipelined = ClusterConfig {
            exec_model: ExecModel::Pipelined { workers: 2 },
            ..one_shard
        };
        hostile_arrivals_are_counted_not_fatal(arrivals, pipelined)?;
    }

    #[test]
    fn cluster_matches_model(ops in ops()) {
        run_scenario(ops, ClusterConfig::default())?;
    }

    #[test]
    fn replicated_cluster_matches_model_and_secondaries_converge(ops in ops()) {
        let cfg = ClusterConfig {
            server_nodes: 2,
            shards_per_node: 1,
            replicas: 1,
            replication: ReplicationMode::Logging { ack_every: 4 },
            ..ClusterConfig::default()
        };
        run_scenario(ops, cfg)?;
    }
}

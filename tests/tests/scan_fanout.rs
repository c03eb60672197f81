//! The client's quota-and-threshold scan fan-out against a `BTreeMap`
//! oracle, and the work it may do for its answer.
//!
//! `HydraClient::scan` asks each partition for a quota rather than for the
//! whole limit, then tops up only the partitions whose last key still sorts
//! among the `limit` smallest received. Whatever it skips, the result must be
//! `model.range(start..).take(limit)` item for item — and it has to get there
//! in at most two asks per partition, nearly always one.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use hydra_db::client::scan_quota;
use hydra_db::{ClientMode, Cluster, ClusterBuilder, ClusterConfig, HydraClient};
use hydra_integration::{put_ok, step_until};
use hydra_wire::ScanItems;
use proptest::prelude::*;

type Items = Vec<(Vec<u8>, Vec<u8>)>;
type Model = BTreeMap<Vec<u8>, Vec<u8>>;

/// `(server_nodes, shards_per_node)` making 1, 2, 4, 8 and 16 partitions.
const SHAPES: [(u32, u32); 5] = [(1, 1), (1, 2), (2, 2), (2, 4), (4, 4)];

/// Ids key the records; a start id at or past this sorts after every key.
const IDS: u32 = 3_000;

/// A limit up to this is answered within the response slot whatever is
/// asked of a partition (the 8 KiB slot holds 170 items of this shape), so
/// every ask is one step.
const FITS_THE_SLOT: u32 = 100;

fn key_of(id: u32) -> Vec<u8> {
    format!("k{id:06}").into_bytes()
}

fn build(shape: (u32, u32), depth: usize) -> (Cluster, HydraClient) {
    let mut cluster = ClusterBuilder::new(ClusterConfig {
        server_nodes: shape.0,
        shards_per_node: shape.1,
        client_nodes: 1,
        client_mode: ClientMode::RdmaWrite,
        pipeline_depth: depth,
        ..ClusterConfig::default()
    })
    .build();
    let client = cluster.add_client(0);
    (cluster, client)
}

fn load(cluster: &mut Cluster, client: &HydraClient, ids: impl IntoIterator<Item = u32>) -> Model {
    let mut model = Model::new();
    for id in ids {
        let (key, value) = (key_of(id), vec![id as u8; 32]);
        if model.insert(key.clone(), value.clone()).is_none() {
            put_ok(cluster, client, &key, &value);
        }
    }
    model
}

/// Runs the scans of `window` concurrently (a pipelined client ships them in
/// one frame) and returns their results in issue order.
fn scan_window(
    cluster: &mut Cluster,
    client: &HydraClient,
    window: &[(Vec<u8>, u32)],
) -> Vec<Items> {
    let done = Rc::new(Cell::new(window.is_empty()));
    let results = Rc::new(RefCell::new(vec![None; window.len()]));
    for (i, (start, limit)) in window.iter().enumerate() {
        let (done, results) = (done.clone(), results.clone());
        client.scan(
            &mut cluster.sim,
            start,
            *limit,
            Box::new(move |_, res| {
                let packed = res.expect("scan succeeds").expect("scan payload");
                let run = ScanItems::parse(&packed).expect("well-formed result");
                assert!(!run.more());
                let items: Items = run.iter().map(|(k, v)| (k.to_vec(), v.to_vec())).collect();
                results.borrow_mut()[i] = Some(items);
                done.set(results.borrow().iter().all(Option::is_some));
            }),
        );
    }
    step_until(cluster, &done);
    let results = results.borrow_mut().drain(..).flatten().collect();
    results
}

fn oracle(model: &Model, start: &[u8], limit: u32) -> Items {
    let from = model.range(start.to_vec()..);
    let taken = from.take(limit as usize);
    taken.map(|(k, v)| (k.clone(), v.clone())).collect()
}

/// What one scan cost: `(steps, items fetched)`.
fn cost_of(client: &HydraClient, f: impl FnOnce()) -> (u64, u64) {
    let before = client.stats();
    f();
    let after = client.stats();
    (
        after.scan_steps - before.scan_steps,
        after.scan_items_fetched - before.scan_items_fetched,
    )
}

fn limits() -> impl Strategy<Value = u32> {
    prop_oneof![Just(0u32), 1u32..=300, 1u32..=FITS_THE_SLOT, Just(u32::MAX)]
}

fn starts() -> impl Strategy<Value = Vec<u8>> {
    // Anywhere in the key space, before it (empty) and past its end.
    prop_oneof![Just(Vec::new()), (0..IDS + 200).prop_map(key_of)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn fan_out_returns_the_oracles_answer_within_its_work_bound(
        shape in 0usize..SHAPES.len(),
        pipelined in any::<bool>(),
        // Few records (fewer than most limits, none past most starts) as
        // often as many.
        ids in prop_oneof![
            proptest::collection::vec(0..IDS, 0..40),
            proptest::collection::vec(0..IDS, 0..2_000),
        ],
        scans in proptest::collection::vec((starts(), limits()), 3..12),
    ) {
        let partitions = (SHAPES[shape].0 * SHAPES[shape].1) as u64;
        let (mut cluster, client) = build(SHAPES[shape], if pipelined { 8 } else { 1 });
        let model = load(&mut cluster, &client, ids);

        // One at a time: the answer, and what it took.
        for (start, limit) in &scans {
            let mut got = Vec::new();
            let (steps, fetched) = cost_of(&client, || {
                got = scan_window(&mut cluster, &client, &[(start.clone(), *limit)]);
            });
            prop_assert_eq!(&got[0], &oracle(&model, start, *limit), "start {:?} limit {}", start, limit);
            if *limit == 0 {
                prop_assert_eq!(steps, 0);
            } else if *limit <= FITS_THE_SLOT {
                let quota = scan_quota(*limit, partitions as usize) as u64;
                prop_assert!(
                    (partitions..=2 * partitions).contains(&steps),
                    "{} steps over {} partitions, limit {}", steps, partitions, limit
                );
                if steps == partitions {
                    prop_assert!(fetched <= partitions * quota, "{} items, quota {}", fetched, quota);
                }
            }
        }

        // Three in one frame (pipelined clients), where their steps share
        // response slots and crowd each other out of them.
        if pipelined {
            for window in scans.chunks(3) {
                let got = scan_window(&mut cluster, &client, window);
                for ((start, limit), got) in window.iter().zip(&got) {
                    prop_assert_eq!(got, &oracle(&model, start, *limit), "start {:?} limit {}", start, limit);
                }
            }
        }
        prop_assert_eq!(client.in_flight(), 0);
    }
}

/// The sizing run of the issue, kept: 400 scans of 1..=100 items over 2 000
/// records on 1, 4, 8 and 16 partitions. Beyond the answer and the hard
/// bound, the *mean* is what the quota is for: nearly every scan is done
/// after one ask per partition, and fetches a small multiple of what it
/// returns where the parent fetched `partitions` times it.
#[test]
fn a_scan_takes_about_one_step_per_partition() {
    // splitmix64: the scan stream must not depend on any crate under test.
    let mut state = 0x5CA9_FA90_0075_u64;
    let mut draw = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for shape in [SHAPES[0], SHAPES[2], SHAPES[3], SHAPES[4]] {
        let partitions = (shape.0 * shape.1) as u64;
        let (mut cluster, client) = build(shape, 1);
        let model = load(&mut cluster, &client, (0..2_000).map(|i| i * 7_919 % IDS));
        const SCANS: u64 = 400;
        let mut first_pass_only = 0;
        let before = client.stats();
        for _ in 0..SCANS {
            let start = key_of((draw() % IDS as u64) as u32);
            let limit = 1 + (draw() % FITS_THE_SLOT as u64) as u32;
            let mut got = Vec::new();
            let (steps, fetched) = cost_of(&client, || {
                got = scan_window(&mut cluster, &client, &[(start.clone(), limit)]);
            });
            assert_eq!(got[0], oracle(&model, &start, limit));
            assert!((partitions..=2 * partitions).contains(&steps));
            if steps == partitions {
                first_pass_only += 1;
                assert!(fetched <= partitions * scan_quota(limit, partitions as usize) as u64);
            }
        }
        let after = client.stats();
        let steps = (after.scan_steps - before.scan_steps) as f64 / SCANS as f64;
        let fetched = (after.scan_items_fetched - before.scan_items_fetched) as f64;
        let returned = (after.scan_items_returned - before.scan_items_returned) as f64;
        println!(
            "{partitions:>2} partitions: {steps:.3} steps per scan, {first_pass_only} of {SCANS} \
             scans in one pass, fetched / returned {:.2}",
            fetched / returned
        );
        assert!(steps <= 1.05 * partitions as f64, "{steps} steps per scan");
    }
}

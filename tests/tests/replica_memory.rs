//! A write leaves behind only what a reader can still reach, on every copy.
//!
//! Each update retires the block it supersedes; the block goes back to the
//! arena once the lease a reader may hold on it lapses. A primary frees it
//! from its reclamation event, a secondary as it applies the next record.
//! These tests drive a replicated cluster and check, on every primary and
//! secondary, that the arena's books balance (every carved word is live,
//! free or retired), that a second pass of the same updates carves nothing
//! the first did not beyond what leases still hold, that a reliable store
//! keeps no CLOCK ring, and that a replica block exported under a lease is
//! reused only once that lease ends.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use hydra_db::{Cluster, ClusterBuilder, ClusterConfig, HydraClient};
use hydra_integration::{get_value, put_ok, step_until};
use hydra_sim::time::US;
use hydra_store::{FetchedItem, ItemError, ShardEngine};

/// Every lease runs exactly this long (minimum and maximum term are equal),
/// so two passes of the same operations retire blocks alike.
const LEASE_NS: u64 = 200 * US;

fn build(spread: bool) -> Cluster {
    let mut cluster = ClusterBuilder::new(ClusterConfig {
        seed: 7,
        server_nodes: 2,
        shards_per_node: 2,
        replicas: 1,
        replica_read_spread: spread,
        hot_read_threshold: 1,
        min_lease_ns: LEASE_NS,
        max_lease_ns: LEASE_NS,
        ..ClusterConfig::default()
    })
    .build();
    cluster.run_setup();
    cluster
}

fn update_ok(cluster: &mut Cluster, client: &HydraClient, key: &[u8], value: &[u8]) {
    let done = Rc::new(Cell::new(false));
    let d = done.clone();
    client.update(
        &mut cluster.sim,
        key,
        value,
        Box::new(move |_, r| {
            r.expect("update succeeds");
            d.set(true);
        }),
    );
    step_until(cluster, &done);
}

/// Every engine of the cluster, labelled: the primaries, then the
/// secondaries.
fn engines(cluster: &Cluster) -> Vec<(String, Rc<RefCell<ShardEngine>>)> {
    let mut out = Vec::new();
    for p in 0..cluster.cfg.total_shards() {
        let h = cluster.shard(p);
        out.push((format!("p{p} primary"), h.primary.borrow().engine.clone()));
        for (i, sec) in h.secondaries.iter().enumerate() {
            out.push((format!("p{p} secondary {i}"), sec.borrow().engine.clone()));
        }
    }
    out
}

/// Checks every engine's books and CLOCK ring; returns each engine's
/// `(allocated, retired)` words.
fn audit(cluster: &Cluster) -> Vec<(u64, u64)> {
    engines(cluster)
        .iter()
        .map(|(name, engine)| {
            let e = engine.borrow();
            let books = e.arena_books();
            assert!(books.balanced(), "{name}: {books:?}");
            assert_eq!(
                e.clock_len(),
                0,
                "{name}: a reliable store keeps no CLOCK ring"
            );
            (books.allocated, books.retired)
        })
        .collect()
}

#[test]
fn a_second_pass_of_updates_carves_nothing_the_first_did_not() {
    let mut cluster = build(false);
    let client = cluster.add_client(0);
    let keys: Vec<Vec<u8>> = (0..24)
        .map(|i| format!("pass-{i:02}").into_bytes())
        .collect();
    for k in &keys {
        put_ok(&mut cluster, &client, k, b"value-000");
    }
    // One pass: every key updated eight times to a value of the same size,
    // each update followed by a GET that leases the new version. Then every
    // lease lapses, and one more update of each key lets each copy free
    // what has come due.
    let pass = |cluster: &mut Cluster, first: usize| {
        for round in first..first + 8 {
            for k in &keys {
                update_ok(cluster, &client, k, format!("value-{round:03}").as_bytes());
                assert!(get_value(cluster, &client, k).is_some());
            }
        }
        cluster.settle_replication();
        cluster.sim.run_until(cluster.sim.now() + LEASE_NS);
        for k in &keys {
            update_ok(
                cluster,
                &client,
                k,
                format!("value-{:03}", first + 8).as_bytes(),
            );
        }
        cluster.settle_replication();
        for (name, engine) in engines(cluster) {
            let pending = engine.borrow().reclaim_pending();
            assert!(
                pending <= 1,
                "{name}: {pending} blocks held with every lease lapsed"
            );
        }
    };
    pass(&mut cluster, 1);
    let first = audit(&cluster);
    pass(&mut cluster, 10);
    let second = audit(&cluster);

    for (((name, _), &(alloc1, _)), &(alloc2, retired2)) in
        engines(&cluster).iter().zip(&first).zip(&second)
    {
        assert!(
            alloc2 <= alloc1 + retired2,
            "{name}: {alloc1} words carved after the first pass, {alloc2} after the \
             second with {retired2} still retired"
        );
    }
}

#[test]
fn an_exported_replica_block_is_reused_only_after_its_lease() {
    let mut cluster = build(true);
    let client = cluster.add_client(0);
    put_ok(&mut cluster, &client, b"hot", b"value-000");
    // The first GET of a hot key exports the secondary's pointer and pins
    // the secondary's copy under the lease the primary granted.
    assert_eq!(
        get_value(&mut cluster, &client, b"hot").as_deref(),
        Some(&b"value-000"[..])
    );
    let owner = (0..cluster.cfg.total_shards())
        .find(|&p| {
            cluster
                .shard(p)
                .primary
                .borrow()
                .engine
                .borrow_mut()
                .peek(b"hot")
                .is_some()
        })
        .expect("some partition owns the key");
    let secondary = cluster.shard(owner).secondaries[0].borrow().engine.clone();
    let exported = secondary.borrow_mut().peek(b"hot").unwrap();
    let now = cluster.sim.now();
    assert!(
        exported.lease_expiry > now,
        "the export pinned the replica's copy ({} at {now})",
        exported.lease_expiry
    );

    // Updates of the same size retire block after block on the secondary;
    // the first is the exported one.
    let mut reused_at = None;
    for round in 1..=200u64 {
        update_ok(
            &mut cluster,
            &client,
            b"hot",
            format!("value-{round:03}").as_bytes(),
        );
        cluster.sim.run_until(cluster.sim.now() + 5 * US);
        let now = cluster.sim.now();
        let mut e = secondary.borrow_mut();
        assert!(e.arena_books().balanced(), "round {round}");
        // A one-sided read through the exported pointer.
        let words = e.words();
        let blob: Vec<u8> = (0..exported.read_len as usize / 8)
            .flat_map(|w| {
                words[exported.off_words as usize + w]
                    .load(std::sync::atomic::Ordering::Acquire)
                    .to_le_bytes()
            })
            .collect();
        let at = e.peek(b"hot").unwrap().off_words;
        if now <= exported.lease_expiry {
            assert_ne!(
                at, exported.off_words,
                "round {round}: reused under its lease"
            );
            match FetchedItem::parse(&blob, b"hot") {
                Ok(f) => assert_eq!(f.value, b"value-000", "round {round}"),
                Err(ItemError::Stale) => {}
                Err(err) => panic!("round {round}: a read under the lease got {err:?}"),
            }
        } else if at == exported.off_words {
            reused_at.get_or_insert(now);
        }
    }
    let reused_at = reused_at.expect("the block is reused once its lease ends");
    assert!(reused_at > exported.lease_expiry);
    assert!(
        reused_at <= exported.lease_expiry + 20 * US,
        "reused at {reused_at}, {} ns after the lease",
        reused_at - exported.lease_expiry
    );
}

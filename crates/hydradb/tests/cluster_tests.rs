//! End-to-end tests of the HydraDB core: client ↔ shard protocol, the
//! RDMA-Read fast path with guardian/lease protection, execution-model and
//! transport variants, HA replication and SWAT fail-over.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use hydra_db::{
    ClientMode, Cluster, ClusterBuilder, ClusterConfig, ExecModel, HydraClient, OpError,
    ReplicationMode, BEAT_NS, MISSES,
};
use hydra_sim::time::{MS, SEC, US};

fn build(cfg: ClusterConfig) -> Cluster {
    ClusterBuilder::new(cfg).build()
}

/// Steps the simulation event-by-event until `done` is set, without jumping
/// the clock over unrelated far-future events (e.g. lease reclamation).
fn step_until(cluster: &mut Cluster, done: &Rc<Cell<bool>>) {
    while !done.get() {
        assert!(cluster.sim.step(), "queue drained before completion");
    }
}

/// Synchronously (in sim time) performs a PUT and panics on error.
fn put_ok(cluster: &mut Cluster, client: &HydraClient, key: &[u8], value: &[u8]) {
    let done = Rc::new(Cell::new(false));
    let d = done.clone();
    client.insert(
        &mut cluster.sim,
        key,
        value,
        Box::new(move |_, r| {
            r.unwrap();
            d.set(true);
        }),
    );
    step_until(cluster, &done);
}

fn get_value(cluster: &mut Cluster, client: &HydraClient, key: &[u8]) -> Option<Vec<u8>> {
    let out: Rc<RefCell<Option<Option<Vec<u8>>>>> = Rc::new(RefCell::new(None));
    let done = Rc::new(Cell::new(false));
    let o = out.clone();
    let d = done.clone();
    client.get(
        &mut cluster.sim,
        key,
        Box::new(move |_, r| {
            *o.borrow_mut() = Some(r.unwrap());
            d.set(true);
        }),
    );
    step_until(cluster, &done);
    let got = out.borrow_mut().take();
    got.expect("get did not complete")
}

#[test]
fn insert_then_get_roundtrip() {
    let mut cluster = build(ClusterConfig::default());
    let client = cluster.add_client(0);
    put_ok(&mut cluster, &client, b"user:1", b"alice");
    assert_eq!(
        get_value(&mut cluster, &client, b"user:1").as_deref(),
        Some(b"alice".as_slice())
    );
    assert_eq!(get_value(&mut cluster, &client, b"user:2"), None);
}

#[test]
fn keys_spread_across_all_shards() {
    let mut cluster = build(ClusterConfig::default());
    let client = cluster.add_client(0);
    for i in 0..200 {
        let k = format!("key-{i}");
        put_ok(&mut cluster, &client, k.as_bytes(), b"v");
    }
    for p in 0..4 {
        let n = cluster.shard(p).primary.borrow().engine.borrow().len();
        assert!(n > 10, "shard {p} got only {n} keys");
    }
    assert_eq!(cluster.total_items(), 200);
}

#[test]
fn second_get_uses_rdma_read_fast_path() {
    let mut cluster = build(ClusterConfig::default());
    let client = cluster.add_client(0);
    put_ok(&mut cluster, &client, b"hot", b"value-1");
    // First GET goes through the message path and caches the pointer.
    assert!(get_value(&mut cluster, &client, b"hot").is_some());
    let s1 = client.stats();
    assert_eq!(s1.msg_gets, 1);
    assert_eq!(s1.rptr_reads, 0);
    // Second GET must be a one-sided read.
    assert!(get_value(&mut cluster, &client, b"hot").is_some());
    let s2 = client.stats();
    assert_eq!(s2.msg_gets, 1, "no extra server-path GET");
    assert_eq!(s2.rptr_reads, 1);
    assert_eq!(s2.rptr_hits, 1);
    assert_eq!(s2.invalid_hits, 0);
    // The server handled exactly one GET request (the first).
    let gets: u64 = (0..4)
        .map(|p| cluster.shard(p).primary.borrow().stats().gets)
        .sum();
    assert_eq!(gets, 1);
}

#[test]
fn update_invalidates_cached_pointer_via_guardian() {
    let mut cluster = build(ClusterConfig::default());
    let writer = cluster.add_client(0);
    let reader = cluster.add_client(0);
    put_ok(&mut cluster, &writer, b"k", b"old");
    assert_eq!(
        get_value(&mut cluster, &reader, b"k").as_deref(),
        Some(b"old".as_slice())
    );
    // Writer updates out-of-place; reader still holds the old pointer.
    let done = Rc::new(Cell::new(false));
    let d = done.clone();
    writer.update(
        &mut cluster.sim,
        b"k",
        b"new",
        Box::new(move |_, r| {
            r.unwrap();
            d.set(true);
        }),
    );
    step_until(&mut cluster, &done);
    // Reader's fast path must detect the dead guardian and fall back.
    assert_eq!(
        get_value(&mut cluster, &reader, b"k").as_deref(),
        Some(b"new".as_slice())
    );
    let s = reader.stats();
    assert_eq!(s.invalid_hits, 1, "stale read must be detected");
    assert_eq!(s.rptr_reads, 1);
    assert_eq!(s.msg_gets, 2, "initial miss + fallback");
    // The fallback re-cached the new pointer as suspect: the next GET asks
    // the shard instead of reading, and finds the pointer unchanged...
    assert_eq!(
        get_value(&mut cluster, &reader, b"k").as_deref(),
        Some(b"new".as_slice())
    );
    let s = reader.stats();
    assert_eq!((s.suspect_gets, s.rptr_reads), (1, 1), "suspect: not read");
    // ...so the key held still, and the GET after it is fast again.
    assert_eq!(
        get_value(&mut cluster, &reader, b"k").as_deref(),
        Some(b"new".as_slice())
    );
    assert_eq!(reader.stats().rptr_hits, 1);
}

/// Updates `key` through `writer` and waits for the acknowledgement.
fn update_ok(cluster: &mut Cluster, writer: &HydraClient, key: &[u8], value: &[u8]) {
    let done = Rc::new(Cell::new(false));
    let d = done.clone();
    let cb = Box::new(move |_: &mut hydra_sim::Sim, r: Result<_, OpError>| {
        r.unwrap();
        d.set(true);
    });
    writer.update(&mut cluster.sim, key, value, cb);
    step_until(cluster, &done);
}

/// A pointer seen superseded is not read again until the key is seen holding
/// still: a stale read leaves the entry suspect; a suspect GET posts no
/// one-sided read; a suspect GET that finds a new pointer keeps the entry
/// suspect, one that finds the same pointer clears it.
#[test]
fn a_superseded_pointer_is_not_read_until_the_key_holds_still() {
    let mut cluster = build(ClusterConfig::default());
    let writer = cluster.add_client(0);
    let reader = cluster.add_client(0);
    put_ok(&mut cluster, &writer, b"k", b"v0");
    get_value(&mut cluster, &reader, b"k");
    update_ok(&mut cluster, &writer, b"k", b"v1");
    // The stale read and its fallback: one read on the fabric.
    let reads = cluster.fab.stats().reads;
    assert_eq!(get_value(&mut cluster, &reader, b"k"), Some(b"v1".to_vec()));
    assert_eq!(cluster.fab.stats().reads, reads + 1);
    assert_eq!(reader.stats().invalid_hits, 1);
    // Moved again: the suspect GET posts no read and finds a new pointer.
    update_ok(&mut cluster, &writer, b"k", b"v2");
    let reads = cluster.fab.stats().reads;
    assert_eq!(get_value(&mut cluster, &reader, b"k"), Some(b"v2".to_vec()));
    assert_eq!(
        cluster.fab.stats().reads,
        reads,
        "a suspect GET posts no read"
    );
    let s = reader.stats();
    assert_eq!((s.suspect_gets, s.rptr_reads, s.msg_gets), (1, 1, 3));
    // Still suspect: the next GET asks the shard again, and finds the key
    // where it was.
    assert_eq!(get_value(&mut cluster, &reader, b"k"), Some(b"v2".to_vec()));
    assert_eq!(cluster.fab.stats().reads, reads);
    assert_eq!(reader.stats().suspect_gets, 2);
    // Cleared: read one-sidedly, and live.
    assert_eq!(get_value(&mut cluster, &reader, b"k"), Some(b"v2".to_vec()));
    let s = reader.stats();
    assert_eq!((s.suspect_gets, s.rptr_reads, s.rptr_hits), (2, 2, 1));
    assert_eq!(s.invalid_hits, 1);
}

/// A cold miss is never suspect: the pointer its GET brings back is read at
/// once, even for a key other clients keep updating.
#[test]
fn a_cold_miss_is_never_suspect() {
    let mut cluster = build(ClusterConfig::default());
    let writer = cluster.add_client(0);
    let reader = cluster.add_client(0);
    put_ok(&mut cluster, &writer, b"k", b"v0");
    for v in [b"v1", b"v2", b"v3"] {
        update_ok(&mut cluster, &writer, b"k", v);
    }
    assert_eq!(get_value(&mut cluster, &reader, b"k"), Some(b"v3".to_vec()));
    assert_eq!(get_value(&mut cluster, &reader, b"k"), Some(b"v3".to_vec()));
    let s = reader.stats();
    assert_eq!((s.msg_gets, s.suspect_gets, s.rptr_hits), (1, 0, 1));
}

#[test]
fn rdma_write_only_mode_never_reads() {
    let cfg = ClusterConfig {
        client_mode: ClientMode::RdmaWrite,
        ..Default::default()
    };
    let mut cluster = build(cfg);
    let client = cluster.add_client(0);
    put_ok(&mut cluster, &client, b"k", b"v");
    for _ in 0..5 {
        assert!(get_value(&mut cluster, &client, b"k").is_some());
    }
    let s = client.stats();
    assert_eq!(s.rptr_reads, 0);
    assert_eq!(s.msg_gets, 5);
    assert_eq!(
        cluster.fab.stats().reads,
        0,
        "no one-sided reads on the fabric"
    );
}

#[test]
fn send_recv_mode_works_and_is_slower() {
    let lat = |mode: ClientMode| {
        let cfg = ClusterConfig {
            client_mode: mode,
            ..Default::default()
        };
        let mut cluster = build(cfg);
        let client = cluster.add_client(0);
        put_ok(&mut cluster, &client, b"k", b"v");
        for _ in 0..20 {
            assert!(get_value(&mut cluster, &client, b"k").is_some());
        }
        client.stats().get_lat.mean()
    };
    let write_lat = lat(ClientMode::RdmaWrite);
    let sendrecv_lat = lat(ClientMode::SendRecv);
    assert!(
        sendrecv_lat > write_lat,
        "send/recv ({sendrecv_lat}ns) must cost more than write polling ({write_lat}ns)"
    );
}

#[test]
fn decoupled_exec_model_is_slower_than_single_threaded() {
    let mean_lat = |exec: ExecModel| {
        let cfg = ClusterConfig {
            exec_model: exec,
            client_mode: ClientMode::RdmaWrite,
            ..Default::default()
        };
        let mut cluster = build(cfg);
        let client = cluster.add_client(0);
        put_ok(&mut cluster, &client, b"k", b"v");
        for _ in 0..50 {
            get_value(&mut cluster, &client, b"k");
        }
        client.stats().get_lat.mean()
    };
    let single = mean_lat(ExecModel::SingleThreaded);
    let pipelined = mean_lat(ExecModel::Pipelined { workers: 2 });
    assert!(
        pipelined > single,
        "pipelined ({pipelined}ns) must exceed single-threaded ({single}ns)"
    );
}

#[test]
fn delete_then_get_misses_and_errors() {
    let mut cluster = build(ClusterConfig::default());
    let client = cluster.add_client(0);
    put_ok(&mut cluster, &client, b"k", b"v");
    let ok = Rc::new(Cell::new(false));
    let o = ok.clone();
    client.delete(
        &mut cluster.sim,
        b"k",
        Box::new(move |_, r| {
            r.unwrap();
            o.set(true);
        }),
    );
    step_until(&mut cluster, &ok);
    assert_eq!(get_value(&mut cluster, &client, b"k"), None);
    // Deleting again reports NotFound.
    let err = Rc::new(RefCell::new(None));
    let e = err.clone();
    client.delete(
        &mut cluster.sim,
        b"k",
        Box::new(move |_, r| {
            *e.borrow_mut() = Some(r.unwrap_err());
        }),
    );
    cluster.sim.run();
    assert_eq!(*err.borrow(), Some(OpError::NotFound));
}

#[test]
fn insert_collision_reports_exists() {
    let mut cluster = build(ClusterConfig::default());
    let client = cluster.add_client(0);
    put_ok(&mut cluster, &client, b"k", b"v1");
    let err = Rc::new(RefCell::new(None));
    let e = err.clone();
    client.insert(
        &mut cluster.sim,
        b"k",
        b"v2",
        Box::new(move |_, r| {
            *e.borrow_mut() = Some(r.unwrap_err());
        }),
    );
    cluster.sim.run();
    assert_eq!(*err.borrow(), Some(OpError::Exists));
    // put() sugar upgrades to update.
    let ok = Rc::new(Cell::new(false));
    let o = ok.clone();
    client.put(
        &mut cluster.sim,
        b"k",
        b"v3",
        Box::new(move |_, r| {
            r.unwrap();
            o.set(true);
        }),
    );
    cluster.sim.run();
    assert!(ok.get());
    assert_eq!(
        get_value(&mut cluster, &client, b"k").as_deref(),
        Some(b"v3".as_slice())
    );
}

#[test]
fn oversized_request_rejected_client_side() {
    let cfg = ClusterConfig {
        msg_slot_words: 64,
        ..Default::default()
    }; // 512 B slots
    let mut cluster = build(cfg);
    let client = cluster.add_client(0);
    let err = Rc::new(RefCell::new(None));
    let e = err.clone();
    client.insert(
        &mut cluster.sim,
        b"k",
        &[0u8; 4096],
        Box::new(move |_, r| {
            *e.borrow_mut() = Some(r.unwrap_err());
        }),
    );
    cluster.sim.run();
    assert_eq!(*err.borrow(), Some(OpError::TooLarge));
}

#[test]
fn shared_pointer_cache_warms_colocated_clients() {
    let cfg = ClusterConfig {
        shared_ptr_cache: true,
        ..Default::default()
    };
    let mut cluster = build(cfg);
    let c1 = cluster.add_client(0);
    let c2 = cluster.add_client(0); // same node -> same shared cache
    put_ok(&mut cluster, &c1, b"hot", b"v");
    assert!(get_value(&mut cluster, &c1, b"hot").is_some()); // c1 caches the pointer
                                                             // c2 has never looked at the key, yet its first GET takes the fast path.
    assert!(get_value(&mut cluster, &c2, b"hot").is_some());
    let s2 = c2.stats();
    assert_eq!(s2.msg_gets, 0, "shared cache must pre-warm c2");
    assert_eq!(s2.rptr_hits, 1);
}

#[test]
fn replication_keeps_secondary_in_sync() {
    let cfg = ClusterConfig {
        replicas: 1,
        server_nodes: 2,
        shards_per_node: 1,
        replication: ReplicationMode::Logging { ack_every: 8 },
        ..Default::default()
    };
    let mut cluster = build(cfg);
    let client = cluster.add_client(0);
    for i in 0..50 {
        let k = format!("key-{i}");
        put_ok(
            &mut cluster,
            &client,
            k.as_bytes(),
            format!("val-{i}").as_bytes(),
        );
    }
    cluster.sim.run();
    for p in 0..2 {
        let h = cluster.shard(p);
        let primary_n = h.primary.borrow().engine.borrow().len();
        let sec_n = h.secondaries[0].borrow().engine.borrow().len();
        assert_eq!(primary_n, sec_n, "partition {p} secondary out of sync");
    }
}

#[test]
fn failover_promotes_secondary_and_clients_recover() {
    let cfg = ClusterConfig {
        replicas: 1,
        server_nodes: 2,
        shards_per_node: 1,
        replication: ReplicationMode::Logging { ack_every: 4 },
        ..Default::default()
    };
    let mut cluster = build(cfg);
    let client = cluster.add_client(0);
    for i in 0..40 {
        let k = format!("key-{i}");
        put_ok(
            &mut cluster,
            &client,
            k.as_bytes(),
            format!("val-{i}").as_bytes(),
        );
    }
    cluster.enable_ha(2 * SEC);
    let gen_before = cluster.generation();
    // Crash every partition's primary at t+10ms.
    cluster.sim.run_until(cluster.sim.now() + 10 * MS);
    let kill = cluster.sim.now();
    cluster.kill_primary(0);
    cluster.kill_primary(1);
    // A GET issued while the primary is dead and SWAT has not yet reacted
    // is parked on the dead primary until the directory change wakes it.
    let during: Rc<RefCell<Option<Option<Vec<u8>>>>> = Rc::new(RefCell::new(None));
    {
        let d = during.clone();
        client.get(
            &mut cluster.sim,
            b"key-0",
            Box::new(move |_, r| {
                *d.borrow_mut() = Some(r.unwrap());
            }),
        );
    }
    // Let detection + promotion play out.
    cluster.sim.run_until(cluster.sim.now() + 200 * MS);
    assert_eq!(cluster.promotions(), 2, "SWAT must promote both partitions");
    assert!(cluster.generation() > gen_before);
    assert_eq!(
        during.borrow().as_ref().map(|v| v.as_deref()),
        Some(Some(b"val-0".as_slice())),
        "in-flight GET must recover via retry"
    );
    // Was: detected 25-35 ms after the kill (session timeout + tick), the
    // GET recovered by its 20 ms retry timer, `timeouts > 0`. Now: fenced
    // within MISSES + 1 beats, promoted and woken two socket hops later.
    for f in cluster.failovers() {
        assert!(f.fenced_at - kill <= (MISSES as u64 + 1) * BEAT_NS, "{f:?}");
        assert!(f.promoted_at - kill < MS, "{f:?}");
    }
    let s = client.stats();
    assert_eq!(s.timeouts, 0, "the wake beat every retry timer");
    assert!(s.retries > 0);
    // Every previously acknowledged key must survive on the new primaries.
    for i in 0..40 {
        let k = format!("key-{i}");
        let got = get_value(&mut cluster, &client, k.as_bytes());
        assert_eq!(
            got.as_deref(),
            Some(format!("val-{i}").as_bytes()),
            "key {i} lost in fail-over"
        );
    }
}

#[test]
fn swat_leader_failure_hands_over_before_shard_failure() {
    let cfg = ClusterConfig {
        replicas: 1,
        server_nodes: 2,
        shards_per_node: 1,
        replication: ReplicationMode::Logging { ack_every: 4 },
        op_timeout_ns: 2 * MS,
        ..Default::default()
    };
    let mut cluster = build(cfg);
    let client = cluster.add_client(0);
    put_ok(&mut cluster, &client, b"k", b"v");
    cluster.enable_ha(2 * SEC);
    cluster.sim.run_until(10 * MS);
    cluster.kill_swat_leader();
    cluster.sim.run_until(100 * MS);
    // The surviving SWAT member must still react to a shard failure — in
    // the same few beats (was: run to 400 ms, 300 ms after the kill, to
    // clear the 25-35 ms session window).
    cluster.kill_primary(0);
    cluster.sim.run_until(101 * MS);
    assert_eq!(
        cluster.promotions(),
        1,
        "new SWAT leader must handle the failure"
    );
    assert_eq!(
        get_value(&mut cluster, &client, b"k").as_deref(),
        Some(b"v".as_slice())
    );
}

#[test]
fn failover_ends_the_primary_session_and_opens_its_successor() {
    // A session id is the coordination surface `Cluster` exports: capture it
    // before a fault and watch it end to time detection.
    let cfg = ClusterConfig {
        replicas: 1,
        server_nodes: 2,
        shards_per_node: 1,
        replication: ReplicationMode::Logging { ack_every: 4 },
        op_timeout_ns: 2 * MS,
        ..Default::default()
    };
    let mut cluster = build(cfg);
    let client = cluster.add_client(0);
    put_ok(&mut cluster, &client, b"k", b"v");
    cluster.enable_ha(2 * SEC);
    cluster.sim.run_until(10 * MS);
    let old = cluster.session_id(0);
    assert!(cluster.session_alive_id(old));
    cluster.kill_primary(0);
    cluster.sim.run_until(11 * MS);
    assert_eq!(cluster.promotions(), 1);
    assert!(
        !cluster.session_alive_id(old),
        "the deposed primary's session must end"
    );
    let new = cluster.session_id(0);
    assert_ne!(new, old);
    assert!(cluster.session_alive_id(new));
    assert!(cluster.session_alive(0));
}

#[test]
fn dead_partition_without_replica_times_out() {
    let cfg = ClusterConfig {
        server_nodes: 1,
        shards_per_node: 1,
        op_timeout_ns: MS,
        ..Default::default()
    };
    let mut cluster = build(cfg);
    let client = cluster.add_client(0);
    put_ok(&mut cluster, &client, b"k", b"v");
    cluster.kill_primary(0);
    let err = Rc::new(RefCell::new(None));
    let e = err.clone();
    client.get(
        &mut cluster.sim,
        b"k",
        Box::new(move |_, r| {
            *e.borrow_mut() = Some(r.unwrap_err());
        }),
    );
    cluster.sim.run();
    assert_eq!(*err.borrow(), Some(OpError::Timeout));
    assert!(client.stats().timeouts >= 1);
}

#[test]
fn rdma_get_latency_is_microseconds_and_below_message_path() {
    let mut cluster = build(ClusterConfig::default());
    let client = cluster.add_client(0);
    put_ok(&mut cluster, &client, b"k", &[7u8; 32]);
    get_value(&mut cluster, &client, b"k"); // message path, caches pointer
    let msg_lat = client.stats().get_lat.mean();
    for _ in 0..50 {
        get_value(&mut cluster, &client, b"k"); // fast path
    }
    let s = client.stats();
    assert_eq!(s.rptr_hits, 50);
    let overall = s.get_lat.mean();
    assert!(overall < msg_lat, "fast path must pull the mean down");
    assert!(
        overall < 5.0 * US as f64,
        "RDMA GET should be a few microseconds"
    );
}

#[test]
fn deterministic_across_identical_seeds() {
    let run = |seed: u64| {
        let cfg = ClusterConfig {
            seed,
            ..Default::default()
        };
        let mut cluster = build(cfg);
        let client = cluster.add_client(0);
        for i in 0..30 {
            let k = format!("key-{i}");
            put_ok(&mut cluster, &client, k.as_bytes(), b"v");
            get_value(&mut cluster, &client, k.as_bytes());
        }
        (cluster.sim.now(), client.stats().get_lat.mean())
    };
    assert_eq!(run(7), run(7));
}

#[test]
fn subsharded_model_serves_correctly_and_keeps_qp_count_flat() {
    let run = |exec: ExecModel, shards: u32| {
        let cfg = ClusterConfig {
            server_nodes: 1,
            shards_per_node: shards,
            exec_model: exec,
            ..Default::default()
        };
        let mut cluster = build(cfg);
        let clients: Vec<_> = (0..12).map(|_| cluster.add_client(0)).collect();
        for (i, c) in clients.iter().enumerate() {
            let k = format!("ss-{i}");
            put_ok(&mut cluster, c, k.as_bytes(), b"v");
        }
        // Every client touches the whole key space, so it connects to every
        // partition its deployment exposes.
        for c in &clients {
            for i in 0..12 {
                let k = format!("ss-{i}");
                assert_eq!(
                    get_value(&mut cluster, c, k.as_bytes()).as_deref(),
                    Some(b"v".as_slice())
                );
            }
        }
        cluster.fab.qp_count(cluster.server_nodes[0])
    };
    let flat_qps = run(ExecModel::SingleThreaded, 4);
    let sub_qps = run(ExecModel::SubSharded { subs: 4 }, 1);
    assert!(
        sub_qps < flat_qps,
        "sub-sharding must reduce connections: {sub_qps} vs {flat_qps}"
    );
}

#[test]
fn shared_cache_dedups_invalidation_cascades() {
    // §4.2.4's motivating scenario: N colocated clients all hold a pointer
    // to one hot item; a writer updates it. With exclusive caches every
    // client pays its own invalid fetch; the shared cache repairs once.
    let run = |shared: bool| {
        let cfg = ClusterConfig {
            shared_ptr_cache: shared,
            ..Default::default()
        };
        let mut cluster = build(cfg);
        let writer = cluster.add_client(0);
        let readers: Vec<_> = (0..10).map(|_| cluster.add_client(0)).collect();
        put_ok(&mut cluster, &writer, b"hot", b"v0");
        for r in &readers {
            assert!(get_value(&mut cluster, r, b"hot").is_some()); // everyone caches
        }
        let done = Rc::new(Cell::new(false));
        let d = done.clone();
        writer.update(
            &mut cluster.sim,
            b"hot",
            b"v1",
            Box::new(move |_, r| {
                r.unwrap();
                d.set(true);
            }),
        );
        step_until(&mut cluster, &done);
        // Every reader re-reads the item.
        for r in &readers {
            assert_eq!(
                get_value(&mut cluster, r, b"hot").as_deref(),
                Some(b"v1".as_slice())
            );
        }
        readers.iter().map(|r| r.stats().invalid_hits).sum::<u64>()
    };
    let exclusive_invalids = run(false);
    let shared_invalids = run(true);
    assert_eq!(
        exclusive_invalids, 10,
        "each exclusive reader pays one invalid fetch"
    );
    assert!(
        shared_invalids <= 1,
        "the shared cache must repair the entry once, got {shared_invalids}"
    );
}

#[test]
fn empty_key_and_empty_value_roundtrip() {
    let mut cluster = build(ClusterConfig::default());
    let client = cluster.add_client(0);
    put_ok(&mut cluster, &client, b"", b"empty-key-value");
    put_ok(&mut cluster, &client, b"empty-value", b"");
    assert_eq!(
        get_value(&mut cluster, &client, b"").as_deref(),
        Some(b"empty-key-value".as_slice())
    );
    assert_eq!(
        get_value(&mut cluster, &client, b"empty-value").as_deref(),
        Some(b"".as_slice())
    );
    // The empty-value item still travels the fast path safely.
    assert_eq!(
        get_value(&mut cluster, &client, b"empty-value").as_deref(),
        Some(b"".as_slice())
    );
}

#[test]
fn cache_mode_cluster_upserts_and_evicts() {
    use hydra_store::WriteMode;
    let cfg = ClusterConfig {
        write_mode: WriteMode::Cache,
        arena_words: 512, // tiny arenas force eviction
        min_lease_ns: 0,
        max_lease_ns: 0,
        ..Default::default()
    };
    let mut cluster = build(cfg);
    let client = cluster.add_client(0);
    for i in 0..400 {
        let k = format!("cache-{i:04}");
        put_ok(&mut cluster, &client, k.as_bytes(), &[i as u8; 32]);
    }
    // Insert of an existing key upserts instead of failing.
    put_ok(&mut cluster, &client, b"cache-0399", b"fresh");
    assert_eq!(
        get_value(&mut cluster, &client, b"cache-0399").as_deref(),
        Some(b"fresh".as_slice())
    );
    let evictions: u64 = (0..4)
        .map(|p| {
            cluster
                .shard(p)
                .primary
                .borrow()
                .engine
                .borrow()
                .stats()
                .evictions
        })
        .sum();
    assert!(evictions > 0, "tiny arenas must have evicted");
    assert!(cluster.total_items() < 400);
}

#[test]
fn cluster_report_reflects_state() {
    let cfg = ClusterConfig {
        server_nodes: 2,
        shards_per_node: 1,
        replicas: 1,
        replication: ReplicationMode::Logging { ack_every: 8 },
        ..Default::default()
    };
    let mut cluster = build(cfg);
    let client = cluster.add_client(0);
    for i in 0..60 {
        let k = format!("rep-{i:03}");
        put_ok(&mut cluster, &client, k.as_bytes(), b"v");
    }
    let report = cluster.report();
    assert_eq!(report.rows.len(), 2);
    let items: usize = report.rows.iter().map(|r| r.items).sum();
    assert_eq!(items, 60);
    for r in &report.rows {
        assert!(r.alive);
        assert_eq!(r.secondaries, 1);
        assert!(r.arena_occupancy > 0.0 && r.arena_occupancy < 1.0);
        assert!(r.requests >= r.items as u64);
        // The secondary holds what the primary holds (inserts retire
        // nothing on either copy).
        assert_eq!(r.replica_arena_occupancy, r.arena_occupancy);
        assert_eq!(r.replica_reclaim_pending, 0);
    }
    // Display renders one line per partition and per machine, plus the
    // generation line and the two table headers.
    let text = format!("{report}");
    assert_eq!(
        text.lines().count(),
        3 + report.rows.len() + report.nodes.len()
    );
    assert!(text.contains("generation"));
    assert!(text.contains("miss_pen_ns"));
    assert!(text.contains("rmem%") && text.contains("rreclaim"));
}

/// Regression: arming an earlier lease expiry used to leave the later pump
/// event live, and every firing re-armed, so each out-of-order expiry added
/// a pump chain that lived until the queue emptied — hundreds of firings per
/// write. One chain fires at most once per distinct expiry instant.
#[test]
fn reclaim_pump_is_a_single_chain() {
    const CLIENTS: usize = 16;
    const OPS_PER_CLIENT: u32 = 200;
    let mut cluster = build(ClusterConfig {
        client_mode: ClientMode::RdmaWrite,
        ..Default::default()
    });
    let clients: Vec<HydraClient> = (0..CLIENTS).map(|_| cluster.add_client(0)).collect();
    for k in 0..64u32 {
        put_ok(
            &mut cluster,
            &clients[0],
            format!("rk-{k:02}").as_bytes(),
            b"v0",
        );
    }
    // Closed loop per client, 50/50 GET/UPDATE, keys skewed towards rk-00:
    // popular keys earn long leases, cold ones short, so superseded blocks
    // expire out of write order.
    fn next_op(sim: &mut hydra_sim::Sim, client: HydraClient, c: usize, i: u32) {
        if i == OPS_PER_CLIENT {
            return;
        }
        let draw = (c as u32 * 7919 + i * 104_729) % 4096;
        let key = format!("rk-{:02}", (draw * draw) >> 18);
        let c2 = client.clone();
        let cb = Box::new(move |sim: &mut hydra_sim::Sim, r: Result<_, OpError>| {
            r.expect("op succeeds");
            next_op(sim, c2, c, i + 1);
        });
        if draw.is_multiple_of(2) {
            client.get(sim, key.as_bytes(), cb);
        } else {
            client.update(sim, key.as_bytes(), format!("v{i}").as_bytes(), cb);
        }
    }
    for (c, client) in clients.iter().enumerate() {
        next_op(&mut cluster.sim, client.clone(), c, 0);
    }
    // To an empty queue: every lease expires, every pump chain ends.
    cluster.sim.run();
    let (mut writes, mut pumps) = (0, 0);
    for p in 0..cluster.cfg.total_shards() {
        let stats = cluster.shard(p).primary.borrow().stats();
        writes += stats.inserts + stats.updates;
        pumps += stats.reclaim_pumps;
    }
    assert!(writes > 1_000, "the mix must actually write ({writes})");
    assert!(pumps > 0, "superseded blocks must be reclaimed");
    assert!(
        pumps <= 2 * writes,
        "{pumps} reclaim pump firings for {writes} writes"
    );
}

// ---- batch-frame shipping (pipeline_depth > 1) ----

#[test]
fn concurrent_requests_ship_as_batch_frames_and_serve_correctly() {
    let cfg = ClusterConfig {
        client_mode: ClientMode::RdmaWrite, // message path only: every op frames
        pipeline_depth: 16,
        max_batch: 16,
        ..Default::default()
    };
    let mut cluster = build(cfg);
    let client = cluster.add_client(0);
    for i in 0..24 {
        let k = format!("pk-{i}");
        let v = format!("pv-{i}");
        put_ok(&mut cluster, &client, k.as_bytes(), v.as_bytes());
    }
    // Burst of concurrent GETs: the first per partition ships immediately,
    // the rest coalesce into multi-request frames behind it.
    let done = Rc::new(Cell::new(0u32));
    let vals: Rc<RefCell<Vec<Option<Vec<u8>>>>> = Rc::new(RefCell::new(vec![None; 24]));
    for i in 0..24 {
        let k = format!("pk-{i}");
        let d = done.clone();
        let v = vals.clone();
        client.get(
            &mut cluster.sim,
            k.as_bytes(),
            Box::new(move |_, r| {
                v.borrow_mut()[i] = r.unwrap();
                d.set(d.get() + 1);
            }),
        );
    }
    assert!(client.in_flight() > 1, "burst must actually pipeline");
    while done.get() < 24 {
        assert!(cluster.sim.step(), "queue drained before completion");
    }
    for i in 0..24 {
        assert_eq!(vals.borrow()[i], Some(format!("pv-{i}").into_bytes()));
    }
    assert_eq!(client.in_flight(), 0);
    let frames: u64 = (0..4)
        .map(|p| cluster.shard(p).primary.borrow().stats().batches)
        .sum();
    let batched: u64 = (0..4)
        .map(|p| cluster.shard(p).primary.borrow().stats().batched_requests)
        .sum();
    assert!(frames > 0, "pipelined client must ship batch frames");
    assert!(
        batched > frames,
        "some frame must carry more than one request"
    );
    assert_eq!(cluster.total_items(), 24);
}

#[test]
fn concurrent_send_recv_ops_complete_through_the_window() {
    let cfg = ClusterConfig {
        client_mode: ClientMode::SendRecv,
        pipeline_depth: 8,
        ..Default::default()
    };
    let mut cluster = build(cfg);
    let client = cluster.add_client(0);
    for i in 0..12 {
        let k = format!("sr-{i}");
        put_ok(&mut cluster, &client, k.as_bytes(), b"v");
    }
    let done = Rc::new(Cell::new(0u32));
    for i in 0..12 {
        let k = format!("sr-{i}");
        let d = done.clone();
        client.get(
            &mut cluster.sim,
            k.as_bytes(),
            Box::new(move |_, r| {
                assert_eq!(r.unwrap().as_deref(), Some(b"v".as_slice()));
                d.set(d.get() + 1);
            }),
        );
    }
    while done.get() < 12 {
        assert!(cluster.sim.step(), "queue drained before completion");
    }
    assert_eq!(client.in_flight(), 0);
    assert_eq!(client.stats().timeouts, 0);
}

#[test]
fn fast_path_reads_fly_concurrently() {
    let cfg = ClusterConfig {
        pipeline_depth: 8,
        ..Default::default()
    };
    let mut cluster = build(cfg);
    let client = cluster.add_client(0);
    put_ok(&mut cluster, &client, b"hot", b"value");
    assert!(get_value(&mut cluster, &client, b"hot").is_some()); // caches ptr
    let done = Rc::new(Cell::new(0u32));
    for _ in 0..6 {
        let d = done.clone();
        client.get(
            &mut cluster.sim,
            b"hot",
            Box::new(move |_, r| {
                assert_eq!(r.unwrap().as_deref(), Some(b"value".as_slice()));
                d.set(d.get() + 1);
            }),
        );
    }
    assert_eq!(client.in_flight(), 6, "all six reads posted concurrently");
    while done.get() < 6 {
        assert!(cluster.sim.step(), "queue drained before completion");
    }
    let s = client.stats();
    assert_eq!(s.rptr_hits, 6);
    assert_eq!(s.invalid_hits, 0);
}

type GetResults = Rc<RefCell<Vec<Result<Vec<u8>, OpError>>>>;

/// Five GETs against a dead primary at depth 8, one replica under group
/// commit. Returns the cluster and client with the ops issued: the first
/// left in a frame of its own, the rest queue behind its connection slot.
fn five_gets_against_a_dead_primary(results: &GetResults) -> (Cluster, HydraClient) {
    let cfg = ClusterConfig {
        server_nodes: 2,
        partitions: Some(1),
        client_mode: ClientMode::RdmaWrite,
        replicas: 1,
        replication: ReplicationMode::GroupCommit,
        pipeline_depth: 8,
        op_timeout_ns: MS,
        ..Default::default()
    };
    let mut cluster = build(cfg);
    let client = cluster.add_client(0);
    put_ok(&mut cluster, &client, b"k", b"v");
    cluster.settle_replication();
    cluster.kill_primary(0);
    for _ in 0..5 {
        let r = results.clone();
        client.get(
            &mut cluster.sim,
            b"k",
            Box::new(move |_, res| r.borrow_mut().push(res.map(|v| v.expect("key exists")))),
        );
    }
    (cluster, client)
}

#[test]
fn unanswered_frames_retry_then_fail_every_op_with_timeout() {
    let results = Rc::new(RefCell::new(Vec::new()));
    let (mut cluster, client) = five_gets_against_a_dead_primary(&results);
    cluster.sim.run();
    assert_eq!(*results.borrow(), vec![Err(OpError::Timeout); 5]);
    // The one timeout policy at every depth: each op travels in four
    // frames (MAX_ATTEMPTS) before it gives up.
    let s = client.stats();
    assert_eq!((s.timeouts, s.retries), (5 * 4, 5 * 3));
    assert_eq!(client.in_flight(), 0);
}

#[test]
fn a_promotion_between_attempts_lets_every_op_in_the_frame_succeed() {
    let results = Rc::new(RefCell::new(Vec::new()));
    let (mut cluster, client) = five_gets_against_a_dead_primary(&results);
    // Past the first frame's timeout, before the second's.
    cluster.sim.run_until(cluster.sim.now() + MS + MS / 2);
    assert!(results.borrow().is_empty());
    assert!(cluster.force_promote(0));
    cluster.sim.run();
    assert_eq!(*results.borrow(), vec![Ok(b"v".to_vec()); 5]);
    let s = client.stats();
    assert_eq!(
        (s.timeouts, s.retries),
        (1, 1 + 5),
        "the lone first frame unanswered once; the frame of five taken back \
         by the directory-change wake, half-way to its own timeout"
    );
    assert_eq!(client.in_flight(), 0);
}

/// Membership churn hands back every fabric resource it borrows. Restarts
/// used to leave the severed channel's QP and the snapshot transfer's
/// one-shot QP connected (both ends' `qp_count` feeds the driver penalty and
/// the ICM model), and every migration shipment registered a fresh landing
/// region the fabric can never deregister.
#[test]
fn membership_churn_leaks_no_qps_and_no_staging_regions() {
    use hydra_db::chaos::FaultEvent;
    // Crash -> restart twice, then join -> drain; returns each node's MTT
    // footprint afterwards.
    let churn = |migration_quantum_items: u32| -> Vec<u64> {
        let mut cluster = build(ClusterConfig {
            server_nodes: 2,
            shards_per_node: 1,
            replicas: 1,
            replication: ReplicationMode::GroupCommit,
            migration_quantum_items,
            ..ClusterConfig::default()
        });
        let client = cluster.add_client(0);
        for i in 0..300u32 {
            put_ok(
                &mut cluster,
                &client,
                format!("k{i:04}").as_bytes(),
                &i.to_le_bytes(),
            );
        }
        cluster.sim.run();
        let qps = |c: &Cluster| -> Vec<u32> {
            let per_node = |&n| c.fab.qp_count(n);
            c.server_machines().iter().map(per_node).collect()
        };
        let before = qps(&cluster);
        let chaos = cluster.chaos();
        for _ in 0..2 {
            chaos.apply(&mut cluster.sim, &FaultEvent::CrashNode { node: 1 });
            cluster.sim.run();
            chaos.apply(&mut cluster.sim, &FaultEvent::RestartNode { node: 1 });
            cluster.sim.run();
        }
        assert_eq!(qps(&cluster), before, "restart churn leaked QPs");
        cluster.add_server_with_migration(1);
        cluster.drain_server(2);
        assert_eq!(cluster.ownership_audit(), (0, 0));
        // All that remains is the joined group's own replication channel,
        // from the new machine to the one after it in placement order.
        assert_eq!(
            qps(&cluster),
            [before[0] + 1, before[1], 1],
            "migration churn leaked QPs"
        );
        let per_node = |&n| cluster.fab.mtt_registered(n);
        cluster.server_machines().iter().map(per_node).collect()
    };
    assert_eq!(
        churn(8),
        churn(64),
        "MTT footprint must not depend on how many quanta a migration took"
    );
}

/// A join started by a fault plan and one started through the cluster land
/// in one server-machine list, so a machine index means the same machine to
/// the report, to a fault event and to a drain. When the chaos controller
/// kept a copy of its own, a plan's `JoinNode` reached only that copy: the
/// report listed the builder's machines alone, and after a further
/// `start_migration` index 2 named the plan's joiner to `CrashNode` but the
/// cluster's joiner to `drain_server`.
#[test]
fn plan_and_cluster_joins_share_one_machine_list() {
    use hydra_db::chaos::FaultEvent;
    let mut cluster = build(ClusterConfig {
        server_nodes: 2,
        shards_per_node: 1,
        replicas: 1,
        replication: ReplicationMode::GroupCommit,
        ..ClusterConfig::default()
    });
    let client = cluster.add_client(0);
    for i in 0..300u32 {
        let key = format!("k{i:04}");
        put_ok(&mut cluster, &client, key.as_bytes(), &i.to_le_bytes());
    }
    let chaos = cluster.chaos();
    chaos.apply(&mut cluster.sim, &FaultEvent::JoinNode { shards: 1 });
    cluster.sim.run();
    let report = cluster.report();
    assert_eq!(report.rows.len(), 3, "the plan's join flipped");
    let listed: Vec<u32> = report.nodes.iter().map(|n| n.node).collect();
    for p in 0..3 {
        let shard = cluster.shard(p);
        let hosts = std::iter::once(&shard.primary).chain(&shard.secondaries);
        for server in hosts {
            let node = server.borrow().node;
            assert!(
                listed.contains(&node.0),
                "partition {p} lives on {node:?}, which the report lists nowhere in {listed:?}"
            );
        }
    }

    cluster.add_server_with_migration(1);
    assert_eq!(cluster.server_machines().len(), 4);
    // Server machine 2 is the plan's joiner: it alone homes partition 2.
    let machine = cluster.server_machines()[2];
    assert_eq!(cluster.shard(2).primary.borrow().node, machine);
    assert_eq!(
        cluster.drain_server(2),
        vec![2],
        "drain_server(2) drains machine 2"
    );
    chaos.apply(&mut cluster.sim, &FaultEvent::CrashNode { node: 2 });
    assert!(
        cluster.fab.is_node_crashed(machine),
        "CrashNode {{ node: 2 }} powers off the machine drain_server(2) drained"
    );
    let mut crashed = cluster.server_machines();
    crashed.retain(|&n| cluster.fab.is_node_crashed(n));
    assert_eq!(crashed, [machine], "and no other");
}

/// Restarting a machine costs its NIC nothing the first restart did not
/// already pay, and every bulk transfer lands in memory registered at
/// [`ClusterConfig::page_bytes`]. At the parent commit each resync
/// registered a fresh snapshot-sized landing region at the fabric's default
/// page size, and a fresh replication ring and ack region beside the severed
/// channel's, none of which the fabric could give back: here every restart
/// after the first added 80 MTT entries to the restarted machine (45 + 33
/// for its two replicas' snapshots at 4 KiB pages, 2 rings) and 2 ack
/// regions to its peer.
#[test]
fn restart_cycles_reuse_their_registrations_at_the_cluster_page_size() {
    use hydra_db::chaos::FaultEvent;
    // Load, five crash -> restart cycles of node 1 under HA (the first
    // promotes partition 1 away and rebuilds its replica on the returning
    // machine; the rest resync both replicas hosted there), then a join that
    // migrates data in. Returns every node's MTT footprint.
    let churn = |fabric_default_page: usize| -> Vec<u64> {
        let mut cfg = ClusterConfig {
            server_nodes: 2,
            shards_per_node: 1,
            replicas: 1,
            replication: ReplicationMode::GroupCommit,
            page_bytes: 2 << 20,
            ..ClusterConfig::default()
        };
        cfg.fabric.default_page_bytes = fabric_default_page;
        let mut cluster = build(cfg);
        cluster.enable_ha(10 * SEC);
        let client = cluster.add_client(0);
        for i in 0..300u32 {
            put_ok(
                &mut cluster,
                &client,
                format!("k{i:04}").as_bytes(),
                &[i as u8; 1024],
            );
        }
        let settle = |c: &mut Cluster| c.sim.run_until(c.sim.now() + 5 * MS);
        let footprint = |c: &Cluster| {
            let r = c.report();
            let fabric: Vec<(u32, u64, u64)> = r
                .nodes
                .iter()
                .map(|n| (n.qps, n.recv_posted, n.mtt_entries))
                .collect();
            let arenas: Vec<(usize, f64)> = r
                .rows
                .iter()
                .map(|p| (p.items, p.arena_occupancy))
                .collect();
            (fabric, arenas)
        };
        let chaos = cluster.chaos();
        let mut after_first = None;
        for cycle in 0..5 {
            chaos.apply(&mut cluster.sim, &FaultEvent::CrashNode { node: 1 });
            settle(&mut cluster);
            chaos.apply(&mut cluster.sim, &FaultEvent::RestartNode { node: 1 });
            settle(&mut cluster);
            let now = footprint(&cluster);
            assert_eq!(
                *after_first.get_or_insert_with(|| now.clone()),
                now,
                "restart {cycle} left the cluster's occupancy somewhere new"
            );
        }
        assert_eq!(
            cluster.promotions(),
            1,
            "only the first crash deposes anyone"
        );
        cluster.add_server_with_migration(1);
        assert_eq!(cluster.ownership_audit(), (0, 0));
        let servers = cluster.server_machines();
        let nodes = servers.iter().chain(&cluster.client_nodes);
        nodes.map(|&n| cluster.fab.mtt_registered(n)).collect()
    };
    assert_eq!(
        churn(4096),
        churn(2 << 20),
        "a registration was mapped at the fabric's default page size, not the cluster's"
    );
}

//! Whole-stack integration: YCSB workloads against full HydraDB
//! deployments, crossing every crate in the workspace.

use std::cell::Cell;
use std::rc::Rc;

use hydra_db::{ClientMode, ClusterBuilder, ClusterConfig, ReplicationMode};
use hydra_integration::{get_value, put_ok, step_until};
use hydra_sim::time::MS;
use hydra_ycsb::{
    run_workload, run_workload_hooked, DriverConfig, KeyDist, OpHook, OpMix, Workload,
};

fn wl(records: u64, ops: u64, read_ratio: f64, dist: KeyDist) -> Workload {
    Workload {
        records,
        ops,
        read_ratio,
        dist,
        key_len: 16,
        value_len: 32,
        seed: 71,
        mix: OpMix::ReadUpdate,
    }
}

#[test]
fn full_stack_ycsb_with_replication() {
    // 2 server machines, 2 shards each, 1 replica per partition, RDMA
    // logging — the complete production configuration.
    let cfg = ClusterConfig {
        server_nodes: 2,
        shards_per_node: 2,
        client_nodes: 2,
        replicas: 1,
        replication: ReplicationMode::Logging { ack_every: 16 },
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let clients: Vec<_> = (0..8).map(|i| cluster.add_client(i % 2)).collect();
    let w = wl(2_000, 8_000, 0.9, KeyDist::zipfian());
    let report = run_workload(&mut cluster.sim, &clients, &w, &DriverConfig::default());
    assert!(report.ops >= 7_000);
    assert_eq!(report.errors, 0);
    // Replication must have kept every secondary converged.
    cluster.sim.run();
    for p in 0..cluster.cfg.total_shards() {
        let h = cluster.shard(p);
        assert_eq!(
            h.primary.borrow().engine.borrow().len(),
            h.secondaries[0].borrow().engine.borrow().len(),
            "partition {p} secondary diverged"
        );
    }
}

#[test]
fn socket_transport_mode_serves_the_same_api() {
    // HydraDB's TCP mode (Fig. 2's middle bar): same protocol over the
    // socket path with Send/Recv.
    let cfg = ClusterConfig {
        transport: hydra_fabric::Transport::Socket,
        client_mode: ClientMode::SendRecv,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let client = cluster.add_client(0);
    put_ok(&mut cluster, &client, b"tcp-key", b"tcp-value");
    assert_eq!(
        get_value(&mut cluster, &client, b"tcp-key").as_deref(),
        Some(b"tcp-value".as_slice())
    );
    // No one-sided traffic may exist on a socket deployment.
    assert_eq!(cluster.fab.stats().reads, 0);
    assert_eq!(cluster.fab.stats().writes, 0);
}

#[test]
fn large_values_stream_through_the_stack() {
    // 4 MiB MapReduce chunks (§2.1) through insert, message GET and
    // one-sided GET.
    let cfg = ClusterConfig {
        msg_slot_words: 1 << 20,
        arena_words: 1 << 23,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let client = cluster.add_client(0);
    let chunk = vec![0x5Au8; 4 << 20];
    put_ok(&mut cluster, &client, b"chunk-0", &chunk);
    assert_eq!(
        get_value(&mut cluster, &client, b"chunk-0"),
        Some(chunk.clone())
    );
    // Second GET goes one-sided and must carry the same bytes.
    assert_eq!(get_value(&mut cluster, &client, b"chunk-0"), Some(chunk));
    assert_eq!(client.stats().rptr_hits, 1);
}

#[test]
fn workload_runs_are_deterministic_end_to_end() {
    let run = |seed: u64| {
        let cfg = ClusterConfig {
            seed,
            ..ClusterConfig::default()
        };
        let mut cluster = ClusterBuilder::new(cfg).build();
        let clients: Vec<_> = (0..4).map(|_| cluster.add_client(0)).collect();
        let w = wl(1_000, 4_000, 0.5, KeyDist::zipfian());
        let r = run_workload(&mut cluster.sim, &clients, &w, &DriverConfig::default());
        (r.ops, r.elapsed_ns, r.rptr_hits, r.invalid_hits, r.msg_gets)
    };
    assert_eq!(run(123), run(123), "same seed, same universe");
}

#[test]
fn uniform_load_spreads_evenly_across_cluster() {
    let cfg = ClusterConfig {
        server_nodes: 4,
        shards_per_node: 2,
        client_nodes: 2,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let clients: Vec<_> = (0..8).map(|i| cluster.add_client(i % 2)).collect();
    let w = wl(8_000, 8_000, 0.5, KeyDist::Uniform);
    run_workload(&mut cluster.sim, &clients, &w, &DriverConfig::default());
    let counts: Vec<usize> = (0..8)
        .map(|p| cluster.shard(p).primary.borrow().engine.borrow().len())
        .collect();
    let total: usize = counts.iter().sum();
    assert_eq!(total, 8_000);
    for (p, &c) in counts.iter().enumerate() {
        assert!(
            c > total / 8 / 3,
            "shard {p} underloaded: {c} of {total} ({counts:?})"
        );
    }
}

#[test]
fn scans_larger_than_the_response_slot_continue_instead_of_overflowing() {
    // The scan quantum (488 items) is not the only bound on a step: its
    // response travels in the connection's 8 KiB slot, which holds 145 items
    // of this shape (16 B keys, 32 B values) behind the response header and
    // fewer in a batch frame. A step stops at the last item that fits and
    // answers `more`; the client's continuation does the rest. Before the
    // server bounded a step by the slot, every scan below died in the
    // fabric with "write beyond region bounds".
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;
    let model: std::collections::BTreeMap<Vec<u8>, Vec<u8>> = (0..800u64)
        .map(|id| {
            let key = format!("u{:015}", id * 7919 % 800).into_bytes();
            (key, vec![id as u8; 32])
        })
        .collect();
    for (shards, depth) in [(1, 1), (4, 1), (1, 8), (4, 8)] {
        let cfg = ClusterConfig {
            server_nodes: 1,
            shards_per_node: shards,
            client_nodes: 1,
            client_mode: ClientMode::RdmaWrite,
            pipeline_depth: depth,
            ..ClusterConfig::default()
        };
        let mut cluster = ClusterBuilder::new(cfg).build();
        let client = cluster.add_client(0);
        for (key, value) in &model {
            put_ok(&mut cluster, &client, key, value);
        }
        // One at a time, then (pipelined clients) three in one frame, where
        // they share the response slot with each other. The first three fit
        // any slot: their steps are bounded by the fan-out's quota alone.
        let limits = [1u32, 7, 50, 146, 300, u32::MAX];
        let windows: Vec<&[u32]> = if depth > 1 {
            limits.chunks(1).chain(limits.chunks(3)).collect()
        } else {
            limits.chunks(1).collect()
        };
        for window in windows {
            let pending = Rc::new(Cell::new(window.len()));
            let done = Rc::new(Cell::new(false));
            let results = Rc::new(RefCell::new(Vec::new()));
            for &limit in window {
                let (pending, done, results) = (pending.clone(), done.clone(), results.clone());
                client.scan(
                    &mut cluster.sim,
                    b"u",
                    limit,
                    Box::new(move |_, res| {
                        let packed = res.expect("scan succeeds").expect("scan payload");
                        results.borrow_mut().push((limit, packed));
                        pending.set(pending.get() - 1);
                        done.set(pending.get() == 0);
                    }),
                );
            }
            step_until(&mut cluster, &done);
            for (limit, packed) in results.borrow().iter() {
                let got = hydra_wire::ScanItems::parse(packed).expect("well-formed result");
                assert!(!got.more());
                let got: Vec<(&[u8], &[u8])> = got.iter().collect();
                let want: Vec<(&[u8], &[u8])> = model
                    .iter()
                    .take(*limit as usize)
                    .map(|(k, v)| (k.as_slice(), v.as_slice()))
                    .collect();
                assert_eq!(
                    got, want,
                    "{shards} partition(s), depth {depth}, limit {limit}"
                );
            }
        }
    }
}

#[test]
fn a_scan_stuck_on_an_item_no_response_can_carry_fails_instead_of_looping() {
    // An item can fit a request (20 B header) yet not a scan response (40 B
    // header, 8 B list header, 8 B entry header). No continuation gets past
    // it, so the step answers `Error` and the scan fails; it must not come
    // back empty with `more` set, which the client would follow forever.
    use std::cell::Cell;
    use std::rc::Rc;
    let cfg = ClusterConfig {
        server_nodes: 1,
        shards_per_node: 1,
        client_nodes: 1,
        client_mode: ClientMode::RdmaWrite,
        ..ClusterConfig::default()
    };
    let slot_bytes = hydra_wire::frame::max_payload(cfg.msg_slot_words);
    let mut cluster = ClusterBuilder::new(cfg).build();
    let client = cluster.add_client(0);
    put_ok(&mut cluster, &client, b"a-small", b"fits");
    put_ok(
        &mut cluster,
        &client,
        b"b-large",
        &vec![7u8; slot_bytes - 20 - 7],
    );
    let scan = |cluster: &mut hydra_db::Cluster, start: &[u8]| {
        let (done, ok) = (Rc::new(Cell::new(false)), Rc::new(Cell::new(false)));
        let (d, o) = (done.clone(), ok.clone());
        client.scan(
            &mut cluster.sim,
            start,
            10,
            Box::new(move |_, res| {
                o.set(res.is_ok());
                d.set(true);
            }),
        );
        step_until(cluster, &done);
        ok.get()
    };
    // The item ahead of it is served (with `more`); the continuation, which
    // starts on the oversized item, is what fails.
    assert!(!scan(&mut cluster, b"a"));
    assert!(!scan(&mut cluster, b"b"));
    assert!(scan(&mut cluster, b"c"));
}

/// A shard builds its ordered view at its first ordered read. In a
/// replicated cluster that serves writes and no scan, no primary and no
/// secondary holds a view. Scans build the primaries' views and no
/// secondary's. A primary that has served scans then crashes: its promoted
/// secondary holds no view until it is scanned, and that first scan answers
/// the model.
#[test]
fn hybrid_replicas_build_their_ordered_side_only_when_promoted_and_scanned() {
    use std::cell::{Cell, RefCell};
    use std::collections::BTreeMap;
    use std::rc::Rc;
    const MS: u64 = 1_000_000;

    let cfg = ClusterConfig {
        seed: 5,
        server_nodes: 3,
        partitions: Some(2),
        client_nodes: 1,
        replicas: 1,
        replication: ReplicationMode::GroupCommit,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let client = cluster.add_client(0);
    let mut model = BTreeMap::new();
    let key = |i: u64| format!("od-{:05}", i * 7919 % 600).into_bytes();
    for i in 0..600u64 {
        put_ok(&mut cluster, &client, &key(i), &[i as u8; 24]);
        model.insert(key(i), vec![i as u8; 24]);
    }
    // Updates and deletes, none of them an ordered read.
    for j in 0..900u64 {
        let (k, done) = (key(j * 13 % 600), Rc::new(Cell::new(false)));
        let d = done.clone();
        let cb: hydra_db::client::OpCb = Box::new(move |_, r| {
            r.expect("write succeeds");
            d.set(true);
        });
        if j % 10 == 9 && model.remove(&k).is_some() {
            client.delete(&mut cluster.sim, &k, cb);
        } else {
            let v = vec![j as u8; 8 + (j % 40) as usize];
            client.put(&mut cluster.sim, &k, &v, cb);
            model.insert(k, v);
        }
        step_until(&mut cluster, &done);
    }
    cluster.settle_replication();
    let scan_all = |cluster: &mut hydra_db::Cluster, client: &hydra_db::HydraClient| {
        let (done, out) = (Rc::new(Cell::new(false)), Rc::new(RefCell::new(Vec::new())));
        let (d, o) = (done.clone(), out.clone());
        client.scan(
            &mut cluster.sim,
            b"",
            u32::MAX,
            Box::new(move |_, res| {
                *o.borrow_mut() = res.expect("scan succeeds").expect("scan payload");
                d.set(true);
            }),
        );
        step_until(cluster, &done);
        let packed = out.borrow();
        let items = hydra_wire::ScanItems::parse(&packed).expect("well-formed result");
        items
            .iter()
            .map(|(k, v)| (k.to_vec(), v.to_vec()))
            .collect::<Vec<_>>()
    };
    let servers = |cluster: &hydra_db::Cluster, p: u32| {
        let h = cluster.shard(p);
        std::iter::once(h.primary)
            .chain(h.secondaries)
            .collect::<Vec<_>>()
    };

    let ordered = |cluster: &hydra_db::Cluster, p: u32| -> Vec<bool> {
        let engines = servers(cluster, p)
            .into_iter()
            .map(|s| s.borrow().engine.clone());
        engines
            .map(|e| e.borrow().ordered_stats().is_some())
            .collect()
    };
    // Writes alone build no view, on a primary or a secondary; each
    // secondary holds what its primary holds.
    for p in 0..2 {
        assert_eq!(ordered(&cluster, p), [false, false], "partition {p}");
        let lens: Vec<usize> = servers(&cluster, p)
            .iter()
            .map(|s| s.borrow().engine.borrow().len())
            .collect();
        assert_eq!(lens[0], lens[1], "partition {p}");
    }

    // Scans build the primaries' views and no secondary's.
    let want: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
    assert_eq!(scan_all(&mut cluster, &client), want);
    for p in 0..2 {
        assert_eq!(ordered(&cluster, p), [true, false], "partition {p}");
    }

    // The scanned primary of partition 0 crashes; its secondary takes over
    // with no view, and builds one at its first scan.
    let now = cluster.sim.now();
    cluster.enable_ha(now + 50 * MS);
    cluster.kill_primary(0);
    cluster.sim.run_until(now + 5 * MS);
    assert_eq!(cluster.promotions(), 1, "partition 0 failed over");
    assert!(!ordered(&cluster, 0)[0], "promoted, not yet scanned");
    assert_eq!(scan_all(&mut cluster, &client), want);
    assert!(ordered(&cluster, 0)[0], "the first scan built it");
}

#[test]
fn the_event_arena_holds_what_is_live_not_what_timed_out_in_the_last_10_ms() {
    // Every shipment arms a 10 ms timeout its response cancels. A cancelled
    // event frees its arena cell at once, so after 30 ms of closed-loop
    // traffic the arena is sized by the events in flight, not by the ops
    // issued in one timeout span (over 10 000 here).
    const CLIENTS: usize = 8;
    const DEPTH: usize = 4;
    let cfg = ClusterConfig {
        server_nodes: 2,
        shards_per_node: 2,
        client_nodes: 2,
        replicas: 1,
        replication: ReplicationMode::GroupCommit,
        pipeline_depth: DEPTH,
        ..ClusterConfig::default()
    };
    assert_eq!(cfg.op_timeout_ns, 10 * MS);
    let mut cluster = ClusterBuilder::new(cfg).build();
    let clients: Vec<_> = (0..CLIENTS).map(|i| cluster.add_client(i % 2)).collect();
    let stop = Rc::new(Cell::new(false));
    let s = stop.clone();
    let start: OpHook = Box::new(move |sim| {
        sim.schedule_in(30 * MS, move |_| s.set(true));
    });
    let driver = DriverConfig {
        window: DEPTH,
        until: Some(stop),
        ..DriverConfig::default()
    };
    let report = run_workload_hooked(
        &mut cluster.sim,
        &clients,
        &wl(1_000, 4_000, 0.5, KeyDist::zipfian()),
        &driver,
        vec![(0, start)],
    );
    assert_eq!(report.errors, 0);
    assert!(report.elapsed_ns >= 30 * MS);
    let (cells, ops) = (cluster.sim.arena_cells(), report.ops);
    assert!(ops >= 10_000, "only {ops} ops in 30 ms");
    assert!(
        cells <= 4 * CLIENTS * DEPTH,
        "{cells} arena cells for {CLIENTS} clients at depth {DEPTH}"
    );
}

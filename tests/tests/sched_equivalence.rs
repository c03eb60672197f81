//! Scheduler observational equivalence: preemption transparency.
//!
//! The dual-lane deficit-round-robin scheduler changes *when* work runs on a
//! contended shard core, never *what* it computes. When a point client races
//! a scan client over a read-only keyspace, running scans are preempted at
//! chunk boundaries, yet every scan payload and every GET value must be
//! byte-equal to a run in which no scan is ever preempted (chunks too large
//! to have a boundary inside a dispatch) — and the preemption must visibly
//! shorten the worst point latency.
//!
//! (FIFO service is the same scheduler with every task classified into one
//! lane, so there is no second dispatch path left to compare against;
//! `request_path_golden.rs` pins the path's timing.)

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use hydra_db::client::OpError;
use hydra_db::{ClusterBuilder, ClusterConfig, HydraClient};
use hydra_sim::SimTime;

fn render(res: &Result<Option<Vec<u8>>, OpError>) -> String {
    match res {
        Ok(Some(v)) => format!("ok:{v:?}"),
        Ok(None) => "miss".to_string(),
        Err(e) => format!("err:{e:?}"),
    }
}

/// Concurrent point + scan clients over a *read-only* keyspace: execution
/// order differs between the runs (that is the point), but with no
/// mutations every response is a pure function of the pre-populated engine
/// state, so all payloads must be byte-identical — even though the chunked
/// run demonstrably preempted scans mid-flight.
#[test]
fn preempted_scans_return_byte_identical_results() {
    fn wide_key(k: u16) -> Vec<u8> {
        format!("wide-key-{k:04}").into_bytes()
    }

    fn run(scan_chunk_items: u32) -> (Vec<String>, Vec<String>, SimTime, u64) {
        let mut cluster = ClusterBuilder::new(ClusterConfig {
            seed: 4242,
            server_nodes: 1,
            partitions: Some(2),
            client_nodes: 1,
            // Message-path GETs only, so every point op actually crosses the
            // shard core and contends with the scans.
            client_mode: hydra_db::ClientMode::RdmaWrite,
            scan_chunk_items,
            ..ClusterConfig::default()
        })
        .build();
        let scanner = cluster.add_client(0);
        let pointer = cluster.add_client(0);
        for k in 0..400u16 {
            let v = format!("wv-{k}").into_bytes();
            hydra_integration::put_ok(&mut cluster, &scanner, &wide_key(k), &v);
        }

        let scans: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let gets: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let worst_get: Rc<Cell<SimTime>> = Rc::new(Cell::new(0));
        let done = Rc::new(Cell::new(false));

        fn scan_loop(
            sim: &mut hydra_sim::Sim,
            client: HydraClient,
            i: usize,
            out: Rc<RefCell<Vec<String>>>,
        ) {
            if i >= 12 {
                return;
            }
            let c2 = client.clone();
            let o2 = out.clone();
            client.scan(
                sim,
                b"wide-key-0000",
                300,
                Box::new(move |sim, res| {
                    o2.borrow_mut().push(render(&res));
                    scan_loop(sim, c2, i + 1, out);
                }),
            );
        }
        fn get_loop(
            sim: &mut hydra_sim::Sim,
            client: HydraClient,
            i: usize,
            out: Rc<RefCell<Vec<String>>>,
            worst: Rc<Cell<SimTime>>,
            done: Rc<Cell<bool>>,
        ) {
            if i >= 64 {
                done.set(true);
                return;
            }
            let c2 = client.clone();
            let o2 = out.clone();
            let issued = sim.now();
            client.get(
                sim,
                &wide_key((i % 400) as u16),
                Box::new(move |sim, res| {
                    o2.borrow_mut().push(render(&res));
                    worst.set(worst.get().max(sim.now() - issued));
                    get_loop(sim, c2, i + 1, out, worst, done);
                }),
            );
        }

        scan_loop(&mut cluster.sim, scanner, 0, scans.clone());
        get_loop(
            &mut cluster.sim,
            pointer,
            0,
            gets.clone(),
            worst_get.clone(),
            done.clone(),
        );
        cluster.sim.run();
        assert!(done.get(), "point chain did not complete");
        let preemptions: u64 = (0..cluster.cfg.total_shards())
            .map(|p| cluster.shard(p).primary.borrow().stats().scan_preemptions)
            .sum();
        (
            Rc::try_unwrap(scans).unwrap().into_inner(),
            Rc::try_unwrap(gets).unwrap().into_inner(),
            worst_get.get(),
            preemptions,
        )
    }

    // Whole-dispatch chunks: no boundary ever falls inside a scan.
    let (whole_scans, whole_gets, whole_worst, whole_preempt) = run(u32::MAX);
    // 0.2 us chunks against ~20 us scan dispatches.
    let (chunked_scans, chunked_gets, chunked_worst, chunked_preempt) = run(4);

    assert_eq!(
        whole_scans, chunked_scans,
        "scan payloads must be byte-equal"
    );
    assert_eq!(whole_gets, chunked_gets, "GET values must be byte-equal");
    assert_eq!(whole_preempt, 0, "an unchunked scan cannot be preempted");
    assert!(
        chunked_preempt > 0,
        "the chunked run must actually have preempted scans"
    );
    assert!(
        chunked_worst < whole_worst,
        "preemption must shorten the worst point latency \
         (chunked {chunked_worst} ns vs whole {whole_worst} ns)"
    );
}

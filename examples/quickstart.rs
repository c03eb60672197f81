//! Quickstart: bring up a simulated HydraDB cluster, store and fetch a few
//! keys, and watch the RDMA-Read fast path kick in on the second access.
//!
//! Run with: `cargo run --release --example quickstart`

use std::cell::Cell;
use std::rc::Rc;

use hydra_db::{ClusterBuilder, ClusterConfig};

fn main() {
    // One server machine with 4 shards, one client machine — the default
    // deployment. All timing below is virtual (discrete-event simulated).
    let mut cluster = ClusterBuilder::new(ClusterConfig::default()).build();
    let client = cluster.add_client(0);

    // Closed loop, as the paper's YCSB drivers: chain ops in callbacks.
    let done = Rc::new(Cell::new(false));
    {
        let done = done.clone();
        let c = client.clone();
        client.insert(
            &mut cluster.sim,
            b"user:1001",
            b"{\"name\":\"ada\",\"plan\":\"pro\"}",
            Box::new(move |sim, r| {
                r.expect("insert succeeds");
                let c2 = c.clone();
                // First GET travels the RDMA-Write message path and caches a
                // remote pointer + lease.
                c.get(
                    sim,
                    b"user:1001",
                    Box::new(move |sim, r| {
                        let v = r.unwrap().expect("present");
                        println!("first GET  (message path): {}", String::from_utf8_lossy(&v));
                        // Second GET is a one-sided RDMA Read: zero server CPU.
                        c2.get(
                            sim,
                            b"user:1001",
                            Box::new(move |_, r| {
                                let v = r.unwrap().expect("present");
                                println!(
                                    "second GET (one-sided read): {}",
                                    String::from_utf8_lossy(&v)
                                );
                                done.set(true);
                            }),
                        );
                    }),
                );
            }),
        );
    }
    cluster.sim.run();
    assert!(done.get());

    let s = client.stats();
    println!();
    println!("client stats:");
    println!("  server-path GETs : {}", s.msg_gets);
    println!(
        "  one-sided reads  : {} ({} validated)",
        s.rptr_reads, s.rptr_hits
    );
    println!(
        "  mean GET latency : {:.2} us (virtual)",
        s.get_lat.mean() / 1000.0
    );
    let fab = cluster.fab.stats();
    println!(
        "fabric: {} RDMA writes, {} RDMA reads, {} bytes moved",
        fab.writes, fab.reads, fab.bytes
    );
    assert_eq!(s.rptr_hits, 1, "second GET must use the fast path");
}

//! HydraDB as a cache layer over HDFS for MapReduce I/O (§2.1): input
//! blocks are prefetched into the cluster as 4 MiB key-value chunks; map
//! tasks then stream their splits from HydraDB over RDMA instead of from
//! HDFS over TCP, and eviction makes room as the job advances.
//!
//! Run with: `cargo run --release --example mapreduce_cache`

use std::cell::Cell;
use std::rc::Rc;

use hydra_db::{ClusterBuilder, ClusterConfig, HydraClient};
use hydra_sim::time::as_secs;
use hydra_sim::Sim;
use hydra_store::WriteMode;

const CHUNK: usize = 1 << 22; // 4 MiB, as in the production integration
const BLOCKS: u64 = 24;
const MAPPERS: usize = 6;

fn chunk_key(block: u64) -> Vec<u8> {
    format!("hdfs:/data/input/part-{block:05}/chunk-0").into_bytes()
}

fn main() {
    let cfg = ClusterConfig {
        server_nodes: 2,
        shards_per_node: 2,
        client_nodes: 2,
        write_mode: WriteMode::Cache, // cache semantics: upserts + eviction
        msg_slot_words: 1 << 20,      // 8 MiB slots for 4 MiB chunks
        arena_words: 1 << 24,         // 128 MiB per shard
        op_timeout_ns: 500_000_000,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let prefetcher = cluster.add_client(0);
    let mappers: Vec<_> = (0..MAPPERS).map(|i| cluster.add_client(i % 2)).collect();

    // Prefetch phase: the cache layer pulls input blocks out of HDFS (here:
    // synthesized) and inserts them as chunks.
    println!("prefetching {BLOCKS} x 4MiB chunks into the cache layer...");
    let t0 = cluster.sim.now();
    fn prefetch(sim: &mut Sim, client: HydraClient, b: u64, done: Rc<Cell<bool>>) {
        if b >= BLOCKS {
            done.set(true);
            return;
        }
        let data = vec![(b % 251) as u8; CHUNK];
        let c2 = client.clone();
        client.put(
            sim,
            &chunk_key(b),
            &data,
            Box::new(move |sim, r| {
                r.expect("prefetch chunk");
                prefetch(sim, c2, b + 1, done);
            }),
        );
    }
    let pf_done = Rc::new(Cell::new(false));
    prefetch(&mut cluster.sim, prefetcher.clone(), 0, pf_done.clone());
    cluster.sim.run();
    assert!(pf_done.get());
    println!(
        "  prefetch took {:.3}s virtual",
        as_secs(cluster.sim.now() - t0)
    );

    // Map phase: each mapper streams its split of blocks.
    let t1 = cluster.sim.now();
    let done = Rc::new(Cell::new(0usize));
    fn map_task(
        sim: &mut Sim,
        client: HydraClient,
        next: u64,
        bytes: Rc<Cell<u64>>,
        done: Rc<Cell<usize>>,
    ) {
        if next >= BLOCKS {
            done.set(done.get() + 1);
            return;
        }
        let c2 = client.clone();
        client.get(
            sim,
            &chunk_key(next),
            Box::new(move |sim, r| {
                let data = r.expect("chunk read").expect("chunk cached");
                assert_eq!(data.len(), CHUNK);
                assert!(
                    data.iter().all(|&x| x == (next % 251) as u8),
                    "chunk integrity"
                );
                bytes.set(bytes.get() + data.len() as u64);
                map_task(sim, c2, next + MAPPERS as u64, bytes, done);
            }),
        );
    }
    let bytes = Rc::new(Cell::new(0u64));
    for (i, m) in mappers.iter().enumerate() {
        map_task(
            &mut cluster.sim,
            m.clone(),
            i as u64,
            bytes.clone(),
            done.clone(),
        );
    }
    cluster.sim.run();
    assert_eq!(done.get(), MAPPERS);
    let map_secs = as_secs(cluster.sim.now() - t1);
    let gb = bytes.get() as f64 / (1 << 30) as f64;
    println!(
        "map phase: {MAPPERS} mappers streamed {:.2} GiB in {:.3}s virtual",
        gb, map_secs
    );
    println!(
        "  aggregate read bandwidth: {:.2} GB/s (virtual)",
        gb / map_secs
    );
    let fab = cluster.fab.stats();
    println!(
        "  fabric moved {:.2} GiB total",
        fab.bytes as f64 / (1 << 30) as f64
    );
    assert!(
        gb / map_secs > 1.0,
        "RDMA-backed cache should exceed 1 GB/s aggregate"
    );
}

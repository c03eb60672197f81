//! Call Data Record processing (§2.3): stream Processing Elements perform
//! subscriber lookups and CDR updates against HydraDB at telecom rates —
//! millions of accesses per second with sub-hundred-microsecond latency.
//!
//! The reference data source periodically loads subscriber profiles; PEs
//! then interleave user-ID lookups (hot, benefiting from one-sided reads)
//! with call-record updates.
//!
//! Run with: `cargo run --release --example call_records`

use std::cell::Cell;
use std::rc::Rc;

use hydra_db::{ClusterBuilder, ClusterConfig, HydraClient};
use hydra_sim::time::as_secs;
use hydra_sim::Sim;

const SUBSCRIBERS: u64 = 50_000;
const PES: usize = 24;
const OPS_PER_PE: u64 = 4_000;

fn subscriber_key(id: u64) -> Vec<u8> {
    format!("msisdn:{:012}", 31_600_000_000u64 + id).into_bytes()
}

/// One Processing Element: 80% lookups of (Zipf-hot) subscribers, 20% CDR
/// updates appended to the subscriber's rolling record.
fn run_pe(
    sim: &mut Sim,
    pe: usize,
    client: HydraClient,
    done: Rc<Cell<usize>>,
    end: Rc<Cell<u64>>,
) {
    fn step(
        sim: &mut Sim,
        pe: usize,
        i: u64,
        client: HydraClient,
        done: Rc<Cell<usize>>,
        end: Rc<Cell<u64>>,
    ) {
        if i >= OPS_PER_PE {
            done.set(done.get() + 1);
            end.set(end.get().max(sim.now()));
            return;
        }
        // Deterministic per-PE pseudo-stream: skewed towards low ids.
        let r = (i.wrapping_mul(6364136223846793005).wrapping_add(pe as u64) >> 16) % 1000;
        let id = (r * r) % SUBSCRIBERS; // quadratic skew: hot subscribers
        let key = subscriber_key(id);
        let c2 = client.clone();
        let cont: hydra_db::client::OpCb = Box::new(move |sim, res| {
            res.expect("CDR op succeeds");
            step(sim, pe, i + 1, c2, done, end);
        });
        if i % 5 == 4 {
            let cdr = format!("cdr:{pe}:{i}:duration=132s;cell=0x{id:x}");
            client.update(sim, &key, cdr.as_bytes(), cont);
        } else {
            client.get(sim, &key, cont);
        }
    }
    step(sim, pe, 0, client, done, end);
}

fn main() {
    let cfg = ClusterConfig {
        server_nodes: 2,
        shards_per_node: 4,
        client_nodes: 4,
        arena_words: 1 << 22,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let clients: Vec<_> = (0..PES).map(|i| cluster.add_client(i % 4)).collect();

    // Reference-data load: subscriber profiles.
    println!("loading {SUBSCRIBERS} subscriber profiles...");
    let loaded = Rc::new(Cell::new(0u64));
    fn load(sim: &mut Sim, client: HydraClient, id: u64, stride: u64, loaded: Rc<Cell<u64>>) {
        if id >= SUBSCRIBERS {
            return;
        }
        let key = subscriber_key(id);
        let profile = format!("subscriber:{id};plan=flat;home=cell-{}", id % 512);
        let c2 = client.clone();
        client.insert(
            sim,
            &key,
            profile.as_bytes(),
            Box::new(move |sim, r| {
                r.expect("load succeeds");
                loaded.set(loaded.get() + 1);
                load(sim, c2, id + stride, stride, loaded);
            }),
        );
    }
    for (i, c) in clients.iter().enumerate() {
        load(
            &mut cluster.sim,
            c.clone(),
            i as u64,
            PES as u64,
            loaded.clone(),
        );
    }
    cluster.sim.run();
    assert_eq!(loaded.get(), SUBSCRIBERS);

    // Stream phase.
    for c in &clients {
        c.reset_stats();
    }
    let t0 = cluster.sim.now();
    let done = Rc::new(Cell::new(0usize));
    // Completion time comes from the callbacks: the final queue drain also
    // fires far-future lease-reclamation events that must not count.
    let end = Rc::new(Cell::new(t0));
    for (pe, c) in clients.iter().enumerate() {
        run_pe(&mut cluster.sim, pe, c.clone(), done.clone(), end.clone());
    }
    cluster.sim.run();
    assert_eq!(done.get(), PES);
    let elapsed = end.get() - t0;

    let mut lookups = hydra_sim::Histogram::new();
    let mut updates = hydra_sim::Histogram::new();
    let mut fast = 0u64;
    for c in &clients {
        let s = c.stats();
        lookups.merge(&s.get_lat);
        updates.merge(&s.update_lat);
        fast += s.rptr_hits;
    }
    let total_ops = PES as u64 * OPS_PER_PE;
    println!(
        "{PES} PEs completed {total_ops} accesses in {:.3}s virtual",
        as_secs(elapsed)
    );
    println!(
        "  access rate     : {:.2} M/s",
        total_ops as f64 / as_secs(elapsed) / 1e6
    );
    println!(
        "  lookup latency  : mean {:.1}us p99 {:.1}us",
        lookups.mean() / 1e3,
        lookups.quantile(0.99) as f64 / 1e3
    );
    println!(
        "  update latency  : mean {:.1}us p99 {:.1}us",
        updates.mean() / 1e3,
        updates.quantile(0.99) as f64 / 1e3
    );
    println!("  one-sided hits  : {fast}");
    // The §2.3 service bar: millions of accesses/s at <= hundreds of us.
    assert!(
        total_ops as f64 / as_secs(elapsed) > 1e6,
        "must exceed 1M accesses/s"
    );
    assert!(
        lookups.quantile(0.99) < 200_000,
        "p99 lookup must stay under 200us"
    );
}

//! G2 Sensemaking (§2.2): entity-resolution engines absorb real-time
//! observations. Each engine resolves incoming events against known entities
//! (lookups) and asserts new observations (writes). HydraDB replaces the
//! relational store that had become the I/O bottleneck.
//!
//! Run with: `cargo run --release --example g2_sensemaking`

use std::cell::Cell;
use std::rc::Rc;

use hydra_db::{ClusterBuilder, ClusterConfig, HydraClient};
use hydra_sim::time::as_secs;
use hydra_sim::Sim;

const ENTITIES: u64 = 20_000;
const ENGINES: usize = 16;
const EVENTS_PER_ENGINE: u64 = 2_500;

fn entity_key(id: u64) -> Vec<u8> {
    format!("entity:{id:010}").into_bytes()
}

/// Processes one observation: resolve two candidate entities, then assert
/// the observation onto the best match (protobuf-style packed row).
fn run_engine(
    sim: &mut Sim,
    engine: usize,
    client: HydraClient,
    done: Rc<Cell<usize>>,
    end: Rc<Cell<u64>>,
) {
    fn step(
        sim: &mut Sim,
        engine: usize,
        i: u64,
        client: HydraClient,
        done: Rc<Cell<usize>>,
        end: Rc<Cell<u64>>,
    ) {
        if i >= EVENTS_PER_ENGINE {
            done.set(done.get() + 1);
            end.set(end.get().max(sim.now()));
            return;
        }
        let h = i
            .wrapping_mul(0x9E3779B97F4A7C15)
            .wrapping_add(engine as u64);
        let a = h % ENTITIES;
        let b = (h >> 17) % ENTITIES;
        let c1 = client.clone();
        // Lookup candidate A, then candidate B, then assert on A.
        client.get(
            sim,
            &entity_key(a),
            Box::new(move |sim, r| {
                r.expect("lookup a");
                let c2 = c1.clone();
                c1.get(
                    sim,
                    &entity_key(b),
                    Box::new(move |sim, r| {
                        r.expect("lookup b");
                        let c3 = c2.clone();
                        let assertion = format!("obs:{engine}:{i};link={b};score=0.87");
                        c2.update(
                            sim,
                            &entity_key(a),
                            assertion.as_bytes(),
                            Box::new(move |sim, r| {
                                r.expect("assertion write");
                                step(sim, engine, i + 1, c3, done, end);
                            }),
                        );
                    }),
                );
            }),
        );
    }
    step(sim, engine, 0, client, done, end);
}

fn main() {
    let cfg = ClusterConfig {
        server_nodes: 1,
        shards_per_node: 4,
        client_nodes: 4,
        arena_words: 1 << 22,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let clients: Vec<_> = (0..ENGINES).map(|i| cluster.add_client(i % 4)).collect();

    // Seed the entity base.
    println!("seeding {ENTITIES} entities...");
    fn seed(sim: &mut Sim, client: HydraClient, id: u64, stride: u64) {
        if id >= ENTITIES {
            return;
        }
        let row = format!("entity:{id};kind=person;confidence=1.0");
        let c2 = client.clone();
        client.insert(
            sim,
            &entity_key(id),
            row.as_bytes(),
            Box::new(move |sim, r| {
                r.expect("seed");
                seed(sim, c2, id + stride, stride);
            }),
        );
    }
    for (i, c) in clients.iter().enumerate() {
        seed(&mut cluster.sim, c.clone(), i as u64, ENGINES as u64);
    }
    cluster.sim.run();

    for c in &clients {
        c.reset_stats();
    }
    let t0 = cluster.sim.now();
    let done = Rc::new(Cell::new(0usize));
    // Measure completion through the callbacks: draining the queue also
    // fires far-future lease-reclamation events, which must not count.
    let end = Rc::new(Cell::new(t0));
    for (e, c) in clients.iter().enumerate() {
        run_engine(&mut cluster.sim, e, c.clone(), done.clone(), end.clone());
    }
    cluster.sim.run();
    assert_eq!(done.get(), ENGINES);
    let elapsed = end.get() - t0;

    let events = ENGINES as u64 * EVENTS_PER_ENGINE;
    let accesses = events * 3; // 2 lookups + 1 assertion per event
    let mut fast = 0u64;
    for c in &clients {
        fast += c.stats().rptr_hits;
    }
    println!(
        "{ENGINES} engines absorbed {events} observations ({accesses} store accesses) in {:.3}s virtual",
        as_secs(elapsed)
    );
    println!(
        "  observation rate : {:.0} K events/s",
        events as f64 / as_secs(elapsed) / 1e3
    );
    println!(
        "  store access rate: {:.2} M/s",
        accesses as f64 / as_secs(elapsed) / 1e6
    );
    println!("  one-sided lookups: {fast}");
    assert!(
        events as f64 / as_secs(elapsed) > 100_000.0,
        "G2 needs >100K observations/s to keep up with real-time feeds"
    );
}

//! Scan plane (YCSB-E): the shard's ordered view, and the scan path through
//! the cluster.
//!
//! Three measurements:
//!
//! 1. **Engine microbenchmark** — `ShardEngine::scan_into` over
//!    Zipfian-scrambled start keys at scan length 100. Engines are loaded
//!    in scrambled id order, as a cluster fed by many interleaved clients
//!    is: index nodes and items then lie in memory in an order unrelated to
//!    key order and a range walk misses the cache per item. Loading in key
//!    order instead lets the hardware prefetcher stream the walk; that
//!    special case is reported as a second row. A shard builds its ordered
//!    view at its first scan, so the scrambled engine's first scan is timed
//!    on its own: the build, in ms and ns per item. A point-GET probe then
//!    runs over the scanned engine and an unscanned twin: the view must
//!    leave the point path's work untouched.
//! 2. **Cluster YCSB-E** — `Workload::workload_e` (95% scans, uniform
//!    length 1..=100, 5% inserts) through the full wire/server/client scan
//!    plane, reporting end-to-end virtual-time throughput and scan latency.
//!
//! 3. **Fan-out** — the same workload on 1, 2, 4, 8 and 16 partitions:
//!    steps per scan and items fetched per item returned (acceptance
//!    ceilings 2.0 on 4 partitions, 3.0 on 16).
//!
//! The point-GET gate is deterministic: over the probe, a scanned shard's
//! index does exactly an unscanned one's lookups, bucket probes and full
//! compares.

use std::time::Instant;

use hydra_store::{EngineConfig, ShardEngine, WriteMode};
use hydra_ycsb::{run_workload, DriverConfig, Workload, ZipfianGenerator};

use crate::{paper_cluster, paper_cluster_config, run_hydra, Lcg, Report, Scale};

const SCAN_LEN: u32 = 100;

fn key_of(id: u64) -> Vec<u8> {
    let mut k = format!("u{id:015}").into_bytes();
    k.resize(16, b'.');
    k
}

/// Which order the records are inserted in.
#[derive(Clone, Copy)]
enum Load {
    /// Ids sorted by their scramble: memory order unrelated to key order.
    Scrambled,
    /// Ids ascending: memory order equals key order.
    KeyOrder,
}

fn engine(records: u64, load: Load) -> ShardEngine {
    // ~64 B per item (16 B key + 32 B value + headers): size the arena with
    // ample slack so the engine never blocks on reclamation.
    let arena_words = ((records as usize * 16).next_power_of_two()).max(1 << 16);
    let mut e = ShardEngine::new(EngineConfig {
        arena_words,
        write_mode: WriteMode::Reliable,
        min_lease_ns: 1_000_000,
        max_lease_ns: 64_000_000,
        ..EngineConfig::default()
    });
    let mut ids: Vec<u64> = (0..records).collect();
    if let Load::Scrambled = load {
        ids.sort_by_key(|&id| ZipfianGenerator::fnv_scramble(id));
    }
    for id in ids {
        e.insert(0, &key_of(id), &[0x5A; 32]).expect("load");
    }
    e
}

/// Runs `scans` scans of `SCAN_LEN` items from scrambled start ids and
/// returns (scans/sec, items emitted).
fn bench_scans(e: &mut ShardEngine, records: u64, scans: usize, seed: u64) -> (f64, u64) {
    let mut lcg = Lcg(seed);
    let mut scratch = Vec::new();
    let mut items = 0u64;
    let start_t = Instant::now();
    for _ in 0..scans {
        let start_id = ZipfianGenerator::fnv_scramble(lcg.step() >> 11) % records;
        let start = key_of(start_id);
        let mut emitted = 0u32;
        e.scan_into(&start, &mut scratch, |_k, _v| {
            emitted += 1;
            emitted < SCAN_LEN
        });
        items += emitted as u64;
    }
    let secs = start_t.elapsed().as_secs_f64().max(1e-9);
    (scans as f64 / secs, items)
}

/// What `e`'s index did over `gets` point GETs of scrambled loaded keys:
/// lookups, buckets probed, full key compares.
fn probe_gets(e: &mut ShardEngine, records: u64, gets: usize, seed: u64) -> [u64; 3] {
    let probed = |e: &ShardEngine| {
        let t = e.table_stats();
        [t.lookups, t.buckets_probed, t.full_compares]
    };
    let before = probed(e);
    let mut lcg = Lcg(seed);
    let mut scratch = Vec::new();
    for i in 0..gets {
        let k = key_of(ZipfianGenerator::fnv_scramble(lcg.step() >> 11) % records);
        assert!(e.get_into(i as u64, &k, &mut scratch).is_some(), "probes target loaded keys");
    }
    let after = probed(e);
    [0, 1, 2].map(|i| after[i] - before[i])
}

pub fn run(scale: Scale, report: &mut Report) {
    let records = scale.records();
    let (scans, get_ops) = match scale {
        Scale::Smoke => (2_000, 200_000),
        Scale::Normal => (20_000, 2_000_000),
        Scale::Paper => (100_000, 10_000_000),
    };

    report.line(&format!(
        "# {records} records; scan length {SCAN_LEN}; {scans} scans per engine"
    ));

    // --- engine ---
    let mut scanned = engine(records, Load::Scrambled);
    let mut unscanned = engine(records, Load::Scrambled);

    // Nothing has asked for order yet: the first scan builds the view.
    assert!(scanned.ordered_stats().is_none());
    let build_t = Instant::now();
    scanned.scan_into(b"", &mut Vec::new(), |_, _| false);
    let build_ms = build_t.elapsed().as_secs_f64() * 1e3;
    let build_ns_item = build_ms * 1e6 / records as f64;
    report.line(&format!(
        "# first scan built the ordered view: {build_ms:.1} ms, {build_ns_item:.0} ns/item"
    ));

    // Warm, then measure.
    let _ = bench_scans(&mut scanned, records, scans / 10, 7);
    let (rate, items) = bench_scans(&mut scanned, records, scans, 13);
    let ns_per_item = |rate: f64, items: u64| 1e9 * scans as f64 / rate / items as f64;
    let ns_item = ns_per_item(rate, items);
    report.line(&format!(
        "{:<22} {:>16.0}   scrambled load, {:.0} ns/item",
        "scans_per_sec", rate, ns_item
    ));
    report.line(&format!(
        "# walked {} items ({:.1} per scan)",
        items,
        items as f64 / scans as f64
    ));
    // The special case: memory order equals key order.
    let (ko_rate, ko_items) = {
        let mut keyorder = engine(records, Load::KeyOrder);
        let _ = bench_scans(&mut keyorder, records, scans / 10, 7);
        bench_scans(&mut keyorder, records, scans, 13)
    };
    let ko_ns_item = ns_per_item(ko_rate, ko_items);
    report.line(&format!(
        "{:<22} {:>16.0}   key-order load, {:.0} ns/item",
        "scans_per_sec_keyorder", ko_rate, ko_ns_item
    ));

    // The same point GETs on the scanned engine and its unscanned twin.
    let with_view = probe_gets(&mut scanned, records, get_ops, 19);
    let without = probe_gets(&mut unscanned, records, get_ops, 19);
    assert!(unscanned.ordered_stats().is_none());
    report.line(&format!(
        "# {get_ops} point GETs, [lookups, buckets probed, full compares]: scanned {with_view:?}, \
         unscanned {without:?}"
    ));

    report.datum("build_ms", build_ms);
    report.datum("build_ns_per_item", build_ns_item);
    report.datum("scans_per_s", rate);
    report.datum("ns_per_item", ns_item);
    report.datum("keyorder_scans_per_s", ko_rate);
    report.datum("keyorder_ns_per_item", ko_ns_item);

    // --- cluster YCSB-E through the wire scan plane ---
    let r = run_hydra(paper_cluster_config(), 50, &Workload::workload_e(records, scale.ops(), 27));
    report.line(&format!(
        "# ycsb-e (hybrid cluster): {:.3} Mops | {} scans | scan mean {:.2}us p99 {:.2}us",
        r.mops, r.scans, r.scan_mean_us, r.scan_p99_us
    ));
    report.datum(
        "ycsb_e_hybrid",
        serde_json::json!({
            "mops": r.mops,
            "scans": r.scans,
            "scan_mean_us": r.scan_mean_us,
            "scan_p99_us": r.scan_p99_us,
            "errors": r.errors,
        }),
    );

    // --- what the client's fan-out costs over its result ---
    // The same workload on 1 to 16 partitions: steps per scan, and items the
    // partitions shipped per item the merged answers kept. Asking every
    // partition for the whole limit made the second column the partition
    // count; a quota per partition keeps it near 2.
    report.line("# fan-out (ycsb-e): partitions  steps_per_scan  fetched_per_returned");
    let mut fanout = Vec::new();
    for (server_nodes, shards_per_node) in [(1, 1), (1, 2), (1, 4), (2, 4), (4, 4)] {
        let cfg = hydra_db::ClusterConfig {
            server_nodes,
            shards_per_node,
            ..paper_cluster_config()
        };
        let (mut cluster, clients) = paper_cluster(cfg, 50);
        let wl = Workload::workload_e(records.min(100_000), scale.ops() / 6, 27);
        let r = run_workload(&mut cluster.sim, &clients, &wl, &DriverConfig::default());
        assert_eq!(r.errors, 0);
        let stats: Vec<_> = clients.iter().map(|c| c.stats()).collect();
        let sum = |f: fn(&hydra_db::ClientStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
        let steps_per_scan = sum(|s| s.scan_steps) / sum(|s| s.scans);
        let fetched_per_returned = sum(|s| s.scan_items_fetched) / sum(|s| s.scan_items_returned);
        let partitions = server_nodes * shards_per_node;
        report.line(&format!(
            "{:<22} {partitions:>7} {steps_per_scan:>15.3} {fetched_per_returned:>21.2}",
            "fanout"
        ));
        fanout.push(serde_json::json!({
            "partitions": partitions,
            "steps_per_scan": steps_per_scan,
            "fetched_per_returned": fetched_per_returned,
        }));
        let ceiling = match partitions {
            4 => 2.0,
            16 => 3.0,
            _ => f64::INFINITY,
        };
        report.claim(
            fetched_per_returned <= ceiling,
            format!("{partitions} partitions: fetched {fetched_per_returned:.2}x returned"),
            &format!("a scan on {partitions} partitions fetches <= {ceiling}x what it returns"),
        );
    }
    report.datum("fanout", fanout);

    // A GET's wall time on a shared machine swings by more than any
    // difference the view could make, so the gate is the work: a scanned
    // shard's point GETs probe exactly what an unscanned one's do.
    report.claim(
        without[0] > 0 && with_view == without,
        format!("[lookups, buckets probed, full compares]: scanned {with_view:?}, unscanned {without:?}"),
        "a scanned shard's point GETs do an unscanned one's index work",
    );
}

//! Scan plane: the shard's ordered view.
//!
//! **Engine microbenchmark** — `ShardEngine::scan_into` over
//! Zipfian-scrambled start keys at scan length 100. Engines are loaded in
//! scrambled id order, as a cluster fed by many interleaved clients is:
//! index nodes and items then lie in memory in an order unrelated to key
//! order and a range walk misses the cache per item. Loading in key order
//! instead lets the hardware prefetcher stream the walk; that special case
//! is reported as a second row. A shard builds its ordered view at its first
//! scan, so the scrambled engine's first scan is timed on its own: the
//! build, in ms and ns per item. A point-GET probe then runs over the
//! scanned engine and an unscanned twin: the view must leave the point
//! path's work untouched.
//!
//! The point-GET gate is deterministic: over the probe, a scanned shard's
//! index does exactly an unscanned one's lookups, bucket probes and full
//! compares. The scan path through the cluster, on the virtual clock, is
//! `perf_scan_fanout`'s.

use std::time::Instant;

use hydra_store::{EngineConfig, ShardEngine, WriteMode};
use hydra_ycsb::ZipfianGenerator;

use crate::{Lcg, Report, Scale};

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

pub(crate) fn run(scale: Scale, report: &mut Report) {
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

    // A GET's wall time on a shared machine swings by more than any
    // difference the view could make, so the gate is the work: a scanned
    // shard's point GETs probe exactly what an unscanned one's do.
    report.claim(
        without[0] > 0 && with_view == without,
        format!("[lookups, buckets probed, full compares]: scanned {with_view:?}, unscanned {without:?}"),
        "a scanned shard's point GETs do an unscanned one's index work",
    );
}

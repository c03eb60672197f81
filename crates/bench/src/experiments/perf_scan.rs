//! Scan-plane ablation (YCSB-E): the hybrid ordered index against the
//! hash-only baseline that can only *emulate* a range scan by dumping and
//! sorting the whole shard.
//!
//! Three measurements:
//!
//! 1. **Engine microbenchmark** — `ShardEngine::scan_into` with
//!    `IndexKind::Hybrid` (native skiplist walk) vs `IndexKind::Packed`
//!    (emulated: full dump + sort per scan) over Zipfian-scrambled start
//!    keys at scan length 100, plus a point-GET probe over both engines to
//!    bound the hybrid's read-path overhead. The emulated baseline is
//!    sampled (each scan is O(n log n)) and reported as per-scan rate.
//!    Engines are loaded in scrambled id order, as a cluster fed by many
//!    interleaved clients is: index nodes and items then lie in memory in
//!    an order unrelated to key order and a range walk misses the cache per
//!    item. Loading in key order instead lets the hardware prefetcher
//!    stream the walk; that special case is reported as a second row.
//! 2. **Cluster YCSB-E** — `Workload::workload_e` (95% scans, uniform
//!    length 1..=100, 5% inserts) through the full wire/server/client scan
//!    plane on a hybrid-indexed cluster, reporting end-to-end virtual-time
//!    throughput and scan latency.
//!
//! 3. **Fan-out** — the same workload on 1, 2, 4, 8 and 16 partitions:
//!    steps per scan and items fetched per item returned (acceptance
//!    ceilings 2.0 on 4 partitions, 3.0 on 16).
//!
//! Headline data: `scan_speedup` (hybrid vs emulated scans/sec, acceptance
//! floor 5x) and `get_regression_pct` (hybrid point-GET wall-clock cost vs
//! packed, reported). The point-GET gate is deterministic: over the probe,
//! the hybrid's index does exactly the packed index's lookups, bucket
//! probes and full compares.

use std::time::Instant;

use hydra_db::IndexKind;
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

fn engine(kind: IndexKind, records: u64, load: Load) -> ShardEngine {
    // ~64 B per item (16 B key + 32 B value + headers): size the arena with
    // ample slack so neither engine ever blocks on reclamation.
    let arena_words = ((records as usize * 16).next_power_of_two()).max(1 << 16);
    let mut e = ShardEngine::new(EngineConfig {
        arena_words,
        expected_items: records as usize,
        index: kind,
        write_mode: WriteMode::Reliable,
        min_lease_ns: 1_000_000,
        max_lease_ns: 64_000_000,
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

/// Point-GET throughput (Mops) for both engines over the same scrambled
/// probe order, measured in *interleaved* rounds with alternating engine
/// order. A sequential A-then-B measurement systematically favours whichever
/// engine runs second (warmed caches, settled frequency scaling, completed
/// page faults): the original layout measured hybrid first and packed
/// second, and the resulting bias exceeded the true index overhead, showing
/// up as a spurious *negative* "regression". Interleaving slices the probe
/// stream into short rounds and swaps which engine goes first each round, so
/// both engines sample the same machine conditions.
/// Returns `(hybrid Mops, packed Mops, regression %)`. The throughputs are
/// total-time aggregates; the regression estimate is the *median* of the
/// per-round packed/hybrid time ratios, so a transient load spike that lands
/// on a single round (wall-clock probes on a shared machine) cannot swing
/// the reported regression the way it swings the aggregate.
fn bench_gets_interleaved(
    hybrid: &mut ShardEngine,
    packed: &mut ShardEngine,
    records: u64,
    ops: usize,
    seed: u64,
) -> (f64, f64, f64) {
    const ROUNDS: usize = 16;
    let mut lcg = Lcg(seed);
    let per_round = (ops / ROUNDS).max(1);
    let keys: Vec<Vec<u8>> = (0..per_round * ROUNDS)
        .map(|_| key_of(ZipfianGenerator::fnv_scramble(lcg.step() >> 11) % records))
        .collect();
    let mut scratch = Vec::new();
    let probe = |e: &mut ShardEngine, round: usize, scratch: &mut Vec<u8>| -> f64 {
        let slice = &keys[round * per_round..(round + 1) * per_round];
        let start_t = Instant::now();
        let mut hits = 0usize;
        for (i, k) in slice.iter().enumerate() {
            if e.get_into(i as u64, k, scratch).is_some() {
                hits += 1;
            }
        }
        let secs = start_t.elapsed().as_secs_f64();
        assert_eq!(hits, slice.len(), "all probes target loaded keys");
        secs
    };
    let (mut t_hy, mut t_pk) = (0.0f64, 0.0f64);
    let mut ratios = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let (hy, pk) = if round % 2 == 0 {
            let hy = probe(hybrid, round, &mut scratch);
            let pk = probe(packed, round, &mut scratch);
            (hy, pk)
        } else {
            let pk = probe(packed, round, &mut scratch);
            let hy = probe(hybrid, round, &mut scratch);
            (hy, pk)
        };
        t_hy += hy;
        t_pk += pk;
        ratios.push(pk / hy.max(1e-12));
    }
    ratios.sort_by(|a, b| a.total_cmp(b));
    let median_ratio = (ratios[ROUNDS / 2 - 1] + ratios[ROUNDS / 2]) / 2.0;
    let total = (per_round * ROUNDS) as f64;
    (
        total / t_hy.max(1e-9) / 1e6,
        total / t_pk.max(1e-9) / 1e6,
        (1.0 - median_ratio) * 100.0,
    )
}

pub fn run(scale: Scale, report: &mut Report) {
    let records = scale.records();
    let (hybrid_scans, emul_scans, get_ops) = match scale {
        Scale::Smoke => (2_000, 40, 200_000),
        Scale::Normal => (20_000, 60, 2_000_000),
        Scale::Paper => (100_000, 100, 10_000_000),
    };

    report.line(&format!(
        "# {records} records; scan length {SCAN_LEN}; {hybrid_scans} hybrid / {emul_scans} emulated scans (emulated sampled: each is a full dump+sort)"
    ));

    // --- engine ablation ---
    let mut hybrid = engine(IndexKind::Hybrid, records, Load::Scrambled);
    let mut packed = engine(IndexKind::Packed, records, Load::Scrambled);
    assert!(hybrid.scan_is_native());
    assert!(!packed.scan_is_native());

    // Warm both, then measure.
    let _ = bench_scans(&mut hybrid, records, hybrid_scans / 10, 7);
    let _ = bench_scans(&mut packed, records, (emul_scans / 10).max(1), 7);
    let (hy_rate, hy_items) = bench_scans(&mut hybrid, records, hybrid_scans, 13);
    let (em_rate, _) = bench_scans(&mut packed, records, emul_scans, 13);
    let speedup = hy_rate / em_rate;
    let ns_per_item = |rate: f64, items: u64| 1e9 * hybrid_scans as f64 / rate / items as f64;
    let hy_ns_item = ns_per_item(hy_rate, hy_items);
    report.line(&format!(
        "{:<22} {:>16.0} {:>16.2} {:>10.1}x   scrambled load, {:.0} ns/item",
        "scans_per_sec", hy_rate, em_rate, speedup, hy_ns_item
    ));
    report.line(&format!(
        "# hybrid walked {} items ({:.1} per scan)",
        hy_items,
        hy_items as f64 / hybrid_scans as f64
    ));
    // The special case: memory order equals key order.
    let (ko_rate, ko_items) = {
        let mut keyorder = engine(IndexKind::Hybrid, records, Load::KeyOrder);
        let _ = bench_scans(&mut keyorder, records, hybrid_scans / 10, 7);
        bench_scans(&mut keyorder, records, hybrid_scans, 13)
    };
    let ko_ns_item = ns_per_item(ko_rate, ko_items);
    report.line(&format!(
        "{:<22} {:>16.0} {:>16} {:>11}   key-order load, {:.0} ns/item",
        "scans_per_sec_keyorder", ko_rate, "-", "-", ko_ns_item
    ));

    // What each engine's index did over the probe: lookups, buckets probed,
    // full key compares. The hybrid's point path is its packed side.
    let probed = |e: &ShardEngine| {
        let t = e.table_stats();
        [t.lookups, t.buckets_probed, t.full_compares]
    };
    let (hy_before, pk_before) = (probed(&hybrid), probed(&packed));
    let (g_hy, g_pk, regression_pct) =
        bench_gets_interleaved(&mut hybrid, &mut packed, records, get_ops, 19);
    let delta = |e: &ShardEngine, before: [u64; 3]| {
        let after = probed(e);
        [0, 1, 2].map(|i| after[i] - before[i])
    };
    let (hy_probe, pk_probe) = (delta(&hybrid, hy_before), delta(&packed, pk_before));
    report.line(&format!(
        "{:<22} {:>16.2} {:>16.2} {:>9.2}%",
        "point_get_mops", g_hy, g_pk, regression_pct
    ));

    report.datum("hybrid_scans_per_s", hy_rate);
    report.datum("hybrid_ns_per_item", hy_ns_item);
    report.datum("hybrid_keyorder_scans_per_s", ko_rate);
    report.datum("hybrid_keyorder_ns_per_item", ko_ns_item);
    report.datum("emulated_scans_per_s", em_rate);
    report.datum("scan_speedup", speedup);
    report.datum("get_hybrid_mops", g_hy);
    report.datum("get_packed_mops", g_pk);
    report.datum("get_regression_pct", regression_pct);

    // --- cluster YCSB-E through the wire scan plane ---
    let cfg = hydra_db::ClusterConfig {
        index: IndexKind::Hybrid,
        ..paper_cluster_config()
    };
    let r = run_hydra(cfg, 50, &Workload::workload_e(records, scale.ops(), 27));
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
            index: IndexKind::Hybrid,
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

    report.line(&format!(
        "# headline: hybrid serves scans {speedup:.1}x faster than the emulated hash-only \
         baseline; point GETs regress {regression_pct:.2}%"
    ));
    report.claim(
        speedup >= 5.0,
        format!("hybrid {speedup:.2}x emulated scans"),
        "the hybrid index beats emulated scans by >= 5x",
    );
    // The GET probe's timing is wall-clock and swings by more than 5 % on a
    // shared machine, so it is reported, not gated. The gate is the work: a
    // hybrid point GET probes exactly what a packed one does.
    report.claim(
        pk_probe[0] > 0 && hy_probe == pk_probe,
        format!(
            "[lookups, buckets probed, full compares] over the probe: hybrid {hy_probe:?}, \
             packed {pk_probe:?}"
        ),
        "hybrid point GETs do the packed index's work",
    );
}

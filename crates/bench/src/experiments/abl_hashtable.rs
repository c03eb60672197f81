//! A-HASH ablation (§4.1.3) — the index structures against each other:
//! the packed cache-line-group table every shard holds, the compact
//! signature table, and the naive chained-list table. Two halves:
//!
//! 1. Structural counters: cache lines touched (groups/buckets probed, i.e.
//!    pointer dereferences for chained) and full key comparisons per lookup,
//!    loaded and after heavy removals, on the three standalone tables.
//! 2. The packed index in situ: a full YCSB-B run on the paper's cluster,
//!    with the probe counters of every shard's index read under the real
//!    request stream rather than extrapolated from microbenchmarks.
//!
//! Every datum is a count, so two runs repeat it exactly. Wall-clock
//! probe speed of the same three tables lives in `perf_index`
//! (`BENCH_index`).

use hydra_store::{hash_key, ChainedTable, CompactTable, PackedTable, TableStats};
use hydra_ycsb::{run_workload, DriverConfig};

use crate::{one_workload, paper_cluster, paper_cluster_config, Report, Scale};

fn keys(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("user{i:012}").into_bytes())
        .collect()
}

/// One table's row: lookups, then lines (or nodes) and full compares per
/// lookup.
fn per_lookup(report: &mut Report, name: &str, s: &TableStats) -> (f64, f64) {
    let lines = s.buckets_probed as f64 / s.lookups as f64;
    let cmps = s.full_compares as f64 / s.lookups as f64;
    report.row(&[&name, &s.lookups, &lines, &cmps]);
    (lines, cmps)
}

pub(crate) fn run(scale: Scale, report: &mut Report) {
    let n = (scale.records() as usize).min(400_000);
    let keys = keys(n);
    report.header("table / phase<22|lookups>14|lines_or_nodes/op>18.3|full_cmp/op>16.3");

    // Size compact/chained for ~2x overload of the main branch to expose
    // collision handling; the packed table runs at its natural 7/8 ceiling
    // (it cannot be overloaded past one entry per slot by construction).
    let buckets = n / 14; // compact: 7 slots per bucket -> ~2x occupancy
    let mut compact = CompactTable::new(buckets);
    let mut chained = ChainedTable::new(buckets * 8); // same memory budget ballpark
    let mut packed = PackedTable::with_capacity(n);

    for (i, k) in keys.iter().enumerate() {
        let h = hash_key(k);
        compact.insert(h, i as u64);
        chained.insert(h, i as u64);
        packed.insert(h, i as u64, |off| hash_key(&keys[off as usize]));
    }
    compact.reset_stats();
    chained.reset_stats();
    packed.reset_stats();
    for (i, k) in keys.iter().enumerate() {
        let h = hash_key(k);
        assert_eq!(compact.lookup(h, |off| off == i as u64), Some(i as u64));
        assert_eq!(chained.lookup(h, |off| off == i as u64), Some(i as u64));
        assert_eq!(packed.lookup(h, |off| off == i as u64), Some(i as u64));
    }
    for (name, s) in [
        ("packed / loaded", packed.stats()),
        ("compact / loaded", compact.stats()),
        ("chained / loaded", chained.stats()),
    ] {
        let (lines, cmps) = per_lookup(report, name, &s);
        report.datum(
            name,
            serde_json::json!({ "lines_per_lookup": lines, "cmp_per_lookup": cmps }),
        );
    }

    // Remove 80% and re-measure: merging (compact) and tombstone purging
    // (packed) must keep probe chains short after mass deletion.
    // Removal confirms identity by offset, exactly as the engine confirms
    // by key bytes — a bare tag/signature match may hit a colliding entry
    // at this key count and remove the wrong one.
    for (i, k) in keys.iter().enumerate().take(n * 4 / 5) {
        let h = hash_key(k);
        compact.remove(h, |off| off == i as u64);
        chained.remove(h, |off| off == i as u64);
        packed.remove(
            h,
            |off| off == i as u64,
            |off| hash_key(&keys[off as usize]),
        );
    }
    let merges = compact.stats().merges;
    let removal_stats = packed.stats();
    compact.reset_stats();
    chained.reset_stats();
    packed.reset_stats();
    for (i, k) in keys.iter().enumerate().skip(n * 4 / 5) {
        let h = hash_key(k);
        assert_eq!(compact.lookup(h, |off| off == i as u64), Some(i as u64));
        assert_eq!(chained.lookup(h, |off| off == i as u64), Some(i as u64));
        assert_eq!(packed.lookup(h, |off| off == i as u64), Some(i as u64));
    }
    for (name, s) in [
        ("packed / post-remove", packed.stats()),
        ("compact / post-merge", compact.stats()),
        ("chained / post-merge", chained.stats()),
    ] {
        per_lookup(report, name, &s);
    }
    report.line(&format!(
        "# during removals: compact merged {} overflow buckets away; packed purged \
         {} tombstone(s) across {} rebuild(s), {} displacement(s)",
        merges, removal_stats.tombstones_purged, removal_stats.resizes, removal_stats.displacements,
    ));

    // ---- The packed index in situ. Simulated throughput uses the
    // calibrated fixed per-op cost and is index-insensitive by design, so
    // the run reports what the index code did under the real (zipfian,
    // read-mostly, batched) request stream: probe lines and full key
    // comparisons per lookup, accumulated across every shard.
    let wl = one_workload(scale, 0.95, true, 4113);
    report.header("ycsb-b 95/5 zipf<22|lookups>14|lines_or_nodes/op>18.3|full_cmp/op>16.3");
    let (mut cluster, clients) = paper_cluster(paper_cluster_config(), 50);
    let r = run_workload(&mut cluster.sim, &clients, &wl, &DriverConfig::default());
    let mut s = TableStats::default();
    for p in 0..cluster.cfg.total_shards() {
        let shard = cluster.shard(p);
        let t = shard.primary.borrow().engine.borrow().table_stats();
        s.lookups += t.lookups;
        s.buckets_probed += t.buckets_probed;
        s.full_compares += t.full_compares;
        s.displacements += t.displacements;
        s.resizes += t.resizes;
    }
    let (lines, cmps) = (s.buckets_probed as f64, s.full_compares as f64);
    let (lines, cmps) = (lines / s.lookups as f64, cmps / s.lookups as f64);
    report.row(&[&"  index=packed", &s.lookups, &lines, &cmps]);
    report.datum(
        "ycsb_b_packed",
        serde_json::json!({
            "sim_mops": r.mops,
            "lines_per_lookup": lines,
            "cmp_per_lookup": cmps,
            "displacements": s.displacements,
            "resizes": s.resizes,
        }),
    );
    report.line(
        "# simulated Mops is index-insensitive (calibrated fixed per-op cost); \
         see BENCH_index for isolated wall-clock probe speedups",
    );
}

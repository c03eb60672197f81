//! Wall-clock comparison of the packed cache-line-group table, the §4.1.3
//! compact table, the chained baseline, and `std::collections::HashMap`
//! (A-HASH, wall-time half).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use hydra_store::{hash_key, ChainedTable, CompactTable, PackedTable};

const N: usize = 100_000;

/// Compact-table buckets: seven slots each, so `N` entries fill ~70 % of
/// the main branch before its power-of-two round-up.
const COMPACT_BUCKETS: usize = N / 5;

fn keys() -> Vec<Vec<u8>> {
    (0..N)
        .map(|i| format!("user{i:012}").into_bytes())
        .collect()
}

fn bench_lookup(c: &mut Criterion) {
    let keys = keys();
    let hashes: Vec<u64> = keys.iter().map(|k| hash_key(k)).collect();

    let mut packed = PackedTable::with_capacity(N);
    let mut compact = CompactTable::new(COMPACT_BUCKETS);
    let mut chained = ChainedTable::new(N / 4);
    let mut std_map = std::collections::HashMap::with_capacity(N);
    for (i, &h) in hashes.iter().enumerate() {
        packed.insert(h, i as u64, |off| hashes[off as usize]);
        compact.insert(h, i as u64);
        chained.insert(h, i as u64);
        std_map.insert(keys[i].clone(), i as u64);
    }

    let mut g = c.benchmark_group("lookup_hit");
    g.bench_function(BenchmarkId::new("packed", N), |b| {
        let mut i = 0;
        b.iter(|| {
            let idx = i % N;
            i += 1;
            black_box(packed.lookup(hashes[idx], |off| off == idx as u64))
        })
    });
    g.bench_function(BenchmarkId::new("compact", N), |b| {
        let mut i = 0;
        b.iter(|| {
            let idx = i % N;
            i += 1;
            black_box(compact.lookup(hashes[idx], |off| off == idx as u64))
        })
    });
    g.bench_function(BenchmarkId::new("chained", N), |b| {
        let mut i = 0;
        b.iter(|| {
            let idx = i % N;
            i += 1;
            black_box(chained.lookup(hashes[idx], |off| off == idx as u64))
        })
    });
    g.bench_function(BenchmarkId::new("std_hashmap", N), |b| {
        let mut i = 0;
        b.iter(|| {
            let idx = i % N;
            i += 1;
            black_box(std_map.get(&keys[idx]))
        })
    });
    g.finish();
}

fn bench_insert_remove(c: &mut Criterion) {
    let keys = keys();
    let hashes: Vec<u64> = keys.iter().map(|k| hash_key(k)).collect();
    let mut g = c.benchmark_group("insert_remove_cycle");
    g.bench_function("packed", |b| {
        let mut t = PackedTable::with_capacity(N);
        let mut i = 0usize;
        b.iter(|| {
            let idx = i % N;
            i += 1;
            t.insert(hashes[idx], idx as u64, |off| hashes[off as usize]);
            black_box(t.remove(
                hashes[idx],
                |off| off == idx as u64,
                |off| hashes[off as usize],
            ));
        })
    });
    g.bench_function("compact", |b| {
        let mut t = CompactTable::new(COMPACT_BUCKETS);
        let mut i = 0usize;
        b.iter(|| {
            let idx = i % N;
            i += 1;
            t.insert(hashes[idx], idx as u64);
            black_box(t.remove(hashes[idx], |off| off == idx as u64));
        })
    });
    g.bench_function("chained", |b| {
        let mut t = ChainedTable::new(N / 4);
        let mut i = 0usize;
        b.iter(|| {
            let idx = i % N;
            i += 1;
            t.insert(hashes[idx], idx as u64);
            black_box(t.remove(hashes[idx], |off| off == idx as u64));
        })
    });
    g.finish();
}

criterion_group!(benches, bench_lookup, bench_insert_remove);
criterion_main!(benches);

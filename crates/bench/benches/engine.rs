//! Shard-engine operation costs: the server-side CPU work per GET/UPDATE
//! that the cluster cost model abstracts as `hydra_db::costs::{GET_NS, WRITE_NS}`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use hydra_store::{EngineConfig, IndexKind, ShardEngine, WriteMode};

fn engine_with(n: usize) -> ShardEngine {
    let mut e = ShardEngine::new(EngineConfig {
        arena_words: n * 16,
        expected_items: n,
        index: IndexKind::Packed,
        write_mode: WriteMode::Reliable,
        min_lease_ns: 1_000_000,
        max_lease_ns: 64_000_000,
    });
    for i in 0..n {
        let key = format!("user{i:012}");
        e.insert(0, key.as_bytes(), &[0xAB; 32]).unwrap();
    }
    e
}

fn bench_engine(c: &mut Criterion) {
    let n = 100_000;
    let keys: Vec<String> = (0..n).map(|i| format!("user{i:012}")).collect();
    let mut g = c.benchmark_group("engine");

    g.bench_function("get_hit", |b| {
        let mut e = engine_with(n);
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) % n;
            black_box(e.get(1, keys[i].as_bytes()).is_some())
        })
    });
    g.bench_function("get_miss", |b| {
        let mut e = engine_with(n);
        b.iter(|| black_box(e.get(1, b"absent-key-000").is_none()))
    });
    g.bench_function("update_out_of_place", |b| {
        let mut e = engine_with(n);
        let mut i = 0usize;
        let mut now = 1u64;
        b.iter(|| {
            i = (i + 1) % n;
            now += 1;
            e.update(now, keys[i].as_bytes(), &[0xCD; 32]).unwrap();
            e.pump_reclaim(now + 100_000_000);
            black_box(now)
        })
    });
    g.bench_function("insert_delete_cycle", |b| {
        let mut e = engine_with(1_000);
        let mut now = 1u64;
        b.iter(|| {
            now += 1;
            e.insert(now, b"cycle-key-000000", &[0u8; 32]).unwrap();
            e.delete(now, b"cycle-key-000000").unwrap();
            e.pump_reclaim(now + 100_000_000);
            black_box(now)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);

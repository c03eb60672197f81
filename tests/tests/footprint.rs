//! Footprint guard: memory is committed when it is used, not when it is
//! sized.
//!
//! A shard's arena and index, a connection's message regions and a
//! client's pointer cache are all sized for the worst case (64 MiB of arena,
//! a million items, 64 K pointers) and nearly empty in most experiments. The
//! arena and the regions come zeroed from the allocator and are never
//! written at construction, the index starts at one page and doubles as
//! items arrive, and the pointer cache appends slots as keys arrive
//! and creates its admission sketch only when it is half full, so what a
//! cluster costs is what its traffic touches. When every client
//! wrote its 64 K empty slots and every arena was zeroed by a loop, the
//! cluster below grew the process by ≈ 2 GiB and `perf_conn`'s 2 048-client
//! step did not fit the machine; when each shard's index wrote its groups for
//! a million items up front, it grew by 64 MiB before its first insert.
//!
//! One test, so the process it measures is its own.

use hydra_db::{ClusterBuilder, ClusterConfig};
use hydra_integration::{get_value, put_ok};

/// Resident set of this process in KiB (Linux only).
fn rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[test]
fn a_cluster_and_128_clients_commit_what_they_touch() {
    const CLIENTS: usize = 128;
    const KEYS: usize = 512;
    const BUDGET_KIB: u64 = 32 << 10;
    let Some(before) = rss_kib() else {
        return; // no /proc: nothing to measure with
    };
    let cfg = ClusterConfig {
        server_nodes: 1,
        shards_per_node: 4,
        client_nodes: 1,
        arena_words: 1 << 23,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterBuilder::new(cfg).build();
    let clients: Vec<_> = (0..CLIENTS).map(|_| cluster.add_client(0)).collect();
    let keys: Vec<Vec<u8>> = (0..KEYS)
        .map(|i| format!("fp{i:04}").into_bytes())
        .collect();
    for key in &keys {
        put_ok(&mut cluster, &clients[0], key, &[0xF0; 32]);
    }
    for client in &clients {
        for key in &keys {
            assert!(get_value(&mut cluster, client, key).is_some());
        }
        assert_eq!(client.ptr_cache_len(), KEYS, "every GET cached its pointer");
    }
    let grown = rss_kib().expect("read once already") - before;
    // In a release build: 0.4 MiB for the cluster, 3.6 MiB for the idle
    // clients, 0.3 MiB for the items and 15 MiB for the GETs: 512 cached
    // pointers per client (an 88-byte slot each), the index over them and
    // the pages the GETs touch. No cache is half full, so none has an
    // admission sketch; when every client's 1 MiB sketch was written by its
    // traffic (each touch lands on 4 random pages of 256), the same run grew
    // by 152 MiB. A debug build adds 4 MiB.
    assert!(
        grown < BUDGET_KIB,
        "4 shards and {CLIENTS} clients with {KEYS} pointers each grew RSS by {} MiB",
        grown >> 10
    );
}

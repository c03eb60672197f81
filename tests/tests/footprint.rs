//! Footprint guard: memory is committed when it is used, not when it is
//! sized.
//!
//! A shard's arena, a connection's message regions and a client's pointer
//! cache are all sized for the worst case (64 MiB of arena, 64 K pointers)
//! and nearly empty in most experiments. The arena and the regions come
//! zeroed from the allocator and are never written at construction, and the
//! pointer cache appends slots as keys arrive, so what a cluster costs is
//! what its traffic touches. When every client wrote its 64 K empty slots
//! and every arena was zeroed by a loop, the cluster below grew the process
//! by ≈ 2 GiB and `perf_conn`'s 2 048-client step did not fit the machine.
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
    const BUDGET_KIB: u64 = 256 << 10;
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
    put_ok(&mut cluster, &clients[0], b"footprint", &[0xF0; 32]);
    for client in &clients {
        assert!(get_value(&mut cluster, client, b"footprint").is_some());
    }
    let grown = rss_kib().expect("read once already") - before;
    // Half of what is left is the 1 MiB admission sketch each client's cache
    // still writes at construction.
    assert!(
        grown < BUDGET_KIB,
        "4 shards and {CLIENTS} clients grew RSS by {} MiB",
        grown >> 10
    );
}

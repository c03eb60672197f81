#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merging.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> packed-group + skiplist tower and leaf layout static assertions (64 B size + alignment each, 128 B node)"
cargo test -q --release -p hydra-store layout_is_one_aligned_cache_line

echo "==> bench smoke (reduced scale, scratch results dir)"
SMOKE_RESULTS="$(mktemp -d)"
trap 'rm -rf "$SMOKE_RESULTS"' EXIT
HYDRA_SCALE=smoke HYDRA_RESULTS_DIR="$SMOKE_RESULTS" \
    cargo run -q --release -p hydra-bench --bin perf_events
HYDRA_SCALE=smoke HYDRA_RESULTS_DIR="$SMOKE_RESULTS" \
    cargo run -q --release -p hydra-bench --bin perf_batching
HYDRA_SCALE=smoke HYDRA_RESULTS_DIR="$SMOKE_RESULTS" \
    cargo run -q --release -p hydra-bench --bin perf_index
# chaos_recovery asserts the fail-over floor: every fault type detected (and
# the primary fenced) in under 1 000 us at every phase of the beat.
HYDRA_SCALE=smoke HYDRA_RESULTS_DIR="$SMOKE_RESULTS" \
    cargo run -q --release -p hydra-bench --bin chaos_recovery
HYDRA_SCALE=smoke HYDRA_RESULTS_DIR="$SMOKE_RESULTS" \
    cargo run -q --release -p hydra-bench --bin perf_skew
# perf_scan asserts the scan-plane floors: hybrid >= 5x emulated scans, and
# a scan's fan-out fetches <= 2.0x the items it returns on 4 partitions,
# <= 3.0x on 16.
HYDRA_SCALE=smoke HYDRA_RESULTS_DIR="$SMOKE_RESULTS" \
    cargo run -q --release -p hydra-bench --bin perf_scan
# perf_mix asserts the tail-isolation floors: mixed point-GET p99 <= 2x
# pure-point under DualLane, and DualLane scan throughput >= 0.9x FIFO.
HYDRA_SCALE=smoke HYDRA_RESULTS_DIR="$SMOKE_RESULTS" \
    cargo run -q --release -p hydra-bench --bin perf_mix
# perf_elastic asserts the elastic-membership floors: mid-migration GET p99
# <= 3x steady state, and zero keys lost/duplicated/misplaced after a live
# node join (plus a timed quiesced drain).
HYDRA_SCALE=smoke HYDRA_RESULTS_DIR="$SMOKE_RESULTS" \
    cargo run -q --release -p hydra-bench --bin perf_elastic
# perf_repl asserts the group-commit write-plane floors: >= 1.5x per-record
# strict at channel depth 64, >= 1.3x cluster write throughput at depth 64,
# and a strict-semantics write p50 <= 5.5 us with one synchronous replica.
HYDRA_SCALE=smoke HYDRA_RESULTS_DIR="$SMOKE_RESULTS" \
    cargo run -q --release -p hydra-bench --bin perf_repl
# perf_conn asserts the connection-scaling floors: mux + huge pages >= 1.3x
# dedicated/4K throughput at the top of the client sweep (the NIC cache
# cliff), and <= 5% overhead at 16 clients where the caches never miss.
HYDRA_SCALE=smoke HYDRA_RESULTS_DIR="$SMOKE_RESULTS" \
    cargo run -q --release -p hydra-bench --bin perf_conn
# fig13_replication asserts the figure's shape: none < RDMA logging < strict
# and group commit <= logging at every client and replica count, logging
# >= +5 %, strict >= 1.8x none at one client.
HYDRA_SCALE=smoke HYDRA_RESULTS_DIR="$SMOKE_RESULTS" \
    cargo run -q --release -p hydra-bench --bin fig13_replication
# fig10_incremental asserts the figure's shape: under Zipf, what one-sided
# reads add over RDMA-Write-only messaging does not shrink as the GET share
# rises (50 / 90 / 100 % GET).
HYDRA_SCALE=smoke HYDRA_RESULTS_DIR="$SMOKE_RESULTS" \
    cargo run -q --release -p hydra-bench --bin fig10_incremental

echo "==> examples (each asserts what it demonstrates)"
# failover is the end-to-end Strict run through crash, partition, fence and
# promotion, with zero-acknowledged-loss and linearizability checks.
for ex in quickstart mapreduce_cache g2_sensemaking call_records failover elastic; do
    cargo run -q --release -p hydra-db --example "$ex" >/dev/null ||
        { echo "example $ex failed" >&2; exit 1; }
done

echo "==> benchmark crate (builds against the workspace; one smoke pass per workload)"
# benchmark/ is a package of its own, outside the workspace: API drift
# against it is caught here rather than by the pipeline running BENCHMARK.json.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
# On failover the outage itself is gated: a primary is replaced within a few
# missed beats (worst_wait_ms was 30.0 under the session timeout).
for w in read_fastpath write_repl scan_mix prod_profile failover; do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 1 --scale smoke --trace 0 2>/dev/null | tail -n 1 |
        python3 -c '
import json, sys
r = json.load(sys.stdin)
ok = r["correct"] and r["failed"] == 0
if sys.argv[1] == "failover":
    ok = ok and r["metrics"]["worst_wait_ms"]["value"] < 1.0
sys.exit(not ok)' "$w" ||
        { echo "benchmark workload $w: failed ops, bad output or a slow fail-over" >&2; exit 1; }
done

echo "==> chaos + elastic soaks (fixed-seed fault plans and join/drain rounds, full consistency checks)"
# Every soak also asserts that some round formed a sweep of two or more
# bare requests, so the shard's sweep path is soaked, not just compiled.
cargo test -q --release -p hydra-integration --test chaos -- --ignored
cargo test -q --release -p hydra-integration --test migration -- --ignored

echo "==> counted lines, config field counts, unsafe lines, vendored crates (report only)"
scripts/loc.sh

echo "==> pub fns no production code reaches (report only)"
scripts/unreached.sh

echo "==> the benchmark's sources and declaration are as committed"
git diff --exit-code -- benchmark/src BENCHMARK.json

echo "OK: all tier-1 checks passed"

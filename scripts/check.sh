#!/usr/bin/env bash
# Tier-1 gate: everything a PR must pass before merging.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (-D warnings)"
# An item only its own crate names is pub(crate) or private, so rustc's
# dead_code lint sees it: anything nothing calls fails the build here.
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (-D warnings: no broken or private intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> packed-group + skiplist tower and leaf layout static assertions (64 B size + alignment each, 128 B node)"
cargo test -q --release -p hydra-store layout_is_one_aligned_cache_line

echo "==> every experiment at smoke scale (scratch results dir), every claim checked"
# Each experiment states its floors and its figure's shape as claims (fail-over
# detection under 1 000 us, the scan, mix, elastic, replication, connection,
# skew and batching floors, the shapes of Figs. 9, 10, 11 and 13); the run
# saves every table, then fails if any claim did not hold.
SMOKE_RESULTS="$(mktemp -d)"
trap 'rm -rf "$SMOKE_RESULTS"' EXIT
HYDRA_SCALE=smoke HYDRA_RESULTS_DIR="$SMOKE_RESULTS" \
    cargo run -q --release -p hydra-bench -- run all

echo "==> every virtual-time experiment at normal scale equals its committed results/ files"
# A virtual-time experiment repeats byte for byte, so a paper figure or an
# ablation that moves (say, when an arm leaves the hot path) fails here unless
# the PR commits the regenerated files. The `wall` experiments are left out:
# no two runs repeat them. About 4 minutes on 2 vCPUs.
virtual="$(cargo run -q --release -p hydra-bench -- list | awk '$3 == "virtual" { print $1 }')"
# shellcheck disable=SC2086 # one argument per experiment name
scripts/regen.sh "" $virtual

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
# Building it without --locked lets cargo rewrite benchmark/Cargo.lock (it
# still lists crossbeam-epoch, hydra-coord and hydra-chaos, which are no longer
# in the workspace): the file is saved first and put back after the smoke passes, or
# on any exit.
cp benchmark/Cargo.lock "$SMOKE_RESULTS/benchmark-Cargo.lock"
trap 'cp "$SMOKE_RESULTS/benchmark-Cargo.lock" benchmark/Cargo.lock; rm -rf "$SMOKE_RESULTS"' EXIT
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
# On failover the outage itself is gated: a primary is replaced within a few
# missed beats (worst_wait_ms was 30.0 under the session timeout). Footprint
# is gated too: peak_rss_mib may not exceed 1.5x what each smoke pass reached
# once secondaries freed superseded blocks as they apply and only a cache kept
# a CLOCK ring (31 / 58 / 30 / 64 / 53 MiB; before, 32 / 62 / 31 / 67 / 57;
# writing every client's admission sketch read 51 / 109 / 31 / 128 / 97,
# committing index memory up front 113 / 362 / 94 / 381 / 286).
for w in read_fastpath write_repl scan_mix prod_profile failover; do
    cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$w" --seed 1 --seconds 1 --scale smoke --trace 0 2>/dev/null | tail -n 1 |
        python3 -c '
import json, sys
r = json.load(sys.stdin)
ok = r["correct"] and r["failed"] == 0
if sys.argv[1] == "failover":
    ok = ok and r["metrics"]["worst_wait_ms"]["value"] < 1.0
smoke_mib = {"read_fastpath": 31, "write_repl": 58, "scan_mix": 30, "prod_profile": 64, "failover": 53}
ok = ok and r["metrics"]["peak_rss_mib"]["value"] <= 1.5 * smoke_mib[sys.argv[1]]
sys.exit(not ok)' "$w" ||
        { echo "benchmark workload $w: failed ops, bad output, a slow fail-over or a peak RSS over its ceiling" >&2; exit 1; }
done
cp "$SMOKE_RESULTS/benchmark-Cargo.lock" benchmark/Cargo.lock

echo "==> chaos + elastic soaks (fixed-seed fault plans and join/drain rounds, full consistency checks)"
# Every soak also asserts that some round formed a sweep of two or more
# bare requests, so the shard's sweep path is soaked, not just compiled.
cargo test -q --release -p hydra-integration --test chaos -- --ignored
cargo test -q --release -p hydra-integration --test migration -- --ignored

echo "==> counted lines, config field counts, unsafe lines, vendored crates (report only)"
scripts/loc.sh

echo "==> the benchmark's sources, lock file and declaration are as committed"
git diff --exit-code -- benchmark/src benchmark/Cargo.lock BENCHMARK.json

echo "OK: all tier-1 checks passed"

#!/usr/bin/env bash
# Repeatability check, the way the benchmark's driver judges it: two sets of
# N runs per workload (seeds first..first+N-1, the same in both sets), each
# end-to-end metric's min / median / max and spread (distance between the
# first and third quartile as a share of the median) per set. Fails if
#   - a run reports failed ops,
#   - a spread exceeds the metric's bound in BENCHMARK.json (setup_s
#     excepted: one set-up per run is a single sample),
#   - the second set's median is worse than the first's by more than the
#     bound (every metric, setup_s too),
#   - the two runs of one seed disagree on any virtual-clock metric, or
#   - two `--trace 1` runs of the first seed disagree on sim.events_per_op
#     at all, or on host.allocs_per_op / host.alloc_bytes_per_op by more
#     than one part in a thousand (the layers' std HashMaps are keyed per
#     process, and a tombstone-triggered rehash is an allocation: parts per
#     million of a full prod_profile run, 10^-4 of a smoke one).
# With `--scale smoke` the runs are a twentieth as long: the spreads are
# printed but only failed ops and the identity checks decide.
#
#   benchmark/repeat.sh [N] [first seed] [extra benchmark args, e.g. --scale smoke]
#
# Run from the repository root. Raw result lines land in benchmark/out/.
set -euo pipefail

runs=${1:-10}
first=${2:-1}
shift $(($# < 2 ? $# : 2))
[ "$runs" -ge 2 ] || { echo "need at least 2 runs per workload" >&2; exit 2; }

exec python3 - "$runs" "$first" "$@" <<'EOF'
import json, statistics, subprocess, sys, pathlib

runs, first, extra = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
spec = json.load(open("BENCHMARK.json"))
out = pathlib.Path(spec["paths"][0]) / "out"
out.mkdir(exist_ok=True)
e2e = {m["name"]: m for m in spec["end_to_end"]}
virtual = [n for n, m in e2e.items() if m["unit"] in ("Mops", "us", "ms")]
exact = {"sim.events_per_op": 0, "host.allocs_per_op": 1e-3, "host.alloc_bytes_per_op": 1e-3}
judged = "smoke" not in extra


def run(workload, seed, trace):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace), *extra,
    ]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit code {done.returncode}")
    line = done.stdout.strip().splitlines()[-1]
    with open(out / f"repeat-{workload}.jsonl", "a") as f:
        f.write(line + "\n")
    result = json.loads(line)
    if not result["correct"] or result["failed"]:
        bad.append(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} ops failed")
    return {name: m["value"] for name, m in result["metrics"].items()}


bad = []
seeds = range(first, first + runs)
for w in (w["name"] for w in spec["workloads"]):
    (out / f"repeat-{w}.jsonl").unlink(missing_ok=True)
    sets = [[run(w, seed, 0) for seed in seeds] for _ in range(2)]
    print(f"\n{w}: 2 sets of {runs} seeds from {first}")
    print(f"  {'metric':<14} {'set':>3} {'min':>12} {'median':>12} {'max':>12} {'spread':>8} {'bound':>6}")
    for name, m in e2e.items():
        bound, medians = m["bound"], []
        for i, results in enumerate(sets):
            vals = [r[name] for r in results]
            q = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            medians.append(med)
            spread = (q[2] - q[0]) / med
            flag = ""
            if name != "setup_s" and spread > bound:
                flag = "  SPREAD OVER BOUND"
                if judged:
                    bad.append(f"{w}/{name}: set {i + 1} spread {spread:.4f} over bound {bound}")
            elif name != "setup_s" and spread > bound / 3:
                flag = "  unresolved: over a third of the bound"
            print(f"  {name:<14} {i + 1:>3} {min(vals):>12.4f} {med:>12.4f} {max(vals):>12.4f} {spread:>8.4f} {bound:>6}{flag}")
        worse = medians[1] / medians[0] - 1
        if m["better"] == "higher":
            worse = medians[0] / medians[1] - 1
        if judged and worse > bound:
            bad.append(f"{w}/{name}: second median {medians[1]:.4f} worse than first {medians[0]:.4f} by {worse:.4f}")
    for seed, a, b in zip(seeds, *sets):
        for name in virtual:
            if a[name] != b[name]:
                bad.append(f"{w}/{name}: seed {seed} gave {a[name]} then {b[name]}")
    a, b = run(w, first, 1), run(w, first, 1)
    for name, tolerance in exact.items():
        print(f"  {name:<24} {a[name]!r} (seed {first}, --trace 1, twice)")
        if abs(a[name] - b[name]) > tolerance * a[name]:
            bad.append(f"{w}/{name}: seed {first} gave {a[name]} then {b[name]}")

print()
if bad:
    print("FAIL\n  " + "\n  ".join(bad))
    sys.exit(1)
within = "spreads and second medians within the bounds; " if judged else ""
print(f"ok: no op failed; {within}virtual-clock metrics and exact counters identical on rerun")
EOF

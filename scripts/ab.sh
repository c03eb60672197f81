#!/usr/bin/env bash
# Parent-versus-change comparison of the end-to-end benchmark, the way a
# claimed gain has to be shown (`benchmark/repeat.sh` compares two sets of
# one commit; this compares two commits).
#
# Builds <parent-ref> (exported with `git archive`) and the working tree
# side by side with the BENCHMARK.json command, each into a target directory
# of its own, then per workload runs N pairs on seeds s .. s+N-1, alternating
# which side goes first. Per end-to-end metric it prints both medians, both
# quartile pairs, the pairs the change won and the metric's bound. Last, one
# `--seconds 1 --trace 1 --scale smoke` pair per workload (at smoke scale the
# window is the fixed op prefix, so counters repeat exactly; at the default
# scale `failover`'s window runs past it for as long as the host takes): every
# counted per-layer metric side by side, differences flagged. Fails if
#   - a run reports failed ops or a failed output check, or
#   - the two sides disagree on any digit of a virtual-clock metric at a seed
#     (the model moved: that is a different kind of change) — except on a
#     workload named with -m, where the model is *meant* to move (the claim is
#     a virtual metric): there the virtual metrics are compared like the host
#     ones, pairs won and bound included.
# A median worse than the bound, or a spread wider than it, is printed as
# such; judging the claim is the reader's job.
#
#   scripts/ab.sh [-n pairs] [-s first-seed] [-m moved-workload]... <parent-ref> [workload ...]
#
# Scratch space (exports, target directories, raw result lines) goes under
# $AB_SCRATCH, default ${TMPDIR:-/tmp}/hydra-ab.
set -euo pipefail
cd "$(dirname "$0")/.."

pairs=10
first=1
moved=
while getopts "n:s:m:" opt; do
    case "$opt" in
        n) pairs=$OPTARG ;;
        s) first=$OPTARG ;;
        m) moved="$moved,$OPTARG" ;;
        *) exit 2 ;;
    esac
done
shift $((OPTIND - 1))
[ $# -ge 1 ] || { sed -n '2,27p' "$0" >&2; exit 2; }
ref=$1
shift
scratch=${AB_SCRATCH:-${TMPDIR:-/tmp}/hydra-ab}

parent_dir="$scratch/parent"
rm -rf "$parent_dir"
mkdir -p "$parent_dir"
git archive "$(git rev-parse --verify "$ref^{commit}")" | tar -x -C "$parent_dir"

# Building benchmark/ without --locked rewrites benchmark/Cargo.lock in the
# working tree (it still lists crossbeam-epoch and hydra-coord, which are no
# longer in the workspace): put it back as it was found, however the run ends.
cp benchmark/Cargo.lock "$scratch/benchmark-Cargo.lock"
trap 'cp "$scratch/benchmark-Cargo.lock" benchmark/Cargo.lock' EXIT

python3 - "$pairs" "$first" "$scratch" "$parent_dir" "$PWD" "$moved" "$@" <<'EOF'
import json, os, statistics, subprocess, sys

pairs, first, scratch, parent_dir, change_dir = int(sys.argv[1]), int(sys.argv[2]), *sys.argv[3:6]
moved = set(filter(None, sys.argv[6].split(",")))
spec = json.load(open("BENCHMARK.json"))
workloads = sys.argv[7:] or [w["name"] for w in spec["workloads"]]
e2e = {m["name"]: m for m in spec["end_to_end"]}
virtual = [n for n, m in e2e.items() if m["unit"] in ("Mops", "us", "ms")]
# Per-layer metrics that are counts, not clock readings.
counted = [
    m["name"] for m in spec["per_layer"]
    if m["unit"] in ("count", "B")
    or (m["unit"] == "ratio" and not m["name"].endswith(("share", "trace_overhead")))
]
sides = {"parent": parent_dir, "change": change_dir}
bad = []


def cargo(side, args, **kw):
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(scratch, f"target-{side}"))
    return subprocess.run(args, cwd=sides[side], env=env, **kw)


def run(side, workload, seed, seconds, trace, scale=None):
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--scale", scale] if scale else [])
    done = cargo(side, cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    if done.returncode != 0:
        sys.exit(f"{side} {workload} seed {seed}: exit code {done.returncode}")
    line = done.stdout.strip().splitlines()[-1]
    with open(os.path.join(scratch, f"ab-{workload}-{side}.jsonl"), "a") as f:
        f.write(line + "\n")
    result = json.loads(line)
    if not result["correct"] or result["failed"]:
        bad.append(f"{side} {workload} seed {seed}: {result['failed']} of "
                   f"{result['attempted']} ops failed, correct={result['correct']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0]
    q = statistics.quantiles(vals, n=4)
    return q[0], q[2]


for side in sides:
    # Build only: `cargo run` would need a workload to run.
    build = [a for a in spec["command"] if a not in ("--quiet", "--")]
    build[build.index("run")] = "build"
    print(f"building {side} ({sides[side]})", flush=True)
    if cargo(side, build, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode != 0:
        sys.exit(f"{side}: build failed")

for w in workloads:
    for side in sides:
        path = os.path.join(scratch, f"ab-{w}-{side}.jsonl")
        if os.path.exists(path):
            os.unlink(path)
    results = {"parent": [], "change": []}
    for i, seed in enumerate(range(first, first + pairs)):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            results[side].append(run(side, w, seed, spec["run_seconds"], 0))
        p, c = results["parent"][-1], results["change"][-1]
        for name in virtual:
            if p[name] != c[name] and w not in moved:
                bad.append(f"{w}/{name}: seed {seed} parent {p[name]} change {c[name]}")
        print(f"  {w} seed {seed}: host_kops {p['host_kops']:.2f} -> {c['host_kops']:.2f}", flush=True)
    print(f"\n{w}: {pairs} pairs, seeds {first}..{first + pairs - 1}, parent / change")
    print(f"  {'metric':<14} {'medians':>25} {'parent q1..q3':>25} {'change q1..q3':>25} "
          f"{'won':>5} {'change':>8} {'bound':>6}")
    for name, m in e2e.items():
        pv = [r[name] for r in results["parent"]]
        cv = [r[name] for r in results["change"]]
        pm, cm = statistics.median(pv), statistics.median(cv)
        (pl, ph), (cl, ch) = quartiles(pv), quartiles(cv)
        higher = m["better"] == "higher"
        won = sum((c > p) if higher else (c < p) for p, c in zip(pv, cv))
        lost = sum((c < p) if higher else (c > p) for p, c in zip(pv, cv))
        delta = (cm / pm - 1) if pm else 0.0
        worse = -delta if higher else delta
        note = ""
        if name in virtual and w not in moved:
            note = "  identical" if pv == cv else "  DIFFERS"
        elif worse > m["bound"]:
            note = "  WORSE THAN BOUND"
        elif pm and max(ph - pl, ch - cl) / pm > m["bound"] and won < pairs:
            note = "  unresolved: spread over bound"
        print(f"  {name:<14} {pm:>12.4f} {cm:>12.4f} {pl:>12.4f} {ph:>12.4f} {cl:>12.4f} {ch:>12.4f} "
              f"{won:>2}/{won + lost:<2} {delta:>+8.1%} {m['bound']:>6}{note}")
    p, c = (run(side, w, first, 1, 1, "smoke") for side in ("parent", "change"))
    print(f"  counters, seed {first}, --seconds 1 --trace 1 --scale smoke (parent, change):")
    for name in counted:
        if p[name] or c[name]:
            flag = "" if p[name] == c[name] else "   <- differs"
            print(f"    {name:<44} {p[name]:>16.5f} {c[name]:>16.5f}{flag}")
    print("  layer times of that pair, host ns per op (one run a side: a reading, not a comparison):")
    for name in ("store.engine_ns_per_op", "wire.codec_ns_per_op", "hydradb.residual_ns_per_op"):
        print(f"    {name:<44} {p[name]:>16.1f} {c[name]:>16.1f}")

print()
if bad:
    print("FAIL\n  " + "\n  ".join(bad))
    sys.exit(1)
print("ok: no op failed; virtual-clock metrics identical on both sides at every seed"
      + (f" (expected to move on: {', '.join(sorted(moved))})" if moved else ""))
EOF

#!/usr/bin/env bash
# Where the host time of one end-to-end benchmark workload goes, by function
# and by crate: an out-of-process report, not a gate.
#
#   scripts/profile.sh <workload> [seed] [seconds]
#
# Builds benchmark/ in release (its profile keeps line tables, so inlined
# frames resolve) and scripts/profile.c with `cc` into an LD_PRELOAD object,
# then runs the workload under it: a SIGPROF handler records the stack
# with backtrace(3) every PROFILE_PERIOD_US of CPU time (setitimer
# (ITIMER_PROF); default 1000, which the kernel's tick may coarsen), and the
# stacks are written at exit. Every address is resolved with `addr2line -f -i -C`, inlined frames
# included. Printed over the samples whose stack passes through
# `harness::drive` (the traffic window; setup and the load are left out):
# self share (the innermost frame) and inclusive share (anywhere on the
# stack) by function, then by crate. PROFILE_MATCH=<regex> adds the share of
# those samples with a frame matching it (e.g. PROFILE_MATCH=SkipList);
# PROFILE_TOP=<n> sets the rows per table (default 25).
#
# Scratch (the object, the raw samples) goes under $PROFILE_SCRATCH, default
# ${TMPDIR:-/tmp}/hydra-profile.
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { sed -n '2,22p' "$0" >&2; exit 2; }
workload=$1
seed=${2:-1}
seconds=${3:-10}
scratch=${PROFILE_SCRATCH:-${TMPDIR:-/tmp}/hydra-profile}
target=${CARGO_TARGET_DIR:-$PWD/benchmark/target}
mkdir -p "$scratch"

# Building benchmark/ without --locked rewrites benchmark/Cargo.lock (it still
# lists crossbeam-epoch and hydra-coord, which are no longer in the workspace):
# put it back as it was found.
cp benchmark/Cargo.lock "$scratch/benchmark-Cargo.lock"
trap 'cp "$scratch/benchmark-Cargo.lock" benchmark/Cargo.lock' EXIT
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml --target-dir "$target"
cp "$scratch/benchmark-Cargo.lock" benchmark/Cargo.lock
cc -O2 -shared -fPIC -o "$scratch/sampler.so" scripts/profile.c
bin=$target/release/hydra-e2e-bench
samples=$scratch/samples-$workload-$seed.txt
rm -f "$samples"
PROFILE_OUT=$samples LD_PRELOAD=$scratch/sampler.so \
    "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" >"$scratch/run.out" 2>&1
echo "# $workload seed $seed, $seconds s: the run's own report is in $scratch/run.out"
[ -s "$samples" ] || { echo "profile: no samples written to $samples" >&2; exit 1; }

exec python3 - "$samples" "$(readlink -f "$bin")" "${PROFILE_MATCH:-}" "${PROFILE_TOP:-25}" <<'EOF'
import bisect, collections, functools, glob, re, subprocess, sys

path, binary, match, top = sys.argv[1], sys.argv[2], sys.argv[3], int(sys.argv[4])

maps, stacks, dropped = [], [], 0
with open(path) as f:
    section = None
    for line in f:
        if line.startswith("# maps"):
            section = "maps"
            continue
        if line.startswith("# samples"):
            section = "samples"
            dropped = int(line.split()[-1])
            continue
        if section == "maps":
            parts = line.split(maxsplit=5)
            if len(parts) == 6 and "x" in parts[1]:
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, parts[5].strip()))
        elif section == "samples":
            addrs = [int(a, 16) for a in line.split() if a not in ("(nil)", "0x0")]
            if addrs:
                pc, frames = addrs[0], addrs[1:]
                # Frames up to the interrupted pc are the handler's and the
                # signal trampoline's; after it come return addresses.
                if pc in frames:
                    frames = frames[frames.index(pc) + 1 :]
                else:
                    frames = frames[2:]
                stacks.append([(pc, True)] + [(a, False) for a in frames])

# The binary is position-independent: its load bias is where its file
# offset 0 is mapped.
bias = None
with open(path) as f:
    for line in f:
        parts = line.split(maxsplit=5)
        if len(parts) == 6 and parts[5].strip() == binary and int(parts[2], 16) == 0:
            bias = int(parts[0].split("-")[0], 16)
            break
if bias is None:
    sys.exit("profile: the binary's mapping is not in the maps")

maps.sort()
starts = [lo for lo, _, _ in maps]

@functools.lru_cache(maxsize=None)
def module(addr):
    i = bisect.bisect_right(starts, addr) - 1
    return maps[i][2] if i >= 0 and addr < maps[i][1] else "?"

# A return address points past its call: resolve the call itself.
wanted = set()
for stack in stacks:
    for addr, exact in stack:
        if module(addr) == binary:
            wanted.add(addr - bias - (0 if exact else 1))

# Crate names by source directory (`crates/store` -> `hydra_store`).
crate_of_dir = {}
for manifest in glob.glob("crates/*/Cargo.toml"):
    m = re.search(r'^name\s*=\s*"([^"]+)"', open(manifest).read(), re.M)
    if m:
        crate_of_dir[manifest.split("/")[1]] = m.group(1).replace("-", "_")

def where(path):
    """A source path as `dir/src/file.rs`, and the crate it belongs to."""
    for root in ("/crates/", "/vendor/", "/library/", "/registry/src/"):
        if root in path:
            rest = path.split(root, 1)[1]
            if root == "/registry/src/":
                rest = rest.split("/", 1)[1]
            top = rest.split("/", 1)[0]
            return rest, crate_of_dir.get(top, top) if root == "/crates/" else top
    if "/benchmark/" in path:
        return "benchmark/" + path.split("/benchmark/", 1)[1], "hydra_e2e_bench"
    return path.rsplit("/", 1)[-1], "?"

resolved = {}
if wanted:
    out = subprocess.run(
        ["addr2line", "-a", "-f", "-i", "-C", "-e", binary],
        input="\n".join(hex(a) for a in sorted(wanted)),
        capture_output=True, text=True, check=True,
    ).stdout.splitlines()
    # Per address: the address line, then (function, file:line) pairs,
    # innermost inlined frame first.
    cur, i = None, 0
    while i < len(out):
        if re.fullmatch(r"0x[0-9a-f]+", out[i]):
            cur = int(out[i], 16)
            resolved[cur] = []
            i += 1
            continue
        name = re.sub(r"::h[0-9a-f]{16}$", "", out[i])
        path = out[i + 1].rsplit(":", 1)[0] if i + 1 < len(out) else "??"
        resolved[cur].append((name,) + where(path))
        i += 2

def frame(name, file, file_crate):
    """(label, crate, text a PROFILE_MATCH regex is tried on). A qualified
    name names its crate; an inlined frame often has its short name only,
    so it is labelled with its file and belongs to the file's crate."""
    m = re.match(r"^[<&\s]*(?:dyn\s+)?([A-Za-z_][A-Za-z0-9_]*)::", name)
    if m:
        return name, m.group(1), f"{name} {file}"
    return f"{name} ({file})", file_crate, f"{name} {file}"

def frames_of(stack):
    """Frames innermost first, inlined ones expanded. Frames outside the
    binary (libc, the loader) count only as the innermost one: above it
    they are the process's entry, on every stack."""
    frames = []
    for depth, (addr, exact) in enumerate(stack):
        mod = module(addr)
        if mod == binary:
            at = addr - bias - (0 if exact else 1)
            frames.extend(frame(*f) for f in resolved.get(at, [("??", "??", "?")]))
        elif depth == 0:
            lib = "[" + mod.rsplit("/", 1)[-1] + "]"
            frames.append((lib, lib, lib))
    return frames

# `drive` runs the traffic window (setup and the load are outside it).
drive = re.compile(r"(^|::)drive benchmark/src/harness\.rs$")
traffic = [s for s in map(frames_of, stacks) if any(drive.search(t) for _, _, t in s)]
n = len(traffic)
print(f"# {len(stacks)} samples ({dropped} dropped), {n} under harness::drive")
if not n:
    sys.exit("profile: no sample passed through harness::drive")

def table(title, self_counts, incl_counts, order):
    """The top rows by `order`, leaving out what is on every stack (the
    entry point down to `drive`), which says nothing."""
    print(f"\n{title:<90} {'self %':>7} {'incl %':>7}")
    rows = [k for k in incl_counts if incl_counts[k] < n or self_counts[k]]
    for k in sorted(rows, key=order)[:top]:
        print(f"{k[:90]:<90} {100 * self_counts[k] / n:>7.1f} {100 * incl_counts[k] / n:>7.1f}")

for what, pick in (("function", lambda f: f[0]), ("crate", lambda f: f[1])):
    own, incl = collections.Counter(), collections.Counter()
    for s in traffic:
        own[pick(s[0])] += 1
        for k in set(map(pick, s)):
            incl[k] += 1
    table(f"{what}, by self share", own, incl, lambda k: (-own[k], -incl[k], k))
    table(f"{what}, by inclusive share", own, incl, lambda k: (-incl[k], -own[k], k))
if match:
    hit = sum(1 for s in traffic if any(re.search(match, t) for _, _, t in s))
    print(f"\n# samples under harness::drive with a frame matching /{match}/: {100 * hit / n:.1f} %")
EOF

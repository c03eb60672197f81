#!/usr/bin/env bash
# Regenerates every experiment at normal scale and compares each output file
# with the committed one under results/.
# Usage: scripts/regen.sh [DIR]
# The files are written to DIR, or to a temporary directory when DIR is not
# given. Prints each file that differs, and exits non-zero if a claim failed
# or a file differs outside the experiments `hydra-bench list` marks `wall`
# (wall-clock measurements, which no two runs repeat). A pass takes several
# minutes; it is not part of scripts/check.sh.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-}"
if [ -z "$out" ]; then
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
fi
mkdir -p "$out"

status=0
HYDRA_SCALE=normal HYDRA_RESULTS_DIR="$out" \
    cargo run -q --release -p hydra-bench -- run all || status=$?
wall="$(cargo run -q --release -p hydra-bench -- list | awk '$3 == "wall" { print $2 }')"

for name in $( (ls results; ls "$out") | sort -u); do
    cmp -s "results/$name" "$out/$name" && continue
    if grep -qx "${name%.*}" <<<"$wall"; then
        echo "differs (wall-clock): $name"
    else
        echo "DIFFERS: $name"
        status=1
    fi
done
exit "$status"

#!/usr/bin/env bash
# Regenerates experiments at normal scale and compares each output file with
# the committed one under results/.
# Usage: scripts/regen.sh [DIR] [NAME...]
# The files are written to DIR, or to a temporary directory when DIR is not
# given or empty. With NAMEs (as `hydra-bench list` prints them), only those
# experiments run and only their files are compared — e.g.
# `scripts/regen.sh "" perf_elastic`; without, every experiment runs
# (`run all`). Prints each file that differs, and exits non-zero if a claim
# failed or a file differs outside the experiments `hydra-bench list` marks
# `wall` (wall-clock measurements, which no two runs repeat). A whole pass
# takes several minutes; scripts/check.sh runs it over every `virtual`
# experiment.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-}"
if [ -z "$out" ]; then
    out="$(mktemp -d)"
    trap 'rm -rf "$out"' EXIT
fi
mkdir -p "$out"
[ $# -eq 0 ] || shift
[ $# -gt 0 ] || set -- all

status=0
HYDRA_SCALE=normal HYDRA_RESULTS_DIR="$out" \
    cargo run -q --release -p hydra-bench -- run "$@" || status=$?
list="$(cargo run -q --release -p hydra-bench -- list)"
wall="$(awk '$3 == "wall" { print $2 }' <<<"$list")"
# The results stems of the named experiments.
stems="$(awk -v names=" $* " 'index(names, " " $1 " ") { print $2 }' <<<"$list")"

for name in $( (ls results; ls "$out") | sort -u); do
    [ "$*" = all ] || grep -qx "${name%.*}" <<<"$stems" || continue
    cmp -s "results/$name" "$out/$name" && continue
    if grep -qx "${name%.*}" <<<"$wall"; then
        echo "differs (wall-clock): $name"
    else
        echo "DIFFERS: $name"
        status=1
    fi
done
exit "$status"

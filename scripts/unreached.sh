#!/usr/bin/env bash
# Public functions nothing reaches: every `pub fn` under crates/*/src whose
# name occurs nowhere else in crates/*/src, crates/bench, examples or
# benchmark/src — neither a caller nor a doc link. Tests alone do not count
# as reach (tests/ and crates/*/tests are not searched; a `#[cfg(test)] mod`
# beside the definition is, so a name listed here has not even that). A
# report like loc.sh, not a gate: a name may be reached through a trait or a
# macro this grep cannot see, and a test-only accessor can be worth keeping.
# Usage: scripts/unreached.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# One pass: the first reading of each file collects `pub fn` definitions,
# the second counts whole-word occurrences of every collected name.
mapfile -t defs < <(find crates/*/src -name '*.rs' | sort)
mapfile -t uses < <(find crates/*/src crates/bench examples benchmark/src -name '*.rs' | sort -u)
awk '
    pass == 1 {
        if (match($0, /^[[:space:]]*pub fn [a-z_0-9]+/)) {
            name = substr($0, RSTART, RLENGTH)
            sub(/^[[:space:]]*pub fn /, "", name)
            if (!(name in at)) at[name] = FILENAME ":" FNR
        }
        next
    }
    {
        line = $0
        while (match(line, /[A-Za-z_][A-Za-z_0-9]*/)) {
            word = substr(line, RSTART, RLENGTH)
            if (word in at) seen[word]++
            line = substr(line, RSTART + RLENGTH)
        }
    }
    END {
        for (name in at) if (seen[name] == 1) { print at[name] ": " name; n++ }
        print "unreached pub fns: " n + 0 > "/dev/stderr"
    }
' pass=1 "${defs[@]}" pass=2 "${uses[@]}" | sort

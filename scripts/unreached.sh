#!/usr/bin/env bash
# Public functions nothing reaches: every `pub fn` under crates/*/src whose
# name occurs nowhere else in crates/*/src, crates/bench, examples or
# benchmark/src — neither a caller nor a doc link. Tests do not count as
# reach: tests/ and crates/*/tests are not searched, and `#[cfg(test)] mod`
# blocks are skipped by the rule scripts/loc.sh counts lines with, so a name
# only its own file's tests call is listed too. A report like loc.sh, not a
# gate: a name may be reached through a trait or a macro this grep cannot
# see, and a test-only accessor can be worth keeping.
# Usage: scripts/unreached.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# One pass: the first reading of each file collects `pub fn` definitions,
# the second counts whole-word occurrences of every collected name.
mapfile -t defs < <(find crates/*/src -name '*.rs' | sort)
mapfile -t uses < <(find crates/*/src crates/bench examples benchmark/src -name '*.rs' | sort -u)
awk '
    # A `#[cfg(test)]` attribute directly above a `mod` opens a block that
    # runs to the next closing brace in column 0 (as in scripts/loc.sh).
    FNR == 1 { skip = 0; armed = 0 }
    skip { if ($0 ~ /^}/) skip = 0; next }
    /^[[:space:]]*#\[cfg\(test\)\]/ { armed = 1; next }
    armed && /^[[:space:]]*(pub )?mod [a-z_]+ \{/ { armed = 0; skip = 1; next }
    { armed = 0 }
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

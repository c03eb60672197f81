#!/usr/bin/env bash
# Counted lines: the size figure CHANGES.md quotes from PR to PR.
# Non-blank, non-comment (`//`, `///`, `//!`) lines of crates/*/src outside
# `#[cfg(test)] mod` blocks, per crate and in total, plus the public field
# counts of the four config structs and their sum (the settable config
# values), the lines that say `unsafe` and the number of vendored crates.
# A report, not a gate.
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    # A `#[cfg(test)]` attribute directly above a `mod` opens a block that
    # runs to the next closing brace in column 0.
    awk '
        FNR == 1 { skip = 0; armed = 0 }
        skip { if ($0 ~ /^}/) skip = 0; next }
        /^[[:space:]]*$/ { next }
        /^[[:space:]]*\/\// { next }
        /^[[:space:]]*#\[cfg\(test\)\]/ { armed = 1; next }
        armed && /^[[:space:]]*(pub )?mod [a-z_]+ \{/ { armed = 0; skip = 1; next }
        { n += 1 + armed; armed = 0 }
        END { print n + 0 }
    ' "$@"
}

# Public fields between `pub struct <name> {` and its closing brace.
fields() {
    awk -v name="$1" '
        $0 ~ "^pub struct " name " \\{" { on = 1; next }
        on && /^}/ { on = 0 }
        on && /^    pub [a-z_]+:/ { n++ }
        END { print n + 0 }
    ' "$2"
}

total=0
for crate in crates/*/; do
    files=$(find "$crate/src" -name '*.rs' | sort)
    n=$(count $files)
    printf '%-14s %6d\n' "$(basename "$crate")" "$n"
    total=$((total + n))
done
printf '%-14s %6d\n' "crates/*/src" "$total"
echo
cluster=$(fields ClusterConfig crates/hydradb/src/config.rs)
aimd=$(fields AimdConfig crates/hydradb/src/config.rs)
fabric=$(fields FabricConfig crates/fabric/src/config.rs)
repl=$(fields ReplConfig crates/replication/src/lib.rs)
printf 'pub fields: ClusterConfig %d, AimdConfig %d, FabricConfig %d, ReplConfig %d\n' \
    "$cluster" "$aimd" "$fabric" "$repl"
printf 'settable config values: %d\n' $((cluster + aimd + fabric + repl))
# Code lines only: a comment that mentions the word is not one.
printf 'unsafe lines under crates/*/src: %d\n' \
    "$(grep -rhE '\bunsafe\b' crates/*/src --include='*.rs' | grep -cvE '^[[:space:]]*//')"
printf 'vendored crates: %d\n' "$(find vendor -mindepth 1 -maxdepth 1 -type d | wc -l)"

#!/usr/bin/env bash
# loc: non-test line count of every crate's src/. For each .rs file
# the count is the lines before its first `#[cfg(test)]` attribute (all
# of its lines when it has none). Prints one row per crate, then the
# total over crates/*/src. No threshold: this reports, it does not gate.
#
# Run from the repo root:
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for src in crates/*/src; do
    crate="$(basename "$(dirname "$src")")"
    # xargs may split a long file list over several awk runs; each run
    # prints its own sum, so the last awk adds those up.
    n="$(find "$src" -name '*.rs' -print0 \
        | xargs -0 awk 'FNR == 1 { skip = 0 }
                        /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
                        !skip { n++ }
                        END { print n + 0 }' \
        | awk '{ s += $1 } END { print s + 0 }')"
    printf '%-10s %7d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %7d\n' total "$total"

#!/usr/bin/env bash
# loc: non-test line count of every crate's src/. For each .rs file
# the count is the lines before its first `#[cfg(test)]` attribute (all
# of its lines when it has none). Prints one row per crate, the total
# over crates/*/src, then every file over 800 non-test lines, largest
# first (the size a file should be split at). No threshold: this
# reports, it does not gate.
#
# Run from the repo root:
#   bash scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

large=800

# One "count path" row per file. FNR restarts in every file, so xargs
# splitting the list over several awk runs changes nothing.
counts="$(find crates/*/src -name '*.rs' -print0 \
    | xargs -0 awk 'FNR == 1 { if (file != "") print n, file; file = FILENAME; n = 0; skip = 0 }
                    /^[[:space:]]*#\[cfg\(test\)\]/ { skip = 1 }
                    !skip { n++ }
                    END { if (file != "") print n, file }')"

total=0
for src in crates/*/src; do
    crate="$(basename "$(dirname "$src")")"
    n="$(awk -v dir="$src/" 'index($2, dir) == 1 { s += $1 } END { print s + 0 }' <<<"$counts")"
    printf '%-10s %7d\n' "$crate" "$n"
    total=$((total + n))
done
printf '%-10s %7d\n' total "$total"

echo
echo "files over $large non-test lines:"
awk -v large="$large" '$1 > large' <<<"$counts" | sort -rn \
    | awk '{ printf "  %-40s %7d\n", $2, $1 } END { if (NR == 0) print "  none" }'

#!/usr/bin/env bash
# docs-check: the serve layer's wire protocol, snapshot format, the
# observability surface, and the bench inventory have normative specs
# (docs/PROTOCOL.md, docs/SNAPSHOT_FORMAT.md, docs/OBSERVABILITY.md,
# docs/PERFORMANCE.md). This gate fails CI when a protocol verb,
# snapshot section, metric name, or bench binary exists in source but
# is missing from its spec — and when a spec names a verb, opcode,
# metric or bench that does not exist, a snapshot version other than
# the one the code writes, or a retired knob or API — so the docs cannot
# silently drift from the implementation in either direction.
#
# Run from the repo root:
#   bash scripts/docs_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- Protocol verbs and binary opcodes: two-way check of the verb
# table against docs/PROTOCOL.md. Table rows look like:
#   VerbRow { verb: Verb::Ping, name: "PING", text: true, opcode: Some(frame::OP_PING), … },
# Documented verbs are the `### \`VERB …\`` headings of the "## Verbs"
# section; documented opcodes are the rows of the opcode table
# (`| \`0x01\` | \`OP_PING\` | …`).
table="$(grep -E '^ *VerbRow \{ verb: Verb::' crates/serve/src/verbs.rs)"
verbs="$(grep -E 'text: true' <<<"$table" | sed -E 's/.*name: "([A-Z_]+)".*/\1/' | sort -u)"
opcodes="$(grep -oE 'OP_[A-Z_]+' <<<"$table" | sort -u)"
if [[ -z "$verbs" || -z "$opcodes" ]]; then
    echo "docs-check: BUG: found no verb table rows in crates/serve/src/verbs.rs" >&2
    exit 1
fi
doc_verbs="$(sed -n '/^## Verbs/,/^## Binary framing/p' docs/PROTOCOL.md \
    | grep -oE '^### `[A-Z_]+' | grep -oE '[A-Z_]+$' | sort -u)"
doc_opcodes="$(grep -E '^\| `0x[0-9a-f]{2}` \|' docs/PROTOCOL.md \
    | grep -oE 'OP_[A-Z_]+' | sort -u)"
for name in $verbs $opcodes; do
    if ! grep -qw "$name" docs/PROTOCOL.md; then
        echo "docs-check: $name is a row of the verb table in" \
             "crates/serve/src/verbs.rs but not documented in docs/PROTOCOL.md" >&2
        fail=1
    fi
done
for verb in $doc_verbs; do
    if ! grep -q "^$verb$" <<<"$verbs"; then
        echo "docs-check: docs/PROTOCOL.md has a section for verb $verb but the" \
             "verb table in crates/serve/src/verbs.rs has no such text verb" >&2
        fail=1
    fi
done
for opcode in $doc_opcodes; do
    if ! grep -q "^$opcode$" <<<"$opcodes"; then
        echo "docs-check: docs/PROTOCOL.md's opcode table lists $opcode but the" \
             "verb table in crates/serve/src/verbs.rs has no such opcode" >&2
        fail=1
    fi
done

# --- Snapshot sections: every TAG_* constant in snap.rs.
# Constants look like:   const TAG_SESS: u32 = u32::from_le_bytes(*b"SESS");
sections="$(grep -oE 'from_le_bytes\(\*b"[A-Z]{4}"\)' crates/serve/src/snap.rs \
    | grep -oE '[A-Z]{4}' | sort -u)"
if [[ -z "$sections" ]]; then
    echo "docs-check: BUG: found no section tags in crates/serve/src/snap.rs" >&2
    exit 1
fi
for section in $sections; do
    if ! grep -qw "$section" docs/SNAPSHOT_FORMAT.md; then
        echo "docs-check: snapshot section $section is implemented in" \
             "crates/serve/src/snap.rs but not documented in docs/SNAPSHOT_FORMAT.md" >&2
        fail=1
    fi
done

# --- Snapshot version: the spec's stated current version is the one
# snap.rs writes and reads, and no doc names the retired version knobs.
# The constant looks like:   pub const FORMAT_VERSION: u32 = 5;
# The spec line looks like:  format version (u32 LE; current version: 5)
code_version="$(grep -oE 'const FORMAT_VERSION: u32 = [0-9]+' crates/serve/src/snap.rs \
    | grep -oE '[0-9]+$')"
doc_version="$(grep -oE 'current version: [0-9]+' docs/SNAPSHOT_FORMAT.md \
    | grep -oE '[0-9]+$' | sort -u)"
if [[ -z "$code_version" ]]; then
    echo "docs-check: BUG: found no FORMAT_VERSION in crates/serve/src/snap.rs" >&2
    exit 1
fi
if [[ "$doc_version" != "$code_version" ]]; then
    echo "docs-check: docs/SNAPSHOT_FORMAT.md states current version" \
         "'$doc_version' but crates/serve/src/snap.rs has FORMAT_VERSION = $code_version" >&2
    fail=1
fi
if stale="$(grep -nE 'to_bytes_with_version|MIN_READ_VERSION' README.md docs/*.md)"; then
    echo "docs-check: docs still name a retired snapshot version knob:" >&2
    echo "$stale" >&2
    fail=1
fi

# --- Retired training knobs: the exact trainer has one path over a
# plan sized by rows, so no doc may name the removed scale-out switch
# or its row threshold.
if stale="$(grep -nE 'Scaleout|SCALEOUT_MIN_ROWS' README.md docs/*.md)"; then
    echo "docs-check: docs still name the retired scale-out knob:" >&2
    echo "$stale" >&2
    fail=1
fi

# --- Retired backend plug-ins and session knobs: the three backends are
# built by one match, and the session always warm-starts and reuses its
# structure sweep. (Bare `UnknownBackend` stays legal: it names the
# snapshot decoder's `SnapError::UnknownBackend`.)
if stale="$(grep -nE 'ModelRegistry::register|BackendBuilder|reuse_structure_on_column_edit|SessionConfig::warm_start' \
    README.md docs/*.md)"; then
    echo "docs-check: docs still name a retired backend plug-in or session knob:" >&2
    echo "$stale" >&2
    fail=1
fi

# --- Retired label-model trait: `LabelModel` is one closed enum, so no
# doc may name the trait object, its downcast, or the separate snapshot
# type it used to export.
if stale="$(grep -nE 'ModelSnapshot|dyn LabelModel|downcast_ref|to_snapshot' README.md docs/*.md)"; then
    echo "docs-check: docs still name the retired LabelModel trait API:" >&2
    echo "$stale" >&2
    fail=1
fi

# --- Metrics: two-way check against docs/OBSERVABILITY.md.
# Registered names are string literals like "snorkel_serve_requests_total"
# in the instrumented crates; documented names are the same tokens in the
# inventory tables.
metric_src_dirs="crates/serve/src crates/incr/src crates/lf/src crates/core/src crates/stream/src"
registered="$(grep -rhoE '"snorkel_(serve|incr|lf|core|stream|repl)_[a-z0-9_]*[a-z0-9]"' \
    $metric_src_dirs | tr -d '"' | sort -u)"
documented="$(grep -ohE 'snorkel_(serve|incr|lf|core|stream|repl)_[a-z0-9_]*[a-z0-9]' \
    docs/OBSERVABILITY.md | sort -u)"
if [[ -z "$registered" ]]; then
    echo "docs-check: BUG: found no registered metric names in $metric_src_dirs" >&2
    exit 1
fi
for name in $documented; do
    if ! grep -q "^$name$" <<<"$registered"; then
        echo "docs-check: metric $name is documented in docs/OBSERVABILITY.md" \
             "but never registered in any crate" >&2
        fail=1
    fi
done
for name in $registered; do
    if ! grep -q "^$name$" <<<"$documented"; then
        echo "docs-check: metric $name is registered in source but not" \
             "documented in docs/OBSERVABILITY.md" >&2
        fail=1
    fi
done

# --- Benches: two-way check against docs/PERFORMANCE.md.
# Every bench binary in crates/bench/benches/ must appear in the
# inventory as `benches/<name>.rs`, and every such token in the doc
# must correspond to a real bench file.
bench_files="$(ls crates/bench/benches/*.rs | xargs -n1 basename | sort -u)"
bench_documented="$(grep -ohE 'benches/[a-z0-9_]+\.rs' docs/PERFORMANCE.md \
    | sed 's|benches/||' | sort -u)"
if [[ -z "$bench_files" ]]; then
    echo "docs-check: BUG: found no bench files in crates/bench/benches" >&2
    exit 1
fi
for bench in $bench_files; do
    if ! grep -q "^$bench$" <<<"$bench_documented"; then
        echo "docs-check: bench crates/bench/benches/$bench exists but is" \
             "not in the docs/PERFORMANCE.md inventory" >&2
        fail=1
    fi
done
for bench in $bench_documented; do
    if ! grep -q "^$bench$" <<<"$bench_files"; then
        echo "docs-check: docs/PERFORMANCE.md documents benches/$bench but" \
             "crates/bench/benches/$bench does not exist" >&2
        fail=1
    fi
done

if [[ "$fail" -ne 0 ]]; then
    echo "docs-check: FAILED — update the spec(s) above" >&2
    exit 1
fi
echo "docs-check OK: $(echo "$verbs" | wc -w | tr -d ' ') verbs," \
     "$(echo "$opcodes" | wc -w | tr -d ' ') opcodes," \
     "$(echo "$sections" | wc -w | tr -d ' ') snapshot sections (format v$code_version)," \
     "$(echo "$registered" | wc -w | tr -d ' ') metrics," \
     "$(echo "$bench_files" | wc -w | tr -d ' ') benches all documented"

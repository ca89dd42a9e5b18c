//! Bench-result artifacts.
//!
//! CI runs the smoke benches on every push; [`emit`] makes their
//! numbers durable: it writes `BENCH_<name>.json` into
//! `$SNORKEL_BENCH_JSON_DIR` (no-op when unset) — the artifact CI
//! uploads, starting the bench trajectory record.

use std::io::Write;

/// Write `BENCH_<name>.json` with the given numeric fields (plus a
/// `"name"` field and a `"metrics"` field holding the process-global
/// Prometheus exposition, so every artifact records the run's internal
/// counters/timings alongside its headline numbers) into the directory
/// named by `SNORKEL_BENCH_JSON_DIR`. Does nothing when the variable is
/// unset; panics on I/O failure (CI must notice a missing artifact).
pub fn emit(name: &str, fields: &[(&str, f64)]) {
    let Ok(dir) = std::env::var("SNORKEL_BENCH_JSON_DIR") else {
        return;
    };
    let dir = std::path::PathBuf::from(dir);
    std::fs::create_dir_all(&dir).expect("create bench JSON dir");
    let mut body = String::from("{");
    body.push_str(&format!("\"name\":\"{name}\""));
    for (key, value) in fields {
        // JSON has no NaN/Inf; clamp to null for robustness.
        if value.is_finite() {
            body.push_str(&format!(",\"{key}\":{value}"));
        } else {
            body.push_str(&format!(",\"{key}\":null"));
        }
    }
    body.push_str(&format!(
        ",\"metrics\":\"{}\"",
        json_escape(&snorkel_obs::global().expose())
    ));
    body.push_str("}\n");
    let path = dir.join(format!("BENCH_{name}.json"));
    let mut f = std::fs::File::create(&path).expect("create bench JSON");
    f.write_all(body.as_bytes()).expect("write bench JSON");
    println!("bench artifact: {}", path.display());
}

/// Minimal JSON string escaping for the embedded exposition text.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 16);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

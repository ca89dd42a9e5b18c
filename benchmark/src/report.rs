//! Metric names, the result of one run, and how it is printed.
//!
//! The names here are the ones `BENCHMARK.json` lists; a unit test keeps
//! the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::trace::StageTable;

/// End-to-end metrics `(name, unit)`, reported by every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rows_per_s", "rows/s"),
    ("latency_us", "us"),
];

/// Per-layer metrics `(name, unit)`. Every traced run reports all of
/// them; a layer the workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("nlp.corpus_build_s", "s"),
    ("context.candidates", "count"),
    ("lf.apply_s", "s"),
    ("lf.invocations", "count"),
    ("lf.invocations_per_edit", "count"),
    ("matrix.plan_build_s", "s"),
    ("matrix.dedup_ratio", "ratio"),
    ("matrix.delta_splice_s", "s"),
    ("core.select_s", "s"),
    ("core.fit_s", "s"),
    ("core.marginals_s", "s"),
    ("core.posterior_ns_per_row", "ns/row"),
    ("disc.featurize_s", "s"),
    ("disc.train_s", "s"),
    ("disc.predict_ns_per_row", "ns/row"),
    ("incr.cache_hit_ratio", "ratio"),
    ("incr.refresh_stage_s.lf_application", "s"),
    ("incr.refresh_stage_s.matrix_assembly", "s"),
    ("incr.refresh_stage_s.strategy_selection", "s"),
    ("incr.refresh_stage_s.training", "s"),
    ("stream.ingest_apply_us", "us"),
    ("stream.auto_refits", "count"),
    ("serve.frame.encode_ns_per_req", "ns/req"),
    ("serve.hotpath.decode_ns_per_req", "ns/req"),
    ("serve.hotpath.compute_ns_per_req", "ns/req"),
    ("serve.hotpath.memo_hit_ratio", "ratio"),
    ("serve.server.busy_s", "s"),
    ("serve.server.lock_wait_s", "s"),
    ("serve.server.io_residual_us", "us"),
    ("serve.server.io_residual_share", "ratio"),
    ("serve.repl.prepare_us", "us"),
    ("serve.repl.apply_us", "us"),
    ("serve.repl.wal_append_sync_us", "us"),
    ("serve.repl.wal_bytes_per_row", "bytes/row"),
    ("serve.repl.lag_p50_ms", "ms"),
    ("serve.snap.write_s", "s"),
    ("serve.snap.bytes", "bytes"),
    ("serve.snap.read_thaw_s", "s"),
    ("bench.traced_rows_per_s", "rows/s"),
    ("bench.traced_latency_us", "us"),
    ("bench.stage_sum_error", "ratio"),
];

/// One measured value with the number of samples behind it.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub n: usize,
}

/// Everything one run of one workload produced.
#[derive(Default)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks `(what, passed)`; the run is correct iff all
    /// passed and nothing failed.
    pub checks: Vec<(String, bool)>,
    pub end_to_end: Vec<Metric>,
    /// Printed, never gated: tails, maxima, secondary medians.
    pub info: Vec<Metric>,
    pub per_layer: BTreeMap<&'static str, (f64, usize)>,
    pub stage_table: Option<StageTable>,
    pub env: Vec<(&'static str, String)>,
}

impl RunResult {
    pub fn e2e(&mut self, name: &'static str, value: f64, n: usize) {
        let unit = lookup(END_TO_END, name);
        self.end_to_end.push(Metric {
            name: name.into(),
            value,
            unit,
            n,
        });
    }

    /// The workload's throughput and latency: end-to-end metrics on an
    /// untraced run, `bench.traced_*` layer metrics on a traced one
    /// (whose own numbers only serve to price the tracing).
    pub fn primary(&mut self, rows_per_s: (f64, usize), latency_us: (f64, usize)) {
        if self.traced {
            self.layer("bench.traced_rows_per_s", rows_per_s.0, rows_per_s.1);
            self.layer("bench.traced_latency_us", latency_us.0, latency_us.1);
        } else {
            self.e2e("rows_per_s", rows_per_s.0, rows_per_s.1);
            self.e2e("latency_us", latency_us.0, latency_us.1);
        }
    }

    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.info.push(Metric {
            name: name.into(),
            value,
            unit,
            n,
        });
    }

    pub fn layer(&mut self, name: &'static str, value: f64, n: usize) {
        lookup(PER_LAYER, name);
        self.per_layer.insert(name, (value, n));
    }

    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.checks.push((what.into(), passed));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.1)
    }

    fn layer_metrics(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let (value, n) = self.per_layer.get(name).copied().unwrap_or((0.0, 0));
                Metric {
                    name: name.into(),
                    value,
                    unit,
                    n,
                }
            })
            .collect()
    }

    /// The human-readable report: every metric as
    /// `name value unit n=<samples>`, the checks, the stage table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "# workload={} seed={} seconds={} trace={}",
            self.workload, self.seed, self.seconds, self.traced as u8
        );
        for (k, v) in &self.env {
            let _ = writeln!(out, "# {k}={v}");
        }
        let layers = if self.traced {
            self.layer_metrics()
        } else {
            Vec::new()
        };
        for m in self.end_to_end.iter().chain(&self.info).chain(&layers) {
            let _ = writeln!(out, "{} {} {} n={}", m.name, m.value, m.unit, m.n);
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "failed_share {share} ratio n={} (failed={} attempted={})",
            self.attempted, self.failed, self.attempted
        );
        for (what, passed) in &self.checks {
            let _ = writeln!(
                out,
                "check {} {what}",
                if *passed { "ok  " } else { "FAIL" }
            );
        }
        if let Some(table) = &self.stage_table {
            out.push_str(&table.render(&self.workload));
        }
        out
    }

    /// The contract's last line: `correct`, `attempted`, `failed`, and
    /// the end-to-end metrics (untraced) or per-layer metrics (traced).
    pub fn contract_json(&self) -> String {
        let metrics = if self.traced {
            self.layer_metrics()
        } else {
            self.end_to_end.clone()
        };
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&metrics, false)
        )
    }

    /// One self-describing JSON line for the results file.
    pub fn record_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"end_to_end\":{},\"info\":{}",
            self.workload,
            self.seed,
            self.seconds,
            self.traced as u8,
            self.correct(),
            self.attempted,
            self.failed,
            metrics_json(&self.end_to_end, true),
            metrics_json(&self.info, true),
        );
        if self.traced {
            let _ = write!(
                out,
                ",\"per_layer\":{}",
                metrics_json(&self.layer_metrics(), true)
            );
        }
        out.push_str(",\"checks\":{");
        for (i, (what, passed)) in self.checks.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}:{passed}",
                if i > 0 { "," } else { "" },
                quote(what)
            );
        }
        out.push_str("},\"env\":{");
        for (i, (k, v)) in self.env.iter().enumerate() {
            let _ = write!(
                out,
                "{}{}:{}",
                if i > 0 { "," } else { "" },
                quote(k),
                quote(v)
            );
        }
        out.push('}');
        if let Some(table) = &self.stage_table {
            out.push_str(",\"stage_table\":[");
            for (i, r) in table.rows.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"track\":{},\"stage\":{},\"self_s\":{},\"count\":{}}}",
                    if i > 0 { "," } else { "" },
                    quote(&r.track),
                    quote(&r.stage),
                    r.self_s,
                    r.count
                );
            }
            out.push_str("],\"windows\":[");
            for (i, (track, window, threads)) in table.windows.iter().enumerate() {
                let _ = write!(
                    out,
                    "{}{{\"track\":{},\"window_s\":{window},\"threads\":{threads}}}",
                    if i > 0 { "," } else { "" },
                    quote(track)
                );
            }
            out.push(']');
        }
        out.push('}');
        out
    }
}

fn lookup(list: &[(&'static str, &'static str)], name: &str) -> &'static str {
    list.iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name:?} is not declared in report.rs"))
        .1
}

fn quote(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metrics_json(metrics: &[Metric], with_n: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        assert!(m.value.is_finite(), "metric {} is {}", m.name, m.value);
        let _ = write!(
            out,
            "{}{}: {{\"value\": {}, \"unit\": {}",
            if i > 0 { ", " } else { "" },
            quote(&m.name),
            m.value,
            quote(m.unit)
        );
        if with_n {
            let _ = write!(out, ", \"n\": {}", m.n);
        }
        out.push('}');
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names of the objects in the JSON array under `key`, in order —
    /// enough of a parser for the flat arrays of `BENCHMARK.json`.
    fn names_under(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json.find(&format!("\"{key}\"")).expect("key present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("array closes")];
        let field = |obj: &str, f: &str| -> String {
            let at = obj.find(&format!("\"{f}\"")).expect("field present");
            let rest = &obj[at + f.len() + 2..];
            let open = rest.find('"').expect("string opens");
            let rest = &rest[open + 1..];
            rest[..rest.find('"').expect("string closes")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names_under(&json, "end_to_end"), own(END_TO_END));
        assert_eq!(names_under(&json, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn contract_line_switches_metric_set_with_trace() {
        let mut r = RunResult {
            attempted: 3,
            ..RunResult::default()
        };
        r.e2e("setup_s", 0.25, 3);
        r.layer("lf.apply_s", 0.5, 1);
        let untraced = r.contract_json();
        assert!(untraced.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(!untraced.contains("lf.apply_s"));
        assert!(untraced.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        r.traced = true;
        let traced = r.contract_json();
        assert!(traced.contains("\"lf.apply_s\": {\"value\": 0.5"));
        assert!(traced.contains("\"serve.snap.bytes\": {\"value\": 0,"));
        assert!(!traced.contains("setup_s"));
        r.check("x", false);
        assert!(r.contract_json().contains("\"correct\": false"));
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}

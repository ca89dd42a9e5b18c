//! Observability integration tests for the serving layer:
//!
//! * **METRICS over TCP** — after mixed traffic, the exposition must be
//!   strictly parseable Prometheus text (every line), carry at least 20
//!   distinct series, and span all three instrumented layers (serve,
//!   incr, lf).
//! * **golden names** — the metric families the docs promise actually
//!   exist in a live exposition.
//! * **SLOWLOG** — returns the slowest buffered spans, slowest first,
//!   named by wire verb.
//! * **disc lag** — `snorkel_serve_disc_gen_lag` agrees with `STATS`'s
//!   stale `disc_gen=` on a server started over a lagging session.
//! * **kill/resume** — gauges are reconstructed from the thawed session
//!   even after being clobbered (the in-process stand-in for a process
//!   restart; the cross-process counter-reset half lives in
//!   `scripts/serve_smoke.sh`).

use snorkel_context::{CandidateId, Corpus};
use snorkel_core::optimizer::ModelingStrategy;
use snorkel_core::pipeline::DiscTrainerConfig;
use snorkel_incr::{IncrementalSession, SessionConfig};
use snorkel_nlp::tokenize;
use snorkel_serve::{Client, LabelServer, LfSpec, ServeConfig, Snapshot};

fn build_corpus(n: usize) -> Corpus {
    let mut corpus = Corpus::new();
    let doc = corpus.add_document("d");
    for i in 0..n {
        let verb = match i % 5 {
            0 | 1 => "causes",
            2 => "treats",
            3 => "worsens",
            _ => "mentions",
        };
        let text = format!("alpha{} {} beta{}", i % 7, verb, i % 5);
        let s = corpus.add_sentence(doc, &text, tokenize(&text));
        let a = corpus.add_span(s, 0, 1, Some("A"));
        let b = corpus.add_span(s, 2, 3, Some("B"));
        corpus.add_candidate(vec![a, b]);
    }
    corpus
}

fn gm_config() -> SessionConfig {
    SessionConfig {
        force_strategy: Some(ModelingStrategy::GenerativeModel {
            epsilon: 0.0,
            correlations: Vec::new(),
            strengths: Vec::new(),
        }),
        ..SessionConfig::default()
    }
}

const SPECS: [&str; 2] = [
    "lf_causes KEYWORD 1 -1 causes",
    "lf_treats KEYWORD -1 1 treats",
];

fn primed_session(rows: usize) -> IncrementalSession {
    primed_session_with(rows, gm_config())
}

fn primed_session_with(rows: usize, config: SessionConfig) -> IncrementalSession {
    let corpus = build_corpus(rows);
    let ids: Vec<CandidateId> = corpus.candidate_ids().collect();
    let mut session = IncrementalSession::new(corpus, config);
    session.ingest_candidates(&ids);
    for spec in SPECS {
        let spec = LfSpec::parse(spec).expect("valid spec");
        session.add_lf_tagged(spec.build().expect("buildable"), spec.content_tag());
    }
    session.refresh();
    session
}

fn field<'a>(response: &'a str, key: &str) -> &'a str {
    response
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in {response:?}"))
}

/// The sample value of `name` (no labels) in an exposition, if present.
fn gauge_value(lines: &[String], name: &str) -> Option<f64> {
    lines
        .iter()
        .filter(|l| !l.starts_with('#'))
        .find(|l| l.split_whitespace().next() == Some(name))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[test]
fn metrics_verb_exposes_parseable_multi_layer_series() {
    let session = primed_session(120);
    let server = LabelServer::start(session, ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    // Mixed traffic so every layer has something to say: reads, an LF
    // edit (which re-runs the executor and the refresh stages), and a
    // parse error plus a domain error.
    client.request("PING").expect("ping");
    for _ in 0..5 {
        client.request("MARGINAL 0:1,1:-1").expect("marginal");
    }
    client
        .request("APPLY 0 1 2 3 alpha1 causes beta2")
        .expect("apply");
    client
        .request("REFRESH EDIT lf_causes KEYWORD 1 -1 causes,worsens")
        .expect("refresh");
    assert!(client
        .request("NOPE")
        .expect("parse error")
        .starts_with("ERR"));
    assert!(client
        .request("MARGINAL 0:7")
        .expect("bad vote")
        .starts_with("ERR"));

    let (header, lines) = client.request_lines("METRICS").expect("metrics");
    assert!(header.starts_with("OK series="), "{header}");
    let advertised: usize = field(&header, "series").parse().expect("series count");
    assert_eq!(
        lines.len(),
        field(&header, "lines")
            .parse::<usize>()
            .expect("lines count"),
        "header line count matches payload"
    );

    // Every line must be valid Prometheus exposition text — the strict
    // parser rejects malformed names, labels, values, and histogram
    // shapes (bucket monotonicity, `_count` vs `+Inf`).
    let text = format!("{}\n", lines.join("\n"));
    let summary = snorkel_obs::validate_exposition(&text)
        .unwrap_or_else(|e| panic!("malformed exposition: {e}\n{text}"));
    assert_eq!(summary.series, advertised, "header series count is honest");
    assert!(
        summary.series >= 20,
        "expected ≥20 distinct series, got {}",
        summary.series
    );

    // All three instrumented layers are present in one scrape.
    for family in [
        // serve
        "snorkel_serve_requests_total",
        "snorkel_serve_request_seconds",
        "snorkel_serve_errors_total",
        "snorkel_serve_parse_errors_total",
        "snorkel_serve_lock_wait_seconds",
        "snorkel_serve_disc_gen_lag",
        "snorkel_serve_memo_size",
        "snorkel_serve_memo_generation",
        // incr
        "snorkel_incr_refresh_stage_seconds",
        "snorkel_incr_refreshes_total",
        "snorkel_incr_refresh_generation",
        "snorkel_incr_unique_patterns",
        "snorkel_incr_cache_columns",
        "snorkel_incr_cache_capacity",
        "snorkel_incr_rows",
        "snorkel_incr_lfs",
        // lf
        "snorkel_lf_invocations_total",
        "snorkel_lf_abstains_total",
    ] {
        assert!(
            summary.has_family(family),
            "family {family} missing from exposition:\n{text}"
        );
    }

    // Per-verb accounting: the five MARGINALs (plus the failed one) are
    // visible, and the two ERR replies were counted.
    let marginal = lines
        .iter()
        .find(|l| l.starts_with("snorkel_serve_requests_total{verb=\"MARGINAL\"}"))
        .expect("MARGINAL request counter");
    let count: f64 = marginal
        .rsplit(' ')
        .next()
        .and_then(|v| v.parse().ok())
        .expect("numeric value");
    assert!(count >= 6.0, "{marginal}");
    assert!(
        lines
            .iter()
            .any(|l| l.starts_with("snorkel_serve_errors_total{verb=\"MARGINAL\"}")),
        "the illegal-vote MARGINAL must surface as a per-verb error"
    );

    server.shutdown().expect("clean shutdown");
}

#[test]
fn slowlog_returns_slowest_spans_first() {
    let session = primed_session(60);
    let server = LabelServer::start(session, ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    for _ in 0..10 {
        client.request("MARGINAL 0:1").expect("marginal");
    }
    client.request("REFRESH").expect("refresh");

    let (header, lines) = client.request_lines("SLOWLOG 5").expect("slowlog");
    assert!(header.starts_with("OK count="), "{header}");
    let count: usize = field(&header, "count").parse().expect("count");
    assert_eq!(lines.len(), count);
    assert!((1..=5).contains(&count), "{header}");

    let mut last = u64::MAX;
    for line in &lines {
        let dur: u64 = field(line, "dur_ns").parse().expect("duration");
        assert!(dur <= last, "entries must be slowest-first: {lines:?}");
        last = dur;
        let span = field(line, "span");
        assert!(
            [
                "PING",
                "MARGINAL",
                "APPLY",
                "PREDICT",
                "PREDICT_TEXT",
                "REFRESH",
                "SNAPSHOT",
                "STATS",
                "METRICS",
                "SLOWLOG",
                "SHUTDOWN"
            ]
            .contains(&span)
                || span
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c == '_' || c == '.'),
            "span names are verbs or internal stage names: {line}"
        );
    }
    // SLOWLOG 0 is a parse error, not an empty reply.
    assert!(client
        .request("SLOWLOG 0")
        .expect("reply")
        .starts_with("ERR"));

    server.shutdown().expect("clean shutdown");
}

#[test]
fn stats_reports_cache_and_memo_occupancy() {
    let session = primed_session(60);
    let server = LabelServer::start(session, ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    client.request("MARGINAL 0:1").expect("q1");
    client.request("MARGINAL 0:1").expect("q2");
    let stats = client.request("STATS").expect("stats");
    let cache_cols: usize = field(&stats, "cache_cols").parse().expect("number");
    let cache_cap: usize = field(&stats, "cache_cap").parse().expect("number");
    assert_eq!(cache_cols, 2, "both LF columns cached: {stats}");
    assert!(cache_cap >= cache_cols, "{stats}");
    let memo_size: usize = field(&stats, "memo_size").parse().expect("number");
    assert!(memo_size >= 1, "repeat MARGINAL memoized: {stats}");
    let memo_gen: u64 = field(&stats, "memo_gen").parse().expect("number");
    assert_eq!(memo_gen, 0, "no refresh yet: {stats}");

    server.shutdown().expect("clean shutdown");
}

#[test]
fn disc_gen_lag_counts_refreshes_since_the_distillation() {
    // Refreshed, distilled, refreshed again: the disc model lags by one
    // refresh before the server has bumped its own generation once.
    let mut session = primed_session_with(
        60,
        SessionConfig {
            distill: Some(DiscTrainerConfig::with_dim(1 << 10)),
            ..gm_config()
        },
    );
    session.distill().expect("distillation is configured");
    session.refresh();
    let server = LabelServer::start(session, ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let stats = client.request("STATS").expect("stats");
    assert_eq!(field(&stats, "disc_gen"), "1(stale)", "{stats}");
    // The gauge is process-global and this binary's other servers
    // publish it too, so read until one scrape carries this server's
    // value (it is the only one here with a disc model).
    let lag = (0..20)
        .map(|_| {
            let (_, lines) = client.request_lines("METRICS").expect("metrics");
            gauge_value(&lines, "snorkel_serve_disc_gen_lag")
        })
        .find(|lag| *lag != Some(0.0));
    assert_eq!(lag, Some(Some(1.0)));

    server.shutdown().expect("clean shutdown");
}

#[test]
fn thawed_server_reconstructs_gauges_without_a_refresh() {
    let dir = std::env::temp_dir().join(format!("snorkel-obs-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap_path = dir.join("obs.snap");

    // First life: three refreshes, snapshot, die.
    let rows = 80;
    let session = primed_session(rows); // one refresh
    let server = LabelServer::start(
        session,
        ServeConfig {
            snapshot_path: Some(snap_path.clone()),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.request("REFRESH").expect("refresh 2");
    client.request("REFRESH").expect("refresh 3");
    client.request("SNAPSHOT").expect("snapshot");
    client.request("SHUTDOWN").expect("bye");
    server.wait().expect("clean shutdown");

    // Clobber the gauges so the assertion below can only pass if thaw
    // re-publishes them from the reconstructed session (in a real
    // restart the fresh process starts from zero — `serve_smoke.sh`
    // covers that half, including the counter reset).
    let registry = snorkel_obs::global();
    registry
        .gauge("snorkel_incr_refresh_generation", &[])
        .set(-1);
    registry.gauge("snorkel_incr_rows", &[]).set(-1);
    registry.gauge("snorkel_incr_lfs", &[]).set(-1);

    let snapshot = Snapshot::read_file(&snap_path).expect("snapshot loads");
    let lfs = SPECS
        .iter()
        .map(|s| LfSpec::parse(s).expect("spec").build().expect("buildable"))
        .collect();
    let thawed = IncrementalSession::thaw(build_corpus(rows), gm_config(), snapshot.session, lfs)
        .expect("thaw");
    let generation = thawed.refresh_generation();

    let server = LabelServer::start(thawed, ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let (_, lines) = client.request_lines("METRICS").expect("metrics");
    assert_eq!(
        gauge_value(&lines, "snorkel_incr_refresh_generation"),
        Some(generation as f64),
        "thaw republishes the generation gauge"
    );
    assert_eq!(gauge_value(&lines, "snorkel_incr_rows"), Some(rows as f64));
    assert_eq!(
        gauge_value(&lines, "snorkel_incr_lfs"),
        Some(SPECS.len() as f64)
    );

    server.shutdown().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();
}

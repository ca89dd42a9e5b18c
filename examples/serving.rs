//! The labeling service, end to end: durable snapshots + the concurrent
//! TCP server — and the client/driver the CI serve-smoke job uses.
//!
//! ```text
//! cargo run --release --example serving                  in-process demo
//! cargo run --release --example serving -- server \
//!     --port 7341 [--snapshot P] [--resume P] \
//!     [--auto-snapshot-ms N] [--rows N] [--lf "<spec>"]… \
//!     [--wal P] [--follow HOST:PORT]                      long-running server
//! cargo run --release --example serving -- client --port 7341 MARGINAL 0:1
//! cargo run --release --example serving -- hammer \
//!     --port 7341 --clients 8 --queries 150               torn-read check
//! cargo run --release --example serving -- bincheck \
//!     --port 7341 --batch 8              binary-vs-text equivalence check
//! cargo run --release --example serving -- verify-snap path/to.snap
//! ```
//!
//! The server mode builds a deterministic demo corpus and a suite of
//! wire-expressible LFs (overridable with repeated `--lf`), so a
//! `--resume` run can reconstruct behaviorally identical LFs and attach
//! them to the snapshot's fingerprints — verified against each spec's
//! content tag before serving, so a wrong spec fails loudly instead of
//! silently serving stale cached votes.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use snorkel::context::Corpus;
use snorkel::incr::{Fingerprint, IncrementalSession, SessionConfig};
use snorkel::lf::BoxedLf;
use snorkel::nlp::tokenize;
use snorkel::serve::{
    BinReply, Client, FrameClient, LabelServer, LfSpec, ReplMark, ServeConfig, Snapshot, VoteRow,
};

const DEFAULT_SPECS: [&str; 3] = [
    "lf_causes KEYWORD 1 -1 causes,caused",
    "lf_treats KEYWORD -1 1 treats,treated",
    "lf_worsens KEYWORD 1 -1 worsens,aggravates",
];

/// Always train the generative model: a served posterior should reflect
/// fitted LF accuracies, and the torn-read hammer needs an LF edit to
/// move the posterior it queries. Distillation is on, so the server
/// also answers `PREDICT`/`PREDICT_TEXT` for zero-coverage candidates.
fn gm_config() -> SessionConfig {
    let mut distill = snorkel::core::pipeline::DiscTrainerConfig::with_dim(1 << 14);
    // Demo-corpus scale: more epochs / smaller batches than the
    // deployment defaults so the linear model converges.
    distill.train.epochs = 15;
    distill.train.batch_size = 64;
    SessionConfig {
        force_strategy: Some(
            snorkel::core::optimizer::ModelingStrategy::GenerativeModel {
                epsilon: 0.0,
                correlations: Vec::new(),
                strengths: Vec::new(),
            },
        ),
        distill: Some(distill),
        ..SessionConfig::default()
    }
}

fn demo_corpus(rows: usize) -> Corpus {
    let mut corpus = Corpus::new();
    let doc = corpus.add_document("serving-demo");
    for i in 0..rows {
        let verb = match i % 6 {
            0 | 1 => "causes",
            2 => "treats",
            3 => "worsens",
            4 => "caused",
            _ => "mentions",
        };
        let text = format!("chem{} {} disease{}", i % 11, verb, i % 7);
        let s = corpus.add_sentence(doc, &text, tokenize(&text));
        let a = corpus.add_span(s, 0, 1, Some("Chemical"));
        let b = corpus.add_span(s, 2, 3, Some("Disease"));
        corpus.add_candidate(vec![a, b]);
    }
    corpus
}

fn parse_specs(raw: &[String]) -> Vec<LfSpec> {
    let sources: Vec<String> = if raw.is_empty() {
        DEFAULT_SPECS.iter().map(|s| s.to_string()).collect()
    } else {
        raw.to_vec()
    };
    sources
        .iter()
        .map(|s| LfSpec::parse(s).unwrap_or_else(|e| die(&format!("bad --lf {s:?}: {e}"))))
        .collect()
}

fn fresh_session(rows: usize, specs: &[LfSpec]) -> IncrementalSession {
    let corpus = demo_corpus(rows);
    let ids: Vec<_> = corpus.candidate_ids().collect();
    let mut session = IncrementalSession::new(corpus, gm_config());
    session.ingest_candidates(&ids);
    for spec in specs {
        let lf = spec.build().unwrap_or_else(|e| die(&e));
        session.add_lf_tagged(lf, spec.content_tag());
    }
    let (_, report) = session.refresh();
    let disc = session.distill();
    eprintln!(
        "cold start: {} rows × {} LFs, {} LF invocations, strategy {:?}, \
         distilled on {} rows",
        session.num_candidates(),
        session.num_lfs(),
        report.lf_invocations,
        report.strategy,
        disc.map_or(0, |d| d.rows_trained),
    );
    session
}

/// Resume from a snapshot: reconstruct each LF from its spec and verify
/// the spec's content tag against the frozen fingerprint before trusting
/// the cached columns. Also returns the snapshot's replication mark (if
/// any) so a `--wal`/`--follow` server resumes from the right LSN.
fn resumed_session(
    path: &std::path::Path,
    rows: usize,
    specs: &[LfSpec],
) -> (IncrementalSession, Option<ReplMark>) {
    let snapshot = Snapshot::read_file(path)
        .unwrap_or_else(|e| die(&format!("cannot load snapshot {}: {e}", path.display())));
    for (name, frozen_fp) in &snapshot.session.suite {
        let Some(spec) = specs.iter().find(|s| s.name() == name) else {
            die(&format!(
                "snapshot suite has LF {name:?} but no --lf spec matches"
            ));
        };
        let spec_fp = Fingerprint::of(spec.name(), spec.content_tag());
        if spec_fp != *frozen_fp {
            die(&format!(
                "spec for {name:?} does not match the snapshot's version \
                 (would serve stale cached votes) — pass the spec the \
                 snapshot was taken with"
            ));
        }
    }
    let lfs: Vec<BoxedLf> = snapshot
        .session
        .suite
        .iter()
        .map(|(name, _)| {
            let spec = specs.iter().find(|s| s.name() == name).expect("checked");
            spec.build().unwrap_or_else(|e| die(&e))
        })
        .collect();
    let mark = snapshot.repl;
    let session = IncrementalSession::thaw(demo_corpus(rows), gm_config(), snapshot.session, lfs)
        .unwrap_or_else(|e| die(&format!("thaw failed: {e}")));
    eprintln!(
        "warm start from {}: {} rows × {} LFs, 0 LF invocations{}",
        path.display(),
        session.num_candidates(),
        session.num_lfs(),
        mark.as_ref().map_or(String::new(), |m| format!(
            ", repl mark lsn={} gen={}",
            m.applied_lsn, m.generation
        )),
    );
    (session, mark)
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

struct Args {
    flags: std::collections::HashMap<String, Vec<String>>,
    positional: Vec<String>,
}

fn parse_args(args: &[String]) -> Args {
    let mut flags: std::collections::HashMap<String, Vec<String>> = Default::default();
    let mut positional = Vec::new();
    let mut i = 0;
    while i < args.len() {
        if let Some(name) = args[i].strip_prefix("--") {
            let value = match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => die(&format!("--{name} needs a value")),
            };
            flags.entry(name.to_string()).or_default().push(value);
            i += 2;
        } else {
            positional.push(args[i].clone());
            i += 1;
        }
    }
    Args { flags, positional }
}

impl Args {
    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .get(name)
            .and_then(|v| v.first())
            .map(String::as_str)
    }

    fn get_usize(&self, name: &str, default: usize) -> usize {
        self.get(name)
            .map(|v| v.parse().unwrap_or_else(|_| die(&format!("bad --{name}"))))
            .unwrap_or(default)
    }
}

fn addr_of(args: &Args) -> SocketAddr {
    let port = args.get_usize("port", 7341);
    format!("127.0.0.1:{port}").parse().expect("addr")
}

fn run_server(args: &Args) -> ! {
    let rows = args.get_usize("rows", 5000);
    let specs = parse_specs(args.flags.get("lf").map(Vec::as_slice).unwrap_or(&[]));
    let (session, repl_mark) = match args.get("resume") {
        Some(path) => resumed_session(&PathBuf::from(path), rows, &specs),
        None => (fresh_session(rows, &specs), None),
    };
    let config = ServeConfig {
        addr: format!("127.0.0.1:{}", args.get_usize("port", 7341)),
        snapshot_path: args.get("snapshot").map(PathBuf::from),
        auto_snapshot: args
            .flags
            .get("auto-snapshot-ms")
            .map(|_| Duration::from_millis(args.get_usize("auto-snapshot-ms", 5000) as u64)),
        wal_path: args.get("wal").map(PathBuf::from),
        follow: args.get("follow").map(str::to_string),
        repl_mark,
        ..ServeConfig::default()
    };
    let has_snapshot_path = config.snapshot_path.is_some();
    let server =
        LabelServer::start(session, config).unwrap_or_else(|e| die(&format!("bind failed: {e}")));
    println!("LISTENING {}", server.addr());
    match server.wait() {
        Ok(()) => {
            eprintln!(
                "server stopped cleanly{}",
                if has_snapshot_path {
                    " (final snapshot written)"
                } else {
                    ""
                }
            );
            std::process::exit(0);
        }
        Err(e) => die(&format!("shutdown snapshot failed: {e}")),
    }
}

fn run_client(args: &Args) -> ! {
    let line = args.positional.join(" ");
    if line.is_empty() {
        die("client needs a request line, e.g. client --port 7341 MARGINAL 0:1");
    }
    let mut client =
        Client::connect(addr_of(args)).unwrap_or_else(|e| die(&format!("connect: {e}")));
    // request_lines handles both framings: METRICS/SLOWLOG replies carry
    // a `lines=<k>` payload, every other verb comes back header-only.
    let (response, payload) = client
        .request_lines(&line)
        .unwrap_or_else(|e| die(&format!("request: {e}")));
    println!("{response}");
    for l in &payload {
        println!("{l}");
    }
    std::process::exit(if response.starts_with("OK") { 0 } else { 2 });
}

fn field<'a>(response: &'a str, key: &str) -> &'a str {
    response
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| die(&format!("no {key}= in {response:?}")))
}

/// N concurrent clients hammer one MARGINAL signature while an LF edit
/// lands mid-stream; every response must match the pre- or post-edit
/// posterior for its generation. The edit is reverted afterwards (a
/// cache hit), leaving the server state as found.
fn run_hammer(args: &Args) -> ! {
    let addr = addr_of(args);
    let clients = args.get_usize("clients", 8);
    let queries = args.get_usize("queries", 150);
    let sig = "MARGINAL 0:1,1:-1";
    let edit = "REFRESH EDIT lf_causes KEYWORD 1 -1 causes,mentions";
    let revert = format!("REFRESH EDIT {}", DEFAULT_SPECS[0]);

    let mut control = Client::connect(addr).unwrap_or_else(|e| die(&format!("connect: {e}")));
    let pre = control.request(sig).expect("pre query");
    let (pre_gen, pre_p) = (field(&pre, "gen").to_string(), field(&pre, "p").to_string());

    let edit_done = Arc::new(AtomicUsize::new(0));
    let responses: Vec<Vec<String>> = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for _ in 0..clients {
            let edit_done = Arc::clone(&edit_done);
            handles.push(scope.spawn(move || {
                let mut client =
                    Client::connect(addr).unwrap_or_else(|e| die(&format!("connect: {e}")));
                let mut out = Vec::with_capacity(queries + 1);
                while out.len() < queries || edit_done.load(Ordering::SeqCst) == 0 {
                    out.push(client.request(sig).expect("query"));
                }
                out.push(client.request(sig).expect("post-edit query"));
                out
            }));
        }
        std::thread::sleep(Duration::from_millis(30));
        let edited = control.request(edit).expect("edit");
        assert!(edited.starts_with("OK "), "edit failed: {edited}");
        edit_done.store(1, Ordering::SeqCst);
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });

    let post = control.request(sig).expect("post query");
    let (post_gen, post_p) = (
        field(&post, "gen").to_string(),
        field(&post, "p").to_string(),
    );
    let mut saw_pre = 0usize;
    let mut saw_post = 0usize;
    for response in responses.iter().flatten() {
        let (gen, p) = (field(response, "gen"), field(response, "p"));
        if gen == pre_gen && p == pre_p {
            saw_pre += 1;
        } else if gen == post_gen && p == post_p {
            saw_post += 1;
        } else {
            die(&format!(
                "torn read: {response:?} matches neither generation \
                 {pre_gen} ({pre_p}) nor {post_gen} ({post_p})"
            ));
        }
    }
    let reverted = control.request(&revert).expect("revert");
    assert!(reverted.starts_with("OK "), "revert failed: {reverted}");
    assert_eq!(
        field(&reverted, "lf_invocations"),
        "0",
        "reverting to the original spec must be a cache hit"
    );
    println!(
        "hammer OK: {} queries ({saw_pre} pre-edit, {saw_post} post-edit), no torn reads",
        saw_pre + saw_post
    );
    std::process::exit(0);
}

/// Cross-plane equivalence, cross-process: send one binary `OP_MARGINAL`
/// frame carrying `--batch` rows, then the same rows as individual text
/// `MARGINAL` lines, and require bit-identical posteriors. Text replies
/// use shortest-round-trip float formatting, so parsing them back yields
/// the exact f64 the server computed — any drift between the planes
/// (or a batch that doesn't hold one consistent generation) fails here.
fn run_bincheck(args: &Args) -> ! {
    let addr = addr_of(args);
    let batch = args.get_usize("batch", 8).max(1);
    const SIGS: [(&[u32], &[i8]); 6] = [
        (&[0], &[1]),
        (&[1], &[-1]),
        (&[2], &[1]),
        (&[0, 1], &[1, -1]),
        (&[1, 2], &[-1, 1]),
        (&[0, 1, 2], &[1, -1, 1]),
    ];
    let rows: Vec<VoteRow> = (0..batch)
        .map(|i| {
            let (cols, votes) = SIGS[i % SIGS.len()];
            (cols.to_vec(), votes.to_vec())
        })
        .collect();

    let mut frames =
        FrameClient::connect(addr).unwrap_or_else(|e| die(&format!("frame connect: {e}")));
    let (bin_gen, bin_probs) = match frames.marginal(&rows) {
        Ok(BinReply::Marginal { gen, probs }) => (gen, probs),
        Ok(BinReply::Err { message }) => die(&format!("binary batch refused: {message}")),
        Ok(other) => die(&format!("unexpected binary reply: {other:?}")),
        Err(e) => die(&format!("binary round trip: {e}")),
    };
    if bin_probs.len() != rows.len() {
        die(&format!(
            "binary batch returned {} rows for {} requests",
            bin_probs.len(),
            rows.len()
        ));
    }

    let mut text = Client::connect(addr).unwrap_or_else(|e| die(&format!("text connect: {e}")));
    for (i, ((cols, votes), bin_row)) in rows.iter().zip(&bin_probs).enumerate() {
        let entries: Vec<String> = cols
            .iter()
            .zip(votes)
            .map(|(c, v)| format!("{c}:{v}"))
            .collect();
        let reply = text
            .request(&format!("MARGINAL {}", entries.join(",")))
            .unwrap_or_else(|e| die(&format!("text round trip: {e}")));
        if !reply.starts_with("OK ") {
            die(&format!("text plane refused row {i}: {reply}"));
        }
        let text_gen: u64 = field(&reply, "gen")
            .parse()
            .unwrap_or_else(|_| die(&format!("bad gen in {reply:?}")));
        if text_gen != bin_gen {
            die(&format!(
                "generation skew: binary batch gen={bin_gen}, text row {i} gen={text_gen}"
            ));
        }
        let text_row: Vec<f64> = field(&reply, "p")
            .split(',')
            .map(|p| {
                p.parse()
                    .unwrap_or_else(|_| die(&format!("bad p in {reply:?}")))
            })
            .collect();
        let same_bits = text_row.len() == bin_row.len()
            && text_row
                .iter()
                .zip(bin_row)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same_bits {
            die(&format!(
                "posterior mismatch on row {i}: binary {bin_row:?} vs text {text_row:?}"
            ));
        }
    }
    println!("binary batch OK: {batch} rows bit-identical across planes, gen={bin_gen}");
    std::process::exit(0);
}

fn run_verify_snap(args: &Args) -> ! {
    let Some(path) = args.positional.first() else {
        die("verify-snap needs a path");
    };
    match Snapshot::read_file(&PathBuf::from(path)) {
        Ok(snapshot) => {
            let s = &snapshot.session;
            println!(
                "snapshot OK: {} candidates, {} LFs, model={}, lambda_rows={}, disc={}, \
                 {} cached columns",
                s.candidates.len(),
                s.suite.len(),
                s.model.is_some(),
                s.lambda_rows,
                s.disc.is_some(),
                s.cache.columns.len(),
            );
            std::process::exit(0);
        }
        Err(e) => die(&format!("snapshot invalid: {e}")),
    }
}

/// In-process demo: serve, query, snapshot, kill, resume warm.
fn run_demo() {
    let dir = std::env::temp_dir().join(format!("snorkel-serving-demo-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let snap_path = dir.join("demo.snap");
    let specs = parse_specs(&[]);

    println!("== first life ==");
    let session = fresh_session(2000, &specs);
    let server = LabelServer::start(
        session,
        ServeConfig {
            snapshot_path: Some(snap_path.clone()),
            auto_snapshot: Some(Duration::from_secs(30)),
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    for req in [
        "STATS",
        "MARGINAL 0:1,1:-1",
        "MARGINAL 0:1,2:1",
        "APPLY 0 1 2 3 chem3 causes disease5",
        // The distilled model answers for candidates outside Λ.
        "PREDICT btw=cause u=chem3",
        "PREDICT_TEXT 0 1 2 3 chemX causes diseaseY",
        "REFRESH EDIT lf_treats KEYWORD -1 1 treats,cures",
        "MARGINAL 0:1,1:-1",
        "PREDICT btw=cause u=chem3",
    ] {
        println!("> {req}");
        println!("< {}", client.request(req).expect("request"));
    }
    // Multi-line verbs: a Prometheus scrape and the slowest requests.
    let (header, lines) = client.request_lines("METRICS").expect("metrics");
    println!("> METRICS\n< {header} (showing 6 of {} lines)", lines.len());
    for l in lines.iter().take(6) {
        println!("  {l}");
    }
    let (header, lines) = client.request_lines("SLOWLOG 3").expect("slowlog");
    println!("> SLOWLOG 3\n< {header}");
    for l in &lines {
        println!("  {l}");
    }
    for req in ["SNAPSHOT", "SHUTDOWN"] {
        println!("> {req}");
        println!("< {}", client.request(req).expect("request"));
    }
    server.wait().expect("clean shutdown");
    drop(client);

    println!("== second life (resumed from {}) ==", snap_path.display());
    // The suite at snapshot time had an edited lf_treats — resume with
    // exactly that spec set.
    let resumed_specs: Vec<String> = vec![
        DEFAULT_SPECS[0].into(),
        "lf_treats KEYWORD -1 1 treats,cures".into(),
        DEFAULT_SPECS[2].into(),
    ];
    let (session, _) = resumed_session(&snap_path, 2000, &parse_specs(&resumed_specs));
    let server = LabelServer::start(session, ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    for req in [
        "MARGINAL 0:1,1:-1",
        "PREDICT btw=cause u=chem3",
        "REFRESH",
        "STATS",
        "SHUTDOWN",
    ] {
        println!("> {req}");
        println!("< {}", client.request(req).expect("request"));
    }
    server.wait().expect("clean shutdown");
    std::fs::remove_dir_all(&dir).ok();
    println!("demo complete: the resumed REFRESH reported lf_invocations=0 — warm start.");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        None => run_demo(),
        Some("server") => run_server(&parse_args(&argv[1..])),
        Some("client") => run_client(&parse_args(&argv[1..])),
        Some("hammer") => run_hammer(&parse_args(&argv[1..])),
        Some("bincheck") => run_bincheck(&parse_args(&argv[1..])),
        Some("verify-snap") => run_verify_snap(&parse_args(&argv[1..])),
        Some(other) => die(&format!(
            "unknown mode {other:?} (server | client | hammer | bincheck | verify-snap, \
             or no args for the demo)"
        )),
    }
}

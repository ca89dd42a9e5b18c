//! Streaming-ingest serving tests:
//!
//! * **write-lock serialization** — `INGEST` and `REFRESH` land from
//!   two writer threads while N clients hammer `MARGINAL`; every
//!   reader reply must pair a generation with that generation's exact
//!   posterior (no torn generation counters), every ingest must splice
//!   exactly one row (strictly sequential `total=`), and every ingest
//!   must take the online fast path.
//! * **binary plane** — `OP_INGEST` over `FrameClient` returns the
//!   same summary fields as the text verb.
//! * **validation** — a bad span refuses the whole batch before
//!   anything grows.
//! * **fallback refresh** — an ingest into a never-refreshed session
//!   runs a full refresh, advances the generation, and stops the memo
//!   serving the pre-refresh posterior.
//! * **backpressure** — a zero-capacity gate (drain mode) refuses both
//!   planes with a typed `backpressure` error and the connection
//!   survives.

mod common;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::Deadline;
use snorkel_context::Corpus;
use snorkel_core::optimizer::OptimizerConfig;
use snorkel_incr::{IncrementalSession, SessionConfig};
use snorkel_lf::{lf, BoxedLf};
use snorkel_nlp::tokenize;
use snorkel_serve::repl::{apply_ingest, prepare_ingest};
use snorkel_serve::{BinReply, Client, FrameClient, LabelServer, ServeConfig};

fn build_corpus(n: usize) -> Corpus {
    let mut corpus = Corpus::new();
    let doc = corpus.add_document("d");
    for i in 0..n {
        let verb = if i % 3 == 0 { "causes" } else { "treats" };
        let text = format!("alpha{} {} beta{}", i % 7, verb, i % 5);
        let s = corpus.add_sentence(doc, &text, tokenize(&text));
        let a = corpus.add_span(s, 0, 1, Some("A"));
        let b = corpus.add_span(s, 2, 3, Some("B"));
        corpus.add_candidate(vec![a, b]);
    }
    corpus
}

/// Force the moment backend (the one with an online ingest path) at
/// test scale.
fn moment_config() -> SessionConfig {
    SessionConfig {
        optimizer: OptimizerConfig {
            skip_structure_search: true,
            moment_min_rows: 100,
            gamma: 0.0,
            ..OptimizerConfig::default()
        },
        ..SessionConfig::default()
    }
}

/// A deterministic full-coverage LF voting by text length.
fn mod_lf(name: &str, vote_mod: u64) -> BoxedLf {
    lf(name.to_string(), move |x| {
        let len = x.sentence().text().len() as u64;
        if len.is_multiple_of(vote_mod) {
            1
        } else {
            -1
        }
    })
}

/// A session with four LFs and no refresh yet.
fn unrefreshed_session(rows: usize) -> IncrementalSession {
    let mut session = IncrementalSession::over_all_candidates(build_corpus(rows), moment_config());
    for j in 0..4u64 {
        session.add_lf(mod_lf(&format!("lf_{j}"), 2 + j));
    }
    session
}

fn moment_session(rows: usize) -> IncrementalSession {
    let mut session = unrefreshed_session(rows);
    let (_, report) = session.refresh();
    assert_eq!(report.backend, "moment");
    session
}

fn field<'a>(response: &'a str, key: &str) -> &'a str {
    response
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in {response:?}"))
}

#[test]
fn concurrent_ingest_and_refresh_serialize_without_torn_generations() {
    const READERS: usize = 4;
    const QUERIES_PER_READER: usize = 100;
    const INGESTS: usize = 20;
    const REFRESHES: usize = 6;

    let rows = 400;
    let server = LabelServer::start(moment_session(rows), ServeConfig::default()).expect("bind");
    let addr = server.addr();

    let mut control = Client::connect(addr).expect("connect");
    let sig = "MARGINAL 0:1,1:-1";
    let pre_gen: u64 = field(&control.request(sig).expect("pre"), "gen")
        .parse()
        .expect("number");

    // Readers hammer until both writers are done, then one final query
    // so the stream spans every write.
    let writers_done = Arc::new(AtomicUsize::new(0));
    let (reader_replies, ingest_replies) = std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..READERS {
            let writers_done = Arc::clone(&writers_done);
            readers.push(scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let mut replies = Vec::with_capacity(QUERIES_PER_READER + 1);
                // Deadline-bounded, not a fixed sleep: the loop runs
                // exactly until both writers finish, and a wedged
                // writer fails loudly instead of hanging the test.
                let watchdog = Deadline::new(Duration::from_secs(120), "writers to finish");
                while replies.len() < QUERIES_PER_READER || writers_done.load(Ordering::SeqCst) < 2
                {
                    watchdog.check();
                    replies.push(client.request(sig).expect("marginal"));
                }
                replies.push(client.request(sig).expect("post-write marginal"));
                replies
            }));
        }
        let ingester = {
            let writers_done = Arc::clone(&writers_done);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                let replies: Vec<String> = (0..INGESTS)
                    .map(|i| {
                        client
                            .request(&format!("INGEST 0 1 2 3 gamma{i} causes delta{i}"))
                            .expect("ingest")
                    })
                    .collect();
                writers_done.fetch_add(1, Ordering::SeqCst);
                replies
            })
        };
        let refresher = {
            let writers_done = Arc::clone(&writers_done);
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for _ in 0..REFRESHES {
                    let reply = client.request("REFRESH").expect("refresh");
                    assert!(reply.starts_with("OK "), "{reply}");
                }
                writers_done.fetch_add(1, Ordering::SeqCst);
            })
        };
        refresher.join().expect("refresher thread");
        let ingest_replies = ingester.join().expect("ingester thread");
        let reader_replies: Vec<Vec<String>> = readers
            .into_iter()
            .map(|h| h.join().expect("reader thread"))
            .collect();
        (reader_replies, ingest_replies)
    });

    // Every ingest took the online fast path, spliced exactly one row
    // (strictly sequential totals prove the writes serialized with no
    // lost updates), and advanced the generation.
    let mut last_gen = pre_gen;
    for (i, reply) in ingest_replies.iter().enumerate() {
        assert!(reply.starts_with("OK "), "{reply}");
        assert_eq!(field(reply, "online"), "1", "{reply}");
        assert_eq!(field(reply, "rows"), "1", "{reply}");
        assert_eq!(
            field(reply, "total"),
            (rows + i + 1).to_string(),
            "ingest {i} must observe every prior splice"
        );
        let gen: u64 = field(reply, "gen").parse().expect("number");
        assert!(gen > last_gen, "ingest must advance the generation");
        last_gen = gen;
    }

    // No torn reads: a generation maps to exactly one posterior, and
    // the model visibly moved across the writes.
    let mut by_gen: std::collections::HashMap<u64, &str> = std::collections::HashMap::new();
    let mut total = 0usize;
    for reply in reader_replies.iter().flatten() {
        let gen: u64 = field(reply, "gen").parse().expect("number");
        let p = field(reply, "p");
        match by_gen.entry(gen) {
            std::collections::hash_map::Entry::Occupied(seen) => {
                assert_eq!(
                    *seen.get(),
                    p,
                    "torn read: generation {gen} served two different posteriors"
                );
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(p);
            }
        }
        total += 1;
    }
    assert!(total >= READERS * QUERIES_PER_READER);
    let distinct: std::collections::HashSet<&str> = by_gen.values().copied().collect();
    assert!(
        distinct.len() >= 2,
        "the ingested rows must move the posterior, or the check is vacuous"
    );

    // The binary plane shares the same core: one OP_INGEST frame.
    let mut bin = FrameClient::connect(addr).expect("connect");
    let reply = bin
        .ingest(&[((0, 1), (2, 3), "gamma99 causes delta99".to_string())])
        .expect("frame round trip");
    match reply {
        BinReply::Ingest {
            gen,
            rows: ingested,
            total,
            online,
            auto_refit,
            ..
        } => {
            assert!(gen > last_gen);
            assert_eq!((ingested, total), (1, (rows + INGESTS + 1) as u64));
            assert!(online && !auto_refit);
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // A bad span refuses the whole batch before anything grows.
    let bad = control
        .request("INGEST 0 1 5 9 too few tokens")
        .expect("still connected");
    assert!(bad.starts_with("ERR span 5..9 invalid"), "{bad}");
    let stats = control.request("STATS").expect("stats");
    assert_eq!(field(&stats, "rows"), (rows + INGESTS + 1).to_string());
    assert_eq!(field(&stats, "backend"), "moment");
    assert_eq!(field(&stats, "ingest_queue"), "0/16");
    let drift: f64 = field(&stats, "drift_score").parse().expect("numeric score");
    assert!((0.0..=1.0).contains(&drift));

    server.shutdown().expect("clean shutdown");
}

#[test]
fn an_ingest_that_falls_back_to_a_full_refresh_invalidates_the_memo() {
    const TEXT: &str = "alpha1 causes beta2";
    const SIG: &str = "MARGINAL 0:1";
    let rows = 60;

    // With no refresh yet the server answers from the majority vote, and
    // memoizes that answer.
    let server =
        LabelServer::start(unrefreshed_session(rows), ServeConfig::default()).expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");
    let before = client.request(SIG).expect("marginal");
    assert_eq!(field(&before, "p"), "1,0", "{before}");

    // The ingest falls back to a full refresh: the model changes, so the
    // generation must move and the memo must not answer.
    let reply = client
        .request(&format!("INGEST 0 1 2 3 {TEXT}"))
        .expect("ingest");
    assert!(reply.starts_with("OK "), "{reply}");
    assert_eq!(field(&reply, "online"), "0", "{reply}");
    let after = client.request(SIG).expect("marginal");
    let gen = |reply: &str| field(reply, "gen").parse::<u64>().expect("number");
    assert!(gen(&after) > gen(&before), "{before} then {after}");

    // A fresh server over a session in the same state has no memo.
    let mut twin = unrefreshed_session(rows);
    let batch = prepare_ingest(&[((0, 1), (2, 3), TEXT.to_string())]);
    apply_ingest(&mut twin, &mut 0, batch.expect("valid row"));
    let fresh = LabelServer::start(twin, ServeConfig::default()).expect("bind");
    let expected = Client::connect(fresh.addr())
        .expect("connect")
        .request(SIG)
        .expect("marginal");
    assert_ne!(
        field(&expected, "p"),
        "1,0",
        "the refresh must move the posterior"
    );
    assert_eq!(field(&after, "p"), field(&expected, "p"));

    fresh.shutdown().expect("clean shutdown");
    server.shutdown().expect("clean shutdown");
}

#[test]
fn drain_mode_refuses_ingest_with_backpressure_on_both_planes() {
    let server = LabelServer::start(
        moment_session(200),
        ServeConfig {
            ingest_queue: 0,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let mut client = Client::connect(server.addr()).expect("connect");

    let refused = client
        .request("INGEST 0 1 2 3 gamma0 causes delta0")
        .expect("still connected");
    assert!(refused.starts_with("ERR backpressure:"), "{refused}");

    let mut bin = FrameClient::connect(server.addr()).expect("connect");
    match bin
        .ingest(&[((0, 1), (2, 3), "gamma0 causes delta0".to_string())])
        .expect("frame round trip")
    {
        BinReply::Err { message } => {
            assert!(message.starts_with("backpressure:"), "{message}")
        }
        other => panic!("drain mode must refuse, got {other:?}"),
    }

    // Nothing was ingested, the gate advertises drain mode, and the
    // connection still serves.
    let stats = client.request("STATS").expect("stats");
    assert_eq!(field(&stats, "rows"), "200");
    assert_eq!(field(&stats, "ingest_queue"), "0/0");
    assert_eq!(client.request("PING").expect("ping"), "OK pong");

    server.shutdown().expect("clean shutdown");
}

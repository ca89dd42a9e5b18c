//! Wire-level tests for the worker-pool server and binary framing v2:
//!
//! * **equivalence** — a batched binary `MARGINAL` reply carries the
//!   same generation and *bit-identical* posteriors to N single text
//!   requests (property-tested; the text plane's shortest-round-trip
//!   float formatting makes the comparison exact).
//! * **pipelining** — N requests written in one TCP segment yield N
//!   in-order replies, on the text plane, the binary plane, and a mix
//!   of both on one connection.
//! * **failure modes** — an oversized request line gets `ERR request
//!   line too long` before the close (not a silent drop), invalid
//!   UTF-8 gets `ERR invalid utf-8` without killing the connection,
//!   a connection over the cap is refused with `ERR busy`, and
//!   malformed frames (unknown opcode, lying length fields, oversized
//!   payloads) get error frames.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::OnceLock;
use std::time::Duration;

use common::wait_until;
use proptest::prelude::*;
use snorkel_context::{CandidateId, Corpus};
use snorkel_core::optimizer::ModelingStrategy;
use snorkel_incr::{IncrementalSession, SessionConfig};
use snorkel_nlp::tokenize;
use snorkel_serve::frame::{self, FRAME_HEADER_BYTES, FRAME_MAGIC, MAX_FRAME_BYTES, OP_MARGINAL};
use snorkel_serve::{BinReply, Client, FrameClient, LabelServer, LfSpec, ServeConfig, VoteRow};

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

/// The two-LF suite over `rows` candidates, not yet refreshed (no
/// model: the server answers by majority vote).
fn unrefreshed_session(rows: usize) -> IncrementalSession {
    let corpus = build_corpus(rows);
    let ids: Vec<CandidateId> = corpus.candidate_ids().collect();
    let mut session = IncrementalSession::new(corpus, gm_config());
    session.ingest_candidates(&ids);
    for spec in SPECS {
        let spec = LfSpec::parse(spec).expect("valid spec");
        session.add_lf_tagged(spec.build().expect("buildable"), spec.content_tag());
    }
    session
}

fn primed_session(rows: usize) -> IncrementalSession {
    let mut session = unrefreshed_session(rows);
    session.refresh();
    session
}

/// One server shared by every test that only reads (starting a server
/// per proptest case would dominate the run). Tests that mutate global
/// server behavior (the connection cap) start their own.
fn shared_server() -> SocketAddr {
    static ADDR: OnceLock<SocketAddr> = OnceLock::new();
    *ADDR.get_or_init(|| {
        let server = LabelServer::start(primed_session(60), ServeConfig::default()).expect("bind");
        let addr = server.addr();
        // Keep it serving for the whole test process.
        std::mem::forget(server);
        addr
    })
}

/// The value of one `key=` field of a text reply.
fn reply_field<'a>(reply: &'a str, key: &str) -> &'a str {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
        .unwrap_or_else(|| panic!("no {key} in {reply:?}"))
}

/// Decode a `p=` list from a text `MARGINAL` reply. Shortest-round-trip
/// formatting means these parse back to the exact bits the server
/// computed.
fn text_probs(reply: &str) -> Vec<f64> {
    reply_field(reply, "p=")
        .split(',')
        .map(|v| v.parse().expect("parseable probability"))
        .collect()
}

fn text_gen(reply: &str) -> u64 {
    reply_field(reply, "gen=")
        .parse()
        .unwrap_or_else(|_| panic!("bad gen= in {reply:?}"))
}

/// The text `MARGINAL` request line for one vote row.
fn marginal_line(row: &VoteRow) -> String {
    let entries: Vec<String> = row
        .0
        .iter()
        .zip(&row.1)
        .map(|(c, v)| format!("{c}:{v}"))
        .collect();
    format!("MARGINAL {}", entries.join(","))
}

/// A batch row over the two primed LF columns: a nonempty subset of
/// {0, 1}, each selected column voting ±1.
fn row_strategy() -> impl Strategy<Value = VoteRow> {
    (
        1u8..4,
        prop_oneof![Just(1i8), Just(-1i8)],
        prop_oneof![Just(1i8), Just(-1i8)],
    )
        .prop_map(|(mask, v0, v1)| {
            let mut cols = Vec::new();
            let mut votes = Vec::new();
            if mask & 1 != 0 {
                cols.push(0);
                votes.push(v0);
            }
            if mask & 2 != 0 {
                cols.push(1);
                votes.push(v1);
            }
            (cols, votes)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The acceptance property: one batched binary MARGINAL ==
    /// N single text MARGINALs, to the bit.
    #[test]
    fn binary_batch_matches_text_singles(rows in prop::collection::vec(row_strategy(), 1..9)) {
        let addr = shared_server();
        let mut text = Client::connect(addr).expect("text connect");
        let mut bin = FrameClient::connect(addr).expect("frame connect");

        let reply = bin.marginal(&rows).expect("binary round trip");
        let BinReply::Marginal { gen, probs } = reply else {
            panic!("unexpected reply {reply:?}");
        };
        prop_assert_eq!(probs.len(), rows.len());

        for (row, bin_probs) in rows.iter().zip(&probs) {
            let reply = text.request(&marginal_line(row)).expect("text round trip");
            prop_assert!(reply.starts_with("OK "), "{}", reply);
            prop_assert_eq!(text_gen(&reply), gen);
            let text_bits: Vec<u64> = text_probs(&reply).iter().map(|p| p.to_bits()).collect();
            let bin_bits: Vec<u64> = bin_probs.iter().map(|p| p.to_bits()).collect();
            prop_assert_eq!(text_bits, bin_bits, "binary and text disagree for {:?}", row);
        }
    }
}

/// Text `PREDICT` is a batch of one through the same `hotpath` core as
/// binary `OP_PREDICT`: same generations, value-equal posteriors.
#[test]
fn text_predict_matches_binary_predict() {
    let mut config = gm_config();
    config.distill = Some(snorkel_core::pipeline::DiscTrainerConfig::with_dim(1 << 10));
    let corpus = build_corpus(60);
    let ids: Vec<CandidateId> = corpus.candidate_ids().collect();
    let mut session = IncrementalSession::new(corpus, config);
    session.ingest_candidates(&ids);
    for spec in SPECS {
        let spec = LfSpec::parse(spec).expect("valid spec");
        session.add_lf_tagged(spec.build().expect("buildable"), spec.content_tag());
    }
    let server = LabelServer::start(session, ServeConfig::default()).expect("bind");
    let mut text = Client::connect(server.addr()).expect("text connect");
    let mut bin = FrameClient::connect(server.addr()).expect("frame connect");
    // The reply arrives once the distilled model is installed.
    let refreshed = text.request("REFRESH").expect("refresh");
    assert_eq!(
        reply_field(&refreshed, "disc="),
        "retraining",
        "{refreshed}"
    );

    let rows: Vec<Vec<String>> = vec![
        vec!["btw=cause".into(), "u=alpha1".into()],
        vec!["btw=treat".into()],
        vec!["héllo".into(), "btw=mention".into(), "u=beta3".into()],
    ];
    let reply = bin.predict(&rows).expect("binary round trip");
    let BinReply::Predict {
        gen,
        disc_gen,
        probs,
    } = reply
    else {
        panic!("unexpected reply {reply:?}");
    };
    assert_eq!(probs.len(), rows.len());
    for (row, bin_probs) in rows.iter().zip(&probs) {
        let reply = text
            .request(&format!("PREDICT {}", row.join(" ")))
            .expect("text round trip");
        assert!(reply.starts_with("OK "), "{reply}");
        assert_eq!(text_gen(&reply), gen);
        assert_eq!(reply_field(&reply, "disc_gen="), disc_gen.to_string());
        assert_eq!(
            &text_probs(&reply),
            bin_probs,
            "planes disagree for {row:?}"
        );
    }
    server.shutdown().expect("clean shutdown");
}

/// Text `APPLY` scores the votes it reports through the same `hotpath`
/// row kernel as both `MARGINAL` planes — with a trained model, and on
/// a server with none (majority-vote fallback).
#[test]
fn apply_matches_marginal_on_both_planes() {
    let no_model =
        LabelServer::start(unrefreshed_session(10), ServeConfig::default()).expect("bind");
    for addr in [shared_server(), no_model.addr()] {
        let mut text = Client::connect(addr).expect("text connect");
        let mut bin = FrameClient::connect(addr).expect("frame connect");
        let apply = text
            .request("APPLY 0 1 2 3 alpha1 causes beta1")
            .expect("apply round trip");
        assert!(apply.starts_with("OK "), "{apply}");
        let row: VoteRow = reply_field(&apply, "votes=")
            .split(',')
            .map(|v| v.parse::<i8>().expect("vote"))
            .enumerate()
            .filter(|&(_, v)| v != 0)
            .map(|(j, v)| (j as u32, v))
            .unzip();
        assert!(!row.0.is_empty(), "probe text must draw a vote: {apply}");

        let marginal = text
            .request(&marginal_line(&row))
            .expect("marginal round trip");
        assert_eq!(reply_field(&apply, "p="), reply_field(&marginal, "p="));
        match bin.marginal(std::slice::from_ref(&row)).expect("binary") {
            BinReply::Marginal { probs, .. } => assert_eq!(probs[0], text_probs(&apply)),
            other => panic!("unexpected reply {other:?}"),
        }
    }
    no_model.shutdown().expect("clean shutdown");
}

#[test]
fn text_pipelining_yields_in_order_replies() {
    let addr = shared_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    // Three requests, one write, distinguishable replies.
    stream
        .write_all(b"PING\nMARGINAL 0:1\nNOPE\n")
        .expect("one segment");
    let mut reader = BufReader::new(stream);
    let mut read_line = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("reply line");
        line.trim_end().to_string()
    };
    assert_eq!(read_line(), "OK pong");
    assert!(read_line().starts_with("OK gen="));
    assert!(read_line().starts_with("ERR"));
}

#[test]
fn binary_pipelining_yields_in_order_replies() {
    let addr = shared_server();
    let mut client = FrameClient::connect(addr).expect("connect");
    let batches: [Vec<VoteRow>; 3] = [
        vec![(vec![0], vec![1])],
        vec![(vec![1], vec![-1]), (vec![0, 1], vec![1, 1])],
        vec![(vec![0], vec![-1])],
    ];
    let mut segment = frame::encode_ping();
    for batch in &batches {
        segment.extend_from_slice(&frame::encode_marginal(batch));
    }
    client.send_raw(&segment).expect("one segment");
    assert!(matches!(
        client.read_reply().expect("pong"),
        BinReply::Pong { .. }
    ));
    for batch in &batches {
        match client.read_reply().expect("marginal reply") {
            BinReply::Marginal { probs, .. } => assert_eq!(probs.len(), batch.len()),
            other => panic!("unexpected reply {other:?}"),
        }
    }
}

#[test]
fn mixed_plane_pipelining_preserves_order() {
    let addr = shared_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    let mut segment = Vec::new();
    segment.extend_from_slice(b"PING\n");
    segment.extend_from_slice(&frame::encode_marginal(&[(vec![0], vec![1])]));
    segment.extend_from_slice(b"MARGINAL 1:-1\n");
    stream.write_all(&segment).expect("one segment");

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("text reply");
    assert_eq!(line.trim_end(), "OK pong");

    let mut header = [0u8; FRAME_HEADER_BYTES];
    reader.read_exact(&mut header).expect("frame header");
    assert_eq!(header[0], FRAME_MAGIC);
    let len = u32::from_le_bytes(header[2..6].try_into().unwrap());
    let mut payload = vec![0u8; len as usize];
    reader.read_exact(&mut payload).expect("frame payload");
    match frame::decode_reply(header[1], &payload).expect("decodable") {
        BinReply::Marginal { probs, .. } => assert_eq!(probs.len(), 1),
        other => panic!("unexpected reply {other:?}"),
    }

    line.clear();
    reader.read_line(&mut line).expect("text reply");
    assert!(line.starts_with("OK gen="), "{line}");
}

#[test]
fn oversized_line_gets_err_before_close() {
    let addr = shared_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    // Stream past the 1 MiB line cap without ever sending a newline,
    // then half-close so the server sees clean EOF (no unread bytes →
    // no RST racing the ERR reply back to us).
    let chunk = [b'x'; 64 * 1024];
    for _ in 0..17 {
        stream.write_all(&chunk).expect("oversized line");
    }
    stream.shutdown(Shutdown::Write).expect("half-close");

    let mut reply = String::new();
    let mut reader = BufReader::new(stream);
    reader.read_line(&mut reply).expect("the ERR line");
    assert_eq!(reply.trim_end(), "ERR request line too long");
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).expect("EOF"), 0, "{reply:?}");
}

#[test]
fn invalid_utf8_is_rejected_but_connection_survives() {
    let addr = shared_server();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .write_all(b"MARGINAL \xff\xfe 0:1\nPING\n")
        .expect("bad bytes then a good request");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("reply");
    assert_eq!(line.trim_end(), "ERR invalid utf-8");
    line.clear();
    reader.read_line(&mut line).expect("second reply");
    assert_eq!(line.trim_end(), "OK pong", "connection must stay usable");
}

#[test]
fn connection_cap_refuses_with_err_busy() {
    let server = LabelServer::start(
        primed_session(20),
        ServeConfig {
            workers: 2,
            max_connections: 2,
            ..ServeConfig::default()
        },
    )
    .expect("bind");
    let addr = server.addr();

    let mut c1 = Client::connect(addr).expect("first");
    let mut c2 = Client::connect(addr).expect("second");
    // Round trips guarantee both connections were accepted and counted
    // before the third arrives.
    assert_eq!(c1.request("PING").expect("ping"), "OK pong");
    assert_eq!(c2.request("PING").expect("ping"), "OK pong");

    let refused = TcpStream::connect(addr).expect("tcp connect still succeeds");
    refused
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    let mut reader = BufReader::new(refused);
    let mut line = String::new();
    reader.read_line(&mut line).expect("refusal");
    assert_eq!(line.trim_end(), "ERR busy");
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("EOF"), 0);

    // Freeing a slot readmits: drop one client, then retry until the
    // worker notices the close and releases the count.
    drop(c1);
    wait_until(
        Duration::from_secs(30),
        "a connection slot to free after client close",
        || {
            let mut probe = Client::connect(addr).expect("tcp connect");
            match probe.request("PING") {
                Ok(reply) if reply == "OK pong" => Some(()),
                Ok(reply) if reply == "ERR busy" => None,
                Ok(other) => panic!("unexpected reply {other:?}"),
                // The refused socket closes under us mid-request.
                Err(_) => None,
            }
        },
    );

    drop(c2);
    server.shutdown().expect("clean shutdown");
}

#[test]
fn malformed_frames_get_error_frames() {
    let addr = shared_server();
    let mut client = FrameClient::connect(addr).expect("connect");

    // Unknown opcode: error frame, connection stays open.
    client
        .send_raw(&[FRAME_MAGIC, 0x7E, 0, 0, 0, 0])
        .expect("unknown opcode frame");
    match client.read_reply().expect("error frame") {
        BinReply::Err { message } => assert!(message.contains("unknown opcode"), "{message}"),
        other => panic!("unexpected reply {other:?}"),
    }
    assert!(matches!(
        client.ping().expect("still serving"),
        BinReply::Pong { .. }
    ));

    // A payload whose internal count exceeds the bytes behind it is
    // rejected before allocation.
    let mut lying = vec![FRAME_MAGIC, OP_MARGINAL];
    lying.extend_from_slice(&4u32.to_le_bytes());
    lying.extend_from_slice(&1_000_000u32.to_le_bytes());
    client.send_raw(&lying).expect("lying count frame");
    match client.read_reply().expect("error frame") {
        BinReply::Err { message } => {
            assert!(message.contains("exceeds the bytes remaining"), "{message}")
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // A header length over the frame cap closes the connection after
    // the error frame (the declared payload will never be read).
    let mut oversized = vec![FRAME_MAGIC, OP_MARGINAL];
    oversized.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
    client.send_raw(&oversized).expect("oversized header");
    match client.read_reply().expect("error frame") {
        BinReply::Err { message } => assert!(message.contains("exceeds"), "{message}"),
        other => panic!("unexpected reply {other:?}"),
    }
    match client.read_reply() {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}"),
        Ok(other) => panic!("expected close, got {other:?}"),
    }
}

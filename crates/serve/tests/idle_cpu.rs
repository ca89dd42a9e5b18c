//! An idle server costs no CPU: with connections open and no traffic,
//! its workers and accept thread are parked in their readiness waits,
//! not spinning, yielding or napping. One test in its own binary, so no
//! other test's threads share the process whose CPU time it sums.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

use snorkel_context::{CandidateId, Corpus};
use snorkel_incr::{IncrementalSession, SessionConfig};
use snorkel_serve::{LabelServer, LfSpec, ServeConfig};

/// Most CPU the whole process may use over one idle second.
const IDLE_BUDGET: Duration = Duration::from_millis(10);

fn session() -> IncrementalSession {
    let mut corpus = Corpus::new();
    let doc = corpus.add_document("d");
    for verb in ["causes", "treats", "mentions", "causes"] {
        let text = format!("alpha {verb} beta");
        let sent = corpus.add_sentence(doc, &text, snorkel_nlp::tokenize(&text));
        let a = corpus.add_span(sent, 0, 1, None);
        let b = corpus.add_span(sent, 2, 3, None);
        corpus.add_candidate(vec![a, b]);
    }
    let ids: Vec<CandidateId> = corpus.candidate_ids().collect();
    let mut session = IncrementalSession::new(corpus, SessionConfig::default());
    session.ingest_candidates(&ids);
    for spec in [
        "lf_causes KEYWORD 1 -1 causes",
        "lf_treats KEYWORD -1 1 treats",
    ] {
        let spec = LfSpec::parse(spec).expect("valid spec");
        session.add_lf_tagged(spec.build().expect("buildable"), spec.content_tag());
    }
    session.refresh();
    session
}

/// Nanoseconds every thread of this process has spent on a CPU: the
/// first field of each `/proc/self/task/*/schedstat`.
fn process_cpu_ns() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok())
        .filter_map(|stat| stat.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

#[test]
fn an_idle_server_with_open_connections_burns_no_cpu() {
    let server = LabelServer::start(session(), ServeConfig::default()).expect("server starts");
    // Four connections, each served once so a worker has adopted it.
    let conns: Vec<TcpStream> = (0..4)
        .map(|_| {
            let mut stream = TcpStream::connect(server.addr()).expect("connect");
            stream.write_all(b"PING\n").expect("send");
            let mut reply = String::new();
            BufReader::new(&stream)
                .read_line(&mut reply)
                .expect("reply");
            assert_eq!(reply, "OK pong\n");
            stream
        })
        .collect();
    std::thread::sleep(Duration::from_millis(200));

    let before = process_cpu_ns();
    std::thread::sleep(Duration::from_secs(1));
    let burned = Duration::from_nanos(process_cpu_ns().saturating_sub(before));
    assert!(
        burned < IDLE_BUDGET,
        "an idle server burned {burned:?} of CPU in 1 s (budget {IDLE_BUDGET:?})"
    );

    drop(conns);
    server.shutdown().expect("clean shutdown");
}

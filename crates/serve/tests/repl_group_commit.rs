//! Follower group commit under load: a follower applies and journals
//! each pushed record under its write lock but syncs its WAL once per
//! drained burst, and only then publishes the burst to its own op log.
//! These tests run real servers in one process and check the three
//! places that ordering has to hold:
//!
//! * a chained replica (leader → F1 → F2) only ever receives records F1
//!   has synced, and all three nodes converge bit for bit;
//! * a `SNAPSHOT` taken on a follower mid-tail never carries a mark past
//!   the follower's durable WAL, so a restart from that snapshot plus
//!   the WAL boots, resumes and labels every row exactly once;
//! * `PROMOTE` while the leader streams seals the log after every
//!   applied record: the WAL rescans densely with the `Seal` last.

mod common;

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use common::{wait_until, Deadline};
use snorkel_context::Corpus;
use snorkel_core::optimizer::OptimizerConfig;
use snorkel_core::pipeline::DiscTrainerConfig;
use snorkel_incr::{IncrementalSession, SessionConfig};
use snorkel_lf::{lf, BoxedLf};
use snorkel_nlp::tokenize;
use snorkel_serve::repl::wal::{self, Op};
use snorkel_serve::repl::ReplMark;
use snorkel_serve::{Client, LabelServer, ServeConfig, Snapshot};

const ROWS: usize = 150;
const NUM_BASE_LFS: u64 = 4;
const TIMEOUT: Duration = Duration::from_secs(30);

const SIGS: [&str; 3] = [
    "MARGINAL 0:1,1:-1",
    "MARGINAL 1:1,3:-1",
    "MARGINAL 0:-1,2:1,3:1",
];
const PREDICTS: [&str; 2] = [
    "PREDICT_TEXT 0 1 2 3 gamma3 causes delta1",
    "PREDICT_TEXT 0 1 2 3 alpha2 treats beta4",
];

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

/// The text of the `i`-th ingested row; spans `0 1` and `2 3`.
fn row_text(i: u64) -> String {
    format!("gamma{i} causes delta{i}")
}

fn ingest_line(i: u64) -> String {
    format!("INGEST 0 1 2 3 {}", row_text(i))
}

/// The base corpus plus the first `ingested` rows, appended exactly as
/// the server appends an ingested row — what a node's snapshot taken
/// after those rows thaws against.
fn corpus_with_ingested(ingested: u64) -> Corpus {
    let mut corpus = build_corpus(ROWS);
    for i in 0..ingested {
        let text = row_text(i);
        let doc = corpus.add_document("ingest");
        let s = corpus.add_sentence(doc, &text, tokenize(&text));
        let a = corpus.add_span(s, 0, 1, None);
        let b = corpus.add_span(s, 2, 3, None);
        corpus.add_candidate(vec![a, b]);
    }
    corpus
}

fn config(distill: bool) -> SessionConfig {
    SessionConfig {
        optimizer: OptimizerConfig {
            skip_structure_search: true,
            moment_min_rows: 100,
            gamma: 0.0,
            ..OptimizerConfig::default()
        },
        distill: distill.then(|| DiscTrainerConfig::with_dim(1 << 10)),
        ..SessionConfig::default()
    }
}

/// A base LF, deterministic on sentence text; every call bumps
/// `counter` when one is given — the instrument for exactly-once.
fn mod_lf(name: String, vote_mod: u64, counter: Option<Arc<AtomicUsize>>) -> BoxedLf {
    lf(name, move |x| {
        if let Some(c) = &counter {
            c.fetch_add(1, Ordering::Relaxed);
        }
        if (x.sentence().text().len() as u64).is_multiple_of(vote_mod) {
            1
        } else {
            -1
        }
    })
}

fn base_lfs(counter: Option<&Arc<AtomicUsize>>) -> Vec<BoxedLf> {
    (0..NUM_BASE_LFS)
        .map(|j| mod_lf(format!("lf_{j}"), 2 + j, counter.cloned()))
        .collect()
}

fn leader_session(distill: bool) -> IncrementalSession {
    let mut session = IncrementalSession::over_all_candidates(build_corpus(ROWS), config(distill));
    for lf in base_lfs(None) {
        session.add_lf(lf);
    }
    session
}

/// Thaw `snapshot` (whose suite holds only the base LFs) over `corpus`.
fn thaw(
    snapshot: &Snapshot,
    corpus: Corpus,
    distill: bool,
    counter: Option<&Arc<AtomicUsize>>,
) -> IncrementalSession {
    IncrementalSession::thaw(
        corpus,
        config(distill),
        snapshot.session.clone(),
        base_lfs(counter),
    )
    .expect("thaw")
}

/// A temporary directory unique to this test and process.
fn test_dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("snorkel-gc-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn start_leader(dir: &Path, distill: bool) -> LabelServer {
    LabelServer::start(
        leader_session(distill),
        ServeConfig {
            wal_path: Some(dir.join("leader.wal")),
            snapshot_path: Some(dir.join("leader.snap")),
            ..ServeConfig::default()
        },
    )
    .expect("bind leader")
}

fn start_follower(
    session: IncrementalSession,
    upstream: SocketAddr,
    wal_path: PathBuf,
    mark: ReplMark,
) -> LabelServer {
    LabelServer::start(
        session,
        ServeConfig {
            follow: Some(upstream.to_string()),
            wal_path: Some(wal_path),
            repl_mark: Some(mark),
            ..ServeConfig::default()
        },
    )
    .expect("bind follower")
}

/// Refresh the leader once and snapshot it: the bootstrap image every
/// follower thaws.
fn bootstrap(lc: &mut Client, dir: &Path) -> (Snapshot, ReplMark) {
    ok(lc, "REFRESH");
    ok(lc, "SNAPSHOT");
    let snapshot = Snapshot::read_file(&dir.join("leader.snap")).expect("read snapshot");
    let mark = snapshot.repl.expect("replicated snapshot carries a mark");
    (snapshot, mark)
}

fn ok(client: &mut Client, line: &str) -> String {
    let reply = client.request(line).expect("request");
    assert!(reply.starts_with("OK "), "{line}: {reply}");
    reply
}

fn field<'a>(response: &'a str, key: &str) -> &'a str {
    response
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= in {response:?}"))
}

fn lsn_of(client: &mut Client) -> u64 {
    field(&ok(client, "STATS"), "lsn").parse().expect("lsn")
}

fn wait_for_lsn(client: &mut Client, lsn: u64, what: &str) {
    wait_until(TIMEOUT, what, || (lsn_of(client) == lsn).then_some(()));
}

/// Every node answers `probes` byte for byte like `reference`, at the
/// same `lsn=` and `gen=`. Distillation finishes after the refresh that
/// made it due, so replies are polled until they agree.
fn assert_converged(reference: &mut Client, others: &mut [&mut Client], probes: &[&str]) {
    let want: Vec<String> = probes.iter().map(|p| ok(reference, p)).collect();
    let stats = ok(reference, "STATS");
    for node in others.iter_mut() {
        for (probe, want) in probes.iter().zip(&want) {
            wait_until(TIMEOUT, "a replica's reply to match the leader's", || {
                (&ok(node, probe) == want).then_some(())
            });
        }
        let theirs = ok(node, "STATS");
        for key in ["lsn", "gen"] {
            assert_eq!(field(&stats, key), field(&theirs, key), "{key}= differs");
        }
    }
}

/// Ingest rows 0, 1, 2, … on `leader` until `stop` is set, then `extra`
/// more; returns how many rows were written.
fn ingest_until(leader: SocketAddr, stop: &AtomicBool, extra: u64) -> u64 {
    let mut client = Client::connect(leader).expect("connect writer");
    let deadline = Deadline::new(TIMEOUT, "the writer outlived the test");
    let mut i = 0;
    while !stop.load(Ordering::SeqCst) {
        deadline.check();
        ok(&mut client, &ingest_line(i));
        i += 1;
    }
    for i in i..i + extra {
        ok(&mut client, &ingest_line(i));
    }
    i + extra
}

fn scan_wal(path: &Path) -> wal::WalScan {
    let bytes = std::fs::read(path).expect("read WAL");
    let scan = wal::scan(&bytes).expect("WAL scans clean");
    assert_eq!(
        scan.dropped_bytes, 0,
        "a cleanly stopped node leaves no torn tail"
    );
    scan
}

/// (a) Leader → F1 → F2 through a burst of ingests and a `REFRESH
/// EDIT`: F2 tails F1's op log, which F1 fills only after each burst's
/// sync; all three end on the same bytes at the same LSN.
#[test]
fn chained_replicas_converge_through_a_burst_and_an_edit() {
    let dir = test_dir("chain");
    let leader = start_leader(&dir, true);
    let mut lc = Client::connect(leader.addr()).expect("connect leader");
    let (snapshot, mark) = bootstrap(&mut lc, &dir);

    let f1 = start_follower(
        thaw(&snapshot, build_corpus(ROWS), true, None),
        leader.addr(),
        dir.join("f1.wal"),
        mark,
    );
    let f2 = start_follower(
        thaw(&snapshot, build_corpus(ROWS), true, None),
        f1.addr(),
        dir.join("f2.wal"),
        mark,
    );
    let mut c1 = Client::connect(f1.addr()).expect("connect f1");
    let mut c2 = Client::connect(f2.addr()).expect("connect f2");

    for i in 0..60 {
        ok(&mut lc, &ingest_line(i));
    }
    ok(&mut lc, "REFRESH ADD lf_extra KEYWORD 1 -1 causes,gamma3");
    for i in 60..90 {
        ok(&mut lc, &ingest_line(i));
    }
    ok(&mut lc, "REFRESH EDIT lf_extra KEYWORD 1 -1 causes,delta7");
    for i in 90..100 {
        ok(&mut lc, &ingest_line(i));
    }

    let tip = lsn_of(&mut lc);
    assert_eq!(
        tip,
        mark.applied_lsn + 102,
        "one LSN per acknowledged mutation"
    );
    wait_for_lsn(&mut c1, tip, "F1 to reach the leader's tip");
    wait_for_lsn(&mut c2, tip, "F2 to reach the leader's tip through F1");
    let probes: Vec<&str> = SIGS.iter().chain(&PREDICTS).copied().collect();
    assert_converged(&mut lc, &mut [&mut c1, &mut c2], &probes);

    for node in [f2, f1, leader] {
        node.shutdown().expect("shutdown");
    }
    // Both replicas journaled every record they applied.
    for wal_name in ["f1.wal", "f2.wal"] {
        let scan = scan_wal(&dir.join(wal_name));
        assert_eq!(scan.records.last().map(|r| r.lsn), Some(tip), "{wal_name}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// (b) `SNAPSHOT` on F1 while it tails a writer, then a restart of F1
/// from that snapshot plus its own WAL: the snapshot's mark lies inside
/// the WAL, the node boots, catches up, and — counted by its LFs —
/// labels every ingested row exactly once across both lives.
#[test]
fn follower_snapshot_mid_tail_restarts_from_its_own_wal() {
    let dir = test_dir("snap");
    let leader = start_leader(&dir, false);
    let mut lc = Client::connect(leader.addr()).expect("connect leader");
    let (snapshot, mark) = bootstrap(&mut lc, &dir);
    let (f1_wal, f1_snap) = (dir.join("f1.wal"), dir.join("f1.snap"));

    let first_life = Arc::new(AtomicUsize::new(0));
    let f1 = start_follower(
        thaw(&snapshot, build_corpus(ROWS), false, Some(&first_life)),
        leader.addr(),
        f1_wal.clone(),
        mark,
    );
    let mut c1 = Client::connect(f1.addr()).expect("connect f1");

    // Every logged op after the bootstrap mark is a one-row ingest, so
    // a node at lsn `l` holds exactly the first `l - mark` rows. The
    // writer runs until F1 has tailed well past its snapshot.
    let stop = AtomicBool::new(false);
    let (total, own) = std::thread::scope(|scope| {
        let writer = scope.spawn(|| ingest_until(leader.addr(), &stop, 0));
        wait_until(TIMEOUT, "F1 to start tailing", || {
            (lsn_of(&mut c1) > mark.applied_lsn + 10).then_some(())
        });
        ok(&mut c1, &format!("SNAPSHOT {}", f1_snap.display()));
        let own = Snapshot::read_file(&f1_snap).expect("F1 snapshot");
        let snapped = own.repl.expect("F1 snapshot carries a mark").applied_lsn;
        wait_until(TIMEOUT, "F1 to tail past its snapshot", || {
            (lsn_of(&mut c1) > snapped + 10).then_some(())
        });
        stop.store(true, Ordering::SeqCst);
        (writer.join().expect("writer thread"), own)
    });
    let tip = lsn_of(&mut lc);
    assert_eq!(tip, mark.applied_lsn + total);
    wait_for_lsn(&mut c1, tip, "F1 to finish the first life");
    f1.shutdown().expect("f1 shutdown");
    assert_eq!(
        first_life.load(Ordering::Relaxed) as u64,
        NUM_BASE_LFS * total,
        "the first life labels each tailed row once per LF"
    );

    // The mid-tail image's mark lies inside the WAL, which a clean
    // stop left holding every applied record.
    let own_mark = own.repl.expect("F1 snapshot carries a mark");
    let scan = scan_wal(&f1_wal);
    let durable = scan.records.last().map_or(scan.base_lsn, |r| r.lsn);
    assert_eq!(
        durable, tip,
        "a clean stop leaves every applied record synced"
    );

    // More rows while F1 is down, so the second life tails as well as
    // replays.
    let down = 30u64;
    for i in total..total + down {
        ok(&mut lc, &ingest_line(i));
    }
    let tip = lsn_of(&mut lc);

    let second_life = Arc::new(AtomicUsize::new(0));
    let rows_at_mark = own_mark.applied_lsn - mark.applied_lsn;
    let f1 = start_follower(
        thaw(
            &own,
            corpus_with_ingested(rows_at_mark),
            false,
            Some(&second_life),
        ),
        leader.addr(),
        f1_wal.clone(),
        own_mark,
    );
    let mut c1 = Client::connect(f1.addr()).expect("reconnect f1");
    wait_for_lsn(&mut c1, tip, "the restarted F1 to reconverge");
    assert_converged(&mut lc, &mut [&mut c1], &SIGS);
    assert_eq!(
        second_life.load(Ordering::Relaxed) as u64,
        NUM_BASE_LFS * (tip - own_mark.applied_lsn),
        "the second life labels only the rows past its snapshot's mark"
    );

    f1.shutdown().expect("f1 shutdown");
    leader.shutdown().expect("leader shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

/// (c) `PROMOTE` F1 while the leader is still streaming to it: the seal
/// follows every record F1 applied, so its WAL rescans with dense LSNs,
/// the records before the seal are the leader's, and the seal is last.
#[test]
fn promote_under_load_seals_after_every_applied_record() {
    let dir = test_dir("promote");
    let leader = start_leader(&dir, false);
    let mut lc = Client::connect(leader.addr()).expect("connect leader");
    let (snapshot, mark) = bootstrap(&mut lc, &dir);
    let f1_wal = dir.join("f1.wal");
    let f1 = start_follower(
        thaw(&snapshot, build_corpus(ROWS), false, None),
        leader.addr(),
        f1_wal.clone(),
        mark,
    );
    let mut c1 = Client::connect(f1.addr()).expect("connect f1");

    let stop = AtomicBool::new(false);
    let sealed_at = std::thread::scope(|scope| {
        // The leader goes on past the promotion point.
        let writer = scope.spawn(|| ingest_until(leader.addr(), &stop, 5));
        wait_until(TIMEOUT, "F1 to start tailing", || {
            (lsn_of(&mut c1) > mark.applied_lsn + 20).then_some(())
        });
        let promoted = ok(&mut c1, "PROMOTE");
        stop.store(true, Ordering::SeqCst);
        writer.join().expect("writer thread");
        field(&promoted, "lsn").parse::<u64>().expect("seal lsn")
    });
    assert_eq!(lsn_of(&mut c1), sealed_at, "nothing replayed past the seal");
    assert!(
        lsn_of(&mut lc) > sealed_at,
        "the leader kept writing past the promotion point"
    );

    f1.shutdown().expect("f1 shutdown");
    leader.shutdown().expect("leader shutdown");
    let scan = scan_wal(&f1_wal);
    // `wal::scan` refuses a gap, so these LSNs are dense by now; pin
    // the range they cover.
    assert_eq!(scan.base_lsn, mark.applied_lsn);
    assert_eq!(scan.records.len() as u64, sealed_at - mark.applied_lsn);
    let (seal, replayed) = scan.records.split_last().expect("records");
    assert_eq!(
        (seal.lsn, &seal.op),
        (sealed_at, &Op::Seal),
        "the seal is last"
    );
    let led = scan_wal(&dir.join("leader.wal"));
    for rec in replayed {
        let theirs = led
            .records
            .iter()
            .find(|r| r.lsn == rec.lsn)
            .expect("the leader logged every replayed LSN");
        assert_eq!(
            (rec.gen_after, &rec.op),
            (theirs.gen_after, &theirs.op),
            "lsn {}",
            rec.lsn
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

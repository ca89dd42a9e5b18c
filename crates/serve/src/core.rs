//! The socket-free server core: the shared state behind the lock, its
//! counters and metric handles, and the per-connection protocol state
//! machine ([`Proto`]).
//!
//! This layer knows state, not bytes on a wire: [`Proto::service`]
//! takes the unread input and the output buffer as plain `Vec<u8>`s and
//! the clock as an argument, so everything from request framing to the
//! op-log tail can be driven deterministically with no listener. The
//! socket side lives in [`crate::conn`]; what a request *means* lives
//! in [`crate::verbs`].

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{
    Arc, Condvar, LockResult, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard,
    TryLockError, TryLockResult,
};
use std::time::{Duration, Instant};

use snorkel_incr::{DiscTrainingSet, IncrementalSession};
use snorkel_obs::{Counter, Gauge, Histogram};
use snorkel_stream::IngestGate;

use crate::frame::{self, FRAME_HEADER_BYTES, FRAME_MAGIC, MAX_FRAME_BYTES};
use crate::hotpath::{ReadScratch, SigMemo};
use crate::repl::node::Repl;
use crate::repl::ReplMark;
use crate::server::ServeConfig;
use crate::snap::{SnapError, Snapshot};
use crate::verbs::{self, Reply, Verb, VERBS};

/// One verb's handles on one wire plane.
pub(crate) struct PlaneObs {
    pub(crate) requests: Arc<Counter>,
    pub(crate) errors: Arc<Counter>,
    pub(crate) latency: Arc<Histogram>,
    /// Rows carried by batched frames (binary plane only).
    pub(crate) items: Option<Arc<Counter>>,
}

/// Pre-resolved global-registry handles for the serving layer. Resolved
/// once at server start, so the per-request path is a few relaxed
/// atomics and never touches the registry lock (and never allocates).
pub(crate) struct ServeObs {
    /// Per-verb handles, indexed like [`VERBS`]: `.0` for the text
    /// plane (`snorkel_serve_requests_total{verb}`…), `.1` for the
    /// binary plane (`snorkel_serve_frames_total{opcode}`…). A plane a
    /// verb does not exist on registers nothing.
    rows: [(Option<PlaneObs>, Option<PlaneObs>); VERBS.len()],
    pub(crate) parse_errors: Arc<Counter>,
    lock_wait_read: Arc<Histogram>,
    lock_wait_write: Arc<Histogram>,
    disc_gen_lag: Arc<Gauge>,
    memo_size: Arc<Gauge>,
    memo_generation: Arc<Gauge>,
    /// Batch sizes seen on the binary plane. The histogram's buckets
    /// are the obs crate's log₂ nanosecond buckets, so a recorded batch
    /// size N lands in the bucket labeled N×1e-9 "seconds" — the scale
    /// is nominal, the shape is what matters.
    pub(crate) batch_size: Arc<Histogram>,
    pub(crate) connections_open: Arc<Gauge>,
    pub(crate) connections_rejected: Arc<Counter>,
    /// Current depth of the bounded ingest gate (streaming plane).
    pub(crate) ingest_queue_depth: Arc<Gauge>,
    /// Ingest requests refused with `ERR backpressure` because the
    /// gate was full.
    pub(crate) backpressure: Arc<Counter>,
}

impl ServeObs {
    fn resolve() -> ServeObs {
        let r = snorkel_obs::global();
        ServeObs {
            rows: VERBS.each_ref().map(|row| {
                let text = row.text.then(|| PlaneObs {
                    requests: r.counter("snorkel_serve_requests_total", &[("verb", row.name)]),
                    errors: r.counter("snorkel_serve_errors_total", &[("verb", row.name)]),
                    latency: r.histogram("snorkel_serve_request_seconds", &[("verb", row.name)]),
                    items: None,
                });
                let op = [("opcode", row.name)];
                let frame = (row.opcode.is_some() || row.verb == Verb::Unknown).then(|| PlaneObs {
                    requests: r.counter("snorkel_serve_frames_total", &op),
                    errors: r.counter("snorkel_serve_frame_errors_total", &op),
                    latency: r.histogram("snorkel_serve_frame_seconds", &op),
                    items: Some(r.counter("snorkel_serve_batch_items_total", &op)),
                });
                (text, frame)
            }),
            parse_errors: r.counter("snorkel_serve_parse_errors_total", &[]),
            lock_wait_read: r.histogram("snorkel_serve_lock_wait_seconds", &[("lock", "read")]),
            lock_wait_write: r.histogram("snorkel_serve_lock_wait_seconds", &[("lock", "write")]),
            disc_gen_lag: r.gauge("snorkel_serve_disc_gen_lag", &[]),
            memo_size: r.gauge("snorkel_serve_memo_size", &[]),
            memo_generation: r.gauge("snorkel_serve_memo_generation", &[]),
            batch_size: r.histogram("snorkel_serve_batch_size", &[]),
            connections_open: r.gauge("snorkel_serve_connections_open", &[]),
            connections_rejected: r.counter("snorkel_serve_connections_rejected_total", &[]),
            ingest_queue_depth: r.gauge("snorkel_stream_queue_depth", &[]),
            backpressure: r.counter("snorkel_stream_backpressure_total", &[]),
        }
    }

    /// `verb`'s handles on the text (`true`) or binary plane.
    pub(crate) fn plane(&self, text: bool, verb: Verb) -> &PlaneObs {
        let (text_obs, frame_obs) = &self.rows[verb as usize];
        let plane = if text { text_obs } else { frame_obs };
        plane
            .as_ref()
            .expect("a parser only yields verbs of its own plane")
    }
}

pub(crate) struct ServeState {
    pub(crate) session: IncrementalSession,
    /// Bumped under the write lock on every successful `REFRESH`, and
    /// on every `INGEST` whose online solve or auto-refit changed the
    /// model (the posterior memo is keyed by this counter, so any
    /// weight change must advance it).
    pub(crate) generation: u64,
    /// LSN of the last op-log record applied to this state (0 until the
    /// first mutation; always 0 on a non-replicated server). Advances
    /// only under the write lock, in the same critical section as the
    /// mutation itself, so `(generation, applied_lsn)` is always a
    /// consistent pair.
    pub(crate) applied_lsn: u64,
}

/// Everything the workers, the snapshotter and the follower tail share.
pub(crate) struct Core {
    state: RwLock<ServeState>,
    /// Per-generation posterior memo ([`SigMemo`] — flat arenas + probe
    /// table; capped at [`crate::hotpath::MEMO_CAP`] signatures).
    pub(crate) memo: Mutex<SigMemo>,
    shutdown: AtomicBool,
    pub(crate) open_conns: AtomicI64,
    pub(crate) snapshot_path: Option<PathBuf>,
    /// Bounded admission for the streaming plane: an `INGEST` request
    /// holds a permit for its whole execution; a full gate refuses with
    /// `ERR backpressure` instead of queueing.
    pub(crate) ingest_gate: IngestGate,
    pub(crate) queries: AtomicU64,
    pub(crate) memo_hits: AtomicU64,
    pub(crate) refreshes: AtomicU64,
    pub(crate) snapshots_written: AtomicU64,
    /// High-water scratch-arena footprint across all workers, in bytes
    /// (the `STATS` reply's `scratch_bytes=` field; per-worker values
    /// are on the `snorkel_serve_scratch_bytes` gauge).
    pub(crate) scratch_high: AtomicU64,
    pub(crate) obs: ServeObs,
    /// The replication plane; `None` on a plain standalone server.
    pub(crate) repl: Option<Repl>,
    /// Signaled on shutdown so the auto-snapshotter exits promptly.
    tick: Mutex<()>,
    tick_cv: Condvar,
}

/// Recover a lock even if a previous holder panicked — the server keeps
/// serving (state mutations happen through `&mut` methods that either
/// complete or panic before the swap, so a poisoned lock's data is the
/// last consistent state).
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Finish a try-first lock acquisition, recovering from poison. The
/// histogram records *waits*: an uncontended `try_` acquisition records
/// nothing and never touches the clock, keeping the `MARGINAL` hot path
/// cheap; only a contended acquisition (which is already blocking) pays
/// for `Instant` and lands a sample.
fn timed<G>(fast: TryLockResult<G>, block: impl FnOnce() -> LockResult<G>, wait: &Histogram) -> G {
    match fast {
        Ok(g) => g,
        Err(TryLockError::Poisoned(e)) => e.into_inner(),
        Err(TryLockError::WouldBlock) => {
            let start = Instant::now();
            let g = block().unwrap_or_else(|e| e.into_inner());
            wait.record(start.elapsed());
            g
        }
    }
}

impl Core {
    /// A core serving `session` at the given replication position
    /// (`ReplMark::default()` on an unreplicated server).
    pub(crate) fn new(
        session: IncrementalSession,
        mark: ReplMark,
        repl: Option<Repl>,
        config: &ServeConfig,
    ) -> Core {
        Core {
            state: RwLock::new(ServeState {
                session,
                generation: mark.generation,
                applied_lsn: mark.applied_lsn,
            }),
            memo: Mutex::new(SigMemo::new()),
            shutdown: AtomicBool::new(false),
            open_conns: AtomicI64::new(0),
            snapshot_path: config.snapshot_path.clone(),
            ingest_gate: IngestGate::new(config.ingest_queue),
            queries: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            refreshes: AtomicU64::new(0),
            snapshots_written: AtomicU64::new(0),
            scratch_high: AtomicU64::new(0),
            obs: ServeObs::resolve(),
            repl,
            tick: Mutex::new(()),
            tick_cv: Condvar::new(),
        }
    }

    /// Take the state read lock, feeding `snorkel_serve_lock_wait_seconds`
    /// (see [`timed`]).
    pub(crate) fn read_state(&self) -> RwLockReadGuard<'_, ServeState> {
        let wait = &self.obs.lock_wait_read;
        timed(self.state.try_read(), || self.state.read(), wait)
    }

    /// Take the state write lock, feeding the `lock="write"` wait
    /// histogram.
    pub(crate) fn write_state(&self) -> RwLockWriteGuard<'_, ServeState> {
        let wait = &self.obs.lock_wait_write;
        timed(self.state.try_write(), || self.state.write(), wait)
    }

    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Set the shutdown flag; the nonblocking accept and worker loops
    /// poll it and exit within one backoff interval.
    pub(crate) fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.tick_cv.notify_all();
    }

    /// Park the auto-snapshotter for one interval (or until shutdown is
    /// signaled).
    pub(crate) fn wait_tick(&self, every: Duration) {
        let guard = lock_unpoisoned(&self.tick);
        let _ = self
            .tick_cv
            .wait_timeout(guard, every)
            .unwrap_or_else(|e| e.into_inner());
    }

    /// Publish the point-in-time serve gauges (memo occupancy and how
    /// far the distilled model lags the label model). Called from the
    /// `STATS` and `METRICS` handlers rather than the `MARGINAL` hot
    /// path — gauges describe state, so refreshing them at observation
    /// time is enough.
    pub(crate) fn publish_gauges(&self, state: &ServeState) {
        let lag = state
            .session
            .disc()
            .map_or(0, |d| state.generation.saturating_sub(d.generation));
        self.obs.disc_gen_lag.set(lag.min(i64::MAX as u64) as i64);
        let memo = lock_unpoisoned(&self.memo);
        self.obs.memo_size.set(memo.len() as i64);
        self.obs
            .memo_generation
            .set(memo.generation().min(i64::MAX as u64) as i64);
        self.obs
            .ingest_queue_depth
            .set(self.ingest_gate.depth().min(i64::MAX as usize) as i64);
    }

    pub(crate) fn write_snapshot(&self, path: &Path) -> Result<u64, SnapError> {
        let snapshot = {
            let state = self.read_state();
            Snapshot {
                session: state.session.freeze(),
                train: state.session.config().train.clone(),
                repl: self.repl.as_ref().map(|_| ReplMark {
                    applied_lsn: state.applied_lsn,
                    generation: state.generation,
                }),
            }
        };
        let bytes = snapshot.write_file(path)?;
        self.snapshots_written.fetch_add(1, Ordering::Relaxed);
        Ok(bytes)
    }

    /// Retrain the distilled model outside any lock, then install it
    /// under a short write hold — the second and third phase of every
    /// refresh, live or replayed.
    pub(crate) fn train_and_install(&self, set: DiscTrainingSet) {
        let (disc_state, _) = set.train();
        self.write_state().session.install_disc(disc_state);
    }

    /// Account one accepted (`+1`) or `n` closed (`-n`) connections.
    pub(crate) fn conns_changed(&self, delta: i64) {
        self.open_conns.fetch_add(delta, Ordering::Relaxed);
        self.obs.connections_open.add(delta);
    }
}

/// Longest accepted request line. Far beyond any legal request, and it
/// bounds per-connection memory against a client that streams bytes
/// without ever sending a newline (the wire-protocol counterpart of the
/// snapshot reader's length-vs-remaining validation).
const MAX_LINE_BYTES: usize = 1 << 20;

/// Push a heartbeat on an idle tail this often — the follower's
/// liveness signal (its read timeout is several multiples of this).
pub(crate) const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);

/// Stop stuffing tail records into a connection's output buffer once
/// this many bytes are pending — a slow subscriber gets flow control,
/// not an unbounded buffer.
const TAIL_PENDING_CAP: usize = 256 * 1024;

/// A granted `OP_LOG_SUBSCRIBE` on this connection: the next LSN to
/// push and when something was last sent (for heartbeat pacing).
struct Tail {
    next_lsn: u64,
    last_send: Instant,
}

/// One connection's protocol state: how it winds down (we decided to
/// close after the pending replies drain, or its input is condemned)
/// and the op-log subscription it may hold. The connection layer owns
/// the buffers and the socket; this owns what the bytes mean.
#[derive(Default)]
pub(crate) struct Proto {
    /// The connection must close once its pending output has drained.
    pub(crate) close_after_flush: bool,
    /// The connection is condemned (oversized line) but its socket
    /// keeps reading and discarding until the peer's EOF: closing with
    /// unread bytes in the receive queue would turn the close into an
    /// RST, which can destroy the very `ERR` reply the peer needs to
    /// see. The socket need not buffer what it reads meanwhile.
    pub(crate) discard_input: bool,
    /// A live `OP_LOG_SUBSCRIBE` stream, once granted: every
    /// [`Self::pump_tail`] pushes any new op-log records (and idle
    /// heartbeats) to this subscriber.
    tail: Option<Tail>,
}

impl Proto {
    /// Service every complete request sitting in `input`, in order,
    /// appending replies to `out`, and consume what was serviced. The
    /// first unread byte routes each request: [`FRAME_MAGIC`] starts a
    /// binary frame, anything else a text line — one connection may
    /// interleave both planes. `eof` says the peer has half-closed: an
    /// unterminated final line is then served as the last request, and
    /// afterwards nothing actionable remains (an unfinished frame can
    /// never complete), so the caller closes once `out` has drained.
    ///
    /// Requests are consumed through a cursor and `input` is compacted
    /// once per call, so a pipelined burst costs one memmove, not one
    /// per request.
    pub(crate) fn service(
        &mut self,
        core: &Core,
        input: &mut Vec<u8>,
        eof: bool,
        out: &mut Vec<u8>,
        now: Instant,
        scratch: &mut ReadScratch,
    ) {
        let mut pos = 0;
        while !self.discard_input && !self.close_after_flush && pos < input.len() {
            let rest = &input[pos..];
            if rest[0] == FRAME_MAGIC {
                if rest.len() < FRAME_HEADER_BYTES {
                    break; // partial header
                }
                let opcode = rest[1];
                let len = u32::from_le_bytes(rest[2..6].try_into().expect("4 header bytes"));
                if len > MAX_FRAME_BYTES {
                    core.obs.parse_errors.inc();
                    core.obs.plane(false, Verb::Unknown).errors.inc();
                    out.extend_from_slice(&frame::encode_err(&format!(
                        "frame payload {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
                    )));
                    self.close_after_flush = true;
                    break;
                }
                let total = FRAME_HEADER_BYTES + len as usize;
                if rest.len() < total {
                    break; // partial payload
                }
                let payload = &rest[FRAME_HEADER_BYTES..total];
                let held = self.tail.as_ref().map(|tail| tail.next_lsn);
                if let Some(Reply::SubAck { next, .. }) =
                    verbs::dispatch(core, Some(opcode), payload, held, scratch, out)
                {
                    self.tail = Some(Tail {
                        next_lsn: next,
                        last_send: now,
                    });
                }
                pos += total;
            } else {
                let line = match rest.iter().position(|&b| b == b'\n') {
                    Some(newline) => {
                        pos += newline + 1;
                        &rest[..newline]
                    }
                    None if rest.len() >= MAX_LINE_BYTES => {
                        // Tell the client *why* before dropping it — a
                        // silent close here is indistinguishable from a
                        // crash on the other end. Then discard the rest
                        // of the stream until the peer's EOF, so the
                        // eventual close is a clean FIN.
                        core.obs.parse_errors.inc();
                        out.extend_from_slice(b"ERR request line too long\n");
                        self.discard_input = true;
                        break;
                    }
                    None if eof => {
                        // Half-close after an unterminated line: honor
                        // it as the final request.
                        pos = input.len();
                        self.close_after_flush = true;
                        rest
                    }
                    None => break, // partial line, more bytes coming
                };
                if let Some(Reply::Bye) = verbs::dispatch(core, None, line, None, scratch, out) {
                    self.close_after_flush = true;
                }
            }
        }
        if self.discard_input {
            input.clear();
        } else {
            input.drain(..pos);
        }
    }

    /// Push new op-log records (or an idle heartbeat) to a subscribed
    /// tail, up to [`TAIL_PENDING_CAP`] pending output bytes — beyond
    /// that the subscriber is slow and backpressure wins. `sent` is how
    /// much of `out` the socket has already taken. Returns whether
    /// anything was appended.
    pub(crate) fn pump_tail(
        &mut self,
        core: &Core,
        out: &mut Vec<u8>,
        sent: usize,
        now: Instant,
    ) -> bool {
        let (Some(repl), Some(tail)) = (&core.repl, self.tail.as_mut()) else {
            return false;
        };
        let mut pushed = false;
        while out.len() - sent < TAIL_PENDING_CAP {
            let Some(body) = repl.oplog.get(tail.next_lsn) else {
                break;
            };
            frame::encode_log_record_into(&body, out);
            tail.next_lsn += 1;
            tail.last_send = now;
            pushed = true;
        }
        if !pushed && now.duration_since(tail.last_send) >= HEARTBEAT_EVERY {
            // Consistent (tip, generation) pair: both under one read
            // lock, so a heartbeat never advertises a tip from a
            // different generation than it reports.
            let (tip, gen) = {
                let state = core.read_state();
                (state.applied_lsn, state.generation)
            };
            frame::encode_heartbeat_into(tip, gen, out);
            tail.last_send = now;
            pushed = true;
        }
        pushed
    }

    /// The connection is going away: drop its subscriber registration,
    /// if it held one.
    pub(crate) fn release(&self, core: &Core) {
        if let (Some(repl), Some(_)) = (&core.repl, &self.tail) {
            repl.obs.subscribers.add(-1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::BinReply;
    use crate::protocol::LfSpec;
    use snorkel_context::{CandidateId, Corpus};
    use snorkel_incr::SessionConfig;

    /// A core over a small two-LF session, built with no listener:
    /// unreplicated, or a leader logging to a fresh WAL.
    fn test_core(replicated: bool) -> Core {
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
        let config = ServeConfig {
            wal_path: replicated.then(|| {
                let _ = std::fs::remove_file(test_wal_path());
                test_wal_path()
            }),
            ..ServeConfig::default()
        };
        let (repl, mark) = Repl::boot(&mut session, &config).expect("fresh WAL");
        Core::new(session, mark, repl, &config)
    }

    fn test_wal_path() -> PathBuf {
        std::env::temp_dir().join(format!("snorkel-core-test-{}.wal", std::process::id()))
    }

    /// Feed `chunks` to one fresh connection, servicing after each, and
    /// return everything it wrote plus its final state. `eof` applies
    /// to the last chunk.
    fn drive(core: &Core, chunks: &[&[u8]], eof: bool) -> (Vec<u8>, Proto, Vec<u8>) {
        let (mut proto, mut input, mut out) = (Proto::default(), Vec::new(), Vec::new());
        let mut scratch = ReadScratch::new();
        for (i, chunk) in chunks.iter().enumerate() {
            input.extend_from_slice(chunk);
            let last = i + 1 == chunks.len();
            let now = Instant::now();
            proto.service(core, &mut input, eof && last, &mut out, now, &mut scratch);
        }
        (out, proto, input)
    }

    /// Split a reply stream that holds only binary frames.
    fn frames(mut bytes: &[u8]) -> Vec<BinReply> {
        let mut replies = Vec::new();
        while !bytes.is_empty() {
            assert_eq!(bytes[0], FRAME_MAGIC);
            let len = u32::from_le_bytes(bytes[2..6].try_into().unwrap()) as usize;
            let (frame, rest) = bytes.split_at(FRAME_HEADER_BYTES + len);
            replies.push(frame::decode_reply(frame[1], &frame[FRAME_HEADER_BYTES..]).unwrap());
            bytes = rest;
        }
        replies
    }

    #[test]
    fn replies_do_not_depend_on_where_the_stream_is_split() {
        let core = test_core(false);
        let mut stream = Vec::new();
        stream.extend_from_slice(b"PING\n");
        stream.extend_from_slice(&frame::encode_marginal(&[(vec![0], vec![1])]));
        stream.extend_from_slice(b"MARGINAL 0:1,1:-1\n");
        stream.extend_from_slice(&frame::encode_ping());
        stream.extend_from_slice(b"NOPE\n\xff\xfe\n");
        stream.extend_from_slice(&[FRAME_MAGIC, 0x7E, 0, 0, 0, 0]);
        stream.extend_from_slice(b"APPLY 0 1 2 3 alpha causes beta\n");

        let (whole, _, rest) = drive(&core, &[&stream], false);
        assert!(rest.is_empty(), "every request was complete");
        let text = String::from_utf8_lossy(&whole);
        assert!(text.starts_with("OK pong\n"), "{text}");
        for expected in [
            "ERR unknown command \"NOPE\"\n",
            "ERR invalid utf-8\n",
            "votes=1,0 p=",
        ] {
            assert!(text.contains(expected), "{expected:?} missing from {text}");
        }
        for cut in 1..stream.len() {
            let (split, _, rest) = drive(&core, &[&stream[..cut], &stream[cut..]], false);
            assert!(rest.is_empty());
            assert_eq!(split, whole, "split at byte {cut}");
        }
    }

    #[test]
    fn oversized_frame_header_gets_one_error_frame_then_closes() {
        let core = test_core(false);
        let mut stream = vec![FRAME_MAGIC, frame::OP_MARGINAL];
        stream.extend_from_slice(&(MAX_FRAME_BYTES + 1).to_le_bytes());
        stream.extend_from_slice(b"PING\n");
        let (out, proto, _) = drive(&core, &[&stream], false);
        assert!(
            proto.close_after_flush,
            "the declared payload would never be read"
        );
        match frames(&out).as_slice() {
            [BinReply::Err { message }] => assert!(message.contains("exceeds the"), "{message}"),
            other => panic!("expected exactly one error frame, got {other:?}"),
        }
    }

    #[test]
    fn overlong_line_is_refused_then_discarded() {
        let core = test_core(false);
        let long = vec![b'A'; MAX_LINE_BYTES];
        let (out, proto, rest) = drive(&core, &[&long, b"PING\n"], false);
        assert_eq!(out, b"ERR request line too long\n");
        assert!(proto.discard_input && !proto.close_after_flush);
        assert!(rest.is_empty(), "discarded input is not buffered");
        // One byte short of the cap is still just a partial line.
        let (out, proto, rest) = drive(&core, &[&long[1..]], false);
        assert!(out.is_empty() && !proto.discard_input);
        assert_eq!(rest.len(), MAX_LINE_BYTES - 1);
    }

    #[test]
    fn eof_after_an_unterminated_line_serves_it_as_the_final_request() {
        let core = test_core(false);
        let (out, proto, rest) = drive(&core, &[b"PING\nPING"], false);
        assert_eq!(out, b"OK pong\n", "no newline, no EOF: still partial");
        assert_eq!(rest, b"PING");
        assert!(!proto.close_after_flush);
        let (out, proto, rest) = drive(&core, &[b"PING\nPING"], true);
        assert_eq!(out, b"OK pong\nOK pong\n");
        assert!(proto.close_after_flush && rest.is_empty());
    }

    #[test]
    fn tail_pushes_records_up_to_the_cap_heartbeats_on_the_clock_and_subscribes_once() {
        let core = test_core(true);
        let repl = core.repl.as_ref().expect("replicated");
        let subscribers = || repl.obs.subscribers.get();
        let before = subscribers();
        let (mut proto, mut out) = (Proto::default(), Vec::new());
        let mut scratch = ReadScratch::new();
        let t0 = Instant::now();
        let mut subscribe = |proto: &mut Proto, out: &mut Vec<u8>| {
            let mut input = frame::encode_log_subscribe(1);
            proto.service(&core, &mut input, false, out, t0, &mut scratch);
        };

        subscribe(&mut proto, &mut out);
        assert!(matches!(
            frames(&out).as_slice(),
            [BinReply::SubAck {
                next: 1,
                tip: 0,
                ..
            }]
        ));
        assert_eq!(subscribers(), before + 1);

        // A second subscribe on the same connection is refused and
        // leaves both the cursor and the gauge alone.
        out.clear();
        subscribe(&mut proto, &mut out);
        match frames(&out).as_slice() {
            [BinReply::Err { message }] => assert_eq!(message, "already subscribed at lsn 1"),
            other => panic!("expected a refusal, got {other:?}"),
        }
        assert_eq!(subscribers(), before + 1);

        // Idle and the clock has not moved: nothing to push.
        out.clear();
        assert!(!proto.pump_tail(&core, &mut out, 0, t0));
        let almost = t0 + HEARTBEAT_EVERY - Duration::from_millis(1);
        assert!(!proto.pump_tail(&core, &mut out, 0, almost));
        assert!(out.is_empty());
        // Once HEARTBEAT_EVERY has passed, exactly one heartbeat.
        let t1 = t0 + HEARTBEAT_EVERY;
        assert!(proto.pump_tail(&core, &mut out, 0, t1));
        assert!(!proto.pump_tail(&core, &mut out, 0, t1));
        assert!(matches!(
            frames(&out).as_slice(),
            [BinReply::Heartbeat { tip: 0, .. }]
        ));

        // Six 64 KiB records: the first pass stops once the pending
        // output reaches the cap; the rest follow when it has drained.
        out.clear();
        for _ in 0..6 {
            repl.oplog.append(vec![7u8; 64 * 1024].into());
        }
        assert!(proto.pump_tail(&core, &mut out, 0, t1));
        assert_eq!(frames(&out).len(), 4);
        assert!(out.len() >= TAIL_PENDING_CAP);
        assert!(
            !proto.pump_tail(&core, &mut out, 0, t1),
            "subscriber is slow"
        );
        let sent = out.len();
        assert!(proto.pump_tail(&core, &mut out, sent, t1));
        assert_eq!(frames(&out).len(), 6);

        proto.release(&core);
        assert_eq!(subscribers(), before);
        let _ = std::fs::remove_file(test_wal_path());
    }
}

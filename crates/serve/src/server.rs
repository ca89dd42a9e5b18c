//! The multithreaded TCP labeling service.
//!
//! One [`IncrementalSession`] sits behind an `RwLock`. Read requests
//! (`MARGINAL`, `APPLY`, `STATS`, `SNAPSHOT`) take the shared lock and
//! run concurrently; `REFRESH` (an LF edit plus re-label) takes the
//! exclusive lock, splices Λ via the session's `MatrixDelta` path, and
//! warm-starts training. A response is always computed against one
//! consistent model: the generation counter bumps only under the write
//! lock, so every reply is attributable to exactly the pre- or post-edit
//! state — never a torn mix. `INGEST` (streaming candidate arrival)
//! also takes the write lock, but holds it only for the Λ row splice
//! and the closed-form online moment solve — never a full re-label —
//! and its admission is bounded by an ingest gate that refuses with
//! `ERR backpressure` instead of queueing (see
//! [`ServeConfig::ingest_queue`]).
//!
//! ## Connection model
//!
//! A fixed pool of worker threads multiplexes all client sockets: the
//! accept thread sets each accepted socket nonblocking and deals it
//! round-robin to a worker's inbox, and each worker repeatedly *pumps*
//! its connections — flush pending output, read whatever bytes are
//! available, service every complete request in the buffer, flush again.
//! Nothing blocks on any one socket, so thousands of idle connections
//! cost two threads' worth of polling, not thousands of stacks, and a
//! cap ([`ServeConfig::max_connections`]) refuses excess connections
//! with `ERR busy` instead of queueing without bound. The pump services
//! every complete request it finds, so N requests pipelined in one TCP
//! segment yield N in-order replies in as little as one segment back.
//! One consequence to know about: a verb that runs long (`REFRESH`,
//! `SNAPSHOT`) occupies its worker for the duration, stalling only the
//! connections dealt to that worker — readers on other workers proceed.
//!
//! Both wire planes share one port: a first byte of
//! [`crate::frame::FRAME_MAGIC`] starts a length-prefixed
//! binary frame (see [`crate::frame`]), anything else is a text line.
//!
//! `MARGINAL` is served through a pattern-memo on top of the model
//! posterior: deployment traffic collapses onto few distinct vote
//! signatures (the same observation the `PatternIndex` exploits for
//! training), so each signature's posterior is computed once per model
//! generation and then served from the memo. Batched binary requests
//! amortize further: one read-lock acquisition and one memo pass cover
//! the whole batch.
//!
//! The batched read path is **allocation-free in the steady state**:
//! each worker owns a [`ReadScratch`] arena (reset, never freed, per
//! request), the memo is the structure-of-arrays [`SigMemo`] whose
//! lookups borrow rather than clone, and replies are encoded straight
//! into the connection's capacity-retaining output buffer. See
//! [`crate::hotpath`] and `docs/PERFORMANCE.md` for the budgets.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use snorkel_context::Corpus;
use snorkel_core::model::LabelScheme;
use snorkel_incr::IncrementalSession;
use snorkel_lf::Vote;
use snorkel_obs::{trace_level, Counter, Gauge, Histogram, TraceLevel, TraceRing};
use snorkel_stream::IngestGate;

use crate::frame::{self, FRAME_HEADER_BYTES, FRAME_MAGIC, MAX_FRAME_BYTES};
use crate::hotpath::{self, ReadScratch, SigMemo};
use crate::protocol::{format_probs, parse_request, Request, SuiteEdit};
use crate::repl::follower::{Backoff, ConnectError, TailConn, TailEvent};
use crate::repl::leader::OpLog;
use crate::repl::wal::{self, WalFile};
use crate::repl::{self, ReplMark};
use crate::snap::{SnapError, Snapshot};

/// Every wire verb, in the order `ServeObs` stores their metric
/// handles.
const VERBS: [&str; 13] = [
    "PING",
    "MARGINAL",
    "APPLY",
    "PREDICT",
    "PREDICT_TEXT",
    "INGEST",
    "REFRESH",
    "SNAPSHOT",
    "STATS",
    "METRICS",
    "SLOWLOG",
    "PROMOTE",
    "SHUTDOWN",
];

/// Binary-plane opcode labels, in the order `ServeObs` stores their
/// handles. `UNKNOWN` accounts frames whose opcode the protocol does
/// not define (they still cost a parse and a reply).
const OPCODES: [&str; 8] = [
    "PING",
    "MARGINAL",
    "PREDICT",
    "INGEST",
    "LOG_SUBSCRIBE",
    "LOG_RECORD",
    "LOG_HEARTBEAT",
    "UNKNOWN",
];

/// One verb's request-path handles.
struct VerbMetrics {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    latency: Arc<Histogram>,
}

/// One binary opcode's frame-path handles.
struct FrameMetrics {
    frames: Arc<Counter>,
    errors: Arc<Counter>,
    items: Arc<Counter>,
    latency: Arc<Histogram>,
}

/// Pre-resolved global-registry handles for the serving layer. Resolved
/// once at server start, so the per-request path is a few relaxed
/// atomics and never touches the registry lock (and never allocates).
struct ServeObs {
    verbs: [VerbMetrics; VERBS.len()],
    opcodes: [FrameMetrics; OPCODES.len()],
    parse_errors: Arc<Counter>,
    lock_wait_read: Arc<Histogram>,
    lock_wait_write: Arc<Histogram>,
    disc_gen_lag: Arc<Gauge>,
    memo_size: Arc<Gauge>,
    memo_generation: Arc<Gauge>,
    /// Batch sizes seen on the binary plane. The histogram's buckets
    /// are the obs crate's log₂ nanosecond buckets, so a recorded batch
    /// size N lands in the bucket labeled N×1e-9 "seconds" — the scale
    /// is nominal, the shape is what matters.
    batch_size: Arc<Histogram>,
    connections_open: Arc<Gauge>,
    connections_rejected: Arc<Counter>,
    /// Current depth of the bounded ingest gate (streaming plane).
    ingest_queue_depth: Arc<Gauge>,
    /// Ingest requests refused with `ERR backpressure` because the
    /// gate was full.
    backpressure: Arc<Counter>,
}

impl ServeObs {
    fn resolve() -> ServeObs {
        let r = snorkel_obs::global();
        ServeObs {
            verbs: VERBS.map(|verb| VerbMetrics {
                requests: r.counter("snorkel_serve_requests_total", &[("verb", verb)]),
                errors: r.counter("snorkel_serve_errors_total", &[("verb", verb)]),
                latency: r.histogram("snorkel_serve_request_seconds", &[("verb", verb)]),
            }),
            opcodes: OPCODES.map(|op| FrameMetrics {
                frames: r.counter("snorkel_serve_frames_total", &[("opcode", op)]),
                errors: r.counter("snorkel_serve_frame_errors_total", &[("opcode", op)]),
                items: r.counter("snorkel_serve_batch_items_total", &[("opcode", op)]),
                latency: r.histogram("snorkel_serve_frame_seconds", &[("opcode", op)]),
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

    fn verb(&self, verb: &'static str) -> &VerbMetrics {
        let idx = VERBS
            .iter()
            .position(|&v| std::ptr::eq(v.as_ptr(), verb.as_ptr()) || v == verb)
            .expect("every Request::verb() value is in VERBS");
        &self.verbs[idx]
    }

    fn opcode(&self, name: &'static str) -> &FrameMetrics {
        let idx = OPCODES
            .iter()
            .position(|&v| std::ptr::eq(v.as_ptr(), name.as_ptr()) || v == name)
            .expect("every opcode label is in OPCODES");
        &self.opcodes[idx]
    }
}

/// Pre-resolved handles for the replication plane (documented in
/// `docs/OBSERVABILITY.md`, spec in `docs/REPLICATION.md`).
struct ReplObs {
    /// Records appended to the on-disk WAL.
    wal_records: Arc<Counter>,
    /// Framed bytes appended to the on-disk WAL.
    wal_bytes: Arc<Counter>,
    /// WAL appends that failed (serving continues on the in-memory log;
    /// durability is degraded until the next snapshot).
    wal_append_errors: Arc<Counter>,
    /// Ops a follower replayed from its leader's live tail.
    ops_replayed: Arc<Counter>,
    /// Replay failures (bad record, LSN gap, divergence) — each one
    /// halts the tail permanently; the follower keeps serving its last
    /// consistent state.
    replay_errors: Arc<Counter>,
    /// Successful (re)subscriptions to the leader.
    reconnects: Arc<Counter>,
    /// Heartbeats received from the leader while the log was idle.
    heartbeats: Arc<Counter>,
    /// Last LSN applied to this server's state.
    applied_lsn: Arc<Gauge>,
    /// Leader tip minus follower applied LSN, sampled at each heartbeat.
    lag_records: Arc<Gauge>,
    /// Live `OP_LOG_SUBSCRIBE` streams on this server.
    subscribers: Arc<Gauge>,
}

impl ReplObs {
    fn resolve() -> ReplObs {
        let r = snorkel_obs::global();
        ReplObs {
            wal_records: r.counter("snorkel_repl_wal_records_total", &[]),
            wal_bytes: r.counter("snorkel_repl_wal_bytes_total", &[]),
            wal_append_errors: r.counter("snorkel_repl_wal_append_errors_total", &[]),
            ops_replayed: r.counter("snorkel_repl_ops_replayed_total", &[]),
            replay_errors: r.counter("snorkel_repl_replay_errors_total", &[]),
            reconnects: r.counter("snorkel_repl_reconnects_total", &[]),
            heartbeats: r.counter("snorkel_repl_heartbeats_total", &[]),
            applied_lsn: r.gauge("snorkel_repl_applied_lsn", &[]),
            lag_records: r.gauge("snorkel_repl_lag_records", &[]),
            subscribers: r.gauge("snorkel_repl_subscribers", &[]),
        }
    }
}

/// `Repl::role` values.
const ROLE_LEADER: u8 = 0;
const ROLE_FOLLOWER: u8 = 1;

/// The replication plane: present iff the server was started with a WAL
/// path or a leader address ([`ServeConfig::wal_path`] /
/// [`ServeConfig::follow`]).
struct Repl {
    /// In-memory op log since the boot snapshot — what subscribers tail.
    oplog: OpLog,
    /// On-disk WAL, when configured. Appends happen under the state
    /// write lock, which also serializes LSN assignment.
    wal: Option<Mutex<WalFile>>,
    /// Leader address this server tails, when started as a follower.
    follow: Option<String>,
    /// [`ROLE_LEADER`] or [`ROLE_FOLLOWER`]; flipped (once) by
    /// `PROMOTE`.
    role: AtomicU8,
    /// Set by `PROMOTE` to stop the tail thread; checked under the
    /// write lock so no replayed record can land after the seal.
    tail_stop: AtomicBool,
    obs: ReplObs,
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see
    /// [`LabelServer::addr`]).
    pub addr: String,
    /// Default snapshot target — `SNAPSHOT` without a path, the
    /// periodic auto-snapshot, and the final snapshot on graceful
    /// shutdown all write here.
    pub snapshot_path: Option<PathBuf>,
    /// Write a snapshot this often (requires `snapshot_path`).
    pub auto_snapshot: Option<Duration>,
    /// Worker threads multiplexing the client sockets. `0` (the
    /// default) sizes to the machine: one per available core, clamped
    /// to 2..=8.
    pub workers: usize,
    /// Most sockets served at once. A connection over the cap is
    /// refused immediately with `ERR busy` — never queued — so an
    /// overload sheds load visibly (`snorkel_serve_connections_rejected_total`)
    /// instead of accumulating threads or latency.
    pub max_connections: usize,
    /// Most `INGEST` requests admitted at once (the streaming plane's
    /// bounded queue). A request over the cap is refused immediately
    /// with `ERR backpressure` (text) or a `STATUS_ERR` frame (binary)
    /// — never queued — and counted on
    /// `snorkel_stream_backpressure_total`. `0` refuses all ingest
    /// (drain mode).
    pub ingest_queue: usize,
    /// Tail this leader address as a read-only follower: bootstrap from
    /// the resumed snapshot (see [`Self::repl_mark`]), subscribe over
    /// `OP_LOG_SUBSCRIBE`, and replay every op. Mutating verbs are
    /// refused with `ERR readonly` until a `PROMOTE`.
    pub follow: Option<String>,
    /// Append every mutating op to this write-ahead log. On start an
    /// existing file is recovered: its torn tail (if any) is truncated
    /// and every record past [`Self::repl_mark`] is replayed.
    pub wal_path: Option<PathBuf>,
    /// Replication position of the resumed snapshot (its `REPL`
    /// section). `None` means the state predates the log origin — LSN
    /// and generation both start at the mark's defaults (zero).
    pub repl_mark: Option<ReplMark>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            snapshot_path: None,
            auto_snapshot: None,
            workers: 0,
            max_connections: 1024,
            ingest_queue: 16,
            follow: None,
            wal_path: None,
            repl_mark: None,
        }
    }
}

struct ServeState {
    session: IncrementalSession,
    /// Bumped under the write lock on every successful `REFRESH`, and
    /// on every `INGEST` whose online solve or auto-refit changed the
    /// model (the posterior memo is keyed by this counter, so any
    /// weight change must advance it).
    generation: u64,
    /// LSN of the last op-log record applied to this state (0 until the
    /// first mutation; always 0 on a non-replicated server). Advances
    /// only under the write lock, in the same critical section as the
    /// mutation itself, so `(generation, applied_lsn)` is always a
    /// consistent pair.
    applied_lsn: u64,
}

struct Inner {
    state: RwLock<ServeState>,
    /// Per-generation posterior memo ([`SigMemo`] — flat arenas + probe
    /// table; capped at [`hotpath::MEMO_CAP`] signatures).
    memo: Mutex<SigMemo>,
    shutdown: AtomicBool,
    addr: SocketAddr,
    /// One inbox per worker; the accept thread deals accepted sockets
    /// round-robin and each worker adopts its inbox every pass.
    inboxes: Vec<Mutex<Vec<TcpStream>>>,
    open_conns: AtomicU64,
    max_conns: usize,
    snapshot_path: Option<PathBuf>,
    /// Bounded admission for the streaming plane: an `INGEST` request
    /// holds a permit for its whole execution; a full gate refuses with
    /// `ERR backpressure` instead of queueing.
    ingest_gate: IngestGate,
    queries: AtomicU64,
    memo_hits: AtomicU64,
    refreshes: AtomicU64,
    snapshots_written: AtomicU64,
    /// High-water scratch-arena footprint across all workers, in bytes
    /// (the `STATS` reply's `scratch_bytes=` field; per-worker values
    /// are on the `snorkel_serve_scratch_bytes` gauge).
    scratch_high: AtomicU64,
    obs: ServeObs,
    /// The replication plane; `None` on a plain standalone server.
    repl: Option<Repl>,
    /// Signaled on shutdown so the auto-snapshotter exits promptly.
    tick: Mutex<()>,
    tick_cv: Condvar,
}

/// Handle to a running labeling server. Dropping the handle does *not*
/// stop the server; call [`Self::shutdown`] (or send `SHUTDOWN` over the
/// wire and then [`Self::wait`]).
pub struct LabelServer {
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    snapshotter: Option<JoinHandle<()>>,
    tail: Option<JoinHandle<()>>,
}

impl LabelServer {
    /// Bind and start serving `session`. Returns once the listener is
    /// accepting.
    ///
    /// When replication is configured ([`ServeConfig::wal_path`] /
    /// [`ServeConfig::follow`]), the generation and LSN counters resume
    /// from [`ServeConfig::repl_mark`], an existing WAL is recovered
    /// (torn tail truncated, records past the mark replayed through the
    /// same entry points live traffic uses), and — in follower mode —
    /// the tail thread subscribes to the leader before the listener
    /// starts answering. A WAL that contradicts the snapshot mark is a
    /// startup error, never a silent partial replay.
    pub fn start(
        mut session: IncrementalSession,
        config: ServeConfig,
    ) -> std::io::Result<LabelServer> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let worker_count = if config.workers == 0 {
            std::thread::available_parallelism()
                .map_or(4, std::num::NonZeroUsize::get)
                .clamp(2, 8)
        } else {
            config.workers
        };
        let replicated = config.wal_path.is_some() || config.follow.is_some();
        let mark = config.repl_mark.unwrap_or_default();
        let mut generation = if replicated { mark.generation } else { 0 };
        let mut applied_lsn = if replicated { mark.applied_lsn } else { 0 };
        let repl = if replicated {
            let (wal_file, oplog) = match &config.wal_path {
                Some(path) => {
                    let (wal_file, oplog) =
                        recover_wal(&mut session, &mut generation, &mut applied_lsn, path, mark)?;
                    (Some(wal_file), oplog)
                }
                None => (None, OpLog::new(mark.applied_lsn)),
            };
            let obs = ReplObs::resolve();
            obs.applied_lsn.set(applied_lsn.min(i64::MAX as u64) as i64);
            Some(Repl {
                oplog,
                wal: wal_file.map(Mutex::new),
                follow: config.follow.clone(),
                role: AtomicU8::new(if config.follow.is_some() {
                    ROLE_FOLLOWER
                } else {
                    ROLE_LEADER
                }),
                tail_stop: AtomicBool::new(false),
                obs,
            })
        } else {
            None
        };
        let inner = Arc::new(Inner {
            state: RwLock::new(ServeState {
                session,
                generation,
                applied_lsn,
            }),
            memo: Mutex::new(SigMemo::new()),
            shutdown: AtomicBool::new(false),
            addr,
            inboxes: (0..worker_count).map(|_| Mutex::new(Vec::new())).collect(),
            open_conns: AtomicU64::new(0),
            max_conns: config.max_connections.max(1),
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
        });

        let accept_inner = Arc::clone(&inner);
        let accept = std::thread::spawn(move || accept_loop(&accept_inner, &listener));

        let workers = (0..worker_count)
            .map(|idx| {
                let worker_inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&worker_inner, idx))
            })
            .collect();

        let snapshotter = match (config.auto_snapshot, &inner.snapshot_path) {
            (Some(every), Some(path)) => {
                let snap_inner = Arc::clone(&inner);
                let path = path.clone();
                Some(std::thread::spawn(move || loop {
                    let guard = lock_unpoisoned(&snap_inner.tick);
                    let (_g, _timeout) = snap_inner
                        .tick_cv
                        .wait_timeout(guard, every)
                        .unwrap_or_else(|e| e.into_inner());
                    if snap_inner.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let _ = write_snapshot(&snap_inner, &path);
                }))
            }
            _ => None,
        };

        let tail = if inner
            .repl
            .as_ref()
            .is_some_and(|repl| repl.follow.is_some())
        {
            let tail_inner = Arc::clone(&inner);
            Some(std::thread::spawn(move || follower_loop(&tail_inner)))
        } else {
            None
        };

        Ok(LabelServer {
            inner,
            accept: Some(accept),
            workers,
            snapshotter,
            tail,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Block until the server has fully stopped: the accept loop exited
    /// (a `SHUTDOWN` request arrived, or [`Self::shutdown`] was called
    /// from another thread) and every connection drained. Writes a final
    /// snapshot when a snapshot path is configured.
    pub fn wait(mut self) -> Result<(), SnapError> {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.tail.take() {
            let _ = h.join();
        }
        if let Some(h) = self.snapshotter.take() {
            self.inner.tick_cv.notify_all();
            let _ = h.join();
        }
        if let Some(path) = self.inner.snapshot_path.clone() {
            write_snapshot(&self.inner, &path)?;
            // Final metrics dump next to the final snapshot: counters die
            // with the process, so this exposition is the only record of
            // the run once the server is gone.
            {
                let state = read_state(&self.inner);
                publish_serve_gauges(&self.inner, &state);
            }
            let mut metrics_path = path.into_os_string();
            metrics_path.push(".metrics");
            let _ = std::fs::write(PathBuf::from(metrics_path), snorkel_obs::global().expose());
        }
        Ok(())
    }

    /// Trigger a graceful stop and block until drained (see
    /// [`Self::wait`]).
    pub fn shutdown(self) -> Result<(), SnapError> {
        trigger_shutdown(&self.inner);
        self.wait()
    }
}

/// Set the shutdown flag; the nonblocking accept and worker loops poll
/// it and exit within one backoff interval.
fn trigger_shutdown(inner: &Inner) {
    inner.shutdown.store(true, Ordering::SeqCst);
    inner.tick_cv.notify_all();
}

/// Nonblocking accept loop: enforce the connection cap, configure the
/// socket, deal it to a worker. Runs until the shutdown flag is set.
fn accept_loop(inner: &Inner, listener: &TcpListener) {
    let mut next_worker = 0usize;
    loop {
        if inner.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((mut stream, _peer)) => {
                if inner.open_conns.load(Ordering::Relaxed) >= inner.max_conns as u64 {
                    // Refuse, never queue: the client gets a reply it
                    // can parse, the gauge stays honest, and no memory
                    // accrues per rejected connection. The accepted
                    // socket is still blocking here (accept does not
                    // inherit the listener's nonblocking flag), so this
                    // one-line write goes out before the drop closes it.
                    inner.obs.connections_rejected.inc();
                    let _ = stream.set_nodelay(true);
                    let _ = stream.write_all(b"ERR busy\n");
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                inner.open_conns.fetch_add(1, Ordering::Relaxed);
                inner.obs.connections_open.add(1);
                let idx = next_worker % inner.inboxes.len();
                next_worker = next_worker.wrapping_add(1);
                lock_unpoisoned(&inner.inboxes[idx]).push(stream);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    }
}

/// Consecutive empty passes a worker spins (yielding) before switching
/// to sleeping between passes.
const IDLE_SPINS: u32 = 16;

/// How long an idle worker sleeps between passes once past
/// [`IDLE_SPINS`] — the ceiling on added latency for a request arriving
/// at an idle server.
const IDLE_SLEEP: Duration = Duration::from_micros(200);

/// Worker-label values for the `snorkel_serve_scratch_bytes` gauge
/// (static strings — gauge resolution wants `'static` label values).
/// Workers beyond the table share the last label; the default pool is
/// clamped to 8 anyway.
const WORKER_LABELS: [&str; 16] = [
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
];

/// One worker: adopt inbox sockets, pump every connection, back off
/// when nothing moved. Exits when the shutdown flag is set, after a
/// best-effort flush of pending replies (so the client that sent
/// `SHUTDOWN` sees its `OK bye`).
///
/// The worker owns its [`ReadScratch`] arena: every request it
/// services decodes into and computes out of these buffers, which grow
/// to the worker's traffic high-water mark and are then reused
/// allocation-free. The high water is published on the per-worker
/// `snorkel_serve_scratch_bytes` gauge whenever it moves.
fn worker_loop(inner: &Inner, idx: usize) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = ReadScratch::new();
    let scratch_gauge = snorkel_obs::global().gauge(
        "snorkel_serve_scratch_bytes",
        &[("worker", WORKER_LABELS[idx.min(WORKER_LABELS.len() - 1)])],
    );
    let mut scratch_bytes = 0u64;
    let mut idle = 0u32;
    loop {
        {
            let mut inbox = lock_unpoisoned(&inner.inboxes[idx]);
            conns.extend(inbox.drain(..).map(Conn::new));
        }
        if inner.shutdown.load(Ordering::SeqCst) {
            for conn in &mut conns {
                conn.final_flush();
                release_tail(inner, conn);
            }
            release_conns(inner, conns.len());
            return;
        }
        let mut progressed = false;
        conns.retain_mut(|conn| {
            let pump = conn.pump(inner, &mut scratch);
            progressed |= pump.progressed;
            if !pump.keep {
                release_conns(inner, 1);
                release_tail(inner, conn);
            }
            pump.keep
        });
        if progressed {
            idle = 0;
            let bytes = scratch.bytes() as u64;
            if bytes != scratch_bytes {
                scratch_bytes = bytes;
                scratch_gauge.set(bytes.min(i64::MAX as u64) as i64);
                inner.scratch_high.fetch_max(bytes, Ordering::Relaxed);
            }
        } else {
            idle = idle.saturating_add(1);
            if idle < IDLE_SPINS {
                std::thread::yield_now();
            } else {
                std::thread::sleep(IDLE_SLEEP);
            }
        }
    }
}

fn release_conns(inner: &Inner, n: usize) {
    if n > 0 {
        inner.open_conns.fetch_sub(n as u64, Ordering::Relaxed);
        inner.obs.connections_open.add(-(n as i64));
    }
}

/// Drop a closing connection's subscriber registration, if it held one.
fn release_tail(inner: &Inner, conn: &Conn) {
    if conn.tail.is_some() {
        if let Some(repl) = &inner.repl {
            repl.obs.subscribers.add(-1);
        }
    }
}

/// Longest accepted request line. Far beyond any legal request, and it
/// bounds per-connection memory against a client that streams bytes
/// without ever sending a newline (the wire-protocol counterpart of the
/// snapshot reader's length-vs-remaining validation).
const MAX_LINE_BYTES: usize = 1 << 20;

/// Most bytes one pump reads from one socket before servicing what it
/// has — keeps a fire-hosing client from starving its worker's other
/// connections.
const READ_BUDGET: usize = 256 * 1024;

struct PumpResult {
    keep: bool,
    progressed: bool,
}

/// Push a heartbeat on an idle tail this often — the follower's
/// liveness signal (its read timeout is several multiples of this).
const HEARTBEAT_EVERY: Duration = Duration::from_millis(200);

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

/// One multiplexed connection: unread request bytes, unwritten reply
/// bytes, and the two ways it winds down (we decided to close after the
/// pending replies drain, or the peer half-closed and we finish what's
/// buffered).
struct Conn {
    stream: TcpStream,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    outpos: usize,
    close_after_flush: bool,
    /// The connection is condemned (oversized line) but we keep
    /// reading and discarding until the peer's EOF: closing with
    /// unread bytes in the receive queue would turn the close into an
    /// RST, which can destroy the very `ERR` reply the peer needs to
    /// see.
    discard_input: bool,
    saw_eof: bool,
    /// A live `OP_LOG_SUBSCRIBE` stream, once granted: every pump pass
    /// pushes any new op-log records (and idle heartbeats) to this
    /// subscriber.
    tail: Option<Tail>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            close_after_flush: false,
            discard_input: false,
            saw_eof: false,
            tail: None,
        }
    }

    fn fully_flushed(&self) -> bool {
        self.outpos == self.outbuf.len()
    }

    /// Write as much pending output as the socket will take right now.
    /// Returns bytes written; `Err` only on a hard socket error.
    fn flush_pending(&mut self) -> std::io::Result<usize> {
        let mut written = 0;
        while self.outpos < self.outbuf.len() {
            match self.stream.write(&self.outbuf[self.outpos..]) {
                Ok(0) => return Err(std::io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.outpos += n;
                    written += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        if self.fully_flushed() {
            self.outbuf.clear();
            self.outpos = 0;
        }
        Ok(written)
    }

    /// Bounded best-effort drain on shutdown: retry `WouldBlock` briefly
    /// so the final replies (`OK bye`) reach the peer, but never wedge
    /// the worker on a stalled client.
    fn final_flush(&mut self) {
        for _ in 0..50 {
            match self.flush_pending() {
                Ok(_) if self.fully_flushed() => return,
                Ok(_) => std::thread::sleep(Duration::from_millis(1)),
                Err(_) => return,
            }
        }
    }

    /// One scheduling quantum for this connection: flush, read, service
    /// complete requests, flush. Returns whether to keep the connection
    /// and whether any bytes moved (the worker's idle detector).
    fn pump(&mut self, inner: &Inner, scratch: &mut ReadScratch) -> PumpResult {
        let closed = |progressed| PumpResult {
            keep: false,
            progressed,
        };
        let mut progressed = false;
        match self.flush_pending() {
            Ok(n) => progressed |= n > 0,
            Err(_) => return closed(true),
        }
        if self.close_after_flush {
            return PumpResult {
                keep: !self.fully_flushed(),
                progressed,
            };
        }
        if !self.saw_eof {
            let mut chunk = [0u8; 16 * 1024];
            let mut budget = READ_BUDGET;
            while budget > 0 {
                match self.stream.read(&mut chunk) {
                    Ok(0) => {
                        self.saw_eof = true;
                        break;
                    }
                    Ok(n) => {
                        if !self.discard_input {
                            self.inbuf.extend_from_slice(&chunk[..n]);
                        }
                        progressed = true;
                        budget = budget.saturating_sub(n);
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => return closed(true),
                }
            }
        }
        self.service(inner, scratch);
        progressed |= self.pump_tail(inner);
        match self.flush_pending() {
            Ok(n) => progressed |= n > 0,
            Err(_) => return closed(true),
        }
        if self.fully_flushed() {
            if self.close_after_flush {
                return closed(progressed);
            }
            // Peer half-closed and nothing actionable remains (an
            // unfinished binary frame can never complete without more
            // bytes; `service` already handled a trailing text line).
            if self.saw_eof && (self.inbuf.is_empty() || self.inbuf[0] == FRAME_MAGIC) {
                return closed(progressed);
            }
        }
        PumpResult {
            keep: true,
            progressed,
        }
    }

    /// Push new op-log records (or an idle heartbeat) to a subscribed
    /// tail, up to [`TAIL_PENDING_CAP`] pending output bytes — beyond
    /// that the subscriber is slow and backpressure wins. Returns
    /// whether anything was appended.
    fn pump_tail(&mut self, inner: &Inner) -> bool {
        let Some(repl) = &inner.repl else {
            return false;
        };
        let Some(tail) = self.tail.as_mut() else {
            return false;
        };
        let mut pushed = false;
        while self.outbuf.len() - self.outpos < TAIL_PENDING_CAP {
            let Some(body) = repl.oplog.get(tail.next_lsn) else {
                break;
            };
            frame::encode_log_record_into(&body, &mut self.outbuf);
            tail.next_lsn += 1;
            tail.last_send = Instant::now();
            pushed = true;
        }
        if !pushed && tail.last_send.elapsed() >= HEARTBEAT_EVERY {
            // Consistent (tip, generation) pair: both under one read
            // lock, so a heartbeat never advertises a tip from a
            // different generation than it reports.
            let (tip, gen) = {
                let state = read_state(inner);
                (state.applied_lsn, state.generation)
            };
            frame::encode_heartbeat_into(tip, gen, &mut self.outbuf);
            tail.last_send = Instant::now();
            pushed = true;
        }
        pushed
    }

    /// Service every complete request sitting in `inbuf`, in order,
    /// appending replies to `outbuf`. The first unread byte routes each
    /// request: [`FRAME_MAGIC`] starts a binary frame, anything else a
    /// text line — one connection may interleave both planes.
    fn service(&mut self, inner: &Inner, scratch: &mut ReadScratch) {
        loop {
            if self.discard_input {
                self.inbuf.clear();
                return;
            }
            if self.close_after_flush || self.inbuf.is_empty() {
                return;
            }
            if self.inbuf[0] == FRAME_MAGIC {
                if self.inbuf.len() < FRAME_HEADER_BYTES {
                    return; // partial header
                }
                let opcode = self.inbuf[1];
                let len = u32::from_le_bytes(self.inbuf[2..6].try_into().expect("4 header bytes"));
                if len > MAX_FRAME_BYTES {
                    inner.obs.parse_errors.inc();
                    inner.obs.opcode("UNKNOWN").errors.inc();
                    self.outbuf.extend_from_slice(&frame::encode_err(&format!(
                        "frame payload {len} exceeds the {MAX_FRAME_BYTES}-byte cap"
                    )));
                    self.close_after_flush = true;
                    return;
                }
                let total = FRAME_HEADER_BYTES + len as usize;
                if self.inbuf.len() < total {
                    return; // partial payload
                }
                if let Some(next) = handle_frame(
                    inner,
                    opcode,
                    &self.inbuf[FRAME_HEADER_BYTES..total],
                    scratch,
                    &mut self.outbuf,
                ) {
                    self.tail = Some(Tail {
                        next_lsn: next,
                        last_send: Instant::now(),
                    });
                }
                self.inbuf.drain(..total);
            } else {
                match self.inbuf.iter().position(|&b| b == b'\n') {
                    Some(pos) => {
                        let keep_open =
                            handle_text_line(inner, &self.inbuf[..pos], &mut self.outbuf, scratch);
                        self.inbuf.drain(..=pos);
                        if !keep_open {
                            self.close_after_flush = true;
                        }
                    }
                    None if self.inbuf.len() >= MAX_LINE_BYTES => {
                        // Tell the client *why* before dropping it — a
                        // silent close here is indistinguishable from a
                        // crash on the other end. Then discard the rest
                        // of the stream until the peer's EOF, so the
                        // eventual close is a clean FIN.
                        inner.obs.parse_errors.inc();
                        self.outbuf
                            .extend_from_slice(b"ERR request line too long\n");
                        self.discard_input = true;
                        self.inbuf.clear();
                        return;
                    }
                    None if self.saw_eof => {
                        // Half-close after an unterminated line: honor
                        // it as the final request.
                        let line = std::mem::take(&mut self.inbuf);
                        handle_text_line(inner, &line, &mut self.outbuf, scratch);
                        self.close_after_flush = true;
                        return;
                    }
                    None => return, // partial line, more bytes coming
                }
            }
        }
    }
}

/// Parse and execute one text request line (without its newline),
/// appending the reply line(s) to `out`. Returns `false` when the
/// connection must close after the reply flushes (`SHUTDOWN`).
fn handle_text_line(
    inner: &Inner,
    bytes: &[u8],
    out: &mut Vec<u8>,
    scratch: &mut ReadScratch,
) -> bool {
    let Ok(text) = std::str::from_utf8(bytes) else {
        // Reject rather than substitute U+FFFD: a mangled APPLY or
        // REFRESH spec must not reach the session looking legitimate.
        inner.obs.parse_errors.inc();
        out.extend_from_slice(b"ERR invalid utf-8\n");
        return true;
    };
    let response = match parse_request(text) {
        Err(e) => {
            inner.obs.parse_errors.inc();
            format!("ERR {e}")
        }
        Ok(req) => {
            // Per-verb accounting: latency into the verb's histogram
            // and the trace ring (SLOWLOG), counts per verb. Handles
            // were resolved at server start, so nothing here allocates
            // or locks the registry; timing is inlined (rather than a
            // `Span`, which would clone an `Arc` per request) to keep
            // the read path under its overhead budget.
            let verb = req.verb();
            let vm = inner.obs.verb(verb);
            vm.requests.inc();
            let start = Instant::now();
            if matches!(req, Request::Shutdown) {
                out.extend_from_slice(b"OK bye\n");
                record_request(vm, verb, start);
                trigger_shutdown(inner);
                return false;
            }
            let response = handle_request(inner, req, scratch);
            record_request(vm, verb, start);
            if response.starts_with("ERR") {
                vm.errors.inc();
            }
            response
        }
    };
    // METRICS/SLOWLOG responses embed payload newlines; the header
    // line's `lines=<k>` tells clients how much follows.
    out.extend_from_slice(response.as_bytes());
    out.push(b'\n');
    true
}

/// Decode and execute one binary frame, appending the encoded reply to
/// `out`. A batch is atomic: any invalid row fails the whole frame
/// with one error frame. Returns `Some(next_lsn)` when the frame was a
/// granted `OP_LOG_SUBSCRIBE` — the caller installs the tail on the
/// connection.
///
/// This is the allocation-free path: requests decode into the worker's
/// scratch arenas, posteriors are computed through the `*_into`
/// kernels, and OK replies for the batched verbs are encoded straight
/// into `out` (the connection's capacity-retaining output buffer). The
/// error branches still allocate — they are off the steady-state path
/// by definition.
fn handle_frame(
    inner: &Inner,
    opcode: u8,
    payload: &[u8],
    scratch: &mut ReadScratch,
    out: &mut Vec<u8>,
) -> Option<u64> {
    let Some(name) = frame::opcode_name(opcode) else {
        inner.obs.parse_errors.inc();
        let fm = inner.obs.opcode("UNKNOWN");
        fm.frames.inc();
        fm.errors.inc();
        out.extend_from_slice(&frame::encode_err(&format!(
            "unknown opcode 0x{opcode:02x}"
        )));
        return None;
    };
    let fm = inner.obs.opcode(name);
    fm.frames.inc();
    let start = Instant::now();
    let mut granted = None;
    // `Err((message, is_parse_error))`: a malformed frame counts
    // against `snorkel_serve_parse_errors_total`, a well-formed one
    // rejected by the session does not — the same split the owned
    // decode path kept.
    let result: Result<(), (String, bool)> = match opcode {
        frame::OP_PING => {
            if payload.is_empty() {
                let gen = read_state(inner).generation;
                out.extend_from_slice(&frame::encode_pong(gen));
                Ok(())
            } else {
                Err((format!("{} trailing bytes in frame", payload.len()), true))
            }
        }
        frame::OP_MARGINAL => match hotpath::decode_marginal(payload, scratch) {
            Err(e) => Err((e, true)),
            Ok(rows) => {
                fm.items.add(rows as u64);
                inner.obs.batch_size.record_ns(rows as u64);
                inner.queries.fetch_add(rows as u64, Ordering::Relaxed);
                let state = read_state(inner);
                match hotpath::compute_marginal(
                    &state.session,
                    state.generation,
                    &inner.memo,
                    scratch,
                ) {
                    Err(e) => Err((e, false)),
                    Ok(outcome) => {
                        inner
                            .memo_hits
                            .fetch_add(outcome.memo_hits, Ordering::Relaxed);
                        frame::encode_marginal_reply_flat_into(
                            state.generation,
                            scratch.probs(),
                            outcome.width,
                            out,
                        );
                        Ok(())
                    }
                }
            }
        },
        frame::OP_PREDICT => match hotpath::decode_predict(payload, scratch) {
            Err(e) => Err((e, true)),
            Ok(rows) => {
                fm.items.add(rows as u64);
                inner.obs.batch_size.record_ns(rows as u64);
                inner.queries.fetch_add(rows as u64, Ordering::Relaxed);
                let state = read_state(inner);
                match hotpath::compute_predict(&state.session, payload, scratch) {
                    Err(e) => Err((e, false)),
                    Ok(outcome) => {
                        frame::encode_predict_reply_flat_into(
                            state.generation,
                            outcome.disc_gen,
                            scratch.probs(),
                            outcome.width,
                            out,
                        );
                        Ok(())
                    }
                }
            }
        },
        frame::OP_INGEST => match frame::decode_request(opcode, payload) {
            Err(e) => Err((e, true)),
            Ok(frame::BinRequest::Ingest(rows)) => {
                fm.items.add(rows.len() as u64);
                inner.obs.batch_size.record_ns(rows.len() as u64);
                match handle_ingest_core(inner, &rows) {
                    Err(e) => Err((e, false)),
                    Ok(s) => {
                        out.extend_from_slice(&frame::encode_ingest_reply(
                            s.gen,
                            s.rows,
                            s.total,
                            s.online,
                            s.drift_score,
                            s.auto_refit,
                        ));
                        Ok(())
                    }
                }
            }
            Ok(_) => unreachable!("OP_INGEST decodes to BinRequest::Ingest"),
        },
        frame::OP_LOG_SUBSCRIBE => match frame::decode_request(opcode, payload) {
            Err(e) => Err((e, true)),
            Ok(frame::BinRequest::LogSubscribe { from }) => match subscribe_grant(inner, from) {
                Ok((next, tip, gen)) => {
                    out.extend_from_slice(&frame::encode_sub_ack(next, tip, gen));
                    granted = Some(next);
                    Ok(())
                }
                Err(e) => Err((e, false)),
            },
            Ok(_) => unreachable!("OP_LOG_SUBSCRIBE decodes to BinRequest::LogSubscribe"),
        },
        frame::OP_LOG_RECORD | frame::OP_LOG_HEARTBEAT => Err((
            format!("opcode 0x{opcode:02x} is server-push only, not a request"),
            true,
        )),
        _ => unreachable!("opcode_name covered every defined opcode"),
    };
    if let Err((e, is_parse_error)) = result {
        if is_parse_error {
            inner.obs.parse_errors.inc();
        }
        fm.errors.inc();
        out.extend_from_slice(&frame::encode_err(&e));
    }
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    fm.latency.record_ns(ns);
    if trace_level() >= TraceLevel::Info {
        TraceRing::global().record(name, ns);
    }
    granted
}

/// Recover a lock even if a previous holder panicked — the server keeps
/// serving (state mutations happen through `&mut` methods that either
/// complete or panic before the swap, so a poisoned lock's data is the
/// last consistent state).
fn lock_unpoisoned<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn read_unpoisoned<'a, T>(l: &'a RwLock<T>) -> std::sync::RwLockReadGuard<'a, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_unpoisoned<'a, T>(l: &'a RwLock<T>) -> std::sync::RwLockWriteGuard<'a, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// Take the state read lock, feeding `snorkel_serve_lock_wait_seconds`.
/// The histogram records *waits*: an uncontended `try_read` acquisition
/// records nothing and never touches the clock, keeping the `MARGINAL`
/// hot path cheap; only a contended acquisition (which is already
/// blocking) pays for `Instant` and lands a sample.
fn read_state<'a>(inner: &'a Inner) -> std::sync::RwLockReadGuard<'a, ServeState> {
    match inner.state.try_read() {
        Ok(g) => g,
        Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
        Err(std::sync::TryLockError::WouldBlock) => {
            let start = Instant::now();
            let g = read_unpoisoned(&inner.state);
            inner.obs.lock_wait_read.record(start.elapsed());
            g
        }
    }
}

/// Take the state write lock, feeding the `lock="write"` wait histogram
/// (same try-first, contended-only shape as [`read_state`]).
fn write_state<'a>(inner: &'a Inner) -> std::sync::RwLockWriteGuard<'a, ServeState> {
    match inner.state.try_write() {
        Ok(g) => g,
        Err(std::sync::TryLockError::Poisoned(e)) => e.into_inner(),
        Err(std::sync::TryLockError::WouldBlock) => {
            let start = Instant::now();
            let g = write_unpoisoned(&inner.state);
            inner.obs.lock_wait_write.record(start.elapsed());
            g
        }
    }
}

/// Publish the point-in-time serve gauges (memo occupancy and how far
/// the distilled model lags the label model). Called from the `STATS`
/// and `METRICS` handlers rather than the `MARGINAL` hot path — gauges
/// describe state, so refreshing them at observation time is enough.
fn publish_serve_gauges(inner: &Inner, state: &ServeState) {
    let lag = state
        .session
        .disc()
        .map_or(0, |d| state.generation.saturating_sub(d.generation));
    inner.obs.disc_gen_lag.set(lag.min(i64::MAX as u64) as i64);
    let memo = lock_unpoisoned(&inner.memo);
    inner.obs.memo_size.set(memo.len() as i64);
    inner
        .obs
        .memo_generation
        .set(memo.generation().min(i64::MAX as u64) as i64);
    inner
        .obs
        .ingest_queue_depth
        .set(inner.ingest_gate.depth().min(i64::MAX as usize) as i64);
}

fn write_snapshot(inner: &Inner, path: &std::path::Path) -> Result<u64, SnapError> {
    let snapshot = {
        let state = read_state(inner);
        Snapshot {
            session: state.session.freeze(),
            train: state.session.config().train.clone(),
            repl: inner.repl.as_ref().map(|_| ReplMark {
                applied_lsn: state.applied_lsn,
                generation: state.generation,
            }),
        }
    };
    let bytes = snapshot.write_file(path)?;
    inner.snapshots_written.fetch_add(1, Ordering::Relaxed);
    Ok(bytes)
}

// ----------------------------------------------------------------------
// Replication: WAL recovery, op logging, the follower tail
// ----------------------------------------------------------------------

/// Recover the on-disk WAL at boot: truncate any torn tail, verify the
/// log agrees with the snapshot mark, replay every record past the mark
/// through the same entry points live traffic uses, and seed the
/// in-memory op log so subscribers can resume from anywhere the file
/// covers. Any contradiction between the log and the snapshot is a
/// startup error — never a silent partial replay.
fn recover_wal(
    session: &mut IncrementalSession,
    generation: &mut u64,
    applied_lsn: &mut u64,
    path: &std::path::Path,
    mark: ReplMark,
) -> std::io::Result<(WalFile, OpLog)> {
    let (wal_file, scan) = WalFile::open_or_create(path, mark.applied_lsn)
        .map_err(|e| std::io::Error::other(format!("WAL {}: {e}", path.display())))?;
    if scan.base_lsn > mark.applied_lsn {
        return Err(std::io::Error::other(format!(
            "WAL {} begins after lsn {} but the snapshot mark is {} — \
             the log and the snapshot are from different histories",
            path.display(),
            scan.base_lsn,
            mark.applied_lsn
        )));
    }
    if let Some(last) = scan.records.last() {
        if last.lsn < mark.applied_lsn {
            return Err(std::io::Error::other(format!(
                "WAL {} ends at lsn {} before the snapshot mark {} — \
                 the log and the snapshot are from different histories",
                path.display(),
                last.lsn,
                mark.applied_lsn
            )));
        }
    } else if scan.base_lsn != mark.applied_lsn {
        return Err(std::io::Error::other(format!(
            "empty WAL {} based at lsn {} does not match the snapshot mark {}",
            path.display(),
            scan.base_lsn,
            mark.applied_lsn
        )));
    }
    let oplog = OpLog::new(scan.base_lsn);
    for rec in &scan.records {
        // Re-encode rather than re-frame the file bytes: the scan
        // already checksum-validated every record, and `encode_body` is
        // canonical, so the in-memory log ships subscribers exactly
        // what a live append would have.
        let body = wal::encode_body(rec.lsn, rec.gen_after, &rec.op);
        if rec.lsn > mark.applied_lsn {
            let outcome = repl::apply_op(session, generation, &rec.op).map_err(|e| {
                std::io::Error::other(format!(
                    "WAL {} replay failed at lsn {}: {e}",
                    path.display(),
                    rec.lsn
                ))
            })?;
            if *generation != rec.gen_after {
                return Err(std::io::Error::other(format!(
                    "WAL {} replay diverged at lsn {}: reached generation {} \
                     but the record says {}",
                    path.display(),
                    rec.lsn,
                    generation,
                    rec.gen_after
                )));
            }
            // Recovery is synchronous — no readers yet — so a due disc
            // retrain runs inline instead of through the phased path.
            if let repl::Applied::Refresh {
                training: Some(set),
                ..
            } = outcome
            {
                let (disc_state, _) = set.train();
                session.install_disc(disc_state);
            }
            *applied_lsn = rec.lsn;
        }
        oplog.append(body.into());
    }
    Ok((wal_file, oplog))
}

/// True when this server currently refuses mutations (`ERR readonly`).
fn is_follower(inner: &Inner) -> bool {
    inner
        .repl
        .as_ref()
        .is_some_and(|r| r.role.load(Ordering::SeqCst) == ROLE_FOLLOWER)
}

/// Append one already-applied op to the log(s), under the same write
/// lock that applied it. No-op on a non-replicated server.
fn log_op(inner: &Inner, state: &mut ServeState, op: &wal::Op) {
    let Some(repl) = &inner.repl else { return };
    let lsn = state.applied_lsn + 1;
    let body = wal::encode_body(lsn, state.generation, op);
    commit_record(repl, state, lsn, body);
}

/// Durably record one encoded record body at `lsn`: WAL append (when
/// configured), in-memory op-log append, and the applied-LSN advance —
/// all inside the caller's write-lock critical section, so a reply is
/// never sent for a mutation the log does not carry.
fn commit_record(repl: &Repl, state: &mut ServeState, lsn: u64, body: Vec<u8>) {
    if let Some(wal) = &repl.wal {
        let mut wal = lock_unpoisoned(wal);
        match wal.append_body(lsn, &body) {
            Ok(bytes) => {
                let _ = wal.sync();
                repl.obs.wal_records.inc();
                repl.obs.wal_bytes.add(bytes);
            }
            Err(e) => {
                // Serving continues on the in-memory log; durability is
                // degraded until the next successful snapshot. The
                // counter makes the gap visible.
                repl.obs.wal_append_errors.inc();
                eprintln!("snorkel-serve: WAL append failed at lsn {lsn}: {e}");
            }
        }
    }
    repl.oplog.append(body.into());
    state.applied_lsn = lsn;
    repl.obs.applied_lsn.set(lsn.min(i64::MAX as u64) as i64);
}

/// Validate an `OP_LOG_SUBSCRIBE` resume point and return
/// `(next, tip, gen)` for the acknowledgment. Subscriptions are served
/// by any replicated server regardless of role, so replicas can chain
/// and an ex-follower keeps its subscribers after a `PROMOTE`.
fn subscribe_grant(inner: &Inner, from: u64) -> Result<(u64, u64, u64), String> {
    let Some(repl) = &inner.repl else {
        return Err("not replicated (no WAL or follow address configured)".into());
    };
    // Read lock: the tip cannot advance mid-grant, so `(tip, gen)` is a
    // consistent pair and no record between `from` and `tip` can be
    // missed before the connection's tail cursor is installed.
    let state = read_state(inner);
    let tip = repl.oplog.tip();
    let first = repl.oplog.first_lsn();
    if from < first {
        return Err(format!(
            "lsn {from} predates the log (first available {first}); \
             bootstrap from a newer snapshot"
        ));
    }
    if from > tip + 1 {
        return Err(format!("lsn {from} is beyond the log tip {tip}"));
    }
    repl.obs.subscribers.add(1);
    Ok((from, tip, state.generation))
}

/// Leader address poll cadences for the follower tail.
const TAIL_CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Read timeout on the live tail — well above the leader's
/// [`HEARTBEAT_EVERY`], so a timeout means the leader is gone, not idle.
const TAIL_READ_TIMEOUT: Duration = Duration::from_secs(1);

/// Sleep in small slices, returning early on shutdown or promote.
fn sleep_interruptible(inner: &Inner, repl: &Repl, total: Duration) {
    let slice = Duration::from_millis(20);
    let mut remaining = total;
    while !remaining.is_zero() {
        if inner.shutdown.load(Ordering::SeqCst) || repl.tail_stop.load(Ordering::SeqCst) {
            return;
        }
        let nap = remaining.min(slice);
        std::thread::sleep(nap);
        remaining -= nap;
    }
}

/// The follower's tail thread: subscribe to the leader at the next
/// unapplied LSN, replay every pushed record, reconnect with backoff on
/// transient failures. A *rejected* subscription or a replay failure
/// halts the tail permanently — the follower keeps serving its last
/// consistent state (staleness is visible on `snorkel_repl_lag_records`
/// and in `STATS`), because serving stale beats replaying garbage.
fn follower_loop(inner: &Arc<Inner>) {
    let Some(repl) = &inner.repl else { return };
    let Some(addr) = repl.follow.clone() else {
        return;
    };
    let mut backoff = Backoff::new();
    'resubscribe: loop {
        if inner.shutdown.load(Ordering::SeqCst) || repl.tail_stop.load(Ordering::SeqCst) {
            return;
        }
        let resume = read_state(inner).applied_lsn + 1;
        let mut conn =
            match TailConn::connect(&addr, resume, TAIL_CONNECT_TIMEOUT, TAIL_READ_TIMEOUT) {
                Ok(conn) => conn,
                Err(ConnectError::Rejected(msg)) => {
                    repl.obs.replay_errors.inc();
                    eprintln!("snorkel-serve: follower tail halted: {msg}");
                    return;
                }
                Err(ConnectError::Io(_)) => {
                    sleep_interruptible(inner, repl, backoff.step());
                    continue 'resubscribe;
                }
            };
        repl.obs.reconnects.inc();
        backoff.reset();
        loop {
            if inner.shutdown.load(Ordering::SeqCst) || repl.tail_stop.load(Ordering::SeqCst) {
                return;
            }
            match conn.next_event() {
                Ok(TailEvent::Record(body)) => match apply_replicated(inner, repl, &body) {
                    Ok(true) => {}
                    Ok(false) => return,
                    Err(e) => {
                        repl.obs.replay_errors.inc();
                        eprintln!("snorkel-serve: follower tail halted: {e}");
                        return;
                    }
                },
                Ok(TailEvent::Heartbeat { tip, .. }) => {
                    repl.obs.heartbeats.inc();
                    let applied = read_state(inner).applied_lsn;
                    repl.obs
                        .lag_records
                        .set(tip.saturating_sub(applied).min(i64::MAX as u64) as i64);
                }
                // Timeout or disconnect: resubscribe from the last
                // applied LSN.
                Err(_) => continue 'resubscribe,
            }
        }
    }
}

/// Replay one record pushed over the live tail. `Ok(false)` means the
/// tail must stop (shutdown or promote won the race); `Err` is a
/// permanent halt (corrupt record, LSN gap, divergence).
fn apply_replicated(inner: &Inner, repl: &Repl, body: &[u8]) -> Result<bool, String> {
    let rec = wal::Record::decode_body(body).map_err(|e| format!("bad pushed record: {e}"))?;
    // Tokenize outside the lock, exactly like the leader's ingest path.
    let prepared = match &rec.op {
        wal::Op::Ingest(rows) => Some(repl::prepare_ingest(rows)?),
        _ => None,
    };
    let mut state = write_state(inner);
    if inner.shutdown.load(Ordering::SeqCst) || repl.tail_stop.load(Ordering::SeqCst) {
        return Ok(false);
    }
    if rec.lsn <= state.applied_lsn {
        // Duplicate after a reconnect race — already applied.
        return Ok(true);
    }
    if rec.lsn != state.applied_lsn + 1 {
        return Err(format!(
            "lsn gap: leader pushed {} but {} is next",
            rec.lsn,
            state.applied_lsn + 1
        ));
    }
    let st = &mut *state;
    let training = match &rec.op {
        wal::Op::Refresh(edit) => {
            let (_, training) =
                repl::apply_refresh(&mut st.session, &mut st.generation, edit.as_ref())?;
            inner.refreshes.fetch_add(1, Ordering::Relaxed);
            training
        }
        wal::Op::Ingest(_) => {
            let batch = prepared.expect("prepared above for Op::Ingest");
            repl::apply_ingest(&mut st.session, &mut st.generation, batch);
            None
        }
        wal::Op::Seal => None,
    };
    if st.generation != rec.gen_after {
        return Err(format!(
            "divergence at lsn {}: reached generation {} but the leader logged {}",
            rec.lsn, st.generation, rec.gen_after
        ));
    }
    commit_record(repl, st, rec.lsn, body.to_vec());
    repl.obs.ops_replayed.inc();
    drop(state);
    // Disc retrain outside the lock, then a short write lock to
    // install — the same phasing as the leader's REFRESH.
    if let Some(set) = training {
        let (disc_state, _) = set.train();
        let mut state = write_state(inner);
        state.session.install_disc(disc_state);
    }
    Ok(true)
}

/// `PROMOTE`: stop tailing, seal the log, and start accepting writes.
fn handle_promote(inner: &Inner) -> String {
    let Some(repl) = &inner.repl else {
        return "ERR not replicated (no WAL or follow address configured)".into();
    };
    if repl.role.load(Ordering::SeqCst) == ROLE_LEADER {
        return "ERR already leader".into();
    }
    // Order matters: set the stop flag, then take the write lock. Any
    // in-flight replay either committed before we got the lock (its LSN
    // precedes the seal) or sees the flag under the lock and aborts.
    repl.tail_stop.store(true, Ordering::SeqCst);
    let mut state = write_state(inner);
    repl.role.store(ROLE_LEADER, Ordering::SeqCst);
    let st = &mut *state;
    log_op(inner, st, &wal::Op::Seal);
    format!("OK role=leader lsn={}", st.applied_lsn)
}

/// Close out one request's timing: latency histogram plus a trace-ring
/// entry for `SLOWLOG` (unless tracing is off via `SNORKEL_OBS_TRACE`).
#[inline]
fn record_request(vm: &VerbMetrics, verb: &'static str, start: Instant) {
    let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
    vm.latency.record_ns(ns);
    if trace_level() >= TraceLevel::Info {
        TraceRing::global().record(verb, ns);
    }
}

fn handle_request(inner: &Inner, req: Request, scratch: &mut ReadScratch) -> String {
    match req {
        Request::Ping => "OK pong".into(),
        Request::Marginal { cols, votes } => handle_marginal(inner, cols, votes, scratch),
        Request::Apply { span1, span2, text } => handle_apply(inner, span1, span2, &text),
        Request::Predict { features } => handle_predict(inner, features),
        Request::PredictText { span1, span2, text } => {
            handle_predict_text(inner, span1, span2, &text)
        }
        Request::Ingest { rows } => match handle_ingest_core(inner, &rows) {
            Ok(s) => format!(
                "OK gen={} rows={} total={} online={} drift={} refit={}",
                s.gen,
                s.rows,
                s.total,
                u8::from(s.online),
                s.drift_score,
                u8::from(s.auto_refit)
            ),
            Err(e) => format!("ERR {e}"),
        },
        Request::Refresh(edit) => handle_refresh(inner, edit),
        Request::Snapshot { path } => {
            let target = path
                .map(PathBuf::from)
                .or_else(|| inner.snapshot_path.clone());
            let Some(target) = target else {
                return "ERR no snapshot path configured".into();
            };
            match write_snapshot(inner, &target) {
                Ok(bytes) => format!("OK bytes={bytes} path={}", target.display()),
                Err(e) => format!("ERR snapshot failed: {e}"),
            }
        }
        Request::Stats => {
            let state = read_state(inner);
            publish_serve_gauges(inner, &state);
            let cache = state.session.cache_stats();
            let (memo_size, memo_gen) = {
                let memo = lock_unpoisoned(&inner.memo);
                (memo.len(), memo.generation())
            };
            let disc = match state.session.disc() {
                None => "-".to_string(),
                Some(d) => format!(
                    "{}{}",
                    d.generation,
                    if state.session.disc_is_stale() {
                        "(stale)"
                    } else {
                        ""
                    }
                ),
            };
            let drift_score = state
                .session
                .stream()
                .map_or_else(|| "-".to_string(), |s| s.drift_score().to_string());
            let role = if is_follower(inner) {
                "follower"
            } else {
                "leader"
            };
            format!(
                "OK gen={} rows={} lfs={} backend={} disc_gen={disc} conns={} queries={} \
                 memo_hits={} refreshes={} snapshots={} cache_hits={} cache_misses={} \
                 cache_extensions={} cache_cols={} cache_cap={} memo_size={memo_size} \
                 memo_gen={memo_gen} scratch_bytes={} ingest_queue={}/{} \
                 drift_score={drift_score} role={role} lsn={} lf_names={}",
                state.generation,
                state.session.num_candidates(),
                state.session.num_lfs(),
                state.session.backend_name().unwrap_or("-"),
                inner.open_conns.load(Ordering::Relaxed),
                inner.queries.load(Ordering::Relaxed),
                inner.memo_hits.load(Ordering::Relaxed),
                inner.refreshes.load(Ordering::Relaxed),
                inner.snapshots_written.load(Ordering::Relaxed),
                cache.hits,
                cache.misses,
                cache.extensions,
                state.session.cache_len(),
                state.session.cache_capacity(),
                inner.scratch_high.load(Ordering::Relaxed),
                inner.ingest_gate.depth(),
                inner.ingest_gate.capacity(),
                state.applied_lsn,
                state.session.lf_names().join(","),
            )
        }
        Request::Metrics => handle_metrics(inner),
        Request::Slowlog { n } => handle_slowlog(n),
        Request::Promote => handle_promote(inner),
        Request::Shutdown => unreachable!("handled in the connection loop"),
    }
}

/// `METRICS`: refresh the point-in-time serve gauges, then expose the
/// whole process-global registry as Prometheus text. The reply is the
/// only multi-line response besides `SLOWLOG`: a header announcing the
/// series and line counts, then the exposition verbatim.
fn handle_metrics(inner: &Inner) -> String {
    {
        let state = read_state(inner);
        publish_serve_gauges(inner, &state);
    }
    let registry = snorkel_obs::global();
    let text = registry.expose();
    let series = registry.num_series();
    let mut out = format!("OK series={series} lines={}", text.lines().count());
    for l in text.lines() {
        out.push('\n');
        out.push_str(l);
    }
    out
}

/// `SLOWLOG <n>`: the `n` slowest spans still buffered in the global
/// trace ring, slowest first. One payload line per entry.
fn handle_slowlog(n: usize) -> String {
    let entries = TraceRing::global().slowest(n);
    let mut out = format!("OK count={} lines={}", entries.len(), entries.len());
    for e in &entries {
        out.push_str(&format!(
            "\nspan={} dur_ns={} seq={}",
            e.name, e.dur_ns, e.seq
        ));
    }
    out
}

/// Text `MARGINAL`: a batch of one through the same
/// [`hotpath::compute_marginal`] core (and the same signature memo) as
/// the binary plane, so the two planes answer bit-identically and warm
/// each other's memo.
fn handle_marginal(
    inner: &Inner,
    cols: Vec<u32>,
    votes: Vec<Vote>,
    scratch: &mut ReadScratch,
) -> String {
    inner.queries.fetch_add(1, Ordering::Relaxed);
    scratch.set_vote_row(&cols, &votes);
    let state = read_state(inner);
    match hotpath::compute_marginal(&state.session, state.generation, &inner.memo, scratch) {
        Ok(outcome) => {
            inner
                .memo_hits
                .fetch_add(outcome.memo_hits, Ordering::Relaxed);
            format!(
                "OK gen={} p={}",
                state.generation,
                format_probs(&scratch.probs()[..outcome.width])
            )
        }
        Err(e) => format!("ERR {e}"),
    }
}

/// Distilled-model posteriors for a batch of raw feature vectors under
/// one state read-lock acquisition (the batched core of the text
/// `PREDICT` and binary `OP_PREDICT` paths).
fn predict_batch(inner: &Inner, rows: &[Vec<String>]) -> Result<(u64, u64, Vec<Vec<f64>>), String> {
    inner
        .queries
        .fetch_add(rows.len() as u64, Ordering::Relaxed);
    let state = read_state(inner);
    let Some(disc) = state.session.disc() else {
        return Err("no distilled model (enable distillation and REFRESH)".into());
    };
    let probs = rows
        .iter()
        .map(|features| {
            let x =
                snorkel_disc::hash_features(features.iter().map(String::as_str), disc.model.dim());
            disc.model.predict_proba(&x)
        })
        .collect();
    Ok((state.generation, disc.generation, probs))
}

/// Build a transient two-span candidate in a scratch corpus (serving a
/// labeling query must not grow server state) — the server-side half of
/// the `APPLY`/`PREDICT_TEXT` shared grammar.
fn transient_candidate(
    span1: (usize, usize),
    span2: (usize, usize),
    text: &str,
) -> Result<(Corpus, snorkel_context::CandidateId), String> {
    let tokens = snorkel_nlp::tokenize(text);
    for (lo, hi) in [span1, span2] {
        if lo >= hi || hi > tokens.len() {
            return Err(format!(
                "span {lo}..{hi} invalid for {} tokens",
                tokens.len()
            ));
        }
    }
    let mut scratch = Corpus::new();
    let doc = scratch.add_document("probe");
    let sent = scratch.add_sentence(doc, text, tokens);
    let a = scratch.add_span(sent, span1.0, span1.1, None);
    let b = scratch.add_span(sent, span2.0, span2.1, None);
    let cand = scratch.add_candidate(vec![a, b]);
    Ok((scratch, cand))
}

fn handle_apply(inner: &Inner, span1: (usize, usize), span2: (usize, usize), text: &str) -> String {
    inner.queries.fetch_add(1, Ordering::Relaxed);
    let (scratch, cand) = match transient_candidate(span1, span2, text) {
        Ok(built) => built,
        Err(e) => return format!("ERR {e}"),
    };

    let state = read_state(inner);
    let session = &state.session;
    let votes = session.apply_lfs(&scratch.candidate(cand));
    let non_abstain: (Vec<u32>, Vec<Vote>) = votes
        .iter()
        .enumerate()
        .filter(|(_, &v)| v != 0)
        .map(|(j, &v)| (j as u32, v))
        .unzip();
    // The live suite can differ from the last-trained model's layout
    // for any un-refreshed add/edit/remove; the model may only score
    // votes whose column indexes refer to exactly the layout it was
    // fitted on (an equal LF *count* is not enough — a remove+add of
    // the same arity would silently misalign columns).
    let model = session
        .model()
        .filter(|_| session.suite_matches_last_refresh());
    let cardinality = session.config().executor.cardinality;
    let mut p = vec![0.0; LabelScheme::from_cardinality(cardinality).num_classes()];
    match hotpath::posterior_row(
        model,
        session.num_lfs(),
        cardinality,
        &non_abstain.0,
        &non_abstain.1,
        &mut p,
    ) {
        Ok(()) => {
            let vote_strs: Vec<String> = votes.iter().map(|v| v.to_string()).collect();
            format!(
                "OK gen={} votes={} p={}",
                state.generation,
                vote_strs.join(","),
                format_probs(&p)
            )
        }
        Err(e) => format!("ERR {e}"),
    }
}

/// Distilled-model posterior for raw (pre-hashed-name) features —
/// answers for candidates with zero LF coverage. Runs entirely under
/// the read lock; the reply's `disc_gen=` says which refresh generation
/// the serving model was trained on (it can lag `gen=` while a retrain
/// runs — reads never wait for one).
fn handle_predict(inner: &Inner, features: Vec<String>) -> String {
    match predict_batch(inner, std::slice::from_ref(&features)) {
        Ok((gen, disc_gen, probs)) => {
            format!(
                "OK gen={gen} disc_gen={disc_gen} p={}",
                format_probs(&probs[0])
            )
        }
        Err(e) => format!("ERR {e}"),
    }
}

/// Featurize a transient two-span candidate (same grammar as `APPLY`)
/// and answer from the distilled model.
fn handle_predict_text(
    inner: &Inner,
    span1: (usize, usize),
    span2: (usize, usize),
    text: &str,
) -> String {
    inner.queries.fetch_add(1, Ordering::Relaxed);
    let (scratch, cand) = match transient_candidate(span1, span2, text) {
        Ok(built) => built,
        Err(e) => return format!("ERR {e}"),
    };

    let state = read_state(inner);
    let Some(disc) = state.session.disc() else {
        return "ERR no distilled model (enable distillation and REFRESH)".into();
    };
    let x = disc.config.featurizer.featurize(&scratch.candidate(cand));
    format!(
        "OK gen={} disc_gen={} p={}",
        state.generation,
        disc.generation,
        format_probs(&disc.model.predict_proba(&x))
    )
}

/// The summary both planes' `INGEST` replies are built from.
struct IngestSummary {
    gen: u64,
    rows: u64,
    total: u64,
    online: bool,
    drift_score: f64,
    auto_refit: bool,
}

/// Execute one ingest batch — the shared core of the text `INGEST`
/// verb and the binary `OP_INGEST` frame.
///
/// Admission first: the bounded [`IngestGate`] is tried before any
/// work; a full gate refuses with `backpressure` (never queues) and
/// the permit is held for the whole execution so the gate depth counts
/// in-flight ingests honestly. Tokenization and span validation run
/// outside the lock; the write lock covers only the corpus append and
/// the session's [`ingest_batch`](IncrementalSession::ingest_batch)
/// (cache-extend, Λ row splice, online moment solve). A batch is
/// atomic: nothing is ingested unless every row validates.
fn handle_ingest_core(inner: &Inner, rows: &[frame::IngestRow]) -> Result<IngestSummary, String> {
    if is_follower(inner) {
        return Err("readonly (follower serves reads; PROMOTE to accept writes)".into());
    }
    let Some(_permit) = inner.ingest_gate.try_enter() else {
        inner.obs.backpressure.inc();
        return Err(format!(
            "backpressure: ingest queue full ({} in flight, capacity {})",
            inner.ingest_gate.depth(),
            inner.ingest_gate.capacity()
        ));
    };
    inner
        .obs
        .ingest_queue_depth
        .set(inner.ingest_gate.depth().min(i64::MAX as usize) as i64);
    // Tokenize and validate every row before taking the lock (the write
    // lock pays only for the splice, and an invalid row rejects the
    // batch before anything grows), through the shared replication
    // entry points — the same code path a follower replays through.
    let prepared = repl::prepare_ingest(rows)?;
    let row_count = prepared.len() as u64;
    let mut state = write_state(inner);
    let st = &mut *state;
    let report = repl::apply_ingest(&mut st.session, &mut st.generation, prepared);
    if inner.repl.is_some() {
        log_op(inner, st, &wal::Op::Ingest(rows.to_vec()));
    }
    Ok(IngestSummary {
        gen: st.generation,
        rows: row_count,
        total: st.session.num_candidates() as u64,
        online: report.online_fit,
        drift_score: report.drift_score,
        auto_refit: report.auto_refit,
    })
}

fn handle_refresh(inner: &Inner, edit: Option<SuiteEdit>) -> String {
    if is_follower(inner) {
        return "ERR readonly (follower serves reads; PROMOTE to accept writes)".into();
    }
    // Phase 1 (write lock): suite edit + label-model refresh through
    // the shared replication entry point (the same code path a follower
    // replays through), then the op-log append — the record carries the
    // post-refresh generation. The distillation training set is cloned
    // out before the lock drops so the expensive disc retrain below
    // runs lock-free.
    let (response, training_set) = {
        let mut state = write_state(inner);
        let st = &mut *state;
        let (report, training_set) =
            match repl::apply_refresh(&mut st.session, &mut st.generation, edit.as_ref()) {
                Ok(done) => done,
                Err(e) => return format!("ERR {e}"),
            };
        inner.refreshes.fetch_add(1, Ordering::Relaxed);
        log_op(inner, st, &wal::Op::Refresh(edit));
        let strategy = match &report.strategy {
            snorkel_core::optimizer::ModelingStrategy::MajorityVote => "mv",
            snorkel_core::optimizer::ModelingStrategy::MomentMatching => "moment",
            snorkel_core::optimizer::ModelingStrategy::GenerativeModel { .. } => "gm",
        };
        let response = format!(
            "OK gen={} strategy={strategy} backend={} rows={} lfs={} lf_invocations={} \
             columns_recomputed={} columns_reused={} columns_extended={} \
             warm_started={} unique_patterns={} disc={}",
            st.generation,
            report.backend,
            st.session.num_candidates(),
            st.session.num_lfs(),
            report.lf_invocations,
            report.columns_recomputed,
            report.columns_reused,
            report.columns_extended,
            report.warm_started,
            report
                .unique_patterns
                .map_or_else(|| "-".into(), |p| p.to_string()),
            if training_set.is_some() {
                "retraining"
            } else {
                "-"
            },
        );
        (response, training_set)
    };
    // Phase 2 (no lock): distill. Concurrent MARGINAL/PREDICT reads are
    // served meanwhile — from the previous disc model, whose `disc_gen=`
    // makes the staleness visible. Phase 3 (short write lock): install.
    if let Some(set) = training_set {
        let (disc_state, _) = set.train();
        let mut state = write_state(inner);
        state.session.install_disc(disc_state);
    }
    response
}

/// Minimal blocking client for tests, examples, and the CI smoke
/// script: one request line out, one response line back.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    /// Connect to a running server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Send one request line, read one response line (without the
    /// trailing newline).
    pub fn request(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut response = String::new();
        let n = self.reader.read_line(&mut response)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(response.trim_end().to_string())
    }

    /// Send one request line and read a multi-line reply (`METRICS`,
    /// `SLOWLOG`): the header's `lines=<k>` field says how many payload
    /// lines follow. Returns `(header, payload_lines)`; a reply without
    /// a `lines=` field (e.g. an `ERR`) comes back with no payload.
    pub fn request_lines(&mut self, line: &str) -> std::io::Result<(String, Vec<String>)> {
        let header = self.request(line)?;
        let count = header
            .split_whitespace()
            .find_map(|tok| tok.strip_prefix("lines="))
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0);
        let mut lines = Vec::with_capacity(count);
        for _ in 0..count {
            let mut payload = String::new();
            if self.reader.read_line(&mut payload)? == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection mid-reply",
                ));
            }
            lines.push(payload.trim_end().to_string());
        }
        Ok((header, lines))
    }
}

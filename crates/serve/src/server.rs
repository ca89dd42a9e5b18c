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
//! accept thread sets each accepted socket nonblocking, deals it
//! round-robin to a worker's inbox and wakes that worker, and each
//! worker *pumps* its connections — flush pending output, read whatever
//! bytes are available, service every complete request in the buffer,
//! flush again. Nothing blocks on any one socket. A pass that moved
//! nothing parks the worker in `epoll_wait` on its sockets and a waker
//! (the accept thread blocks the same way on the listener), so
//! thousands of idle connections cost a few parked threads — no CPU,
//! no stacks per connection — and a request that lands on an idle
//! connection is served at once. A cap
//! ([`ServeConfig::max_connections`]) refuses excess connections with
//! `ERR busy` instead of queueing without bound. The pump services
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
//! each worker owns a [`ReadScratch`](crate::hotpath::ReadScratch)
//! arena (reset, never freed, per request), the memo is the
//! structure-of-arrays [`SigMemo`](crate::hotpath::SigMemo) whose
//! lookups borrow rather than clone, and replies are encoded straight
//! into the connection's capacity-retaining output buffer. See
//! [`crate::hotpath`] and `docs/PERFORMANCE.md` for the budgets.
//!
//! ## Layers
//!
//! This module is the public handle ([`LabelServer`], [`ServeConfig`])
//! and thread start-up; the server itself is three crate-private
//! layers with one-way knowledge — `conn` knows bytes (sockets,
//! buffers, the accept and worker loops), `core` knows state (the
//! session lock, memo, counters, and the socket-free per-connection
//! state machine), `verbs` knows the protocol (one verb table, one
//! dispatch, typed replies) — plus `repl::node` for the replication
//! plane.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use snorkel_incr::IncrementalSession;
use snorkel_poll::{Interest, Poller};

use crate::conn::{accept_loop, worker_loop, Inboxes, LISTENER};
use crate::core::Core;
pub use crate::frame::Client;
use crate::repl::node::{follower_loop, Repl};
use crate::repl::ReplMark;
use crate::snap::SnapError;

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

/// Handle to a running labeling server. Dropping the handle does *not*
/// stop the server; call [`Self::shutdown`] (or send `SHUTDOWN` over the
/// wire and then [`Self::wait`]).
pub struct LabelServer {
    core: Arc<Core>,
    addr: SocketAddr,
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
        let (repl, mark) = Repl::boot(&mut session, &config)?;
        let accept_poller = Poller::new()?;
        accept_poller.add(&listener, LISTENER, Interest::READ)?;
        let worker_pollers = (0..worker_count)
            .map(|_| Poller::new())
            .collect::<std::io::Result<Vec<_>>>()?;
        let core = Arc::new(Core::new(
            session,
            mark,
            repl,
            &config,
            worker_pollers.iter().map(Poller::waker).collect(),
            Some(accept_poller.waker()),
        ));
        let inboxes: Arc<Inboxes> =
            Arc::new((0..worker_count).map(|_| Mutex::new(Vec::new())).collect());

        let accept = {
            let (core, inboxes) = (Arc::clone(&core), Arc::clone(&inboxes));
            let max_conns = config.max_connections.max(1);
            std::thread::spawn(move || {
                accept_loop(&core, &listener, accept_poller, &inboxes, max_conns)
            })
        };

        let workers = worker_pollers
            .into_iter()
            .enumerate()
            .map(|(idx, poller)| {
                let (core, inboxes) = (Arc::clone(&core), Arc::clone(&inboxes));
                std::thread::spawn(move || worker_loop(&core, &inboxes[idx], idx, poller))
            })
            .collect();

        let snapshotter = match (config.auto_snapshot, config.snapshot_path) {
            (Some(every), Some(path)) => {
                let core = Arc::clone(&core);
                Some(std::thread::spawn(move || loop {
                    core.wait_tick(every);
                    if core.is_shutdown() {
                        break;
                    }
                    let _ = core.write_snapshot(&path);
                }))
            }
            _ => None,
        };

        let tail = config.follow.is_some().then(|| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || follower_loop(&core))
        });

        Ok(LabelServer {
            core,
            addr,
            accept: Some(accept),
            workers,
            snapshotter,
            tail,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
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
            self.core.trigger_shutdown();
            let _ = h.join();
        }
        if let Some(path) = self.core.snapshot_path.clone() {
            self.core.write_snapshot(&path)?;
            // Final metrics dump next to the final snapshot: counters die
            // with the process, so this exposition is the only record of
            // the run once the server is gone.
            self.core.publish_gauges(&self.core.read_state());
            let mut metrics_path = path.into_os_string();
            metrics_path.push(".metrics");
            let _ = std::fs::write(PathBuf::from(metrics_path), snorkel_obs::global().expose());
        }
        Ok(())
    }

    /// Trigger a graceful stop and block until drained (see
    /// [`Self::wait`]).
    pub fn shutdown(self) -> Result<(), SnapError> {
        self.core.trigger_shutdown();
        self.wait()
    }
}

//! # snorkel-serve
//!
//! Durable snapshots and a concurrent labeling service — the deployment
//! layer Snorkel DryBell (Bach et al., 2019) argues weak supervision
//! needs at industrial scale: a long-running process with persistent
//! state that answers labeling queries, instead of a pipeline that lives
//! and dies inside one script run.
//!
//! Two layers:
//!
//! * [`snap`] — a hand-rolled, versioned, checksummed binary snapshot
//!   format round-tripping the label matrix (CSR), the label model
//!   (a [`LabelModel`](snorkel_core::label_model::LabelModel) under its
//!   backend tag, + [`TrainConfig`](snorkel_core::TrainConfig)), the
//!   `snorkel-incr` LF-result cache, and the sharded
//!   [`PatternIndex`](snorkel_matrix::PatternIndex) — so a restarted
//!   process warm-starts in milliseconds instead of re-running every LF
//!   and re-fitting from scratch, on the *same backend* it was running.
//!   Round trips are bit-exact; corrupted, truncated, wrong-version, or
//!   unknown-backend files yield a typed [`SnapError`], never a panic.
//!   One format version is read and written ([`FORMAT_VERSION`]).
//! * [`server`] — a fixed worker pool of `std::net` threads
//!   multiplexing many nonblocking sockets, speaking a line-delimited
//!   text protocol (`MARGINAL`, `APPLY`, `PREDICT`, `PREDICT_TEXT`,
//!   `REFRESH`, `SNAPSHOT`, `STATS`, `SHUTDOWN`) over a shared
//!   [`IncrementalSession`](snorkel_incr::IncrementalSession)
//!   behind an `RwLock`: marginal queries and suite probes run
//!   concurrently under the read lock (with a per-generation posterior
//!   memo — the serving counterpart of pattern dedup); LF edits take
//!   the write lock, splice Λ via `MatrixDelta`, and warm-start
//!   training. `PREDICT`/`PREDICT_TEXT` answer from the **distilled
//!   discriminative model** for candidates with zero LF coverage; the
//!   disc retrain after an edit runs *outside* the write lock, so
//!   reads never block on it (the reply's `disc_gen=` shows the lag).
//!   Plus graceful shutdown, a connection cap that sheds overload with
//!   `ERR busy`, and periodic auto-snapshots.
//! * [`frame`] — binary framing v2 on the *same port*: the first byte
//!   of a request disambiguates text from binary, and the binary verbs
//!   (`OP_MARGINAL`, `OP_PREDICT`) are batched — N rows per round
//!   trip, answered under one read-lock acquisition, with replies
//!   bit-identical to N single text requests.
//! * [`hotpath`] — the allocation-free read path behind those verbs:
//!   per-worker scratch arenas ([`hotpath::ReadScratch`]), the
//!   structure-of-arrays signature memo ([`hotpath::SigMemo`]), and
//!   zero-copy decode/compute cores whose steady-state cost is **zero
//!   heap allocations per request** (enforced by a counting-allocator
//!   test in release mode; budgets in `docs/PERFORMANCE.md`).
//! * [`repl`] — leader/follower replication: a checksummed write-ahead
//!   log of mutating ops, an `OP_LOG_SUBSCRIBE` push stream for live
//!   tailing, and shared replay entry points that make follower
//!   marginals bit-identical to the leader's at every LSN (spec in
//!   `docs/REPLICATION.md`).
//!
//! ```no_run
//! use snorkel_context::Corpus;
//! use snorkel_incr::{IncrementalSession, SessionConfig};
//! use snorkel_serve::{Client, LabelServer, ServeConfig};
//!
//! let session =
//!     IncrementalSession::new(Corpus::new(), SessionConfig::default());
//! let server = LabelServer::start(session, ServeConfig::default())?;
//! let mut client = Client::connect(server.addr())?;
//! let reply = client.request("MARGINAL 0:1,2:-1")?;
//! assert!(reply.starts_with("OK "));
//! client.request("SHUTDOWN")?;
//! server.wait().unwrap();
//! # Ok::<(), std::io::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conn;
mod core;
pub mod frame;
pub mod hotpath;
pub mod protocol;
pub mod repl;
pub mod server;
pub mod snap;
mod verbs;
mod wire;

pub use frame::{BinReply, BinRequest, FrameClient, VoteRow};
pub use protocol::{parse_request, LfSpec, Request, SuiteEdit};
pub use repl::ReplMark;
pub use server::{Client, LabelServer, ServeConfig};
pub use snap::{SnapError, Snapshot, FORMAT_VERSION, MAGIC};

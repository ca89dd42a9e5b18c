//! The protocol layer: one verb table, one [`dispatch`], one handler
//! per verb.
//!
//! Every text verb and binary opcode is a row of [`VERBS`]. The text
//! parser's keyword set, [`Request::verb`], [`frame::opcode_name`], the
//! per-verb and per-opcode metric handles, the follower's `ERR readonly`
//! refusal and the server-push refusal are all read off that table
//! (`scripts/docs_check.sh` checks the same rows against
//! `docs/PROTOCOL.md`). A request from either plane is parsed into a
//! [`Req`], accounted and executed once by [`dispatch`], and answered
//! with a typed [`Reply`] that its renderer for the plane appends to
//! the connection's output buffer.
//!
//! Nothing here touches a socket: the connection state machine in
//! [`crate::core`] hands over one complete line or frame at a time.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::time::Instant;

use snorkel_context::{CandidateId, Corpus};
use snorkel_core::model::LabelScheme;
use snorkel_core::optimizer::ModelingStrategy;
use snorkel_incr::IngestReport;
use snorkel_lf::Vote;
use snorkel_obs::{trace_level, TraceLevel, TraceRing};

use crate::core::{lock_unpoisoned, Core};
use crate::frame::{self, BinRequest, IngestRow};
use crate::hotpath::{self, ReadScratch};
use crate::protocol::{format_probs, parse_request, Request, SuiteEdit};
use crate::repl::{self, node, wal};

/// A row of [`VERBS`], by position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verb {
    Ping,
    Marginal,
    Apply,
    Predict,
    PredictText,
    Ingest,
    Refresh,
    Snapshot,
    Stats,
    Metrics,
    Slowlog,
    Promote,
    Shutdown,
    LogSubscribe,
    LogRecord,
    LogHeartbeat,
    /// Accounting row for frames whose opcode the protocol does not
    /// define (they still cost a parse and a reply).
    Unknown,
}

/// What the protocol knows about one verb.
pub(crate) struct VerbRow {
    pub(crate) verb: Verb,
    /// Text keyword, metric label value and trace-span name.
    pub(crate) name: &'static str,
    /// The verb exists on the text plane.
    pub(crate) text: bool,
    /// The verb's binary-plane opcode, if it has one.
    pub(crate) opcode: Option<u8>,
    /// The verb changes served state: a follower refuses it.
    pub(crate) mutates: bool,
    /// The opcode only ever travels server → subscriber.
    pub(crate) push_only: bool,
}

/// The verb table, one row per line (`scripts/docs_check.sh` reads the
/// `name`, `text` and `opcode` fields).
#[rustfmt::skip]
pub(crate) static VERBS: [VerbRow; 17] = [
    VerbRow { verb: Verb::Ping,         name: "PING",          text: true,  opcode: Some(frame::OP_PING),          mutates: false, push_only: false },
    VerbRow { verb: Verb::Marginal,     name: "MARGINAL",      text: true,  opcode: Some(frame::OP_MARGINAL),      mutates: false, push_only: false },
    VerbRow { verb: Verb::Apply,        name: "APPLY",         text: true,  opcode: None,                          mutates: false, push_only: false },
    VerbRow { verb: Verb::Predict,      name: "PREDICT",       text: true,  opcode: Some(frame::OP_PREDICT),       mutates: false, push_only: false },
    VerbRow { verb: Verb::PredictText,  name: "PREDICT_TEXT",  text: true,  opcode: None,                          mutates: false, push_only: false },
    VerbRow { verb: Verb::Ingest,       name: "INGEST",        text: true,  opcode: Some(frame::OP_INGEST),        mutates: true,  push_only: false },
    VerbRow { verb: Verb::Refresh,      name: "REFRESH",       text: true,  opcode: None,                          mutates: true,  push_only: false },
    VerbRow { verb: Verb::Snapshot,     name: "SNAPSHOT",      text: true,  opcode: None,                          mutates: false, push_only: false },
    VerbRow { verb: Verb::Stats,        name: "STATS",         text: true,  opcode: None,                          mutates: false, push_only: false },
    VerbRow { verb: Verb::Metrics,      name: "METRICS",       text: true,  opcode: None,                          mutates: false, push_only: false },
    VerbRow { verb: Verb::Slowlog,      name: "SLOWLOG",       text: true,  opcode: None,                          mutates: false, push_only: false },
    VerbRow { verb: Verb::Promote,      name: "PROMOTE",       text: true,  opcode: None,                          mutates: false, push_only: false },
    VerbRow { verb: Verb::Shutdown,     name: "SHUTDOWN",      text: true,  opcode: None,                          mutates: false, push_only: false },
    VerbRow { verb: Verb::LogSubscribe, name: "LOG_SUBSCRIBE", text: false, opcode: Some(frame::OP_LOG_SUBSCRIBE), mutates: false, push_only: false },
    VerbRow { verb: Verb::LogRecord,    name: "LOG_RECORD",    text: false, opcode: Some(frame::OP_LOG_RECORD),    mutates: false, push_only: true  },
    VerbRow { verb: Verb::LogHeartbeat, name: "LOG_HEARTBEAT", text: false, opcode: Some(frame::OP_LOG_HEARTBEAT), mutates: false, push_only: true  },
    VerbRow { verb: Verb::Unknown,      name: "UNKNOWN",       text: false, opcode: None,                          mutates: false, push_only: false },
];

impl Verb {
    pub(crate) fn row(self) -> &'static VerbRow {
        &VERBS[self as usize]
    }

    /// The text verb a request line's first word names.
    pub(crate) fn from_keyword(word: &str) -> Option<Verb> {
        VERBS
            .iter()
            .find(|row| row.text && row.name == word)
            .map(|row| row.verb)
    }

    /// The verb a frame header's opcode byte names.
    pub(crate) fn from_opcode(opcode: u8) -> Option<Verb> {
        VERBS
            .iter()
            .find(|row| row.opcode == Some(opcode))
            .map(|row| row.verb)
    }
}

/// A parsed request. Text verbs arrive as the text parser typed them;
/// frames as [`frame::decode_request`] decoded them, except the two
/// batched read verbs, whose rows decode zero-copy into the worker's
/// [`ReadScratch`].
enum Req<'a> {
    Text(Request),
    /// `OP_PING`, `OP_INGEST` or `OP_LOG_SUBSCRIBE`.
    Frame(BinRequest),
    /// `OP_MARGINAL`: the vote rows are in the scratch.
    Marginal,
    /// `OP_PREDICT`: the scratch's feature-name ranges index this
    /// payload.
    Predict(&'a [u8]),
}

/// A refused request. Malformed input counts against
/// `snorkel_serve_parse_errors_total`; a well-formed request the
/// session rejects does not.
struct VerbError {
    message: String,
    is_parse_error: bool,
}

impl<S: Into<String>> From<S> for VerbError {
    fn from(message: S) -> VerbError {
        VerbError {
            message: message.into(),
            is_parse_error: false,
        }
    }
}

/// What an ingest batch did — the fields of both planes' replies.
pub(crate) struct IngestSummary {
    gen: u64,
    rows: u64,
    total: u64,
    report: IngestReport,
}

/// A successful reply, before rendering. A verb both planes carry has a
/// typed variant and one renderer per plane; a verb only the text plane
/// has is answered by the line(s) its handler wrote. Posterior rows
/// stay in the worker's [`ReadScratch`] (`width` classes per row), so
/// the batched read verbs build a reply without allocating.
pub(crate) enum Reply {
    Pong {
        gen: u64,
    },
    Marginal {
        gen: u64,
        width: usize,
    },
    Predict {
        gen: u64,
        disc_gen: u64,
        width: usize,
    },
    Ingest(IngestSummary),
    SubAck {
        next: u64,
        tip: u64,
        gen: u64,
    },
    /// A text-only verb's reply, header line first.
    Lines(String),
    /// `SHUTDOWN`'s `OK bye`: the connection closes behind it.
    Bye,
}

impl Reply {
    /// Append the text-plane reply line(s). `METRICS`/`SLOWLOG` embed
    /// payload newlines; their header's `lines=<k>` tells clients how
    /// much follows.
    fn render_text(&self, scratch: &ReadScratch, out: &mut Vec<u8>) {
        let probs = |width: &usize| format_probs(&scratch.probs()[..*width]);
        // Writing into a `Vec` cannot fail.
        let _ = match self {
            Reply::Pong { .. } => write!(out, "OK pong"),
            Reply::Marginal { gen, width } => write!(out, "OK gen={gen} p={}", probs(width)),
            Reply::Predict {
                gen,
                disc_gen,
                width,
            } => {
                write!(out, "OK gen={gen} disc_gen={disc_gen} p={}", probs(width))
            }
            Reply::Ingest(s) => write!(
                out,
                "OK gen={} rows={} total={} online={} drift={} refit={}",
                s.gen,
                s.rows,
                s.total,
                u8::from(s.report.online_fit),
                s.report.drift_score,
                u8::from(s.report.auto_refit)
            ),
            Reply::Lines(text) => out.write_all(text.as_bytes()),
            Reply::Bye => write!(out, "OK bye"),
            Reply::SubAck { .. } => unreachable!("LOG_SUBSCRIBE has no text form"),
        };
        out.push(b'\n');
    }

    /// Append the binary-plane OK frame. The batched read verbs encode
    /// straight from the scratch into `out` (the connection's
    /// capacity-retaining output buffer) — the allocation-free path.
    fn encode_frame(&self, scratch: &ReadScratch, out: &mut Vec<u8>) {
        match self {
            &Reply::Marginal { gen, width } => {
                frame::encode_marginal_reply_flat_into(gen, scratch.probs(), width, out);
            }
            &Reply::Predict {
                gen,
                disc_gen,
                width,
            } => {
                frame::encode_predict_reply_flat_into(gen, disc_gen, scratch.probs(), width, out);
            }
            &Reply::Pong { gen } => out.extend_from_slice(&frame::encode_pong(gen)),
            Reply::Ingest(s) => out.extend_from_slice(&frame::encode_ingest_reply(
                s.gen,
                s.rows,
                s.total,
                s.report.online_fit,
                s.report.drift_score,
                s.report.auto_refit,
            )),
            &Reply::SubAck { next, tip, gen } => {
                out.extend_from_slice(&frame::encode_sub_ack(next, tip, gen));
            }
            Reply::Lines(_) | Reply::Bye => unreachable!("reply of a text-only verb"),
        }
    }
}

/// Parse, account, execute and answer one complete request as the
/// connection state machine framed it — a binary frame's `opcode` and
/// payload `bytes`, or (no opcode) a text line without its newline —
/// appending the reply to `out`. Returns the reply when the request
/// succeeded (the state machine acts on [`Reply::Bye`] and
/// [`Reply::SubAck`]). `tail` is the connection's subscription cursor,
/// if it holds one.
///
/// Per-verb accounting happens here, once, for both planes: request and
/// error counts, latency histogram and trace-ring entry (`SLOWLOG`),
/// batch items and sizes, `queries`. Handles were resolved at server
/// start, so nothing here allocates or locks the registry; timing is
/// inlined (rather than a `Span`, which would clone an `Arc` per
/// request) to keep the read path under its overhead budget.
pub(crate) fn dispatch(
    core: &Core,
    opcode: Option<u8>,
    bytes: &[u8],
    tail: Option<u64>,
    scratch: &mut ReadScratch,
    out: &mut Vec<u8>,
) -> Option<Reply> {
    let start = Instant::now();
    // Parse: the verb (an unparseable text line names none), the
    // request, and how many rows it carries (0 for unbatched verbs).
    let (verb, parsed) = match opcode {
        // Reject rather than substitute U+FFFD: a mangled APPLY or
        // REFRESH spec must not reach the session looking legitimate.
        None => match std::str::from_utf8(bytes)
            .map_err(|_| "invalid utf-8".to_string())
            .and_then(parse_request)
        {
            Ok(request) => {
                let items = u64::from(matches!(
                    request,
                    Request::Marginal { .. }
                        | Request::Apply { .. }
                        | Request::Predict { .. }
                        | Request::PredictText { .. }
                        | Request::Ingest { .. }
                ));
                (Some(request.id()), Ok((Req::Text(request), items)))
            }
            Err(e) => (None, Err(e)),
        },
        // The owned codec also words the unknown-opcode and server-push
        // refusals.
        Some(opcode) => {
            let verb = Verb::from_opcode(opcode).unwrap_or(Verb::Unknown);
            let parsed = match verb {
                Verb::Marginal => hotpath::decode_marginal(bytes, scratch)
                    .map(|rows| (Req::Marginal, rows as u64)),
                Verb::Predict => hotpath::decode_predict(bytes, scratch)
                    .map(|rows| (Req::Predict(bytes), rows as u64)),
                _ => frame::decode_request(opcode, bytes).map(|request| {
                    let rows = match &request {
                        BinRequest::Ingest(rows) => rows.len() as u64,
                        _ => 0,
                    };
                    (Req::Frame(request), rows)
                }),
            };
            (Some(verb), parsed)
        }
    };
    let text = opcode.is_none();
    let obs = verb.map(|verb| core.obs.plane(text, verb));
    if let Some(obs) = obs {
        obs.requests.inc();
    }
    let result = match parsed {
        Err(message) => Err(VerbError {
            message,
            is_parse_error: true,
        }),
        Ok((req, items)) => {
            let row = verb.expect("a parsed request names its verb").row();
            if items > 0 {
                if let Some(batch_items) = obs.and_then(|obs| obs.items.as_ref()) {
                    batch_items.add(items);
                    core.obs.batch_size.record_ns(items);
                }
                if !row.mutates {
                    core.queries.fetch_add(items, Ordering::Relaxed);
                }
            }
            if row.mutates && node::is_follower(core) {
                Err("readonly (follower serves reads; PROMOTE to accept writes)".into())
            } else {
                handle(core, req, tail, scratch)
            }
        }
    };
    match &result {
        Ok(reply) if text => reply.render_text(scratch, out),
        Ok(reply) => reply.encode_frame(scratch, out),
        Err(e) => {
            if e.is_parse_error {
                core.obs.parse_errors.inc();
            }
            if let Some(obs) = obs {
                obs.errors.inc();
            }
            if text {
                let _ = writeln!(out, "ERR {}", e.message);
            } else {
                out.extend_from_slice(&frame::encode_err(&e.message));
            }
        }
    }
    if let (Some(obs), Some(verb)) = (obs, verb) {
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        obs.latency.record_ns(ns);
        if trace_level() >= TraceLevel::Info {
            TraceRing::global().record(verb.row().name, ns);
        }
    }
    result.ok()
}

/// The handler for each request. A text `MARGINAL`/`PREDICT` loads its
/// one row into the scratch and shares the batched handler (and memo)
/// with the binary plane.
fn handle(
    core: &Core,
    req: Req<'_>,
    tail: Option<u64>,
    scratch: &mut ReadScratch,
) -> Result<Reply, VerbError> {
    match req {
        Req::Marginal => marginal(core, scratch),
        Req::Text(Request::Marginal { cols, votes }) => {
            scratch.set_vote_row(&cols, &votes);
            marginal(core, scratch)
        }
        Req::Predict(names) => predict(core, names, scratch),
        Req::Text(Request::Predict { features }) => {
            // Literally a one-row `OP_PREDICT`, through its codec.
            let frame = frame::encode_predict(&[features]);
            let payload = &frame[frame::FRAME_HEADER_BYTES..];
            hotpath::decode_predict(payload, scratch)?;
            predict(core, payload, scratch)
        }
        // The text reply carries no generation, so a text `PING` never
        // touches the state lock.
        Req::Text(Request::Ping) => Ok(Reply::Pong { gen: 0 }),
        Req::Frame(BinRequest::Ping) => Ok(Reply::Pong {
            gen: core.read_state().generation,
        }),
        Req::Text(Request::Apply { span1, span2, text }) => {
            apply(core, span1, span2, text, scratch)
        }
        Req::Text(Request::PredictText { span1, span2, text }) => {
            predict_text(core, span1, span2, text, scratch)
        }
        Req::Text(Request::Ingest { rows }) | Req::Frame(BinRequest::Ingest(rows)) => {
            ingest(core, rows)
        }
        Req::Text(Request::Refresh(edit)) => refresh(core, edit),
        Req::Text(Request::Snapshot { path }) => snapshot(core, path),
        Req::Text(Request::Stats) => Ok(Reply::Lines(stats(core))),
        Req::Text(Request::Metrics) => Ok(Reply::Lines(metrics(core))),
        Req::Text(Request::Slowlog { n }) => Ok(Reply::Lines(slowlog(n))),
        Req::Text(Request::Promote) => Ok(Reply::Lines(format!(
            "OK role=leader lsn={}",
            node::promote(core)?
        ))),
        Req::Text(Request::Shutdown) => {
            core.trigger_shutdown();
            Ok(Reply::Bye)
        }
        Req::Frame(BinRequest::LogSubscribe { from }) => {
            if let Some(next) = tail {
                return Err(format!("already subscribed at lsn {next}").into());
            }
            let (next, tip, gen) = node::subscribe_grant(core, from)?;
            Ok(Reply::SubAck { next, tip, gen })
        }
    }
}

/// `MARGINAL` on both planes: the decoded vote rows go through
/// [`hotpath::compute_marginal`] and the shared signature memo under
/// one read-lock hold, so the planes answer bit-identically and warm
/// each other's memo.
fn marginal(core: &Core, scratch: &mut ReadScratch) -> Result<Reply, VerbError> {
    let state = core.read_state();
    let outcome = hotpath::compute_marginal(&state.session, state.generation, &core.memo, scratch)?;
    core.memo_hits
        .fetch_add(outcome.memo_hits, Ordering::Relaxed);
    Ok(Reply::Marginal {
        gen: state.generation,
        width: outcome.width,
    })
}

/// `PREDICT` on both planes: distilled-model posteriors for raw
/// (pre-hashed-name) features — answers for candidates with zero LF
/// coverage. Runs entirely under the read lock; the reply's `disc_gen`
/// says which refresh generation the serving model was trained on (it
/// can lag `gen` while a retrain runs — reads never wait for one).
fn predict(core: &Core, names: &[u8], scratch: &mut ReadScratch) -> Result<Reply, VerbError> {
    let state = core.read_state();
    let outcome = hotpath::compute_predict(&state.session, names, scratch)?;
    Ok(Reply::Predict {
        gen: state.generation,
        disc_gen: outcome.disc_gen,
        width: outcome.width,
    })
}

/// Build a transient two-span candidate in a scratch corpus (serving a
/// labeling query must not grow server state) — the server-side half of
/// the `APPLY`/`PREDICT_TEXT` shared grammar, tokenized and
/// span-validated exactly like an `INGEST` row.
fn transient_candidate(
    span1: (usize, usize),
    span2: (usize, usize),
    text: String,
) -> Result<(Corpus, CandidateId), String> {
    let row = repl::prepare_ingest(&[(span1, span2, text)])?;
    let mut probe = Corpus::new();
    let cand = row.append_to(&mut probe, "probe")[0];
    Ok((probe, cand))
}

fn apply(
    core: &Core,
    span1: (usize, usize),
    span2: (usize, usize),
    text: String,
    scratch: &mut ReadScratch,
) -> Result<Reply, VerbError> {
    let (probe, cand) = transient_candidate(span1, span2, text)?;
    let state = core.read_state();
    let session = &state.session;
    let votes = session.apply_lfs(&probe.candidate(cand));
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
    let width = LabelScheme::from_cardinality(cardinality).num_classes();
    hotpath::posterior_row(
        model,
        session.num_lfs(),
        cardinality,
        &non_abstain.0,
        &non_abstain.1,
        scratch.start_probs(width),
    )?;
    let votes: Vec<String> = votes.iter().map(Vote::to_string).collect();
    Ok(Reply::Lines(format!(
        "OK gen={} votes={} p={}",
        state.generation,
        votes.join(","),
        format_probs(scratch.probs())
    )))
}

/// Featurize a transient two-span candidate (same grammar as `APPLY`)
/// into the worker's reusable feature row and answer from the distilled
/// model.
fn predict_text(
    core: &Core,
    span1: (usize, usize),
    span2: (usize, usize),
    text: String,
    scratch: &mut ReadScratch,
) -> Result<Reply, VerbError> {
    let (probe, cand) = transient_candidate(span1, span2, text)?;
    let state = core.read_state();
    let Some(disc) = state.session.disc() else {
        return Err("no distilled model (enable distillation and REFRESH)".into());
    };
    let width = disc.model.num_classes();
    let (x, probs) = scratch.start_feature_row(width);
    disc.config
        .featurizer
        .featurize_into(&probe.candidate(cand), x);
    disc.model.predict_proba_into(x, probs);
    Ok(Reply::Predict {
        gen: state.generation,
        disc_gen: disc.generation,
        width,
    })
}

/// Execute one ingest batch — text `INGEST` and binary `OP_INGEST`.
///
/// Admission first: the bounded ingest gate is tried before any work; a
/// full gate refuses with `backpressure` (never queues) and the permit
/// is held for the whole execution so the gate depth counts in-flight
/// ingests honestly. Tokenization and span validation run outside the
/// lock, through the shared replication entry points — the same code
/// path a follower replays through; the write lock covers only the
/// corpus append and the session's `ingest_batch` (cache-extend, Λ row
/// splice, online moment solve). A batch is atomic: nothing is
/// ingested unless every row validates.
fn ingest(core: &Core, rows: Vec<IngestRow>) -> Result<Reply, VerbError> {
    let Some(_permit) = core.ingest_gate.try_enter() else {
        core.obs.backpressure.inc();
        return Err(format!(
            "backpressure: ingest queue full ({} in flight, capacity {})",
            core.ingest_gate.depth(),
            core.ingest_gate.capacity()
        )
        .into());
    };
    core.obs
        .ingest_queue_depth
        .set(core.ingest_gate.depth().min(i64::MAX as usize) as i64);
    let prepared = repl::prepare_ingest(&rows)?;
    let row_count = prepared.len() as u64;
    let mut state = core.write_state();
    let st = &mut *state;
    let report = repl::apply_ingest(&mut st.session, &mut st.generation, prepared);
    node::log_op(core, st, &wal::Op::Ingest(rows));
    Ok(Reply::Ingest(IngestSummary {
        gen: st.generation,
        rows: row_count,
        total: st.session.num_candidates() as u64,
        report,
    }))
}

fn refresh(core: &Core, edit: Option<SuiteEdit>) -> Result<Reply, VerbError> {
    // Phase 1 (write lock): suite edit + label-model refresh through
    // the shared replication entry point (the same code path a follower
    // replays through), then the op-log append — the record carries the
    // post-refresh generation. The distillation training set is cloned
    // out before the lock drops so the expensive disc retrain below
    // runs lock-free.
    let (reply, training_set) = {
        let mut state = core.write_state();
        let st = &mut *state;
        let (report, training_set) =
            repl::apply_refresh(&mut st.session, &mut st.generation, edit.as_ref())?;
        core.refreshes.fetch_add(1, Ordering::Relaxed);
        node::log_op(core, st, &wal::Op::Refresh(edit));
        let reply = format!(
            "OK gen={} strategy={} backend={} rows={} lfs={} lf_invocations={} \
             columns_recomputed={} columns_reused={} columns_extended={} \
             warm_started={} unique_patterns={} disc={}",
            st.generation,
            match report.strategy {
                ModelingStrategy::MajorityVote => "mv",
                ModelingStrategy::MomentMatching => "moment",
                ModelingStrategy::GenerativeModel { .. } => "gm",
            },
            report.backend,
            st.session.num_candidates(),
            st.session.num_lfs(),
            report.lf_invocations,
            report.columns_recomputed,
            report.columns_reused,
            report.columns_extended,
            report.warm_started,
            report.unique_patterns,
            if training_set.is_some() {
                "retraining"
            } else {
                "-"
            },
        );
        (reply, training_set)
    };
    // Phase 2 (no lock): distill. Concurrent MARGINAL/PREDICT reads are
    // served meanwhile — from the previous disc model, whose `disc_gen=`
    // makes the staleness visible. Phase 3 (short write lock): install.
    if let Some(set) = training_set {
        core.train_and_install(set);
    }
    Ok(Reply::Lines(reply))
}

fn snapshot(core: &Core, path: Option<String>) -> Result<Reply, VerbError> {
    let Some(path) = path
        .map(PathBuf::from)
        .or_else(|| core.snapshot_path.clone())
    else {
        return Err("no snapshot path configured".into());
    };
    match core.write_snapshot(&path) {
        Ok(bytes) => Ok(Reply::Lines(format!(
            "OK bytes={bytes} path={}",
            path.display()
        ))),
        Err(e) => Err(format!("snapshot failed: {e}").into()),
    }
}

fn stats(core: &Core) -> String {
    let state = core.read_state();
    core.publish_gauges(&state);
    let cache = state.session.cache_stats();
    let (memo_size, memo_gen) = {
        let memo = lock_unpoisoned(&core.memo);
        (memo.len(), memo.generation())
    };
    let disc = match state.session.disc() {
        None => "-".to_string(),
        Some(d) if state.session.disc_is_stale() => format!("{}(stale)", d.generation),
        Some(d) => d.generation.to_string(),
    };
    let drift_score = state
        .session
        .stream()
        .map_or_else(|| "-".to_string(), |s| s.drift_score().to_string());
    let role = if node::is_follower(core) {
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
        core.open_conns.load(Ordering::Relaxed),
        core.queries.load(Ordering::Relaxed),
        core.memo_hits.load(Ordering::Relaxed),
        core.refreshes.load(Ordering::Relaxed),
        core.snapshots_written.load(Ordering::Relaxed),
        cache.hits,
        cache.misses,
        cache.extensions,
        state.session.cache_len(),
        state.session.cache_capacity(),
        core.scratch_high.load(Ordering::Relaxed),
        core.ingest_gate.depth(),
        core.ingest_gate.capacity(),
        state.applied_lsn,
        state.session.lf_names().join(","),
    )
}

/// `METRICS`: refresh the point-in-time serve gauges, then expose the
/// whole process-global registry as Prometheus text. The reply is the
/// only multi-line response besides `SLOWLOG`: a header announcing the
/// series and line counts, then the exposition verbatim.
fn metrics(core: &Core) -> String {
    core.publish_gauges(&core.read_state());
    let registry = snorkel_obs::global();
    let text = registry.expose();
    let mut out = format!(
        "OK series={} lines={}",
        registry.num_series(),
        text.lines().count()
    );
    for line in text.lines() {
        out.push('\n');
        out.push_str(line);
    }
    out
}

/// `SLOWLOG <n>`: the `n` slowest spans still buffered in the global
/// trace ring, slowest first. One payload line per entry.
fn slowlog(n: usize) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rows_sit_at_their_verbs_index_and_names_are_unique_per_plane() {
        for (i, row) in VERBS.iter().enumerate() {
            assert_eq!(row.verb as usize, i, "{} is out of place", row.name);
            assert!(row.opcode.is_some() || !row.push_only);
            if row.text {
                assert_eq!(Verb::from_keyword(row.name), Some(row.verb));
            }
            if let Some(opcode) = row.opcode {
                assert_eq!(Verb::from_opcode(opcode), Some(row.verb));
                assert_eq!(frame::opcode_name(opcode), Some(row.name));
            }
        }
        assert_eq!(Verb::from_keyword("LOG_SUBSCRIBE"), None, "binary only");
        assert_eq!(Verb::from_keyword("UNKNOWN"), None);
        assert_eq!(frame::opcode_name(0x7E), None);
    }

    #[test]
    fn every_text_row_has_a_parser_arm() {
        for row in VERBS.iter().filter(|row| row.text) {
            match parse_request(row.name) {
                Ok(request) => assert_eq!(request.verb(), row.name),
                Err(e) => assert!(!e.starts_with("unknown command"), "{}: {e}", row.name),
            }
        }
    }
}

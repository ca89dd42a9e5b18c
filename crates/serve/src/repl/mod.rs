//! Leader/follower replication: a checksummed write-ahead log of
//! mutating ops, an in-memory op log for live tailing, and the shared
//! replay entry points that make a follower's state bit-identical to
//! the leader's at every LSN.
//!
//! The division of labor:
//!
//! * [`wal`] — the on-disk log format and its torn-tail recovery.
//! * [`leader`] — the in-memory [`OpLog`](leader::OpLog) subscribers
//!   tail over `OP_LOG_SUBSCRIBE`.
//! * [`follower`] — the tailing client (subscribe, heartbeat tracking,
//!   reconnect backoff).
//! * this module — [`apply_op`] and friends: the *single* code path
//!   through which a mutation reaches an [`IncrementalSession`], used
//!   identically by the leader's request handlers, WAL recovery at
//!   boot, and the follower's live tail. One code path is what makes
//!   "replica marginals are bit-identical" a structural property
//!   instead of a hope.
//!
//! The full log grammar, LSN/generation mapping, promote semantics,
//! and divergence policy are documented in `docs/REPLICATION.md`.

pub mod follower;
pub mod leader;
pub(crate) mod node;
pub mod wal;

use snorkel_context::{CandidateId, Corpus, Token};
use snorkel_incr::{DiscTrainingSet, IncrementalSession, IngestReport, RefreshReport};

use crate::frame::IngestRow;
use crate::protocol::SuiteEdit;
use wal::Op;

/// Replication position carried inside a snapshot: the LSN and server
/// generation the snapshot's state corresponds to. A follower thawing
/// the snapshot resumes tailing at `applied_lsn + 1`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplMark {
    /// Last log sequence number applied to the snapshotted state.
    pub applied_lsn: u64,
    /// Server generation at that LSN.
    pub generation: u64,
}

/// One tokenized, span-validated ingest row awaiting the write lock.
type PreparedRow = ((usize, usize), (usize, usize), String, Vec<Token>);

/// An `INGEST` batch validated and tokenized *outside* any lock.
/// Produced by [`prepare_ingest`], consumed by [`apply_ingest`].
pub struct PreparedIngest {
    rows: Vec<PreparedRow>,
}

impl PreparedIngest {
    /// Number of candidate rows in the batch.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the batch carries no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append every row to `corpus` as a two-span candidate in a
    /// document of its own named `doc`; returns the new candidates.
    pub(crate) fn append_to(self, corpus: &mut Corpus, doc: &str) -> Vec<CandidateId> {
        let mut ids = Vec::with_capacity(self.rows.len());
        for (s1, s2, text, tokens) in self.rows {
            let doc = corpus.add_document(doc);
            let sent = corpus.add_sentence(doc, text, tokens);
            let a = corpus.add_span(sent, s1.0, s1.1, None);
            let b = corpus.add_span(sent, s2.0, s2.1, None);
            ids.push(corpus.add_candidate(vec![a, b]));
        }
        ids
    }
}

/// Tokenize and span-validate an ingest batch. This is the expensive,
/// lock-free half of an ingest; errors reproduce the serving layer's
/// exact messages so leader and replayed refusals read identically.
pub fn prepare_ingest(rows: &[IngestRow]) -> Result<PreparedIngest, String> {
    let mut prepared = Vec::with_capacity(rows.len());
    for (span1, span2, text) in rows {
        let tokens = snorkel_nlp::tokenize(text);
        for (lo, hi) in [*span1, *span2] {
            if lo >= hi || hi > tokens.len() {
                return Err(format!(
                    "span {lo}..{hi} invalid for {} tokens",
                    tokens.len()
                ));
            }
        }
        prepared.push((*span1, *span2, text.clone(), tokens));
    }
    Ok(PreparedIngest { rows: prepared })
}

/// Append a prepared batch to the corpus and absorb it through the
/// streaming plane — the write-lock half of an ingest. Bumps
/// `generation` exactly when the streaming plane refit (online or
/// warm), mirroring the leader's visible generation semantics.
pub fn apply_ingest(
    session: &mut IncrementalSession,
    generation: &mut u64,
    batch: PreparedIngest,
) -> IngestReport {
    let ids = batch.append_to(session.corpus_mut(), "ingest");
    let report = session.ingest_batch(&ids);
    if report.online_fit || report.auto_refit {
        *generation += 1;
    }
    report
}

/// Apply an optional suite edit and refresh — the write-lock half of a
/// `REFRESH`. On success the caller owns the (already computed)
/// [`RefreshReport`] and, when distillation is configured, the
/// training set to run *outside* the lock. Error strings match the
/// serving layer's refusals byte-for-byte.
pub fn apply_refresh(
    session: &mut IncrementalSession,
    generation: &mut u64,
    edit: Option<&SuiteEdit>,
) -> Result<(RefreshReport, Option<DiscTrainingSet>), String> {
    let names: Vec<String> = session.lf_names().iter().map(|n| n.to_string()).collect();
    match edit {
        Some(SuiteEdit::Add(spec)) => {
            if names.iter().any(|n| n == spec.name()) {
                return Err(format!("LF {:?} already exists (use EDIT)", spec.name()));
            }
            let lf = spec.build()?;
            session.add_lf_tagged(lf, spec.content_tag());
        }
        Some(SuiteEdit::Edit(spec)) => {
            if !names.iter().any(|n| n == spec.name()) {
                return Err(format!("LF {:?} not in the suite (use ADD)", spec.name()));
            }
            let lf = spec.build()?;
            session.edit_lf_tagged(lf, spec.content_tag());
        }
        Some(SuiteEdit::Remove(name)) => {
            session
                .remove_lf(name)
                .ok_or_else(|| format!("LF {name:?} not in the suite"))?;
        }
        None => {}
    }
    let (_, report) = session.refresh();
    *generation += 1;
    Ok((report, session.disc_training_set()))
}

/// What one replayed op did to the session.
pub enum Applied {
    /// A refresh ran; `training` is `Some` when a distilled-model
    /// retrain is due (run it outside any lock, then
    /// [`install_disc`](IncrementalSession::install_disc)).
    Refresh {
        /// The refresh's cache/fit report (boxed: it dwarfs the other
        /// variants).
        report: Box<RefreshReport>,
        /// Pending distilled-model training work, if configured.
        training: Option<DiscTrainingSet>,
    },
    /// An ingest batch was absorbed.
    Ingest {
        /// The streaming plane's ingest report.
        report: IngestReport,
    },
    /// A seal: no state change.
    Seal,
}

/// Replay one logged op through the same session entry points the
/// leader's handlers use. `generation` mirrors the server generation
/// and must be compared against the record's `gen_after` afterwards —
/// a mismatch is divergence.
pub fn apply_op(
    session: &mut IncrementalSession,
    generation: &mut u64,
    op: &Op,
) -> Result<Applied, String> {
    match op {
        Op::Refresh(edit) => {
            let (report, training) = apply_refresh(session, generation, edit.as_ref())?;
            Ok(Applied::Refresh {
                report: Box::new(report),
                training,
            })
        }
        Op::Ingest(rows) => {
            let batch = prepare_ingest(rows)?;
            let report = apply_ingest(session, generation, batch);
            Ok(Applied::Ingest { report })
        }
        Op::Seal => Ok(Applied::Seal),
    }
}

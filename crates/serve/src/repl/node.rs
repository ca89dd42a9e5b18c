//! The replication plane of one running server: the on-disk WAL and
//! in-memory op log, boot recovery, op logging under the write lock,
//! subscription grants, `PROMOTE`, and the follower's tail thread.
//!
//! [`apply_record`] is the one way a logged record reaches a session —
//! boot recovery and the live tail both go through it, so they agree on
//! what divergence is.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use snorkel_incr::{DiscTrainingSet, IncrementalSession};
use snorkel_obs::{Counter, Gauge};

use super::follower::{Backoff, ConnectError, TailConn, TailEvent};
use super::leader::OpLog;
use super::wal::{self, WalFile};
use super::{apply_ingest, apply_op, prepare_ingest, Applied, PreparedIngest, ReplMark};
use crate::core::{lock_unpoisoned, Core, ServeState};
use crate::server::ServeConfig;

/// Pre-resolved handles for the replication plane (documented in
/// `docs/OBSERVABILITY.md`, spec in `docs/REPLICATION.md`).
pub(crate) struct ReplObs {
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
    pub(crate) subscribers: Arc<Gauge>,
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
/// path or a leader address (`ServeConfig::wal_path` /
/// `ServeConfig::follow`).
pub(crate) struct Repl {
    /// In-memory op log since the boot snapshot — what subscribers tail.
    pub(crate) oplog: OpLog,
    /// On-disk WAL, when configured. Appends happen under the state
    /// write lock, which also serializes LSN assignment.
    wal: Option<Mutex<WalFile>>,
    /// Leader address this server tails, when started as a follower.
    pub(crate) follow: Option<String>,
    /// [`ROLE_LEADER`] or [`ROLE_FOLLOWER`]; flipped (once) by
    /// `PROMOTE`.
    role: AtomicU8,
    /// Set by `PROMOTE` to stop the tail thread; checked under the
    /// write lock so no replayed record can land after the seal.
    tail_stop: AtomicBool,
    pub(crate) obs: ReplObs,
}

impl Repl {
    /// Bring up the replication plane at boot, if `config` asks for one
    /// (a WAL path or a leader to follow). With a WAL path the existing
    /// file is recovered into `session` first (see [`recover_wal`]).
    /// Returns the plane and the position the served state ends up at —
    /// the snapshot's mark advanced past every replayed record.
    pub(crate) fn boot(
        session: &mut IncrementalSession,
        config: &ServeConfig,
    ) -> std::io::Result<(Option<Repl>, ReplMark)> {
        if config.wal_path.is_none() && config.follow.is_none() {
            return Ok((None, ReplMark::default()));
        }
        let mark = config.repl_mark.unwrap_or_default();
        let (wal, oplog, at) = match &config.wal_path {
            Some(path) => {
                let (wal, oplog, at) = recover_wal(session, path, mark)?;
                (Some(Mutex::new(wal)), oplog, at)
            }
            None => (None, OpLog::new(mark.applied_lsn), mark),
        };
        let obs = ReplObs::resolve();
        obs.applied_lsn
            .set(at.applied_lsn.min(i64::MAX as u64) as i64);
        let role = if config.follow.is_some() {
            ROLE_FOLLOWER
        } else {
            ROLE_LEADER
        };
        let repl = Repl {
            oplog,
            wal,
            follow: config.follow.clone(),
            role: AtomicU8::new(role),
            tail_stop: AtomicBool::new(false),
            obs,
        };
        Ok((Some(repl), at))
    }
}

/// Apply one logged record to `session` and check it lands on the
/// generation the log says it did. `prepared` is the record's ingest
/// batch when the caller already tokenized it (the live tail does so
/// before taking the write lock); otherwise the op prepares its own.
/// Returns the distilled-model retrain the op made due, to be run
/// outside any lock.
fn apply_record(
    session: &mut IncrementalSession,
    generation: &mut u64,
    rec: &wal::Record,
    prepared: Option<PreparedIngest>,
) -> Result<Option<DiscTrainingSet>, String> {
    let applied = match prepared {
        Some(batch) => {
            apply_ingest(session, generation, batch);
            Ok(None)
        }
        None => apply_op(session, generation, &rec.op).map(|applied| match applied {
            Applied::Refresh { training, .. } => training,
            Applied::Ingest { .. } | Applied::Seal => None,
        }),
    };
    let lsn = rec.lsn;
    let training = applied.map_err(|e| format!("replay failed at lsn {lsn}: {e}"))?;
    if *generation != rec.gen_after {
        return Err(format!(
            "replay diverged at lsn {lsn}: reached generation {generation} but the log says {}",
            rec.gen_after
        ));
    }
    Ok(training)
}

/// Recover the on-disk WAL at boot: truncate any torn tail, verify the
/// log agrees with the snapshot mark, replay every record past the mark
/// through the same entry points live traffic uses, and seed the
/// in-memory op log so subscribers can resume from anywhere the file
/// covers. Any contradiction between the log and the snapshot is a
/// startup error — never a silent partial replay.
fn recover_wal(
    session: &mut IncrementalSession,
    path: &Path,
    mark: ReplMark,
) -> std::io::Result<(WalFile, OpLog, ReplMark)> {
    let refuse = |why: String| std::io::Error::other(format!("WAL {}: {why}", path.display()));
    let (wal_file, scan) =
        WalFile::open_or_create(path, mark.applied_lsn).map_err(|e| refuse(e.to_string()))?;
    let different_histories = "the log and the snapshot are from different histories";
    let at_mark = mark.applied_lsn;
    if scan.base_lsn > at_mark {
        return Err(refuse(format!(
            "begins after lsn {} but the snapshot mark is {at_mark} — {different_histories}",
            scan.base_lsn
        )));
    }
    match scan.records.last() {
        Some(last) if last.lsn < at_mark => {
            return Err(refuse(format!(
                "ends at lsn {} before the snapshot mark {at_mark} — {different_histories}",
                last.lsn
            )));
        }
        None if scan.base_lsn != at_mark => {
            return Err(refuse(format!(
                "empty, based at lsn {}, does not match the snapshot mark {at_mark}",
                scan.base_lsn
            )));
        }
        _ => {}
    }
    let oplog = OpLog::new(scan.base_lsn);
    let mut at = mark;
    for rec in &scan.records {
        // Re-encode rather than re-frame the file bytes: the scan
        // already checksum-validated every record, and `encode_body` is
        // canonical, so the in-memory log ships subscribers exactly
        // what a live append would have.
        let body = wal::encode_body(rec.lsn, rec.gen_after, &rec.op);
        if rec.lsn > at_mark {
            let training = apply_record(session, &mut at.generation, rec, None).map_err(refuse)?;
            // Recovery is synchronous — no readers yet — so a due disc
            // retrain runs inline instead of through the phased path.
            if let Some(set) = training {
                let (disc_state, _) = set.train();
                session.install_disc(disc_state);
            }
            at.applied_lsn = rec.lsn;
        }
        oplog.append(body.into());
    }
    Ok((wal_file, oplog, at))
}

/// True when this server currently refuses mutations (`ERR readonly`).
pub(crate) fn is_follower(core: &Core) -> bool {
    core.repl
        .as_ref()
        .is_some_and(|r| r.role.load(Ordering::SeqCst) == ROLE_FOLLOWER)
}

/// Append one already-applied op to the log(s), under the same write
/// lock that applied it. No-op on a non-replicated server.
pub(crate) fn log_op(core: &Core, state: &mut ServeState, op: &wal::Op) {
    let Some(repl) = &core.repl else { return };
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
pub(crate) fn subscribe_grant(core: &Core, from: u64) -> Result<(u64, u64, u64), String> {
    let Some(repl) = &core.repl else {
        return Err("not replicated (no WAL or follow address configured)".into());
    };
    // Read lock: the tip cannot advance mid-grant, so `(tip, gen)` is a
    // consistent pair and no record between `from` and `tip` can be
    // missed before the connection's tail cursor is installed.
    let state = core.read_state();
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

/// `PROMOTE`: stop tailing, seal the log, and start accepting writes.
/// Returns the LSN at which this node's authority begins.
pub(crate) fn promote(core: &Core) -> Result<u64, String> {
    let Some(repl) = &core.repl else {
        return Err("not replicated (no WAL or follow address configured)".into());
    };
    if repl.role.load(Ordering::SeqCst) == ROLE_LEADER {
        return Err("already leader".into());
    }
    // Order matters: set the stop flag, then take the write lock. Any
    // in-flight replay either committed before we got the lock (its LSN
    // precedes the seal) or sees the flag under the lock and aborts.
    repl.tail_stop.store(true, Ordering::SeqCst);
    let mut state = core.write_state();
    repl.role.store(ROLE_LEADER, Ordering::SeqCst);
    log_op(core, &mut state, &wal::Op::Seal);
    Ok(state.applied_lsn)
}

/// Leader address poll cadences for the follower tail.
const TAIL_CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Read timeout on the live tail — well above the leader's
/// [`HEARTBEAT_EVERY`](crate::core::HEARTBEAT_EVERY), so a timeout
/// means the leader is gone, not idle.
const TAIL_READ_TIMEOUT: Duration = Duration::from_secs(1);

fn tail_must_stop(core: &Core, repl: &Repl) -> bool {
    core.is_shutdown() || repl.tail_stop.load(Ordering::SeqCst)
}

/// Sleep in small slices, returning early on shutdown or promote.
fn sleep_interruptible(core: &Core, repl: &Repl, total: Duration) {
    let slice = Duration::from_millis(20);
    let mut remaining = total;
    while !remaining.is_zero() && !tail_must_stop(core, repl) {
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
pub(crate) fn follower_loop(core: &Core) {
    let Some(repl) = &core.repl else { return };
    let Some(addr) = repl.follow.clone() else {
        return;
    };
    let mut backoff = Backoff::new();
    'resubscribe: loop {
        if tail_must_stop(core, repl) {
            return;
        }
        let resume = core.read_state().applied_lsn + 1;
        let mut conn =
            match TailConn::connect(&addr, resume, TAIL_CONNECT_TIMEOUT, TAIL_READ_TIMEOUT) {
                Ok(conn) => conn,
                Err(ConnectError::Rejected(msg)) => {
                    repl.obs.replay_errors.inc();
                    eprintln!("snorkel-serve: follower tail halted: {msg}");
                    return;
                }
                Err(ConnectError::Io(_)) => {
                    sleep_interruptible(core, repl, backoff.step());
                    continue 'resubscribe;
                }
            };
        repl.obs.reconnects.inc();
        backoff.reset();
        loop {
            if tail_must_stop(core, repl) {
                return;
            }
            match conn.next_event() {
                Ok(TailEvent::Record(body)) => match apply_replicated(core, repl, &body) {
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
                    let applied = core.read_state().applied_lsn;
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
fn apply_replicated(core: &Core, repl: &Repl, body: &[u8]) -> Result<bool, String> {
    let rec = wal::Record::decode_body(body).map_err(|e| format!("bad pushed record: {e}"))?;
    // Tokenize outside the lock, exactly like the leader's ingest path.
    let prepared = match &rec.op {
        wal::Op::Ingest(rows) => Some(prepare_ingest(rows)?),
        _ => None,
    };
    let mut state = core.write_state();
    if tail_must_stop(core, repl) {
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
    let training = apply_record(&mut st.session, &mut st.generation, &rec, prepared)?;
    if matches!(rec.op, wal::Op::Refresh(_)) {
        core.refreshes.fetch_add(1, Ordering::Relaxed);
    }
    commit_record(repl, st, rec.lsn, body.to_vec());
    repl.obs.ops_replayed.inc();
    drop(state);
    // Disc retrain outside the lock, then a short write lock to
    // install — the same phasing as the leader's REFRESH.
    if let Some(set) = training {
        core.train_and_install(set);
    }
    Ok(true)
}

//! The replication plane of one running server: the on-disk WAL and
//! in-memory op log, boot recovery, op logging under the write lock,
//! group commit, subscription grants, `PROMOTE`, and the follower's
//! tail thread.
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
    /// WAL appends and syncs that failed (serving continues on the
    /// in-memory log; durability is degraded until the next snapshot).
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

/// The node's journal. One lock covers the WAL file and the records
/// appended to it since the last sync, so records reach the op log in
/// LSN order and never ahead of the sync that makes them durable.
struct Journal {
    /// On-disk WAL, when configured.
    wal: Option<WalFile>,
    /// `(lsn, gen_after, body)` of every record appended since the last
    /// [`flush`].
    unsynced: Vec<(u64, u64, Arc<[u8]>)>,
}

/// `Repl::role` values.
const ROLE_LEADER: u8 = 0;
const ROLE_FOLLOWER: u8 = 1;

/// The replication plane: present iff the server was started with a WAL
/// path or a leader address (`ServeConfig::wal_path` /
/// `ServeConfig::follow`).
pub(crate) struct Repl {
    /// In-memory op log since the boot snapshot — what subscribers tail.
    /// A record enters it only once a WAL sync covers it ([`flush`]).
    pub(crate) oplog: OpLog,
    /// The WAL and the records it holds that no sync covers yet.
    /// Appends happen under the state write lock, which also serializes
    /// LSN assignment.
    journal: Mutex<Journal>,
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
                (Some(wal), oplog, at)
            }
            None => (None, OpLog::new(mark), mark),
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
            journal: Mutex::new(Journal {
                wal,
                unsynced: Vec::new(),
            }),
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
    // With no records the base is the mark (checked above); otherwise
    // the last record sets the tip's generation.
    let oplog = OpLog::new(ReplMark {
        applied_lsn: scan.base_lsn,
        generation: mark.generation,
    });
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
        oplog.append(body.into(), rec.gen_after);
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
/// lock that applied it, and sync before that lock drops, so a reply
/// is never sent for a mutation the log does not carry durably. No-op
/// on a non-replicated server.
pub(crate) fn log_op(core: &Core, state: &mut ServeState, op: &wal::Op) {
    let Some(repl) = &core.repl else { return };
    let lsn = state.applied_lsn + 1;
    let body = wal::encode_body(lsn, state.generation, op);
    commit_record(repl, state, lsn, body);
    flush(core);
}

/// Journal one encoded record body at `lsn` and advance the applied
/// LSN, inside the caller's write-lock critical section: the body goes
/// to the WAL (when configured) unsynced and waits in the journal until
/// [`flush`] makes it durable and publishes it.
fn commit_record(repl: &Repl, state: &mut ServeState, lsn: u64, body: Vec<u8>) {
    let mut journal = lock_unpoisoned(&repl.journal);
    if let Some(wal) = &mut journal.wal {
        match wal.append_body(lsn, &body) {
            Ok(bytes) => {
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
    journal.unsynced.push((lsn, state.generation, body.into()));
    state.applied_lsn = lsn;
    repl.obs.applied_lsn.set(lsn.min(i64::MAX as u64) as i64);
}

/// Group commit: make every journaled record durable with one WAL sync,
/// then append them to the op log in LSN order and wake the workers
/// holding a tail, so subscribers get them now. A no-op when nothing
/// is pending or the server is not replicated. It takes only the
/// journal lock: the leader calls it under the state write lock (via
/// [`log_op`]), a follower's tail thread outside it, once per drained
/// burst.
pub(crate) fn flush(core: &Core) {
    let Some(repl) = &core.repl else { return };
    let mut guard = lock_unpoisoned(&repl.journal);
    let journal = &mut *guard;
    let Some(&(last, ..)) = journal.unsynced.last() else {
        return;
    };
    if let Some(wal) = &mut journal.wal {
        if let Err(e) = wal.sync() {
            repl.obs.wal_append_errors.inc();
            eprintln!("snorkel-serve: WAL sync failed at lsn {last}: {e}");
        }
    }
    for (_, gen_after, body) in journal.unsynced.drain(..) {
        repl.oplog.append(body, gen_after);
    }
    drop(guard);
    core.wake_tails();
}

/// Validate an `OP_LOG_SUBSCRIBE` resume point and return
/// `(next, tip, gen)` for the acknowledgment. Subscriptions are served
/// by any replicated server regardless of role, so replicas can chain
/// and an ex-follower keeps its subscribers after a `PROMOTE`.
pub(crate) fn subscribe_grant(core: &Core, from: u64) -> Result<(u64, u64, u64), String> {
    let Some(repl) = &core.repl else {
        return Err("not replicated (no WAL or follow address configured)".into());
    };
    // The op log's tip and the generation after it are one consistent
    // pair; the cursor reads the log by LSN, so no record past `tip` can
    // be missed.
    let ReplMark {
        applied_lsn: tip,
        generation,
    } = repl.oplog.tip();
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
    Ok((from, tip, generation))
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
    // precedes the seal, and the seal's sync publishes it first) or
    // sees the flag under the lock and aborts.
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

/// A follower syncs its WAL at least once per this many replayed
/// records, even while its leader keeps the tail's read buffer full.
const FLUSH_EVERY: usize = 64;

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
    loop {
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
                    continue;
                }
            };
        repl.obs.reconnects.inc();
        backoff.reset();
        let resubscribe = tail(core, repl, &mut conn);
        // However the stream ended (stop, halt or reconnect), every
        // record it applied is synced and published.
        flush(core);
        if !resubscribe {
            return;
        }
    }
}

/// Replay one live stream until it ends. Returns `true` to resubscribe
/// from the last applied LSN (timeout or disconnect), `false` to stop
/// (shutdown, promote or a replay failure).
fn tail(core: &Core, repl: &Repl, conn: &mut TailConn) -> bool {
    let mut unsynced = 0;
    loop {
        if tail_must_stop(core, repl) {
            return false;
        }
        match conn.next_event() {
            Ok(TailEvent::Record(body)) => match apply_replicated(core, repl, body) {
                Ok(true) => {
                    // Group commit: sync once the burst the leader sent
                    // is drained from the read buffer (a buffer check,
                    // not a syscall), or every FLUSH_EVERY records.
                    unsynced += 1;
                    if unsynced >= FLUSH_EVERY || !conn.has_buffered() {
                        flush(core);
                        unsynced = 0;
                    }
                }
                Ok(false) => return false,
                Err(e) => {
                    repl.obs.replay_errors.inc();
                    eprintln!("snorkel-serve: follower tail halted: {e}");
                    return false;
                }
            },
            Ok(TailEvent::Heartbeat { tip, .. }) => {
                repl.obs.heartbeats.inc();
                let applied = core.read_state().applied_lsn;
                repl.obs
                    .lag_records
                    .set(tip.saturating_sub(applied).min(i64::MAX as u64) as i64);
            }
            Err(_) => return true,
        }
    }
}

/// Replay one record pushed over the live tail: apply it, journal it
/// unsynced and advance the applied LSN, all under the write lock; the
/// tail thread's [`flush`] makes it durable and publishes it.
/// `Ok(false)` means the tail must stop (shutdown or promote won the
/// race); `Err` is a permanent halt (corrupt record, LSN gap,
/// divergence).
fn apply_replicated(core: &Core, repl: &Repl, body: Vec<u8>) -> Result<bool, String> {
    let rec = wal::Record::decode_body(&body).map_err(|e| format!("bad pushed record: {e}"))?;
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
    commit_record(repl, st, rec.lsn, body);
    repl.obs.ops_replayed.inc();
    drop(state);
    // Disc retrain outside the lock, then a short write lock to
    // install — the same phasing as the leader's REFRESH. The refresh
    // and the burst before it are synced and published first, so
    // subscribers do not wait out the distillation.
    if let Some(set) = training {
        flush(core);
        core.train_and_install(set);
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use snorkel_context::Corpus;
    use snorkel_incr::SessionConfig;

    use super::*;
    use crate::snap::Snapshot;

    fn temp_path(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("snorkel-node-test-{}-{name}", std::process::id()))
    }

    /// A follower core journaling to a fresh WAL. No server runs it, so
    /// there is no tail thread: the test replays records itself.
    fn follower_core(wal_path: &Path) -> Core {
        let _ = std::fs::remove_file(wal_path);
        let config = ServeConfig {
            follow: Some("127.0.0.1:9".into()),
            wal_path: Some(wal_path.to_path_buf()),
            ..ServeConfig::default()
        };
        let mut session = IncrementalSession::new(Corpus::new(), SessionConfig::default());
        let (repl, mark) = Repl::boot(&mut session, &config).expect("fresh WAL");
        Core::new(session, mark, repl, &config, Vec::new(), None)
    }

    fn replay_seal(core: &Core, lsn: u64) {
        let repl = core.repl.as_ref().expect("replicated");
        let body = wal::encode_body(lsn, 0, &wal::Op::Seal);
        assert_eq!(apply_replicated(core, repl, body), Ok(true));
    }

    #[test]
    fn replayed_records_are_published_only_after_the_sync_that_covers_them() {
        let (wal_path, snap_path) = (temp_path("gc.wal"), temp_path("gc.snap"));
        let core = follower_core(&wal_path);
        let repl = core.repl.as_ref().expect("replicated");
        // What a subscription ack or a heartbeat advertises.
        let published = || repl.oplog.tip().applied_lsn;

        // Applied and journaled, but no sync yet: nothing is served.
        replay_seal(&core, 1);
        replay_seal(&core, 2);
        assert_eq!(core.read_state().applied_lsn, 2);
        assert_eq!(published(), 0);
        flush(&core);
        assert_eq!(published(), 2);

        // A snapshot syncs the pending burst before it reads its mark.
        replay_seal(&core, 3);
        core.write_snapshot(&snap_path).expect("snapshot");
        let mark = Snapshot::read_file(&snap_path)
            .expect("read snapshot")
            .repl
            .expect("mark");
        assert_eq!((mark.applied_lsn, published()), (3, 3));

        // The seal follows every applied record, in the WAL and the op
        // log alike.
        replay_seal(&core, 4);
        assert_eq!(promote(&core), Ok(5));
        assert_eq!(published(), 5);
        let scan = wal::scan(&std::fs::read(&wal_path).expect("WAL")).expect("WAL scans");
        let lsns: Vec<u64> = scan.records.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, [1, 2, 3, 4, 5]);
        for rec in &scan.records {
            let body = repl.oplog.get(rec.lsn).expect("published");
            assert_eq!(wal::Record::decode_body(&body).expect("body").lsn, rec.lsn);
        }
        let _ = std::fs::remove_file(&wal_path);
        let _ = std::fs::remove_file(&snap_path);
    }
}

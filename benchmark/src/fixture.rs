//! What the serve workloads stand on: the seeded serving session, the
//! servers (always `workers: 2`), the leader/follower pair, the scratch
//! directory, and reads of the process-global metrics registry.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use snorkel_core::optimizer::OptimizerConfig;
use snorkel_core::pipeline::DiscTrainerConfig;
use snorkel_incr::{IncrementalSession, SessionConfig};
use snorkel_serve::{LabelServer, LfSpec, ServeConfig, Snapshot};

use crate::gen;
use crate::load::Wire;
use crate::report::RunResult;

/// Worker threads of every server the benchmark starts. With the two
/// load threads this is the whole machine on the 2-core reference box;
/// fixing it keeps the numbers' meaning independent of the host.
pub const WORKERS: usize = 2;

/// Hash buckets of the distilled model behind `PREDICT`.
const DISC_DIM: u32 = 1 << 16;

/// Session settings of every serving node: the closed-form moment
/// backend (the one with an online refit, so `INGEST` takes the
/// streaming path) and distillation on (so `PREDICT` has a model).
pub fn session_config() -> SessionConfig {
    SessionConfig {
        optimizer: OptimizerConfig {
            skip_structure_search: true,
            moment_min_rows: 100,
            gamma: 0.0,
            ..OptimizerConfig::default()
        },
        distill: Some(DiscTrainerConfig::with_dim(DISC_DIM)),
        ..SessionConfig::default()
    }
}

fn spec(j: usize) -> LfSpec {
    LfSpec::parse(&gen::lf_spec(j, 0)).expect("generated spec parses")
}

/// The serving session for `seed`: corpus, 20 spec-built LFs, one
/// refresh, the distilled model trained. Building it twice from one
/// seed gives bit-identical models, which is what makes a second build
/// usable as the reference ("twin") the replies are checked against.
pub fn serve_session(seed: u64) -> IncrementalSession {
    let mut session =
        IncrementalSession::over_all_candidates(gen::serve_corpus(seed), session_config());
    for j in 0..gen::NUM_LFS {
        let spec = spec(j);
        session.add_lf_tagged(spec.build().expect("spec builds"), spec.content_tag());
    }
    let (_, report) = session.refresh();
    assert_eq!(
        report.backend, "moment",
        "serving nodes run the moment backend"
    );
    session.distill().expect("distillation is configured");
    session
}

/// Start a server on an ephemeral loopback port.
pub fn start_server(session: IncrementalSession, config: ServeConfig) -> LabelServer {
    LabelServer::start(
        session,
        ServeConfig {
            workers: WORKERS,
            ..config
        },
    )
    .expect("bind a loopback port")
}

/// A fresh directory under `benchmark/out/` — inside the checkout, on
/// the filesystem the WAL numbers are about.
pub fn scratch_dir() -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!(
            "tmp-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/self/mounts`), or `unknown`.
pub fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/self/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let mut f = line.split(' ');
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

/// Host facts recorded beside every result.
pub fn env_info() -> Vec<(&'static str, String)> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into())
    };
    vec![
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        ("kernel", read("/proc/sys/kernel/osrelease")),
        ("server_workers", WORKERS.to_string()),
    ]
}

/// `key=value` field of a text reply.
pub fn field<'a>(reply: &'a str, key: &str) -> &'a str {
    reply
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
        .unwrap_or_else(|| panic!("no {key}= in {reply:?}"))
}

/// `STATS` over a throwaway connection, so no third connection idles
/// on a worker while the load runs.
pub fn stats(server: &LabelServer) -> String {
    let mut wire = Wire::connect(server.addr()).expect("connect for STATS");
    let reply = wire.line("STATS").expect("STATS round trip");
    assert!(reply.starts_with("OK "), "{reply}");
    reply
}

/// Poll until `done()`; panics naming `what` after 60 s.
pub fn wait_until(what: &str, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A leader with a WAL and one follower bootstrapped from its snapshot.
pub struct Cluster {
    pub leader: LabelServer,
    pub follower: LabelServer,
    pub dir: PathBuf,
    /// `Snapshot::read_file` + `IncrementalSession::thaw` of the
    /// follower bootstrap.
    pub read_thaw_s: f64,
}

impl Cluster {
    pub fn start(seed: u64) -> Cluster {
        let dir = scratch_dir();
        let snap = dir.join("leader.snap");
        let leader = start_server(
            serve_session(seed),
            ServeConfig {
                wal_path: Some(dir.join("leader.wal")),
                snapshot_path: Some(snap.clone()),
                ..ServeConfig::default()
            },
        );
        let mut control = Wire::connect(leader.addr()).expect("connect to leader");
        for verb in ["REFRESH", "SNAPSHOT"] {
            let reply = control.line(verb).expect("bootstrap round trip");
            assert!(reply.starts_with("OK "), "{verb}: {reply}");
        }
        drop(control);

        let t = Instant::now();
        let snapshot = Snapshot::read_file(&snap).expect("bootstrap snapshot reads");
        let mark = snapshot
            .repl
            .expect("a replicated leader marks its snapshots");
        let lfs = snapshot
            .session
            .suite
            .iter()
            .map(|(name, _)| {
                let j = (0..gen::NUM_LFS)
                    .find(|&j| spec(j).name() == name)
                    .expect("suite holds only generated LFs");
                spec(j).build().expect("spec builds")
            })
            .collect();
        let thawed = IncrementalSession::thaw(
            gen::serve_corpus(seed),
            session_config(),
            snapshot.session,
            lfs,
        )
        .expect("bootstrap snapshot thaws");
        let read_thaw_s = t.elapsed().as_secs_f64();

        let follower = start_server(
            thawed,
            ServeConfig {
                follow: Some(leader.addr().to_string()),
                wal_path: Some(dir.join("follower.wal")),
                repl_mark: Some(mark),
                ..ServeConfig::default()
            },
        );
        let cluster = Cluster {
            leader,
            follower,
            dir,
            read_thaw_s,
        };
        cluster.wait_for_follower();
        cluster
    }

    /// Block until the follower has applied the leader's tip.
    pub fn wait_for_follower(&self) {
        let tip: u64 = field(&stats(&self.leader), "lsn").parse().expect("lsn");
        wait_until("the follower to reach the leader's tip", || {
            field(&stats(&self.follower), "lsn")
                .parse::<u64>()
                .expect("lsn")
                >= tip
        });
    }

    pub fn shutdown(self) {
        self.follower.shutdown().expect("follower stops");
        self.leader.shutdown().expect("leader stops");
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A reading of every series in the process-global registry — the same
/// text `METRICS` serves, taken without a connection.
pub struct Scrape(HashMap<String, f64>);

impl Scrape {
    pub fn now() -> Scrape {
        Scrape(
            snorkel_obs::global()
                .expose()
                .lines()
                .filter(|l| !l.starts_with('#'))
                .filter_map(|l| {
                    let (series, value) = l.rsplit_once(' ')?;
                    Some((series.to_string(), value.parse().ok()?))
                })
                .collect(),
        )
    }

    /// Sum over every series whose name (labels included) starts with
    /// `prefix`.
    pub fn sum(&self, prefix: &str) -> f64 {
        self.0
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Growth of [`Self::sum`] from `self` to `later`.
    pub fn delta(&self, later: &Scrape, prefix: &str) -> f64 {
        later.sum(prefix) - self.sum(prefix)
    }
}

/// Server-side busy and lock-wait time between two scrapes, summed over
/// every verb and opcode (and over both nodes of a cluster: they share
/// the process-global registry).
pub fn server_layers(result: &mut RunResult, before: &Scrape, after: &Scrape) {
    let frames = "snorkel_serve_frame_seconds";
    let verbs = "snorkel_serve_request_seconds";
    let locks = "snorkel_serve_lock_wait_seconds";
    let delta = |family: &str, suffix: &str| before.delta(after, &format!("{family}_{suffix}"));
    result.layer(
        "serve.server.busy_s",
        delta(frames, "sum") + delta(verbs, "sum"),
        (delta(frames, "count") + delta(verbs, "count")) as usize,
    );
    result.layer(
        "serve.server.lock_wait_s",
        delta(locks, "sum"),
        delta(locks, "count") as usize,
    );
}

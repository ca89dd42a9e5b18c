//! `replicated_mixed`: a leader with a WAL and one follower, reads
//! beside writes.
//!
//! Connection A → leader, closed loop, a fixed op script (`OP_INGEST`
//! batches of 16, a `REFRESH EDIT` every 2 000th op, one `SNAPSHOT` at
//! the midpoint). Connection B → follower, open loop at 100 req/s until
//! A finishes, cycling binary and text read verbs with a `STATS` lag
//! probe every 10th request. The WAL flush policy is the server's own:
//! `sync_data` after every appended record, on both nodes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use snorkel_serve::frame::IngestRow;
use snorkel_serve::repl::wal::{self, Op, WalFile};
use snorkel_serve::repl::{apply_ingest, prepare_ingest};
use snorkel_serve::Snapshot;

use crate::fixture::{self, Cluster, Scrape};
use crate::gen::{self, Request, Stream};
use crate::load::{paced_loop, slice_rates, LoopStats, Reply, Wire};
use crate::replay::{ReadCost, ReadReplay};
use crate::report::RunResult;
use crate::stats;
use crate::trace::{StageTable, Tracer};
use crate::Opts;

/// Warm-up exchanges before the measured window: ingests on A (so the
/// streaming plane is live) and reads on B.
const WARM_INGESTS: usize = 20;
const WARM_READS: usize = 40;
/// Script ops replayed on the twin session for the per-layer view.
const REPLAY_OPS: usize = 300;
/// One follower exchange in this many is kept for the replay.
const SAMPLE_EVERY: u64 = 8;
/// Spacing of the paced reads on connection B.
const INTERVAL: Duration = Duration::from_nanos(1_000_000_000 / gen::FOLLOWER_RATE_HZ);

struct Fixture {
    cluster: Cluster,
    a: Wire,
    b: Wire,
    reads: Stream,
}

fn warm_ingests(seed: u64) -> Vec<Request> {
    let mut rng = gen::rng(seed, 41);
    (0..WARM_INGESTS)
        .map(|_| gen::ingest_batch(&mut rng))
        .collect()
}

/// Leader start, bootstrap refresh + snapshot, follower thaw + start +
/// catch-up, both connections, warm-up.
fn setup(seed: u64) -> Fixture {
    let cluster = Cluster::start(seed);
    let mut a = Wire::connect(cluster.leader.addr()).expect("connect to leader");
    let mut b = Wire::connect(cluster.follower.addr()).expect("connect to follower");
    let mut reads = gen::follower_stream(seed);
    let mut off = Tracer::new("warm-up", Instant::now(), false);
    let warm_reads: Vec<Request> = (0..WARM_READS).map(|_| reads.next().clone()).collect();
    for (wire, requests) in [(&mut a, warm_ingests(seed)), (&mut b, warm_reads)] {
        for request in requests {
            let reply = wire.round_trip(&request, &mut off, 0);
            assert!(
                reply.as_ref().is_ok_and(|r| r.answers(&request)),
                "warm-up exchange failed: {reply:?}"
            );
        }
    }
    cluster.wait_for_follower();
    Fixture {
        cluster,
        a,
        b,
        reads,
    }
}

/// Leader ack of LSN n → first follower `STATS` showing `lsn ≥ n`, in
/// ms. Probes are 100 ms apart, which bounds the resolution.
fn lags_ms(acks: &[(u64, u64)], probes: &[(u64, u64)]) -> Vec<f64> {
    let mut out = Vec::new();
    let mut p = 0;
    for &(lsn, acked_ns) in acks {
        while p < probes.len() && probes[p].1 < lsn {
            p += 1;
        }
        let Some(&(seen_ns, _)) = probes.get(p) else {
            break;
        };
        out.push(seen_ns.saturating_sub(acked_ns) as f64 / 1e6);
    }
    out
}

/// Fixed read probes; both nodes must answer them byte for byte alike.
fn probe_set(seed: u64) -> Vec<Request> {
    let mut probes = gen::follower_requests(seed ^ 0x5eed, 40);
    probes.retain(|r| r.kind() != "text.STATS");
    probes
}

fn probe_replies(wire: &mut Wire, probes: &[Request]) -> Vec<Vec<u8>> {
    let mut off = Tracer::new("probe", Instant::now(), false);
    probes
        .iter()
        .map(|request| {
            let reply = wire.round_trip(request, &mut off, 0);
            assert!(
                reply.as_ref().is_ok_and(|r| r.answers(request)),
                "probe failed: {reply:?}"
            );
            wire.raw().to_vec()
        })
        .collect()
}

/// What the in-process replay measured: mean µs of `prepare_ingest`,
/// `apply_ingest` and WAL append + sync over the first script ops, on a
/// twin session brought to the leader's pre-window state and a WAL file
/// in the same directory; and the read path for the follower's sampled
/// `OP_MARGINAL` frames.
struct Replayed {
    ops: u64,
    prepare_us: f64,
    apply_us: f64,
    wal_us: f64,
    reads: ReadCost,
}

fn replay(
    seed: u64,
    script: &[Request],
    samples: &[(Request, Reply)],
    dir: &std::path::Path,
    tracer: &mut Tracer,
) -> Replayed {
    let mut twin = fixture::serve_session(seed);
    twin.refresh(); // the bootstrap REFRESH
    let mut generation = 0u64;
    let ingests = |requests: &[Request]| -> Vec<Vec<IngestRow>> {
        requests
            .iter()
            .filter_map(|r| match r {
                Request::Ingest(rows) => Some(rows.clone()),
                _ => None,
            })
            .collect()
    };
    for rows in ingests(&warm_ingests(seed)) {
        let batch = prepare_ingest(&rows).expect("generated rows validate");
        apply_ingest(&mut twin, &mut generation, batch);
    }
    let (mut wal_file, _) =
        WalFile::open_or_create(&dir.join("replay.wal"), 0).expect("open replay WAL");
    let (mut prepare, mut apply, mut sync) = (0u64, 0u64, 0u64);
    tracer.open("replay", 0);
    let replayed = ingests(&script[..script.len().min(REPLAY_OPS)]);
    for (k, rows) in replayed.iter().enumerate() {
        let (req, lsn) = (k as u64, k as u64 + 1);
        let (batch, ns) = tracer.timed("serve.repl.prepare", req, || {
            prepare_ingest(rows).expect("generated rows validate")
        });
        prepare += ns;
        apply += tracer
            .timed("serve.repl.apply", req, || {
                apply_ingest(&mut twin, &mut generation, batch)
            })
            .1;
        let body = wal::encode_body(lsn, generation, &Op::Ingest(rows.clone()));
        sync += tracer
            .timed("serve.repl.wal_append_sync", req, || {
                wal_file
                    .append_body(lsn, &body)
                    .expect("append to replay WAL");
                wal_file.sync().expect("sync replay WAL");
            })
            .1;
    }

    // The follower's memo is reset by every replayed ingest (each one
    // bumps the generation), so its reads nearly always probe an empty
    // memo; a new generation per replayed frame reproduces that.
    let mut worker = ReadReplay::new();
    let mut reads = ReadCost::default();
    for (request, _) in samples {
        if matches!(request, Request::Marginal(_)) {
            let generation = reads.frames + 1;
            worker.frame(&twin, generation, request, tracer, generation, &mut reads);
        }
    }
    tracer.close();
    let ops = replayed.len() as u64;
    let mean_us = |total_ns: u64| total_ns as f64 / 1e3 / ops.max(1) as f64;
    Replayed {
        ops,
        prepare_us: mean_us(prepare),
        apply_us: mean_us(apply),
        wal_us: mean_us(sync),
        reads,
    }
}

/// What the measured window produced.
struct Measured {
    writer: LoopStats,
    /// `(lsn, ns since epoch)` of every acknowledged logged op.
    acks: Vec<(u64, u64)>,
    reader: LoopStats,
    /// Follower reads: ns from due time to reply, and generator lateness.
    from_due: Vec<u64>,
    late: Vec<u64>,
    /// `(ns since epoch, follower lsn)` of every `STATS` probe.
    probes: Vec<(u64, u64)>,
}

/// Run the window: A plays `script` against the leader while B paces
/// reads at the follower until A is done.
fn drive(
    fx: &mut Fixture,
    script: &[Request],
    lsn0: u64,
    epoch: Instant,
    writer_tracer: &mut Tracer,
    reader_tracer: &mut Tracer,
) -> Measured {
    let since = move || epoch.elapsed().as_nanos() as u64;
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(2);

    std::thread::scope(|scope| {
        let a = scope.spawn(|| {
            let (wire, tracer) = (&mut fx.a, writer_tracer);
            let mut stats = LoopStats::default();
            let mut acks = Vec::new();
            let mut lsn = lsn0;
            barrier.wait();
            let start = Instant::now();
            tracer.open("window", 0);
            for (k, request) in script.iter().enumerate() {
                let t = Instant::now();
                let reply = wire.round_trip(request, tracer, k as u64);
                let lat = t.elapsed().as_nanos() as u64;
                let logged = !request.kind().ends_with("SNAPSHOT");
                if logged && reply.as_ref().is_ok_and(|r| r.answers(request)) {
                    lsn += 1;
                    acks.push((lsn, since()));
                }
                stats.record(request, reply, lat, since(), 0);
            }
            tracer.close();
            stats.window_s = start.elapsed().as_secs_f64();
            done.store(true, Ordering::SeqCst);
            (stats, acks)
        });
        let b = scope.spawn(|| {
            let (wire, stream) = (&mut fx.b, &mut fx.reads);
            let mut stats = LoopStats::default();
            let mut probes = Vec::new();
            barrier.wait();
            let start = Instant::now();
            let (from_due, late) = paced_loop(
                start,
                INTERVAL,
                || done.load(Ordering::SeqCst),
                reader_tracer,
                |k, tracer| {
                    let request = stream.next();
                    let t = Instant::now();
                    let reply = wire.round_trip(request, tracer, k);
                    let lat = t.elapsed().as_nanos() as u64;
                    if let (Request::Text(line), Ok(Reply::Line(reply))) = (request, &reply) {
                        if line == "STATS" && reply.starts_with("OK ") {
                            let lsn = fixture::field(reply, "lsn").parse().expect("lsn");
                            probes.push((since(), lsn));
                        }
                    }
                    stats.record(request, reply, lat, since(), SAMPLE_EVERY);
                },
            );
            stats.window_s = start.elapsed().as_secs_f64();
            (stats, from_due, late, probes)
        });
        let (writer, acks) = a.join().expect("writer thread");
        let (reader, from_due, late, probes) = b.join().expect("reader thread");
        Measured {
            writer,
            acks,
            reader,
            from_due,
            late,
            probes,
        }
    })
}

pub fn run(opts: &Opts) -> RunResult {
    let mut result = opts.result();
    let (setup_s, mut fx) = crate::median_setup(|| setup(opts.seed), |fx| fx.cluster.shutdown());
    result.e2e("setup_s", setup_s.0, setup_s.1);
    let dir = fx.cluster.dir.clone();
    result.env.push(("wal_fs", fixture::fs_type(&dir)));
    result
        .env
        .push(("wal_flush", "sync_data per record".into()));

    let mid_snap = dir.join("mid.snap");
    let ops = gen::WRITER_OPS_PER_SECOND * opts.seconds as usize;
    let script = gen::writer_script(opts.seed, ops, &mid_snap.to_string_lossy());
    let leader_before = fixture::stats(&fx.cluster.leader);
    let field_u64 = |reply: &str, key| fixture::field(reply, key).parse::<u64>().expect("number");
    let lsn0 = field_u64(&leader_before, "lsn");
    let rows0 = field_u64(&leader_before, "rows");
    let wal_len = |name: &str| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len());
    let wal0 = wal_len("leader.wal");
    let scrape_before = Scrape::now();

    let epoch = Instant::now();
    let mut writer_tracer = Tracer::new("writer", epoch, opts.trace);
    let mut reader_tracer = Tracer::new("reader", epoch, opts.trace);
    let Measured {
        writer,
        acks,
        reader,
        from_due,
        late,
        probes,
    } = drive(
        &mut fx,
        &script,
        lsn0,
        epoch,
        &mut writer_tracer,
        &mut reader_tracer,
    );
    let scrape_after = Scrape::now();

    result.attempted = writer.attempted + reader.attempted;
    result.failed = writer.failed + reader.failed;
    for e in writer.errors.iter().chain(&reader.errors) {
        eprintln!("failed exchange: {e}");
    }
    // Only ingests carry rows on connection A, so `writer.rows` is the
    // acknowledged ingested rows; the script is fixed, so the writer's
    // wall-clock is comparable across commits.
    let acked_rows = writer.rows();
    let rate = acked_rows as f64 / writer.window_s;
    let read_us = stats::sorted_in(&from_due, 1e3);
    let latency = stats::quantile(&read_us, 0.5);
    result.primary((rate, writer.attempted as usize), (latency, read_us.len()));
    let rates = slice_rates(&[&writer]);
    result.info(
        "median_slice_rows_per_s",
        stats::quantile(&rates, 0.5),
        "rows/s",
        rates.len(),
    );
    // Informational: tails, the writer's own latency, lag, pacing.
    let of_kind = |kind: &str| -> Vec<u64> {
        writer
            .kinds
            .iter()
            .zip(&writer.lat_ns)
            .filter(|(k, _)| **k == kind)
            .map(|(_, l)| *l)
            .collect()
    };
    let ingest_ms = stats::sorted_in(&of_kind("bin.INGEST"), 1e6);
    let lag_ms = {
        let mut v = lags_ms(&acks, &probes);
        v.sort_by(f64::total_cmp);
        v
    };
    let late_us = stats::sorted_in(&late, 1e3);
    for (name, sorted, unit) in [
        ("follower_read", &read_us, "us"),
        ("ingest", &ingest_ms, "ms"),
        ("repl_lag", &lag_ms, "ms"),
        ("gen_late", &late_us, "us"),
    ] {
        if sorted.is_empty() {
            continue;
        }
        if name != "follower_read" {
            result.info(
                format!("{name}_p50_{unit}"),
                stats::quantile(sorted, 0.5),
                unit,
                sorted.len(),
            );
        }
        if let Some(q) = stats::tail_quantile(sorted.len()) {
            result.info(
                format!("{name}_p{}_{unit}", q * 100.0),
                stats::quantile(sorted, q),
                unit,
                sorted.len(),
            );
        }
    }
    result.info(
        "ingest_max_ms",
        *ingest_ms.last().expect("ingests ran"),
        "ms",
        ingest_ms.len(),
    );
    for (name, kind) in [
        ("refresh_max_ms", "text.REFRESH"),
        ("snapshot_ms", "text.SNAPSHOT"),
    ] {
        let ms = stats::sorted_in(&of_kind(kind), 1e6);
        if let Some(max) = ms.last() {
            result.info(name, *max, "ms", ms.len());
        }
    }
    result.info("writer_window_s", writer.window_s, "s", 1);
    result.info(
        "follower_requests",
        reader.attempted as f64,
        "count",
        reader.attempted as usize,
    );
    let pacing_ok = stats::tail_quantile(late_us.len())
        .is_none_or(|q| stats::quantile(&late_us, q) < INTERVAL.as_micros() as f64);
    result.check(
        "the paced generator's tail lateness is under its pacing interval",
        pacing_ok,
    );

    // Correctness: convergence, byte-identical reads, totals, snapshot.
    fx.cluster.wait_for_follower();
    let probes_sent = probe_set(opts.seed);
    let mut lw = Wire::connect(fx.cluster.leader.addr()).expect("connect to leader");
    let mut fw = Wire::connect(fx.cluster.follower.addr()).expect("connect to follower");
    result.check(
        format!(
            "{} read probes answered byte-identically by leader and follower at the tip",
            probes_sent.len()
        ),
        probe_replies(&mut lw, &probes_sent) == probe_replies(&mut fw, &probes_sent),
    );
    drop((lw, fw));
    let leader_after = fixture::stats(&fx.cluster.leader);
    result.check(
        "final candidate total = initial + acknowledged rows",
        field_u64(&leader_after, "rows") == rows0 + acked_rows,
    );
    result.check(
        "leader lsn advanced once per acknowledged mutation",
        field_u64(&leader_after, "lsn") == lsn0 + acks.len() as u64,
    );
    let mid = Snapshot::read_file(&mid_snap);
    result.check(
        "the mid-run snapshot loads with Snapshot::read_file",
        mid.is_ok(),
    );

    if opts.trace {
        let ingest_calls =
            scrape_before.delta(&scrape_after, "snorkel_stream_ingest_seconds_count");
        let ingest_apply_us =
            scrape_before.delta(&scrape_after, "snorkel_stream_ingest_seconds_sum") * 1e6
                / ingest_calls.max(1.0);
        result.layer(
            "stream.ingest_apply_us",
            ingest_apply_us,
            ingest_calls as usize,
        );
        result.layer(
            "stream.auto_refits",
            scrape_before.delta(&scrape_after, "snorkel_stream_auto_refits_total"),
            ingest_calls as usize,
        );
        fixture::server_layers(&mut result, &scrape_before, &scrape_after);
        result.layer(
            "serve.repl.wal_bytes_per_row",
            (wal_len("leader.wal") - wal0) as f64 / acked_rows.max(1) as f64,
            acked_rows as usize,
        );
        if !lag_ms.is_empty() {
            result.layer(
                "serve.repl.lag_p50_ms",
                stats::quantile(&lag_ms, 0.5),
                lag_ms.len(),
            );
        }
        result.layer(
            "context.candidates",
            field_u64(&leader_after, "rows") as f64,
            1,
        );
        result.layer("serve.snap.read_thaw_s", fx.cluster.read_thaw_s, 1);
        result.layer("serve.snap.bytes", wal_len("mid.snap") as f64, 1);
        if let Ok(snapshot) = &mid {
            let t = Instant::now();
            snapshot
                .write_file(&dir.join("copy.snap"))
                .expect("rewrite the mid-run snapshot");
            result.layer("serve.snap.write_s", t.elapsed().as_secs_f64(), 1);
        }

        let mut replay_tracer = Tracer::new("replay", epoch, true);
        let rp = replay(
            opts.seed,
            &script,
            &reader.samples,
            &dir,
            &mut replay_tracer,
        );
        let ops = rp.ops as usize;
        result.layer("serve.repl.prepare_us", rp.prepare_us, ops);
        result.layer("serve.repl.apply_us", rp.apply_us, ops);
        result.layer("serve.repl.wal_append_sync_us", rp.wal_us, ops);
        let (decode_ns, compute_ns, encode_ns) = rp.reads.mean_ns();
        let frames = rp.reads.frames as usize;
        result.layer("serve.hotpath.decode_ns_per_req", decode_ns, frames);
        result.layer("serve.hotpath.compute_ns_per_req", compute_ns, frames);
        result.layer("serve.frame.encode_ns_per_req", encode_ns, frames);

        let tracers = vec![writer_tracer, reader_tracer, replay_tracer];
        let mut table = StageTable::build(&tracers[..2]);
        // The apply share comes from the registry's histogram, not the
        // replay: per-batch apply cost grows with the corpus, and the
        // replay covers only the first ops of the script. Leader and
        // follower share the registry and apply the same batches, so
        // the mean is over both nodes.
        let ingests = writer.count("bin.INGEST");
        let per_op = |us: f64| us * ingests as f64 / 1e6;
        let wait = "bin.INGEST > client.wait_read";
        table.attribute(
            "writer",
            wait,
            &[
                (
                    "serve.repl.prepare (replayed)",
                    per_op(rp.prepare_us),
                    ingests,
                ),
                (
                    "stream.ingest_batch (registry mean)",
                    per_op(ingest_apply_us),
                    ingests,
                ),
                (
                    "serve.repl.wal_append_sync (replayed)",
                    per_op(rp.wal_us),
                    ingests,
                ),
            ],
            "serve.server.io_residual",
        );
        let writer_residual = table.seconds("writer", &format!("{wait} = "));
        result.layer(
            "serve.server.io_residual_share",
            writer_residual / writer.window_s,
            ingests as usize,
        );
        let marginals = reader.count("bin.MARGINAL");
        let reader_residual =
            rp.reads
                .attribute(&mut table, "reader", "bin.MARGINAL", marginals, 1);
        result.layer(
            "serve.server.io_residual_us",
            reader_residual * 1e6 / marginals.max(1) as f64,
            marginals as usize,
        );
        crate::finish_trace(&mut result, table, &tracers);
    }

    fx.cluster.shutdown();
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_is_ack_to_first_probe_that_shows_the_lsn() {
        // acks: (lsn, ns); probes: (ns, follower lsn).
        let acks = [
            (1, 1_000_000),
            (2, 2_000_000),
            (3, 30_000_000),
            (4, 31_000_000),
        ];
        let probes = [(500_000, 0), (20_000_000, 2), (40_000_000, 3)];
        // lsn 1 and 2 first show at 20 ms; lsn 3 at 40 ms; lsn 4 never.
        assert_eq!(lags_ms(&acks, &probes), vec![19.0, 18.0, 10.0]);
    }
}

//! `read_hot` and `read_cold`: a standalone server (no WAL) and two
//! closed-loop clients.
//!
//! * hot — `OP_MARGINAL` batches of 32 rows sliding over 64 signatures,
//!   memo warmed: every row is a memo hit, so socket wake-up, frame
//!   decode, locks, the memo probe, encode and flush are the whole cost.
//! * cold — every `OP_MARGINAL` row is a fresh signature from the 3^20
//!   space against a memo already at its cap (all misses), alternating
//!   with `OP_PREDICT` batches of hashed features: the posterior and
//!   distilled-model kernels carry the cost.

use std::sync::Barrier;
use std::time::{Duration, Instant};

use snorkel_incr::IncrementalSession;
use snorkel_linalg::SparseVec;
use snorkel_serve::frame::BinReply;
use snorkel_serve::hotpath::MEMO_CAP;
use snorkel_serve::{LabelServer, ServeConfig};

use crate::fixture::{self, Scrape};
use crate::gen::{self, Request, Stream};
use crate::load::{closed_loop, slice_rates, stalled_share, LoopStats, Reply, Wire};
use crate::replay::{ReadCost, ReadReplay};
use crate::report::RunResult;
use crate::stats;
use crate::trace::{StageTable, Tracer};
use crate::Opts;

/// Client threads and connections. Never more than `nproc` on the
/// reference box; fixed so the numbers mean the same on any host.
const CLIENTS: usize = 2;

/// One exchange in this many is kept for the bit-identity check and
/// the in-process replay.
const SAMPLE_EVERY: u64 = 251;

struct Fixture {
    server: LabelServer,
    wires: Vec<Wire>,
    streams: Vec<Stream>,
}

/// Session build + first refresh + distillation, server start, both
/// connections, and the warm-up that puts the memo in its steady state:
/// holding all 64 signatures (hot) or full to its cap (cold).
fn setup(seed: u64, cold: bool) -> Fixture {
    let server = fixture::start_server(fixture::serve_session(seed), ServeConfig::default());
    let mut wires = Vec::new();
    let mut streams = Vec::new();
    let mut off = Tracer::new("warm-up", Instant::now(), false);
    for conn in 0..CLIENTS as u64 {
        let mut wire = Wire::connect(server.addr()).expect("connect to the server");
        let (mut stream, warm_up) = if cold {
            // 2 × 1 100 × 32 rows > MEMO_CAP.
            let batches = MEMO_CAP / gen::READ_BATCH / CLIENTS + 76;
            (
                gen::read_cold_stream(seed, conn),
                gen::cold_warmup(seed, conn, batches),
            )
        } else {
            (gen::read_hot_stream(seed, conn), Vec::new())
        };
        // The memo's steady state first, then one pass over the pool's
        // head so buffers on both ends reach their working size.
        let head: Vec<Request> = (0..2 * gen::HOT_SIGNATURES)
            .map(|_| stream.next().clone())
            .collect();
        for request in warm_up.iter().chain(&head) {
            let reply = wire.round_trip(request, &mut off, 0);
            assert!(
                reply.as_ref().is_ok_and(|r| r.answers(request)),
                "warm-up exchange failed: {reply:?}"
            );
        }
        wires.push(wire);
        streams.push(stream);
    }
    Fixture {
        server,
        wires,
        streams,
    }
}

/// What the in-process replay of the sampled requests measured.
struct Replayed {
    marginal: ReadCost,
    predict: ReadCost,
    /// `(mean ns per row, rows)` of the bare kernels over the same rows.
    posterior: (f64, usize),
    disc_predict: (f64, usize),
}

/// Replay passes over the sample; the mean over all of them is kept.
const REPLAY_PASSES: usize = 5;

fn replay(
    twin: &IncrementalSession,
    samples: &[&(Request, Reply)],
    seed: u64,
    cold: bool,
    tracer: &mut Tracer,
) -> Replayed {
    let model = twin.model().expect("refreshed session has a model");
    let disc = &twin.disc().expect("distilled model present").model;

    // The replay memo starts where the server's was: holding the hot
    // set, or full of signatures the requests will not repeat.
    let mut worker = ReadReplay::new();
    {
        let mut memo = worker.memo.lock().expect("fresh mutex");
        memo.begin_generation(1);
        let mut rng = gen::rng(seed, 99);
        let fill: Vec<_> = if cold {
            (0..MEMO_CAP).map(|_| gen::signature(&mut rng)).collect()
        } else {
            gen::hot_signatures(seed)
        };
        for (cols, votes) in &fill {
            memo.insert(cols, votes, &model.posterior(cols, votes));
        }
    }
    let (mut marginal, mut predict) = (ReadCost::default(), ReadCost::default());
    tracer.open("replay", 0);
    for _ in 0..REPLAY_PASSES {
        for (req, (request, _)) in samples.iter().enumerate() {
            let cost = match request {
                Request::Predict(_) => &mut predict,
                _ => &mut marginal,
            };
            worker.frame(twin, 1, request, tracer, req as u64, cost);
        }
    }
    tracer.close();

    // The kernels alone, over the same rows.
    let mut probs = vec![0.0; disc.num_classes()];
    let (mut pairs, mut x) = (Vec::new(), SparseVec::new());
    let (mut post_ns, mut post_rows, mut pred_ns, mut pred_rows) = (0u64, 0usize, 0u64, 0usize);
    for _ in 0..REPLAY_PASSES {
        for (request, _) in samples {
            let t = Instant::now();
            match request {
                Request::Marginal(rows) => {
                    for (cols, votes) in rows {
                        model.posterior_into(cols, votes, &mut probs);
                    }
                    post_ns += t.elapsed().as_nanos() as u64;
                    post_rows += rows.len();
                }
                Request::Predict(rows) => {
                    for names in rows {
                        snorkel_disc::hash_features_into(
                            names.iter().map(String::as_str),
                            disc.dim(),
                            &mut pairs,
                            &mut x,
                        );
                        disc.predict_proba_into(&x, &mut probs);
                    }
                    pred_ns += t.elapsed().as_nanos() as u64;
                    pred_rows += rows.len();
                }
                _ => unreachable!("read workloads send only binary read frames"),
            }
            std::hint::black_box(&probs);
        }
    }
    Replayed {
        marginal,
        predict,
        posterior: (post_ns as f64 / post_rows.max(1) as f64, post_rows),
        disc_predict: (pred_ns as f64 / pred_rows.max(1) as f64, pred_rows),
    }
}

/// Sampled replies must equal, bit for bit, what the twin's label model
/// and distilled model compute for the same rows.
fn replies_match_twin(twin: &IncrementalSession, samples: &[&(Request, Reply)]) -> bool {
    let model = twin.model().expect("refreshed session has a model");
    let disc = &twin.disc().expect("distilled model present").model;
    let same = |got: &[Vec<f64>], want: Vec<Vec<f64>>| {
        got.len() == want.len()
            && got.iter().zip(&want).all(|(g, w)| {
                g.len() == w.len() && g.iter().zip(w).all(|(a, b)| a.to_bits() == b.to_bits())
            })
    };
    samples
        .iter()
        .all(|(request, reply)| match (request, reply) {
            (Request::Marginal(rows), Reply::Bin(BinReply::Marginal { probs, .. })) => same(
                probs,
                rows.iter().map(|(c, v)| model.posterior(c, v)).collect(),
            ),
            (Request::Predict(rows), Reply::Bin(BinReply::Predict { probs, .. })) => same(
                probs,
                rows.iter()
                    .map(|names| {
                        let x = snorkel_disc::hash_features(
                            names.iter().map(String::as_str),
                            disc.dim(),
                        );
                        disc.predict_proba(&x)
                    })
                    .collect(),
            ),
            _ => false,
        })
}

/// Round-trip samples. Hot: every round trip. Cold: the mean of each
/// consecutive `OP_MARGINAL` + `OP_PREDICT` pair — the two kinds cost
/// different amounts, and a quantile of a two-humped sample would sit
/// in one hump or the gap between them and jump from run to run.
fn latency_samples(stats: &[LoopStats], cold: bool) -> Vec<u64> {
    let step = if cold { 2 } else { 1 };
    stats
        .iter()
        .flat_map(|s| {
            s.lat_ns
                .chunks_exact(step)
                .map(move |c| c.iter().sum::<u64>() / step as u64)
        })
        .collect()
}

/// Quantiles the gated read metrics are taken at (see `README.md`): the
/// 90th percentile of 100 ms slice throughput and the 10th percentile of
/// round trips describe the loop when the scheduler leaves it alone.
/// The medians are printed beside them; they move ±15 % between runs.
const RATE_QUANTILE: f64 = 0.9;
const LATENCY_QUANTILE: f64 = 0.1;

pub fn run(opts: &Opts, cold: bool) -> RunResult {
    let mut result = opts.result();
    let (setup_s, mut fx) = crate::median_setup(
        || setup(opts.seed, cold),
        |fx| fx.server.shutdown().expect("server stops"),
    );
    result.e2e("setup_s", setup_s.0, setup_s.1);

    let stats_before = fixture::stats(&fx.server);
    let scrape_before = Scrape::now();
    let epoch = Instant::now();
    let deadline = epoch + Duration::from_secs(opts.seconds);
    let barrier = Barrier::new(CLIENTS);
    let mut tracers: Vec<Tracer> = (0..CLIENTS)
        .map(|_| Tracer::new("client", epoch, opts.trace))
        .collect();
    let loops: Vec<LoopStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = fx
            .wires
            .iter_mut()
            .zip(fx.streams.iter_mut())
            .zip(tracers.iter_mut())
            .map(|((wire, stream), tracer)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    barrier.wait();
                    closed_loop(wire, stream, deadline, tracer, SAMPLE_EVERY)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let scrape_after = Scrape::now();
    let stats_after = fixture::stats(&fx.server);

    let wall = loops.iter().map(|s| s.window_s).fold(0.0, f64::max);
    let rows: u64 = loops.iter().map(LoopStats::rows).sum();
    let requests: u64 = loops.iter().map(|s| s.attempted).sum();
    result.attempted = requests;
    result.failed = loops.iter().map(|s| s.failed).sum();
    for e in loops.iter().flat_map(|s| &s.errors) {
        eprintln!("failed exchange: {e}");
    }
    let rates = slice_rates(&loops.iter().collect::<Vec<_>>());
    let us = stats::sorted_in(&latency_samples(&loops, cold), 1e3);
    result.primary(
        (stats::quantile(&rates, RATE_QUANTILE), rates.len()),
        (stats::quantile(&us, LATENCY_QUANTILE), us.len()),
    );
    result.info("p50_us", stats::quantile(&us, 0.5), "us", us.len());
    if let Some(q) = stats::tail_quantile(us.len()) {
        let name = format!("p{}_us", q * 100.0);
        result.info(name, stats::quantile(&us, q), "us", us.len());
    }
    let median_rate = stats::quantile(&rates, 0.5);
    result.info(
        "median_slice_rows_per_s",
        median_rate,
        "rows/s",
        rates.len(),
    );
    let mean_rate = rows as f64 / wall;
    result.info("mean_rows_per_s", mean_rate, "rows/s", requests as usize);
    result.info("stalled_share", stalled_share(&rates), "ratio", rates.len());
    result.info("requests", requests as f64, "count", requests as usize);

    // Correctness against a twin session built from the same seed.
    let twin = fixture::serve_session(opts.seed);
    let samples: Vec<&(Request, Reply)> = loops.iter().flat_map(|s| &s.samples).collect();
    result.check(
        format!(
            "{} sampled replies bit-identical to posterior/predict_proba on a twin session",
            samples.len()
        ),
        !samples.is_empty() && replies_match_twin(&twin, &samples),
    );

    if opts.trace {
        let sent = |kind: &str| loops.iter().map(|s| s.count(kind)).sum::<u64>();
        let counter =
            |reply: &str, key| fixture::field(reply, key).parse::<f64>().expect("counter");
        let hits = counter(&stats_after, "memo_hits") - counter(&stats_before, "memo_hits");
        // Only OP_MARGINAL rows probe the memo.
        let marginal_rows = sent("bin.MARGINAL") * gen::READ_BATCH as u64;
        result.layer(
            "serve.hotpath.memo_hit_ratio",
            hits / marginal_rows.max(1) as f64,
            marginal_rows as usize,
        );
        fixture::server_layers(&mut result, &scrape_before, &scrape_after);
        result.layer("context.candidates", gen::SERVE_ROWS as f64, 1);

        let mut replay_tracer = Tracer::new("replay", epoch, true);
        let replayed = replay(&twin, &samples, opts.seed, cold, &mut replay_tracer);
        let mut table = StageTable::build(&tracers);
        let mut residual_s = 0.0;
        let (mut decode, mut compute, mut encode, mut n) = (0.0, 0.0, 0.0, 0u64);
        for (kind, cost) in [
            ("bin.MARGINAL", replayed.marginal),
            ("bin.PREDICT", replayed.predict),
        ] {
            let calls = sent(kind);
            if calls == 0 {
                continue;
            }
            let (d, c, e) = cost.mean_ns();
            decode += d * calls as f64;
            compute += c * calls as f64;
            encode += e * calls as f64;
            n += calls;
            residual_s += cost.attribute(&mut table, "client", kind, calls, CLIENTS);
        }
        let per_req = |total: f64| total / n.max(1) as f64;
        let n_us = n as usize;
        result.layer("serve.hotpath.decode_ns_per_req", per_req(decode), n_us);
        result.layer("serve.hotpath.compute_ns_per_req", per_req(compute), n_us);
        result.layer("serve.frame.encode_ns_per_req", per_req(encode), n_us);
        let (ns, rows) = replayed.posterior;
        result.layer("core.posterior_ns_per_row", ns, rows);
        let (ns, rows) = replayed.disc_predict;
        result.layer("disc.predict_ns_per_row", ns, rows);
        // `residual_s` is seconds per thread; so is the request count.
        let per_thread_requests = n.max(1) as f64 / CLIENTS as f64;
        result.layer(
            "serve.server.io_residual_us",
            residual_s * 1e6 / per_thread_requests,
            n_us,
        );
        let window = table.windows[0].1;
        result.layer("serve.server.io_residual_share", residual_s / window, n_us);
        tracers.push(replay_tracer);
        crate::finish_trace(&mut result, table, &tracers);
    }

    fx.server.shutdown().expect("server stops");
    result
}

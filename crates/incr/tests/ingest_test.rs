//! Streaming-ingest integration tests: the steady-state `ingest_batch`
//! fast path (per-batch LF execution only, online moment refit from
//! running statistics that matches a cold fit bit-for-bit), the
//! fallback to a full refresh when the steady-state preconditions do
//! not hold, and the acceptance scenario — a drifted stream (one
//! flipped LF) trips the windowed detector, triggers an automatic warm
//! refit, and the refit model restores held-out accuracy on the
//! post-drift regime. An empty steady-state batch changes nothing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use snorkel_context::{CandidateId, Corpus};
use snorkel_core::label_model::MomentStats;
use snorkel_core::model::LabelScheme;
use snorkel_core::optimizer::OptimizerConfig;
use snorkel_incr::{IncrementalSession, SessionConfig};
use snorkel_lf::{lf, BoxedLf};
use snorkel_nlp::tokenize;
use snorkel_stream::DriftConfig;

/// Session config that forces the optimizer onto the moment backend at
/// test scale (the backend with an online refit path), with a drift
/// window small enough for tests to seal.
fn moment_config(window_rows: usize) -> SessionConfig {
    SessionConfig {
        optimizer: OptimizerConfig {
            skip_structure_search: true,
            moment_min_rows: 100,
            // Always model accuracies so the moment-vs-generative branch
            // is reached on this tiny corpus.
            gamma: 0.0,
            ..OptimizerConfig::default()
        },
        drift: DriftConfig {
            window_rows,
            ..DriftConfig::default()
        },
        ..SessionConfig::default()
    }
}

fn row_text(i: usize) -> String {
    let verb = if i.is_multiple_of(3) {
        "causes"
    } else {
        "treats"
    };
    format!("alpha{} {} beta{}", i % 7, verb, i % 5)
}

fn add_row(corpus: &mut Corpus, doc: snorkel_context::DocId, text: &str) -> CandidateId {
    let s = corpus.add_sentence(doc, text, tokenize(text));
    let a = corpus.add_span(s, 0, 1, Some("A"));
    let b = corpus.add_span(s, 2, 3, Some("B"));
    corpus.add_candidate(vec![a, b])
}

fn build_corpus(n: usize) -> Corpus {
    let mut corpus = Corpus::new();
    let doc = corpus.add_document("d");
    for i in 0..n {
        add_row(&mut corpus, doc, &row_text(i));
    }
    corpus
}

/// Append `count` rows (continuing the deterministic text formula at
/// index `start`) to the session's corpus, returning their ids — the
/// arrival of one streamed batch.
fn grow_corpus(session: &mut IncrementalSession, start: usize, count: usize) -> Vec<CandidateId> {
    let corpus = session.corpus_mut();
    let doc = corpus.add_document(format!("ingest-{start}"));
    (start..start + count)
        .map(|i| add_row(corpus, doc, &row_text(i)))
        .collect()
}

/// An LF that counts its own invocations.
fn counting_lf(name: &str, vote_mod: u64, counter: Arc<AtomicUsize>) -> BoxedLf {
    lf(name.to_string(), move |x| {
        counter.fetch_add(1, Ordering::Relaxed);
        let len = x.sentence().text().len() as u64;
        if len.is_multiple_of(vote_mod) {
            1
        } else {
            -1
        }
    })
}

#[test]
fn steady_state_ingest_refits_online_without_a_cold_fit() {
    let mut session =
        IncrementalSession::over_all_candidates(build_corpus(400), moment_config(512));
    let counters: Vec<Arc<AtomicUsize>> = (0..4).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    for (j, counter) in counters.iter().enumerate() {
        session.add_lf(counting_lf(
            &format!("lf_{j}"),
            2 + j as u64,
            Arc::clone(counter),
        ));
    }
    let (_, refresh) = session.refresh();
    assert_eq!(refresh.backend, "moment");
    let gen_after_refresh = session.refresh_generation();

    // Three streamed batches. Each must execute LFs on exactly the new
    // rows, refit online (no cold fit), and bump the generation so
    // posterior memos keyed by it cannot serve the stale model.
    let mut total = 400usize;
    for batch in 0u64..3 {
        let ids = grow_corpus(&mut session, total, 40);
        total += 40;
        let report = session.ingest_batch(&ids);
        assert_eq!(report.rows, 40);
        assert!(report.online_fit, "steady state must refit online");
        assert!(!report.auto_refit, "no drift in a stationary stream");
        assert_eq!(
            report.lf_invocations,
            40 * 4,
            "ingest may execute LFs on the new rows only"
        );
        assert_eq!(report.generation, gen_after_refresh + batch + 1);
        for counter in &counters {
            assert_eq!(counter.load(Ordering::Relaxed), total);
        }
    }

    let lambda = session.label_matrix().expect("Λ built");
    assert_eq!(lambda.num_points(), total, "batches spliced into Λ");
    let stream = session.stream().expect("first ingest enabled streaming");
    assert_eq!(stream.rows(), 120);
    assert_eq!(stream.batches(), 3);

    // The running statistics equal a batch recompute over the spliced Λ
    // bit-for-bit — the invariant that makes the online refit exact.
    let mut batch_stats = MomentStats::new(4, LabelScheme::Binary);
    batch_stats.accumulate_matrix(lambda);
    assert_eq!(stream.stats(), &batch_stats);

    // And the online-refitted model is the one a cold session fitting
    // the same 520 rows from scratch would produce, to the last bit.
    let mut cold = IncrementalSession::over_all_candidates(build_corpus(total), moment_config(512));
    for j in 0..4 {
        cold.add_lf(counting_lf(
            &format!("lf_{j}"),
            2 + j as u64,
            Arc::new(AtomicUsize::new(0)),
        ));
    }
    let (_, cold_refresh) = cold.refresh();
    assert_eq!(cold_refresh.backend, "moment");
    assert_eq!(
        session
            .model()
            .expect("online model")
            .marginals(lambda, None),
        cold.model().expect("cold model").marginals(lambda, None),
        "online refit must match the cold fit bit-for-bit"
    );
}

#[test]
fn ingest_falls_back_to_a_full_refresh_outside_steady_state() {
    let mut session =
        IncrementalSession::over_all_candidates(build_corpus(200), moment_config(512));
    let counter = Arc::new(AtomicUsize::new(0));
    for j in 0..4 {
        session.add_lf(counting_lf(&format!("lf_{j}"), 2 + j, Arc::clone(&counter)));
    }

    // No refresh has run: the first ingest registers the batch and pays
    // a full refresh (every LF over every row), not an online refit.
    let ids = grow_corpus(&mut session, 200, 20);
    let report = session.ingest_batch(&ids);
    assert!(!report.online_fit);
    assert!(!report.auto_refit);
    assert_eq!(report.lf_invocations, 220 * 4);

    // Now in steady state: the next batch is online and per-batch.
    let ids = grow_corpus(&mut session, 220, 20);
    let report = session.ingest_batch(&ids);
    assert!(report.online_fit);
    assert_eq!(report.lf_invocations, 20 * 4);

    // A pending suite edit breaks steady state: the next ingest falls
    // back to the full refresh again (the edited column re-executes).
    session.edit_lf(counting_lf("lf_0", 11, Arc::clone(&counter)));
    let ids = grow_corpus(&mut session, 240, 20);
    let report = session.ingest_batch(&ids);
    assert!(!report.online_fit);
    assert!(report.lf_invocations >= 260, "edited column re-executed");

    // And steady state resumes after the fallback refresh.
    let ids = grow_corpus(&mut session, 260, 20);
    let report = session.ingest_batch(&ids);
    assert!(report.online_fit);
    assert_eq!(report.lf_invocations, 20 * 4);
}

#[test]
fn empty_steady_state_batch_is_a_no_op() {
    let mut session =
        IncrementalSession::over_all_candidates(build_corpus(200), moment_config(512));
    let counter = Arc::new(AtomicUsize::new(0));
    for j in 0..4 {
        session.add_lf(counting_lf(&format!("lf_{j}"), 2 + j, Arc::clone(&counter)));
    }
    session.refresh();
    let ids = grow_corpus(&mut session, 200, 20);
    assert!(session.ingest_batch(&ids).online_fit);

    let generation = session.refresh_generation();
    let invocations = counter.load(Ordering::Relaxed);
    let report = session.ingest_batch(&[]);
    assert_eq!(report.rows, 0);
    assert_eq!(report.lf_invocations, 0);
    assert!(!report.online_fit, "no rows, no refit");
    assert!(!report.auto_refit);
    assert_eq!(report.generation, generation);
    assert_eq!(
        session.refresh_generation(),
        generation,
        "generation-keyed memos stay valid"
    );
    assert_eq!(counter.load(Ordering::Relaxed), invocations);
    assert_eq!(session.num_candidates(), 220);
    let stream = session.stream().expect("streaming active");
    assert_eq!(stream.batches(), 1, "an empty batch is not counted");
    assert_eq!(stream.rows(), 20);
}

// --- The drift acceptance scenario -----------------------------------

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x632B_E5AB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Deterministic ground truth for row `i`.
fn truth(i: usize) -> i8 {
    if mix(i as u64, 0xD1).is_multiple_of(2) {
        1
    } else {
        -1
    }
}

/// Row text for the drift corpus: one hint token per LF (`h{j}p` /
/// `h{j}n`), each agreeing with the row's ground truth 90% of the
/// time. When `flipped`, LF 0's hint is inverted — the drifted regime.
fn drift_row_text(i: usize, flipped: bool) -> String {
    let y = truth(i);
    let tok = |j: usize, flip: bool| {
        let correct = !mix(i as u64, 1000 + j as u64).is_multiple_of(10);
        let mut vote = if correct { y } else { -y };
        if flip {
            vote = -vote;
        }
        format!("h{}{}", j, if vote == 1 { 'p' } else { 'n' })
    };
    format!(
        "{} {} {} {}",
        tok(0, flipped),
        tok(1, false),
        tok(2, false),
        tok(3, false)
    )
}

/// The LF reading hint token `j` (full coverage, binary votes).
fn hint_lf(j: usize) -> BoxedLf {
    lf(format!("lf_h{j}"), move |x| {
        if x.sentence().text().contains(&format!("h{j}p")) {
            1
        } else {
            -1
        }
    })
}

fn grow_drift_corpus(
    session: &mut IncrementalSession,
    start: usize,
    count: usize,
    flipped: bool,
) -> Vec<CandidateId> {
    let corpus = session.corpus_mut();
    let doc = corpus.add_document(format!("ingest-{start}"));
    (start..start + count)
        .map(|i| add_row(corpus, doc, &drift_row_text(i, flipped)))
        .collect()
}

#[test]
fn drifted_stream_triggers_auto_refit_and_restores_heldout_accuracy() {
    const WINDOW: usize = 64;
    let mut corpus = Corpus::new();
    let doc = corpus.add_document("d");
    for i in 0..400 {
        add_row(&mut corpus, doc, &drift_row_text(i, false));
    }
    let mut session = IncrementalSession::over_all_candidates(corpus, moment_config(WINDOW));
    for j in 0..4 {
        session.add_lf(hint_lf(j));
    }
    let (_, refresh) = session.refresh();
    assert_eq!(refresh.backend, "moment");

    // One stationary window seals the reference: no drift.
    let ids = grow_drift_corpus(&mut session, 400, WINDOW, false);
    let report = session.ingest_batch(&ids);
    assert!(report.online_fit);
    assert!(!report.drifted, "stationary stream must not count as drift");
    assert!(!report.auto_refit);

    // The regime shifts: LF 0 flips. The first drifted window seals,
    // its agreement rate diverges from the reference past the
    // threshold, and the session answers with an automatic warm refit.
    let mut total = 400 + WINDOW;
    let ids = grow_drift_corpus(&mut session, total, WINDOW, true);
    total += WINDOW;
    let report = session.ingest_batch(&ids);
    assert!(
        report.drifted,
        "flipped LF must push the score over the threshold"
    );
    assert!(report.auto_refit, "drift must trigger the automatic refit");
    let stream = session.stream().expect("streaming active");
    assert_eq!(stream.auto_refits(), 1);

    // The detector re-anchored on the post-drift regime: continued
    // drifted traffic is the new stationary state, no refit storm.
    for _ in 0..6 {
        let ids = grow_drift_corpus(&mut session, total, WINDOW, true);
        total += WINDOW;
        let report = session.ingest_batch(&ids);
        assert!(report.online_fit);
        assert!(!report.auto_refit, "re-anchored detector must not re-fire");
    }
    assert_eq!(session.stream().expect("stream").auto_refits(), 1);

    // Held-out accuracy on the drifted regime: by now the refit model
    // has learned LF 0 is useless (≈50% accurate over the mixed Λ), so
    // predictions follow the three faithful LFs — restoring accuracy a
    // model still trusting LF 0's pre-drift weight could not reach.
    let lambda = session.label_matrix().expect("Λ");
    assert_eq!(lambda.num_points(), total);
    let marginals = session.model().expect("model").marginals(lambda, None);
    let eval = (total - 256)..total;
    let correct = eval
        .clone()
        .filter(|&i| {
            let p = &marginals[i];
            let pred: i8 = if p[0] >= p[1] { 1 } else { -1 };
            pred == truth(i)
        })
        .count();
    let accuracy = correct as f64 / eval.len() as f64;
    assert!(
        accuracy >= 0.85,
        "post-refit held-out accuracy {accuracy} on the drifted tail"
    );
}

/// The message of the append-only panic, whichever way the session
/// learned its candidates.
fn duplicate_ingest_message(session: &mut IncrementalSession, ids: &[CandidateId]) -> String {
    let before = session.num_candidates();
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        session.ingest_candidates(ids);
    }))
    .expect_err("a duplicate candidate must be rejected");
    assert_eq!(
        session.num_candidates(),
        before,
        "a rejected batch adds no row"
    );
    panic
        .downcast_ref::<String>()
        .expect("formatted panic")
        .clone()
}

#[test]
fn duplicate_candidates_are_rejected_however_the_session_was_built() {
    let corpus = build_corpus(12);
    let ids: Vec<CandidateId> = corpus.candidate_ids().collect();
    let want = format!(
        "candidate {} is already registered (rows are append-only and unique)",
        ids[3]
    );

    let mut session =
        IncrementalSession::over_all_candidates(corpus.clone(), SessionConfig::default());
    assert_eq!(duplicate_ingest_message(&mut session, &ids[3..4]), want);

    session.add_lf(lf("len_even", |x| {
        if x.sentence().text().len() % 2 == 0 {
            1
        } else {
            -1
        }
    }));
    session.refresh();
    let lfs = vec![lf("len_even", |_| 0)];
    let mut thawed = IncrementalSession::thaw(
        corpus.clone(),
        SessionConfig::default(),
        session.freeze(),
        lfs,
    )
    .expect("thaw");
    assert_eq!(duplicate_ingest_message(&mut thawed, &ids[3..4]), want);

    // A batch that repeats an id within itself — and the ids before the
    // repeat stay ingestible afterwards.
    let mut fresh = IncrementalSession::new(corpus, SessionConfig::default());
    let batch = [ids[0], ids[3], ids[5], ids[3]];
    assert_eq!(duplicate_ingest_message(&mut fresh, &batch), want);
    fresh.ingest_candidates(&batch[..3]);
    assert_eq!(fresh.num_candidates(), 3);
}

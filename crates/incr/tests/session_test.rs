//! Integration tests for the incremental session: exact re-execution
//! accounting, cache semantics (tagged reverts, remove/re-add), structure
//! reuse, and the acceptance scenario — editing 1 LF in a 25-LF suite on
//! the synthetic corpus re-executes only that column and refreshes ≥5×
//! faster than a cold pipeline run, with bit-identical Λ and labels.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use snorkel_context::{CandidateId, Corpus};
use snorkel_core::optimizer::OptimizerConfig;
use snorkel_core::pipeline::{Pipeline, PipelineConfig};
use snorkel_datasets::{cdr, TaskConfig};
use snorkel_incr::{IncrementalSession, LambdaUpdate, SessionConfig};
use snorkel_lf::{lf, BoxedLf};
use snorkel_nlp::tokenize;

fn build_corpus(n: usize) -> (Corpus, Vec<CandidateId>) {
    let mut corpus = Corpus::new();
    let doc = corpus.add_document("d");
    let mut ids = Vec::new();
    for i in 0..n {
        let verb = if i % 3 == 0 { "causes" } else { "treats" };
        let text = format!("alpha{} {} beta{}", i % 7, verb, i % 5);
        let s = corpus.add_sentence(doc, &text, tokenize(&text));
        let a = corpus.add_span(s, 0, 1, Some("A"));
        let b = corpus.add_span(s, 2, 3, Some("B"));
        ids.push(corpus.add_candidate(vec![a, b]));
    }
    (corpus, ids)
}

/// FNV-1a of a sentence's text: `build_corpus` gives 70 distinct
/// texts of one length, so LFs that vote on this hash (not on the
/// length) split the rows into many vote patterns.
fn text_hash(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// An LF that counts its own invocations.
fn counting_lf(name: &str, vote_mod: u64, counter: Arc<AtomicUsize>) -> BoxedLf {
    lf(name.to_string(), move |x| {
        counter.fetch_add(1, Ordering::Relaxed);
        if text_hash(x.sentence().text()).is_multiple_of(vote_mod) {
            1
        } else {
            -1
        }
    })
}

#[test]
fn editing_one_lf_reexecutes_only_that_column() {
    let (corpus, _) = build_corpus(100);
    let mut session = IncrementalSession::over_all_candidates(corpus, SessionConfig::default());
    let counters: Vec<Arc<AtomicUsize>> = (0..4).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    for (j, counter) in counters.iter().enumerate() {
        session.add_lf(counting_lf(
            &format!("lf_{j}"),
            2 + j as u64,
            Arc::clone(counter),
        ));
    }

    let (_, report) = session.refresh();
    assert_eq!(report.columns_recomputed, 4);
    assert_eq!(report.lf_invocations, 400);
    for counter in &counters {
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    // Edit LF 1: only its column re-executes.
    let edited = Arc::new(AtomicUsize::new(0));
    session.edit_lf(counting_lf("lf_1", 5, Arc::clone(&edited)));
    let (_, report) = session.refresh();
    assert_eq!(report.columns_recomputed, 1);
    assert_eq!(report.columns_reused, 3);
    assert_eq!(report.lf_invocations, 100);
    assert_eq!(edited.load(Ordering::Relaxed), 100);
    for (j, counter) in counters.iter().enumerate() {
        assert_eq!(
            counter.load(Ordering::Relaxed),
            100,
            "unchanged LF {j} must not re-execute"
        );
    }
    assert_eq!(
        report.lambda_update,
        LambdaUpdate::Patched {
            columns_replaced: 1,
            rows_appended: 0
        }
    );

    // Refresh with no edits at all: nothing executes, Λ untouched.
    let (_, report) = session.refresh();
    assert_eq!(report.lf_invocations, 0);
    assert_eq!(report.lambda_update, LambdaUpdate::Unchanged);
}

#[test]
fn ingesting_candidates_extends_columns_only() {
    let (corpus, ids) = build_corpus(150);
    let mut session = IncrementalSession::new(corpus, SessionConfig::default());
    session.ingest_candidates(&ids[..100]);
    let counter = Arc::new(AtomicUsize::new(0));
    session.add_lf(counting_lf("lf_a", 2, Arc::clone(&counter)));
    session.add_lf(lf("lf_b", |x| {
        if x.sentence().text().contains("causes") {
            1
        } else {
            0
        }
    }));

    session.refresh();
    assert_eq!(counter.load(Ordering::Relaxed), 100);

    session.ingest_candidates(&ids[100..150]);
    let (_, report) = session.refresh();
    // Both columns extend over exactly the 50 new rows.
    assert_eq!(report.columns_extended, 2);
    assert_eq!(report.lf_invocations, 100);
    assert_eq!(counter.load(Ordering::Relaxed), 150);
    assert_eq!(
        report.lambda_update,
        LambdaUpdate::Patched {
            columns_replaced: 0,
            rows_appended: 50
        }
    );
    assert_eq!(session.label_matrix().unwrap().num_points(), 150);
}

#[test]
fn tagged_edit_reverts_are_cache_hits() {
    let (corpus, _) = build_corpus(80);
    let mut session = IncrementalSession::over_all_candidates(corpus, SessionConfig::default());
    let counter_v1 = Arc::new(AtomicUsize::new(0));
    session.add_lf_tagged(counting_lf("lf", 2, Arc::clone(&counter_v1)), 1);
    session.refresh();
    assert_eq!(counter_v1.load(Ordering::Relaxed), 80);

    // v2, then revert to v1's tag: the revert must not execute at all.
    let counter_v2 = Arc::new(AtomicUsize::new(0));
    session.edit_lf_tagged(counting_lf("lf", 3, Arc::clone(&counter_v2)), 2);
    session.refresh();
    assert_eq!(counter_v2.load(Ordering::Relaxed), 80);

    let counter_v1_again = Arc::new(AtomicUsize::new(0));
    session.edit_lf_tagged(counting_lf("lf", 2, Arc::clone(&counter_v1_again)), 1);
    let (_, report) = session.refresh();
    assert_eq!(report.columns_reused, 1);
    assert_eq!(report.lf_invocations, 0);
    assert_eq!(
        counter_v1_again.load(Ordering::Relaxed),
        0,
        "revert to a cached version must be served from cache"
    );
}

#[test]
fn remove_then_readd_same_version_is_free() {
    let (corpus, _) = build_corpus(60);
    let mut session = IncrementalSession::over_all_candidates(corpus, SessionConfig::default());
    session.add_lf_tagged(lf("keep", |_| 1), 7);
    session.add_lf_tagged(lf("toggle", |_| -1), 9);
    session.refresh();

    assert_eq!(session.remove_lf("toggle"), Some(1));
    let (_, report) = session.refresh();
    assert_eq!(session.num_lfs(), 1);
    assert_eq!(report.lf_invocations, 0);

    let counter = Arc::new(AtomicUsize::new(0));
    session.add_lf_tagged(counting_lf("toggle", 2, Arc::clone(&counter)), 9);
    let (_, report) = session.refresh();
    assert_eq!(session.num_lfs(), 2);
    assert_eq!(report.lf_invocations, 0, "re-added version must be cached");
    assert_eq!(counter.load(Ordering::Relaxed), 0);
}

#[test]
fn untagged_edits_are_conservative() {
    let (corpus, _) = build_corpus(40);
    let mut session = IncrementalSession::over_all_candidates(corpus, SessionConfig::default());
    let c1 = Arc::new(AtomicUsize::new(0));
    session.add_lf(counting_lf("lf", 2, Arc::clone(&c1)));
    session.refresh();
    // Untagged edit to a behaviorally identical LF: still recomputed.
    let c2 = Arc::new(AtomicUsize::new(0));
    session.edit_lf(counting_lf("lf", 2, Arc::clone(&c2)));
    let (_, report) = session.refresh();
    assert_eq!(report.columns_recomputed, 1);
    assert_eq!(c2.load(Ordering::Relaxed), 40);
}

#[test]
#[should_panic(expected = "already in the suite")]
fn duplicate_names_rejected() {
    let (corpus, _) = build_corpus(10);
    let mut session = IncrementalSession::over_all_candidates(corpus, SessionConfig::default());
    session.add_lf(lf("dup", |_| 1));
    session.add_lf(lf("dup", |_| -1));
}

#[test]
#[should_panic(expected = "append-only")]
fn duplicate_candidates_rejected() {
    let (corpus, ids) = build_corpus(10);
    let mut session = IncrementalSession::new(corpus, SessionConfig::default());
    session.ingest_candidates(&ids);
    session.ingest_candidates(&ids[..1]);
}

/// The acceptance scenario: 25-LF suite on the synthetic corpus, edit one
/// LF. Only the edited column re-executes; refresh beats a cold
/// `Pipeline::run` by ≥5×; Λ and the labels are bit-identical.
#[test]
fn acceptance_one_lf_edit_is_5x_faster_than_cold_pipeline() {
    // Tier-1 runs tests unoptimized; keep the corpus big enough to be
    // meaningful but debug-friendly. A release-mode run measures the
    // full 10k.
    let num_candidates = if cfg!(debug_assertions) {
        2_500
    } else {
        10_000
    };
    let task = cdr::build(TaskConfig {
        num_candidates,
        seed: 3,
    });
    let cold_task = cdr::build(TaskConfig {
        num_candidates,
        seed: 3,
    });
    // Two behaviorally identical copies of the "edited" version of LF 7:
    // a dev-loop refinement (same heuristic, now abstaining on a
    // hash-derived 10% of candidates), one for the session and one for
    // the cold rebuild.
    let spare = cdr::build(TaskConfig {
        num_candidates: 10,
        seed: 3,
    });
    let mut refined = spare.lfs.into_iter().skip(10);
    let refine = |inner: BoxedLf, counter: Arc<AtomicUsize>| -> BoxedLf {
        lf(inner.name().to_string(), move |x| {
            counter.fetch_add(1, Ordering::Relaxed);
            // Cheap deterministic 10% abstain mask over candidates.
            if x.sentence().text().len() % 10 == 3 {
                0
            } else {
                inner.label(x)
            }
        })
    };
    let n_lfs = 25;
    let optimizer = OptimizerConfig {
        skip_structure_search: true,
        ..OptimizerConfig::default()
    };

    let mut session = IncrementalSession::new(
        task.corpus,
        SessionConfig {
            optimizer: optimizer.clone(),
            ..SessionConfig::default()
        },
    );
    session.ingest_candidates(&task.candidates);
    for (j, f) in task.lfs.into_iter().take(n_lfs).enumerate() {
        session.add_lf_tagged(f, j as u64);
    }
    session.refresh(); // cold first refresh primes the cache/model

    // The edit: refine LF 10. Timing is min-of-3 (each cycle re-edits to
    // a fresh untagged version, so every refresh genuinely re-executes
    // the column) — a single Instant sample under a loaded test runner is
    // too noisy to gate CI on.
    let edited = Arc::new(AtomicUsize::new(0));
    let refined_lf = refined.next().expect("LF 10");
    session.edit_lf(refine(refined_lf, Arc::clone(&edited)));
    let mut incr_time = std::time::Duration::MAX;
    let mut labels = Vec::new();
    for cycle in 0..3 {
        if cycle > 0 {
            let again = cdr::build(TaskConfig {
                num_candidates: 10,
                seed: 3,
            });
            edited.store(0, Ordering::Relaxed);
            session.edit_lf(refine(
                again.lfs.into_iter().nth(10).expect("LF 10"),
                Arc::clone(&edited),
            ));
        }
        let t_incr = std::time::Instant::now();
        let (l, r) = session.refresh();
        incr_time = incr_time.min(t_incr.elapsed());

        // Only the edited column executed, every cycle.
        assert_eq!(r.columns_recomputed, 1);
        assert_eq!(r.columns_reused, n_lfs - 1);
        assert_eq!(r.lf_invocations, session.num_candidates());
        assert_eq!(edited.load(Ordering::Relaxed), session.num_candidates());
        assert!(!r.warm_started, "the exact fit is cold");
        labels = l;
    }

    // Cold pipeline over the same edited suite.
    let mut cold_suite: Vec<BoxedLf> = cold_task.lfs.into_iter().take(n_lfs).collect();
    let cold_counter = Arc::new(AtomicUsize::new(0));
    cold_suite[10] = refine(
        {
            let again = cdr::build(TaskConfig {
                num_candidates: 10,
                seed: 3,
            });
            again.lfs.into_iter().nth(10).expect("LF 10")
        },
        Arc::clone(&cold_counter),
    );
    let pipeline = Pipeline::new(PipelineConfig {
        optimizer,
        ..PipelineConfig::default()
    });
    let mut cold_time = std::time::Duration::MAX;
    let mut cold_labels = Vec::new();
    for _ in 0..3 {
        let t_cold = std::time::Instant::now();
        let (l, _) = pipeline.run(&cold_suite, &cold_task.corpus, &cold_task.candidates);
        cold_time = cold_time.min(t_cold.elapsed());
        cold_labels = l;
    }

    // Bit-identical Λ.
    let cold_lambda =
        snorkel_lf::LfExecutor::new().apply(&cold_suite, &cold_task.corpus, &cold_task.candidates);
    assert_eq!(session.label_matrix(), Some(&cold_lambda));

    // Bit-identical labels: the refresh fits cold over Λ's own index.
    assert_eq!(bits(&labels), bits(&cold_labels));

    // ≥5× faster than the cold pipeline.
    let speedup = cold_time.as_secs_f64() / incr_time.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 5.0,
        "refresh speedup {speedup:.1}× (cold {cold_time:?} vs incremental {incr_time:?})"
    );
}

/// The session's pattern index equals `PatternIndex::build(Λ)` through
/// every delta edit (column edit, candidate ingestion, LF removal), and
/// the labels equal a cold pipeline's bit for bit.
#[test]
fn session_keeps_pattern_index_consistent() {
    use snorkel_matrix::PatternIndex;

    let (corpus, ids) = build_corpus(400);
    let (cold_corpus, _) = build_corpus(400);
    let optimizer = OptimizerConfig {
        skip_structure_search: true,
        ..OptimizerConfig::default()
    };
    let mut session = IncrementalSession::new(
        corpus,
        SessionConfig {
            optimizer: optimizer.clone(),
            ..SessionConfig::default()
        },
    );
    session.ingest_candidates(&ids);
    let suite = |mods: &[u64]| -> Vec<BoxedLf> {
        mods.iter()
            .enumerate()
            .map(|(j, &m)| {
                lf(format!("lf_{j}"), move |x| {
                    if text_hash(x.sentence().text()).is_multiple_of(m) {
                        1
                    } else {
                        -1
                    }
                })
            })
            .collect()
    };
    for f in suite(&[2, 3, 4, 5]) {
        session.add_lf(f);
    }

    let check_plan = |session: &IncrementalSession| {
        let lambda = session.label_matrix().expect("Λ built");
        let plan = session.pattern_plan().expect("a plan is kept with Λ");
        // Id for id the index a fresh build gives.
        plan.validate(lambda).unwrap();
        assert_eq!(
            plan.num_patterns(),
            PatternIndex::build(lambda).num_patterns()
        );
    };

    let (_, report) = session.refresh();
    assert!(report.unique_patterns >= 10, "{}", report.unique_patterns);
    check_plan(&session);

    // Column edit → index rebuild.
    session.edit_lf(lf("lf_1", |x| {
        if x.sentence().text().len() % 7 == 0 {
            1
        } else {
            0
        }
    }));
    let (_, report) = session.refresh();
    assert_eq!(
        report.lambda_update,
        LambdaUpdate::Patched {
            columns_replaced: 1,
            rows_appended: 0
        }
    );
    check_plan(&session);

    // Candidate ingestion → row-append path.
    let new_ids: Vec<_> = {
        let c = session.corpus_mut();
        let doc = c.add_document("growth");
        (0..60)
            .map(|i| {
                let text = format!("gamma{} links delta{}", i % 5, i % 3);
                let s = c.add_sentence(doc, &text, tokenize(&text));
                let a = c.add_span(s, 0, 1, Some("A"));
                let b = c.add_span(s, 2, 3, Some("B"));
                c.add_candidate(vec![a, b])
            })
            .collect()
    };
    session.ingest_candidates(&new_ids);
    let (_, report) = session.refresh();
    assert_eq!(
        report.lambda_update,
        LambdaUpdate::Patched {
            columns_replaced: 0,
            rows_appended: 60
        }
    );
    check_plan(&session);

    // Structural edit (LF removal) → plan rebuild.
    session.remove_lf("lf_2");
    let (labels, report) = session.refresh();
    assert_eq!(report.lambda_update, LambdaUpdate::Assembled);
    check_plan(&session);

    // Equivalence with a cold, row-wise pipeline over the final suite.
    let mut cold_suite = suite(&[2, 3, 4, 5]);
    cold_suite.remove(2);
    cold_suite[1] = lf("lf_1", |x| {
        if x.sentence().text().len() % 7 == 0 {
            1
        } else {
            0
        }
    });
    let mut cold_corpus = cold_corpus;
    let cold_ids: Vec<_> = {
        let doc = cold_corpus.add_document("growth");
        (0..60)
            .map(|i| {
                let text = format!("gamma{} links delta{}", i % 5, i % 3);
                let s = cold_corpus.add_sentence(doc, &text, tokenize(&text));
                let a = cold_corpus.add_span(s, 0, 1, Some("A"));
                let b = cold_corpus.add_span(s, 2, 3, Some("B"));
                cold_corpus.add_candidate(vec![a, b])
            })
            .collect()
    };
    let all_ids: Vec<_> = cold_corpus
        .candidate_ids()
        .filter(|id| session.candidates().contains(id) || cold_ids.contains(id))
        .collect();
    let pipeline = Pipeline::new(PipelineConfig {
        optimizer,
        ..PipelineConfig::default()
    });
    let (cold_labels, _) = pipeline.run(&cold_suite, &cold_corpus, &all_ids);
    assert_eq!(bits(&labels), bits(&cold_labels));
}

/// Every label's bits, row by row.
fn bits(labels: &[Vec<f64>]) -> Vec<u64> {
    labels.iter().flatten().map(|p| p.to_bits()).collect()
}

#[test]
fn freeze_thaw_round_trip_is_warm_and_bit_identical() {
    // Force generative training so the frozen state carries a model.
    let config = || SessionConfig {
        force_strategy: Some(snorkel_core::optimizer::ModelingStrategy::GenerativeModel {
            epsilon: 0.0,
            correlations: Vec::new(),
            strengths: Vec::new(),
        }),
        ..SessionConfig::default()
    };
    let (corpus, _) = build_corpus(120);
    let thaw_corpus = corpus.clone();
    let mut session = IncrementalSession::over_all_candidates(corpus, config());
    let c0 = Arc::new(AtomicUsize::new(0));
    for j in 0..4 {
        session.add_lf(counting_lf(&format!("lf_{j}"), 2 + j, Arc::clone(&c0)));
    }
    let (_, report) = session.refresh();
    assert!(c0.load(Ordering::Relaxed) > 0, "cold refresh executed LFs");
    assert!(report.unique_patterns >= 10, "{}", report.unique_patterns);
    let frozen = session.freeze();
    let frozen_model_marginals = session
        .model()
        .expect("model trained")
        .marginals(session.label_matrix().expect("Λ built"), None);
    // What the original process would produce on its next (no-op)
    // refresh — the reference for the thawed session's first refresh.
    let (reference_labels, _) = session.refresh();
    drop(session); // "kill" the process

    // Resume: fresh corpus + freshly constructed (identical) LFs.
    let c1 = Arc::new(AtomicUsize::new(0));
    let lfs: Vec<BoxedLf> = (0..4)
        .map(|j| counting_lf(&format!("lf_{j}"), 2 + j, Arc::clone(&c1)))
        .collect();
    let mut thawed = match IncrementalSession::thaw(thaw_corpus, config(), frozen, lfs) {
        Ok(s) => s,
        Err(e) => panic!("thaw failed: {e}"),
    };
    // The thawed model answers marginal queries before any refresh,
    // bit-identical to the frozen process's model.
    let model = thawed.model().expect("model restored");
    let lambda = thawed.label_matrix().expect("Λ restored").clone();
    assert_eq!(
        model.marginals(&lambda, None),
        frozen_model_marginals,
        "restored model marginals bit-identical to the frozen model's"
    );
    // An unchanged-suite refresh executes zero LF invocations and lands
    // exactly where the original process's next refresh would have.
    let (labels, report) = thawed.refresh();
    assert_eq!(report.lf_invocations, 0, "thaw must not re-execute LFs");
    assert_eq!(c1.load(Ordering::Relaxed), 0, "no LF code ran after thaw");
    assert_eq!(labels, reference_labels, "thawed refresh bit-identical");
    assert_eq!(report.columns_reused, 4);

    // Editing one LF after thaw re-executes exactly that column.
    thawed.edit_lf(counting_lf("lf_2", 11, Arc::clone(&c1)));
    let (_, report) = thawed.refresh();
    assert_eq!(report.columns_recomputed, 1);
    assert_eq!(report.lf_invocations, 120);
}

/// An LF reading one digit of `alpha<d> <verb> beta<e>`: +1 on `pos`,
/// −1 on `neg`, abstain on the rest.
fn digit_lf(name: &str, beta: bool, pos: &'static str, neg: &'static str) -> BoxedLf {
    lf(name.to_string(), move |x| {
        let text = x.sentence().text();
        let d = if beta {
            text.chars().last()
        } else {
            text.chars().nth(5)
        };
        match d {
            Some(d) if pos.contains(d) => 1,
            Some(d) if neg.contains(d) => -1,
            _ => 0,
        }
    })
}

/// A session thawed after an LF edit holds the index a fresh build of
/// Λ gives, and when the edit is reverted it fits the live session's
/// bits.
#[test]
fn thawed_session_refits_like_the_live_one_after_an_edit() {
    let config = || SessionConfig {
        force_strategy: Some(snorkel_core::optimizer::ModelingStrategy::GenerativeModel {
            epsilon: 0.0,
            correlations: Vec::new(),
            strengths: Vec::new(),
        }),
        ..SessionConfig::default()
    };
    let v1 = || keyword_lf("lf_c", &["causes"], 1);
    let v2 = || digit_lf("lf_c", false, "", "456");
    let (corpus, _) = build_corpus(120);
    let mut session = IncrementalSession::over_all_candidates(corpus.clone(), config());
    session.add_lf(digit_lf("lf_a", false, "01", "23"));
    session.add_lf(digit_lf("lf_b", true, "2", "01"));
    session.add_lf_tagged(v1(), 1);
    session.refresh();
    session.edit_lf_tagged(v2(), 2);
    let (_, report) = session.refresh();
    assert!(report.unique_patterns >= 8, "{}", report.unique_patterns);

    let lfs = vec![
        digit_lf("lf_a", false, "01", "23"),
        digit_lf("lf_b", true, "2", "01"),
        v2(),
    ];
    let mut twin = IncrementalSession::thaw(corpus, config(), session.freeze(), lfs).expect("thaw");
    let revert = |s: &mut IncrementalSession| {
        s.edit_lf_tagged(v1(), 1);
        let (labels, report) = s.refresh();
        assert_eq!(report.lf_invocations, 0, "v1's column is cached");
        labels
    };
    let (want, got) = (revert(&mut session), revert(&mut twin));
    for s in [&session, &twin] {
        let plan = s.pattern_plan().expect("refreshed");
        plan.validate(s.label_matrix().expect("Λ")).unwrap();
    }
    assert_eq!(bits(&got), bits(&want), "bit-identical labels");
}

#[test]
fn thaw_rejects_mismatched_suite_and_corpus() {
    let (corpus, _) = build_corpus(30);
    let small_corpus = build_corpus(10).0;
    let mut session =
        IncrementalSession::over_all_candidates(corpus.clone(), SessionConfig::default());
    let c = Arc::new(AtomicUsize::new(0));
    session.add_lf(counting_lf("lf_a", 2, Arc::clone(&c)));
    session.refresh();
    let frozen = session.freeze();

    // Wrong LF name.
    let thawed = IncrementalSession::thaw(
        corpus.clone(),
        SessionConfig::default(),
        frozen.clone(),
        vec![counting_lf("lf_b", 2, Arc::clone(&c))],
    );
    assert!(matches!(
        thawed.err(),
        Some(snorkel_incr::ThawError::SuiteMismatch(_))
    ));

    // Corpus too small for the registered candidates.
    let thawed = IncrementalSession::thaw(
        small_corpus,
        SessionConfig::default(),
        frozen.clone(),
        vec![counting_lf("lf_a", 2, Arc::clone(&c))],
    );
    assert!(matches!(
        thawed.err(),
        Some(snorkel_incr::ThawError::Inconsistent(_))
    ));

    // Tampered states, each refused as inconsistent with the reason
    // given. Λ is rebuilt from the cached columns of the last refresh,
    // so every tampering below reaches it through the cache, Λ's row
    // count or the model.
    let reject = |bad: snorkel_incr::FrozenSession, why: &str| match IncrementalSession::thaw(
        corpus.clone(),
        SessionConfig::default(),
        bad,
        vec![counting_lf("lf_a", 2, Arc::clone(&c))],
    ) {
        Err(snorkel_incr::ThawError::Inconsistent(msg)) => {
            assert!(msg.contains(why), "want {why:?}, got {msg:?}")
        }
        Err(e) => panic!("want Inconsistent ({why}), got {e}"),
        Ok(_) => panic!("thaw accepted a tampered state ({why})"),
    };
    fn column(f: &mut snorkel_incr::FrozenSession) -> &mut snorkel_incr::FrozenColumn {
        let live = f.last_fingerprints[0];
        f.cache
            .columns
            .iter_mut()
            .find(|col| col.fingerprint == live)
            .expect("live column cached")
    }

    // Fewer registered rows than the cached columns cover.
    let mut bad = frozen.clone();
    bad.candidates.pop();
    reject(bad, "covers 30 rows but only 29 candidates");

    // Λ's rows beyond the registered ones
    // (the columns shortened to match so that this check is the one
    // reached).
    let mut bad = frozen.clone();
    bad.candidates.pop();
    let col = column(&mut bad);
    col.rows = 29;
    col.entries.retain(|&(row, _)| row < 29);
    reject(bad, "Λ has 30 rows but only 29 candidates");

    // A live column longer than the corpus: a later ingest would index
    // past the registered rows.
    let mut bad = frozen.clone();
    let col = column(&mut bad);
    col.rows += 5;
    col.entries.push((32, 1));
    reject(bad, "covers 35 rows but only 30 candidates");

    // The same for a superseded column, which Λ never reads.
    let mut bad = frozen.clone();
    bad.cache.columns.push(snorkel_incr::FrozenColumn {
        fingerprint: snorkel_incr::Fingerprint(0x5EED),
        rows: 31,
        entries: vec![(30, -1)],
    });
    reject(bad, "covers 31 rows but only 30 candidates");

    // A refreshed session without its model.
    let mut bad = frozen.clone();
    bad.model = None;
    reject(bad, "model is missing");

    // A last-refresh column missing from the cache.
    let mut bad = frozen.clone();
    let live = bad.last_fingerprints[0];
    bad.cache.columns.retain(|col| col.fingerprint != live);
    reject(bad, "of the last refresh is not cached");

    // A last-refresh column shorter than Λ's rows.
    let mut bad = frozen.clone();
    let col = column(&mut bad);
    col.rows = 20;
    col.entries.retain(|&(row, _)| row < 20);
    reject(bad, "covers 20 rows but Λ has 30");

    // Λ's row count on a state that never refreshed.
    let mut bad = frozen;
    bad.model = None;
    bad.last_fingerprints.clear();
    reject(bad, "model is missing");
}

/// A refresh over an empty suite leaves Λ with rows but no column to
/// count them from; a thaw keeps that row count, so the rows registered
/// since are appended on the next refresh, as in the live session.
#[test]
fn thaw_keeps_the_row_count_of_an_empty_suite() {
    let (corpus, ids) = build_corpus(30);
    let mut session = IncrementalSession::new(corpus.clone(), SessionConfig::default());
    session.ingest_candidates(&ids[..20]);
    session.refresh();
    session.ingest_candidates(&ids[20..]);
    let frozen = session.freeze();
    assert_eq!(frozen.lambda_rows, 20);
    let mut twin = IncrementalSession::thaw(corpus, SessionConfig::default(), frozen, Vec::new())
        .expect("thaw");
    assert_eq!(twin.label_matrix(), session.label_matrix());
    for s in [&mut session, &mut twin] {
        let (labels, report) = s.refresh();
        assert_eq!(labels.len(), 30);
        assert_eq!(
            report.lambda_update,
            LambdaUpdate::Patched {
                columns_replaced: 0,
                rows_appended: 10
            }
        );
    }
}

#[test]
fn optimizer_switches_to_moment_backend_at_scale() {
    // With the moment threshold scaled down, the optimizer selects the
    // closed-form moment backend for this session; the report and the
    // live model agree on the backend, and a subsequent edit refits the
    // same backend without touching untouched columns.
    let (corpus, _) = build_corpus(400);
    let config = SessionConfig {
        optimizer: OptimizerConfig {
            skip_structure_search: true,
            moment_min_rows: 100,
            // Always model accuracies so the moment-vs-generative branch
            // (what this test is about) is reached on this tiny corpus.
            gamma: 0.0,
            ..OptimizerConfig::default()
        },
        ..SessionConfig::default()
    };
    let mut session = IncrementalSession::over_all_candidates(corpus, config);
    let counters: Vec<Arc<AtomicUsize>> = (0..4).map(|_| Arc::new(AtomicUsize::new(0))).collect();
    for (j, counter) in counters.iter().enumerate() {
        session.add_lf(counting_lf(
            &format!("lf_{j}"),
            2 + j as u64,
            Arc::clone(counter),
        ));
    }
    let (labels, report) = session.refresh();
    assert_eq!(report.backend, "moment");
    assert_eq!(session.backend_name(), Some("moment"));
    assert!(labels
        .iter()
        .all(|p| (p.iter().sum::<f64>() - 1.0).abs() < 1e-9));

    // Freeze/thaw keeps the backend tag.
    let frozen = session.freeze();
    assert_eq!(
        frozen.model.as_ref().map(|m| m.backend_name()),
        Some("moment")
    );

    // One edit: only that column re-executes, and the moment backend
    // refits (closed form — no warm start needed or claimed).
    session.edit_lf(counting_lf("lf_2", 7, Arc::new(AtomicUsize::new(0))));
    let (_, report) = session.refresh();
    assert_eq!(report.backend, "moment");
    assert_eq!(report.columns_recomputed, 1);
    assert_eq!(report.columns_reused, 3);
    assert!(!report.warm_started);
}

#[test]
fn distillation_staleness_and_install_flow() {
    use snorkel_core::pipeline::DiscTrainerConfig;

    let (corpus, _) = build_corpus(200);
    let config = SessionConfig {
        distill: Some(DiscTrainerConfig::with_dim(1 << 12)),
        ..SessionConfig::default()
    };
    let mut session = IncrementalSession::over_all_candidates(corpus, config);
    session.add_lf(keyword_lf("lf_causes", &["causes"], 1));
    session.add_lf(keyword_lf("lf_treats", &["treats"], -1));

    // No refresh yet: nothing to distill.
    assert_eq!(session.refresh_generation(), 0);
    assert!(session.disc_training_set().is_none());
    assert!(session.distill().is_none());
    assert!(!session.disc_is_stale(), "no disc model, nothing lags");

    session.refresh();
    assert_eq!(session.refresh_generation(), 1);
    let report = session.distill().expect("training set available");
    assert!(report.rows_trained > 0, "covered rows carry signal");
    let disc = session.disc().expect("disc model installed");
    assert_eq!(disc.generation, 1);
    assert!(!session.disc_is_stale());

    // The disc model scores a candidate with zero LF coverage.
    let dim = disc.model.dim();
    let x = snorkel_disc::hash_features(["btw=causes"], dim);
    assert_eq!(disc.model.predict_proba(&x).len(), 2);

    // A refresh makes the disc model stale without touching it —
    // reads never block on retraining.
    session.edit_lf(keyword_lf("lf_treats", &["treats", "cures"], -1));
    session.refresh();
    assert_eq!(session.refresh_generation(), 2);
    assert!(session.disc_is_stale());
    assert_eq!(session.disc().expect("still serving").generation, 1);

    // The non-blocking flow: clone the training set out, train, install.
    let set = session.disc_training_set().expect("set");
    assert_eq!(set.generation, 2);
    assert!(set.warm.is_some(), "warm-starts from the live model");
    let (state, _) = set.train();
    assert!(
        session.install_disc(state),
        "trained on the live generation"
    );
    assert!(!session.disc_is_stale());

    // Installing an older model than the live one is refused.
    let stale = snorkel_incr::DiscState {
        generation: 0,
        ..session.disc().unwrap().clone()
    };
    assert!(!session.install_disc(stale));
    assert_eq!(
        session.disc().unwrap().generation,
        2,
        "kept the newer model"
    );
}

#[test]
fn freeze_thaw_preserves_disc_model_and_staleness() {
    use snorkel_core::pipeline::DiscTrainerConfig;

    let (corpus, _) = build_corpus(150);
    let config = SessionConfig {
        distill: Some(DiscTrainerConfig::with_dim(1 << 12)),
        ..SessionConfig::default()
    };
    let mut session = IncrementalSession::over_all_candidates(corpus.clone(), config.clone());
    session.add_lf(keyword_lf("lf_causes", &["causes"], 1));
    session.refresh();
    session.distill().expect("distilled");
    // Make it stale before freezing: staleness must survive the trip.
    session.edit_lf(keyword_lf("lf_causes", &["causes", "induces"], 1));
    session.refresh();
    assert!(session.disc_is_stale());
    let probe = snorkel_disc::hash_features(["btw=causes", "u=alpha1"], 1 << 12);
    let before = session.disc().unwrap().model.predict_proba(&probe);

    let frozen = session.freeze();
    let lfs = vec![keyword_lf("lf_causes", &["causes", "induces"], 1)];
    let thawed = IncrementalSession::thaw(corpus, config, frozen, lfs).expect("thaw");
    assert_eq!(thawed.refresh_generation(), session.refresh_generation());
    assert!(thawed.disc_is_stale(), "staleness survives the round trip");
    let after = thawed.disc().unwrap().model.predict_proba(&probe);
    assert_eq!(before, after, "disc predictions are bit-identical");
}

fn keyword_lf(name: &str, kws: &[&str], label: i8) -> BoxedLf {
    Box::new(snorkel_lf::KeywordBetweenLf::new(
        name.to_string(),
        kws,
        label,
        label,
    ))
}

#[test]
fn distill_after_ingest_without_refresh_trains_on_labeled_rows_only() {
    use snorkel_core::pipeline::DiscTrainerConfig;

    let (corpus, _) = build_corpus(120);
    let config = SessionConfig {
        distill: Some(DiscTrainerConfig::with_dim(1 << 12)),
        ..SessionConfig::default()
    };
    let mut session = IncrementalSession::over_all_candidates(corpus, config);
    session.add_lf(keyword_lf("lf_causes", &["causes"], 1));
    session.refresh();
    session.distill().expect("first distill");

    // Grow the corpus and register the new candidates WITHOUT a
    // refresh: they have features but no marginal row yet. Distilling
    // must train on the labeled prefix, not panic on a length mismatch.
    let new_ids: Vec<_> = {
        let corpus = session.corpus_mut();
        let doc = corpus.add_document("late");
        (0..20)
            .map(|i| {
                let text = format!("gamma{i} causes delta{i}");
                let s = corpus.add_sentence(doc, &text, tokenize(&text));
                let a = corpus.add_span(s, 0, 1, Some("A"));
                let b = corpus.add_span(s, 2, 3, Some("B"));
                corpus.add_candidate(vec![a, b])
            })
            .collect()
    };
    session.ingest_candidates(&new_ids);
    let report = session.distill().expect("distill with unlabeled tail");
    assert_eq!(report.rows_total, 120, "only refreshed rows train");

    // After the next refresh the new rows are labeled and join in.
    session.refresh();
    let report = session.distill().expect("post-refresh distill");
    assert_eq!(report.rows_total, 140);
}

#[test]
fn pipeline_and_session_share_one_strategy_decision() {
    use snorkel_core::optimizer::ModelingStrategy;
    use snorkel_lf::LfExecutor;

    // The batch pipeline and a session's first refresh over one corpus
    // and suite take the same decision: a forced strategy wins (no
    // bound), otherwise `select_model` decides for either cardinality.
    //
    // Four LFs vote on a per-LF hash of the sentence bytes: 0 abstains,
    // then ±1 for the binary executor, classes 1..=3 for the
    // cardinality-3 one.
    let suite = |multi: bool| -> Vec<BoxedLf> {
        (0..4u64)
            .map(|j| {
                lf(format!("lf_{j}"), move |x| {
                    let sum: u64 = x.sentence().text().bytes().map(u64::from).sum();
                    let k = (sum * (j + 1) + j) % if multi { 4 } else { 3 };
                    if multi {
                        k as i8
                    } else {
                        [0, 1, -1][k as usize]
                    }
                })
            })
            .collect()
    };
    let cases = [
        ("unforced binary", None, LfExecutor::default(), false),
        (
            "forced",
            Some(ModelingStrategy::MomentMatching),
            LfExecutor::default(),
            false,
        ),
        (
            "multi-class",
            None,
            LfExecutor::default().with_cardinality(3),
            true,
        ),
    ];
    for (case, force_strategy, executor, multi) in cases {
        let (corpus, ids) = build_corpus(300);
        let pipeline = Pipeline::new(PipelineConfig {
            executor,
            force_strategy: force_strategy.clone(),
            ..PipelineConfig::default()
        });
        let (batch_labels, batch) = pipeline.run(&suite(multi), &corpus, &ids);

        let mut session = IncrementalSession::new(
            corpus,
            SessionConfig {
                executor,
                force_strategy,
                ..SessionConfig::default()
            },
        );
        session.ingest_candidates(&ids);
        for f in suite(multi) {
            session.add_lf(f);
        }
        let (session_labels, refresh) = session.refresh();

        assert_eq!(batch.strategy, refresh.strategy, "{case}: strategy");
        assert_eq!(batch.backend, refresh.backend, "{case}: backend");
        let (a, b) = (batch.predicted_advantage, refresh.predicted_advantage);
        assert!(
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
            "{case}: predicted advantage {a} (pipeline) vs {b} (session)"
        );
        assert_eq!(batch_labels, session_labels, "{case}: labels");
        match case {
            // The suite disagrees enough to reach the structure sweep.
            "unforced binary" => assert!(
                a.is_finite() && matches!(batch.strategy, ModelingStrategy::GenerativeModel { .. }),
                "{case}: {:?} at bound {a}",
                batch.strategy
            ),
            _ => assert!(a.is_nan(), "{case}: no bound"),
        }
    }
}

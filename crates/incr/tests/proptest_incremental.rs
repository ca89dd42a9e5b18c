//! Property tests: for *any* edit sequence, an incremental session's Λ
//! is bit-identical to rebuilding from scratch, its pattern index is
//! `PatternIndex::build(Λ)` id for id, and its labels are a cold
//! pipeline's over the same Λ, bit for bit (the exact fit is cold and
//! sums Λ's patterns in their canonical order). A twin thawed from a
//! freeze taken with the ops still pending refreshes to the same Λ and
//! the same label bits.

use proptest::prelude::*;

use snorkel_context::{CandidateId, Corpus};
use snorkel_core::optimizer::{ModelingStrategy, OptimizerConfig};
use snorkel_core::pipeline::{Pipeline, PipelineConfig};
use snorkel_incr::{IncrementalSession, SessionConfig};
use snorkel_lf::{lf, BoxedLf, LfExecutor};
use snorkel_matrix::PatternIndex;
use snorkel_nlp::tokenize;

/// Deterministic corpus of `n` two-span candidates. Candidate `i`'s gold
/// label is a hash bit, surfaced through the sentence text so LFs can
/// correlate with it.
fn build_corpus(n: usize) -> (Corpus, Vec<CandidateId>) {
    let mut corpus = Corpus::new();
    let doc = corpus.add_document("d");
    let mut ids = Vec::new();
    for i in 0..n {
        let gold_pos = mix(i as u64, 0xC0FFEE).is_multiple_of(2);
        // Verb correlates with gold; suffix varies the surface form.
        let verb = if gold_pos { "causes" } else { "treats" };
        let text = format!("alpha{} {} beta{}", i % 7, verb, i % 5);
        let s = corpus.add_sentence(doc, &text, tokenize(&text));
        let a = corpus.add_span(s, 0, 1, Some("A"));
        let b = corpus.add_span(s, 2, 3, Some("B"));
        ids.push(corpus.add_candidate(vec![a, b]));
    }
    (corpus, ids)
}

fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b)
        .wrapping_add(0x632B_E5AB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// A deterministic planted-accuracy LF: votes on ~55% of candidates,
/// agreeing with the text's gold signal at an accuracy derived from the
/// salt (0.62..0.92). Votes depend only on (salt, sentence text), so two
/// constructions with the same salt are behaviorally identical.
fn planted_lf(name: &str, salt: u64) -> BoxedLf {
    let acc_mille = 620 + (mix(salt, 17) % 300); // 0.620..0.919
    lf(name.to_string(), move |x| {
        let text = x.sentence().text().to_string();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for byte in text.bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        if mix(h, salt) % 1000 >= 550 {
            return 0; // abstain
        }
        let gold: i8 = if text.contains("causes") { 1 } else { -1 };
        if mix(h, salt.wrapping_add(1)) % 1000 < acc_mille {
            gold
        } else {
            -gold
        }
    })
}

/// One step of a simulated dev session.
#[derive(Clone, Debug)]
enum Op {
    /// Re-write LF at (index % suite size) with a new salt.
    Edit(usize, u64),
    /// Append a brand-new LF.
    Add(u64),
    /// Remove LF at (index % suite size), unless that would empty the suite.
    Remove(usize),
    /// Register the next batch of held-back candidates.
    Ingest(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0usize..64, 0u64..1_000_000).prop_map(|(i, s)| Op::Edit(i, s)),
        (1_000_000u64..2_000_000).prop_map(Op::Add),
        (0usize..64).prop_map(Op::Remove),
        (10usize..60).prop_map(Op::Ingest),
    ]
}

struct Mirror {
    names: Vec<(String, u64)>, // (name, salt) of the live suite, in order
    next_name: usize,
}

impl Mirror {
    fn suite(&self) -> Vec<BoxedLf> {
        self.names
            .iter()
            .map(|(name, salt)| planted_lf(name, *salt))
            .collect()
    }
}

/// Drive the session and an eager mirror through `ops`, checking the
/// equivalence invariants after every refresh.
fn check_sequence(initial_lfs: usize, initial_rows: usize, ops: &[Op], force_gm: bool) {
    let pool = 600usize;
    let (corpus, ids) = build_corpus(pool);
    let (cold_corpus, _) = build_corpus(pool);

    let optimizer = OptimizerConfig {
        skip_structure_search: true,
        ..OptimizerConfig::default()
    };
    let force_strategy = force_gm.then(|| ModelingStrategy::GenerativeModel {
        epsilon: 0.0,
        correlations: Vec::new(),
        strengths: Vec::new(),
    });
    let config = SessionConfig {
        optimizer: optimizer.clone(),
        force_strategy: force_strategy.clone(),
        ..SessionConfig::default()
    };
    let mut session = IncrementalSession::new(corpus, config);
    session.ingest_candidates(&ids[..initial_rows]);
    let mut registered = initial_rows;

    let mut mirror = Mirror {
        names: Vec::new(),
        next_name: 0,
    };
    for j in 0..initial_lfs {
        let name = format!("lf_{j}");
        let salt = mix(j as u64, 0xBEEF);
        session.add_lf_tagged(planted_lf(&name, salt), salt);
        mirror.names.push((name, salt));
        mirror.next_name = initial_lfs;
    }

    let cold_pipeline = Pipeline::new(PipelineConfig {
        optimizer,
        force_strategy,
        ..PipelineConfig::default()
    });

    let check = |session: &mut IncrementalSession, mirror: &Mirror, rows: usize| {
        // A twin thawed from a freeze taken while the ops are still
        // pending holds the same Λ and refreshes to the same bits.
        let mut twin = IncrementalSession::thaw(
            build_corpus(pool).0,
            session.config().clone(),
            session.freeze(),
            mirror.suite(),
        )
        .expect("thaw with ops pending");
        assert_eq!(twin.label_matrix(), session.label_matrix(), "thawed Λ");
        let (labels, _report) = session.refresh();
        let (twin_labels, _) = twin.refresh();
        assert_eq!(twin.label_matrix(), session.label_matrix(), "twin Λ");
        let bits = |labels: &[Vec<f64>]| -> Vec<Vec<u64>> {
            labels
                .iter()
                .map(|row| row.iter().map(|p| p.to_bits()).collect())
                .collect()
        };
        assert_eq!(bits(&twin_labels), bits(&labels), "twin labels");
        // Λ must be bit-identical to a from-scratch application.
        let suite = mirror.suite();
        let cold_lambda = LfExecutor::new().apply(&suite, &cold_corpus, &ids[..rows]);
        assert_eq!(
            session.label_matrix(),
            Some(&cold_lambda),
            "incremental Λ diverged from rebuild"
        );
        // The index is a fresh build's, id for id, on both sessions.
        let fresh = PatternIndex::build(&cold_lambda);
        for s in [&*session, &twin] {
            let plan = s.pattern_plan().expect("refreshed");
            plan.validate(&cold_lambda).unwrap();
            assert_eq!(plan.num_patterns(), fresh.num_patterns());
        }
        // Labels are the cold pipeline's, bit for bit.
        let (cold_labels, _) = cold_pipeline.run_from_matrix(&cold_lambda);
        assert_eq!(bits(&labels), bits(&cold_labels), "labels vs cold pipeline");
    };

    check(&mut session, &mirror, registered);
    let patterns = session.pattern_plan().expect("refreshed").num_patterns();
    assert!(patterns >= 8, "the fixture gives {patterns} vote patterns");
    for op in ops {
        match op {
            Op::Edit(i, salt) => {
                if mirror.names.is_empty() {
                    continue;
                }
                let j = i % mirror.names.len();
                let name = mirror.names[j].0.clone();
                session.edit_lf_tagged(planted_lf(&name, *salt), *salt);
                mirror.names[j].1 = *salt;
            }
            Op::Add(salt) => {
                let name = format!("lf_{}", mirror.next_name);
                mirror.next_name += 1;
                session.add_lf_tagged(planted_lf(&name, *salt), *salt);
                mirror.names.push((name, *salt));
            }
            Op::Remove(i) => {
                if mirror.names.len() <= 1 {
                    continue;
                }
                let j = i % mirror.names.len();
                let (name, _) = mirror.names.remove(j);
                assert_eq!(session.remove_lf(&name), Some(j));
            }
            Op::Ingest(extra) => {
                let upto = (registered + extra).min(pool);
                if upto > registered {
                    session.ingest_candidates(&ids[registered..upto]);
                    registered = upto;
                }
            }
        }
        check(&mut session, &mirror, registered);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Bit-identical Λ and labels for arbitrary edit sequences, with
    /// the strategy optimizer in the loop.
    #[test]
    fn edit_sequences_match_cold_rebuild(
        initial_lfs in 4usize..9,
        initial_rows in 150usize..350,
        ops in prop::collection::vec(op_strategy(), 1..5),
    ) {
        check_sequence(initial_lfs, initial_rows, &ops, false);
    }

    /// Same, with generative training forced on every refresh — pins
    /// that the exact fit is a function of Λ specifically.
    #[test]
    fn edit_sequences_match_cold_rebuild_forced_gm(
        initial_lfs in 5usize..9,
        initial_rows in 150usize..350,
        ops in prop::collection::vec(op_strategy(), 1..4),
    ) {
        check_sequence(initial_lfs, initial_rows, &ops, true);
    }
}

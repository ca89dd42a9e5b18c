//! Outputs do not depend on the core count. A session with the exact
//! generative backend and distillation grows past 8 192 rows (where a
//! row-range partition of Λ used to give two cores two shards) by two
//! streamed batches, refreshes, distills, and then goes through
//! freeze → thaw → refresh → distill. The label-model parameters, the
//! marginals and the distilled model are pinned by FNV-1a digests of
//! their `to_bits` words. The same pins must hold on one core
//! (`taskset -c 0 cargo test --release -p snorkel-incr`) and on all of
//! them. The exact fit is cold, so the session's parameters and
//! marginals are also those of a cold `fit_and_label` over the same Λ,
//! before the freeze and after the thaw.

use snorkel_context::{CandidateId, Corpus, DocId};
use snorkel_core::label_model::LabelModel;
use snorkel_core::optimizer::ModelingStrategy;
use snorkel_core::pipeline::{fit_and_label, DiscTrainerConfig};
use snorkel_incr::{IncrementalSession, SessionConfig};
use snorkel_lf::{lf, BoxedLf};
use snorkel_nlp::tokenize;

/// Rows of the first refresh; each streamed batch adds `BATCH`.
const START_ROWS: usize = 8_000;
const BATCH: usize = 600;

fn strategy() -> ModelingStrategy {
    ModelingStrategy::GenerativeModel {
        epsilon: 0.0,
        correlations: Vec::new(),
        strengths: Vec::new(),
    }
}

fn config() -> SessionConfig {
    SessionConfig {
        force_strategy: Some(strategy()),
        distill: Some(DiscTrainerConfig::with_dim(1 << 12)),
        ..SessionConfig::default()
    }
}

fn add_rows(corpus: &mut Corpus, doc: DocId, rows: std::ops::Range<usize>) -> Vec<CandidateId> {
    rows.map(|i| {
        let verb = ["causes", "treats", "induces", "prevents"][i % 4];
        let text = format!("alpha{} {verb} beta{} gamma{}", i % 13, i % 11, i % 7);
        let s = corpus.add_sentence(doc, &text, tokenize(&text));
        let a = corpus.add_span(s, 0, 1, Some("A"));
        let b = corpus.add_span(s, 2, 3, Some("B"));
        corpus.add_candidate(vec![a, b])
    })
    .collect()
}

/// Six noisy keyword LFs that abstain often, so Λ has a few hundred
/// distinct vote patterns.
fn suite() -> Vec<BoxedLf> {
    (0..6u64)
        .map(|j| {
            lf(format!("lf_{j}"), move |x| {
                let text = x.sentence().text();
                let h = text
                    .bytes()
                    .fold(j + 1, |h, b| h.wrapping_mul(31).wrapping_add(b as u64));
                let causal = text.contains("causes") || text.contains("induces");
                match h % 5 {
                    0 | 1 => 0,
                    2 => i8::from(!causal) * 2 - 1,
                    _ => i8::from(causal) * 2 - 1,
                }
            })
        })
        .collect()
}

fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    h
}

/// `(params, marginals)` digests of an exact model and its labels.
fn model_digests(model: Option<&LabelModel>, marginals: &[Vec<f64>]) -> (u64, u64) {
    let Some(LabelModel::Generative(gm)) = model else {
        panic!("the forced exact backend trained");
    };
    let p = gm.to_params();
    let params = fnv1a(
        p.w_lab
            .iter()
            .chain(&p.w_acc)
            .chain(&p.b_class)
            .map(|x| x.to_bits()),
    );
    (
        params,
        fnv1a(marginals.iter().flatten().map(|x| x.to_bits())),
    )
}

/// [`model_digests`] of a cold `fit_and_label` over the session's Λ.
fn cold_digests(session: &IncrementalSession) -> (u64, u64) {
    let lambda = session.label_matrix().expect("refreshed");
    let (model, _, marginals) = fit_and_label(&strategy(), lambda, None, &config().train, None);
    model_digests(Some(&model), &marginals)
}

/// `(params, marginals, distilled model)` digests of the session.
fn digests(session: &IncrementalSession, marginals: &[Vec<f64>]) -> (u64, u64, u64) {
    let (params, labels) = model_digests(session.model(), marginals);
    let parts = session.disc().expect("distilled").model.to_parts();
    let disc = fnv1a(
        parts
            .class_weights
            .iter()
            .flatten()
            .flat_map(|&(b, w)| [b as u64, w.to_bits()])
            .chain(parts.bias.iter().map(|x| x.to_bits())),
    );
    (params, labels, disc)
}

#[test]
fn outputs_past_8192_rows_are_pinned_through_freeze_and_thaw() {
    let mut corpus = Corpus::new();
    let doc = corpus.add_document("d");
    let first = add_rows(&mut corpus, doc, 0..START_ROWS);
    let mut session = IncrementalSession::new(corpus, config());
    session.ingest_candidates(&first);
    for f in suite() {
        session.add_lf(f);
    }
    session.refresh();
    session.distill().expect("distillation configured");

    for b in 0..2 {
        let lo = START_ROWS + b * BATCH;
        let corpus = session.corpus_mut();
        let doc = corpus.add_document(format!("batch-{b}"));
        let ids = add_rows(corpus, doc, lo..lo + BATCH);
        session.ingest_batch(&ids);
    }
    let (marginals, _) = session.refresh();
    assert_eq!(marginals.len(), START_ROWS + 2 * BATCH);
    session.distill().expect("distillation configured");
    let grown = digests(&session, &marginals);
    assert_eq!(
        grown,
        (
            0xaf0d_72ad_6025_d88c,
            0xc429_5824_6c64_9263,
            0x150e_3e9e_1a60_5b5a
        ),
        "digests after two ingests and a refresh"
    );
    assert_eq!(
        (grown.0, grown.1),
        cold_digests(&session),
        "the cold fit of Λ"
    );

    let corpus = session.corpus().clone();
    let frozen = session.freeze();
    drop(session);
    let mut thawed = IncrementalSession::thaw(corpus, config(), frozen, suite())
        .unwrap_or_else(|e| panic!("thaw failed: {e}"));
    let (marginals, report) = thawed.refresh();
    assert_eq!(report.lf_invocations, 0, "thaw re-executes no LF");
    thawed.distill().expect("distillation configured");
    // The same cold fit as before the freeze; the distilled model
    // trains on from the thawed one.
    assert_eq!(
        digests(&thawed, &marginals),
        (grown.0, grown.1, 0xc5a8_e731_9756_36b6),
        "digests after freeze, thaw and a refresh"
    );
}

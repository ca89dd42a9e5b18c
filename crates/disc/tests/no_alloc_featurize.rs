//! The allocation budget of the featurizer, enforced: a warm
//! `featurize_into` allocates nothing, and `featurize_all` over N rows
//! allocates at most each row's output vector (two buffers) plus a
//! constant — feature names are hashed piece by piece, never built.
//!
//! As in `crates/core/tests/no_alloc_training.rs`, the budget is
//! asserted only in release builds (debug builds of generic std code may
//! allocate where release builds do not) and a debug run reports the
//! counts.

use snorkel_arena::alloc_check::{allocations_in, min_allocations_over};
use snorkel_context::{CandidateId, Corpus};
use snorkel_disc::TextFeaturizer;
use snorkel_linalg::SparseVec;
use snorkel_nlp::tokenize;

#[global_allocator]
static ALLOC: snorkel_arena::CountingAlloc = snorkel_arena::CountingAlloc::new();

const ROWS: usize = 200;

/// Binary and unary candidates over mixed-case ASCII sentences.
fn corpus() -> (Corpus, Vec<CandidateId>) {
    let mut c = Corpus::new();
    let d = c.add_document("d");
    let texts = [
        "Magnesium CAUSES severe weakness in rats",
        "aspirin treats the headache of patients quickly",
        "the Dose of lithium induced tremor",
    ];
    let ids = (0..ROWS)
        .map(|i| {
            let text = texts[i % texts.len()];
            let s = c.add_sentence(d, text, tokenize(text));
            let a = c.add_span(s, 0, 1, Some("Chemical"));
            if i % 5 == 0 {
                c.add_candidate(vec![a])
            } else {
                let b = c.add_span(s, 3, 5, None);
                c.add_candidate(vec![a, b])
            }
        })
        .collect();
    (c, ids)
}

#[test]
fn warm_featurize_into_allocates_nothing() {
    let (c, ids) = corpus();
    let f = TextFeaturizer::default();
    let mut out = SparseVec::new();
    // Warm the output buffers up to their high-water marks.
    for &id in &ids {
        f.featurize_into(&c.candidate(id), &mut out);
    }
    let allocations = min_allocations_over(5, || {
        for &id in &ids {
            f.featurize_into(&c.candidate(id), &mut out);
        }
    });
    println!("warm featurize_into over {ROWS} rows: {allocations} allocations");
    if !cfg!(debug_assertions) {
        assert_eq!(allocations, 0, "a warm featurize_into allocates");
    }
}

#[test]
fn featurize_all_allocates_only_its_outputs() {
    let (c, ids) = corpus();
    let f = TextFeaturizer::default();
    let (allocations, xs) = allocations_in(|| f.featurize_all(&c, &ids));
    assert_eq!(xs.len(), ROWS);
    // Per row: the output's index and value buffers. Constant: the
    // result vector and the scratch row (whose buffers may grow a few
    // times while reaching their high-water marks).
    let budget = 2 * ROWS as u64 + 16;
    println!("featurize_all over {ROWS} rows: {allocations} allocations (budget {budget})");
    if !cfg!(debug_assertions) {
        assert!(
            allocations <= budget,
            "featurize_all allocated {allocations} times over {ROWS} rows"
        );
    }
}

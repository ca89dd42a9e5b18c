//! The allocation budget of the KEYWORD LF, enforced: labeling a
//! candidate whose between-span tokens are ASCII allocates nothing —
//! tokens are compared case-insensitively in place, not lowercased into
//! a `String` per token.
//!
//! As in `crates/core/tests/no_alloc_training.rs`, the budget is
//! asserted only in release builds (debug builds of generic std code may
//! allocate where release builds do not) and a debug run reports the
//! count.

use snorkel_arena::alloc_check::min_allocations_over;
use snorkel_context::Corpus;
use snorkel_lf::{KeywordBetweenLf, LabelingFunction};
use snorkel_nlp::tokenize;

#[global_allocator]
static ALLOC: snorkel_arena::CountingAlloc = snorkel_arena::CountingAlloc::new();

#[test]
fn keyword_label_on_ascii_tokens_allocates_nothing() {
    let mut c = Corpus::new();
    let d = c.add_document("d");
    let text = "Magnesium Was Reported To CAUSE severe weakness";
    let s = c.add_sentence(d, text, tokenize(text));
    let a = c.add_span(s, 0, 1, Some("Chemical"));
    let b = c.add_span(s, 6, 7, Some("Disease"));
    let id = c.add_candidate(vec![a, b]);
    let hit = KeywordBetweenLf::new("lf_cause", &["causes", "cause"], 1, -1);
    let miss = KeywordBetweenLf::new("lf_treat", &["treats", "treat"], 1, -1).on_lemmas();
    let x = c.candidate(id);
    assert_eq!(hit.label(&x), 1);
    assert_eq!(miss.label(&x), 0);

    let allocations = min_allocations_over(5, || {
        for _ in 0..1_000 {
            std::hint::black_box(hit.label(&x));
            std::hint::black_box(miss.label(&x));
        }
    });
    println!("2 000 KEYWORD labels: {allocations} allocations");
    if !cfg!(debug_assertions) {
        assert_eq!(allocations, 0, "a KEYWORD label on ASCII tokens allocates");
    }
}

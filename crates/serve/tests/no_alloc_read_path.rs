//! The allocation budget for the batched read path, enforced: a
//! counting global allocator ([`snorkel_arena::CountingAlloc`])
//! observes the steady-state `OP_MARGINAL` and `OP_PREDICT` pipeline —
//! zero-copy decode into [`ReadScratch`], batch compute through the
//! [`SigMemo`], append-in-place reply encode — and asserts **zero heap
//! allocations per request** once the arenas are warm.
//!
//! Two caveats baked into the structure (see `docs/PERFORMANCE.md`):
//!
//! * The zero budget is asserted only in release builds — debug builds
//!   of generic std code may allocate where release builds provably do
//!   not — so CI runs this file with `--release`. A debug run still
//!   executes everything and reports the counts.
//! * The counter is per thread, so the property test below — which
//!   allocates freely on its own harness thread — cannot leak into a
//!   budget measurement taken on another.
//!
//! Alongside the budget, every test checks the replies themselves:
//! the arena path's bytes must equal the allocating reference path
//! ([`frame::encode_marginal_reply`] over per-row
//! [`LabelModel::posterior`] calls) bit for bit, and a property test
//! drives that equivalence across random batches, cold and warm memo
//! alike.

use std::sync::{Mutex, OnceLock};

use proptest::prelude::*;
use snorkel_arena::alloc_check::min_allocations_over;
use snorkel_context::{CandidateId, Corpus};
use snorkel_core::optimizer::ModelingStrategy;
use snorkel_incr::{IncrementalSession, SessionConfig};
use snorkel_nlp::tokenize;
use snorkel_serve::frame::{self, FRAME_HEADER_BYTES};
use snorkel_serve::hotpath::{self, ReadScratch, SigMemo};
use snorkel_serve::{LfSpec, VoteRow};

#[global_allocator]
static ALLOC: snorkel_arena::CountingAlloc = snorkel_arena::CountingAlloc::new();

/// The generation tag the "server" hands to the compute core. Constant
/// across requests, exactly like a server between refreshes.
const GEN: u64 = 1;

/// Attempts for the steady-state minimum.
const ATTEMPTS: usize = 5;

fn build_corpus(n: usize) -> Corpus {
    let mut corpus = Corpus::new();
    let doc = corpus.add_document("d");
    for i in 0..n {
        let verb = match i % 5 {
            0 | 1 => "causes and induces",
            2 => "treats and cures",
            3 => "worsens",
            _ => "mentions",
        };
        let text = format!("alpha{} {verb} beta{}", i % 7, i % 5);
        let tokens = tokenize(&text);
        let last = tokens.len();
        let s = corpus.add_sentence(doc, &text, tokens);
        let a = corpus.add_span(s, 0, 1, Some("A"));
        let b = corpus.add_span(s, last - 1, last, Some("B"));
        corpus.add_candidate(vec![a, b]);
    }
    corpus
}

fn gm_config() -> SessionConfig {
    SessionConfig {
        force_strategy: Some(ModelingStrategy::GenerativeModel {
            epsilon: 0.0,
            correlations: Vec::new(),
            strengths: Vec::new(),
        }),
        ..SessionConfig::default()
    }
}

const SPECS: [&str; 4] = [
    "lf_causes KEYWORD 1 1 causes",
    "lf_induces KEYWORD 1 1 induces",
    "lf_treats KEYWORD -1 -1 treats",
    "lf_cures KEYWORD -1 -1 cures",
];

/// One refreshed + distilled session shared by every test (priming —
/// refresh plus disc training — dominates this binary's runtime, and
/// every test only reads).
fn shared_session() -> &'static IncrementalSession {
    static SESSION: OnceLock<IncrementalSession> = OnceLock::new();
    SESSION.get_or_init(|| {
        let corpus = build_corpus(200);
        let ids: Vec<CandidateId> = corpus.candidate_ids().collect();
        let config = SessionConfig {
            distill: Some(snorkel_core::pipeline::DiscTrainerConfig::with_dim(1 << 12)),
            ..gm_config()
        };
        let mut session = IncrementalSession::new(corpus, config);
        session.ingest_candidates(&ids);
        for spec in SPECS {
            let spec = LfSpec::parse(spec).expect("valid spec");
            session.add_lf_tagged(spec.build().expect("buildable"), spec.content_tag());
        }
        session.refresh();
        session.distill().expect("distills");
        session
    })
}

/// Assert the steady-state budget: 0 in release, report-only in debug.
fn assert_zero_budget(min_allocs: u64, what: &str) {
    if cfg!(debug_assertions) {
        eprintln!(
            "debug build: {what} steady state = {min_allocs} allocations \
             (zero budget enforced under --release)"
        );
    } else {
        assert_eq!(
            min_allocs, 0,
            "{what} allocated in every one of {ATTEMPTS} steady-state attempts"
        );
    }
}

#[test]
fn marginal_batch_steady_state_allocates_nothing_and_matches_owned_path() {
    let session = shared_session();
    // A batch mixing repeated and distinct signatures over the 4 LFs.
    let rows: Vec<VoteRow> = vec![
        (vec![0, 1], vec![1, 1]),
        (vec![2], vec![-1]),
        (vec![0, 2, 3], vec![1, -1, -1]),
        (vec![0, 1], vec![1, 1]),
        (vec![1, 3], vec![-1, 1]),
        (vec![3], vec![1]),
    ];
    let request = frame::encode_marginal(&rows);
    let payload = request[FRAME_HEADER_BYTES..].to_vec();

    let memo = Mutex::new(SigMemo::new());
    let mut scratch = ReadScratch::new();
    let mut out: Vec<u8> = Vec::new();
    let run = |scratch: &mut ReadScratch, out: &mut Vec<u8>| {
        out.clear();
        let n = hotpath::decode_marginal(&payload, scratch).expect("valid payload");
        let outcome = hotpath::compute_marginal(session, GEN, &memo, scratch).expect("valid batch");
        assert_eq!(outcome.rows, n);
        frame::encode_marginal_reply_flat_into(GEN, scratch.probs(), outcome.width, out);
    };

    // Warm-up request: arenas grow, the memo learns every signature.
    // This side is allowed to allocate.
    run(&mut scratch, &mut out);

    // The arena path's reply bytes equal the allocating reference:
    // per-row owned posteriors through the owned reply encoder.
    let model = session.model().expect("refreshed session has a model");
    let owned: Vec<Vec<f64>> = rows.iter().map(|(c, v)| model.posterior(c, v)).collect();
    assert_eq!(
        out,
        frame::encode_marginal_reply(GEN, &owned),
        "arena reply != owned-path reply"
    );

    let min_allocs = min_allocations_over(ATTEMPTS, || run(&mut scratch, &mut out));
    assert_zero_budget(min_allocs, "OP_MARGINAL batch path");

    // And the replies stayed byte-identical through the measured runs.
    assert_eq!(out, frame::encode_marginal_reply(GEN, &owned));
}

#[test]
fn predict_batch_steady_state_allocates_nothing_and_matches_owned_path() {
    let session = shared_session();
    let disc = session.disc().expect("distilled");
    let feature_rows: Vec<Vec<String>> = vec![
        vec!["alpha1".into(), "causes".into(), "beta2".into()],
        vec!["mentions".into()],
        vec![
            "gamma".into(),
            "treats".into(),
            "delta".into(),
            "cures".into(),
        ],
    ];
    let request = frame::encode_predict(&feature_rows);
    let payload = request[FRAME_HEADER_BYTES..].to_vec();

    let mut scratch = ReadScratch::new();
    let mut out: Vec<u8> = Vec::new();
    let run = |scratch: &mut ReadScratch, out: &mut Vec<u8>| {
        out.clear();
        let n = hotpath::decode_predict(&payload, scratch).expect("valid payload");
        let outcome = hotpath::compute_predict(session, &payload, scratch).expect("distilled");
        assert_eq!(outcome.rows, n);
        frame::encode_predict_reply_flat_into(
            GEN,
            outcome.disc_gen,
            scratch.probs(),
            outcome.width,
            out,
        );
    };

    run(&mut scratch, &mut out);

    // Reference: the owned hash → score → encode path.
    let owned: Vec<Vec<f64>> = feature_rows
        .iter()
        .map(|names| {
            let x = snorkel_disc::hash_features(names.iter().map(String::as_str), disc.model.dim());
            disc.model.predict_proba(&x)
        })
        .collect();
    assert_eq!(
        out,
        frame::encode_predict_reply(GEN, disc.generation, &owned),
        "arena reply != owned-path reply"
    );

    let min_allocs = min_allocations_over(ATTEMPTS, || run(&mut scratch, &mut out));
    assert_zero_budget(min_allocs, "OP_PREDICT batch path");

    assert_eq!(
        out,
        frame::encode_predict_reply(GEN, disc.generation, &owned)
    );
}

/// A random vote batch over the 4 primed LFs: strictly increasing
/// columns per row, non-abstain votes, 1–6 rows. Each row is drawn as
/// a dense length-4 pattern (0 = column absent) and compacted; an
/// all-absent draw keeps column 0 so every row is non-empty.
fn vote_batch() -> impl Strategy<Value = Vec<VoteRow>> {
    let row =
        prop::collection::vec(prop_oneof![Just(-1i8), Just(0i8), Just(1i8)], 4).prop_map(|dense| {
            let mut cols = Vec::new();
            let mut votes = Vec::new();
            for (c, &v) in dense.iter().enumerate() {
                if v != 0 {
                    cols.push(c as u32);
                    votes.push(v);
                }
            }
            if cols.is_empty() {
                cols.push(0);
                votes.push(1);
            }
            (cols, votes)
        });
    prop::collection::vec(row, 1..=6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Across random batches, the arena compute core produces marginals
    /// bit-identical to the pre-arena owned path — on a cold memo
    /// (every row computed) and again on a warm one (every row served
    /// from the memo), and the encoded reply bytes match the owned
    /// encoder both times.
    #[test]
    fn arena_marginals_are_bit_identical_to_the_owned_path(rows in vote_batch()) {
        let session = shared_session();
        let model = session.model().expect("refreshed session has a model");
        let request = frame::encode_marginal(&rows);
        let payload = &request[FRAME_HEADER_BYTES..];

        let memo = Mutex::new(SigMemo::new());
        let mut scratch = ReadScratch::new();
        let owned: Vec<Vec<f64>> =
            rows.iter().map(|(c, v)| model.posterior(c, v)).collect();
        let reference = frame::encode_marginal_reply(GEN, &owned);

        for pass in ["cold memo", "warm memo"] {
            hotpath::decode_marginal(payload, &mut scratch).expect("valid payload");
            let outcome = hotpath::compute_marginal(session, GEN, &memo, &mut scratch)
                .expect("valid batch");
            for (i, own) in owned.iter().enumerate() {
                let arena = &scratch.probs()[i * outcome.width..(i + 1) * outcome.width];
                for (a, o) in arena.iter().zip(own) {
                    prop_assert_eq!(
                        a.to_bits(), o.to_bits(),
                        "row {} differs on the {} pass", i, pass
                    );
                }
            }
            let mut out = Vec::new();
            frame::encode_marginal_reply_flat_into(GEN, scratch.probs(), outcome.width, &mut out);
            prop_assert_eq!(&out, &reference, "reply bytes differ on the {} pass", pass);
        }
    }
}

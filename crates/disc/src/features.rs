//! Hashed text features.
//!
//! The discriminative text models consume a [`snorkel_linalg::SparseVec`]
//! of hashed features per candidate. Feature hashing (the "hashing
//! trick") replaces a vocabulary dictionary: each feature string maps to
//! a bucket by FNV-1a, so the featurizer is stateless, deterministic,
//! and needs no fitting pass — which also means train and test sets can
//! never leak vocabulary into each other.
//!
//! The feature families mirror what a biLSTM sees implicitly and are the
//! standard sparse-model recipe for relation extraction:
//!
//! * sentence unigrams and bigrams (lemma level);
//! * the words *between* the two argument spans (the region that almost
//!   always carries the relation signal);
//! * windows of ±`window` tokens around each span;
//! * span texts, entity types, argument order, and a bucketed token
//!   distance.

use std::hash::Hasher;

use snorkel_context::{CandidateView, Token};
use snorkel_linalg::SparseVec;
use snorkel_matrix::Fnv1a;

/// FNV-1a hash of a feature string into `[0, buckets)`.
///
/// ```
/// use snorkel_disc::hash_feature;
/// let a = hash_feature("w=cause", 1 << 18);
/// assert_eq!(a, hash_feature("w=cause", 1 << 18), "deterministic");
/// assert!(a < (1 << 18));
/// ```
pub fn hash_feature(name: &str, buckets: u32) -> u32 {
    feature_bucket(Fnv1a::of(name.as_bytes()), buckets)
}

/// The bucket of a 64-bit feature hash: `hash % buckets`, taken with a
/// mask when `buckets` is a power of two (the same value, without the
/// division).
#[inline]
pub fn feature_bucket(hash: u64, buckets: u32) -> u32 {
    if buckets.is_power_of_two() {
        (hash & (buckets as u64 - 1)) as u32
    } else {
        (hash % buckets as u64) as u32
    }
}

/// The 64-bit FNV-1a of one feature name's bytes, plus the OR of every
/// byte hashed: a caller that must validate UTF-8 learns from bit 7 in
/// the same pass whether the name left ASCII. The hash reduced by
/// [`feature_bucket`] is [`hash_feature`] of the name.
pub fn feature_hash(name: &[u8]) -> (u64, u8) {
    let mut h = Fnv1a::new();
    let mut seen = 0u8;
    for &byte in name {
        seen |= byte;
        h = h.byte(byte);
    }
    (h.finish(), seen)
}

/// The pieces of one feature name, folded into a running [`Fnv1a`].
/// FNV-1a folds one byte at a time, so hashing the pieces in sequence
/// gives the same value as hashing their concatenation: the featurizer
/// hashes `"left" + k + "=" + lemma` without ever building that string.
trait FeatureName: Sized {
    fn str(self, s: &str) -> Self;

    /// Hash `s.to_lowercase()`. ASCII text is lowered byte by byte;
    /// anything else goes through `str::to_lowercase`, whose final-sigma
    /// rule looks at the whole string.
    fn lower(self, s: &str) -> Self;

    /// Hash the decimal digits of `k` (what `format!("{k}")` prints).
    fn num(self, k: usize) -> Self;
}

impl FeatureName for Fnv1a {
    #[inline]
    fn str(self, s: &str) -> Self {
        self.bytes(s.as_bytes())
    }

    fn lower(self, s: &str) -> Self {
        if s.is_ascii() {
            s.bytes().fold(self, |h, b| h.byte(b.to_ascii_lowercase()))
        } else {
            self.str(&s.to_lowercase())
        }
    }

    fn num(self, k: usize) -> Self {
        let high = if k >= 10 { self.num(k / 10) } else { self };
        high.byte(b'0' + (k % 10) as u8)
    }
}

/// Stateless hashed featurizer for candidates.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TextFeaturizer {
    /// Number of hash buckets (feature dimensionality).
    pub buckets: u32,
    /// Context window around spans, in tokens.
    pub window: usize,
    /// Emit sentence bigrams in addition to unigrams.
    pub bigrams: bool,
}

impl Default for TextFeaturizer {
    fn default() -> Self {
        TextFeaturizer {
            buckets: 1 << 18,
            window: 2,
            bigrams: true,
        }
    }
}

impl TextFeaturizer {
    /// Featurizer with the given dimensionality.
    pub fn with_buckets(buckets: u32) -> Self {
        TextFeaturizer {
            buckets,
            ..TextFeaturizer::default()
        }
    }

    /// Extract the L2-normalized hashed feature vector of a candidate.
    pub fn featurize(&self, x: &CandidateView<'_>) -> SparseVec {
        let mut out = SparseVec::new();
        self.featurize_into(x, &mut out);
        out
    }

    /// [`Self::featurize`] into `out`: the one featurization kernel.
    /// Feature names are hashed piece by piece, never built, and their
    /// buckets go straight into `out`'s own buffers, so once `out` has
    /// reached its high-water mark a call allocates nothing (unless a
    /// span's text is non-ASCII, which is lowercased through a `String`).
    pub fn featurize_into(&self, x: &CandidateView<'_>, out: &mut SparseVec) {
        out.assign_bucket_counts(|buckets| self.emit_buckets(x, buckets));
        out.l2_normalize();
    }

    /// Push the bucket of every feature of `x`, in extraction order.
    fn emit_buckets(&self, x: &CandidateView<'_>, buckets: &mut Vec<u32>) {
        let mut emit = |h: Fnv1a| buckets.push(feature_bucket(h.finish(), self.buckets));
        let f = Fnv1a::new;
        let bigram = |tag: &str, pair: &[Token]| {
            f().str(tag)
                .str(&pair[0].lemma)
                .str("_")
                .str(&pair[1].lemma)
        };

        let tokens = x.sentence().tokens();

        // Sentence unigrams / bigrams.
        for t in tokens {
            emit(f().str("u=").str(&t.lemma));
        }
        if self.bigrams {
            for pair in tokens.windows(2) {
                emit(bigram("b=", pair));
            }
        }

        // Span-level features.
        for k in 0..x.arity() {
            let span = x.span(k);
            // `"{name}{k}="`, the prefix of every per-span feature.
            let slot = |name: &str| f().str(name).num(k).str("=");
            emit(slot("span").lower(span.text()));
            if let Some(ty) = span.entity_type() {
                emit(slot("type").str(ty));
            }
            // Window around the span.
            let (s, e) = span.word_range();
            let lo = s.saturating_sub(self.window);
            let hi = (e + self.window).min(tokens.len());
            for t in &tokens[lo..s] {
                emit(slot("left").str(&t.lemma));
            }
            for t in &tokens[e..hi] {
                emit(slot("right").str(&t.lemma));
            }
        }

        // Relation-level features for binary candidates.
        if x.arity() >= 2 {
            // The argument-pair conjunction: lets the model carry what it
            // learned about a pair from cue-rich mentions over to
            // cue-free mentions of the same pair (Example 2.5).
            emit(
                f().str("pair=")
                    .lower(x.span(0).text())
                    .str("|")
                    .lower(x.span(1).text()),
            );
            let between = x.tokens_between(0, 1);
            for t in between {
                emit(f().str("btw=").str(&t.lemma));
            }
            if self.bigrams {
                for pair in between.windows(2) {
                    emit(bigram("btwb=", pair));
                }
            }
            let order = if x.span_precedes(0, 1) {
                "true"
            } else {
                "false"
            };
            emit(f().str("order=").str(order));
            emit(
                f().str("dist=")
                    .str(distance_bucket(x.token_distance(0, 1))),
            );
        }
    }

    /// Featurize a batch of candidates through one reused scratch, so
    /// each row allocates only its output vector.
    pub fn featurize_all<'a>(
        &self,
        corpus: &snorkel_context::Corpus,
        candidates: impl IntoIterator<Item = &'a snorkel_context::CandidateId>,
    ) -> Vec<SparseVec> {
        let mut row = SparseVec::new();
        candidates
            .into_iter()
            .map(|&id| {
                self.featurize_into(&corpus.candidate(id), &mut row);
                row.clone()
            })
            .collect()
    }
}

/// Coarse distance buckets (exact small distances, log-ish beyond).
fn distance_bucket(d: usize) -> &'static str {
    match d {
        0 => "0",
        1 => "1",
        2 => "2",
        3 => "3",
        4..=6 => "4-6",
        7..=10 => "7-10",
        _ => "10+",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use snorkel_context::Corpus;
    use snorkel_nlp::tokenize;

    /// The featurizer the streamed-hash kernel replaced, body verbatim:
    /// one `format!` string per feature, `to_lowercase` on the span
    /// texts, collected lemma vectors and `SparseVec::from_pairs`. The
    /// definition `featurize` must equal exactly.
    fn reference_featurize(f: &TextFeaturizer, x: &CandidateView<'_>) -> SparseVec {
        let mut pairs: Vec<(u32, f64)> = Vec::with_capacity(64);
        let mut emit = |name: String| pairs.push((hash_feature(&name, f.buckets), 1.0));

        let sent = x.sentence();
        let lemmas: Vec<&str> = (0..sent.num_tokens()).map(|i| sent.lemma(i)).collect();

        for w in &lemmas {
            emit(format!("u={w}"));
        }
        if f.bigrams {
            for pair in lemmas.windows(2) {
                emit(format!("b={}_{}", pair[0], pair[1]));
            }
        }

        for k in 0..x.arity() {
            let span = x.span(k);
            emit(format!("span{k}={}", span.text().to_lowercase()));
            if let Some(ty) = span.entity_type() {
                emit(format!("type{k}={ty}"));
            }
            let (s, e) = span.word_range();
            let lo = s.saturating_sub(f.window);
            let hi = (e + f.window).min(lemmas.len());
            for w in &lemmas[lo..s] {
                emit(format!("left{k}={w}"));
            }
            for w in &lemmas[e..hi] {
                emit(format!("right{k}={w}"));
            }
        }

        if x.arity() >= 2 {
            emit(format!(
                "pair={}|{}",
                x.span(0).text().to_lowercase(),
                x.span(1).text().to_lowercase()
            ));
            for w in x.lemmas_between(0, 1) {
                emit(format!("btw={w}"));
            }
            if f.bigrams {
                let between = x.lemmas_between(0, 1);
                for pair in between.windows(2) {
                    emit(format!("btwb={}_{}", pair[0], pair[1]));
                }
            }
            emit(format!("order={}", x.span_precedes(0, 1)));
            emit(format!("dist={}", distance_bucket(x.token_distance(0, 1))));
        }

        let mut v = SparseVec::from_pairs(pairs);
        v.l2_normalize();
        v
    }

    /// Words the exactness property draws sentences from: lower, upper
    /// and mixed-case ASCII, Greek with a word-final capital sigma (which
    /// lowercases to `ς`, not `σ`), a dotted capital I (which lowercases
    /// to two chars) and other non-ASCII text.
    const WORDS: &[&str] = &[
        "magnesium",
        "Causes",
        "SEVERE",
        "weakness",
        "of",
        "the",
        "aspirin",
        "Treats",
        "ΟΔΟΣ",
        "ΣΙΣΥΦΟΣ",
        "İstanbul",
        "İ",
        "Straße",
        "café",
        "naïve",
        "ΑΒΓ",
        "x1",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn featurize_equals_the_format_reference(
            words in prop::collection::vec(0..WORDS.len(), 1..12),
            starts in (0usize..64, 0usize..64),
            lens in (1usize..4, 1usize..4),
            types in (0u8..2, 0u8..2),
            binary in 0u8..2,
            window in 0usize..4,
            bigrams in 0u8..2,
            small in 0u8..2,
        ) {
            let text = words.iter().map(|&w| WORDS[w]).collect::<Vec<_>>().join(" ");
            let tokens = tokenize(&text);
            let n = tokens.len();
            let mut c = Corpus::new();
            let d = c.add_document("d");
            let s = c.add_sentence(d, text.as_str(), tokens);
            let span = |c: &mut Corpus, start: usize, len: usize, typed: bool, ty: &str| {
                let lo = start % n;
                c.add_span(s, lo, (lo + len).min(n), typed.then_some(ty))
            };
            let mut spans = vec![span(&mut c, starts.0, lens.0, types.0 == 1, "Chemical")];
            if binary == 1 {
                spans.push(span(&mut c, starts.1, lens.1, types.1 == 1, "Disease"));
            }
            let id = c.add_candidate(spans);
            // 16 buckets force collisions, which merge into values of 2.0+.
            let f = TextFeaturizer {
                buckets: if small == 1 { 16 } else { 1 << 18 },
                window,
                bigrams: bigrams == 1,
            };
            let x = c.candidate(id);
            let want = reference_featurize(&f, &x);
            prop_assert_eq!(f.featurize(&x), want.clone());
            prop_assert_eq!(f.featurize_all(&c, &[id]), vec![want]);
        }
    }

    #[test]
    fn streamed_hash_equals_the_hash_of_the_concatenation() {
        for k in [0usize, 7, 10, 12345, usize::MAX] {
            let name = format!("left{k}=Σx");
            let streamed = Fnv1a::new().str("left").num(k).str("=").str("Σx");
            assert_eq!(
                feature_bucket(streamed.finish(), u32::MAX),
                hash_feature(&name, u32::MAX)
            );
        }
        for s in ["MiXeD", "ΟΔΟΣ ΑΒ", "İ", ""] {
            let lowered = feature_bucket(Fnv1a::new().lower(s).finish(), 1 << 20);
            assert_eq!(lowered, hash_feature(&s.to_lowercase(), 1 << 20), "{s:?}");
        }
    }

    fn corpus() -> (
        Corpus,
        snorkel_context::CandidateId,
        snorkel_context::CandidateId,
    ) {
        let mut c = Corpus::new();
        let d = c.add_document("d");
        let t1 = "magnesium causes severe weakness";
        let s1 = c.add_sentence(d, t1, tokenize(t1));
        let a1 = c.add_span(s1, 0, 1, Some("Chemical"));
        let b1 = c.add_span(s1, 3, 4, Some("Disease"));
        let c1 = c.add_candidate(vec![a1, b1]);

        let t2 = "aspirin treats severe headache";
        let s2 = c.add_sentence(d, t2, tokenize(t2));
        let a2 = c.add_span(s2, 0, 1, Some("Chemical"));
        let b2 = c.add_span(s2, 3, 4, Some("Disease"));
        let c2 = c.add_candidate(vec![a2, b2]);
        (c, c1, c2)
    }

    #[test]
    fn deterministic_and_normalized() {
        let (c, c1, _) = corpus();
        let f = TextFeaturizer::default();
        let v1 = f.featurize(&c.candidate(c1));
        let v2 = f.featurize(&c.candidate(c1));
        assert_eq!(v1, v2);
        assert!((v1.norm2_sq() - 1.0).abs() < 1e-9);
        assert!(v1.nnz() > 10);
    }

    #[test]
    fn different_candidates_differ() {
        let (c, c1, c2) = corpus();
        let f = TextFeaturizer::default();
        let v1 = f.featurize(&c.candidate(c1));
        let v2 = f.featurize(&c.candidate(c2));
        // Shared structure ("severe", distance, types) but different
        // content words: cosine must be strictly between 0 and 1.
        let cos = v1.dot_sparse(&v2);
        assert!(cos > 0.05 && cos < 0.95, "cosine {cos}");
    }

    #[test]
    fn buckets_bound_indices() {
        let (c, c1, _) = corpus();
        let f = TextFeaturizer::with_buckets(64);
        let v = f.featurize(&c.candidate(c1));
        assert!(v.indices().iter().all(|&i| i < 64));
    }

    #[test]
    fn hash_distributes() {
        // Not a statistical test — just confirm different names spread
        // across buckets rather than colliding trivially.
        let buckets = 1 << 12;
        let hashes: std::collections::HashSet<u32> = (0..100)
            .map(|i| hash_feature(&format!("w=word{i}"), buckets))
            .collect();
        assert!(hashes.len() > 90);
    }

    #[test]
    fn featurize_all_matches_single() {
        let (c, c1, c2) = corpus();
        let f = TextFeaturizer::default();
        let all = f.featurize_all(&c, &[c1, c2]);
        assert_eq!(all[0], f.featurize(&c.candidate(c1)));
        assert_eq!(all[1], f.featurize(&c.candidate(c2)));
    }
}

//! Declarative labeling-function operators (paper §2.1).
//!
//! These encode "the most common weak supervision function types" the
//! paper's library ships: text patterns with candidate slots, keyword
//! tests on the tokens between relation arguments, and thresholded weak
//! classifiers.

use snorkel_context::CandidateView;
use snorkel_matrix::{Vote, ABSTAIN};
use snorkel_pattern::SlotTemplate;

use crate::traits::LabelingFunction;

/// Slot-template pattern LF — the paper's declarative
/// `lf_search("{{1}}.*\Wcauses\W.*{{2}}", reverse_args=False)`.
///
/// At labeling time the candidate's span texts fill the template slots
/// (optionally reversed) and the filled pattern is matched against the
/// sentence text; a hit emits `label`, otherwise the LF abstains.
pub struct PatternLf {
    name: String,
    template: SlotTemplate,
    label: Vote,
    reverse_args: bool,
}

impl PatternLf {
    /// Build from a template source (see [`SlotTemplate`]); patterns are
    /// matched case-insensitively, which is what every pattern LF in the
    /// paper's tutorials does.
    pub fn new(
        name: impl Into<String>,
        template: &str,
        label: Vote,
    ) -> Result<Self, snorkel_pattern::PatternError> {
        Ok(PatternLf {
            name: name.into(),
            template: SlotTemplate::new(template, true)?,
            label,
            reverse_args: false,
        })
    }

    /// Fill slots with the candidate's spans in reverse order — the
    /// paper's `reverse_args` flag.
    pub fn with_reversed_args(mut self) -> Self {
        self.reverse_args = true;
        self
    }
}

impl LabelingFunction for PatternLf {
    fn name(&self) -> &str {
        &self.name
    }

    fn label(&self, x: &CandidateView<'_>) -> Vote {
        let mut values = x.span_texts();
        if self.reverse_args {
            values.reverse();
        }
        if values.len() < self.template.arity() {
            return ABSTAIN; // arity mismatch: never applicable
        }
        if self.template.is_match(&values, x.sentence().text()) {
            self.label
        } else {
            ABSTAIN
        }
    }
}

/// The running-example LF (paper Example 2.3): look for a keyword among
/// the tokens between the two argument spans; emit `label_forward` when
/// span 0 precedes span 1 and `label_reverse` otherwise.
pub struct KeywordBetweenLf {
    name: String,
    keywords: Vec<String>,
    use_lemmas: bool,
    label_forward: Vote,
    label_reverse: Vote,
}

impl KeywordBetweenLf {
    /// Match surface forms (case-insensitive).
    pub fn new(
        name: impl Into<String>,
        keywords: &[&str],
        label_forward: Vote,
        label_reverse: Vote,
    ) -> Self {
        KeywordBetweenLf {
            name: name.into(),
            keywords: keywords.iter().map(|k| k.to_lowercase()).collect(),
            use_lemmas: false,
            label_forward,
            label_reverse,
        }
    }

    /// Match lemmas instead of surface forms ("cause" hits "caused",
    /// "causes", "causing").
    pub fn on_lemmas(mut self) -> Self {
        self.use_lemmas = true;
        self
    }

    /// Whether `w.to_lowercase()` is one of the (lowercased) keywords.
    /// An ASCII token is compared case-insensitively in place: its
    /// lowercase is ASCII, so only an all-ASCII keyword can equal it, and
    /// a lowercased keyword holds no ASCII capitals. Other tokens are
    /// lowercased through a `String`.
    fn matches(&self, w: &str) -> bool {
        if w.is_ascii() {
            self.keywords.iter().any(|k| k.eq_ignore_ascii_case(w))
        } else {
            self.keywords.contains(&w.to_lowercase())
        }
    }
}

impl LabelingFunction for KeywordBetweenLf {
    fn name(&self) -> &str {
        &self.name
    }

    fn label(&self, x: &CandidateView<'_>) -> Vote {
        if x.arity() < 2 {
            return ABSTAIN;
        }
        let hit = x.tokens_between(0, 1).iter().any(|t| {
            let w = if self.use_lemmas { &t.lemma } else { &t.text };
            self.matches(w)
        });
        if !hit {
            return ABSTAIN;
        }
        if x.span_precedes(0, 1) {
            self.label_forward
        } else {
            self.label_reverse
        }
    }
}

/// A weak classifier as a labeling function (§2.1 "weak classifiers"):
/// a scoring function plus two thresholds. Scores at or above
/// `pos_threshold` vote `pos_label`; at or below `neg_threshold` vote
/// `neg_label`; in between the LF abstains.
pub struct ThresholdLf {
    name: String,
    score: Box<dyn Fn(&CandidateView<'_>) -> f64 + Send + Sync>,
    pos_threshold: f64,
    neg_threshold: f64,
    pos_label: Vote,
    neg_label: Vote,
}

impl ThresholdLf {
    /// Build from a scoring closure and thresholds
    /// (`neg_threshold < pos_threshold` required).
    pub fn new(
        name: impl Into<String>,
        score: impl Fn(&CandidateView<'_>) -> f64 + Send + Sync + 'static,
        neg_threshold: f64,
        pos_threshold: f64,
    ) -> Self {
        assert!(
            neg_threshold < pos_threshold,
            "ThresholdLf: need neg_threshold < pos_threshold"
        );
        ThresholdLf {
            name: name.into(),
            score: Box::new(score),
            pos_threshold,
            neg_threshold,
            pos_label: 1,
            neg_label: -1,
        }
    }

    /// Override the emitted labels (multi-class weak classifiers).
    pub fn with_labels(mut self, neg_label: Vote, pos_label: Vote) -> Self {
        self.neg_label = neg_label;
        self.pos_label = pos_label;
        self
    }
}

impl LabelingFunction for ThresholdLf {
    fn name(&self) -> &str {
        &self.name
    }

    fn label(&self, x: &CandidateView<'_>) -> Vote {
        let s = (self.score)(x);
        if s >= self.pos_threshold {
            self.pos_label
        } else if s <= self.neg_threshold {
            self.neg_label
        } else {
            ABSTAIN
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snorkel_context::{CandidateId, Corpus, Token};
    use snorkel_nlp::tokenize;

    /// "magnesium causes weakness" forward candidate and a reversed one.
    fn corpus() -> (Corpus, CandidateId, CandidateId) {
        let mut c = Corpus::new();
        let d = c.add_document("d");
        let t1 = "magnesium causes severe weakness";
        let s1 = c.add_sentence(d, t1, tokenize(t1));
        let chem1 = c.add_span(s1, 0, 1, Some("Chemical"));
        let dis1 = c.add_span(s1, 3, 4, Some("Disease"));
        let fwd = c.add_candidate(vec![chem1, dis1]);

        let t2 = "weakness caused by magnesium";
        let s2 = c.add_sentence(d, t2, tokenize(t2));
        let dis2 = c.add_span(s2, 0, 1, Some("Disease"));
        let chem2 = c.add_span(s2, 3, 4, Some("Chemical"));
        let rev = c.add_candidate(vec![chem2, dis2]); // span0=chem comes second
        (c, fwd, rev)
    }

    #[test]
    fn pattern_lf_matches_forward() {
        let (c, fwd, rev) = corpus();
        let p = PatternLf::new("lf_causes_pat", r"{{0}}.*\Wcauses\W.*{{1}}", 1).unwrap();
        assert_eq!(p.label(&c.candidate(fwd)), 1);
        assert_eq!(p.label(&c.candidate(rev)), 0);
    }

    #[test]
    fn pattern_lf_reversed_args() {
        let (c, fwd, _) = corpus();
        let p = PatternLf::new("rev", r"{{0}}.*\Wcauses\W.*{{1}}", -1)
            .unwrap()
            .with_reversed_args();
        // Reversed: {{0}}=weakness(second span text reversed) won't match.
        assert_eq!(p.label(&c.candidate(fwd)), 0);
    }

    #[test]
    fn keyword_between_directionality() {
        let (c, fwd, rev) = corpus();
        let k = KeywordBetweenLf::new("lf_causes", &["causes", "caused"], 1, -1);
        assert_eq!(k.label(&c.candidate(fwd)), 1, "chemical precedes disease");
        assert_eq!(k.label(&c.candidate(rev)), -1, "disease precedes chemical");
    }

    #[test]
    fn keyword_between_lemma_mode() {
        let (c, fwd, rev) = corpus();
        let k = KeywordBetweenLf::new("lf_cause_lemma", &["cause"], 1, -1).on_lemmas();
        assert_eq!(k.label(&c.candidate(fwd)), 1);
        assert_eq!(k.label(&c.candidate(rev)), -1); // "caused" lemmatizes to "cause"
    }

    #[test]
    fn keyword_between_abstains_without_keyword() {
        let (c, fwd, _) = corpus();
        let k = KeywordBetweenLf::new("lf_treats", &["treats"], 1, -1);
        assert_eq!(k.label(&c.candidate(fwd)), 0);
    }

    /// The keyword test `matches` replaced: lowercase every token.
    fn reference_matches(k: &KeywordBetweenLf, w: &str) -> bool {
        k.keywords.contains(&w.to_lowercase())
    }

    #[test]
    fn keyword_matching_keeps_to_lowercase_semantics() {
        // (keywords, token between the spans). The Kelvin sign `K`
        // lowercases to ASCII `k`; `İ` to `i̇` (two chars); a word-final
        // capital sigma to `ς`.
        let table: &[(&[&str], &str)] = &[
            (&["causes"], "causes"),
            (&["causes"], "CAUSES"),
            (&["causes"], "CaUsEs"),
            (&["CAUSES"], "causes"),
            (&["causes"], "caused"),
            (&["causes"], "cause"),
            (&["\u{212A}eep"], "keep"),
            (&["\u{212A}eep"], "KEEP"),
            (&["\u{212A}eep"], "\u{212A}EEP"),
            (&["keep"], "\u{212A}eep"),
            (&["i\u{307}stanbul"], "İSTANBUL"),
            (&["İstanbul"], "istanbul"),
            (&["İstanbul"], "i\u{307}stanbul"),
            (&["ΟΔΟΣ"], "οδος"),
            (&["ΟΔΟΣ"], "ΟΔΟΣ"),
            (&["οδοσ"], "ΟΔΟΣ"),
            (&["straße"], "STRAßE"),
            (&["strasse"], "STRAßE"),
            (&["café", "naïve"], "NAÏVE"),
            (&["café"], "CAFE"),
            (&[], "causes"),
        ];
        for &(keywords, word) in table {
            let text = format!("alpha {word} beta");
            let tokens = vec![
                Token::new("alpha", 0, 5),
                Token::new(word, 6, 6 + word.len()),
                Token::new("beta", 7 + word.len(), text.len()),
            ];
            let mut c = Corpus::new();
            let d = c.add_document("d");
            let s = c.add_sentence(d, text.as_str(), tokens);
            let a = c.add_span(s, 0, 1, None);
            let b = c.add_span(s, 2, 3, None);
            let id = c.add_candidate(vec![a, b]);
            // The token's lemma is its lowercased text.
            let lemma = word.to_lowercase();
            for (k, w) in [
                (KeywordBetweenLf::new("kw", keywords, 1, -1), word),
                (
                    KeywordBetweenLf::new("kw", keywords, 1, -1).on_lemmas(),
                    &lemma,
                ),
            ] {
                let want = reference_matches(&k, w);
                assert_eq!(k.matches(w), want, "{keywords:?} vs {w:?}");
                let got = k.label(&c.candidate(id));
                assert_eq!(got, if want { 1 } else { 0 }, "{keywords:?} vs {w:?}");
            }
        }
    }

    #[test]
    fn threshold_lf_bands() {
        let (c, fwd, _) = corpus();
        let t = ThresholdLf::new("wk", |x| x.token_distance(0, 1) as f64, 1.0, 3.0);
        // distance 2 → between thresholds → abstain
        assert_eq!(t.label(&c.candidate(fwd)), 0);
        let t2 = ThresholdLf::new("wk2", |x| x.token_distance(0, 1) as f64, 0.5, 1.5);
        assert_eq!(t2.label(&c.candidate(fwd)), 1);
        let t3 =
            ThresholdLf::new("wk3", |x| x.token_distance(0, 1) as f64, 2.5, 5.0).with_labels(-1, 1);
        assert_eq!(t3.label(&c.candidate(fwd)), -1);
    }

    #[test]
    #[should_panic(expected = "neg_threshold < pos_threshold")]
    fn threshold_order_enforced() {
        let _ = ThresholdLf::new("bad", |_| 0.0, 1.0, 0.0);
    }
}

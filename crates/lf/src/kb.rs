//! Distant supervision: knowledge bases as labeling functions.
//!
//! Distant supervision heuristically aligns data points with an external
//! knowledge base (paper §2.1). [`KnowledgeBase`] stores entity pairs in
//! named *subsets* ("Causes", "Treats", …) because — per Example 2.4 —
//! different subsets of a KB have different accuracy and coverage and
//! should be modeled by *separate* labeling functions. [`ontology_lfs`]
//! is that labeling-function generator: one line expands a KB into one
//! [`OntologyLf`] per subset.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use snorkel_context::CandidateView;
use snorkel_matrix::{Vote, ABSTAIN};

use crate::traits::{BoxedLf, LabelingFunction};

/// A knowledge base of entity pairs organized into named subsets.
///
/// Pair lookup is case-insensitive on both arguments. The pair `(a, b)`
/// is directional: symmetric relations should insert both orders (see
/// [`KnowledgeBase::add_pair_symmetric`]).
#[derive(Clone, Debug, Default)]
pub struct KnowledgeBase {
    name: String,
    subsets: BTreeMap<String, HashSet<(String, String)>>,
}

impl KnowledgeBase {
    /// An empty KB with a display name (e.g. `"CTD"`).
    pub fn new(name: impl Into<String>) -> Self {
        KnowledgeBase {
            name: name.into(),
            subsets: BTreeMap::new(),
        }
    }

    /// The KB's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Insert a directed pair into a subset.
    pub fn add_pair(&mut self, subset: &str, a: &str, b: &str) {
        self.subsets
            .entry(subset.to_string())
            .or_default()
            .insert((a.to_lowercase(), b.to_lowercase()));
    }

    /// Insert both orders of a pair (symmetric relations like Spouses).
    pub fn add_pair_symmetric(&mut self, subset: &str, a: &str, b: &str) {
        self.add_pair(subset, a, b);
        self.add_pair(subset, b, a);
    }

    /// Test membership of a directed pair in a subset.
    pub fn contains(&self, subset: &str, a: &str, b: &str) -> bool {
        self.subsets
            .get(subset)
            .is_some_and(|s| s.contains(&(a.to_lowercase(), b.to_lowercase())))
    }

    /// Number of pairs in a subset (0 if absent).
    pub fn subset_len(&self, subset: &str) -> usize {
        self.subsets.get(subset).map_or(0, HashSet::len)
    }

    /// Remove and return a uniform-ish half of a subset's pairs
    /// (deterministic: keeps pairs whose hash is even). Used by the CDR
    /// evaluation protocol, which deletes half of CTD and evaluates on
    /// candidates not contained in the remaining half (§4.1.1).
    pub fn split_off_half(&mut self, subset: &str) -> HashSet<(String, String)> {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let Some(set) = self.subsets.get_mut(subset) else {
            return HashSet::new();
        };
        let mut removed = HashSet::new();
        let mut kept = HashSet::new();
        for pair in set.drain() {
            let mut h = DefaultHasher::new();
            pair.hash(&mut h);
            if h.finish().is_multiple_of(2) {
                kept.insert(pair);
            } else {
                removed.insert(pair);
            }
        }
        *set = kept;
        removed
    }
}

/// Distant-supervision LF: vote `label` when the candidate's span texts
/// appear as a pair in one KB subset, abstain otherwise.
pub struct OntologyLf {
    name: String,
    kb: Arc<KnowledgeBase>,
    subset: String,
    label: Vote,
}

impl OntologyLf {
    /// LF over one subset of a shared KB.
    pub fn new(kb: Arc<KnowledgeBase>, subset: &str, label: Vote) -> Self {
        OntologyLf {
            name: format!("lf_{}_{}", kb.name(), subset),
            kb,
            subset: subset.to_string(),
            label,
        }
    }
}

impl LabelingFunction for OntologyLf {
    fn name(&self) -> &str {
        &self.name
    }

    fn label(&self, x: &CandidateView<'_>) -> Vote {
        if x.arity() < 2 {
            return ABSTAIN;
        }
        let a = x.span(0).text();
        let b = x.span(1).text();
        if self.kb.contains(&self.subset, a, b) {
            self.label
        } else {
            ABSTAIN
        }
    }
}

/// The labeling-function generator of Example 2.4:
///
/// ```text
/// LFs_CTD = Ontology(ctd, {"Causes": True, "Treats": False})
/// ```
///
/// expands to one [`OntologyLf`] per `(subset, label)` mapping entry.
///
/// ```
/// use std::sync::Arc;
/// use snorkel_lf::{ontology_lfs, KnowledgeBase};
/// let mut kb = KnowledgeBase::new("ctd");
/// kb.add_pair("Causes", "magnesium", "weakness");
/// kb.add_pair("Treats", "magnesium", "preeclampsia");
/// let lfs = ontology_lfs(Arc::new(kb), &[("Causes", 1), ("Treats", -1)]);
/// assert_eq!(lfs.len(), 2);
/// ```
pub fn ontology_lfs(kb: Arc<KnowledgeBase>, mapping: &[(&str, Vote)]) -> Vec<BoxedLf> {
    mapping
        .iter()
        .map(|&(subset, label)| {
            Box::new(OntologyLf::new(Arc::clone(&kb), subset, label)) as BoxedLf
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use snorkel_context::Corpus;
    use snorkel_nlp::tokenize;

    fn kb() -> KnowledgeBase {
        let mut kb = KnowledgeBase::new("ctd");
        kb.add_pair("Causes", "Magnesium", "Weakness");
        kb.add_pair("Treats", "magnesium", "preeclampsia");
        kb
    }

    fn candidate(corpus: &mut Corpus, a: &str, b: &str) -> snorkel_context::CandidateId {
        let d = corpus.add_document("d");
        let text = format!("{a} with {b}");
        let s = corpus.add_sentence(d, &text, tokenize(&text));
        let sa = corpus.add_span(s, 0, 1, Some("Chemical"));
        let sb = corpus.add_span(s, 2, 3, Some("Disease"));
        corpus.add_candidate(vec![sa, sb])
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let kb = kb();
        assert!(kb.contains("Causes", "MAGNESIUM", "weakness"));
        assert!(!kb.contains("Causes", "magnesium", "preeclampsia"));
        assert!(!kb.contains("Missing", "a", "b"));
    }

    #[test]
    fn ontology_lf_votes_by_subset() {
        let kb = Arc::new(kb());
        let mut corpus = Corpus::new();
        let cand = candidate(&mut corpus, "magnesium", "weakness");
        let causes = OntologyLf::new(Arc::clone(&kb), "Causes", 1);
        let treats = OntologyLf::new(Arc::clone(&kb), "Treats", -1);
        assert_eq!(causes.label(&corpus.candidate(cand)), 1);
        assert_eq!(treats.label(&corpus.candidate(cand)), 0);
        assert_eq!(causes.name(), "lf_ctd_Causes");
    }

    #[test]
    fn generator_expands_mapping() {
        let lfs = ontology_lfs(Arc::new(kb()), &[("Causes", 1), ("Treats", -1)]);
        assert_eq!(lfs.len(), 2);
        assert_eq!(lfs[0].name(), "lf_ctd_Causes");
        assert_eq!(lfs[1].name(), "lf_ctd_Treats");
    }

    #[test]
    fn symmetric_pairs() {
        let mut kb = KnowledgeBase::new("dbpedia");
        kb.add_pair_symmetric("spouse", "Alice", "Bob");
        assert!(kb.contains("spouse", "bob", "alice"));
        assert!(kb.contains("spouse", "alice", "bob"));
        assert_eq!(kb.subset_len("spouse"), 2);
    }

    #[test]
    fn split_off_half_partitions() {
        let mut kb = KnowledgeBase::new("ctd");
        for i in 0..100 {
            kb.add_pair("Causes", &format!("chem{i}"), &format!("dis{i}"));
        }
        let removed = kb.split_off_half("Causes");
        let kept = kb.subset_len("Causes");
        assert_eq!(kept + removed.len(), 100);
        assert!(kept > 20 && removed.len() > 20, "split is roughly even");
        for (a, b) in &removed {
            assert!(!kb.contains("Causes", a, b));
        }
    }

    #[test]
    fn split_off_missing_subset_is_empty() {
        let mut kb = KnowledgeBase::new("x");
        assert!(kb.split_off_half("nope").is_empty());
    }
}

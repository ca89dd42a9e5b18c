//! The arena-allocated corpus store and its navigation views.
//!
//! [`Corpus`] owns four dense arenas (documents, sentences, spans,
//! candidates). Construction is single-threaded (dataset generation);
//! after that the corpus is read-only and freely shared across labeling
//! threads as `&Corpus`.
//!
//! Views ([`CandidateView`], [`SpanView`], [`SentenceView`],
//! [`DocumentView`]) pair a record with the corpus reference and expose
//! the traversals labeling functions use — the Rust equivalent of the
//! paper's ORM-backed `x.chemical.get_word_range()` /
//! `x.parent.words[ce+1:ds]` idioms.

use std::collections::BTreeMap;

use crate::hierarchy::{Candidate, Document, Sentence, Span};
use crate::ids::{CandidateId, DocId, SentenceId, SpanId};
use crate::token::Token;

/// In-memory context-hierarchy store.
#[derive(Clone, Debug, Default)]
pub struct Corpus {
    documents: Vec<Document>,
    sentences: Vec<Sentence>,
    spans: Vec<Span>,
    candidates: Vec<Candidate>,
}

impl Corpus {
    /// An empty corpus.
    pub fn new() -> Self {
        Corpus::default()
    }

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Append a document.
    pub fn add_document(&mut self, name: impl Into<String>) -> DocId {
        let id = DocId::from_index(self.documents.len());
        self.documents.push(Document {
            id,
            name: name.into(),
            sentences: Vec::new(),
            meta: BTreeMap::new(),
        });
        id
    }

    /// Attach a metadata key/value pair to a document.
    pub fn set_doc_meta(&mut self, doc: DocId, key: impl Into<String>, value: impl Into<String>) {
        self.documents[doc.index()]
            .meta
            .insert(key.into(), value.into());
    }

    /// Append a sentence to a document. Token offsets must be
    /// monotonically increasing and within the text; this is validated.
    pub fn add_sentence(
        &mut self,
        doc: DocId,
        text: impl Into<String>,
        tokens: Vec<Token>,
    ) -> SentenceId {
        let text = text.into();
        let mut prev_end = 0usize;
        for t in &tokens {
            assert!(
                t.start >= prev_end && t.end >= t.start && t.end <= text.len(),
                "add_sentence: token offsets [{}, {}) invalid for text of {} bytes",
                t.start,
                t.end,
                text.len()
            );
            prev_end = t.end;
        }
        let id = SentenceId::from_index(self.sentences.len());
        let position = self.documents[doc.index()].sentences.len();
        self.sentences.push(Sentence {
            id,
            doc,
            position,
            text,
            tokens,
            spans: Vec::new(),
        });
        self.documents[doc.index()].sentences.push(id);
        id
    }

    /// Tag a token range of a sentence as a span (entity mention).
    pub fn add_span(
        &mut self,
        sentence: SentenceId,
        token_start: usize,
        token_end: usize,
        entity_type: Option<&str>,
    ) -> SpanId {
        let sent = &self.sentences[sentence.index()];
        assert!(
            token_start < token_end && token_end <= sent.tokens.len(),
            "add_span: token range [{token_start}, {token_end}) invalid for sentence with {} tokens",
            sent.tokens.len()
        );
        let id = SpanId::from_index(self.spans.len());
        self.spans.push(Span {
            id,
            sentence,
            token_start,
            token_end,
            entity_type: entity_type.map(str::to_string),
        });
        self.sentences[sentence.index()].spans.push(id);
        id
    }

    /// Create a candidate from argument spans. All spans must belong to
    /// the same sentence (the paper's co-occurrence candidates), and at
    /// least one span is required.
    pub fn add_candidate(&mut self, spans: Vec<SpanId>) -> CandidateId {
        assert!(!spans.is_empty(), "add_candidate: at least one span");
        let sent = self.spans[spans[0].index()].sentence;
        for s in &spans {
            assert_eq!(
                self.spans[s.index()].sentence,
                sent,
                "add_candidate: spans must share a sentence"
            );
        }
        let id = CandidateId::from_index(self.candidates.len());
        self.candidates.push(Candidate { id, spans });
        id
    }

    // ------------------------------------------------------------------
    // Access
    // ------------------------------------------------------------------

    /// Number of documents.
    pub fn num_documents(&self) -> usize {
        self.documents.len()
    }

    /// Number of sentences.
    pub fn num_sentences(&self) -> usize {
        self.sentences.len()
    }

    /// Number of spans.
    pub fn num_spans(&self) -> usize {
        self.spans.len()
    }

    /// Number of candidates.
    pub fn num_candidates(&self) -> usize {
        self.candidates.len()
    }

    /// View a document.
    pub fn document(&self, id: DocId) -> DocumentView<'_> {
        DocumentView {
            corpus: self,
            doc: &self.documents[id.index()],
        }
    }

    /// View a sentence.
    pub fn sentence(&self, id: SentenceId) -> SentenceView<'_> {
        SentenceView {
            corpus: self,
            sent: &self.sentences[id.index()],
        }
    }

    /// View a span.
    pub fn span(&self, id: SpanId) -> SpanView<'_> {
        SpanView {
            corpus: self,
            span: &self.spans[id.index()],
        }
    }

    /// View a candidate.
    pub fn candidate(&self, id: CandidateId) -> CandidateView<'_> {
        CandidateView {
            corpus: self,
            cand: &self.candidates[id.index()],
        }
    }

    /// Iterate all candidate ids in creation (= matrix-row) order.
    pub fn candidate_ids(&self) -> impl Iterator<Item = CandidateId> + '_ {
        (0..self.candidates.len()).map(CandidateId::from_index)
    }
}

// ----------------------------------------------------------------------
// Views
// ----------------------------------------------------------------------

/// Read-only navigation handle for a document.
#[derive(Clone, Copy)]
pub struct DocumentView<'a> {
    corpus: &'a Corpus,
    doc: &'a Document,
}

impl<'a> DocumentView<'a> {
    /// The document id.
    pub fn id(&self) -> DocId {
        self.doc.id
    }

    /// External document name.
    pub fn name(&self) -> &'a str {
        &self.doc.name
    }

    /// Metadata value for `key`, if set.
    pub fn meta(&self, key: &str) -> Option<&'a str> {
        self.doc.meta.get(key).map(String::as_str)
    }

    /// Number of sentences.
    pub fn num_sentences(&self) -> usize {
        self.doc.sentences.len()
    }

    /// Iterate sentence views in reading order.
    pub fn sentences(&self) -> impl Iterator<Item = SentenceView<'a>> + '_ {
        let corpus = self.corpus;
        self.doc
            .sentences
            .iter()
            .map(move |id| corpus.sentence(*id))
    }
}

/// Read-only navigation handle for a sentence.
#[derive(Clone, Copy)]
pub struct SentenceView<'a> {
    corpus: &'a Corpus,
    sent: &'a Sentence,
}

impl<'a> SentenceView<'a> {
    /// The sentence id.
    pub fn id(&self) -> SentenceId {
        self.sent.id
    }

    /// Raw text.
    pub fn text(&self) -> &'a str {
        &self.sent.text
    }

    /// All tokens.
    pub fn tokens(&self) -> &'a [Token] {
        &self.sent.tokens
    }

    /// Number of tokens.
    pub fn num_tokens(&self) -> usize {
        self.sent.tokens.len()
    }

    /// Surface form of token `i`.
    pub fn word(&self, i: usize) -> &'a str {
        &self.sent.tokens[i].text
    }

    /// Lemma of token `i`.
    pub fn lemma(&self, i: usize) -> &'a str {
        &self.sent.tokens[i].lemma
    }

    /// All surface forms (allocates the vector, not the strings).
    pub fn words(&self) -> Vec<&'a str> {
        self.sent.tokens.iter().map(|t| t.text.as_str()).collect()
    }

    /// All lemmas.
    pub fn lemmas(&self) -> Vec<&'a str> {
        self.sent.tokens.iter().map(|t| t.lemma.as_str()).collect()
    }

    /// Position within the parent document (0-based).
    pub fn position(&self) -> usize {
        self.sent.position
    }

    /// Parent document view.
    pub fn doc(&self) -> DocumentView<'a> {
        self.corpus.document(self.sent.doc)
    }

    /// Spans tagged in this sentence.
    pub fn spans(&self) -> impl Iterator<Item = SpanView<'a>> + '_ {
        let corpus = self.corpus;
        self.sent.spans.iter().map(move |id| corpus.span(*id))
    }
}

/// Read-only navigation handle for a span.
#[derive(Clone, Copy)]
pub struct SpanView<'a> {
    corpus: &'a Corpus,
    span: &'a Span,
}

impl<'a> SpanView<'a> {
    /// The span id.
    pub fn id(&self) -> SpanId {
        self.span.id
    }

    /// The covered text, sliced from the sentence.
    pub fn text(&self) -> &'a str {
        let sent = &self.corpus.sentences[self.span.sentence.index()];
        let start = sent.tokens[self.span.token_start].start;
        let end = sent.tokens[self.span.token_end - 1].end;
        &sent.text[start..end]
    }

    /// `(first_token, one_past_last_token)` — the paper's
    /// `get_word_range()`.
    pub fn word_range(&self) -> (usize, usize) {
        (self.span.token_start, self.span.token_end)
    }

    /// Byte range within the sentence text.
    pub fn char_range(&self) -> (usize, usize) {
        let sent = &self.corpus.sentences[self.span.sentence.index()];
        (
            sent.tokens[self.span.token_start].start,
            sent.tokens[self.span.token_end - 1].end,
        )
    }

    /// The entity tag, if any.
    pub fn entity_type(&self) -> Option<&'a str> {
        self.span.entity_type.as_deref()
    }

    /// Parent sentence view.
    pub fn sentence(&self) -> SentenceView<'a> {
        self.corpus.sentence(self.span.sentence)
    }

    /// Surface forms of the covered tokens.
    pub fn words(&self) -> Vec<&'a str> {
        let sent = &self.corpus.sentences[self.span.sentence.index()];
        sent.tokens[self.span.token_start..self.span.token_end]
            .iter()
            .map(|t| t.text.as_str())
            .collect()
    }
}

/// Read-only navigation handle for a candidate — the object labeling
/// functions receive.
#[derive(Clone, Copy)]
pub struct CandidateView<'a> {
    corpus: &'a Corpus,
    cand: &'a Candidate,
}

impl<'a> CandidateView<'a> {
    /// The candidate id (== its label-matrix row).
    pub fn id(&self) -> CandidateId {
        self.cand.id
    }

    /// Number of argument spans.
    pub fn arity(&self) -> usize {
        self.cand.spans.len()
    }

    /// The `k`-th argument span.
    pub fn span(&self, k: usize) -> SpanView<'a> {
        self.corpus.span(self.cand.spans[k])
    }

    /// The shared sentence of all argument spans — the paper's
    /// `x.parent`.
    pub fn sentence(&self) -> SentenceView<'a> {
        self.span(0).sentence()
    }

    /// Parent document.
    pub fn doc(&self) -> DocumentView<'a> {
        self.sentence().doc()
    }

    /// Tokens strictly between spans `a` and `b` (in textual order, so
    /// the call is symmetric); empty when the spans touch or overlap.
    pub fn tokens_between(&self, a: usize, b: usize) -> &'a [Token] {
        let (sa, ea) = self.span(a).word_range();
        let (sb, eb) = self.span(b).word_range();
        let (lo_end, hi_start) = if ea <= sb { (ea, sb) } else { (eb, sa) };
        let sent = self.sentence();
        if lo_end <= hi_start && hi_start <= sent.num_tokens() {
            &sent.tokens()[lo_end..hi_start]
        } else {
            &[]
        }
    }

    /// Surface forms strictly between spans `a` and `b`.
    pub fn words_between(&self, a: usize, b: usize) -> Vec<&'a str> {
        self.tokens_between(a, b)
            .iter()
            .map(|t| t.text.as_str())
            .collect()
    }

    /// Lemmas strictly between spans `a` and `b`.
    pub fn lemmas_between(&self, a: usize, b: usize) -> Vec<&'a str> {
        self.tokens_between(a, b)
            .iter()
            .map(|t| t.lemma.as_str())
            .collect()
    }

    /// True when span `a` appears strictly before span `b` in the
    /// sentence.
    pub fn span_precedes(&self, a: usize, b: usize) -> bool {
        self.span(a).word_range().1 <= self.span(b).word_range().0
    }

    /// Token distance between spans (0 when adjacent or overlapping).
    pub fn token_distance(&self, a: usize, b: usize) -> usize {
        self.tokens_between(a, b).len()
    }

    /// Argument span texts in order, for slot-template filling.
    pub fn span_texts(&self) -> Vec<&'a str> {
        (0..self.arity()).map(|k| self.span(k).text()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build the running CDR example from the paper.
    fn cdr_corpus() -> (Corpus, CandidateId, CandidateId) {
        let mut c = Corpus::new();
        let doc = c.add_document("pubmed-1");
        c.set_doc_meta(doc, "source", "synthetic");
        let text = "magnesium causes quadriplegic state after preeclampsia treatment";
        let tokens = simple_tokens(text);
        let sent = c.add_sentence(doc, text, tokens);
        let chem = c.add_span(sent, 0, 1, Some("Chemical"));
        let dis1 = c.add_span(sent, 2, 3, Some("Disease"));
        let dis2 = c.add_span(sent, 5, 6, Some("Disease"));
        let cand1 = c.add_candidate(vec![chem, dis1]);
        let cand2 = c.add_candidate(vec![chem, dis2]);
        (c, cand1, cand2)
    }

    fn simple_tokens(text: &str) -> Vec<Token> {
        let mut out = Vec::new();
        let mut start = 0usize;
        for w in text.split(' ') {
            out.push(Token::new(w, start, start + w.len()));
            start += w.len() + 1;
        }
        out
    }

    #[test]
    fn navigation_matches_paper_idioms() {
        let (c, cand1, _) = cdr_corpus();
        let x = c.candidate(cand1);
        // x.chemical.get_word_range()
        assert_eq!(x.span(0).word_range(), (0, 1));
        assert_eq!(x.span(0).text(), "magnesium");
        assert_eq!(x.span(0).entity_type(), Some("Chemical"));
        // x.parent.words[ce+1:ds]
        assert_eq!(x.words_between(0, 1), vec!["causes"]);
        assert!(x.span_precedes(0, 1));
        assert!(!x.span_precedes(1, 0));
        assert_eq!(x.token_distance(0, 1), 1);
        assert_eq!(x.doc().name(), "pubmed-1");
        assert_eq!(x.doc().meta("source"), Some("synthetic"));
        assert_eq!(x.sentence().position(), 0);
    }

    #[test]
    fn words_between_is_symmetric() {
        let (c, _, cand2) = cdr_corpus();
        let x = c.candidate(cand2);
        assert_eq!(x.words_between(0, 1), x.words_between(1, 0));
        assert_eq!(
            x.words_between(0, 1),
            vec!["causes", "quadriplegic", "state", "after"]
        );
    }

    #[test]
    fn span_char_range_slices_text() {
        let (c, cand1, _) = cdr_corpus();
        let x = c.candidate(cand1);
        let (s, e) = x.span(1).char_range();
        assert_eq!(&x.sentence().text()[s..e], "quadriplegic");
    }

    #[test]
    fn counts_and_iteration() {
        let (c, _, _) = cdr_corpus();
        assert_eq!(c.num_documents(), 1);
        assert_eq!(c.num_sentences(), 1);
        assert_eq!(c.num_spans(), 3);
        assert_eq!(c.num_candidates(), 2);
        assert_eq!(c.candidate_ids().count(), 2);
        let doc = c.document(DocId::from_index(0));
        assert_eq!(doc.num_sentences(), 1);
        assert_eq!(doc.sentences().next().unwrap().num_tokens(), 7);
        let sent = c.sentence(SentenceId::from_index(0));
        assert_eq!(sent.spans().count(), 3);
        assert_eq!(sent.words()[1], "causes");
        assert_eq!(sent.lemmas()[1], "causes");
    }

    #[test]
    fn overlapping_spans_have_empty_between() {
        let mut c = Corpus::new();
        let doc = c.add_document("d");
        let text = "a b c";
        let sent = c.add_sentence(doc, text, simple_tokens(text));
        let s1 = c.add_span(sent, 0, 2, None);
        let s2 = c.add_span(sent, 1, 3, None);
        let cand = c.add_candidate(vec![s1, s2]);
        assert!(c.candidate(cand).words_between(0, 1).is_empty());
        assert_eq!(c.candidate(cand).token_distance(0, 1), 0);
    }

    #[test]
    #[should_panic(expected = "token range")]
    fn bad_span_range_panics() {
        let mut c = Corpus::new();
        let doc = c.add_document("d");
        let sent = c.add_sentence(doc, "a", simple_tokens("a"));
        let _ = c.add_span(sent, 0, 2, None);
    }

    #[test]
    #[should_panic(expected = "share a sentence")]
    fn cross_sentence_candidate_panics() {
        let mut c = Corpus::new();
        let doc = c.add_document("d");
        let s1 = c.add_sentence(doc, "a", simple_tokens("a"));
        let s2 = c.add_sentence(doc, "b", simple_tokens("b"));
        let sp1 = c.add_span(s1, 0, 1, None);
        let sp2 = c.add_span(s2, 0, 1, None);
        let _ = c.add_candidate(vec![sp1, sp2]);
    }

    #[test]
    #[should_panic(expected = "token offsets")]
    fn bad_token_offsets_panic() {
        let mut c = Corpus::new();
        let doc = c.add_document("d");
        let _ = c.add_sentence(doc, "ab", vec![Token::new("ab", 1, 0)]);
    }
}

//! Document ingestion: raw text → populated corpus.
//!
//! [`DocumentIngester`] is the preprocessing front door, standing in for
//! Snorkel's CoreNLP/SpaCy wrappers: it splits sentences, tokenizes,
//! lemmatizes (inside [`crate::tokenize`]), runs the dictionary NER
//! tagger, and writes everything into a [`snorkel_context::Corpus`].

use snorkel_context::{Corpus, DocId};

use crate::ner::DictionaryTagger;
use crate::sentence::split_sentences;
use crate::tokenize::tokenize;

/// Raw-text-to-corpus preprocessing pipeline.
#[derive(Clone, Debug, Default)]
pub struct DocumentIngester {
    tagger: DictionaryTagger,
}

impl DocumentIngester {
    /// An ingester with no entity dictionary (no spans will be tagged).
    pub fn new() -> Self {
        DocumentIngester::default()
    }

    /// An ingester using `tagger` for entity mentions.
    pub fn with_tagger(tagger: DictionaryTagger) -> Self {
        DocumentIngester { tagger }
    }

    /// Ingest one document: split, tokenize, tag, store. Returns the new
    /// document id.
    pub fn ingest(&self, corpus: &mut Corpus, name: &str, text: &str) -> DocId {
        let doc = corpus.add_document(name);
        for (s, e) in split_sentences(text) {
            let sent_text = &text[s..e];
            let tokens = tokenize(sent_text);
            let tags: Vec<(usize, usize, String)> = self
                .tagger
                .tag(&tokens)
                .into_iter()
                .map(|(a, b, ty)| (a, b, ty.to_string()))
                .collect();
            let sent = corpus.add_sentence(doc, sent_text, tokens);
            for (a, b, ty) in tags {
                corpus.add_span(sent, a, b, Some(&ty));
            }
        }
        doc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_builds_full_hierarchy() {
        let mut tagger = DictionaryTagger::new();
        tagger.add_phrase("magnesium", "Chemical");
        tagger.add_phrase("preeclampsia", "Disease");
        let ing = DocumentIngester::with_tagger(tagger);

        let mut corpus = Corpus::new();
        let text = "We study a patient. Magnesium was given for preeclampsia.";
        let doc = ing.ingest(&mut corpus, "doc-7", text);

        let dv = corpus.document(doc);
        assert_eq!(dv.name(), "doc-7");
        assert_eq!(dv.num_sentences(), 2);
        let second = dv.sentences().nth(1).unwrap();
        assert_eq!(second.position(), 1);
        let spans: Vec<_> = second.spans().collect();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].text(), "Magnesium");
        assert_eq!(spans[0].entity_type(), Some("Chemical"));
        assert_eq!(spans[1].text(), "preeclampsia");
    }

    #[test]
    fn ingest_without_tagger_creates_no_spans() {
        let ing = DocumentIngester::new();
        let mut corpus = Corpus::new();
        ing.ingest(&mut corpus, "d", "Nothing tagged here. At all.");
        assert_eq!(corpus.num_sentences(), 2);
        assert_eq!(corpus.num_spans(), 0);
    }

    #[test]
    fn empty_document() {
        let ing = DocumentIngester::new();
        let mut corpus = Corpus::new();
        let doc = ing.ingest(&mut corpus, "empty", "");
        assert_eq!(corpus.document(doc).num_sentences(), 0);
    }
}

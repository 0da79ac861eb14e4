//! The in-memory inverted index used by the baselines, by individual worker
//! bees while preparing shard updates, and as the reference oracle in tests.

use crate::analyzer::Analyzer;
use crate::doc::{doc_id_for_name, DocMeta, DocTable};
use crate::postings::PostingList;
use std::collections::HashMap;

/// An in-memory inverted index over analyzed documents.
#[derive(Debug, Clone, Default)]
pub struct InvertedIndex {
    terms: HashMap<String, PostingList>,
    docs: DocTable,
}

impl InvertedIndex {
    /// Empty index.
    pub fn new() -> InvertedIndex {
        InvertedIndex::default()
    }

    /// Index (or re-index) a document given its already-analyzed term
    /// frequencies. Any previous postings of the same document are replaced.
    pub fn index_document(
        &mut self,
        name: &str,
        version: u64,
        creator: u64,
        term_freqs: &[(String, u32)],
    ) -> u64 {
        let doc_id = doc_id_for_name(name);
        if self.docs.get(doc_id).is_some() {
            self.remove_document(name);
        }
        let length: u32 = term_freqs.iter().map(|(_, f)| *f).sum();
        self.docs.upsert(
            doc_id,
            DocMeta {
                name: name.into(),
                length,
                version,
                creator,
            },
        );
        for (term, freq) in term_freqs {
            self.terms
                .entry(term.clone())
                .or_default()
                .upsert(doc_id, *freq);
        }
        doc_id
    }

    /// Analyze raw text with `analyzer` and index it.
    pub fn index_text(
        &mut self,
        analyzer: &Analyzer,
        name: &str,
        version: u64,
        creator: u64,
        text: &str,
    ) -> u64 {
        let tf = analyzer.term_frequencies(text);
        self.index_document(name, version, creator, &tf)
    }

    /// Remove a document from the index. Returns true if it was present.
    pub fn remove_document(&mut self, name: &str) -> bool {
        let doc_id = doc_id_for_name(name);
        if self.docs.remove(doc_id).is_none() {
            return false;
        }
        self.terms.retain(|_, list| {
            list.remove(doc_id);
            !list.is_empty()
        });
        true
    }

    /// The posting list of a term.
    pub fn postings(&self, term: &str) -> Option<&PostingList> {
        self.terms.get(term)
    }

    /// The document table.
    pub fn docs(&self) -> &DocTable {
        &self.docs
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.terms.len()
    }

    /// Number of indexed documents.
    pub fn doc_count(&self) -> usize {
        self.docs.len()
    }

    /// Document frequency of a term.
    pub fn doc_freq(&self, term: &str) -> usize {
        self.terms.get(term).map(|l| l.len()).unwrap_or(0)
    }

    /// Iterate over `(term, posting list)` pairs.
    pub fn terms(&self) -> impl Iterator<Item = (&String, &PostingList)> {
        self.terms.iter()
    }

    /// Total encoded size of all posting lists (index footprint metric).
    pub fn encoded_bytes(&self) -> usize {
        self.terms.values().map(|l| l.encoded_len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn analyzer() -> Analyzer {
        Analyzer::new()
    }

    fn build_small() -> InvertedIndex {
        let mut idx = InvertedIndex::new();
        let a = analyzer();
        idx.index_text(
            &a,
            "doc/bees",
            1,
            1,
            "worker bees maintain the index and earn honey",
        );
        idx.index_text(
            &a,
            "doc/web",
            1,
            2,
            "the decentralized web serves content from peers",
        );
        idx.index_text(
            &a,
            "doc/search",
            1,
            3,
            "search engines index the web and rank pages",
        );
        idx
    }

    #[test]
    fn indexing_populates_terms_and_docs() {
        let idx = build_small();
        assert_eq!(idx.doc_count(), 3);
        assert!(idx.term_count() > 5);
        assert_eq!(idx.doc_freq(&Analyzer::stem("index")), 2);
        assert_eq!(idx.doc_freq(&Analyzer::stem("honey")), 1);
        assert_eq!(idx.doc_freq("nonexistentterm"), 0);
    }

    #[test]
    fn reindexing_replaces_old_postings() {
        let mut idx = build_small();
        let a = analyzer();
        idx.index_text(
            &a,
            "doc/bees",
            2,
            1,
            "completely different content about nectar",
        );
        assert_eq!(idx.doc_count(), 3);
        // Old unique term gone, new term present.
        assert_eq!(idx.doc_freq(&Analyzer::stem("honey")), 0);
        assert_eq!(idx.doc_freq(&Analyzer::stem("nectar")), 1);
        let id = doc_id_for_name("doc/bees");
        assert_eq!(idx.docs().get(id).unwrap().version, 2);
    }

    #[test]
    fn remove_document_cleans_postings() {
        let mut idx = build_small();
        assert!(idx.remove_document("doc/web"));
        assert!(!idx.remove_document("doc/web"));
        assert_eq!(idx.doc_count(), 2);
        assert_eq!(idx.doc_freq(&Analyzer::stem("peers")), 0);
    }

    #[test]
    fn encoded_bytes_grows_with_content() {
        let mut idx = InvertedIndex::new();
        let a = analyzer();
        let before = idx.encoded_bytes();
        idx.index_text(&a, "d", 1, 1, "some words to index here");
        assert!(idx.encoded_bytes() > before);
    }
}

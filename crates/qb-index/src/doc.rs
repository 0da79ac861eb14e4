//! The document table: per-document metadata needed for scoring and result
//! presentation.

use qb_common::Hash256;
use std::collections::HashMap;

/// Stable 64-bit document id derived from a page name. Using a hash keeps
/// doc ids consistent across independent worker bees without coordination.
pub fn doc_id_for_name(name: &str) -> u64 {
    let [id, ..] = Hash256::digest_parts(&[b"doc:", name.as_bytes()]).words();
    id
}

/// Metadata of one indexed document (page version).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DocMeta {
    /// Page name.
    pub name: String,
    /// Number of index terms in the document (after analysis).
    pub length: u32,
    /// Page version this entry reflects.
    pub version: u64,
    /// Account id of the page's creator (used for ad revenue sharing).
    pub creator: u64,
}

/// Document table: doc id → metadata, plus the aggregates BM25 needs.
#[derive(Debug, Clone, Default, serde::Serialize, serde::Deserialize)]
pub struct DocTable {
    docs: HashMap<u64, DocMeta>,
    total_length: u64,
}

impl DocTable {
    /// Empty table.
    pub fn new() -> DocTable {
        DocTable::default()
    }

    /// Insert or replace a document's metadata.
    pub fn upsert(&mut self, doc_id: u64, meta: DocMeta) {
        if let Some(old) = self.docs.insert(doc_id, meta) {
            self.total_length -= old.length as u64;
        }
        self.total_length += self.docs[&doc_id].length as u64;
    }

    /// Remove a document; returns its metadata if present.
    pub fn remove(&mut self, doc_id: u64) -> Option<DocMeta> {
        let removed = self.docs.remove(&doc_id);
        if let Some(m) = &removed {
            self.total_length -= m.length as u64;
        }
        removed
    }

    /// Metadata of a document.
    pub fn get(&self, doc_id: u64) -> Option<&DocMeta> {
        self.docs.get(&doc_id)
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// True when no documents are indexed.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Average document length (1.0 when empty to avoid division by zero).
    pub fn avg_length(&self) -> f64 {
        if self.docs.is_empty() {
            1.0
        } else {
            self.total_length as f64 / self.docs.len() as f64
        }
    }

    /// Iterate over `(doc id, metadata)`.
    pub fn iter(&self) -> impl Iterator<Item = (&u64, &DocMeta)> {
        self.docs.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(name: &str, len: u32) -> DocMeta {
        DocMeta {
            name: name.into(),
            length: len,
            version: 1,
            creator: 7,
        }
    }

    #[test]
    fn doc_ids_are_stable_and_distinct() {
        assert_eq!(doc_id_for_name("a/page"), doc_id_for_name("a/page"));
        assert_ne!(doc_id_for_name("a/page"), doc_id_for_name("a/other"));
    }

    #[test]
    fn upsert_and_averages() {
        let mut t = DocTable::new();
        assert_eq!(t.avg_length(), 1.0);
        t.upsert(1, meta("a", 100));
        t.upsert(2, meta("b", 300));
        assert_eq!(t.len(), 2);
        assert!((t.avg_length() - 200.0).abs() < 1e-9);
        // Replacing updates the aggregate.
        t.upsert(2, meta("b", 100));
        assert!((t.avg_length() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn remove_updates_aggregates() {
        let mut t = DocTable::new();
        t.upsert(1, meta("a", 50));
        t.upsert(2, meta("b", 150));
        let removed = t.remove(2).unwrap();
        assert_eq!(removed.name, "b");
        assert_eq!(t.len(), 1);
        assert!((t.avg_length() - 50.0).abs() < 1e-9);
        assert!(t.remove(99).is_none());
    }

    #[test]
    fn get_returns_metadata() {
        let mut t = DocTable::new();
        let id = doc_id_for_name("site/home");
        t.upsert(id, meta("site/home", 42));
        assert_eq!(t.get(id).unwrap().length, 42);
        assert!(t.get(12345).is_none());
    }
}

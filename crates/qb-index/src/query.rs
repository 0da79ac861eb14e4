//! Query parsing and evaluation over a local [`InvertedIndex`].

use crate::analyzer::Analyzer;
use crate::index::InvertedIndex;
use crate::postings::PostingList;
use crate::scorer::{blend_with_rank, Bm25};
use qb_common::{QbError, QbResult};
use std::collections::HashMap;
use std::sync::Arc;

/// How multi-term queries combine their terms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryMode {
    /// Documents must contain every term (the frontend default: "intersecting
    /// the matched inverted lists").
    And,
    /// Documents may contain any term.
    Or,
}

/// A parsed query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Analyzed query terms (deduplicated, order preserved).
    pub terms: Vec<String>,
    /// Conjunctive or disjunctive evaluation.
    pub mode: QueryMode,
}

impl Query {
    /// Parse raw query text with the same analyzer used for documents.
    pub fn parse(analyzer: &Analyzer, text: &str, mode: QueryMode) -> QbResult<Query> {
        let mut terms = Vec::new();
        for t in analyzer.analyze(text) {
            if !terms.contains(&t) {
                terms.push(t);
            }
        }
        if terms.is_empty() {
            return Err(QbError::Query(format!(
                "query '{text}' has no searchable terms after analysis"
            )));
        }
        Ok(Query { terms, mode })
    }
}

/// One search result.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredDoc {
    /// Document id.
    pub doc_id: u64,
    /// Page name: the posting's own allocation, shared by every hit and
    /// list that names the page.
    pub name: Arc<str>,
    /// Final score (relevance, optionally blended with PageRank).
    pub score: f64,
    /// Version of the page the index entry reflects.
    pub version: u64,
    /// Creator account (for ad revenue attribution).
    pub creator: u64,
}

impl ScoredDoc {
    /// The bytes a byte-budgeted holder of result lists accounts this
    /// document at.
    pub fn bytes(&self) -> usize {
        Self::bytes_named(&self.name)
    }

    /// [`ScoredDoc::bytes`] of a document that would carry `name`.
    pub(crate) fn bytes_named(name: &str) -> usize {
        // doc_id + score + version + creator + the name's heap bytes.
        8 + 8 + 8 + 8 + name.len()
    }
}

/// Evaluate a query against a local index.
///
/// * `rank` — optional static PageRank per doc id, blended into the score
///   with weight `rank_weight`.
/// * `top_k` — number of results to return.
pub fn search(
    index: &InvertedIndex,
    query: &Query,
    scorer: &Bm25,
    rank: Option<&HashMap<u64, f64>>,
    rank_weight: f64,
    top_k: usize,
) -> Vec<ScoredDoc> {
    // Gather posting lists; in AND mode a missing term means no results.
    let mut lists: Vec<(&String, &PostingList)> = Vec::with_capacity(query.terms.len());
    for term in &query.terms {
        match index.postings(term) {
            Some(list) => lists.push((term, list)),
            None => {
                if query.mode == QueryMode::And {
                    return Vec::new();
                }
            }
        }
    }
    if lists.is_empty() {
        return Vec::new();
    }
    // Sum in term order, as the serving kernel does: float addition of
    // three or more terms is not associative, and a permuted query must
    // score bit for bit the same.
    lists.sort_by(|a, b| a.0.cmp(b.0));

    // Candidate set: intersection (AND) or union (OR) of doc ids.
    let candidates: PostingList = match query.mode {
        QueryMode::And => {
            // Intersect smallest-first for speed.
            let mut sorted = lists.clone();
            sorted.sort_by_key(|(_, l)| l.len());
            let mut acc = sorted[0].1.clone();
            for (_, l) in &sorted[1..] {
                acc = acc.intersect(l);
                if acc.is_empty() {
                    return Vec::new();
                }
            }
            acc
        }
        QueryMode::Or => {
            let mut acc = PostingList::default();
            for (_, l) in &lists {
                acc = acc.union(l);
            }
            acc
        }
    };

    let num_docs = index.doc_count();
    let avg_len = index.docs().avg_length();
    let mut scored: Vec<ScoredDoc> = Vec::with_capacity(candidates.len());
    for posting in candidates.postings() {
        let Some(meta) = index.docs().get(posting.doc_id) else {
            continue;
        };
        let mut relevance = 0.0;
        for (term, list) in &lists {
            if let Some(tf) = list.get(posting.doc_id) {
                relevance += scorer.score(tf, meta.length, avg_len, index.doc_freq(term), num_docs);
            }
        }
        let final_score = match rank {
            Some(r) => blend_with_rank(
                relevance,
                r.get(&posting.doc_id).copied().unwrap_or(0.0),
                rank_weight,
            ),
            None => relevance,
        };
        scored.push(ScoredDoc {
            doc_id: posting.doc_id,
            name: meta.name.clone(),
            score: final_score,
            version: meta.version,
            creator: meta.creator,
        });
    }
    scored.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.doc_id.cmp(&b.doc_id))
    });
    scored.truncate(top_k);
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::doc_id_for_name;
    use crate::scorer::Bm25;

    fn build() -> (InvertedIndex, Analyzer) {
        let a = Analyzer::new();
        let mut idx = InvertedIndex::new();
        idx.index_text(
            &a,
            "p/honey",
            1,
            1,
            "honey honey honey bees and nectar production",
        );
        idx.index_text(
            &a,
            "p/bees",
            1,
            2,
            "worker bees maintain the distributed index",
        );
        idx.index_text(
            &a,
            "p/web",
            1,
            3,
            "the decentralized web replaces central servers",
        );
        idx.index_text(
            &a,
            "p/search",
            1,
            4,
            "search the decentralized web with queenbee honey",
        );
        (idx, a)
    }

    #[test]
    fn parse_rejects_empty_queries() {
        let a = Analyzer::new();
        assert!(Query::parse(&a, "the of and", QueryMode::And).is_err());
        assert!(Query::parse(&a, "", QueryMode::And).is_err());
        let q = Query::parse(&a, "Decentralized WEB", QueryMode::And).unwrap();
        assert_eq!(q.terms.len(), 2);
    }

    #[test]
    fn and_query_requires_all_terms() {
        let (idx, a) = build();
        let q = Query::parse(&a, "decentralized web", QueryMode::And).unwrap();
        let results = search(&idx, &q, &Bm25::default(), None, 0.0, 10);
        let names: Vec<&str> = results.iter().map(|r| &*r.name).collect();
        assert_eq!(names.len(), 2);
        assert!(names.contains(&"p/web"));
        assert!(names.contains(&"p/search"));
        // A term missing from the index gives zero results in AND mode.
        let q = Query::parse(&a, "decentralized zebra", QueryMode::And).unwrap();
        assert!(search(&idx, &q, &Bm25::default(), None, 0.0, 10).is_empty());
    }

    #[test]
    fn or_query_unions_terms() {
        let (idx, a) = build();
        let q = Query::parse(&a, "honey zebra", QueryMode::Or).unwrap();
        let results = search(&idx, &q, &Bm25::default(), None, 0.0, 10);
        assert_eq!(results.len(), 2); // p/honey and p/search mention honey
    }

    #[test]
    fn higher_term_frequency_ranks_higher() {
        let (idx, a) = build();
        let q = Query::parse(&a, "honey", QueryMode::And).unwrap();
        let results = search(&idx, &q, &Bm25::default(), None, 0.0, 10);
        assert_eq!(&*results[0].name, "p/honey");
        assert!(results[0].score > results[1].score);
    }

    #[test]
    fn rank_blending_can_reorder_results() {
        let (idx, a) = build();
        let q = Query::parse(&a, "honey", QueryMode::And).unwrap();
        let mut rank = HashMap::new();
        // Give p/search an enormous static rank.
        rank.insert(doc_id_for_name("p/search"), 0.9);
        rank.insert(doc_id_for_name("p/honey"), 0.000001);
        let blended = search(&idx, &q, &Bm25::default(), Some(&rank), 0.9, 10);
        assert_eq!(&*blended[0].name, "p/search");
        let unblended = search(&idx, &q, &Bm25::default(), Some(&rank), 0.0, 10);
        assert_eq!(&*unblended[0].name, "p/honey");
    }

    #[test]
    fn top_k_truncates() {
        let (idx, a) = build();
        let q = Query::parse(
            &a,
            "decentralized web honey bees index search",
            QueryMode::Or,
        )
        .unwrap();
        let results = search(&idx, &q, &Bm25::default(), None, 0.0, 2);
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn results_are_deterministically_ordered() {
        let (idx, a) = build();
        let q = Query::parse(&a, "web", QueryMode::And).unwrap();
        let r1 = search(&idx, &q, &Bm25::default(), None, 0.0, 10);
        let r2 = search(&idx, &q, &Bm25::default(), None, 0.0, 10);
        assert_eq!(r1, r2);
    }
}

//! [`SearchResponse`]: the structured answer to a
//! [`SearchRequest`](crate::query::request::SearchRequest), with a
//! per-stage cost trace and per-term cache provenance.
//! Its terms are the term table's shared text and each hit's name is its
//! posting's `Arc<str>`, so a page of hits allocates one vector, no string.

use qb_chain::{AccountId, AdId};
use qb_common::SimDuration;
use qb_index::ScoredDoc;
use std::sync::Arc;

/// Where one query term's posting data came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TermProvenance {
    /// The whole response was served from the result cache (every term
    /// collapses to this).
    ResultCache,
    /// The term's shard came from the shard tier at the current version.
    ShardCache,
    /// The term was answered by the negative tier (proven absent).
    NegativeCache,
    /// A version-superseded shard served under a `MaxStaleness` bound;
    /// `age` is how long ago the copy was stored.
    StaleCache {
        /// Age of the served copy.
        age: SimDuration,
    },
    /// This query triggered the DHT fetch for the term.
    DhtFetch,
    /// Another query in the same batch window triggered the fetch; this
    /// query reused the shard at zero message cost.
    BatchShared,
}

/// Per-stage cost decomposition of one served query. Network stages carry
/// the simulated latency they contributed; the compute stages (plan and
/// score, which includes blending with PageRank and sorting) run locally
/// and are charged zero simulated time, but report how much work they did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageCosts {
    /// Planning: cache probes and term analysis (local, zero charge).
    pub plan: SimDuration,
    /// Reading the BM25 statistics record (cache-hit latency or one DHT read
    /// shared across the batch window).
    pub stats: SimDuration,
    /// Fetching/serving the term shards — the parallel-window maximum over
    /// this query's terms.
    pub shard_fetch: SimDuration,
    /// Per-link queueing delay inside the slowest dependency's wall time.
    /// Already counted in `shard_fetch` and the response latency; split out
    /// so trace attribution can separate waiting on contended links from
    /// service.
    pub net_queue: SimDuration,
    /// BM25 scoring of the candidate set (local).
    pub score: SimDuration,
    /// RPC attempts this query was charged for (shared fetches are charged
    /// to the query that triggered them).
    pub messages: u64,
    /// Candidate documents scored.
    pub candidates_scored: usize,
}

/// The structured answer to one [`crate::SearchRequest`].
#[derive(Debug, Clone)]
pub struct SearchResponse {
    /// The raw query string.
    pub query: String,
    /// Deduplicated analyzed terms, in query order.
    pub terms: Vec<Arc<str>>,
    /// The requested page of ranked results (best first).
    pub hits: Vec<ScoredDoc>,
    /// Total matches before pagination.
    pub total_matches: usize,
    /// Zero-based page this response covers.
    pub page: usize,
    /// Page size the response was sliced with.
    pub top_k: usize,
    /// Ad displayed next to the results (`None` when no campaign matched or
    /// the request disabled ads).
    pub ad: Option<AdId>,
    /// End-to-end latency experienced by the user.
    pub latency: SimDuration,
    /// Per-stage cost decomposition.
    pub trace: StageCosts,
    /// Cache provenance per term, parallel to `terms`.
    pub provenance: Vec<TermProvenance>,
    /// Worker bee credited for serving the index (receives the ad share).
    pub served_by_bee: AccountId,
}

impl SearchResponse {
    /// True when the whole response came from the result cache.
    pub fn result_cache_hit(&self) -> bool {
        self.provenance
            .iter()
            .all(|p| *p == TermProvenance::ResultCache)
            && !self.provenance.is_empty()
    }

    /// Number of term shards this query fetched through the DHT itself
    /// (shards reused from the batch window are not counted).
    pub fn shards_fetched(&self) -> usize {
        self.count(|p| matches!(p, TermProvenance::DhtFetch))
    }

    /// Terms whose shard came from the shard tier at the current version.
    pub fn shard_cache_hits(&self) -> usize {
        self.count(|p| matches!(p, TermProvenance::ShardCache))
    }

    /// Terms answered by the negative tier.
    pub fn negative_cache_hits(&self) -> usize {
        self.count(|p| matches!(p, TermProvenance::NegativeCache))
    }

    /// Terms served from a version-superseded copy under `MaxStaleness`.
    pub fn stale_served(&self) -> usize {
        self.count(|p| matches!(p, TermProvenance::StaleCache { .. }))
    }

    /// Terms that reused a shard fetched by another query in the batch.
    pub fn batch_shared(&self) -> usize {
        self.count(|p| matches!(p, TermProvenance::BatchShared))
    }

    /// RPC attempts charged to this query.
    pub fn messages(&self) -> u64 {
        self.trace.messages
    }

    fn count(&self, f: impl Fn(&TermProvenance) -> bool) -> usize {
        self.provenance.iter().filter(|p| f(p)).count()
    }
}

pub use qb_index::paginate;

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(i: u64) -> ScoredDoc {
        ScoredDoc {
            doc_id: i,
            name: format!("page/{i}").into(),
            score: 1.0 / (i + 1) as f64,
            version: 1,
            creator: 7,
        }
    }

    #[test]
    fn pagination_slices_without_overlap_or_gaps() {
        let full: Vec<ScoredDoc> = (0..7).map(doc).collect();
        let p0 = paginate(&full, 0, 3);
        let p1 = paginate(&full, 1, 3);
        let p2 = paginate(&full, 2, 3);
        assert_eq!(p0.len(), 3);
        assert_eq!(p1.len(), 3);
        assert_eq!(p2.len(), 1);
        let stitched: Vec<ScoredDoc> = [p0, p1, p2].concat();
        assert_eq!(stitched, full);
        assert!(paginate(&full, 3, 3).is_empty(), "past the end is empty");
        assert!(paginate(&full, usize::MAX, 3).is_empty(), "no overflow");
    }

    #[test]
    fn provenance_counters_partition_the_terms() {
        let resp = SearchResponse {
            query: "q".into(),
            terms: vec!["a".into(), "b".into(), "c".into(), "d".into()],
            hits: vec![],
            total_matches: 0,
            page: 0,
            top_k: 10,
            ad: None,
            latency: SimDuration::ZERO,
            trace: StageCosts::default(),
            provenance: vec![
                TermProvenance::ShardCache,
                TermProvenance::DhtFetch,
                TermProvenance::BatchShared,
                TermProvenance::StaleCache {
                    age: SimDuration::from_secs(3),
                },
            ],
            served_by_bee: AccountId(1),
        };
        assert!(!resp.result_cache_hit());
        assert_eq!(resp.shards_fetched(), 1);
        assert_eq!(resp.shard_cache_hits(), 1);
        assert_eq!(resp.batch_shared(), 1);
        assert_eq!(resp.stale_served(), 1);
        assert_eq!(resp.negative_cache_hits(), 0);
    }
}

//! A YaCy-style peer-to-peer search engine baseline: the index is distributed
//! over peers by term hash, but content is discovered by periodic crawling
//! and there are no incentives and no verification.

use crate::{CrawlDoc, TOP_K};
use qb_common::{Hash256, QbError, QbResult, SimDuration, SimInstant};
use qb_index::{Analyzer, Bm25, InvertedIndex, Query, QueryMode, ScoredDoc};
use qb_simnet::{parallel_latency, SimNet};

/// Number of index peers (peers `0..NUM_PEERS` of the simulated network).
pub const NUM_PEERS: usize = 16;

/// Configuration of the YaCy-style baseline.
#[derive(Debug, Clone)]
pub struct YacyConfig {
    /// How often each peer re-crawls its share of the corpus.
    pub crawl_interval: SimDuration,
}

impl Default for YacyConfig {
    fn default() -> Self {
        YacyConfig {
            crawl_interval: SimDuration::from_secs(3_600),
        }
    }
}

/// The peer-to-peer crawling engine.
#[derive(Debug, Clone)]
pub struct YacyEngine {
    config: YacyConfig,
    analyzer: Analyzer,
    /// Per-peer term-partitioned indexes (peer `i` holds the terms that hash
    /// to it).
    peer_indexes: Vec<InvertedIndex>,
    last_crawl: Option<SimInstant>,
}

impl YacyEngine {
    /// Create the engine with empty indexes.
    pub fn new(config: YacyConfig) -> YacyEngine {
        YacyEngine {
            analyzer: Analyzer::new(),
            peer_indexes: (0..NUM_PEERS).map(|_| InvertedIndex::new()).collect(),
            last_crawl: None,
            config,
        }
    }

    /// Which peer is responsible for a term.
    pub fn peer_for_term(&self, term: &str) -> u64 {
        let [x, ..] = Hash256::digest_parts(&[b"yacy:", term.as_bytes()]).words();
        x % NUM_PEERS as u64
    }

    /// Crawl the corpus: every document is analyzed once and each term's
    /// postings go to the peer responsible for that term.
    pub fn crawl(&mut self, docs: &[CrawlDoc], now: SimInstant) {
        for d in docs {
            let tf = self.analyzer.term_frequencies(&d.text);
            // Group terms by responsible peer and index the document there
            // with only that peer's terms.
            let mut by_peer: std::collections::HashMap<u64, Vec<(String, u32)>> =
                std::collections::HashMap::new();
            for (term, freq) in tf {
                by_peer
                    .entry(self.peer_for_term(&term))
                    .or_default()
                    .push((term, freq));
            }
            for (peer, terms) in by_peer {
                self.peer_indexes[peer as usize]
                    .index_document(&d.name, d.version, d.creator, &terms);
            }
        }
        self.last_crawl = Some(now);
    }

    /// Crawl only when the interval has elapsed. Returns true when crawled.
    pub fn maybe_crawl(&mut self, docs: &[CrawlDoc], now: SimInstant) -> bool {
        let due = match self.last_crawl {
            None => true,
            Some(t) => now.since(t) >= self.config.crawl_interval,
        };
        if due {
            self.crawl(docs, now);
        }
        due
    }

    /// Answer a query from `client`: one RPC per query term to the peer
    /// responsible for that term (charged on the simulated network, so
    /// offline peers make their terms unavailable), then merge and score.
    pub fn search(
        &self,
        net: &mut SimNet,
        client: u64,
        query_text: &str,
    ) -> QbResult<(Vec<ScoredDoc>, SimDuration, u64)> {
        let query = Query::parse(&self.analyzer, query_text, QueryMode::And)?;
        let mut latencies = Vec::new();
        let mut messages = 0u64;
        // Collect per-term candidate documents from the responsible peers.
        let mut per_term: Vec<(String, u64, &InvertedIndex)> = Vec::new();
        for term in &query.terms {
            let peer = self.peer_for_term(term);
            messages += 1;
            let (res, lat) = net.rpc_or_timeout(client, peer, 64, 4096);
            latencies.push(lat);
            if res.is_err() {
                // Term unavailable: conjunctive query cannot be answered.
                return Err(QbError::Network(format!(
                    "index peer {peer} for term '{term}' unreachable"
                )));
            }
            per_term.push((term.clone(), peer, &self.peer_indexes[peer as usize]));
        }
        // Intersect doc ids across terms.
        let mut candidate_ids: Option<Vec<u64>> = None;
        for (term, _, index) in &per_term {
            let ids: Vec<u64> = index
                .postings(term)
                .map(|l| l.postings().iter().map(|p| p.doc_id).collect())
                .unwrap_or_default();
            candidate_ids = Some(match candidate_ids {
                None => ids,
                Some(prev) => prev.into_iter().filter(|d| ids.contains(d)).collect(),
            });
        }
        let candidate_ids = candidate_ids.unwrap_or_default();
        // Score: sum BM25 contributions from each term's home peer.
        let scorer = Bm25::default();
        let mut results: Vec<ScoredDoc> = Vec::new();
        for doc in candidate_ids {
            let mut score = 0.0;
            let mut meta: Option<(&str, u64, u64)> = None;
            for (term, _, index) in &per_term {
                if let (Some(list), Some(m)) = (index.postings(term), index.docs().get(doc)) {
                    if let Some(tf) = list.get(doc) {
                        score += scorer.score(
                            tf,
                            m.length,
                            index.docs().avg_length(),
                            list.len(),
                            index.doc_count().max(1),
                        );
                        meta = Some((&m.name, m.version, m.creator));
                    }
                }
            }
            if let Some((name, version, creator)) = meta {
                results.push(ScoredDoc {
                    doc_id: doc,
                    name: name.into(),
                    score,
                    version,
                    creator,
                });
            }
        }
        results.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.doc_id.cmp(&b.doc_id))
        });
        results.truncate(TOP_K);
        Ok((results, parallel_latency(&latencies), messages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_simnet::NetConfig;

    fn docs() -> Vec<CrawlDoc> {
        vec![
            CrawlDoc {
                name: "p/one".into(),
                version: 1,
                creator: 1,
                text: "peer to peer crawling search engine".into(),
            },
            CrawlDoc {
                name: "p/two".into(),
                version: 1,
                creator: 2,
                text: "decentralized web without crawling".into(),
            },
        ]
    }

    fn setup() -> (SimNet, YacyEngine) {
        let net = SimNet::new(32, NetConfig::lan(), 1);
        let engine = YacyEngine::new(YacyConfig::default());
        (net, engine)
    }

    #[test]
    fn crawl_then_search_finds_documents() {
        let (mut net, mut e) = setup();
        e.crawl(&docs(), SimInstant::ZERO);
        let (results, latency, messages) = e.search(&mut net, 20, "crawling").unwrap();
        assert_eq!(results.len(), 2);
        assert!(latency.as_micros() > 0);
        assert!(messages >= 1);
        let (results, _, _) = e.search(&mut net, 20, "decentralized web").unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(&*results[0].name, "p/two");
    }

    #[test]
    fn term_partitioning_is_deterministic_and_spread() {
        let (_, e) = setup();
        assert_eq!(e.peer_for_term("honey"), e.peer_for_term("honey"));
        let peers: std::collections::HashSet<u64> = (0..200)
            .map(|i| e.peer_for_term(&format!("term{i}")))
            .collect();
        assert!(peers.len() > 4, "terms should spread over peers");
        assert!(peers.iter().all(|&p| p < NUM_PEERS as u64));
    }

    #[test]
    fn offline_index_peer_makes_terms_unavailable() {
        let (mut net, mut e) = setup();
        e.crawl(&docs(), SimInstant::ZERO);
        let peer = e.peer_for_term(&Analyzer::stem("crawling"));
        net.set_online(peer, false);
        assert!(e.search(&mut net, 20, "crawling").is_err());
    }

    #[test]
    fn maybe_crawl_respects_interval_and_staleness_shows() {
        let (mut net, mut e) = setup();
        assert!(e.maybe_crawl(&docs(), SimInstant::ZERO));
        // The corpus updates, but the next crawl is not due yet.
        let mut updated = docs();
        updated[1].version = 2;
        updated[1].text = "decentralized web without crawling freshterm".into();
        assert!(!e.maybe_crawl(&updated, SimInstant::ZERO + SimDuration::from_secs(10)));
        let (results, _, _) = e.search(&mut net, 20, "decentralized").unwrap();
        assert_eq!(results[0].version, 1, "still serving the stale version");
        // After the interval the crawler picks up version 2.
        assert!(e.maybe_crawl(&updated, SimInstant::ZERO + SimDuration::from_secs(7200)));
        let (results, _, _) = e.search(&mut net, 20, "freshterm").unwrap();
        assert_eq!(results[0].version, 2);
    }
}

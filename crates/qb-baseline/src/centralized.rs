//! The centralized ("Web 2.0") search engine baseline.

use crate::{CrawlDoc, TOP_K};
use qb_common::{QbError, QbResult, SimDuration, SimInstant};
use qb_index::{search, Analyzer, Bm25, InvertedIndex, Query, QueryMode, ScoredDoc};

/// Request service latency (network + processing) of an idle server.
pub const BASE_LATENCY: SimDuration = SimDuration::from_millis(60);

/// Maximum sustainable queries per second.
pub const CAPACITY_QPS: f64 = 200.0;

/// Configuration of the centralized baseline.
#[derive(Debug, Clone)]
pub struct CentralizedConfig {
    /// How often the crawler re-crawls the whole corpus.
    pub crawl_interval: SimDuration,
}

impl Default for CentralizedConfig {
    fn default() -> Self {
        CentralizedConfig {
            crawl_interval: SimDuration::from_secs(3_600),
        }
    }
}

/// A single-server search engine with a crawler-fed index, finite capacity
/// and a single point of failure.
#[derive(Debug, Clone)]
pub struct CentralizedEngine {
    config: CentralizedConfig,
    analyzer: Analyzer,
    index: InvertedIndex,
    last_crawl: Option<SimInstant>,
    /// Whether the server (or its network zone) is reachable.
    pub online: bool,
    /// Extra query load (e.g. a DDoS flood) in queries per second, added on
    /// top of legitimate load when computing queueing delay and overload.
    pub attack_load_qps: f64,
}

impl CentralizedEngine {
    /// Create an engine with an empty index.
    pub fn new(config: CentralizedConfig) -> CentralizedEngine {
        CentralizedEngine {
            config,
            analyzer: Analyzer::new(),
            index: InvertedIndex::new(),
            last_crawl: None,
            online: true,
            attack_load_qps: 0.0,
        }
    }

    /// Re-crawl the whole corpus: the index now reflects the versions passed
    /// in. (A real crawler discovers changes page by page; a full re-crawl at
    /// the interval boundary is the *optimistic* model for the baseline —
    /// its freshness can only be worse in practice.)
    pub fn crawl(&mut self, docs: &[CrawlDoc], now: SimInstant) {
        for d in docs {
            self.index
                .index_text(&self.analyzer, &d.name, d.version, d.creator, &d.text);
        }
        self.last_crawl = Some(now);
    }

    /// Crawl only if the crawl interval has elapsed since the last crawl.
    /// Returns true when a crawl happened.
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

    /// Serve a query under `offered_load_qps` legitimate load (plus any
    /// configured attack load). Fails when the server is offline/unreachable
    /// or the total load exceeds capacity; otherwise the latency grows with
    /// utilisation (M/M/1-style 1/(1-ρ) factor).
    pub fn search(
        &self,
        query_text: &str,
        offered_load_qps: f64,
    ) -> QbResult<(Vec<ScoredDoc>, SimDuration)> {
        if !self.online {
            return Err(QbError::Network("central server unreachable".into()));
        }
        let total_load = offered_load_qps + self.attack_load_qps;
        if total_load >= CAPACITY_QPS {
            return Err(QbError::Network(format!(
                "central server overloaded: {total_load:.0} qps offered, capacity {CAPACITY_QPS:.0} qps"
            )));
        }
        let query = Query::parse(&self.analyzer, query_text, QueryMode::And)?;
        let results = search(&self.index, &query, &Bm25::default(), None, 0.0, TOP_K);
        let utilization = (total_load / CAPACITY_QPS).min(0.99);
        let latency_us = BASE_LATENCY.as_micros() as f64 / (1.0 - utilization).max(0.01);
        Ok((results, SimDuration::from_micros(latency_us as u64)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs() -> Vec<CrawlDoc> {
        vec![
            CrawlDoc {
                name: "a".into(),
                version: 1,
                creator: 1,
                text: "decentralized web search".into(),
            },
            CrawlDoc {
                name: "b".into(),
                version: 1,
                creator: 2,
                text: "centralized server farm".into(),
            },
        ]
    }

    #[test]
    fn crawl_then_search() {
        let mut e = CentralizedEngine::new(CentralizedConfig::default());
        assert_eq!(e.index.doc_count(), 0);
        e.crawl(&docs(), SimInstant::ZERO);
        assert_eq!(e.index.doc_count(), 2);
        let (results, latency) = e.search("decentralized", 10.0).unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(&*results[0].name, "a");
        assert!(latency >= BASE_LATENCY);
    }

    #[test]
    fn maybe_crawl_respects_interval() {
        let mut e = CentralizedEngine::new(CentralizedConfig {
            crawl_interval: SimDuration::from_secs(100),
        });
        assert!(e.maybe_crawl(&docs(), SimInstant::ZERO));
        assert!(!e.maybe_crawl(&docs(), SimInstant::ZERO + SimDuration::from_secs(50)));
        assert!(e.maybe_crawl(&docs(), SimInstant::ZERO + SimDuration::from_secs(150)));
    }

    #[test]
    fn stale_until_next_crawl() {
        let mut e = CentralizedEngine::new(CentralizedConfig::default());
        e.crawl(&docs(), SimInstant::ZERO);
        // The corpus moves on to version 2, but the index still has version 1.
        let (results, _) = e.search("decentralized", 1.0).unwrap();
        assert_eq!(results[0].version, 1);
        let mut updated = docs();
        updated[0].version = 2;
        updated[0].text = "decentralized web search refreshed".into();
        e.crawl(&updated, SimInstant::ZERO + SimDuration::from_secs(3600));
        let (results, _) = e.search("decentralized", 1.0).unwrap();
        assert_eq!(results[0].version, 2);
    }

    #[test]
    fn latency_grows_with_load_and_overload_fails() {
        let mut e = CentralizedEngine::new(CentralizedConfig::default());
        e.crawl(&docs(), SimInstant::ZERO);
        let (_, idle) = e.search("web", 1.0).unwrap();
        let (_, busy) = e.search("web", 180.0).unwrap();
        assert!(busy > idle);
        assert!(e.search("web", 500.0).is_err());
        // DDoS: attack load pushes legitimate users into overload.
        e.attack_load_qps = 1_000.0;
        let err = e.search("web", 1.0).unwrap_err();
        assert!(err.is_availability());
    }

    #[test]
    fn offline_server_serves_nothing() {
        let mut e = CentralizedEngine::new(CentralizedConfig::default());
        e.crawl(&docs(), SimInstant::ZERO);
        e.online = false;
        assert!(e.search("web", 1.0).is_err());
    }
}

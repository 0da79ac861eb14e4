//! The operation chain seam: when [`QueenBee::set_op_chain`] turned it on,
//! each query at its response, each publish event an indexing pass
//! handled and each gossip round folds its simulated outcome, and the
//! traffic the network carried since the operation before, into a
//! [`qb_trace::OpChain`]. Two runs of one scenario then name the first
//! operation at which they part. Nothing simulated reads the chain.

use super::QueenBee;
use crate::query::SearchResponse;
use qb_common::SimInstant;
use qb_gossip::GossipStats;
use qb_simnet::SimNet;
use qb_trace::{OpChain, OpKind};

impl QueenBee {
    /// Turn the operation chain on, empty, or off. Off by default.
    pub fn set_op_chain(&mut self, on: bool) {
        self.op_chain = on.then(OpChain::new);
    }

    /// The operation chain, when on.
    pub fn op_chain(&self) -> Option<&OpChain> {
        self.op_chain.as_ref()
    }

    /// A query's link, at the instant its window completed: its latency,
    /// how many documents matched, and each hit's id, version and score.
    pub(super) fn chain_query(&mut self, response: &SearchResponse, at: SimInstant) {
        let Some(chain) = self.op_chain.as_mut() else {
            return;
        };
        let hits = response
            .hits
            .iter()
            .flat_map(|hit| [hit.doc_id, hit.version, hit.score.to_bits()]);
        let head = [response.latency.as_micros(), response.total_matches as u64];
        let traffic = self.net.stats().counters();
        chain.push(OpKind::Query, at, head.into_iter().chain(hits), &traffic);
    }

    /// A publish event's link: the page's doc id and version, then what
    /// indexing it did (postings accepted, bees flagged, dropped terms) —
    /// `None` when its page could not be fetched.
    pub(super) fn chain_publish_event(&mut self, name: &str, version: u64, done: Option<[u64; 3]>) {
        let Some(chain) = self.op_chain.as_mut() else {
            return;
        };
        let page = [
            qb_index::doc_id_for_name(name),
            version,
            u64::from(done.is_some()),
        ];
        let outcome = page.into_iter().chain(done.into_iter().flatten());
        let traffic = self.net.stats().counters();
        chain.push(OpKind::PublishEvent, self.net.now(), outcome, &traffic);
    }
}

/// A gossip round's link, at `now`: whether it was anti-entropy, and the
/// fleet's simulated exchange and fill counters after it.
pub(super) fn chain_gossip_round(
    chain: &mut Option<OpChain>,
    net: &SimNet,
    now: SimInstant,
    anti_entropy: bool,
    stats: &GossipStats,
) {
    let Some(chain) = chain.as_mut() else {
        return;
    };
    let outcome = [
        u64::from(anti_entropy),
        stats.exchanges,
        stats.failed_exchanges,
        stats.failed_fills,
        stats.shards_pushed,
        stats.shards_accepted,
        stats.stale_rejected,
        stats.duplicates_skipped,
        stats.admission_refused,
        stats.evictions,
        stats.revivals,
    ];
    chain.push(OpKind::GossipRound, now, outcome, &net.stats().counters());
}

#[cfg(test)]
mod tests {
    use crate::config::QueenBeeConfig;
    use crate::engine::tests::page;
    use crate::engine::QueenBee;
    use crate::query::SearchRequest;
    use qb_chain::AccountId;
    use qb_common::SimDuration;
    use qb_trace::OpKind;

    /// A two-frontend fleet with gossip and segments: every kind of
    /// operation runs. Publishes a few pages, indexes them, then serves
    /// `queries` with a gossip interval between each.
    fn run(chain: bool, queries: &[&str]) -> QueenBee {
        let mut config = QueenBeeConfig::small();
        config.cache = qb_cache::CacheConfig::enabled();
        config.gossip = qb_gossip::GossipConfig::enabled(2);
        config.segment = qb_segment::SegmentConfig::enabled();
        config.segment.max_pending_terms = 4;
        let mut qb = QueenBee::new(config).unwrap();
        qb.set_op_chain(chain);
        let bodies = [
            "rust systems programming language",
            "decentralized search engine over the dweb",
            "rust search engines index the web",
        ];
        for (i, body) in bodies.iter().enumerate() {
            let name = format!("wiki/page{i}");
            qb.publish(10 + i as u64, AccountId(1_000), &page(&name, body, vec![]))
                .unwrap();
        }
        qb.seal();
        qb.process_publish_events().unwrap();
        for query in queries {
            qb.advance_time(qb_gossip::config::ROUND_INTERVAL);
            qb.search_request(SearchRequest::new(*query)).unwrap();
        }
        qb.advance_time(SimDuration::from_millis(1));
        qb
    }

    const QUERIES: [&str; 4] = ["rust", "search engine", "dweb", "rust web"];

    #[test]
    fn identically_seeded_runs_give_equal_chains_over_every_kind() {
        let (a, b) = (run(true, &QUERIES), run(true, &QUERIES));
        let (a, b) = (a.op_chain().unwrap(), b.op_chain().unwrap());
        assert_eq!(a.links(), b.links());
        assert_eq!(a.first_divergence(b), None);
        for kind in [OpKind::Query, OpKind::PublishEvent, OpKind::GossipRound] {
            assert!(a.links().iter().any(|l| l.kind == kind), "no {kind:?}");
        }
        let queries = a.links().iter().filter(|l| l.kind == OpKind::Query);
        assert_eq!(queries.count(), QUERIES.len());
    }

    /// Keeping the chain simulates nothing: a chain-on run serves, counts
    /// and charges what the chain-off run does, byte for byte.
    #[test]
    fn the_chain_moves_nothing_simulated() {
        let (on, off) = (run(true, &QUERIES), run(false, &QUERIES));
        assert!(off.op_chain().is_none());
        assert_eq!(on.net.stats(), off.net.stats());
        assert_eq!(on.net.now(), off.net.now());
        assert_eq!(on.gossip_stats(), off.gossip_stats());
        assert_eq!(on.segment_stats(), off.segment_stats());
        let served = |mut qb: QueenBee| {
            let response = qb
                .search_request(SearchRequest::new("rust search"))
                .unwrap();
            format!("{:?} {:?}", response.hits, response.latency)
        };
        assert_eq!(served(on), served(off));
    }

    #[test]
    fn runs_that_differ_in_one_query_part_at_that_query() {
        let mut other = QUERIES;
        other[2] = "systems";
        let (a, b) = (run(true, &QUERIES), run(true, &other));
        let (a, b) = (a.op_chain().unwrap(), b.op_chain().unwrap());
        let third_query = a
            .links()
            .iter()
            .enumerate()
            .filter(|(_, l)| l.kind == OpKind::Query)
            .nth(2)
            .map(|(at, _)| at);
        assert_eq!(a.first_divergence(b), third_query);
        assert!(third_query.is_some_and(|at| a.links()[..at] == b.links()[..at]));
    }
}

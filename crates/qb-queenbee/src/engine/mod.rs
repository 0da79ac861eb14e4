//! The QueenBee engine: orchestration of publish, indexing, ranking, search,
//! ads and incentives over the simulated DWeb.
//!
//! One [`QueenBee`] holds the whole deployment; its methods are grouped by
//! seam, one `impl` block per file:
//!
//! * this file — construction, the simulated clock, tracing and metrics;
//! * `publish` — publishing, the worker bees' indexing of publish events,
//!   writer-side segment compaction;
//! * `rank` — the decentralized PageRank round;
//! * `windows` — the one window loop every query runs through, and the
//!   window and read records it drives (its module doc describes the loop);
//! * `serve` — the two closed-loop entry points (`search_request`, one
//!   one-query window, and `search_pipelined`, any window size and depth),
//!   routing, and serving one plan of a retiring window;
//! * `open_loop` — `serve_open_loop`, admission control in front of the
//!   window loop;
//! * `fleet` — frontend join/leave/rejoin, gossip rounds, hot-set
//!   persistence;
//! * `economy` — bees and their behaviour, advertisers, ad clicks, honey;
//! * `chain` — the operation chain, when on: each query, publish event and
//!   gossip round folded into a running hash.
//!
//! The unit tests drive whole scenarios (publish, index, rank, serve)
//! across those seams and sit together at the bottom of this file; the
//! window loop's, which reach its private records, sit at the bottom of
//! `windows.rs`.

mod chain;
mod economy;
mod fleet;
mod open_loop;
mod publish;
mod rank;
mod serve;
mod windows;

pub use publish::PublishReport;

use crate::bee::WorkerBee;
use crate::config::{QueenBeeConfig, BEE_STAKE};
use crate::defense::MinHashSignature;
use crate::metrics::{FreshnessProbe, QueryEngineStats};
use crate::query::terms::{TermId, TermTable};
use qb_cache::{CacheMetrics, QueryCache};
use qb_chain::{AccountId, Blockchain, Call};
use qb_common::{QbResult, SimDuration, SimInstant};
use qb_dht::DhtNetwork;
use qb_gossip::{GossipConfig, GossipFleet};
use qb_index::{Analyzer, DistributedIndex, Impacts, IndexStats, ShardViews};
use qb_segment::{Segment, SegmentRef, SegmentStats};
use qb_simnet::SimNet;
use qb_storage::StorageNetwork;
use qb_trace::OpChain;
use std::collections::{BTreeSet, HashMap};

/// The assembled QueenBee deployment (Figure 1 of the paper).
pub struct QueenBee {
    config: QueenBeeConfig,
    /// The simulated network of peer devices.
    pub net: SimNet,
    /// The Kademlia DHT overlay.
    pub dht: DhtNetwork,
    /// Content-addressed decentralized storage.
    pub storage: StorageNetwork,
    /// The blockchain with the QueenBee contracts.
    pub chain: Blockchain,
    dist_index: DistributedIndex,
    /// Every shard some holder still has, keyed by the record it was read
    /// from (or written as): a read that finds such a record shares the
    /// holder's handle instead of decoding the record again.
    shard_views: ShardViews,
    /// The per-posting BM25 scores and rank components of every shard the
    /// serving path scored again under the same statistics and rank round,
    /// keyed like the views by the shard's address.
    impacts: Impacts,
    analyzer: Analyzer,
    bees: Vec<WorkerBee>,
    event_cursor: usize,
    index_stats: IndexStats,
    /// Every term the engine met, each with the highest shard version this
    /// engine has written for it and its gossip key. DHT reads can return a
    /// stale local replica; taking the max with a term's counter keeps
    /// shard versions monotonic so replicas never reject a newer write.
    /// Plans, window reads and page term lists name terms by their ids
    /// here; every fleet call takes a term's key from its row.
    terms: TermTable,
    /// Each indexed page's length and its term counts (the analyzer's, in
    /// term text order): the length leaves the collection statistics when
    /// the page is re-indexed, and the terms let a new page version remove
    /// the document from shards of terms it no longer contains (otherwise
    /// dropped terms would keep serving stale versions of the page forever).
    indexed_pages: HashMap<String, (u32, Vec<(TermId, u32)>)>,
    /// The page being indexed's term counts, by id in term text order
    /// ([`TermTable::count_analyzed`]): the publish path's list, reused
    /// across pages.
    page_counts: Vec<(TermId, u32)>,
    /// The terms a re-indexed page dropped, reused across pages.
    dropped_terms: Vec<TermId>,
    /// Every page's rank and rank component, by doc id.
    ranks: rank::Ranks,
    rank_round: u64,
    signatures: HashMap<String, (u64, MinHashSignature)>,
    known_creators: BTreeSet<AccountId>,
    known_advertisers: BTreeSet<AccountId>,
    query_counter: u64,
    /// The query frontends, each with its private serving cache, and the
    /// cache-gossip overlay between them, whenever the cache is on:
    /// `config.gossip.num_frontends` of them, or one on peer 0 when that is
    /// 0 (a lone cached engine is a fleet of one). `None` with the cache
    /// off: every query then reads the index from its origin peer.
    fleet: Option<GossipFleet>,
    /// Shard cache for the indexing (writer) path, present whenever the
    /// query cache is enabled. Kept separate from the frontend cache(s) so
    /// indexing reuse never pre-warms (and thus skews) the serving-side
    /// cold-start behavior the experiments measure.
    writer_cache: Option<QueryCache>,
    /// Shards written since the last artifact publish — the pending
    /// segment a writer compaction folds into the published artifact
    /// (segment compaction enabled only; stays empty otherwise).
    pending_segment: Segment,
    /// Full content of the last published artifact, kept so compaction
    /// merges the pending shards into it instead of re-reading the
    /// distributed index.
    published_segment: Segment,
    /// Pointer to the last published artifact (generation source).
    published_segment_ref: Option<SegmentRef>,
    /// Segment-subsystem counters (publishes, fetches, imports).
    segment_stats: SegmentStats,
    /// The next peer a joining frontend runs on ([`QueenBee::fleet_join`]):
    /// initial frontends occupy the lowest peer ids and bees the highest,
    /// so the ordinary user devices in between host late joiners.
    join_peer_cursor: u64,
    /// Shard reads issued by the indexing path (cache hits + DHT reads).
    writer_shard_reads: u64,
    /// Writer-path shard reads served from cache without touching the DHT.
    writer_shard_cache_hits: u64,
    /// Engine-lifetime counters of the query-serving path.
    query_stats: QueryEngineStats,
    /// The window loop's buffers, reused across runs.
    windows: windows::Windows,
    /// Freshness accounting across every search served.
    pub freshness: FreshnessProbe,
    /// The operation chain, when on ([`QueenBee::set_op_chain`]).
    op_chain: Option<OpChain>,
}

impl QueenBee {
    /// Build a QueenBee deployment: the peer network, the DHT overlay, the
    /// storage layer, the blockchain, and the worker bees (which deposit
    /// their stake on-chain immediately).
    pub fn new(config: QueenBeeConfig) -> QbResult<QueenBee> {
        config.validate()?;
        let mut net = SimNet::new(config.num_peers, config.net.clone(), config.seed);
        let dht = DhtNetwork::build(&mut net, config.dht.clone());
        let storage = StorageNetwork::new(config.num_peers, config.storage.clone());
        let mut chain = Blockchain::new();

        // Worker bees live on the last `num_bees` peers so that publisher and
        // frontend traffic uses different devices.
        let mut bees = Vec::with_capacity(config.num_bees);
        for i in 0..config.num_bees {
            let peer = (config.num_peers - config.num_bees + i) as u64;
            let account = AccountId(2_000 + i as u64);
            chain.fund_from_treasury(account, BEE_STAKE)?;
            chain.submit_call(account, Call::DepositStake { amount: BEE_STAKE });
            bees.push(WorkerBee::new(peer, account));
        }
        chain.seal_block(net.now());
        chain.reward_pool_mut().max_index_claims = config.index_quorum.max(1);

        let dist_index = DistributedIndex {
            inline_threshold: config.shard_inline_threshold,
        };
        Ok(QueenBee {
            analyzer: Analyzer::new(),
            dist_index,
            shard_views: ShardViews::default(),
            impacts: Impacts::new(),
            bees,
            event_cursor: chain.events().len(),
            index_stats: IndexStats::default(),
            terms: TermTable::default(),
            indexed_pages: HashMap::new(),
            page_counts: Vec::new(),
            dropped_terms: Vec::new(),
            ranks: rank::Ranks::default(),
            rank_round: 0,
            signatures: HashMap::new(),
            known_creators: BTreeSet::new(),
            known_advertisers: BTreeSet::new(),
            query_counter: 0,
            fleet: config.cache.enabled.then(|| {
                let gossip = GossipConfig {
                    num_frontends: config.frontends(),
                    ..config.gossip.clone()
                };
                GossipFleet::new(gossip, &config.cache, config.seed)
            }),
            writer_cache: config
                .cache
                .enabled
                .then(|| QueryCache::new(config.cache.clone())),
            pending_segment: Segment::new(),
            published_segment: Segment::new(),
            published_segment_ref: None,
            segment_stats: SegmentStats::default(),
            join_peer_cursor: config.frontends() as u64,
            writer_shard_reads: 0,
            writer_shard_cache_hits: 0,
            query_stats: QueryEngineStats::default(),
            windows: windows::Windows::default(),
            freshness: FreshnessProbe::default(),
            op_chain: None,
            net,
            dht,
            storage,
            chain,
            config,
        })
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> &QueenBeeConfig {
        &self.config
    }

    /// Per-tier counters of the query-serving caches, summed over every
    /// frontend, when the cache is enabled.
    pub fn cache_metrics(&self) -> Option<CacheMetrics> {
        let fleet = self.fleet.as_ref()?;
        let mut total = CacheMetrics::default();
        for i in 0..fleet.len() {
            total.merge(&fleet.frontend(i).cache().metrics());
        }
        Some(total)
    }

    /// Switch the engine-wide structured tracer on or off. Tracing is off
    /// by default; while off every span-recording site is a no-op (detail
    /// closures never run) and the simulation is byte-identical to an
    /// untraced run.
    pub fn set_tracing(&mut self, on: bool) {
        self.net.set_tracing(on);
    }

    /// Whether the structured tracer is currently recording.
    pub fn tracing_enabled(&self) -> bool {
        self.net.tracing_enabled()
    }

    /// Drain everything the tracer recorded so far into a
    /// [`qb_trace::Trace`] (span ids restart at 1, so identically-seeded
    /// measurements produce identical traces).
    pub fn take_trace(&mut self) -> qb_trace::Trace {
        self.net.take_trace()
    }

    /// One unified snapshot over the engine's stats surfaces: network
    /// counters, per-tier cache counters, gossip counters and query-engine
    /// counters, all behind [`qb_trace::MetricsSnapshot`]'s named-counter
    /// interface. Load reports are produced per [`QueenBee::serve_open_loop`]
    /// run, so callers fold those in themselves via
    /// [`qb_trace::MetricsSnapshot::collect`].
    pub fn metrics_snapshot(&self) -> qb_trace::MetricsSnapshot {
        let stats = self.net.stats().clone();
        let cache = self.cache_metrics().map(crate::metrics::CacheReport);
        let gossip = self.gossip_stats();
        let query = self.query_stats();
        let mut sources: Vec<&dyn qb_trace::MetricsSource> = vec![&stats, &query];
        if let Some(cache) = &cache {
            sources.push(cache);
        }
        if let Some(gossip) = &gossip {
            sources.push(gossip);
        }
        if self.config.segment.enabled {
            sources.push(&self.segment_stats);
        }
        qb_trace::MetricsSnapshot::collect(&sources)
    }

    /// `(reads, cache hits)` of the indexing path's shard reads — the
    /// writer-path cache reuse that spares `process_publish_events` a DHT
    /// round-trip per merged term.
    pub fn writer_cache_stats(&self) -> (u64, u64) {
        (self.writer_shard_reads, self.writer_shard_cache_hits)
    }

    /// Engine-lifetime counters of the query-serving path: intersect/score
    /// computations, scored lists built and pipelined window/query totals.
    pub fn query_stats(&self) -> QueryEngineStats {
        self.query_stats
    }

    /// Advance the simulated clock. Gossip rounds that became due fire
    /// before anything else observes the new time.
    pub fn advance_time(&mut self, d: SimDuration) {
        self.net.advance(d);
        self.run_due_gossip();
    }

    /// Advance the simulated clock to `at` (no-op when `at` is not in the
    /// future). The open-loop admission layer moves the clock to each
    /// dispatch instant with this, so gossip rounds fire on the arrival
    /// timeline rather than in one burst at the end of a replay.
    pub fn advance_time_to(&mut self, at: SimInstant) {
        self.net.advance_to(at);
        self.run_due_gossip();
    }

    /// Seal the next block on the chain.
    pub fn seal(&mut self) {
        self.chain.seal_block(self.net.now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attacks::{CollusionAttack, ScraperAttack};
    use crate::query::admission::TimedRequest;
    use crate::query::pipeline::PipelineConfig;
    use crate::query::request::{Freshness, RoutingPolicy, SearchRequest};
    use crate::query::response::{SearchResponse, TermProvenance};
    use qb_common::QbError;
    use qb_dweb::WebPage;
    use qb_index::ShardEntry;
    use qb_workload::AdSpec;
    use std::sync::Arc;

    pub(super) fn page(name: &str, body: &str, links: Vec<String>) -> WebPage {
        WebPage::new(name, format!("Title {name}"), body, links)
    }

    fn engine() -> QueenBee {
        QueenBee::new(QueenBeeConfig::small()).unwrap()
    }

    pub(super) fn from_peer(peer: u64, query: &str) -> SearchRequest {
        SearchRequest::new(query).route(RoutingPolicy::HashPeer(peer))
    }

    fn at_frontend(frontend: usize, query: &str) -> SearchRequest {
        SearchRequest::new(query).route(RoutingPolicy::Direct(frontend))
    }

    #[test]
    fn a_page_published_without_a_seal_is_indexed_by_the_next_batch() {
        let mut qb = engine();
        qb.publish(
            1,
            AccountId(1_000),
            &page("wiki/late", "unsealed meadow clover", vec![]),
        )
        .unwrap();
        // Nothing is sealed yet, so the batch finds nothing; its closing
        // seal applies the queued publish and logs the event.
        assert_eq!(qb.process_publish_events().unwrap(), 0);
        assert_eq!(
            qb.chain
                .publish_registry()
                .get("wiki/late")
                .map(|r| r.version),
            Some(1)
        );
        assert_eq!(qb.process_publish_events().unwrap(), 1);
        let out = qb.search_request(from_peer(5, "clover")).unwrap();
        assert_eq!(out.hits.len(), 1);
        assert_eq!(&*out.hits[0].name, "wiki/late");
    }

    #[test]
    fn publish_index_search_round_trip() {
        let mut qb = engine();
        let creator = AccountId(1_000);
        qb.publish(
            1,
            creator,
            &page(
                "wiki/dweb",
                "the decentralized web is served by peer devices",
                vec![],
            ),
        )
        .unwrap();
        qb.publish(
            2,
            AccountId(1_001),
            &page(
                "wiki/bees",
                "worker bees earn honey for indexing pages",
                vec!["wiki/dweb".into()],
            ),
        )
        .unwrap();
        qb.seal();
        let handled = qb.process_publish_events().unwrap();
        assert_eq!(handled, 2);
        let out = qb
            .search_request(from_peer(5, "decentralized peer"))
            .unwrap();
        assert!(!out.hits.is_empty());
        assert_eq!(&*out.hits[0].name, "wiki/dweb");
        assert!(out.latency.as_micros() > 0);
        assert!(out.messages() > 0);
        // Bees were rewarded for indexing.
        let bee_balance: u64 = qb.bee_accounts().iter().map(|a| qb.chain.balance(*a)).sum();
        assert!(bee_balance > 0);
        // The creator got the publish reward.
        assert!(qb.chain.balance(creator) >= qb_chain::PUBLISH_REWARD);
    }

    #[test]
    fn updates_are_searchable_immediately_after_processing() {
        let mut qb = engine();
        let creator = AccountId(1_000);
        qb.publish(
            1,
            creator,
            &page("news/today", "old stale headline about yesterday", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        // Update the page with a brand-new term.
        qb.publish(
            1,
            creator,
            &page(
                "news/today",
                "breaking exclusive zebrastampede coverage",
                vec![],
            ),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        let out = qb.search_request(from_peer(3, "zebrastampede")).unwrap();
        assert_eq!(out.hits.len(), 1);
        assert_eq!(out.hits[0].version, 2);
        assert_eq!(qb.freshness.staleness_rate(), 0.0);
    }

    #[test]
    fn empty_query_is_rejected() {
        let mut qb = engine();
        assert!(matches!(
            qb.search_request(from_peer(0, "the of and")),
            Err(QbError::Query(_))
        ));
    }

    #[test]
    fn scraper_mirror_is_rejected_by_duplicate_detection() {
        let mut qb = engine();
        let victim = page(
            "blog/popular",
            &(0..150)
                .map(|i| format!("organicword{} ", i % 40))
                .collect::<String>(),
            vec![],
        );
        qb.publish(1, AccountId(1_000), &victim).unwrap();
        qb.seal();
        let attack = ScraperAttack::new(6_666, 1);
        let reports = qb
            .run_scraper_attack(&attack, std::slice::from_ref(&victim))
            .unwrap();
        assert_eq!(reports.len(), 1);
        assert!(!reports[0].accepted);
        assert!(reports[0]
            .reject_reason
            .as_ref()
            .unwrap()
            .contains("near-duplicate"));
        // Without the defense the mirror is accepted.
        let mut cfg = QueenBeeConfig::small();
        cfg.duplicate_detection = false;
        let mut qb2 = QueenBee::new(cfg).unwrap();
        qb2.publish(1, AccountId(1_000), &victim).unwrap();
        qb2.seal();
        let reports = qb2.run_scraper_attack(&attack, &[victim]).unwrap();
        assert!(reports[0].accepted);
    }

    #[test]
    fn a_mirror_of_two_equal_pages_names_the_smaller_in_every_engine() {
        let body: String = (0..150)
            .map(|i| format!("organicword{} ", i % 40))
            .collect();
        let attack = ScraperAttack::new(6_666, 1);
        // Each engine's signature map is seeded afresh, so its scan order
        // differs from engine to engine; the named page must not.
        for _ in 0..12 {
            let mut qb = engine();
            let victims = [page("blog/b", &body, vec![]), page("blog/a", &body, vec![])];
            for victim in &victims {
                assert!(qb.publish(1, AccountId(1_000), victim).unwrap().accepted);
            }
            qb.seal();
            let reports = qb.run_scraper_attack(&attack, &victims).unwrap();
            assert_eq!(
                reports[0].reject_reason.as_deref(),
                Some("near-duplicate of 'blog/a' owned by account 1000")
            );
        }
    }

    #[test]
    fn the_quorum_draw_never_names_a_bee_twice() {
        for bees in 1..=64 {
            for quorum in 1..=bees {
                for rotation in 0..bees {
                    let assigned = publish::assign_quorum(rotation, quorum, bees);
                    let distinct: BTreeSet<usize> = assigned.iter().copied().collect();
                    assert_eq!(assigned.len(), quorum);
                    assert_eq!(distinct.len(), quorum, "{bees} bees, quorum {quorum}");
                    assert!(assigned.iter().all(|&b| b < bees));
                }
            }
        }
    }

    #[test]
    fn colluding_minority_is_flagged_and_spam_kept_out_of_the_index() {
        let mut qb = engine();
        let attack = CollusionAttack::new(0.25, vec!["evil/spam".into()]);
        qb.apply_collusion(&attack);
        assert_eq!(qb.bees().iter().filter(|b| b.is_colluding()).count(), 1);
        qb.publish(
            1,
            AccountId(1_000),
            &page(
                "wiki/honest",
                "legitimate honest content about honeybees",
                vec![],
            ),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        let out = qb.search_request(from_peer(2, "honeybees")).unwrap();
        assert!(out.hits.iter().all(|r| &*r.name != "evil/spam"));
        // At least one verification quorum caught a colluder (if one was assigned).
        let flagged: u64 = qb.bees().iter().map(|b| b.times_flagged).sum();
        let colluder_assigned = qb
            .bees()
            .iter()
            .any(|b| b.is_colluding() && b.tasks_rewarded + b.times_flagged > 0);
        if colluder_assigned {
            assert!(flagged > 0);
        }
    }

    #[test]
    fn rank_round_pays_bees_and_popular_creators() {
        let mut qb = engine();
        // A small web where everybody links to the hub.
        for i in 0..6 {
            qb.publish(
                1,
                AccountId(1_000 + i),
                &page(
                    &format!("site/{i}"),
                    "spoke page content words",
                    vec!["site/hub".into()],
                ),
            )
            .unwrap();
        }
        qb.publish(
            2,
            AccountId(1_100),
            &page("site/hub", "hub page everyone links here", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        let report = qb.run_rank_round().unwrap();
        assert!(report.flagged_bees.is_empty());
        assert!(qb.rank_of("site/hub") > qb.rank_of("site/0"));
        // Bees earned rank bounties on top of index bounties.
        let bee_total: u64 = qb.bee_accounts().iter().map(|a| qb.chain.balance(*a)).sum();
        assert!(bee_total > 0);
        // The hub creator earned the popularity reward.
        assert!(qb.chain.balance(AccountId(1_100)) > qb_chain::PUBLISH_REWARD);
    }

    #[test]
    fn rank_rounds_are_deterministic_across_identical_engines() {
        // The registry iterates a HashMap whose order varies per instance;
        // before pages were sorted at graph-build time, node ids — and with
        // them the block partition the collusion defense medians over —
        // differed between otherwise identical runs, making E6's
        // rank_inflation_x jitter. Two identical engines must now produce
        // byte-identical rank rounds.
        let build = || {
            let mut qb = engine();
            for i in 0..8u64 {
                qb.publish(
                    1,
                    AccountId(1_000 + i),
                    &page(
                        &format!("site/{i}"),
                        "spoke page content words",
                        vec!["site/hub".into(), format!("site/{}", (i + 1) % 8)],
                    ),
                )
                .unwrap();
            }
            qb.publish(
                2,
                AccountId(1_100),
                &page("site/hub", "hub page everyone links here", vec![]),
            )
            .unwrap();
            qb.publish(
                1,
                AccountId(6_000),
                &page("evil/spam", "buy cheap honey now", vec![]),
            )
            .unwrap();
            qb.seal();
            qb.process_publish_events().unwrap();
            qb.apply_collusion(&CollusionAttack::new(0.5, vec!["evil/spam".into()]));
            let report = qb.run_rank_round().unwrap();
            (report, qb.rank_of("evil/spam"))
        };
        let (a, spam_a) = build();
        let (b, spam_b) = build();
        assert_eq!(a.ranks, b.ranks, "rank vectors must be byte-identical");
        assert_eq!(a.flagged_bees, b.flagged_bees);
        assert_eq!(
            spam_a.to_bits(),
            spam_b.to_bits(),
            "the collusion rank path must not jitter between runs"
        );
    }

    /// A cache-off engine holding two indexed pages that share "meadow
    /// honey".
    fn meadow_engine() -> QueenBee {
        let mut qb = engine();
        qb.publish(
            1,
            AccountId(1_000),
            &page("wiki/a", "meadow honey nectar pollen", vec![]),
        )
        .unwrap();
        qb.publish(
            2,
            AccountId(1_001),
            &page("wiki/b", "meadow honey clover fields", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        qb
    }

    /// A duplicate-heavy stream over `meadow_engine`'s pages: in windows of
    /// two, the same query recurs across (and within) windows.
    fn duplicate_heavy_requests() -> Vec<SearchRequest> {
        let queries = [
            "meadow honey",
            "meadow honey",
            "honey nectar",
            "meadow honey",
            "meadow clover",
            "honey nectar",
            "meadow honey",
            "clover fields",
        ];
        let numbered = queries.iter().enumerate();
        numbered.map(|(i, q)| from_peer(3 + i as u64, q)).collect()
    }

    #[test]
    fn batch_window_fetches_each_distinct_term_once() {
        let requests = vec![
            from_peer(3, "meadow honey"),
            from_peer(4, "honey nectar"),
            from_peer(5, "meadow clover"),
        ];

        // No cache: the batch window is the only sharing mechanism.
        let mut batched = meadow_engine();
        let batch = PipelineConfig::batch(requests.len());
        let responses = batched
            .search_pipelined(requests.clone(), batch)
            .unwrap()
            .responses;
        let fetches: usize = responses.iter().map(|r| r.shards_fetched()).sum();
        let shared: usize = responses.iter().map(|r| r.batch_shared()).sum();
        assert_eq!(fetches, 4, "distinct terms: meadow, honey, nectar, clover");
        assert_eq!(shared, 2, "meadow and honey are reused from the window");

        // Sequential execution of the same stream on an identical engine
        // pays per-query fetches but returns byte-identical hits.
        let mut sequential = meadow_engine();
        let mut seq_fetches = 0usize;
        let mut seq_messages = 0u64;
        for (request, batched_response) in requests.into_iter().zip(&responses) {
            let response = sequential.search_request(request).unwrap();
            seq_fetches += response.shards_fetched();
            seq_messages += response.messages();
            assert_eq!(response.hits, batched_response.hits);
            assert_eq!(response.total_matches, batched_response.total_matches);
        }
        assert_eq!(seq_fetches, 6, "sequential pays every term again");
        let batch_messages: u64 = responses.iter().map(|r| r.messages()).sum();
        assert!(
            batch_messages < seq_messages,
            "batching must cut total RPC messages ({batch_messages} vs {seq_messages})"
        );
    }

    #[test]
    fn pipelined_execution_matches_sequential_results_and_cuts_makespan() {
        // Sequential reference (windows of one).
        let mut sequential = meadow_engine();
        let mut seq_hits = Vec::new();
        for req in duplicate_heavy_requests() {
            seq_hits.push(sequential.search_request(req).unwrap().hits);
        }

        // Back-to-back windows, one batch call each: makespan = sum of
        // window latencies.
        let mut b2b = meadow_engine();
        let mut b2b_makespan = SimDuration::ZERO;
        for window in duplicate_heavy_requests().chunks(2) {
            let batch = PipelineConfig::batch(window.len());
            let responses = b2b.search_pipelined(window.to_vec(), batch).unwrap();
            b2b_makespan += qb_simnet::parallel_latency(
                &responses
                    .responses
                    .iter()
                    .map(|r| r.latency)
                    .collect::<Vec<_>>(),
            );
        }

        // Pipelined: same stream, windows of two, overlapped.
        let mut pipelined = meadow_engine();
        let outcome = pipelined
            .search_pipelined(
                duplicate_heavy_requests(),
                PipelineConfig {
                    window_size: 2,
                    max_windows_in_flight: 4,
                },
            )
            .unwrap();
        assert_eq!(outcome.responses.len(), seq_hits.len());
        for (resp, seq) in outcome.responses.iter().zip(&seq_hits) {
            assert_eq!(&resp.hits, seq, "pipelined results must be byte-identical");
        }
        let report = outcome.report;
        assert_eq!(report.windows, 4);
        assert!(
            report.makespan < b2b_makespan,
            "overlap must beat back-to-back ({} vs {b2b_makespan})",
            report.makespan
        );
        assert!(report.peak_windows_in_flight > 1, "windows must overlap");
        let stats = pipelined.query_stats();
        assert_eq!(stats.pipelined_windows, 4);
        assert_eq!(stats.pipelined_queries, seq_hits.len() as u64);
        let scored = outcome.responses.iter().filter(|r| !r.result_cache_hit());
        assert_eq!(
            stats.score_invocations,
            scored.count() as u64,
            "every query the result tier did not answer is scored once"
        );
        // The async tracker was fully drained, and every fetch expanded
        // into at least one per-hop asynchronous operation on the wire.
        assert_eq!(pipelined.net.async_in_flight(), 0);
        assert!(
            pipelined.net.stats().async_ops >= report.shard_fetches + report.stats_reads,
            "event-driven fetches issue at least one async op each ({} vs {})",
            pipelined.net.stats().async_ops,
            report.shard_fetches + report.stats_reads
        );
    }

    #[test]
    fn each_query_is_scored_once_on_every_entry_point() {
        // Cache off: nothing keeps a scored list, so every entry point
        // scores a repeated query again and builds only its page.
        let mut one_by_one = meadow_engine();
        let singles: Vec<SearchResponse> = duplicate_heavy_requests()
            .into_iter()
            .map(|request| one_by_one.search_request(request).unwrap())
            .collect();
        let mut batched = meadow_engine();
        let windows: Vec<SearchResponse> = duplicate_heavy_requests()
            .chunks(2)
            .flat_map(|window| {
                let batch = PipelineConfig::batch(window.len());
                batched
                    .search_pipelined(window.to_vec(), batch)
                    .unwrap()
                    .responses
            })
            .collect();
        let mut pipelined = meadow_engine();
        let config = PipelineConfig {
            window_size: 2,
            max_windows_in_flight: 4,
        };
        let piped = pipelined
            .search_pipelined(duplicate_heavy_requests(), config)
            .unwrap()
            .responses;

        // Every field of every hit, the score compared bit for bit.
        let answers = |responses: &[SearchResponse]| {
            let answer = |r: &SearchResponse| {
                let bits: Vec<u64> = r.hits.iter().map(|d| d.score.to_bits()).collect();
                (r.hits.clone(), bits)
            };
            responses.iter().map(answer).collect::<Vec<_>>()
        };
        let n = singles.len() as u64;
        for (qb, responses) in [
            (&one_by_one, &singles),
            (&batched, &windows),
            (&pipelined, &piped),
        ] {
            assert_eq!(answers(responses), answers(&singles));
            let stats = qb.query_stats();
            assert_eq!((stats.score_invocations, stats.scored_lists_built), (n, 0));
        }
    }

    #[test]
    fn depth_one_pipeline_degenerates_to_back_to_back() {
        let mut qb = engine();
        qb.publish(
            1,
            AccountId(1_000),
            &page("wiki/a", "larkspur bumble crickets", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        let requests: Vec<SearchRequest> =
            (0..4).map(|i| from_peer(i, "larkspur crickets")).collect();
        let outcome = qb
            .search_pipelined(
                requests,
                PipelineConfig {
                    window_size: 2,
                    max_windows_in_flight: 1,
                },
            )
            .unwrap();
        assert_eq!(outcome.report.peak_windows_in_flight, 1);
        // With one window in flight the makespan is the sum of the window
        // tails: no window ever overlaps another.
        assert!(outcome.report.makespan >= outcome.responses[0].latency);
        assert_eq!(outcome.responses.len(), 4);
    }

    #[test]
    fn a_traced_pipelined_run_records_one_query_tree_per_response() {
        // Two windows in flight at a time over four windows: the later
        // windows issue only once earlier ones retire, so the issue
        // instants differ and each tree must start at its own window's.
        let mut qb = meadow_engine();
        qb.set_tracing(true);
        let config = PipelineConfig {
            window_size: 2,
            max_windows_in_flight: 2,
        };
        let outcome = qb
            .search_pipelined(duplicate_heavy_requests(), config)
            .unwrap();
        let spans = qb.windows.spans().to_vec();
        assert_eq!(spans.len(), 4);
        assert!(spans.iter().any(|span| span.issued_at > spans[0].issued_at));
        // Windows issue and retire in request order: each span starts
        // where the previous one ended, and issue instants never go
        // backwards.
        let mut next_query = 0;
        let mut last_issue = spans[0].issued_at;
        for span in &spans {
            assert_eq!(span.first_query, next_query, "spans are contiguous");
            assert!(
                span.issued_at >= last_issue,
                "issue instants never decrease"
            );
            next_query += span.queries;
            last_issue = span.issued_at;
        }
        assert_eq!(next_query, outcome.responses.len(), "spans cover the run");

        let trace = qb.take_trace();
        let trees: Vec<_> = trace.named("query").collect();
        assert_eq!(
            trees.len(),
            outcome.responses.len(),
            "one tree per response"
        );
        for span in &spans {
            let window = span.first_query..span.first_query + span.queries;
            for (tree, response) in trees[window.clone()].iter().zip(&outcome.responses[window]) {
                assert_eq!(tree.parent, None);
                assert_eq!(tree.detail, response.query);
                assert_eq!(tree.start, span.issued_at, "rooted at its window's issue");
                assert_eq!(tree.end, span.issued_at + response.latency);
            }
        }

        // An empty request list opens no window and records nothing.
        let empty = qb.search_pipelined(Vec::new(), PipelineConfig::batch(0));
        let empty = empty.unwrap();
        assert!(empty.responses.is_empty() && qb.windows.spans().is_empty());
        assert_eq!(empty.report.windows, 0);
        assert!(qb.take_trace().spans.is_empty());
    }

    #[test]
    fn an_aborted_pipelined_run_leaves_the_engine_as_good_as_new() {
        let build = || {
            let mut qb = engine();
            for (name, text) in [
                ("wiki/a", "meadow honey nectar pollen"),
                ("wiki/b", "meadow honey clover fields"),
            ] {
                qb.publish(1, AccountId(1_000), &page(name, text, vec![]))
                    .unwrap();
            }
            qb.seal();
            qb.process_publish_events().unwrap();
            qb
        };
        // Two windows of one query, both issued at the call instant; the
        // second one's origin peer is down.
        let requests = || vec![from_peer(3, "meadow honey"), from_peer(5, "honey clover")];
        let config = PipelineConfig {
            window_size: 1,
            max_windows_in_flight: 2,
        };

        let mut qb = build();
        qb.net.set_online(5, false);
        let issued_before = qb.net.stats().async_ops;
        let aborted = qb.search_pipelined(requests(), config);
        assert!(matches!(aborted, Err(QbError::NodeOffline(5))));
        assert!(
            qb.net.stats().async_ops > issued_before,
            "window 1 had hops on the wire when window 2 failed"
        );
        assert_eq!(qb.net.async_in_flight(), 0, "the abort retired them");
        assert!(qb.windows.is_idle(), "no window outlives the run");
        assert_eq!(
            qb.query_stats(),
            QueryEngineStats::default(),
            "no window retired, so nothing is reported as served"
        );

        // The same run on healthy peers answers as a fresh engine does.
        qb.net.set_online(5, true);
        let retried = qb.search_pipelined(requests(), config).unwrap();
        let fresh = build().search_pipelined(requests(), config).unwrap();
        assert_eq!(retried.responses.len(), 2);
        for (a, b) in retried.responses.iter().zip(&fresh.responses) {
            assert_eq!((&a.terms, &a.hits), (&b.terms, &b.hits));
            assert_eq!(
                (a.total_matches, &a.provenance),
                (b.total_matches, &b.provenance)
            );
        }
        assert_eq!(qb.net.async_in_flight(), 0);
        let stats = qb.query_stats();
        assert_eq!((stats.pipelined_windows, stats.pipelined_queries), (2, 2));
    }

    #[test]
    fn a_read_failing_at_issue_does_not_strand_its_windows_other_reads() {
        let mut qb = engine();
        qb.publish(
            1,
            AccountId(1_000),
            &page("wiki/a", "meadow honey nectar pollen", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        // One window: the first query's reads are on the wire when the
        // second one's (offline origin) fail at the issue instant.
        qb.net.set_online(5, false);
        let requests = vec![from_peer(3, "meadow honey"), from_peer(5, "nectar pollen")];
        let aborted = qb.search_pipelined(requests, PipelineConfig::default());
        assert!(matches!(aborted, Err(QbError::NodeOffline(5))));
        assert_eq!(qb.net.async_in_flight(), 0);
        assert!(qb.windows.is_idle(), "no window outlives the run");
    }

    pub(super) fn cached_engine() -> QueenBee {
        let mut config = QueenBeeConfig::small();
        config.cache = qb_cache::CacheConfig::enabled();
        QueenBee::new(config).unwrap()
    }

    /// Frontend `i`'s serving cache.
    pub(super) fn frontend_cache(qb: &QueenBee, i: usize) -> &QueryCache {
        qb.fleet.as_ref().unwrap().frontend(i).cache()
    }

    #[test]
    fn warm_repeated_query_issues_no_rpc_messages() {
        let mut qb = cached_engine();
        qb.publish(
            1,
            AccountId(1_000),
            &page("wiki/dweb", "peers serve the decentralized web", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();

        let cold = qb
            .search_request(from_peer(5, "decentralized peers"))
            .unwrap();
        assert!(!cold.result_cache_hit());
        assert!(cold.messages() > 0);
        assert!(cold.shards_fetched() > 0);

        let warm = qb
            .search_request(from_peer(5, "decentralized peers"))
            .unwrap();
        assert!(warm.result_cache_hit());
        assert_eq!(warm.messages(), 0, "warm query must not touch the DHT");
        assert_eq!(warm.shards_fetched(), 0);
        assert!(warm.latency < cold.latency);
        assert_eq!(warm.hits, cold.hits);

        // Term order must not defeat the result cache.
        let reordered = qb
            .search_request(from_peer(5, "peers decentralized"))
            .unwrap();
        assert!(reordered.result_cache_hit());

        let m = qb.cache_metrics().expect("cache enabled");
        assert_eq!(m.result.hits, 2);
        assert!(m.result.misses >= 1);
    }

    /// A hit names its page with the posting's own allocation on every
    /// path — scored, served from the result tier, reused by a `Fresh`
    /// repeat — and a response's terms are the term table's text. A warm
    /// repeat names no new term. A queried term no page holds enters the
    /// table at version 0, which is what a term the table never met reads
    /// as; the table is read by id or text only (it has no iterator).
    #[test]
    fn hits_share_their_postings_names_and_terms_are_named_once() {
        let mut qb = cached_engine();
        for (name, text) in [
            ("wiki/dweb", "peers serve the decentralized web"),
            ("wiki/p2p", "decentralized peers gossip"),
        ] {
            qb.publish(1, AccountId(1_000), &page(name, text, vec![]))
                .unwrap();
        }
        qb.seal();
        qb.process_publish_events().unwrap();
        let query = || from_peer(5, "decentralized");
        let cold = qb.search_request(query()).unwrap();
        let term = Arc::clone(&cold.terms[0]);
        let id = qb.terms.intern(&term);
        assert!(Arc::ptr_eq(&term, qb.terms.text(id)));
        // The fetched shard fanned out into the cache as the handle the
        // kernel scored.
        let shard = Arc::clone(frontend_cache(&qb, 0).peek_shard(&term).unwrap());
        let rows = qb.terms.len();
        let warm = qb.search_request(query()).unwrap();
        let fresh = qb
            .search_request(query().freshness(Freshness::Fresh))
            .unwrap();
        assert!(warm.result_cache_hit() && !fresh.result_cache_hit());
        assert_eq!(
            qb.query_stats().window_memo_hits,
            1,
            "fresh reuses the list"
        );
        for out in [&cold, &warm, &fresh] {
            assert_eq!(out.hits.len(), 2);
            assert!(Arc::ptr_eq(&out.terms[0], &term));
            for hit in &out.hits {
                let posting = shard.get(hit.doc_id).unwrap();
                assert!(Arc::ptr_eq(&hit.name, &posting.name), "{}", hit.name);
            }
        }
        assert_eq!(qb.terms.len(), rows, "a warm repeat names no new term");

        let clover = Analyzer::stem("clover");
        assert_eq!(qb.terms.version_of(&clover), 0, "never met");
        let absent = qb.search_request(from_peer(5, "clover")).unwrap();
        assert!(absent.hits.is_empty());
        assert_eq!(qb.terms.len(), rows + 1);
        assert_eq!(qb.terms.version_of(&clover), 0, "met, held by no page");
        let decentralized = qb.terms.version(id);
        assert!(decentralized > 0);
        qb.search_request(from_peer(5, "clover decentralized"))
            .unwrap();
        assert_eq!(qb.terms.len(), rows + 1);
        assert_eq!(qb.terms.version(id), decentralized, "a read bumps nothing");
    }

    /// A cache-off engine whose peers each keep one operation in flight per
    /// uplink and whose lookups send one hop at a time, so a read alone
    /// never queues on itself, over two pages that share `decentralized`
    /// and `peers`.
    fn one_deep_links() -> QueenBee {
        let mut config = QueenBeeConfig::small();
        config.net.max_in_flight_per_link = 1;
        config.dht.alpha = 1;
        let mut qb = QueenBee::new(config).unwrap();
        for (name, text) in [
            ("wiki/dweb", "peers serve the decentralized web"),
            ("wiki/p2p", "decentralized peers gossip"),
        ] {
            qb.publish(1, AccountId(1_000), &page(name, text, vec![]))
                .unwrap();
        }
        qb.seal();
        qb.process_publish_events().unwrap();
        qb
    }

    #[test]
    fn a_one_query_window_queues_its_reads_on_the_shared_uplink() {
        // Cache off: the query's window reads the statistics record and the
        // `peers` shard, both from peer 5, whose uplink holds one operation
        // at a time. Read one after the other, neither would queue; the
        // reads run concurrently, so their hops queue behind each other,
        // and the response is charged that queueing.
        let mut qb = one_deep_links();
        qb.set_tracing(true);
        let issued_at = qb.net.now();
        let response = qb.search_request(from_peer(5, "peers")).unwrap();
        assert_eq!(response.provenance, [TermProvenance::DhtFetch]);
        assert!(response.trace.net_queue > SimDuration::ZERO);

        // The latency is the later read's queued completion minus the
        // window's issue instant, and the query tree splits the queueing
        // charged inside it off the fetch service.
        let trace = qb.take_trace();
        let window = trace.named("window").next().expect("one window span");
        assert_eq!(window.start, issued_at);
        let reads: Vec<_> = trace.children(window.id).collect();
        let names: Vec<&str> = reads.iter().map(|span| span.name).collect();
        assert_eq!(names, ["stats_read", "fetch"], "issued stats first");
        let completed = reads.iter().map(|span| span.end).max().unwrap();
        assert_eq!(response.latency, completed.since(issued_at));
        let query = trace.named("query").next().expect("one query tree");
        let queued = trace
            .children(query.id)
            .find(|span| span.name == "net_queue");
        let queued = queued.expect("the tree splits off the link queueing");
        assert_eq!(queued.duration(), response.trace.net_queue);
        assert_eq!(queued.end, completed);
    }

    #[test]
    fn a_scored_list_is_built_only_for_who_keeps_it() {
        // Eight ranked pages that all match every query below, so a page of
        // three is a strict prefix of the candidates.
        let words = ["meadow", "honey", "nectar", "pollen", "clover"];
        let corpus = |mut qb: QueenBee| {
            for i in 0..8usize {
                let body: Vec<&str> = (0..=i).map(|j| words[j % words.len()]).collect();
                let links = vec![format!("site/{}", (i + 1) % 3)];
                let text = format!("{} {}", words.join(" "), body.join(" "));
                qb.publish(
                    1,
                    AccountId(1_000),
                    &page(&format!("site/{i}"), &text, links),
                )
                .unwrap();
            }
            qb.seal();
            qb.process_publish_events().unwrap();
            qb.run_rank_round().unwrap();
            qb
        };
        let queries = [
            "meadow honey",
            "honey nectar pollen",
            "clover meadow",
            "pollen clover nectar",
        ];
        let serve = |qb: &mut QueenBee| -> Vec<SearchResponse> {
            queries
                .iter()
                .map(|q| qb.search_request(from_peer(5, q).top_k(3)).unwrap())
                .collect()
        };
        let n = queries.len() as u64;

        // Cache off: every query scores, none builds more than its page.
        let mut off = corpus(engine());
        let off_hits = serve(&mut off);
        assert!(off_hits
            .iter()
            .all(|r| r.hits.len() == 3 && r.total_matches == 8));
        let stats = off.query_stats();
        assert_eq!((stats.score_invocations, stats.scored_lists_built), (n, 0));

        // Cache on: the same hits bit for bit, and a list per admission.
        let mut on = corpus(cached_engine());
        let on_hits = serve(&mut on);
        let score_bits = |responses: &[SearchResponse]| -> Vec<u64> {
            let hits = responses.iter().flat_map(|r| &r.hits);
            hits.map(|d| d.score.to_bits()).collect()
        };
        for (on, off) in on_hits.iter().zip(&off_hits) {
            assert_eq!(on.hits, off.hits);
        }
        assert_eq!(score_bits(&on_hits), score_bits(&off_hits));
        let stats = on.query_stats();
        let tier = on.cache_metrics().expect("cache enabled").result;
        assert_eq!((stats.score_invocations, tier.insertions), (n, n));
        assert_eq!(stats.scored_lists_built, tier.insertions);
        // A result hit pages the kept list: the next page, nothing scored.
        let next = on
            .search_request(from_peer(5, queries[1]).top_k(3).page(1))
            .unwrap();
        assert!(next.result_cache_hit());
        let whole = off
            .search_request(from_peer(5, queries[1]).top_k(8))
            .unwrap();
        assert_eq!(next.hits, whole.hits[3..6]);
        assert_eq!(on.query_stats(), stats);

        // A result tier that refuses every entry: scored, refused, unbuilt.
        let mut config = QueenBeeConfig::small();
        config.cache = qb_cache::CacheConfig::enabled();
        config.cache.result_capacity_bytes = 1;
        let mut refusing = corpus(QueenBee::new(config).unwrap());
        for (refused, off) in serve(&mut refusing).iter().zip(&off_hits) {
            assert_eq!(refused.hits, off.hits);
        }
        let stats = refusing.query_stats();
        let tier = refusing.cache_metrics().expect("cache enabled").result;
        assert_eq!((stats.score_invocations, stats.scored_lists_built), (n, 0));
        assert_eq!((tier.admission_rejections, tier.insertions), (n, 0));

        // One table: `rank_of` reads a page's rank by name, and the blend
        // component beside it is that rank's.
        assert_eq!(off.ranks.len(), 8);
        for i in 0..8 {
            let name = format!("site/{i}");
            let page = off.ranks[&qb_index::doc_id_for_name(&name)];
            assert_eq!(off.rank_of(&name).to_bits(), page.rank.to_bits());
            let component = qb_index::rank_component(page.rank);
            assert_eq!(page.component.to_bits(), component.to_bits());
        }
    }

    #[test]
    fn shard_cache_serves_overlapping_queries() {
        let mut qb = cached_engine();
        qb.publish(
            1,
            AccountId(1_000),
            &page("wiki/honey", "honey and nectar from bees", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();

        let first = qb.search_request(from_peer(3, "honey nectar")).unwrap();
        assert_eq!(first.shard_cache_hits(), 0);
        // A different query sharing a term reuses that term's cached shard.
        let second = qb.search_request(from_peer(3, "honey bees")).unwrap();
        assert!(!second.result_cache_hit());
        assert!(second.shard_cache_hits() >= 1);
        assert!(second.messages() < first.messages());
    }

    #[test]
    fn republish_invalidates_cached_results_immediately() {
        let mut qb = cached_engine();
        let creator = AccountId(1_000);
        qb.publish(
            1,
            creator,
            &page("news/today", "headline about honeybadgers", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();

        // Warm the cache on the old version.
        let v1 = qb.search_request(from_peer(4, "honeybadgers")).unwrap();
        assert_eq!(v1.hits[0].version, 1);
        assert!(qb
            .search_request(from_peer(4, "honeybadgers"))
            .unwrap()
            .result_cache_hit());

        // Republish: same term, new version. The next lookup must refuse
        // the entry.
        qb.publish(
            1,
            creator,
            &page("news/today", "fresh honeybadgers exclusive", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();

        let after = qb.search_request(from_peer(4, "honeybadgers")).unwrap();
        assert!(!after.result_cache_hit(), "stale entry must not serve");
        assert_eq!(after.hits[0].version, 2);
        assert_eq!(qb.freshness.stale_results, 0, "no stale result ever served");
        let m = qb.cache_metrics().unwrap();
        assert!(m.total_invalidations() > 0);
    }

    #[test]
    fn negative_cache_suppresses_repeat_lookups_for_absent_terms() {
        let mut qb = cached_engine();
        qb.publish(
            1,
            AccountId(1_000),
            &page("wiki/a", "ordinary page body", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();

        let cold = qb.search_request(from_peer(2, "nonexistentterm")).unwrap();
        assert!(cold.hits.is_empty());
        assert!(cold.messages() > 0);
        // The result cache would satisfy the identical query; a *different*
        // query sharing the absent term exercises the negative tier.
        let warm = qb
            .search_request(from_peer(2, "nonexistentterm ordinary"))
            .unwrap();
        assert_eq!(warm.negative_cache_hits(), 1);
        // Once the term is published, the negative entry dies.
        qb.publish(
            1,
            AccountId(1_000),
            &page("wiki/b", "nonexistentterm appears now", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        let found = qb.search_request(from_peer(2, "nonexistentterm")).unwrap();
        assert_eq!(found.negative_cache_hits(), 0);
        assert_eq!(found.hits.len(), 1);
    }

    #[test]
    fn cache_disabled_preserves_seed_behavior() {
        let mut qb = engine();
        qb.publish(
            1,
            AccountId(1_000),
            &page("wiki/x", "plain page about caching", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        assert!(qb.cache_metrics().is_none());
        let a = qb.search_request(from_peer(5, "caching")).unwrap();
        let b = qb.search_request(from_peer(5, "caching")).unwrap();
        assert!(!a.result_cache_hit() && !b.result_cache_hit());
        assert_eq!(
            a.messages(),
            b.messages(),
            "no warm-up effect without the cache"
        );
    }

    fn fleet_engine(n: usize, gossip_on: bool) -> QueenBee {
        let mut config = QueenBeeConfig::small();
        config.cache = qb_cache::CacheConfig::enabled();
        config.gossip = if gossip_on {
            qb_gossip::GossipConfig::enabled(n)
        } else {
            qb_gossip::GossipConfig::fleet(n)
        };
        QueenBee::new(config).unwrap()
    }

    /// A replay that fails returns early with requests still queued at a
    /// frontend. Each was counted into the router's queued-work gauge on
    /// admission (`GossipFleet::record_routed`), so each must be retired
    /// from it (`record_finished`) on the way out; otherwise two-choices
    /// routing would see that frontend as busier than it is for the rest of
    /// the engine's life.
    #[test]
    fn a_failed_replay_retires_its_queued_requests_from_the_routing_gauge() {
        let mut qb = fleet_engine(2, true);
        qb.config.admission.window_size = 1;
        qb.config.admission.max_windows_in_flight = 1;
        qb.publish(
            5,
            AccountId(1_000),
            &page("wiki/a", "meadow honey nectar", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        // Three arrivals at frontend 0, whose peer is down: the first
        // dispatch takes one of them and its read fails at once.
        let peer = qb.fleet().unwrap().frontend_peer(0);
        qb.net.set_online(peer, false);
        let arrivals = (0..3)
            .map(|_| TimedRequest::new(SimDuration::ZERO, at_frontend(0, "meadow honey")))
            .collect();
        let failed = qb.serve_open_loop(arrivals);
        assert!(matches!(failed, Err(QbError::NodeOffline(p)) if p == peer));
        qb.net.set_online(peer, true);
        // A round folds the per-interval half of the gauge; what is left is
        // the queued-work half.
        qb.run_gossip_round(false);
        let fleet = qb.fleet().unwrap();
        let queued = |f: usize| fleet.routing_load(f) - fleet.advertised_load(f);
        assert_eq!(queued(0), 0, "the two requests left queued are retired");
        assert_eq!(queued(1), 0);
    }

    #[test]
    fn fleet_frontends_have_private_caches() {
        let mut qb = fleet_engine(3, false);
        qb.publish(
            5,
            AccountId(1_000),
            &page("wiki/fleet", "frontends cache privately", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        assert_eq!(qb.num_frontends(), 3);
        let cold0 = qb
            .search_request(at_frontend(0, "frontends privately"))
            .unwrap();
        assert!(cold0.shards_fetched() > 0);
        // Without gossip, frontend 1 cold-starts on its own.
        let cold1 = qb
            .search_request(at_frontend(1, "frontends privately"))
            .unwrap();
        assert!(cold1.shards_fetched() > 0, "no sharing without gossip");
        // But each frontend's own repeat is warm.
        let warm0 = qb
            .search_request(at_frontend(0, "frontends privately"))
            .unwrap();
        assert!(warm0.result_cache_hit());
        // HashPeer routes by rendezvous hash over the live fleet; peer 3's
        // winning slot is one of the two frontends warmed above.
        let routed = qb
            .search_request(from_peer(3, "frontends privately"))
            .unwrap();
        assert!(
            routed.result_cache_hit(),
            "peer 3 routes to a warm frontend"
        );
        // Direct routing out of range / without a fleet errors cleanly.
        assert!(qb.search_request(at_frontend(9, "x")).is_err());
        assert!(engine().search_request(at_frontend(0, "x")).is_err());
    }

    #[test]
    fn gossip_warms_the_rest_of_the_fleet() {
        let mut qb = fleet_engine(3, true);
        qb.publish(
            5,
            AccountId(1_000),
            &page("wiki/swarm", "gossip spreads cached shards", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        let cold = qb.search_request(at_frontend(0, "gossip shards")).unwrap();
        assert!(cold.shards_fetched() > 0);
        qb.run_gossip_round(false);
        for i in 1..3 {
            let warmed = qb.search_request(at_frontend(i, "gossip shards")).unwrap();
            assert_eq!(
                warmed.shards_fetched(),
                0,
                "frontend {i} should be warm after the gossip round"
            );
            assert!(warmed.shard_cache_hits() > 0);
            assert_eq!(warmed.hits, cold.hits);
        }
        let stats = qb.gossip_stats().unwrap();
        assert!(stats.shards_accepted >= 2);
        assert!(stats.total_bytes() > 0);
        assert_eq!(stats.stale_rejected, 0);
        assert_eq!(qb.freshness.stale_results, 0);
    }

    #[test]
    fn gossip_rounds_fire_as_time_advances() {
        let mut qb = fleet_engine(2, true);
        qb.publish(
            5,
            AccountId(1_000),
            &page("a/b", "timed gossip rounds", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        qb.search_request(at_frontend(0, "timed rounds")).unwrap();
        assert_eq!(qb.gossip_stats().unwrap().rounds, 0, "not due yet");
        qb.advance_time(qb_gossip::config::ROUND_INTERVAL);
        assert!(qb.gossip_stats().unwrap().rounds >= 1);
        let warmed = qb.search_request(at_frontend(1, "timed rounds")).unwrap();
        assert_eq!(warmed.shards_fetched(), 0);
    }

    /// A fleet query for a term no page holds records the term at version 0
    /// in the serving frontend's version vector, under the key the engine's
    /// version table made for it (zone-aware anti-entropy reads that
    /// record); the other frontends learn nothing, and a later publish of
    /// the term raises its version everywhere.
    #[test]
    fn a_queried_term_no_page_holds_is_not_filed_in_known() {
        let mut qb = fleet_engine(3, false);
        qb.publish(5, AccountId(1_000), &page("wiki/a", "meadow honey", vec![]))
            .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        let term = qb_index::Analyzer::stem("clover");
        let key = qb_gossip::TermKey::of(term.as_str());
        let known = |qb: &QueenBee, i: usize| qb.fleet().unwrap().frontend(i).known.clone();
        let before: Vec<usize> = (0..3).map(|i| known(&qb, i).len()).collect();

        let out = qb.search_request(at_frontend(0, "clover")).unwrap();
        assert!(out.hits.is_empty());
        // Version 0 is what `known` reads for a term it does not hold, so
        // the serving frontend files nothing, like the others.
        for (i, len) in before.iter().enumerate() {
            assert_eq!(known(&qb, i).len(), *len, "frontend {i} is unchanged");
            assert_eq!(known(&qb, i).get(&key), 0);
            assert!(known(&qb, i).iter().all(|(t, _)| t != term));
        }
        assert_eq!(qb.terms.version_of(&term), 0);

        qb.publish(
            5,
            AccountId(1_000),
            &page("wiki/c", "clover fields", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        for i in 0..3 {
            assert_eq!(known(&qb, i).get(&key), 1, "frontend {i}");
        }
        assert_eq!(known(&qb, 0).len(), known(&qb, 1).len());
    }

    #[test]
    fn fleet_join_bootstraps_from_the_fleet_not_the_dht() {
        let mut qb = fleet_engine(3, true);
        qb.publish(
            10,
            AccountId(1_000),
            &page(
                "wiki/churn",
                "churned frontends warm from neighbours",
                vec![],
            ),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        // Warm the fleet through one frontend + a gossip round.
        qb.search_request(at_frontend(0, "churned neighbours"))
            .unwrap();
        qb.run_gossip_round(false);
        // A fourth frontend joins and is warm *before* its first query.
        let idx = qb.fleet_join().unwrap();
        assert_eq!(idx, 3);
        assert_eq!(qb.num_frontends(), 4);
        let out = qb
            .search_request(at_frontend(idx, "churned neighbours"))
            .unwrap();
        assert_eq!(
            out.shards_fetched(),
            0,
            "the joiner's bootstrap must warm it without DHT fetches"
        );
        assert!(out.shard_cache_hits() > 0);
        assert_eq!(qb.freshness.stale_results, 0);
        assert_eq!(qb.gossip_stats().unwrap().joins, 1);
    }

    fn segment_fleet_engine(n: usize) -> QueenBee {
        let mut config = QueenBeeConfig::small();
        config.cache = qb_cache::CacheConfig::enabled();
        config.gossip = qb_gossip::GossipConfig::enabled(n);
        config.segment = qb_segment::SegmentConfig::enabled();
        // Compact on every publish batch so the tests see artifacts
        // without bulk workloads.
        config.segment.max_pending_terms = 1;
        QueenBee::new(config).unwrap()
    }

    #[test]
    fn writer_compaction_publishes_generational_artifacts() {
        let mut qb = segment_fleet_engine(2);
        qb.publish(
            10,
            AccountId(1_000),
            &page("wiki/seg", "segments compact writer output", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        let s = qb.segment_stats();
        assert_eq!(s.compactions, 1);
        assert_eq!(s.segments_published, 1);
        assert!(s.publish_bytes > 0, "publishing an artifact is never free");
        let first = qb.latest_segment().unwrap();
        assert_eq!(first.generation, 1);
        assert!(first.term_count > 0);
        assert!(qb.pending_segment.is_empty(), "compaction drains pending");
        // A second batch folds forward into generation 2, keeping at least
        // the previously published terms (version-dominant merge).
        qb.publish(
            10,
            AccountId(1_000),
            &page("wiki/seg2", "segments keep merging forward", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        let second = qb.latest_segment().unwrap();
        assert_eq!(second.generation, 2);
        assert!(second.term_count >= first.term_count);
        assert_eq!(qb.segment_stats().compactions, 2);
    }

    #[test]
    fn segment_join_bulk_bootstraps_a_new_frontend() {
        let mut qb = segment_fleet_engine(2);
        qb.publish(
            10,
            AccountId(1_000),
            &page("wiki/boot", "artifact bootstrap warms joiners", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        assert!(qb.latest_segment().is_some());
        let (idx, report) = qb.fleet_join_with_segment().unwrap();
        assert_eq!(idx, 2);
        assert!(report.used_segment, "an advertised artifact must be used");
        assert!(report.imported.accepted > 0);
        let s = qb.segment_stats();
        assert_eq!(s.segments_fetched, 1);
        assert!(s.fetch_bytes > 0, "fetching an artifact is never free");
        assert_eq!(s.shards_imported, report.imported.accepted);
        let out = qb
            .search_request(at_frontend(idx, "artifact bootstrap"))
            .unwrap();
        assert_eq!(out.shards_fetched(), 0, "the import must warm the joiner");
        assert!(out.shard_cache_hits() > 0);
        assert_eq!(
            qb.freshness.stale_results, 0,
            "no stale serves after import"
        );
        // The segment counters ride the unified metrics snapshot.
        let snap = qb.metrics_snapshot();
        assert_eq!(snap.counter("segment.segments_fetched"), 1);
        assert!(snap.counter("segment.publish_bytes") > 0);
    }

    #[test]
    fn segment_join_falls_back_to_gossip_without_an_artifact() {
        // Segments disabled: no artifact is ever advertised, so the same
        // call bootstraps through the ordinary gossip exchange.
        let mut qb = fleet_engine(2, true);
        qb.publish(
            10,
            AccountId(1_000),
            &page("wiki/fallback", "no artifact means gossip warmup", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        qb.search_request(at_frontend(0, "artifact gossip"))
            .unwrap();
        qb.run_gossip_round(false);
        let (idx, report) = qb.fleet_join_with_segment().unwrap();
        assert!(!report.used_segment);
        assert_eq!(qb.segment_stats().segments_fetched, 0);
        let out = qb
            .search_request(at_frontend(idx, "artifact gossip"))
            .unwrap();
        assert_eq!(out.shards_fetched(), 0, "gossip fallback still warms");
    }

    #[test]
    fn fleet_leave_and_rejoin_route_around_departed_frontends() {
        let mut qb = fleet_engine(3, true);
        qb.publish(
            10,
            AccountId(1_000),
            &page("wiki/leave", "departures reroute queries", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        qb.search_request(at_frontend(0, "departures reroute"))
            .unwrap();
        qb.run_gossip_round(false);

        qb.fleet_leave(1, true).unwrap();
        // Direct routing to the departed frontend fails cleanly...
        assert!(qb
            .search_request(at_frontend(1, "departures reroute"))
            .is_err());
        assert!(
            qb.fleet_rejoin(0).is_err(),
            "active frontends cannot rejoin"
        );
        // ...while hashed routing falls over to a surviving slot.
        let routed = qb
            .search_request(from_peer(1, "departures reroute"))
            .unwrap();
        assert!(!routed.hits.is_empty());
        // A crashed frontend rejoins with a fleet-warmed cache.
        qb.fleet_leave(2, false).unwrap();
        assert_eq!(qb.gossip_stats().unwrap().crashes, 1);
        qb.fleet_rejoin(2).unwrap();
        let out = qb
            .search_request(at_frontend(2, "departures reroute"))
            .unwrap();
        assert_eq!(out.shards_fetched(), 0, "rejoin warms from the fleet");
        assert_eq!(qb.freshness.stale_results, 0);
        let stats = qb.gossip_stats().unwrap();
        assert_eq!(stats.leaves, 1);
        assert_eq!(stats.joins, 1, "rejoin counts as a join");
    }

    #[test]
    fn crashed_slot_keyspace_spreads_across_the_surviving_fleet() {
        use std::collections::HashSet;
        let mut qb = fleet_engine(8, true);
        // Peers whose rendezvous winner is slot 2 — the keyspace a crash
        // of that slot orphans.
        let orphans: Vec<u64> = (0..512u64)
            .filter(|&p| qb.route_frontend(&RoutingPolicy::HashPeer(p)).unwrap() == Some(2))
            .collect();
        assert!(
            orphans.len() > 16,
            "rendezvous gives slot 2 roughly 1/8 of 512 peers, got {}",
            orphans.len()
        );
        qb.fleet_leave(2, false).unwrap();
        let landed: HashSet<usize> = orphans
            .iter()
            .map(|&p| {
                let f = qb
                    .route_frontend(&RoutingPolicy::HashPeer(p))
                    .unwrap()
                    .expect("fleet mode");
                assert_ne!(f, 2, "crashed slot must not serve");
                f
            })
            .collect();
        // Each orphaned peer falls over to its own second choice, so the
        // dead slot's keyspace spreads across at least half the survivors.
        assert!(
            landed.len() * 2 >= 7,
            "orphans landed on only {} of 7 survivors",
            landed.len()
        );
        // The seed's ring walk dumps its entire orphaned keyspace (peers
        // hashing to slot 2 modulo 8) onto the single ring successor.
        let ring_landed: HashSet<usize> = (0..512u64)
            .filter(|p| p % 8 == 2)
            .map(|p| {
                qb.route_frontend(&RoutingPolicy::RingSuccessor(p))
                    .unwrap()
                    .expect("fleet mode")
            })
            .collect();
        assert_eq!(
            ring_landed,
            HashSet::from([3]),
            "ring-successor failover concentrates on one slot"
        );
    }

    #[test]
    fn writer_path_reuses_cached_shards_on_reindex() {
        let mut qb = cached_engine();
        let creator = AccountId(1_000);
        qb.publish(
            1,
            creator,
            &page("news/cycle", "rolling headline coverage", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        let (reads_v1, hits_v1) = qb.writer_cache_stats();
        assert!(reads_v1 > 0);
        assert_eq!(hits_v1, 0, "first index of each term must read the DHT");
        // Republishing the same page merges the same terms: the writer path
        // now serves them from its shard tier instead of re-reading the DHT.
        qb.publish(
            1,
            creator,
            &page("news/cycle", "rolling headline coverage", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        let (reads_v2, hits_v2) = qb.writer_cache_stats();
        assert!(reads_v2 > reads_v1);
        assert_eq!(
            hits_v2,
            reads_v2 - reads_v1,
            "every re-merged term should hit the writer cache"
        );
        // The version discipline held: the fresh version serves.
        let out = qb.search_request(from_peer(4, "headline")).unwrap();
        assert_eq!(out.hits[0].version, 2);
        assert_eq!(qb.freshness.stale_results, 0);
    }

    /// An engine with `frontends` frontends (cache on, no gossip; 0 leaves
    /// `num_frontends` unset, a fleet of one) or with the cache off
    /// (`None`), holding the
    /// `wiki/views` page indexed once; shards over `inline_threshold` bytes
    /// are pointer records.
    fn views_engine(frontends: Option<usize>, inline_threshold: usize) -> QueenBee {
        let mut config = QueenBeeConfig::small();
        config.shard_inline_threshold = inline_threshold;
        if let Some(n) = frontends {
            config.cache = qb_cache::CacheConfig::enabled();
            if n > 0 {
                config.gossip = qb_gossip::GossipConfig::fleet(n);
            }
        }
        let mut qb = QueenBee::new(config).unwrap();
        republish(&mut qb, "honey nectar from the meadow");
        qb
    }

    fn republish(qb: &mut QueenBee, body: &str) {
        let views = page("wiki/views", body, vec![]);
        qb.publish(5, AccountId(1_000), &views).unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
    }

    /// A fresh read of `term` from `frontend`, and the shard that frontend's
    /// tier holds after it.
    fn read_fresh(qb: &mut QueenBee, frontend: usize, term: &str) -> Arc<ShardEntry> {
        let request = at_frontend(frontend, term).freshness(Freshness::Fresh);
        let out = qb.search_request(request).unwrap();
        assert!(out.shards_fetched() > 0, "a fresh read fetches");
        let cache = frontend_cache(qb, frontend);
        Arc::clone(cache.peek_shard(term).expect("the fetch fanned out"))
    }

    fn is_pointer_record(qb: &QueenBee, term: &str) -> bool {
        let key = qb_common::DhtKey::for_term(term);
        let record = qb.dht.records_under(&key).next().expect("written");
        qb_index::shard_pointer_root(&record.value).is_some()
    }

    #[test]
    fn fresh_reads_of_an_unchanged_term_share_one_decoded_shard() {
        for (inline_threshold, pointer) in [(2048, false), (16, true)] {
            let mut qb = views_engine(Some(2), inline_threshold);
            let term = qb.analyzer.analyze("honey").remove(0);
            assert_eq!(is_pointer_record(&qb, &term), pointer);
            let first = read_fresh(&mut qb, 0, &term);
            let second = read_fresh(&mut qb, 1, &term);
            assert!(Arc::ptr_eq(&first, &second), "pointer record: {pointer}");
            assert_eq!(first.version, 1);
            // Re-reading displaces the tier's entry with the same handle.
            let again = read_fresh(&mut qb, 0, &term);
            assert!(Arc::ptr_eq(&first, &again));
        }
    }

    #[test]
    fn a_republish_reads_as_a_new_shard_equal_to_a_cache_off_decode() {
        for inline_threshold in [2048, 16] {
            let mut qb = views_engine(Some(2), inline_threshold);
            let mut plain = views_engine(None, inline_threshold);
            let term = qb.analyzer.analyze("honey").remove(0);
            let before = read_fresh(&mut qb, 0, &term);
            for engine in [&mut qb, &mut plain] {
                republish(engine, "honey honey and more honey");
            }
            let after = read_fresh(&mut qb, 1, &term);
            assert!(!Arc::ptr_eq(&before, &after));
            assert_eq!(after.version, before.version + 1);
            let (decoded, _) = plain
                .dist_index
                .read_shard_fresh(
                    &mut plain.net,
                    &mut plain.dht,
                    &mut plain.storage,
                    7,
                    &term,
                    0,
                )
                .unwrap();
            assert_eq!(*after, decoded);
            assert_eq!(after.postings[0].term_freq, 3);
        }
    }

    #[test]
    fn the_first_read_after_a_republish_returns_the_writers_handle() {
        let mut qb = views_engine(Some(0), 2048);
        let term = qb.analyzer.analyze("honey").remove(0);
        republish(&mut qb, "wild honey");
        let writer = qb.writer_cache.as_ref().unwrap().peek_shard(&term);
        let writer = Arc::clone(writer.expect("the writer keeps what it wrote"));
        let request = from_peer(3, &term).freshness(Freshness::Fresh);
        qb.search_request(request).unwrap();
        let served = frontend_cache(&qb, 0).peek_shard(&term).unwrap();
        assert!(Arc::ptr_eq(&writer, served));
    }

    #[test]
    fn a_live_view_never_stands_in_for_a_tampered_object() {
        let mut qb = views_engine(Some(2), 16);
        let term = qb.analyzer.analyze("honey").remove(0);
        let held = read_fresh(&mut qb, 0, &term);
        let key = qb_common::DhtKey::for_term(&term);
        let record = qb.dht.records_under(&key).next().unwrap();
        let root = qb_index::shard_pointer_root(&record.value).unwrap();
        // Every stored and cached copy of the object, as E4 tampers them.
        assert!(qb.storage.corrupt_all_copies(&root, b"<html>evil</html>") > 0);
        assert!(qb.shard_views.live() > 0, "the held shard's view is live");
        for frontend in [0, 1] {
            let request = at_frontend(frontend, &term).freshness(Freshness::Fresh);
            let err = qb.search_request(request).unwrap_err();
            assert!(
                matches!(err, QbError::IntegrityViolation { .. }),
                "{frontend}: {err}"
            );
        }
        drop(held);
    }

    #[test]
    fn with_the_cache_off_the_views_stay_within_twice_the_live_ones() {
        let mut qb = views_engine(None, 2048);
        for (i, body) in ["pollen and wax", "drones and queens"].iter().enumerate() {
            let extra = page(&format!("wiki/more{i}"), body, vec![]);
            qb.publish(6 + i as u64, AccountId(1_001), &extra).unwrap();
        }
        qb.seal();
        qb.process_publish_events().unwrap();
        let queries = [
            "honey pollen",
            "nectar drones",
            "meadow queens",
            "wax honey",
        ];
        let mut reads = 0;
        for i in 0..5_000 {
            // Every republish writes new records, so old views die.
            if i % 50 == 0 {
                republish(&mut qb, &format!("honey nectar from meadow {i}"));
            }
            let out = qb.search_request(from_peer(3, queries[i % 4])).unwrap();
            reads += out.shards_fetched();
            let views = &qb.shard_views;
            // 64: the fewest views the map keeps before it sweeps.
            assert!(views.len() <= 2 * views.live() + 64, "{}", views.len());
        }
        assert!(reads >= 10_000, "{reads} shard reads");
        assert!(!qb.shard_views.is_empty());
    }

    /// A lone cached engine is a fleet of one: with `num_frontends` left at
    /// 0 it serves, invalidates and moves simulated bytes exactly as a
    /// `GossipConfig::fleet(1)` engine, from one frontend every route lands
    /// on.
    #[test]
    fn a_lone_cached_engine_serves_as_a_fleet_of_one() {
        let script = |gossip: qb_gossip::GossipConfig| {
            let mut config = QueenBeeConfig::small();
            config.cache = qb_cache::CacheConfig::enabled();
            config.gossip = gossip;
            let mut qb = QueenBee::new(config).unwrap();
            let mut responses = Vec::new();
            for round in 0..3 {
                let body = format!("honey nectar meadow round {round}");
                qb.publish(1, AccountId(1_000), &page("wiki/hive", &body, vec![]))
                    .unwrap();
                qb.seal();
                qb.process_publish_events().unwrap();
                for (peer, query) in [(3, "honey"), (7, "meadow nectar"), (11, "honey")] {
                    let fresh = from_peer(peer, query).freshness(Freshness::Fresh);
                    for request in [from_peer(peer, query), fresh] {
                        responses.push(qb.search_request(request).unwrap());
                    }
                }
                qb.advance_time(SimDuration::from_millis(500));
            }
            (format!("{responses:?}"), qb.net.stats().clone(), qb)
        };
        let (lone, lone_net, qb) = script(qb_gossip::GossipConfig::default());
        let (fleet, fleet_net, _) = script(qb_gossip::GossipConfig::fleet(1));
        assert_eq!(lone, fleet);
        assert_eq!(lone_net, fleet_net);
        assert_eq!(qb.num_frontends(), 1);
        for p in 0..qb.config.num_peers as u64 {
            let routed = qb.route_frontend(&RoutingPolicy::HashPeer(p)).unwrap();
            assert_eq!(routed, Some(0), "peer {p}");
        }
    }

    #[test]
    fn warm_start_prefills_a_restarted_frontend() {
        let build = || {
            let mut qb = cached_engine();
            qb.publish(
                1,
                AccountId(1_000),
                &page(
                    "wiki/persist",
                    "warm start snapshots survive restarts",
                    vec![],
                ),
            )
            .unwrap();
            qb.seal();
            qb.process_publish_events().unwrap();
            qb
        };
        let mut first = build();
        let cold = first
            .search_request(from_peer(5, "snapshots survive"))
            .unwrap();
        assert!(cold.shards_fetched() > 0);
        let snapshot = first.export_hot_set(0, 16).expect("cache enabled");
        // Same deployment, restarted: import the previous session's hot set.
        let mut restarted = build();
        let admitted = restarted.import_hot_set(0, &snapshot).unwrap();
        assert!(admitted > 0);
        let warm = restarted
            .search_request(from_peer(5, "snapshots survive"))
            .unwrap();
        assert_eq!(
            warm.shards_fetched(),
            0,
            "pre-filled shards serve the first query"
        );
        assert!(warm.shard_cache_hits() > 0);
        assert_eq!(warm.hits, cold.hits);
    }

    #[test]
    fn ad_click_splits_revenue() {
        let mut qb = engine();
        qb.publish(
            1,
            AccountId(1_000),
            &page("shop/rust", "buy rusty decentralized widgets", vec![]),
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        let spec = AdSpec {
            advertiser: 5_000,
            keywords: vec![Analyzer::stem("widgets")],
            bid_per_click: 100,
            budget: 1_000,
        };
        qb.register_advertiser(&spec).unwrap();
        let out = qb
            .search_request(from_peer(3, "decentralized widgets"))
            .unwrap();
        assert!(out.ad.is_some(), "an ad should match the query");
        let creator_before = qb.chain.balance(AccountId(1_000));
        let clicked = qb.click_ad(&out).unwrap();
        assert!(clicked);
        assert!(qb.chain.balance(AccountId(1_000)) > creator_before);
        let roles = qb.honey_by_role();
        assert_eq!(roles.total(), qb.chain.accounts().total_supply());
    }
}

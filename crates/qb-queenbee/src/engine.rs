//! The QueenBee engine: orchestration of publish, indexing, ranking, search,
//! ads and incentives over the simulated DWeb.

use crate::attacks::{CollusionAttack, ScraperAttack};
use crate::bee::{BeeBehaviour, WorkerBee};
use crate::config::{QueenBeeConfig, BEE_STAKE, DUPLICATE_THRESHOLD, SLASH_AMOUNT};
use crate::defense::{verify_index_submissions, MinHashSignature};
use crate::metrics::{FreshnessProbe, HoneyByRole, QueryEngineStats};
use crate::query::admission::{IngressQueue, LoadReport, TimedRequest};
use crate::query::executor::{FetchSet, FetchedShard, WindowMemo};
use crate::query::pipeline::{PipelineConfig, PipelineDriver, PipelineOutcome};
use crate::query::plan::{plan_request, QueryPlan, StatsPlan, TermPlan};
use crate::query::request::{Freshness, RoutingPolicy, SearchRequest};
use crate::query::response::{paginate, SearchResponse, StageCosts, TermProvenance};
use qb_cache::{CacheMetrics, QueryCache, ShardLookup};
use qb_chain::{AccountId, Blockchain, Call, Event};
use qb_common::{DhtKey, Hash256, QbError, QbResult, SimDuration, SimInstant};
use qb_dht::DhtNetwork;
use qb_dweb::{fetch_page_by_cid, publish_page, WebPage};
use qb_gossip::{GossipFleet, GossipStats};
use qb_index::{Analyzer, DistributedIndex, IndexStats, ScoredDoc, ShardEntry};
use qb_rank::{LinkGraph, RankRoundReport};
use qb_segment::{publish_segment, Segment, SegmentRef, SegmentStats};
use qb_simnet::SimNet;
use qb_storage::{FetchStats, ObjectRef, StorageNetwork};
use qb_workload::AdSpec;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Outcome of a publish attempt.
#[derive(Debug, Clone)]
pub struct PublishReport {
    /// The page name.
    pub name: String,
    /// Whether the publish was accepted (false when rejected as a duplicate).
    pub accepted: bool,
    /// Why the publish was rejected, when it was.
    pub reject_reason: Option<String>,
    /// Content reference when accepted.
    pub object: Option<ObjectRef>,
    /// Storage/replication cost of the accepted publish.
    pub stats: FetchStats,
}

/// The (at most one) statistics read performed for a whole batch window,
/// shared by every query in the window that missed the stats cache.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SharedStatsRead {
    pub(crate) stats: IndexStats,
    pub(crate) latency: SimDuration,
    pub(crate) messages: u64,
    /// `seq` of the query that triggered (and is charged for) the read.
    pub(crate) charged_to: u64,
    /// When the read completed on the window's timeline.
    pub(crate) completed_at: SimInstant,
    /// Link queueing delay inside the read's wall time.
    pub(crate) queue_delay: SimDuration,
}

/// An in-flight statistics read of a pipeline window: the event-driven
/// [`qb_index::StatsReadMachine`] plus the accounting needed to fold its
/// result into a [`SharedStatsRead`] once it completes.
pub(crate) struct PendingStatsRead {
    pub(crate) charged_to: u64,
    pub(crate) span: Option<qb_trace::SpanId>,
    pub(crate) machine: qb_index::StatsReadMachine,
}

/// An in-flight shard read of a pipeline window, keyed like the
/// [`FetchSet`] entry it will become on completion.
pub(crate) struct PendingShardFetch {
    pub(crate) key: (Option<usize>, String),
    pub(crate) charged_to: u64,
    pub(crate) span: Option<qb_trace::SpanId>,
    pub(crate) machine: qb_index::ShardReadMachine,
}

/// Group a window's freshly fetched shard keys by serving frontend for
/// batch-aware gossip advertisement — the single definition both the
/// back-to-back (`search_batch`) and pipelined (`score_window`) paths use.
/// Only genuine batch windows (`batch` = the window held ≥ 2 queries)
/// advertise; single-query serving keeps the exact PR 4 protocol.
pub(crate) fn batch_advert_groups(
    fetched: &FetchSet,
    batch: bool,
) -> HashMap<usize, Vec<(String, u64)>> {
    let mut groups: HashMap<usize, Vec<(String, u64)>> = HashMap::new();
    if batch {
        for ((frontend, term), fetch) in fetched {
            if let (Some(f), true) = (frontend, fetch.shard.version > 0) {
                groups
                    .entry(*f)
                    .or_default()
                    .push((term.clone(), fetch.shard.version));
            }
        }
    }
    groups
}

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
    analyzer: Analyzer,
    bees: Vec<WorkerBee>,
    event_cursor: usize,
    index_stats: IndexStats,
    /// Highest shard version this engine has written per term. DHT reads can
    /// return a stale local replica; taking the max with this counter keeps
    /// shard versions monotonic so replicas never reject a newer write.
    shard_versions: HashMap<String, u64>,
    indexed_docs: HashMap<String, (u64, u32)>,
    /// Terms each indexed document currently appears under, so re-indexing a
    /// new page version can remove the document from shards of terms it no
    /// longer contains (otherwise dropped terms would keep serving stale
    /// versions of the page forever).
    indexed_terms: HashMap<String, BTreeSet<String>>,
    ranks_by_name: HashMap<String, f64>,
    rank_round: u64,
    signatures: HashMap<String, (u64, MinHashSignature)>,
    known_creators: BTreeSet<AccountId>,
    known_advertisers: BTreeSet<AccountId>,
    query_counter: u64,
    /// The frontend query-serving cache, when enabled in the configuration
    /// (single-frontend mode; `None` while checked out by the search path
    /// or when a fleet is configured instead).
    cache: Option<QueryCache>,
    /// The frontend fleet with per-frontend caches and the cache-gossip
    /// overlay, when `config.gossip.num_frontends > 0`.
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
    /// Genuine intersect+score computations across every search served
    /// (window-memo hits excluded — that is the CPU the memo saves).
    score_invocations: u64,
    /// Scored lists served from a pipelined run's window memo.
    window_memo_hits: u64,
    /// Partial intersections reused across prefix-sharing queries.
    window_memo_partial_hits: u64,
    /// Windows executed by the pipelined engine.
    pipelined_windows: u64,
    /// Queries served through the pipelined engine.
    pipelined_queries: u64,
    /// Freshness accounting across every search served.
    pub freshness: FreshnessProbe,
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
        let mut chain = Blockchain::new(config.chain.clone());

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
            bees,
            event_cursor: chain.events().len(),
            index_stats: IndexStats::default(),
            shard_versions: HashMap::new(),
            indexed_docs: HashMap::new(),
            indexed_terms: HashMap::new(),
            ranks_by_name: HashMap::new(),
            rank_round: 0,
            signatures: HashMap::new(),
            known_creators: BTreeSet::new(),
            known_advertisers: BTreeSet::new(),
            query_counter: 0,
            cache: (config.cache.enabled && config.gossip.num_frontends == 0)
                .then(|| QueryCache::new(config.cache.clone())),
            fleet: (config.gossip.num_frontends > 0)
                .then(|| GossipFleet::new(config.gossip.clone(), &config.cache, config.seed)),
            writer_cache: config
                .cache
                .enabled
                .then(|| QueryCache::new(config.cache.clone())),
            pending_segment: Segment::new(),
            published_segment: Segment::new(),
            published_segment_ref: None,
            segment_stats: SegmentStats::default(),
            join_peer_cursor: config.gossip.num_frontends as u64,
            writer_shard_reads: 0,
            writer_shard_cache_hits: 0,
            score_invocations: 0,
            window_memo_hits: 0,
            window_memo_partial_hits: 0,
            pipelined_windows: 0,
            pipelined_queries: 0,
            freshness: FreshnessProbe::default(),
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

    /// Per-tier counters of the query-serving cache, when it is enabled. In
    /// fleet mode this is the aggregate over every frontend's cache.
    pub fn cache_metrics(&self) -> Option<CacheMetrics> {
        if let Some(fleet) = &self.fleet {
            let mut total = CacheMetrics::default();
            for i in 0..fleet.len() {
                total.merge(&fleet.frontend(i).cache().metrics());
            }
            return Some(total);
        }
        self.cache.as_ref().map(|c| c.metrics())
    }

    /// The frontend fleet, when fleet mode is configured.
    pub fn fleet(&self) -> Option<&GossipFleet> {
        self.fleet.as_ref()
    }

    /// Number of frontends (0 outside fleet mode).
    pub fn num_frontends(&self) -> usize {
        self.fleet.as_ref().map(|f| f.len()).unwrap_or(0)
    }

    /// Cumulative gossip counters, when a fleet is configured.
    pub fn gossip_stats(&self) -> Option<GossipStats> {
        self.fleet.as_ref().map(|f| *f.stats())
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

    /// The fleet, or the "`op` needs a frontend fleet" error. Takes the field,
    /// not `self`, so callers keep `self.net` free for the fleet call.
    fn fleet_mut<'a>(
        fleet: &'a mut Option<GossipFleet>,
        op: &str,
    ) -> QbResult<&'a mut GossipFleet> {
        fleet.as_mut().ok_or_else(|| {
            QbError::Config(format!(
                "{op} needs a frontend fleet (config.gossip.num_frontends > 0)"
            ))
        })
    }

    /// Claim the next free user-device peer for a joining frontend. The
    /// fleet is checked before the cursor moves: an engine without a fleet
    /// claims nothing.
    fn claim_join_peer(&mut self, op: &str) -> QbResult<u64> {
        let peer = self.join_peer_cursor;
        if peer as usize >= self.config.num_peers - self.config.num_bees {
            return Err(QbError::Config(
                "no free peer left to host a new frontend".into(),
            ));
        }
        Self::fleet_mut(&mut self.fleet, op)?;
        self.join_peer_cursor += 1;
        Ok(peer)
    }

    /// A new frontend joins the running fleet on the next free user-device
    /// peer (initial frontends occupy the lowest peer ids and worker bees
    /// the highest; the ordinary devices in between can host late
    /// joiners). The joiner bootstraps its cache by one anti-entropy
    /// exchange with a live neighbour — warming from the fleet instead of
    /// the DHT — and the rest of the fleet learns about it through gossiped
    /// heartbeats. Returns the new frontend's index.
    pub fn fleet_join(&mut self) -> QbResult<usize> {
        let now = self.net.now();
        let peer = self.claim_join_peer("fleet_join")?;
        let fleet = Self::fleet_mut(&mut self.fleet, "fleet_join")?;
        fleet.join(&mut self.net, peer, now)
    }

    /// Like [`QueenBee::fleet_join`], but the joiner first tries to
    /// bulk-bootstrap its cache from the fleet's newest published segment
    /// artifact (probing live neighbours for their advertised pointer,
    /// fetching the artifact through storage + DHT, importing it through
    /// the version guard, then one delta catch-up exchange), falling back
    /// to the ordinary gossip bootstrap when no artifact is advertised or
    /// the fetch fails. Returns the frontend index and a report of what
    /// the bootstrap actually did.
    pub fn fleet_join_with_segment(
        &mut self,
    ) -> QbResult<(usize, qb_gossip::SegmentBootstrapReport)> {
        let now = self.net.now();
        let peer = self.claim_join_peer("fleet_join_with_segment")?;
        let fleet = Self::fleet_mut(&mut self.fleet, "fleet_join_with_segment")?;
        let (idx, report) =
            fleet.join_with_segment(&mut self.net, &mut self.dht, &mut self.storage, peer, now)?;
        if report.used_segment {
            self.segment_stats.segments_fetched += 1;
            self.segment_stats.fetch_bytes += report.fetch_bytes;
            self.segment_stats.fetch_messages += report.fetch_messages;
        }
        self.segment_stats.record_import(&report.imported);
        Ok((idx, report))
    }

    /// Frontend `frontend` leaves the fleet: gracefully (departure notices
    /// let partners drop it immediately) or by crash (the fleet detects the
    /// silence via heartbeats and evicts it). Its slot index stays valid
    /// but routing to it fails until [`QueenBee::fleet_rejoin`].
    pub fn fleet_leave(&mut self, frontend: usize, graceful: bool) -> QbResult<()> {
        let fleet = Self::fleet_mut(&mut self.fleet, "fleet_leave")?;
        if frontend >= fleet.len() {
            return Err(QbError::Config(format!(
                "frontend {frontend} out of range (fleet has {})",
                fleet.len()
            )));
        }
        if graceful {
            fleet.leave(&mut self.net, frontend);
        } else {
            fleet.crash(&mut self.net, frontend);
        }
        Ok(())
    }

    /// A departed frontend restarts on its old peer with a fresh cache,
    /// warming itself from a live neighbour by anti-entropy (not the DHT);
    /// its bumped heartbeat supersedes every stale view of it.
    pub fn fleet_rejoin(&mut self, frontend: usize) -> QbResult<()> {
        let now = self.net.now();
        let fleet = Self::fleet_mut(&mut self.fleet, "fleet_rejoin")?;
        if frontend >= fleet.len() {
            return Err(QbError::Config(format!(
                "frontend {frontend} out of range (fleet has {})",
                fleet.len()
            )));
        }
        if fleet.is_active(frontend) {
            return Err(QbError::Config(format!(
                "frontend {frontend} is still active; only departed frontends rejoin"
            )));
        }
        fleet.rejoin(&mut self.net, frontend, now);
        Ok(())
    }

    /// Force one gossip round right now (experiments and tests; normal
    /// operation paces rounds by `qb_gossip::config::ROUND_INTERVAL` as simulated
    /// time advances). `anti_entropy` swaps full digests instead of hot
    /// sets.
    pub fn run_gossip_round(&mut self, anti_entropy: bool) {
        let now = self.net.now();
        if let Some(fleet) = self.fleet.as_mut() {
            fleet.run_round(&mut self.net, now, anti_entropy);
        }
    }

    /// Snapshot the hottest cached shards of the single-mode cache or of
    /// fleet frontend `frontend`, for warm-start persistence across engine
    /// restarts.
    pub fn export_hot_set(&self, frontend: usize, max: usize) -> Option<Vec<u8>> {
        let now = self.net.now();
        if let Some(fleet) = &self.fleet {
            return (frontend < fleet.len()).then(|| fleet.export_hot_set(frontend, max, now));
        }
        self.cache.as_ref().map(|c| c.export_hot_set(max, now))
    }

    /// Pre-fill the shard tier of the single-mode cache or of fleet
    /// frontend `frontend` from a previous session's snapshot. Read-time
    /// version checks still purge anything that went stale while the
    /// frontend was down. Returns the number of shards admitted.
    pub fn import_hot_set(&mut self, frontend: usize, data: &[u8]) -> QbResult<usize> {
        let now = self.net.now();
        if let Some(fleet) = self.fleet.as_mut() {
            return fleet.import_hot_set(frontend, data, now);
        }
        match self.cache.as_mut() {
            Some(c) => c.import_hot_set(data, now),
            None => Err(QbError::Config(
                "no query cache enabled; nothing to warm-start".into(),
            )),
        }
    }

    /// The worker bees.
    pub fn bees(&self) -> &[WorkerBee] {
        &self.bees
    }

    /// Accounts of all worker bees.
    pub fn bee_accounts(&self) -> Vec<AccountId> {
        self.bees.iter().map(|b| b.account).collect()
    }

    /// Accounts of all creators seen so far.
    pub fn creator_accounts(&self) -> Vec<AccountId> {
        self.known_creators.iter().copied().collect()
    }

    /// Accounts of all advertisers registered so far.
    pub fn advertiser_accounts(&self) -> Vec<AccountId> {
        self.known_advertisers.iter().copied().collect()
    }

    /// PageRank of a page name (0 when not ranked yet).
    pub fn rank_of(&self, name: &str) -> f64 {
        self.ranks_by_name.get(name).copied().unwrap_or(0.0)
    }

    /// Change the behaviour of one bee (attack setup).
    pub fn set_bee_behaviour(&mut self, bee_index: usize, behaviour: BeeBehaviour) -> QbResult<()> {
        let num_bees = self.bees.len();
        let bee = self.bees.get_mut(bee_index).ok_or_else(|| {
            QbError::Config(format!(
                "bee index {bee_index} out of range (valid: 0..{num_bees})"
            ))
        })?;
        bee.behaviour = behaviour;
        Ok(())
    }

    /// Turn the first `colluders(n)` bees into the given coalition.
    pub fn apply_collusion(&mut self, attack: &CollusionAttack) {
        let n = attack.colluders(self.bees.len());
        for bee in self.bees.iter_mut().take(n) {
            bee.behaviour = BeeBehaviour::Colluding {
                boost_pages: attack.boost_pages.clone(),
                boost_tf: attack.boost_tf,
                rank_factor: attack.rank_factor,
            };
        }
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

    /// Run gossip rounds that are due at the current simulated time.
    fn run_due_gossip(&mut self) {
        let now = self.net.now();
        if let Some(fleet) = self.fleet.as_mut() {
            fleet.maybe_run(&mut self.net, now);
        }
    }

    /// Seal the next block on the chain.
    pub fn seal(&mut self) {
        self.chain.seal_block(self.net.now());
    }

    // ----- publish -----------------------------------------------------------------

    /// Publish a page from `peer` on behalf of `creator`. When duplicate
    /// detection is enabled and the body is a near-duplicate of a page owned
    /// by a *different* creator, the publish is rejected (the scraper-site
    /// defense) and nothing is stored or rewarded.
    pub fn publish(
        &mut self,
        peer: u64,
        creator: AccountId,
        page: &WebPage,
    ) -> QbResult<PublishReport> {
        if self.config.duplicate_detection {
            let sig = MinHashSignature::of_text(&page.body);
            for (other_name, (other_creator, other_sig)) in &self.signatures {
                if *other_creator != creator.0
                    && other_name != &page.name
                    && sig.similarity(other_sig) >= DUPLICATE_THRESHOLD
                {
                    return Ok(PublishReport {
                        name: page.name.clone(),
                        accepted: false,
                        reject_reason: Some(format!(
                            "near-duplicate of '{other_name}' owned by account {other_creator}"
                        )),
                        object: None,
                        stats: FetchStats::default(),
                    });
                }
            }
        }
        let outcome = publish_page(
            &mut self.net,
            &mut self.dht,
            &mut self.storage,
            &mut self.chain,
            peer,
            creator,
            page,
        )?;
        self.signatures.insert(
            page.name.clone(),
            (creator.0, MinHashSignature::of_text(&page.body)),
        );
        self.known_creators.insert(creator);
        Ok(PublishReport {
            name: page.name.clone(),
            accepted: true,
            reject_reason: None,
            object: Some(outcome.object),
            stats: outcome.stats,
        })
    }

    /// Run a scraper attack: mirror the `num_mirrors` highest-ranked pages
    /// under scraper-owned names. Returns per-mirror publish reports (some of
    /// which will be rejected when duplicate detection is on).
    pub fn run_scraper_attack(
        &mut self,
        attack: &ScraperAttack,
        victim_pages: &[WebPage],
    ) -> QbResult<Vec<PublishReport>> {
        let mut rng = qb_common::DetRng::new(self.config.seed ^ 0x5C0A);
        let peer = 0u64;
        let mut reports = Vec::new();
        for (i, victim) in victim_pages.iter().take(attack.num_mirrors).enumerate() {
            let mirror = attack.mirror_page(victim, i, &mut rng);
            let report = self.publish(peer, AccountId(attack.scraper_account), &mirror)?;
            reports.push(report);
        }
        self.seal();
        Ok(reports)
    }

    // ----- worker bees: indexing ---------------------------------------------------

    /// Process every publish event that appeared on the chain since the last
    /// call: a quorum of bees independently indexes each new page version,
    /// submissions are verified by majority vote, accepted postings are
    /// merged into the distributed index, honest bees claim their bounties
    /// and deviating bees are slashed. Returns the number of events handled.
    ///
    /// The indexing path reuses the query cache's shard tier under the same
    /// version discipline as the frontend: a term's shard is read through
    /// the cache (sparing the per-merge DHT round-trip the seed paid), and
    /// after the merged shard is written back it is stored under its new
    /// version while results/negatives touching the term are purged.
    pub fn process_publish_events(&mut self) -> QbResult<usize> {
        // The writer path borrows its cache alongside the rest of the
        // engine: check it out for the duration.
        let mut wcache = self.writer_cache.take();
        let result = self.process_publish_events_inner(&mut wcache);
        self.writer_cache = wcache;
        result
    }

    fn process_publish_events_inner(&mut self, wcache: &mut Option<QueryCache>) -> QbResult<usize> {
        let now = self.net.now();
        let events: Vec<Event> = self
            .chain
            .events_since(self.event_cursor)
            .iter()
            .map(|(_, e)| e.clone())
            .collect();
        self.event_cursor = self.chain.events().len();
        let mut handled = 0usize;
        let validator = qb_chain::VALIDATORS[0];

        for event in events {
            let Event::PagePublished {
                creator,
                name,
                cid,
                version,
                ..
            } = event
            else {
                continue;
            };
            handled += 1;
            // Assign a quorum of bees, deterministically, rotating per event.
            let quorum = self.config.index_quorum.min(self.bees.len()).max(1);
            let assigned: Vec<usize> = (0..quorum)
                .map(|j| {
                    (handled + self.event_cursor + j * (self.bees.len() / quorum).max(1))
                        % self.bees.len()
                })
                .fold(Vec::new(), |mut acc, b| {
                    if !acc.contains(&b) {
                        acc.push(b);
                    } else {
                        // Collision: take the next free bee.
                        let mut alt = (b + 1) % self.bees.len();
                        while acc.contains(&alt) {
                            alt = (alt + 1) % self.bees.len();
                        }
                        acc.push(alt);
                    }
                    acc
                });

            // The first assigned bee fetches the page content once; in the
            // real system each bee would fetch it, which only multiplies the
            // (already accounted) fetch cost.
            let fetch_peer = self.bees[assigned[0]].peer;
            let page = match fetch_page_by_cid(
                &mut self.net,
                &mut self.dht,
                &mut self.storage,
                fetch_peer,
                cid,
            ) {
                Ok((page, _stats)) => page,
                Err(e) if e.is_availability() => continue,
                Err(e) => return Err(e),
            };
            let text = page.text();

            // Each assigned bee produces its index deltas.
            let submissions: Vec<Vec<(String, qb_index::ShardPosting)>> = assigned
                .iter()
                .map(|&b| self.bees[b].index_page(&self.analyzer, &name, version, creator.0, &text))
                .collect();
            let verdict = verify_index_submissions(&submissions);

            // Slash flagged bees and record the flag.
            for &local_idx in &verdict.flagged {
                let bee_idx = assigned[local_idx];
                self.bees[bee_idx].times_flagged += 1;
                let offender = self.bees[bee_idx].account;
                self.chain.submit_call(
                    validator,
                    Call::SlashStake {
                        offender,
                        amount: SLASH_AMOUNT,
                    },
                );
            }

            // Merge accepted postings into the distributed index, grouped by term.
            let writer = assigned
                .iter()
                .enumerate()
                .find(|(local, _)| !verdict.flagged.contains(local))
                .map(|(_, &b)| b)
                .unwrap_or(assigned[0]);
            let writer_peer = self.bees[writer].peer;
            // Merge in sorted term order: shard writes consume simulated
            // network randomness, so iteration order must be deterministic
            // for runs to reproduce bit-for-bit.
            let mut by_term: BTreeMap<String, Vec<qb_index::ShardPosting>> = BTreeMap::new();
            for (term, posting) in verdict.accepted {
                by_term.entry(term).or_default().push(posting);
            }
            for (term, postings) in by_term {
                let mut shard = self.read_shard_for_writer(wcache, writer_peer, &term)?;
                for p in postings {
                    shard.upsert(p);
                }
                self.write_shard(wcache, writer_peer, shard, now)?;
            }

            // Remove the document from shards of terms the new version no
            // longer contains, so a republished page never leaves ghost
            // postings serving a stale version under its dropped terms.
            let term_freqs = self.analyzer.term_frequencies(&text);
            let new_terms: BTreeSet<String> = term_freqs.iter().map(|(t, _)| t.clone()).collect();
            let old_terms = self
                .indexed_terms
                .insert(name.clone(), new_terms.clone())
                .unwrap_or_default();
            let doc_id = qb_index::doc_id_for_name(&name);
            for term in old_terms.difference(&new_terms) {
                let mut shard = self.read_shard_for_writer(wcache, writer_peer, term)?;
                if !shard.remove(doc_id) {
                    continue;
                }
                // The shrunk shard rides the next segment artifact too: its
                // bumped version dominates the fatter copy on merge, so a
                // bootstrap from the artifact never resurrects the removed
                // posting.
                self.write_shard(wcache, writer_peer, shard, now)?;
            }

            // Update the collection statistics.
            let doc_len: u32 = term_freqs.iter().map(|(_, f)| *f).sum();
            match self.indexed_docs.insert(name.clone(), (version, doc_len)) {
                Some((_, old_len)) => {
                    self.index_stats.total_len =
                        self.index_stats.total_len - old_len as u64 + doc_len as u64;
                }
                None => {
                    self.index_stats.num_docs += 1;
                    self.index_stats.total_len += doc_len as u64;
                }
            }

            // Reward claims for the assigned, non-flagged bees.
            for (local, &bee_idx) in assigned.iter().enumerate() {
                if verdict.flagged.contains(&local) {
                    continue;
                }
                self.bees[bee_idx].pages_indexed += 1;
                self.bees[bee_idx].tasks_rewarded += 1;
                let account = self.bees[bee_idx].account;
                self.chain.submit_call(
                    account,
                    Call::ClaimIndexReward {
                        page_name: name.clone(),
                        page_version: version,
                    },
                );
            }
        }

        if handled > 0 {
            // Publish the updated collection statistics once per batch.
            self.index_stats.version += 1;
            let stats = self.index_stats;
            let peer = self.bees[0].peer;
            self.dist_index
                .write_stats(&mut self.net, &mut self.dht, peer, &stats)?;
            self.maybe_compact_segments()?;
        }
        self.chain.seal_block(self.net.now());
        self.event_cursor = self.chain.events().len();
        Ok(handled)
    }

    /// Compact when the pending segment crossed a configured threshold
    /// (terms or encoded bytes). Called once per publish batch.
    fn maybe_compact_segments(&mut self) -> QbResult<()> {
        if !self.config.segment.enabled || self.pending_segment.is_empty() {
            return Ok(());
        }
        if self.pending_segment.len() >= self.config.segment.max_pending_terms
            || self.pending_segment.encoded_len() >= self.config.segment.max_pending_bytes
        {
            self.compact_segments()?;
        }
        Ok(())
    }

    /// Force a writer compaction now: fold the pending shards into the
    /// last published artifact (version-vector-dominant merge, so a
    /// republished term's newer shard wins wholesale), publish the merged
    /// segment into the content-addressed storage DAG under the next
    /// generation, and advertise the new pointer to every frontend that
    /// can currently observe the writer. Returns the new pointer, or
    /// `None` when segments are disabled or nothing is pending.
    pub fn compact_segments(&mut self) -> QbResult<Option<SegmentRef>> {
        if !self.config.segment.enabled || self.pending_segment.is_empty() {
            return Ok(None);
        }
        let pending = std::mem::take(&mut self.pending_segment);
        let prev = std::mem::take(&mut self.published_segment);
        let input_terms = (pending.len() + prev.len()) as u64;
        let merged = Segment::merge([prev, pending]);
        let generation = self.published_segment_ref.map_or(0, |r| r.generation) + 1;
        let writer_peer = self.bees[0].peer;
        match publish_segment(
            &mut self.net,
            &mut self.dht,
            &mut self.storage,
            writer_peer,
            &merged,
            generation,
        ) {
            Ok((sref, io)) => {
                self.segment_stats.segments_published += 1;
                self.segment_stats.publish_bytes += io.bytes;
                self.segment_stats.compactions += 1;
                self.segment_stats.compaction_input_terms += input_terms;
                if let Some(fleet) = self.fleet.as_mut() {
                    fleet.note_segment_published(&self.net, writer_peer, sref);
                }
                self.published_segment = merged;
                self.published_segment_ref = Some(sref);
                Ok(Some(sref))
            }
            Err(e) => {
                // Nothing is lost on a failed publish: the merged content
                // goes back to pending (the merge is idempotent, so
                // re-folding already-published shards is harmless) and the
                // next compaction retries at the same generation.
                self.pending_segment = merged;
                Err(e)
            }
        }
    }

    /// Cumulative segment-subsystem counters (publishes, fetches,
    /// compactions, import admissions).
    pub fn segment_stats(&self) -> SegmentStats {
        self.segment_stats
    }

    /// Pointer to the newest segment artifact this engine published.
    pub fn latest_segment(&self) -> Option<SegmentRef> {
        self.published_segment_ref
    }

    /// Terms currently accumulated in the pending (unpublished) segment.
    pub fn pending_segment_terms(&self) -> usize {
        self.pending_segment.len()
    }

    /// Read a term's shard on the indexing path: the writer cache's shard
    /// tier first (validated against the engine's current version for the
    /// term), the DHT only on a genuine miss. The writer is about to change
    /// the shard, so this is the one place a cached shard is copied.
    fn read_shard_for_writer(
        &mut self,
        wcache: &mut Option<QueryCache>,
        writer_peer: u64,
        term: &str,
    ) -> QbResult<qb_index::ShardEntry> {
        self.writer_shard_reads += 1;
        let now = self.net.now();
        let current_version = self.shard_versions.get(term).copied().unwrap_or(0);
        if let Some(cache) = wcache.as_mut() {
            match cache.lookup_shard(term, now, current_version) {
                ShardLookup::Hit(shard) => {
                    self.writer_shard_cache_hits += 1;
                    return Ok(Arc::unwrap_or_clone(shard));
                }
                // A term proven absent at the current version reads as an
                // empty shard, exactly what the DHT would return.
                ShardLookup::Negative => {
                    self.writer_shard_cache_hits += 1;
                    return Ok(ShardEntry::empty(term));
                }
                ShardLookup::Miss => {}
            }
        }
        let (shard, _cost) = self.dist_index.read_shard_fresh(
            &mut self.net,
            &mut self.dht,
            &mut self.storage,
            writer_peer,
            term,
            current_version,
        )?;
        Ok(shard)
    }

    /// Write a shard the indexing path just changed, under the term's next
    /// version, and do the post-write bookkeeping: publish-path invalidation
    /// (results/negatives touching the term die, the republish is recorded
    /// for the adaptive TTL policy), the written shard re-enters the writer
    /// cache under its new version, in fleet mode every frontend that can
    /// observe the publish invalidates too, and with segments on the shard
    /// joins the pending artifact. Once written the shard is immutable: the
    /// writer cache and the pending segment share one copy of it.
    fn write_shard(
        &mut self,
        wcache: &mut Option<QueryCache>,
        writer_peer: u64,
        mut shard: ShardEntry,
        now: qb_common::SimInstant,
    ) -> QbResult<()> {
        let next_version = self
            .shard_versions
            .get(&shard.term)
            .copied()
            .unwrap_or(0)
            .max(shard.version)
            + 1;
        shard.version = next_version;
        self.shard_versions.insert(shard.term.clone(), next_version);
        self.dist_index.write_shard(
            &mut self.net,
            &mut self.dht,
            &mut self.storage,
            writer_peer,
            &shard,
        )?;
        // The copy that stays resident keeps no growth slack.
        shard.postings.shrink_to_fit();
        let shard = Arc::new(shard);
        if let Some(cache) = wcache.as_mut() {
            cache.invalidate_term(&shard.term, now);
            cache.store_shard_handle(&shard, now);
        }
        // Publish-path invalidation on the serving side: the single-mode
        // frontend cache always observes the publish; fleet frontends only
        // when they can currently reach the writer (a partitioned frontend
        // misses it and catches up through read-time version checks and
        // anti-entropy once the partition heals).
        if let Some(cache) = self.cache.as_mut() {
            cache.invalidate_term(&shard.term, now);
        }
        if let Some(fleet) = self.fleet.as_mut() {
            fleet.observe_publish(&self.net, writer_peer, &shard.term, shard.version, now);
        }
        if self.config.segment.enabled {
            self.pending_segment.insert(shard);
        }
        Ok(())
    }

    // ----- worker bees: page rank --------------------------------------------------

    /// Run one decentralized PageRank round over the current registry's link
    /// graph: bees compute blocks redundantly, manipulated submissions are
    /// flagged and slashed, ranks are stored in decentralized storage, rank
    /// bounties are claimed and popularity rewards paid.
    pub fn run_rank_round(&mut self) -> QbResult<RankRoundReport> {
        let mut graph = LinkGraph::new();
        // The registry iterates a HashMap; sort by name before assigning
        // node ids. Ids drive the block partition of the decentralized
        // computation (and, under collusion, which quorum medians see the
        // boosted targets), so an unordered walk makes rank output differ
        // between runs of the same simulation.
        let mut pages: Vec<(String, Vec<String>, AccountId)> = self
            .chain
            .publish_registry()
            .pages()
            .map(|p| (p.name.clone(), p.out_links.clone(), p.creator))
            .collect();
        pages.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, links, _) in &pages {
            graph.set_links(name, links);
        }

        // Resolve the coalition's boost targets to node ids.
        let behaviours: Vec<qb_rank::BeeRankBehaviour> = self
            .bees
            .iter()
            .map(|bee| {
                let targets: Vec<usize> = match &bee.behaviour {
                    BeeBehaviour::Colluding { boost_pages, .. } => {
                        boost_pages.iter().filter_map(|p| graph.id_of(p)).collect()
                    }
                    _ => Vec::new(),
                };
                bee.rank_behaviour(&targets)
            })
            .collect();

        let report = self.config.rank.run(&graph, &behaviours);
        self.rank_round += 1;

        // Store the rank vector in decentralized storage with a DHT pointer
        // ("page ranks ... hosted in a decentralized storage").
        self.ranks_by_name = report
            .ranks
            .iter()
            .enumerate()
            .map(|(i, r)| (graph.name_of(i).to_string(), *r))
            .collect();
        if !self.ranks_by_name.is_empty() {
            let mut encoded = String::new();
            let mut names: Vec<&String> = self.ranks_by_name.keys().collect();
            names.sort();
            for name in names {
                encoded.push_str(&format!("{name}\t{:.9}\n", self.ranks_by_name[name]));
            }
            let peer = self.bees[0].peer;
            let (obj, _stats) =
                self.storage
                    .put_object(&mut self.net, &mut self.dht, peer, encoded.as_bytes())?;
            let key = DhtKey(Hash256::digest(b"rank:@vector"));
            self.dht.put_record(
                &mut self.net,
                peer,
                key,
                obj.root.0.as_bytes().to_vec(),
                self.rank_round,
            )?;
        }

        // Slash bees flagged during rank verification, pay the others.
        let validator = qb_chain::VALIDATORS[0];
        for (i, bee) in self.bees.iter_mut().enumerate() {
            if report.flagged_bees.contains(&i) {
                bee.times_flagged += 1;
                self.chain.submit_call(
                    validator,
                    Call::SlashStake {
                        offender: bee.account,
                        amount: SLASH_AMOUNT,
                    },
                );
            } else {
                bee.tasks_rewarded += 1;
                self.chain.submit_call(
                    bee.account,
                    Call::ClaimRankReward {
                        round: self.rank_round,
                        block_id: i as u64,
                    },
                );
            }
        }

        // Popularity rewards for creators whose pages exceed the threshold.
        let payouts: Vec<(AccountId, String, u64)> = pages
            .iter()
            .map(|(name, _, creator)| {
                let ppm = (self.rank_of(name) * 1_000_000.0) as u64;
                (*creator, name.clone(), ppm)
            })
            .collect();
        if !payouts.is_empty() {
            self.chain
                .submit_call(validator, Call::PayPopularityRewards { pages: payouts });
        }
        self.chain.seal_block(self.net.now());
        Ok(report)
    }

    // ----- frontend: search and ads ------------------------------------------------

    /// Serve one [`SearchRequest`] through the staged planner/executor
    /// pipeline (a batch window of one; see [`QueenBee::search_batch`]):
    /// fetch the query terms' shards through the DHT (or serve them from
    /// the query cache when enabled), intersect, score with BM25 blended
    /// with PageRank, and attach the highest-bidding matching ad.
    pub fn search_request(&mut self, request: SearchRequest) -> QbResult<SearchResponse> {
        let mut responses = self.search_batch(vec![request])?;
        Ok(responses.remove(0))
    }

    /// Serve a batch of requests as one window: every request is **planned**
    /// first (term analysis plus cache probes, no network traffic), then the
    /// executor fetches each distinct missing term shard **once** — the
    /// window's fetches run conceptually in parallel, so simulated latency
    /// is the max over distinct fetches, not a per-query sum — and fans the
    /// shard out to every query in the batch that needs it. 64 Zipf queries
    /// sharing a hot head term cost one DHT round-trip instead of 64. The
    /// statistics record is likewise read at most once per window.
    ///
    /// Sharing is scoped to the serving frontend: in fleet mode, queries
    /// routed to different frontends do not ride each other's fetches —
    /// frontends are separate machines, and moving shards between them is
    /// the gossip overlay's (network-charged) job. In single mode the whole
    /// window shares.
    ///
    /// Responses come back in request order and are byte-identical to
    /// executing the same requests sequentially (experiment E11 asserts
    /// this). An invalid request (no searchable terms, bad routing) or a
    /// failed fetch aborts the whole batch with the first error.
    pub fn search_batch(&mut self, requests: Vec<SearchRequest>) -> QbResult<Vec<SearchResponse>> {
        let now = self.net.now();
        let batch = requests.len() >= 2 && self.fleet.is_some();

        // Stage 1: plan every request against its frontend's cache tiers.
        // Planning records no spans, so the window span opens only once the
        // window is known to be valid.
        let plans = self.plan_window(requests)?;
        let window_span = self
            .net
            .tracer()
            .open_with("window", now, || format!("{} queries", plans.len()));

        // Stage 2: fetch each distinct missing term shard once, plus at most
        // one statistics read for the whole window. A failed fetch must not
        // leave the span open, or every later query would nest under it.
        let (fetched, stats_read) = match self.fetch_window(&plans) {
            Ok(window) => window,
            Err(e) => {
                self.net.tracer().close(window_span, now);
                return Err(e);
            }
        };

        // Stage 3: score, paginate and assemble each response, fanning the
        // window's fetched shards out into every participating cache.
        let batch_fetched = batch_advert_groups(&fetched, batch);
        let mut responses = Vec::with_capacity(plans.len());
        for plan in plans {
            responses.push(self.serve_plan(plan, &fetched, &stats_read, now, None));
        }
        let window_end = now
            + responses
                .iter()
                .map(|r| r.latency)
                .max()
                .unwrap_or(SimDuration::ZERO);
        self.net.tracer().close(window_span, window_end);
        // One root tree per response, rebuilt from its staged costs so the
        // closed-loop path gets the same query/plan/fetch/score shape the
        // open-loop server records.
        if self.net.tracing_enabled() {
            for response in &responses {
                self.record_query_tree(response, now, now + response.latency, None);
            }
        }
        // Batch-aware gossip: a genuine batch window's fetched shard keys
        // enter the serving frontends' next digest round.
        for (frontend, terms) in batch_fetched {
            self.note_batch_fetches(frontend, &terms);
        }
        if self.fleet.is_some() {
            self.run_due_gossip();
        }
        Ok(responses)
    }

    /// Record one per-query span tree on the tracer: a `query` root over
    /// the sojourn (or service) interval with `queue_wait` /
    /// `cache_serve` / staged-cost children, so critical-path analysis can
    /// attribute a query's latency without knowing engine internals. The
    /// children come from the response's [`StageCosts`] — the pipelined
    /// paths run fetches on a virtual timeline, so stage spans are rebuilt
    /// here rather than opened live.
    fn record_query_tree(
        &mut self,
        response: &SearchResponse,
        issued_at: SimInstant,
        done: SimInstant,
        arrived: Option<SimInstant>,
    ) {
        if !self.net.tracing_enabled() {
            return;
        }
        let root_start = arrived.unwrap_or(issued_at);
        let root = self
            .net
            .tracer()
            .record_with(None, "query", root_start, done, || response.query.clone());
        if let Some(arrived) = arrived {
            self.net
                .tracer()
                .record(root, "queue_wait", arrived, issued_at);
        }
        if response.result_cache_hit() {
            self.net
                .tracer()
                .record(root, "cache_serve", issued_at, done);
        } else {
            // Stage ends are clamped into the query's own interval: a
            // memoized pipelined query can report stage costs larger than
            // its rebased latency, and the root must still end at `done`.
            let costs = &response.trace;
            if costs.plan > SimDuration::ZERO {
                let end = (issued_at + costs.plan).min(done);
                self.net.tracer().record(root, "plan", issued_at, end);
            }
            if costs.stats > SimDuration::ZERO {
                let end = (issued_at + costs.stats).min(done);
                self.net.tracer().record(root, "stats", issued_at, end);
            }
            // In the open-loop server the service interval runs to the
            // query's completion, but the per-link queueing charged inside
            // the slowest dependency (`StageCosts::net_queue`) is split off
            // as its own span so attribution separates waiting on contended
            // links from fetch service; closed-loop windows know the exact
            // fetch cost.
            let (fetch_end, net_queue) = if arrived.is_some() {
                let queued = costs.net_queue.min(done.since(issued_at));
                let service = done.since(issued_at).as_micros() - queued.as_micros();
                (issued_at + SimDuration::from_micros(service), queued)
            } else {
                ((issued_at + costs.shard_fetch).min(done), SimDuration::ZERO)
            };
            if fetch_end > issued_at {
                self.net
                    .tracer()
                    .record(root, "fetch", issued_at, fetch_end);
            }
            if net_queue > SimDuration::ZERO {
                self.net.tracer().record(root, "net_queue", fetch_end, done);
            }
        }
        self.net.tracer().record(root, "score", done, done);
    }

    /// Serve a request stream through the **pipelined execution engine**:
    /// the stream is cut into windows of `config.window_size`, and up to
    /// `config.max_windows_in_flight` windows overlap — window N+1 is
    /// planned and its distinct-shard fetches issued while window N's
    /// fetches are still in flight, with the per-link in-flight limits of
    /// the simulated network queueing (and charging) any excess. Identical
    /// and prefix-sharing queries across the in-flight window set resolve
    /// against a version-tagged window memo instead of re-running
    /// intersect/score. See [`crate::query::pipeline`] for the state
    /// machine; experiment E13 measures the makespan win over back-to-back
    /// windows and asserts byte-identical per-query results.
    pub fn search_pipelined(
        &mut self,
        requests: Vec<SearchRequest>,
        config: PipelineConfig,
    ) -> QbResult<PipelineOutcome> {
        let outcome = PipelineDriver::new(config).run(self, requests)?;
        if self.fleet.is_some() {
            self.run_due_gossip();
        }
        Ok(outcome)
    }

    /// Serve an **open-loop** arrival trace: each request is admitted (or
    /// degraded, or shed) at its arrival instant against its frontend's
    /// bounded ingress queue, queued work is dispatched through
    /// [`QueenBee::search_pipelined`] in windows, and every query's sojourn
    /// (arrival → response completion) lands in the returned
    /// [`LoadReport`]'s histograms. Requires
    /// [`AdmissionConfig::enabled`](crate::AdmissionConfig) in the engine
    /// config; the closed-loop search paths never consult that config, so
    /// deployments without it keep their exact behavior.
    ///
    /// Arrival offsets are relative to the current simulated instant; the
    /// shared clock is advanced along the arrival timeline (firing due
    /// gossip rounds on the way), never past it in one jump.
    pub fn serve_open_loop(&mut self, arrivals: Vec<TimedRequest>) -> QbResult<LoadReport> {
        let cfg = self.config.admission.clone();
        if !cfg.enabled {
            return Err(QbError::Config(
                "serve_open_loop needs admission control enabled (config.admission.enabled)".into(),
            ));
        }
        let pipeline = PipelineConfig {
            window_size: cfg.window_size,
            max_windows_in_flight: cfg.max_windows_in_flight,
            ..PipelineConfig::default()
        };
        let t0 = self.net.now();
        let nf = self.num_frontends().max(1);
        let mut queues: Vec<IngressQueue> = (0..nf).map(|_| IngressQueue::new(t0)).collect();
        let mut report = LoadReport {
            admitted_per_frontend: vec![0; nf],
            ..LoadReport::default()
        };
        let mut last_completion = t0;

        // Arrivals in time order (stable, so same-instant arrivals keep
        // their trace order), consumed by move: an admitted request is
        // handed from the trace to its queue to its window, never copied.
        let mut arrivals = arrivals;
        arrivals.sort_by_key(|a| a.offset);
        let mut arrivals = arrivals.into_iter().peekable();

        loop {
            // The earliest pending event wins: the next trace arrival or
            // the earliest frontend dispatch (ties broken by frontend
            // index, arrivals before dispatches at the same instant so a
            // same-instant arrival can still join the batch).
            let arrival_at = arrivals.peek().map(|a| t0 + a.offset);
            let draining = arrival_at.is_none();
            let next_dispatch: Option<(SimInstant, usize)> = queues
                .iter()
                .enumerate()
                .filter_map(|(f, q)| q.next_dispatch_at(&cfg, draining).map(|at| (at, f)))
                .min();

            match (arrival_at, next_dispatch) {
                (Some(at), d) if d.is_none_or(|(dt, _)| at <= dt) => {
                    // Admission decision at the arrival instant (`at` was
                    // peeked off this very arrival).
                    let Some(TimedRequest { mut request, .. }) = arrivals.next() else {
                        break;
                    };
                    report.offered += 1;
                    let (_, frontend) = self.resolve_route(&request.routing)?;
                    let f = frontend.unwrap_or(0).min(nf - 1);
                    let q = &mut queues[f];
                    let estimate = q.estimated_sojourn(at);
                    if q.queue.len() >= cfg.queue_capacity || estimate > cfg.shed_threshold {
                        report.shed += 1;
                        self.net.tracer().record(None, "load.shed", at, at);
                        continue;
                    }
                    if estimate > cfg.degrade_threshold
                        && matches!(request.freshness, Freshness::Fresh)
                    {
                        request.freshness = Freshness::CacheOk;
                        report.degraded += 1;
                        self.net.tracer().record(None, "load.degrade", at, at);
                    }
                    // Pin the admission decision: the query is queued at
                    // frontend `f`, so it must also be *served* there —
                    // without the pin, plan-time re-resolution against a
                    // later load picture can silently move it, feeding the
                    // load EWMA at a different frontend than the one the
                    // dispatch ledger charged.
                    if frontend.is_some() {
                        request.routing = RoutingPolicy::Direct(f);
                    }
                    report.admitted += 1;
                    report.admitted_per_frontend[f] += 1;
                    // Feed the router's local dispatch ledger: the next
                    // arrival's two-choices comparison sees this admit
                    // immediately instead of waiting a heartbeat fold.
                    if let Some(fleet) = self.fleet.as_mut() {
                        fleet.record_routed(f);
                    }
                    q.queue.push_back((at, request));
                    report.peak_queue_depth = report.peak_queue_depth.max(q.queue.len());
                }
                (_, Some((at, f))) => {
                    // Dispatch up to a pipeline's worth of queued work.
                    let q = &mut queues[f];
                    let take = q.queue.len().min(cfg.dispatch_limit());
                    let (arrived, requests): (Vec<SimInstant>, Vec<SearchRequest>) =
                        q.queue.drain(..take).unzip();
                    // The batch leaves the ingress queue: retire it from
                    // the router's queued-work gauge.
                    if let Some(fleet) = self.fleet.as_mut() {
                        fleet.record_finished(f, take as u64);
                    }
                    self.advance_time_to(at);
                    let outcome = self.search_pipelined(requests, pipeline)?;
                    for span in &outcome.window_spans {
                        let range = span.first_query..span.first_query + span.queries;
                        for (arrived, response) in
                            arrived[range.clone()].iter().zip(&outcome.responses[range])
                        {
                            let done = span.issued_at + response.latency;
                            report.sojourn.record(done.since(*arrived));
                            report.queue_wait.record(span.issued_at.since(*arrived));
                            report.completed += 1;
                            last_completion = last_completion.max(done);
                            self.record_query_tree(response, span.issued_at, done, Some(*arrived));
                        }
                    }
                    report.dispatches += 1;
                    report.windows += outcome.report.windows as u64;
                    report.pipeline_queue_delay += outcome.report.queue_delay;
                    let q = &mut queues[f];
                    q.observe_service(take, outcome.report.makespan);
                    q.busy_until = at + outcome.report.makespan;
                }
                // Nothing queued and — the first arm takes any arrival that
                // has no dispatch to wait behind — nothing left to arrive.
                (_, None) => break,
            }
        }

        report.makespan = last_completion.since(t0);
        Ok(report)
    }

    /// Stage 1 of a window: plan every request against its frontend's
    /// cache tiers (no network traffic; planning *is* the cache read).
    pub(crate) fn plan_window(&mut self, requests: Vec<SearchRequest>) -> QbResult<Vec<QueryPlan>> {
        let now = self.net.now();
        let mut plans: Vec<QueryPlan> = Vec::with_capacity(requests.len());
        for request in requests {
            let (origin_peer, frontend) = self.resolve_route(&request.routing)?;
            // Every planned query bumps the serving frontend's load signal;
            // the EWMA folds at its next heartbeat and rides the gossip
            // summaries that feed two-choices routing.
            if let (Some(f), Some(fleet)) = (frontend, self.fleet.as_mut()) {
                fleet.record_served(f);
            }
            let seq = self.query_counter + 1;
            let mut cache = self.checkout_cache(frontend);
            let planned = plan_request(
                request,
                seq,
                origin_peer,
                frontend,
                &self.analyzer,
                &mut cache,
                &self.shard_versions,
                self.index_stats.version,
                now,
            );
            self.restore_cache_slot(frontend, cache);
            let plan = planned?;
            self.query_counter = seq;
            plans.push(plan);
        }
        Ok(plans)
    }

    /// Stage 2 of a window: fetch each distinct missing `(frontend, term)`
    /// shard once, plus at most one statistics read for the whole window.
    /// Iteration follows plan and term order, so the simulated network sees
    /// a deterministic request sequence. Each fetch uses the versioned
    /// read: the frontend knows the term's current version and digs past
    /// lagging replicas.
    pub(crate) fn fetch_window(
        &mut self,
        plans: &[QueryPlan],
    ) -> QbResult<(FetchSet, Option<SharedStatsRead>)> {
        // The blocking reads run one at a time from the call instant on an
        // idle link: each completes at `now + latency`, never queued.
        let now = self.net.now();
        let mut fetched = FetchSet::new();
        let mut stats_read: Option<SharedStatsRead> = None;
        for plan in plans {
            if plan.is_result_hit() {
                continue;
            }
            if matches!(plan.stats, StatsPlan::Fetch) && stats_read.is_none() {
                let (stats, cost) =
                    self.dist_index
                        .read_stats(&mut self.net, &mut self.dht, plan.origin_peer)?;
                stats_read = Some(SharedStatsRead {
                    stats,
                    latency: cost.latency,
                    messages: cost.messages,
                    charged_to: plan.seq,
                    completed_at: now + cost.latency,
                    queue_delay: SimDuration::ZERO,
                });
            }
            for term in plan.fetch_terms() {
                let key = (plan.frontend, term.to_string());
                if fetched.contains_key(&key) {
                    continue;
                }
                let current_version = self.shard_versions.get(term).copied().unwrap_or(0);
                let (shard, cost) = self.dist_index.read_shard_fresh(
                    &mut self.net,
                    &mut self.dht,
                    &mut self.storage,
                    plan.origin_peer,
                    term,
                    current_version,
                )?;
                fetched.insert(
                    key,
                    FetchedShard {
                        shard: Arc::new(shard),
                        latency: cost.latency,
                        messages: cost.messages,
                        charged_to: plan.seq,
                        completed_at: now + cost.latency,
                        queue_delay: SimDuration::ZERO,
                    },
                );
            }
        }
        Ok((fetched, stats_read))
    }

    /// Event-driven stage 2: start every distinct missing `(frontend,
    /// term)` shard read (plus at most one statistics read) of a window at
    /// virtual instant `at`, without waiting for any of them. The per-hop
    /// DHT RPCs of these reads run as in-flight operations of their origin
    /// peers, so fetches of *different* windows genuinely interleave on
    /// contended uplinks. Trace spans nest under `window_span`.
    pub(crate) fn begin_window_fetches(
        &mut self,
        plans: &[QueryPlan],
        at: SimInstant,
        window_span: Option<qb_trace::SpanId>,
    ) -> (Option<PendingStatsRead>, Vec<PendingShardFetch>) {
        let mut stats: Option<PendingStatsRead> = None;
        let mut shards: Vec<PendingShardFetch> = Vec::new();
        for plan in plans {
            if plan.is_result_hit() {
                continue;
            }
            if matches!(plan.stats, StatsPlan::Fetch) && stats.is_none() {
                let span = self.net.tracer().record(window_span, "stats_read", at, at);
                let machine = self.dist_index.begin_read_stats(
                    &mut self.net,
                    &mut self.dht,
                    plan.origin_peer,
                    at,
                    span.or(window_span),
                );
                stats = Some(PendingStatsRead {
                    charged_to: plan.seq,
                    span,
                    machine,
                });
            }
            for term in plan.fetch_terms() {
                let key = (plan.frontend, term.to_string());
                if shards.iter().any(|p| p.key == key) {
                    continue;
                }
                let span = self
                    .net
                    .tracer()
                    .record_with(window_span, "fetch", at, at, || term.to_string());
                let current_version = self.shard_versions.get(term).copied().unwrap_or(0);
                let machine = self.dist_index.begin_read_shard_fresh(
                    &mut self.net,
                    &mut self.dht,
                    plan.origin_peer,
                    term,
                    current_version,
                    at,
                    span.or(window_span),
                );
                shards.push(PendingShardFetch {
                    key,
                    charged_to: plan.seq,
                    span,
                    machine,
                });
            }
        }
        (stats, shards)
    }

    /// Advance a window's in-flight fetches at instant `at`, folding every
    /// read that completed into the window's fetch set and completion
    /// bookkeeping. Sets `win.next_event` to the earliest instant any
    /// remaining read advances at (`None` when the window is complete).
    pub(crate) fn poll_window_fetches(
        &mut self,
        win: &mut crate::query::pipeline::WindowRun,
        at: SimInstant,
    ) -> QbResult<()> {
        let mut next_event: Option<SimInstant> = None;
        let track = |cand: SimInstant, next_event: &mut Option<SimInstant>| {
            *next_event = Some(next_event.map_or(cand, |cur: SimInstant| cur.min(cand)));
        };
        if let Some(pending) = win.pending_stats.as_mut() {
            match self.dist_index.poll_read_stats(
                &mut self.net,
                &mut self.dht,
                &mut pending.machine,
                at,
            ) {
                qb_index::ShardReadStep::Ready => {
                    let pending = win.pending_stats.take().expect("matched Some above");
                    let queue_delay = pending.machine.queue_delay();
                    let (stats, cost, completed_at) = pending.machine.into_result()?;
                    self.net.tracer().close(pending.span, completed_at);
                    win.stats_read = Some(SharedStatsRead {
                        stats,
                        latency: cost.latency,
                        messages: cost.messages,
                        charged_to: pending.charged_to,
                        completed_at,
                        queue_delay,
                    });
                    win.completes_at = win.completes_at.max(completed_at);
                    win.queue_delay += queue_delay;
                }
                qb_index::ShardReadStep::Pending { next_event_at } => {
                    track(next_event_at, &mut next_event);
                }
            }
        }
        let mut i = 0;
        while i < win.pending_shards.len() {
            let pending = &mut win.pending_shards[i];
            match self.dist_index.poll_read_shard(
                &mut self.net,
                &mut self.dht,
                &mut self.storage,
                &mut pending.machine,
                at,
            ) {
                qb_index::ShardReadStep::Ready => {
                    let pending = win.pending_shards.remove(i);
                    let queue_delay = pending.machine.queue_delay();
                    let (shard, cost, completed_at) = pending.machine.into_result()?;
                    self.net.tracer().close(pending.span, completed_at);
                    win.completes_at = win.completes_at.max(completed_at);
                    win.queue_delay += queue_delay;
                    win.fetched.insert(
                        pending.key,
                        FetchedShard {
                            shard: Arc::new(shard),
                            latency: cost.latency,
                            messages: cost.messages,
                            charged_to: pending.charged_to,
                            completed_at,
                            queue_delay,
                        },
                    );
                }
                qb_index::ShardReadStep::Pending { next_event_at } => {
                    track(next_event_at, &mut next_event);
                    i += 1;
                }
            }
        }
        win.next_event = next_event;
        Ok(())
    }

    /// Retire whatever a window still has in flight without processing it
    /// (abort path), so an aborted run leaves no phantom link occupancy.
    pub(crate) fn abandon_window_fetches(&mut self, win: &mut crate::query::pipeline::WindowRun) {
        if let Some(pending) = win.pending_stats.as_mut() {
            pending.machine.abandon(&mut self.net);
        }
        win.pending_stats = None;
        for pending in win.pending_shards.iter_mut() {
            pending.machine.abandon(&mut self.net);
        }
        win.pending_shards.clear();
    }

    /// Predicted relative cost of a window: the number of distinct
    /// `(frontend, term)` shards its requests *could* require. A pure
    /// routing + analysis pass — no cache probes, no network traffic, no
    /// state changes — so the pipeline's shortest-first issue order under
    /// saturation is deterministic and free.
    pub(crate) fn predict_window_cost(&self, requests: &[SearchRequest]) -> usize {
        let mut distinct: BTreeSet<(Option<usize>, String)> = BTreeSet::new();
        for request in requests {
            if let Ok((_, frontend)) = self.resolve_route(&request.routing) {
                for term in self.analyzer.analyze(&request.query) {
                    distinct.insert((frontend, term));
                }
            }
        }
        distinct.len()
    }

    /// Queue a batch window's freshly fetched shard keys as batch-aware
    /// gossip advertisements of the serving frontend (no-op outside fleet
    /// mode or when `GossipConfig::batch_advertise` is off).
    /// [`batch_advert_groups`] produces the per-frontend groups.
    pub(crate) fn note_batch_fetches(&mut self, frontend: usize, terms: &[(String, u64)]) {
        if let Some(fleet) = self.fleet.as_mut() {
            fleet.note_batch_fetches(frontend, terms);
        }
    }

    /// Fold a pipelined run's counters into the engine-lifetime stats.
    pub(crate) fn record_pipeline_run(
        &mut self,
        report: &crate::query::pipeline::PipelineReport,
        memo: &WindowMemo,
    ) {
        self.pipelined_windows += report.windows as u64;
        self.pipelined_queries += report.queries as u64;
        self.window_memo_hits += memo.hits;
        self.window_memo_partial_hits += memo.partial.hits;
    }

    /// Engine-lifetime counters of the query-serving path: real
    /// intersect/score computations, window-memo savings and pipelined
    /// window/query totals.
    pub fn query_stats(&self) -> QueryEngineStats {
        QueryEngineStats {
            score_invocations: self.score_invocations,
            window_memo_hits: self.window_memo_hits,
            window_memo_partial_hits: self.window_memo_partial_hits,
            pipelined_windows: self.pipelined_windows,
            pipelined_queries: self.pipelined_queries,
        }
    }

    /// Resolve a request's routing policy to `(origin peer, frontend)`.
    fn resolve_route(&self, routing: &RoutingPolicy) -> QbResult<(u64, Option<usize>)> {
        match (routing, self.fleet.as_ref()) {
            (RoutingPolicy::Direct(f), Some(fleet)) => {
                if *f >= fleet.len() {
                    return Err(QbError::Config(format!(
                        "frontend {f} out of range (fleet has {})",
                        fleet.len()
                    )));
                }
                if !fleet.is_active(*f) {
                    return Err(QbError::Config(format!(
                        "frontend {f} has left the fleet (rejoin it before routing to it)"
                    )));
                }
                Ok((fleet.frontend_peer(*f), Some(*f)))
            }
            (RoutingPolicy::Direct(_), None) => Err(QbError::Config(
                "RoutingPolicy::Direct needs a frontend fleet (config.gossip.num_frontends > 0)"
                    .into(),
            )),
            (RoutingPolicy::HashPeer(peer), Some(fleet)) if !fleet.is_empty() => {
                // Rendezvous hashing over the live membership plus
                // power-of-two-choices on the routing-load picture (see
                // [`crate::query::routing`]): of the peer's two
                // highest-scoring active slots, the one whose advertised
                // load EWMA plus the dispatcher's own since-that-fold
                // routing ledger is lower serves; ties keep the rendezvous
                // winner so routing is deterministic for a given
                // membership + load picture.
                let active = (0..fleet.len()).filter(|&f| fleet.is_active(f));
                let (first, second) = crate::query::routing::hrw_top2(*peer, active);
                let Some(first) = first else {
                    return Err(QbError::Config(
                        "no active frontend left in the fleet".into(),
                    ));
                };
                let f = match second {
                    Some(second) if fleet.routing_load(second) < fleet.routing_load(first) => {
                        second
                    }
                    _ => first,
                };
                Ok((fleet.frontend_peer(f), Some(f)))
            }
            (RoutingPolicy::HashPeer(peer), _) => Ok((*peer, None)),
            (RoutingPolicy::RingSuccessor(peer), Some(fleet)) if !fleet.is_empty() => {
                // Hash onto the slot ring, then walk to the next active
                // frontend — the seed's failover geometry, which dumps a
                // dead slot's whole keyspace on one successor. Kept so
                // experiments can measure the spike two-choices removes.
                let n = fleet.len();
                let mut f = *peer as usize % n;
                let mut tried = 0;
                while !fleet.is_active(f) && tried < n {
                    f = (f + 1) % n;
                    tried += 1;
                }
                if !fleet.is_active(f) {
                    return Err(QbError::Config(
                        "no active frontend left in the fleet".into(),
                    ));
                }
                Ok((fleet.frontend_peer(f), Some(f)))
            }
            (RoutingPolicy::RingSuccessor(peer), _) => Ok((*peer, None)),
        }
    }

    /// Resolve a routing policy to the fleet slot that would serve it right
    /// now, without serving anything (`None` in single-frontend mode).
    /// Experiments use this to observe landing distributions of the routing
    /// policies side by side.
    pub fn route_frontend(&self, routing: &RoutingPolicy) -> QbResult<Option<usize>> {
        self.resolve_route(routing).map(|(_, f)| f)
    }

    /// Check the serving cache out of its slot (the single-mode cache, or
    /// the routed frontend's private cache in fleet mode).
    fn checkout_cache(&mut self, frontend: Option<usize>) -> Option<QueryCache> {
        match frontend {
            Some(i) => self.fleet.as_mut().and_then(|f| f.take_cache(i)),
            None => self.cache.take(),
        }
    }

    /// Return a checked-out cache to its slot.
    fn restore_cache_slot(&mut self, frontend: Option<usize>, cache: Option<QueryCache>) {
        match frontend {
            Some(i) => {
                if let Some(fleet) = self.fleet.as_mut() {
                    fleet.restore_cache(i, cache);
                }
            }
            None => self.cache = cache,
        }
    }

    /// Stage 3 of the pipeline: turn one plan plus the window's shared
    /// fetches into a [`SearchResponse`], store what the serving cache
    /// should keep, record version observations, account freshness and
    /// attach the ad. With a window memo, identical and prefix-sharing
    /// queries in the in-flight window set skip the intersect/score work.
    ///
    /// Shards are only ever borrowed here — from the plan's handles and the
    /// window's fetch set — and fan out into the serving cache as handles;
    /// the scored list is built once and the result tier (and the memo)
    /// share it. The response's page of hits is the only copy made.
    pub(crate) fn serve_plan(
        &mut self,
        mut plan: QueryPlan,
        fetched: &FetchSet,
        stats_read: &Option<SharedStatsRead>,
        now: qb_common::SimInstant,
        memo: Option<&mut WindowMemo>,
    ) -> SearchResponse {
        let hit_latency = self.config.cache.hit_latency;
        let top_k = plan.request.top_k.unwrap_or(self.config.top_k);
        let page = plan.request.page;

        // A current result-cache entry answers the whole request locally.
        if let Some(entry) = plan.cached_result.take() {
            let hits = paginate(&entry.results, page, top_k);
            let total = entry.results.len();
            let observed = entry.term_versions.iter().map(|(t, v)| (t.as_str(), *v));
            self.record_observations(plan.frontend, observed);
            let trace = StageCosts {
                plan: hit_latency,
                ..StageCosts::default()
            };
            let provenance = vec![TermProvenance::ResultCache; plan.terms.len()];
            return self.finish_response(plan, hits, total, top_k, hit_latency, trace, provenance);
        }

        // Line the shards up in term order, borrowed from the plan's
        // resolutions and the window's shared fetches (only a proven-absent
        // term needs an owned, empty stand-in).
        let mut shards: Vec<Cow<'_, ShardEntry>> = Vec::with_capacity(plan.terms.len());
        let mut provenance: Vec<TermProvenance> = Vec::with_capacity(plan.terms.len());
        let mut term_latencies: Vec<SimDuration> = Vec::with_capacity(plan.terms.len());
        let mut observed: Vec<(&str, u64)> = Vec::new();
        let mut fan_out: Vec<&Arc<ShardEntry>> = Vec::new();
        let mut messages = 0u64;
        let mut any_stale = false;
        for planned in &plan.terms {
            match &planned.plan {
                TermPlan::CachedShard(shard) => {
                    provenance.push(TermProvenance::ShardCache);
                    term_latencies.push(hit_latency);
                    observed.push((&planned.term, shard.version));
                    shards.push(Cow::Borrowed(shard));
                }
                TermPlan::Negative => {
                    provenance.push(TermProvenance::NegativeCache);
                    term_latencies.push(hit_latency);
                    shards.push(Cow::Owned(ShardEntry::empty(&planned.term)));
                }
                TermPlan::Stale { shard, age } => {
                    any_stale = true;
                    provenance.push(TermProvenance::StaleCache { age: *age });
                    term_latencies.push(hit_latency);
                    shards.push(Cow::Borrowed(shard));
                }
                TermPlan::Fetch => {
                    let fetch = &fetched[&(plan.frontend, planned.term.clone())];
                    term_latencies.push(fetch.latency);
                    if fetch.charged_to == plan.seq {
                        messages += fetch.messages;
                        provenance.push(TermProvenance::DhtFetch);
                    } else {
                        provenance.push(TermProvenance::BatchShared);
                    }
                    observed.push((&planned.term, fetch.shard.version));
                    fan_out.push(&fetch.shard);
                    shards.push(Cow::Borrowed(&fetch.shard));
                }
                TermPlan::ResultCached => unreachable!("handled by the result-hit path"),
            }
        }

        // Statistics: the plan's cached copy, or the window's shared read.
        let (stats, stats_latency, stats_fetched) = match &plan.stats {
            StatsPlan::Cached(stats) => (*stats, hit_latency, false),
            StatsPlan::Fetch => {
                let read = stats_read
                    .as_ref()
                    .expect("window performed a stats read for fetch plans");
                if read.charged_to == plan.seq {
                    messages += read.messages;
                }
                (read.stats, read.latency, true)
            }
        };

        // The window's reads run conceptually in parallel: total latency is
        // the max over the stats read and this query's term components.
        let shard_stage = qb_simnet::parallel_latency(&term_latencies);
        let latency = shard_stage.max(stats_latency);

        // Score the full candidate list; pagination slices it afterwards.
        // A window memo serves duplicate computations from its
        // version-tagged entries; every genuine computation is counted.
        let rank_of = |name: &str| self.ranks_by_name.get(name).copied().unwrap_or(0.0);
        let rank_weight = self.config.rank_weight;
        let (full, candidates_scored, memo_hit) = match memo {
            Some(m) => m.intersect_and_score(plan.frontend, &shards, &stats, rank_of, rank_weight),
            None => {
                let (full, scored) =
                    qb_index::intersect_and_score(&shards, &stats, rank_of, rank_weight, None);
                (Arc::new(full), scored, false)
            }
        };
        if !memo_hit {
            self.score_invocations += 1;
        }
        let hits = paginate(&full, page, top_k);
        let total = full.len();

        // Cache stores: fetched shards fan out into this query's serving
        // cache (negative entries included — an empty version-0 shard is
        // stored as proven absence), the stats record refreshes, and the
        // full result list is remembered under the shard versions actually
        // served (a lagging replica's true version, never the current
        // counter, so a stale response can never outlive its window).
        // Responses computed from deliberately stale `MaxStaleness` shards
        // are not cached: a strict reader must never inherit them.
        let mut cache = self.checkout_cache(plan.frontend);
        if let Some(c) = cache.as_mut() {
            for shard in fan_out {
                c.store_shard_handle(shard, now);
            }
            if stats_fetched {
                c.store_stats(stats, stats.version);
            }
            if !any_stale {
                let term_versions: Vec<(String, u64)> = plan
                    .terms
                    .iter()
                    .zip(shards.iter())
                    .map(|(t, s)| (t.term.clone(), s.version))
                    .collect();
                c.store_result(&plan.result_key, full, term_versions, now);
            }
        }
        self.restore_cache_slot(plan.frontend, cache);
        self.record_observations(plan.frontend, observed);
        // `shards` borrowed the plan's handles; the plan moves on now.
        drop(shards);

        // The compute stages (plan/score/rank-blend) stay at their zero
        // default: local work is free under the simulated cost model.
        let trace = StageCosts {
            stats: stats_latency,
            shard_fetch: shard_stage,
            messages,
            candidates_scored,
            ..StageCosts::default()
        };
        self.finish_response(plan, hits, total, top_k, latency, trace, provenance)
    }

    /// Record the shard versions a fleet frontend observed while serving.
    fn record_observations<'a>(
        &mut self,
        frontend: Option<usize>,
        observed: impl IntoIterator<Item = (&'a str, u64)>,
    ) {
        if let (Some(i), Some(fleet)) = (frontend, self.fleet.as_mut()) {
            for (term, version) in observed {
                fleet.observe(i, term, version);
            }
        }
    }

    /// Shared tail of every served plan: freshness accounting, ad selection
    /// (the ad market lives on-chain and is always consulted live, so a
    /// cached response can never show an expired campaign) and response
    /// assembly (the response takes the plan's analyzed terms over).
    #[allow(clippy::too_many_arguments)]
    fn finish_response(
        &mut self,
        plan: QueryPlan,
        hits: Vec<ScoredDoc>,
        total_matches: usize,
        top_k: usize,
        latency: SimDuration,
        trace: StageCosts,
        provenance: Vec<TermProvenance>,
    ) -> SearchResponse {
        // Freshness accounting against the registry's current versions.
        for r in &hits {
            if let Some(rec) = self.chain.publish_registry().get(&r.name) {
                self.freshness.record(r.version, rec.version);
            }
        }

        let terms: Vec<String> = plan.terms.into_iter().map(|t| t.term).collect();

        // Ad selection: highest-bidding active campaign matching any query term.
        let mut ad = None;
        if plan.request.ads {
            for term in &terms {
                if let Some(campaign) = self.chain.ad_market().match_keyword(term).first() {
                    ad = Some(campaign.id);
                    break;
                }
            }
        }
        let served_by_bee = self.bees[(plan.seq as usize) % self.bees.len()].account;
        SearchResponse {
            query: plan.request.query,
            terms,
            hits,
            total_matches,
            page: plan.request.page,
            top_k,
            ad,
            latency,
            trace,
            provenance,
            served_by_bee,
        }
    }

    /// Register an advertiser campaign on-chain (funding the advertiser's
    /// account from the treasury first, as its "fiat on-ramp").
    pub fn register_advertiser(&mut self, spec: &AdSpec) -> QbResult<()> {
        let account = AccountId(spec.advertiser);
        self.chain.fund_from_treasury(account, spec.budget)?;
        self.known_advertisers.insert(account);
        self.chain.submit_call(
            account,
            Call::CreateAdCampaign {
                keywords: spec.keywords.clone(),
                bid_per_click: spec.bid_per_click,
                budget: spec.budget,
            },
        );
        self.chain.seal_block(self.net.now());
        Ok(())
    }

    /// The user clicked the ad shown with `response`: charge the advertiser
    /// and split the revenue between the top result's creator, the serving
    /// bee and the treasury.
    pub fn click_ad(&mut self, response: &SearchResponse) -> QbResult<bool> {
        let (Some(ad), Some(top)) = (response.ad, response.hits.first()) else {
            return Ok(false);
        };
        self.chain.submit_call(
            qb_chain::TREASURY,
            Call::RecordAdClick {
                ad,
                page_creator: AccountId(top.creator),
                serving_bee: response.served_by_bee,
            },
        );
        self.chain.seal_block(self.net.now());
        Ok(true)
    }

    /// Honey split across stakeholder roles.
    pub fn honey_by_role(&self) -> HoneyByRole {
        HoneyByRole::from_chain(
            &self.chain,
            &self.creator_accounts(),
            &self.bee_accounts(),
            &self.advertiser_accounts(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(name: &str, body: &str, links: Vec<String>) -> WebPage {
        WebPage::new(name, format!("Title {name}"), body, links)
    }

    fn engine() -> QueenBee {
        QueenBee::new(QueenBeeConfig::small()).unwrap()
    }

    fn from_peer(peer: u64, query: &str) -> SearchRequest {
        SearchRequest::new(query).route(RoutingPolicy::HashPeer(peer))
    }

    fn at_frontend(frontend: usize, query: &str) -> SearchRequest {
        SearchRequest::new(query).route(RoutingPolicy::Direct(frontend))
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
        assert_eq!(out.hits[0].name, "wiki/dweb");
        assert!(out.latency.as_micros() > 0);
        assert!(out.messages() > 0);
        // Bees were rewarded for indexing.
        let bee_balance: u64 = qb.bee_accounts().iter().map(|a| qb.chain.balance(*a)).sum();
        assert!(bee_balance > 0);
        // The creator got the publish reward.
        assert!(qb.chain.balance(creator) >= qb.config().chain.publish_reward);
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
        assert!(out.hits.iter().all(|r| r.name != "evil/spam"));
        // At least one verification quorum caught a colluder (if one was assigned).
        let flagged: u64 = qb.bees().iter().map(|b| b.times_flagged).sum();
        let colluder_assigned = qb
            .bees()
            .iter()
            .any(|b| b.is_colluding() && b.pages_indexed + b.times_flagged > 0);
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
        assert!(qb.chain.balance(AccountId(1_100)) > qb.config().chain.publish_reward);
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

    #[test]
    fn batch_window_fetches_each_distinct_term_once() {
        let publish_set = |qb: &mut QueenBee| {
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
        };
        let requests = vec![
            from_peer(3, "meadow honey"),
            from_peer(4, "honey nectar"),
            from_peer(5, "meadow clover"),
        ];

        // No cache: the batch window is the only sharing mechanism.
        let mut batched = engine();
        publish_set(&mut batched);
        let responses = batched.search_batch(requests.clone()).unwrap();
        let fetches: usize = responses.iter().map(|r| r.shards_fetched()).sum();
        let shared: usize = responses.iter().map(|r| r.batch_shared()).sum();
        assert_eq!(fetches, 4, "distinct terms: meadow, honey, nectar, clover");
        assert_eq!(shared, 2, "meadow and honey are reused from the window");

        // Sequential execution of the same stream on an identical engine
        // pays per-query fetches but returns byte-identical hits.
        let mut sequential = engine();
        publish_set(&mut sequential);
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
        use crate::query::{PipelineConfig, RoutingPolicy, SearchRequest};
        let publish_set = |qb: &mut QueenBee| {
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
        };
        // A duplicate-heavy stream: four windows of two, with the same
        // query recurring across (and within) windows.
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
        let requests = |offset: u64| -> Vec<SearchRequest> {
            queries
                .iter()
                .enumerate()
                .map(|(i, q)| {
                    SearchRequest::new(*q).route(RoutingPolicy::HashPeer(offset + i as u64))
                })
                .collect()
        };

        // Sequential reference (windows of one, no memo).
        let mut sequential = engine();
        publish_set(&mut sequential);
        let mut seq_hits = Vec::new();
        for req in requests(3) {
            seq_hits.push(sequential.search_request(req).unwrap().hits);
        }
        let seq_invocations = sequential.query_stats().score_invocations;

        // Back-to-back windows (the PR 3 path): makespan = sum of window
        // latencies.
        let mut b2b = engine();
        publish_set(&mut b2b);
        let mut b2b_makespan = SimDuration::ZERO;
        for window in requests(3).chunks(2) {
            let responses = b2b.search_batch(window.to_vec()).unwrap();
            b2b_makespan += qb_simnet::parallel_latency(
                &responses.iter().map(|r| r.latency).collect::<Vec<_>>(),
            );
        }
        let b2b_invocations = b2b.query_stats().score_invocations;

        // Pipelined: same stream, windows of two, overlapped.
        let mut pipelined = engine();
        publish_set(&mut pipelined);
        let outcome = pipelined
            .search_pipelined(
                requests(3),
                PipelineConfig {
                    window_size: 2,
                    max_windows_in_flight: 4,
                    ..PipelineConfig::default()
                },
            )
            .unwrap();
        assert_eq!(outcome.responses.len(), queries.len());
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
        assert!(report.memo_hits > 0, "duplicate queries must hit the memo");
        assert!(report.peak_windows_in_flight > 1, "windows must overlap");
        let stats = pipelined.query_stats();
        assert_eq!(stats.pipelined_windows, 4);
        assert_eq!(stats.pipelined_queries, queries.len() as u64);
        assert_eq!(stats.window_memo_hits, report.memo_hits);
        assert!(
            stats.score_invocations < b2b_invocations,
            "memo must cut intersect/score invocations ({} vs {})",
            stats.score_invocations,
            b2b_invocations
        );
        assert!(stats.score_invocations < seq_invocations);
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
                    ..PipelineConfig::default()
                },
            )
            .unwrap();
        assert_eq!(outcome.report.peak_windows_in_flight, 1);
        // With one window in flight the makespan is the sum of the window
        // tails: no window ever overlaps another.
        assert!(outcome.report.makespan >= outcome.responses[0].latency);
        assert_eq!(outcome.responses.len(), 4);
    }

    fn cached_engine() -> QueenBee {
        let mut config = QueenBeeConfig::small();
        config.cache = qb_cache::CacheConfig::enabled();
        QueenBee::new(config).unwrap()
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

    #[test]
    fn memo_hit_result_tier_and_result_hit_share_one_scored_list() {
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

        // One window holding the same query twice: both plans miss the
        // result tier, the second serve is a window-memo hit.
        let query = || from_peer(5, "decentralized peers");
        let plans = qb.plan_window(vec![query(), query()]).unwrap();
        let key = plans[0].result_key.clone();
        let (fetched, stats_read) = qb.fetch_window(&plans).unwrap();
        let now = qb.net.now();
        let mut memo = WindowMemo::default();
        let responses: Vec<SearchResponse> = plans
            .into_iter()
            .map(|plan| qb.serve_plan(plan, &fetched, &stats_read, now, Some(&mut memo)))
            .collect();
        assert_eq!((memo.invocations, memo.hits), (1, 1));
        assert_eq!(responses[0].hits, responses[1].hits);
        assert_eq!(responses[0].hits.len(), 2);

        // The computation materialised its list once: the result tier holds
        // the memo's allocation (tier + memo + this handle)...
        let entry = qb.cache.as_ref().unwrap().peek_result(&key);
        let list = Arc::clone(&entry.expect("result cached").results);
        assert_eq!(Arc::strong_count(&list), 3);
        drop(memo);
        assert_eq!(Arc::strong_count(&list), 2);
        // ...and a later result-cache hit is planned on the same one.
        let warm = qb.plan_window(vec![query()]).unwrap().remove(0);
        let cached = warm.cached_result.as_ref().expect("result-cache hit");
        assert!(Arc::ptr_eq(&cached.results, &list));
        // The fetched shards fanned out as handles too.
        for fetch in fetched.values() {
            let resident = qb.cache.as_ref().unwrap().peek_shard(&fetch.shard.term);
            assert!(Arc::ptr_eq(resident.expect("fanned out"), &fetch.shard));
        }
        let served = qb.serve_plan(warm, &fetched, &stats_read, now, None);
        assert!(served.result_cache_hit());
        assert_eq!(served.hits, responses[0].hits);
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

        // Republish: same term, new version. Indexing must purge the entry.
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
        assert_eq!(qb.pending_segment_terms(), 0, "compaction drains pending");
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

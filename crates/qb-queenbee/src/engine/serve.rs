//! The serve seam: the closed-loop entry points, routing, and what a
//! retiring window does with each plan — `serve_plan` scores and answers
//! it, `record_query_trees` traces it. The window loop every query runs
//! through is `engine/windows.rs`.

use super::windows::WindowReads;
use super::QueenBee;
use crate::query::pipeline::{PipelineConfig, PipelineOutcome};
use crate::query::plan::{QueryPlan, Resolution, StatsPlan, TermPlan};
use crate::query::request::{RoutingPolicy, SearchRequest};
use crate::query::response::{paginate, SearchResponse, StageCosts, TermProvenance};
use qb_cache::QueryCache;
use qb_common::{QbError, QbResult, SimDuration, SimInstant};
use qb_gossip::GossipFleet;
use qb_index::{ScoredDoc, ShardEntry, ShardImpacts, ShardPosting};
use std::borrow::Cow;
use std::sync::Arc;

impl QueenBee {
    /// Serve one [`SearchRequest`] as a run of one one-query window: fetch
    /// its terms' shards through the DHT (or serve them from the query
    /// cache), intersect, score with BM25 blended with PageRank, and attach
    /// the highest-bidding matching ad.
    pub fn search_request(&mut self, request: SearchRequest) -> QbResult<SearchResponse> {
        let (_, served) = self.run_windows(vec![request], PipelineConfig::batch(1));
        let mut responses = served?;
        self.record_query_trees(&responses, None);
        self.run_due_gossip();
        Ok(responses.remove(0))
    }

    /// Serve a request stream through the **pipelined execution engine**:
    /// the stream is cut into windows of `config.window_size`, and up to
    /// `config.max_windows_in_flight` windows overlap, the simulated
    /// network's per-link in-flight limits queueing (and charging) any
    /// excess ([`crate::query::pipeline`]). A batch is one window
    /// ([`PipelineConfig::batch`]): each distinct missing term shard is
    /// fetched **once** per serving frontend and fanned out to every query
    /// of the window that needs it; the statistics record is read at most
    /// once. Responses come back in request order, byte-identical to
    /// sequential execution (E11 and E13 assert this); an invalid request
    /// or a failed fetch aborts the run with the first error.
    pub fn search_pipelined(
        &mut self,
        requests: Vec<SearchRequest>,
        config: PipelineConfig,
    ) -> QbResult<PipelineOutcome> {
        let (report, served) = self.run_windows(requests, config);
        self.record_pipeline_run(&report);
        let responses = served?;
        self.record_query_trees(&responses, None);
        self.run_due_gossip();
        Ok(PipelineOutcome {
            responses,
            report,
            window_spans: self.windows.spans().to_vec(),
        })
    }

    /// Record one span tree per response of the last run: a `query` root
    /// from the open loop's arrival instant (`arrived`, one per response)
    /// or else its window's issue instant, with `queue_wait` /
    /// `cache_serve` / staged-cost children rebuilt from the response's
    /// [`StageCosts`], so critical-path analysis can attribute a query's
    /// latency without knowing engine internals.
    pub(super) fn record_query_trees(
        &mut self,
        responses: &[SearchResponse],
        arrived: Option<&[SimInstant]>,
    ) {
        if !self.net.tracing_enabled() {
            return;
        }
        let tracer = self.net.tracer();
        for span in self.windows.spans() {
            let issued_at = span.issued_at;
            let range = span.first_query..span.first_query + span.queries;
            for (i, response) in range.clone().zip(&responses[range]) {
                let done = issued_at + response.latency;
                let arrived = arrived.map(|arrived| arrived[i]);
                let root_start = arrived.unwrap_or(issued_at);
                let root =
                    tracer.record_with(None, "query", root_start, done, || response.query.clone());
                if let Some(arrived) = arrived {
                    tracer.record(root, "queue_wait", arrived, issued_at);
                }
                if response.result_cache_hit() {
                    tracer.record(root, "cache_serve", issued_at, done);
                } else {
                    // Stage ends are clamped into the query's own interval:
                    // a query's latency is the slowest window read it waited
                    // on, so a term or statistics record the cache served,
                    // charged the cache's hit latency, can outlast it, and
                    // the root must still end at `done`.
                    let costs = &response.trace;
                    if costs.plan > SimDuration::ZERO {
                        let end = (issued_at + costs.plan).min(done);
                        tracer.record(root, "plan", issued_at, end);
                    }
                    if costs.stats > SimDuration::ZERO {
                        let end = (issued_at + costs.stats).min(done);
                        tracer.record(root, "stats", issued_at, end);
                    }
                    // The service interval runs to the query's completion,
                    // but the per-link queueing charged inside the slowest
                    // dependency (`StageCosts::net_queue`) is split off as
                    // its own span so attribution separates waiting on
                    // contended links from fetch service.
                    let net_queue = costs.net_queue.min(done.since(issued_at));
                    let service = done.since(issued_at).as_micros() - net_queue.as_micros();
                    let fetch_end = issued_at + SimDuration::from_micros(service);
                    if fetch_end > issued_at {
                        tracer.record(root, "fetch", issued_at, fetch_end);
                    }
                    if net_queue > SimDuration::ZERO {
                        tracer.record(root, "net_queue", fetch_end, done);
                    }
                }
                tracer.record(root, "score", done, done);
            }
        }
    }

    /// Resolve a request's routing policy to `(origin peer, frontend)`.
    pub(super) fn resolve_route(&self, routing: &RoutingPolicy) -> QbResult<(u64, Option<usize>)> {
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

    /// The serving cache: the single-mode cache (`None` when caching is
    /// off), or the routed frontend's private cache in fleet mode. Takes
    /// the fields, not `self`, so callers keep the rest of the engine
    /// borrowable beside it.
    pub(super) fn cache_slot<'a>(
        cache: &'a mut Option<QueryCache>,
        fleet: &'a mut Option<GossipFleet>,
        frontend: Option<usize>,
    ) -> Option<&'a mut QueryCache> {
        match (frontend, fleet) {
            (Some(i), Some(fleet)) => Some(fleet.cache_mut(i)),
            _ => cache.as_mut(),
        }
    }

    /// Stage 3 of a window: turn one plan plus the window's shared reads
    /// into a [`SearchResponse`], store what the serving cache should keep
    /// (at `now`, the call instant), record version observations, account
    /// freshness and attach the ad. Every entry point scores a query the
    /// result tier did not answer here, exactly once.
    ///
    /// The one latency rule: a plan that waited on a fetched read is
    /// charged the slowest such read's completion minus the window's issue
    /// instant `issued_at` (the first of equals, in term order then the
    /// statistics read), with that read's link queueing as `net_queue`. A
    /// plan served wholly from cache is charged the cache's hit latency.
    ///
    /// Shards are only ever borrowed here — from the plan's handles and the
    /// window's reads — and fan out into the serving cache as handles. The
    /// kernel ranks borrowed keys ([`qb_index::rank`]); a scored list is
    /// built only for a result tier that admits it, once, and every later
    /// result hit shares it. Otherwise the response's page of hits is all
    /// that is built.
    pub(super) fn serve_plan(
        &mut self,
        plan: QueryPlan,
        reads: &WindowReads,
        issued_at: SimInstant,
        now: SimInstant,
    ) -> QbResult<SearchResponse> {
        let hit_latency = self.config.cache.hit_latency;
        let top_k = plan.request.top_k.unwrap_or(self.config.top_k);
        let page = plan.request.page;

        let (terms, stats_plan) = match plan.resolution {
            // A current result-cache entry answers the whole request locally.
            Resolution::ResultHit { terms, entry } => {
                let hits = paginate(&entry.results, page, top_k);
                let total = entry.results.len();
                let observed = entry.term_versions.iter().map(|(t, v)| (t.as_str(), *v));
                self.record_observations(plan.frontend, observed);
                let trace = StageCosts {
                    plan: hit_latency,
                    ..StageCosts::default()
                };
                let provenance = vec![TermProvenance::ResultCache; terms.len()];
                return Ok(self.finish_response(
                    plan.seq,
                    plan.request,
                    terms,
                    hits,
                    total,
                    hit_latency,
                    trace,
                    provenance,
                ));
            }
            Resolution::PerTerm { terms, stats } => (terms, stats),
        };

        // Statistics: the plan's cached copy, or the window's shared read
        // (folded into the critical read after the terms').
        let (stats, stats_read) = match &stats_plan {
            StatsPlan::Cached(stats) => (*stats, None),
            StatsPlan::Fetch => {
                let read = reads.stats()?;
                (*read.value(), Some(read))
            }
        };

        // Line the shards up in term order, borrowed from the plan's
        // resolutions and the window's shared fetches (only a proven-absent
        // term needs an owned, empty stand-in), each held one with its
        // impacts once the memo has them under these statistics and ranks.
        let components = &self.rank_components;
        // An unranked page blends as rank 0: `rank_component(0.0)` is 0.
        let component_of = |p: &ShardPosting| components.get(&p.doc_id).copied().unwrap_or(0.0);
        let (memo, rank_round) = (&mut self.impacts, self.rank_round);
        let mut impacts_of =
            |shard: &Arc<ShardEntry>| memo.lookup(shard, &stats, rank_round, component_of);
        let mut shards: Vec<(Cow<'_, ShardEntry>, Option<ShardImpacts>)> =
            Vec::with_capacity(terms.len());
        let mut provenance: Vec<TermProvenance> = Vec::with_capacity(terms.len());
        let mut term_latencies: Vec<SimDuration> = Vec::with_capacity(terms.len());
        let mut observed: Vec<(&str, u64)> = Vec::new();
        let mut fan_out: Vec<&Arc<ShardEntry>> = Vec::new();
        let mut messages = 0u64;
        let mut any_stale = false;
        // The slowest fetched read this plan waits on: its completion
        // instant and the link queueing inside it.
        let mut critical: Option<(SimInstant, SimDuration)> = None;
        for planned in &terms {
            match &planned.plan {
                TermPlan::CachedShard(shard) => {
                    provenance.push(TermProvenance::ShardCache);
                    term_latencies.push(hit_latency);
                    observed.push((&planned.term, shard.version));
                    shards.push((Cow::Borrowed(shard), impacts_of(shard)));
                }
                TermPlan::Negative => {
                    provenance.push(TermProvenance::NegativeCache);
                    term_latencies.push(hit_latency);
                    shards.push((Cow::Owned(ShardEntry::empty(&planned.term)), None));
                }
                TermPlan::Stale { shard, age } => {
                    any_stale = true;
                    provenance.push(TermProvenance::StaleCache { age: *age });
                    term_latencies.push(hit_latency);
                    shards.push((Cow::Borrowed(shard), impacts_of(shard)));
                }
                TermPlan::Fetch { read } => {
                    let fetch = reads.shard(*read)?;
                    term_latencies.push(fetch.latency());
                    critical = fetch.slowest(critical);
                    if let Some(sent) = fetch.messages_charged_to(plan.seq) {
                        messages += sent;
                        provenance.push(TermProvenance::DhtFetch);
                    } else {
                        provenance.push(TermProvenance::BatchShared);
                    }
                    observed.push((&planned.term, fetch.value().version));
                    fan_out.push(fetch.value());
                    shards.push((Cow::Borrowed(fetch.value()), impacts_of(fetch.value())));
                }
            }
        }

        let stats_latency = match stats_read {
            None => hit_latency,
            Some(read) => {
                messages += read.messages_charged_to(plan.seq).unwrap_or(0);
                critical = read.slowest(critical);
                read.latency()
            }
        };

        // The window's reads run in parallel: the stage costs are the max
        // over this query's term components, and the latency is the
        // slowest read it waited on, on the window's timeline.
        let shard_stage = qb_simnet::parallel_latency(&term_latencies);
        let (latency, net_queue) = match critical {
            Some((done, queue_delay)) => {
                let latency = done.since(issued_at);
                (latency, queue_delay.min(latency))
            }
            None => (shard_stage.max(stats_latency), SimDuration::ZERO),
        };

        // Score every candidate; what gets built from the scores is decided
        // by who keeps it.
        let rank_weight = self.config.rank_weight;
        let mut ranked = qb_index::rank(&shards, &stats, component_of, rank_weight);
        self.query_stats.score_invocations += 1;
        let total = ranked.len();

        // Cache stores: fetched shards fan out into this query's serving
        // cache (negative entries included — an empty version-0 shard is
        // stored as proven absence), the stats record refreshes, and the
        // result tier is offered the whole list under the shard versions
        // actually served (a lagging replica's true version, never the
        // current counter, so a stale response can never outlive its
        // window) — built only if the tier admits it. Responses computed
        // from deliberately stale `MaxStaleness` shards are not cached: a
        // strict reader must never inherit them.
        if let Some(c) = Self::cache_slot(&mut self.cache, &mut self.fleet, plan.frontend) {
            for shard in fan_out {
                c.store_shard_handle(shard, now);
            }
            if stats_read.is_some() {
                c.store_stats(stats);
            }
            if !any_stale {
                let names = terms.iter().map(|t| t.term.as_str());
                let term_versions = names.zip(shards.iter().map(|(s, _)| s.version));
                let list_bytes = ranked.list_bytes();
                c.store_result(&plan.result_key, term_versions, list_bytes, now, || {
                    ranked.list()
                });
            }
        }
        // The response owns its page — sliced from the list when the result
        // tier had it built, otherwise the only documents built.
        let hits = ranked.page(page, top_k);
        if ranked.has_list() {
            self.query_stats.scored_lists_built += 1;
        }
        self.record_observations(plan.frontend, observed);
        // `shards` borrowed the plan's handles; the terms move on now.
        drop(shards);
        let terms = terms.into_iter().map(|t| t.term).collect();

        // The compute stages (plan, score) stay at their zero default:
        // local work is free under the simulated cost model.
        let trace = StageCosts {
            stats: stats_latency,
            shard_fetch: shard_stage,
            net_queue,
            messages,
            candidates_scored: total,
            ..StageCosts::default()
        };
        Ok(self.finish_response(
            plan.seq,
            plan.request,
            terms,
            hits,
            total,
            latency,
            trace,
            provenance,
        ))
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
        seq: u64,
        request: SearchRequest,
        terms: Vec<String>,
        hits: Vec<ScoredDoc>,
        total_matches: usize,
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

        // Ad selection: highest-bidding active campaign matching any query term.
        let mut ad = None;
        if request.ads {
            for term in &terms {
                if let Some(campaign) = self.chain.ad_market().match_keyword(term).first() {
                    ad = Some(campaign.id);
                    break;
                }
            }
        }
        let served_by_bee = self.bees[(seq as usize) % self.bees.len()].account;
        SearchResponse {
            query: request.query,
            terms,
            hits,
            total_matches,
            page: request.page,
            top_k: request.top_k.unwrap_or(self.config.top_k),
            ad,
            latency,
            trace,
            provenance,
            served_by_bee,
        }
    }
}

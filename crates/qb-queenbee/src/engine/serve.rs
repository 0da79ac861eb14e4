//! The serve seam: the closed-loop entry points, routing, and what a
//! retiring window does with each plan — `serve_plan` scores and answers
//! it, `record_query_trees` traces it. The window loop every query runs
//! through is `engine/windows.rs`.

use super::windows::WindowReads;
use super::QueenBee;
use crate::query::pipeline::{PipelineConfig, PipelineOutcome};
use crate::query::plan::{PlannedTerm, QueryPlan, Resolution, StatsPlan, TermPlan};
use crate::query::request::{RoutingPolicy, SearchRequest};
use crate::query::response::{paginate, SearchResponse, StageCosts, TermProvenance};
use crate::query::terms::TermId;
use qb_cache::QueryCache;
use qb_common::{recycle, QbError, QbResult, SimDuration, SimInstant};
use qb_gossip::GossipFleet;
use qb_index::{Ranked, ScoreInputs, ScoredDoc, ShardEntry, ShardImpacts, ShardPosting};
use std::borrow::Cow;
use std::sync::Arc;

impl QueenBee {
    /// Serve one [`SearchRequest`] as a run of one one-query window: fetch
    /// its terms' shards through the DHT (or serve them from the query
    /// cache), intersect, score with BM25 blended with PageRank, and attach
    /// the highest-bidding matching ad.
    pub fn search_request(&mut self, request: SearchRequest) -> QbResult<SearchResponse> {
        let (_, served) = self.run_windows([request], PipelineConfig::batch(1));
        served?;
        self.record_query_trees(None);
        self.run_due_gossip();
        Ok(self.windows.responses.remove(0))
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
        served?;
        self.record_query_trees(None);
        self.run_due_gossip();
        let responses = std::mem::take(&mut self.windows.responses);
        Ok(PipelineOutcome { responses, report })
    }

    /// Record one span tree per response of the last run (still in
    /// `Windows::responses`): a `query` root from the open loop's arrival
    /// instant (`arrived`, one per response) or else its window's issue
    /// instant, with `queue_wait` / `cache_serve` / staged-cost children
    /// rebuilt from the response's [`StageCosts`], so critical-path
    /// analysis can attribute a query's latency without engine internals.
    pub(super) fn record_query_trees(&mut self, arrived: Option<&[SimInstant]>) {
        if !self.net.tracing_enabled() {
            return;
        }
        let tracer = self.net.tracer();
        let responses = &self.windows.responses;
        for span in &self.windows.spans {
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
                "RoutingPolicy::Direct needs a frontend (config.cache.enabled)".into(),
            )),
            (RoutingPolicy::HashPeer(peer), Some(fleet)) => {
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
            (RoutingPolicy::HashPeer(peer), None) => Ok((*peer, None)),
            (RoutingPolicy::RingSuccessor(peer), Some(fleet)) => {
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
            (RoutingPolicy::RingSuccessor(peer), None) => Ok((*peer, None)),
        }
    }

    /// Resolve a routing policy to the frontend that would serve it right
    /// now, without serving anything (`None` with the cache off, where a
    /// query reads the index from its origin peer).
    /// Experiments use this to observe landing distributions of the routing
    /// policies side by side.
    pub fn route_frontend(&self, routing: &RoutingPolicy) -> QbResult<Option<usize>> {
        self.resolve_route(routing).map(|(_, f)| f)
    }

    /// The routed frontend's serving cache (`None` with the cache off).
    /// Takes the fleet, not `self`, so callers keep the rest of the engine
    /// borrowable beside it.
    pub(super) fn cache_slot(
        fleet: &mut Option<GossipFleet>,
        frontend: Option<usize>,
    ) -> Option<&mut QueryCache> {
        Some(fleet.as_mut()?.cache_mut(frontend?))
    }

    /// Stage 3 of a window: turn one plan plus the window's shared reads
    /// into a [`SearchResponse`], store what the serving cache should keep
    /// (at `now`, the call instant), record version observations, account
    /// freshness and attach the ad. Every entry point scores a query the
    /// result tier did not answer here, at most once: a plan whose reads
    /// served exactly what the resident result was scored from pages that
    /// list instead ([`QueenBee::resident_list`]).
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
    /// result hit and reuse shares it. Otherwise the response's page of hits is all
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
                // The entry's terms are the plan's, each found by its text.
                let observed = entry.term_versions.iter().filter_map(|(term, version)| {
                    Some((terms.iter().find(|t| t.term == *term)?.id, *version))
                });
                self.record_observations(plan.frontend, observed);
                let trace = StageCosts {
                    plan: hit_latency,
                    ..StageCosts::default()
                };
                let provenance = vec![TermProvenance::ResultCache; terms.len()];
                return Ok(self.finish_response(
                    plan.seq,
                    plan.request,
                    terms.into_iter().map(|t| t.term).collect(),
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

        // A list the result tier holds from these very term versions under
        // these inputs is this plan's list, bit for bit: it is paged and
        // offered again instead of scored.
        let inputs = ScoreInputs::new(&stats, self.rank_round);
        let resident = plan
            .result_key
            .as_deref()
            .and_then(|key| self.resident_list(plan.frontend, key, &terms, reads, inputs));
        let reused = resident.is_some();

        // Line the shards up in term order, borrowed from the plan's
        // resolutions and the window's shared fetches (only a proven-absent
        // term needs an owned, empty stand-in), each held one with its
        // impacts once the memo has them under these statistics and ranks
        // (a plan that scores nothing looks none up).
        let ranks = &self.ranks;
        // An unranked page blends as rank 0: `rank_component(0.0)` is 0.
        let component_of = |p: &ShardPosting| ranks.get(&p.doc_id).map_or(0.0, |r| r.component);
        let (memo, rank_round) = (&mut self.impacts, self.rank_round);
        let mut impacts_of = |shard: &Arc<ShardEntry>| {
            if reused {
                return None;
            }
            memo.lookup(shard, &stats, rank_round, component_of)
        };
        let mut shards: Vec<(Cow<'_, ShardEntry>, Option<ShardImpacts>)> =
            recycle(std::mem::take(&mut self.windows.lineup));
        let mut provenance: Vec<TermProvenance> = Vec::with_capacity(terms.len());
        let mut messages = 0u64;
        let mut any_stale = false;
        // The window's reads run in parallel: the shard stage is the
        // slowest of this query's term components, and the latency the
        // slowest fetched read it waited on — its completion instant and
        // the link queueing inside it — on the window's timeline.
        let mut shard_stage = SimDuration::ZERO;
        let mut critical: Option<(SimInstant, SimDuration)> = None;
        for planned in &terms {
            let term_latency = match &planned.plan {
                TermPlan::CachedShard(shard) => {
                    provenance.push(TermProvenance::ShardCache);
                    shards.push((Cow::Borrowed(shard), impacts_of(shard)));
                    hit_latency
                }
                TermPlan::Negative => {
                    provenance.push(TermProvenance::NegativeCache);
                    shards.push((Cow::Owned(ShardEntry::empty(&planned.term)), None));
                    hit_latency
                }
                TermPlan::Stale { shard, age } => {
                    any_stale = true;
                    provenance.push(TermProvenance::StaleCache { age: *age });
                    shards.push((Cow::Borrowed(shard), impacts_of(shard)));
                    hit_latency
                }
                TermPlan::Fetch { read } => {
                    let fetch = reads.shard(*read)?;
                    critical = fetch.slowest(critical);
                    if let Some(sent) = fetch.messages_charged_to(plan.seq) {
                        messages += sent;
                        provenance.push(TermProvenance::DhtFetch);
                    } else {
                        provenance.push(TermProvenance::BatchShared);
                    }
                    shards.push((Cow::Borrowed(fetch.value()), impacts_of(fetch.value())));
                    fetch.latency()
                }
            };
            shard_stage = shard_stage.max(term_latency);
        }

        let stats_latency = match stats_read {
            None => hit_latency,
            Some(read) => {
                messages += read.messages_charged_to(plan.seq).unwrap_or(0);
                critical = read.slowest(critical);
                read.latency()
            }
        };
        let (latency, net_queue) = match critical {
            Some((done, queue_delay)) => {
                let latency = done.since(issued_at);
                (latency, queue_delay.min(latency))
            }
            None => (shard_stage.max(stats_latency), SimDuration::ZERO),
        };

        // Score every candidate, unless the resident list already holds
        // them; what gets built from the scores is decided by who keeps it.
        let rank_weight = self.config.rank_weight;
        let scratch = &mut self.windows.rank;
        let mut ranked = match resident {
            Some(list) => {
                // The scoring the reuse skips, re-run wherever tests run.
                debug_assert!(same_bits(
                    &list,
                    &qb_index::rank(&shards, &stats, component_of, rank_weight, scratch).list()
                ));
                self.query_stats.window_memo_hits += 1;
                Ranked::from(list)
            }
            None => {
                self.query_stats.score_invocations += 1;
                qb_index::rank(&shards, &stats, component_of, rank_weight, scratch)
            }
        };
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
        if let Some(c) = Self::cache_slot(&mut self.fleet, plan.frontend) {
            for planned in &terms {
                if let TermPlan::Fetch { read } = planned.plan {
                    c.store_shard_handle(reads.shard(read)?.value(), now);
                }
            }
            if stats_read.is_some() {
                c.store_stats(stats);
            }
            // A plan served by a cache carries its result key.
            if let (false, Some(key)) = (any_stale, &plan.result_key) {
                let names = terms.iter().map(|t| &t.term);
                let term_versions = names.zip(shards.iter().map(|(s, _)| s.version));
                let list_bytes = ranked.list_bytes();
                c.store_result(key, term_versions, inputs, list_bytes, now, || {
                    ranked.list()
                });
            }
        }
        // The response owns its page — sliced from the list when the result
        // tier had it built, otherwise the only documents built.
        let hits = ranked.page(page, top_k);
        if ranked.has_list() && !reused {
            self.query_stats.scored_lists_built += 1;
        }
        ranked.recycle(&mut self.windows.rank);
        // The versions of the shards read or held current, in term order.
        let observed = terms
            .iter()
            .zip(&shards)
            .filter_map(|(t, (s, _))| match t.plan {
                TermPlan::CachedShard(_) | TermPlan::Fetch { .. } => Some((t.id, s.version)),
                _ => None,
            });
        self.record_observations(plan.frontend, observed);
        // `shards` borrowed the plan's handles; the terms move on now, and
        // the emptied line-up goes back for the next plan.
        self.windows.lineup = recycle(shards);
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

    /// The list `frontend`'s serving cache holds under the result key `key`,
    /// when it was scored from exactly the term versions `terms` served —
    /// a stale shard serves none — under `inputs`. A shard at a term
    /// version never changes (every write bumps the version), so such a
    /// list is what scoring these shards would build, bit for bit. The
    /// probe touches no counter and no recency: the store that follows
    /// moves the tier as a scored list would.
    fn resident_list(
        &self,
        frontend: Option<usize>,
        key: &str,
        terms: &[PlannedTerm],
        reads: &WindowReads,
        inputs: ScoreInputs,
    ) -> Option<Arc<Vec<ScoredDoc>>> {
        let entry = self
            .fleet
            .as_ref()?
            .frontend(frontend?)
            .cache()
            .peek_result(key)?;
        if entry.inputs != inputs || entry.term_versions.len() != terms.len() {
            return None;
        }
        let served = |planned: &PlannedTerm| match &planned.plan {
            TermPlan::CachedShard(shard) => Some(shard.version),
            TermPlan::Negative => Some(0),
            TermPlan::Stale { .. } => None,
            TermPlan::Fetch { read } => reads.shard(*read).ok().map(|f| f.value().version),
        };
        // The terms are distinct and as many as the entry's, so every entry
        // term found at its version is the same set.
        let same = entry.term_versions.iter().all(|(term, version)| {
            let planned = terms.iter().find(|t| t.term == *term);
            planned.and_then(served) == Some(*version)
        });
        same.then(|| Arc::clone(&entry.results))
    }

    /// Record the shard versions a fleet frontend observed while serving,
    /// each under the key the term table holds for the term. Version 0
    /// means the term was never written, which `known` already reads for
    /// a term it does not hold, so a query for a word no page holds files
    /// nothing.
    fn record_observations(
        &mut self,
        frontend: Option<usize>,
        observed: impl Iterator<Item = (TermId, u64)>,
    ) {
        if let (Some(i), Some(fleet)) = (frontend, self.fleet.as_mut()) {
            for (id, version) in observed.filter(|&(_, version)| version > 0) {
                fleet.observe(i, self.terms.key(id), version);
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
        terms: Vec<Arc<str>>,
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

        // Ad selection: highest-bidding active campaign matching the first
        // query term any campaign targets (analysed terms are lowercase).
        let best = |term: &Arc<str>| self.chain.ad_market().best_match(term).map(|c| c.id);
        let ad = terms.iter().filter(|_| request.ads).find_map(best);
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

/// Whether two lists agree field for field, scores bit for bit.
fn same_bits(a: &[ScoredDoc], b: &[ScoredDoc]) -> bool {
    let bits = |d: &ScoredDoc| d.score.to_bits();
    a == b && a.iter().map(bits).eq(b.iter().map(bits))
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cached_engine, from_peer, page};
    use super::*;
    use crate::config::QueenBeeConfig;
    use crate::query::request::Freshness;
    use crate::GossipConfig;
    use qb_chain::AccountId;
    use qb_dweb::WebPage;

    fn publish(qb: &mut QueenBee, pages: &[WebPage]) {
        for p in pages {
            qb.publish(5, AccountId(1_000), p).unwrap();
        }
        qb.seal();
        qb.process_publish_events().unwrap();
    }

    /// `(score_invocations, window_memo_hits)`.
    fn counts(qb: &QueenBee) -> (u64, u64) {
        let stats = qb.query_stats();
        (stats.score_invocations, stats.window_memo_hits)
    }

    #[test]
    fn a_fresh_query_serves_the_resident_list_while_its_inputs_hold() {
        let corpus = [
            page(
                "wiki/a",
                "meadow honey nectar pollen",
                vec!["wiki/b".into()],
            ),
            page(
                "wiki/b",
                "meadow honey clover fields",
                vec!["wiki/a".into()],
            ),
            page("wiki/c", "honey meadow bees", vec!["wiki/a".into()]),
        ];
        let mut on = cached_engine();
        let mut off = QueenBee::new(QueenBeeConfig::small()).unwrap();
        for qb in [&mut on, &mut off] {
            publish(qb, &corpus);
            qb.run_rank_round().unwrap();
        }
        // Serve `query` Fresh on both engines: the cache-on engine's hits,
        // which must equal the cache-off engine's bit for bit.
        let serve = |on: &mut QueenBee, off: &mut QueenBee, query: &str| {
            let request = from_peer(5, query).freshness(Freshness::Fresh);
            let got = on.search_request(request.clone()).unwrap();
            let want = off.search_request(request).unwrap();
            assert!(!got.result_cache_hit());
            assert!(same_bits(&got.hits, &want.hits), "{query}");
            assert_eq!(got.total_matches, want.total_matches);
            assert!(!got.hits.is_empty());
        };

        serve(&mut on, &mut off, "meadow honey");
        assert_eq!(counts(&on), (1, 0), "nothing resident: scored");
        serve(&mut on, &mut off, "meadow honey");
        assert_eq!(counts(&on), (1, 1), "the same reads: the resident list");
        serve(&mut on, &mut off, "honey meadow");
        assert_eq!(counts(&on), (1, 2), "a permuted query shares the list");

        // A republish of one term's page under the same statistics: new
        // term versions, so it scores again.
        let (stats, meadow) = (on.index_stats, on.terms.version_of("meadow"));
        let edited = page("wiki/b", "meadow meadow clover fields", vec![]);
        for qb in [&mut on, &mut off] {
            publish(qb, std::slice::from_ref(&edited));
        }
        assert_eq!(
            (on.index_stats.num_docs, on.index_stats.total_len),
            (stats.num_docs, stats.total_len)
        );
        assert_ne!(on.terms.version_of("meadow"), meadow);
        serve(&mut on, &mut off, "meadow honey");
        assert_eq!(counts(&on), (2, 2), "a republished term scores again");
        serve(&mut on, &mut off, "meadow honey");
        assert_eq!(counts(&on), (2, 3));

        // A publish that leaves both terms alone and moves only the
        // statistics: it scores again.
        let versions = ["meadow", "honey"].map(|term| on.terms.version_of(term));
        let unrelated = page("wiki/d", "thunder storms tonight", vec![]);
        for qb in [&mut on, &mut off] {
            publish(qb, std::slice::from_ref(&unrelated));
        }
        for (term, version) in ["meadow", "honey"].into_iter().zip(versions) {
            assert_eq!(on.terms.version_of(term), version);
        }
        serve(&mut on, &mut off, "meadow honey");
        assert_eq!(counts(&on), (3, 3), "new statistics score again");
        serve(&mut on, &mut off, "meadow honey");
        assert_eq!(counts(&on), (3, 4));

        // A rank round: it scores again.
        for qb in [&mut on, &mut off] {
            qb.run_rank_round().unwrap();
        }
        serve(&mut on, &mut off, "meadow honey");
        assert_eq!(counts(&on), (4, 4), "a new rank round scores again");
        serve(&mut on, &mut off, "honey meadow");
        assert_eq!(counts(&on), (4, 5));

        // A reuse builds no list: one per scoring the tier admitted.
        let tier = on.cache_metrics().expect("cache enabled").result;
        assert_eq!(tier.insertions, 9, "every Fresh query offered its list");
        assert_eq!(on.query_stats().scored_lists_built, 4);
    }

    #[test]
    fn a_stale_plan_neither_reuses_nor_stores() {
        let mut config = QueenBeeConfig::small();
        config.cache = qb_cache::CacheConfig::enabled();
        config.gossip = GossipConfig::fleet(2);
        let mut qb = QueenBee::new(config).unwrap();
        let at_one = |query: &str| SearchRequest::new(query).route(RoutingPolicy::Direct(1));
        publish(
            &mut qb,
            &[page("news/today", "zebra headline coverage", vec![])],
        );
        qb.search_request(at_one("zebra").freshness(Freshness::Fresh))
            .unwrap();

        // Republish while frontend 1 is cut off: its shard tier keeps the
        // superseded shard, under the same statistics.
        let stats = qb.index_stats;
        let frontend_peer = qb.fleet().unwrap().frontend_peer(1);
        qb.net.set_partition(frontend_peer, 9);
        publish(
            &mut qb,
            &[page("news/today", "zebra exclusive update", vec![])],
        );
        qb.net.heal_all();
        assert_eq!(
            (qb.index_stats.num_docs, qb.index_stats.total_len),
            (stats.num_docs, stats.total_len)
        );
        qb.advance_time(SimDuration::from_millis(10));
        qb.search_request(at_one("exclusive")).unwrap();

        let before = (counts(&qb), qb.cache_metrics().unwrap().result.insertions);
        let bound = Freshness::MaxStaleness(SimDuration::from_secs(60));
        let stale = qb.search_request(at_one("zebra").freshness(bound)).unwrap();
        assert_eq!(stale.stale_served(), 1);
        assert_eq!(stale.hits[0].version, 1);
        let ((scored, reused), stored) = before;
        let after = (counts(&qb), qb.cache_metrics().unwrap().result.insertions);
        assert_eq!(after, ((scored + 1, reused), stored), "scored, not kept");
    }
}

//! The serve seam: a window of requests is planned against the cache
//! tiers, its distinct missing shards (and the statistics record) are
//! enumerated once (`WindowReads::of`) and read once, and every plan is
//! scored and answered — each read driven to completion before the next
//! for `search_request` / `search_batch`, all issued together and polled
//! under the pipeline driver for `search_pipelined`.

use super::QueenBee;
use crate::query::executor::{ReadProgress, ReadSlot, WindowReads};
use crate::query::pipeline::{
    PipelineConfig, PipelineDriver, PipelineOutcome, PipelineReport, WindowRun,
};
use crate::query::plan::{plan_request, QueryPlan, StatsPlan, TermPlan};
use crate::query::request::{RoutingPolicy, SearchRequest};
use crate::query::response::{paginate, SearchResponse, StageCosts, TermProvenance};
use qb_cache::QueryCache;
use qb_common::{QbError, QbResult, SimDuration, SimInstant};
use qb_gossip::GossipFleet;
use qb_index::{ReadStep, ScoredDoc, ShardEntry, ShardPosting};
use std::borrow::Cow;
use std::sync::Arc;

impl QueenBee {
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
        let mut plans = self.plan_window(requests)?;
        let window_span = self
            .net
            .tracer()
            .open_with("window", now, || format!("{} queries", plans.len()));

        // Stage 2: fetch each distinct missing term shard once, plus at most
        // one statistics read for the whole window. A failed fetch must not
        // leave the span open, or every later query would nest under it.
        let reads = match self.fetch_window(&mut plans) {
            Ok(reads) => reads,
            Err(e) => {
                self.net.tracer().close(window_span, now);
                return Err(e);
            }
        };

        // Stage 3: score, paginate and assemble each response, fanning the
        // window's fetched shards out into every participating cache.
        let batch_fetched = reads.batch_advert_groups(batch);
        let mut responses = Vec::with_capacity(plans.len());
        for plan in plans {
            responses.push(self.serve_plan(plan, &reads, now));
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
    pub(super) fn record_query_tree(
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
            // pipelined query's latency is rebased on its window reads
            // alone, so a term or statistics record the cache served,
            // charged the cache's hit latency, can outlast it, and the root
            // must still end at `done`.
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
    /// the simulated network queueing (and charging) any excess. Each plan
    /// is then scored and answered by the same `serve_plan` a batch window
    /// uses. See [`crate::query::pipeline`] for the state machine; experiment E13
    /// measures the makespan win over back-to-back windows and asserts
    /// byte-identical per-query results.
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
            let plan = plan_request(
                request,
                seq,
                origin_peer,
                frontend,
                &self.analyzer,
                Self::cache_slot(&mut self.cache, &mut self.fleet, frontend),
                &self.shard_versions,
                self.index_stats.version,
                now,
            )?;
            self.query_counter = seq;
            plans.push(plan);
        }
        Ok(plans)
    }

    /// Stage 2 of a window, blocking: perform each read of
    /// [`WindowReads::of`] — every distinct missing `(frontend, term)` shard
    /// once, plus at most one statistics read — in its issue order, so the
    /// simulated network sees a deterministic request sequence. Each fetch
    /// uses the versioned read: the frontend knows the term's current
    /// version and digs past lagging replicas.
    pub(crate) fn fetch_window(&mut self, plans: &mut [QueryPlan]) -> QbResult<WindowReads> {
        // The blocking reads run one at a time from the call instant on an
        // idle link: each completes at `now + latency`, never queued.
        let now = self.net.now();
        let mut reads = WindowReads::of(plans);
        for slot in reads.issue_order() {
            match slot {
                ReadSlot::Stats(read) => {
                    let (stats, cost) = self.dist_index.read_stats(
                        &mut self.net,
                        &mut self.dht,
                        read.origin_peer,
                    )?;
                    read.complete(stats, cost, now + cost.latency, SimDuration::ZERO);
                }
                ReadSlot::Shard(read) => {
                    let current_version = self.shard_versions.get(&read.term).copied().unwrap_or(0);
                    let (shard, cost) = self.dist_index.read_shard_fresh(
                        &mut self.net,
                        &mut self.dht,
                        &mut self.storage,
                        read.origin_peer,
                        &read.term,
                        current_version,
                    )?;
                    read.complete(Arc::new(shard), cost, now + cost.latency, SimDuration::ZERO);
                }
            }
        }
        Ok(reads)
    }

    /// Stage 2 of a window, event-driven: start each read of
    /// [`WindowReads::of`] at the window's issue instant `at`, in issue
    /// order, without waiting for any of them. The per-hop DHT RPCs of these
    /// reads run as in-flight operations of their origin peers, so fetches
    /// of *different* windows genuinely interleave on contended uplinks.
    /// Trace spans nest under the window's span.
    pub(crate) fn begin_window_fetches(
        &mut self,
        plans: &mut [QueryPlan],
        at: SimInstant,
        window_span: Option<qb_trace::SpanId>,
    ) -> WindowReads {
        let mut reads = WindowReads::of(plans);
        for slot in reads.issue_order() {
            match slot {
                ReadSlot::Stats(read) => {
                    let span = self.net.tracer().record(window_span, "stats_read", at, at);
                    let machine = self.dist_index.begin_read_stats(
                        &mut self.net,
                        &mut self.dht,
                        read.origin_peer,
                        at,
                        span.or(window_span),
                    );
                    read.progress = ReadProgress::InFlight(machine, span);
                }
                ReadSlot::Shard(read) => {
                    let span = self
                        .net
                        .tracer()
                        .record_with(window_span, "fetch", at, at, || read.term.clone());
                    let current_version = self.shard_versions.get(&read.term).copied().unwrap_or(0);
                    let machine = self.dist_index.begin_read_shard_fresh(
                        &mut self.net,
                        &mut self.dht,
                        read.origin_peer,
                        &read.term,
                        current_version,
                        at,
                        span.or(window_span),
                    );
                    read.progress = ReadProgress::InFlight(machine, span);
                }
            }
        }
        reads
    }

    /// Advance a window's in-flight reads at instant `at` — the statistics
    /// read, then the shards in slot order — folding every read that
    /// completed into its slot and the window's completion bookkeeping.
    /// Sets `win.next_event` to the earliest instant any remaining read
    /// advances at (`None` when the window is complete). The first failed
    /// read stops the poll and leaves its siblings in flight for
    /// [`WindowReads::abandon`].
    pub(crate) fn poll_window_fetches(
        &mut self,
        win: &mut WindowRun,
        at: SimInstant,
    ) -> QbResult<()> {
        let mut next_event: Option<SimInstant> = None;
        let track = |cand: SimInstant, next_event: &mut Option<SimInstant>| {
            *next_event = Some(next_event.map_or(cand, |cur: SimInstant| cur.min(cand)));
        };
        if let Some(read) = &mut win.reads.stats {
            if let ReadProgress::InFlight(machine, _) = &mut read.progress {
                match self
                    .dist_index
                    .poll_read_stats(&mut self.net, &mut self.dht, machine, at)
                {
                    ReadStep::Ready => {
                        let done = read.fold_completed(&mut self.net)?;
                        win.completes_at = win.completes_at.max(done.completed_at);
                        win.queue_delay += done.queue_delay;
                    }
                    ReadStep::Pending { next_event_at } => track(next_event_at, &mut next_event),
                }
            }
        }
        for read in &mut win.reads.shards {
            if let ReadProgress::InFlight(machine, _) = &mut read.progress {
                match self.dist_index.poll_read_shard(
                    &mut self.net,
                    &mut self.dht,
                    &mut self.storage,
                    machine,
                    &read.term,
                    at,
                ) {
                    ReadStep::Ready => {
                        let done = read.fold_completed(&mut self.net)?;
                        win.completes_at = win.completes_at.max(done.completed_at);
                        win.queue_delay += done.queue_delay;
                    }
                    ReadStep::Pending { next_event_at } => track(next_event_at, &mut next_event),
                }
            }
        }
        win.next_event = next_event;
        Ok(())
    }

    /// Queue a batch window's freshly fetched shard keys as batch-aware
    /// gossip advertisements of the serving frontend (no-op outside fleet
    /// mode or when `GossipConfig::batch_advertise` is off).
    /// [`WindowReads::batch_advert_groups`] produces the per-frontend groups.
    pub(crate) fn note_batch_fetches(&mut self, frontend: usize, terms: &[(String, u64)]) {
        if let Some(fleet) = self.fleet.as_mut() {
            fleet.note_batch_fetches(frontend, terms);
        }
    }

    /// Fold a pipelined run's counters into the engine-lifetime stats.
    pub(crate) fn record_pipeline_run(&mut self, report: &PipelineReport) {
        self.query_stats.pipelined_windows += report.windows as u64;
        self.query_stats.pipelined_queries += report.queries as u64;
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

    /// The serving cache's slot: the single-mode cache, or the routed
    /// frontend's private cache in fleet mode. Takes the fields, not `self`,
    /// so callers keep the rest of the engine borrowable beside it.
    fn cache_slot<'a>(
        cache: &'a mut Option<QueryCache>,
        fleet: &'a mut Option<GossipFleet>,
        frontend: Option<usize>,
    ) -> &'a mut Option<QueryCache> {
        match (frontend, fleet) {
            (Some(i), Some(fleet)) => fleet.cache_slot(i),
            _ => cache,
        }
    }

    /// Stage 3 of the pipeline: turn one plan plus the window's shared
    /// reads into a [`SearchResponse`], store what the serving cache
    /// should keep, record version observations, account freshness and
    /// attach the ad. Every entry point scores a query the result tier did
    /// not answer here, exactly once.
    ///
    /// Shards are only ever borrowed here — from the plan's handles and the
    /// window's reads — and fan out into the serving cache as handles. The
    /// kernel ranks borrowed keys ([`qb_index::rank`]); a scored list is
    /// built only for a result tier that admits it, once, and every later
    /// result hit shares it. Otherwise the response's page of hits is all
    /// that is built.
    pub(crate) fn serve_plan(
        &mut self,
        mut plan: QueryPlan,
        reads: &WindowReads,
        now: SimInstant,
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
                TermPlan::Fetch { read } => {
                    let fetch = reads.shard(*read);
                    term_latencies.push(fetch.cost.latency);
                    if fetch.charged_to == plan.seq {
                        messages += fetch.cost.messages;
                        provenance.push(TermProvenance::DhtFetch);
                    } else {
                        provenance.push(TermProvenance::BatchShared);
                    }
                    observed.push((&planned.term, fetch.value.version));
                    fan_out.push(&fetch.value);
                    shards.push(Cow::Borrowed(&fetch.value));
                }
                TermPlan::ResultCached => unreachable!("handled by the result-hit path"),
            }
        }

        // Statistics: the plan's cached copy, or the window's shared read.
        let (stats, stats_latency, stats_fetched) = match &plan.stats {
            StatsPlan::Cached(stats) => (*stats, hit_latency, false),
            StatsPlan::Fetch => {
                let read = reads.stats_read();
                if read.charged_to == plan.seq {
                    messages += read.cost.messages;
                }
                (read.value, read.cost.latency, true)
            }
        };

        // The window's reads run conceptually in parallel: total latency is
        // the max over the stats read and this query's term components.
        let shard_stage = qb_simnet::parallel_latency(&term_latencies);
        let latency = shard_stage.max(stats_latency);

        // Score every candidate; what gets built from the scores is decided
        // by who keeps it.
        let components = &self.rank_components;
        // An unranked page blends as rank 0: `rank_component(0.0)` is 0.
        let component_of = |p: &ShardPosting| components.get(&p.doc_id).copied().unwrap_or(0.0);
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
            if stats_fetched {
                c.store_stats(stats, stats.version);
            }
            if !any_stale {
                let terms = plan.terms.iter().map(|t| t.term.as_str());
                let term_versions = terms.zip(shards.iter().map(|s| s.version));
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
        // `shards` borrowed the plan's handles; the plan moves on now.
        drop(shards);

        // The compute stages (plan/score/rank-blend) stay at their zero
        // default: local work is free under the simulated cost model.
        let trace = StageCosts {
            stats: stats_latency,
            shard_fetch: shard_stage,
            messages,
            candidates_scored: total,
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
}

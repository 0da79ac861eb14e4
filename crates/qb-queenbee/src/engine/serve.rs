//! The serve seam: one window executor with one read schedule. A window of
//! requests is planned against the cache tiers and its distinct missing
//! shards (and the statistics record) are enumerated once, into one window
//! record (`open_window`); every read is issued at the window's instant by
//! one function (`issue_read`, via `read_concurrently`) and the window is
//! polled as its reads advance (`poll_window`, one `poll_read` per read);
//! one retire step (`retire_window`) serves every plan and queues the batch
//! adverts. `search_request` / `search_batch` run one window to completion;
//! the pipeline driver behind `search_pipelined` overlaps several.

use super::QueenBee;
use crate::query::executor::{ReadPoll, ReadProgress, ReadSlot, WindowReads, WindowRun};
use crate::query::pipeline::{PipelineConfig, PipelineDriver, PipelineOutcome, PipelineReport};
use crate::query::plan::{plan_request, QueryPlan, StatsPlan, TermPlan};
use crate::query::request::{RoutingPolicy, SearchRequest};
use crate::query::response::{paginate, SearchResponse, StageCosts, TermProvenance};
use qb_cache::QueryCache;
use qb_common::{QbError, QbResult, SimDuration, SimInstant};
use qb_gossip::GossipFleet;
use qb_index::{ScoredDoc, ShardEntry, ShardPosting};
use qb_trace::SpanId;
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
    /// window's reads are issued together and run concurrently on the
    /// simulated network, so a query waits for the slowest read it needs,
    /// not a per-query sum, and reads that share an uplink queue behind its
    /// in-flight limit exactly as a pipelined window's do — and fans the
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
    /// failed fetch aborts the whole batch with the first error, and the
    /// reads still in flight are abandoned.
    pub fn search_batch(&mut self, requests: Vec<SearchRequest>) -> QbResult<Vec<SearchResponse>> {
        let now = self.net.now();
        let mut win = self.open_window(requests, now)?;
        let mut read = self.read_concurrently(&mut win);
        while let (Ok(()), Some(next)) = (&read, win.next_event) {
            read = self.poll_window(&mut win, next);
        }
        if let Err(err) = read {
            win.reads.abandon(&mut self.net);
            return Err(err);
        }
        let mut responses = Vec::with_capacity(win.plans.len());
        self.retire_window(win, &mut responses);
        // One root tree per response, rebuilt from its staged costs so the
        // closed-loop path gets the same query/plan/fetch/score shape the
        // open-loop server records.
        for response in &responses {
            self.record_query_tree(response, now, now + response.latency, None);
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
            // query's latency is the slowest window read it waited on, so a
            // term or statistics record the cache served, charged the
            // cache's hit latency, can outlast it, and the root must still
            // end at `done`.
            let costs = &response.trace;
            if costs.plan > SimDuration::ZERO {
                let end = (issued_at + costs.plan).min(done);
                self.net.tracer().record(root, "plan", issued_at, end);
            }
            if costs.stats > SimDuration::ZERO {
                let end = (issued_at + costs.stats).min(done);
                self.net.tracer().record(root, "stats", issued_at, end);
            }
            // The service interval runs to the query's completion, but the
            // per-link queueing charged inside the slowest dependency
            // (`StageCosts::net_queue`) is split off as its own span so
            // attribution separates waiting on contended links from fetch
            // service.
            let net_queue = costs.net_queue.min(done.since(issued_at));
            let service = done.since(issued_at).as_micros() - net_queue.as_micros();
            let fetch_end = issued_at + SimDuration::from_micros(service);
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

    /// The one window constructor: plan every request against its
    /// frontend's cache tiers (no network traffic; planning *is* the cache
    /// read), open the window's span at `at` and enumerate its reads
    /// ([`WindowReads::of`]). Planning records no spans, so the span opens
    /// only once the window is known to be valid.
    pub(crate) fn open_window(
        &mut self,
        requests: Vec<SearchRequest>,
        at: SimInstant,
    ) -> QbResult<WindowRun> {
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
        let count = plans.len();
        let span = self
            .net
            .tracer()
            .record_with(None, "window", at, at, || format!("{count} queries"));
        let reads = WindowReads::of(&mut plans);
        Ok(WindowRun {
            plans,
            reads,
            issued_at: at,
            completes_at: at,
            next_event: None,
            span,
            queue_delay: SimDuration::ZERO,
        })
    }

    /// The read schedule of every window: issue each of its reads at the
    /// window's instant, in poll order ([`WindowReads::poll_order`]),
    /// without waiting for any, then poll the window once. The per-hop DHT
    /// RPCs run as in-flight operations of their origin peers, so a
    /// window's reads — and those of *different* windows — genuinely
    /// interleave on contended uplinks.
    pub(crate) fn read_concurrently(&mut self, win: &mut WindowRun) -> QbResult<()> {
        let (at, span) = (win.issued_at, win.span);
        for mut slot in win.reads.poll_order() {
            self.issue_read(&mut slot, at, span);
        }
        self.poll_window(win, at)
    }

    /// Advance a window at instant `at` — the statistics read, then the
    /// shards in slot order ([`WindowReads::poll_order`]), each read only
    /// if it is due — folding every read that completed into the window's
    /// completion bookkeeping. Sets `win.next_event` to the earliest
    /// instant any remaining read advances at (`None` when the window is
    /// complete). The first failed read stops the poll and leaves its
    /// siblings in flight for [`WindowReads::abandon`].
    pub(crate) fn poll_window(&mut self, win: &mut WindowRun, at: SimInstant) -> QbResult<()> {
        let mut next_event: Option<SimInstant> = None;
        for mut slot in win.reads.poll_order() {
            match self.poll_read(&mut slot, at)? {
                ReadPoll::Done {
                    completed_at,
                    queue_delay,
                } => {
                    win.completes_at = win.completes_at.max(completed_at);
                    win.queue_delay += queue_delay;
                }
                ReadPoll::Pending(next) => {
                    next_event = Some(next_event.map_or(next, |cur| cur.min(next)));
                }
                ReadPoll::Idle => {}
            }
        }
        win.next_event = next_event;
        Ok(())
    }

    /// Issue one read of a window at instant `at`: its `stats_read` or
    /// `fetch` span opens under the window's, and its read machine starts.
    /// Each shard read uses the versioned read: the frontend knows the
    /// term's current version and digs past lagging replicas.
    fn issue_read(&mut self, slot: &mut ReadSlot<'_>, at: SimInstant, window_span: Option<SpanId>) {
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
                read.progress = ReadProgress::InFlight(machine, span, at);
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
                read.progress = ReadProgress::InFlight(machine, span, at);
            }
        }
    }

    /// Advance one read of a window at instant `at`; a read that finishes
    /// is folded into its slot ([`crate::query::executor::WindowRead::poll`]).
    fn poll_read(&mut self, slot: &mut ReadSlot<'_>, at: SimInstant) -> QbResult<ReadPoll> {
        let (index, dht, storage) = (&self.dist_index, &mut self.dht, &mut self.storage);
        let views = &mut self.shard_views;
        match slot {
            ReadSlot::Stats(read) => read.poll(&mut self.net, at, |net, machine, _| {
                index.poll_read_stats(net, dht, machine, at)
            }),
            ReadSlot::Shard(read) => read.poll(&mut self.net, at, |net, machine, term| {
                index.poll_read_shard(net, dht, storage, views, machine, term, at)
            }),
        }
    }

    /// The retire step of every window, once all its reads completed: close
    /// its span, serve every plan in order (`serve_plan`), and queue a
    /// genuine batch window's freshly fetched shard keys as the serving
    /// frontends' batch-aware gossip adverts, so the rest of the fleet warms
    /// one digest round earlier (no-op outside fleet mode or when
    /// `GossipConfig::batch_advertise` is off).
    pub(crate) fn retire_window(&mut self, win: WindowRun, responses: &mut Vec<SearchResponse>) {
        self.net.tracer().close(win.span, win.completes_at);
        let now = self.net.now();
        let batch = win.plans.len() >= 2 && self.fleet.is_some();
        let adverts = win.reads.batch_advert_groups(batch);
        for plan in win.plans {
            responses.push(self.serve_plan(plan, &win.reads, win.issued_at, now));
        }
        if let Some(fleet) = self.fleet.as_mut() {
            for (frontend, terms) in adverts {
                fleet.note_batch_fetches(frontend, &terms);
            }
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
        mut plan: QueryPlan,
        reads: &WindowReads,
        issued_at: SimInstant,
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
        // The slowest fetched read this plan waits on: its completion
        // instant and the link queueing inside it.
        let mut critical: Option<(SimInstant, SimDuration)> = None;
        let slower = |critical: Option<(SimInstant, SimDuration)>,
                      read: (SimInstant, SimDuration)| {
            Some(
                critical
                    .filter(|slowest| slowest.0 >= read.0)
                    .unwrap_or(read),
            )
        };
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
                    critical = slower(critical, (fetch.completed_at, fetch.queue_delay));
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
                critical = slower(critical, (read.completed_at, read.queue_delay));
                (read.value, read.cost.latency, true)
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
                c.store_stats(stats);
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
            net_queue,
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

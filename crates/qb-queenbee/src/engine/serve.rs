//! The serve seam: one window loop (`run_windows`) with one read schedule.
//! A window is planned and its distinct reads enumerated once
//! (`open_window`); every read is issued at the window's instant
//! (`issue_read`, via `read_concurrently`) and polled as it advances
//! (`poll_window`, one `poll_read` per read); one retire step
//! (`retire_window`) serves every plan. `search_request` is a run of one
//! one-query window, `search_pipelined` any run, and `serve_open_loop`
//! makes one run per dispatch.

use super::QueenBee;
use crate::query::executor::{ReadPoll, ReadProgress, ReadSlot, WindowReads, WindowRun};
use crate::query::pipeline::{PipelineConfig, PipelineOutcome, PipelineReport, WindowSpan};
use crate::query::plan::{plan_request, QueryPlan, Resolution, StatsPlan, TermPlan};
use crate::query::request::{RoutingPolicy, SearchRequest};
use crate::query::response::{paginate, SearchResponse, StageCosts, TermProvenance};
use qb_cache::QueryCache;
use qb_common::{QbError, QbResult, SimDuration, SimInstant};
use qb_gossip::GossipFleet;
use qb_index::{ScoredDoc, ShardEntry, ShardPosting};
use qb_trace::SpanId;
use std::borrow::Cow;
use std::collections::VecDeque;
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
            window_spans: self.window_spans.clone(),
        })
    }

    /// The one window loop: take the earliest pending event — issue the next
    /// window (cut off the front of the stream when one of `config`'s depth
    /// of slots is free) or advance every window in flight to the next read
    /// completion — until every request is served or a read fails. Windows
    /// retire in FIFO order into `window_spans`. A failed run abandons the
    /// reads still in flight, leaving no phantom link occupancy, and its
    /// report counts the windows that served before the failure.
    pub(super) fn run_windows(
        &mut self,
        requests: Vec<SearchRequest>,
        config: PipelineConfig,
    ) -> (PipelineReport, QbResult<Vec<SearchResponse>>) {
        let window = config.window_size.max(1);
        let depth = config.max_windows_in_flight.max(1);
        let mut report = PipelineReport::default();
        let mut responses = Vec::with_capacity(requests.len());
        let mut in_flight = std::mem::take(&mut self.in_flight);
        self.window_spans.clear();
        let mut pending: VecDeque<SearchRequest> = requests.into();
        let t0 = self.net.now();
        // Window w may issue once window w - depth has retired; FIFO
        // retirement makes this the completion instant of the window
        // retired most recently.
        let mut next_issue_at = t0;
        // The loop's position on the virtual timeline; only ever moves
        // forward (to an issue instant or the next read completion).
        let mut cursor = t0;

        let served = loop {
            // Retire the front window once all its reads completed (its
            // last poll found none pending): Fetching → Scoring → Done.
            if let Some(win) = in_flight.pop_front_if(|w| w.next_event.is_none()) {
                next_issue_at = next_issue_at.max(win.completes_at);
                report.makespan = report.makespan.max(win.completes_at.since(t0));
                report.queue_delay += win.queue_delay;
                report.windows += 1;
                report.queries += win.plans.len();
                self.window_spans.push(WindowSpan {
                    first_query: responses.len(),
                    queries: win.plans.len(),
                    issued_at: win.issued_at,
                    completed_at: win.completes_at,
                });
                self.retire_window(win, &mut responses);
                continue;
            }

            let can_issue = !pending.is_empty() && in_flight.len() < depth;
            let issue_at = next_issue_at.max(cursor);
            let next_completion = in_flight.iter().filter_map(|w| w.next_event).min();

            match next_completion {
                Some(completion) if !can_issue || completion < issue_at => {
                    cursor = completion;
                    // Advance every window in flight: reads of different
                    // windows share the per-peer uplinks, so a completion
                    // in one window can unblock (or be interleaved with)
                    // hops of another. FIFO order keeps it deterministic.
                    let polled = in_flight
                        .iter_mut()
                        .try_for_each(|win| self.poll_window(win, cursor));
                    if let Err(err) = polled {
                        break Err(err);
                    }
                }
                _ if can_issue => {
                    // Cut the next window at the moment it issues (the last
                    // one takes the rest of the stream as it is), plan it
                    // and start its reads (Planned → Fetching). They advance
                    // only through `poll_window`; the immediate poll lets
                    // zero-latency reads finish in place.
                    cursor = issue_at;
                    let requests = if pending.len() <= window {
                        Vec::from(std::mem::take(&mut pending))
                    } else {
                        pending.drain(..window).collect()
                    };
                    let mut win = match self.open_window(requests, issue_at) {
                        Ok(win) => win,
                        Err(err) => break Err(err),
                    };
                    report.stats_reads += u64::from(win.reads.stats.is_some());
                    report.shard_fetches += win.reads.shards.len() as u64;
                    // The window is in flight whether or not its first poll
                    // succeeds: a read that fails on the spot must not
                    // strand its siblings' hops.
                    let polled = self.read_concurrently(&mut win);
                    in_flight.push_back(win);
                    if let Err(err) = polled {
                        break Err(err);
                    }
                    report.peak_windows_in_flight =
                        report.peak_windows_in_flight.max(in_flight.len());
                }
                _ => break Ok(()),
            }
        };

        for mut win in in_flight.drain(..) {
            win.reads.abandon(&mut self.net);
        }
        self.in_flight = in_flight;
        (report, served.map(|()| responses))
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
        for span in &self.window_spans {
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
        plan: QueryPlan,
        reads: &WindowReads,
        issued_at: SimInstant,
        now: SimInstant,
    ) -> SearchResponse {
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
                return self.finish_response(
                    plan.seq,
                    plan.request,
                    terms,
                    hits,
                    total,
                    hit_latency,
                    trace,
                    provenance,
                );
            }
            Resolution::PerTerm { terms, stats } => (terms, stats),
        };

        // Line the shards up in term order, borrowed from the plan's
        // resolutions and the window's shared fetches (only a proven-absent
        // term needs an owned, empty stand-in).
        let mut shards: Vec<Cow<'_, ShardEntry>> = Vec::with_capacity(terms.len());
        let mut provenance: Vec<TermProvenance> = Vec::with_capacity(terms.len());
        let mut term_latencies: Vec<SimDuration> = Vec::with_capacity(terms.len());
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
        for planned in &terms {
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
            }
        }

        // Statistics: the plan's cached copy, or the window's shared read.
        let (stats, stats_latency, stats_fetched) = match &stats_plan {
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
                let names = terms.iter().map(|t| t.term.as_str());
                let term_versions = names.zip(shards.iter().map(|s| s.version));
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
        self.finish_response(
            plan.seq,
            plan.request,
            terms,
            hits,
            total,
            latency,
            trace,
            provenance,
        )
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

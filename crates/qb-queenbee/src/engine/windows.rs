//! The window loop: every query the engine serves runs through it, and this
//! module owns a window's whole lifecycle — the window record, its reads and
//! the loop that issues, polls, retires and abandons them.
//!
//! # One loop, one read schedule
//!
//! The entry points differ only in the shape they hand `run_windows`:
//! `search_request` is one window of one query, a batch is one window
//! ([`PipelineConfig::batch`]), and `search_pipelined` and each
//! `serve_open_loop` dispatch overlap up to
//! [`PipelineConfig::max_windows_in_flight`] windows. Every window moves
//! through four stages:
//!
//! ```text
//!   Planned ──issue reads──▶ Fetching ──all machines done──▶ Scoring ──▶ Done
//! ```
//!
//! * **Planned** — `open_window` plans every request against its serving
//!   frontend's cache tiers ([`plan_query`]; planning *is* the cache
//!   read, no network traffic), opens the window's span and enumerates its
//!   reads once (`WindowReads::of`): plan order, then term order, each
//!   distinct missing `(frontend, term)` shard one slot, plus at most one
//!   statistics read. The first plan to need a read triggers it and alone
//!   pays its messages, and each plan term it serves carries the slot
//!   ([`TermPlan::Fetch`]). A result-cache hit reads nothing. Sharing is
//!   per frontend on purpose: two frontends are two machines, and moving a
//!   shard between them is the gossip overlay's job, which charges the
//!   transfer to the simulated network.
//! * **Fetching** — `issue_window` starts every read at the window's
//!   instant, in poll order (the statistics read, then the shards in slot
//!   order: an order the simulated network's RNG sees), each an
//!   event-driven read machine ([`qb_index::ReadMachine`]) in its slot:
//!   its DHT hops go out through [`qb_simnet::SimNet::send_async_at`] on
//!   the origin peer's uplink, whose in-flight limit
//!   ([`qb_simnet::NetConfig::max_in_flight_per_link`]) queues excess hops
//!   *hop by hop*, so a window's reads — and those of different windows —
//!   interleave on a contended link, every queue delay charged to
//!   [`qb_simnet::NetStats`] and to the window. `poll_window` advances the
//!   reads that are due; a finished machine is swapped, in its slot, for
//!   what it read (`CompletedRead`), a shard as the `Arc` every holder of
//!   its record shares.
//! * **Scoring** — once the window's slowest read completes,
//!   `retire_window` checks that every read finished (one still unfinished
//!   is an error, never a panic) and serves each plan (`serve_plan`): one
//!   kernel call per query the result tier did not answer. A plan that
//!   waited on a read is charged the slowest such read's completion minus
//!   the window's issue instant.
//! * **Done** — responses are assembled, fetched shards fan out into the
//!   serving cache as handles (nothing copies postings), and with gossip on
//!   a batch window's freshly fetched shard keys are queued as batch-aware
//!   gossip adverts ([`qb_gossip::GossipFleet::note_batch_fetches`]), so
//!   the next digest round warms the rest of the fleet one round earlier.
//!
//! # The event loop
//!
//! The loop owns a cursor on the virtual timeline and repeatedly takes the
//! earliest pending event: *issue* a window (when a slot of the depth is
//! free and the issue instant is due) or *advance* every window in flight
//! to the next read completion. A window is cut from the front of the
//! stream at the moment it issues, and windows retire in FIFO order (like a
//! CPU pipeline), so responses come back in request order and cache stores
//! happen in a deterministic sequence; the **makespan** of the stream is
//! the completion instant of the last window, which experiment E13
//! compares against back-to-back execution of the same stream. A failed
//! read aborts the run with the first error and abandons every read still
//! in flight, leaving no phantom link occupancy; an empty request list
//! opens no window.
//!
//! The virtual timeline never moves the engine's shared clock: cache
//! effects are applied at the call instant, while issue and completion
//! instants drive latency, queueing and makespan accounting.

use super::QueenBee;
use crate::query::pipeline::{PipelineConfig, PipelineReport, WindowSpan};
use crate::query::plan::{plan_query, QueryPlan, Resolution, StatsPlan, TermPlan};
use crate::query::request::SearchRequest;
use crate::query::response::SearchResponse;
use crate::query::terms::{TermId, TermTable};
use qb_common::{QbError, QbResult, SimDuration, SimInstant};
use qb_gossip::TermKey;
use qb_index::shard::IndexOpCost;
use qb_index::{IndexStats, RankScratch, ReadMachine, ReadStep, ShardEntry, ShardImpacts};
use qb_simnet::SimNet;
use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// The lists the window loop and `serve_plan` fill and empty, kept across
/// runs (ARCHITECTURE.md, "A query's scratch is kept by its owner"): between
/// runs every list is empty but the spans and the spare windows, whose own
/// lists are.
#[derive(Default)]
pub(super) struct Windows {
    /// The windows in flight.
    in_flight: VecDeque<WindowRun>,
    /// Retired windows, emptied, for new windows to fill: never more than
    /// were once in flight at once.
    spare: Vec<WindowRun>,
    /// The run's requests not yet cut into a window.
    pending: VecDeque<SearchRequest>,
    /// The run's responses, in request order, for its entry point to take.
    pub(super) responses: Vec<SearchResponse>,
    /// One span per window the last run retired, in request order.
    pub(super) spans: Vec<WindowSpan>,
    /// The shards a plan is scored from, lined up in term order while
    /// `serve_plan` serves it.
    pub(super) lineup: Vec<(Cow<'static, ShardEntry>, Option<ShardImpacts>)>,
    /// The kernel's walk table and key buffer.
    pub(super) rank: RankScratch,
}

impl Windows {
    /// Empty a retired or abandoned window's lists and keep it.
    fn recycle(&mut self, mut win: WindowRun) {
        win.plans.clear();
        win.reads.stats = None;
        win.reads.shards.clear();
        self.spare.push(win);
    }
}

/// One window of a run, from planning to retirement.
#[derive(Default)]
struct WindowRun {
    plans: Vec<QueryPlan>,
    reads: WindowReads,
    /// When the window's reads were issued on the virtual timeline.
    issued_at: SimInstant,
    /// Earliest instant any pending read advances at (`None` once the
    /// window is complete): the instant the loop polls it next.
    next_event: Option<SimInstant>,
    /// The window's trace span (children: one `fetch`/`stats_read` span
    /// per read, each nesting its per-hop `dht.lookup`/`rpc` spans).
    span: Option<qb_trace::SpanId>,
}

/// What a finished index read returned and what it cost, shared by every
/// query of the window that needs it.
pub(super) struct CompletedRead<T> {
    value: T,
    cost: IndexOpCost,
    /// `seq` of the query that triggered the read.
    charged_to: u64,
    completed_at: SimInstant,
    /// Link queueing inside the read's wall time: nonzero when its hops
    /// queued behind its origin peer's in-flight limit.
    queue_delay: SimDuration,
}

impl<T> CompletedRead<T> {
    /// What was read.
    pub(super) fn value(&self) -> &T {
        &self.value
    }

    /// The read's latency, charged to every query that shares it (the
    /// window's reads run concurrently).
    pub(super) fn latency(&self) -> SimDuration {
        self.cost.latency
    }

    /// When the read completed on the window's timeline, and the link
    /// queueing inside its wall time.
    fn completion(&self) -> (SimInstant, SimDuration) {
        (self.completed_at, self.queue_delay)
    }

    /// The slower of `slowest` — the slowest read a plan waits on so far,
    /// as its completion, whose link queueing the plan is charged as
    /// `net_queue` — and this read (the first of equals stays).
    pub(super) fn slowest(
        &self,
        slowest: Option<(SimInstant, SimDuration)>,
    ) -> Option<(SimInstant, SimDuration)> {
        let this = self.completion();
        slowest.filter(|slowest| slowest.0 >= this.0).or(Some(this))
    }

    /// The read's RPC messages when query `seq` triggered it: no other
    /// query is charged them.
    pub(super) fn messages_charged_to(&self, seq: u64) -> Option<u64> {
        (self.charged_to == seq).then_some(self.cost.messages)
    }
}

/// How far a [`WindowRead`] got.
enum ReadProgress<T> {
    /// Enumerated, not issued (or failed).
    Planned,
    /// Issued: the event-driven machine, the read's trace span (open until
    /// the machine finishes) and the instant the machine next advances at.
    InFlight(ReadMachine<T>, Option<qb_trace::SpanId>, SimInstant),
    /// Finished; it stays in its slot until the window retires.
    Done(CompletedRead<T>),
}

/// One index read of a window, from enumeration to retirement: a term's
/// shard (`K` is its [`TermId`]) or the statistics record (`K` is `()`).
struct WindowRead<T, K = ()> {
    /// The frontend the read is scoped to (`None` with the cache off).
    frontend: Option<usize>,
    /// The term whose shard is read.
    term: K,
    /// The simulated peer the read is issued from.
    origin_peer: u64,
    /// `seq` of the first query in plan order to need the read.
    charged_to: u64,
    progress: ReadProgress<T>,
}

impl<T, K: Copy> WindowRead<T, K> {
    fn planned(frontend: Option<usize>, term: K, origin_peer: u64, charged_to: u64) -> Self {
        WindowRead {
            frontend,
            term,
            origin_peer,
            charged_to,
            progress: ReadProgress::Planned,
        }
    }

    /// The read's machine and term when the machine is in flight and due
    /// at `at`: before its next event a machine has nothing to advance, so
    /// a window polling a sibling read's event skips it.
    fn due(&mut self, at: SimInstant) -> Option<(&mut ReadMachine<T>, K)> {
        match &mut self.progress {
            ReadProgress::InFlight(machine, _, next) if at >= *next => Some((machine, self.term)),
            _ => None,
        }
    }

    /// Fold what this poll's step of the machine found (`None`: the read
    /// was not due) and return the instant the read advances at next
    /// (`None` once nothing is in flight). A `Ready` machine is swapped, in
    /// its slot, for what it read, closing the read's span; a failed read
    /// leaves the slot `Planned`, so it never keeps a machine with nothing
    /// left in flight.
    fn settle(&mut self, net: &mut SimNet, step: Option<ReadStep>) -> QbResult<Option<SimInstant>> {
        let ReadProgress::InFlight(_, _, next) = &mut self.progress else {
            return Ok(None);
        };
        if let Some(ReadStep::Pending { next_event_at }) = step {
            *next = next_event_at;
        }
        if step != Some(ReadStep::Ready) {
            return Ok(Some(*next));
        }
        let progress = std::mem::replace(&mut self.progress, ReadProgress::Planned);
        let ReadProgress::InFlight(machine, span, _) = progress else {
            return Ok(None);
        };
        let queue_delay = machine.queue_delay();
        let (value, cost, completed_at) = machine.into_result()?;
        net.tracer().close(span, completed_at);
        self.progress = ReadProgress::Done(CompletedRead {
            value,
            cost,
            charged_to: self.charged_to,
            completed_at,
            queue_delay,
        });
        Ok(None)
    }

    fn abandon(&mut self, net: &mut SimNet) {
        if let ReadProgress::InFlight(machine, ..) = &mut self.progress {
            machine.abandon(net);
            self.progress = ReadProgress::Planned;
        }
    }
}

/// What a read a window's plans name returned: a window is served only once
/// every such read completed, so a missing or unfinished one is an error.
fn finished<T, K>(read: Option<&WindowRead<T, K>>) -> QbResult<&CompletedRead<T>> {
    match read.map(|read| &read.progress) {
        Some(ReadProgress::Done(done)) => Ok(done),
        _ => Err(QbError::Query(
            "a window read its plans name has not finished".into(),
        )),
    }
}

/// A frontend's batch adverts: fetched shard keys and versions.
type Adverts = Vec<(TermKey, u64)>;

/// A slot of [`WindowReads`], as [`WindowReads::poll_order`] hands it out.
enum ReadSlot<'a> {
    Stats(&'a mut WindowRead<IndexStats>),
    Shard(&'a mut WindowRead<Arc<ShardEntry>, TermId>),
}

/// The index reads of one window: each distinct `(serving frontend, term)`
/// shard once, plus at most one statistics read. (With the cache off the
/// frontend slot is `None`, so the whole window shares.)
#[derive(Default)]
pub(super) struct WindowReads {
    stats: Option<WindowRead<IndexStats>>,
    /// The shard reads, in enumeration order; a [`TermPlan::Fetch`] holds an
    /// index into this.
    shards: Vec<WindowRead<Arc<ShardEntry>, TermId>>,
}

impl WindowReads {
    /// The one enumeration every window starts from, into its emptied
    /// reads: walk the plans in order and each plan's terms in order, give
    /// every distinct missing `(frontend, term)` one slot — the first plan
    /// to need a read triggers it and pays for it — and write the slot into
    /// each term it serves.
    fn enumerate(&mut self, plans: &mut [QueryPlan]) {
        for plan in plans.iter_mut() {
            let (frontend, origin_peer, seq) = (plan.frontend, plan.origin_peer, plan.seq);
            let Resolution::PerTerm { terms, stats } = &mut plan.resolution else {
                continue;
            };
            if matches!(stats, StatsPlan::Fetch) && self.stats.is_none() {
                let stats = WindowRead::planned(frontend, (), origin_peer, seq);
                self.stats = Some(stats);
            }
            for planned in terms {
                if let TermPlan::Fetch { read } = &mut planned.plan {
                    let shards = &mut self.shards;
                    let shared = shards
                        .iter()
                        .position(|r| r.frontend == frontend && r.term == planned.id);
                    *read = shared.unwrap_or_else(|| {
                        let term = planned.id;
                        shards.push(WindowRead::planned(frontend, term, origin_peer, seq));
                        shards.len() - 1
                    });
                }
            }
        }
    }

    /// Every read once, in the order the window issues and polls them: the
    /// statistics read, then the shards in slot order. The order feeds the
    /// simulated network's RNG.
    fn poll_order(&mut self) -> impl Iterator<Item = ReadSlot<'_>> {
        let stats = self.stats.as_mut().map(ReadSlot::Stats);
        stats
            .into_iter()
            .chain(self.shards.iter_mut().map(ReadSlot::Shard))
    }

    /// Retire whatever the window still has in flight without processing
    /// it (abort path), so an aborted run leaves no phantom link occupancy.
    fn abandon(&mut self, net: &mut SimNet) {
        self.stats.iter_mut().for_each(|read| read.abandon(net));
        self.shards.iter_mut().for_each(|read| read.abandon(net));
    }

    /// The finished shard read in `slot` (a [`TermPlan::Fetch`]'s `read`).
    pub(super) fn shard(&self, slot: usize) -> QbResult<&CompletedRead<Arc<ShardEntry>>> {
        finished(self.shards.get(slot))
    }

    /// The finished statistics read of a window with a [`StatsPlan::Fetch`]
    /// plan.
    pub(super) fn stats(&self) -> QbResult<&CompletedRead<IndexStats>> {
        finished(self.stats.as_ref())
    }

    /// When the window, issued at `issued_at`, completed — its slowest
    /// read's completion, or the issue instant if it read nothing — and the
    /// link queueing the per-link in-flight limits charged its reads; an
    /// error if a read has not finished.
    fn completion(&self, issued_at: SimInstant) -> QbResult<(SimInstant, SimDuration)> {
        let (mut completes_at, mut queue_delay) = (issued_at, SimDuration::ZERO);
        let mut fold = |(done, delay): (SimInstant, SimDuration)| {
            completes_at = completes_at.max(done);
            queue_delay += delay;
        };
        if let Some(read) = &self.stats {
            fold(finished(Some(read))?.completion());
        }
        for read in &self.shards {
            fold(finished(Some(read))?.completion());
        }
        Ok((completes_at, queue_delay))
    }

    /// Group the window's freshly fetched shard keys by serving frontend,
    /// each group in ascending term text order, for batch-aware gossip
    /// advertisement. Only genuine batch windows (`batch` = the window held
    /// ≥ 2 queries) advertise; single-query serving keeps the original
    /// gossip protocol.
    fn batch_advert_groups(&self, batch: bool, terms: &TermTable) -> HashMap<usize, Adverts> {
        let mut groups: HashMap<usize, Adverts> = HashMap::new();
        if batch {
            for read in &self.shards {
                if let (Some(f), ReadProgress::Done(done)) = (read.frontend, &read.progress) {
                    if done.value.version > 0 {
                        let key = terms.key(read.term).clone();
                        groups.entry(f).or_default().push((key, done.value.version));
                    }
                }
            }
            // A frontend reads a term once per window: text orders them.
            let text_order = |a: &(TermKey, u64), b: &(TermKey, u64)| a.0.term().cmp(b.0.term());
            groups
                .values_mut()
                .for_each(|group| group.sort_by(text_order));
        }
        groups
    }
}

impl QueenBee {
    /// The one window loop: take the earliest pending event — issue the next
    /// window (cut off the front of the stream when one of `config`'s depth
    /// of slots is free) or advance every window in flight to the next read
    /// completion — until every request is served or a read fails. Windows
    /// retire in FIFO order into the engine's window spans and responses
    /// (`Windows::responses`, for the entry point to take). A failed run
    /// abandons the reads still in flight, keeps no response, and its
    /// report counts the windows that served before the failure.
    pub(super) fn run_windows(
        &mut self,
        requests: impl IntoIterator<Item = SearchRequest>,
        config: PipelineConfig,
    ) -> (PipelineReport, QbResult<()>) {
        let window = config.window_size.max(1);
        let depth = config.max_windows_in_flight.max(1);
        let mut report = PipelineReport::default();
        let mut in_flight = std::mem::take(&mut self.windows.in_flight);
        let mut pending = std::mem::take(&mut self.windows.pending);
        pending.extend(requests);
        self.windows.spans.clear();
        self.windows.responses.clear();
        let t0 = self.net.now();
        // The loop's position on the virtual timeline; only ever moves
        // forward (to an issue instant or the next read completion).
        let mut cursor = t0;

        // The loop until every request is served; a failed step ends it.
        let mut run = || -> QbResult<()> {
            loop {
                // Retire the front window once all its reads completed (its
                // last poll found none pending): Fetching → Scoring → Done.
                if let Some(mut win) = in_flight.pop_front_if(|w| w.next_event.is_none()) {
                    let retired = self.retire_window(&mut win, t0, &mut report);
                    self.windows.recycle(win);
                    retired?;
                    continue;
                }

                // Window w may issue once window w - depth has retired: FIFO
                // retirement makes that the latest completion retired so far.
                let can_issue = !pending.is_empty() && in_flight.len() < depth;
                let issue_at = (t0 + report.makespan).max(cursor);
                let next_completion = in_flight.iter().filter_map(|w| w.next_event).min();

                match next_completion {
                    Some(completion) if !can_issue || completion < issue_at => {
                        cursor = completion;
                        // Advance every window in flight: reads of different
                        // windows share the per-peer uplinks, so a completion
                        // in one window can unblock (or be interleaved with)
                        // hops of another. FIFO order keeps it deterministic.
                        for win in in_flight.iter_mut() {
                            self.poll_window(win, cursor)?;
                        }
                    }
                    _ if can_issue => {
                        // Cut the next window at the moment it issues (the
                        // last one takes the rest of the stream as it is),
                        // plan it and start its reads (Planned → Fetching).
                        cursor = issue_at;
                        let cut = pending.len().min(window);
                        let mut win = self.open_window(pending.drain(..cut), issue_at)?;
                        report.stats_reads += u64::from(win.reads.stats.is_some());
                        report.shard_fetches += win.reads.shards.len() as u64;
                        // The window is in flight whether or not its first
                        // poll succeeds: a read that fails on the spot must
                        // not strand its siblings' hops.
                        let issued = self.issue_window(&mut win);
                        in_flight.push_back(win);
                        issued?;
                        report.peak_windows_in_flight =
                            report.peak_windows_in_flight.max(in_flight.len());
                    }
                    _ => return Ok(()),
                }
            }
        };
        let served = run();

        for mut win in in_flight.drain(..) {
            win.reads.abandon(&mut self.net);
            self.windows.recycle(win);
        }
        pending.clear();
        (self.windows.in_flight, self.windows.pending) = (in_flight, pending);
        if served.is_err() {
            self.windows.responses.clear();
        }
        (report, served)
    }

    /// Fold a pipelined run's counters into the engine-lifetime stats.
    pub(super) fn record_pipeline_run(&mut self, report: &PipelineReport) {
        self.query_stats.pipelined_windows += report.windows as u64;
        self.query_stats.pipelined_queries += report.queries as u64;
    }

    /// The one window constructor: plan every request into a spare
    /// window's lists (a request that fails to plan drops the window),
    /// open the window's span at `at` and enumerate its reads. Planning
    /// records no spans, so the span opens only once the window is known to
    /// be valid.
    fn open_window(
        &mut self,
        requests: impl IntoIterator<Item = SearchRequest>,
        at: SimInstant,
    ) -> QbResult<WindowRun> {
        let now = self.net.now();
        let mut win = self.windows.spare.pop().unwrap_or_default();
        for request in requests {
            let (origin_peer, frontend) = self.resolve_route(&request.routing)?;
            // Every planned query bumps the serving frontend's load signal;
            // the EWMA folds at its next heartbeat and rides the gossip
            // summaries that feed two-choices routing.
            if let (Some(f), Some(fleet)) = (frontend, self.fleet.as_mut()) {
                fleet.record_served(f);
            }
            let seq = self.query_counter + 1;
            let plan = plan_query(
                request,
                seq,
                origin_peer,
                frontend,
                &self.analyzer,
                Self::cache_slot(&mut self.fleet, frontend),
                &mut self.terms,
                TermTable::version,
                self.index_stats.version,
                now,
            )?;
            self.query_counter = seq;
            win.plans.push(plan);
        }
        let count = win.plans.len();
        win.span = self
            .net
            .tracer()
            .record_with(None, "window", at, at, || format!("{count} queries"));
        win.reads.enumerate(&mut win.plans);
        (win.issued_at, win.next_event) = (at, None);
        Ok(win)
    }

    /// The issue step of every window: start each of its reads at the
    /// window's instant, in poll order, without waiting for any — a
    /// `stats_read` or `fetch` span under the window's, a shard read as the
    /// versioned read (the frontend knows the term's current version and
    /// digs past lagging replicas) — then poll the window once, so
    /// zero-latency reads finish in place.
    fn issue_window(&mut self, win: &mut WindowRun) -> QbResult<()> {
        let (at, window_span) = (win.issued_at, win.span);
        let (net, dht, index) = (&mut self.net, &mut self.dht, &self.dist_index);
        let terms = &self.terms;
        for slot in win.reads.poll_order() {
            match slot {
                ReadSlot::Stats(read) => {
                    let span = net.tracer().record(window_span, "stats_read", at, at);
                    let peer = read.origin_peer;
                    let machine = index.begin_read_stats(net, dht, peer, at, span.or(window_span));
                    read.progress = ReadProgress::InFlight(machine, span, at);
                }
                ReadSlot::Shard(read) => {
                    let term = terms.text(read.term);
                    let span = net
                        .tracer()
                        .record_with(window_span, "fetch", at, at, || term.to_string());
                    let machine = index.begin_read_shard_fresh(
                        net,
                        dht,
                        read.origin_peer,
                        term,
                        terms.version(read.term),
                        at,
                        span.or(window_span),
                    );
                    read.progress = ReadProgress::InFlight(machine, span, at);
                }
            }
        }
        self.poll_window(win, at)
    }

    /// The poll step: advance a window at instant `at`, each read in poll
    /// order only if it is due, and set `next_event` to the earliest instant
    /// a remaining read advances at. The first failed read stops the poll
    /// and leaves its siblings in flight for the loop to abandon.
    fn poll_window(&mut self, win: &mut WindowRun, at: SimInstant) -> QbResult<()> {
        let (net, dht, index) = (&mut self.net, &mut self.dht, &self.dist_index);
        let (storage, views, terms) = (&mut self.storage, &mut self.shard_views, &self.terms);
        win.next_event = None;
        for slot in win.reads.poll_order() {
            let next = match slot {
                ReadSlot::Stats(read) => {
                    let step = read
                        .due(at)
                        .map(|(machine, _)| index.poll_read_stats(net, dht, machine, at));
                    read.settle(net, step)?
                }
                ReadSlot::Shard(read) => {
                    let step = read.due(at).map(|(machine, term)| {
                        let term = terms.text(term);
                        index.poll_read_shard(net, dht, storage, views, machine, term, at)
                    });
                    read.settle(net, step)?
                }
            };
            win.next_event = win.next_event.into_iter().chain(next).min();
        }
        Ok(())
    }

    /// The retire step of every window, once its last poll left no read in
    /// flight: check that every read finished (an unfinished one is an
    /// error, and nothing of the window is counted or served), count it
    /// into the `report` of the run that started at `t0`, record its span
    /// and close its trace span, serve every plan in order (`serve_plan`,
    /// which reads the finished reads by slot) into the run's responses,
    /// taking the plans, and queue a genuine batch window's freshly fetched
    /// shard keys as the serving frontends' batch-aware gossip adverts
    /// (no-op with the cache or gossip off, or when
    /// `GossipConfig::batch_advertise` is off).
    fn retire_window(
        &mut self,
        win: &mut WindowRun,
        t0: SimInstant,
        report: &mut PipelineReport,
    ) -> QbResult<()> {
        let batch = win.plans.len() >= 2 && self.fleet.is_some();
        let (completes_at, queue_delay) = win.reads.completion(win.issued_at)?;
        let adverts = win.reads.batch_advert_groups(batch, &self.terms);
        report.makespan = report.makespan.max(completes_at.since(t0));
        report.queue_delay += queue_delay;
        report.windows += 1;
        report.queries += win.plans.len();
        self.windows.spans.push(WindowSpan {
            first_query: self.windows.responses.len(),
            queries: win.plans.len(),
            issued_at: win.issued_at,
        });
        self.net.tracer().close(win.span, completes_at);
        let now = self.net.now();
        for plan in win.plans.drain(..) {
            let response = self.serve_plan(plan, &win.reads, win.issued_at, now)?;
            self.chain_query(&response, completes_at);
            self.windows.responses.push(response);
        }
        if let Some(fleet) = self.fleet.as_mut() {
            for (frontend, keyed) in adverts {
                fleet.note_batch_fetches(frontend, &keyed);
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::{cached_engine, from_peer, frontend_cache, page};
    use crate::query::plan::PlannedTerm;
    use qb_chain::AccountId;

    impl Windows {
        /// Whether no window is in flight: none outlives a run.
        pub(in crate::engine) fn is_idle(&self) -> bool {
            self.in_flight.is_empty()
        }
    }

    fn stats() -> IndexStats {
        IndexStats {
            num_docs: 10,
            total_len: 500,
            version: 1,
        }
    }

    /// A hand-built plan: `terms` pairs each term with whether the DHT must
    /// fetch it (otherwise the shard tier resolved it), each interned into
    /// `table`.
    fn plan(
        table: &mut TermTable,
        seq: u64,
        frontend: usize,
        stats: StatsPlan,
        terms: &[(&str, bool)],
    ) -> QueryPlan {
        QueryPlan {
            seq,
            request: SearchRequest::new("hand built"),
            origin_peer: 100 + frontend as u64,
            frontend: Some(frontend),
            result_key: None,
            resolution: Resolution::PerTerm {
                terms: terms
                    .iter()
                    .map(|&(term, fetch)| PlannedTerm {
                        id: table.intern(term),
                        term: term.into(),
                        plan: if fetch {
                            TermPlan::Fetch { read: 0 }
                        } else {
                            TermPlan::CachedShard(Arc::new(ShardEntry::empty(term)))
                        },
                    })
                    .collect(),
                stats,
            },
        }
    }

    #[test]
    fn one_enumeration_assigns_slots_payers_and_issue_order() {
        let cached = StatsPlan::Cached(stats());
        // Two frontends with overlapping terms, a result-cache hit in the
        // middle, and a plan with cached statistics but a missing shard
        // ahead of the first plan that reads the statistics.
        let table = &mut TermTable::default();
        let mut hit = plan(table, 3, 0, cached.clone(), &[]);
        let Resolution::PerTerm { terms, .. } =
            plan(table, 3, 0, cached.clone(), &[("alpha", true)]).resolution
        else {
            unreachable!("a hand-built plan resolves per term");
        };
        hit.resolution = Resolution::ResultHit {
            terms,
            entry: qb_cache::CachedResult {
                results: Arc::new(Vec::new()),
                term_versions: Arc::new([]),
                inputs: qb_index::ScoreInputs::default(),
            },
        };
        let mut plans = vec![
            plan(table, 1, 0, cached, &[("alpha", true), ("beta", false)]),
            plan(
                table,
                2,
                1,
                StatsPlan::Fetch,
                &[("alpha", true), ("gamma", true)],
            ),
            hit,
            plan(
                table,
                4,
                0,
                StatsPlan::Fetch,
                &[("gamma", true), ("alpha", true)],
            ),
            plan(
                table,
                5,
                1,
                StatsPlan::Fetch,
                &[("beta", true), ("alpha", true)],
            ),
        ];
        let mut reads = WindowReads::default();
        reads.enumerate(&mut plans);

        // Each fetch term carries its slot; first occurrence wins the slot,
        // sharing is per frontend, the result hit reads nothing.
        let slots: Vec<Vec<usize>> = plans.iter().map(|p| p.fetch_reads().collect()).collect();
        assert_eq!(
            slots,
            [vec![0], vec![1, 2], vec![], vec![3, 0], vec![4, 1]],
            "slots written into the plans"
        );
        let key = |r: &WindowRead<Arc<ShardEntry>, TermId>| {
            (
                r.frontend.unwrap(),
                table.text(r.term).to_string(),
                r.origin_peer,
                r.charged_to,
            )
        };
        let shards: Vec<_> = reads.shards.iter().map(key).collect();
        let expected = [
            (0, "alpha", 100, 1),
            (1, "alpha", 101, 2),
            (1, "gamma", 101, 2),
            (0, "gamma", 100, 4),
            (1, "beta", 101, 5),
        ];
        assert_eq!(shards.len(), expected.len());
        for (got, want) in shards.iter().zip(expected) {
            assert_eq!((got.0, got.1.as_str(), got.2, got.3), want);
        }
        // The statistics read belongs to the first plan that needs it, not
        // to plan 1, which stands ahead of it with cached statistics; every
        // window issues it first, then the shards in slot order.
        let stats_read = reads.stats.as_ref().expect("plans 2, 4 and 5 read stats");
        assert_eq!((stats_read.charged_to, stats_read.origin_peer), (2, 101));
        let order: Vec<String> = reads
            .poll_order()
            .map(|slot| match slot {
                ReadSlot::Stats(_) => "stats".to_string(),
                ReadSlot::Shard(r) => format!("{}/{}", r.frontend.unwrap(), table.text(r.term)),
            })
            .collect();
        assert_eq!(
            order,
            ["stats", "0/alpha", "1/alpha", "1/gamma", "0/gamma", "1/beta"]
        );

        // Completing every shard read in place lets batch adverts come out
        // per frontend in ascending term order — not slot order — without
        // the proven-absent (version 0) shard.
        for (slot, read) in reads.shards.iter_mut().enumerate() {
            let mut entry = ShardEntry::empty(table.text(read.term));
            entry.version = slot as u64; // slot 0 is a proven absence
            read.progress = ReadProgress::Done(CompletedRead {
                value: Arc::new(entry),
                cost: IndexOpCost::default(),
                charged_to: read.charged_to,
                completed_at: SimInstant::ZERO,
                queue_delay: SimDuration::ZERO,
            });
        }
        let mut groups: Vec<_> = reads.batch_advert_groups(true, table).into_iter().collect();
        groups.sort_by_key(|(f, _)| *f);
        let groups: Vec<(usize, Vec<(&str, u64)>)> = groups
            .iter()
            .map(|(f, group)| (*f, group.iter().map(|(k, v)| (&**k.term(), *v)).collect()))
            .collect();
        assert_eq!(
            groups,
            [
                (0, vec![("gamma", 3)]),
                (1, vec![("alpha", 1), ("beta", 4), ("gamma", 2)]),
            ]
        );
        assert!(reads.batch_advert_groups(false, table).is_empty());
        assert_eq!(reads.shard(3).unwrap().charged_to, 4);
        assert_eq!(reads.shard(3).unwrap().value.term, "gamma");
        // The statistics read never issued, so the window cannot retire.
        assert!(reads.stats().is_err() && reads.shard(5).is_err());
        assert!(reads.completion(SimInstant::ZERO).is_err());
    }

    /// A cache-on engine holding two pages that share `decentralized` and
    /// `peers`.
    fn two_pages() -> QueenBee {
        with_two_pages(cached_engine())
    }

    /// `qb` with `two_pages`' pages published and indexed.
    fn with_two_pages(mut qb: QueenBee) -> QueenBee {
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

    /// Open a window of `requests` at the engine's instant and poll it
    /// until its last read completed.
    fn read_to_completion(qb: &mut QueenBee, requests: Vec<SearchRequest>) -> WindowRun {
        let now = qb.net.now();
        let mut window = qb.open_window(requests, now).unwrap();
        qb.issue_window(&mut window).unwrap();
        while let Some(next) = window.next_event {
            qb.poll_window(&mut window, next).unwrap();
        }
        window
    }

    #[test]
    fn the_result_tier_and_a_result_hit_share_one_scored_list() {
        let mut qb = two_pages();
        // One window holding the same query twice: both plans miss the
        // result tier; the first scores and stores its list, the second
        // read the same shards and serves that list.
        let query = || from_peer(5, "decentralized peers");
        let now = qb.net.now();
        let mut window = read_to_completion(&mut qb, vec![query(), query()]);
        let key = window.plans[0].result_key.clone();
        let reads = &window.reads;
        let responses: Vec<SearchResponse> = std::mem::take(&mut window.plans)
            .into_iter()
            .map(|plan| qb.serve_plan(plan, reads, now, now).unwrap())
            .collect();
        let stats = qb.query_stats();
        assert_eq!((stats.score_invocations, stats.window_memo_hits), (1, 1));
        assert_eq!(responses[0].hits, responses[1].hits);
        assert_eq!(responses[0].hits.len(), 2);

        // A later result-cache hit is planned on the list the tier kept:
        // the tier, the plan's handle and this one hold one allocation.
        let warm = qb.open_window(vec![query()], now).unwrap().plans.remove(0);
        assert_eq!(warm.result_key, key);
        let Resolution::ResultHit { entry, .. } = &warm.resolution else {
            panic!("a result-cache hit");
        };
        let list = Arc::clone(&entry.results);
        assert_eq!(Arc::strong_count(&list), 3);
        // The fetched shards fanned out as handles too.
        for slot in 0..reads.shards.len() {
            let fetch = reads.shard(slot).unwrap();
            let resident = frontend_cache(&qb, 0).peek_shard(&fetch.value.term);
            assert!(Arc::ptr_eq(resident.expect("fanned out"), &fetch.value));
        }
        let served = qb.serve_plan(warm, reads, now, now).unwrap();
        assert!(served.result_cache_hit());
        assert_eq!(served.hits, responses[0].hits);
        assert_eq!(qb.query_stats(), stats, "a hit scores nothing");
    }

    /// `two_pages` with `honey` held by the shard tier and `ghost` by the
    /// negative tier, then one window of `query` read to completion.
    fn mixed_plan(query: &str) -> (QueenBee, WindowRun) {
        let mut qb = cached_engine();
        for (name, text) in [
            ("wiki/meadow", "honey pollen nectar meadow"),
            ("wiki/hive", "honey nectar"),
        ] {
            qb.publish(1, AccountId(1_000), &page(name, text, vec![]))
                .unwrap();
        }
        qb.seal();
        qb.process_publish_events().unwrap();
        for warm in ["honey", "ghost"] {
            qb.search_request(from_peer(5, warm)).unwrap();
        }
        let window = read_to_completion(&mut qb, vec![from_peer(5, query)]);
        let Resolution::PerTerm { terms, .. } = &window.plans[0].resolution else {
            panic!("no result is resident for this query");
        };
        let kinds: Vec<&str> = terms
            .iter()
            .map(|t| match t.plan {
                TermPlan::CachedShard(_) => "cached",
                TermPlan::Negative => "negative",
                TermPlan::Stale { .. } => "stale",
                TermPlan::Fetch { .. } => "fetch",
            })
            .collect();
        assert_eq!(kinds, ["cached", "fetch", "fetch", "negative"]);
        (qb, window)
    }

    #[test]
    fn a_mixed_plan_charges_its_slowest_term_as_the_shard_stage() {
        let (mut qb, mut window) = mixed_plan("honey pollen nectar ghost");
        let plan = window.plans.remove(0);
        let fetched: Vec<SimDuration> = plan
            .fetch_reads()
            .map(|slot| window.reads.shard(slot).unwrap().latency())
            .collect();
        let hit = qb.config.cache.hit_latency;
        let slowest = fetched.iter().copied().max().unwrap();
        // The first and last terms are cache hits, cheaper than any fetch.
        assert!(fetched.iter().all(|&latency| latency > hit));
        let now = qb.net.now();
        let served = qb.serve_plan(plan, &window.reads, now, now).unwrap();
        assert_eq!(served.trace.shard_fetch, slowest);
    }

    #[test]
    fn a_mixed_plan_stores_its_fetched_shards_in_term_order() {
        // Term order puts `pollen` ahead of `nectar`, text order behind.
        let (mut qb, mut window) = mixed_plan("honey pollen nectar ghost");
        let plan = window.plans.remove(0);
        let now = qb.net.now();
        qb.serve_plan(plan, &window.reads, now, now).unwrap();
        // A store draws the tier's next recency tick; `honey` drew its
        // own when the plan read it.
        let cache = frontend_cache(&qb, 0);
        let tick = |term: &str| {
            let entry = cache.shard_ranks(now).find(|e| e.key == term);
            entry.expect("resident").rank.1
        };
        assert!(tick("honey") < tick("pollen"));
        assert!(tick("pollen") < tick("nectar"));
    }

    #[test]
    fn a_cache_off_engines_plans_carry_no_result_key() {
        let query = || vec![from_peer(5, "decentralized peers")];
        let mut on = two_pages();
        let now = on.net.now();
        let planned = on.open_window(query(), now).unwrap().plans.remove(0);
        let terms = ["decentralized", "peers"].map(qb_index::Analyzer::stem);
        let key = qb_cache::result_key(terms.iter().map(String::as_str));
        assert_eq!(planned.result_key, Some(key));

        let config = crate::config::QueenBeeConfig::small();
        let mut off = with_two_pages(QueenBee::new(config).unwrap());
        let mut window = read_to_completion(&mut off, query());
        let plan = window.plans.remove(0);
        assert_eq!(plan.result_key, None);
        let now = off.net.now();
        let served = off.serve_plan(plan, &window.reads, now, now).unwrap();
        assert_eq!(served.hits.len(), 2);
    }

    /// That nothing is in flight — no window, no hop on the wire — and
    /// every list the engine keeps for the next window is empty, with
    /// `spares` windows kept.
    fn assert_ready_for_the_next_window(qb: &QueenBee, spares: usize) {
        let kept = &qb.windows;
        assert!(kept.in_flight.is_empty() && qb.net.async_in_flight() == 0);
        assert!(kept.pending.is_empty() && kept.responses.is_empty());
        assert!(kept.lineup.is_empty() && kept.rank.is_empty());
        assert_eq!(kept.spare.len(), spares);
        for win in &kept.spare {
            assert!(win.plans.is_empty() && win.plans.capacity() > 0);
            assert!(win.reads.stats.is_none() && win.reads.shards.is_empty());
        }
    }

    #[test]
    fn a_query_leaves_only_empty_lists_for_the_next_window() {
        // A served query: its window, emptied, is the one kept, and the
        // next query runs in it again.
        let mut qb = two_pages();
        for _ in 0..2 {
            let served = qb.search_request(from_peer(5, "decentralized peers"));
            assert_eq!(served.unwrap().hits.len(), 2);
            assert_ready_for_the_next_window(&qb, 1);
        }

        // A run that aborts on a failed read while its sibling window's
        // hops are on the wire: two windows of one query, the second's
        // origin peer down.
        let config = crate::config::QueenBeeConfig::small();
        let mut qb = with_two_pages(QueenBee::new(config).unwrap());
        qb.net.set_online(5, false);
        let issued_before = qb.net.stats().async_ops;
        let requests = vec![from_peer(3, "peers"), from_peer(5, "decentralized")];
        let config = PipelineConfig {
            window_size: 1,
            max_windows_in_flight: 2,
        };
        let aborted = qb.search_pipelined(requests, config);
        assert!(matches!(aborted, Err(QbError::NodeOffline(5))));
        assert!(qb.net.stats().async_ops > issued_before, "a sibling issued");
        assert_ready_for_the_next_window(&qb, 2);
        // The next run takes from the spares, adding none.
        qb.net.set_online(5, true);
        let served = qb.search_request(from_peer(5, "decentralized")).unwrap();
        assert_eq!(served.hits.len(), 2);
        assert_ready_for_the_next_window(&qb, 2);
    }

    #[test]
    fn a_window_retired_with_a_read_still_planned_is_an_error_not_a_panic() {
        let mut qb = two_pages();
        let mut window = read_to_completion(&mut qb, vec![from_peer(5, "decentralized peers")]);
        assert!(window.reads.shards.len() == 2 && window.reads.stats.is_some());
        // Every read finished; put one back to `Planned`.
        window.reads.shards[1].progress = ReadProgress::Planned;
        let mut report = PipelineReport::default();
        let t0 = qb.net.now();
        let retired = qb.retire_window(&mut window, t0, &mut report);
        assert!(matches!(retired, Err(QbError::Query(_))), "{retired:?}");
        assert!(
            qb.windows.responses.is_empty(),
            "no plan of the window is served"
        );
        assert_eq!(report, PipelineReport::default(), "nor counted as served");
        assert_eq!(qb.query_stats().score_invocations, 0);
    }
}

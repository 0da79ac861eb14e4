//! The pipelined execution engine: overlapping windows whose individual
//! DHT fetches run as event-driven state machines on one shared virtual
//! timeline.
//!
//! # The state machine
//!
//! [`QueenBee::search_batch`](crate::QueenBee::search_batch) runs its three
//! stages in lockstep: the whole window is planned, then fetched, then
//! scored, and the next window starts only after the previous one finished.
//! The pipeline driver breaks that lockstep. Every window moves through
//! four stages:
//!
//! ```text
//!   Planned ──issue fetches──▶ Fetching ──all machines done──▶ Scoring ──▶ Done
//! ```
//!
//! * **Planned** — the window's requests are analyzed against the serving
//!   frontend's cache tiers ([`plan_request`](crate::query::plan)); no
//!   network traffic yet.
//! * **Fetching** — the window's reads are enumerated once (`WindowReads::of`
//!   in [`crate::query::executor`], shared with the blocking window): each
//!   distinct missing `(frontend, term)` shard (plus at most one statistics
//!   record per window) gets a slot and becomes an **event-driven read
//!   machine** ([`qb_index::ReadMachine`]) in it: a per-lookup α-frontier
//!   state machine whose individual DHT hops are issued through
//!   [`qb_simnet::SimNet::send_async_at`] on the origin peer's uplink; a
//!   finished machine is swapped, in its slot, for what it read. The
//!   per-peer in-flight limit
//!   ([`qb_simnet::NetConfig::max_in_flight_per_link`]) queues excess hops
//!   — *hop by hop*, so the hops of different windows genuinely interleave
//!   on a contended link — and every queue delay is charged to
//!   [`qb_simnet::NetStats`] and to the window.
//! * **Scoring** — once the window's slowest machine completes, shards are
//!   intersected and scored, each plan through the same `serve_plan` a
//!   `search_batch` window uses — one kernel call per query that the result
//!   tier did not answer, even when the window set repeats a query.
//! * **Done** — responses are assembled, fetched shards fan out into the
//!   serving cache, and (in fleet mode) the window's freshly fetched shard
//!   keys are queued as **batch-aware gossip advertisements**
//!   ([`qb_gossip::GossipFleet::note_batch_fetches`]) so the next digest
//!   round warms the rest of the fleet one round earlier.
//!
//! # The event loop
//!
//! The driver owns a cursor on the virtual timeline and repeatedly takes
//! the earliest pending event: *issue* a window (when a pipeline slot is
//! free and the issue instant is due) or *advance* the in-flight machines
//! to their next completion. A window is cut from the front of the stream
//! at the moment it issues, and windows retire in FIFO order (like a CPU
//! pipeline), so responses come back in request order and cache stores
//! happen in a deterministic sequence; the
//! **makespan** of the whole stream is the completion instant of the last
//! window, which experiment E13 compares against back-to-back execution of
//! the same stream (≥30% lower on a duplicate-heavy Zipf stream, with
//! byte-identical per-query results).
//!
//! The virtual timeline never moves the engine's shared clock: cache
//! effects are applied at the call instant (exactly as `search_batch`
//! treats a window), while issue/completion instants drive latency,
//! queueing and makespan accounting.

use crate::engine::QueenBee;
use crate::query::executor::WindowReads;
use crate::query::plan::{QueryPlan, StatsPlan};
use crate::query::request::SearchRequest;
use crate::query::response::SearchResponse;
use qb_common::{QbResult, SimDuration, SimInstant};
use std::collections::VecDeque;

/// Knobs of one pipelined run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Queries per window (the concurrency the frontend batches together).
    pub window_size: usize,
    /// Windows allowed in flight at once. 1 degenerates to back-to-back
    /// execution; the default keeps a small pipeline of windows overlapped.
    pub max_windows_in_flight: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            window_size: 32,
            max_windows_in_flight: 4,
        }
    }
}

/// One window in flight: its plans, its reads and the completion
/// bookkeeping the driver schedules by.
pub(crate) struct WindowRun {
    pub(crate) plans: Vec<QueryPlan>,
    /// The window's shared reads (each distinct `(frontend, term)` once,
    /// at most one statistics read), each completing in its slot with its
    /// own completion instant and link-queue delay.
    pub(crate) reads: WindowReads,
    /// When the window was issued on the virtual timeline.
    pub(crate) issued_at: SimInstant,
    /// When the window's slowest dependency completed (so far).
    pub(crate) completes_at: SimInstant,
    /// Earliest instant any pending machine advances at (`None` once the
    /// window is complete).
    pub(crate) next_event: Option<SimInstant>,
    /// The window's trace span (children: one `fetch`/`stats_read` span
    /// per read, each nesting its per-hop `dht.lookup`/`rpc` spans).
    pub(crate) span: Option<qb_trace::SpanId>,
    /// Queueing delay the per-link in-flight limits charged this window.
    pub(crate) queue_delay: SimDuration,
}

/// What one pipelined run did, beyond the responses themselves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Windows fully executed (counted at retirement, so an aborted run
    /// reports only the windows that actually served).
    pub windows: usize,
    /// Queries served to completion.
    pub queries: usize,
    /// Completion instant of the last window minus the stream start — what
    /// back-to-back execution pays as the *sum* of window latencies.
    pub makespan: SimDuration,
    /// Distinct DHT shard fetches issued.
    pub shard_fetches: u64,
    /// Statistics-record reads issued (at most one per window).
    pub stats_reads: u64,
    /// Total queueing delay charged by the per-link in-flight limits.
    pub queue_delay: SimDuration,
    /// Most windows observed in flight at once.
    pub peak_windows_in_flight: usize,
}

/// Virtual-timeline span of one retired window: which slice of the
/// response vector it served and when it issued/completed. The open-loop
/// admission layer uses these to place each response on the arrival
/// timeline (`issued_at + response.latency` is the query's completion
/// instant) without re-deriving the driver's scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpan {
    /// Index of the window's first response in [`PipelineOutcome::responses`].
    pub first_query: usize,
    /// Number of responses the window served.
    pub queries: usize,
    /// When the window's fetches were issued on the virtual timeline.
    pub issued_at: SimInstant,
    /// When the window's slowest dependency completed.
    pub completed_at: SimInstant,
}

/// A pipelined run's responses (in request order) plus its report.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// One response per request, in request order, byte-identical to
    /// executing the same requests sequentially (E13 asserts this).
    pub responses: Vec<SearchResponse>,
    /// Stream-level accounting.
    pub report: PipelineReport,
    /// One span per retired window, in retirement order — which is request
    /// order, so the spans tile the response vector front to back.
    pub window_spans: Vec<WindowSpan>,
}

/// Drives a request stream through overlapping windows. Construct with a
/// [`PipelineConfig`] and run once; [`crate::QueenBee::search_pipelined`] is
/// the one caller.
pub(crate) struct PipelineDriver {
    /// Queries per window (at least 1).
    window: usize,
    /// Windows allowed in flight at once (at least 1).
    depth: usize,
    report: PipelineReport,
    spans: Vec<WindowSpan>,
    /// Windows issued and not yet retired, in issue (= request) order.
    in_flight: VecDeque<WindowRun>,
}

impl PipelineDriver {
    /// A driver for one run.
    pub(crate) fn new(config: PipelineConfig) -> PipelineDriver {
        PipelineDriver {
            window: config.window_size.max(1),
            depth: config.max_windows_in_flight.max(1),
            report: PipelineReport::default(),
            spans: Vec::new(),
            in_flight: VecDeque::new(),
        }
    }

    /// Execute `requests` in overlapping windows against `qb`. Responses
    /// come back in request order; an invalid request or failed fetch
    /// aborts the run with the first error (exactly like `search_batch`).
    pub(crate) fn run(
        mut self,
        qb: &mut QueenBee,
        requests: Vec<SearchRequest>,
    ) -> QbResult<PipelineOutcome> {
        let mut responses = Vec::with_capacity(requests.len());
        let served = self.drive(qb, requests, &mut responses);
        // An aborted run still has windows in flight: abandon their machines
        // so it leaves no phantom link occupancy behind to throttle later
        // runs. Either way the work done enters the engine counters (windows
        // that fully served before an abort did score).
        for win in &mut self.in_flight {
            win.reads.abandon(&mut qb.net);
        }
        qb.record_pipeline_run(&self.report);
        served?;
        Ok(PipelineOutcome {
            responses,
            report: self.report,
            window_spans: self.spans,
        })
    }

    /// The event loop: issue, advance and retire windows until every
    /// request is served or a window fails.
    fn drive(
        &mut self,
        qb: &mut QueenBee,
        requests: Vec<SearchRequest>,
        responses: &mut Vec<SearchResponse>,
    ) -> QbResult<()> {
        let t0 = qb.net.now();
        let mut pending: VecDeque<SearchRequest> = requests.into();
        // Window w may issue once window w - depth has retired; FIFO
        // retirement makes this the completion instant of the window
        // retired most recently.
        let mut next_issue_at = t0;
        // The driver's position on the virtual timeline; only ever moves
        // forward (to an issue instant or the next machine completion).
        let mut cursor = t0;

        loop {
            // Retire the front window once all its machines completed (its
            // last poll found none pending).
            if let Some(mut win) = self.in_flight.pop_front_if(|w| w.next_event.is_none()) {
                next_issue_at = next_issue_at.max(win.completes_at);
                self.report.makespan = self.report.makespan.max(win.completes_at.since(t0));
                self.score_window(qb, &mut win, responses);
                continue;
            }

            let can_issue = !pending.is_empty() && self.in_flight.len() < self.depth;
            let issue_at = next_issue_at.max(cursor);
            let next_completion: Option<SimInstant> =
                self.in_flight.iter().filter_map(|w| w.next_event).min();

            match next_completion {
                Some(completion) if !can_issue || completion < issue_at => {
                    cursor = completion;
                    // Advance every in-flight window: machines of *different*
                    // windows share the per-peer uplinks, so a completion in
                    // one window can unblock (or be interleaved with) hops of
                    // another. FIFO order keeps the advancement deterministic.
                    for win in self.in_flight.iter_mut() {
                        qb.poll_window_fetches(win, cursor)?;
                    }
                }
                _ if can_issue => {
                    // Cut the next window at the moment it issues.
                    let take = self.window.min(pending.len());
                    let reqs: Vec<SearchRequest> = pending.drain(..take).collect();
                    cursor = issue_at;
                    self.issue_window(qb, reqs, issue_at)?;
                    self.report.peak_windows_in_flight =
                        self.report.peak_windows_in_flight.max(self.in_flight.len());
                }
                _ => return Ok(()),
            }
        }
    }

    /// Plan a window and start its distinct read machines at `issued_at`
    /// (Planned → Fetching). The machines advance only through
    /// [`QueenBee::poll_window_fetches`]; the immediate poll here lets
    /// zero-latency reads (cache-complete windows) finish in place.
    fn issue_window(
        &mut self,
        qb: &mut QueenBee,
        requests: Vec<SearchRequest>,
        issued_at: SimInstant,
    ) -> QbResult<()> {
        let mut plans = qb.plan_window(requests)?;
        let query_count = plans.len();
        let span = qb
            .net
            .tracer()
            .record_with(None, "window", issued_at, issued_at, || {
                format!("{query_count} queries")
            });
        let reads = qb.begin_window_fetches(&mut plans, issued_at, span);
        self.report.stats_reads += u64::from(reads.stats.is_some());
        self.report.shard_fetches += reads.shards.len() as u64;
        let mut win = WindowRun {
            plans,
            reads,
            issued_at,
            completes_at: issued_at,
            next_event: None,
            span,
            queue_delay: SimDuration::ZERO,
        };
        // The window is in flight whether or not its first poll succeeds: a
        // read that fails on the spot must not strand its siblings' hops.
        let polled = qb.poll_window_fetches(&mut win, issued_at);
        self.in_flight.push_back(win);
        polled
    }

    /// Score a completed window (Fetching → Scoring → Done): every plan is
    /// served by `serve_plan`, and per-query latency is rebased on
    /// the virtual timeline (the query's slowest dependency completion
    /// minus the window's issue instant).
    fn score_window(
        &mut self,
        qb: &mut QueenBee,
        win: &mut WindowRun,
        responses: &mut Vec<SearchResponse>,
    ) {
        qb.net.tracer().close(win.span, win.completes_at);
        self.report.queue_delay += win.queue_delay;
        let now = qb.net.now();
        let plans = std::mem::take(&mut win.plans);
        self.report.windows += 1;
        self.report.queries += plans.len();
        self.spans.push(WindowSpan {
            first_query: responses.len(),
            queries: plans.len(),
            issued_at: win.issued_at,
            completed_at: win.completes_at,
        });
        let reads = &win.reads;
        let fetched_terms = reads.batch_advert_groups(plans.len() >= 2 && qb.fleet().is_some());
        for plan in plans {
            // The query's slowest asynchronous dependency (the first of
            // equals, in term order then the statistics read): its
            // completion instant and the link queueing inside it.
            let shard_reads = plan.fetch_reads().map(|slot| {
                let read = reads.shard(slot);
                (read.completed_at, read.queue_delay)
            });
            let stats_read = (matches!(plan.stats, StatsPlan::Fetch) && !plan.is_result_hit())
                .then(|| reads.stats_read())
                .map(|read| (read.completed_at, read.queue_delay));
            let critical = shard_reads.chain(stats_read).reduce(|slowest, read| {
                if read.0 > slowest.0 {
                    read
                } else {
                    slowest
                }
            });
            let mut response = qb.serve_plan(plan, reads, now);
            // Rebase latency on the virtual timeline when the query waited
            // on any asynchronous dependency.
            if let Some((done, queue_delay)) = critical {
                response.latency = done.since(win.issued_at);
                response.trace.net_queue = queue_delay.min(response.latency);
            }
            responses.push(response);
        }
        // Batch-aware gossip: the window's freshly fetched shard keys enter
        // the serving frontends' next digest round, so the rest of the
        // fleet warms one round earlier than hot-set popularity alone
        // would allow.
        for (frontend, terms) in fetched_terms {
            qb.note_batch_fetches(frontend, &terms);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_keep_a_small_pipeline() {
        let c = PipelineConfig::default();
        assert_eq!(c.window_size, 32);
        assert_eq!(c.max_windows_in_flight, 4);
    }
}

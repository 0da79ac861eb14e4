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
//!   intersected and scored. Identical queries in the in-flight window set
//!   resolve against the run-scoped window memo: a scored list tagged with
//!   the exact per-term shard versions it was computed from serves every
//!   duplicate without re-running intersect/score.
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
//! to their next completion. Windows retire in FIFO order (like a CPU
//! pipeline) so cache stores happen in a deterministic sequence; the
//! **makespan** of the whole stream is the completion instant of the last
//! window, which experiment E13 compares against back-to-back execution of
//! the same stream (≥30% lower on a duplicate-heavy Zipf stream, with
//! byte-identical per-query results).
//!
//! # Self-steering
//!
//! With [`PipelineConfig::adaptive`] on (see
//! [`PipelineConfig::self_steering`]) the driver watches, at every
//! retirement, how much of the window's busy time (charged queue delay
//! plus read service time) was spent queueing. When queueing
//! dominates ([`BACKOFF_QUEUE_PERCENT`]) it *backs off*:
//! first growing the window (a larger window dedupes more fetches per
//! query, putting less work on the saturated links), then shedding
//! pipeline depth — never below 2, since depth is what keeps a saturated
//! link busy across window boundaries; when queueing is negligible
//! ([`RAMPUP_QUEUE_PERCENT`]) it reverses course. While
//! saturated it also issues the cheapest ready window first —
//! *cost-predicted shortest-first*, where the predicted cost is the number
//! of distinct shards a window could fetch (a pure routing + analysis
//! pass). Responses always come back in request order;
//! [`WindowSpan::first_query`] records which slice an out-of-order window
//! served.
//!
//! The virtual timeline never moves the engine's shared clock: cache
//! effects are applied at the call instant (exactly as `search_batch`
//! treats a window), while issue/completion instants drive latency,
//! queueing and makespan accounting.

use crate::engine::QueenBee;
use crate::query::executor::{WindowMemo, WindowReads};
use crate::query::plan::{QueryPlan, StatsPlan};
use crate::query::request::SearchRequest;
use crate::query::response::SearchResponse;
use qb_common::{QbResult, SimDuration, SimInstant};
use std::collections::VecDeque;

/// The self-steering driver backs off (grows the window, then sheds depth)
/// when queueing reaches this percentage of a retired window's busy time
/// (queue delay plus service time across its fetches) — i.e. when the links,
/// not the reads, dominate the window.
pub const BACKOFF_QUEUE_PERCENT: u64 = 60;

/// The self-steering driver ramps back up (restores depth, then shrinks the
/// window) when the queue share falls to this percentage or below.
pub const RAMPUP_QUEUE_PERCENT: u64 = 5;

/// Knobs of one pipelined run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Queries per window (the concurrency the frontend batches together).
    /// With [`PipelineConfig::adaptive`] on this is the *base* size the
    /// driver starts from and ramps back down to.
    pub window_size: usize,
    /// Windows allowed in flight at once. 1 degenerates to back-to-back
    /// execution; the default keeps a small pipeline of windows overlapped.
    /// With [`PipelineConfig::adaptive`] on this is the *ceiling* the
    /// driver steers below when queueing dominates.
    pub max_windows_in_flight: usize,
    /// Self-steer window size, depth and issue order from the observed
    /// queue-delay share of each retired window's busy time.
    pub adaptive: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            window_size: 32,
            max_windows_in_flight: 4,
            adaptive: false,
        }
    }
}

impl PipelineConfig {
    /// The default pipeline with the self-steering controller on.
    pub fn self_steering() -> PipelineConfig {
        PipelineConfig {
            adaptive: true,
            ..PipelineConfig::default()
        }
    }
}

/// One window in flight: its plans, its reads and the completion
/// bookkeeping the driver schedules by.
pub(crate) struct WindowRun {
    /// Index of the window's first response in the (request-ordered)
    /// response vector — windows may issue out of request order under the
    /// saturated shortest-first policy.
    pub(crate) first_query: usize,
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
    /// Scored lists served from the window memo (duplicate queries that
    /// skipped intersect/score entirely).
    pub memo_hits: u64,
    /// Genuine intersect+score computations this run performed.
    pub score_invocations: u64,
    /// Distinct DHT shard fetches issued.
    pub shard_fetches: u64,
    /// Statistics-record reads issued (at most one per window).
    pub stats_reads: u64,
    /// Total queueing delay charged by the per-link in-flight limits.
    pub queue_delay: SimDuration,
    /// Most windows observed in flight at once.
    pub peak_windows_in_flight: usize,
    /// Self-steering back-off steps taken (depth shed or window grown).
    pub adapt_backoffs: u64,
    /// Self-steering ramp-up steps taken (window shrunk or depth restored).
    pub adapt_rampups: u64,
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
    /// One span per retired window, in retirement order (request order
    /// unless the saturated shortest-first policy reordered issue).
    pub window_spans: Vec<WindowSpan>,
}

/// How many windows the driver keeps cut and ready ahead of issue — the
/// candidate pool the saturated shortest-first policy picks from.
const READY_STOCK: usize = 4;

/// Drives a request stream through overlapping windows. Construct with a
/// [`PipelineConfig`] and run once; [`crate::QueenBee::search_pipelined`] is
/// the one caller.
pub(crate) struct PipelineDriver {
    config: PipelineConfig,
    report: PipelineReport,
    spans: Vec<WindowSpan>,
    /// The run's window memo.
    memo: WindowMemo,
    /// Windows issued and not yet retired, in issue order.
    in_flight: VecDeque<WindowRun>,
    /// Live pipeline depth (≤ `config.max_windows_in_flight`).
    depth: usize,
    /// Live window size (≥ `config.window_size`).
    window: usize,
    /// Whether the last adaptation step saw queueing dominate.
    saturated: bool,
}

impl PipelineDriver {
    /// A driver for one run.
    pub(crate) fn new(config: PipelineConfig) -> PipelineDriver {
        PipelineDriver {
            config,
            report: PipelineReport::default(),
            spans: Vec::new(),
            memo: WindowMemo::default(),
            in_flight: VecDeque::new(),
            depth: config.max_windows_in_flight.max(1),
            window: config.window_size.max(1),
            saturated: false,
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
        let mut responses: Vec<Option<SearchResponse>> = Vec::new();
        responses.resize_with(requests.len(), || None);
        let served = self.drive(qb, requests, &mut responses);
        // An aborted run still has windows in flight: abandon their machines
        // so it leaves no phantom link occupancy behind to throttle later
        // runs. Either way the work done enters the engine counters (windows
        // that fully served before an abort did score and did hit the memo).
        for win in &mut self.in_flight {
            win.reads.abandon(&mut qb.net);
        }
        self.report.memo_hits = self.memo.hits;
        self.report.score_invocations = self.memo.invocations;
        qb.record_pipeline_run(&self.report);
        served?;
        Ok(PipelineOutcome {
            responses: responses
                .into_iter()
                .map(|r| r.expect("every window retired ⇒ every slot served"))
                .collect(),
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
        responses: &mut [Option<SearchResponse>],
    ) -> QbResult<()> {
        let t0 = qb.net.now();
        let mut pending: VecDeque<SearchRequest> = requests.into();
        let mut next_first_query = 0usize;
        // Windows cut and ready to issue: (first response index, requests).
        let mut ready: VecDeque<(usize, Vec<SearchRequest>)> = VecDeque::new();
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
                self.adapt(&win);
                self.score_window(qb, &mut win, responses);
                continue;
            }

            // Keep a stock of windows cut at the *live* window size so the
            // shortest-first policy has candidates to choose from.
            while ready.len() < READY_STOCK && !pending.is_empty() {
                let take = self.window.min(pending.len());
                let reqs: Vec<SearchRequest> = pending.drain(..take).collect();
                ready.push_back((next_first_query, reqs));
                next_first_query += take;
            }

            let can_issue = !ready.is_empty() && self.in_flight.len() < self.depth;
            let issue_at = next_issue_at.max(cursor);
            let next_completion: Option<SimInstant> =
                self.in_flight.iter().filter_map(|w| w.next_event).min();

            let issue_now = match (can_issue, next_completion) {
                (false, None) => return Ok(()),
                (true, completion) => completion.is_none_or(|c| issue_at <= c),
                (false, Some(_)) => false,
            };

            if issue_now {
                let idx = if self.config.adaptive && self.saturated && ready.len() > 1 {
                    // Cost-predicted shortest-first under saturation: the
                    // cheapest ready window (fewest distinct predicted
                    // shards) issues first; request order breaks ties so
                    // the choice is deterministic.
                    (0..ready.len())
                        .min_by_key(|&i| (qb.predict_window_cost(&ready[i].1), ready[i].0))
                        .expect("ready is non-empty")
                } else {
                    0
                };
                let (first_query, reqs) = ready.remove(idx).expect("index from range");
                cursor = issue_at;
                self.issue_window(qb, first_query, reqs, issue_at)?;
                self.report.peak_windows_in_flight =
                    self.report.peak_windows_in_flight.max(self.in_flight.len());
            } else {
                cursor = next_completion.expect("issue_now is false ⇒ a completion exists");
                // Advance every in-flight window: machines of *different*
                // windows share the per-peer uplinks, so a completion in
                // one window can unblock (or be interleaved with) hops of
                // another. FIFO order keeps the advancement deterministic.
                for win in self.in_flight.iter_mut() {
                    qb.poll_window_fetches(win, cursor)?;
                }
            }
        }
    }

    /// One self-steering step at window retirement: compare the queue
    /// delay the window was charged against its total busy time (queue
    /// delay plus the service time of its reads) and adjust window size /
    /// depth for the windows still to issue.
    ///
    /// A dominant queue share means the uplinks — not the reads — are the
    /// bottleneck, and the only way to finish sooner on a saturated link
    /// is to put *less work* on it: the back-off grows the window first
    /// (a bigger window dedupes more `(frontend, term)` fetches per query
    /// on a duplicate-heavy stream), then sheds pipeline depth, never
    /// below 2 — depth is what keeps the bottleneck link busy across
    /// window boundaries, and shedding it to 1 degenerates to
    /// back-to-back execution. The ramp-up reverses in the opposite order
    /// (restore depth, then shrink the window back to the configured
    /// base), so an unsaturated run converges to — and then never leaves —
    /// the configured operating point.
    fn adapt(&mut self, win: &WindowRun) {
        if !self.config.adaptive {
            return;
        }
        let reads = &win.reads;
        let service: SimDuration = (reads.shards.iter().map(|read| read.done().cost.latency))
            .chain(reads.stats.iter().map(|read| read.done().cost.latency))
            .fold(SimDuration::ZERO, |a, b| a + b);
        let busy_us = (win.queue_delay + service).as_micros();
        let share = win.queue_delay.as_micros().saturating_mul(100) / busy_us.max(1);
        let base = self.config.window_size.max(1);
        self.saturated = share >= BACKOFF_QUEUE_PERCENT;
        if self.saturated {
            if self.window < base * 4 {
                self.window = (self.window * 2).min(base * 4);
                self.report.adapt_backoffs += 1;
            } else if self.depth > 2 {
                self.depth -= 1;
                self.report.adapt_backoffs += 1;
            }
        } else if share <= RAMPUP_QUEUE_PERCENT {
            if self.depth < self.config.max_windows_in_flight.max(1) {
                self.depth += 1;
                self.report.adapt_rampups += 1;
            } else if self.window > base {
                self.window = (self.window / 2).max(base);
                self.report.adapt_rampups += 1;
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
        first_query: usize,
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
            first_query,
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
    /// served through the window memo, and per-query latency is rebased on
    /// the virtual timeline (the query's slowest dependency completion
    /// minus the window's issue instant).
    fn score_window(
        &mut self,
        qb: &mut QueenBee,
        win: &mut WindowRun,
        responses: &mut [Option<SearchResponse>],
    ) {
        qb.net.tracer().close(win.span, win.completes_at);
        self.report.queue_delay += win.queue_delay;
        let now = qb.net.now();
        let plans = std::mem::take(&mut win.plans);
        self.report.windows += 1;
        self.report.queries += plans.len();
        self.spans.push(WindowSpan {
            first_query: win.first_query,
            queries: plans.len(),
            issued_at: win.issued_at,
            completed_at: win.completes_at,
        });
        let reads = &win.reads;
        let fetched_terms = reads.batch_advert_groups(plans.len() >= 2 && qb.fleet().is_some());
        for (j, plan) in plans.into_iter().enumerate() {
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
            let mut response = qb.serve_plan(plan, reads, now, Some(&mut self.memo));
            // Rebase latency on the virtual timeline when the query waited
            // on any asynchronous dependency.
            if let Some((done, queue_delay)) = critical {
                response.latency = done.since(win.issued_at);
                response.trace.net_queue = queue_delay.min(response.latency);
            }
            responses[win.first_query + j] = Some(response);
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
        assert!(!c.adaptive);
    }

    #[test]
    fn self_steering_turns_adaptation_on_over_the_defaults() {
        let c = PipelineConfig::self_steering();
        assert!(c.adaptive);
        assert_eq!(c.window_size, PipelineConfig::default().window_size);
    }
}

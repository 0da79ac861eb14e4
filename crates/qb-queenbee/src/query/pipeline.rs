//! The pipelined execution engine: overlapping windows whose reads run
//! concurrently, as event-driven state machines on one shared virtual
//! timeline.
//!
//! # One executor, one read schedule
//!
//! Every entry point runs one window executor (`crate::engine::serve`): a
//! window record built by one constructor, one issue and one poll per read,
//! and one retire step that serves every plan. Every window reads
//! *concurrently*: all its reads issue at once and the window is polled as
//! they advance.
//! [`QueenBee::search_batch`](crate::QueenBee::search_batch) runs one
//! window to completion; this driver overlaps up to
//! [`PipelineConfig::max_windows_in_flight`] of them. Every window moves
//! through four stages:
//!
//! ```text
//!   Planned ──issue fetches──▶ Fetching ──all machines done──▶ Scoring ──▶ Done
//! ```
//!
//! * **Planned** — the window's requests are analyzed against the serving
//!   frontend's cache tiers ([`plan_request`](crate::query::plan)); no
//!   network traffic yet.
//! * **Fetching** — the window's reads are enumerated once (`WindowReads::of`
//!   in [`crate::query::executor`], as for every window): each
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
//! * **Scoring** — once the window's slowest machine completes, the retire
//!   step every window shares serves each plan (`serve_plan`) — one kernel
//!   call per query that the result tier did not answer, even when the
//!   window set repeats a query. A plan that waited on a read is charged the
//!   slowest such read's completion minus the window's issue instant.
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
use crate::query::executor::WindowRun;
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
            // (Fetching → Scoring → Done): the driver keeps the run's report
            // and window spans, the engine's retire step serves the window.
            if let Some(win) = self.in_flight.pop_front_if(|w| w.next_event.is_none()) {
                next_issue_at = next_issue_at.max(win.completes_at);
                self.report.makespan = self.report.makespan.max(win.completes_at.since(t0));
                self.report.queue_delay += win.queue_delay;
                self.report.windows += 1;
                self.report.queries += win.plans.len();
                self.spans.push(WindowSpan {
                    first_query: responses.len(),
                    queries: win.plans.len(),
                    issued_at: win.issued_at,
                    completed_at: win.completes_at,
                });
                qb.retire_window(win, responses);
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
                        qb.poll_window(win, cursor)?;
                    }
                }
                _ if can_issue => {
                    // Cut the next window at the moment it issues, plan it
                    // and start its read machines (Planned → Fetching). They
                    // advance only through `poll_window`; the immediate poll
                    // lets zero-latency reads (cache-complete windows)
                    // finish in place.
                    let take = self.window.min(pending.len());
                    cursor = issue_at;
                    let mut win = qb.open_window(pending.drain(..take).collect(), issue_at)?;
                    self.report.stats_reads += u64::from(win.reads.stats.is_some());
                    self.report.shard_fetches += win.reads.shards.len() as u64;
                    // The window is in flight whether or not its first poll
                    // succeeds: a read that fails on the spot must not
                    // strand its siblings' hops.
                    let polled = qb.read_concurrently(&mut win);
                    self.in_flight.push_back(win);
                    polled?;
                    self.report.peak_windows_in_flight =
                        self.report.peak_windows_in_flight.max(self.in_flight.len());
                }
                _ => return Ok(()),
            }
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

//! The pipelined execution engine: overlapping windows whose reads run
//! concurrently, as event-driven state machines on one shared virtual
//! timeline. This module holds a run's shape ([`PipelineConfig`]) and what
//! it reports; the loop itself is the engine's (`crate::engine::serve`).
//!
//! # One loop, one read schedule
//!
//! Every query runs through the engine's one window loop, and every window
//! reads *concurrently*: all its reads issue at once and the window is
//! polled as they advance. The entry points differ only in the shape they
//! hand the loop: [`QueenBee::search_request`](crate::QueenBee::search_request)
//! is one window of one query, a batch is one window
//! ([`PipelineConfig::batch`]), and
//! [`QueenBee::search_pipelined`](crate::QueenBee::search_pipelined) and
//! each [`QueenBee::serve_open_loop`](crate::QueenBee::serve_open_loop)
//! dispatch overlap up to [`PipelineConfig::max_windows_in_flight`] windows.
//! Every window moves through four stages:
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
//! The loop owns a cursor on the virtual timeline and repeatedly takes
//! the earliest pending event: *issue* a window (when a pipeline slot is
//! free and the issue instant is due) or *advance* the in-flight machines
//! to their next completion. A window is cut from the front of the stream
//! at the moment it issues, and windows retire in FIFO order (like a CPU
//! pipeline), so responses come back in request order and cache stores
//! happen in a deterministic sequence; the **makespan** of the whole
//! stream is the completion instant of the last window, which experiment
//! E13 compares against back-to-back execution of the same stream (≥30%
//! lower on a duplicate-heavy Zipf stream, with byte-identical per-query
//! results). A failed read aborts the run with the first error and
//! abandons every read still in flight; an empty request list opens no
//! window.
//!
//! The virtual timeline never moves the engine's shared clock: cache
//! effects are applied at the call instant, while issue/completion
//! instants drive latency, queueing and makespan accounting.

use crate::query::response::SearchResponse;
use qb_common::{SimDuration, SimInstant};

/// Knobs of one pipelined run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Queries per window (the concurrency the frontend batches together).
    pub window_size: usize,
    /// Windows allowed in flight at once. 1 degenerates to back-to-back
    /// execution; the default keeps a small pipeline of windows overlapped.
    pub max_windows_in_flight: usize,
}

impl PipelineConfig {
    /// One window of up to `size` queries at a time: a batch of `size`
    /// requests runs as a single window.
    pub fn batch(size: usize) -> PipelineConfig {
        PipelineConfig {
            window_size: size,
            max_windows_in_flight: 1,
        }
    }
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
/// instant) without re-deriving the loop's scheduling.
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

//! The shape of a pipelined run ([`PipelineConfig`]) and what it reports
//! ([`PipelineReport`], [`PipelineOutcome`]). The loop that
//! runs it — overlapping windows whose reads run concurrently, as
//! event-driven state machines on one shared virtual timeline — is the
//! engine's, and its module doc (`engine/windows.rs`) is the description
//! of it.

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
/// response vector it served and when it issued. The open-loop admission
/// layer and the query trees use these to place each response on the
/// arrival timeline (`issued_at + response.latency` is the query's
/// completion instant) without re-deriving the loop's scheduling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct WindowSpan {
    /// Index of the window's first response in the run's responses.
    pub first_query: usize,
    /// Number of responses the window served.
    pub queries: usize,
    /// When the window's fetches were issued on the virtual timeline.
    pub issued_at: SimInstant,
}

/// A pipelined run's responses (in request order) plus its report.
#[derive(Debug)]
pub struct PipelineOutcome {
    /// One response per request, in request order, byte-identical to
    /// executing the same requests sequentially (E13 asserts this).
    pub responses: Vec<SearchResponse>,
    /// Stream-level accounting.
    pub report: PipelineReport,
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

//! Admission control and load shedding for open-loop serving.
//!
//! Every earlier experiment drains a fixed query list as fast as the engine
//! serves it (closed-loop), so the engine never sees *offered load* above
//! its capacity. This module is the serving-side half of the open-loop
//! harness (`qb-load` generates the arrival traces): each frontend gets a
//! **bounded ingress queue** feeding [`crate::QueenBee::search_pipelined`]
//! windows — there is no unbounded buffering anywhere — and an admission
//! controller decides, at each query's arrival instant, whether to
//!
//! * **admit** it as-is,
//! * **degrade** it (a [`Freshness::Fresh`] request is downgraded to
//!   [`Freshness::CacheOk`], trading version-checked cache serving for a
//!   guaranteed DHT round trip), or
//! * **shed** it (rejected outright, the only honest answer once the
//!   backlog would blow the latency target anyway).
//!
//! The controller's signal is the **estimated sojourn** of the arriving
//! query: the frontend's remaining busy time plus its queued work, priced
//! at an exponentially weighted estimate of observed per-query service
//! time. The estimate is fed by the measured makespans of dispatched
//! pipeline batches, which already embed the per-link queueing delay the
//! [`crate::PipelineReport`] charges — so congestion inside the pipeline
//! pushes the estimate up and trips degradation/shedding without any
//! wall-clock input. Everything is integer arithmetic on simulated
//! microseconds: two runs of the same trace produce bit-identical
//! [`LoadReport`]s.
//!
//! Admission is a value, not a switch: [`AdmissionConfig`] always holds the
//! queue bound, window shape and thresholds `serve_open_loop` runs with,
//! and the closed-loop search paths never read it.
//!
//! [`Freshness::Fresh`]: crate::query::request::Freshness::Fresh
//! [`Freshness::CacheOk`]: crate::query::request::Freshness::CacheOk

use qb_common::{LatencyHistogram, QbError, QbResult, SimDuration, SimInstant};

use crate::query::request::SearchRequest;

/// A queued query older than this forces a partial-window dispatch, so light
/// load is not penalized waiting for a full window.
pub const MAX_BATCH_DELAY: SimDuration = SimDuration::from_millis(2);

/// Knobs of the per-frontend admission/backpressure layer. Only
/// [`crate::QueenBee::serve_open_loop`] consults them, so every
/// closed-loop path keeps its exact behavior whatever they are.
#[derive(Debug, Clone, PartialEq)]
pub struct AdmissionConfig {
    /// Hard bound on queries queued per frontend; an arrival that finds
    /// the queue full is shed unconditionally (the no-unbounded-buffering
    /// guarantee).
    pub queue_capacity: usize,
    /// Queries per pipeline window a dispatch cuts its batch into.
    pub window_size: usize,
    /// Pipeline depth (windows in flight) per dispatched batch.
    pub max_windows_in_flight: usize,
    /// Estimated sojourn above which a `Fresh` arrival is degraded to
    /// `CacheOk` (first, cheaper relief valve).
    pub degrade_threshold: SimDuration,
    /// Estimated sojourn above which an arrival is shed even though the
    /// queue still has room (second valve; keeps the tail bounded).
    pub shed_threshold: SimDuration,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            queue_capacity: 64,
            window_size: 16,
            max_windows_in_flight: 2,
            degrade_threshold: SimDuration::from_millis(25),
            shed_threshold: SimDuration::from_millis(100),
        }
    }
}

impl AdmissionConfig {
    /// The default knobs, under the name callers used while admission was
    /// a switch (a benchmark workload still calls it); equal to
    /// [`AdmissionConfig::default`].
    pub fn enabled() -> AdmissionConfig {
        AdmissionConfig::default()
    }

    /// Validate the configuration.
    pub fn validate(&self) -> QbResult<()> {
        if self.queue_capacity == 0 {
            return Err(QbError::Config(
                "admission queue capacity must be positive".into(),
            ));
        }
        if self.window_size == 0 || self.max_windows_in_flight == 0 {
            return Err(QbError::Config(
                "admission window size and pipeline depth must be positive".into(),
            ));
        }
        if self.degrade_threshold > self.shed_threshold {
            return Err(QbError::Config(
                "admission degrade threshold must not exceed the shed threshold".into(),
            ));
        }
        Ok(())
    }

    /// Most queries one dispatch hands to the pipeline (a full pipeline's
    /// worth of windows).
    pub(crate) fn dispatch_limit(&self) -> usize {
        self.window_size.max(1) * self.max_windows_in_flight.max(1)
    }
}

/// A query plus its arrival offset on the open-loop timeline (relative to
/// the instant the replay starts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimedRequest {
    /// Arrival offset from the start of the replay.
    pub offset: SimDuration,
    /// The request itself.
    pub request: SearchRequest,
}

impl TimedRequest {
    /// A request arriving `offset` after the replay starts.
    pub fn new(offset: SimDuration, request: SearchRequest) -> TimedRequest {
        TimedRequest { offset, request }
    }
}

/// What one open-loop replay did: admission counters, first-class latency
/// accounting (per-query sojourn and queue-wait histograms) and goodput.
/// Derived `PartialEq` makes "two replays of the same trace are
/// bit-identical" a one-line assertion.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LoadReport {
    /// Queries the trace offered.
    pub offered: u64,
    /// Queries admitted (including degraded ones).
    pub admitted: u64,
    /// Admitted `Fresh` queries downgraded to `CacheOk`.
    pub degraded: u64,
    /// Queries rejected (queue full or shed threshold).
    pub shed: u64,
    /// Admitted queries served to completion.
    pub completed: u64,
    /// Pipeline windows dispatched.
    pub windows: u64,
    /// Dispatched batches (each one `search_pipelined` call).
    pub dispatches: u64,
    /// Deepest any frontend's ingress queue ever got (≤ the configured
    /// capacity by construction).
    pub peak_queue_depth: usize,
    /// Admitted queries per fleet slot (index = frontend). The routing
    /// experiments read the max/mean of this vector to quantify how evenly
    /// a policy spreads load — in particular across a crash window, where
    /// ring-successor routing piles the dead slot's keyspace onto one
    /// survivor.
    pub admitted_per_frontend: Vec<u64>,
    /// Per-query sojourn (arrival → response completion).
    pub sojourn: LatencyHistogram,
    /// Per-query ingress wait (arrival → window issue).
    pub queue_wait: LatencyHistogram,
    /// Total per-link queueing delay the dispatched pipelines charged.
    pub pipeline_queue_delay: SimDuration,
    /// Replay start → last completion.
    pub makespan: SimDuration,
}

impl LoadReport {
    /// Fraction of offered queries shed (0.0 when nothing was offered).
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.shed as f64 / self.offered as f64
        }
    }

    /// Completed queries per simulated second of makespan.
    pub fn goodput_qps(&self) -> f64 {
        let secs = self.makespan.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.completed as f64 / secs
        }
    }

    /// Median sojourn.
    pub fn p50(&self) -> SimDuration {
        self.sojourn.p50()
    }

    /// 99th-percentile sojourn.
    pub fn p99(&self) -> SimDuration {
        self.sojourn.p99()
    }

    /// 99.9th-percentile sojourn.
    pub fn p999(&self) -> SimDuration {
        self.sojourn.p999()
    }
}

impl qb_trace::MetricsSource for LoadReport {
    fn metrics_into(&self, out: &mut qb_trace::MetricsSnapshot) {
        out.add_counter("load.offered", self.offered);
        out.add_counter("load.admitted", self.admitted);
        out.add_counter("load.degraded", self.degraded);
        out.add_counter("load.shed", self.shed);
        out.add_counter("load.completed", self.completed);
        out.add_counter("load.windows", self.windows);
        out.add_counter("load.dispatches", self.dispatches);
        out.add_counter("load.peak_queue_depth", self.peak_queue_depth as u64);
        out.add_counter(
            "load.pipeline_queue_delay_us",
            self.pipeline_queue_delay.as_micros(),
        );
        out.add_counter("load.makespan_us", self.makespan.as_micros());
        out.merge_histogram("load.sojourn", &self.sojourn);
        out.merge_histogram("load.queue_wait", &self.queue_wait);
    }
}

impl std::fmt::Display for LoadReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "load: {} offered, {} admitted ({} degraded), {} shed ({:.1}%), {} completed",
            self.offered,
            self.admitted,
            self.degraded,
            self.shed,
            100.0 * self.shed_rate(),
            self.completed,
        )?;
        writeln!(
            f,
            "  sojourn: {} | goodput {:.1} q/s over {}",
            self.sojourn,
            self.goodput_qps(),
            self.makespan
        )?;
        writeln!(
            f,
            "  pipeline: {} dispatches, {} windows, peak queue {}, link queue delay {}",
            self.dispatches, self.windows, self.peak_queue_depth, self.pipeline_queue_delay
        )
    }
}

/// One frontend's bounded ingress queue plus the controller state scoped
/// to it (busy horizon and the service-time estimate its dispatches feed).
#[derive(Debug)]
pub(crate) struct IngressQueue {
    /// Queued `(arrival, request)` pairs, oldest first.
    pub(crate) queue: std::collections::VecDeque<(SimInstant, SearchRequest)>,
    /// When the frontend finishes its most recently dispatched batch.
    pub(crate) busy_until: SimInstant,
    /// EWMA of observed per-query service time in microseconds (0 until
    /// the first dispatch completes).
    pub(crate) service_est_us: u64,
}

impl IngressQueue {
    pub(crate) fn new(start: SimInstant) -> IngressQueue {
        IngressQueue {
            queue: std::collections::VecDeque::new(),
            busy_until: start,
            service_est_us: 0,
        }
    }

    /// The sojourn an arrival at `now` would see if admitted: remaining
    /// busy time, plus the queued backlog (itself included) priced at the
    /// observed per-query service estimate.
    pub(crate) fn estimated_sojourn(&self, now: SimInstant) -> SimDuration {
        let backlog = (self.queue.len() as u64 + 1).saturating_mul(self.service_est_us);
        SimDuration::from_micros(
            self.busy_until
                .since(now)
                .as_micros()
                .saturating_add(backlog),
        )
    }

    /// Fold a dispatched batch's measured per-query service time into the
    /// EWMA (weight 1/4 new, 3/4 history — smooth enough to ride out one
    /// lucky all-cached batch, fast enough to track a flash crowd).
    pub(crate) fn observe_service(&mut self, batch_len: usize, makespan: SimDuration) {
        if batch_len == 0 {
            return;
        }
        let per_query = makespan.as_micros() / batch_len as u64;
        self.service_est_us = if self.service_est_us == 0 {
            per_query
        } else {
            (3 * self.service_est_us + per_query) / 4
        };
    }

    /// When this queue wants to dispatch next, given the admission config:
    /// immediately once a full pipeline of work (or the batch-delay
    /// deadline of its oldest entry) is reached, but never before the
    /// frontend is free. `None` while empty.
    pub(crate) fn next_dispatch_at(
        &self,
        cfg: &AdmissionConfig,
        drain: bool,
    ) -> Option<SimInstant> {
        let oldest = self.queue.front()?.0;
        let limit = cfg.dispatch_limit();
        let trigger = if drain {
            oldest
        } else if self.queue.len() >= limit {
            // The arrival that filled the pipeline's worth of work.
            self.queue[limit - 1].0
        } else {
            oldest + MAX_BATCH_DELAY
        };
        Some(trigger.max(self.busy_until))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        let c = AdmissionConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.dispatch_limit(), c.window_size * c.max_windows_in_flight);
    }

    #[test]
    fn the_enabled_alias_is_the_default() {
        assert_eq!(AdmissionConfig::enabled(), AdmissionConfig::default());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let invalid = [
            AdmissionConfig {
                queue_capacity: 0,
                ..AdmissionConfig::default()
            },
            AdmissionConfig {
                window_size: 0,
                ..AdmissionConfig::default()
            },
            AdmissionConfig {
                degrade_threshold: SimDuration::from_millis(200),
                ..AdmissionConfig::default()
            },
        ];
        for c in invalid {
            assert!(c.validate().is_err(), "{c:?}");
        }
    }

    #[test]
    fn estimated_sojourn_prices_backlog_and_busy_time() {
        let t0 = SimInstant(1_000_000);
        let mut q = IngressQueue::new(t0);
        assert_eq!(q.estimated_sojourn(t0), SimDuration::ZERO);
        q.busy_until = t0 + SimDuration::from_millis(5);
        q.service_est_us = 2_000;
        q.queue.push_back((t0, SearchRequest::new("hello")));
        // 5ms busy + (1 queued + the arrival itself) * 2ms.
        assert_eq!(q.estimated_sojourn(t0), SimDuration::from_millis(9));
    }

    #[test]
    fn service_estimate_is_an_ewma() {
        let mut q = IngressQueue::new(SimInstant::ZERO);
        q.observe_service(4, SimDuration::from_micros(8_000));
        assert_eq!(q.service_est_us, 2_000);
        q.observe_service(2, SimDuration::from_micros(12_000));
        assert_eq!(q.service_est_us, (3 * 2_000 + 6_000) / 4);
        let before = q.service_est_us;
        q.observe_service(0, SimDuration::from_micros(1));
        assert_eq!(q.service_est_us, before, "empty batches are ignored");
    }

    #[test]
    fn dispatch_deadline_follows_oldest_entry_until_the_pipeline_fills() {
        let cfg = AdmissionConfig::default();
        let t0 = SimInstant(500_000);
        let mut q = IngressQueue::new(t0);
        assert_eq!(q.next_dispatch_at(&cfg, false), None);
        q.queue.push_back((t0, SearchRequest::new("a")));
        assert_eq!(q.next_dispatch_at(&cfg, false), Some(t0 + MAX_BATCH_DELAY));
        // Draining ignores the batching deadline.
        assert_eq!(q.next_dispatch_at(&cfg, true), Some(t0));
        // A busy frontend defers the dispatch regardless.
        q.busy_until = t0 + SimDuration::from_millis(50);
        assert_eq!(q.next_dispatch_at(&cfg, true), Some(q.busy_until));
        // Filling a pipeline's worth of work triggers on the filling arrival.
        let mut q = IngressQueue::new(t0);
        for i in 0..cfg.dispatch_limit() {
            q.queue.push_back((
                t0 + SimDuration::from_micros(i as u64),
                SearchRequest::new("x"),
            ));
        }
        assert_eq!(
            q.next_dispatch_at(&cfg, false),
            Some(t0 + SimDuration::from_micros(cfg.dispatch_limit() as u64 - 1))
        );
    }

    #[test]
    fn report_rates_handle_empty_runs() {
        let r = LoadReport::default();
        assert_eq!(r.shed_rate(), 0.0);
        assert_eq!(r.goodput_qps(), 0.0);
        let r = LoadReport {
            offered: 10,
            shed: 3,
            completed: 7,
            makespan: SimDuration::from_secs(2),
            ..LoadReport::default()
        };
        assert!((r.shed_rate() - 0.3).abs() < 1e-12);
        assert!((r.goodput_qps() - 3.5).abs() < 1e-12);
        assert!(r.to_string().contains("3 shed"));
    }
}

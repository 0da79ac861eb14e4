//! The open-loop seam: an arrival trace admitted, queued, degraded or shed
//! per frontend and dispatched through the pipeline in windows.

use super::QueenBee;
use crate::query::admission::{IngressQueue, LoadReport, TimedRequest};
use crate::query::pipeline::PipelineConfig;
use crate::query::request::{Freshness, RoutingPolicy, SearchRequest};
use qb_common::{QbResult, SimInstant};

impl QueenBee {
    /// Serve an **open-loop** arrival trace: each request is admitted (or
    /// degraded, or shed) at its arrival instant against its frontend's
    /// bounded ingress queue, queued work is dispatched through
    /// [`QueenBee::search_pipelined`] in windows, and every query's sojourn
    /// (arrival → response completion) lands in the returned
    /// [`LoadReport`]'s histograms. The queue bound, window shape and
    /// thresholds come from the engine's
    /// [`AdmissionConfig`](crate::AdmissionConfig); the closed-loop search
    /// paths never consult that config, so its values change nothing else.
    ///
    /// Arrival offsets are relative to the current simulated instant; the
    /// shared clock is advanced along the arrival timeline (firing due
    /// gossip rounds on the way), never past it in one jump.
    pub fn serve_open_loop(&mut self, arrivals: Vec<TimedRequest>) -> QbResult<LoadReport> {
        let cfg = self.config.admission.clone();
        let pipeline = PipelineConfig {
            window_size: cfg.window_size,
            max_windows_in_flight: cfg.max_windows_in_flight,
        };
        let t0 = self.net.now();
        let nf = self.num_frontends().max(1);
        let mut queues: Vec<IngressQueue> = (0..nf).map(|_| IngressQueue::new(t0)).collect();
        let mut report = LoadReport {
            admitted_per_frontend: vec![0; nf],
            ..LoadReport::default()
        };
        let mut last_completion = t0;

        // Arrivals in time order (stable, so same-instant arrivals keep
        // their trace order), consumed by move: an admitted request is
        // handed from the trace to its queue to its window, never copied.
        let mut arrivals = arrivals;
        arrivals.sort_by_key(|a| a.offset);
        let mut arrivals = arrivals.into_iter().peekable();

        loop {
            // The earliest pending event wins: the next trace arrival or
            // the earliest frontend dispatch (ties broken by frontend
            // index, arrivals before dispatches at the same instant so a
            // same-instant arrival can still join the batch).
            let arrival_at = arrivals.peek().map(|a| t0 + a.offset);
            let draining = arrival_at.is_none();
            let next_dispatch: Option<(SimInstant, usize)> = queues
                .iter()
                .enumerate()
                .filter_map(|(f, q)| q.next_dispatch_at(&cfg, draining).map(|at| (at, f)))
                .min();

            match (arrival_at, next_dispatch) {
                (Some(at), d) if d.is_none_or(|(dt, _)| at <= dt) => {
                    // Admission decision at the arrival instant (`at` was
                    // peeked off this very arrival).
                    let Some(TimedRequest { mut request, .. }) = arrivals.next() else {
                        break;
                    };
                    report.offered += 1;
                    let (_, frontend) = self.resolve_route(&request.routing)?;
                    let f = frontend.unwrap_or(0).min(nf - 1);
                    let q = &mut queues[f];
                    let estimate = q.estimated_sojourn(at);
                    if q.queue.len() >= cfg.queue_capacity || estimate > cfg.shed_threshold {
                        report.shed += 1;
                        self.net.tracer().record(None, "load.shed", at, at);
                        continue;
                    }
                    if estimate > cfg.degrade_threshold
                        && matches!(request.freshness, Freshness::Fresh)
                    {
                        request.freshness = Freshness::CacheOk;
                        report.degraded += 1;
                        self.net.tracer().record(None, "load.degrade", at, at);
                    }
                    // Pin the admission decision: the query is queued at
                    // frontend `f`, so it must also be *served* there —
                    // without the pin, plan-time re-resolution against a
                    // later load picture can silently move it, feeding the
                    // load EWMA at a different frontend than the one the
                    // dispatch ledger charged.
                    if frontend.is_some() {
                        request.routing = RoutingPolicy::Direct(f);
                    }
                    report.admitted += 1;
                    report.admitted_per_frontend[f] += 1;
                    // Feed the router's local dispatch ledger: the next
                    // arrival's two-choices comparison sees this admit
                    // immediately instead of waiting a heartbeat fold.
                    if let Some(fleet) = self.fleet.as_mut() {
                        fleet.record_routed(f);
                    }
                    q.queue.push_back((at, request));
                    report.peak_queue_depth = report.peak_queue_depth.max(q.queue.len());
                }
                (_, Some((at, f))) => {
                    // Dispatch up to a pipeline's worth of queued work.
                    let q = &mut queues[f];
                    let take = q.queue.len().min(cfg.dispatch_limit());
                    let (arrived, requests): (Vec<SimInstant>, Vec<SearchRequest>) =
                        q.queue.drain(..take).unzip();
                    // The batch leaves the ingress queue: retire it from
                    // the router's queued-work gauge.
                    if let Some(fleet) = self.fleet.as_mut() {
                        fleet.record_finished(f, take as u64);
                    }
                    self.advance_time_to(at);
                    let outcome = self.search_pipelined(requests, pipeline)?;
                    for span in &outcome.window_spans {
                        let range = span.first_query..span.first_query + span.queries;
                        for (arrived, response) in
                            arrived[range.clone()].iter().zip(&outcome.responses[range])
                        {
                            let done = span.issued_at + response.latency;
                            report.sojourn.record(done.since(*arrived));
                            report.queue_wait.record(span.issued_at.since(*arrived));
                            report.completed += 1;
                            last_completion = last_completion.max(done);
                            self.record_query_tree(response, span.issued_at, done, Some(*arrived));
                        }
                    }
                    report.dispatches += 1;
                    report.windows += outcome.report.windows as u64;
                    report.pipeline_queue_delay += outcome.report.queue_delay;
                    let q = &mut queues[f];
                    q.observe_service(take, outcome.report.makespan);
                    q.busy_until = at + outcome.report.makespan;
                }
                // Nothing queued and — the first arm takes any arrival that
                // has no dispatch to wait behind — nothing left to arrive.
                (_, None) => break,
            }
        }

        report.makespan = last_completion.since(t0);
        Ok(report)
    }
}

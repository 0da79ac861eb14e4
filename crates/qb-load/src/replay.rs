//! Trace replay against a QueenBee engine.
//!
//! [`to_requests`] turns an [`ArrivalTrace`] into the
//! [`TimedRequest`] schedule [`QueenBee::serve_open_loop`] consumes —
//! spreading arrivals across the frontend fleet by hashing the arrival
//! sequence number, and marking a deterministic fraction of queries
//! `Fresh` (the rest tolerate cached results, so the admission layer has a
//! degrade path *and* a population that exercises the cache). [`replay`]
//! is the one-call version: generate requests, serve them, return the
//! [`LoadReport`].
//!
//! [`replay_traced`] runs the same replay with the engine's structured
//! tracer switched on and hands back the recorded [`qb_trace::Trace`]
//! next to the report: every admitted query becomes a `query` span tree
//! (`queue_wait` / `fetch` / `score` children) and every shed arrival a
//! `load.shed` marker, ready for [`qb_trace::critical_path`] /
//! [`qb_trace::attribution`] analysis.

use crate::trace::ArrivalTrace;
use qb_common::{DetRng, QbResult};
use qb_queenbee::{Freshness, LoadReport, QueenBee, RoutingPolicy, SearchRequest, TimedRequest};

/// How a trace is turned into engine requests.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Seed for the per-request freshness coin flips.
    pub seed: u64,
    /// Fraction of requests demanding `Fresh` results (bypassing the result
    /// cache); the rest are `CacheOk`.
    pub fresh_fraction: f64,
    /// Results requested per query.
    pub top_k: usize,
    /// Route via the seed's [`RoutingPolicy::RingSuccessor`] (modulo + ring
    /// walk) instead of the default rendezvous [`RoutingPolicy::HashPeer`].
    /// Only useful for failover-geometry comparisons (E12c/E17): the ring
    /// walk dumps a crashed frontend's whole keyspace on one successor.
    pub ring_successor_routing: bool,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            seed: 0x5E7,
            fresh_fraction: 0.3,
            top_k: 5,
            ring_successor_routing: false,
        }
    }
}

/// Turn a trace into timed requests, round-robining arrivals over the
/// frontend fleet via [`RoutingPolicy::HashPeer`] on the arrival sequence
/// number.
pub fn to_requests(trace: &ArrivalTrace, config: &ReplayConfig) -> Vec<TimedRequest> {
    let mut rng = DetRng::new(config.seed);
    trace
        .arrivals
        .iter()
        .enumerate()
        .map(|(seq, arrival)| {
            let freshness = if rng.gen_bool(config.fresh_fraction.clamp(0.0, 1.0)) {
                Freshness::Fresh
            } else {
                Freshness::CacheOk
            };
            let routing = if config.ring_successor_routing {
                RoutingPolicy::RingSuccessor(seq as u64)
            } else {
                RoutingPolicy::HashPeer(seq as u64)
            };
            let request = SearchRequest::new(arrival.query.clone())
                .top_k(config.top_k)
                .route(routing)
                .freshness(freshness);
            TimedRequest::new(arrival.offset, request)
        })
        .collect()
}

/// Replay a trace against an engine and return its [`LoadReport`].
///
/// The engine's [`qb_queenbee::AdmissionConfig`] bounds each frontend's
/// queue and sets its thresholds; arrival offsets are interpreted
/// relative to the engine's current simulated instant.
pub fn replay(
    engine: &mut QueenBee,
    trace: &ArrivalTrace,
    config: &ReplayConfig,
) -> QbResult<LoadReport> {
    engine.serve_open_loop(to_requests(trace, config))
}

/// [`replay`] with the engine's structured tracer on for the duration of
/// the run: returns the [`LoadReport`] together with the span trees the
/// replay recorded (one `query` root per completed query, plus
/// `load.shed` / `load.degrade` markers). The tracer is restored to its
/// previous state afterwards, and the report is byte-identical to an
/// untraced [`replay`] of the same trace — tracing never perturbs the
/// simulation.
pub fn replay_traced(
    engine: &mut QueenBee,
    trace: &ArrivalTrace,
    config: &ReplayConfig,
) -> QbResult<(LoadReport, qb_trace::Trace)> {
    let was_on = engine.tracing_enabled();
    engine.set_tracing(true);
    let result = engine.serve_open_loop(to_requests(trace, config));
    let spans = engine.take_trace();
    engine.set_tracing(was_on);
    let report = result?;
    Ok((report, spans))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceConfig;
    use qb_common::DetRng;
    use qb_workload::{CorpusConfig, CorpusGenerator};

    fn trace() -> ArrivalTrace {
        let corpus = CorpusGenerator::new(CorpusConfig::tiny()).generate(&mut DetRng::new(7));
        ArrivalTrace::generate(&corpus, &TraceConfig::default())
    }

    #[test]
    fn requests_preserve_schedule_and_spread_frontends() {
        let t = trace();
        let requests = to_requests(&t, &ReplayConfig::default());
        assert_eq!(requests.len(), t.len());
        for (seq, (req, arrival)) in requests.iter().zip(&t.arrivals).enumerate() {
            assert_eq!(req.offset, arrival.offset);
            assert_eq!(req.request.query, arrival.query);
            assert_eq!(req.request.routing, RoutingPolicy::HashPeer(seq as u64));
        }
    }

    #[test]
    fn fresh_fraction_is_respected_and_deterministic() {
        let t = trace();
        let cfg = ReplayConfig {
            fresh_fraction: 0.5,
            ..ReplayConfig::default()
        };
        let a = to_requests(&t, &cfg);
        let b = to_requests(&t, &cfg);
        assert_eq!(a, b);
        let fresh = a
            .iter()
            .filter(|r| r.request.freshness == Freshness::Fresh)
            .count();
        let frac = fresh as f64 / a.len() as f64;
        assert!((0.35..=0.65).contains(&frac), "fresh fraction {frac}");
        let none = to_requests(
            &t,
            &ReplayConfig {
                fresh_fraction: 0.0,
                ..ReplayConfig::default()
            },
        );
        assert!(none
            .iter()
            .all(|r| r.request.freshness == Freshness::CacheOk));
    }
}

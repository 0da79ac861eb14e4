//! Integration tests for the structured tracing subsystem (qb-trace wired
//! through the whole engine): a traced open-loop replay must record one
//! `query` span tree per completed query whose intervals reproduce the
//! LoadReport's sojourn/queue-wait accounting, tracing must be provably
//! free of side effects on the simulation, and the exported traces must be
//! byte-identical across identically-seeded runs.

use qb_common::{SimDuration, SimInstant};
use qb_load::scenario::{constant_trace, corpus, open_loop_fleet, published};
use qb_load::{replay, replay_traced, ReplayConfig};
use qb_queenbee::{Freshness, QueenBee, RoutingPolicy, SearchRequest};
use qb_trace::{attribution, critical_path, to_chrome_trace, to_json, MetricsSnapshot};
use qb_workload::Corpus;

fn engine(corpus: &Corpus, seed: u64) -> QueenBee {
    let config = open_loop_fleet(seed, SimDuration::from_millis(800));
    published(config, corpus, 10..28).expect("valid config")
}

fn replay_cfg() -> ReplayConfig {
    ReplayConfig {
        fresh_fraction: 0.9,
        ..ReplayConfig::default()
    }
}

/// One `query` root per completed query; its interval is the query's
/// sojourn and its `queue_wait` child the ingress wait, so the trace
/// reproduces the LoadReport's histograms exactly.
#[test]
fn traced_replay_records_one_tree_per_completed_query() {
    let corpus = corpus(0x7ACE, 20, 60);
    let t = constant_trace(&corpus, 0x7ACE, 40.0, 3);
    let mut qb = engine(&corpus, 0x7ACE);
    let (report, spans) = replay_traced(&mut qb, &t, &replay_cfg()).expect("replay");
    let queries: Vec<_> = spans.named("query").collect();
    assert_eq!(queries.len() as u64, report.completed);
    assert_eq!(
        spans.named("load.shed").count() as u64,
        report.shed,
        "one shed marker per shed arrival"
    );
    let mut sojourn = qb_common::LatencyHistogram::new();
    let mut queue_wait = qb_common::LatencyHistogram::new();
    for q in &queries {
        assert!(!q.detail.is_empty(), "query spans carry the query text");
        sojourn.record(q.duration());
        let waits: Vec<_> = spans
            .children(q.id)
            .filter(|c| c.name == "queue_wait")
            .collect();
        assert_eq!(waits.len(), 1);
        queue_wait.record(waits[0].duration());
        // The query ends with its service stage (fetch or cache_serve) or,
        // when per-link queueing was charged inside its slowest dependency,
        // with the split-off `net_queue` wait.
        let served = spans.children(q.id).any(|c| {
            (c.name == "fetch" || c.name == "cache_serve" || c.name == "net_queue")
                && c.end == q.end
        });
        let zero_service = waits[0].end == q.end;
        assert!(
            served || zero_service,
            "query {} has no service child",
            q.detail
        );
    }
    assert_eq!(sojourn, report.sojourn, "trace reproduces sojourns");
    assert_eq!(queue_wait, report.queue_wait, "trace reproduces waits");
}

/// Tracing is observationally free: the LoadReport of a traced replay is
/// byte-identical to an untraced one, and the unified metrics snapshot
/// (network, cache, gossip, query counters) matches counter for counter.
#[test]
fn tracing_never_perturbs_replay_or_metrics() {
    let corpus = corpus(0x7ACE, 20, 60);
    let t = constant_trace(&corpus, 0x7ACE, 40.0, 3);
    let mut plain = engine(&corpus, 0x7ACE);
    let mut traced = engine(&corpus, 0x7ACE);
    let report_plain = replay(&mut plain, &t, &replay_cfg()).expect("replay");
    let (report_traced, spans) = replay_traced(&mut traced, &t, &replay_cfg()).expect("replay");
    assert!(!spans.is_empty(), "tracing actually recorded");
    assert_eq!(report_plain, report_traced, "reports must be identical");
    assert_eq!(
        plain.metrics_snapshot(),
        traced.metrics_snapshot(),
        "stats surfaces must be identical"
    );
    assert!(
        !traced.tracing_enabled(),
        "replay_traced restores the switch"
    );
}

/// Same seed, same trace → byte-identical JSON and Chrome-trace exports.
#[test]
fn exports_are_deterministic() {
    let corpus = corpus(0x7ACE, 16, 60);
    let t = constant_trace(&corpus, 0x7ACE, 40.0, 2);
    let mut a = engine(&corpus, 0x7ACE);
    let mut b = engine(&corpus, 0x7ACE);
    let (_, ta) = replay_traced(&mut a, &t, &replay_cfg()).expect("replay");
    let (_, tb) = replay_traced(&mut b, &t, &replay_cfg()).expect("replay");
    assert_eq!(ta, tb);
    assert_eq!(to_json(&ta), to_json(&tb));
    assert_eq!(to_chrome_trace(&ta), to_chrome_trace(&tb));
}

/// The closed-loop path records a window span over its fetches and a
/// critical path that descends query → fetch, with the attribution summing
/// exactly to the root's duration.
#[test]
fn closed_loop_query_has_fetch_dominated_critical_path() {
    let corpus = corpus(0x7ACE, 16, 60);
    let term = corpus.pages[0].title.split_whitespace().next().unwrap();
    // Rendezvous routing may land the query on a frontend whose origin peer
    // co-hosts the term's shard replica, making the fetch a free local read.
    // This test is about trace attribution, not placement: probe throwaway
    // engines for a frontend that actually reaches over the network and pin
    // the traced query there.
    let slot = (0..4)
        .find(|&s| {
            let mut probe = engine(&corpus, 0x7ACE);
            let r = probe
                .search_request(
                    SearchRequest::new(term)
                        .top_k(5)
                        .route(RoutingPolicy::Direct(s)),
                )
                .expect("probe search");
            r.trace.shard_fetch > SimDuration::ZERO
        })
        .expect("some frontend must fetch its shard over the network");
    let mut qb = engine(&corpus, 0x7ACE);
    qb.set_tracing(true);
    let response = qb
        .search_request(
            SearchRequest::new(term)
                .top_k(5)
                .route(RoutingPolicy::Direct(slot)),
        )
        .expect("search");
    assert!(response.latency > SimDuration::ZERO);
    let spans = qb.take_trace();
    let window = spans.named("window").next().expect("window span");
    assert!(window.start >= SimInstant::ZERO);
    let query = spans.named("query").next().expect("query tree");
    assert_eq!(query.duration(), response.latency);
    let path = critical_path(&spans, query.id);
    assert_eq!(path.first().map(|s| s.name), Some("query"));
    let attr = attribution(&spans, query.id);
    let total: SimDuration = attr.values().fold(SimDuration::ZERO, |a, &d| a + d);
    assert_eq!(total, query.duration(), "attribution covers the root");
    assert!(
        attr.contains_key("fetch"),
        "a cold fresh query must charge fetch time: {attr:?}"
    );
}

/// A failed request must not leave its `window` span open: every later
/// span would nest under it, no later `query` tree would be a root, and
/// critical-path attribution of everything after the first error would be
/// wrong.
#[test]
fn failed_requests_leave_no_window_span_open() {
    let corpus = corpus(0x7ACE, 16, 60);
    let term = corpus.pages[0].title.split_whitespace().next().unwrap();
    let mut qb = engine(&corpus, 0x7ACE);
    qb.set_tracing(true);
    // Plan-time failure: nothing searchable survives analysis.
    assert!(qb.search_request(SearchRequest::new("the of and")).is_err());
    // Fetch-time failure: the serving frontend's device is offline.
    let peer = qb.fleet().expect("fleet mode").frontend_peer(1);
    qb.net.set_online(peer, false);
    let fresh = SearchRequest::new(term).freshness(Freshness::Fresh);
    assert!(qb
        .search_request(fresh.clone().route(RoutingPolicy::Direct(1)))
        .is_err());
    qb.net.set_online(peer, true);
    qb.search_request(fresh.route(RoutingPolicy::Direct(0)))
        .expect("good query");
    let spans = qb.take_trace();
    assert_eq!(spans.named("query").count(), 1);
    for span in spans.named("query").chain(spans.named("window")) {
        assert_eq!(span.parent, None, "'{}' must be a root", span.name);
    }
}

/// The metrics snapshot diffing isolates one replay's worth of counters.
#[test]
fn snapshot_diff_isolates_a_run() {
    let corpus = corpus(0x7ACE, 16, 60);
    let t = constant_trace(&corpus, 0x7ACE, 30.0, 2);
    let mut qb = engine(&corpus, 0x7ACE);
    let before = qb.metrics_snapshot();
    let report = replay(&mut qb, &t, &replay_cfg()).expect("replay");
    let after = qb.metrics_snapshot();
    let delta = after.diff_since(&before);
    assert!(delta.counter("net.rpcs") > 0, "replay issued rpcs");
    assert!(delta.counter("net.rpcs") <= after.counter("net.rpcs"));
    // Fold the run's LoadReport into a snapshot through the same interface.
    let run = MetricsSnapshot::collect(&[&report]);
    assert_eq!(run.counter("load.completed"), report.completed);
    let sojourn = format!("\"load.sojourn\":{{\"count\":{},", report.completed);
    assert!(run.to_json().contains(&sojourn), "{}", run.to_json());
}

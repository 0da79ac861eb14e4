//! E13 — the pipelined query engine. Part A replays a duplicate-heavy
//! Zipf(1.2) stream on identical engines (cache off, so the pipeline's own
//! mechanisms are isolated): **sequentially** (windows of one — the
//! byte-identity reference), **back-to-back** (PR 3's `search_batch`
//! windows, makespan = the sum of window latencies), **pipelined**
//! (`search_pipelined`: up to 4 windows in flight, window N+1's fetches
//! issued while window N's are pending under the simulated per-link
//! in-flight limits) and **adaptive** (the same pipeline self-steering
//! its depth, window and issue order from the observed queue-delay
//! share).
//!
//! Part B measures batch-aware gossip: a frontend fleet where frontend 0's
//! digest hot set is saturated by genuinely popular terms serves one batch
//! window of *cold* queries; without batch adverts the window's freshly
//! fetched shards sit below the popularity cut and never ride a regular
//! round, while with them the keys lead the very next round's digest and
//! fill order.
//!
//! Part C starves one uplink: every query routes through the same origin
//! peer, whose uplink admits a single in-flight operation, so the link —
//! not the reads — dominates, and the controller must steer (grow windows
//! so each query shares more deduped fetches) where the fixed pipeline can
//! only queue.
//!
//! Asserted acceptance criteria (the CI smoke job runs this):
//! * pipelined makespan ≤ 70% of back-to-back on the same stream,
//! * per-query hits byte-identical to sequential execution,
//! * every query scored exactly once on every configuration (cache off,
//!   so nothing keeps a scored list to answer a repeat from),
//! * per-link queueing is exercised (queue delay > 0),
//! * batch-aware gossip warms a non-serving frontend ≥ 1 round earlier
//!   than the PR 4 baseline.

use crate::{engine, published, write_json, DOC_LEN};
use qb_bench::{f2, pct_drop, Table};
use qb_chain::AccountId;
use qb_common::SimDuration;
use qb_dweb::WebPage;
use qb_index::ScoredDoc;
use qb_load::scenario::{corpus, sized, QueryStream};
use qb_queenbee::{
    CacheConfig, GossipConfig, PipelineConfig, PipelineOutcome, QueenBee, RoutingPolicy,
    SearchRequest, SearchResponse, TermProvenance,
};

const WINDOW: usize = 16;
const DEPTH: usize = 4;
const PAGES: usize = 30;
const POOL: usize = 24;
const STREAM: usize = 192;
/// Per-link in-flight budget of part A: the stream is too short to fill
/// the default 8-deep budget, which would leave `queue_delay` pinned at
/// 0.00 and the link-contention path unexercised. Two in-flight ops per
/// link make it contend.
const LINK_BUDGET: usize = 2;

fn pipeline(adaptive: bool) -> PipelineConfig {
    PipelineConfig {
        window_size: WINDOW,
        max_windows_in_flight: DEPTH,
        adaptive,
    }
}

fn messages(responses: &[SearchResponse]) -> u64 {
    responses.iter().map(|r| r.messages()).sum()
}

fn fetches(responses: &[SearchResponse]) -> u64 {
    responses.iter().map(|r| r.shards_fetched() as u64).sum()
}

fn assert_same_hits<'a>(
    reference: impl ExactSizeIterator<Item = &'a Vec<ScoredDoc>>,
    responses: &[SearchResponse],
    what: &str,
) {
    assert_eq!(reference.len(), responses.len());
    for (i, (hits, resp)) in reference.zip(responses).enumerate() {
        assert_eq!(
            hits, &resp.hits,
            "E13: query {i} must rank identically {what}"
        );
    }
}

/// `part` as a percentage of `whole` makespan.
fn percent_of(part: SimDuration, whole: SimDuration) -> f64 {
    100.0 * part.as_micros() as f64 / whole.as_micros().max(1) as f64
}

pub fn run() -> Vec<Table> {
    let (pipelined, starved) = pipeline_tables();
    vec![pipelined, fanout_table(), starved]
}

/// Parts A and C: E13a and E13c, and the `adaptive-pipeline.json` artifact.
fn pipeline_tables() -> (Table, Table) {
    let corpus = corpus(0xE13, PAGES, DOC_LEN);
    // Zipf(1.2) over a small pool: windows are duplicate-heavy by design.
    let stream = QueryStream::new(&corpus, 0xE13, POOL, 1.2, 0xE13F, STREAM);
    let build = |link_budget: usize| -> QueenBee {
        let mut config = sized(64, 6, 0xE13);
        config.net.max_in_flight_per_link = link_budget;
        published(config, &corpus)
    };
    let request = |i: usize| {
        SearchRequest::new(stream.query(i)).route(RoutingPolicy::HashPeer((i % 50) as u64))
    };

    // Sequential reference: per-query execution, the byte-identity oracle.
    let mut qb = build(LINK_BUDGET);
    let mut seq_hits: Vec<Vec<ScoredDoc>> = Vec::new();
    let mut seq_makespan = SimDuration::ZERO;
    for i in 0..STREAM {
        let resp = qb.search_request(request(i)).expect("sequential query");
        seq_makespan += resp.latency;
        seq_hits.push(resp.hits);
    }
    let seq_invocations = qb.query_stats().score_invocations;

    // Back-to-back windows: the PR 3 batch path, one window at a time.
    let mut qb = build(LINK_BUDGET);
    let mut b2b_makespan = SimDuration::ZERO;
    let mut b2b_messages = 0u64;
    let mut b2b_fetches = 0u64;
    for start in (0..STREAM).step_by(WINDOW) {
        let requests: Vec<_> = (start..(start + WINDOW).min(STREAM)).map(request).collect();
        let responses = qb.search_batch(requests).expect("batch window");
        b2b_makespan +=
            qb_simnet::parallel_latency(&responses.iter().map(|r| r.latency).collect::<Vec<_>>());
        b2b_messages += messages(&responses);
        b2b_fetches += fetches(&responses);
    }
    let b2b_invocations = qb.query_stats().score_invocations;

    // Pipelined: the same stream through the overlapping-window engine,
    // first at fixed depth, then self-steering from the same base knobs.
    let pipelined_run = |adaptive: bool| -> (PipelineOutcome, u64) {
        let mut qb = build(LINK_BUDGET);
        let outcome = qb
            .search_pipelined((0..STREAM).map(request).collect(), pipeline(adaptive))
            .expect("pipelined stream");
        (outcome, qb.query_stats().score_invocations)
    };
    let (fixed, pipe_invocations) = pipelined_run(false);
    let report = &fixed.report;

    // Acceptance criteria, asserted so the CI smoke job catches regressions.
    assert_same_hits(seq_hits.iter(), &fixed.responses, "pipelined vs sequential");
    assert!(
        report.makespan.as_micros() as f64 <= 0.7 * b2b_makespan.as_micros() as f64,
        "E13: pipelining must cut makespan >=30% ({} vs {b2b_makespan})",
        report.makespan
    );
    assert!(
        report.queue_delay > SimDuration::ZERO,
        "E13: the stream must exercise per-link queueing (queue_delay stuck at 0 means the \
         tightened in-flight budget stopped biting)"
    );

    let (adaptive, adaptive_invocations) = pipelined_run(true);
    let adaptive_report = &adaptive.report;
    assert_same_hits(
        seq_hits.iter(),
        &adaptive.responses,
        "adaptive vs sequential",
    );
    // The controller must never lose to the fixed pipeline it steers:
    // below saturation it converges to the fixed configuration (identical
    // schedule), under saturation its back-off and shortest-first issue
    // only reorder work the link budget was already serializing.
    let adaptive_vs_fixed = percent_of(adaptive_report.makespan, report.makespan);
    assert!(
        adaptive_vs_fixed <= 100.5,
        "E13: the self-steering pipeline must hold or improve the fixed-depth makespan \
         ({} vs {}, {adaptive_vs_fixed:.1}%)",
        adaptive_report.makespan,
        report.makespan
    );
    // Cache off, so nothing keeps a scored list: every configuration
    // scores each query of the duplicate-heavy stream exactly once.
    for (config, invocations) in [
        ("sequential", seq_invocations),
        ("back-to-back", b2b_invocations),
        ("pipelined", pipe_invocations),
        ("adaptive", adaptive_invocations),
    ] {
        assert_eq!(
            invocations, STREAM as u64,
            "E13: {config} must score each query exactly once"
        );
    }

    // ----- Part C: self-steering on a starved uplink --------------------------------
    let overload_run = |adaptive: bool| {
        let mut qb = build(1);
        let requests: Vec<_> = (0..STREAM)
            .map(|i| SearchRequest::new(stream.query(i)).route(RoutingPolicy::HashPeer(7)))
            .collect();
        qb.search_pipelined(requests, pipeline(adaptive))
            .expect("overload stream")
    };
    let fixed_overload = overload_run(false);
    let adaptive_overload = overload_run(true);
    assert_same_hits(
        fixed_overload.responses.iter().map(|r| &r.hits),
        &adaptive_overload.responses,
        "adaptive vs fixed on the starved uplink",
    );
    let (fixed_overload, adaptive_overload) = (fixed_overload.report, adaptive_overload.report);
    assert!(
        adaptive_overload.adapt_backoffs > 0,
        "E13c: the starved uplink must trip the controller's back-off"
    );
    let overload_vs_fixed = percent_of(adaptive_overload.makespan, fixed_overload.makespan);
    assert!(
        overload_vs_fixed <= 100.5,
        "E13c: self-steering must hold or improve the makespan on the starved uplink \
         ({} vs {}, {overload_vs_fixed:.1}%)",
        adaptive_overload.makespan,
        fixed_overload.makespan
    );

    // Machine-readable artifact for the CI workflow: the adaptive run's
    // steering decisions next to the fixed-depth reference. The experiments
    // have one size, the committed one; its "quick" key stays so the
    // artifact is byte-identical to every earlier run's.
    let starved_uplink = serde_json::json!({
        "fixed_makespan_ms": fixed_overload.makespan.as_millis_f64(),
        "adaptive_makespan_ms": adaptive_overload.makespan.as_millis_f64(),
        "adaptive_vs_fixed_percent": overload_vs_fixed,
        "adapt_backoffs": adaptive_overload.adapt_backoffs,
        "adapt_rampups": adaptive_overload.adapt_rampups,
        "fixed_queue_delay_ms": fixed_overload.queue_delay.as_millis_f64(),
        "adaptive_queue_delay_ms": adaptive_overload.queue_delay.as_millis_f64(),
    });
    let artifact = serde_json::json!({
        "experiment": "e13-adaptive-pipeline",
        "quick": true,
        "window_size": WINDOW,
        "max_windows_in_flight": DEPTH,
        "fixed_makespan_ms": report.makespan.as_millis_f64(),
        "adaptive_makespan_ms": adaptive_report.makespan.as_millis_f64(),
        "adaptive_vs_fixed_percent": adaptive_vs_fixed,
        "adapt_backoffs": adaptive_report.adapt_backoffs,
        "adapt_rampups": adaptive_report.adapt_rampups,
        "queue_delay_ms": adaptive_report.queue_delay.as_millis_f64(),
        "peak_windows_in_flight": adaptive_report.peak_windows_in_flight,
        "windows": adaptive_report.windows,
        "starved_uplink": starved_uplink,
    });
    write_json("adaptive-pipeline.json", &artifact).expect("E13 artifact");

    let mut t = Table::new(
        &format!(
            "E13a: pipelined (window {WINDOW}, depth {DEPTH}) vs back-to-back vs sequential on a \
             duplicate-heavy Zipf(1.2) stream ({STREAM} queries, {POOL}-query pool, cache off)"
        ),
        &[
            "config",
            "makespan_ms",
            "rpc_messages",
            "dht_shard_fetches",
            "queue_delay_ms",
        ],
    );
    t.row(&[
        &"sequential",
        &f2(seq_makespan.as_millis_f64()),
        &"-",
        &"-",
        &"-",
    ]);
    t.row(&[
        &"back-to-back",
        &f2(b2b_makespan.as_millis_f64()),
        &b2b_messages,
        &b2b_fetches,
        &"0.00",
    ]);
    for (label, outcome) in [("pipelined", &fixed), ("adaptive", &adaptive)] {
        t.row(&[
            &label,
            &f2(outcome.report.makespan.as_millis_f64()),
            &messages(&outcome.responses),
            &fetches(&outcome.responses),
            &f2(outcome.report.queue_delay.as_millis_f64()),
        ]);
    }
    t.row(&[
        &"adaptive vs fixed (% of makespan)",
        &f2(adaptive_vs_fixed),
        &"-",
        &"-",
        &"-",
    ]);
    t.row(&[
        &"reduction (vs back-to-back)",
        &pct_drop(b2b_makespan.as_micros(), report.makespan.as_micros()),
        &"-",
        &"-",
        &"-",
    ]);

    let mut t3 = Table::new(
        &format!(
            "E13c: self-steering pipeline on a starved uplink — every query through one origin \
             peer with a 1-deep link budget ({STREAM} queries, window {WINDOW}, depth {DEPTH})"
        ),
        &[
            "config",
            "makespan_ms",
            "adapt_backoffs",
            "adapt_rampups",
            "queue_delay_ms",
            "peak_windows_in_flight",
        ],
    );
    t3.row(&[
        &"fixed",
        &f2(fixed_overload.makespan.as_millis_f64()),
        &"-",
        &"-",
        &f2(fixed_overload.queue_delay.as_millis_f64()),
        &fixed_overload.peak_windows_in_flight,
    ]);
    t3.row(&[
        &"adaptive",
        &f2(adaptive_overload.makespan.as_millis_f64()),
        &adaptive_overload.adapt_backoffs,
        &adaptive_overload.adapt_rampups,
        &f2(adaptive_overload.queue_delay.as_millis_f64()),
        &adaptive_overload.peak_windows_in_flight,
    ]);
    t3.row(&[
        &"adaptive vs fixed (% of makespan)",
        &f2(overload_vs_fixed),
        &"-",
        &"-",
        &"-",
        &"-",
    ]);
    (t, t3)
}

// ----- Part B: batch-aware gossip fan-out -------------------------------------------

const FLEET: usize = 6;
const MAX_ROUNDS: u64 = 6;
const HOT_TERMS: [&str; 4] = ["hotalpha", "hotbeta", "hotgamma", "hotdelta"];
const FRESH_TERMS: [&str; 4] = ["freshone", "freshtwo", "freshthree", "freshfour"];

/// Rounds until a non-serving frontend holds a shard the cold batch window
/// fetched, the batch adverts queued, and the gossip bytes spent.
fn fanout_run(batch_advertise: bool) -> (u64, u64, u64) {
    let mut config = sized(32, 4, 0xE13B);
    config.cache = CacheConfig::enabled();
    config.gossip = GossipConfig::enabled(FLEET);
    config.gossip.hot_set_size = 4;
    config.gossip.max_fills_per_exchange = 8;
    // Regular rounds only: anti-entropy would eventually move the cold
    // shards in both runs and blur the round accounting.
    config.gossip.anti_entropy_interval = SimDuration::from_secs(3_600);
    config.gossip.batch_advertise = batch_advertise;
    let mut qb = engine(config);
    for (kind, terms, account_base) in [("hot", HOT_TERMS, 1_000), ("fresh", FRESH_TERMS, 1_100)] {
        for (i, term) in terms.iter().enumerate() {
            let body = format!("{term} common shared body words for the page");
            qb.publish(
                (FLEET + 1 + i) as u64,
                AccountId(account_base + i as u64),
                &WebPage::new(format!("{kind}/{i}"), kind, body, vec![]),
            )
            .expect("publish page");
        }
    }
    qb.seal();
    qb.process_publish_events().expect("index");

    // Saturate frontend 0's digest hot set with genuinely popular
    // terms: each probe is a distinct query (so the result cache never
    // short-circuits the shard-tier lookup that feeds popularity).
    for hot in HOT_TERMS {
        for j in 0..10 {
            let _ = qb.search_request(
                SearchRequest::new(format!("{hot} zz{j}")).route(RoutingPolicy::Direct(0)),
            );
        }
    }

    // One batch window of cold queries, served entirely by frontend 0.
    let window: Vec<SearchRequest> = FRESH_TERMS
        .iter()
        .map(|q| SearchRequest::new(*q).route(RoutingPolicy::Direct(0)))
        .collect();
    let responses = qb.search_batch(window).expect("batch window");
    let mut fetched_terms: Vec<String> = Vec::new();
    for r in &responses {
        for (term, prov) in r.terms.iter().zip(&r.provenance) {
            if matches!(prov, TermProvenance::DhtFetch) {
                fetched_terms.push(term.clone());
            }
        }
    }
    assert!(
        !fetched_terms.is_empty(),
        "E13b: the cold window must fetch through the DHT"
    );

    // Count regular gossip rounds until some non-serving frontend
    // holds one of the window's freshly fetched shards.
    let mut rounds_to_warm = MAX_ROUNDS;
    for round in 1..=MAX_ROUNDS {
        qb.run_gossip_round(false);
        let fleet = qb.fleet().expect("fleet");
        let warmed = (1..FLEET).any(|i| {
            fetched_terms
                .iter()
                .any(|t| fleet.frontend(i).cache().cached_shard_version(t).is_some())
        });
        if warmed {
            rounds_to_warm = round;
            break;
        }
    }
    let stats = qb.gossip_stats().expect("fleet");
    (rounds_to_warm, stats.batch_adverts, stats.total_bytes())
}

fn fanout_table() -> Table {
    let (rounds_off, adverts_off, bytes_off) = fanout_run(false);
    let (rounds_on, adverts_on, bytes_on) = fanout_run(true);
    let lead = rounds_off.saturating_sub(rounds_on);
    assert!(
        lead >= 1,
        "E13b: batch-aware gossip must warm a non-serving frontend >=1 round earlier \
         ({rounds_on} vs {rounds_off} rounds)"
    );
    assert_eq!(adverts_off, 0, "PR 4 baseline queues no adverts");
    assert!(adverts_on > 0);

    let mut t = Table::new(
        &format!(
            "E13b: batch-aware gossip fan-out — rounds until a non-serving frontend holds a shard \
             the batch window fetched ({FLEET} frontends, hot set saturated, {MAX_ROUNDS} = not \
             within the horizon)"
        ),
        &["config", "rounds_to_warm", "batch_adverts", "gossip_bytes"],
    );
    t.row(&[
        &"batch-aware off (PR 4)",
        &rounds_off,
        &adverts_off,
        &bytes_off,
    ]);
    t.row(&[&"batch-aware on", &rounds_on, &adverts_on, &bytes_on]);
    t.row(&[&"warm-round lead", &lead, &"-", &"-"]);
    t
}

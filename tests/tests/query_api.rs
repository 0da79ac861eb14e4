//! Integration tests for the staged planner/executor query API: top-k and
//! pagination against the full ranked list, batch-vs-sequential result
//! equivalence and shard-fetch dedup on shared streams, explicit routing
//! policies, and the `MaxStaleness` freshness mode serving a within-bound
//! stale shard without a DHT trip.

use qb_chain::AccountId;
use qb_common::SimDuration;
use qb_load::scenario::{corpus, publish_all, queries, sized, QueryStream};
use qb_queenbee::{
    CacheConfig, Freshness, GossipConfig, PipelineConfig, QueenBee, QueenBeeConfig, RoutingPolicy,
    SearchRequest, TermProvenance,
};

fn engine(cache: CacheConfig, seed: u64) -> QueenBee {
    let mut config = sized(32, 4, seed);
    config.cache = cache;
    QueenBee::new(config).expect("valid config")
}

fn page(name: &str, body: &str) -> qb_dweb::WebPage {
    qb_dweb::WebPage::new(name, format!("Title {name}"), body, vec![])
}

/// Top-k and pagination must be exact slices of the full ranked list:
/// stitching consecutive pages reproduces it, every page reports the same
/// total, and a page past the end is empty.
#[test]
fn top_k_and_pagination_agree_with_the_full_list() {
    let mut qb = engine(CacheConfig::default(), 0x7071);
    for i in 0..10u64 {
        qb.publish(
            1,
            AccountId(1_000 + i),
            &page(
                &format!("field/{i}"),
                &format!("meadow flowers unique{i} blossom"),
            ),
        )
        .unwrap();
    }
    qb.seal();
    qb.process_publish_events().unwrap();

    let full = qb
        .search_request(SearchRequest::new("meadow").top_k(100))
        .unwrap();
    assert_eq!(full.hits.len(), 10, "every page matches the shared term");
    assert_eq!(full.total_matches, 10);

    let mut stitched = Vec::new();
    for p in 0..4 {
        let resp = qb
            .search_request(SearchRequest::new("meadow").top_k(3).page(p))
            .unwrap();
        assert_eq!(resp.total_matches, full.total_matches);
        assert_eq!(resp.page, p);
        assert_eq!(resp.top_k, 3);
        stitched.extend(resp.hits);
    }
    assert_eq!(stitched, full.hits, "pages stitch back into the full list");
    let beyond = qb
        .search_request(SearchRequest::new("meadow").top_k(3).page(4))
        .unwrap();
    assert!(
        beyond.hits.is_empty(),
        "past the end is empty, not an error"
    );
    // The default request matches the engine's configured top_k.
    let default = qb.search_request(SearchRequest::new("meadow")).unwrap();
    assert_eq!(default.top_k, qb.config().top_k);
    assert_eq!(default.hits.len(), qb.config().top_k.min(10));
}

/// Executing the same Zipf stream in batch windows and sequentially must
/// produce byte-identical per-query result lists — with and without the
/// cache — while batching strictly reduces DHT shard fetches and total RPC
/// messages in the uncached configuration.
#[test]
fn batch_and_sequential_streams_are_byte_identical() {
    let corpus = corpus(0xBA7C, 24, 60);
    let QueryStream {
        pool,
        picks: stream,
    } = QueryStream::new(&corpus, 3, 30, 1.0, 4, 64);
    const WINDOW: usize = 16;

    for cache in [CacheConfig::default(), CacheConfig::enabled()] {
        let cached = cache.enabled;
        let mut sequential = engine(cache.clone(), 0xBA7C);
        publish_all(&mut sequential, &corpus, 0..20).expect("publish");
        let mut seq_responses = Vec::new();
        let mut seq_fetches = 0usize;
        let mut seq_messages = 0u64;
        for &q in &stream {
            let resp = sequential
                .search_request(SearchRequest::new(pool[q].as_str()))
                .unwrap();
            seq_fetches += resp.shards_fetched();
            seq_messages += resp.messages();
            seq_responses.push(resp);
        }

        let mut batched = engine(cache, 0xBA7C);
        publish_all(&mut batched, &corpus, 0..20).expect("publish");
        let mut batch_responses = Vec::new();
        let mut batch_fetches = 0usize;
        let mut batch_messages = 0u64;
        for window in stream.chunks(WINDOW) {
            let requests: Vec<SearchRequest> = window
                .iter()
                .map(|&q| SearchRequest::new(pool[q].as_str()))
                .collect();
            let batch = PipelineConfig::batch(WINDOW);
            for resp in batched.search_pipelined(requests, batch).unwrap().responses {
                batch_fetches += resp.shards_fetched();
                batch_messages += resp.messages();
                batch_responses.push(resp);
            }
        }

        assert_eq!(seq_responses.len(), batch_responses.len());
        for (seq, batch) in seq_responses.iter().zip(&batch_responses) {
            assert_eq!(seq.hits, batch.hits, "query '{}' diverged", seq.query);
            assert_eq!(seq.total_matches, batch.total_matches);
        }
        if !cached {
            assert!(
                batch_fetches < seq_fetches,
                "batching must dedupe shard fetches ({batch_fetches} vs {seq_fetches})"
            );
            assert!(
                batch_messages < seq_messages,
                "batching must cut RPC messages ({batch_messages} vs {seq_messages})"
            );
        }
    }
}

/// A window of identical queries pays for each distinct term exactly once;
/// every other query in the window reuses the shards at zero message cost.
#[test]
fn batch_dedup_counts_match_distinct_terms() {
    let corpus = corpus(0xDED0, 16, 60);
    let mut qb = engine(CacheConfig::default(), 0xDED0);
    publish_all(&mut qb, &corpus, 0..20).expect("publish");
    let query = queries(&corpus, 5, 1).remove(0);
    let distinct_terms = qb
        .search_request(SearchRequest::new(query.as_str()))
        .unwrap()
        .terms
        .len();

    const K: usize = 8;
    let responses = qb
        .search_pipelined(
            vec![SearchRequest::new(query.as_str()); K],
            PipelineConfig::batch(K),
        )
        .unwrap()
        .responses;
    let fetches: usize = responses.iter().map(|r| r.shards_fetched()).sum();
    let shared: usize = responses.iter().map(|r| r.batch_shared()).sum();
    assert_eq!(fetches, distinct_terms, "one DHT trip per distinct term");
    assert_eq!(shared, (K - 1) * distinct_terms, "the rest ride the window");
    let first = &responses[0];
    for resp in &responses[1..] {
        assert_eq!(resp.hits, first.hits, "every sharer gets the same list");
        assert_eq!(resp.messages(), 0, "sharers are charged no messages");
    }
}

/// Batch fetch sharing is scoped to the serving frontend: two frontends in
/// one window each pay their own DHT trip (moving shards between machines
/// is the gossip overlay's network-charged job, and a batch window must not
/// become a free side channel around it).
#[test]
fn batch_sharing_never_crosses_frontends() {
    let mut config = QueenBeeConfig::small();
    config.cache = CacheConfig::enabled();
    config.gossip = GossipConfig::fleet(2);
    let mut qb = QueenBee::new(config).unwrap();
    qb.publish(5, AccountId(1_000), &page("wiki/s", "scoped sharing test"))
        .unwrap();
    qb.seal();
    qb.process_publish_events().unwrap();

    let requests = vec![
        SearchRequest::new("scoped sharing").route(RoutingPolicy::Direct(0)),
        SearchRequest::new("scoped sharing").route(RoutingPolicy::Direct(1)),
    ];
    let responses = qb
        .search_pipelined(requests, PipelineConfig::batch(2))
        .unwrap()
        .responses;
    for (i, resp) in responses.iter().enumerate() {
        assert!(
            resp.shards_fetched() > 0,
            "frontend {i} must pay its own fetches"
        );
        assert_eq!(resp.batch_shared(), 0, "no free cross-frontend sharing");
        assert!(resp.messages() > 0);
    }
    assert_eq!(responses[0].hits, responses[1].hits);
}

/// Routing is explicit on the request: `Direct` addresses a frontend,
/// `HashPeer` routes by rendezvous hash over the live fleet, and both
/// reject configurations they cannot serve.
#[test]
fn routing_policies_are_explicit_and_validated() {
    let mut config = QueenBeeConfig::small();
    config.cache = CacheConfig::enabled();
    config.gossip = GossipConfig::fleet(3);
    let mut qb = QueenBee::new(config).unwrap();
    qb.publish(5, AccountId(1_000), &page("wiki/route", "routing policies"))
        .unwrap();
    qb.seal();
    qb.process_publish_events().unwrap();

    // Rendezvous routing is deterministic: warm the slot HashPeer(4) maps
    // to via Direct, and the hashed repeat is a result-cache hit.
    let slot = qb
        .route_frontend(&RoutingPolicy::HashPeer(4))
        .unwrap()
        .expect("fleet mode");
    let cold = qb
        .search_request(SearchRequest::new("routing").route(RoutingPolicy::Direct(slot)))
        .unwrap();
    assert!(cold.shards_fetched() > 0);
    let routed = qb
        .search_request(SearchRequest::new("routing").route(RoutingPolicy::HashPeer(4)))
        .unwrap();
    assert!(routed.result_cache_hit(), "hash lands on the warmed slot");
    // Any other frontend stays cold: no implicit sharing between them.
    let other_slot = (0..3).find(|s| *s != slot).unwrap();
    let other = qb
        .search_request(SearchRequest::new("routing").route(RoutingPolicy::Direct(other_slot)))
        .unwrap();
    assert!(!other.result_cache_hit());

    // Invalid routes fail the request (and the whole batch containing it).
    assert!(qb
        .search_request(SearchRequest::new("x").route(RoutingPolicy::Direct(9)))
        .is_err());
    let mut single = engine(CacheConfig::default(), 1);
    assert!(single
        .search_request(SearchRequest::new("x").route(RoutingPolicy::Direct(0)))
        .is_err());
}

/// `MaxStaleness` serves a version-superseded shard from the cache when it
/// is young enough — no DHT trip, results from the old version — while a
/// strict request refuses it, and `Fresh` bypasses even current entries.
#[test]
fn max_staleness_serves_a_within_bound_stale_shard_without_a_dht_trip() {
    let mut config = QueenBeeConfig::small();
    config.cache = CacheConfig::enabled();
    config.gossip = GossipConfig::fleet(2);
    let mut qb = QueenBee::new(config).unwrap();
    let creator = AccountId(1_000);
    qb.publish(5, creator, &page("news/today", "zebra headline coverage"))
        .unwrap();
    qb.seal();
    qb.process_publish_events().unwrap();

    // Frontend 1 warms its private cache on version 1.
    let warm = qb
        .search_request(SearchRequest::new("zebra").route(RoutingPolicy::Direct(1)))
        .unwrap();
    assert!(warm.shards_fetched() > 0);
    assert_eq!(warm.hits[0].version, 1);

    // Republish while frontend 1 is partitioned away: the writer's
    // invalidation cannot reach it, so its cache keeps the superseded
    // version-1 shard while the engine's version counter moves to 2. The
    // partition heals right after — what lingers is the missed
    // invalidation, not the outage.
    let frontend_peer = qb.fleet().unwrap().frontend_peer(1);
    qb.net.set_partition(frontend_peer, 9);
    qb.publish(5, creator, &page("news/today", "zebra exclusive update"))
        .unwrap();
    qb.seal();
    qb.process_publish_events().unwrap();
    qb.net.heal_all();
    qb.advance_time(SimDuration::from_millis(10));
    // An unrelated query re-warms the statistics record, leaving the
    // superseded "zebra" entries untouched.
    qb.search_request(SearchRequest::new("exclusive").route(RoutingPolicy::Direct(1)))
        .unwrap();

    // A bounded request serves the stale copy locally: zero messages.
    let stale = qb
        .search_request(
            SearchRequest::new("zebra")
                .route(RoutingPolicy::Direct(1))
                .freshness(Freshness::MaxStaleness(SimDuration::from_secs(60))),
        )
        .unwrap();
    assert_eq!(stale.messages(), 0, "no DHT trip under the bound");
    assert_eq!(stale.stale_served(), 1);
    assert_eq!(stale.hits[0].version, 1, "the superseded version serves");
    assert!(stale
        .provenance
        .iter()
        .any(|p| matches!(p, TermProvenance::StaleCache { .. })));

    // A bound tighter than the copy's age refuses it; the fallback fetch
    // digs up the current version instead.
    let tight = qb
        .search_request(
            SearchRequest::new("zebra")
                .route(RoutingPolicy::Direct(1))
                .freshness(Freshness::MaxStaleness(SimDuration::from_millis(1))),
        )
        .unwrap();
    assert_eq!(tight.stale_served(), 0, "out-of-bound copies never serve");
    assert!(tight.shards_fetched() > 0);
    assert_eq!(tight.hits[0].version, 2);

    // A strict request also serves version 2.
    let fresh = qb
        .search_request(SearchRequest::new("zebra").route(RoutingPolicy::Direct(1)))
        .unwrap();
    assert_eq!(fresh.hits[0].version, 2);

    // Fresh mode re-fetches even with a warm, current cache.
    let forced = qb
        .search_request(
            SearchRequest::new("zebra")
                .route(RoutingPolicy::Direct(1))
                .freshness(Freshness::Fresh),
        )
        .unwrap();
    assert!(!forced.result_cache_hit());
    assert!(forced.shards_fetched() > 0, "Fresh bypasses the warm cache");
    assert_eq!(forced.hits[0].version, 2);
}

/// The per-stage cost trace decomposes the served latency: network stages
/// carry simulated time, a result-cache hit collapses to the plan stage,
/// and ads can be suppressed per request.
#[test]
fn responses_carry_stage_traces_and_respect_the_ads_flag() {
    let mut qb = engine(CacheConfig::enabled(), 0x7ACE);
    qb.publish(1, AccountId(1_000), &page("shop/h", "buy artisanal honey"))
        .unwrap();
    qb.seal();
    qb.process_publish_events().unwrap();
    qb.register_advertiser(&qb_workload::AdSpec {
        advertiser: 5_000,
        keywords: vec![qb_index::Analyzer::stem("honey")],
        bid_per_click: 50,
        budget: 500,
    })
    .unwrap();

    let cold = qb
        .search_request(SearchRequest::new("artisanal honey"))
        .unwrap();
    assert!(cold.ad.is_some(), "matching campaign attaches by default");
    assert!(cold.trace.messages > 0);
    assert!(cold.trace.shard_fetch > SimDuration::ZERO);
    assert!(cold.trace.stats > SimDuration::ZERO);
    assert!(cold.trace.candidates_scored > 0);
    assert_eq!(
        cold.latency,
        cold.trace.shard_fetch.max(cold.trace.stats),
        "total latency is the parallel window over the network stages"
    );

    let warm = qb
        .search_request(SearchRequest::new("artisanal honey").ads(false))
        .unwrap();
    assert!(warm.result_cache_hit());
    assert!(warm.ad.is_none(), "ads(false) suppresses the campaign");
    assert_eq!(warm.trace.messages, 0);
    assert_eq!(warm.trace.plan, warm.latency, "a hit is pure plan time");
    assert_eq!(warm.hits, cold.hits);
}

/// The pipelined engine over a gossiping fleet: overlapping windows routed
/// across frontends return byte-identical hits to sequential execution,
/// never serve anything stale, and score every query the result tier did
/// not answer exactly once.
#[test]
fn pipelined_fleet_stream_is_byte_identical_and_fresh() {
    let corpus = corpus(0xF1BE, 20, 60);
    let QueryStream {
        pool,
        picks: stream,
    } = QueryStream::new(&corpus, 6, 16, 1.2, 7, 48);
    const FLEET: usize = 3;
    let fleet_engine = |seed: u64| {
        let mut config = sized(32, 4, seed);
        config.cache = CacheConfig::enabled();
        config.gossip = GossipConfig::enabled(FLEET);
        let mut qb = QueenBee::new(config).unwrap();
        publish_all(&mut qb, &corpus, 0..20).expect("publish");
        qb
    };
    let request = |i: usize, q: usize| {
        SearchRequest::new(pool[q].as_str()).route(RoutingPolicy::Direct(i % FLEET))
    };

    let mut sequential = fleet_engine(0xF1BE);
    let mut seq_hits = Vec::new();
    for (i, &q) in stream.iter().enumerate() {
        seq_hits.push(sequential.search_request(request(i, q)).unwrap().hits);
    }

    let mut pipelined = fleet_engine(0xF1BE);
    let requests: Vec<SearchRequest> = stream
        .iter()
        .enumerate()
        .map(|(i, &q)| request(i, q))
        .collect();
    let outcome = pipelined
        .search_pipelined(
            requests,
            PipelineConfig {
                window_size: 12,
                max_windows_in_flight: 3,
            },
        )
        .unwrap();
    assert_eq!(outcome.responses.len(), seq_hits.len());
    for (i, (resp, seq)) in outcome.responses.iter().zip(&seq_hits).enumerate() {
        assert_eq!(&resp.hits, seq, "query {i} diverged from sequential");
    }
    assert_eq!(pipelined.freshness.stale_results, 0, "nothing stale served");
    assert_eq!(
        sequential.freshness.stale_results, 0,
        "sequential reference is fresh too"
    );
    assert!(
        outcome.report.peak_windows_in_flight > 1,
        "windows must overlap"
    );
    let stats = pipelined.query_stats();
    let scored_queries = outcome
        .responses
        .iter()
        .filter(|r| !r.result_cache_hit())
        .count();
    assert_eq!(
        stats.score_invocations + stats.window_memo_hits,
        scored_queries as u64,
        "every query the result cache did not answer is scored exactly once, \
         or served the resident list that scoring would build"
    );
}

/// Determinism contract of the event-driven core: replaying the same
/// pipelined stream on a freshly built engine reproduces byte-identical
/// hits and the exact same scheduling report.
#[test]
fn pipelined_reruns_are_byte_identical() {
    let corpus = corpus(0xDE7E, 18, 60);
    let stream = QueryStream::new(&corpus, 11, 14, 1.2, 13, 40);
    let run = || {
        let mut qb = engine(CacheConfig::default(), 0xDE7E);
        publish_all(&mut qb, &corpus, 0..20).expect("publish");
        let requests: Vec<SearchRequest> = (0..stream.picks.len())
            .map(|i| {
                SearchRequest::new(stream.query(i)).route(RoutingPolicy::HashPeer((i % 20) as u64))
            })
            .collect();
        let config = PipelineConfig {
            window_size: 8,
            max_windows_in_flight: 3,
        };
        qb.search_pipelined(requests, config).unwrap()
    };
    let first = run();
    let second = run();
    assert_eq!(
        first.report, second.report,
        "scheduling must replay exactly"
    );
    assert_eq!(first.responses.len(), second.responses.len());
    for (i, (a, b)) in first.responses.iter().zip(&second.responses).enumerate() {
        assert_eq!(a.hits, b.hits, "query {i} hits diverged across reruns");
        assert_eq!(a.latency, b.latency, "query {i} latency diverged");
    }
    assert_eq!(first.report.queries, first.responses.len());
    assert!(first.report.windows > 1, "the stream spans several windows");
}

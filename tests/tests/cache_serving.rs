//! Integration tests for the query-serving cache (the E9 acceptance
//! criteria): a warm cache must reduce repeated-query latency and RPC
//! messages on a Zipf(1.0) stream, and a republished page must never be
//! served stale from cache — a cached result is refused once a term version
//! it used has moved, whether or not its frontend observed the publish, and
//! the TTL bounds how long any entry lives.

use qb_cache::config::ADAPTIVE_TTL_CEILING;
use qb_chain::AccountId;
use qb_common::SimDuration;
use qb_load::scenario::{corpus, publish_all, sized, QueryStream};
use qb_queenbee::{CacheConfig, Freshness, GossipConfig, QueenBee, RoutingPolicy, SearchRequest};

fn engine(cache: CacheConfig, seed: u64) -> QueenBee {
    let mut config = sized(32, 4, seed);
    config.cache = cache;
    QueenBee::new(config).expect("valid config")
}

/// Replay the same Zipf(1.0) stream against two engines differing only in
/// the cache and compare total latency / messages / shard fetches.
#[test]
fn warm_cache_reduces_latency_and_rpc_on_zipf_stream() {
    let corpus = corpus(0xCAFE, 30, 60);
    let QueryStream {
        pool,
        picks: stream,
    } = QueryStream::new(&corpus, 1, 40, 1.0, 2, 200);

    let run = |cache: CacheConfig| -> (u64, u64, u64) {
        let mut qb = engine(cache, 0xCAFE);
        publish_all(&mut qb, &corpus, 0..20).expect("publish");
        let (mut latency_us, mut messages, mut fetches) = (0u64, 0u64, 0u64);
        for (i, &q) in stream.iter().enumerate() {
            let out = qb
                .search_request(
                    SearchRequest::new(&pool[q]).route(RoutingPolicy::HashPeer((i % 28) as u64)),
                )
                .expect("search");
            latency_us += out.latency.as_micros();
            messages += out.messages();
            fetches += out.shards_fetched() as u64;
        }
        (latency_us, messages, fetches)
    };

    let (off_latency, off_messages, off_fetches) = run(CacheConfig::default());
    let (on_latency, on_messages, on_fetches) = run(CacheConfig::enabled());

    assert!(
        on_latency < off_latency / 2,
        "warm cache must at least halve total latency: {on_latency}us vs {off_latency}us"
    );
    assert!(
        on_messages < off_messages / 2,
        "warm cache must at least halve RPC messages: {on_messages} vs {off_messages}"
    );
    assert!(
        on_fetches < off_fetches,
        "warm cache must reduce shard fetches: {on_fetches} vs {off_fetches}"
    );
}

/// A single repeated query: the warm run must issue strictly fewer RPC
/// messages than its cold run (end-to-end shape of the per-query win).
#[test]
fn warm_repeated_query_issues_fewer_rpc_messages_than_cold() {
    let corpus = corpus(0xBEE, 10, 60);
    let mut qb = engine(CacheConfig::enabled(), 0xBEE);
    publish_all(&mut qb, &corpus, 0..20).expect("publish");
    let query = corpus.pages[0]
        .body
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();
    let cold = qb
        .search_request(SearchRequest::new(&query).route(RoutingPolicy::HashPeer(5)))
        .expect("cold search");
    let warm = qb
        .search_request(SearchRequest::new(&query).route(RoutingPolicy::HashPeer(5)))
        .expect("warm search");
    assert!(cold.messages() > 0);
    assert_eq!(warm.messages(), 0, "warm repeat must be RPC-free");
    assert!(warm.messages() < cold.messages());
    assert!(warm.latency < cold.latency);
    assert_eq!(warm.hits, cold.hits, "cache must not change results");
}

/// Republish-then-query: the cached result for the old version must be
/// refused by the very next query, which sees the new version; the
/// freshness probe records zero stale results.
#[test]
fn republished_page_is_never_served_stale_from_cache() {
    let mut qb = engine(CacheConfig::enabled(), 0xF00D);
    let creator = AccountId(1_000);
    let v1 = qb_dweb::WebPage::new(
        "news/hot",
        "Hot news",
        "glowworms invade the meadow",
        vec![],
    );
    qb.publish(1, creator, &v1).expect("publish v1");
    qb.seal();
    qb.process_publish_events().expect("index v1");

    // Warm the cache on version 1 (second query is a result-cache hit).
    assert_eq!(
        qb.search_request(SearchRequest::new("glowworms").route(RoutingPolicy::HashPeer(3)))
            .unwrap()
            .hits[0]
            .version,
        1
    );
    assert!(qb
        .search_request(SearchRequest::new("glowworms").route(RoutingPolicy::HashPeer(3)))
        .unwrap()
        .result_cache_hit());

    // Republish with new content that keeps the hot term.
    let v2 = qb_dweb::WebPage::new("news/hot", "Hot news", "glowworms retreat at dawn", vec![]);
    qb.publish(1, creator, &v2).expect("publish v2");
    qb.seal();
    qb.process_publish_events().expect("index v2");

    // The old entry must not serve: same query now returns version 2.
    let after = qb
        .search_request(SearchRequest::new("glowworms").route(RoutingPolicy::HashPeer(3)))
        .expect("search after republish");
    assert!(
        !after.result_cache_hit(),
        "stale cached result must have been invalidated"
    );
    assert_eq!(after.hits[0].version, 2);
    assert_eq!(
        qb.freshness.stale_results, 0,
        "no search ever returned a stale version"
    );
    let metrics = qb.cache_metrics().expect("cache on");
    assert!(
        metrics.total_invalidations() > 0,
        "invalidation path must have fired"
    );
}

/// A fleet frontend partitioned from the writer misses the publish, so
/// nothing purges its cache: the result it warmed on version 1 is still
/// resident after the heal, and the version check alone must refuse it —
/// counted once, never served.
#[test]
fn a_frontend_that_missed_the_publish_refuses_its_stale_result() {
    let mut config = sized(32, 4, 0xF1EE7);
    config.cache = CacheConfig::enabled();
    config.gossip = GossipConfig::fleet(3);
    let mut qb = QueenBee::new(config).expect("valid config");
    let creator = AccountId(1_000);
    let publish = |qb: &mut QueenBee, body: &str| {
        qb.publish(
            1,
            creator,
            &qb_dweb::WebPage::new("news/hot", "Hot news", body, vec![]),
        )
        .expect("publish");
        qb.seal();
        qb.process_publish_events().expect("index");
    };
    let repeat = |qb: &mut QueenBee| {
        qb.search_request(
            SearchRequest::new("glowworms")
                .route(RoutingPolicy::Direct(2))
                .freshness(Freshness::CacheOk),
        )
        .expect("search")
    };
    let result_tier = |qb: &QueenBee| {
        let cache = qb.fleet().expect("fleet mode").frontend(2).cache();
        (cache.tier_sizes().0, cache.metrics().result)
    };
    publish(&mut qb, "glowworms invade the meadow");
    assert_eq!(repeat(&mut qb).hits[0].version, 1);
    assert!(repeat(&mut qb).result_cache_hit(), "warm on version 1");

    let cut_peer = qb.fleet().unwrap().frontend_peer(2);
    qb.net.set_partition(cut_peer, 9);
    publish(&mut qb, "glowworms retreat at dawn");
    qb.net.heal_all();
    let (resident, before) = result_tier(&qb);
    assert_eq!(
        resident, 1,
        "nothing purged the partitioned frontend's result"
    );
    assert_eq!(before.invalidations, 0);

    let after = repeat(&mut qb);
    assert!(!after.result_cache_hit(), "the stale result must not serve");
    assert_eq!(after.hits[0].version, 2);
    let (_, refused) = result_tier(&qb);
    assert_eq!(
        refused.invalidations, 1,
        "refused once, by its version check"
    );
    assert_eq!(qb.freshness.stale_results, 0, "nothing stale was served");
}

/// The TTL backstop: even when a cached entry stays formally valid (no
/// republish touches it), it must stop serving once its TTL lapses in
/// simulated time — no entry outlives its configured bound. Crossing the
/// adaptive ceiling (what a never-republished term's shard lives) expires
/// the result and the shard entry alike.
#[test]
fn cache_entries_expire_at_their_ttl_bound() {
    let cache = CacheConfig::enabled();
    let ttl = ADAPTIVE_TTL_CEILING;
    assert!(cache.result_ttl <= ttl);
    let mut qb = engine(cache, 0x71E);
    let page = qb_dweb::WebPage::new("wiki/ttl", "TTL", "ephemeral knowledge fades", vec![]);
    qb.publish(1, AccountId(1_000), &page).expect("publish");
    qb.seal();
    qb.process_publish_events().expect("index");

    let _ = qb
        .search_request(SearchRequest::new("ephemeral").route(RoutingPolicy::HashPeer(3)))
        .expect("fill");
    assert!(
        qb.search_request(SearchRequest::new("ephemeral").route(RoutingPolicy::HashPeer(3)))
            .unwrap()
            .result_cache_hit(),
        "warm before TTL"
    );

    // Cross the TTL boundary in simulated time: the entry must be gone and
    // the query must hit the DHT again.
    qb.advance_time(ttl + SimDuration::from_secs(1));
    let expired = qb
        .search_request(SearchRequest::new("ephemeral").route(RoutingPolicy::HashPeer(3)))
        .expect("search after TTL");
    assert!(
        !expired.result_cache_hit(),
        "entry must not outlive its TTL"
    );
    assert!(expired.messages() > 0, "expired entry forces a real fetch");
    let metrics = qb.cache_metrics().unwrap();
    assert!(
        metrics.result.expirations > 0,
        "expiration counter must record the TTL eviction"
    );
    assert!(
        metrics.shard.expirations > 0,
        "the archival shard must not outlive the adaptive ceiling"
    );
}

/// Cache-off engines keep the exact seed behavior: no hidden warm-up.
#[test]
fn cache_off_engine_shows_no_warmup_effect() {
    let corpus = corpus(0xD15, 8, 60);
    let mut qb = engine(CacheConfig::default(), 0xD15);
    publish_all(&mut qb, &corpus, 0..20).expect("publish");
    let query = corpus.pages[0]
        .body
        .split_whitespace()
        .next()
        .unwrap()
        .to_string();
    let a = qb
        .search_request(SearchRequest::new(&query).route(RoutingPolicy::HashPeer(5)))
        .expect("first");
    let b = qb
        .search_request(SearchRequest::new(&query).route(RoutingPolicy::HashPeer(5)))
        .expect("second");
    assert!(qb.cache_metrics().is_none());
    assert_eq!(a.messages(), b.messages());
    assert!(!a.result_cache_hit() && !b.result_cache_hit());
}

/// The result tier keys an entry by its *sorted* terms, and float addition
/// of three or more terms is not associative — so the kernel sums BM25 in
/// sorted-term order too, and a permutation of a cached ≥ 3-term query is
/// served exactly the score bits the cache-off engine computes for it.
#[test]
fn a_permuted_three_term_query_scores_as_the_cache_off_engine_does() {
    let corpus = corpus(0xD1CE, 30, 60);
    // The three words most pages contain: every page pair shares some.
    let mut doc_freq: std::collections::BTreeMap<&str, usize> = Default::default();
    for page in &corpus.pages {
        let words: std::collections::BTreeSet<&str> = page.body.split_whitespace().collect();
        for word in words {
            *doc_freq.entry(word).or_default() += 1;
        }
    }
    let mut head: Vec<(&str, usize)> = doc_freq.into_iter().collect();
    head.sort_by_key(|&(word, freq)| (std::cmp::Reverse(freq), word));
    let (a, b, c) = (head[0].0, head[1].0, head[2].0);
    let stored = format!("{a} {b} {c}");
    let permuted = format!("{c} {a} {b}");

    let serve = |cache: CacheConfig, queries: &[&str]| {
        let mut qb = engine(cache, 0xD1CE);
        publish_all(&mut qb, &corpus, 0..20).expect("publish");
        let mut last = None;
        for query in queries {
            let request = SearchRequest::new(*query).route(RoutingPolicy::HashPeer(5));
            last = Some(qb.search_request(request).expect("search"));
        }
        last.expect("at least one query")
    };
    let on = serve(CacheConfig::enabled(), &[&stored, &permuted]);
    let off = serve(CacheConfig::default(), &[&permuted]);
    assert!(on.result_cache_hit(), "a reordered query hits the entry");
    assert!(on.total_matches > 1, "the triple must rank something");
    let bits = |response: &qb_queenbee::SearchResponse| -> Vec<(u64, u64)> {
        let hits = response.hits.iter();
        hits.map(|d| (d.doc_id, d.score.to_bits())).collect()
    };
    assert_eq!(bits(&on), bits(&off));
}

//! Integration tests for the qb-gossip overlay (the E10 acceptance
//! criteria): gossip must converge the fleet's hot sets and save DHT shard
//! fetches, a republish racing a gossip round must never let a stale shard
//! serve, anti-entropy must reconcile a frontend across a `qb-simnet`
//! partition + heal, warm-start snapshots must pre-fill a restarted
//! frontend, and adaptive TTLs must follow observed republish rates.

use qb_chain::AccountId;
use qb_common::SimDuration;
use qb_dweb::WebPage;
use qb_index::Analyzer;
use qb_load::scenario::{corpus, publish_all, queries, sized, QueryStream};
use qb_queenbee::{
    CacheConfig, GossipConfig, QueenBee, QueenBeeConfig, RoutingPolicy, SearchRequest,
};

fn fleet_engine(frontends: usize, gossip_on: bool, seed: u64) -> QueenBee {
    let mut config = sized(32, 4, seed);
    config.cache = CacheConfig::enabled();
    config.gossip = if gossip_on {
        GossipConfig::enabled(frontends)
    } else {
        GossipConfig::fleet(frontends)
    };
    QueenBee::new(config).expect("valid config")
}

fn page(name: &str, body: &str) -> WebPage {
    WebPage::new(name, format!("Title {name}"), body, vec![])
}

/// One frontend's traffic converges the whole fleet: after gossip rounds,
/// every other frontend answers the hot queries without a single DHT shard
/// fetch, with identical results.
#[test]
fn gossip_converges_hot_sets_across_the_fleet() {
    let corpus = corpus(0x60A, 20, 60);
    let mut qb = fleet_engine(4, true, 0x60A);
    publish_all(&mut qb, &corpus, 10..28).expect("publish");
    let hot = queries(&corpus, 3, 6);

    // Only frontend 0 sees traffic; rounds fire as time advances.
    let mut reference = Vec::new();
    for q in &hot {
        reference.push(
            qb.search_request(SearchRequest::new(q).route(RoutingPolicy::Direct(0)))
                .expect("search"),
        );
        qb.advance_time(SimDuration::from_millis(250));
    }
    qb.run_gossip_round(false);

    for frontend in 1..4 {
        for (q, reference) in hot.iter().zip(&reference) {
            let out = qb
                .search_request(SearchRequest::new(q).route(RoutingPolicy::Direct(frontend)))
                .expect("warmed search");
            assert_eq!(
                out.shards_fetched(),
                0,
                "frontend {frontend} had to fetch for '{q}' despite gossip"
            );
            assert_eq!(out.hits, reference.hits, "converged answers match");
        }
    }
    let stats = qb.gossip_stats().expect("gossip enabled");
    assert!(stats.shards_accepted > 0);
    assert_eq!(stats.stale_rejected, 0);
    assert_eq!(qb.freshness.stale_results, 0);
}

/// The E10 shape at test scale: a shared Zipf stream over the fleet, gossip
/// on vs off, >= 30% fewer aggregate DHT shard fetches and zero staleness.
#[test]
fn gossip_saves_dht_fetches_on_a_shared_zipf_stream() {
    let corpus = corpus(0x60B, 24, 60);
    let QueryStream {
        pool,
        picks: stream,
    } = QueryStream::new(&corpus, 1, 30, 1.0, 2, 160);

    let run = |gossip_on: bool| -> (u64, u64) {
        let mut qb = fleet_engine(4, gossip_on, 0x60B);
        publish_all(&mut qb, &corpus, 10..28).expect("publish");
        let mut fetches = 0u64;
        for (i, &q) in stream.iter().enumerate() {
            qb.advance_time(SimDuration::from_millis(60));
            let out = qb
                .search_request(SearchRequest::new(&pool[q]).route(RoutingPolicy::Direct(i % 4)))
                .expect("search");
            fetches += out.shards_fetched() as u64;
        }
        (fetches, qb.freshness.stale_results)
    };

    let (off_fetches, off_stale) = run(false);
    let (on_fetches, on_stale) = run(true);
    assert_eq!(off_stale, 0);
    assert_eq!(on_stale, 0, "gossip must never introduce staleness");
    assert!(
        (on_fetches as f64) <= 0.7 * off_fetches as f64,
        "gossip must save >=30% of DHT shard fetches ({on_fetches} vs {off_fetches})"
    );
}

/// A republish races a gossip round across a partition: the partitioned
/// frontend keeps (and later advertises) the stale shard, but the version
/// guard rejects it everywhere and nothing stale is ever served.
#[test]
fn republish_racing_a_gossip_round_never_serves_stale() {
    let mut qb = fleet_engine(3, true, 0x60C);
    let creator = AccountId(1_000);
    qb.publish(
        10,
        creator,
        &page("news/today", "glowworm headline coverage"),
    )
    .expect("publish");
    qb.seal();
    qb.process_publish_events().expect("index");
    let term = Analyzer::stem("glowworm");

    // Warm every frontend on v1, then cut frontend 2 off.
    for f in 0..3 {
        let out = qb
            .search_request(SearchRequest::new("glowworm").route(RoutingPolicy::Direct(f)))
            .expect("warm");
        assert_eq!(out.hits[0].version, 1);
    }
    let cut_peer = qb.fleet().unwrap().frontend_peer(2);
    qb.net.set_partition(cut_peer, 9);

    // Republish while frontend 2 cannot observe it.
    qb.publish(
        10,
        creator,
        &page("news/today", "glowworm exclusive update"),
    )
    .expect("republish");
    qb.seal();
    qb.process_publish_events().expect("reindex");

    // Frontends 0/1 observed the publish-path invalidation; frontend 2 still
    // holds the stale v1 shard.
    let fleet = qb.fleet().unwrap();
    assert_eq!(fleet.frontend(0).cache().cached_shard_version(&term), None);
    assert_eq!(
        fleet.frontend(2).cache().cached_shard_version(&term),
        Some(1),
        "partitioned frontend keeps the stale copy"
    );
    assert_eq!(fleet.frontend(1).known.get(&term), 2);

    // The partition heals and a gossip round races the republish: the stale
    // v1 held by frontend 2 is the only circulating copy of the term, and
    // the version guard must reject it at every receiver.
    qb.net.heal_all();
    qb.run_gossip_round(false);
    let stats = qb.gossip_stats().unwrap();
    assert!(
        stats.stale_rejected > 0,
        "the version guard should have rejected the stale v1 fill"
    );
    let fleet = qb.fleet().unwrap();
    for f in 0..2 {
        assert_eq!(
            fleet.frontend(f).cache().cached_shard_version(&term),
            None,
            "frontend {f} must not have accepted the stale fill"
        );
    }

    // Every frontend now serves v2 (re-fetching through the DHT where
    // needed), and nothing stale was ever served.
    for f in 0..3 {
        let out = qb
            .search_request(SearchRequest::new("glowworm").route(RoutingPolicy::Direct(f)))
            .expect("post-heal search");
        assert_eq!(out.hits[0].version, 2, "frontend {f} must serve v2");
    }
    assert_eq!(qb.freshness.stale_results, 0, "no stale result ever served");
}

/// Anti-entropy after a partition heal: a frontend that missed all gossip
/// while partitioned reconciles through a full-digest round and then serves
/// the fleet's working set without DHT fetches.
#[test]
fn anti_entropy_recovers_a_partitioned_frontend() {
    let corpus = corpus(0x60D, 16, 60);
    let mut qb = fleet_engine(3, true, 0x60D);
    publish_all(&mut qb, &corpus, 10..28).expect("publish");
    let hot = queries(&corpus, 5, 5);

    // Frontend 2 is partitioned away before any traffic flows.
    let cut_peer = qb.fleet().unwrap().frontend_peer(2);
    qb.net.set_partition(cut_peer, 7);
    for q in &hot {
        qb.search_request(SearchRequest::new(q).route(RoutingPolicy::Direct(0)))
            .expect("search");
        qb.advance_time(SimDuration::from_millis(250));
    }
    let failed_during_partition = qb.gossip_stats().unwrap().failed_exchanges;
    assert!(
        failed_during_partition > 0,
        "exchanges with the partitioned frontend must fail"
    );

    // Heal and let an anti-entropy round reconcile the fleet.
    qb.net.heal_all();
    qb.run_gossip_round(true);
    assert!(qb.gossip_stats().unwrap().anti_entropy_rounds >= 1);
    for q in &hot {
        let out = qb
            .search_request(SearchRequest::new(q).route(RoutingPolicy::Direct(2)))
            .expect("reconciled search");
        assert_eq!(
            out.shards_fetched(),
            0,
            "anti-entropy should have warmed frontend 2 for '{q}'"
        );
    }
    assert_eq!(qb.freshness.stale_results, 0);
}

/// Warm-start persistence: a restarted engine imports the previous
/// session's hot set and its first queries skip the cold-start penalty.
#[test]
fn warm_start_snapshot_prefills_the_next_session() {
    let corpus = corpus(0x60E, 12, 60);
    let build = |seed| {
        let mut qb = fleet_engine(2, true, seed);
        publish_all(&mut qb, &corpus, 10..28).expect("publish");
        qb
    };
    let hot = queries(&corpus, 8, 4);

    let mut first = build(0x60E);
    let mut cold_fetches = 0usize;
    for q in &hot {
        cold_fetches += first
            .search_request(SearchRequest::new(q).route(RoutingPolicy::Direct(0)))
            .expect("search")
            .shards_fetched();
    }
    assert!(cold_fetches > 0);
    let snapshot = first.export_hot_set(0, 64).expect("fleet frontend 0");

    // "Restart": an identical deployment, pre-filled from the snapshot.
    let mut restarted = build(0x60E);
    let admitted = restarted.import_hot_set(0, &snapshot).expect("import");
    assert!(admitted > 0);
    for q in &hot {
        let out = restarted
            .search_request(SearchRequest::new(q).route(RoutingPolicy::Direct(0)))
            .expect("warm search");
        assert_eq!(out.shards_fetched(), 0, "'{q}' should be pre-filled");
    }
    assert_eq!(restarted.freshness.stale_results, 0);
}

/// Adaptive TTLs end to end: an archival term is cached for the adaptive
/// ceiling, while a hot, frequently-republished term expires on its adapted
/// (shorter) schedule.
#[test]
fn adaptive_ttls_follow_republish_rates_end_to_end() {
    let mut config = QueenBeeConfig::small();
    config.cache = CacheConfig::enabled();
    let mut qb = QueenBee::new(config).expect("valid config");
    let creator = AccountId(1_000);
    qb.publish(
        1,
        creator,
        &page("wiki/archive", "permafrost archival content"),
    )
    .expect("publish");
    qb.publish(1, creator, &page("news/live", "volcanic breaking ticker"))
        .expect("publish");
    qb.seal();
    qb.process_publish_events().expect("index");
    // The live page republishes every 60s; the archive never changes.
    for i in 0..4 {
        qb.advance_time(SimDuration::from_secs(60));
        qb.publish(
            1,
            creator,
            &page("news/live", &format!("volcanic ticker {i}")),
        )
        .expect("republish");
        qb.seal();
        qb.process_publish_events().expect("reindex");
    }
    // Warm both terms, then wait far past the live terms' adapted 30s TTL
    // (but inside the 1800s adaptive ceiling).
    qb.search_request(SearchRequest::new("permafrost volcanic").route(RoutingPolicy::HashPeer(3)))
        .expect("warm");
    qb.advance_time(SimDuration::from_secs(700));
    // Distinct queries sharing the terms probe the shard tier directly
    // (the result tier expired long ago).
    let archive = qb
        .search_request(SearchRequest::new("permafrost archival").route(RoutingPolicy::HashPeer(3)))
        .expect("archive");
    let live = qb
        .search_request(SearchRequest::new("volcanic ticker").route(RoutingPolicy::HashPeer(3)))
        .expect("live");
    assert_eq!(
        archive.shard_cache_hits(),
        1,
        "the never-republished term is still cached"
    );
    assert_eq!(
        live.shard_cache_hits(),
        0,
        "the hot terms expired on their adapted schedule"
    );
}

/// The writer path's shard-tier reuse must not regress index correctness:
/// interleaved republishes and fresh publishes keep serving exact, fresh
/// results while the indexing path hits its cache.
#[test]
fn writer_path_cache_keeps_index_correct_under_republish_storm() {
    let corpus = corpus(0x60F, 10, 60);
    let mut qb = fleet_engine(2, true, 0x60F);
    publish_all(&mut qb, &corpus, 10..28).expect("publish");
    let creator = AccountId(corpus.creators[0]);
    let victim = corpus.pages[0].name.clone();
    for round in 0..5 {
        qb.advance_time(SimDuration::from_secs(30));
        qb.publish(
            11,
            creator,
            &page(&victim, &format!("churned body revision {round} honeypot")),
        )
        .expect("republish");
        qb.seal();
        qb.process_publish_events().expect("reindex");
    }
    let (reads, hits) = qb.writer_cache_stats();
    assert!(reads > 0);
    assert!(hits > 0, "repeated merges must reuse the writer cache");
    let out = qb
        .search_request(SearchRequest::new("honeypot").route(RoutingPolicy::Direct(0)))
        .expect("search");
    assert_eq!(out.hits.len(), 1);
    assert_eq!(out.hits[0].version, 6, "five republishes after v1");
    assert_eq!(qb.freshness.stale_results, 0);
}

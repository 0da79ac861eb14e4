//! Integration tests for the churn-aware, zone-aware gossip overlay (the
//! E12 acceptance surface): a joining frontend must warm itself from the
//! fleet by bootstrap anti-entropy (not the DHT), crashes must be detected
//! and evicted from the survivors' sample sets without ever serving stale
//! results, rejoins must be revived fleet-wide, zoned configs must keep
//! converging, and the compressed digests must cut steady-state digest
//! bytes against the full-digest protocol on the same workload.

use qb_chain::AccountId;
use qb_common::SimDuration;
use qb_dweb::WebPage;
use qb_load::scenario::{corpus, publish_all, sized, zipf_picks, QueryStream};
use qb_queenbee::{CacheConfig, DigestMode, GossipConfig, QueenBee, RoutingPolicy, SearchRequest};

fn churn_engine(frontends: usize, configure: impl FnOnce(&mut GossipConfig)) -> QueenBee {
    let mut config = sized(40, 4, 0xC0FE);
    config.cache = CacheConfig::enabled();
    config.gossip = GossipConfig::enabled(frontends);
    configure(&mut config.gossip);
    QueenBee::new(config).expect("valid config")
}

fn page(name: &str, body: &str) -> WebPage {
    WebPage::new(name, format!("Title {name}"), body, vec![])
}

/// Serve a Zipf stream round-robin over the active fleet, advancing time so
/// gossip rounds fire. Returns `(dht_shard_fetches, full_cache_hits,
/// served)`.
fn drive(qb: &mut QueenBee, pool: &[String], stream: &[usize]) -> (u64, u64, u64) {
    let mut fetches = 0u64;
    let mut hits = 0u64;
    let mut served = 0u64;
    for (i, &q) in stream.iter().enumerate() {
        qb.advance_time(SimDuration::from_millis(50));
        let actives: Vec<usize> = (0..qb.num_frontends())
            .filter(|&f| qb.fleet().expect("fleet").is_active(f))
            .collect();
        let frontend = actives[i % actives.len()];
        let out = qb
            .search_request(SearchRequest::new(&pool[q]).route(RoutingPolicy::Direct(frontend)))
            .expect("query");
        fetches += out.shards_fetched() as u64;
        if out.shards_fetched() == 0 {
            hits += 1;
        }
        served += 1;
    }
    (fetches, hits, served)
}

/// The E12 join criterion at test scale: after the fleet reaches steady
/// state, a brand-new frontend joins, bootstraps by anti-entropy and — in
/// at most 3 gossip rounds — serves hot queries from cache without any
/// direct DHT warming.
#[test]
fn a_joined_frontend_warms_from_the_fleet_within_three_rounds() {
    let corpus = corpus(0x12A, 16, 60);
    let mut qb = churn_engine(4, |_| {});
    publish_all(&mut qb, &corpus, 20..34).expect("publish");
    let QueryStream { pool, picks } = QueryStream::new(&corpus, 0x12A, 24, 1.0, 0x12AF, 120);
    drive(&mut qb, &pool, &picks);

    let joined = qb.fleet_join().expect("join");
    for _ in 0..3 {
        qb.run_gossip_round(false);
    }
    // Probe with the Zipf head: the joiner must already hold those shards.
    let probes = zipf_picks(pool.len(), 1.0, 0x12AB, 20);
    let mut hits = 0;
    for &q in &probes {
        let out = qb
            .search_request(SearchRequest::new(&pool[q]).route(RoutingPolicy::Direct(joined)))
            .expect("probe");
        if out.shards_fetched() == 0 {
            hits += 1;
        }
    }
    assert!(
        hits as f64 >= 0.8 * probes.len() as f64,
        "joined frontend should serve >=80% of hot probes from cache, got {hits}/{}",
        probes.len()
    );
    assert_eq!(qb.freshness.stale_results, 0);
}

/// Crash two frontends mid-stream: the survivors keep serving (hashed
/// routing walks around the dead slots), detect the silence, evict the
/// members from their sample sets, and a republish during the outage never
/// leaks a stale result — not even after the crashed frontend rejoins.
#[test]
fn crashes_are_evicted_and_rejoins_never_serve_stale() {
    let corpus = corpus(0x12B, 14, 60);
    let mut qb = churn_engine(4, |_| {});
    publish_all(&mut qb, &corpus, 20..34).expect("publish");
    let QueryStream { pool, picks } = QueryStream::new(&corpus, 0x12B, 20, 1.0, 0x12BF, 60);
    drive(&mut qb, &pool, &picks);

    qb.fleet_leave(1, false).expect("crash 1");
    qb.fleet_leave(3, false).expect("crash 3");
    // A republish the crashed frontends cannot observe.
    let victim = &corpus.pages[0];
    let updated = page(&victim.name, "completely fresh replacement body text");
    qb.publish(21, AccountId(corpus.creators[0]), &updated)
        .expect("republish");
    qb.seal();
    qb.process_publish_events().expect("reindex");

    // Survivors keep serving and evict the dead members.
    let (_, _, served) = drive(&mut qb, &pool, &zipf_picks(pool.len(), 1.0, 0x12BE, 40));
    assert_eq!(served, 40);
    let stats = qb.gossip_stats().expect("fleet");
    assert_eq!(stats.crashes, 2);
    assert!(stats.evictions > 0, "silent members must be evicted");
    let fleet = qb.fleet().expect("fleet");
    let dead_peer = fleet.frontend_peer(1);
    let survivor = fleet.frontend(0).view().get(dead_peer);
    assert!(
        survivor.is_none_or(|m| !m.alive),
        "survivor 0 still believes the crashed frontend is alive"
    );

    // The rejoined frontend bootstraps fresh state; the version guard and
    // read-time checks keep the missed republish invisible.
    qb.fleet_rejoin(1).expect("rejoin");
    let out = qb
        .search_request(
            SearchRequest::new(format!("{} replacement", "fresh")).route(RoutingPolicy::Direct(1)),
        )
        .or_else(|_| {
            qb.search_request(SearchRequest::new(&pool[0]).route(RoutingPolicy::Direct(1)))
        })
        .expect("rejoined frontend serves");
    drop(out);
    drive(&mut qb, &pool, &zipf_picks(pool.len(), 1.0, 0x12BD, 20));
    assert_eq!(
        qb.freshness.stale_results, 0,
        "stale result served after churn"
    );
}

/// Graceful leave: notified partners drop the member immediately, hashed
/// routing redistributes its load, and the fleet keeps converging.
#[test]
fn graceful_leave_redistributes_load() {
    let corpus = corpus(0x12C, 12, 60);
    let mut qb = churn_engine(3, |_| {});
    publish_all(&mut qb, &corpus, 20..34).expect("publish");
    let QueryStream { pool, picks } = QueryStream::new(&corpus, 0x12C, 16, 1.0, 0x12CF, 30);
    drive(&mut qb, &pool, &picks);

    qb.fleet_leave(2, true).expect("leave");
    assert!(
        qb.search_request(SearchRequest::new(&pool[0]).route(RoutingPolicy::Direct(2)))
            .is_err(),
        "direct routing fails"
    );
    let (_, _, served) = drive(&mut qb, &pool, &zipf_picks(pool.len(), 1.0, 0x12CE, 20));
    assert_eq!(served, 20, "hashed routing walks around the departed slot");
    let stats = qb.gossip_stats().expect("fleet");
    assert_eq!(stats.leaves, 1);
    assert_eq!(qb.freshness.stale_results, 0);
}

/// Zone-aware sampling under a zoned latency model still converges the
/// fleet: every frontend ends up serving the Zipf head from cache.
#[test]
fn zoned_fleet_converges_with_biased_sampling() {
    let corpus = corpus(0x12D, 14, 60);
    let mut config = sized(40, 4, 0x12D);
    config.net = qb_simnet::NetConfig::zoned(2, 2_000, 40_000);
    config.cache = CacheConfig::enabled();
    config.gossip = GossipConfig::enabled_zoned(4, 2);
    let mut qb = QueenBee::new(config).expect("valid config");
    publish_all(&mut qb, &corpus, 20..34).expect("publish");
    let QueryStream { pool, picks } = QueryStream::new(&corpus, 0x12D, 16, 1.0, 0x12DF, 80);
    drive(&mut qb, &pool, &picks);
    // After convergence every frontend answers the hottest query from cache.
    for f in 0..4 {
        let out = qb
            .search_request(SearchRequest::new(&pool[0]).route(RoutingPolicy::Direct(f)))
            .expect("hot query");
        assert_eq!(
            out.shards_fetched(),
            0,
            "frontend {f} should hold the Zipf head after zoned gossip"
        );
    }
    assert_eq!(qb.freshness.stale_results, 0);
}

/// Delta digests must cut steady-state digest traffic on the exact same
/// workload the full-digest protocol runs, with identical fill outcomes
/// (hit rates) and zero staleness — the E12 compression criterion at test
/// scale.
#[test]
fn delta_digests_cut_steady_state_bytes_without_changing_outcomes() {
    let corpus = corpus(0x12E, 14, 60);
    let run = |mode: DigestMode| {
        let mut qb = churn_engine(4, |g| {
            g.digest_mode = mode;
            g.anti_entropy_interval = SimDuration::from_secs(30);
        });
        publish_all(&mut qb, &corpus, 20..34).expect("publish");
        // Converge first, then measure a steady window.
        let QueryStream { pool, picks } = QueryStream::new(&corpus, 0x12E, 16, 1.0, 0x12EF, 60);
        drive(&mut qb, &pool, &picks);
        let before = qb.gossip_stats().expect("fleet").digest_bytes;
        let (_, hits, served) = drive(&mut qb, &pool, &zipf_picks(pool.len(), 1.0, 0x12EE, 40));
        let after = qb.gossip_stats().expect("fleet");
        assert_eq!(after.stale_rejected + qb.freshness.stale_results, 0);
        (after.digest_bytes - before, hits as f64 / served as f64)
    };
    let (full_bytes, full_hit_rate) = run(DigestMode::Full);
    let (delta_bytes, delta_hit_rate) = run(DigestMode::Delta);
    assert!(
        full_bytes >= 3 * delta_bytes.max(1),
        "steady-state delta digests should be several times cheaper \
         ({delta_bytes} vs {full_bytes})"
    );
    assert!(
        (full_hit_rate - delta_hit_rate).abs() < 0.1,
        "compression must not change serving outcomes \
         ({full_hit_rate:.2} vs {delta_hit_rate:.2})"
    );
}

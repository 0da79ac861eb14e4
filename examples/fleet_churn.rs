//! Fleet churn walkthrough: a zoned frontend fleet under crashes, restarts
//! and joins.
//!
//! Demonstrates the churn-aware gossip overlay end to end:
//! 1. a 6-frontend fleet spread over 2 latency zones warms up on a query
//!    stream (delta digests + holdings filters keep the gossip cheap),
//! 2. a frontend crashes; the survivors detect the silence via heartbeats
//!    and evict it from their sample sets while hashed routing walks
//!    around the dead slot,
//! 3. the crashed frontend restarts and a brand-new frontend joins — both
//!    warm their caches from a live neighbour by bootstrap anti-entropy,
//!    never from the DHT — and serve hot queries cache-hot immediately,
//! 4. a republish raced by all of this never serves a stale result.
//!
//! Run with: `cargo run -p qb-examples --release --bin fleet_churn`

use qb_chain::AccountId;
use qb_common::SimDuration;
use qb_dweb::WebPage;
use qb_queenbee::{
    CacheConfig, GossipConfig, QueenBee, QueenBeeConfig, RoutingPolicy, SearchRequest,
};
use qb_simnet::NetConfig;

fn main() {
    let mut config = QueenBeeConfig::small();
    config.num_peers = 40;
    config.num_bees = 4;
    config.net = NetConfig::zoned(2, 2_000, 40_000);
    config.cache = CacheConfig::enabled();
    config.gossip = GossipConfig::enabled_zoned(6, 2);
    let mut qb = QueenBee::new(config).expect("valid config");
    println!(
        "fleet up: {} frontends over 2 zones (delta digests, bloom holdings filter)",
        qb.num_frontends()
    );

    // Publish a handful of pages and warm the fleet through frontend 0.
    for i in 0..6u64 {
        qb.publish(
            20 + i,
            AccountId(1_000 + i),
            &WebPage::new(
                format!("wiki/page{i}"),
                format!("Page {i}"),
                "honey nectar pollen meadow clover forage",
                vec![],
            ),
        )
        .expect("publish");
    }
    qb.seal();
    qb.process_publish_events().expect("index");
    qb.search_request(SearchRequest::new("honey meadow").route(RoutingPolicy::Direct(0)))
        .expect("warm query");
    for _ in 0..2 {
        qb.advance_time(qb_gossip::config::ROUND_INTERVAL);
    }
    let warm = qb
        .search_request(SearchRequest::new("honey meadow").route(RoutingPolicy::Direct(3)))
        .expect("gossip-warmed");
    println!(
        "frontend 3 warmed by gossip: {} DHT shard fetches on its first query",
        warm.shards_fetched()
    );

    // A frontend crashes; the fleet detects and evicts it.
    qb.fleet_leave(2, false).expect("crash");
    for _ in 0..4 {
        qb.advance_time(qb_gossip::config::ROUND_INTERVAL);
    }
    let stats = qb.gossip_stats().expect("fleet");
    println!(
        "after the crash: {} failed exchanges, {} view evictions; hashed routing still serves: {}",
        stats.failed_exchanges,
        stats.evictions,
        qb.search_request(SearchRequest::new("honey meadow").route(RoutingPolicy::HashPeer(2)))
            .is_ok()
    );

    // Restart + a brand-new joiner, both warmed by bootstrap anti-entropy.
    qb.fleet_rejoin(2).expect("rejoin");
    let joined = qb.fleet_join().expect("join");
    let rejoin_out = qb
        .search_request(SearchRequest::new("honey meadow").route(RoutingPolicy::Direct(2)))
        .expect("rejoined");
    let join_out = qb
        .search_request(SearchRequest::new("honey meadow").route(RoutingPolicy::Direct(joined)))
        .expect("joined");
    println!(
        "restart + join warm from the fleet: {} and {} DHT shard fetches on their first queries",
        rejoin_out.shards_fetched(),
        join_out.shards_fetched()
    );

    // A republish raced by the churn: still zero stale serves.
    qb.publish(
        20,
        AccountId(1_000),
        &WebPage::new(
            "wiki/page0",
            "Page 0",
            "honey nectar pollen meadow clover forage updated",
            vec![],
        ),
    )
    .expect("republish");
    qb.seal();
    qb.process_publish_events().expect("reindex");
    qb.advance_time(SimDuration::from_millis(400));
    let fresh = qb
        .search_request(SearchRequest::new("updated honey").route(RoutingPolicy::Direct(joined)))
        .expect("fresh query");
    println!(
        "republish raced by churn: top hit version {} — {} stale results served overall",
        fresh.hits.first().map(|r| r.version).unwrap_or(0),
        qb.freshness.stale_results
    );

    let stats = qb.gossip_stats().expect("fleet");
    println!(
        "gossip totals: {} digest + {} fill + {} membership bytes, {} joins / {} crashes",
        stats.digest_bytes, stats.fill_bytes, stats.membership_bytes, stats.joins, stats.crashes
    );
}

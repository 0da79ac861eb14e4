//! Gossip warm-up: a 3-frontend fleet where one frontend's traffic warms
//! everyone else through the qb-gossip overlay — plus warm-start
//! persistence across a simulated restart.
//!
//! Run with: `cargo run -p qb-examples --release --bin gossip_warmup`

use qb_chain::AccountId;
use qb_common::SimDuration;
use qb_dweb::WebPage;
use qb_queenbee::{
    CacheConfig, GossipConfig, QueenBee, QueenBeeConfig, RoutingPolicy, SearchRequest,
};

fn build_fleet() -> QueenBee {
    // Fleet mode: 3 query frontends on peers 0..3, each with a private
    // query-serving cache, exchanging hot-shard digests and fills.
    let mut config = QueenBeeConfig::small();
    config.cache = CacheConfig::enabled();
    config.gossip = GossipConfig::enabled(3);
    QueenBee::new(config).expect("valid config")
}

fn publish_pages(qb: &mut QueenBee) {
    let pages = [
        (
            "wiki/dweb",
            "the decentralized web is served by peer devices",
        ),
        (
            "wiki/bees",
            "worker bees maintain the distributed index for honey",
        ),
        (
            "wiki/gossip",
            "epidemic gossip spreads cached shards between frontends",
        ),
        (
            "wiki/dht",
            "kademlia routes every lookup in logarithmic hops",
        ),
    ];
    for (i, (name, body)) in pages.iter().enumerate() {
        qb.publish(
            (10 + i) as u64,
            AccountId(1_000 + i as u64),
            &WebPage::new(*name, format!("Title {name}"), *body, vec![]),
        )
        .expect("publish");
    }
    qb.seal();
    qb.process_publish_events().expect("indexing");
}

fn main() {
    let mut qb = build_fleet();
    publish_pages(&mut qb);
    println!(
        "fleet up: {} frontends, {} peers, gossip every {}",
        qb.num_frontends(),
        qb.net.len(),
        qb_gossip::config::ROUND_INTERVAL
    );

    // 1. Only frontend 0 sees traffic: it pays the DHT cold-start cost.
    let queries = ["decentralized peers", "worker honey", "gossip shards"];
    println!("\nfrontend 0 takes the cold-start hit:");
    for q in &queries {
        let out = qb
            .search_request(SearchRequest::new(*q).route(RoutingPolicy::Direct(0)))
            .expect("search");
        println!(
            "  '{q}': {} shard fetches, {} RPC messages, {}",
            out.shards_fetched(),
            out.messages(),
            out.latency
        );
        qb.advance_time(SimDuration::from_millis(250)); // gossip rounds fire
    }

    // 2. Frontends 1 and 2 never queried anything — yet they are warm.
    for frontend in 1..3 {
        println!("\nfrontend {frontend} was warmed by gossip alone:");
        for q in &queries {
            let out = qb
                .search_request(SearchRequest::new(*q).route(RoutingPolicy::Direct(frontend)))
                .expect("search");
            println!(
                "  '{q}': {} shard fetches, {} shard-cache hits, {}",
                out.shards_fetched(),
                out.shard_cache_hits(),
                out.latency
            );
        }
    }

    let stats = qb.gossip_stats().expect("gossip enabled");
    println!("\n{stats}");

    // 3. Warm-start persistence: snapshot frontend 1's hot set and pre-fill
    //    a freshly restarted deployment with it.
    let snapshot = qb.export_hot_set(1, 32).expect("export");
    println!(
        "warm-start snapshot of frontend 1: {} bytes",
        snapshot.len()
    );
    let mut restarted = build_fleet();
    publish_pages(&mut restarted);
    let admitted = restarted.import_hot_set(0, &snapshot).expect("import");
    println!("restarted fleet imported {admitted} shards into frontend 0:");
    for q in &queries {
        let out = restarted
            .search_request(SearchRequest::new(*q).route(RoutingPolicy::Direct(0)))
            .expect("search");
        println!(
            "  '{q}': {} shard fetches ({} shard-cache hits) on the first query",
            out.shards_fetched(),
            out.shard_cache_hits()
        );
    }
    println!(
        "\nstale results served across both fleets: {} + {} (the version guard held)",
        qb.freshness.stale_results, restarted.freshness.stale_results
    );
}

//! Segment bootstrap: the writer compacts its published shards into an
//! immutable content-addressed index artifact, and a late-joining frontend
//! imports that artifact instead of warming query-by-query — side by side
//! with a gossip-only joiner paying the classic cold start.
//!
//! Run with: `cargo run -p qb-examples --release --bin segment_bootstrap`

use qb_chain::AccountId;
use qb_common::SimDuration;
use qb_dweb::WebPage;
use qb_queenbee::{
    CacheConfig, GossipConfig, QueenBee, QueenBeeConfig, RoutingPolicy, SearchRequest,
    SegmentConfig,
};

fn main() {
    // A 3-frontend fleet with the segment path enabled: the writer
    // accumulates every published shard into a pending segment and
    // `compact_segments` merges + publishes them as one artifact.
    let mut config = QueenBeeConfig::small();
    config.cache = CacheConfig::enabled();
    config.gossip = GossipConfig::enabled(3);
    // Keep the gossip budgets tight so a joiner cannot warm its whole
    // cache from one bootstrap exchange — that cold-start gap is exactly
    // what the artifact import removes.
    config.gossip.hot_set_size = 8;
    config.gossip.max_fills_per_exchange = 2;
    config.segment = SegmentConfig::enabled();
    let mut qb = QueenBee::new(config).expect("valid config");

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
            "wiki/segments",
            "immutable segments bootstrap frontends in bulk",
        ),
        (
            "wiki/dht",
            "kademlia routes every lookup in logarithmic hops",
        ),
        (
            "wiki/gossip",
            "epidemic gossip spreads cached shards between frontends",
        ),
        (
            "wiki/market",
            "the ad market pays creators bees and the treasury",
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

    // 1. The writer compacts: pending shards -> merged artifact -> chunked
    //    storage DAG + DHT pointer. Every byte is charged to the network.
    let before = qb.net.stats().clone();
    let sref = qb
        .compact_segments()
        .expect("compaction")
        .expect("pending shards to compact");
    let published = qb.net.stats().delta_since(&before);
    println!(
        "writer compacted generation {}: {} terms, {} bytes in {} chunks \
         ({} bytes charged to the network)",
        sref.generation, sref.term_count, sref.total_len, sref.chunk_count, published.bytes
    );

    // 2. A republish after the artifact: the artifact's shards for this
    //    page are now one version stale — the joiner's import must not
    //    let them poison served results.
    qb.publish(
        17,
        AccountId(1_002),
        &WebPage::new(
            "wiki/segments",
            "Title wiki/segments v2",
            "immutable mergeable segments bootstrap cold frontends in bulk",
            vec![],
        ),
    )
    .expect("republish");
    qb.seal();
    qb.process_publish_events().expect("reindexing");

    // 3. Some fleet traffic, so the veterans are warm and gossiping.
    let queries = [
        "decentralized peers",
        "worker honey",
        "segments bulk",
        "gossip shards",
        "kademlia lookup",
    ];
    for round in 0..3 {
        for (i, q) in queries.iter().enumerate() {
            qb.advance_time(SimDuration::from_millis(100));
            qb.search_request(SearchRequest::new(*q).route(RoutingPolicy::Direct((round + i) % 3)))
                .expect("warm-up");
        }
    }

    // 4. Two late joiners, side by side. The first bootstraps from the
    //    artifact: one DHT pointer lookup, one chunked fetch, one import
    //    through the version guard, one delta catch-up exchange.
    let (seg_joiner, report) = qb.fleet_join_with_segment().expect("segment join");
    println!(
        "\nsegment joiner (frontend {seg_joiner}): used_segment={} generation={} \
         fetched {} bytes in {} messages, import {:?}",
        report.used_segment,
        report.generation,
        report.fetch_bytes,
        report.fetch_messages,
        report.imported
    );
    // The second warms the gossip-only way: a bootstrap exchange ships the
    // neighbour's hot set, everything else is fetched on demand.
    let gossip_joiner = qb.fleet_join().expect("gossip join");

    println!("\nfirst query on each joiner (shard fetches = cold misses):");
    for (label, frontend) in [("segment", seg_joiner), ("gossip-only", gossip_joiner)] {
        let mut fetches = 0usize;
        for q in &queries {
            let out = qb
                .search_request(SearchRequest::new(*q).route(RoutingPolicy::Direct(frontend)))
                .expect("probe");
            fetches += out.shards_fetched();
        }
        println!(
            "  {label:12} joiner: {fetches} DHT shard fetches over {} queries",
            queries.len()
        );
    }
    println!(
        "\nstale results served: {} (the version guard caught the republished page)",
        qb.freshness.stale_results
    );
    let seg = qb.segment_stats();
    println!(
        "segment stats: {} published ({} bytes), {} fetched ({} bytes), \
         import accepted/stale/dup/refused = {}/{}/{}/{}",
        seg.segments_published,
        seg.publish_bytes,
        seg.segments_fetched,
        seg.fetch_bytes,
        seg.shards_imported,
        seg.import_stale,
        seg.import_duplicates,
        seg.import_refused
    );
}

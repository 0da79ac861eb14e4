//! Observing a query: trace one cold `Fresh` query and one warm `CacheOk`
//! query on a zoned fleet and print their critical paths side by side.
//!
//! The engine-wide tracer (`qb-trace`) is off by default and provably
//! zero-impact; switched on it records a deterministic span tree per
//! query — admission, window, fetch, per-RPC network spans — on the
//! simulated clock. `critical_path` then walks the tree backwards from
//! the response and answers the operator question "where did the latency
//! go?": the cold query descends into a DHT shard fetch, while the warm
//! query is served out of the result cache in (simulated) microseconds.
//!
//! Run with: `cargo run -p qb-examples --release --bin trace_query`

use qb_load::scenario;
use qb_queenbee::{CacheConfig, Freshness, GossipConfig, QueenBee, QueenBeeConfig, SearchRequest};
use qb_trace::{attribution, critical_path, render_path, to_chrome_trace, Trace};

fn main() {
    // A 4-frontend fleet over WAN latency zones, with the query cache on.
    let mut config = QueenBeeConfig::small();
    config.num_peers = 32;
    config.num_bees = 4;
    config.net = qb_simnet::NetConfig::default();
    config.cache = CacheConfig::enabled();
    config.gossip = GossipConfig::enabled(4);
    let mut qb = QueenBee::new(config).expect("valid config");

    let corpus = scenario::corpus(0x7ACE, 24, 60);
    scenario::publish_all(&mut qb, &corpus, 10..28).expect("publish");

    qb.set_tracing(true);
    let term = corpus.pages[0]
        .title
        .split_whitespace()
        .next()
        .expect("titled page");

    // Query 1: cold and Fresh — must fetch its term shards over the DHT.
    let cold = qb
        .search_request(
            SearchRequest::new(term)
                .top_k(5)
                .freshness(Freshness::Fresh),
        )
        .expect("search");
    let cold_trace = qb.take_trace();

    // Query 2: the same text, CacheOk — served from the warmed result cache.
    let warm = qb
        .search_request(
            SearchRequest::new(term)
                .top_k(5)
                .freshness(Freshness::CacheOk),
        )
        .expect("search");
    let warm_trace = qb.take_trace();

    println!("query: {term:?}\n");
    print_side(&cold_trace, "cold / Fresh", cold.latency);
    print_side(&warm_trace, "warm / CacheOk", warm.latency);
    assert!(
        warm.latency < cold.latency,
        "the cached query must be faster"
    );

    // The Chrome-trace export loads in chrome://tracing or Perfetto.
    let export = to_chrome_trace(&cold_trace);
    println!(
        "(chrome-trace export of the cold query: {} bytes, {} spans)",
        export.len(),
        cold_trace.len()
    );
}

/// Print one query's critical path and its per-stage attribution, plus
/// the serving window's path (where the DHT hops and per-RPC network
/// spans live) when the query had to touch the network.
fn print_side(trace: &Trace, label: &str, latency: qb_common::SimDuration) {
    let query = trace.named("query").next().expect("query span tree");
    println!("--- {label}: {latency} end to end ---");
    println!("{}", render_path(&critical_path(trace, query.id)));
    println!("attribution (critical-path self time):");
    for (stage, d) in attribution(trace, query.id) {
        if d > qb_common::SimDuration::ZERO {
            println!("  {stage:<12} {d}");
        }
    }
    if let Some(window) = trace
        .named("window")
        .find(|w| w.duration() > qb_common::SimDuration::ZERO)
    {
        println!("window critical path (DHT + network spans):");
        println!("{}", render_path(&critical_path(trace, window.id)));
    }
    println!();
}

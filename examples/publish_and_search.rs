//! Publish a synthetic web corpus and run an interactive-style query batch
//! against it, reporting latency percentiles and per-query results.
//!
//! Run with: `cargo run -p qb-examples --release --bin publish_and_search`

use qb_common::LatencyHistogram;
use qb_load::scenario;
use qb_queenbee::{QueenBee, QueenBeeConfig, RoutingPolicy, SearchRequest};

fn main() {
    let corpus = scenario::corpus(7, 80, 70);

    let mut config = QueenBeeConfig::small();
    config.num_peers = 48;
    config.num_bees = 6;
    let mut qb = QueenBee::new(config).expect("valid config");

    println!("publishing {} pages...", corpus.pages.len());
    let accepted = scenario::publish_all(&mut qb, &corpus, 0..40).expect("publish");
    qb.run_rank_round().expect("rank");
    println!("worker bees indexed {accepted} pages and computed page ranks\n");

    let queries = scenario::queries(&corpus, 99, 40);
    let mut latencies = LatencyHistogram::new();
    let mut answered = 0usize;
    for (i, q) in queries.iter().enumerate() {
        match qb
            .search_request(SearchRequest::new(q).route(RoutingPolicy::HashPeer((i % 40) as u64)))
        {
            Ok(out) => {
                latencies.record(out.latency);
                if !out.hits.is_empty() {
                    answered += 1;
                }
                if i < 5 {
                    println!(
                        "query '{q}': {} results, best = {:?}, {} msgs, {}",
                        out.hits.len(),
                        out.hits.first().map(|r| r.name.clone()).unwrap_or_default(),
                        out.messages(),
                        out.latency
                    );
                }
            }
            Err(e) => println!("query '{q}' failed: {e}"),
        }
    }
    println!("\nanswered {answered}/{} queries", queries.len());
    println!(
        "latency: mean {:.1} ms, p50 {:.1} ms, p90 {:.1} ms, p99 {:.1} ms",
        latencies.mean().as_millis_f64(),
        latencies.p50().as_millis_f64(),
        latencies.value_at_quantile(0.90).as_millis_f64(),
        latencies.p99().as_millis_f64()
    );
    println!(
        "network traffic so far: {} messages, {:.1} MiB",
        qb.net.stats().messages,
        qb.net.stats().bytes as f64 / (1024.0 * 1024.0)
    );
    println!(
        "result staleness observed: {:.1}%",
        qb.freshness.staleness_rate() * 100.0
    );
}

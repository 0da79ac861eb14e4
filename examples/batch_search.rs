//! Batched multi-query execution: the same Zipf(1.0) query stream served
//! one query at a time and in batch windows, on identical engines with the
//! cache disabled — so every saving shown here comes from cross-query work
//! sharing inside the windows, not from repeats over time.
//!
//! A batch window — one `search_pipelined` call with
//! `PipelineConfig::batch`, one window at a time — plans all its requests
//! first, fetches each distinct missing term shard through the DHT
//! **once**, and fans the shard out to every query that needs it. Under Zipf skew the hot head terms are shared
//! by most of the window, so aggregate DHT traffic collapses while every
//! result list stays byte-identical to sequential execution (experiment E11
//! asserts exactly this in CI).
//!
//! Run with: `cargo run -p qb-examples --release --bin batch_search`

use qb_common::SimDuration;
use qb_load::scenario::{self, QueryStream};
use qb_queenbee::{PipelineConfig, QueenBee, RoutingPolicy, SearchRequest, TermProvenance};
use qb_workload::Corpus;

const WINDOW: usize = 32;
const STREAM: usize = 320;
const POOL: usize = 80;

/// A 64-peer engine (cache off, the default) with `corpus` published.
fn engine(corpus: &Corpus) -> QueenBee {
    scenario::published(scenario::sized(64, 6, 0xBA7C), corpus, 0..50).expect("valid config")
}

fn main() {
    let corpus = scenario::corpus(0xBA7C, 60, 70);
    let QueryStream {
        pool,
        picks: stream,
    } = QueryStream::new(&corpus, 1, POOL, 1.0, 2, STREAM);
    println!(
        "stream: {STREAM} Zipf(1.0) queries over a {POOL}-query pool, window {WINDOW}, cache off\n"
    );

    // Sequential: one request per call — every query pays its own fetches.
    let mut qb = engine(&corpus);
    let mut seq_hits: Vec<Vec<qb_index::ScoredDoc>> = Vec::new();
    let (mut seq_msgs, mut seq_fetches) = (0u64, 0usize);
    let mut seq_latency = SimDuration::ZERO;
    for (i, &q) in stream.iter().enumerate() {
        qb.advance_time(SimDuration::from_millis(50));
        let resp = qb
            .search_request(
                SearchRequest::new(pool[q].as_str())
                    .route(RoutingPolicy::HashPeer((i % 50) as u64)),
            )
            .expect("query");
        seq_msgs += resp.messages();
        seq_fetches += resp.shards_fetched();
        seq_latency += resp.latency;
        seq_hits.push(resp.hits);
    }
    let seq_stats = qb.query_stats();

    // Batched: the identical stream in windows of concurrent queries.
    let mut qb = engine(&corpus);
    let mut batch_hits: Vec<Vec<qb_index::ScoredDoc>> = Vec::new();
    let (mut batch_msgs, mut batch_fetches, mut shared) = (0u64, 0usize, 0usize);
    let mut batch_latency = SimDuration::ZERO;
    let mut example_printed = false;
    for (w, window) in stream.chunks(WINDOW).enumerate() {
        qb.advance_time(SimDuration::from_millis(50));
        let requests: Vec<SearchRequest> = window
            .iter()
            .enumerate()
            .map(|(j, &q)| {
                SearchRequest::new(pool[q].as_str())
                    .route(RoutingPolicy::HashPeer(((w * WINDOW + j) % 50) as u64))
            })
            .collect();
        let batch = PipelineConfig::batch(WINDOW);
        let responses = qb
            .search_pipelined(requests, batch)
            .expect("batch window")
            .responses;
        if !example_printed {
            // Show how one window shares its fetches.
            let fetches: usize = responses.iter().map(|r| r.shards_fetched()).sum();
            let reused: usize = responses.iter().map(|r| r.batch_shared()).sum();
            println!(
                "first window: {} queries resolved {} distinct DHT fetches, reused {} shards",
                responses.len(),
                fetches,
                reused
            );
            let sample = responses
                .iter()
                .find(|r| r.batch_shared() > 0)
                .unwrap_or(&responses[0]);
            println!(
                "  e.g. '{}': {:?}\n",
                sample.query,
                sample
                    .terms
                    .iter()
                    .zip(&sample.provenance)
                    .map(|(t, p)| {
                        let tag = match p {
                            TermProvenance::DhtFetch => "fetched",
                            TermProvenance::BatchShared => "shared",
                            TermProvenance::ResultCache
                            | TermProvenance::ShardCache
                            | TermProvenance::NegativeCache
                            | TermProvenance::StaleCache { .. } => "cached",
                        };
                        (&**t, tag)
                    })
                    .collect::<Vec<_>>()
            );
            example_printed = true;
        }
        for resp in responses {
            batch_msgs += resp.messages();
            batch_fetches += resp.shards_fetched();
            shared += resp.batch_shared();
            batch_latency += resp.latency;
            batch_hits.push(resp.hits);
        }
    }

    let identical = seq_hits == batch_hits;
    println!("                          sequential      batched");
    println!(
        "rpc messages            {seq_msgs:>12} {batch_msgs:>12}   (-{:.1}%)",
        100.0 * (1.0 - batch_msgs as f64 / seq_msgs.max(1) as f64)
    );
    println!(
        "dht shard fetches       {seq_fetches:>12} {batch_fetches:>12}   (-{:.1}%)",
        100.0 * (1.0 - batch_fetches as f64 / seq_fetches.max(1) as f64)
    );
    println!("shards shared in-window {:>12} {shared:>12}", 0);
    // Cache off, nothing keeps a scored list: every query is scored and
    // only its page of hits is ever built.
    let batch_stats = qb.query_stats();
    println!(
        "queries scored          {:>12} {:>12}",
        seq_stats.score_invocations, batch_stats.score_invocations
    );
    println!(
        "scored lists built      {:>12} {:>12}",
        seq_stats.scored_lists_built, batch_stats.scored_lists_built
    );
    println!(
        "total simulated latency {:>12} {:>12}",
        seq_latency.to_string(),
        batch_latency.to_string()
    );
    println!("\nresult lists byte-identical across both runs: {identical}");
    assert!(identical, "batching must never change a result");
}

//! Quickstart: the whole QueenBee architecture (Figure 1 of the paper) in one
//! short program — publish pages, let the worker bees index and rank them,
//! serve queries through the **pipelined query engine** (`SearchRequest` →
//! plan → overlapped fetch → score → `SearchResponse`), show an ad and
//! settle the click on-chain.
//!
//! Run with: `cargo run -p qb-examples --release --bin quickstart`
//!
//! For the repository-level view — the crate map, the life of a query
//! through the event-driven pipeline, and the determinism contract every
//! subsystem is held to — see `ARCHITECTURE.md` at the repo root (also
//! rendered as the `qb_queenbee::architecture` rustdoc module).

use qb_chain::AccountId;
use qb_dweb::WebPage;
use qb_index::Analyzer;
use qb_queenbee::{
    CacheConfig, CacheReport, PipelineConfig, QueenBee, QueenBeeConfig, RoutingPolicy,
    SearchRequest,
};
use qb_workload::AdSpec;

fn main() {
    // 1. Assemble the DWeb: peers, DHT, storage, blockchain and worker bees.
    //    The query-serving cache ships disabled; opt in via the config so
    //    repeated queries are answered from local tiers instead of the DHT.
    let mut config = QueenBeeConfig::small();
    config.cache = CacheConfig::enabled();
    let mut qb = QueenBee::new(config).expect("valid config");
    println!(
        "DWeb up: {} peers, {} worker bees, chain height {}",
        qb.net.len(),
        qb.bees().len(),
        qb.chain.stats().height
    );

    // 2. Content creators publish pages (no crawler will ever visit them —
    //    the publish transaction itself is what notifies the index).
    let alice = AccountId(1_000);
    let bob = AccountId(1_001);
    let pages = vec![
        (alice, 1u64, WebPage::new(
            "wiki/decentralized-web",
            "The Decentralized Web",
            "content is addressed by cryptographic hash replicated by peers and immune to tampering",
            vec!["wiki/queenbee".into()],
        )),
        (alice, 2, WebPage::new(
            "wiki/queenbee",
            "QueenBee",
            "queenbee is a decentralized search engine where worker bees maintain the index and earn honey",
            vec!["wiki/decentralized-web".into()],
        )),
        (bob, 3, WebPage::new(
            "shop/honey",
            "Artisanal honey",
            "buy artisanal honey straight from the worker bees best prices on the dweb",
            vec!["wiki/queenbee".into()],
        )),
    ];
    for (creator, peer, page) in &pages {
        let report = qb.publish(*peer, *creator, page).expect("publish");
        println!(
            "published {:28} accepted={} cid={}",
            page.name,
            report.accepted,
            report.object.map(|o| o.root.short()).unwrap_or_default()
        );
    }
    qb.seal();

    // 3. Worker bees pick up the publish events, build the distributed index
    //    and compute page ranks; they are paid in honey for every task.
    let handled = qb.process_publish_events().expect("indexing");
    let rank = qb.run_rank_round().expect("ranking");
    println!(
        "worker bees indexed {handled} pages, ran {} rank iterations (L1 error vs reference {:.1e})",
        rank.rounds, rank.l1_error_vs_reference
    );
    for bee in qb.bees() {
        println!(
            "  bee on peer {:2} earned {:5} nectar ({} tasks)",
            bee.peer,
            qb.chain.balance(bee.account),
            bee.tasks_rewarded
        );
    }

    // 4. An advertiser opens a pay-per-click campaign on the keyword "honey".
    qb.register_advertiser(&AdSpec {
        advertiser: 5_000,
        keywords: vec![Analyzer::stem("honey")],
        bid_per_click: 50,
        budget: 1_000,
    })
    .expect("campaign");

    // 5. A user searches. A query is a SearchRequest — query text plus
    //    explicit top-k, pagination, routing and freshness knobs — and the
    //    answer is a SearchResponse: the ranked page of hits plus a
    //    per-stage cost trace and per-term cache provenance.
    //
    //    Routing: use `RoutingPolicy::HashPeer(key)` unless you have a
    //    reason not to. In fleet mode it picks the serving frontend by
    //    rendezvous (HRW) hashing over the *live* membership plus
    //    power-of-two-choices on the gossip-advertised load EWMAs, so a
    //    crashed frontend's keyspace respreads across the whole surviving
    //    fleet and hot spots self-correct. `Direct(i)` pins a specific
    //    frontend (tests, debugging); `RingSuccessor(key)` keeps the old
    //    modulo + ring-walk geometry only so experiments (E12c/E17a) can
    //    measure the post-crash load spike HashPeer eliminates — don't
    //    route production traffic with it.
    let request = SearchRequest::new("artisanal honey")
        .top_k(5)
        .route(RoutingPolicy::HashPeer(5));
    let response = qb.search_request(request).expect("search");
    println!(
        "\nresults for 'artisanal honey' ({} of {} in {}):",
        response.hits.len(),
        response.total_matches,
        response.latency
    );
    for (i, r) in response.hits.iter().enumerate() {
        println!(
            "  {}. {:28} score={:.3} (version {})",
            i + 1,
            r.name,
            r.score,
            r.version
        );
    }
    println!(
        "  stage trace: stats {} | shard fetch {} | {} msgs | {} candidates scored",
        response.trace.stats,
        response.trace.shard_fetch,
        response.trace.messages,
        response.trace.candidates_scored
    );
    println!(
        "  term provenance: {:?}",
        response
            .terms
            .iter()
            .zip(&response.provenance)
            .collect::<Vec<_>>()
    );
    println!("  [ad shown: {:?}]", response.ad);

    // 6. The user clicks the ad: the advertiser is charged and the revenue is
    //    split between the result's creator, the serving bee and the treasury.
    let before = qb.chain.balance(bob);
    qb.click_ad(&response).expect("click");
    println!(
        "\nad click settled on-chain: creator {:?} earned {} nectar (balance {} -> {})",
        bob,
        qb.chain.balance(bob) - before,
        before,
        qb.chain.balance(bob)
    );
    println!(
        "total honey supply unchanged: {}",
        qb.chain.accounts().total_supply() == qb_chain::GENESIS_SUPPLY
    );

    // 7. The pipelined engine: a whole query stream is cut into windows
    //    and driven through an explicit Planned → Fetching → Scoring → Done
    //    state machine. Up to `max_windows_in_flight` windows overlap —
    //    window N+1's distinct-shard fetches are issued while window N's
    //    are still in flight (under the simulated network's per-link
    //    in-flight limits). Every fetch is an event-driven read
    //    machine over async DHT lookups, so per-hop RPCs from concurrent
    //    windows interleave on contended links.
    //
    //    Don't hand-tune `window_size`/`max_windows_in_flight` for load:
    //    start from `PipelineConfig::self_steering()` and treat the fixed
    //    values as the *initial* shape. The self-steering driver measures,
    //    at each window retirement, what share of the window's busy time
    //    the per-link limits charged as queueing; past
    //    `pipeline::BACKOFF_QUEUE_PERCENT` it backs off (grows the window
    //    for more dedup per issue, then sheds depth) and issues the
    //    predicted cheapest ready window first, and below
    //    `pipeline::RAMPUP_QUEUE_PERCENT` it restores the configured shape. On an unsaturated stream it does
    //    nothing — E13 asserts the makespan holds exactly — and on a
    //    starved uplink it beats the fixed shape (E13c). Responses stay
    //    in request order either way. The stream below repeats queries on
    //    purpose: a repeat shares its window's fetches and is scored again
    //    unless the result cache already holds its answer — watch the
    //    shard fetches and the makespan.
    let stream: Vec<SearchRequest> = [
        "artisanal honey",
        "decentralized web",
        "artisanal honey", // repeat
        "worker bees honey",
        "decentralized web", // repeat
        "honey engine",
        "artisanal honey", // repeat
        "worker bees",
    ]
    .iter()
    .map(|q| SearchRequest::new(*q).route(RoutingPolicy::HashPeer(7)))
    .collect();
    let outcome = qb
        .search_pipelined(
            stream,
            PipelineConfig {
                window_size: 4,
                max_windows_in_flight: 2,
                ..PipelineConfig::self_steering()
            },
        )
        .expect("pipelined stream");
    println!(
        "\npipelined stream: {} queries in {} windows (peak {} in flight)",
        outcome.report.queries, outcome.report.windows, outcome.report.peak_windows_in_flight
    );
    for r in &outcome.responses {
        println!(
            "  {:24} {} hits, {} msgs, {} fetched, {} shared from window, cache hits {}",
            format!("'{}'", r.query),
            r.hits.len(),
            r.messages(),
            r.shards_fetched(),
            r.batch_shared(),
            r.shard_cache_hits() + r.negative_cache_hits() + r.result_cache_hit() as usize,
        );
    }
    println!(
        "  makespan {} | {} shard fetches | queue delay {}",
        outcome.report.makespan, outcome.report.shard_fetches, outcome.report.queue_delay,
    );
    println!(
        "  self-steering: {} back-offs, {} ramp-ups (an unsaturated stream should show 0/0)",
        outcome.report.adapt_backoffs, outcome.report.adapt_rampups,
    );
    // One-shot windows are still there: `qb.search_batch(requests)` runs a
    // single window back-to-back, and `qb.search_request(request)` serves a
    // one-off query through the same planner.

    // 8. The cache at work: replay the same queries and watch the hit rate.
    //    The earlier rounds warmed the tiers; every repeat is served locally
    //    with zero RPC messages.
    println!("\nrepeated-query loop (cache warm-up vs steady state):");
    let queries = [
        "artisanal honey",
        "decentralized web",
        "worker bees",
        "honey",
    ];
    for round in 1..=3 {
        let mut messages = 0;
        let mut hits = 0;
        for q in &queries {
            let out = qb
                .search_request(SearchRequest::new(*q).route(RoutingPolicy::HashPeer(7)))
                .expect("search");
            messages += out.messages();
            hits += out.result_cache_hit() as usize;
        }
        println!(
            "  round {round}: {hits}/{} result-cache hits, {messages} RPC messages",
            queries.len()
        );
    }
    let metrics = qb.cache_metrics().expect("cache enabled");
    println!("\ncache tier counters:");
    print!("{}", CacheReport(metrics));
    println!(
        "overall: {:.0}% of result lookups served from cache",
        100.0 * metrics.result.hit_rate()
    );

    // 9. Observing a query: the engine-wide tracer (`qb-trace`) ships off
    //    and is provably zero-impact — every recording site is a no-op
    //    until `set_tracing(true)`, and E15 asserts that traced runs are
    //    byte-identical to untraced ones. Switched on, every query becomes
    //    a deterministic span tree on the simulated clock; `critical_path`
    //    walks it backwards from the response and answers "where did the
    //    latency go?". The same tracer rides the open-loop harness:
    //    `qb_load::replay_traced` replays a flash-crowd arrival trace (the
    //    E14 workload) with tracing on and returns the span trees next to
    //    the LoadReport, so the slowest query's arrival → queue-wait →
    //    fetch critical path falls out of the data — see
    //    `examples/open_loop.rs` for exactly that, `examples/trace_query.rs`
    //    for a cold-vs-cached side-by-side, and `qb_trace::to_chrome_trace`
    //    for a chrome://tracing / Perfetto-loadable export.
    qb.set_tracing(true);
    let traced = qb
        .search_request(SearchRequest::new("artisanal honey").top_k(3))
        .expect("search");
    let spans = qb.take_trace();
    qb.set_tracing(false);
    let root = spans.named("query").next().expect("traced query tree");
    println!(
        "\ntraced query ({} spans, {} end to end) — critical path:",
        spans.len(),
        traced.latency
    );
    print!(
        "{}",
        qb_trace::render_path(&qb_trace::critical_path(&spans, root.id))
    );

    // 10. Bootstrapping a frontend from index artifacts: with
    //    `config.segment = SegmentConfig::enabled()` (it rides on the query
    //    cache) the writer path accumulates every published shard into a
    //    pending segment — an immutable, deterministically encoded,
    //    mergeable multi-term artifact with a per-term version vector.
    //    `qb.compact_segments()` merges the pending segments and publishes
    //    the artifact as a chunked content-addressed DAG in qb-storage plus
    //    a DHT pointer record (`qb.latest_segment()` returns the published
    //    `SegmentRef`), with every byte charged to NetStats. A late joiner
    //    then calls `qb.fleet_join_with_segment()` instead of
    //    `qb.fleet_join()`: one pointer lookup, one bulk artifact fetch,
    //    one import through the cache's version guard (stale shards from
    //    before a republish are refused, so zero stale serves), one delta
    //    catch-up exchange — instead of warming query-by-query from the
    //    DHT. E16 asserts the payoff: the segment joiner reaches 95% of
    //    steady-state hit rate with ≥50% fewer warm-up DHT shard fetches
    //    and strictly fewer bootstrap bytes than gossip-only warm-up. See
    //    `examples/segment_bootstrap.rs` for the side-by-side.

    // 11. Where to next: experiment E13 measures the pipelined engine at
    //    scale (≥30% lower makespan than back-to-back windows on a
    //    duplicate-heavy Zipf stream, byte-identical results);
    //    `examples/batch_search.rs` measures batched vs sequential
    //    execution (E11); `config.gossip = GossipConfig::enabled(n)` runs
    //    a fleet of n frontends whose caches warm each other over the
    //    qb-gossip overlay — see `examples/gossip_warmup.rs` and E10. The
    //    overlay is churn- and zone-aware: frontends join
    //    (`qb.fleet_join()`, warming from a live neighbour by anti-entropy
    //    instead of the DHT), leave or crash (`qb.fleet_leave(i, graceful)`)
    //    and restart (`qb.fleet_rejoin(i)`, bumping a SWIM-style
    //    incarnation epoch so delayed summaries can never confuse its
    //    liveness); `GossipConfig::enabled_zoned(n, zones)` +
    //    `NetConfig::zoned(..)` bias partner sampling toward the own
    //    latency zone; `digest_mode: DigestMode::Delta` (the default)
    //    ships delta digests + a cached bloom holdings filter instead of
    //    full hot sets — see `examples/fleet_churn.rs` and E12. In fleet
    //    mode, a batch window's freshly fetched shard keys ride the next
    //    gossip round as priority advertisements (batch-aware gossip,
    //    asserted in E13b).
    println!("\nnext: cargo run -p qb-examples --release --bin batch_search");
    println!("      cargo run -p qb-examples --release --bin fleet_churn");
    println!("      cargo run -p qb-examples --release --bin segment_bootstrap");
}

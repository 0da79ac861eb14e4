//! E1 — latency and throughput: decentralized caching vs a central server.

use crate::{engine, published, DOC_LEN};
use qb_baseline::{CentralizedConfig, CentralizedEngine};
use qb_bench::{crawl_docs, f2, Table};
use qb_chain::AccountId;
use qb_common::{LatencyHistogram, SimInstant};
use qb_dweb::WebPage;
use qb_load::scenario::{corpus, queries, sized};
use qb_queenbee::{RoutingPolicy, SearchRequest};
use std::collections::HashMap;

pub fn run() -> Vec<Table> {
    // Part A: page fetch latency as a popular page gets cached by more peers.
    let mut qb = engine(sized(64, 6, 0xE1));
    let page = WebPage::new(
        "viral/page",
        "A very popular page",
        (0..300)
            .map(|i| format!("popularword{} ", i % 60))
            .collect::<String>(),
        vec![],
    );
    let report = qb.publish(1, AccountId(1_000), &page).expect("publish");
    qb.seal();
    qb.process_publish_events().expect("index");
    let root = report.object.expect("stored object").root;
    let mut t_a = Table::new(
        "E1a: page fetch latency vs. number of prior fetchers (peer caching effect)",
        &[
            "prior_fetchers",
            "latency_ms",
            "served_from",
            "providers_after",
        ],
    );
    for (fetchers, peer) in [10u64, 15, 20, 25, 30, 35, 40, 45].into_iter().enumerate() {
        let (_, stats) = qb
            .storage
            .get_object(&mut qb.net, &mut qb.dht, peer, root)
            .expect("fetch");
        let served_from = if stats.from_local {
            "local cache"
        } else {
            "remote peers"
        };
        t_a.row(&[
            &fetchers,
            &f2(stats.latency.as_millis_f64()),
            &served_from,
            &qb.storage.pinned_holders(&root).len(),
        ]);
    }

    // Part B: query latency under increasing load, QueenBee vs centralized.
    let corpus = corpus(0xE1B, 80, DOC_LEN);
    let mut qb = published(sized(64, 6, 0xE1B), &corpus);
    let mut central = CentralizedEngine::new(CentralizedConfig::default());
    central.crawl(&crawl_docs(&corpus, &HashMap::new()), SimInstant::ZERO);
    let queries = queries(&corpus, 0xE1B, 60);
    let mut t_b = Table::new(
        "E1b: query latency and availability vs offered load (centralized capacity = 200 qps)",
        &[
            "load_qps",
            "central_p50_ms",
            "central_ok_%",
            "queenbee_p50_ms",
            "queenbee_ok_%",
        ],
    );
    for load in [10.0, 100.0, 180.0, 250.0, 400.0] {
        let mut central_lat = LatencyHistogram::new();
        let mut central_ok = 0usize;
        let mut qb_lat = LatencyHistogram::new();
        let mut qb_ok = 0usize;
        for (i, q) in queries.iter().enumerate() {
            if let Ok((_, lat)) = central.search(q, load) {
                central_lat.record(lat);
                central_ok += 1;
            }
            let peer = (i % 50) as u64;
            if let Ok(out) =
                qb.search_request(SearchRequest::new(q).route(RoutingPolicy::HashPeer(peer)))
            {
                qb_lat.record(out.latency);
                qb_ok += 1;
            }
        }
        t_b.row(&[
            &format!("{load:.0}"),
            &f2(central_lat.p50().as_millis_f64()),
            &f2(100.0 * central_ok as f64 / queries.len() as f64),
            &f2(qb_lat.p50().as_millis_f64()),
            &f2(100.0 * qb_ok as f64 / queries.len() as f64),
        ]);
    }
    vec![t_a, t_b]
}

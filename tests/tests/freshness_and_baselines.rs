//! Freshness (E3) and baseline-comparison integration tests: QueenBee's
//! publish-driven index reflects updates immediately, while crawler-driven
//! baselines lag until their next crawl.

use qb_baseline::{CentralizedConfig, CentralizedEngine, CrawlDoc, YacyConfig, YacyEngine};
use qb_common::{SimDuration, SimInstant};
use qb_integration::{page, publish_and_index, small_engine};
use qb_queenbee::{RoutingPolicy, SearchRequest};
use qb_simnet::{NetConfig, SimNet};

fn crawl_doc(name: &str, version: u64, text: &str) -> CrawlDoc {
    CrawlDoc {
        name: name.to_string(),
        version,
        creator: 1,
        text: text.to_string(),
    }
}

#[test]
fn queenbee_serves_updates_immediately() {
    let mut qb = small_engine(10);
    publish_and_index(
        &mut qb,
        1,
        1_000,
        &page("news", "yesterday's story about turnips", &[]),
    );
    // Update: the page now covers a new topic.
    publish_and_index(
        &mut qb,
        1,
        1_000,
        &page("news", "todays exclusive about xylophones", &[]),
    );
    let out = qb
        .search_request(SearchRequest::new("xylophones").route(RoutingPolicy::HashPeer(4)))
        .expect("search");
    assert_eq!(out.hits.len(), 1);
    assert_eq!(out.hits[0].version, 2);
    assert_eq!(qb.freshness.staleness_rate(), 0.0);
    // The stale term no longer matches the page's current version entry.
    let stale = qb.search_request(SearchRequest::new("turnips").route(RoutingPolicy::HashPeer(4)));
    match stale {
        Ok(out) => assert!(out.hits.is_empty() || out.hits[0].version == 2),
        Err(e) => assert!(matches!(e, qb_common::QbError::Query(_)) || e.is_availability()),
    }
}

#[test]
fn crawling_baselines_lag_until_next_crawl() {
    let now = SimInstant::ZERO;
    let v1 = vec![crawl_doc("news", 1, "yesterday's story about turnips")];
    let v2 = vec![crawl_doc("news", 2, "todays exclusive about xylophones")];

    // Centralized engine with an hourly crawl.
    let mut central = CentralizedEngine::new(CentralizedConfig {
        crawl_interval: SimDuration::from_secs(3_600),
    });
    central.crawl(&v1, now);
    // The page updates 10 minutes later; the next crawl is not due.
    let t_update = now + SimDuration::from_secs(600);
    assert!(!central.maybe_crawl(&v2, t_update));
    let (results, _) = central.search("turnips", 1.0).expect("search");
    assert_eq!(results[0].version, 1, "centralized index is stale");
    // After the crawl interval it catches up.
    let t_later = now + SimDuration::from_secs(4_000);
    assert!(central.maybe_crawl(&v2, t_later));
    let (results, _) = central.search("xylophones", 1.0).expect("search");
    assert_eq!(results[0].version, 2);

    // YaCy-style engine behaves the same way.
    let mut net = SimNet::new(32, NetConfig::lan(), 5);
    let mut yacy = YacyEngine::new(YacyConfig {
        crawl_interval: SimDuration::from_secs(3_600),
    });
    yacy.crawl(&v1, now);
    assert!(!yacy.maybe_crawl(&v2, t_update));
    let (results, _, _) = yacy.search(&mut net, 20, "turnips").expect("search");
    assert_eq!(results[0].version, 1);
    assert!(yacy.maybe_crawl(&v2, t_later));
    let (results, _, _) = yacy.search(&mut net, 20, "xylophones").expect("search");
    assert_eq!(results[0].version, 2);
}

#[test]
fn centralized_engine_fails_under_ddos_while_queenbee_keeps_serving() {
    // The centralized baseline collapses when the attack load exceeds its
    // capacity; QueenBee keeps answering because there is no single choke point.
    let mut central = CentralizedEngine::new(CentralizedConfig::default());
    central.crawl(
        &[crawl_doc("a", 1, "resilient decentralized content")],
        SimInstant::ZERO,
    );
    central.attack_load_qps = 10_000.0;
    assert!(central.search("decentralized", 5.0).is_err());

    let mut qb = small_engine(11);
    publish_and_index(
        &mut qb,
        1,
        1_000,
        &page("a", "resilient decentralized content", &[]),
    );
    // Take down a third of the peers (a DDoS can only hit so many devices).
    qb.net.fail_fraction(0.33, &[5]);
    let out =
        qb.search_request(SearchRequest::new("decentralized").route(RoutingPolicy::HashPeer(5)));
    assert!(out.is_ok(), "QueenBee should still answer: {out:?}");
}

#[test]
fn queenbee_survives_partitions_better_than_a_single_server() {
    let mut qb = small_engine(12);
    publish_and_index(
        &mut qb,
        1,
        1_000,
        &page("p", "partition tolerant content everywhere", &[]),
    );
    qb.net.partition_round_robin(2);
    // Query from both sides of the partition; at least one side must succeed
    // (replicas and caches exist on both sides or the query side).
    let side_a =
        qb.search_request(SearchRequest::new("partition").route(RoutingPolicy::HashPeer(2)));
    let side_b =
        qb.search_request(SearchRequest::new("partition").route(RoutingPolicy::HashPeer(3)));
    assert!(
        side_a.map(|o| !o.hits.is_empty()).unwrap_or(false)
            || side_b.map(|o| !o.hits.is_empty()).unwrap_or(false),
        "neither partition could answer the query"
    );
}

//! End-to-end integration: publish → index → rank → search → ads, across all
//! substrate crates (the full Figure 1 pipeline).

use qb_chain::AccountId;
use qb_common::{Cid, DhtKey, SimDuration};
use qb_integration::{page, publish_and_index, small_engine};
use qb_queenbee::{Freshness, QueenBee, QueenBeeConfig, RoutingPolicy, SearchRequest};
use qb_workload::AdSpec;
use std::collections::BTreeSet;

#[test]
fn full_pipeline_from_publish_to_paid_ad_click() {
    let mut qb = small_engine(1);

    // Content creators publish a small web.
    publish_and_index(
        &mut qb,
        1,
        1_000,
        &page(
            "wiki/dweb",
            "the decentralized web stores tamperproof content on peer devices",
            &["wiki/search"],
        ),
    );
    publish_and_index(
        &mut qb,
        2,
        1_001,
        &page(
            "wiki/search",
            "queenbee searches the decentralized web without any crawler",
            &["wiki/dweb"],
        ),
    );
    publish_and_index(
        &mut qb,
        3,
        1_002,
        &page(
            "shop/honey",
            "buy artisanal honey from worker bees today",
            &["wiki/dweb"],
        ),
    );

    // Page ranks are computed by the bees.
    let report = qb.run_rank_round().expect("rank round");
    assert!(report.flagged_bees.is_empty());
    assert!(qb.rank_of("wiki/dweb") > 0.0);

    // An advertiser targets a query keyword.
    qb.register_advertiser(&AdSpec {
        advertiser: 5_000,
        keywords: vec![qb_index::Analyzer::stem("honey")],
        bid_per_click: 50,
        budget: 500,
    })
    .expect("campaign");

    // A user searches and clicks the ad.
    let out = qb
        .search_request(SearchRequest::new("artisanal honey").route(RoutingPolicy::HashPeer(7)))
        .expect("search");
    assert!(!out.hits.is_empty());
    assert_eq!(&*out.hits[0].name, "shop/honey");
    assert!(out.ad.is_some());
    assert!(out.latency.as_micros() > 0);

    let creator_before = qb.chain.balance(AccountId(1_002));
    let bee_before: u64 = qb.bee_accounts().iter().map(|a| qb.chain.balance(*a)).sum();
    assert!(qb.click_ad(&out).expect("click"));
    assert!(
        qb.chain.balance(AccountId(1_002)) > creator_before,
        "creator earns ad share"
    );
    let bee_after: u64 = qb.bee_accounts().iter().map(|a| qb.chain.balance(*a)).sum();
    assert!(bee_after > bee_before, "serving bee earns ad share");

    // Honey never leaks or mints outside genesis.
    assert_eq!(qb.chain.accounts().total_supply(), qb_chain::GENESIS_SUPPLY);
    assert!(qb.chain.verify_integrity().is_ok());
}

#[test]
fn search_results_are_relevant_and_ranked() {
    let mut qb = small_engine(2);
    publish_and_index(
        &mut qb,
        1,
        1_000,
        &page("a", "nectar nectar nectar production guide", &[]),
    );
    publish_and_index(
        &mut qb,
        2,
        1_001,
        &page(
            "b",
            "a single mention of nectar among many other words here",
            &[],
        ),
    );
    publish_and_index(
        &mut qb,
        3,
        1_002,
        &page("c", "completely unrelated content about starships", &[]),
    );

    let out = qb
        .search_request(SearchRequest::new("nectar").route(RoutingPolicy::HashPeer(5)))
        .expect("search");
    let names: Vec<&str> = out.hits.iter().map(|r| &*r.name).collect();
    assert!(names.contains(&"a") && names.contains(&"b"));
    assert!(!names.contains(&"c"));
    assert_eq!(&*out.hits[0].name, "a", "higher term frequency ranks first");
}

#[test]
fn multi_term_queries_intersect_posting_lists() {
    let mut qb = small_engine(3);
    publish_and_index(
        &mut qb,
        1,
        1_000,
        &page("both", "zebras and quaggas graze together", &[]),
    );
    publish_and_index(
        &mut qb,
        2,
        1_001,
        &page("only-zebra", "zebras graze alone", &[]),
    );
    publish_and_index(
        &mut qb,
        3,
        1_002,
        &page("only-quagga", "quaggas graze alone", &[]),
    );

    let out = qb
        .search_request(SearchRequest::new("zebras quaggas").route(RoutingPolicy::HashPeer(5)))
        .expect("search");
    assert_eq!(&*out.hits[0].name, "both");
    assert!(out.shards_fetched() >= 2);
}

/// DHT records are permanent: nothing republishes them, so an index that
/// expired after a simulated hour would silently answer every query with
/// nothing (it once did — the benchmark found it, no test had).
#[test]
fn the_index_outlives_a_simulated_hour() {
    let mut qb = small_engine(4);
    publish_and_index(
        &mut qb,
        1,
        1_000,
        &page("hive/brood", "brood comb temperature regulation", &[]),
    );
    publish_and_index(
        &mut qb,
        2,
        1_001,
        &page("hive/comb", "wax comb construction by worker bees", &[]),
    );
    let fresh = || {
        SearchRequest::new("comb")
            .route(RoutingPolicy::HashPeer(5))
            .freshness(Freshness::Fresh)
    };
    let before = qb.search_request(fresh()).expect("search");
    assert_eq!(before.hits.len(), 2);
    qb.advance_time(SimDuration::from_secs(2 * 3_600));
    let after = qb.search_request(fresh()).expect("search after two hours");
    assert!(after.shards_fetched() > 0, "a Fresh read goes to the DHT");
    assert_eq!(after.hits, before.hits);
}

/// A republish rewrites the shards of the terms it touches. Each earlier
/// shard object leaves storage once no copy of its term's record names it,
/// every root a record still names stays stored, and a `Fresh` read still
/// finds every page.
#[test]
fn superseded_shard_objects_leave_storage_and_the_index_still_answers() {
    let mut config = QueenBeeConfig::small();
    config.seed = 6;
    // Small enough that the shared term's shard is a storage object.
    config.shard_inline_threshold = 64;
    let mut qb = QueenBee::new(config).expect("valid config");
    let key = DhtKey::for_term(&qb_index::Analyzer::stem("honey"));
    let named = |qb: &QueenBee| -> BTreeSet<Cid> {
        qb.dht
            .records_under(&key)
            .filter_map(|r| qb_index::shard_pointer_root(&r.value))
            .collect()
    };
    let mut seen = BTreeSet::new();
    for round in 0..4 {
        for i in 0..8u64 {
            let body = format!("honey comb round{round} cell{i}");
            publish_and_index(
                &mut qb,
                1 + i % 3,
                1_000,
                &page(&format!("hive/{i}"), &body, &[]),
            );
            seen.extend(named(&qb));
        }
    }
    let still_named = named(&qb);
    let released: Vec<&Cid> = seen.difference(&still_named).collect();
    assert!(!released.is_empty(), "nothing was superseded");
    for root in released {
        assert!(
            qb.storage.pinned_holders(root).is_empty(),
            "{root} still pinned"
        );
    }
    for root in &still_named {
        assert!(!qb.storage.pinned_holders(root).is_empty(), "{root} lost");
    }
    let fresh = SearchRequest::new("honey")
        .top_k(20)
        .route(RoutingPolicy::HashPeer(5))
        .freshness(Freshness::Fresh);
    let response = qb.search_request(fresh).expect("search");
    assert!(
        response.shards_fetched() > 0,
        "a Fresh read goes to the DHT"
    );
    assert_eq!(response.hits.len(), 8);
}

#[test]
fn tampered_page_content_is_never_served() {
    let mut qb = small_engine(4);
    let p = page(
        "bank/login",
        "legitimate login page for the honey bank",
        &[],
    );
    let report = qb.publish(1, AccountId(1_000), &p).expect("publish");
    qb.seal();
    qb.process_publish_events().expect("index");
    let root = report.object.expect("stored").root;
    // Corrupt every copy: the pinned replicas *and* the cached copies the
    // indexing bees kept (they announce themselves as providers, so an
    // attacker controlling all holders must tamper with those too).
    let corrupted = qb.storage.corrupt_all_copies(&root, b"<html>phish</html>");
    assert!(
        corrupted > 0,
        "expected at least one stored copy to corrupt"
    );
    let cid = qb
        .chain
        .publish_registry()
        .get("bank/login")
        .expect("registered")
        .cid;
    let err =
        qb_dweb::fetch_page_by_cid(&mut qb.net, &mut qb.dht, &mut qb.storage, 9, cid).unwrap_err();
    assert!(matches!(err, qb_common::QbError::IntegrityViolation { .. }));
}

//! Regenerates every experiment table in EXPERIMENTS.md.
//!
//! Usage:
//!   cargo run -p qb-bench --release --bin experiments -- all
//!   cargo run -p qb-bench --release --bin experiments -- e3 e6
//!   cargo run -p qb-bench --release --bin experiments -- --quick e9 e10
//!
//! Each experiment prints a human-readable table and writes the same rows as
//! JSON under `bench-results/`. `--quick` shrinks the cache/gossip/batch
//! streams (E9/E10/E11) for the CI smoke job; E9, E10 and E11 assert their
//! acceptance criteria (cache savings, >=30% gossip RPC reduction, zero
//! staleness, >=30% batched fetch reduction with byte-identical results), so
//! a regression fails the process instead of silently changing a table.

use qb_baseline::{CentralizedConfig, CentralizedEngine, YacyConfig, YacyEngine};
use qb_bench::{build_corpus, build_engine, crawl_docs, f2, f4, publish_corpus, Table};
use qb_chain::AccountId;
use qb_common::{DetRng, LatencyHistogram, SimDuration, SimInstant};
use qb_dweb::WebPage;
use qb_queenbee::{gini_coefficient, CollusionAttack, RoutingPolicy, ScraperAttack, SearchRequest};
use qb_workload::{mutate_page, AdvertiserWorkload, QueryWorkload, UpdateStream};
use std::collections::HashMap;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let args: Vec<String> = args.into_iter().filter(|a| a != "--quick").collect();
    let selected: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        vec![
            "f1", "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13",
            "e14", "e15", "e16", "e17",
        ]
        .into_iter()
        .map(String::from)
        .collect()
    } else {
        args
    };
    let mut all_tables: Vec<Table> = Vec::new();
    for exp in &selected {
        let tables = match exp.as_str() {
            "f1" => f1_architecture(),
            "e1" => e1_latency_throughput(),
            "e2" => e2_resilience(),
            "e3" => e3_freshness(),
            "e4" => e4_tamper(),
            "e5" => e5_incentives(),
            "e6" => e6_collusion(),
            "e7" => e7_scraper(),
            "e8" => e8_systems_costs(),
            "e9" => e9_cache(quick),
            "e10" => e10_gossip(quick),
            "e11" => e11_batch(quick),
            "e12" => e12_churn(quick),
            "e13" => e13_pipeline(quick),
            "e14" => e14_open_loop(quick),
            "e15" => e15_tracing(quick),
            "e16" => e16_segment(quick),
            "e17" => e17_hedging(quick),
            other => {
                eprintln!("unknown experiment '{other}' (use f1, e1..e17 or all)");
                Vec::new()
            }
        };
        for t in &tables {
            print!("{}", t.render());
        }
        all_tables.extend(tables);
    }
    // Machine-readable output.
    let json: Vec<serde_json::Value> = all_tables.iter().map(|t| t.to_json()).collect();
    if std::fs::create_dir_all("bench-results").is_ok() {
        let _ = std::fs::write(
            "bench-results/experiments.json",
            serde_json::to_string_pretty(&json).unwrap_or_default(),
        );
        println!("\n(wrote bench-results/experiments.json)");
    }
}

/// F1 — Figure 1: the QueenBee architecture wired end to end.
fn f1_architecture() -> Vec<Table> {
    let corpus = build_corpus(0xF1, 20);
    let mut qb = build_engine(32, 4, 0xF1);
    let accepted = publish_corpus(&mut qb, &corpus);
    let rank = qb.run_rank_round().expect("rank round");
    let workload = QueryWorkload::new(&corpus);
    let mut rng = DetRng::new(0xF1);
    let mut answered = 0;
    for q in workload.generate_batch(&corpus, &mut rng, 20) {
        if let Ok(out) = qb.search_request(SearchRequest::new(&q).route(RoutingPolicy::HashPeer(3)))
        {
            if !out.hits.is_empty() {
                answered += 1;
            }
        }
    }
    let stats = qb.chain.stats();
    let mut t = Table::new(
        "F1: architecture walkthrough (Figure 1) — every component exercised end to end",
        &["component", "evidence"],
    );
    t.row(&[
        "DWeb peers (simnet)".into(),
        format!("{} peers online", qb.net.len()),
    ]);
    t.row(&[
        "Kademlia DHT".into(),
        format!("{} nodes, routing tables populated", qb.dht.len()),
    ]);
    t.row(&[
        "Decentralized storage".into(),
        format!("{accepted} pages stored + replicated"),
    ]);
    t.row(&[
        "Blockchain + contracts".into(),
        format!(
            "height {}, {} ok txs, supply conserved = {}",
            stats.height,
            stats.ok_txs,
            stats.total_supply == qb_chain::GENESIS_SUPPLY
        ),
    ]);
    t.row(&[
        "Worker bees".into(),
        format!(
            "{} bees, {} indexing tasks rewarded",
            qb.bees().len(),
            qb.bees().iter().map(|b| b.tasks_rewarded).sum::<u64>()
        ),
    ]);
    t.row(&[
        "PageRank".into(),
        format!(
            "{} rounds, L1 error vs reference {:.2e}",
            rank.rounds, rank.l1_error_vs_reference
        ),
    ]);
    t.row(&[
        "Query frontend".into(),
        format!("{answered}/20 sample queries answered with results"),
    ]);
    vec![t]
}

/// E1 — latency and throughput: decentralized caching vs a central server.
fn e1_latency_throughput() -> Vec<Table> {
    // Part A: page fetch latency as a popular page gets cached by more peers.
    let mut qb = build_engine(64, 6, 0xE1);
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
        t_a.row(&[
            fetchers.to_string(),
            f2(stats.latency.as_millis_f64()),
            if stats.from_local {
                "local cache".into()
            } else {
                "remote peers".into()
            },
            qb.storage.pinned_holders(&root).len().to_string(),
        ]);
    }

    // Part B: query latency under increasing load, QueenBee vs centralized.
    let corpus = build_corpus(0xE1B, 80);
    let mut qb = build_engine(64, 6, 0xE1B);
    publish_corpus(&mut qb, &corpus);
    let mut central = CentralizedEngine::new(CentralizedConfig::default());
    central.crawl(&crawl_docs(&corpus, &HashMap::new()), SimInstant::ZERO);
    let workload = QueryWorkload::new(&corpus);
    let mut rng = DetRng::new(0xE1B);
    let queries = workload.generate_batch(&corpus, &mut rng, 60);
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
            if let Ok((_, lat)) = central.search(q, load, SimInstant::ZERO) {
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
            format!("{load:.0}"),
            f2(central_lat.p50().as_millis_f64()),
            f2(100.0 * central_ok as f64 / queries.len() as f64),
            f2(qb_lat.p50().as_millis_f64()),
            f2(100.0 * qb_ok as f64 / queries.len() as f64),
        ]);
    }
    vec![t_a, t_b]
}

/// E2 — resilience against node failures, partitions and DDoS.
fn e2_resilience() -> Vec<Table> {
    let corpus = build_corpus(0xE2, 60);
    let workload = QueryWorkload::new(&corpus);
    let mut t = Table::new(
        "E2: query availability under failures (fraction of peers failed; central server is peer 0)",
        &["failed_fraction", "queenbee_ok_%", "centralized_ok_%"],
    );
    for failed_fraction in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let mut qb = build_engine(64, 6, 0xE2 + (failed_fraction * 100.0) as u64);
        publish_corpus(&mut qb, &corpus);
        let mut central = CentralizedEngine::new(CentralizedConfig::default());
        central.crawl(&crawl_docs(&corpus, &HashMap::new()), SimInstant::ZERO);
        // Fail peers; bees are not protected (they are ordinary peers).
        let downed = qb.net.fail_fraction(failed_fraction, &[]);
        // The centralized service lives on peer 0: it fails if peer 0 failed.
        central.online = !downed.contains(&0);
        let mut rng = DetRng::new(0xE2);
        let queries = workload.generate_batch(&corpus, &mut rng, 50);
        let mut qb_ok = 0usize;
        let mut central_ok = 0usize;
        for (i, q) in queries.iter().enumerate() {
            // Query from a random online peer.
            let mut peer = (i * 7 % qb.net.len()) as u64;
            let mut tries = 0;
            while !qb.net.is_online(peer) && tries < qb.net.len() {
                peer = (peer + 1) % qb.net.len() as u64;
                tries += 1;
            }
            if qb
                .search_request(SearchRequest::new(q).route(RoutingPolicy::HashPeer(peer)))
                .map(|o| !o.hits.is_empty())
                .unwrap_or(false)
            {
                qb_ok += 1;
            }
            if central.search(q, 10.0, SimInstant::ZERO).is_ok() {
                central_ok += 1;
            }
        }
        t.row(&[
            f2(failed_fraction),
            f2(100.0 * qb_ok as f64 / queries.len() as f64),
            f2(100.0 * central_ok as f64 / queries.len() as f64),
        ]);
    }

    // Partition: split the network in two; the central server is only in one half.
    let mut t_p = Table::new(
        "E2b: behaviour under a network partition (two halves)",
        &["scenario", "queenbee_ok_%", "centralized_ok_%"],
    );
    let mut qb = build_engine(64, 6, 0xE2B);
    publish_corpus(&mut qb, &corpus);
    let mut central = CentralizedEngine::new(CentralizedConfig::default());
    central.crawl(&crawl_docs(&corpus, &HashMap::new()), SimInstant::ZERO);
    let mut rng = DetRng::new(0xE2B);
    let queries = workload.generate_batch(&corpus, &mut rng, 40);
    for (scenario, partitioned) in [("no partition", false), ("2-way partition", true)] {
        if partitioned {
            qb.net.partition_round_robin(2);
        } else {
            qb.net.heal_all();
        }
        let mut qb_ok = 0;
        let mut central_ok = 0;
        for (i, q) in queries.iter().enumerate() {
            let peer = (i % 60) as u64;
            if qb
                .search_request(SearchRequest::new(q).route(RoutingPolicy::HashPeer(peer)))
                .map(|o| !o.hits.is_empty())
                .unwrap_or(false)
            {
                qb_ok += 1;
            }
            // Clients in the other partition cannot reach the central server.
            let reachable = !partitioned || qb.net.partition_of(peer) == qb.net.partition_of(0);
            if reachable && central.search(q, 10.0, SimInstant::ZERO).is_ok() {
                central_ok += 1;
            }
        }
        t_p.row(&[
            scenario.to_string(),
            f2(100.0 * qb_ok as f64 / queries.len() as f64),
            f2(100.0 * central_ok as f64 / queries.len() as f64),
        ]);
    }
    vec![t, t_p]
}

/// E3 — freshness: publish-driven indexing vs crawling.
fn e3_freshness() -> Vec<Table> {
    let corpus = build_corpus(0xE3, 50);
    let mut t = Table::new(
        "E3: result staleness under a continuous update stream (2h of simulated edits)",
        &[
            "system",
            "crawl_interval",
            "stale_results_%",
            "mean_version_lag",
        ],
    );
    // QueenBee: bees index every publish event as it happens.
    let mut qb = build_engine(64, 6, 0xE3);
    publish_corpus(&mut qb, &corpus);
    let stream = UpdateStream::new(&corpus, SimDuration::from_secs(120));
    let mut rng = DetRng::new(0xE3);
    let horizon = SimInstant::ZERO + SimDuration::from_secs(7_200);
    let updates = stream.generate(&mut rng, SimInstant::ZERO, horizon);
    // Track the current version and text of every page for the baselines.
    let mut current: HashMap<String, (u64, String)> = HashMap::new();
    let mut current_pages: HashMap<String, WebPage> = corpus
        .pages
        .iter()
        .map(|p| (p.name.clone(), p.clone()))
        .collect();

    let crawl_intervals = [
        ("30 min", SimDuration::from_secs(1_800)),
        ("2 h", SimDuration::from_secs(7_200)),
        ("6 h", SimDuration::from_secs(21_600)),
    ];
    let mut yacy_engines: Vec<YacyEngine> = crawl_intervals
        .iter()
        .map(|(_, interval)| {
            YacyEngine::new(YacyConfig {
                num_peers: 16,
                crawl_interval: *interval,
                ..YacyConfig::default()
            })
        })
        .collect();
    let mut central_engines: Vec<CentralizedEngine> = crawl_intervals
        .iter()
        .map(|(_, interval)| {
            CentralizedEngine::new(CentralizedConfig {
                crawl_interval: *interval,
                ..CentralizedConfig::default()
            })
        })
        .collect();
    // Initial crawl of the original corpus.
    let initial_docs = crawl_docs(&corpus, &current);
    for e in yacy_engines.iter_mut() {
        e.crawl(&initial_docs, SimInstant::ZERO);
    }
    for e in central_engines.iter_mut() {
        e.crawl(&initial_docs, SimInstant::ZERO);
    }

    let mut last = SimInstant::ZERO;
    for update in &updates {
        qb.advance_time(update.at.since(last));
        last = update.at;
        let page = &current_pages[&corpus.pages[update.page_index].name];
        let new_version = mutate_page(page, update.seq, &mut rng);
        let creator = AccountId(corpus.creators[update.page_index]);
        let peer = (update.page_index % 50) as u64;
        qb.publish(peer, creator, &new_version).expect("republish");
        qb.seal();
        qb.process_publish_events().expect("reindex");
        let registered_version = qb
            .chain
            .publish_registry()
            .get(&new_version.name)
            .map(|r| r.version)
            .unwrap_or(1);
        current.insert(
            new_version.name.clone(),
            (registered_version, new_version.text()),
        );
        current_pages.insert(new_version.name.clone(), new_version);
        // Crawlers wake up on their own schedule.
        let docs = crawl_docs(&corpus, &current);
        for e in yacy_engines.iter_mut() {
            e.maybe_crawl(&docs, update.at);
        }
        for e in central_engines.iter_mut() {
            e.maybe_crawl(&docs, update.at);
        }
    }

    // Measure staleness with grounded queries at the end of the window.
    let workload = QueryWorkload::new(&corpus);
    let queries = workload.generate_batch(&corpus, &mut rng, 80);
    let staleness = |results: &[qb_index::ScoredDoc]| -> (u64, u64, u64) {
        let mut fresh = 0;
        let mut stale = 0;
        let mut lag = 0;
        for r in results {
            let cur = current.get(&r.name).map(|(v, _)| *v).unwrap_or(1);
            if r.version >= cur {
                fresh += 1;
            } else {
                stale += 1;
                lag += cur - r.version;
            }
        }
        (fresh, stale, lag)
    };

    // QueenBee staleness (its probe already tracks every search it serves).
    let mut qb_fresh = 0u64;
    let mut qb_stale = 0u64;
    let mut qb_lag = 0u64;
    for (i, q) in queries.iter().enumerate() {
        if let Ok(out) =
            qb.search_request(SearchRequest::new(q).route(RoutingPolicy::HashPeer((i % 50) as u64)))
        {
            let (f, s, l) = staleness(&out.hits);
            qb_fresh += f;
            qb_stale += s;
            qb_lag += l;
        }
    }
    let qb_total = (qb_fresh + qb_stale).max(1);
    t.row(&[
        "QueenBee (publish-driven)".into(),
        "n/a".into(),
        f2(100.0 * qb_stale as f64 / qb_total as f64),
        f4(qb_lag as f64 / qb_total as f64),
    ]);

    let mut measure_net = qb.net; // reuse the simulated network for YaCy RPC latencies
    for (idx, (label, _)) in crawl_intervals.iter().enumerate() {
        let mut fresh = 0u64;
        let mut stale = 0u64;
        let mut lag = 0u64;
        for (i, q) in queries.iter().enumerate() {
            if let Ok((results, _, _)) =
                yacy_engines[idx].search(&mut measure_net, (i % 50) as u64, q)
            {
                let (f, s, l) = staleness(&results);
                fresh += f;
                stale += s;
                lag += l;
            }
        }
        let total = (fresh + stale).max(1);
        t.row(&[
            "YaCy-style (crawling P2P)".into(),
            label.to_string(),
            f2(100.0 * stale as f64 / total as f64),
            f4(lag as f64 / total as f64),
        ]);
    }
    for (idx, (label, _)) in crawl_intervals.iter().enumerate() {
        let mut fresh = 0u64;
        let mut stale = 0u64;
        let mut lag = 0u64;
        for q in &queries {
            if let Ok((results, _)) = central_engines[idx].search(q, 10.0, horizon) {
                let (f, s, l) = staleness(&results);
                fresh += f;
                stale += s;
                lag += l;
            }
        }
        let total = (fresh + stale).max(1);
        t.row(&[
            "Centralized (crawling)".into(),
            label.to_string(),
            f2(100.0 * stale as f64 / total as f64),
            f4(lag as f64 / total as f64),
        ]);
    }
    vec![t]
}

/// E4 — tamper-proof content: detection of corrupted replicas.
fn e4_tamper() -> Vec<Table> {
    let mut t = Table::new(
        "E4: tamper injection on stored replicas (detection = corrupted bytes never served as valid)",
        &["replicas_corrupted", "fetch_outcome", "tampering_served_undetected"],
    );
    for corrupt_all in [false, true] {
        let mut qb = build_engine(48, 4, 0xE4 + corrupt_all as u64);
        let page = WebPage::new(
            "bank/login",
            "Bank login",
            (0..150).map(|i| format!("legit{} ", i)).collect::<String>(),
            vec![],
        );
        let report = qb.publish(1, AccountId(1_000), &page).expect("publish");
        qb.seal();
        let root = report.object.expect("object").root;
        let holders = qb.storage.pinned_holders(&root);
        let to_corrupt = if corrupt_all {
            holders.len()
        } else {
            holders.len() / 2
        };
        for h in holders.iter().take(to_corrupt) {
            qb.storage
                .corrupt_pinned(*h, &root, b"<html>phishing</html>".to_vec());
        }
        let outcome = qb.storage.get_object(&mut qb.net, &mut qb.dht, 30, root);
        let (desc, undetected) = match outcome {
            Ok((bytes, _)) => {
                let served_corrupt = !String::from_utf8_lossy(&bytes).contains("legit0");
                ("served verified original".to_string(), served_corrupt)
            }
            Err(e) => (format!("rejected: {e}"), false),
        };
        t.row(&[
            format!("{to_corrupt}/{}", holders.len()),
            desc,
            if undetected {
                "YES (failure)".into()
            } else {
                "no".into()
            },
        ]);
    }
    vec![t]
}

/// E5 — the incentive scheme: honey flows between stakeholders.
fn e5_incentives() -> Vec<Table> {
    let corpus = build_corpus(0xE5, 60);
    let mut qb = build_engine(64, 6, 0xE5);
    publish_corpus(&mut qb, &corpus);
    qb.run_rank_round().expect("rank round");
    // Advertisers join and users click ads during a query session.
    let ad_workload = AdvertiserWorkload::new(&corpus, 8);
    let mut rng = DetRng::new(0xE5);
    for spec in ad_workload.generate(&corpus, &mut rng) {
        qb.register_advertiser(&spec).expect("campaign");
    }
    let workload = QueryWorkload::new(&corpus);
    let mut clicks = 0;
    for (i, q) in workload
        .generate_batch(&corpus, &mut rng, 150)
        .iter()
        .enumerate()
    {
        if let Ok(out) =
            qb.search_request(SearchRequest::new(q).route(RoutingPolicy::HashPeer((i % 50) as u64)))
        {
            if out.ad.is_some()
                && ad_workload.user_clicks(&mut rng)
                && qb.click_ad(&out).unwrap_or(false)
            {
                clicks += 1;
            }
        }
    }
    // Another rank round pays popularity rewards with the final ranks.
    qb.run_rank_round().expect("second rank round");

    let roles = qb.honey_by_role();
    let mut t = Table::new(
        "E5a: honey distribution by stakeholder after a full economy run",
        &["role", "honey (nectar)", "share_of_circulating_%"],
    );
    let circulating = (roles.total() - roles.treasury).max(1);
    for (role, amount) in [
        ("content creators", roles.creators),
        ("worker bees", roles.bees),
        ("advertisers (unspent)", roles.advertisers),
        ("other (escrow, validators)", roles.other),
    ] {
        t.row(&[
            role.to_string(),
            amount.to_string(),
            f2(100.0 * amount as f64 / circulating as f64),
        ]);
    }
    t.row(&["treasury".into(), roles.treasury.to_string(), "-".into()]);
    t.row(&["ad clicks charged".into(), clicks.to_string(), "-".into()]);

    // Fairness: do rewards track popularity? Compare creator honey with the
    // summed rank of their pages, and report Gini coefficients.
    let mut creator_rank: HashMap<u64, f64> = HashMap::new();
    for p in qb.chain.publish_registry().pages() {
        *creator_rank.entry(p.creator.0).or_insert(0.0) += qb.rank_of(&p.name);
    }
    let creator_balances: Vec<(u64, u64)> = qb
        .creator_accounts()
        .iter()
        .map(|a| (a.0, qb.chain.balance(*a)))
        .collect();
    // Spearman-ish check: correlation between rank mass and balance.
    let n = creator_balances.len() as f64;
    let mean_rank: f64 = creator_rank.values().sum::<f64>() / n.max(1.0);
    let mean_bal: f64 = creator_balances.iter().map(|(_, b)| *b as f64).sum::<f64>() / n.max(1.0);
    let mut cov = 0.0;
    let mut var_r = 0.0;
    let mut var_b = 0.0;
    for (acct, bal) in &creator_balances {
        let r = creator_rank.get(acct).copied().unwrap_or(0.0);
        cov += (r - mean_rank) * (*bal as f64 - mean_bal);
        var_r += (r - mean_rank).powi(2);
        var_b += (*bal as f64 - mean_bal).powi(2);
    }
    let correlation = if var_r > 0.0 && var_b > 0.0 {
        cov / (var_r.sqrt() * var_b.sqrt())
    } else {
        0.0
    };
    let mut t2 = Table::new("E5b: fairness indicators", &["metric", "value"]);
    t2.row(&["creators".into(), creator_balances.len().to_string()]);
    t2.row(&[
        "corr(creator rank mass, creator honey)".into(),
        f2(correlation),
    ]);
    t2.row(&[
        "Gini(creator honey)".into(),
        f2(gini_coefficient(
            &creator_balances.iter().map(|(_, b)| *b).collect::<Vec<_>>(),
        )),
    ]);
    t2.row(&[
        "Gini(bee honey)".into(),
        f2(gini_coefficient(
            &qb.bee_accounts()
                .iter()
                .map(|a| qb.chain.balance(*a))
                .collect::<Vec<_>>(),
        )),
    ]);
    t2.row(&[
        "total supply conserved".into(),
        (qb.chain.accounts().total_supply() == qb_chain::GENESIS_SUPPLY).to_string(),
    ]);
    vec![t, t2]
}

/// E6 — collusion attack on index and rank data vs the verification quorum.
fn e6_collusion() -> Vec<Table> {
    let mut t = Table::new(
        "E6: collusion attack (bees boosting 'evil/spam') vs verification quorum",
        &[
            "colluding_fraction",
            "quorum",
            "spam_in_top3_%",
            "rank_inflation_x",
            "colluders_flagged",
            "honey_slashed",
        ],
    );
    let corpus = build_corpus(0xE6, 30);
    for &fraction in &[0.0, 0.25, 0.5] {
        for &quorum in &[1usize, 3] {
            let mut config = qb_queenbee::QueenBeeConfig::small();
            config.num_peers = 48;
            config.num_bees = 8;
            config.index_quorum = quorum;
            config.rank.quorum = quorum;
            config.seed = 0xE6 ^ ((fraction * 100.0) as u64) ^ ((quorum as u64) << 32);
            let mut qb = qb_bench::build_engine_with(config);
            publish_corpus(&mut qb, &corpus);
            // The coalition's page is published like any other page.
            let spam = WebPage::new(
                "evil/spam",
                "Totally legitimate page",
                "buy cheap honey now best deals spam spam",
                vec![],
            );
            qb.publish(1, AccountId(6_000), &spam)
                .expect("publish spam");
            qb.seal();
            let attack = CollusionAttack::new(fraction, vec!["evil/spam".into()]);
            qb.apply_collusion(&attack);
            let stake_before: u64 = qb
                .bee_accounts()
                .iter()
                .map(|a| qb.chain.reward_pool().stake_of(*a))
                .sum();
            qb.process_publish_events().expect("index");
            let honest_rank = {
                // Reference rank of the spam page with no attack: recompute on
                // a clean engine sharing the same registry is costly; instead
                // use the page's rank under quorum defense with 0 colluders as
                // the baseline when fraction == 0.
                qb.run_rank_round().expect("rank").ranks.clone()
            };
            let _ = honest_rank;
            let spam_rank = qb.rank_of("evil/spam");
            let uniform = 1.0 / qb.chain.publish_registry().len().max(1) as f64;
            let workload = QueryWorkload::new(&corpus);
            let mut rng = DetRng::new(0xE6);
            let queries = workload.generate_batch(&corpus, &mut rng, 30);
            let mut spam_hits = 0;
            let mut answered = 0;
            for (i, q) in queries.iter().enumerate() {
                if let Ok(out) = qb.search_request(
                    SearchRequest::new(q).route(RoutingPolicy::HashPeer((i % 40) as u64)),
                ) {
                    answered += 1;
                    if out.hits.iter().take(3).any(|r| r.name == "evil/spam") {
                        spam_hits += 1;
                    }
                }
            }
            let stake_after: u64 = qb
                .bee_accounts()
                .iter()
                .map(|a| qb.chain.reward_pool().stake_of(*a))
                .sum();
            let flagged = qb
                .bees()
                .iter()
                .filter(|b| b.times_flagged > 0 && b.is_colluding())
                .count();
            t.row(&[
                f2(fraction),
                quorum.to_string(),
                f2(100.0 * spam_hits as f64 / answered.max(1) as f64),
                f2(spam_rank / uniform),
                format!("{flagged}/{}", attack.colluders(8)),
                (stake_before - stake_after).to_string(),
            ]);
        }
    }
    vec![t]
}

/// E7 — scraper-site attack vs duplicate detection.
fn e7_scraper() -> Vec<Table> {
    let mut t = Table::new(
        "E7: scraper mirrors the 10 most popular pages to capture honey",
        &[
            "duplicate_detection",
            "mirrors_accepted",
            "scraper_honey",
            "original_creators_honey",
        ],
    );
    let corpus = build_corpus(0xE7, 40);
    for dup_detection in [true, false] {
        let mut config = qb_queenbee::QueenBeeConfig::small();
        config.num_peers = 48;
        config.num_bees = 6;
        config.duplicate_detection = dup_detection;
        config.seed = 0xE7 + dup_detection as u64;
        let mut qb = qb_bench::build_engine_with(config);
        publish_corpus(&mut qb, &corpus);
        qb.run_rank_round().expect("rank");
        // Pick the 10 highest-ranked victim pages.
        let mut ranked: Vec<&WebPage> = corpus.pages.iter().collect();
        ranked.sort_by(|a, b| {
            qb.rank_of(&b.name)
                .partial_cmp(&qb.rank_of(&a.name))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let victims: Vec<WebPage> = ranked.iter().take(10).map(|p| (*p).clone()).collect();
        let scraper_account = 6_666u64;
        let attack = ScraperAttack::new(scraper_account, 10);
        let reports = qb.run_scraper_attack(&attack, &victims).expect("scrape");
        let accepted = reports.iter().filter(|r| r.accepted).count();
        qb.process_publish_events().expect("index");
        qb.run_rank_round().expect("rank after attack");
        let scraper_honey = qb.chain.balance(AccountId(scraper_account));
        let creators_honey: u64 = qb
            .creator_accounts()
            .iter()
            .filter(|a| a.0 != scraper_account)
            .map(|a| qb.chain.balance(*a))
            .sum();
        t.row(&[
            dup_detection.to_string(),
            format!("{accepted}/10"),
            scraper_honey.to_string(),
            creators_honey.to_string(),
        ]);
    }
    vec![t]
}

/// E9 — the query-serving cache: replay a Zipf(1.0) query stream with the
/// cache on vs off and measure the latency / RPC-message / shard-fetch
/// reductions, plus freshness under interleaved republishes.
fn e9_cache(quick: bool) -> Vec<Table> {
    use qb_queenbee::CacheConfig;
    use qb_workload::ZipfSampler;

    let (num_pages, pool_size, stream_len) = if quick { (40, 60, 240) } else { (80, 120, 600) };
    let corpus = build_corpus(0xE9, num_pages);
    let workload = QueryWorkload::new(&corpus);
    // A fixed pool of distinct queries replayed with Zipf(1.0) popularity:
    // the hot head repeats constantly, the tail is mostly one-shot.
    let mut rng = DetRng::new(0xE9);
    let pool = workload.generate_batch(&corpus, &mut rng, pool_size);
    let zipf = ZipfSampler::new(pool.len(), 1.0);
    let stream: Vec<usize> = {
        let mut rng = DetRng::new(0xE9F);
        (0..stream_len).map(|_| zipf.sample(&mut rng)).collect()
    };

    let run = |cache: CacheConfig| -> (f64, u64, u64, u64, u64, Option<qb_queenbee::CacheMetrics>) {
        let mut config = qb_queenbee::QueenBeeConfig::small();
        config.num_peers = 64;
        config.num_bees = 6;
        config.seed = 0xE9;
        config.cache = cache;
        let mut qb = qb_bench::build_engine_with(config);
        publish_corpus(&mut qb, &corpus);
        let mut rng = DetRng::new(0xE9A);
        let mut latency = LatencyHistogram::new();
        let mut messages = 0u64;
        let mut shard_fetches = 0u64;
        let mut answered = 0u64;
        for (i, &q) in stream.iter().enumerate() {
            // Every 100 queries a popular page is republished, exercising
            // publish-path invalidation mid-stream.
            if i > 0 && i % 100 == 0 {
                let victim = i / 100 % corpus.pages.len();
                let page = &corpus.pages[victim];
                let updated = mutate_page(page, i as u64, &mut rng);
                let creator = AccountId(corpus.creators[victim]);
                qb.publish((victim % 50) as u64, creator, &updated)
                    .expect("republish");
                qb.seal();
                qb.process_publish_events().expect("reindex");
            }
            qb.advance_time(SimDuration::from_millis(50));
            if let Ok(out) = qb.search_request(
                SearchRequest::new(&pool[q]).route(RoutingPolicy::HashPeer((i % 50) as u64)),
            ) {
                latency.record(out.latency);
                messages += out.messages();
                shard_fetches += out.shards_fetched() as u64;
                answered += 1;
            }
        }
        (
            latency.mean().as_millis_f64(),
            messages,
            shard_fetches,
            answered,
            qb.freshness.stale_results,
            qb.cache_metrics(),
        )
    };

    let (off_lat, off_msgs, off_fetches, off_ok, off_stale, _) = run(CacheConfig::default());
    let (on_lat, on_msgs, on_fetches, on_ok, on_stale, metrics) = run(CacheConfig::enabled());

    // Regression guard for the CI smoke job: the cache must keep paying for
    // itself and must never serve anything stale.
    assert!(
        on_msgs < off_msgs / 2,
        "E9: cache must at least halve RPC messages ({on_msgs} vs {off_msgs})"
    );
    assert_eq!(
        off_stale, 0,
        "E9: uncached engine served {off_stale} stale results"
    );
    assert_eq!(on_stale, 0, "E9: cache served {on_stale} stale results");

    let title = format!(
        "E9a: Zipf(1.0) query stream ({stream_len} queries, {pool_size}-query pool), cache off vs on"
    );
    let mut t = Table::new(
        &title,
        &[
            "config",
            "mean_latency_ms",
            "rpc_messages",
            "shard_fetches",
            "answered",
            "stale_results",
        ],
    );
    t.row(&[
        "cache off".into(),
        f2(off_lat),
        off_msgs.to_string(),
        off_fetches.to_string(),
        off_ok.to_string(),
        off_stale.to_string(),
    ]);
    t.row(&[
        "cache on".into(),
        f2(on_lat),
        on_msgs.to_string(),
        on_fetches.to_string(),
        on_ok.to_string(),
        on_stale.to_string(),
    ]);
    t.row(&[
        "reduction".into(),
        format!("{:.1}x", off_lat / on_lat.max(1e-9)),
        format!(
            "-{:.1}%",
            100.0 * (1.0 - on_msgs as f64 / off_msgs.max(1) as f64)
        ),
        format!(
            "-{:.1}%",
            100.0 * (1.0 - on_fetches as f64 / off_fetches.max(1) as f64)
        ),
        "-".into(),
        "-".into(),
    ]);

    let mut t2 = Table::new(
        "E9b: per-tier cache counters after the stream",
        &[
            "tier",
            "hits",
            "lookups",
            "hit_rate_%",
            "insertions",
            "evictions",
            "invalidations",
        ],
    );
    if let Some(m) = metrics {
        for (name, tier) in qb_queenbee::CacheReport(m).rows() {
            t2.row(&[
                name.to_string(),
                tier.hits.to_string(),
                tier.lookups().to_string(),
                f2(100.0 * tier.hit_rate()),
                tier.insertions.to_string(),
                tier.evictions.to_string(),
                tier.invalidations.to_string(),
            ]);
        }
    }
    vec![t, t2]
}

/// E10 — cooperative cache gossip: N frontends under one shared Zipf(1.0)
/// stream, gossip off vs on. With gossip, one frontend's DHT shard fetch
/// warms the whole fleet, so per-frontend cold starts shrink and aggregate
/// DHT traffic collapses — at a measured gossip byte overhead and with the
/// version guard keeping staleness-served at exactly zero.
fn e10_gossip(quick: bool) -> Vec<Table> {
    use qb_queenbee::{CacheConfig, GossipConfig, GossipStats};
    use qb_workload::ZipfSampler;

    const FLEET: usize = 8;
    /// A frontend's first queries count as its cold-start window.
    const COLD_WINDOW: usize = 5;
    let (num_pages, pool_size, stream_len) = if quick { (40, 60, 240) } else { (80, 120, 600) };
    let corpus = build_corpus(0xE10, num_pages);
    let workload = QueryWorkload::new(&corpus);
    let mut rng = DetRng::new(0xE10);
    let pool = workload.generate_batch(&corpus, &mut rng, pool_size);
    let zipf = ZipfSampler::new(pool.len(), 1.0);
    let stream: Vec<usize> = {
        let mut rng = DetRng::new(0xE10F);
        (0..stream_len).map(|_| zipf.sample(&mut rng)).collect()
    };

    struct FleetRun {
        cold_start_ms: f64,
        mean_ms: f64,
        messages: u64,
        shard_fetches: u64,
        stale: u64,
        gossip: Option<GossipStats>,
    }

    let run = |gossip_on: bool| -> FleetRun {
        let mut config = qb_queenbee::QueenBeeConfig::small();
        config.num_peers = 64;
        config.num_bees = 6;
        config.seed = 0xE10;
        config.cache = CacheConfig::enabled();
        config.gossip = if gossip_on {
            GossipConfig::enabled(FLEET)
        } else {
            GossipConfig::fleet(FLEET)
        };
        let mut qb = qb_bench::build_engine_with(config);
        publish_corpus(&mut qb, &corpus);
        let mut rng = DetRng::new(0xE10A);
        let mut all = LatencyHistogram::new();
        let mut cold: Vec<LatencyHistogram> = (0..FLEET).map(|_| LatencyHistogram::new()).collect();
        let mut served = [0usize; FLEET];
        let mut messages = 0u64;
        let mut shard_fetches = 0u64;
        for (i, &q) in stream.iter().enumerate() {
            // Mid-stream republishes race the gossip rounds: the version
            // guard and publish-path invalidation must keep every served
            // result fresh.
            if i > 0 && i % 100 == 0 {
                let victim = i / 100 % corpus.pages.len();
                let page = &corpus.pages[victim];
                let updated = mutate_page(page, i as u64, &mut rng);
                let creator = AccountId(corpus.creators[victim]);
                qb.publish((20 + victim % 30) as u64, creator, &updated)
                    .expect("republish");
                qb.seal();
                qb.process_publish_events().expect("reindex");
            }
            qb.advance_time(SimDuration::from_millis(50));
            // One shared stream, served round-robin across the fleet.
            let frontend = i % FLEET;
            if let Ok(out) = qb
                .search_request(SearchRequest::new(&pool[q]).route(RoutingPolicy::Direct(frontend)))
            {
                all.record(out.latency);
                if served[frontend] < COLD_WINDOW {
                    cold[frontend].record(out.latency);
                }
                served[frontend] += 1;
                messages += out.messages();
                shard_fetches += out.shards_fetched() as u64;
            }
        }
        FleetRun {
            cold_start_ms: cold.iter().map(|r| r.mean().as_millis_f64()).sum::<f64>()
                / FLEET as f64,
            mean_ms: all.mean().as_millis_f64(),
            messages,
            shard_fetches,
            stale: qb.freshness.stale_results,
            gossip: qb.gossip_stats(),
        }
    };

    let off = run(false);
    let on = run(true);
    let gossip = on.gossip.expect("gossip run has a fleet");

    // Acceptance criteria, asserted so the CI smoke job catches regressions.
    assert_eq!(off.stale, 0, "E10: gossip-off fleet served stale results");
    assert_eq!(on.stale, 0, "E10: gossip-on fleet served stale results");
    assert!(
        (on.shard_fetches as f64) <= 0.7 * off.shard_fetches as f64,
        "E10: gossip must save >=30% of DHT shard fetches ({} vs {})",
        on.shard_fetches,
        off.shard_fetches
    );

    let title = format!(
        "E10a: {FLEET}-frontend fleet on a shared Zipf(1.0) stream ({stream_len} queries), gossip off vs on"
    );
    let mut t = Table::new(
        &title,
        &[
            "config",
            "cold_start_ms",
            "mean_latency_ms",
            "rpc_messages",
            "dht_shard_fetches",
            "gossip_bytes",
            "stale_results",
        ],
    );
    for (label, r, bytes) in [
        ("gossip off", &off, 0u64),
        ("gossip on", &on, gossip.total_bytes()),
    ] {
        t.row(&[
            label.into(),
            f2(r.cold_start_ms),
            f2(r.mean_ms),
            r.messages.to_string(),
            r.shard_fetches.to_string(),
            bytes.to_string(),
            r.stale.to_string(),
        ]);
    }
    t.row(&[
        "reduction".into(),
        format!("{:.1}x", off.cold_start_ms / on.cold_start_ms.max(1e-9)),
        format!("{:.1}x", off.mean_ms / on.mean_ms.max(1e-9)),
        format!(
            "-{:.1}%",
            100.0 * (1.0 - on.messages as f64 / off.messages.max(1) as f64)
        ),
        format!(
            "-{:.1}%",
            100.0 * (1.0 - on.shard_fetches as f64 / off.shard_fetches.max(1) as f64)
        ),
        "-".into(),
        "-".into(),
    ]);

    let mut t2 = Table::new("E10b: gossip overlay counters", &["counter", "value"]);
    for (name, value) in [
        ("rounds (hot-set)", gossip.rounds),
        ("rounds (anti-entropy)", gossip.anti_entropy_rounds),
        ("exchanges ok", gossip.exchanges),
        ("exchanges failed", gossip.failed_exchanges),
        ("fill batches dropped", gossip.failed_fills),
        ("shards pushed", gossip.shards_pushed),
        ("shards accepted", gossip.shards_accepted),
        ("stale fills rejected", gossip.stale_rejected),
        ("duplicate fills skipped", gossip.duplicates_skipped),
        ("digest bytes", gossip.digest_bytes),
        ("fill bytes", gossip.fill_bytes),
    ] {
        t2.row(&[name.to_string(), value.to_string()]);
    }
    vec![t, t2]
}

/// E11 — batched vs sequential execution of the same Zipf(1.0) query
/// stream. A batch window plans every request first, fetches each distinct
/// missing term shard once and fans it out to every query in the window, so
/// concurrent queries sharing hot head terms collapse to one DHT round-trip.
/// The cache is disabled in both runs to isolate the cross-query sharing
/// (the cache covers *repeats over time*; batching covers *concurrency*).
///
/// Reading the latency columns: sequential execution re-fetches hot shards
/// hundreds of times, and every fetch pins more replicas of the backing
/// object on nearby peers (the E1a popularity effect), so its p50 drifts
/// down over the stream. Batching removes exactly those repeat fetches, so
/// each window's queries wait on one colder fetch per term instead —
/// per-query p50 can sit higher while aggregate DHT traffic collapses.
/// With the query cache enabled (every production config), repeats are
/// served locally and this tradeoff disappears; what batching then adds is
/// the cross-query dedup of cold misses measured here.
fn e11_batch(quick: bool) -> Vec<Table> {
    use qb_workload::ZipfSampler;

    const WINDOW: usize = 32;
    let (num_pages, pool_size, stream_len) = if quick { (40, 60, 256) } else { (80, 120, 640) };
    let corpus = build_corpus(0xE11, num_pages);
    let workload = QueryWorkload::new(&corpus);
    let mut rng = DetRng::new(0xE11);
    let pool = workload.generate_batch(&corpus, &mut rng, pool_size);
    let zipf = ZipfSampler::new(pool.len(), 1.0);
    let stream: Vec<usize> = {
        let mut rng = DetRng::new(0xE11F);
        (0..stream_len).map(|_| zipf.sample(&mut rng)).collect()
    };

    let build = || {
        let mut config = qb_queenbee::QueenBeeConfig::small();
        config.num_peers = 64;
        config.num_bees = 6;
        config.seed = 0xE11;
        let mut qb = qb_bench::build_engine_with(config);
        publish_corpus(&mut qb, &corpus);
        qb
    };
    let request = |i: usize, q: usize| {
        SearchRequest::new(pool[q].as_str()).route(RoutingPolicy::HashPeer((i % 50) as u64))
    };

    struct RunStats {
        latency: LatencyHistogram,
        messages: u64,
        fetches: u64,
        shared: u64,
        hits: Vec<Vec<qb_index::ScoredDoc>>,
    }
    let tally = |responses: Vec<qb_queenbee::SearchResponse>, run: &mut RunStats| {
        for resp in responses {
            run.latency.record(resp.latency);
            run.messages += resp.messages();
            run.fetches += resp.shards_fetched() as u64;
            run.shared += resp.batch_shared() as u64;
            run.hits.push(resp.hits);
        }
    };

    // Sequential: every query is its own window of one.
    let mut seq = RunStats {
        latency: LatencyHistogram::new(),
        messages: 0,
        fetches: 0,
        shared: 0,
        hits: Vec::new(),
    };
    let mut qb = build();
    for (i, &q) in stream.iter().enumerate() {
        qb.advance_time(SimDuration::from_millis(50));
        let resp = qb.search_request(request(i, q)).expect("sequential query");
        tally(vec![resp], &mut seq);
    }

    // Batched: the same stream in windows of `WINDOW` concurrent queries.
    let mut batch = RunStats {
        latency: LatencyHistogram::new(),
        messages: 0,
        fetches: 0,
        shared: 0,
        hits: Vec::new(),
    };
    let mut qb = build();
    for (w, window) in stream.chunks(WINDOW).enumerate() {
        qb.advance_time(SimDuration::from_millis(50));
        let requests: Vec<_> = window
            .iter()
            .enumerate()
            .map(|(j, &q)| request(w * WINDOW + j, q))
            .collect();
        let responses = qb.search_batch(requests).expect("batch window");
        tally(responses, &mut batch);
    }

    // Acceptance criteria, asserted so the CI smoke job catches regressions:
    // batching must save >=30% of DHT shard fetches and cut total RPC
    // messages, without changing a single result byte.
    assert_eq!(seq.hits.len(), batch.hits.len());
    for (i, (a, b)) in seq.hits.iter().zip(&batch.hits).enumerate() {
        assert_eq!(
            a, b,
            "E11: query {i} ('{}') must rank identically in both runs",
            pool[stream[i]]
        );
    }
    assert!(
        (batch.fetches as f64) <= 0.7 * seq.fetches as f64,
        "E11: batching must save >=30% of DHT shard fetches ({} vs {})",
        batch.fetches,
        seq.fetches
    );
    assert!(
        batch.messages < seq.messages,
        "E11: batching must cut total RPC messages ({} vs {})",
        batch.messages,
        seq.messages
    );

    let title = format!(
        "E11: batched (window {WINDOW}) vs sequential execution of one Zipf(1.0) stream \
         ({stream_len} queries, {pool_size}-query pool, cache off)"
    );
    let mut t = Table::new(
        &title,
        &[
            "config",
            "p50_ms",
            "p99_ms",
            "rpc_messages",
            "dht_shard_fetches",
            "window_shared_shards",
        ],
    );
    for (label, run) in [("sequential", &seq), ("batched", &batch)] {
        t.row(&[
            label.into(),
            f2(run.latency.p50().as_millis_f64()),
            f2(run.latency.p99().as_millis_f64()),
            run.messages.to_string(),
            run.fetches.to_string(),
            run.shared.to_string(),
        ]);
    }
    t.row(&[
        "reduction".into(),
        format!(
            "{:.1}x",
            seq.latency.p50().as_millis_f64() / batch.latency.p50().as_millis_f64().max(1e-9)
        ),
        format!(
            "{:.1}x",
            seq.latency.p99().as_millis_f64() / batch.latency.p99().as_millis_f64().max(1e-9)
        ),
        format!(
            "-{:.1}%",
            100.0 * (1.0 - batch.messages as f64 / seq.messages.max(1) as f64)
        ),
        format!(
            "-{:.1}%",
            100.0 * (1.0 - batch.fetches as f64 / seq.fetches.max(1) as f64)
        ),
        "-".into(),
    ]);
    vec![t]
}

/// E12 — the gossip overlay at fleet scale, under churn and latency zones.
/// A 16-frontend (32 in full mode) fleet spread over 4 latency zones serves
/// a shared Zipf(1.0) stream with mid-stream republishes while frontends
/// crash, restart and join. Two runs compare the digest encodings: full
/// hot-set digests (the PR 2 protocol) vs delta digests + holdings filter.
///
/// Asserted acceptance criteria (the CI smoke job runs this quick):
/// * steady-state gossip digest bytes drop >= 5x under delta digests,
/// * a newly joined frontend reaches >= 80% of the fleet's steady-state
///   cache hit rate within 3 gossip rounds of its bootstrap exchange —
///   warmed by the fleet, never by direct DHT pre-warming,
/// * stale results served stay exactly 0 through all the churn.
fn e12_churn(quick: bool) -> Vec<Table> {
    use qb_queenbee::{CacheConfig, DigestMode, GossipConfig};
    use qb_simnet::NetConfig;
    use qb_workload::ZipfSampler;

    const ZONES: usize = 4;
    const JOIN_PROBES: usize = 30;
    const JOIN_ROUNDS: usize = 3;
    let fleet_n: usize = if quick { 16 } else { 32 };
    let (num_pages, pool_size, warm_len, steady_len, churn_len) = if quick {
        (40, 60, 160, 160, 96)
    } else {
        (80, 120, 400, 400, 240)
    };

    struct ChurnRun {
        steady_digest_bytes: u64,
        steady_membership_bytes: u64,
        gossip_bytes: u64,
        messages: u64,
        shard_fetches: u64,
        stale: u64,
        steady_hit_rate: f64,
        joined_hit_rate: f64,
        mean_ms: f64,
        stats: qb_queenbee::GossipStats,
        peer_down_events: u64,
        peer_up_events: u64,
    }

    let corpus = build_corpus(0xE12, num_pages);
    let workload = QueryWorkload::new(&corpus);
    let mut rng = DetRng::new(0xE12);
    let pool = workload.generate_batch(&corpus, &mut rng, pool_size);
    let zipf = ZipfSampler::new(pool.len(), 1.0);
    let stream: Vec<usize> = {
        let mut rng = DetRng::new(0xE12F);
        (0..warm_len + steady_len + churn_len)
            .map(|_| zipf.sample(&mut rng))
            .collect()
    };
    let probes: Vec<usize> = {
        let mut rng = DetRng::new(0xE12B);
        (0..JOIN_PROBES).map(|_| zipf.sample(&mut rng)).collect()
    };

    let run = |mode: DigestMode, zone_budgets: bool, zone_aware_ae: bool| -> ChurnRun {
        let mut config = qb_queenbee::QueenBeeConfig::small();
        config.num_peers = if quick { 64 } else { 96 };
        config.num_bees = 6;
        config.seed = 0xE12;
        config.net = NetConfig::zoned(ZONES, 2_000, 40_000);
        config.cache = CacheConfig::enabled();
        config.gossip = GossipConfig::enabled_zoned(fleet_n, ZONES);
        config.gossip.digest_mode = mode;
        config.gossip.zone_fill_budgets = zone_budgets;
        config.gossip.zone_aware_anti_entropy = zone_aware_ae;
        // The periodic full-digest safety net stays on in both runs, paced
        // for a steady fleet (the default 2s is tuned for small partition
        // tests; at 40 regular rounds per anti-entropy sweep the exact
        // reconciliation still bounds any compression-delayed fill).
        config.gossip.anti_entropy_interval = SimDuration::from_secs(8);
        let mut qb = qb_bench::build_engine_with(config);
        publish_corpus(&mut qb, &corpus);

        let mut rng = DetRng::new(0xE12A);
        let mut latency = LatencyHistogram::new();
        let mut messages = 0u64;
        let mut shard_fetches = 0u64;
        let mut steady_hits = 0u64;
        let mut steady_served = 0u64;
        let mut steady_window = (0u64, 0u64); // (digest, membership) bytes at window start
        let mut crashed: Vec<usize> = Vec::new();

        for (i, &q) in stream.iter().enumerate() {
            // Mid-stream republishes race the gossip rounds and the churn:
            // the version guard and publish-path invalidation must keep
            // every served result fresh even on frontends that missed the
            // publish while crashed.
            if i > 0 && i % 100 == 0 {
                let victim = i / 100 % corpus.pages.len();
                let page = &corpus.pages[victim];
                let updated = mutate_page(page, i as u64, &mut rng);
                let creator = AccountId(corpus.creators[victim]);
                qb.publish((fleet_n + 2 + victim % 8) as u64, creator, &updated)
                    .expect("republish");
                qb.seal();
                qb.process_publish_events().expect("reindex");
            }
            if i == warm_len {
                let g = qb.gossip_stats().expect("fleet");
                steady_window = (g.digest_bytes, g.membership_bytes);
            }
            if i == warm_len + steady_len {
                // Close the steady-state measurement window, then churn:
                // two frontends crash mid-stream...
                let g = qb.gossip_stats().expect("fleet");
                steady_window = (
                    g.digest_bytes - steady_window.0,
                    g.membership_bytes - steady_window.1,
                );
                for &f in &[2usize, 9] {
                    qb.fleet_leave(f, false).expect("crash");
                    crashed.push(f);
                }
            }
            if i == warm_len + steady_len + churn_len / 2 {
                // ...and one of them restarts, warming from the fleet.
                qb.fleet_rejoin(crashed[0]).expect("rejoin");
            }
            qb.advance_time(SimDuration::from_millis(50));
            // One shared stream, served round-robin across the live fleet.
            let actives: Vec<usize> = (0..qb.num_frontends())
                .filter(|&f| qb.fleet().expect("fleet").is_active(f))
                .collect();
            let frontend = actives[i % actives.len()];
            if let Ok(out) = qb
                .search_request(SearchRequest::new(&pool[q]).route(RoutingPolicy::Direct(frontend)))
            {
                latency.record(out.latency);
                messages += out.messages();
                shard_fetches += out.shards_fetched() as u64;
                if (warm_len..warm_len + steady_len).contains(&i) {
                    steady_served += 1;
                    if out.shards_fetched() == 0 {
                        steady_hits += 1;
                    }
                }
            }
        }

        // A brand-new frontend joins: one bootstrap anti-entropy exchange
        // with a live neighbour, then exactly JOIN_ROUNDS gossip rounds.
        // No DHT pre-warming of any kind.
        let joined = qb.fleet_join().expect("join");
        for _ in 0..JOIN_ROUNDS {
            qb.advance_time(qb_gossip::config::ROUND_INTERVAL);
        }
        let mut joined_hits = 0u64;
        for &q in &probes {
            if let Ok(out) =
                qb.search_request(SearchRequest::new(&pool[q]).route(RoutingPolicy::Direct(joined)))
            {
                messages += out.messages();
                shard_fetches += out.shards_fetched() as u64;
                if out.shards_fetched() == 0 {
                    joined_hits += 1;
                }
            }
        }

        let stats = qb.gossip_stats().expect("fleet");
        ChurnRun {
            steady_digest_bytes: steady_window.0,
            steady_membership_bytes: steady_window.1,
            gossip_bytes: stats.total_bytes(),
            messages,
            shard_fetches,
            stale: qb.freshness.stale_results,
            steady_hit_rate: steady_hits as f64 / steady_served.max(1) as f64,
            joined_hit_rate: joined_hits as f64 / probes.len().max(1) as f64,
            mean_ms: latency.mean().as_millis_f64(),
            stats,
            peer_down_events: qb.net.stats().peer_down_events,
            peer_up_events: qb.net.stats().peer_up_events,
        }
    };

    let full = run(DigestMode::Full, false, false);
    let delta = run(DigestMode::Delta, false, false);
    let zoned = run(DigestMode::Delta, true, false);
    let aware = run(DigestMode::Delta, true, true);

    // Acceptance criteria, asserted so the CI smoke job catches regressions.
    assert_eq!(full.stale, 0, "E12: full-digest run served stale results");
    assert_eq!(delta.stale, 0, "E12: delta-digest run served stale results");
    assert_eq!(zoned.stale, 0, "E12: zone-budget run served stale results");
    assert_eq!(
        aware.stale, 0,
        "E12: zone-aware AE run served stale results"
    );
    // Zone-aware anti-entropy redirects reconciliation fills onto in-zone
    // links whenever an in-zone member provably covers the gap — the
    // cross-zone slice of anti-entropy fill bytes must drop, and the exact
    // safety net must stay intact (hit rates undented, zero staleness).
    assert!(
        aware.stats.anti_entropy_cross_zone_fill_bytes
            < zoned.stats.anti_entropy_cross_zone_fill_bytes,
        "E12: zone-aware anti-entropy must cut cross-zone reconciliation \
         bytes ({} vs {})",
        aware.stats.anti_entropy_cross_zone_fill_bytes,
        zoned.stats.anti_entropy_cross_zone_fill_bytes
    );
    assert!(
        aware.steady_hit_rate >= 0.9 * zoned.steady_hit_rate,
        "E12: zone-aware anti-entropy must not dent the steady-state hit \
         rate ({:.2} vs {:.2})",
        aware.steady_hit_rate,
        zoned.steady_hit_rate
    );
    assert!(
        zoned.stats.cross_zone_fill_bytes < delta.stats.cross_zone_fill_bytes,
        "E12: zone-aware fill budgets must cut cross-zone fill bytes ({} vs {})",
        zoned.stats.cross_zone_fill_bytes,
        delta.stats.cross_zone_fill_bytes
    );
    assert!(
        zoned.steady_hit_rate >= 0.9 * delta.steady_hit_rate,
        "E12: zone budgets must not dent the steady-state hit rate \
         ({:.2} vs {:.2})",
        zoned.steady_hit_rate,
        delta.steady_hit_rate
    );
    assert!(
        full.steady_digest_bytes >= 5 * delta.steady_digest_bytes.max(1),
        "E12: delta digests must cut steady-state digest bytes >=5x ({} vs {})",
        delta.steady_digest_bytes,
        full.steady_digest_bytes
    );
    assert!(
        delta.joined_hit_rate >= 0.8 * delta.steady_hit_rate,
        "E12: a joined frontend must reach >=80% of steady-state hit rate \
         within {JOIN_ROUNDS} rounds ({:.2} vs steady {:.2})",
        delta.joined_hit_rate,
        delta.steady_hit_rate
    );

    let title = format!(
        "E12a: {fleet_n}-frontend fleet over {ZONES} latency zones under churn \
         ({} queries, 2 crashes + 1 restart + 1 join), full vs delta digests",
        stream.len()
    );
    let mut t = Table::new(
        &title,
        &[
            "config",
            "steady_digest_bytes",
            "gossip_bytes_total",
            "rpc_messages",
            "dht_shard_fetches",
            "mean_latency_ms",
            "stale_results",
        ],
    );
    for (label, r) in [
        ("full digests", &full),
        ("delta digests", &delta),
        ("delta + zone budgets", &zoned),
        ("delta + zone budgets + zone-aware AE", &aware),
    ] {
        t.row(&[
            label.into(),
            r.steady_digest_bytes.to_string(),
            r.gossip_bytes.to_string(),
            r.messages.to_string(),
            r.shard_fetches.to_string(),
            f2(r.mean_ms),
            r.stale.to_string(),
        ]);
    }
    t.row(&[
        "reduction".into(),
        format!(
            "{:.1}x",
            full.steady_digest_bytes as f64 / delta.steady_digest_bytes.max(1) as f64
        ),
        format!(
            "{:.1}x",
            full.gossip_bytes as f64 / delta.gossip_bytes.max(1) as f64
        ),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    let mut t2 = Table::new(
        "E12b: churn, membership and join warm-up (delta-digest run)",
        &["metric", "value"],
    );
    for (name, value) in [
        ("frontends (initial)", fleet_n as u64),
        ("crashes", delta.stats.crashes),
        ("restarts + joins", delta.stats.joins),
        ("view evictions", delta.stats.evictions),
        ("view revivals", delta.stats.revivals),
        ("peer down events (simnet)", delta.peer_down_events),
        ("peer up events (simnet)", delta.peer_up_events),
        (
            "membership bytes (steady window)",
            delta.steady_membership_bytes,
        ),
        ("anti-entropy rounds", delta.stats.anti_entropy_rounds),
    ] {
        t2.row(&[name.to_string(), value.to_string()]);
    }
    t2.row(&["steady-state hit rate".into(), f2(delta.steady_hit_rate)]);
    t2.row(&[
        format!("joined frontend hit rate (after {JOIN_ROUNDS} rounds)"),
        f2(delta.joined_hit_rate),
    ]);
    t2.row(&[
        "joined / steady ratio".into(),
        f2(delta.joined_hit_rate / delta.steady_hit_rate.max(1e-9)),
    ]);
    // Fill-byte zone split: what the zone-aware budgets move off the
    // expensive cross-zone links (flat-budget run vs zone-budget run).
    for (name, value) in [
        (
            "fill bytes intra-zone (flat budget)",
            delta.stats.intra_zone_fill_bytes,
        ),
        (
            "fill bytes cross-zone (flat budget)",
            delta.stats.cross_zone_fill_bytes,
        ),
        (
            "fill bytes intra-zone (zone budgets)",
            zoned.stats.intra_zone_fill_bytes,
        ),
        (
            "fill bytes cross-zone (zone budgets)",
            zoned.stats.cross_zone_fill_bytes,
        ),
    ] {
        t2.row(&[name.to_string(), value.to_string()]);
    }
    t2.row(&[
        "cross-zone fill reduction".into(),
        format!(
            "{:.1}x",
            delta.stats.cross_zone_fill_bytes as f64
                / zoned.stats.cross_zone_fill_bytes.max(1) as f64
        ),
    ]);
    t2.row(&[
        "steady-state hit rate (zone budgets)".into(),
        f2(zoned.steady_hit_rate),
    ]);
    // Zone-aware anti-entropy: the reconciliation slice of the fill bytes
    // moved onto in-zone links (coverage confirmed against the partner's
    // advertised holdings + filter, so the exact safety net is unweakened).
    for (name, value) in [
        (
            "anti-entropy fill bytes (zone budgets)",
            zoned.stats.anti_entropy_fill_bytes,
        ),
        (
            "anti-entropy cross-zone fill bytes (zone budgets)",
            zoned.stats.anti_entropy_cross_zone_fill_bytes,
        ),
        (
            "anti-entropy fill bytes (zone-aware AE)",
            aware.stats.anti_entropy_fill_bytes,
        ),
        (
            "anti-entropy cross-zone fill bytes (zone-aware AE)",
            aware.stats.anti_entropy_cross_zone_fill_bytes,
        ),
    ] {
        t2.row(&[name.to_string(), value.to_string()]);
    }
    t2.row(&[
        "anti-entropy cross-zone fill reduction".into(),
        format!(
            "{:.1}x",
            zoned.stats.anti_entropy_cross_zone_fill_bytes as f64
                / aware.stats.anti_entropy_cross_zone_fill_bytes.max(1) as f64
        ),
    ]);
    t2.row(&[
        "steady-state hit rate (zone-aware AE)".into(),
        f2(aware.steady_hit_rate),
    ]);

    // ----- E12c: where does a crashed frontend's keyspace land? ---------------------
    //
    // The churn runs above measure gossip cost; this closes the routing
    // blind spot: per-frontend admitted-query counts across a crash
    // window, under the seed's ring-successor walk vs rendezvous +
    // two-choices. The ring walk hands the victim's whole keyspace to
    // one successor; rendezvous spreads it across every survivor.
    let t3 = {
        use qb_load::{replay, ArrivalTrace, RateShape, ReplayConfig, TraceConfig};
        use qb_queenbee::AdmissionConfig;

        const E12C_VICTIM: usize = 2;
        let e12c_fleet: usize = 8;
        let make_trace = |seed: u64, secs: u64| {
            ArrivalTrace::generate(
                &corpus,
                &TraceConfig {
                    seed,
                    duration: SimDuration::from_secs(secs),
                    base_qps: 100.0,
                    shape: RateShape::Constant,
                    pool_size: 48,
                    ..TraceConfig::default()
                },
            )
        };
        let warm_trace = make_trace(0xE12C0, 1);
        let crash_trace = make_trace(0xE12C1, if quick { 2 } else { 4 });

        let run_routing = |ring: bool| -> (Vec<u64>, f64) {
            let mut config = qb_queenbee::QueenBeeConfig::small();
            config.num_peers = 64;
            config.num_bees = 6;
            config.seed = 0xE12C;
            config.net = NetConfig::zoned(ZONES, 2_000, 40_000);
            config.cache = CacheConfig::enabled();
            config.gossip = GossipConfig::enabled_zoned(e12c_fleet, ZONES);
            config.admission = AdmissionConfig::enabled();
            config.admission.queue_capacity = 128;
            config.admission.shed_threshold = SimDuration::from_secs(5);
            let mut qb = qb_bench::build_engine_with(config);
            publish_corpus(&mut qb, &corpus);
            let replay_cfg = ReplayConfig {
                seed: 0xE12CF,
                fresh_fraction: 0.5,
                top_k: 5,
                ring_successor_routing: ring,
            };
            replay(&mut qb, &warm_trace, &replay_cfg).expect("warm-up replay");
            qb.fleet_leave(E12C_VICTIM, false).expect("crash");
            let report = replay(&mut qb, &crash_trace, &replay_cfg).expect("crash replay");
            let per = report.admitted_per_frontend.clone();
            let max = per.iter().copied().max().unwrap_or(0) as f64;
            let mean = report.admitted as f64 / (e12c_fleet - 1) as f64;
            (per, max / mean.max(1e-9))
        };
        let (ring_admitted, ring_ratio) = run_routing(true);
        let (hrw_admitted, hrw_ratio) = run_routing(false);

        assert_eq!(
            ring_admitted[E12C_VICTIM], 0,
            "E12c: crashed frontend must admit nothing"
        );
        assert_eq!(
            hrw_admitted[E12C_VICTIM], 0,
            "E12c: crashed frontend must admit nothing"
        );
        assert!(
            hrw_ratio <= ring_ratio,
            "E12c: rendezvous max/mean survivor load ({hrw_ratio:.2}) must not \
             exceed the ring walk's ({ring_ratio:.2})"
        );

        let mut t3 = Table::new(
            &format!(
                "E12c: crash-window admitted queries per frontend \
                 ({e12c_fleet} frontends, frontend {E12C_VICTIM} crashes after warm-up)"
            ),
            &[
                "routing",
                "admitted_per_frontend",
                "max_admitted",
                "max_over_mean_survivor",
            ],
        );
        for (label, per, ratio) in [
            ("ring successor (seed)", &ring_admitted, ring_ratio),
            ("rendezvous + 2-choices", &hrw_admitted, hrw_ratio),
        ] {
            t3.row(&[
                label.into(),
                format!("{per:?}"),
                per.iter().copied().max().unwrap_or(0).to_string(),
                f2(ratio),
            ]);
        }
        t3.row(&[
            "imbalance reduction".into(),
            "-".into(),
            "-".into(),
            format!("{:.1}x", ring_ratio / hrw_ratio.max(1e-9)),
        ]);
        t3
    };
    vec![t, t2, t3]
}

/// E13 — the pipelined query engine. Part A replays a duplicate-heavy
/// Zipf(1.2) stream three ways on identical engines (cache off, so the
/// pipeline's own mechanisms are isolated): **sequentially** (windows of
/// one — the byte-identity reference), **back-to-back** (PR 3's
/// `search_batch` windows, makespan = the sum of window latencies) and
/// **pipelined** (`search_pipelined`: up to 4 windows in flight, window
/// N+1's fetches issued while window N's are pending under the simulated
/// per-link in-flight limits, duplicates deduped by the version-tagged
/// window memo).
///
/// Part B measures batch-aware gossip: a frontend fleet where frontend 0's
/// digest hot set is saturated by genuinely popular terms serves one batch
/// window of *cold* queries; without batch adverts the window's freshly
/// fetched shards sit below the popularity cut and never ride a regular
/// round, while with them the keys lead the very next round's digest and
/// fill order.
///
/// Asserted acceptance criteria (the CI smoke job runs this quick):
/// * pipelined makespan ≤ 70% of back-to-back on the same stream,
/// * per-query hits byte-identical to sequential execution,
/// * window-memo dedup hits > 0 and strictly fewer intersect/score
///   invocations than back-to-back,
/// * batch-aware gossip warms a non-serving frontend ≥ 1 round earlier
///   than the PR 4 baseline.
fn e13_pipeline(quick: bool) -> Vec<Table> {
    use qb_queenbee::{PipelineConfig, TermProvenance};
    use qb_workload::ZipfSampler;

    const WINDOW: usize = 16;
    const DEPTH: usize = 4;
    let (num_pages, pool_size, stream_len) = if quick { (30, 24, 192) } else { (60, 48, 512) };
    let corpus = build_corpus(0xE13, num_pages);
    let workload = QueryWorkload::new(&corpus);
    let mut rng = DetRng::new(0xE13);
    let pool = workload.generate_batch(&corpus, &mut rng, pool_size);
    // Zipf(1.2) over a small pool: windows are duplicate-heavy by design.
    let zipf = ZipfSampler::new(pool.len(), 1.2);
    let stream: Vec<usize> = {
        let mut rng = DetRng::new(0xE13F);
        (0..stream_len).map(|_| zipf.sample(&mut rng)).collect()
    };
    let build = || {
        let mut config = qb_queenbee::QueenBeeConfig::small();
        config.num_peers = 64;
        config.num_bees = 6;
        config.seed = 0xE13;
        if quick {
            // The quick stream is too short to fill the default 8-deep
            // per-link budget, which left queue_delay pinned at 0.00 and the
            // link-contention path untested in CI. Two in-flight ops per
            // link make the smaller stream contend like the full one.
            config.net.max_in_flight_per_link = 2;
        }
        let mut qb = qb_bench::build_engine_with(config);
        publish_corpus(&mut qb, &corpus);
        qb
    };
    let request = |i: usize, q: usize| {
        SearchRequest::new(pool[q].as_str()).route(RoutingPolicy::HashPeer((i % 50) as u64))
    };

    // Sequential reference: per-query execution, the byte-identity oracle.
    let mut qb = build();
    let mut seq_hits: Vec<Vec<qb_index::ScoredDoc>> = Vec::new();
    let mut seq_makespan = SimDuration::ZERO;
    for (i, &q) in stream.iter().enumerate() {
        let resp = qb.search_request(request(i, q)).expect("sequential query");
        seq_makespan += resp.latency;
        seq_hits.push(resp.hits);
    }
    let seq_invocations = qb.query_stats().score_invocations;

    // Back-to-back windows: the PR 3 batch path, one window at a time.
    let mut qb = build();
    let mut b2b_makespan = SimDuration::ZERO;
    let mut b2b_messages = 0u64;
    let mut b2b_fetches = 0u64;
    for (w, window) in stream.chunks(WINDOW).enumerate() {
        let requests: Vec<_> = window
            .iter()
            .enumerate()
            .map(|(j, &q)| request(w * WINDOW + j, q))
            .collect();
        let responses = qb.search_batch(requests).expect("batch window");
        b2b_makespan +=
            qb_simnet::parallel_latency(&responses.iter().map(|r| r.latency).collect::<Vec<_>>());
        for r in &responses {
            b2b_messages += r.messages();
            b2b_fetches += r.shards_fetched() as u64;
        }
    }
    let b2b_invocations = qb.query_stats().score_invocations;

    // Pipelined: the same stream through the overlapping-window engine.
    let mut qb = build();
    let requests: Vec<_> = stream
        .iter()
        .enumerate()
        .map(|(i, &q)| request(i, q))
        .collect();
    let outcome = qb
        .search_pipelined(
            requests,
            PipelineConfig {
                window_size: WINDOW,
                max_windows_in_flight: DEPTH,
                ..PipelineConfig::default()
            },
        )
        .expect("pipelined stream");
    let pipe_messages: u64 = outcome.responses.iter().map(|r| r.messages()).sum();
    let pipe_fetches: u64 = outcome
        .responses
        .iter()
        .map(|r| r.shards_fetched() as u64)
        .sum();
    let report = outcome.report;
    let pipe_invocations = qb.query_stats().score_invocations;

    // Acceptance criteria, asserted so the CI smoke job catches regressions.
    assert_eq!(seq_hits.len(), outcome.responses.len());
    for (i, (seq, resp)) in seq_hits.iter().zip(&outcome.responses).enumerate() {
        assert_eq!(
            seq, &resp.hits,
            "E13: query {i} ('{}') must rank identically pipelined vs sequential",
            pool[stream[i]]
        );
    }
    assert!(
        report.makespan.as_micros() as f64 <= 0.7 * b2b_makespan.as_micros() as f64,
        "E13: pipelining must cut makespan >=30% ({} vs {b2b_makespan})",
        report.makespan
    );
    assert!(
        report.memo_hits > 0,
        "E13: the duplicate-heavy stream must produce window-memo hits"
    );
    assert!(
        pipe_invocations < b2b_invocations,
        "E13: the memo must cut intersect/score invocations ({pipe_invocations} vs {b2b_invocations})"
    );
    if quick {
        assert!(
            report.queue_delay > SimDuration::ZERO,
            "E13: the quick stream must exercise per-link queueing (queue_delay stuck at 0 \
             means the tightened in-flight budget stopped biting)"
        );
    }

    // Self-steering pipeline: same stream and base knobs, with the
    // adaptive controller steering depth/window/issue-order from the
    // observed queue-delay share.
    let mut qb = build();
    let requests: Vec<_> = stream
        .iter()
        .enumerate()
        .map(|(i, &q)| request(i, q))
        .collect();
    let adaptive = qb
        .search_pipelined(
            requests,
            PipelineConfig {
                window_size: WINDOW,
                max_windows_in_flight: DEPTH,
                ..PipelineConfig::self_steering()
            },
        )
        .expect("adaptive pipelined stream");
    let adaptive_messages: u64 = adaptive.responses.iter().map(|r| r.messages()).sum();
    let adaptive_fetches: u64 = adaptive
        .responses
        .iter()
        .map(|r| r.shards_fetched() as u64)
        .sum();
    let adaptive_invocations = qb.query_stats().score_invocations;
    let adaptive_report = adaptive.report;
    for (i, (seq, resp)) in seq_hits.iter().zip(&adaptive.responses).enumerate() {
        assert_eq!(
            seq, &resp.hits,
            "E13: query {i} ('{}') must rank identically adaptive vs sequential",
            pool[stream[i]]
        );
    }
    // The controller must never lose to the fixed pipeline it steers:
    // below saturation it converges to the fixed configuration (identical
    // schedule), under saturation its back-off and shortest-first issue
    // only reorder work the link budget was already serializing.
    let adaptive_vs_fixed = 100.0 * adaptive_report.makespan.as_micros() as f64
        / report.makespan.as_micros().max(1) as f64;
    assert!(
        adaptive_vs_fixed <= 100.5,
        "E13: the self-steering pipeline must hold or improve the fixed-depth makespan \
         ({} vs {}, {adaptive_vs_fixed:.1}%)",
        adaptive_report.makespan,
        report.makespan
    );

    // ----- Part C: self-steering on a starved uplink --------------------------------
    // Every query routes through the same origin peer, whose uplink admits
    // a single in-flight operation: the link — not the reads — dominates,
    // and the controller must steer (grow windows so each query shares
    // more deduped fetches) where the fixed pipeline can only queue.
    let overload_build = || {
        let mut config = qb_queenbee::QueenBeeConfig::small();
        config.num_peers = 64;
        config.num_bees = 6;
        config.seed = 0xE13;
        config.net.max_in_flight_per_link = 1;
        let mut qb = qb_bench::build_engine_with(config);
        publish_corpus(&mut qb, &corpus);
        qb
    };
    let overload_run = |adaptive: bool| {
        let mut qb = overload_build();
        let requests: Vec<_> = stream
            .iter()
            .map(|&q| SearchRequest::new(pool[q].as_str()).route(RoutingPolicy::HashPeer(7)))
            .collect();
        qb.search_pipelined(
            requests,
            PipelineConfig {
                window_size: WINDOW,
                max_windows_in_flight: DEPTH,
                adaptive,
            },
        )
        .expect("overload stream")
    };
    let fixed_overload = overload_run(false);
    let adaptive_overload = overload_run(true);
    for (i, (fixed, ad)) in fixed_overload
        .responses
        .iter()
        .zip(&adaptive_overload.responses)
        .enumerate()
    {
        assert_eq!(
            &fixed.hits, &ad.hits,
            "E13c: query {i} must rank identically adaptive vs fixed on the starved uplink"
        );
    }
    assert!(
        adaptive_overload.report.adapt_backoffs > 0,
        "E13c: the starved uplink must trip the controller's back-off"
    );
    let overload_vs_fixed = 100.0 * adaptive_overload.report.makespan.as_micros() as f64
        / fixed_overload.report.makespan.as_micros().max(1) as f64;
    assert!(
        overload_vs_fixed <= 100.5,
        "E13c: self-steering must hold or improve the makespan on the starved uplink \
         ({} vs {}, {overload_vs_fixed:.1}%)",
        adaptive_overload.report.makespan,
        fixed_overload.report.makespan
    );

    // Machine-readable artifact for the CI workflow: the adaptive run's
    // steering decisions next to the fixed-depth reference.
    if std::fs::create_dir_all("bench-results").is_ok() {
        let starved_uplink = serde_json::json!({
            "fixed_makespan_ms": fixed_overload.report.makespan.as_millis_f64(),
            "adaptive_makespan_ms": adaptive_overload.report.makespan.as_millis_f64(),
            "adaptive_vs_fixed_percent": overload_vs_fixed,
            "adapt_backoffs": adaptive_overload.report.adapt_backoffs,
            "adapt_rampups": adaptive_overload.report.adapt_rampups,
            "fixed_queue_delay_ms": fixed_overload.report.queue_delay.as_millis_f64(),
            "adaptive_queue_delay_ms": adaptive_overload.report.queue_delay.as_millis_f64(),
        });
        let artifact = serde_json::json!({
            "experiment": "e13-adaptive-pipeline",
            "quick": quick,
            "window_size": WINDOW,
            "max_windows_in_flight": DEPTH,
            "fixed_makespan_ms": report.makespan.as_millis_f64(),
            "adaptive_makespan_ms": adaptive_report.makespan.as_millis_f64(),
            "adaptive_vs_fixed_percent": adaptive_vs_fixed,
            "adapt_backoffs": adaptive_report.adapt_backoffs,
            "adapt_rampups": adaptive_report.adapt_rampups,
            "queue_delay_ms": adaptive_report.queue_delay.as_millis_f64(),
            "peak_windows_in_flight": adaptive_report.peak_windows_in_flight,
            "windows": adaptive_report.windows,
            "memo_hits": adaptive_report.memo_hits,
            "starved_uplink": starved_uplink,
        });
        let _ = std::fs::write(
            "bench-results/adaptive-pipeline.json",
            serde_json::to_string_pretty(&artifact).unwrap_or_default(),
        );
    }

    let title = format!(
        "E13a: pipelined (window {WINDOW}, depth {DEPTH}) vs back-to-back vs sequential on a \
         duplicate-heavy Zipf(1.2) stream ({stream_len} queries, {pool_size}-query pool, cache off)"
    );
    let mut t = Table::new(
        &title,
        &[
            "config",
            "makespan_ms",
            "score_invocations",
            "memo_hits",
            "rpc_messages",
            "dht_shard_fetches",
            "queue_delay_ms",
        ],
    );
    t.row(&[
        "sequential".into(),
        f2(seq_makespan.as_millis_f64()),
        seq_invocations.to_string(),
        "0".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t.row(&[
        "back-to-back".into(),
        f2(b2b_makespan.as_millis_f64()),
        b2b_invocations.to_string(),
        "0".into(),
        b2b_messages.to_string(),
        b2b_fetches.to_string(),
        "0.00".into(),
    ]);
    t.row(&[
        "pipelined".into(),
        f2(report.makespan.as_millis_f64()),
        pipe_invocations.to_string(),
        report.memo_hits.to_string(),
        pipe_messages.to_string(),
        pipe_fetches.to_string(),
        f2(report.queue_delay.as_millis_f64()),
    ]);
    t.row(&[
        "adaptive".into(),
        f2(adaptive_report.makespan.as_millis_f64()),
        adaptive_invocations.to_string(),
        adaptive_report.memo_hits.to_string(),
        adaptive_messages.to_string(),
        adaptive_fetches.to_string(),
        f2(adaptive_report.queue_delay.as_millis_f64()),
    ]);
    t.row(&[
        "adaptive vs fixed (% of makespan)".into(),
        f2(adaptive_vs_fixed),
        format!(
            "{} backoffs, {} rampups",
            adaptive_report.adapt_backoffs, adaptive_report.adapt_rampups
        ),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    t.row(&[
        "reduction (vs back-to-back)".into(),
        format!(
            "-{:.1}%",
            100.0
                * (1.0
                    - report.makespan.as_micros() as f64 / b2b_makespan.as_micros().max(1) as f64)
        ),
        format!(
            "-{:.1}%",
            100.0 * (1.0 - pipe_invocations as f64 / b2b_invocations.max(1) as f64)
        ),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    // ----- Part B: batch-aware gossip fan-out ---------------------------------------

    const FLEET: usize = 6;
    const MAX_ROUNDS: u64 = 6;
    let page_body = |term: &str| format!("{term} common shared body words for the page");
    let run = |batch_advertise: bool| -> (u64, u64, u64) {
        let mut config = qb_queenbee::QueenBeeConfig::small();
        config.num_peers = 32;
        config.num_bees = 4;
        config.seed = 0xE13B;
        config.cache = qb_queenbee::CacheConfig::enabled();
        config.gossip = qb_queenbee::GossipConfig::enabled(FLEET);
        config.gossip.hot_set_size = 4;
        config.gossip.max_fills_per_exchange = 8;
        // Regular rounds only: anti-entropy would eventually move the cold
        // shards in both runs and blur the round accounting.
        config.gossip.anti_entropy_interval = SimDuration::from_secs(3_600);
        config.gossip.batch_advertise = batch_advertise;
        let mut qb = qb_bench::build_engine_with(config);
        for (i, hot) in ["hotalpha", "hotbeta", "hotgamma", "hotdelta"]
            .iter()
            .enumerate()
        {
            qb.publish(
                (FLEET + 1 + i) as u64,
                AccountId(1_000 + i as u64),
                &qb_dweb::WebPage::new(format!("hot/{i}"), "hot", page_body(hot), vec![]),
            )
            .expect("publish hot page");
        }
        for (i, fresh) in ["freshone", "freshtwo", "freshthree", "freshfour"]
            .iter()
            .enumerate()
        {
            qb.publish(
                (FLEET + 1 + i) as u64,
                AccountId(1_100 + i as u64),
                &qb_dweb::WebPage::new(format!("fresh/{i}"), "fresh", page_body(fresh), vec![]),
            )
            .expect("publish fresh page");
        }
        qb.seal();
        qb.process_publish_events().expect("index");

        // Saturate frontend 0's digest hot set with genuinely popular
        // terms: each probe is a distinct query (so the result cache never
        // short-circuits the shard-tier lookup that feeds popularity).
        for hot in ["hotalpha", "hotbeta", "hotgamma", "hotdelta"] {
            for j in 0..10 {
                let _ = qb.search_request(
                    SearchRequest::new(format!("{hot} zz{j}")).route(RoutingPolicy::Direct(0)),
                );
            }
        }

        // One batch window of cold queries, served entirely by frontend 0.
        let window: Vec<SearchRequest> = ["freshone", "freshtwo", "freshthree", "freshfour"]
            .iter()
            .map(|q| SearchRequest::new(*q).route(RoutingPolicy::Direct(0)))
            .collect();
        let responses = qb.search_batch(window).expect("batch window");
        let mut fetched_terms: Vec<String> = Vec::new();
        for r in &responses {
            for (term, prov) in r.terms.iter().zip(&r.provenance) {
                if matches!(prov, TermProvenance::DhtFetch) {
                    fetched_terms.push(term.clone());
                }
            }
        }
        assert!(
            !fetched_terms.is_empty(),
            "E13b: the cold window must fetch through the DHT"
        );

        // Count regular gossip rounds until some non-serving frontend
        // holds one of the window's freshly fetched shards.
        let mut rounds_to_warm = MAX_ROUNDS;
        for round in 1..=MAX_ROUNDS {
            qb.run_gossip_round(false);
            let fleet = qb.fleet().expect("fleet");
            let warmed = (1..FLEET).any(|i| {
                fetched_terms
                    .iter()
                    .any(|t| fleet.frontend(i).cache().cached_shard_version(t).is_some())
            });
            if warmed {
                rounds_to_warm = round;
                break;
            }
        }
        let stats = qb.gossip_stats().expect("fleet");
        (rounds_to_warm, stats.batch_adverts, stats.total_bytes())
    };

    let (rounds_off, adverts_off, bytes_off) = run(false);
    let (rounds_on, adverts_on, bytes_on) = run(true);
    let lead = rounds_off.saturating_sub(rounds_on);
    assert!(
        lead >= 1,
        "E13b: batch-aware gossip must warm a non-serving frontend >=1 round earlier \
         ({rounds_on} vs {rounds_off} rounds)"
    );
    assert_eq!(adverts_off, 0, "PR 4 baseline queues no adverts");
    assert!(adverts_on > 0);

    let title = format!(
        "E13b: batch-aware gossip fan-out — rounds until a non-serving frontend holds a shard \
         the batch window fetched ({FLEET} frontends, hot set saturated, {MAX_ROUNDS} = not \
         within the horizon)"
    );
    let mut t2 = Table::new(
        &title,
        &["config", "rounds_to_warm", "batch_adverts", "gossip_bytes"],
    );
    t2.row(&[
        "batch-aware off (PR 4)".into(),
        rounds_off.to_string(),
        adverts_off.to_string(),
        bytes_off.to_string(),
    ]);
    t2.row(&[
        "batch-aware on".into(),
        rounds_on.to_string(),
        adverts_on.to_string(),
        bytes_on.to_string(),
    ]);
    t2.row(&[
        "warm-round lead".into(),
        lead.to_string(),
        "-".into(),
        "-".into(),
    ]);

    let title = format!(
        "E13c: self-steering pipeline on a starved uplink — every query through one origin \
         peer with a 1-deep link budget ({stream_len} queries, window {WINDOW}, depth {DEPTH})"
    );
    let mut t3 = Table::new(
        &title,
        &[
            "config",
            "makespan_ms",
            "adapt_backoffs",
            "adapt_rampups",
            "queue_delay_ms",
            "peak_windows_in_flight",
        ],
    );
    t3.row(&[
        "fixed".into(),
        f2(fixed_overload.report.makespan.as_millis_f64()),
        "-".into(),
        "-".into(),
        f2(fixed_overload.report.queue_delay.as_millis_f64()),
        fixed_overload.report.peak_windows_in_flight.to_string(),
    ]);
    t3.row(&[
        "adaptive".into(),
        f2(adaptive_overload.report.makespan.as_millis_f64()),
        adaptive_overload.report.adapt_backoffs.to_string(),
        adaptive_overload.report.adapt_rampups.to_string(),
        f2(adaptive_overload.report.queue_delay.as_millis_f64()),
        adaptive_overload.report.peak_windows_in_flight.to_string(),
    ]);
    t3.row(&[
        "adaptive vs fixed (% of makespan)".into(),
        f2(overload_vs_fixed),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);
    vec![t, t2, t3]
}

/// E14 — the open-loop saturation ladder: qb-load arrival traces replayed
/// against a 4-frontend fleet with admission control. Part A steps the
/// offered rate from well below to 4x nominal saturation (fresh engine per
/// level, every level run twice and asserted bit-identical); part B throws
/// a flash crowd at the fleet and shows bounded queues, shedding and
/// `Fresh` → `CacheOk` degradation riding out the burst.
fn e14_open_loop(quick: bool) -> Vec<Table> {
    use qb_load::{replay, ArrivalTrace, RateShape, ReplayConfig, TraceConfig};
    use qb_queenbee::{AdmissionConfig, CacheConfig, GossipConfig, LoadReport};

    const FLEET: usize = 4;
    const QUEUE_CAPACITY: usize = 32;
    // Nominal saturation of this fleet under WAN latencies with a
    // fresh-heavy mix (measured ~140-150 q/s of goodput); the ladder's "1x".
    const SAT_QPS: f64 = 160.0;
    let (num_pages, secs) = if quick { (20u64, 2u64) } else { (40, 6) };
    let corpus = build_corpus(0xE14, num_pages as usize);

    let build = || {
        let mut config = qb_queenbee::QueenBeeConfig::small();
        config.num_peers = 32;
        config.num_bees = 4;
        config.seed = 0xE14;
        // WAN latencies, not the test LAN: a Fresh query costs ~100ms of
        // simulated round-trips, so saturation sits at a few hundred q/s
        // and the admission thresholds below are set against that.
        config.net = qb_simnet::NetConfig::default();
        config.cache = CacheConfig::enabled();
        config.gossip = GossipConfig::enabled(FLEET);
        config.admission = AdmissionConfig::enabled();
        config.admission.queue_capacity = QUEUE_CAPACITY;
        config.admission.window_size = 8;
        config.admission.max_windows_in_flight = 2;
        config.admission.degrade_threshold = SimDuration::from_millis(250);
        config.admission.shed_threshold = SimDuration::from_millis(800);
        let mut qb = qb_bench::build_engine_with(config);
        publish_corpus(&mut qb, &corpus);
        qb
    };
    let replay_cfg = ReplayConfig {
        seed: 0xE14F,
        fresh_fraction: 0.9,
        top_k: 5,
        ..ReplayConfig::default()
    };
    let run_trace = |trace: &ArrivalTrace| -> LoadReport {
        let mut qb = build();
        let report = replay(&mut qb, trace, &replay_cfg).expect("open-loop replay");
        assert_eq!(report.offered, trace.len() as u64);
        assert!(
            report.peak_queue_depth <= QUEUE_CAPACITY,
            "E14: ingress queue depth {} exceeds its bound {QUEUE_CAPACITY}",
            report.peak_queue_depth
        );
        report
    };

    // ----- Part A: constant-rate ladder ---------------------------------------------

    let levels: [(&str, f64); 5] = [
        ("0.25x", 0.25),
        ("0.5x", 0.5),
        ("1x", 1.0),
        ("2x", 2.0),
        ("4x", 4.0),
    ];
    let mut reports: Vec<(&str, LoadReport)> = Vec::new();
    for (label, mult) in levels {
        let trace = ArrivalTrace::generate(
            &corpus,
            &TraceConfig {
                seed: 0xE14,
                duration: SimDuration::from_secs(secs),
                base_qps: SAT_QPS * mult,
                shape: RateShape::Constant,
                pool_size: 48,
                ..TraceConfig::default()
            },
        );
        let report = run_trace(&trace);
        let rerun = run_trace(&trace);
        assert_eq!(
            report, rerun,
            "E14: two replays of the {label} trace must be bit-identical"
        );
        reports.push((label, report));
    }

    // Acceptance criteria, asserted so the CI smoke job catches regressions.
    let sub = &reports[0].1;
    assert_eq!(sub.shed, 0, "E14: no shedding below saturation");
    assert_eq!(
        sub.completed, sub.offered,
        "E14: 0.25x completes everything"
    );
    assert!(
        sub.p99() < SimDuration::from_millis(500),
        "E14: sub-saturation p99 {} must stay bounded",
        sub.p99()
    );
    let peak_goodput = reports
        .iter()
        .map(|(_, r)| r.goodput_qps())
        .fold(0.0, f64::max);
    let over = &reports.last().expect("ladder").1;
    assert!(
        over.goodput_qps() >= 0.7 * peak_goodput,
        "E14: goodput at 4x ({:.1} q/s) must hold >=70% of peak ({peak_goodput:.1} q/s)",
        over.goodput_qps()
    );
    assert!(over.shed > 0, "E14: 4x overload must shed");
    assert!(
        over.shed_rate() < 0.95,
        "E14: shedding must stay partial even at 4x ({:.1}%)",
        100.0 * over.shed_rate()
    );

    let title = format!(
        "E14a: open-loop saturation ladder — constant-rate Poisson traces ({secs}s, 90% Fresh, \
         Zipf pool) against a {FLEET}-frontend fleet with admission control (1x = {SAT_QPS} q/s)"
    );
    let mut t = Table::new(
        &title,
        &[
            "load",
            "offered_qps",
            "goodput_qps",
            "shed_rate_%",
            "degraded",
            "p50_ms",
            "p99_ms",
            "p999_ms",
            "peak_queue",
        ],
    );
    for (label, r) in &reports {
        t.row(&[
            (*label).into(),
            f2(r.offered as f64 / secs as f64),
            f2(r.goodput_qps()),
            f2(100.0 * r.shed_rate()),
            r.degraded.to_string(),
            f2(r.p50().as_millis_f64()),
            f2(r.p99().as_millis_f64()),
            f2(r.p999().as_millis_f64()),
            r.peak_queue_depth.to_string(),
        ]);
    }

    // ----- Part B: flash crowd ------------------------------------------------------

    let burst_at = SimDuration::from_secs(secs / 2);
    let burst_len = SimDuration::from_secs((secs / 2).max(1));
    let flash = ArrivalTrace::generate(
        &corpus,
        &TraceConfig {
            seed: 0xE14B,
            duration: SimDuration::from_secs(secs),
            base_qps: 0.5 * SAT_QPS,
            shape: RateShape::FlashCrowd {
                at: burst_at,
                duration: burst_len,
                multiplier: 12.0,
            },
            pool_size: 48,
            ..TraceConfig::default()
        },
    );
    let fr = run_trace(&flash);
    assert!(fr.shed > 0, "E14b: the flash crowd must trigger shedding");
    assert!(
        fr.degraded > 0,
        "E14b: burst pressure must degrade Fresh queries to CacheOk"
    );
    assert!(
        fr.completed as f64 >= 0.25 * fr.offered as f64,
        "E14b: goodput must survive the burst ({} of {})",
        fr.completed,
        fr.offered
    );

    let title2 = format!(
        "E14b: flash crowd — 0.5x base rate with a 12x burst for {burst_len} \
         starting at {burst_at}, same fleet and admission config"
    );
    let mut t2 = Table::new(&title2, &["metric", "value"]);
    t2.row(&["offered".into(), fr.offered.to_string()]);
    t2.row(&["admitted".into(), fr.admitted.to_string()]);
    t2.row(&["degraded (Fresh->CacheOk)".into(), fr.degraded.to_string()]);
    t2.row(&["shed".into(), fr.shed.to_string()]);
    t2.row(&["shed_rate_%".into(), f2(100.0 * fr.shed_rate())]);
    t2.row(&["goodput_qps".into(), f2(fr.goodput_qps())]);
    t2.row(&["p50_ms".into(), f2(fr.p50().as_millis_f64())]);
    t2.row(&["p99_ms".into(), f2(fr.p99().as_millis_f64())]);
    t2.row(&["peak_queue".into(), fr.peak_queue_depth.to_string()]);
    t2.row(&["pipeline_windows".into(), fr.windows.to_string()]);
    vec![t, t2]
}

/// E15 — structured tracing over the E14 overload ladder: where does a
/// query's sojourn actually go? The traced replays must be byte-identical
/// to untraced ones (reports *and* every stats surface — the tracing
/// subsystem's zero-impact contract), the exported traces byte-identical
/// across identically-seeded reruns, and the critical-path attribution
/// must show the regime change the admission-control story predicts: at
/// 4x overload the p99 tail is queueing-dominated (>=50% queue wait),
/// while below saturation latency goes to shard fetching.
fn e15_tracing(quick: bool) -> Vec<Table> {
    use qb_load::{replay, replay_traced, ArrivalTrace, RateShape, ReplayConfig, TraceConfig};
    use qb_queenbee::{AdmissionConfig, CacheConfig, GossipConfig};
    use qb_trace::{attribution, to_chrome_trace, Trace};
    use std::collections::BTreeMap;

    const FLEET: usize = 4;
    // Deeper ingress queues and a laxer shed threshold than E14: the point
    // here is *observing* where overload latency goes, so the controller
    // is allowed to queue well past the service time before shedding.
    const QUEUE_CAPACITY: usize = 64;
    const SAT_QPS: f64 = 160.0;
    let (num_pages, secs) = if quick { (20u64, 2u64) } else { (40, 6) };
    let corpus = build_corpus(0xE14, num_pages as usize);

    let build = || {
        let mut config = qb_queenbee::QueenBeeConfig::small();
        config.num_peers = 32;
        config.num_bees = 4;
        config.seed = 0xE14;
        config.net = qb_simnet::NetConfig::default();
        config.cache = CacheConfig::enabled();
        config.gossip = GossipConfig::enabled(FLEET);
        config.admission = AdmissionConfig::enabled();
        config.admission.queue_capacity = QUEUE_CAPACITY;
        config.admission.window_size = 8;
        config.admission.max_windows_in_flight = 2;
        config.admission.degrade_threshold = SimDuration::from_millis(250);
        config.admission.shed_threshold = SimDuration::from_millis(2500);
        let mut qb = qb_bench::build_engine_with(config);
        publish_corpus(&mut qb, &corpus);
        qb
    };
    let replay_cfg = ReplayConfig {
        seed: 0xE14F,
        fresh_fraction: 0.9,
        top_k: 5,
        ..ReplayConfig::default()
    };

    // Sum each stage's critical-path self time over a set of query trees.
    let shares = |spans: &Trace, tail_only: bool| -> (f64, f64, String, u64) {
        let roots: Vec<_> = spans.named("query").collect();
        assert!(!roots.is_empty(), "E15: traced replay recorded no queries");
        let mut sojourns: Vec<SimDuration> = roots.iter().map(|s| s.duration()).collect();
        sojourns.sort();
        let cut = if tail_only {
            sojourns[(sojourns.len() - 1) * 99 / 100]
        } else {
            SimDuration::ZERO
        };
        let mut by_stage: BTreeMap<&str, SimDuration> = BTreeMap::new();
        let mut total = SimDuration::ZERO;
        let mut counted = 0u64;
        for root in roots.iter().filter(|s| s.duration() >= cut) {
            for (name, d) in attribution(spans, root.id) {
                *by_stage.entry(name).or_insert(SimDuration::ZERO) += d;
            }
            total += root.duration();
            counted += 1;
        }
        let of_total = |d: Option<&SimDuration>| {
            100.0 * d.map(|d| d.as_millis_f64()).unwrap_or(0.0) / total.as_millis_f64().max(1e-9)
        };
        // Queueing = admission wait before issue + per-link queueing inside
        // the slowest dependency (the `net_queue` split the event-driven
        // pipeline reports); service = fetch/cache work proper.
        let queue = of_total(by_stage.get("queue_wait")) + of_total(by_stage.get("net_queue"));
        let service = of_total(by_stage.get("fetch")) + of_total(by_stage.get("cache_serve"));
        let dominant = by_stage
            .iter()
            .filter(|(name, _)| **name != "query" && **name != "score")
            .max_by_key(|(_, d)| **d)
            .map(|(name, _)| name.to_string())
            .unwrap_or_default();
        (queue, service, dominant, counted)
    };

    let title = format!(
        "E15a: critical-path attribution over the open-loop ladder — traced replays of the \
         E14 constant-rate traces ({secs}s, 90% Fresh) against a {FLEET}-frontend fleet \
         with deep-queue admission (capacity {QUEUE_CAPACITY}, shed at 2500ms); shares are \
         critical-path self time over the p99 sojourn tail (all = every completed query)"
    );
    let mut t = Table::new(
        &title,
        &[
            "load",
            "completed",
            "p99_ms",
            "tail_queue_share_%",
            "tail_service_share_%",
            "all_queue_share_%",
            "dominant_stage",
            "spans",
        ],
    );

    let levels: [(&str, f64); 3] = [("0.25x", 0.25), ("1x", 1.0), ("4x", 4.0)];
    let mut max_makespan_delta = 0.0f64;
    for (label, mult) in levels {
        let trace = ArrivalTrace::generate(
            &corpus,
            &TraceConfig {
                seed: 0xE14,
                duration: SimDuration::from_secs(secs),
                base_qps: SAT_QPS * mult,
                shape: RateShape::Constant,
                pool_size: 48,
                ..TraceConfig::default()
            },
        );
        // Zero-impact contract: the traced replay's report and every
        // stats surface must be byte-identical to the untraced run's.
        let mut plain = build();
        let report = replay(&mut plain, &trace, &replay_cfg).expect("open-loop replay");
        let mut traced = build();
        let (traced_report, spans) =
            replay_traced(&mut traced, &trace, &replay_cfg).expect("traced replay");
        assert_eq!(
            report, traced_report,
            "E15: tracing must not perturb the {label} replay"
        );
        assert_eq!(
            plain.metrics_snapshot(),
            traced.metrics_snapshot(),
            "E15: tracing must not touch any stats surface at {label}"
        );
        let delta = 100.0
            * (traced_report.makespan.as_millis_f64() - report.makespan.as_millis_f64()).abs()
            / report.makespan.as_millis_f64().max(1e-9);
        max_makespan_delta = max_makespan_delta.max(delta);

        // Determinism: a second traced replay exports the same bytes.
        let mut rerun = build();
        let (_, spans2) = replay_traced(&mut rerun, &trace, &replay_cfg).expect("traced rerun");
        let export = to_chrome_trace(&spans);
        assert_eq!(
            export,
            to_chrome_trace(&spans2),
            "E15: the {label} trace export must be byte-identical across reruns"
        );
        assert_eq!(
            spans.named("query").count() as u64,
            report.completed,
            "E15: one query tree per completed query at {label}"
        );

        let (tail_queue, tail_service, _, _) = shares(&spans, true);
        let (all_queue, _, dominant, _) = shares(&spans, false);
        match label {
            "4x" => {
                assert!(
                    tail_queue >= 50.0,
                    "E15: at 4x overload >=50% of the p99 sojourn tail must be queue wait \
                     (got {tail_queue:.1}%)"
                );
                if std::fs::create_dir_all("bench-results").is_ok() {
                    let _ = std::fs::write("bench-results/trace-e15.json", &export);
                }
            }
            "0.25x" => {
                assert!(
                    dominant == "fetch" || dominant == "cache_serve",
                    "E15: below saturation the critical path must be fetch-dominated \
                     (got '{dominant}', queue share {all_queue:.1}%)"
                );
                assert!(
                    tail_queue < 50.0,
                    "E15: below saturation even the tail must not be queue-dominated \
                     (got {tail_queue:.1}%)"
                );
            }
            _ => {}
        }
        t.row(&[
            label.into(),
            report.completed.to_string(),
            f2(report.p99().as_millis_f64()),
            f2(tail_queue),
            f2(tail_service),
            f2(all_queue),
            dominant,
            spans.len().to_string(),
        ]);
    }

    let mut t2 = Table::new(
        "E15b: tracing integrity — the subsystem's zero-impact and determinism contracts, \
         asserted above and recorded here for the bench gate (the makespan delta has a \
         zero baseline, so any simulated-time overhead fails CI exactly)",
        &["metric", "value"],
    );
    t2.row(&["tracing_makespan_delta_%".into(), f2(max_makespan_delta)]);
    t2.row(&["ladder_levels_traced".into(), levels.len().to_string()]);
    vec![t, t2]
}

/// E8 — systems costs: DHT scaling, index, rank and chain micro-metrics.
fn e8_systems_costs() -> Vec<Table> {
    use qb_dht::{DhtConfig, DhtNetwork};
    use qb_simnet::{NetConfig, SimNet};

    let mut t = Table::new(
        "E8a: DHT lookup cost vs network size (Kademlia, k=20, alpha=3)",
        &[
            "peers",
            "mean_hops",
            "mean_messages",
            "mean_latency_ms",
            "success_%",
        ],
    );
    for &n in &[32usize, 64, 128, 256] {
        let mut net = SimNet::new(n, NetConfig::default(), 0xE8);
        let mut dht = DhtNetwork::build(&mut net, DhtConfig::default());
        net.reset_stats();
        let mut hops = 0usize;
        let mut messages = 0u64;
        let mut lat = LatencyHistogram::new();
        let mut ok = 0usize;
        let trials = 40;
        for i in 0..trials {
            let key = qb_common::DhtKey::from_bytes(format!("probe{i}").as_bytes());
            dht.put_record(&mut net, (i % n) as u64, key, vec![1, 2, 3], 1)
                .expect("put");
            if let Ok(got) = dht.get_record(&mut net, ((i * 13 + 7) % n) as u64, key) {
                hops += got.hops;
                messages += got.messages;
                lat.record(got.latency);
                ok += 1;
            }
        }
        t.row(&[
            n.to_string(),
            f2(hops as f64 / ok.max(1) as f64),
            f2(messages as f64 / ok.max(1) as f64),
            f2(lat.mean().as_millis_f64()),
            f2(100.0 * ok as f64 / trials as f64),
        ]);
    }

    // Index and rank micro-metrics.
    let mut t2 = Table::new(
        "E8b: indexing, ranking and chain micro-metrics",
        &["metric", "value"],
    );
    let corpus = build_corpus(0xE8B, 60);
    let analyzer = qb_index::Analyzer::new();
    let mut index = qb_index::InvertedIndex::new();
    let start = std::time::Instant::now();
    for (i, p) in corpus.pages.iter().enumerate() {
        index.index_text(&analyzer, &p.name, 1, corpus.creators[i], &p.text());
    }
    t2.row(&[
        "local indexing throughput (docs/s)".into(),
        f2(corpus.pages.len() as f64 / start.elapsed().as_secs_f64()),
    ]);
    t2.row(&["distinct terms".into(), index.term_count().to_string()]);
    t2.row(&[
        "index encoded size (KiB)".into(),
        f2(index.encoded_bytes() as f64 / 1024.0),
    ]);
    let mut graph = qb_rank::LinkGraph::new();
    for p in &corpus.pages {
        graph.set_links(&p.name, &p.out_links);
    }
    let start = std::time::Instant::now();
    let ranks = qb_rank::pagerank(&graph, &qb_rank::PageRankConfig::default());
    t2.row(&[
        "pagerank time (ms, 60 pages)".into(),
        f2(start.elapsed().as_secs_f64() * 1e3),
    ]);
    t2.row(&["pagerank mass".into(), f4(ranks.iter().sum::<f64>())]);
    let mut chain = qb_chain::Blockchain::new();
    let start = std::time::Instant::now();
    for i in 0..2_000u64 {
        chain.submit_call(
            AccountId(100 + (i % 50)),
            qb_chain::Call::PublishPage {
                name: format!("p{i}"),
                cid: qb_common::Cid::for_data(&i.to_be_bytes()),
                out_links: vec![],
            },
        );
        if i % 500 == 499 {
            chain.seal_block(SimInstant::ZERO);
        }
    }
    chain.seal_block(SimInstant::ZERO);
    t2.row(&[
        "chain throughput (tx/s, publish calls)".into(),
        f2(2_000.0 / start.elapsed().as_secs_f64()),
    ]);
    t2.row(&[
        "chain integrity verified".into(),
        chain.verify_integrity().is_ok().to_string(),
    ]);
    vec![t, t2]
}

/// E16 — content-addressed index artifacts (qb-segment). Part A compares
/// two identical fleets warming a brand-new frontend: one joins through
/// the ordinary gossip bootstrap (one elevated-budget exchange, then
/// catch-up rounds), the other bulk-bootstraps from the writer's published
/// segment artifact (probe a neighbour for the pointer, fetch the artifact
/// through storage + DHT, import through the version guard, one delta
/// catch-up exchange). Between artifact publish and join a handful of
/// pages are republished, so the artifact is slightly stale and the
/// version guards must cover the gap. Part B measures writer compaction:
/// batched publishes folding pending shards into generational artifacts,
/// and the resulting write amplification.
///
/// Asserted acceptance criteria (the CI smoke job runs this quick):
/// * the segment joiner reaches >=95% of steady-state hit rate, in no
///   more catch-up rounds than the gossip joiner,
/// * with >=50% fewer DHT shard fetches across the warm-up probes,
/// * and strictly fewer bootstrap bytes than the gossip-only warm-up,
/// * zero stale results served after the (stale) artifact import,
/// * every segment publish/fetch byte visibly charged to `NetStats`.
fn e16_segment(quick: bool) -> Vec<Table> {
    use qb_queenbee::{CacheConfig, GossipConfig, SegmentConfig};
    use qb_workload::ZipfSampler;

    const PROBE_K: usize = 30;
    const MAX_JOIN_ROUNDS: usize = 8;
    let fleet_n: usize = if quick { 12 } else { 24 };
    let (num_pages, pool_size, warm_len) = if quick { (40, 80, 360) } else { (80, 160, 720) };

    let corpus = build_corpus(0xE16, num_pages);
    let workload = QueryWorkload::new(&corpus);
    let mut rng = DetRng::new(0xE16);
    let pool = workload.generate_batch(&corpus, &mut rng, pool_size);
    // A broad, near-uniform query mix: bulk bootstrap is about carrying a
    // joiner to *coverage*, not just the Zipf head a few hot-set fills
    // could ship.
    let zipf = ZipfSampler::new(pool.len(), 0.3);
    let stream: Vec<usize> = {
        let mut rng = DetRng::new(0xE16F);
        (0..warm_len).map(|_| zipf.sample(&mut rng)).collect()
    };
    // Per-round probe slices: every catch-up round probes the joiner with
    // queries it has never served, so a probe's own fetches cannot warm
    // the very rate a later round measures.
    let probes: Vec<usize> = {
        let mut rng = DetRng::new(0xE16B);
        (0..PROBE_K * (MAX_JOIN_ROUNDS + 1))
            .map(|_| zipf.sample(&mut rng))
            .collect()
    };

    struct JoinRun {
        steady_hit_rate: f64,
        joined_hit_rate_r0: f64,
        rounds_to_95: u64,
        probe_shard_fetches: u64,
        bootstrap_bytes: u64,
        bootstrap_fill_bytes: u64,
        stale: u64,
        segment: qb_queenbee::SegmentStats,
        report: Option<qb_queenbee::SegmentBootstrapReport>,
        publish_charged: bool,
        fetch_charged: bool,
    }

    let run = |use_segment: bool| -> JoinRun {
        let mut config = qb_queenbee::QueenBeeConfig::small();
        config.num_peers = if quick { 64 } else { 96 };
        config.num_bees = 6;
        config.seed = 0xE16;
        config.cache = CacheConfig::enabled();
        // A shard tier sized to hold the whole (small) index: the point of
        // bulk bootstrap is reaching coverage, so the cache must not be
        // the binding constraint.
        config.cache.shard_capacity_bytes = 512 * 1024;
        // Production-sized chunks: the test-default tiny chunker (64-byte
        // target) would shred a ~100 KB artifact into ~1500 chunks and
        // charge per-chunk RPC overhead that dwarfs the payload.
        config.storage.chunker = qb_storage::ChunkerConfig::default();
        config.gossip = GossipConfig::enabled(fleet_n);
        // Budgets sized like a real deployment, where the index dwarfs
        // what any single exchange can ship: a joiner cannot warm from
        // one elevated-budget bootstrap exchange alone.
        config.gossip.hot_set_size = 24;
        config.gossip.max_fills_per_exchange = 4;
        // Segments on in BOTH runs (identical publish-side costs); the
        // runs differ only in how the late joiner bootstraps. Thresholds
        // out of reach: the artifact is published by one explicit
        // compaction below, bracketed by NetStats readings.
        config.segment = SegmentConfig::enabled();
        config.segment.max_pending_terms = usize::MAX;
        config.segment.max_pending_bytes = usize::MAX;
        let mut qb = qb_bench::build_engine_with(config);
        publish_corpus(&mut qb, &corpus);

        let net_before = qb.net.stats().clone();
        qb.compact_segments()
            .expect("compaction")
            .expect("a publish batch leaves pending shards");
        let publish_delta = qb.net.stats().delta_since(&net_before);
        let seg_after_publish = qb.segment_stats();
        let publish_charged = seg_after_publish.publish_bytes > 0
            && publish_delta.bytes >= seg_after_publish.publish_bytes;

        // Republishes after the artifact: its shards for these pages are
        // now one version behind, so the joiner's import is slightly
        // stale and the read-time version checks must cover the gap.
        let mut rrng = DetRng::new(0xE16C);
        for v in 0..1usize {
            let victim = (v * 7) % corpus.pages.len();
            let page = &corpus.pages[victim];
            let updated = mutate_page(page, 100 + v as u64, &mut rrng);
            let creator = AccountId(corpus.creators[victim]);
            qb.publish((fleet_n + 2 + victim % 8) as u64, creator, &updated)
                .expect("republish");
        }
        qb.seal();
        qb.process_publish_events().expect("reindex");

        // Warm the fleet to steady state; the second half of the stream
        // is the steady-state hit-rate window.
        let mut steady_hits = 0u64;
        let mut steady_served = 0u64;
        for (i, &q) in stream.iter().enumerate() {
            qb.advance_time(SimDuration::from_millis(50));
            let frontend = i % fleet_n;
            if let Ok(out) = qb
                .search_request(SearchRequest::new(&pool[q]).route(RoutingPolicy::Direct(frontend)))
            {
                if i >= stream.len() / 2 {
                    steady_served += 1;
                    if out.shards_fetched() == 0 {
                        steady_hits += 1;
                    }
                }
            }
        }
        let steady_hit_rate = steady_hits as f64 / steady_served.max(1) as f64;

        // The joiner: same fleet state, two bootstrap paths.
        let net_join = qb.net.stats().clone();
        let gossip_join = qb.gossip_stats().expect("fleet");
        let (joined, report) = if use_segment {
            let (idx, rep) = qb.fleet_join_with_segment().expect("segment join");
            (idx, Some(rep))
        } else {
            (qb.fleet_join().expect("gossip join"), None)
        };
        let fetch_charged = match &report {
            Some(r) if r.used_segment => {
                r.fetch_bytes > 0 && qb.net.stats().delta_since(&net_join).bytes >= r.fetch_bytes
            }
            _ => true,
        };

        // Catch-up rounds until the joiner reaches 95% of steady state.
        let target = 0.95 * steady_hit_rate;
        let mut rounds_to_95 = (MAX_JOIN_ROUNDS + 1) as u64; // sentinel: never
        let mut probe_shard_fetches = 0u64;
        let mut joined_hit_rate_r0 = 0.0;
        for r in 0..=MAX_JOIN_ROUNDS {
            if r > 0 {
                qb.advance_time(qb_gossip::config::ROUND_INTERVAL);
            }
            let slice = &probes[r * PROBE_K..(r + 1) * PROBE_K];
            let mut hits = 0u64;
            for &q in slice {
                let out = qb
                    .search_request(
                        SearchRequest::new(&pool[q]).route(RoutingPolicy::Direct(joined)),
                    )
                    .expect("probe");
                probe_shard_fetches += out.shards_fetched() as u64;
                if out.shards_fetched() == 0 {
                    hits += 1;
                }
            }
            let rate = hits as f64 / PROBE_K as f64;
            if r == 0 {
                joined_hit_rate_r0 = rate;
            }
            if rate >= target {
                rounds_to_95 = r as u64;
                break;
            }
        }
        let bootstrap_bytes = qb.net.stats().delta_since(&net_join).bytes;
        let gossip_after = qb.gossip_stats().expect("fleet");

        JoinRun {
            steady_hit_rate,
            joined_hit_rate_r0,
            rounds_to_95,
            probe_shard_fetches,
            bootstrap_bytes,
            bootstrap_fill_bytes: gossip_after.bootstrap_fill_bytes
                - gossip_join.bootstrap_fill_bytes,
            stale: qb.freshness.stale_results,
            segment: qb.segment_stats(),
            report,
            publish_charged,
            fetch_charged,
        }
    };

    let gossip_only = run(false);
    let segment = run(true);
    let seg_report = segment.report.expect("segment run reports its bootstrap");

    // Acceptance criteria, asserted so the CI smoke job catches regressions.
    assert!(
        seg_report.used_segment,
        "E16: the segment joiner must find and use the advertised artifact"
    );
    assert_eq!(gossip_only.stale, 0, "E16: gossip run served stale results");
    assert_eq!(
        segment.stale, 0,
        "E16: stale results served after the artifact import"
    );
    assert!(
        segment.rounds_to_95 <= MAX_JOIN_ROUNDS as u64,
        "E16: segment bootstrap must reach 95% of steady-state hit rate \
         (steady {:.2}, round-0 rate {:.2})",
        segment.steady_hit_rate,
        segment.joined_hit_rate_r0
    );
    assert!(
        segment.rounds_to_95 <= gossip_only.rounds_to_95,
        "E16: segment bootstrap must not need more catch-up rounds than \
         gossip ({} vs {})",
        segment.rounds_to_95,
        gossip_only.rounds_to_95
    );
    assert!(
        2 * segment.probe_shard_fetches <= gossip_only.probe_shard_fetches,
        "E16: segment bootstrap must halve the warm-up DHT shard fetches \
         ({} vs {})",
        segment.probe_shard_fetches,
        gossip_only.probe_shard_fetches
    );
    assert!(
        segment.bootstrap_bytes < gossip_only.bootstrap_bytes,
        "E16: segment bootstrap must move fewer bytes than the gossip-only \
         warm-up ({} vs {})",
        segment.bootstrap_bytes,
        gossip_only.bootstrap_bytes
    );
    for r in [&gossip_only, &segment] {
        assert!(
            r.publish_charged,
            "E16: segment publish bytes must be charged to NetStats"
        );
        assert!(
            r.fetch_charged,
            "E16: segment fetch bytes must be charged to NetStats"
        );
    }

    let title = format!(
        "E16a: bootstrapping frontend {fleet_n} of a {fleet_n}-frontend fleet \
         ({num_pages} pages, {} warm-up queries) — gossip-only vs segment artifact",
        stream.len()
    );
    let mut t = Table::new(
        &title,
        &[
            "config",
            "steady_hit_rate",
            "joined_hit_rate_r0",
            "rounds_to_95",
            "probe_dht_fetches",
            "bootstrap_bytes",
            "bootstrap_fill_bytes",
            "artifact_fetch_bytes",
            "stale_results",
        ],
    );
    for (label, r) in [
        ("gossip-only join", &gossip_only),
        ("segment join", &segment),
    ] {
        t.row(&[
            label.into(),
            f2(r.steady_hit_rate),
            f2(r.joined_hit_rate_r0),
            r.rounds_to_95.to_string(),
            r.probe_shard_fetches.to_string(),
            r.bootstrap_bytes.to_string(),
            r.bootstrap_fill_bytes.to_string(),
            r.segment.fetch_bytes.to_string(),
            r.stale.to_string(),
        ]);
    }
    t.row(&[
        "reduction".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!(
            "{:.1}x",
            gossip_only.probe_shard_fetches as f64 / segment.probe_shard_fetches.max(1) as f64
        ),
        format!(
            "{:.1}x",
            gossip_only.bootstrap_bytes as f64 / segment.bootstrap_bytes.max(1) as f64
        ),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    // Part B: writer compaction. Small per-batch threshold, batched
    // publishes: every batch folds its pending shards into the previous
    // artifact and republishes the merged segment — the classic
    // write-amplification trade of immutable index artifacts.
    let batch_pages = if quick { 8 } else { 10 };
    let mut config = qb_queenbee::QueenBeeConfig::small();
    config.num_peers = if quick { 48 } else { 64 };
    config.num_bees = 6;
    config.seed = 0xE16;
    config.cache = CacheConfig::enabled();
    config.segment = SegmentConfig::enabled();
    config.segment.max_pending_terms = 1; // compact on every publish batch
    let mut qb = qb_bench::build_engine_with(config);
    for (b, chunk) in corpus.pages.chunks(batch_pages).enumerate() {
        for (i, page) in chunk.iter().enumerate() {
            let idx = b * batch_pages + i;
            let creator = AccountId(corpus.creators[idx]);
            qb.publish((idx % 40) as u64, creator, page)
                .expect("publish");
        }
        qb.seal();
        qb.process_publish_events().expect("index batch");
    }
    let seg = qb.segment_stats();
    let artifact = qb.latest_segment().expect("compacted artifact");
    assert!(
        seg.compactions >= 2,
        "E16b: batched publishes must compact repeatedly ({} compactions)",
        seg.compactions
    );
    assert!(
        seg.publish_bytes >= artifact.total_len,
        "E16b: cumulative publish bytes can never undercut the final artifact"
    );

    let mut t2 = Table::new(
        &format!(
            "E16b: writer compaction over {} batches of {batch_pages} pages \
             (compact on every batch)",
            corpus.pages.len().div_ceil(batch_pages)
        ),
        &["metric", "value"],
    );
    for (name, value) in [
        ("compactions", seg.compactions),
        ("input terms folded", seg.compaction_input_terms),
        ("artifacts published", seg.segments_published),
        ("cumulative publish bytes", seg.publish_bytes),
        ("final artifact bytes", artifact.total_len),
        ("final artifact terms", artifact.term_count),
        ("final artifact generation", artifact.generation),
        ("final artifact chunks", artifact.chunk_count),
    ] {
        t2.row(&[name.to_string(), value.to_string()]);
    }
    t2.row(&[
        "write amplification (publish / final bytes)".into(),
        f2(seg.publish_bytes as f64 / artifact.total_len.max(1) as f64),
    ]);
    vec![t, t2]
}

/// E17 — replica-aware routing + hedged fetches: kill the post-crash load
/// spike and the slow-replica tail.
///
/// **Part A** replays the same open-loop trace on a zoned fleet (slow
/// cross-zone links) twice — the seed's ring-successor routing vs
/// rendezvous hashing + power-of-two-choices — crashing one frontend
/// between a warm-up window and the measurement window. The per-frontend
/// admitted counts over the crash window show where the orphaned keyspace
/// lands: the ring walk piles all of it on one successor, rendezvous
/// spreads it across the survivors.
///
/// **Part B** drives the DHT read path on a lossy LAN with hedging off vs
/// on, identical seeds: a dropped primary normally surfaces as an RPC
/// timeout, but the hedged run arms a timer at the origin's adaptive RTT
/// p95 and races a second replica, so its fetch p99 must land strictly
/// below the unhedged run's — while staying inside the hedge-rate valve
/// and a wasted-bytes budget, charging every hedge byte to `NetStats`,
/// and returning byte-identical records.
///
/// Asserted acceptance criteria (the CI smoke job runs this quick):
/// * post-crash per-frontend load spike under rendezvous + two-choices
///   ≤ 0.6× the ring-walk successor's (both measured as the hottest
///   survivor's excess over the pre-crash fair share of the full
///   fleet — even a perfect respread puts 8 slots' traffic on 7
///   survivors, so raw maxima bottom out at 8/7),
/// * hedged fetch p99 strictly below unhedged on the same lossy net,
/// * hedges ≤ the configured percent of fetches (the safety valve) and
///   wasted hedge bytes ≤ 5% of the run's total traffic,
/// * records byte-identical with hedging on vs off, and closed-loop hits
///   byte-identical at the engine level.
fn e17_hedging(quick: bool) -> Vec<Table> {
    use qb_dht::{DhtConfig, DhtNetwork};
    use qb_load::{replay, ArrivalTrace, RateShape, ReplayConfig, TraceConfig};
    use qb_queenbee::{AdmissionConfig, CacheConfig, GossipConfig};
    use qb_simnet::{NetConfig, SimNet};

    // ----- Part A: post-crash routing spike -----------------------------------------

    const ZONES: usize = 4;
    const VICTIM: usize = 2;
    let fleet_n: usize = 8;
    let (num_pages, warm_secs, crash_secs, qps) = if quick {
        (20usize, 1u64, 2u64, 150.0)
    } else {
        (40, 2, 6, 150.0)
    };
    let corpus = build_corpus(0xE17, num_pages);
    let make_trace = |seed: u64, secs: u64| {
        ArrivalTrace::generate(
            &corpus,
            &TraceConfig {
                seed,
                duration: SimDuration::from_secs(secs),
                base_qps: qps,
                shape: RateShape::Constant,
                pool_size: 48,
                ..TraceConfig::default()
            },
        )
    };
    let warm_trace = make_trace(0xE17A, warm_secs);
    let crash_trace = make_trace(0xE17C, crash_secs);

    struct CrashRun {
        admitted: Vec<u64>,
        spike: f64,
        shed: u64,
    }
    let run_policy = |ring: bool| -> CrashRun {
        let mut config = qb_queenbee::QueenBeeConfig::small();
        config.num_peers = 64;
        config.num_bees = 6;
        config.seed = 0xE17;
        // Zoned WAN: cheap in-zone links, 40ms cross-zone links — the
        // "slow-link zone" a crashed frontend's traffic must not pile
        // into.
        config.net = NetConfig::zoned(ZONES, 2_000, 40_000);
        config.cache = CacheConfig::enabled();
        config.gossip = GossipConfig::enabled_zoned(fleet_n, ZONES);
        config.admission = AdmissionConfig::enabled();
        // Generous admission bounds: the measurement is about where
        // arrivals land, so shedding must not mask the spike.
        config.admission.queue_capacity = 128;
        config.admission.shed_threshold = SimDuration::from_secs(5);
        let mut qb = qb_bench::build_engine_with(config);
        publish_corpus(&mut qb, &corpus);
        let replay_cfg = ReplayConfig {
            seed: 0xE17F,
            fresh_fraction: 0.5,
            top_k: 5,
            ring_successor_routing: ring,
        };
        // Warm-up window with the full fleet, then the crash, then the
        // measurement window on the survivors.
        replay(&mut qb, &warm_trace, &replay_cfg).expect("warm-up replay");
        qb.fleet_leave(VICTIM, false).expect("crash");
        let report = replay(&mut qb, &crash_trace, &replay_cfg).expect("crash-window replay");
        // Normalize the hottest survivor by the *pre-crash* fair share:
        // 1.0 = "as if nobody crashed", 2.0 = "one slot absorbed a whole
        // second keyspace" (the ring walk's signature).
        let fair = report.admitted as f64 / fleet_n as f64;
        let max = report
            .admitted_per_frontend
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        CrashRun {
            admitted: report.admitted_per_frontend.clone(),
            spike: max as f64 / fair.max(1e-9),
            shed: report.shed,
        }
    };
    let ring = run_policy(true);
    let hrw = run_policy(false);

    assert_eq!(
        ring.admitted[VICTIM], 0,
        "E17a: the crashed frontend must not be routed to"
    );
    assert_eq!(
        hrw.admitted[VICTIM], 0,
        "E17a: the crashed frontend must not be routed to"
    );
    assert!(
        ring.spike >= 1.5,
        "E17a: the ring walk must actually spike its successor ({:.2}x fair share)",
        ring.spike
    );
    // The spike is the *excess* over the pre-crash fair share: even a
    // perfect respread serves eight slots' traffic on seven survivors
    // (max >= 8/7 of fair share), so comparing raw maxima would demand
    // the impossible once the two-choices spread approaches perfect.
    // Excess isolates the imbalance the routing policy controls.
    assert!(
        hrw.spike - 1.0 <= 0.6 * (ring.spike - 1.0),
        "E17a: rendezvous + two-choices post-crash excess load ({:.2}x over \
         fair share) must stay <= 0.6x the ring-walk spike's excess ({:.2}x)",
        hrw.spike - 1.0,
        ring.spike - 1.0
    );

    let title = format!(
        "E17a: post-crash load spike — {fleet_n}-frontend fleet over {ZONES} zones, \
         frontend {VICTIM} crashes after warm-up, {crash_secs}s crash window at {qps} q/s"
    );
    let mut t = Table::new(
        &title,
        &[
            "routing",
            "admitted_per_frontend",
            "max_admitted",
            "max_over_fair_share",
            "max_over_mean_survivor",
            "shed",
        ],
    );
    for (label, r) in [
        ("ring successor (seed)", &ring),
        ("rendezvous + 2-choices", &hrw),
    ] {
        let max = r.admitted.iter().copied().max().unwrap_or(0);
        let total: u64 = r.admitted.iter().sum();
        let survivors = (fleet_n - 1) as f64;
        t.row(&[
            label.into(),
            format!("{:?}", r.admitted),
            max.to_string(),
            f2(r.spike),
            f2(max as f64 / (total as f64 / survivors).max(1e-9)),
            r.shed.to_string(),
        ]);
    }
    t.row(&[
        "spike reduction".into(),
        "-".into(),
        "-".into(),
        format!("{:.1}x", ring.spike / hrw.spike.max(1e-9)),
        "-".into(),
        "-".into(),
    ]);

    // ----- Part B: hedged fetches on a lossy net ------------------------------------

    // A p95-armed timer naturally fires on ~5% of fetches (the benign
    // p95-exceeders), so a valve at exactly the shipped 5% default would
    // starve genuine timeout rescues behind benign fires; the run leaves
    // headroom for the drop tail while still proving the cap binds.
    const HEDGE_PERCENT: u32 = 10;
    let (nkeys, reads) = if quick {
        (24usize, 500usize)
    } else {
        (32, 1000)
    };
    struct HedgeRun {
        p50: SimDuration,
        p95: SimDuration,
        p99: SimDuration,
        records: Vec<Vec<u8>>,
        stats: qb_simnet::NetStats,
        hedge: qb_dht::HedgeStats,
    }
    let run_dht = |hedged: bool| -> HedgeRun {
        // A lossy LAN: ~1% of sends vanish, so the unhedged tail is the
        // RPC timeout while the common case is sub-millisecond — exactly
        // the gap a p95-armed hedge closes. One RPC in flight at a time
        // (`alpha = 1`): with lookup parallelism a dropped probe's
        // siblings carry the lookup anyway, so the single-flight walk is
        // the regime where the hedge timer is the *only* rescue and the
        // unhedged run pays the full timeout.
        let mut cfg = NetConfig::lan();
        cfg.drop_probability = 0.01;
        let mut net = SimNet::new(64, cfg, 0xE17B);
        let mut dcfg = DhtConfig::small();
        dcfg.alpha = 1;
        if hedged {
            dcfg.hedge = qb_dht::HedgeConfig::enabled();
            dcfg.hedge.percent = HEDGE_PERCENT;
        }
        let mut dht = DhtNetwork::build(&mut net, dcfg);
        let keys: Vec<qb_common::DhtKey> = (0..nkeys)
            .map(|i| qb_common::DhtKey::for_term(&format!("e17-shard-{i}")))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            dht.put_record(
                &mut net,
                (i % 8) as u64,
                *key,
                format!("e17-value-{i}").into_bytes(),
                1,
            )
            .expect("put");
        }
        let origin = 50u64;
        let mut latency = LatencyHistogram::new();
        let mut records = Vec::new();
        for r in 0..reads {
            let got = dht
                .get_record(&mut net, origin, keys[r % nkeys])
                .expect("get");
            latency.record(got.latency);
            records.push(got.record.value);
        }
        HedgeRun {
            p50: latency.value_at_quantile(0.50),
            p95: latency.value_at_quantile(0.95),
            p99: latency.value_at_quantile(0.99),
            records,
            stats: net.stats().clone(),
            hedge: dht.hedge_stats(origin),
        }
    };
    let unhedged = run_dht(false);
    let hedged = run_dht(true);

    assert_eq!(
        unhedged.records, hedged.records,
        "E17b: hedging must not change a single returned record"
    );
    assert!(
        hedged.p99 < unhedged.p99,
        "E17b: hedged fetch p99 ({}) must land strictly below unhedged ({})",
        hedged.p99,
        unhedged.p99
    );
    assert!(
        hedged.hedge.hedges * 100 <= hedged.hedge.fetches * HEDGE_PERCENT as u64,
        "E17b: the hedge-rate valve must hold ({} hedges over {} fetches, cap {HEDGE_PERCENT}%)",
        hedged.hedge.hedges,
        hedged.hedge.fetches
    );
    assert_eq!(
        hedged.stats.hedges_fired, hedged.hedge.hedges,
        "E17b: every fired hedge must be charged to NetStats"
    );
    assert!(
        hedged.stats.hedges_won <= hedged.stats.hedges_fired,
        "E17b: hedge wins cannot exceed fires"
    );
    assert!(
        hedged.stats.hedges_wasted_bytes * 20 <= hedged.stats.bytes,
        "E17b: wasted hedge bytes ({}) must stay <= 5% of total traffic ({})",
        hedged.stats.hedges_wasted_bytes,
        hedged.stats.bytes
    );
    assert_eq!(
        unhedged.stats.hedges_fired, 0,
        "E17b: the unhedged run must never fire a hedge"
    );

    // Engine-level identity: the same closed-loop queries answer with
    // byte-identical hits whether or not the DHT hedges its fetches.
    let run_engine = |hedged: bool| -> Vec<Vec<u64>> {
        let mut config = qb_queenbee::QueenBeeConfig::small();
        config.num_peers = 32;
        config.num_bees = 4;
        config.seed = 0xE17E;
        config.cache = CacheConfig::enabled();
        config.gossip = GossipConfig::enabled(4);
        if hedged {
            config.dht.hedge = qb_dht::HedgeConfig::enabled();
        }
        let mut qb = qb_bench::build_engine_with(config);
        publish_corpus(&mut qb, &corpus);
        let workload = QueryWorkload::new(&corpus);
        let mut rng = DetRng::new(0xE17E);
        workload
            .generate_batch(&corpus, &mut rng, 24)
            .iter()
            .enumerate()
            .map(|(i, q)| {
                let out = qb
                    .search_request(
                        SearchRequest::new(q).route(RoutingPolicy::HashPeer(i as u64 % 4)),
                    )
                    .expect("search");
                out.hits.iter().map(|r| r.doc_id).collect()
            })
            .collect()
    };
    assert_eq!(
        run_engine(false),
        run_engine(true),
        "E17b: closed-loop hits must be byte-identical with hedging on vs off"
    );

    let mut t2 = Table::new(
        &format!(
            "E17b: hedged vs unhedged DHT fetches — {reads} reads over {nkeys} keys on a \
             lossy LAN (1% drops, single-flight lookups), hedge valve {HEDGE_PERCENT}% of fetches"
        ),
        &[
            "config",
            "p50_us",
            "p95_us",
            "p99_us",
            "hedges_fired",
            "hedges_won",
            "hedge_wasted_bytes",
            "fetches",
        ],
    );
    for (label, r) in [("unhedged", &unhedged), ("hedged", &hedged)] {
        t2.row(&[
            label.into(),
            r.p50.as_micros().to_string(),
            r.p95.as_micros().to_string(),
            r.p99.as_micros().to_string(),
            r.stats.hedges_fired.to_string(),
            r.stats.hedges_won.to_string(),
            r.stats.hedges_wasted_bytes.to_string(),
            r.hedge.fetches.to_string(),
        ]);
    }
    t2.row(&[
        "p99 reduction".into(),
        "-".into(),
        "-".into(),
        format!(
            "{:.1}x",
            unhedged.p99.as_micros() as f64 / hedged.p99.as_micros().max(1) as f64
        ),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
    ]);

    // Machine-readable artifact for the CI workflow.
    if std::fs::create_dir_all("bench-results").is_ok() {
        let routing = serde_json::json!({
            "ring_admitted_per_frontend": ring.admitted,
            "hrw_admitted_per_frontend": hrw.admitted,
            "ring_spike_over_fair_share": ring.spike,
            "hrw_spike_over_fair_share": hrw.spike,
            "spike_reduction": ring.spike / hrw.spike.max(1e-9),
        });
        let hedging = serde_json::json!({
            "unhedged_p99_us": unhedged.p99.as_micros(),
            "hedged_p99_us": hedged.p99.as_micros(),
            "hedges_fired": hedged.stats.hedges_fired,
            "hedges_won": hedged.stats.hedges_won,
            "hedge_wasted_bytes": hedged.stats.hedges_wasted_bytes,
            "fetches": hedged.hedge.fetches,
            "valve_percent": HEDGE_PERCENT,
        });
        let artifact = serde_json::json!({
            "experiment": "e17-hedging",
            "quick": quick,
            "routing": routing,
            "hedging": hedging,
        });
        let _ = std::fs::write(
            "bench-results/hedging-e17.json",
            serde_json::to_string_pretty(&artifact).unwrap_or_default(),
        );
    }

    vec![t, t2]
}

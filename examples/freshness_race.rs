//! The freshness race: pages keep updating while QueenBee (publish-driven)
//! and a crawler-driven baseline both try to keep their indexes current.
//!
//! Run with: `cargo run -p qb-examples --release --bin freshness_race`

use qb_baseline::{CentralizedConfig, CentralizedEngine, CrawlDoc};
use qb_chain::AccountId;
use qb_common::{DetRng, SimDuration, SimInstant};
use qb_load::scenario;
use qb_queenbee::{QueenBee, QueenBeeConfig, RoutingPolicy, SearchRequest};
use qb_workload::{mutate_page, UpdateStream};
use std::collections::HashMap;

fn main() {
    let corpus = scenario::corpus(21, 30, 120);

    let mut config = QueenBeeConfig::small();
    config.num_peers = 40;
    config.num_bees = 5;
    let mut qb = QueenBee::new(config).expect("config");
    scenario::publish_all(&mut qb, &corpus, 0..30).unwrap();

    let mut central = CentralizedEngine::new(CentralizedConfig {
        crawl_interval: SimDuration::from_secs(3_600), // hourly crawl
    });
    let mut current: HashMap<String, (u64, String)> = HashMap::new();
    let snapshot = |corpus: &qb_workload::Corpus, current: &HashMap<String, (u64, String)>| {
        corpus
            .pages
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let (v, text) = current.get(&p.name).cloned().unwrap_or((1, p.text()));
                CrawlDoc {
                    name: p.name.clone(),
                    version: v,
                    creator: corpus.creators[i],
                    text,
                }
            })
            .collect::<Vec<_>>()
    };
    central.crawl(&snapshot(&corpus, &current), SimInstant::ZERO);

    // Two simulated hours of popularity-biased edits.
    let stream = UpdateStream::new(&corpus, SimDuration::from_secs(180));
    let mut rng = DetRng::new(22);
    let updates = stream.generate(
        &mut rng,
        SimInstant::ZERO,
        SimInstant::ZERO + SimDuration::from_secs(7_200),
    );
    println!(
        "applying {} page updates over 2 simulated hours...\n",
        updates.len()
    );
    let mut pages: HashMap<String, qb_dweb::WebPage> = corpus
        .pages
        .iter()
        .map(|p| (p.name.clone(), p.clone()))
        .collect();
    let mut last = SimInstant::ZERO;
    for u in &updates {
        qb.advance_time(u.at.since(last));
        last = u.at;
        let name = corpus.pages[u.page_index].name.clone();
        let next = mutate_page(&pages[&name], u.seq, &mut rng);
        qb.publish(
            (u.page_index % 30) as u64,
            AccountId(corpus.creators[u.page_index]),
            &next,
        )
        .unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        let version = qb
            .chain
            .publish_registry()
            .get(&name)
            .map(|r| r.version)
            .unwrap_or(1);
        current.insert(name.clone(), (version, next.text()));
        pages.insert(name, next);
        central.maybe_crawl(&snapshot(&corpus, &current), u.at);
    }

    // Ask both engines about the most recently updated pages.
    let mut qb_stale = 0usize;
    let mut central_stale = 0usize;
    let mut probes = 0usize;
    for u in updates.iter().rev().take(15) {
        let name = &corpus.pages[u.page_index].name;
        let (cur_version, text) = current[name].clone();
        // Query with a term only the newest version contains.
        let marker = text
            .split_whitespace()
            .find(|w| w.starts_with("versionmarker"))
            .unwrap_or("versionmarker1")
            .to_string();
        probes += 1;
        match qb.search_request(SearchRequest::new(&marker).route(RoutingPolicy::HashPeer(3))) {
            Ok(out)
                if out
                    .hits
                    .iter()
                    .any(|r| *r.name == **name && r.version >= cur_version) => {}
            _ => qb_stale += 1,
        }
        match central.search(&marker, 5.0) {
            Ok((results, _))
                if results
                    .iter()
                    .any(|r| *r.name == **name && r.version >= cur_version) => {}
            _ => central_stale += 1,
        }
    }
    println!(
        "probing the {} most recent updates by their newest unique term:",
        probes
    );
    println!(
        "  QueenBee  (publish-driven) : {:2}/{} probes stale",
        qb_stale, probes
    );
    println!(
        "  Centralized (hourly crawl) : {:2}/{} probes stale",
        central_stale, probes
    );
    println!("\ncrawling inevitably reduces freshness — the publish-driven index never lags.");
}

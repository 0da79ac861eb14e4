//! E3 — freshness: publish-driven indexing vs crawling.

use crate::{published, DOC_LEN};
use qb_baseline::{CentralizedConfig, CentralizedEngine, YacyConfig, YacyEngine};
use qb_bench::{crawl_docs, f2, f4, Table};
use qb_chain::AccountId;
use qb_common::{DetRng, SimDuration, SimInstant};
use qb_dweb::WebPage;
use qb_index::ScoredDoc;
use qb_load::scenario::{corpus, sized};
use qb_queenbee::{RoutingPolicy, SearchRequest};
use qb_workload::{mutate_page, QueryWorkload, UpdateStream};
use std::collections::HashMap;

/// The current `(version, text)` of every page that has been republished.
type Versions = HashMap<String, (u64, String)>;

/// Fresh and stale results served by one system, and the summed version lag
/// of the stale ones.
#[derive(Default)]
struct Staleness {
    fresh: u64,
    stale: u64,
    lag: u64,
}

impl Staleness {
    fn add(&mut self, results: &[ScoredDoc], current: &Versions) {
        for r in results {
            let cur = current.get(&*r.name).map(|(v, _)| *v).unwrap_or(1);
            if r.version >= cur {
                self.fresh += 1;
            } else {
                self.stale += 1;
                self.lag += cur - r.version;
            }
        }
    }

    fn row(&self, t: &mut Table, system: &str, crawl_interval: &str) {
        let total = (self.fresh + self.stale).max(1) as f64;
        t.row(&[
            &system,
            &crawl_interval,
            &f2(100.0 * self.stale as f64 / total),
            &f4(self.lag as f64 / total),
        ]);
    }
}

pub fn run() -> Vec<Table> {
    let corpus = corpus(0xE3, 50, DOC_LEN);
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
    let mut qb = published(sized(64, 6, 0xE3), &corpus);
    let stream = UpdateStream::new(&corpus, SimDuration::from_secs(120));
    let mut rng = DetRng::new(0xE3);
    let horizon = SimInstant::ZERO + SimDuration::from_secs(7_200);
    let updates = stream.generate(&mut rng, SimInstant::ZERO, horizon);
    // Track the current version and text of every page for the baselines.
    let mut current = Versions::new();
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
                crawl_interval: *interval,
            })
        })
        .collect();
    let mut central_engines: Vec<CentralizedEngine> = crawl_intervals
        .iter()
        .map(|(_, interval)| {
            CentralizedEngine::new(CentralizedConfig {
                crawl_interval: *interval,
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

    let mut seen = Staleness::default();
    for (i, q) in queries.iter().enumerate() {
        if let Ok(out) =
            qb.search_request(SearchRequest::new(q).route(RoutingPolicy::HashPeer((i % 50) as u64)))
        {
            seen.add(&out.hits, &current);
        }
    }
    seen.row(&mut t, "QueenBee (publish-driven)", "n/a");

    let mut measure_net = qb.net; // reuse the simulated network for YaCy RPC latencies
    for (yacy, (label, _)) in yacy_engines.iter_mut().zip(&crawl_intervals) {
        let mut seen = Staleness::default();
        for (i, q) in queries.iter().enumerate() {
            if let Ok((results, _, _)) = yacy.search(&mut measure_net, (i % 50) as u64, q) {
                seen.add(&results, &current);
            }
        }
        seen.row(&mut t, "YaCy-style (crawling P2P)", label);
    }
    for (central, (label, _)) in central_engines.iter_mut().zip(&crawl_intervals) {
        let mut seen = Staleness::default();
        for q in &queries {
            if let Ok((results, _)) = central.search(q, 10.0) {
                seen.add(&results, &current);
            }
        }
        seen.row(&mut t, "Centralized (crawling)", label);
    }
    vec![t]
}

//! E7 — scraper-site attack vs duplicate detection.

use crate::{published, DOC_LEN};
use qb_bench::Table;
use qb_chain::AccountId;
use qb_dweb::WebPage;
use qb_load::scenario::{corpus, sized};
use qb_queenbee::ScraperAttack;

const SCRAPER_ACCOUNT: u64 = 6_666;

pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E7: scraper mirrors the 10 most popular pages to capture honey",
        &[
            "duplicate_detection",
            "mirrors_accepted",
            "scraper_honey",
            "original_creators_honey",
        ],
    );
    let corpus = corpus(0xE7, 40, DOC_LEN);
    for dup_detection in [true, false] {
        let mut config = sized(48, 6, 0xE7 + dup_detection as u64);
        config.duplicate_detection = dup_detection;
        let mut qb = published(config, &corpus);
        qb.run_rank_round().expect("rank");
        // Pick the 10 highest-ranked victim pages.
        let mut ranked: Vec<&WebPage> = corpus.pages.iter().collect();
        ranked.sort_by(|a, b| {
            qb.rank_of(&b.name)
                .partial_cmp(&qb.rank_of(&a.name))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let victims: Vec<WebPage> = ranked.iter().take(10).map(|p| (*p).clone()).collect();
        let attack = ScraperAttack::new(SCRAPER_ACCOUNT, 10);
        let reports = qb.run_scraper_attack(&attack, &victims).expect("scrape");
        let accepted = reports.iter().filter(|r| r.accepted).count();
        qb.process_publish_events().expect("index");
        qb.run_rank_round().expect("rank after attack");
        let creators_honey: u64 = qb
            .creator_accounts()
            .iter()
            .filter(|a| a.0 != SCRAPER_ACCOUNT)
            .map(|a| qb.chain.balance(*a))
            .sum();
        t.row(&[
            &dup_detection,
            &format!("{accepted}/10"),
            &qb.chain.balance(AccountId(SCRAPER_ACCOUNT)),
            &creators_honey,
        ]);
    }
    vec![t]
}

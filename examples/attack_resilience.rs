//! Demonstrates the two attacks the paper anticipates — worker-bee collusion
//! and scraper sites — and how QueenBee's defenses (verification quorums,
//! stake slashing and duplicate detection) contain them.
//!
//! Run with: `cargo run -p qb-examples --release --bin attack_resilience`

use qb_chain::AccountId;
use qb_dweb::WebPage;
use qb_queenbee::{
    CollusionAttack, QueenBee, QueenBeeConfig, RoutingPolicy, ScraperAttack, SearchRequest,
};

fn page(name: &str, body: &str) -> WebPage {
    WebPage::new(name, format!("Title {name}"), body, vec![])
}

fn main() {
    // ---- Collusion attack -------------------------------------------------
    println!("### Collusion attack (25% of bees boost 'evil/spam') ###");
    let mut qb = QueenBee::new(QueenBeeConfig::small()).expect("config");
    qb.publish(
        1,
        AccountId(6_000),
        &page("evil/spam", "buy cheap spam now"),
    )
    .unwrap();
    qb.seal();
    let attack = CollusionAttack::new(0.25, vec!["evil/spam".into()]);
    qb.apply_collusion(&attack);
    for i in 0..8u64 {
        qb.publish(
            2 + i,
            AccountId(1_000 + i),
            &page(
                &format!("honest/{i}"),
                "genuinely useful article about beekeeping",
            ),
        )
        .unwrap();
    }
    qb.seal();
    qb.process_publish_events().unwrap();
    qb.run_rank_round().unwrap();
    let out = qb
        .search_request(SearchRequest::new("beekeeping").route(RoutingPolicy::HashPeer(3)))
        .unwrap();
    let spam_on_top = out.hits.iter().take(3).any(|r| &*r.name == "evil/spam");
    println!("  spam page in top-3 for 'beekeeping': {spam_on_top}");
    for bee in qb.bees() {
        if bee.is_colluding() {
            println!(
                "  colluding bee on peer {}: flagged {} times, remaining stake {}",
                bee.peer,
                bee.times_flagged,
                qb.chain.reward_pool().stake_of(bee.account)
            );
        }
    }

    // ---- Scraper attack ---------------------------------------------------
    println!("\n### Scraper-site attack (mirroring a popular page) ###");
    for dup_detection in [true, false] {
        let mut config = QueenBeeConfig::small();
        config.duplicate_detection = dup_detection;
        let mut qb = QueenBee::new(config).expect("config");
        let victim = page(
            "blog/viral",
            &(0..150)
                .map(|i| format!("originalword{} ", i % 40))
                .collect::<String>(),
        );
        qb.publish(1, AccountId(1_000), &victim).unwrap();
        qb.seal();
        qb.process_publish_events().unwrap();
        let attack = ScraperAttack::new(6_666, 1);
        let reports = qb.run_scraper_attack(&attack, &[victim]).unwrap();
        qb.process_publish_events().unwrap();
        println!(
            "  duplicate detection {:5}: mirror accepted = {:5}, scraper honey = {}",
            dup_detection,
            reports[0].accepted,
            qb.chain.balance(AccountId(6_666))
        );
    }

    // ---- DDoS / failures --------------------------------------------------
    println!("\n### Availability under failures ###");
    let mut qb = QueenBee::new(QueenBeeConfig::small()).expect("config");
    qb.publish(
        1,
        AccountId(1_000),
        &page("p/alive", "resilient content that survives outages"),
    )
    .unwrap();
    qb.seal();
    qb.process_publish_events().unwrap();
    for fraction in [0.0, 0.25, 0.5] {
        qb.net.heal_all();
        qb.net.fail_fraction(fraction, &[7]);
        let ok = qb
            .search_request(
                SearchRequest::new("resilient outages").route(RoutingPolicy::HashPeer(7)),
            )
            .map(|o| !o.hits.is_empty())
            .unwrap_or(false);
        println!(
            "  {:3.0}% of peers down -> query answered: {ok}",
            fraction * 100.0
        );
    }
}

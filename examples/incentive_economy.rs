//! Runs the QueenBee honey economy end to end — publish rewards, indexing and
//! ranking bounties, popularity rewards, advertiser campaigns and click
//! revenue sharing — and prints who ended up with the honey.
//!
//! Run with: `cargo run -p qb-examples --release --bin incentive_economy`

use qb_common::DetRng;
use qb_load::scenario;
use qb_queenbee::{gini_coefficient, QueenBee, QueenBeeConfig, RoutingPolicy, SearchRequest};
use qb_workload::{AdvertiserWorkload, QueryWorkload};

fn main() {
    let corpus = scenario::corpus(11, 60, 120);

    let mut config = QueenBeeConfig::small();
    config.num_peers = 48;
    config.num_bees = 6;
    let mut qb = QueenBee::new(config).expect("config");

    scenario::publish_all(&mut qb, &corpus, 0..40).unwrap();
    qb.run_rank_round().unwrap();

    // Advertisers join and users search + click for a while.
    let ads = AdvertiserWorkload::new(&corpus, 6);
    let mut rng = DetRng::new(12);
    for spec in ads.generate(&corpus, &mut rng) {
        qb.register_advertiser(&spec).unwrap();
    }
    let workload = QueryWorkload::new(&corpus);
    let mut clicks = 0u64;
    for (i, q) in workload
        .generate_batch(&corpus, &mut rng, 120)
        .iter()
        .enumerate()
    {
        if let Ok(out) =
            qb.search_request(SearchRequest::new(q).route(RoutingPolicy::HashPeer((i % 40) as u64)))
        {
            if out.ad.is_some() && ads.user_clicks(&mut rng) && qb.click_ad(&out).unwrap_or(false) {
                clicks += 1;
            }
        }
    }
    qb.run_rank_round().unwrap();

    let roles = qb.honey_by_role();
    println!("honey economy after {clicks} paid ad clicks:");
    println!("  creators    : {:>12} nectar", roles.creators);
    println!("  worker bees : {:>12} nectar", roles.bees);
    println!(
        "  advertisers : {:>12} nectar (unspent budgets)",
        roles.advertisers
    );
    println!("  treasury    : {:>12} nectar", roles.treasury);
    println!(
        "  other       : {:>12} nectar (escrows, validators)",
        roles.other
    );
    println!(
        "  supply conserved: {}",
        qb.chain.accounts().total_supply() == qb_chain::GENESIS_SUPPLY
    );

    let creator_balances: Vec<u64> = qb
        .creator_accounts()
        .iter()
        .map(|a| qb.chain.balance(*a))
        .collect();
    println!("\nfairness:");
    println!(
        "  {} creators, Gini of creator honey = {:.2}",
        creator_balances.len(),
        gini_coefficient(&creator_balances)
    );
    let mut top: Vec<(String, f64)> = qb
        .chain
        .publish_registry()
        .pages()
        .map(|p| (p.name.clone(), qb.rank_of(&p.name)))
        .collect();
    top.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("  top ranked pages (popularity-reward candidates):");
    for (name, rank) in top.iter().take(5) {
        let creator = qb.chain.publish_registry().get(name).unwrap().creator;
        println!(
            "    {:28} rank={:.4}  creator {:?} balance {}",
            name,
            rank,
            creator,
            qb.chain.balance(creator)
        );
    }
    let ad_market = qb.chain.ad_market();
    println!(
        "\nad market: {} campaigns, total click revenue {} nectar",
        ad_market.len(),
        ad_market.total_revenue
    );
}

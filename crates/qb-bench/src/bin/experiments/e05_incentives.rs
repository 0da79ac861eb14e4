//! E5 — the incentive scheme: honey flows between stakeholders.

use crate::{published, DOC_LEN};
use qb_bench::{f2, Table};
use qb_common::DetRng;
use qb_load::scenario::{corpus, sized};
use qb_queenbee::{gini_coefficient, RoutingPolicy, SearchRequest};
use qb_workload::{AdvertiserWorkload, QueryWorkload};
use std::collections::HashMap;

pub fn run() -> Vec<Table> {
    let corpus = corpus(0xE5, 60, DOC_LEN);
    let mut qb = published(sized(64, 6, 0xE5), &corpus);
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
            &role,
            &amount,
            &f2(100.0 * amount as f64 / circulating as f64),
        ]);
    }
    t.row(&[&"treasury", &roles.treasury, &"-"]);
    t.row(&[&"ad clicks charged", &clicks, &"-"]);

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
    let creator_honey: Vec<u64> = creator_balances.iter().map(|(_, b)| *b).collect();
    let bee_honey: Vec<u64> = qb
        .bee_accounts()
        .iter()
        .map(|a| qb.chain.balance(*a))
        .collect();
    let mut t2 = Table::new("E5b: fairness indicators", &["metric", "value"]);
    t2.row(&[&"creators", &creator_balances.len()]);
    t2.row(&[&"corr(creator rank mass, creator honey)", &f2(correlation)]);
    t2.row(&[
        &"Gini(creator honey)",
        &f2(gini_coefficient(&creator_honey)),
    ]);
    t2.row(&[&"Gini(bee honey)", &f2(gini_coefficient(&bee_honey))]);
    t2.row(&[
        &"total supply conserved",
        &(qb.chain.accounts().total_supply() == qb_chain::GENESIS_SUPPLY),
    ]);
    vec![t, t2]
}

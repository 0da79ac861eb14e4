//! E6 — collusion attack on index and rank data vs the verification quorum.

use crate::{published, DOC_LEN};
use qb_bench::{f2, Table};
use qb_chain::AccountId;
use qb_dweb::WebPage;
use qb_load::scenario::{corpus, queries, sized};
use qb_queenbee::{CollusionAttack, QueenBee, RoutingPolicy, SearchRequest};

const BEES: usize = 8;

/// Honey the bees currently have at stake.
fn total_stake(qb: &QueenBee) -> u64 {
    qb.bee_accounts()
        .iter()
        .map(|a| qb.chain.reward_pool().stake_of(*a))
        .sum()
}

pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E6: collusion attack (bees boosting 'evil/spam') vs verification quorum; \
         probes: 30 corpus queries, the spam page's 7 words, the 30 with a spam word \
         appended (that word alone tops the union on BM25, so spam_in_top3_% cannot \
         see the quorum)",
        &[
            "colluding_fraction",
            "quorum",
            "spam_in_top3_%",
            "rank_inflation_x",
            "colluders_flagged",
            "honey_slashed",
        ],
    );
    let corpus = corpus(0xE6, 30, DOC_LEN);
    for &fraction in &[0.0, 0.25, 0.5] {
        for &quorum in &[1usize, 3] {
            let seed = 0xE6 ^ ((fraction * 100.0) as u64) ^ ((quorum as u64) << 32);
            let mut config = sized(48, BEES, seed);
            config.index_quorum = quorum;
            config.rank.quorum = quorum;
            let mut qb = published(config, &corpus);
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
            let stake_before = total_stake(&qb);
            qb.process_publish_events().expect("index");
            qb.run_rank_round().expect("rank");
            let spam_rank = qb.rank_of("evil/spam");
            let uniform = 1.0 / qb.chain.publish_registry().len().max(1) as f64;
            // The probes: corpus queries, which no corpus word lets reach
            // the spam page (each ends in its `q<i>` tag); the spam page's
            // own words; and each corpus query with a spam word appended,
            // whose empty conjunction falls back to the union of the
            // corpus matches and the spam page.
            let corpus_queries = queries(&corpus, 0xE6, 30);
            let mut spam_words: Vec<&str> = Vec::new();
            for word in spam.body.split_whitespace() {
                if !spam_words.contains(&word) {
                    spam_words.push(word);
                }
            }
            let appended = corpus_queries.iter().zip(spam_words.iter().cycle());
            let probes: Vec<String> = corpus_queries
                .iter()
                .cloned()
                .chain(spam_words.iter().map(|word| word.to_string()))
                .chain(appended.map(|(query, word)| format!("{query} {word}")))
                .collect();
            let mut spam_hits = 0;
            let mut answered = 0;
            for (i, q) in probes.iter().enumerate() {
                if let Ok(out) = qb.search_request(
                    SearchRequest::new(q).route(RoutingPolicy::HashPeer((i % 40) as u64)),
                ) {
                    answered += 1;
                    if out.hits.iter().take(3).any(|r| &*r.name == "evil/spam") {
                        spam_hits += 1;
                    }
                }
            }
            let flagged = qb
                .bees()
                .iter()
                .filter(|b| b.times_flagged > 0 && b.is_colluding())
                .count();
            t.row(&[
                &f2(fraction),
                &quorum,
                &f2(100.0 * spam_hits as f64 / answered.max(1) as f64),
                &f2(spam_rank / uniform),
                &format!("{flagged}/{}", attack.colluders(BEES)),
                &(stake_before - total_stake(&qb)),
            ]);
        }
    }
    vec![t]
}

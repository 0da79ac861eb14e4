//! Integration tests for the paper's research challenges: the incentive
//! scheme (challenge I) and the collusion / scraper attacks (challenge II).

use qb_chain::AccountId;
use qb_integration::{page, publish_and_index, small_engine};
use qb_queenbee::{BeeBehaviour, CollusionAttack, RoutingPolicy, ScraperAttack, SearchRequest};

#[test]
fn honest_economy_rewards_every_stakeholder_and_conserves_supply() {
    let mut qb = small_engine(20);
    for i in 0..5u64 {
        // Each creator writes genuinely different content (identical bodies
        // would be rejected by the near-duplicate defense, by design).
        publish_and_index(
            &mut qb,
            1 + i,
            1_000 + i,
            &page(
                &format!("site/{i}"),
                &format!("distinct article number {i} about topic{i} linking to the hub because it is useful"),
                &["site/hub"],
            ),
        );
    }
    publish_and_index(
        &mut qb,
        7,
        1_100,
        &page("site/hub", "the hub everyone references", &[]),
    );
    qb.run_rank_round().expect("rank");

    // Creators earned publish rewards; the hub creator also earned the
    // popularity reward; bees earned indexing + ranking bounties.
    for i in 0..5u64 {
        assert!(qb.chain.balance(AccountId(1_000 + i)) >= qb_chain::PUBLISH_REWARD);
    }
    assert!(
        qb.chain.balance(AccountId(1_100))
            > qb_chain::PUBLISH_REWARD + qb_chain::POPULARITY_REWARD / 2
    );
    for bee in qb.bee_accounts() {
        assert!(qb.chain.balance(bee) > 0, "bee {bee:?} earned nothing");
    }
    assert_eq!(qb.chain.accounts().total_supply(), qb_chain::GENESIS_SUPPLY);
}

#[test]
fn colluding_minority_is_caught_flagged_and_slashed() {
    let mut qb = small_engine(21);
    // One of four bees colludes (quorum is 3, so it is always outvoted when
    // assigned together with two honest bees).
    let colluding = BeeBehaviour::Colluding {
        boost_pages: vec!["evil/spam".into()],
    };
    qb.set_bee_behaviour(0, colluding.clone()).unwrap();
    // There are four bees: index 4 names none of them.
    let err = qb.set_bee_behaviour(4, colluding).unwrap_err();
    assert!(err.to_string().contains("0..4"), "{err}");
    let colluder_account = qb.bees()[0].account;
    let stake_before = qb.chain.reward_pool().stake_of(colluder_account);

    for i in 0..6u64 {
        publish_and_index(
            &mut qb,
            1 + i,
            1_000 + i,
            &page(
                &format!("honest/{i}"),
                "perfectly ordinary honest web content",
                &[],
            ),
        );
    }
    // The spam page never appears in results for honest content queries.
    let out = qb
        .search_request(SearchRequest::new("ordinary honest").route(RoutingPolicy::HashPeer(3)))
        .expect("search");
    assert!(out.hits.iter().all(|r| &*r.name != "evil/spam"));

    // The colluder was flagged whenever it was assigned, and slashed.
    let colluder = &qb.bees()[0];
    if colluder.times_flagged > 0 {
        assert!(qb.chain.reward_pool().stake_of(colluder_account) < stake_before);
    }
    // Honest bees were never flagged.
    for bee in qb.bees().iter().skip(1) {
        assert_eq!(bee.times_flagged, 0, "honest bee was wrongly flagged");
    }
}

#[test]
fn collusion_without_redundancy_poisons_the_index() {
    // With quorum = 1 there is no verification: a single colluding bee can
    // inject its spam postings — this is the "no defense" control group.
    let mut config = qb_queenbee::QueenBeeConfig::small();
    config.index_quorum = 1;
    config.seed = 22;
    let mut qb = qb_queenbee::QueenBee::new(config).unwrap();
    for i in 0..qb.bees().len() {
        qb.set_bee_behaviour(
            i,
            BeeBehaviour::Colluding {
                boost_pages: vec!["evil/spam".into()],
            },
        )
        .unwrap();
    }
    publish_and_index(
        &mut qb,
        1,
        1_000,
        &page("honest/page", "unique honest keyword sunflower", &[]),
    );
    let out = qb
        .search_request(SearchRequest::new("sunflower").route(RoutingPolicy::HashPeer(3)))
        .expect("search");
    assert!(
        out.hits.iter().any(|r| &*r.name == "evil/spam"),
        "without a quorum the spam injection should succeed"
    );
}

#[test]
fn scraper_attack_is_stopped_by_duplicate_detection() {
    let mut qb = small_engine(23);
    let victim = page(
        "blog/viral",
        &(0..120)
            .map(|i| format!("creativeword{} ", i % 30))
            .collect::<String>(),
        &[],
    );
    publish_and_index(&mut qb, 1, 1_000, &victim);

    let attack = ScraperAttack::new(6_666, 1);
    let reports = qb
        .run_scraper_attack(&attack, std::slice::from_ref(&victim))
        .expect("attack");
    assert!(!reports[0].accepted, "mirror should be rejected");
    assert_eq!(
        qb.chain.balance(AccountId(6_666)),
        0,
        "scraper earns nothing"
    );

    // Control: with the defense off the scraper collects publish rewards.
    let mut config = qb_queenbee::QueenBeeConfig::small();
    config.duplicate_detection = false;
    config.seed = 24;
    let mut qb2 = qb_queenbee::QueenBee::new(config).unwrap();
    publish_and_index(&mut qb2, 1, 1_000, &victim);
    let reports = qb2.run_scraper_attack(&attack, &[victim]).expect("attack");
    assert!(reports[0].accepted);
    assert!(qb2.chain.balance(AccountId(6_666)) > 0);
}

#[test]
fn collusion_attack_helper_scales_with_fraction() {
    let mut qb = small_engine(25);
    let attack = CollusionAttack::new(0.5, vec!["evil/spam".into()]);
    qb.apply_collusion(&attack);
    let colluders = qb.bees().iter().filter(|b| b.is_colluding()).count();
    assert_eq!(colluders, qb.bees().len() / 2);
}

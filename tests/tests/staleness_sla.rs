//! The `MaxStaleness` SLA under E12-style churn: a frontend partitioned
//! away misses publish-path invalidations, and once the partition heals
//! its superseded cache entries may serve under a staleness bound. This
//! suite sweeps the bound and asserts the contract the freshness mode
//! sells:
//!
//! * every stale serve's age stays **within the configured bound** — the
//!   SLA itself, checked per response from the term provenance;
//! * a larger bound never serves *fewer* queries locally (hit rate is
//!   monotone in the bound) and never issues *more* DHT fetches;
//! * a zero-tolerance sweep (`CacheOk` strictness) serves nothing stale
//!   at all.

use qb_chain::AccountId;
use qb_common::SimDuration;
use qb_load::scenario;
use qb_queenbee::{
    CacheConfig, Freshness, GossipConfig, QueenBee, RoutingPolicy, SearchRequest, SearchResponse,
    TermProvenance,
};

const FLEET: usize = 3;
/// The frontend that gets partitioned away from every republish.
const LAGGER: usize = 2;
const PAGES: usize = 4;

fn story_term(p: usize) -> &'static str {
    ["storyalpha", "storybeta", "storygamma", "storydelta"][p]
}

fn page(p: usize, version_tag: usize) -> qb_dweb::WebPage {
    qb_dweb::WebPage::new(
        format!("news/{p}"),
        format!("Story {p}"),
        format!(
            "{} rolling coverage edition{version_tag} shared filler words",
            story_term(p)
        ),
        vec![],
    )
}

fn fleet_engine() -> QueenBee {
    let mut config = scenario::sized(24, 4, 0x51A);
    config.cache = CacheConfig::enabled();
    // Fleet mode without the gossip exchange: staleness must come from the
    // missed invalidation alone, not race a gossip fill that would repair
    // the lagging frontend mid-measurement.
    config.gossip = GossipConfig::fleet(FLEET);
    QueenBee::new(config).expect("valid config")
}

/// Ages of the stale serves in one response, asserted against the bound.
fn stale_ages(response: &SearchResponse) -> Vec<SimDuration> {
    response
        .provenance
        .iter()
        .filter_map(|p| match p {
            TermProvenance::StaleCache { age } => Some(*age),
            _ => None,
        })
        .collect()
}

struct SweepOutcome {
    stale_serves: u64,
    dht_fetches: u64,
    local_serves: u64,
    queries: u64,
    max_age_over_bound: bool,
    stale_results: u64,
}

/// Replay the identical churn scenario under one freshness mode: warm the
/// lagging frontend, then run rounds of (partition → republish → heal →
/// query) so its cache accumulates superseded entries of growing age.
fn run_sweep(freshness: Freshness) -> SweepOutcome {
    let mut qb = fleet_engine();
    for p in 0..PAGES {
        qb.publish(10, AccountId(1_000 + p as u64), &page(p, 0))
            .expect("publish");
    }
    qb.seal();
    qb.process_publish_events().expect("index");

    // Warm the lagging frontend on every story at version 1.
    for p in 0..PAGES {
        let out = qb
            .search_request(SearchRequest::new(story_term(p)).route(RoutingPolicy::Direct(LAGGER)))
            .expect("warm query");
        assert!(!out.hits.is_empty());
    }

    let lagger_peer = LAGGER as u64;
    let mut outcome = SweepOutcome {
        stale_serves: 0,
        dht_fetches: 0,
        local_serves: 0,
        queries: 0,
        max_age_over_bound: false,
        stale_results: 0,
    };
    for round in 0..PAGES {
        // The lagging frontend drops off the network; a story is
        // republished while it cannot observe the invalidation.
        qb.net.set_partition(lagger_peer, 9);
        qb.advance_time(SimDuration::from_secs(5));
        qb.publish(10, AccountId(1_000 + round as u64), &page(round, round + 1))
            .expect("republish");
        qb.seal();
        qb.process_publish_events().expect("reindex");
        qb.advance_time(SimDuration::from_secs(5));
        qb.net.set_partition(lagger_peer, 0);

        // Healed: every story is queried at the lagging frontend under the
        // swept freshness mode.
        for p in 0..PAGES {
            let response = qb
                .search_request(
                    SearchRequest::new(story_term(p))
                        .route(RoutingPolicy::Direct(LAGGER))
                        .freshness(freshness),
                )
                .expect("bounded query");
            outcome.queries += 1;
            let ages = stale_ages(&response);
            if let Freshness::MaxStaleness(bound) = freshness {
                if ages.iter().any(|age| *age > bound) {
                    outcome.max_age_over_bound = true;
                }
            } else {
                assert!(ages.is_empty(), "strict modes never serve stale");
            }
            outcome.stale_serves += ages.len() as u64;
            let fetched = response.shards_fetched() as u64;
            outcome.dht_fetches += fetched;
            if fetched == 0 {
                outcome.local_serves += 1;
            }
        }
    }
    outcome.stale_results = qb.freshness.stale_results;
    outcome
}

#[test]
fn stale_serves_stay_within_the_configured_bound() {
    // Bounds bracketing the scenario's entry ages (first query round sees
    // ~10s-old superseded entries, later rounds up to ~40s).
    let bounds = [5u64, 25, 1_000];
    let mut previous: Option<SweepOutcome> = None;
    for &secs in &bounds {
        let bound = SimDuration::from_secs(secs);
        let outcome = run_sweep(Freshness::MaxStaleness(bound));
        assert!(
            !outcome.max_age_over_bound,
            "SLA violated at bound {secs}s: a stale serve exceeded its bound"
        );
        assert_eq!(outcome.queries, (PAGES * PAGES) as u64);
        if let Some(prev) = &previous {
            assert!(
                outcome.stale_serves >= prev.stale_serves,
                "a larger bound must never serve less stale data \
                 ({} vs {} at {secs}s)",
                outcome.stale_serves,
                prev.stale_serves
            );
            assert!(
                outcome.dht_fetches <= prev.dht_fetches,
                "a larger bound must never fetch more \
                 ({} vs {} at {secs}s)",
                outcome.dht_fetches,
                prev.dht_fetches
            );
            assert!(
                outcome.local_serves >= prev.local_serves,
                "hit rate must be monotone in the bound"
            );
        }
        previous = Some(outcome);
    }
    let widest = previous.expect("swept");
    assert!(
        widest.stale_serves > 0,
        "the widest bound must actually exercise stale serving"
    );
    assert!(
        widest.stale_results > 0,
        "deliberately served stale shards must show up in the freshness probe"
    );

    // The tight 5s bound can never serve the ≥10s-old superseded entries.
    let tight = run_sweep(Freshness::MaxStaleness(SimDuration::from_secs(5)));
    assert_eq!(tight.stale_serves, 0);
    assert_eq!(tight.stale_results, 0);
}

#[test]
fn strict_freshness_under_the_same_churn_never_serves_stale() {
    let outcome = run_sweep(Freshness::CacheOk);
    assert_eq!(outcome.stale_serves, 0);
    assert_eq!(
        outcome.stale_results, 0,
        "CacheOk version checks must purge every superseded entry"
    );
    // Strictness costs fetches: the lagging frontend re-reads every
    // republished story through the DHT.
    assert!(outcome.dht_fetches > 0);
}

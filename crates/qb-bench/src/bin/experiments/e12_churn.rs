//! E12 — the gossip overlay at fleet scale, under churn and latency zones.
//! A 16-frontend fleet spread over 4 latency zones serves a shared
//! Zipf(1.0) stream with mid-stream republishes while frontends crash,
//! restart and join. Four runs compare the digest encodings: full hot-set
//! digests (the PR 2 protocol) vs delta digests + holdings filter, then
//! zone-aware fill budgets and zone-aware anti-entropy on top.
//!
//! Asserted acceptance criteria (the CI smoke job runs this):
//! * steady-state gossip digest bytes drop >= 5x under delta digests,
//! * a newly joined frontend reaches >= 80% of the fleet's steady-state
//!   cache hit rate within 3 gossip rounds of its bootstrap exchange —
//!   warmed by the fleet, never by direct DHT pre-warming,
//! * stale results served stay exactly 0 through all the churn.

use crate::e17_routing::{crash_window, CRASH_FLEET, CRASH_VICTIM};
use crate::{published, DOC_LEN};
use qb_bench::{count_ratio_x, f2, ratio_x, Table};
use qb_common::{DetRng, SimDuration};
use qb_load::scenario::{constant_trace, corpus, republish, sized, zipf_picks, QueryStream, Tally};
use qb_queenbee::{
    CacheConfig, DigestMode, GossipConfig, GossipStats, RoutingPolicy, SearchRequest,
};
use qb_simnet::NetConfig;
use qb_workload::Corpus;
use std::fmt::Display;

const ZONES: usize = 4;
const FLEET: usize = 16;
const JOIN_PROBES: usize = 30;
const JOIN_ROUNDS: usize = 3;
const PAGES: usize = 40;
const POOL: usize = 60;
/// Stream phases: warm-up, the steady-state measurement window, churn.
const WARM: usize = 160;
const STEADY: usize = 160;
const CHURN: usize = 96;

struct ChurnRun {
    steady_digest_bytes: u64,
    steady_membership_bytes: u64,
    served: Tally,
    stale: u64,
    steady_hit_rate: f64,
    joined_hit_rate: f64,
    stats: GossipStats,
    peer_down_events: u64,
    peer_up_events: u64,
}

fn churn_run(
    corpus: &Corpus,
    stream: &QueryStream,
    probes: &[usize],
    mode: DigestMode,
    zone_budgets: bool,
    zone_aware_ae: bool,
) -> ChurnRun {
    let mut config = sized(64, 6, 0xE12);
    config.net = NetConfig::zoned(ZONES, 2_000, 40_000);
    config.cache = CacheConfig::enabled();
    config.gossip = GossipConfig::enabled_zoned(FLEET, ZONES);
    config.gossip.digest_mode = mode;
    config.gossip.zone_fill_budgets = zone_budgets;
    config.gossip.zone_aware_anti_entropy = zone_aware_ae;
    // The periodic full-digest safety net stays on in every run, paced
    // for a steady fleet (the default 2s is tuned for small partition
    // tests; at 40 regular rounds per anti-entropy sweep the exact
    // reconciliation still bounds any compression-delayed fill).
    config.gossip.anti_entropy_interval = SimDuration::from_secs(8);
    let mut qb = published(config, corpus);

    let mut rng = DetRng::new(0xE12A);
    let mut served = Tally::default();
    let mut steady_hits = 0u64;
    let mut steady_served = 0u64;
    let mut steady_window = (0u64, 0u64); // (digest, membership) bytes at window start
    let mut crashed: Vec<usize> = Vec::new();

    for i in 0..stream.picks.len() {
        // Mid-stream republishes race the gossip rounds and the churn:
        // the version guard and publish-path invalidation must keep
        // every served result fresh even on frontends that missed the
        // publish while crashed.
        if i > 0 && i % 100 == 0 {
            let victim = i / 100 % corpus.pages.len();
            let peer = (FLEET + 2 + victim % 8) as u64;
            republish(&mut qb, corpus, victim, peer, i as u64, &mut rng).expect("republish");
        }
        if i == WARM {
            let g = qb.gossip_stats().expect("fleet");
            steady_window = (g.digest_bytes, g.membership_bytes);
        }
        if i == WARM + STEADY {
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
        if i == WARM + STEADY + CHURN / 2 {
            // ...and one of them restarts, warming from the fleet.
            qb.fleet_rejoin(crashed[0]).expect("rejoin");
        }
        qb.advance_time(SimDuration::from_millis(50));
        // One shared stream, served round-robin across the live fleet.
        let actives: Vec<usize> = (0..qb.num_frontends())
            .filter(|&f| qb.fleet().expect("fleet").is_active(f))
            .collect();
        let frontend = actives[i % actives.len()];
        if let Ok(out) = qb.search_request(
            SearchRequest::new(stream.query(i)).route(RoutingPolicy::Direct(frontend)),
        ) {
            served.record(&out);
            if (WARM..WARM + STEADY).contains(&i) {
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
    for &q in probes {
        if let Ok(out) = qb.search_request(
            SearchRequest::new(&stream.pool[q]).route(RoutingPolicy::Direct(joined)),
        ) {
            served.messages += out.messages();
            served.shard_fetches += out.shards_fetched() as u64;
            if out.shards_fetched() == 0 {
                joined_hits += 1;
            }
        }
    }

    ChurnRun {
        steady_digest_bytes: steady_window.0,
        steady_membership_bytes: steady_window.1,
        served,
        stale: qb.freshness.stale_results,
        steady_hit_rate: steady_hits as f64 / steady_served.max(1) as f64,
        joined_hit_rate: joined_hits as f64 / probes.len().max(1) as f64,
        stats: qb.gossip_stats().expect("fleet"),
        peer_down_events: qb.net.stats().peer_down_events,
        peer_up_events: qb.net.stats().peer_up_events,
    }
}

pub fn run() -> Vec<Table> {
    let corpus = corpus(0xE12, PAGES, DOC_LEN);
    let stream = QueryStream::new(&corpus, 0xE12, POOL, 1.0, 0xE12F, WARM + STEADY + CHURN);
    let probes = zipf_picks(stream.pool.len(), 1.0, 0xE12B, JOIN_PROBES);
    let run = |mode, zone_budgets, zone_aware_ae| {
        churn_run(&corpus, &stream, &probes, mode, zone_budgets, zone_aware_ae)
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

    let mut t = Table::new(
        &format!(
            "E12a: {FLEET}-frontend fleet over {ZONES} latency zones under churn \
             ({} queries, 2 crashes + 1 restart + 1 join), full vs delta digests",
            stream.picks.len()
        ),
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
            &label,
            &r.steady_digest_bytes,
            &r.stats.total_bytes(),
            &r.served.messages,
            &r.served.shard_fetches,
            &f2(r.served.latency.mean().as_millis_f64()),
            &r.stale,
        ]);
    }
    t.row(&[
        &"reduction",
        &count_ratio_x(full.steady_digest_bytes, delta.steady_digest_bytes),
        &count_ratio_x(full.stats.total_bytes(), delta.stats.total_bytes()),
        &"-",
        &"-",
        &"-",
        &"-",
    ]);

    let mut t2 = Table::new(
        "E12b: churn, membership and join warm-up (delta-digest run)",
        &["metric", "value"],
    );
    let joined_label = format!("joined frontend hit rate (after {JOIN_ROUNDS} rounds)");
    let rows: &[(&str, &dyn Display)] = &[
        ("frontends (initial)", &FLEET),
        ("crashes", &delta.stats.crashes),
        ("restarts + joins", &delta.stats.joins),
        ("view evictions", &delta.stats.evictions),
        ("view revivals", &delta.stats.revivals),
        ("peer down events (simnet)", &delta.peer_down_events),
        ("peer up events (simnet)", &delta.peer_up_events),
        (
            "membership bytes (steady window)",
            &delta.steady_membership_bytes,
        ),
        ("anti-entropy rounds", &delta.stats.anti_entropy_rounds),
        ("steady-state hit rate", &f2(delta.steady_hit_rate)),
        (&joined_label, &f2(delta.joined_hit_rate)),
        (
            "joined / steady ratio",
            &f2(delta.joined_hit_rate / delta.steady_hit_rate.max(1e-9)),
        ),
        // Fill-byte zone split: what the zone-aware budgets move off the
        // expensive cross-zone links (flat-budget run vs zone-budget run).
        (
            "fill bytes intra-zone (flat budget)",
            &delta.stats.intra_zone_fill_bytes,
        ),
        (
            "fill bytes cross-zone (flat budget)",
            &delta.stats.cross_zone_fill_bytes,
        ),
        (
            "fill bytes intra-zone (zone budgets)",
            &zoned.stats.intra_zone_fill_bytes,
        ),
        (
            "fill bytes cross-zone (zone budgets)",
            &zoned.stats.cross_zone_fill_bytes,
        ),
        (
            "cross-zone fill reduction",
            &count_ratio_x(
                delta.stats.cross_zone_fill_bytes,
                zoned.stats.cross_zone_fill_bytes,
            ),
        ),
        (
            "steady-state hit rate (zone budgets)",
            &f2(zoned.steady_hit_rate),
        ),
        // Zone-aware anti-entropy: the reconciliation slice of the fill
        // bytes moved onto in-zone links (coverage confirmed against the
        // partner's advertised holdings + filter, so the exact safety net
        // is unweakened).
        (
            "anti-entropy fill bytes (zone budgets)",
            &zoned.stats.anti_entropy_fill_bytes,
        ),
        (
            "anti-entropy cross-zone fill bytes (zone budgets)",
            &zoned.stats.anti_entropy_cross_zone_fill_bytes,
        ),
        (
            "anti-entropy fill bytes (zone-aware AE)",
            &aware.stats.anti_entropy_fill_bytes,
        ),
        (
            "anti-entropy cross-zone fill bytes (zone-aware AE)",
            &aware.stats.anti_entropy_cross_zone_fill_bytes,
        ),
        (
            "anti-entropy cross-zone fill reduction",
            &count_ratio_x(
                zoned.stats.anti_entropy_cross_zone_fill_bytes,
                aware.stats.anti_entropy_cross_zone_fill_bytes,
            ),
        ),
        (
            "steady-state hit rate (zone-aware AE)",
            &f2(aware.steady_hit_rate),
        ),
    ];
    for (name, value) in rows {
        t2.row(&[name, value]);
    }

    vec![t, t2, crash_routing(&corpus)]
}

/// E12c — where does a crashed frontend's keyspace land? The churn runs
/// above measure gossip cost; this closes the routing blind spot:
/// per-frontend admitted-query counts across a crash window, under the
/// seed's ring-successor walk vs rendezvous + two-choices. The ring walk
/// hands the victim's whole keyspace to one successor; rendezvous spreads
/// it across every survivor.
fn crash_routing(corpus: &Corpus) -> Table {
    let warm = constant_trace(corpus, 0xE12C0, 100.0, 1);
    let crash = constant_trace(corpus, 0xE12C1, 100.0, 2);
    let run_routing = |ring: bool| -> (Vec<u64>, f64) {
        let report = crash_window(corpus, 0xE12C, 0xE12CF, &warm, &crash, ring);
        let max = report
            .admitted_per_frontend
            .iter()
            .copied()
            .max()
            .unwrap_or(0) as f64;
        let mean = report.admitted as f64 / (CRASH_FLEET - 1) as f64;
        (report.admitted_per_frontend, max / mean.max(1e-9))
    };
    let (ring_admitted, ring_ratio) = run_routing(true);
    let (hrw_admitted, hrw_ratio) = run_routing(false);

    assert_eq!(
        ring_admitted[CRASH_VICTIM], 0,
        "E12c: crashed frontend must admit nothing"
    );
    assert_eq!(
        hrw_admitted[CRASH_VICTIM], 0,
        "E12c: crashed frontend must admit nothing"
    );
    assert!(
        hrw_ratio <= ring_ratio,
        "E12c: rendezvous max/mean survivor load ({hrw_ratio:.2}) must not \
         exceed the ring walk's ({ring_ratio:.2})"
    );

    let mut t = Table::new(
        &format!(
            "E12c: crash-window admitted queries per frontend \
             ({CRASH_FLEET} frontends, frontend {CRASH_VICTIM} crashes after warm-up)"
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
        t.row(&[
            &label,
            &format!("{per:?}"),
            &per.iter().copied().max().unwrap_or(0),
            &f2(ratio),
        ]);
    }
    t.row(&[
        &"imbalance reduction",
        &"-",
        &"-",
        &ratio_x(ring_ratio, hrw_ratio),
    ]);
    t
}

//! E10 — cooperative cache gossip: N frontends under one shared Zipf(1.0)
//! stream, gossip off vs on. With gossip, one frontend's DHT shard fetch
//! warms the whole fleet, so per-frontend cold starts shrink and aggregate
//! DHT traffic collapses — at a measured gossip byte overhead and with the
//! version guard keeping staleness-served at exactly zero.

use crate::{published, DOC_LEN};
use qb_bench::{f2, pct_drop, ratio_x, Table};
use qb_common::{DetRng, LatencyHistogram, SimDuration};
use qb_load::scenario::{corpus, republish, sized, QueryStream, Tally};
use qb_queenbee::{CacheConfig, GossipConfig, GossipStats, RoutingPolicy, SearchRequest};

const FLEET: usize = 8;
/// A frontend's first queries count as its cold-start window.
const COLD_WINDOW: usize = 5;
const PAGES: usize = 40;
const POOL: usize = 60;
const STREAM: usize = 240;

struct FleetRun {
    cold_start_ms: f64,
    served: Tally,
    stale: u64,
    gossip: Option<GossipStats>,
}

pub fn run() -> Vec<Table> {
    let corpus = corpus(0xE10, PAGES, DOC_LEN);
    let stream = QueryStream::new(&corpus, 0xE10, POOL, 1.0, 0xE10F, STREAM);

    let run = |gossip_on: bool| -> FleetRun {
        let mut config = sized(64, 6, 0xE10);
        config.cache = CacheConfig::enabled();
        config.gossip = if gossip_on {
            GossipConfig::enabled(FLEET)
        } else {
            GossipConfig::fleet(FLEET)
        };
        let mut qb = published(config, &corpus);
        let mut rng = DetRng::new(0xE10A);
        let mut served = Tally::default();
        let mut cold: Vec<LatencyHistogram> = (0..FLEET).map(|_| LatencyHistogram::new()).collect();
        let mut served_by = [0usize; FLEET];
        for i in 0..STREAM {
            // Mid-stream republishes race the gossip rounds: the version
            // guard and publish-path invalidation must keep every served
            // result fresh.
            if i > 0 && i % 100 == 0 {
                let victim = i / 100 % corpus.pages.len();
                let peer = (20 + victim % 30) as u64;
                republish(&mut qb, &corpus, victim, peer, i as u64, &mut rng).expect("republish");
            }
            qb.advance_time(SimDuration::from_millis(50));
            // One shared stream, served round-robin across the fleet.
            let frontend = i % FLEET;
            if let Ok(out) = qb.search_request(
                SearchRequest::new(stream.query(i)).route(RoutingPolicy::Direct(frontend)),
            ) {
                served.record(&out);
                if served_by[frontend] < COLD_WINDOW {
                    cold[frontend].record(out.latency);
                }
                served_by[frontend] += 1;
            }
        }
        FleetRun {
            cold_start_ms: cold.iter().map(|r| r.mean().as_millis_f64()).sum::<f64>()
                / FLEET as f64,
            served,
            stale: qb.freshness.stale_results,
            gossip: qb.gossip_stats(),
        }
    };

    let off = run(false);
    let on = run(true);
    let gossip = on.gossip.expect("gossip run has a fleet");

    // Acceptance criteria, asserted so the CI smoke job catches regressions.
    assert_eq!(off.stale, 0, "E10: gossip-off fleet served stale results");
    assert_eq!(on.stale, 0, "E10: gossip-on fleet served stale results");
    assert!(
        (on.served.shard_fetches as f64) <= 0.7 * off.served.shard_fetches as f64,
        "E10: gossip must save >=30% of DHT shard fetches ({} vs {})",
        on.served.shard_fetches,
        off.served.shard_fetches
    );

    let mut t = Table::new(
        &format!(
            "E10a: {FLEET}-frontend fleet on a shared Zipf(1.0) stream ({STREAM} queries), gossip off vs on"
        ),
        &[
            "config",
            "cold_start_ms",
            "mean_latency_ms",
            "rpc_messages",
            "dht_shard_fetches",
            "gossip_bytes",
            "stale_results",
        ],
    );
    let mean_ms = |r: &FleetRun| r.served.latency.mean().as_millis_f64();
    for (label, r, bytes) in [
        ("gossip off", &off, 0u64),
        ("gossip on", &on, gossip.total_bytes()),
    ] {
        t.row(&[
            &label,
            &f2(r.cold_start_ms),
            &f2(mean_ms(r)),
            &r.served.messages,
            &r.served.shard_fetches,
            &bytes,
            &r.stale,
        ]);
    }
    t.row(&[
        &"reduction",
        &ratio_x(off.cold_start_ms, on.cold_start_ms),
        &ratio_x(mean_ms(&off), mean_ms(&on)),
        &pct_drop(off.served.messages, on.served.messages),
        &pct_drop(off.served.shard_fetches, on.served.shard_fetches),
        &"-",
        &"-",
    ]);

    let mut t2 = Table::new("E10b: gossip overlay counters", &["counter", "value"]);
    for (name, value) in [
        ("rounds (hot-set)", gossip.rounds),
        ("rounds (anti-entropy)", gossip.anti_entropy_rounds),
        ("exchanges ok", gossip.exchanges),
        ("exchanges failed", gossip.failed_exchanges),
        ("fill batches dropped", gossip.failed_fills),
        ("shards pushed", gossip.shards_pushed),
        ("shards accepted", gossip.shards_accepted),
        ("stale fills rejected", gossip.stale_rejected),
        ("duplicate fills skipped", gossip.duplicates_skipped),
        ("digest bytes", gossip.digest_bytes),
        ("fill bytes", gossip.fill_bytes),
    ] {
        t2.row(&[&name, &value]);
    }
    vec![t, t2]
}

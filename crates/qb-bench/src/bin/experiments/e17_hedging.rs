//! E17 — replica-aware routing + hedged fetches: kill the post-crash load
//! spike and the slow-replica tail.
//!
//! **Part A** replays the same open-loop trace on a zoned fleet (slow
//! cross-zone links) twice — the seed's ring-successor routing vs
//! rendezvous hashing + power-of-two-choices — crashing one frontend
//! between a warm-up window and the measurement window. The per-frontend
//! admitted counts over the crash window show where the orphaned keyspace
//! lands: the ring walk piles all of it on one successor, rendezvous
//! spreads it across the survivors.
//!
//! **Part B** drives the DHT read path on a lossy LAN with hedging off vs
//! on, identical seeds: a dropped primary normally surfaces as an RPC
//! timeout, but the hedged run arms a timer at the origin's adaptive RTT
//! p95 and races a second replica, so its fetch p99 must land strictly
//! below the unhedged run's — while staying inside the hedge-rate valve
//! and a wasted-bytes budget, charging every hedge byte to `NetStats`,
//! and returning byte-identical records.
//!
//! Asserted acceptance criteria (the CI smoke job runs this):
//! * post-crash per-frontend load spike under rendezvous + two-choices
//!   ≤ 0.6× the ring-walk successor's (both measured as the hottest
//!   survivor's excess over the pre-crash fair share of the full
//!   fleet — even a perfect respread puts 8 slots' traffic on 7
//!   survivors, so raw maxima bottom out at 8/7),
//! * hedged fetch p99 strictly below unhedged on the same lossy net,
//! * hedges ≤ the configured percent of fetches (the safety valve) and
//!   wasted hedge bytes ≤ 5% of the run's total traffic,
//! * records byte-identical with hedging on vs off, and closed-loop hits
//!   byte-identical at the engine level.

use crate::{published, write_json, DOC_LEN};
use qb_bench::{count_ratio_x, f2, ratio_x, Table};
use qb_common::{DhtKey, LatencyHistogram, SimDuration};
use qb_dht::{DhtConfig, DhtNetwork, HedgeConfig, HedgeStats};
use qb_load::scenario::{constant_trace, corpus, queries, sized, zoned_admission_fleet};
use qb_load::{replay, ArrivalTrace, ReplayConfig};
use qb_queenbee::{CacheConfig, GossipConfig, LoadReport, RoutingPolicy, SearchRequest};
use qb_simnet::{NetConfig, NetStats, SimNet};
use qb_workload::Corpus;

// ----- Part A: post-crash routing spike ---------------------------------------------

/// The crash-window fleet (E12c replays the same scenario on its corpus).
pub(crate) const CRASH_FLEET: usize = 8;
pub(crate) const CRASH_VICTIM: usize = 2;
const ZONES: usize = 4;
const PAGES: usize = 20;
const WARM_SECS: u64 = 1;
const CRASH_SECS: u64 = 2;
const QPS: f64 = 150.0;

/// Replay `warm` on a fresh zoned fleet, crash frontend `CRASH_VICTIM`,
/// then replay `crash` on the survivors: the crash window's load report
/// under ring-successor (`ring`) or rendezvous + two-choices routing.
pub(crate) fn crash_window(
    corpus: &Corpus,
    seed: u64,
    replay_seed: u64,
    warm: &ArrivalTrace,
    crash: &ArrivalTrace,
    ring: bool,
) -> LoadReport {
    let mut qb = published(zoned_admission_fleet(seed, CRASH_FLEET, ZONES), corpus);
    let replay_cfg = ReplayConfig {
        seed: replay_seed,
        fresh_fraction: 0.5,
        top_k: 5,
        ring_successor_routing: ring,
    };
    replay(&mut qb, warm, &replay_cfg).expect("warm-up replay");
    qb.fleet_leave(CRASH_VICTIM, false).expect("crash");
    replay(&mut qb, crash, &replay_cfg).expect("crash-window replay")
}

struct CrashRun {
    admitted: Vec<u64>,
    /// The hottest survivor's load over the *pre-crash* fair share:
    /// 1.0 = "as if nobody crashed", 2.0 = "one slot absorbed a whole
    /// second keyspace" (the ring walk's signature).
    spike: f64,
    shed: u64,
}

impl CrashRun {
    fn max_admitted(&self) -> u64 {
        self.admitted.iter().copied().max().unwrap_or(0)
    }
}

fn routing_spike(corpus: &Corpus) -> (Table, CrashRun, CrashRun) {
    let warm = constant_trace(corpus, 0xE17A, QPS, WARM_SECS);
    let crash = constant_trace(corpus, 0xE17C, QPS, CRASH_SECS);
    let run_policy = |ring: bool| -> CrashRun {
        let report = crash_window(corpus, 0xE17, 0xE17F, &warm, &crash, ring);
        let fair = report.admitted as f64 / CRASH_FLEET as f64;
        let max = report.admitted_per_frontend.iter().copied().max();
        CrashRun {
            spike: max.unwrap_or(0) as f64 / fair.max(1e-9),
            shed: report.shed,
            admitted: report.admitted_per_frontend,
        }
    };
    let ring = run_policy(true);
    let hrw = run_policy(false);

    assert_eq!(
        ring.admitted[CRASH_VICTIM], 0,
        "E17a: the crashed frontend must not be routed to"
    );
    assert_eq!(
        hrw.admitted[CRASH_VICTIM], 0,
        "E17a: the crashed frontend must not be routed to"
    );
    assert!(
        ring.spike >= 1.5,
        "E17a: the ring walk must actually spike its successor ({:.2}x fair share)",
        ring.spike
    );
    // The spike is the *excess* over the pre-crash fair share: even a
    // perfect respread serves eight slots' traffic on seven survivors
    // (max >= 8/7 of fair share), so comparing raw maxima would demand
    // the impossible once the two-choices spread approaches perfect.
    // Excess isolates the imbalance the routing policy controls.
    assert!(
        hrw.spike - 1.0 <= 0.6 * (ring.spike - 1.0),
        "E17a: rendezvous + two-choices post-crash excess load ({:.2}x over \
         fair share) must stay <= 0.6x the ring-walk spike's excess ({:.2}x)",
        hrw.spike - 1.0,
        ring.spike - 1.0
    );

    let mut t = Table::new(
        &format!(
            "E17a: post-crash load spike — {CRASH_FLEET}-frontend fleet over {ZONES} zones, \
             frontend {CRASH_VICTIM} crashes after warm-up, {CRASH_SECS}s crash window at {QPS} q/s"
        ),
        &[
            "routing",
            "admitted_per_frontend",
            "max_admitted",
            "max_over_fair_share",
            "max_over_mean_survivor",
            "shed",
        ],
    );
    for (label, r) in [
        ("ring successor (seed)", &ring),
        ("rendezvous + 2-choices", &hrw),
    ] {
        let total: u64 = r.admitted.iter().sum();
        let survivors = (CRASH_FLEET - 1) as f64;
        t.row(&[
            &label,
            &format!("{:?}", r.admitted),
            &r.max_admitted(),
            &f2(r.spike),
            &f2(r.max_admitted() as f64 / (total as f64 / survivors).max(1e-9)),
            &r.shed,
        ]);
    }
    t.row(&[
        &"spike reduction",
        &"-",
        &"-",
        &ratio_x(ring.spike, hrw.spike),
        &"-",
        &"-",
    ]);
    (t, ring, hrw)
}

// ----- Part B: hedged fetches on a lossy net ----------------------------------------

/// A p95-armed timer naturally fires on ~5% of fetches (the benign
/// p95-exceeders), so a valve at exactly the shipped 5% default would
/// starve genuine timeout rescues behind benign fires; the run leaves
/// headroom for the drop tail while still proving the cap binds.
const HEDGE_PERCENT: u32 = 10;
const KEYS: usize = 24;
const READS: usize = 500;

struct HedgeRun {
    p50: SimDuration,
    p95: SimDuration,
    p99: SimDuration,
    records: Vec<Vec<u8>>,
    stats: NetStats,
    hedge: HedgeStats,
}

fn dht_run(hedged: bool) -> HedgeRun {
    // A lossy LAN: ~1% of sends vanish, so the unhedged tail is the
    // RPC timeout while the common case is sub-millisecond — exactly
    // the gap a p95-armed hedge closes. One RPC in flight at a time
    // (`alpha = 1`): with lookup parallelism a dropped probe's
    // siblings carry the lookup anyway, so the single-flight walk is
    // the regime where the hedge timer is the *only* rescue and the
    // unhedged run pays the full timeout.
    let mut cfg = NetConfig::lan();
    cfg.drop_probability = 0.01;
    let mut net = SimNet::new(64, cfg, 0xE17B);
    let mut dcfg = DhtConfig::small();
    dcfg.alpha = 1;
    if hedged {
        dcfg.hedge = HedgeConfig::enabled();
        dcfg.hedge.percent = HEDGE_PERCENT;
    }
    let mut dht = DhtNetwork::build(&mut net, dcfg);
    let keys: Vec<DhtKey> = (0..KEYS)
        .map(|i| DhtKey::for_term(&format!("e17-shard-{i}")))
        .collect();
    for (i, key) in keys.iter().enumerate() {
        let value = format!("e17-value-{i}").into_bytes();
        dht.put_record(&mut net, (i % 8) as u64, *key, value, 1)
            .expect("put");
    }
    let origin = 50u64;
    let mut latency = LatencyHistogram::new();
    let mut records = Vec::new();
    for r in 0..READS {
        let got = dht
            .get_record(&mut net, origin, keys[r % KEYS])
            .expect("get");
        latency.record(got.latency);
        records.push(got.record.value.to_vec());
    }
    HedgeRun {
        p50: latency.value_at_quantile(0.50),
        p95: latency.value_at_quantile(0.95),
        p99: latency.value_at_quantile(0.99),
        records,
        stats: net.stats().clone(),
        hedge: dht.hedge_stats(origin),
    }
}

/// Engine-level identity probe: the doc ids a closed-loop query batch
/// answers with, on a gossiping fleet whose DHT hedges or not.
fn engine_hits(corpus: &Corpus, hedged: bool) -> Vec<Vec<u64>> {
    let mut config = sized(32, 4, 0xE17E);
    config.cache = CacheConfig::enabled();
    config.gossip = GossipConfig::enabled(4);
    if hedged {
        config.dht.hedge = HedgeConfig::enabled();
    }
    let mut qb = published(config, corpus);
    queries(corpus, 0xE17E, 24)
        .iter()
        .enumerate()
        .map(|(i, q)| {
            let out = qb
                .search_request(SearchRequest::new(q).route(RoutingPolicy::HashPeer(i as u64 % 4)))
                .expect("search");
            out.hits.iter().map(|r| r.doc_id).collect()
        })
        .collect()
}

fn hedged_fetches(corpus: &Corpus) -> (Table, HedgeRun, HedgeRun) {
    let unhedged = dht_run(false);
    let hedged = dht_run(true);

    assert_eq!(
        unhedged.records, hedged.records,
        "E17b: hedging must not change a single returned record"
    );
    assert!(
        hedged.p99 < unhedged.p99,
        "E17b: hedged fetch p99 ({}) must land strictly below unhedged ({})",
        hedged.p99,
        unhedged.p99
    );
    assert!(
        hedged.hedge.hedges * 100 <= hedged.hedge.fetches * HEDGE_PERCENT as u64,
        "E17b: the hedge-rate valve must hold ({} hedges over {} fetches, cap {HEDGE_PERCENT}%)",
        hedged.hedge.hedges,
        hedged.hedge.fetches
    );
    assert_eq!(
        hedged.stats.hedges_fired, hedged.hedge.hedges,
        "E17b: every fired hedge must be charged to NetStats"
    );
    assert!(
        hedged.stats.hedges_won <= hedged.stats.hedges_fired,
        "E17b: hedge wins cannot exceed fires"
    );
    assert!(
        hedged.stats.hedges_wasted_bytes * 20 <= hedged.stats.bytes,
        "E17b: wasted hedge bytes ({}) must stay <= 5% of total traffic ({})",
        hedged.stats.hedges_wasted_bytes,
        hedged.stats.bytes
    );
    assert_eq!(
        unhedged.stats.hedges_fired, 0,
        "E17b: the unhedged run must never fire a hedge"
    );
    assert_eq!(
        engine_hits(corpus, false),
        engine_hits(corpus, true),
        "E17b: closed-loop hits must be byte-identical with hedging on vs off"
    );

    let mut t = Table::new(
        &format!(
            "E17b: hedged vs unhedged DHT fetches — {READS} reads over {KEYS} keys on a \
             lossy LAN (1% drops, single-flight lookups), hedge valve {HEDGE_PERCENT}% of fetches"
        ),
        &[
            "config",
            "p50_us",
            "p95_us",
            "p99_us",
            "hedges_fired",
            "hedges_won",
            "hedge_wasted_bytes",
            "fetches",
        ],
    );
    for (label, r) in [("unhedged", &unhedged), ("hedged", &hedged)] {
        t.row(&[
            &label,
            &r.p50.as_micros(),
            &r.p95.as_micros(),
            &r.p99.as_micros(),
            &r.stats.hedges_fired,
            &r.stats.hedges_won,
            &r.stats.hedges_wasted_bytes,
            &r.hedge.fetches,
        ]);
    }
    t.row(&[
        &"p99 reduction",
        &"-",
        &"-",
        &count_ratio_x(unhedged.p99.as_micros(), hedged.p99.as_micros()),
        &"-",
        &"-",
        &"-",
        &"-",
    ]);
    (t, unhedged, hedged)
}

pub fn run() -> Vec<Table> {
    let corpus = corpus(0xE17, PAGES, DOC_LEN);
    let (t, ring, hrw) = routing_spike(&corpus);
    let (t2, unhedged, hedged) = hedged_fetches(&corpus);

    // Machine-readable artifact for the CI workflow. The experiments have
    // one size, the committed one; its "quick" key stays so the artifact
    // is byte-identical to every earlier run's.
    let routing = serde_json::json!({
        "ring_admitted_per_frontend": ring.admitted,
        "hrw_admitted_per_frontend": hrw.admitted,
        "ring_spike_over_fair_share": ring.spike,
        "hrw_spike_over_fair_share": hrw.spike,
        "spike_reduction": ring.spike / hrw.spike.max(1e-9),
    });
    let hedging = serde_json::json!({
        "unhedged_p99_us": unhedged.p99.as_micros(),
        "hedged_p99_us": hedged.p99.as_micros(),
        "hedges_fired": hedged.stats.hedges_fired,
        "hedges_won": hedged.stats.hedges_won,
        "hedge_wasted_bytes": hedged.stats.hedges_wasted_bytes,
        "fetches": hedged.hedge.fetches,
        "valve_percent": HEDGE_PERCENT,
    });
    let artifact = serde_json::json!({
        "experiment": "e17-hedging",
        "quick": true,
        "routing": routing,
        "hedging": hedging,
    });
    write_json("hedging-e17.json", &artifact).expect("E17 artifact");

    vec![t, t2]
}

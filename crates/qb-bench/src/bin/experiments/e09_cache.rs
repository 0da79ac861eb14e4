//! E9 — the query-serving cache: replay a Zipf(1.0) query stream with the
//! cache on vs off and measure the latency / RPC-message / shard-fetch
//! reductions, plus freshness under interleaved republishes. The cache-on
//! run serves every query from its one frontend, on peer 0, whose reads
//! start there; the cache-off run reads the index from each query's own
//! peer.

use crate::{published, DOC_LEN};
use qb_bench::{f2, pct_drop, ratio_x, Table};
use qb_common::{DetRng, SimDuration};
use qb_load::scenario::{corpus, republish, sized, QueryStream, Tally};
use qb_queenbee::{CacheConfig, CacheMetrics, CacheReport, RoutingPolicy, SearchRequest};

const PAGES: usize = 40;
const POOL: usize = 60;
const STREAM: usize = 240;

pub fn run() -> Vec<Table> {
    let corpus = corpus(0xE9, PAGES, DOC_LEN);
    let stream = QueryStream::new(&corpus, 0xE9, POOL, 1.0, 0xE9F, STREAM);

    let run = |cache: CacheConfig| -> (Tally, u64, Option<CacheMetrics>) {
        let mut config = sized(64, 6, 0xE9);
        config.cache = cache;
        let mut qb = published(config, &corpus);
        let mut rng = DetRng::new(0xE9A);
        let mut tally = Tally::default();
        for i in 0..STREAM {
            // Every 100 queries a popular page is republished mid-stream:
            // the shard tier purges the page's terms at once, and a cached
            // result that used one is refused by its next lookup.
            if i > 0 && i % 100 == 0 {
                let victim = i / 100 % corpus.pages.len();
                let peer = (victim % 50) as u64;
                republish(&mut qb, &corpus, victim, peer, i as u64, &mut rng).expect("republish");
            }
            qb.advance_time(SimDuration::from_millis(50));
            if let Ok(out) = qb.search_request(
                SearchRequest::new(stream.query(i)).route(RoutingPolicy::HashPeer((i % 50) as u64)),
            ) {
                tally.record(&out);
            }
        }
        (tally, qb.freshness.stale_results, qb.cache_metrics())
    };

    let (off, off_stale, _) = run(CacheConfig::default());
    let (on, on_stale, metrics) = run(CacheConfig::enabled());

    // Regression guard for the CI smoke job: the cache must keep paying for
    // itself and must never serve anything stale.
    assert!(
        on.messages < off.messages / 2,
        "E9: cache must at least halve RPC messages ({} vs {})",
        on.messages,
        off.messages
    );
    assert_eq!(
        off_stale, 0,
        "E9: uncached engine served {off_stale} stale results"
    );
    assert_eq!(on_stale, 0, "E9: cache served {on_stale} stale results");

    let mut t = Table::new(
        &format!(
            "E9a: Zipf(1.0) query stream ({STREAM} queries, {POOL}-query pool), cache off vs on"
        ),
        &[
            "config",
            "mean_latency_ms",
            "rpc_messages",
            "shard_fetches",
            "answered",
            "stale_results",
        ],
    );
    let mean_ms = |r: &Tally| r.latency.mean().as_millis_f64();
    for (label, r, stale) in [("cache off", &off, off_stale), ("cache on", &on, on_stale)] {
        t.row(&[
            &label,
            &f2(mean_ms(r)),
            &r.messages,
            &r.shard_fetches,
            &r.answered,
            &stale,
        ]);
    }
    t.row(&[
        &"reduction",
        &ratio_x(mean_ms(&off), mean_ms(&on)),
        &pct_drop(off.messages, on.messages),
        &pct_drop(off.shard_fetches, on.shard_fetches),
        &"-",
        &"-",
    ]);

    // `invalidations` counts entries dropped by a version check at lookup
    // (every tier) or by the publish-path purge (shard and negative tiers).
    // A superseded result that no later lookup reaches stays resident until
    // it is replaced, evicted or expired, and is not counted.
    let mut t2 = Table::new(
        "E9b: per-tier cache counters after the stream",
        &[
            "tier",
            "hits",
            "lookups",
            "hit_rate_%",
            "insertions",
            "evictions",
            "invalidations",
        ],
    );
    if let Some(m) = metrics {
        for (name, tier) in CacheReport(m).rows() {
            t2.row(&[
                &name,
                &tier.hits,
                &tier.lookups(),
                &f2(100.0 * tier.hit_rate()),
                &tier.insertions,
                &tier.evictions,
                &tier.invalidations,
            ]);
        }
    }
    vec![t, t2]
}

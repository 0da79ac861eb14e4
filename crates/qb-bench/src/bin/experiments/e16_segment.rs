//! E16 — content-addressed index artifacts (qb-segment). Part A compares
//! two identical fleets warming a brand-new frontend: one joins through
//! the ordinary gossip bootstrap (one elevated-budget exchange, then
//! catch-up rounds), the other bulk-bootstraps from the writer's published
//! segment artifact (probe a neighbour for the pointer, fetch the artifact
//! through storage + DHT, import through the version guard, one delta
//! catch-up exchange). Between artifact publish and join a page is
//! republished, so the artifact is slightly stale and the version guards
//! must cover the gap. Part B measures writer compaction: batched
//! publishes folding pending shards into generational artifacts, and the
//! resulting write amplification.
//!
//! Asserted acceptance criteria (the CI smoke job runs this):
//! * the segment joiner reaches >=95% of steady-state hit rate, in no
//!   more catch-up rounds than the gossip joiner,
//! * with >=50% fewer DHT shard fetches across the warm-up probes,
//! * and strictly fewer bootstrap bytes than the gossip-only warm-up,
//! * zero stale results served after the (stale) artifact import,
//! * every segment publish/fetch byte visibly charged to `NetStats`.

use crate::{engine, published, DOC_LEN};
use qb_bench::{count_ratio_x, f2, Table};
use qb_chain::AccountId;
use qb_common::{DetRng, SimDuration};
use qb_load::scenario::{corpus, republish, sized, zipf_picks, QueryStream};
use qb_queenbee::{
    CacheConfig, GossipConfig, RoutingPolicy, SearchRequest, SegmentBootstrapReport, SegmentConfig,
    SegmentStats,
};
use qb_workload::Corpus;

const PROBE_K: usize = 30;
const MAX_JOIN_ROUNDS: usize = 8;
const FLEET: usize = 12;
const PAGES: usize = 40;
const POOL: usize = 80;
const WARM: usize = 360;
/// Pages per publish batch of part B.
const BATCH_PAGES: usize = 8;

struct JoinRun {
    steady_hit_rate: f64,
    joined_hit_rate_r0: f64,
    rounds_to_95: u64,
    probe_shard_fetches: u64,
    bootstrap_bytes: u64,
    bootstrap_fill_bytes: u64,
    stale: u64,
    segment: SegmentStats,
    report: Option<SegmentBootstrapReport>,
}

fn join_run(corpus: &Corpus, stream: &QueryStream, probes: &[usize], use_segment: bool) -> JoinRun {
    let mut config = sized(64, 6, 0xE16);
    config.cache = CacheConfig::enabled();
    // A shard tier sized to hold the whole (small) index: the point of
    // bulk bootstrap is reaching coverage, so the cache must not be
    // the binding constraint.
    config.cache.shard_capacity_bytes = 512 * 1024;
    // Production-sized chunks: the test-default tiny chunker (64-byte
    // target) would shred a ~100 KB artifact into ~1500 chunks and
    // charge per-chunk RPC overhead that dwarfs the payload.
    config.storage.chunker = qb_storage::ChunkerConfig::default();
    config.gossip = GossipConfig::enabled(FLEET);
    // Budgets sized like a real deployment, where the index dwarfs
    // what any single exchange can ship: a joiner cannot warm from
    // one elevated-budget bootstrap exchange alone.
    config.gossip.hot_set_size = 24;
    config.gossip.max_fills_per_exchange = 4;
    // Segments on in BOTH runs (identical publish-side costs); the
    // runs differ only in how the late joiner bootstraps. Thresholds
    // out of reach: the artifact is published by one explicit
    // compaction below, bracketed by NetStats readings.
    config.segment = SegmentConfig::enabled();
    config.segment.max_pending_terms = usize::MAX;
    config.segment.max_pending_bytes = usize::MAX;
    let mut qb = published(config, corpus);

    let net_before = qb.net.stats().clone();
    qb.compact_segments()
        .expect("compaction")
        .expect("a publish batch leaves pending shards");
    let publish_delta = qb.net.stats().delta_since(&net_before);
    let seg_after_publish = qb.segment_stats();
    assert!(
        seg_after_publish.publish_bytes > 0
            && publish_delta.bytes >= seg_after_publish.publish_bytes,
        "E16: segment publish bytes must be charged to NetStats"
    );

    // A republish after the artifact: its shards for this page are now
    // one version behind, so the joiner's import is slightly stale and
    // the read-time version checks must cover the gap.
    let peer = (FLEET + 2) as u64;
    republish(&mut qb, corpus, 0, peer, 100, &mut DetRng::new(0xE16C)).expect("republish");

    // Warm the fleet to steady state; the second half of the stream
    // is the steady-state hit-rate window.
    let mut steady_hits = 0u64;
    let mut steady_served = 0u64;
    for i in 0..WARM {
        qb.advance_time(SimDuration::from_millis(50));
        if let Ok(out) = qb.search_request(
            SearchRequest::new(stream.query(i)).route(RoutingPolicy::Direct(i % FLEET)),
        ) {
            if i >= WARM / 2 {
                steady_served += 1;
                if out.shards_fetched() == 0 {
                    steady_hits += 1;
                }
            }
        }
    }
    let steady_hit_rate = steady_hits as f64 / steady_served.max(1) as f64;

    // The joiner: same fleet state, two bootstrap paths.
    let net_join = qb.net.stats().clone();
    let gossip_join = qb.gossip_stats().expect("fleet");
    let (joined, report) = if use_segment {
        let (idx, rep) = qb.fleet_join_with_segment().expect("segment join");
        (idx, Some(rep))
    } else {
        (qb.fleet_join().expect("gossip join"), None)
    };
    if let Some(r) = report.as_ref().filter(|r| r.used_segment) {
        assert!(
            r.fetch_bytes > 0 && qb.net.stats().delta_since(&net_join).bytes >= r.fetch_bytes,
            "E16: segment fetch bytes must be charged to NetStats"
        );
    }

    // Catch-up rounds until the joiner reaches 95% of steady state.
    let target = 0.95 * steady_hit_rate;
    let mut rounds_to_95 = (MAX_JOIN_ROUNDS + 1) as u64; // sentinel: never
    let mut probe_shard_fetches = 0u64;
    let mut joined_hit_rate_r0 = 0.0;
    for r in 0..=MAX_JOIN_ROUNDS {
        if r > 0 {
            qb.advance_time(qb_gossip::config::ROUND_INTERVAL);
        }
        let slice = &probes[r * PROBE_K..(r + 1) * PROBE_K];
        let mut hits = 0u64;
        for &q in slice {
            let out = qb
                .search_request(
                    SearchRequest::new(&stream.pool[q]).route(RoutingPolicy::Direct(joined)),
                )
                .expect("probe");
            probe_shard_fetches += out.shards_fetched() as u64;
            if out.shards_fetched() == 0 {
                hits += 1;
            }
        }
        let rate = hits as f64 / PROBE_K as f64;
        if r == 0 {
            joined_hit_rate_r0 = rate;
        }
        if rate >= target {
            rounds_to_95 = r as u64;
            break;
        }
    }
    let bootstrap_bytes = qb.net.stats().delta_since(&net_join).bytes;
    let gossip_after = qb.gossip_stats().expect("fleet");

    JoinRun {
        steady_hit_rate,
        joined_hit_rate_r0,
        rounds_to_95,
        probe_shard_fetches,
        bootstrap_bytes,
        bootstrap_fill_bytes: gossip_after.bootstrap_fill_bytes - gossip_join.bootstrap_fill_bytes,
        stale: qb.freshness.stale_results,
        segment: qb.segment_stats(),
        report,
    }
}

pub fn run() -> Vec<Table> {
    let corpus = corpus(0xE16, PAGES, DOC_LEN);
    // A broad, near-uniform query mix: bulk bootstrap is about carrying a
    // joiner to *coverage*, not just the Zipf head a few hot-set fills
    // could ship.
    let stream = QueryStream::new(&corpus, 0xE16, POOL, 0.3, 0xE16F, WARM);
    // Per-round probe slices: every catch-up round probes the joiner with
    // queries it has never served, so a probe's own fetches cannot warm
    // the very rate a later round measures.
    let probes = zipf_picks(
        stream.pool.len(),
        0.3,
        0xE16B,
        PROBE_K * (MAX_JOIN_ROUNDS + 1),
    );

    let gossip_only = join_run(&corpus, &stream, &probes, false);
    let segment = join_run(&corpus, &stream, &probes, true);
    let seg_report = segment
        .report
        .as_ref()
        .expect("segment run reports its bootstrap");

    // Acceptance criteria, asserted so the CI smoke job catches regressions.
    assert!(
        seg_report.used_segment,
        "E16: the segment joiner must find and use the advertised artifact"
    );
    assert_eq!(gossip_only.stale, 0, "E16: gossip run served stale results");
    assert_eq!(
        segment.stale, 0,
        "E16: stale results served after the artifact import"
    );
    assert!(
        segment.rounds_to_95 <= MAX_JOIN_ROUNDS as u64,
        "E16: segment bootstrap must reach 95% of steady-state hit rate \
         (steady {:.2}, round-0 rate {:.2})",
        segment.steady_hit_rate,
        segment.joined_hit_rate_r0
    );
    assert!(
        segment.rounds_to_95 <= gossip_only.rounds_to_95,
        "E16: segment bootstrap must not need more catch-up rounds than \
         gossip ({} vs {})",
        segment.rounds_to_95,
        gossip_only.rounds_to_95
    );
    assert!(
        2 * segment.probe_shard_fetches <= gossip_only.probe_shard_fetches,
        "E16: segment bootstrap must halve the warm-up DHT shard fetches \
         ({} vs {})",
        segment.probe_shard_fetches,
        gossip_only.probe_shard_fetches
    );
    assert!(
        segment.bootstrap_bytes < gossip_only.bootstrap_bytes,
        "E16: segment bootstrap must move fewer bytes than the gossip-only \
         warm-up ({} vs {})",
        segment.bootstrap_bytes,
        gossip_only.bootstrap_bytes
    );

    let mut t = Table::new(
        &format!(
            "E16a: bootstrapping frontend {FLEET} of a {FLEET}-frontend fleet \
             ({PAGES} pages, {WARM} warm-up queries) — gossip-only vs segment artifact"
        ),
        &[
            "config",
            "steady_hit_rate",
            "joined_hit_rate_r0",
            "rounds_to_95",
            "probe_dht_fetches",
            "bootstrap_bytes",
            "bootstrap_fill_bytes",
            "artifact_fetch_bytes",
            "stale_results",
        ],
    );
    for (label, r) in [
        ("gossip-only join", &gossip_only),
        ("segment join", &segment),
    ] {
        t.row(&[
            &label,
            &f2(r.steady_hit_rate),
            &f2(r.joined_hit_rate_r0),
            &r.rounds_to_95,
            &r.probe_shard_fetches,
            &r.bootstrap_bytes,
            &r.bootstrap_fill_bytes,
            &r.segment.fetch_bytes,
            &r.stale,
        ]);
    }
    t.row(&[
        &"reduction",
        &"-",
        &"-",
        &"-",
        &count_ratio_x(gossip_only.probe_shard_fetches, segment.probe_shard_fetches),
        &count_ratio_x(gossip_only.bootstrap_bytes, segment.bootstrap_bytes),
        &"-",
        &"-",
        &"-",
    ]);

    vec![t, compaction_table(&corpus)]
}

/// Part B: writer compaction. Small per-batch threshold, batched
/// publishes: every batch folds its pending shards into the previous
/// artifact and republishes the merged segment — the classic
/// write-amplification trade of immutable index artifacts.
fn compaction_table(corpus: &Corpus) -> Table {
    let mut config = sized(48, 6, 0xE16);
    config.cache = CacheConfig::enabled();
    config.segment = SegmentConfig::enabled();
    config.segment.max_pending_terms = 1; // compact on every publish batch
    let mut qb = engine(config);
    for (b, chunk) in corpus.pages.chunks(BATCH_PAGES).enumerate() {
        for (i, page) in chunk.iter().enumerate() {
            let idx = b * BATCH_PAGES + i;
            let creator = AccountId(corpus.creators[idx]);
            qb.publish((idx % 40) as u64, creator, page)
                .expect("publish");
        }
        qb.seal();
        qb.process_publish_events().expect("index batch");
    }
    let seg = qb.segment_stats();
    let artifact = qb.latest_segment().expect("compacted artifact");
    assert!(
        seg.compactions >= 2,
        "E16b: batched publishes must compact repeatedly ({} compactions)",
        seg.compactions
    );
    assert!(
        seg.publish_bytes >= artifact.total_len,
        "E16b: cumulative publish bytes can never undercut the final artifact"
    );

    let mut t = Table::new(
        &format!(
            "E16b: writer compaction over {} batches of {BATCH_PAGES} pages \
             (compact on every batch)",
            corpus.pages.len().div_ceil(BATCH_PAGES)
        ),
        &["metric", "value"],
    );
    for (name, value) in [
        ("compactions", seg.compactions),
        ("input terms folded", seg.compaction_input_terms),
        ("artifacts published", seg.segments_published),
        ("cumulative publish bytes", seg.publish_bytes),
        ("final artifact bytes", artifact.total_len),
        ("final artifact terms", artifact.term_count),
        ("final artifact generation", artifact.generation),
        ("final artifact chunks", artifact.chunk_count),
    ] {
        t.row(&[&name, &value]);
    }
    t.row(&[
        &"write amplification (publish / final bytes)",
        &f2(seg.publish_bytes as f64 / artifact.total_len.max(1) as f64),
    ]);
    t
}

//! Per-layer metrics of the traced run (`--trace 1`), all measured from
//! outside the engine:
//!
//! * **counters** — deltas of `NetStats`, `CacheMetrics`, `GossipStats`,
//!   `SegmentStats`, query-engine counters, `LoadReport`s and `StageCosts`
//!   over the timed region;
//! * **probes** — calibrated host times of calls into each layer's public
//!   functions on inputs captured from the workload (its terms, the shards
//!   and statistics record they resolve to, its requests), run on the
//!   engine the timed region left behind;
//! * **tracer blocks** — extra slices of the same stream run alternately
//!   with the engine's own tracer off and on: the overhead of engine
//!   tracing, and the structure (lookups, fetches, stage times per query)
//!   that only the engine's spans reveal on the open-loop workload;
//! * **shares** — the workload-separation matrix, from the benchmark's own
//!   spans (write path) and the probes times the counters (fetch, score).

use crate::calib::{CalibratedTimer, Calibrator};
use crate::catalogue::PER_LAYER;
use crate::host;
use crate::run::{run_slice, Measured, SetUp};
use crate::spans::Spans;
use crate::stats;
use crate::workload::{Inputs, Kind, Op, TRACER_AB_SLICES};
use qb_cache::{CacheConfig, QueryCache};
use qb_common::{DhtKey, SimInstant};
use qb_index::{Analyzer, DistributedIndex, IndexStats, ShardEntry};
use qb_queenbee::query::executor::intersect_and_score;
use qb_queenbee::query::plan::plan_request;
use qb_queenbee::{hrw_top2, RoutingPolicy, SearchRequest, Segment};
use qb_simnet::SimNet;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Terms and requests captured per probe; enough to average over, few
/// enough that every probe stays in the tens of milliseconds.
const CAPTURE: usize = 48;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Time `f` (which does `units` units of work) under a calibrated timer
/// with a benchmark span around it; returns calibrated ns per unit.
fn probe(
    name: &'static str,
    units: f64,
    calibrator: &mut Calibrator,
    spans: &mut Spans,
    f: impl FnOnce(),
) -> f64 {
    let timer = CalibratedTimer::start(calibrator, u64::MAX);
    let id = spans.enter(name, 0);
    f();
    spans.exit(id);
    let (cal_ns, _) = timer.finish();
    ratio(cal_ns, units)
}

/// What the engine's own spans say about the ops served while its tracer
/// was on (structure the public counters do not expose).
#[derive(Default)]
struct EngineTrace {
    ops: f64,
    spans: f64,
    window_fetches: f64,
    stats_reads: f64,
    queries: f64,
    term_demand: f64,
    fetch_us: f64,
    stats_us: f64,
    net_queue_us: f64,
}

impl EngineTrace {
    fn fold(&mut self, trace: &qb_queenbee::Trace, ops: u64, analyzer: &Analyzer) {
        self.ops += ops as f64;
        self.spans += trace.len() as f64;
        let cache_served: HashSet<u64> = trace
            .named("cache_serve")
            .filter_map(|s| s.parent.map(|p| p.0))
            .collect();
        for span in &trace.spans {
            let parent = span.parent.and_then(|p| trace.get(p)).map(|p| p.name);
            match (span.name, parent) {
                ("fetch", Some("window")) => self.window_fetches += 1.0,
                ("stats_read", _) => self.stats_reads += 1.0,
                ("query", None) => {
                    self.queries += 1.0;
                    if !cache_served.contains(&span.id.0) {
                        self.term_demand += analyzer.analyze(&span.detail).len() as f64;
                    }
                }
                ("fetch", Some("query")) => self.fetch_us += span.duration().as_micros() as f64,
                ("stats", Some("query")) => self.stats_us += span.duration().as_micros() as f64,
                ("net_queue", Some("query")) => {
                    self.net_queue_us += span.duration().as_micros() as f64
                }
                _ => {}
            }
        }
    }
}

/// Run the extra slices alternately with the engine tracer off and on.
/// Returns `(overhead fraction, what the on-blocks' spans showed)`.
fn tracer_blocks(
    inputs: &Inputs,
    setup: &mut SetUp,
    calibrator: &mut Calibrator,
    spans: &mut Spans,
) -> (f64, EngineTrace) {
    let analyzer = Analyzer::new();
    let mut scratch = Measured {
        cache_hit_latency: inputs.config.cache.hit_latency,
        ..Measured::default()
    };
    let (mut off_ns, mut on_ns) = (Vec::new(), Vec::new());
    let mut seen = EngineTrace::default();
    for block in 0..TRACER_AB_SLICES {
        let on = block % 2 == 1;
        let slice = inputs.slice(inputs.timed + block);
        setup.driver.qb.set_tracing(on);
        let (outcomes, cal_ns, _, _, _) =
            run_slice(&mut setup.driver, slice.clone(), calibrator, spans, false);
        if on {
            let trace = setup.driver.qb.take_trace();
            seen.fold(&trace, slice.iter().map(Op::ops).sum(), &analyzer);
            on_ns.push(cal_ns);
        } else {
            off_ns.push(cal_ns);
        }
        // The oracle must see these slices' republishes too.
        for (op, outcome) in slice.iter().zip(outcomes) {
            scratch.verify(op, outcome, &mut setup.oracle);
        }
    }
    setup.driver.qb.set_tracing(false);
    let overhead = ratio(stats::median(&on_ns), stats::median(&off_ns)) - 1.0;
    (overhead, seen)
}

/// The workload's own inputs to the layers, captured for the probes.
struct Captured {
    terms: Vec<String>,
    requests: Vec<SearchRequest>,
    shards: HashMap<String, ShardEntry>,
    stats: IndexStats,
}

fn capture(inputs: &Inputs) -> (Vec<String>, Vec<SearchRequest>) {
    let analyzer = Analyzer::new();
    // Evenly spaced over the (sorted) distinct requests, so the sample is
    // not all queries that share the first head term.
    let all = inputs.distinct_requests();
    let step = all.len().div_ceil(CAPTURE).max(1);
    let requests: Vec<SearchRequest> = all.into_iter().step_by(step).collect();
    let mut terms: Vec<String> = Vec::new();
    for r in &requests {
        for t in analyzer.analyze(&r.query) {
            if !terms.contains(&t) && terms.len() < CAPTURE {
                terms.push(t);
            }
        }
    }
    (terms, requests)
}

fn shards_of(captured: &Captured, analyzer: &Analyzer, query: &str) -> Vec<ShardEntry> {
    let mut terms: Vec<String> = Vec::new();
    for t in analyzer.analyze(query) {
        if !terms.contains(&t) {
            terms.push(t);
        }
    }
    terms
        .iter()
        .map(|t| {
            captured
                .shards
                .get(t)
                .cloned()
                .unwrap_or_else(|| ShardEntry::empty(t))
        })
        .collect()
}

/// The traced run's per-layer metrics, in catalogue order.
pub fn per_layer(
    inputs: &Inputs,
    setup: &mut SetUp,
    m: &Measured,
    calibrator: &mut Calibrator,
    spans: &mut Spans,
) -> Vec<(&'static str, f64)> {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let kind = inputs.kind;
    let ops = m.ops.max(1) as f64;
    let kops = ops / 1_000.0;
    let timed_cal_ns: f64 = m.calibrated_slice_ns.iter().sum();
    let timed_raw_ns: f64 = m.raw_slice_ns.iter().map(|&n| n as f64).sum();
    let cal_over_raw = ratio(timed_cal_ns, timed_raw_ns);

    // ----- tracer blocks -----------------------------------------------------------
    let (tracer_overhead, seen) = tracer_blocks(inputs, setup, calibrator, spans);
    out.insert("trace.engine_on_overhead_frac", tracer_overhead);
    out.insert("trace.spans_per_op", ratio(seen.spans, seen.ops));

    // ----- counters over the timed region ------------------------------------------
    let net = m.after.net.delta_since(&m.before.net);
    out.insert(
        "simnet.events_per_host_s",
        ratio(net.async_ops as f64, timed_cal_ns / 1e9),
    );
    out.insert(
        "simnet.queued_op_frac",
        ratio(net.async_queued_ops as f64, net.async_ops as f64),
    );
    out.insert(
        "simnet.queue_delay_ms_per_op",
        net.async_queue_delay_us as f64 / 1e3 / ops,
    );
    out.insert(
        "simnet.failed_rpc_frac",
        ratio(net.failed_rpcs as f64, (net.rpcs + net.failed_rpcs) as f64),
    );
    out.insert(
        "dht.hedge_fired_frac",
        ratio(net.hedges_fired as f64, net.rpcs as f64),
    );
    out.insert(
        "dht.hedge_won_frac",
        ratio(net.hedges_won as f64, net.hedges_fired as f64),
    );
    let storage_hits = (m.after.storage_cache.0 - m.before.storage_cache.0) as f64;
    let storage_misses = (m.after.storage_cache.1 - m.before.storage_cache.1) as f64;
    out.insert(
        "storage.cache_hit_frac",
        ratio(storage_hits, storage_hits + storage_misses),
    );

    let q = &m.after.query;
    let q0 = &m.before.query;
    let scored = (q.score_invocations - q0.score_invocations) as f64;
    let memo_hits = (q.window_memo_hits - q0.window_memo_hits) as f64;
    out.insert(
        "executor.memo_hit_frac",
        ratio(memo_hits, memo_hits + scored),
    );
    out.insert(
        "pipeline.windows_per_kop",
        ratio((q.pipelined_windows - q0.pipelined_windows) as f64, kops),
    );

    let tier = |a: qb_queenbee::TierMetrics, b: qb_queenbee::TierMetrics| {
        ratio(
            (a.hits - b.hits) as f64,
            (a.hits + a.misses - b.hits - b.misses) as f64,
        )
    };
    let (c1, c0) = (&m.after.cache, &m.before.cache);
    out.insert("cache.result_hit_frac", tier(c1.result, c0.result));
    out.insert("cache.shard_hit_frac", tier(c1.shard, c0.shard));
    out.insert("cache.negative_hit_frac", tier(c1.negative, c0.negative));
    out.insert(
        "cache.evictions_per_kop",
        ratio((c1.total_evictions() - c0.total_evictions()) as f64, kops),
    );
    out.insert(
        "cache.invalidations_per_publish",
        ratio(
            (c1.total_invalidations() - c0.total_invalidations()) as f64,
            m.republishes as f64,
        ),
    );

    let (g1, g0) = (&m.after.gossip, &m.before.gossip);
    out.insert(
        "gossip.kb_per_round",
        ratio(
            (g1.total_bytes() - g0.total_bytes()) as f64 / 1024.0,
            (g1.rounds - g0.rounds) as f64,
        ),
    );
    out.insert(
        "gossip.fill_accept_frac",
        ratio(
            (g1.shards_accepted - g0.shards_accepted) as f64,
            (g1.shards_pushed - g0.shards_pushed) as f64,
        ),
    );
    out.insert(
        "gossip.stale_rejected",
        (g1.stale_rejected - g0.stale_rejected) as f64,
    );

    out.insert(
        "admission.queue_wait_p99_ms",
        m.queue_wait.p99().as_millis_f64(),
    );
    out.insert(
        "admission.shed_frac",
        ratio(m.tally.shed as f64, m.load_offered as f64),
    );
    out.insert(
        "admission.degraded_frac",
        ratio(m.tally.degraded as f64, m.load_admitted as f64),
    );
    out.insert("admission.peak_queue_depth", m.peak_queue_depth as f64);
    out.insert("load.gen_late_ms_max", m.gen_late_max.as_millis_f64());

    // How far the admitted-per-frontend counts sit from where rendezvous
    // hashing alone would have put the same arrivals: a lower bound on the
    // share two-choices routing diverted.
    let fleet = m.admitted_per_frontend.len();
    let mut by_hash = vec![0u64; fleet];
    if fleet > 0 {
        for i in 0..inputs.timed {
            for op in inputs.slice(i) {
                let Op::OpenLoop(chunk) = op else { continue };
                for a in chunk {
                    if let RoutingPolicy::HashPeer(p) = a.request.routing {
                        if let (Some(first), _) = hrw_top2(p, 0..fleet) {
                            by_hash[first] += 1;
                        }
                    }
                }
            }
        }
    }
    let moved: u64 = by_hash
        .iter()
        .zip(&m.admitted_per_frontend)
        .map(|(h, a)| h.abs_diff(*a))
        .sum();
    out.insert(
        "routing.diverted_frac",
        ratio(moved as f64 / 2.0, m.load_admitted as f64),
    );

    // Stage costs per read: from the responses on the closed-loop
    // workloads, from the engine's query trees on the open-loop one.
    let (fetch_ms, stats_ms, queue_ms, score_ms, fetches_per_op, stats_reads_per_op) =
        if m.reads > 0 {
            let reads = m.reads as f64;
            (
                m.stage.shard_fetch.as_millis_f64() / reads,
                m.stage.stats.as_millis_f64() / reads,
                m.stage.net_queue.as_millis_f64() / reads,
                m.stage.score.as_millis_f64() / reads,
                m.shard_fetches as f64 / ops,
                m.stats_reads as f64 / ops,
            )
        } else {
            (
                ratio(seen.fetch_us / 1e3, seen.queries),
                ratio(seen.stats_us / 1e3, seen.queries),
                ratio(seen.net_queue_us / 1e3, seen.queries),
                0.0,
                ratio(seen.window_fetches, seen.ops),
                ratio(seen.stats_reads, seen.ops),
            )
        };
    out.insert("stage.fetch_ms", fetch_ms);
    out.insert("stage.stats_ms", stats_ms);
    out.insert("stage.net_queue_ms", queue_ms);
    out.insert("stage.score_ms", score_ms);
    // Share of per-query term demands that did not become a DHT fetch
    // (window dedup plus shard/negative tier hits), where the engine's
    // spans show both sides; 0 on the single-query closed-loop windows.
    out.insert(
        "pipeline.shard_dedup_frac",
        if seen.term_demand > 0.0 && m.reads == 0 {
            (1.0 - ratio(seen.window_fetches, seen.term_demand)).max(0.0)
        } else {
            0.0
        },
    );

    // ----- probes ------------------------------------------------------------------
    let qb = &mut setup.driver.qb;
    let analyzer = Analyzer::new();
    let dist = DistributedIndex {
        inline_threshold: inputs.config.shard_inline_threshold,
    };
    let frontends = inputs.config.gossip.num_frontends as u64;
    let users = (inputs.config.num_peers - inputs.config.num_bees) as u64 - frontends;
    let origin = frontends;
    let (terms, requests) = capture(inputs);

    // simnet: issue + poll one async RPC, on a fresh network of the same shape.
    {
        let mut net = SimNet::new(
            inputs.config.num_peers,
            inputs.config.net.clone(),
            inputs.config.seed,
        );
        let peers = inputs.config.num_peers as u64;
        let n = 40_000u64;
        let ns = probe("probe.simnet", n as f64, calibrator, spans, || {
            for i in 0..n {
                let now = net.now();
                if let Ok(h) = net.send_async_at(i % peers, (i * 7 + 1) % peers, 72, 40, now, None)
                {
                    let due = net.async_completes_at(h).unwrap_or(now);
                    std::hint::black_box(net.poll_complete(h, due));
                }
            }
        });
        out.insert("simnet.send_poll_ns", ns);
    }

    // index read path (also captures the shards the other probes use).
    let mut shards: HashMap<String, ShardEntry> = HashMap::new();
    let reps = (2_000 / terms.len().max(1)).clamp(1, 40);
    let reads = (terms.len() * reps) as f64;
    let read_shard_ns = probe("probe.read_shard", reads, calibrator, spans, || {
        for rep in 0..reps {
            for (i, term) in terms.iter().enumerate() {
                let peer = origin + (i + rep) as u64 % users;
                if let Ok((shard, _)) =
                    dist.read_shard_fresh(&mut qb.net, &mut qb.dht, &mut qb.storage, peer, term, 0)
                {
                    shards.insert(term.clone(), shard);
                }
            }
        }
    });
    out.insert("index.read_shard_us", read_shard_ns / 1e3);
    let mut index_stats = IndexStats::default();
    let read_stats_ns = probe("probe.read_stats", 200.0, calibrator, spans, || {
        for i in 0..200u64 {
            if let Ok((s, _)) = dist.read_stats(&mut qb.net, &mut qb.dht, origin + i % users) {
                index_stats = s;
            }
        }
    });
    let captured = Captured {
        terms,
        requests,
        shards,
        stats: index_stats,
    };
    let all_shards: Vec<&ShardEntry> = captured
        .terms
        .iter()
        .filter_map(|t| captured.shards.get(t))
        .collect();
    let shard_bytes: usize = all_shards.iter().map(|s| s.encoded_len()).sum();
    out.insert(
        "index.shard_kb_mean",
        ratio(shard_bytes as f64 / 1024.0, all_shards.len() as f64),
    );

    // dht: one value lookup.
    {
        let before = qb.net.stats().rpcs;
        let lookups = (captured.terms.len() * reps) as f64;
        let ns = probe("probe.dht_lookup", lookups, calibrator, spans, || {
            for rep in 0..reps {
                for (i, term) in captured.terms.iter().enumerate() {
                    let peer = origin + (i + rep) as u64 % users;
                    let _ = std::hint::black_box(qb.dht.get_record_fresh(
                        &mut qb.net,
                        peer,
                        DhtKey::for_term(term),
                        0,
                    ));
                }
            }
        });
        out.insert("dht.lookup_us", ns / 1e3);
        out.insert(
            "dht.rpcs_per_lookup",
            ratio((qb.net.stats().rpcs - before) as f64, lookups),
        );
    }

    // storage: fetch published page objects by cid.
    {
        let cids: Vec<_> = inputs
            .corpus
            .pages
            .iter()
            .take(CAPTURE)
            .filter_map(|p| qb.chain.publish_registry().get(&p.name).map(|r| r.cid))
            .collect();
        let n = (cids.len() * 4) as f64;
        let ns = probe("probe.get_object", n, calibrator, spans, || {
            for rep in 0..4u64 {
                for (i, cid) in cids.iter().enumerate() {
                    let peer = origin + (i as u64 + rep * 5) % users;
                    let _ = std::hint::black_box(qb.storage.get_object(
                        &mut qb.net,
                        &mut qb.dht,
                        peer,
                        *cid,
                    ));
                }
            }
        });
        out.insert("storage.get_object_us", ns / 1e3);
    }

    // index codecs and intersection.
    {
        let encoded: Vec<Vec<u8>> = all_shards.iter().map(|s| s.encode()).collect();
        let bytes: usize = encoded.iter().map(Vec::len).sum();
        let reps = (4_000_000 / bytes.max(1)).clamp(1, 2_000);
        let ns = probe(
            "probe.shard_encode",
            (bytes * reps) as f64,
            calibrator,
            spans,
            || {
                for _ in 0..reps {
                    for s in &all_shards {
                        std::hint::black_box(s.encode());
                    }
                }
            },
        );
        out.insert("index.shard_encode_mb_per_s", ratio(1e3, ns));
        let ns = probe(
            "probe.shard_decode",
            (bytes * reps) as f64,
            calibrator,
            spans,
            || {
                for _ in 0..reps {
                    for e in &encoded {
                        let _ = std::hint::black_box(ShardEntry::decode(e));
                    }
                }
            },
        );
        out.insert("index.shard_decode_mb_per_s", ratio(1e3, ns));

        let mut by_len: Vec<&&ShardEntry> = all_shards.iter().collect();
        by_len.sort_by_key(|s| std::cmp::Reverse(s.postings.len()));
        let ns = match by_len.as_slice() {
            [a, b, ..] => {
                let (la, lb) = (a.to_posting_list(), b.to_posting_list());
                let postings = (la.len() + lb.len()).max(1);
                let reps = (2_000_000 / postings).clamp(1, 200_000);
                probe(
                    "probe.intersect",
                    (postings * reps) as f64,
                    calibrator,
                    spans,
                    || {
                        for _ in 0..reps {
                            std::hint::black_box(la.intersect(&lb));
                        }
                    },
                )
            }
            _ => 0.0,
        };
        out.insert("index.intersect_ns_per_posting", ns);
    }

    // index write path: the captured shards under fresh probe keys.
    {
        let copies: Vec<ShardEntry> = all_shards
            .iter()
            .take(16)
            .enumerate()
            .map(|(i, s)| ShardEntry {
                term: format!("zzprobe{i}"),
                version: 1,
                postings: s.postings.clone(),
            })
            .collect();
        let writer = (inputs.config.num_peers - 1) as u64;
        let ns = probe(
            "probe.write_shard",
            copies.len() as f64,
            calibrator,
            spans,
            || {
                for c in &copies {
                    let _ = std::hint::black_box(dist.write_shard(
                        &mut qb.net,
                        &mut qb.dht,
                        &mut qb.storage,
                        writer,
                        c,
                    ));
                }
            },
        );
        out.insert("index.write_shard_us", ns / 1e3);
    }

    // executor: intersect + score the workload's own queries on the shards
    // they resolve to.
    let score_inputs: Vec<(Vec<ShardEntry>, usize)> = captured
        .requests
        .iter()
        .map(|r| {
            (
                shards_of(&captured, &analyzer, &r.query),
                r.top_k.unwrap_or(inputs.config.top_k),
            )
        })
        .collect();
    let rank_weight = inputs.config.rank_weight;
    let (mut candidates, mut hits) = (0usize, 0usize);
    for (shards, top_k) in &score_inputs {
        let (full, scored) =
            intersect_and_score(shards, &captured.stats, |n| qb.rank_of(n), rank_weight);
        candidates += scored;
        hits += full.len().min(*top_k);
    }
    let score_reps = (400_000 / candidates.max(1)).clamp(1, 2_000);
    let score_total_ns = {
        let units = (score_inputs.len() * score_reps) as f64;
        probe("probe.score", units, calibrator, spans, || {
            for _ in 0..score_reps {
                for (shards, _) in &score_inputs {
                    std::hint::black_box(intersect_and_score(
                        shards,
                        &captured.stats,
                        |n| qb.rank_of(n),
                        rank_weight,
                    ));
                }
            }
        })
    };
    out.insert(
        "executor.score_ns_per_candidate",
        ratio(
            score_total_ns * score_inputs.len() as f64,
            candidates as f64,
        ),
    );
    // A shard-tier hit clones the resident shard twice on its way to the
    // scorer (out of the cache at plan time, into the query's shard list at
    // serve time): resident-shard work too.
    let shard_clones: usize = score_inputs.iter().map(|(shards, _)| shards.len()).sum();
    let clone_reps = (20_000 / shard_clones.max(1)).clamp(1, 2_000);
    let shard_hit_clone_ns = probe(
        "probe.shard_clone",
        (shard_clones * clone_reps) as f64,
        calibrator,
        spans,
        || {
            for _ in 0..clone_reps {
                for (shards, _) in &score_inputs {
                    std::hint::black_box(shards.clone());
                    std::hint::black_box(shards.clone());
                }
            }
        },
    );
    let ((), allocs, _) = host::count_allocs(|| {
        for (shards, _) in &score_inputs {
            std::hint::black_box(intersect_and_score(
                shards,
                &captured.stats,
                |n| qb.rank_of(n),
                rank_weight,
            ));
        }
    });
    out.insert(
        "executor.allocs_per_query",
        ratio(allocs as f64, score_inputs.len() as f64),
    );
    out.insert(
        "executor.candidates_per_hit",
        if m.reads > 0 {
            ratio(m.stage.candidates_scored as f64, m.hits_returned as f64)
        } else {
            ratio(candidates as f64, hits as f64)
        },
    );

    // planner and cache tiers, on a cache holding the captured shards.
    {
        let config = if inputs.config.cache.enabled {
            inputs.config.cache.clone()
        } else {
            CacheConfig::enabled()
        };
        let now = SimInstant::ZERO;
        let versions: HashMap<String, u64> = all_shards
            .iter()
            .map(|s| (s.term.clone(), s.version))
            .collect();
        let mut cache = QueryCache::new(config.clone());
        for s in &all_shards {
            cache.store_shard(s, now);
        }
        let n = 20_000usize;
        let ns = probe("probe.cache_probe", n as f64, calibrator, spans, || {
            for i in 0..n {
                let s = all_shards[i % all_shards.len().max(1)];
                std::hint::black_box(cache.lookup_shard(&s.term, now, s.version));
            }
        });
        out.insert(
            "cache.probe_ns",
            if all_shards.is_empty() { 0.0 } else { ns },
        );

        let mut admit_cache = QueryCache::new(config);
        let copies: Vec<ShardEntry> = (0..2_000)
            .filter_map(|i| {
                all_shards
                    .get(i % all_shards.len().max(1))
                    .map(|s| ShardEntry {
                        term: format!("{}#{i}", s.term),
                        version: s.version,
                        postings: s.postings.clone(),
                    })
            })
            .collect();
        let ns = probe(
            "probe.cache_admit",
            copies.len() as f64,
            calibrator,
            spans,
            || {
                for c in &copies {
                    admit_cache.store_shard(c, now);
                }
            },
        );
        out.insert("cache.admit_ns", ns);

        let mut plan_cache = Some(cache);
        let plans = (captured.requests.len() * 200) as f64;
        let ns = probe("probe.plan", plans, calibrator, spans, || {
            for rep in 0..200u64 {
                for r in &captured.requests {
                    let _ = std::hint::black_box(plan_request(
                        r.clone(),
                        rep,
                        origin,
                        None,
                        &analyzer,
                        &mut plan_cache,
                        &versions,
                        captured.stats.version,
                        now,
                    ));
                }
            }
        });
        out.insert("plan.plan_ns", ns);
    }

    // routing: resolve a HashPeer policy to its serving frontend.
    {
        let n = 100_000u64;
        let ns = probe("probe.route", n as f64, calibrator, spans, || {
            for i in 0..n {
                let _ = std::hint::black_box(qb.route_frontend(&RoutingPolicy::HashPeer(i)));
            }
        });
        out.insert("routing.route_ns", ns);
    }

    // gossip: one forced round on the fleet as the run left it.
    out.insert(
        "gossip.round_us",
        if qb.num_frontends() >= 2 {
            probe("run_gossip_round", 50.0, calibrator, spans, || {
                for _ in 0..50 {
                    qb.run_gossip_round(false);
                }
            }) / 1e3
        } else {
            0.0
        },
    );

    // segment codec and merge over the captured shards.
    {
        let segment = Segment::from_shards(all_shards.iter().map(|s| (*s).clone()));
        let encoded = segment.encode();
        let bytes = encoded.len().max(1);
        let reps = (4_000_000 / bytes).clamp(1, 2_000);
        let ns = probe(
            "probe.segment_encode",
            (bytes * reps) as f64,
            calibrator,
            spans,
            || {
                for _ in 0..reps {
                    std::hint::black_box(segment.encode());
                }
            },
        );
        out.insert("segment.encode_mb_per_s", ratio(1e3, ns));
        let ns = probe(
            "probe.segment_decode",
            (bytes * reps) as f64,
            calibrator,
            spans,
            || {
                for _ in 0..reps {
                    let _ = std::hint::black_box(Segment::decode(&encoded));
                }
            },
        );
        out.insert("segment.decode_mb_per_s", ratio(1e3, ns));
        // Merge the segment with a half-overlapping newer one.
        let newer = Segment::from_shards(all_shards.iter().step_by(2).map(|s| {
            let mut s = (*s).clone();
            s.version += 1;
            s
        }));
        let merge_bytes = bytes + newer.encoded_len();
        let ns = probe(
            "probe.segment_merge",
            (merge_bytes * reps) as f64,
            calibrator,
            spans,
            || {
                for _ in 0..reps {
                    std::hint::black_box(Segment::merge([segment.clone(), newer.clone()]));
                }
            },
        );
        out.insert("segment.merge_mb_per_s", ratio(1e3, ns));
        // As E16b defines it: cumulative artifact bytes published over the
        // size of the final artifact.
        out.insert(
            "segment.write_amp",
            qb.latest_segment().map_or(0.0, |artifact| {
                ratio(
                    qb.segment_stats().publish_bytes as f64,
                    artifact.total_len as f64,
                )
            }),
        );
    }

    // ----- the write path, from the benchmark's own spans ---------------------------
    // On publish-churn the republishes of the timed region; elsewhere the
    // corpus publish of set-up (the same code, and what moves setup_s).
    let window = if m.republishes > 0 {
        m.span_window
    } else {
        (0, m.span_window.0)
    };
    let own = spans.self_times_between(window.0, window.1);
    let own_ns = |name: &str| own.get(name).copied().unwrap_or(0);
    let (publish_ns, index_ns, compact_ns) = (
        own_ns("publish"),
        own_ns("process_publish_events"),
        own_ns("compact_segments"),
    );
    let published = spans
        .all()
        .iter()
        .filter(|s| s.name == "publish" && s.start_ns >= window.0 && s.start_ns < window.1)
        .count();
    out.insert(
        "publish.page_us",
        ratio(publish_ns as f64 / 1e3, published as f64),
    );
    out.insert(
        "publish.index_us_per_page",
        ratio(index_ns as f64 / 1e3, published as f64),
    );
    let pages = setup.driver.pages_published as f64;
    out.insert(
        "publish.shard_writes_per_page",
        ratio(m.after.writer.0 as f64, pages),
    );
    out.insert(
        "publish.msgs_per_page",
        ratio(setup.driver.publish_messages as f64, pages),
    );

    // ----- harness diagnostics -------------------------------------------------------
    let raw: Vec<f64> = m.raw_slice_ns.iter().map(|&n| n as f64).collect();
    let raw_median = stats::median(&raw);
    let raw_min = raw.iter().copied().fold(f64::INFINITY, f64::min);
    out.insert(
        "bench.raw_ops_per_s",
        ratio(kind.ops_per_slice() as f64 * 1e9, raw_median),
    );
    out.insert("bench.slice_median_over_min", ratio(raw_median, raw_min));
    let kernel: Vec<f64> = calibrator.samples_ns.iter().map(|&n| n as f64).collect();
    out.insert(
        "bench.calib_median_over_min",
        ratio(
            stats::median(&kernel),
            kernel.iter().copied().fold(f64::INFINITY, f64::min),
        ),
    );
    let span_cost_ns = {
        let mut scratch = Spans::new(true);
        let n = 20_000u64;
        let t = std::time::Instant::now();
        for i in 0..n {
            scratch.time("x", i, || std::hint::black_box(i));
        }
        t.elapsed().as_nanos() as f64 / n as f64
    };
    let timed_spans = spans
        .all()
        .iter()
        .filter(|s| s.start_ns >= m.span_window.0 && s.start_ns < m.span_window.1)
        .count();
    out.insert(
        "bench.span_overhead_frac",
        ratio(timed_spans as f64 * span_cost_ns, timed_raw_ns),
    );

    // ----- shares: where the timed region's host time went --------------------------
    let write_cal_ns = if m.republishes > 0 {
        (publish_ns + index_ns + compact_ns) as f64 * cal_over_raw
    } else {
        0.0
    };
    let fetch_cal_ns = ops * (fetches_per_op * read_shard_ns + stats_reads_per_op * read_stats_ns);
    let shard_hits = (c1.shard.hits - c0.shard.hits) as f64;
    let score_cal_ns = scored * score_total_ns + shard_hits * shard_hit_clone_ns;
    // The three estimates come from different clocks' worth of probing;
    // where they overshoot the region they are scaled back to fill it.
    let claimed = fetch_cal_ns + score_cal_ns + write_cal_ns;
    let scale = if claimed > timed_cal_ns {
        ratio(timed_cal_ns, claimed)
    } else {
        1.0
    };
    let share = |ns: f64| ratio(ns * scale, timed_cal_ns);
    let (fetch, score, write) = (
        share(fetch_cal_ns),
        share(score_cal_ns),
        share(write_cal_ns),
    );
    out.insert("share.fetch", fetch);
    out.insert("share.score", score);
    out.insert("share.write", write);
    out.insert("share.serve", (1.0 - fetch - score - write).max(0.0));

    PER_LAYER
        .iter()
        .map(|spec| (spec.name, out.get(spec.name).copied().unwrap_or(0.0)))
        .collect()
}

/// Which share a workload exists to stress.
pub fn target_share(kind: Kind) -> &'static str {
    match kind {
        Kind::ServeWarm => "share.serve",
        Kind::ColdLookup => "share.fetch",
        Kind::ScoreHeavy => "share.score",
        Kind::PublishChurn => "share.write",
    }
}

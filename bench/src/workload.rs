//! The four workloads: engine configuration, corpus and operation stream,
//! all generated in-process by `qb-workload`/`qb-load` — the dataset
//! (pages, query pool) from a fixed dataset seed, the traffic over it and
//! the engine's own randomness from `--seed`. The engine receives only the
//! generated pages and requests.
//!
//! The operation stream is a *fixed function of the seed and `--seconds`*
//! (a fixed number of slices per second, a fixed op count per slice), never
//! of how fast the host happens to be: that is what lets every simulated
//! quantity print the same digits on every run at equal seed.

use qb_common::{DetRng, SimDuration};
use qb_dweb::WebPage;
use qb_index::Analyzer;
use qb_load::{to_requests, ArrivalTrace, ReplayConfig, TraceConfig};
use qb_queenbee::{
    AdmissionConfig, CacheConfig, Freshness, GossipConfig, QueenBeeConfig, RoutingPolicy,
    SearchRequest, SegmentConfig,
};
use qb_workload::{Corpus, CorpusConfig, CorpusGenerator, QueryWorkload, ZipfSampler};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Slices per second of `--seconds`: 7 keeps a 15 s run above the 100-slice
/// floor the median estimator wants, at ~125 ms of engine work per slice.
pub const SLICES_PER_SECOND: u32 = 7;
/// Extra slices generated beyond the timed region; the traced run spends
/// them alternating the engine's own tracer off and on.
pub const TRACER_AB_SLICES: usize = 12;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ServeWarm,
    ColdLookup,
    ScoreHeavy,
    PublishChurn,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::ServeWarm,
        Kind::ColdLookup,
        Kind::ScoreHeavy,
        Kind::PublishChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ServeWarm => "serve-warm",
            Kind::ColdLookup => "cold-lookup",
            Kind::ScoreHeavy => "score-heavy",
            Kind::PublishChurn => "publish-churn",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Engine ops per slice, sized on the reference sandbox so one slice is
    /// 100–150 ms of host time.
    pub fn ops_per_slice(self) -> usize {
        match self {
            Kind::ServeWarm => SERVE_ARRIVALS_PER_SLICE,
            Kind::ColdLookup => 3_600,
            Kind::ScoreHeavy => 1_050,
            Kind::PublishChurn => 4 * CHURN_CYCLES_PER_SLICE,
        }
    }
}

/// One arrival of the open-loop trace: due `due` after the trace starts.
#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    pub due: SimDuration,
    pub request: SearchRequest,
}

/// One step of a workload's operation stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// Closed loop: one `search_request`, the next op starts when it returns.
    /// With `client` set the request comes from that user device to a
    /// dedicated frontend, and the op's latency includes the
    /// client↔frontend round trip on the simulated network.
    Read {
        request: SearchRequest,
        client: Option<u64>,
    },
    /// Closed loop: `publish` + `seal` + `process_publish_events` of the
    /// next version of a page (then `compact_segments` when `compact`).
    Republish {
        page: WebPage,
        creator: u64,
        peer: u64,
        compact: bool,
    },
    /// Open loop: a fixed-count chunk of the arrival trace handed to
    /// `serve_open_loop`; counts as one op per arrival.
    OpenLoop(Vec<Arrival>),
}

impl Op {
    pub fn ops(&self) -> u64 {
        match self {
            Op::OpenLoop(chunk) => chunk.len() as u64,
            _ => 1,
        }
    }
}

/// A workload's operation stream, cut into equal slices: the timed
/// region first, then [`TRACER_AB_SLICES`] more.
#[derive(Debug, Clone)]
pub enum Stream {
    /// Ops with state behind them (an arrival trace, page versions), kept
    /// as generated.
    Ops(Vec<Vec<Op>>),
    /// Read-only closed-loop streams: `(query, origin peer)` picks over a
    /// pool of distinct queries, materialised one slice at a time so that
    /// hundreds of thousands of requests do not sit in memory (the peak
    /// resident set should be the engine's, not the generator's).
    Reads {
        pool: Vec<String>,
        picks: Vec<(u32, u32)>,
        per_slice: usize,
        top_k: usize,
        freshness: Freshness,
        /// The picked peer is a remote client of frontend 0 (otherwise it
        /// is the querying device itself, `HashPeer`).
        remote_client: bool,
    },
}

/// Everything a run needs, generated from the seed before any clock starts.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub kind: Kind,
    pub config: QueenBeeConfig,
    pub corpus: Corpus,
    /// Pages published per `seal` + `process_publish_events` during set-up.
    pub publish_batch: usize,
    /// Scenario builds per set-up repetition, so a repetition is over a
    /// second of host time however small the scenario.
    pub builds_per_rep: usize,
    /// Cache warm-up, run (and checked) as the last step of set-up.
    pub warmup: Vec<Op>,
    /// Slices in the timed region.
    pub timed: usize,
    pub stream: Stream,
}

impl Inputs {
    /// The ops of slice `i` (`0..timed` is the timed region, the next
    /// [`TRACER_AB_SLICES`] feed the traced run's tracer on/off blocks).
    pub fn slice(&self, i: usize) -> Vec<Op> {
        match &self.stream {
            Stream::Ops(slices) => slices[i].clone(),
            Stream::Reads {
                pool,
                picks,
                per_slice,
                top_k,
                freshness,
                remote_client,
            } => picks[i * per_slice..(i + 1) * per_slice]
                .iter()
                .map(|&(q, peer)| {
                    let request = SearchRequest::new(pool[q as usize].as_str())
                        .top_k(*top_k)
                        .freshness(*freshness);
                    if *remote_client {
                        Op::Read {
                            request: request.route(RoutingPolicy::Direct(0)),
                            client: Some(peer as u64),
                        }
                    } else {
                        Op::Read {
                            request: request.route(RoutingPolicy::HashPeer(peer as u64)),
                            client: None,
                        }
                    }
                })
                .collect(),
        }
    }

    /// One representative of every distinct request the run will issue
    /// (warm-up included).
    pub fn distinct_requests(&self) -> Vec<SearchRequest> {
        let mut out: BTreeMap<(String, Option<usize>, bool), SearchRequest> = BTreeMap::new();
        let mut add = |r: &SearchRequest| {
            let fresh = r.freshness == Freshness::Fresh;
            out.entry((r.query.clone(), r.top_k, fresh))
                .or_insert_with(|| r.clone());
        };
        let mut add_ops = |ops: &[Op]| {
            for op in ops {
                match op {
                    Op::Read { request, .. } => add(request),
                    Op::OpenLoop(chunk) => chunk.iter().for_each(|a| add(&a.request)),
                    Op::Republish { .. } => {}
                }
            }
        };
        add_ops(&self.warmup);
        match &self.stream {
            Stream::Ops(slices) => slices.iter().for_each(|s| add_ops(s)),
            Stream::Reads {
                pool,
                top_k,
                freshness,
                ..
            } => {
                for q in pool {
                    add(&SearchRequest::new(q.as_str())
                        .top_k(*top_k)
                        .freshness(*freshness));
                }
            }
        }
        out.into_values().collect()
    }

    /// FNV-1a digest of everything generated — the "same seed, same
    /// inputs" check.
    #[cfg(test)]
    pub fn digest(&self) -> u64 {
        let text = format!(
            "{:?}|{:?}|{:?}|{:?}|{:?}",
            self.config, self.corpus.pages, self.corpus.creators, self.warmup, self.stream
        );
        text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }
}

pub fn slice_count(seconds: u32) -> usize {
    (seconds.max(1) * SLICES_PER_SECOND) as usize
}

/// Generate a workload's inputs from the seed.
pub fn generate(kind: Kind, seed: u64, seconds: u32) -> Inputs {
    let slices = slice_count(seconds);
    match kind {
        Kind::ServeWarm => serve_warm(seed, slices),
        Kind::ColdLookup => cold_lookup(seed, slices),
        Kind::ScoreHeavy => score_heavy(seed, slices),
        Kind::PublishChurn => publish_churn(seed, slices),
    }
}

/// Seed of every workload's *dataset* (corpus and query pool). The run's
/// `--seed` drives the traffic over it — arrival times, which query or
/// page comes next, freshness coin flips, origin peers — and the engine's
/// own randomness (network latencies, DHT ids), not the pages themselves:
/// with a fresh corpus per seed the cost of the one hottest query moves
/// allocations and messages per op by 5–12 % between seeds, and a bound
/// wide enough for that could not see a 3 % regression.
const DATASET_SEED: u64 = 0x0DA7_A5E7;

fn corpus(num_pages: usize, vocab_size: usize, avg_doc_len: usize) -> Corpus {
    CorpusGenerator::new(CorpusConfig {
        num_pages,
        vocab_size,
        avg_doc_len,
        ..CorpusConfig::default()
    })
    .generate(&mut DetRng::new(DATASET_SEED))
}

/// The test LAN with jitter: 300–700 µs one way instead of a constant
/// 500 µs, so latency percentiles are not quantised to hop counts (a
/// quantised median jumps by a whole hop between seeds).
fn jittered_lan() -> qb_simnet::NetConfig {
    qb_simnet::NetConfig {
        latency: qb_simnet::LatencyModel::Uniform {
            lo_micros: 300,
            hi_micros: 700,
        },
        ..qb_simnet::NetConfig::lan()
    }
}

/// Cut `ops` into `timed + TRACER_AB_SLICES` slices of `per_slice` ops.
fn cut(mut ops: Vec<Op>, per_slice: usize, timed: usize) -> Stream {
    assert_eq!(ops.len(), per_slice * (timed + TRACER_AB_SLICES));
    let mut all: Vec<Vec<Op>> = Vec::with_capacity(timed + TRACER_AB_SLICES);
    while !ops.is_empty() {
        let rest = ops.split_off(per_slice);
        all.push(std::mem::replace(&mut ops, rest));
    }
    Stream::Ops(all)
}

// ----- serve-warm ------------------------------------------------------------------

const SERVE_FLEET: usize = 4;
const SERVE_PAGES: usize = 160;
const SERVE_POOL: usize = 48;
/// Just under the knee of this fleet: no shedding, 10–20 % of arrivals
/// degraded. (The rate ladder itself stays in experiment E14.)
const SERVE_QPS: f64 = 15.0;
const SERVE_FRESH_FRACTION: f64 = 0.9;
const SERVE_ARRIVALS_PER_SLICE: usize = 400;
const SERVE_WARMUP_ARRIVALS: usize = 1_200;
/// Sojourns above this count as failed ops on serve-warm.
pub const SERVE_LATENCY_LIMIT: SimDuration = SimDuration(1_000_000);

/// Open loop: a Poisson, Zipf(1.0) `qb-load` trace over a 48-query pool,
/// 90 % `Fresh`, against a 4-frontend WAN fleet with cache, gossip,
/// admission and HRW routing on, fed to `serve_open_loop` in fixed-count
/// chunks at a fixed rate just under the knee.
fn serve_warm(seed: u64, slices: usize) -> Inputs {
    let mut config = QueenBeeConfig::small();
    config.num_peers = 32;
    config.num_bees = 4;
    config.seed = seed;
    // WAN latencies and deployment-sized storage chunks: a Fresh query
    // costs ~150 ms of simulated round trips, as in E14.
    config.net = qb_simnet::NetConfig::default();
    config.storage = qb_storage::StorageConfig::default();
    config.cache = CacheConfig::enabled();
    config.gossip = GossipConfig::enabled(SERVE_FLEET);
    config.admission = AdmissionConfig::enabled();
    config.admission.queue_capacity = 32;
    config.admission.window_size = 8;
    config.admission.max_windows_in_flight = 2;
    config.admission.degrade_threshold = SimDuration::from_millis(250);
    config.admission.shed_threshold = SimDuration::from_millis(800);

    let corpus = corpus(SERVE_PAGES, 2_000, 80);
    let chunks = slices + TRACER_AB_SLICES;
    let total = SERVE_WARMUP_ARRIVALS + chunks * SERVE_ARRIVALS_PER_SLICE;
    // 10 % head-room plus a minute so the Poisson count never falls short.
    let duration = SimDuration::from_secs((total as f64 / SERVE_QPS * 1.1) as u64 + 60);
    let trace = ArrivalTrace::generate(
        &corpus,
        &TraceConfig {
            seed,
            duration,
            base_qps: SERVE_QPS,
            pool_size: SERVE_POOL,
            zipf_s: 1.0,
            ..TraceConfig::default()
        },
    );
    assert!(
        trace.len() >= total,
        "trace too short: {} < {total}",
        trace.len()
    );
    // The trace draws its own query pool from its seed; keep its schedule
    // and popularity ranks but serve them from the dataset's pool.
    let pool = QueryWorkload::new(&corpus).generate_pool(
        &corpus,
        &mut DetRng::new(DATASET_SEED).fork(1),
        SERVE_POOL,
    );
    let rank_of: HashMap<&str, usize> = trace
        .pool
        .iter()
        .enumerate()
        .map(|(rank, q)| (q.as_str(), rank))
        .collect();
    let mut arrivals: Vec<Arrival> = to_requests(
        &trace,
        &ReplayConfig {
            seed: seed ^ 0x5E7,
            fresh_fraction: SERVE_FRESH_FRACTION,
            top_k: 5,
            ..ReplayConfig::default()
        },
    )
    .into_iter()
    .take(total)
    .map(|t| {
        let rank = rank_of[t.request.query.as_str()] % pool.len();
        Arrival {
            due: t.offset,
            request: SearchRequest {
                query: pool[rank].clone(),
                ..t.request
            },
        }
    })
    .collect();
    let timed = arrivals.split_off(SERVE_WARMUP_ARRIVALS);
    // Warm-up: every pool query once, closed loop, so the first open-loop
    // dispatches are not the seconds-long cold fetches that poison the
    // admission controller's service estimate into a shedding storm; then
    // the head of the trace itself.
    let mut warmup: Vec<Op> = pool
        .iter()
        .enumerate()
        .map(|(i, q)| Op::Read {
            request: SearchRequest::new(q.as_str())
                .top_k(5)
                .freshness(Freshness::Fresh)
                .route(RoutingPolicy::HashPeer(i as u64)),
            client: None,
        })
        .collect();
    warmup.push(Op::OpenLoop(arrivals));
    let ops: Vec<Op> = timed
        .chunks(SERVE_ARRIVALS_PER_SLICE)
        .map(|c| Op::OpenLoop(c.to_vec()))
        .collect();
    Inputs {
        kind: Kind::ServeWarm,
        config,
        corpus,
        publish_batch: 4,
        builds_per_rep: 2,
        warmup,
        timed: slices,
        stream: cut(ops, 1, slices),
    }
}

// ----- cold-lookup -----------------------------------------------------------------

const COLD_PEERS: usize = 256;
const COLD_PAGES: usize = 120;
const COLD_RARE_MAX_DF: usize = 2;

/// Closed loop, 1 client: 256 LAN peers, cache off, rare single-term
/// `Fresh` reads drawn without replacement (reshuffled each pass) from
/// rotating origin peers — simnet, DHT walks, storage tails and index read
/// machines do the work, scoring almost none.
fn cold_lookup(seed: u64, slices: usize) -> Inputs {
    let mut config = QueenBeeConfig::small();
    config.num_peers = COLD_PEERS;
    config.num_bees = 8;
    config.seed = seed;
    config.net = jittered_lan();
    config.dht = qb_dht::DhtConfig {
        k: 8,
        alpha: 3,
        ..qb_dht::DhtConfig::default()
    };

    let corpus = corpus(COLD_PAGES, 6_000, 100);
    // Rare terms: vocabulary words that occur in at most COLD_RARE_MAX_DF
    // pages (and survive analysis as one term).
    let analyzer = Analyzer::new();
    let mut df: HashMap<&str, usize> = HashMap::new();
    let texts: Vec<String> = corpus.pages.iter().map(WebPage::text).collect();
    for text in &texts {
        let words: BTreeSet<&str> = text.split_whitespace().collect();
        for w in words {
            *df.entry(w).or_default() += 1;
        }
    }
    let pool: Vec<String> = corpus
        .vocabulary
        .iter()
        .filter(|w| {
            df.get(w.as_str()).is_some_and(|&d| d <= COLD_RARE_MAX_DF)
                && analyzer.analyze(w).len() == 1
        })
        .cloned()
        .collect();
    assert!(pool.len() >= 200, "too few rare terms: {}", pool.len());

    let per_slice = Kind::ColdLookup.ops_per_slice();
    let total = per_slice * (slices + TRACER_AB_SLICES);
    let mut rng = DetRng::new(seed ^ 0xC01D);
    let clients = (COLD_PEERS - config.num_bees) as u64;
    let mut order: Vec<u32> = (0..pool.len() as u32).collect();
    let mut picks = Vec::with_capacity(total);
    while picks.len() < total {
        rng.shuffle(&mut order);
        for &q in order.iter().take(total - picks.len()) {
            picks.push((q, rng.gen_range(clients) as u32));
        }
    }
    Inputs {
        kind: Kind::ColdLookup,
        config,
        corpus,
        publish_batch: 2,
        builds_per_rep: 1,
        warmup: Vec::new(),
        timed: slices,
        stream: Stream::Reads {
            pool,
            picks,
            per_slice,
            top_k: 5,
            freshness: Freshness::Fresh,
            remote_client: false,
        },
    }
}

// ----- score-heavy -----------------------------------------------------------------

const SCORE_PAGES: usize = 300;
const SCORE_HEAD_TERMS: usize = 16;

/// Closed loop, 1 remote client of one dedicated frontend: ~300 pages,
/// shard tier warm, result tier bypassed (its byte budget is too small to
/// admit anything), 2–3 head terms per `CacheOk` query —
/// `to_posting_list` clones, intersect, BM25, rank blend and the full sort
/// do the work; the only network traffic is the client↔frontend round trip.
fn score_heavy(seed: u64, slices: usize) -> Inputs {
    let mut config = QueenBeeConfig::small();
    config.seed = seed;
    config.net = jittered_lan();
    config.gossip = GossipConfig::fleet(1);
    config.cache = CacheConfig::enabled();
    config.cache.result_capacity_bytes = 1;
    config.cache.shard_capacity_bytes = 8 * 1024 * 1024;

    let corpus = corpus(SCORE_PAGES, 3_000, 120);
    // Zipf(1.0) vocabulary: the lowest indices are the head terms. The
    // pool is every 2- and 3-subset of them.
    let head: Vec<&str> = corpus
        .vocabulary
        .iter()
        .take(SCORE_HEAD_TERMS)
        .map(String::as_str)
        .collect();
    let mut pool = Vec::new();
    for a in 0..head.len() {
        for b in a + 1..head.len() {
            pool.push(format!("{} {}", head[a], head[b]));
            for c in b + 1..head.len() {
                pool.push(format!("{} {} {}", head[a], head[b], head[c]));
            }
        }
    }
    let clients = (config.num_peers - config.num_bees - 1) as u64;
    let warmup: Vec<Op> = head
        .iter()
        .map(|t| Op::Read {
            request: SearchRequest::new(*t)
                .top_k(10)
                .route(RoutingPolicy::Direct(0)),
            client: Some(1),
        })
        .collect();

    let per_slice = Kind::ScoreHeavy.ops_per_slice();
    let total = per_slice * (slices + TRACER_AB_SLICES);
    let mut rng = DetRng::new(seed ^ 0x5C0E);
    // Clients are the user devices between the frontend (peer 0) and the bees.
    let picks = (0..total)
        .map(|_| {
            (
                rng.gen_index(pool.len()) as u32,
                1 + rng.gen_range(clients) as u32,
            )
        })
        .collect();
    Inputs {
        kind: Kind::ScoreHeavy,
        config,
        corpus,
        publish_batch: 4,
        builds_per_rep: 1,
        warmup,
        timed: slices,
        stream: Stream::Reads {
            pool,
            picks,
            per_slice,
            top_k: 10,
            freshness: Freshness::CacheOk,
            remote_client: true,
        },
    }
}

// ----- publish-churn ---------------------------------------------------------------

const CHURN_FLEET: usize = 4;
const CHURN_PAGES: usize = 120;
const CHURN_POOL: usize = 64;
const CHURN_CYCLES_PER_SLICE: usize = 22;
const CHURN_COMPACT_EVERY: usize = 32;

/// The next version of a page: a fifth of its words redrawn from the
/// corpus vocabulary. (`qb_workload::mutate_page` tags every version with
/// words no other page has, so under sustained churn the vocabulary — and
/// with it every per-term structure — grows without bound and no two
/// slices of the run do the same work.)
fn rewrite_page(
    page: &WebPage,
    vocabulary: &[String],
    word_pick: &ZipfSampler,
    rng: &mut DetRng,
) -> WebPage {
    let mut words: Vec<&str> = page.body.split_whitespace().collect();
    for _ in 0..(words.len() / 5).max(1) {
        let at = rng.gen_index(words.len());
        words[at] = vocabulary[word_pick.sample(rng)].as_str();
    }
    WebPage::new(
        page.name.clone(),
        page.title.clone(),
        words.join(" "),
        page.out_links.clone(),
    )
}

/// Closed loop, 1 client, writes beside reads: a 4-frontend fleet with
/// gossip and segments on, one republish per three `Fresh` reads, an
/// explicit `compact_segments` every 32nd republish.
fn publish_churn(seed: u64, slices: usize) -> Inputs {
    let mut config = QueenBeeConfig::small();
    config.num_peers = 32;
    config.num_bees = 4;
    config.seed = seed;
    config.net = jittered_lan();
    config.cache = CacheConfig::enabled();
    config.gossip = GossipConfig::enabled(CHURN_FLEET);
    // Compaction is driven explicitly (every CHURN_COMPACT_EVERY-th
    // republish); the automatic thresholds are set out of its way, or a
    // page's ~80 terms would trip the 128-term default every other write.
    config.segment = SegmentConfig {
        enabled: true,
        max_pending_terms: 1 << 20,
        max_pending_bytes: 1 << 30,
    };

    let corpus = corpus(CHURN_PAGES, 1_500, 80);
    let mut rng = DetRng::new(seed ^ 0xC4A2);
    let pool = QueryWorkload::new(&corpus).generate_pool(
        &corpus,
        &mut DetRng::new(DATASET_SEED).fork(1),
        CHURN_POOL,
    );
    let query_pick = ZipfSampler::new(pool.len(), 1.0);
    let page_pick = ZipfSampler::new(corpus.pages.len(), 0.7);
    let word_pick = ZipfSampler::new(corpus.vocabulary.len(), corpus.config.zipf_s);
    let publishers = (config.num_peers - config.num_bees) as u64;

    let cycles = CHURN_CYCLES_PER_SLICE * (slices + TRACER_AB_SLICES);
    let mut current: Vec<WebPage> = corpus.pages.clone();
    let mut ops = Vec::with_capacity(4 * cycles);
    for cycle in 0..cycles {
        for _ in 0..3 {
            ops.push(Op::Read {
                request: SearchRequest::new(pool[query_pick.sample(&mut rng)].as_str())
                    .top_k(5)
                    .freshness(Freshness::Fresh)
                    .route(RoutingPolicy::HashPeer(rng.gen_range(publishers))),
                client: None,
            });
        }
        let idx = page_pick.sample(&mut rng);
        let next = rewrite_page(&current[idx], &corpus.vocabulary, &word_pick, &mut rng);
        current[idx] = next.clone();
        ops.push(Op::Republish {
            page: next,
            creator: corpus.creators[idx],
            peer: idx as u64 % publishers,
            compact: (cycle + 1) % CHURN_COMPACT_EVERY == 0,
        });
    }
    Inputs {
        kind: Kind::PublishChurn,
        config,
        corpus,
        publish_batch: 4,
        builds_per_rep: 3,
        warmup: Vec::new(),
        timed: slices,
        stream: cut(ops, Kind::PublishChurn.ops_per_slice(), slices),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_for_every_workload() {
        for kind in Kind::ALL {
            let a = generate(kind, 7, 1);
            let b = generate(kind, 7, 1);
            let c = generate(kind, 8, 1);
            assert_eq!(a.digest(), b.digest(), "{}", kind.name());
            assert_ne!(a.digest(), c.digest(), "{}", kind.name());
            assert_eq!(a.timed, SLICES_PER_SECOND as usize);
            for i in 0..a.timed + TRACER_AB_SLICES {
                assert_eq!(a.slice(i), b.slice(i), "{} slice {i}", kind.name());
                let ops: u64 = a.slice(i).iter().map(Op::ops).sum();
                assert_eq!(ops, kind.ops_per_slice() as u64, "{}", kind.name());
            }
            assert!(a.config.validate().is_ok(), "{}", kind.name());
            assert!(!a.distinct_requests().is_empty());
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn workload_shapes_are_what_the_catalogue_says() {
        let serve = generate(Kind::ServeWarm, 3, 1);
        let Op::OpenLoop(chunk) = &serve.slice(0)[0] else {
            panic!("serve-warm slices are open-loop chunks");
        };
        let fresh = chunk
            .iter()
            .filter(|a| a.request.freshness == Freshness::Fresh)
            .count();
        assert!(
            fresh * 10 > chunk.len() * 8,
            "about 90 % Fresh, got {fresh}"
        );
        assert!(chunk.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(serve.distinct_requests().len() <= 2 * SERVE_POOL);

        let cold = generate(Kind::ColdLookup, 3, 1);
        assert!(cold.slice(0).iter().all(|op| matches!(
            op,
            Op::Read { request: r, client: None }
                if r.freshness == Freshness::Fresh && !r.query.contains(' ')
        )));
        assert!(!cold.config.cache.enabled);

        let score = generate(Kind::ScoreHeavy, 3, 1);
        assert!(score.slice(0).iter().all(|op| matches!(
            op,
            Op::Read { request: r, client: Some(_) }
                if r.freshness == Freshness::CacheOk
                    && (2..=3).contains(&r.query.split(' ').count())
        )));

        let churn = generate(Kind::PublishChurn, 3, 1);
        let ops: Vec<Op> = (0..churn.timed).flat_map(|i| churn.slice(i)).collect();
        let writes = ops
            .iter()
            .filter(|op| matches!(op, Op::Republish { .. }))
            .count();
        assert_eq!(ops.len() - writes, 3 * writes);
    }
}

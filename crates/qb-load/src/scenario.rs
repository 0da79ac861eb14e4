//! The scenario library: the corpus → publish → query-stream prologue and
//! the engine presets every experiment, integration test and example
//! starts from, written once.
//!
//! Plain functions over the public engine API. A preset returns a
//! [`QueenBeeConfig`] the caller then edits field by field, so a scenario
//! that differs from another in one knob says so in one line. Everything
//! fallible returns [`QbResult`]; binaries and tests `expect` at the call
//! site.

use crate::trace::{ArrivalTrace, RateShape, TraceConfig};
use qb_common::{DetRng, LatencyHistogram, QbError, QbResult, SimDuration};
use qb_queenbee::{
    AccountId, AdmissionConfig, CacheConfig, GossipConfig, NetConfig, QueenBee, QueenBeeConfig,
    SearchResponse,
};
use qb_workload::{mutate_page, Corpus, CorpusConfig, CorpusGenerator, QueryWorkload, ZipfSampler};
use std::ops::Range;

/// A deterministic corpus of `pages` pages over a vocabulary sized to the
/// page count.
pub fn corpus(seed: u64, pages: usize, avg_doc_len: usize) -> Corpus {
    let config = CorpusConfig {
        num_pages: pages,
        vocab_size: (pages * 12).max(500),
        avg_doc_len,
        ..CorpusConfig::default()
    };
    CorpusGenerator::new(config).generate(&mut DetRng::new(seed))
}

/// Publish every page of `corpus` — page `i` from peer
/// `publishers.start + i % publishers.len()` — then seal the block and run
/// the worker bees over the publish events. Returns the number of pages
/// the registry accepted; an empty publisher range is a configuration error.
pub fn publish_all(qb: &mut QueenBee, corpus: &Corpus, publishers: Range<u64>) -> QbResult<usize> {
    if publishers.is_empty() {
        return Err(QbError::Config("publish_all needs a publisher".into()));
    }
    let span = publishers.end - publishers.start;
    let mut accepted = 0;
    for (i, page) in corpus.pages.iter().enumerate() {
        let peer = publishers.start + i as u64 % span;
        let report = qb.publish(peer, AccountId(corpus.creators[i]), page)?;
        accepted += usize::from(report.accepted);
    }
    qb.seal();
    qb.process_publish_events()?;
    Ok(accepted)
}

/// Build an engine from `config` and [`publish_all`] of `corpus` into it.
pub fn published(
    config: QueenBeeConfig,
    corpus: &Corpus,
    publishers: Range<u64>,
) -> QbResult<QueenBee> {
    let mut qb = QueenBee::new(config)?;
    publish_all(&mut qb, corpus, publishers)?;
    Ok(qb)
}

/// Republish page `victim` of `corpus` from `peer` with a mutated body
/// (`salt` is the mutation's sequence number), seal and reindex.
pub fn republish(
    qb: &mut QueenBee,
    corpus: &Corpus,
    victim: usize,
    peer: u64,
    salt: u64,
    rng: &mut DetRng,
) -> QbResult<()> {
    let updated = mutate_page(&corpus.pages[victim], salt, rng);
    qb.publish(peer, AccountId(corpus.creators[victim]), &updated)?;
    qb.seal();
    qb.process_publish_events()?;
    Ok(())
}

/// `count` grounded queries (terms that occur in `corpus`) drawn with `seed`.
pub fn queries(corpus: &Corpus, seed: u64, count: usize) -> Vec<String> {
    QueryWorkload::new(corpus).generate_batch(corpus, &mut DetRng::new(seed), count)
}

/// `len` Zipf(`s`)-distributed indices into a pool of `pool_len` entries.
pub fn zipf_picks(pool_len: usize, s: f64, seed: u64, len: usize) -> Vec<usize> {
    let zipf = ZipfSampler::new(pool_len, s);
    let mut rng = DetRng::new(seed);
    (0..len).map(|_| zipf.sample(&mut rng)).collect()
}

/// A fixed pool of grounded queries replayed with Zipf popularity: the hot
/// head repeats constantly, the tail is mostly one-shot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryStream {
    /// The query pool, most popular first.
    pub pool: Vec<String>,
    /// The stream: one index into `pool` per query, in arrival order.
    pub picks: Vec<usize>,
}

impl QueryStream {
    /// Draw `pool_size` queries from `corpus` with `pool_seed`, then a
    /// `len`-long Zipf(`zipf_s`) stream over them with `stream_seed`.
    pub fn new(
        corpus: &Corpus,
        pool_seed: u64,
        pool_size: usize,
        zipf_s: f64,
        stream_seed: u64,
        len: usize,
    ) -> QueryStream {
        let pool = queries(corpus, pool_seed, pool_size);
        let picks = zipf_picks(pool.len(), zipf_s, stream_seed, len);
        QueryStream { pool, picks }
    }

    /// The query text of stream position `i`.
    pub fn query(&self, i: usize) -> &str {
        &self.pool[self.picks[i]]
    }
}

/// A constant-rate Poisson arrival trace of `secs` seconds at `qps` over a
/// 48-query Zipf pool drawn from `corpus`.
pub fn constant_trace(corpus: &Corpus, seed: u64, qps: f64, secs: u64) -> ArrivalTrace {
    ArrivalTrace::generate(
        corpus,
        &TraceConfig {
            seed,
            duration: SimDuration::from_secs(secs),
            base_qps: qps,
            shape: RateShape::Constant,
            pool_size: 48,
            ..TraceConfig::default()
        },
    )
}

/// What a run of served queries cost, summed over its responses.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Per-query end-to-end latency.
    pub latency: LatencyHistogram,
    /// RPC messages charged to the queries.
    pub messages: u64,
    /// Term shards fetched through the DHT.
    pub shard_fetches: u64,
    /// Responses recorded.
    pub answered: u64,
}

impl Tally {
    /// Account one served query.
    pub fn record(&mut self, resp: &SearchResponse) {
        self.latency.record(resp.latency);
        self.messages += resp.messages();
        self.shard_fetches += resp.shards_fetched() as u64;
        self.answered += 1;
    }
}

/// The small test configuration resized to `peers` peers, `bees` of them
/// worker bees, seeded with `seed`.
pub fn sized(peers: usize, bees: usize, seed: u64) -> QueenBeeConfig {
    let mut config = QueenBeeConfig::small();
    config.num_peers = peers;
    config.num_bees = bees;
    config.seed = seed;
    config
}

/// The open-loop fleet: 32 peers, 4 bees, 4 gossiping frontends with the
/// cache on, and admission control that degrades at 250 ms of estimated
/// sojourn and sheds at `shed_threshold`.
///
/// WAN latencies, not the test LAN: a `Fresh` query costs ~100 ms of
/// simulated round-trips, so saturation sits at a few hundred q/s instead
/// of tens of thousands and the admission thresholds are set against that
/// service time.
pub fn open_loop_fleet(seed: u64, shed_threshold: SimDuration) -> QueenBeeConfig {
    let mut config = sized(32, 4, seed);
    config.net = NetConfig::default();
    config.cache = CacheConfig::enabled();
    config.gossip = GossipConfig::enabled(4);
    config.admission = AdmissionConfig::enabled();
    config.admission.queue_capacity = 32;
    config.admission.window_size = 8;
    config.admission.max_windows_in_flight = 2;
    config.admission.degrade_threshold = SimDuration::from_millis(250);
    config.admission.shed_threshold = shed_threshold;
    config
}

/// A `frontends`-wide fleet spread over `zones` latency zones (2 ms
/// in-zone, 40 ms cross-zone links) with generous admission bounds: the
/// scenarios built on it measure *where* arrivals land after a crash, so
/// shedding must not mask the spike.
pub fn zoned_admission_fleet(seed: u64, frontends: usize, zones: usize) -> QueenBeeConfig {
    let mut config = sized(64, 6, seed);
    config.net = NetConfig::zoned(zones, 2_000, 40_000);
    config.cache = CacheConfig::enabled();
    config.gossip = GossipConfig::enabled_zoned(frontends, zones);
    config.admission = AdmissionConfig::enabled();
    config.admission.queue_capacity = 128;
    config.admission.shed_threshold = SimDuration::from_secs(5);
    config
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_streams_repeat_from_their_seeds() {
        let corpus = corpus(1, 12, 60);
        let a = QueryStream::new(&corpus, 2, 10, 1.0, 3, 50);
        assert_eq!(a, QueryStream::new(&corpus, 2, 10, 1.0, 3, 50));
        assert_eq!((a.pool.len(), a.picks.len()), (10, 50));
        assert_eq!(a.query(7), a.pool[a.picks[7]]);
        // Another stream seed draws a different stream over the same pool.
        let b = QueryStream::new(&corpus, 2, 10, 1.0, 4, 50);
        assert_eq!(a.pool, b.pool);
        assert_ne!(a.picks, b.picks);
    }

    #[test]
    fn publish_all_counts_accepted_pages_and_walks_the_publisher_range() {
        let corpus = corpus(1, 10, 60);
        let mut qb = QueenBee::new(sized(20, 3, 1)).expect("valid preset");
        let accepted = publish_all(&mut qb, &corpus, 4..7).expect("publish");
        assert!(
            accepted >= 8,
            "most generated pages should be accepted, got {accepted}"
        );
        assert_eq!(accepted, qb.chain.publish_registry().len());
        // Page i left peer 4 + i % 3: its object is pinned there.
        for (i, page) in corpus.pages.iter().enumerate() {
            let Some(record) = qb.chain.publish_registry().get(&page.name) else {
                continue;
            };
            let publisher = 4 + i as u64 % 3;
            assert!(
                qb.storage.pinned_holders(&record.cid).contains(&publisher),
                "page {i} must be pinned on its publisher, peer {publisher}"
            );
        }
    }

    #[test]
    fn every_preset_is_a_valid_configuration() {
        for config in [
            sized(20, 3, 1),
            open_loop_fleet(1, SimDuration::from_millis(800)),
            zoned_admission_fleet(1, 8, 4),
        ] {
            config.validate().expect("preset validates");
        }
    }
}

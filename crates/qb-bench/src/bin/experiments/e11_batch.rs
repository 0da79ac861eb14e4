//! E11 — batched vs sequential execution of the same Zipf(1.0) query
//! stream. A batch window plans every request first, fetches each distinct
//! missing term shard once and fans it out to every query in the window, so
//! concurrent queries sharing hot head terms collapse to one DHT round-trip.
//! The cache is disabled in both runs to isolate the cross-query sharing
//! (the cache covers *repeats over time*; batching covers *concurrency*).
//!
//! Reading the latency columns: sequential execution re-fetches hot shards
//! hundreds of times, and every fetch pins more replicas of the backing
//! object on nearby peers (the E1a popularity effect), so its p50 drifts
//! down over the stream. Batching removes exactly those repeat fetches, so
//! each window's queries wait on one colder fetch per term instead —
//! per-query p50 can sit higher while aggregate DHT traffic collapses.
//! With the query cache enabled (every production config), repeats are
//! served locally and this tradeoff disappears; what batching then adds is
//! the cross-query dedup of cold misses measured here.

use crate::{published, DOC_LEN};
use qb_bench::{f2, pct_drop, ratio_x, Table};
use qb_common::SimDuration;
use qb_index::ScoredDoc;
use qb_load::scenario::{corpus, sized, QueryStream, Tally};
use qb_queenbee::{PipelineConfig, RoutingPolicy, SearchRequest, SearchResponse};

const WINDOW: usize = 32;
const PAGES: usize = 40;
const POOL: usize = 60;
const STREAM: usize = 256;

#[derive(Default)]
struct RunStats {
    served: Tally,
    shared: u64,
    hits: Vec<Vec<ScoredDoc>>,
}

impl RunStats {
    fn record(&mut self, responses: Vec<SearchResponse>) {
        for resp in responses {
            self.served.record(&resp);
            self.shared += resp.batch_shared() as u64;
            self.hits.push(resp.hits);
        }
    }
}

pub fn run() -> Vec<Table> {
    let corpus = corpus(0xE11, PAGES, DOC_LEN);
    let stream = QueryStream::new(&corpus, 0xE11, POOL, 1.0, 0xE11F, STREAM);
    let build = || published(sized(64, 6, 0xE11), &corpus);
    let request = |i: usize| {
        SearchRequest::new(stream.query(i)).route(RoutingPolicy::HashPeer((i % 50) as u64))
    };

    // Sequential: every query is its own window of one.
    let mut seq = RunStats::default();
    let mut qb = build();
    for i in 0..STREAM {
        qb.advance_time(SimDuration::from_millis(50));
        let resp = qb.search_request(request(i)).expect("sequential query");
        seq.record(vec![resp]);
    }

    // Batched: the same stream in windows of `WINDOW` concurrent queries.
    let mut batch = RunStats::default();
    let mut qb = build();
    for start in (0..STREAM).step_by(WINDOW) {
        qb.advance_time(SimDuration::from_millis(50));
        let requests: Vec<_> = (start..(start + WINDOW).min(STREAM)).map(request).collect();
        let window = qb.search_pipelined(requests, PipelineConfig::batch(WINDOW));
        batch.record(window.expect("batch window").responses);
    }

    // Acceptance criteria, asserted so the CI smoke job catches regressions:
    // batching must save >=30% of DHT shard fetches and cut total RPC
    // messages, without changing a single result byte.
    assert_eq!(seq.hits.len(), batch.hits.len());
    for (i, (a, b)) in seq.hits.iter().zip(&batch.hits).enumerate() {
        assert_eq!(
            a,
            b,
            "E11: query {i} ('{}') must rank identically in both runs",
            stream.query(i)
        );
    }
    assert!(
        (batch.served.shard_fetches as f64) <= 0.7 * seq.served.shard_fetches as f64,
        "E11: batching must save >=30% of DHT shard fetches ({} vs {})",
        batch.served.shard_fetches,
        seq.served.shard_fetches
    );
    assert!(
        batch.served.messages < seq.served.messages,
        "E11: batching must cut total RPC messages ({} vs {})",
        batch.served.messages,
        seq.served.messages
    );

    let mut t = Table::new(
        &format!(
            "E11: batched (window {WINDOW}) vs sequential execution of one Zipf(1.0) stream \
             ({STREAM} queries, {POOL}-query pool, cache off)"
        ),
        &[
            "config",
            "p50_ms",
            "p99_ms",
            "rpc_messages",
            "dht_shard_fetches",
            "window_shared_shards",
        ],
    );
    let p50 = |r: &RunStats| r.served.latency.p50().as_millis_f64();
    let p99 = |r: &RunStats| r.served.latency.p99().as_millis_f64();
    for (label, r) in [("sequential", &seq), ("batched", &batch)] {
        t.row(&[
            &label,
            &f2(p50(r)),
            &f2(p99(r)),
            &r.served.messages,
            &r.served.shard_fetches,
            &r.shared,
        ]);
    }
    t.row(&[
        &"reduction",
        &ratio_x(p50(&seq), p50(&batch)),
        &ratio_x(p99(&seq), p99(&batch)),
        &pct_drop(seq.served.messages, batch.served.messages),
        &pct_drop(seq.served.shard_fetches, batch.served.shard_fetches),
        &"-",
    ]);
    vec![t]
}

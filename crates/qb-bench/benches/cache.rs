//! Criterion benchmark: the qb-cache tiers and the cached frontend (E9's
//! cost side) — raw tier operations, then end-to-end warm vs cold search.

use criterion::{criterion_group, criterion_main, Criterion};
use qb_bench::{build_corpus, build_engine_with, publish_corpus};
use qb_cache::{CacheConfig, EvictionPolicy, QueryCache};
use qb_common::{DetRng, SimInstant};
use qb_index::{ShardEntry, ShardPosting};
use qb_queenbee::{QueenBeeConfig, RoutingPolicy, SearchRequest};
use qb_workload::{QueryWorkload, ZipfSampler};

fn sample_shard(term: &str, docs: usize) -> ShardEntry {
    let mut s = ShardEntry::empty(term);
    s.version = 1;
    for i in 0..docs as u64 {
        s.upsert(ShardPosting {
            doc_id: i * 31 + 7,
            term_freq: (i % 7) as u32 + 1,
            doc_len: 80,
            name: format!("page/{term}/{i}"),
            version: 1,
            creator: i % 50,
        });
    }
    s
}

fn bench_tier_ops(c: &mut Criterion) {
    let now = SimInstant::ZERO;
    for (label, policy) in [
        ("lru", EvictionPolicy::Lru),
        ("sampled_lfu", EvictionPolicy::SampledLfu { sample: 5 }),
    ] {
        let mut config = CacheConfig::enabled();
        config.policy = policy;
        config.shard_capacity_bytes = 64 * 1024;
        let mut cache = QueryCache::new(config);
        let shards: Vec<ShardEntry> = (0..200)
            .map(|i| sample_shard(&format!("term{i}"), 20))
            .collect();
        for s in &shards {
            cache.store_shard(s, now);
        }
        let zipf = ZipfSampler::new(200, 1.0);
        let mut rng = DetRng::new(9);
        c.bench_function(&format!("cache/shard_lookup_zipf/{label}"), |b| {
            b.iter(|| {
                let term = format!("term{}", zipf.sample(&mut rng));
                cache.lookup_shard(&term, now, 1)
            })
        });
    }
    // One resident head-term shard (the size `score-heavy` reads), hit over
    // and over: the micro number behind the benchmark's `cache.probe_ns`. A
    // hit hands out a handle, so this must not scale with the posting count.
    let mut cache = QueryCache::new(CacheConfig::enabled());
    cache.store_shard(&sample_shard("head", 250), now);
    c.bench_function("cache/shard_hit_250_postings", |b| {
        b.iter(|| cache.lookup_shard("head", now, 1))
    });
}

fn bench_invalidation(c: &mut Criterion) {
    let now = SimInstant::ZERO;
    c.bench_function("cache/invalidate_term_with_100_dependent_queries", |b| {
        b.iter(|| {
            let mut cache = QueryCache::new(CacheConfig::enabled());
            cache.store_shard(&sample_shard("hot", 20), now);
            for i in 0..100 {
                cache.store_result(
                    &format!("hot q{i}"),
                    std::sync::Arc::default(),
                    vec![("hot".into(), 1), (format!("q{i}"), 1)],
                    now,
                );
            }
            cache.invalidate_term("hot", now)
        })
    });
}

fn bench_cached_search(c: &mut Criterion) {
    let corpus = build_corpus(11, 60);
    let workload = QueryWorkload::new(&corpus);
    let queries = workload.generate_batch(&corpus, &mut DetRng::new(11), 64);

    let mut cold_config = QueenBeeConfig::small();
    cold_config.num_peers = 48;
    cold_config.num_bees = 6;
    cold_config.seed = 11;
    let mut warm_config = cold_config.clone();
    warm_config.cache = CacheConfig::enabled();

    let mut cold = build_engine_with(cold_config);
    publish_corpus(&mut cold, &corpus);
    let mut i = 0usize;
    c.bench_function("cache/search_cache_off", |b| {
        b.iter(|| {
            i += 1;
            cold.search_request(
                SearchRequest::new(&queries[i % queries.len()])
                    .route(RoutingPolicy::HashPeer((i % 40) as u64)),
            )
        })
    });

    let mut warm = build_engine_with(warm_config);
    publish_corpus(&mut warm, &corpus);
    // Pre-warm every query once so the measured loop sees the steady state.
    for (i, q) in queries.iter().enumerate() {
        let _ = warm
            .search_request(SearchRequest::new(q).route(RoutingPolicy::HashPeer((i % 40) as u64)));
    }
    let mut j = 0usize;
    c.bench_function("cache/search_cache_warm", |b| {
        b.iter(|| {
            j += 1;
            warm.search_request(
                SearchRequest::new(&queries[j % queries.len()])
                    .route(RoutingPolicy::HashPeer((j % 40) as u64)),
            )
        })
    });
}

criterion_group!(
    benches,
    bench_tier_ops,
    bench_invalidation,
    bench_cached_search
);
criterion_main!(benches);

//! Criterion benchmark: end-to-end QueenBee query evaluation (E1b's cost side).

use criterion::{criterion_group, criterion_main, Criterion};
use qb_bench::{build_corpus, build_engine, publish_corpus};
use qb_common::DetRng;
use qb_queenbee::{RoutingPolicy, SearchRequest};
use qb_workload::QueryWorkload;

fn bench_query(c: &mut Criterion) {
    let corpus = build_corpus(3, 60);
    let mut qb = build_engine(48, 6, 3);
    publish_corpus(&mut qb, &corpus);
    qb.run_rank_round().unwrap();
    let workload = QueryWorkload::new(&corpus);
    let queries = workload.generate_batch(&corpus, &mut DetRng::new(3), 64);
    let mut i = 0usize;
    c.bench_function("query_latency/queenbee_search", |b| {
        b.iter(|| {
            i += 1;
            qb.search_request(
                SearchRequest::new(&queries[i % queries.len()])
                    .route(RoutingPolicy::HashPeer((i % 40) as u64)),
            )
        })
    });
}

criterion_group!(benches, bench_query);
criterion_main!(benches);

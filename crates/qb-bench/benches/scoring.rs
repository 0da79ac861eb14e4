//! Criterion benchmark: BM25 / TF-IDF scoring and local query evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use qb_bench::build_corpus;
use qb_index::{
    intersect_and_score, search, Analyzer, Bm25, IndexStats, InvertedIndex, Query, QueryMode,
    Scorer, ShardEntry, ShardPosting, TfIdf,
};

fn bench_scoring(c: &mut Criterion) {
    let s = Bm25::default();
    // 999 term frequencies × 11 document frequencies = 10 989 calls.
    c.bench_function("scoring/bm25_11k_calls", |b| {
        b.iter(|| {
            let mut acc = 0.0;
            for tf in 1..1_000u32 {
                for df in (1..1_000usize).step_by(97) {
                    acc += s.score(tf, 150, 120.0, df, 100_000);
                }
            }
            acc
        })
    });
    c.bench_function("scoring/tfidf_calls", |b| {
        let t = TfIdf;
        b.iter(|| {
            (1..10_000u32)
                .map(|tf| t.score(tf, 100, 100.0, 50, 100_000))
                .sum::<f64>()
        })
    });
    // Full local query evaluation over a generated corpus.
    let corpus = build_corpus(7, 300);
    let analyzer = Analyzer::new();
    let mut index = InvertedIndex::new();
    for (i, p) in corpus.pages.iter().enumerate() {
        index.index_text(&analyzer, &p.name, 1, corpus.creators[i], &p.text());
    }
    let query = Query::parse(
        &analyzer,
        &corpus.pages[0]
            .body
            .split_whitespace()
            .take(2)
            .collect::<Vec<_>>()
            .join(" "),
        QueryMode::And,
    )
    .unwrap();
    c.bench_function("scoring/local_query_300_docs", |b| {
        b.iter(|| search(&index, &query, &Bm25::default(), None, 0.0, 10))
    });
}

/// The serving kernel on three head-term shards of a 300-page collection
/// (~250, ~200 and ~150 postings, mostly overlapping): the micro number
/// behind the benchmark's `executor.score_ns_per_candidate` on
/// `score-heavy`.
fn bench_kernel(c: &mut Criterion) {
    let shard = |term: &str, skip: u64| ShardEntry {
        term: term.to_string(),
        version: 1,
        postings: (0..300u64)
            .filter(|doc| doc % skip != 0)
            .map(|doc| ShardPosting {
                doc_id: doc * 31 + 7,
                term_freq: (doc % 5) as u32 + 1,
                doc_len: 80 + (doc % 90) as u32,
                name: format!("page/{doc}"),
                version: 1,
                creator: doc % 50,
            })
            .collect(),
    };
    let shards = [shard("alpha", 6), shard("beta", 3), shard("gamma", 2)];
    let stats = IndexStats {
        num_docs: 300,
        total_len: 300 * 120,
        version: 1,
    };
    let rank_of = |name: &str| name.len() as f64 * 1e-4;
    c.bench_function("kernel/3_head_terms", |b| {
        b.iter(|| intersect_and_score(&shards, &stats, rank_of, 0.3, None))
    });
}

criterion_group!(benches, bench_scoring, bench_kernel);
criterion_main!(benches);

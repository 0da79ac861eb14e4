//! Criterion benchmark: BM25 / TF-IDF scoring and local query evaluation.

use criterion::{criterion_group, criterion_main, Criterion};
use qb_bench::build_corpus;
use qb_index::{search, Analyzer, Bm25, InvertedIndex, Query, QueryMode, Scorer, TfIdf};

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

criterion_group!(benches, bench_scoring);
criterion_main!(benches);

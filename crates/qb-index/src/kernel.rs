//! The serving kernel: what the query frontend does with the shards of a
//! query's terms — "intersecting the matched inverted lists", scoring and
//! ranking — in one place, walking the shards' doc-id-sorted postings
//! directly.
//!
//! [`crate::query::search`] evaluates the same query semantics over a local
//! [`crate::InvertedIndex`]; it stays separate because it is the reference
//! the baselines and the benchmark's oracle compare this kernel against.

use crate::query::ScoredDoc;
use crate::scorer::{blend_with_rank, Bm25};
use crate::shard::{IndexStats, ShardEntry, ShardPosting};
use std::borrow::Borrow;

/// Advance `cursor` to the first posting at or past it whose doc id is
/// `>= doc_id` — galloping, so a short candidate list skips through a long
/// shard — and return that posting when it is `doc_id`'s own.
fn advance<'a>(
    postings: &'a [ShardPosting],
    cursor: &mut usize,
    doc_id: u64,
) -> Option<&'a ShardPosting> {
    let (mut lo, mut hi, mut step) = (*cursor, *cursor, 1usize);
    while hi < postings.len() && postings[hi].doc_id < doc_id {
        lo = hi + 1;
        hi += step;
        step *= 2;
    }
    let hi = hi.min(postings.len());
    *cursor = lo + postings[lo..hi].partition_point(|p| p.doc_id < doc_id);
    postings.get(*cursor).filter(|p| p.doc_id == doc_id)
}

/// One query term's shard inside a kernel call, with the per-shard state
/// the call keeps: where the caller listed it, how far scoring has walked
/// it, and its idf (one `ln` per shard, not one per posting).
struct List<'a> {
    given: usize,
    shard: &'a ShardEntry,
    cursor: usize,
    idf: f64,
}

/// Intersect the query terms' shards (falling back to the union when the
/// conjunction is empty, so multi-term queries degrade gracefully), score
/// each candidate with BM25 summed over the shards in the order given,
/// blend with PageRank and rank by `(score desc, doc id asc)`. Returns the
/// **full** sorted list — pagination is the caller's job — plus the number
/// of candidates scored.
///
/// Shards must hold their postings strictly ascending by doc id
/// ([`ShardEntry::upsert`] maintains this). A document's metadata is taken
/// from the last shard, in the order given, that holds it.
pub fn intersect_and_score<S: Borrow<ShardEntry>>(
    shards: &[S],
    stats: &IndexStats,
    rank_of: impl Fn(&str) -> f64,
    rank_weight: f64,
) -> (Vec<ScoredDoc>, usize) {
    // Intersect smallest-first (stable) so the candidate set shrinks
    // fastest.
    let scorer = Bm25::default();
    let num_docs = stats.num_docs.max(1) as usize;
    let mut lists: Vec<List<'_>> = shards
        .iter()
        .enumerate()
        .map(|(given, shard)| {
            let shard: &ShardEntry = shard.borrow();
            List {
                given,
                shard,
                cursor: 0,
                idf: scorer.idf(shard.doc_freq(), num_docs),
            }
        })
        .collect();
    lists.sort_by_key(|l| l.shard.postings.len());

    let mut candidates: Vec<u64> = Vec::new();
    for (i, shard) in lists.iter().map(|l| l.shard).enumerate() {
        if i == 0 {
            candidates = shard.postings.iter().map(|p| p.doc_id).collect();
        } else {
            let mut cursor = 0;
            candidates.retain(|&doc_id| advance(&shard.postings, &mut cursor, doc_id).is_some());
        }
    }
    if candidates.is_empty() && lists.len() > 1 {
        candidates = lists
            .iter()
            .flat_map(|l| l.shard.postings.iter().map(|p| p.doc_id))
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
    }

    // Score in the order given (the float sum and the metadata choice
    // depend on it). Candidates ascend, so each shard's cursor walks its
    // list once. A candidate's key is its score and the posting whose
    // metadata it takes.
    lists.sort_unstable_by_key(|l| l.given);
    let avg_len = stats.avg_len();
    let score = |doc_id: &u64| {
        let mut relevance = 0.0;
        let mut meta: Option<&ShardPosting> = None;
        for l in &mut lists {
            if let Some(p) = advance(&l.shard.postings, &mut l.cursor, *doc_id) {
                relevance += scorer.score_with_idf(l.idf, p.term_freq, p.doc_len, avg_len);
                meta = Some(p);
            }
        }
        let meta = meta?;
        let blended = blend_with_rank(relevance, rank_of(&meta.name), rank_weight);
        Some((blended, meta))
    };
    let materialise = |(score, meta): (f64, &ShardPosting)| ScoredDoc {
        doc_id: meta.doc_id,
        name: meta.name.clone(),
        score,
        version: meta.version,
        creator: meta.creator,
    };
    let mut results: Vec<ScoredDoc> = Vec::with_capacity(candidates.len());
    if candidates.len() <= 1 {
        // Nothing to rank (the common single rare term): no key buffer.
        results.extend(candidates.iter().filter_map(score).map(materialise));
    } else {
        // Rank the 16-byte keys, then build each document once, in rank
        // order.
        let mut ranked: Vec<(f64, &ShardPosting)> = Vec::with_capacity(candidates.len());
        ranked.extend(candidates.iter().filter_map(score));
        ranked.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.doc_id.cmp(&b.1.doc_id))
        });
        results.extend(ranked.into_iter().map(materialise));
    }
    let scored = results.len();
    (results, scored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::borrow::Cow;
    use std::collections::{BTreeMap, BTreeSet, HashSet};
    use std::sync::Arc;

    /// The same query semantics written the obvious way: hash-set
    /// conjunction, union fallback, per-candidate binary search, relevance
    /// summed over the shards in the order given.
    fn reference(
        shards: &[ShardEntry],
        stats: &IndexStats,
        rank_of: impl Fn(&str) -> f64,
        rank_weight: f64,
    ) -> (Vec<ScoredDoc>, usize) {
        let sets: Vec<HashSet<u64>> = shards
            .iter()
            .map(|s| s.postings.iter().map(|p| p.doc_id).collect())
            .collect();
        let mut candidates: BTreeSet<u64> = sets[0]
            .iter()
            .copied()
            .filter(|d| sets.iter().all(|s| s.contains(d)))
            .collect();
        if candidates.is_empty() && shards.len() > 1 {
            candidates = sets.iter().flatten().copied().collect();
        }
        let scorer = Bm25::default();
        let num_docs = stats.num_docs.max(1) as usize;
        let mut results = Vec::new();
        for doc_id in candidates {
            let mut relevance = 0.0;
            let mut meta = None;
            for shard in shards {
                if let Some(p) = shard.get(doc_id) {
                    relevance += scorer.score(
                        p.term_freq,
                        p.doc_len,
                        stats.avg_len(),
                        shard.doc_freq(),
                        num_docs,
                    );
                    meta = Some(p);
                }
            }
            let meta = meta.expect("candidates come from the shards");
            results.push(ScoredDoc {
                doc_id,
                name: meta.name.clone(),
                score: blend_with_rank(relevance, rank_of(&meta.name), rank_weight),
                version: meta.version,
                creator: meta.creator,
            });
        }
        results.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.doc_id.cmp(&b.doc_id))
        });
        let scored = results.len();
        (results, scored)
    }

    /// Every field, with the score compared bit for bit.
    fn bits(results: &[ScoredDoc]) -> Vec<(u64, &str, u64, u64, u64)> {
        results
            .iter()
            .map(|r| {
                (
                    r.doc_id,
                    r.name.as_str(),
                    r.score.to_bits(),
                    r.version,
                    r.creator,
                )
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn kernel_matches_the_naive_reference(
            // Per shard: doc id → (term freq, doc len, metadata variant).
            // Ids come from a small range so shards overlap, stay disjoint
            // or come out empty; the variant makes two shards disagree on a
            // shared document's name and version.
            lists in proptest::collection::vec(
                proptest::collection::btree_map(0u64..64, (1u32..6, 1u32..200, 0u64..3), 0..40),
                1..5,
            ),
            stats in (0u64..50, 0u64..5_000),
            rank_tenths in 0u32..11,
        ) {
            let shards: Vec<ShardEntry> = lists
                .iter()
                .enumerate()
                .map(|(i, list): (usize, &BTreeMap<u64, (u32, u32, u64)>)| ShardEntry {
                    term: format!("t{i}"),
                    version: 1 + i as u64,
                    postings: list
                        .iter()
                        .map(|(&doc_id, &(term_freq, doc_len, variant))| ShardPosting {
                            doc_id,
                            term_freq,
                            doc_len,
                            name: format!("page/{doc_id}/{variant}"),
                            version: variant,
                            creator: i as u64,
                        })
                        .collect(),
                })
                .collect();
            let stats = IndexStats { num_docs: stats.0, total_len: stats.1, version: 1 };
            let rank_of = |name: &str| f64::from(name.bytes().map(u32::from).sum::<u32>() % 97) / 97.0;
            let rank_weight = f64::from(rank_tenths) / 10.0;

            let (expected, expected_scored) = reference(&shards, &stats, rank_of, rank_weight);
            let (plain, plain_scored) =
                intersect_and_score(&shards, &stats, rank_of, rank_weight);
            prop_assert_eq!(bits(&plain), bits(&expected));
            prop_assert_eq!(plain_scored, expected_scored);

            // The serving path hands the kernel shared handles and borrows
            // of them, never `ShardEntry` values: same answer through both.
            let handles: Vec<Arc<ShardEntry>> = shards.iter().cloned().map(Arc::new).collect();
            let (shared, shared_scored) =
                intersect_and_score(&handles, &stats, rank_of, rank_weight);
            prop_assert_eq!(bits(&shared), bits(&expected));
            prop_assert_eq!(shared_scored, expected_scored);
            let cows: Vec<Cow<'_, ShardEntry>> = handles
                .iter()
                .enumerate()
                .map(|(i, h)| match i % 2 {
                    0 => Cow::Borrowed(&**h),
                    _ => Cow::Owned(shards[i].clone()),
                })
                .collect();
            let (lent, lent_scored) =
                intersect_and_score(&cows, &stats, rank_of, rank_weight);
            prop_assert_eq!(bits(&lent), bits(&expected));
            prop_assert_eq!(lent_scored, expected_scored);
        }
    }

    #[test]
    fn advance_gallops_to_the_first_posting_at_or_past_a_doc_id() {
        let postings: Vec<ShardPosting> = (0..100u64)
            .map(|i| ShardPosting {
                doc_id: i * 3,
                term_freq: 1,
                doc_len: 1,
                name: String::new(),
                version: 1,
                creator: 0,
            })
            .collect();
        for from in [0, 1, 50, 99, 100] {
            for doc_id in [0, 1, 3, 149, 150, 296, 297, 298, 1_000] {
                let expected = postings[from..].partition_point(|p| p.doc_id < doc_id) + from;
                let mut cursor = from;
                let found = advance(&postings, &mut cursor, doc_id);
                assert_eq!(cursor, expected, "{from} {doc_id}");
                let at_cursor = postings.get(expected).filter(|p| p.doc_id == doc_id);
                assert_eq!(found, at_cursor, "{from} {doc_id}");
            }
        }
    }
}

//! The serving kernel: what the query frontend does with the shards of a
//! query's terms — "intersecting the matched inverted lists", scoring and
//! ranking — in one place, walking the shards' doc-id-sorted postings
//! directly.
//!
//! The kernel computes; it copies only what its caller keeps. [`rank`]
//! returns a [`Ranked`]: every candidate's 16-byte key — its score and the
//! posting whose metadata it takes, borrowed from the shards. A response
//! asks it for one [`Ranked::page`] and owns just those documents; a tier
//! that keeps whole lists asks for [`Ranked::list`].
//!
//! [`crate::query::search`] evaluates the same query semantics over a local
//! [`crate::InvertedIndex`]; it stays separate because it is the reference
//! the baselines and the benchmark's oracle compare this kernel against.

use crate::query::ScoredDoc;
use crate::scorer::{blend_with_component, rank_component, Bm25};
use crate::shard::{IndexStats, ShardEntry, ShardPosting};
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::sync::Arc;

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
/// the call keeps: how far scoring has walked it, and its idf (one `ln` per
/// shard, not one per posting).
struct List<'a> {
    shard: &'a ShardEntry,
    cursor: usize,
    idf: f64,
}

/// A candidate while it is ranked: its blended score and the posting whose
/// metadata it takes.
type Key<'a> = (f64, &'a ShardPosting);

/// The ranking order: score descending, doc id ascending. Candidates have
/// distinct doc ids and finite scores, so the order is total and every
/// sort or selection under it agrees.
fn by_rank(a: &Key<'_>, b: &Key<'_>) -> Ordering {
    b.0.partial_cmp(&a.0)
        .unwrap_or(Ordering::Equal)
        .then_with(|| a.1.doc_id.cmp(&b.1.doc_id))
}

fn materialise(&(score, meta): &Key<'_>) -> ScoredDoc {
    ScoredDoc {
        doc_id: meta.doc_id,
        name: String::from(&*meta.name),
        score,
        version: meta.version,
        creator: meta.creator,
    }
}

/// Slice the requested page out of a full ranked list.
pub fn paginate(full: &[ScoredDoc], page: usize, top_k: usize) -> Vec<ScoredDoc> {
    full[page_bounds(full.len(), page, top_k)].to_vec()
}

fn page_bounds(len: usize, page: usize, top_k: usize) -> std::ops::Range<usize> {
    let start = page.saturating_mul(top_k).min(len);
    start..start.saturating_add(top_k).min(len)
}

/// The scored candidates of a query, in no particular order.
enum Keys<'a> {
    /// At most one candidate (the common single rare term): nothing to
    /// rank, no key buffer.
    AtMostOne(Option<Key<'a>>),
    Many(Vec<Key<'a>>),
}

impl<'a> Keys<'a> {
    fn as_slice(&self) -> &[Key<'a>] {
        match self {
            Keys::AtMostOne(key) => key.as_slice(),
            Keys::Many(keys) => keys,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [Key<'a>] {
        match self {
            Keys::AtMostOne(key) => key.as_mut_slice(),
            Keys::Many(keys) => keys,
        }
    }
}

/// Rank the keys, then build each document once, in rank order.
fn build(keys: &mut [Key<'_>]) -> Vec<ScoredDoc> {
    keys.sort_by(by_rank);
    keys.iter().map(materialise).collect()
}

/// What a [`Ranked`] holds: the keys, or the whole list once something
/// asked for it.
enum State<'a> {
    Keys(Keys<'a>),
    List(Arc<Vec<ScoredDoc>>),
}

/// The outcome of [`rank`]: every candidate of a query, scored. It borrows
/// the shards it was computed from and owns no document until asked for
/// one.
pub struct Ranked<'a>(State<'a>);

impl Ranked<'_> {
    /// Candidates scored — the query's total matches.
    pub fn len(&self) -> usize {
        match &self.0 {
            State::Keys(keys) => keys.as_slice().len(),
            State::List(list) => list.len(),
        }
    }

    /// True when nothing matched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the whole list exists.
    pub fn has_list(&self) -> bool {
        matches!(self.0, State::List(_))
    }

    /// [`ScoredDoc::bytes`] summed over the whole list, without building
    /// it.
    pub fn list_bytes(&self) -> usize {
        match &self.0 {
            State::Keys(keys) => {
                let names = keys.as_slice().iter().map(|(_, meta)| &meta.name);
                names.map(|name| ScoredDoc::bytes_named(name)).sum()
            }
            State::List(list) => list.iter().map(ScoredDoc::bytes).sum(),
        }
    }

    /// One page of hits, in rank order: `paginate(&self.list(), page,
    /// top_k)` on every field. Without the list, only the candidates up to
    /// the page's end are put in order and only the page's documents are
    /// built.
    pub fn page(&mut self, page: usize, top_k: usize) -> Vec<ScoredDoc> {
        let keys = match &mut self.0 {
            State::Keys(keys) => keys.as_mut_slice(),
            State::List(list) => return paginate(list, page, top_k),
        };
        let bounds = page_bounds(keys.len(), page, top_k);
        if bounds.is_empty() {
            return Vec::new();
        }
        if bounds.end < keys.len() {
            keys.select_nth_unstable_by(bounds.end, by_rank);
        }
        keys[..bounds.end].sort_unstable_by(by_rank);
        keys[bounds].iter().map(materialise).collect()
    }

    /// The whole ranked list, built once: later calls and later pages share
    /// it.
    pub fn list(&mut self) -> Arc<Vec<ScoredDoc>> {
        let list = match &mut self.0 {
            State::Keys(keys) => Arc::new(build(keys.as_mut_slice())),
            State::List(list) => return Arc::clone(list),
        };
        self.0 = State::List(Arc::clone(&list));
        list
    }
}

/// Intersect the query terms' shards (falling back to the union when the
/// conjunction is empty, so multi-term queries degrade gracefully), score
/// each candidate with BM25 summed over the shards in term order and blend
/// it with `component_of` its page (the page's [`rank_component`]). The
/// [`Ranked`] candidates order by `(score desc, doc id asc)`.
///
/// Shards must hold their postings strictly ascending by doc id
/// ([`ShardEntry::upsert`] maintains this). A document's metadata is taken
/// from the last shard, in term order, that holds it. The order the shards
/// are given in changes nothing: a permuted query — which the result tier
/// files under the same sorted-term key — scores bit for bit the same.
pub fn rank<'a, S: Borrow<ShardEntry>>(
    shards: &'a [S],
    stats: &IndexStats,
    component_of: impl Fn(&ShardPosting) -> f64,
    rank_weight: f64,
) -> Ranked<'a> {
    Ranked(State::Keys(score(shards, stats, component_of, rank_weight)))
}

fn score<'a, S: Borrow<ShardEntry>>(
    shards: &'a [S],
    stats: &IndexStats,
    component_of: impl Fn(&ShardPosting) -> f64,
    rank_weight: f64,
) -> Keys<'a> {
    // Intersect smallest-first (stable) so the candidate set shrinks
    // fastest.
    let scorer = Bm25::default();
    let num_docs = stats.num_docs.max(1) as usize;
    let mut lists: Vec<List<'a>> = shards
        .iter()
        .map(|shard| {
            let shard: &ShardEntry = shard.borrow();
            List {
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

    // Score in term order (the float sum and the metadata choice depend on
    // the order; the query's own order must not). Candidates ascend, so
    // each shard's cursor walks its list once.
    lists.sort_by(|a, b| a.shard.term.cmp(&b.shard.term));
    let avg_len = stats.avg_len();
    let score = |doc_id: &u64| {
        let mut relevance = 0.0;
        let mut meta: Option<&'a ShardPosting> = None;
        for l in &mut lists {
            if let Some(p) = advance(&l.shard.postings, &mut l.cursor, *doc_id) {
                relevance += scorer.score_with_idf(l.idf, p.term_freq, p.doc_len, avg_len);
                meta = Some(p);
            }
        }
        let meta = meta?;
        let blended = blend_with_component(relevance, component_of(meta), rank_weight);
        Some((blended, meta))
    };
    if candidates.len() <= 1 {
        Keys::AtMostOne(candidates.first().and_then(score))
    } else {
        let mut keys: Vec<Key<'a>> = Vec::with_capacity(candidates.len());
        keys.extend(candidates.iter().filter_map(score));
        Keys::Many(keys)
    }
}

/// [`rank`] with the whole list built and the page rank looked up by name:
/// the one-call form the reference tests use, and the benchmark's scoring
/// probe through its re-export `qb_queenbee::query::executor` (the engine
/// serves through [`rank`]). Returns the list and the number of candidates
/// scored.
pub fn intersect_and_score<S: Borrow<ShardEntry>>(
    shards: &[S],
    stats: &IndexStats,
    rank_of: impl Fn(&str) -> f64,
    rank_weight: f64,
) -> (Vec<ScoredDoc>, usize) {
    let component_of = |p: &ShardPosting| rank_component(rank_of(&p.name));
    let results = build(score(shards, stats, component_of, rank_weight).as_mut_slice());
    let scored = results.len();
    (results, scored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::blend_with_rank;
    use proptest::prelude::*;
    use std::borrow::Cow;
    use std::collections::{BTreeMap, BTreeSet, HashSet};

    /// The same query semantics written the obvious way: hash-set
    /// conjunction, union fallback, per-candidate binary search, relevance
    /// summed over the shards in term order.
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
        let mut in_term_order: Vec<&ShardEntry> = shards.iter().collect();
        in_term_order.sort_by(|a, b| a.term.cmp(&b.term));
        let mut results = Vec::new();
        for doc_id in candidates {
            let mut relevance = 0.0;
            let mut meta = None;
            for &shard in &in_term_order {
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
                name: String::from(&*meta.name),
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
            // One case in three flattens every posting and rank, so whole
            // runs of candidates tie on score and order by doc id alone.
            flat in 0u8..3,
            page_pick in 0usize..7,
            top_k_pick in 0usize..6,
        ) {
            let flat = flat == 0;
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
                            term_freq: if flat { 1 } else { term_freq },
                            doc_len: if flat { 50 } else { doc_len },
                            name: format!("page/{doc_id}/{variant}").into(),
                            version: variant,
                            creator: i as u64,
                        })
                        .collect(),
                })
                .collect();
            let stats = IndexStats { num_docs: stats.0, total_len: stats.1, version: 1 };
            let rank_of = |name: &str| match flat {
                true => 0.25,
                false => f64::from(name.bytes().map(u32::from).sum::<u32>() % 97) / 97.0,
            };
            let rank_weight = f64::from(rank_tenths) / 10.0;

            let (expected, expected_scored) = reference(&shards, &stats, rank_of, rank_weight);
            let (plain, plain_scored) =
                intersect_and_score(&shards, &stats, rank_of, rank_weight);
            prop_assert_eq!(bits(&plain), bits(&expected));
            prop_assert_eq!(plain_scored, expected_scored);

            // Term order, not the order given, fixes the sum and the
            // metadata: the shards reversed rank bit for bit the same.
            let reversed: Vec<&ShardEntry> = shards.iter().rev().collect();
            let (permuted, _) = intersect_and_score(&reversed, &stats, rank_of, rank_weight);
            prop_assert_eq!(bits(&permuted), bits(&expected));

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

            // The split: a `Ranked` knows the list's length and bytes
            // without building it, and any page of it — before the list
            // exists, whatever earlier pages left the keys in, and after —
            // is that slice of the reference.
            let page = [0, 1, 2, 3, 7, 1_000, usize::MAX][page_pick];
            let top_k = [0, 1, 2, 5, 64, usize::MAX][top_k_pick];
            let expected_bytes: usize = expected.iter().map(ScoredDoc::bytes).sum();
            let expected_page = paginate(&expected, page, top_k);
            let component_of = |p: &ShardPosting| rank_component(rank_of(&p.name));
            let mut ranked = rank(&handles, &stats, component_of, rank_weight);
            prop_assert_eq!(ranked.len(), expected.len());
            prop_assert_eq!(ranked.is_empty(), expected.is_empty());
            prop_assert_eq!(ranked.list_bytes(), expected_bytes);
            prop_assert_eq!(bits(&ranked.page(page, top_k)), bits(&expected_page));
            prop_assert_eq!(bits(&ranked.page(0, 3)), bits(&paginate(&expected, 0, 3)));
            prop_assert_eq!(bits(&ranked.page(page, top_k)), bits(&expected_page));
            prop_assert!(!ranked.has_list(), "a page builds only itself");
            let list = ranked.list();
            prop_assert_eq!(bits(&list), bits(&expected));
            prop_assert!(ranked.has_list() && Arc::ptr_eq(&list, &ranked.list()), "built once");
            prop_assert_eq!(ranked.len(), expected.len());
            prop_assert_eq!(ranked.list_bytes(), expected_bytes);
            prop_assert_eq!(bits(&ranked.page(page, top_k)), bits(&expected_page));
        }
    }

    #[test]
    fn advance_gallops_to_the_first_posting_at_or_past_a_doc_id() {
        let postings: Vec<ShardPosting> = (0..100u64)
            .map(|i| ShardPosting {
                doc_id: i * 3,
                term_freq: 1,
                doc_len: 1,
                name: "".into(),
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

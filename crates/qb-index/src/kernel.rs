//! The serving kernel: what the query frontend does with the shards of a
//! query's terms — "intersecting the matched inverted lists", scoring and
//! ranking — in one place, walking the shards' doc-id-sorted postings
//! directly.
//!
//! One walk intersects and scores. The shortest list leads; for each of
//! its postings the other lists' cursors gallop forward to that doc id,
//! and a document every list holds is scored right there, from the
//! postings the walk just found — no candidate list, no second pass. Only
//! an empty conjunction of two or more terms walks again: the union
//! fallback collects every doc id and scores each from cursors reset to
//! the start.
//!
//! A shard may come with its [`Impacts`](crate::Impacts) memo's
//! [`ShardImpacts`]: each posting's BM25 term score and rank component,
//! computed with this kernel's expressions under the call's statistics and
//! `component_of`. The walk and the union fallback then read
//! `impacts[cursor]` where they would evaluate BM25 and call
//! `component_of`; a shard without them scores as it always did. Either
//! way every score is bit for bit the same.
//!
//! The kernel computes; it copies only what its caller keeps. [`rank`]
//! returns a [`Ranked`]: every candidate's 16-byte key — its score and the
//! posting whose metadata it takes, borrowed from the shards. A response
//! asks it for one [`Ranked::page`], which picks the keys up to the page's
//! end with a bounded heap inside the key buffer and owns just the page's
//! documents; a tier that keeps whole lists asks for [`Ranked::list`].
//! Nor does it allocate what it empties again: the per-shard table a walk
//! moves through and the key buffer come from a [`RankScratch`] the caller
//! keeps, and go back to it.
//!
//! [`crate::query::search`] evaluates the same query semantics over a local
//! [`crate::InvertedIndex`]; it stays separate because it is the reference
//! the baselines and the benchmark's oracle compare this kernel against.

use crate::impacts::{Impact, ShardImpacts};
use crate::query::ScoredDoc;
use crate::scorer::{blend_with_component, rank_component, Bm25};
use crate::shard::{IndexStats, ShardEntry, ShardPosting};
use qb_common::recycle;
use std::borrow::Borrow;
use std::cmp::Ordering;
use std::sync::Arc;

/// Advance `cursor` to the first posting at or past it whose doc id is
/// `>= doc_id` — galloping, so a short lead list skips through a long
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
/// the call keeps: how far the walk has gone through it — after a match,
/// the cursor is on the document's own posting — its idf (one `ln` per
/// shard, not one per posting) and its impacts, when the caller has them.
struct List<'a> {
    shard: &'a ShardEntry,
    cursor: usize,
    idf: f64,
    impacts: Option<&'a [Impact]>,
}

impl<'a> List<'a> {
    /// The BM25 term score of the posting under the cursor.
    fn bm25(&self, scorer: &Bm25, avg_len: f64) -> f64 {
        match self.impacts {
            Some(impacts) => impacts[self.cursor].bm25,
            None => {
                let p = &self.shard.postings[self.cursor];
                scorer.score_with_idf(self.idf, p.term_freq, p.doc_len, avg_len)
            }
        }
    }

    /// The posting under the cursor and its rank component.
    fn meta(&self, component_of: impl Fn(&ShardPosting) -> f64) -> (&'a ShardPosting, f64) {
        let shard: &'a ShardEntry = self.shard;
        let meta = &shard.postings[self.cursor];
        match self.impacts {
            Some(impacts) => (meta, impacts[self.cursor].component),
            None => (meta, component_of(meta)),
        }
    }
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
        name: Arc::clone(&meta.name),
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

/// The lists a kernel call fills and empties, kept by a caller that ranks
/// often so a call allocates neither: the per-shard table the walk moves
/// through, and the key buffer a [`Ranked`] holds until the caller hands it
/// back ([`Ranked::recycle`]). Both are empty between calls.
#[derive(Default)]
pub struct RankScratch {
    lists: Vec<List<'static>>,
    keys: Vec<Key<'static>>,
}

impl RankScratch {
    /// Whether both lists are empty, as they are between calls.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty() && self.keys.is_empty()
    }
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

    /// Add a key; when the second one arrives the buffer is taken from
    /// `spare`, with room for at most `bound` keys in all.
    fn push(&mut self, key: Key<'a>, bound: usize, spare: &mut Vec<Key<'static>>) {
        match self {
            Keys::AtMostOne(None) => *self = Keys::AtMostOne(Some(key)),
            Keys::AtMostOne(Some(first)) => {
                let mut keys = recycle(std::mem::take(spare));
                keys.reserve_exact(bound);
                keys.extend([*first, key]);
                *self = Keys::Many(keys);
            }
            Keys::Many(keys) => keys.push(key),
        }
    }
}

/// Put the `end` best keys at the front, in rank order. The front is kept
/// as a heap with the worst of its keys on top; a later key enters only if
/// it ranks better than that top. Then the front is sorted. `by_rank` is a
/// total order, so the keys picked and their order are exactly a full
/// sort's first `end`; nothing is allocated.
fn select_best(keys: &mut [Key<'_>], end: usize) {
    if 0 < end && end < keys.len() {
        let (best, rest) = keys.split_at_mut(end);
        for at in (0..end / 2).rev() {
            sift_down(best, at);
        }
        for key in rest {
            if by_rank(key, &best[0]) == Ordering::Less {
                std::mem::swap(key, &mut best[0]);
                sift_down(best, 0);
            }
        }
    }
    keys[..end].sort_unstable_by(by_rank);
}

/// Move the key at `at` down `heap` until no child ranks worse than its
/// parent.
fn sift_down(heap: &mut [Key<'_>], mut at: usize) {
    loop {
        let mut worst = at;
        for child in [2 * at + 1, 2 * at + 2] {
            if child < heap.len() && by_rank(&heap[child], &heap[worst]) == Ordering::Greater {
                worst = child;
            }
        }
        if worst == at {
            return;
        }
        heap.swap(at, worst);
        at = worst;
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
    /// top_k)` on every field. Without the list, the keys up to the page's
    /// end are picked with a bounded heap in the key buffer and sorted,
    /// and only the page's documents are built.
    pub fn page(&mut self, page: usize, top_k: usize) -> Vec<ScoredDoc> {
        let keys = match &mut self.0 {
            State::Keys(keys) => keys.as_mut_slice(),
            State::List(list) => return paginate(list, page, top_k),
        };
        let bounds = page_bounds(keys.len(), page, top_k);
        if bounds.is_empty() {
            return Vec::new();
        }
        select_best(keys, bounds.end);
        keys[bounds].iter().map(materialise).collect()
    }

    /// Hand the key buffer back to the `scratch` the ranking took it from.
    pub fn recycle(self, scratch: &mut RankScratch) {
        if let State::Keys(Keys::Many(keys)) = self.0 {
            scratch.keys = recycle(keys);
        }
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

impl From<Arc<Vec<ScoredDoc>>> for Ranked<'_> {
    /// A whole list kept from an earlier [`Ranked::list`]: it pages and
    /// hands itself out as the ranking it came from did.
    fn from(list: Arc<Vec<ScoredDoc>>) -> Self {
        Ranked(State::List(list))
    }
}

/// Intersect the query terms' shards (falling back to the union when the
/// conjunction is empty, so multi-term queries degrade gracefully), score
/// each candidate with BM25 summed over the shards in term order and blend
/// it with `component_of` its page (the page's [`rank_component`]). The
/// [`Ranked`] candidates order by `(score desc, doc id asc)`.
///
/// Each shard comes with its impacts or `None`. Impacts must be what
/// [`Impacts::lookup`](crate::Impacts::lookup) builds for that shard under
/// `stats` and this `component_of`: one per posting, in posting order.
///
/// One walk does the intersecting and the scoring: the shortest shard
/// leads, the others gallop to each of its doc ids, and a document all of
/// them hold is scored from the postings the walk found. Only the union
/// fallback walks again.
///
/// Shards must hold their postings strictly ascending by doc id
/// ([`ShardEntry::upsert`] maintains this). A document's metadata is taken
/// from the last shard, in term order, that holds it. The order the shards
/// are given in changes nothing: a permuted query — which the result tier
/// files under the same sorted-term key — scores bit for bit the same.
///
/// The walk's table and the key buffer come from `scratch`: the table goes
/// back before this returns, the key buffer when the caller hands the
/// [`Ranked`] back ([`Ranked::recycle`]).
pub fn rank<'a, S: Borrow<ShardEntry>>(
    shards: &'a [(S, Option<ShardImpacts>)],
    stats: &IndexStats,
    component_of: impl Fn(&ShardPosting) -> f64,
    rank_weight: f64,
    scratch: &mut RankScratch,
) -> Ranked<'a> {
    let lists = shards
        .iter()
        .map(|(shard, impacts)| (shard.borrow(), impacts.as_deref()));
    let keys = score(lists, stats, component_of, rank_weight, scratch);
    Ranked(State::Keys(keys))
}

/// Fill `scratch`'s table from `shards`, walk it and empty it again.
fn score<'a>(
    shards: impl Iterator<Item = (&'a ShardEntry, Option<&'a [Impact]>)>,
    stats: &IndexStats,
    component_of: impl Fn(&ShardPosting) -> f64,
    rank_weight: f64,
    scratch: &mut RankScratch,
) -> Keys<'a> {
    let scorer = Bm25::default();
    let num_docs = stats.num_docs.max(1) as usize;
    let mut lists: Vec<List<'a>> = recycle(std::mem::take(&mut scratch.lists));
    lists.extend(shards.map(|(shard, impacts)| {
        debug_assert!(impacts.is_none_or(|i| i.len() == shard.postings.len()));
        List {
            shard,
            cursor: 0,
            idf: scorer.idf(shard.doc_freq(), num_docs),
            impacts,
        }
    }));
    let spare = &mut scratch.keys;
    let keys = walk(&mut lists, stats, component_of, rank_weight, spare);
    scratch.lists = recycle(lists);
    keys
}

/// Intersect and score the shards of `lists`, falling back to their union.
fn walk<'a>(
    lists: &mut [List<'a>],
    stats: &IndexStats,
    component_of: impl Fn(&ShardPosting) -> f64,
    rank_weight: f64,
    spare: &mut Vec<Key<'static>>,
) -> Keys<'a> {
    // Term order fixes the float sum and the metadata choice; the query's
    // own order must not.
    let scorer = Bm25::default();
    lists.sort_by(|a, b| a.shard.term.cmp(&b.shard.term));
    let avg_len = stats.avg_len();
    // A document's key takes its metadata and rank component from `holder`,
    // the last list in term order that holds it.
    let key = |relevance: f64, holder: &List<'a>| {
        let (meta, component) = holder.meta(&component_of);
        (
            blend_with_component(relevance, component, rank_weight),
            meta,
        )
    };

    let mut keys = Keys::AtMostOne(None);
    let Some(lead) = (0..lists.len()).min_by_key(|&i| lists[i].shard.postings.len()) else {
        return keys;
    };
    let leading = &lists[lead].shard.postings[..];
    'walk: for (at, posting) in leading.iter().enumerate() {
        for (i, l) in lists.iter_mut().enumerate() {
            if i == lead {
                l.cursor = at;
            } else if advance(&l.shard.postings, &mut l.cursor, posting.doc_id).is_none() {
                // A list walked to its end holds no later lead doc id.
                if l.cursor == l.shard.postings.len() {
                    break 'walk;
                }
                continue 'walk;
            }
        }
        // Every cursor is on this document's posting.
        let mut relevance = 0.0;
        for l in lists.iter() {
            relevance += l.bm25(&scorer, avg_len);
        }
        let holder = &lists[lists.len() - 1];
        keys.push(key(relevance, holder), leading.len(), spare);
    }
    if !keys.as_slice().is_empty() || lists.len() < 2 {
        return keys;
    }

    // The union fallback: every doc id, ascending, so each shard's cursor
    // walks its list once more from the start.
    let mut candidates: Vec<u64> = lists
        .iter()
        .flat_map(|l| l.shard.postings.iter().map(|p| p.doc_id))
        .collect();
    candidates.sort_unstable();
    candidates.dedup();
    for l in lists.iter_mut() {
        l.cursor = 0;
    }
    for doc_id in &candidates {
        let mut relevance = 0.0;
        let mut holder = None;
        for (i, l) in lists.iter_mut().enumerate() {
            if advance(&l.shard.postings, &mut l.cursor, *doc_id).is_some() {
                relevance += l.bm25(&scorer, avg_len);
                holder = Some(i);
            }
        }
        if let Some(i) = holder {
            keys.push(key(relevance, &lists[i]), candidates.len(), spare);
        }
    }
    keys
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
    let lists = shards.iter().map(|shard| (shard.borrow(), None));
    let scratch = &mut RankScratch::default();
    let results = build(score(lists, stats, component_of, rank_weight, scratch).as_mut_slice());
    let scored = results.len();
    (results, scored)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scorer::blend_with_rank;
    use crate::Impacts;
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
                name: Arc::clone(&meta.name),
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
            .map(|r| (r.doc_id, &*r.name, r.score.to_bits(), r.version, r.creator))
            .collect()
    }

    /// One generated kernel case: the shards, the statistics, the rank
    /// blend and the page asked for.
    struct Case {
        shards: Vec<ShardEntry>,
        stats: IndexStats,
        /// Every posting and rank flattened: whole runs of candidates tie on
        /// score and order by doc id alone.
        flat: bool,
        rank_weight: f64,
        page: usize,
        top_k: usize,
    }

    impl Case {
        fn rank_of(&self) -> impl Fn(&str) -> f64 {
            let flat = self.flat;
            move |name: &str| match flat {
                true => 0.25,
                false => f64::from(name.bytes().map(u32::from).sum::<u32>() % 97) / 97.0,
            }
        }
    }

    /// The shard, statistics and page generator of the kernel proptests.
    struct Cases;

    impl Strategy for Cases {
        type Value = Case;

        fn generate(&self, rng: &mut proptest::TestRng) -> Case {
            use proptest::collection::{btree_map, vec};
            // Per shard: doc id → (term freq, doc len, metadata variant).
            // Ids come from a small range so shards overlap, stay disjoint
            // or come out empty; the variant makes two shards disagree on a
            // shared document's name and version.
            let postings = (1u32..6, 1u32..200, 0u64..3);
            let lists = vec(btree_map(0u64..64, postings.clone(), 0..40), 1..5).generate(rng);
            // One case in two takes the skewed shape instead: a list of 0–4
            // ids, put at term position `lead_at`, beside long lists from a
            // wide range. The walk then gallops over long runs, the lead
            // sits at every term position, and the conjunction mostly comes
            // out empty after cursors have moved, so the union fallback
            // starts over from walked lists.
            let skewed = (0u8..2).generate(rng);
            let short = btree_map(0u64..4096, postings.clone(), 0..5).generate(rng);
            let long = vec(btree_map(0u64..4096, postings, 0..400), 1..4).generate(rng);
            let lead_at = (0usize..4).generate(rng);
            let stats = (0u64..50, 0u64..5_000).generate(rng);
            let rank_tenths = (0u32..11).generate(rng);
            // One case in three is flat.
            let flat = (0u8..3).generate(rng) == 0;
            let page_pick = (0usize..7).generate(rng);
            let top_k_pick = (0usize..6).generate(rng);

            let lists = match skewed {
                0 => lists,
                _ => {
                    let mut long = long;
                    long.insert(lead_at % (long.len() + 1), short);
                    long
                }
            };
            let shards = lists
                .iter()
                .enumerate()
                .map(
                    |(i, list): (usize, &BTreeMap<u64, (u32, u32, u64)>)| ShardEntry {
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
                    },
                )
                .collect();
            Case {
                shards,
                stats: IndexStats {
                    num_docs: stats.0,
                    total_len: stats.1,
                    version: 1,
                },
                flat,
                rank_weight: f64::from(rank_tenths) / 10.0,
                page: [0, 1, 2, 3, 7, 1_000, usize::MAX][page_pick],
                top_k: [0, 1, 2, 5, 64, usize::MAX][top_k_pick],
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn kernel_matches_the_naive_reference(case in Cases) {
            let (shards, stats, rank_weight) = (&case.shards, &case.stats, case.rank_weight);
            let rank_of = case.rank_of();
            let (expected, expected_scored) = reference(shards, stats, &rank_of, rank_weight);
            let (plain, plain_scored) = intersect_and_score(shards, stats, &rank_of, rank_weight);
            prop_assert_eq!(bits(&plain), bits(&expected));
            prop_assert_eq!(plain_scored, expected_scored);

            // Term order, not the order given, fixes the sum and the
            // metadata: the shards reversed rank bit for bit the same.
            let reversed: Vec<&ShardEntry> = shards.iter().rev().collect();
            let (permuted, _) = intersect_and_score(&reversed, stats, &rank_of, rank_weight);
            prop_assert_eq!(bits(&permuted), bits(&expected));

            // The serving path hands the kernel shared handles and borrows
            // of them, never `ShardEntry` values: same answer through both.
            let handles: Vec<Arc<ShardEntry>> = shards.iter().cloned().map(Arc::new).collect();
            let (shared, shared_scored) =
                intersect_and_score(&handles, stats, &rank_of, rank_weight);
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
            let (lent, lent_scored) = intersect_and_score(&cows, stats, &rank_of, rank_weight);
            prop_assert_eq!(bits(&lent), bits(&expected));
            prop_assert_eq!(lent_scored, expected_scored);

            // The split: a `Ranked` knows the list's length and bytes
            // without building it, and any page of it — before the list
            // exists, whatever earlier pages left the keys in, and after —
            // is that slice of the reference.
            let (page, top_k) = (case.page, case.top_k);
            let expected_bytes: usize = expected.iter().map(ScoredDoc::bytes).sum();
            let expected_page = paginate(&expected, page, top_k);
            let component_of = |p: &ShardPosting| rank_component(rank_of(&p.name));
            let memo_less: Vec<_> = handles.iter().map(|h| (&**h, None)).collect();
            let mut scratch = RankScratch::default();
            let mut ranked = rank(&memo_less, stats, component_of, rank_weight, &mut scratch);
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
            ranked.recycle(&mut scratch);
            prop_assert!(scratch.is_empty());

            // A ranking on the lists an earlier one handed back pages the
            // same, and hands them back empty.
            let reversed: Vec<_> = memo_less.iter().rev().cloned().collect();
            for shards in [&memo_less, &reversed] {
                let mut again = rank(shards, stats, component_of, rank_weight, &mut scratch);
                prop_assert_eq!(bits(&again.page(page, top_k)), bits(&expected_page));
                again.recycle(&mut scratch);
                prop_assert!(scratch.is_empty());
            }
        }

        #[test]
        fn impacts_rank_bit_for_bit_as_the_naive_reference(
            case in Cases,
            // Impacts on no list, on every list, or on the lists `mask`
            // picks.
            kind in 0u8..3,
            mask in 0u32..32,
        ) {
            let (stats, rank_weight) = (&case.stats, case.rank_weight);
            let rank_of = case.rank_of();
            let (expected, _) = reference(&case.shards, stats, &rank_of, rank_weight);
            let component_of = |p: &ShardPosting| rank_component(rank_of(&p.name));
            // The memo builds a shard's impacts on its second scoring.
            let mut memo = Impacts::default();
            let handles: Vec<Arc<ShardEntry>> =
                case.shards.iter().cloned().map(Arc::new).collect();
            let lists: Vec<(&ShardEntry, Option<ShardImpacts>)> = handles
                .iter()
                .enumerate()
                .map(|(i, h)| {
                    let with = match kind {
                        0 => false,
                        1 => true,
                        _ => mask >> i & 1 == 1,
                    };
                    let impacts = with.then(|| {
                        prop_assert!(memo.lookup(h, stats, 1, component_of).is_none());
                        memo.lookup(h, stats, 1, component_of).expect("the second scoring")
                    });
                    (&**h, impacts)
                })
                .collect();

            let expected_bytes: usize = expected.iter().map(ScoredDoc::bytes).sum();
            let scratch = &mut RankScratch::default();
            let mut ranked = rank(&lists, stats, component_of, rank_weight, scratch);
            prop_assert_eq!(ranked.len(), expected.len());
            prop_assert_eq!(ranked.list_bytes(), expected_bytes);
            let (page, top_k) = (case.page, case.top_k);
            let expected_page = paginate(&expected, page, top_k);
            prop_assert_eq!(bits(&ranked.page(page, top_k)), bits(&expected_page));
            prop_assert_eq!(bits(&ranked.list()), bits(&expected));

            // Term order decides which list's impacts a document reads.
            let reversed: Vec<_> = lists.iter().rev().map(|(h, i)| (*h, i.clone())).collect();
            let mut permuted = rank(&reversed, stats, component_of, rank_weight, scratch);
            prop_assert_eq!(bits(&permuted.list()), bits(&expected));
        }
    }

    #[test]
    fn the_page_heap_picks_what_a_full_sort_puts_first() {
        // Doc ids in scrambled order, flat scores: every tie orders by doc
        // id alone. The second round mixes in a few score levels.
        let postings: Vec<ShardPosting> = (0..40u64)
            .map(|i| ShardPosting {
                doc_id: i * 17 % 41,
                term_freq: 1,
                doc_len: 1,
                name: "".into(),
                version: 1,
                creator: 0,
            })
            .collect();
        for levels in [1, 3] {
            let keys: Vec<Key<'_>> = postings
                .iter()
                .map(|p| (1.0 + (p.doc_id * 7 % levels) as f64, p))
                .collect();
            let mut sorted = keys.clone();
            sorted.sort_by(by_rank);
            let order = |keys: &[Key<'_>]| -> Vec<(u64, u64)> {
                keys.iter().map(|(s, p)| (s.to_bits(), p.doc_id)).collect()
            };
            for end in 0..=keys.len() {
                let mut picked = keys.clone();
                select_best(&mut picked, end);
                assert_eq!(
                    order(&picked[..end]),
                    order(&sorted[..end]),
                    "{levels} {end}"
                );
                picked.sort_by(by_rank);
                assert_eq!(
                    order(&picked),
                    order(&sorted),
                    "{levels} {end}: a permutation"
                );
            }
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

//! The executor: turn resolved shards into a ranked result list, and track
//! the shared index reads of a window.
//!
//! The network side (versioned DHT reads) stays in the engine, which owns
//! the simulated network, and the pure stages — intersection, BM25 scoring,
//! PageRank blending, ranking — are the one serving kernel in
//! [`qb_index::kernel`]. This module holds the bookkeeping that lets a
//! window read each distinct missing term (and the statistics record)
//! exactly once and fan the result out to every query that needs it: one
//! record for a read in flight (`PendingRead`), one for a read that
//! completed (`CompletedRead`).
//!
//! For the pipelined engine ([`crate::query::pipeline`]) this module also
//! holds the `WindowMemo`: a scoped memo of scored result lists around the
//! kernel, tagged with the exact per-term shard versions they were computed
//! from, so identical queries in the in-flight window set skip the
//! intersect/score work without ever serving a result computed from
//! different data.
//!
//! All of it follows the serving path's ownership rule: a fetched shard
//! sits behind an `Arc`, so fanning one fetch out to every query of the
//! window and into each serving cache shares it, and the memo holds each
//! scored list behind an `Arc` that a memo hit and the result tier share
//! with it. Nothing here copies postings or scored documents.

use qb_common::{SimDuration, SimInstant};
use qb_index::shard::IndexOpCost;
use qb_index::{IndexStats, ReadMachine, ScoredDoc, ShardEntry};
use std::borrow::Borrow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One index read (a term's shard or the statistics record) completed for a
/// window and shared by every query of the window that needs it.
#[derive(Debug, Clone)]
pub(crate) struct CompletedRead<T> {
    /// What was read; a shard sits behind an `Arc` shared by every query
    /// that needs it and by each cache it fans out into.
    pub(crate) value: T,
    /// Latency of the read (charged to every sharer: the window's reads run
    /// concurrently).
    pub(crate) latency: SimDuration,
    /// RPC attempts of the read (charged only to the triggering query).
    pub(crate) messages: u64,
    /// `seq` of the query that triggered the read.
    pub(crate) charged_to: u64,
    /// When the read completed on the window's timeline.
    pub(crate) completed_at: SimInstant,
    /// Link queueing delay inside the read's wall time (zero for the
    /// blocking window, whose reads run one at a time on an idle link).
    pub(crate) queue_delay: SimDuration,
}

impl<T> CompletedRead<T> {
    /// The record of a read that returned `value` at `cost`.
    pub(crate) fn new(
        value: T,
        cost: IndexOpCost,
        charged_to: u64,
        completed_at: SimInstant,
        queue_delay: SimDuration,
    ) -> CompletedRead<T> {
        CompletedRead {
            value,
            latency: cost.latency,
            messages: cost.messages,
            charged_to,
            completed_at,
            queue_delay,
        }
    }

    /// When the read completed and the link queueing inside its wall time:
    /// what a query that waited on it is rebased by.
    pub(crate) fn finish(&self) -> (SimInstant, SimDuration) {
        (self.completed_at, self.queue_delay)
    }
}

/// An index read of a pipeline window still in flight: the event-driven
/// machine, what the read is for (`key`: the [`FetchSet`] key of a shard,
/// `()` for the statistics record) and the accounting its
/// [`CompletedRead`] will carry.
pub(crate) struct PendingRead<K, T> {
    pub(crate) key: K,
    pub(crate) charged_to: u64,
    pub(crate) span: Option<qb_trace::SpanId>,
    pub(crate) machine: ReadMachine<T>,
}

/// The distinct shard fetches of one batch window, keyed by
/// `(serving frontend, term)`. Sharing is scoped per frontend on purpose:
/// queries served by the same frontend ride one fetch, but two frontends
/// are two machines — moving a shard between them is the gossip overlay's
/// job, which charges the transfer to the simulated network. A batch
/// window must never become a free side channel around that accounting.
/// (In single mode the frontend slot is `None`, so the whole window
/// shares.)
pub(crate) type FetchSet = BTreeMap<(Option<usize>, String), CompletedRead<Arc<ShardEntry>>>;

/// Group a window's freshly fetched shard keys by serving frontend for
/// batch-aware gossip advertisement — the single definition both the
/// back-to-back (`search_batch`) and pipelined (`score_window`) paths use.
/// Only genuine batch windows (`batch` = the window held ≥ 2 queries)
/// advertise; single-query serving keeps the exact PR 4 protocol.
pub(crate) fn batch_advert_groups(
    fetched: &FetchSet,
    batch: bool,
) -> HashMap<usize, Vec<(String, u64)>> {
    let mut groups: HashMap<usize, Vec<(String, u64)>> = HashMap::new();
    if batch {
        for ((frontend, term), fetch) in fetched {
            if let (Some(f), true) = (frontend, fetch.value.version > 0) {
                groups
                    .entry(*f)
                    .or_default()
                    .push((term.clone(), fetch.value.version));
            }
        }
    }
    groups
}

/// Intersect, score and rank the query terms' shards with the serving
/// kernel ([`qb_index::intersect_and_score`]). Returns the **full** sorted
/// result list — pagination is the response stage's job — plus the number
/// of candidates scored. The engine calls the kernel directly; this name
/// stays because the benchmark (`bench/`) probes the scoring layer through
/// it.
pub fn intersect_and_score(
    shards: &[ShardEntry],
    stats: &IndexStats,
    rank_of: impl Fn(&str) -> f64,
    rank_weight: f64,
) -> (Vec<ScoredDoc>, usize) {
    qb_index::intersect_and_score(shards, stats, rank_of, rank_weight)
}

/// Cross-query result sharing across a pipelined run's window stream: a
/// memo of fully scored result lists *around* the serving kernel. It lives
/// for one `search_pipelined` call and is size-bounded
/// ([`WindowMemo::MAX_SCORED`] — the map resets wholesale at the cap, which
/// only costs recomputation).
///
/// Correctness rests on the same per-term version tags the result cache
/// uses: every memo entry is keyed by the exact `(term, shard version)`
/// sequence (and collection statistics) the computation consumed, so a
/// hit is provably the identical computation — never a "close enough"
/// answer from different data. The memo is scoped per serving frontend
/// (every key carries the frontend slot): frontends are separate machines,
/// and moving *results* between them would be the gossip overlay's
/// network-charged job, not a free side channel of the pipeline.
#[derive(Debug, Default)]
pub(crate) struct WindowMemo {
    /// Fingerprint → (full scored list, candidates scored).
    scored: HashMap<String, (Arc<Vec<ScoredDoc>>, usize)>,
    /// Full scored lists served from the memo.
    pub(crate) hits: u64,
    /// Genuine intersect+score computations performed through the memo.
    pub(crate) invocations: u64,
}

impl WindowMemo {
    /// Cap on memoized scored lists before the memo resets.
    pub(crate) const MAX_SCORED: usize = 4_096;

    /// Fingerprint of one query's scoring inputs: the serving frontend's
    /// scope, the collection statistics and the `(term, version)` sequence
    /// in plan order. Identical fingerprints read identical shard data, so
    /// the scored list is bit-reproducible.
    fn fingerprint<S: Borrow<ShardEntry>>(scope: &str, stats: &IndexStats, shards: &[S]) -> String {
        use std::fmt::Write;
        let mut key = format!("{scope}|d{}l{}", stats.num_docs, stats.total_len);
        for shard in shards.iter().map(Borrow::borrow) {
            let _ = write!(key, "|{}@{}", shard.term, shard.version);
        }
        key
    }

    /// Memoized kernel call: serve the scored list from the memo when this
    /// exact computation already ran for `frontend` in the window set,
    /// otherwise run the kernel and remember the result. The third return
    /// value reports whether this was a memo hit. Results are byte-identical
    /// to the unmemoized call; the list is materialised once and every serve
    /// of it shares the memo's handle.
    pub(crate) fn intersect_and_score<S: Borrow<ShardEntry>>(
        &mut self,
        frontend: Option<usize>,
        shards: &[S],
        stats: &IndexStats,
        rank_of: impl Fn(&str) -> f64,
        rank_weight: f64,
    ) -> (Arc<Vec<ScoredDoc>>, usize, bool) {
        let scope = frontend.map_or_else(|| "single".to_string(), |f| format!("f{f}"));
        let key = Self::fingerprint(&scope, stats, shards);
        if let Some((results, scored)) = self.scored.get(&key) {
            self.hits += 1;
            return (Arc::clone(results), *scored, true);
        }
        self.invocations += 1;
        if self.scored.len() >= Self::MAX_SCORED {
            self.scored.clear();
        }
        let (results, scored) = qb_index::intersect_and_score(shards, stats, rank_of, rank_weight);
        let results = Arc::new(results);
        self.scored.insert(key, (Arc::clone(&results), scored));
        (results, scored, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_index::ShardPosting;

    fn shard(term: &str, docs: &[(u64, u32)]) -> ShardEntry {
        let mut s = ShardEntry::empty(term);
        s.version = 1;
        for &(doc_id, tf) in docs {
            s.upsert(ShardPosting {
                doc_id,
                term_freq: tf,
                doc_len: 50,
                name: format!("page/{doc_id}"),
                version: 1,
                creator: doc_id,
            });
        }
        s
    }

    fn stats() -> IndexStats {
        IndexStats {
            num_docs: 10,
            total_len: 500,
            version: 1,
        }
    }

    #[test]
    fn conjunction_wins_and_ranking_is_stable() {
        let shards = vec![
            shard("alpha", &[(1, 3), (2, 1), (3, 1)]),
            shard("beta", &[(2, 2), (3, 2)]),
        ];
        let (results, scored) = intersect_and_score(&shards, &stats(), |_| 0.0, 0.0);
        // Docs 2 and 3 match both terms; doc 1 only one.
        assert_eq!(scored, 2);
        let ids: Vec<u64> = results.iter().map(|r| r.doc_id).collect();
        assert!(ids.contains(&2) && ids.contains(&3) && !ids.contains(&1));
        // Identical inputs rank identically (scores tie-broken by doc id).
        let (again, _) = intersect_and_score(&shards, &stats(), |_| 0.0, 0.0);
        assert_eq!(results, again);
    }

    #[test]
    fn empty_conjunction_degrades_to_union() {
        let shards = vec![shard("alpha", &[(1, 2)]), shard("beta", &[(9, 2)])];
        let (results, _) = intersect_and_score(&shards, &stats(), |_| 0.0, 0.0);
        let ids: Vec<u64> = results.iter().map(|r| r.doc_id).collect();
        assert_eq!(ids.len(), 2, "union fallback covers both terms");
        assert!(ids.contains(&1) && ids.contains(&9));
    }

    #[test]
    fn rank_blend_reorders_equal_relevance() {
        let shards = vec![shard("alpha", &[(1, 2), (2, 2)])];
        let rank = |name: &str| if name == "page/2" { 0.9 } else { 0.0 };
        let (no_blend, _) = intersect_and_score(&shards, &stats(), rank, 0.0);
        assert_eq!(no_blend[0].doc_id, 1, "doc-id tiebreak without blending");
        let (blended, _) = intersect_and_score(&shards, &stats(), rank, 0.8);
        assert_eq!(blended[0].doc_id, 2, "PageRank lifts page/2");
    }

    #[test]
    fn returns_the_full_list_unpaginated() {
        let docs: Vec<(u64, u32)> = (1..=25).map(|i| (i, 1)).collect();
        let shards = vec![shard("alpha", &docs)];
        let (results, scored) = intersect_and_score(&shards, &stats(), |_| 0.0, 0.3);
        assert_eq!(results.len(), 25, "executor never truncates");
        assert_eq!(scored, 25);
    }

    #[test]
    fn window_memo_returns_byte_identical_results() {
        let shards = vec![
            shard("alpha", &[(1, 3), (2, 1), (3, 1)]),
            shard("beta", &[(2, 2), (3, 2)]),
        ];
        let (plain, plain_scored) = intersect_and_score(&shards, &stats(), |_| 0.0, 0.3);
        let mut memo = WindowMemo::default();
        let (first, first_scored, hit) =
            memo.intersect_and_score(None, &shards, &stats(), |_| 0.0, 0.3);
        assert!(!hit, "cold memo computes");
        assert_eq!(*first, plain, "memoized path must match the plain path");
        assert_eq!(first_scored, plain_scored);
        // The identical query again: a memo hit, identical output, no new
        // computation.
        let (again, again_scored, hit) =
            memo.intersect_and_score(None, &shards, &stats(), |_| 0.0, 0.3);
        assert!(hit);
        assert!(Arc::ptr_eq(&again, &first), "a hit shares the list");
        assert_eq!(again_scored, first_scored);
        assert_eq!(memo.hits, 1);
        assert_eq!(memo.invocations, 1, "one real computation for two serves");
    }

    #[test]
    fn window_memo_fingerprints_separate_versions_and_frontends() {
        let s = stats();
        let shards_v1 = vec![shard("alpha", &[(1, 1)])];
        let mut shards_v2 = shards_v1.clone();
        shards_v2[0].version = 2;
        let a = WindowMemo::fingerprint("single", &s, &shards_v1);
        let b = WindowMemo::fingerprint("single", &s, &shards_v2);
        assert_ne!(a, b, "a republished shard must never share an entry");
        // The memo is frontend-scoped: the same query computed on two
        // frontends does not share the scored list.
        let two = vec![
            shard("alpha", &[(1, 1), (2, 1)]),
            shard("beta", &[(2, 2), (3, 2)]),
        ];
        let mut memo = WindowMemo::default();
        let (r0, _, _) = memo.intersect_and_score(Some(0), &two, &s, |_| 0.0, 0.0);
        let (r1, _, hit) = memo.intersect_and_score(Some(1), &two, &s, |_| 0.0, 0.0);
        assert!(!hit, "frontends never share compute for free");
        assert_eq!(memo.invocations, 2);
        assert_eq!(r0, r1, "both frontends still compute the same answer");
        let other_stats = IndexStats {
            num_docs: 99,
            total_len: 500,
            version: 1,
        };
        assert_ne!(
            WindowMemo::fingerprint("single", &other_stats, &shards_v1),
            a,
            "different collection statistics change the scores"
        );
    }
}

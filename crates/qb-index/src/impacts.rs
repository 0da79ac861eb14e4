//! Per-posting impacts, kept per shard between the queries that score it.
//!
//! What a posting adds to a query's score depends on the posting, its
//! shard's document frequency, the collection statistics' `num_docs` and
//! `total_len`, and the page-rank round its rank component comes from —
//! never on the query. So a shard scored again under the same statistics
//! and rank round can hand the [`crate::kernel`] each posting's BM25 term
//! score and rank component ready-made ([`Impact`]), and the kernel's walk
//! reads them by cursor instead of evaluating BM25 and probing the rank
//! table per candidate. Every value is computed with the kernel's own
//! expressions, so a query scores bit for bit as without the memo (a debug
//! build recomputes every hit and asserts it).
//!
//! [`Impacts`] is keyed by the shard's address. Each entry holds the shard
//! weakly — never a strong handle, so the memo keeps no shard alive — and
//! the `Weak` keeps the allocation, and so the address, from being reused
//! by another shard while the entry exists. A shard's content cannot change
//! at its address either: `Arc::get_mut` refuses while a `Weak` exists,
//! `Arc::make_mut` then moves the value to a new allocation, and a value
//! taken out with `Arc::unwrap_or_clone` and wrapped again gets a new one.
//! A changed shard is a new key; the old entry dies with its shard and is
//! swept (see [`crate::views`]).
//!
//! Impacts are built on a shard's second scoring under the same inputs,
//! not its first: a shard read once and dropped — a cache-off read — costs
//! one table entry, not a vector.

use crate::scorer::Bm25;
use crate::shard::{IndexStats, ShardEntry, ShardPosting};
use crate::views::AddressTable;
use std::sync::{Arc, Weak};

/// One posting's share of a query score: its BM25 term score and its
/// page's rank component, as [`crate::rank`] would compute them.
#[derive(Debug, Clone, Copy)]
pub struct Impact {
    /// The posting's BM25 contribution under the memo's statistics.
    pub bm25: f64,
    /// `component_of` the posting, under the memo's rank round.
    pub component: f64,
}

/// A shard's impacts, one per posting in posting order, shared by the memo
/// and the kernel calls that read them.
pub type ShardImpacts = Arc<[Impact]>;

/// What a shard's scores depend on besides the shard: the statistics'
/// `num_docs` and `total_len`, and the rank round its rank components come
/// from. Two scorings of the same shards under equal inputs agree bit for
/// bit, which is what keys [`Impacts`] and stamps a kept result list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScoreInputs {
    /// [`IndexStats::num_docs`] of the statistics scored under.
    pub num_docs: u64,
    /// [`IndexStats::total_len`] of the statistics scored under.
    pub total_len: u64,
    /// The rank round the rank components come from.
    pub rank_round: u64,
}

impl ScoreInputs {
    /// The inputs of a scoring under `stats` and rank round `rank_round`.
    pub fn new(stats: &IndexStats, rank_round: u64) -> ScoreInputs {
        ScoreInputs {
            num_docs: stats.num_docs,
            total_len: stats.total_len,
            rank_round,
        }
    }
}

#[derive(Debug)]
struct Entry {
    /// Pins the key's address; never upgraded to keep the shard alive.
    shard: Weak<ShardEntry>,
    inputs: ScoreInputs,
    /// Built on the second scoring under `inputs`.
    impacts: Option<ShardImpacts>,
}

/// The impacts of every shard scored more than once under the current
/// inputs. See the [module docs](self).
#[derive(Debug, Default)]
pub struct Impacts {
    table: AddressTable<Entry>,
}

impl Impacts {
    /// `shard`'s impacts under `stats` and rank round `rank_round`, whose
    /// rank components `component_of` gives: `None` on the first scoring
    /// under these inputs (the shard is noted), built on the second, shared
    /// after.
    pub fn lookup(
        &mut self,
        shard: &Arc<ShardEntry>,
        stats: &IndexStats,
        rank_round: u64,
        component_of: impl Fn(&ShardPosting) -> f64,
    ) -> Option<ShardImpacts> {
        let inputs = ScoreInputs::new(stats, rank_round);
        let key = Arc::as_ptr(shard) as u64;
        let Some(entry) = self.table.get_mut(key) else {
            let shard = Arc::downgrade(shard);
            let entry = Entry {
                shard,
                inputs,
                impacts: None,
            };
            self.table.insert(key, entry, Entry::live);
            return None;
        };
        // The entry's `Weak` pins the address: a live `Arc` there is the
        // entry's own shard.
        debug_assert_eq!(entry.shard.as_ptr(), Arc::as_ptr(shard));
        if entry.inputs != inputs {
            entry.inputs = inputs;
            entry.impacts = None;
            return None;
        }
        if let Some(impacts) = &entry.impacts {
            // The build the hit skips, re-run wherever tests run.
            debug_assert!(same_bits(impacts, &build(shard, stats, &component_of)));
            return Some(Arc::clone(impacts));
        }
        let impacts = build(shard, stats, component_of);
        entry.impacts = Some(Arc::clone(&impacts));
        Some(impacts)
    }
}

impl Entry {
    fn live(&self) -> bool {
        self.shard.strong_count() > 0
    }
}

/// Every posting's impact, with the expressions [`crate::rank`] evaluates.
fn build(
    shard: &ShardEntry,
    stats: &IndexStats,
    component_of: impl Fn(&ShardPosting) -> f64,
) -> ShardImpacts {
    let scorer = Bm25::default();
    let idf = scorer.idf(shard.doc_freq(), stats.num_docs.max(1) as usize);
    let avg_len = stats.avg_len();
    let impact = |p: &ShardPosting| Impact {
        bm25: scorer.score_with_idf(idf, p.term_freq, p.doc_len, avg_len),
        component: component_of(p),
    };
    shard.postings.iter().map(impact).collect()
}

fn same_bits(a: &[Impact], b: &[Impact]) -> bool {
    let bits = |i: &Impact| (i.bm25.to_bits(), i.component.to_bits());
    a.iter().map(bits).eq(b.iter().map(bits))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::SWEEP_FLOOR;

    fn shard(term: &str, docs: u64) -> ShardEntry {
        let mut shard = ShardEntry::empty(term);
        shard.version = 1;
        for doc_id in 0..docs {
            shard.upsert(ShardPosting {
                doc_id,
                term_freq: 1 + (doc_id % 3) as u32,
                doc_len: 10 + doc_id as u32,
                name: format!("page/{doc_id}").into(),
                version: 1,
                creator: 7,
            });
        }
        shard
    }

    fn stats(num_docs: u64, total_len: u64) -> IndexStats {
        IndexStats {
            num_docs,
            total_len,
            version: 1,
        }
    }

    fn component(p: &ShardPosting) -> f64 {
        p.doc_id as f64 / 8.0
    }

    impl Impacts {
        /// Entries in the memo, dead ones not yet swept included.
        fn len(&self) -> usize {
            self.table.len()
        }

        /// Entries whose shard some holder still has.
        fn live(&self) -> usize {
            self.table.values().filter(|entry| entry.live()).count()
        }
    }

    fn bits(impacts: &[Impact]) -> Vec<(u64, u64)> {
        let bits = |i: &Impact| (i.bm25.to_bits(), i.component.to_bits());
        impacts.iter().map(bits).collect()
    }

    #[test]
    fn impacts_are_built_on_the_second_scoring_and_shared_after() {
        let mut memo = Impacts::default();
        let held = Arc::new(shard("t", 5));
        let at = stats(100, 2_000);
        assert!(memo.lookup(&held, &at, 1, component).is_none(), "first");
        let built = memo.lookup(&held, &at, 1, component).expect("second");
        assert_eq!(bits(&built), bits(&build(&held, &at, component)));
        let again = memo.lookup(&held, &at, 1, component).expect("third");
        assert!(Arc::ptr_eq(&built, &again), "built once");
        assert_eq!((memo.len(), memo.live()), (1, 1));
    }

    #[test]
    fn a_change_of_statistics_or_rank_round_rebuilds_the_impacts() {
        let mut memo = Impacts::default();
        let held = Arc::new(shard("t", 5));
        let at = stats(100, 2_000);
        memo.lookup(&held, &at, 1, component);
        let first = memo.lookup(&held, &at, 1, component).expect("built");
        let other_component = |p: &ShardPosting| component(p) + 1.0;
        for (stats, round) in [(stats(101, 2_000), 1), (stats(100, 2_100), 1), (at, 2)] {
            let seen = memo.lookup(&held, &stats, round, other_component);
            assert!(seen.is_none(), "new inputs start over");
            let rebuilt = memo
                .lookup(&held, &stats, round, other_component)
                .expect("built");
            assert_eq!(bits(&rebuilt), bits(&build(&held, &stats, other_component)));
            assert_ne!(bits(&rebuilt), bits(&first));
        }
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn a_changed_shard_never_receives_the_old_impacts() {
        let mut memo = Impacts::default();
        let at = stats(100, 2_000);
        let changed = |memo: &mut Impacts, shard: &Arc<ShardEntry>| {
            let seen = memo.lookup(shard, &at, 1, component);
            assert!(seen.is_none(), "a changed shard is a new entry");
            let built = memo.lookup(shard, &at, 1, component).expect("built");
            assert_eq!(bits(&built), bits(&build(shard, &at, component)));
        };

        // Changed through `make_mut` while the handle is the only one: the
        // memo's `Weak` moves the value to a new address.
        let mut held = Arc::new(shard("t", 5));
        memo.lookup(&held, &at, 1, component);
        memo.lookup(&held, &at, 1, component).expect("built");
        let before = Arc::as_ptr(&held);
        Arc::make_mut(&mut held).remove(2);
        assert_ne!(Arc::as_ptr(&held), before);
        changed(&mut memo, &held);

        // The writer path: the value taken out and wrapped again.
        let mut owned = Arc::unwrap_or_clone(held);
        owned.remove(3);
        let held = Arc::new(owned);
        changed(&mut memo, &held);

        // Changed after a clone: `make_mut` copies to a new address too.
        let mut copy = Arc::clone(&held);
        Arc::make_mut(&mut copy).remove(4);
        changed(&mut memo, &copy);
        assert_eq!(memo.live(), 2);
    }

    #[test]
    fn dropped_shards_are_swept() {
        let mut memo = Impacts::default();
        let at = stats(100, 2_000);
        let kept: Vec<Arc<ShardEntry>> = (0..10)
            .map(|i| Arc::new(shard(&format!("k{i}"), 2)))
            .collect();
        for held in &kept {
            memo.lookup(held, &at, 1, component);
        }
        for i in 0..20 * SWEEP_FLOOR {
            let dropped = Arc::new(shard(&format!("d{i}"), 1));
            memo.lookup(&dropped, &at, 1, component);
            memo.lookup(&dropped, &at, 1, component).expect("built");
            assert!(memo.len() <= 2 * kept.len() + SWEEP_FLOOR, "{}", memo.len());
        }
        assert_eq!(memo.live(), kept.len());
    }
}

//! The executor: turn resolved shards into a ranked result list, and own
//! the window record the engine's one window loop runs.
//!
//! The network side (versioned DHT reads) stays in the engine, which owns
//! the simulated network, and the pure stages — intersection, BM25 scoring,
//! PageRank blending, ranking — are the one serving kernel in
//! [`qb_index::kernel`]. This module holds the bookkeeping that lets a
//! window read each distinct missing term (and the statistics record)
//! exactly once and fan the result out to every query that needs it:
//! `WindowRun`, the one window record every window is, and its
//! `WindowReads`, whose one enumeration (`WindowReads::of`) decides which
//! reads a window makes, in what order and charged to whom. A read stays in
//! its slot from issue to response (it completes in place), and each plan
//! term it serves carries the slot ([`TermPlan::Fetch`]). The engine issues
//! and polls a slot through one function each, in one order
//! (`WindowReads::poll_order`): every read of a window issues at once and
//! runs concurrently, whatever the window's size and however many windows
//! the loop overlaps. A result-cache hit ([`Resolution::ResultHit`]) reads
//! nothing.
//!
//! It follows the serving path's ownership rule: a fetched shard sits
//! behind an `Arc` — the one every holder of its record shares, so a
//! re-read of an unchanged record decodes nothing — and fanning one fetch
//! out to every query of the window and into each serving cache shares
//! it. Nothing here copies postings or scored lists.

use crate::query::plan::{QueryPlan, Resolution, StatsPlan, TermPlan};
use qb_common::{QbResult, SimDuration, SimInstant};
use qb_index::shard::IndexOpCost;
use qb_index::{IndexStats, ReadMachine, ReadStep, ScoredDoc, ShardEntry};
use qb_simnet::SimNet;
use std::collections::HashMap;
use std::sync::Arc;

/// What a finished index read returned and what it cost: the part of a
/// [`WindowRead`] that every query of the window that needs it shares.
#[derive(Debug, Clone)]
pub(crate) struct CompletedRead<T> {
    /// What was read; a shard sits behind an `Arc` shared by every query
    /// that needs it and by each cache it fans out into.
    pub(crate) value: T,
    /// Latency of the read (charged to every sharer: the window's reads run
    /// concurrently) and its RPC attempts (charged only to the triggering
    /// query).
    pub(crate) cost: IndexOpCost,
    /// `seq` of the query that triggered the read.
    pub(crate) charged_to: u64,
    /// When the read completed on the window's timeline.
    pub(crate) completed_at: SimInstant,
    /// Link queueing delay inside the read's wall time: what a plan that
    /// waits on this read as its slowest is charged as `net_queue`. It is
    /// nonzero when the read's hops queued behind its origin peer's
    /// in-flight limit — behind the window's own sibling reads or another
    /// window's.
    pub(crate) queue_delay: SimDuration,
}

/// One window of a run, from planning to retirement: its plans, its reads
/// and their completion bookkeeping.
pub(crate) struct WindowRun {
    pub(crate) plans: Vec<QueryPlan>,
    /// The window's shared reads (each distinct `(frontend, term)` once,
    /// at most one statistics read), each completing in its slot with its
    /// own completion instant and link-queue delay.
    pub(crate) reads: WindowReads,
    /// When the window's reads were issued on the virtual timeline.
    pub(crate) issued_at: SimInstant,
    /// When the window's slowest read completed (so far).
    pub(crate) completes_at: SimInstant,
    /// Earliest instant any pending read advances at (`None` once the
    /// window is complete): the instant its runner polls it next.
    pub(crate) next_event: Option<SimInstant>,
    /// The window's trace span (children: one `fetch`/`stats_read` span
    /// per read, each nesting its per-hop `dht.lookup`/`rpc` spans).
    pub(crate) span: Option<qb_trace::SpanId>,
    /// Queueing delay the per-link in-flight limits charged this window.
    pub(crate) queue_delay: SimDuration,
}

/// What one poll of a window read found.
pub(crate) enum ReadPoll {
    /// Nothing in flight: the read was never issued, or it already finished.
    Idle,
    /// In flight; it advances next at this instant.
    Pending(SimInstant),
    /// It finished at this poll.
    Done {
        /// When it completed on the window's timeline.
        completed_at: SimInstant,
        /// Link queueing inside its wall time.
        queue_delay: SimDuration,
    },
}

/// How far a [`WindowRead`] got.
pub(crate) enum ReadProgress<T> {
    /// Enumerated, not issued.
    Planned,
    /// Issued: the event-driven machine, the read's trace span (open until
    /// the machine finishes) and the instant the machine next advances at.
    InFlight(ReadMachine<T>, Option<qb_trace::SpanId>, SimInstant),
    /// Finished; the record stays until the window has answered.
    Done(CompletedRead<T>),
}

/// One index read of a window, from enumeration to response: a term's shard
/// (read as the `Arc` every holder of that record shares) or the statistics
/// record.
pub(crate) struct WindowRead<T> {
    /// The frontend the read is scoped to (`None` in single mode).
    pub(crate) frontend: Option<usize>,
    /// The term whose shard is read (empty for the statistics record).
    pub(crate) term: String,
    /// The simulated peer the read is issued from.
    pub(crate) origin_peer: u64,
    /// `seq` of the query that triggered the read — the first in plan order
    /// to need it, which alone is charged its messages.
    pub(crate) charged_to: u64,
    /// How far the read got.
    pub(crate) progress: ReadProgress<T>,
}

impl<T> WindowRead<T> {
    fn planned(frontend: Option<usize>, term: String, origin_peer: u64, charged_to: u64) -> Self {
        WindowRead {
            frontend,
            term,
            origin_peer,
            charged_to,
            progress: ReadProgress::Planned,
        }
    }

    /// The read returned `value` at `cost`: it is done, in its slot.
    pub(crate) fn complete(
        &mut self,
        value: T,
        cost: IndexOpCost,
        completed_at: SimInstant,
        queue_delay: SimDuration,
    ) {
        self.progress = ReadProgress::Done(CompletedRead {
            value,
            cost,
            charged_to: self.charged_to,
            completed_at,
            queue_delay,
        });
    }

    /// Poll the read's machine at instant `at` with `step` (given the
    /// network, the machine and the read's term) when one is in flight and
    /// due: before its next event a machine has nothing to advance, so a
    /// window polling a sibling read's event skips it. A machine that is
    /// `Ready` is swapped, in its slot, for what it read, closing the read's
    /// span. A failed read leaves the slot `Planned`: it never keeps a
    /// machine with nothing left in flight.
    pub(crate) fn poll(
        &mut self,
        net: &mut SimNet,
        at: SimInstant,
        step: impl FnOnce(&mut SimNet, &mut ReadMachine<T>, &str) -> ReadStep,
    ) -> QbResult<ReadPoll> {
        let ReadProgress::InFlight(machine, _, next) = &mut self.progress else {
            return Ok(ReadPoll::Idle);
        };
        if at < *next {
            return Ok(ReadPoll::Pending(*next));
        }
        if let ReadStep::Pending { next_event_at } = step(net, machine, &self.term) {
            *next = next_event_at;
            return Ok(ReadPoll::Pending(next_event_at));
        }
        if let ReadProgress::InFlight(machine, span, _) =
            std::mem::replace(&mut self.progress, ReadProgress::Planned)
        {
            let queue_delay = machine.queue_delay();
            let (value, cost, completed_at) = machine.into_result()?;
            net.tracer().close(span, completed_at);
            self.complete(value, cost, completed_at, queue_delay);
        }
        let done = self.done();
        Ok(ReadPoll::Done {
            completed_at: done.completed_at,
            queue_delay: done.queue_delay,
        })
    }

    fn abandon(&mut self, net: &mut SimNet) {
        if let ReadProgress::InFlight(machine, ..) = &mut self.progress {
            machine.abandon(net);
            self.progress = ReadProgress::Planned;
        }
    }

    /// The finished read.
    pub(crate) fn done(&self) -> &CompletedRead<T> {
        finished(Some(self))
    }
}

/// A window is scored and advertised only once none of its reads is in
/// flight, and a failed read aborts it before that.
fn finished<T>(read: Option<&WindowRead<T>>) -> &CompletedRead<T> {
    match read.map(|read| &read.progress) {
        Some(ReadProgress::Done(done)) => done,
        _ => panic!("a window is served only after every read its plans name completed"),
    }
}

/// A slot of [`WindowReads`], as [`WindowReads::poll_order`] hands it out.
pub(crate) enum ReadSlot<'a> {
    /// The statistics read.
    Stats(&'a mut WindowRead<IndexStats>),
    /// A shard read.
    Shard(&'a mut WindowRead<Arc<ShardEntry>>),
}

/// The index reads of one window: each distinct `(serving frontend, term)`
/// shard once, plus at most one statistics read. Sharing is scoped per
/// frontend on purpose: queries served by the same frontend ride one fetch,
/// but two frontends are two machines — moving a shard between them is the
/// gossip overlay's job, which charges the transfer to the simulated
/// network. A batch window must never become a free side channel around
/// that accounting. (In single mode the frontend slot is `None`, so the
/// whole window shares.)
pub(crate) struct WindowReads {
    /// The window's statistics read, when a plan needs one.
    pub(crate) stats: Option<WindowRead<IndexStats>>,
    /// The shard reads, in enumeration order; a [`TermPlan::Fetch`] holds an
    /// index into this.
    pub(crate) shards: Vec<WindowRead<Arc<ShardEntry>>>,
}

impl WindowReads {
    /// The one enumeration every window starts from: walk the plans
    /// in order and each plan's terms in order, give every distinct missing
    /// `(frontend, term)` one slot — the first plan to need a read triggers
    /// it and pays for it — and write the slot into each term it serves.
    /// Result-cache hits read nothing.
    pub(crate) fn of(plans: &mut [QueryPlan]) -> WindowReads {
        let mut reads = WindowReads {
            stats: None,
            shards: Vec::new(),
        };
        for plan in plans.iter_mut() {
            let (frontend, origin_peer, seq) = (plan.frontend, plan.origin_peer, plan.seq);
            let Resolution::PerTerm { terms, stats } = &mut plan.resolution else {
                continue;
            };
            if matches!(stats, StatsPlan::Fetch) && reads.stats.is_none() {
                let stats = WindowRead::planned(frontend, String::new(), origin_peer, seq);
                reads.stats = Some(stats);
            }
            for planned in terms {
                if let TermPlan::Fetch { read } = &mut planned.plan {
                    let shards = &mut reads.shards;
                    let shared = shards
                        .iter()
                        .position(|r| r.frontend == frontend && r.term == planned.term);
                    *read = shared.unwrap_or_else(|| {
                        let term = planned.term.clone();
                        shards.push(WindowRead::planned(frontend, term, origin_peer, seq));
                        shards.len() - 1
                    });
                }
            }
        }
        reads
    }

    /// Every read once, in the order the window issues and polls them: the
    /// statistics read, then the shards in slot order. The order feeds the
    /// simulated network's RNG.
    pub(crate) fn poll_order(&mut self) -> impl Iterator<Item = ReadSlot<'_>> {
        let stats = self.stats.as_mut().map(ReadSlot::Stats);
        stats
            .into_iter()
            .chain(self.shards.iter_mut().map(ReadSlot::Shard))
    }

    /// Retire whatever the window still has in flight without processing
    /// it (abort path), so an aborted run leaves no phantom link occupancy.
    pub(crate) fn abandon(&mut self, net: &mut SimNet) {
        self.stats.iter_mut().for_each(|read| read.abandon(net));
        self.shards.iter_mut().for_each(|read| read.abandon(net));
    }

    /// The finished shard read in `slot` (a [`TermPlan::Fetch`]'s `read`).
    pub(crate) fn shard(&self, slot: usize) -> &CompletedRead<Arc<ShardEntry>> {
        finished(self.shards.get(slot))
    }

    /// The finished statistics read of a window with a `StatsPlan::Fetch`
    /// plan.
    pub(crate) fn stats_read(&self) -> &CompletedRead<IndexStats> {
        finished(self.stats.as_ref())
    }

    /// Group the window's freshly fetched shard keys by serving frontend,
    /// each group in ascending term order, for batch-aware gossip
    /// advertisement, which the retire step queues. Only genuine batch
    /// windows (`batch` = the window held ≥ 2 queries) advertise;
    /// single-query serving keeps the original gossip protocol.
    pub(crate) fn batch_advert_groups(&self, batch: bool) -> HashMap<usize, Vec<(String, u64)>> {
        let mut groups: HashMap<usize, Vec<(String, u64)>> = HashMap::new();
        if batch {
            for read in &self.shards {
                let version = read.done().value.version;
                if let (Some(f), true) = (read.frontend, version > 0) {
                    groups
                        .entry(f)
                        .or_default()
                        .push((read.term.clone(), version));
                }
            }
            groups.values_mut().for_each(|group| group.sort());
        }
        groups
    }
}

/// Intersect, score and rank the query terms' shards with the serving
/// kernel's one-call form ([`qb_index::intersect_and_score`]): the whole
/// sorted list, page ranks looked up by name, plus the number of candidates
/// scored. The engine does not serve through it — `serve_plan` calls
/// [`qb_index::rank`] and builds what its response or a cache keeps; this
/// name stays because the benchmark (`bench/`) probes the scoring layer
/// through it.
pub fn intersect_and_score(
    shards: &[ShardEntry],
    stats: &IndexStats,
    rank_of: impl Fn(&str) -> f64,
    rank_weight: f64,
) -> (Vec<ScoredDoc>, usize) {
    qb_index::intersect_and_score(shards, stats, rank_of, rank_weight)
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
                name: format!("page/{doc_id}").into(),
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

    /// A hand-built plan: `terms` pairs each term with whether the DHT must
    /// fetch it (otherwise the shard tier resolved it).
    fn plan(seq: u64, frontend: usize, stats: StatsPlan, terms: &[(&str, bool)]) -> QueryPlan {
        use crate::query::plan::PlannedTerm;
        QueryPlan {
            seq,
            request: crate::query::request::SearchRequest::new("hand built"),
            origin_peer: 100 + frontend as u64,
            frontend: Some(frontend),
            result_key: String::new(),
            resolution: Resolution::PerTerm {
                terms: terms
                    .iter()
                    .map(|&(term, fetch)| PlannedTerm {
                        term: term.to_string(),
                        plan: if fetch {
                            TermPlan::Fetch { read: 0 }
                        } else {
                            TermPlan::CachedShard(Arc::new(shard(term, &[])))
                        },
                    })
                    .collect(),
                stats,
            },
        }
    }

    #[test]
    fn one_enumeration_assigns_slots_payers_and_issue_order() {
        let cached = StatsPlan::Cached(stats());
        // Two frontends with overlapping terms, a result-cache hit in the
        // middle, and a plan with cached statistics but a missing shard
        // ahead of the first plan that reads the statistics.
        let mut hit = plan(3, 0, cached.clone(), &[]);
        hit.resolution = Resolution::ResultHit {
            terms: vec!["alpha".into()],
            entry: qb_cache::CachedResult {
                results: Arc::new(Vec::new()),
                term_versions: Vec::new(),
            },
        };
        let mut plans = vec![
            plan(1, 0, cached, &[("alpha", true), ("beta", false)]),
            plan(2, 1, StatsPlan::Fetch, &[("alpha", true), ("gamma", true)]),
            hit,
            plan(4, 0, StatsPlan::Fetch, &[("gamma", true), ("alpha", true)]),
            plan(5, 1, StatsPlan::Fetch, &[("beta", true), ("alpha", true)]),
        ];
        let mut reads = WindowReads::of(&mut plans);

        // Each fetch term carries its slot; first occurrence wins the slot,
        // sharing is per frontend, the result hit reads nothing.
        let slots: Vec<Vec<usize>> = plans.iter().map(|p| p.fetch_reads().collect()).collect();
        assert_eq!(
            slots,
            [vec![0], vec![1, 2], vec![], vec![3, 0], vec![4, 1]],
            "slots written into the plans"
        );
        let key = |r: &WindowRead<Arc<ShardEntry>>| {
            (
                r.frontend.unwrap(),
                r.term.clone(),
                r.origin_peer,
                r.charged_to,
            )
        };
        let shards: Vec<_> = reads.shards.iter().map(key).collect();
        let expected = [
            (0, "alpha", 100, 1),
            (1, "alpha", 101, 2),
            (1, "gamma", 101, 2),
            (0, "gamma", 100, 4),
            (1, "beta", 101, 5),
        ];
        assert_eq!(shards.len(), expected.len());
        for (got, want) in shards.iter().zip(expected) {
            assert_eq!((got.0, got.1.as_str(), got.2, got.3), want);
        }
        // The statistics read belongs to the first plan that needs it, not
        // to plan 1, which stands ahead of it with cached statistics; every
        // window issues it first, then the shards in slot order.
        let stats_read = reads.stats.as_ref().expect("plans 2, 4 and 5 read stats");
        assert_eq!((stats_read.charged_to, stats_read.origin_peer), (2, 101));
        let order: Vec<String> = reads
            .poll_order()
            .map(|slot| match slot {
                ReadSlot::Stats(_) => "stats".to_string(),
                ReadSlot::Shard(r) => format!("{}/{}", r.frontend.unwrap(), r.term),
            })
            .collect();
        assert_eq!(
            order,
            ["stats", "0/alpha", "1/alpha", "1/gamma", "0/gamma", "1/beta"]
        );

        // Completing every read in place makes the window servable, and
        // batch adverts come out per frontend in ascending term order — not
        // slot order — without the proven-absent (version 0) shard.
        for (slot, read) in reads.shards.iter_mut().enumerate() {
            let mut entry = shard(&read.term, &[]);
            entry.version = slot as u64; // slot 0 is a proven absence
            let at = SimInstant::ZERO;
            read.complete(
                Arc::new(entry),
                IndexOpCost::default(),
                at,
                SimDuration::ZERO,
            );
        }
        assert_eq!(reads.shard(3).charged_to, 4);
        assert_eq!(reads.shard(3).value.term, "gamma");
        let mut groups: Vec<_> = reads.batch_advert_groups(true).into_iter().collect();
        groups.sort();
        let adverts = |terms: &[(&str, u64)]| -> Vec<(String, u64)> {
            terms.iter().map(|&(t, v)| (t.to_string(), v)).collect()
        };
        assert_eq!(
            groups,
            [
                (0, adverts(&[("gamma", 3)])),
                (1, adverts(&[("alpha", 1), ("beta", 4), ("gamma", 2)])),
            ]
        );
        assert!(reads.batch_advert_groups(false).is_empty());
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
}

//! The planner: analyze a [`SearchRequest`] into a [`QueryPlan`] before any
//! network traffic is issued.
//!
//! Planning resolves everything the local tiers can answer — the result
//! cache, per-term shard/negative entries (strict or staleness-bounded,
//! per the request's [`Freshness`]), the statistics record — and leaves a
//! precise list of *fetch* terms for the executor. Because plans carry no
//! network state, a batch window can plan every request first and then
//! fetch each distinct missing term exactly once.
//!
//! A plan never owns shard or result data: a term resolved by the shard
//! tier carries an `Arc` handle to the tier's own copy, and a result-cache
//! hit shares the entry's list, so planning a warm query copies no posting
//! and no scored document (the ownership rule of
//! [`qb_cache::QueryCache`]).

use crate::query::request::{Freshness, SearchRequest};
use qb_cache::{result_key, BoundedShardLookup, CachedResult, QueryCache, ShardLookup};
use qb_common::{QbError, QbResult, SimDuration, SimInstant};
use qb_index::{Analyzer, IndexStats, ShardEntry};
use std::collections::HashMap;
use std::sync::Arc;

/// How one query term will be satisfied.
#[derive(Debug, Clone)]
pub enum TermPlan {
    /// Served from the shard tier at the current version (a handle to the
    /// tier's copy).
    CachedShard(Arc<ShardEntry>),
    /// Proven absent by the negative tier; no lookup needed.
    Negative,
    /// A version-superseded copy served under a `MaxStaleness` bound.
    Stale {
        /// The cached (superseded) shard, shared with the tier.
        shard: Arc<ShardEntry>,
        /// How long ago the copy was stored.
        age: SimDuration,
    },
    /// Must be fetched through the DHT (the executor dedupes these across a
    /// batch window).
    Fetch {
        /// Slot of the window's shard read serving this term, written when
        /// the executor enumerates the window's reads (0 until then).
        read: usize,
    },
}

/// One analyzed query term and its resolution.
#[derive(Debug, Clone)]
pub struct PlannedTerm {
    /// The analyzed term.
    pub term: String,
    /// How it will be satisfied.
    pub plan: TermPlan,
}

/// How the global statistics record will be satisfied.
#[derive(Debug, Clone)]
pub enum StatsPlan {
    /// The cached record is still at the current version.
    Cached(IndexStats),
    /// Must be read through the DHT (once per batch window).
    Fetch,
}

/// A fully analyzed request, ready for execution.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Position of this query in the engine's lifetime query sequence
    /// (drives the serving-bee rotation exactly like the seed counter).
    pub seq: u64,
    /// The request being planned.
    pub request: SearchRequest,
    /// The simulated peer network traffic is issued from.
    pub origin_peer: u64,
    /// The fleet frontend serving the request (`None` in single mode).
    pub frontend: Option<usize>,
    /// Normalized result-cache key (sorted terms).
    pub result_key: String,
    /// How the query will be answered.
    pub resolution: Resolution,
}

/// How a planned query will be answered. Either way `terms` are the
/// deduplicated analyzed terms, in query order.
#[derive(Debug, Clone)]
pub enum Resolution {
    /// A current result-cache entry answers the whole query; its terms move
    /// into the response as they are.
    ResultHit {
        /// The analyzed terms.
        terms: Vec<String>,
        /// The entry, sharing the tier's scored list.
        entry: CachedResult,
    },
    /// Each term and the statistics record resolve on their own.
    PerTerm {
        /// The analyzed terms with their resolutions.
        terms: Vec<PlannedTerm>,
        /// How the BM25 statistics record will be satisfied.
        stats: StatsPlan,
    },
}

impl QueryPlan {
    /// The window's shard reads this plan waits on (one slot per term the
    /// executor must fetch through the DHT, in term order).
    pub fn fetch_reads(&self) -> impl Iterator<Item = usize> + '_ {
        let terms = match &self.resolution {
            Resolution::ResultHit { .. } => &[][..],
            Resolution::PerTerm { terms, .. } => terms,
        };
        terms.iter().filter_map(|t| match t.plan {
            TermPlan::Fetch { read } => Some(read),
            _ => None,
        })
    }
}

/// `plan_query` over a cache held in an `Option` slot (`None` when
/// caching is disabled), as the engine's single-frontend mode holds it.
#[allow(clippy::too_many_arguments)]
pub fn plan_request(
    request: SearchRequest,
    seq: u64,
    origin_peer: u64,
    frontend: Option<usize>,
    analyzer: &Analyzer,
    cache: &mut Option<QueryCache>,
    shard_versions: &HashMap<String, u64>,
    stats_version: u64,
    now: SimInstant,
) -> QbResult<QueryPlan> {
    let cache = cache.as_mut();
    plan_query(
        request,
        seq,
        origin_peer,
        frontend,
        analyzer,
        cache,
        shard_versions,
        stats_version,
        now,
    )
}

/// Analyze `request` against the local tiers. `cache` is the serving
/// frontend's cache (`None` when caching is disabled), `shard_versions`
/// the engine's monotonic per-term version counters and `stats_version`
/// the current statistics version. Probing mutates the cache exactly as
/// the seed's serve path did (recency, hit/miss counters, version-check
/// evictions) — planning *is* the cache read.
#[allow(clippy::too_many_arguments)]
pub(crate) fn plan_query(
    request: SearchRequest,
    seq: u64,
    origin_peer: u64,
    frontend: Option<usize>,
    analyzer: &Analyzer,
    mut cache: Option<&mut QueryCache>,
    shard_versions: &HashMap<String, u64>,
    stats_version: u64,
    now: SimInstant,
) -> QbResult<QueryPlan> {
    let mut terms: Vec<String> = Vec::new();
    for t in analyzer.analyze(&request.query) {
        if !terms.contains(&t) {
            terms.push(t);
        }
    }
    if terms.is_empty() {
        return Err(QbError::Query(format!(
            "query '{}' has no searchable terms",
            request.query
        )));
    }
    let key = result_key(&terms);

    // Result-cache probe: a warm normalized query whose term shard versions
    // are all still current answers the whole request locally. `Fresh`
    // bypasses it; `MaxStaleness` keeps the strict version check (only the
    // shard tier below is allowed to serve superseded data).
    if !matches!(request.freshness, Freshness::Fresh) {
        if let Some(c) = cache.as_deref_mut() {
            if let Some(entry) =
                c.lookup_result(&key, now, |t| shard_versions.get(t).copied().unwrap_or(0))
            {
                return Ok(QueryPlan {
                    seq,
                    request,
                    origin_peer,
                    frontend,
                    result_key: key,
                    resolution: Resolution::ResultHit { terms, entry },
                });
            }
        }
    }

    // Statistics record.
    let stats = match cache
        .as_deref_mut()
        .filter(|_| !matches!(request.freshness, Freshness::Fresh))
        .and_then(|c| c.lookup_stats(stats_version))
    {
        Some(cached) => StatsPlan::Cached(cached),
        None => StatsPlan::Fetch,
    };

    // Per-term resolution through the shard/negative tiers.
    const FETCH: TermPlan = TermPlan::Fetch { read: 0 };
    let planned: Vec<PlannedTerm> = terms
        .into_iter()
        .map(|term| {
            let current = shard_versions.get(&term).copied().unwrap_or(0);
            let plan = match (&request.freshness, cache.as_deref_mut()) {
                (Freshness::Fresh, _) | (_, None) => FETCH,
                (Freshness::CacheOk, Some(c)) => match c.lookup_shard(&term, now, current) {
                    ShardLookup::Hit(shard) => TermPlan::CachedShard(shard),
                    ShardLookup::Negative => TermPlan::Negative,
                    ShardLookup::Miss => FETCH,
                },
                (Freshness::MaxStaleness(bound), Some(c)) => {
                    match c.lookup_shard_bounded(&term, now, current, *bound) {
                        BoundedShardLookup::Hit(shard) => TermPlan::CachedShard(shard),
                        BoundedShardLookup::Stale { shard, age } => TermPlan::Stale { shard, age },
                        BoundedShardLookup::Negative => TermPlan::Negative,
                        BoundedShardLookup::Miss => FETCH,
                    }
                }
            };
            PlannedTerm { term, plan }
        })
        .collect();

    Ok(QueryPlan {
        seq,
        request,
        origin_peer,
        frontend,
        result_key: key,
        resolution: Resolution::PerTerm {
            terms: planned,
            stats,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::request::SearchRequest;
    use qb_cache::CacheConfig;
    use qb_index::ShardPosting;

    fn t0() -> SimInstant {
        SimInstant::ZERO
    }

    fn shard(term: &str, version: u64) -> ShardEntry {
        let mut s = ShardEntry::empty(term);
        s.version = version;
        s.upsert(ShardPosting {
            doc_id: 1,
            term_freq: 2,
            doc_len: 40,
            name: format!("page/{term}").into(),
            version: 1,
            creator: 9,
        });
        s
    }

    fn plan(
        req: SearchRequest,
        cache: &mut Option<QueryCache>,
        versions: &HashMap<String, u64>,
    ) -> QbResult<QueryPlan> {
        plan_request(req, 1, 0, None, &Analyzer::new(), cache, versions, 0, t0())
    }

    /// The per-term resolutions and statistics plan of a plan the result
    /// tier did not answer.
    fn per_term(p: &QueryPlan) -> (&[PlannedTerm], &StatsPlan) {
        match &p.resolution {
            Resolution::PerTerm { terms, stats } => (terms, stats),
            Resolution::ResultHit { .. } => panic!("no result tier in these tests"),
        }
    }

    #[test]
    fn empty_queries_are_rejected() {
        let mut none = None;
        let err = plan(SearchRequest::new("the of and"), &mut none, &HashMap::new());
        assert!(matches!(err, Err(QbError::Query(_))));
    }

    #[test]
    fn terms_are_deduplicated_in_query_order() {
        let mut none = None;
        let p = plan(
            SearchRequest::new("honey bees honey"),
            &mut none,
            &HashMap::new(),
        )
        .unwrap();
        let (planned, stats) = per_term(&p);
        let terms: Vec<&str> = planned.iter().map(|t| t.term.as_str()).collect();
        assert_eq!(terms, vec![Analyzer::stem("honey"), Analyzer::stem("bees")]);
        assert_eq!(p.fetch_reads().count(), 2, "no cache: everything fetches");
        assert!(matches!(stats, StatsPlan::Fetch));
    }

    #[test]
    fn cache_tiers_resolve_terms_at_plan_time() {
        let mut cache = Some(QueryCache::new(CacheConfig::enabled()));
        let honey = Analyzer::stem("honey");
        let ghost = Analyzer::stem("ghost");
        let c = cache.as_mut().unwrap();
        c.store_shard(&shard(&honey, 2), t0());
        c.store_shard(&ShardEntry::empty(&ghost), t0());
        let versions: HashMap<String, u64> = [(honey.clone(), 2u64)].into_iter().collect();
        let p = plan(
            SearchRequest::new("honey ghost nectar"),
            &mut cache,
            &versions,
        )
        .unwrap();
        let (terms, _) = per_term(&p);
        assert!(matches!(terms[0].plan, TermPlan::CachedShard(_)));
        assert!(matches!(terms[1].plan, TermPlan::Negative));
        assert!(matches!(terms[2].plan, TermPlan::Fetch { .. }));
        assert_eq!(terms[2].term, Analyzer::stem("nectar"));
        assert_eq!(p.fetch_reads().count(), 1);
    }

    #[test]
    fn fresh_mode_bypasses_every_tier() {
        let mut cache = Some(QueryCache::new(CacheConfig::enabled()));
        let honey = Analyzer::stem("honey");
        cache.as_mut().unwrap().store_shard(&shard(&honey, 2), t0());
        let versions: HashMap<String, u64> = [(honey, 2u64)].into_iter().collect();
        let p = plan(
            SearchRequest::new("honey").freshness(Freshness::Fresh),
            &mut cache,
            &versions,
        )
        .unwrap();
        let (terms, stats) = per_term(&p);
        assert!(matches!(terms[0].plan, TermPlan::Fetch { .. }));
        assert!(matches!(stats, StatsPlan::Fetch));
    }

    #[test]
    fn max_staleness_serves_superseded_shards_within_bound() {
        let mut cache = Some(QueryCache::new(CacheConfig::enabled()));
        let honey = Analyzer::stem("honey");
        cache.as_mut().unwrap().store_shard(&shard(&honey, 2), t0());
        // The engine has since seen version 3.
        let versions: HashMap<String, u64> = [(honey, 3u64)].into_iter().collect();
        let p = plan(
            SearchRequest::new("honey")
                .freshness(Freshness::MaxStaleness(SimDuration::from_secs(60))),
            &mut cache,
            &versions,
        )
        .unwrap();
        assert!(
            matches!(&per_term(&p).0[0].plan, TermPlan::Stale { shard, .. } if shard.version == 2),
            "superseded copy must serve under the bound"
        );
        // A strict plan for the same term falls through to a fetch.
        let versions: HashMap<String, u64> =
            [(Analyzer::stem("honey"), 3u64)].into_iter().collect();
        let p = plan(SearchRequest::new("honey"), &mut cache, &versions).unwrap();
        assert!(matches!(per_term(&p).0[0].plan, TermPlan::Fetch { .. }));
    }
}

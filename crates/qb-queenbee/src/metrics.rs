//! Metrics used across the experiment suite: freshness, honey distribution
//! and inequality (Gini), plus the query-serving cache counters.

use qb_chain::{AccountId, Blockchain};
use std::collections::HashMap;
use std::fmt;

pub use qb_cache::{CacheMetrics, TierMetrics};

/// Human-readable view over the per-tier cache counters, for experiment
/// tables and example output. Wraps the snapshot returned by
/// [`crate::QueenBee::cache_metrics`].
#[derive(Debug, Clone, Copy)]
pub struct CacheReport(pub CacheMetrics);

impl CacheReport {
    /// `(tier name, counters)` rows in a fixed order.
    pub fn rows(&self) -> [(&'static str, TierMetrics); 3] {
        [
            ("result", self.0.result),
            ("shard", self.0.shard),
            ("negative", self.0.negative),
        ]
    }
}

impl qb_trace::MetricsSource for CacheReport {
    fn metrics_into(&self, out: &mut qb_trace::MetricsSnapshot) {
        for (name, t) in self.rows() {
            out.add_counter(&format!("cache.{name}.hits"), t.hits);
            out.add_counter(&format!("cache.{name}.misses"), t.misses);
            out.add_counter(&format!("cache.{name}.insertions"), t.insertions);
            out.add_counter(&format!("cache.{name}.evictions"), t.evictions);
            out.add_counter(&format!("cache.{name}.expirations"), t.expirations);
            out.add_counter(&format!("cache.{name}.invalidations"), t.invalidations);
            out.add_counter(
                &format!("cache.{name}.admission_rejections"),
                t.admission_rejections,
            );
        }
    }
}

impl fmt::Display for CacheReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, t) in self.rows() {
            writeln!(
                f,
                "{name:>8} tier: {:>5} hits / {:>5} lookups ({:5.1}% hit rate), {} insertions, {} evictions, {} expirations, {} invalidations",
                t.hits,
                t.lookups(),
                100.0 * t.hit_rate(),
                t.insertions,
                t.evictions,
                t.expirations,
                t.invalidations,
            )?;
        }
        Ok(())
    }
}

/// Engine-lifetime counters of the query-serving path: how much
/// intersect/score CPU actually ran, how many scored lists the result tier
/// had built, and how much traffic went through the pipeline.
/// Returned by [`crate::QueenBee::query_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryEngineStats {
    /// Intersect+score computations: one for each query that neither the
    /// result tier answered nor [`window_memo_hits`](Self::window_memo_hits)
    /// counts, whichever entry point served it.
    pub score_invocations: u64,
    /// Whole scored lists materialised, each for a result tier that
    /// admitted the entry. A computation nothing keeps the list of builds
    /// only its response's page and counts nothing here, and a reuse
    /// builds none.
    pub scored_lists_built: u64,
    /// Queries the result tier did not answer that scored nothing: their
    /// reads served the very term versions, statistics and rank round the
    /// serving cache's resident list was scored from, so that list, bit
    /// for bit, was paged and offered to the tier again. Mostly `Fresh`
    /// reads of a warm query, and repeats within one window.
    pub window_memo_hits: u64,
    /// Windows executed by the pipelined engine.
    pub pipelined_windows: u64,
    /// Queries served through the pipelined engine.
    pub pipelined_queries: u64,
}

impl qb_trace::MetricsSource for QueryEngineStats {
    fn metrics_into(&self, out: &mut qb_trace::MetricsSnapshot) {
        out.add_counter("query.score_invocations", self.score_invocations);
        out.add_counter("query.scored_lists_built", self.scored_lists_built);
        out.add_counter("query.window_memo_hits", self.window_memo_hits);
        out.add_counter("query.pipelined_windows", self.pipelined_windows);
        out.add_counter("query.pipelined_queries", self.pipelined_queries);
    }
}

/// Measures how fresh search results are relative to the registry's current
/// page versions — the quantity behind the paper's "crawling inevitably
/// reduces the freshness of the search results".
#[derive(Debug, Clone, Default)]
pub struct FreshnessProbe {
    /// Results whose indexed version equals the currently registered version.
    pub fresh_results: u64,
    /// Results whose indexed version lags the registered version.
    pub stale_results: u64,
}

impl FreshnessProbe {
    /// Record one result given its indexed version and the registry's current
    /// version of the same page.
    pub fn record(&mut self, indexed_version: u64, current_version: u64) {
        if indexed_version >= current_version {
            self.fresh_results += 1;
        } else {
            self.stale_results += 1;
        }
    }

    /// Fraction of results that were stale (0.0 when nothing was recorded).
    pub fn staleness_rate(&self) -> f64 {
        let total = self.fresh_results + self.stale_results;
        if total == 0 {
            0.0
        } else {
            self.stale_results as f64 / total as f64
        }
    }
}

/// Gini coefficient of a set of values (0 = perfectly equal, → 1 = one actor
/// holds everything). Used to characterise the honey distribution across
/// creators and bees in the incentive-fairness experiment (E5).
pub fn gini_coefficient(values: &[u64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<f64> = values.iter().map(|&v| v as f64).collect();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = sorted.len() as f64;
    let total: f64 = sorted.iter().sum();
    if total == 0.0 {
        return 0.0;
    }
    let mut cumulative = 0.0;
    let mut weighted = 0.0;
    for v in &sorted {
        cumulative += v;
        weighted += cumulative;
    }
    // Gini = (n + 1 - 2 * sum_i cum_i / total) / n
    ((n + 1.0) - 2.0 * (weighted / total)) / n
}

/// Honey held by each stakeholder class, used by the incentive experiment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HoneyByRole {
    /// Content creators' total balance.
    pub creators: u64,
    /// Worker bees' total balance.
    pub bees: u64,
    /// Advertisers' total remaining balance.
    pub advertisers: u64,
    /// Treasury balance.
    pub treasury: u64,
    /// Everything else (escrow accounts, validators, scrapers, ...).
    pub other: u64,
}

impl HoneyByRole {
    /// Compute the split given the role of each known account.
    pub fn from_chain(
        chain: &Blockchain,
        creators: &[AccountId],
        bees: &[AccountId],
        advertisers: &[AccountId],
    ) -> HoneyByRole {
        let mut split = HoneyByRole::default();
        let creator_set: HashMap<u64, ()> = creators.iter().map(|a| (a.0, ())).collect();
        let bee_set: HashMap<u64, ()> = bees.iter().map(|a| (a.0, ())).collect();
        let adv_set: HashMap<u64, ()> = advertisers.iter().map(|a| (a.0, ())).collect();
        for (account, balance) in chain.accounts().balances() {
            if account == qb_chain::TREASURY {
                split.treasury += balance;
            } else if creator_set.contains_key(&account.0) {
                split.creators += balance;
            } else if bee_set.contains_key(&account.0) {
                split.bees += balance;
            } else if adv_set.contains_key(&account.0) {
                split.advertisers += balance;
            } else {
                split.other += balance;
            }
        }
        split
    }

    /// Total honey accounted for.
    pub fn total(&self) -> u64 {
        self.creators + self.bees + self.advertisers + self.treasury + self.other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn freshness_probe_accumulates() {
        let mut p = FreshnessProbe::default();
        assert_eq!(p.staleness_rate(), 0.0);
        p.record(3, 3); // fresh
        p.record(1, 3); // stale
        p.record(2, 2); // fresh
        p.record(1, 4); // stale
        assert_eq!(p.fresh_results, 2);
        assert_eq!(p.stale_results, 2);
        assert!((p.staleness_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn gini_extremes() {
        assert_eq!(gini_coefficient(&[]), 0.0);
        assert_eq!(gini_coefficient(&[0, 0, 0]), 0.0);
        let equal = gini_coefficient(&[100, 100, 100, 100]);
        assert!(equal.abs() < 1e-9, "equal distribution gini={equal}");
        let unequal = gini_coefficient(&[0, 0, 0, 1000]);
        assert!(unequal > 0.7, "concentrated distribution gini={unequal}");
        // More skew → higher gini.
        assert!(gini_coefficient(&[1, 1, 1, 97]) > gini_coefficient(&[20, 25, 25, 30]));
    }

    #[test]
    fn honey_by_role_partitions_supply() {
        let mut chain = Blockchain::new();
        let creator = AccountId(1_000);
        let bee = AccountId(2_000);
        let adv = AccountId(5_000);
        chain.fund_from_treasury(creator, 100).unwrap();
        chain.fund_from_treasury(bee, 200).unwrap();
        chain.fund_from_treasury(adv, 300).unwrap();
        chain.fund_from_treasury(AccountId(9_999), 50).unwrap();
        let split = HoneyByRole::from_chain(&chain, &[creator], &[bee], &[adv]);
        assert_eq!(split.creators, 100);
        assert_eq!(split.bees, 200);
        assert_eq!(split.advertisers, 300);
        assert_eq!(split.other, 50);
        assert_eq!(split.total(), chain.accounts().total_supply());
    }
}

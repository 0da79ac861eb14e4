//! Per-tier cache counters.

/// Counters for one cache tier. All counters are cumulative since engine
/// start; snapshot and diff to rate-limit windows externally.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierMetrics {
    /// Lookups served from the tier.
    pub hits: u64,
    /// Lookups the tier could not serve.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted for capacity.
    pub evictions: u64,
    /// Lookups rejected because the entry's TTL had lapsed.
    pub expirations: u64,
    /// Entries dropped because their recorded version no longer matched the
    /// caller's current version, or (shard and negative tiers only) because
    /// of explicit publish-path invalidation.
    pub invalidations: u64,
    /// Insertions refused by the sampled-LFU admission filter.
    pub admission_rejections: u64,
}

impl TierMetrics {
    /// Hit rate over all lookups (0.0 when none were made).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fold another tier's counters in (fleet-wide aggregation).
    pub fn merge(&mut self, other: &TierMetrics) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.insertions += other.insertions;
        self.evictions += other.evictions;
        self.expirations += other.expirations;
        self.invalidations += other.invalidations;
        self.admission_rejections += other.admission_rejections;
    }
}

/// Snapshot of every tier's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheMetrics {
    /// Result-tier counters.
    pub result: TierMetrics,
    /// Shard-tier counters.
    pub shard: TierMetrics,
    /// Negative-tier counters.
    pub negative: TierMetrics,
}

impl CacheMetrics {
    /// Total invalidations across tiers: version checks in every tier, plus
    /// publish-path purges of shard and negative entries. A superseded
    /// result no lookup reaches again is never counted.
    pub fn total_invalidations(&self) -> u64 {
        self.result.invalidations + self.shard.invalidations + self.negative.invalidations
    }

    /// Total evictions across tiers.
    pub fn total_evictions(&self) -> u64 {
        self.result.evictions + self.shard.evictions + self.negative.evictions
    }

    /// Fold another snapshot in (aggregate view over a frontend fleet).
    pub fn merge(&mut self, other: &CacheMetrics) {
        self.result.merge(&other.result);
        self.shard.merge(&other.shard);
        self.negative.merge(&other.negative);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_handles_empty_and_mixed() {
        let mut t = TierMetrics::default();
        assert_eq!(t.hit_rate(), 0.0);
        t.hits = 3;
        t.misses = 1;
        assert!((t.hit_rate() - 0.75).abs() < 1e-12);
        assert_eq!(t.lookups(), 4);
    }

    #[test]
    fn totals_sum_tiers() {
        let m = CacheMetrics {
            result: TierMetrics {
                invalidations: 2,
                evictions: 1,
                ..Default::default()
            },
            shard: TierMetrics {
                invalidations: 3,
                evictions: 4,
                ..Default::default()
            },
            negative: TierMetrics {
                invalidations: 5,
                evictions: 6,
                ..Default::default()
            },
        };
        assert_eq!(m.total_invalidations(), 10);
        assert_eq!(m.total_evictions(), 11);
    }
}

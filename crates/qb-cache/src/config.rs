//! Cache configuration.

use qb_common::{QbError, QbResult, SimDuration};

/// Which eviction policy a tier runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvictionPolicy {
    /// Evict the least-recently-used entry.
    Lru,
    /// TinyLFU-style sampled admission: when full, the incoming key must be
    /// estimated more frequent than the coldest of `sample` LRU victims,
    /// otherwise it is not admitted at all. Protects the hot working set
    /// from being flushed by long tails of one-off queries.
    SampledLfu {
        /// How many LRU-ordered victims to compare against per admission.
        sample: usize,
    },
}

impl Default for EvictionPolicy {
    fn default() -> Self {
        EvictionPolicy::SampledLfu { sample: 5 }
    }
}

/// Time-to-live of negative entries. Kept shorter than the other tiers: a
/// negative entry suppresses DHT lookups entirely, so this bounds how long a
/// term published by *another* frontend could go unnoticed.
pub const NEGATIVE_TTL: SimDuration = SimDuration::from_secs(60);

/// Configuration of the query-serving cache.
///
/// Defaults are sized for simulation-scale deployments (tens of kilobytes
/// per tier); production would scale the budgets up by orders of magnitude.
/// The cache ships **disabled** so the engine keeps its uncached seed
/// behavior unless a deployment opts in.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Master switch; when false the engine never consults the cache.
    pub enabled: bool,
    /// Byte budget of the result tier.
    pub result_capacity_bytes: usize,
    /// Byte budget of the shard tier.
    pub shard_capacity_bytes: usize,
    /// Byte budget of the negative tier (entries are tiny; this mostly
    /// bounds the number of remembered absent terms).
    pub negative_capacity_bytes: usize,
    /// Time-to-live of result entries (simulated time).
    pub result_ttl: SimDuration,
    /// Time-to-live of shard entries.
    pub shard_ttl: SimDuration,
    /// Eviction/admission policy used by all tiers.
    pub policy: EvictionPolicy,
    /// Latency charged for answering from the local cache (memory lookup +
    /// local scoring; orders of magnitude below a DHT round-trip).
    pub hit_latency: SimDuration,
    /// Scale each term's shard-tier TTL with its observed republish rate
    /// instead of the single `shard_ttl` knob: a term with an estimated
    /// republish interval `I` gets a TTL of `I / 2` clamped to the
    /// floor/ceiling below; a term never observed to change after its
    /// initial index counts as archival and gets `adaptive_ttl_ceiling`.
    pub adaptive_ttl: bool,
    /// Lower bound of the adapted shard TTL (hot, constantly-updated terms).
    pub adaptive_ttl_floor: SimDuration,
    /// Upper bound of the adapted shard TTL (archival terms that were never
    /// observed to be republished).
    pub adaptive_ttl_ceiling: SimDuration,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: false,
            result_capacity_bytes: 256 * 1024,
            shard_capacity_bytes: 512 * 1024,
            negative_capacity_bytes: 16 * 1024,
            result_ttl: SimDuration::from_secs(300),
            shard_ttl: SimDuration::from_secs(600),
            policy: EvictionPolicy::default(),
            hit_latency: SimDuration::from_micros(120),
            adaptive_ttl: true,
            adaptive_ttl_floor: SimDuration::from_secs(5),
            adaptive_ttl_ceiling: SimDuration::from_secs(1_800),
        }
    }
}

impl CacheConfig {
    /// An enabled configuration with the default knobs.
    pub fn enabled() -> CacheConfig {
        CacheConfig {
            enabled: true,
            ..CacheConfig::default()
        }
    }

    /// A small enabled configuration for unit tests.
    pub fn small() -> CacheConfig {
        CacheConfig {
            enabled: true,
            result_capacity_bytes: 8 * 1024,
            shard_capacity_bytes: 16 * 1024,
            negative_capacity_bytes: 2 * 1024,
            ..CacheConfig::default()
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> QbResult<()> {
        if !self.enabled {
            return Ok(());
        }
        if self.result_capacity_bytes == 0
            || self.shard_capacity_bytes == 0
            || self.negative_capacity_bytes == 0
        {
            return Err(QbError::Config(
                "cache tier byte budgets must be positive when the cache is enabled".into(),
            ));
        }
        if self.result_ttl == SimDuration::ZERO || self.shard_ttl == SimDuration::ZERO {
            return Err(QbError::Config(
                "cache TTLs must be positive when the cache is enabled".into(),
            ));
        }
        if let EvictionPolicy::SampledLfu { sample } = self.policy {
            if sample == 0 {
                return Err(QbError::Config(
                    "sampled-LFU sample width must be positive".into(),
                ));
            }
        }
        if self.adaptive_ttl {
            if self.adaptive_ttl_floor == SimDuration::ZERO {
                return Err(QbError::Config(
                    "adaptive TTL floor must be positive when adaptive TTLs are on".into(),
                ));
            }
            if self.adaptive_ttl_floor > self.adaptive_ttl_ceiling {
                return Err(QbError::Config(format!(
                    "adaptive TTL floor {} must not exceed the ceiling {}",
                    self.adaptive_ttl_floor, self.adaptive_ttl_ceiling
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_disabled_and_valid() {
        let c = CacheConfig::default();
        assert!(!c.enabled);
        assert!(c.validate().is_ok());
        assert!(CacheConfig::enabled().enabled);
        assert!(CacheConfig::enabled().validate().is_ok());
        assert!(CacheConfig::small().validate().is_ok());
    }

    #[test]
    fn invalid_enabled_configs_are_rejected() {
        let mut c = CacheConfig::enabled();
        c.result_capacity_bytes = 0;
        assert!(c.validate().is_err());

        let mut c = CacheConfig::enabled();
        c.shard_ttl = SimDuration::ZERO;
        assert!(c.validate().is_err());

        let mut c = CacheConfig::enabled();
        c.policy = EvictionPolicy::SampledLfu { sample: 0 };
        assert!(c.validate().is_err());

        let mut c = CacheConfig::enabled();
        c.adaptive_ttl_floor = SimDuration::ZERO;
        assert!(c.validate().is_err());

        let mut c = CacheConfig::enabled();
        c.adaptive_ttl_floor = c.adaptive_ttl_ceiling + SimDuration::from_secs(1);
        assert!(c.validate().is_err());
        c.adaptive_ttl = false;
        assert!(
            c.validate().is_ok(),
            "bounds are ignored when adaptive is off"
        );

        // A disabled config is valid regardless of the other knobs.
        let c = CacheConfig {
            result_capacity_bytes: 0,
            ..CacheConfig::default()
        };
        assert!(c.validate().is_ok());
    }
}

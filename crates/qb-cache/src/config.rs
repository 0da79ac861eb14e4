//! Cache configuration.
//!
//! [`CacheConfig`] holds what deployments actually vary: the master switch,
//! the result and shard tiers' byte budgets, the result TTL and the latency
//! of a local hit. Everything every deployment runs at the same value is a
//! constant here instead: the admission sample width, the negative tier's
//! budget and TTL, and the floor and ceiling of the adaptive shard TTL.

use qb_common::{QbError, QbResult, SimDuration};

/// Time-to-live of negative entries. Kept shorter than the other tiers: a
/// negative entry suppresses DHT lookups entirely, so this bounds how long a
/// term published by *another* frontend could go unnoticed.
pub const NEGATIVE_TTL: SimDuration = SimDuration::from_secs(60);

/// Byte budget of the negative tier (entries are tiny; this mostly bounds
/// the number of remembered absent terms).
pub const NEGATIVE_CAPACITY_BYTES: usize = 16 * 1024;

/// How many least-recently-used residents every tier's sampled-LFU
/// admission compares an incoming key against (TinyLFU style: when full,
/// the incoming key must be estimated at least as frequent as the coldest
/// of them, otherwise it is not admitted at all — so long tails of one-off
/// queries cannot flush the hot working set).
pub const LFU_SAMPLE: usize = 5;

/// Lower bound of the adapted shard TTL (hot, constantly-updated terms).
pub const ADAPTIVE_TTL_FLOOR: SimDuration = SimDuration::from_secs(5);

/// Upper bound of the adapted shard TTL: what an archival term — one never
/// observed to be republished — is cached for.
pub const ADAPTIVE_TTL_CEILING: SimDuration = SimDuration::from_secs(1_800);

/// Configuration of the query-serving cache.
///
/// Defaults are sized for simulation-scale deployments (tens of kilobytes
/// per tier); production would scale the budgets up by orders of magnitude.
/// The cache ships **disabled** so the engine keeps its uncached seed
/// behavior unless a deployment opts in.
///
/// Shard entries have no TTL knob: each term's TTL scales with its observed
/// republish rate — a term with an estimated republish interval `I` gets
/// `I / 2` clamped to [`ADAPTIVE_TTL_FLOOR`]..=[`ADAPTIVE_TTL_CEILING`], and
/// a term never observed to change after its initial index gets the
/// ceiling.
#[derive(Debug, Clone, PartialEq)]
pub struct CacheConfig {
    /// Master switch; when false the engine never consults the cache.
    pub enabled: bool,
    /// Byte budget of the result tier.
    pub result_capacity_bytes: usize,
    /// Byte budget of the shard tier.
    pub shard_capacity_bytes: usize,
    /// Time-to-live of result entries (simulated time).
    pub result_ttl: SimDuration,
    /// Latency charged for answering from the local cache (memory lookup +
    /// local scoring; orders of magnitude below a DHT round-trip).
    pub hit_latency: SimDuration,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            enabled: false,
            result_capacity_bytes: 256 * 1024,
            shard_capacity_bytes: 512 * 1024,
            result_ttl: SimDuration::from_secs(300),
            hit_latency: SimDuration::from_micros(120),
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
            ..CacheConfig::default()
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> QbResult<()> {
        if !self.enabled {
            return Ok(());
        }
        if self.result_capacity_bytes == 0 || self.shard_capacity_bytes == 0 {
            return Err(QbError::Config(
                "cache tier byte budgets must be positive when the cache is enabled".into(),
            ));
        }
        if self.result_ttl == SimDuration::ZERO {
            return Err(QbError::Config(
                "the result TTL must be positive when the cache is enabled".into(),
            ));
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
        c.shard_capacity_bytes = 0;
        assert!(c.validate().is_err());

        let mut c = CacheConfig::enabled();
        c.result_ttl = SimDuration::ZERO;
        assert!(c.validate().is_err());

        // A disabled config is valid regardless of the other knobs.
        let c = CacheConfig {
            result_capacity_bytes: 0,
            ..CacheConfig::default()
        };
        assert!(c.validate().is_ok());
    }
}

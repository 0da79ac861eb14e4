//! Gossip overlay configuration.
//!
//! [`GossipConfig`] holds what deployments and experiments actually vary:
//! the switches, fleet size, anti-entropy cadence, hot-set and fill
//! budgets, digest encoding and the zone features. Protocol parameters
//! every deployment runs at the same value are constants here — round
//! cadence, fanout, filter density, membership summaries, the zone fill
//! budgets and escape probability, liveness timeout, failure threshold and
//! the sampling seed — the way IPFS fixes its republish and expiry periods.

use qb_common::{QbError, QbResult, SimDuration};

/// How hot-set digests are encoded on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DigestMode {
    /// Every exchange ships the full hot set as `(term, version)` pairs —
    /// the PR 2 protocol, kept for comparison runs (E12 measures the delta
    /// encoding against it).
    Full,
    /// Exchanges ship only the entries that changed since the last exchange
    /// with that peer, plus a compact bloom-style filter over the sender's
    /// current holdings; periodic anti-entropy rounds still swap full
    /// digests as the exact safety net. Steady-state digest bytes drop an
    /// order of magnitude (asserted in E12).
    Delta,
}

/// Gossip partners each frontend contacts per round.
pub const FANOUT: usize = 2;

/// Simulated time between gossip rounds.
pub const ROUND_INTERVAL: SimDuration = SimDuration::from_millis(200);

/// Bits per holding entry in the delta digests' membership filter (larger =
/// fewer false positives = fewer fills delayed to the next anti-entropy
/// round).
pub const FILTER_BITS_PER_ENTRY: usize = 8;

/// Other-member entries per membership summary piggybacked on a regular
/// exchange (the sender itself always rides along; the roster rotates through
/// a window of this size, so membership overhead stays flat as the fleet
/// grows). Anti-entropy and bootstrap exchanges always carry the full roster.
pub const MEMBERSHIP_SUMMARY_BUDGET: usize = 16;

/// Same-zone fill-budget multiplier when `zone_fill_budgets` is on.
pub const INTRA_ZONE_FILL_BOOST: usize = 2;

/// Cross-zone fill cap per exchange direction when `zone_fill_budgets` is
/// on (never above `max_fills_per_exchange`).
pub const CROSS_ZONE_FILL_BUDGET: usize = 4;

/// Probability that a partner pick escapes to a different zone when
/// same-zone candidates exist (the fleet-wide convergence links).
pub const CROSS_ZONE_PROBABILITY: f64 = 0.15;

/// A member not heard from (directly or via gossiped heartbeats) for this
/// long is marked dead and evicted from the sample set.
pub const LIVENESS_TIMEOUT: SimDuration = SimDuration::from_secs(2);

/// Consecutive failed direct exchanges after which a member is marked dead
/// without waiting for [`LIVENESS_TIMEOUT`].
pub const FAILURE_THRESHOLD: u32 = 3;

/// Seed of the overlay's peer sampling (combined with the engine seed).
pub const GOSSIP_SEED: u64 = 0x6055;

/// Configuration of the cooperative cache-gossip overlay.
///
/// Two independent knobs control the feature:
///
/// * `num_frontends` sizes the **fleet**: a cache-on engine runs that many
///   query frontends, each with its own private query-serving cache (at
///   least one: 0 runs a fleet of one). Without gossip this is the
///   cold-start baseline E10 measures against.
/// * `enabled` turns on the **gossip exchange** between those frontends:
///   periodic digest/fill rounds plus slower anti-entropy reconciliation.
///
/// They default to one frontend and no gossip.
///
/// The overlay is **churn-aware**: frontends may join (bootstrapping their
/// cache by anti-entropy from a live neighbour), leave gracefully or crash;
/// liveness is tracked through gossiped heartbeats, and dead members are
/// evicted from the sample set after [`LIVENESS_TIMEOUT`] of silence or
/// [`FAILURE_THRESHOLD`] consecutive failed exchanges. It is **zone-aware**:
/// with `zones > 1` each frontend carries a latency-zone label (matching
/// `qb-simnet`'s `peer % zones` assignment) and partner sampling prefers
/// the own zone, escaping cross-zone with [`CROSS_ZONE_PROBABILITY`].
#[derive(Debug, Clone, PartialEq)]
pub struct GossipConfig {
    /// Master switch for the gossip exchange between frontends.
    pub enabled: bool,
    /// Number of query frontends in the fleet (0 = the default: a cache-on
    /// engine runs a fleet of one frontend on peer 0).
    pub num_frontends: usize,
    /// Simulated time between anti-entropy rounds. An anti-entropy exchange
    /// digests the *entire* shard tier instead of just the hot set, so two
    /// frontends reconcile fully after a partition heals — and it may sample
    /// members currently believed dead, re-establishing contact after a
    /// partition or crash recovery.
    pub anti_entropy_interval: SimDuration,
    /// Terms per digest in a regular (hot-set) round.
    pub hot_set_size: usize,
    /// Upper bound on shard fills sent per exchange direction, so one
    /// exchange can never turn into a bulk transfer. A join's bootstrap
    /// exchange is allowed `max(hot_set_size, max_fills_per_exchange)`.
    pub max_fills_per_exchange: usize,
    /// Digest encoding for regular rounds (anti-entropy always swaps full
    /// digests).
    pub digest_mode: DigestMode,
    /// Number of latency zones frontends are spread over (round-robin by
    /// peer id, matching `qb-simnet`'s zone assignment). 1 = zone-unaware.
    pub zones: usize,
    /// Zone-aware fill budgets: regular-round fills to a same-zone partner
    /// get [`INTRA_ZONE_FILL_BOOST`] × `max_fills_per_exchange` (bulk transfer
    /// is cheap inside a zone), while fills crossing zones are capped at
    /// [`CROSS_ZONE_FILL_BUDGET`] (the expensive links carry digests and only
    /// a trickle of the hottest shards; anti-entropy and bootstrap budgets
    /// are never scaled). Off by default so existing overlays keep their
    /// exact byte profile.
    pub zone_fill_budgets: bool,
    /// Zone-aware anti-entropy: when an anti-entropy round finds terms the
    /// frontend knows about but does not hold, it first tries to redirect
    /// one partner slot to an in-zone live member whose advertised holdings
    /// (or holdings `ShardFilter`) confirm it covers the missing shards —
    /// filling over the cheap links. The remaining sampled partners (which
    /// may be cross-zone or dead-probes) are untouched, and with no
    /// qualified in-zone candidate the round samples exactly as before, so
    /// the anti-entropy safety role is unweakened. Off by default.
    pub zone_aware_anti_entropy: bool,
    /// Batch-aware gossip: a batch window's freshly fetched shard keys are
    /// queued on the serving frontend and ride its next digest round as
    /// priority advertisements (and priority fills), even when hot-set
    /// popularity alone would not have promoted them yet — warming the
    /// rest of the fleet one round earlier. Only multi-query batch windows
    /// queue advertisements, so single-query serving keeps the exact PR 4
    /// protocol.
    pub batch_advertise: bool,
}

impl Default for GossipConfig {
    fn default() -> Self {
        GossipConfig {
            enabled: false,
            num_frontends: 0,
            anti_entropy_interval: SimDuration::from_secs(2),
            hot_set_size: 64,
            max_fills_per_exchange: 16,
            digest_mode: DigestMode::Delta,
            zones: 1,
            zone_fill_budgets: false,
            zone_aware_anti_entropy: false,
            batch_advertise: true,
        }
    }
}

impl GossipConfig {
    /// `n` frontends with private caches and no gossip (the cold-start
    /// baseline).
    pub fn fleet(n: usize) -> GossipConfig {
        GossipConfig {
            num_frontends: n,
            ..GossipConfig::default()
        }
    }

    /// `n` frontends with the gossip exchange on.
    pub fn enabled(n: usize) -> GossipConfig {
        GossipConfig {
            enabled: true,
            num_frontends: n,
            ..GossipConfig::default()
        }
    }

    /// `n` frontends with gossip on, spread over `zones` latency
    /// zones (pair with a zoned `qb-simnet` latency model so the bias maps
    /// to real round latency).
    pub fn enabled_zoned(n: usize, zones: usize) -> GossipConfig {
        GossipConfig {
            zones,
            ..GossipConfig::enabled(n)
        }
    }

    /// The fill budget of a join's bootstrap anti-entropy exchange.
    pub fn bootstrap_fill_budget(&self) -> usize {
        self.hot_set_size.max(self.max_fills_per_exchange)
    }

    /// The fill budget of a regular round's exchange, given whether the two
    /// partners share a latency zone. With `zone_fill_budgets` off this is
    /// always `max_fills_per_exchange`.
    pub fn regular_fill_budget(&self, same_zone: bool) -> usize {
        if !self.zone_fill_budgets {
            self.max_fills_per_exchange
        } else if same_zone {
            self.max_fills_per_exchange * INTRA_ZONE_FILL_BOOST
        } else {
            CROSS_ZONE_FILL_BUDGET.min(self.max_fills_per_exchange)
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> QbResult<()> {
        if self.num_frontends == 0 {
            if self.enabled {
                return Err(QbError::Config(
                    "gossip requires a frontend fleet (num_frontends >= 2)".into(),
                ));
            }
            return Ok(());
        }
        if !self.enabled {
            return Ok(());
        }
        if self.num_frontends < 2 {
            return Err(QbError::Config(
                "gossip needs at least 2 frontends to exchange with".into(),
            ));
        }
        if self.anti_entropy_interval == SimDuration::ZERO {
            return Err(QbError::Config(
                "gossip anti-entropy interval must be positive".into(),
            ));
        }
        if self.hot_set_size == 0 || self.max_fills_per_exchange == 0 {
            return Err(QbError::Config(
                "gossip hot-set size and fill budget must be positive".into(),
            ));
        }
        if self.zones == 0 {
            return Err(QbError::Config("gossip zones must be positive".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_off_and_valid() {
        let c = GossipConfig::default();
        assert!(!c.enabled);
        assert_eq!(c.num_frontends, 0);
        assert_eq!(c.digest_mode, DigestMode::Delta);
        assert_eq!(c.zones, 1);
        assert!(c.validate().is_ok());
        assert!(GossipConfig::fleet(4).validate().is_ok());
        assert!(GossipConfig::enabled(4).validate().is_ok());
        let z = GossipConfig::enabled_zoned(8, 4);
        assert_eq!(z.zones, 4);
        assert!(z.validate().is_ok());
        assert_eq!(z.bootstrap_fill_budget(), z.hot_set_size);
    }

    #[test]
    fn zone_fill_budgets_scale_by_zone() {
        let mut c = GossipConfig::enabled_zoned(8, 4);
        // Off: both directions get the flat budget.
        assert_eq!(c.regular_fill_budget(true), c.max_fills_per_exchange);
        assert_eq!(c.regular_fill_budget(false), c.max_fills_per_exchange);
        c.zone_fill_budgets = true;
        assert_eq!(
            c.regular_fill_budget(true),
            c.max_fills_per_exchange * INTRA_ZONE_FILL_BOOST
        );
        assert_eq!(c.regular_fill_budget(false), CROSS_ZONE_FILL_BUDGET);
        // The cross-zone cap never exceeds the flat budget.
        c.max_fills_per_exchange = CROSS_ZONE_FILL_BUDGET - 1;
        assert_eq!(c.regular_fill_budget(false), c.max_fills_per_exchange);
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = GossipConfig::enabled(4);
        c.num_frontends = 0;
        assert!(c.validate().is_err());

        let mut c = GossipConfig::enabled(1);
        assert!(c.validate().is_err());
        c.num_frontends = 2;
        assert!(c.validate().is_ok());

        let mut c = GossipConfig::enabled(4);
        c.max_fills_per_exchange = 0;
        assert!(c.validate().is_err());

        let mut c = GossipConfig::enabled(4);
        c.zones = 0;
        assert!(c.validate().is_err());

        let mut c = GossipConfig::enabled(4);
        c.zone_fill_budgets = true;
        assert!(c.validate().is_ok());

        // Fleet without gossip tolerates degenerate gossip knobs.
        let mut c = GossipConfig::fleet(1);
        c.max_fills_per_exchange = 0;
        assert!(c.validate().is_ok());
    }
}

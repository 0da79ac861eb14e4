//! Engine configuration.

use qb_cache::CacheConfig;
use qb_dht::DhtConfig;
use qb_gossip::GossipConfig;
use qb_rank::DecentralizedPageRank;
use qb_simnet::NetConfig;
use qb_storage::StorageConfig;

/// Jaccard-similarity threshold above which a publish is rejected as a mirror
/// of an existing page owned by someone else (when
/// [`QueenBeeConfig::duplicate_detection`] is on).
pub const DUPLICATE_THRESHOLD: f64 = 0.8;

/// Stake each bee deposits at registration (slashable).
pub const BEE_STAKE: u64 = 1_000;

/// Honey slashed from a bee caught submitting manipulated data.
pub const SLASH_AMOUNT: u64 = 500;

/// Configuration of a QueenBee deployment.
#[derive(Debug, Clone)]
pub struct QueenBeeConfig {
    /// Number of simulated peers (devices) in the DWeb.
    pub num_peers: usize,
    /// Number of worker bees (each bee runs on one peer).
    pub num_bees: usize,
    /// Network model.
    pub net: NetConfig,
    /// DHT parameters.
    pub dht: DhtConfig,
    /// Storage parameters (replication, chunking, caches).
    pub storage: StorageConfig,
    /// Decentralized PageRank parameters (blocks, quorum, tolerance).
    pub rank: DecentralizedPageRank,
    /// Indexing verification quorum: number of bees independently indexing
    /// each published page version. 1 disables the collusion defense.
    pub index_quorum: usize,
    /// Weight of PageRank when blending with BM25 in the frontend.
    pub rank_weight: f64,
    /// Results returned per query.
    pub top_k: usize,
    /// Shards up to this encoded size are stored inline in DHT records.
    pub shard_inline_threshold: usize,
    /// Enable MinHash near-duplicate detection at publish time (the scraper
    /// defense).
    pub duplicate_detection: bool,
    /// Frontend query-serving cache (result/shard/negative tiers). Disabled
    /// by default so deployments keep the uncached seed behavior. Its knobs
    /// are the switch, the result and shard budgets, the result TTL and the
    /// hit latency; sampled-LFU admission, the adaptive shard TTL's bounds
    /// and the negative tier are fixed (`qb_cache::config`).
    pub cache: CacheConfig,
    /// Frontend fleet + cooperative cache-gossip overlay. Default-off; with
    /// `num_frontends > 0` the engine runs that many frontends with private
    /// caches (on peers `0..num_frontends`), and with `enabled` they gossip
    /// hot-shard digests and fills so one frontend's DHT fetch warms the
    /// rest of the fleet.
    pub gossip: GossipConfig,
    /// Writer-side segment compaction: accumulate published shards into
    /// pending index artifacts and periodically merge + publish them as
    /// content-addressed segments new frontends can bulk-bootstrap from.
    /// Default-off; with it off the engine never touches the segment path.
    pub segment: qb_segment::SegmentConfig,
    /// Open-loop admission control: bounded per-frontend ingress queues,
    /// load shedding and `Fresh` → `CacheOk` degradation. Always a value,
    /// never a switch: only [`crate::QueenBee::serve_open_loop`] consults
    /// it, so every closed-loop path keeps its exact behavior.
    pub admission: crate::query::admission::AdmissionConfig,
    /// Master seed; every random decision in the engine derives from it.
    pub seed: u64,
}

impl Default for QueenBeeConfig {
    fn default() -> Self {
        QueenBeeConfig {
            num_peers: 64,
            num_bees: 8,
            net: NetConfig::default(),
            dht: DhtConfig::default(),
            storage: StorageConfig::default(),
            rank: DecentralizedPageRank::default(),
            index_quorum: 3,
            rank_weight: 0.3,
            top_k: 10,
            shard_inline_threshold: 2048,
            duplicate_detection: true,
            cache: CacheConfig::default(),
            gossip: GossipConfig::default(),
            segment: qb_segment::SegmentConfig::default(),
            admission: crate::query::admission::AdmissionConfig::default(),
            seed: 0xBEE5,
        }
    }
}

impl QueenBeeConfig {
    /// A small, fast configuration for unit and integration tests.
    pub fn small() -> QueenBeeConfig {
        QueenBeeConfig {
            num_peers: 24,
            num_bees: 4,
            net: NetConfig::lan(),
            dht: DhtConfig::small(),
            storage: StorageConfig::small(),
            index_quorum: 3,
            ..QueenBeeConfig::default()
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), qb_common::QbError> {
        use qb_common::QbError;
        if self.num_peers == 0 {
            return Err(QbError::Config("num_peers must be positive".into()));
        }
        if self.num_bees == 0 || self.num_bees > self.num_peers {
            return Err(QbError::Config(format!(
                "num_bees must be in 1..={}, got {}",
                self.num_peers, self.num_bees
            )));
        }
        if self.index_quorum == 0 || self.index_quorum > self.num_bees {
            return Err(QbError::Config(format!(
                "index_quorum must be in 1..={}, got {}",
                self.num_bees, self.index_quorum
            )));
        }
        if !(0.0..=1.0).contains(&self.rank_weight) {
            return Err(QbError::Config("rank_weight must be within [0, 1]".into()));
        }
        self.cache.validate()?;
        self.gossip.validate()?;
        self.segment.validate().map_err(QbError::Config)?;
        if self.segment.enabled && !self.cache.enabled {
            return Err(QbError::Config(
                "segment compaction needs the query cache enabled (pending segments \
                 snapshot the writer cache's shard tier)"
                    .into(),
            ));
        }
        self.admission.validate()?;
        if self.gossip.num_frontends > 0 {
            if !self.cache.enabled {
                return Err(QbError::Config(
                    "a frontend fleet needs the query cache enabled (gossip fills land in its shard tier)"
                        .into(),
                ));
            }
            if self.gossip.num_frontends + self.num_bees > self.num_peers {
                return Err(QbError::Config(format!(
                    "num_frontends ({}) + num_bees ({}) must fit within num_peers ({})",
                    self.gossip.num_frontends, self.num_bees, self.num_peers
                )));
            }
            // Zone labels only mean something when they coincide with the
            // network's latency classes (both are `peer % zones`); a
            // mismatch would bias sampling toward labels with no latency
            // behind them while silently shrinking every sample pool.
            if self.gossip.enabled && self.gossip.zones > 1 && self.gossip.zones != self.net.zones {
                return Err(QbError::Config(format!(
                    "gossip zones ({}) must match the network's latency zones ({}) — \
                     pair GossipConfig::enabled_zoned(n, z) with NetConfig::zoned(z, ..)",
                    self.gossip.zones, self.net.zones
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
    fn defaults_validate() {
        assert!(QueenBeeConfig::default().validate().is_ok());
        assert!(QueenBeeConfig::small().validate().is_ok());
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = QueenBeeConfig::small();
        c.num_bees = 0;
        assert!(c.validate().is_err());
        let mut c = QueenBeeConfig::small();
        c.num_bees = c.num_peers + 1;
        assert!(c.validate().is_err());
        let mut c = QueenBeeConfig::small();
        c.index_quorum = c.num_bees + 1;
        assert!(c.validate().is_err());
        let mut c = QueenBeeConfig::small();
        c.rank_weight = 1.5;
        assert!(c.validate().is_err());
        let mut c = QueenBeeConfig::small();
        c.num_peers = 0;
        assert!(c.validate().is_err());
        // An enabled cache with a zero budget is invalid; disabled is fine.
        let mut c = QueenBeeConfig::small();
        c.cache = CacheConfig::enabled();
        c.cache.shard_capacity_bytes = 0;
        assert!(c.validate().is_err());
        c.cache.enabled = false;
        assert!(c.validate().is_ok());
        // A frontend fleet requires the cache and room next to the bees.
        let mut c = QueenBeeConfig::small();
        c.gossip = GossipConfig::enabled(4);
        assert!(c.validate().is_err(), "fleet without cache is invalid");
        c.cache = CacheConfig::enabled();
        assert!(c.validate().is_ok());
        c.gossip.num_frontends = c.num_peers;
        assert!(c.validate().is_err(), "fleet + bees must fit in the peers");
        // Gossip zone labels must coincide with the network's latency
        // zones; zone-unaware gossip (zones = 1) pairs with any network.
        let mut c = QueenBeeConfig::small();
        c.cache = CacheConfig::enabled();
        c.gossip = GossipConfig::enabled_zoned(4, 4);
        assert!(c.validate().is_err(), "zoned gossip over an unzoned net");
        c.net = qb_simnet::NetConfig::zoned(4, 2_000, 40_000);
        assert!(c.validate().is_ok());
        c.gossip.zones = 1;
        assert!(c.validate().is_ok(), "unzoned gossip runs on any net");
        // Segment compaction needs the cache; an enabled config with a
        // zero threshold is invalid.
        let mut c = QueenBeeConfig::small();
        c.segment = qb_segment::SegmentConfig::enabled();
        assert!(
            c.validate().is_err(),
            "segments without a cache are invalid"
        );
        c.cache = CacheConfig::enabled();
        assert!(c.validate().is_ok());
        c.segment.max_pending_terms = 0;
        assert!(c.validate().is_err());
        // Degenerate admission knobs are invalid.
        let mut c = QueenBeeConfig::small();
        assert!(c.validate().is_ok());
        c.admission.window_size = 0;
        assert!(c.validate().is_err());
    }
}

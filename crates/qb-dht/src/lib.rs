//! Kademlia distributed hash table over the simulated network.
//!
//! This is the routing substrate of the DWeb in the QueenBee vision: provider
//! records for content-addressed blocks, page-name registry pointers and
//! inverted-index shard pointers are all stored as DHT records at the `k`
//! nodes whose identifiers are closest (XOR metric) to the record key.
//!
//! The implementation follows the Kademlia paper: 256-bit keys, k-buckets
//! with least-recently-seen eviction policy, iterative α-parallel lookups,
//! `STORE`/`FIND_VALUE`/`FIND_NODE`/`ADD_PROVIDER`/`GET_PROVIDERS` RPCs, TTL
//! based record expiry and periodic republish. All traffic flows through
//! [`qb_simnet::SimNet`], so lookups observe latency, churn, partitions and
//! message loss, and every experiment can account hops, messages and bytes.
//!
//! Lookups are **event driven**: the per-lookup state machine in
//! [`lookup`] keeps up to α RPC handles in flight via
//! [`qb_simnet::SimNet::send_async_at`] and advances on completions, so
//! hops from different concurrent lookups interleave on contended links.
//! The synchronous entry points ([`DhtNetwork::get_record`],
//! [`DhtNetwork::get_providers`], …) drive the same machine eagerly.

#![forbid(unsafe_code)]

pub mod lookup;
pub mod network;
pub mod node;
pub mod routing;

pub use lookup::{HedgeStats, LookupMachine, LookupStep};
pub use network::{DhtNetwork, GetOutcome, LookupOutcome, PutOutcome};
pub use node::{DhtNode, Record};
pub use routing::RoutingTable;

/// The shared buffer a [`Record`]'s value lives in, named here so a holder
/// of record values needs no dependency of its own to keep one.
pub use bytes::Bytes;

/// Approximate request size in bytes used for traffic accounting.
pub const REQUEST_BYTES: usize = 72;

/// Approximate per-contact response size in bytes (node descriptors), used
/// for traffic accounting.
pub const CONTACT_BYTES: usize = 40;

/// Maximum number of iterative lookup rounds before giving up.
pub const MAX_ROUNDS: usize = 20;

/// Tunable parameters of the DHT.
#[derive(Debug, Clone)]
pub struct DhtConfig {
    /// Replication parameter: bucket size and number of storage replicas.
    pub k: usize,
    /// Lookup parallelism.
    pub alpha: usize,
    /// Hedged-fetch knobs (off by default).
    pub hedge: HedgeConfig,
}

/// Tail-cutting hedged fetches: a value lookup arms a timer at the
/// origin's adaptive p95 RTT and, on expiry, issues one extra speculative
/// RPC to the next-closest unqueried replica. The first version-satisfying
/// response wins and the loser is cancelled ([`qb_simnet::SimNet::cancel_async`]);
/// every hedge is charged to [`qb_simnet::NetStats`] like any other RPC
/// and attributed under `hedges_fired` / `hedges_won` /
/// `hedges_wasted_bytes`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HedgeConfig {
    /// Master switch. Off keeps the lookup path byte-identical to the
    /// unhedged machine.
    pub enabled: bool,
    /// Safety valve: at most this percentage of an origin's value fetches
    /// may fire a hedge (so a uniformly slow network cannot double total
    /// traffic). 5 means one hedge per twenty fetches.
    pub percent: u32,
    /// Observed successful RTTs an origin must accumulate before its p95
    /// is trusted to arm hedge timers.
    pub min_rtt_samples: u64,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            enabled: false,
            percent: 5,
            min_rtt_samples: 16,
        }
    }
}

impl HedgeConfig {
    /// An enabled configuration with the default budget knobs.
    pub fn enabled() -> HedgeConfig {
        HedgeConfig {
            enabled: true,
            ..HedgeConfig::default()
        }
    }
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig {
            k: 20,
            alpha: 3,
            hedge: HedgeConfig::default(),
        }
    }
}

impl DhtConfig {
    /// Small configuration used in unit tests (tiny networks).
    pub fn small() -> DhtConfig {
        DhtConfig {
            k: 4,
            alpha: 2,
            ..DhtConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = DhtConfig::default();
        assert!(c.k >= c.alpha);
        assert!(!c.hedge.enabled, "hedging is opt-in");
        assert!(c.hedge.percent > 0 && c.hedge.min_rtt_samples > 0);
        let s = DhtConfig::small();
        assert!(s.k < c.k);
    }

    #[test]
    fn hedge_config_enabled_keeps_the_budget_defaults() {
        let h = HedgeConfig::enabled();
        assert!(h.enabled);
        assert_eq!(h.percent, HedgeConfig::default().percent);
        assert_eq!(h.min_rtt_samples, HedgeConfig::default().min_rtt_samples);
    }
}

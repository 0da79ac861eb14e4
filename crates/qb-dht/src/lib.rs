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

pub use lookup::{LookupMachine, LookupStep};
pub use network::{DhtNetwork, GetOutcome, LookupOutcome, PutOutcome};
pub use node::{DhtNode, Record};
pub use routing::RoutingTable;

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
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig { k: 20, alpha: 3 }
    }
}

impl DhtConfig {
    /// Small configuration used in unit tests (tiny networks).
    pub fn small() -> DhtConfig {
        DhtConfig { k: 4, alpha: 2 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = DhtConfig::default();
        assert!(c.k >= c.alpha);
        let s = DhtConfig::small();
        assert!(s.k < c.k);
    }
}

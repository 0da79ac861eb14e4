//! Identifier types: node ids, content ids and DHT keys.
//!
//! All three live in the same 256-bit key space (as in Kademlia / IPFS),
//! which is what lets content be stored "at" the nodes whose ids are closest
//! to the content's key.

use crate::hash::{sha256, Hash256};
use std::fmt;

/// Identifier of a peer/node in the simulated DWeb. The small integer
/// `index` is the handle used by the network simulator; the 256-bit `key` is
/// the position of the node in the DHT key space (derived from the index so
/// that simulations are deterministic).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId {
    /// Dense index assigned by the simulator (0..n).
    pub index: u64,
    /// Position in the 256-bit Kademlia key space.
    pub key: Hash256,
}

impl NodeId {
    /// Derive a node id from a dense simulator index.
    pub fn from_index(index: u64) -> NodeId {
        let key = Hash256::digest_parts(&[b"node:", &index.to_be_bytes()]);
        NodeId { index, key }
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Node#{}({})", self.index, self.key.short())
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node#{}", self.index)
    }
}

/// Content identifier: the SHA-256 digest of the content bytes. Two contents
/// are identical exactly when their `Cid`s are equal, which is the basis of
/// the DWeb's tamper-proofness.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cid(pub Hash256);

impl Cid {
    /// Compute the cid of a blob.
    pub fn for_data(data: &[u8]) -> Cid {
        Cid(sha256(data))
    }

    /// The DHT key under which provider records for this content are stored.
    pub fn to_dht_key(&self) -> DhtKey {
        DhtKey(self.0)
    }

    /// Verify that `data` actually hashes to this cid.
    pub fn verify(&self, data: &[u8]) -> bool {
        sha256(data) == self.0
    }

    /// Hex representation.
    pub fn to_hex(&self) -> String {
        self.0.to_hex()
    }

    /// Short prefix for logs and tables.
    pub fn short(&self) -> String {
        self.0.short()
    }
}

impl fmt::Debug for Cid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cid({})", self.0.short())
    }
}

impl fmt::Display for Cid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0.to_hex())
    }
}

/// A key in the DHT key space. Index shards, provider records and name
/// registry pointers all map to `DhtKey`s.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DhtKey(pub Hash256);

impl DhtKey {
    /// Key for an inverted-index shard of `term`.
    pub fn for_term(term: &str) -> DhtKey {
        DhtKey(Hash256::digest_parts(&[b"idx:", term.as_bytes()]))
    }

    /// Key from arbitrary bytes (generic records).
    pub fn from_bytes(data: &[u8]) -> DhtKey {
        DhtKey(sha256(data))
    }

    /// Hex representation.
    pub fn to_hex(&self) -> String {
        self.0.to_hex()
    }
}

impl fmt::Debug for DhtKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "DhtKey({})", self.0.short())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn node_ids_are_deterministic_and_distinct() {
        let a = NodeId::from_index(1);
        let b = NodeId::from_index(1);
        let c = NodeId::from_index(2);
        assert_eq!(a, b);
        assert_ne!(a.key, c.key);
        assert_eq!(a.index, 1);
    }

    #[test]
    fn cid_verification_detects_tampering() {
        let data = b"the original page body";
        let cid = Cid::for_data(data);
        assert!(cid.verify(data));
        let mut tampered = data.to_vec();
        tampered[0] ^= 1;
        assert!(!cid.verify(&tampered));
    }

    #[test]
    fn term_keys_are_domain_separated_from_content_ids() {
        // A term and content with the same bytes must not collide.
        assert_ne!(DhtKey::for_term("rust").0, Cid::for_data(b"rust").0);
    }

    #[test]
    fn display_forms() {
        let n = NodeId::from_index(7);
        assert_eq!(n.to_string(), "node#7");
        let cid = Cid::for_data(b"x");
        assert_eq!(cid.to_string().len(), 64);
    }

    proptest! {
        #[test]
        fn cids_injective_on_distinct_data(a in proptest::collection::vec(any::<u8>(), 0..128),
                                           b in proptest::collection::vec(any::<u8>(), 0..128)) {
            if a != b {
                prop_assert_ne!(Cid::for_data(&a), Cid::for_data(&b));
            }
        }

        #[test]
        fn term_key_deterministic(term in "[a-z]{1,16}") {
            prop_assert_eq!(DhtKey::for_term(&term), DhtKey::for_term(&term));
        }
    }
}

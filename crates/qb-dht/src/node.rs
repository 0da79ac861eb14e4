//! Per-node DHT state: routing table, record store and provider lists.

use crate::routing::RoutingTable;
use crate::DhtConfig;
use bytes::Bytes;
use qb_common::{DhtKey, DigestMap, NodeId};
use std::collections::hash_map::Entry;

/// A value stored in the DHT under a key. A stored record is permanent: it
/// lives on its replicas until a higher [`Record::version`] replaces it.
/// Nothing expires, and so nothing has to republish to stay readable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Key under which the record is stored.
    pub key: DhtKey,
    /// Opaque value bytes (serialized pointers, registry entries, ...),
    /// shared: the origin, its replicas and every lookup that finds the
    /// record hold one buffer.
    pub value: Bytes,
    /// Monotonically increasing version; a replica only overwrites its copy
    /// with a higher version (last-writer-wins on version).
    pub version: u64,
}

/// The local state of one DHT participant.
#[derive(Debug, Clone)]
pub struct DhtNode {
    /// This node's identity.
    pub id: NodeId,
    /// Kademlia routing table.
    pub routing: RoutingTable,
    records: DigestMap<DhtKey, Record>,
    providers: DigestMap<DhtKey, Providers>,
}

/// Providers a key holds before its list moves to the heap: an object's
/// publisher and the two peers it is replicated to at the default
/// replication. Three node indices and their count fit where the list's
/// own header would be.
const INLINE_PROVIDERS: usize = 3;

/// The node indices of one key's providers, in announce order, without
/// repeats; only a later fetcher's announce moves them into a list.
#[derive(Debug, Clone)]
enum Providers {
    Inline(u8, [u32; INLINE_PROVIDERS]),
    Spilled(Vec<u32>),
}

impl Providers {
    fn as_slice(&self) -> &[u32] {
        match self {
            Providers::Inline(len, ids) => &ids[..usize::from(*len)],
            Providers::Spilled(all) => all,
        }
    }

    /// Append `provider` unless it is listed.
    fn add(&mut self, provider: u32) {
        if self.as_slice().contains(&provider) {
            return;
        }
        match self {
            Providers::Inline(len, ids) if usize::from(*len) < INLINE_PROVIDERS => {
                ids[usize::from(*len)] = provider;
                *len += 1;
            }
            Providers::Inline(_, ids) => {
                *self = Providers::Spilled([&ids[..], &[provider]].concat())
            }
            Providers::Spilled(all) => all.push(provider),
        }
    }
}

impl DhtNode {
    /// Create a fresh node with an empty routing table.
    pub fn new(id: NodeId, config: &DhtConfig) -> DhtNode {
        DhtNode {
            id,
            routing: RoutingTable::new(id.key, config.k),
            records: DigestMap::default(),
            providers: DigestMap::default(),
        }
    }

    /// Handle a `STORE` RPC: keep the record if it is newer than what we have.
    /// Returns true when the record was accepted.
    pub fn store(&mut self, record: Record) -> bool {
        match self.records.entry(record.key) {
            Entry::Occupied(existing) if existing.get().version > record.version => false,
            Entry::Occupied(mut existing) => {
                existing.insert(record);
                true
            }
            Entry::Vacant(slot) => {
                slot.insert(record);
                true
            }
        }
    }

    /// Handle a `FIND_VALUE` RPC: return the record if present.
    pub fn find_value(&self, key: &DhtKey) -> Option<&Record> {
        self.records.get(key)
    }

    /// Handle an `ADD_PROVIDER` RPC.
    pub fn add_provider(&mut self, key: DhtKey, provider: NodeId) {
        let index = provider.index as u32;
        match self.providers.entry(key) {
            Entry::Occupied(mut listed) => listed.get_mut().add(index),
            Entry::Vacant(slot) => {
                slot.insert(Providers::Inline(1, [index; INLINE_PROVIDERS]));
            }
        }
    }

    /// Handle a `GET_PROVIDERS` RPC: the node indices of the key's
    /// providers, in announce order.
    pub fn get_providers(&self, key: &DhtKey) -> &[u32] {
        self.providers.get(key).map_or(&[], Providers::as_slice)
    }

    /// Forget every provider of `key`.
    pub fn remove_providers(&mut self, key: &DhtKey) {
        self.providers.remove(key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(key_label: &str, version: u64) -> Record {
        Record {
            key: DhtKey::from_bytes(key_label.as_bytes()),
            value: format!("value-{version}").into_bytes().into(),
            version,
        }
    }

    #[test]
    fn store_and_find() {
        let mut n = DhtNode::new(NodeId::from_index(1), &DhtConfig::small());
        let r = record("k", 1);
        assert!(n.store(r.clone()));
        let found = n.find_value(&r.key).unwrap();
        assert_eq!(found.value, r.value);
        assert_eq!(n.records.len(), 1);
    }

    #[test]
    fn stale_version_does_not_overwrite() {
        let mut n = DhtNode::new(NodeId::from_index(1), &DhtConfig::small());
        assert!(n.store(record("k", 5)));
        assert!(!n.store(record("k", 3)));
        let key = DhtKey::from_bytes(b"k");
        assert_eq!(n.find_value(&key).unwrap().version, 5);
        // Equal or newer versions do overwrite.
        assert!(n.store(record("k", 5)));
        assert!(n.store(record("k", 7)));
    }

    #[test]
    fn provider_lists_deduplicate() {
        let mut n = DhtNode::new(NodeId::from_index(1), &DhtConfig::small());
        let key = DhtKey::from_bytes(b"content");
        n.add_provider(key, NodeId::from_index(2));
        n.add_provider(key, NodeId::from_index(2));
        n.add_provider(key, NodeId::from_index(3));
        assert_eq!(n.get_providers(&key).len(), 2);
        assert!(n.get_providers(&DhtKey::from_bytes(b"other")).is_empty());
    }

    #[test]
    fn an_inline_provider_list_takes_no_more_room_than_a_list_header() {
        assert_eq!(
            std::mem::size_of::<Providers>(),
            std::mem::size_of::<Vec<u32>>()
        );
    }

    proptest::proptest! {
        /// Inline provider lists answer every script of announces, forgets
        /// and reads exactly as one `Vec` per key did: the providers of a
        /// key in announce order, each index once.
        #[test]
        fn inline_providers_read_as_a_list_per_key(
            script in proptest::collection::vec((0u8..3, 0u8..3, 0u64..6), 0..80),
        ) {
            let mut node = DhtNode::new(NodeId::from_index(0), &DhtConfig::small());
            let mut reference: std::collections::HashMap<DhtKey, Vec<u32>> =
                std::collections::HashMap::new();
            let keys = [b"a", b"b", b"c"].map(|label| DhtKey::from_bytes(label));
            let peers: Vec<NodeId> = (0..6).map(NodeId::from_index).collect();
            for (op, key, peer) in script {
                let (key, peer) = (keys[key as usize], peers[peer as usize]);
                match op {
                    0 => {
                        node.add_provider(key, peer);
                        let listed = reference.entry(key).or_default();
                        if !listed.contains(&(peer.index as u32)) {
                            listed.push(peer.index as u32);
                        }
                    }
                    1 => {
                        node.remove_providers(&key);
                        reference.remove(&key);
                    }
                    _ => {}
                }
                for key in &keys {
                    let want = reference.get(key).map_or(&[][..], Vec::as_slice);
                    proptest::prop_assert_eq!(node.get_providers(key), want);
                }
            }
        }
    }
}

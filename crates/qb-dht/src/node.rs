//! Per-node DHT state: routing table, record store and provider lists.

use crate::routing::RoutingTable;
use crate::DhtConfig;
use bytes::Bytes;
use qb_common::{DhtKey, DigestMap, NodeId};
use std::collections::hash_map::Entry;

/// A value stored in the DHT under a key. A stored record is permanent: it
/// lives on its replicas until a higher [`Record::version`] replaces it.
/// Nothing expires, and so nothing has to republish to stay readable.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Record {
    /// Key under which the record is stored.
    pub key: DhtKey,
    /// Opaque value bytes (serialized pointers, registry entries, ...),
    /// shared: the origin, its replicas and every lookup that finds the
    /// record hold one buffer.
    pub value: Bytes,
    /// Node that originally published the record.
    pub publisher: NodeId,
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
    providers: DigestMap<DhtKey, Vec<NodeId>>,
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

    /// Number of records held locally.
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Handle an `ADD_PROVIDER` RPC.
    pub fn add_provider(&mut self, key: DhtKey, provider: NodeId) {
        let list = self.providers.entry(key).or_default();
        if !list.iter().any(|p| p.index == provider.index) {
            list.push(provider);
        }
    }

    /// Handle a `GET_PROVIDERS` RPC.
    pub fn get_providers(&self, key: &DhtKey) -> Vec<NodeId> {
        self.providers.get(key).cloned().unwrap_or_default()
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
            publisher: NodeId::from_index(9),
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
        assert_eq!(n.record_count(), 1);
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
}

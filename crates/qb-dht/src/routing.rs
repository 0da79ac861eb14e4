//! K-bucket routing table.

use qb_common::{Hash256, NodeId};

/// A Kademlia routing table: 256 buckets indexed by the length of the common
/// key prefix with the local node, each holding at most `k` contacts ordered
/// from least- to most-recently seen.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    local: Hash256,
    k: usize,
    buckets: Vec<Vec<NodeId>>,
}

impl RoutingTable {
    /// Create an empty routing table for a node whose key is `local`.
    pub fn new(local: Hash256, k: usize) -> RoutingTable {
        RoutingTable {
            local,
            k: k.max(1),
            buckets: vec![Vec::new(); 257],
        }
    }

    /// Bucket index for a peer key (common prefix length, capped at 256).
    fn bucket_index(&self, key: &Hash256) -> usize {
        self.local.common_prefix_len(key).min(256)
    }

    /// Record that we heard from `peer`. Moves it to the most-recently-seen
    /// position; inserts it if there is room; otherwise the least recently
    /// seen contact is evicted when `evict_stale` is true (we model the
    /// "ping the oldest" rule as: the caller decides whether the oldest is
    /// stale), else the new contact is dropped (classic Kademlia behaviour).
    pub fn observe(&mut self, peer: NodeId, evict_stale: bool) {
        if peer.key == self.local {
            return;
        }
        let idx = self.bucket_index(&peer.key);
        let bucket = &mut self.buckets[idx];
        if let Some(pos) = bucket.iter().position(|c| c.key == peer.key) {
            let c = bucket.remove(pos);
            bucket.push(c);
            return;
        }
        if bucket.len() < self.k {
            bucket.push(peer);
        } else if evict_stale {
            bucket.remove(0);
            bucket.push(peer);
        }
    }

    /// Remove a peer that failed to respond.
    pub fn remove(&mut self, peer: &NodeId) {
        let idx = self.bucket_index(&peer.key);
        self.buckets[idx].retain(|c| c.key != peer.key);
    }

    /// Does the table contain this peer?
    pub fn contains(&self, peer: &NodeId) -> bool {
        let idx = self.bucket_index(&peer.key);
        self.buckets[idx].iter().any(|c| c.key == peer.key)
    }

    /// Total number of contacts.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).sum()
    }

    /// True when the table holds no contacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `count` contacts closest to `target` by XOR distance.
    pub fn closest(&self, target: &Hash256, count: usize) -> Vec<NodeId> {
        let mut all: Vec<NodeId> = self.buckets.iter().flatten().copied().collect();
        all.sort_by_key(|a| a.key.xor(target));
        all.truncate(count);
        all
    }

    /// All contacts (unordered).
    pub fn contacts(&self) -> Vec<NodeId> {
        self.buckets.iter().flatten().copied().collect()
    }

    /// Maximum bucket occupancy (used by tests to check the ≤ k invariant).
    pub fn max_bucket_len(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qb_common::NodeId;

    fn node(i: u64) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn observe_inserts_and_touches() {
        let local = node(0);
        let mut rt = RoutingTable::new(local.key, 4);
        rt.observe(node(1), false);
        rt.observe(node(2), false);
        assert_eq!(rt.len(), 2);
        assert!(rt.contains(&node(1)));
        // Observing again does not duplicate.
        rt.observe(node(1), false);
        assert_eq!(rt.len(), 2);
    }

    #[test]
    fn never_contains_self() {
        let local = node(0);
        let mut rt = RoutingTable::new(local.key, 4);
        rt.observe(local, true);
        assert_eq!(rt.len(), 0);
    }

    #[test]
    fn buckets_never_exceed_k() {
        let local = node(0);
        let k = 3;
        let mut rt = RoutingTable::new(local.key, k);
        for i in 1..200 {
            rt.observe(node(i), false);
        }
        assert!(rt.max_bucket_len() <= k);
    }

    #[test]
    fn eviction_replaces_least_recently_seen() {
        let local = node(0);
        // k = 1 so each bucket holds exactly one contact.
        let mut rt = RoutingTable::new(local.key, 1);
        // Find two nodes in the same bucket.
        let mut same_bucket: Vec<NodeId> = Vec::new();
        let target_bucket = local.key.common_prefix_len(&node(1).key);
        for i in 1..5000 {
            if local.key.common_prefix_len(&node(i).key) == target_bucket {
                same_bucket.push(node(i));
                if same_bucket.len() == 2 {
                    break;
                }
            }
        }
        assert_eq!(same_bucket.len(), 2);
        rt.observe(same_bucket[0], true);
        rt.observe(same_bucket[1], true);
        assert!(rt.contains(&same_bucket[1]));
        assert!(!rt.contains(&same_bucket[0]));
        // Without eviction the newcomer is dropped instead.
        let mut rt2 = RoutingTable::new(local.key, 1);
        rt2.observe(same_bucket[0], false);
        rt2.observe(same_bucket[1], false);
        assert!(rt2.contains(&same_bucket[0]));
        assert!(!rt2.contains(&same_bucket[1]));
    }

    #[test]
    fn closest_returns_sorted_by_distance() {
        let local = node(0);
        let mut rt = RoutingTable::new(local.key, 20);
        for i in 1..50 {
            rt.observe(node(i), false);
        }
        let target = node(77).key;
        let closest = rt.closest(&target, 5);
        assert_eq!(closest.len(), 5);
        for w in closest.windows(2) {
            assert!(w[0].key.xor(&target) <= w[1].key.xor(&target));
        }
        // The first element really is the global minimum among contacts.
        let best = rt
            .contacts()
            .into_iter()
            .min_by(|a, b| a.key.xor(&target).cmp(&b.key.xor(&target)))
            .unwrap();
        assert_eq!(closest[0].key, best.key);
    }

    #[test]
    fn remove_deletes_contact() {
        let local = node(0);
        let mut rt = RoutingTable::new(local.key, 4);
        rt.observe(node(1), false);
        assert!(rt.contains(&node(1)));
        rt.remove(&node(1));
        assert!(!rt.contains(&node(1)));
        assert!(rt.is_empty());
    }

    proptest! {
        #[test]
        fn invariants_hold_under_random_operations(ops in proptest::collection::vec((any::<u16>(), any::<bool>()), 0..500),
                                                   k in 1usize..8) {
            let local = node(0);
            let mut rt = RoutingTable::new(local.key, k);
            for (i, evict) in ops {
                rt.observe(node(i as u64), evict);
            }
            prop_assert!(rt.max_bucket_len() <= k);
            prop_assert!(!rt.contains(&local));
            // No duplicates overall.
            let mut keys: Vec<_> = rt.contacts().into_iter().map(|c| c.key).collect();
            let before = keys.len();
            keys.sort();
            keys.dedup();
            prop_assert_eq!(before, keys.len());
        }
    }
}

//! K-bucket routing table.

use qb_common::{Distance, Hash256, NodeId};

/// The `count` contacts of `contacts` nearest to `target` by XOR distance,
/// nearest first, each beside its distance. A bounded insertion into one
/// `count`-sized list: every distance is computed once, nothing larger than
/// the answer is allocated, and ties keep arrival order — the same list a
/// stable sort of everything followed by a truncate would leave.
pub(crate) fn nearest(
    contacts: impl Iterator<Item = NodeId>,
    target: &Hash256,
    count: usize,
) -> Vec<(Distance, NodeId)> {
    let mut best = Vec::with_capacity(count);
    keep_nearest(&mut best, contacts, target, count);
    best
}

/// Offer `contacts` to the `count`-bounded, nearest-first list `best`
/// ([`nearest`]'s insertion, resumable across calls).
pub(crate) fn keep_nearest(
    best: &mut Vec<(Distance, NodeId)>,
    contacts: impl Iterator<Item = NodeId>,
    target: &Hash256,
    count: usize,
) {
    for contact in contacts {
        let distance = contact.key.xor(target);
        if best.len() == count {
            // Full: only a contact nearer than the worst kept displaces it.
            if best.last().is_none_or(|(worst, _)| distance >= *worst) {
                continue;
            }
            best.pop();
        }
        let at = best.partition_point(|(d, _)| *d <= distance);
        best.insert(at, (distance, contact));
    }
}

/// A Kademlia routing table: up to 257 buckets indexed by the length of the
/// common key prefix with the local node, each holding at most `k` contacts
/// ordered from least- to most-recently seen.
///
/// Only buckets up to the highest occupied one exist: at 32–256 peers that
/// is the lowest ~5–10 of 257. [`closest_into`] (each lookup start and
/// `FIND_NODE` reply) visits them in XOR-distance-class order and stops
/// once the answer is settled, so it reads the buckets that can hold the
/// answer rather than the whole table.
///
/// [`closest_into`]: RoutingTable::closest_into
#[derive(Debug, Clone)]
pub struct RoutingTable {
    local: Hash256,
    k: usize,
    /// Buckets `0..=` the highest occupied one; never ends in an empty one.
    buckets: Vec<Vec<NodeId>>,
}

impl RoutingTable {
    /// Create an empty routing table for a node whose key is `local`.
    pub fn new(local: Hash256, k: usize) -> RoutingTable {
        RoutingTable {
            local,
            k: k.max(1),
            buckets: Vec::new(),
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
        if idx >= self.buckets.len() {
            self.buckets.resize_with(idx + 1, Vec::new);
        }
        let bucket = &mut self.buckets[idx];
        // A node index names one key, and compares in one word.
        if let Some(pos) = bucket.iter().position(|c| c.index == peer.index) {
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
        if let Some(bucket) = self.buckets.get_mut(idx) {
            bucket.retain(|c| c.index != peer.index);
        }
        while self.buckets.last().is_some_and(Vec::is_empty) {
            self.buckets.pop();
        }
    }

    /// Does the table contain this peer?
    pub fn contains(&self, peer: &NodeId) -> bool {
        let idx = self.bucket_index(&peer.key);
        self.buckets
            .get(idx)
            .is_some_and(|bucket| bucket.iter().any(|c| c.index == peer.index))
    }

    /// Total number of contacts.
    pub fn len(&self) -> usize {
        self.buckets.iter().map(|b| b.len()).sum()
    }

    /// True when the table holds no contacts.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// [`RoutingTable::closest_into`] into a new list.
    #[cfg(test)]
    pub fn closest(&self, target: &Hash256, count: usize) -> Vec<(Distance, NodeId)> {
        let mut best = Vec::with_capacity(count);
        self.closest_into(target, count, &mut best);
        best
    }

    /// The `count` contacts closest to `target` by XOR distance, nearest
    /// first, each beside its distance to `target`, into `best` (cleared
    /// first): a caller that keeps one list across calls (a walk merging
    /// `FIND_NODE` replies) allocates only when `count` outgrows it.
    ///
    /// With `t` the target's own bucket, a contact's distance to `target`
    /// has `> t` leading zeros in bucket `t`, exactly `t` in every bucket
    /// above it, and exactly `b` in a bucket `b < t`. So the buckets fall
    /// into distance classes — `t`, then everything above `t`, then `t − 1`
    /// down to 0 — and every contact of a later class is farther than every
    /// contact of an earlier one. The walk visits the classes in that order
    /// and stops at the first class boundary with `count` contacts kept:
    /// distinct keys never tie, so the answer is the full scan's to the bit
    /// (`t = 256`, a self-lookup, has no own bucket and no bucket above).
    pub fn closest_into(&self, target: &Hash256, count: usize, best: &mut Vec<(Distance, NodeId)>) {
        best.clear();
        let t = self.bucket_index(target);
        let (below, from_t) = self.buckets.split_at(t.min(self.buckets.len()));
        let (own, above) = from_t.split_at(from_t.len().min(1));
        let classes = [own, above]
            .into_iter()
            .chain(below.iter().rev().map(std::slice::from_ref));
        for class in classes {
            if best.len() == count {
                break;
            }
            keep_nearest(best, class.iter().flatten().copied(), target, count);
        }
        debug_assert_eq!(
            *best,
            nearest(self.buckets.iter().flatten().copied(), target, count)
        );
    }

    /// All contacts (unordered).
    #[cfg(test)]
    pub fn contacts(&self) -> Vec<NodeId> {
        self.buckets.iter().flatten().copied().collect()
    }

    /// Maximum bucket occupancy (used by tests to check the ≤ k invariant).
    #[cfg(test)]
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

    /// Byte-wise XOR of two keys compared as a big-endian 256-bit integer:
    /// the reference order every distance comparison must reproduce.
    fn byte_distance(a: &Hash256, b: &Hash256) -> [u8; 32] {
        std::array::from_fn(|i| a.0[i] ^ b.0[i])
    }

    /// Naive reference for [`RoutingTable::closest`]: collect every contact,
    /// stable-sort by the byte-wise distance, truncate.
    fn closest_naive(rt: &RoutingTable, target: &Hash256, count: usize) -> Vec<NodeId> {
        let mut all = rt.contacts();
        all.sort_by_key(|c| byte_distance(&c.key, target));
        all.truncate(count);
        all
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
            assert!(w[0].1.key.xor(&target) <= w[1].1.key.xor(&target));
        }
        // The first element really is the global minimum among contacts.
        let best = rt
            .contacts()
            .into_iter()
            .min_by(|a, b| a.key.xor(&target).cmp(&b.key.xor(&target)))
            .unwrap();
        assert_eq!(closest[0], (best.key.xor(&target), best));
    }

    #[test]
    fn closest_into_returns_closest_contacts() {
        let mut rt = RoutingTable::new(node(0).key, 4);
        for i in 1..30 {
            rt.observe(node(i), false);
        }
        let target = node(100).key;
        // A reused list: whatever it held before is replaced.
        let mut found = vec![(node(7).key.xor(&target), node(7)); 5];
        rt.closest_into(&target, 3, &mut found);
        assert_eq!(found.len(), 3);
        for w in found.windows(2) {
            assert!(w[0].1.key.xor(&target) <= w[1].1.key.xor(&target));
        }
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

        #[test]
        fn closest_equals_the_naive_reference(ops in proptest::collection::vec((0u64..400, any::<bool>(), 0u8..4), 0..300),
                                              k in 1usize..8,
                                              target in any::<[u8; 32]>(),
                                              shape in 0u8..4,
                                              shared in 1usize..32) {
            let local = node(0);
            let mut rt = RoutingTable::new(local.key, k);
            // One contact in five shares 0–31 leading bytes with the local
            // key, so the buckets above a deep target bucket are sometimes
            // populated and sometimes empty.
            let contact = |i: u64| {
                let mut c = node(i);
                if i.is_multiple_of(5) {
                    let depth = (i as usize / 5) % 32;
                    c.key.0[..depth].copy_from_slice(&local.key.0[..depth]);
                }
                c
            };
            // A quarter of the targets each: anywhere; beside a contact's
            // key, so orderings are decided deep inside the key rather than
            // by its first byte; the local key itself (`t = 256`); sharing
            // 1–31 leading bytes with the local key (a deep `t`).
            let far = Hash256(target);
            let shaped_target = |rt: &RoutingTable| {
                let mut target = far;
                match shape {
                    1 => {
                        if let Some(c) = rt.contacts().first() {
                            target.0[..24].copy_from_slice(&c.key.0[..24]);
                        }
                    }
                    2 => target = local.key,
                    3 => target.0[..shared].copy_from_slice(&local.key.0[..shared]),
                    _ => {}
                }
                target
            };
            // Checked after every step, so the scan bound is exercised as
            // removals empty the highest bucket and observations refill it.
            for (i, evict, op) in ops {
                // One removal per three observations keeps tables populated.
                if op == 0 {
                    rt.remove(&contact(i));
                } else {
                    rt.observe(contact(i), evict);
                }
                prop_assert!(rt.buckets.last().is_none_or(|b| !b.is_empty()));
                let target = shaped_target(&rt);
                for count in [0, 1, k, rt.len() + 3] {
                    let got = rt.closest(&target, count);
                    prop_assert!(got.iter().all(|(d, c)| *d == c.key.xor(&target)));
                    let ids: Vec<NodeId> = got.into_iter().map(|(_, c)| c).collect();
                    prop_assert_eq!(ids, closest_naive(&rt, &target, count));
                }
            }
        }

        #[test]
        fn closest_into_a_reused_list_equals_closest(ops in proptest::collection::vec(0u64..400, 0..120),
                                                     k in 1usize..8,
                                                     targets in proptest::collection::vec(any::<[u8; 32]>(), 1..6),
                                                     counts in proptest::collection::vec(0usize..12, 1..6)) {
            let mut rt = RoutingTable::new(node(0).key, k);
            for i in ops {
                rt.observe(node(i), true);
            }
            // One list for every call, as a walk keeps one for its replies:
            // each call starts on what the previous one left, longer or
            // shorter than its own answer.
            let mut reused = vec![(Hash256([0xff; 32]).xor(&node(1).key), node(1)); 3];
            for (target, count) in targets.iter().zip(counts.iter().cycle()) {
                let target = Hash256(*target);
                rt.closest_into(&target, *count, &mut reused);
                prop_assert_eq!(&reused, &rt.closest(&target, *count));
            }
        }

        #[test]
        fn distance_orders_like_the_byte_wise_xor(a in any::<[u8; 32]>(),
                                                  b in any::<[u8; 32]>(),
                                                  t in any::<[u8; 32]>(),
                                                  shared in 0usize..33) {
            // `a` and `b` agree on their first `shared` bytes, so the byte
            // that decides the order lands on every position and word.
            let (a, mut b, t) = (Hash256(a), Hash256(b), Hash256(t));
            b.0[..shared].copy_from_slice(&a.0[..shared]);
            prop_assert_eq!(
                a.xor(&t).cmp(&b.xor(&t)),
                byte_distance(&a, &t).cmp(&byte_distance(&b, &t))
            );
        }
    }
}

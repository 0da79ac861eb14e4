//! Digests and version vectors — the metadata side of the gossip protocol.
//!
//! Two digest encodings exist (selected by `GossipConfig::digest_mode`):
//!
//! * **Full** — every exchange ships the whole hot set as `(term, version)`
//!   pairs. Simple, stateless, and ~80% of E10's gossip bytes.
//! * **Delta** — an exchange ships only the hot-set entries that changed
//!   since the last exchange with that peer, plus a compact
//!   [`ShardFilter`] over the sender's current
//!   holdings. The receiver reconstructs the sender's state from its
//!   accumulated per-peer view ([`apply_delta`]); the filter catches
//!   evictions the deltas cannot express, and the periodic full-digest
//!   anti-entropy round remains the exact safety net. Fill decisions
//!   ([`needs_fill`]) only ever suppress a fill on *explicitly advertised*
//!   knowledge confirmed by the filter, so compression can delay a fill
//!   (until anti-entropy) but never lose one.
//!
//! A digest exists only on the simulated wire (`digest_wire_bytes`); the
//! host keeps its entries. A term has one host identity, its [`TermKey`]
//! (the first eight bytes of its domain-separated SHA-256 beside the shared
//! text), made where the term first enters: the engine's per-term version
//! table, a segment import or a shard the tier lists afresh. Every
//! [`DigestEntry`] carries it, and every per-term map here
//! ([`HoldingsView`], the advertised baseline, [`VersionVector`]) is a
//! [`TermMap`] probed by it: no probe hashes a string, and no map is keyed
//! by text.

use crate::filter::{FilterKey, ShardFilter};
use qb_common::{DigestMap, Hash256};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A term as the gossip path keys it: the shared text beside the first
/// eight bytes, big-endian, of `Hash256::digest_parts(["qb-gossip/term",
/// term])`. The prefix is hashed once, where the term first enters the
/// host (module doc), and every entry and version bump after that shares
/// it; every per-term map of the gossip path is a [`TermMap`] over it, so
/// a probe costs an `IdHasher` spread of the prefix and an equality test —
/// never a string hash. Equality is the prefix and then the text (by
/// pointer first: the clones of one key share one allocation), so two
/// terms whose prefixes collide are two keys in one probe sequence: a
/// collision costs a probe, not a wrong answer. Unkeyed like every
/// [`DigestMap`]: aiming terms at one probe sequence costs SHA-256 work
/// per slot, which no simulated peer spends.
#[derive(Debug, Clone)]
pub struct TermKey {
    prefix: u64,
    term: Arc<str>,
}

impl TermKey {
    /// Hash `term` into its key (one SHA-256).
    pub fn of(term: impl Into<Arc<str>>) -> TermKey {
        let term = term.into();
        TermKey {
            prefix: TermKey::prefix_of(&term),
            term,
        }
    }

    /// The 64-bit prefix a term is keyed by.
    fn prefix_of(term: &str) -> u64 {
        let [prefix, ..] = Hash256::digest_parts(&[b"qb-gossip/term", term.as_bytes()]).words();
        prefix
    }

    /// The term (a shared handle).
    pub fn term(&self) -> &Arc<str> {
        &self.term
    }
}

impl PartialEq for TermKey {
    fn eq(&self, other: &TermKey) -> bool {
        self.prefix == other.prefix
            && (Arc::ptr_eq(&self.term, &other.term) || self.term == other.term)
    }
}

impl Eq for TermKey {}

impl Hash for TermKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.prefix);
    }
}

/// A map keyed by term: a [`DigestMap`] over [`TermKey`].
pub type TermMap<V> = DigestMap<TermKey, V>;

/// One advertised holding: a `(term, version)` pair together with its term
/// key and filter fingerprint. Both are hashed here, once per pair — and a
/// version bump re-hashes only the fingerprint (`DigestEntry::bumped`) —
/// and every clone shares the term's allocation, so a pair costs its
/// hashes and one string for as long as some digest, delta or per-peer
/// view refers to it. Host-side only: the wire carries the term and the
/// version, and the receiver could recompute the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestEntry {
    term: TermKey,
    version: u64,
    key: FilterKey,
}

impl DigestEntry {
    /// Fingerprint `(term, version)` under the term's key.
    pub fn new(term: TermKey, version: u64) -> DigestEntry {
        let key = FilterKey::of(&term.term, version);
        DigestEntry { term, version, key }
    }

    /// The same term at `version`: the term key is kept, and the
    /// fingerprint hashed afresh unless `version` is this entry's own.
    pub(crate) fn bumped(&self, version: u64) -> DigestEntry {
        if version == self.version {
            return self.clone();
        }
        DigestEntry::new(self.term.clone(), version)
    }

    /// The advertised term.
    pub fn term(&self) -> &str {
        &self.term.term
    }

    /// The advertised term's key.
    pub fn term_key(&self) -> &TermKey {
        &self.term
    }

    /// The advertised shard version.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The pair's filter fingerprint.
    pub fn key(&self) -> FilterKey {
        self.key
    }
}

/// Bytes a digest of `entries` occupies on the wire: each entry ships the
/// term, a varint-bounded version (budgeted at 8) and a length prefix, plus
/// a small frame header. Charged to the simulated network per exchange.
pub(crate) fn digest_wire_bytes<'a>(entries: impl IntoIterator<Item = &'a DigestEntry>) -> usize {
    16 + entries
        .into_iter()
        .map(|e| e.term().len() + 9)
        .sum::<usize>()
}

/// One frontend's accumulated view of what a partner holds: the newest
/// entry the partner advertised (or acknowledged a fill of) per term.
pub type HoldingsView = TermMap<DigestEntry>;

/// The hot-set entries worth advertising to a peer that was last told
/// `advertised`: everything whose `(term, version)` it has not been told
/// yet, in hot-set order. The complement of this delta is exactly what the
/// peer can reconstruct from its accumulated view, so `delta + accumulated
/// view = full digest` (asserted by the compression proptest).
pub fn delta_entries<'a>(
    hot: &'a [DigestEntry],
    advertised: &'a TermMap<u64>,
) -> impl Iterator<Item = &'a DigestEntry> + 'a {
    hot.iter()
        .filter(|e| advertised.get(&e.term) != Some(&e.version))
}

/// Fold one advertised entry into the accumulated view of a peer's
/// holdings. Monotonic per term: the view only ever moves to a newer
/// version (the version guard receiver-side makes a genuinely downgraded
/// shard impossible to accept anyway). Returns whether the view moved.
pub(crate) fn note_holding(view: &mut HoldingsView, entry: &DigestEntry) -> bool {
    match view.get_mut(&entry.term) {
        Some(held) if held.version >= entry.version => return false,
        Some(held) => *held = entry.clone(),
        None => {
            view.insert(entry.term.clone(), entry.clone());
        }
    }
    true
}

/// Fold a received delta into the accumulated view of a peer's holdings,
/// entry by entry (a replayed or reordered delta never lowers a version).
/// Returns whether the view moved.
pub fn apply_delta(view: &mut HoldingsView, delta: &[DigestEntry]) -> bool {
    let mut moved = false;
    for entry in delta {
        moved |= note_holding(view, entry);
    }
    moved
}

/// Should a shard at `version` be filled to a peer believed to hold
/// `believed` of its term, whose current holdings are summarized by
/// `filter`? A fill is suppressed only when the peer explicitly advertised
/// an equal-or-newer version **and** the filter still confirms it holds that
/// exact version (evictions drop out of the filter, so a stale belief
/// cannot suppress forever). The filter alone never suppresses: with no
/// advertised belief the fill is always sent.
pub fn needs_fill(version: u64, believed: Option<&DigestEntry>, filter: &ShardFilter) -> bool {
    match believed {
        Some(b) if b.version >= version => !filter.contains(b.key),
        _ => true,
    }
}

/// Per-term version knowledge of one frontend — the version-vector guard of
/// the protocol. A frontend records the highest shard version it has seen
/// for each term (own DHT fetches, publish events it observed, gossip
/// digests and fills); an incoming fill older than the recorded version is
/// rejected as stale, so a lagging replica can never overwrite fresher data
/// no matter how gossip routes it.
///
/// Every caller observes and reads by [`TermKey`]: the gossip path by the
/// key its entries carry, the engine by the key it made once per term
/// beside the term's version. A probe is one `IdHasher` spread of the
/// prefix, never a string hash.
#[derive(Debug, Clone, Default)]
pub struct VersionVector {
    versions: TermMap<u64>,
}

impl VersionVector {
    /// An empty vector (nothing observed yet).
    pub fn new() -> VersionVector {
        VersionVector::default()
    }

    /// Record that `version` of `term` exists. Monotonic: an older
    /// observation never lowers the recorded version, and version 0 is
    /// still recorded.
    pub fn observe(&mut self, term: &TermKey, version: u64) {
        match self.versions.get_mut(term) {
            Some(seen) => *seen = (*seen).max(version),
            None => {
                self.versions.insert(term.clone(), version);
            }
        }
    }

    /// Highest version observed for `term` (0 when never observed).
    pub fn get(&self, term: &TermKey) -> u64 {
        self.versions.get(term).copied().unwrap_or(0)
    }

    /// Number of terms with a recorded version.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True when nothing was observed yet.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Iterate over `(term, highest observed version)` in term order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        let mut ordered: Vec<(&str, u64)> = self
            .unordered()
            .map(|(term, version)| (&**term.term(), version))
            .collect();
        ordered.sort_unstable_by_key(|&(term, _)| term);
        ordered.into_iter()
    }

    /// `(term, highest observed version)` in no particular order.
    pub(crate) fn unordered(&self) -> impl Iterator<Item = (&TermKey, u64)> {
        self.versions.iter().map(|(term, version)| (term, *version))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn entry(term: &str, version: u64) -> DigestEntry {
        DigestEntry::new(TermKey::of(term), version)
    }

    fn entries(pairs: &[(&str, u64)]) -> Vec<DigestEntry> {
        pairs.iter().map(|(t, v)| entry(t, *v)).collect()
    }

    #[test]
    fn digest_wire_bytes_scale_with_terms() {
        assert_eq!(digest_wire_bytes(&[]), 16);
        let d = entries(&[("honey", 3), ("bees", 1)]);
        assert_eq!(digest_wire_bytes(&d), 16 + (5 + 9) + (4 + 9));
    }

    #[test]
    fn version_vector_is_monotonic() {
        let mut v = VersionVector::new();
        let t = TermKey::of("t");
        assert!(v.is_empty());
        assert_eq!(v.get(&t), 0);
        v.observe(&t, 3);
        v.observe(&t, 1); // older observation is a no-op
        assert_eq!(v.get(&t), 3);
        v.observe(&t, 5);
        assert_eq!(v.get(&t), 5);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn delta_reconstruction_matches_the_full_digest() {
        let hot = entries(&[("alpha", 3), ("beta", 1), ("gamma", 2)]);
        // The peer was previously told alpha@3 and beta@1; only gamma (new)
        // rides the delta — plus alpha again once it moves to version 4.
        let mut advertised = TermMap::default();
        advertised.insert(TermKey::of("alpha"), 3);
        advertised.insert(TermKey::of("beta"), 1);
        let delta: Vec<DigestEntry> = delta_entries(&hot, &advertised).cloned().collect();
        assert_eq!(delta, entries(&[("gamma", 2)]));

        let mut view = HoldingsView::default();
        apply_delta(&mut view, &entries(&[("alpha", 3), ("beta", 1)]));
        apply_delta(&mut view, &delta);
        for entry in &hot {
            assert_eq!(
                view.get(entry.term_key()),
                Some(entry),
                "view must equal full digest"
            );
        }

        let bumped = entries(&[("alpha", 4)]);
        let delta2: Vec<DigestEntry> = delta_entries(&bumped, &advertised).cloned().collect();
        assert_eq!(delta2, bumped, "a version bump re-enters the delta");
        apply_delta(&mut view, &delta2);
        assert_eq!(view.get(&TermKey::of("alpha")), Some(&bumped[0]));
        // A (stale) replayed delta never lowers the reconstructed version —
        // nor swaps in the older version's fingerprint.
        apply_delta(&mut view, &entries(&[("alpha", 2)]));
        assert_eq!(view.get(&TermKey::of("alpha")), Some(&bumped[0]));
    }

    #[test]
    fn needs_fill_never_suppresses_on_the_filter_alone() {
        let held = entry("alpha", 3);
        let filter = ShardFilter::build([held.key()].into_iter(), 8);
        // Advertised + confirmed: suppressed.
        assert!(!needs_fill(3, Some(&held), &filter));
        assert!(!needs_fill(2, Some(&held), &filter));
        // Peer holds an older version: fill.
        assert!(needs_fill(4, Some(&held), &filter));
        // Never advertised: fill, even though the filter (by collision or
        // otherwise) could claim the key.
        assert!(needs_fill(3, None, &filter));
        // Advertised but since evicted (filter no longer confirms): fill.
        let evicted = ShardFilter::build(std::iter::empty(), 8);
        assert!(needs_fill(3, Some(&held), &evicted));
    }

    #[test]
    fn observing_a_known_term_keeps_its_key() {
        let mut v = VersionVector::new();
        let t = TermKey::of("t");
        v.observe(&t, 0);
        assert_eq!((v.len(), v.get(&t)), (1, 0), "version 0 is still recorded");
        v.observe(&t, 4);
        v.observe(&TermKey::of("t"), 2);
        assert_eq!((v.len(), v.get(&TermKey::of("t"))), (1, 4));
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![("t", 4)]);
        // An equal key made afresh finds the entry and does not replace the
        // key it is filed under.
        assert!(v
            .unordered()
            .all(|(key, _)| Arc::ptr_eq(key.term(), t.term())));
    }

    #[test]
    fn a_bumped_entry_keeps_its_term_key() {
        let held = entry("honey", 3);
        let bumped = held.bumped(4);
        assert!(Arc::ptr_eq(
            held.term_key().term(),
            bumped.term_key().term()
        ));
        assert_eq!(bumped, entry("honey", 4));
        assert_eq!(bumped.key(), FilterKey::of("honey", 4));
    }

    /// Two terms whose prefixes collide (forged here; SHA-256 makes one a
    /// 2^64 search) are two keys: each probe sequence finds its own.
    #[test]
    fn a_prefix_collision_costs_a_probe() {
        let forged = |term: &str| TermKey {
            prefix: TermKey::prefix_of("honey"),
            term: Arc::from(term),
        };
        let mut versions = VersionVector::new();
        versions.observe(&forged("honey"), 3);
        versions.observe(&forged("nectar"), 5);
        versions.observe(&forged("nectar"), 6);
        assert_eq!(versions.len(), 2);
        assert_eq!(versions.get(&forged("honey")), 3);
        assert_eq!(versions.get(&forged("nectar")), 6);
        assert_eq!(versions.get(&TermKey::of("honey")), 3);
    }

    /// Terms whose text order is not their numeric order, nor (with
    /// overwhelming odds) their prefixes' order.
    fn term(t: u8) -> String {
        format!("{}{t}", ["b", "a", "é", "c"][usize::from(t) % 4])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The vector behaves as a `BTreeMap<String, u64>` of pairwise
        /// maxima: `get` (by a kept key and by a key made afresh), `len` and
        /// `iter`, which must list in term order.
        #[test]
        fn the_version_vector_matches_a_btree_model(
            steps in proptest::collection::vec(
                (0u8..3, proptest::collection::vec((0u8..24, 0u64..6), 1..6)),
                0..30,
            ),
        ) {
            let mut vector = VersionVector::new();
            let mut model: BTreeMap<String, u64> = BTreeMap::new();
            // One key kept per term, as the engine keeps it.
            let kept: Vec<TermKey> = (0..24).map(|t| TermKey::of(term(t))).collect();
            for (how, pairs) in steps {
                // Observe each pair by its kept key, each by a key made
                // afresh, or each by the kept key and then by a fresh one
                // one version lower.
                for &(t, v) in &pairs {
                    let fresh = TermKey::of(term(t));
                    match how {
                        0 => vector.observe(&kept[usize::from(t)], v),
                        1 => vector.observe(&fresh, v),
                        _ => {
                            vector.observe(&kept[usize::from(t)], v);
                            vector.observe(&fresh, v.saturating_sub(1));
                        }
                    }
                    let slot = model.entry(term(t)).or_insert(v);
                    *slot = (*slot).max(v);
                }
                prop_assert_eq!(vector.len(), model.len());
                prop_assert_eq!(vector.is_empty(), model.is_empty());
                for t in 0..24 {
                    let expected = model.get(&term(t)).copied().unwrap_or(0);
                    prop_assert_eq!(vector.get(&kept[usize::from(t)]), expected);
                    prop_assert_eq!(vector.get(&TermKey::of(term(t))), expected);
                }
                let listed: Vec<(String, u64)> =
                    vector.iter().map(|(t, v)| (t.to_string(), v)).collect();
                let expected: Vec<(String, u64)> =
                    model.iter().map(|(t, v)| (t.clone(), *v)).collect();
                prop_assert_eq!(listed, expected);
            }
        }
    }
}

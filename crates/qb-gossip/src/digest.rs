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

use crate::filter::{FilterKey, ShardFilter};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One advertised holding: a `(term, version)` pair together with its
/// filter fingerprint. The fingerprint is hashed here, once, and every
/// clone shares the term's allocation — so a pair costs one SHA-256 and one
/// string for as long as some digest, delta or per-peer view refers to it.
/// Host-side only: the wire carries the term and the version, and the
/// receiver could recompute the rest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestEntry {
    term: Arc<str>,
    version: u64,
    key: FilterKey,
}

impl DigestEntry {
    /// Fingerprint `(term, version)`.
    pub fn new(term: impl Into<Arc<str>>, version: u64) -> DigestEntry {
        let term = term.into();
        let key = FilterKey::of(&term, version);
        DigestEntry { term, version, key }
    }

    /// The advertised term (a shared handle).
    pub fn term(&self) -> &Arc<str> {
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

/// A digest of one frontend's (hot) cached shards: `(term, version)` pairs
/// in descending popularity order. Exchanging digests first lets peers ship
/// only the shards the other side actually lacks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Digest {
    /// The advertised holdings, hottest first.
    pub entries: Vec<DigestEntry>,
}

impl Digest {
    /// Build from a cache's listing.
    pub fn new(entries: Vec<DigestEntry>) -> Digest {
        Digest { entries }
    }

    /// Bytes this digest occupies on the wire: each entry ships the term,
    /// a varint-bounded version (budgeted at 8) and a length prefix, plus a
    /// small frame header. Charged to the simulated network per exchange.
    pub fn wire_bytes(&self) -> usize {
        16 + self.entries.iter().map(|e| e.term.len() + 9).sum::<usize>()
    }
}

/// One frontend's accumulated view of what a partner holds: the newest
/// entry the partner advertised (or acknowledged a fill of) per term.
pub type HoldingsView = HashMap<Arc<str>, DigestEntry>;

/// The hot-set entries worth advertising to a peer that was last told
/// `advertised`: everything whose `(term, version)` it has not been told
/// yet. The complement of this delta is exactly what the peer can
/// reconstruct from its accumulated view, so `delta + accumulated view =
/// full digest` (asserted by the compression proptest).
pub fn delta_entries(hot: &[DigestEntry], advertised: &HashMap<Arc<str>, u64>) -> Vec<DigestEntry> {
    hot.iter()
        .filter(|e| advertised.get(&e.term) != Some(&e.version))
        .cloned()
        .collect()
}

/// Fold one advertised entry into the accumulated view of a peer's
/// holdings. Monotonic per term: the view only ever moves to a newer
/// version (the version guard receiver-side makes a genuinely downgraded
/// shard impossible to accept anyway).
pub(crate) fn note_holding(view: &mut HoldingsView, entry: &DigestEntry) {
    match view.get_mut(&entry.term) {
        Some(held) if held.version >= entry.version => {}
        Some(held) => *held = entry.clone(),
        None => {
            view.insert(Arc::clone(&entry.term), entry.clone());
        }
    }
}

/// Fold a received delta into the accumulated view of a peer's holdings,
/// entry by entry (a replayed or reordered delta never lowers a version).
pub fn apply_delta(view: &mut HoldingsView, delta: &[DigestEntry]) {
    for entry in delta {
        note_holding(view, entry);
    }
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
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VersionVector {
    versions: BTreeMap<String, u64>,
}

impl VersionVector {
    /// An empty vector (nothing observed yet).
    pub fn new() -> VersionVector {
        VersionVector::default()
    }

    /// Record that `version` of `term` exists. Monotonic: an older
    /// observation never lowers the recorded version.
    pub fn observe(&mut self, term: &str, version: u64) {
        match self.versions.get_mut(term) {
            Some(slot) => *slot = (*slot).max(version),
            None => {
                self.versions.insert(term.to_string(), version);
            }
        }
    }

    /// Highest version observed for `term` (0 when never observed).
    pub fn get(&self, term: &str) -> u64 {
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
        self.versions.iter().map(|(t, v)| (t.as_str(), *v))
    }

    /// Fold another vector in (pairwise max).
    pub fn merge(&mut self, other: &VersionVector) {
        for (term, v) in &other.versions {
            self.observe(term, *v);
        }
    }

    /// Does this vector dominate `other` (>= on every term of `other`)?
    pub fn dominates(&self, other: &VersionVector) -> bool {
        other.versions.iter().all(|(t, v)| self.get(t) >= *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(pairs: &[(&str, u64)]) -> Vec<DigestEntry> {
        pairs
            .iter()
            .map(|(t, v)| DigestEntry::new(*t, *v))
            .collect()
    }

    #[test]
    fn digest_wire_bytes_scale_with_terms() {
        let empty = Digest::default();
        assert!(empty.entries.is_empty());
        let d = Digest::new(entries(&[("honey", 3), ("bees", 1)]));
        assert_eq!(d.entries.len(), 2);
        assert_eq!(d.wire_bytes(), 16 + (5 + 9) + (4 + 9));
        assert!(d.wire_bytes() > empty.wire_bytes());
    }

    #[test]
    fn version_vector_is_monotonic() {
        let mut v = VersionVector::new();
        assert!(v.is_empty());
        assert_eq!(v.get("t"), 0);
        v.observe("t", 3);
        v.observe("t", 1); // older observation is a no-op
        assert_eq!(v.get("t"), 3);
        v.observe("t", 5);
        assert_eq!(v.get("t"), 5);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn delta_reconstruction_matches_the_full_digest() {
        let hot = entries(&[("alpha", 3), ("beta", 1), ("gamma", 2)]);
        // The peer was previously told alpha@3 and beta@1; only gamma (new)
        // rides the delta — plus alpha again once it moves to version 4.
        let mut advertised: HashMap<Arc<str>, u64> = HashMap::new();
        advertised.insert("alpha".into(), 3);
        advertised.insert("beta".into(), 1);
        let delta = delta_entries(&hot, &advertised);
        assert_eq!(delta, entries(&[("gamma", 2)]));

        let mut view = HoldingsView::new();
        apply_delta(&mut view, &entries(&[("alpha", 3), ("beta", 1)]));
        apply_delta(&mut view, &delta);
        for entry in &hot {
            assert_eq!(
                view.get(entry.term()),
                Some(entry),
                "view must equal full digest"
            );
        }

        let bumped = entries(&[("alpha", 4)]);
        let delta2 = delta_entries(&bumped, &advertised);
        assert_eq!(delta2, bumped, "a version bump re-enters the delta");
        apply_delta(&mut view, &delta2);
        assert_eq!(view.get("alpha"), Some(&bumped[0]));
        // A (stale) replayed delta never lowers the reconstructed version —
        // nor swaps in the older version's fingerprint.
        apply_delta(&mut view, &entries(&[("alpha", 2)]));
        assert_eq!(view.get("alpha"), Some(&bumped[0]));
    }

    #[test]
    fn needs_fill_never_suppresses_on_the_filter_alone() {
        let held = DigestEntry::new("alpha", 3);
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
        v.observe("t", 0);
        assert_eq!((v.len(), v.get("t")), (1, 0), "version 0 is still recorded");
        v.observe("t", 4);
        v.observe("t", 2);
        assert_eq!((v.len(), v.get("t")), (1, 4));
        assert_eq!(v.iter().collect::<Vec<_>>(), vec![("t", 4)]);
    }

    #[test]
    fn merge_and_dominates() {
        let mut a = VersionVector::new();
        a.observe("x", 2);
        a.observe("y", 1);
        let mut b = VersionVector::new();
        b.observe("x", 1);
        b.observe("z", 4);
        assert!(!a.dominates(&b));
        a.merge(&b);
        assert_eq!(a.get("x"), 2);
        assert_eq!(a.get("z"), 4);
        assert!(a.dominates(&b));
        assert!(!b.dominates(&a));
    }
}

//! A compact membership filter over a cache's `(term, version)` holdings.
//!
//! Delta digests only ship the hot-set entries that *changed* since the last
//! exchange with a peer; the receiver reconstructs the sender's holdings
//! from its accumulated per-peer view. That reconstruction is exact for
//! everything the sender ever advertised — but it cannot see *evictions*:
//! a term the sender dropped under cache pressure would stay in the
//! receiver's view forever and wrongly suppress future fills. The filter
//! closes that gap: every compressed digest carries a bloom-style summary
//! of the sender's *current* shard holdings, and an accumulated belief only
//! suppresses a fill while the filter still confirms it.
//!
//! The decision rule is deliberately asymmetric in what an error can cost:
//!
//! * a filter **false negative is impossible** (every inserted key always
//!   tests positive), so a fill is never triggered for an entry the peer
//!   provably advertised and still holds — no wasted fill from the filter;
//! * a filter **false positive** can only keep a stale belief alive for an
//!   entry the peer *evicted*; the fill is retried once the periodic
//!   full-digest anti-entropy round rebuilds the exact view. Beliefs
//!   themselves come from explicit advertisements, never from the filter,
//!   so the filter alone can never invent a "peer has it" outcome.

use qb_common::Hash256;

/// Number of hash probes per key. Three probes at the default 8 bits per
/// entry give a ~3% false-positive rate, which only delays (never loses)
/// fills for concurrently evicted entries.
const PROBES: usize = 3;

/// The filter fingerprint of one `(term, version)` key: the probe words the
/// filter reduces modulo its bit count, i.e. the first `PROBES` big-endian
/// `u64`s of `Hash256::digest_parts(["qb-gossip/filter", term, version_be])`.
/// A pure function of the pair, so it is hashed once — when the pair first
/// enters a frontend's digest — and then rides host-side with the pair
/// wherever it goes; a receiver could always recompute it, so it costs no
/// wire byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FilterKey([u64; PROBES]);

impl FilterKey {
    /// Hash `(term, version)` into its fingerprint (one SHA-256).
    pub fn of(term: &str, version: u64) -> FilterKey {
        let digest =
            Hash256::digest_parts(&[b"qb-gossip/filter", term.as_bytes(), &version.to_be_bytes()]);
        let [a, b, c, _] = digest.words();
        FilterKey([a, b, c])
    }
}

/// A bloom-style filter over `(term, version)` pairs, built on the
/// workspace's [`Hash256`] hashing (one digest per key, split into probe
/// indexes — no external hash crates). Keys enter and are tested by
/// [`FilterKey`], so building and probing cost three `%` per key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardFilter {
    bits: Vec<u8>,
    entries: usize,
}

impl ShardFilter {
    /// Build a filter sized at `bits_per_entry` bits per entry (minimum 64
    /// bits total, rounded up to whole bytes) over the given holdings.
    pub fn build(
        holdings: impl ExactSizeIterator<Item = FilterKey>,
        bits_per_entry: usize,
    ) -> ShardFilter {
        let entries = holdings.len();
        let bits = (entries * bits_per_entry.max(1)).max(64);
        let mut filter = ShardFilter {
            bits: vec![0u8; bits.div_ceil(8)],
            entries,
        };
        for key in holdings {
            for pos in filter.probe_positions(key) {
                filter.bits[pos / 8] |= 1 << (pos % 8);
            }
        }
        filter
    }

    /// An empty filter (answers `false` for every key).
    pub fn empty() -> ShardFilter {
        ShardFilter {
            bits: vec![0u8; 8],
            entries: 0,
        }
    }

    fn probe_positions(&self, key: FilterKey) -> [usize; PROBES] {
        let nbits = self.bits.len() as u64 * 8;
        key.0.map(|word| (word % nbits) as usize)
    }

    /// Does the filter (possibly) contain `key`? `true` is approximate
    /// ("maybe holds"), `false` is exact ("definitely does not hold") —
    /// inserted keys never test negative.
    pub fn contains(&self, key: FilterKey) -> bool {
        self.probe_positions(key)
            .into_iter()
            .all(|pos| self.bits[pos / 8] & (1 << (pos % 8)) != 0)
    }

    /// Number of entries the filter was built over.
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when built over no entries.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Bytes this filter occupies on the wire (bit array + a small header
    /// carrying the bit count).
    pub fn wire_bytes(&self) -> usize {
        4 + self.bits.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn holdings(n: usize) -> Vec<(String, u64)> {
        (0..n)
            .map(|i| (format!("term{i}"), (i % 9 + 1) as u64))
            .collect()
    }

    fn filter_over(holdings: &[(String, u64)], bits_per_entry: usize) -> ShardFilter {
        ShardFilter::build(
            holdings.iter().map(|(t, v)| FilterKey::of(t, *v)),
            bits_per_entry,
        )
    }

    /// The filter's defining construction, spelled out per key with no
    /// fingerprint in between: probe `i` of `(term, version)` is the `i`-th
    /// big-endian `u64` of the tagged SHA-256, modulo the bit count.
    fn reference_positions(term: &str, version: u64, nbits: usize) -> [usize; PROBES] {
        let digest =
            Hash256::digest_parts(&[b"qb-gossip/filter", term.as_bytes(), &version.to_be_bytes()]);
        std::array::from_fn(|i| {
            let word: [u8; 8] = digest.as_bytes()[i * 8..i * 8 + 8].try_into().unwrap();
            (u64::from_be_bytes(word) % nbits as u64) as usize
        })
    }

    fn reference_bits(holdings: &[(String, u64)], bits_per_entry: usize) -> Vec<u8> {
        let nbits = (holdings.len() * bits_per_entry.max(1)).max(64).div_ceil(8) * 8;
        let mut bits = vec![0u8; nbits / 8];
        for (term, version) in holdings {
            for pos in reference_positions(term, *version, nbits) {
                bits[pos / 8] |= 1 << (pos % 8);
            }
        }
        bits
    }

    #[test]
    fn no_false_negatives() {
        let h = holdings(200);
        let f = filter_over(&h, 8);
        for (t, v) in &h {
            assert!(
                f.contains(FilterKey::of(t, *v)),
                "inserted key ({t}, {v}) must test positive"
            );
        }
    }

    #[test]
    fn version_is_part_of_the_key() {
        let f = filter_over(&[("honey".into(), 3)], 8);
        assert!(f.contains(FilterKey::of("honey", 3)));
        // A different version of the same term is a different key; it may
        // collide in principle but not for this tiny filter.
        assert!(!f.contains(FilterKey::of("honey", 4)));
        assert!(!f.contains(FilterKey::of("nectar", 3)));
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = ShardFilter::empty();
        assert!(f.is_empty());
        assert!(!f.contains(FilterKey::of("anything", 1)));
        assert!(f.wire_bytes() >= 8);
    }

    #[test]
    fn false_positive_rate_is_low_at_default_sizing() {
        let h = holdings(512);
        let f = filter_over(&h, 8);
        let mut false_positives = 0;
        let trials = 2_000;
        for i in 0..trials {
            if f.contains(FilterKey::of(&format!("absent{i}"), 1)) {
                false_positives += 1;
            }
        }
        let rate = false_positives as f64 / trials as f64;
        assert!(rate < 0.08, "false-positive rate too high: {rate}");
    }

    #[test]
    fn wire_bytes_scale_with_entries() {
        let small = filter_over(&holdings(8), 8);
        let large = filter_over(&holdings(256), 8);
        assert!(large.wire_bytes() > small.wire_bytes());
        // ~1 byte per entry at the default sizing: an order of magnitude
        // under the ~17 bytes a full digest entry costs.
        assert_eq!(large.wire_bytes(), 4 + 256);
    }

    fn hex(bits: &[u8]) -> String {
        bits.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Bit arrays captured from the `Hash256::digest_parts` construction
    /// before fingerprints existed: the same holdings must set the same
    /// bits, so a partner's filter is indistinguishable on the wire.
    #[test]
    fn golden_bit_arrays() {
        let mixed = vec![
            ("".to_string(), 0u64),
            ("honey".to_string(), 3),
            ("m\u{e9}l \u{1f41d}".to_string(), u64::MAX),
        ];
        assert_eq!(hex(&filter_over(&mixed, 8).bits), "001000040c044280");
        assert_eq!(
            hex(&filter_over(&holdings(20), 8).bits),
            "3c08804c48290340738451302034638a005b5188"
        );
        assert_eq!(
            hex(&filter_over(&holdings(13), 10).bits),
            "248208581800ac01254052120013424108"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The fingerprint path sets exactly the bits the per-key SHA-256
        /// construction sets — for empty and non-ASCII terms, any version
        /// and any sizing — and answers every probe the same way.
        #[test]
        fn fingerprints_set_exactly_the_reference_bits(
            holdings in proptest::collection::vec(("[a-z\u{e9}\u{1f41d} ]{0,9}", any::<u64>()), 0..40),
            bits_per_entry in 0usize..14,
            probe in ("[a-z\u{e9}\u{1f41d} ]{0,9}", any::<u64>()),
        ) {
            let filter = filter_over(&holdings, bits_per_entry);
            prop_assert_eq!(&filter.bits, &reference_bits(&holdings, bits_per_entry));
            let nbits = filter.bits.len() * 8;
            for (term, version) in holdings.iter().chain([&probe]) {
                let expected = reference_positions(term, *version, nbits)
                    .into_iter()
                    .all(|pos| filter.bits[pos / 8] & (1 << (pos % 8)) != 0);
                prop_assert_eq!(filter.contains(FilterKey::of(term, *version)), expected);
            }
        }

        /// A version bump is a fresh key: once the holder moves to the new
        /// version, the old one is no longer confirmed unless its reference
        /// probe positions happen to be covered (a computed false positive).
        #[test]
        fn a_version_bump_yields_a_fresh_fingerprint(
            others in proptest::collection::vec(("[a-z]{1,6}", 1u64..9), 0..24),
            term in "[a-z\u{e9}]{0,8}",
            version in 1u64..1_000_000,
            bump in 1u64..5,
        ) {
            prop_assert_ne!(FilterKey::of(&term, version), FilterKey::of(&term, version + bump));
            let mut holdings = others;
            holdings.push((term.clone(), version + bump));
            let filter = filter_over(&holdings, 8);
            prop_assert!(filter.contains(FilterKey::of(&term, version + bump)));
            let nbits = filter.bits.len() * 8;
            let collides = reference_positions(&term, version, nbits)
                .into_iter()
                .all(|pos| filter.bits[pos / 8] & (1 << (pos % 8)) != 0);
            prop_assert_eq!(filter.contains(FilterKey::of(&term, version)), collides);
        }
    }
}

//! Property tests for the compressed-digest protocol: a delta digest plus
//! the holdings filter must reconstruct exactly the fill decisions a full
//! digest would make, and the filter alone must never produce a "peer has
//! it" outcome that suppresses a needed fill.

use proptest::prelude::*;
use qb_gossip::{
    apply_delta, delta_entries, needs_fill, DigestEntry, HoldingsView, ShardFilter, TermKey,
    TermMap,
};
use std::collections::BTreeMap;

/// `(term, version)` holdings out of a small shared term pool, so sender
/// and receiver states overlap, diverge and re-converge across cases.
fn holdings_vec(map: &BTreeMap<u8, u64>) -> Vec<DigestEntry> {
    map.iter()
        .map(|(t, v)| DigestEntry::new(TermKey::of(format!("t{t}")), *v))
        .collect()
}

fn filter_over(holdings: &[DigestEntry], bits_per_entry: usize) -> ShardFilter {
    ShardFilter::build(holdings.iter().map(DigestEntry::key), bits_per_entry)
}

fn told(entries: &[DigestEntry]) -> impl Iterator<Item = (TermKey, u64)> + '_ {
    entries.iter().map(|e| (e.term_key().clone(), e.version()))
}

fn delta(hot: &[DigestEntry], advertised: &TermMap<u64>) -> Vec<DigestEntry> {
    delta_entries(hot, advertised).cloned().collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Two successive exchanges: the sender advertises state `s1`, evolves
    /// to `s2` (bumps, drops, new terms) and ships only the delta. The
    /// receiver's accumulated view after applying the delta must agree
    /// with a full `s2` digest on every term `s2` advertises.
    #[test]
    fn delta_plus_prior_view_reconstructs_the_full_digest(
        s1 in proptest::collection::btree_map(0u8..20, 1u64..6, 0..16),
        bumps in proptest::collection::btree_map(0u8..20, 1u64..6, 0..16),
    ) {
        // s2 = s1 with some versions bumped and some brand-new terms.
        let mut s2 = s1.clone();
        for (t, d) in &bumps {
            let slot = s2.entry(*t).or_insert(0);
            *slot += d;
        }
        let hot1 = holdings_vec(&s1);
        let hot2 = holdings_vec(&s2);

        // Exchange 1: nothing advertised yet, the delta is the full state.
        let mut advertised = TermMap::default();
        let delta1 = delta(&hot1, &advertised);
        prop_assert_eq!(&delta1, &hot1);
        let mut view = HoldingsView::default();
        apply_delta(&mut view, &delta1);
        advertised.extend(told(&delta1));

        // Exchange 2: only the changed entries ride the delta...
        let delta2 = delta(&hot2, &advertised);
        for entry in &delta2 {
            prop_assert!(
                advertised.get(entry.term_key()) != Some(&entry.version()),
                "unchanged entry '{}' must not re-enter the delta", entry.term()
            );
        }
        // ...yet the receiver reconstructs the full second digest,
        // fingerprints included.
        apply_delta(&mut view, &delta2);
        for entry in &hot2 {
            prop_assert_eq!(
                view.get(entry.term_key()), Some(entry),
                "reconstructed view must equal the full digest for '{}'", entry.term()
            );
        }
    }

    /// Fill decisions: with the receiver's advertisements reflecting its
    /// actual holdings (the filter's no-false-negative guarantee covers
    /// them), the delta protocol's `needs_fill` must agree with the
    /// full-digest decision on every sender entry — same fills, and never
    /// a suppressed fill the receiver actually needs.
    #[test]
    fn compressed_fill_decisions_match_full_digest_decisions(
        sender in proptest::collection::btree_map(0u8..20, 1u64..6, 0..16),
        receiver in proptest::collection::btree_map(0u8..20, 1u64..6, 0..16),
        bits in 4usize..12,
    ) {
        let receiver_holdings = holdings_vec(&receiver);
        let filter = filter_over(&receiver_holdings, bits);
        // The receiver advertised exactly what it holds.
        let mut believed = HoldingsView::default();
        apply_delta(&mut believed, &receiver_holdings);
        for entry in holdings_vec(&sender) {
            let (term, version) = (entry.term(), entry.version());
            let held = believed.get(entry.term_key());
            let full_decision = held.is_none_or(|b| b.version() < version);
            let compressed_decision = needs_fill(version, held, &filter);
            prop_assert_eq!(
                compressed_decision, full_decision,
                "decision mismatch for '{}'@{}", term, version
            );
            // The hard guarantee behind "0 stale / no lost fills": whenever
            // the receiver genuinely lacks the version, the fill happens.
            if held.map_or(0, DigestEntry::version) < version {
                prop_assert!(compressed_decision, "needed fill for '{}' suppressed", term);
            }
        }
    }

    /// The filter alone can never suppress: without an explicit
    /// advertisement (`believed = None`) every fill is sent, no matter
    /// what the filter claims to contain.
    #[test]
    fn the_filter_alone_never_claims_peer_has_it(
        noise in proptest::collection::btree_map(0u8..20, 1u64..6, 0..16),
        term_id in 0u8..20,
        version in 1u64..6,
    ) {
        // Even a filter that certainly contains the key itself.
        let mut noise = noise;
        noise.insert(term_id, version);
        let filter = filter_over(&holdings_vec(&noise), 8);
        prop_assert!(needs_fill(version, None, &filter));
    }

    /// Evictions self-heal: once an advertised entry leaves the receiver's
    /// holdings, the rebuilt filter goes definitely-negative for it unless
    /// a bloom collision delays the refill — and a definite negative always
    /// reopens the fill, stale advertisement or not.
    #[test]
    fn a_definite_negative_always_reopens_the_fill(
        kept in proptest::collection::btree_map(0u8..10, 1u64..6, 0..8),
        evicted_id in 10u8..20,
        version in 1u64..6,
    ) {
        let advertised = DigestEntry::new(TermKey::of(format!("t{evicted_id}")), version);
        // The receiver once advertised `term`@version but evicted it; the
        // fresh filter only covers what it still holds.
        let filter = filter_over(&holdings_vec(&kept), 8);
        if !filter.contains(advertised.key()) {
            prop_assert!(
                needs_fill(version, Some(&advertised), &filter),
                "stale advertisement must not survive a definite negative"
            );
        }
    }
}

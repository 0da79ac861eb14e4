//! Defenses against the attacks the paper anticipates.
//!
//! * **Verification quorums with majority voting** (against the collusion
//!   attack on index data): each publish event is indexed independently by a
//!   quorum of bees; only postings submitted by a strict majority are
//!   accepted, and any bee whose submission differs from the accepted set is
//!   flagged (and slashed by the engine).
//! * **MinHash near-duplicate detection** (against the scraper-site attack):
//!   at publish time the page body's MinHash signature is compared against
//!   previously registered pages owned by other creators; mirrors above the
//!   similarity threshold are rejected and earn nothing.

use qb_common::Hash256;
use qb_index::ShardPosting;
use std::collections::BTreeMap;

/// Outcome of verifying a quorum of index submissions for one publish event.
#[derive(Debug, Clone)]
pub struct VerificationOutcome<'t> {
    /// Postings accepted by majority vote beside their terms, in
    /// `(term, doc, tf)` order.
    pub accepted: Vec<(&'t str, ShardPosting)>,
    /// Indices (into the submission vector) of bees whose submissions
    /// deviated from the accepted set.
    pub flagged: Vec<usize>,
}

/// How the quorum voted on one `(term, doc, tf)` key.
struct Tally<'s> {
    /// Submissions holding the key (each counts once).
    votes: usize,
    /// The first posting submitted under the key — the one accepted.
    first: &'s ShardPosting,
    /// The last submission counted, by the vote and then by the flagging
    /// pass (each counts a submission once however often it repeats a key).
    last_seen: usize,
}

/// Majority-vote verification of index submissions.
///
/// `submissions[i]` is the delta set produced by the i-th bee assigned to the
/// event. A posting is accepted when more than half of the submissions
/// contain an identical `(term, doc, tf)` entry. A bee is flagged when it
/// submitted a non-accepted posting or omitted an accepted one. The vote is
/// over borrowed keys: only an accepted posting is cloned.
pub fn verify_index_submissions<'t>(
    submissions: &[Vec<(&'t str, ShardPosting)>],
) -> VerificationOutcome<'t> {
    let q = submissions.len();
    if q == 0 {
        return VerificationOutcome {
            accepted: Vec::new(),
            flagged: Vec::new(),
        };
    }
    if q == 1 {
        // No redundancy, nothing to compare against: accept as-is.
        return VerificationOutcome {
            accepted: submissions[0].clone(),
            flagged: Vec::new(),
        };
    }
    let majority = q / 2 + 1;
    let mut tallies: BTreeMap<(&'t str, u64, u32), Tally<'_>> = BTreeMap::new();
    for (i, submission) in submissions.iter().enumerate() {
        for (term, posting) in submission {
            let tally = tallies
                .entry((term, posting.doc_id, posting.term_freq))
                .or_insert(Tally {
                    votes: 0,
                    first: posting,
                    last_seen: usize::MAX,
                });
            if tally.last_seen != i {
                tally.last_seen = i;
                tally.votes += 1;
            }
        }
    }
    let accepted: Vec<(&'t str, ShardPosting)> = tallies
        .iter()
        .filter(|(_, t)| t.votes >= majority)
        .map(|(&(term, ..), t)| (term, t.first.clone()))
        .collect();
    let mut flagged = Vec::new();
    for (i, submission) in submissions.iter().enumerate() {
        // Every key is in the map. This pass marks a submission `q + i`, a
        // value the vote never wrote, so each key counts once per bee.
        let mut held = 0usize;
        let mut extraneous = false;
        for (term, posting) in submission {
            let Some(tally) = tallies.get_mut(&(*term, posting.doc_id, posting.term_freq)) else {
                continue;
            };
            if tally.votes < majority {
                extraneous = true;
                break;
            }
            if tally.last_seen != q + i {
                tally.last_seen = q + i;
                held += 1;
            }
        }
        if extraneous || held < accepted.len() {
            flagged.push(i);
        }
    }
    VerificationOutcome { accepted, flagged }
}

/// Number of hash functions in a MinHash signature.
pub const MINHASH_HASHES: usize = 64;

/// MinHash signature of a page body, used for near-duplicate detection.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct MinHashSignature {
    values: Vec<u64>,
}

impl MinHashSignature {
    /// Compute the signature of a text using 4-word shingles.
    pub fn of_text(text: &str) -> MinHashSignature {
        let words: Vec<&str> = text.split_whitespace().collect();
        let mut shingle_hashes: Vec<u64> = Vec::new();
        if words.len() < 4 {
            let [h, ..] = Hash256::digest(text.as_bytes()).words();
            shingle_hashes.push(h);
        } else {
            for w in words.windows(4) {
                let shingle = w.join(" ");
                let [h, ..] = Hash256::digest(shingle.as_bytes()).words();
                shingle_hashes.push(h);
            }
        }
        // MinHash with MINHASH_HASHES different linear permutations.
        let mut values = vec![u64::MAX; MINHASH_HASHES];
        for (i, value) in values.iter_mut().enumerate() {
            let a = 0x9E3779B97F4A7C15u64.wrapping_mul(2 * i as u64 + 1);
            let b = 0xD1B54A32D192ED03u64.wrapping_mul(i as u64 + 1);
            for &s in &shingle_hashes {
                let permuted = s.wrapping_mul(a).wrapping_add(b);
                if permuted < *value {
                    *value = permuted;
                }
            }
        }
        MinHashSignature { values }
    }

    /// Estimated Jaccard similarity with another signature.
    pub fn similarity(&self, other: &MinHashSignature) -> f64 {
        let matches = self
            .values
            .iter()
            .zip(&other.values)
            .filter(|(a, b)| a == b)
            .count();
        matches as f64 / self.values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qb_index::doc_id_for_name;
    use std::collections::BTreeSet;

    fn posting(name: &str, tf: u32) -> ShardPosting {
        ShardPosting {
            doc_id: doc_id_for_name(name),
            term_freq: tf,
            doc_len: 10,
            name: name.to_string(),
            version: 1,
            creator: 1,
        }
    }

    fn honest_submission() -> Vec<(&'static str, ShardPosting)> {
        vec![("honey", posting("p/a", 2)), ("bee", posting("p/a", 1))]
    }

    /// The vote as it was written before it borrowed its keys: every key a
    /// `String`, cloned into a count map, a representative map, a per-bee
    /// seen set and the accepted set. The reference the borrowed vote must
    /// reproduce.
    fn reference_vote(
        submissions: &[Vec<(String, ShardPosting)>],
    ) -> (Vec<(String, ShardPosting)>, Vec<usize>) {
        type Key = (String, u64, u32);
        let key = |term: &str, p: &ShardPosting| (term.to_string(), p.doc_id, p.term_freq);
        let q = submissions.len();
        if q == 0 {
            return (Vec::new(), Vec::new());
        }
        if q == 1 {
            return (submissions[0].clone(), Vec::new());
        }
        let majority = q / 2 + 1;
        let mut counts: BTreeMap<Key, usize> = BTreeMap::new();
        let mut representative: BTreeMap<Key, (String, ShardPosting)> = BTreeMap::new();
        for submission in submissions {
            let mut seen: BTreeSet<Key> = BTreeSet::new();
            for (term, posting) in submission {
                let k = key(term, posting);
                if seen.insert(k.clone()) {
                    *counts.entry(k.clone()).or_insert(0) += 1;
                    representative
                        .entry(k)
                        .or_insert_with(|| (term.clone(), posting.clone()));
                }
            }
        }
        let accepted_keys: BTreeSet<Key> = counts
            .iter()
            .filter(|(_, &c)| c >= majority)
            .map(|(k, _)| k.clone())
            .collect();
        let accepted = accepted_keys
            .iter()
            .map(|k| representative[k].clone())
            .collect();
        let mut flagged = Vec::new();
        for (i, submission) in submissions.iter().enumerate() {
            let keys: BTreeSet<Key> = submission.iter().map(|(t, p)| key(t, p)).collect();
            let extraneous = keys.difference(&accepted_keys).next().is_some();
            let missing = accepted_keys.difference(&keys).next().is_some();
            if extraneous || missing {
                flagged.push(i);
            }
        }
        (accepted, flagged)
    }

    #[test]
    fn unanimous_submissions_are_all_accepted() {
        let subs = vec![
            honest_submission(),
            honest_submission(),
            honest_submission(),
        ];
        let out = verify_index_submissions(&subs);
        assert_eq!(out.accepted.len(), 2);
        assert!(out.flagged.is_empty());
    }

    #[test]
    fn minority_injection_is_rejected_and_flagged() {
        let mut evil = honest_submission();
        evil.push(("honey", posting("evil/spam", 999)));
        let subs = vec![honest_submission(), evil, honest_submission()];
        let out = verify_index_submissions(&subs);
        assert_eq!(
            out.accepted.len(),
            2,
            "the injected posting is not accepted"
        );
        assert_eq!(out.flagged, vec![1]);
    }

    #[test]
    fn majority_collusion_defeats_small_quorum() {
        let mut evil = honest_submission();
        evil.push(("honey", posting("evil/spam", 999)));
        let subs = vec![evil.clone(), evil, honest_submission()];
        let out = verify_index_submissions(&subs);
        assert!(out.accepted.iter().any(|(_, p)| p.name == "evil/spam"));
        assert_eq!(out.flagged, vec![2], "the honest minority looks deviant");
    }

    #[test]
    fn lazy_bee_is_flagged_for_missing_postings() {
        let subs = vec![honest_submission(), Vec::new(), honest_submission()];
        let out = verify_index_submissions(&subs);
        assert_eq!(out.accepted.len(), 2);
        assert_eq!(out.flagged, vec![1]);
    }

    #[test]
    fn single_submission_is_accepted_unverified() {
        let out = verify_index_submissions(&[honest_submission()]);
        assert_eq!(out.accepted.len(), 2);
        assert!(out.flagged.is_empty());
        let empty = verify_index_submissions(&[]);
        assert!(empty.accepted.is_empty());
    }

    proptest! {
        /// Quorums of 1–5 honest, lazy and colluding bees over a small
        /// vocabulary, each submission then edited — entries duplicated,
        /// dropped, or re-submitted under the same `(term, doc, tf)` with a
        /// different name, length or version: the borrowed vote accepts
        /// the same postings in the same order and flags the same bees as
        /// the `String`-keyed reference.
        #[test]
        fn the_borrowed_vote_equals_the_string_keyed_reference(
            page in proptest::collection::vec((0usize..6, 1u32..4), 0..6),
            bees in proptest::collection::vec((0u8..3, 0usize..3), 1..6),
            edits in proptest::collection::vec((0u8..4, any::<usize>(), any::<u8>()), 0..12),
        ) {
            const TERMS: [&str; 6] = ["bee", "hive", "honey", "nectar", "pollen", "wax"];
            let honest: Vec<(String, ShardPosting)> = page
                .iter()
                .map(|&(t, tf)| (TERMS[t].to_string(), posting("p/a", tf)))
                .collect();
            let mut submissions: Vec<Vec<(String, ShardPosting)>> = bees
                .iter()
                .map(|&(behaviour, target)| match behaviour {
                    0 => honest.clone(),
                    1 => Vec::new(),
                    _ => {
                        // Colluding: the honest work plus a boosted page under
                        // every term (two boost targets, so coalitions split).
                        let boost = ["evil/a", "evil/b", "evil/c"][target];
                        let mut s = honest.clone();
                        for (term, _) in &honest {
                            s.push((term.clone(), posting(boost, 999)));
                        }
                        s
                    }
                })
                .collect();
            for (op, at, byte) in edits {
                let i = at % submissions.len();
                let sub = &mut submissions[i];
                if sub.is_empty() {
                    continue;
                }
                let j = (at / 7) % sub.len();
                match op {
                    0 => {
                        let dup = sub[j].clone();
                        sub.insert(usize::from(byte) % (sub.len() + 1), dup);
                    }
                    1 => {
                        sub.remove(j);
                    }
                    2 => {
                        // Same key, different posting: who is first decides.
                        let (term, mut p) = sub[j].clone();
                        p.name = format!("alias/{byte}");
                        p.doc_len = u32::from(byte);
                        p.version = u64::from(byte % 3);
                        sub.insert(usize::from(byte) % (sub.len() + 1), (term, p));
                    }
                    _ => sub[j].1.term_freq = u32::from(byte % 4),
                }
            }
            let borrowed: Vec<Vec<(&str, ShardPosting)>> = submissions
                .iter()
                .map(|s| s.iter().map(|(t, p)| (t.as_str(), p.clone())).collect())
                .collect();
            let got = verify_index_submissions(&borrowed);
            let (accepted, flagged) = reference_vote(&submissions);
            let got_accepted: Vec<(String, ShardPosting)> = got
                .accepted
                .into_iter()
                .map(|(t, p)| (t.to_string(), p))
                .collect();
            prop_assert_eq!(got_accepted, accepted);
            prop_assert_eq!(got.flagged, flagged);
        }
    }

    #[test]
    fn minhash_identical_text_is_fully_similar() {
        let a =
            MinHashSignature::of_text("the decentralized web needs a decentralized search engine");
        let b =
            MinHashSignature::of_text("the decentralized web needs a decentralized search engine");
        assert_eq!(a.similarity(&b), 1.0);
    }

    #[test]
    fn minhash_mirror_with_small_edits_is_detected() {
        let original: String = (0..200).map(|i| format!("word{} ", i % 37)).collect();
        let mut mirrored = original.clone();
        mirrored.push_str(" tiny addition at the end");
        let a = MinHashSignature::of_text(&original);
        let b = MinHashSignature::of_text(&mirrored);
        assert!(a.similarity(&b) > 0.8, "similarity = {}", a.similarity(&b));
    }

    #[test]
    fn minhash_unrelated_text_is_dissimilar() {
        let a = MinHashSignature::of_text(
            &(0..200).map(|i| format!("alpha{} ", i)).collect::<String>(),
        );
        let b =
            MinHashSignature::of_text(&(0..200).map(|i| format!("beta{} ", i)).collect::<String>());
        assert!(a.similarity(&b) < 0.2, "similarity = {}", a.similarity(&b));
    }

    #[test]
    fn minhash_handles_short_text() {
        let a = MinHashSignature::of_text("tiny");
        let b = MinHashSignature::of_text("tiny");
        assert_eq!(a.similarity(&b), 1.0);
        let c = MinHashSignature::of_text("different");
        assert!(a.similarity(&c) < 1.0);
    }
}

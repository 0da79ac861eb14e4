//! Posting lists: the per-term document lists of the inverted index.

use qb_common::varint;

/// One posting: a document containing the term, with its term frequency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Posting {
    /// Document identifier.
    pub doc_id: u64,
    /// Number of occurrences of the term in the document.
    pub term_freq: u32,
}

/// A posting list sorted by ascending document id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    postings: Vec<Posting>,
}

impl PostingList {
    /// Empty list.
    pub fn new() -> PostingList {
        PostingList::default()
    }

    /// Build from unsorted postings (sorts and merges duplicates, keeping the
    /// larger term frequency for a duplicated document).
    pub fn from_postings(mut postings: Vec<Posting>) -> PostingList {
        postings.sort_by_key(|p| p.doc_id);
        let mut merged: Vec<Posting> = Vec::with_capacity(postings.len());
        for p in postings {
            match merged.last_mut() {
                Some(last) if last.doc_id == p.doc_id => {
                    last.term_freq = last.term_freq.max(p.term_freq);
                }
                _ => merged.push(p),
            }
        }
        PostingList { postings: merged }
    }

    /// Number of postings (document frequency of the term).
    pub fn len(&self) -> usize {
        self.postings.len()
    }

    /// True when no document contains the term.
    pub fn is_empty(&self) -> bool {
        self.postings.is_empty()
    }

    /// The postings, sorted by doc id.
    pub fn postings(&self) -> &[Posting] {
        &self.postings
    }

    /// Insert or update a posting (keeps the list sorted).
    pub fn upsert(&mut self, doc_id: u64, term_freq: u32) {
        match self.postings.binary_search_by_key(&doc_id, |p| p.doc_id) {
            Ok(i) => self.postings[i].term_freq = term_freq,
            Err(i) => self.postings.insert(i, Posting { doc_id, term_freq }),
        }
    }

    /// Remove a document from the list; returns true if it was present.
    pub fn remove(&mut self, doc_id: u64) -> bool {
        match self.postings.binary_search_by_key(&doc_id, |p| p.doc_id) {
            Ok(i) => {
                self.postings.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Term frequency of a document, if present.
    pub fn get(&self, doc_id: u64) -> Option<u32> {
        self.postings
            .binary_search_by_key(&doc_id, |p| p.doc_id)
            .ok()
            .map(|i| self.postings[i].term_freq)
    }

    /// Intersect with another list using galloping (exponential) search from
    /// the smaller list into the larger one — the frontend's core operation
    /// ("composing the search results by intersecting the matched inverted
    /// lists").
    pub fn intersect(&self, other: &PostingList) -> PostingList {
        let (small, large) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let mut out = Vec::new();
        let mut lo = 0usize;
        for p in &small.postings {
            if lo >= large.postings.len() {
                break;
            }
            // Gallop forward until large[hi] >= p.doc_id (or the end).
            let mut step = 1usize;
            let mut hi = lo;
            while hi < large.postings.len() && large.postings[hi].doc_id < p.doc_id {
                lo = hi + 1;
                hi += step;
                step *= 2;
            }
            // The first element >= p.doc_id (if any) is at an index in [lo, hi].
            let end = if hi >= large.postings.len() {
                large.postings.len()
            } else {
                hi + 1
            };
            if let Ok(i) = large.postings[lo..end].binary_search_by_key(&p.doc_id, |q| q.doc_id) {
                let q = large.postings[lo + i];
                out.push(Posting {
                    doc_id: p.doc_id,
                    // min() is symmetric, so intersect(a, b) == intersect(b, a)
                    // and the result is adequate for conjunctive scoring.
                    term_freq: p.term_freq.min(q.term_freq),
                });
                lo += i + 1;
            }
        }
        PostingList { postings: out }
    }

    /// Union with another list (summing term frequencies for shared docs).
    pub fn union(&self, other: &PostingList) -> PostingList {
        let mut out = Vec::with_capacity(self.len() + other.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.postings.len() && j < other.postings.len() {
            let a = self.postings[i];
            let b = other.postings[j];
            match a.doc_id.cmp(&b.doc_id) {
                std::cmp::Ordering::Less => {
                    out.push(a);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(Posting {
                        doc_id: a.doc_id,
                        term_freq: a.term_freq.saturating_add(b.term_freq),
                    });
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&self.postings[i..]);
        out.extend_from_slice(&other.postings[j..]);
        PostingList { postings: out }
    }

    /// Encode as doc-id deltas + term frequencies, both LEB128 varints.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + self.postings.len() * 3);
        varint::encode_u64(self.postings.len() as u64, &mut out);
        let mut prev = 0u64;
        for p in &self.postings {
            varint::encode_u64(p.doc_id - prev, &mut out);
            varint::encode_u64(p.term_freq as u64, &mut out);
            prev = p.doc_id;
        }
        out
    }

    /// Size of the encoded form in bytes.
    pub fn encoded_len(&self) -> usize {
        self.encode().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn list(ids: &[u64]) -> PostingList {
        PostingList::from_postings(
            ids.iter()
                .map(|&d| Posting {
                    doc_id: d,
                    term_freq: 1,
                })
                .collect(),
        )
    }

    #[test]
    fn from_postings_sorts_and_dedups() {
        let l = PostingList::from_postings(vec![
            Posting {
                doc_id: 5,
                term_freq: 2,
            },
            Posting {
                doc_id: 1,
                term_freq: 1,
            },
            Posting {
                doc_id: 5,
                term_freq: 7,
            },
        ]);
        assert_eq!(l.len(), 2);
        assert_eq!(l.postings()[0].doc_id, 1);
        assert_eq!(l.get(5), Some(7));
    }

    #[test]
    fn upsert_and_remove_keep_order() {
        let mut l = PostingList::new();
        l.upsert(10, 1);
        l.upsert(2, 3);
        l.upsert(7, 2);
        l.upsert(2, 9);
        assert_eq!(l.len(), 3);
        assert_eq!(l.get(2), Some(9));
        assert!(l.remove(7));
        assert!(!l.remove(7));
        let ids: Vec<u64> = l.postings().iter().map(|p| p.doc_id).collect();
        assert_eq!(ids, vec![2, 10]);
    }

    #[test]
    fn intersect_known_case() {
        let a = list(&[1, 3, 5, 7, 9, 11]);
        let b = list(&[3, 4, 5, 10, 11]);
        let i = a.intersect(&b);
        let ids: Vec<u64> = i.postings().iter().map(|p| p.doc_id).collect();
        assert_eq!(ids, vec![3, 5, 11]);
        // Symmetric.
        let j = b.intersect(&a);
        assert_eq!(i, j);
    }

    #[test]
    fn intersect_with_empty_is_empty() {
        let a = list(&[1, 2, 3]);
        let e = PostingList::new();
        assert!(a.intersect(&e).is_empty());
        assert!(e.intersect(&a).is_empty());
    }

    #[test]
    fn union_known_case() {
        let a = list(&[1, 3, 5]);
        let b = list(&[3, 4]);
        let u = a.union(&b);
        let ids: Vec<u64> = u.postings().iter().map(|p| p.doc_id).collect();
        assert_eq!(ids, vec![1, 3, 4, 5]);
        assert_eq!(u.get(3), Some(2), "shared doc sums term frequencies");
    }

    #[test]
    fn delta_encoding_is_compact_for_dense_lists() {
        let dense = PostingList::from_postings(
            (0..10_000u64)
                .map(|d| Posting {
                    doc_id: d,
                    term_freq: 1,
                })
                .collect(),
        );
        // Two bytes per posting (delta=1, tf=1) plus the count header.
        assert!(dense.encoded_len() < 10_000 * 3);
    }

    proptest! {
        #[test]
        fn intersection_matches_set_semantics(a in proptest::collection::btree_set(0u64..2000, 0..300),
                                              b in proptest::collection::btree_set(0u64..2000, 0..300)) {
            let la = list(&a.iter().copied().collect::<Vec<_>>());
            let lb = list(&b.iter().copied().collect::<Vec<_>>());
            let expected: BTreeSet<u64> = a.intersection(&b).copied().collect();
            let got: BTreeSet<u64> = la.intersect(&lb).postings().iter().map(|p| p.doc_id).collect();
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn union_matches_set_semantics(a in proptest::collection::btree_set(0u64..2000, 0..300),
                                       b in proptest::collection::btree_set(0u64..2000, 0..300)) {
            let la = list(&a.iter().copied().collect::<Vec<_>>());
            let lb = list(&b.iter().copied().collect::<Vec<_>>());
            let expected: BTreeSet<u64> = a.union(&b).copied().collect();
            let got: BTreeSet<u64> = la.union(&lb).postings().iter().map(|p| p.doc_id).collect();
            prop_assert_eq!(got, expected);
        }
    }
}

//! Property tests for the segment algebra and the artifact round trip:
//! merge must be a commutative, associative, idempotent fold under
//! per-term version-vector dominance (equal versions folding
//! posting-by-posting through `upsert`), an exported artifact must
//! survive publish → fetch → import byte-identically, and the length a
//! segment keeps current must be the length it encodes to.

use proptest::prelude::*;
use qb_cache::{CacheConfig, QueryCache};
use qb_common::SimInstant;
use qb_dht::{DhtConfig, DhtNetwork};
use qb_index::{ShardEntry, ShardPosting};
use qb_segment::{fetch_segment, publish_segment, Segment};
use qb_simnet::{NetConfig, SimNet};
use qb_storage::{StorageConfig, StorageNetwork};
use std::collections::BTreeMap;

/// Posting content is a pure function of `(doc_id, version)` — the same
/// invariant the real pipeline upholds (a posting's payload is derived
/// from the page version it was indexed from), and what makes equal-version
/// `upsert` folds order-independent.
fn posting(doc_id: u64, version: u64) -> ShardPosting {
    ShardPosting {
        doc_id,
        term_freq: (1 + (doc_id + version) % 5) as u32,
        doc_len: (30 + doc_id % 50) as u32,
        name: format!("page/{doc_id}").into(),
        version,
        creator: doc_id % 7,
    }
}

/// Size of the shared term pool every generated segment draws from.
const TERMS: u8 = 12;

/// The term a generated term id names: ids sort as their names do.
fn term(term_id: u8) -> String {
    format!("t{term_id:02}")
}

/// A shard from a generated `(doc_id -> posting version)` map.
fn shard(term_id: u8, version: u64, docs: &BTreeMap<u64, u64>) -> ShardEntry {
    let mut s = ShardEntry::empty(&term(term_id));
    s.version = version;
    for (&d, &v) in docs {
        s.upsert(posting(d, v));
    }
    s
}

/// Raw generated form of one segment: `term -> (shard version, postings)`
/// over a small shared term pool, so independently generated segments
/// overlap, diverge and collide on versions.
type RawSegment = BTreeMap<u8, (u64, BTreeMap<u64, u64>)>;

/// Strategy producing a [`RawSegment`] (the vendored proptest stand-in has
/// no `prop_map`, so the conversion happens inside the test body).
fn segment_strategy() -> impl Strategy<Value = RawSegment> {
    proptest::collection::btree_map(
        0u8..TERMS,
        (
            1u64..6,
            proptest::collection::btree_map(0u64..30, 1u64..4, 0..8),
        ),
        0..10,
    )
}

fn build(raw: &RawSegment) -> Segment {
    Segment::from_shards(
        raw.iter()
            .map(|(&t, (version, docs))| shard(t, *version, docs)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Merge order never matters — byte-for-byte — and folding one
    /// segment into another in place is their merge.
    #[test]
    fn merge_is_commutative(ra in segment_strategy(), rb in segment_strategy()) {
        let (a, b) = (build(&ra), build(&rb));
        let ab = Segment::merge([a.clone(), b.clone()]);
        let mut folded = a.clone();
        folded.absorb(b.clone());
        prop_assert_eq!(&folded, &ab);
        let ba = Segment::merge([b, a]);
        prop_assert_eq!(ab.encode(), ba.encode());
    }

    /// Grouping never matters: compacting pending segments incrementally
    /// or all at once yields the same artifact.
    #[test]
    fn merge_is_associative(
        ra in segment_strategy(),
        rb in segment_strategy(),
        rc in segment_strategy(),
    ) {
        let (a, b, c) = (build(&ra), build(&rb), build(&rc));
        let left = Segment::merge([Segment::merge([a.clone(), b.clone()]), c.clone()]);
        let right = Segment::merge([a, Segment::merge([b, c])]);
        prop_assert_eq!(left.encode(), right.encode());
    }

    /// Re-merging an already merged artifact changes nothing.
    #[test]
    fn merge_is_idempotent(ra in segment_strategy(), rb in segment_strategy()) {
        let (a, b) = (build(&ra), build(&rb));
        let merged = Segment::merge([a.clone(), b]);
        prop_assert_eq!(
            Segment::merge([merged.clone(), a]).encode(),
            merged.encode()
        );
        prop_assert_eq!(
            Segment::merge([merged.clone(), merged.clone()]).encode(),
            merged.encode()
        );
    }

    /// Per-term version-vector dominance: every merged term carries the
    /// max version of its sides; a strictly newer side wins wholesale
    /// (never a posting union — that would resurrect removed postings),
    /// and equal versions fold posting-by-posting through `upsert`.
    #[test]
    fn merge_respects_version_dominance(
        ra in segment_strategy(),
        rb in segment_strategy(),
    ) {
        let (a, b) = (build(&ra), build(&rb));
        let merged = Segment::merge([a.clone(), b.clone()]);
        let terms: std::collections::BTreeSet<String> =
            ra.keys().chain(rb.keys()).map(|&t| term(t)).collect();
        prop_assert_eq!(merged.len(), terms.len());
        for term in &terms {
            let got = merged.get(term).expect("merged term present");
            match (a.get(term), b.get(term)) {
                (Some(x), None) => prop_assert_eq!(got, x),
                (None, Some(y)) => prop_assert_eq!(got, y),
                (Some(x), Some(y)) => {
                    prop_assert_eq!(got.version, x.version.max(y.version));
                    match x.version.cmp(&y.version) {
                        std::cmp::Ordering::Greater => prop_assert_eq!(got, x),
                        std::cmp::Ordering::Less => prop_assert_eq!(got, y),
                        std::cmp::Ordering::Equal => {
                            let mut folded = x.clone();
                            for p in &y.postings {
                                folded.upsert(p.clone());
                            }
                            prop_assert_eq!(got, &folded);
                        }
                    }
                }
                (None, None) => unreachable!("term came from one side"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The pending-segment length the compaction check reads is kept
    /// current, never recomputed: after every step of an arbitrary mix of
    /// inserts (new terms, newer and older versions), equal-version folds,
    /// k-way merges and decode round trips it equals the encoded length.
    #[test]
    fn encoded_len_tracks_encode_through_every_operation(
        start in segment_strategy(),
        steps in proptest::collection::vec((0u8..4, segment_strategy(), any::<u8>()), 1..8),
    ) {
        let mut seg = build(&start);
        prop_assert_eq!(seg.encoded_len(), seg.encode().len());
        for (op, raw, pick) in steps {
            match op {
                0 => {
                    for (&t, (version, docs)) in &raw {
                        seg.insert(shard(t, *version, docs));
                    }
                }
                1 => {
                    // Fold more postings into an existing term at its own
                    // version (the one path that changes a held shard).
                    let held: Vec<(String, u64)> = (0..TERMS)
                        .map(term)
                        .filter_map(|t| seg.get(&t).map(|s| (t.clone(), s.version)))
                        .collect();
                    if let Some((term, version)) = held.get(usize::from(pick) % held.len().max(1)) {
                        let docs = raw.values().next().map(|(_, d)| d.clone()).unwrap_or_default();
                        let mut extra = shard(0, *version, &docs);
                        extra.term = term.clone();
                        seg.insert(extra);
                    }
                }
                2 => seg.absorb(build(&raw)),
                _ => seg = Segment::decode(&seg.encode()).expect("own encoding decodes"),
            }
            prop_assert_eq!(seg.encoded_len(), seg.encode().len());
        }
    }
}

proptest! {
    // Each case spins up a network stack; fewer cases keep the suite fast.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full artifact path: export a cache's shard tier, publish it as
    /// a chunked DAG + DHT pointer, fetch it from another peer, import it
    /// into a cold cache — and get the exact same bytes back out.
    #[test]
    fn export_publish_fetch_import_round_trips_byte_identically(
        raw in segment_strategy(),
        generation in 1u64..50,
    ) {
        let seg = build(&raw);
        let now = SimInstant::ZERO;
        let mut cache_config = CacheConfig::enabled();
        cache_config.shard_capacity_bytes = 1 << 20; // never the constraint here
        let mut writer = QueryCache::new(cache_config.clone());
        for &t in raw.keys() {
            writer.store_shard(seg.get(&term(t)).expect("built from raw"), now);
        }
        let exported = Segment::export(&writer, usize::MAX, now);
        prop_assert_eq!(exported.encode(), seg.encode());

        let mut net = SimNet::new(12, NetConfig::lan(), 0xE16);
        let mut dht = DhtNetwork::build(&mut net, DhtConfig::small());
        let mut storage = StorageNetwork::new(12, StorageConfig::small());
        let (sref, _) =
            publish_segment(&mut net, &mut dht, &mut storage, 0, &exported, generation)
                .expect("publish");
        prop_assert_eq!(sref.generation, generation);
        prop_assert_eq!(sref.term_count, seg.len() as u64);

        let (fetched, fref, _) =
            fetch_segment(&mut net, &mut dht, &mut storage, 7, generation).expect("fetch");
        prop_assert_eq!(fref, sref);
        prop_assert_eq!(fetched.encode(), seg.encode());
        prop_assert_eq!(fetched.cid(), seg.cid());

        // Import into a cold cache, then read the artifact back out of it.
        let mut joiner = QueryCache::new(cache_config);
        let report = fetched.import_into(&mut joiner, |_| 0, now);
        prop_assert_eq!(report.accepted, seg.len() as u64);
        let offered = report.accepted + report.stale + report.duplicates + report.refused;
        prop_assert_eq!(offered, seg.len() as u64);
        let reread = Segment::export(&joiner, usize::MAX, now);
        prop_assert_eq!(reread.encode(), seg.encode());
    }
}

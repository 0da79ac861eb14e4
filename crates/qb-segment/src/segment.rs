//! The segment format and its three core operations: export, merge, import.

use qb_cache::{QueryCache, RemoteAdmit};
use qb_common::{varint, Cid, QbError, QbResult, SimInstant};
use qb_index::ShardEntry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Leading magic of every serialized segment.
pub const SEGMENT_MAGIC: [u8; 4] = *b"QBSG";

/// Format version written after the magic; bumped on incompatible changes.
pub const SEGMENT_FORMAT_VERSION: u64 = 1;

/// Decode guard against absurd term counts.
const MAX_SEGMENT_TERMS: u64 = 10_000_000;

/// An immutable, deterministic multi-term index artifact: one
/// [`ShardEntry`] per term, each carrying its shard version — together the
/// segment's per-term version vector, the metadata that makes two segments
/// mergeable without coordination.
///
/// Terms are kept sorted (a `BTreeMap`), so the same logical segment
/// always encodes to the same bytes and its [`Segment::cid`] is a stable
/// content address.
///
/// Shards are held as shared handles (the cache tiers' ownership rule):
/// exporting from a cache, importing into one and cloning or merging
/// segments move reference counts, not postings. Only an equal-version
/// merge, which changes a shard, copies it first.
///
/// Each handle sits beside the bytes its shard encodes to, and the segment
/// keeps the sum of their framed lengths, so [`Segment::encoded_len`] is a
/// field read: a shard's length is computed once, when it enters a segment
/// from outside (insert, export, decode), and merges carry it along.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Segment {
    entries: BTreeMap<String, Framed>,
    /// Sum of every entry's framed length.
    body_len: usize,
}

/// One shard of a segment and the bytes it encodes to, which the encoding
/// frames behind their varint length.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Framed {
    shard: Arc<ShardEntry>,
    len: usize,
}

/// Bytes a shard encoding to `len` bytes takes framed in a segment.
fn framed_len(len: usize) -> usize {
    varint::encoded_len(len as u64) + len
}

/// Per-term admission outcomes of [`Segment::import_into`] — the segment
/// analogue of the gossip fill counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImportReport {
    /// Shards admitted into the receiving tier.
    pub accepted: u64,
    /// Shards rejected by the version guard (older than the receiver's
    /// observed version for the term).
    pub stale: u64,
    /// Shards the receiver already held at the same or newer version.
    pub duplicates: u64,
    /// Shards the tier's admission policy refused (byte budgets).
    pub refused: u64,
}

impl ImportReport {
    /// Total shards offered.
    pub fn offered(&self) -> u64 {
        self.accepted + self.stale + self.duplicates + self.refused
    }
}

impl Segment {
    /// An empty segment.
    pub fn new() -> Segment {
        Segment::default()
    }

    /// Build a segment from shards (later duplicates merge under version
    /// dominance). Version-0 shards (never written) are skipped — they
    /// carry no knowledge and every import guard would reject them.
    pub fn from_shards<I>(shards: I) -> Segment
    where
        I: IntoIterator,
        I::Item: Into<Arc<ShardEntry>>,
    {
        let mut seg = Segment::new();
        for s in shards {
            seg.insert(s);
        }
        seg
    }

    /// Fold one shard — owned, or a handle to a shared one — into the
    /// segment under version dominance. Version-0 shards are ignored.
    pub fn insert(&mut self, shard: impl Into<Arc<ShardEntry>>) {
        self.fold(shard.into(), None, None);
    }

    /// [`Segment::insert`] a shard whose [`ShardEntry::encoded_len`] the
    /// caller already measured as `len`, so the segment does not measure
    /// it again.
    pub fn insert_measured(&mut self, shard: Arc<ShardEntry>, len: usize) {
        debug_assert_eq!(len, shard.encoded_len());
        self.fold(shard, None, Some(len));
    }

    /// Fold `incoming` in under per-term version-vector dominance: the
    /// higher shard version wins wholesale — a newer shard may legitimately
    /// have *removed* postings (ghost-posting cleanup), so a posting union
    /// would resurrect deleted documents. Equal versions fold
    /// posting-by-posting through [`ShardEntry::upsert`], which keeps the
    /// posting with the higher per-posting version. `key` is the map key
    /// `incoming` had in the segment it comes from, when it comes from one,
    /// and `len` its encoded length when known: a merge re-measures and
    /// re-allocates neither.
    fn fold(&mut self, incoming: Arc<ShardEntry>, key: Option<String>, len: Option<usize>) {
        if incoming.version == 0 {
            return;
        }
        let Some(existing) = self.entries.get_mut(&incoming.term) else {
            let term = key.unwrap_or_else(|| incoming.term.clone());
            let len = len.unwrap_or_else(|| incoming.encoded_len());
            self.body_len += framed_len(len);
            let framed = Framed {
                shard: incoming,
                len,
            };
            self.entries.insert(term, framed);
            return;
        };
        debug_assert_eq!(existing.shard.term, incoming.term);
        let before = framed_len(existing.len);
        match existing.shard.version.cmp(&incoming.version) {
            std::cmp::Ordering::Greater => return,
            std::cmp::Ordering::Less => {
                existing.len = len.unwrap_or_else(|| incoming.encoded_len());
                existing.shard = incoming;
            }
            std::cmp::Ordering::Equal => {
                let merged = Arc::make_mut(&mut existing.shard);
                for p in &incoming.postings {
                    merged.upsert(p.clone());
                }
                existing.len = merged.encoded_len();
            }
        }
        self.body_len = self.body_len - before + framed_len(existing.len);
    }

    /// Number of terms in the segment.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the segment holds no terms.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The shard of one term, when present.
    pub fn get(&self, term: &str) -> Option<&ShardEntry> {
        self.entries.get(term).map(|e| &*e.shard)
    }

    /// All shards in ascending term order.
    pub fn shards(&self) -> impl Iterator<Item = &ShardEntry> {
        self.entries.values().map(|e| &*e.shard)
    }

    /// The segment's per-term version vector `(term, shard version)`, in
    /// ascending term order.
    pub fn version_vector(&self) -> impl Iterator<Item = (&str, u64)> {
        self.entries
            .iter()
            .map(|(t, e)| (t.as_str(), e.shard.version))
    }

    /// K-way version-vector-dominant merge — the basis of writer-side
    /// compaction. Commutative, associative and idempotent, so pending
    /// segments can be folded in any order and re-merging an already
    /// merged artifact changes nothing.
    pub fn merge<I: IntoIterator<Item = Segment>>(segments: I) -> Segment {
        let mut out = Segment::new();
        for seg in segments {
            out.absorb(seg);
        }
        out
    }

    /// Fold `other` into this segment in place: `Segment::merge([self,
    /// other])` without rebuilding this segment's map (a segment holds no
    /// version-0 shard, so folding it into an empty one changes nothing).
    pub fn absorb(&mut self, other: Segment) {
        for (term, framed) in other.entries {
            self.fold(framed.shard, Some(term), Some(framed.len));
        }
    }

    /// Snapshot the `max_terms` hottest shards of a frontend's cache alive
    /// at `now` into a segment (descending popularity is re-sorted into
    /// canonical term order; expired entries are never exported).
    pub fn export(cache: &QueryCache, max_terms: usize, now: SimInstant) -> Segment {
        let digest = cache.shard_digest(max_terms, now);
        let mut seg = Segment::new();
        for (term, _) in digest {
            if let Some(shard) = cache.peek_shard(term) {
                seg.insert(Arc::clone(shard));
            }
        }
        seg
    }

    /// Install the segment into a cache's shard tier through the existing
    /// remote-admission version guard: `known_version(term)` is the
    /// highest version the receiver has observed for the term, and a
    /// segment shard older than that — or older than the cached copy — is
    /// rejected, so a stale artifact can never clobber fresher knowledge.
    /// Entries inherit the receiver's own adaptive TTL.
    pub fn import_into(
        &self,
        cache: &mut QueryCache,
        known_version: impl Fn(&str) -> u64,
        now: SimInstant,
    ) -> ImportReport {
        let mut report = ImportReport::default();
        for Framed { shard, .. } in self.entries.values() {
            let ttl = cache.adaptive_shard_ttl(&shard.term);
            match cache.store_remote_shard(shard, known_version(&shard.term), ttl, now) {
                RemoteAdmit::Accepted => report.accepted += 1,
                RemoteAdmit::Stale => report.stale += 1,
                RemoteAdmit::Duplicate => report.duplicates += 1,
                RemoteAdmit::Refused => report.refused += 1,
            }
        }
        report
    }

    /// Exact byte length of [`Segment::encode`]'s output, without
    /// serializing or walking a posting (the compaction check after every
    /// publish batch, wire-cost accounting).
    pub fn encoded_len(&self) -> usize {
        SEGMENT_MAGIC.len()
            + varint::encoded_len(SEGMENT_FORMAT_VERSION)
            + varint::encoded_len(self.entries.len() as u64)
            + self.body_len
    }

    /// Canonical serialization: magic, format version, term count, then
    /// every shard length-framed in ascending term order. The same logical
    /// segment always yields the same bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.extend_from_slice(&SEGMENT_MAGIC);
        varint::encode_u64(SEGMENT_FORMAT_VERSION, &mut out);
        varint::encode_u64(self.entries.len() as u64, &mut out);
        for Framed { shard, len } in self.entries.values() {
            varint::encode_u64(*len as u64, &mut out);
            let start = out.len();
            shard.encode_into(&mut out);
            debug_assert_eq!(out.len() - start, *len, "{}", shard.term);
        }
        out
    }

    /// Decode a segment, enforcing canonical form (strictly ascending
    /// terms, no version-0 shards, no trailing bytes) so that
    /// `encode(decode(bytes)) == bytes` for every accepted input.
    pub fn decode(data: &[u8]) -> QbResult<Segment> {
        if data.len() < SEGMENT_MAGIC.len() || data[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
            return Err(QbError::Codec("bad segment magic".into()));
        }
        let (format, pos) = varint::decode_u64(data, SEGMENT_MAGIC.len())?;
        if format != SEGMENT_FORMAT_VERSION {
            return Err(QbError::Codec(format!(
                "unsupported segment format {format}"
            )));
        }
        let (count, mut pos) = varint::decode_u64(data, pos)?;
        if count > MAX_SEGMENT_TERMS {
            return Err(QbError::Codec(format!("unreasonable term count {count}")));
        }
        let mut segment = Segment::new();
        let mut last_term: Option<String> = None;
        for _ in 0..count {
            let (len, p) = varint::decode_u64(data, pos)?;
            let end = p
                .checked_add(len as usize)
                .ok_or_else(|| QbError::Codec("segment entry length overflows".into()))?;
            let bytes = data
                .get(p..end)
                .ok_or_else(|| QbError::Codec("truncated segment entry".into()))?;
            pos = end;
            let shard = ShardEntry::decode(bytes)?;
            if shard.version == 0 {
                return Err(QbError::Codec(format!(
                    "segment carries unwritten shard for term {:?}",
                    shard.term
                )));
            }
            if last_term.as_deref() >= Some(shard.term.as_str()) {
                return Err(QbError::Codec(
                    "segment terms must be strictly ascending".into(),
                ));
            }
            last_term = Some(shard.term.clone());
            // Measured, not read off the frame: a decoder takes overlong
            // varints, which re-encode shorter.
            segment.fold(Arc::new(shard), None, None);
        }
        if pos != data.len() {
            return Err(QbError::Codec("trailing bytes after segment".into()));
        }
        Ok(segment)
    }

    /// The segment's content address: the hash of its canonical bytes.
    pub fn cid(&self) -> Cid {
        Cid::for_data(&self.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::publish::SegmentRef;
    use proptest::prelude::*;
    use qb_cache::CacheConfig;
    use qb_index::ShardPosting;

    fn posting(doc_id: u64, version: u64) -> ShardPosting {
        ShardPosting {
            doc_id,
            term_freq: 2,
            doc_len: 40,
            name: format!("page/{doc_id}").into(),
            version,
            creator: 1,
        }
    }

    fn shard(term: &str, version: u64, docs: &[u64]) -> ShardEntry {
        let mut s = ShardEntry::empty(term);
        s.version = version;
        for &d in docs {
            s.upsert(posting(d, 1));
        }
        s
    }

    #[test]
    fn encode_decode_round_trips_byte_identically() {
        let seg = Segment::from_shards([
            shard("alpha", 2, &[1, 5, 9]),
            shard("beta", 1, &[2]),
            shard("zeta", 7, &[]),
        ]);
        let bytes = seg.encode();
        assert_eq!(bytes.len(), seg.encoded_len());
        let back = Segment::decode(&bytes).unwrap();
        assert_eq!(back, seg);
        assert_eq!(back.encode(), bytes);
        assert_eq!(back.cid(), seg.cid());
        // Insertion order does not leak into the bytes.
        let other = Segment::from_shards([
            shard("zeta", 7, &[]),
            shard("beta", 1, &[2]),
            shard("alpha", 2, &[1, 5, 9]),
        ]);
        assert_eq!(other.encode(), bytes);
    }

    #[test]
    fn decode_rejects_malformed_segments() {
        assert!(Segment::decode(b"nope").is_err());
        let seg = Segment::from_shards([shard("a", 1, &[1]), shard("b", 2, &[2])]);
        let bytes = seg.encode();
        // Trailing garbage.
        let mut t = bytes.clone();
        t.push(0);
        assert!(Segment::decode(&t).is_err());
        // Truncation.
        assert!(Segment::decode(&bytes[..bytes.len() - 1]).is_err());
        // A version-0 shard is not a canonical segment entry.
        let mut with_zero = Segment::new();
        let shard = Arc::new(ShardEntry::empty("a"));
        let len = shard.encoded_len();
        with_zero.entries.insert("a".into(), Framed { shard, len });
        assert!(Segment::decode(&with_zero.encode()).is_err());
        // A header claiming the largest allowed term count over no entries:
        // the count sizes no allocation, the first missing entry ends it.
        let mut claims = SEGMENT_MAGIC.to_vec();
        varint::encode_u64(SEGMENT_FORMAT_VERSION, &mut claims);
        varint::encode_u64(MAX_SEGMENT_TERMS, &mut claims);
        assert!(Segment::decode(&claims).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Arbitrary, truncated and bit-flipped bytes — a warm-start
        /// snapshot is operator-supplied, a pointer record comes off the
        /// DHT: a decoder either returns an error or a value that
        /// re-encodes to a decodable equal — it never panics. Neither
        /// sizes an allocation from a decoded count (a segment's entries
        /// enter a map one decoded shard at a time; a pointer is fixed-size).
        #[test]
        fn decoders_survive_hostile_bytes(
            garbage in proptest::collection::vec(any::<u8>(), 0..96),
            docs in proptest::collection::vec(0u64..1_000, 0..6),
            cut in any::<usize>(),
            flip in any::<usize>(),
        ) {
            let segment = Segment::from_shards([
                shard("alpha", 2, &docs),
                shard("beta", 1, &[2]),
                shard("zeta", 7, &[]),
            ]);
            let pointer = SegmentRef {
                root: segment.cid(),
                total_len: segment.encoded_len() as u64,
                chunk_count: 1 << 40,
                term_count: 3,
                generation: 300,
            };
            for valid in [segment.encode(), pointer.encode()] {
                let mut flipped = valid.clone();
                flipped[flip % valid.len()] ^= 1 << (flip % 8);
                for bytes in [&garbage[..], &valid[..cut % valid.len()], &flipped[..]] {
                    if let Ok(s) = Segment::decode(bytes) {
                        prop_assert_eq!(s.encoded_len(), s.encode().len());
                        prop_assert_eq!(Segment::decode(&s.encode()).unwrap(), s);
                    }
                    if let Ok(r) = SegmentRef::decode(bytes) {
                        prop_assert_eq!(SegmentRef::decode(&r.encode()).unwrap(), r);
                    }
                }
            }
        }
    }

    #[test]
    fn merge_is_version_dominant_not_a_posting_union() {
        // v3 removed doc 5 relative to v2; dominance must not resurrect it.
        let old = shard("t", 2, &[1, 5]);
        let mut new = shard("t", 3, &[1]);
        new.postings[0].version = 2;
        let merged = Segment::merge([
            Segment::from_shards([old.clone()]),
            Segment::from_shards([new.clone()]),
        ]);
        assert_eq!(merged.get("t").unwrap(), &new);
        let flipped = Segment::merge([
            Segment::from_shards([new.clone()]),
            Segment::from_shards([old]),
        ]);
        assert_eq!(flipped.get("t").unwrap(), &new);
        // Equal versions fold posting-wise (upsert keeps both docs).
        let a = shard("t", 4, &[1]);
        let b = shard("t", 4, &[9]);
        let folded = Segment::merge([Segment::from_shards([a]), Segment::from_shards([b])]);
        let docs: Vec<u64> = folded
            .get("t")
            .unwrap()
            .postings
            .iter()
            .map(|p| p.doc_id)
            .collect();
        assert_eq!(docs, vec![1, 9]);
    }

    #[test]
    fn version_zero_shards_are_ignored() {
        let mut seg = Segment::new();
        seg.insert(ShardEntry::empty("ghost"));
        assert!(seg.is_empty());
    }

    #[test]
    fn export_and_import_respect_the_version_guard() {
        let now = SimInstant::ZERO;
        let mut src = QueryCache::new(CacheConfig::enabled());
        src.store_shard(&shard("hot", 3, &[1, 2]), now);
        src.store_shard(&shard("warm", 1, &[3]), now);
        let seg = Segment::export(&src, usize::MAX, now);
        assert_eq!(seg.len(), 2);
        assert_eq!(seg.get("hot").unwrap().version, 3);
        // A bounded export keeps the hottest shards.
        for _ in 0..3 {
            let _ = src.lookup_shard("hot", now, 3);
        }
        let hottest = Segment::export(&src, 1, now);
        assert_eq!(hottest.version_vector().collect::<Vec<_>>(), [("hot", 3)]);

        let mut dst = QueryCache::new(CacheConfig::enabled());
        // The receiver already observed a newer version of "warm": the
        // segment copy must be rejected as stale, not installed.
        let known = |term: &str| if term == "warm" { 2 } else { 0 };
        let report = seg.import_into(&mut dst, known, now);
        assert_eq!(report.accepted, 1);
        assert_eq!(report.stale, 1);
        assert_eq!(report.offered(), 2);
        assert_eq!(dst.cached_shard_version("hot"), Some(3));
        assert_eq!(dst.cached_shard_version("warm"), None);
        // Export and import moved handles, not postings: source tier,
        // segment and destination tier share one allocation.
        assert!(Arc::ptr_eq(
            src.peek_shard("hot").unwrap(),
            dst.peek_shard("hot").unwrap()
        ));
        // Re-importing is a no-op (duplicates).
        let again = seg.import_into(&mut dst, known, now);
        assert_eq!(again.accepted, 0);
        assert_eq!(again.duplicates, 1);
    }
}

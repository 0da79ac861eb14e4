//! Publishing and fetching segments over the content-addressed stack.
//!
//! A segment's canonical bytes go into `qb-storage`'s chunked DAG
//! ([`publish_segment`]); the resulting root cid plus sizing metadata is a
//! small [`SegmentRef`] pointer stored as a versioned DHT record under
//! [`latest_segment_key`], so any peer can discover "the fleet's newest
//! artifact" with one record lookup. [`fetch_segment`] walks the reverse
//! path: resolve the pointer, pull and hash-verify the blocks, decode.
//! Every byte of both directions moves through `SimNet` RPCs inside the
//! storage/DHT layers and is charged to `NetStats`.

use qb_common::{varint, Cid, Hash256, QbError, QbResult, SimDuration};
use qb_dht::DhtNetwork;
use qb_simnet::SimNet;
use qb_storage::StorageNetwork;

use crate::segment::Segment;

/// DhtKey import lives in qb-common.
use qb_common::DhtKey;

/// Extra bytes charged when a segment pointer rides along a gossip digest.
pub const SEGMENT_REF_WIRE_OVERHEAD: u64 = 8;

/// The well-known DHT key under which the fleet's newest segment pointer
/// is published (version = artifact generation, so replicas keep the
/// newest pointer under last-writer-wins).
pub fn latest_segment_key() -> DhtKey {
    DhtKey(Hash256::digest_parts(&[b"seg:", b"latest"]))
}

/// A compact, serializable pointer to a published segment artifact.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRef {
    /// Root cid of the artifact's storage DAG.
    pub root: Cid,
    /// Canonical artifact size in bytes (pre-chunking).
    pub total_len: u64,
    /// Chunks in the DAG.
    pub chunk_count: u64,
    /// Terms in the artifact.
    pub term_count: u64,
    /// Monotonically increasing publish generation (DHT record version).
    pub generation: u64,
}

impl SegmentRef {
    /// Serialize the pointer (raw 32-byte cid + varint metadata).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + 4 * 10);
        out.extend_from_slice(self.root.0.as_bytes());
        varint::encode_u64(self.total_len, &mut out);
        varint::encode_u64(self.chunk_count, &mut out);
        varint::encode_u64(self.term_count, &mut out);
        varint::encode_u64(self.generation, &mut out);
        out
    }

    /// Decode a pointer, rejecting trailing bytes.
    pub fn decode(data: &[u8]) -> QbResult<SegmentRef> {
        let raw: [u8; 32] = data
            .get(..32)
            .and_then(|b| b.try_into().ok())
            .ok_or_else(|| QbError::Codec("segment ref too short".into()))?;
        let (total_len, pos) = varint::decode_u64(data, 32)?;
        let (chunk_count, pos) = varint::decode_u64(data, pos)?;
        let (term_count, pos) = varint::decode_u64(data, pos)?;
        let (generation, pos) = varint::decode_u64(data, pos)?;
        if pos != data.len() {
            return Err(QbError::Codec("trailing bytes after segment ref".into()));
        }
        Ok(SegmentRef {
            root: Cid(Hash256::from_bytes(raw)),
            total_len,
            chunk_count,
            term_count,
            generation,
        })
    }

    /// Bytes this pointer occupies when advertised on the wire.
    pub fn wire_bytes(&self) -> u64 {
        self.encode().len() as u64 + SEGMENT_REF_WIRE_OVERHEAD
    }
}

/// Reported network cost of one publish or fetch (the authoritative
/// charge is `NetStats`; this mirrors it for per-operation attribution).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentIo {
    /// Payload bytes moved.
    pub bytes: u64,
    /// RPC attempts issued.
    pub messages: u64,
    /// End-to-end latency charged to the caller.
    pub latency: SimDuration,
}

/// Chunk the segment into the storage DAG and publish its pointer as a
/// DHT record versioned by `generation`. All bytes are charged to the
/// simulated network by the layers underneath. An earlier generation stays
/// pinned until no copy of the pointer record names it.
pub fn publish_segment(
    net: &mut SimNet,
    dht: &mut DhtNetwork,
    storage: &mut StorageNetwork,
    from: u64,
    segment: &Segment,
    generation: u64,
) -> QbResult<(SegmentRef, SegmentIo)> {
    let key = latest_segment_key();
    let encode = |buf: &mut Vec<u8>| segment.encode_into(buf);
    let (obj, put_stats) = storage.put_named_encoded(net, dht, from, key, encode)?;
    let sref = SegmentRef {
        root: obj.root,
        total_len: obj.total_len,
        chunk_count: obj.chunk_count as u64,
        term_count: segment.len() as u64,
        generation,
    };
    let pointer = sref.encode();
    let pointer_len = pointer.len() as u64;
    let put = dht.put_record(net, from, key, pointer, generation)?;
    storage.release_unnamed(dht, &key, |value| {
        SegmentRef::decode(value).ok().map(|sref| sref.root)
    });
    let io = SegmentIo {
        bytes: put_stats.bytes + pointer_len * put.replicas as u64,
        messages: put_stats.messages + put.messages,
        latency: put_stats.latency + put.latency,
    };
    Ok((sref, io))
}

/// Resolve the latest segment pointer (must be at generation
/// `min_generation` or newer), pull the artifact's blocks with per-block
/// hash verification, and decode it.
pub fn fetch_segment(
    net: &mut SimNet,
    dht: &mut DhtNetwork,
    storage: &mut StorageNetwork,
    from: u64,
    min_generation: u64,
) -> QbResult<(Segment, SegmentRef, SegmentIo)> {
    let got = dht.get_record_fresh(net, from, latest_segment_key(), min_generation)?;
    let sref = SegmentRef::decode(&got.record.value)?;
    // The record lookup falls back to the freshest reachable replica when
    // nothing at `min_version` exists; enforce the floor here so a caller
    // never acts on a pointer older than one it has already seen.
    if sref.generation < min_generation {
        return Err(QbError::DhtLookupFailed(format!(
            "segment pointer at generation {}, need {}",
            sref.generation, min_generation
        )));
    }
    let (data, fetch_stats) = storage.get_object(net, dht, from, sref.root)?;
    if data.len() as u64 != sref.total_len {
        return Err(QbError::Codec(format!(
            "segment length mismatch: pointer says {}, fetched {}",
            sref.total_len,
            data.len()
        )));
    }
    let segment = Segment::decode(&data)?;
    let io = SegmentIo {
        bytes: fetch_stats.bytes + got.record.value.len() as u64,
        messages: fetch_stats.messages + got.messages,
        latency: fetch_stats.latency + got.latency,
    };
    Ok((segment, sref, io))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_dht::DhtConfig;
    use qb_index::{ShardEntry, ShardPosting};
    use qb_simnet::NetConfig;
    use qb_storage::StorageConfig;

    fn shard(term: &str, version: u64, docs: &[u64]) -> ShardEntry {
        let mut s = ShardEntry::empty(term);
        s.version = version;
        for &d in docs {
            s.upsert(ShardPosting {
                doc_id: d,
                term_freq: 1,
                doc_len: 50,
                name: format!("p/{d}").into(),
                version: 1,
                creator: 2,
            });
        }
        s
    }

    fn stack() -> (SimNet, DhtNetwork, StorageNetwork) {
        let mut net = SimNet::new(16, NetConfig::lan(), 7);
        let dht = DhtNetwork::build(&mut net, DhtConfig::small());
        let storage = StorageNetwork::new(16, StorageConfig::small());
        (net, dht, storage)
    }

    #[test]
    fn publish_fetch_round_trips_and_charges_the_network() {
        let (mut net, mut dht, mut storage) = stack();
        let seg = Segment::from_shards([shard("alpha", 2, &[1, 2, 3]), shard("beta", 1, &[4])]);
        let before = net.stats().clone();
        let (sref, pub_io) = publish_segment(&mut net, &mut dht, &mut storage, 0, &seg, 1).unwrap();
        assert_eq!(sref.generation, 1);
        assert_eq!(sref.term_count, 2);
        assert_eq!(sref.total_len, seg.encoded_len() as u64);
        assert!(pub_io.bytes > 0);

        let (fetched, fref, fetch_io) =
            fetch_segment(&mut net, &mut dht, &mut storage, 5, 1).unwrap();
        assert_eq!(fetched, seg);
        assert_eq!(fetched.encode(), seg.encode());
        assert_eq!(fref, sref);
        assert!(fetch_io.bytes >= seg.encoded_len() as u64);
        // NetStats is the authoritative charge: everything the io reports
        // (and more — headers, lookups) must show up on the network.
        let delta = net.stats().delta_since(&before);
        assert!(delta.bytes >= pub_io.bytes);
        assert!(delta.bytes >= fetch_io.bytes);
        assert!(delta.rpcs > 0);
    }

    #[test]
    fn fetch_requires_fresh_enough_generation() {
        let (mut net, mut dht, mut storage) = stack();
        let seg = Segment::from_shards([shard("alpha", 1, &[1])]);
        publish_segment(&mut net, &mut dht, &mut storage, 0, &seg, 3).unwrap();
        assert!(fetch_segment(&mut net, &mut dht, &mut storage, 4, 4).is_err());
        assert!(fetch_segment(&mut net, &mut dht, &mut storage, 4, 3).is_ok());
    }

    #[test]
    fn an_older_generation_leaves_storage_once_no_pointer_names_it() {
        let (mut net, mut dht, mut storage) = stack();
        let gen =
            |n: u64| Segment::from_shards([shard("alpha", n, &[1, n]), shard("beta", 1, &[4])]);
        let (first, _) = publish_segment(&mut net, &mut dht, &mut storage, 0, &gen(1), 1).unwrap();
        let (second, _) = publish_segment(&mut net, &mut dht, &mut storage, 0, &gen(2), 2).unwrap();
        assert!(storage.pinned_holders(&first.root).is_empty());
        assert!(!storage.pinned_holders(&second.root).is_empty());
        // A generation published by another writer leaves the first
        // writer's own copy of the pointer naming the second.
        let (third, _) = publish_segment(&mut net, &mut dht, &mut storage, 9, &gen(3), 3).unwrap();
        let names = |root: Cid| {
            dht.records_under(&latest_segment_key())
                .any(|r| SegmentRef::decode(&r.value).is_ok_and(|s| s.root == root))
        };
        assert!(names(second.root));
        assert!(!storage.pinned_holders(&second.root).is_empty());
        let (fetched, fref, _) = fetch_segment(&mut net, &mut dht, &mut storage, 5, 3).unwrap();
        assert_eq!((fetched, fref), (gen(3), third));
    }

    #[test]
    fn segment_ref_codec_round_trips() {
        let sref = SegmentRef {
            root: Cid::for_data(b"x"),
            total_len: 12345,
            chunk_count: 4,
            term_count: 99,
            generation: 7,
        };
        let bytes = sref.encode();
        assert_eq!(SegmentRef::decode(&bytes).unwrap(), sref);
        assert!(SegmentRef::decode(&bytes[..bytes.len() - 1]).is_err());
        let mut t = bytes.clone();
        t.push(1);
        assert!(SegmentRef::decode(&t).is_err());
        assert!(sref.wire_bytes() > 32);
    }
}

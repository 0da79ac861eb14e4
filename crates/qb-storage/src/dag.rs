//! Object manifests: the merkle root tying an object's chunks together.

use crate::block::Block;
use qb_common::{varint, Cid, Hash256, QbError, QbResult};

const MANIFEST_MAGIC: &[u8; 6] = b"QBDAG1";

/// Bytes one chunk cid takes in an encoded manifest.
const CID_BYTES: usize = 32;

/// A manifest lists the chunk cids of an object in order. The manifest is
/// itself stored as a block; the cid of that block is the object's root cid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Chunk cids in order.
    pub chunks: Vec<Cid>,
    /// Total object size in bytes.
    pub total_len: u64,
}

impl Manifest {
    /// Build a manifest over an object's chunk blocks, in order. Each block
    /// was hashed when its bytes entered; the manifest lists those cids.
    #[cfg(test)]
    pub fn from_blocks(blocks: &[Block]) -> Manifest {
        Manifest {
            chunks: blocks.iter().map(Block::cid).collect(),
            total_len: blocks.iter().map(|b| b.len() as u64).sum(),
        }
    }

    /// Serialize to bytes (deterministic binary format).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + 10 + self.chunks.len() * CID_BYTES);
        encode_parts(self.total_len, &self.chunks, Cid::clone, &mut out);
        out
    }

    /// Append the encoding of the manifest over `blocks` (each block's cid
    /// and length, in order) to `out`, written straight from the blocks
    /// with no list of their cids.
    pub fn encode_blocks_into(blocks: &[Block], out: &mut Vec<u8>) {
        let total_len = blocks.iter().map(|b| b.len() as u64).sum();
        encode_parts(total_len, blocks, Block::cid, out);
    }

    /// Parse a manifest from bytes.
    pub fn decode(data: &[u8]) -> QbResult<Manifest> {
        if data.len() < MANIFEST_MAGIC.len() || &data[..MANIFEST_MAGIC.len()] != MANIFEST_MAGIC {
            return Err(QbError::Codec("not a manifest (bad magic)".into()));
        }
        let mut pos = MANIFEST_MAGIC.len();
        let (total_len, p) = varint::decode_u64(data, pos)?;
        pos = p;
        let (count, p) = varint::decode_u64(data, pos)?;
        pos = p;
        if count > 1_000_000 {
            return Err(QbError::Codec(format!("unreasonable chunk count {count}")));
        }
        // The count comes off the wire (a provider hands `get_object` this
        // block): what is left of the input bounds it, and with it the
        // reservation below.
        let remaining = data.len() - pos;
        if count > (remaining / CID_BYTES) as u64 {
            return Err(QbError::Codec(format!(
                "manifest claims {count} chunks in {remaining} bytes"
            )));
        }
        let mut chunks = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let end = pos + CID_BYTES;
            let bytes = data
                .get(pos..end)
                .ok_or_else(|| QbError::Codec("truncated manifest".into()))?;
            let mut arr = [0u8; CID_BYTES];
            arr.copy_from_slice(bytes);
            chunks.push(Cid(Hash256::from_bytes(arr)));
            pos = end;
        }
        if pos != data.len() {
            return Err(QbError::Codec("trailing bytes after manifest".into()));
        }
        Ok(Manifest { chunks, total_len })
    }

    /// The root cid: cid of the encoded manifest.
    #[cfg(test)]
    pub fn root_cid(&self) -> Cid {
        Cid::for_data(&self.encode())
    }
}

/// Append a manifest's encoding to `out`: the magic, the total length, the
/// chunk count and each chunk's cid, in order.
fn encode_parts<T>(total_len: u64, chunks: &[T], cid: impl Fn(&T) -> Cid, out: &mut Vec<u8>) {
    out.extend_from_slice(MANIFEST_MAGIC);
    varint::encode_u64(total_len, out);
    varint::encode_u64(chunks.len() as u64, out);
    for chunk in chunks {
        out.extend_from_slice(cid(chunk).0.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The manifest over `chunks`, each hashed into its block.
    fn manifest_of(chunks: &[Vec<u8>]) -> Manifest {
        let blocks: Vec<Block> = chunks.iter().map(|c| Block::new(c.clone())).collect();
        Manifest::from_blocks(&blocks)
    }

    /// What `Manifest::from_chunks` built before blocks were shared: every
    /// chunk hashed again, for the manifest alone.
    fn manifest_by_rehashing(chunks: &[Vec<u8>]) -> Manifest {
        Manifest {
            chunks: chunks.iter().map(|c| Cid::for_data(c)).collect(),
            total_len: chunks.iter().map(|c| c.len() as u64).sum(),
        }
    }

    #[test]
    fn round_trip() {
        let chunks = vec![b"one".to_vec(), b"two".to_vec(), b"three".to_vec()];
        let m = manifest_of(&chunks);
        assert_eq!(m.chunks.len(), 3);
        assert_eq!(m.total_len, 11);
        let decoded = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn root_cid_changes_when_any_chunk_changes() {
        let a = manifest_of(&[b"aaa".to_vec(), b"bbb".to_vec()]);
        let b = manifest_of(&[b"aaa".to_vec(), b"bbc".to_vec()]);
        assert_ne!(a.root_cid(), b.root_cid());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Manifest::decode(b"").is_err());
        assert!(Manifest::decode(b"NOTMAGIC").is_err());
        let mut good = manifest_of(&[b"x".to_vec()]).encode();
        good.truncate(good.len() - 5);
        assert!(Manifest::decode(&good).is_err());
        // Trailing junk is rejected too.
        let mut padded = manifest_of(&[b"x".to_vec()]).encode();
        padded.push(0);
        assert!(Manifest::decode(&padded).is_err());
    }

    #[test]
    fn empty_object_manifest() {
        let m = manifest_of(&[Vec::new()]);
        assert_eq!(m.total_len, 0);
        assert_eq!(m.chunks.len(), 1);
        let decoded = Manifest::decode(&m.encode()).unwrap();
        assert_eq!(decoded, m);
    }

    #[test]
    fn a_huge_chunk_count_is_rejected_before_anything_is_reserved() {
        // Magic, total_len 0, count 1_000_000, then nothing: ten bytes that
        // used to reserve 32 MB of cids before failing on the first one.
        let mut bytes = MANIFEST_MAGIC.to_vec();
        varint::encode_u64(0, &mut bytes);
        varint::encode_u64(1_000_000, &mut bytes);
        assert_eq!(bytes.len(), 10);
        match Manifest::decode(&bytes) {
            Err(QbError::Codec(msg)) => assert!(msg.contains("claims 1000000 chunks"), "{msg}"),
            other => panic!("expected a codec error, got {other:?}"),
        }
    }

    proptest! {
        /// Arbitrary, truncated and bit-flipped bytes: the decoder either
        /// returns an error or a value that re-encodes to a decodable equal —
        /// it never panics.
        #[test]
        fn decode_survives_hostile_bytes(
            garbage in proptest::collection::vec(any::<u8>(), 0..96),
            chunk_sizes in proptest::collection::vec(0usize..16, 0..6),
            cut in any::<usize>(),
            flip in any::<usize>(),
        ) {
            let chunks: Vec<Vec<u8>> = chunk_sizes.iter().map(|&s| vec![7u8; s]).collect();
            let valid = manifest_of(&chunks).encode();
            let mut flipped = valid.clone();
            flipped[flip % valid.len()] ^= 1 << (flip % 8);
            // The magic alone gets garbage past the first check.
            let framed = [&MANIFEST_MAGIC[..], &garbage[..]].concat();
            for bytes in [&garbage[..], &framed[..], &valid[..cut % valid.len()], &flipped[..]] {
                if let Ok(m) = Manifest::decode(bytes) {
                    prop_assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
                }
            }
        }

        #[test]
        fn round_trip_prop(chunk_sizes in proptest::collection::vec(0usize..64, 0..50)) {
            let chunks: Vec<Vec<u8>> = chunk_sizes
                .iter()
                .enumerate()
                .map(|(i, &s)| vec![i as u8; s])
                .collect();
            let m = manifest_of(&chunks);
            prop_assert_eq!(Manifest::decode(&m.encode()).unwrap(), m);
            // Listing the blocks' cids addresses the same bytes as hashing
            // the chunks for the manifest did.
            prop_assert_eq!(m.encode(), manifest_by_rehashing(&chunks).encode());
            // Encoding straight from the blocks writes the same bytes.
            let blocks: Vec<Block> = chunks.iter().map(|c| Block::new(c.clone())).collect();
            let mut encoded = b"kept".to_vec();
            Manifest::encode_blocks_into(&blocks, &mut encoded);
            prop_assert_eq!(&encoded[..4], b"kept");
            prop_assert_eq!(&encoded[4..], &m.encode()[..]);
        }
    }
}

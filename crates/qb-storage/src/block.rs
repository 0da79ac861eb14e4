//! Blocks: the unit of content-addressed storage.

use qb_common::{Cid, QbError, QbResult};
use std::sync::Arc;

/// An immutable, content-addressed blob of bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    cid: Cid,
    data: Arc<[u8]>,
}

impl Block {
    /// Create a block from raw bytes (computes the cid).
    pub fn new(data: impl Into<Arc<[u8]>>) -> Block {
        let data = data.into();
        Block {
            cid: Cid::for_data(&data),
            data,
        }
    }

    /// Reconstruct a block received from an untrusted peer and verify that
    /// the bytes match the claimed cid. This is the tamper-detection gate.
    pub fn from_parts(cid: Cid, data: impl Into<Arc<[u8]>>) -> QbResult<Block> {
        let data = data.into();
        let actual = Cid::for_data(&data);
        if actual != cid {
            return Err(QbError::IntegrityViolation {
                expected: cid.to_hex(),
                actual: actual.to_hex(),
            });
        }
        Ok(Block { cid, data })
    }

    /// Construct without verification. Only used by the simulation to model a
    /// malicious or faulty peer handing out corrupted data; honest code paths
    /// always go through [`Block::from_parts`].
    pub fn new_unchecked(cid: Cid, data: impl Into<Arc<[u8]>>) -> Block {
        Block {
            cid,
            data: data.into(),
        }
    }

    /// The block's content identifier.
    pub fn cid(&self) -> Cid {
        self.cid
    }

    /// The block's bytes.
    pub fn data(&self) -> &Arc<[u8]> {
        &self.data
    }

    /// Size in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True for a zero-length block.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Re-verify the stored bytes against the cid.
    pub fn verify(&self) -> bool {
        self.cid.verify(&self.data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_block_verifies() {
        let b = Block::new(&b"hello dweb"[..]);
        assert!(b.verify());
        assert_eq!(b.len(), 10);
        assert!(!b.is_empty());
    }

    #[test]
    fn from_parts_accepts_matching_cid() {
        let data = b"page body".to_vec();
        let cid = Cid::for_data(&data);
        let b = Block::from_parts(cid, data).unwrap();
        assert_eq!(b.cid(), cid);
    }

    #[test]
    fn from_parts_rejects_tampered_data() {
        let data = b"original".to_vec();
        let cid = Cid::for_data(&data);
        let err = Block::from_parts(cid, b"tampered".to_vec()).unwrap_err();
        assert!(matches!(err, QbError::IntegrityViolation { .. }));
    }

    #[test]
    fn unchecked_block_fails_verification_when_corrupt() {
        let cid = Cid::for_data(b"real content");
        let fake = Block::new_unchecked(cid, &b"malicious content"[..]);
        assert!(!fake.verify());
    }

    proptest! {
        #[test]
        fn cid_is_deterministic(data in proptest::collection::vec(any::<u8>(), 0..512)) {
            let a = Block::new(data.clone());
            let b = Block::new(data);
            prop_assert_eq!(a.cid(), b.cid());
        }
    }
}

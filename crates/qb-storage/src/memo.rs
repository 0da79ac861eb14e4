//! The chunk memo: a republish recognises an unchanged chunk by its bytes.
//!
//! Content-defined chunking exists so a new version of an object shares
//! every chunk it did not change with the old one; those chunks are already
//! blocks (a `Cid` and shared bytes) pinned in the network. The memo finds
//! such a block by a cheap 64-bit hash of the chunk's bytes and hands it out
//! again only after the bytes compare equal, so an unchanged chunk is
//! neither copied nor SHA-256'd. It is host-side bookkeeping: a hit returns
//! the block a fresh [`Block::new`] of the same bytes would build, so what
//! is addressed, pinned and charged to the network does not depend on it.

use crate::block::Block;

/// Slots of the direct-mapped memo (a power of two). A slot holds the
/// newest block whose hash maps there; a collision evicts the older one,
/// costing at most one copy and one hash later — so chunks crafted to
/// collide (the hash is not keyed) cost what the memo saves, and nothing
/// grows. Measured on `publish-churn`
/// (seed 1, 3 s, set-up included, ~546 k chunks stored): 2^10 slots reuse
/// 58 % of chunks, 2^13 80 %, **2^14 83 %**, 2^20 85 % (as good as
/// unbounded) at 48 MiB of slots; 2^14 keeps 97 % of the reachable reuse
/// for 768 KiB. Every block the memo holds is also pinned by some peer
/// (unless that copy was since tampered with): a block the collector frees
/// leaves the memo too, so the memo costs its slots, not the bytes they
/// point at.
pub(crate) const CHUNK_MEMO_SLOTS: usize = 1 << 14;

/// Where [`ChunkMemo::block`] filed a chunk's block: kept beside the block,
/// it lets [`ChunkMemo::forget`] find the block without hashing its bytes
/// again.
pub(crate) type MemoSlot = u16;

const _: () = assert!(CHUNK_MEMO_SLOTS <= 1 << MemoSlot::BITS);

/// Direct-mapped memo of recently stored chunks, keyed by content hash.
#[derive(Default)]
pub(crate) struct ChunkMemo {
    /// Empty until the first chunk is stored (many networks never store one).
    slots: Vec<Option<Block>>,
}

impl std::fmt::Debug for ChunkMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let held = self.slots.iter().flatten().count();
        f.debug_struct("ChunkMemo").field("held", &held).finish()
    }
}

impl ChunkMemo {
    /// The block for `chunk`, with the slot it is filed in: the memo's own
    /// block when one with equal bytes is there, else a new one (one copy,
    /// one SHA-256) that takes the slot.
    pub(crate) fn block(&mut self, chunk: &[u8]) -> (Block, MemoSlot) {
        if self.slots.is_empty() {
            self.slots = vec![None; CHUNK_MEMO_SLOTS];
        }
        let at = slot_of(chunk);
        let slot = &mut self.slots[at];
        if let Some(block) = slot.as_ref().filter(|b| b.data()[..] == *chunk) {
            // The check the reuse skips, re-run wherever tests run.
            debug_assert_eq!(block.cid(), qb_common::Cid::for_data(chunk));
            return (block.clone(), at as MemoSlot);
        }
        let block = Block::new(chunk);
        *slot = Some(block.clone());
        (block, at as MemoSlot)
    }

    /// Drop `block`, which [`ChunkMemo::block`] filed in `slot`, if the
    /// memo still holds this very block there (its buffer, not only its
    /// bytes); returns whether it did. A later chunk with its bytes is then
    /// copied and hashed afresh.
    pub(crate) fn forget(&mut self, slot: MemoSlot, block: &Block) -> bool {
        let Some(held) = self.slots.get_mut(usize::from(slot)) else {
            return false;
        };
        // The slot the caller kept is the one the bytes hash to.
        debug_assert_eq!(usize::from(slot), slot_of(block.data()));
        if !held.as_ref().is_some_and(|held| same_buffer(held, block)) {
            return false;
        }
        *held = None;
        true
    }

    /// Does the memo hold this very block?
    #[cfg(test)]
    pub(crate) fn holds(&self, block: &Block) -> bool {
        let held = self.slots.get(slot_of(block.data()));
        held.and_then(Option::as_ref)
            .is_some_and(|held| same_buffer(held, block))
    }
}

fn same_buffer(a: &Block, b: &Block) -> bool {
    a.data().as_ptr() == b.data().as_ptr()
}

/// The slot of a chunk: an FxHash-style fold over its 8-byte words and its
/// length, finished with the murmur3 mixer so the top bits index evenly.
fn slot_of(chunk: &[u8]) -> usize {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h = chunk.len() as u64;
    let mut words = chunk.chunks_exact(8);
    for word in &mut words {
        let word = u64::from_le_bytes(word.try_into().unwrap_or_default());
        h = (h.rotate_left(5) ^ word).wrapping_mul(K);
    }
    let tail = words
        .remainder()
        .iter()
        .fold(0u64, |acc, &b| (acc << 8) | u64::from(b));
    h = (h.rotate_left(5) ^ tail).wrapping_mul(K);
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    (h >> (64 - CHUNK_MEMO_SLOTS.trailing_zeros())) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_hit_is_the_same_block_and_a_miss_a_fresh_one() {
        let mut memo = ChunkMemo::default();
        let (a, slot) = memo.block(b"unchanged chunk");
        let (again, again_slot) = memo.block(b"unchanged chunk");
        assert_eq!(again, Block::new(&b"unchanged chunk"[..]));
        assert_eq!(
            a.data().as_ptr(),
            again.data().as_ptr(),
            "reused, not copied"
        );
        assert_eq!(slot, again_slot);
        let (other, _) = memo.block(b"edited chunk");
        assert_eq!(other, Block::new(&b"edited chunk"[..]));
    }

    #[test]
    fn a_forgotten_block_is_built_afresh() {
        let mut memo = ChunkMemo::default();
        let (kept, slot) = memo.block(b"chunk");
        // An equal block with its own buffer is not the one held.
        assert!(!memo.forget(slot, &Block::new(&b"chunk"[..])));
        assert!(memo.forget(slot, &kept));
        assert!(!memo.forget(slot, &kept), "already gone");
        let (again, _) = memo.block(b"chunk");
        assert_eq!(again, kept);
        assert_ne!(again.data().as_ptr(), kept.data().as_ptr(), "built afresh");
    }

    #[test]
    fn equal_hashes_with_unequal_bytes_are_never_reused() {
        // Force two different chunks into one slot by brute force.
        let mut memo = ChunkMemo::default();
        let first = b"collider-0".to_vec();
        let target = slot_of(&first);
        let second = (1u64..)
            .map(|i| format!("collider-{i}").into_bytes())
            .find(|c| slot_of(c) == target)
            .expect("a colliding chunk");
        memo.block(&first);
        assert_eq!(memo.block(&second).0, Block::new(second.clone()));
        assert_eq!(memo.block(&first).0, Block::new(first));
    }
}

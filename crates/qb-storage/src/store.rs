//! The per-peer cache of fetched blocks.

use crate::block::Block;
use qb_common::{Cid, DigestMap};
use std::collections::VecDeque;

/// Bounded LRU block store used as the per-peer cache of fetched content.
#[derive(Debug, Clone)]
pub struct LruBlockStore {
    capacity_bytes: usize,
    blocks: DigestMap<Cid, Block>,
    order: VecDeque<Cid>,
    bytes: usize,
    /// Cache hits observed through [`LruBlockStore::get_touch`].
    pub hits: u64,
    /// Cache misses observed through [`LruBlockStore::get_touch`].
    pub misses: u64,
}

impl LruBlockStore {
    /// Create a cache bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: usize) -> LruBlockStore {
        LruBlockStore {
            capacity_bytes,
            blocks: DigestMap::default(),
            order: VecDeque::new(),
            bytes: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity_bytes
    }

    /// Insert a block (idempotent), evicting the least recently used
    /// blocks to fit; a block larger than the whole cache is not kept.
    pub fn put(&mut self, block: Block) {
        if block.len() > self.capacity_bytes {
            return;
        }
        if self.blocks.contains_key(&block.cid()) {
            self.touch(&block.cid());
            return;
        }
        self.evict_to_fit(block.len());
        self.bytes += block.len();
        self.order.push_back(block.cid());
        self.blocks.insert(block.cid(), block);
    }

    /// Fetch a block by cid, leaving recency and counters alone.
    pub fn get(&self, cid: &Cid) -> Option<&Block> {
        self.blocks.get(cid)
    }

    /// Does the cache hold this cid?
    pub fn has(&self, cid: &Cid) -> bool {
        self.blocks.contains_key(cid)
    }

    /// Number of blocks held.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when no blocks are held.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Total bytes held.
    pub fn total_bytes(&self) -> usize {
        self.bytes
    }

    /// Replace a cached block's bytes in place, keeping the claimed cid
    /// (tamper-injection experiments). Returns true if the cid was cached.
    pub fn corrupt(&mut self, cid: &Cid, new_data: Vec<u8>) -> bool {
        match self.blocks.get_mut(cid) {
            Some(slot) => {
                let replacement = Block::new_unchecked(*cid, new_data);
                self.bytes = self.bytes - slot.len() + replacement.len();
                *slot = replacement;
                true
            }
            None => false,
        }
    }

    /// Get and record hit/miss statistics, refreshing recency on hit.
    pub fn get_touch(&mut self, cid: &Cid) -> Option<Block> {
        if let Some(b) = self.blocks.get(cid).cloned() {
            self.hits += 1;
            self.touch(cid);
            Some(b)
        } else {
            self.misses += 1;
            None
        }
    }

    fn touch(&mut self, cid: &Cid) {
        if let Some(pos) = self.order.iter().position(|c| c == cid) {
            self.order.remove(pos);
            self.order.push_back(*cid);
        }
    }

    fn evict_to_fit(&mut self, incoming: usize) {
        while self.bytes + incoming > self.capacity_bytes && !self.order.is_empty() {
            if let Some(old) = self.order.pop_front() {
                if let Some(b) = self.blocks.remove(&old) {
                    self.bytes -= b.len();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupt_breaks_verification() {
        let mut cache = LruBlockStore::new(64);
        let b = Block::new(&b"honest bytes"[..]);
        let cid = b.cid();
        cache.put(b);
        assert!(cache.corrupt(&cid, b"evil bytes".to_vec()));
        assert!(!cache.get(&cid).unwrap().verify());
        assert_eq!(cache.total_bytes(), b"evil bytes".len());
        assert!(!cache.corrupt(&Cid::for_data(b"other"), vec![]));
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let mut cache = LruBlockStore::new(30);
        let b1 = Block::new(vec![1u8; 10]);
        let b2 = Block::new(vec![2u8; 10]);
        let b3 = Block::new(vec![3u8; 10]);
        let b4 = Block::new(vec![4u8; 10]);
        cache.put(b1.clone());
        cache.put(b2.clone());
        cache.put(b3.clone());
        assert_eq!(cache.len(), 3);
        cache.put(b4.clone());
        assert_eq!(cache.len(), 3);
        assert!(!cache.has(&b1.cid()), "oldest block should be evicted");
        assert!(cache.has(&b4.cid()));
        assert!(cache.total_bytes() <= 30);
    }

    #[test]
    fn lru_touch_refreshes_recency_and_counts_hits() {
        let mut cache = LruBlockStore::new(30);
        let b1 = Block::new(vec![1u8; 10]);
        let b2 = Block::new(vec![2u8; 10]);
        let b3 = Block::new(vec![3u8; 10]);
        cache.put(b1.clone());
        cache.put(b2.clone());
        cache.put(b3.clone());
        // Touch b1 so b2 becomes the eviction victim.
        assert!(cache.get_touch(&b1.cid()).is_some());
        assert!(cache.get_touch(&Cid::for_data(b"missing")).is_none());
        assert_eq!(cache.hits, 1);
        assert_eq!(cache.misses, 1);
        cache.put(Block::new(vec![4u8; 10]));
        assert!(cache.has(&b1.cid()));
        assert!(!cache.has(&b2.cid()));
    }

    #[test]
    fn lru_rejects_oversized_blocks() {
        let mut cache = LruBlockStore::new(8);
        cache.put(Block::new(vec![0u8; 64]));
        assert!(cache.is_empty());
        assert_eq!(cache.capacity(), 8);
    }
}

//! The distributed storage layer: publishing, replication, cached retrieval.

use crate::block::Block;
use crate::chunker::{chunk_content_defined, ChunkerConfig};
use crate::dag::Manifest;
use crate::memo::{ChunkMemo, MemoSlot};
use crate::store::LruBlockStore;
use qb_common::{Cid, DhtKey, DigestMap, NodeId, QbError, QbResult, SimDuration};
use qb_dht::DhtNetwork;
use qb_simnet::SimNet;
use std::collections::hash_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Storage layer configuration.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Number of peers an object is pinned on (including the publisher).
    pub replication: usize,
    /// Chunker parameters.
    pub chunker: ChunkerConfig,
    /// Per-peer cache capacity in bytes.
    pub cache_bytes: usize,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            replication: 3,
            chunker: ChunkerConfig::default(),
            cache_bytes: 8 * 1024 * 1024,
        }
    }
}

impl StorageConfig {
    /// Small configuration for unit tests.
    pub fn small() -> StorageConfig {
        StorageConfig {
            replication: 2,
            chunker: ChunkerConfig::tiny(),
            cache_bytes: 64 * 1024,
        }
    }
}

/// Reference to a stored object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjectRef {
    /// Root cid (cid of the manifest block).
    pub root: Cid,
    /// Total object size in bytes.
    pub total_len: u64,
    /// Number of chunks.
    pub chunk_count: usize,
}

/// Cost accounting of a publish or fetch operation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FetchStats {
    /// End-to-end latency charged to the caller.
    pub latency: SimDuration,
    /// RPC attempts issued (DHT + block transfers).
    pub messages: u64,
    /// Payload bytes moved across the network.
    pub bytes: u64,
    /// Blocks that failed hash verification (tampering detected).
    pub integrity_failures: u64,
    /// True when the whole object was served locally.
    pub from_local: bool,
}

/// Per-peer storage state plus the distributed publish/fetch operations.
#[derive(Debug)]
pub struct StorageNetwork {
    config: StorageConfig,
    /// Every pinned block, once, with the peers that pin it.
    held: DigestMap<Cid, Held>,
    /// Pinned copies a peer tampered with, which that peer serves in place
    /// of the block (tamper injection; empty on an honest network).
    tampered: BTreeMap<(u64, Cid), Block>,
    caches: Vec<LruBlockStore>,
    /// Blocks recently stored, found again by their bytes (host-side only).
    memo: ChunkMemo,
    /// Objects put under a pointer key, each stored until no copy of a
    /// record under that key names it ([`StorageNetwork::release_unnamed`]).
    named: DigestMap<DhtKey, Vec<Named>>,
    /// The roots a key's records name, gathered once per release.
    named_roots: Vec<Cid>,
    /// What putting an object works on and throws away, kept between
    /// puts so that a put allocates only the blocks it adds, its manifest
    /// and what it keeps of it.
    scratch: PutScratch,
}

/// The lists a put fills and empties ([`StorageNetwork::put`]).
#[derive(Debug, Default)]
struct PutScratch {
    /// The object's chunk blocks, in chunk order; emptied after the pin,
    /// so no block outlives its object here.
    blocks: Vec<Block>,
    /// The memo slots of those blocks, in the same order.
    slots: Vec<MemoSlot>,
    /// The online peers closest to the object's root, replica candidates.
    targets: Vec<NodeId>,
    /// The bytes [`StorageNetwork::put_named_encoded`] encodes the object
    /// into, and [`StorageNetwork::encode_shared`] a value.
    encoded: Vec<u8>,
    /// The object's manifest, encoded.
    manifest: Vec<u8>,
}

/// A pinned block: its bytes, how many stored objects hold it (once per
/// occurrence) and the peers that pin it. It stays on every one of those
/// peers until the count reaches zero.
#[derive(Debug)]
struct Held {
    block: Block,
    objects: u32,
    /// The chunk memo's slot for the block's bytes, once an object stored
    /// them as a chunk; a block pinned only as a manifest never enters the
    /// memo and has none.
    memo_slot: Option<MemoSlot>,
    holders: Holders,
}

/// A set of peers, one bit each. The first 256 sit in inline words, so
/// marking a holder allocates nothing on a network of up to 256 peers; a
/// higher peer's word is allocated when one first pins the block.
#[derive(Debug, Default)]
struct Holders([u64; 4], Vec<u64>);

impl Holders {
    fn word_mut(&mut self, word: usize) -> &mut u64 {
        let Some(at) = word.checked_sub(self.0.len()) else {
            return &mut self.0[word];
        };
        if self.1.len() <= at {
            self.1.resize(at + 1, 0);
        }
        &mut self.1[at]
    }

    fn words(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().chain(&self.1).copied()
    }

    fn insert(&mut self, peer: u64) {
        *self.word_mut(peer as usize / 64) |= 1 << (peer % 64);
    }

    fn extend(&mut self, other: &Holders) {
        for (word, bits) in other.words().enumerate().filter(|&(_, bits)| bits != 0) {
            *self.word_mut(word) |= bits;
        }
    }

    fn contains(&self, peer: u64) -> bool {
        let bits = self.words().nth(peer as usize / 64);
        bits.is_some_and(|bits| bits >> (peer % 64) & 1 == 1)
    }

    /// The peers in ascending order.
    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0u64..).zip(self.words()).flat_map(|(word, bits)| {
            let peers = (0..64).filter(move |bit| bits >> bit & 1 == 1);
            peers.map(move |bit| word * 64 + bit)
        })
    }
}

/// An object put under a pointer key, as releasing it needs it.
#[derive(Debug)]
struct Named {
    root: Cid,
    /// The root (the manifest's cid), then each chunk's in manifest order.
    blocks: Vec<Cid>,
}

impl StorageNetwork {
    /// Create storage state for `n` peers.
    pub fn new(n: usize, config: StorageConfig) -> StorageNetwork {
        StorageNetwork {
            held: DigestMap::default(),
            tampered: BTreeMap::new(),
            caches: (0..n)
                .map(|_| LruBlockStore::new(config.cache_bytes))
                .collect(),
            memo: ChunkMemo::default(),
            named: DigestMap::default(),
            named_roots: Vec::new(),
            scratch: PutScratch::default(),
            config,
        }
    }

    /// Configuration in use.
    pub fn config(&self) -> &StorageConfig {
        &self.config
    }

    /// Number of peers.
    pub fn len(&self) -> usize {
        self.caches.len()
    }

    /// True when the storage network has no peers.
    pub fn is_empty(&self) -> bool {
        self.caches.is_empty()
    }

    /// Cache hit/miss counters of a peer's LRU cache.
    pub fn cache_stats(&self, peer: u64) -> (u64, u64) {
        let c = &self.caches[peer as usize];
        (c.hits, c.misses)
    }

    /// The copy of `cid` that `peer` pins, tampered or not.
    fn pinned_block(&self, peer: u64, cid: &Cid) -> Option<&Block> {
        if !self.tampered.is_empty() {
            if let Some(tampered) = self.tampered.get(&(peer, *cid)) {
                return Some(tampered);
            }
        }
        let held = self.held.get(cid)?;
        held.holders.contains(peer).then_some(&held.block)
    }

    fn block_on_peer(&self, peer: u64, cid: &Cid) -> Option<Block> {
        self.pinned_block(peer, cid)
            .or_else(|| self.caches[peer as usize].get(cid))
            .cloned()
    }

    /// Does `peer` hold every block of the object locally?
    fn holds_object(&self, peer: u64, root: &Cid) -> Option<(Manifest, Vec<Block>)> {
        let manifest_block = self.block_on_peer(peer, root)?;
        let manifest = Manifest::decode(manifest_block.data()).ok()?;
        let mut blocks = Vec::with_capacity(manifest.chunks.len());
        for c in &manifest.chunks {
            blocks.push(self.block_on_peer(peer, c)?);
        }
        Some((manifest, blocks))
    }

    /// Pin a new object's manifest and chunk blocks on `holders`, each
    /// occurrence counting one more object that holds the block; `slots`
    /// are the chunks' memo slots. The table keeps the newest handle onto a
    /// block's bytes, the one the chunk memo would hand out. A peer's pin of
    /// a block replaces any tampered copy of it there with the honest one.
    fn pin(&mut self, manifest: &Block, chunks: &[Block], slots: &[MemoSlot], holders: &Holders) {
        let chunks = chunks.iter().zip(slots.iter().copied().map(Some));
        for (block, memo_slot) in std::iter::once((manifest, None)).chain(chunks) {
            let held = self.held.entry(block.cid()).or_insert_with(|| Held {
                block: block.clone(),
                objects: 0,
                memo_slot: None,
                holders: Holders::default(),
            });
            held.block.clone_from(block);
            held.memo_slot = memo_slot.or(held.memo_slot);
            held.objects += 1;
            held.holders.extend(holders);
            if !self.tampered.is_empty() {
                for peer in holders.iter() {
                    self.tampered.remove(&(peer, block.cid()));
                }
            }
        }
    }

    /// Publish an object from `from`: chunk it, pin it locally, replicate it
    /// to the closest peers to its root key and announce providers in the
    /// DHT. It stays pinned for good.
    pub fn put_object(
        &mut self,
        net: &mut SimNet,
        dht: &mut DhtNetwork,
        from: u64,
        data: &[u8],
    ) -> QbResult<(ObjectRef, FetchStats)> {
        self.put(net, dht, from, data, None)
    }

    /// [`StorageNetwork::put_object`] for the object a versioned pointer
    /// record under `name` is about to name: it stays stored only while
    /// some copy of a record under `name` names it. The writer calls
    /// [`StorageNetwork::release_unnamed`] after each record it puts there.
    /// The object is the bytes `encode` appends to an empty buffer the
    /// network keeps between puts, so a shard the writer puts on every
    /// republish is never a list of its own. The buffer stays at the
    /// largest object put so far: a segment generation of 0.23 MiB on a
    /// 15 s `publish-churn` run of `bench/`, where peak RSS is 120 MiB.
    pub fn put_named_encoded(
        &mut self,
        net: &mut SimNet,
        dht: &mut DhtNetwork,
        from: u64,
        name: DhtKey,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> QbResult<(ObjectRef, FetchStats)> {
        let mut data = std::mem::take(&mut self.scratch.encoded);
        data.clear();
        encode(&mut data);
        let put = self.put(net, dht, from, &data, Some(name));
        self.scratch.encoded = data;
        put
    }

    /// The bytes `encode` appends to an empty buffer, as one shared
    /// allocation of exactly their length. This is no storage work: the
    /// buffer is the one [`StorageNetwork::put_named_encoded`] uses, lent to
    /// the shard writer for a record value stored in place, because the
    /// writer (`DistributedIndex::write_shard`, which `bench/` calls) takes
    /// `&self` and so keeps no buffer of its own.
    pub fn encode_shared(&mut self, encode: impl FnOnce(&mut Vec<u8>)) -> Arc<[u8]> {
        let data = &mut self.scratch.encoded;
        data.clear();
        encode(data);
        Arc::from(&data[..])
    }

    /// Release every object put under `name` that no copy of a record
    /// under `name` names any more — `root_of` reads the root a record's
    /// value names. Returns the number of objects released.
    ///
    /// A released object's blocks that no stored object holds any more
    /// leave every peer, and its root's provider records go with them. A
    /// block another object still holds stays on every peer that pinned
    /// it, so a read of a stored object finds what it always found; only a
    /// freed block that a later object holds again is pinned afresh, and
    /// only where that object is. A lagging replica still holding an older
    /// record keeps that record's object stored, so every root a lookup
    /// can return stays fetchable. The collector reads the overlay's ground
    /// truth and charges no message, as a pin expiring at its holder would
    /// not; it runs between engine calls, never under a read in flight.
    pub fn release_unnamed(
        &mut self,
        dht: &mut DhtNetwork,
        name: &DhtKey,
        root_of: impl Fn(&[u8]) -> Option<Cid>,
    ) -> usize {
        let StorageNetwork {
            held,
            tampered,
            memo,
            named,
            named_roots,
            ..
        } = self;
        let Some(objects) = named.get_mut(name) else {
            return 0;
        };
        // Releasing touches no record, so what the records name is read once.
        named_roots.clear();
        for root in dht.records_under(name).filter_map(|r| root_of(&r.value)) {
            if !named_roots.contains(&root) {
                named_roots.push(root);
            }
        }
        let mut released = 0;
        let mut at = 0;
        while let Some(object) = objects.get(at) {
            if named_roots.contains(&object.root) {
                at += 1;
                continue;
            }
            let object = objects.swap_remove(at);
            // The last object to let go of a block frees it on every peer,
            // tampered copies included, and in the chunk memo.
            for cid in &object.blocks {
                let Entry::Occupied(mut entry) = held.entry(*cid) else {
                    continue;
                };
                entry.get_mut().objects -= 1;
                if entry.get().objects > 0 {
                    continue;
                }
                let freed = entry.remove();
                if let Some(slot) = freed.memo_slot {
                    memo.forget(slot, &freed.block);
                }
                if !tampered.is_empty() {
                    for peer in freed.holders.iter() {
                        tampered.remove(&(peer, *cid));
                    }
                }
            }
            if !held.contains_key(&object.root) {
                dht.forget_providers(&object.root.to_dht_key());
            }
            released += 1;
        }
        released
    }

    fn put(
        &mut self,
        net: &mut SimNet,
        dht: &mut DhtNetwork,
        from: u64,
        data: &[u8],
        name: Option<DhtKey>,
    ) -> QbResult<(ObjectRef, FetchStats)> {
        if !net.is_online(from) {
            return Err(QbError::NodeOffline(from));
        }
        // Content enters here: a chunk some earlier object already stored is
        // that object's block again; any other is copied and hashed once,
        // into the block every holder then pins by handle.
        let mut scratch = std::mem::take(&mut self.scratch);
        let (blocks, slots) = (&mut scratch.blocks, &mut scratch.slots);
        for chunk in chunk_content_defined(data, &self.config.chunker) {
            let (block, slot) = self.memo.block(chunk);
            blocks.push(block);
            slots.push(slot);
        }
        scratch.manifest.clear();
        Manifest::encode_blocks_into(blocks, &mut scratch.manifest);
        let manifest_block = Block::new(&scratch.manifest[..]);
        let root = manifest_block.cid();
        let object_ref = ObjectRef {
            root,
            total_len: data.len() as u64,
            chunk_count: blocks.len(),
        };

        // Announce the publisher as a provider, then replicate to the r-1
        // online peers closest to the root key, gathering the holders.
        let mut stats = FetchStats::default();
        let mut holders = Holders::default();
        holders.insert(from);
        let provider_key = root.to_dht_key();
        let announced = dht.add_provider(net, from, provider_key);
        if let Ok(put) = &announced {
            stats.latency += put.latency;
            stats.messages += put.messages;
        }
        if announced.is_ok() && self.config.replication > 1 {
            let payload = data.len() + manifest_block.len();
            let targets = &mut scratch.targets;
            dht.closest_online_global(net, &root.0, self.config.replication + 1, targets);
            let mut replicated = 0usize;
            for &target in targets.iter() {
                if target.index == from || replicated + 1 >= self.config.replication {
                    if replicated + 1 >= self.config.replication {
                        break;
                    }
                    continue;
                }
                let (res, lat) = net.rpc_or_timeout(from, target.index, payload, 16);
                stats.latency += lat;
                stats.messages += 1;
                if res.is_ok() {
                    stats.bytes += payload as u64;
                    holders.insert(target.index);
                    if let Ok(ann) = dht.add_provider(net, target.index, provider_key) {
                        stats.messages += ann.messages;
                    }
                    replicated += 1;
                }
            }
        }
        // Pinned and counted even when the announce failed: a named object
        // is then released by the next release under `name`.
        self.pin(&manifest_block, &scratch.blocks, &scratch.slots, &holders);
        if let Some(name) = name {
            let cids = std::iter::once(root).chain(scratch.blocks.iter().map(Block::cid));
            let object = Named {
                root,
                blocks: cids.collect(),
            };
            self.named.entry(name).or_default().push(object);
        }
        scratch.blocks.clear();
        scratch.slots.clear();
        self.scratch = scratch;
        announced?;
        Ok((object_ref, stats))
    }

    /// Fetch an object by root cid, verifying every block.
    pub fn get_object(
        &mut self,
        net: &mut SimNet,
        dht: &mut DhtNetwork,
        from: u64,
        root: Cid,
    ) -> QbResult<(Vec<u8>, FetchStats)> {
        if !net.is_online(from) {
            return Err(QbError::NodeOffline(from));
        }
        let mut stats = FetchStats::default();

        // Fast path: everything is already local.
        if let Some((manifest, blocks)) = self.holds_object(from, &root) {
            stats.from_local = true;
            let mut data = Vec::with_capacity(manifest.total_len as usize);
            for b in blocks {
                data.extend_from_slice(b.data());
            }
            return Ok((data, stats));
        }

        // Find providers through the DHT.
        let (providers, lat, msgs) = dht.get_providers(net, from, root.to_dht_key())?;
        stats.latency += lat;
        stats.messages += msgs;
        let providers: Vec<u64> = providers
            .iter()
            .map(|p| p.index)
            .filter(|&p| p != from)
            .collect();
        if providers.is_empty() {
            return Err(QbError::NotFound(format!("no remote providers for {root}")));
        }

        // Fetch and verify the manifest: a root that hashes right but does
        // not decode is as unusable as a tampered one.
        let want = ("manifest", root);
        let manifest = self.fetch_block(net, from, &providers, want, &mut stats, |block| {
            Manifest::decode(block.data()).ok()
        })?;

        // Fetch every chunk, preferring the local cache, then providers.
        let mut data = Vec::with_capacity(manifest.total_len as usize);
        for chunk_cid in &manifest.chunks {
            if let Some(local) = self.caches[from as usize].get_touch(chunk_cid) {
                data.extend_from_slice(local.data());
                continue;
            }
            if let Some(pinned) = self.pinned_block(from, chunk_cid).cloned() {
                data.extend_from_slice(pinned.data());
                continue;
            }
            let want = ("chunk", *chunk_cid);
            self.fetch_block(net, from, &providers, want, &mut stats, |block| {
                data.extend_from_slice(block.data());
                Some(())
            })?;
        }

        // The fetcher now serves the object from its cache and announces
        // itself as a provider (the DWeb "devices also serve their cached
        // data" behaviour).
        if let Ok(ann) = dht.add_provider(net, from, root.to_dht_key()) {
            stats.messages += ann.messages;
        }
        Ok((data, stats))
    }

    /// One provider walk: ask `providers` in order for the block `cid` (a
    /// `what`: manifest or chunk) — probe the holder, count the message,
    /// charge the transfer — until one returns bytes that hash to `cid` and
    /// that `accept` takes; that block enters `from`'s cache. Every other
    /// copy received counts one integrity failure, and the walk moves on to
    /// the next provider.
    fn fetch_block<T>(
        &mut self,
        net: &mut SimNet,
        from: u64,
        providers: &[u64],
        (what, cid): (&str, Cid),
        stats: &mut FetchStats,
        mut accept: impl FnMut(&Block) -> Option<T>,
    ) -> QbResult<T> {
        for &p in providers {
            let Some(remote) = self.block_on_peer(p, &cid) else {
                continue;
            };
            stats.messages += 1;
            let (res, lat) = net.rpc_or_timeout(from, p, 64, remote.len());
            stats.latency += lat;
            if res.is_err() {
                continue;
            }
            stats.bytes += remote.len() as u64;
            if let Ok(block) = Block::from_parts(cid, remote.data().clone()) {
                if let Some(accepted) = accept(&block) {
                    self.caches[from as usize].put(block);
                    return Ok(accepted);
                }
            }
            stats.integrity_failures += 1;
        }
        Err(if stats.integrity_failures > 0 {
            QbError::IntegrityViolation {
                expected: cid.to_hex(),
                actual: "corrupted copies from all providers".into(),
            }
        } else {
            QbError::NotFound(format!("{what} {cid} unavailable"))
        })
    }

    /// Corrupt the pinned copy of a block on a specific peer (experiment E4:
    /// tamper injection). Returns true if the peer held the block.
    pub fn corrupt_pinned(&mut self, peer: u64, cid: &Cid, evil: Vec<u8>) -> bool {
        let pins = self.held.get(cid).is_some_and(|h| h.holders.contains(peer));
        if pins {
            let evil = Block::new_unchecked(*cid, evil);
            self.tampered.insert((peer, *cid), evil);
        }
        pins
    }

    /// Peers that hold a pinned copy of the given block, in ascending order.
    pub fn pinned_holders(&self, cid: &Cid) -> Vec<u64> {
        let held = self.held.get(cid);
        held.map_or_else(Vec::new, |h| h.holders.iter().collect())
    }

    /// Peers that hold a cached (non-pinned) copy of the given block. Peers
    /// that fetched an object serve it from their caches afterwards, so a
    /// complete tamper experiment must corrupt these copies too.
    pub fn cached_holders(&self, cid: &Cid) -> Vec<u64> {
        (0..self.caches.len() as u64)
            .filter(|&p| self.caches[p as usize].has(cid))
            .collect()
    }

    /// Corrupt the cached copy of a block on a specific peer. Returns true if
    /// the peer had the block cached.
    pub fn corrupt_cached(&mut self, peer: u64, cid: &Cid, evil: Vec<u8>) -> bool {
        self.caches[peer as usize].corrupt(cid, evil)
    }

    /// Corrupt every copy of a block anywhere in the network — pinned
    /// replicas and peer caches alike. Returns the number of copies
    /// corrupted. This is the strongest tamper-injection an attacker
    /// controlling every holder could mount.
    pub fn corrupt_all_copies(&mut self, cid: &Cid, evil: &[u8]) -> usize {
        let mut corrupted = 0;
        for p in self.pinned_holders(cid) {
            if self.corrupt_pinned(p, cid, evil.to_vec()) {
                corrupted += 1;
            }
        }
        for p in self.cached_holders(cid) {
            if self.corrupt_cached(p, cid, evil.to_vec()) {
                corrupted += 1;
            }
        }
        corrupted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memo::ChunkMemo;
    use proptest::prelude::*;
    use qb_dht::DhtConfig;
    use qb_simnet::NetConfig;
    use std::collections::HashMap;

    fn setup(n: usize, seed: u64) -> (SimNet, DhtNetwork, StorageNetwork) {
        let mut net = SimNet::new(n, NetConfig::lan(), seed);
        let dht = DhtNetwork::build(&mut net, DhtConfig::small());
        let storage = StorageNetwork::new(n, StorageConfig::small());
        (net, dht, storage)
    }

    fn sample_data(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    /// Pseudo-random bytes: no two chunks alike, unlike [`sample_data`].
    fn random_data(len: usize) -> Vec<u8> {
        let mut state = 0x5EEDu64;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn put_then_get_from_another_peer() {
        let (mut net, mut dht, mut storage) = setup(24, 1);
        let data = sample_data(5000);
        let (obj, put_stats) = storage.put_object(&mut net, &mut dht, 3, &data).unwrap();
        assert_eq!(obj.total_len, 5000);
        assert!(obj.chunk_count >= 1);
        assert!(put_stats.messages > 0);
        let (fetched, stats) = storage
            .get_object(&mut net, &mut dht, 17, obj.root)
            .unwrap();
        assert_eq!(fetched, data);
        assert!(!stats.from_local);
        assert!(stats.bytes > 0);
    }

    #[test]
    fn second_fetch_is_served_locally() {
        let (mut net, mut dht, mut storage) = setup(24, 2);
        let data = sample_data(2000);
        let (obj, _) = storage.put_object(&mut net, &mut dht, 0, &data).unwrap();
        let _ = storage.get_object(&mut net, &mut dht, 9, obj.root).unwrap();
        let (again, stats) = storage.get_object(&mut net, &mut dht, 9, obj.root).unwrap();
        assert_eq!(again, data);
        assert!(stats.from_local);
        assert_eq!(stats.messages, 0);
        assert_eq!(stats.latency, SimDuration::ZERO);
    }

    #[test]
    fn cached_peer_becomes_a_provider() {
        let (mut net, mut dht, mut storage) = setup(32, 3);
        let data = sample_data(3000);
        let (obj, _) = storage.put_object(&mut net, &mut dht, 0, &data).unwrap();
        let _ = storage.get_object(&mut net, &mut dht, 5, obj.root).unwrap();
        // Kill the publisher and its replicas; the cached copy at peer 5 must
        // keep the object available.
        net.set_online(0, false);
        for holder in storage.pinned_holders(&obj.root) {
            net.set_online(holder, false);
        }
        let (fetched, _) = storage
            .get_object(&mut net, &mut dht, 20, obj.root)
            .unwrap();
        assert_eq!(fetched, data);
    }

    #[test]
    fn a_fetcher_outside_the_closest_peers_rereads_an_object_its_cache_lost() {
        let mut net = SimNet::new(32, NetConfig::lan(), 6);
        let mut dht = DhtNetwork::build(&mut net, DhtConfig::small());
        let config = StorageConfig {
            cache_bytes: 4 * 1024,
            ..StorageConfig::small()
        };
        let mut storage = StorageNetwork::new(32, config);
        let data = sample_data(3000);
        let (obj, _) = storage.put_object(&mut net, &mut dht, 0, &data).unwrap();
        let other = random_data(3000);
        let (evictor, _) = storage.put_object(&mut net, &mut dht, 1, &other).unwrap();
        let key = obj.root.to_dht_key();
        let holds = |storage: &StorageNetwork, p: u64| {
            [obj.root, evictor.root]
                .iter()
                .any(|root| storage.pinned_holders(root).contains(&p))
        };
        let fetcher = (2..32)
            .find(|&p| !holds(&storage, p) && dht.node(p).get_providers(&key).is_empty())
            .expect("a peer that neither holds the object nor stores its providers");

        storage
            .get_object(&mut net, &mut dht, fetcher, obj.root)
            .unwrap();
        let own: Vec<u64> = dht
            .node(fetcher)
            .get_providers(&key)
            .iter()
            .map(|&p| u64::from(p))
            .collect();
        assert_eq!(
            own,
            [fetcher],
            "the fetcher knows itself as the only provider"
        );
        // Fetching a second object pushes the first out of the small cache.
        storage
            .get_object(&mut net, &mut dht, fetcher, evictor.root)
            .unwrap();
        assert!(!storage.cached_holders(&obj.root).contains(&fetcher));

        let (again, stats) = storage
            .get_object(&mut net, &mut dht, fetcher, obj.root)
            .unwrap();
        assert_eq!(again, data);
        assert!(!stats.from_local);
        assert!(
            stats.messages > 0,
            "the providers were looked up, not read locally"
        );
    }

    #[test]
    fn replication_allows_publisher_failure() {
        let (mut net, mut dht, mut storage) = setup(32, 4);
        let data = sample_data(4000);
        let (obj, _) = storage.put_object(&mut net, &mut dht, 2, &data).unwrap();
        let holders = storage.pinned_holders(&obj.root);
        assert!(holders.len() >= 2, "expected replication, got {holders:?}");
        net.set_online(2, false);
        let (fetched, _) = storage
            .get_object(&mut net, &mut dht, 25, obj.root)
            .unwrap();
        assert_eq!(fetched, data);
    }

    #[test]
    fn missing_object_is_not_found() {
        let (mut net, mut dht, mut storage) = setup(16, 5);
        let err = storage
            .get_object(&mut net, &mut dht, 1, Cid::for_data(b"never published"))
            .unwrap_err();
        assert!(err.is_availability());
    }

    #[test]
    fn tampered_replica_is_detected_and_routed_around() {
        let (mut net, mut dht, mut storage) = setup(32, 6);
        let data = sample_data(1500);
        let (obj, _) = storage.put_object(&mut net, &mut dht, 0, &data).unwrap();
        // Corrupt one replica's copy of the manifest.
        let holders = storage.pinned_holders(&obj.root);
        let victim = *holders.iter().find(|&&h| h != 0).unwrap_or(&holders[0]);
        assert!(storage.corrupt_pinned(victim, &obj.root, b"evil manifest".to_vec()));
        // Fetch still succeeds (another provider has an honest copy) and the
        // corruption is either avoided or detected, never silently accepted.
        let (fetched, stats) = storage
            .get_object(&mut net, &mut dht, 21, obj.root)
            .unwrap();
        assert_eq!(fetched, data);
        let _ = stats;
    }

    #[test]
    fn all_copies_tampered_is_an_integrity_error() {
        let (mut net, mut dht, mut storage) = setup(24, 7);
        let data = sample_data(800);
        let (obj, _) = storage.put_object(&mut net, &mut dht, 0, &data).unwrap();
        for holder in storage.pinned_holders(&obj.root) {
            storage.corrupt_pinned(holder, &obj.root, b"evil".to_vec());
        }
        let err = storage
            .get_object(&mut net, &mut dht, 10, obj.root)
            .unwrap_err();
        assert!(matches!(err, QbError::IntegrityViolation { .. }));
    }

    #[test]
    fn a_root_that_verifies_but_is_not_a_manifest_is_an_integrity_error() {
        let (mut net, mut dht, mut storage) = setup(32, 12);
        let data = random_data(2000);
        let (obj, _) = storage.put_object(&mut net, &mut dht, 2, &data).unwrap();
        // Someone announces a chunk as if it were an object root: every
        // holder's copy hashes to the cid asked for, and none is a manifest.
        let chunk = pinned_on(&storage, 2)
            .into_iter()
            .find(|c| *c != obj.root)
            .expect("a chunk");
        let holders = storage.pinned_holders(&chunk);
        assert_eq!(holders.len(), 2, "publisher and one replica");
        for &holder in &holders {
            dht.add_provider(&mut net, holder, chunk.to_dht_key())
                .unwrap();
        }
        let reader = (0..32)
            .find(|p| !holders.contains(p))
            .expect("a non-holder");
        let err = storage
            .get_object(&mut net, &mut dht, reader, chunk)
            .unwrap_err();
        // Counted as integrity failures, not as "nobody had it", and the
        // reader kept no copy.
        assert!(matches!(err, QbError::IntegrityViolation { .. }), "{err}");
        assert!(!storage.cached_holders(&chunk).contains(&reader));
    }

    /// FNV-1a fold (pins a peer's whole pinned cid set in one word).
    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// The cids `peer` pins, sorted.
    fn pinned_on(storage: &StorageNetwork, peer: u64) -> Vec<Cid> {
        let mut cids: Vec<Cid> = storage
            .held
            .iter()
            .filter(|(_, held)| held.holders.contains(peer))
            .map(|(cid, _)| *cid)
            .collect();
        cids.sort();
        cids
    }

    /// Every peer holding pinned blocks: `(peer, blocks, fold of its sorted
    /// pinned cids)`.
    fn pinned_sets(storage: &StorageNetwork) -> Vec<(usize, usize, u64)> {
        (0..storage.len() as u64)
            .map(|peer| (peer, pinned_on(storage, peer)))
            .filter(|(_, cids)| !cids.is_empty())
            .map(|(peer, cids)| {
                let mut cids: Vec<String> = cids.iter().map(|c| c.to_hex()).collect();
                cids.sort();
                (peer as usize, cids.len(), fnv1a(&cids.join(" ")))
            })
            .collect()
    }

    fn stats(latency_us: u64, messages: u64, bytes: u64) -> FetchStats {
        FetchStats {
            latency: SimDuration::from_micros(latency_us),
            messages,
            bytes,
            ..FetchStats::default()
        }
    }

    /// `put_object` hashes and shares blocks host-side only: what is
    /// addressed, what is pinned where and what is charged to the network
    /// must equal the constants recorded when every holder copied and
    /// hashed every chunk for itself.
    #[test]
    fn golden_puts_are_byte_identical() {
        let random = random_data(10 * 1024);
        // (object, publisher, root, chunks, put, get from peer 30, pinned)
        type Golden<'a> = (
            &'a [u8],
            u64,
            &'a str,
            usize,
            FetchStats,
            FetchStats,
            [(usize, usize, u64); 2],
        );
        let golden: [Golden; 3] = [
            (
                &[],
                3,
                "8f3cce7d17ced5f2057e7ec4300754ae377f85830cc8f0977d62cdc74a15906b",
                1,
                stats(5003, 18, 40),
                stats(7006, 19, 40),
                [(3, 2, 0xe99b_5878_5cad_1f62), (7, 2, 0xe99b_5878_5cad_1f62)],
            ),
            (
                b"a single chunk",
                11,
                "c1a82f3926096397fbbb38b40b831a4594ad8862a7c2636290ec191fe4f30ae6",
                1,
                stats(5003, 19, 54),
                stats(6005, 17, 54),
                [
                    (5, 2, 0x2ec3_d772_6b6d_b2db),
                    (11, 2, 0x2ec3_d772_6b6d_b2db),
                ],
            ),
            (
                &random,
                20,
                "ca39be5ef09851ad07ca05e75bceb1d41554e58e61f40cc917001d3d63b52d37",
                145,
                stats(5122, 19, 14890),
                stats(150114, 161, 14890),
                [
                    (20, 146, 0xa5b6_ed86_497c_8cb1),
                    (29, 146, 0xa5b6_ed86_497c_8cb1),
                ],
            ),
        ];
        for (data, from, root, chunk_count, put, get, pinned) in golden {
            let (mut net, mut dht, mut storage) = setup(32, 9);
            let (obj, put_stats) = storage.put_object(&mut net, &mut dht, from, data).unwrap();
            assert_eq!(obj.root.0.to_hex(), root);
            assert_eq!(
                (obj.total_len, obj.chunk_count),
                (data.len() as u64, chunk_count)
            );
            assert_eq!(put_stats, put, "put of {root}");
            assert_eq!(pinned_sets(&storage), pinned, "holders of {root}");
            let (fetched, get_stats) = storage
                .get_object(&mut net, &mut dht, 30, obj.root)
                .unwrap();
            assert_eq!(fetched, data);
            assert_eq!(get_stats, get, "get of {root}");
        }
    }

    #[test]
    fn holders_share_one_allocation_per_block_and_every_block_verifies() {
        let (mut net, mut dht, mut storage) = setup(32, 10);
        let data = random_data(4000);
        let (obj, _) = storage.put_object(&mut net, &mut dht, 2, &data).unwrap();
        let holders = storage.pinned_holders(&obj.root);
        assert_eq!(holders.len(), 2, "publisher and one replica");
        let publisher = pinned_on(&storage, 2);
        assert_eq!(publisher.len(), obj.chunk_count + 1);
        for &replica in holders.iter().filter(|&&h| h != 2) {
            for cid in &publisher {
                let (a, b) = (
                    storage.pinned_block(2, cid).unwrap(),
                    storage.pinned_block(replica, cid).unwrap(),
                );
                assert!(a.verify() && b.verify());
                assert_eq!(a.data().as_ptr(), b.data().as_ptr(), "block {cid} copied");
            }
        }
    }

    #[test]
    fn corrupting_one_holder_leaves_the_shared_bytes_of_the_others_intact() {
        let (mut net, mut dht, mut storage) = setup(32, 11);
        let data = random_data(4000);
        let (obj, _) = storage.put_object(&mut net, &mut dht, 2, &data).unwrap();
        let replica = storage.pinned_holders(&obj.root)[1];
        assert_ne!(replica, 2);
        // The publisher (the provider a reader asks first) turns malicious:
        // every block it pinned now lies.
        let cids = pinned_on(&storage, 2);
        for cid in &cids {
            assert!(storage.corrupt_pinned(2, cid, b"evil".to_vec()));
        }
        // Only its map entries were replaced: the bytes it shared with the
        // replica are immutable and still verify there.
        for cid in &cids {
            assert!(!storage.pinned_block(2, cid).unwrap().verify());
            assert!(storage.pinned_block(replica, cid).unwrap().verify());
        }
        // A third peer is handed every tampered block first, counts each one
        // and still assembles the object from the honest copy.
        let (fetched, stats) = storage
            .get_object(&mut net, &mut dht, 21, obj.root)
            .unwrap();
        assert_eq!(fetched, data);
        assert_eq!(stats.integrity_failures, cids.len() as u64);
    }

    /// Every peer's pinned blocks as sorted `(cid, bytes)` pairs.
    fn pinned_contents(storage: &StorageNetwork) -> Vec<Vec<(Cid, Vec<u8>)>> {
        (0..storage.len() as u64)
            .map(|peer| {
                let cids = pinned_on(storage, peer).into_iter();
                let bytes = |c: Cid| storage.pinned_block(peer, &c).unwrap().data().to_vec();
                cids.map(|c| (c, bytes(c))).collect()
            })
            .collect()
    }

    /// One step of an edit chain over an object's bytes.
    fn edit(data: &mut Vec<u8>, (op, at, len): (u8, usize, usize), seed: u64) {
        let at = at % (data.len() + 1);
        let mut state = seed;
        let mut run = || -> Vec<u8> {
            (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) as u8
                })
                .collect()
        };
        match op {
            0 => {
                data.splice(at..at, run());
            }
            1 => {
                data.drain(at..(at + len).min(data.len()));
            }
            _ => {
                let end = (at + len).min(data.len());
                let fresh = run();
                data.splice(at..end, fresh[..end - at].iter().copied());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The chunk memo is host-side only: a chain of edited versions put
        /// through a network whose memo is warm returns, puts, charges and
        /// pins exactly what the same chain does on an identically seeded
        /// network whose memo is emptied before every put — the parent's
        /// copy-and-hash-everything behaviour.
        #[test]
        fn an_edit_chain_stores_the_same_with_the_memo_warm_or_cold(
            tiny in any::<bool>(),
            size in 0usize..6_000,
            edits in proptest::collection::vec((0u8..3, any::<usize>(), 1usize..300), 1..6),
            seed in 0u64..1_000,
        ) {
            let chunker = if tiny {
                ChunkerConfig::tiny()
            } else {
                ChunkerConfig::default()
            };
            let config = StorageConfig {
                chunker,
                ..StorageConfig::small()
            };
            // Default-sized chunks need objects of a few chunks to share any.
            let scale = if tiny { 1 } else { 8 };
            let stack = || {
                let mut net = SimNet::new(16, NetConfig::lan(), seed);
                let dht = DhtNetwork::build(&mut net, DhtConfig::small());
                (net, dht, StorageNetwork::new(16, config.clone()))
            };
            let (mut wnet, mut wdht, mut warm) = stack();
            let (mut cnet, mut cdht, mut cold) = stack();
            let mut data = random_data(size * scale);
            for (i, &(op, at, len)) in edits.iter().enumerate() {
                if i > 0 {
                    edit(&mut data, (op, at, len * scale), seed + i as u64);
                }
                let from = (seed + i as u64) % 16;
                cold.memo = ChunkMemo::default();
                let got = warm.put_object(&mut wnet, &mut wdht, from, &data).unwrap();
                let want = cold.put_object(&mut cnet, &mut cdht, from, &data).unwrap();
                prop_assert_eq!(&got, &want);
                let manifest = |s: &StorageNetwork| {
                    s.pinned_block(from, &got.0.root).unwrap().data().to_vec()
                };
                prop_assert_eq!(manifest(&warm), manifest(&cold));
                prop_assert_eq!(pinned_contents(&warm), pinned_contents(&cold));
            }
        }
    }

    /// A tampered pinned copy is never what the memo hands a later put: the
    /// memo holds the honest block, the re-put pins honest bytes over the
    /// tampered ones exactly as copying and hashing afresh does, and a
    /// reader then fetches as it would with no memo at all.
    #[test]
    fn a_corrupted_block_is_never_reused_and_reads_go_as_without_the_memo() {
        let run = |memo_warm: bool| {
            let (mut net, mut dht, mut storage) = setup(32, 13);
            let data = random_data(3000);
            let (obj, _) = storage.put_object(&mut net, &mut dht, 2, &data).unwrap();
            let replica = storage.pinned_holders(&obj.root)[1];
            // Both holders of every chunk turn malicious.
            let mut chunks = pinned_on(&storage, 2);
            chunks.retain(|c| *c != obj.root);
            for cid in &chunks {
                assert!(storage.corrupt_pinned(2, cid, b"evil".to_vec()));
                assert!(storage.corrupt_pinned(replica, cid, b"evil".to_vec()));
            }
            // The publisher stores a new version sharing all but its tail.
            let mut next = data.clone();
            next.extend_from_slice(b"appended tail");
            if !memo_warm {
                storage.memo = ChunkMemo::default();
            }
            let put = storage.put_object(&mut net, &mut dht, 2, &next).unwrap();
            let repaired: Vec<bool> = chunks
                .iter()
                .map(|c| storage.pinned_block(2, c).unwrap().verify())
                .collect();
            let read = storage.get_object(&mut net, &mut dht, 21, put.0.root);
            let old = storage.get_object(&mut net, &mut dht, 22, obj.root);
            (put, repaired, pinned_contents(&storage), read, old)
        };
        let warm = run(true);
        let cold = run(false);
        // The chunks the new version shares were re-pinned honestly.
        assert!(warm.1.contains(&true));
        assert_eq!(warm.0, cold.0);
        assert_eq!(warm.1, cold.1);
        assert_eq!(warm.2, cold.2);
        assert_eq!(format!("{:?}", warm.3), format!("{:?}", cold.3));
        assert_eq!(format!("{:?}", warm.4), format!("{:?}", cold.4));
    }

    /// The root a test pointer record names: its value is the root itself.
    fn root_of(value: &[u8]) -> Option<Cid> {
        Some(Cid(qb_common::Hash256::from_bytes(value.try_into().ok()?)))
    }

    /// Store `data` from `from` as the object the record under `name` names
    /// at `version`, then release what no record names. Returns the root
    /// and the number of objects released.
    fn write(
        (net, dht, storage): (&mut SimNet, &mut DhtNetwork, &mut StorageNetwork),
        from: u64,
        name: DhtKey,
        data: &[u8],
        version: u64,
    ) -> (Cid, usize) {
        let encode = |buf: &mut Vec<u8>| buf.extend_from_slice(data);
        let (obj, _) = storage
            .put_named_encoded(net, dht, from, name, encode)
            .unwrap();
        let pointer = obj.root.0.as_bytes().to_vec();
        dht.put_record(net, from, name, pointer, version).unwrap();
        (obj.root, storage.release_unnamed(dht, &name, root_of))
    }

    /// The root and every chunk cid of a stored object, read from a holder.
    fn blocks_of(storage: &StorageNetwork, root: Cid) -> Vec<Cid> {
        let holder = storage.pinned_holders(&root)[0];
        let manifest = storage.pinned_block(holder, &root).unwrap();
        let chunks = Manifest::decode(manifest.data()).unwrap().chunks;
        std::iter::once(root).chain(chunks).collect()
    }

    fn is_subset(small: &[u64], large: &[u64]) -> bool {
        small.iter().all(|p| large.contains(p))
    }

    #[test]
    fn a_superseded_object_leaves_every_peer_but_the_chunks_its_successor_holds() {
        let (mut net, mut dht, mut storage) = setup(32, 14);
        let name = DhtKey::from_bytes(b"pointer");
        let v1 = random_data(3000);
        let mut v2 = v1.clone();
        v2.splice(1500..1500, b"an edit in the middle".iter().copied());
        let (r1, released) = write((&mut net, &mut dht, &mut storage), 3, name, &v1, 1);
        assert_eq!(released, 0, "the record names it");
        let old = blocks_of(&storage, r1);
        let old_holders = storage.pinned_holders(&r1);
        // A reader caches the object and announces itself as a provider.
        storage.get_object(&mut net, &mut dht, 20, r1).unwrap();

        let (r2, released) = write((&mut net, &mut dht, &mut storage), 3, name, &v2, 2);
        assert_eq!(released, 1);
        let new = blocks_of(&storage, r2);
        let (shared, freed): (Vec<Cid>, Vec<Cid>) = old.iter().partition(|c| new.contains(c));
        assert!(!shared.is_empty() && !freed.is_empty());
        for cid in &shared {
            let holders = storage.pinned_holders(cid);
            assert!(is_subset(&old_holders, &holders), "{cid} left a holder");
        }
        for cid in &freed {
            assert!(storage.pinned_holders(cid).is_empty(), "{cid} still pinned");
        }
        for node in 0..32 {
            assert!(dht.node(node).get_providers(&r1.to_dht_key()).is_empty());
        }
        // A freed object is never served as present: its former holder
        // finds neither its blocks nor anyone announcing them.
        let err = storage
            .get_object(&mut net, &mut dht, old_holders[0], r1)
            .unwrap_err();
        assert!(err.is_availability(), "{err}");
        let (read, _) = storage.get_object(&mut net, &mut dht, 25, r2).unwrap();
        assert_eq!(read, v2);
    }

    #[test]
    fn a_lagging_replica_keeps_the_object_its_record_names() {
        let (mut net, mut dht, mut storage) = setup(32, 15);
        let name = DhtKey::from_bytes(b"pointer");
        let (v1, v2, v3) = (random_data(2000), sample_data(2500), sample_data(1800));
        let (r1, _) = write((&mut net, &mut dht, &mut storage), 3, name, &v1, 1);
        // One replica of the record misses the next version.
        let lagging = (0..32u64)
            .find(|&n| n != 3 && dht.node(n).find_value(&name).is_some())
            .expect("a replica");
        net.set_online(lagging, false);
        let (r2, released) = write((&mut net, &mut dht, &mut storage), 3, name, &v2, 2);
        assert_eq!(released, 0, "the lagging replica still names {r1}");
        net.set_online(lagging, true);
        let (read, _) = storage.get_object(&mut net, &mut dht, 21, r1).unwrap();
        assert_eq!(read, v1);

        // Once the replica moves on, nothing names the first version.
        let (r3, _) = write((&mut net, &mut dht, &mut storage), 3, name, &v3, 3);
        let named = |root: Cid| {
            dht.records_under(&name)
                .any(|r| root_of(&r.value) == Some(root))
        };
        assert!(!named(r1));
        assert!(storage.pinned_holders(&r1).is_empty());
        assert_eq!(storage.pinned_holders(&r2).is_empty(), !named(r2));
        assert!(named(r3));
        let (read, _) = storage.get_object(&mut net, &mut dht, 22, r3).unwrap();
        assert_eq!(read, v3);
    }

    #[test]
    fn a_freed_chunk_leaves_the_memo_and_a_later_put_pins_it_afresh() {
        let (mut net, mut dht, mut storage) = setup(32, 16);
        let name = DhtKey::from_bytes(b"pointer");
        let (v1, v2) = (random_data(1500), sample_data(1500));
        let (r1, _) = write((&mut net, &mut dht, &mut storage), 3, name, &v1, 1);
        let chunk = blocks_of(&storage, r1)[1];
        let handle = storage.pinned_block(3, &chunk).unwrap().clone();
        assert!(storage.memo.holds(&handle));

        let (_, released) = write((&mut net, &mut dht, &mut storage), 3, name, &v2, 2);
        assert_eq!(released, 1);
        assert!(storage.pinned_holders(&chunk).is_empty());
        assert!(!storage.memo.holds(&handle), "the memo kept a freed block");

        // The first version again: its chunks are pinned afresh, in new
        // buffers, and read whole.
        let (again, released) = write((&mut net, &mut dht, &mut storage), 3, name, &v1, 3);
        assert_eq!((again, released), (r1, 1));
        let repinned = storage.pinned_block(3, &chunk).unwrap();
        assert!(repinned.verify());
        assert_ne!(repinned.data().as_ptr(), handle.data().as_ptr());
        let (read, _) = storage.get_object(&mut net, &mut dht, 25, r1).unwrap();
        assert_eq!(read, v1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Under edit chains on two pointer keys, written from a few peers
        /// while replicas drop in and out: after every write, each root some
        /// copy of a record names is stored whole, every object still
        /// tracked is named, every pinned block belongs to a tracked object
        /// and its holding count is what the tracked objects add up to, and
        /// no released root keeps a provider record.
        #[test]
        fn the_collector_keeps_exactly_what_the_records_name(
            seed in 0u64..1_000,
            steps in proptest::collection::vec(
                ((0usize..2, 0u64..4), (0u8..3, any::<usize>(), 1usize..200), 4u64..16),
                1..10,
            ),
        ) {
            let (mut net, mut dht, mut storage) = setup(16, seed);
            let names = [DhtKey::from_bytes(b"first"), DhtKey::from_bytes(b"second")];
            let mut data = [random_data(1200), sample_data(900)];
            let mut versions = [0u64; 2];
            let mut released_roots: Vec<Cid> = Vec::new();
            for (i, &((which, writer), edit_op, flip)) in steps.iter().enumerate() {
                // A peer other than the writers drops out or comes back.
                net.set_online(flip, !net.is_online(flip));
                edit(&mut data[which], edit_op, seed + i as u64);
                let name = names[which];
                let before: Vec<Cid> = storage.named.values().flatten().map(|o| o.root).collect();
                let encode = |buf: &mut Vec<u8>| buf.extend_from_slice(&data[which]);
                let Ok((obj, _)) = storage.put_named_encoded(&mut net, &mut dht, writer, name, encode)
                else {
                    continue;
                };
                versions[which] += 1;
                let pointer = obj.root.0.as_bytes().to_vec();
                let _ = dht.put_record(&mut net, writer, name, pointer, versions[which]);
                storage.release_unnamed(&mut dht, &name, root_of);
                let after: Vec<Cid> = storage.named.values().flatten().map(|o| o.root).collect();
                released_roots.extend(before.into_iter().filter(|r| !after.contains(r)));

                let mut expected: HashMap<Cid, u32> = HashMap::new();
                for (key, objects) in &storage.named {
                    for object in objects {
                        let named = dht.records_under(key)
                            .any(|r| root_of(&r.value) == Some(object.root));
                        prop_assert!(named, "tracked but unnamed: {}", object.root);
                        for cid in &object.blocks {
                            *expected.entry(*cid).or_default() += 1;
                        }
                    }
                }
                for key in &names {
                    for record in dht.records_under(key) {
                        let root = root_of(&record.value).unwrap();
                        for cid in blocks_of(&storage, root) {
                            prop_assert!(!storage.pinned_holders(&cid).is_empty(), "{} lost {}", root, cid);
                        }
                    }
                }
                let live: HashMap<Cid, u32> =
                    storage.held.iter().map(|(c, h)| (*c, h.objects)).collect();
                prop_assert_eq!(&live, &expected);
                for (cid, held) in &storage.held {
                    prop_assert!(held.holders.iter().next().is_some(), "{} pinned nowhere", cid);
                }
                for root in &released_roots {
                    if !expected.contains_key(root) {
                        for node in 0..16 {
                            prop_assert!(dht.node(node).get_providers(&root.to_dht_key()).is_empty());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn offline_requester_is_rejected() {
        let (mut net, mut dht, mut storage) = setup(8, 8);
        net.set_online(4, false);
        assert!(matches!(
            storage.get_object(&mut net, &mut dht, 4, Cid::for_data(b"x")),
            Err(QbError::NodeOffline(4))
        ));
        assert!(matches!(
            storage.put_object(&mut net, &mut dht, 4, b"data"),
            Err(QbError::NodeOffline(4))
        ));
    }

    /// The storage layer as it was kept before the held table: one map of
    /// pinned blocks per peer, tampered copies in place, beside a count of
    /// the objects holding each block. No chunk memo: every put copies and
    /// hashes every chunk, which the memo is proven not to change.
    struct Reference {
        config: StorageConfig,
        pinned: Vec<HashMap<Cid, Block>>,
        caches: Vec<LruBlockStore>,
        live: HashMap<Cid, u32>,
        named: HashMap<DhtKey, Vec<(Cid, Vec<Cid>)>>,
    }

    impl Reference {
        fn new(n: usize, config: StorageConfig) -> Reference {
            Reference {
                pinned: vec![HashMap::new(); n],
                caches: vec![LruBlockStore::new(config.cache_bytes); n],
                live: HashMap::new(),
                named: HashMap::new(),
                config,
            }
        }

        fn pin(&mut self, peer: u64, blocks: &[Block]) {
            for block in blocks {
                self.pinned[peer as usize].insert(block.cid(), block.clone());
            }
        }

        fn put(
            &mut self,
            (net, dht): (&mut SimNet, &mut DhtNetwork),
            from: u64,
            data: &[u8],
            name: Option<DhtKey>,
        ) -> QbResult<(ObjectRef, FetchStats)> {
            if !net.is_online(from) {
                return Err(QbError::NodeOffline(from));
            }
            let chunks: Vec<Block> = chunk_content_defined(data, &self.config.chunker)
                .map(Block::new)
                .collect();
            let manifest = Manifest::from_blocks(&chunks);
            let manifest_block = Block::new(manifest.encode());
            let root = manifest_block.cid();
            let object = ObjectRef {
                root,
                total_len: manifest.total_len,
                chunk_count: manifest.chunks.len(),
            };
            let blocks: Vec<Block> = std::iter::once(manifest_block).chain(chunks).collect();
            self.pin(from, &blocks);
            let cids: Vec<Cid> = blocks.iter().map(Block::cid).collect();
            for cid in &cids {
                *self.live.entry(*cid).or_default() += 1;
            }
            if let Some(name) = name {
                self.named.entry(name).or_default().push((root, cids));
            }
            let mut stats = FetchStats::default();
            let put = dht.add_provider(net, from, root.to_dht_key())?;
            stats.latency += put.latency;
            stats.messages += put.messages;
            let r = self.config.replication;
            let mut replicated = 0;
            let mut targets = Vec::new();
            dht.closest_online_global(net, &root.0, r + 1, &mut targets);
            for target in targets {
                if replicated + 1 >= r {
                    break;
                }
                if target.index == from {
                    continue;
                }
                let payload = data.len() + blocks[0].len();
                let (res, lat) = net.rpc_or_timeout(from, target.index, payload, 16);
                stats.latency += lat;
                stats.messages += 1;
                if res.is_ok() {
                    stats.bytes += payload as u64;
                    self.pin(target.index, &blocks);
                    if let Ok(ann) = dht.add_provider(net, target.index, root.to_dht_key()) {
                        stats.messages += ann.messages;
                    }
                    replicated += 1;
                }
            }
            Ok((object, stats))
        }

        fn block_on_peer(&self, peer: u64, cid: &Cid) -> Option<Block> {
            let pinned = self.pinned[peer as usize].get(cid);
            pinned
                .or_else(|| self.caches[peer as usize].get(cid))
                .cloned()
        }

        fn get(
            &mut self,
            (net, dht): (&mut SimNet, &mut DhtNetwork),
            from: u64,
            root: Cid,
        ) -> QbResult<(Vec<u8>, FetchStats)> {
            if !net.is_online(from) {
                return Err(QbError::NodeOffline(from));
            }
            let mut stats = FetchStats::default();
            let local = self.block_on_peer(from, &root).and_then(|manifest| {
                let manifest = Manifest::decode(manifest.data()).ok()?;
                manifest
                    .chunks
                    .iter()
                    .map(|c| self.block_on_peer(from, c))
                    .collect::<Option<Vec<Block>>>()
            });
            if let Some(blocks) = local {
                stats.from_local = true;
                return Ok((
                    blocks.iter().flat_map(|b| b.data().to_vec()).collect(),
                    stats,
                ));
            }
            let (providers, lat, msgs) = dht.get_providers(net, from, root.to_dht_key())?;
            stats.latency += lat;
            stats.messages += msgs;
            let providers: Vec<u64> = providers
                .iter()
                .map(|p| p.index)
                .filter(|&p| p != from)
                .collect();
            if providers.is_empty() {
                return Err(QbError::NotFound(format!("no remote providers for {root}")));
            }
            let manifest_block = self.fetch(
                (net, from),
                &providers,
                ("manifest", root),
                &mut stats,
                |b| Manifest::decode(b.data()).is_ok(),
            )?;
            let manifest = Manifest::decode(manifest_block.data())?;
            let mut data = Vec::new();
            for cid in &manifest.chunks {
                if let Some(local) = self.caches[from as usize].get_touch(cid) {
                    data.extend_from_slice(local.data());
                    continue;
                }
                if let Some(pinned) = self.pinned[from as usize].get(cid) {
                    data.extend_from_slice(pinned.data());
                    continue;
                }
                let block =
                    self.fetch((net, from), &providers, ("chunk", *cid), &mut stats, |_| {
                        true
                    })?;
                data.extend_from_slice(block.data());
            }
            if let Ok(ann) = dht.add_provider(net, from, root.to_dht_key()) {
                stats.messages += ann.messages;
            }
            Ok((data, stats))
        }

        fn fetch(
            &mut self,
            (net, from): (&mut SimNet, u64),
            providers: &[u64],
            (what, cid): (&str, Cid),
            stats: &mut FetchStats,
            accept: impl Fn(&Block) -> bool,
        ) -> QbResult<Block> {
            for &p in providers {
                let Some(remote) = self.block_on_peer(p, &cid) else {
                    continue;
                };
                stats.messages += 1;
                let (res, lat) = net.rpc_or_timeout(from, p, 64, remote.len());
                stats.latency += lat;
                if res.is_err() {
                    continue;
                }
                stats.bytes += remote.len() as u64;
                match Block::from_parts(cid, remote.data().clone()) {
                    Ok(block) if accept(&block) => {
                        self.caches[from as usize].put(block.clone());
                        return Ok(block);
                    }
                    _ => stats.integrity_failures += 1,
                }
            }
            Err(if stats.integrity_failures > 0 {
                QbError::IntegrityViolation {
                    expected: cid.to_hex(),
                    actual: "corrupted copies from all providers".into(),
                }
            } else {
                QbError::NotFound(format!("{what} {cid} unavailable"))
            })
        }

        fn release_unnamed(&mut self, dht: &mut DhtNetwork, name: &DhtKey) -> usize {
            let Some(objects) = self.named.get_mut(name) else {
                return 0;
            };
            let mut released = 0;
            while let Some(at) = objects.iter().position(|(root, _)| {
                !dht.records_under(name)
                    .any(|r| root_of(&r.value) == Some(*root))
            }) {
                let (root, cids) = objects.swap_remove(at);
                for cid in &cids {
                    let Some(count) = self.live.get_mut(cid) else {
                        continue;
                    };
                    *count -= 1;
                    if *count == 0 {
                        self.live.remove(cid);
                        for store in &mut self.pinned {
                            store.remove(cid);
                        }
                    }
                }
                if !self.live.contains_key(&root) {
                    dht.forget_providers(&root.to_dht_key());
                }
                released += 1;
            }
            released
        }

        fn corrupt_pinned(&mut self, peer: u64, cid: &Cid, evil: Vec<u8>) -> bool {
            let Some(block) = self.pinned[peer as usize].get_mut(cid) else {
                return false;
            };
            *block = Block::new_unchecked(*cid, evil);
            true
        }

        fn pinned_holders(&self, cid: &Cid) -> Vec<u64> {
            (0..self.pinned.len() as u64)
                .filter(|&p| self.pinned[p as usize].contains_key(cid))
                .collect()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The held table against the per-peer reference on one script of
        /// puts, pointer records, releases, reads, tampering and churn,
        /// each stack on its own identically seeded network: every call
        /// returns the same (objects, bytes, `FetchStats`, errors, release
        /// counts), and every block ever stored is pinned by the same peers.
        #[test]
        fn the_held_table_stores_as_a_map_per_peer_does(
            seed in 0u64..1_000,
            script in proptest::collection::vec(((0u8..10, 0u64..16), (any::<u64>(), any::<usize>())), 1..40),
        ) {
            let (mut net, mut dht, mut storage) = setup(16, seed);
            let (mut rnet, mut rdht, _) = setup(16, seed);
            let mut reference = Reference::new(16, StorageConfig::small());
            let names = [DhtKey::from_bytes(b"first"), DhtKey::from_bytes(b"second")];
            let base = random_data(1500);
            let mut edited = base.clone();
            edited.splice(700..700, b"an edit".iter().copied());
            let contents = [base, edited, sample_data(1200), Vec::new()];
            let mut roots: Vec<Cid> = Vec::new();
            // The roots put under each name, which its records mostly name.
            let mut names_put: [Vec<Cid>; 2] = [Vec::new(), Vec::new()];
            let mut versions = [0u64; 2];
            for ((op, peer), (pick, arg)) in script {
                let name = names[(pick % 2) as usize];
                let data = &contents[arg % contents.len()];
                let root = (!roots.is_empty()).then(|| roots[arg % roots.len()]);
                match op {
                    0 | 1 => {
                        let named = (op == 1).then_some(name);
                        let got = match named {
                            Some(name) => {
                                let encode = |buf: &mut Vec<u8>| buf.extend_from_slice(data);
                                storage.put_named_encoded(&mut net, &mut dht, peer, name, encode)
                            }
                            None => storage.put_object(&mut net, &mut dht, peer, data),
                        };
                        let want = reference.put((&mut rnet, &mut rdht), peer, data, named);
                        prop_assert_eq!(&got, &want);
                        if let Ok((obj, _)) = got {
                            roots.push(obj.root);
                            if named.is_some() {
                                names_put[(pick % 2) as usize].push(obj.root);
                            }
                        }
                    }
                    2 => {
                        let put = &names_put[(pick % 2) as usize];
                        let Some(root) = put.get(arg % put.len().max(1)).copied().or(root) else {
                            continue;
                        };
                        let version = &mut versions[(pick % 2) as usize];
                        *version += 1;
                        let pointer = root.0.as_bytes().to_vec();
                        let got = dht.put_record(&mut net, peer, name, pointer.clone(), *version);
                        let want = rdht.put_record(&mut rnet, peer, name, pointer, *version);
                        prop_assert_eq!(got.is_ok(), want.is_ok());
                    }
                    3 => {
                        let got = storage.release_unnamed(&mut dht, &name, root_of);
                        prop_assert_eq!(got, reference.release_unnamed(&mut rdht, &name));
                    }
                    4 => {
                        let Some(root) = root else { continue };
                        let got = storage.get_object(&mut net, &mut dht, peer, root);
                        let want = reference.get((&mut rnet, &mut rdht), peer, root);
                        prop_assert_eq!(got, want);
                    }
                    5 | 6 => {
                        let Some(root) = root else { continue };
                        let cids = match reference.block_on_peer(peer, &root) {
                            Some(m) => Manifest::decode(m.data()).map(|m| m.chunks).unwrap_or_default(),
                            None => Vec::new(),
                        };
                        let cid = std::iter::once(root).chain(cids).nth(pick as usize % 3).unwrap_or(root);
                        let evil = format!("evil {pick}").into_bytes();
                        // Mostly a peer that has a copy to tamper with.
                        let copies: Vec<u64> = (0..16)
                            .filter(|&p| match op {
                                5 => reference.pinned[p as usize].contains_key(&cid),
                                _ => reference.caches[p as usize].has(&cid),
                            })
                            .collect();
                        let peer = match copies.len() {
                            0 => peer,
                            n => copies[peer as usize % n],
                        };
                        if op == 5 {
                            let got = storage.corrupt_pinned(peer, &cid, evil.clone());
                            prop_assert_eq!(got, reference.corrupt_pinned(peer, &cid, evil));
                        } else {
                            let got = storage.corrupt_cached(peer, &cid, evil.clone());
                            let want = reference.caches[peer as usize].corrupt(&cid, evil);
                            prop_assert_eq!(got, want);
                        }
                    }
                    _ => {
                        net.set_online(peer, !net.is_online(peer));
                        rnet.set_online(peer, !rnet.is_online(peer));
                    }
                }
                for root in &roots {
                    let cids = match reference.pinned_holders(root).first() {
                        Some(&holder) => {
                            let manifest = reference.pinned[holder as usize][root].clone();
                            Manifest::decode(manifest.data()).map(|m| m.chunks).unwrap_or_default()
                        }
                        None => Vec::new(),
                    };
                    for cid in std::iter::once(*root).chain(cids) {
                        prop_assert_eq!(storage.pinned_holders(&cid), reference.pinned_holders(&cid));
                    }
                }
            }
        }
    }
}

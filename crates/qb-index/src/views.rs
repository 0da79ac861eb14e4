//! Decoded shards, shared while anyone holds them.
//!
//! Index content is immutable and named by what it is: a shard record's
//! value is one shared buffer — the origin, its replicas and every lookup
//! that finds the record hold it ([`qb_dht::Record::value`]) — and an
//! inline record's buffer *is* the shard's bytes, while a pointer record's
//! buffer names a root that every block [`qb_storage::StorageNetwork::get_object`]
//! returns is checked against. So the buffer identifies the decoded shard
//! exactly, and a read that finds a record some holder already decoded can
//! hand out that holder's `Arc` instead of parsing identical bytes again.
//!
//! [`ShardViews`] is that map, keyed by the buffer's address. Each view
//! keeps a handle onto the buffer, so it stays allocated and its address
//! cannot be reused by another record while the view exists; and each
//! view holds its shard weakly, so it lives exactly as long as some cache
//! tier, window read, segment or writer cache holds the shard. A read consults
//! the views only after its storage fetch ran in full: every message,
//! latency, cache fill and integrity check happens as without them, and
//! what a hit returns equals what decoding would (a debug build decodes
//! anyway and asserts it). It is host-side bookkeeping and moves nothing
//! simulated.

use crate::shard::ShardEntry;
use qb_common::{IdHashMap, QbResult};
use qb_dht::Record;
use std::sync::{Arc, Weak};

/// Fewest entries an [`AddressTable`] holds before it sweeps the dead
/// ones. Above it, a sweep runs once the table has doubled since the last
/// one, so sweeping costs amortized constant time per entry and the table
/// stays within twice its live entries (or this floor).
pub(crate) const SWEEP_FLOOR: usize = 64;

/// A table keyed by the address of an allocation each entry pins, whose
/// entries die with what they hold weakly: the [`ShardViews`] and the
/// [`crate::Impacts`] memo. An insert sweeps the dead entries first once
/// the table has doubled since the last sweep (see [`SWEEP_FLOOR`]).
#[derive(Debug)]
pub(crate) struct AddressTable<V> {
    entries: IdHashMap<V>,
    /// The table a sweep moves the live entries into, empty between sweeps.
    spare: IdHashMap<V>,
    /// Table size at which the next insert first sweeps dead entries.
    sweep_at: usize,
}

impl<V> Default for AddressTable<V> {
    fn default() -> Self {
        AddressTable {
            entries: IdHashMap::default(),
            spare: IdHashMap::default(),
            sweep_at: 0,
        }
    }
}

impl<V> AddressTable<V> {
    pub(crate) fn get(&self, key: u64) -> Option<&V> {
        self.entries.get(&key)
    }

    pub(crate) fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        self.entries.get_mut(&key)
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.values()
    }

    /// Insert `value` under `key`, first sweeping every entry `live` calls
    /// dead when the table is due.
    pub(crate) fn insert(&mut self, key: u64, value: V, live: impl Fn(&V) -> bool) {
        if self.entries.len() >= self.sweep_at {
            // The live entries move to the spare table and the drained one
            // becomes the spare. Removing in place would leave tombstones
            // where the keys (addresses) happened to fall, and they decide
            // when the table next grows: moving keeps both tables free of
            // them, so allocations repeat run to run.
            let kept = self.entries.drain().filter(|(_, value)| live(value));
            self.spare.extend(kept);
            std::mem::swap(&mut self.entries, &mut self.spare);
            self.sweep_at = (2 * self.entries.len()).max(SWEEP_FLOOR);
        }
        self.entries.insert(key, value);
    }
}

/// The decoded shards some holder still has, keyed by the record value
/// buffer each was decoded from. See the [module docs](self).
#[derive(Debug, Default)]
pub struct ShardViews {
    views: AddressTable<View>,
}

#[derive(Debug)]
struct View {
    /// The record value whose buffer keys the view: holding it keeps that
    /// address from being reused while the view exists.
    value: Arc<[u8]>,
    shard: Weak<ShardEntry>,
}

impl ShardViews {
    /// The shard `record` names, given the bytes it resolved to and the
    /// read verified: the record's own after its tag (inline), or the
    /// fetched object (pointer). A live view's shard is shared; otherwise
    /// the bytes are decoded and the result becomes the record's view.
    pub(crate) fn resolve(&mut self, record: &Record, bytes: &[u8]) -> QbResult<Arc<ShardEntry>> {
        if let Some(shard) = self.get(record) {
            // The decode the hit skips, re-run wherever tests run.
            debug_assert_eq!(ShardEntry::decode(bytes).as_ref(), Ok(&*shard));
            return Ok(shard);
        }
        let shard = Arc::new(ShardEntry::decode(bytes)?);
        self.insert(record.value.clone(), &shard);
        Ok(shard)
    }

    /// Register `shard` under `value`, the record value
    /// [`crate::DistributedIndex::write_shard`] returned for it: the next
    /// read that finds that record shares the writer's handle. Exact
    /// because decoding an encoded shard returns it unchanged.
    pub fn register_written(&mut self, value: Arc<[u8]>, shard: &Arc<ShardEntry>) {
        self.insert(value, shard);
    }

    /// Views in the map, dead ones not yet swept included.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True when the map holds no view.
    pub fn is_empty(&self) -> bool {
        self.views.len() == 0
    }

    /// Views whose shard some holder still has.
    pub fn live(&self) -> usize {
        let live = |view: &&View| view.shard.strong_count() > 0;
        self.views.values().filter(live).count()
    }

    fn get(&self, record: &Record) -> Option<Arc<ShardEntry>> {
        let view = self.views.get(key_of(&record.value))?;
        // Same start and same length: the very bytes, even were a buffer
        // ever sliced.
        if view.value.len() != record.value.len() {
            return None;
        }
        view.shard.upgrade()
    }

    fn insert(&mut self, value: Arc<[u8]>, shard: &Arc<ShardEntry>) {
        let shard = Arc::downgrade(shard);
        let live = |view: &View| view.shard.strong_count() > 0;
        self.views
            .insert(key_of(&value), View { value, shard }, live);
    }
}

/// The key of a record value's view: the address of its buffer (its length
/// is checked against the view's on a hit).
fn key_of(value: &[u8]) -> u64 {
    value.as_ptr() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{DistributedIndex, ReadStep, ShardPosting};
    use qb_common::DhtKey;
    use qb_dht::{DhtConfig, DhtNetwork};
    use qb_simnet::{NetConfig, SimNet};
    use qb_storage::{StorageConfig, StorageNetwork};

    struct World {
        net: SimNet,
        dht: DhtNetwork,
        storage: StorageNetwork,
        dist: DistributedIndex,
    }

    /// A 24-peer world holding `term`'s shard of `docs` postings, written
    /// from peer 0; at a 64-byte inline threshold, a shard of a few
    /// postings is inline and one of hundreds a pointer record.
    fn world(seed: u64, term: &str, docs: u64) -> World {
        let mut net = SimNet::new(24, NetConfig::lan(), seed);
        let mut dht = DhtNetwork::build(&mut net, DhtConfig::small());
        let mut storage = StorageNetwork::new(24, StorageConfig::small());
        let dist = DistributedIndex {
            inline_threshold: 64,
        };
        let mut shard = ShardEntry::empty(term);
        shard.version = 1;
        for doc_id in 0..docs {
            shard.upsert(ShardPosting {
                doc_id,
                term_freq: 1,
                doc_len: 10,
                name: format!("page/{doc_id}").into(),
                version: 1,
                creator: 7,
            });
        }
        dist.write_shard(&mut net, &mut dht, &mut storage, 0, &shard)
            .unwrap();
        World {
            net,
            dht,
            storage,
            dist,
        }
    }

    /// Read `term` from `peer` through `views`, driving the machine.
    fn read(w: &mut World, views: &mut ShardViews, peer: u64, term: &str) -> Arc<ShardEntry> {
        let at = w.net.now();
        let mut machine = w
            .dist
            .begin_read_shard_fresh(&mut w.net, &mut w.dht, peer, term, 0, at, None);
        let mut cursor = at;
        while let ReadStep::Pending { next_event_at } = w.dist.poll_read_shard(
            &mut w.net,
            &mut w.dht,
            &mut w.storage,
            views,
            &mut machine,
            term,
            cursor,
        ) {
            cursor = next_event_at;
        }
        machine.into_result().unwrap().0
    }

    #[test]
    fn a_re_read_of_an_unchanged_record_shares_the_first_reads_shard() {
        for (term, docs) in [("inline", 2), ("pointer", 200)] {
            let mut w = world(1, term, docs);
            let key = DhtKey::for_term(term);
            let record = w.dht.node(0).find_value(&key).unwrap();
            let pointer = crate::shard_pointer_root(&record.value).is_some();
            assert_eq!(pointer, docs > 2, "{term}");
            let mut views = ShardViews::default();
            let first = read(&mut w, &mut views, 11, term);
            let again = read(&mut w, &mut views, 17, term);
            assert!(Arc::ptr_eq(&first, &again), "{term}: decoded once");
            assert_eq!(views.live(), 1);
            let owned = w
                .dist
                .read_shard_fresh(&mut w.net, &mut w.dht, &mut w.storage, 5, term, 0)
                .unwrap()
                .0;
            assert_eq!(*first, owned, "{term}: what a decode returns");
        }
    }

    #[test]
    fn a_view_lives_as_long_as_a_holder_and_a_sweep_drops_the_dead() {
        let mut w = world(2, "brief", 2);
        let mut views = ShardViews::default();
        let first = read(&mut w, &mut views, 11, "brief");
        drop(first);
        assert_eq!((views.len(), views.live()), (1, 0));
        // Nobody held it: the next read decodes it again, and holds it.
        let held = read(&mut w, &mut views, 11, "brief");
        assert_eq!((views.len(), views.live()), (1, 1));
        // Views of records nobody holds are swept once the map reaches its
        // floor, so the map never passes it; the held shard's view stays.
        let record = w.dht.node(0).find_value(&DhtKey::for_term("brief"));
        let value = record.unwrap().value.to_vec();
        for i in 0..10 * SWEEP_FLOOR {
            let copy = Arc::from(value.clone());
            views.insert(copy, &Arc::new(ShardEntry::empty(&format!("t{i}"))));
            assert!(views.len() <= SWEEP_FLOOR, "{}", views.len());
        }
        assert_eq!(views.live(), 1);
        assert!(Arc::ptr_eq(&held, &read(&mut w, &mut views, 17, "brief")));
    }

    #[test]
    fn a_written_shard_is_what_the_first_read_of_its_record_returns() {
        let mut w = world(3, "fresh", 200);
        let mut views = ShardViews::default();
        let mut shard = ShardEntry::empty("fresh");
        shard.version = 2;
        shard.upsert(ShardPosting {
            doc_id: 1,
            term_freq: 3,
            doc_len: 5,
            name: "only/page".into(),
            version: 2,
            creator: 9,
        });
        let (_, value, _) = w
            .dist
            .write_shard(&mut w.net, &mut w.dht, &mut w.storage, 4, &shard)
            .unwrap();
        let written = Arc::new(shard);
        views.register_written(value, &written);
        let read_back = read(&mut w, &mut views, 13, "fresh");
        assert!(Arc::ptr_eq(&written, &read_back));
    }
}

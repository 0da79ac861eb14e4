//! The distributed inverted index: one shard per term, kept in the DHT /
//! decentralized storage and maintained by worker bees.
//!
//! A shard is self-contained: each posting carries the document length, page
//! name, version and creator, so the query frontend can score results from
//! the shards of the query terms plus one small global-statistics record,
//! without any central document table.
//!
//! Small shards are stored inline as DHT record values; large shards are
//! written to content-addressed storage with a versioned pointer record in
//! the DHT. Versions are monotonically increasing so replicas converge on
//! the newest shard (last-writer-wins), which is also the surface the
//! collusion attack of experiment E6 targets.

use crate::postings::{Posting, PostingList};
use crate::views::ShardViews;
use qb_common::{varint, Cid, DhtKey, Hash256, QbError, QbResult, SimDuration, SimInstant};
use qb_dht::{DhtNetwork, LookupMachine, LookupStep};
use qb_simnet::{Poll, RpcHandle, SimNet};
use qb_storage::StorageNetwork;
use qb_trace::SpanId;
use std::sync::Arc;

/// One posting within a shard, carrying everything needed for scoring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPosting {
    /// Document id (hash of the page name).
    pub doc_id: u64,
    /// Term frequency in the document.
    pub term_freq: u32,
    /// Document length in terms.
    pub doc_len: u32,
    /// Page name, shared by every copy of the posting: cloning a posting
    /// moves a refcount instead of allocating the name again.
    pub name: Arc<str>,
    /// Page version this posting reflects.
    pub version: u64,
    /// Creator account id.
    pub creator: u64,
}

/// A term's shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// The term this shard belongs to.
    pub term: String,
    /// Shard version (bumped on every write).
    pub version: u64,
    /// Postings sorted by doc id.
    pub postings: Vec<ShardPosting>,
}

impl ShardEntry {
    /// Empty shard for a term.
    pub fn empty(term: &str) -> ShardEntry {
        ShardEntry {
            term: term.to_string(),
            version: 0,
            postings: Vec::new(),
        }
    }

    /// Document frequency of the term.
    pub fn doc_freq(&self) -> usize {
        self.postings.len()
    }

    /// Insert or update a posting (only if the incoming version is >= the
    /// stored one, so stale re-indexing never overwrites fresher data).
    pub fn upsert(&mut self, posting: ShardPosting) {
        match self
            .postings
            .binary_search_by_key(&posting.doc_id, |p| p.doc_id)
        {
            Ok(i) => {
                if posting.version >= self.postings[i].version {
                    self.postings[i] = posting;
                }
            }
            Err(i) => self.postings.insert(i, posting),
        }
    }

    /// Remove a document from the shard.
    pub fn remove(&mut self, doc_id: u64) -> bool {
        match self.postings.binary_search_by_key(&doc_id, |p| p.doc_id) {
            Ok(i) => {
                self.postings.remove(i);
                true
            }
            Err(_) => false,
        }
    }

    /// Posting of a document, if present.
    pub fn get(&self, doc_id: u64) -> Option<&ShardPosting> {
        self.postings
            .binary_search_by_key(&doc_id, |p| p.doc_id)
            .ok()
            .map(|i| &self.postings[i])
    }

    /// The doc-id / term-frequency view of the shard as a [`PostingList`]
    /// (used for intersection in the frontend).
    pub fn to_posting_list(&self) -> PostingList {
        PostingList::from_postings(
            self.postings
                .iter()
                .map(|p| Posting {
                    doc_id: p.doc_id,
                    term_freq: p.term_freq,
                })
                .collect(),
        )
    }

    /// Exact byte length of [`ShardEntry::encode`]'s output, without
    /// serializing — for wire-cost accounting (e.g. gossip fill batches).
    pub fn encoded_len(&self) -> usize {
        let mut len = varint::encoded_len(self.term.len() as u64)
            + self.term.len()
            + varint::encoded_len(self.version)
            + varint::encoded_len(self.postings.len() as u64);
        let mut prev = 0u64;
        for p in &self.postings {
            len += varint::encoded_len(p.doc_id.wrapping_sub(prev));
            prev = p.doc_id;
            len += varint::encoded_len(p.term_freq as u64)
                + varint::encoded_len(p.doc_len as u64)
                + varint::encoded_len(p.version)
                + varint::encoded_len(p.creator)
                + varint::encoded_len(p.name.len() as u64)
                + p.name.len();
        }
        len
    }

    /// Serialize the shard.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.postings.len() * 32);
        self.encode_into(&mut out);
        out
    }

    /// Append [`ShardEntry::encode`]'s bytes to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        encode_str(&self.term, out);
        varint::encode_u64(self.version, out);
        varint::encode_u64(self.postings.len() as u64, out);
        let mut prev = 0u64;
        for p in &self.postings {
            varint::encode_u64(p.doc_id.wrapping_sub(prev), out);
            prev = p.doc_id;
            varint::encode_u64(p.term_freq as u64, out);
            varint::encode_u64(p.doc_len as u64, out);
            varint::encode_u64(p.version, out);
            varint::encode_u64(p.creator, out);
            encode_str(&p.name, out);
        }
    }

    /// Deserialize a shard.
    pub fn decode(data: &[u8]) -> QbResult<ShardEntry> {
        let (term, mut pos) = decode_str(data, 0)?;
        let (version, p) = varint::decode_u64(data, pos)?;
        pos = p;
        let (count, p) = varint::decode_u64(data, pos)?;
        pos = p;
        // The count comes off the wire: what is left of the input bounds it,
        // and with it the reservation below.
        let remaining = data.len() - pos;
        if count > (remaining / MIN_POSTING_BYTES) as u64 {
            return Err(QbError::Codec(format!(
                "shard claims {count} postings in {remaining} bytes"
            )));
        }
        let mut postings = Vec::with_capacity(count as usize);
        let mut doc_id = 0u64;
        for _ in 0..count {
            let (delta, p) = varint::decode_u64(data, pos)?;
            doc_id = doc_id.wrapping_add(delta);
            let (tf, p) = varint::decode_u64(data, p)?;
            let (dl, p) = varint::decode_u64(data, p)?;
            let (ver, p) = varint::decode_u64(data, p)?;
            let (creator, p) = varint::decode_u64(data, p)?;
            let (name, p) = decode_str_ref(data, p)?;
            pos = p;
            postings.push(ShardPosting {
                doc_id,
                term_freq: tf.min(u32::MAX as u64) as u32,
                doc_len: dl.min(u32::MAX as u64) as u32,
                name: Arc::from(name),
                version: ver,
                creator,
            });
        }
        if pos != data.len() {
            return Err(QbError::Codec("trailing bytes after shard".into()));
        }
        Ok(ShardEntry {
            term,
            version,
            postings,
        })
    }
}

/// Fewest bytes one encoded posting takes: five one-byte varints and the
/// length byte of an empty name.
const MIN_POSTING_BYTES: usize = 6;

fn encode_str(s: &str, out: &mut Vec<u8>) {
    varint::encode_u64(s.len() as u64, out);
    out.extend_from_slice(s.as_bytes());
}

fn decode_str(data: &[u8], pos: usize) -> QbResult<(String, usize)> {
    decode_str_ref(data, pos).map(|(s, end)| (s.to_owned(), end))
}

/// A length-prefixed UTF-8 string borrowed from `data` at `pos`, and the
/// position after it.
fn decode_str_ref(data: &[u8], pos: usize) -> QbResult<(&str, usize)> {
    let (len, p) = varint::decode_u64(data, pos)?;
    let end = usize::try_from(len)
        .ok()
        .and_then(|len| p.checked_add(len))
        .filter(|&end| end <= data.len())
        .ok_or_else(|| QbError::Codec("truncated string".into()))?;
    let s =
        std::str::from_utf8(&data[p..end]).map_err(|_| QbError::Codec("invalid utf-8".into()))?;
    Ok((s, end))
}

/// Global collection statistics needed by BM25, stored as a small DHT record.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of indexed documents.
    pub num_docs: u64,
    /// Sum of document lengths.
    pub total_len: u64,
    /// Version of the statistics record.
    pub version: u64,
}

impl IndexStats {
    /// Average document length (1.0 when empty).
    pub fn avg_len(&self) -> f64 {
        if self.num_docs == 0 {
            1.0
        } else {
            self.total_len as f64 / self.num_docs as f64
        }
    }

    /// Serialize.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(24);
        varint::encode_u64(self.num_docs, &mut out);
        varint::encode_u64(self.total_len, &mut out);
        varint::encode_u64(self.version, &mut out);
        out
    }

    /// Deserialize.
    pub fn decode(data: &[u8]) -> QbResult<IndexStats> {
        let (num_docs, p) = varint::decode_u64(data, 0)?;
        let (total_len, p) = varint::decode_u64(data, p)?;
        let (version, p) = varint::decode_u64(data, p)?;
        if p != data.len() {
            return Err(QbError::Codec("trailing bytes after index stats".into()));
        }
        Ok(IndexStats {
            num_docs,
            total_len,
            version,
        })
    }
}

/// Cost accounting of a distributed index operation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexOpCost {
    /// End-to-end latency.
    pub latency: SimDuration,
    /// RPC attempts issued.
    pub messages: u64,
}

impl IndexOpCost {
    /// Accumulate another operation's cost.
    pub fn add(&mut self, latency: SimDuration, messages: u64) {
        self.latency += latency;
        self.messages += messages;
    }
}

const SHARD_INLINE_TAG: u8 = 1;
const SHARD_POINTER_TAG: u8 = 2;

/// The root a shard record's value names: the object of a pointer record,
/// none for an inline shard (or a value that is neither).
pub fn shard_pointer_root(value: &[u8]) -> Option<Cid> {
    match value.split_first() {
        Some((&SHARD_POINTER_TAG, root)) => {
            let root = <[u8; 32]>::try_from(root).ok()?;
            Some(Cid(Hash256::from_bytes(root)))
        }
        _ => None,
    }
}

/// What a poll of an event-driven index read observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadStep {
    /// Work remains in flight; the next event is due at `next_event_at`.
    Pending {
        /// Instant of the next completion — poll again at (or after) it.
        next_event_at: SimInstant,
    },
    /// The read has finished; take the result with `into_result`.
    Ready,
}

#[derive(Debug)]
enum ReadState<T> {
    /// The DHT value lookup is in flight.
    Lookup(Box<LookupMachine>),
    /// The record is decoded. A pointer record's content-addressed fetch may
    /// still occupy the reader's uplink (`tail`) until `completed_at`.
    Done {
        result: QbResult<T>,
        completed_at: SimInstant,
        tail: Option<RpcHandle>,
    },
}

impl<T> ReadState<T> {
    fn done(result: QbResult<T>, completed_at: SimInstant) -> ReadState<T> {
        ReadState::Done {
            result,
            completed_at,
            tail: None,
        }
    }
}

/// An in-progress read of one index record, decoded to a `T`: a DHT value
/// lookup, optionally followed by a content-addressed storage fetch (shard
/// pointer records). Create with [`DistributedIndex::begin_read_shard_fresh`]
/// or [`DistributedIndex::begin_read_stats`], drive with the matching
/// `poll_read_*`.
#[derive(Debug)]
pub struct ReadMachine<T> {
    peer: u64,
    issued_at: SimInstant,
    parent: Option<SpanId>,
    state: ReadState<T>,
    cost: IndexOpCost,
    queue_delay: SimDuration,
}

impl<T> ReadMachine<T> {
    /// Queueing delay accumulated on the reader's uplink so far.
    pub fn queue_delay(&self) -> SimDuration {
        self.queue_delay
    }

    /// The decoded value, the service cost (lookup + fetch latency, RPC
    /// attempts) and the wall-clock completion instant (which additionally
    /// includes any uplink queueing). An error unless the last poll
    /// returned [`ReadStep::Ready`].
    pub fn into_result(self) -> QbResult<(T, IndexOpCost, SimInstant)> {
        match self.state {
            ReadState::Done {
                result,
                completed_at,
                tail: None,
            } => Ok((result?, self.cost, completed_at)),
            _ => Err(QbError::Query(
                "index read not finished; poll until Ready".into(),
            )),
        }
    }

    /// Retire anything still in flight without processing it.
    pub fn abandon(&mut self, net: &mut SimNet) {
        match &mut self.state {
            ReadState::Lookup(lookup) => lookup.abandon(net),
            ReadState::Done {
                completed_at, tail, ..
            } => {
                if let Some(handle) = tail.take() {
                    net.poll_complete(handle, *completed_at);
                }
            }
        }
    }
}

/// Read/write interface to the DHT-sharded index.
#[derive(Debug, Clone)]
pub struct DistributedIndex {
    /// Shards whose encoded size is at most this many bytes are stored inline
    /// in the DHT record; larger shards go to content-addressed storage.
    pub inline_threshold: usize,
}

impl Default for DistributedIndex {
    fn default() -> Self {
        DistributedIndex {
            inline_threshold: 2048,
        }
    }
}

impl DistributedIndex {
    /// DHT key of the global statistics record: the SHA-256 of
    /// `idx:@stats`, spelled out so a read does not hash a constant.
    pub const fn stats_key() -> DhtKey {
        DhtKey(Hash256([
            0x2c, 0xbd, 0xf9, 0x1f, 0x3e, 0x49, 0x09, 0x60, 0xa1, 0xb8, 0xe7, 0xaa, 0x33, 0x62,
            0x0f, 0x44, 0x9d, 0x59, 0xbb, 0x08, 0xa4, 0xf3, 0x38, 0x75, 0xda, 0xd0, 0x97, 0xb0,
            0x79, 0x92, 0x27, 0x4c,
        ]))
    }

    /// Read the shard of `term` as seen from `peer`. A missing shard is
    /// returned as an empty shard (version 0), not an error. A replica older
    /// than `min_version` does not satisfy the lookup: the DHT digs past lagging
    /// replicas (read-repair semantics), so a caller that has already seen
    /// `min_version` of this term never reads the index backwards in time.
    ///
    /// It returns an owned copy the caller may change (the writer path
    /// does), so it bypasses the [`ShardViews`] and always decodes: a timed
    /// call of it times a decode.
    pub fn read_shard_fresh(
        &self,
        net: &mut SimNet,
        dht: &mut DhtNetwork,
        storage: &mut StorageNetwork,
        peer: u64,
        term: &str,
        min_version: u64,
    ) -> QbResult<(ShardEntry, IndexOpCost)> {
        let at = net.now();
        let key = DhtKey::for_term(term);
        let machine = begin_read(net, dht, peer, key, min_version, at, None);
        let owned = |_: &qb_dht::Record, bytes: &[u8]| ShardEntry::decode(bytes);
        let step = |machine: &mut ReadMachine<ShardEntry>, cursor| {
            poll_read(net, dht, machine, cursor, |net, dht, m, record, done| {
                decode_shard_record(net, dht, storage, m, term, record, done, owned)
            })
        };
        drive(machine, at, step)
    }

    /// Start an event-driven shard read at virtual instant `at` (trace
    /// spans nest under `parent`). Drive with
    /// [`DistributedIndex::poll_read_shard`]; the synchronous
    /// [`DistributedIndex::read_shard_fresh`] drives the same lookup and
    /// fetch eagerly, so there is exactly one read code path.
    #[allow(clippy::too_many_arguments)]
    pub fn begin_read_shard_fresh(
        &self,
        net: &mut SimNet,
        dht: &mut DhtNetwork,
        peer: u64,
        term: &str,
        min_version: u64,
        at: SimInstant,
        parent: Option<SpanId>,
    ) -> ReadMachine<Arc<ShardEntry>> {
        begin_read(
            net,
            dht,
            peer,
            DhtKey::for_term(term),
            min_version,
            at,
            parent,
        )
    }

    /// Advance the read of `term`'s shard at instant `at` (`term` as given
    /// to `begin_read_shard_fresh`: the machine does not keep a copy). On
    /// the lookup finishing, an inline shard completes immediately; a
    /// pointer record charges the content-addressed fetch and tracks it as
    /// an in-flight tail operation on the reader's uplink, so concurrent
    /// reads contend realistically. Once the record and any fetch are in
    /// hand, the shard is the one `views` holds for that record, decoded
    /// only when no holder has it.
    #[allow(clippy::too_many_arguments)]
    pub fn poll_read_shard(
        &self,
        net: &mut SimNet,
        dht: &mut DhtNetwork,
        storage: &mut StorageNetwork,
        views: &mut ShardViews,
        machine: &mut ReadMachine<Arc<ShardEntry>>,
        term: &str,
        at: SimInstant,
    ) -> ReadStep {
        let shared = |record: &qb_dht::Record, bytes: &[u8]| views.resolve(record, bytes);
        poll_read(net, dht, machine, at, |net, dht, machine, record, done| {
            decode_shard_record(net, dht, storage, machine, term, record, done, shared)
        })
    }

    /// Write a shard from `peer`. The caller must have bumped
    /// `entry.version`; replicas only accept newer versions. A shard too
    /// large to inline is a storage object the record names; once no copy
    /// of the term's record names an earlier version's object any more,
    /// that object is unpinned. Returns the cost, the record value put —
    /// the buffer every replica's copy shares (what
    /// [`ShardViews::register_written`] keys the written shard by) — and
    /// the shard's [`ShardEntry::encoded_len`], measured once here.
    pub fn write_shard(
        &self,
        net: &mut SimNet,
        dht: &mut DhtNetwork,
        storage: &mut StorageNetwork,
        peer: u64,
        entry: &ShardEntry,
    ) -> QbResult<(IndexOpCost, Arc<[u8]>, usize)> {
        let mut cost = IndexOpCost::default();
        let key = DhtKey::for_term(&entry.term);
        let len = entry.encoded_len();
        // Either way the shard is encoded into the storage network's kept
        // buffer, and the value put is the one allocation a record needs.
        let value = if len <= self.inline_threshold {
            // The tag, then the shard encoded straight behind it.
            storage.encode_shared(|v| {
                v.push(SHARD_INLINE_TAG);
                entry.encode_into(v);
            })
        } else {
            let encode = |buf: &mut Vec<u8>| entry.encode_into(buf);
            let (obj, put) = storage.put_named_encoded(net, dht, peer, key, encode)?;
            cost.add(put.latency, put.messages);
            let mut pointer = [SHARD_POINTER_TAG; 33];
            pointer[1..].copy_from_slice(obj.root.0.as_bytes());
            Arc::from(&pointer[..])
        };
        let put = dht.put_record(net, peer, key, value.clone(), entry.version)?;
        cost.add(put.latency, put.messages);
        storage.release_unnamed(dht, &key, shard_pointer_root);
        Ok((cost, value, len))
    }

    /// Read the global statistics record (zero stats when absent).
    pub fn read_stats(
        &self,
        net: &mut SimNet,
        dht: &mut DhtNetwork,
        peer: u64,
    ) -> QbResult<(IndexStats, IndexOpCost)> {
        let at = net.now();
        let machine = self.begin_read_stats(net, dht, peer, at, None);
        drive(machine, at, |machine, cursor| {
            self.poll_read_stats(net, dht, machine, cursor)
        })
    }

    /// Start an event-driven read of the global statistics record at
    /// virtual instant `at` (trace spans nest under `parent`).
    pub fn begin_read_stats(
        &self,
        net: &mut SimNet,
        dht: &mut DhtNetwork,
        peer: u64,
        at: SimInstant,
        parent: Option<SpanId>,
    ) -> ReadMachine<IndexStats> {
        begin_read(net, dht, peer, Self::stats_key(), 0, at, parent)
    }

    /// Advance a statistics read at instant `at`.
    pub fn poll_read_stats(
        &self,
        net: &mut SimNet,
        dht: &mut DhtNetwork,
        machine: &mut ReadMachine<IndexStats>,
        at: SimInstant,
    ) -> ReadStep {
        poll_read(net, dht, machine, at, |_, _, _, record, done| {
            let stats = record.map_or(Ok(IndexStats::default()), |r| IndexStats::decode(&r.value));
            ReadState::done(stats, done)
        })
    }

    /// Write the global statistics record.
    pub fn write_stats(
        &self,
        net: &mut SimNet,
        dht: &mut DhtNetwork,
        peer: u64,
        stats: &IndexStats,
    ) -> QbResult<IndexOpCost> {
        let mut cost = IndexOpCost::default();
        let put = dht.put_record(net, peer, Self::stats_key(), stats.encode(), stats.version)?;
        cost.add(put.latency, put.messages);
        Ok(cost)
    }
}

/// Start the lookup of `key` from `peer` at `at`; an offline reader fails
/// on the spot.
fn begin_read<T>(
    net: &mut SimNet,
    dht: &mut DhtNetwork,
    peer: u64,
    key: DhtKey,
    min_version: u64,
    at: SimInstant,
    parent: Option<SpanId>,
) -> ReadMachine<T> {
    let state = if net.is_online(peer) {
        let lookup = dht.lookup_begin(net, peer, key.0, Some(key), min_version, at, parent);
        ReadState::Lookup(Box::new(lookup))
    } else {
        ReadState::done(Err(QbError::NodeOffline(peer)), at)
    };
    ReadMachine {
        peer,
        issued_at: at,
        parent,
        state,
        cost: IndexOpCost::default(),
        queue_delay: SimDuration::ZERO,
    }
}

/// Advance a read at instant `at`. When the lookup finishes, `decode` turns
/// the record it returned (and the instant it returned at) into the next
/// state: a finished value, or one whose storage tail is still in flight.
fn poll_read<T>(
    net: &mut SimNet,
    dht: &mut DhtNetwork,
    machine: &mut ReadMachine<T>,
    at: SimInstant,
    decode: impl FnOnce(
        &mut SimNet,
        &mut DhtNetwork,
        &mut ReadMachine<T>,
        Option<qb_dht::Record>,
        SimInstant,
    ) -> ReadState<T>,
) -> ReadStep {
    if let ReadState::Lookup(lookup) = &mut machine.state {
        if let LookupStep::Pending { next_event_at } = dht.lookup_poll(net, lookup, at) {
            return ReadStep::Pending { next_event_at };
        }
        // The finished lookup stays in place until its successor is built.
        machine.state = match lookup.take_result() {
            Some((outcome, record)) => {
                machine.cost.add(outcome.latency, outcome.messages);
                machine.queue_delay += outcome.queue_delay;
                let lookup_done = machine.issued_at + outcome.latency;
                decode(net, dht, machine, record, lookup_done)
            }
            None => {
                let lost = QbError::Query("lookup ready without a result".into());
                ReadState::done(Err(lost), machine.issued_at)
            }
        };
    }
    if let ReadState::Done {
        completed_at,
        tail: tail @ Some(_),
        ..
    } = &mut machine.state
    {
        if at < *completed_at {
            return ReadStep::Pending {
                next_event_at: *completed_at,
            };
        }
        let retired = tail
            .take()
            .and_then(|h| net.poll_complete(h, *completed_at));
        if let Some(Poll::Ready(done)) = retired {
            machine.queue_delay += done.queue_delay;
            *completed_at = done.completed_at;
        }
    }
    ReadStep::Ready
}

/// Drive a read to completion from `at`, jumping from event to event —
/// what the blocking reads do with the same machine the pipeline polls.
fn drive<T>(
    mut machine: ReadMachine<T>,
    at: SimInstant,
    mut poll: impl FnMut(&mut ReadMachine<T>, SimInstant) -> ReadStep,
) -> QbResult<(T, IndexOpCost)> {
    let mut cursor = at;
    while let ReadStep::Pending { next_event_at } = poll(&mut machine, cursor) {
        cursor = next_event_at;
    }
    let (value, cost, _) = machine.into_result()?;
    Ok((value, cost))
}

/// Turn the record a finished shard lookup returned into the next machine
/// state: empty shard (missing record), inline shard, or a tracked
/// in-flight storage fetch for a pointer record. `shard` makes the value
/// from the record and the bytes it resolved to — the record's own after
/// its tag, or the object the fetch verified — once nothing is left to
/// fetch.
#[allow(clippy::too_many_arguments)]
fn decode_shard_record<T: From<ShardEntry>>(
    net: &mut SimNet,
    dht: &mut DhtNetwork,
    storage: &mut StorageNetwork,
    machine: &mut ReadMachine<T>,
    term: &str,
    record: Option<qb_dht::Record>,
    lookup_done: SimInstant,
    shard: impl FnOnce(&qb_dht::Record, &[u8]) -> QbResult<T>,
) -> ReadState<T> {
    let Some(record) = record else {
        return ReadState::done(Ok(ShardEntry::empty(term).into()), lookup_done);
    };
    let value = &record.value;
    match value.first() {
        Some(&SHARD_INLINE_TAG) => ReadState::done(shard(&record, &value[1..]), lookup_done),
        Some(&SHARD_POINTER_TAG) => {
            let Some(cid) = shard_pointer_root(value) else {
                let bad = QbError::Codec("bad shard pointer record".into());
                return ReadState::done(Err(bad), lookup_done);
            };
            let (bytes, fetch) = match storage.get_object(net, dht, machine.peer, cid) {
                Ok(fetched) => fetched,
                Err(e) => return ReadState::done(Err(e), lookup_done),
            };
            machine.cost.add(fetch.latency, fetch.messages);
            let fetched_at = lookup_done + fetch.latency;
            let shard = match shard(&record, &bytes) {
                Ok(shard) => shard,
                Err(e) => return ReadState::done(Err(e), fetched_at),
            };
            let handle =
                net.begin_async_op(machine.peer, lookup_done, fetch.latency, machine.parent);
            match net.async_completes_at(handle) {
                Some(completed_at) => ReadState::Done {
                    result: Ok(shard),
                    completed_at,
                    tail: Some(handle),
                },
                None => {
                    let lost = QbError::Network("storage fetch left no operation in flight".into());
                    ReadState::done(Err(lost), fetched_at)
                }
            }
        }
        _ => ReadState::done(
            Err(QbError::Codec("unknown shard record tag".into())),
            lookup_done,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qb_dht::DhtConfig;
    use qb_simnet::NetConfig;
    use qb_storage::StorageConfig;

    fn posting(doc: u64, tf: u32, name: &str) -> ShardPosting {
        ShardPosting {
            doc_id: doc,
            term_freq: tf,
            doc_len: 100,
            name: name.into(),
            version: 1,
            creator: 42,
        }
    }

    #[test]
    fn shard_upsert_respects_versions() {
        let mut shard = ShardEntry::empty("honey");
        shard.upsert(posting(5, 3, "p/a"));
        shard.upsert(posting(2, 1, "p/b"));
        assert_eq!(shard.doc_freq(), 2);
        assert_eq!(shard.postings[0].doc_id, 2);
        // Older version does not overwrite.
        let mut stale = posting(5, 99, "p/a");
        stale.version = 0;
        shard.upsert(stale);
        assert_eq!(shard.get(5).unwrap().term_freq, 3);
        // Newer version does.
        let mut fresh = posting(5, 7, "p/a");
        fresh.version = 2;
        shard.upsert(fresh);
        assert_eq!(shard.get(5).unwrap().term_freq, 7);
        assert!(shard.remove(2));
        assert!(!shard.remove(2));
    }

    #[test]
    fn shard_encode_decode_round_trip() {
        let mut shard = ShardEntry::empty("decentralized");
        shard.version = 3;
        for i in 0..50u64 {
            shard.upsert(posting(i * 17, (i % 5) as u32 + 1, &format!("page/{i}")));
        }
        let encoded = shard.encode();
        assert_eq!(ShardEntry::decode(&encoded).unwrap(), shard);
        assert_eq!(shard.encoded_len(), encoded.len());
        assert_eq!(
            ShardEntry::empty("t").encoded_len(),
            ShardEntry::empty("t").encode().len()
        );
    }

    #[test]
    fn shard_decode_rejects_garbage() {
        assert!(ShardEntry::decode(&[]).is_err());
        let mut good = ShardEntry::empty("t").encode();
        good.push(9);
        assert!(ShardEntry::decode(&good).is_err());
    }

    #[test]
    fn a_cloned_shard_shares_every_posting_name() {
        let mut shard = ShardEntry::empty("honey");
        for i in 0..8u64 {
            shard.upsert(posting(i, 1, &format!("page/{i}")));
        }
        let copy = shard.clone();
        assert_eq!(copy, shard);
        for (a, b) in shard.postings.iter().zip(&copy.postings) {
            assert!(Arc::ptr_eq(&a.name, &b.name), "{}", a.name);
        }
    }

    #[test]
    fn decode_refuses_a_name_that_is_not_utf8_and_keeps_multibyte_names() {
        let mut shard = ShardEntry::empty("t");
        shard.upsert(posting(1, 1, "ab"));
        let mut bad = shard.encode();
        // The one posting's name is the encoding's last two bytes.
        *bad.last_mut().unwrap() = 0xff;
        assert!(ShardEntry::decode(&bad).is_err());

        shard.upsert(posting(2, 1, "wiki/straße/蜜蜂/🐝"));
        let decoded = ShardEntry::decode(&shard.encode()).unwrap();
        assert_eq!(&*decoded.get(2).unwrap().name, "wiki/straße/蜜蜂/🐝");
        assert_eq!(decoded, shard);
    }

    #[test]
    fn stats_round_trip_and_avg() {
        let s = IndexStats {
            num_docs: 10,
            total_len: 1500,
            version: 2,
        };
        assert_eq!(IndexStats::decode(&s.encode()).unwrap(), s);
        assert!((s.avg_len() - 150.0).abs() < 1e-9);
        assert_eq!(IndexStats::default().avg_len(), 1.0);
    }

    #[test]
    fn the_stats_key_literal_is_its_digest() {
        assert_eq!(
            DistributedIndex::stats_key(),
            DhtKey(Hash256::digest(b"idx:@stats"))
        );
    }

    #[test]
    fn to_posting_list_preserves_docs() {
        let mut shard = ShardEntry::empty("t");
        shard.upsert(posting(9, 2, "a"));
        shard.upsert(posting(3, 1, "b"));
        let pl = shard.to_posting_list();
        assert_eq!(pl.len(), 2);
        assert_eq!(pl.get(9), Some(2));
    }

    /// Unicode text from raw draws: each draw's top two bits pick a one-,
    /// two-, three- or four-byte UTF-8 width, the rest a code point below it
    /// (a surrogate becomes U+FFFD).
    fn text(draws: &[u32]) -> String {
        let below = [0x80, 0x800, 0x1_0000, 0x11_0000];
        let point = |d: u32| char::from_u32((d & 0x3fff_ffff) % below[(d >> 30) as usize]);
        draws
            .iter()
            .map(|&d| point(d).unwrap_or('\u{fffd}'))
            .collect()
    }

    fn setup(n: usize, seed: u64) -> (SimNet, DhtNetwork, StorageNetwork) {
        let mut net = SimNet::new(n, NetConfig::lan(), seed);
        let dht = DhtNetwork::build(&mut net, DhtConfig::small());
        let storage = StorageNetwork::new(n, StorageConfig::small());
        (net, dht, storage)
    }

    #[test]
    fn distributed_small_shard_round_trips_inline() {
        let (mut net, mut dht, mut storage) = setup(24, 1);
        let dist = DistributedIndex::default();
        let mut shard = ShardEntry::empty("nectar");
        shard.version = 1;
        shard.upsert(posting(1, 2, "p/one"));
        dist.write_shard(&mut net, &mut dht, &mut storage, 3, &shard)
            .unwrap();
        let (read, cost) = dist
            .read_shard_fresh(&mut net, &mut dht, &mut storage, 11, "nectar", 0)
            .unwrap();
        assert_eq!(read, shard);
        assert!(cost.messages > 0);
    }

    #[test]
    fn an_inline_shard_record_is_its_tag_then_the_encoding() {
        let (mut net, mut dht, mut storage) = setup(24, 1);
        let dist = DistributedIndex::default();
        let mut shard = ShardEntry::empty("propolis");
        shard.version = 2;
        for i in 0..6u64 {
            shard.upsert(posting(i * 3, 1, &format!("wiki/蜂/{i}")));
        }
        assert!(shard.encoded_len() <= dist.inline_threshold);
        dist.write_shard(&mut net, &mut dht, &mut storage, 3, &shard)
            .unwrap();
        // The writer keeps its own copy of the record it put.
        let key = DhtKey::for_term("propolis");
        let record = dht.node(3).find_value(&key).unwrap();
        let mut expected = vec![SHARD_INLINE_TAG];
        expected.extend(shard.encode());
        assert_eq!(&record.value[..], &expected[..]);
    }

    #[test]
    fn distributed_large_shard_spills_to_storage() {
        let (mut net, mut dht, mut storage) = setup(24, 2);
        let dist = DistributedIndex {
            inline_threshold: 64,
        };
        let mut shard = ShardEntry::empty("common");
        shard.version = 1;
        for i in 0..200u64 {
            shard.upsert(posting(i, 1, &format!("page/number/{i}")));
        }
        assert!(shard.encode().len() > 64);
        dist.write_shard(&mut net, &mut dht, &mut storage, 0, &shard)
            .unwrap();
        let (read, _) = dist
            .read_shard_fresh(&mut net, &mut dht, &mut storage, 17, "common", 0)
            .unwrap();
        assert_eq!(read, shard);
    }

    #[test]
    fn missing_shard_reads_as_empty() {
        let (mut net, mut dht, mut storage) = setup(16, 3);
        let dist = DistributedIndex::default();
        let (shard, _) = dist
            .read_shard_fresh(&mut net, &mut dht, &mut storage, 2, "neverwritten", 0)
            .unwrap();
        assert_eq!(shard.version, 0);
        assert!(shard.postings.is_empty());
    }

    #[test]
    fn newer_shard_version_wins() {
        let (mut net, mut dht, mut storage) = setup(24, 4);
        let dist = DistributedIndex::default();
        let mut v1 = ShardEntry::empty("fresh");
        v1.version = 1;
        v1.upsert(posting(1, 1, "old/page"));
        dist.write_shard(&mut net, &mut dht, &mut storage, 1, &v1)
            .unwrap();
        let mut v2 = v1.clone();
        v2.version = 2;
        v2.upsert(posting(2, 5, "new/page"));
        dist.write_shard(&mut net, &mut dht, &mut storage, 5, &v2)
            .unwrap();
        let (read, _) = dist
            .read_shard_fresh(&mut net, &mut dht, &mut storage, 20, "fresh", 0)
            .unwrap();
        assert_eq!(read.version, 2);
        assert_eq!(read.doc_freq(), 2);
    }

    #[test]
    fn stats_read_write_round_trip() {
        let (mut net, mut dht, mut storage) = setup(16, 5);
        let _ = &mut storage;
        let dist = DistributedIndex::default();
        let (empty, _) = dist.read_stats(&mut net, &mut dht, 0).unwrap();
        assert_eq!(empty.num_docs, 0);
        let stats = IndexStats {
            num_docs: 42,
            total_len: 8400,
            version: 1,
        };
        dist.write_stats(&mut net, &mut dht, 3, &stats).unwrap();
        let (read, _) = dist.read_stats(&mut net, &mut dht, 12).unwrap();
        assert_eq!(read, stats);
    }

    /// A shard over the 64-byte inline threshold of [`spilling`], so its
    /// record is a pointer and a read of it has a storage tail.
    fn large_shard(term: &str) -> ShardEntry {
        let mut shard = ShardEntry::empty(term);
        shard.version = 1;
        for i in 0..200u64 {
            shard.upsert(posting(i, 1, &format!("page/number/{i}")));
        }
        shard
    }

    fn spilling() -> DistributedIndex {
        DistributedIndex {
            inline_threshold: 64,
        }
    }

    #[test]
    fn a_read_abandoned_mid_lookup_leaves_nothing_in_flight() {
        let (mut net, mut dht, mut storage) = setup(24, 6);
        let dist = DistributedIndex::default();
        let mut shard = ShardEntry::empty("nectar");
        shard.version = 1;
        shard.upsert(posting(1, 2, "p/one"));
        dist.write_shard(&mut net, &mut dht, &mut storage, 3, &shard)
            .unwrap();
        let at = net.now();
        let mut views = ShardViews::default();
        let mut read = dist.begin_read_shard_fresh(&mut net, &mut dht, 11, "nectar", 0, at, None);
        let step = dist.poll_read_shard(
            &mut net,
            &mut dht,
            &mut storage,
            &mut views,
            &mut read,
            "nectar",
            at,
        );
        assert!(matches!(step, ReadStep::Pending { .. }));
        assert!(net.async_in_flight() > 0, "the first hops are on the wire");
        read.abandon(&mut net);
        assert_eq!(net.async_in_flight(), 0);

        let mut read = dist.begin_read_stats(&mut net, &mut dht, 11, at, None);
        let step = dist.poll_read_stats(&mut net, &mut dht, &mut read, at);
        assert!(matches!(step, ReadStep::Pending { .. }));
        assert!(net.async_in_flight() > 0);
        read.abandon(&mut net);
        assert_eq!(net.async_in_flight(), 0);
    }

    #[test]
    fn a_pointer_read_abandoned_mid_tail_leaves_nothing_in_flight() {
        let (mut net, mut dht, mut storage) = setup(24, 7);
        let dist = spilling();
        dist.write_shard(&mut net, &mut dht, &mut storage, 0, &large_shard("common"))
            .unwrap();
        let at = net.now();
        let mut read = dist.begin_read_shard_fresh(&mut net, &mut dht, 17, "common", 0, at, None);
        let mut views = ShardViews::default();
        let mut cursor = at;
        while !matches!(read.state, ReadState::Done { tail: Some(_), .. }) {
            match dist.poll_read_shard(
                &mut net,
                &mut dht,
                &mut storage,
                &mut views,
                &mut read,
                "common",
                cursor,
            ) {
                ReadStep::Pending { next_event_at } => cursor = next_event_at,
                ReadStep::Ready => panic!("a pointer read finished without a tail"),
            }
        }
        assert_eq!(net.async_in_flight(), 1, "only the storage tail is left");
        read.abandon(&mut net);
        assert_eq!(net.async_in_flight(), 0);
    }

    #[test]
    fn an_offline_origin_fails_reads_at_the_issue_instant() {
        let (mut net, mut dht, mut storage) = setup(16, 8);
        let dist = DistributedIndex::default();
        net.set_online(5, false);
        let issued_before = net.stats().async_ops;
        let at = net.now() + SimDuration::from_millis(3);
        let mut read = dist.begin_read_shard_fresh(&mut net, &mut dht, 5, "any", 0, at, None);
        let mut views = ShardViews::default();
        let step = dist.poll_read_shard(
            &mut net,
            &mut dht,
            &mut storage,
            &mut views,
            &mut read,
            "any",
            at,
        );
        assert_eq!(step, ReadStep::Ready);
        assert!(matches!(read.state, ReadState::Done { completed_at, .. } if completed_at == at));
        assert!(matches!(read.into_result(), Err(QbError::NodeOffline(5))));

        let mut read = dist.begin_read_stats(&mut net, &mut dht, 5, at, None);
        assert_eq!(
            dist.poll_read_stats(&mut net, &mut dht, &mut read, at),
            ReadStep::Ready
        );
        assert!(matches!(read.state, ReadState::Done { completed_at, .. } if completed_at == at));
        assert!(matches!(read.into_result(), Err(QbError::NodeOffline(5))));
        assert_eq!(net.stats().async_ops, issued_before, "nothing was issued");
        assert!(matches!(
            dist.read_shard_fresh(&mut net, &mut dht, &mut storage, 5, "any", 0),
            Err(QbError::NodeOffline(5))
        ));
        assert!(matches!(
            dist.read_stats(&mut net, &mut dht, 5),
            Err(QbError::NodeOffline(5))
        ));
    }

    #[test]
    fn the_event_driven_drive_equals_the_blocking_read() {
        // Two identically seeded worlds: one reads with the blocking calls,
        // the other polls the machines hop by hop.
        let world = || {
            let (mut net, mut dht, mut storage) = setup(24, 9);
            let dist = spilling();
            let mut small = ShardEntry::empty("s");
            small.version = 1;
            small.upsert(posting(1, 2, "p/one"));
            for shard in [small, large_shard("common")] {
                dist.write_shard(&mut net, &mut dht, &mut storage, 0, &shard)
                    .unwrap();
            }
            let stats = IndexStats {
                num_docs: 42,
                total_len: 8400,
                version: 1,
            };
            dist.write_stats(&mut net, &mut dht, 3, &stats).unwrap();
            (net, dht, storage, dist)
        };
        let (mut net, mut dht, mut storage, dist) = world();
        let (mut net2, mut dht2, mut storage2, _) = world();
        let mut views = ShardViews::default();
        for term in ["s", "common", "neverwritten"] {
            let blocking = dist
                .read_shard_fresh(&mut net, &mut dht, &mut storage, 17, term, 0)
                .unwrap();
            let at = net2.now();
            let mut read = dist.begin_read_shard_fresh(&mut net2, &mut dht2, 17, term, 0, at, None);
            let mut cursor = at;
            while let ReadStep::Pending { next_event_at } = dist.poll_read_shard(
                &mut net2,
                &mut dht2,
                &mut storage2,
                &mut views,
                &mut read,
                term,
                cursor,
            ) {
                assert!(
                    next_event_at > cursor,
                    "an event-driven poll always advances"
                );
                cursor = next_event_at;
            }
            let (shard, cost, completed_at) = read.into_result().unwrap();
            assert_eq!((Arc::unwrap_or_clone(shard), cost), blocking, "{term}");
            assert_eq!(
                completed_at,
                at + cost.latency,
                "nothing queued on an idle link"
            );
        }
        let blocking = dist.read_stats(&mut net, &mut dht, 12).unwrap();
        let at = net2.now();
        let mut read = dist.begin_read_stats(&mut net2, &mut dht2, 12, at, None);
        let mut cursor = at;
        while let ReadStep::Pending { next_event_at } =
            dist.poll_read_stats(&mut net2, &mut dht2, &mut read, cursor)
        {
            cursor = next_event_at;
        }
        let (stats, cost, completed_at) = read.into_result().unwrap();
        assert_eq!((stats, cost), blocking);
        assert_eq!(completed_at, at + cost.latency);
        assert_eq!(net.stats(), net2.stats());
        assert_eq!((net.async_in_flight(), net2.async_in_flight()), (0, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// Any shard a writer can hold decodes from its encoding unchanged:
        /// full-range doc ids, versions and creators, any term frequency and
        /// document length, any Unicode term and page names (empty ones
        /// included). A written shard is shared as what reading its record
        /// decodes to (`ShardViews::register_written`) on the strength of it.
        #[test]
        fn shard_codec_round_trip_prop(
            term in proptest::collection::vec(any::<u32>(), 0..8),
            version in any::<u64>(),
            docs in proptest::collection::btree_map(
                any::<u64>(),
                (
                    (any::<u32>(), any::<u32>()),
                    proptest::collection::vec(any::<u32>(), 0..12),
                    (any::<u64>(), any::<u64>()),
                ),
                0..60,
            ),
        ) {
            let mut shard = ShardEntry::empty(&text(&term));
            shard.version = version;
            for (&doc_id, ((term_freq, doc_len), name, (version, creator))) in &docs {
                shard.postings.push(ShardPosting {
                    doc_id,
                    term_freq: *term_freq,
                    doc_len: *doc_len,
                    name: text(name).into(),
                    version: *version,
                    creator: *creator,
                });
            }
            let encoded = shard.encode();
            prop_assert_eq!(shard.encoded_len(), encoded.len());
            prop_assert_eq!(ShardEntry::decode(&encoded).unwrap(), shard);
        }

        /// Arbitrary, truncated and bit-flipped bytes: a decoder either
        /// returns an error or a value that re-encodes to a decodable equal —
        /// it never panics.
        #[test]
        fn decoders_survive_hostile_bytes(
            garbage in proptest::collection::vec(any::<u8>(), 0..96),
            names in proptest::collection::vec("[a-z/]{0,6}", 0..8),
            cut in any::<usize>(),
            flip in any::<usize>(),
        ) {
            let shard = ShardEntry {
                term: "hostile".into(),
                version: 3,
                postings: names
                    .iter()
                    .enumerate()
                    .map(|(i, n)| posting(i as u64 * 7, i as u32 + 1, n))
                    .collect(),
            };
            let stats = IndexStats { num_docs: 1 << 40, total_len: 9, version: 300 };
            for valid in [shard.encode(), stats.encode()] {
                let mut flipped = valid.clone();
                flipped[flip % valid.len()] ^= 1 << (flip % 8);
                for bytes in [&garbage[..], &valid[..cut % valid.len()], &flipped[..]] {
                    if let Ok(s) = ShardEntry::decode(bytes) {
                        prop_assert_eq!(ShardEntry::decode(&s.encode()).unwrap(), s);
                    }
                    if let Ok(s) = IndexStats::decode(bytes) {
                        prop_assert_eq!(IndexStats::decode(&s.encode()).unwrap(), s);
                    }
                }
            }
        }
    }

    #[test]
    fn a_huge_posting_count_is_rejected_before_anything_is_reserved() {
        // term "a", version 1, count 50_000_000, then nothing: ten bytes that
        // used to reserve room for fifty million postings before failing.
        let mut bytes = Vec::new();
        encode_str("a", &mut bytes);
        varint::encode_u64(1, &mut bytes);
        varint::encode_u64(50_000_000, &mut bytes);
        bytes.extend_from_slice(&[0; 3]);
        assert_eq!(bytes.len(), 10);
        match ShardEntry::decode(&bytes) {
            Err(QbError::Codec(msg)) => assert!(msg.contains("claims 50000000 postings"), "{msg}"),
            other => panic!("expected a codec error, got {other:?}"),
        }
    }

    #[test]
    fn a_string_length_of_u64_max_is_an_error_not_an_overflow() {
        let mut bytes = Vec::new();
        varint::encode_u64(u64::MAX, &mut bytes);
        bytes.push(b'x');
        assert!(matches!(ShardEntry::decode(&bytes), Err(QbError::Codec(_))));
    }
}

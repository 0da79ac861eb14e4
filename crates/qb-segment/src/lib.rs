//! `qb-segment`: mergeable, content-addressed index artifacts.
//!
//! The gossip overlay warms a joining frontend shard-by-shard and the
//! writer path merges postings term-by-term — both linear in distinct
//! terms, the wrong shape for a fleet serving millions of users. This
//! crate adds the artifact layer real search systems use (Tantivy/Lucene
//! segments, published the way IPFS publishes immutable blobs): an
//! immutable, deterministic **multi-term segment** holding the serialized
//! postings of many terms at once, with the per-term version vector that
//! makes two segments *mergeable* without a coordinator.
//!
//! Three core operations:
//!
//! * [`Segment::export`] — snapshot a frontend's hot shard set into one
//!   byte-stable artifact;
//! * [`Segment::merge`] — k-way, version-vector-dominant merge: for every
//!   term the shard with the higher version wins wholesale (a newer shard
//!   may legitimately have *removed* postings, so unioning would resurrect
//!   ghosts), equal versions fold posting-by-posting through
//!   [`qb_index::ShardEntry::upsert`]. Merge is commutative, associative
//!   and idempotent (proptest-verified), which is what lets the writer
//!   compact many small pending segments into one artifact in any order;
//! * [`Segment::import_into`] — install a segment into a `qb-cache` shard
//!   tier strictly through [`qb_cache::QueryCache::store_remote_shard`]'s
//!   version guard, so a stale artifact can never clobber fresher
//!   knowledge no matter how it was obtained.
//!
//! The wire half ([`publish`]): a segment's canonical bytes are chunked
//! into `qb-storage`'s content-addressed DAG ([`publish_segment`]) and
//! advertised through a versioned DHT pointer record under
//! [`latest_segment_key`]; [`fetch_segment`] resolves the pointer, pulls
//! and verifies the blocks and decodes the artifact. Every byte of both
//! paths moves through [`qb_simnet::SimNet`] RPCs and is charged to its
//! `NetStats` — bootstrap wins are modeled, never free.
//!
//! Encoding is canonical: terms strictly ascending, LEB128 varints from
//! `qb-common`, no floats — the same segment always serializes to the
//! same bytes, so its [`Segment::cid`] is a stable content address and
//! export → publish → fetch → import round-trips byte-identically
//! (proptest-verified).

#![forbid(unsafe_code)]

pub mod config;
pub mod publish;
pub mod segment;
pub mod stats;

pub use config::SegmentConfig;
pub use publish::{fetch_segment, latest_segment_key, publish_segment, SegmentIo, SegmentRef};
pub use segment::{ImportReport, Segment};
pub use stats::SegmentStats;

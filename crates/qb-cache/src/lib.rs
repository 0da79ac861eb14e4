//! `qb-cache`: a multi-tier query-serving cache with version-aware
//! invalidation for the QueenBee frontend.
//!
//! The paper's frontend answers every query by fetching one index shard per
//! term through the DHT. Under the Zipf-skewed query streams the roadmap
//! targets, the hot head of the distribution pays full network latency on
//! every repeat — exactly the cost real decentralized search designs absorb
//! with peer-side caches. This crate provides that layer as a deterministic,
//! self-contained subsystem with three tiers:
//!
//! * **Result cache** — keyed by the normalized query (sorted, analyzed
//!   terms); holds fully scored result lists. An entry records the shard
//!   version of every query term at fill time and is only served while all
//!   of those versions are still current, so no republish can be masked.
//! * **Shard cache** — keyed by term; holds [`qb_index::ShardEntry`] values
//!   validated against the engine's monotonic per-term shard version
//!   counter. A bumped version makes the cached shard unreachable
//!   immediately.
//! * **Negative cache** — terms proven absent from the index. Miss-storms on
//!   nonsense or not-yet-indexed terms would otherwise hammer the DHT with
//!   lookups that can never succeed.
//!
//! **Invalidation rules.** Entries die through any of three doors:
//! (1) *version checks* — every lookup passes the caller's current version
//! and mismatches are evicted on the spot; (2) *publish-path invalidation* —
//! [`QueryCache::invalidate_term`] purges the term's shard and negative
//! entries plus every result-cache entry whose query contains the term (a
//! reverse index makes this O(affected)); (3) *TTLs* in simulated time as a
//! backstop bound on staleness even if both other mechanisms were bypassed.
//!
//! **Eviction.** Each tier has a byte budget. Two policies are provided:
//! classic LRU, and a sampled-LFU admission policy in the TinyLFU style — a
//! compact frequency sketch estimates popularity; when the tier is full the
//! incoming key is admitted only if it is more popular than the
//! least-recently-used victims it would displace. All bookkeeping is
//! deterministic (ordered maps, logical tick counters, seeded hashing), so
//! simulation runs reproduce bit-for-bit.
//!
//! **No wire format.** The cache holds decoded values and serializes
//! nothing: a warm-start snapshot of the shard tier is a
//! `qb_segment::Segment` exported from [`QueryCache::shard_digest`] and
//! [`QueryCache::peek_shard`], and it re-enters through
//! [`QueryCache::store_remote_shard`]'s version guard.
//!
//! **Config knobs.** See [`CacheConfig`]: per-tier byte budgets and TTLs,
//! the eviction policy, the LFU sample width, and the latency charged for a
//! local cache hit. The cache is disabled by default so existing
//! deployments keep their seed behavior.

#![forbid(unsafe_code)]

pub mod config;
pub mod metrics;
pub mod sketch;
pub mod tier;

mod query_cache;

pub use config::{CacheConfig, EvictionPolicy};
pub use metrics::{CacheMetrics, TierMetrics};
pub use query_cache::{
    result_key, BoundedShardLookup, CachedResult, QueryCache, RemoteAdmit, ShardLookup,
};
pub use sketch::FreqSketch;
pub use tier::CacheTier;

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
//! **Invalidation rules.** A result entry proves its own freshness: every
//! lookup passes the caller's current term versions, and an entry whose
//! recorded versions no longer all match is refused and evicted on the
//! spot; its TTL in simulated time bounds how long an entry no lookup
//! reaches stays resident. Shard and negative entries get the same version
//! check and TTL, plus a *publish-path purge* —
//! [`QueryCache::invalidate_term`] drops the term's shard and negative
//! entries at once — because a superseded shard must leave gossip listings
//! and fills immediately, and a read under a staleness bound
//! ([`QueryCache::lookup_shard_within`], the `MaxStaleness` mode) serves a
//! superseded shard by design.
//!
//! **Eviction.** Each tier has a byte budget and runs one policy, a
//! sampled-LFU admission in the TinyLFU style — a compact frequency sketch
//! estimates popularity; when the tier is full the incoming key is admitted
//! only if it is at least as popular as the least-recently-used victims it
//! would displace ([`config::LFU_SAMPLE`] of them). All bookkeeping is
//! deterministic (ordered maps, logical tick counters, seeded hashing), so
//! simulation runs reproduce bit-for-bit.
//!
//! **No wire format.** The cache holds decoded values and serializes
//! nothing: a warm-start snapshot of the shard tier is a
//! `qb_segment::Segment` exported from [`QueryCache::shard_digest`] and
//! [`QueryCache::peek_shard`], and it re-enters through
//! [`QueryCache::store_remote_shard`]'s version guard.
//!
//! **Config knobs.** See [`CacheConfig`]: the result and shard tiers' byte
//! budgets, the result TTL and the latency charged for a local cache hit.
//! Shard TTLs adapt to each term's republish rate between two constants,
//! and the negative tier's budget and TTL are constants too (see
//! [`config`]). The cache is disabled by default so existing deployments
//! keep their seed behavior.

#![forbid(unsafe_code)]

pub mod config;
pub mod metrics;
pub mod sketch;
pub mod tier;

mod query_cache;

pub use config::CacheConfig;
pub use metrics::{CacheMetrics, TierMetrics};
pub use query_cache::{result_key, CachedResult, QueryCache, RemoteAdmit, ShardLookup};
pub use sketch::FreqSketch;
pub use tier::{CacheTier, Rank, RankedKey};

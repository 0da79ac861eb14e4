//! `qb-gossip`: a cooperative cache-gossip overlay so one bee's shard fetch
//! warms the whole frontend fleet.
//!
//! PR 1's query-serving cache removed repeat-query cost for a *single*
//! frontend, but every frontend still cold-started alone, re-fetching the
//! same Zipf head from the DHT. This crate adds the one-hop-further
//! mitigation real deployments use (SwarmSearch-style result sharing, IPFS
//! provider-record gossip): frontends periodically exchange digests of
//! their hottest cached term shards and push/pull the shards the other side
//! lacks, so a shard fetched from the DHT by one frontend lands in its
//! neighbours' shard tiers before they ever query it.
//!
//! Since PR 4 the overlay is built for real DWeb deployments rather than a
//! static LAN fleet:
//!
//! * **Churn-aware membership** ([`membership`]) — frontends join by
//!   bootstrapping their cache through one anti-entropy exchange with a
//!   live neighbour (warming from the fleet instead of the DHT), leave
//!   gracefully or crash; liveness flows through gossiped heartbeats, dead
//!   members are evicted from the sample set, and rejoining members are
//!   revived the moment a fresher heartbeat arrives.
//! * **Zone-aware peer sampling** — each frontend carries a latency-zone
//!   label (matching `qb-simnet`'s zone assignment); partner choice prefers
//!   the own zone and escapes cross-zone with a configurable probability,
//!   cutting round latency while cross-zone links keep the fleet-wide
//!   epidemic converging.
//! * **Compressed digests** ([`digest`], [`filter`]) — regular rounds ship
//!   *delta* digests against the last exchange per peer plus a compact
//!   bloom-style [`ShardFilter`] over current holdings, with the periodic
//!   full-digest anti-entropy round as the exact safety net; steady-state
//!   digest bytes drop an order of magnitude (asserted in E12).
//!
//! The pieces:
//!
//! * [`GossipConfig`] — fleet size, anti-entropy interval, hot-set size and
//!   fill budget, digest mode, zones and liveness knobs. Default-off. The
//!   values every frontend must agree on (fanout, round interval, filter
//!   width, membership-summary budget) are constants in [`config`].
//! * [`DigestEntry`] / [`VersionVector`] / [`ShardFilter`] — the metadata
//!   protocol. Every frontend tracks the highest shard version it has
//!   observed per term; an incoming fill older than that is rejected, so a
//!   stale shard is never accepted over fresher knowledge. A `(term,
//!   version)` pair travels host-side as a [`DigestEntry`]: the term's
//!   [`TermKey`] (made once, where the term first enters the host — the
//!   engine passes the key it keeps per term) beside the pair's
//!   [`FilterKey`], shared by handle, and every per-term map of the gossip
//!   path, the version vector included, is a [`TermMap`] probed by that
//!   key.
//! * [`MembershipView`] / [`MembershipSummary`] — per-frontend fleet views,
//!   heartbeats and the zone-biased partner sampler.
//! * [`GossipFleet`] / [`Frontend`] — the fleet and the exchange protocol.
//!   All traffic flows through [`qb_simnet::SimNet`] and is charged to its
//!   `NetStats`; partitions fail exchanges, and anti-entropy reconciles
//!   fleets after partitions heal.
//! * [`GossipStats`] — rounds, exchange failures, digest/fill/membership
//!   bytes, the accept/stale/duplicate breakdown and the churn counters,
//!   for the E10/E12 overhead accounting.
//! * Warm-start persistence — a snapshot of a frontend's hottest shards
//!   is a [`qb_segment::Segment`] (`Segment::export`, `encode`), and
//!   [`Frontend::import_segment`] installs it, like a fetched bootstrap
//!   artifact, under the version guard: a restarted frontend pre-fills
//!   from its last session instead of cold-starting against the DHT.
//!
//! Correctness rests on three rails shared with `qb-cache`: read-time
//! version checks (the engine validates every cached shard against the
//! current version before serving), publish-path invalidation (observing
//! frontends purge on reindex), and TTLs (gossip fills inherit the
//! sender's adaptive TTL, tightened by the receiver's own estimate).

#![forbid(unsafe_code)]

pub mod config;
pub mod digest;
mod exchange;
pub mod filter;
pub mod fleet;
mod frontend;
mod lifecycle;
pub mod membership;
pub mod stats;

pub use config::{DigestMode, GossipConfig};
pub use digest::{
    apply_delta, delta_entries, needs_fill, DigestEntry, HoldingsView, TermKey, TermMap,
    VersionVector,
};
pub use filter::{FilterKey, ShardFilter};
pub use fleet::GossipFleet;
pub use frontend::Frontend;
pub use lifecycle::SegmentBootstrapReport;
pub use membership::{MemberInfo, MembershipSummary, MembershipView};
pub use stats::GossipStats;

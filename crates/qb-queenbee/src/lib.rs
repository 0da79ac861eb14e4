//! QueenBee: the decentralized search engine for the decentralized web.
//!
//! This crate is the paper's primary contribution, assembled from the
//! substrate crates (Figure 1 of the paper):
//!
//! * content lives in content-addressed storage and is registered on the
//!   blockchain through the publish contract (**no crawling**),
//! * **worker bees** observe publish events, tokenize the new page versions,
//!   maintain the DHT-sharded inverted index and compute PageRank, earning
//!   *honey* for every accepted task,
//! * the **frontend** answers keyword queries by fetching the query terms'
//!   index shards, intersecting the posting lists, scoring with BM25 blended
//!   with PageRank, and attaching an advertisement from the on-chain ad
//!   market (pay-per-click, revenue shared between creator, bee and
//!   treasury),
//! * the **incentive engine** pays publish rewards, task bounties and
//!   popularity rewards, and slashes bees caught submitting manipulated data,
//! * the **attack module** implements the two attacks the paper anticipates —
//!   index/rank *collusion* and *scraper sites* — and the corresponding
//!   defenses (verification quorums with majority voting; near-duplicate
//!   detection with MinHash signatures).
//!
//! The entry point is [`QueenBee`]; see `examples/quickstart.rs` for an
//! end-to-end walkthrough and [`architecture`] for the repository-level
//! crate map, the life of a query through the pipelined engine, and the
//! determinism contract.

#![forbid(unsafe_code)]

/// The repository-level architecture tour — crate map, life of a query,
/// determinism contract — rendered from `ARCHITECTURE.md` so its code
/// examples compile and run under `cargo test --doc`.
#[doc = include_str!("../../../ARCHITECTURE.md")]
pub mod architecture {}

pub mod attacks;
pub mod bee;
pub mod config;
pub mod defense;
pub mod engine;
pub mod metrics;
pub mod query;

pub use attacks::{CollusionAttack, ScraperAttack};
pub use bee::{BeeBehaviour, WorkerBee};
pub use config::QueenBeeConfig;
pub use defense::{verify_index_submissions, MinHashSignature, VerificationOutcome};
pub use engine::{PublishReport, QueenBee};
pub use metrics::{
    gini_coefficient, CacheMetrics, CacheReport, FreshnessProbe, HoneyByRole, QueryEngineStats,
    TierMetrics,
};
pub use qb_cache::CacheConfig;
pub use qb_chain::AccountId;
pub use qb_gossip::{
    DigestMode, GossipConfig, GossipFleet, GossipStats, MembershipView, SegmentBootstrapReport,
    ShardFilter, VersionVector,
};
pub use qb_segment::{Segment, SegmentConfig, SegmentRef, SegmentStats};
pub use qb_simnet::NetConfig;
pub use qb_trace::{MetricsSnapshot, MetricsSource, Trace, Tracer};
pub use query::routing::{hrw_score, hrw_top2};
pub use query::{
    AdmissionConfig, Freshness, LoadReport, PipelineConfig, PipelineOutcome, PipelineReport,
    QueryPlan, RoutingPolicy, SearchRequest, SearchResponse, StageCosts, TermProvenance,
    TimedRequest, WindowSpan,
};

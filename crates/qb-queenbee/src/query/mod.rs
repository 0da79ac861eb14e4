//! The staged planner/executor query pipeline.
//!
//! A query passes through four stages:
//!
//! 1. **request** — [`SearchRequest`] spells out everything the seed API
//!    left implicit: top-k, pagination, routing policy, freshness mode and
//!    ads.
//! 2. **plan** — the planner analyzes the query, dedupes terms and resolves
//!    each against the cache tiers, leaving a precise fetch list
//!    ([`QueryPlan`]).
//! 3. **fetch and score** — the engine's window loop fetches the misses
//!    through the versioned DHT read and the serving kernel
//!    ([`qb_index::kernel`]: intersect, BM25, PageRank blend, rank) scores
//!    every candidate; the whole result list is built only for a result
//!    tier that keeps it. In a window of several queries
//!    ([`PipelineConfig::batch`] is one such window at a time) each
//!    distinct missing term is fetched **once** and fanned out to every
//!    query that needs it. ([`executor`] keeps the kernel's one-call form
//!    at the path the benchmark imports it from.)
//! 4. **response** — [`SearchResponse`] carries the paginated hits, a
//!    per-stage cost trace and per-term cache provenance.
//!
//! Every query runs through the engine's one window loop, which moves
//! whole windows through these stages and overlaps several of them
//! (`engine/windows.rs` describes it; [`pipeline`] holds a run's shape and
//! report): [`crate::QueenBee::search_request`] is a one-query window and
//! [`crate::QueenBee::search_pipelined`] takes any window size and depth.
//!
//! For **open-loop** serving — queries arriving on their own clock instead
//! of draining a list — the [`admission`] module adds bounded per-frontend
//! ingress queues, load shedding and freshness degradation in front of the
//! window loop; [`crate::QueenBee::serve_open_loop`] is that entry point.

pub mod admission;
pub mod executor;
pub mod pipeline;
pub mod plan;
pub mod request;
pub mod response;
pub mod routing;
pub mod terms;

pub use admission::{AdmissionConfig, LoadReport, TimedRequest};
pub use pipeline::{PipelineConfig, PipelineOutcome, PipelineReport};
pub use plan::{PlannedTerm, QueryPlan, Resolution, StatsPlan, TermPlan};
pub use request::{Freshness, RoutingPolicy, SearchRequest};
pub use response::{SearchResponse, StageCosts, TermProvenance};
pub use terms::TermId;

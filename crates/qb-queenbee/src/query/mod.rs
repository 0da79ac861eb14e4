//! The staged planner/executor query pipeline.
//!
//! A query passes through four stages, each its own module and each
//! testable in isolation:
//!
//! 1. **request** — [`SearchRequest`] spells out everything the seed API
//!    left implicit: top-k, pagination, routing policy, freshness mode and
//!    ads.
//! 2. **plan** — the planner analyzes the query, dedupes terms and resolves
//!    each against the cache tiers, leaving a precise fetch list
//!    ([`QueryPlan`]).
//! 3. **executor** — misses are fetched through the versioned DHT read and
//!    the serving kernel ([`qb_index::kernel`]: intersect, BM25, PageRank
//!    blend, rank) scores every candidate; the whole result list is built
//!    only for a cache tier or memo that keeps it. In a batch window
//!    ([`crate::QueenBee::search_batch`]) each distinct missing term is
//!    fetched **once** and fanned out to every query that needs it.
//! 4. **response** — [`SearchResponse`] carries the paginated hits, a
//!    per-stage cost trace and per-term cache provenance.
//!
//! On top of the stages sits the **pipelined execution engine**
//! ([`pipeline`]): its driver moves whole windows through
//! `Planned → Fetching → Scoring → Done`, overlaps
//! up to `max_windows_in_flight` windows (window N+1's fetches issue while
//! window N's are in flight, under the simulated network's per-link
//! in-flight limits), and dedupes identical queries across the in-flight
//! set through a version-tagged window memo.
//! [`crate::QueenBee::search_pipelined`] is the entry point.
//!
//! For **open-loop** serving — queries arriving on their own clock instead
//! of draining a list — the [`admission`] module adds bounded per-frontend
//! ingress queues, load shedding and freshness degradation in front of the
//! pipeline; [`crate::QueenBee::serve_open_loop`] is that entry point.

pub mod admission;
pub mod executor;
pub mod pipeline;
pub mod plan;
pub mod request;
pub mod response;
pub mod routing;

pub use admission::{AdmissionConfig, LoadReport, TimedRequest};
pub use pipeline::{PipelineConfig, PipelineOutcome, PipelineReport, WindowSpan};
pub use plan::{PlannedTerm, QueryPlan, StatsPlan, TermPlan};
pub use request::{Freshness, RoutingPolicy, SearchRequest};
pub use response::{SearchResponse, StageCosts, TermProvenance};

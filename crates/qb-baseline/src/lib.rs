//! Baseline search engines the paper positions QueenBee against.
//!
//! * [`CentralizedEngine`] — a Web 2.0 search service: a single server with a
//!   crawler-fed index and finite serving capacity. It is the comparison
//!   point for the latency/throughput claim (E1) and the DDoS / partition
//!   resilience claim (E2).
//! * [`YacyEngine`] — a YaCy-style peer-to-peer engine: the index is
//!   distributed over peers by term hash, but content is discovered by
//!   periodic **crawling** and there is no incentive or verification scheme.
//!   It is the comparison point for the freshness claim (E3); the paper cites
//!   YaCy as the closest existing system.

#![forbid(unsafe_code)]

pub mod centralized;
pub mod yacy;

pub use centralized::{CentralizedConfig, CentralizedEngine};
pub use yacy::{YacyConfig, YacyEngine};

/// Results either baseline returns per query.
pub const TOP_K: usize = 10;

/// A snapshot of one page for a crawler: name, current version, creator and
/// searchable text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrawlDoc {
    /// Page name.
    pub name: String,
    /// Version visible to the crawler at crawl time.
    pub version: u64,
    /// Creator account.
    pub creator: u64,
    /// Searchable text.
    pub text: String,
}

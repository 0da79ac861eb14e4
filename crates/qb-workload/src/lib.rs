//! Synthetic workloads: corpus, link graph, queries, updates and advertisers.
//!
//! The paper has no public dataset (its prototype hosted a Wikipedia
//! snapshot we do not have); per the substitution rule this crate generates
//! the closest synthetic equivalents with the skew that drives every
//! experiment:
//!
//! * term frequencies follow a Zipf distribution (natural-language-like),
//! * page popularity (in-degree) follows preferential attachment
//!   (Barabási–Albert), giving the heavy tail the incentive experiments need,
//! * page updates arrive as a popularity-biased Poisson stream (freshness),
//! * queries are short (1–4 terms) and biased towards head terms,
//! * advertisers bid on head terms with Zipf-distributed budgets.

#![forbid(unsafe_code)]

pub mod ads;
pub mod corpus;
pub mod linkgraph;
pub mod queries;
pub mod updates;
pub mod zipf;

pub use ads::{AdSpec, AdvertiserWorkload};
pub use corpus::{Corpus, CorpusConfig, CorpusGenerator};
pub use linkgraph::generate_links;
pub use queries::QueryWorkload;
pub use updates::{mutate_page, UpdateEvent, UpdateStream};
pub use zipf::ZipfSampler;

//! Link graph and PageRank.
//!
//! QueenBee's worker bees "compute the page ranks, which are hosted in a
//! decentralized storage". This crate provides:
//!
//! * [`graph::LinkGraph`] — the page link graph built from the on-chain
//!   publish registry's out-links,
//! * [`pagerank()`] — the reference power-iteration PageRank,
//! * [`distributed`] — the decentralized variant: the graph is partitioned
//!   into blocks, each block is computed by a quorum of worker bees, results
//!   are combined by entry-wise median and bees whose submissions deviate are
//!   flagged (the defense against the paper's *collusion attack* on ranking
//!   data, quantified in experiment E6).

#![forbid(unsafe_code)]

pub mod distributed;
pub mod graph;
pub mod pagerank;

pub use distributed::{BeeRankBehaviour, DecentralizedPageRank, RankRoundReport};
pub use graph::LinkGraph;
pub use pagerank::pagerank;

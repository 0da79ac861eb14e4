//! Content-addressed decentralized storage (the IPFS role in Figure 1).
//!
//! Objects (web pages, index shards, rank vectors) are split into chunks,
//! each chunk becomes a [`Block`] addressed by the SHA-256 of its bytes, and
//! a merkle [`Manifest`] lists the chunk cids. The manifest itself is a block
//! whose cid is the object's identifier — so any bit flip anywhere in the
//! object changes the root cid, which is exactly the tamper-proofness the
//! paper attributes to the DWeb.
//!
//! Availability comes from replication: an object is pinned on `r` peers and
//! every peer that fetches it keeps the blocks in a bounded LRU cache and
//! registers itself as a provider, so popular content gets cheaper and more
//! resilient to serve over time (the paper's "better browsing experiences"
//! claim, quantified in experiment E1).

#![forbid(unsafe_code)]

pub mod block;
pub mod chunker;
pub mod dag;
mod memo;
pub mod network;
pub mod store;

pub use block::Block;
pub use chunker::{chunk_content_defined, ChunkerConfig};
pub use dag::Manifest;
pub use network::{FetchStats, ObjectRef, StorageConfig, StorageNetwork};
pub use store::LruBlockStore;

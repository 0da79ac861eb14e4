//! Common primitives shared by every QueenBee crate.
//!
//! This crate is dependency-light on purpose: it provides the cryptographic
//! content hashing (an in-house SHA-256 validated against FIPS 180-4 test
//! vectors), the 256-bit identifier types used by the DHT and the content
//! addressed storage, LEB128 variable-length integer encoding used by the
//! inverted index, a deterministic random number generator so that every
//! simulation in the repository is reproducible from a seed, the logical
//! clock used by the network simulator, and the deterministic log-bucketed
//! latency histogram the load harness aggregates tail percentiles with.
//!
//! It holds the workspace's one `unsafe` block: the call into the SHA-256
//! hardware path, made only after CPU detection (`hash.rs`). The lint
//! below rejects any other.

#![deny(unsafe_code)]

pub mod error;
pub mod hash;
pub mod hex;
pub mod hist;
pub mod id;
pub mod rng;
#[cfg(target_arch = "x86_64")]
mod sha256_x86;
pub mod time;
pub mod varint;

pub use error::{QbError, QbResult};
pub use hash::{sha256, DigestMap, Distance, Hash256, IdHashMap, IdHasher};
pub use hist::LatencyHistogram;
pub use id::{Cid, DhtKey, NodeId};
pub use rng::DetRng;
pub use time::{SimDuration, SimInstant};

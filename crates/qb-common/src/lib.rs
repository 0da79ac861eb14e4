//! Common primitives shared by every QueenBee crate.
//!
//! This crate is dependency-light on purpose: it provides the cryptographic
//! content hashing (an in-house SHA-256 validated against FIPS 180-4 test
//! vectors), the 256-bit identifier types used by the DHT and the content
//! addressed storage, LEB128 variable-length integer encoding used by the
//! inverted index, a deterministic random number generator so that every
//! simulation in the repository is reproducible from a seed, the logical
//! clock used by the network simulator, and the deterministic log-bucketed
//! latency histogram the load harness aggregates tail percentiles with, and
//! [`recycle`], for lists kept between calls.
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

/// `list`, emptied, as a list of `U` in the same allocation: a list kept
/// between calls names its borrows `'static`, and each call turns it into
/// a list of what it lends and back (`Vec` collects its own iterator in
/// place for element types of one layout, and lifetimes change none).
pub fn recycle<T, U>(mut list: Vec<T>) -> Vec<U> {
    list.clear();
    list.into_iter().filter_map(|_| None).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_recycled_list_keeps_its_allocation_across_lifetimes() {
        let mut kept: Vec<&'static str> = Vec::with_capacity(16);
        let at = kept.as_ptr();
        for round in 0..3 {
            let text = format!("round {round}");
            let mut lent: Vec<&str> = recycle(std::mem::take(&mut kept));
            assert!(lent.is_empty() && lent.capacity() == 16);
            assert_eq!(lent.as_ptr(), at.cast());
            lent.extend(text.split(' '));
            assert_eq!(lent, ["round", &text[6..]]);
            kept = recycle(lent);
        }
        assert!(kept.is_empty() && kept.as_ptr() == at);
    }
}

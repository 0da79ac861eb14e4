//! Chunking: splitting an object into blocks.
//!
//! Content-defined chunking (a gear-hash rolling window) re-synchronises
//! chunk boundaries after inserts/deletes so that updated versions of a page
//! share most of their blocks with the previous version — which matters for
//! the DWeb because a page update should not force re-replication of the
//! whole page.

/// Chunker parameters.
#[derive(Debug, Clone)]
pub struct ChunkerConfig {
    /// Minimum chunk size in bytes.
    pub min_size: usize,
    /// Average/target chunk size in bytes.
    pub target_size: usize,
    /// Maximum chunk size in bytes.
    pub max_size: usize,
}

impl Default for ChunkerConfig {
    fn default() -> Self {
        ChunkerConfig {
            min_size: 2 * 1024,
            target_size: 8 * 1024,
            max_size: 32 * 1024,
        }
    }
}

impl ChunkerConfig {
    /// Tiny chunks, used in tests so multi-chunk paths are exercised with
    /// small inputs.
    pub fn tiny() -> ChunkerConfig {
        ChunkerConfig {
            min_size: 16,
            target_size: 64,
            max_size: 256,
        }
    }
}

/// Gear table for the rolling hash, generated deterministically from a fixed
/// seed so chunk boundaries are stable across runs and machines.
static GEAR: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut i = 0;
    while i < table.len() {
        // SplitMix64 step.
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        table[i] = z ^ (z >> 31);
        i += 1;
    }
    table
};

/// Content-defined chunking with a gear rolling hash: the chunks of `data`,
/// in order, as slices of it, cut as they are read (the caller copies each
/// once, into the block it becomes). An empty input yields a single empty
/// chunk so that every object has at least one block.
///
/// A chunk ends at the first byte, at least `min_size` in, where the
/// hash's low bits (as many as `log2(target_size)`, rounded) are zero, or
/// at `max_size` bytes, whichever comes first. The hash restarts at every
/// cut, and each byte shifts it up one bit: a byte has left the low bits
/// once as many bytes have followed it, and carries only move upward. So
/// hashing starts that many bytes before a chunk's first eligible cut,
/// with the cuts of hashing every byte.
pub fn chunk_content_defined<'a>(
    data: &'a [u8],
    config: &ChunkerConfig,
) -> impl Iterator<Item = &'a [u8]> + use<'a> {
    let min = config.min_size.max(1);
    let max = config.max_size.max(min);
    let target = config.target_size.clamp(min, max).max(2);
    // Boundary when the low bits of the hash are zero; mask size derived
    // from the target chunk size (power of two).
    let bits = (target as f64).log2().round() as u32;
    let mask: u64 = if bits >= 63 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    };
    let warm_up = min.saturating_sub(mask.count_ones() as usize);
    let step = |hash: u64, &byte: &u8| (hash << 1).wrapping_add(GEAR[byte as usize]);
    // The length of the chunk at the front of `rest` (non-empty).
    let cut = move |rest: &[u8]| {
        let limit = rest.len().min(max);
        if limit < min {
            return limit;
        }
        let mut hash = rest[warm_up..min - 1].iter().fold(0, step);
        for (len, byte) in (min..).zip(&rest[min - 1..limit]) {
            hash = step(hash, byte);
            if hash & mask == 0 {
                return len;
            }
        }
        limit
    };
    let (mut rest, mut empty) = (data, data.is_empty());
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return std::mem::take(&mut empty).then_some(rest);
        }
        let (chunk, tail) = rest.split_at(cut(rest));
        rest = tail;
        Some(chunk)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qb_common::Cid;

    /// The chunker as it was written before it skipped to each chunk's
    /// warm-up: every byte hashed, one at a time. The reference its cuts
    /// must equal.
    fn reference_chunks<'a>(data: &'a [u8], config: &ChunkerConfig) -> Vec<&'a [u8]> {
        if data.is_empty() {
            return vec![data];
        }
        let min = config.min_size.max(1);
        let max = config.max_size.max(min);
        let target = config.target_size.clamp(min, max).max(2);
        let bits = (target as f64).log2().round() as u32;
        let mask: u64 = if bits >= 63 {
            u64::MAX
        } else {
            (1u64 << bits) - 1
        };
        let mut chunks = Vec::with_capacity(data.len() / target + 1);
        let mut start = 0usize;
        let mut hash: u64 = 0;
        let mut i = 0usize;
        while i < data.len() {
            hash = (hash << 1).wrapping_add(GEAR[data[i] as usize]);
            let len = i - start + 1;
            let at_boundary = len >= min && (hash & mask) == 0;
            if at_boundary || len >= max {
                chunks.push(&data[start..=i]);
                start = i + 1;
                hash = 0;
            }
            i += 1;
        }
        if start < data.len() {
            chunks.push(&data[start..]);
        }
        chunks
    }

    fn chunks<'a>(data: &'a [u8], config: &ChunkerConfig) -> Vec<&'a [u8]> {
        chunk_content_defined(data, config).collect()
    }

    /// Fixed-size chunking, the contrast case content-defined chunking is
    /// measured against.
    fn chunk_fixed(data: &[u8], size: usize) -> Vec<Vec<u8>> {
        data.chunks(size).map(|c| c.to_vec()).collect()
    }

    #[test]
    fn empty_input_yields_one_empty_chunk() {
        assert_eq!(chunks(&[], &ChunkerConfig::tiny()), [&[] as &[u8]]);
    }

    #[test]
    fn content_defined_chunks_reassemble_and_respect_max() {
        let mut data = Vec::new();
        for i in 0..5_000u32 {
            data.extend_from_slice(&i.to_le_bytes());
        }
        let cfg = ChunkerConfig::tiny();
        let chunks = chunks(&data, &cfg);
        assert!(chunks.len() > 1);
        assert_eq!(chunks.concat(), data);
        for (i, c) in chunks.iter().enumerate() {
            if i + 1 < chunks.len() {
                assert!(c.len() <= cfg.max_size, "chunk {i} too large: {}", c.len());
                assert!(c.len() >= cfg.min_size.min(cfg.max_size));
            }
        }
    }

    #[test]
    fn small_edit_preserves_most_chunks() {
        // The point of content-defined chunking: an insertion near the front
        // should not change the chunk boundaries (and hence cids) of the tail.
        let mut rng_state = 12345u64;
        let mut data = Vec::with_capacity(200_000);
        for _ in 0..200_000 {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            data.push((rng_state >> 33) as u8);
        }
        let cfg = ChunkerConfig::default();
        let original: Vec<Cid> = chunk_content_defined(&data, &cfg)
            .map(Cid::for_data)
            .collect();
        let mut edited = data.clone();
        edited.splice(1000..1000, b"INSERTED EDIT".iter().copied());
        let new_cids: Vec<Cid> = chunk_content_defined(&edited, &cfg)
            .map(Cid::for_data)
            .collect();
        let original_set: std::collections::HashSet<_> = original.iter().collect();
        let shared = new_cids.iter().filter(|c| original_set.contains(c)).count();
        assert!(
            shared * 2 > new_cids.len(),
            "only {shared}/{} chunks shared after a small edit",
            new_cids.len()
        );
    }

    #[test]
    fn fixed_chunking_shares_nothing_after_insert() {
        // Contrast case motivating content-defined chunking.
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let original: Vec<Cid> = chunk_fixed(&data, 4096)
            .iter()
            .map(|c| Cid::for_data(c))
            .collect();
        let mut edited = data.clone();
        edited.insert(0, 0xAA);
        let new_cids: Vec<Cid> = chunk_fixed(&edited, 4096)
            .iter()
            .map(|c| Cid::for_data(c))
            .collect();
        let original_set: std::collections::HashSet<_> = original.iter().collect();
        let shared = new_cids.iter().filter(|c| original_set.contains(c)).count();
        assert!(shared <= 1);
    }

    proptest! {
        #[test]
        fn chunking_always_reassembles(data in proptest::collection::vec(any::<u8>(), 0..8192)) {
            let cdc = chunks(&data, &ChunkerConfig::tiny());
            prop_assert_eq!(cdc.concat(), data);
        }

        /// Skipping to each chunk's warm-up moves no cut: on random and on
        /// low-entropy bytes, under the tiny and default configurations,
        /// one whose window is wider than its minimum and one whose minimum
        /// is a single byte, the chunks equal the byte-at-a-time loop's.
        #[test]
        fn warm_up_cuts_where_every_byte_hashed_cuts(
            data in proptest::collection::vec(any::<u8>(), 0..12_000),
            alphabet in 1u8..4,
            config in 0usize..4,
        ) {
            let config = [
                ChunkerConfig::tiny(),
                ChunkerConfig::default(),
                ChunkerConfig { min_size: 3, target_size: 64, max_size: 100 },
                ChunkerConfig { min_size: 1, target_size: 2, max_size: 5 },
            ][config].clone();
            let sparse: Vec<u8> = data.iter().map(|b| b % alphabet).collect();
            for data in [&data, &sparse] {
                prop_assert_eq!(chunks(data, &config), reference_chunks(data, &config));
            }
        }
    }
}

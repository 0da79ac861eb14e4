//! A compact frequency sketch for TinyLFU-style admission decisions.
//!
//! Four rows of 8-bit saturating counters, indexed by four independent
//! mixes of the key hash; the estimate is the minimum across rows
//! (count-min). After `OPS_BEFORE_AGING` increments every counter is halved,
//! so the sketch tracks *recent* popularity rather than all-time counts —
//! the "reset" operation of the TinyLFU paper.

/// Counters per row (a power of two).
const WIDTH: usize = 1024;

/// Increments after which every counter is halved.
const OPS_BEFORE_AGING: u64 = WIDTH as u64 * 10;

/// Frequency sketch with saturating 8-bit counters and periodic aging.
#[derive(Debug, Clone)]
pub struct FreqSketch {
    rows: [Vec<u8>; 4],
    ops: u64,
}

const SEEDS: [u64; 4] = [
    0x9e37_79b9_7f4a_7c15,
    0xc2b2_ae3d_27d4_eb4f,
    0x1656_67b1_9e37_79f9,
    0x2545_f491_4f6c_dd1d,
];

fn mix(hash: u64, seed: u64) -> u64 {
    let mut z = hash ^ seed;
    z = (z ^ (z >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    z = (z ^ (z >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    z ^ (z >> 33)
}

/// Deterministic 64-bit hash of a string key (FNV-1a).
pub fn hash_key(key: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl FreqSketch {
    /// Build a sketch with every counter at zero.
    #[allow(clippy::new_without_default)]
    pub fn new() -> FreqSketch {
        FreqSketch {
            rows: std::array::from_fn(|_| vec![0u8; WIDTH]),
            ops: 0,
        }
    }

    /// Record one occurrence of the key.
    pub fn record(&mut self, hash: u64) {
        for (i, row) in self.rows.iter_mut().enumerate() {
            let idx = (mix(hash, SEEDS[i]) % WIDTH as u64) as usize;
            row[idx] = row[idx].saturating_add(1);
        }
        self.ops += 1;
        if self.ops >= OPS_BEFORE_AGING {
            self.age();
        }
    }

    /// Estimated recent frequency of the key.
    pub fn estimate(&self, hash: u64) -> u32 {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, row)| row[(mix(hash, SEEDS[i]) % WIDTH as u64) as usize] as u32)
            .min()
            .unwrap_or(0)
    }

    fn age(&mut self) {
        for row in self.rows.iter_mut() {
            for c in row.iter_mut() {
                *c >>= 1;
            }
        }
        self.ops = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_track_recorded_frequency() {
        let mut s = FreqSketch::new();
        let hot = hash_key("hot-term");
        let cold = hash_key("cold-term");
        for _ in 0..20 {
            s.record(hot);
        }
        s.record(cold);
        assert!(s.estimate(hot) > s.estimate(cold));
        assert!(s.estimate(hot) >= 15, "count-min underestimates too much");
        assert_eq!(s.estimate(hash_key("never-seen")), 0);
    }

    #[test]
    fn counters_saturate_instead_of_wrapping() {
        let mut s = FreqSketch::new();
        let k = hash_key("k");
        for _ in 0..500 {
            s.record(k);
        }
        assert!(s.estimate(k) <= 255);
        assert!(s.estimate(k) > 0);
    }

    #[test]
    fn aging_halves_counts() {
        let mut s = FreqSketch::new();
        let k = hash_key("aging");
        for _ in 0..40 {
            s.record(k);
        }
        let before = s.estimate(k);
        s.age();
        let after = s.estimate(k);
        assert!(after <= before / 2 + 1, "before={before} after={after}");
    }

    #[test]
    fn hashing_is_deterministic() {
        assert_eq!(hash_key("abc"), hash_key("abc"));
        assert_ne!(hash_key("abc"), hash_key("abd"));
    }
}

//! Deterministic random number generation.
//!
//! Every stochastic decision in the reproduction — latency samples, churn,
//! workload generation, attack target selection — flows through [`DetRng`],
//! a small xoshiro256**-based generator seeded explicitly. Re-running any
//! experiment with the same seed reproduces the exact same table.

/// Deterministic RNG (xoshiro256** with a SplitMix64 seeder).
#[derive(Debug, Clone)]
pub struct DetRng {
    s: [u64; 4],
}

impl DetRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> DetRng {
        // SplitMix64 to spread the seed over the full state.
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let mut s = [next(), next(), next(), next()];
        if s.iter().all(|&x| x == 0) {
            s[0] = 1;
        }
        DetRng { s }
    }

    /// Derive an independent child generator; useful to give each simulated
    /// node / worker its own stream while staying reproducible.
    pub fn fork(&mut self, label: u64) -> DetRng {
        DetRng::new(self.next_u64() ^ label.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. `bound` must be > 0.
    pub fn gen_range(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "gen_range bound must be positive");
        // Lemire's multiply-shift rejection method.
        loop {
            let x = self.next_u64();
            let (hi, lo) = mul_hi_lo(x, bound);
            if lo >= bound || lo >= bound.wrapping_neg() % bound {
                return hi;
            }
        }
    }

    /// Uniform usize in `[0, bound)`.
    pub fn gen_index(&mut self, bound: usize) -> usize {
        self.gen_range(bound as u64) as usize
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli trial with probability `p` (clamped to `[0,1]`).
    pub fn gen_bool(&mut self, p: f64) -> bool {
        self.gen_f64() < p.clamp(0.0, 1.0)
    }

    /// Sample from an exponential distribution with the given mean.
    /// Used for Poisson inter-arrival times (page updates, queries).
    pub fn gen_exp(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.gen_f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Sample from a standard normal via Box–Muller.
    pub fn gen_normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1 = loop {
            let u = self.gen_f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.gen_f64();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.len() < 2 {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.gen_index(i + 1);
            items.swap(i, j);
        }
    }
}

#[inline]
fn mul_hi_lo(a: u64, b: u64) -> (u64, u64) {
    let wide = (a as u128) * (b as u128);
    ((wide >> 64) as u64, wide as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = DetRng::new(1);
        let mut b = DetRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5);
    }

    #[test]
    fn gen_range_in_bounds_and_covers() {
        let mut r = DetRng::new(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn gen_f64_in_unit_interval() {
        let mut r = DetRng::new(9);
        for _ in 0..1000 {
            let v = r.gen_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gen_bool_respects_probability_roughly() {
        let mut r = DetRng::new(11);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.3)).count();
        assert!((2500..3500).contains(&hits), "hits={hits}");
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = DetRng::new(13);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.gen_exp(5.0)).sum();
        let mean = sum / n as f64;
        assert!((4.5..5.5).contains(&mean), "mean={mean}");
    }

    #[test]
    fn normal_mean_and_spread() {
        let mut r = DetRng::new(15);
        let n = 20_000;
        let vals: Vec<f64> = (0..n).map(|_| r.gen_normal(10.0, 2.0)).collect();
        let mean = vals.iter().sum::<f64>() / n as f64;
        assert!((9.8..10.2).contains(&mean), "mean={mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::new(17);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut base = DetRng::new(23);
        let mut a = base.fork(1);
        let mut b = base.fork(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 5);
    }

    proptest! {
        #[test]
        fn gen_range_always_below_bound(seed in any::<u64>(), bound in 1u64..1_000_000) {
            let mut r = DetRng::new(seed);
            for _ in 0..32 {
                prop_assert!(r.gen_range(bound) < bound);
            }
        }
    }
}

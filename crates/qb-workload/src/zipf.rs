//! Zipf-distributed sampling.

use qb_common::DetRng;

/// Samples indices `0..n` with probability proportional to `1 / (i+1)^s`.
#[derive(Debug, Clone)]
pub struct ZipfSampler {
    cumulative: Vec<f64>,
}

impl ZipfSampler {
    /// Create a sampler over `n` items with exponent `s` (s = 0 is uniform,
    /// s ≈ 1 is the classic natural-language skew).
    pub fn new(n: usize, s: f64) -> ZipfSampler {
        assert!(n > 0, "ZipfSampler needs at least one item");
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cumulative.push(total);
        }
        // Normalise.
        for c in cumulative.iter_mut() {
            *c /= total;
        }
        ZipfSampler { cumulative }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// True when there are no items (never; kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Sample an index.
    pub fn sample(&self, rng: &mut DetRng) -> usize {
        let u = rng.gen_f64();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).unwrap_or(std::cmp::Ordering::Less))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Probability mass of item `i`.
    fn probability(z: &ZipfSampler, i: usize) -> f64 {
        match i {
            0 => z.cumulative[0],
            _ => z.cumulative[i] - z.cumulative[i - 1],
        }
    }

    #[test]
    fn probabilities_sum_to_one_and_decrease() {
        let z = ZipfSampler::new(100, 1.0);
        let total: f64 = (0..100).map(|i| probability(&z, i)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(probability(&z, 0) > probability(&z, 10));
        assert!(probability(&z, 10) > probability(&z, 90));
    }

    #[test]
    fn uniform_when_s_is_zero() {
        let z = ZipfSampler::new(50, 0.0);
        let p0 = probability(&z, 0);
        let p49 = probability(&z, 49);
        assert!((p0 - p49).abs() < 1e-9);
    }

    #[test]
    fn sampling_respects_skew() {
        let z = ZipfSampler::new(1000, 1.0);
        let mut rng = DetRng::new(7);
        let mut head = 0;
        let n = 20_000;
        for _ in 0..n {
            if z.sample(&mut rng) < 10 {
                head += 1;
            }
        }
        // The top 10 of 1000 items should receive roughly 39% of the mass at s=1.
        let frac = head as f64 / n as f64;
        assert!((0.3..0.5).contains(&frac), "head fraction = {frac}");
    }

    #[test]
    fn samples_are_always_in_range() {
        let z = ZipfSampler::new(7, 1.2);
        let mut rng = DetRng::new(9);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 7);
        }
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_panics() {
        let _ = ZipfSampler::new(0, 1.0);
    }
}

//! Per-link latency models.

use qb_common::{DetRng, SimDuration};

/// How one-way network latency between two peers is sampled.
///
/// The defaults are chosen to mimic wide-area peer-to-peer deployments
/// (tens of milliseconds between zones, a few milliseconds within a zone),
/// matching the DWeb setting of the paper where peers are end-user devices
/// scattered across the Internet.
#[derive(Debug, Clone)]
pub enum LatencyModel {
    /// Fixed latency for every message.
    Constant { micros: u64 },
    /// Uniformly distributed latency in `[lo_micros, hi_micros]`.
    Uniform { lo_micros: u64, hi_micros: u64 },
    /// Log-normal latency: `exp(N(mu, sigma))` milliseconds, the classic
    /// heavy-tailed WAN model. `median_ms` is `exp(mu)`.
    LogNormal { median_ms: f64, sigma: f64 },
    /// Zone-based latency: peers in the same zone see `intra_micros`,
    /// peers in different zones see `inter_micros` (both with +/-20% jitter).
    Zoned {
        intra_micros: u64,
        inter_micros: u64,
    },
}

impl Default for LatencyModel {
    fn default() -> Self {
        // A reasonable WAN default: median 40ms one-way, moderately heavy tail.
        LatencyModel::LogNormal {
            median_ms: 40.0,
            sigma: 0.5,
        }
    }
}

impl LatencyModel {
    /// A LAN-like model, useful in unit tests where latency is irrelevant.
    pub fn lan() -> LatencyModel {
        LatencyModel::Constant { micros: 500 }
    }

    /// Sample the one-way latency between `zone_a` and `zone_b`.
    pub fn sample(&self, rng: &mut DetRng, zone_a: usize, zone_b: usize) -> SimDuration {
        match self {
            LatencyModel::Constant { micros } => SimDuration::from_micros(*micros),
            LatencyModel::Uniform {
                lo_micros,
                hi_micros,
            } => {
                let (lo, hi) = (*lo_micros.min(hi_micros), *lo_micros.max(hi_micros));
                if lo == hi {
                    SimDuration::from_micros(lo)
                } else {
                    SimDuration::from_micros(lo + rng.gen_range(hi - lo + 1))
                }
            }
            LatencyModel::LogNormal { median_ms, sigma } => {
                let mu = median_ms.max(1e-3).ln();
                let z = rng.gen_normal(0.0, 1.0);
                let ms = (mu + sigma * z).exp();
                // Clamp the tail so a single pathological sample cannot distort
                // an entire experiment run.
                SimDuration::from_millis_f64(ms.min(median_ms * 50.0))
            }
            LatencyModel::Zoned {
                intra_micros,
                inter_micros,
            } => {
                let base = if zone_a == zone_b {
                    *intra_micros
                } else {
                    *inter_micros
                };
                let jitter = (base as f64) * 0.2 * (rng.gen_f64() * 2.0 - 1.0);
                SimDuration::from_micros(((base as f64) + jitter).max(1.0) as u64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::Constant { micros: 1234 };
        let mut rng = DetRng::new(1);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng, 0, 1).as_micros(), 1234);
        }
    }

    #[test]
    fn uniform_stays_in_range() {
        let m = LatencyModel::Uniform {
            lo_micros: 100,
            hi_micros: 200,
        };
        let mut rng = DetRng::new(2);
        for _ in 0..1000 {
            let v = m.sample(&mut rng, 0, 0).as_micros();
            assert!((100..=200).contains(&v));
        }
    }

    #[test]
    fn lognormal_median_roughly_matches() {
        let m = LatencyModel::LogNormal {
            median_ms: 40.0,
            sigma: 0.5,
        };
        let mut rng = DetRng::new(3);
        let mut samples: Vec<f64> = (0..5000)
            .map(|_| m.sample(&mut rng, 0, 1).as_millis_f64())
            .collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((30.0..50.0).contains(&median), "median={median}");
    }

    #[test]
    fn zoned_intra_faster_than_inter() {
        let m = LatencyModel::Zoned {
            intra_micros: 2_000,
            inter_micros: 60_000,
        };
        let mut rng = DetRng::new(4);
        let intra: u64 = (0..100).map(|_| m.sample(&mut rng, 1, 1).as_micros()).sum();
        let inter: u64 = (0..100).map(|_| m.sample(&mut rng, 1, 2).as_micros()).sum();
        assert!(intra < inter);
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let m = LatencyModel::default();
        let mut a = DetRng::new(99);
        let mut b = DetRng::new(99);
        for _ in 0..50 {
            assert_eq!(m.sample(&mut a, 0, 1), m.sample(&mut b, 0, 1));
        }
    }
}

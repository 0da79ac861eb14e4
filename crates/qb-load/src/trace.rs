//! Arrival-trace generation.
//!
//! An [`ArrivalTrace`] is a time-ordered list of `(offset, query)` pairs: the
//! *open-loop* schedule on which queries hit the fleet, independent of how
//! fast the fleet answers them. Three ingredients, all deterministic from
//! the seed in [`TraceConfig`]:
//!
//! * **Arrival process** — a non-homogeneous Poisson process realized by
//!   *thinning*: candidate arrivals are drawn at the shape's peak rate with
//!   exponential inter-arrival gaps, then each candidate survives with
//!   probability `rate(t) / peak_rate`. The surviving points are exactly a
//!   Poisson process with the time-varying intensity [`RateShape::rate_at`].
//! * **Rate shape** — constant or flash-crowd spike ([`RateShape`]).
//! * **Popularity** — each arrival picks its query from a pool of distinct
//!   queries through a Zipf sampler; the ranking is fixed for the whole
//!   trace.

use qb_common::{DetRng, SimDuration};
use qb_workload::{Corpus, QueryWorkload, ZipfSampler};

/// Time-varying arrival-rate shape, as a multiplier on the base rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RateShape {
    /// Flat `base_qps` for the whole trace.
    Constant,
    /// Flat base rate with a burst of `multiplier * base` inside
    /// `[at, at + duration)` — the "front page of the fediverse" moment.
    FlashCrowd {
        /// Burst start offset.
        at: SimDuration,
        /// Burst length.
        duration: SimDuration,
        /// Rate multiplier during the burst (≥ 1).
        multiplier: f64,
    },
}

impl RateShape {
    /// Instantaneous rate multiplier at `offset` from the trace start.
    pub fn multiplier_at(&self, offset: SimDuration) -> f64 {
        match *self {
            RateShape::Constant => 1.0,
            RateShape::FlashCrowd {
                at,
                duration,
                multiplier,
            } => {
                if offset >= at && offset.as_micros() < at.as_micros() + duration.as_micros() {
                    multiplier
                } else {
                    1.0
                }
            }
        }
    }

    /// Instantaneous arrival rate (queries/sec) at `offset`.
    pub fn rate_at(&self, base_qps: f64, offset: SimDuration) -> f64 {
        base_qps * self.multiplier_at(offset)
    }

    /// The shape's peak multiplier — the thinning envelope.
    pub fn peak_multiplier(&self) -> f64 {
        match *self {
            RateShape::Constant => 1.0,
            RateShape::FlashCrowd { multiplier, .. } => multiplier.max(1.0),
        }
    }

    fn validate(&self) -> Result<(), String> {
        match *self {
            RateShape::Constant => Ok(()),
            RateShape::FlashCrowd {
                duration,
                multiplier,
                ..
            } => {
                if duration == SimDuration::ZERO {
                    return Err("flash-crowd duration must be positive".into());
                }
                if multiplier < 1.0 {
                    return Err("flash-crowd multiplier must be >= 1".into());
                }
                Ok(())
            }
        }
    }
}

/// Everything that determines a trace; same config → byte-identical trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Seed for every stochastic decision (arrival gaps, thinning,
    /// popularity draws).
    pub seed: u64,
    /// Trace length; no arrival lands at or past this offset.
    pub duration: SimDuration,
    /// Base arrival rate in queries/sec; the shape multiplies this.
    pub base_qps: f64,
    /// Rate shape over the trace.
    pub shape: RateShape,
    /// Number of distinct queries in the popularity pool.
    pub pool_size: usize,
    /// Zipf skew of query popularity over the pool (0 = uniform).
    pub zipf_s: f64,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            seed: 0x10AD,
            duration: SimDuration::from_secs(10),
            base_qps: 50.0,
            shape: RateShape::Constant,
            pool_size: 128,
            zipf_s: 1.0,
        }
    }
}

impl TraceConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.duration == SimDuration::ZERO {
            return Err("trace duration must be positive".into());
        }
        if self.base_qps <= 0.0 || !self.base_qps.is_finite() {
            return Err("base_qps must be positive and finite".into());
        }
        if self.pool_size == 0 {
            return Err("pool_size must be positive".into());
        }
        if self.zipf_s < 0.0 {
            return Err("zipf_s must be >= 0".into());
        }
        self.shape.validate()
    }
}

/// One arrival: a query hitting the fleet `offset` after the trace start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Arrival {
    /// Offset from the trace start.
    pub offset: SimDuration,
    /// The query string.
    pub query: String,
}

/// A generated open-loop trace.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrivalTrace {
    /// Time-ordered arrivals.
    pub arrivals: Vec<Arrival>,
    /// The distinct-query pool the arrivals draw from.
    pub pool: Vec<String>,
    /// The config that produced this trace.
    pub config: TraceConfig,
}

impl ArrivalTrace {
    /// Generate a trace against a corpus. The query pool comes from
    /// [`QueryWorkload::generate_pool`] so popularity skew is not diluted by
    /// in-pool duplicates.
    ///
    /// # Panics
    /// Panics if the config fails [`TraceConfig::validate`] or the corpus
    /// yields an empty pool.
    pub fn generate(corpus: &Corpus, config: &TraceConfig) -> ArrivalTrace {
        config.validate().expect("invalid TraceConfig");
        let mut rng = DetRng::new(config.seed);
        let workload = QueryWorkload::new(corpus);
        let pool = workload.generate_pool(corpus, &mut rng.fork(1), config.pool_size);
        assert!(!pool.is_empty(), "corpus yielded an empty query pool");
        let zipf = ZipfSampler::new(pool.len(), config.zipf_s);
        let mut arrival_rng = rng.fork(2);
        let mut pick_rng = rng.fork(3);

        // Thinning: candidates at the peak rate, kept with p = rate/peak.
        let peak_qps = config.base_qps * config.shape.peak_multiplier();
        let mean_gap_us = 1_000_000.0 / peak_qps;
        let mut arrivals = Vec::new();
        let mut t_us = 0.0f64;
        loop {
            t_us += arrival_rng.gen_exp(mean_gap_us).max(0.0);
            let offset = SimDuration::from_micros(t_us as u64);
            if offset >= config.duration {
                break;
            }
            let keep = config.shape.rate_at(config.base_qps, offset) / peak_qps;
            if !arrival_rng.gen_bool(keep.clamp(0.0, 1.0)) {
                continue;
            }
            arrivals.push(Arrival {
                offset,
                query: pool[zipf.sample(&mut pick_rng)].clone(),
            });
        }

        ArrivalTrace {
            arrivals,
            pool,
            config: config.clone(),
        }
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Mean offered rate over the trace duration, in queries/sec.
    pub fn offered_qps(&self) -> f64 {
        self.arrivals.len() as f64 / self.config.duration.as_secs_f64()
    }

    /// Arrival count inside `[from, to)` — burst/trough inspection.
    pub fn arrivals_between(&self, from: SimDuration, to: SimDuration) -> usize {
        self.arrivals
            .iter()
            .filter(|a| a.offset >= from && a.offset < to)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_workload::{CorpusConfig, CorpusGenerator};

    fn corpus() -> Corpus {
        let config = CorpusConfig {
            num_pages: 20,
            vocab_size: 200,
            zipf_s: 1.0,
            avg_doc_len: 30,
        };
        CorpusGenerator::new(config).generate(&mut DetRng::new(7))
    }

    #[test]
    fn same_config_same_trace() {
        let c = corpus();
        let cfg = TraceConfig::default();
        let a = ArrivalTrace::generate(&c, &cfg);
        let b = ArrivalTrace::generate(&c, &cfg);
        assert_eq!(a, b);
        let different = ArrivalTrace::generate(
            &c,
            &TraceConfig {
                seed: cfg.seed + 1,
                ..cfg
            },
        );
        assert_ne!(a.arrivals, different.arrivals);
    }

    #[test]
    fn arrivals_are_sorted_and_in_range() {
        let c = corpus();
        let trace = ArrivalTrace::generate(&c, &TraceConfig::default());
        assert!(!trace.is_empty());
        for pair in trace.arrivals.windows(2) {
            assert!(pair[0].offset <= pair[1].offset);
        }
        assert!(trace.arrivals.last().unwrap().offset < trace.config.duration);
    }

    #[test]
    fn constant_rate_is_close_to_base() {
        let c = corpus();
        let cfg = TraceConfig {
            duration: SimDuration::from_secs(40),
            base_qps: 100.0,
            ..TraceConfig::default()
        };
        let trace = ArrivalTrace::generate(&c, &cfg);
        // 4000 expected arrivals; ±10% comfortably covers Poisson noise.
        let qps = trace.offered_qps();
        assert!((90.0..=110.0).contains(&qps), "offered {qps} q/s");
    }

    #[test]
    fn flash_crowd_concentrates_arrivals() {
        let c = corpus();
        let at = SimDuration::from_secs(4);
        let duration = SimDuration::from_secs(2);
        let cfg = TraceConfig {
            duration: SimDuration::from_secs(10),
            base_qps: 50.0,
            shape: RateShape::FlashCrowd {
                at,
                duration,
                multiplier: 8.0,
            },
            ..TraceConfig::default()
        };
        let trace = ArrivalTrace::generate(&c, &cfg);
        let in_burst = trace.arrivals_between(at, SimDuration::from_secs(6));
        let before = trace.arrivals_between(SimDuration::ZERO, SimDuration::from_secs(2));
        // Burst window should see ~8x the arrivals of an equal quiet window.
        assert!(
            in_burst > before * 4,
            "burst {in_burst} vs quiet {before} arrivals"
        );
    }

    #[test]
    fn the_hot_query_is_stable_across_the_trace() {
        let c = corpus();
        let base = TraceConfig {
            duration: SimDuration::from_secs(20),
            base_qps: 100.0,
            zipf_s: 1.5,
            pool_size: 32,
            ..TraceConfig::default()
        };
        let hot_in = |trace: &ArrivalTrace, from: u64, to: u64| -> String {
            let mut counts = std::collections::HashMap::new();
            for a in &trace.arrivals {
                if a.offset >= SimDuration::from_secs(from) && a.offset < SimDuration::from_secs(to)
                {
                    *counts.entry(a.query.clone()).or_insert(0u32) += 1;
                }
            }
            counts
                .into_iter()
                .max_by_key(|(q, n)| (*n, q.clone()))
                .unwrap()
                .0
        };
        let stable = ArrivalTrace::generate(&c, &base);
        assert_eq!(hot_in(&stable, 0, 10), hot_in(&stable, 10, 20));
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let ok = TraceConfig::default();
        assert!(ok.validate().is_ok());
        let mut c = ok.clone();
        c.base_qps = 0.0;
        assert!(c.validate().is_err());
        let mut c = ok.clone();
        c.pool_size = 0;
        assert!(c.validate().is_err());
        let mut c = ok.clone();
        c.duration = SimDuration::ZERO;
        assert!(c.validate().is_err());
        let mut c = ok;
        c.shape = RateShape::FlashCrowd {
            at: SimDuration::ZERO,
            duration: SimDuration::ZERO,
            multiplier: 2.0,
        };
        assert!(c.validate().is_err());
    }
}

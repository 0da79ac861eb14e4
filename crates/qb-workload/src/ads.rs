//! Advertiser workload: campaigns targeting head keywords, plus a simple
//! click model for the pay-per-click experiments.

use crate::corpus::Corpus;
use crate::zipf::ZipfSampler;
use qb_common::DetRng;

/// Specification of one campaign an advertiser will open on the ad contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdSpec {
    /// Advertiser account id.
    pub advertiser: u64,
    /// Targeted keywords (from the corpus vocabulary head).
    pub keywords: Vec<String>,
    /// Bid per click in nectar.
    pub bid_per_click: u64,
    /// Campaign budget in nectar.
    pub budget: u64,
}

/// First account id used for advertisers.
pub const ADVERTISER_ACCOUNT_BASE: u64 = 5_000;

/// Probability a user clicks the ad shown with a result page.
pub const CLICK_THROUGH_RATE: f64 = 0.15;

/// Generates advertiser campaigns and models user click behaviour.
#[derive(Debug, Clone)]
pub struct AdvertiserWorkload {
    /// Number of advertisers.
    pub num_advertisers: usize,
    keyword_dist: ZipfSampler,
}

impl AdvertiserWorkload {
    /// Create a workload over a corpus vocabulary.
    pub fn new(corpus: &Corpus, num_advertisers: usize) -> AdvertiserWorkload {
        AdvertiserWorkload {
            num_advertisers,
            keyword_dist: ZipfSampler::new(corpus.vocabulary.len().clamp(1, 200), 1.0),
        }
    }

    /// Generate the campaign specifications.
    pub fn generate(&self, corpus: &Corpus, rng: &mut DetRng) -> Vec<AdSpec> {
        (0..self.num_advertisers)
            .map(|i| {
                let num_keywords = 1 + rng.gen_index(3);
                let mut keywords = Vec::with_capacity(num_keywords);
                for _ in 0..num_keywords {
                    let kw = corpus.vocabulary[self.keyword_dist.sample(rng)].clone();
                    if !keywords.contains(&kw) {
                        keywords.push(kw);
                    }
                }
                let bid = 20 + rng.gen_range(180);
                let budget = bid * (20 + rng.gen_range(200));
                AdSpec {
                    advertiser: ADVERTISER_ACCOUNT_BASE + i as u64,
                    keywords,
                    bid_per_click: bid,
                    budget,
                }
            })
            .collect()
    }

    /// Does the user click the displayed ad?
    pub fn user_clicks(&self, rng: &mut DetRng) -> bool {
        rng.gen_bool(CLICK_THROUGH_RATE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::{CorpusConfig, CorpusGenerator};

    fn corpus() -> Corpus {
        CorpusGenerator::new(CorpusConfig::tiny()).generate(&mut DetRng::new(5))
    }

    #[test]
    fn campaigns_are_well_formed() {
        let c = corpus();
        let w = AdvertiserWorkload::new(&c, 10);
        let specs = w.generate(&c, &mut DetRng::new(1));
        assert_eq!(specs.len(), 10);
        for s in &specs {
            assert!(!s.keywords.is_empty());
            assert!(s.bid_per_click > 0);
            assert!(s.budget >= s.bid_per_click);
            assert!(s.advertiser >= ADVERTISER_ACCOUNT_BASE);
            for kw in &s.keywords {
                assert!(c.vocabulary.contains(kw));
            }
        }
        // Distinct advertiser accounts.
        let accounts: std::collections::HashSet<u64> = specs.iter().map(|s| s.advertiser).collect();
        assert_eq!(accounts.len(), 10);
    }

    #[test]
    fn click_model_matches_configured_rate() {
        let c = corpus();
        let w = AdvertiserWorkload::new(&c, 1);
        let mut rng = DetRng::new(2);
        let clicks = (0..10_000).filter(|_| w.user_clicks(&mut rng)).count();
        let rate = clicks as f64 / 10_000.0;
        assert!((rate - CLICK_THROUGH_RATE).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn generation_is_deterministic() {
        let c = corpus();
        let w = AdvertiserWorkload::new(&c, 5);
        assert_eq!(
            w.generate(&c, &mut DetRng::new(7)),
            w.generate(&c, &mut DetRng::new(7))
        );
    }
}

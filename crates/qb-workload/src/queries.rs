//! Query workload generation.

use crate::corpus::Corpus;
use crate::zipf::ZipfSampler;
use qb_common::DetRng;

/// Minimum number of query terms.
pub const MIN_TERMS: usize = 1;

/// Maximum number of query terms.
pub const MAX_TERMS: usize = 3;

/// Generates keyword queries against a corpus.
///
/// Most queries are drawn from the text of an actual page (so they have
/// matching documents, like real navigational/informational queries); the
/// rest are sampled from the head of the vocabulary distribution and may
/// match nothing.
#[derive(Debug, Clone)]
pub struct QueryWorkload {
    /// Probability that a query is drawn from a real document's text.
    pub grounded_fraction: f64,
    term_dist: ZipfSampler,
    page_dist: ZipfSampler,
}

impl QueryWorkload {
    /// Create a workload for a corpus.
    pub fn new(corpus: &Corpus) -> QueryWorkload {
        QueryWorkload {
            grounded_fraction: 0.8,
            term_dist: ZipfSampler::new(corpus.vocabulary.len(), corpus.config.zipf_s),
            page_dist: ZipfSampler::new(corpus.pages.len().max(1), 0.7),
        }
    }

    /// Generate one query string.
    pub fn generate(&self, corpus: &Corpus, rng: &mut DetRng) -> String {
        let num_terms = MIN_TERMS + rng.gen_index(MAX_TERMS - MIN_TERMS + 1);
        if rng.gen_bool(self.grounded_fraction) && !corpus.pages.is_empty() {
            // Grounded query: pick consecutive-ish words from a popular page.
            let page = &corpus.pages[self.page_dist.sample(rng)];
            let words: Vec<&str> = page.body.split_whitespace().collect();
            if !words.is_empty() {
                let mut terms = Vec::with_capacity(num_terms);
                for _ in 0..num_terms {
                    terms.push(words[rng.gen_index(words.len())].to_string());
                }
                return terms.join(" ");
            }
        }
        // Vocabulary query biased to head terms.
        (0..num_terms)
            .map(|_| corpus.vocabulary[self.term_dist.sample(rng)].clone())
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// Generate a batch of queries.
    pub fn generate_batch(&self, corpus: &Corpus, rng: &mut DetRng, count: usize) -> Vec<String> {
        (0..count).map(|_| self.generate(corpus, rng)).collect()
    }

    /// Generate a pool of `count` **distinct** queries, for samplers that
    /// layer their own popularity distribution on top (an open-loop trace
    /// picks pool entries through a Zipf sampler, so duplicates inside the
    /// pool would silently skew the intended skew). Draws until the pool is
    /// full; gives up growing — returning a shorter pool — if the corpus
    /// cannot yield `count` distinct queries.
    pub fn generate_pool(&self, corpus: &Corpus, rng: &mut DetRng, count: usize) -> Vec<String> {
        let mut seen = std::collections::HashSet::with_capacity(count);
        let mut pool = Vec::with_capacity(count);
        let mut dry_draws = 0usize;
        while pool.len() < count && dry_draws < 50 {
            let q = self.generate(corpus, rng);
            if seen.insert(q.clone()) {
                pool.push(q);
                dry_draws = 0;
            } else {
                dry_draws += 1;
            }
        }
        pool
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
    fn queries_have_bounded_term_counts() {
        let c = corpus();
        let w = QueryWorkload::new(&c);
        let mut rng = DetRng::new(1);
        for q in w.generate_batch(&c, &mut rng, 200) {
            let terms = q.split_whitespace().count();
            assert!((MIN_TERMS..=MAX_TERMS).contains(&terms), "query '{q}'");
        }
    }

    #[test]
    fn grounded_queries_use_corpus_words() {
        let c = corpus();
        let mut w = QueryWorkload::new(&c);
        w.grounded_fraction = 1.0;
        let mut rng = DetRng::new(2);
        let all_words: std::collections::HashSet<&str> = c
            .pages
            .iter()
            .flat_map(|p| p.body.split_whitespace())
            .collect();
        for q in w.generate_batch(&c, &mut rng, 50) {
            for t in q.split_whitespace() {
                assert!(all_words.contains(t), "term {t} not from corpus");
            }
        }
    }

    #[test]
    fn pool_is_distinct_and_deterministic() {
        let c = corpus();
        let w = QueryWorkload::new(&c);
        let a = w.generate_pool(&c, &mut DetRng::new(4), 64);
        let b = w.generate_pool(&c, &mut DetRng::new(4), 64);
        assert_eq!(a, b);
        let distinct: std::collections::HashSet<&String> = a.iter().collect();
        assert_eq!(distinct.len(), a.len(), "pool entries must be distinct");
        assert!(!a.is_empty());
    }

    #[test]
    fn generation_is_deterministic() {
        let c = corpus();
        let w = QueryWorkload::new(&c);
        let a = w.generate_batch(&c, &mut DetRng::new(3), 20);
        let b = w.generate_batch(&c, &mut DetRng::new(3), 20);
        assert_eq!(a, b);
    }
}

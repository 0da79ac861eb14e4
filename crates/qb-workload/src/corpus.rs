//! Synthetic web corpus generation.

use crate::linkgraph::generate_links;
use crate::zipf::ZipfSampler;
use qb_common::DetRng;
use qb_dweb::WebPage;

/// First account id used for creators (creator i → account base + i).
pub const CREATOR_ACCOUNT_BASE: u64 = 1_000;

/// Number of distinct content creators owning the pages (ownership is
/// itself Zipf-distributed: a few creators own many pages).
pub const NUM_CREATORS: usize = 50;

/// Corpus generation parameters.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of pages.
    pub num_pages: usize,
    /// Vocabulary size.
    pub vocab_size: usize,
    /// Zipf exponent of the term distribution.
    pub zipf_s: f64,
    /// Mean document length in words.
    pub avg_doc_len: usize,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            num_pages: 500,
            vocab_size: 5_000,
            zipf_s: 1.0,
            avg_doc_len: 120,
        }
    }
}

impl CorpusConfig {
    /// A tiny corpus for unit tests.
    #[cfg(test)]
    pub fn tiny() -> CorpusConfig {
        CorpusConfig {
            num_pages: 20,
            vocab_size: 200,
            zipf_s: 1.0,
            avg_doc_len: 30,
        }
    }
}

/// A generated corpus.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// The pages (index = page id within the corpus).
    pub pages: Vec<WebPage>,
    /// Creator account id of each page.
    pub creators: Vec<u64>,
    /// The vocabulary used to generate bodies (useful for query generation).
    pub vocabulary: Vec<String>,
    /// The configuration that produced the corpus.
    pub config: CorpusConfig,
}

/// Deterministic corpus generator.
#[derive(Debug, Clone)]
pub struct CorpusGenerator {
    config: CorpusConfig,
}

/// Build a pronounceable synthetic word for a vocabulary index. Words are
/// distinct per index and deterministic across runs.
fn word_for_index(i: usize) -> String {
    const CONSONANTS: &[&str] = &[
        "b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "ch", "st",
    ];
    const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ai", "ou"];
    let mut word = String::new();
    let mut x = i + 1;
    while x > 0 {
        word.push_str(CONSONANTS[x % CONSONANTS.len()]);
        x /= CONSONANTS.len();
        word.push_str(VOWELS[x % VOWELS.len()]);
        x /= VOWELS.len();
    }
    // Suffix a stable tag so stemming never conflates two vocabulary words.
    word.push_str(&format!("q{i}"));
    word
}

impl CorpusGenerator {
    /// Create a generator.
    pub fn new(config: CorpusConfig) -> CorpusGenerator {
        CorpusGenerator { config }
    }

    /// Generate a corpus.
    pub fn generate(&self, rng: &mut DetRng) -> Corpus {
        let cfg = &self.config;
        let vocabulary: Vec<String> = (0..cfg.vocab_size).map(word_for_index).collect();
        let term_dist = ZipfSampler::new(cfg.vocab_size, cfg.zipf_s);
        let creator_dist = ZipfSampler::new(NUM_CREATORS, 0.8);

        let names: Vec<String> = (0..cfg.num_pages)
            .map(|i| format!("site{:03}/page{:04}", i % (cfg.num_pages / 10 + 1), i))
            .collect();
        let link_targets = generate_links(&names, rng);

        let mut pages = Vec::with_capacity(cfg.num_pages);
        let mut creators = Vec::with_capacity(cfg.num_pages);
        for (i, name) in names.iter().enumerate() {
            let creator_idx = creator_dist.sample(rng) as u64;
            let creator = CREATOR_ACCOUNT_BASE + creator_idx;
            let len = ((rng.gen_normal(cfg.avg_doc_len as f64, cfg.avg_doc_len as f64 * 0.3))
                .max(10.0)) as usize;
            let mut body = String::with_capacity(len * 8);
            for w in 0..len {
                if w > 0 {
                    body.push(' ');
                }
                body.push_str(&vocabulary[term_dist.sample(rng)]);
            }
            let title_terms: Vec<String> = (0..3)
                .map(|_| vocabulary[term_dist.sample(rng)].clone())
                .collect();
            let title = format!("Page {i}: {}", title_terms.join(" "));
            pages.push(WebPage::new(
                name.clone(),
                title,
                body,
                link_targets[i].clone(),
            ));
            creators.push(creator);
        }
        Corpus {
            pages,
            creators,
            vocabulary,
            config: cfg.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_are_distinct_and_deterministic() {
        let a = word_for_index(5);
        assert_eq!(a, word_for_index(5));
        let all: std::collections::HashSet<String> = (0..2000).map(word_for_index).collect();
        assert_eq!(all.len(), 2000);
    }

    #[test]
    fn corpus_has_requested_shape() {
        let cfg = CorpusConfig::tiny();
        let corpus = CorpusGenerator::new(cfg.clone()).generate(&mut DetRng::new(1));
        assert_eq!(corpus.pages.len(), cfg.num_pages);
        assert_eq!(corpus.creators.len(), cfg.num_pages);
        assert_eq!(corpus.vocabulary.len(), cfg.vocab_size);
        // Page names are unique.
        let names: std::collections::HashSet<&str> =
            corpus.pages.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names.len(), cfg.num_pages);
        // Bodies are non-empty and links point at corpus pages.
        for p in &corpus.pages {
            assert!(!p.body.is_empty());
            for l in &p.out_links {
                assert!(names.contains(l.as_str()), "dangling link {l}");
            }
        }
    }

    #[test]
    fn corpus_is_deterministic_per_seed() {
        let cfg = CorpusConfig::tiny();
        let a = CorpusGenerator::new(cfg.clone()).generate(&mut DetRng::new(42));
        let b = CorpusGenerator::new(cfg.clone()).generate(&mut DetRng::new(42));
        let c = CorpusGenerator::new(cfg).generate(&mut DetRng::new(43));
        assert_eq!(a.pages, b.pages);
        assert_ne!(a.pages, c.pages);
    }

    #[test]
    fn creators_follow_a_skewed_distribution() {
        let mut cfg = CorpusConfig::tiny();
        cfg.num_pages = 200;
        let corpus = CorpusGenerator::new(cfg).generate(&mut DetRng::new(3));
        let mut counts = std::collections::HashMap::new();
        for c in &corpus.creators {
            *counts.entry(*c).or_insert(0usize) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        let min = counts.values().min().copied().unwrap_or(0);
        assert!(max > min, "creator ownership should be skewed");
    }
}

//! Relevance scoring: BM25, blended with a static page rank.

/// Okapi BM25.
#[derive(Debug, Clone, Copy)]
pub struct Bm25 {
    /// Term-frequency saturation parameter.
    pub k1: f64,
    /// Length-normalisation parameter.
    pub b: f64,
}

impl Default for Bm25 {
    fn default() -> Self {
        Bm25 { k1: 1.2, b: 0.75 }
    }
}

impl Bm25 {
    /// The term's inverse document frequency: the factor of
    /// [`Bm25::score`] that depends only on the term, so a caller scoring
    /// many postings of one term computes it (one `ln`) once.
    pub fn idf(&self, doc_freq: usize, num_docs: usize) -> f64 {
        if num_docs == 0 {
            return 0.0;
        }
        let n = num_docs as f64;
        let df = doc_freq.max(1) as f64;
        // BM25+-style floor at 0 to avoid negative idf for very common terms.
        ((n - df + 0.5) / (df + 0.5) + 1.0).ln().max(0.0)
    }

    /// One posting's contribution given its term's [`Bm25::idf`]; this is
    /// the formula [`Bm25::score`] evaluates, so both agree bit for bit.
    pub fn score_with_idf(&self, idf: f64, term_freq: u32, doc_len: u32, avg_doc_len: f64) -> f64 {
        if term_freq == 0 {
            return 0.0;
        }
        let tf = term_freq as f64;
        let dl = doc_len.max(1) as f64;
        let avg = avg_doc_len.max(1.0);
        let denom = tf + self.k1 * (1.0 - self.b + self.b * dl / avg);
        idf * tf * (self.k1 + 1.0) / denom
    }

    /// Score one term's contribution for one document.
    ///
    /// * `term_freq` — occurrences of the term in the document
    /// * `doc_len` — document length in terms
    /// * `avg_doc_len` — average document length in the collection
    /// * `doc_freq` — number of documents containing the term
    /// * `num_docs` — collection size
    pub fn score(
        &self,
        term_freq: u32,
        doc_len: u32,
        avg_doc_len: f64,
        doc_freq: usize,
        num_docs: usize,
    ) -> f64 {
        self.score_with_idf(
            self.idf(doc_freq, num_docs),
            term_freq,
            doc_len,
            avg_doc_len,
        )
    }
}

/// A page's static rank (PageRank) on the scale relevance is blended on:
/// ranks are tiny probabilities, so they are log-scaled into a comparable
/// range. It depends on the page alone, so a caller that blends many
/// queries against one rank vector computes it (one `ln`) once per page.
pub fn rank_component(rank: f64) -> f64 {
    (1.0 + rank.max(0.0) * 1e6).ln()
}

/// Blend a relevance score with a page's [`rank_component`]; this is the
/// formula [`blend_with_rank`] evaluates, so both agree bit for bit.
pub fn blend_with_component(relevance: f64, rank_component: f64, rank_weight: f64) -> f64 {
    let w = rank_weight.clamp(0.0, 1.0);
    (1.0 - w) * relevance + w * relevance.max(1e-9) * rank_component
}

/// Blend a relevance score with a static page-importance score (PageRank),
/// as the QueenBee frontend does when assembling results. `rank_weight` in
/// `[0, 1]` controls how much the static rank matters.
pub fn blend_with_rank(relevance: f64, rank: f64, rank_weight: f64) -> f64 {
    blend_with_component(relevance, rank_component(rank), rank_weight)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bm25_prefers_rarer_terms() {
        let s = Bm25::default();
        let rare = s.score(3, 100, 100.0, 5, 10_000);
        let common = s.score(3, 100, 100.0, 5_000, 10_000);
        assert!(rare > common);
    }

    #[test]
    fn bm25_term_frequency_saturates() {
        let s = Bm25::default();
        let one = s.score(1, 100, 100.0, 10, 1000);
        let five = s.score(5, 100, 100.0, 10, 1000);
        let fifty = s.score(50, 100, 100.0, 10, 1000);
        assert!(five > one);
        assert!(fifty > five);
        // Diminishing returns: the jump from 5 to 50 is smaller than 5x.
        assert!((fifty - five) < 4.0 * (five - one));
    }

    #[test]
    fn bm25_penalizes_long_documents() {
        let s = Bm25::default();
        let short = s.score(3, 50, 100.0, 10, 1000);
        let long = s.score(3, 500, 100.0, 10, 1000);
        assert!(short > long);
    }

    #[test]
    fn bm25_never_negative_and_zero_cases() {
        let s = Bm25::default();
        assert_eq!(s.score(0, 10, 10.0, 1, 100), 0.0);
        assert_eq!(s.score(3, 10, 10.0, 1, 0), 0.0);
        // Extremely common term: idf floored at zero, never negative.
        assert!(s.score(3, 10, 10.0, 100, 100) >= 0.0);
    }

    #[test]
    fn bm25_idf_hoist_is_bit_identical_to_the_one_piece_formula() {
        // The formula as `score` evaluated it before the idf was split out.
        fn one_piece(s: &Bm25, tf: u32, dl: u32, avg: f64, df: usize, n: usize) -> f64 {
            if tf == 0 || n == 0 {
                return 0.0;
            }
            let (nf, dff) = (n as f64, df.max(1) as f64);
            let idf = ((nf - dff + 0.5) / (dff + 0.5) + 1.0).ln().max(0.0);
            let (tf, dl, avg) = (tf as f64, dl.max(1) as f64, avg.max(1.0));
            let denom = tf + s.k1 * (1.0 - s.b + s.b * dl / avg);
            idf * tf * (s.k1 + 1.0) / denom
        }
        let s = Bm25::default();
        // Edges: idf floored at 0 (df >= N), term_freq 0, num_docs 0,
        // df 0, zero lengths — and ordinary values between them.
        for n in [0usize, 1, 2, 7, 300, 10_000] {
            for df in [0usize, 1, 2, 7, 299, 300, 301, 50_000] {
                let idf = s.idf(df, n);
                assert!(idf >= 0.0);
                for tf in [0u32, 1, 3, 50] {
                    for (dl, avg) in [(0u32, 0.0), (1, 1.0), (40, 117.3), (900, 12.5)] {
                        let expected = one_piece(&s, tf, dl, avg, df, n).to_bits();
                        assert_eq!(s.score_with_idf(idf, tf, dl, avg).to_bits(), expected);
                        assert_eq!(s.score(tf, dl, avg, df, n).to_bits(), expected);
                    }
                }
            }
        }
    }

    #[test]
    fn rank_component_split_is_bit_identical_to_the_one_piece_formula() {
        // The formula as `blend_with_rank` evaluated it before the rank
        // component was split out.
        fn one_piece(relevance: f64, rank: f64, rank_weight: f64) -> f64 {
            let w = rank_weight.clamp(0.0, 1.0);
            let rank_component = (1.0 + rank.max(0.0) * 1e6).ln();
            (1.0 - w) * relevance + w * relevance.max(1e-9) * rank_component
        }
        for rank in [-0.25, 0.0, 1e-9, 1e-3, 0.5] {
            let component = rank_component(rank);
            for weight in [-1.0, 0.0, 0.3, 1.0, 7.5] {
                for relevance in [0.0, 1e-12, 2.0] {
                    let expected = one_piece(relevance, rank, weight).to_bits();
                    let split = blend_with_component(relevance, component, weight);
                    assert_eq!(split.to_bits(), expected);
                    assert_eq!(blend_with_rank(relevance, rank, weight).to_bits(), expected);
                }
            }
        }
        // An unranked page blends as rank 0: the component is exactly 0.
        assert_eq!(rank_component(0.0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn rank_blending_monotone_in_rank() {
        let low = blend_with_rank(2.0, 1e-6, 0.3);
        let high = blend_with_rank(2.0, 1e-3, 0.3);
        assert!(high > low);
        // Weight 0 ignores rank entirely.
        assert_eq!(blend_with_rank(2.0, 0.5, 0.0), 2.0);
    }
}

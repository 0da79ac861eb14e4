//! Text analysis: tokenization, stopwords and light stemming.
//!
//! [`Analyzer::for_each_term`] streams each term through one caller-held
//! buffer (lowercased, stopword-filtered, stemmed in place, length-bounded),
//! so a caller that keeps the buffer analyses text without allocating;
//! [`Analyzer::analyze`] and [`Analyzer::term_frequencies`] collect owned
//! strings for callers that keep them.

/// English stopwords that carry no retrieval signal, sorted (looked up by
/// binary search). Deliberately short: a long list mostly shrinks the
/// index, a short one keeps tests predictable.
const STOPWORDS: &[&str] = &[
    "a", "an", "and", "are", "as", "at", "be", "but", "by", "for", "from", "has", "have", "in",
    "is", "it", "its", "of", "on", "or", "that", "the", "their", "this", "to", "was", "were",
    "which", "will", "with",
];

/// Suffixes the light stemmer strips when at least 3 bytes stay, tried in
/// order after "ization" and "ational" and before "ies".
const STRIPPED: &[&str] = &[
    "iveness", "fulness", "ousness", "ments", "ment", "ness", "ings", "ing", "edly", "ed", "ly",
];

/// Endings after which "es" is a plural marker (boxes, churches).
const SIBILANT_PLURALS: &[&str] = &["sses", "xes", "zes", "ches", "shes"];

/// Shortest term kept (after stemming), in bytes.
const MIN_TERM_LEN: usize = 2;

/// Longest term kept, in bytes (guards against degenerate tokens).
const MAX_TERM_LEN: usize = 32;

/// The text analyzer: every index and query shares one pipeline, so a
/// query term meets the document term it was analysed from.
#[derive(Debug, Clone, Default)]
pub struct Analyzer;

impl Analyzer {
    /// The analyzer.
    pub fn new() -> Analyzer {
        Analyzer
    }

    /// Is this term a stopword?
    pub fn is_stopword(&self, term: &str) -> bool {
        STOPWORDS.binary_search(&term).is_ok()
    }

    /// Light suffix stemmer: enough to conflate plurals and common verb
    /// forms without a full stemmer.
    pub fn stem(token: &str) -> String {
        let mut stem = token.to_string();
        Self::stem_in_place(&mut stem);
        stem
    }

    /// [`Analyzer::stem`] on a token held in `t`.
    fn stem_in_place(t: &mut String) {
        // (suffix, bytes that must stay, ending that replaces it); the
        // first rule that applies wins.
        let rule = [("ization", 3, "ize"), ("ational", 3, "ate")]
            .into_iter()
            .chain(STRIPPED.iter().map(|&suffix| (suffix, 3, "")))
            .chain([("ies", 2, "y")])
            .find(|&(suffix, min, _)| t.ends_with(suffix) && t.len() - suffix.len() >= min);
        if let Some((suffix, _, ending)) = rule {
            t.truncate(t.len() - suffix.len());
            t.push_str(ending);
        } else if t.len() >= 5 && SIBILANT_PLURALS.iter().any(|s| t.ends_with(s)) {
            t.truncate(t.len() - 2);
        } else if t.ends_with('s') && !t.ends_with("ss") && t.len() > 3 {
            t.pop();
        }
    }

    /// The full pipeline, streamed: call `each` with every term of `text`
    /// in text order — tokenized, stopwords dropped, stemmed, dropped by
    /// length. Each term is passed in `buf`, which is cleared first and
    /// reused for every token.
    pub fn for_each_term(&self, text: &str, buf: &mut String, mut each: impl FnMut(&str)) {
        buf.clear();
        // A trailing separator ends the last token.
        for ch in text.chars().chain([' ']) {
            if ch.is_alphanumeric() {
                buf.extend(ch.to_lowercase());
                continue;
            }
            if !buf.is_empty() && !self.is_stopword(buf) {
                Self::stem_in_place(buf);
                if (MIN_TERM_LEN..=MAX_TERM_LEN).contains(&buf.len()) {
                    each(buf);
                }
            }
            buf.clear();
        }
    }

    /// Full pipeline: tokenize, drop stopwords, stem, drop by length.
    pub fn analyze(&self, text: &str) -> Vec<String> {
        let mut terms = Vec::new();
        self.for_each_term(text, &mut String::new(), |t| terms.push(t.to_string()));
        terms
    }

    /// Analyze and return `(term, frequency)` pairs sorted by term.
    pub fn term_frequencies(&self, text: &str) -> Vec<(String, u32)> {
        let mut counts: std::collections::BTreeMap<String, u32> = std::collections::BTreeMap::new();
        self.for_each_term(text, &mut String::new(), |t| match counts.get_mut(t) {
            Some(count) => *count += 1,
            None => {
                counts.insert(t.to_string(), 1);
            }
        });
        counts.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The stemmer as a chain of early returns: the reference the rule
    /// table must agree with.
    fn reference_stem(t: &str) -> String {
        let try_strip = |s: &str, suffix: &str, min_stem: usize| -> Option<String> {
            if s.ends_with(suffix) && s.len() - suffix.len() >= min_stem {
                Some(s[..s.len() - suffix.len()].to_string())
            } else {
                None
            }
        };
        if let Some(s) = try_strip(t, "ization", 3) {
            return s + "ize";
        }
        if let Some(s) = try_strip(t, "ational", 3) {
            return s + "ate";
        }
        for (suffix, min_stem) in [("iveness", 3), ("fulness", 3), ("ousness", 3)] {
            if let Some(s) = try_strip(t, suffix, min_stem) {
                return s;
            }
        }
        for (suffix, min_stem) in [
            ("ments", 3),
            ("ment", 3),
            ("ness", 3),
            ("ings", 3),
            ("ing", 3),
            ("edly", 3),
            ("ed", 3),
            ("ly", 3),
        ] {
            if let Some(s) = try_strip(t, suffix, min_stem) {
                return s;
            }
        }
        if let Some(s) = try_strip(t, "ies", 2) {
            return s + "y";
        }
        for sib in ["sses", "xes", "zes", "ches", "shes"] {
            if let Some(s) = try_strip(t, "es", 3) {
                if t.ends_with(sib) {
                    return s;
                }
            }
        }
        if t.ends_with('s') && !t.ends_with("ss") && t.len() > 3 {
            return t[..t.len() - 1].to_string();
        }
        t.to_string()
    }

    /// Split text into raw lowercase alphanumeric tokens (no filtering):
    /// the reference pipeline's first stage.
    fn tokenize(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut current = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                current.extend(ch.to_lowercase());
            } else if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            tokens.push(current);
        }
        tokens
    }

    /// The pipeline in stages — tokenize, drop stopwords, stem, drop by
    /// length — each collecting its own strings: the reference the
    /// streaming analyzer must agree with.
    fn reference_analyze(text: &str) -> Vec<String> {
        tokenize(text)
            .into_iter()
            .filter(|t| !STOPWORDS.contains(&t.as_str()))
            .map(|t| reference_stem(&t))
            .filter(|t| t.len() >= 2 && t.len() <= 32)
            .collect()
    }

    /// Text built from generated pieces: arbitrary characters, characters
    /// whose lowercase is several chars or bytes, digits, separators,
    /// letter runs up to past the 32-byte bound, stemmer suffixes and
    /// stopwords.
    fn text_of(pieces: &[(u32, u8)]) -> String {
        let mut text = String::new();
        for &(v, kind) in pieces {
            match kind {
                0 => text.extend(char::from_u32(v % 0x11_0000)),
                1 => text.push(['İ', 'ẞ', 'Σ', 'ǅ', 'ﬀ'][v as usize % 5]),
                2 => text.push(char::from(b'0' + (v % 10) as u8)),
                3 => text.push([' ', ',', '-', '\n', '.'][v as usize % 5]),
                4 => text.extend((0..v % 35).map(|i| char::from(b'a' + (i % 26) as u8))),
                5 => text.push_str(
                    [
                        "ization", "ational", "ness", "ings", "ies", "sses", "ches", "s", "ly",
                    ][v as usize % 9],
                ),
                _ => text.push_str([" the ", " And ", " of "][v as usize % 3]),
            }
        }
        text
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn streaming_yields_the_staged_pipelines_terms_and_counts(
            pieces in proptest::collection::vec((any::<u32>(), 0u8..7), 0..24),
        ) {
            let a = Analyzer::new();
            let text = text_of(&pieces);
            let expected = reference_analyze(&text);
            prop_assert_eq!(a.analyze(&text), expected.clone(), "{:?}", text);
            let mut counts: BTreeMap<String, u32> = BTreeMap::new();
            for t in expected {
                *counts.entry(t).or_insert(0) += 1;
            }
            let counts: Vec<(String, u32)> = counts.into_iter().collect();
            prop_assert_eq!(a.term_frequencies(&text), counts);
        }
    }

    #[test]
    fn stopwords_are_sorted_for_binary_search() {
        assert!(STOPWORDS.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn terms_at_the_length_bounds_are_kept() {
        let a = Analyzer::new();
        let (two, thirty_two) = ("ab".to_string(), "x".repeat(32));
        let text = format!("{two} {thirty_two} {}x y", thirty_two);
        assert_eq!(a.analyze(&text), vec![two, thirty_two]);
        // 'İ' lowercases to two chars of three bytes: "i̇x" is 4 bytes.
        assert_eq!(
            a.analyze("İx ẞ"),
            vec!["i\u{307}x".to_string(), "ß".to_string()]
        );
    }

    #[test]
    fn tokenize_splits_on_non_alphanumeric() {
        assert_eq!(
            tokenize("Hello, DWeb-world! 42 times."),
            vec!["hello", "dweb", "world", "42", "times"]
        );
        assert!(tokenize("  ...  ").is_empty());
    }

    #[test]
    fn stopwords_are_removed() {
        let a = Analyzer::new();
        let terms = a.analyze("the search engine of the decentralized web");
        assert!(!terms.contains(&"the".to_string()));
        assert!(!terms.contains(&"of".to_string()));
        assert!(terms.contains(&"search".to_string()));
        assert!(terms.contains(&Analyzer::stem("decentralized")));
    }

    #[test]
    fn stemming_conflates_related_forms() {
        assert_eq!(Analyzer::stem("searching"), Analyzer::stem("searched"));
        assert_eq!(Analyzer::stem("indexes"), Analyzer::stem("index"));
        assert_eq!(Analyzer::stem("queries"), Analyzer::stem("query"));
        assert_eq!(Analyzer::stem("engines"), Analyzer::stem("engine"));
        // Short words are left alone.
        assert_eq!(Analyzer::stem("is"), "is");
        assert_eq!(Analyzer::stem("bees"), "bee");
    }

    #[test]
    fn analyze_applies_length_bounds() {
        let a = Analyzer::new();
        let terms = a.analyze("i x ab abc");
        assert!(!terms.contains(&"i".to_string()));
        assert!(!terms.contains(&"x".to_string()));
        assert!(terms.contains(&"ab".to_string()));
    }

    #[test]
    fn term_frequencies_count_and_sort() {
        let a = Analyzer::new();
        let tf = a.term_frequencies("bee bee honey bee nectar honey");
        assert_eq!(
            tf,
            vec![
                ("bee".to_string(), 3),
                ("honey".to_string(), 2),
                ("nectar".to_string(), 1)
            ]
        );
    }

    #[test]
    fn queries_and_documents_analyze_consistently() {
        // The frontend analyzes queries with the same pipeline as documents;
        // a plural query must match a singular document term.
        let a = Analyzer::new();
        let doc_terms = a.analyze("QueenBee rewards worker bees with honey");
        let query_terms = a.analyze("bee reward");
        for q in &query_terms {
            assert!(
                doc_terms.contains(q),
                "query term {q} not found in {doc_terms:?}"
            );
        }
    }

    #[test]
    fn unicode_text_does_not_panic_and_lowercases() {
        let a = Analyzer::new();
        let terms = a.analyze("Größe Überraschung café Привет 東京");
        assert!(terms
            .iter()
            .any(|t| t.contains("größe") || t.contains("grösse")));
        assert!(!terms.is_empty());
    }
}

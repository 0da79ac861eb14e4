//! The correctness oracle and failure accounting.
//!
//! A single-node reference — `qb_index::query::search` over one
//! `InvertedIndex` holding the same pages, re-indexed on every republish —
//! that every `Fresh` response's ranked top-k must equal exactly (ids,
//! names, versions, creators and score bits). A response served at weaker
//! freshness (`CacheOk`, `MaxStaleness`, or a `Fresh` request the
//! admission layer degraded) must equal the reference at *some* corpus
//! version inside its staleness bound.
//!
//! PageRank values are read back from the engine (`rank_of`): the oracle
//! checks the index, cache and serving path, not the rank computation.

use qb_common::{SimDuration, SimInstant};
use qb_dweb::WebPage;
use qb_index::{search, Analyzer, Bm25, InvertedIndex, Query, QueryMode, ScoredDoc};
use qb_queenbee::{Freshness, QueenBee, SearchRequest, SearchResponse};
use std::collections::{BTreeMap, HashMap};

/// Answers that were current until `until` for one tracked query.
type History = Vec<(SimInstant, Vec<ScoredDoc>)>;

pub struct Oracle {
    analyzer: Analyzer,
    index: InvertedIndex,
    /// Registry version per page name (1 on first publish, +1 per republish).
    versions: HashMap<String, u64>,
    ranks: HashMap<u64, f64>,
    rank_weight: f64,
    default_top_k: usize,
    /// How long a weaker-than-`Fresh` answer may lag (the result tier's TTL).
    cache_bound: SimDuration,
    /// Past answers of the queries that are read at weaker freshness,
    /// snapshotted just before each republish changes the index.
    tracked: BTreeMap<(String, usize), History>,
    /// Memo of reference answers at the current corpus version.
    memo: HashMap<(String, usize), Vec<ScoredDoc>>,
}

/// Running tally of what the benchmark attempted and what failed. An op
/// fails when the engine returned an error, shed it, answered it late or
/// answered it wrongly.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub errored: u64,
    pub shed: u64,
    pub late: u64,
    pub wrong: u64,
    /// Served ops answered at weaker freshness than they asked for.
    pub degraded: u64,
}

impl Tally {
    pub fn failed(&self) -> u64 {
        self.errored + self.shed + self.late + self.wrong
    }

    pub fn served(&self) -> u64 {
        self.attempted - self.failed()
    }

    /// No wrong answer and nothing errored; shed and late ops are failures
    /// but not incorrectness.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.errored == 0
    }

    pub fn served_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.served() as f64 / self.attempted as f64
        }
    }

    pub fn undegraded_frac(&self) -> f64 {
        if self.served() == 0 {
            0.0
        } else {
            (self.served() - self.degraded.min(self.served())) as f64 / self.served() as f64
        }
    }
}

impl Oracle {
    pub fn new(rank_weight: f64, default_top_k: usize, cache_bound: SimDuration) -> Oracle {
        Oracle {
            analyzer: Analyzer::new(),
            index: InvertedIndex::new(),
            versions: HashMap::new(),
            ranks: HashMap::new(),
            rank_weight,
            default_top_k,
            cache_bound,
            tracked: BTreeMap::new(),
            memo: HashMap::new(),
        }
    }

    /// Declare a query that will be read at weaker-than-`Fresh` freshness,
    /// so its past answers are kept across republishes.
    pub fn track(&mut self, request: &SearchRequest) {
        if !matches!(request.freshness, Freshness::Fresh) {
            let key = (request.query.clone(), self.top_k(request));
            self.tracked.entry(key).or_default();
        }
    }

    fn top_k(&self, request: &SearchRequest) -> usize {
        request.top_k.unwrap_or(self.default_top_k)
    }

    /// Mirror an accepted publish at simulated instant `now`.
    pub fn publish(&mut self, page: &WebPage, creator: u64, now: SimInstant) {
        let keys: Vec<(String, usize)> = self.tracked.keys().cloned().collect();
        for key in keys {
            let current = self.reference(&key.0, key.1);
            let bound = self.cache_bound;
            let history = self.tracked.get_mut(&key).expect("key listed above");
            history.retain(|(until, _)| now.since(*until) <= bound);
            history.push((now, current));
        }
        let version = self.versions.entry(page.name.clone()).or_insert(0);
        *version += 1;
        self.index
            .index_text(&self.analyzer, &page.name, *version, creator, &page.text());
        self.memo.clear();
    }

    /// Read the PageRank vector the engine computed for `pages`.
    pub fn load_ranks<'a>(&mut self, qb: &QueenBee, pages: impl Iterator<Item = &'a WebPage>) {
        self.ranks = pages
            .map(|p| (qb_index::doc_id_for_name(&p.name), qb.rank_of(&p.name)))
            .collect();
        self.memo.clear();
    }

    /// The reference top-k for `query` at the current corpus version: the
    /// conjunction, falling back to the disjunction when the conjunction
    /// of a multi-term query is empty (the frontend's documented rule).
    pub fn reference(&mut self, query: &str, top_k: usize) -> Vec<ScoredDoc> {
        let key = (query.to_string(), top_k);
        if let Some(hit) = self.memo.get(&key) {
            return hit.clone();
        }
        let answer = match Query::parse(&self.analyzer, query, QueryMode::And) {
            Err(_) => Vec::new(),
            Ok(and) => {
                let run = |q: &Query| {
                    search(
                        &self.index,
                        q,
                        &Bm25::default(),
                        Some(&self.ranks),
                        self.rank_weight,
                        top_k,
                    )
                };
                let hits = run(&and);
                if hits.is_empty() && and.terms.len() > 1 {
                    run(&Query {
                        terms: and.terms,
                        mode: QueryMode::Or,
                    })
                } else {
                    hits
                }
            }
        };
        self.memo.insert(key, answer.clone());
        answer
    }

    /// Is `response` a correct answer to `request` at instant `now`?
    pub fn check(
        &mut self,
        request: &SearchRequest,
        response: &SearchResponse,
        now: SimInstant,
    ) -> bool {
        let top_k = self.top_k(request);
        if request.page != 0 || response.hits.len() > top_k {
            return false;
        }
        if response.hits == self.reference(&request.query, top_k) {
            return true;
        }
        let bound = match request.freshness {
            Freshness::Fresh => return false,
            Freshness::CacheOk => self.cache_bound,
            Freshness::MaxStaleness(b) => b.max(self.cache_bound),
        };
        self.tracked
            .get(&(request.query.clone(), top_k))
            .is_some_and(|history| {
                history
                    .iter()
                    .any(|(until, past)| now.since(*until) <= bound && *past == response.hits)
            })
    }
}

/// FNV-1a over 64-bit words: the simulated-clock fingerprint of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fingerprint(pub u64);

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint(0xcbf2_9ce4_8422_2325)
    }
}

impl Fingerprint {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hits(&mut self, hits: &[ScoredDoc]) {
        self.word(hits.len() as u64);
        for h in hits {
            self.word(h.doc_id);
            self.word(h.version);
            self.word(h.score.to_bits());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_queenbee::{StageCosts, TermProvenance};

    fn page(name: &str, body: &str) -> WebPage {
        WebPage::new(name, format!("Title {name}"), body, vec![])
    }

    fn response(hits: Vec<ScoredDoc>) -> SearchResponse {
        SearchResponse {
            query: String::new(),
            terms: vec![],
            hits,
            total_matches: 0,
            page: 0,
            top_k: 5,
            ad: None,
            latency: SimDuration::ZERO,
            trace: StageCosts::default(),
            provenance: vec![TermProvenance::DhtFetch],
            served_by_bee: qb_chain::AccountId(1),
        }
    }

    #[test]
    fn fresh_must_match_now_and_cache_ok_may_match_a_recent_past() {
        let t = |s| SimInstant::ZERO + SimDuration::from_secs(s);
        let mut o = Oracle::new(0.0, 5, SimDuration::from_secs(300));
        let cached = SearchRequest::new("honey").top_k(5);
        let fresh = cached.clone().freshness(Freshness::Fresh);
        o.track(&cached);
        o.track(&fresh); // Fresh requests are never tracked
        assert_eq!(o.tracked.len(), 1);
        o.publish(&page("a", "honey honey nectar"), 7, t(0));
        o.publish(&page("b", "honey wax"), 8, t(1));
        let v1 = o.reference("honey", 5);
        assert_eq!(v1.len(), 2);
        assert!(o.check(&fresh, &response(v1.clone()), t(2)));
        assert!(o.check(&cached, &response(v1.clone()), t(2)));

        // Republish "b" without the term: the old answer is now stale.
        o.publish(&page("b", "wax only"), 8, t(10));
        let v2 = o.reference("honey", 5);
        assert_eq!(v2.len(), 1);
        assert!(o.check(&fresh, &response(v2.clone()), t(11)));
        assert!(
            !o.check(&fresh, &response(v1.clone()), t(11)),
            "Fresh never lags"
        );
        assert!(
            o.check(&cached, &response(v1.clone()), t(11)),
            "inside the bound"
        );
        assert!(
            !o.check(&cached, &response(v1.clone()), t(400)),
            "outside the bound"
        );
        // A wrong answer is wrong at any freshness.
        let mut bogus = v2.clone();
        bogus[0].score += 1.0;
        assert!(!o.check(&cached, &response(bogus), t(11)));
        // Republished pages carry their bumped version.
        o.publish(&page("a", "honey again"), 7, t(12));
        assert_eq!(o.reference("honey", 5)[0].version, 2);
    }

    #[test]
    fn empty_conjunctions_fall_back_to_the_union() {
        let mut o = Oracle::new(0.0, 5, SimDuration::from_secs(1));
        o.publish(&page("a", "alpha"), 1, SimInstant::ZERO);
        o.publish(&page("b", "beta"), 1, SimInstant::ZERO);
        assert_eq!(o.reference("alpha beta", 5).len(), 2);
        assert_eq!(o.reference("alpha gamma", 5).len(), 1);
        assert!(o.reference("the of", 5).is_empty(), "no searchable terms");
    }

    #[test]
    fn tally_counts_every_kind_of_failure() {
        let t = Tally {
            attempted: 1_000,
            errored: 1,
            shed: 2,
            late: 3,
            wrong: 4,
            degraded: 99,
        };
        assert_eq!(t.failed(), 10);
        assert_eq!(t.served(), 990);
        assert!(!t.correct());
        assert!((t.served_frac() - 0.99).abs() < 1e-12);
        assert!((t.undegraded_frac() - 0.9).abs() < 1e-12);
        assert!(Tally::default().correct());
    }

    #[test]
    fn fingerprint_depends_on_every_word() {
        let mut a = Fingerprint::default();
        let mut b = Fingerprint::default();
        a.word(1);
        a.word(2);
        b.word(2);
        b.word(1);
        assert_ne!(a, b);
    }
}

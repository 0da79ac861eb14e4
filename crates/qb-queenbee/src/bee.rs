//! Worker bees: the peers that maintain the index and compute page ranks.

use qb_chain::AccountId;
use qb_index::{doc_id_for_name, ShardPosting};
use qb_rank::BeeRankBehaviour;
use std::sync::Arc;

/// Term frequency a colluding bee injects for the coalition's pages.
pub const COLLUSION_BOOST_TF: u32 = 500;

/// Factor by which a colluding bee inflates the coalition's pages' ranks.
pub const COLLUSION_RANK_FACTOR: f64 = 50.0;

/// How a worker bee behaves.
#[derive(Debug, Clone, PartialEq)]
pub enum BeeBehaviour {
    /// Follows the protocol.
    Honest,
    /// Part of a colluding coalition: when indexing any page, it additionally
    /// injects postings that boost the coalition's target pages (at
    /// [`COLLUSION_BOOST_TF`]), and when computing rank blocks it inflates
    /// the targets' rank (by [`COLLUSION_RANK_FACTOR`]) — the paper's
    /// *collusion attack*.
    Colluding {
        /// Page names the coalition wants to push to the top.
        boost_pages: Vec<String>,
    },
    /// Claims rewards without doing the work (submits empty index deltas and
    /// baseline-only rank blocks).
    Lazy,
}

/// One worker bee.
#[derive(Debug, Clone)]
pub struct WorkerBee {
    /// Simulated peer the bee runs on.
    pub peer: u64,
    /// The bee's honey account.
    pub account: AccountId,
    /// Behaviour (honest / colluding / lazy).
    pub behaviour: BeeBehaviour,
    /// Honey-earning tasks accepted.
    pub tasks_rewarded: u64,
    /// Number of times this bee was flagged by verification.
    pub times_flagged: u64,
}

impl WorkerBee {
    /// Create an honest bee.
    pub fn new(peer: u64, account: AccountId) -> WorkerBee {
        WorkerBee {
            peer,
            account,
            behaviour: BeeBehaviour::Honest,
            tasks_rewarded: 0,
            times_flagged: 0,
        }
    }

    /// Is this bee part of a colluding coalition?
    pub fn is_colluding(&self) -> bool {
        matches!(self.behaviour, BeeBehaviour::Colluding { .. })
    }

    /// Produce the index deltas for a freshly published page version from
    /// its term counts — the page analysed once and handed to every bee of
    /// the quorum, each term named as the caller names it (the engine's
    /// [`TermId`](crate::query::TermId)s, in term text order): one
    /// [`ShardPosting`] per term, beside the term. Every posting of the
    /// page shares `page_name`, the one allocation of the name the quorum
    /// indexes under. A colluding bee injects extra postings boosting its
    /// target pages into every term it touches; a lazy bee produces
    /// nothing.
    pub fn index_page<T: Copy>(
        &self,
        term_counts: &[(T, u32)],
        page_name: &Arc<str>,
        page_version: u64,
        creator: u64,
    ) -> Vec<(T, ShardPosting)> {
        match &self.behaviour {
            BeeBehaviour::Lazy => Vec::new(),
            BeeBehaviour::Honest | BeeBehaviour::Colluding { .. } => {
                let doc_len: u32 = term_counts.iter().map(|&(_, f)| f).sum();
                let doc_id = doc_id_for_name(page_name);
                let mut deltas: Vec<(T, ShardPosting)> = term_counts
                    .iter()
                    .map(|&(term, freq)| {
                        (
                            term,
                            ShardPosting {
                                doc_id,
                                term_freq: freq,
                                doc_len,
                                name: Arc::clone(page_name),
                                version: page_version,
                                creator,
                            },
                        )
                    })
                    .collect();
                if let BeeBehaviour::Colluding { boost_pages } = &self.behaviour {
                    // Inject the coalition's pages into every term of the page
                    // being indexed, with an absurd term frequency, so they
                    // surface for popular queries.
                    for boost in boost_pages {
                        if **boost == **page_name {
                            continue;
                        }
                        let boost_doc = doc_id_for_name(boost);
                        let boost_name: Arc<str> = Arc::from(boost.as_str());
                        for &(term, _) in term_counts {
                            deltas.push((
                                term,
                                ShardPosting {
                                    doc_id: boost_doc,
                                    term_freq: COLLUSION_BOOST_TF,
                                    doc_len: 50,
                                    name: boost_name.clone(),
                                    version: page_version,
                                    creator,
                                },
                            ));
                        }
                    }
                }
                deltas
            }
        }
    }

    /// The bee's behaviour when computing PageRank blocks, mapped onto the
    /// rank crate's behaviour enum. `target_ids` are the graph node ids of
    /// the coalition's boost pages.
    pub fn rank_behaviour(&self, target_ids: &[usize]) -> BeeRankBehaviour {
        match &self.behaviour {
            BeeBehaviour::Honest => BeeRankBehaviour::Honest,
            BeeBehaviour::Lazy => BeeRankBehaviour::Lazy,
            BeeBehaviour::Colluding { .. } => BeeRankBehaviour::Inflate {
                targets: target_ids.to_vec(),
                factor: COLLUSION_RANK_FACTOR,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_index::Analyzer;

    /// A page's term counts, as the engine computes them once per page.
    fn counts(text: &str) -> Vec<(String, u32)> {
        Analyzer::new().term_frequencies(text)
    }

    /// `bee`'s deltas for version 1 of page `p/a` by creator 7, its terms
    /// named by their text.
    fn index<'t>(bee: &WorkerBee, counts: &'t [(String, u32)]) -> Vec<(&'t str, ShardPosting)> {
        let named: Vec<(&str, u32)> = counts.iter().map(|(t, f)| (t.as_str(), *f)).collect();
        bee.index_page(&named, &Arc::from("p/a"), 1, 7)
    }

    #[test]
    fn honest_bee_indexes_all_terms() {
        let bee = WorkerBee::new(3, AccountId(2_000));
        let tf = counts("honey nectar honey bees");
        let deltas = index(&bee, &tf);
        assert!(!deltas.is_empty());
        let honey = deltas
            .iter()
            .find(|(t, _)| *t == Analyzer::stem("honey"))
            .unwrap();
        assert_eq!(honey.1.term_freq, 2);
        assert_eq!(&*honey.1.name, "p/a");
        assert_eq!(honey.1.creator, 7);
        assert!(deltas
            .iter()
            .all(|(_, p)| p.doc_id == doc_id_for_name("p/a")));
    }

    #[test]
    fn one_page_postings_share_one_name() {
        let mut bee = WorkerBee::new(3, AccountId(2_000));
        let tf = counts("honey nectar pollen hive");
        let deltas = index(&bee, &tf);
        assert!(deltas.len() > 1);
        let first = &deltas[0].1.name;
        assert!(deltas.iter().all(|(_, p)| Arc::ptr_eq(&p.name, first)));

        bee.behaviour = BeeBehaviour::Colluding {
            boost_pages: vec!["evil/spam".into()],
        };
        let deltas = index(&bee, &tf);
        let (spam, own): (Vec<_>, Vec<_>) =
            deltas.iter().partition(|(_, p)| &*p.name == "evil/spam");
        assert_eq!(spam.len(), own.len());
        for postings in [spam, own] {
            let first = &postings[0].1.name;
            assert!(postings.iter().all(|(_, p)| Arc::ptr_eq(&p.name, first)));
        }
    }

    #[test]
    fn lazy_bee_produces_nothing() {
        let mut bee = WorkerBee::new(3, AccountId(2_000));
        bee.behaviour = BeeBehaviour::Lazy;
        assert!(index(&bee, &counts("some text here")).is_empty());
    }

    #[test]
    fn colluding_bee_injects_boosted_postings() {
        let mut bee = WorkerBee::new(3, AccountId(2_000));
        bee.behaviour = BeeBehaviour::Colluding {
            boost_pages: vec!["evil/spam".into()],
        };
        assert!(bee.is_colluding());
        let tf = counts("honey nectar");
        let deltas = index(&bee, &tf);
        let spam: Vec<_> = deltas
            .iter()
            .filter(|(_, p)| &*p.name == "evil/spam")
            .collect();
        assert!(!spam.is_empty());
        assert!(spam.iter().all(|(_, p)| p.term_freq == COLLUSION_BOOST_TF));
        // Honest postings are still present (the attack hides inside real work).
        assert!(deltas.iter().any(|(_, p)| &*p.name == "p/a"));
    }

    #[test]
    fn rank_behaviour_mapping() {
        let mut bee = WorkerBee::new(0, AccountId(1));
        assert_eq!(bee.rank_behaviour(&[]), BeeRankBehaviour::Honest);
        bee.behaviour = BeeBehaviour::Lazy;
        assert_eq!(bee.rank_behaviour(&[]), BeeRankBehaviour::Lazy);
        bee.behaviour = BeeBehaviour::Colluding {
            boost_pages: vec!["x".into()],
        };
        assert!(matches!(
            bee.rank_behaviour(&[4]),
            BeeRankBehaviour::Inflate { targets, factor }
                if targets == vec![4] && factor == COLLUSION_RANK_FACTOR
        ));
    }
}

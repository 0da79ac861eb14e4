//! The rank seam: one decentralized PageRank round over the published
//! link graph.

use super::QueenBee;
use crate::bee::BeeBehaviour;
use crate::config::SLASH_AMOUNT;
use qb_chain::{AccountId, Call};
use qb_common::{Cid, DhtKey, Hash256, IdHashMap, QbResult};
use qb_rank::{LinkGraph, RankRoundReport};

/// A page's rank in the last rank round and the [`qb_index::rank_component`]
/// the scoring kernel blends a candidate with (its `ln` taken once per
/// round, not per candidate).
#[derive(Debug, Clone, Copy)]
pub(super) struct PageRank {
    pub(super) rank: f64,
    pub(super) component: f64,
}

/// Doc id → [`PageRank`] for every page of the last rank round: the one
/// rank table, read by the doc id a posting holds and, through
/// [`qb_index::doc_id_for_name`], by name (two names with one doc id are
/// one document, as in the index). A doc id is 64 bits of SHA-256 of the
/// name, so the map hashes it with [`qb_common::IdHasher`], not SipHash,
/// on the lookup every scored candidate makes.
pub(super) type Ranks = IdHashMap<PageRank>;

impl QueenBee {
    /// Run one decentralized PageRank round over the current registry's link
    /// graph: bees compute blocks redundantly, manipulated submissions are
    /// flagged and slashed, ranks are stored in decentralized storage, rank
    /// bounties are claimed and popularity rewards paid.
    pub fn run_rank_round(&mut self) -> QbResult<RankRoundReport> {
        let mut graph = LinkGraph::new();
        // The registry iterates a HashMap; sort by name before assigning
        // node ids. Ids drive the block partition of the decentralized
        // computation (and, under collusion, which quorum medians see the
        // boosted targets), so an unordered walk makes rank output differ
        // between runs of the same simulation.
        let mut pages: Vec<(String, Vec<String>, AccountId)> = self
            .chain
            .publish_registry()
            .pages()
            .map(|p| (p.name.clone(), p.out_links.clone(), p.creator))
            .collect();
        pages.sort_by(|a, b| a.0.cmp(&b.0));
        for (name, links, _) in &pages {
            graph.set_links(name, links);
        }

        // Resolve the coalition's boost targets to node ids.
        let behaviours: Vec<qb_rank::BeeRankBehaviour> = self
            .bees
            .iter()
            .map(|bee| {
                let targets: Vec<usize> = match &bee.behaviour {
                    BeeBehaviour::Colluding { boost_pages, .. } => {
                        boost_pages.iter().filter_map(|p| graph.id_of(p)).collect()
                    }
                    _ => Vec::new(),
                };
                bee.rank_behaviour(&targets)
            })
            .collect();

        let report = self.config.rank.run(&graph, &behaviours);
        self.rank_round += 1;

        let named = || graph.names().iter().zip(&report.ranks);
        self.ranks = named()
            .map(|(name, &rank)| {
                let component = qb_index::rank_component(rank);
                let doc_id = qb_index::doc_id_for_name(name);
                (doc_id, PageRank { rank, component })
            })
            .collect();

        // Store the rank vector, sorted by page name, in decentralized
        // storage with a DHT pointer ("page ranks ... hosted in a
        // decentralized storage").
        if !report.ranks.is_empty() {
            let mut sorted: Vec<(&String, &f64)> = named().collect();
            sorted.sort_unstable_by_key(|&(name, _)| name);
            let encode = |buf: &mut Vec<u8>| {
                use std::io::Write;
                for (name, rank) in sorted {
                    // Writing to a `Vec` cannot fail.
                    let _ = writeln!(buf, "{name}\t{rank:.9}");
                }
            };
            // The previous round's vector is unpinned once no copy of the
            // pointer names it.
            let peer = self.bees[0].peer;
            let key = DhtKey(Hash256::digest(b"rank:@vector"));
            let (obj, _stats) =
                self.storage
                    .put_named_encoded(&mut self.net, &mut self.dht, peer, key, encode)?;
            self.dht.put_record(
                &mut self.net,
                peer,
                key,
                obj.root.0.as_bytes().to_vec(),
                self.rank_round,
            )?;
            self.storage.release_unnamed(&mut self.dht, &key, |value| {
                Some(Cid(Hash256::from_bytes(value.try_into().ok()?)))
            });
        }

        // Slash bees flagged during rank verification, pay the others.
        let validator = qb_chain::VALIDATORS[0];
        for (i, bee) in self.bees.iter_mut().enumerate() {
            if report.flagged_bees.contains(&i) {
                bee.times_flagged += 1;
                self.chain.submit_call(
                    validator,
                    Call::SlashStake {
                        offender: bee.account,
                        amount: SLASH_AMOUNT,
                    },
                );
            } else {
                bee.tasks_rewarded += 1;
                self.chain.submit_call(
                    bee.account,
                    Call::ClaimRankReward {
                        round: self.rank_round,
                        block_id: i as u64,
                    },
                );
            }
        }

        // Popularity rewards for creators whose pages exceed the threshold.
        let payouts: Vec<(AccountId, String, u64)> = pages
            .iter()
            .map(|(name, _, creator)| {
                let ppm = (self.rank_of(name) * 1_000_000.0) as u64;
                (*creator, name.clone(), ppm)
            })
            .collect();
        if !payouts.is_empty() {
            self.chain
                .submit_call(validator, Call::PayPopularityRewards { pages: payouts });
        }
        self.chain.seal_block(self.net.now());
        Ok(report)
    }

    /// PageRank of a page name (0 when not ranked yet).
    pub fn rank_of(&self, name: &str) -> f64 {
        let doc_id = qb_index::doc_id_for_name(name);
        self.ranks.get(&doc_id).map_or(0.0, |page| page.rank)
    }
}

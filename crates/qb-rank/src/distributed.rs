//! Decentralized PageRank computed by worker bees, with redundancy-based
//! verification against manipulation (the paper's collusion attack).
//!
//! The graph's nodes are partitioned into blocks. In every round, each block
//! is assigned to a quorum of `q` bees; each bee independently computes the
//! new rank values for its block from the previous global vector. The block's
//! accepted values are the entry-wise **median** of the quorum submissions,
//! so a minority of colluding bees inside a quorum cannot move the result,
//! and any submission that deviates from the accepted values is flagged (and,
//! in the QueenBee engine, slashed).

use crate::graph::LinkGraph;
use crate::pagerank::{pagerank, DAMPING, MAX_ITERATIONS, TOLERANCE};
use std::collections::BTreeSet;

/// How a bee behaves when asked to compute a rank block.
#[derive(Debug, Clone, PartialEq)]
pub enum BeeRankBehaviour {
    /// Computes the block correctly.
    Honest,
    /// Inflates the rank of the listed target nodes by `factor` (collusion
    /// attack: boost the coalition's own pages).
    Inflate { targets: Vec<usize>, factor: f64 },
    /// Returns zeros without doing the work (free-riding).
    Lazy,
}

/// Outcome of a full decentralized PageRank run.
#[derive(Debug, Clone)]
pub struct RankRoundReport {
    /// Final rank vector (by node id).
    pub ranks: Vec<f64>,
    /// Iterations executed.
    pub rounds: usize,
    /// Bee indices flagged at least once for deviating from the accepted
    /// block values.
    pub flagged_bees: BTreeSet<usize>,
    /// Total block computations performed (work units, for reward payout).
    pub block_computations: u64,
    /// L1 distance to the honest reference computed on the same graph.
    pub l1_error_vs_reference: f64,
}

/// Number of graph blocks a round splits the ranks into.
pub const NUM_BLOCKS: usize = 8;

/// Relative deviation from the accepted value above which a submission is
/// flagged as manipulated.
pub const FLAG_TOLERANCE: f64 = 0.01;

/// Nodes belonging to a block (contiguous ranges).
fn block_nodes(n: usize, block: usize) -> std::ops::Range<usize> {
    let per = n.div_ceil(NUM_BLOCKS);
    let start = (block * per).min(n);
    let end = ((block + 1) * per).min(n);
    start..end
}

/// Configuration of the decentralized computation.
#[derive(Debug, Clone)]
pub struct DecentralizedPageRank {
    /// Quorum size: how many bees compute each block each round.
    pub quorum: usize,
}

impl Default for DecentralizedPageRank {
    fn default() -> Self {
        DecentralizedPageRank { quorum: 3 }
    }
}

impl DecentralizedPageRank {
    /// One bee's computation of a block given the previous global vector.
    fn compute_block(
        graph: &LinkGraph,
        prev: &[f64],
        range: std::ops::Range<usize>,
        behaviour: &BeeRankBehaviour,
    ) -> Vec<f64> {
        let n = graph.len();
        let uniform = 1.0 / n as f64;
        // Dangling mass is global; every bee recomputes it (cheap).
        let dangling_mass: f64 = (0..n)
            .filter(|&u| graph.out_degree(u) == 0)
            .map(|u| prev[u])
            .sum();
        let base = (1.0 - DAMPING) * uniform + DAMPING * dangling_mass * uniform;
        let mut values = vec![0.0f64; range.len()];
        match behaviour {
            BeeRankBehaviour::Lazy => {
                // Returns the base value only — cheap but wrong.
                values.iter_mut().for_each(|v| *v = base);
            }
            _ => {
                // Honest computation (Inflate applies its distortion after).
                for (u, &p) in prev.iter().enumerate().take(n) {
                    let out = graph.out_links(u);
                    if out.is_empty() {
                        continue;
                    }
                    let share = p / out.len() as f64;
                    for &v in out {
                        if range.contains(&v) {
                            values[v - range.start] += share;
                        }
                    }
                }
                for v in values.iter_mut() {
                    *v = base + DAMPING * *v;
                }
                if let BeeRankBehaviour::Inflate { targets, factor } = behaviour {
                    for &t in targets {
                        if range.contains(&t) {
                            values[t - range.start] *= factor;
                        }
                    }
                }
            }
        }
        values
    }

    /// Run the decentralized computation.
    ///
    /// * `bee_behaviours` — one entry per participating bee.
    /// * `assign` — deterministic assignment function: which bees compute a
    ///   given `(round, block)`; the engine derives this from bee ids so that
    ///   assignment cannot be chosen by the attacker. The default assignment
    ///   rotates bees across blocks.
    pub fn run(&self, graph: &LinkGraph, bee_behaviours: &[BeeRankBehaviour]) -> RankRoundReport {
        let n = graph.len();
        let num_bees = bee_behaviours.len();
        let mut flagged: BTreeSet<usize> = BTreeSet::new();
        let mut block_computations = 0u64;
        if n == 0 || num_bees == 0 {
            return RankRoundReport {
                ranks: vec![1.0 / n.max(1) as f64; n],
                rounds: 0,
                flagged_bees: flagged,
                block_computations,
                l1_error_vs_reference: 0.0,
            };
        }
        let quorum = self.quorum.max(1).min(num_bees);
        let uniform = 1.0 / n as f64;
        let mut rank = vec![uniform; n];
        let mut rounds = 0usize;

        for round in 0..MAX_ITERATIONS {
            rounds = round + 1;
            let mut next = vec![0.0f64; n];
            for block in 0..NUM_BLOCKS {
                let range = block_nodes(n, block);
                if range.is_empty() {
                    continue;
                }
                // Deterministic rotating assignment of bees to this block.
                let mut submissions: Vec<(usize, Vec<f64>)> = Vec::with_capacity(quorum);
                for q in 0..quorum {
                    let bee = (block + round * 7 + q * (num_bees / quorum).max(1)) % num_bees;
                    let values =
                        Self::compute_block(graph, &rank, range.clone(), &bee_behaviours[bee]);
                    block_computations += 1;
                    submissions.push((bee, values));
                }
                // Accepted value: entry-wise median of the quorum.
                let len = range.len();
                let mut accepted = vec![0.0f64; len];
                for i in 0..len {
                    let mut vals: Vec<f64> = submissions.iter().map(|(_, v)| v[i]).collect();
                    vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                    accepted[i] = vals[vals.len() / 2];
                }
                // Flag deviating submissions.
                for (bee, values) in &submissions {
                    let deviates = values.iter().zip(&accepted).any(|(v, a)| {
                        let denom = a.abs().max(1e-12);
                        (v - a).abs() / denom > FLAG_TOLERANCE
                    });
                    if deviates {
                        flagged.insert(*bee);
                    }
                }
                next[range.clone()].copy_from_slice(&accepted);
            }
            let delta: f64 = next.iter().zip(&rank).map(|(a, b)| (a - b).abs()).sum();
            rank = next;
            if delta < TOLERANCE {
                break;
            }
        }

        let reference = pagerank(graph);
        let l1: f64 = reference
            .iter()
            .zip(&rank)
            .map(|(a, b)| (a - b).abs())
            .sum();
        RankRoundReport {
            ranks: rank,
            rounds,
            flagged_bees: flagged,
            block_computations,
            l1_error_vs_reference: l1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_graph() -> LinkGraph {
        let mut g = LinkGraph::new();
        for i in 0..30 {
            let links: Vec<String> = vec![
                format!("p{}", (i + 1) % 30),
                format!("p{}", (i * 7 + 3) % 30),
                "hub".to_string(),
            ];
            g.set_links(&format!("p{i}"), &links);
        }
        g.set_links("hub", &["p0".to_string(), "p3".to_string()]);
        g
    }

    #[test]
    fn honest_bees_match_reference_pagerank() {
        let g = sample_graph();
        let dpr = DecentralizedPageRank::default();
        let behaviours = vec![BeeRankBehaviour::Honest; 9];
        let report = dpr.run(&g, &behaviours);
        assert!(report.flagged_bees.is_empty(), "honest bees were flagged");
        assert!(
            report.l1_error_vs_reference < 1e-6,
            "error = {}",
            report.l1_error_vs_reference
        );
        let sum: f64 = report.ranks.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(report.block_computations > 0);
    }

    #[test]
    fn minority_colluders_are_flagged_and_neutralized() {
        let g = sample_graph();
        let target = g.id_of("p5").unwrap();
        let dpr = DecentralizedPageRank { quorum: 3 };
        // 2 colluders out of 9 bees inflate p5 by 100x.
        let mut behaviours = vec![BeeRankBehaviour::Honest; 9];
        behaviours[0] = BeeRankBehaviour::Inflate {
            targets: vec![target],
            factor: 100.0,
        };
        behaviours[1] = BeeRankBehaviour::Inflate {
            targets: vec![target],
            factor: 100.0,
        };
        let report = dpr.run(&g, &behaviours);
        assert!(report.flagged_bees.contains(&0) || report.flagged_bees.contains(&1));
        // The final ranks are still close to the honest reference.
        assert!(
            report.l1_error_vs_reference < 0.05,
            "collusion moved the ranks: {}",
            report.l1_error_vs_reference
        );
        let honest = pagerank(&g);
        let ratio = report.ranks[target] / honest[target];
        assert!(ratio < 2.0, "target inflated by {ratio}x despite defense");
    }

    #[test]
    fn majority_collusion_in_quorum_succeeds_without_larger_quorum() {
        // With quorum 1 there is no redundancy: a single colluder controls
        // its block. This is the "no defense" configuration of experiment E6.
        let g = sample_graph();
        let target = g.id_of("p5").unwrap();
        let dpr = DecentralizedPageRank { quorum: 1 };
        let behaviours = vec![
            BeeRankBehaviour::Inflate {
                targets: vec![target],
                factor: 50.0,
            };
            4
        ];
        let report = dpr.run(&g, &behaviours);
        let honest = pagerank(&g);
        assert!(
            report.ranks[target] > honest[target] * 2.0,
            "attack should succeed with quorum=1"
        );
    }

    #[test]
    fn lazy_bees_are_flagged() {
        let g = sample_graph();
        let dpr = DecentralizedPageRank::default();
        let mut behaviours = vec![BeeRankBehaviour::Honest; 6];
        behaviours[3] = BeeRankBehaviour::Lazy;
        let report = dpr.run(&g, &behaviours);
        assert!(report.flagged_bees.contains(&3));
        assert!(report.l1_error_vs_reference < 1e-6);
    }

    #[test]
    fn empty_graph_and_no_bees_are_handled() {
        let dpr = DecentralizedPageRank::default();
        let report = dpr.run(&LinkGraph::new(), &[BeeRankBehaviour::Honest]);
        assert_eq!(report.rounds, 0);
        let g = sample_graph();
        let report = dpr.run(&g, &[]);
        assert_eq!(report.rounds, 0);
        assert_eq!(report.ranks.len(), g.len());
    }

    #[test]
    fn block_partition_covers_all_nodes_exactly_once() {
        // Node counts the blocks divide evenly, unevenly, and fewer nodes
        // than blocks.
        for n in [0, 3, NUM_BLOCKS, 100, 4 * NUM_BLOCKS + 1] {
            let mut seen = vec![0u32; n];
            for b in 0..NUM_BLOCKS {
                for i in block_nodes(n, b) {
                    seen[i] += 1;
                }
            }
            assert!(seen.iter().all(|&c| c == 1), "n = {n}");
        }
    }
}

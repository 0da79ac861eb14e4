//! Reference PageRank: power iteration with damping and dangling-node
//! redistribution.

use crate::graph::LinkGraph;

/// Damping factor (probability of following a link).
pub const DAMPING: f64 = 0.85;
/// Maximum power iterations.
pub const MAX_ITERATIONS: usize = 100;
/// L1 convergence tolerance.
pub const TOLERANCE: f64 = 1e-9;

/// Compute PageRank over the graph. Returns a vector indexed by node id that
/// sums to 1 (for a non-empty graph).
pub fn pagerank(graph: &LinkGraph) -> Vec<f64> {
    power_iteration(graph, MAX_ITERATIONS, TOLERANCE)
}

/// Power iteration until the L1 change of a step falls below `tolerance`
/// or `max_iterations` steps have run.
fn power_iteration(graph: &LinkGraph, max_iterations: usize, tolerance: f64) -> Vec<f64> {
    let n = graph.len();
    if n == 0 {
        return Vec::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0f64; n];
    for _ in 0..max_iterations {
        next.iter_mut().for_each(|x| *x = 0.0);
        let mut dangling_mass = 0.0;
        for (u, &r) in rank.iter().enumerate() {
            let out = graph.out_links(u);
            if out.is_empty() {
                dangling_mass += r;
            } else {
                let share = r / out.len() as f64;
                for &v in out {
                    next[v] += share;
                }
            }
        }
        let base = (1.0 - DAMPING) * uniform + DAMPING * dangling_mass * uniform;
        let mut delta = 0.0;
        for v in 0..n {
            let new_val = base + DAMPING * next[v];
            delta += (new_val - rank[v]).abs();
            next[v] = new_val;
        }
        std::mem::swap(&mut rank, &mut next);
        if delta < tolerance {
            break;
        }
    }
    rank
}

/// The `k` highest-ranked node ids, best first.
pub fn top_k(rank: &[f64], k: usize) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..rank.len()).collect();
    ids.sort_by(|&a, &b| {
        rank[b]
            .partial_cmp(&rank[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    ids.truncate(k);
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use qb_common::DetRng;

    fn chain_graph(n: usize) -> LinkGraph {
        // 0 -> 1 -> 2 -> ... -> n-1 (and n-1 dangles)
        let mut g = LinkGraph::new();
        for i in 0..n {
            g.node(&format!("p{i}"));
        }
        for i in 0..n - 1 {
            g.set_links(&format!("p{i}"), &[format!("p{}", i + 1)]);
        }
        g
    }

    #[test]
    fn empty_graph_is_empty_rank() {
        assert!(pagerank(&LinkGraph::new()).is_empty());
    }

    #[test]
    fn ranks_sum_to_one() {
        let g = chain_graph(20);
        let r = pagerank(&g);
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6, "sum={sum}");
        assert!(r.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn popular_pages_rank_higher() {
        // Star: many pages link to "hub"; hub links to one spoke.
        let mut g = LinkGraph::new();
        for i in 0..20 {
            g.set_links(&format!("spoke{i}"), &["hub".to_string()]);
        }
        g.set_links("hub", &["spoke0".to_string()]);
        let r = pagerank(&g);
        let hub = g.id_of("hub").unwrap();
        let spoke5 = g.id_of("spoke5").unwrap();
        assert!(r[hub] > r[spoke5] * 5.0);
        let top = top_k(&r, 2);
        assert_eq!(top[0], hub);
    }

    #[test]
    fn disconnected_nodes_get_baseline_rank() {
        let mut g = LinkGraph::new();
        g.set_links("a", &["b".to_string()]);
        g.node("lonely");
        let r = pagerank(&g);
        let lonely = g.id_of("lonely").unwrap();
        assert!(r[lonely] > 0.0);
        let sum: f64 = r.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
    }

    #[test]
    fn convergence_is_stable_across_iteration_budgets() {
        let g = chain_graph(30);
        let precise = power_iteration(&g, 500, 1e-14);
        let default = pagerank(&g);
        let l1: f64 = precise
            .iter()
            .zip(&default)
            .map(|(a, b)| (a - b).abs())
            .sum();
        assert!(l1 < 1e-6, "l1={l1}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn random_graphs_produce_valid_distributions(n in 2usize..60, seed in any::<u64>()) {
            let mut rng = DetRng::new(seed);
            let mut g = LinkGraph::new();
            for i in 0..n {
                g.node(&format!("p{i}"));
            }
            for i in 0..n {
                let degree = rng.gen_index(4);
                let links: Vec<String> = (0..degree)
                    .map(|_| format!("p{}", rng.gen_index(n)))
                    .collect();
                g.set_links(&format!("p{i}"), &links);
            }
            let r = pagerank(&g);
            let sum: f64 = r.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-6);
            prop_assert!(r.iter().all(|&x| (0.0..=1.0).contains(&x)));
        }
    }
}

//! Preferential-attachment link generation (Barabási–Albert style), giving
//! the heavy-tailed page-popularity distribution the incentive and attack
//! experiments rely on.

use qb_common::DetRng;

/// Mean out-links per page.
pub const AVG_OUT_LINKS: usize = 6;

/// Generate out-links for each page. Pages are processed in order; each page
/// links to roughly [`AVG_OUT_LINKS`] earlier pages chosen with probability
/// proportional to their current in-degree plus one (preferential
/// attachment), so early pages accumulate large in-degrees.
pub fn generate_links(names: &[String], rng: &mut DetRng) -> Vec<Vec<String>> {
    let n = names.len();
    let mut out: Vec<Vec<String>> = vec![Vec::new(); n];
    if n <= 1 {
        return out;
    }
    // in_degree[i] + 1 is the attachment weight.
    let mut weights: Vec<u64> = vec![1; n];

    for i in 1..n {
        let k = 1 + rng.gen_index(AVG_OUT_LINKS * 2); // 1..=2*avg, mean ~avg
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        let candidates = i; // only link to earlier pages
        for _ in 0..k.min(candidates) {
            // Weighted sample among earlier pages by current weight.
            let earlier_weight: u64 = weights[..i].iter().sum();
            let mut target = rng.gen_range(earlier_weight.max(1));
            let mut pick = 0usize;
            for (j, w) in weights[..i].iter().enumerate() {
                if target < *w {
                    pick = j;
                    break;
                }
                target -= *w;
            }
            if !chosen.contains(&pick) {
                chosen.push(pick);
                weights[pick] += 1;
            }
        }
        out[i] = chosen.iter().map(|&j| names[j].clone()).collect();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("p{i}")).collect()
    }

    #[test]
    fn links_reference_only_existing_earlier_pages() {
        let ns = names(100);
        let mut rng = DetRng::new(1);
        let links = generate_links(&ns, &mut rng);
        assert_eq!(links.len(), 100);
        for (i, ls) in links.iter().enumerate() {
            for l in ls {
                let target: usize = l[1..].parse().unwrap();
                assert!(target < i, "page {i} links forward to {target}");
            }
            // No duplicate links.
            let set: std::collections::HashSet<&String> = ls.iter().collect();
            assert_eq!(set.len(), ls.len());
        }
    }

    #[test]
    fn in_degree_distribution_is_heavy_tailed() {
        let ns = names(500);
        let mut rng = DetRng::new(2);
        let links = generate_links(&ns, &mut rng);
        let mut in_deg = vec![0usize; 500];
        for ls in &links {
            for l in ls {
                let t: usize = l[1..].parse().unwrap();
                in_deg[t] += 1;
            }
        }
        let max = *in_deg.iter().max().unwrap();
        let mean = in_deg.iter().sum::<usize>() as f64 / 500.0;
        assert!(
            max as f64 > mean * 5.0,
            "expected a heavy tail: max={max} mean={mean}"
        );
    }

    #[test]
    fn degenerate_inputs() {
        let mut rng = DetRng::new(3);
        assert!(generate_links(&[], &mut rng).is_empty());
        assert_eq!(
            generate_links(&names(1), &mut rng),
            vec![Vec::<String>::new()]
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let ns = names(50);
        let a = generate_links(&ns, &mut DetRng::new(9));
        let b = generate_links(&ns, &mut DetRng::new(9));
        assert_eq!(a, b);
    }
}

//! The serving kernel's one-call form, re-exported at the path the
//! benchmark's scoring probe (`bench/`) imports it from. The engine does
//! not serve through it: the window loop (`engine/windows.rs`) reads each
//! window's shards, and `serve_plan` ranks them with [`qb_index::rank`].

pub use qb_index::intersect_and_score;

#[cfg(test)]
mod tests {
    use super::*;
    use qb_index::{IndexStats, ShardEntry, ShardPosting};

    fn shard(term: &str, docs: &[(u64, u32)]) -> ShardEntry {
        let mut s = ShardEntry::empty(term);
        s.version = 1;
        for &(doc_id, tf) in docs {
            s.upsert(ShardPosting {
                doc_id,
                term_freq: tf,
                doc_len: 50,
                name: format!("page/{doc_id}").into(),
                version: 1,
                creator: doc_id,
            });
        }
        s
    }

    fn stats() -> IndexStats {
        IndexStats {
            num_docs: 10,
            total_len: 500,
            version: 1,
        }
    }

    #[test]
    fn conjunction_wins_and_ranking_is_stable() {
        let shards = vec![
            shard("alpha", &[(1, 3), (2, 1), (3, 1)]),
            shard("beta", &[(2, 2), (3, 2)]),
        ];
        let (results, scored) = intersect_and_score(&shards, &stats(), |_| 0.0, 0.0);
        // Docs 2 and 3 match both terms; doc 1 only one.
        assert_eq!(scored, 2);
        let ids: Vec<u64> = results.iter().map(|r| r.doc_id).collect();
        assert!(ids.contains(&2) && ids.contains(&3) && !ids.contains(&1));
        // Identical inputs rank identically (scores tie-broken by doc id).
        let (again, _) = intersect_and_score(&shards, &stats(), |_| 0.0, 0.0);
        assert_eq!(results, again);
    }

    #[test]
    fn empty_conjunction_degrades_to_union() {
        let shards = vec![shard("alpha", &[(1, 2)]), shard("beta", &[(9, 2)])];
        let (results, _) = intersect_and_score(&shards, &stats(), |_| 0.0, 0.0);
        let ids: Vec<u64> = results.iter().map(|r| r.doc_id).collect();
        assert_eq!(ids.len(), 2, "union fallback covers both terms");
        assert!(ids.contains(&1) && ids.contains(&9));
    }

    #[test]
    fn rank_blend_reorders_equal_relevance() {
        let shards = vec![shard("alpha", &[(1, 2), (2, 2)])];
        let rank = |name: &str| if name == "page/2" { 0.9 } else { 0.0 };
        let (no_blend, _) = intersect_and_score(&shards, &stats(), rank, 0.0);
        assert_eq!(no_blend[0].doc_id, 1, "doc-id tiebreak without blending");
        let (blended, _) = intersect_and_score(&shards, &stats(), rank, 0.8);
        assert_eq!(blended[0].doc_id, 2, "PageRank lifts page/2");
    }

    #[test]
    fn returns_the_full_list_unpaginated() {
        let docs: Vec<(u64, u32)> = (1..=25).map(|i| (i, 1)).collect();
        let shards = vec![shard("alpha", &docs)];
        let (results, scored) = intersect_and_score(&shards, &stats(), |_| 0.0, 0.3);
        assert_eq!(results.len(), 25, "executor never truncates");
        assert_eq!(scored, 25);
    }
}

//! F1 — Figure 1: the QueenBee architecture wired end to end.

use crate::{engine, DOC_LEN};
use qb_bench::Table;
use qb_load::scenario::{corpus, publish_all, queries, sized};
use qb_queenbee::{RoutingPolicy, SearchRequest};

pub fn run() -> Vec<Table> {
    let corpus = corpus(0xF1, 20, DOC_LEN);
    let mut qb = engine(sized(32, 4, 0xF1));
    let accepted = publish_all(&mut qb, &corpus, 0..28).expect("publish");
    let rank = qb.run_rank_round().expect("rank round");
    let mut answered = 0;
    for q in queries(&corpus, 0xF1, 20) {
        if let Ok(out) = qb.search_request(SearchRequest::new(&q).route(RoutingPolicy::HashPeer(3)))
        {
            if !out.hits.is_empty() {
                answered += 1;
            }
        }
    }
    let stats = qb.chain.stats();
    let mut t = Table::new(
        "F1: architecture walkthrough (Figure 1) — every component exercised end to end",
        &["component", "evidence"],
    );
    t.row(&[
        &"DWeb peers (simnet)",
        &format!("{} peers online", qb.net.len()),
    ]);
    t.row(&[
        &"Kademlia DHT",
        &format!("{} nodes, routing tables populated", qb.dht.len()),
    ]);
    t.row(&[
        &"Decentralized storage",
        &format!("{accepted} pages stored + replicated"),
    ]);
    t.row(&[
        &"Blockchain + contracts",
        &format!(
            "height {}, {} ok txs, supply conserved = {}",
            stats.height,
            stats.ok_txs,
            stats.total_supply == qb_chain::GENESIS_SUPPLY
        ),
    ]);
    t.row(&[
        &"Worker bees",
        &format!(
            "{} bees, {} indexing tasks rewarded",
            qb.bees().len(),
            qb.bees().iter().map(|b| b.tasks_rewarded).sum::<u64>()
        ),
    ]);
    t.row(&[
        &"PageRank",
        &format!(
            "{} rounds, L1 error vs reference {:.2e}",
            rank.rounds, rank.l1_error_vs_reference
        ),
    ]);
    t.row(&[
        &"Query frontend",
        &format!("{answered}/20 sample queries answered with results"),
    ]);
    vec![t]
}

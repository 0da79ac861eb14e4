//! E8 — systems costs: DHT scaling, index, rank and chain micro-metrics.
//!
//! Simulated and structural costs only: host-clock throughput (indexing
//! docs/s, PageRank ms, chain tx/s) belongs to the `bench/` harness, the
//! one place the determinism contract lets the host clock be read.

use crate::DOC_LEN;
use qb_bench::{f2, f4, Table};
use qb_chain::AccountId;
use qb_common::{LatencyHistogram, SimInstant};
use qb_dht::{DhtConfig, DhtNetwork};
use qb_load::scenario::corpus;
use qb_simnet::{NetConfig, SimNet};

pub fn run() -> Vec<Table> {
    let mut t = Table::new(
        "E8a: DHT lookup cost vs network size (Kademlia, k=20, alpha=3)",
        &[
            "peers",
            "mean_hops",
            "mean_messages",
            "mean_latency_ms",
            "success_%",
        ],
    );
    for &n in &[32usize, 64, 128, 256] {
        let mut net = SimNet::new(n, NetConfig::default(), 0xE8);
        let mut dht = DhtNetwork::build(&mut net, DhtConfig::default());
        net.reset_stats();
        let mut hops = 0usize;
        let mut messages = 0u64;
        let mut lat = LatencyHistogram::new();
        let mut ok = 0usize;
        let trials = 40;
        for i in 0..trials {
            let key = qb_common::DhtKey::from_bytes(format!("probe{i}").as_bytes());
            dht.put_record(&mut net, (i % n) as u64, key, vec![1, 2, 3], 1)
                .expect("put");
            if let Ok(got) = dht.get_record(&mut net, ((i * 13 + 7) % n) as u64, key) {
                hops += got.hops;
                messages += got.messages;
                lat.record(got.latency);
                ok += 1;
            }
        }
        t.row(&[
            &n,
            &f2(hops as f64 / ok.max(1) as f64),
            &f2(messages as f64 / ok.max(1) as f64),
            &f2(lat.mean().as_millis_f64()),
            &f2(100.0 * ok as f64 / trials as f64),
        ]);
    }

    // Index and rank micro-metrics.
    let mut t2 = Table::new(
        "E8b: indexing, ranking and chain micro-metrics",
        &["metric", "value"],
    );
    let corpus = corpus(0xE8B, 60, DOC_LEN);
    let analyzer = qb_index::Analyzer::new();
    let mut index = qb_index::InvertedIndex::new();
    for (i, p) in corpus.pages.iter().enumerate() {
        index.index_text(&analyzer, &p.name, 1, corpus.creators[i], &p.text());
    }
    t2.row(&[&"distinct terms", &index.term_count()]);
    t2.row(&[
        &"index encoded size (KiB)",
        &f2(index.encoded_bytes() as f64 / 1024.0),
    ]);
    let mut graph = qb_rank::LinkGraph::new();
    for p in &corpus.pages {
        graph.set_links(&p.name, &p.out_links);
    }
    let ranks = qb_rank::pagerank(&graph);
    t2.row(&[&"pagerank mass", &f4(ranks.iter().sum::<f64>())]);
    let mut chain = qb_chain::Blockchain::new();
    for i in 0..2_000u64 {
        chain.submit_call(
            AccountId(100 + (i % 50)),
            qb_chain::Call::PublishPage {
                name: format!("p{i}"),
                cid: qb_common::Cid::for_data(&i.to_be_bytes()),
                out_links: vec![],
            },
        );
        if i % 500 == 499 {
            chain.seal_block(SimInstant::ZERO);
        }
    }
    chain.seal_block(SimInstant::ZERO);
    t2.row(&[
        &"chain integrity verified",
        &chain.verify_integrity().is_ok(),
    ]);
    vec![t, t2]
}

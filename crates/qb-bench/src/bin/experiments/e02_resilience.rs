//! E2 — resilience against node failures, partitions and DDoS.

use crate::{published, DOC_LEN};
use qb_baseline::{CentralizedConfig, CentralizedEngine};
use qb_bench::{crawl_docs, f2, Table};
use qb_common::SimInstant;
use qb_load::scenario::{corpus, queries, sized};
use qb_queenbee::{QueenBee, RoutingPolicy, SearchRequest};
use std::collections::HashMap;

/// True when `peer`'s query comes back with at least one hit.
fn answered(qb: &mut QueenBee, q: &str, peer: u64) -> bool {
    qb.search_request(SearchRequest::new(q).route(RoutingPolicy::HashPeer(peer)))
        .map(|o| !o.hits.is_empty())
        .unwrap_or(false)
}

pub fn run() -> Vec<Table> {
    let corpus = corpus(0xE2, 60, DOC_LEN);
    let crawl = crawl_docs(&corpus, &HashMap::new());
    let failure_probes = queries(&corpus, 0xE2, 50);
    let partition_probes = queries(&corpus, 0xE2B, 40);
    let mut t = Table::new(
        "E2: query availability under failures (fraction of peers failed; central server is peer 0)",
        &["failed_fraction", "queenbee_ok_%", "centralized_ok_%"],
    );
    for failed_fraction in [0.0, 0.1, 0.2, 0.3, 0.4, 0.5] {
        let seed = 0xE2 + (failed_fraction * 100.0) as u64;
        let mut qb = published(sized(64, 6, seed), &corpus);
        let mut central = CentralizedEngine::new(CentralizedConfig::default());
        central.crawl(&crawl, SimInstant::ZERO);
        // Fail peers; bees are not protected (they are ordinary peers).
        let downed = qb.net.fail_fraction(failed_fraction, &[]);
        // The centralized service lives on peer 0: it fails if peer 0 failed.
        central.online = !downed.contains(&0);
        let mut qb_ok = 0usize;
        let mut central_ok = 0usize;
        for (i, q) in failure_probes.iter().enumerate() {
            // Query from a random online peer.
            let mut peer = (i * 7 % qb.net.len()) as u64;
            let mut tries = 0;
            while !qb.net.is_online(peer) && tries < qb.net.len() {
                peer = (peer + 1) % qb.net.len() as u64;
                tries += 1;
            }
            if answered(&mut qb, q, peer) {
                qb_ok += 1;
            }
            if central.search(q, 10.0).is_ok() {
                central_ok += 1;
            }
        }
        t.row(&[
            &f2(failed_fraction),
            &f2(100.0 * qb_ok as f64 / failure_probes.len() as f64),
            &f2(100.0 * central_ok as f64 / failure_probes.len() as f64),
        ]);
    }

    // Partition: split the network in two; the central server is only in one half.
    let mut t_p = Table::new(
        "E2b: behaviour under a network partition (two halves)",
        &["scenario", "queenbee_ok_%", "centralized_ok_%"],
    );
    let mut qb = published(sized(64, 6, 0xE2B), &corpus);
    let mut central = CentralizedEngine::new(CentralizedConfig::default());
    central.crawl(&crawl, SimInstant::ZERO);
    for (scenario, partitioned) in [("no partition", false), ("2-way partition", true)] {
        if partitioned {
            qb.net.partition_round_robin(2);
        } else {
            qb.net.heal_all();
        }
        let mut qb_ok = 0;
        let mut central_ok = 0;
        for (i, q) in partition_probes.iter().enumerate() {
            let peer = (i % 60) as u64;
            if answered(&mut qb, q, peer) {
                qb_ok += 1;
            }
            // Clients in the other partition cannot reach the central server.
            let reachable = !partitioned || qb.net.partition_of(peer) == qb.net.partition_of(0);
            if reachable && central.search(q, 10.0).is_ok() {
                central_ok += 1;
            }
        }
        t_p.row(&[
            &scenario,
            &f2(100.0 * qb_ok as f64 / partition_probes.len() as f64),
            &f2(100.0 * central_ok as f64 / partition_probes.len() as f64),
        ]);
    }
    vec![t, t_p]
}

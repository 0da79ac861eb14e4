//! Regenerates every experiment table of the reproduction: F1 + E1–E8 are
//! the paper's claims, E9–E17 measure this repository's extensions. One
//! module per experiment, one registry ([`EXPERIMENTS`]) naming them.
//!
//! Usage:
//!   cargo run -p qb-bench --release --bin experiments -- all
//!   cargo run -p qb-bench --release --bin experiments -- e3 e6
//!
//! Each experiment prints a human-readable table, and the run writes the
//! same rows as JSON to `bench-results/experiments.json`. Every table is a
//! pure function of its seeds, so CI compares the two suites byte for byte
//! against committed baselines (`f1 e1 … e8` against
//! `bench-results/baseline-paper.json`, `e9 … e17` against
//! `bench-results/baseline-quick.json`), and the experiments assert their
//! own acceptance criteria (cache savings, >=30% gossip RPC reduction,
//! zero staleness, >=30% batched fetch reduction with byte-identical
//! results, …), so a regression fails the process instead of silently
//! changing a table.

mod e01_latency;
mod e02_resilience;
mod e03_freshness;
mod e04_tamper;
mod e05_incentives;
mod e06_collusion;
mod e07_scraper;
mod e08_systems_costs;
mod e09_cache;
mod e10_gossip;
mod e11_batch;
mod e12_churn;
mod e13_pipeline;
mod e14_open_loop;
mod e15_tracing;
mod e16_segment;
mod e17_routing;
mod f1;

use qb_bench::Table;
use qb_load::scenario;
use qb_queenbee::{QueenBee, QueenBeeConfig};
use qb_workload::Corpus;
use std::process::ExitCode;

/// An experiment: builds its scenarios, asserts its criteria, returns its
/// tables.
type Experiment = fn() -> Vec<Table>;

/// Every experiment by the name the command line takes, in the order
/// `all` runs them.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("f1", f1::run),
    ("e1", e01_latency::run),
    ("e2", e02_resilience::run),
    ("e3", e03_freshness::run),
    ("e4", e04_tamper::run),
    ("e5", e05_incentives::run),
    ("e6", e06_collusion::run),
    ("e7", e07_scraper::run),
    ("e8", e08_systems_costs::run),
    ("e9", e09_cache::run),
    ("e10", e10_gossip::run),
    ("e11", e11_batch::run),
    ("e12", e12_churn::run),
    ("e13", e13_pipeline::run),
    ("e14", e14_open_loop::run),
    ("e15", e15_tracing::run),
    ("e16", e16_segment::run),
    ("e17", e17_routing::run),
];

/// Resolve the command line against the registry before anything runs: no
/// argument or `all` selects every experiment, and one unknown name
/// rejects the whole invocation.
fn select(args: &[String]) -> Result<Vec<&'static (&'static str, Experiment)>, String> {
    let mut selected = Vec::new();
    for arg in args {
        match EXPERIMENTS.iter().find(|(name, _)| name == arg) {
            Some(entry) => selected.push(entry),
            None if arg == "all" => {}
            None => {
                return Err(format!(
                    "unknown experiment '{arg}' (use f1, e1..e17 or all)"
                ))
            }
        }
    }
    if args.is_empty() || args.iter().any(|a| a == "all") {
        return Ok(EXPERIMENTS.iter().collect());
    }
    Ok(selected)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected = match select(&args) {
        Ok(selected) => selected,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    let mut json = Vec::new();
    for (_, run) in selected {
        for table in run() {
            print!("{}", table.render());
            json.push(table.to_json());
        }
    }
    match write_json("experiments.json", &serde_json::Value::Array(json)) {
        Ok(()) => {
            println!("\n(wrote bench-results/experiments.json)");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}

/// Write `contents` to `bench-results/<file>`.
fn write_result(file: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all("bench-results")
        .and_then(|()| std::fs::write(format!("bench-results/{file}"), contents))
        .map_err(|e| format!("writing bench-results/{file}: {e}"))
}

/// Write `value` as pretty-printed JSON to `bench-results/<file>`.
fn write_json(file: &str, value: &serde_json::Value) -> Result<(), String> {
    let text = serde_json::to_string_pretty(value)
        .map_err(|e| format!("serialising bench-results/{file}: {e}"))?;
    write_result(file, &text)
}

/// Mean document length of every experiment corpus.
const DOC_LEN: usize = 80;

/// Build an engine (an invalid experiment configuration is a bug here).
fn engine(config: QueenBeeConfig) -> QueenBee {
    QueenBee::new(config).expect("valid experiment configuration")
}

/// Build an engine with `corpus` published round-robin from its non-bee
/// peers and indexed.
fn published(config: QueenBeeConfig, corpus: &Corpus) -> QueenBee {
    let publishers = 0..(config.num_peers - config.num_bees) as u64;
    scenario::published(config, corpus, publishers).expect("valid configuration and corpus")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn selected(names: &[&str]) -> Result<Vec<&'static str>, String> {
        let args: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        Ok(select(&args)?.iter().map(|(name, _)| *name).collect())
    }

    #[test]
    fn the_registry_names_f1_then_e1_to_e17_once_each() {
        let names: Vec<String> = EXPERIMENTS.iter().map(|(n, _)| n.to_string()).collect();
        let expected: Vec<String> = std::iter::once("f1".to_string())
            .chain((1..=17).map(|i| format!("e{i}")))
            .collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn all_and_no_argument_select_every_experiment() {
        let every: Vec<&str> = EXPERIMENTS.iter().map(|(name, _)| *name).collect();
        assert_eq!(selected(&["all"]).unwrap(), every);
        assert_eq!(selected(&[]).unwrap(), every);
        assert_eq!(selected(&["e3", "all"]).unwrap(), every);
        assert_eq!(selected(&["e9", "f1"]).unwrap(), ["e9", "f1"]);
    }

    #[test]
    fn an_unknown_name_rejects_the_invocation_before_anything_runs() {
        // `select` runs nothing, so an `Err` here is a rejection up front.
        for (args, culprit) in [
            (&["--quick", "e9"][..], "--quick"),
            (&["e99"][..], "e99"),
            (&["all", "e99"][..], "e99"),
        ] {
            assert!(selected(args).unwrap_err().contains(culprit));
        }
    }
}

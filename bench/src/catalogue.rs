//! The metric and workload catalogue, in one place: `--catalogue` prints
//! it as the tables of `bench/README.md`, `--catalogue json` prints
//! `BENCHMARK.json`, and a unit test holds the committed file to it.

use crate::workload::Kind;

pub struct WorkloadSpec {
    pub kind: Kind,
    /// Loop discipline with its rate or client count.
    pub driving: &'static str,
    /// One-sentence reason the workload exists.
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadSpec; 4] = [
    WorkloadSpec {
        kind: Kind::ServeWarm,
        driving: "open loop, Poisson 15 q/s",
        why: "open loop, Zipf(1.0) trace over 48 queries, 90% Fresh, 4-frontend WAN fleet: planner, routing, admission, cache tiers, pipeline and gossip do the work",
    },
    WorkloadSpec {
        kind: Kind::ColdLookup,
        driving: "closed loop, 1 client",
        why: "closed loop, 256 LAN peers, cache off, rare single-term Fresh reads: simnet, DHT walks, storage tails and index read machines do the work, scoring almost none",
    },
    WorkloadSpec {
        kind: Kind::ScoreHeavy,
        driving: "closed loop, 1 client",
        why: "closed loop, 300 pages, warm shard tier, result tier bypassed, 2-3 head terms per query: shard clones, intersect, BM25, rank blend and sort do the work, the network none",
    },
    WorkloadSpec {
        kind: Kind::PublishChurn,
        driving: "closed loop, 1 client",
        why: "closed loop, 4-frontend fleet with gossip and segments, 1 republish per 3 Fresh reads: shard writes, invalidation, gossip fills and compaction beside the read path",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// Which clock it is read from and how it repeats at equal seed.
    pub clock: &'static str,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 12] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
        clock: "host, calibrated",
        what: "calibrated host time to build the scenario: engine, corpus publish, indexing, rank round, cache warm-up (median of 5 repetitions)",
    },
    EndToEnd {
        name: "host_ops_per_s",
        unit: "op/s",
        better: "higher",
        bound: 0.20,
        clock: "host, calibrated",
        what: "ops per calibrated host second over the timed region: the simulator's speed, what every test, experiment and CI job pays",
    },
    EndToEnd {
        name: "host_peak_rss_mb",
        unit: "MiB",
        better: "lower",
        bound: 0.10,
        clock: "host",
        what: "peak resident set of the process (VmHWM)",
    },
    EndToEnd {
        name: "host_allocs_per_op",
        unit: "alloc/op",
        better: "lower",
        bound: 0.06,
        clock: "host, exact count",
        what: "heap allocations per op in the timed region",
    },
    EndToEnd {
        name: "host_alloc_kb_per_op",
        unit: "KiB/op",
        better: "lower",
        bound: 0.06,
        clock: "host, exact count",
        what: "heap bytes requested per op in the timed region",
    },
    EndToEnd {
        name: "sim_p50_ms",
        unit: "ms",
        better: "lower",
        bound: 0.15,
        clock: "simulated, to the digit",
        what: "median simulated latency per op (open loop: from the arrival's due time; closed loop: call to response)",
    },
    EndToEnd {
        name: "sim_p99_ms",
        unit: "ms",
        better: "lower",
        bound: 0.15,
        clock: "simulated, to the digit",
        what: "p99 of the same (the highest percentile with at least 10 samples beyond it; the run prints which, and the sample count)",
    },
    EndToEnd {
        name: "sim_ops_per_s",
        unit: "op/s",
        better: "higher",
        bound: 0.20,
        clock: "simulated, to the digit",
        what: "completed correct ops per simulated second of makespan (goodput)",
    },
    EndToEnd {
        name: "sim_msgs_per_op",
        unit: "msg/op",
        better: "lower",
        bound: 0.10,
        clock: "simulated, to the digit",
        what: "NetStats.messages delta per op: the paper's message cost",
    },
    EndToEnd {
        name: "sim_kb_per_op",
        unit: "KiB/op",
        better: "lower",
        bound: 0.10,
        clock: "simulated, to the digit",
        what: "NetStats.bytes delta per op",
    },
    EndToEnd {
        name: "served_frac",
        unit: "ratio",
        better: "higher",
        bound: 0.005,
        clock: "simulated, to the digit",
        what: "ops answered correctly and (serve-warm) inside the 1 s simulated latency limit, over ops attempted; shed, errored, late and wrong-answer ops all count as failed",
    },
    EndToEnd {
        name: "undegraded_frac",
        unit: "ratio",
        better: "higher",
        bound: 0.10,
        clock: "simulated, to the digit",
        what: "served ops answered at the freshness they asked for (not degraded Fresh to CacheOk), over served ops",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn pl(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
    }
}

const SIMNET: &str = "H on cold-lookup; sim_p99_ms on serve-warm; nothing on score-heavy";
const DHT: &str = "H, sim_msgs_per_op, sim_p50_ms on cold-lookup";
const STORAGE: &str = "H, sim_kb_per_op on cold-lookup and publish-churn";
const INDEX_READ: &str = "H, A on score-heavy (intersect, decode); H on cold-lookup (read)";
const INDEX_WRITE: &str = "H, sim_kb_per_op on publish-churn";
const EXECUTOR: &str = "H, A on score-heavy; nothing on cold-lookup";
const SERVING: &str = "H, sim_p50_ms on serve-warm";
const ADMISSION: &str = "sim_p99_ms, served_frac, undegraded_frac on serve-warm";
const CACHE: &str = "sim_msgs_per_op, sim_p50_ms on serve-warm; H on publish-churn";
const GOSSIP: &str = "sim_kb_per_op on serve-warm and publish-churn";
const SEGMENT: &str = "H, sim_kb_per_op on publish-churn only";
const PUBLISH: &str = "H, sim_msgs_per_op on publish-churn; setup_s everywhere";
const DIAGNOSTIC: &str = "diagnostic";
const SHARE: &str = "the workload-separation matrix";

/// H = `host_ops_per_s`, A = `host_allocs_per_op`.
pub const PER_LAYER: [PerLayer; 64] = [
    pl("simnet.send_poll_ns", "ns", "lower", SIMNET),
    pl("simnet.events_per_host_s", "1/s", "higher", SIMNET),
    pl("simnet.queued_op_frac", "ratio", "lower", SIMNET),
    pl("simnet.queue_delay_ms_per_op", "ms/op", "lower", SIMNET),
    pl("simnet.failed_rpc_frac", "ratio", "lower", SIMNET),
    pl("dht.lookup_us", "us", "lower", DHT),
    pl("dht.rpcs_per_lookup", "msg", "lower", DHT),
    pl("dht.hedge_fired_frac", "ratio", "lower", DHT),
    pl("dht.hedge_won_frac", "ratio", "higher", DHT),
    pl("storage.get_object_us", "us", "lower", STORAGE),
    pl("storage.cache_hit_frac", "ratio", "higher", STORAGE),
    pl("index.intersect_ns_per_posting", "ns", "lower", INDEX_READ),
    pl("index.shard_decode_mb_per_s", "MB/s", "higher", INDEX_READ),
    pl("index.shard_encode_mb_per_s", "MB/s", "higher", INDEX_WRITE),
    pl("index.read_shard_us", "us", "lower", INDEX_READ),
    pl("index.write_shard_us", "us", "lower", INDEX_WRITE),
    pl("index.shard_kb_mean", "KiB", "lower", INDEX_WRITE),
    pl("executor.score_ns_per_candidate", "ns", "lower", EXECUTOR),
    pl("executor.candidates_per_hit", "ratio", "lower", EXECUTOR),
    pl("executor.memo_hit_frac", "ratio", "higher", EXECUTOR),
    pl("executor.allocs_per_query", "alloc", "lower", EXECUTOR),
    pl("plan.plan_ns", "ns", "lower", SERVING),
    pl("routing.route_ns", "ns", "lower", SERVING),
    pl("routing.diverted_frac", "ratio", "lower", SERVING),
    pl("pipeline.windows_per_kop", "1/kop", "lower", SERVING),
    pl("pipeline.shard_dedup_frac", "ratio", "higher", SERVING),
    pl("stage.fetch_ms", "ms", "lower", SERVING),
    pl("stage.stats_ms", "ms", "lower", SERVING),
    pl("stage.net_queue_ms", "ms", "lower", SERVING),
    pl("stage.score_ms", "ms", "lower", SERVING),
    pl("admission.queue_wait_p99_ms", "ms", "lower", ADMISSION),
    pl("admission.shed_frac", "ratio", "lower", ADMISSION),
    pl("admission.degraded_frac", "ratio", "lower", ADMISSION),
    pl("admission.peak_queue_depth", "count", "lower", ADMISSION),
    pl("cache.probe_ns", "ns", "lower", CACHE),
    pl("cache.admit_ns", "ns", "lower", CACHE),
    pl("cache.result_hit_frac", "ratio", "higher", CACHE),
    pl("cache.shard_hit_frac", "ratio", "higher", CACHE),
    pl("cache.negative_hit_frac", "ratio", "higher", CACHE),
    pl("cache.evictions_per_kop", "1/kop", "lower", CACHE),
    pl("cache.invalidations_per_publish", "count", "lower", CACHE),
    pl("gossip.round_us", "us", "lower", GOSSIP),
    pl("gossip.kb_per_round", "KiB", "lower", GOSSIP),
    pl("gossip.fill_accept_frac", "ratio", "higher", GOSSIP),
    pl("gossip.stale_rejected", "count", "lower", GOSSIP),
    pl("segment.encode_mb_per_s", "MB/s", "higher", SEGMENT),
    pl("segment.decode_mb_per_s", "MB/s", "higher", SEGMENT),
    pl("segment.merge_mb_per_s", "MB/s", "higher", SEGMENT),
    pl("segment.write_amp", "ratio", "lower", SEGMENT),
    pl("publish.page_us", "us", "lower", PUBLISH),
    pl("publish.index_us_per_page", "us", "lower", PUBLISH),
    pl("publish.shard_writes_per_page", "count", "lower", PUBLISH),
    pl("publish.msgs_per_page", "msg", "lower", PUBLISH),
    pl(
        "trace.engine_on_overhead_frac",
        "ratio",
        "lower",
        DIAGNOSTIC,
    ),
    pl("trace.spans_per_op", "count", "lower", DIAGNOSTIC),
    pl("bench.raw_ops_per_s", "op/s", "higher", DIAGNOSTIC),
    pl("bench.slice_median_over_min", "ratio", "lower", DIAGNOSTIC),
    pl("bench.calib_median_over_min", "ratio", "lower", DIAGNOSTIC),
    pl("bench.span_overhead_frac", "ratio", "lower", DIAGNOSTIC),
    pl("load.gen_late_ms_max", "ms", "lower", DIAGNOSTIC),
    pl("share.fetch", "ratio", "higher", SHARE),
    pl("share.score", "ratio", "higher", SHARE),
    pl("share.write", "ratio", "higher", SHARE),
    pl("share.serve", "ratio", "higher", SHARE),
];

/// What `BENCHMARK.json` must say `run_seconds` is.
pub const RUN_SECONDS: u32 = 15;

/// Unit of a metric by name (end-to-end or per-layer).
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// A bound as a percentage without float dust (`0.1` is "10", not
/// "10.000000000000002").
fn percent(bound: f64) -> f64 {
    (bound * 1_000.0).round() / 10.0
}

/// One row of the end-to-end table, as `bench/README.md` carries it.
fn end_to_end_row(m: &EndToEnd) -> String {
    format!(
        "| `{}` | {} | {} | {} % | {} | {} |",
        m.name,
        m.unit,
        m.better,
        percent(m.bound),
        m.clock,
        m.what
    )
}

/// The catalogue as the markdown tables of `bench/README.md`.
pub fn markdown() -> String {
    let mut out = String::from("| workload | driven | why |\n|---|---|---|\n");
    for w in &WORKLOADS {
        out += &format!("| `{}` | {} | {} |\n", w.kind.name(), w.driving, w.why);
    }
    out += "\n| end-to-end metric | unit | better | bound | clock | what it is |\n|---|---|---|---|---|---|\n";
    for m in &END_TO_END {
        out += &end_to_end_row(m);
        out.push('\n');
    }
    out += "\n| per-layer metric | unit | better | should move |\n|---|---|---|---|\n";
    for m in &PER_LAYER {
        out += &format!(
            "| `{}` | {} | {} | {} |\n",
            m.name, m.unit, m.better, m.moves
        );
    }
    out
}

/// `BENCHMARK.json`, generated from the catalogue.
pub fn benchmark_json() -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| {
            format!(
                "    {{\"name\": \"{}\", \"why\": \"{}\"}}",
                w.kind.name(),
                w.why
            )
        })
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"bench/Cargo.toml\", \"--\"],\n  \"paths\": [\"bench\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn catalogue_meets_the_benchmark_contract() {
        let mut names = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.kind.name()) && names.insert(w.kind.name()));
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.kind.name()
            );
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{} {}", m.name, m.unit);
            assert!(m.better == "lower" || m.better == "higher");
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s carries the largest bound"
        );
        assert!((1..=60).contains(&RUN_SECONDS));
        assert_eq!(unit_of("sim_p99_ms"), "ms");
        assert_eq!(unit_of("share.fetch"), "ratio");
    }

    #[test]
    fn committed_benchmark_json_is_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `qb-perfbench --catalogue json > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
        let parsed: serde_json::Value = serde_json::from_str(&committed).expect("valid JSON");
        assert_eq!(parsed["workloads"].as_array().map(Vec::len), Some(4));
        assert_eq!(parsed["end_to_end"].as_array().map(Vec::len), Some(12));
        assert_eq!(parsed["per_layer"].as_array().map(Vec::len), Some(64));
    }

    #[test]
    fn readme_carries_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/README.md");
        let readme = std::fs::read_to_string(path).expect("bench/README.md");
        for m in &END_TO_END {
            assert!(
                readme.contains(&end_to_end_row(m)),
                "README row of {} is stale; regenerate with --catalogue",
                m.name
            );
        }
        for m in &PER_LAYER {
            assert!(
                readme.contains(&format!("`{}`", m.name)),
                "{} missing",
                m.name
            );
        }
        for w in &WORKLOADS {
            assert!(readme.contains(&format!("| `{}` |", w.kind.name())));
            let rate = w.driving.rsplit(", ").next().unwrap_or(w.driving);
            assert!(
                readme.contains(rate),
                "'{rate}' of {} missing",
                w.kind.name()
            );
        }
    }

    #[test]
    fn markdown_lists_every_metric_once() {
        let md = markdown();
        for m in &END_TO_END {
            assert_eq!(
                md.matches(&format!("| `{}` |", m.name)).count(),
                1,
                "{}",
                m.name
            );
        }
        for m in &PER_LAYER {
            assert_eq!(
                md.matches(&format!("| `{}` |", m.name)).count(),
                1,
                "{}",
                m.name
            );
        }
    }
}

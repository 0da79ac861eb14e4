//! CI bench-regression gate: diff the key metrics of an E9–E17
//! experiments run against the committed baseline and fail on regressions.
//!
//! Usage:
//!   cargo run -p qb-bench --release --bin bench_gate -- \
//!       bench-results/baseline-quick.json bench-results/experiments.json \
//!       [--threshold 0.10]
//!
//! The gate reads the machine-readable tables the `experiments` binary
//! writes, extracts the headline metrics from the optimized configurations
//! of E9–E17 and fails when a current value regresses past the threshold
//! (default 10%): lower-is-better metrics (DHT shard fetches, RPC
//! messages, gossip bytes, stale serves, pipelined makespan, open-loop
//! tail latency, shed rate, segment-bootstrap cost and the post-crash
//! routing spike) must not rise above `baseline * (1 + t)`,
//! higher-is-better metrics (the batch-aware warm-round lead, overload
//! goodput) must not fall below `baseline * (1 - t)`. Zero-baselines are exact: any stale result served
//! fails outright. A higher-is-better check whose baseline reads 0 fails
//! as vacuous: its limit would be 0, which nothing falls below. Metrics
//! whose table is missing from the *baseline* are
//! reported and skipped (a new experiment lands before its baseline);
//! metrics missing from the *current* run fail (an experiment silently
//! dropped out of the smoke job).

use serde_json::Value;
use std::process::ExitCode;

/// One gated metric: the first table whose title starts with `table`, the
/// row where `key_col == key_val`, the numeric cell in `col`. Metrics are
/// lower-is-better unless `higher_is_better` flips the comparison.
struct Check {
    table: &'static str,
    key_col: &'static str,
    key_val: &'static str,
    col: &'static str,
    higher_is_better: bool,
}

/// Shorthand for the common lower-is-better check.
const fn lower(
    table: &'static str,
    key_col: &'static str,
    key_val: &'static str,
    col: &'static str,
) -> Check {
    Check {
        table,
        key_col,
        key_val,
        col,
        higher_is_better: false,
    }
}

/// A metric that must not *drop* (dedup hits, warm-round lead).
const fn higher(
    table: &'static str,
    key_col: &'static str,
    key_val: &'static str,
    col: &'static str,
) -> Check {
    Check {
        table,
        key_col,
        key_val,
        col,
        higher_is_better: true,
    }
}

const CHECKS: &[Check] = &[
    // E9: the cache-on run must keep paying for itself.
    lower("E9a", "config", "cache on", "rpc_messages"),
    lower("E9a", "config", "cache on", "shard_fetches"),
    lower("E9a", "config", "cache on", "stale_results"),
    // E10: the gossip fleet's traffic and overhead.
    lower("E10a", "config", "gossip on", "rpc_messages"),
    lower("E10a", "config", "gossip on", "dht_shard_fetches"),
    lower("E10a", "config", "gossip on", "gossip_bytes"),
    lower("E10a", "config", "gossip on", "stale_results"),
    // E11: batched execution.
    lower("E11", "config", "batched", "rpc_messages"),
    lower("E11", "config", "batched", "dht_shard_fetches"),
    // E12: the churn/zone fleet under compressed digests.
    lower("E12a", "config", "delta digests", "rpc_messages"),
    lower("E12a", "config", "delta digests", "dht_shard_fetches"),
    lower("E12a", "config", "delta digests", "steady_digest_bytes"),
    lower("E12a", "config", "delta digests", "gossip_bytes_total"),
    lower("E12a", "config", "delta digests", "stale_results"),
    // E13: the pipelined engine's makespan and the gossip lead.
    lower("E13a", "config", "pipelined", "makespan_ms"),
    higher("E13b", "config", "warm-round lead", "rounds_to_warm"),
    // E14: open-loop admission control. Below saturation the tail must
    // stay bounded and nothing may shed (zero baseline = exact check);
    // above saturation goodput must hold up and shedding must not grow.
    lower("E14a", "load", "0.25x", "p99_ms"),
    lower("E14a", "load", "0.25x", "shed_rate_%"),
    higher("E14a", "load", "4x", "goodput_qps"),
    lower("E14a", "load", "4x", "shed_rate_%"),
    // E15: tracing integrity. The makespan delta between traced and
    // untraced replays has a zero baseline, so any simulated-time overhead
    // from enabling the tracer fails exactly; the attribution regime
    // (queueing-dominated tail at 4x, fetch-dominated below saturation)
    // must not drift.
    lower("E15b", "metric", "tracing_makespan_delta_%", "value"),
    higher("E15a", "load", "4x", "tail_queue_share_%"),
    lower("E15a", "load", "0.25x", "all_queue_share_%"),
    // E12: zone-aware anti-entropy must keep reconciliation traffic from
    // drifting back (the zone-aware run's totals).
    lower(
        "E12a",
        "config",
        "delta + zone budgets + zone-aware AE",
        "stale_results",
    ),
    // E16: segment bootstrap. A joiner importing the artifact converges
    // at round 0 with zero warm-up DHT fetches in this scenario —
    // both are exact zero-baseline checks — and the bootstrap byte
    // window must not regress past the threshold.
    lower("E16a", "config", "segment join", "rounds_to_95"),
    lower("E16a", "config", "segment join", "probe_dht_fetches"),
    lower("E16a", "config", "segment join", "bootstrap_bytes"),
    lower("E16a", "config", "segment join", "stale_results"),
    // E17: replica-aware routing. The post-crash load spike under
    // rendezvous + two-choices must not creep back toward the ring walk's.
    lower(
        "E17a",
        "routing",
        "rendezvous + 2-choices",
        "max_over_fair_share",
    ),
    lower(
        "E12c",
        "routing",
        "rendezvous + 2-choices",
        "max_over_mean_survivor",
    ),
];

fn load(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let json: Value = serde_json::from_str(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    json.as_array()
        .cloned()
        .ok_or_else(|| format!("{path}: top-level JSON array of tables expected"))
}

/// Find a check's metric in a table dump; `None` when the table or row is
/// absent, `Some(Err)` when present but not numeric.
fn find_metric(tables: &[Value], c: &Check) -> Option<Result<f64, String>> {
    for t in tables {
        let Some(title) = t["title"].as_str() else {
            continue;
        };
        if !title.starts_with(c.table) {
            continue;
        }
        let Some(rows) = t["rows"].as_array() else {
            continue;
        };
        for row in rows {
            if row[c.key_col].as_str() != Some(c.key_val) {
                continue;
            }
            let Some(cell) = row[c.col].as_str() else {
                return Some(Err(format!("column '{}' missing", c.col)));
            };
            return Some(
                cell.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("cell '{cell}' is not numeric")),
            );
        }
    }
    None
}

/// Why check `c` fails at `cur` against its baseline `base`, or `None`
/// when it holds. A lower-is-better zero baseline (stale serves) is exact,
/// its limit 0; everything else gets the relative threshold, inverted for
/// higher-is-better metrics, whose zero baseline would gate nothing.
fn failure(c: &Check, base: f64, cur: f64, threshold: f64) -> Option<String> {
    if c.higher_is_better && base == 0.0 {
        let why = "baseline reads 0, so this higher-is-better check can never fail (vacuous)";
        return Some(why.into());
    }
    let (limit, regressed) = if c.higher_is_better {
        let limit = base * (1.0 - threshold);
        (limit, cur < limit)
    } else {
        let limit = base * (1.0 + threshold);
        (limit, cur > limit)
    };
    regressed.then(|| format!("{cur} vs baseline {base} (limit {limit:.1})"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut threshold = 0.10f64;
    let mut paths: Vec<&str> = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--threshold" {
            let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) else {
                eprintln!("--threshold needs a numeric value");
                return ExitCode::FAILURE;
            };
            threshold = v;
        } else {
            paths.push(arg);
        }
    }
    let [baseline_path, current_path] = paths[..] else {
        eprintln!("usage: bench_gate <baseline.json> <current.json> [--threshold 0.10]");
        return ExitCode::FAILURE;
    };
    let (baseline, current) = match (load(baseline_path), load(current_path)) {
        (Ok(b), Ok(c)) => (b, c),
        (b, c) => {
            for err in [b.err(), c.err()].into_iter().flatten() {
                eprintln!("bench_gate: {err}");
            }
            return ExitCode::FAILURE;
        }
    };

    println!(
        "bench_gate: {} metrics, regression threshold {:.0}% ({} vs {})",
        CHECKS.len(),
        threshold * 100.0,
        current_path,
        baseline_path
    );
    let mut failures = 0usize;
    let mut skipped = 0usize;
    for c in CHECKS {
        let label = format!("{} [{}] {}", c.table, c.key_val, c.col);
        let base = match find_metric(&baseline, c) {
            None => {
                println!("  SKIP  {label}: not in baseline (new experiment?)");
                skipped += 1;
                continue;
            }
            Some(Err(e)) => {
                println!("  FAIL  {label}: baseline {e}");
                failures += 1;
                continue;
            }
            Some(Ok(v)) => v,
        };
        let cur = match find_metric(&current, c) {
            None => {
                println!("  FAIL  {label}: missing from the current run");
                failures += 1;
                continue;
            }
            Some(Err(e)) => {
                println!("  FAIL  {label}: current {e}");
                failures += 1;
                continue;
            }
            Some(Ok(v)) => v,
        };
        if let Some(why) = failure(c, base, cur, threshold) {
            println!("  FAIL  {label}: {why}");
            failures += 1;
        } else {
            let delta = if base == 0.0 {
                "±0%".to_string()
            } else {
                format!("{:+.1}%", 100.0 * (cur - base) / base)
            };
            println!("  ok    {label}: {cur} vs {base} ({delta})");
        }
    }
    println!(
        "bench_gate: {} failed, {} skipped, {} checked",
        failures,
        skipped,
        CHECKS.len() - skipped
    );
    if failures > 0 {
        eprintln!(
            "bench_gate: key metrics regressed >{:.0}% against {baseline_path}; \
             if intentional, regenerate the baseline with \
             `cargo run -p qb-bench --release --bin experiments -- e9 e10 e11 e12 e13 e14 e15 e16 e17` \
             and copy bench-results/experiments.json over the baseline file.",
            threshold * 100.0
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_higher_check_on_a_zero_baseline_fails_as_vacuous() {
        let lead = higher("E0", "config", "row", "lead");
        for cur in [0.0, 1.0, 100.0] {
            let why = failure(&lead, 0.0, cur, 0.1);
            assert!(why.is_some_and(|why| why.contains("vacuous")), "{cur}");
        }
        assert_eq!(failure(&lead, 10.0, 9.5, 0.1), None);
        assert!(failure(&lead, 10.0, 8.0, 0.1).is_some());
        // A lower-is-better zero baseline is an exact check, not a vacuous
        // one.
        let stale = lower("E0", "config", "row", "stale_results");
        assert_eq!(failure(&stale, 0.0, 0.0, 0.1), None);
        assert!(failure(&stale, 0.0, 1.0, 0.1).is_some());
    }
}

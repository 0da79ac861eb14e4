//! `--agree` and `--separation`: the benchmark checking itself. Both run
//! the benchmark as child processes (one run, one process — peak RSS and
//! allocator state must not leak between runs), one at a time, and wait
//! for each to end.

use crate::catalogue::{END_TO_END, RUN_SECONDS};
use crate::layers::target_share;
use crate::stats::{iqr_over_median, median, quartiles};
use crate::workload::Kind;
use std::collections::BTreeMap;
use std::process::Command;

/// One child run's parsed output.
struct ChildRun {
    correct: bool,
    metrics: BTreeMap<String, f64>,
    fingerprint: String,
}

fn run_child(kind: Kind, seed: u64, seconds: u32, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", kind.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("spawning the benchmark: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    parse_child(&stdout).map_err(|e| {
        format!(
            "{} seed {seed}: {e} (exit {:?})\n{stdout}",
            kind.name(),
            output.status.code()
        )
    })
}

/// Parse a run's standard output: the `sim_fingerprint` line and the
/// summary object on the last line.
fn parse_child(stdout: &str) -> Result<ChildRun, String> {
    let fingerprint = stdout
        .lines()
        .find_map(|l| l.strip_prefix("sim_fingerprint "))
        .ok_or("no sim_fingerprint line")?
        .trim()
        .to_string();
    let last = stdout.lines().last().ok_or("no output")?;
    let summary = serde_json::from_str(last).map_err(|e| format!("summary line: {e:?}"))?;
    let metrics = summary["metrics"]
        .as_object()
        .ok_or("summary has no metrics object")?
        .iter()
        .filter_map(|(name, m)| match m["value"] {
            serde_json::Value::Number(v) => Some((name.clone(), v)),
            _ => None,
        })
        .collect();
    Ok(ChildRun {
        correct: summary["correct"] == serde_json::Value::Bool(true),
        metrics,
        fingerprint,
    })
}

/// By how much of `a`'s median `b`'s median is worse (negative: better).
fn worse_by(better: &str, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    match better {
        "higher" => (a - b) / a.abs(),
        _ => (b - a) / a.abs(),
    }
}

/// `--agree n`: two interleaved sets (A1 B1 A2 B2 …) of `n` runs per
/// workload at one seed. Fails when the sets' medians are further apart
/// than a metric's bound (in either direction), when a set's own quartile
/// spread exceeds it, or when anything simulated differs in any digit.
pub fn agree(n: usize, seed: u64, seconds: u32) -> bool {
    let mut ok = true;
    println!(
        "agree: 2 interleaved sets of {n} runs per workload, seed {seed}, {seconds} s per run\n"
    );
    println!("| workload | metric | set A median [q1, q3] | set B median [q1, q3] | gap | spread A / B | bound | |");
    println!("|---|---|---|---|---|---|---|---|");
    for kind in Kind::ALL {
        let mut sets: [Vec<ChildRun>; 2] = [Vec::new(), Vec::new()];
        for i in 0..2 * n {
            match run_child(kind, seed, seconds, false) {
                Ok(run) => sets[i % 2].push(run),
                Err(e) => {
                    println!("FAILED RUN: {e}");
                    return false;
                }
            }
        }
        let all = || sets.iter().flatten();
        if !all().all(|r| r.correct) {
            println!(
                "| {} | | a run reported correct = false | | | | | FAIL |",
                kind.name()
            );
            ok = false;
        }
        let first = &sets[0][0];
        if !all().all(|r| r.fingerprint == first.fingerprint) {
            println!(
                "| {} | sim_fingerprint | differs between runs | | | | | FAIL |",
                kind.name()
            );
            ok = false;
        }
        for spec in &END_TO_END {
            let values = |set: &[ChildRun]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| r.metrics.get(spec.name).copied())
                    .collect()
            };
            let (a, b) = (values(&sets[0]), values(&sets[1]));
            let (qa, qb) = (quartiles(&a), quartiles(&b));
            let gap = worse_by(spec.better, qa.1, qb.1).abs();
            let (spread_a, spread_b) = (iqr_over_median(&a), iqr_over_median(&b));
            let simulated = spec.clock.starts_with("simulated");
            let identical = all().all(|r| {
                r.metrics.get(spec.name).map(|v| v.to_bits())
                    == first.metrics.get(spec.name).map(|v| v.to_bits())
            });
            let verdict = if simulated && !identical {
                "FAIL: simulated metric differs at equal seed"
            } else if gap > spec.bound {
                "FAIL: medians apart"
            } else if spread_a > spec.bound || spread_b > spec.bound {
                "FAIL: spread"
            } else {
                "ok"
            };
            ok &= verdict == "ok";
            println!(
                "| {} | `{}` | {:.6} [{:.6}, {:.6}] | {:.6} [{:.6}, {:.6}] | {:.2} % | {:.2} % / {:.2} % | {} % | {verdict} |",
                kind.name(),
                spec.name,
                qa.1, qa.0, qa.2,
                qb.1, qb.0, qb.2,
                gap * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                spec.bound * 100.0,
            );
        }
    }
    println!("\nagree: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// `--separation`: one traced run per workload, the `share.*` matrix, and
/// the check that each workload stresses what it claims to: at least 50 %
/// of its host time in its target group, and at most 15 % of the lightest
/// other workload's host time there.
pub fn separation(seed: u64, seconds: u32) -> bool {
    const GROUPS: [&str; 4] = ["share.fetch", "share.score", "share.write", "share.serve"];
    let mut matrix: Vec<(Kind, BTreeMap<String, f64>)> = Vec::new();
    for kind in Kind::ALL {
        match run_child(kind, seed, seconds, true) {
            Ok(run) if run.correct => matrix.push((kind, run.metrics)),
            Ok(_) => {
                println!("{}: traced run reported correct = false", kind.name());
                return false;
            }
            Err(e) => {
                println!("FAILED RUN: {e}");
                return false;
            }
        }
    }
    println!("| workload | fetch | score | write | serve | tracer on | span overhead |");
    println!("|---|---|---|---|---|---|---|");
    for (kind, m) in &matrix {
        let pct = |name: &str| m.get(name).copied().unwrap_or(0.0) * 100.0;
        println!(
            "| `{}` | {:.1} % | {:.1} % | {:.1} % | {:.1} % | {:+.1} % | {:.3} % |",
            kind.name(),
            pct(GROUPS[0]),
            pct(GROUPS[1]),
            pct(GROUPS[2]),
            pct(GROUPS[3]),
            pct("trace.engine_on_overhead_frac"),
            pct("bench.span_overhead_frac"),
        );
    }
    let mut ok = true;
    for (kind, m) in &matrix {
        let group = target_share(*kind);
        let own = m.get(group).copied().unwrap_or(0.0);
        let others: Vec<f64> = matrix
            .iter()
            .filter(|(k, _)| k != kind)
            .map(|(_, o)| o.get(group).copied().unwrap_or(0.0))
            .collect();
        let lightest = others.iter().copied().fold(f64::INFINITY, f64::min);
        let pass = own >= 0.50 && lightest <= 0.15;
        ok &= pass;
        println!(
            "{}: {group} {:.1} % here (needs >= 50 %), {:.1} % on the lightest other workload (needs <= 15 %), median of the others {:.1} %: {}",
            kind.name(),
            own * 100.0,
            lightest * 100.0,
            median(&others) * 100.0,
            if pass { "ok" } else { "FAIL" }
        );
    }
    println!("separation: {}", if ok { "PASS" } else { "FAIL" });
    ok
}

/// Defaults for the self-checks.
pub const DEFAULT_SEED: u64 = 1;
pub const DEFAULT_SECONDS: u32 = RUN_SECONDS;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_output_is_parsed() {
        let out = "workload x\n  setup_s 1 s\nsim_fingerprint 00ff00ff00ff00ff\n\
                   {\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
                   {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
                   \"host_ops_per_s\": {\"value\": 4000.0, \"unit\": \"op/s\"}}}\n";
        let run = parse_child(out).expect("parses");
        assert!(run.correct);
        assert_eq!(run.fingerprint, "00ff00ff00ff00ff");
        assert_eq!(run.metrics["setup_s"], 1.25);
        assert_eq!(run.metrics["host_ops_per_s"], 4000.0);
        assert!(parse_child("no summary here\n").is_err());
    }

    #[test]
    fn worse_by_respects_the_metric_direction() {
        assert!((worse_by("lower", 100.0, 110.0) - 0.10).abs() < 1e-12);
        assert!((worse_by("lower", 100.0, 90.0) + 0.10).abs() < 1e-12);
        assert!((worse_by("higher", 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worse_by("higher", 100.0, 110.0) + 0.10).abs() < 1e-12);
        assert_eq!(worse_by("lower", 0.0, 5.0), 0.0);
    }
}

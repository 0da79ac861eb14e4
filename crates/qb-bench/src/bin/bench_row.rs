//! One row of the performance trajectory: fold untraced `qb-perfbench`
//! runs into a `BENCH_<pr>.json`, or check that such a file has the shape
//! a row must have.
//!
//! Usage:
//!   bench_row --pr 7 --rev 1a2b3c4 --seconds 15 --cores 2 < runs > BENCH_7.json
//!   bench_row --check BENCH_7.json
//!   bench_row --same-sim BENCH_6.json BENCH_7.json
//!
//! Each input line is one run, `WORKLOAD SEED SIM_FINGERPRINT SUMMARY`,
//! where SUMMARY is the run's last output line: `{"correct": ..,
//! "attempted": .., "failed": .., "metrics": {NAME: {"value": ..,
//! "unit": ..}, ..}}`. `scripts/bench_row.sh` makes the runs and feeds
//! them in. Per workload, in the order the input first names it, the row
//! holds each end-to-end metric's median, q1 and q3 over the seeds and,
//! per seed, the run's correctness, attempted and failed counts and
//! `sim_fingerprint`. It reads no clock: every number comes from the runs.
//!
//! A line that starts with `traced ` is a `--trace 1` run of one seed: its
//! metrics are the per-layer probes, and they go into the workload's
//! `per_layer` block (`{"seed": .., "metrics": {NAME: {"unit": ..,
//! "value": ..}}}`) beside the end-to-end quartiles. A row without traced
//! lines has no such block.
//!
//! `--same-sim OLD NEW` exits nonzero unless both rows hold the same
//! workloads and seeds and every seed's `sim_fingerprint`, `attempted` and
//! `failed` are equal: the check that a host-only change moved nothing
//! simulated. It reads no `per_layer` block, so a row with one compares
//! with a row without.

use serde_json::{Map, Value};
use std::process::ExitCode;

/// The workloads `BENCHMARK.json` declares; a row holds each of them.
const WORKLOADS: [&str; 4] = ["serve-warm", "cold-lookup", "score-heavy", "publish-churn"];

/// One benchmark run, as read from its input line.
struct Run {
    workload: String,
    seed: u64,
    fingerprint: String,
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, unit, value)` in the order the summary lists them.
    metrics: Vec<(String, String, f64)>,
}

/// The prefix of an input line that holds a traced run.
const TRACED: &str = "traced ";

/// What a row records about the runs beside their numbers.
struct Meta {
    pr: u64,
    rev: String,
    seconds: u64,
    cores: u64,
}

fn number(v: &Value, what: &str) -> Result<f64, String> {
    match v {
        Value::Number(n) => Ok(*n),
        _ => Err(format!("{what} is not a number")),
    }
}

fn parse_run(line: &str) -> Result<Run, String> {
    let mut fields = line.splitn(4, ' ');
    let (Some(workload), Some(seed), Some(fingerprint), Some(summary)) =
        (fields.next(), fields.next(), fields.next(), fields.next())
    else {
        return Err("expected WORKLOAD SEED SIM_FINGERPRINT SUMMARY".into());
    };
    let seed = seed
        .parse()
        .map_err(|_| format!("seed '{seed}' is not a number"))?;
    let summary = serde_json::from_str(summary).map_err(|e| format!("summary: {e}"))?;
    let Value::Bool(correct) = summary["correct"] else {
        return Err("summary has no 'correct' flag".into());
    };
    let Some(listed) = summary["metrics"].as_object() else {
        return Err("summary has no 'metrics' object".into());
    };
    let mut metrics = Vec::with_capacity(listed.len());
    for (name, metric) in listed.iter() {
        let Some(unit) = metric["unit"].as_str() else {
            return Err(format!("metric '{name}' has no unit"));
        };
        let value = number(&metric["value"], name)?;
        metrics.push((name.clone(), unit.to_string(), value));
    }
    Ok(Run {
        workload: workload.to_string(),
        seed,
        fingerprint: fingerprint.to_string(),
        correct,
        attempted: number(&summary["attempted"], "attempted")?,
        failed: number(&summary["failed"], "failed")?,
        metrics,
    })
}

/// The `q` quantile of ascending `sorted` (not empty), interpolated
/// linearly between the two nearest order statistics.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    let h = (sorted.len() - 1) as f64 * q;
    let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64)
}

/// A traced run's metrics as a workload's `per_layer` block.
fn per_layer_block(traced: &Run) -> Value {
    let mut metrics = Map::new();
    for (name, unit, value) in &traced.metrics {
        let mut probe = Map::new();
        probe.insert("unit".into(), unit.as_str().into());
        probe.insert("value".into(), (*value).into());
        metrics.insert(name.clone(), Value::Object(probe));
    }
    let mut block = Map::new();
    block.insert("seed".into(), traced.seed.into());
    block.insert("metrics".into(), Value::Object(metrics));
    Value::Object(block)
}

/// One workload's block: its metrics' quartiles over `runs`, which hold
/// one run per seed of `seeds`, the per-seed record and, when the workload
/// had a traced run, its per-layer block.
fn workload_block(
    name: &str,
    runs: &[&Run],
    seeds: &[u64],
    traced: Option<&Run>,
) -> Result<Value, String> {
    let mut by_seed: Vec<&Run> = runs.to_vec();
    by_seed.sort_by_key(|r| r.seed);
    if by_seed.iter().map(|r| r.seed).ne(seeds.iter().copied()) {
        return Err(format!("{name}: not exactly one run per seed {seeds:?}"));
    }
    let mut metrics = Map::new();
    for (i, (metric, unit, _)) in by_seed[0].metrics.iter().enumerate() {
        let mut values = Vec::with_capacity(by_seed.len());
        for run in &by_seed {
            match run.metrics.get(i) {
                Some((m, u, v)) if m == metric && u == unit => values.push(*v),
                _ => return Err(format!("{name} seed {}: metrics differ", run.seed)),
            }
        }
        values.sort_by(f64::total_cmp);
        let mut stats = Map::new();
        stats.insert("unit".into(), unit.as_str().into());
        stats.insert("median".into(), quantile(&values, 0.5).into());
        stats.insert("q1".into(), quantile(&values, 0.25).into());
        stats.insert("q3".into(), quantile(&values, 0.75).into());
        metrics.insert(metric.clone(), Value::Object(stats));
    }
    let per_seed = by_seed.iter().map(|r| {
        let mut run = Map::new();
        run.insert("seed".into(), r.seed.into());
        run.insert("correct".into(), r.correct.into());
        run.insert("attempted".into(), r.attempted.into());
        run.insert("failed".into(), r.failed.into());
        run.insert("sim_fingerprint".into(), r.fingerprint.as_str().into());
        Value::Object(run)
    });
    let mut block = Map::new();
    block.insert("metrics".into(), Value::Object(metrics));
    block.insert("runs".into(), Value::Array(per_seed.collect()));
    if let Some(traced) = traced {
        block.insert("per_layer".into(), per_layer_block(traced));
    }
    Ok(Value::Object(block))
}

/// The row for `runs`: every workload over the same seeds, each with the
/// per-layer block of its run in `traced` (at most one per workload).
fn row(meta: &Meta, runs: &[Run], traced: &[Run]) -> Result<Value, String> {
    let mut seeds: Vec<u64> = runs.iter().map(|r| r.seed).collect();
    seeds.sort_unstable();
    seeds.dedup();
    let mut names: Vec<&str> = Vec::new();
    for run in runs {
        if !names.contains(&run.workload.as_str()) {
            names.push(&run.workload);
        }
    }
    if let Some(stray) = traced
        .iter()
        .find(|t| !names.contains(&t.workload.as_str()))
    {
        return Err(format!(
            "traced run of {}, a workload with no runs",
            stray.workload
        ));
    }
    let mut workloads = Map::new();
    for name in names {
        let of: Vec<&Run> = runs.iter().filter(|r| r.workload == name).collect();
        let mut traced_runs = traced.iter().filter(|t| t.workload == name);
        let trace = traced_runs.next();
        if traced_runs.next().is_some() {
            return Err(format!("{name}: more than one traced run"));
        }
        workloads.insert(name.to_string(), workload_block(name, &of, &seeds, trace)?);
    }
    let mut top = Map::new();
    top.insert("pr".into(), meta.pr.into());
    top.insert("rev".into(), meta.rev.as_str().into());
    top.insert("cores".into(), meta.cores.into());
    top.insert("seconds".into(), meta.seconds.into());
    top.insert("seeds".into(), seeds.into());
    top.insert("workloads".into(), Value::Object(workloads));
    Ok(Value::Object(top))
}

/// Check a row's shape: the four workloads, each with quartiles in order
/// for every metric, one run per recorded seed and, where present, a
/// per-layer block of numbers for one seed. Returns the seed count.
fn check(text: &str) -> Result<usize, String> {
    let row = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let seeds = row["seeds"].as_array().map_or(0, Vec::len);
    if seeds == 0 {
        return Err("no seeds recorded".into());
    }
    let Some(workloads) = row["workloads"].as_object() else {
        return Err("no 'workloads' object".into());
    };
    let names: Vec<&str> = workloads.iter().map(|(k, _)| k.as_str()).collect();
    if names != WORKLOADS {
        return Err(format!("workloads {names:?}, expected {WORKLOADS:?}"));
    }
    for (name, block) in workloads.iter() {
        let metrics = block["metrics"].as_object().filter(|m| !m.is_empty());
        let Some(metrics) = metrics else {
            return Err(format!("{name}: no metrics"));
        };
        for (metric, stats) in metrics.iter() {
            let what = format!("{name} {metric}");
            let q1 = number(&stats["q1"], &what)?;
            let median = number(&stats["median"], &what)?;
            let q3 = number(&stats["q3"], &what)?;
            if !(q1 <= median && median <= q3) {
                return Err(format!("{what}: quartiles out of order"));
            }
        }
        let runs = block["runs"].as_array().map_or(&[][..], Vec::as_slice);
        let recorded = |r: &Value| r["sim_fingerprint"].as_str().is_some();
        if runs.len() != seeds || !runs.iter().all(recorded) {
            return Err(format!("{name}: not one fingerprinted run per seed"));
        }
        let per_layer = &block["per_layer"];
        if *per_layer != Value::Null {
            number(&per_layer["seed"], &format!("{name} per_layer seed"))?;
            let probes = per_layer["metrics"].as_object().filter(|m| !m.is_empty());
            let Some(probes) = probes else {
                return Err(format!("{name}: per_layer block has no metrics"));
            };
            for (probe, stats) in probes.iter() {
                number(&stats["value"], &format!("{name} per_layer {probe}"))?;
            }
        }
    }
    Ok(seeds)
}

/// Compare what two rows simulated: the same workloads and seeds, and per
/// workload and seed the same `sim_fingerprint`, `attempted` and `failed`.
/// Returns the number of runs compared, or every difference found.
fn same_sim(old: &str, new: &str) -> Result<usize, String> {
    let parse = |text: &str| serde_json::from_str(text).map_err(|e| e.to_string());
    let (old, new) = (parse(old)?, parse(new)?);
    if old["seeds"] != new["seeds"] {
        return Err(format!("seeds {} vs {}", old["seeds"], new["seeds"]));
    }
    let workloads = |row: &Value| -> Vec<String> {
        let listed = row["workloads"].as_object();
        listed.map_or(Vec::new(), |w| w.iter().map(|(k, _)| k.clone()).collect())
    };
    if workloads(&old) != workloads(&new) || workloads(&old).is_empty() {
        let (a, b) = (workloads(&old), workloads(&new));
        return Err(format!("workloads {a:?} vs {b:?}"));
    }
    let mut compared = 0;
    let mut moved = Vec::new();
    for name in workloads(&old) {
        let runs = |row: &Value| row["workloads"][name.as_str()]["runs"].clone();
        let (old_runs, new_runs) = (runs(&old), runs(&new));
        let (Some(old_runs), Some(new_runs)) = (old_runs.as_array(), new_runs.as_array()) else {
            return Err(format!("{name}: no runs"));
        };
        if old_runs.len() != new_runs.len() {
            return Err(format!(
                "{name}: {} vs {} runs",
                old_runs.len(),
                new_runs.len()
            ));
        }
        for (a, b) in old_runs.iter().zip(new_runs) {
            for field in ["seed", "sim_fingerprint", "attempted", "failed"] {
                if a[field] == Value::Null || a[field] != b[field] {
                    let seed = &a["seed"];
                    moved.push(format!(
                        "{name} seed {seed} {field}: {} vs {}",
                        a[field], b[field]
                    ));
                }
            }
            compared += 1;
        }
    }
    if moved.is_empty() {
        Ok(compared)
    } else {
        Err(moved.join("; "))
    }
}

fn build(args: &[String]) -> Result<String, String> {
    let mut pr = None;
    let mut rev = None;
    let mut seconds = None;
    let mut cores = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let int = || value.parse::<u64>().map_err(|_| format!("{flag} {value}"));
        match flag.as_str() {
            "--pr" => pr = Some(int()?),
            "--rev" => rev = Some(value.clone()),
            "--seconds" => seconds = Some(int()?),
            "--cores" => cores = Some(int()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let (Some(pr), Some(rev), Some(seconds), Some(cores)) = (pr, rev, seconds, cores) else {
        return Err("--pr, --rev, --seconds and --cores are all required".into());
    };
    let (mut runs, mut traced) = (Vec::new(), Vec::new());
    for (i, line) in std::io::stdin().lines().enumerate() {
        let line = line.map_err(|e| e.to_string())?;
        if line.trim().is_empty() {
            continue;
        }
        let (list, run) = match line.strip_prefix(TRACED) {
            Some(run) => (&mut traced, run),
            None => (&mut runs, line.as_str()),
        };
        list.push(parse_run(run).map_err(|e| format!("input line {}: {e}", i + 1))?);
    }
    let meta = Meta {
        pr,
        rev,
        seconds,
        cores,
    };
    let row = row(&meta, &runs, &traced)?;
    serde_json::to_string_pretty(&row).map_err(|e| e.to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.as_slice() {
        [flag, path] if flag == "--check" => std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| check(&text).map_err(|e| format!("{path}: {e}")))
            .map(|seeds| format!("ok   {path}: {} workloads, {seeds} seeds", WORKLOADS.len())),
        [flag, old, new] if flag == "--same-sim" => {
            let read = |path: &String| {
                std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
            };
            read(old)
                .and_then(|a| read(new).map(|b| (a, b)))
                .and_then(|(a, b)| same_sim(&a, &b).map_err(|e| format!("{old} vs {new}: {e}")))
                .map(|runs| format!("ok   {old} vs {new}: {runs} runs simulate the same"))
        }
        _ => build(&args),
    };
    match outcome {
        Ok(out) => {
            println!("{out}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("bench_row: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let four = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&four, 0.25), 1.75);
        assert_eq!(quantile(&four, 0.5), 2.5);
        assert_eq!(quantile(&four, 0.75), 3.25);
        let three = [10.0, 20.0, 40.0];
        assert_eq!(quantile(&three, 0.25), 15.0);
        assert_eq!(quantile(&three, 0.5), 20.0);
        assert_eq!(quantile(&three, 0.75), 30.0);
        for q in [0.25, 0.5, 0.75] {
            assert_eq!(quantile(&[7.0], q), 7.0);
        }
    }

    fn line(workload: &str, seed: u64, ops: f64) -> String {
        format!(
            "{workload} {seed} 00ff{seed:012x} {{\"correct\": true, \"attempted\": 100, \
             \"failed\": {seed}, \"metrics\": {{\"setup_s\": {{\"value\": 0.5, \"unit\": \"s\"}}, \
             \"host_ops_per_s\": {{\"value\": {ops}, \"unit\": \"op/s\"}}}}}}"
        )
    }

    fn meta() -> Meta {
        Meta {
            pr: 7,
            rev: "abc".into(),
            seconds: 1,
            cores: 2,
        }
    }

    #[test]
    fn a_row_holds_every_workload_and_checks_back() {
        let mut runs = Vec::new();
        for seed in [3, 1, 2] {
            for (i, w) in WORKLOADS.iter().enumerate() {
                let ops = 100.0 * (i + 1) as f64 + seed as f64;
                runs.push(parse_run(&line(w, seed, ops)).unwrap());
            }
        }
        let row = row(&meta(), &runs, &[]).unwrap();
        let text = serde_json::to_string_pretty(&row).unwrap();
        assert_eq!(check(&text), Ok(3));

        assert_eq!(row["pr"], Value::Number(7.0));
        assert_eq!(row["seeds"], vec![1u64, 2, 3].into());
        let block = &row["workloads"]["score-heavy"];
        let ops = &block["metrics"]["host_ops_per_s"];
        assert_eq!(ops["unit"].as_str(), Some("op/s"));
        assert_eq!(ops["q1"], Value::Number(301.5));
        assert_eq!(ops["median"], Value::Number(302.0));
        assert_eq!(ops["q3"], Value::Number(302.5));
        let first = &block["runs"][0];
        assert_eq!(first["seed"], Value::Number(1.0));
        assert_eq!(first["failed"], Value::Number(1.0));
        assert_eq!(first["sim_fingerprint"].as_str(), Some("00ff000000000001"));
    }

    #[test]
    fn a_row_missing_a_workload_or_a_seed_is_refused() {
        let three: Vec<Run> = WORKLOADS[..3]
            .iter()
            .map(|w| parse_run(&line(w, 1, 1.0)).unwrap())
            .collect();
        let text = serde_json::to_string_pretty(&row(&meta(), &three, &[]).unwrap()).unwrap();
        assert!(check(&text).is_err());

        let mut uneven = three;
        uneven.push(parse_run(&line("serve-warm", 2, 1.0)).unwrap());
        assert!(row(&meta(), &uneven, &[]).is_err());
        assert!(parse_run("serve-warm 1 abc {}").is_err());
        assert!(parse_run("serve-warm one abc {\"correct\": true}").is_err());
    }

    #[test]
    fn a_row_with_or_without_the_per_layer_block_checks_back() {
        let runs: Vec<Run> = WORKLOADS
            .iter()
            .map(|w| parse_run(&line(w, 1, 10.0)).unwrap())
            .collect();
        let without = serde_json::to_string_pretty(&row(&meta(), &runs, &[]).unwrap()).unwrap();
        assert_eq!(check(&without), Ok(1));
        assert_eq!(
            serde_json::from_str(&without).unwrap()["workloads"]["serve-warm"]["per_layer"],
            Value::Null
        );

        // A traced run's summary lists the per-layer probes instead.
        let probe = |w: &str, us: f64| {
            format!(
                "{w} 1 00ff000000000001 {{\"correct\": true, \"attempted\": 100, \
                 \"failed\": 0, \"metrics\": {{\"index.write_shard_us\": \
                 {{\"value\": {us}, \"unit\": \"us\"}}}}}}"
            )
        };
        let traced = || -> Vec<Run> {
            let probes = WORKLOADS.iter().enumerate();
            let probes = probes.map(|(i, w)| parse_run(&probe(w, 17.5 + i as f64)).unwrap());
            probes.collect()
        };
        let with = row(&meta(), &runs, &traced()).unwrap();
        let text = serde_json::to_string_pretty(&with).unwrap();
        assert_eq!(check(&text), Ok(1));
        let block = &with["workloads"]["publish-churn"]["per_layer"];
        assert_eq!(block["seed"], Value::Number(1.0));
        let write = &block["metrics"]["index.write_shard_us"];
        assert_eq!(write["value"], Value::Number(20.5));
        assert_eq!(write["unit"].as_str(), Some("us"));
        // The end-to-end quartiles are the untraced runs' alone.
        let ops = &with["workloads"]["publish-churn"]["metrics"]["host_ops_per_s"];
        assert_eq!(ops["median"], Value::Number(10.0));
        // What was simulated compares across the two shapes.
        assert_eq!(same_sim(&without, &text), Ok(4));

        // Two traced runs of one workload, or one of a workload the row
        // lacks, are refused; so is a block with no number in it.
        let twice: Vec<Run> = traced().into_iter().chain(traced()).collect();
        assert!(row(&meta(), &runs, &twice).is_err());
        let stray = parse_run(&probe("no-such-workload", 1.0)).unwrap();
        assert!(row(&meta(), &runs, &[stray]).is_err());
        let hollow = text.replace("\"value\": 17.5", "\"value\": \"x\"");
        assert!(check(&hollow).is_err());
    }

    #[test]
    fn same_sim_holds_only_for_equal_fingerprints_and_counts() {
        let text = |lines: Vec<String>| {
            let runs: Vec<Run> = lines.iter().map(|l| parse_run(l).unwrap()).collect();
            serde_json::to_string_pretty(&row(&meta(), &runs, &[]).unwrap()).unwrap()
        };
        let lines = |seeds: &[u64], ops: f64| -> Vec<String> {
            let every = seeds
                .iter()
                .flat_map(|&s| WORKLOADS.map(|w| line(w, s, ops)));
            every.collect()
        };
        // Host numbers may differ; what was simulated may not.
        let old = text(lines(&[1, 2], 100.0));
        assert_eq!(same_sim(&old, &text(lines(&[1, 2], 250.0))), Ok(8));

        let mut moved = lines(&[1, 2], 100.0);
        moved[5] = moved[5].replace("00ff", "11ff");
        let err = same_sim(&old, &text(moved)).unwrap_err();
        assert!(err.contains("cold-lookup seed 2 sim_fingerprint"), "{err}");
        let mut failed = lines(&[1, 2], 100.0);
        failed[0] = failed[0].replace("\"failed\": 1", "\"failed\": 7");
        assert!(same_sim(&old, &text(failed))
            .unwrap_err()
            .contains("failed"));
        assert!(same_sim(&old, &text(lines(&[1, 3], 100.0))).is_err());
        assert!(same_sim(&old, &text(lines(&[1], 100.0))).is_err());
    }
}

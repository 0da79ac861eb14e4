//! Orchestrates one run and prints it: every metric by name with its unit,
//! the simulated-clock fingerprint, then the one-line machine-readable
//! summary the driver reads.

use crate::calib::{Calibrator, REFERENCE_NS};
use crate::catalogue::{unit_of, END_TO_END, PER_LAYER, WORKLOADS};
use crate::layers;
use crate::run::{self, RunArgs, SETUP_REPS};
use crate::spans::Spans;
use crate::stats;
use crate::workload::{self, Kind};

/// The metrics of one finished run, as printed.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub fingerprint: u64,
}

/// The summary line: exactly `correct`, `attempted`, `failed`, `metrics`.
/// Values are printed with Rust's shortest round-trip formatting, i.e.
/// every digit that was measured.
pub fn summary_json(report: &Report) -> String {
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json_number(*value),
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    )
}

/// A JSON number for `v`: non-finite values (a failed measurement) are
/// written as 0 so the line stays valid JSON.
fn json_number(v: f64) -> String {
    if !v.is_finite() {
        "0".into()
    } else if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

fn driving(kind: Kind) -> &'static str {
    WORKLOADS
        .iter()
        .find(|w| w.kind == kind)
        .map_or("", |w| w.driving)
}

/// Run one workload as asked and print the result. Returns whether the run
/// was correct (the process exits non-zero otherwise).
pub fn run_and_print(args: RunArgs) -> bool {
    let threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} ({}), seed {}, {} s, trace {}, 1 thread of {threads}",
        args.kind.name(),
        driving(args.kind),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let inputs = workload::generate(args.kind, args.seed, args.seconds);
    let mut calibrator = Calibrator::new();
    let mut spans = Spans::new(args.trace);

    // Set-up is deterministic, so it is repeated on fresh engines and the
    // median of the calibrated totals reported. The traced run reports no
    // set-up time and builds once.
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut setup = match run::set_up(&inputs, reps, &mut calibrator, &mut spans) {
        Ok(s) => s,
        Err(e) => {
            println!("set-up failed: {e}");
            return false;
        }
    };
    let setup_s = stats::median(&setup.calibrated_s);

    let mut measured = run::timed_region(
        &inputs,
        &mut setup.driver,
        &mut setup.oracle,
        &mut calibrator,
        &mut spans,
        args.trace,
    );
    let audit = (args.kind == Kind::ServeWarm).then(|| {
        run::audit_open_loop(
            &inputs,
            &mut setup.driver,
            &mut setup.oracle,
            &mut measured,
            &mut spans,
        )
    });
    let audit_wrong = audit.map_or(0, |(_, wrong)| wrong);

    let slices = measured.calibrated_slice_ns.len();
    let raw: Vec<f64> = measured.raw_slice_ns.iter().map(|&n| n as f64).collect();
    let raw_min = raw.iter().copied().fold(f64::INFINITY, f64::min);
    println!(
        "{slices} slices of {} ops, timed region {:.2} s raw; set-up repetitions (calibrated s) {:?}, raw {:?}",
        args.kind.ops_per_slice(),
        raw.iter().sum::<f64>() / 1e9,
        setup.calibrated_s,
        setup.raw_s,
    );
    let (_, _, tail, samples) = run::latency_summary(&measured);
    println!(
        "latency over {samples} samples (reporting p{}); slice raw min {:.4} s, median {:.4} s; \
         calibrated median {:.4} s",
        tail * 100.0,
        raw_min / 1e9,
        stats::median(&raw) / 1e9,
        stats::median(&measured.calibrated_slice_ns) / 1e9,
    );
    // Stationarity: a workload whose last slices cost more than its first
    // is measuring how long it ran, not how fast the engine is.
    let tenth = (slices / 10).max(1);
    println!(
        "slice drift: first tenth median {:.4} s, last tenth median {:.4} s (calibrated)",
        stats::median(&measured.calibrated_slice_ns[..tenth]) / 1e9,
        stats::median(&measured.calibrated_slice_ns[slices - tenth..]) / 1e9,
    );
    let kernel: Vec<f64> = calibrator.samples_ns.iter().map(|&n| n as f64).collect();
    println!(
        "reference kernel: {} runs, fastest {:.3} ms, median {:.3} ms (reference {:.1} ms)",
        kernel.len(),
        kernel.iter().copied().fold(f64::INFINITY, f64::min) / 1e6,
        stats::median(&kernel) / 1e6,
        REFERENCE_NS / 1e6
    );
    let t = measured.tally;
    println!(
        "ops: attempted {} errored {} shed {} late {} wrong {} degraded {}; warm-up: attempted {} failed {}{}",
        t.attempted,
        t.errored,
        t.shed,
        t.late,
        t.wrong,
        t.degraded,
        setup.warmup_tally.attempted,
        setup.warmup_tally.failed(),
        audit.map_or(String::new(), |(checked, wrong)| format!(
            "; open-loop audit: {checked} reads checked, {wrong} wrong"
        )),
    );
    for failure in setup.warmup_failures.iter().chain(&measured.failures) {
        println!("  failure: {failure}");
    }

    let metrics = if args.trace {
        let m = layers::per_layer(&inputs, &mut setup, &measured, &mut calibrator, &mut spans);
        write_trace(args.kind, &spans);
        println!("per-layer metrics");
        m
    } else {
        println!("end-to-end metrics");
        run::end_to_end(args.kind, setup_s, &measured)
    };
    let expected: Vec<&str> = if args.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    assert_eq!(
        metrics.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
        expected,
        "the run prints exactly the catalogue's metrics, in order"
    );
    for (name, value) in &metrics {
        println!("  {name:<34} {value:>18.6} {}", unit_of(name));
    }

    let report = Report {
        correct: t.correct() && setup.warmup_tally.correct() && audit_wrong == 0,
        attempted: t.attempted.max(1),
        failed: t.failed() + audit_wrong,
        metrics,
        fingerprint: measured.fingerprint.0,
    };
    println!("sim_fingerprint {:016x}", report.fingerprint);
    println!("{}", summary_json(&report));
    report.correct
}

/// Write the traced run's spans to `bench/out/<workload>.trace.json`.
fn write_trace(kind: Kind, spans: &Spans) {
    let dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    let dir = std::path::Path::new(&dir).join("out");
    let path = dir.join(format!("{}.trace.json", kind.name()));
    let written =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_json()));
    match written {
        Ok(()) => println!("trace: {} spans written to {}", spans.len(), path.display()),
        Err(e) => println!("trace: could not write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_line_has_exactly_the_contract_keys() {
        let report = Report {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics: vec![("setup_s", 0.8127), ("host_ops_per_s", 4000.0)],
            fingerprint: 7,
        };
        let line = summary_json(&report);
        assert!(!line.contains('\n'));
        let v: serde_json::Value = serde_json::from_str(&line).expect("valid JSON");
        use serde_json::Value::{Bool, Number};
        assert_eq!(v.as_object().expect("object").len(), 4);
        assert_eq!(v["correct"], Bool(true));
        assert_eq!(v["attempted"], Number(1000.0));
        assert_eq!(v["failed"], Number(0.0));
        assert_eq!(v["metrics"]["setup_s"]["value"], Number(0.8127));
        assert_eq!(v["metrics"]["setup_s"]["unit"].as_str(), Some("s"));
        assert_eq!(v["metrics"]["host_ops_per_s"]["value"], Number(4000.0));
        assert_eq!(json_number(f64::NAN), "0");
        assert_eq!(json_number(1.0 / 3.0), format!("{}", 1.0f64 / 3.0));
    }
}

//! E15 — structured tracing over the E14 overload ladder: where does a
//! query's sojourn actually go? The traced replays must be byte-identical
//! to untraced ones (reports *and* every stats surface — the tracing
//! subsystem's zero-impact contract), the exported traces byte-identical
//! across identically-seeded reruns, and the critical-path attribution
//! must show the regime change the admission-control story predicts: at
//! 4x overload the p99 tail is queueing-dominated (>=50% queue wait),
//! while below saturation latency goes to shard fetching.

use crate::e14_open_loop::{ladder_corpus, ladder_trace, replay_config, FLEET, SECS};
use crate::{published, write_result};
use qb_bench::{f2, Table};
use qb_common::SimDuration;
use qb_load::scenario::open_loop_fleet;
use qb_load::{replay, replay_traced};
use qb_trace::{attribution, to_chrome_trace, Trace};
use std::collections::BTreeMap;

/// Deeper ingress queues and a laxer shed threshold than E14: the point
/// here is *observing* where overload latency goes, so the controller is
/// allowed to queue well past the service time before shedding.
const QUEUE_CAPACITY: usize = 64;
const SHED_MS: u64 = 2500;

/// Critical-path self time of a set of query trees, as shares of their
/// summed sojourn.
struct Shares {
    /// Admission wait before issue + per-link queueing inside the slowest
    /// dependency (the `net_queue` split the event-driven pipeline reports).
    queue: f64,
    /// Fetch/cache work proper.
    service: f64,
    /// The stage holding the most self time, `query` and `score` aside.
    dominant: String,
}

/// Attribute every completed query (or, with `tail_only`, the p99 sojourn
/// tail) of a traced replay.
fn shares(spans: &Trace, tail_only: bool) -> Shares {
    let roots: Vec<_> = spans.named("query").collect();
    assert!(!roots.is_empty(), "E15: traced replay recorded no queries");
    let mut sojourns: Vec<SimDuration> = roots.iter().map(|s| s.duration()).collect();
    sojourns.sort();
    let cut = if tail_only {
        sojourns[(sojourns.len() - 1) * 99 / 100]
    } else {
        SimDuration::ZERO
    };
    let mut by_stage: BTreeMap<&str, SimDuration> = BTreeMap::new();
    let mut total = SimDuration::ZERO;
    for root in roots.iter().filter(|s| s.duration() >= cut) {
        for (name, d) in attribution(spans, root.id) {
            *by_stage.entry(name).or_insert(SimDuration::ZERO) += d;
        }
        total += root.duration();
    }
    let of_total = |stage: &str| {
        let self_ms = by_stage.get(stage).map_or(0.0, |d| d.as_millis_f64());
        100.0 * self_ms / total.as_millis_f64().max(1e-9)
    };
    Shares {
        queue: of_total("queue_wait") + of_total("net_queue"),
        service: of_total("fetch") + of_total("cache_serve"),
        dominant: by_stage
            .iter()
            .filter(|(name, _)| **name != "query" && **name != "score")
            .max_by_key(|(_, d)| **d)
            .map(|(name, _)| name.to_string())
            .unwrap_or_default(),
    }
}

pub fn run() -> Vec<Table> {
    let corpus = ladder_corpus();
    let mut config = open_loop_fleet(0xE14, SimDuration::from_millis(SHED_MS));
    config.admission.queue_capacity = QUEUE_CAPACITY;
    let build = || published(config.clone(), &corpus);
    let replay_cfg = replay_config();

    let mut t = Table::new(
        &format!(
            "E15a: critical-path attribution over the open-loop ladder — traced replays of the \
             E14 constant-rate traces ({SECS}s, 90% Fresh) against a {FLEET}-frontend fleet \
             with deep-queue admission (capacity {QUEUE_CAPACITY}, shed at {SHED_MS}ms); shares are \
             critical-path self time over the p99 sojourn tail (all = every completed query)"
        ),
        &[
            "load",
            "completed",
            "p99_ms",
            "tail_queue_share_%",
            "tail_service_share_%",
            "all_queue_share_%",
            "dominant_stage",
            "spans",
        ],
    );

    let levels: [(&str, f64); 3] = [("0.25x", 0.25), ("1x", 1.0), ("4x", 4.0)];
    let mut max_makespan_delta = 0.0f64;
    for (label, mult) in levels {
        let trace = ladder_trace(&corpus, mult);
        // Zero-impact contract: the traced replay's report and every
        // stats surface must be byte-identical to the untraced run's.
        let mut plain = build();
        let report = replay(&mut plain, &trace, &replay_cfg).expect("open-loop replay");
        let mut traced = build();
        let (traced_report, spans) =
            replay_traced(&mut traced, &trace, &replay_cfg).expect("traced replay");
        assert_eq!(
            report, traced_report,
            "E15: tracing must not perturb the {label} replay"
        );
        assert_eq!(
            plain.metrics_snapshot(),
            traced.metrics_snapshot(),
            "E15: tracing must not touch any stats surface at {label}"
        );
        let delta = 100.0
            * (traced_report.makespan.as_millis_f64() - report.makespan.as_millis_f64()).abs()
            / report.makespan.as_millis_f64().max(1e-9);
        max_makespan_delta = max_makespan_delta.max(delta);

        // Determinism: a second traced replay exports the same bytes.
        let mut rerun = build();
        let (_, spans2) = replay_traced(&mut rerun, &trace, &replay_cfg).expect("traced rerun");
        let export = to_chrome_trace(&spans);
        assert_eq!(
            export,
            to_chrome_trace(&spans2),
            "E15: the {label} trace export must be byte-identical across reruns"
        );
        assert_eq!(
            spans.named("query").count() as u64,
            report.completed,
            "E15: one query tree per completed query at {label}"
        );

        let tail = shares(&spans, true);
        let all = shares(&spans, false);
        match label {
            "4x" => {
                assert!(
                    tail.queue >= 50.0,
                    "E15: at 4x overload >=50% of the p99 sojourn tail must be queue wait \
                     (got {:.1}%)",
                    tail.queue
                );
                write_result("trace-e15.json", &export).expect("E15 trace export");
            }
            "0.25x" => {
                assert!(
                    all.dominant == "fetch" || all.dominant == "cache_serve",
                    "E15: below saturation the critical path must be fetch-dominated \
                     (got '{}', queue share {:.1}%)",
                    all.dominant,
                    all.queue
                );
                assert!(
                    tail.queue < 50.0,
                    "E15: below saturation even the tail must not be queue-dominated \
                     (got {:.1}%)",
                    tail.queue
                );
            }
            _ => {}
        }
        t.row(&[
            &label,
            &report.completed,
            &f2(report.p99().as_millis_f64()),
            &f2(tail.queue),
            &f2(tail.service),
            &f2(all.queue),
            &all.dominant,
            &spans.len(),
        ]);
    }

    let mut t2 = Table::new(
        "E15b: tracing integrity — the subsystem's zero-impact and determinism contracts, \
         asserted above and recorded here for the bench gate (the makespan delta has a \
         zero baseline, so any simulated-time overhead fails CI exactly)",
        &["metric", "value"],
    );
    t2.row(&[&"tracing_makespan_delta_%", &f2(max_makespan_delta)]);
    t2.row(&[&"ladder_levels_traced", &levels.len()]);
    vec![t, t2]
}

//! E14 — the open-loop saturation ladder: qb-load arrival traces replayed
//! against a 4-frontend fleet with admission control. Part A steps the
//! offered rate from well below to 4x nominal saturation (fresh engine per
//! level, every level run twice and asserted bit-identical); part B throws
//! a flash crowd at the fleet and shows bounded queues, shedding and
//! `Fresh` → `CacheOk` degradation riding out the burst.

use crate::{published, DOC_LEN};
use qb_bench::{f2, Table};
use qb_common::SimDuration;
use qb_load::scenario::{constant_trace, corpus, open_loop_fleet};
use qb_load::{replay, ArrivalTrace, RateShape, ReplayConfig, TraceConfig};
use qb_queenbee::LoadReport;
use qb_workload::Corpus;

/// Frontends of the `open_loop_fleet` preset.
pub(crate) const FLEET: usize = 4;
/// Nominal saturation of this fleet under WAN latencies with a
/// fresh-heavy mix (measured ~140-150 q/s of goodput); the ladder's "1x".
pub(crate) const SAT_QPS: f64 = 160.0;
/// Length of every ladder trace.
pub(crate) const SECS: u64 = 2;
const PAGES: usize = 20;

/// The corpus the ladder's fleets serve (E15 traces the same ladder).
pub(crate) fn ladder_corpus() -> Corpus {
    corpus(0xE14, PAGES, DOC_LEN)
}

/// The constant-rate trace of the ladder level `mult` × saturation.
pub(crate) fn ladder_trace(corpus: &Corpus, mult: f64) -> ArrivalTrace {
    constant_trace(corpus, 0xE14, SAT_QPS * mult, SECS)
}

/// The ladder's fresh-heavy replay mix.
pub(crate) fn replay_config() -> ReplayConfig {
    ReplayConfig {
        seed: 0xE14F,
        fresh_fraction: 0.9,
        top_k: 5,
        ..ReplayConfig::default()
    }
}

pub fn run() -> Vec<Table> {
    let corpus = ladder_corpus();
    let config = open_loop_fleet(0xE14, SimDuration::from_millis(800));
    let queue_capacity = config.admission.queue_capacity;
    let replay_cfg = replay_config();
    let run_trace = |trace: &ArrivalTrace| -> LoadReport {
        let mut qb = published(config.clone(), &corpus);
        let report = replay(&mut qb, trace, &replay_cfg).expect("open-loop replay");
        assert_eq!(report.offered, trace.len() as u64);
        assert!(
            report.peak_queue_depth <= queue_capacity,
            "E14: ingress queue depth {} exceeds its bound {queue_capacity}",
            report.peak_queue_depth
        );
        report
    };

    // ----- Part A: constant-rate ladder ---------------------------------------------

    let levels: [(&str, f64); 5] = [
        ("0.25x", 0.25),
        ("0.5x", 0.5),
        ("1x", 1.0),
        ("2x", 2.0),
        ("4x", 4.0),
    ];
    let mut reports: Vec<(&str, LoadReport)> = Vec::new();
    for (label, mult) in levels {
        let trace = ladder_trace(&corpus, mult);
        let report = run_trace(&trace);
        let rerun = run_trace(&trace);
        assert_eq!(
            report, rerun,
            "E14: two replays of the {label} trace must be bit-identical"
        );
        reports.push((label, report));
    }

    // Acceptance criteria, asserted so the CI smoke job catches regressions.
    let sub = &reports[0].1;
    assert_eq!(sub.shed, 0, "E14: no shedding below saturation");
    assert_eq!(
        sub.completed, sub.offered,
        "E14: 0.25x completes everything"
    );
    assert!(
        sub.p99() < SimDuration::from_millis(500),
        "E14: sub-saturation p99 {} must stay bounded",
        sub.p99()
    );
    let peak_goodput = reports
        .iter()
        .map(|(_, r)| r.goodput_qps())
        .fold(0.0, f64::max);
    let over = &reports.last().expect("ladder").1;
    assert!(
        over.goodput_qps() >= 0.7 * peak_goodput,
        "E14: goodput at 4x ({:.1} q/s) must hold >=70% of peak ({peak_goodput:.1} q/s)",
        over.goodput_qps()
    );
    assert!(over.shed > 0, "E14: 4x overload must shed");
    assert!(
        over.shed_rate() < 0.95,
        "E14: shedding must stay partial even at 4x ({:.1}%)",
        100.0 * over.shed_rate()
    );

    let mut t = Table::new(
        &format!(
            "E14a: open-loop saturation ladder — constant-rate Poisson traces ({SECS}s, 90% Fresh, \
             Zipf pool) against a {FLEET}-frontend fleet with admission control (1x = {SAT_QPS} q/s)"
        ),
        &[
            "load",
            "offered_qps",
            "goodput_qps",
            "shed_rate_%",
            "degraded",
            "p50_ms",
            "p99_ms",
            "p999_ms",
            "peak_queue",
        ],
    );
    for (label, r) in &reports {
        t.row(&[
            label,
            &f2(r.offered as f64 / SECS as f64),
            &f2(r.goodput_qps()),
            &f2(100.0 * r.shed_rate()),
            &r.degraded,
            &f2(r.p50().as_millis_f64()),
            &f2(r.p99().as_millis_f64()),
            &f2(r.p999().as_millis_f64()),
            &r.peak_queue_depth,
        ]);
    }

    // ----- Part B: flash crowd ------------------------------------------------------

    let burst_at = SimDuration::from_secs(SECS / 2);
    let burst_len = SimDuration::from_secs((SECS / 2).max(1));
    let flash = ArrivalTrace::generate(
        &corpus,
        &TraceConfig {
            seed: 0xE14B,
            duration: SimDuration::from_secs(SECS),
            base_qps: 0.5 * SAT_QPS,
            shape: RateShape::FlashCrowd {
                at: burst_at,
                duration: burst_len,
                multiplier: 12.0,
            },
            pool_size: 48,
            ..TraceConfig::default()
        },
    );
    let fr = run_trace(&flash);
    assert!(fr.shed > 0, "E14b: the flash crowd must trigger shedding");
    assert!(
        fr.degraded > 0,
        "E14b: burst pressure must degrade Fresh queries to CacheOk"
    );
    assert!(
        fr.completed as f64 >= 0.25 * fr.offered as f64,
        "E14b: goodput must survive the burst ({} of {})",
        fr.completed,
        fr.offered
    );

    let title2 = format!(
        "E14b: flash crowd — 0.5x base rate with a 12x burst for {burst_len} \
         starting at {burst_at}, same fleet and admission config"
    );
    let mut t2 = Table::new(&title2, &["metric", "value"]);
    t2.row(&[&"offered", &fr.offered]);
    t2.row(&[&"admitted", &fr.admitted]);
    t2.row(&[&"degraded (Fresh->CacheOk)", &fr.degraded]);
    t2.row(&[&"shed", &fr.shed]);
    t2.row(&[&"shed_rate_%", &f2(100.0 * fr.shed_rate())]);
    t2.row(&[&"goodput_qps", &f2(fr.goodput_qps())]);
    t2.row(&[&"p50_ms", &f2(fr.p50().as_millis_f64())]);
    t2.row(&[&"p99_ms", &f2(fr.p99().as_millis_f64())]);
    t2.row(&[&"peak_queue", &fr.peak_queue_depth]);
    t2.row(&[&"pipeline_windows", &fr.windows]);
    vec![t, t2]
}

//! Open-loop load: a flash crowd hits a 4-frontend fleet with admission
//! control. A qb-load trace generates Poisson arrivals at 60 q/s with a
//! 15x burst in the middle; the admission controller degrades `Fresh`
//! queries to `CacheOk` as queues build and sheds once the estimated
//! sojourn passes the SLO, so the fleet rides out the burst with bounded
//! queues instead of collapsing.
//!
//! Run with: `cargo run -p qb-examples --release --bin open_loop`

use qb_common::SimDuration;
use qb_load::{
    replay, replay_traced, scenario, ArrivalTrace, RateShape, ReplayConfig, TraceConfig,
};
use qb_queenbee::QueenBee;
use qb_workload::Corpus;

/// The scenario library's open-loop fleet with `corpus` published: 4
/// frontends over WAN latencies (a Fresh query costs ~100ms of simulated
/// round-trips, so the fleet saturates at a few hundred q/s and the burst
/// below is a real overload rather than a blip), 32-deep ingress queues,
/// degrade at 250ms of estimated sojourn, shed at 800ms.
fn build_fleet(corpus: &Corpus) -> QueenBee {
    let config = scenario::open_loop_fleet(0xBEE5, SimDuration::from_millis(800));
    scenario::published(config, corpus, 10..28).expect("valid config")
}

fn main() {
    let corpus = scenario::corpus(0x0FE, 24, 60);
    let mut qb = build_fleet(&corpus);

    // A 6-second trace: 60 q/s background, a 15x flash crowd in the middle
    // two seconds, Zipf-popular queries from a 32-query pool.
    let trace_config = TraceConfig {
        seed: 0x0FE,
        duration: SimDuration::from_secs(6),
        base_qps: 60.0,
        shape: RateShape::FlashCrowd {
            at: SimDuration::from_secs(2),
            duration: SimDuration::from_secs(2),
            multiplier: 15.0,
        },
        pool_size: 32,
        ..TraceConfig::default()
    };
    let trace = ArrivalTrace::generate(&corpus, &trace_config);
    println!(
        "trace: {} arrivals over {} ({:.0} q/s mean, {:.0} q/s during the burst)",
        trace.len(),
        trace_config.duration,
        trace.offered_qps(),
        trace_config.base_qps * trace_config.shape.peak_multiplier(),
    );
    for window in 0..6 {
        let from = SimDuration::from_secs(window);
        let to = SimDuration::from_secs(window + 1);
        println!(
            "  second {window}: {:>4} arrivals",
            trace.arrivals_between(from, to)
        );
    }

    // Replay it open-loop: 90% of queries demand Fresh results, the rest
    // tolerate the caches. The admission controller may degrade Fresh to
    // CacheOk under pressure — that is the point.
    let report = replay(
        &mut qb,
        &trace,
        &ReplayConfig {
            fresh_fraction: 0.9,
            ..ReplayConfig::default()
        },
    )
    .expect("open-loop replay");

    println!("\n{report}");
    println!(
        "the controller degraded {} queries and shed {} ({:.1}%), keeping the \
         ingress queues at <= {} of {} slots",
        report.degraded,
        report.shed,
        100.0 * report.shed_rate(),
        report.peak_queue_depth,
        qb.config().admission.queue_capacity,
    );
    println!(
        "sojourn p50/p99/p999: {} / {} / {} — bounded through the burst",
        report.p50(),
        report.p99(),
        report.p999(),
    );

    // Observing the burst: replay the same flash crowd on a fresh fleet
    // with the structured tracer on (`qb_load::replay_traced` — provably
    // zero-impact, the report comes back byte-identical) and ask where the
    // slowest query's sojourn actually went. During the burst the answer
    // is queue wait at the ingress, not the fetch itself — the regime E15
    // asserts across the whole overload ladder.
    let mut traced_fleet = build_fleet(&corpus);
    let (traced_report, spans) = replay_traced(
        &mut traced_fleet,
        &trace,
        &ReplayConfig {
            fresh_fraction: 0.9,
            ..ReplayConfig::default()
        },
    )
    .expect("traced replay");
    assert_eq!(report, traced_report, "tracing never perturbs the replay");
    let slowest = spans
        .named("query")
        .max_by_key(|s| (s.duration(), s.id))
        .expect("completed queries");
    println!(
        "\nslowest traced query ({} arrival to completion) — critical path:",
        slowest.duration()
    );
    print!(
        "{}",
        qb_trace::render_path(&qb_trace::critical_path(&spans, slowest.id))
    );
}

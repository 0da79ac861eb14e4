//! Integration tests for the open-loop load harness (the E14 acceptance
//! criteria, end to end): a qb-load arrival trace replayed against a real
//! fleet must be deterministic, must complete everything without shedding
//! below saturation, and under heavy overload must shed while keeping
//! ingress queues bounded and goodput alive — all without perturbing the
//! closed-loop query paths, which never consult the admission config.

use qb_common::SimDuration;
use qb_load::scenario::{constant_trace, corpus, open_loop_fleet, published};
use qb_load::{replay, ArrivalTrace, RateShape, ReplayConfig, TraceConfig};
use qb_queenbee::{AdmissionConfig, Freshness, QueenBee, SearchRequest, TimedRequest};
use qb_workload::Corpus;

/// The open-loop fleet with `corpus` published. Rendezvous routing spreads
/// arrivals by hash rather than the old strict modulo round-robin, so short
/// bursts onto one frontend are expected below saturation; the 1.5 s shed
/// threshold leaves room for them.
fn open_loop_engine(corpus: &Corpus, seed: u64) -> QueenBee {
    let config = open_loop_fleet(seed, SimDuration::from_millis(1500));
    published(config, corpus, 10..28).expect("valid config")
}

fn fresh_heavy() -> ReplayConfig {
    ReplayConfig {
        fresh_fraction: 0.9,
        ..ReplayConfig::default()
    }
}

/// Same corpus, same trace, fresh engine → bit-identical `LoadReport`,
/// including both histograms.
#[test]
fn open_loop_replay_is_deterministic() {
    let corpus = corpus(0xE2E, 20, 60);
    let t = constant_trace(&corpus, 0xE2E, 40.0, 4);
    let mut a = open_loop_engine(&corpus, 0xE2E);
    let mut b = open_loop_engine(&corpus, 0xE2E);
    let ra = replay(&mut a, &t, &fresh_heavy()).expect("replay");
    let rb = replay(&mut b, &t, &fresh_heavy()).expect("replay");
    assert_eq!(ra, rb);
    assert!(ra.completed > 0);
}

/// Below saturation nothing is shed or degraded: every offered query
/// completes and the sojourn tail stays bounded.
#[test]
fn below_saturation_completes_everything() {
    let corpus = corpus(0xE2E, 20, 60);
    let t = constant_trace(&corpus, 0xE2E, 20.0, 5);
    let mut qb = open_loop_engine(&corpus, 0xE2E);
    let report = replay(&mut qb, &t, &fresh_heavy()).expect("replay");
    assert_eq!(report.offered, t.len() as u64);
    assert_eq!(report.shed, 0, "no shedding below saturation");
    assert_eq!(report.completed, report.admitted);
    assert_eq!(report.completed, report.offered);
    assert!(
        report.p99() < SimDuration::from_secs(1),
        "p99 {} out of bounds",
        report.p99()
    );
}

/// A flash crowd far past capacity: the controller sheds, ingress queues
/// stay within their configured bound, and the fleet keeps completing
/// queries (goodput does not collapse to zero).
#[test]
fn overload_sheds_but_keeps_queues_bounded() {
    let corpus = corpus(0xE2E, 20, 60);
    let t = ArrivalTrace::generate(
        &corpus,
        &TraceConfig {
            seed: 0xE2E,
            duration: SimDuration::from_secs(6),
            base_qps: 50.0,
            shape: RateShape::FlashCrowd {
                at: SimDuration::from_secs(2),
                duration: SimDuration::from_secs(2),
                multiplier: 20.0,
            },
            pool_size: 48,
            ..TraceConfig::default()
        },
    );
    let mut qb = open_loop_engine(&corpus, 0xE2E);
    let capacity = qb.config().admission.queue_capacity;
    let report = replay(&mut qb, &t, &fresh_heavy()).expect("replay");
    assert!(report.shed > 0, "flash crowd must trigger shedding");
    assert!(report.degraded > 0, "pressure must degrade Fresh queries");
    assert!(
        report.peak_queue_depth <= capacity,
        "queue depth {} exceeds capacity {}",
        report.peak_queue_depth,
        capacity
    );
    assert_eq!(report.completed, report.admitted);
    assert!(report.completed > report.offered / 4, "goodput collapsed");
}

/// The harness refuses to run without admission control, and enabling it
/// leaves the closed-loop paths untouched (same answers as a no-admission
/// engine).
#[test]
fn admission_gate_and_closed_loop_neutrality() {
    let corpus = corpus(0xE2E, 12, 60);
    let mut plain = {
        let mut config = open_loop_fleet(0xE2E, SimDuration::from_millis(1500));
        config.admission = AdmissionConfig::default();
        published(config, &corpus, 10..28).expect("valid config")
    };
    let mut gated = open_loop_engine(&corpus, 0xE2E);

    let err = plain.serve_open_loop(vec![TimedRequest::new(
        SimDuration::ZERO,
        SearchRequest::new("anything"),
    )]);
    assert!(err.is_err(), "serve_open_loop needs admission enabled");

    // Closed-loop paths answer identically with and without admission.
    let query = corpus.pages[0].title.split_whitespace().next().unwrap();
    let req = || {
        SearchRequest::new(query)
            .top_k(5)
            .freshness(Freshness::CacheOk)
    };
    let a = plain.search_request(req()).expect("search");
    let b = gated.search_request(req()).expect("search");
    assert_eq!(a.hits, b.hits);
}

//! E17 — replica-aware routing: kill the post-crash load spike.
//!
//! Replays the same open-loop trace on a zoned fleet (slow cross-zone
//! links) twice — the seed's ring-successor routing vs rendezvous hashing
//! plus power-of-two-choices — crashing one frontend between a warm-up
//! window and the measurement window. The per-frontend admitted counts over the
//! crash window show where the orphaned keyspace lands: the ring walk piles
//! all of it on one successor, rendezvous spreads it across the survivors.
//!
//! Asserted acceptance criterion (the CI smoke job runs this): the
//! post-crash per-frontend load spike under rendezvous + two-choices is
//! ≤ 0.6× the ring-walk successor's (both measured as the hottest
//! survivor's excess over the pre-crash fair share of the full fleet —
//! even a perfect respread puts 8 slots' traffic on 7 survivors, so raw
//! maxima bottom out at 8/7).

use crate::{published, write_json, DOC_LEN};
use qb_bench::{f2, ratio_x, Table};
use qb_load::scenario::{constant_trace, corpus, zoned_admission_fleet};
use qb_load::{replay, ArrivalTrace, ReplayConfig};
use qb_queenbee::LoadReport;
use qb_workload::Corpus;

/// The crash-window fleet (E12c replays the same scenario on its corpus).
pub(crate) const CRASH_FLEET: usize = 8;
pub(crate) const CRASH_VICTIM: usize = 2;
const ZONES: usize = 4;
const PAGES: usize = 20;
const WARM_SECS: u64 = 1;
const CRASH_SECS: u64 = 2;
const QPS: f64 = 150.0;

/// Replay `warm` on a fresh zoned fleet, crash frontend `CRASH_VICTIM`,
/// then replay `crash` on the survivors: the crash window's load report
/// under ring-successor (`ring`) or rendezvous + two-choices routing.
pub(crate) fn crash_window(
    corpus: &Corpus,
    seed: u64,
    replay_seed: u64,
    warm: &ArrivalTrace,
    crash: &ArrivalTrace,
    ring: bool,
) -> LoadReport {
    let mut qb = published(zoned_admission_fleet(seed, CRASH_FLEET, ZONES), corpus);
    let replay_cfg = ReplayConfig {
        seed: replay_seed,
        fresh_fraction: 0.5,
        top_k: 5,
        ring_successor_routing: ring,
    };
    replay(&mut qb, warm, &replay_cfg).expect("warm-up replay");
    qb.fleet_leave(CRASH_VICTIM, false).expect("crash");
    replay(&mut qb, crash, &replay_cfg).expect("crash-window replay")
}

struct CrashRun {
    admitted: Vec<u64>,
    /// The hottest survivor's load over the *pre-crash* fair share:
    /// 1.0 = "as if nobody crashed", 2.0 = "one slot absorbed a whole
    /// second keyspace" (the ring walk's signature).
    spike: f64,
    shed: u64,
}

impl CrashRun {
    fn max_admitted(&self) -> u64 {
        self.admitted.iter().copied().max().unwrap_or(0)
    }
}

fn routing_spike(corpus: &Corpus) -> (Table, CrashRun, CrashRun) {
    let warm = constant_trace(corpus, 0xE17A, QPS, WARM_SECS);
    let crash = constant_trace(corpus, 0xE17C, QPS, CRASH_SECS);
    let run_policy = |ring: bool| -> CrashRun {
        let report = crash_window(corpus, 0xE17, 0xE17F, &warm, &crash, ring);
        let fair = report.admitted as f64 / CRASH_FLEET as f64;
        let max = report.admitted_per_frontend.iter().copied().max();
        CrashRun {
            spike: max.unwrap_or(0) as f64 / fair.max(1e-9),
            shed: report.shed,
            admitted: report.admitted_per_frontend,
        }
    };
    let ring = run_policy(true);
    let hrw = run_policy(false);

    assert_eq!(
        ring.admitted[CRASH_VICTIM], 0,
        "E17a: the crashed frontend must not be routed to"
    );
    assert_eq!(
        hrw.admitted[CRASH_VICTIM], 0,
        "E17a: the crashed frontend must not be routed to"
    );
    assert!(
        ring.spike >= 1.5,
        "E17a: the ring walk must actually spike its successor ({:.2}x fair share)",
        ring.spike
    );
    // The spike is the *excess* over the pre-crash fair share: even a
    // perfect respread serves eight slots' traffic on seven survivors
    // (max >= 8/7 of fair share), so comparing raw maxima would demand
    // the impossible once the two-choices spread approaches perfect.
    // Excess isolates the imbalance the routing policy controls.
    assert!(
        hrw.spike - 1.0 <= 0.6 * (ring.spike - 1.0),
        "E17a: rendezvous + two-choices post-crash excess load ({:.2}x over \
         fair share) must stay <= 0.6x the ring-walk spike's excess ({:.2}x)",
        hrw.spike - 1.0,
        ring.spike - 1.0
    );

    let mut t = Table::new(
        &format!(
            "E17a: post-crash load spike — {CRASH_FLEET}-frontend fleet over {ZONES} zones, \
             frontend {CRASH_VICTIM} crashes after warm-up, {CRASH_SECS}s crash window at {QPS} q/s"
        ),
        &[
            "routing",
            "admitted_per_frontend",
            "max_admitted",
            "max_over_fair_share",
            "max_over_mean_survivor",
            "shed",
        ],
    );
    for (label, r) in [
        ("ring successor (seed)", &ring),
        ("rendezvous + 2-choices", &hrw),
    ] {
        let total: u64 = r.admitted.iter().sum();
        let survivors = (CRASH_FLEET - 1) as f64;
        t.row(&[
            &label,
            &format!("{:?}", r.admitted),
            &r.max_admitted(),
            &f2(r.spike),
            &f2(r.max_admitted() as f64 / (total as f64 / survivors).max(1e-9)),
            &r.shed,
        ]);
    }
    t.row(&[
        &"spike reduction",
        &"-",
        &"-",
        &ratio_x(ring.spike, hrw.spike),
        &"-",
        &"-",
    ]);
    (t, ring, hrw)
}

pub fn run() -> Vec<Table> {
    let corpus = corpus(0xE17, PAGES, DOC_LEN);
    let (t, ring, hrw) = routing_spike(&corpus);

    // Machine-readable artifact for the CI workflow.
    let artifact = serde_json::json!({
        "experiment": "e17-routing",
        "ring_admitted_per_frontend": ring.admitted,
        "hrw_admitted_per_frontend": hrw.admitted,
        "ring_spike_over_fair_share": ring.spike,
        "hrw_spike_over_fair_share": hrw.spike,
        "spike_reduction": ring.spike / hrw.spike.max(1e-9),
    });
    write_json("routing-e17.json", &artifact).expect("E17 artifact");

    vec![t]
}

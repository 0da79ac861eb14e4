//! qb-load: the open-loop workload harness.
//!
//! The closed-loop drivers elsewhere in the workspace (batch benchmarks,
//! `search_pipelined` experiments) issue the next query only after the
//! previous one finishes — so the offered load adapts to the system and
//! saturation is invisible. This crate drives the engine **open-loop**:
//! queries arrive on their own clock, generated up front as a timestamped
//! [`ArrivalTrace`], and the engine must admit, degrade
//! (`Fresh` → `CacheOk`) or shed each one at its arrival instant.
//!
//! * [`trace`] — non-homogeneous Poisson arrivals via thinning on
//!   [`qb_common::DetRng`], with constant / flash-crowd rate shapes and
//!   Zipf query popularity. Same [`TraceConfig`] → byte-identical trace.
//! * [`mod@replay`] — maps a trace onto
//!   [`qb_queenbee::QueenBee::serve_open_loop`], spreading arrivals over
//!   the frontend fleet and returning the engine's
//!   [`qb_queenbee::LoadReport`] (sojourn percentiles, goodput, shed and
//!   degrade counts).
//! * [`scenario`] — the corpus → publish → query-stream prologue and the
//!   engine presets that the experiments binary, the integration tests
//!   and the examples all start from.
//!
//! See `examples/open_loop.rs` for a flash-crowd walkthrough and
//! experiment E14 in `qb-bench` for the saturation ladder this harness
//! exists to measure.
//!
//! # Quickstart: generate a trace, replay it, read the report
//!
//! ```
//! use qb_common::SimDuration;
//! use qb_load::{replay, scenario, ArrivalTrace, ReplayConfig, TraceConfig};
//! use qb_queenbee::{AdmissionConfig, QueenBee, QueenBeeConfig};
//!
//! // 1. A fleet with the admission controller switched on (it ships
//! //    disabled; `serve_open_loop` refuses to run without it), and a
//! //    small corpus published from its first ten peers and indexed.
//! let mut config = QueenBeeConfig::small();
//! config.admission = AdmissionConfig::enabled();
//! let mut qb = QueenBee::new(config).unwrap();
//! let corpus = scenario::corpus(7, 8, 60);
//! scenario::publish_all(&mut qb, &corpus, 0..10).unwrap();
//!
//! // 2. One second of Poisson arrivals at 20 q/s, Zipf-popular queries.
//! let trace = ArrivalTrace::generate(
//!     &corpus,
//!     &TraceConfig {
//!         duration: SimDuration::from_secs(1),
//!         base_qps: 20.0,
//!         ..TraceConfig::default()
//!     },
//! );
//!
//! // 3. Replay it open-loop and read the latency/goodput accounting.
//! let report = replay(&mut qb, &trace, &ReplayConfig::default()).unwrap();
//! assert_eq!(report.offered, trace.len() as u64);
//! assert_eq!(report.completed + report.shed, report.offered);
//! println!(
//!     "p99 sojourn {} at {:.0} q/s goodput",
//!     report.p99(),
//!     report.goodput_qps()
//! );
//! ```

#![forbid(unsafe_code)]

pub mod replay;
pub mod scenario;
pub mod trace;

pub use replay::{replay, replay_traced, to_requests, ReplayConfig};
pub use trace::{Arrival, ArrivalTrace, RateShape, TraceConfig};

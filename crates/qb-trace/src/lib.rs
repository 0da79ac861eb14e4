//! Deterministic observability for the QueenBee stack.
//!
//! Four instruments in one crate, all driven by the simulated clock so a
//! seed fully determines what they record:
//!
//! - **Span trees** ([`Tracer`], [`Trace`]): every serving-path crate
//!   threads the tracer that lives inside `SimNet` — queries, pipeline
//!   windows, RPCs, DHT hops, gossip rounds and admission decisions each
//!   record named intervals on the sim clock. The tracer is off by
//!   default and every call is a no-op branch while disabled, so shipping
//!   the instrumentation costs nothing (asserted by E15: quick-mode E9–E14
//!   metrics are byte-identical with the code compiled in).
//! - **Unified metrics** ([`MetricsSnapshot`], [`MetricsSource`]): the
//!   five per-crate stats structs (`NetStats`, `CacheReport`,
//!   `GossipStats`, `QueryEngineStats`, `LoadReport`) flatten into one
//!   named counter/histogram namespace, diffable between two instants and
//!   exportable as deterministic JSON.
//! - **Operation chains** ([`OpChain`]): each query, publish event and
//!   gossip round's simulated outcome folded into a running hash, kept per
//!   operation, so two runs of one scenario name the first operation at
//!   which they part. Off by default, like the tracer.
//! - **Analysis + export** ([`critical_path`], [`attribution`],
//!   [`to_chrome_trace`], [`to_json`]): walk a span tree backwards from
//!   its completion to find which stage bounded the sojourn (queue wait vs
//!   link contention vs fetch fan-out vs scoring), and render traces for
//!   `chrome://tracing` / Perfetto or programmatic consumers.
//!
//! # Example
//!
//! ```
//! use qb_common::SimInstant;
//! use qb_trace::{attribution, critical_path, to_chrome_trace, Tracer};
//!
//! let mut tracer = Tracer::default();
//! tracer.set_enabled(true);
//! let query = tracer.open_with("query", SimInstant(0), || "rust dht".into());
//! tracer.record(None, "queue_wait", SimInstant(0), SimInstant(250));
//! let fetch = tracer.open_with("fetch", SimInstant(250), String::new);
//! tracer.record(None, "rpc", SimInstant(260), SimInstant(900));
//! tracer.close(fetch, SimInstant(950));
//! tracer.close(query, SimInstant(1000));
//!
//! let trace = tracer.take();
//! let root = query.unwrap();
//! let path = critical_path(&trace, root);
//! assert_eq!(path.last().unwrap().name, "rpc");
//! let attr = attribution(&trace, root);
//! assert_eq!(attr["rpc"].as_micros(), 640);
//! assert!(to_chrome_trace(&trace).contains("\"ph\":\"X\""));
//! ```

#![forbid(unsafe_code)]

pub mod chain;
pub mod export;
pub mod metrics;
pub mod path;
pub mod span;

pub use chain::{OpChain, OpKind, OpLink};
pub use export::{to_chrome_trace, to_json};
pub use metrics::{MetricsSnapshot, MetricsSource};
pub use path::{attribution, critical_path, render_path, PathStep};
pub use span::{Span, SpanId, Trace, Tracer};

#[cfg(test)]
mod invariant_tests {
    //! Property tests for the span-tree invariants the rest of the stack
    //! relies on: children nest within their parents, every span is
    //! forward in time, and identical recording sequences serialize to
    //! identical bytes.

    use proptest::prelude::*;
    use qb_common::SimInstant;

    use crate::span::{Trace, Tracer};

    const NAMES: [&str; 5] = ["query", "fetch", "rpc", "queue_wait", "score"];

    /// Raw op encoding: `(tag, at, len)`. `tag % 3` selects open / close /
    /// record, `tag / 3` the span name (the vendor proptest stand-in has
    /// no `prop_oneof`, so ops decode from plain integer tuples).
    type RawOp = (u64, u64, u64);

    fn op_strategy() -> impl Strategy<Value = RawOp> {
        (0u64..15, 0u64..100_000, 0u64..10_000)
    }

    fn run(ops: &[RawOp]) -> Trace {
        let mut tracer = Tracer::default();
        tracer.set_enabled(true);
        let mut open = Vec::new();
        for &(tag, at, len) in ops {
            let name = NAMES[(tag / 3) as usize % NAMES.len()];
            match tag % 3 {
                0 => open.push(tracer.open_with(name, SimInstant(at), String::new)),
                1 => {
                    if let Some(id) = open.pop() {
                        tracer.close(id, SimInstant(at));
                    }
                }
                _ => {
                    tracer.record(None, name, SimInstant(at), SimInstant(at + len));
                }
            }
        }
        while let Some(id) = open.pop() {
            tracer.close(id, SimInstant(200_000));
        }
        tracer.take()
    }

    proptest! {
        #[test]
        fn children_nest_within_parents_and_time_is_monotone(
            ops in proptest::collection::vec(op_strategy(), 0..60),
        ) {
            let trace = run(&ops);
            for span in &trace.spans {
                prop_assert!(span.start <= span.end, "span {:?} runs backwards", span);
                if let Some(parent) = span.parent {
                    let p = trace.get(parent).unwrap();
                    prop_assert!(
                        p.start <= span.start && span.end <= p.end,
                        "child {:?} escapes parent {:?}",
                        span,
                        p
                    );
                    prop_assert!(parent < span.id, "parent created after child");
                }
            }
        }

        #[test]
        fn same_ops_serialize_to_identical_bytes(
            ops in proptest::collection::vec(op_strategy(), 0..60),
        ) {
            let a = run(&ops);
            let b = run(&ops);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(crate::to_json(&a), crate::to_json(&b));
            prop_assert_eq!(crate::to_chrome_trace(&a), crate::to_chrome_trace(&b));
        }

        #[test]
        fn critical_path_attribution_sums_to_root_duration(
            ops in proptest::collection::vec(op_strategy(), 1..60),
        ) {
            let trace = run(&ops);
            for root in trace.spans.iter().filter(|s| s.parent.is_none()) {
                let attr = crate::attribution(&trace, root.id);
                let total = attr
                    .values()
                    .fold(qb_common::SimDuration::ZERO, |acc, &d| acc + d);
                prop_assert_eq!(
                    total,
                    root.duration(),
                    "attribution does not cover root {:?}",
                    root
                );
            }
        }
    }
}

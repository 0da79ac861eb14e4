//! Deterministic peer-to-peer network simulator.
//!
//! Every protocol crate in the reproduction (DHT, storage, DWeb, QueenBee)
//! sends its messages through [`SimNet`]. The simulator models:
//!
//! * per-link latency through a pluggable [`LatencyModel`],
//! * bandwidth-proportional transfer time for large payloads,
//! * node liveness (churn, crash failures, targeted DDoS),
//! * network partitions (a node can only reach nodes in the same partition
//!   group),
//! * random message loss,
//! * per-message and per-byte accounting for the cost experiments.
//!
//! Time is virtual and advances explicitly. Simple callers execute an RPC
//! synchronously and accumulate its sampled latency themselves; rounds of
//! parallel RPCs charge the maximum latency of the round via
//! [`parallel_latency`]. Event-driven callers — the DHT's per-lookup state
//! machines and the window loop every QueenBee query runs through
//! (`engine/windows.rs` in `qb-queenbee`) — instead use **non-blocking
//! request handles**: [`SimNet::send_async_at`] issues one RPC at a chosen virtual
//! instant (failure sampling and message/byte accounting happen at issue
//! time) and [`SimNet::begin_async_op`] tracks an already-executed compound
//! operation such as a storage-DAG fetch. Both occupy the source peer's
//! uplink, whose in-flight limit ([`NetConfig::max_in_flight_per_link`])
//! queues excess operations behind the earliest completion and charges the
//! queueing delay to [`NetStats`]. [`SimNet::poll_complete`] resolves a handle at a given
//! instant and reports when a pending one is due, so a driver can advance
//! to exactly the next event: hops from different concurrent lookups
//! interleave on contended links while every message stays deterministically
//! accounted and every run is bit-identical for a given seed.

#![forbid(unsafe_code)]

pub mod latency;
pub mod net;
pub mod stats;

pub use latency::LatencyModel;
pub use net::{AsyncCompletion, NetConfig, Poll, RpcError, RpcHandle, SimNet};
pub use stats::NetStats;

use qb_common::SimDuration;

/// Latency of a round of RPCs issued in parallel: the slowest one dominates.
pub fn parallel_latency(latencies: &[SimDuration]) -> SimDuration {
    latencies
        .iter()
        .copied()
        .fold(SimDuration::ZERO, SimDuration::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_latency_is_max() {
        let l = [
            SimDuration::from_millis(3),
            SimDuration::from_millis(10),
            SimDuration::from_millis(7),
        ];
        assert_eq!(parallel_latency(&l), SimDuration::from_millis(10));
        assert_eq!(parallel_latency(&[]), SimDuration::ZERO);
    }
}

//! Traffic accounting used by the experiment harness.

/// Cumulative traffic counters maintained by [`crate::SimNet`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct NetStats {
    /// Individual messages put on the wire (an RPC counts as two).
    pub messages: u64,
    /// Total payload bytes transferred.
    pub bytes: u64,
    /// Completed request/response RPCs.
    pub rpcs: u64,
    /// RPCs that failed (offline peer, partition, drop).
    pub failed_rpcs: u64,
    /// Messages lost to random drop.
    pub dropped_messages: u64,
    /// Peers that transitioned offline→online (churn: joins, restarts,
    /// heals).
    pub peer_up_events: u64,
    /// Peers that transitioned online→offline (churn: crashes, graceful
    /// departures).
    pub peer_down_events: u64,
    /// Asynchronous operations issued (`send_async_at` / `begin_async_op`).
    pub async_ops: u64,
    /// Asynchronous operations that had to queue behind a link's in-flight
    /// limit before starting.
    pub async_queued_ops: u64,
    /// Total queueing delay (µs) charged to asynchronous operations by the
    /// per-link in-flight limits.
    pub async_queue_delay_us: u64,
    /// Always 0: hedged fetches are retired and nothing records one. Kept
    /// with the next two only because the benchmark's `sim_fingerprint` and
    /// its `dht.hedge_*` probes still read them; the next benchmark change
    /// drops those readers and these three fields together.
    pub hedges_fired: u64,
    /// Always 0 (see [`NetStats::hedges_fired`]).
    pub hedges_won: u64,
    /// Always 0 (see [`NetStats::hedges_fired`]).
    pub hedges_wasted_bytes: u64,
}

impl NetStats {
    /// Every counter, in declaration order.
    pub fn counters(&self) -> [u64; 13] {
        [
            self.messages,
            self.bytes,
            self.rpcs,
            self.failed_rpcs,
            self.dropped_messages,
            self.peer_up_events,
            self.peer_down_events,
            self.async_ops,
            self.async_queued_ops,
            self.async_queue_delay_us,
            self.hedges_fired,
            self.hedges_won,
            self.hedges_wasted_bytes,
        ]
    }

    /// Difference since a previous snapshot (for per-phase accounting).
    pub fn delta_since(&self, earlier: &NetStats) -> NetStats {
        NetStats {
            messages: self.messages.saturating_sub(earlier.messages),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            rpcs: self.rpcs.saturating_sub(earlier.rpcs),
            failed_rpcs: self.failed_rpcs.saturating_sub(earlier.failed_rpcs),
            dropped_messages: self
                .dropped_messages
                .saturating_sub(earlier.dropped_messages),
            peer_up_events: self.peer_up_events.saturating_sub(earlier.peer_up_events),
            peer_down_events: self
                .peer_down_events
                .saturating_sub(earlier.peer_down_events),
            async_ops: self.async_ops.saturating_sub(earlier.async_ops),
            async_queued_ops: self
                .async_queued_ops
                .saturating_sub(earlier.async_queued_ops),
            async_queue_delay_us: self
                .async_queue_delay_us
                .saturating_sub(earlier.async_queue_delay_us),
            hedges_fired: self.hedges_fired.saturating_sub(earlier.hedges_fired),
            hedges_won: self.hedges_won.saturating_sub(earlier.hedges_won),
            hedges_wasted_bytes: self
                .hedges_wasted_bytes
                .saturating_sub(earlier.hedges_wasted_bytes),
        }
    }
}

impl qb_trace::MetricsSource for NetStats {
    fn metrics_into(&self, out: &mut qb_trace::MetricsSnapshot) {
        out.add_counter("net.messages", self.messages);
        out.add_counter("net.bytes", self.bytes);
        out.add_counter("net.rpcs", self.rpcs);
        out.add_counter("net.failed_rpcs", self.failed_rpcs);
        out.add_counter("net.dropped_messages", self.dropped_messages);
        out.add_counter("net.peer_up_events", self.peer_up_events);
        out.add_counter("net.peer_down_events", self.peer_down_events);
        out.add_counter("net.async_ops", self.async_ops);
        out.add_counter("net.async_queued_ops", self.async_queued_ops);
        out.add_counter("net.async_queue_delay_us", self.async_queue_delay_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn netstats_delta() {
        let a = NetStats {
            messages: 10,
            bytes: 100,
            rpcs: 5,
            failed_rpcs: 1,
            dropped_messages: 0,
            peer_up_events: 1,
            peer_down_events: 2,
            async_ops: 3,
            async_queued_ops: 1,
            async_queue_delay_us: 40,
            hedges_fired: 2,
            hedges_won: 1,
            hedges_wasted_bytes: 64,
        };
        let b = NetStats {
            messages: 25,
            bytes: 300,
            rpcs: 12,
            failed_rpcs: 2,
            dropped_messages: 1,
            peer_up_events: 2,
            peer_down_events: 5,
            async_ops: 7,
            async_queued_ops: 2,
            async_queue_delay_us: 90,
            hedges_fired: 5,
            hedges_won: 2,
            hedges_wasted_bytes: 100,
        };
        let d = b.delta_since(&a);
        assert_eq!(d.messages, 15);
        assert_eq!(d.bytes, 200);
        assert_eq!(d.rpcs, 7);
        assert_eq!(d.failed_rpcs, 1);
        assert_eq!(d.dropped_messages, 1);
        assert_eq!(d.peer_up_events, 1);
        assert_eq!(d.peer_down_events, 3);
        assert_eq!(d.async_ops, 4);
        assert_eq!(d.async_queued_ops, 1);
        assert_eq!(d.async_queue_delay_us, 50);
        assert_eq!(d.hedges_fired, 3);
        assert_eq!(d.hedges_won, 1);
        assert_eq!(d.hedges_wasted_bytes, 36);
    }
}

//! The simulated network: liveness, partitions, message accounting and the
//! RPC cost model used by every protocol crate.

use crate::latency::LatencyModel;
use crate::stats::NetStats;
use qb_common::{DetRng, IdHashMap, QbError, SimDuration, SimInstant};
use qb_trace::{SpanId, Tracer};

/// Static configuration of a simulated network.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// One-way latency model between peers.
    pub latency: LatencyModel,
    /// Probability that any single message is silently dropped.
    pub drop_probability: f64,
    /// Effective per-peer bandwidth in bytes per second; payload transfer
    /// time is added on top of propagation latency.
    pub bandwidth_bytes_per_sec: u64,
    /// Number of latency zones peers are spread over (round-robin).
    pub zones: usize,
    /// Latency charged when an RPC to a dead/unreachable peer times out.
    pub timeout: SimDuration,
    /// Maximum asynchronous operations — RPCs issued with
    /// [`SimNet::send_async_at`] and compound operations tracked with
    /// [`SimNet::begin_async_op`], to any destination — one source peer's
    /// uplink can have in flight at once. An operation issued while the
    /// limit is reached queues behind the earliest completion, and the
    /// queueing delay is charged to [`NetStats`] — this is what makes
    /// pipelined overlap a modeled resource instead of free parallelism.
    pub max_in_flight_per_link: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency: LatencyModel::default(),
            drop_probability: 0.0,
            bandwidth_bytes_per_sec: 12_500_000, // ~100 Mbit/s
            zones: 8,
            timeout: SimDuration::from_millis(500),
            max_in_flight_per_link: 8,
        }
    }
}

impl NetConfig {
    /// A fast, lossless LAN configuration for unit tests.
    pub fn lan() -> NetConfig {
        NetConfig {
            latency: LatencyModel::lan(),
            drop_probability: 0.0,
            bandwidth_bytes_per_sec: 125_000_000,
            zones: 1,
            timeout: SimDuration::from_millis(50),
            max_in_flight_per_link: 8,
        }
    }

    /// A network whose peers cluster into `zones` latency classes
    /// (round-robin by peer id): `intra_micros` one-way within a zone,
    /// `inter_micros` across zones, both with ±20% jitter. The model behind
    /// the zone-aware gossip experiments (E12): same-zone RPCs are an order
    /// of magnitude cheaper than cross-zone ones, as in geo-distributed
    /// DWeb deployments.
    pub fn zoned(zones: usize, intra_micros: u64, inter_micros: u64) -> NetConfig {
        NetConfig {
            latency: LatencyModel::Zoned {
                intra_micros,
                inter_micros,
            },
            zones: zones.max(1),
            ..NetConfig::default()
        }
    }
}

/// Failure modes of a simulated RPC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpcError {
    /// The peer is offline (crashed, churned out or DDoS'd).
    PeerOffline,
    /// The peer is unreachable because of a network partition.
    Partitioned,
    /// The message (or its reply) was dropped.
    Dropped,
    /// The calling node itself is offline.
    SelfOffline,
}

impl From<RpcError> for QbError {
    fn from(e: RpcError) -> QbError {
        QbError::Network(format!("{e:?}"))
    }
}

/// Handle to an in-flight asynchronous operation issued with
/// [`SimNet::send_async_at`] or [`SimNet::begin_async_op`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RpcHandle(u64);

/// Completion record of an asynchronous operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AsyncCompletion {
    /// When the operation finished (queueing + service).
    pub completed_at: SimInstant,
    /// Service latency alone (propagation + transfer, or the wrapped
    /// compound operation's latency).
    pub latency: SimDuration,
    /// Time spent queued behind the link's in-flight limit before the
    /// operation could start.
    pub queue_delay: SimDuration,
}

/// Result of polling an in-flight operation at a given instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Poll {
    /// Still in flight; done no earlier than `completes_at`.
    Pending {
        /// The instant the operation will complete.
        completes_at: SimInstant,
    },
    /// Finished; the handle is retired.
    Ready(AsyncCompletion),
}

/// Span label of a source peer's uplink.
fn link_label(from: u64) -> String {
    format!("{from}->*")
}

#[derive(Debug, Clone, Copy)]
struct InFlightOp {
    /// The source peer whose uplink the operation occupies.
    from: u64,
    latency: SimDuration,
    queue_delay: SimDuration,
    completes_at: SimInstant,
}

#[derive(Debug, Clone)]
struct PeerState {
    online: bool,
    zone: usize,
    /// Partition group; peers can only talk within the same group.
    partition: u32,
}

/// The simulated peer-to-peer network.
#[derive(Debug)]
pub struct SimNet {
    config: NetConfig,
    peers: Vec<PeerState>,
    rng: DetRng,
    clock: SimInstant,
    stats: NetStats,
    /// Operations currently in flight, by handle: handles are sequential
    /// ids, so they need a spread, not a SipHash.
    in_flight: IdHashMap<InFlightOp>,
    /// Completion instants of in-flight operations on each source peer's
    /// uplink, each beside its operation's handle, indexed by peer (grown
    /// to the highest peer that has issued one), for the in-flight limit
    /// (kept pruned as operations retire). A retiring operation frees only
    /// its own entry, never another's that completes at the same instant. A
    /// link that goes idle keeps its `Vec`, so its next operation does not
    /// allocate it again.
    link_completions: Vec<Vec<(SimInstant, u64)>>,
    next_handle: u64,
    /// Span recorder shared by every protocol layer (they all hold `&mut
    /// SimNet` already). Disabled by default; recording never touches
    /// [`NetStats`] — observation is free, traffic is not.
    tracer: Tracer,
}

impl SimNet {
    /// Create a network with `n` peers, all online, in one partition.
    pub fn new(n: usize, config: NetConfig, seed: u64) -> SimNet {
        let peers = (0..n)
            .map(|i| PeerState {
                online: true,
                zone: i % config.zones.max(1),
                partition: 0,
            })
            .collect();
        SimNet {
            config,
            peers,
            rng: DetRng::new(seed),
            clock: SimInstant::ZERO,
            stats: NetStats::default(),
            in_flight: IdHashMap::default(),
            link_completions: Vec::new(),
            next_handle: 0,
            tracer: Tracer::default(),
        }
    }

    /// The span recorder. Protocol layers thread their spans through this
    /// (they all already hold `&mut SimNet`); it is disabled by default
    /// and every call on a disabled tracer is a no-op branch.
    pub fn tracer(&mut self) -> &mut Tracer {
        &mut self.tracer
    }

    /// Turn span recording on or off.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Is span recording on?
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Drain everything recorded so far into a trace.
    pub fn take_trace(&mut self) -> qb_trace::Trace {
        self.tracer.take()
    }

    /// Number of peers (online or not).
    pub fn len(&self) -> usize {
        self.peers.len()
    }

    /// True when the network has no peers.
    pub fn is_empty(&self) -> bool {
        self.peers.is_empty()
    }

    /// Current logical time.
    pub fn now(&self) -> SimInstant {
        self.clock
    }

    /// Advance the logical clock (e.g. to model epochs between query batches).
    pub fn advance(&mut self, d: SimDuration) {
        self.clock += d;
    }

    /// Advance the logical clock to `at` (no-op when `at` is not in the
    /// future). Open-loop replay drivers use this to move the shared clock
    /// to each trace arrival's instant before admitting the query, instead
    /// of accumulating relative steps.
    pub fn advance_to(&mut self, at: SimInstant) {
        if at > self.clock {
            self.clock = at;
        }
    }

    /// Accumulated traffic statistics.
    pub fn stats(&self) -> &NetStats {
        &self.stats
    }

    /// Reset traffic statistics (start of a measurement window).
    pub fn reset_stats(&mut self) {
        self.stats = NetStats::default();
    }

    /// Borrow the deterministic RNG (protocols share the network's stream).
    pub fn rng(&mut self) -> &mut DetRng {
        &mut self.rng
    }

    /// Network configuration.
    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    // ----- liveness / partitions -------------------------------------------------

    /// Is the peer currently online?
    pub fn is_online(&self, node: u64) -> bool {
        self.peers
            .get(node as usize)
            .map(|p| p.online)
            .unwrap_or(false)
    }

    /// Bring a peer online / take it offline. State transitions are counted
    /// as peer up/down events in [`crate::NetStats`] (the churn record the
    /// experiments report).
    pub fn set_online(&mut self, node: u64, online: bool) {
        if let Some(p) = self.peers.get_mut(node as usize) {
            if p.online != online {
                if online {
                    self.stats.peer_up_events += 1;
                } else {
                    self.stats.peer_down_events += 1;
                }
            }
            p.online = online;
        }
    }

    /// Take a uniformly random `fraction` of peers offline (crash / churn /
    /// DDoS victim model). Peers listed in `protect` are never taken down.
    /// Returns the indices that were taken offline.
    pub fn fail_fraction(&mut self, fraction: f64, protect: &[u64]) -> Vec<u64> {
        let n = self.peers.len();
        let target = ((n as f64) * fraction.clamp(0.0, 1.0)).round() as usize;
        let mut candidates: Vec<u64> = (0..n as u64)
            .filter(|i| !protect.contains(i) && self.is_online(*i))
            .collect();
        // Deterministic selection.
        let mut rng = self.rng.fork(0xFA11);
        rng.shuffle(&mut candidates);
        let mut downed = Vec::new();
        for &i in candidates.iter().take(target) {
            self.set_online(i, false);
            downed.push(i);
        }
        downed
    }

    /// Restore every peer to online and a single partition.
    pub fn heal_all(&mut self) {
        for p in &mut self.peers {
            if !p.online {
                self.stats.peer_up_events += 1;
            }
            p.online = true;
            p.partition = 0;
        }
    }

    /// Split the network into `groups` partitions, assigning peers
    /// round-robin. Peers can only communicate within their group.
    pub fn partition_round_robin(&mut self, groups: u32) {
        let g = groups.max(1);
        for (i, p) in self.peers.iter_mut().enumerate() {
            p.partition = (i as u32) % g;
        }
    }

    /// Assign an explicit partition group to one peer.
    pub fn set_partition(&mut self, node: u64, group: u32) {
        if let Some(p) = self.peers.get_mut(node as usize) {
            p.partition = group;
        }
    }

    /// Partition group of a peer.
    pub fn partition_of(&self, node: u64) -> u32 {
        self.peers
            .get(node as usize)
            .map(|p| p.partition)
            .unwrap_or(u32::MAX)
    }

    /// Can `from` currently exchange messages with `to`?
    pub fn can_reach(&self, from: u64, to: u64) -> bool {
        let (Some(a), Some(b)) = (self.peers.get(from as usize), self.peers.get(to as usize))
        else {
            return false;
        };
        a.online && b.online && a.partition == b.partition
    }

    // ----- RPC cost model ---------------------------------------------------------

    /// Simulate a request/response RPC of `request_bytes` + `response_bytes`
    /// between two peers. On success returns the round-trip latency
    /// (propagation both ways + transfer time); on failure returns the error
    /// and charges the timeout to the caller via the returned duration being
    /// embedded in the error path (callers use [`SimNet::rpc_or_timeout`]).
    pub fn rpc(
        &mut self,
        from: u64,
        to: u64,
        request_bytes: usize,
        response_bytes: usize,
    ) -> Result<SimDuration, RpcError> {
        let latency = self.sample_rpc(from, to, request_bytes, response_bytes)?;
        let (start, end) = (self.clock, self.clock + latency);
        self.tracer
            .record_with(None, "rpc", start, end, || format!("{from}->{to}"));
        Ok(latency)
    }

    /// The cost-model core shared by every RPC-shaped call: failure
    /// sampling plus message/byte accounting, returning the round-trip
    /// service latency. Does not record a span — callers place the span on
    /// whatever (possibly virtual) timeline the RPC executes on.
    fn sample_rpc(
        &mut self,
        from: u64,
        to: u64,
        request_bytes: usize,
        response_bytes: usize,
    ) -> Result<SimDuration, RpcError> {
        if !self.is_online(from) {
            return Err(RpcError::SelfOffline);
        }
        if !self.is_online(to) {
            self.stats.failed_rpcs += 1;
            return Err(RpcError::PeerOffline);
        }
        let (za, zb, pa, pb) = {
            let a = &self.peers[from as usize];
            let b = &self.peers[to as usize];
            (a.zone, b.zone, a.partition, b.partition)
        };
        if pa != pb {
            self.stats.failed_rpcs += 1;
            return Err(RpcError::Partitioned);
        }
        if self.config.drop_probability > 0.0 && self.rng.gen_bool(self.config.drop_probability) {
            self.stats.dropped_messages += 1;
            self.stats.failed_rpcs += 1;
            return Err(RpcError::Dropped);
        }
        let prop_out = self.config.latency.sample(&mut self.rng, za, zb);
        let prop_back = self.config.latency.sample(&mut self.rng, zb, za);
        let transfer = self.transfer_time(request_bytes + response_bytes);
        self.stats.messages += 2;
        self.stats.bytes += (request_bytes + response_bytes) as u64;
        self.stats.rpcs += 1;
        Ok(prop_out + prop_back + transfer)
    }

    /// Like [`SimNet::rpc`] but a failure costs the configured timeout, which
    /// is what a real client experiences when a peer is dead.
    pub fn rpc_or_timeout(
        &mut self,
        from: u64,
        to: u64,
        request_bytes: usize,
        response_bytes: usize,
    ) -> (Result<(), RpcError>, SimDuration) {
        match self.rpc(from, to, request_bytes, response_bytes) {
            Ok(lat) => (Ok(()), lat),
            Err(RpcError::SelfOffline) => (Err(RpcError::SelfOffline), SimDuration::ZERO),
            Err(e) => (Err(e), self.config.timeout),
        }
    }

    /// One-way message (gossip, notifications). Returns the one-way latency.
    pub fn send(&mut self, from: u64, to: u64, bytes: usize) -> Result<SimDuration, RpcError> {
        if !self.is_online(from) {
            return Err(RpcError::SelfOffline);
        }
        if !self.can_reach(from, to) {
            self.stats.failed_rpcs += 1;
            return Err(if self.is_online(to) {
                RpcError::Partitioned
            } else {
                RpcError::PeerOffline
            });
        }
        if self.config.drop_probability > 0.0 && self.rng.gen_bool(self.config.drop_probability) {
            self.stats.dropped_messages += 1;
            return Err(RpcError::Dropped);
        }
        let (za, zb) = (self.peers[from as usize].zone, self.peers[to as usize].zone);
        let lat = self.config.latency.sample(&mut self.rng, za, zb) + self.transfer_time(bytes);
        self.stats.messages += 1;
        self.stats.bytes += bytes as u64;
        let (start, end) = (self.clock, self.clock + lat);
        self.tracer
            .record_with(None, "send", start, end, || format!("{from}->{to}"));
        Ok(lat)
    }

    // ----- non-blocking request handles -------------------------------------------

    /// Issue a request/response RPC at virtual instant `at` (clamped to be
    /// no earlier than the shared clock) without blocking on its
    /// completion. This is the primitive event-driven callers build on: the
    /// DHT's lookup state machines issue each hop through it, so per-hop
    /// RPCs from *different* concurrent lookups interleave on the issuing
    /// peer's uplink instead of executing lookup-after-lookup.
    ///
    /// Failure sampling and message/byte accounting happen immediately
    /// (exactly as in [`SimNet::rpc`]); the `rpc` span is recorded on the
    /// virtual timeline `[at, at + service]` under `parent` (pass the
    /// enclosing lookup/fetch span so async traffic keeps the one nested
    /// trace shape). The operation occupies the **source peer's uplink**
    /// (the `from -> *` link, shared with [`SimNet::begin_async_op`]): a
    /// caller with more concurrent hops in flight than
    /// [`NetConfig::max_in_flight_per_link`] queues the excess behind the
    /// earliest completion and the queueing delay is charged to
    /// [`NetStats`].
    pub fn send_async_at(
        &mut self,
        from: u64,
        to: u64,
        request_bytes: usize,
        response_bytes: usize,
        at: SimInstant,
        parent: Option<SpanId>,
    ) -> Result<RpcHandle, RpcError> {
        let at = at.max(self.clock);
        let service = self.sample_rpc(from, to, request_bytes, response_bytes)?;
        self.tracer
            .record_with(parent, "rpc", at, at + service, || format!("{from}->{to}"));
        Ok(self.enqueue_async(from, at, service, parent))
    }

    /// Track an already-executed compound operation (e.g. a storage-DAG
    /// fetch whose messages and bytes were charged by its synchronous
    /// execution) as an in-flight asynchronous operation issued from `from`
    /// at `at`. The source peer's aggregate in-flight limit applies: a
    /// pipelined caller that issues more concurrent fetches than the peer's
    /// link capacity pays real queueing delay instead of getting free
    /// infinite parallelism. `at` may lie in the simulated future (pipeline
    /// drivers run on a virtual cursor ahead of the shared clock); the
    /// operation's queue/deliver spans are recorded under `parent`.
    pub fn begin_async_op(
        &mut self,
        from: u64,
        at: SimInstant,
        latency: SimDuration,
        parent: Option<SpanId>,
    ) -> RpcHandle {
        let at = at.max(self.clock);
        self.enqueue_async(from, at, latency, parent)
    }

    fn enqueue_async(
        &mut self,
        from: u64,
        at: SimInstant,
        latency: SimDuration,
        parent: Option<SpanId>,
    ) -> RpcHandle {
        let capacity = self.config.max_in_flight_per_link.max(1);
        let link = from as usize;
        if link >= self.link_completions.len() {
            self.link_completions.resize_with(link + 1, Vec::new);
        }
        self.next_handle += 1;
        let completions = &mut self.link_completions[link];
        completions.retain(|&(c, _)| c > at);
        completions.sort_unstable();
        let started_at = if completions.len() >= capacity {
            // Queue behind enough completions to free a slot.
            completions[completions.len() - capacity].0
        } else {
            at
        };
        let queue_delay = started_at.since(at);
        let completes_at = started_at + latency;
        completions.push((completes_at, self.next_handle));
        self.stats.async_ops += 1;
        if queue_delay > SimDuration::ZERO {
            self.stats.async_queued_ops += 1;
            self.stats.async_queue_delay_us += queue_delay.as_micros();
            self.tracer
                .record_with(parent, "net.queue", at, started_at, || link_label(from));
        }
        self.tracer
            .record_with(parent, "net.deliver", started_at, completes_at, || {
                link_label(from)
            });
        let handle = RpcHandle(self.next_handle);
        self.in_flight.insert(
            self.next_handle,
            InFlightOp {
                from,
                latency,
                queue_delay,
                completes_at,
            },
        );
        handle
    }

    /// Poll an in-flight operation at instant `at`. Returns `None` for an
    /// unknown (or already-retired) handle. A `Ready` result retires the
    /// handle; `Pending` reports when completion is due, so a driver can
    /// advance its virtual clock to exactly that instant.
    pub fn poll_complete(&mut self, handle: RpcHandle, at: SimInstant) -> Option<Poll> {
        let op = *self.in_flight.get(&handle.0)?;
        if at < op.completes_at {
            return Some(Poll::Pending {
                completes_at: op.completes_at,
            });
        }
        self.in_flight.remove(&handle.0);
        // Free the uplink slot the operation held, if an issue on its link
        // has not pruned it already.
        if let Some(completions) = self.link_completions.get_mut(op.from as usize) {
            if let Some(pos) = completions.iter().position(|&(_, h)| h == handle.0) {
                completions.swap_remove(pos);
            }
        }
        Some(Poll::Ready(AsyncCompletion {
            completed_at: op.completes_at,
            latency: op.latency,
            queue_delay: op.queue_delay,
        }))
    }

    /// When an in-flight operation will complete (`None` for an unknown or
    /// retired handle). Read-only — the handle stays live.
    pub fn async_completes_at(&self, handle: RpcHandle) -> Option<SimInstant> {
        self.in_flight.get(&handle.0).map(|op| op.completes_at)
    }

    /// Number of operations currently in flight (all links).
    pub fn async_in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// Transfer time of `bytes` at the configured bandwidth.
    pub fn transfer_time(&self, bytes: usize) -> SimDuration {
        if bytes == 0 || self.config.bandwidth_bytes_per_sec == 0 {
            return SimDuration::ZERO;
        }
        let micros =
            (bytes as u128 * 1_000_000u128 / self.config.bandwidth_bytes_per_sec as u128) as u64;
        SimDuration::from_micros(micros)
    }
}

/// Convenience constructor for tests: LAN network with `n` peers.
pub fn lan(n: usize, seed: u64) -> SimNet {
    SimNet::new(n, NetConfig::lan(), seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn rpc_succeeds_between_online_peers() {
        let mut net = lan(4, 1);
        let lat = net.rpc(0, 1, 100, 200).unwrap();
        assert!(lat.as_micros() > 0);
        assert_eq!(net.stats().rpcs, 1);
        assert_eq!(net.stats().messages, 2);
        assert_eq!(net.stats().bytes, 300);
    }

    #[test]
    fn rpc_to_offline_peer_fails() {
        let mut net = lan(4, 2);
        net.set_online(2, false);
        assert_eq!(net.rpc(0, 2, 10, 10), Err(RpcError::PeerOffline));
        assert_eq!(net.stats().failed_rpcs, 1);
        let (res, lat) = net.rpc_or_timeout(0, 2, 10, 10);
        assert!(res.is_err());
        assert_eq!(lat, net.config().timeout);
    }

    #[test]
    fn rpc_from_offline_self_fails_without_timeout() {
        let mut net = lan(4, 3);
        net.set_online(0, false);
        assert_eq!(net.rpc(0, 1, 10, 10), Err(RpcError::SelfOffline));
    }

    #[test]
    fn partitions_block_traffic() {
        let mut net = lan(6, 4);
        net.partition_round_robin(2);
        // Peers 0 and 2 are both in group 0; 0 and 1 are split.
        assert!(net.can_reach(0, 2));
        assert!(!net.can_reach(0, 1));
        assert_eq!(net.rpc(0, 1, 1, 1), Err(RpcError::Partitioned));
        net.heal_all();
        assert!(net.can_reach(0, 1));
    }

    #[test]
    fn fail_fraction_respects_protection() {
        let mut net = lan(100, 5);
        let downed = net.fail_fraction(0.3, &[0, 1, 2]);
        assert_eq!(downed.len(), 30);
        assert!(net.is_online(0) && net.is_online(1) && net.is_online(2));
        assert_eq!(net.peers.iter().filter(|p| p.online).count(), 70);
    }

    #[test]
    fn drop_probability_drops_messages() {
        let mut cfg = NetConfig::lan();
        cfg.drop_probability = 1.0;
        let mut net = SimNet::new(3, cfg, 6);
        assert_eq!(net.rpc(0, 1, 1, 1), Err(RpcError::Dropped));
        assert_eq!(net.stats().dropped_messages, 1);
    }

    #[test]
    fn transfer_time_scales_with_bytes() {
        let net = lan(2, 7);
        let small = net.transfer_time(1_000);
        let large = net.transfer_time(1_000_000);
        assert!(large > small);
        assert_eq!(net.transfer_time(0), SimDuration::ZERO);
    }

    #[test]
    fn clock_advances() {
        let mut net = lan(2, 8);
        assert_eq!(net.now().as_micros(), 0);
        net.advance(SimDuration::from_secs(5));
        assert_eq!(net.now().as_micros(), 5_000_000);
    }

    #[test]
    fn zoned_config_and_zone_lookup() {
        let net = SimNet::new(8, NetConfig::zoned(4, 2_000, 60_000), 11);
        let zones: Vec<usize> = net.peers.iter().map(|p| p.zone).collect();
        assert_eq!(zones, [0, 1, 2, 3, 0, 1, 2, 3]);
        // Same-zone RPCs are cheaper than cross-zone ones on average.
        let mut net = net;
        let intra: u64 = (0..40)
            .map(|_| net.rpc(0, 4, 16, 16).unwrap().as_micros())
            .sum();
        let inter: u64 = (0..40)
            .map(|_| net.rpc(0, 5, 16, 16).unwrap().as_micros())
            .sum();
        assert!(intra < inter, "intra={intra} inter={inter}");
    }

    #[test]
    fn peer_up_down_events_are_counted_once_per_transition() {
        let mut net = lan(4, 12);
        net.set_online(1, false);
        net.set_online(1, false); // no transition, no event
        assert_eq!(net.stats().peer_down_events, 1);
        assert_eq!(net.stats().peer_up_events, 0);
        net.set_online(1, true);
        assert_eq!(net.stats().peer_up_events, 1);
        net.set_online(2, false);
        net.set_online(3, false);
        net.heal_all();
        assert_eq!(net.stats().peer_up_events, 3);
        assert_eq!(net.stats().peer_down_events, 3);
    }

    #[test]
    fn send_async_completes_at_the_service_latency() {
        let mut net = lan(4, 21);
        let h = net
            .send_async_at(0, 1, 100, 200, net.now(), None)
            .expect("online peers");
        assert_eq!(net.async_in_flight(), 1);
        assert_eq!(net.stats().rpcs, 1, "accounting happens at issue time");
        assert_eq!(net.stats().bytes, 300);
        let due = net.async_completes_at(h).expect("in flight");
        assert!(due > net.now());
        // Polling before completion reports when it is due.
        match net.poll_complete(h, net.now()) {
            Some(Poll::Pending { completes_at }) => assert_eq!(completes_at, due),
            other => panic!("expected pending, got {other:?}"),
        }
        // Polling at (or past) completion retires the handle.
        match net.poll_complete(h, due) {
            Some(Poll::Ready(done)) => {
                assert_eq!(done.completed_at, due);
                assert_eq!(done.queue_delay, SimDuration::ZERO);
                assert_eq!(done.latency, due.since(SimInstant::ZERO));
            }
            other => panic!("expected ready, got {other:?}"),
        }
        assert_eq!(net.async_in_flight(), 0);
        assert!(net.poll_complete(h, due).is_none(), "handle retired");
        assert_eq!(net.stats().async_ops, 1);
        assert_eq!(net.stats().async_queued_ops, 0);
    }

    #[test]
    fn send_async_fails_like_rpc() {
        // Every way `rpc` can fail, beyond the offline destination of
        // `send_async_at_fails_like_rpc`: nothing is tracked, and only a
        // failure the caller could not foresee counts as a failed RPC.
        let mut net = lan(4, 22);
        let at = net.now();
        net.set_online(0, false);
        assert_eq!(
            net.send_async_at(0, 2, 1, 1, at, None),
            Err(RpcError::SelfOffline)
        );
        assert_eq!(net.stats().failed_rpcs, 0);
        net.set_partition(2, 1);
        assert_eq!(
            net.send_async_at(1, 2, 1, 1, at, None),
            Err(RpcError::Partitioned)
        );
        assert_eq!(net.stats().failed_rpcs, 1);
        assert_eq!(net.async_in_flight(), 0);
        assert_eq!(net.stats().async_ops, 0);
    }

    #[test]
    fn link_capacity_queues_excess_operations() {
        let mut cfg = NetConfig::lan();
        cfg.max_in_flight_per_link = 2;
        let mut net = SimNet::new(3, cfg, 23);
        let t0 = net.now();
        let handles: Vec<RpcHandle> = (0..4)
            .map(|_| net.send_async_at(0, 1, 64, 64, t0, None).unwrap())
            .collect();
        let completions: Vec<SimInstant> = handles
            .iter()
            .map(|&h| net.async_completes_at(h).unwrap())
            .collect();
        // The first two start immediately; the third starts when the
        // earliest completes, the fourth when the second completes.
        assert!(completions[2] > completions[0]);
        assert!(completions[3] > completions[1]);
        assert_eq!(net.stats().async_queued_ops, 2);
        assert!(net.stats().async_queue_delay_us > 0);
        // Retiring the queued operations reports their queueing delay.
        let far = t0 + SimDuration::from_secs(60);
        let mut total_queue = SimDuration::ZERO;
        for h in handles {
            match net.poll_complete(h, far) {
                Some(Poll::Ready(done)) => total_queue += done.queue_delay,
                other => panic!("expected ready, got {other:?}"),
            }
        }
        assert_eq!(total_queue.as_micros(), net.stats().async_queue_delay_us);
        assert!(
            net.link_completions.iter().all(Vec::is_empty),
            "no uplink holds a completion"
        );
    }

    #[test]
    fn begin_async_op_tracks_compound_operations_per_source_peer() {
        let mut cfg = NetConfig::lan();
        cfg.max_in_flight_per_link = 1;
        let mut net = SimNet::new(3, cfg, 24);
        let at = net.now() + SimDuration::from_millis(5);
        let a = net.begin_async_op(0, at, SimDuration::from_millis(10), None);
        let b = net.begin_async_op(0, at, SimDuration::from_millis(10), None);
        // Different source peer: its own capacity, no queueing.
        let c = net.begin_async_op(1, at, SimDuration::from_millis(10), None);
        let done_a = net.async_completes_at(a).unwrap();
        let done_b = net.async_completes_at(b).unwrap();
        let done_c = net.async_completes_at(c).unwrap();
        assert_eq!(done_a, at + SimDuration::from_millis(10));
        assert_eq!(done_b, done_a + SimDuration::from_millis(10), "queued");
        assert_eq!(done_c, at + SimDuration::from_millis(10));
        // Messages/bytes are NOT double charged: the wrapped operation
        // already paid for them synchronously.
        assert_eq!(net.stats().messages, 0);
        assert_eq!(net.stats().async_ops, 3);
    }

    #[test]
    fn send_async_at_issues_on_a_virtual_instant() {
        let mut net = lan(4, 25);
        let at = net.now() + SimDuration::from_millis(7);
        let h = net.send_async_at(0, 1, 100, 200, at, None).expect("online");
        // Accounting happens at issue time, like the synchronous path.
        assert_eq!(net.stats().rpcs, 1);
        assert_eq!(net.stats().messages, 2);
        assert_eq!(net.stats().bytes, 300);
        let due = net.async_completes_at(h).expect("in flight");
        assert!(due > at, "service time elapses after the virtual instant");
        match net.poll_complete(h, due) {
            Some(Poll::Ready(done)) => {
                assert_eq!(done.completed_at, due);
                assert_eq!(done.queue_delay, SimDuration::ZERO);
            }
            other => panic!("expected ready, got {other:?}"),
        }
    }

    #[test]
    fn send_async_at_fails_like_rpc() {
        let mut net = lan(4, 26);
        net.set_online(2, false);
        let at = net.now();
        assert_eq!(
            net.send_async_at(0, 2, 1, 1, at, None),
            Err(RpcError::PeerOffline)
        );
        assert_eq!(net.async_in_flight(), 0);
        assert_eq!(net.stats().failed_rpcs, 1);
    }

    #[test]
    fn send_async_at_contends_on_the_source_uplink() {
        let mut cfg = NetConfig::lan();
        cfg.max_in_flight_per_link = 1;
        let mut net = SimNet::new(4, cfg, 27);
        let at = net.now();
        // Two hops from the same source to *different* destinations still
        // share the source uplink: the second queues behind the first.
        let a = net.send_async_at(0, 1, 64, 64, at, None).unwrap();
        let b = net.send_async_at(0, 2, 64, 64, at, None).unwrap();
        // A different source has its own uplink — no queueing.
        let c = net.send_async_at(3, 1, 64, 64, at, None).unwrap();
        let done_a = net.async_completes_at(a).unwrap();
        let done_b = net.async_completes_at(b).unwrap();
        let done_c = net.async_completes_at(c).unwrap();
        assert!(done_b > done_a, "second op queues behind the first");
        assert!(done_c.since(at) < done_b.since(at));
        assert_eq!(net.stats().async_queued_ops, 1);
        let far = at + SimDuration::from_secs(60);
        for h in [a, b, c] {
            net.poll_complete(h, far);
        }
    }

    /// The uplink tracker as it was keyed by a `HashMap` of per-link lists
    /// that a link dropped when it went idle, each entry tagged with its
    /// handle: the reference the per-peer tracker must reproduce handle for
    /// handle.
    #[derive(Default)]
    struct ReferenceTracker {
        in_flight: HashMap<u64, InFlightOp>,
        links: HashMap<u64, Vec<(SimInstant, u64)>>,
        next_handle: u64,
        async_ops: u64,
        async_queued_ops: u64,
        async_queue_delay_us: u64,
    }

    impl ReferenceTracker {
        fn enqueue(&mut self, capacity: usize, from: u64, at: SimInstant, latency: SimDuration) {
            self.next_handle += 1;
            let completions = self.links.entry(from).or_default();
            completions.retain(|&(c, _)| c > at);
            completions.sort_unstable();
            let started_at = if completions.len() >= capacity {
                completions[completions.len() - capacity].0
            } else {
                at
            };
            let queue_delay = started_at.since(at);
            let completes_at = started_at + latency;
            completions.push((completes_at, self.next_handle));
            self.async_ops += 1;
            if queue_delay > SimDuration::ZERO {
                self.async_queued_ops += 1;
                self.async_queue_delay_us += queue_delay.as_micros();
            }
            let op = InFlightOp {
                from,
                latency,
                queue_delay,
                completes_at,
            };
            self.in_flight.insert(self.next_handle, op);
        }

        fn poll(&mut self, handle: u64, at: SimInstant) -> Option<Poll> {
            let op = *self.in_flight.get(&handle)?;
            if at < op.completes_at {
                return Some(Poll::Pending {
                    completes_at: op.completes_at,
                });
            }
            self.in_flight.remove(&handle);
            if let Some(completions) = self.links.get_mut(&op.from) {
                if let Some(pos) = completions.iter().position(|&(_, h)| h == handle) {
                    completions.swap_remove(pos);
                }
                if completions.is_empty() {
                    self.links.remove(&op.from);
                }
            }
            Some(Poll::Ready(AsyncCompletion {
                completed_at: op.completes_at,
                latency: op.latency,
                queue_delay: op.queue_delay,
            }))
        }
    }

    proptest::proptest! {
        #[test]
        fn the_uplink_tracker_matches_the_map_keyed_reference(
            ops in proptest::collection::vec((0u8..4, proptest::prelude::any::<u64>(), 0u64..40), 1..120),
            sources in 1u64..5,
            capacity in 1usize..4,
        ) {
            // Latencies of 1–20 µs on a 40 µs grid of instants, so completion
            // instants collide and a release by value meets its namesakes.
            let config = NetConfig {
                latency: LatencyModel::Uniform { lo_micros: 1, hi_micros: 10 },
                max_in_flight_per_link: capacity,
                ..NetConfig::lan()
            };
            let mut net = SimNet::new(4, config.clone(), 31);
            // A twin network samples the same service latencies through
            // the synchronous `rpc`, which never touches the tracker.
            let mut twin = SimNet::new(4, config, 31);
            let mut reference = ReferenceTracker::default();
            for (kind, a, offset) in ops {
                let from = a % sources;
                let at = net.now() + SimDuration::from_micros(offset);
                let handle = 1 + (a >> 8) % (reference.next_handle + 1);
                match kind {
                    0 => {
                        let to = (a >> 4) % 4;
                        let got = net.send_async_at(from, to, 16, 16, at, None).unwrap();
                        let service = twin.rpc(from, to, 16, 16).unwrap();
                        reference.enqueue(capacity, from, at, service);
                        proptest::prop_assert_eq!(got, RpcHandle(reference.next_handle));
                    }
                    1 => {
                        let latency = SimDuration::from_micros(1 + (a >> 4) % 20);
                        let got = net.begin_async_op(from, at, latency, None);
                        reference.enqueue(capacity, from, at, latency);
                        proptest::prop_assert_eq!(got, RpcHandle(reference.next_handle));
                    }
                    2 => proptest::prop_assert_eq!(
                        net.poll_complete(RpcHandle(handle), at),
                        reference.poll(handle, at)
                    ),
                    _ => {
                        net.advance(SimDuration::from_micros(offset / 4));
                        twin.advance(SimDuration::from_micros(offset / 4));
                    }
                }
                for (&handle, op) in &reference.in_flight {
                    proptest::prop_assert_eq!(
                        net.async_completes_at(RpcHandle(handle)),
                        Some(op.completes_at)
                    );
                }
                proptest::prop_assert_eq!(net.async_in_flight(), reference.in_flight.len());
                let expected = NetStats {
                    async_ops: reference.async_ops,
                    async_queued_ops: reference.async_queued_ops,
                    async_queue_delay_us: reference.async_queue_delay_us,
                    ..twin.stats().clone()
                };
                proptest::prop_assert_eq!(net.stats(), &expected);
            }
        }
    }

    /// A release frees only its own uplink entry: once an issue at a later
    /// instant has pruned `a`'s entry, retiring `a` leaves `y`'s — a live
    /// operation completing at the same instant — in place, and `z` queues
    /// behind `y`. Freed by completion instant instead, `y`'s entry went and
    /// `z` started at once.
    #[test]
    fn retiring_a_pruned_operation_frees_no_live_slot() {
        let mut cfg = NetConfig::lan();
        cfg.max_in_flight_per_link = 2;
        let mut net = SimNet::new(2, cfg, 32);
        let us = |n: u64| SimInstant::ZERO + SimDuration::from_micros(n);
        let a = net.begin_async_op(0, us(0), SimDuration::from_micros(10), None);
        // `b`'s issue at 20 µs prunes `a`'s entry (due at 10 µs).
        net.begin_async_op(0, us(20), SimDuration::from_micros(5), None);
        let y = net.begin_async_op(0, us(0), SimDuration::from_micros(10), None);
        assert_eq!(net.async_completes_at(y), net.async_completes_at(a));
        assert!(matches!(net.poll_complete(a, us(10)), Some(Poll::Ready(_))));
        // `y` (due at 10 µs) and `b` (due at 25 µs) still hold both slots.
        let z = net.begin_async_op(0, us(5), SimDuration::from_micros(10), None);
        assert_eq!(net.async_completes_at(z), Some(us(20)));
    }

    #[test]
    fn send_async_at_is_deterministic() {
        let run = |seed: u64| {
            let mut net = SimNet::new(6, NetConfig::default(), seed);
            let at = net.now();
            (0..12u64)
                .map(|i| {
                    let h = net
                        .send_async_at(i % 6, (i + 1) % 6, 64, 64, at, None)
                        .unwrap();
                    net.async_completes_at(h).unwrap().as_micros()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn async_issue_is_deterministic() {
        // Both issuers on shared uplinks, at staggered virtual instants and
        // under a limit tight enough that the later ones queue.
        let run = |seed: u64| {
            let cfg = NetConfig {
                max_in_flight_per_link: 2,
                ..NetConfig::default()
            };
            let mut net = SimNet::new(6, cfg, seed);
            (0..12u64)
                .map(|i| {
                    let at = net.now() + SimDuration::from_millis(i / 4);
                    let h = if i % 3 == 2 {
                        net.begin_async_op(i % 2, at, SimDuration::from_millis(9), None)
                    } else {
                        net.send_async_at(i % 2, 2 + i % 4, 64, 64, at, None)
                            .unwrap()
                    };
                    net.async_completes_at(h).unwrap().as_micros()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = |seed: u64| {
            let mut net = SimNet::new(10, NetConfig::default(), seed);
            (0..20)
                .map(|i| net.rpc(i % 10, (i + 3) % 10, 64, 64).unwrap().as_micros())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    /// Drive a representative mix of traffic and return (stats, latencies).
    fn traffic_mix(tracing: bool) -> (NetStats, Vec<u64>) {
        let mut net = SimNet::new(8, NetConfig::default(), 77);
        net.set_tracing(tracing);
        let mut lats = Vec::new();
        for i in 0..6u64 {
            lats.push(net.rpc(i % 8, (i + 1) % 8, 256, 512).unwrap().as_micros());
            lats.push(net.send(i % 8, (i + 3) % 8, 128).unwrap().as_micros());
        }
        let handles: Vec<_> = (0..12)
            .map(|i| {
                net.send_async_at(0, 1 + (i % 3), 64, 64, net.now(), None)
                    .unwrap()
            })
            .collect();
        for h in handles {
            let at = net.async_completes_at(h).unwrap();
            lats.push(at.as_micros());
            net.poll_complete(h, at);
        }
        (net.stats().clone(), lats)
    }

    #[test]
    fn tracing_never_touches_netstats_or_latencies() {
        // Observation is free, traffic is not: the full cost model —
        // stats and every sampled latency — is byte-identical whether the
        // tracer is recording or not.
        let (stats_off, lats_off) = traffic_mix(false);
        let (stats_on, lats_on) = traffic_mix(true);
        assert_eq!(stats_off, stats_on);
        assert_eq!(lats_off, lats_on);
    }

    #[test]
    fn disabled_tracer_records_no_spans() {
        let mut net = SimNet::new(4, NetConfig::default(), 5);
        net.rpc(0, 1, 64, 64).unwrap();
        net.send(1, 2, 64).unwrap();
        net.send_async_at(2, 3, 64, 64, net.now(), None).unwrap();
        assert!(net.take_trace().is_empty());
    }

    #[test]
    fn traced_traffic_yields_link_attributed_spans() {
        let mut net = SimNet::new(4, NetConfig::default(), 5);
        net.set_tracing(true);
        net.rpc(0, 1, 64, 64).unwrap();
        net.send(1, 2, 64).unwrap();
        // Saturate peer 3's uplink so a queue span appears.
        for _ in 0..(net.config().max_in_flight_per_link + 1) {
            net.send_async_at(3, 2, 64, 64, net.now(), None).unwrap();
        }
        let trace = net.take_trace();
        let rpc = trace.named("rpc").next().expect("rpc span");
        assert_eq!(rpc.detail, "0->1");
        assert_eq!(trace.named("send").next().unwrap().detail, "1->2");
        assert!(trace.named("net.deliver").count() >= 1);
        let queue = trace.named("net.queue").next().expect("queue span");
        assert_eq!(queue.detail, "3->*");
        // Two identically seeded runs serialize identically.
        let rerun = |_: ()| {
            let mut net = SimNet::new(4, NetConfig::default(), 5);
            net.set_tracing(true);
            net.rpc(0, 1, 64, 64).unwrap();
            qb_trace::to_json(&net.take_trace())
        };
        assert_eq!(rerun(()), rerun(()));
    }
}

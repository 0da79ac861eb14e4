//! The DHT overlay: bootstrap, iterative lookups, record and provider
//! operations, all executed over the simulated network.

use crate::node::{DhtNode, Record};
use crate::DhtConfig;
use qb_common::{DhtKey, Distance, Hash256, NodeId, QbError, QbResult, SimDuration, SimInstant};
use qb_simnet::{Poll, RpcError, RpcHandle, SimNet};
use std::sync::Arc;

/// Result of an iterative lookup.
#[derive(Debug, Clone)]
pub struct LookupOutcome {
    /// Deepest hop generation reached (a follow-up issued on the completion
    /// of a generation-`g` hop is generation `g + 1`).
    pub hops: usize,
    /// RPC attempts issued (successful or not).
    pub messages: u64,
    /// End-to-end latency charged to the caller.
    pub latency: SimDuration,
    /// Portion of the latency spent queueing on the requester's uplink
    /// (non-zero only when concurrent operations contend for the link).
    pub queue_delay: SimDuration,
}

/// Result of storing a record.
#[derive(Debug, Clone)]
pub struct PutOutcome {
    /// How many replicas accepted the record.
    pub replicas: usize,
    /// End-to-end latency (lookup + parallel store round).
    pub latency: SimDuration,
    /// RPC attempts issued.
    pub messages: u64,
}

/// Result of retrieving a record.
#[derive(Debug, Clone)]
pub struct GetOutcome {
    /// The record found.
    pub record: Record,
    /// Number of iterative rounds before the value was located.
    pub hops: usize,
    /// RPC attempts issued.
    pub messages: u64,
    /// End-to-end latency charged to the caller.
    pub latency: SimDuration,
}

/// All DHT participants plus the overlay-level operations.
///
/// Node `i` of the overlay corresponds to peer `i` of the [`SimNet`] passed
/// to every operation, so liveness and partitions automatically apply.
#[derive(Debug)]
pub struct DhtNetwork {
    pub(crate) config: DhtConfig,
    pub(crate) nodes: Vec<DhtNode>,
    /// Machines finished walks handed back, each with its box and lists,
    /// for the next walk to run in (the `lookup` module's "Buffers"): never
    /// more than the most walks once in flight at once.
    pub(crate) spare_walks: Vec<crate::LookupMachine>,
    /// The `FIND_NODE` reply a walk is merging: the replier's `k` closest
    /// contacts, each beside its distance to the target.
    pub(crate) replies: Vec<(Distance, NodeId)>,
    /// A store round's RPCs, in issue order, while it waits for them.
    pending: Vec<(Option<RpcHandle>, SimInstant)>,
    /// The `k` closest peers the last walk under a store round or a
    /// provider search found, nearest first; once the store round has run
    /// on them, the ones that accepted, in issue order. A walk driven
    /// through [`DhtNetwork::lookup_begin`] leaves it as it is.
    pub(crate) found: Vec<NodeId>,
}

impl DhtNetwork {
    /// Create a DHT with one participant per simulated peer and bootstrap the
    /// routing tables (each node joins through a random existing node and
    /// then looks up its own identifier, exactly like a real Kademlia join).
    pub fn build(net: &mut SimNet, config: DhtConfig) -> DhtNetwork {
        let n = net.len();
        let nodes: Vec<DhtNode> = (0..n as u64)
            .map(|i| DhtNode::new(NodeId::from_index(i), &config))
            .collect();
        let mut dht = DhtNetwork {
            config,
            nodes,
            spare_walks: Vec::new(),
            replies: Vec::new(),
            pending: Vec::new(),
            found: Vec::new(),
        };
        dht.bootstrap(net);
        dht
    }

    /// Overlay configuration.
    pub fn config(&self) -> &DhtConfig {
        &self.config
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the overlay has no participants.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Access a node's local state.
    pub fn node(&self, index: u64) -> &DhtNode {
        &self.nodes[index as usize]
    }

    /// Ground-truth closest online nodes to a key (bypasses routing tables),
    /// nearest first, into `out` (cleared first): the storage layer picks an
    /// object's replicas with it, and tests validate lookups against it.
    pub fn closest_online_global(
        &mut self,
        net: &SimNet,
        key: &Hash256,
        count: usize,
        out: &mut Vec<NodeId>,
    ) {
        let online = self.nodes.iter().map(|n| n.id);
        let online = online.filter(|id| net.is_online(id.index));
        let nearest = &mut self.replies;
        nearest.clear();
        crate::routing::keep_nearest(nearest, online, key, count);
        out.clear();
        out.extend(nearest.iter().map(|&(_, id)| id));
    }

    /// Every copy of the record under `key` that some node holds: ground
    /// truth across the overlay, read host-side with no message sent. The
    /// storage collector asks it which objects a pointer key still names.
    pub fn records_under<'a>(&'a self, key: &'a DhtKey) -> impl Iterator<Item = &'a Record> {
        self.nodes
            .iter()
            .filter_map(move |node| node.find_value(key))
    }

    /// Drop the provider records of `key` on every node, host-side with no
    /// message sent: the content they announced is pinned nowhere any more.
    pub fn forget_providers(&mut self, key: &DhtKey) {
        for node in &mut self.nodes {
            node.remove_providers(key);
        }
    }

    fn bootstrap(&mut self, net: &mut SimNet) {
        let n = self.nodes.len();
        if n <= 1 {
            return;
        }
        for i in 1..n as u64 {
            // Contact a random already-joined node.
            let peer = net.rng().gen_range(i);
            let peer_id = self.nodes[peer as usize].id;
            self.nodes[i as usize].routing.observe(peer_id, true);
            let self_id = self.nodes[i as usize].id;
            self.nodes[peer as usize].routing.observe(self_id, true);
            // Self-lookup wires the new node into the right buckets along the path.
            let target = self.nodes[i as usize].id.key;
            let _ = self.iterative_find(net, i, target, None, 0);
        }
        // A second pass of random lookups tightens routing tables for small n.
        for i in 0..n as u64 {
            let random_target = Hash256::digest_parts(&[b"refresh:", &i.to_be_bytes()]);
            let _ = self.iterative_find(net, i, random_target, None, 0);
        }
    }

    /// Iterative Kademlia lookup, run to completion on its own timeline
    /// anchored at the current clock (event-driven callers use
    /// [`DhtNetwork::lookup_begin`] / [`DhtNetwork::lookup_poll`] directly
    /// — this is the same state machine, driven eagerly). When `want_value`
    /// is set the lookup stops as soon as a queried node returns the record
    /// with a version of at least `min_version`; replicas below that are
    /// remembered (best version wins) but the lookup keeps digging, so a
    /// reader that knows a newer version exists is never satisfied by a
    /// lagging replica it happens to meet first — including its own local
    /// store.
    fn iterative_find(
        &mut self,
        net: &mut SimNet,
        from: u64,
        target: Hash256,
        want_value: Option<DhtKey>,
        min_version: u64,
    ) -> (LookupOutcome, Option<Record>) {
        let at = net.now();
        let machine = self.lookup_begin(net, from, target, want_value, min_version, at, None);
        self.lookup_drive(net, machine)
    }

    /// Fan out one store RPC per member of `targets` at virtual instant
    /// `at`, wait for all of them, and apply `apply` to each target whose
    /// RPC succeeded, in issue order; `targets` keeps the ones that
    /// accepted, in that order. Returns the instant the slowest attempt
    /// finished (failures cost the configured timeout) and the number of
    /// attempts.
    fn fan_out_round(
        &mut self,
        net: &mut SimNet,
        from: u64,
        targets: &mut Vec<NodeId>,
        request_bytes: usize,
        at: SimInstant,
        mut apply: impl FnMut(&mut DhtNode) -> bool,
    ) -> (SimInstant, u64) {
        let mut pending = std::mem::take(&mut self.pending);
        for target in targets.iter() {
            match net.send_async_at(from, target.index, request_bytes, 16, at, None) {
                Ok(handle) => {
                    let completes_at = net.async_completes_at(handle).expect("just issued");
                    pending.push((Some(handle), completes_at));
                }
                Err(RpcError::SelfOffline) => pending.push((None, at)),
                Err(_) => pending.push((None, at + net.config().timeout)),
            }
        }
        let messages = targets.len() as u64;
        let mut end = at;
        // `retain` visits the targets once each in order, so the n-th visit
        // is the n-th RPC issued.
        let mut round = pending.drain(..);
        targets.retain(|target| {
            let Some((handle, completes_at)) = round.next() else {
                return false;
            };
            end = end.max(completes_at);
            let ok = handle.is_some_and(|handle| {
                let done = net.poll_complete(handle, completes_at);
                matches!(done, Some(Poll::Ready(_)))
            });
            ok && apply(&mut self.nodes[target.index as usize])
        });
        drop(round);
        self.pending = pending;
        (end, messages)
    }

    /// Locate the `k` closest nodes to `target`.
    fn lookup_nodes(
        &mut self,
        net: &mut SimNet,
        from: u64,
        target: Hash256,
    ) -> QbResult<LookupOutcome> {
        if !net.is_online(from) {
            return Err(QbError::NodeOffline(from));
        }
        let at = net.now();
        let mut machine = self.lookup_begin(net, from, target, None, 0, at, None);
        machine.walk.keeps_closest = true;
        let (outcome, _) = self.lookup_drive(net, machine);
        if self.found.is_empty() {
            return Err(QbError::DhtLookupFailed(target.short()));
        }
        Ok(outcome)
    }

    /// One replica round: look up the `k` closest nodes to `key`, send each
    /// a store request once the lookup has finished and `apply` the item on
    /// every replica whose RPC succeeded — and on the origin, which always
    /// keeps its own copy (it can serve it while online). A round nobody
    /// accepted fails, naming what was `refused`.
    #[allow(clippy::too_many_arguments)]
    fn replicate<T: Clone>(
        &mut self,
        net: &mut SimNet,
        from: u64,
        key: DhtKey,
        request_bytes: usize,
        item: T,
        apply: impl Fn(&mut DhtNode, T) -> bool,
        refused: &str,
    ) -> QbResult<PutOutcome> {
        let t0 = net.now();
        let lookup = self.lookup_nodes(net, from, key.0)?;
        // The walk's `found` holds at most `k` contacts: the replicas, and
        // then the ones that stored the item.
        let mut stored_on = std::mem::take(&mut self.found);
        let at = t0 + lookup.latency;
        let (end, round_messages) =
            self.fan_out_round(net, from, &mut stored_on, request_bytes, at, |node| {
                apply(node, item.clone())
            });
        apply(&mut self.nodes[from as usize], item);
        let replicas = stored_on.len();
        self.found = stored_on;
        if replicas == 0 {
            let key = key.to_hex();
            return Err(QbError::DhtLookupFailed(format!("{refused} {key}")));
        }
        Ok(PutOutcome {
            replicas,
            latency: end.since(t0),
            messages: lookup.messages + round_messages,
        })
    }

    /// Store a record on the `k` closest nodes to its key. The value enters
    /// one shared buffer; each replica's copy is a handle onto it.
    pub fn put_record(
        &mut self,
        net: &mut SimNet,
        from: u64,
        key: DhtKey,
        value: impl Into<Arc<[u8]>>,
        version: u64,
    ) -> QbResult<PutOutcome> {
        let value: Arc<[u8]> = value.into();
        let bytes = crate::REQUEST_BYTES + value.len();
        let record = Record {
            key,
            value,
            version,
        };
        let refused = "no replica accepted record";
        self.replicate(net, from, key, bytes, record, DhtNode::store, refused)
    }

    /// Retrieve a record by key.
    pub fn get_record(&mut self, net: &mut SimNet, from: u64, key: DhtKey) -> QbResult<GetOutcome> {
        self.get_record_fresh(net, from, key, 0)
    }

    /// Like [`DhtNetwork::get_record`], but the lookup is only satisfied by
    /// a replica of version at least `min_version`: lagging replicas (the
    /// caller's own local store included) are skipped and the lookup digs
    /// further, falling back to the freshest replica found only when nothing
    /// newer is reachable. Callers that track versions externally (the
    /// engine's monotonic per-term shard counters) use this to never read
    /// back a shard older than one they have already seen.
    pub fn get_record_fresh(
        &mut self,
        net: &mut SimNet,
        from: u64,
        key: DhtKey,
        min_version: u64,
    ) -> QbResult<GetOutcome> {
        if !net.is_online(from) {
            return Err(QbError::NodeOffline(from));
        }
        let (outcome, value) = self.iterative_find(net, from, key.0, Some(key), min_version);
        match value {
            Some(record) => Ok(GetOutcome {
                record,
                hops: outcome.hops,
                messages: outcome.messages,
                latency: outcome.latency,
            }),
            None => Err(QbError::DhtLookupFailed(key.to_hex())),
        }
    }

    /// Announce that `from` can provide the content addressed by `key`.
    pub fn add_provider(
        &mut self,
        net: &mut SimNet,
        from: u64,
        key: DhtKey,
    ) -> QbResult<PutOutcome> {
        let provider = self.nodes[from as usize].id;
        let announce = |node: &mut DhtNode, provider| {
            node.add_provider(key, provider);
            true
        };
        let refused = "no node accepted provider record";
        self.replicate(
            net,
            from,
            key,
            crate::REQUEST_BYTES,
            provider,
            announce,
            refused,
        )
    }

    /// Find providers for `key`. Returns the provider list, the latency and
    /// the RPC attempts.
    pub fn get_providers(
        &mut self,
        net: &mut SimNet,
        from: u64,
        key: DhtKey,
    ) -> QbResult<(Vec<NodeId>, SimDuration, u64)> {
        if !net.is_online(from) {
            return Err(QbError::NodeOffline(from));
        }
        // Providers known locally are free — once they name some peer other
        // than the asker, who cannot fetch from itself.
        let remote = |providers: &[NodeId]| providers.iter().any(|p| p.index != from);
        let nodes = &self.nodes;
        let local = nodes[from as usize].get_providers(&key);
        if local.iter().any(|&p| u64::from(p) != from) {
            let ids = local.iter().map(|&p| nodes[p as usize].id).collect();
            return Ok((ids, SimDuration::ZERO, 0));
        }
        let lookup = self.lookup_nodes(net, from, key.0)?;
        let mut providers: Vec<NodeId> = Vec::new();
        // The asks go out in parallel: the slowest one is what they cost.
        let mut slowest = SimDuration::ZERO;
        let mut messages = lookup.messages;
        for target in self.found.iter().take(self.config.k) {
            messages += 1;
            let (res, lat) = net.rpc_or_timeout(from, target.index, crate::REQUEST_BYTES, 256);
            slowest = slowest.max(lat);
            if res.is_ok() {
                for &p in self.nodes[target.index as usize].get_providers(&key) {
                    if !providers.iter().any(|e| e.index == u64::from(p)) {
                        providers.push(self.nodes[p as usize].id);
                    }
                }
                if remote(&providers) {
                    break;
                }
            }
        }
        if providers.is_empty() {
            return Err(QbError::NotFound(format!("providers for {}", key.to_hex())));
        }
        Ok((providers, lookup.latency + slowest, messages))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_simnet::{NetConfig, SimNet};

    fn setup(n: usize, seed: u64) -> (SimNet, DhtNetwork) {
        let mut net = SimNet::new(n, NetConfig::lan(), seed);
        let dht = DhtNetwork::build(&mut net, DhtConfig::small());
        (net, dht)
    }

    #[test]
    fn bootstrap_populates_routing_tables() {
        let (_net, dht) = setup(32, 1);
        for i in 0..32u64 {
            assert!(
                !dht.node(i).routing.is_empty(),
                "node {i} has an empty routing table"
            );
        }
    }

    #[test]
    fn lookup_finds_globally_closest_nodes() {
        let (mut net, mut dht) = setup(64, 2);
        let target = Hash256::digest(b"some target key");
        let outcome = dht.lookup_nodes(&mut net, 5, target).unwrap();
        let found = dht.found.clone();
        assert!(!found.is_empty());
        let mut truth = Vec::new();
        dht.closest_online_global(&net, &target, 1, &mut truth);
        // The nearest node found must be the true global nearest.
        assert_eq!(found[0].index, truth[0].index);
        assert!(outcome.messages > 0);
        assert!(outcome.latency.as_micros() > 0);
    }

    #[test]
    fn put_then_get_round_trips() {
        let (mut net, mut dht) = setup(48, 3);
        let key = DhtKey::for_term("decentralized");
        let put = dht
            .put_record(&mut net, 7, key, b"posting-list-pointer".to_vec(), 1)
            .unwrap();
        assert!(put.replicas > 0);
        assert_eq!(put.replicas, dht.found.len());
        let got = dht.get_record(&mut net, 33, key).unwrap();
        assert_eq!(&got.record.value[..], b"posting-list-pointer");
        assert_eq!(got.record.version, 1);
    }

    #[test]
    fn get_missing_key_fails() {
        let (mut net, mut dht) = setup(16, 4);
        let err = dht
            .get_record(&mut net, 0, DhtKey::for_term("nonexistent"))
            .unwrap_err();
        assert!(matches!(err, QbError::DhtLookupFailed(_)));
    }

    #[test]
    fn newer_version_wins_on_update() {
        let (mut net, mut dht) = setup(32, 5);
        let key = DhtKey::from_bytes(b"example.dweb");
        dht.put_record(&mut net, 1, key, b"v1".to_vec(), 1).unwrap();
        dht.put_record(&mut net, 2, key, b"v2".to_vec(), 2).unwrap();
        let got = dht.get_record(&mut net, 20, key).unwrap();
        assert_eq!(&got.record.value[..], b"v2");
    }

    #[test]
    fn records_survive_replica_failures() {
        let (mut net, mut dht) = setup(64, 6);
        let key = DhtKey::for_term("resilience");
        let put = dht
            .put_record(&mut net, 0, key, b"survives".to_vec(), 1)
            .unwrap();
        // Kill half of the replicas that accepted the record.
        let kill = put.replicas / 2;
        for r in dht.found.iter().take(kill) {
            net.set_online(r.index, false);
        }
        let got = dht.get_record(&mut net, 40, key).unwrap();
        assert_eq!(&got.record.value[..], b"survives");
    }

    #[test]
    fn providers_can_be_announced_and_found() {
        let (mut net, mut dht) = setup(48, 7);
        let key = DhtKey::from_bytes(b"some content cid");
        dht.add_provider(&mut net, 11, key).unwrap();
        let (providers, _lat, _msgs) = dht.get_providers(&mut net, 30, key).unwrap();
        assert!(providers.iter().any(|p| p.index == 11));
    }

    #[test]
    fn offline_requester_is_rejected() {
        let (mut net, mut dht) = setup(16, 8);
        net.set_online(3, false);
        assert!(matches!(
            dht.lookup_nodes(&mut net, 3, Hash256::digest(b"t")),
            Err(QbError::NodeOffline(3))
        ));
    }

    #[test]
    fn hops_scale_logarithmically() {
        // Not a strict asymptotic test, just: hops stay small as n grows.
        let (mut net, mut dht) = setup(128, 10);
        let target = Hash256::digest(b"scaling probe");
        let outcome = dht.lookup_nodes(&mut net, 0, target).unwrap();
        assert!(outcome.hops <= 10, "hops = {}", outcome.hops);
    }

    #[test]
    fn traced_lookup_records_one_hop_span_per_rpc() {
        let (mut net, mut dht) = setup(64, 11);
        net.take_trace(); // drop bootstrap-era spans (tracing was off anyway)
        net.set_tracing(true);
        let target = Hash256::digest(b"observed lookup");
        let outcome = dht.lookup_nodes(&mut net, 9, target).unwrap();
        let trace = net.take_trace();
        let lookup = trace.named("dht.lookup").next().expect("lookup span");
        // One hop span per RPC attempt, all direct children of the lookup.
        assert_eq!(
            trace
                .children(lookup.id)
                .filter(|s| s.name == "dht.hop")
                .count() as u64,
            outcome.messages
        );
        // The span covers exactly the lookup's accumulated latency, and
        // every per-RPC span nests inside it (rpc under its dht.hop).
        assert_eq!(lookup.duration(), outcome.latency);
        for rpc in trace.named("rpc") {
            assert_eq!(trace.root_of(rpc.id), lookup.id);
        }
    }

    #[test]
    fn concurrent_lookups_interleave_on_a_contended_uplink() {
        use crate::lookup::LookupStep;
        // One in-flight operation per link: without event-driven lookups the
        // second lookup could only start after the first fully finished.
        let mut cfg = NetConfig::lan();
        cfg.max_in_flight_per_link = 1;
        let mut net = SimNet::new(64, cfg, 12);
        let mut dht = DhtNetwork::build(&mut net, DhtConfig::small());
        let t0 = net.now();
        let mut a = dht.lookup_begin(
            &mut net,
            9,
            Hash256::digest(b"interleave target a"),
            None,
            0,
            t0,
            None,
        );
        let mut b = dht.lookup_begin(
            &mut net,
            9,
            Hash256::digest(b"interleave target b"),
            None,
            0,
            t0,
            None,
        );
        // Each walk leaves its closest peers behind as it finishes, for the
        // poll that finished it to read.
        (a.walk.keeps_closest, b.walk.keeps_closest) = (true, true);
        let (mut found_a, mut found_b) = (None, None);
        let mut order = Vec::new();
        let mut cursor = t0;
        loop {
            let (done_a, done_b) = (a.completed_rpcs(), b.completed_rpcs());
            let step_a = dht.lookup_poll(&mut net, &mut a, cursor);
            if matches!(step_a, LookupStep::Ready) && found_a.is_none() {
                found_a = Some(dht.found.len());
            }
            let step_b = dht.lookup_poll(&mut net, &mut b, cursor);
            if matches!(step_b, LookupStep::Ready) && found_b.is_none() {
                found_b = Some(dht.found.len());
            }
            order.extend(std::iter::repeat_n(
                'a',
                (a.completed_rpcs() - done_a) as usize,
            ));
            order.extend(std::iter::repeat_n(
                'b',
                (b.completed_rpcs() - done_b) as usize,
            ));
            cursor = match (step_a, step_b) {
                (LookupStep::Ready, LookupStep::Ready) => break,
                (LookupStep::Ready, LookupStep::Pending { next_event_at })
                | (LookupStep::Pending { next_event_at }, LookupStep::Ready) => next_event_at,
                (
                    LookupStep::Pending { next_event_at: na },
                    LookupStep::Pending { next_event_at: nb },
                ) => na.min(nb),
            };
        }
        let (oa, _) = a.take_result().unwrap();
        let (ob, _) = b.take_result().unwrap();
        assert!(oa.messages > 0 && ob.messages > 0);
        assert!(found_a.is_some_and(|n| n > 0) && found_b.is_some_and(|n| n > 0));
        // Per-hop completions interleave: some of b's hops complete before
        // a's last hop and vice versa — the lookups genuinely overlap
        // instead of serializing lookup-after-lookup.
        let first_a = order
            .iter()
            .position(|&c| c == 'a')
            .expect("a completed hops");
        let first_b = order
            .iter()
            .position(|&c| c == 'b')
            .expect("b completed hops");
        let last_a = order.iter().rposition(|&c| c == 'a').unwrap();
        let last_b = order.iter().rposition(|&c| c == 'b').unwrap();
        assert!(
            first_b < last_a && first_a < last_b,
            "hops did not interleave: {order:?}"
        );
        // The contended uplink charged real queueing delay.
        assert!(net.stats().async_queued_ops > 0);
        assert!(oa.queue_delay + ob.queue_delay > SimDuration::ZERO);
    }

    /// Drive every walk of `walks` to its end on one shared timeline.
    fn drive_together(net: &mut SimNet, dht: &mut DhtNetwork, walks: &mut [crate::LookupMachine]) {
        use crate::lookup::LookupStep;
        let mut cursor = net.now();
        loop {
            let mut next: Option<SimInstant> = None;
            for walk in walks.iter_mut() {
                if let LookupStep::Pending { next_event_at } = dht.lookup_poll(net, walk, cursor) {
                    next = Some(next.map_or(next_event_at, |n| n.min(next_event_at)));
                }
            }
            match next {
                Some(at) => cursor = at,
                None => return,
            }
        }
    }

    #[test]
    fn walks_keep_one_spare_set_of_lists_per_walk_in_flight_at_once() {
        let (mut net, mut dht) = setup(48, 13);
        // Bootstrap walked one lookup at a time.
        assert_eq!(dht.spare_walks.len(), 1);
        for i in 0..100u64 {
            let key = DhtKey::for_term(&format!("spare-{i}"));
            dht.put_record(&mut net, i % 48, key, vec![7u8; 8], 1)
                .unwrap();
        }
        assert_eq!(dht.spare_walks.len(), 1, "sequential walks reuse one set");
        // A read its origin satisfies locally runs in the spare machine and
        // hands it back too.
        dht.get_record(&mut net, 0, DhtKey::for_term("spare-0"))
            .unwrap();
        assert_eq!(dht.spare_walks.len(), 1);
        for n in [1usize, 3, 5] {
            let t0 = net.now();
            let mut walks: Vec<_> = (0..n as u64)
                .map(|i| {
                    let target = Hash256::digest_parts(&[b"together:", &i.to_be_bytes()]);
                    dht.lookup_begin(&mut net, 3 + i, target, None, 0, t0, None)
                })
                .collect();
            assert!(dht.spare_walks.is_empty(), "every spare is in flight");
            drive_together(&mut net, &mut dht, &mut walks);
            for mut walk in walks {
                assert!(walk.take_result().is_some());
                dht.recycle_lookup(walk);
            }
            // Each walk took one machine while in flight and its caller
            // handed it back: the list grows to the most walks ever in
            // flight at once.
            assert_eq!(dht.spare_walks.len(), n.max(1));
        }
        // Fewer walks at once afterwards take from the spares, adding none.
        dht.lookup_nodes(&mut net, 9, Hash256::digest(b"alone"))
            .unwrap();
        assert_eq!(dht.spare_walks.len(), 5);
        // A walk runs in the box the last spare was run in; one dropped
        // before it is handed back takes its box with it.
        let boxed = |walk: &crate::LookupMachine| -> *const crate::lookup::Walk { &*walk.walk };
        let last = boxed(&dht.spare_walks[4]);
        let t0 = net.now();
        let walk = dht.lookup_begin(&mut net, 9, Hash256::digest(b"dropped"), None, 0, t0, None);
        assert_eq!(boxed(&walk), last);
        drop(walk);
        assert_eq!(dht.spare_walks.len(), 4);
    }

    /// `replicate` leaves the list its store round keeps in the
    /// network's `found` list: the walk's replicas that accepted, in the order the
    /// round issued to them.
    #[test]
    fn a_store_round_keeps_the_accepting_replicas_in_issue_order() {
        let (mut net, mut dht) = setup(48, 14);
        let key = DhtKey::for_term("issue order");
        dht.lookup_nodes(&mut net, 5, key.0).unwrap();
        let replicas = dht.found.clone();
        assert_eq!(replicas.len(), dht.config().k);
        let offline = replicas[1];
        net.set_online(offline.index, false);
        let record = Record {
            key,
            value: b"ordered".to_vec().into(),
            version: 1,
        };
        let mut stored_on = replicas.clone();
        let at = net.now();
        let (end, messages) = dht.fan_out_round(&mut net, 5, &mut stored_on, 80, at, |node| {
            node.store(record.clone())
        });
        assert_eq!(messages, replicas.len() as u64);
        let accepted: Vec<NodeId> = replicas.into_iter().filter(|r| *r != offline).collect();
        assert_eq!(stored_on, accepted);
        // The offline replica cost the round its timeout.
        assert_eq!(end, at + net.config().timeout);
        assert!(stored_on
            .iter()
            .all(|r| dht.node(r.index).find_value(&key).is_some()));
        assert!(dht.node(offline.index).find_value(&key).is_none());
    }

    /// FNV-1a fold of a transcript: pins every field of every outcome in
    /// one word (the transcript itself is printed when it moves).
    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// One fixed script over 64 peers: three peers offline, one peer
    /// partitioned away, then 32 node lookups and 16 put/get pairs from
    /// rotating origins. Odd seeds run on a one-slot uplink (so α = 2
    /// queues and `queue_delay` is non-zero), even seeds drop 8 % of
    /// messages.
    /// Returns the transcript of every outcome and the final traffic
    /// counters.
    fn golden_run(seed: u64) -> (String, qb_simnet::NetStats) {
        use std::fmt::Write;
        let mut cfg = NetConfig::lan();
        if seed % 2 == 1 {
            cfg.max_in_flight_per_link = 1;
        } else {
            cfg.drop_probability = 0.08;
        }
        let mut net = SimNet::new(64, cfg, seed);
        let mut dht = DhtNetwork::build(&mut net, DhtConfig::small());
        for offline in [7, 21, 40] {
            net.set_online(offline, false);
        }
        net.set_partition(33, 1);
        let indices = |ids: &[NodeId]| ids.iter().map(|c| c.index).collect::<Vec<_>>();
        let mut out = String::new();
        for i in 0..32u64 {
            let from = (i * 5 + seed) % 64;
            let target = Hash256::digest_parts(&[b"golden:", &i.to_be_bytes()]);
            match dht.lookup_nodes(&mut net, from, target) {
                Ok(o) => writeln!(
                    out,
                    "L{i} from {from}: {:?} hops {} msgs {} lat {} queue {}",
                    indices(&dht.found),
                    o.hops,
                    o.messages,
                    o.latency.as_micros(),
                    o.queue_delay.as_micros()
                ),
                Err(e) => writeln!(out, "L{i} from {from}: {e}"),
            }
            .unwrap();
        }
        for i in 0..16u64 {
            let from = (i * 11 + seed) % 64;
            let key = DhtKey::for_term(&format!("golden-{i}"));
            match dht.put_record(&mut net, from, key, vec![i as u8; 24], 1 + i % 3) {
                Ok(p) => writeln!(
                    out,
                    "P{i} from {from}: {:?} lat {} msgs {}",
                    indices(&dht.found),
                    p.latency.as_micros(),
                    p.messages
                ),
                Err(e) => writeln!(out, "P{i} from {from}: {e}"),
            }
            .unwrap();
            let reader = (i * 13 + 3 * seed + 1) % 64;
            match dht.get_record_fresh(&mut net, reader, key, 1 + i % 3) {
                Ok(g) => writeln!(
                    out,
                    "G{i} from {reader}: v{} hops {} msgs {} lat {}",
                    g.record.version,
                    g.hops,
                    g.messages,
                    g.latency.as_micros()
                ),
                Err(e) => writeln!(out, "G{i} from {reader}: {e}"),
            }
            .unwrap();
        }
        (out, net.stats().clone())
    }

    /// The walk's bookkeeping (distances, shortlist order, selection of the
    /// `k` nearest) is host-side only: every outcome of the fixed script and
    /// the final traffic counters must equal the constants recorded before
    /// distances were computed once and the shortlist kept sorted.
    #[test]
    fn golden_scenario_is_byte_identical() {
        let expected: [(u64, qb_simnet::NetStats); 3] = [
            (
                0x8ef2_3759_fce3_36a8,
                qb_simnet::NetStats {
                    messages: 2164,
                    bytes: 243344,
                    rpcs: 1082,
                    failed_rpcs: 18,
                    dropped_messages: 0,
                    peer_down_events: 3,
                    async_ops: 1082,
                    async_queued_ops: 776,
                    async_queue_delay_us: 824728,
                    hedges_fired: 0,
                    hedges_won: 0,
                    ..Default::default()
                },
            ),
            (
                0x2f41_650d_5baa_8f02,
                qb_simnet::NetStats {
                    messages: 1854,
                    bytes: 208344,
                    rpcs: 927,
                    failed_rpcs: 90,
                    dropped_messages: 70,
                    peer_down_events: 3,
                    async_ops: 927,
                    async_queued_ops: 0,
                    async_queue_delay_us: 0,
                    hedges_fired: 0,
                    hedges_won: 0,
                    ..Default::default()
                },
            ),
            (
                0xc12e_d8b9_08e5_dda7,
                qb_simnet::NetStats {
                    messages: 2156,
                    bytes: 243376,
                    rpcs: 1078,
                    failed_rpcs: 21,
                    dropped_messages: 0,
                    peer_down_events: 3,
                    async_ops: 1078,
                    async_queued_ops: 768,
                    async_queue_delay_us: 810726,
                    hedges_fired: 0,
                    hedges_won: 0,
                    ..Default::default()
                },
            ),
        ];
        for (seed, (fingerprint, stats)) in (1u64..).zip(expected) {
            let (transcript, got) = golden_run(seed);
            assert_eq!(
                fnv1a(&transcript),
                fingerprint,
                "seed {seed} transcript moved:\n{transcript}"
            );
            assert_eq!(got, stats, "seed {seed}");
        }
    }
}

//! Event-driven Kademlia lookup state machine.
//!
//! [`LookupMachine`] replaces the old synchronous round loop: instead of
//! blocking on α RPCs per round, a lookup keeps **up to α RPC handles in
//! flight** via [`qb_simnet::SimNet::send_async_at`] and advances on
//! completions delivered by [`qb_simnet::SimNet::poll_complete`]. Because
//! every hop is an in-flight operation on the requester's uplink, hops from
//! *different* concurrent lookups interleave on a contended link and every
//! queue delay is charged to [`qb_simnet::NetStats`].
//!
//! # States
//!
//! A machine is in exactly one of three states:
//!
//! 1. **Short-circuited** — a value lookup whose local replica already
//!    satisfies `min_version` finishes at construction with zero cost and
//!    no span (there was no network activity to trace).
//! 2. **Running** — one or more RPCs in flight. [`DhtNetwork::lookup_poll`]
//!    processes every completion due at the polled instant in completion
//!    order, then refills the frontier; it reports
//!    [`LookupStep::Pending`] with the next completion instant so a driver
//!    can advance to exactly the next event.
//! 3. **Done** — the frontier is exhausted (or the value was found, or the
//!    RPC budget ran out) and no RPC remains in flight.
//!    [`LookupMachine::take_result`] yields the [`LookupOutcome`] plus the
//!    freshest record seen.
//!
//! # α-frontier invariants
//!
//! * At most `alpha` RPCs are in flight at any instant.
//! * An RPC is only issued to the closest (XOR metric) not-yet-queried,
//!   not-failed candidate among the `k` closest known live contacts — the
//!   frontier never digs past the current top-`k`.
//! * Each peer is queried at most once per lookup; failures remove the peer
//!   from both the shortlist's top `k` and the requester's routing table.
//! * The shortlist is kept sorted by an XOR distance computed once per
//!   contact and stored beside the contact's node index (its 40-byte id
//!   stays in the network's node table) and its mark (not queried,
//!   queried, failed): merging a response is a binary-search insert (which
//!   is also the duplicate check), picking the next candidate is a scan
//!   from the front and a failure finds its entry by the same search —
//!   nothing re-sorts, no comparison re-derives a distance, and no second
//!   list of queried or failed peers is kept.
//! * Completions are processed in (completion instant, issue order) order,
//!   so a run is bit-identical for a given seed regardless of how the
//!   driver batches its polls.
//! * Total RPCs are bounded by `MAX_ROUNDS × alpha`, the same budget the
//!   synchronous loop had.
//!
//! # Termination rule
//!
//! The machine issues no further RPCs once (a) a value lookup has been
//! satisfied by a replica with `version ≥ min_version`, (b) every
//! non-failed candidate among the `k` closest known has been queried, or
//! (c) the RPC budget is exhausted. It reports [`LookupStep::Ready`] when
//! additionally the last in-flight RPC has completed; the closest-node list
//! is then the `k` closest non-failed contacts discovered. This is the same
//! fixed point the synchronous loop reached via its "top-k all queried and
//! no progress" round check: a closer contact always enters the top-`k`
//! unqueried and therefore keeps the frontier alive.
//!
//! # Buffers
//!
//! A [`LookupMachine`] is a handle on a boxed walk, so a caller can hold
//! one beside small enum variants (an index read does). The box carries
//! the walk's two lists, its shortlist and its in-flight RPCs, which the
//! poll that finishes the walk clears. [`DhtNetwork::lookup_begin`] takes a
//! spare machine, box and lists together, from the network (or starts a
//! new one when it holds none), and [`DhtNetwork::recycle_lookup`] hands
//! back one whose result was taken; walks the network drives itself hand
//! theirs back on their own. The spare list has no setting and never holds
//! more machines than were once in flight together. Each `FIND_NODE`
//! reply is read into one more list the network keeps
//! ([`crate::RoutingTable::closest_into`]) and merged from there. An
//! abandoned or dropped walk takes its box and lists with it. A walk
//! allocates nothing and leaves nothing behind, except the node walk under
//! a store round or a provider search: it leaves its `k` closest in one
//! more list the network keeps, where the store round then keeps the
//! replicas that accepted.
//!
//! # Tracing
//!
//! The lookup records one `dht.lookup` span (under the caller-supplied
//! parent, or the innermost open span) and one `dht.hop` span per RPC
//! attempt. Hop spans are created off the stack discipline with explicit
//! parents so interleaved lookups keep disjoint, correctly-nested trees;
//! the underlying `rpc` / `net.queue` / `net.deliver` spans nest under
//! their hop.

use crate::network::{DhtNetwork, LookupOutcome};
use crate::node::Record;
use qb_common::{DhtKey, Distance, Hash256, NodeId, SimDuration, SimInstant};
use qb_simnet::{Poll, RpcError, RpcHandle, SimNet};
use qb_trace::SpanId;

/// What a [`DhtNetwork::lookup_poll`] call observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupStep {
    /// RPCs remain in flight; the earliest completes at `next_event_at`.
    Pending {
        /// Instant of the next completion — poll again at (or after) it.
        next_event_at: SimInstant,
    },
    /// The lookup has finished; take the result with
    /// [`LookupMachine::take_result`].
    Ready,
}

/// One RPC attempt in flight. `handle` is `None` for an attempt that failed
/// at issue time (offline peer, partition, drop): the failure still costs
/// the configured timeout on the lookup's timeline, exactly like the
/// synchronous `rpc_or_timeout` path did.
#[derive(Debug)]
struct InFlightRpc {
    handle: Option<RpcHandle>,
    /// The peer's node index.
    peer: u32,
    /// The peer's distance to the target: its shortlist entry's key.
    distance: Distance,
    completes_at: SimInstant,
    generation: usize,
    hop_span: Option<SpanId>,
}

/// What a walk knows of one contact on its shortlist.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// Not queried yet: a frontier candidate once among the top `k`.
    Unqueried,
    /// Queried, answered or still in flight.
    Queried,
    /// Queried and failed: out of the top `k` for the rest of the walk.
    Failed,
}

/// One shortlist entry: a contact, by its node index, beside its distance
/// to the target. The network's node table holds the contact's id.
#[derive(Debug, Clone, Copy)]
struct Candidate {
    distance: Distance,
    contact: u32,
    mark: Mark,
}

impl Candidate {
    /// A contact just learnt, from the origin's table or a reply.
    fn unqueried(&(distance, contact): &(Distance, NodeId)) -> Candidate {
        let mark = Mark::Unqueried;
        Candidate {
            distance,
            contact: contact.index as u32,
            mark,
        }
    }
}

/// An in-progress iterative lookup (see the module docs for the state
/// machine). Create with [`DhtNetwork::lookup_begin`], advance with
/// [`DhtNetwork::lookup_poll`], take the result with
/// [`LookupMachine::take_result`] and hand the machine back with
/// [`DhtNetwork::recycle_lookup`] (module docs, "Buffers").
#[derive(Debug)]
pub struct LookupMachine {
    pub(crate) walk: Box<Walk>,
}

/// What a walk keeps while it runs, boxed behind its [`LookupMachine`].
#[derive(Debug)]
pub(crate) struct Walk {
    target: Hash256,
    from: u64,
    want_value: Option<DhtKey>,
    min_version: u64,
    started_at: SimInstant,
    span: Option<SpanId>,
    /// Every contact learnt so far, nearest first, each beside its distance
    /// to `target` and its mark: inserts keep the order, so nothing ever
    /// sorts it. The origin is never on it: its own table does not hold
    /// it, and a reply that names it is skipped.
    shortlist: Vec<Candidate>,
    in_flight: Vec<InFlightRpc>,
    found_value: Option<Record>,
    messages: u64,
    completed: u64,
    rpc_budget: u64,
    k: usize,
    alpha: usize,
    response_bytes: usize,
    hops: usize,
    satisfied: bool,
    finished_at: SimInstant,
    queue_delay: SimDuration,
    /// Does the walk leave its `k` closest in the network's `found` list
    /// when it finishes? Only the node walk under a store round or a
    /// provider search does.
    pub(crate) keeps_closest: bool,
    result: Option<(LookupOutcome, Option<Record>)>,
}

impl LookupMachine {
    /// True once the lookup has finished and holds its result.
    pub fn is_done(&self) -> bool {
        self.walk.result.is_some()
    }

    /// RPC attempts whose completion has been processed so far. Grows
    /// monotonically as the machine is polled; tests use it to observe how
    /// hops of concurrent lookups interleave.
    #[cfg(test)]
    pub fn completed_rpcs(&self) -> u64 {
        self.walk.completed
    }

    /// Move the result out of a finished lookup (`None` while it is still
    /// running, and once taken), for a caller that keeps the machine in
    /// place until it has a next state to put there.
    pub fn take_result(&mut self) -> Option<(LookupOutcome, Option<Record>)> {
        self.walk.result.take()
    }

    /// Retire any in-flight handles without processing their results, so an
    /// aborted driver leaves no orphaned operations in the network.
    pub fn abandon(&mut self, net: &mut SimNet) {
        for op in self.walk.in_flight.drain(..) {
            if let Some(handle) = op.handle {
                net.poll_complete(handle, op.completes_at);
            }
        }
    }
}

impl Walk {
    fn fresh_enough(&self) -> bool {
        self.found_value
            .as_ref()
            .is_some_and(|r| r.version >= self.min_version)
    }

    /// The `k` closest non-failed known contacts, nearest first, with
    /// their shortlist positions.
    fn top_k(&self) -> impl Iterator<Item = (usize, &Candidate)> + '_ {
        let live = self.shortlist.iter().enumerate();
        live.filter(|(_, c)| c.mark != Mark::Failed).take(self.k)
    }

    /// The shortlist position of the closest not-yet-queried candidate
    /// among the `k` closest non-failed known contacts (the α-frontier
    /// rule).
    fn next_candidate(&self) -> Option<usize> {
        let mut top = self.top_k();
        top.find(|(_, c)| c.mark == Mark::Unqueried).map(|(i, _)| i)
    }

    /// Send one frontier hop to the candidate at shortlist position `slot`
    /// at instant `at`, counting it against the budget, and track it in
    /// flight. A failed attempt costs the timeout on the lookup's timeline
    /// (an offline requester pays nothing), exactly like the synchronous
    /// `rpc_or_timeout` path.
    fn send(
        &mut self,
        net: &mut SimNet,
        slot: usize,
        at: SimInstant,
        generation: usize,
        hop_span: Option<SpanId>,
    ) {
        let candidate = &mut self.shortlist[slot];
        candidate.mark = Mark::Queried;
        let (peer, distance) = (candidate.contact, candidate.distance);
        self.messages += 1;
        let sent = net.send_async_at(
            self.from,
            u64::from(peer),
            crate::REQUEST_BYTES,
            self.response_bytes,
            at,
            hop_span,
        );
        let (handle, completes_at) = match sent {
            Ok(handle) => {
                let completes_at = net.async_completes_at(handle).expect("just issued");
                (Some(handle), completes_at)
            }
            Err(RpcError::SelfOffline) => (None, at),
            Err(_) => (None, at + net.config().timeout),
        };
        self.in_flight.push(InFlightRpc {
            handle,
            peer,
            distance,
            completes_at,
            generation,
            hop_span,
        });
    }
}

impl DhtNetwork {
    /// Start an iterative lookup from peer `from` at virtual instant `at`.
    ///
    /// `want_value` turns the node lookup into a value lookup that is
    /// satisfied by a replica with `version ≥ min_version` (see
    /// [`DhtNetwork::get_record_fresh`] for the freshness semantics).
    /// Trace spans nest under `parent`; pass `None` to attach under the
    /// innermost open span. The first α RPCs are issued (and paid for)
    /// immediately; drive the machine with [`DhtNetwork::lookup_poll`].
    #[allow(clippy::too_many_arguments)]
    pub fn lookup_begin(
        &mut self,
        net: &mut SimNet,
        from: u64,
        target: Hash256,
        want_value: Option<DhtKey>,
        min_version: u64,
        at: SimInstant,
        parent: Option<SpanId>,
    ) -> LookupMachine {
        let config = &self.config;
        let walk = Walk {
            target,
            from,
            want_value,
            min_version,
            started_at: at,
            span: None,
            shortlist: Vec::new(),
            in_flight: Vec::new(),
            found_value: None,
            messages: 0,
            completed: 0,
            rpc_budget: (crate::MAX_ROUNDS * config.alpha.max(1)) as u64,
            k: config.k,
            alpha: config.alpha.max(1),
            response_bytes: crate::CONTACT_BYTES * config.k,
            hops: 0,
            satisfied: false,
            finished_at: at,
            queue_delay: SimDuration::ZERO,
            keeps_closest: false,
            result: None,
        };
        // A spare machine's box and lists carry the walk.
        let mut handle = match self.spare_walks.pop() {
            Some(mut spare) => {
                let old = std::mem::replace(&mut *spare.walk, walk);
                (spare.walk.shortlist, spare.walk.in_flight) = (old.shortlist, old.in_flight);
                spare
            }
            None => LookupMachine {
                walk: Box::new(walk),
            },
        };
        let machine = &mut *handle.walk;

        // A local replica that satisfies the freshness requirement
        // short-circuits the whole lookup; a provably stale one is kept as
        // a fallback while the network is searched.
        if let Some(key) = machine.want_value {
            if let Some(rec) = self.nodes[from as usize].find_value(&key) {
                if rec.version >= machine.min_version {
                    machine.result = Some((
                        LookupOutcome {
                            hops: 0,
                            messages: 0,
                            latency: SimDuration::ZERO,
                            queue_delay: SimDuration::ZERO,
                        },
                        Some(rec.clone()),
                    ));
                    return handle;
                }
                machine.found_value = Some(rec.clone());
            }
        }

        let routing = &self.nodes[from as usize].routing;
        routing.closest_into(&target, config.k, &mut self.replies);
        let known = self.replies.iter().map(Candidate::unqueried);
        machine.shortlist.extend(known);
        machine.span = net.tracer().record_with(parent, "dht.lookup", at, at, || {
            format!("{} from {}", target.short(), from)
        });
        self.lookup_issue(net, machine, at, 1);
        handle
    }

    /// Hand back a machine whose result was taken, for the next
    /// [`DhtNetwork::lookup_begin`] to run in (module docs, "Buffers").
    pub fn recycle_lookup(&mut self, machine: LookupMachine) {
        debug_assert!(machine.walk.result.is_none() && machine.walk.in_flight.is_empty());
        self.spare_walks.push(machine);
    }

    /// Advance a lookup at instant `at`: process every completion due by
    /// then (in completion order, refilling the frontier after each) and
    /// report either the next event instant or readiness.
    pub fn lookup_poll(
        &mut self,
        net: &mut SimNet,
        machine: &mut LookupMachine,
        at: SimInstant,
    ) -> LookupStep {
        if machine.is_done() {
            return LookupStep::Ready;
        }
        let machine = &mut *machine.walk;
        // Process due completions one at a time, earliest first (ties break
        // on issue order), so results are independent of how the driver
        // batches its polls.
        loop {
            let due = machine
                .in_flight
                .iter()
                .enumerate()
                .filter(|(_, op)| op.completes_at <= at)
                .min_by_key(|(i, op)| (op.completes_at, *i))
                .map(|(i, _)| i);
            let Some(i) = due else { break };
            let op = machine.in_flight.remove(i);
            let mut completed_at = op.completes_at;
            let ok = match op.handle {
                Some(handle) => match net.poll_complete(handle, op.completes_at) {
                    Some(Poll::Ready(done)) => {
                        machine.queue_delay += done.queue_delay;
                        completed_at = done.completed_at;
                        true
                    }
                    _ => false,
                },
                None => false,
            };
            net.tracer().close(op.hop_span, completed_at);
            machine.completed += 1;
            machine.finished_at = machine.finished_at.max(completed_at);
            if ok {
                // Successful contact: update both routing tables.
                let from_id = self.nodes[machine.from as usize].id;
                let peer = op.peer as usize;
                self.nodes[peer].routing.observe(from_id, true);
                let cand_id = self.nodes[peer].id;
                self.nodes[machine.from as usize]
                    .routing
                    .observe(cand_id, true);
                // Value check: keep the freshest replica seen so far.
                if let Some(key) = machine.want_value {
                    if !machine.fresh_enough() {
                        if let Some(rec) = self.nodes[peer].find_value(&key) {
                            if machine
                                .found_value
                                .as_ref()
                                .is_none_or(|best| rec.version > best.version)
                            {
                                machine.found_value = Some(rec.clone());
                            }
                        }
                        if machine.fresh_enough() {
                            machine.satisfied = true;
                        }
                    }
                }
                // A satisfied lookup stops expanding the frontier (the
                // satisfying hop's contacts are discarded, matching the
                // synchronous loop's break-before-merge).
                if !machine.satisfied {
                    // The peer's `FIND_NODE` reply: its `k` closest contacts.
                    let replier = &self.nodes[peer].routing;
                    replier.closest_into(&machine.target, machine.k, &mut self.replies);
                    for reply in &self.replies {
                        if reply.1.index == machine.from {
                            continue;
                        }
                        // Distinct contacts lie at distinct distances, so the
                        // search for the slot is also the duplicate check.
                        let slot = machine
                            .shortlist
                            .binary_search_by_key(&reply.0, |c| c.distance);
                        if let Err(at) = slot {
                            machine.shortlist.insert(at, Candidate::unqueried(reply));
                        }
                    }
                }
            } else {
                let slot = machine
                    .shortlist
                    .binary_search_by_key(&op.distance, |c| c.distance);
                if let Ok(slot) = slot {
                    machine.shortlist[slot].mark = Mark::Failed;
                }
                let cand_id = self.nodes[op.peer as usize].id;
                self.nodes[machine.from as usize].routing.remove(&cand_id);
            }
            self.lookup_issue(net, machine, completed_at, op.generation + 1);
        }
        match machine.in_flight.iter().map(|op| op.completes_at).min() {
            Some(next_event_at) => LookupStep::Pending { next_event_at },
            None => {
                self.lookup_finish(net, machine);
                LookupStep::Ready
            }
        }
    }

    /// Refill the frontier at instant `at`: issue RPCs to the closest
    /// eligible candidates until α are in flight, the budget is spent, or
    /// the frontier is exhausted.
    fn lookup_issue(
        &mut self,
        net: &mut SimNet,
        machine: &mut Walk,
        at: SimInstant,
        generation: usize,
    ) {
        while !machine.satisfied
            && machine.in_flight.len() < machine.alpha
            && machine.messages < machine.rpc_budget
        {
            let Some(slot) = machine.next_candidate() else {
                break;
            };
            let cand = machine.shortlist[slot].contact;
            machine.hops = machine.hops.max(generation);
            let hop_span = net
                .tracer()
                .record_with(machine.span, "dht.hop", at, at, || {
                    format!("gen {} -> {}", generation, cand)
                });
            machine.send(net, slot, at, generation, hop_span);
        }
    }

    /// Close the walk's span, build its outcome, leave the walk's `k`
    /// closest in the network's `found` list if it keeps them and empty the
    /// walk's lists, keeping their room (module docs, "Buffers").
    fn lookup_finish(&mut self, net: &mut SimNet, machine: &mut Walk) {
        net.tracer().close(machine.span, machine.finished_at);
        if machine.keeps_closest {
            let nodes = &self.nodes;
            self.found.clear();
            let closest = machine.top_k().map(|(_, c)| nodes[c.contact as usize].id);
            self.found.extend(closest);
        }
        machine.shortlist.clear();
        machine.in_flight.clear();
        machine.result = Some((
            LookupOutcome {
                hops: machine.hops,
                messages: machine.messages,
                latency: machine.finished_at.since(machine.started_at),
                queue_delay: machine.queue_delay,
            },
            machine.found_value.take(),
        ));
    }

    /// Run a lookup machine to completion on its own timeline (the
    /// synchronous entry points build on this) and keep it for the next
    /// walk.
    pub(crate) fn lookup_drive(
        &mut self,
        net: &mut SimNet,
        mut machine: LookupMachine,
    ) -> (LookupOutcome, Option<Record>) {
        let mut at = machine.walk.started_at;
        while let LookupStep::Pending { next_event_at } = self.lookup_poll(net, &mut machine, at) {
            at = next_event_at;
        }
        let result = machine.take_result();
        self.recycle_lookup(machine);
        result.expect("a lookup polled Ready holds its result")
    }
}

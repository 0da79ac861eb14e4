//! The frontend fleet and the epidemic exchange protocol.
//!
//! Every frontend owns a private [`QueryCache`], a [`VersionVector`] of the
//! highest shard version it has observed per term, and — since the overlay
//! became churn-aware — its own [`MembershipView`] of the fleet. A gossip
//! round walks the active frontends; each one increments its heartbeat,
//! samples `FANOUT` partners from the members *it* believes alive (biased
//! toward its own latency zone, escaping cross-zone with a configurable
//! probability) and runs one *exchange* with each:
//!
//! 1. **Digest swap** — one RPC carrying both sides' digests plus a
//!    membership summary (peer, zone, heartbeat triples). In
//!    [`DigestMode::Delta`] a digest holds only the hot-set entries that
//!    changed since the last exchange with that peer, plus a compact
//!    [`ShardFilter`] over the sender's current holdings; anti-entropy
//!    rounds always swap full digests, reconciling fully after partitions
//!    and repairing any fill the compression delayed.
//! 2. **Fills, both directions** — each side pushes the shards it believes
//!    the other lacks (bounded by `max_fills_per_exchange`), as one batched
//!    one-way message. A fill carries the sender's *adaptive TTL for the
//!    term* — the full lifetime the sender would give a copy fetched now,
//!    not what is left of its own copy — and the receiver stores it under
//!    `min(that, own adapted TTL)` counted from the fill instant. A relay
//!    therefore restarts the expiry clock at every hop; the version guard
//!    and read-time version checks, not the TTL, are what keep a relayed
//!    shard from being served stale (ROADMAP's modelling-change queue
//!    files shipping the remaining lifetime instead: "a relayed fill must
//!    not outlive its fetch").
//! 3. **Version guard** — the receiver admits a fill only if its version is
//!    at least the highest version it has observed for that term, and
//!    strictly newer than its cached copy. A stale shard is *never*
//!    accepted over a fresher one, no matter how gossip routes it.
//!
//! **Churn**: frontends [`join`](GossipFleet::join) by bootstrapping their
//! cache through one full anti-entropy exchange with a live neighbour
//! (warming from the fleet instead of the DHT), [`leave`](GossipFleet::leave)
//! gracefully (departure notices) or [`crash`](GossipFleet::crash) (peers
//! detect the silence via heartbeats and evict the member from their sample
//! sets); a crashed frontend can [`rejoin`](GossipFleet::rejoin) with a
//! fresh cache and a bumped SWIM-style **incarnation epoch** (its heartbeat
//! restarts from zero) that supersedes every stale view of it — a
//! long-delayed membership summary from a previous incarnation can never
//! confuse the fleet about the restarted process.
//!
//! **Batch-aware advertisements**: the engine queues a batch window's
//! freshly fetched shard keys on the serving frontend
//! ([`GossipFleet::note_batch_fetches`]); they ride its next digest round
//! ahead of hot-set popularity and lead the fill order, warming the rest
//! of the fleet one round earlier than the epidemic alone would.
//!
//! All traffic goes through [`SimNet`] and is charged to its `NetStats`;
//! partitions and offline peers fail exchanges exactly like any other RPC.
//!
//! [`VersionVector`]: crate::VersionVector
//! [`MembershipView`]: crate::MembershipView
//! [`DigestMode::Delta`]: crate::DigestMode::Delta
//! [`ShardFilter`]: crate::ShardFilter

use crate::config::{
    GossipConfig, CROSS_ZONE_PROBABILITY, FANOUT, GOSSIP_SEED, LIVENESS_TIMEOUT, ROUND_INTERVAL,
};
use crate::digest::{DigestEntry, TermKey};
use crate::exchange::{ExchangeClass, OfferBuffers};
use crate::filter::FilterKey;
use crate::frontend::Frontend;
use crate::stats::GossipStats;
use qb_cache::{CacheConfig, QueryCache};
use qb_common::{DetRng, SimInstant};
use qb_segment::SegmentRef;
use qb_simnet::SimNet;
use std::collections::HashMap;

/// Most rounds one `maybe_run` call fires when catching up after a large
/// simulated-time step.
const MAX_CATCHUP_ROUNDS: usize = 8;

/// Terms a zone-aware anti-entropy coverage check inspects at most — a
/// bound on per-round work, not on safety (uncovered terms simply leave the
/// partner choice to the default sampler).
const MAX_ZONE_AE_MISSING: usize = 32;

/// The gossip overlay over a fleet of frontends.
#[derive(Debug)]
pub struct GossipFleet {
    pub(crate) config: GossipConfig,
    pub(crate) cache_config: CacheConfig,
    pub(crate) frontends: Vec<Frontend>,
    pub(crate) index_by_peer: HashMap<u64, usize>,
    pub(crate) rng: DetRng,
    next_round_at: SimInstant,
    next_anti_entropy_at: SimInstant,
    pub(crate) stats: GossipStats,
    /// The two exchange sides' buffers, reused by every exchange.
    pub(crate) offer_buffers: [OfferBuffers; 2],
}

impl GossipFleet {
    /// Build a fleet of `config.num_frontends` frontends on peers
    /// `0..num_frontends` (zone `peer % config.zones`), each with a private
    /// cache built from `cache_config`. Every initial member knows the full
    /// starting roster; membership changes after that flow through gossip.
    /// `seed` is mixed with [`GOSSIP_SEED`] so two engines differing only
    /// in their master seed sample different partners.
    pub fn new(config: GossipConfig, cache_config: &CacheConfig, seed: u64) -> GossipFleet {
        let zones = config.zones.max(1);
        let mut frontends: Vec<Frontend> = (0..config.num_frontends)
            .map(|i| Frontend::new(i as u64, i % zones, cache_config.clone()))
            .collect();
        let roster: Vec<(u64, usize)> = frontends.iter().map(|f| (f.peer, f.zone)).collect();
        for f in frontends.iter_mut() {
            for &(peer, zone) in &roster {
                f.view.admit(peer, zone, 0, 0, SimInstant::ZERO);
            }
        }
        let index_by_peer = frontends
            .iter()
            .enumerate()
            .map(|(i, f)| (f.peer, i))
            .collect();
        let rng = DetRng::new(seed ^ GOSSIP_SEED.rotate_left(17));
        GossipFleet {
            next_round_at: SimInstant::ZERO + ROUND_INTERVAL,
            next_anti_entropy_at: SimInstant::ZERO + config.anti_entropy_interval,
            cache_config: cache_config.clone(),
            config,
            frontends,
            index_by_peer,
            rng,
            stats: GossipStats::default(),
            offer_buffers: Default::default(),
        }
    }

    /// Number of frontend slots (departed slots included; indexes are
    /// stable across churn).
    pub fn len(&self) -> usize {
        self.frontends.len()
    }

    /// True when the fleet has no frontends.
    pub fn is_empty(&self) -> bool {
        self.frontends.is_empty()
    }

    /// Number of active (not departed) frontends.
    pub fn active_count(&self) -> usize {
        self.frontends.iter().filter(|f| f.is_active()).count()
    }

    /// Is frontend `i` active (joined and neither left nor crashed)?
    pub fn is_active(&self, i: usize) -> bool {
        self.frontends.get(i).is_some_and(|f| f.is_active())
    }

    /// The configuration the fleet runs.
    pub fn config(&self) -> &GossipConfig {
        &self.config
    }

    /// Cumulative gossip counters.
    pub fn stats(&self) -> &GossipStats {
        &self.stats
    }

    /// Borrow one frontend.
    pub fn frontend(&self, i: usize) -> &Frontend {
        &self.frontends[i]
    }

    /// Mutably borrow one frontend.
    pub fn frontend_mut(&mut self, i: usize) -> &mut Frontend {
        &mut self.frontends[i]
    }

    /// The simulated peer frontend `i` runs on.
    pub fn frontend_peer(&self, i: usize) -> u64 {
        self.frontends[i].peer
    }

    /// Mutably borrow one frontend's cache.
    pub fn cache_mut(&mut self, i: usize) -> &mut QueryCache {
        self.frontends[i].cache_mut()
    }

    /// Record that frontend `i` observed `version` of `term` (e.g. through
    /// its own DHT fetch).
    pub fn observe(&mut self, i: usize, term: &str, version: u64) {
        self.frontends[i].known.observe(term, version);
    }

    /// Record that frontend `i` admitted one query. Feeds the load EWMA
    /// the frontend advertises on its next heartbeat — the signal the
    /// power-of-two-choices router breaks HRW ties with.
    pub fn record_served(&mut self, i: usize) {
        if let Some(f) = self.frontends.get_mut(i) {
            f.load_recent += 1;
        }
    }

    /// Record that the open-loop dispatcher routed one arrival to frontend
    /// `i`: the query sits in its ingress queue until
    /// [`GossipFleet::record_finished`] retires it at dispatch.
    pub fn record_routed(&mut self, i: usize) {
        if let Some(f) = self.frontends.get_mut(i) {
            f.routed_outstanding += 1;
        }
    }

    /// Retire `n` queued queries at frontend `i` — a dispatch just moved
    /// them out of the ingress queue into a pipeline batch. The batch
    /// still counts toward the interval's cumulative ledger until the
    /// next heartbeat fold.
    pub fn record_finished(&mut self, i: usize, n: u64) {
        if let Some(f) = self.frontends.get_mut(i) {
            f.routed_outstanding = f.routed_outstanding.saturating_sub(n);
            f.routed_recent += n;
        }
    }

    /// The load signal frontend `i` currently advertises: the EWMA it
    /// folded at its last heartbeat and gossips in its membership
    /// summaries. 0 when the frontend has never heartbeaten — an unknown
    /// member looks idle, the optimistic default two-choices wants.
    /// Deliberately *not* the frontend's own instantaneous counter:
    /// routing decisions see load at heartbeat granularity, like a real
    /// fleet. Every slot is read at the same one-fold staleness — an
    /// earlier version read a single anchor frontend's gossip-fed view,
    /// which saw the anchor's own load one propagation round fresher than
    /// everyone else's and systematically diverted traffic off it
    /// whenever fleet load was rising.
    pub fn advertised_load(&self, i: usize) -> u64 {
        let Some(target) = self.frontends.get(i) else {
            return 0;
        };
        target.view.load_of(target.peer)
    }

    /// The load picture the two-choices router compares: the heartbeat
    /// EWMA the frontend advertises plus the dispatcher's own gauge of
    /// queries it routed there that are still queued. The gauge is local
    /// information a front door legitimately has about its *own*
    /// decisions — it is never gossiped — and it is what stops a burst
    /// arriving inside one heartbeat interval from herding onto whichever
    /// frontend the shared stale snapshot says is idlest. Counting only
    /// queued (not dispatched in-flight) work keeps arrivals coalescing
    /// behind a mid-window frontend's next batch instead of scattering
    /// into single-query windows that cannot share fetches.
    ///
    /// `routed_recent` — the same router's cumulative count for the
    /// current gossip interval — rides along so the signal also
    /// equalizes *total* work routed per interval: without it a
    /// fast-draining frontend (empty queue, short windows) soaks up
    /// arrivals indefinitely and the post-crash respread skews toward
    /// whoever serves cheapest. Both gauges are fed only by the
    /// open-loop dispatcher, so closed-loop `search_*` calls never
    /// perturb where a hashed route resolves.
    pub fn routing_load(&self, i: usize) -> u64 {
        let Some(f) = self.frontends.get(i) else {
            return 0;
        };
        self.advertised_load(i) + f.routed_recent + f.routed_outstanding
    }

    /// A page version touching `term` was (re)indexed at `version` by a bee
    /// on `writer_peer`. Every active frontend that can currently observe
    /// the publish (same partition, online) purges the term's cached shard
    /// and negative entries and records the new version; its cached
    /// results fail their version check on their next lookup. Partitioned
    /// frontends miss the event and catch up through read-time version
    /// checks and anti-entropy after the partition heals.
    pub fn observe_publish(
        &mut self,
        net: &SimNet,
        writer_peer: u64,
        term: &str,
        version: u64,
        now: SimInstant,
    ) {
        for f in &mut self.frontends {
            if f.departed || !net.can_reach(writer_peer, f.peer) {
                continue;
            }
            f.known.observe(term, version);
            f.cache.invalidate_term(term, now);
        }
    }

    // ----- rounds ------------------------------------------------------------------

    /// Run every gossip round that became due by `now` (a large time step
    /// fires the backlog, keeping the configured pacing relative to
    /// simulated time). Catch-up is capped: epidemic convergence is
    /// logarithmic in rounds, so past `MAX_CATCHUP_ROUNDS` (8) back-to-back
    /// rounds at one instant add nothing and the remaining backlog is
    /// dropped. Returns true when at least one round ran.
    pub fn maybe_run(&mut self, net: &mut SimNet, now: SimInstant) -> bool {
        if !self.config.enabled || self.active_count() < 2 {
            return false;
        }
        let mut fired = 0usize;
        while now >= self.next_round_at && fired < MAX_CATCHUP_ROUNDS {
            let anti_entropy = now >= self.next_anti_entropy_at;
            self.run_round(net, now, anti_entropy);
            if anti_entropy {
                self.next_anti_entropy_at = now + self.config.anti_entropy_interval;
            }
            self.next_round_at += ROUND_INTERVAL;
            fired += 1;
        }
        if now >= self.next_round_at {
            // Backlog beyond the cap is dropped, not replayed later.
            self.next_round_at = now + ROUND_INTERVAL;
        }
        fired > 0
    }

    /// Run one gossip round unconditionally (tests and experiments).
    /// `anti_entropy` swaps full digests instead of (possibly delta) hot
    /// sets and may sample members currently believed dead — the safety net
    /// that re-establishes contact after partitions heal.
    pub fn run_round(&mut self, net: &mut SimNet, now: SimInstant, anti_entropy: bool) {
        let class = if anti_entropy {
            self.stats.anti_entropy_rounds += 1;
            ExchangeClass::AntiEntropy
        } else {
            self.stats.rounds += 1;
            ExchangeClass::Regular
        };
        let round_start = net.now();
        let round_span = net.tracer().open_with("gossip.round", round_start, || {
            if anti_entropy {
                "anti-entropy"
            } else {
                "regular"
            }
            .to_string()
        });
        let n = self.frontends.len();
        for i in 0..n {
            if self.frontends[i].departed || !net.is_online(self.frontends[i].peer) {
                continue;
            }
            // Heartbeat tick; the frontend is the authority on itself.
            // Fold the queries served since the last tick into the load
            // EWMA (half old, plus the new sample) so the advertised
            // signal tracks serving rate but survives one idle round.
            let f = &mut self.frontends[i];
            f.heartbeat += 1;
            f.load = f.load / 2 + f.load_recent;
            f.load_recent = 0;
            f.routed_recent = 0;
            let (peer, zone, inc, hb, load) = (f.peer, f.zone, f.incarnation, f.heartbeat, f.load);
            f.view.admit(peer, zone, inc, hb, now);
            f.view.note_load(peer, load);
            let mut partners = self.sample_partners(i, anti_entropy);
            // Zone-aware anti-entropy: when an in-zone live member's
            // advertised holdings confirm it covers this frontend's missing
            // shards, redirect one partner slot to it — the reconciling
            // bulk moves over the cheap links. The other sampled partners
            // (cross-zone escapes, dead probes) are untouched, and with no
            // covering candidate the sample is exactly the default one.
            if anti_entropy && self.config.zone_aware_anti_entropy {
                if let Some(p) = self.zone_covering_partner(net, i) {
                    partners.retain(|&x| x != p);
                    partners.insert(0, p);
                    partners.truncate(FANOUT);
                }
            }
            for p in partners {
                let Some(&j) = self.index_by_peer.get(&p) else {
                    continue;
                };
                if j == i {
                    continue;
                }
                self.exchange(net, i, j, now, class);
            }
            // Evict members that stayed silent past the liveness timeout.
            let evicted = self.frontends[i].view.evict_silent(now, LIVENESS_TIMEOUT);
            self.stats.evictions += evicted as u64;
        }
        // Batch-aware advertisements ride exactly one round: every active
        // frontend had its chance to push them, and the receivers now
        // advertise (and relay) the shards as their own holdings.
        for f in &mut self.frontends {
            if !f.departed {
                f.pending_adverts.clear();
            }
        }
        let end = net.now();
        net.tracer().close(round_span, end);
    }

    /// Frontend `i`'s zone-biased sample of `FANOUT` partners from the
    /// members *it* believes alive (`include_dead`: anti-entropy may probe
    /// dead ones).
    pub(crate) fn sample_partners(&mut self, i: usize, include_dead: bool) -> Vec<u64> {
        let f = &self.frontends[i];
        f.view.sample_partners(
            &mut self.rng,
            f.peer,
            f.zone,
            FANOUT,
            CROSS_ZONE_PROBABILITY,
            include_dead,
        )
    }

    /// Queue a batch window's freshly fetched `(term, version)` keys as
    /// priority advertisements of frontend `frontend`: they ride the next
    /// digest round (and lead its fill order) even when hot-set popularity
    /// alone would not have promoted them yet, so the rest of the fleet
    /// warms one round earlier. No-op while gossip or
    /// [`GossipConfig::batch_advertise`] is off.
    pub fn note_batch_fetches(&mut self, frontend: usize, terms: &[(String, u64)]) {
        const MAX_PENDING: usize = 256;
        if !self.config.enabled || !self.config.batch_advertise {
            return;
        }
        let f = &mut self.frontends[frontend];
        if f.departed {
            return;
        }
        for (term, version) in terms {
            if f.pending_adverts.len() >= MAX_PENDING {
                break;
            }
            if !f.pending_adverts.iter().any(|(t, _)| t == term) {
                f.pending_adverts.push((term.clone(), *version));
            }
        }
    }

    /// The in-zone live member frontend `i`'s own sync state confirms
    /// covers the most of its missing shards (known version > cached
    /// version): exact advertised holdings first, the partner's last
    /// holdings filter as the probabilistic fallback. Only local knowledge
    /// is consulted — the check costs no traffic. Returns the
    /// best-covering peer (ties broken by fleet order, so the choice is
    /// deterministic), or `None` when nothing is missing or no in-zone
    /// candidate confirms coverage of even one missing shard.
    fn zone_covering_partner(&self, net: &SimNet, i: usize) -> Option<u64> {
        let f = &self.frontends[i];
        let cache = &f.cache;
        let mut missing: Vec<(&str, u64)> = f
            .known
            .unordered()
            .filter(|&(term, version)| cache.cached_shard_version(term).is_none_or(|c| c < version))
            .collect();
        // The first `MAX_ZONE_AE_MISSING` in term order, as a set.
        if missing.len() > MAX_ZONE_AE_MISSING {
            missing.select_nth_unstable_by_key(MAX_ZONE_AE_MISSING, |&(term, _)| term);
            missing.truncate(MAX_ZONE_AE_MISSING);
        }
        if missing.is_empty() {
            return None;
        }
        let missing: Vec<(TermKey, u64)> = missing
            .into_iter()
            .map(|(term, version)| {
                let key = f.known.key_of(term).cloned();
                (key.unwrap_or_else(|| TermKey::of(term)), version)
            })
            .collect();
        let mut best: Option<(usize, u64)> = None; // (covered, peer)
        for (j, cand) in self.frontends.iter().enumerate() {
            if j == i || cand.departed || cand.zone != f.zone || !net.is_online(cand.peer) {
                continue;
            }
            let Some(sync) = f.sync.get(&cand.peer) else {
                continue;
            };
            let covered = missing
                .iter()
                .filter(|(term, version)| {
                    sync.holdings.get(term).map_or(0, DigestEntry::version) >= *version
                        || sync
                            .filter
                            .as_ref()
                            .is_some_and(|flt| flt.contains(FilterKey::of(term.term(), *version)))
                })
                .count();
            if covered > 0 && best.is_none_or(|(c, _)| covered > c) {
                best = Some((covered, cand.peer));
            }
        }
        best.map(|(_, peer)| peer)
    }

    // ----- segment artifacts -------------------------------------------------------

    /// The writer published a segment artifact: every active frontend that
    /// can currently observe the publish (same partition, online) adopts
    /// the pointer if it is newer than what it advertises. Mirrors
    /// [`GossipFleet::observe_publish`]'s free notification convention —
    /// the artifact itself was paid for by [`qb_segment::publish_segment`],
    /// and partitioned frontends pick the pointer up later from digest
    /// piggybacks.
    pub fn note_segment_published(&mut self, net: &SimNet, writer_peer: u64, sref: SegmentRef) {
        for f in &mut self.frontends {
            if f.departed || !net.can_reach(writer_peer, f.peer) {
                continue;
            }
            if f.segment_advert
                .is_none_or(|cur| cur.generation < sref.generation)
            {
                f.segment_advert = Some(sref);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DigestMode, FAILURE_THRESHOLD};
    use crate::digest::note_holding;
    use crate::filter::ShardFilter;
    use proptest::prelude::*;
    use qb_cache::config::ADAPTIVE_TTL_CEILING;
    use qb_common::SimDuration;
    use qb_index::{ShardEntry, ShardPosting};
    use qb_segment::Segment;
    use qb_simnet::NetConfig;
    use qb_storage::StorageNetwork;
    use std::sync::Arc;

    fn shard(term: &str, version: u64, docs: usize) -> ShardEntry {
        let mut s = ShardEntry::empty(term);
        s.version = version;
        for i in 0..docs as u64 {
            s.upsert(ShardPosting {
                doc_id: i * 7 + 1,
                term_freq: 2,
                doc_len: 50,
                name: format!("page/{term}/{i}").into(),
                version: 1,
                creator: 1,
            });
        }
        s
    }

    fn fleet(n: usize) -> (GossipFleet, SimNet) {
        let net = SimNet::new(n + 8, NetConfig::lan(), 7);
        let fleet = GossipFleet::new(GossipConfig::enabled(n), &CacheConfig::enabled(), 0xF1EE7);
        (fleet, net)
    }

    fn fleet_with(config: GossipConfig, peers: usize) -> (GossipFleet, SimNet) {
        let net = SimNet::new(peers, NetConfig::lan(), 7);
        let fleet = GossipFleet::new(config, &CacheConfig::enabled(), 0xF1EE7);
        (fleet, net)
    }

    #[test]
    fn one_frontends_fetch_warms_the_fleet() {
        let (mut fleet, mut net) = fleet(3);
        let now = SimInstant::ZERO;
        fleet.cache_mut(0).store_shard(&shard("honey", 2, 4), now);
        fleet.observe(0, "honey", 2);
        fleet.run_round(&mut net, now, false);
        for i in 1..3 {
            assert_eq!(
                fleet.frontend(i).cache().cached_shard_version("honey"),
                Some(2),
                "frontend {i} should have been warmed"
            );
            assert_eq!(fleet.frontend(i).known.get("honey"), 2);
        }
        let s = fleet.stats();
        assert!(s.shards_accepted >= 2);
        assert!(s.digest_bytes > 0 && s.fill_bytes > 0);
        assert!(s.membership_bytes > 0, "summaries ride every exchange");
        assert_eq!(s.stale_rejected, 0);
        // A second round moves nothing new.
        let accepted_before = fleet.stats().shards_accepted;
        fleet.run_round(&mut net, now, false);
        assert_eq!(fleet.stats().shards_accepted, accepted_before);
    }

    #[test]
    fn traced_round_yields_exchange_and_fill_spans() {
        let (mut fleet, mut net) = fleet(3);
        net.set_tracing(true);
        let now = SimInstant::ZERO;
        fleet.cache_mut(0).store_shard(&shard("nectar", 2, 4), now);
        fleet.observe(0, "nectar", 2);
        fleet.run_round(&mut net, now, false);
        let stats = *fleet.stats();
        let trace = net.take_trace();
        let round = trace.named("gossip.round").next().expect("round span");
        assert_eq!(round.detail, "regular");
        // Every completed or failed exchange opened a span under the round.
        assert_eq!(
            trace.named("gossip.exchange").count() as u64,
            stats.exchanges + stats.failed_exchanges
        );
        for ex in trace.named("gossip.exchange") {
            assert_eq!(trace.root_of(ex.id), round.id);
            // The digest swap RPC nests inside its exchange.
            assert!(trace.children(ex.id).any(|s| s.name == "rpc"));
        }
        assert!(
            trace.named("gossip.fill").count() >= 1,
            "the warming round pushes at least one fill batch"
        );
        // Tracing observed the round without perturbing it: an identically
        // seeded untraced fleet accumulates identical stats.
        let (mut fleet2, mut net2) = fleet_with(GossipConfig::enabled(3), 3 + 8);
        fleet2.cache_mut(0).store_shard(&shard("nectar", 2, 4), now);
        fleet2.observe(0, "nectar", 2);
        fleet2.run_round(&mut net2, now, false);
        assert_eq!(*fleet2.stats(), stats);
    }

    #[test]
    fn delta_digests_go_quiet_once_the_fleet_converges() {
        let (mut fleet, mut net) = fleet(4);
        let now = SimInstant::ZERO;
        for t in 0..32 {
            let s = shard(&format!("term{t}"), 1, 3);
            fleet.cache_mut(0).store_shard(&s, now);
            fleet.observe(0, &s.term, 1);
        }
        for _ in 0..4 {
            fleet.run_round(&mut net, now, false);
        }
        let converged = *fleet.stats();
        // Steady state: deltas are empty, so digest traffic collapses to
        // the filters while full digests would keep re-shipping the terms.
        fleet.run_round(&mut net, now, false);
        let after = *fleet.stats();
        let steady_digest = after.digest_bytes - converged.digest_bytes;
        let steady_exchanges = after.exchanges - converged.exchanges;
        assert!(steady_exchanges > 0);
        let per_exchange = steady_digest / steady_exchanges;
        // A full digest of 32 terms costs ~16 + 32*(len+9) > 400 bytes per
        // direction; the converged delta path must be far below one such
        // digest for *both* directions combined.
        assert!(
            per_exchange < 200,
            "converged delta exchange still ships {per_exchange} digest bytes"
        );
        assert_eq!(after.shards_accepted, converged.shards_accepted);
    }

    #[test]
    fn full_digest_mode_preserves_the_uncompressed_protocol() {
        let mut config = GossipConfig::enabled(3);
        config.digest_mode = DigestMode::Full;
        let (mut fleet, mut net) = fleet_with(config, 12);
        let now = SimInstant::ZERO;
        fleet.cache_mut(0).store_shard(&shard("honey", 2, 4), now);
        fleet.observe(0, "honey", 2);
        fleet.run_round(&mut net, now, false);
        for i in 1..3 {
            assert_eq!(
                fleet.frontend(i).cache().cached_shard_version("honey"),
                Some(2)
            );
        }
        // Full digests re-ship the whole hot set every round.
        let before = fleet.stats().digest_bytes;
        fleet.run_round(&mut net, now, false);
        let per_round = fleet.stats().digest_bytes - before;
        assert!(per_round > 0);
        assert_eq!(fleet.stats().stale_rejected, 0);
    }

    #[test]
    fn maybe_run_respects_intervals_and_enablement() {
        let (mut fleet, mut net) = fleet(2);
        let interval = ROUND_INTERVAL;
        assert!(!fleet.maybe_run(&mut net, SimInstant::ZERO), "not due yet");
        assert!(fleet.maybe_run(&mut net, SimInstant::ZERO + interval));
        assert!(
            !fleet.maybe_run(&mut net, SimInstant::ZERO + interval),
            "same instant must not double-fire"
        );
        // Disabled overlay never runs.
        let net2 = SimNet::new(8, NetConfig::lan(), 1);
        let mut off = GossipFleet::new(GossipConfig::fleet(2), &CacheConfig::enabled(), 1);
        let mut net2 = net2;
        assert!(!off.maybe_run(&mut net2, SimInstant::ZERO + interval));
        assert_eq!(off.stats().rounds, 0);
    }

    #[test]
    fn partitioned_frontends_fail_exchanges_then_recover() {
        let (mut fleet, mut net) = fleet(2);
        let now = SimInstant::ZERO;
        fleet.cache_mut(0).store_shard(&shard("nectar", 1, 3), now);
        net.set_partition(fleet.frontend_peer(1), 9);
        fleet.run_round(&mut net, now, false);
        assert!(fleet.stats().failed_exchanges > 0);
        assert_eq!(
            fleet.frontend(1).cache().cached_shard_version("nectar"),
            None
        );
        net.heal_all();
        fleet.run_round(&mut net, now, true);
        assert_eq!(
            fleet.frontend(1).cache().cached_shard_version("nectar"),
            Some(1)
        );
        assert_eq!(fleet.stats().anti_entropy_rounds, 1);
    }

    #[test]
    fn stale_copies_are_rejected_by_the_version_guard() {
        let (mut fleet, mut net) = fleet(2);
        let now = SimInstant::ZERO;
        // Frontend 0 still holds v1; frontend 1 observed the v2 republish
        // (e.g. through a publish event) but has nothing cached.
        fleet.cache_mut(0).store_shard(&shard("news", 1, 2), now);
        fleet.observe(1, "news", 2);
        fleet.run_round(&mut net, now, false);
        assert_eq!(
            fleet.frontend(1).cache().cached_shard_version("news"),
            None,
            "a stale shard must never be accepted over fresher knowledge"
        );
        assert!(fleet.stats().stale_rejected > 0);
    }

    #[test]
    fn warm_start_round_trips_through_the_fleet() {
        let (mut fleet, _net) = fleet(2);
        let now = SimInstant::ZERO;
        fleet.cache_mut(0).store_shard(&shard("alpha", 3, 2), now);
        fleet.cache_mut(0).store_shard(&shard("beta", 1, 2), now);
        let snapshot = Segment::export(fleet.frontend(0).cache(), 8, now).encode();
        let segment = Segment::decode(&snapshot).unwrap();
        let report = fleet.frontend_mut(1).import_segment(&segment, now);
        assert_eq!(report.accepted, 2);
        assert_eq!(
            fleet.frontend(1).cache().cached_shard_version("alpha"),
            Some(3)
        );
        assert_eq!(fleet.frontend(1).known.get("alpha"), 3);
    }

    #[test]
    fn a_joining_frontend_bootstraps_from_a_live_neighbour() {
        let (mut fleet, mut net) = fleet(3);
        let now = SimInstant::ZERO;
        for t in 0..8 {
            let s = shard(&format!("hot{t}"), 1, 3);
            fleet.cache_mut(0).store_shard(&s, now);
            fleet.observe(0, &s.term, 1);
        }
        fleet.run_round(&mut net, now, false);
        // A new frontend joins on a fresh peer and warms itself from the
        // fleet (bootstrap-by-anti-entropy) without touching the DHT.
        let idx = fleet.join(&mut net, 5, now).expect("free peer joins");
        assert_eq!(idx, 3);
        assert!(
            fleet.join(&mut net, 0, now).is_err(),
            "a peer already hosting a frontend cannot join again"
        );
        assert_eq!(fleet.len(), 4);
        assert_eq!(fleet.active_count(), 4);
        assert!(fleet.is_active(idx));
        assert_eq!(fleet.stats().joins, 1);
        let warmed = (0..8)
            .filter(|t| {
                fleet
                    .frontend(idx)
                    .cache()
                    .cached_shard_version(&format!("hot{t}"))
                    .is_some()
            })
            .count();
        assert_eq!(warmed, 8, "bootstrap must move the neighbour's hot set");
        // The joiner learned the fleet roster from the neighbour's summary.
        assert!(fleet.frontend(idx).view().len() >= 4);
        // And the fleet learns the joiner through subsequent rounds.
        fleet.run_round(&mut net, now, false);
        assert!(fleet.frontend(0).view().get(5).is_some());
    }

    #[test]
    fn graceful_leave_and_crash_shrink_the_sample_set() {
        let (mut fleet, mut net) = fleet(4);
        let now = SimInstant::ZERO;
        fleet.run_round(&mut net, now, false);
        fleet.leave(&mut net, 3);
        assert!(!fleet.is_active(3));
        assert_eq!(fleet.active_count(), 3);
        assert_eq!(fleet.stats().leaves, 1);
        assert!(!net.is_online(fleet.frontend_peer(3)));

        fleet.crash(&mut net, 2);
        assert_eq!(fleet.stats().crashes, 1);
        assert_eq!(fleet.active_count(), 2);
        // Enough failed exchanges mark the crashed member dead in the
        // survivors' views even before the liveness timeout.
        for _ in 0..(FAILURE_THRESHOLD as usize * 4) {
            fleet.run_round(&mut net, now, false);
        }
        for i in 0..2 {
            let view = fleet.frontend(i).view();
            if let Some(m) = view.get(fleet.frontend_peer(2)) {
                assert!(!m.alive, "survivor {i} must evict the crashed member");
            }
        }
        assert!(fleet.stats().evictions > 0);
    }

    #[test]
    fn silent_members_are_evicted_by_the_liveness_timeout() {
        let (mut fleet, mut net) = fleet_with(GossipConfig::enabled(3), 12);
        let t0 = SimInstant::ZERO + SimDuration::from_millis(100);
        fleet.run_round(&mut net, t0, false);
        fleet.crash(&mut net, 2);
        // One round makes at most `FANOUT` failed exchanges per frontend,
        // fewer than the threshold: only the timeout can evict here.
        assert!(FANOUT < FAILURE_THRESHOLD as usize);
        let late = t0 + LIVENESS_TIMEOUT + SimDuration::from_millis(1);
        fleet.run_round(&mut net, late, false);
        for i in 0..2 {
            let m = fleet.frontend(i).view().get(fleet.frontend_peer(2));
            assert!(
                m.is_none_or(|m| !m.alive),
                "frontend {i} must time the silent member out"
            );
        }
    }

    #[test]
    fn a_rejoined_frontend_is_revived_and_rewarmed() {
        let (mut fleet, mut net) = fleet(3);
        let now = SimInstant::ZERO;
        fleet.cache_mut(0).store_shard(&shard("honey", 2, 4), now);
        fleet.observe(0, "honey", 2);
        fleet.run_round(&mut net, now, false);
        assert_eq!(
            fleet.frontend(2).cache().cached_shard_version("honey"),
            Some(2)
        );
        fleet.crash(&mut net, 2);
        for _ in 0..(FAILURE_THRESHOLD as usize * 4) {
            fleet.run_round(&mut net, now, false);
        }
        // Restart: fresh cache, but the bootstrap exchange re-warms it from
        // the fleet (not the DHT) before it serves anything.
        fleet.rejoin(&mut net, 2, now);
        assert!(fleet.is_active(2));
        assert_eq!(
            fleet.frontend(2).cache().cached_shard_version("honey"),
            Some(2),
            "rejoin must warm from the fleet"
        );
        // The bumped heartbeat revives it in the survivors' views as the
        // rounds spread the news.
        for _ in 0..3 {
            fleet.run_round(&mut net, now, false);
        }
        let m = fleet.frontend(0).view().get(fleet.frontend_peer(2));
        assert!(
            m.is_some_and(|m| m.alive),
            "rejoined member must be revived"
        );
    }

    #[test]
    fn batch_adverts_ride_the_next_round_ahead_of_popularity() {
        // A tiny hot set: the two popular terms fill every digest, so a
        // freshly fetched (zero-popularity) shard would normally wait for
        // anti-entropy. A batch advert promotes it into the very next
        // round.
        let mut config = GossipConfig::enabled(3);
        config.hot_set_size = 2;
        config.max_fills_per_exchange = 2;
        let run = |batch_advertise: bool| -> (Option<u64>, u64) {
            let mut config = config.clone();
            config.batch_advertise = batch_advertise;
            let (mut fleet, mut net) = fleet_with(config, 12);
            let now = SimInstant::ZERO;
            for term in ["hotA", "hotB"] {
                fleet.cache_mut(0).store_shard(&shard(term, 1, 3), now);
                fleet.observe(0, term, 1);
                for _ in 0..8 {
                    let _ = fleet.cache_mut(0).lookup_shard(term, now, 1);
                }
            }
            // The batch window's fresh fetch: cold in popularity terms.
            fleet.cache_mut(0).store_shard(&shard("fresh", 2, 3), now);
            fleet.observe(0, "fresh", 2);
            fleet.note_batch_fetches(0, &[("fresh".to_string(), 2)]);
            fleet.run_round(&mut net, now, false);
            let warmed = (1..3)
                .filter_map(|i| fleet.frontend(i).cache().cached_shard_version("fresh"))
                .max();
            (warmed, fleet.stats().batch_adverts)
        };
        let (without, adverts_off) = run(false);
        assert_eq!(without, None, "below the hot-set cut: nothing moves");
        assert_eq!(adverts_off, 0);
        let (with, adverts_on) = run(true);
        assert_eq!(with, Some(2), "the advert warms a partner one round early");
        assert!(adverts_on > 0);
        // Adverts ride exactly one round, then the queue drains.
        let mut config2 = config.clone();
        config2.batch_advertise = true;
        let (mut fleet, mut net) = fleet_with(config2, 12);
        fleet
            .cache_mut(0)
            .store_shard(&shard("fresh", 2, 3), SimInstant::ZERO);
        fleet.note_batch_fetches(0, &[("fresh".to_string(), 2)]);
        assert_eq!(fleet.frontend(0).pending_adverts.len(), 1);
        fleet.run_round(&mut net, SimInstant::ZERO, false);
        assert!(fleet.frontend(0).pending_adverts.is_empty());
    }

    #[test]
    fn holdings_filter_is_reused_while_nothing_changes() {
        let (mut fleet, mut net) = fleet(3);
        let now = SimInstant::ZERO;
        for t in 0..8 {
            let s = shard(&format!("term{t}"), 1, 3);
            fleet.cache_mut(0).store_shard(&s, now);
            fleet.observe(0, &s.term, 1);
        }
        // Round 1 moves fills (caches mutate: filters rebuild). Run more
        // rounds at the same instant once the fleet converged: holdings
        // stop changing, so every frontend serves its cached filter.
        for _ in 0..3 {
            fleet.run_round(&mut net, now, false);
        }
        let converged = *fleet.stats();
        assert!(converged.filter_builds > 0);
        // Each frontend's filter is stored beside the listing it was built
        // over.
        let filters: Vec<Arc<ShardFilter>> = (0..3)
            .map(|i| {
                let memo = &fleet.frontend(i).listing;
                memo.filter.clone().expect("a delta round built it")
            })
            .collect();
        fleet.run_round(&mut net, now, false);
        let after = *fleet.stats();
        let builds = after.filter_builds - converged.filter_builds;
        let reuses = after.filter_reuses - converged.filter_reuses;
        assert_eq!(builds, 0, "steady round must not rebuild any filter");
        assert!(
            reuses >= (after.exchanges - converged.exchanges) * 2,
            "both sides of every steady exchange reuse ({reuses})"
        );
        for (i, filter) in filters.iter().enumerate() {
            let kept = fleet.frontend(i).listing.filter.as_ref();
            assert!(kept.is_some_and(|kept| Arc::ptr_eq(kept, filter)), "{i}");
        }
        // A holdings change is a new listing, which comes without a filter.
        fleet.cache_mut(0).store_shard(&shard("newterm", 1, 2), now);
        fleet.frontends[0].ranked_holdings(now);
        assert!(fleet.frontend(0).listing.filter.is_none());
        fleet.run_round(&mut net, now, false);
        assert!(fleet.stats().filter_builds > after.filter_builds);
        let rebuilt = fleet.frontend(0).listing.filter.as_ref();
        assert!(rebuilt.is_some_and(|rebuilt| !Arc::ptr_eq(rebuilt, &filters[0])));
    }

    #[test]
    fn rejoin_bumps_the_incarnation_and_resets_the_heartbeat() {
        let (mut fleet, mut net) = fleet(3);
        let now = SimInstant::ZERO;
        for _ in 0..5 {
            fleet.run_round(&mut net, now, false);
        }
        let old_heartbeat = fleet.frontend(2).heartbeat();
        assert!(old_heartbeat >= 5);
        assert_eq!(fleet.frontend(2).incarnation(), 0);
        assert!(
            fleet.frontend(2).summary_cursor > 0,
            "regular rounds rotate the membership-summary cursor"
        );
        fleet.crash(&mut net, 2);
        fleet.rejoin(&mut net, 2, now);
        assert_eq!(fleet.frontend(2).incarnation(), 1, "restart bumps epoch");
        assert_eq!(
            fleet.frontend(2).heartbeat(),
            0,
            "a restarted process remembers no counter"
        );
        assert_eq!(
            fleet.frontend(2).summary_cursor,
            0,
            "nor where its summaries had rotated to"
        );
        // Despite the lower heartbeat, the bumped incarnation makes the
        // rejoined member's gossip supersede every stale view of it.
        for _ in 0..3 {
            fleet.run_round(&mut net, now, false);
        }
        let seen = fleet
            .frontend(0)
            .view()
            .get(fleet.frontend_peer(2))
            .expect("known member");
        assert!(seen.alive);
        assert_eq!(seen.incarnation, 1);
        assert!(seen.heartbeat < old_heartbeat);
    }

    #[test]
    fn zone_bias_shapes_partner_choice() {
        let (mut fleet, mut net) = fleet_with(GossipConfig::enabled_zoned(12, 3), 24);
        assert_eq!(fleet.frontend(0).zone, 0);
        assert_eq!(fleet.frontend(4).zone, 1);
        assert_eq!(fleet.frontend(11).zone, 2);
        let now = SimInstant::ZERO;
        for _ in 0..20 {
            fleet.run_round(&mut net, now, false);
        }
        // Exchanges happened and nothing was evicted in a healthy fleet.
        assert!(fleet.stats().exchanges > 0);
        assert_eq!(fleet.stats().evictions, 0);
    }

    #[test]
    fn fill_bytes_are_split_by_zone_class() {
        // An unzoned overlay charges every fill as intra-zone.
        let (mut fleet, mut net) = fleet(3);
        let now = SimInstant::ZERO;
        fleet.cache_mut(0).store_shard(&shard("honey", 2, 4), now);
        fleet.observe(0, "honey", 2);
        fleet.run_round(&mut net, now, false);
        let s = *fleet.stats();
        assert!(s.fill_bytes > 0);
        assert_eq!(s.intra_zone_fill_bytes, s.fill_bytes);
        assert_eq!(s.cross_zone_fill_bytes, 0);

        // A zoned overlay splits by whether the pair shares a zone label,
        // and the two slices always sum to the total.
        let (mut fleet, mut net) = fleet_with(GossipConfig::enabled_zoned(12, 3), 24);
        for t in 0..24 {
            let s = shard(&format!("term{t}"), 1, 3);
            fleet.cache_mut(0).store_shard(&s, now);
            fleet.observe(0, &s.term, 1);
        }
        for _ in 0..10 {
            fleet.run_round(&mut net, now, false);
        }
        let s = *fleet.stats();
        assert!(s.intra_zone_fill_bytes > 0);
        assert!(s.cross_zone_fill_bytes > 0);
        assert_eq!(
            s.intra_zone_fill_bytes + s.cross_zone_fill_bytes,
            s.fill_bytes
        );
    }

    #[test]
    fn zone_budgets_throttle_cross_zone_fills() {
        let run = |zone_budgets: bool| -> GossipStats {
            let mut config = GossipConfig::enabled_zoned(12, 3);
            config.zone_fill_budgets = zone_budgets;
            config.max_fills_per_exchange = 8;
            // No anti-entropy inside the horizon: it reconciles at the flat
            // budget and would blur the per-round accounting.
            config.anti_entropy_interval = SimDuration::from_secs(3_600);
            let (mut fleet, mut net) = fleet_with(config, 24);
            let now = SimInstant::ZERO;
            for t in 0..24 {
                let s = shard(&format!("term{t}"), 1, 3);
                fleet.cache_mut(0).store_shard(&s, now);
                fleet.observe(0, &s.term, 1);
            }
            for _ in 0..3 {
                fleet.run_round(&mut net, now, false);
            }
            *fleet.stats()
        };
        let flat = run(false);
        let zoned = run(true);
        assert!(
            zoned.cross_zone_fill_bytes < flat.cross_zone_fill_bytes,
            "the cross-zone cap must cut cross-zone fill bytes ({} vs {})",
            zoned.cross_zone_fill_bytes,
            flat.cross_zone_fill_bytes
        );
    }

    fn segment_stack(n: usize) -> (SimNet, qb_dht::DhtNetwork, StorageNetwork) {
        let mut net = SimNet::new(n, NetConfig::lan(), 7);
        let dht = qb_dht::DhtNetwork::build(&mut net, qb_dht::DhtConfig::small());
        let storage = StorageNetwork::new(n, qb_storage::StorageConfig::small());
        (net, dht, storage)
    }

    #[test]
    fn segment_join_bootstraps_from_the_artifact() {
        let (mut net, mut dht, mut storage) = segment_stack(16);
        let mut fleet =
            GossipFleet::new(GossipConfig::enabled(3), &CacheConfig::enabled(), 0xF1EE7);
        let now = SimInstant::ZERO;
        for t in 0..6 {
            let s = shard(&format!("term{t}"), 2, 3);
            fleet.cache_mut(0).store_shard(&s, now);
            fleet.observe(0, &s.term, 2);
        }
        // The writer publishes the artifact and notifies the fleet.
        let segment = Segment::export(fleet.frontend(0).cache(), usize::MAX, now);
        let (sref, _) =
            qb_segment::publish_segment(&mut net, &mut dht, &mut storage, 0, &segment, 1).unwrap();
        fleet.note_segment_published(&net, 0, sref);
        assert_eq!(fleet.frontend(1).segment_advert, Some(sref));

        let before = net.stats().clone();
        let (idx, report) = fleet
            .join_with_segment(&mut net, &mut dht, &mut storage, 9, now)
            .unwrap();
        assert!(report.used_segment);
        assert_eq!(report.generation, 1);
        assert_eq!(report.imported.accepted, 6);
        assert!(report.fetch_bytes > 0);
        for t in 0..6 {
            let term = format!("term{t}");
            assert_eq!(
                fleet.frontend(idx).cache().cached_shard_version(&term),
                Some(2),
                "joiner must hold {term} from the artifact"
            );
            assert_eq!(fleet.frontend(idx).known.get(&term), 2);
        }
        // The joiner now advertises the artifact itself, and every byte of
        // the probe + fetch showed up on the network.
        assert_eq!(fleet.frontend(idx).segment_advert, Some(sref));
        assert!(fleet.stats().segment_advert_bytes > 0);
        let delta = net.stats().delta_since(&before);
        assert!(delta.bytes >= report.fetch_bytes, "no free fetch bytes");
    }

    #[test]
    fn segment_join_falls_back_to_gossip_bootstrap() {
        let (mut net, mut dht, mut storage) = segment_stack(16);
        let mut fleet =
            GossipFleet::new(GossipConfig::enabled(3), &CacheConfig::enabled(), 0xF1EE7);
        let now = SimInstant::ZERO;
        fleet.cache_mut(0).store_shard(&shard("honey", 2, 4), now);
        fleet.observe(0, "honey", 2);
        // Converge the veterans so any bootstrap neighbour can warm the
        // joiner.
        fleet.run_round(&mut net, now, false);
        // Nobody advertises an artifact: the join probes, then warms the
        // classic way.
        let (idx, report) = fleet
            .join_with_segment(&mut net, &mut dht, &mut storage, 9, now)
            .unwrap();
        assert!(!report.used_segment);
        assert!(report.advert_probes > 0);
        assert_eq!(report.imported.accepted, 0);
        assert_eq!(
            fleet.frontend(idx).cache().cached_shard_version("honey"),
            Some(2),
            "fallback bootstrap must still warm the joiner"
        );
    }

    #[test]
    fn bootstrap_fill_bytes_are_split_from_steady_state() {
        let (mut fleet, mut net) = fleet(3);
        let now = SimInstant::ZERO;
        for t in 0..5 {
            let s = shard(&format!("term{t}"), 1, 3);
            fleet.cache_mut(0).store_shard(&s, now);
            fleet.observe(0, &s.term, 1);
        }
        // Converge the veterans, then measure the join against that floor:
        // everything a join's warm-up moves is bootstrap-class.
        fleet.run_round(&mut net, now, false);
        let fill_floor = fleet.stats().fill_bytes;
        fleet.join(&mut net, 7, now).unwrap();
        let s = fleet.stats();
        assert!(s.bootstrap_fill_bytes > 0, "join warm-up must be classed");
        assert_eq!(s.bootstrap_fill_bytes, s.fill_bytes - fill_floor);
        assert_eq!(s.anti_entropy_fill_bytes, 0);
        // Steady-state rounds grow fill_bytes but not the bootstrap class.
        let bootstrap_before = s.bootstrap_fill_bytes;
        let fill_before = s.fill_bytes;
        fleet.cache_mut(0).store_shard(&shard("fresh", 1, 2), now);
        fleet.observe(0, "fresh", 1);
        fleet.run_round(&mut net, now, false);
        let s = fleet.stats();
        assert!(s.fill_bytes > fill_before);
        assert_eq!(s.bootstrap_fill_bytes, bootstrap_before);
        // An anti-entropy round lands in its own class too.
        fleet.cache_mut(0).store_shard(&shard("late", 3, 2), now);
        fleet.observe(0, "late", 3);
        fleet.run_round(&mut net, now, true);
        let s = fleet.stats();
        assert!(s.anti_entropy_fill_bytes > 0);
        assert_eq!(s.bootstrap_fill_bytes, bootstrap_before);
        assert_eq!(
            s.intra_zone_fill_bytes + s.cross_zone_fill_bytes,
            s.fill_bytes,
            "class overlays never break the zone split invariant"
        );
    }

    #[test]
    fn zone_covering_partner_requires_confirmed_in_zone_coverage() {
        let mut config = GossipConfig::enabled_zoned(4, 2);
        config.zone_aware_anti_entropy = true;
        let (mut fleet, net) = fleet_with(config, 12);
        let now = SimInstant::ZERO;
        // Frontend 0 (zone 0) knows of a shard it does not hold.
        fleet.observe(0, "missing", 3);
        // Nothing known about any partner yet: no candidate qualifies.
        assert_eq!(fleet.zone_covering_partner(&net, 0), None);
        let believe = |fleet: &mut GossipFleet, partner: u64, version: u64| {
            let view = &mut fleet.frontends[0].sync.entry(partner).or_default().holdings;
            note_holding(view, &DigestEntry::new("missing", version));
        };
        // Frontend 1 (zone 1) advertises coverage — wrong zone, skipped.
        believe(&mut fleet, 1, 3);
        assert_eq!(fleet.zone_covering_partner(&net, 0), None);
        // Frontend 2 (zone 0) advertises an older version: not coverage.
        believe(&mut fleet, 2, 2);
        assert_eq!(fleet.zone_covering_partner(&net, 0), None);
        // Fresh enough: the in-zone member is chosen.
        believe(&mut fleet, 2, 3);
        assert_eq!(fleet.zone_covering_partner(&net, 0), Some(2));
        // The partner's holdings filter alone also confirms coverage.
        let sync = fleet.frontends[0].sync.entry(2).or_default();
        sync.holdings.clear();
        sync.filter = Some(Arc::new(ShardFilter::build(
            [FilterKey::of("missing", 3)].into_iter(),
            8,
        )));
        assert_eq!(fleet.zone_covering_partner(&net, 0), Some(2));
        // Nothing missing → no redirection at all.
        fleet.cache_mut(0).store_shard(&shard("missing", 3, 2), now);
        assert_eq!(fleet.zone_covering_partner(&net, 0), None);
    }

    #[test]
    fn zone_coverage_weighs_the_first_missing_terms_in_term_order() {
        let mut config = GossipConfig::enabled_zoned(6, 2);
        config.zone_aware_anti_entropy = true;
        let (mut fleet, net) = fleet_with(config, 12);
        // Frontend 0 knows of m00..m40 and holds only m05: 40 missing terms,
        // of which the first 32 in term order run m00..m04, m06..m32.
        for t in 0..=40 {
            fleet.observe(0, &format!("m{t:02}"), 1);
        }
        fleet
            .cache_mut(0)
            .store_shard(&shard("m05", 1, 2), SimInstant::ZERO);
        let believe = |fleet: &mut GossipFleet, partner: u64, terms: &[usize]| {
            let view = &mut fleet.frontends[0].sync.entry(partner).or_default().holdings;
            view.clear();
            for t in terms {
                note_holding(view, &DigestEntry::new(format!("m{t:02}"), 1));
            }
        };
        // Frontend 2 covers ten missing terms, two of them inside the cut;
        // frontend 4, in the same zone, covers three inside it.
        believe(&mut fleet, 2, &(31..=40).collect::<Vec<_>>());
        believe(&mut fleet, 4, &[0, 1, 2]);
        assert_eq!(fleet.zone_covering_partner(&net, 0), Some(4));
        // Two each inside the cut: the tie goes to fleet order. A cut one
        // term shorter (or one counting the held m05) would still pick 4.
        believe(&mut fleet, 4, &[0, 1]);
        assert_eq!(fleet.zone_covering_partner(&net, 0), Some(2));
    }

    #[test]
    fn zone_aware_anti_entropy_cuts_cross_zone_reconciliation_bytes() {
        let run = |zone_aware: bool| -> GossipStats {
            let mut config = GossipConfig::enabled_zoned(8, 2);
            config.zone_aware_anti_entropy = zone_aware;
            let (mut fleet, mut net) = fleet_with(config, 16);
            let now = SimInstant::ZERO;
            // Every zone has a fully-stocked member, so in-zone coverage
            // exists for everything a frontend may miss.
            for owner in [0usize, 1usize] {
                for t in 0..10 {
                    let s = shard(&format!("term{t}"), 2, 3);
                    fleet.cache_mut(owner).store_shard(&s, now);
                }
            }
            for i in 0..8 {
                for t in 0..10 {
                    fleet.observe(i, &format!("term{t}"), 2);
                }
            }
            // One regular round establishes per-partner sync state (and
            // some fills); anti-entropy rounds then reconcile the rest.
            fleet.run_round(&mut net, now, false);
            for _ in 0..4 {
                fleet.run_round(&mut net, now, true);
            }
            *fleet.stats()
        };
        let blind = run(false);
        let aware = run(true);
        assert!(
            aware.anti_entropy_cross_zone_fill_bytes <= blind.anti_entropy_cross_zone_fill_bytes,
            "zone-aware anti-entropy must not add cross-zone bytes ({} vs {})",
            aware.anti_entropy_cross_zone_fill_bytes,
            blind.anti_entropy_cross_zone_fill_bytes
        );
        // Reconciliation itself is unweakened: everyone converged.
        assert!(aware.anti_entropy_fill_bytes > 0 || aware.fill_bytes > 0);
    }

    // ----- settled records: every way one must die ---------------------------------

    /// Two frontends over `config`, frontend 0 holding `terms` shards,
    /// exchanged until a repetition short-circuits: the first exchange
    /// moves the fills, the second finds nothing to push and records it on
    /// both sides, the third is recognised by both.
    fn settled_pair(config: GossipConfig, terms: usize) -> (GossipFleet, SimNet) {
        let hot = terms.min(config.hot_set_size);
        let (mut fleet, mut net) = fleet_with(config, 10);
        let now = SimInstant::ZERO;
        for t in 0..terms {
            let s = shard(&format!("term{t}"), 1, 3);
            fleet.cache_mut(0).store_shard(&s, now);
            fleet.observe(0, &s.term, 1);
        }
        for _ in 0..3 {
            assert!(fleet.exchange(&mut net, 0, 1, now, ExchangeClass::Regular));
        }
        let s = fleet.stats();
        assert_eq!(s.shards_accepted, hot as u64, "the hot set moved");
        assert_eq!(s.settled_sides, 2, "the third exchange skips both scans");
        (fleet, net)
    }

    /// One regular exchange between the pair; returns what it added to
    /// `(digest_bytes, shards_accepted, settled_sides)`.
    fn regular_exchange(fleet: &mut GossipFleet, net: &mut SimNet) -> (u64, u64, u64) {
        let before = *fleet.stats();
        let swapped = fleet.exchange(net, 0, 1, SimInstant::ZERO, ExchangeClass::Regular);
        let after = fleet.stats();
        assert_eq!(swapped, after.exchanges > before.exchanges);
        (
            after.digest_bytes - before.digest_bytes,
            after.shards_accepted - before.shards_accepted,
            after.settled_sides - before.settled_sides,
        )
    }

    #[test]
    fn a_settled_partner_that_drops_a_shard_is_refilled() {
        let (mut fleet, mut net) = settled_pair(GossipConfig::enabled(2), 8);
        let now = SimInstant::ZERO;
        // Frontend 1 loses a shard it was told of and acknowledged: its
        // listing, hence its filter, is a new one, so frontend 0's record
        // no longer applies and the scan finds the unconfirmed belief.
        assert_eq!(fleet.cache_mut(1).invalidate_term("term3", now), 1);
        let (_, accepted, settled) = regular_exchange(&mut fleet, &mut net);
        assert_eq!(accepted, 1, "the dropped shard is pushed again");
        assert_eq!(
            fleet.frontend(1).cache().cached_shard_version("term3"),
            Some(1)
        );
        assert_eq!(settled, 0, "neither side saw what it had settled on");
        // The refill changed frontend 1's tier once more; after that the
        // pair goes quiet again.
        regular_exchange(&mut fleet, &mut net);
        assert_eq!(
            regular_exchange(&mut fleet, &mut net),
            (2 * (16 + 12), 0, 2)
        );
    }

    #[test]
    fn a_publish_invalidation_rides_the_next_delta() {
        let (mut fleet, mut net) = settled_pair(GossipConfig::enabled(2), 8);
        let now = SimInstant::ZERO;
        let (quiet, _, _) = regular_exchange(&mut fleet, &mut net);
        assert_eq!(
            quiet,
            2 * (16 + 12),
            "two empty deltas, two 8-entry filters"
        );
        // A republish invalidates `term3` on both frontends; frontend 0
        // refetches the new version. Its listing changed, so its record is
        // void: the bumped pair rides the delta and the shard follows.
        fleet.observe_publish(&net, 9, "term3", 2, now);
        fleet.cache_mut(0).store_shard(&shard("term3", 2, 3), now);
        let (loud, accepted, settled) = regular_exchange(&mut fleet, &mut net);
        assert_eq!(loud, quiet + ("term3".len() + 9) as u64);
        assert_eq!((accepted, settled), (1, 0));
        assert_eq!(
            fleet.frontend(1).cache().cached_shard_version("term3"),
            Some(2)
        );
    }

    #[test]
    fn a_listing_outlives_the_instant_but_not_an_expiry() {
        // Never-republished terms: both shards live the archival ceiling.
        let mut f = Frontend::new(0, 0, CacheConfig::enabled());
        let ttl = ADAPTIVE_TTL_CEILING.as_micros() / 1_000;
        let at = |ms: u64| SimInstant::ZERO + SimDuration::from_millis(ms);
        f.cache_mut().store_shard(&shard("early", 1, 2), at(0));
        f.cache_mut().store_shard(&shard("late", 1, 2), at(1_000));
        let listed = f.ranked_holdings(at(1_000));
        assert_eq!(listed.len(), 2);
        // Nothing touches the tier: the handle stands until `early` expires.
        assert!(Arc::ptr_eq(&listed, &f.ranked_holdings(at(ttl - 1))));
        let after = f.ranked_holdings(at(ttl));
        assert_eq!(after.len(), 1, "re-ranked without the expired entry");
        assert_eq!(after[0].term(), "late");
        // A re-store of the version held moves the generation (and the
        // expiry) but not the listing: the handle, and the filter stored
        // beside it, stay.
        let mut stats = GossipStats::default();
        let filter = f.holdings_filter(&mut stats);
        f.cache_mut()
            .store_shard(&shard("late", 1, 2), at(ttl + 500));
        let restored = f.ranked_holdings(at(ttl + 500));
        assert!(Arc::ptr_eq(&after, &restored));
        assert!(Arc::ptr_eq(&restored, &f.listing.ranked));
        assert!(Arc::ptr_eq(&filter, &f.holdings_filter(&mut stats)));
        assert_eq!((stats.filter_builds, stats.filter_reuses), (1, 1));
        assert!(
            Arc::ptr_eq(&restored, &f.ranked_holdings(at(ttl + 1_500))),
            "the re-store pushed the expiry out with it"
        );
        // A bumped version is a different listing, without a filter yet.
        f.cache_mut()
            .store_shard(&shard("late", 2, 2), at(ttl + 1_500));
        assert!(!Arc::ptr_eq(&restored, &f.ranked_holdings(at(ttl + 1_500))));
        assert!(f.listing.filter.is_none());
    }

    #[test]
    fn a_re_rank_of_the_same_sequence_keeps_the_listing_and_its_filter() {
        let mut f = Frontend::new(0, 0, CacheConfig::enabled());
        let now = SimInstant::ZERO;
        let terms = ["alpha", "beta", "gamma"];
        for term in terms {
            f.cache_mut().store_shard(&shard(term, 1, 2), now);
        }
        let mut stats = GossipStats::default();
        let listed = f.ranked_holdings(now);
        let filter = f.holdings_filter(&mut stats);
        // Re-storing every version held moves the generation, so the tier
        // is ranked again — to the same `(term, version)` sequence.
        let generation = f.cache().shard_generation();
        for term in terms {
            f.cache_mut().store_shard(&shard(term, 1, 2), now);
        }
        assert_ne!(f.cache().shard_generation(), generation);
        let reranked = f.ranked_holdings(now);
        assert!(Arc::ptr_eq(&listed, &reranked), "the handle is kept");
        let kept = f.listing.filter.as_ref();
        assert!(kept.is_some_and(|kept| Arc::ptr_eq(kept, &filter)));
        assert!(Arc::ptr_eq(&filter, &f.holdings_filter(&mut stats)));
        assert_eq!((stats.filter_builds, stats.filter_reuses), (1, 1));
    }

    #[test]
    fn pending_batch_adverts_are_scanned_on_a_settled_pair() {
        // A hot set of two: the cold third shard sits in the listing below
        // the cut and never rides a regular exchange on popularity.
        let mut config = GossipConfig::enabled(2);
        config.hot_set_size = 2;
        let (mut fleet, mut net) = fleet_with(config, 10);
        let now = SimInstant::ZERO;
        fleet.cache_mut(0).store_shard(&shard("cold", 1, 3), now);
        for term in ["hotA", "hotB"] {
            fleet.cache_mut(0).store_shard(&shard(term, 1, 3), now);
            for _ in 0..8 {
                let _ = fleet.cache_mut(0).lookup_shard(term, now, 1);
            }
        }
        for _ in 0..3 {
            regular_exchange(&mut fleet, &mut net);
        }
        assert_eq!(regular_exchange(&mut fleet, &mut net).2, 2, "settled");
        assert_eq!(fleet.frontend(1).cache().cached_shard_version("cold"), None);
        // The advert names a shard of the very listing the record was
        // written over — nothing in frontend 0's tier moved — and must
        // still be offered.
        fleet.note_batch_fetches(0, &[("cold".to_string(), 1)]);
        let (_, accepted, _) = regular_exchange(&mut fleet, &mut net);
        assert_eq!(accepted, 1, "the advert's shard is pushed");
        assert_eq!(
            fleet.frontend(1).cache().cached_shard_version("cold"),
            Some(1)
        );
    }

    #[test]
    fn a_delta_record_and_a_full_record_are_checked_apart() {
        let (mut fleet, mut net) = settled_pair(GossipConfig::enabled(2), 3);
        let full_exchange = |fleet: &mut GossipFleet, net: &mut SimNet| {
            let before = fleet.stats().settled_sides;
            assert!(fleet.exchange(net, 0, 1, SimInstant::ZERO, ExchangeClass::AntiEntropy));
            fleet.stats().settled_sides - before
        };
        let records = |fleet: &GossipFleet, me: usize| {
            let sync = &fleet.frontend(me).sync[&fleet.frontend_peer(1 - me)];
            (sync.settled_delta.is_some(), sync.settled_full.is_some())
        };
        for me in 0..2 {
            assert_eq!(records(&fleet, me), (true, false));
        }
        // The delta record names the very two listings a full exchange now
        // runs over, yet does not stand for it: the full exchange scans,
        // rebuilds the sync state (which clears the delta record) and
        // settles in its own record.
        assert_eq!(full_exchange(&mut fleet, &mut net), 0);
        for me in 0..2 {
            assert_eq!(records(&fleet, me), (false, true));
        }
        // Nor does the full record stand for a regular exchange.
        assert_eq!(regular_exchange(&mut fleet, &mut net).2, 0);
        for me in 0..2 {
            assert_eq!(records(&fleet, me), (true, true));
        }
        // Both records stand side by side, each for its own class.
        assert_eq!(full_exchange(&mut fleet, &mut net), 2);
        assert_eq!(regular_exchange(&mut fleet, &mut net).2, 2);
        // Dropping one side's delta record leaves its full record in force.
        let peer1 = fleet.frontend_peer(1);
        fleet.frontends[0]
            .sync
            .get_mut(&peer1)
            .unwrap()
            .settled_delta = None;
        assert_eq!(full_exchange(&mut fleet, &mut net), 2);
        assert_eq!(regular_exchange(&mut fleet, &mut net).2, 1);
        assert_eq!(regular_exchange(&mut fleet, &mut net).2, 2);
    }

    #[test]
    fn a_failed_swap_settles_nothing() {
        let (mut fleet, mut net) = fleet_with(GossipConfig::enabled(2), 10);
        let now = SimInstant::ZERO;
        // Nothing to move in either direction — the exchange that would
        // settle at once — but the swap never completes.
        net.set_partition(fleet.frontend_peer(1), 9);
        assert_eq!(regular_exchange(&mut fleet, &mut net), (0, 0, 0));
        assert_eq!(regular_exchange(&mut fleet, &mut net), (0, 0, 0));
        assert_eq!(fleet.stats().failed_exchanges, 2);
        for f in 0..2 {
            let mut syncs = fleet.frontend(f).sync.values();
            assert!(syncs.all(|s| s.settled_delta.is_none() && s.settled_full.is_none()));
        }
        net.heal_all();
        // Healed: the first completed exchange scans and settles, the
        // second is the first to skip.
        assert_eq!(regular_exchange(&mut fleet, &mut net).2, 0);
        assert_eq!(regular_exchange(&mut fleet, &mut net).2, 2);
        // A partition on a settled pair leaves the records as they were:
        // what frontend 1 drops meanwhile is refilled once the swap works.
        fleet.cache_mut(0).store_shard(&shard("nectar", 1, 3), now);
        for _ in 0..3 {
            regular_exchange(&mut fleet, &mut net);
        }
        net.set_partition(fleet.frontend_peer(1), 9);
        assert_eq!(fleet.cache_mut(1).invalidate_term("nectar", now), 1);
        assert_eq!(regular_exchange(&mut fleet, &mut net), (0, 0, 0));
        net.heal_all();
        assert_eq!(regular_exchange(&mut fleet, &mut net).1, 1);
    }

    /// After a full exchange in which no fill was admitted — whichever records
    /// it met — each side's sync state is exact: `advertised` its own whole
    /// listing, `holdings` the partner's, no filter kept; and the swap
    /// carried both whole listings.
    fn assert_full_exchange_is_exact(fleet: &mut GossipFleet, net: &mut SimNet) {
        let now = SimInstant::ZERO;
        let listings: Vec<crate::frontend::Listing> = (0..2)
            .map(|i| fleet.frontends[i].ranked_holdings(now))
            .collect();
        let (before, accepted) = (fleet.stats().digest_bytes, fleet.stats().shards_accepted);
        assert!(fleet.exchange(net, 0, 1, now, ExchangeClass::AntiEntropy));
        assert_eq!(fleet.stats().shards_accepted, accepted);
        let swapped: usize = listings
            .iter()
            .map(|held| crate::digest::digest_wire_bytes(held.iter()))
            .sum();
        assert_eq!(fleet.stats().digest_bytes - before, swapped as u64);
        for (me, partner) in [(0usize, 1usize), (1, 0)] {
            let sync = &fleet.frontend(me).sync[&fleet.frontend_peer(partner)];
            let told: crate::TermMap<u64> = listings[me]
                .iter()
                .map(|e| (e.term_key().clone(), e.version()))
                .collect();
            assert_eq!(sync.advertised, told, "frontend {me} advertised");
            let held: crate::digest::HoldingsView = listings[partner]
                .iter()
                .map(|e| (e.term_key().clone(), e.clone()))
                .collect();
            assert_eq!(sync.holdings, held, "frontend {me} holdings");
            assert!(sync.filter.is_none());
        }
    }

    #[test]
    fn anti_entropy_after_quiet_rounds_leaves_exact_sync_state() {
        // A hot set of four over tiers of ten: regular exchanges advertise
        // a strict subset of what a full one does.
        let mut config = GossipConfig::enabled(2);
        config.hot_set_size = 4;
        config.max_fills_per_exchange = 32;
        let (mut fleet, mut net) = settled_pair(config, 10);
        let full_sides = |fleet: &mut GossipFleet, net: &mut SimNet| {
            let before = fleet.stats().settled_sides;
            assert_full_exchange_is_exact(fleet, net);
            fleet.stats().settled_sides - before
        };
        // The first full exchange moves the six shards below the hot-set
        // cut; the next one finds nothing to push and records it.
        assert!(fleet.exchange(&mut net, 0, 1, SimInstant::ZERO, ExchangeClass::AntiEntropy));
        assert_eq!(fleet.stats().shards_accepted, 10);
        assert_eq!(full_sides(&mut fleet, &mut net), 0);
        // A hit, straight away and again after a run of quiet regular
        // exchanges (which set the partner filter a full exchange clears).
        assert_eq!(full_sides(&mut fleet, &mut net), 2);
        for _ in 0..3 {
            regular_exchange(&mut fleet, &mut net);
        }
        assert!(fleet.frontend(0).sync[&1].filter.is_some());
        assert_eq!(full_sides(&mut fleet, &mut net), 2);
        // Not a hit on either side: frontend 1 fetched a shard frontend 0
        // has heard a newer version of, so only frontend 1's listing is new.
        // Frontend 1 may not take the record over its old listing (it
        // advertises and offers the newcomer), frontend 0 not the one over
        // frontend 1's old listing (it learns the newcomer is held).
        fleet.observe(0, "newcomer", 2);
        fleet
            .cache_mut(1)
            .store_shard(&shard("newcomer", 1, 3), SimInstant::ZERO);
        let rejected = fleet.stats().stale_rejected;
        assert_eq!(full_sides(&mut fleet, &mut net), 0);
        assert_eq!(fleet.stats().stale_rejected, rejected + 1);
        // Frontend 0 has nothing to push and settles; frontend 1 keeps
        // offering what the version guard keeps refusing.
        assert_eq!(full_sides(&mut fleet, &mut net), 1);
        assert_eq!(fleet.stats().stale_rejected, rejected + 2);
    }

    #[test]
    fn anti_entropy_rebuilds_sync_maps_that_drifted_from_both_listings() {
        let mut config = GossipConfig::enabled(2);
        config.hot_set_size = 4;
        config.max_fills_per_exchange = 32;
        let (mut fleet, mut net) = settled_pair(config, 10);
        assert!(fleet.exchange(&mut net, 0, 1, SimInstant::ZERO, ExchangeClass::AntiEntropy));
        assert_full_exchange_is_exact(&mut fleet, &mut net);
        // Each side's maps now name a term neither listing has and a newer
        // version of a listed term than its listing holds: the next full
        // exchange must drop the one and lower the other, not keep the max.
        for (me, partner) in [(0usize, 1usize), (1, 0)] {
            let peer = fleet.frontend_peer(partner);
            let sync = fleet.frontends[me].sync.get_mut(&peer).unwrap();
            sync.unsettle();
            sync.advertised.insert(TermKey::of("gone"), 7);
            sync.advertised.insert(TermKey::of("term1"), 9);
            sync.holdings
                .insert(TermKey::of("gone"), DigestEntry::new("gone", 7));
            sync.holdings
                .insert(TermKey::of("term2"), DigestEntry::new("term2", 9));
            assert_eq!((sync.advertised.len(), sync.holdings.len()), (11, 11));
        }
        assert_full_exchange_is_exact(&mut fleet, &mut net);
    }

    /// Remaining lifetime of `term` in `cache` at `now`, found by bisecting
    /// the instant the shard digest stops advertising it.
    fn remaining_ttl(cache: &QueryCache, term: &str, now: SimInstant) -> SimDuration {
        let alive = |after: u64| {
            cache
                .shard_digest(usize::MAX, now + SimDuration::from_micros(after))
                .iter()
                .any(|(t, _)| *t == term)
        };
        let (mut lo, mut hi) = (0u64, 4_000_000_000u64);
        assert!(alive(lo) && !alive(hi));
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if alive(mid) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        SimDuration::from_micros(hi)
    }

    /// Frontend `i`'s live shard holdings at `now`, in term order, as
    /// `term@version+remaining_ttl_us`.
    fn listing(fleet: &GossipFleet, i: usize, now: SimInstant) -> String {
        let cache = fleet.frontend(i).cache();
        let mut held = cache.shard_digest(usize::MAX, now);
        held.sort();
        held.iter()
            .map(|(term, version)| {
                let ttl = remaining_ttl(cache, term, now).as_micros();
                format!("{term}@{version}+{ttl}")
            })
            .collect::<Vec<_>>()
            .join(" ")
    }

    /// The whole protocol on one fixed script — seeded stores, reads that
    /// move popularity, three republishes, a frontend under eviction
    /// pressure, a partition and its heal, anti-entropy rounds and a forced
    /// round at an instant a paced round already ran at. Every counter and
    /// every frontend's holdings must equal the constants captured on a
    /// reference build without the digest/filter/fingerprint caches (and
    /// re-captured, once the cross-zone fill cap became a constant, on the
    /// last build that took it as a setting, set to the constant's value):
    /// the caches are host-side only and may not move a simulated byte.
    #[test]
    fn golden_scenario_is_byte_identical() {
        let mut config = GossipConfig::enabled_zoned(4, 2);
        config.hot_set_size = 8;
        config.max_fills_per_exchange = 3;
        config.zone_fill_budgets = true;
        config.zone_aware_anti_entropy = true;
        let (mut fleet, mut net) = fleet_with(config, 12);
        // Frontend 3 lives under eviction pressure: a shard tier of ~4 shards.
        let mut tight = CacheConfig::enabled();
        tight.shard_capacity_bytes = 2 * 1024;
        *fleet.cache_mut(3) = QueryCache::new(tight);

        let mut now = SimInstant::ZERO;
        let mut versions: HashMap<String, u64> = HashMap::new();
        // Seeded stores: frontend `t % 3` fetched term `t` (frontend 3
        // starts cold), a few at version 2.
        for t in 0..18usize {
            let term = format!("term{t:02}");
            let version = 1 + (t % 5 == 0) as u64;
            let f = t % 3;
            fleet
                .cache_mut(f)
                .store_shard(&shard(&term, version, 2 + t % 4), now);
            fleet.observe(f, &term, version);
            versions.insert(term, version);
        }
        let mut forced = 0;
        for step in 1..=60u64 {
            now = SimInstant::ZERO + SimDuration::from_millis(200 * step);
            net.advance_to(now);
            // Reads between rounds move popularity without moving holdings.
            for r in 0..3u64 {
                let t = (step * 7 + r * 5) % 18;
                let term = format!("term{t:02}");
                let f = ((step + r) % 4) as usize;
                let current = versions[&term];
                fleet.cache_mut(f).lookup_shard(&term, now, current);
            }
            // Three republishes of one term (bursty: its adaptive TTL drops
            // to the floor) and the writer's frontend refetches it.
            if matches!(step, 10 | 22 | 31) {
                let term = "term05".to_string();
                let version = versions[&term] + 1;
                fleet.observe_publish(&net, 9, &term, version, now);
                fleet
                    .cache_mut(1)
                    .store_shard(&shard(&term, version, 4), now);
                fleet.observe(1, &term, version);
                versions.insert(term, version);
            }
            // A late fetch of new terms keeps fills flowing mid-run.
            if step % 9 == 0 {
                let term = format!("late{step:02}");
                fleet.cache_mut(2).store_shard(&shard(&term, 1, 3), now);
                fleet.observe(2, &term, 1);
                fleet.note_batch_fetches(2, &[(term.clone(), 1)]);
                versions.insert(term, 1);
            }
            // Frontend 0 hears of a newer `late18` nobody holds yet and
            // drops its copy: partners keep offering the old version (their
            // belief is no longer confirmed by its filter) and the version
            // guard keeps rejecting it.
            if step == 28 {
                fleet.observe(0, "late18", 2);
                fleet.cache_mut(0).invalidate_term("late18", now);
            }
            if step == 20 {
                net.set_partition(fleet.frontend_peer(2), 7);
            }
            if step == 35 {
                net.heal_all();
            }
            assert!(fleet.maybe_run(&mut net, now), "one paced round per step");
            // Forced rounds at the instant the paced round just ran at,
            // after reads that moved popularity but not the generation.
            if matches!(step, 15 | 40 | 55) {
                for t in [3usize, 4, 6] {
                    let term = format!("term{t:02}");
                    let current = versions[&term];
                    for _ in 0..4 {
                        fleet.cache_mut(0).lookup_shard(&term, now, current);
                    }
                }
                fleet.run_round(&mut net, now, false);
                forced += 1;
            }
        }
        assert_eq!(forced, 3);
        assert_eq!(
            *fleet.stats(),
            GossipStats {
                rounds: 57,
                anti_entropy_rounds: 6,
                exchanges: 452,
                failed_exchanges: 23,
                failed_fills: 0,
                digest_bytes: 56595,
                fill_bytes: 63475,
                intra_zone_fill_bytes: 30330,
                cross_zone_fill_bytes: 33145,
                bootstrap_fill_bytes: 0,
                anti_entropy_fill_bytes: 7470,
                anti_entropy_cross_zone_fill_bytes: 3371,
                segment_advert_bytes: 0,
                shards_pushed: 739,
                shards_accepted: 552,
                stale_rejected: 8,
                duplicates_skipped: 28,
                admission_refused: 151,
                membership_bytes: 51848,
                joins: 0,
                leaves: 0,
                crashes: 0,
                evictions: 6,
                revivals: 2,
                batch_adverts: 13,
                filter_builds: 348,
                filter_reuses: 506,
                settled_sides: 141,
            }
        );
        let wire = net.stats();
        assert_eq!(
            (wire.messages, wire.bytes, wire.rpcs, wire.failed_rpcs),
            (1199, 171918, 452, 23)
        );
        const HOLDINGS: [&str; 4] = [
            "late09@1+1789800000 late27@1+1796000000 late36@1+1796000000 \
             late45@1+1797000000 late54@1+1798800000 term00@2+1788000000 \
             term01@1+1790000000 term02@1+1788200000 term03@1+1788000000 \
             term04@1+1790000000 term06@1+1788000000 term07@1+1788200000 \
             term08@1+1788200000 term09@1+1788000000 term10@2+1790000000 \
             term11@1+1788200000 term12@1+1788000000 term13@1+1788200000 \
             term14@1+1788200000 term15@2+1788000000 term16@1+1788200000 \
             term17@1+1788200000",
            "late09@1+1789800000 late18@1+1791600000 late27@1+1796000000 \
             late36@1+1796000000 late45@1+1797000000 late54@1+1798800000 \
             term00@2+1788200000 term01@1+1788000000 term02@1+1788200000 \
             term03@1+1788200000 term04@1+1788000000 term06@1+1788200000 \
             term07@1+1788000000 term08@1+1788200000 term09@1+1788200000 \
             term10@2+1788000000 term11@1+1788400000 term12@1+1788200000 \
             term13@1+1788000000 term14@1+1788400000 term15@2+1790000000 \
             term16@1+1788000000 term17@1+1790000000",
            "late09@1+1789800000 late18@1+1791600000 late27@1+1793400000 \
             late36@1+1795200000 late45@1+1797000000 late54@1+1798800000 \
             term00@2+1788200000 term01@1+1790000000 term02@1+1788000000 \
             term03@1+1788200000 term04@1+1790000000 term05@5+1000000 \
             term06@1+1788200000 term07@1+1788200000 term08@1+1788000000 \
             term09@1+1788200000 term10@2+1790000000 term11@1+1788000000 \
             term12@1+1788200000 term13@1+1788200000 term14@1+1788000000 \
             term15@2+1788200000 term16@1+1788200000 term17@1+1788000000",
            "term01@1+1800000000 term02@1+1800000000 term03@1+1800000000 \
             term04@1+1800000000 term06@1+1799800000 term09@1+1800000000 \
             term11@1+1800000000 term15@2+1800000000 term17@1+1800000000",
        ];
        for (i, expected) in HOLDINGS.iter().enumerate() {
            assert_eq!(listing(&fleet, i, now), *expected, "frontend {i}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Whatever happens to a frontend's cache between two exchanges —
        /// reads, version-checked reads that purge, stores that replace,
        /// evict or are refused, invalidations, expiry — the digest handed
        /// to gossip equals a fresh listing, every entry carries the
        /// fingerprint of its own pair, and the fingerprint memo holds
        /// exactly the live listing.
        #[test]
        fn the_cached_digest_equals_a_fresh_listing(
            ops in proptest::collection::vec((0u8..7, 0u8..12, 1u64..4), 1..100),
        ) {
            // A shard tier of ~5 shards. Time steps of 10-30 min cross the
            // 30 min archival TTL, and invalidations a step apart adapt a
            // term's TTL down to 5-15 min.
            let mut tight = CacheConfig::enabled();
            tight.shard_capacity_bytes = 1024;
            let mut f = Frontend::new(0, 0, tight);
            let mut now = SimInstant::ZERO;
            for (op, term, arg) in ops {
                let term = format!("term{term}");
                match op {
                    0..=2 => {
                        f.cache_mut().lookup_shard(&term, now, arg);
                    }
                    3 | 4 => f.cache_mut().store_shard(&shard(&term, arg, 2), now),
                    5 => {
                        f.cache_mut().invalidate_term(&term, now);
                    }
                    _ => now += SimDuration::from_secs(600 * arg),
                }
                let ranked = f.ranked_holdings(now);
                let fresh: Vec<(String, u64)> = f
                    .cache()
                    .shard_digest(usize::MAX, now)
                    .into_iter()
                    .map(|(t, v)| (t.to_string(), v))
                    .collect();
                let handed: Vec<(String, u64)> = ranked
                    .iter()
                    .map(|e| (e.term().to_string(), e.version()))
                    .collect();
                prop_assert_eq!(handed, fresh, "stale digest after op {}", op);
                for entry in ranked.iter() {
                    prop_assert_eq!(entry.key(), FilterKey::of(entry.term(), entry.version()));
                }
                prop_assert_eq!(f.fingerprints.0.len(), ranked.len());
                prop_assert!(
                    Arc::ptr_eq(&ranked, &f.ranked_holdings(now)),
                    "an untouched tier hands out the same listing"
                );
            }
        }
    }
}

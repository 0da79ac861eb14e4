//! One digest/fill exchange between two frontends.
//!
//! Most exchanges of a converged fleet move nothing: both deltas are empty
//! and no fill is sent. Such an exchange side leaves a *settled record* in
//! its [`PeerSync`](crate::frontend::PeerSync) — the handles of the two
//! things its conclusion was read from (its own listing and the partner's
//! holdings filter in a delta exchange, the two listings in a full one) —
//! and its repetition, recognised by `Arc::ptr_eq` on handles the record
//! itself keeps alive, skips the delta computation, the fill scan and the
//! full-exchange rebuild of the sync state. Whatever writes `advertised`
//! or `holdings` clears the records first (`PeerSync::unsettle`), and in
//! debug builds every skip re-runs what it skipped and asserts the
//! outcome. The records are host-side only: every simulated byte, counter
//! and span is what the full computation produces.

use crate::config::{DigestMode, GossipConfig, MEMBERSHIP_SUMMARY_BUDGET};
use crate::digest::{
    apply_delta, delta_entries, needs_fill, note_holding, Digest, DigestEntry, HoldingsView,
};
use crate::filter::ShardFilter;
use crate::fleet::GossipFleet;
use crate::frontend::{Frontend, Listing, PeerSync};
use crate::membership::MembershipSummary;
use crate::stats::GossipStats;
use qb_cache::RemoteAdmit;
use qb_common::{SimDuration, SimInstant};
use qb_index::ShardEntry;
use qb_simnet::SimNet;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Wire overhead charged per shard in a fill batch (frame, version, TTL).
const FILL_ENTRY_OVERHEAD: usize = 12;

/// What kind of exchange is running — decides digest shape (regular
/// exchanges may use delta digests; the other classes always swap full
/// digests), the fill budget, and which fill-byte class the traffic is
/// accounted under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ExchangeClass {
    /// Periodic hot-set round.
    Regular,
    /// Periodic full-digest reconciliation round.
    AntiEntropy,
    /// A join's elevated-budget warm-up exchange.
    Bootstrap,
}

impl ExchangeClass {
    /// Full-digest exchanges reconcile entire shard tiers.
    fn full(self) -> bool {
        self != ExchangeClass::Regular
    }

    /// Most shards one side pushes. Regular rounds respect the zone-aware
    /// fill budgets; anti-entropy keeps the flat budget (it is the safety
    /// net and must reconcile regardless of link cost).
    fn fill_budget(self, config: &GossipConfig, same_zone: bool) -> usize {
        match self {
            ExchangeClass::Regular => config.regular_fill_budget(same_zone),
            ExchangeClass::AntiEntropy => config.max_fills_per_exchange,
            ExchangeClass::Bootstrap => config.bootstrap_fill_budget(),
        }
    }
}

impl GossipFleet {
    /// One exchange of `class` between fleet slots `i` and `j` (distinct).
    /// Returns true when the digest swap succeeded.
    pub(crate) fn exchange(
        &mut self,
        net: &mut SimNet,
        i: usize,
        j: usize,
        now: SimInstant,
        class: ExchangeClass,
    ) -> bool {
        let (a, b) = pair_mut(&mut self.frontends, i, j);
        let mut exchange = Exchange {
            config: &self.config,
            net,
            stats: &mut self.stats,
            now,
            class,
        };
        exchange.run(a, b)
    }
}

/// Disjoint mutable borrows of two fleet slots.
fn pair_mut(frontends: &mut [Frontend], i: usize, j: usize) -> (&mut Frontend, &mut Frontend) {
    debug_assert_ne!(i, j);
    if i < j {
        let (left, right) = frontends.split_at_mut(j);
        (&mut left[i], &mut right[0])
    } else {
        let (left, right) = frontends.split_at_mut(i);
        (&mut right[0], &mut left[j])
    }
}

/// What one side brings to an exchange: its ranked tier, the part of it
/// this exchange advertises, and everything that rides the digest swap.
struct Offer {
    /// The side's whole tier, ranked, by handle. The listing is exact for
    /// the tier state it is read at, so a frontend warmed earlier in this
    /// round advertises (and relays) its fresh shards in the same round —
    /// an accepted fill moves the generation — giving multi-hop propagation
    /// per round instead of one.
    held: Listing,
    /// How much of `held` is advertised: the whole tier in a full
    /// exchange, the hot set in a regular one (whose delta-mode holdings
    /// filter is still built over all of `held`).
    hot_len: usize,
    /// Batch-aware adverts, re-resolved once: the digest advertises and the
    /// priority fills offer the identical `(term, version)` list.
    adverts: Vec<DigestEntry>,
    digest: Digest,
    filter: Option<Arc<ShardFilter>>,
    membership: MembershipSummary,
    /// Segment pointers piggyback on every digest swap (both directions),
    /// so the newest artifact's pointer spreads epidemically like any other
    /// metadata — and its bytes are charged like any other metadata.
    segment_bytes: usize,
}

impl Offer {
    fn hot(&self) -> &[DigestEntry] {
        &self.held[..self.hot_len]
    }

    /// Bytes of the digest half of the swap: entries, filter, segment
    /// pointer.
    fn digest_bytes(&self) -> usize {
        let filter_bytes = self.filter.as_ref().map_or(0, |f| f.wire_bytes());
        self.digest.wire_bytes() + filter_bytes + self.segment_bytes
    }
}

/// What stays fixed across the two sides of one exchange.
struct Exchange<'a> {
    config: &'a GossipConfig,
    net: &'a mut SimNet,
    stats: &'a mut GossipStats,
    now: SimInstant,
    class: ExchangeClass,
}

impl Exchange<'_> {
    /// Regular exchanges ship per-partner deltas when the fleet runs
    /// [`DigestMode::Delta`].
    fn delta_mode(&self) -> bool {
        !self.class.full() && self.config.digest_mode == DigestMode::Delta
    }

    /// Run the exchange: each side is prepared, the digests are swapped in
    /// one RPC, each side applies what it learned, each side pushes fills.
    fn run(&mut self, a: &mut Frontend, b: &mut Frontend) -> bool {
        let (a_peer, b_peer) = (a.peer, b.peer);
        let exchange_start = self.net.now();
        let exchange_span = self
            .net
            .tracer()
            .open_with("gossip.exchange", exchange_start, || {
                format!("{a_peer}<->{b_peer}")
            });
        let offer_a = self.prepare(a, b_peer);
        let offer_b = self.prepare(b, a_peer);
        // The digest swap is one request/response RPC; a partitioned or
        // offline partner fails it here, no state moves, and the initiator
        // records the failure against the partner's liveness.
        let swap = self.net.rpc(
            a_peer,
            b_peer,
            offer_a.digest_bytes() + offer_a.membership.wire_bytes(),
            offer_b.digest_bytes() + offer_b.membership.wire_bytes(),
        );
        if swap.is_err() {
            self.stats.failed_exchanges += 1;
            if a.view.record_failure(b_peer, self.config.failure_threshold) {
                self.stats.evictions += 1;
            }
            let end = self.net.now();
            self.net.tracer().close(exchange_span, end);
            return false;
        }
        self.stats.exchanges += 1;
        for offer in [&offer_a, &offer_b] {
            self.stats.digest_bytes += offer.digest_bytes() as u64;
            self.stats.membership_bytes += offer.membership.wire_bytes() as u64;
            self.stats.segment_advert_bytes += offer.segment_bytes as u64;
        }

        // Both sides adopt the newer segment pointer.
        let newest_segment = match (a.segment_advert, b.segment_advert) {
            (Some(x), Some(y)) => Some(if x.generation >= y.generation { x } else { y }),
            (x, None) => x,
            (None, y) => y,
        };
        a.segment_advert = newest_segment;
        b.segment_advert = newest_segment;

        self.learn(a, b, &offer_a, &offer_b);
        self.learn(b, a, &offer_b, &offer_a);
        self.send_fills(a, b, &offer_a, &offer_b);
        self.send_fills(b, a, &offer_b, &offer_a);
        let end = self.net.now();
        self.net.tracer().close(exchange_span, end);
        true
    }

    /// Prepare `own`'s side of the exchange with `partner_peer`.
    fn prepare(&mut self, own: &mut Frontend, partner_peer: u64) -> Offer {
        let full = self.class.full();
        let held = own.ranked_holdings(self.now);
        let hot_len = if full {
            held.len()
        } else {
            self.config.hot_set_size.min(held.len())
        };
        let adverts = if full || !self.config.batch_advertise {
            Vec::new()
        } else {
            own.resolved_adverts()
        };
        let (digest, filter) =
            self.build_digest(own, partner_peer, &held, &held[..hot_len], &adverts);
        Offer {
            hot_len,
            adverts,
            digest,
            filter,
            membership: own.membership_summary(full, MEMBERSHIP_SUMMARY_BUDGET),
            segment_bytes: own.segment_advert.map_or(0, |s| s.wire_bytes() as usize),
            held,
        }
    }

    /// Build one side's digest: the full hot set in full mode, the
    /// per-partner delta plus the (cached) holdings filter over the whole
    /// tier `held` in delta mode — in regular rounds extended by the
    /// frontend's batch-aware `adverts`, which ride ahead of hot-set
    /// popularity.
    fn build_digest(
        &mut self,
        own: &mut Frontend,
        partner_peer: u64,
        held: &Listing,
        hot: &[DigestEntry],
        adverts: &[DigestEntry],
    ) -> (Digest, Option<Arc<ShardFilter>>) {
        let (mut entries, filter) = if self.delta_mode() {
            let filter = own.holdings_filter(held, self.stats);
            let sync = own.sync.entry(partner_peer).or_default();
            // The listing a settled exchange ran over has all been told.
            let told_all =
                matches!(&sync.settled_delta, Some((mine, _)) if Arc::ptr_eq(mine, held));
            let delta = if told_all {
                debug_assert!(delta_entries(hot, &sync.advertised).is_empty());
                Vec::new()
            } else {
                delta_entries(hot, &sync.advertised)
            };
            (delta, Some(filter))
        } else {
            (hot.to_vec(), None)
        };
        for advert in adverts {
            if !entries
                .iter()
                .any(|e| e.term() == advert.term() && e.version() >= advert.version())
            {
                entries.push(advert.clone());
                self.stats.batch_adverts += 1;
            }
        }
        (Digest::new(entries), filter)
    }

    /// Apply what `me` learned from the completed digest swap with
    /// `partner`: liveness, third-party heartbeats, which versions exist,
    /// and the per-partner sync state.
    fn learn(&mut self, me: &mut Frontend, partner: &Frontend, mine: &Offer, theirs: &Offer) {
        let now = self.now;
        // Liveness: the exchange itself is direct evidence, and the
        // piggybacked summary spreads third-party heartbeats.
        let (incarnation, heartbeat) = (partner.incarnation, partner.heartbeat);
        me.view
            .admit(partner.peer, partner.zone, incarnation, heartbeat, now);
        let revived = me.view.merge_summary(&theirs.membership, me.peer, now);
        self.stats.revivals += revived as u64;

        let sync = me.sync.entry(partner.peer).or_default();
        if self.class.full() {
            // The holdings view is exact after a full exchange, so any
            // stored partner filter is cleared rather than left to confirm
            // stale coverage.
            sync.filter = None;
            if self.is_settled(sync, mine, theirs) {
                // The same two listings as at the last full exchange and
                // nothing written since: `known` (monotonic) already covers
                // theirs and both maps already are what follows would
                // rebuild them to.
                debug_assert!(theirs
                    .hot()
                    .iter()
                    .all(|e| me.known.get(e.term()) >= e.version()));
                debug_assert!(
                    sync.advertised.len() == mine.hot().len()
                        && mine
                            .hot()
                            .iter()
                            .all(|e| sync.advertised.get(e.term()) == Some(&e.version()))
                );
                debug_assert!(
                    sync.holdings.len() == theirs.hot().len()
                        && theirs
                            .hot()
                            .iter()
                            .all(|e| sync.holdings.get(e.term()) == Some(e))
                );
                return;
            }
        }

        // Which versions exist is learned before any fill is admitted.
        for entry in &theirs.digest.entries {
            me.known.observe(entry.term(), entry.version());
        }

        // Per-partner sync state: anti-entropy resets it to the exact full
        // tiers; delta exchanges extend the advertised baseline and fold
        // the partner's delta into the accumulated holdings view; stateless
        // full digests replace the holdings outright (exactly the PR 2
        // protocol). Whichever writes `advertised` or `holdings` unsettles
        // first — a delta exchange with nothing in either delta writes
        // neither.
        let advertise = |told: &mut HashMap<Arc<str>, u64>, entries: &[DigestEntry]| {
            told.extend(entries.iter().map(|e| (Arc::clone(e.term()), e.version())));
        };
        let replace_view = |view: &mut HoldingsView, held: &[DigestEntry]| {
            view.clear();
            view.extend(held.iter().map(|e| (Arc::clone(e.term()), e.clone())));
        };
        if self.class.full() {
            // `hot()` is the whole tier in a full (anti-entropy) exchange.
            sync.unsettle();
            sync.advertised.clear();
            advertise(&mut sync.advertised, mine.hot());
            replace_view(&mut sync.holdings, theirs.hot());
        } else if self.delta_mode() {
            if !(mine.digest.entries.is_empty() && theirs.digest.entries.is_empty()) {
                sync.unsettle();
                advertise(&mut sync.advertised, &mine.digest.entries);
                apply_delta(&mut sync.holdings, &theirs.digest.entries);
            }
            sync.filter = theirs.filter.clone();
        } else {
            sync.unsettle();
            replace_view(&mut sync.holdings, theirs.hot());
        }
    }

    /// Does `sync` hold the settled record of this exchange's shape over
    /// exactly what the two sides brought — `mine`'s listing and `theirs`'
    /// holdings filter (delta) or listing (full)? Compared by handle
    /// against handles the record owns, so a match means the same
    /// allocation, hence the same content.
    fn is_settled(&self, sync: &PeerSync, mine: &Offer, theirs: &Offer) -> bool {
        if self.class.full() {
            matches!(&sync.settled_full, Some((listed, their_listed))
                if Arc::ptr_eq(listed, &mine.held) && Arc::ptr_eq(their_listed, &theirs.held))
        } else {
            matches!((&sync.settled_delta, &theirs.filter), (Some((listed, filter)), Some(their_filter))
                if Arc::ptr_eq(listed, &mine.held) && Arc::ptr_eq(filter, their_filter))
        }
    }

    /// Record that `mine` against `theirs` found nothing to push (see
    /// [`Exchange::is_settled`]). A regular exchange without holdings
    /// filters (full-digest mode) has no record: it replaces `holdings`
    /// every time.
    fn settle(&self, sync: &mut PeerSync, mine: &Offer, theirs: &Offer) {
        if self.class.full() {
            sync.settled_full = Some((Arc::clone(&mine.held), Arc::clone(&theirs.held)));
        } else if let Some(their_filter) = &theirs.filter {
            sync.settled_delta = Some((Arc::clone(&mine.held), Arc::clone(their_filter)));
        }
    }

    /// Push the shards `from` believes `to` lacks, as one batched one-way
    /// message, then admit them under the version guard. In delta mode a
    /// fill is suppressed only on explicitly advertised knowledge confirmed
    /// by the partner's holdings filter ([`needs_fill`]); in full-digest
    /// mode the partner's current digest is the exact (stateless)
    /// suppression set. The offer's batch-aware adverts lead the fill
    /// order — a regular round offers the window's freshly fetched shards
    /// before the popularity-ranked hot set, so they cannot be crowded out
    /// of the fill budget — and the hot list then skips their terms (each
    /// list is duplicate-free on its own).
    ///
    /// A scan in which no entry needed a fill settles this side; a settled
    /// side returns before the scan. Batch adverts are outside the record:
    /// with any pending the scan runs, and its outcome is not recorded.
    fn send_fills(
        &mut self,
        from: &mut Frontend,
        to: &mut Frontend,
        offer: &Offer,
        theirs: &Offer,
    ) {
        let fill_budget = self.class.fill_budget(self.config, from.zone == to.zone);
        // Handles to the sender's cached shards: the simulated wire is
        // charged the encoded bytes below, the host copies nothing.
        let mut fills: Vec<(Arc<ShardEntry>, SimDuration)> = Vec::new();
        let mut batch_bytes = 0usize;
        let mut nothing_needed = true;
        let to_peer = to.peer;
        {
            let cache = from.cache();
            let sync = from.sync.get(&to_peer);
            let believed_holdings = sync.map(|sync| &sync.holdings);
            let to_filter = theirs.filter.as_deref();
            let needs = |entry: &DigestEntry| {
                let version = entry.version();
                if version == 0 {
                    return false;
                }
                let believed = believed_holdings.and_then(|held| held.get(entry.term()));
                match to_filter {
                    Some(filter) => needs_fill(version, believed, filter),
                    None => believed.is_none_or(|b| b.version() < version),
                }
            };
            let priority = &offer.adverts;
            if priority.is_empty() && sync.is_some_and(|sync| self.is_settled(sync, offer, theirs))
            {
                debug_assert!(!priority.iter().chain(offer.hot()).any(needs));
                self.stats.settled_sides += 1;
                return;
            }
            let prioritized: HashSet<&str> = priority.iter().map(|e| &**e.term()).collect();
            let ranked = offer
                .hot()
                .iter()
                .filter(|e| !prioritized.contains(&**e.term()));
            for entry in priority.iter().chain(ranked) {
                if !needs(entry) {
                    continue;
                }
                nothing_needed = false;
                if fills.len() >= fill_budget {
                    break;
                }
                let term = entry.term();
                let Some(shard) = cache.peek_shard(term) else {
                    continue;
                };
                batch_bytes += shard.encoded_len() + FILL_ENTRY_OVERHEAD;
                fills.push((Arc::clone(shard), cache.adaptive_shard_ttl(term)));
            }
        }
        if fills.is_empty() {
            if nothing_needed && offer.adverts.is_empty() {
                if let Some(sync) = from.sync.get_mut(&to_peer) {
                    self.settle(sync, offer, theirs);
                }
            }
            return;
        }
        let fill_count = fills.len();
        let (from_peer, to_peer_label) = (from.peer, to.peer);
        let fill_start = self.net.now();
        let fill_span = self.net.tracer().open_with("gossip.fill", fill_start, || {
            format!("{from_peer}->{to_peer_label} x{fill_count} {batch_bytes}B")
        });
        let sent = self.net.send(from.peer, to.peer, batch_bytes);
        let end = self.net.now();
        self.net.tracer().close(fill_span, end);
        if sent.is_err() {
            // The digest swap already counted as a completed exchange; a
            // dropped fill batch is its own failure class.
            self.stats.failed_fills += 1;
            return;
        }
        self.stats.fill_bytes += batch_bytes as u64;
        if from.zone == to.zone {
            self.stats.intra_zone_fill_bytes += batch_bytes as u64;
        } else {
            self.stats.cross_zone_fill_bytes += batch_bytes as u64;
        }
        // Per-class overlays (never double-counted into `fill_bytes`): the
        // bootstrap/steady-state split E16 compares, and the anti-entropy
        // cross-zone slice zone-aware anti-entropy exists to shrink.
        match self.class {
            ExchangeClass::Bootstrap => self.stats.bootstrap_fill_bytes += batch_bytes as u64,
            ExchangeClass::AntiEntropy => {
                self.stats.anti_entropy_fill_bytes += batch_bytes as u64;
                if from.zone != to.zone {
                    self.stats.anti_entropy_cross_zone_fill_bytes += batch_bytes as u64;
                }
            }
            ExchangeClass::Regular => {}
        }
        let sync = from.sync.entry(to_peer).or_default();
        sync.unsettle();
        let believed_holdings = &mut sync.holdings;
        for (shard, sender_ttl) in fills {
            self.stats.shards_pushed += 1;
            let known = to.known.get(&shard.term);
            let outcome = to
                .cache_mut()
                .store_remote_shard(&shard, known, sender_ttl, self.now);
            match outcome {
                RemoteAdmit::Accepted => {
                    self.stats.shards_accepted += 1;
                    to.known.observe(&shard.term, shard.version);
                }
                RemoteAdmit::Stale => self.stats.stale_rejected += 1,
                RemoteAdmit::Duplicate => self.stats.duplicates_skipped += 1,
                RemoteAdmit::Refused => self.stats.admission_refused += 1,
            }
            // Accepted and duplicate outcomes both prove the partner now
            // holds at least this version; remember it so the next rounds
            // stop re-pushing (a refused admission must be retried, so no
            // record). The shard is the sender's *current* copy, which this
            // very exchange may have moved past the version its digest
            // entry was ranked at — so the pair is resolved through the
            // memo, not taken from that entry.
            if matches!(outcome, RemoteAdmit::Accepted | RemoteAdmit::Duplicate) {
                let shipped = from.fingerprints.entry(&shard.term, shard.version);
                note_holding(believed_holdings, &shipped);
            }
        }
    }
}

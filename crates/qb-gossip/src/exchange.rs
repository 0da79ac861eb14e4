//! One digest/fill exchange between two frontends.
//!
//! Most exchanges of a converged fleet move nothing: both deltas are empty
//! and no fill is sent. Such an exchange side leaves a *settled record* in
//! its [`PeerSync`](crate::frontend::PeerSync): the two listings its
//! conclusion was read from, its own and the partner's, by handle. A
//! listing handle names a `(term, version)` set and its hot set, not a rank
//! order, so a record outlives every read that only reorders either tier.
//! A partner's holdings filter is stored with its listing, so the listing
//! handle stands for the filter too, and a delta exchange's record has the
//! same shape as a full one's. Each class keeps its own record; its
//! repetition, recognised by `Arc::ptr_eq` on handles the record itself
//! keeps alive, skips the delta computation, the fill scan and the
//! full-exchange rebuild of the sync state. Whatever moves `advertised` or
//! `holdings` clears the records (`PeerSync::unsettle`) — a batch advert of
//! a pair both maps already hold moves neither — and in debug builds every
//! skip re-runs what it skipped and asserts the outcome. The records are
//! host-side only: every simulated byte, counter and span is what the full
//! computation produces.
//!
//! What an exchange does run costs what changed:
//!
//! * every per-term probe — `advertised`, `holdings`, `known` — goes by the
//!   [`TermKey`] the entry carries, never by a string hash;
//! * a full exchange that is not a settled hit observes the partner's
//!   listing into `known` and [`reconcile`]s `advertised` and `holdings`
//!   with the two listings in place (write what moved, drop what left);
//! * a fill scan first asks, in the listing's stored order, whether any
//!   entry needs a fill — that answer does not depend on the order — and
//!   only when one does walks the hot set in exact rank order
//!   ([`RankedListing::rank_order`](crate::frontend::RankedListing::rank_order)),
//!   which decides what the fill budget lets through;
//! * an exchange side fills buffers the fleet keeps ([`OfferBuffers`]) —
//!   its delta, adverts and membership summary — so a quiet exchange
//!   allocates nothing.

use crate::config::{DigestMode, GossipConfig, FAILURE_THRESHOLD, MEMBERSHIP_SUMMARY_BUDGET};
use crate::digest::{
    apply_delta, delta_entries, digest_wire_bytes, needs_fill, note_holding, DigestEntry, TermKey,
    TermMap,
};
use crate::filter::ShardFilter;
use crate::fleet::GossipFleet;
use crate::frontend::{Frontend, Listing, PeerSync};
use crate::membership::MembershipSummary;
use crate::stats::GossipStats;
use qb_cache::RemoteAdmit;
use qb_common::{IdHasher, SimDuration, SimInstant};
use qb_index::ShardEntry;
use qb_simnet::SimNet;
use std::collections::HashSet;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

/// A set of borrowed term keys.
type TermSet<'a> = HashSet<&'a TermKey, BuildHasherDefault<IdHasher>>;

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
        #[cfg(test)]
        if self.forgetful {
            a.forget_listing();
            b.forget_listing();
        }
        let mut exchange = Exchange {
            config: &self.config,
            net,
            stats: &mut self.stats,
            now,
            class,
        };
        exchange.run(a, b, &mut self.offer_buffers)
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

/// The buffers one exchange side fills, kept by the fleet from one
/// exchange to the next: a quiet exchange allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct OfferBuffers {
    adverts: Vec<DigestEntry>,
    sent: Vec<DigestEntry>,
    membership: MembershipSummary,
}

/// What one side brings to an exchange: its ranked tier, the part of it
/// this exchange advertises, and everything that rides the digest swap.
struct Offer {
    /// The side's whole tier, hot set first, by handle. The listed set and
    /// hot set are exact for the tier state they are read at, so a
    /// frontend warmed earlier in this round advertises (and relays) its
    /// fresh shards in the same round — an accepted fill moves the
    /// generation — giving multi-hop propagation per round instead of one.
    /// The order within each part may be older; the exact one is the
    /// frontend's [`RankedListing::rank_order`](crate::frontend::RankedListing::rank_order),
    /// ranked at this `prepare`.
    held: Listing,
    /// How much of `held` is advertised: the whole tier in a full
    /// exchange, the hot set in a regular one (whose delta-mode holdings
    /// filter is still built over all of `held`).
    hot_len: usize,
    /// Batch-aware adverts, re-resolved once: the digest advertises and the
    /// priority fills offer the identical `(term, version)` list.
    adverts: Vec<DigestEntry>,
    /// A full digest ships the hot set itself ahead of `sent`; a delta
    /// digest ships `sent` alone.
    sends_hot: bool,
    /// The digest's entries past the hot set it ships whole: the delta in
    /// delta mode, then each batch advert the digest did not already carry.
    sent: Vec<DigestEntry>,
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

    /// The digest's entries, in wire order.
    fn digest(&self) -> impl Iterator<Item = &DigestEntry> {
        let whole: &[DigestEntry] = if self.sends_hot { self.hot() } else { &[] };
        whole.iter().chain(&self.sent)
    }

    /// Bytes of the digest half of the swap: entries, filter, segment
    /// pointer.
    fn digest_bytes(&self) -> usize {
        let filter_bytes = self.filter.as_ref().map_or(0, |f| f.wire_bytes());
        digest_wire_bytes(self.digest()) + filter_bytes + self.segment_bytes
    }

    /// Hand the buffers back, emptied, for the next exchange.
    fn recycle(self) -> OfferBuffers {
        let Offer {
            mut adverts,
            mut sent,
            membership,
            ..
        } = self;
        adverts.clear();
        sent.clear();
        OfferBuffers {
            adverts,
            sent,
            membership,
        }
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

    /// Run the exchange: each side is prepared from `buffers`, the digests
    /// are swapped in one RPC, each side applies what it learned, each side
    /// pushes fills; the buffers go back to `buffers`.
    fn run(&mut self, a: &mut Frontend, b: &mut Frontend, buffers: &mut [OfferBuffers; 2]) -> bool {
        let (a_peer, b_peer) = (a.peer, b.peer);
        let exchange_start = self.net.now();
        let exchange_span = self
            .net
            .tracer()
            .open_with("gossip.exchange", exchange_start, || {
                format!("{a_peer}<->{b_peer}")
            });
        let [buffers_a, buffers_b] = std::mem::take(buffers);
        let offer_a = self.prepare(a, b_peer, buffers_a);
        let offer_b = self.prepare(b, a_peer, buffers_b);
        let swapped = self.swap(a, b, &offer_a, &offer_b);
        *buffers = [offer_a.recycle(), offer_b.recycle()];
        let end = self.net.now();
        self.net.tracer().close(exchange_span, end);
        swapped
    }

    /// The digest swap and everything after it. The swap is one
    /// request/response RPC; a partitioned or offline partner fails it
    /// here, no state moves, and the initiator records the failure against
    /// the partner's liveness.
    fn swap(
        &mut self,
        a: &mut Frontend,
        b: &mut Frontend,
        offer_a: &Offer,
        offer_b: &Offer,
    ) -> bool {
        let (a_peer, b_peer) = (a.peer, b.peer);
        let swap = self.net.rpc(
            a_peer,
            b_peer,
            offer_a.digest_bytes() + offer_a.membership.wire_bytes(),
            offer_b.digest_bytes() + offer_b.membership.wire_bytes(),
        );
        if swap.is_err() {
            self.stats.failed_exchanges += 1;
            if a.view.record_failure(b_peer, FAILURE_THRESHOLD) {
                self.stats.evictions += 1;
            }
            return false;
        }
        self.stats.exchanges += 1;
        for offer in [offer_a, offer_b] {
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

        self.learn(a, b, offer_a, offer_b);
        self.learn(b, a, offer_b, offer_a);
        self.send_fills(a, b, offer_a, offer_b);
        self.send_fills(b, a, offer_b, offer_a);
        true
    }

    /// Prepare `own`'s side of the exchange with `partner_peer` in
    /// `buffers`. The digest is the full hot set in full mode, the
    /// per-partner delta plus the (cached) holdings filter over the whole
    /// tier in delta mode — in regular rounds extended by the frontend's
    /// batch-aware adverts, which ride ahead of hot-set popularity.
    fn prepare(&mut self, own: &mut Frontend, partner_peer: u64, buffers: OfferBuffers) -> Offer {
        let OfferBuffers {
            mut adverts,
            mut sent,
            mut membership,
        } = buffers;
        let full = self.class.full();
        let held = own.ranked_holdings(self.now, self.config.hot_set_size);
        let hot = if full {
            &held[..]
        } else {
            &held[..self.config.hot_set_size.min(held.len())]
        };
        if !full && self.config.batch_advertise {
            own.resolved_adverts(&mut adverts);
        }
        let delta_mode = self.delta_mode();
        let filter = delta_mode.then(|| {
            let filter = own.holdings_filter(self.stats);
            let sync = own.sync.entry(partner_peer).or_default();
            // The listing a settled exchange ran over has all been told.
            let told_all =
                matches!(&sync.settled_delta, Some((mine, _)) if Arc::ptr_eq(mine, &held));
            if told_all {
                debug_assert!(delta_entries(hot, &sync.advertised).next().is_none());
            } else {
                sent.extend(delta_entries(hot, &sync.advertised).cloned());
            }
            filter
        });
        let whole: &[DigestEntry] = if delta_mode { &[] } else { hot };
        for advert in &adverts {
            let carried = whole
                .iter()
                .chain(&sent)
                .any(|e| e.term_key() == advert.term_key() && e.version() >= advert.version());
            if !carried {
                sent.push(advert.clone());
                self.stats.batch_adverts += 1;
            }
        }
        own.membership_summary(full, MEMBERSHIP_SUMMARY_BUDGET, &mut membership);
        Offer {
            hot_len: hot.len(),
            adverts,
            sends_hot: !delta_mode,
            sent,
            filter,
            membership,
            segment_bytes: own.segment_advert.map_or(0, |s| s.wire_bytes() as usize),
            held,
        }
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
        let known = &mut me.known;
        if self.class.full() {
            // The holdings view is exact after a full exchange, so any
            // stored partner filter is cleared rather than left to confirm
            // stale coverage.
            sync.filter = None;
            if self.is_settled(sync, mine, theirs) {
                // The same two listings as at the last full exchange and
                // nothing written since: `known` (monotonic) already covers
                // theirs and both maps already are what follows would
                // bring them to.
                debug_assert!(theirs
                    .hot()
                    .iter()
                    .all(|e| known.get(e.term_key()) >= e.version()));
                debug_assert!(
                    sync.advertised.len() == mine.hot().len()
                        && mine
                            .hot()
                            .iter()
                            .all(|e| sync.advertised.get(e.term_key()) == Some(&e.version()))
                );
                debug_assert!(
                    sync.holdings.len() == theirs.hot().len()
                        && theirs
                            .hot()
                            .iter()
                            .all(|e| sync.holdings.get(e.term_key()) == Some(e))
                );
                return;
            }
            // Anti-entropy brings both maps to exactly the two whole tiers
            // (`hot()` is the whole tier in a full exchange), in place. Which
            // versions exist is learned before any fill is admitted.
            sync.unsettle();
            for entry in theirs.hot() {
                known.observe(entry.term_key(), entry.version());
            }
            reconcile(
                &mut sync.advertised,
                mine.hot(),
                |v| *v,
                DigestEntry::version,
            );
            reconcile(
                &mut sync.holdings,
                theirs.hot(),
                DigestEntry::version,
                DigestEntry::clone,
            );
            return;
        }

        // Which versions exist is learned before any fill is admitted.
        for entry in theirs.digest() {
            known.observe(entry.term_key(), entry.version());
        }

        // Per-partner sync state: delta exchanges extend the advertised
        // baseline and fold the partner's delta into the accumulated
        // holdings view; stateless full digests bring the holdings to the
        // partner's hot set (the uncompressed protocol). Whatever moves
        // `advertised` or `holdings` unsettles — a delta exchange whose
        // digests carry only pairs both maps already hold (a batch advert
        // of a shard told before) moves neither.
        if self.delta_mode() {
            let mut moved = false;
            for entry in &mine.sent {
                match sync.advertised.get_mut(entry.term_key()) {
                    Some(told) if *told == entry.version() => {}
                    Some(told) => {
                        *told = entry.version();
                        moved = true;
                    }
                    None => {
                        sync.advertised
                            .insert(entry.term_key().clone(), entry.version());
                        moved = true;
                    }
                }
            }
            moved |= apply_delta(&mut sync.holdings, &theirs.sent);
            if moved {
                sync.unsettle();
            }
            sync.filter = theirs.filter.clone();
        } else {
            sync.unsettle();
            reconcile(
                &mut sync.holdings,
                theirs.hot(),
                DigestEntry::version,
                DigestEntry::clone,
            );
        }
    }

    /// Does `sync` hold this class's settled record over exactly the two
    /// listings the sides brought?
    fn is_settled(&self, sync: &PeerSync, mine: &Offer, theirs: &Offer) -> bool {
        let record = if self.class.full() {
            &sync.settled_full
        } else {
            &sync.settled_delta
        };
        matches!(record, Some((listed, their_listed))
            if Arc::ptr_eq(listed, &mine.held) && Arc::ptr_eq(their_listed, &theirs.held))
    }

    /// Record that `mine` against `theirs` found nothing to push (see
    /// [`Exchange::is_settled`]). In full-digest mode a regular exchange's
    /// record is never read: `learn` replaces `holdings`, and clears the
    /// record with it, on every such exchange.
    fn settle(&self, sync: &mut PeerSync, mine: &Offer, theirs: &Offer) {
        let record = Some((Arc::clone(&mine.held), Arc::clone(&theirs.held)));
        if self.class.full() {
            sync.settled_full = record;
        } else {
            sync.settled_delta = record;
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
    /// Whether any entry needs a fill is asked in the stored order; only
    /// when one does is the hot set walked in exact rank order, the order
    /// of the sender's tier at its `prepare` — a tier the partner's fills
    /// moved since still sends in the order it was ranked in.
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
        let mut fills: Vec<(Arc<ShardEntry>, SimDuration, &DigestEntry)> = Vec::new();
        let mut batch_bytes = 0usize;
        let to_peer = to.peer;
        let nothing_needed = {
            let Frontend {
                cache,
                sync,
                listing,
                ..
            } = &mut *from;
            let sync = sync.get(&to_peer);
            let believed_holdings = sync.map(|sync| &sync.holdings);
            let to_filter = theirs.filter.as_deref();
            let needs = |entry: &DigestEntry| {
                let version = entry.version();
                if version == 0 {
                    return false;
                }
                let believed = believed_holdings.and_then(|held| held.get(entry.term_key()));
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
            // Whether any entry needs a fill does not depend on the order;
            // which ones the budget lets through does, so only then is the
            // hot set put in exact rank order.
            let nothing_needed = !priority.iter().chain(offer.hot()).any(needs);
            if !nothing_needed {
                debug_assert!(Arc::ptr_eq(&listing.held, &offer.held));
                let prioritized: TermSet = priority.iter().map(DigestEntry::term_key).collect();
                let ranked = listing
                    .rank_order(offer.hot_len)
                    .iter()
                    .map(|&at| &offer.held[at])
                    .filter(|e| !prioritized.contains(e.term_key()));
                for entry in priority.iter().chain(ranked) {
                    if !needs(entry) {
                        continue;
                    }
                    if fills.len() >= fill_budget {
                        break;
                    }
                    let term = entry.term();
                    let Some(shard) = cache.peek_shard(term) else {
                        continue;
                    };
                    batch_bytes += shard.encoded_len() + FILL_ENTRY_OVERHEAD;
                    fills.push((Arc::clone(shard), cache.adaptive_shard_ttl(term), entry));
                }
            }
            nothing_needed
        };
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
        for (shard, sender_ttl, entry) in fills {
            self.stats.shards_pushed += 1;
            let known = to.known.get(entry.term_key());
            let outcome = to
                .cache_mut()
                .store_remote_shard(&shard, known, sender_ttl, self.now);
            match outcome {
                RemoteAdmit::Accepted => {
                    self.stats.shards_accepted += 1;
                    to.known.observe(entry.term_key(), shard.version);
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
            // entry was ranked at — so a moved pair is noted at the version
            // shipped, not taken from that entry.
            if matches!(outcome, RemoteAdmit::Accepted | RemoteAdmit::Duplicate) {
                note_holding(&mut sync.holdings, &entry.bumped(shard.version));
            }
        }
    }
}

/// Bring `map` to exactly one value per entry of `listed`, in place: the
/// value (`value` of the entry) is written where the map holds another
/// version (`version_of`), inserted where it holds nothing, and every term
/// `listed` does not name is dropped. `listed` names each term once, so the
/// map holds something else exactly when it ends up larger than `listed`.
fn reconcile<V>(
    map: &mut TermMap<V>,
    listed: &[DigestEntry],
    version_of: impl Fn(&V) -> u64,
    value: impl Fn(&DigestEntry) -> V,
) {
    for entry in listed {
        match map.get_mut(entry.term_key()) {
            Some(held) if version_of(held) == entry.version() => {}
            Some(held) => *held = value(entry),
            None => {
                map.insert(entry.term_key().clone(), value(entry));
            }
        }
    }
    if map.len() > listed.len() {
        let live: TermSet = listed.iter().map(DigestEntry::term_key).collect();
        map.retain(|term, _| live.contains(term));
    }
    debug_assert_eq!(map.len(), listed.len());
}

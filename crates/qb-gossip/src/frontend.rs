//! One frontend of the fleet: its private cache, its version knowledge,
//! its view of the membership, and the memoised listing its digests are
//! built from.
//!
//! Each host-side memo is a field of the thing it memoises, and none of
//! them is read by anything simulated:
//!
//! * the **listing** ([`Frontend::ranked_holdings`]) is named by what it
//!   holds: one handle stands for one `(term, version)` set and one
//!   hot-set cut through it. The simulated wire reads the rank order in
//!   two places only — which entries fall in the first `hot_set_size`, and
//!   the order fills go out in when some entry needs one — so a read that
//!   only reorders the tier keeps the handle. Once the shard tier's
//!   `(generation, popularity epoch)` moved or the clock left the interval
//!   the last check is exact for, one pass over the tier's ranks
//!   ([`QueryCache::shard_ranks`]) re-checks the set and the cut into
//!   buffers the listing keeps, finding each shard's position by the id
//!   the tier gave it, and a new handle is issued only when the set or the
//!   cut moved. A new handle keeps the entry of every shard the old one
//!   listed under the same id — its [`TermKey`](crate::TermKey) and, at
//!   the same version, its filter fingerprint — so a term is hashed once
//!   while it stays resident. A cache put in place through `cache_mut`
//!   restarts its ids and its stamp, so the stamp also names the cache
//!   ([`QueryCache::serial`]) and a swapped cache is listed afresh. The
//!   exact order is a view beside the handle
//!   ([`RankedListing::rank_order`]), sorted only for a fill scan that has
//!   something to send;
//! * the **holdings filter** ([`Frontend::holdings_filter`]) is a function
//!   of the listed key set and belongs to the listing handle: built at most
//!   once per handle, and dropped with it;
//! * the per-partner **settled records** in [`PeerSync`] are two listing
//!   handles, mine and the partner's, at an exchange that had nothing to
//!   tell and nothing to push, so its repetition skips the scans that
//!   would conclude the same — across any read that only reorders either
//!   tier.

use crate::config::FILTER_BITS_PER_ENTRY;
use crate::digest::{DigestEntry, HoldingsView, TermKey, TermMap, VersionVector};
use crate::filter::ShardFilter;
use crate::membership::MembershipView;
use crate::stats::GossipStats;
use qb_cache::{CacheConfig, QueryCache, Rank, RankedKey};
use qb_common::{IdHashMap, SimInstant};
use qb_index::ShardEntry;
use qb_segment::{ImportReport, Segment, SegmentRef};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::Arc;

/// A frontend's shard listing, by handle. [`Frontend::ranked_holdings`]
/// hands out a new handle only when the listed `(term, version)` set or
/// the hot-set cut through it changed, and everything cached behind a
/// listing holds a clone of its handle — so `Arc::ptr_eq` on two of them
/// means "lists the same pairs, the same ones hot".
pub(crate) type Listing = Arc<[DigestEntry]>;

/// What one frontend knows about the sync state with one partner — the
/// receiver-side reconstruction state of the delta-digest protocol.
#[derive(Debug, Clone, Default)]
pub(crate) struct PeerSync {
    /// What this frontend believes the partner holds (accumulated from
    /// the partner's advertisements and own fills).
    pub(crate) holdings: HoldingsView,
    /// `(term -> version)` this frontend last advertised to the partner —
    /// the baseline the next delta digest is computed against.
    pub(crate) advertised: TermMap<u64>,
    /// The partner's holdings filter from the last delta exchange (cleared
    /// by full exchanges, whose holdings view is exact). Zone-aware
    /// anti-entropy uses it to confirm an in-zone candidate still covers
    /// the missing shards before redirecting a partner slot to it.
    pub(crate) filter: Option<Arc<ShardFilter>>,
    /// Regular exchanges: the last one that found nothing to push. While
    /// both listings come back, `advertised` covers my hot set and
    /// `holdings` plus the filter over the partner's listing suppress every
    /// fill — the exchange side repeats itself.
    pub(crate) settled_delta: Option<Settled>,
    /// Full (anti-entropy, bootstrap) exchanges: the last one that found
    /// nothing to push. While both listings come back, `advertised` is
    /// exactly mine, `holdings` exactly theirs, and nothing needs a fill.
    pub(crate) settled_full: Option<Settled>,
}

/// A settled record: my listing and the partner's, by handle, at an
/// exchange side that found nothing to push. The record owns both handles,
/// so neither allocation can be reused while it stands and `Arc::ptr_eq`
/// on them means "the same two listings".
pub(crate) type Settled = (Listing, Listing);

impl PeerSync {
    /// `advertised` or `holdings` moved: whatever an earlier exchange
    /// concluded from them no longer stands. Every path that moves either
    /// map calls this before the next exchange reads a record.
    pub(crate) fn unsettle(&mut self) {
        self.settled_delta = None;
        self.settled_full = None;
    }
}

/// What a ranked shard listing reads besides the clock: the cache it was
/// taken from ([`QueryCache::serial`]), the shard tier's generation and its
/// popularity epoch.
type DigestStamp = (u64, u64, u64);

/// The listing a frontend hands to its exchanges, everything that says
/// whether it still is one, and what is derived from it.
///
/// `held` lists every shard alive in the tier with the hot set — the
/// `cut` highest ranked — ahead of the rest, each part in the order it
/// had when the handle was issued. With the stamp standing and the clock
/// inside `[taken_at, next_expiry)` nothing the listing reads moved (the
/// clock only drops entries past their TTL); past that,
/// [`RankedListing::recheck`] reads the tier's ranks once and says whether
/// the set or the cut moved.
#[derive(Debug, Default)]
pub(crate) struct RankedListing {
    /// The tier stamp of the last check (`None`: never checked, or
    /// forgotten).
    stamp: Option<DigestStamp>,
    taken_at: SimInstant,
    /// Earliest expiry among the listed entries (`None`: nothing listed).
    next_expiry: Option<SimInstant>,
    pub(crate) held: Listing,
    /// The hot-set size the cut was drawn at; the first
    /// `cut.min(held.len())` entries of `held` are the hot set.
    cut: usize,
    /// Each listed entry's rank at the last check, by position in `held`:
    /// the exact order of the tier state that check read.
    ranks: Vec<Rank>,
    /// The position in `held` of each listed entry, by the tier's id for
    /// it ([`RankedKey::id`]): a counter the tier draws, not a hash of the
    /// term, so the index needs no keyed hasher.
    positions: IdHashMap<usize>,
    /// Scratch of [`RankedListing::rank_order`].
    order: Vec<usize>,
    /// The holdings filter over `held` — a pure function of the listed key
    /// set — once a delta exchange asked for it under this handle.
    pub(crate) filter: Option<Arc<ShardFilter>>,
}

impl RankedListing {
    /// Does the listing stand at `now` — the same pairs, the same ones hot
    /// at `cut`? One pass over the tier's ranks: as many shards alive as
    /// listed, each found by its id at its listed version, is the same set
    /// (a key keeps its id only while it stays resident); while it stands
    /// `ranks` and `next_expiry` take the tier's current values and the hot
    /// set drawn at `cut` is compared with the listed one. The first shard
    /// not listed ends it; nothing is sorted, hashed by text or allocated.
    fn recheck(&mut self, cache: &QueryCache, now: SimInstant, cut: usize) -> bool {
        let mut alive = 0usize;
        let mut next_expiry: Option<SimInstant> = None;
        for shard in cache.shard_ranks(now) {
            let listed = self.positions.get(&shard.id).copied().filter(|&at| {
                self.held
                    .get(at)
                    .is_some_and(|e| e.version() == shard.version)
            });
            let Some(at) = listed else {
                return false;
            };
            self.ranks[at] = shard.rank;
            alive += 1;
            next_expiry = Some(next_expiry.map_or(shard.expires_at, |e| e.min(shard.expires_at)));
        }
        if alive != self.held.len() {
            return false;
        }
        self.next_expiry = next_expiry;
        let (hot, cold) = self.ranks.split_at(self.cut.min(self.ranks.len()));
        self.cut == cut
            && match (hot.iter().min(), cold.iter().max()) {
                (Some(floor), Some(top)) => floor > top,
                _ => true,
            }
    }

    /// List the tier afresh at `now` under a new handle, hottest first,
    /// cut at `cut` and without a filter. A shard the old handle listed
    /// under the same id keeps its entry ([`DigestEntry::bumped`] to the
    /// version it holds now), and only a shard stored since is keyed
    /// afresh.
    fn relist(&mut self, cache: &QueryCache, now: SimInstant, cut: usize) {
        let mut fresh: Vec<RankedKey<'_>> = cache.shard_ranks(now).collect();
        fresh.sort_unstable_by_key(|shard| Reverse(shard.rank));
        let listed = |shard: &RankedKey<'_>| {
            let entry = self.held.get(*self.positions.get(&shard.id)?)?;
            debug_assert_eq!(entry.term(), shard.key, "a tier id names one key");
            Some(entry)
        };
        self.held = fresh
            .iter()
            .map(|shard| match listed(shard) {
                Some(entry) => entry.bumped(shard.version),
                None => DigestEntry::new(TermKey::of(shard.key), shard.version),
            })
            .collect();
        self.filter = None;
        self.ranks.clear();
        self.ranks.extend(fresh.iter().map(|shard| shard.rank));
        self.positions.clear();
        self.positions
            .extend(fresh.iter().enumerate().map(|(at, shard)| (shard.id, at)));
        self.next_expiry = fresh.iter().map(|shard| shard.expires_at).min();
        self.cut = cut;
    }

    /// Where the listing's allocations live — the handle's entries, the
    /// rank and order buffers: equal before and after a stretch of reads
    /// and exchanges means the memo allocated nothing in between.
    #[cfg(test)]
    pub(crate) fn allocations(&self) -> (*const DigestEntry, *const Rank, *const usize) {
        (self.held.as_ptr(), self.ranks.as_ptr(), self.order.as_ptr())
    }

    /// The first `len` positions of `held` in exact rank order — the order
    /// of the tier state the last check read, which a kept handle's own
    /// order may no longer be. Sorted on every call: only a fill scan with
    /// something to send asks.
    pub(crate) fn rank_order(&mut self, len: usize) -> &[usize] {
        let RankedListing { ranks, order, .. } = self;
        order.clear();
        order.extend(0..len.min(ranks.len()));
        order.sort_unstable_by_key(|&at| Reverse(ranks[at]));
        order
    }
}

fn stamp_of(cache: &QueryCache) -> DigestStamp {
    (
        cache.serial(),
        cache.shard_generation(),
        cache.shard_popularity_epoch(),
    )
}

/// One query frontend: a peer in the simulated network, its private cache,
/// its per-term version knowledge and its view of the fleet.
#[derive(Debug)]
pub struct Frontend {
    /// The simulated peer this frontend runs on.
    pub peer: u64,
    /// The latency zone this frontend lives in (`peer % config.zones`,
    /// matching `qb-simnet`'s round-robin zone assignment).
    pub zone: usize,
    /// Highest shard version observed per term (DHT fetches, publish events,
    /// gossip digests and fills).
    pub known: VersionVector,
    /// SWIM-style incarnation epoch: bumped on every restart
    /// ([`GossipFleet::rejoin`](crate::GossipFleet::rejoin)), so liveness
    /// evidence compares
    /// `(incarnation, heartbeat)` and a long-delayed summary from a
    /// previous incarnation can never confuse the fleet about the
    /// restarted process.
    pub(crate) incarnation: u64,
    /// Per-incarnation heartbeat counter (a restarted process starts over
    /// from zero; the bumped incarnation is what supersedes stale views).
    pub(crate) heartbeat: u64,
    /// True once the frontend left or crashed; departed slots keep their
    /// index (engine routing stays stable) but take no part in gossip.
    pub(crate) departed: bool,
    /// This frontend's own view of fleet membership.
    pub(crate) view: MembershipView,
    /// Per-partner delta-digest sync state.
    pub(crate) sync: HashMap<u64, PeerSync>,
    /// Rotating cursor of the bounded membership summaries.
    pub(crate) summary_cursor: usize,
    /// Batch-aware gossip: `(term, version)` keys a batch window freshly
    /// fetched on this frontend, queued to ride the next digest round as
    /// priority advertisements and priority fills.
    pub(crate) pending_adverts: Vec<DigestEntry>,
    /// Every shard alive in the cache, hot set first, under a handle that
    /// lives as long as the listed set and its hot set do: a tier nothing
    /// touched is not even re-checked, one that reads only reordered is
    /// re-checked in one pass and keeps the handle. Its holdings filter
    /// and exact rank order ride with it.
    pub(crate) listing: RankedListing,
    /// The newest published segment artifact this frontend knows of,
    /// adopted from publish notifications and digest piggybacks; joiners
    /// probe for it to bootstrap from the artifact instead of shard fills.
    pub(crate) segment_advert: Option<SegmentRef>,
    /// The load EWMA this frontend advertises on its heartbeats: folded
    /// from `load_recent` on every gossip round, so it decays once serving
    /// stops and spikes one round after it starts.
    pub(crate) load: u64,
    /// Queries served since the last heartbeat tick (the EWMA's raw input).
    pub(crate) load_recent: u64,
    /// Queries the open-loop dispatcher routed here that are still
    /// *queued* — admitted but not yet handed to a pipeline window. The
    /// router's local gauge of its own decisions (C3-style); without it,
    /// every arrival inside one heartbeat interval sees the same
    /// advertised-load snapshot and two-choices herds the whole burst
    /// onto one frontend. Deliberately excludes the dispatched in-flight
    /// window: an empty-queue frontend mid-window should keep collecting
    /// arrivals so they batch into its next window and share fetches.
    pub(crate) routed_outstanding: u64,
    /// Queries the open-loop dispatcher handed to this frontend's
    /// pipeline windows since the last heartbeat fold (reset at the
    /// fold). The cumulative half of the routing signal: it equalizes
    /// *how much* work each frontend took this interval, not just what
    /// is queued right now, so a fast-draining frontend does not soak up
    /// every arrival between heartbeats.
    pub(crate) routed_recent: u64,
    /// The private query-serving cache.
    pub(crate) cache: QueryCache,
}

impl Frontend {
    pub(crate) fn new(peer: u64, zone: usize, cache_config: CacheConfig) -> Frontend {
        let cache = QueryCache::new(cache_config);
        Frontend {
            peer,
            zone,
            known: VersionVector::new(),
            incarnation: 0,
            heartbeat: 0,
            departed: false,
            view: MembershipView::new(),
            sync: HashMap::new(),
            summary_cursor: 0,
            pending_adverts: Vec::new(),
            listing: RankedListing::default(),
            segment_advert: None,
            load: 0,
            load_recent: 0,
            routed_outstanding: 0,
            routed_recent: 0,
            cache,
        }
    }

    /// The membership summary piggybacked on one exchange, written over
    /// `out`: the full roster for anti-entropy/bootstrap, a bounded rotating
    /// window otherwise.
    pub(crate) fn membership_summary(
        &mut self,
        full: bool,
        budget: usize,
        out: &mut crate::MembershipSummary,
    ) {
        if full {
            self.view.summary(out);
            return;
        }
        self.view
            .summary_window(self.summary_cursor, budget, self.peer, out);
        self.summary_cursor = self.summary_cursor.wrapping_add(budget.max(1));
    }

    /// Borrow the cache.
    pub fn cache(&self) -> &QueryCache {
        &self.cache
    }

    /// Mutably borrow the cache.
    pub fn cache_mut(&mut self) -> &mut QueryCache {
        &mut self.cache
    }

    /// Is the frontend part of the fleet (not departed/crashed)?
    pub fn is_active(&self) -> bool {
        !self.departed
    }

    /// The pending batch adverts re-resolved against the current cache:
    /// entries evicted since the window are dropped, and a key republished
    /// in between advertises (and fills) the *cached* version — digest and
    /// priority-fill decisions must agree on one version, or a partner
    /// already holding the stale queued version would suppress the very
    /// fill the advert exists to force. Appended to `out`.
    pub(crate) fn resolved_adverts(&self, out: &mut Vec<DigestEntry>) {
        out.extend(self.pending_adverts.iter().filter_map(|entry| {
            let version = self.cache.cached_shard_version(entry.term())?;
            Some(entry.bumped(version))
        }));
    }

    /// Every shard alive in the cache at `now`, shared by handle, the hot
    /// set (the `hot_set_size` hottest) first. The handle is kept while the
    /// listed `(term, version)` set and the hot set stand, whatever reads
    /// did to the order within them (a `Fresh` read re-stores the version
    /// it fetched: the generation moves, the set does not), so the
    /// partners' settled records naming it and the filter stored beside it
    /// stay valid; a new handle starts without a filter. The exact order
    /// is [`RankedListing::rank_order`]. With
    /// the shard tier's generation and popularity epoch standing still and
    /// `now` inside `[taken_at, next_expiry)`, not even the check runs. A
    /// full exchange advertises all of it, a regular one its hot set.
    pub(crate) fn ranked_holdings(&mut self, now: SimInstant, hot_set_size: usize) -> Listing {
        let stamp = stamp_of(&self.cache);
        let memo = &mut self.listing;
        if memo.stamp.is_some_and(|(serial, ..)| serial != stamp.0) {
            // Another cache was put in place: its tier ids restarted, so
            // nothing listed can be matched against it by id.
            *memo = RankedListing::default();
        }
        let current = memo.stamp == Some(stamp)
            && memo.cut == hot_set_size
            && memo.taken_at <= now
            && memo.next_expiry.is_none_or(|expiry| now < expiry);
        if !current {
            if !memo.recheck(&self.cache, now, hot_set_size) {
                memo.relist(&self.cache, now, hot_set_size);
            }
            memo.stamp = Some(stamp);
            memo.taken_at = now;
        }
        Arc::clone(&memo.held)
    }

    /// The holdings filter over the listing [`Frontend::ranked_holdings`]
    /// last handed out: the one stored beside its handle, or built and
    /// stored there when that handle has none yet.
    pub(crate) fn holdings_filter(&mut self, stats: &mut GossipStats) -> Arc<ShardFilter> {
        let memo = &mut self.listing;
        if let Some(filter) = &memo.filter {
            stats.filter_reuses += 1;
            return Arc::clone(filter);
        }
        stats.filter_builds += 1;
        let keys = memo.held.iter().map(DigestEntry::key);
        let filter = Arc::new(ShardFilter::build(keys, FILTER_BITS_PER_ENTRY));
        memo.filter = Some(Arc::clone(&filter));
        filter
    }

    /// Drop the listing memo: the next [`Frontend::ranked_holdings`] lists
    /// the tier afresh under a new handle, with no filter. A fleet whose
    /// frontends forget before every exchange runs the protocol with no
    /// memo standing, which the differential test compares against.
    #[cfg(test)]
    pub(crate) fn forget_listing(&mut self) {
        self.listing = RankedListing::default();
    }

    /// This frontend's view of fleet membership.
    pub fn view(&self) -> &MembershipView {
        &self.view
    }

    /// Install a segment — a fetched bootstrap artifact, or a previous
    /// session's warm-start snapshot — into the cache under the version
    /// guard (a shard older than this frontend's knowledge is rejected),
    /// recording each shard's version once its guard is read. A segment is
    /// the one way a term reaches a frontend without passing the engine,
    /// so its terms are keyed here.
    pub fn import_segment(&mut self, segment: &Segment, now: SimInstant) -> ImportReport {
        let Frontend { cache, known, .. } = self;
        // One key per term: its guard read, then its observation.
        let guard_then_observe = |shard: &ShardEntry| {
            let key = TermKey::of(shard.term.as_str());
            let guard = known.get(&key);
            known.observe(&key, shard.version);
            guard
        };
        segment.import_into(cache, guard_then_observe, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_common::SimDuration;
    use qb_index::{ShardEntry, ShardPosting};

    fn shard(term: &str, version: u64) -> ShardEntry {
        let mut s = ShardEntry::empty(term);
        s.version = version;
        s.upsert(ShardPosting {
            doc_id: 1,
            term_freq: 2,
            doc_len: 50,
            name: format!("page/{term}").into(),
            version: 1,
            creator: 1,
        });
        s
    }

    fn terms(listing: &Listing) -> Vec<&str> {
        listing.iter().map(DigestEntry::term).collect()
    }

    /// A cache put in place of the one a listing was taken from restarts
    /// its tier ids and its `(generation, popularity epoch)` stamp, so the
    /// stamp alone would call the old listing current: the listing names
    /// the cache it came from, and a swapped cache is listed afresh.
    #[test]
    fn a_swapped_cache_is_listed_afresh() {
        let mut f = Frontend::new(0, 0, CacheConfig::enabled());
        let now = SimInstant::ZERO;
        f.cache_mut().store_shard(&shard("alpha", 1), now);
        assert_eq!(terms(&f.ranked_holdings(now, 64)), ["alpha"]);

        *f.cache_mut() = QueryCache::new(CacheConfig::enabled());
        f.cache_mut().store_shard(&shard("beta", 1), now);
        assert_eq!(terms(&f.ranked_holdings(now, 64)), ["beta"]);
        let later = now + SimDuration::from_millis(1);
        assert_eq!(terms(&f.ranked_holdings(later, 64)), ["beta"]);
    }
}

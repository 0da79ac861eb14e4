//! One frontend of the fleet: its private cache, its version knowledge,
//! its view of the membership, and the memoised listings its digests are
//! built from.
//!
//! Three host-side memos let an exchange cost what changed since the last
//! one, and none of them is read by anything simulated:
//!
//! * the **listing** ([`Frontend::ranked_holdings`]) is re-ranked only when
//!   the shard tier's `(generation, popularity epoch)` moved or the clock
//!   left the interval the last ranking is exact for, and a re-ranking
//!   that lists what the last one listed keeps the old handle — so the
//!   handle's identity means "the same `(term, version)` sequence";
//! * the **holdings filter** ([`Frontend::holdings_filter`]) belongs to the
//!   listing handle it was built over;
//! * the per-partner **settled records** in [`PeerSync`] remember, by
//!   handle, an exchange that had nothing to tell and nothing to push, so
//!   its repetition skips the scans that would conclude the same.
//!
//! The **fingerprint memo** ([`Fingerprints`]) is where a listed term's
//! text meets its keys: a pair it does not hold is hashed there into its
//! [`TermKey`](crate::TermKey) and filter fingerprint (a version bump
//! re-hashes only the fingerprint), and from there on `PeerSync`'s maps
//! and `known` are probed by the key the entry carries.

use crate::config::FILTER_BITS_PER_ENTRY;
use crate::digest::{DigestEntry, HoldingsView, TermMap, VersionVector};
use crate::filter::ShardFilter;
use crate::membership::MembershipView;
use crate::stats::GossipStats;
use qb_cache::{CacheConfig, QueryCache};
use qb_common::SimInstant;
use qb_segment::{ImportReport, Segment, SegmentRef};
use std::collections::HashMap;
use std::sync::Arc;

/// A frontend's ranked shard listing, by handle. [`Frontend::ranked_holdings`]
/// hands out a new handle only when the listed `(term, version)` sequence
/// changed, and everything cached behind a listing holds a clone of its
/// handle — so `Arc::ptr_eq` on two of them means "lists the same thing".
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
    /// This frontend's `known` covers every entry of `holdings`. Set by the
    /// full exchange that observed all of them; cleared when a fill
    /// acknowledgement notes a version the sender had not observed itself.
    /// While set, a full exchange skips `known.observe` for the entries
    /// `holdings` already held.
    pub(crate) holdings_observed: bool,
    /// The partner's holdings filter from the last delta exchange (cleared
    /// by full exchanges, whose holdings view is exact). Zone-aware
    /// anti-entropy uses it to confirm an in-zone candidate still covers
    /// the missing shards before redirecting a partner slot to it.
    pub(crate) filter: Option<Arc<ShardFilter>>,
    /// Delta exchanges: my listing and the partner's holdings filter at
    /// the last one that found nothing to push. While both handles come
    /// back, `advertised` covers my hot set and `holdings` plus that
    /// filter suppress every fill — the exchange side repeats itself.
    pub(crate) settled_delta: Option<(Listing, Arc<ShardFilter>)>,
    /// Full (anti-entropy, bootstrap) exchanges: my listing and the
    /// partner's at the last one that found nothing to push. While both
    /// handles come back, `advertised` is exactly mine, `holdings` exactly
    /// theirs, and nothing needs a fill.
    pub(crate) settled_full: Option<(Listing, Listing)>,
}

impl PeerSync {
    /// `advertised` or `holdings` is about to change: whatever an earlier
    /// exchange concluded from them no longer stands. Every path that
    /// writes either map calls this first.
    pub(crate) fn unsettle(&mut self) {
        self.settled_delta = None;
        self.settled_full = None;
    }
}

/// One frontend's memo of the `(term, version)` pairs it has keyed and
/// fingerprinted: term -> the entry of the version last asked for. Every
/// pair this frontend puts into a digest, an advert or a holdings view goes
/// through here, so it is hashed once while it stays resident; a miss
/// hashes and remembers (a new term its key and fingerprint, a bumped
/// version its fingerprint). Pruned to the live listing at every digest
/// extraction, so it is bounded by the resident tier entries.
#[derive(Debug, Default)]
pub(crate) struct Fingerprints(pub(crate) HashMap<Arc<str>, DigestEntry>);

impl Fingerprints {
    pub(crate) fn entry(&mut self, term: &str, version: u64) -> DigestEntry {
        let known = self.0.get(term);
        if let Some(entry) = known.filter(|e| e.version() == version) {
            return entry.clone();
        }
        // A version bump keeps the term's key and allocation.
        let entry = match known {
            Some(known) => known.bumped(version),
            None => DigestEntry::new(term, version),
        };
        self.0
            .insert(Arc::clone(entry.term_key().term()), entry.clone());
        entry
    }

    /// Drop every term that is not in `live` — which was just resolved
    /// through [`Fingerprints::entry`], so the memo holds all of it and is
    /// larger exactly when it also holds something else.
    fn retain_live(&mut self, live: &[DigestEntry]) {
        if self.0.len() > live.len() {
            self.0 = live
                .iter()
                .map(|e| (Arc::clone(e.term_key().term()), e.clone()))
                .collect();
        }
    }
}

/// What a ranked shard listing reads besides the clock: the shard tier's
/// generation and its popularity epoch.
type DigestStamp = (u64, u64);

/// The last ranked listing and everything that says whether it still is
/// one: the clock only drops entries past their TTL, so with the stamp
/// standing the listing is exact from the instant it was taken until the
/// first of its entries expires.
#[derive(Debug)]
struct RankedListing {
    stamp: DigestStamp,
    taken_at: SimInstant,
    /// Earliest expiry among the listed entries (`None`: nothing listed).
    next_expiry: Option<SimInstant>,
    ranked: Listing,
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
    pub(crate) pending_adverts: Vec<(String, u64)>,
    /// Every shard alive in the cache, hottest first, cached behind
    /// everything the ranking reads — the shard tier's `(generation,
    /// popularity epoch)` and the interval of instants no listed entry
    /// expires in: a tier nothing touched is scanned, ranked and resolved
    /// once, not once per exchange side or per round.
    digest_cache: Option<RankedListing>,
    /// The holdings filter of the last delta exchange with the listing it
    /// was built over — a pure function of the listed key set, so it
    /// stands for as long as that listing's handle is handed out.
    filter_cache: Option<(Listing, Arc<ShardFilter>)>,
    /// The fingerprints behind this frontend's digests and adverts.
    pub(crate) fingerprints: Fingerprints,
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
    /// The private query-serving cache, always `Some`. It is an `Option`
    /// only because the planner takes the serving cache as
    /// `&mut Option<QueryCache>` (`None` = caching off in single-frontend
    /// mode), a signature `bench/` pins;
    /// [`GossipFleet::cache_slot`](crate::GossipFleet::cache_slot) lends the
    /// engine this field in that shape.
    pub(crate) cache: Option<QueryCache>,
}

impl Frontend {
    pub(crate) fn new(peer: u64, zone: usize, cache_config: CacheConfig) -> Frontend {
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
            digest_cache: None,
            filter_cache: None,
            fingerprints: Fingerprints::default(),
            segment_advert: None,
            load: 0,
            load_recent: 0,
            routed_outstanding: 0,
            routed_recent: 0,
            cache: Some(QueryCache::new(cache_config)),
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
        self.cache.as_ref().expect("frontend always holds a cache")
    }

    /// Mutably borrow the cache.
    pub fn cache_mut(&mut self) -> &mut QueryCache {
        self.cache.as_mut().expect("frontend always holds a cache")
    }

    /// Is the frontend part of the fleet (not departed/crashed)?
    pub fn is_active(&self) -> bool {
        !self.departed
    }

    /// Current heartbeat counter (within the current incarnation).
    pub fn heartbeat(&self) -> u64 {
        self.heartbeat
    }

    /// Current incarnation epoch (bumped on every restart).
    pub fn incarnation(&self) -> u64 {
        self.incarnation
    }

    /// The pending batch adverts re-resolved against the current cache:
    /// entries evicted since the window are dropped, and a key republished
    /// in between advertises (and fills) the *cached* version — digest and
    /// priority-fill decisions must agree on one version, or a partner
    /// already holding the stale queued version would suppress the very
    /// fill the advert exists to force. Appended to `out`.
    pub(crate) fn resolved_adverts(&mut self, out: &mut Vec<DigestEntry>) {
        let Frontend {
            pending_adverts,
            cache,
            fingerprints,
            ..
        } = self;
        out.extend(pending_adverts.iter().filter_map(|(term, _)| {
            let version = cache.as_ref()?.cached_shard_version(term)?;
            Some(fingerprints.entry(term, version))
        }));
    }

    /// Every shard alive in the cache at `now`, hottest first, shared by
    /// handle. The cached listing is exact while the shard tier's
    /// generation and its popularity epoch (reads reorder the ranking
    /// without moving the generation) stand still and `now` stays inside
    /// `[taken_at, next_expiry)`. Past that the tier is ranked again — and
    /// when the new ranking lists the same `(term, version)` at every
    /// position (a `Fresh` read re-stores the version it fetched: the
    /// generation moves, the listing does not) the old handle is kept, so
    /// whatever is cached behind it — the holdings filter, the partners'
    /// settled records — stays valid. A full exchange advertises all of
    /// it, a regular one its first `hot_set_size`.
    pub(crate) fn ranked_holdings(&mut self, now: SimInstant) -> Listing {
        let cache = self.cache();
        let stamp: DigestStamp = (cache.shard_generation(), cache.shard_popularity_epoch());
        if let Some(cached) = &self.digest_cache {
            if cached.stamp == stamp
                && cached.taken_at <= now
                && cached.next_expiry.is_none_or(|expiry| now < expiry)
            {
                return Arc::clone(&cached.ranked);
            }
        }
        let next_expiry = cache.next_shard_expiry(now);
        // Borrow the cache by field from here on: the listing's terms point
        // into it while the fingerprint memo next to it is written.
        let listing = self
            .cache
            .as_ref()
            .map_or_else(Vec::new, |cache| cache.shard_digest(usize::MAX, now));
        // Compared before anything is fingerprinted: pointer-free string
        // and integer compares against the entries already resolved.
        let unchanged = self.digest_cache.take().filter(|cached| {
            cached.ranked.len() == listing.len()
                && cached
                    .ranked
                    .iter()
                    .zip(&listing)
                    .all(|(old, &(term, version))| old.version() == version && old.term() == term)
        });
        let ranked: Listing = match unchanged {
            Some(cached) => cached.ranked,
            None => listing
                .into_iter()
                .map(|(term, version)| self.fingerprints.entry(term, version))
                .collect(),
        };
        self.fingerprints.retain_live(&ranked);
        self.digest_cache = Some(RankedListing {
            stamp,
            taken_at: now,
            next_expiry,
            ranked: Arc::clone(&ranked),
        });
        ranked
    }

    /// The holdings filter over `holdings`, a listing
    /// [`Frontend::ranked_holdings`] handed out: served from the
    /// per-frontend cache while that same handle comes back, built (and
    /// remembered with the handle, which keeps the allocation from being
    /// reused under the comparison) when the listing changed.
    pub(crate) fn holdings_filter(
        &mut self,
        holdings: &Listing,
        stats: &mut GossipStats,
    ) -> Arc<ShardFilter> {
        if let Some((listed, filter)) = &self.filter_cache {
            if Arc::ptr_eq(listed, holdings) {
                stats.filter_reuses += 1;
                return Arc::clone(filter);
            }
        }
        stats.filter_builds += 1;
        let filter = Arc::new(ShardFilter::build(
            holdings.iter().map(DigestEntry::key),
            FILTER_BITS_PER_ENTRY,
        ));
        self.filter_cache = Some((Arc::clone(holdings), Arc::clone(&filter)));
        filter
    }

    /// This frontend's view of fleet membership.
    pub fn view(&self) -> &MembershipView {
        &self.view
    }

    /// Install a segment — a fetched bootstrap artifact, or a previous
    /// session's warm-start snapshot — into the cache under the version
    /// guard (a shard older than this frontend's knowledge is rejected),
    /// then record every shard version the segment carries.
    pub fn import_segment(&mut self, segment: &Segment, now: SimInstant) -> ImportReport {
        let Frontend { cache, known, .. } = self;
        let Some(cache) = cache else {
            return ImportReport::default();
        };
        let report = segment.import_into(cache, |term| known.get(term), now);
        for shard in segment.shards() {
            known.observe(&shard.term, shard.version);
        }
        report
    }
}

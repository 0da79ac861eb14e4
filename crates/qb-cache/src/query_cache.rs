//! The three-tier query-serving cache used by the QueenBee frontend.
//!
//! **Ownership rule.** What the tiers hold is immutable and shared: a shard
//! lives in the tier as an `Arc<ShardEntry>` and a scored result list as an
//! `Arc<Vec<ScoredDoc>>`, and every read hands out another handle to the
//! same allocation — a hit, a gossip fill and a segment import are
//! reference-count bumps, never copies. A handle is a snapshot: replacing
//! or invalidating the tier's entry leaves the holder's data untouched.
//! Only a writer that needs to *change* a shard takes a copy
//! (`Arc::unwrap_or_clone`).

use crate::config::{
    CacheConfig, ADAPTIVE_TTL_CEILING, ADAPTIVE_TTL_FLOOR, NEGATIVE_CAPACITY_BYTES, NEGATIVE_TTL,
};
use crate::metrics::CacheMetrics;
use crate::tier::{CacheTier, RankedKey};
use qb_common::{SimDuration, SimInstant};
use qb_index::{IndexStats, ScoreInputs, ScoredDoc, ShardEntry};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The serial the next cache built in this process takes.
static NEXT_SERIAL: AtomicU64 = AtomicU64::new(0);

/// A cached, fully scored result list plus everything needed to prove it is
/// still current.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The full ranked list, shared with whoever computed it (and with every
    /// reader served from this entry).
    pub results: Arc<Vec<ScoredDoc>>,
    /// Shard version of every query term the list was scored from, in the
    /// storing query's term order (a permuted query files under the same
    /// key, so compare them as a set). The entry is only served while each
    /// term's current version still matches. A hit shares them with the
    /// tier's entry.
    pub term_versions: Arc<[(Arc<str>, u64)]>,
    /// The statistics and rank round the list was scored under. A shard at
    /// a term version never changes, so a scoring of these term versions
    /// under these inputs builds this list again, bit for bit.
    pub inputs: ScoreInputs,
}

/// Outcome of a shard-tier lookup ([`QueryCache::lookup_shard_within`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardLookup {
    /// The term's shard was cached and current: a handle to the tier's own
    /// copy.
    Hit(Arc<ShardEntry>),
    /// The cached shard's version has been superseded, but its age is within
    /// the caller's staleness bound: served without a DHT trip. Only a read
    /// under a bound returns it.
    Stale {
        /// The cached (superseded) shard, shared with the tier.
        shard: Arc<ShardEntry>,
        /// Time since the copy was stored.
        age: SimDuration,
    },
    /// The term is cached as proven-absent; skip the DHT entirely.
    Negative,
    /// Nothing servable; fetch through the DHT.
    Miss,
}

/// Outcome of admitting a shard received from another frontend (gossip fill
/// or warm-start import).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RemoteAdmit {
    /// The shard was newer than anything cached or known; it is now cached.
    Accepted,
    /// The shard's version lags a version this cache has already observed —
    /// a stale copy must never replace a fresher one.
    Stale,
    /// An equal-or-newer copy was already cached; nothing to do.
    Duplicate,
    /// The eviction/admission policy refused to store it (tier pressure).
    Refused,
}

/// Per-term republish-rate observations feeding the adaptive TTL policy.
/// The interval estimate is an EWMA so a burst of edits shortens the TTL
/// quickly while a long quiet spell slowly relaxes it back.
#[derive(Debug, Clone, Copy)]
struct RepublishTracker {
    last: SimInstant,
    ewma_interval_us: f64,
    observations: u32,
}

impl RepublishTracker {
    fn observe(&mut self, now: SimInstant) {
        // A term appearing in several pages of one indexing batch is
        // invalidated once per page at the same simulated instant; that is
        // one republish event, not a zero-interval storm (which would pin
        // the EWMA — and thus the TTL — to the floor forever).
        if self.observations > 0 && now == self.last {
            return;
        }
        if self.observations > 0 {
            let interval = now.since(self.last).as_micros() as f64;
            self.ewma_interval_us = if self.observations == 1 {
                interval
            } else {
                0.5 * self.ewma_interval_us + 0.5 * interval
            };
        }
        self.last = now;
        self.observations = self.observations.saturating_add(1);
    }

    fn interval_estimate(&self) -> Option<SimDuration> {
        (self.observations >= 2).then(|| SimDuration::from_micros(self.ewma_interval_us as u64))
    }
}

/// Normalize an analyzed term list into the result-cache key: terms sorted
/// and joined, so `"peer decentralized"` and `"decentralized peer"` share an
/// entry (scoring is order-independent).
pub fn result_key<'t>(terms: impl IntoIterator<Item = &'t str>) -> String {
    let mut sorted: Vec<&str> = terms.into_iter().collect();
    sorted.sort_unstable();
    sorted.join(" ")
}

fn shard_bytes(s: &ShardEntry) -> usize {
    s.term.len()
        + 8
        + s.postings
            .iter()
            .map(|p| 8 + 4 + 4 + 8 + 8 + p.name.len())
            .sum::<usize>()
        + 32
}

/// The multi-tier cache. All methods take the current simulated time; the
/// cache never reads a wall clock.
#[derive(Debug)]
pub struct QueryCache {
    config: CacheConfig,
    results: CacheTier<CachedResult>,
    shards: CacheTier<Arc<ShardEntry>>,
    /// Negative entries store the shard version they were proven absent at
    /// (always 0: absent terms have never been written).
    negatives: CacheTier<()>,
    /// The global statistics record as last read, keyed by its own version.
    stats: Option<IndexStats>,
    /// term -> republish-rate observations for the adaptive TTL policy.
    /// Bounded by the number of terms ever republished while this cache was
    /// alive (terms only enter through publish-path invalidation).
    republish: HashMap<String, RepublishTracker>,
    /// Names this cache among every cache the process built.
    serial: u64,
}

impl QueryCache {
    /// Build a cache from a validated configuration.
    pub fn new(config: CacheConfig) -> QueryCache {
        QueryCache {
            results: CacheTier::new(config.result_capacity_bytes),
            shards: CacheTier::new(config.shard_capacity_bytes),
            negatives: CacheTier::new(NEGATIVE_CAPACITY_BYTES),
            stats: None,
            republish: HashMap::new(),
            serial: NEXT_SERIAL.fetch_add(1, Ordering::Relaxed),
            config,
        }
    }

    /// The configuration the cache was built with.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    // ----- result tier -------------------------------------------------------------

    /// Look up a result entry. `current_version` maps a term to its current
    /// shard version; the entry is served only when every recorded term
    /// version still matches (and its TTL has not lapsed). A hit shares the
    /// entry's list; a stale entry is dropped without being handed out and
    /// counted as an invalidation. This check is the only thing that
    /// removes a superseded result: publish-path invalidation does not
    /// touch the result tier, and the TTL is the backstop.
    pub fn lookup_result(
        &mut self,
        key: &str,
        now: SimInstant,
        mut current_version: impl FnMut(&str) -> u64,
    ) -> Option<CachedResult> {
        let entry = self.results.get(key, now, None)?;
        let stale = entry
            .term_versions
            .iter()
            .any(|(term, v)| current_version(term) != *v);
        if stale {
            // The tier counted a hit; correct it to an invalidation-miss.
            self.results.metrics.hits -= 1;
            self.results.metrics.misses += 1;
            self.results.invalidate(key);
            return None;
        }
        Some(entry.clone())
    }

    /// The entry resident under `key`, expired or not, without touching
    /// any counter, the recency order or the frequency sketch: a probe
    /// that must not look like query traffic.
    pub fn peek_result(&self, key: &str) -> Option<&CachedResult> {
        self.results.peek(key)
    }

    /// Offer the result tier the entry of `key`: the list `list` would
    /// build — `list_bytes` is its documents' [`ScoredDoc::bytes`] summed —
    /// computed from the given per-term shard versions under `inputs`. The
    /// list and the entry's term versions are built only once the tier
    /// admits the entry; the tier keeps the list `list` returns, it does
    /// not copy it. Returns whether the entry was admitted.
    pub fn store_result<'t>(
        &mut self,
        key: &str,
        term_versions: impl Iterator<Item = (&'t Arc<str>, u64)> + Clone,
        inputs: ScoreInputs,
        list_bytes: usize,
        now: SimInstant,
        list: impl FnOnce() -> Arc<Vec<ScoredDoc>>,
    ) -> bool {
        let terms = term_versions.clone().map(|(term, _)| term.len() + 8);
        let bytes = key.len() + list_bytes + terms.sum::<usize>() + 48;
        let entry = || {
            let results = list();
            debug_assert_eq!(
                results.iter().map(ScoredDoc::bytes).sum::<usize>(),
                list_bytes
            );
            CachedResult {
                results,
                term_versions: term_versions
                    .map(|(term, version)| (Arc::clone(term), version))
                    .collect(),
                inputs,
            }
        };
        let ttl = self.config.result_ttl;
        self.results.insert(key, bytes, 0, now, ttl, entry)
    }

    // ----- shard + negative tiers --------------------------------------------------

    /// The strict read: [`QueryCache::lookup_shard_within`] without a
    /// staleness bound.
    pub fn lookup_shard(
        &mut self,
        term: &str,
        now: SimInstant,
        current_version: u64,
    ) -> ShardLookup {
        self.lookup_shard_within(term, now, current_version, None)
    }

    /// Look up a term's shard. `current_version` is the engine's monotonic
    /// version counter for the term (0 when the term was never written).
    /// A version-superseded copy serves when a `max_staleness` bound is
    /// given and the copy was stored no more than that long ago (the
    /// `MaxStaleness` freshness mode: the caller trades bounded staleness
    /// for skipping the DHT trip). A superseded entry read under a bound is
    /// *not* evicted — it stays servable for other bounded readers until a
    /// strict read or publish-path invalidation purges it — and one past
    /// the bound is counted a miss. Every other read is the strict one: an
    /// entry at another version is dropped and counted as an invalidation.
    /// TTL expiry always applies.
    pub fn lookup_shard_within(
        &mut self,
        term: &str,
        now: SimInstant,
        current_version: u64,
        max_staleness: Option<SimDuration>,
    ) -> ShardLookup {
        // Negative tier first: absent terms never have shard entries. The
        // negative entry is recorded at version 0 and a republished term
        // bumps the version, so the version check also re-opens the path to
        // the DHT the moment the term starts existing.
        if current_version == 0 {
            if self.negatives.get(term, now, Some(0)).is_some() {
                return ShardLookup::Negative;
            }
        } else {
            // Drop any stale negative entry without charging a lookup.
            self.negatives.invalidate(term);
        }
        let superseded = |v| v != current_version;
        match max_staleness.filter(|_| self.shards.version_of(term).is_some_and(superseded)) {
            None => match self.shards.get(term, now, Some(current_version)) {
                Some(shard) => ShardLookup::Hit(Arc::clone(shard)),
                None => ShardLookup::Miss,
            },
            Some(bound) => {
                let stored_at = self.shards.stored_at(term).unwrap_or(now);
                let age = now.since(stored_at);
                if age > bound {
                    // Leave the entry resident, but account the failed lookup.
                    self.shards.note_miss(term);
                    return ShardLookup::Miss;
                }
                // Within bound: the un-versioned read, so recency, TTL expiry
                // and the hit counters all behave as for a normal hit.
                match self.shards.get(term, now, None) {
                    Some(shard) => ShardLookup::Stale {
                        shard: Arc::clone(shard),
                        age,
                    },
                    None => ShardLookup::Miss,
                }
            }
        }
    }

    /// Store a freshly fetched shard, or — when the shard is empty and was
    /// never written (version 0) — a negative entry for the term. Shard
    /// entries get the term's adaptive TTL. The
    /// tier takes another handle to the caller's allocation, so fanning one
    /// fetched shard out into N caches copies nothing.
    pub fn store_shard_handle(&mut self, shard: &Arc<ShardEntry>, now: SimInstant) {
        if shard.version == 0 && shard.postings.is_empty() {
            let bytes = shard.term.len() + 16;
            self.negatives
                .insert(&shard.term, bytes, 0, now, NEGATIVE_TTL, || ());
        } else {
            let ttl = self.adaptive_shard_ttl(&shard.term);
            self.insert_shard(shard, now, ttl);
        }
    }

    /// [`QueryCache::store_shard_handle`] for a caller that holds the shard
    /// by value and keeps it: the tier gets its own copy.
    pub fn store_shard(&mut self, shard: &ShardEntry, now: SimInstant) {
        self.store_shard_handle(&Arc::new(shard.clone()), now);
    }

    /// Give the shard tier a handle to `shard`; false when the tier's
    /// admission policy refuses it.
    fn insert_shard(&mut self, shard: &Arc<ShardEntry>, now: SimInstant, ttl: SimDuration) -> bool {
        let bytes = shard_bytes(shard);
        self.shards
            .insert(&shard.term, bytes, shard.version, now, ttl, || {
                Arc::clone(shard)
            })
    }

    /// The shard-tier TTL this cache would give `term` right now: it scales
    /// with the term's observed republish rate — half the estimated
    /// republish interval, clamped to [`ADAPTIVE_TTL_FLOOR`] and
    /// [`ADAPTIVE_TTL_CEILING`] — and a term never observed to change gets
    /// the ceiling (archival content can be cached far longer than hot
    /// content).
    pub fn adaptive_shard_ttl(&self, term: &str) -> SimDuration {
        match self.republish.get(term).and_then(|t| t.interval_estimate()) {
            // No churn evidence (never written, or written exactly once —
            // the initial index of a term is not a republish): archival,
            // the ceiling applies. The version checks and publish-path
            // invalidation remain the correctness rails; the TTL is only
            // the backstop for invalidations this frontend never observed.
            None => ADAPTIVE_TTL_CEILING,
            Some(interval) => SimDuration::from_micros((interval.as_micros() / 2).clamp(
                ADAPTIVE_TTL_FLOOR.as_micros(),
                ADAPTIVE_TTL_CEILING.as_micros(),
            )),
        }
    }

    // ----- gossip surface ----------------------------------------------------------

    /// The `max` hottest cached term shards alive at `now` as
    /// `(term, version)` pairs, in descending popularity order — the digest
    /// another frontend needs to decide what to pull. Expired entries are
    /// never advertised. Deterministic (ties broken by recency). The terms
    /// are borrowed from the tier; the listing is exact for one
    /// `(shard_generation, shard_popularity_epoch)` at every instant from
    /// `now` up to the earliest `expires_at` of [`QueryCache::shard_ranks`].
    pub fn shard_digest(&self, max: usize, now: SimInstant) -> Vec<(&str, u64)> {
        self.shards.hottest(max, now)
    }

    /// Every shard alive at `now`, unsorted, with its id, the rank
    /// [`QueryCache::shard_digest`] orders it by and its expiry: one pass,
    /// no allocation, charging no lookup. The gossip overlay checks a
    /// listing it keeps against it in place — same `(term, version)` set,
    /// same hot-set cut — and sorts only when it needs the order itself.
    pub fn shard_ranks(&self, now: SimInstant) -> impl Iterator<Item = RankedKey<'_>> {
        self.shards.ranked(now)
    }

    /// Borrow the tier's handle to a cached shard without charging a lookup
    /// (fills must not look like query traffic to the eviction policy);
    /// clone the handle to keep the shard.
    pub fn peek_shard(&self, term: &str) -> Option<&Arc<ShardEntry>> {
        self.shards.peek(term)
    }

    /// The shard tier's holdings generation: any insert, replacement,
    /// eviction, expiry or invalidation bumps it — a re-store of the
    /// version already held included, so it moves on most served `Fresh`
    /// reads while the held `(term, version)` set does not. It is part of
    /// the stamp behind which the gossip overlay's `ranked_holdings` skips
    /// even re-checking the listing it keeps; what is derived from the
    /// listed *set* — the listing handle, the holdings filter — outlives a
    /// move of it for as long as the set stands.
    pub fn shard_generation(&self) -> u64 {
        self.shards.generation()
    }

    /// The shard tier's popularity epoch: every lookup, store attempt and
    /// accounted miss bumps it. Reads reorder [`QueryCache::shard_digest`]
    /// without moving the generation, so a cached *ranking* is keyed by
    /// `(generation, epoch)` and holds until one of them moves or the
    /// clock reaches the earliest expiry among [`QueryCache::shard_ranks`].
    pub fn shard_popularity_epoch(&self) -> u64 {
        self.shards.popularity_epoch()
    }

    /// A number no other cache built in this process carries. The tier ids
    /// of [`QueryCache::shard_ranks`], the generation and the popularity
    /// epoch all restart in a new cache, so what is keyed by them is keyed
    /// by the serial too. Host-side only: nothing simulated reads it.
    pub fn serial(&self) -> u64 {
        self.serial
    }

    /// The cached version of a term's shard, when one is resident.
    pub fn cached_shard_version(&self, term: &str) -> Option<u64> {
        self.shards.version_of(term)
    }

    /// Admit a shard received from another frontend. `known_version` is the
    /// highest version of this term the receiving frontend has observed
    /// (from its own DHT fetches, publish events, or earlier gossip): a copy
    /// older than that is rejected as stale, never replacing fresher data.
    /// `sender_ttl` is the lifetime the sender vouches for — gossip passes
    /// the sender's adaptive TTL for the term, segment import the
    /// receiver's own — and the stored entry lives `min(sender_ttl, our
    /// adapted TTL)` *from `now`*: a fill can tighten the receiver's TTL
    /// policy but the clock starts over at admission, so a relayed copy can
    /// outlive the fetch it descends from (the version guard above and the
    /// read-time version checks are the staleness rails, the TTL only the
    /// backstop). An accepted shard is shared with the sender's handle, not
    /// copied.
    pub fn store_remote_shard(
        &mut self,
        shard: &Arc<ShardEntry>,
        known_version: u64,
        sender_ttl: SimDuration,
        now: SimInstant,
    ) -> RemoteAdmit {
        if shard.version == 0 || shard.version < known_version {
            return RemoteAdmit::Stale;
        }
        if self
            .shards
            .version_of(&shard.term)
            .is_some_and(|cached| cached >= shard.version)
        {
            return RemoteAdmit::Duplicate;
        }
        // The term provably exists now; a remembered absence is obsolete.
        self.negatives.invalidate(&shard.term);
        let ttl = SimDuration::from_micros(
            sender_ttl
                .as_micros()
                .min(self.adaptive_shard_ttl(&shard.term).as_micros()),
        );
        if self.insert_shard(shard, now, ttl) {
            RemoteAdmit::Accepted
        } else {
            RemoteAdmit::Refused
        }
    }

    // ----- statistics record -------------------------------------------------------

    /// Cached global statistics, validated against the current stats version.
    pub fn lookup_stats(&mut self, current_version: u64) -> Option<IndexStats> {
        self.stats.filter(|stats| stats.version == current_version)
    }

    /// Store the statistics record under its own version.
    pub fn store_stats(&mut self, stats: IndexStats) {
        self.stats = Some(stats);
    }

    // ----- publish-path invalidation ----------------------------------------------

    /// A page version touching `term` was (re)indexed: purge the term's
    /// shard and negative entries and record the republish observation
    /// that drives the adaptive TTL policy. Returns the number of entries
    /// dropped (0 to 2). Cached results that used the term are left alone:
    /// each one recorded the term's version and is refused by the next
    /// [`QueryCache::lookup_result`] that sees the bumped version. The shard
    /// purge cannot wait for a read like that — a superseded shard must
    /// leave gossip listings and fills now, and `MaxStaleness` reads serve
    /// it without a version check.
    pub fn invalidate_term(&mut self, term: &str, now: SimInstant) -> usize {
        self.observe_republish(term, now);
        usize::from(self.shards.invalidate(term)) + usize::from(self.negatives.invalidate(term))
    }

    /// The writer's store of a shard it just wrote (a version above 0):
    /// [`QueryCache::invalidate_term`] then
    /// [`QueryCache::store_shard_handle`], in one pass over the shard tier
    /// ([`CacheTier::invalidate_and_insert`]) that allocates no key.
    pub fn store_written_shard(&mut self, shard: &Arc<ShardEntry>, now: SimInstant) {
        debug_assert!(shard.version > 0, "a written shard has a version");
        let term = &shard.term;
        self.observe_republish(term, now);
        self.negatives.invalidate(term);
        let (ttl, bytes) = (self.adaptive_shard_ttl(term), shard_bytes(shard));
        self.shards
            .invalidate_and_insert(term, bytes, shard.version, now, ttl, || Arc::clone(shard));
    }

    /// Record a republish of `term` for the adaptive TTL policy.
    fn observe_republish(&mut self, term: &str, now: SimInstant) {
        // Look up before allocating: only a term's first republish owns a key.
        match self.republish.get_mut(term) {
            Some(tracker) => tracker.observe(now),
            None => {
                let mut tracker = RepublishTracker {
                    last: now,
                    ewma_interval_us: 0.0,
                    observations: 0,
                };
                tracker.observe(now);
                self.republish.insert(term.to_string(), tracker);
            }
        }
    }

    // ----- metrics -----------------------------------------------------------------

    /// Snapshot of every tier's counters.
    pub fn metrics(&self) -> CacheMetrics {
        CacheMetrics {
            result: self.results.metrics,
            shard: self.shards.metrics,
            negative: self.negatives.metrics,
        }
    }

    /// Entry counts per tier `(results, shards, negatives)`.
    pub fn tier_sizes(&self) -> (usize, usize, usize) {
        (self.results.len(), self.shards.len(), self.negatives.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_common::SimDuration;
    use qb_index::ShardPosting;

    fn t0() -> SimInstant {
        SimInstant::ZERO
    }

    fn cache() -> QueryCache {
        QueryCache::new(CacheConfig::small())
    }

    fn shard(term: &str, version: u64, docs: usize) -> ShardEntry {
        let mut s = ShardEntry::empty(term);
        s.version = version;
        for i in 0..docs as u64 {
            s.upsert(ShardPosting {
                doc_id: i * 13 + 1,
                term_freq: 2,
                doc_len: 40,
                name: format!("page/{i}").into(),
                version: 1,
                creator: 9,
            });
        }
        s
    }

    fn doc(name: &str, version: u64) -> ScoredDoc {
        ScoredDoc {
            doc_id: qb_index::doc_id_for_name(name),
            name: name.into(),
            score: 1.0,
            version,
            creator: 7,
        }
    }

    /// Offer a list that already exists.
    fn store(
        c: &mut QueryCache,
        key: &str,
        list: Arc<Vec<ScoredDoc>>,
        term_versions: &[(&str, u64)],
    ) -> bool {
        let bytes = list.iter().map(ScoredDoc::bytes).sum();
        let terms: Vec<(Arc<str>, u64)> =
            term_versions.iter().map(|&(t, v)| (t.into(), v)).collect();
        let versions = terms.iter().map(|(t, v)| (t, *v));
        c.store_result(key, versions, ScoreInputs::default(), bytes, t0(), || list)
    }

    #[test]
    fn result_key_is_order_independent() {
        let a = result_key(["peer", "decentralized"]);
        let b = result_key(["decentralized", "peer"]);
        assert_eq!(a, b);
        assert_eq!(a, "decentralized peer");
    }

    #[test]
    fn result_round_trip_and_version_invalidation() {
        let mut c = cache();
        let key = result_key(["honey", "bees"]);
        store(
            &mut c,
            &key,
            Arc::new(vec![doc("wiki/bees", 1)]),
            &[("honey", 2), ("bees", 5)],
        );
        // Served while versions match.
        let versions = |term: &str| if term == "honey" { 2 } else { 5 };
        let hit = c.lookup_result(&key, t0(), versions).expect("warm hit");
        assert_eq!(&*hit.results[0].name, "wiki/bees");
        // A bumped term version kills the entry on the next read.
        let bumped = |term: &str| if term == "honey" { 3 } else { 5 };
        assert!(c.lookup_result(&key, t0(), bumped).is_none());
        assert!(
            c.lookup_result(&key, t0(), versions).is_none(),
            "entry is gone"
        );
        let m = c.metrics();
        assert_eq!(m.result.hits, 1);
        assert_eq!(m.result.invalidations, 1);
    }

    #[test]
    fn invalidate_term_drops_the_shard_and_the_version_check_refuses_results() {
        let mut c = cache();
        c.store_shard(&shard("honey", 3, 4), t0());
        let honey = result_key(["honey"]);
        let honey_bees = result_key(["honey", "bees"]);
        let unrelated = result_key(["unrelated"]);
        store(&mut c, &honey, Arc::new(vec![doc("a", 1)]), &[("honey", 3)]);
        store(
            &mut c,
            &honey_bees,
            Arc::new(vec![doc("a", 1)]),
            &[("honey", 3), ("bees", 1)],
        );
        store(
            &mut c,
            &unrelated,
            Arc::new(vec![doc("b", 1)]),
            &[("unrelated", 1)],
        );
        assert_eq!(c.invalidate_term("honey", t0()), 1, "the shard only");
        assert_eq!(c.tier_sizes(), (3, 0, 0), "every result stays resident");
        assert_eq!(c.metrics().result.invalidations, 0);
        assert!(matches!(
            c.lookup_shard("honey", t0(), 3),
            ShardLookup::Miss
        ));
        // Under honey's bumped version each affected result is refused on
        // its next lookup, and counted there.
        let bumped = |term: &str| if term == "honey" { 4 } else { 1 };
        assert!(c.lookup_result(&honey, t0(), bumped).is_none());
        assert!(c.lookup_result(&honey_bees, t0(), bumped).is_none());
        assert_eq!(c.metrics().result.invalidations, 2);
        assert_eq!(c.tier_sizes().0, 1);
        // The unrelated entry still serves.
        assert!(c.lookup_result(&unrelated, t0(), bumped).is_some());
    }

    #[test]
    fn shard_tier_validates_versions() {
        let mut c = cache();
        c.store_shard(&shard("nectar", 4, 3), t0());
        assert!(matches!(
            c.lookup_shard("nectar", t0(), 4),
            ShardLookup::Hit(s) if s.version == 4
        ));
        // Version bumped by a republish: the cached shard must not serve.
        assert_eq!(c.lookup_shard("nectar", t0(), 5), ShardLookup::Miss);
        assert_eq!(c.metrics().shard.invalidations, 1);
    }

    #[test]
    fn shard_hits_share_one_allocation_and_a_held_handle_is_a_snapshot() {
        let mut c = cache();
        let fetched = Arc::new(shard("nectar", 4, 3));
        c.store_shard_handle(&fetched, t0());
        let (ShardLookup::Hit(first), ShardLookup::Hit(second)) = (
            c.lookup_shard("nectar", t0(), 4),
            c.lookup_shard("nectar", t0(), 4),
        ) else {
            panic!("warm shard must hit");
        };
        assert!(
            Arc::ptr_eq(&first, &second),
            "a hit is a handle, not a copy"
        );
        assert!(Arc::ptr_eq(&first, &fetched), "the tier kept the caller's");
        assert!(Arc::ptr_eq(c.peek_shard("nectar").unwrap(), &fetched));
        // The by-reference form still copies in (its caller keeps ownership).
        c.store_shard(&shard("pollen", 1, 2), t0());
        assert!(matches!(
            c.lookup_shard("pollen", t0(), 1),
            ShardLookup::Hit(_)
        ));

        // Replacing the tier's entry leaves the holder reading version 4...
        c.store_shard(&shard("nectar", 5, 7), t0());
        assert_eq!((first.version, first.postings.len()), (4, 3));
        // ...while the next lookup sees version 5.
        let ShardLookup::Hit(next) = c.lookup_shard("nectar", t0(), 5) else {
            panic!("replacement must hit");
        };
        assert_eq!((next.version, next.postings.len()), (5, 7));
        // Invalidation likewise: the tier forgets, the holder does not.
        c.invalidate_term("nectar", t0());
        assert_eq!(c.lookup_shard("nectar", t0(), 5), ShardLookup::Miss);
        assert_eq!((next.version, next.postings.len()), (5, 7));
        assert_eq!(*first, shard("nectar", 4, 3));
    }

    #[test]
    fn result_hits_share_the_list_and_a_stale_entry_is_never_handed_out() {
        let mut c = cache();
        let key = result_key(["honey"]);
        let list = Arc::new(vec![doc("wiki/bees", 1)]);
        assert!(store(&mut c, &key, Arc::clone(&list), &[("honey", 2)]));
        let hit = c.lookup_result(&key, t0(), |_| 2).expect("warm hit");
        assert!(Arc::ptr_eq(&hit.results, &list), "served, not copied");
        drop(hit);
        // While the version check runs, only the tier and this test hold
        // the list: the entry is judged in place, before any handle (let
        // alone a copy) is taken for the caller.
        let holders_during_check = |_: &str| {
            assert_eq!(Arc::strong_count(&list), 2);
            3
        };
        assert!(c.lookup_result(&key, t0(), holders_during_check).is_none());
        assert_eq!(Arc::strong_count(&list), 1, "the stale entry is gone");
        assert_eq!(&*list[0].name, "wiki/bees", "the holder's list is intact");
    }

    #[test]
    fn a_refused_result_is_never_built_or_indexed() {
        let mut config = CacheConfig::small();
        config.result_capacity_bytes = 1;
        let mut c = QueryCache::new(config);
        let unbuilt = || -> Arc<Vec<ScoredDoc>> { panic!("a refused result was built") };
        let terms: [(Arc<str>, u64); 2] = [("honey".into(), 2), ("bees".into(), 5)];
        let versions = terms.iter().map(|(t, v)| (t, *v));
        let inputs = ScoreInputs::default();
        assert!(!c.store_result("bees honey", versions, inputs, 41, t0(), unbuilt));
        assert_eq!(c.metrics().result.admission_rejections, 1);
        assert_eq!(c.tier_sizes().0, 0);
    }

    #[test]
    fn bounded_lookup_serves_within_the_staleness_budget() {
        let mut c = cache();
        let bound = SimDuration::from_secs(60);
        c.store_shard(&shard("news", 3, 4), t0());
        // Current version: behaves like a strict hit.
        assert!(matches!(
            c.lookup_shard_within("news", t0(), 3, Some(bound)),
            ShardLookup::Hit(s) if s.version == 3
        ));
        // Version superseded (a republish this cache never observed): the
        // copy serves while it is young enough, and is NOT evicted.
        let at_30s = t0() + SimDuration::from_secs(30);
        assert!(matches!(
            c.lookup_shard_within("news", at_30s, 4, Some(bound)),
            ShardLookup::Stale { shard: s, age }
                if s.version == 3 && age == SimDuration::from_secs(30)
        ));
        assert_eq!(c.cached_shard_version("news"), Some(3), "not evicted");
        // Past the bound: a miss, and the entry still survives for a strict
        // read to purge.
        let at_90s = t0() + SimDuration::from_secs(90);
        assert_eq!(
            c.lookup_shard_within("news", at_90s, 4, Some(bound)),
            ShardLookup::Miss
        );
        assert_eq!(c.cached_shard_version("news"), Some(3));
        // The strict read then invalidates it as usual.
        assert_eq!(c.lookup_shard("news", at_90s, 4), ShardLookup::Miss);
        assert_eq!(c.cached_shard_version("news"), None);
    }

    #[test]
    fn bounded_lookup_respects_ttl_and_negatives() {
        let mut c = cache();
        let bound = SimDuration::from_secs(3_600);
        // Negative entries answer bounded lookups too.
        c.store_shard(&ShardEntry::empty("ghost"), t0());
        assert_eq!(
            c.lookup_shard_within("ghost", t0(), 0, Some(bound)),
            ShardLookup::Negative
        );
        // A TTL-expired shard never serves, no matter how generous the bound.
        c.store_shard(&shard("old", 2, 3), t0());
        let ttl = c.adaptive_shard_ttl("old");
        assert_eq!(
            c.lookup_shard_within("old", t0() + ttl, 3, Some(SimDuration(u64::MAX))),
            ShardLookup::Miss
        );
        // Nothing cached at all: a plain miss.
        assert_eq!(
            c.lookup_shard_within("absent", t0(), 5, Some(bound)),
            ShardLookup::Miss
        );
    }

    #[test]
    fn negative_tier_remembers_absent_terms_until_they_exist() {
        let mut c = cache();
        c.store_shard(&ShardEntry::empty("ghost"), t0());
        assert_eq!(c.lookup_shard("ghost", t0(), 0), ShardLookup::Negative);
        // The term gets written (version 1): the negative entry dies and the
        // path to the DHT re-opens.
        assert_eq!(c.lookup_shard("ghost", t0(), 1), ShardLookup::Miss);
        assert_eq!(
            c.lookup_shard("ghost", t0(), 0),
            ShardLookup::Miss,
            "purged"
        );
    }

    #[test]
    fn negative_entries_expire_by_ttl() {
        let mut c = cache();
        c.store_shard(&ShardEntry::empty("brief"), t0());
        assert_eq!(c.lookup_shard("brief", t0(), 0), ShardLookup::Negative);
        let later = t0() + NEGATIVE_TTL;
        assert_eq!(c.lookup_shard("brief", later, 0), ShardLookup::Miss);
        assert_eq!(c.metrics().negative.expirations, 1);
    }

    #[test]
    fn result_entries_expire_by_ttl() {
        let mut c = cache();
        let key = result_key(["old"]);
        store(&mut c, &key, Arc::new(vec![doc("a", 1)]), &[("old", 1)]);
        let ttl = c.config().result_ttl;
        let just_before = t0() + SimDuration(ttl.0 - 1);
        assert!(c.lookup_result(&key, just_before, |_| 1).is_some());
        assert!(c.lookup_result(&key, t0() + ttl, |_| 1).is_none());
        assert_eq!(c.metrics().result.expirations, 1);
    }

    #[test]
    fn stats_record_is_version_guarded() {
        let mut c = cache();
        assert!(c.lookup_stats(1).is_none());
        c.store_stats(IndexStats {
            num_docs: 10,
            total_len: 800,
            version: 1,
        });
        assert_eq!(c.lookup_stats(1).unwrap().num_docs, 10);
        assert!(c.lookup_stats(2).is_none(), "stale stats must not serve");
    }

    /// The term's estimated republish interval, once two republishes have
    /// been observed.
    fn interval_estimate(c: &QueryCache, term: &str) -> Option<SimDuration> {
        c.republish.get(term).and_then(|t| t.interval_estimate())
    }

    #[test]
    fn adaptive_ttl_scales_with_republish_rate() {
        let mut c = cache();
        // Never republished: archival, gets the ceiling.
        assert_eq!(c.adaptive_shard_ttl("archival"), ADAPTIVE_TTL_CEILING);
        // One observation is the term's initial index, not churn evidence:
        // still archival.
        c.invalidate_term("hot", t0());
        assert_eq!(c.adaptive_shard_ttl("hot"), ADAPTIVE_TTL_CEILING);
        assert!(interval_estimate(&c, "hot").is_none());
        // Republished every 60s: TTL becomes ~30s, far below the ceiling.
        let mut now = t0();
        for _ in 0..4 {
            now += SimDuration::from_secs(60);
            c.invalidate_term("hot", now);
        }
        let est = interval_estimate(&c, "hot").expect("estimate");
        assert_eq!(est, SimDuration::from_secs(60));
        let hot_ttl = c.adaptive_shard_ttl("hot");
        assert_eq!(hot_ttl, SimDuration::from_secs(30));
        // The stored entry actually expires on the adapted schedule.
        let mut s = shard("hot", 9, 2);
        s.version = 9;
        c.store_shard(&s, now);
        assert!(matches!(
            c.lookup_shard("hot", now + SimDuration::from_secs(29), 9),
            ShardLookup::Hit(_)
        ));
        assert!(matches!(
            c.lookup_shard("hot", now + SimDuration::from_secs(30), 9),
            ShardLookup::Miss
        ));
        // Floor clamps a pathologically hot term.
        let mut c2 = cache();
        let mut now2 = t0();
        for _ in 0..5 {
            now2 += SimDuration::from_micros(10);
            c2.invalidate_term("storm", now2);
        }
        assert_eq!(c2.adaptive_shard_ttl("storm"), ADAPTIVE_TTL_FLOOR);
    }

    #[test]
    fn same_instant_batch_invalidations_count_as_one_republish() {
        let mut c = cache();
        // A term appearing in three pages of one indexing batch fires three
        // invalidations at the same instant: one republish event, so the
        // term still reads as archival, not as a zero-interval hot storm.
        for _ in 0..3 {
            c.invalidate_term("multi", t0());
        }
        assert!(interval_estimate(&c, "multi").is_none());
        assert_eq!(c.adaptive_shard_ttl("multi"), ADAPTIVE_TTL_CEILING);
        // A later, genuinely spaced republish still produces an estimate.
        c.invalidate_term("multi", t0() + SimDuration::from_secs(40));
        assert_eq!(
            interval_estimate(&c, "multi"),
            Some(SimDuration::from_secs(40))
        );
    }

    #[test]
    fn shard_digest_orders_by_popularity() {
        let mut c = cache();
        for (term, v) in [("cold", 1u64), ("warm", 2), ("hot", 3)] {
            c.store_shard(&shard(term, v, 2), t0());
        }
        for _ in 0..8 {
            let _ = c.lookup_shard("hot", t0(), 3);
        }
        for _ in 0..3 {
            let _ = c.lookup_shard("warm", t0(), 2);
        }
        let digest = c.shard_digest(2, t0());
        assert_eq!(digest.len(), 2);
        assert_eq!(digest[0], ("hot", 3));
        assert_eq!(digest[1], ("warm", 2));
        assert!(
            c.peek_shard("cold").is_some(),
            "peek sees undigested entries"
        );
        assert_eq!(c.cached_shard_version("hot"), Some(3));
    }

    #[test]
    fn remote_shards_never_regress_versions() {
        let mut c = cache();
        let ttl = SimDuration::from_secs(120);
        // Fresh fill into an empty tier is accepted.
        assert_eq!(
            c.store_remote_shard(&Arc::new(shard("t", 3, 2)), 3, ttl, t0()),
            RemoteAdmit::Accepted
        );
        // Same or older version: duplicate, the resident copy stays.
        assert_eq!(
            c.store_remote_shard(&Arc::new(shard("t", 3, 2)), 3, ttl, t0()),
            RemoteAdmit::Duplicate
        );
        assert_eq!(
            c.store_remote_shard(&Arc::new(shard("t", 2, 2)), 2, ttl, t0()),
            RemoteAdmit::Duplicate
        );
        // Older than the known version (e.g. a publish observed locally).
        assert_eq!(
            c.store_remote_shard(&Arc::new(shard("t", 4, 2)), 5, ttl, t0()),
            RemoteAdmit::Stale
        );
        assert_eq!(
            c.cached_shard_version("t"),
            Some(3),
            "stale fill must not disturb the tier"
        );
        // Newer version replaces.
        assert_eq!(
            c.store_remote_shard(&Arc::new(shard("t", 5, 2)), 3, ttl, t0()),
            RemoteAdmit::Accepted
        );
        assert_eq!(c.cached_shard_version("t"), Some(5));
        // A version-0 (absent) shard can never travel as a fill.
        assert_eq!(
            c.store_remote_shard(&Arc::new(ShardEntry::empty("t")), 0, ttl, t0()),
            RemoteAdmit::Stale
        );
    }

    #[test]
    fn remote_fill_clears_negative_entries_and_bounds_ttl() {
        let mut c = cache();
        c.store_shard(&ShardEntry::empty("ghost"), t0());
        assert_eq!(c.lookup_shard("ghost", t0(), 0), ShardLookup::Negative);
        // Gossip proves the term exists elsewhere: negative entry dies.
        let sender_ttl = SimDuration::from_secs(45);
        assert_eq!(
            c.store_remote_shard(&Arc::new(shard("ghost", 1, 2)), 1, sender_ttl, t0()),
            RemoteAdmit::Accepted
        );
        assert!(matches!(
            c.lookup_shard("ghost", t0(), 1),
            ShardLookup::Hit(_)
        ));
        // TTL inherited from the sender (tighter than our archival ceiling).
        assert!(matches!(
            c.lookup_shard("ghost", t0() + sender_ttl, 1),
            ShardLookup::Miss
        ));
        assert_eq!(c.metrics().shard.expirations, 1);
    }

    #[test]
    fn shard_generation_moves_with_the_holdings() {
        let mut c = cache();
        let g0 = c.shard_generation();
        c.store_shard(&shard("honey", 1, 2), t0());
        let g1 = c.shard_generation();
        assert!(g1 > g0);
        // Reads leave the generation alone.
        let _ = c.lookup_shard("honey", t0(), 1);
        let _ = c.shard_digest(8, t0());
        assert_eq!(c.shard_generation(), g1);
        // Invalidation moves it; negative entries live in their own tier.
        c.invalidate_term("honey", t0());
        assert!(c.shard_generation() > g1);
        let g2 = c.shard_generation();
        c.store_shard(&ShardEntry::empty("ghost"), t0());
        assert_eq!(c.shard_generation(), g2, "negative tier is separate");
    }

    /// The strict read as it stood beside a separate staleness-bounded one:
    /// the reference [`QueryCache::lookup_shard_within`] must reproduce.
    fn reference_lookup_shard(
        c: &mut QueryCache,
        term: &str,
        now: SimInstant,
        current_version: u64,
    ) -> ShardLookup {
        if current_version == 0 {
            if c.negatives.get(term, now, Some(0)).is_some() {
                return ShardLookup::Negative;
            }
        } else if c.negatives.peek(term).is_some() {
            c.negatives.invalidate(term);
        }
        match c.shards.get(term, now, Some(current_version)) {
            Some(shard) => ShardLookup::Hit(Arc::clone(shard)),
            None => ShardLookup::Miss,
        }
    }

    /// The staleness-bounded read as it stood beside the strict one.
    fn reference_lookup_shard_bounded(
        c: &mut QueryCache,
        term: &str,
        now: SimInstant,
        current_version: u64,
        max_staleness: SimDuration,
    ) -> ShardLookup {
        if current_version == 0 {
            if c.negatives.get(term, now, Some(0)).is_some() {
                return ShardLookup::Negative;
            }
        } else if c.negatives.peek(term).is_some() {
            c.negatives.invalidate(term);
        }
        match c.shards.version_of(term) {
            Some(v) if v == current_version => match c.shards.get(term, now, Some(v)) {
                Some(shard) => ShardLookup::Hit(Arc::clone(shard)),
                None => ShardLookup::Miss,
            },
            Some(_) => {
                let age = c
                    .shards
                    .stored_at(term)
                    .map(|t| now.since(t))
                    .unwrap_or(SimDuration::ZERO);
                if age > max_staleness {
                    c.shards.note_miss(term);
                    return ShardLookup::Miss;
                }
                match c.shards.get(term, now, None) {
                    Some(shard) => ShardLookup::Stale {
                        shard: Arc::clone(shard),
                        age,
                    },
                    None => ShardLookup::Miss,
                }
            }
            None => {
                c.shards.note_miss(term);
                ShardLookup::Miss
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// One read with an optional bound answers, counts and evicts as
        /// the strict and the bounded read did, over any script of shard
        /// and negative stores, remote fills, invalidations, strict and
        /// bounded reads at any version and bound, and clock jumps past
        /// every TTL.
        #[test]
        fn the_one_shard_read_reads_as_the_strict_and_bounded_pair(
            ops in proptest::collection::vec(((0u8..9, 0usize..5), 0u64..6, 0usize..6), 1..100),
        ) {
            // A shard tier with room for ~4 of the 5 terms.
            let mut config = CacheConfig::small();
            config.shard_capacity_bytes = 600;
            let (mut one, mut pair) = (QueryCache::new(config.clone()), QueryCache::new(config));
            // Steps and bounds on one grid, so an age meets its bound exactly.
            let grid = [0, 1, 5, 20, 70, 2_000].map(SimDuration::from_secs);
            let mut now = t0();
            for ((op, term), version, pick) in ops {
                let term = format!("t{term}");
                let (bound, docs) = (grid[pick], pick + 1);
                match op {
                    0 | 1 => {
                        // Op 1 stores the term as proven absent.
                        let fetched = match op {
                            0 => shard(&term, version, docs),
                            _ => ShardEntry::empty(&term),
                        };
                        one.store_shard(&fetched, now);
                        pair.store_shard(&fetched, now);
                    }
                    2 => {
                        let fill = Arc::new(shard(&term, version, docs));
                        let known = version.saturating_sub(pick as u64 % 2);
                        proptest::prop_assert_eq!(
                            one.store_remote_shard(&fill, known, bound, now),
                            pair.store_remote_shard(&fill, known, bound, now)
                        );
                    }
                    3 => proptest::prop_assert_eq!(
                        one.invalidate_term(&term, now),
                        pair.invalidate_term(&term, now)
                    ),
                    4 => proptest::prop_assert_eq!(
                        one.lookup_shard(&term, now, version),
                        reference_lookup_shard(&mut pair, &term, now, version)
                    ),
                    5 => proptest::prop_assert_eq!(
                        one.lookup_shard_within(&term, now, version, None),
                        reference_lookup_shard(&mut pair, &term, now, version)
                    ),
                    6 | 7 => proptest::prop_assert_eq!(
                        one.lookup_shard_within(&term, now, version, Some(bound)),
                        reference_lookup_shard_bounded(&mut pair, &term, now, version, bound)
                    ),
                    _ => now += bound,
                }
                proptest::prop_assert_eq!(one.metrics(), pair.metrics());
                proptest::prop_assert_eq!(one.tier_sizes(), pair.tier_sizes());
                proptest::prop_assert_eq!(one.shard_generation(), pair.shard_generation());
                proptest::prop_assert_eq!(
                    one.shard_popularity_epoch(),
                    pair.shard_popularity_epoch()
                );
            }
        }
    }

    #[test]
    fn byte_budget_bounds_shard_tier() {
        let mut config = CacheConfig::small();
        config.shard_capacity_bytes = 600;
        let mut c = QueryCache::new(config);
        for i in 0..50 {
            c.store_shard(&shard(&format!("term{i}"), 1, 5), t0());
        }
        let m = c.metrics();
        assert!(m.shard.evictions > 0, "budget must force evictions");
        let (_, shards, _) = c.tier_sizes();
        assert!(shards < 50);
    }
}

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
use crate::tier::CacheTier;
use qb_common::{SimDuration, SimInstant};
use qb_index::{IndexStats, ScoredDoc, ShardEntry};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A cached, fully scored result list plus everything needed to prove it is
/// still current.
#[derive(Debug, Clone)]
pub struct CachedResult {
    /// The full ranked list, shared with whoever computed it (and with every
    /// reader served from this entry).
    pub results: Arc<Vec<ScoredDoc>>,
    /// Shard version of every query term at fill time (terms sorted). The
    /// entry is only served while each term's current version still matches.
    pub term_versions: Vec<(String, u64)>,
}

/// Outcome of a shard-tier lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardLookup {
    /// The term's shard was cached and current: a handle to the tier's own
    /// copy.
    Hit(Arc<ShardEntry>),
    /// The term is cached as proven-absent; skip the DHT entirely.
    Negative,
    /// Nothing cached; fetch through the DHT.
    Miss,
}

/// Outcome of a staleness-bounded shard lookup ([`QueryCache::lookup_shard_bounded`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundedShardLookup {
    /// The term's shard was cached and current: a handle to the tier's own
    /// copy.
    Hit(Arc<ShardEntry>),
    /// The cached shard's version has been superseded, but its age is within
    /// the caller's staleness bound: served without a DHT trip. `age` is how
    /// long ago the copy was stored.
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
pub fn result_key(terms: &[String]) -> String {
    let mut sorted: Vec<&str> = terms.iter().map(|s| s.as_str()).collect();
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
    /// term -> result-cache keys containing it, for publish-path
    /// invalidation in O(affected entries).
    term_to_queries: HashMap<String, BTreeSet<String>>,
    /// term -> republish-rate observations for the adaptive TTL policy.
    /// Bounded by the number of terms ever republished while this cache was
    /// alive (terms only enter through publish-path invalidation).
    republish: HashMap<String, RepublishTracker>,
}

impl QueryCache {
    /// Build a cache from a validated configuration.
    pub fn new(config: CacheConfig) -> QueryCache {
        // The result tier reports every removal so the term reverse index
        // can be pruned no matter how an entry dies (eviction, TTL,
        // invalidation, replacement).
        let mut results = CacheTier::new(config.result_capacity_bytes, config.result_ttl);
        results.set_track_removals(true);
        QueryCache {
            results,
            // Every shard insert passes its term's own TTL; the ceiling is
            // only the tier's nominal default.
            shards: CacheTier::new(config.shard_capacity_bytes, ADAPTIVE_TTL_CEILING),
            negatives: CacheTier::new(NEGATIVE_CAPACITY_BYTES, NEGATIVE_TTL),
            stats: None,
            term_to_queries: HashMap::new(),
            republish: HashMap::new(),
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
    /// entry's list; a stale entry is dropped without being handed out.
    pub fn lookup_result(
        &mut self,
        key: &str,
        now: SimInstant,
        mut current_version: impl FnMut(&str) -> u64,
    ) -> Option<CachedResult> {
        let Some(entry) = self.results.get(key, now, None) else {
            // The lookup may have expired the entry; drop its index rows.
            self.prune_result_index();
            return None;
        };
        let stale = entry
            .term_versions
            .iter()
            .any(|(term, v)| current_version(term) != *v);
        if stale {
            // The tier counted a hit; correct it to an invalidation-miss.
            self.results.metrics.hits -= 1;
            self.results.metrics.misses += 1;
            self.results.invalidate(key);
            self.prune_result_index();
            return None;
        }
        Some(entry.clone())
    }

    /// Offer the result tier the entry of `key`: the list `list` would
    /// build — `list_bytes` is its documents' [`ScoredDoc::bytes`] summed —
    /// computed from the given per-term shard versions. The list, the
    /// entry's term versions and its reverse-index rows are built only once
    /// the tier admits the entry; the tier keeps the list `list` returns,
    /// it does not copy it. Returns whether the entry was admitted.
    pub fn store_result<'t>(
        &mut self,
        key: &str,
        term_versions: impl Iterator<Item = (&'t str, u64)> + Clone,
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
                    .clone()
                    .map(|(term, version)| (term.to_string(), version))
                    .collect(),
            }
        };
        let admitted = self.results.insert(key, bytes, 0, now, entry);
        // Unindex whatever the insert displaced (evicted victims, or the
        // replaced previous entry for this key) *before* indexing the new
        // entry, so replacement cannot strip the fresh mappings.
        self.prune_result_index();
        if admitted {
            for (term, _) in term_versions {
                self.term_to_queries
                    .entry(term.to_string())
                    .or_default()
                    .insert(key.to_string());
            }
        }
        admitted
    }

    // ----- shard + negative tiers --------------------------------------------------

    /// Look up a term's shard. `current_version` is the engine's monotonic
    /// version counter for the term (0 when the term was never written).
    pub fn lookup_shard(
        &mut self,
        term: &str,
        now: SimInstant,
        current_version: u64,
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
            if self.negatives.contains(term) {
                self.negatives.invalidate(term);
            }
        }
        match self.shards.get(term, now, Some(current_version)) {
            Some(shard) => ShardLookup::Hit(Arc::clone(shard)),
            None => ShardLookup::Miss,
        }
    }

    /// Like [`QueryCache::lookup_shard`], but a version-superseded shard may
    /// still serve when it was stored no more than `max_staleness` ago (the
    /// `MaxStaleness` freshness mode: the caller trades bounded staleness
    /// for skipping the DHT trip). Unlike the strict lookup, a superseded
    /// entry is *not* evicted here — it stays servable for other bounded
    /// readers until a strict read or publish-path invalidation purges it.
    /// TTL expiry still applies: an entry past its lifetime never serves.
    pub fn lookup_shard_bounded(
        &mut self,
        term: &str,
        now: SimInstant,
        current_version: u64,
        max_staleness: SimDuration,
    ) -> BoundedShardLookup {
        if current_version == 0 {
            if self.negatives.get(term, now, Some(0)).is_some() {
                return BoundedShardLookup::Negative;
            }
        } else if self.negatives.contains(term) {
            self.negatives.invalidate(term);
        }
        match self.shards.version_of(term) {
            Some(v) if v == current_version => match self.shards.get(term, now, Some(v)) {
                Some(shard) => BoundedShardLookup::Hit(Arc::clone(shard)),
                None => BoundedShardLookup::Miss,
            },
            Some(_) => {
                let age = self
                    .shards
                    .stored_at(term)
                    .map(|t| now.since(t))
                    .unwrap_or(SimDuration::ZERO);
                if age > max_staleness {
                    // Out of bound. Leave the entry resident — a strict read
                    // will purge it — but account the failed lookup.
                    self.shards.note_miss(term);
                    return BoundedShardLookup::Miss;
                }
                // Within bound: serve through the un-versioned read path so
                // recency, TTL expiry and the hit counters all behave as for
                // a normal hit.
                match self.shards.get(term, now, None) {
                    Some(shard) => BoundedShardLookup::Stale {
                        shard: Arc::clone(shard),
                        age,
                    },
                    None => BoundedShardLookup::Miss,
                }
            }
            None => {
                self.shards.note_miss(term);
                BoundedShardLookup::Miss
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
            self.negatives
                .insert(&shard.term, shard.term.len() + 16, 0, now, || ());
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
            .insert_with_ttl(&shard.term, bytes, shard.version, now, ttl, || {
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

    /// The term's estimated republish interval, once two republishes have
    /// been observed (diagnostic / experiment output).
    pub fn republish_interval_estimate(&self, term: &str) -> Option<SimDuration> {
        self.republish.get(term).and_then(|t| t.interval_estimate())
    }

    // ----- gossip surface ----------------------------------------------------------

    /// The `max` hottest cached term shards alive at `now` as
    /// `(term, version)` pairs, in descending popularity order — the digest
    /// another frontend needs to decide what to pull. Expired entries are
    /// never advertised. Deterministic (ties broken by recency). The terms
    /// are borrowed from the tier; the listing is exact for one
    /// `(shard_generation, shard_popularity_epoch)` at every instant from
    /// `now` up to [`QueryCache::next_shard_expiry`].
    pub fn shard_digest(&self, max: usize, now: SimInstant) -> Vec<(&str, u64)> {
        self.shards.hottest(max, now)
    }

    /// The earliest expiry among the shards alive at `now` (`None` when
    /// none is): where a [`QueryCache::shard_digest`] taken at `now` stops
    /// being exact although nothing touched the tier.
    pub fn next_shard_expiry(&self, now: SimInstant) -> Option<SimInstant> {
        self.shards.next_expiry(now)
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
    /// reads while the held `(term, version)` set does not. It is half of
    /// the key a ranked listing is cached behind (the gossip overlay's
    /// `ranked_holdings`); what is derived from the listed *set* — the
    /// holdings filter — is cached behind the listing, not behind this.
    pub fn shard_generation(&self) -> u64 {
        self.shards.generation()
    }

    /// The shard tier's popularity epoch: every lookup, store attempt and
    /// accounted miss bumps it. Reads reorder [`QueryCache::shard_digest`]
    /// without moving the generation, so a cached *ranking* is keyed by
    /// `(generation, epoch)` and holds until one of them moves or the
    /// clock reaches [`QueryCache::next_shard_expiry`].
    pub fn shard_popularity_epoch(&self) -> u64 {
        self.shards.popularity_epoch()
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
        if self.negatives.contains(&shard.term) {
            self.negatives.invalidate(&shard.term);
        }
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
    /// shard and negative entries and every cached result whose query
    /// contains the term, and record the republish observation that drives
    /// the adaptive TTL policy. Returns the number of entries dropped.
    pub fn invalidate_term(&mut self, term: &str, now: SimInstant) -> usize {
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
        let mut dropped = 0;
        if self.shards.invalidate(term) {
            dropped += 1;
        }
        if self.negatives.invalidate(term) {
            dropped += 1;
        }
        if let Some(keys) = self.term_to_queries.remove(term) {
            for key in keys {
                if self.results.invalidate(&key) {
                    dropped += 1;
                }
                self.unindex_query(&key);
            }
        }
        self.prune_result_index();
        dropped
    }

    /// Number of terms currently tracked by the result reverse index
    /// (diagnostic; bounded by the live result entries' distinct terms).
    pub fn reverse_index_terms(&self) -> usize {
        self.term_to_queries.len()
    }

    /// Unindex every result key the tier removed since the last drain.
    fn prune_result_index(&mut self) {
        for key in self.results.take_removed() {
            self.unindex_query(&key);
        }
    }

    /// Remove a result key from the reverse index (after the entry died).
    fn unindex_query(&mut self, key: &str) {
        let terms: Vec<String> = key.split(' ').map(|s| s.to_string()).collect();
        for term in terms {
            if let Some(set) = self.term_to_queries.get_mut(&term) {
                set.remove(key);
                if set.is_empty() {
                    self.term_to_queries.remove(&term);
                }
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
                name: format!("page/{i}"),
                version: 1,
                creator: 9,
            });
        }
        s
    }

    fn doc(name: &str, version: u64) -> ScoredDoc {
        ScoredDoc {
            doc_id: qb_index::doc_id_for_name(name),
            name: name.to_string(),
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
        c.store_result(key, term_versions.iter().copied(), bytes, t0(), || list)
    }

    #[test]
    fn result_key_is_order_independent() {
        let a = result_key(&["peer".into(), "decentralized".into()]);
        let b = result_key(&["decentralized".into(), "peer".into()]);
        assert_eq!(a, b);
        assert_eq!(a, "decentralized peer");
    }

    #[test]
    fn result_round_trip_and_version_invalidation() {
        let mut c = cache();
        let key = result_key(&["honey".into(), "bees".into()]);
        store(
            &mut c,
            &key,
            Arc::new(vec![doc("wiki/bees", 1)]),
            &[("honey", 2), ("bees", 5)],
        );
        // Served while versions match.
        let versions = |term: &str| if term == "honey" { 2 } else { 5 };
        let hit = c.lookup_result(&key, t0(), versions).expect("warm hit");
        assert_eq!(hit.results[0].name, "wiki/bees");
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
    fn invalidate_term_purges_all_affected_entries() {
        let mut c = cache();
        c.store_shard(&shard("honey", 3, 4), t0());
        store(
            &mut c,
            &result_key(&["honey".into()]),
            Arc::new(vec![doc("a", 1)]),
            &[("honey", 3)],
        );
        store(
            &mut c,
            &result_key(&["honey".into(), "bees".into()]),
            Arc::new(vec![doc("a", 1)]),
            &[("honey", 3), ("bees", 1)],
        );
        store(
            &mut c,
            &result_key(&["unrelated".into()]),
            Arc::new(vec![doc("b", 1)]),
            &[("unrelated", 1)],
        );
        let dropped = c.invalidate_term("honey", t0());
        assert_eq!(dropped, 3, "shard + two result entries");
        assert_eq!(c.tier_sizes().0, 1, "unrelated result survives");
        assert!(matches!(
            c.lookup_shard("honey", t0(), 3),
            ShardLookup::Miss
        ));
        // The unrelated entry still serves.
        assert!(c
            .lookup_result(&result_key(&["unrelated".into()]), t0(), |_| 1)
            .is_some());
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
        let key = result_key(&["honey".into()]);
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
        assert_eq!(list[0].name, "wiki/bees", "the holder's list is intact");
    }

    #[test]
    fn a_refused_result_is_never_built_or_indexed() {
        let mut config = CacheConfig::small();
        config.result_capacity_bytes = 1;
        let mut c = QueryCache::new(config);
        let unbuilt = || -> Arc<Vec<ScoredDoc>> { panic!("a refused result was built") };
        let terms = [("honey", 2), ("bees", 5)];
        assert!(!c.store_result("bees honey", terms.into_iter(), 41, t0(), unbuilt));
        assert_eq!(c.metrics().result.admission_rejections, 1);
        assert_eq!((c.tier_sizes().0, c.reverse_index_terms()), (0, 0));
    }

    #[test]
    fn bounded_lookup_serves_within_the_staleness_budget() {
        let mut c = cache();
        let bound = SimDuration::from_secs(60);
        c.store_shard(&shard("news", 3, 4), t0());
        // Current version: behaves like a strict hit.
        assert!(matches!(
            c.lookup_shard_bounded("news", t0(), 3, bound),
            BoundedShardLookup::Hit(s) if s.version == 3
        ));
        // Version superseded (a republish this cache never observed): the
        // copy serves while it is young enough, and is NOT evicted.
        let at_30s = t0() + SimDuration::from_secs(30);
        assert!(matches!(
            c.lookup_shard_bounded("news", at_30s, 4, bound),
            BoundedShardLookup::Stale { shard: s, age }
                if s.version == 3 && age == SimDuration::from_secs(30)
        ));
        assert_eq!(c.cached_shard_version("news"), Some(3), "not evicted");
        // Past the bound: a miss, and the entry still survives for a strict
        // read to purge.
        let at_90s = t0() + SimDuration::from_secs(90);
        assert_eq!(
            c.lookup_shard_bounded("news", at_90s, 4, bound),
            BoundedShardLookup::Miss
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
            c.lookup_shard_bounded("ghost", t0(), 0, bound),
            BoundedShardLookup::Negative
        );
        // A TTL-expired shard never serves, no matter how generous the bound.
        c.store_shard(&shard("old", 2, 3), t0());
        let ttl = c.adaptive_shard_ttl("old");
        assert_eq!(
            c.lookup_shard_bounded("old", t0() + ttl, 3, SimDuration(u64::MAX)),
            BoundedShardLookup::Miss
        );
        // Nothing cached at all: a plain miss.
        assert_eq!(
            c.lookup_shard_bounded("absent", t0(), 5, bound),
            BoundedShardLookup::Miss
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
        let key = result_key(&["old".into()]);
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

    #[test]
    fn reverse_index_is_pruned_when_entries_die_by_eviction_or_ttl() {
        let mut config = CacheConfig::small();
        config.result_capacity_bytes = 512;
        let mut c = QueryCache::new(config);
        // Far more distinct queries than the byte budget can hold: the
        // reverse index must track only the survivors, not every query ever.
        for i in 0..200 {
            let term = format!("term{i}");
            store(
                &mut c,
                &term,
                Arc::new(vec![doc("page/x", 1)]),
                &[(&term, 1)],
            );
        }
        let (live, _, _) = c.tier_sizes();
        assert!(live < 200, "budget must have evicted most entries");
        assert_eq!(
            c.reverse_index_terms(),
            live,
            "reverse index must shrink with evictions"
        );

        // TTL expiry prunes too: expire everything and look the keys up.
        let later = t0() + c.config().result_ttl;
        for i in 0..200 {
            let _ = c.lookup_result(&format!("term{i}"), later, |_| 1);
        }
        assert_eq!(c.tier_sizes().0, 0);
        assert_eq!(
            c.reverse_index_terms(),
            0,
            "index empty once entries expire"
        );
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
        assert!(c.republish_interval_estimate("hot").is_none());
        // Republished every 60s: TTL becomes ~30s, far below the ceiling.
        let mut now = t0();
        for _ in 0..4 {
            now += SimDuration::from_secs(60);
            c.invalidate_term("hot", now);
        }
        let est = c.republish_interval_estimate("hot").expect("estimate");
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
        assert!(c.republish_interval_estimate("multi").is_none());
        assert_eq!(c.adaptive_shard_ttl("multi"), ADAPTIVE_TTL_CEILING);
        // A later, genuinely spaced republish still produces an estimate.
        c.invalidate_term("multi", t0() + SimDuration::from_secs(40));
        assert_eq!(
            c.republish_interval_estimate("multi"),
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

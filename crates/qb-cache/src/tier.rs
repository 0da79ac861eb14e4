//! One cache tier: byte-budgeted, TTL-bounded, version-checked storage with
//! sampled-LFU admission.
//!
//! All bookkeeping is deterministic: entries live in ordered maps, recency
//! is a logical tick counter, and the frequency sketch hashes with fixed
//! seeds — two runs of the same simulation make identical decisions.

use crate::config::LFU_SAMPLE;
use crate::metrics::TierMetrics;
use crate::sketch::{hash_key, FreqSketch};
use qb_common::{SimDuration, SimInstant};
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone)]
struct Slot<V> {
    value: V,
    bytes: usize,
    version: u64,
    expires_at: SimInstant,
    stored_at: SimInstant,
    tick: u64,
    hash: u64,
    id: u64,
}

/// What [`CacheTier::hottest`] ranks an entry by, highest first: its
/// sketch-estimated frequency, then its recency tick. Ticks are unique, so
/// no two entries share a rank and the order is total.
pub type Rank = (u32, u64);

/// One entry alive at some instant, with what ranks it
/// ([`CacheTier::ranked`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankedKey<'a> {
    /// The entry's key.
    pub key: &'a str,
    /// The entry's identity: drawn from a counter when its key is stored
    /// while absent, kept while the key stays resident — a replacement
    /// keeps it, whatever version it stores — and never drawn again. Not
    /// derived from the key, so it can key an index without hashing it.
    pub id: u64,
    /// The version the entry was stored under.
    pub version: u64,
    /// Where the entry stands in [`CacheTier::hottest`].
    pub rank: Rank,
    /// The instant the entry stops being alive.
    pub expires_at: SimInstant,
}

/// A single byte-budgeted cache tier mapping `String` keys to values.
#[derive(Debug)]
pub struct CacheTier<V> {
    capacity_bytes: usize,
    entries: HashMap<String, Slot<V>>,
    /// Recency order: logical tick -> key. Ticks are unique and increasing,
    /// so the first entry is always the least recently used.
    recency: BTreeMap<u64, String>,
    tick: u64,
    /// The last entry id drawn ([`RankedKey::id`]).
    last_id: u64,
    bytes: usize,
    sketch: FreqSketch,
    /// Monotonic mutation counter: bumps whenever the tier's *holdings*
    /// change (insert, replacement, eviction, expiry, invalidation).
    /// Derived artifacts built over the holdings — like the gossip
    /// overlay's bloom-style holdings filter — can be cached behind this
    /// generation instead of being rebuilt per exchange.
    generation: u64,
    /// Monotonic counter of everything that moves the popularity *ranking*
    /// without necessarily moving the holdings: every sketch record and
    /// every recency touch (`get`, `insert`, `note_miss`). Together with
    /// `generation` it keys anything derived from [`CacheTier::hottest`],
    /// for as long as nothing listed expires (the earliest `expires_at`
    /// among [`CacheTier::ranked`]).
    popularity_epoch: u64,
    /// Counters for this tier.
    pub metrics: TierMetrics,
}

impl<V> CacheTier<V> {
    /// Create a tier with a byte budget. Every insert names its entry's TTL.
    pub fn new(capacity_bytes: usize) -> CacheTier<V> {
        CacheTier {
            capacity_bytes,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            last_id: 0,
            bytes: 0,
            sketch: FreqSketch::new(),
            generation: 0,
            popularity_epoch: 0,
            metrics: TierMetrics::default(),
        }
    }

    /// The tier's holdings generation: any change to what the tier holds
    /// (insert, replacement, eviction, expiry, invalidation) bumps it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The tier's popularity epoch: bumps on every lookup, insert attempt
    /// and accounted miss — whatever can reorder [`CacheTier::hottest`]
    /// while the generation stands still. A ranking taken at
    /// `(generation, popularity_epoch)` and instant `t` stays exact while
    /// neither counter moves and the clock stays inside `[t, e)`, `e` the
    /// earliest `expires_at` among [`CacheTier::ranked`] at `t` — the
    /// clock only drops entries past their TTL.
    pub fn popularity_epoch(&self) -> u64 {
        self.popularity_epoch
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the tier holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently accounted to the tier.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Feed the frequency sketch one occurrence of a key.
    fn record_popularity(&mut self, hash: u64) {
        self.sketch.record(hash);
        self.popularity_epoch += 1;
    }

    /// Look up `key` at simulated time `now`. When `expected_version` is
    /// `Some(v)`, an entry recorded under a different version is dropped and
    /// counted as an invalidation (the version-aware read path). Expired
    /// entries are dropped and counted as expirations. Every lookup feeds
    /// the frequency sketch so the admission policy sees real popularity.
    /// A hit re-keys the entry's recency row with the key it already owns,
    /// so it allocates nothing.
    pub fn get(&mut self, key: &str, now: SimInstant, expected_version: Option<u64>) -> Option<&V> {
        self.record_popularity(hash_key(key));
        let expired = match self.entries.get_mut(key) {
            None => {
                self.metrics.misses += 1;
                return None;
            }
            Some(slot) if now >= slot.expires_at => true,
            Some(slot) if expected_version.is_some_and(|v| v != slot.version) => false,
            Some(slot) => {
                self.metrics.hits += 1;
                self.tick += 1;
                let owned = self.recency.remove(&slot.tick);
                self.recency
                    .insert(self.tick, owned.unwrap_or_else(|| key.to_string()));
                slot.tick = self.tick;
                return self.entries.get(key).map(|slot| &slot.value);
            }
        };
        self.remove_entry(key);
        self.metrics.misses += 1;
        if expired {
            self.metrics.expirations += 1;
        } else {
            self.metrics.invalidations += 1;
        }
        None
    }

    /// Insert `key` with an explicit byte cost, version and TTL. Returns
    /// true when the entry was admitted. An entry larger than the whole
    /// tier, or one refused by the sampled-LFU admission filter, is not
    /// stored — and `value` is only called once admission is granted, so a
    /// caller can offer an entry it has not built yet.
    pub fn insert(
        &mut self,
        key: &str,
        bytes: usize,
        version: u64,
        now: SimInstant,
        ttl: SimDuration,
        value: impl FnOnce() -> V,
    ) -> bool {
        self.store(false, key, bytes, (version, now, ttl), value).1
    }

    /// [`CacheTier::invalidate`] of `key`, then [`CacheTier::insert`] of it
    /// as a key the tier never held (a new id, admission through the
    /// sampled-LFU filter), in one pass that files the new entry under the
    /// dropped one's two strings. Every counter, id and ranking ends as the
    /// two calls leave them. Returns whether an entry was invalidated and
    /// whether the new one was admitted.
    pub fn invalidate_and_insert(
        &mut self,
        key: &str,
        bytes: usize,
        version: u64,
        now: SimInstant,
        ttl: SimDuration,
        value: impl FnOnce() -> V,
    ) -> (bool, bool) {
        self.store(true, key, bytes, (version, now, ttl), value)
    }

    /// [`CacheTier::insert`], after invalidating `key`'s entry when
    /// `invalidate`.
    fn store(
        &mut self,
        invalidate: bool,
        key: &str,
        bytes: usize,
        (version, now, ttl): (u64, SimInstant, SimDuration),
        value: impl FnOnce() -> V,
    ) -> (bool, bool) {
        let dropped = if invalidate {
            self.remove_entry(key)
        } else {
            None
        };
        let invalidated = dropped.is_some();
        self.metrics.invalidations += u64::from(invalidated);
        let hash = hash_key(key);
        self.record_popularity(hash);
        if bytes > self.capacity_bytes {
            self.metrics.admission_rejections += 1;
            return (invalidated, false);
        }
        // Replacing an existing entry never goes through admission: the key
        // already proved itself, and it keeps its id and the two strings it
        // owns. An invalidated entry hands over only its strings.
        let (strings, id) = match dropped {
            Some((owned, row, _)) => (Some((owned, row)), None),
            None => match self.remove_entry(key) {
                Some((owned, row, id)) => (Some((owned, row)), Some(id)),
                None => (None, None),
            },
        };
        let id = id.unwrap_or_else(|| {
            self.last_id += 1;
            self.last_id
        });
        // Plan the full victim set before evicting anything, so a refused
        // admission never costs resident entries.
        match self.plan_evictions(hash, bytes) {
            Some(victims) => {
                for victim in victims {
                    self.remove_entry(&victim);
                    self.metrics.evictions += 1;
                }
            }
            None => {
                self.metrics.admission_rejections += 1;
                return (invalidated, false);
            }
        }
        let (owned, row) = strings.unwrap_or_else(|| (key.to_string(), key.to_string()));
        let tick = self.next_tick();
        self.recency.insert(tick, row);
        self.entries.insert(
            owned,
            Slot {
                value: value(),
                bytes,
                version,
                expires_at: now + ttl,
                stored_at: now,
                tick,
                hash,
                id,
            },
        );
        self.bytes += bytes;
        self.generation += 1;
        self.metrics.insertions += 1;
        (invalidated, true)
    }

    /// Choose the set of keys to evict so an entry of `bytes` fits, without
    /// removing anything yet. Returns `None` when admission is refused (or
    /// nothing is left to evict) — in that case no resident entry is
    /// touched. The incoming key must be estimated at least as frequent as
    /// the coldest of the [`LFU_SAMPLE`] least-recently-used residents — for
    /// every victim the admission would displace; among equally frequent
    /// residents the least recently used leaves first.
    fn plan_evictions(&self, incoming: u64, bytes: usize) -> Option<Vec<String>> {
        let mut victims: Vec<String> = Vec::new();
        let mut freed = 0usize;
        while self.bytes - freed + bytes > self.capacity_bytes {
            let victim = self
                .recency
                .values()
                .filter(|k| !victims.contains(k))
                .take(LFU_SAMPLE)
                .min_by_key(|key| {
                    let slot = &self.entries[key.as_str()];
                    (self.sketch.estimate(slot.hash), slot.tick)
                })?;
            let victim_freq = self.sketch.estimate(self.entries[victim.as_str()].hash);
            if self.sketch.estimate(incoming) < victim_freq {
                return None;
            }
            freed += self.entries[victim.as_str()].bytes;
            victims.push(victim.clone());
        }
        Some(victims)
    }

    /// Drop `key` explicitly (publish-path invalidation). Returns true when
    /// an entry existed.
    pub fn invalidate(&mut self, key: &str) -> bool {
        let removed = self.remove_entry(key).is_some();
        self.metrics.invalidations += u64::from(removed);
        removed
    }

    /// The recorded version of `key`, when present.
    pub fn version_of(&self, key: &str) -> Option<u64> {
        self.entries.get(key).map(|s| s.version)
    }

    /// Borrow `key`'s value without touching recency, TTL or counters (the
    /// read side of gossip fills: building a fill must not look like query
    /// traffic to the eviction policy).
    pub fn peek(&self, key: &str) -> Option<&V> {
        self.entries.get(key).map(|s| &s.value)
    }

    /// Remaining lifetime of `key` at `now`; `None` when the entry is
    /// absent or already past its expiry (without removing it — a
    /// read-only probe). Nothing on the serving or gossip path reads it
    /// yet: fills ship the sender's full adaptive TTL, not this.
    pub fn remaining_ttl(&self, key: &str, now: SimInstant) -> Option<SimDuration> {
        let slot = self.entries.get(key)?;
        (now < slot.expires_at).then(|| slot.expires_at - now)
    }

    /// When `key` was inserted (read-only probe; `None` when absent). The
    /// age of an entry — `now - stored_at` — is the staleness bound the
    /// `MaxStaleness` freshness mode checks before serving a cached shard
    /// whose version has already been superseded.
    pub fn stored_at(&self, key: &str) -> Option<SimInstant> {
        self.entries.get(key).map(|s| s.stored_at)
    }

    /// Account a probe that found nothing servable, without touching any
    /// resident entry: the key still feeds the frequency sketch (so the
    /// admission policy sees the demand) and a miss is counted. Used by
    /// lookup paths that must not evict, like the staleness-bounded read.
    pub fn note_miss(&mut self, key: &str) {
        self.record_popularity(hash_key(key));
        self.metrics.misses += 1;
    }

    /// The `max` hottest keys alive at `now` with their versions, ordered by
    /// sketch-estimated popularity (ties broken by recency, newest first).
    /// Expired-but-resident entries are excluded: a digest must never
    /// advertise data that has already aged out. The order is
    /// deterministic: ticks are unique, so the sort is total.
    pub fn hottest(&self, max: usize, now: SimInstant) -> Vec<(&str, u64)> {
        let mut ranked: Vec<RankedKey<'_>> = self.ranked(now).collect();
        ranked.sort_unstable_by_key(|entry| std::cmp::Reverse(entry.rank));
        ranked
            .into_iter()
            .take(max)
            .map(|entry| (entry.key, entry.version))
            .collect()
    }

    /// Every entry alive at `now`, in no particular order, with the rank
    /// [`CacheTier::hottest`] sorts it by: one pass of sketch estimates, no
    /// sort and no allocation. A caller that keeps an earlier ranking, with
    /// each entry's id, checks it against this pass in place: the same
    /// count, each id found at its version, is the same set, and the ranks
    /// say whether the order, or only a cut through it, moved.
    pub fn ranked(&self, now: SimInstant) -> impl Iterator<Item = RankedKey<'_>> {
        self.entries
            .iter()
            .filter(move |(_, slot)| now < slot.expires_at)
            .map(|(key, slot)| RankedKey {
                key,
                id: slot.id,
                version: slot.version,
                rank: (self.sketch.estimate(slot.hash), slot.tick),
                expires_at: slot.expires_at,
            })
    }

    /// Drop `key`'s entry, handing back the strings it owned — its map key
    /// and its recency row — and its id, so a replacement reuses them.
    fn remove_entry(&mut self, key: &str) -> Option<(String, String, u64)> {
        let (owned, slot) = self.entries.remove_entry(key)?;
        let row = self.recency.remove(&slot.tick);
        self.bytes -= slot.bytes;
        self.generation += 1;
        Some((owned, row.unwrap_or_else(|| key.to_string()), slot.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t0() -> SimInstant {
        SimInstant::ZERO
    }

    const TTL: SimDuration = SimDuration::from_secs(60);

    fn tier(capacity: usize) -> CacheTier<u64> {
        CacheTier::new(capacity)
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut tier = tier(30);
        tier.insert("a", 10, 1, t0(), TTL, || 1);
        tier.insert("b", 10, 1, t0(), TTL, || 2);
        tier.insert("c", 10, 1, t0(), TTL, || 3);
        // One read each leaves the three equally frequent; reading "a" last
        // makes "b" the least recently used of them.
        for k in ["b", "c", "a"] {
            assert!(tier.get(k, t0(), None).is_some());
        }
        // An incoming key seen as often as the residents is admitted.
        tier.note_miss("d");
        assert!(tier.insert("d", 10, 1, t0(), TTL, || 4));
        assert!(tier.peek("a").is_some());
        assert!(tier.peek("b").is_none(), "LRU victim should be b");
        assert!(tier.peek("c").is_some());
        assert!(tier.peek("d").is_some());
        assert_eq!(tier.metrics.evictions, 1);
        assert!(tier.bytes() <= 30);
    }

    #[test]
    fn lru_eviction_order_is_full_recency_order() {
        let mut tier = tier(40);
        for (k, v) in [("a", 1u64), ("b", 2), ("c", 3), ("d", 4)] {
            tier.insert(k, 10, 1, t0(), TTL, || v);
        }
        // Recency now a < b < c < d. Touch in reverse: d c b a -> LRU is d,
        // and every resident has been seen twice.
        for k in ["d", "c", "b", "a"] {
            tier.get(k, t0(), None);
        }
        // Each incoming key is made as frequent as the residents, or
        // sampled-LFU would refuse it.
        tier.note_miss("e");
        assert!(tier.insert("e", 10, 1, t0(), TTL, || 5));
        assert!(tier.peek("d").is_none());
        tier.note_miss("f");
        assert!(tier.insert("f", 10, 1, t0(), TTL, || 6));
        assert!(tier.peek("c").is_none());
        assert!(["a", "b"].iter().all(|k| tier.peek(k).is_some()));
    }

    #[test]
    fn sampled_lfu_protects_hot_entries_from_cold_inserts() {
        let mut tier: CacheTier<u64> = CacheTier::new(30);
        tier.insert("hot1", 10, 1, t0(), TTL, || 1);
        tier.insert("hot2", 10, 1, t0(), TTL, || 2);
        tier.insert("hot3", 10, 1, t0(), TTL, || 3);
        // Make the residents popular.
        for _ in 0..10 {
            tier.get("hot1", t0(), None);
            tier.get("hot2", t0(), None);
            tier.get("hot3", t0(), None);
        }
        // A one-shot key must not displace them...
        assert!(!tier.insert("cold", 10, 1, t0(), TTL, || 9));
        assert_eq!(tier.metrics.admission_rejections, 1);
        assert!(["hot1", "hot2", "hot3"]
            .iter()
            .all(|k| tier.peek(k).is_some()));
        // ...but a key that got as popular as the residents is admitted.
        for _ in 0..12 {
            tier.get("rising", t0(), None);
        }
        assert!(tier.insert("rising", 10, 1, t0(), TTL, || 7));
        assert_eq!(tier.metrics.evictions, 1);
        assert_eq!(tier.len(), 3);
    }

    #[test]
    fn refused_admission_never_evicts_residents() {
        let mut tier: CacheTier<u64> = CacheTier::new(30);
        // One cold resident, two hot ones; an incoming entry needing all
        // three slots must be refused without losing any resident — even
        // though it would beat the cold one.
        tier.insert("cold", 10, 1, t0(), TTL, || 1);
        tier.insert("hot1", 10, 1, t0(), TTL, || 2);
        tier.insert("hot2", 10, 1, t0(), TTL, || 3);
        for _ in 0..10 {
            tier.get("hot1", t0(), None);
            tier.get("hot2", t0(), None);
        }
        for _ in 0..5 {
            tier.get("incoming", t0(), None);
        }
        // incoming (freq ~6) beats cold (freq ~1) but loses to the hot pair,
        // and it needs 30 bytes = every slot.
        assert!(!tier.insert("incoming", 30, 1, t0(), TTL, || 9));
        assert_eq!(tier.metrics.evictions, 0, "no resident may be sacrificed");
        assert!(["cold", "hot1", "hot2"]
            .iter()
            .all(|k| tier.peek(k).is_some()));
        assert_eq!(tier.metrics.admission_rejections, 1);
    }

    #[test]
    fn a_refused_insert_never_builds_its_value() {
        // Two identically prepared tiers: one is offered a value that must
        // not be built, the other a plain one. Both refusals — oversize,
        // then sampled-LFU — leave the same state behind.
        let prepared = || {
            let mut tier: CacheTier<u64> = CacheTier::new(30);
            for key in ["hot1", "hot2", "hot3"] {
                tier.insert(key, 10, 1, t0(), TTL, || 1);
                for _ in 0..10 {
                    tier.get(key, t0(), None);
                }
            }
            tier
        };
        let state = |tier: &CacheTier<u64>, key: &str| {
            (
                tier.metrics,
                tier.bytes(),
                tier.generation(),
                tier.popularity_epoch(),
                tier.sketch.estimate(hash_key(key)),
            )
        };
        let (mut lazy, mut plain) = (prepared(), prepared());
        for (key, bytes) in [("big", 31), ("cold", 10)] {
            let before = state(&lazy, key);
            let unbuilt = || -> u64 { panic!("a refused insert built its value") };
            assert!(!lazy.insert(key, bytes, 1, t0(), TTL, unbuilt));
            assert!(!plain.insert(key, bytes, 1, t0(), TTL, || 9));
            assert_eq!(state(&lazy, key), state(&plain, key));
            // The refusal is still an observation of the key.
            let (metrics, held, generation, epoch, estimate) = state(&lazy, key);
            assert_eq!(
                metrics.admission_rejections,
                before.0.admission_rejections + 1
            );
            assert_eq!((metrics.insertions, metrics.evictions), (3, 0));
            assert_eq!((held, generation), (before.1, before.2));
            assert_eq!((epoch, estimate), (before.3 + 1, before.4 + 1));
        }
        // Granted, the value is built exactly once.
        let mut built = 0;
        for _ in 0..12 {
            lazy.get("rising", t0(), None);
        }
        let value = || {
            built += 1;
            7
        };
        assert!(lazy.insert("rising", 10, 1, t0(), TTL, value));
        assert_eq!((built, lazy.peek("rising")), (1, Some(&7)));
    }

    #[test]
    fn ttl_expiry_follows_simulated_time() {
        let mut tier: CacheTier<u64> = tier(100);
        tier.insert("k", 10, 1, t0(), SimDuration::from_secs(10), || 7);
        let just_before = t0() + SimDuration::from_micros(9_999_999);
        assert_eq!(tier.get("k", just_before, None), Some(&7));
        let at_expiry = t0() + SimDuration::from_secs(10);
        assert_eq!(tier.get("k", at_expiry, None), None);
        assert_eq!(tier.metrics.expirations, 1);
        assert!(tier.peek("k").is_none());
    }

    #[test]
    fn version_mismatch_invalidates_on_read() {
        let mut tier: CacheTier<u64> = tier(100);
        tier.insert("term", 10, 3, t0(), TTL, || 42);
        assert_eq!(tier.get("term", t0(), Some(3)), Some(&42));
        // A bumped current version makes the entry unreachable and drops it.
        assert_eq!(tier.get("term", t0(), Some(4)), None);
        assert_eq!(tier.metrics.invalidations, 1);
        assert!(tier.peek("term").is_none());
    }

    #[test]
    fn explicit_invalidation_counts_and_removes() {
        let mut tier: CacheTier<u64> = tier(100);
        tier.insert("x", 10, 1, t0(), TTL, || 1);
        assert!(tier.invalidate("x"));
        assert!(!tier.invalidate("x"));
        assert_eq!(tier.metrics.invalidations, 1);
        assert_eq!(tier.len(), 0);
        assert_eq!(tier.bytes(), 0);
    }

    #[test]
    fn oversized_entries_are_refused() {
        let mut tier: CacheTier<u64> = tier(16);
        assert!(!tier.insert("big", 17, 1, t0(), TTL, || 1));
        assert_eq!(tier.len(), 0);
        assert_eq!(tier.metrics.admission_rejections, 1);
    }

    #[test]
    fn each_entry_expires_on_its_own_ttl() {
        let mut tier: CacheTier<u64> = tier(100);
        tier.insert("short", 10, 1, t0(), SimDuration::from_secs(5), || 1);
        tier.insert("long", 10, 1, t0(), TTL, || 2);
        let later = t0() + SimDuration::from_secs(5);
        assert_eq!(tier.get("short", later, None), None, "short TTL expired");
        assert_eq!(tier.get("long", later, None), Some(&2), "long TTL holds");
    }

    #[test]
    fn peek_does_not_touch_recency_or_counters() {
        let mut tier = tier(20);
        tier.insert("a", 10, 1, t0(), TTL, || 1);
        tier.insert("b", 10, 1, t0(), TTL, || 2);
        // Peeking "a" must not protect it from LRU eviction.
        assert_eq!(tier.peek("a"), Some(&1));
        assert_eq!(tier.metrics.hits, 0);
        tier.insert("c", 10, 1, t0(), TTL, || 3);
        assert!(tier.peek("a").is_none(), "peek must not refresh recency");
        assert_eq!(tier.peek("missing"), None);
    }

    #[test]
    fn hottest_ranks_by_frequency_then_recency() {
        let mut tier = tier(1000);
        for (k, v) in [("a", 1u64), ("b", 2), ("c", 3)] {
            tier.insert(k, 10, v, t0(), TTL, || v);
        }
        for _ in 0..6 {
            tier.get("b", t0(), None);
        }
        for _ in 0..2 {
            tier.get("c", t0(), None);
        }
        let top = tier.hottest(2, t0());
        assert_eq!(top, vec![("b", 2), ("c", 3)]);
        assert_eq!(tier.hottest(10, t0()).len(), 3);
        // Expired entries are not advertised even while still resident, and
        // remaining_ttl reports their true lifetime.
        assert_eq!(
            tier.remaining_ttl("b", t0() + SimDuration::from_secs(1)),
            Some(SimDuration(TTL.0 - 1_000_000))
        );
        assert_eq!(tier.hottest(10, t0() + TTL).len(), 0);
        assert_eq!(tier.remaining_ttl("b", t0() + TTL), None);
        assert_eq!(tier.remaining_ttl("missing", t0()), None);
    }

    #[test]
    fn generation_tracks_every_holdings_change() {
        let mut tier: CacheTier<u64> = tier(30);
        assert_eq!(tier.generation(), 0);
        tier.insert("a", 10, 1, t0(), TTL, || 1);
        assert_eq!(tier.generation(), 1);
        // A pure read does not bump the generation.
        tier.get("a", t0(), None);
        assert_eq!(tier.generation(), 1);
        // Replacement = removal + insert.
        tier.insert("a", 10, 2, t0(), TTL, || 2);
        assert_eq!(tier.generation(), 3);
        // Eviction bumps (victim removal + new insert).
        tier.insert("b", 10, 1, t0(), TTL, || 3);
        tier.insert("c", 10, 1, t0(), TTL, || 4);
        let before = tier.generation();
        tier.insert("d", 10, 1, t0(), TTL, || 5);
        assert_eq!(tier.generation(), before + 2);
        // Invalidation and TTL expiry bump too.
        let before = tier.generation();
        assert!(tier.invalidate("d"));
        assert_eq!(tier.generation(), before + 1);
        let before = tier.generation();
        assert!(tier.get("c", t0() + TTL, None).is_none());
        assert_eq!(tier.generation(), before + 1, "expiry changes holdings");
    }

    #[test]
    fn a_key_keeps_its_id_while_it_stays_resident() {
        let mut tier: CacheTier<u64> = tier(100);
        let id_of = |tier: &CacheTier<u64>, key: &str| {
            tier.ranked(t0()).find(|e| e.key == key).map(|e| e.id)
        };
        tier.insert("a", 10, 1, t0(), TTL, || 1);
        tier.insert("b", 10, 1, t0(), TTL, || 2);
        let a = id_of(&tier, "a").unwrap();
        assert_ne!(Some(a), id_of(&tier, "b"));
        // Reads and replacements, at any version, keep it.
        tier.get("a", t0(), None);
        tier.insert("a", 10, 1, t0(), TTL, || 3);
        tier.insert("a", 20, 2, t0(), TTL, || 4);
        assert_eq!(id_of(&tier, "a"), Some(a));
        // A key stored again after it left is a new entry.
        assert!(tier.invalidate("a"));
        tier.insert("a", 10, 2, t0(), TTL, || 5);
        let again = id_of(&tier, "a").unwrap();
        assert_ne!(again, a);
        assert_ne!(Some(again), id_of(&tier, "b"));
    }

    #[test]
    fn replacing_a_key_updates_bytes_exactly() {
        let mut tier: CacheTier<u64> = tier(100);
        tier.insert("k", 30, 1, t0(), TTL, || 1);
        tier.insert("k", 10, 2, t0(), TTL, || 2);
        assert_eq!(tier.bytes(), 10);
        assert_eq!(tier.len(), 1);
        assert_eq!(tier.version_of("k"), Some(2));
        assert_eq!(tier.get("k", t0(), Some(2)), Some(&2));
    }

    #[test]
    fn reads_reorder_the_ranking_without_moving_the_generation() {
        let mut tier = tier(1000);
        tier.insert("a", 10, 1, t0(), TTL, || 1);
        tier.insert("b", 10, 1, t0(), TTL, || 2);
        let (generation, epoch) = (tier.generation(), tier.popularity_epoch());
        assert_eq!(tier.hottest(2, t0()), vec![("b", 1), ("a", 1)]);
        tier.get("a", t0(), None);
        assert_eq!(tier.generation(), generation, "holdings did not change");
        assert!(tier.popularity_epoch() > epoch, "but the ranking may have");
        assert_eq!(tier.hottest(2, t0()), vec![("a", 1), ("b", 1)]);
        // Misses and refused admissions feed the sketch too.
        let epoch = tier.popularity_epoch();
        tier.get("absent", t0(), None);
        tier.note_miss("absent");
        assert!(!tier.insert("huge", 2000, 1, t0(), TTL, || 3));
        assert_eq!(tier.popularity_epoch(), epoch + 3);
        assert_eq!(tier.generation(), generation);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The writer's one-pass store is exactly an invalidation followed
        /// by an insert: under any script of reads, misses, inserts,
        /// invalidations, time steps and one-pass stores (some too large
        /// for the tier, some refused, some evicting), a tier that stores
        /// in one pass and one that makes the two calls report the same
        /// outcomes and hold the same entries, ids, versions, values and
        /// `hottest` order, with every counter equal.
        #[test]
        fn a_one_pass_store_is_an_invalidation_then_an_insert(
            ops in proptest::collection::vec((0u8..8, 0u8..8, 1u64..5), 1..150),
        ) {
            let mut one: CacheTier<u64> = CacheTier::new(48);
            let mut two: CacheTier<u64> = CacheTier::new(48);
            let mut now = t0();
            for (op, key, arg) in ops {
                let key = format!("k{key}");
                // 1..=4 units of 8 bytes; 5 and more exceed the tier.
                let bytes = 8 * arg as usize + if op == 7 { 48 } else { 0 };
                let ttl = SimDuration::from_secs(arg);
                match op {
                    0 => prop_assert_eq!(one.get(&key, now, None), two.get(&key, now, None)),
                    1 => {
                        let (a, b) = (one.get(&key, now, Some(arg)), two.get(&key, now, Some(arg)));
                        prop_assert_eq!(a, b);
                    }
                    2 => prop_assert_eq!(
                        one.insert(&key, bytes, arg, now, ttl, || arg),
                        two.insert(&key, bytes, arg, now, ttl, || arg)
                    ),
                    3 => prop_assert_eq!(one.invalidate(&key), two.invalidate(&key)),
                    4 => {
                        one.note_miss(&key);
                        two.note_miss(&key);
                    }
                    5 => now += SimDuration::from_millis(900 * arg),
                    _ => {
                        let stored = one.invalidate_and_insert(&key, bytes, arg, now, ttl, || arg);
                        let invalidated = two.invalidate(&key);
                        let admitted = two.insert(&key, bytes, arg, now, ttl, || arg);
                        prop_assert_eq!(stored, (invalidated, admitted));
                    }
                }
                prop_assert_eq!(one.metrics, two.metrics);
                prop_assert_eq!(
                    (one.bytes(), one.len(), one.generation(), one.popularity_epoch()),
                    (two.bytes(), two.len(), two.generation(), two.popularity_epoch())
                );
                let held = |tier: &CacheTier<u64>| {
                    let mut held: Vec<_> = tier
                        .ranked(SimInstant::ZERO)
                        .map(|e| (e.key.to_string(), e.id, e.version, e.rank, e.expires_at))
                        .collect();
                    held.sort();
                    held.into_iter()
                        .map(|entry| (tier.peek(&entry.0).copied(), entry))
                        .collect::<Vec<_>>()
                };
                prop_assert_eq!(held(&one), held(&two));
                prop_assert_eq!(one.hottest(usize::MAX, now), two.hottest(usize::MAX, now));
            }
        }

        /// The contract the gossip overlay's digest cache rests on: a
        /// ranking taken at `(generation, popularity_epoch)` and instant
        /// `t` equals a fresh `hottest` at every `t'` in
        /// `[t, e)`, `e` the earliest `expires_at` among the entries
        /// `ranked` at `t`, for as long as the two counters stand —
        /// under any interleaving of reads, misses, inserts, replacements,
        /// evictions, refused admissions, invalidations and time steps —
        /// and stops being exact at `e` itself. Drop the epoch
        /// from the stamp and a read between two rankings breaks it; widen
        /// the interval and an expiry does.
        #[test]
        fn a_ranking_is_exact_for_its_stamp(
            ops in proptest::collection::vec((0u8..8, 0u8..10, 1u64..4), 1..120),
        ) {
            // Room for ~6 of the 10 keys: inserts evict or are refused.
            let mut tier: CacheTier<u64> = CacheTier::new(64);
            let listing = |tier: &CacheTier<u64>, at: SimInstant| -> Vec<(String, u64)> {
                tier.hottest(usize::MAX, at)
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect()
            };
            let mut now = t0();
            // The stamp `ranking` was taken at and the first expiry after
            // it (the clock here only moves forward).
            let mut taken: Option<((u64, u64), Option<SimInstant>)> = None;
            let mut ranking: Vec<(String, u64)> = Vec::new();
            for (op, key, arg) in ops {
                let key = format!("k{key}");
                match op {
                    0 | 1 => {
                        tier.get(&key, now, None);
                    }
                    2 => {
                        tier.get(&key, now, Some(arg));
                    }
                    3 | 4 => {
                        let ttl = SimDuration::from_secs(arg);
                        tier.insert(&key, 10, arg, now, ttl, || arg);
                    }
                    5 => {
                        tier.invalidate(&key);
                    }
                    6 => tier.note_miss(&key),
                    _ => now += SimDuration::from_millis(700 * arg),
                }
                // Ids name one entry each.
                let ranked: Vec<RankedKey<'_>> = tier.ranked(now).collect();
                for entry in &ranked {
                    prop_assert_eq!(ranked.iter().filter(|e| e.id == entry.id).count(), 1);
                }
                let stamp = (tier.generation(), tier.popularity_epoch());
                let fresh = listing(&tier, now);
                if taken.is_some_and(|(cached, until)| {
                    cached == stamp && until.is_none_or(|u| now < u)
                }) {
                    prop_assert_eq!(&ranking, &fresh, "stale ranking after op {}", op);
                    continue;
                }
                let until = ranked.iter().map(|entry| entry.expires_at).min();
                prop_assert_eq!(until.is_none(), fresh.is_empty());
                if let Some(until) = until {
                    prop_assert!(now < until);
                    let last = SimInstant(until.0 - 1);
                    prop_assert_eq!(&listing(&tier, last), &fresh, "exact up to the expiry");
                    prop_assert!(
                        listing(&tier, until).len() < fresh.len(),
                        "and one entry short at it"
                    );
                }
                (taken, ranking) = (Some((stamp, until)), fresh);
            }
        }
    }
}

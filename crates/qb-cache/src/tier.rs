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
}

/// A single byte-budgeted cache tier mapping `String` keys to values.
#[derive(Debug)]
pub struct CacheTier<V> {
    capacity_bytes: usize,
    ttl: SimDuration,
    entries: HashMap<String, Slot<V>>,
    /// Recency order: logical tick -> key. Ticks are unique and increasing,
    /// so the first entry is always the least recently used.
    recency: BTreeMap<u64, String>,
    tick: u64,
    bytes: usize,
    sketch: FreqSketch,
    /// When enabled, keys removed for any reason (eviction, expiry,
    /// invalidation, replacement) accumulate here until drained with
    /// [`CacheTier::take_removed`]. Off by default so tiers without an
    /// external index never grow an undrained log.
    track_removals: bool,
    removed: Vec<String>,
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
    /// for as long as nothing listed expires ([`CacheTier::next_expiry`]).
    popularity_epoch: u64,
    /// Counters for this tier.
    pub metrics: TierMetrics,
}

impl<V> CacheTier<V> {
    /// Create a tier with a byte budget and a default TTL.
    pub fn new(capacity_bytes: usize, ttl: SimDuration) -> CacheTier<V> {
        CacheTier {
            capacity_bytes,
            ttl,
            entries: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            bytes: 0,
            sketch: FreqSketch::new(1024),
            track_removals: false,
            removed: Vec::new(),
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
    /// neither counter moves and the clock stays inside
    /// `[t, next_expiry(t))`.
    pub fn popularity_epoch(&self) -> u64 {
        self.popularity_epoch
    }

    /// Record removed keys for later draining via [`CacheTier::take_removed`].
    /// Callers that maintain an external index over this tier's keys need
    /// this to prune their index when entries die by eviction or TTL.
    pub fn set_track_removals(&mut self, on: bool) {
        self.track_removals = on;
    }

    /// Drain the keys removed (for any reason) since the last drain.
    pub fn take_removed(&mut self) -> Vec<String> {
        std::mem::take(&mut self.removed)
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

    /// The tier's TTL.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
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
    pub fn get(&mut self, key: &str, now: SimInstant, expected_version: Option<u64>) -> Option<&V> {
        self.record_popularity(hash_key(key));
        let (expired, stale) = match self.entries.get(key) {
            None => {
                self.metrics.misses += 1;
                return None;
            }
            Some(slot) => (
                now >= slot.expires_at,
                expected_version.is_some_and(|v| v != slot.version),
            ),
        };
        if expired {
            self.remove_entry(key);
            self.metrics.expirations += 1;
            self.metrics.misses += 1;
            return None;
        }
        if stale {
            self.remove_entry(key);
            self.metrics.invalidations += 1;
            self.metrics.misses += 1;
            return None;
        }
        self.metrics.hits += 1;
        let tick = self.next_tick();
        let slot = self.entries.get_mut(key).expect("checked above");
        self.recency.remove(&slot.tick);
        slot.tick = tick;
        self.recency.insert(tick, key.to_string());
        Some(&self.entries[key].value)
    }

    /// Insert `key` with an explicit byte cost and version. Returns true
    /// when the entry was admitted. An entry larger than the whole tier, or
    /// one refused by the sampled-LFU admission filter, is not stored —
    /// and `value` is only called once admission is granted, so a caller
    /// can offer an entry it has not built yet.
    pub fn insert(
        &mut self,
        key: &str,
        bytes: usize,
        version: u64,
        now: SimInstant,
        value: impl FnOnce() -> V,
    ) -> bool {
        self.insert_with_ttl(key, bytes, version, now, self.ttl, value)
    }

    /// Like [`CacheTier::insert`] but with a per-entry TTL override, used by
    /// the adaptive-TTL policy (hot, frequently-republished terms get short
    /// lifetimes; archival terms long ones) and by gossip fills that inherit
    /// the sender's adapted TTL.
    pub fn insert_with_ttl(
        &mut self,
        key: &str,
        bytes: usize,
        version: u64,
        now: SimInstant,
        ttl: SimDuration,
        value: impl FnOnce() -> V,
    ) -> bool {
        let hash = hash_key(key);
        self.record_popularity(hash);
        if bytes > self.capacity_bytes {
            self.metrics.admission_rejections += 1;
            return false;
        }
        // Replacing an existing entry never goes through admission: the key
        // already proved itself.
        if self.entries.contains_key(key) {
            self.remove_entry(key);
        }
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
                return false;
            }
        }
        let tick = self.next_tick();
        self.recency.insert(tick, key.to_string());
        self.entries.insert(
            key.to_string(),
            Slot {
                value: value(),
                bytes,
                version,
                expires_at: now + ttl,
                stored_at: now,
                tick,
                hash,
            },
        );
        self.bytes += bytes;
        self.generation += 1;
        self.metrics.insertions += 1;
        true
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
        if self.remove_entry(key) {
            self.metrics.invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Does the tier currently hold `key` (ignoring TTL/version checks)?
    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
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
        let mut ranked: Vec<(&str, u32, u64, u64)> = self
            .entries
            .iter()
            .filter(|(_, slot)| now < slot.expires_at)
            .map(|(k, slot)| {
                let freq = self.sketch.estimate(slot.hash);
                (k.as_str(), freq, slot.tick, slot.version)
            })
            .collect();
        ranked.sort_unstable_by_key(|&(_, freq, tick, _)| std::cmp::Reverse((freq, tick)));
        ranked
            .into_iter()
            .take(max)
            .map(|(k, _, _, v)| (k, v))
            .collect()
    }

    /// The earliest expiry among the entries alive at `now` — the instant
    /// a [`CacheTier::hottest`] listing taken at `now` first loses an entry
    /// to its TTL; `None` when nothing is alive. `hottest` reads the clock
    /// only to drop expired entries, so with the generation and the
    /// popularity epoch standing still a listing taken at `now` is exact
    /// at every instant of `[now, next_expiry(now))`.
    pub fn next_expiry(&self, now: SimInstant) -> Option<SimInstant> {
        self.entries
            .values()
            .map(|slot| slot.expires_at)
            .filter(|&expires_at| now < expires_at)
            .min()
    }

    fn remove_entry(&mut self, key: &str) -> bool {
        match self.entries.remove(key) {
            Some(slot) => {
                self.recency.remove(&slot.tick);
                self.bytes -= slot.bytes;
                self.generation += 1;
                if self.track_removals {
                    self.removed.push(key.to_string());
                }
                true
            }
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t0() -> SimInstant {
        SimInstant::ZERO
    }

    fn tier(capacity: usize) -> CacheTier<u64> {
        CacheTier::new(capacity, SimDuration::from_secs(60))
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut tier = tier(30);
        tier.insert("a", 10, 1, t0(), || 1);
        tier.insert("b", 10, 1, t0(), || 2);
        tier.insert("c", 10, 1, t0(), || 3);
        // One read each leaves the three equally frequent; reading "a" last
        // makes "b" the least recently used of them.
        for k in ["b", "c", "a"] {
            assert!(tier.get(k, t0(), None).is_some());
        }
        // An incoming key seen as often as the residents is admitted.
        tier.note_miss("d");
        assert!(tier.insert("d", 10, 1, t0(), || 4));
        assert!(tier.contains("a"));
        assert!(!tier.contains("b"), "LRU victim should be b");
        assert!(tier.contains("c"));
        assert!(tier.contains("d"));
        assert_eq!(tier.metrics.evictions, 1);
        assert!(tier.bytes() <= 30);
    }

    #[test]
    fn lru_eviction_order_is_full_recency_order() {
        let mut tier = tier(40);
        for (k, v) in [("a", 1u64), ("b", 2), ("c", 3), ("d", 4)] {
            tier.insert(k, 10, 1, t0(), || v);
        }
        // Recency now a < b < c < d. Touch in reverse: d c b a -> LRU is d,
        // and every resident has been seen twice.
        for k in ["d", "c", "b", "a"] {
            tier.get(k, t0(), None);
        }
        // Each incoming key is made as frequent as the residents, or
        // sampled-LFU would refuse it.
        tier.note_miss("e");
        assert!(tier.insert("e", 10, 1, t0(), || 5));
        assert!(!tier.contains("d"));
        tier.note_miss("f");
        assert!(tier.insert("f", 10, 1, t0(), || 6));
        assert!(!tier.contains("c"));
        assert!(tier.contains("a") && tier.contains("b"));
    }

    #[test]
    fn sampled_lfu_protects_hot_entries_from_cold_inserts() {
        let mut tier: CacheTier<u64> = CacheTier::new(30, SimDuration::from_secs(60));
        tier.insert("hot1", 10, 1, t0(), || 1);
        tier.insert("hot2", 10, 1, t0(), || 2);
        tier.insert("hot3", 10, 1, t0(), || 3);
        // Make the residents popular.
        for _ in 0..10 {
            tier.get("hot1", t0(), None);
            tier.get("hot2", t0(), None);
            tier.get("hot3", t0(), None);
        }
        // A one-shot key must not displace them...
        assert!(!tier.insert("cold", 10, 1, t0(), || 9));
        assert_eq!(tier.metrics.admission_rejections, 1);
        assert!(tier.contains("hot1") && tier.contains("hot2") && tier.contains("hot3"));
        // ...but a key that got as popular as the residents is admitted.
        for _ in 0..12 {
            tier.get("rising", t0(), None);
        }
        assert!(tier.insert("rising", 10, 1, t0(), || 7));
        assert_eq!(tier.metrics.evictions, 1);
        assert_eq!(tier.len(), 3);
    }

    #[test]
    fn refused_admission_never_evicts_residents() {
        let mut tier: CacheTier<u64> = CacheTier::new(30, SimDuration::from_secs(60));
        // One cold resident, two hot ones; an incoming entry needing all
        // three slots must be refused without losing any resident — even
        // though it would beat the cold one.
        tier.insert("cold", 10, 1, t0(), || 1);
        tier.insert("hot1", 10, 1, t0(), || 2);
        tier.insert("hot2", 10, 1, t0(), || 3);
        for _ in 0..10 {
            tier.get("hot1", t0(), None);
            tier.get("hot2", t0(), None);
        }
        for _ in 0..5 {
            tier.get("incoming", t0(), None);
        }
        // incoming (freq ~6) beats cold (freq ~1) but loses to the hot pair,
        // and it needs 30 bytes = every slot.
        assert!(!tier.insert("incoming", 30, 1, t0(), || 9));
        assert_eq!(tier.metrics.evictions, 0, "no resident may be sacrificed");
        assert!(tier.contains("cold") && tier.contains("hot1") && tier.contains("hot2"));
        assert_eq!(tier.metrics.admission_rejections, 1);
    }

    #[test]
    fn a_refused_insert_never_builds_its_value() {
        // Two identically prepared tiers: one is offered a value that must
        // not be built, the other a plain one. Both refusals — oversize,
        // then sampled-LFU — leave the same state behind.
        let prepared = || {
            let mut tier: CacheTier<u64> = CacheTier::new(30, SimDuration::from_secs(60));
            for key in ["hot1", "hot2", "hot3"] {
                tier.insert(key, 10, 1, t0(), || 1);
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
            assert!(!lazy.insert(key, bytes, 1, t0(), unbuilt));
            assert!(!plain.insert(key, bytes, 1, t0(), || 9));
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
        assert!(lazy.insert("rising", 10, 1, t0(), value));
        assert_eq!((built, lazy.peek("rising")), (1, Some(&7)));
    }

    #[test]
    fn ttl_expiry_follows_simulated_time() {
        let mut tier: CacheTier<u64> = CacheTier::new(100, SimDuration::from_secs(10));
        tier.insert("k", 10, 1, t0(), || 7);
        let just_before = t0() + SimDuration::from_micros(9_999_999);
        assert_eq!(tier.get("k", just_before, None), Some(&7));
        let at_expiry = t0() + SimDuration::from_secs(10);
        assert_eq!(tier.get("k", at_expiry, None), None);
        assert_eq!(tier.metrics.expirations, 1);
        assert!(!tier.contains("k"));
    }

    #[test]
    fn version_mismatch_invalidates_on_read() {
        let mut tier: CacheTier<u64> = tier(100);
        tier.insert("term", 10, 3, t0(), || 42);
        assert_eq!(tier.get("term", t0(), Some(3)), Some(&42));
        // A bumped current version makes the entry unreachable and drops it.
        assert_eq!(tier.get("term", t0(), Some(4)), None);
        assert_eq!(tier.metrics.invalidations, 1);
        assert!(!tier.contains("term"));
    }

    #[test]
    fn explicit_invalidation_counts_and_removes() {
        let mut tier: CacheTier<u64> = tier(100);
        tier.insert("x", 10, 1, t0(), || 1);
        assert!(tier.invalidate("x"));
        assert!(!tier.invalidate("x"));
        assert_eq!(tier.metrics.invalidations, 1);
        assert_eq!(tier.len(), 0);
        assert_eq!(tier.bytes(), 0);
    }

    #[test]
    fn oversized_entries_are_refused() {
        let mut tier: CacheTier<u64> = tier(16);
        assert!(!tier.insert("big", 17, 1, t0(), || 1));
        assert_eq!(tier.len(), 0);
        assert_eq!(tier.metrics.admission_rejections, 1);
    }

    #[test]
    fn per_entry_ttl_overrides_the_tier_default() {
        let mut tier: CacheTier<u64> = CacheTier::new(100, SimDuration::from_secs(60));
        tier.insert_with_ttl("short", 10, 1, t0(), SimDuration::from_secs(5), || 1);
        tier.insert("long", 10, 1, t0(), || 2);
        let later = t0() + SimDuration::from_secs(5);
        assert_eq!(tier.get("short", later, None), None, "short TTL expired");
        assert_eq!(tier.get("long", later, None), Some(&2), "default TTL holds");
    }

    #[test]
    fn peek_does_not_touch_recency_or_counters() {
        let mut tier = tier(20);
        tier.insert("a", 10, 1, t0(), || 1);
        tier.insert("b", 10, 1, t0(), || 2);
        // Peeking "a" must not protect it from LRU eviction.
        assert_eq!(tier.peek("a"), Some(&1));
        assert_eq!(tier.metrics.hits, 0);
        tier.insert("c", 10, 1, t0(), || 3);
        assert!(!tier.contains("a"), "peek must not refresh recency");
        assert_eq!(tier.peek("missing"), None);
    }

    #[test]
    fn hottest_ranks_by_frequency_then_recency() {
        let mut tier = tier(1000);
        for (k, v) in [("a", 1u64), ("b", 2), ("c", 3)] {
            tier.insert(k, 10, v, t0(), || v);
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
        let ttl = tier.ttl();
        assert_eq!(
            tier.remaining_ttl("b", t0() + SimDuration::from_secs(1)),
            Some(SimDuration(ttl.0 - 1_000_000))
        );
        assert_eq!(tier.hottest(10, t0() + ttl).len(), 0);
        assert_eq!(tier.remaining_ttl("b", t0() + ttl), None);
        assert_eq!(tier.remaining_ttl("missing", t0()), None);
    }

    #[test]
    fn generation_tracks_every_holdings_change() {
        let mut tier: CacheTier<u64> = tier(30);
        assert_eq!(tier.generation(), 0);
        tier.insert("a", 10, 1, t0(), || 1);
        assert_eq!(tier.generation(), 1);
        // A pure read does not bump the generation.
        tier.get("a", t0(), None);
        assert_eq!(tier.generation(), 1);
        // Replacement = removal + insert.
        tier.insert("a", 10, 2, t0(), || 2);
        assert_eq!(tier.generation(), 3);
        // Eviction bumps (victim removal + new insert).
        tier.insert("b", 10, 1, t0(), || 3);
        tier.insert("c", 10, 1, t0(), || 4);
        let before = tier.generation();
        tier.insert("d", 10, 1, t0(), || 5);
        assert_eq!(tier.generation(), before + 2);
        // Invalidation and TTL expiry bump too.
        let before = tier.generation();
        assert!(tier.invalidate("d"));
        assert_eq!(tier.generation(), before + 1);
        let before = tier.generation();
        assert!(tier.get("c", t0() + tier.ttl(), None).is_none());
        assert_eq!(tier.generation(), before + 1, "expiry changes holdings");
    }

    #[test]
    fn replacing_a_key_updates_bytes_exactly() {
        let mut tier: CacheTier<u64> = tier(100);
        tier.insert("k", 30, 1, t0(), || 1);
        tier.insert("k", 10, 2, t0(), || 2);
        assert_eq!(tier.bytes(), 10);
        assert_eq!(tier.len(), 1);
        assert_eq!(tier.version_of("k"), Some(2));
        assert_eq!(tier.get("k", t0(), Some(2)), Some(&2));
    }

    #[test]
    fn reads_reorder_the_ranking_without_moving_the_generation() {
        let mut tier = tier(1000);
        tier.insert("a", 10, 1, t0(), || 1);
        tier.insert("b", 10, 1, t0(), || 2);
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
        assert!(!tier.insert("huge", 2000, 1, t0(), || 3));
        assert_eq!(tier.popularity_epoch(), epoch + 3);
        assert_eq!(tier.generation(), generation);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// The contract the gossip overlay's digest cache rests on: a
        /// ranking taken at `(generation, popularity_epoch)` and instant
        /// `t` equals a fresh `hottest` at every `t'` in
        /// `[t, next_expiry(t))` for as long as the two counters stand —
        /// under any interleaving of reads, misses, inserts, replacements,
        /// evictions, refused admissions, invalidations and time steps —
        /// and stops being exact at `next_expiry(t)` itself. Drop the epoch
        /// from the stamp and a read between two rankings breaks it; widen
        /// the interval and an expiry does.
        #[test]
        fn a_ranking_is_exact_for_its_stamp(
            ops in proptest::collection::vec((0u8..8, 0u8..10, 1u64..4), 1..120),
        ) {
            // Room for ~6 of the 10 keys: inserts evict or are refused.
            let mut tier: CacheTier<u64> = CacheTier::new(64, SimDuration::from_secs(3));
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
                        tier.insert_with_ttl(&key, 10, arg, now, ttl, || arg);
                    }
                    5 => {
                        tier.invalidate(&key);
                    }
                    6 => tier.note_miss(&key),
                    _ => now += SimDuration::from_millis(700 * arg),
                }
                let stamp = (tier.generation(), tier.popularity_epoch());
                let fresh = listing(&tier, now);
                if taken.is_some_and(|(cached, until)| {
                    cached == stamp && until.is_none_or(|u| now < u)
                }) {
                    prop_assert_eq!(&ranking, &fresh, "stale ranking after op {}", op);
                    continue;
                }
                let until = tier.next_expiry(now);
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

//! Churn-aware fleet membership: who is in the fleet, which zone they live
//! in, and whether they are believed alive.
//!
//! Every frontend carries its own [`MembershipView`] — there is no central
//! membership service, matching the paper's setting where frontends are
//! ordinary peer devices. Liveness flows through the same gossip exchanges
//! that move cache digests:
//!
//! * each frontend increments a **heartbeat** counter every round and
//!   piggybacks a [`MembershipSummary`] (peer, zone, heartbeat triples) on
//!   every digest swap;
//! * receiving a summary entry with a **newer heartbeat** refreshes that
//!   member's `last_heard` (third-party liveness — a peer does not need to
//!   talk to everyone to stay alive in everyone's view);
//! * a member not heard from within the liveness timeout, or
//!   whose direct exchanges keep failing, is **marked dead** and evicted
//!   from the sample set, so rounds stop burning timeouts on it;
//! * a dead member that shows up again (heals from a partition, restarts)
//!   is **revived** the moment a fresher heartbeat arrives — anti-entropy
//!   rounds deliberately sample from dead members too, as the safety net
//!   that re-establishes contact.
//!
//! Partner sampling is **zone-aware**: a frontend prefers partners in its
//! own latency zone and escapes to a different zone with a configurable
//! probability, cutting round latency while keeping the fleet-wide graph
//! connected (the cross-zone links carry convergence).

use qb_common::{DetRng, SimDuration, SimInstant};
use std::collections::BTreeMap;

/// One member as seen from a particular frontend's view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberInfo {
    /// The simulated peer the member runs on.
    pub peer: u64,
    /// The member's latency zone.
    pub zone: usize,
    /// Highest incarnation epoch observed for this member. A restarted
    /// process bumps its incarnation (SWIM-style) and resets its heartbeat
    /// to zero; liveness evidence compares `(incarnation, heartbeat)`
    /// lexicographically, so a long-delayed summary from a previous
    /// incarnation — no matter how high its heartbeat — can never outrank
    /// the rejoined process.
    pub incarnation: u64,
    /// Highest heartbeat observed within the member's current incarnation.
    pub heartbeat: u64,
    /// When liveness evidence (direct exchange or fresher heartbeat) last
    /// arrived.
    pub last_heard: SimInstant,
    /// Consecutive direct exchange failures since the last success.
    pub failures: u32,
    /// Is the member believed alive (sampled in regular rounds)?
    pub alive: bool,
    /// The member's self-reported load signal (an EWMA of queries served
    /// per gossip round), piggybacked on its heartbeats. Routing's
    /// power-of-two-choices tiebreak reads this; 0 until the member
    /// advertises anything.
    pub load: u64,
}

/// The compact membership gossip piggybacked on every digest exchange:
/// `(peer, zone, incarnation, heartbeat, load)` for every member the
/// sender believes alive (itself included).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MembershipSummary {
    /// `(peer, zone, incarnation, heartbeat, load)` tuples.
    pub entries: Vec<(u64, usize, u64, u64, u64)>,
}

impl MembershipSummary {
    /// Bytes on the wire: a small frame plus a varint-budgeted tuple per
    /// entry (peer + zone byte + incarnation + heartbeat + load;
    /// incarnations count process restarts, so their varint stays one byte
    /// in practice, and the load EWMA is budgeted two bytes).
    pub fn wire_bytes(&self) -> usize {
        8 + self.entries.len() * 13
    }
}

/// Is liveness evidence `(a_inc, a_hb)` strictly fresher than
/// `(b_inc, b_hb)`? Lexicographic: a bumped incarnation outranks any
/// heartbeat of an older incarnation.
pub fn fresher(a_inc: u64, a_hb: u64, b_inc: u64, b_hb: u64) -> bool {
    (a_inc, a_hb) > (b_inc, b_hb)
}

/// One frontend's view of the fleet.
#[derive(Debug, Clone, Default)]
pub struct MembershipView {
    members: BTreeMap<u64, MemberInfo>,
}

impl MembershipView {
    /// An empty view (a joining frontend before bootstrap).
    pub fn new() -> MembershipView {
        MembershipView::default()
    }

    /// Number of known members (alive or dead).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no member is known.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Look up one member.
    pub fn get(&self, peer: u64) -> Option<&MemberInfo> {
        self.members.get(&peer)
    }

    /// Insert or refresh a member as alive with the given incarnation and
    /// heartbeat (direct contact is liveness evidence even when the
    /// counters themselves lag what we already knew).
    pub fn admit(
        &mut self,
        peer: u64,
        zone: usize,
        incarnation: u64,
        heartbeat: u64,
        now: SimInstant,
    ) {
        let entry = self.members.entry(peer).or_insert(MemberInfo {
            peer,
            zone,
            incarnation,
            heartbeat,
            last_heard: now,
            failures: 0,
            alive: true,
            load: 0,
        });
        entry.zone = zone;
        if fresher(incarnation, heartbeat, entry.incarnation, entry.heartbeat) {
            entry.incarnation = incarnation;
            entry.heartbeat = heartbeat;
        }
        entry.last_heard = entry.last_heard.max(now);
        entry.failures = 0;
        entry.alive = true;
    }

    /// Tombstone a member on a graceful departure notice: mark it dead at
    /// (at least) its final `(incarnation, heartbeat)`. Keeping the entry —
    /// rather than removing it — means lagging third-party summaries,
    /// which can carry at most that evidence, cannot re-admit the departed
    /// member as alive; only a genuine rejoin (incarnation bump) revives
    /// it.
    pub fn mark_departed(&mut self, peer: u64, final_incarnation: u64, final_heartbeat: u64) {
        let entry = self.members.entry(peer).or_insert(MemberInfo {
            peer,
            zone: 0,
            incarnation: final_incarnation,
            heartbeat: final_heartbeat,
            last_heard: SimInstant::ZERO,
            failures: 0,
            alive: false,
            load: 0,
        });
        if fresher(
            final_incarnation,
            final_heartbeat,
            entry.incarnation,
            entry.heartbeat,
        ) {
            entry.incarnation = final_incarnation;
            entry.heartbeat = final_heartbeat;
        }
        entry.alive = false;
    }

    /// Set a member's advertised load signal directly (a frontend is the
    /// authority on its own entry; gossip moves everyone else's). No-op for
    /// an unknown peer.
    pub fn note_load(&mut self, peer: u64, load: u64) {
        if let Some(m) = self.members.get_mut(&peer) {
            m.load = load;
        }
    }

    /// A member's advertised load signal (0 when unknown — an unknown or
    /// freshly admitted member looks idle, which is the optimistic default
    /// two-choices wants).
    pub fn load_of(&self, peer: u64) -> u64 {
        self.members.get(&peer).map(|m| m.load).unwrap_or(0)
    }

    /// Record a failed direct exchange with `peer`; marks it dead once
    /// `failure_threshold` consecutive failures accumulate. Returns true
    /// when this call transitioned the member from alive to dead.
    pub fn record_failure(&mut self, peer: u64, failure_threshold: u32) -> bool {
        let Some(m) = self.members.get_mut(&peer) else {
            return false;
        };
        m.failures = m.failures.saturating_add(1);
        if m.alive && m.failures >= failure_threshold.max(1) {
            m.alive = false;
            return true;
        }
        false
    }

    /// Merge a gossiped summary: strictly fresher `(incarnation,
    /// heartbeat)` evidence refreshes (and revives) the member, an unknown
    /// member is admitted. Entries about `self_peer` are ignored (a
    /// frontend is the authority on itself). A long-delayed summary
    /// replaying a member's *previous* incarnation — even with an
    /// arbitrarily high heartbeat — is stale evidence and changes nothing.
    /// Returns how many dead members were revived.
    pub fn merge_summary(
        &mut self,
        summary: &MembershipSummary,
        self_peer: u64,
        now: SimInstant,
    ) -> usize {
        let mut revived = 0;
        for &(peer, zone, incarnation, heartbeat, load) in &summary.entries {
            if peer == self_peer {
                continue;
            }
            match self.members.get_mut(&peer) {
                Some(m) => {
                    if fresher(incarnation, heartbeat, m.incarnation, m.heartbeat) {
                        m.incarnation = incarnation;
                        m.heartbeat = heartbeat;
                        m.load = load;
                        m.last_heard = m.last_heard.max(now);
                        m.failures = 0;
                        if !m.alive {
                            m.alive = true;
                            revived += 1;
                        }
                    }
                }
                None => {
                    self.admit(peer, zone, incarnation, heartbeat, now);
                    self.note_load(peer, load);
                }
            }
        }
        revived
    }

    /// Build the summary this frontend piggybacks on its exchanges: every
    /// member it believes alive, itself included. Anti-entropy and
    /// bootstrap exchanges use this full roster; regular rounds use the
    /// bounded [`MembershipView::summary_window`] so membership overhead
    /// stays flat as the fleet grows. Written over `out`, whose buffer an
    /// exchange reuses.
    pub fn summary(&self, out: &mut MembershipSummary) {
        out.entries.clear();
        out.entries.extend(
            self.members
                .values()
                .filter(|m| m.alive)
                .map(|m| (m.peer, m.zone, m.incarnation, m.heartbeat, m.load)),
        );
    }

    /// A bounded summary: the sender itself plus up to `budget` other alive
    /// members, chosen by rotating `cursor` through the roster — every
    /// member is mentioned once per `ceil(alive / budget)` summaries, so
    /// liveness still spreads fleet-wide within a couple of rounds while
    /// the per-exchange overhead stays constant in fleet size. Written over
    /// `out`, like [`MembershipView::summary`].
    pub fn summary_window(
        &self,
        cursor: usize,
        budget: usize,
        self_peer: u64,
        out: &mut MembershipSummary,
    ) {
        let tuple = |m: &MemberInfo| (m.peer, m.zone, m.incarnation, m.heartbeat, m.load);
        out.entries.clear();
        out.entries.extend(self.members.get(&self_peer).map(tuple));
        let others = self
            .members
            .values()
            .filter(|m| m.alive && m.peer != self_peer);
        let alive = others.clone().count();
        if alive > 0 {
            // The `budget` members from `cursor` on, wrapping round.
            let start = cursor % alive;
            let window = others.clone().skip(start).chain(others.take(start));
            out.entries.extend(window.take(budget).map(tuple));
        }
    }

    /// Mark members not heard from within `timeout` as dead. Returns the
    /// number of members transitioned from alive to dead by this pass.
    pub fn evict_silent(&mut self, now: SimInstant, timeout: SimDuration) -> usize {
        let mut evicted = 0;
        for m in self.members.values_mut() {
            if m.alive && now.since(m.last_heard) >= timeout {
                m.alive = false;
                evicted += 1;
            }
        }
        evicted
    }

    /// Sample up to `fanout` distinct partner peers into `sample.picked`
    /// (over whatever it held), biased toward `self_zone`: each pick
    /// escapes to a different zone with probability
    /// `cross_zone_probability` (always, when the own zone has no other
    /// alive member). `include_dead` additionally samples members currently
    /// believed dead — anti-entropy rounds use it as the safety net that
    /// re-establishes contact after partitions heal. The caller keeps
    /// `sample` between calls, so a round samples without allocating.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn sample_partners(
        &self,
        rng: &mut DetRng,
        self_peer: u64,
        self_zone: usize,
        fanout: usize,
        cross_zone_probability: f64,
        include_dead: bool,
        sample: &mut PartnerSample,
    ) {
        let PartnerSample {
            same,
            cross,
            picked,
        } = sample;
        same.clear();
        cross.clear();
        picked.clear();
        for m in self.members.values() {
            if m.peer == self_peer || !(m.alive || include_dead) {
                continue;
            }
            if m.zone == self_zone {
                same.push(m.peer);
            } else {
                cross.push(m.peer);
            }
        }
        for _ in 0..fanout {
            let pool: &mut Vec<u64> = if same.is_empty() && cross.is_empty() {
                break;
            } else if same.is_empty() {
                cross
            } else if cross.is_empty() {
                same
            } else if rng.gen_bool(cross_zone_probability) {
                cross
            } else {
                same
            };
            let idx = rng.gen_index(pool.len());
            picked.push(pool.swap_remove(idx));
        }
    }
}

/// The buffers [`MembershipView::sample_partners`] fills, kept between
/// draws: its candidate pools (same-zone and cross-zone peers) and the
/// peers it picked, in pick order.
#[derive(Debug, Default)]
pub(crate) struct PartnerSample {
    same: Vec<u64>,
    cross: Vec<u64>,
    pub(crate) picked: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alive(v: &MembershipView) -> usize {
        v.members.values().filter(|m| m.alive).count()
    }

    fn view_of(members: &[(u64, usize)]) -> MembershipView {
        let mut v = MembershipView::new();
        for &(peer, zone) in members {
            v.admit(peer, zone, 0, 0, SimInstant::ZERO);
        }
        v
    }

    #[test]
    fn admit_and_summary_round_trip() {
        let v = view_of(&[(0, 0), (1, 1), (2, 0)]);
        assert_eq!(v.len(), 3);
        assert_eq!(alive(&v), 3);
        let mut s = MembershipSummary::default();
        v.summary(&mut s);
        assert_eq!(s.entries.len(), 3);
        assert!(s.wire_bytes() > MembershipSummary::default().wire_bytes());

        let mut other = MembershipView::new();
        other.admit(9, 1, 0, 5, SimInstant::ZERO);
        other.merge_summary(&s, 9, SimInstant::ZERO);
        assert_eq!(other.len(), 4);
        assert!(other.get(2).is_some());
        // The authority rule: a summary never updates the receiver's own entry.
        assert_eq!(other.get(9).unwrap().heartbeat, 5);
    }

    #[test]
    fn departure_tombstones_resist_lagging_summaries() {
        let mut v = view_of(&[(1, 0), (2, 0)]);
        // Member 1 gossiped up to heartbeat 7, then left gracefully.
        v.admit(1, 0, 0, 7, SimInstant::ZERO);
        v.mark_departed(1, 0, 7);
        assert_eq!(alive(&v), 1);
        // A lagging third party still lists it alive at heartbeat <= 7;
        // that must not resurrect the tombstone.
        let lagging = MembershipSummary {
            entries: vec![(1, 0, 0, 7, 0)],
        };
        assert_eq!(v.merge_summary(&lagging, 9, SimInstant::ZERO), 0);
        assert!(!v.get(1).unwrap().alive);
        // A genuine rejoin bumps the incarnation past the tombstone (the
        // restarted process starts its heartbeat over from zero).
        let rejoined = MembershipSummary {
            entries: vec![(1, 0, 1, 0, 0)],
        };
        assert_eq!(v.merge_summary(&rejoined, 9, SimInstant::ZERO), 1);
        assert!(v.get(1).unwrap().alive);
        // Tombstoning an unknown peer records it dead.
        v.mark_departed(5, 0, 3);
        assert!(!v.get(5).unwrap().alive);
        assert_eq!(v.get(5).unwrap().heartbeat, 3);
    }

    #[test]
    fn delayed_summary_replay_cannot_confuse_a_rejoined_member() {
        // The SWIM-style regression: member 1 ran to heartbeat 999 in
        // incarnation 0, crashed, and rejoined as incarnation 1 with its
        // heartbeat reset to 2. A long-delayed summary replaying the old
        // incarnation's high heartbeat must be recognized as stale.
        let mut v = view_of(&[(1, 0), (2, 0)]);
        v.admit(1, 0, 1, 2, SimInstant::ZERO + SimDuration::from_secs(5));
        let before = *v.get(1).unwrap();
        assert_eq!((before.incarnation, before.heartbeat), (1, 2));

        let delayed = MembershipSummary {
            entries: vec![(1, 0, 0, 999, 0)],
        };
        assert_eq!(
            v.merge_summary(&delayed, 9, SimInstant::ZERO + SimDuration::from_secs(9)),
            0
        );
        let after = *v.get(1).unwrap();
        assert_eq!(
            (after.incarnation, after.heartbeat),
            (1, 2),
            "stale-incarnation evidence must not overwrite the rejoin"
        );
        assert_eq!(
            after.last_heard, before.last_heard,
            "a replay is not liveness evidence"
        );
        // The rejoined member goes silent: the delayed replay must not
        // have postponed its eviction either.
        let evicted = v.evict_silent(
            SimInstant::ZERO + SimDuration::from_secs(8),
            SimDuration::from_secs(3),
        );
        assert!(evicted >= 1);
        assert!(!v.get(1).unwrap().alive);
        // And once dead, the same replay still cannot revive it...
        assert_eq!(
            v.merge_summary(&delayed, 9, SimInstant::ZERO + SimDuration::from_secs(9)),
            0
        );
        assert!(!v.get(1).unwrap().alive);
        // ...while genuinely fresher evidence from the live incarnation can.
        let fresh = MembershipSummary {
            entries: vec![(1, 0, 1, 3, 0)],
        };
        assert_eq!(
            v.merge_summary(&fresh, 9, SimInstant::ZERO + SimDuration::from_secs(9)),
            1
        );
        assert!(v.get(1).unwrap().alive);
    }

    #[test]
    fn windowed_summaries_rotate_through_the_roster() {
        let members: Vec<(u64, usize)> = (0..9).map(|i| (i as u64, 0)).collect();
        let v = view_of(&members);
        // Budget 4 + self: full coverage of the 8 others in two windows.
        let window = |cursor: usize, budget: usize| {
            let mut s = MembershipSummary {
                entries: vec![(99, 0, 0, 0, 0)],
            };
            v.summary_window(cursor, budget, 0, &mut s);
            s
        };
        let w0 = window(0, 4);
        let w1 = window(4, 4);
        assert_eq!(w0.entries.len(), 5);
        assert_eq!(w0.entries[0].0, 0, "self leads every summary");
        let mut mentioned: Vec<u64> = w0.entries.iter().chain(&w1.entries).map(|e| e.0).collect();
        mentioned.sort_unstable();
        mentioned.dedup();
        assert_eq!(mentioned.len(), 9, "two windows cover the whole roster");
        // A budget larger than the roster degenerates to the full summary.
        let all = window(3, 64);
        assert_eq!(all.entries.len(), 9);
        // The window wraps round the roster from the cursor.
        let wrapped: Vec<u64> = window(7, 3).entries.iter().map(|e| e.0).collect();
        assert_eq!(wrapped, vec![0, 8, 1, 2]);
    }

    #[test]
    fn failures_mark_dead_and_heartbeats_revive() {
        let mut v = view_of(&[(1, 0)]);
        assert!(!v.record_failure(1, 3));
        assert!(!v.record_failure(1, 3));
        assert!(
            v.record_failure(1, 3),
            "third failure crosses the threshold"
        );
        assert_eq!(alive(&v), 0);
        // A stale heartbeat does not revive; a fresher one does.
        let stale = MembershipSummary {
            entries: vec![(1, 0, 0, 0, 0)],
        };
        assert_eq!(v.merge_summary(&stale, 7, SimInstant::ZERO), 0);
        assert_eq!(alive(&v), 0);
        let fresh = MembershipSummary {
            entries: vec![(1, 0, 0, 4, 0)],
        };
        assert_eq!(v.merge_summary(&fresh, 7, SimInstant::ZERO), 1);
        assert_eq!(alive(&v), 1);
        assert_eq!(v.get(1).unwrap().failures, 0);
    }

    #[test]
    fn silent_members_are_evicted_after_the_timeout() {
        let mut v = view_of(&[(1, 0), (2, 0)]);
        let t = SimDuration::from_secs(2);
        // A direct exchange refreshes liveness through admit().
        v.admit(1, 0, 0, 0, SimInstant::ZERO + SimDuration::from_secs(1));
        let evicted = v.evict_silent(SimInstant::ZERO + SimDuration::from_secs(2), t);
        assert_eq!(evicted, 1, "only the silent member is evicted");
        assert!(v.get(1).unwrap().alive);
        assert!(!v.get(2).unwrap().alive);
        // Idempotent: a second pass evicts nothing new.
        assert_eq!(
            v.evict_silent(SimInstant::ZERO + SimDuration::from_secs(3), t),
            1,
            "member 1 now crossed the timeout too"
        );
    }

    #[test]
    fn sampling_prefers_the_own_zone() {
        let members: Vec<(u64, usize)> = (0..12).map(|i| (i as u64, (i % 3) as usize)).collect();
        let v = view_of(&members);
        let mut rng = DetRng::new(0x5A);
        let mut sample = PartnerSample::default();
        let mut same = 0usize;
        let mut total = 0usize;
        for _ in 0..400 {
            v.sample_partners(&mut rng, 0, 0, 2, 0.2, false, &mut sample);
            for &p in &sample.picked {
                total += 1;
                if v.get(p).unwrap().zone == 0 {
                    same += 1;
                }
            }
        }
        let frac = same as f64 / total as f64;
        // 3 same-zone candidates out of 11; uniform sampling would give
        // ~27% same-zone. The bias should push it well past half.
        assert!(frac > 0.6, "same-zone fraction {frac}");
        // Cross-zone escapes still happen (the convergence links).
        assert!(frac < 0.99, "cross-zone escapes must exist, got {frac}");
    }

    #[test]
    fn sampling_excludes_self_and_dead_members() {
        let mut v = view_of(&[(0, 0), (1, 0), (2, 0)]);
        for _ in 0..3 {
            v.record_failure(2, 3);
        }
        let mut rng = DetRng::new(1);
        let mut sample = PartnerSample::default();
        for _ in 0..50 {
            v.sample_partners(&mut rng, 0, 0, 3, 0.2, false, &mut sample);
            let picks = &sample.picked;
            assert!(!picks.contains(&0), "never samples self");
            assert!(!picks.contains(&2), "never samples dead members");
            assert_eq!(picks.len(), 1);
        }
        // Anti-entropy mode reaches dead members again.
        let mut saw_dead = false;
        for _ in 0..50 {
            v.sample_partners(&mut rng, 0, 0, 2, 0.2, true, &mut sample);
            if sample.picked.contains(&2) {
                saw_dead = true;
            }
        }
        assert!(saw_dead, "include_dead must be able to sample dead members");
    }
}

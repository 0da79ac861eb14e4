//! Gossip traffic and effectiveness counters.

use std::fmt;

/// Cumulative counters of the gossip overlay. Byte counters mirror exactly
/// what was charged to the simulated network, so experiment tables can
/// report gossip overhead next to the DHT traffic it saves.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GossipStats {
    /// Hot-set gossip rounds run.
    pub rounds: u64,
    /// Anti-entropy (full digest) rounds run.
    pub anti_entropy_rounds: u64,
    /// Digest exchanges completed.
    pub exchanges: u64,
    /// Digest exchanges that failed (partition, offline peer, drop).
    pub failed_exchanges: u64,
    /// Fill batches dropped after a successful digest swap (counted apart
    /// from `failed_exchanges` so ok + failed exchanges still sum to the
    /// pairs attempted).
    pub failed_fills: u64,
    /// Bytes spent on digest traffic.
    pub digest_bytes: u64,
    /// Bytes spent on shard fills.
    pub fill_bytes: u64,
    /// The slice of `fill_bytes` that stayed inside a latency zone
    /// (sender and receiver share a zone label; with an unzoned overlay
    /// every fill counts here).
    pub intra_zone_fill_bytes: u64,
    /// The slice of `fill_bytes` that crossed latency zones — the
    /// expensive links the zone-aware fill budgets exist to protect.
    pub cross_zone_fill_bytes: u64,
    /// The slice of `fill_bytes` sent by a join's bootstrap exchange (the
    /// elevated-budget warm-up), accounted apart from steady-state fills so
    /// a segment-vs-gossip bootstrap comparison is exact.
    pub bootstrap_fill_bytes: u64,
    /// The slice of `fill_bytes` sent by periodic anti-entropy rounds.
    pub anti_entropy_fill_bytes: u64,
    /// The slice of `anti_entropy_fill_bytes` that crossed latency zones —
    /// what zone-aware anti-entropy exists to shrink (asserted in E12).
    pub anti_entropy_cross_zone_fill_bytes: u64,
    /// Bytes spent advertising and probing segment pointers (piggybacked on
    /// digest swaps and join-time probes).
    pub segment_advert_bytes: u64,
    /// Shard fills sent.
    pub shards_pushed: u64,
    /// Shard fills accepted into a receiver's cache.
    pub shards_accepted: u64,
    /// Fills rejected because the receiver already knew a newer version —
    /// the staleness guard firing, not an error.
    pub stale_rejected: u64,
    /// Fills skipped because the receiver already held an equal-or-newer
    /// copy (digest raced a concurrent fetch).
    pub duplicates_skipped: u64,
    /// Fills the receiving tier's admission policy refused.
    pub admission_refused: u64,
    /// Bytes spent on membership summaries piggybacked on digest swaps
    /// (identical across digest modes, so accounted apart from
    /// `digest_bytes`).
    pub membership_bytes: u64,
    /// Frontends that joined the fleet (bootstrap-by-anti-entropy), crash
    /// recoveries included.
    pub joins: u64,
    /// Frontends that left gracefully (departure notices sent).
    pub leaves: u64,
    /// Frontends that crashed (no notice; peers detect via heartbeats).
    pub crashes: u64,
    /// Members marked dead in some frontend's view (liveness timeout or
    /// consecutive exchange failures).
    pub evictions: u64,
    /// Dead members revived by a fresher gossiped heartbeat (partition
    /// heals, crash recoveries observed).
    pub revivals: u64,
    /// Batch-aware advertisements that rode a digest ahead of hot-set
    /// popularity (one count per advert per exchange it rode).
    pub batch_adverts: u64,
    /// Holdings filters built for delta-digest exchanges: one per distinct
    /// listing a frontend brought to one — the listed `(term, version)`
    /// sequence changed since the filter before. Host-side work, not
    /// traffic.
    pub filter_builds: u64,
    /// Holdings filters served from the per-frontend cache instead: the
    /// exchange side brought the listing (by handle) the cached filter was
    /// built over, whatever generation or instant it was re-ranked at.
    pub filter_reuses: u64,
    /// Exchange sides that skipped their fill scan (and, in a full
    /// exchange, the rebuild of their per-partner sync state) because
    /// their settled record for the partner matched: the same listing
    /// against the same partner filter or listing already found nothing to
    /// push, and nothing was told or learned since. Host-side work, not
    /// traffic.
    pub settled_sides: u64,
}

impl GossipStats {
    /// Total gossip overhead on the wire.
    pub fn total_bytes(&self) -> u64 {
        self.digest_bytes + self.fill_bytes + self.membership_bytes
    }
}

impl qb_trace::MetricsSource for GossipStats {
    fn metrics_into(&self, out: &mut qb_trace::MetricsSnapshot) {
        out.add_counter("gossip.rounds", self.rounds);
        out.add_counter("gossip.anti_entropy_rounds", self.anti_entropy_rounds);
        out.add_counter("gossip.exchanges", self.exchanges);
        out.add_counter("gossip.failed_exchanges", self.failed_exchanges);
        out.add_counter("gossip.failed_fills", self.failed_fills);
        out.add_counter("gossip.digest_bytes", self.digest_bytes);
        out.add_counter("gossip.fill_bytes", self.fill_bytes);
        out.add_counter("gossip.intra_zone_fill_bytes", self.intra_zone_fill_bytes);
        out.add_counter("gossip.cross_zone_fill_bytes", self.cross_zone_fill_bytes);
        out.add_counter("gossip.bootstrap_fill_bytes", self.bootstrap_fill_bytes);
        out.add_counter(
            "gossip.anti_entropy_fill_bytes",
            self.anti_entropy_fill_bytes,
        );
        out.add_counter(
            "gossip.anti_entropy_cross_zone_fill_bytes",
            self.anti_entropy_cross_zone_fill_bytes,
        );
        out.add_counter("gossip.segment_advert_bytes", self.segment_advert_bytes);
        out.add_counter("gossip.shards_pushed", self.shards_pushed);
        out.add_counter("gossip.shards_accepted", self.shards_accepted);
        out.add_counter("gossip.stale_rejected", self.stale_rejected);
        out.add_counter("gossip.duplicates_skipped", self.duplicates_skipped);
        out.add_counter("gossip.admission_refused", self.admission_refused);
        out.add_counter("gossip.membership_bytes", self.membership_bytes);
        out.add_counter("gossip.joins", self.joins);
        out.add_counter("gossip.leaves", self.leaves);
        out.add_counter("gossip.crashes", self.crashes);
        out.add_counter("gossip.evictions", self.evictions);
        out.add_counter("gossip.revivals", self.revivals);
        out.add_counter("gossip.batch_adverts", self.batch_adverts);
        out.add_counter("gossip.filter_builds", self.filter_builds);
        out.add_counter("gossip.filter_reuses", self.filter_reuses);
        out.add_counter("gossip.settled_sides", self.settled_sides);
    }
}

impl fmt::Display for GossipStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "gossip: {} rounds (+{} anti-entropy), {} exchanges ({} failed)",
            self.rounds, self.anti_entropy_rounds, self.exchanges, self.failed_exchanges
        )?;
        writeln!(
            f,
            "  fills: {} pushed, {} accepted, {} stale-rejected, {} duplicates, {} refused, {} batches dropped",
            self.shards_pushed,
            self.shards_accepted,
            self.stale_rejected,
            self.duplicates_skipped,
            self.admission_refused,
            self.failed_fills
        )?;
        writeln!(
            f,
            "  bytes: {} digest + {} fill ({} intra-zone / {} cross-zone) + {} membership = {} total",
            self.digest_bytes,
            self.fill_bytes,
            self.intra_zone_fill_bytes,
            self.cross_zone_fill_bytes,
            self.membership_bytes,
            self.total_bytes()
        )?;
        writeln!(
            f,
            "  fill classes: {} bootstrap + {} anti-entropy ({} cross-zone) of the fill bytes; {} segment-advert bytes",
            self.bootstrap_fill_bytes,
            self.anti_entropy_fill_bytes,
            self.anti_entropy_cross_zone_fill_bytes,
            self.segment_advert_bytes
        )?;
        writeln!(
            f,
            "  membership: {} joins, {} leaves, {} crashes, {} evictions, {} revivals",
            self.joins, self.leaves, self.crashes, self.evictions, self.revivals
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_rates() {
        let s = GossipStats {
            digest_bytes: 100,
            fill_bytes: 300,
            membership_bytes: 50,
            shards_pushed: 4,
            shards_accepted: 3,
            joins: 2,
            ..GossipStats::default()
        };
        assert_eq!(s.total_bytes(), 450);
        let text = s.to_string();
        assert!(text.contains("3 accepted"));
        assert!(text.contains("2 joins"));
    }
}

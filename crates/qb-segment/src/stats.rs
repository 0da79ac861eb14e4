//! Counters for the segment lifecycle (publish, fetch, compaction,
//! import), exported into the unified metrics namespace as `segment.*`.

use qb_trace::{MetricsSnapshot, MetricsSource};
use std::fmt;

use crate::segment::ImportReport;

/// Cumulative segment-subsystem counters. Byte counts here are the
/// *reported* costs of segment operations; the authoritative charge is
/// `NetStats` on the simulated network, which E16 cross-checks so segment
/// traffic is never free.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Artifacts published into the storage DAG + DHT pointer.
    pub segments_published: u64,
    /// Network bytes charged while publishing artifacts.
    pub publish_bytes: u64,
    /// Artifacts fetched (pointer resolve + block transfer + decode).
    pub segments_fetched: u64,
    /// Network bytes charged while fetching artifacts.
    pub fetch_bytes: u64,
    /// RPC attempts issued by fetches.
    pub fetch_messages: u64,
    /// Writer compactions (pending segments merged and published).
    pub compactions: u64,
    /// Terms folded through compaction merges (input side).
    pub compaction_input_terms: u64,
    /// Shards admitted by segment imports.
    pub shards_imported: u64,
    /// Shards a version guard rejected as stale during import.
    pub import_stale: u64,
    /// Shards already held at the same or newer version during import.
    pub import_duplicates: u64,
    /// Shards the admission policy refused during import.
    pub import_refused: u64,
}

impl SegmentStats {
    /// Fold one import's admission outcomes into the counters.
    pub fn record_import(&mut self, report: &ImportReport) {
        self.shards_imported += report.accepted;
        self.import_stale += report.stale;
        self.import_duplicates += report.duplicates;
        self.import_refused += report.refused;
    }
}

impl MetricsSource for SegmentStats {
    fn metrics_into(&self, out: &mut MetricsSnapshot) {
        out.add_counter("segment.segments_published", self.segments_published);
        out.add_counter("segment.publish_bytes", self.publish_bytes);
        out.add_counter("segment.segments_fetched", self.segments_fetched);
        out.add_counter("segment.fetch_bytes", self.fetch_bytes);
        out.add_counter("segment.fetch_messages", self.fetch_messages);
        out.add_counter("segment.compactions", self.compactions);
        out.add_counter(
            "segment.compaction_input_terms",
            self.compaction_input_terms,
        );
        out.add_counter("segment.shards_imported", self.shards_imported);
        out.add_counter("segment.import_stale", self.import_stale);
        out.add_counter("segment.import_duplicates", self.import_duplicates);
        out.add_counter("segment.import_refused", self.import_refused);
    }
}

impl fmt::Display for SegmentStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "published={} ({} B) fetched={} ({} B, {} msgs) compactions={} \
             imported={} stale={} dup={} refused={}",
            self.segments_published,
            self.publish_bytes,
            self.segments_fetched,
            self.fetch_bytes,
            self.fetch_messages,
            self.compactions,
            self.shards_imported,
            self.import_stale,
            self.import_duplicates,
            self.import_refused,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn import_report_folds_into_counters_and_metrics() {
        let mut s = SegmentStats::default();
        s.record_import(&ImportReport {
            accepted: 3,
            stale: 1,
            duplicates: 2,
            refused: 0,
        });
        s.segments_fetched = 1;
        assert_eq!(s.shards_imported, 3);
        assert_eq!(s.import_stale, 1);
        let snap = MetricsSnapshot::collect(&[&s]);
        assert_eq!(snap.counter("segment.shards_imported"), 3);
        assert_eq!(snap.counter("segment.segments_fetched"), 1);
        assert!(!s.to_string().is_empty());
    }
}

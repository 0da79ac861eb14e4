//! Unified metrics registry.
//!
//! Every serving-path crate exports its own stats struct (`NetStats`,
//! `CacheReport`, `GossipStats`, `QueryEngineStats`, `LoadReport`). A
//! [`MetricsSnapshot`] flattens any number of them into one namespace of
//! named counters and [`LatencyHistogram`]s, so experiments can diff two
//! instants (`after.diff_since(&before)`), compare runs for bit-equality,
//! and export everything as one deterministic JSON document. Each stats
//! struct opts in by implementing [`MetricsSource`] in its own crate
//! (avoiding dependency cycles — `qb-trace` only depends on `qb-common`).

use std::collections::BTreeMap;

use qb_common::hist::LatencyHistogram;

/// Anything that can pour its numbers into a [`MetricsSnapshot`] under its
/// own name prefix (`net.*`, `cache.*`, `gossip.*`, `query.*`, `load.*`).
pub trait MetricsSource {
    /// Add this source's counters and histograms to `out`.
    fn metrics_into(&self, out: &mut MetricsSnapshot);
}

/// A flat, diffable snapshot of named counters and latency histograms.
/// `BTreeMap`s keep iteration and serialization order deterministic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    counters: BTreeMap<String, u64>,
    histograms: BTreeMap<String, LatencyHistogram>,
}

impl MetricsSnapshot {
    /// An empty snapshot.
    pub fn new() -> MetricsSnapshot {
        MetricsSnapshot::default()
    }

    /// Build a snapshot from several sources at once.
    pub fn collect(sources: &[&dyn MetricsSource]) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        for s in sources {
            s.metrics_into(&mut out);
        }
        out
    }

    /// Add `v` to the named counter (created at zero).
    pub fn add_counter(&mut self, name: &str, v: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += v;
    }

    /// Merge a histogram into the named slot.
    pub fn merge_histogram(&mut self, name: &str, h: &LatencyHistogram) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .merge(h);
    }

    /// Value of a counter (zero when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, name-ordered.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// True when the snapshot holds nothing.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// What happened between `earlier` and `self`: counters subtract
    /// (saturating), histograms subtract bucket-wise. Names missing from
    /// `earlier` count from zero/empty.
    pub fn diff_since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let mut out = MetricsSnapshot::new();
        for (name, &v) in &self.counters {
            out.counters
                .insert(name.clone(), v.saturating_sub(earlier.counter(name)));
        }
        for (name, h) in &self.histograms {
            let d = match earlier.histograms.get(name) {
                Some(e) => h.diff_since(e),
                None => h.clone(),
            };
            out.histograms.insert(name.clone(), d);
        }
        out
    }

    /// Deterministic JSON rendering: counters verbatim, histograms as
    /// `{count, mean_us, p50_us, p99_us, p999_us, max_us}` summaries.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{:?}:{}", name, v));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{:?}:{{\"count\":{},\"mean_us\":{},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"max_us\":{}}}",
                name,
                h.count(),
                h.mean().as_micros(),
                h.p50().as_micros(),
                h.p99().as_micros(),
                h.p999().as_micros(),
                h.max().as_micros()
            ));
        }
        out.push_str("}}");
        out
    }
}

impl std::fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (name, v) in &self.counters {
            writeln!(f, "{name} = {v}")?;
        }
        for (name, h) in &self.histograms {
            writeln!(f, "{name}: {h}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qb_common::SimDuration;

    struct Fake;
    impl MetricsSource for Fake {
        fn metrics_into(&self, out: &mut MetricsSnapshot) {
            out.add_counter("fake.ops", 3);
            let mut h = LatencyHistogram::new();
            h.record(SimDuration::from_millis(2));
            out.merge_histogram("fake.latency", &h);
        }
    }

    #[test]
    fn collect_and_lookup() {
        let snap = MetricsSnapshot::collect(&[&Fake, &Fake]);
        assert_eq!(snap.counter("fake.ops"), 6);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.histograms.get("fake.latency").unwrap().count(), 2);
        assert!(!snap.histograms.contains_key("missing"));
    }

    #[test]
    fn diff_subtracts_counters_and_histograms() {
        let before = MetricsSnapshot::collect(&[&Fake]);
        let after = MetricsSnapshot::collect(&[&Fake, &Fake]);
        let d = after.diff_since(&before);
        assert_eq!(d.counter("fake.ops"), 3);
        assert_eq!(d.histograms.get("fake.latency").unwrap().count(), 1);
        // Diffing against an empty snapshot is the identity.
        let id = after.diff_since(&MetricsSnapshot::new());
        assert_eq!(id, after);
    }

    #[test]
    fn equal_sources_produce_equal_snapshots() {
        let a = MetricsSnapshot::collect(&[&Fake]);
        let b = MetricsSnapshot::collect(&[&Fake]);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn json_is_ordered_and_parseable_by_eye() {
        let mut snap = MetricsSnapshot::new();
        snap.add_counter("b.second", 2);
        snap.add_counter("a.first", 1);
        let json = snap.to_json();
        let a = json.find("a.first").unwrap();
        let b = json.find("b.second").unwrap();
        assert!(a < b, "{json}");
        assert!(json.starts_with("{\"counters\":{"), "{json}");
        assert!(json.ends_with("}}"), "{json}");
    }
}

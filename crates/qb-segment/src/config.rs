//! Writer-side segment accumulation and compaction policy.

/// When enabled, the writer path accumulates every shard it writes into a
/// pending [`crate::Segment`] and compacts (merge + publish) once the
/// pending artifact crosses either threshold — replacing per-term
/// read-modify-write with one bulk artifact that joiners can bootstrap
/// from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentConfig {
    /// Master switch; disabled keeps the writer on the legacy per-term
    /// path only.
    pub enabled: bool,
    /// Compact once the pending segment holds this many distinct terms.
    pub max_pending_terms: usize,
    /// Compact once the pending segment's canonical encoding reaches this
    /// many bytes.
    pub max_pending_bytes: usize,
}

impl Default for SegmentConfig {
    fn default() -> SegmentConfig {
        SegmentConfig {
            enabled: false,
            max_pending_terms: 128,
            max_pending_bytes: 256 * 1024,
        }
    }
}

impl SegmentConfig {
    /// Defaults with the subsystem switched on.
    pub fn enabled() -> SegmentConfig {
        SegmentConfig {
            enabled: true,
            ..SegmentConfig::default()
        }
    }

    /// Reject configurations that could never compact.
    pub fn validate(&self) -> Result<(), String> {
        if self.enabled && self.max_pending_terms == 0 {
            return Err("segment.max_pending_terms must be > 0 when enabled".into());
        }
        if self.enabled && self.max_pending_bytes == 0 {
            return Err("segment.max_pending_bytes must be > 0 when enabled".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid_and_disabled() {
        let c = SegmentConfig::default();
        assert!(!c.enabled);
        assert!(c.validate().is_ok());
        assert!(SegmentConfig::enabled().enabled);
    }

    #[test]
    fn zero_thresholds_rejected_when_enabled() {
        let mut c = SegmentConfig::enabled();
        c.max_pending_terms = 0;
        assert!(c.validate().is_err());
        let mut c = SegmentConfig::enabled();
        c.max_pending_bytes = 0;
        assert!(c.validate().is_err());
        // Disabled configs are never rejected.
        let c = SegmentConfig {
            max_pending_terms: 0,
            ..Default::default()
        };
        assert!(c.validate().is_ok());
    }
}

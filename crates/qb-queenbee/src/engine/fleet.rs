//! The fleet seam: frontends joining, leaving and rejoining, gossip rounds,
//! and hot-set persistence across restarts.

use super::chain::chain_gossip_round;
use super::QueenBee;
use qb_common::{QbError, QbResult};
use qb_gossip::{GossipFleet, GossipStats};
use qb_segment::Segment;

impl QueenBee {
    /// The frontend fleet, when the cache is on (a fleet of one unless
    /// `config.gossip.num_frontends` asks for more).
    pub fn fleet(&self) -> Option<&GossipFleet> {
        self.fleet.as_ref()
    }

    /// Number of frontend slots (at least 1 with the cache on, 0 with it
    /// off).
    pub fn num_frontends(&self) -> usize {
        self.fleet.as_ref().map(|f| f.len()).unwrap_or(0)
    }

    /// Cumulative gossip counters, when the cache is on.
    pub fn gossip_stats(&self) -> Option<GossipStats> {
        self.fleet.as_ref().map(|f| *f.stats())
    }

    /// The fleet, or the "`op` needs a frontend" error of a cache-off
    /// engine. Takes the field, not `self`, so callers keep `self.net` free
    /// for the fleet call.
    fn fleet_mut<'a>(
        fleet: &'a mut Option<GossipFleet>,
        op: &str,
    ) -> QbResult<&'a mut GossipFleet> {
        fleet
            .as_mut()
            .ok_or_else(|| QbError::Config(format!("{op} needs a frontend (config.cache.enabled)")))
    }

    /// [`Self::fleet_mut`], plus the check that slot `frontend` exists.
    fn fleet_slot<'a>(
        fleet: &'a mut Option<GossipFleet>,
        op: &str,
        frontend: usize,
    ) -> QbResult<&'a mut GossipFleet> {
        let fleet = Self::fleet_mut(fleet, op)?;
        if frontend >= fleet.len() {
            return Err(QbError::Config(format!(
                "frontend {frontend} out of range (fleet has {})",
                fleet.len()
            )));
        }
        Ok(fleet)
    }

    /// Claim the next free user-device peer for a joining frontend. The
    /// fleet is checked before the cursor moves: an engine without a fleet
    /// claims nothing.
    fn claim_join_peer(&mut self, op: &str) -> QbResult<u64> {
        let peer = self.join_peer_cursor;
        if peer as usize >= self.config.num_peers - self.config.num_bees {
            return Err(QbError::Config(
                "no free peer left to host a new frontend".into(),
            ));
        }
        Self::fleet_mut(&mut self.fleet, op)?;
        self.join_peer_cursor += 1;
        Ok(peer)
    }

    /// A new frontend joins the running fleet on the next free user-device
    /// peer (initial frontends occupy the lowest peer ids and worker bees
    /// the highest; the ordinary devices in between can host late
    /// joiners). The joiner bootstraps its cache by one anti-entropy
    /// exchange with a live neighbour — warming from the fleet instead of
    /// the DHT — and the rest of the fleet learns about it through gossiped
    /// heartbeats. Returns the new frontend's index.
    pub fn fleet_join(&mut self) -> QbResult<usize> {
        let now = self.net.now();
        let peer = self.claim_join_peer("fleet_join")?;
        let fleet = Self::fleet_mut(&mut self.fleet, "fleet_join")?;
        fleet.join(&mut self.net, peer, now)
    }

    /// Like [`QueenBee::fleet_join`], but the joiner first tries to
    /// bulk-bootstrap its cache from the fleet's newest published segment
    /// artifact (probing live neighbours for their advertised pointer,
    /// fetching the artifact through storage + DHT, importing it through
    /// the version guard, then one delta catch-up exchange), falling back
    /// to the ordinary gossip bootstrap when no artifact is advertised or
    /// the fetch fails. Returns the frontend index and a report of what
    /// the bootstrap actually did.
    pub fn fleet_join_with_segment(
        &mut self,
    ) -> QbResult<(usize, qb_gossip::SegmentBootstrapReport)> {
        let now = self.net.now();
        let peer = self.claim_join_peer("fleet_join_with_segment")?;
        let fleet = Self::fleet_mut(&mut self.fleet, "fleet_join_with_segment")?;
        let (idx, report) =
            fleet.join_with_segment(&mut self.net, &mut self.dht, &mut self.storage, peer, now)?;
        if report.used_segment {
            self.segment_stats.segments_fetched += 1;
            self.segment_stats.fetch_bytes += report.fetch_bytes;
            self.segment_stats.fetch_messages += report.fetch_messages;
        }
        self.segment_stats.record_import(&report.imported);
        Ok((idx, report))
    }

    /// Frontend `frontend` leaves the fleet: gracefully (departure notices
    /// let partners drop it immediately) or by crash (the fleet detects the
    /// silence via heartbeats and evicts it). Its slot index stays valid
    /// but routing to it fails until [`QueenBee::fleet_rejoin`].
    pub fn fleet_leave(&mut self, frontend: usize, graceful: bool) -> QbResult<()> {
        let fleet = Self::fleet_slot(&mut self.fleet, "fleet_leave", frontend)?;
        if graceful {
            fleet.leave(&mut self.net, frontend);
        } else {
            fleet.crash(&mut self.net, frontend);
        }
        Ok(())
    }

    /// A departed frontend restarts on its old peer with a fresh cache,
    /// warming itself from a live neighbour by anti-entropy (not the DHT);
    /// its bumped heartbeat supersedes every stale view of it.
    pub fn fleet_rejoin(&mut self, frontend: usize) -> QbResult<()> {
        let now = self.net.now();
        let fleet = Self::fleet_slot(&mut self.fleet, "fleet_rejoin", frontend)?;
        if fleet.is_active(frontend) {
            return Err(QbError::Config(format!(
                "frontend {frontend} is still active; only departed frontends rejoin"
            )));
        }
        fleet.rejoin(&mut self.net, frontend, now);
        Ok(())
    }

    /// Force one gossip round right now (experiments and tests; normal
    /// operation paces rounds by `qb_gossip::config::ROUND_INTERVAL` as simulated
    /// time advances). `anti_entropy` swaps full digests instead of hot
    /// sets.
    pub fn run_gossip_round(&mut self, anti_entropy: bool) {
        let now = self.net.now();
        if let Some(fleet) = self.fleet.as_mut() {
            fleet.run_round(&mut self.net, now, anti_entropy);
            let stats = fleet.stats();
            chain_gossip_round(&mut self.op_chain, &self.net, now, anti_entropy, stats);
        }
    }

    /// Run gossip rounds that are due at the current simulated time.
    pub(super) fn run_due_gossip(&mut self) {
        let now = self.net.now();
        if let Some(fleet) = self.fleet.as_mut() {
            let chain = &mut self.op_chain;
            fleet.maybe_run(&mut self.net, now, |net, anti_entropy, stats| {
                chain_gossip_round(chain, net, now, anti_entropy, stats);
            });
        }
    }

    /// Snapshot the hottest cached shards of frontend `frontend`, for
    /// warm-start persistence across engine restarts. The snapshot is an
    /// encoded [`Segment`].
    pub fn export_hot_set(&self, frontend: usize, max: usize) -> Option<Vec<u8>> {
        let fleet = self.fleet.as_ref().filter(|fleet| frontend < fleet.len())?;
        let cache = fleet.frontend(frontend).cache();
        Some(Segment::export(cache, max, self.net.now()).encode())
    }

    /// Pre-fill frontend `frontend`'s shard tier from a previous session's
    /// snapshot, through the same version guard as any other segment
    /// import: a shard older than the version the frontend already knows
    /// of is not installed, and read-time version checks still purge
    /// anything that went stale while the frontend was down. Returns the
    /// number of shards admitted.
    pub fn import_hot_set(&mut self, frontend: usize, data: &[u8]) -> QbResult<usize> {
        let now = self.net.now();
        let segment = Segment::decode(data)?;
        let report = Self::fleet_slot(&mut self.fleet, "import_hot_set", frontend)?
            .frontend_mut(frontend)
            .import_segment(&segment, now);
        Ok(report.accepted as usize)
    }
}

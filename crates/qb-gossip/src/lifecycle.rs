//! Fleet churn: frontends joining (from a neighbour or from a segment
//! artifact), leaving, crashing and restarting.

use crate::exchange::ExchangeClass;
use crate::fleet::GossipFleet;
use crate::frontend::Frontend;
use qb_common::SimInstant;
use qb_dht::DhtNetwork;
use qb_segment::{fetch_segment, ImportReport, SegmentRef};
use qb_simnet::SimNet;
use qb_storage::StorageNetwork;

/// Bytes of a graceful departure notice.
const DEPARTURE_NOTICE_BYTES: usize = 16;

/// Request bytes of a join-time "what is your newest segment?" probe.
const SEGMENT_PROBE_BYTES: usize = 16;

/// Response bytes of a segment probe that found no artifact.
const SEGMENT_PROBE_EMPTY_REPLY_BYTES: usize = 8;

impl GossipFleet {
    /// A new frontend joins the fleet on `peer` (which must already exist in
    /// the simulated network and not host another frontend). Its zone is
    /// `peer % config.zones`, matching the network's assignment. The joiner
    /// bootstraps by one full anti-entropy exchange with a live neighbour
    /// (same zone preferred) — the operator hands the new process a seed
    /// address, everything else flows through gossip — warming its cache
    /// from the fleet instead of the DHT. Returns the new frontend index;
    /// a peer that already hosts a frontend (departed slots included —
    /// those restart via [`GossipFleet::rejoin`]) is rejected.
    pub fn join(
        &mut self,
        net: &mut SimNet,
        peer: u64,
        now: SimInstant,
    ) -> qb_common::QbResult<usize> {
        let idx = self.admit_slot(peer, now)?;
        self.bootstrap(net, idx, now);
        Ok(idx)
    }

    /// Open a new frontend slot on `peer`: reject a peer that already
    /// hosts one, derive the zone, seed the newcomer's view with itself and
    /// count the join. Returns the slot index.
    fn admit_slot(&mut self, peer: u64, now: SimInstant) -> qb_common::QbResult<usize> {
        if self.index_by_peer.contains_key(&peer) {
            return Err(qb_common::QbError::Config(format!(
                "peer {peer} already hosts a frontend"
            )));
        }
        let zone = (peer as usize) % self.config.zones.max(1);
        let idx = self.frontends.len();
        let mut f = Frontend::new(peer, zone, self.cache_config.clone());
        f.view.admit(peer, zone, 0, 0, now);
        self.frontends.push(f);
        self.index_by_peer.insert(peer, idx);
        self.stats.joins += 1;
        Ok(idx)
    }

    /// Frontend `i` leaves gracefully: it notifies up to `FANOUT` partners
    /// (which tombstone it immediately; everyone else evicts it via the
    /// liveness timeout) and goes offline. The notice carries the leaver's
    /// final heartbeat, so no third-party summary — all of which saw at
    /// most that heartbeat — can resurrect the departed member in a
    /// notified view; only an actual rejoin (which bumps the heartbeat)
    /// revives it.
    pub fn leave(&mut self, net: &mut SimNet, i: usize) {
        if self.frontends[i].departed {
            return;
        }
        let peer = self.frontends[i].peer;
        let final_incarnation = self.frontends[i].incarnation;
        let final_heartbeat = self.frontends[i].heartbeat;
        let mut sample = std::mem::take(&mut self.partner_sample);
        self.sample_partners(i, false, &mut sample);
        for &p in &sample.picked {
            if net.send(peer, p, DEPARTURE_NOTICE_BYTES).is_ok() {
                self.stats.membership_bytes += DEPARTURE_NOTICE_BYTES as u64;
                if let Some(&j) = self.index_by_peer.get(&p) {
                    self.frontends[j]
                        .view
                        .mark_departed(peer, final_incarnation, final_heartbeat);
                }
            }
        }
        self.partner_sample = sample;
        self.frontends[i].departed = true;
        net.set_online(peer, false);
        self.stats.leaves += 1;
    }

    /// Frontend `i` crashes: no notice is sent; the rest of the fleet
    /// detects the silence through heartbeats and failed exchanges and
    /// evicts it from their sample sets.
    pub fn crash(&mut self, net: &mut SimNet, i: usize) {
        if self.frontends[i].departed {
            return;
        }
        net.set_online(self.frontends[i].peer, false);
        self.frontends[i].departed = true;
        self.stats.crashes += 1;
    }

    /// A departed frontend restarts on its old peer: fresh cache, fresh
    /// version vector, bumped **incarnation** with the heartbeat starting
    /// over from zero (a real restarted process remembers no counter; the
    /// incarnation epoch is what makes its gossip supersede every stale
    /// view of it, SWIM-style), and a bootstrap anti-entropy exchange with
    /// a live neighbour to warm up from the fleet instead of the DHT.
    pub fn rejoin(&mut self, net: &mut SimNet, i: usize, now: SimInstant) {
        if !self.frontends[i].departed {
            return;
        }
        // A restarted process is a new `Frontend` in the old slot: nothing
        // survives the crash but where it runs and its bumped epoch.
        let old = &self.frontends[i];
        let mut f = Frontend::new(old.peer, old.zone, self.cache_config.clone());
        f.incarnation = old.incarnation + 1;
        f.view.admit(f.peer, f.zone, f.incarnation, 0, now);
        net.set_online(f.peer, true);
        self.frontends[i] = f;
        self.stats.joins += 1;
        self.bootstrap(net, i, now);
    }

    /// One full anti-entropy exchange between a (re)joining frontend and a
    /// live neighbour (same zone preferred), with the elevated bootstrap
    /// fill budget. A failed exchange (races with churn, partitions) falls
    /// back to the next candidate neighbour; a fleet with no reachable
    /// neighbour joins cold.
    fn bootstrap(&mut self, net: &mut SimNet, idx: usize, now: SimInstant) {
        for j in self.bootstrap_candidates(net, idx) {
            if self.exchange(net, idx, j, now, ExchangeClass::Bootstrap) {
                return;
            }
        }
    }

    /// The live candidate neighbours of frontend `idx`, same zone first,
    /// both groups shuffled — the order (re)joins and segment probes walk.
    fn bootstrap_candidates(&mut self, net: &SimNet, idx: usize) -> Vec<usize> {
        let zone = self.frontends[idx].zone;
        let mut same: Vec<usize> = Vec::new();
        let mut cross: Vec<usize> = Vec::new();
        for (j, f) in self.frontends.iter().enumerate() {
            if j == idx || f.departed || !net.is_online(f.peer) {
                continue;
            }
            if f.zone == zone {
                same.push(j);
            } else {
                cross.push(j);
            }
        }
        self.rng.shuffle(&mut same);
        self.rng.shuffle(&mut cross);
        same.into_iter().chain(cross).collect()
    }

    /// Like [`GossipFleet::join`], but the joiner first tries to bootstrap
    /// from the fleet's newest published segment artifact: it probes live
    /// neighbours (same zone preferred) for their segment pointer (each
    /// probe a charged RPC), fetches the artifact through the
    /// content-addressed storage/DHT path (all bytes charged to
    /// `NetStats`), imports it through the cache's version guard — a stale
    /// artifact can never clobber fresher knowledge — and finishes with
    /// **one** full exchange with the advertising neighbour, at the
    /// elevated [`GossipConfig::bootstrap_fill_budget`] every join uses, to
    /// delta-catch-up on everything published after the artifact (a flat
    /// budget here would move E16: a modelling change, not made). When no
    /// neighbour advertises an artifact or the fetch fails, the join falls
    /// back to the classic gossip-only bootstrap.
    ///
    /// [`GossipConfig::bootstrap_fill_budget`]: crate::GossipConfig::bootstrap_fill_budget
    pub fn join_with_segment(
        &mut self,
        net: &mut SimNet,
        dht: &mut DhtNetwork,
        storage: &mut StorageNetwork,
        peer: u64,
        now: SimInstant,
    ) -> qb_common::QbResult<(usize, SegmentBootstrapReport)> {
        let idx = self.admit_slot(peer, now)?;

        let mut report = SegmentBootstrapReport::default();
        let mut seed: Option<(usize, SegmentRef)> = None;
        for j in self.bootstrap_candidates(net, idx) {
            let cand_peer = self.frontends[j].peer;
            let advert = self.frontends[j].segment_advert;
            let reply_bytes =
                advert.map_or(SEGMENT_PROBE_EMPTY_REPLY_BYTES, |s| s.wire_bytes() as usize);
            if net
                .rpc(peer, cand_peer, SEGMENT_PROBE_BYTES, reply_bytes)
                .is_err()
            {
                continue;
            }
            self.stats.segment_advert_bytes += (SEGMENT_PROBE_BYTES + reply_bytes) as u64;
            if let Some(sref) = advert {
                seed = Some((j, sref));
                break;
            }
        }
        if let Some((j, sref)) = seed {
            if let Ok((segment, fref, io)) = fetch_segment(net, dht, storage, peer, sref.generation)
            {
                report.used_segment = true;
                report.generation = fref.generation;
                report.fetch_bytes = io.bytes;
                report.fetch_messages = io.messages;
                let fr = &mut self.frontends[idx];
                report.imported = fr.import_segment(&segment, now);
                fr.segment_advert = Some(fref);
                // Delta catch-up: one full exchange at the same elevated
                // budget a gossip-only join gets. The artifact carried the
                // bulk, so usually only what was published after it still
                // moves as fills.
                self.exchange(net, idx, j, now, ExchangeClass::Bootstrap);
                return Ok((idx, report));
            }
            // Pointer resolved but the artifact was unreachable — fall
            // through to the gossip-only warm-up.
        }
        self.bootstrap(net, idx, now);
        Ok((idx, report))
    }
}

/// What a segment-assisted join actually did, for experiment attribution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentBootstrapReport {
    /// True when the joiner warmed from a fetched artifact (false = fell
    /// back to the gossip-only bootstrap).
    pub used_segment: bool,
    /// Generation of the imported artifact (0 when none).
    pub generation: u64,
    /// Network bytes the artifact fetch reported (pointer + blocks).
    pub fetch_bytes: u64,
    /// RPC attempts the artifact fetch reported.
    pub fetch_messages: u64,
    /// Version-guard outcomes of the import.
    pub imported: ImportReport,
}

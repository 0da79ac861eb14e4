//! The publish seam: publishing pages, the worker bees' indexing of publish
//! events into the distributed index, and writer-side segment compaction.

use super::QueenBee;
use crate::attacks::ScraperAttack;
use crate::config::{DUPLICATE_THRESHOLD, SLASH_AMOUNT};
use crate::defense::{verify_index_submissions, MinHashSignature, VerificationOutcome};
use crate::query::terms::TermId;
use qb_cache::ShardLookup;
use qb_chain::{AccountId, Call, Event};
use qb_common::{QbResult, SimInstant};
use qb_dweb::{fetch_page_by_cid, publish_page, WebPage};
use qb_index::ShardEntry;
use qb_segment::{publish_segment, SegmentRef, SegmentStats};
use qb_storage::{FetchStats, ObjectRef};
use std::sync::Arc;

/// Outcome of a publish attempt.
#[derive(Debug, Clone)]
pub struct PublishReport {
    /// The page name.
    pub name: String,
    /// Whether the publish was accepted (false when rejected as a duplicate).
    pub accepted: bool,
    /// Why the publish was rejected, when it was.
    pub reject_reason: Option<String>,
    /// Content reference when accepted.
    pub object: Option<ObjectRef>,
    /// Storage/replication cost of the accepted publish.
    pub stats: FetchStats,
}

impl QueenBee {
    /// Publish a page from `peer` on behalf of `creator`. When duplicate
    /// detection is enabled and the body is a near-duplicate of a page owned
    /// by a *different* creator, the publish is rejected (the scraper-site
    /// defense) and nothing is stored or rewarded; the reason names the
    /// most similar such page, the smallest name among equals.
    pub fn publish(
        &mut self,
        peer: u64,
        creator: AccountId,
        page: &WebPage,
    ) -> QbResult<PublishReport> {
        let sig = MinHashSignature::of_text(&page.body);
        if self.config.duplicate_detection {
            // The signatures sit in a hash map, whose order is arbitrary:
            // a mirror of several pages names the most similar one, the
            // smallest name among equals.
            let nearest = self
                .signatures
                .iter()
                .filter(|(other, (owner, _))| *owner != creator.0 && **other != page.name)
                .map(|(other, (owner, other_sig))| (sig.similarity(other_sig), other, owner))
                .filter(|(similarity, ..)| *similarity >= DUPLICATE_THRESHOLD)
                .max_by(|a, b| a.0.total_cmp(&b.0).then_with(|| b.1.cmp(a.1)));
            if let Some((_, other_name, other_creator)) = nearest {
                return Ok(PublishReport {
                    name: page.name.clone(),
                    accepted: false,
                    reject_reason: Some(format!(
                        "near-duplicate of '{other_name}' owned by account {other_creator}"
                    )),
                    object: None,
                    stats: FetchStats::default(),
                });
            }
        }
        let outcome = publish_page(
            &mut self.net,
            &mut self.dht,
            &mut self.storage,
            &mut self.chain,
            peer,
            creator,
            page,
        )?;
        // A republish replaces its page's entry in place, keeping the key.
        match self.signatures.get_mut(&page.name) {
            Some(entry) => *entry = (creator.0, sig),
            None => {
                self.signatures.insert(page.name.clone(), (creator.0, sig));
            }
        }
        self.known_creators.insert(creator);
        Ok(PublishReport {
            name: page.name.clone(),
            accepted: true,
            reject_reason: None,
            object: Some(outcome.object),
            stats: outcome.stats,
        })
    }

    /// Run a scraper attack: mirror the `num_mirrors` highest-ranked pages
    /// under scraper-owned names. Returns per-mirror publish reports (some of
    /// which will be rejected when duplicate detection is on).
    pub fn run_scraper_attack(
        &mut self,
        attack: &ScraperAttack,
        victim_pages: &[WebPage],
    ) -> QbResult<Vec<PublishReport>> {
        let mut rng = qb_common::DetRng::new(self.config.seed ^ 0x5C0A);
        let peer = 0u64;
        let mut reports = Vec::new();
        for (i, victim) in victim_pages.iter().take(attack.num_mirrors).enumerate() {
            let mirror = attack.mirror_page(victim, i, &mut rng);
            let report = self.publish(peer, AccountId(attack.scraper_account), &mirror)?;
            reports.push(report);
        }
        self.seal();
        Ok(reports)
    }

    /// Process every publish event that appeared on the chain since the last
    /// call: a quorum of bees independently indexes each new page version,
    /// submissions are verified by majority vote, accepted postings are
    /// merged into the distributed index, honest bees claim their bounties
    /// and deviating bees are slashed. Returns the number of events handled.
    ///
    /// The indexing path reuses the query cache's shard tier under the same
    /// version discipline as the frontend: a term's shard is read through
    /// the cache (sparing the per-merge DHT round-trip the seed paid), and
    /// after the merged shard is written back it is stored under its new
    /// version while the term's negative entry is purged (a cached result
    /// that used the term is refused by its next lookup's version check).
    pub fn process_publish_events(&mut self) -> QbResult<usize> {
        let now = self.net.now();
        // The log only grows and nothing in the batch seals a block, so
        // this batch is entries `first..end`, each read in place: only
        // what indexing needs is copied out.
        let (first, end) = (self.event_cursor, self.chain.events().len());
        self.event_cursor = end;
        let mut handled = 0usize;
        let validator = qb_chain::VALIDATORS[0];

        for at in first..end {
            let (creator, name, cid, version) = match &self.chain.events()[at].1 {
                // One allocation of the name: every posting of the page
                // shares it.
                Event::PagePublished {
                    creator,
                    name,
                    cid,
                    version,
                } => (*creator, Arc::<str>::from(name.as_str()), *cid, *version),
                _ => continue,
            };
            handled += 1;
            let quorum = self.config.index_quorum.min(self.bees.len()).max(1);
            let assigned = assign_quorum(handled + self.event_cursor, quorum, self.bees.len());

            // The first assigned bee fetches the page content once; in the
            // real system each bee would fetch it, which only multiplies the
            // (already accounted) fetch cost.
            let fetch_peer = self.bees[assigned[0]].peer;
            let page = match fetch_page_by_cid(
                &mut self.net,
                &mut self.dht,
                &mut self.storage,
                fetch_peer,
                cid,
            ) {
                Ok((page, _stats)) => page,
                Err(e) if e.is_availability() => {
                    self.chain_publish_event(&name, version, None);
                    continue;
                }
                Err(e) => return Err(e),
            };
            // The page is analysed once, into the engine's reused count
            // list: every assigned bee indexes from these counts, and
            // ghost-posting removal reads its terms.
            let mut counts = std::mem::take(&mut self.page_counts);
            let text = page.text();
            self.terms
                .count_analyzed(&self.analyzer, &text, &mut counts);

            // Each assigned bee produces its index deltas.
            let submissions: Vec<Vec<(TermId, qb_index::ShardPosting)>> = assigned
                .iter()
                .map(|&b| self.bees[b].index_page(&counts, &name, version, creator.0))
                .collect();
            let VerificationOutcome {
                mut accepted,
                flagged,
            } = verify_index_submissions(&submissions);

            // Slash flagged bees and record the flag.
            for &local_idx in &flagged {
                let bee_idx = assigned[local_idx];
                self.bees[bee_idx].times_flagged += 1;
                let offender = self.bees[bee_idx].account;
                self.chain.submit_call(
                    validator,
                    Call::SlashStake {
                        offender,
                        amount: SLASH_AMOUNT,
                    },
                );
            }

            // Merge accepted postings into the distributed index, grouped by term.
            let writer = assigned
                .iter()
                .enumerate()
                .find(|(local, _)| !flagged.contains(local))
                .map(|(_, &b)| b)
                .unwrap_or(assigned[0]);
            let writer_peer = self.bees[writer].peer;
            // Merge in term text order, one shard write per term: shard
            // writes consume simulated network randomness, so iteration
            // order must be deterministic for runs to reproduce
            // bit-for-bit. A vote returns its keys sorted by term id, and
            // a lone submission comes back as submitted; the stable sort
            // by text groups each term's postings, keeping their order.
            let terms = &self.terms;
            accepted.sort_by(|(a, _), (b, _)| terms.text(*a).cmp(terms.text(*b)));
            let postings = accepted.len() as u64;
            let mut accepted = accepted.into_iter().peekable();
            while let Some((id, first)) = accepted.next() {
                let mut shard = self.read_shard_for_writer(writer_peer, id)?;
                shard.upsert(first);
                while let Some((_, posting)) = accepted.next_if(|&(t, _)| t == id) {
                    shard.upsert(posting);
                }
                self.write_shard(writer_peer, id, shard, now)?;
            }

            // Record the page's length and terms, and update the collection
            // statistics. Then remove the document from shards of terms the
            // new version no longer contains, so a republished page never
            // leaves ghost postings serving a stale version under its
            // dropped terms. Both term lists are in term text order, so
            // membership is a search by text. A page indexed before keeps
            // its record's list, refilled.
            let doc_len: u32 = counts.iter().map(|&(_, f)| f).sum();
            self.index_stats.total_len += u64::from(doc_len);
            let mut dropped = std::mem::take(&mut self.dropped_terms);
            dropped.clear();
            match self.indexed_pages.get_mut(&*name) {
                Some((old_len, old_terms)) => {
                    self.index_stats.total_len -= u64::from(*old_len);
                    *old_len = doc_len;
                    let text = |id| &**self.terms.text(id);
                    let kept = |id| counts.binary_search_by(|&(u, _)| text(u).cmp(text(id)));
                    let old_ids = old_terms.iter().map(|&(id, _)| id);
                    dropped.extend(old_ids.filter(|&id| kept(id).is_err()));
                    old_terms.clone_from(&counts);
                }
                None => {
                    self.index_stats.num_docs += 1;
                    self.indexed_pages
                        .insert(name.to_string(), (doc_len, counts.clone()));
                }
            }
            self.page_counts = counts;
            let doc_id = qb_index::doc_id_for_name(&name);
            for &term in &dropped {
                let mut shard = self.read_shard_for_writer(writer_peer, term)?;
                if !shard.remove(doc_id) {
                    continue;
                }
                // The shrunk shard rides the next segment artifact too: its
                // bumped version dominates the fatter copy on merge, so a
                // bootstrap from the artifact never resurrects the removed
                // posting.
                self.write_shard(writer_peer, term, shard, now)?;
            }

            // Reward claims for the assigned, non-flagged bees.
            for (local, &bee_idx) in assigned.iter().enumerate() {
                if flagged.contains(&local) {
                    continue;
                }
                self.bees[bee_idx].tasks_rewarded += 1;
                let account = self.bees[bee_idx].account;
                self.chain.submit_call(
                    account,
                    Call::ClaimIndexReward {
                        page_name: name.to_string(),
                        page_version: version,
                    },
                );
            }
            let indexed = [postings, flagged.len() as u64, dropped.len() as u64];
            self.dropped_terms = dropped;
            self.chain_publish_event(&name, version, Some(indexed));
        }

        if handled > 0 {
            // Publish the updated collection statistics once per batch.
            self.index_stats.version += 1;
            let stats = self.index_stats;
            let peer = self.bees[0].peer;
            self.dist_index
                .write_stats(&mut self.net, &mut self.dht, peer, &stats)?;
            self.maybe_compact_segments()?;
        }
        // The cursor stays at `end`: the closing seal may apply a publish
        // queued before this batch, and the next batch must read its event.
        self.chain.seal_block(self.net.now());
        Ok(handled)
    }

    /// Compact when the pending segment crossed a configured threshold
    /// (terms or encoded bytes). Called once per publish batch.
    fn maybe_compact_segments(&mut self) -> QbResult<()> {
        if !self.config.segment.enabled || self.pending_segment.is_empty() {
            return Ok(());
        }
        if self.pending_segment.len() >= self.config.segment.max_pending_terms
            || self.pending_segment.encoded_len() >= self.config.segment.max_pending_bytes
        {
            self.compact_segments()?;
        }
        Ok(())
    }

    /// Force a writer compaction now: fold the pending shards into the
    /// last published artifact (version-vector-dominant merge, so a
    /// republished term's newer shard wins wholesale), publish the merged
    /// segment into the content-addressed storage DAG under the next
    /// generation, and advertise the new pointer to every frontend that
    /// can currently observe the writer. Returns the new pointer, or
    /// `None` when segments are disabled or nothing is pending.
    pub fn compact_segments(&mut self) -> QbResult<Option<SegmentRef>> {
        if !self.config.segment.enabled || self.pending_segment.is_empty() {
            return Ok(None);
        }
        let pending = std::mem::take(&mut self.pending_segment);
        let input_terms = (pending.len() + self.published_segment.len()) as u64;
        self.published_segment.absorb(pending);
        let generation = self.published_segment_ref.map_or(0, |r| r.generation) + 1;
        let writer_peer = self.bees[0].peer;
        match publish_segment(
            &mut self.net,
            &mut self.dht,
            &mut self.storage,
            writer_peer,
            &self.published_segment,
            generation,
        ) {
            Ok((sref, io)) => {
                self.segment_stats.segments_published += 1;
                self.segment_stats.publish_bytes += io.bytes;
                self.segment_stats.compactions += 1;
                self.segment_stats.compaction_input_terms += input_terms;
                if let Some(fleet) = self.fleet.as_mut() {
                    fleet.note_segment_published(&self.net, writer_peer, sref);
                }
                self.published_segment_ref = Some(sref);
                Ok(Some(sref))
            }
            Err(e) => {
                // Nothing is lost on a failed publish: the merged content
                // goes back to pending (the merge is idempotent, so
                // re-folding already-published shards is harmless) and the
                // next compaction retries at the same generation.
                self.pending_segment = std::mem::take(&mut self.published_segment);
                Err(e)
            }
        }
    }

    /// Cumulative segment-subsystem counters (publishes, fetches,
    /// compactions, import admissions).
    pub fn segment_stats(&self) -> SegmentStats {
        self.segment_stats
    }

    /// Pointer to the newest segment artifact this engine published.
    pub fn latest_segment(&self) -> Option<SegmentRef> {
        self.published_segment_ref
    }

    /// Read a term's shard on the indexing path: the writer cache's shard
    /// tier first (validated against the engine's current version for the
    /// term), the DHT only on a genuine miss. The writer cache holds only
    /// shards this path wrote (version 1 and up, so never a negative) and
    /// is read without a staleness bound, so a lookup hits or misses. The
    /// writer is about to change the shard, so this is the one place a
    /// cached shard is copied; the copy shares every posting's name and has
    /// room for the one posting a page adds.
    fn read_shard_for_writer(&mut self, writer_peer: u64, id: TermId) -> QbResult<ShardEntry> {
        self.writer_shard_reads += 1;
        let now = self.net.now();
        let (term, current_version) = (self.terms.text(id), self.terms.version(id));
        let cache = self.writer_cache.as_mut();
        if let Some(ShardLookup::Hit(shard)) =
            cache.map(|c| c.lookup_shard(term, now, current_version))
        {
            self.writer_shard_cache_hits += 1;
            let mut postings = Vec::with_capacity(shard.postings.len() + 1);
            postings.extend_from_slice(&shard.postings);
            let (term, version) = (shard.term.clone(), shard.version);
            return Ok(ShardEntry {
                term,
                version,
                postings,
            });
        }
        let (shard, _cost) = self.dist_index.read_shard_fresh(
            &mut self.net,
            &mut self.dht,
            &mut self.storage,
            writer_peer,
            term,
            current_version,
        )?;
        Ok(shard)
    }

    /// Write a shard the indexing path just changed, under the next version
    /// of its term `id`, and do the post-write bookkeeping: publish-path
    /// invalidation (results/negatives touching the term die, the
    /// republish is recorded for the adaptive TTL policy), the written
    /// shard re-enters the writer cache under its new version, in fleet
    /// mode every frontend that can observe the publish invalidates too,
    /// and with segments on the shard joins the pending artifact. Once written the shard is immutable: the
    /// writer cache, the pending segment and every read that finds the
    /// record it was written as share one copy of it.
    fn write_shard(
        &mut self,
        writer_peer: u64,
        id: TermId,
        mut shard: ShardEntry,
        now: SimInstant,
    ) -> QbResult<()> {
        // The term's counter is bumped in place.
        let known = self.terms.version_mut(id);
        *known = (*known).max(shard.version) + 1;
        shard.version = *known;
        let (_, value, encoded_len) = self.dist_index.write_shard(
            &mut self.net,
            &mut self.dht,
            &mut self.storage,
            writer_peer,
            &shard,
        )?;
        // The copy that stays resident keeps at most the one posting of
        // slack its read left room for.
        if shard.postings.capacity() > shard.postings.len() + 1 {
            shard.postings.shrink_to_fit();
        }
        let shard = Arc::new(shard);
        // The first read of the record just put shares this handle.
        self.shard_views.register_written(value, &shard);
        if let Some(cache) = self.writer_cache.as_mut() {
            cache.store_written_shard(&shard, now);
        }
        // Publish-path invalidation on the serving side: a frontend
        // observes the publish only when it can currently reach the writer
        // (a partitioned frontend misses it and catches up through
        // read-time version checks and anti-entropy once the partition
        // heals).
        if let Some(fleet) = self.fleet.as_mut() {
            let key = self.terms.key(id);
            fleet.observe_publish(&self.net, writer_peer, key, shard.version, now);
        }
        if self.config.segment.enabled {
            self.pending_segment.insert_measured(shard, encoded_len);
        }
        Ok(())
    }
}

/// The bees assigned to a publish event: `quorum` of `bees`, spread
/// `bees / quorum` apart and rotated per event. For every j < quorum ≤
/// bees, j · ⌊bees / quorum⌋ < bees, so no two draws name the same bee.
pub(super) fn assign_quorum(rotation: usize, quorum: usize, bees: usize) -> Vec<usize> {
    let stride = bees / quorum;
    (0..quorum)
        .map(|j| (rotation + j * stride) % bees)
        .collect()
}

//! One measured run: repeated calibrated set-up, the sliced timed region,
//! oracle checks between slices, and the end-to-end metrics.

use crate::calib::{ops_per_calibrated_second, CalibratedTimer, Calibrator};
use crate::host;
use crate::oracle::{Fingerprint, Oracle, Tally};
use crate::spans::Spans;
use crate::stats;
use crate::workload::{Arrival, Inputs, Kind, Op, SERVE_LATENCY_LIMIT};
use qb_chain::AccountId;
use qb_common::{LatencyHistogram, SimDuration, SimInstant};
use qb_queenbee::{
    CacheMetrics, GossipStats, LoadReport, QueenBee, QueryEngineStats, RoutingPolicy,
    SearchResponse, StageCosts, TimedRequest,
};
use qb_simnet::NetStats;

/// Set-up repetitions per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// Set-up is calibrated at API-call boundaries at most about this far apart.
const SETUP_SEGMENT_NS: u64 = 100_000_000;

/// What the benchmark was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
}

/// What the engine reported for one executed [`Op`], checked after the
/// slice's clock has stopped.
pub enum Outcome {
    Read {
        result: Result<SearchResponse, String>,
        /// What the client waited: the engine's latency plus, for a remote
        /// client, the round trip to its frontend.
        latency: SimDuration,
        at: SimInstant,
    },
    Republish {
        error: Option<String>,
        latency: SimDuration,
        at: SimInstant,
    },
    OpenLoop {
        result: Result<LoadReport, String>,
        offered: u64,
        late_max: SimDuration,
    },
}

/// Wire size of a query a remote client sends its frontend.
const CLIENT_REQUEST_BYTES: usize = 96;

/// Wire size of the ranked hits a frontend returns to a remote client.
fn hits_bytes(response: &SearchResponse) -> usize {
    32 + response
        .hits
        .iter()
        .map(|h| 32 + h.name.len())
        .sum::<usize>()
}

/// The engine plus what the benchmark needs to drive it op by op.
pub struct Driver {
    pub qb: QueenBee,
    /// Start of the open-loop arrival timeline (set by the first chunk).
    open_t0: Option<SimInstant>,
    next_op_id: u64,
    /// Pages published into this engine so far, and the network messages
    /// their `publish` + `process_publish_events` calls sent.
    pub pages_published: u64,
    pub publish_messages: u64,
}

impl Driver {
    /// Execute one op through the engine's public API, recording a span
    /// around every call into a layer.
    pub fn run(&mut self, op: Op, spans: &mut Spans) -> Outcome {
        self.next_op_id += 1;
        let id = self.next_op_id;
        let qb = &mut self.qb;
        match op {
            Op::Read { request, client } => {
                let at = qb.net.now();
                let frontend = match (&request.routing, client) {
                    (RoutingPolicy::Direct(f), Some(_)) => {
                        qb.fleet().map(|fl| fl.frontend_peer(*f))
                    }
                    _ => None,
                };
                let served = spans.time("search_request", id, || qb.search_request(request));
                let result = served.map_err(|e| e.to_string()).and_then(|response| {
                    // A remote client pays the round trip to its frontend:
                    // the query out, the ranked hits back.
                    let hop = match (client, frontend) {
                        (Some(c), Some(f)) => qb
                            .net
                            .rpc(c, f, CLIENT_REQUEST_BYTES, hits_bytes(&response))
                            .map_err(|e| format!("client {c} -> frontend {f}: {e:?}"))?,
                        _ => SimDuration::ZERO,
                    };
                    Ok((response, hop))
                });
                let latency = result
                    .as_ref()
                    .map_or(SimDuration::ZERO, |(response, hop)| response.latency + *hop);
                // One closed-loop client: the next op starts when this
                // response arrives.
                qb.advance_time(latency);
                Outcome::Read {
                    result: result.map(|(response, _)| response),
                    latency,
                    at,
                }
            }
            Op::Republish {
                page,
                creator,
                peer,
                compact,
            } => {
                let at = qb.net.now();
                let messages_before = qb.net.stats().messages;
                let published = spans.time("publish", id, || {
                    qb.publish(peer, AccountId(creator), &page)
                });
                let (mut error, latency) = match published {
                    Ok(report) if report.accepted => (None, report.stats.latency),
                    Ok(report) => (report.reject_reason, SimDuration::ZERO),
                    Err(e) => (Some(e.to_string()), SimDuration::ZERO),
                };
                qb.seal();
                let indexed =
                    spans.time("process_publish_events", id, || qb.process_publish_events());
                match indexed {
                    Ok(1) => {}
                    Ok(n) => error = error.or(Some(format!("indexed {n} events, expected 1"))),
                    Err(e) => error = error.or(Some(e.to_string())),
                }
                self.pages_published += 1;
                self.publish_messages += qb.net.stats().messages - messages_before;
                if compact {
                    if let Err(e) = spans.time("compact_segments", id, || qb.compact_segments()) {
                        error = error.or(Some(e.to_string()));
                    }
                }
                qb.advance_time(latency);
                Outcome::Republish { error, latency, at }
            }
            Op::OpenLoop(chunk) => {
                let now = qb.net.now();
                let t0 = *self.open_t0.get_or_insert(now);
                let offered = chunk.len() as u64;
                let mut late_max = SimDuration::ZERO;
                let arrivals: Vec<TimedRequest> = chunk
                    .into_iter()
                    .map(|Arrival { due, request }| {
                        let due = t0 + due;
                        late_max = late_max.max(now.since(due));
                        TimedRequest::new(due.since(now), request)
                    })
                    .collect();
                let result = spans.time("serve_open_loop", id, || qb.serve_open_loop(arrivals));
                if let Ok(report) = &result {
                    // The chunk's last batch is still being served until
                    // its last completion: the next chunk must not overlap it.
                    qb.advance_time_to(now + report.makespan);
                }
                Outcome::OpenLoop {
                    result: result.map_err(|e| e.to_string()),
                    offered,
                    late_max,
                }
            }
        }
    }
}

/// Build the scenario once: engine construction, corpus publish in small
/// batches, one rank round, cache warm-up. Every public-API call boundary
/// is offered to `timer` as a calibration point. Returns the driver and the
/// warm-up outcomes (for the oracle), or the first set-up error.
pub fn build(
    inputs: &Inputs,
    timer: &mut CalibratedTimer<'_>,
    spans: &mut Spans,
) -> Result<(Driver, Vec<Outcome>), String> {
    let id = 0;
    let qb = spans
        .time("engine_new", id, || QueenBee::new(inputs.config.clone()))
        .map_err(|e| e.to_string())?;
    timer.boundary();
    let mut driver = Driver {
        qb,
        open_t0: None,
        next_op_id: 0,
        pages_published: inputs.corpus.pages.len() as u64,
        publish_messages: 0,
    };
    let qb = &mut driver.qb;
    let publishers = (inputs.config.num_peers - inputs.config.num_bees) as u64;
    let pages = inputs.corpus.pages.iter().zip(&inputs.corpus.creators);
    for (i, (page, creator)) in pages.enumerate() {
        let report = spans
            .time("publish", id, || {
                qb.publish(i as u64 % publishers, AccountId(*creator), page)
            })
            .map_err(|e| e.to_string())?;
        if !report.accepted {
            return Err(format!(
                "set-up publish of {} rejected: {:?}",
                page.name, report.reject_reason
            ));
        }
        timer.boundary();
        if (i + 1) % inputs.publish_batch == 0 || i + 1 == inputs.corpus.pages.len() {
            qb.seal();
            spans
                .time("process_publish_events", id, || qb.process_publish_events())
                .map_err(|e| e.to_string())?;
            timer.boundary();
        }
    }
    driver.publish_messages = qb.net.stats().messages;
    spans
        .time("run_rank_round", id, || qb.run_rank_round())
        .map_err(|e| e.to_string())?;
    timer.boundary();
    let mut warm = Vec::with_capacity(inputs.warmup.len());
    for op in inputs.warmup.iter().cloned() {
        warm.push(driver.run(op, spans));
        timer.boundary();
    }
    Ok((driver, warm))
}

/// Engine counters read from outside, snapshotted around the timed region.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub net: NetStats,
    pub cache: CacheMetrics,
    pub gossip: GossipStats,
    pub query: QueryEngineStats,
    /// `(shard reads, cache hits)` of the indexing path.
    pub writer: (u64, u64),
    /// `(hits, misses)` of every peer's storage block cache, summed.
    pub storage_cache: (u64, u64),
}

impl Counters {
    pub fn read(qb: &QueenBee) -> Counters {
        let mut storage_cache = (0, 0);
        for peer in 0..qb.storage.len() as u64 {
            let (h, m) = qb.storage.cache_stats(peer);
            storage_cache = (storage_cache.0 + h, storage_cache.1 + m);
        }
        Counters {
            net: qb.net.stats().clone(),
            cache: qb.cache_metrics().unwrap_or_default(),
            gossip: qb.gossip_stats().unwrap_or_default(),
            query: qb.query_stats(),
            writer: qb.writer_cache_stats(),
            storage_cache,
        }
    }
}

/// Everything the timed region produced besides the engine state itself.
#[derive(Default)]
pub struct Measured {
    pub ops: u64,
    pub republishes: u64,
    pub calibrated_slice_ns: Vec<f64>,
    pub raw_slice_ns: Vec<u64>,
    /// Benchmark-span clock at the start and end of the timed region.
    pub span_window: (u64, u64),
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub tally: Tally,
    pub fingerprint: Fingerprint,
    /// Closed-loop per-op latencies (µs); empty on serve-warm.
    pub latencies_us: Vec<u64>,
    /// Open-loop sojourn and queue-wait histograms, merged over chunks.
    pub sojourn: LatencyHistogram,
    pub queue_wait: LatencyHistogram,
    pub sim_makespan: SimDuration,
    pub before: Counters,
    pub after: Counters,
    // Sums over closed-loop read responses.
    pub stage: StageCosts,
    pub reads: u64,
    pub shard_fetches: u64,
    pub stats_reads: u64,
    pub hits_returned: u64,
    // Sums over open-loop reports.
    pub load_admitted: u64,
    pub load_offered: u64,
    pub peak_queue_depth: usize,
    pub admitted_per_frontend: Vec<u64>,
    pub gen_late_max: SimDuration,
    /// What a cache-served statistics record costs on the simulated clock.
    pub cache_hit_latency: SimDuration,
    /// First few failure descriptions, for the report.
    pub failures: Vec<String>,
}

impl Measured {
    fn note_failure(&mut self, what: String) {
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Check one op's outcome against the oracle and fold it into the
    /// tally, the latency samples, the fingerprint and the layer sums.
    /// `op` is the op as generated (the engine consumed a clone).
    pub fn verify(&mut self, op: &Op, outcome: Outcome, oracle: &mut Oracle) {
        match (op, outcome) {
            (
                Op::Read { request, .. },
                Outcome::Read {
                    result,
                    latency,
                    at,
                },
            ) => {
                self.tally.attempted += 1;
                self.reads += 1;
                match result {
                    Err(e) => {
                        self.tally.errored += 1;
                        self.note_failure(format!("read '{}': {e}", request.query));
                    }
                    Ok(response) => {
                        self.fingerprint.hits(&response.hits);
                        self.latencies_us.push(latency.as_micros());
                        self.fingerprint.word(latency.as_micros());
                        if !oracle.check(request, &response, at) {
                            self.tally.wrong += 1;
                            self.note_failure(format!(
                                "read '{}' returned {:?}, oracle says {:?}",
                                request.query,
                                response.hits.iter().map(|h| &h.name).collect::<Vec<_>>(),
                                oracle
                                    .reference(&request.query, response.top_k)
                                    .iter()
                                    .map(|h| h.name.clone())
                                    .collect::<Vec<_>>()
                            ));
                        }
                        let costs = &response.trace;
                        self.stage.stats += costs.stats;
                        self.stage.shard_fetch += costs.shard_fetch;
                        self.stage.net_queue += costs.net_queue;
                        self.stage.score += costs.score;
                        self.stage.candidates_scored += costs.candidates_scored;
                        self.stage.messages += costs.messages;
                        self.hits_returned += response.hits.len() as u64;
                        self.shard_fetches += response.shards_fetched() as u64;
                        // A cached statistics record costs the cache hit
                        // latency; anything above that was a DHT read.
                        self.stats_reads += (costs.stats > self.cache_hit_latency) as u64;
                    }
                }
            }
            (Op::Republish { page, creator, .. }, Outcome::Republish { error, latency, at }) => {
                self.tally.attempted += 1;
                self.republishes += 1;
                self.latencies_us.push(latency.as_micros());
                self.fingerprint.word(latency.as_micros());
                match error {
                    Some(e) => {
                        self.tally.errored += 1;
                        self.note_failure(format!("republish {}: {e}", page.name));
                    }
                    None => oracle.publish(page, *creator, at),
                }
            }
            (
                Op::OpenLoop(_),
                Outcome::OpenLoop {
                    result,
                    offered,
                    late_max,
                },
            ) => {
                self.tally.attempted += offered;
                self.load_offered += offered;
                self.gen_late_max = self.gen_late_max.max(late_max);
                match result {
                    Err(e) => {
                        self.tally.errored += offered;
                        self.note_failure(format!("serve_open_loop: {e}"));
                    }
                    Ok(report) => self.fold_load_report(&report, offered),
                }
            }
            _ => unreachable!("an op and its outcome are produced together"),
        }
    }

    fn fold_load_report(&mut self, report: &LoadReport, offered: u64) {
        // Accounting identities: every arrival is admitted or shed, every
        // admitted query completes and leaves one sojourn sample.
        let consistent = report.offered == offered
            && report.admitted + report.shed == report.offered
            && report.completed == report.admitted
            && report.sojourn.count() == report.completed;
        if !consistent {
            self.tally.errored += offered - report.shed.min(offered);
            self.note_failure(format!(
                "open-loop accounting broke: offered {} admitted {} shed {} completed {} sojourns {}",
                report.offered,
                report.admitted,
                report.shed,
                report.completed,
                report.sojourn.count()
            ));
        } else {
            self.tally.shed += report.shed;
            self.tally.late += samples_above(&report.sojourn, SERVE_LATENCY_LIMIT);
            self.tally.degraded += report.degraded;
        }
        self.sojourn.merge(&report.sojourn);
        self.queue_wait.merge(&report.queue_wait);
        self.load_admitted += report.admitted;
        self.peak_queue_depth = self.peak_queue_depth.max(report.peak_queue_depth);
        if self.admitted_per_frontend.len() < report.admitted_per_frontend.len() {
            self.admitted_per_frontend
                .resize(report.admitted_per_frontend.len(), 0);
        }
        for (sum, n) in self
            .admitted_per_frontend
            .iter_mut()
            .zip(&report.admitted_per_frontend)
        {
            *sum += n;
        }
        let fp = &mut self.fingerprint;
        for w in [
            report.offered,
            report.admitted,
            report.degraded,
            report.shed,
            report.completed,
            report.windows,
            report.dispatches,
            report.peak_queue_depth as u64,
            report.pipeline_queue_delay.as_micros(),
            report.makespan.as_micros(),
            report.sojourn.mean().as_micros(),
            report.sojourn.p50().as_micros(),
            report.sojourn.p99().as_micros(),
            report.sojourn.max().as_micros(),
            report.queue_wait.mean().as_micros(),
            report.queue_wait.max().as_micros(),
        ] {
            fp.word(w);
        }
        for n in &report.admitted_per_frontend {
            fp.word(*n);
        }
    }
}

/// The value at 1-based rank `k` of `n` samples (bucket resolution).
fn value_at_rank(h: &LatencyHistogram, k: u64, n: u64) -> SimDuration {
    h.value_at_quantile(k as f64 / n as f64)
}

/// The largest rank in `0..=n` whose value satisfies `below` (which must
/// hold for a prefix of the ranks); rank 0 stands for "none".
fn last_rank_where(h: &LatencyHistogram, n: u64, below: impl Fn(SimDuration) -> bool) -> u64 {
    let (mut lo, mut hi) = (0u64, n);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if below(value_at_rank(h, mid, n)) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// How many samples of `h` exceed `limit` (to the histogram's ~3 %
/// bucket resolution).
pub fn samples_above(h: &LatencyHistogram, limit: SimDuration) -> u64 {
    if h.is_empty() || h.max() <= limit {
        return 0;
    }
    let n = h.count();
    n - last_rank_where(h, n, |v| v <= limit)
}

/// Quantile `q` of `h` in microseconds, interpolated linearly inside the
/// bucket it falls in. `LatencyHistogram` reports bucket upper bounds, ~3 %
/// apart: read raw, a percentile either repeats to the digit across seeds
/// or jumps a whole bucket. The bucket's rank range is found by bisection
/// through the public `value_at_quantile`; its lower edge is taken as the
/// previous occupied bucket's bound.
pub fn interpolated_quantile_us(h: &LatencyHistogram, q: f64) -> f64 {
    let n = h.count();
    if n == 0 {
        return 0.0;
    }
    let upper = h.value_at_quantile(q);
    let below = last_rank_where(h, n, |v| v < upper);
    let through = last_rank_where(h, n, |v| v <= upper);
    let lower = if below == 0 {
        SimDuration::ZERO
    } else {
        value_at_rank(h, below, n)
    };
    let rank = (q.clamp(0.0, 1.0) * n as f64).clamp(below as f64, through as f64);
    let within = (rank - below as f64) / (through - below).max(1) as f64;
    lower.as_micros() as f64 + (upper.as_micros() - lower.as_micros()) as f64 * within
}

/// Fold every field of the final `NetStats` into the fingerprint.
fn fingerprint_net(fp: &mut Fingerprint, s: &NetStats) {
    for w in [
        s.messages,
        s.bytes,
        s.rpcs,
        s.failed_rpcs,
        s.dropped_messages,
        s.peer_up_events,
        s.peer_down_events,
        s.async_ops,
        s.async_queued_ops,
        s.async_queue_delay_us,
        s.hedges_fired,
        s.hedges_won,
        s.hedges_wasted_bytes,
    ] {
        fp.word(w);
    }
}

/// Result of the set-up phase of a run.
pub struct SetUp {
    pub driver: Driver,
    pub oracle: Oracle,
    /// Calibrated seconds of each repetition.
    pub calibrated_s: Vec<f64>,
    pub raw_s: Vec<f64>,
    /// Whether the warm-up outcomes of the kept repetition were all correct.
    pub warmup_tally: Tally,
    pub warmup_failures: Vec<String>,
}

/// Run `reps` set-up repetitions of `inputs.builds_per_rep` scenario builds
/// each on fresh engines (keeping the last engine), then build the oracle
/// for the kept engine and check its warm-up responses. A repetition's
/// time is its calibrated total divided by its builds.
pub fn set_up(
    inputs: &Inputs,
    reps: usize,
    calibrator: &mut Calibrator,
    spans: &mut Spans,
) -> Result<SetUp, String> {
    let mut calibrated_s = Vec::with_capacity(reps);
    let mut raw_s = Vec::with_capacity(reps);
    let mut kept = None;
    let builds = inputs.builds_per_rep.max(1);
    for _ in 0..reps {
        let mut timer = CalibratedTimer::start(calibrator, SETUP_SEGMENT_NS);
        for _ in 0..builds {
            // Drop the previous engine first so peak RSS is one engine,
            // not two.
            drop(kept.take());
            kept = Some(build(inputs, &mut timer, spans)?);
        }
        let (cal_ns, raw_ns) = timer.finish();
        calibrated_s.push(cal_ns / 1e9 / builds as f64);
        raw_s.push(raw_ns as f64 / 1e9 / builds as f64);
    }
    let (driver, warm) = kept.ok_or("set-up needs at least one repetition")?;

    let mut oracle = Oracle::new(
        inputs.config.rank_weight,
        inputs.config.top_k,
        inputs.config.cache.result_ttl,
    );
    for (page, creator) in inputs.corpus.pages.iter().zip(&inputs.corpus.creators) {
        oracle.publish(page, *creator, SimInstant::ZERO);
    }
    // Track only now: the initial load is not a republish anyone could
    // have read a stale answer across.
    for request in inputs.distinct_requests() {
        oracle.track(&request);
    }
    oracle.load_ranks(&driver.qb, inputs.corpus.pages.iter());

    let mut warm_measured = Measured::default();
    for (op, outcome) in inputs.warmup.iter().zip(warm) {
        warm_measured.verify(op, outcome, &mut oracle);
    }
    Ok(SetUp {
        driver,
        oracle,
        calibrated_s,
        raw_s,
        warmup_tally: warm_measured.tally,
        warmup_failures: warm_measured.failures,
    })
}

/// Run one slice (already cloned from the inputs) under a calibrated
/// timer, with allocation counting on when `count_allocs`. Returns the
/// outcomes and `(calibrated_ns, raw_ns, allocs, bytes)`.
pub fn run_slice(
    driver: &mut Driver,
    ops: Vec<Op>,
    calibrator: &mut Calibrator,
    spans: &mut Spans,
    count_allocs: bool,
) -> (Vec<Outcome>, f64, u64, u64, u64) {
    let mut outcomes = Vec::with_capacity(ops.len());
    let timer = CalibratedTimer::start(calibrator, u64::MAX);
    let (a0, b0) = host::set_alloc_counting(count_allocs);
    for op in ops {
        outcomes.push(driver.run(op, spans));
    }
    let (a1, b1) = host::set_alloc_counting(false);
    let (cal_ns, raw_ns) = timer.finish();
    (outcomes, cal_ns, raw_ns, a1 - a0, b1 - b0)
}

/// The timed region: every slice timed, calibrated and then (clock
/// stopped) checked against the oracle.
pub fn timed_region(
    inputs: &Inputs,
    driver: &mut Driver,
    oracle: &mut Oracle,
    calibrator: &mut Calibrator,
    spans: &mut Spans,
    trace: bool,
) -> Measured {
    let mut m = Measured {
        before: Counters::read(&driver.qb),
        cache_hit_latency: inputs.config.cache.hit_latency,
        ..Measured::default()
    };
    let sim_start = driver.qb.net.now();
    m.span_window.0 = spans.clock_ns();
    for i in 0..inputs.timed {
        let slice = inputs.slice(i);
        let (outcomes, cal_ns, raw_ns, allocs, bytes) =
            run_slice(driver, slice.clone(), calibrator, spans, !trace);
        m.calibrated_slice_ns.push(cal_ns);
        m.raw_slice_ns.push(raw_ns);
        m.allocs += allocs;
        m.alloc_bytes += bytes;
        m.ops += slice.iter().map(Op::ops).sum::<u64>();
        for (op, outcome) in slice.iter().zip(outcomes) {
            m.verify(op, outcome, oracle);
        }
    }
    m.span_window.1 = spans.clock_ns();
    m.sim_makespan = driver.qb.net.now().since(sim_start);
    m.after = Counters::read(&driver.qb);
    fingerprint_net(&mut m.fingerprint, &m.after.net);
    m
}

/// serve-warm only: `serve_open_loop` returns a `LoadReport`, not the
/// responses, so after the timed region every pool query is read back at
/// every frontend, `CacheOk` (what the result and shard tiers the open
/// loop filled are serving) and `Fresh`, and checked against the oracle.
/// Returns `(checked, wrong)`.
pub fn audit_open_loop(
    inputs: &Inputs,
    driver: &mut Driver,
    oracle: &mut Oracle,
    measured: &mut Measured,
    spans: &mut Spans,
) -> (u64, u64) {
    use qb_queenbee::{Freshness, RoutingPolicy, SearchRequest};
    use std::collections::BTreeSet;
    let pool: BTreeSet<(String, usize)> = inputs
        .distinct_requests()
        .into_iter()
        .map(|r| (r.query, r.top_k.unwrap_or(inputs.config.top_k)))
        .collect();
    let (mut checked, mut wrong) = (0, 0);
    for (query, top_k) in pool {
        for frontend in 0..driver.qb.num_frontends() {
            for freshness in [Freshness::CacheOk, Freshness::Fresh] {
                let request = SearchRequest::new(query.as_str())
                    .top_k(top_k)
                    .freshness(freshness)
                    .route(RoutingPolicy::Direct(frontend));
                let at = driver.qb.net.now();
                let result = spans.time("audit", 0, || driver.qb.search_request(request.clone()));
                checked += 1;
                match result {
                    Ok(response) if oracle.check(&request, &response, at) => {
                        measured.fingerprint.hits(&response.hits);
                    }
                    Ok(_) => {
                        wrong += 1;
                        measured
                            .note_failure(format!("audit: '{query}' wrong at frontend {frontend}"));
                    }
                    Err(e) => {
                        wrong += 1;
                        measured
                            .note_failure(format!("audit: '{query}' at frontend {frontend}: {e}"));
                    }
                }
            }
        }
    }
    (checked, wrong)
}

/// The twelve end-to-end metrics, in catalogue order.
pub fn end_to_end(kind: Kind, setup_s: f64, m: &Measured) -> Vec<(&'static str, f64)> {
    let ops = m.ops.max(1) as f64;
    let ops_per_slice = kind.ops_per_slice() as f64;
    let (p50_ms, tail_ms, _, _) = latency_summary(m);
    let delta = m.after.net.delta_since(&m.before.net);
    vec![
        ("setup_s", setup_s),
        (
            "host_ops_per_s",
            ops_per_calibrated_second(ops_per_slice, &m.calibrated_slice_ns),
        ),
        ("host_peak_rss_mb", host::peak_rss_mb()),
        ("host_allocs_per_op", m.allocs as f64 / ops),
        ("host_alloc_kb_per_op", m.alloc_bytes as f64 / 1024.0 / ops),
        ("sim_p50_ms", p50_ms),
        ("sim_p99_ms", tail_ms),
        (
            "sim_ops_per_s",
            m.tally.served() as f64 / m.sim_makespan.as_secs_f64().max(1e-9),
        ),
        ("sim_msgs_per_op", delta.messages as f64 / ops),
        ("sim_kb_per_op", delta.bytes as f64 / 1024.0 / ops),
        ("served_frac", m.tally.served_frac()),
        ("undegraded_frac", m.tally.undegraded_frac()),
    ]
}

/// `(p50 ms, tail ms, tail percentile reported, sample count)` of the
/// simulated per-op latency: exact samples on the closed-loop workloads,
/// the merged sojourn histogram (from each arrival's due time,
/// interpolated inside its buckets) on the open-loop one.
pub fn latency_summary(m: &Measured) -> (f64, f64, f64, usize) {
    if m.latencies_us.is_empty() {
        let n = m.sojourn.count() as usize;
        let tail = stats::supported_tail(n, 0.99);
        (
            interpolated_quantile_us(&m.sojourn, 0.50) / 1e3,
            interpolated_quantile_us(&m.sojourn, tail) / 1e3,
            tail,
            n,
        )
    } else {
        let mut sorted = m.latencies_us.clone();
        sorted.sort_unstable();
        let tail = stats::supported_tail(sorted.len(), 0.99);
        (
            stats::percentile_sorted(&sorted, 0.50) as f64 / 1e3,
            stats::percentile_sorted(&sorted, tail) as f64 / 1e3,
            tail,
            sorted.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_above_counts_the_tail_to_bucket_resolution() {
        let mut h = LatencyHistogram::new();
        for us in 1..=1_000u64 {
            h.record_micros(us * 2_000); // 2 ms .. 2 s
        }
        assert_eq!(samples_above(&h, SimDuration::from_secs(3)), 0);
        let above = samples_above(&h, SimDuration::from_secs(1));
        assert!(
            (480..=520).contains(&above),
            "about half exceed 1 s, got {above}"
        );
        assert_eq!(
            samples_above(&LatencyHistogram::new(), SimDuration::ZERO),
            0
        );
    }

    #[test]
    fn interpolated_quantiles_track_the_samples_inside_a_bucket() {
        // 10 000 samples uniform on 100..200 ms: buckets are 2-4 ms wide
        // there, the interpolated quantiles land within a fraction of one.
        let mut h = LatencyHistogram::new();
        for i in 0..10_000u64 {
            h.record_micros(100_000 + i * 10);
        }
        for (q, want_us) in [(0.5, 150_000.0), (0.99, 199_000.0), (0.1, 110_000.0)] {
            let got = interpolated_quantile_us(&h, q);
            assert!((got - want_us).abs() < 600.0, "q {q}: {got} vs {want_us}");
        }
        // Raw bucket bounds are coarser than that.
        let raw = h.value_at_quantile(0.5).as_micros() as f64;
        assert!(
            (raw - 150_000.0).abs() > 600.0,
            "raw p50 {raw} is a bucket bound"
        );
        assert_eq!(interpolated_quantile_us(&LatencyHistogram::new(), 0.5), 0.0);
        // A single sample is its own every quantile.
        let mut one = LatencyHistogram::new();
        one.record_micros(777);
        assert!((interpolated_quantile_us(&one, 0.99) - 777.0).abs() < 30.0);
    }
}

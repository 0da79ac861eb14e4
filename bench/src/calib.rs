//! The host-clock estimator: a fixed reference kernel timed around every
//! measured interval, and the arithmetic that turns raw nanoseconds into
//! *calibrated* nanoseconds.
//!
//! This sandbox has two shared cores. Ten back-to-back runs of one binary
//! put *raw* median slice times 20–30 % apart (quartile spread; up to 58 %
//! end to end) while the same runs' throughput normalised by the reference
//! kernel stayed within 2–3 % (5–6 % end to end). So every host-clock number
//! the benchmark reports is
//! `raw_ns × REFERENCE_NS / mean(neighbouring calibration_ns)`: seconds on
//! a hypothetical host where the kernel takes exactly [`REFERENCE_NS`].

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// What one run of the reference kernel is defined to cost. The kernel is
/// sized so that, run between slices of engine work (caches cold), it takes
/// about this long on the sandbox the benchmark was written on; the
/// constant, not that coincidence, is what results are normalised to.
pub const REFERENCE_NS: f64 = 5_000_000.0;

/// The chase buffer: 8 MiB of u64, larger than the 2 MiB/core L2.
const BIG_WORDS: usize = 1 << 20;
const TEXT_WORDS: usize = 3_000;
const VOCABULARY: u64 = 700;
const LIST_LEN: u64 = 6_000;
const CHASE_STEPS: usize = 2_000;
const ROUNDS: u64 = 8;

#[inline]
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The reference kernel and its working set. The kernel is a miniature of
/// what the engine does all day, written against `std` only so that no
/// change to the repository can move the ruler: tokenise a text into owned
/// strings and count them in a `HashMap` (allocation, SipHash, memcpy),
/// build `BTreeMap` posting lists, sort, merge-intersect two sorted lists
/// (branchy), varint-encode and decode, clone and drop a `Vec<String>` —
/// eight rounds over a working set that fits in L2 — and then a short
/// dependent pointer chase through a buffer larger than L2 (memory
/// latency). Both choices were measured, not guessed:
///
/// * a kernel of long dependent arithmetic chains and a long cache-missing
///   chase slowed by 8 % when the shared host slowed the engine by 22 %
///   (latency-bound code barely notices what slows branchy,
///   allocation-heavy code), and left throughput 25 % apart between runs;
/// * an engine-like kernel over a *large* working set tracked the big
///   swings but drifted ±10 % on its own between processes (where its
///   pages land is luck the engine's pages do not share), 14 % apart;
/// * the engine-like kernel over a small working set leaves 2–6 %.
pub struct Calibrator {
    text: String,
    big: Vec<u64>,
    /// Every kernel time measured so far, in order.
    pub samples_ns: Vec<u64>,
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

impl Calibrator {
    /// Build the working set (deterministic contents).
    pub fn new() -> Calibrator {
        let mut text = String::new();
        let mut s = 0x243f_6a88_85a3_08d3u64;
        for _ in 0..TEXT_WORDS {
            s = mix64(s);
            // Squaring a uniform draw skews the words towards a head, as
            // natural text is.
            let u = (s % VOCABULARY) as f64 / VOCABULARY as f64;
            let word = (u * u * VOCABULARY as f64) as u64;
            text.push_str(&format!("w{word}x{} ", mix64(word) % 1_000));
        }
        // A single random cycle through the buffer, so the chase touches
        // a new cache line at every step.
        let mut order: Vec<u32> = (0..BIG_WORDS as u32).collect();
        for i in (1..order.len()).rev() {
            s = mix64(s);
            order.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let mut big = vec![0u64; BIG_WORDS];
        for w in order.windows(2) {
            big[w[0] as usize] = w[1] as u64;
        }
        big[order[BIG_WORDS - 1] as usize] = order[0] as u64;
        Calibrator {
            text,
            big,
            samples_ns: Vec::new(),
        }
    }

    /// Run the kernel once and return its wall time in nanoseconds. The
    /// work is identical on every call.
    pub fn run(&mut self) -> u64 {
        let t = Instant::now();
        let mut acc = 0u64;
        for round in 0..ROUNDS {
            // Tokenise into owned strings and count them.
            // (Fixed hasher keys: the same buckets, and so the same work, on
            // every call.)
            let mut counts: HashMap<String, u32, BuildHasherDefault<DefaultHasher>> =
                HashMap::default();
            for word in self.text.split_whitespace() {
                *counts.entry(word.to_string()).or_insert(0) += 1;
            }
            // Posting lists keyed by a term id, then the terms sorted.
            let mut postings: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
            let mut terms: Vec<String> = Vec::with_capacity(counts.len());
            for (i, (term, n)) in counts.iter().enumerate() {
                postings
                    .entry(mix64(term.len() as u64 ^ *n as u64) % 64)
                    .or_default()
                    .push(i as u64);
                terms.push(term.clone());
            }
            terms.sort_unstable();
            acc ^= terms.len() as u64 + postings.len() as u64;
            // Two sorted doc-id lists, merge-intersected.
            let mut a: Vec<u64> = (0..LIST_LEN)
                .map(|i| mix64(i ^ round) % (4 * LIST_LEN))
                .collect();
            let mut b: Vec<u64> = (0..LIST_LEN)
                .map(|i| mix64(i ^ 0xabcd) % (4 * LIST_LEN))
                .collect();
            a.sort_unstable();
            a.dedup();
            b.sort_unstable();
            b.dedup();
            let (mut i, mut j) = (0, 0);
            let mut both: Vec<u64> = Vec::new();
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        both.push(a[i]);
                        i += 1;
                        j += 1;
                    }
                }
            }
            acc ^= both.len() as u64;
            // Delta + varint encode one list, decode it back.
            let mut bytes: Vec<u8> = Vec::new();
            let mut prev = 0u64;
            for &doc in &a {
                let mut delta = doc - prev;
                prev = doc;
                while delta >= 0x80 {
                    bytes.push(delta as u8 | 0x80);
                    delta >>= 7;
                }
                bytes.push(delta as u8);
            }
            let (mut value, mut shift, mut sum) = (0u64, 0u32, 0u64);
            for &byte in &bytes {
                value |= ((byte & 0x7f) as u64) << shift;
                if byte & 0x80 == 0 {
                    sum = sum.wrapping_add(value);
                    value = 0;
                    shift = 0;
                } else {
                    shift += 7;
                }
            }
            acc ^= sum;
            // Clone and drop the term list (one allocation per string).
            for _ in 0..3 {
                acc ^= black_box(terms.clone()).len() as u64;
            }
        }
        // Memory latency: a dependent chase through the big buffer.
        let mut at = (acc % BIG_WORDS as u64) as usize;
        for _ in 0..CHASE_STEPS {
            at = self.big[at] as usize;
        }
        black_box(acc ^ at as u64);
        let ns = t.elapsed().as_nanos() as u64;
        self.samples_ns.push(ns);
        ns
    }
}

/// Calibrated nanoseconds of an interval that took `raw_ns`, given the
/// kernel times measured just before and just after it.
pub fn calibrated_ns(raw_ns: u64, calib_before_ns: u64, calib_after_ns: u64) -> f64 {
    let neighbours = (calib_before_ns as f64 + calib_after_ns as f64) / 2.0;
    raw_ns as f64 * REFERENCE_NS / neighbours.max(1.0)
}

/// Ops per calibrated second from per-slice calibrated times: slice ops
/// divided by the **median** calibrated slice time.
pub fn ops_per_calibrated_second(ops_per_slice: f64, calibrated_slice_ns: &[f64]) -> f64 {
    let median_ns = crate::stats::median(calibrated_slice_ns);
    if median_ns <= 0.0 {
        0.0
    } else {
        ops_per_slice * 1e9 / median_ns
    }
}

/// Times one interval — a slice, a probe, or a whole set-up repetition —
/// cut into segments at caller-marked boundaries, each segment calibrated
/// by the kernel runs on either side of it. Segments close only once they
/// are at least `min_segment_ns` long, so cheap API calls do not pay a
/// 5 ms kernel run each while long ones are never calibrated by a kernel
/// run more than one call away.
pub struct CalibratedTimer<'a> {
    calibrator: &'a mut Calibrator,
    min_segment_ns: u64,
    calib_before: u64,
    segment_start: Instant,
    /// Sum of calibrated segment times so far.
    pub calibrated_ns: f64,
    /// Sum of raw segment times so far.
    pub raw_ns: u64,
}

impl<'a> CalibratedTimer<'a> {
    /// Run the kernel and start the first segment.
    pub fn start(calibrator: &'a mut Calibrator, min_segment_ns: u64) -> CalibratedTimer<'a> {
        let calib_before = calibrator.run();
        CalibratedTimer {
            calibrator,
            min_segment_ns,
            calib_before,
            segment_start: Instant::now(),
            calibrated_ns: 0.0,
            raw_ns: 0,
        }
    }

    fn close_segment(&mut self) {
        let raw = self.segment_start.elapsed().as_nanos() as u64;
        let calib_after = self.calibrator.run();
        self.calibrated_ns += calibrated_ns(raw, self.calib_before, calib_after);
        self.raw_ns += raw;
        self.calib_before = calib_after;
        self.segment_start = Instant::now();
    }

    /// Mark a public-API call boundary: closes the running segment when it
    /// has grown past the minimum length.
    pub fn boundary(&mut self) {
        if self.segment_start.elapsed().as_nanos() as u64 >= self.min_segment_ns {
            self.close_segment();
        }
    }

    /// Close the last segment and return `(calibrated_ns, raw_ns)`.
    pub fn finish(mut self) -> (f64, u64) {
        self.close_segment();
        (self.calibrated_ns, self.raw_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_uniformly_slower_host_yields_the_same_throughput() {
        // Ten slices of 1000 ops; the "fast" host runs the kernel in 4 ms
        // and a slice in 100–109 ms, the "slow" host is 1.3x slower at both.
        let fast: Vec<(u64, u64, u64)> = (0..10)
            .map(|i| (100_000_000 + i * 1_000_000, 4_000_000, 4_000_000))
            .collect();
        let slow: Vec<(u64, u64, u64)> = fast
            .iter()
            .map(|&(s, a, b)| {
                (
                    (s as f64 * 1.3) as u64,
                    (a as f64 * 1.3) as u64,
                    (b as f64 * 1.3) as u64,
                )
            })
            .collect();
        let rate = |slices: &[(u64, u64, u64)]| {
            let cal: Vec<f64> = slices
                .iter()
                .map(|&(s, a, b)| calibrated_ns(s, a, b))
                .collect();
            ops_per_calibrated_second(1_000.0, &cal)
        };
        let (f, s) = (rate(&fast), rate(&slow));
        assert!((f - s).abs() / f < 1e-6, "fast {f} vs slow {s}");
        // A 4 ms kernel against the 5 ms reference scales time up by 1.25.
        assert!((calibrated_ns(100, 4_000_000, 4_000_000) - 125.0).abs() < 1e-9);
        // The neighbours are averaged.
        assert!((calibrated_ns(100, 4_000_000, 6_000_000) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn one_noisy_slice_does_not_move_the_median_estimate() {
        let mut cal = vec![100e6; 9];
        let clean = ops_per_calibrated_second(500.0, &cal);
        cal.push(900e6);
        cal.push(100e6);
        assert_eq!(ops_per_calibrated_second(500.0, &cal), clean);
        assert_eq!(ops_per_calibrated_second(500.0, &[]), 0.0);
    }

    #[test]
    fn kernel_does_fixed_work_and_the_timer_sums_segments() {
        let mut c = Calibrator::new();
        let a = c.run();
        let b = c.run();
        assert!(a > 0 && b > 0);
        assert_eq!(c.samples_ns.len(), 2);
        let mut timer = CalibratedTimer::start(&mut c, 0);
        std::hint::black_box((0..10_000u64).map(mix64).fold(0, u64::wrapping_add));
        timer.boundary(); // min length 0: always closes
        timer.boundary();
        let (cal_ns, raw_ns) = timer.finish();
        assert!(cal_ns > 0.0 && raw_ns > 0);
        // start + two boundaries + finish = four more kernel runs.
        assert_eq!(c.samples_ns.len(), 6);
    }
}

//! Host-side resource probes: a counting `#[global_allocator]` wrapper
//! (allocations and requested bytes, counted only while switched on — the
//! timed region, tracing off) and the process's peak resident set
//! (`VmHWM` from `/proc/self/status`).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forwards to the system allocator; while counting is on, every
/// `alloc`/`alloc_zeroed`/`realloc` adds one allocation and its requested
/// size. The benchmark is single-threaded and the counters publish no
/// other data, so `Relaxed` suffices.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note(size: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (that is, by
        // `System`) for `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator and `new_size`
        // is the caller's to validate, exactly as `System.realloc` requires.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// `(allocations, requested bytes)` counted so far.
fn alloc_counters() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

/// Switch allocation counting on or off; returns the counters at the
/// moment of the switch so callers can take deltas.
pub fn set_alloc_counting(on: bool) -> (u64, u64) {
    COUNTING.store(on, Ordering::Relaxed);
    alloc_counters()
}

/// Run `f` with counting on and return `(result, allocations, bytes)` it
/// made. Restores the previous counting state afterwards.
pub fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let was_on = COUNTING.load(Ordering::Relaxed);
    let (a0, b0) = set_alloc_counting(true);
    let out = f();
    let (a1, b1) = set_alloc_counting(was_on);
    (out, a1 - a0, b1 - b0)
}

/// Extract `VmHWM` (peak resident set, KiB) from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse().ok())
}

/// Peak resident set of this process in MiB (0.0 when `/proc` is not
/// readable, which the caller reports as a failed measurement).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kb(&s))
        .map_or(0.0, |kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_parsed_from_status_text() {
        let status =
            "Name:\tqb-perfbench\nVmPeak:\t  123456 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(20_480));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t1 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tgarbage kB\n"), None);
        assert!(
            peak_rss_mb() > 0.0,
            "/proc/self/status is readable on Linux"
        );
    }

    #[test]
    fn counting_allocator_sees_allocations_only_while_on() {
        // Other test threads may allocate concurrently, so the counts are
        // lower bounds, never exact.
        let (v, allocs, bytes) = count_allocs(|| {
            let mut v: Vec<u64> = Vec::with_capacity(1_000);
            v.push(7);
            std::hint::black_box(v)
        });
        assert_eq!(v[0], 7);
        assert!(allocs >= 1, "the Vec allocation was counted");
        assert!(
            bytes >= 8_000,
            "its requested size was counted, got {bytes}"
        );
    }
}

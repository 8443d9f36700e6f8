//! A reusable counting + tracking global allocator probe.
//!
//! One allocator serves every heap-discipline measurement in the
//! workspace: call counting (the `tests/alloc_discipline.rs` zero-alloc
//! round-loop contract), live/peak byte tracking (the
//! `tests/stream_stress.rs` bounded-soak contract), and the bench
//! harness's `allocs_per_round` / peak-heap metrics — previously three
//! near-identical private copies.
//!
//! A global allocator must be *installed* by the final binary; a library
//! cannot do it. Consumers write:
//!
//! ```ignore
//! #[global_allocator]
//! static GLOBAL: rrs_bench::AllocProbe = rrs_bench::AllocProbe;
//! ```
//!
//! and read the counters through [`alloc_calls`], [`live_bytes`] and
//! [`peak_bytes`]. Without an installed probe the counters stay frozen at
//! zero — [`probe_active`] detects that, so measurements can fail loudly
//! instead of reporting a fake clean zero.
//!
//! [`alloc_calls`] is **per thread**: a measured section reads only its
//! own thread's allocator calls, so a test harness or sweep allocating on
//! other threads at the same moment cannot leak into a per-round count.
//! The counter is a `const`-initialised thread-local `Cell`, which has no
//! destructor and never allocates. Live and peak bytes stay process-wide
//! (memory is shared); their updates are `Relaxed`.

// Audited exception to the workspace-wide `forbid(unsafe_code)` (see this
// crate's root): implementing `GlobalAlloc` is inherently unsafe. The impl
// delegates every operation verbatim to `std::alloc::System` and only adds
// relaxed atomic accounting on the side, so the safety argument is exactly
// `System`'s.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// The probe allocator. Install with `#[global_allocator]`; all state is
/// static, so the unit struct carries nothing.
pub struct AllocProbe;

thread_local! {
    static CALLS: Cell<u64> = const { Cell::new(0) };
}
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn count_call() {
    // `try_with`: a thread's allocations during its own teardown still
    // succeed, uncounted.
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

fn on_alloc(bytes: usize) {
    count_call();
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every operation delegates to `System` with unchanged arguments;
// the only additions are relaxed counter updates, which allocate nothing.
unsafe impl GlobalAlloc for AllocProbe {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        on_alloc(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_call();
        if new_size >= layout.size() {
            let grow = (new_size - layout.size()) as u64;
            let live = LIVE.fetch_add(grow, Ordering::Relaxed) + grow;
            PEAK.fetch_max(live, Ordering::Relaxed);
        } else {
            LIVE.fetch_sub((layout.size() - new_size) as u64, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Allocator calls (alloc + alloc_zeroed + realloc) made by the calling
/// thread since it started. Other threads' calls are not included.
pub fn alloc_calls() -> u64 {
    CALLS.with(Cell::get)
}

/// Live heap bytes currently outstanding (allocated minus freed).
pub fn live_bytes() -> u64 {
    LIVE.load(Ordering::Relaxed)
}

/// High-water mark of [`live_bytes`] since process start or the last
/// [`reset_peak`].
pub fn peak_bytes() -> u64 {
    PEAK.load(Ordering::Relaxed)
}

/// Reset the peak to the current live level and return that baseline, so a
/// measured section can report its *own* high-water mark as
/// `peak_bytes() - baseline`.
pub fn reset_peak() -> u64 {
    let live = LIVE.load(Ordering::Relaxed);
    PEAK.store(live, Ordering::Relaxed);
    live
}

/// Whether the probe is actually installed as the global allocator. A
/// binary that forgot `#[global_allocator]` sees all counters frozen at
/// zero; measurements should check this and fail loudly rather than report
/// a fake clean zero.
pub fn probe_active() -> bool {
    // black_box keeps the optimizer from eliding the unused allocation
    // (LLVM may remove unobserved malloc/free pairs in release builds,
    // which would make an installed probe look inactive).
    let before = alloc_calls();
    let v: Vec<u8> = std::hint::black_box(Vec::with_capacity(32));
    drop(std::hint::black_box(v));
    alloc_calls() != before
}

#[cfg(test)]
mod tests {
    // The probe is NOT installed in this (library) test binary, so the
    // counters must stay frozen and `probe_active` must say so. The
    // installed-path behavior is exercised by `tests/bench_artifact.rs`
    // and `tests/alloc_discipline.rs` at the workspace root, which do
    // install it.
    use super::*;

    #[test]
    fn uninstalled_probe_reports_inactive() {
        assert!(!probe_active());
        assert_eq!(alloc_calls(), 0);
        assert_eq!(live_bytes(), 0);
        assert_eq!(peak_bytes(), 0);
        assert_eq!(reset_peak(), 0);
    }
}

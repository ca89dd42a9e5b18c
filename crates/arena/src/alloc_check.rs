//! The allocation-counting test harness: a global allocator shim that
//! counts every `alloc`/`realloc`, and helpers for asserting a budget.
//!
//! Install the shim in a test or bench **binary** (one per process —
//! `#[global_allocator]` is a process-global singleton):
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: snorkel_arena::CountingAlloc = snorkel_arena::CountingAlloc::new();
//! ```
//!
//! then measure with [`allocation_count`] deltas or
//! [`min_allocations_over`]. Two things to know:
//!
//! * The counter is **per thread**: a measurement sees only what the
//!   measuring thread itself allocated, so other tests running on the
//!   libtest harness's parallel threads (a proptest in the same binary,
//!   say) cannot inflate a sample. Work the measured path hands to
//!   another thread is not counted — measure on the thread that runs it.
//! * Run release mode for enforcement. Debug builds of generic std
//!   code can allocate where release builds provably do not, so a
//!   zero-budget assert is only meaningful under `--release`
//!   (`cfg!(debug_assertions)` tells you which world you are in).

#![allow(unsafe_code)] // GlobalAlloc is an unsafe trait; this module is the one place we implement it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // Const-initialized and without a destructor, so touching it from
    // inside the allocator never allocates or registers a TLS dtor.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `try_with`: an allocation during thread teardown, after the slot is
/// gone, goes uncounted instead of panicking inside the allocator.
fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// A counting global allocator: forwards to [`System`], incrementing
/// the calling thread's counter on every `alloc` and `realloc` (frees are
/// not counted — the budgets here are about *acquiring* memory on a
/// hot path, and a free implies a former alloc anyway).
pub struct CountingAlloc;

impl CountingAlloc {
    /// Const constructor for the `#[global_allocator]` static.
    pub const fn new() -> Self {
        CountingAlloc
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        CountingAlloc::new()
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap acquisitions (allocs + reallocs) made by the calling thread
/// since it started. Only meaningful when [`CountingAlloc`] is
/// installed as the global allocator; returns a frozen 0 otherwise.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Run `f` once and return `(allocations, result)` for the call.
pub fn allocations_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = allocation_count();
    let out = f();
    (allocation_count() - before, out)
}

/// Run `f` up to `attempts` times and return the **minimum** number of
/// allocations observed in one run — robust to one-off growth (a
/// buffer still reaching its high-water mark) in early attempts.
/// Returns early on a zero sample.
pub fn min_allocations_over(attempts: usize, mut f: impl FnMut()) -> u64 {
    let mut min = u64::MAX;
    for _ in 0..attempts.max(1) {
        let (n, ()) = allocations_in(&mut f);
        min = min.min(n);
        if min == 0 {
            break;
        }
    }
    min
}

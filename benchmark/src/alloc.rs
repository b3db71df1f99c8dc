//! A counting global allocator: allocation count, bytes requested and
//! the live-heap high-water mark.
//!
//! The counters are per thread, so a measurement sees only the work of
//! the thread that runs it (the benchmark runs everything on one thread;
//! the test harness runs tests on several).  On one thread the counts
//! repeat exactly for the same inputs.  Install it in a binary with
//! `#[global_allocator] static A: CountingAlloc = CountingAlloc;`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// [`System`] plus per-thread counters.
pub struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
    static BASE: Cell<i64> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    ALLOCS.with(|c| c.set(c.get() + 1));
    BYTES.with(|c| c.set(c.get() + bytes as u64));
    let live = LIVE.with(|c| {
        let v = c.get() + bytes as i64;
        c.set(v);
        v
    });
    PEAK.with(|c| c.set(c.get().max(live)));
}

fn shrink(bytes: usize) {
    LIVE.with(|c| c.set(c.get() - bytes as i64));
}

// SAFETY: every method forwards to `System` with the caller's layout and
// pointer unchanged, so `System`'s guarantees carry over; the counters
// are const-initialised thread-locals without destructors, so touching
// them never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        // SAFETY: `ptr` came from `System` with `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Counter readings of the current thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocations (a `realloc` counts as one).
    pub allocs: u64,
    /// Bytes requested.
    pub bytes: u64,
    /// Live-heap high-water mark since the last [`reset_peak`], above
    /// the live heap at that call, bytes.
    pub peak: u64,
}

/// The current thread's counters.
pub fn stats() -> AllocStats {
    AllocStats {
        allocs: ALLOCS.with(Cell::get),
        bytes: BYTES.with(Cell::get),
        peak: (PEAK.with(Cell::get) - BASE.with(Cell::get)).max(0) as u64,
    }
}

/// Restart the high-water mark from the current live heap.
pub fn reset_peak() {
    let live = LIVE.with(Cell::get);
    PEAK.with(|c| c.set(live));
    BASE.with(|c| c.set(live));
}

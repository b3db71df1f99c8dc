//! A warm replicated overwrite allocates one page and nothing else:
//! the payload, the acting set and the replica directory entry all live
//! in recycled buffers, and the replicas share the primary's fresh
//! copy-on-write page, so a 4 KiB overwrite of a page the three copies
//! share costs exactly the one page that replaces it.  A warm verified
//! read allocates nothing: it lands in a recycled buffer and is
//! compared with the regenerated payload in place.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use deliba_k::core::{Engine, EngineConfig, Generation, Mode, TraceOp};

/// Counts the allocations of the calling thread, and separately those
/// of at least a page, so the test harness's other threads cannot
/// disturb a count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static PAGES: Cell<u64> = const { Cell::new(0) };
}

const BLOCK: u32 = 4096;

fn count(size: usize) {
    // `try_with` fails only while the thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    if size >= BLOCK as usize {
        let _ = PAGES.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only const-initialised thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const EXTENTS: u64 = 64;
const JOBS: u64 = 3;

/// `ops` 4 KiB ops per job made by `op`, extent `(i · 7 + job) mod
/// EXTENTS`.
fn trace(ops: u64, op: fn(u64, u32, bool) -> TraceOp) -> Vec<Vec<TraceOp>> {
    (0..JOBS)
        .map(|job| {
            (0..ops)
                .map(|i| op((i * 7 + job) % EXTENTS * BLOCK as u64, BLOCK, true))
                .collect()
        })
        .collect()
}

/// Allocations, and page-sized allocations, of one run of `ops` ops
/// per job made by `op`.
fn run_allocs(engine: &mut Engine, ops: u64, op: fn(u64, u32, bool) -> TraceOp) -> (u64, u64) {
    let jobs = trace(ops, op);
    let before = (ALLOCS.with(Cell::get), PAGES.with(Cell::get));
    let report = engine.run_trace(jobs, 32);
    let after = (ALLOCS.with(Cell::get), PAGES.with(Cell::get));
    assert_eq!(report.ops, JOBS * ops);
    assert_eq!(report.verify_failures, 0);
    (after.0 - before.0, after.1 - before.1)
}

/// An engine whose every extent is written and whose buffers and
/// queues have reached their working size under `op`.
fn warm(fpga: bool, op: fn(u64, u32, bool) -> TraceOp) -> Engine {
    let mut engine = Engine::new(EngineConfig::new(
        Generation::DeLiBAK,
        fpga,
        Mode::Replication,
    ));
    let fill = (0..EXTENTS)
        .map(|e| TraceOp::write(e * BLOCK as u64, BLOCK, true))
        .collect();
    engine.run_trace(vec![fill], 32);
    run_allocs(&mut engine, 200, op);
    engine
}

#[test]
fn replicated_overwrites_allocate_one_page_per_op() {
    for fpga in [true, false] {
        let mut engine = warm(fpga, TraceOp::write);
        let (n, n_pages) = run_allocs(&mut engine, 200, TraceOp::write);
        let (two_n, two_n_pages) = run_allocs(&mut engine, 400, TraceOp::write);
        let extra_ops = JOBS * 200;
        assert_eq!(
            (two_n - n, two_n_pages - n_pages),
            (extra_ops, extra_ops),
            "fpga={fpga}: {n} allocations ({n_pages} pages) for N ops, \
             {two_n} ({two_n_pages} pages) for 2N"
        );
    }
}

#[test]
fn verified_replicated_reads_allocate_nothing() {
    for fpga in [true, false] {
        let mut engine = warm(fpga, TraceOp::read);
        let (n, _) = run_allocs(&mut engine, 200, TraceOp::read);
        let (two_n, _) = run_allocs(&mut engine, 400, TraceOp::read);
        assert_eq!(
            two_n, n,
            "fpga={fpga}: {n} allocations for N reads, {two_n} for 2N"
        );
    }
}

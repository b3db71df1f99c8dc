//! EC overwrites allocate nothing per op: the payload, its parity and
//! the shard placement all live in recycled buffers, so once every
//! extent exists a run's allocation count does not grow with its op
//! count — on the card and on the software path alike.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use deliba_k::core::{Engine, EngineConfig, Generation, Mode, TraceOp};

/// Counts the allocations of the calling thread, so the test harness's
/// other threads cannot disturb a count.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` fails only while the thread is torn down.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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

const BLOCK: u32 = 16 * 1024;
const EXTENTS: u64 = 64;
const JOBS: u64 = 3;

/// `ops` 16 KiB writes per job, extent `(i · 7 + job) mod EXTENTS`.
fn writes(ops: u64) -> Vec<Vec<TraceOp>> {
    (0..JOBS)
        .map(|job| {
            (0..ops)
                .map(|i| TraceOp::write((i * 7 + job) % EXTENTS * BLOCK as u64, BLOCK, true))
                .collect()
        })
        .collect()
}

/// Allocations made by one overwrite run of `ops` writes per job.
fn run_allocs(engine: &mut Engine, ops: u64) -> u64 {
    let jobs = writes(ops);
    let before = ALLOCS.with(Cell::get);
    let report = engine.run_trace(jobs, 32);
    let after = ALLOCS.with(Cell::get);
    assert_eq!(report.ops, JOBS * ops);
    assert_eq!(report.verify_failures, 0);
    after - before
}

#[test]
fn ec_overwrites_allocate_nothing_per_op() {
    for fpga in [true, false] {
        let mut engine = Engine::new(EngineConfig::new(
            Generation::DeLiBAK,
            fpga,
            Mode::ErasureCoding,
        ));
        // Write every extent, then run once more so every buffer and
        // queue reaches its working size.
        let fill = (0..EXTENTS)
            .map(|e| TraceOp::write(e * BLOCK as u64, BLOCK, true))
            .collect();
        engine.run_trace(vec![fill], 32);
        run_allocs(&mut engine, 200);
        let n = run_allocs(&mut engine, 200);
        let two_n = run_allocs(&mut engine, 400);
        assert_eq!(
            two_n, n,
            "fpga={fpga}: {n} allocations for N ops, {two_n} for 2N"
        );
    }
}

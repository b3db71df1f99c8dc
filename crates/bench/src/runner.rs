//! Parallel sweep runner.
//!
//! Every experiment is a sweep over independent *cells* (one engine run
//! per cell, each with its own seed and its own `Engine`), so cells can
//! execute on worker threads with no shared state.  Determinism is
//! preserved by construction: workers pull cell indices from an atomic
//! counter, stash `(index, result)` pairs, and the caller receives the
//! results sorted back into submission order — byte-identical to a
//! serial run regardless of scheduling.  A cell that panics fails the
//! whole sweep: `std::thread::scope` joins every worker and then
//! re-raises the panic, so a sweep never returns a short or reordered
//! result.
//!
//! Worker count comes from, in priority order: the `--serial` flag
//! ([`set_serial`]), the `DELIBA_JOBS` environment variable, then
//! [`std::thread::available_parallelism`].  Nested calls (an experiment
//! that itself calls `par_map` from inside a cell) degrade to serial
//! execution rather than oversubscribing.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide "force serial" switch (the harness `--serial` flag).
static FORCE_SERIAL: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Set while a worker is inside `par_map`; nested sweeps run serial.
    static IN_PAR: Cell<bool> = const { Cell::new(false) };
}

/// Force every subsequent sweep to run on the calling thread.
pub fn set_serial(serial: bool) {
    FORCE_SERIAL.store(serial, Ordering::SeqCst);
}

/// Worker count for sweeps: `DELIBA_JOBS` if set (clamped to ≥ 1), else
/// the machine's available parallelism.  Returns 1 when `--serial` is in
/// effect.
pub(crate) fn jobs() -> usize {
    if FORCE_SERIAL.load(Ordering::SeqCst) {
        return 1;
    }
    if let Ok(v) = std::env::var("DELIBA_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` on up to [`jobs`] worker threads, returning the
/// results in submission order (index `i` of the output corresponds to
/// index `i` of the input, exactly as a serial `map` would).
///
/// Falls back to a plain serial loop when only one job is configured,
/// when there is one item or fewer, or when called from inside another
/// `par_map` (nesting guard).
pub(crate) fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let workers = jobs().min(n);
    let nested = IN_PAR.with(|c| c.get());
    if workers <= 1 || n <= 1 || nested {
        return items.into_iter().map(f).collect();
    }

    // Cells are pulled from a shared counter so a slow cell never blocks
    // the queue behind it (dynamic load balancing), and results carry
    // their original index so output order is deterministic.
    let work: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));

    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                IN_PAR.with(|c| c.set(true));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let item = work[i].lock().unwrap().take().expect("each cell taken once");
                    let r = f(item);
                    results.lock().unwrap().push((i, r));
                }
                IN_PAR.with(|c| c.set(false));
            });
        }
    });

    let mut out = results.into_inner().unwrap();
    out.sort_by_key(|(i, _)| *i);
    debug_assert_eq!(out.len(), n);
    out.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(items.clone(), |x| x * 3 + 1);
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        assert_eq!(par_map(Vec::<u32>::new(), |x| x), Vec::<u32>::new());
        assert_eq!(par_map(vec![7u32], |x| x + 1), vec![8]);
    }

    #[test]
    #[should_panic]
    fn panicking_cell_fails_the_sweep() {
        par_map((0..64u32).collect(), |x| {
            assert_ne!(x, 37, "cell 37 fails");
            x
        });
    }

    #[test]
    fn nested_par_map_runs_serial_and_stays_ordered() {
        let out = par_map((0..8u32).collect(), |i| {
            // Inner sweep must not deadlock or reorder.
            let inner = par_map((0..4u32).collect(), move |j| i * 10 + j);
            inner.iter().sum::<u32>()
        });
        let expect: Vec<u32> = (0..8).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn serial_flag_forces_one_job() {
        set_serial(true);
        assert_eq!(jobs(), 1);
        let out = par_map((0..16u32).collect(), |x| x * x);
        assert_eq!(out, (0..16u32).map(|x| x * x).collect::<Vec<_>>());
        set_serial(false);
    }
}

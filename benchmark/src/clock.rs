//! The host clock probe.
//!
//! The benchmark host is a virtual machine whose cores, caches and memory
//! are shared with other tenants; its speed drifts by 10 % or more
//! between runs minutes apart, and by 2× at the worst.  Co-tenants slow
//! two things the simulator spends its host time on: loads that miss the
//! caches (event queue, maps, the object store) and the core's execution
//! ports (another tenant on the sibling hyperthread).  The probe times
//! one fixed kernel for each:
//!
//! * a pointer chase: [`CHASE_STEPS`] dependent loads along one random
//!   cycle through an 8 MiB table, so every load waits for the one
//!   before and most miss the caches;
//! * an arithmetic kernel: eight independent multiply-xor-shift chains,
//!   which keep the execution ports busy.
//!
//! The host's slowdown is the geometric mean of the two kernels' times
//! over their reference times, and host times are reported at the
//! reference clock: a time measured while the host ran `s` times slower
//! counts as `time / s`.  The probe is the benchmark's own code, so no
//! change to the simulator can move it.

use deliba_sim::{SimRng, Xoshiro256};
use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Loads in one pointer chase (≈7 ms).
const CHASE_STEPS: usize = 1 << 16;

/// Entries of the chased table (8 MiB).
const TABLE_LEN: usize = 1 << 20;

/// Rounds of the arithmetic kernel (≈0.7 ms).
const ARITH_ROUNDS: usize = 1 << 18;

/// Reference times, ns: 100 ns per chased load and 2 ns per arithmetic
/// round, round numbers near the fastest the kernels read on the 2-vCPU
/// Intel Xeon VM the noise study in `README.md` ran on.
const CHASE_REFERENCE_NS: f64 = CHASE_STEPS as f64 * 100.0;
const ARITH_REFERENCE_NS: f64 = ARITH_ROUNDS as f64 * 2.0;

/// One random cycle through every entry (Sattolo's algorithm), built on
/// first use.
fn table() -> &'static [u64] {
    static TABLE: OnceLock<Vec<u64>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut next: Vec<u64> = (0..TABLE_LEN as u64).collect();
        let mut rng = Xoshiro256::seed_from_u64(0xC10C);
        for i in (1..TABLE_LEN).rev() {
            next.swap(i, rng.gen_range(i as u64) as usize);
        }
        next
    })
}

fn chase_ns() -> f64 {
    let next = table();
    let t0 = Instant::now();
    let mut at = black_box(0usize);
    for _ in 0..CHASE_STEPS {
        at = next[at] as usize;
    }
    black_box(at);
    t0.elapsed().as_nanos() as f64
}

fn arith_ns() -> f64 {
    let t0 = Instant::now();
    let mut chains = black_box([1u64, 2, 3, 4, 5, 6, 7, 8]);
    for _ in 0..ARITH_ROUNDS {
        for x in &mut chains {
            *x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (*x >> 29);
        }
    }
    black_box(chains);
    t0.elapsed().as_nanos() as f64
}

/// How much slower than the reference the host runs right now.
fn slowdown() -> f64 {
    (chase_ns() / CHASE_REFERENCE_NS * arith_ns() / ARITH_REFERENCE_NS).sqrt()
}

/// The host's slowdown, from one probe before and one after the measured
/// work `f`, which is returned with it.
pub fn around<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = slowdown();
    let out = f();
    let after = slowdown();
    (out, (before + after) / 2.0)
}

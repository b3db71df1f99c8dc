//! Model accuracy: the workload configuration's four Table II qd-1
//! latency probes.
//!
//! Each probe is the `harness table2` method — `FioSpec::latency_probe`
//! at 4 KiB, 400 ops, a fresh engine with the default engine seed — so
//! the result does not depend on `--seed`.  Two numbers come out:
//!
//! * the error against the paper's Table II (an end-to-end metric: a
//!   change that moves the model away from the paper is a regression);
//! * the drift against the values this model produced when the
//!   benchmark was defined (a correctness check: more than 1 %, the
//!   north star's accuracy budget, fails the run).

use deliba_core::{Engine, EngineConfig, FioSpec, Generation, Mode, Pattern, RwMode};

/// Operations per probe (the harness's `PROBE_OPS`).
const PROBE_OPS: u64 = 400;

/// The four probes, in Table II column order.
const PROBES: [(RwMode, Pattern); 4] = [
    (RwMode::Read, Pattern::Seq),
    (RwMode::Write, Pattern::Seq),
    (RwMode::Read, Pattern::Rand),
    (RwMode::Write, Pattern::Rand),
];

/// Largest drift from [`reference_us`] a run may show.
pub const MAX_DRIFT: f64 = 0.01;

/// Paper Table II, DeLiBA-K rows, µs.
fn paper_us(mode: Mode) -> [f64; 4] {
    match mode {
        Mode::Replication => [40.0, 52.0, 64.0, 68.0],
        Mode::ErasureCoding => [38.0, 47.0, 59.0, 60.0],
    }
}

/// The probes' results when the benchmark was defined, µs.
fn reference_us(mode: Mode) -> [f64; 4] {
    match mode {
        Mode::Replication => [40.577835, 52.643589999999996, 64.23037000000001, 68.40819],
        Mode::ErasureCoding => [37.67491750000001, 48.191942499999996, 63.650375, 63.5425625],
    }
}

/// The probe results for one pool mode.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelProbe {
    /// Probe mean latencies, µs, in Table II column order.
    pub latency_us: [f64; 4],
    /// Largest relative deviation from the paper, in percent.
    pub error_pct: f64,
    /// Largest relative deviation from the committed reference values.
    pub drift: f64,
}

/// Run the four probes for `mode`.
pub fn probe(mode: Mode) -> ModelProbe {
    let mut latency_us = [0.0; 4];
    for (slot, (rw, pattern)) in latency_us.iter_mut().zip(PROBES) {
        let mut engine = Engine::new(EngineConfig::new(Generation::DeLiBAK, true, mode));
        *slot = engine
            .run_fio(&FioSpec::latency_probe(rw, pattern, 4096, PROBE_OPS))
            .mean_latency_us;
    }
    ModelProbe {
        latency_us,
        error_pct: 100.0 * max_rel_dev(&latency_us, &paper_us(mode)),
        drift: max_rel_dev(&latency_us, &reference_us(mode)),
    }
}

fn max_rel_dev(got: &[f64; 4], want: &[f64; 4]) -> f64 {
    got.iter()
        .zip(want)
        .map(|(g, w)| ((g - w) / w).abs())
        .fold(0.0, f64::max)
}

//! One measured engine repetition: set-up (input generation, engine
//! construction, fault schedule) and the run call, each timed, plus the
//! run's deterministic outcome.

use crate::workloads::{Load, Workload};
use crate::{alloc, clock};
use deliba_core::{Engine, RunReport};
use std::time::Instant;

/// What one engine repetition produced on the virtual clock and the
/// counting allocator.  Identical for the same workload, seed and scale.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The engine's report.
    pub report: RunReport,
    /// Ops offered: closed-loop ops or open-loop arrivals.
    pub offered: u64,
    /// Writes offered.
    pub writes: u64,
    /// Open-loop arrivals admitted (closed loops: every op).
    pub admitted: u64,
    /// Open-loop arrivals refused at the admission cap.
    pub dropped: u64,
    /// Σ `Cluster::osd_ops()` after the run.
    pub osd_ops: u64,
    /// Copies still registered corrupt after the run.
    pub corrupted_copies: u64,
    /// Allocations made by the run call.
    pub run_allocs: u64,
    /// Bytes requested by the run call.
    pub run_alloc_bytes: u64,
    /// Live-heap high-water mark of the repetition, bytes (set-up
    /// included: the generated inputs count).
    pub peak_heap: u64,
}

impl RunOutcome {
    /// Ops that failed: drops, exhausted retries and verify failures.
    pub fn failed(&self) -> u64 {
        let exhausted = self.report.resilience.map_or(0, |r| r.exhausted);
        self.dropped + exhausted + self.report.verify_failures
    }

    /// A digest of the whole outcome (report JSON plus every count).
    pub fn digest(&self) -> u64 {
        let report = serde_json::to_string(&self.report).expect("reports serialize");
        let counts = [
            self.offered,
            self.writes,
            self.admitted,
            self.dropped,
            self.osd_ops,
            self.corrupted_copies,
            self.run_allocs,
            self.run_alloc_bytes,
            self.peak_heap,
        ];
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in report
            .bytes()
            .chain(counts.iter().flat_map(|c| c.to_le_bytes()))
        {
            h = (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
        h
    }
}

/// One timed engine repetition.  Host times are rescaled to the
/// reference clock (see [`crate::clock`]).
#[derive(Debug, Clone)]
pub struct EngineRep {
    /// Input generation, s.
    pub generate_s: f64,
    /// Input generation + `Engine::new` + `set_fault_schedule`, s.
    pub setup_s: f64,
    /// The `run_trace` / `run_open_loop` call, s.
    pub run_s: f64,
    /// How much slower than the reference clock the host ran.
    pub clock: f64,
    /// The deterministic outcome.
    pub outcome: RunOutcome,
}

/// Set up and run one repetition of `workload`.
pub fn engine_rep(workload: Workload, seed: u64, scale: f64) -> EngineRep {
    let ((generate_s, setup_s, run_s, outcome), clock) =
        clock::around(|| timed_rep(workload, seed, scale));
    EngineRep {
        generate_s: generate_s / clock,
        setup_s: setup_s / clock,
        run_s: run_s / clock,
        clock,
        outcome,
    }
}

fn timed_rep(workload: Workload, seed: u64, scale: f64) -> (f64, f64, f64, RunOutcome) {
    alloc::reset_peak();
    let t0 = Instant::now();
    let inputs = std::hint::black_box(workload.inputs(seed, scale));
    let generate_s = t0.elapsed().as_secs_f64();
    let mut engine = Engine::new(workload.config());
    if let Some(schedule) = inputs.faults {
        engine.set_fault_schedule(schedule);
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let (offered, writes) = (inputs.load.len(), inputs.load.writes());

    let before = alloc::stats();
    let t1 = Instant::now();
    let (report, admitted, dropped) = match inputs.load {
        Load::Closed { jobs, iodepth } => (engine.run_trace(jobs, iodepth), offered, 0),
        Load::Open {
            stream,
            admission_cap,
        } => {
            let run = engine.run_open_loop(&stream, admission_cap);
            (run.report, run.point.admitted, run.point.dropped)
        }
    };
    let run_s = t1.elapsed().as_secs_f64();
    let after = alloc::stats();

    let cluster = engine.cluster_mut();
    let outcome = RunOutcome {
        report,
        offered,
        writes,
        admitted,
        dropped,
        osd_ops: cluster.osd_ops().iter().sum(),
        corrupted_copies: cluster.corrupted_copies() as u64,
        run_allocs: after.allocs - before.allocs,
        run_alloc_bytes: after.bytes - before.bytes,
        peak_heap: after.peak,
    };
    (generate_s, setup_s, run_s, outcome)
}

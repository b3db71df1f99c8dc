//! `harness trace` — flight-recorder export cells.
//!
//! Runs a small, pinned set of cells with the per-I/O flight recorder
//! armed and snapshots each one as a Chrome trace-event JSON (load it
//! in Perfetto / `chrome://tracing`), its run report, and a worst-K
//! tail-latency attribution table.  The cells:
//!
//! * one latency probe per framework generation (D1 / D2 / DK,
//!   rand-read 4 kB, qd 1) — the Table-II span structure on a timeline;
//! * one DeLiBA-K chaos cell (write-then-read-back under the pinned
//!   fault schedule) — every fault class fires mid-trace and lands in
//!   the `fault` track as instant events.
//!
//! Everything here is deterministic at a fixed depth: two same-seed
//! invocations emit byte-identical `.trace.json` and `.report.json`
//! files.

use crate::experiments::PROBE_OPS;
use deliba_core::{
    Engine, EngineConfig, FioSpec, Generation, Mode, Pattern, RunReport, RwMode, TraceOp,
};
use deliba_fault::{FaultSchedule, ResiliencePolicy};
use deliba_fpga::RmId;
use deliba_net::LinkFaultProfile;
use deliba_qdma::DmaFaultProfile;
use deliba_sim::trace::{IoChain, TraceSink, TraceStats};
use deliba_sim::{SimDuration, SimTime, Stage, TraceDepth};

/// How many outlier I/Os the attribution table ranks.
pub const WORST_K: usize = 8;

/// Ops per chaos-cell job (writes + read-backs).
const CHAOS_OPS_PER_JOB: u64 = 600;

/// One flight-recorded cell: the run report plus the ring's exports.
#[derive(Debug, Clone)]
pub struct TraceCell {
    /// File-stem name, e.g. `"dk-rand-read-4k"`.
    pub name: &'static str,
    /// The run's report (breakdown attached — every ring depth keeps
    /// the stage histograms too).
    pub report: RunReport,
    /// Chrome trace-event JSON (Perfetto-loadable).
    pub chrome: String,
    /// Worst-K I/O chains by end-to-end span.
    pub worst: Vec<IoChain>,
    /// Recorder ring statistics.
    pub stats: TraceStats,
}

fn snapshot(name: &'static str, report: RunReport, engine: &Engine) -> TraceCell {
    let cell = move |ring: &TraceSink| TraceCell {
        name,
        chrome: ring.chrome_json(),
        worst: ring.worst_k(WORST_K),
        stats: ring.stats(),
        report,
    };
    engine.observer().ring(cell).expect("trace cells run with the ring on")
}

/// The chaos cell's pinned fault schedule: one instance of every fault
/// class inside the ~10 ms virtual window of the write/read-back soak.
fn chaos_schedule() -> FaultSchedule {
    let ms = |n: u64| SimTime::from_nanos(n * 1_000_000);
    FaultSchedule::new()
        .osd_crash(ms(1), 7)
        .osd_flap(ms(2), 19, SimDuration::from_millis(2))
        .link_degrade(ms(3), LinkFaultProfile { drop_p: 0.15, corrupt_p: 0.05 })
        .link_restore(ms(5))
        .dfx_swap(ms(6), RmId::Tree)
        .dma_degrade(ms(7), DmaFaultProfile { h2c_error_p: 0.1, c2h_error_p: 0.1, exhaust_p: 0.2 })
        .dma_restore(ms(8))
        .card_outage(ms(9), SimDuration::from_millis(2))
}

fn chaos_jobs() -> Vec<Vec<TraceOp>> {
    const JOBS: u64 = 2;
    let trace = |job: u64| -> Vec<TraceOp> {
        let half = CHAOS_OPS_PER_JOB / 2;
        let base = job * half * 4096;
        let mut ops = Vec::with_capacity(CHAOS_OPS_PER_JOB as usize);
        for i in 0..half {
            ops.push(TraceOp::write(base + i * 4096, 4096, true));
        }
        for i in 0..half {
            ops.push(TraceOp::read(base + i * 4096, 4096, true));
        }
        ops
    };
    (0..JOBS).map(trace).collect()
}

/// Run every trace cell at `depth` (which must keep the ring).
pub fn run_trace_cells(depth: TraceDepth) -> Vec<TraceCell> {
    assert!(depth.has_ring(), "trace cells need a ring depth");
    let mut cells = Vec::new();
    for (name, g) in [
        ("d1-rand-read-4k", Generation::DeLiBA1),
        ("d2-rand-read-4k", Generation::DeLiBA2),
        ("dk-rand-read-4k", Generation::DeLiBAK),
    ] {
        let cfg = EngineConfig::new(g, true, Mode::Replication).with_trace_depth(depth);
        let mut e = Engine::new(cfg);
        let report = e.run_fio(&FioSpec::latency_probe(RwMode::Read, Pattern::Rand, 4096, PROBE_OPS));
        assert_eq!(e.verify_failures(), 0);
        cells.push(snapshot(name, report, &e));
    }

    let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
        .with_resilience(ResiliencePolicy::default())
        .with_trace_depth(depth);
    let mut e = Engine::new(cfg);
    e.set_fault_schedule(chaos_schedule());
    let report = e.run_trace(chaos_jobs(), 4);
    assert_eq!(e.verify_failures(), 0);
    cells.push(snapshot("dk-chaos-replication", report, &e));
    cells
}

/// Human-readable worst-K attribution table: each outlier's end-to-end
/// span plus the stage that dominated it.
pub fn worst_k_table(cell: &TraceCell) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  {} — worst {} I/Os by end-to-end span ({} ops, depth {}, {} events held, {} dropped):\n",
        cell.name,
        cell.worst.len(),
        cell.report.ops,
        cell.stats.depth.label(),
        cell.stats.held,
        cell.stats.dropped,
    ));
    for (rank, chain) in cell.worst.iter().enumerate() {
        let total = chain.total_ns();
        let (stage, span) = Stage::ALL
            .iter()
            .map(|&s| (s, chain.span_ns(s)))
            .max_by_key(|&(_, ns)| ns)
            .expect("chains carry spans");
        let share = if total > 0 { 100.0 * span as f64 / total as f64 } else { 0.0 };
        out.push_str(&format!(
            "    #{:<2} io {:>6}  lane {:>2}  total {:>9.1} µs  at {:>9.1} µs  slowest: {} {:>8.1} µs ({:>4.1} %)\n",
            rank + 1,
            chain.io,
            chain.lane,
            total as f64 / 1_000.0,
            chain.begin_ns() as f64 / 1_000.0,
            stage.label(),
            span as f64 / 1_000.0,
            share,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_cell_carries_fault_instants() {
        let cells = run_trace_cells(TraceDepth::Spans);
        let chaos = cells.iter().find(|c| c.name == "dk-chaos-replication").unwrap();
        for marker in ["\"cat\":\"fault\"", "osd_crash", "card_fault", "dfx_swap", "retry"] {
            assert!(chaos.chrome.contains(marker), "chaos trace lacks {marker}");
        }
        // Probe cells are fault-free: no fault track entries.
        let probe = cells.iter().find(|c| c.name == "dk-rand-read-4k").unwrap();
        assert!(!probe.chrome.contains("\"cat\":\"fault\""));
    }
}

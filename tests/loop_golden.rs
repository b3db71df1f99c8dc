//! Byte-identity of the engine's event loop against recorded reports.
//!
//! Four small runs cover both admission modes and every path through
//! the loop: the fused closed-loop fast path, retries under a fault
//! schedule, open-loop admission drops, and the background shard
//! (recovery, scrub, bit-rot) with the telemetry plane on.  Each
//! serialized `RunReport` (and open-loop `LoadPoint`) must equal, as a
//! whole string, the JSON under `tests/golden/` — recorded before the
//! closed- and open-loop runners were folded into one loop.  The files
//! are fixtures, not snapshots: there is no switch to rewrite them.

use deliba_k::cluster::RecoveryPolicy;
use deliba_k::core::{
    ArrivalOp, Engine, EngineConfig, FioSpec, Generation, Mode, OpenLoopRun, Pattern, RunReport,
    RwMode, TraceOp,
};
use deliba_k::fault::{FaultSchedule, ResiliencePolicy};
use deliba_k::net::LinkFaultProfile;
use deliba_k::qdma::DmaFaultProfile;
use deliba_k::sim::{SimDuration, SimTime, TelemetryConfig};

fn ms(n: u64) -> SimTime {
    SimTime::from_nanos(n * 1_000_000)
}

fn report_json(r: &RunReport) -> String {
    serde_json::to_string_pretty(r).expect("serializable") + "\n"
}

/// Compare `actual` with `tests/golden/<name>.json`.
fn assert_golden(name: &str, actual: &str) {
    let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    assert!(actual == expected, "{name}: report diverged from {path}\n--- actual ---\n{actual}");
}

fn assert_open_golden(name: &str, run: &OpenLoopRun) {
    let point = serde_json::to_string_pretty(&run.point).expect("serializable") + "\n";
    assert_golden(&format!("{name}.report"), &report_json(&run.report));
    assert_golden(&format!("{name}.point"), &point);
}

/// Closed loop, the Fig. 7 peak cell shape: DeLiBA-K random 4 KiB
/// reads, three jobs at queue depth 32.
#[test]
fn closed_loop_randread_cell() {
    let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
    let r = Engine::new(cfg).run_fio(&FioSpec::paper(RwMode::Read, Pattern::Rand, 4096, 3000));
    assert_golden("closed_randread", &report_json(&r));
}

/// Closed loop, EC writes then read-backs under a fault schedule with a
/// resilience policy, so retries and their re-enqueue path fire.
#[test]
fn closed_loop_ec_write_under_faults() {
    let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::ErasureCoding)
        .with_resilience(ResiliencePolicy::default());
    let mut e = Engine::new(cfg);
    e.set_fault_schedule(
        FaultSchedule::new()
            .osd_flap(ms(1), 9, SimDuration::from_millis(3))
            .link_degrade(ms(2), LinkFaultProfile { drop_p: 0.15, corrupt_p: 0.05 })
            .link_restore(ms(6))
            .dma_degrade(
                ms(4),
                DmaFaultProfile { h2c_error_p: 0.1, c2h_error_p: 0.1, exhaust_p: 0.2 },
            )
            .dma_restore(ms(8)),
    );
    let block = |i: u64| i * 16384;
    let mut ops: Vec<TraceOp> = (0..400).map(|i| TraceOp::write(block(i), 16384, true)).collect();
    ops.extend((0..400).map(|i| TraceOp::read(block(i), 16384, true)));
    let r = e.run_trace(vec![ops], 4);
    assert_eq!(r.verify_failures, 0);
    assert!(r.resilience.expect("resilience section").retries > 0, "the schedule must bite");
    assert_golden("closed_ec_faults", &report_json(&r));
}

/// Open loop with an admission cap small enough that arrivals drop.
#[test]
fn open_loop_with_admission_drops() {
    let stream: Vec<ArrivalOp> = (0..1_200u64)
        .map(|i| {
            let off = (i % 256) * 4096;
            let op = if i % 4 == 3 {
                TraceOp::read(off, 4096, true)
            } else {
                TraceOp::write(off, 4096, true)
            };
            ArrivalOp { at: SimTime::from_nanos(i * 700), op }
        })
        .collect();
    let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
    let run = Engine::new(cfg).run_open_loop(&stream, 8);
    assert!(run.point.dropped > 0, "cap of 8 must drop arrivals");
    assert_open_golden("open_drops", &run);
}

/// Open loop with an OSD crash, recovery, periodic scrub, a bit-rot
/// burst and the telemetry plane on.
#[test]
fn open_loop_with_recovery_scrub_and_telemetry() {
    let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
        .with_resilience(ResiliencePolicy::default())
        .with_recovery(RecoveryPolicy::default().with_scrub(SimDuration::from_micros(200), 8))
        .with_telemetry(TelemetryConfig::default());
    let mut e = Engine::new(cfg);
    e.set_fault_schedule(FaultSchedule::new().osd_crash(ms(2), 9).bit_rot(ms(4), 6));
    let stream: Vec<ArrivalOp> = (0..300u64)
        .map(|i| {
            let off = (i % 64) * (4 << 20);
            let op = if i < 150 {
                TraceOp::write(off, 4096, true)
            } else {
                TraceOp::read(off, 4096, true)
            };
            ArrivalOp { at: SimTime::from_nanos(i * 20_000), op }
        })
        .collect();
    let run = e.run_open_loop(&stream, 128);
    let rec = run.report.recovery.expect("armed runs report recovery");
    assert!(rec.objects_recovered > 0 && rec.bitrot_repaired > 0, "{rec:?}");
    assert!(run.report.slo.is_some(), "telemetry attaches the SLO section");
    assert_open_golden("open_recovery", &run);
}

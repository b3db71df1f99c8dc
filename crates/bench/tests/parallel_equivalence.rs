//! Thread-invariance gates for intra-run parallel execution.
//!
//! The contract: `DELIBA_SIM_THREADS` (or `with_sim_threads`) changes
//! wall-clock only — every `RunReport` the engine produces is
//! byte-identical at any worker count.  These tests pin that property
//! in-process over the paths where the prepare pipeline actually
//! engages: closed-loop write traces in both pool modes, chaos runs
//! with mid-trace retries, open-loop runs with admission drops (which
//! exercise pipeline cancellation), and recovery-armed open-loop runs
//! (background shard).

use deliba_cluster::RecoveryPolicy;
use deliba_core::{ArrivalOp, Engine, EngineConfig, FioSpec, Generation, Mode, Pattern, RwMode, TraceOp};
use deliba_fault::{FaultSchedule, ResiliencePolicy};
use deliba_net::LinkFaultProfile;
use deliba_qdma::DmaFaultProfile;
use deliba_sim::{SimDuration, SimTime};

const THREAD_MATRIX: [usize; 3] = [1, 2, 8];

/// Mixed write/read closed-loop trace — the bread-and-butter shape
/// where write payload preparation dominates.
fn mixed_trace() -> Vec<TraceOp> {
    let mut ops = Vec::new();
    for i in 0..400u64 {
        ops.push(TraceOp::write(i * 8192, 8192, true));
        if i % 3 == 0 {
            ops.push(TraceOp::read(i * 8192, 8192, true));
        }
    }
    ops
}

/// Closed-loop reports are byte-identical across the thread matrix in
/// both replication and erasure-coding modes (EC additionally covers
/// prepared-shard handoff to the card).
#[test]
fn closed_loop_reports_are_thread_invariant() {
    for mode in [Mode::Replication, Mode::ErasureCoding] {
        let run = |threads| {
            let cfg = EngineConfig::new(Generation::DeLiBAK, true, mode)
                .with_sim_threads(threads);
            let r = Engine::new(cfg).run_trace(vec![mixed_trace()], 8);
            assert_eq!(r.verify_failures, 0, "{mode:?}: checksum mismatch");
            serde_json::to_string(&r).expect("serializable")
        };
        let reference = run(1);
        for threads in THREAD_MATRIX {
            assert_eq!(
                run(threads),
                reference,
                "{mode:?}: {threads} threads diverged from serial"
            );
        }
    }
}

/// The fio front-end (multi-job random write, the paper's workload
/// shape) is thread-invariant — this drives `run_trace` with several
/// jobs, so prepared slots interleave across job streams.
#[test]
fn fio_reports_are_thread_invariant() {
    let run = |threads| {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_sim_threads(threads);
        let r = Engine::new(cfg).run_fio(&FioSpec::paper(RwMode::Write, Pattern::Rand, 4096, 900));
        serde_json::to_string(&r).expect("serializable")
    };
    let reference = run(1);
    for threads in THREAD_MATRIX {
        assert_eq!(run(threads), reference, "{threads} threads diverged from serial");
    }
}

/// Chaos runs — retries regenerate payloads inline after the prepared
/// slot is consumed — stay byte-identical at every worker count.
#[test]
fn chaos_reports_are_thread_invariant() {
    let ms = |n: u64| SimTime::from_nanos(n * 1_000_000);
    let run = |mode, threads| {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, mode)
            .with_resilience(ResiliencePolicy::default())
            .with_sim_threads(threads);
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
                .dma_restore(ms(8))
                .card_outage(ms(10), SimDuration::from_millis(3)),
        );
        let mut ops = Vec::new();
        for i in 0..500u64 {
            ops.push(TraceOp::write(i * 4096, 4096, true));
        }
        for i in 0..500u64 {
            ops.push(TraceOp::read(i * 4096, 4096, true));
        }
        let r = e.run_trace(vec![ops], 4);
        assert_eq!(r.verify_failures, 0, "{mode:?}: corruption under chaos");
        let res = r.resilience.expect("chaos runs report resilience");
        assert!(res.retries > 0, "{mode:?}: the schedule must actually bite");
        serde_json::to_string(&r).expect("serializable")
    };
    for mode in [Mode::Replication, Mode::ErasureCoding] {
        let reference = run(mode, 1);
        for threads in THREAD_MATRIX {
            assert_eq!(
                run(mode, threads),
                reference,
                "{mode:?}: {threads} threads diverged from serial under chaos"
            );
        }
    }
}

/// Recovery-armed open-loop run: a mid-run OSD crash, a bit-rot burst
/// and periodic scrub keep backfill, scrub and the end-of-run scrub
/// drain busy on the background shard.  Returns the whole run as text.
fn recovery_open_loop(threads: usize) -> String {
    let ms = |n: u64| SimTime::from_nanos(n * 1_000_000);
    let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
        .with_resilience(ResiliencePolicy::default())
        .with_recovery(RecoveryPolicy::default().with_scrub(SimDuration::from_micros(200), 8))
        .with_sim_threads(threads);
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
    let out = e.run_open_loop(&stream, 128);
    assert_eq!(out.report.verify_failures, 0, "corruption under recovery");
    let rec = out.report.recovery.expect("armed runs report recovery");
    assert!(rec.objects_recovered > 0, "the crash must leave backfill work: {rec:?}");
    assert!(rec.bitrot_injected > 0 && rec.bitrot_repaired > 0, "scrub must repair: {rec:?}");
    format!("{out:?}")
}

/// Open-loop runs are thread-invariant: with a tight admission cap —
/// dropped arrivals make the pipeline skip slots via `advance` — drop
/// accounting included, and with recovery armed.
#[test]
fn open_loop_reports_are_thread_invariant() {
    let stream: Vec<ArrivalOp> = (0..1_200u64)
        .map(|i| ArrivalOp {
            at: SimTime::from_nanos(i * 700),
            op: if i % 4 == 3 {
                TraceOp::read((i % 256) * 4096, 4096, true)
            } else {
                TraceOp::write((i % 256) * 4096, 4096, true)
            },
        })
        .collect();
    let run = |threads| {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_sim_threads(threads);
        let out = Engine::new(cfg).run_open_loop(&stream, 8);
        (format!("{out:?}"), out.point.dropped)
    };
    let (reference, dropped) = run(1);
    assert!(dropped > 0, "cap of 8 must actually drop arrivals");
    let recovery = recovery_open_loop(1);
    for threads in THREAD_MATRIX {
        assert_eq!(run(threads).0, reference, "{threads} threads diverged from serial");
        assert_eq!(recovery_open_loop(threads), recovery, "recovery: {threads} threads diverged");
    }
}

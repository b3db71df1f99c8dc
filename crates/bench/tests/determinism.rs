//! Determinism gates for the parallel harness.
//!
//! The contract: `harness all --json` is byte-reproducible — across
//! runs, and across serial vs parallel sweep execution.  These tests
//! pin both properties at the library level (the CI perf-smoke job
//! additionally diffs whole-process output).

use deliba_bench::runner;
use deliba_core::{Engine, EngineConfig, FioSpec, Generation, Mode, Pattern, RwMode, TraceOp};
use deliba_fault::{FaultSchedule, ResiliencePolicy};
use deliba_net::LinkFaultProfile;
use deliba_qdma::DmaFaultProfile;
use deliba_sim::{SimDuration, SimTime};

/// Same seed, same config → bit-identical serialized `RunReport`.  The
/// DeLiBA-K write cell drives `run_trace` with three jobs, so writes
/// from several job streams interleave on the shared timelines.
#[test]
fn same_seed_reports_are_bit_identical() {
    let run = |g, mode, rw| {
        let mut e = Engine::new(EngineConfig::new(g, true, mode));
        let r = e.run_fio(&FioSpec::paper(rw, Pattern::Rand, 4096, 1_500));
        serde_json::to_string(&r).expect("serializable")
    };
    for (g, mode, rw) in [
        (Generation::DeLiBAK, Mode::Replication, RwMode::Write),
        (Generation::DeLiBAK, Mode::ErasureCoding, RwMode::Read),
        (Generation::DeLiBA2, Mode::Replication, RwMode::Read),
    ] {
        assert_eq!(
            run(g, mode, rw),
            run(g, mode, rw),
            "{g:?}/{mode:?}/{rw:?} must reproduce bit-identically"
        );
    }
}

/// Closed-loop writes with interleaved read-backs, in both pool modes:
/// every read verifies against the checksum its write recorded, and the
/// run replays bit-identically.
#[test]
fn mixed_closed_loop_reports_are_bit_identical() {
    let mut ops = Vec::new();
    for i in 0..400u64 {
        ops.push(TraceOp::write(i * 8192, 8192, true));
        if i % 3 == 0 {
            ops.push(TraceOp::read(i * 8192, 8192, true));
        }
    }
    for mode in [Mode::Replication, Mode::ErasureCoding] {
        let run = || {
            let cfg = EngineConfig::new(Generation::DeLiBAK, true, mode);
            let r = Engine::new(cfg).run_trace(vec![ops.clone()], 8);
            assert_eq!(r.verify_failures, 0, "{mode:?}: checksum mismatch");
            serde_json::to_string(&r).expect("serializable")
        };
        assert_eq!(run(), run(), "{mode:?} mixed trace must replay bit-identically");
    }
}

/// Mid-trace faults do not break determinism: the same seed and the
/// same `FaultSchedule` produce a bit-identical serialized `RunReport`
/// — resilience counters included — run after run.
#[test]
fn chaos_run_with_same_seed_and_schedule_is_bit_identical() {
    let ms = |n: u64| SimTime::from_nanos(n * 1_000_000);
    let run = |mode| {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, mode)
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
                .dma_restore(ms(8))
                .card_outage(ms(10), SimDuration::from_millis(3)),
        );
        let mut ops = Vec::new();
        for i in 0..600u64 {
            ops.push(TraceOp::write(i * 4096, 4096, true));
        }
        for i in 0..600u64 {
            ops.push(TraceOp::read(i * 4096, 4096, true));
        }
        let r = e.run_trace(vec![ops], 4);
        assert_eq!(r.verify_failures, 0, "{mode:?}: corruption under chaos");
        let res = r.resilience.expect("chaos runs report resilience");
        assert!(res.retries > 0, "{mode:?}: the schedule must actually bite");
        serde_json::to_string(&r).expect("serializable")
    };
    for mode in [Mode::Replication, Mode::ErasureCoding] {
        assert_eq!(run(mode), run(mode), "{mode:?} chaos must replay bit-identically");
    }
}

/// The chaos experiment is a plain serial function, so `DELIBA_JOBS`
/// and the runner mode must not change a byte of its output — the same
/// guarantee CI pins for the whole harness binary.
#[test]
fn chaos_experiment_ignores_worker_count() {
    std::env::set_var("DELIBA_JOBS", "3");
    runner::set_serial(true);
    let serial = serde_json::to_string(&deliba_bench::chaos()).expect("serializable");
    runner::set_serial(false);
    let parallel = serde_json::to_string(&deliba_bench::chaos()).expect("serializable");
    std::env::remove_var("DELIBA_JOBS");
    assert_eq!(serial, parallel, "chaos output must not depend on worker count");
}

/// A representative sweep (Table II: 20 cells, five engine configs)
/// serializes byte-identically whether cells run on one thread or
/// several.  `DELIBA_JOBS` forces multiple workers even on single-core
/// runners so the parallel path is genuinely exercised.
#[test]
fn serial_and_parallel_sweeps_are_byte_identical() {
    std::env::set_var("DELIBA_JOBS", "3");
    runner::set_serial(true);
    let serial = serde_json::to_string(&deliba_bench::table2()).expect("serializable");
    runner::set_serial(false);
    let parallel = serde_json::to_string(&deliba_bench::table2()).expect("serializable");
    std::env::remove_var("DELIBA_JOBS");
    assert_eq!(serial, parallel, "sweep output must not depend on worker count");
}

/// Full-harness equivalent of the test above — every experiment in
/// `all`, serial vs 4 workers.  Minutes of runtime, so opt-in:
/// `cargo test -p deliba-bench --test determinism -- --ignored`.
#[test]
#[ignore = "minutes of runtime; run explicitly before perf-sensitive changes"]
fn full_harness_serial_vs_parallel() {
    let all = || -> String {
        let exps = vec![
            deliba_bench::table1(),
            deliba_bench::table2(),
            deliba_bench::table3(),
            deliba_bench::fig3(),
            deliba_bench::fig4(),
            deliba_bench::fig6(),
            deliba_bench::fig7(),
            deliba_bench::fig8(),
            deliba_bench::fig9(),
            deliba_bench::power(),
            deliba_bench::realworld(),
            deliba_bench::headline(),
            deliba_bench::dfx(),
            deliba_bench::ablation(),
            deliba_bench::mtu(),
            deliba_bench::breakdown(),
        ];
        serde_json::to_string_pretty(&exps).expect("serializable")
    };
    std::env::set_var("DELIBA_JOBS", "4");
    runner::set_serial(true);
    let serial = all();
    runner::set_serial(false);
    let parallel = all();
    std::env::remove_var("DELIBA_JOBS");
    assert_eq!(serial, parallel);
}

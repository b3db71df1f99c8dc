//! Determinism gates for the parallel harness.
//!
//! The contract: `harness all --json` is byte-reproducible — across
//! runs, and across serial vs parallel sweep execution.  These tests
//! pin both properties at the library level, and pin that the binary's
//! JSON and file exports are exactly what the library returns.

use deliba_bench::{
    loadcurve_with, run_trace_cells, runner, worst_k_table, Experiment, LoadCurveOpts,
};
use deliba_core::{
    Engine, EngineConfig, FioSpec, Generation, Mode, Pattern, RunReport, RwMode, TraceOp,
};
use deliba_fault::{FaultSchedule, ResiliencePolicy};
use deliba_net::LinkFaultProfile;
use deliba_qdma::DmaFaultProfile;
use deliba_sim::{SimDuration, SimTime, TraceDepth};
use std::collections::BTreeMap;
use std::process::Command;
use std::sync::Mutex;

/// Run `f` once on the serial runner and once on `jobs` sweep workers.
/// The runner's serial flag and `DELIBA_JOBS` are process-wide, so the
/// tests that flip them take turns; otherwise one test's serial leg
/// could turn another's parallel leg serial.
fn serial_then_parallel<T>(jobs: &str, f: impl Fn() -> T) -> (T, T) {
    static RUNNER: Mutex<()> = Mutex::new(());
    let _turn = RUNNER.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    std::env::set_var("DELIBA_JOBS", jobs);
    runner::set_serial(true);
    let serial = f();
    runner::set_serial(false);
    let parallel = f();
    std::env::remove_var("DELIBA_JOBS");
    (serial, parallel)
}

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
/// every read verifies against the payload its write recorded, and the
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
            assert_eq!(r.verify_failures, 0, "{mode:?}: verify mismatch");
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

/// Run the `harness` binary with `args`, require exit 0 and return its
/// stdout.
fn harness(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .output()
        .expect("run harness");
    assert!(
        out.status.success(),
        "harness {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("harness stdout is UTF-8")
}

/// Run `harness <args> --out <fresh dir>`, require exit 0 and return
/// its stdout plus every file it wrote, by name.
fn harness_files(args: &[&str], tag: &str) -> (String, BTreeMap<String, String>) {
    let dir = std::env::temp_dir().join(format!("deliba-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("temp dir is UTF-8");
    let stdout = harness(&[args, &["--out", dir_arg]].concat());
    let files = std::fs::read_dir(&dir)
        .expect("harness created the out dir")
        .map(|entry| {
            let path = entry.expect("readable dir entry").path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::read_to_string(&path).expect("exports are UTF-8"))
        })
        .collect();
    std::fs::remove_dir_all(&dir).expect("remove the out dir");
    (stdout, files)
}

/// A report as the file exports write it: pretty JSON plus a newline.
fn report_file(report: &RunReport) -> String {
    serde_json::to_string_pretty(report).expect("serializable") + "\n"
}

/// `got` holds exactly the files of `want`, each byte-identical.
fn assert_same_files(got: &BTreeMap<String, String>, want: &BTreeMap<String, String>) {
    assert_eq!(got.keys().collect::<Vec<_>>(), want.keys().collect::<Vec<_>>(), "file set");
    for (name, body) in want {
        assert!(got[name] == *body, "{name} differs from the library's export");
    }
}

/// `harness trace --out D` writes each cell's Chrome trace and run
/// report and nothing else, each exactly the library's, and prints each
/// cell's ring counts and worst-K table.
#[test]
fn trace_out_writes_each_cells_trace_and_report() {
    let (stdout, files) = harness_files(&["trace"], "trace");
    let mut want = BTreeMap::new();
    for cell in run_trace_cells(TraceDepth::Full) {
        let counts = format!("({} events held, {} dropped)", cell.stats.held, cell.stats.dropped);
        assert!(stdout.contains(&counts), "{}: stdout lacks {counts}", cell.name);
        assert!(stdout.contains(&worst_k_table(&cell)), "{}: worst-K table", cell.name);
        want.insert(format!("trace-{}.report.json", cell.name), report_file(&cell.report));
        want.insert(format!("trace-{}.trace.json", cell.name), cell.chrome);
    }
    assert_same_files(&files, &want);
}

/// `harness timeline --out D` writes the timeline document and its
/// carrier report and nothing else, each exactly the library's.
#[test]
fn timeline_out_writes_the_document_and_report() {
    let (_, files) = harness_files(&["timeline"], "timeline");
    let (_, art) = deliba_bench::timeline();
    let want = BTreeMap::from([
        ("timeline.json".to_string(), art.timeline_json),
        ("timeline.report.json".to_string(), report_file(&art.report)),
    ]);
    assert_same_files(&files, &want);
}

/// The value of the cell labelled exactly `(config, workload)`.
fn measured(exp: &Experiment, config: &str, workload: &str) -> f64 {
    exp.cells
        .iter()
        .find(|c| c.config == config && c.workload == workload)
        .unwrap_or_else(|| panic!("{}: no cell ({config}, {workload})", exp.id))
        .measured
}

/// The chaos experiment is a plain serial function, so `DELIBA_JOBS`
/// and the runner mode must not change a byte of its output — the same
/// guarantee CI pins for the whole harness binary.  Its soak schedule
/// (pinned seed 42) fires every fault class mid-trace, so each mode must
/// also show zero corruption, the retry and failover machinery engaged
/// (nonzero retries, timeouts and FPGA→software failovers) and at least
/// 99 % availability.
#[test]
fn chaos_experiment_ignores_worker_count() {
    let (chaos, parallel) = serial_then_parallel("3", deliba_bench::chaos);
    let serial = serde_json::to_string(&chaos).expect("serializable");
    let parallel = serde_json::to_string(&parallel).expect("serializable");
    assert_eq!(serial, parallel, "chaos output must not depend on worker count");

    let mut modes: Vec<&str> = chaos.cells.iter().map(|c| c.config.as_str()).collect();
    modes.sort_unstable();
    modes.dedup();
    assert!(!modes.is_empty(), "chaos soak produced no cells");
    for m in modes {
        let cell = |workload| measured(&chaos, m, workload);
        assert_eq!(
            cell("verify failures"),
            0.0,
            "{m}: data corruption under chaos"
        );
        assert!(
            cell("retries") > 0.0,
            "{m}: schedule did not engage retries"
        );
        assert!(cell("timeouts") > 0.0, "{m}: no deadline detections");
        assert!(
            cell("fpga failovers") > 0.0,
            "{m}: card outage did not fail over"
        );
        assert!(
            cell("availability") >= 99.0,
            "{m}: availability floor broken"
        );
    }
}

/// The degraded-mode sweeps replay byte-identically, in this process and
/// through `harness recovery --json` and `harness scrub --json`, and keep
/// their headline claims: recovery aggressiveness (`max_active` 1 → 4 → 16)
/// costs foreground p99 against the healthy baseline and buys
/// time-to-clean, every crash recovers data without loss, and every
/// scrub cadence detects and repairs every injected bit-rot flip.
#[test]
fn recovery_and_scrub_replay_and_hold_their_invariants() {
    let json = |e: &Experiment| serde_json::to_string(e).expect("serializable");
    let rec = deliba_bench::recovery();
    assert_eq!(
        json(&rec),
        json(&deliba_bench::recovery()),
        "recovery must replay"
    );
    let scrub = deliba_bench::scrub();
    assert_eq!(
        json(&scrub),
        json(&deliba_bench::scrub()),
        "scrub must replay"
    );
    let cli = |e: &Experiment| {
        serde_json::to_string_pretty(std::slice::from_ref(e)).expect("serializable") + "\n"
    };
    assert_eq!(harness(&["recovery", "--json"]), cli(&rec), "harness recovery --json");
    assert_eq!(harness(&["scrub", "--json"]), cli(&scrub), "harness scrub --json");

    let crash = |n: u32| format!("crash + max_active {n}");
    let base = measured(&rec, "healthy baseline", "foreground p99");
    let p99s: Vec<f64> = [1, 4, 16]
        .map(|n| measured(&rec, &crash(n), "foreground p99"))
        .into();
    let ttcs: Vec<f64> = [1, 4, 16]
        .map(|n| measured(&rec, &crash(n), "time to clean"))
        .into();
    assert!(
        base <= p99s[0] && p99s[0] <= p99s[1] && p99s[1] <= p99s[2],
        "recovery aggressiveness must cost foreground p99: {base} {p99s:?}"
    );
    assert!(
        ttcs[0] >= ttcs[1] && ttcs[1] >= ttcs[2],
        "aggressiveness must buy time-to-clean: {ttcs:?}"
    );
    for n in [1, 4, 16] {
        let cfg = crash(n);
        assert!(
            measured(&rec, &cfg, "objects recovered") > 0.0,
            "{cfg}: nothing recovered"
        );
        assert_eq!(
            measured(&rec, &cfg, "unrecoverable objects"),
            0.0,
            "{cfg}: data loss"
        );
    }

    for mode in ["replication", "erasure-coding"] {
        for us in [50, 400, 1600] {
            let cfg = format!("{mode} scrub {us} µs");
            let injected = measured(&scrub, &cfg, "bitrot injected");
            let detected = measured(&scrub, &cfg, "bitrot detected");
            let repaired = measured(&scrub, &cfg, "bitrot repaired");
            assert!(
                injected > 0.0 && detected == injected && repaired == injected,
                "{cfg}: scrub missed rot ({injected}/{detected}/{repaired})"
            );
        }
    }
}

/// Representative sweeps (Table II: 20 cells, five engine configs;
/// the MTU study) serialize byte-identically whether cells run on one
/// thread or on four, as `harness table2 mtu --json` does with
/// `--serial` and with `DELIBA_JOBS=4`.  `DELIBA_JOBS` forces multiple
/// workers even on single-core runners so the parallel path is
/// genuinely exercised.
#[test]
fn serial_and_parallel_sweeps_are_byte_identical() {
    let sweeps = || {
        let exps = vec![deliba_bench::table2(), deliba_bench::mtu()];
        serde_json::to_string_pretty(&exps).expect("serializable")
    };
    let (serial, parallel) = serial_then_parallel("4", sweeps);
    assert_eq!(serial, parallel, "sweep output must not depend on worker count");
}

/// The open-loop sweep `harness loadcurve --rate 2,8,32,128
/// --admission-cap 64 --json` emits the same reports on one worker and
/// on four, and the binary prints exactly those reports.
#[test]
fn loadcurve_sweep_ignores_worker_count() {
    let opts = LoadCurveOpts {
        rates_kiops: vec![2.0, 8.0, 32.0, 128.0],
        admission_cap: 64,
        ..Default::default()
    };
    let reports = || {
        let (_, reports) = loadcurve_with(&opts);
        serde_json::to_string_pretty(&reports).expect("serializable")
    };
    let (serial, parallel) = serial_then_parallel("4", reports);
    assert_eq!(serial, parallel, "loadcurve output must not depend on worker count");
    let cli = harness(&["loadcurve", "--rate", "2,8,32,128", "--admission-cap", "64", "--json"]);
    assert_eq!(cli, serial + "\n", "harness loadcurve --json");
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
    let (serial, parallel) = serial_then_parallel("4", all);
    assert_eq!(serial, parallel);
}

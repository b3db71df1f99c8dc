//! Flight-recorder determinism and telescoping invariants.
//!
//! * Same-seed runs emit byte-identical Chrome traces and run reports —
//!   including the chaos cell, whose fault instants ride the
//!   deterministic fault plane — and byte-identical timeline exports.
//! * On a fault-free cell, every I/O's span chain is complete (all 11
//!   stages, contiguous, in critical-path order) and the per-I/O sums
//!   telescope exactly to the aggregate `StageBreakdown`.
//! * A disabled recorder is inert: the report is equal field-for-field
//!   to a run that never heard of tracing, and the `stages` depth adds
//!   only the breakdown.
//! * The four cells' Chrome JSON parses with the workspace's own JSON
//!   model, every B has its matching E per (pid, tid) lane, and fault
//!   instants appear exactly in the chaos cell.
//! * `harness trace` refuses a depth without a ring.

use deliba_bench::{run_trace_cells, worst_k_table, WORST_K};
use deliba_core::{Engine, EngineConfig, FioSpec, Generation, Mode, Pattern, RwMode};
use deliba_sim::{Stage, TraceDepth};
use serde::Value;
use std::collections::BTreeSet;

const PROBE_OPS: u64 = 400;

fn probe_spec() -> FioSpec {
    FioSpec::latency_probe(RwMode::Read, Pattern::Rand, 4096, PROBE_OPS)
}

#[test]
fn same_seed_runs_emit_byte_identical_exports() {
    let a = run_trace_cells(TraceDepth::Full);
    let b = run_trace_cells(TraceDepth::Full);
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.name, y.name);
        assert_eq!(x.chrome, y.chrome, "{}: chrome trace not reproducible", x.name);
        assert_eq!(x.report, y.report, "{}: run report not reproducible", x.name);
        assert_eq!(x.stats.held, y.stats.held, "{}", x.name);
        assert_eq!(x.stats.dropped, y.stats.dropped, "{}", x.name);
    }
    // The `timeline` experiment's two exports reproduce too.
    let timeline_files = || {
        let (_, art) = deliba_bench::timeline();
        let report = serde_json::to_string_pretty(&art.report).expect("serializable");
        [art.timeline_json, report]
    };
    assert_eq!(timeline_files(), timeline_files(), "timeline exports not reproducible");
}

#[test]
fn span_chains_telescope_exactly_to_the_breakdown() {
    // Fault-free cell: every op completes on its first attempt, so each
    // chain is one uninterrupted walk of the critical path.
    let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
        .with_trace_depth(TraceDepth::Spans);
    let mut e = Engine::new(cfg);
    let r = e.run_fio(&probe_spec());
    let chains = e.observer().ring(|r| r.span_chains()).expect("ring on");
    assert_eq!(chains.len() as u64, r.ops, "one chain per I/O");

    for chain in &chains {
        assert_eq!(chain.spans.len(), Stage::COUNT, "io {}: all stages present", chain.io);
        for (expected, span) in Stage::ALL.iter().zip(&chain.spans) {
            assert_eq!(span.stage, *expected, "io {}: critical-path order", chain.io);
        }
        for w in chain.spans.windows(2) {
            assert_eq!(
                w[0].end_ns, w[1].begin_ns,
                "io {}: {} must hand off to {} with no gap",
                chain.io,
                w[0].stage.label(),
                w[1].stage.label()
            );
        }
    }

    // Per-stage means from the chains reproduce the aggregate breakdown
    // to f64 round-off, and the chain totals reproduce the mean.
    let b = r.breakdown.as_ref().expect("traced");
    let n = chains.len() as f64;
    for s in Stage::ALL {
        let from_chains = chains.iter().map(|c| c.span_ns(s)).sum::<u64>() as f64 / n / 1_000.0;
        let row = b.stage(s).mean_us;
        assert!(
            (from_chains - row).abs() < 1e-6,
            "{}: chains say {from_chains} µs, breakdown says {row} µs",
            s.label()
        );
    }
    let total = chains.iter().map(|c| c.total_ns()).sum::<u64>() as f64 / n / 1_000.0;
    assert!(
        (total - b.stage_sum_us).abs() < 1e-6,
        "chain totals {total} µs vs stage sum {} µs",
        b.stage_sum_us
    );
}

#[test]
fn disabled_recorder_is_inert() {
    let run = |depth| {
        let cfg =
            EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication).with_trace_depth(depth);
        let mut e = Engine::new(cfg);
        let r = e.run_fio(&probe_spec());
        (e, r)
    };
    let base = Engine::new(EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication))
        .run_fio(&probe_spec());
    let (off_engine, off) = run(TraceDepth::Off);
    assert!(!off_engine.observer().is_on());
    assert_eq!(off, base, "an Off-depth run must be indistinguishable");

    // Recording must not perturb the modeled numbers either — only add
    // the breakdown section (every depth past Off keeps the stages).
    let (_, full) = run(TraceDepth::Full);
    assert_eq!(full.mean_latency_us, base.mean_latency_us);
    assert_eq!(full.p99_latency_us, base.p99_latency_us);
    assert_eq!(full.throughput_mbps, base.throughput_mbps);
    assert_eq!(full.ops, base.ops);
    assert!(full.breakdown.is_some());

    // `Stages` keeps the histograms without a ring: its report is the
    // `Spans` report field for field, breakdown included.
    let (stages_engine, stages) = run(TraceDepth::Stages);
    let (_, spans) = run(TraceDepth::Spans);
    assert!(stages.breakdown.is_some());
    assert_eq!(stages, spans, "stages and spans depths must report identically");
    assert!(stages_engine.observer().ring(|_| ()).is_none(), "no ring at stages depth");
}

/// Every cell's Chrome trace parses, opens and closes each lane's
/// spans in order, and carries fault instants exactly when its cell ran
/// a fault schedule (whose retries land on the timeline too).  Its
/// worst-K table ranks a non-empty ring by end-to-end span.
#[test]
fn chrome_json_parses_with_balanced_spans() {
    let cells = run_trace_cells(TraceDepth::Full);
    assert_eq!(cells.len(), 4, "three probe cells and one chaos cell");
    for cell in &cells {
        let faults = check_chrome(&cell.chrome);
        let want: &[&str] = match cell.name.contains("chaos") {
            true => &["osd_crash", "card_fault", "dfx_swap", "link_degrade"],
            false => &[],
        };
        assert!(want.iter().all(|k| faults.contains(*k)), "{}: {faults:?}", cell.name);
        assert!(!want.is_empty() || faults.is_empty(), "{}: {faults:?}", cell.name);
        assert_eq!(cell.chrome.contains("\"name\":\"retry\""), !want.is_empty(), "{}", cell.name);
        assert!(cell.stats.held > 0 && (1..=WORST_K).contains(&cell.worst.len()), "{}", cell.name);
        assert!(cell.worst.windows(2).all(|w| w[0].total_ns() >= w[1].total_ns()), "{}", cell.name);
        assert!(worst_k_table(cell).contains("slowest:"), "{}", cell.name);
    }
}

/// Check one Chrome trace document; returns its `fault` instants' names.
fn check_chrome(chrome: &str) -> BTreeSet<String> {
    let v: Value = serde_json::from_str(chrome).expect("chrome trace parses as JSON");
    assert!(matches!(v.get("displayTimeUnit"), Some(Value::Str(u)) if u == "ns"));
    let Some(Value::Array(events)) = v.get("traceEvents") else {
        panic!("traceEvents array missing");
    };
    assert!(!events.is_empty());
    let field = |e: &Value, k: &str| -> u64 {
        match e.get(k) {
            Some(Value::UInt(n)) => *n,
            other => panic!("{k} not a uint: {other:?}"),
        }
    };
    let name = |e: &Value| -> String {
        match e.get("name") {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("name not a string: {other:?}"),
        }
    };
    let mut stacks: std::collections::BTreeMap<(u64, u64), Vec<String>> = Default::default();
    let mut metadata = 0;
    let mut faults = BTreeSet::new();
    for e in events {
        let ph = match e.get("ph") {
            Some(Value::Str(s)) => s.as_str(),
            other => panic!("ph missing: {other:?}"),
        };
        match ph {
            "M" => metadata += 1,
            "B" => stacks
                .entry((field(e, "pid"), field(e, "tid")))
                .or_default()
                .push(name(e)),
            "E" => {
                let stack = stacks
                    .get_mut(&(field(e, "pid"), field(e, "tid")))
                    .expect("E without B");
                assert_eq!(stack.pop().as_deref(), Some(name(e).as_str()), "E matches its B");
            }
            "i" if matches!(e.get("cat"), Some(Value::Str(c)) if c == "fault") => {
                faults.insert(name(e));
            }
            "i" | "C" => {}
            other => panic!("unexpected phase {other}"),
        }
    }
    assert_eq!(metadata, 7, "one process_name record per layer");
    assert!(stacks.values().all(Vec::is_empty), "every B closed by run end");
    faults
}

/// `harness trace` records nothing below the ring depths: `off` and
/// `stages` both exit 2 before writing a file.
#[test]
fn trace_depth_without_a_ring_exits_2() {
    for depth in ["off", "stages"] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_harness"))
            .args(["trace", "--trace-depth", depth, "--out"])
            .arg(std::env::temp_dir().join("deliba-trace-depth-refused"))
            .output()
            .expect("harness runs");
        assert_eq!(out.status.code(), Some(2), "{depth}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("nothing to record"), "{depth}: {err}");
    }
}

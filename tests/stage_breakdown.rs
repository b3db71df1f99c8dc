//! Shape-locked regression tests for the per-I/O stage-latency
//! breakdown.
//!
//! These pin the *structure* of the decomposition, not absolute
//! numbers: the stage spans must telescope to the end-to-end mean, the
//! host-path stages must shrink strictly across generations (Fig. 2's
//! narrative), and the two architectural zeros — DeLiBA-K's amortized
//! ring enters and its DMQ bypass — must be exactly zero, not merely
//! small.

use deliba_core::{Engine, EngineConfig, FioSpec, Generation, Mode, Pattern, RunReport, RwMode};
use deliba_sim::{Stage, TraceDepth};

const PROBE_OPS: u64 = 300;

fn traced_engine(g: Generation) -> Engine {
    Engine::new(EngineConfig::new(g, true, Mode::Replication).with_trace_depth(TraceDepth::Stages))
}

fn traced_probe(g: Generation, rw: RwMode) -> RunReport {
    let mut e = traced_engine(g);
    let r = e.run_fio(&FioSpec::latency_probe(rw, Pattern::Rand, 4096, PROBE_OPS));
    assert_eq!(e.verify_failures(), 0);
    r
}

/// Host-path share of the breakdown: the stages the framework
/// generations differ on (API, crossings, MQ, driver, completion).
fn host_stage_sum(r: &RunReport) -> f64 {
    let b = r.breakdown.as_ref().expect("traced");
    [
        Stage::Submit,
        Stage::RingEnter,
        Stage::BlkMq,
        Stage::Uifd,
        Stage::Complete,
    ]
    .iter()
    .map(|&s| b.stage(s).mean_us)
    .sum()
}

#[test]
fn stage_means_sum_to_end_to_end_mean() {
    for g in [Generation::DeLiBA1, Generation::DeLiBA2, Generation::DeLiBAK] {
        for rw in [RwMode::Read, RwMode::Write] {
            let r = traced_probe(g, rw);
            let b = r.breakdown.as_ref().expect("traced run carries a breakdown");
            assert_eq!(b.ops, r.ops, "every op fully traced");
            assert!(
                (b.stage_sum_us - r.mean_latency_us).abs() < 1.0,
                "{g:?} {rw:?}: stage sum {:.3} µs vs e2e mean {:.3} µs",
                b.stage_sum_us,
                r.mean_latency_us
            );
        }
    }
}

/// A reused engine reports each run on its own: the breakdown of a
/// read probe that follows a write probe still adds up to the read's
/// mean, and its hot-path counters match a fresh engine's read.
#[test]
fn reused_engine_reports_each_run_alone() {
    let probe = |rw| FioSpec::latency_probe(rw, Pattern::Rand, 4096, PROBE_OPS);
    let mut reused = traced_engine(Generation::DeLiBAK);
    reused.run_fio(&probe(RwMode::Write));
    let second = reused.run_fio(&probe(RwMode::Read));
    let fresh = traced_probe(Generation::DeLiBAK, RwMode::Read);

    let b = second.breakdown.as_ref().expect("traced");
    assert_eq!(b.ops, second.ops, "the breakdown covers this run's ops only");
    assert!(
        (b.stage_sum_us - second.mean_latency_us).abs() < 1.0,
        "stage sum {:.2} µs vs e2e mean {:.2} µs",
        b.stage_sum_us,
        second.mean_latency_us
    );
    let (c, f) = (second.counters.unwrap(), fresh.counters.unwrap());
    assert_eq!(c.events, f.events, "events count this run only");
    assert_eq!(c.cache_hits + c.cache_misses, f.cache_hits + f.cache_misses);
}

#[test]
fn host_path_stages_shrink_across_generations() {
    for rw in [RwMode::Read, RwMode::Write] {
        let d1 = host_stage_sum(&traced_probe(Generation::DeLiBA1, rw));
        let d2 = host_stage_sum(&traced_probe(Generation::DeLiBA2, rw));
        let dk = host_stage_sum(&traced_probe(Generation::DeLiBAK, rw));
        assert!(d1 > d2, "{rw:?}: D1 {d1:.1} µs must exceed D2 {d2:.1} µs");
        assert!(d2 > dk, "{rw:?}: D2 {d2:.1} µs must exceed DK {dk:.1} µs");
    }
}

#[test]
fn architectural_zeros_are_exact() {
    let dk = traced_probe(Generation::DeLiBAK, RwMode::Read);
    let b = dk.breakdown.as_ref().unwrap();
    assert_eq!(b.stage(Stage::BlkMq).mean_us, 0.0, "DMQ bypass: no MQ scheduler time");
    assert_eq!(b.stage(Stage::RingEnter).mean_us, 0.0, "SQ polling: no ring enters");

    let d1 = traced_probe(Generation::DeLiBA1, RwMode::Read);
    let b1 = d1.breakdown.as_ref().unwrap();
    // 6 crossings × 1.5 µs, identical on every op.
    assert!(
        (b1.stage(Stage::RingEnter).mean_us - 9.0).abs() < 1e-9,
        "D1 ring-enter {:.3} µs must be exactly 6 crossings",
        b1.stage(Stage::RingEnter).mean_us
    );
    assert!(b1.stage(Stage::BlkMq).mean_us > 0.0, "D1 runs the MQ scheduler");
}

#[test]
fn tracing_does_not_perturb_results() {
    let spec = FioSpec::latency_probe(RwMode::Read, Pattern::Rand, 4096, PROBE_OPS);
    let plain = Engine::new(EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication))
        .run_fio(&spec);
    let traced = traced_engine(Generation::DeLiBAK).run_fio(&spec);
    assert!(plain.breakdown.is_none());
    assert!(traced.breakdown.is_some());
    assert_eq!(plain.mean_latency_us, traced.mean_latency_us);
    assert_eq!(plain.p99_latency_us, traced.p99_latency_us);
    assert_eq!(plain.throughput_mbps, traced.throughput_mbps);
    assert_eq!(plain.ops, traced.ops);
}

#[test]
fn quantile_columns_track_the_mean_and_stay_ordered() {
    let r = traced_probe(Generation::DeLiBAK, RwMode::Read);
    let b = r.breakdown.as_ref().unwrap();
    for row in &b.stages {
        assert!(row.p50_us <= row.p95_us, "{}: p50 > p95", row.stage);
        assert!(row.p95_us <= row.p99_us, "{}: p95 > p99", row.stage);
        assert!(row.p99_us <= row.p999_us, "{}: p99 > p99.9", row.stage);
        if row.mean_us == 0.0 {
            // Architectural zeros stay zero at every quantile.
            assert_eq!(row.p50_us, 0.0, "{}: zero stage must have zero p50", row.stage);
            assert_eq!(row.p999_us, 0.0, "{}: zero stage must have zero p99.9", row.stage);
        }
    }
    // The submit cost is near-constant per op at fixed block size, so
    // the interpolated median must land on the mean (within the
    // histogram's one-sub-bucket resolution plus a little queue noise).
    let submit = b.stage(Stage::Submit);
    assert!(submit.mean_us > 0.0);
    assert!(
        (submit.p50_us - submit.mean_us).abs() / submit.mean_us < 0.05,
        "submit p50 {:.3} µs strays from mean {:.3} µs",
        submit.p50_us,
        submit.mean_us
    );
}

#[test]
fn breakdown_exports_all_stages_as_json() {
    let r = traced_probe(Generation::DeLiBAK, RwMode::Read);
    let json = serde_json::to_string(&r).unwrap();
    for s in Stage::ALL {
        assert!(
            json.contains(&format!("\"{}\"", s.label())),
            "JSON must carry the {} stage",
            s.label()
        );
    }
    let back: RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back, r, "report round-trips through JSON");
    let b = back.breakdown.unwrap();
    let labels: Vec<&str> = b.stages.iter().map(|s| s.stage.as_str()).collect();
    let expected: Vec<&str> = Stage::ALL.iter().map(|s| s.label()).collect();
    assert_eq!(labels, expected, "stages stay in critical-path order");
}

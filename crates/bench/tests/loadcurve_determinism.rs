//! Determinism gates for `harness loadcurve`.
//!
//! The contract mirrors `harness all`: the sweep's serialized output —
//! the per-generation `RunReport`s with their `load_curve` sections —
//! is byte-reproducible run to run, and identical whether the
//! (generation × rate) combos run on one worker thread or several.

use deliba_bench::{loadcurve_with, runner, LoadCurveOpts};

/// A small sweep that still crosses every generation's knee, so the
/// determinism check covers the saturated regime (backlogged admission
/// queue, nonzero drops) and not just the easy flat region.
fn small_opts() -> LoadCurveOpts {
    LoadCurveOpts {
        rates_kiops: vec![2.0, 16.0, 128.0],
        admission_cap: 64,
        ops_per_point: 800,
        ..Default::default()
    }
}

fn sweep_json() -> String {
    let (exp, reports) = loadcurve_with(&small_opts());
    // Both harness output shapes: the text-table cells and the JSON
    // reports must each reproduce.
    serde_json::to_string_pretty(&exp).expect("serializable")
        + &serde_json::to_string_pretty(&reports).expect("serializable")
}

/// Same seed, same opts → bit-identical serialized sweep.
#[test]
fn same_seed_sweeps_are_bit_identical() {
    assert_eq!(sweep_json(), sweep_json());
}

/// Worker count is invisible in the bytes: `par_map` over the
/// (generation × rate) combos must return results in combo order
/// regardless of scheduling.
#[test]
fn serial_and_parallel_sweeps_are_byte_identical() {
    std::env::set_var("DELIBA_JOBS", "3");
    runner::set_serial(true);
    let serial = sweep_json();
    runner::set_serial(false);
    let parallel = sweep_json();
    std::env::remove_var("DELIBA_JOBS");
    assert_eq!(serial, parallel, "loadcurve output must not depend on worker count");
}

/// The curves carry the shape the methodology promises: a `load_curve`
/// section per generation, points in sweep order, drops only past
/// saturation, and a visible knee (p99 at the top of the sweep at least
/// 5× the unloaded p99).
#[test]
fn curves_have_sections_points_and_a_knee() {
    let (_, reports) = loadcurve_with(&small_opts());
    assert_eq!(reports.len(), 3, "one report per generation");
    for r in &reports {
        let curve = r.load_curve.as_ref().expect("loadcurve reports carry the section");
        assert_eq!(curve.arrival, "poisson");
        assert_eq!(curve.points.len(), 3);
        assert!(
            curve.points.windows(2).all(|w| w[0].offered_kiops < w[1].offered_kiops),
            "points stay in sweep order"
        );
        let (lo, hi) = (&curve.points[0], &curve.points[curve.points.len() - 1]);
        assert_eq!(lo.dropped, 0, "{}: drops below the knee", r.config);
        assert!(hi.dropped > 0, "{}: top of sweep must sit past saturation", r.config);
        assert!(
            hi.p99_us >= 5.0 * lo.p99_us,
            "{}: no knee — p99 {} µs at {} KIOPS vs {} µs at {} KIOPS",
            r.config,
            hi.p99_us,
            hi.offered_kiops,
            lo.p99_us,
            lo.offered_kiops
        );
    }
}

/// The latency-under-load invariants on CI's sweep (`--rate
/// 2,8,32,128 --admission-cap 64`, 2000 ops per point), all measured
/// from intended arrival so coordinated omission cannot hide a stall:
/// p99 near-monotone in offered load (10 % slack absorbs
/// sub-saturation quantile noise), a saturation knee, drops only past
/// saturation, and every arrival either admitted or dropped.
#[test]
fn ci_sweep_holds_latency_under_load_invariants() {
    const OPS: u64 = 2000;
    let opts = LoadCurveOpts {
        rates_kiops: vec![2.0, 8.0, 32.0, 128.0],
        admission_cap: 64,
        ops_per_point: OPS,
        ..Default::default()
    };
    let (_, reports) = loadcurve_with(&opts);
    assert_eq!(reports.len(), 3, "one report per generation");
    for r in &reports {
        let pts = &r.load_curve.as_ref().expect("load_curve section").points;
        assert_eq!(pts.len(), 4, "{}: one point per rate", r.config);
        let p99s: Vec<f64> = pts.iter().map(|p| p.p99_us).collect();
        for w in p99s.windows(2) {
            assert!(w[1] >= 0.9 * w[0], "{}: p99 fell under load: {p99s:?}", r.config);
        }
        assert!(p99s[3] >= 5.0 * p99s[0], "{}: no saturation knee: {p99s:?}", r.config);
        assert_eq!(pts[0].dropped, 0, "{}: drops below the knee", r.config);
        assert!(pts[3].dropped > 0, "{}: top of sweep never overflowed the cap", r.config);
        for p in pts {
            assert_eq!(p.admitted + p.dropped, OPS, "{}: admission accounting leak", r.config);
        }
    }
}

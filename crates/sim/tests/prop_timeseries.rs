//! Property tests for the telemetry plane: windowed counters telescope
//! to run totals, merged per-window histograms equal the run
//! histogram, annotations survive window bucketing exactly, the SLO
//! accounting balances, and the timeline exporter is a deterministic
//! function of the recorded history.

use deliba_sim::timeseries::MetricsRecorder;
use deliba_sim::{
    GaugeSnapshot, Histogram, InstantKind, SimDuration, SimTime, TelemetryConfig,
};
use proptest::prelude::*;

/// One step of a recorded history.
#[derive(Debug, Clone)]
enum Rec {
    /// An op completing at `at` with the given latency and payload.
    Op { at: u64, latency: u64, bytes: u64 },
    /// An arrival dropped at admission at `at`.
    Drop { at: u64 },
    /// A fault firing at `at`.
    Fault { at: u64, detail: u64 },
}

fn op() -> impl Strategy<Value = Rec> {
    (0u64..5_000_000, 1u64..2_000_000, 512u64..1_048_576)
        .prop_map(|(at, latency, bytes)| Rec::Op { at, latency, bytes })
}

// The vendored proptest shim's union is unweighted; repeating the op
// arm biases histories toward completions without weights.
fn rec() -> impl Strategy<Value = Rec> {
    prop_oneof![
        op(),
        op(),
        op(),
        (0u64..5_000_000).prop_map(|at| Rec::Drop { at }),
        (0u64..5_000_000, 0u64..16).prop_map(|(at, detail)| Rec::Fault { at, detail }),
    ]
}

/// Feed a history into a fresh recorder and return it finished,
/// alongside independently tallied ground truth.
fn replay(history: &[Rec], cfg: TelemetryConfig) -> (MetricsRecorder, u64, u64, Histogram, u64) {
    let mut r = MetricsRecorder::new(cfg);
    let (mut ops, mut drops, mut faults) = (0u64, 0u64, 0u64);
    let mut hist = Histogram::new();
    let mut end = SimTime::ZERO;
    for step in history {
        match *step {
            Rec::Op { at, latency, bytes } => {
                let (t, l) = (SimTime::from_nanos(at), SimDuration::from_nanos(latency));
                r.op(t, l, bytes);
                hist.record(l);
                ops += 1;
                end = end.max(t);
            }
            Rec::Drop { at } => {
                let t = SimTime::from_nanos(at);
                r.drop_op(t);
                drops += 1;
                end = end.max(t);
            }
            Rec::Fault { at, detail } => {
                let t = SimTime::from_nanos(at);
                r.annotate(t, InstantKind::OsdCrash, detail);
                faults += 1;
                end = end.max(t);
            }
        }
    }
    r.finish(end, GaugeSnapshot::default());
    (r, ops, drops, hist, faults)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Per-window counters telescope to the run totals, the merged
    /// window histograms equal the directly recorded run histogram,
    /// and every annotation lands in the window its instant indexes.
    #[test]
    fn windows_telescope_to_run_totals(
        history in proptest::collection::vec(rec(), 1..300),
    ) {
        let (r, ops, drops, hist, faults) = replay(&history, TelemetryConfig::default());
        let width = r.width_ns();

        let win_ops: u64 = r.windows().iter().map(|w| w.ops).sum();
        let win_drops: u64 = r.windows().iter().map(|w| w.drops).sum();
        prop_assert_eq!(win_ops, ops, "window ops must telescope");
        prop_assert_eq!(win_drops, drops, "window drops must telescope");
        prop_assert_eq!(r.total_ops(), ops);
        prop_assert_eq!(r.total_drops(), drops);
        prop_assert_eq!(r.merged_histogram(), hist, "merged window hists == run hist");

        let anns = r.annotations();
        prop_assert_eq!(anns.len() as u64, faults, "annotations == fault firings");
        for (i, w) in r.windows().iter().enumerate() {
            for a in &w.annotations {
                prop_assert_eq!(
                    (a.at.as_nanos() / width) as usize, i,
                    "annotation bucketed into the wrong window"
                );
            }
        }
    }

    /// The SLO roll-up balances: total events equal completions plus
    /// drops, bad ops never exceed the total, attainment is a valid
    /// fraction, and attained windows count exactly the windows whose
    /// bad share stays within budget.
    #[test]
    fn slo_accounting_balances(
        history in proptest::collection::vec(rec(), 1..300),
    ) {
        let cfg = TelemetryConfig::default();
        let (r, ops, drops, _, _) = replay(&history, cfg);
        let slo = r.slo();
        prop_assert_eq!(slo.total_ops, ops + drops);
        prop_assert!(slo.bad_ops <= slo.total_ops);
        prop_assert!((0.0..=1.0).contains(&slo.attainment));
        prop_assert!(slo.attained_windows <= slo.windows);
        prop_assert_eq!(slo.windows as usize, r.windows().len());
        prop_assert_eq!(slo.burn.len(), r.windows().len());
        let bad: u64 = r.windows().iter().map(|w| w.slo_bad(cfg.slo_p99)).sum();
        prop_assert_eq!(slo.bad_ops, bad, "bad ops telescope over windows");
        // Every alert fires at a window close and clears (if it does)
        // strictly later.
        for a in &slo.alerts {
            prop_assert_eq!(a.fired.as_nanos(), (a.fired_window + 1) * r.width_ns());
            if let (Some(c), Some(cw)) = (a.cleared, a.cleared_window) {
                prop_assert!(cw > a.fired_window);
                prop_assert_eq!(c.as_nanos(), (cw + 1) * r.width_ns());
            }
        }
    }

    /// The exporter is a pure function of the history: replaying the
    /// same steps yields a byte-identical timeline JSON.
    #[test]
    fn exporters_are_deterministic(
        history in proptest::collection::vec(rec(), 1..200),
    ) {
        let cfg = TelemetryConfig::default();
        let (a, ..) = replay(&history, cfg);
        let (b, ..) = replay(&history, cfg);
        prop_assert_eq!(a.timeline_json(), b.timeline_json());
    }
}

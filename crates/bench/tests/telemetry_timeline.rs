//! Engine-level gates for the telemetry plane.
//!
//! Four contracts: (1) the windowed series telescopes exactly to the
//! run's own accounting — window ops sum to the report's completions,
//! merged window histograms equal the run histogram, and annotations
//! mirror the fault plane's firings; (2) recording telemetry never
//! perturbs the simulation — a telemetry-on report minus its SLO
//! section is byte-identical to the telemetry-off report; (3) the
//! exported series is byte-identical across the thread matrix, because
//! windows key off completion instants and gauges sample at monotone
//! pop times; (4) the `timeline` experiment's exported document alone
//! re-derives its alert invariants.

use deliba_bench::{timeline, timeline_with, TimelineOpts};
use deliba_cluster::RecoveryPolicy;
use deliba_core::{ArrivalOp, Engine, EngineConfig, Generation, Mode, TraceOp};
use deliba_fault::{FaultSchedule, ResiliencePolicy};
use deliba_net::LinkFaultProfile;
use deliba_sim::{InstantKind, SimDuration, SimTime, TelemetryConfig};
use serde::Value;

const THREAD_MATRIX: [usize; 3] = [1, 2, 8];

fn ms(n: u64) -> SimTime {
    SimTime::from_nanos(n * 1_000_000)
}

fn chaos_trace() -> Vec<TraceOp> {
    let mut ops = Vec::new();
    for i in 0..600u64 {
        ops.push(TraceOp::write(i * 4096, 4096, true));
        if i % 3 == 0 {
            ops.push(TraceOp::read(i * 4096, 4096, true));
        }
    }
    ops
}

fn chaos_schedule() -> FaultSchedule {
    FaultSchedule::new()
        .osd_flap(ms(1), 9, SimDuration::from_millis(2))
        .link_degrade(ms(2), LinkFaultProfile { drop_p: 0.1, corrupt_p: 0.02 })
        .link_restore(ms(4))
}

fn chaos_engine(telemetry: bool, threads: usize) -> Engine {
    let mut cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
        .with_resilience(ResiliencePolicy::default())
        .with_sim_threads(threads);
    if telemetry {
        cfg = cfg.with_telemetry(TelemetryConfig::default());
    }
    let mut e = Engine::new(cfg);
    e.set_fault_schedule(chaos_schedule());
    e
}

/// Window counters telescope to the run's own accounting, and the
/// annotation stream mirrors the fault schedule's firings exactly.
#[test]
fn windows_telescope_to_report_totals() {
    let mut e = chaos_engine(true, 1);
    let report = e.run_trace(vec![chaos_trace()], 8);
    assert_eq!(report.verify_failures, 0);

    let run_hist = e.last_histogram().expect("telemetry retains the run histogram").clone();
    e.observer()
        .telemetry(|r| {
            let win_ops: u64 = r.windows().iter().map(|w| w.ops).sum();
            assert_eq!(win_ops, r.total_ops(), "window ops must telescope");
            assert_eq!(r.total_ops(), run_hist.count(), "telemetry ops == report ops");
            assert_eq!(r.total_drops(), 0, "closed loops never drop at admission");
            assert_eq!(r.merged_histogram(), run_hist, "merged window hists == run hist");

            // The schedule fires exactly four instants, in firing
            // order: crash (1 ms), degrade (2 ms), the flap's revive
            // (3 ms), restore (4 ms).
            let kinds: Vec<InstantKind> = r.annotations().iter().map(|a| a.kind).collect();
            assert_eq!(
                kinds,
                vec![
                    InstantKind::OsdCrash,
                    InstantKind::LinkDegrade,
                    InstantKind::OsdRevive,
                    InstantKind::LinkRestore,
                ],
                "annotations mirror the fault plane's firings in order"
            );
            // Faults apply at the first event popped at-or-after
            // their scheduled instant, so the annotation stamps the
            // actual application time, not the schedule's.
            let crash = r.annotations()[0];
            assert!(crash.at >= ms(1) && crash.at < ms(2), "crash applied near 1 ms: {crash:?}");
            assert_eq!(crash.detail, 9, "the crash annotation carries the OSD id");
        })
        .expect("telemetry is on");

    let slo = report.slo.expect("telemetry-on runs report an SLO section");
    assert!(slo.windows > 0);
    assert_eq!(slo.total_ops, run_hist.count(), "no drops: SLO total == completions");
}

/// Recording telemetry is observation only: the report with its SLO
/// section stripped is byte-identical to a telemetry-off run.
#[test]
fn telemetry_never_perturbs_the_run() {
    let off = chaos_engine(false, 1).run_trace(vec![chaos_trace()], 8);
    let mut on = chaos_engine(true, 1).run_trace(vec![chaos_trace()], 8);
    assert!(off.slo.is_none(), "telemetry defaults off");
    assert!(on.slo.is_some(), "telemetry-on runs must report an SLO section");
    on.slo = None;
    assert_eq!(
        serde_json::to_string(&on).unwrap(),
        serde_json::to_string(&off).unwrap(),
        "telemetry changed the simulation"
    );
}

/// The exported series — timeline JSON, CSV, Prometheus, and the SLO
/// section — is byte-identical across {1, 2, 8} worker threads, for
/// both run loops.
#[test]
fn series_is_invariant_under_the_thread_matrix() {
    let stream: Vec<ArrivalOp> = (0..1_500u64)
        .map(|i| ArrivalOp {
            at: SimTime::from_nanos(i * 600),
            op: if i % 4 == 3 {
                TraceOp::read((i % 256) * 4096, 4096, true)
            } else {
                TraceOp::write((i % 256) * 4096, 4096, true)
            },
        })
        .collect();
    let run = |threads: usize| {
        // Closed loop under chaos.
        let mut e = chaos_engine(true, threads);
        let report = e.run_trace(vec![chaos_trace()], 8);
        let mut series = e
            .observer()
            .telemetry(|r| (r.timeline_json(), r.csv(), r.prom_series("cfg", "closed")))
            .expect("telemetry is on");
        let closed_slo = serde_json::to_string(&report.slo).unwrap();
        // Open loop with admission drops.
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_sim_threads(threads)
            .with_telemetry(TelemetryConfig::default());
        let mut e = Engine::new(cfg);
        let out = e.run_open_loop(&stream, 8);
        assert!(out.point.dropped > 0, "the cap must actually drop arrivals");
        let open = e.observer().telemetry(|r| r.timeline_json()).expect("telemetry is on");
        // Open loop over 128 objects with a crash and recovery armed
        // (the `timeline` experiment's shape).
        let storm_stream: Vec<ArrivalOp> = (0..1_500u64)
            .map(|i| ArrivalOp {
                at: SimTime::from_nanos(i * 600),
                op: TraceOp { write: i < 750, ..TraceOp::read((i % 128) * (4 << 20), 4096, true) },
            })
            .collect();
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_sim_threads(threads)
            .with_resilience(ResiliencePolicy::default())
            .with_recovery(RecoveryPolicy::with_max_active(16))
            .with_telemetry(TelemetryConfig::default());
        let mut e = Engine::new(cfg);
        e.set_fault_schedule(FaultSchedule::new().osd_crash(SimTime::from_nanos(300_000), 9));
        let run = e.run_open_loop(&storm_stream, 256);
        assert!(run.report.recovery.expect("armed").objects_recovered > 0);
        let storm = e
            .observer()
            .telemetry(|r| (r.timeline_json(), r.chrome_json()))
            .expect("telemetry is on");
        series.0.push_str(&closed_slo);
        series.0.push_str(&open);
        series.0.push_str(&storm.0);
        series.0.push_str(&storm.1);
        series
    };
    let reference = run(1);
    for threads in THREAD_MATRIX {
        assert_eq!(run(threads), reference, "{threads} threads diverged from serial");
    }
}

fn num(v: Option<&Value>) -> f64 {
    match v {
        Some(Value::UInt(u)) => *u as f64,
        Some(Value::Float(f)) => *f,
        other => panic!("not a number: {other:?}"),
    }
}

fn list(v: Option<&Value>) -> &[Value] {
    match v {
        Some(Value::Array(a)) => a,
        other => panic!("not an array: {other:?}"),
    }
}

/// The `timeline` experiment's exported document re-derives its alert
/// invariants: replaying the 3/12-window burn-rate state machine over
/// the `burn` column reproduces the alert list; the first alert fires
/// within 12 ms of the crash and clears by the clean instant plus the
/// short window's lag; the windows add up to the SLO roll-up.  Finer
/// window/SLO knobs reach the recorder.
#[test]
fn timeline_export_rederives_the_alert_invariants() {
    let (_, art) = timeline();
    let tl: Value = serde_json::from_str(&art.timeline_json).expect("timeline JSON parses");
    let (slo, wins) = (tl.get("slo").expect("slo section"), list(tl.get("windows")));
    let width_us = num(tl.get("window_us"));
    let (short_n, long_n) = (num(slo.get("short_windows")), num(slo.get("long_windows")));
    let thr = num(slo.get("burn_threshold"));
    let burn: Vec<f64> = wins.iter().map(|w| num(w.get("burn"))).collect();
    let mean = |i: usize, span: f64| {
        let lo = (i + 1).saturating_sub(span as usize);
        burn[lo..=i].iter().sum::<f64>() / (i + 1 - lo) as f64
    };
    let mut replayed: Vec<(f64, Option<f64>)> = Vec::new();
    for i in 0..burn.len() {
        let firing = replayed.last().is_some_and(|a| a.1.is_none());
        if !firing && mean(i, short_n) >= thr && mean(i, long_n) >= thr {
            replayed.push((i as f64, None));
        } else if firing && mean(i, short_n) < thr {
            replayed.last_mut().expect("firing").1 = Some(i as f64);
        }
    }
    let alerts = list(slo.get("alerts"));
    let cleared = |a: &Value| match a.get("cleared_window") {
        Some(Value::Null) => None,
        w => Some(num(w)),
    };
    let exported: Vec<(f64, Option<f64>)> =
        alerts.iter().map(|a| (num(a.get("fired_window")), cleared(a))).collect();
    assert_eq!(exported, replayed, "alert replay diverged from the export");

    let is_crash = |a: &&Value| matches!(a.get("kind"), Some(Value::Str(k)) if k == "osd_crash");
    let crashes: Vec<&Value> = list(tl.get("annotations")).iter().filter(is_crash).collect();
    assert_eq!(crashes.len(), 1, "exactly one crash annotation");
    let (fired, cleared) = exported[0];
    let lag_us = (fired - num(crashes[0].get("window"))) * width_us;
    assert!((0.0..=12_000.0).contains(&lag_us), "alert lag {lag_us} µs");
    assert!(cleared.expect("the crash alert clears") > fired);
    let ttc_us = art.report.recovery.expect("recovery armed").time_to_clean_us;
    let bound_us = num(crashes[0].get("at_ns")) / 1e3 + ttc_us + (short_n + 2.0) * width_us;
    let cleared_us = num(alerts[0].get("cleared_ns")) / 1e3;
    assert!(cleared_us <= bound_us, "cleared at {cleared_us} µs, bound {bound_us} µs");

    let events: f64 = wins.iter().map(|w| num(w.get("ops")) + num(w.get("drops"))).sum();
    assert_eq!(events, num(slo.get("total_ops")), "window events != SLO total");
    let attained = burn.iter().filter(|&&b| b <= 1.0).count() as f64;
    assert_eq!(attained, num(slo.get("attained_windows")));
    assert!(num(slo.get("bad_ops")) > 0.0 && num(slo.get("attainment")) < 1.0, "the storm burns");

    let (_, fine) = timeline_with(&TimelineOpts { window_us: 250, slo_p99_us: 300 });
    let fine: Value = serde_json::from_str(&fine.timeline_json).expect("parses");
    let fine_slo = fine.get("slo").expect("slo section");
    assert_eq!((num(fine.get("window_us")), num(fine_slo.get("target_p99_us"))), (250.0, 300.0));
    assert!(num(fine_slo.get("windows")) > num(slo.get("windows")), "finer windows, more of them");
}

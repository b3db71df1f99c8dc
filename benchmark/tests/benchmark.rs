//! The benchmark's own tests, at a small `scale` so they run in seconds.

use deliba_benchmark::alloc::CountingAlloc;
use deliba_benchmark::bench::{self, Options, END_TO_END, PER_LAYER};
use deliba_benchmark::checks;
use deliba_benchmark::measure::{engine_rep, RunOutcome};
use deliba_benchmark::model::{self, ModelProbe};
use deliba_benchmark::replay::Replay;
use deliba_benchmark::spans::Layer;
use deliba_benchmark::workloads::{Load, Workload};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const SCALE: f64 = 0.05;

fn outcome(w: Workload, seed: u64) -> RunOutcome {
    engine_rep(w, seed, SCALE).outcome
}

#[test]
fn same_seed_repeats_exactly() {
    for w in Workload::ALL {
        let (a, b) = (outcome(w, 7), outcome(w, 7));
        assert_eq!(a, b, "{}: deterministic outcome", w.name());
        assert_eq!(a.digest(), b.digest(), "{}", w.name());
        assert!(
            a.run_allocs > 0 && a.peak_heap > 0,
            "{}: allocator counted",
            w.name()
        );
    }
}

#[test]
fn different_seeds_differ() {
    for w in Workload::ALL {
        assert_ne!(
            outcome(w, 1).digest(),
            outcome(w, 2).digest(),
            "{}",
            w.name()
        );
    }
}

#[test]
fn replay_matches_engine_on_every_workload() {
    for w in Workload::ALL {
        let engine = outcome(w, 3);
        let replay = Replay::new(w.config(), true).run(w.inputs(3, SCALE));
        assert_eq!(
            checks::fidelity(&engine, &replay),
            Vec::<String>::new(),
            "{}",
            w.name()
        );
        assert_eq!(replay.ops, engine.report.ops, "{}", w.name());
        assert_eq!(
            replay.mean_latency_us,
            engine.report.mean_latency_us,
            "{}",
            w.name()
        );
    }
}

#[test]
fn every_check_passes_on_every_workload() {
    for w in Workload::ALL {
        let o = outcome(w, 5);
        assert_eq!(checks::run(&o), Vec::<String>::new(), "{}", w.name());
        assert_eq!(o.failed(), 0, "{}: no op fails", w.name());
    }
    for w in [Workload::EngineRandread, Workload::EcRandwrite] {
        assert_eq!(checks::model(&model::probe(w.mode())), Vec::<String>::new());
    }
}

#[test]
fn each_check_fires_on_a_corrupted_report() {
    let good = outcome(Workload::DegradedScrub, 5);
    assert!(checks::run(&good).is_empty());
    type Corruption = (&'static str, fn(&mut RunOutcome));
    let corruptions: [Corruption; 6] = [
        ("verify_failures", |o| o.report.verify_failures = 1),
        ("offered", |o| o.dropped += 1),
        ("completed", |o| o.report.ops -= 1),
        ("unrecoverable", |o| {
            o.report.recovery.as_mut().unwrap().unrecoverable = 1
        }),
        ("bitrot_repaired", |o| {
            o.report.recovery.as_mut().unwrap().bitrot_repaired -= 1
        }),
        ("still corrupt", |o| o.corrupted_copies = 1),
    ];
    for (what, corrupt) in corruptions {
        let mut bad = good.clone();
        corrupt(&mut bad);
        let failures = checks::run(&bad);
        assert!(
            failures.iter().any(|f| f.contains(what)),
            "{what}: {failures:?}"
        );
    }

    let probe = ModelProbe {
        latency_us: [0.0; 4],
        error_pct: 0.0,
        drift: 0.02,
    };
    assert!(checks::model(&probe)[0].contains("model_drift"));
    assert!(checks::repeatable(&[1, 1, 2])[0].contains("disagree"));

    let replay = Replay::new(Workload::DegradedScrub.config(), false)
        .run(Workload::DegradedScrub.inputs(5, SCALE));
    assert!(checks::fidelity(&good, &replay).is_empty());
    let mut off = replay;
    off.mean_latency_us *= 1.03;
    off.scrub_objects += 1_000;
    let failures = checks::fidelity(&good, &off);
    assert!(
        failures.iter().any(|f| f.contains("mean latency")),
        "{failures:?}"
    );
    assert!(
        failures.iter().any(|f| f.contains("scrub objects")),
        "{failures:?}"
    );
}

#[test]
fn faults_stay_inside_scaled_runs() {
    for scale in [0.01, 0.1, 1.0] {
        let inputs = Workload::DegradedScrub.inputs(11, scale);
        let Load::Open { stream, .. } = &inputs.load else {
            panic!("open loop")
        };
        let last = stream.last().unwrap().at;
        let faults = inputs.faults.expect("degraded-scrub schedules faults");
        assert_eq!(faults.len(), 2);
        assert!(
            faults.events().iter().all(|f| f.at <= last),
            "scale {scale}"
        );
    }
    let o = engine_rep(Workload::DegradedScrub, 11, 0.01).outcome;
    let res = o.report.resilience.unwrap();
    let rec = o.report.recovery.unwrap();
    assert_eq!(res.osd_crashes, 1);
    assert!(
        rec.bitrot_injected > 0 && rec.bitrot_repaired == rec.bitrot_injected,
        "{rec:?}"
    );
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let opts = Options {
        workload: Workload::OltpOpen,
        seed: 1,
        seconds: 0.0,
        trace: false,
        scale: SCALE,
    };
    let out = bench::run(&opts);
    assert!(out.failures.is_empty(), "{:?}", out.failures);
    assert_eq!(out.reps, bench::MIN_REPS);
    let names: Vec<_> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(names, END_TO_END);
    assert!(
        out.metrics.iter().all(|m| m.value > 0.0),
        "{:?}",
        out.metrics
    );
    let offered = Workload::OltpOpen.inputs(1, SCALE).load.len();
    assert_eq!(out.attempted, bench::MIN_REPS as u64 * offered);
    assert_eq!(out.failed, 0);
}

#[test]
fn traced_run_reports_every_layer_metric() {
    for w in Workload::ALL {
        let scale = if w == Workload::DegradedScrub {
            0.5
        } else {
            SCALE
        };
        let opts = Options {
            workload: w,
            seed: 2,
            seconds: 0.0,
            trace: true,
            scale,
        };
        let out = bench::run(&opts);
        assert!(out.failures.is_empty(), "{}: {:?}", w.name(), out.failures);
        let names: Vec<_> = out.metrics.iter().map(|m| (m.name, m.unit)).collect();
        assert_eq!(names, PER_LAYER, "{}", w.name());
        let get = |name: &str| out.metrics.iter().find(|m| m.name == name).unwrap().value;
        assert_eq!(
            get("ec.encode_ns_per_write") > 0.0,
            w == Workload::EcRandwrite,
            "{}",
            w.name()
        );
        assert!(get("engine.ns_per_op") > 0.0 && get("sim.queue_ns_per_op") > 0.0);
        let spans = out.spans.expect("traced runs keep spans");
        assert!(!spans.kept().is_empty(), "sampled spans kept");
        assert!(spans.chrome_json().starts_with("{\"traceEvents\":["));
        if w == Workload::DegradedScrub {
            let share = spans.self_ns(Layer::Scrub) as f64 / spans.total_ns() as f64;
            assert!(share >= 0.9, "scrub share of traced host time {share}");
        }
    }
}

#[test]
fn benchmark_json_declares_what_the_program_prints() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc: serde::Value = serde_json::from_str(&text).expect("valid JSON");
    let list = |key: &str| -> Vec<(String, String)> {
        let serde::Value::Array(items) = doc.get(key).expect(key) else {
            panic!("{key} is a list")
        };
        items
            .iter()
            .map(|m| {
                let field = |k: &str| match m.get(k) {
                    Some(serde::Value::Str(s)) => s.clone(),
                    _ => String::new(),
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |specs: &[(&str, &str)]| -> Vec<(String, String)> {
        specs
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(list("end_to_end"), owned(&END_TO_END));
    assert_eq!(list("per_layer"), owned(&PER_LAYER));
    let workloads: Vec<String> = list("workloads").into_iter().map(|(n, _)| n).collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
}

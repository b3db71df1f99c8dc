//! One benchmark run: probes, warm-up, then repetitions until the time
//! budget is spent, reduced to the metrics `BENCHMARK.json` declares.
//!
//! End-to-end metrics always come from the untraced engine.  A traced
//! run adds, after each engine repetition, one traced and one untraced
//! layer replay of the same inputs; the per-layer metrics come from
//! those and from the engine's own counters.  Every host time is
//! rescaled to the reference clock (see [`crate::clock`]) and reduced
//! to the median over the repetitions.

use crate::checks;
use crate::clock;
use crate::measure::{engine_rep, EngineRep};
use crate::model;
use crate::replay::{Replay, ReplayOutcome};
use crate::spans::{Layer, Spans};
use crate::workloads::Workload;
use std::time::Instant;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("sim_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("model_error_pct", "%"),
];

/// `(name, unit)` of every per-layer metric, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("sim.queue_ns_per_op", "ns"),
    ("sim.events_per_op", "count"),
    ("core.hostpath_ns_per_op", "ns"),
    ("qdma.pcie_ns_per_op", "ns"),
    ("crush.place_ns_per_op", "ns"),
    ("crush.cache_hit_rate", "ratio"),
    ("crush.walks_per_kop", "count"),
    ("fpga.place_ns_per_op", "ns"),
    ("ec.encode_ns_per_write", "ns"),
    ("net.tcp_ns_per_op", "ns"),
    ("cluster.io_ns_per_op", "ns"),
    ("cluster.osd_ops_per_op", "count"),
    ("cluster.recovery_ns_per_object", "ns"),
    ("cluster.scrub_ns_per_object", "ns"),
    ("cluster.objects_recovered", "count"),
    ("cluster.scrub_objects", "count"),
    ("cluster.bitrot_repaired", "count"),
    ("cluster.time_to_clean_ms", "ms"),
    ("fault.timeouts_per_kop", "count"),
    ("fault.retries_per_kop", "count"),
    ("workload.generate_ns_per_op", "ns"),
    ("alloc.allocs_per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("engine.ns_per_op", "ns"),
    ("engine.unattributed_ns_per_op", "ns"),
    ("trace.overhead_frac", "ratio"),
    ("host.runq_wait_s", "s"),
    ("host.cpu_util", "ratio"),
    ("host.clock_ratio", "ratio"),
];

/// Measured repetitions made even when the time budget is already spent.
pub const MIN_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Time budget for the measured repetitions, s.
    pub seconds: f64,
    /// Run the layer replay and report per-layer metrics.
    pub trace: bool,
    /// Multiplier on every repetition's op count.
    pub scale: f64,
}

/// A named, unit-carrying value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value.
    pub value: f64,
}

/// The result of one run.
pub struct Outcome {
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Ops offered over the measured repetitions.
    pub attempted: u64,
    /// Ops that failed: drops, exhausted retries, verify failures.
    pub failed: u64,
    /// Failed checks; empty when the run is correct.
    pub failures: Vec<String>,
    /// Digest of the repetitions' deterministic outcome.
    pub digest: u64,
    /// Measured engine repetitions.
    pub reps: usize,
    /// Spans of the last traced replay (traced runs only).
    pub spans: Option<Spans>,
}

/// Per-layer numbers of one traced replay, at the reference clock.
struct LayerSample {
    /// Self ns per op (per write for EC encode, per object for
    /// recovery and scrub), indexed like `Layer::ALL`.
    per_unit: [f64; Layer::ALL.len()],
    traced_wall_s: f64,
    untraced_wall_s: f64,
}

/// Run `opts` to completion.
pub fn run(opts: &Options) -> Outcome {
    let w = opts.workload;
    let probe = model::probe(w.mode());
    let mut failures = checks::model(&probe);

    // The first repetition in a process pays page-fault and allocator
    // costs that are not the engine's: warm up at a fifth of the size.
    engine_rep(w, opts.seed, opts.scale / 5.0);
    if opts.trace {
        Replay::new(w.config(), true).run(w.inputs(opts.seed, opts.scale / 5.0));
    }

    let host0 = sched();
    let t0 = Instant::now();
    let mut reps: Vec<EngineRep> = Vec::new();
    let mut layers: Vec<LayerSample> = Vec::new();
    let mut last_spans = None;
    while reps.len() < MIN_REPS || t0.elapsed().as_secs_f64() < opts.seconds {
        let rep = engine_rep(w, opts.seed, opts.scale);
        if opts.trace {
            let ((out, spans), traced_clock) = clock::around(|| {
                let mut traced = Replay::new(w.config(), true);
                let out = traced.run(w.inputs(opts.seed, opts.scale));
                (out, traced.spans)
            });
            failures.extend(checks::fidelity(&rep.outcome, &out));
            let (plain, plain_clock) = clock::around(|| {
                Replay::new(w.config(), false).run(w.inputs(opts.seed, opts.scale))
            });
            layers.push(layer_sample(
                &spans,
                &out,
                traced_clock,
                plain.wall_s / plain_clock,
            ));
            last_spans = Some(spans);
        }
        reps.push(rep);
    }
    let wall = t0.elapsed().as_secs_f64();
    let host = sched()
        .zip(host0)
        .map(|((cpu1, q1), (cpu0, q0))| (cpu1 - cpu0, q1 - q0));

    let first = &reps[0].outcome;
    failures.extend(checks::run(first));
    let digests: Vec<u64> = reps.iter().map(|r| r.outcome.digest()).collect();
    failures.extend(checks::repeatable(&digests));
    dedup(&mut failures);

    let metrics = if opts.trace {
        per_layer(&reps, &layers, host, wall)
    } else {
        let values = [
            median(reps.iter().map(|r| first.report.ops as f64 / r.run_s)),
            median(reps.iter().map(|r| r.setup_s)),
            first.peak_heap as f64 / 1e6,
            probe.error_pct,
        ];
        named(&END_TO_END, &values)
    };
    Outcome {
        metrics,
        attempted: reps.iter().map(|r| r.outcome.offered).sum(),
        failed: reps.iter().map(|r| r.outcome.failed()).sum(),
        failures,
        digest: digests[0],
        reps: reps.len(),
        spans: last_spans,
    }
}

fn layer_sample(
    spans: &Spans,
    out: &ReplayOutcome,
    clock: f64,
    untraced_wall_s: f64,
) -> LayerSample {
    let per = |n: u64, layer: Layer| {
        if n == 0 {
            0.0
        } else {
            spans.self_ns(layer) as f64 / n as f64 / clock
        }
    };
    let mut per_unit = [0.0; Layer::ALL.len()];
    for (slot, layer) in per_unit.iter_mut().zip(Layer::ALL) {
        *slot = match layer {
            Layer::EcEncode => per(out.writes, layer),
            Layer::Recovery => per(out.objects_recovered, layer),
            Layer::Scrub => per(out.scrub_objects, layer),
            _ => per(out.ops, layer),
        };
    }
    LayerSample {
        per_unit,
        traced_wall_s: out.wall_s / clock,
        untraced_wall_s,
    }
}

fn per_layer(
    reps: &[EngineRep],
    layers: &[LayerSample],
    host: Option<(u64, u64)>,
    wall: f64,
) -> Vec<Metric> {
    let o = &reps[0].outcome;
    let r = &o.report;
    let ops = r.ops.max(1) as f64;
    let layer = |l: Layer| median(layers.iter().map(|s| s.per_unit[l as usize]));
    let counters = r.counters.expect("engine reports carry counters");
    let rec = r.recovery.unwrap_or_default();
    let res = r.resilience.unwrap_or_default();
    let engine_ns = median(reps.iter().map(|rep| rep.run_s * 1e9 / ops));
    // Σ layer self time per op; the per-write and per-object layers are
    // brought back to per-op with this run's deterministic counts.
    let attributed = [
        Layer::Queue,
        Layer::HostPath,
        Layer::Pcie,
        Layer::CrushPlace,
        Layer::FpgaPlace,
        Layer::NetTcp,
        Layer::ClusterIo,
    ]
    .into_iter()
    .map(layer)
    .sum::<f64>()
        + layer(Layer::EcEncode) * o.writes as f64 / ops
        + layer(Layer::Recovery) * rec.objects_recovered as f64 / ops
        + layer(Layer::Scrub) * rec.scrub_objects as f64 / ops;
    let lookups = (counters.cache_hits + counters.cache_misses).max(1) as f64;
    let (cpu_ns, runq_ns) = host.unwrap_or((0, 0));
    let values = [
        layer(Layer::Queue),
        counters.events as f64 / ops,
        layer(Layer::HostPath),
        layer(Layer::Pcie),
        layer(Layer::CrushPlace),
        counters.cache_hits as f64 / lookups,
        counters.cache_misses as f64 * 1e3 / ops,
        layer(Layer::FpgaPlace),
        layer(Layer::EcEncode),
        layer(Layer::NetTcp),
        layer(Layer::ClusterIo),
        o.osd_ops as f64 / ops,
        layer(Layer::Recovery),
        layer(Layer::Scrub),
        rec.objects_recovered as f64,
        rec.scrub_objects as f64,
        rec.bitrot_repaired as f64,
        rec.time_to_clean_us / 1e3,
        res.timeouts as f64 * 1e3 / ops,
        res.retries as f64 * 1e3 / ops,
        median(
            reps.iter()
                .map(|rep| rep.generate_s * 1e9 / o.offered.max(1) as f64),
        ),
        o.run_allocs as f64 / ops,
        o.run_alloc_bytes as f64 / ops,
        engine_ns,
        engine_ns - attributed,
        median(layers.iter().map(|s| s.traced_wall_s))
            / median(layers.iter().map(|s| s.untraced_wall_s))
            - 1.0,
        runq_ns as f64 / 1e9,
        cpu_ns as f64 / 1e9 / wall,
        median(reps.iter().map(|rep| rep.clock)),
    ];
    named(&PER_LAYER, &values)
}

fn named(specs: &[(&'static str, &'static str)], values: &[f64]) -> Vec<Metric> {
    assert_eq!(specs.len(), values.len(), "one value per declared metric");
    specs
        .iter()
        .zip(values)
        .map(|(&(name, unit), &value)| Metric { name, unit, value })
        .collect()
}

/// Median of a non-empty sample.
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    assert!(!v.is_empty(), "median of an empty sample");
    v.sort_by(f64::total_cmp);
    let n = v.len();
    (v[(n - 1) / 2] + v[n / 2]) / 2.0
}

fn dedup(failures: &mut Vec<String>) {
    let mut seen = std::collections::BTreeSet::new();
    failures.retain(|f| seen.insert(f.clone()));
}

/// This thread's (on-CPU ns, run-queue wait ns) from
/// `/proc/thread-self/schedstat`, where the kernel provides it.
fn sched() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let mut fields = text.split_whitespace().map(|f| f.parse::<u64>().ok());
    Some((fields.next()??, fields.next()??))
}

//! The experiments: every table and figure of the paper, regenerated.

use deliba_core::{Engine, EngineConfig, FioSpec, Generation, Mode, Pattern, RunReport, RwMode};
use deliba_fpga::accel::TABLE_I;
use deliba_fpga::{ACCEL_CLOCK, PowerModel, RmId};
use deliba_workload::{OlapSpec, OltpSpec};
use serde::Serialize;

/// Default op budget per figure cell (enough for steady state, cheap
/// enough that the full harness runs in seconds).
pub const CELL_OPS: u64 = 4_000;

/// Latency-probe op budget (qd = 1).
pub const PROBE_OPS: u64 = 400;

/// One measured cell with its paper reference value (when the paper
/// states one).
#[derive(Debug, Clone, Serialize)]
pub struct Cell {
    /// Configuration label (e.g. "DeLiBA-K").
    pub config: String,
    /// Workload label (e.g. "rand-write 4k").
    pub workload: String,
    /// Metric unit ("µs", "MB/s", "KIOPS", "W", "s", "%").
    pub unit: &'static str,
    /// Value measured by the reproduction.
    pub measured: f64,
    /// Value the paper reports, if stated.
    pub paper: Option<f64>,
}

impl Cell {
    /// Relative error against the paper value.
    pub fn error(&self) -> Option<f64> {
        self.paper.map(|p| (self.measured - p) / p)
    }

    /// Printable row.
    pub fn row(&self) -> String {
        match self.paper {
            Some(p) if p != 0.0 => format!(
                "{:<28} {:<18} measured {:>9.1} {:<5} paper {:>9.1}  ({:+.1} %)",
                self.config,
                self.workload,
                self.measured,
                self.unit,
                p,
                100.0 * self.error().unwrap()
            ),
            Some(p) => format!(
                "{:<28} {:<18} measured {:>9.1} {:<5} paper {:>9.1}",
                self.config, self.workload, self.measured, self.unit, p
            ),
            None => format!(
                "{:<28} {:<18} measured {:>9.1} {:<5}",
                self.config, self.workload, self.measured, self.unit
            ),
        }
    }
}

/// A complete experiment: id, caption and cells.
#[derive(Debug, Clone, Serialize)]
pub struct Experiment {
    /// Paper artifact id, e.g. "Fig. 6".
    pub id: String,
    /// Short caption.
    pub caption: String,
    /// The cells.
    pub cells: Vec<Cell>,
}

impl Experiment {
    /// Print the experiment as a text block.
    pub fn print(&self) {
        println!("== {} — {}", self.id, self.caption);
        for c in &self.cells {
            println!("  {}", c.row());
        }
        println!();
    }

    /// Look up a measured value by config/workload substring.
    pub fn get(&self, config: &str, workload: &str) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.config.contains(config) && c.workload == workload)
            .map(|c| c.measured)
    }
}

fn run(cfg: EngineConfig, spec: FioSpec) -> RunReport {
    let mut e = Engine::new(cfg);
    let r = e.run_fio(&spec);
    assert_eq!(e.verify_failures(), 0, "data corruption in {:?}", spec.label());
    r
}

fn gen_name(g: Generation) -> String {
    g.label().to_string()
}

// ---------------------------------------------------------------------
// Software baselines (Figs. 3 and 4)
// ---------------------------------------------------------------------

fn sw_baseline(mode: Mode, id: &str) -> Experiment {
    // Paper anchor values quoted in §III-C2 (4 kB random):
    // latency 130→85 µs (read) and 98→80 µs (write); EC throughput
    // ratios ×2.4 (read) ×2.88 (write).
    let mut combos = Vec::new();
    for g in [Generation::DeLiBA2, Generation::DeLiBAK] {
        for (rw, pat, bs) in [
            (RwMode::Read, Pattern::Rand, 4096u32),
            (RwMode::Write, Pattern::Rand, 4096),
            (RwMode::Read, Pattern::Seq, 131072),
            (RwMode::Write, Pattern::Seq, 131072),
        ] {
            combos.push((g, rw, pat, bs));
        }
    }
    let cells: Vec<Cell> = crate::runner::par_map(combos, |(g, rw, pat, bs)| {
        let cfg = EngineConfig::new(g, false, mode);
        let probe = run(cfg, FioSpec::latency_probe(rw, pat, bs, PROBE_OPS));
        let paper_lat = match (g, rw, pat, mode) {
            (Generation::DeLiBA2, RwMode::Read, Pattern::Rand, _) => Some(130.0),
            (Generation::DeLiBA2, RwMode::Write, Pattern::Rand, _) => Some(98.0),
            (Generation::DeLiBAK, RwMode::Read, Pattern::Rand, _) => Some(85.0),
            (Generation::DeLiBAK, RwMode::Write, Pattern::Rand, _) => Some(80.0),
            _ => None,
        };
        let tput = run(cfg, FioSpec::paper(rw, pat, bs, CELL_OPS.min(2_000)));
        [
            Cell {
                config: format!("{}-SW", gen_name(g)),
                workload: probe.workload.clone(),
                unit: "µs",
                measured: probe.mean_latency_us,
                paper: paper_lat,
            },
            Cell {
                config: format!("{}-SW", gen_name(g)),
                workload: tput.workload.clone(),
                unit: "MB/s",
                measured: tput.throughput_mbps,
                paper: None,
            },
        ]
    })
    .into_iter()
    .flatten()
    .collect();
    Experiment {
        id: id.to_string(),
        caption: format!(
            "pure software baseline, {} mode: latency and throughput (4 kB / 128 kB)",
            mode.label()
        ),
        cells,
    }
}

/// Fig. 3: software baseline, replication mode.
pub fn fig3() -> Experiment {
    sw_baseline(Mode::Replication, "Fig. 3")
}

/// Fig. 4: software baseline, erasure-coding mode.
pub fn fig4() -> Experiment {
    sw_baseline(Mode::ErasureCoding, "Fig. 4")
}

// ---------------------------------------------------------------------
// Hardware throughput / KIOPS (Figs. 6–9)
// ---------------------------------------------------------------------

/// Paper anchor values for Fig. 6 (replication throughput, MB/s).
fn fig6_paper(g: Generation, rw: RwMode, pat: Pattern, bs: u32) -> Option<f64> {
    match (g, rw, pat, bs) {
        (Generation::DeLiBAK, RwMode::Write, Pattern::Rand, 4096) => Some(145.0),
        (Generation::DeLiBAK, RwMode::Write, Pattern::Rand, 8192) => Some(170.0),
        (Generation::DeLiBAK, RwMode::Write, Pattern::Seq, 65536) => Some(440.0),
        (Generation::DeLiBAK, RwMode::Write, Pattern::Seq, 131072) => Some(680.0),
        (Generation::DeLiBA2, RwMode::Write, Pattern::Rand, 4096) => Some(145.0 / 3.45),
        (Generation::DeLiBA2, RwMode::Write, Pattern::Rand, 8192) => Some(170.0 / 2.5),
        (Generation::DeLiBA2, RwMode::Write, Pattern::Seq, 65536) => Some(440.0 / 2.38),
        (Generation::DeLiBA2, RwMode::Write, Pattern::Seq, 131072) => Some(680.0 / 2.0),
        _ => None,
    }
}

fn hw_sweep(mode: Mode, gens: &[Generation], id: &str, caption: &str, kiops: bool) -> Experiment {
    let mut combos = Vec::new();
    for &g in gens {
        for (rw, pat) in [
            (RwMode::Read, Pattern::Seq),
            (RwMode::Read, Pattern::Rand),
            (RwMode::Write, Pattern::Seq),
            (RwMode::Write, Pattern::Rand),
        ] {
            for bs in [4096u32, 8192, 65536, 131072] {
                combos.push((g, rw, pat, bs));
            }
        }
    }
    let cells = crate::runner::par_map(combos, |(g, rw, pat, bs)| {
        let cfg = EngineConfig::new(g, true, mode);
        let r = run(cfg, FioSpec::paper(rw, pat, bs, CELL_OPS));
        let paper = if !kiops && mode == Mode::Replication {
            fig6_paper(g, rw, pat, bs)
        } else if kiops && mode == Mode::Replication && g == Generation::DeLiBAK
            && rw == RwMode::Read && pat == Pattern::Rand && bs == 4096
        {
            Some(59.0) // §VI: "our 59K IOPS"
        } else {
            None
        };
        Cell {
            config: gen_name(g),
            workload: r.workload.clone(),
            unit: if kiops { "KIOPS" } else { "MB/s" },
            measured: if kiops { r.kiops } else { r.throughput_mbps },
            paper,
        }
    });
    Experiment {
        id: id.to_string(),
        caption: caption.to_string(),
        cells,
    }
}

/// Fig. 6: hardware-accelerated replication throughput, D1/D2/DK.
pub fn fig6() -> Experiment {
    hw_sweep(
        Mode::Replication,
        &[Generation::DeLiBA1, Generation::DeLiBA2, Generation::DeLiBAK],
        "Fig. 6",
        "replication mode: hardware-accelerated I/O throughput",
        false,
    )
}

/// Fig. 7: hardware-accelerated replication KIOPS, D1/D2/DK.
pub fn fig7() -> Experiment {
    hw_sweep(
        Mode::Replication,
        &[Generation::DeLiBA1, Generation::DeLiBA2, Generation::DeLiBAK],
        "Fig. 7",
        "replication mode: hardware-accelerated KIOPS",
        true,
    )
}

/// Fig. 8: hardware-accelerated EC throughput, D2 vs DK.
pub fn fig8() -> Experiment {
    hw_sweep(
        Mode::ErasureCoding,
        &[Generation::DeLiBA2, Generation::DeLiBAK],
        "Fig. 8",
        "erasure-coding mode: hardware-accelerated I/O throughput",
        false,
    )
}

/// Fig. 9: hardware-accelerated EC KIOPS, D2 vs DK.
pub fn fig9() -> Experiment {
    hw_sweep(
        Mode::ErasureCoding,
        &[Generation::DeLiBA2, Generation::DeLiBAK],
        "Fig. 9",
        "erasure-coding mode: hardware-accelerated KIOPS",
        true,
    )
}

// ---------------------------------------------------------------------
// Table I: accelerator kernels
// ---------------------------------------------------------------------

/// Table I: per-kernel profile — paper columns plus the model's computed
/// cycle latency.
pub fn table1() -> Experiment {
    let mut cells = Vec::new();
    for row in TABLE_I {
        let name = format!("{:?}", row.kind);
        cells.push(Cell {
            config: name.clone(),
            workload: "SW exec".into(),
            unit: "µs",
            measured: row.sw_exec_us, // input datum, carried through
            paper: Some(row.sw_exec_us),
        });
        cells.push(Cell {
            config: name.clone(),
            workload: "RTL cycles".into(),
            unit: "cyc",
            measured: row.rtl_cycles.1 as f64,
            paper: Some(row.rtl_cycles.1 as f64),
        });
        // Model-computed pipeline latency at 235 MHz vs the paper's
        // Vivado-reported value.
        let model_lat = ACCEL_CLOCK.cycles(row.rtl_cycles.1).as_micros_f64();
        cells.push(Cell {
            config: name.clone(),
            workload: "RTL latency".into(),
            unit: "µs",
            measured: model_lat,
            paper: Some(row.rtl_latency_us.1),
        });
        cells.push(Cell {
            config: name,
            workload: "HW exec (measured on U280)".into(),
            unit: "µs",
            measured: row.hw_exec_us,
            paper: Some(row.hw_exec_us),
        });
    }
    Experiment {
        id: "Table I".into(),
        caption: "replication and EC kernels: software profile, RTL cycles/latency, device wall time".into(),
        cells,
    }
}

// ---------------------------------------------------------------------
// Table II: 4 kB latency
// ---------------------------------------------------------------------

/// Paper Table II values, µs.
pub fn table2_paper(g: Generation, mode: Mode, rw: RwMode, pat: Pattern) -> Option<f64> {
    use Generation::*;
    use Mode::*;
    use Pattern::*;
    use RwMode::*;
    let v = match (g, mode, rw, pat) {
        (DeLiBA1, Replication, Read, Seq) => 65.0,
        (DeLiBA1, Replication, Write, Seq) => 95.0,
        (DeLiBA1, Replication, Read, Rand) => 130.0,
        (DeLiBA1, Replication, Write, Rand) => 98.0,
        (DeLiBA2, Replication, Read, Seq) => 55.0,
        (DeLiBA2, Replication, Write, Seq) => 75.0,
        (DeLiBA2, Replication, Read, Rand) => 85.0,
        (DeLiBA2, Replication, Write, Rand) => 82.0,
        (DeLiBAK, Replication, Read, Seq) => 40.0,
        (DeLiBAK, Replication, Write, Seq) => 52.0,
        (DeLiBAK, Replication, Read, Rand) => 64.0,
        (DeLiBAK, Replication, Write, Rand) => 68.0,
        (DeLiBA2, ErasureCoding, Read, Seq) => 48.0,
        (DeLiBA2, ErasureCoding, Write, Seq) => 70.0,
        (DeLiBA2, ErasureCoding, Read, Rand) => 82.0,
        (DeLiBA2, ErasureCoding, Write, Rand) => 75.0,
        (DeLiBAK, ErasureCoding, Read, Seq) => 38.0,
        (DeLiBAK, ErasureCoding, Write, Seq) => 47.0,
        (DeLiBAK, ErasureCoding, Read, Rand) => 59.0,
        (DeLiBAK, ErasureCoding, Write, Rand) => 60.0,
        _ => return None,
    };
    Some(v)
}

/// Table II: I/O request latency at 4 kB across generations and modes.
pub fn table2() -> Experiment {
    let rows: [(Generation, Mode); 5] = [
        (Generation::DeLiBA1, Mode::Replication),
        (Generation::DeLiBA2, Mode::Replication),
        (Generation::DeLiBAK, Mode::Replication),
        (Generation::DeLiBA2, Mode::ErasureCoding),
        (Generation::DeLiBAK, Mode::ErasureCoding),
    ];
    let mut combos = Vec::new();
    for (g, mode) in rows {
        for (rw, pat) in [
            (RwMode::Read, Pattern::Seq),
            (RwMode::Write, Pattern::Seq),
            (RwMode::Read, Pattern::Rand),
            (RwMode::Write, Pattern::Rand),
        ] {
            combos.push((g, mode, rw, pat));
        }
    }
    let cells = crate::runner::par_map(combos, |(g, mode, rw, pat)| {
        let cfg = EngineConfig::new(g, true, mode);
        let r = run(cfg, FioSpec::latency_probe(rw, pat, 4096, PROBE_OPS));
        Cell {
            config: format!("{} ({})", gen_name(g), mode.label()),
            workload: r.workload.clone(),
            unit: "µs",
            measured: r.mean_latency_us,
            paper: table2_paper(g, mode, rw, pat),
        }
    });
    Experiment {
        id: "Table II".into(),
        caption: "I/O request latency (4 kB), hardware-accelerated".into(),
        cells,
    }
}

// ---------------------------------------------------------------------
// Table III: resource utilization
// ---------------------------------------------------------------------

/// Table III: place-and-route resource utilization.
pub fn table3() -> Experiment {
    use deliba_fpga::resources::*;
    let mut cells = Vec::new();
    let statics = [
        ("Straw Bucket (static)", STRAW_STATIC, 6.2),
        ("Straw2 Bucket (static)", STRAW2_STATIC, 6.31),
        ("Reed-Solomon Encoder (static)", RS_ENCODER_STATIC, 7.08),
    ];
    for (name, res, paper_lut_pct) in statics {
        let (lut_pct, ..) = res.percent_of(&U280_TOTAL);
        cells.push(Cell {
            config: name.into(),
            workload: "LUT % of U280".into(),
            unit: "%",
            measured: lut_pct,
            paper: Some(paper_lut_pct),
        });
        cells.push(Cell {
            config: name.into(),
            workload: "LUT count".into(),
            unit: "",
            measured: res.luts as f64,
            paper: Some(res.luts as f64),
        });
    }
    let rms = [
        ("RM 1 List (DFX, SLR0)", RmId::List, 14.74),
        ("RM 2 Tree (DFX, SLR0)", RmId::Tree, 15.93),
        ("RM 3 Uniform (DFX, SLR0)", RmId::Uniform, 17.59),
    ];
    for (name, rm, paper_pct) in rms {
        let (lut_pct, ..) = rm.resources().percent_of(&SLR0);
        cells.push(Cell {
            config: name.into(),
            workload: "LUT % of SLR0".into(),
            unit: "%",
            measured: lut_pct,
            paper: Some(paper_pct),
        });
    }
    Experiment {
        id: "Table III".into(),
        caption: "resource utilization: static accelerators + DFX reconfigurable modules".into(),
        cells,
    }
}

// ---------------------------------------------------------------------
// §V-c: power
// ---------------------------------------------------------------------

/// §V-c power measurements: full load with and without DFX.
pub fn power() -> Experiment {
    let p = PowerModel::default();
    Experiment {
        id: "§V-c".into(),
        caption: "power at full load (xbutil/xbtest methodology)".into(),
        cells: vec![
            Cell {
                config: "full load, no partial reconfig".into(),
                workload: "all RMs resident".into(),
                unit: "W",
                measured: p.full_load_static_w(),
                paper: Some(195.0),
            },
            Cell {
                config: "full load, with DFX".into(),
                workload: "one RM resident".into(),
                unit: "W",
                measured: p.full_load_dfx_w(),
                paper: Some(170.0),
            },
            Cell {
                config: "idle".into(),
                workload: "clocks only".into(),
                unit: "W",
                measured: p.idle_w(),
                paper: None,
            },
        ],
    }
}

// ---------------------------------------------------------------------
// Real-world workloads (§I, §III-C1)
// ---------------------------------------------------------------------

/// §I real-world claim: ≈30 % execution-time reduction for OLAP/OLTP.
pub fn realworld() -> Experiment {
    // Dependent I/O within a query/transaction: shallow queues.  One
    // cell per (workload, generation) pair, each with its own engine.
    let mut runs = Vec::new();
    for (name, qd) in [("OLAP", 2u32), ("OLTP", 4)] {
        for g in [Generation::DeLiBA2, Generation::DeLiBAK] {
            runs.push((name, qd, g));
        }
    }
    let times = crate::runner::par_map(runs, |(name, qd, g)| {
        let jobs = match name {
            "OLAP" => OlapSpec::default().generate(),
            _ => OltpSpec::default().generate(),
        };
        let mut e = Engine::new(EngineConfig::new(g, true, Mode::Replication));
        let r = e.run_trace(jobs, qd);
        assert_eq!(e.verify_failures(), 0);
        r.window_s
    });
    let mut cells = Vec::new();
    for (w, name) in ["OLAP", "OLTP"].into_iter().enumerate() {
        let (d2, dk) = (times[2 * w], times[2 * w + 1]);
        for (g, t) in [(Generation::DeLiBA2, d2), (Generation::DeLiBAK, dk)] {
            cells.push(Cell {
                config: gen_name(g),
                workload: format!("{name} execution time"),
                unit: "s",
                measured: t,
                paper: None,
            });
        }
        cells.push(Cell {
            config: "DeLiBA-K vs D2".into(),
            workload: format!("{name} time reduction"),
            unit: "%",
            measured: 100.0 * (d2 - dk) / d2,
            paper: Some(30.0),
        });
    }
    Experiment {
        id: "§I real-world".into(),
        caption: "OLAP/OLTP execution-time reduction (paper: ≈30 %)".into(),
        cells,
    }
}

// ---------------------------------------------------------------------
// Headline speedups (§I)
// ---------------------------------------------------------------------

/// §I headline: up to 3.2× IOPS and 3.45× throughput over DeLiBA-2.
pub fn headline() -> Experiment {
    // The sweep covers exactly the cells the paper's figures report
    // (rand-read/-write at small blocks, seq-write at large blocks).
    let specs = vec![
        (RwMode::Read, Pattern::Rand, 4096u32),
        (RwMode::Write, Pattern::Rand, 4096),
        (RwMode::Write, Pattern::Rand, 8192),
        (RwMode::Write, Pattern::Seq, 65536),
        (RwMode::Write, Pattern::Seq, 131072),
    ];
    let ratios = crate::runner::par_map(specs, |(rw, pat, bs)| {
        let dk = run(
            EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication),
            FioSpec::paper(rw, pat, bs, CELL_OPS),
        );
        let d2 = run(
            EngineConfig::new(Generation::DeLiBA2, true, Mode::Replication),
            FioSpec::paper(rw, pat, bs, CELL_OPS),
        );
        (dk.kiops / d2.kiops, dk.throughput_mbps / d2.throughput_mbps)
    });
    let mut best_iops = 0.0f64;
    let mut best_tput = 0.0f64;
    for (ri, rt) in ratios {
        best_iops = best_iops.max(ri);
        best_tput = best_tput.max(rt);
    }
    Experiment {
        id: "§I headline".into(),
        caption: "peak speedups of DeLiBA-K over DeLiBA-2".into(),
        cells: vec![
            Cell {
                config: "DeLiBA-K / D2".into(),
                workload: "peak IOPS speedup".into(),
                unit: "x",
                measured: best_iops,
                paper: Some(3.2),
            },
            Cell {
                config: "DeLiBA-K / D2".into(),
                workload: "peak throughput speedup".into(),
                unit: "x",
                measured: best_tput,
                paper: Some(3.45),
            },
        ],
    }
}

// ---------------------------------------------------------------------
// §IV-C: DFX live reconfiguration
// ---------------------------------------------------------------------

/// §IV-C: swap the bucket accelerator during a live workload; I/O keeps
/// flowing (Straw2 fallback), no placement errors, and the swap beats a
/// full reprogram + power cycle by orders of magnitude.
pub fn dfx() -> Experiment {
    use deliba_sim::SimTime;
    let mut cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
    // The cluster is being reorganized: the operator swaps the partition
    // to the Tree kernel while I/O prefers it; placements issued mid-swap
    // fall back to the static Straw2 kernel.
    cfg.preferred_rm = Some(RmId::Tree);
    let mut e = Engine::new(cfg);
    let done = e
        .card_mut()
        .expect("HW config")
        .reconfigure(SimTime::ZERO, RmId::Tree)
        .expect("swap accepted");
    let r = e.run_fio(&FioSpec::paper(RwMode::Read, Pattern::Rand, 4096, 2_000));
    let fallbacks = e.card_mut().unwrap().dfx_fallbacks();
    let swap_ms = done.as_nanos() as f64 / 1e6;
    Experiment {
        id: "§IV-C DFX".into(),
        caption: "live accelerator swap under I/O (MCAP partial bitstream)".into(),
        cells: vec![
            Cell {
                config: "partial bitstream load".into(),
                workload: "RM Uniform → Tree".into(),
                unit: "ms",
                measured: swap_ms,
                paper: None,
            },
            Cell {
                config: "I/O during swap".into(),
                workload: "ops completed".into(),
                unit: "",
                measured: r.ops as f64,
                paper: None,
            },
            Cell {
                config: "I/O during swap".into(),
                workload: "integrity failures".into(),
                unit: "",
                measured: e.verify_failures() as f64,
                paper: Some(0.0),
            },
            Cell {
                config: "Straw2 fallback placements".into(),
                workload: "during reconfiguration".into(),
                unit: "",
                measured: fallbacks as f64,
                paper: None,
            },
        ],
    }
}

// ---------------------------------------------------------------------
// Ablation: the six optimizations of Fig. 2, one at a time
// ---------------------------------------------------------------------

/// Ablation study: start from DeLiBA-2's host path and enable DeLiBA-K's
/// optimizations cumulatively, in the order the paper's Fig. 2 circles
/// them.  Reported per step: 4 kB random-write throughput and random-read
/// latency.  This is the design-choice breakdown DESIGN.md calls for —
/// the paper presents only the end points.
pub fn ablation() -> Experiment {
    use deliba_core::generation::PathFeatures;
    use deliba_net::TcpStackKind;

    let base = Generation::DeLiBA2.features();
    type Step = (&'static str, fn(&mut PathFeatures));
    let steps: Vec<Step> = vec![
        ("baseline: DeLiBA-2 path", |_f| {}),
        ("① io_uring: batching, zero-copy, async", |f| {
            f.io_uring = true;
            f.sync_daemon = false;
            f.contexts = 3;
            f.crossings = 0;
            f.copies = 1;
        }),
        ("② DMQ scheduler bypass", |f| f.sched_bypass = true),
        ("③ QDMA multi-queue DMA", |f| f.qdma = true),
        ("④ RTL accelerators (vs HLS)", |f| f.rtl_accel = true),
        ("⑤ polled completion", |f| f.polled_completion = true),
        ("⑥ RTL TCP/IP TX+RX", |f| f.hw_tcp = TcpStackKind::RtlFpga),
    ];

    // The feature sets are cumulative, so build the per-step configs
    // serially first; the measurements themselves are independent.
    let mut features = base;
    let mut step_cfgs = Vec::new();
    for (label, apply) in steps {
        apply(&mut features);
        let mut cfg = EngineConfig::new(Generation::DeLiBA2, true, Mode::Replication);
        cfg.features = features;
        step_cfgs.push((label, cfg));
    }
    let cells: Vec<Cell> = crate::runner::par_map(step_cfgs, |(label, cfg)| {
        let tput = {
            let mut e = Engine::new(cfg);
            e.run_fio(&FioSpec::paper(RwMode::Write, Pattern::Rand, 4096, 3_000))
                .throughput_mbps
        };
        let lat = {
            let mut e = Engine::new(cfg);
            e.run_fio(&FioSpec::latency_probe(RwMode::Read, Pattern::Rand, 4096, PROBE_OPS))
                .mean_latency_us
        };
        [
            Cell {
                config: label.into(),
                workload: "rand-write 4k".into(),
                unit: "MB/s",
                measured: tput,
                paper: None,
            },
            Cell {
                config: label.into(),
                workload: "rand-read 4k".into(),
                unit: "µs",
                measured: lat,
                paper: None,
            },
        ]
    })
    .into_iter()
    .flatten()
    .collect();
    Experiment {
        id: "Ablation".into(),
        caption: "cumulative effect of the six Fig. 2 optimizations (D2 path → DeLiBA-K path)".into(),
        cells,
    }
}

/// MTU study (§IV-B: "maximum packet length is configurable … from 1518
/// bytes for standard Ethernet to 9018 bytes for Jumbo frames"): large
/// sequential transfers gain from jumbo framing's wire efficiency.
pub fn mtu() -> Experiment {
    let mut combos = Vec::new();
    for jumbo in [false, true] {
        for (rw, pat, bs) in [
            (RwMode::Write, Pattern::Seq, 131_072u32),
            (RwMode::Read, Pattern::Seq, 131_072),
            (RwMode::Write, Pattern::Rand, 4_096),
        ] {
            combos.push((jumbo, rw, pat, bs));
        }
    }
    let cells = crate::runner::par_map(combos, |(jumbo, rw, pat, bs)| {
        let mut cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        cfg.jumbo_frames = jumbo;
        let r = run(cfg, FioSpec::paper(rw, pat, bs, 2_500));
        Cell {
            config: if jumbo { "jumbo 9018 B" } else { "standard 1518 B" }.into(),
            workload: r.workload.clone(),
            unit: "MB/s",
            measured: r.throughput_mbps,
            paper: None,
        }
    });
    Experiment {
        id: "§IV-B MTU".into(),
        caption: "standard vs jumbo framing on the DeLiBA-K path".into(),
        cells,
    }
}

// ---------------------------------------------------------------------
// Stage-latency breakdown (Table II methodology, decomposed)
// ---------------------------------------------------------------------

/// Run a qd-1 latency probe with stage tracing and return the traced
/// report (breakdown attached).
pub fn traced_probe(g: Generation, rw: RwMode, pat: Pattern, bs: u32) -> RunReport {
    let cfg = EngineConfig::new(g, true, Mode::Replication)
        .with_trace_depth(deliba_sim::TraceDepth::Stages);
    let mut e = Engine::new(cfg);
    let spec = FioSpec::latency_probe(rw, pat, bs, PROBE_OPS);
    let r = e.run_fio(&spec);
    assert_eq!(e.verify_failures(), 0, "data corruption in {:?}", spec.label());
    r
}

/// Per-stage latency decomposition of the Table-II 4 kB random-read
/// probe across the three generations — *where* each generation's time
/// goes, not just the total.  Asserts the structural invariants that
/// the paper's Fig. 2 narrative implies: DeLiBA-1 pays all six kernel
/// crossings on the ring-enter stage while DeLiBA-K amortizes them to
/// zero, and the DMQ bypass leaves DeLiBA-K's MQ-scheduler stage at
/// exactly zero.
pub fn breakdown() -> Experiment {
    use deliba_sim::Stage;
    let gens = vec![Generation::DeLiBA1, Generation::DeLiBA2, Generation::DeLiBAK];
    let cells: Vec<Cell> = crate::runner::par_map(gens, |g| {
        let mut cells = Vec::new();
        let r = traced_probe(g, RwMode::Read, Pattern::Rand, 4096);
        let b = r.breakdown.as_ref().expect("traced run has a breakdown");
        // The decomposition must account for the whole mean latency.
        assert!(
            (b.stage_sum_us - r.mean_latency_us).abs() < 1.0,
            "{}: stage sum {:.2} µs vs e2e mean {:.2} µs",
            gen_name(g),
            b.stage_sum_us,
            r.mean_latency_us
        );
        match g {
            Generation::DeLiBA1 => {
                assert!(
                    b.stage(Stage::RingEnter).mean_us >= 8.9,
                    "D1 pays 6 crossings ≈ 9 µs on ring-enter"
                );
            }
            Generation::DeLiBAK => {
                assert_eq!(
                    b.stage(Stage::RingEnter).mean_us,
                    0.0,
                    "DeLiBA-K amortizes ring enters to zero"
                );
                assert_eq!(
                    b.stage(Stage::BlkMq).mean_us,
                    0.0,
                    "DMQ bypass leaves the MQ-scheduler stage empty"
                );
            }
            Generation::DeLiBA2 => {}
        }
        for row in &b.stages {
            cells.push(Cell {
                config: gen_name(g),
                workload: row.stage.clone(),
                unit: "µs",
                measured: row.mean_us,
                paper: None,
            });
        }
        cells.push(Cell {
            config: gen_name(g),
            workload: "total".into(),
            unit: "µs",
            measured: b.stage_sum_us,
            paper: table2_paper(g, Mode::Replication, RwMode::Read, Pattern::Rand),
        });
        cells
    })
    .into_iter()
    .flatten()
    .collect();
    Experiment {
        id: "Table II (stages)".into(),
        caption: "per-stage latency decomposition, rand-read 4 kB, qd 1".into(),
        cells,
    }
}

// ---------------------------------------------------------------------
// Harness perf gate (not a paper artifact)
// ---------------------------------------------------------------------

/// One timed leg of the perf gate: best of 3 fresh engines.  `setup`
/// builds the engine and its input untimed; only `run` is timed.  The
/// first run in a process pays one-time page-fault and allocator warmup
/// that is not the engine's cost, and the run is deterministic, so every
/// repeat produces identical counters.  Returns the fastest rep's wall
/// seconds and events per second, and the last rep's report.
fn best_of_3<I>(
    setup: impl Fn() -> (Engine, I),
    run: impl Fn(&mut Engine, I) -> RunReport,
) -> (f64, f64, RunReport) {
    let mut best = (f64::INFINITY, 0.0);
    let mut last = None;
    for _ in 0..3 {
        let (mut e, input) = setup();
        let t0 = std::time::Instant::now();
        let r = run(&mut e, input);
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(r.verify_failures, 0);
        if wall < best.0 {
            let events = r.counters.expect("engine reports carry counters").events;
            best = (wall, events as f64 / wall.max(1e-9));
        }
        last = Some(r);
    }
    (best.0, best.1, last.expect("three reps ran"))
}

/// Wall-clock perf gate: fixed reference workloads through the full
/// engine, reporting wall time and events per second.  This is the
/// reproduction's own benchmark (CI tracks it as `BENCH_harness.json`),
/// not a paper figure — and because wall-clock is nondeterministic it
/// is deliberately *excluded* from `harness all`, whose output must
/// stay bit-reproducible.
pub fn perf() -> Experiment {
    use std::time::Instant;

    // Reference workload: the Fig. 7 headline cell (DeLiBA-K hardware
    // path, replication, 4 kB random read) at 5× the usual cell budget.
    let spec = FioSpec::paper(RwMode::Read, Pattern::Rand, 4096, 5 * CELL_OPS);
    let (engine_wall, engine_evps, r) = best_of_3(
        || (Engine::new(EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)), ()),
        |e, ()| e.run_fio(&spec),
    );
    let counters = r.counters.expect("engine reports carry counters");
    let fused_share = counters.fused_events as f64 / counters.events.max(1) as f64;
    let events_per_io = counters.events as f64 / r.ops.max(1) as f64;

    // The deep-queue reference cell above reads 0.0 fused share by
    // design: with 32 in-flight ops per job the heap always holds an
    // earlier token, so the completion-pops-next fusion can never apply
    // (see the engine's fused_fast_path_* regression tests).  A
    // queue-depth-1 probe is where the path provably fires — pin its
    // share here so BENCH_harness.json documents both regimes.
    let fused_share_qd1 = {
        use deliba_core::TraceOp;
        let ops: Vec<TraceOp> =
            (0..PROBE_OPS).map(|i| TraceOp::read((i % 1024) * 4096, 4096, true)).collect();
        let mut e = Engine::new(EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication));
        let p = e.run_trace(vec![ops], 1);
        let c = p.counters.expect("engine reports carry counters");
        c.fused_events as f64 / c.events.max(1) as f64
    };

    // Recovery-active engine rate: the same closed loop with an OSD
    // crash mid-run and the background scheduler armed (backfill plus a
    // deep-scrub cadence), so the cell prices the recovery machinery's
    // event overhead next to the fault-free reference above.
    let recovery_evps = {
        use deliba_cluster::RecoveryPolicy;
        use deliba_core::TraceOp;
        use deliba_fault::{FaultSchedule, ResiliencePolicy};
        use deliba_sim::{SimDuration, SimTime};
        let trace: Vec<TraceOp> = (0..2 * CELL_OPS)
            .map(|i| {
                let off = (i % 128) * (4 << 20);
                if i < CELL_OPS {
                    TraceOp::write(off, 4096, true)
                } else {
                    TraceOp::read(off, 4096, true)
                }
            })
            .collect();
        let setup = || {
            let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
                .with_resilience(ResiliencePolicy::default())
                .with_recovery(
                    RecoveryPolicy::default().with_scrub(SimDuration::from_micros(500), 32),
                );
            let mut e = Engine::new(cfg);
            e.set_fault_schedule(
                FaultSchedule::new().osd_crash(SimTime::from_nanos(2_000_000), 5),
            );
            (e, ())
        };
        let (_, evps, r) = best_of_3(setup, |e, ()| e.run_trace(vec![trace.clone()], 8));
        let rec = r.recovery.expect("armed");
        assert!(rec.objects_recovered > 0, "the crash must cost something");
        evps
    };

    // Observation cost.  The disabled path (`TraceDepth::Off` and no
    // telemetry, the default — every emit is one branch on a `None`
    // observer) runs the *same* configuration as the engine reference
    // cell, so its overhead must be measured as interleaved runs —
    // reference, disabled leg, then each recording leg, back to back —
    // taking the minimum pairwise slowdown.  Comparing independent
    // best-of-3 batches instead reads cross-batch drift (allocator
    // state, frequency scaling, a scheduler hiccup in either batch) as
    // a fake 3–4 % "overhead" on a never-taken branch; pairing puts
    // every leg under the same drift and the min cancels what remains.
    // CI holds the disabled overhead under 1 %.  The flight recorder
    // (full depth) and the telemetry plane each price their recording
    // cost against the one disabled leg.
    use deliba_sim::{TelemetryConfig, TraceDepth};
    let run_evps = |depth: TraceDepth, telemetry: Option<TelemetryConfig>| -> f64 {
        let mut cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_trace_depth(depth);
        cfg.telemetry = telemetry;
        let mut e = Engine::new(cfg);
        let t0 = Instant::now();
        let r = e.run_fio(&spec);
        let wall = t0.elapsed().as_secs_f64();
        assert_eq!(r.verify_failures, 0);
        r.counters.expect("engine reports carry counters").events as f64 / wall.max(1e-9)
    };
    let mut untraced_evps = 0.0f64;
    let mut traced_evps = 0.0f64;
    let mut tele_on_evps = 0.0f64;
    let mut disabled_overhead = f64::INFINITY;
    let mut recording_overhead = f64::INFINITY;
    let mut tele_recording_overhead = f64::INFINITY;
    for _ in 0..3 {
        let reference = run_evps(TraceDepth::Off, None);
        let off = run_evps(TraceDepth::Off, None);
        let full = run_evps(TraceDepth::Full, None);
        let tele = run_evps(TraceDepth::Off, Some(TelemetryConfig::default()));
        untraced_evps = untraced_evps.max(off);
        traced_evps = traced_evps.max(full);
        tele_on_evps = tele_on_evps.max(tele);
        disabled_overhead = disabled_overhead.min(1.0 - off / reference.max(1e-9));
        recording_overhead = recording_overhead.min(1.0 - full / off.max(1e-9));
        tele_recording_overhead = tele_recording_overhead.min(1.0 - tele / off.max(1e-9));
    }
    let disabled_overhead = disabled_overhead.max(0.0);
    let recording_overhead = recording_overhead.max(0.0);
    let tele_recording_overhead = tele_recording_overhead.max(0.0);

    // The EC-write cell: the engine shape whose host time is lane-local
    // compute (payload fill, FNV checksum, the SIMD RS(4, 2) parity
    // encode).  Three jobs of random 16 KiB writes land on an 8 MiB span
    // (512 extents), like the benchmark's `ec-randwrite`, so the shard
    // store covers the span early and most timed writes overwrite rather
    // than create objects.  Its events per second is the EC path's
    // `--baseline` ratchet.
    let ec_jobs: Vec<Vec<_>> = {
        use deliba_core::TraceOp;
        use deliba_sim::{SimRng, Xoshiro256};
        const BLOCK: u32 = 16384;
        const SPAN: u64 = 8 << 20;
        let mut rng = Xoshiro256::seed_from_u64(1);
        (0..3)
            .map(|_| {
                (0..CELL_OPS / 3)
                    .map(|_| {
                        let offset = rng.gen_range(SPAN / BLOCK as u64) * BLOCK as u64;
                        TraceOp::write(offset, BLOCK, true)
                    })
                    .collect()
            })
            .collect()
    };
    let (ec_wall, ec_evps, _) = best_of_3(
        || {
            let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::ErasureCoding);
            (Engine::new(cfg), ec_jobs.clone())
        },
        |e, jobs| e.run_trace(jobs, 32),
    );

    Experiment {
        id: "perf".into(),
        caption: "harness perf gate: wall-clock + events/sec on the reference workload".into(),
        cells: vec![
            // "1 thread" in a cell config: every engine run is serial.
            Cell {
                config: "engine closed loop (1 thread)".into(),
                workload: r.workload.clone(),
                unit: "s",
                measured: engine_wall,
                paper: None,
            },
            Cell {
                config: "engine closed loop (1 thread)".into(),
                workload: "events per second".into(),
                unit: "ev/s",
                measured: engine_evps,
                paper: None,
            },
            Cell {
                config: "engine closed loop (1 thread)".into(),
                workload: "events per io".into(),
                unit: "ev/io",
                measured: events_per_io,
                paper: None,
            },
            // Relabelled from the ambiguous "fused event share": this is
            // the deep-queue reference cell whose share is 0.0 *by
            // design* (see the comment above fused_share_qd1) — the
            // label now says which regime it measures.
            Cell {
                config: "fused fast path".into(),
                workload: "fused event share (deep qd)".into(),
                unit: "frac",
                measured: fused_share,
                paper: None,
            },
            Cell {
                config: "fused fast path".into(),
                workload: "fused event share (qd 1)".into(),
                unit: "frac",
                measured: fused_share_qd1,
                paper: None,
            },
            Cell {
                config: "engine recovery active (1 thread)".into(),
                workload: "events per second".into(),
                unit: "ev/s",
                measured: recovery_evps,
                paper: None,
            },
            Cell {
                config: "placement cache".into(),
                workload: "hit rate".into(),
                unit: "frac",
                measured: counters.cache_hit_rate(),
                paper: None,
            },
            Cell {
                config: "placement cache".into(),
                workload: "hits".into(),
                unit: "ops",
                measured: counters.cache_hits as f64,
                paper: None,
            },
            Cell {
                config: "placement cache".into(),
                workload: "misses".into(),
                unit: "ops",
                measured: counters.cache_misses as f64,
                paper: None,
            },
            Cell {
                config: "placement cache".into(),
                workload: "epoch invalidations".into(),
                unit: "ops",
                measured: counters.cache_invalidations as f64,
                paper: None,
            },
            Cell {
                config: "flight recorder".into(),
                workload: "untraced events per second".into(),
                unit: "ev/s",
                measured: untraced_evps,
                paper: None,
            },
            Cell {
                config: "flight recorder".into(),
                workload: "traced events per second".into(),
                unit: "ev/s",
                measured: traced_evps,
                paper: None,
            },
            Cell {
                config: "flight recorder".into(),
                workload: "disabled-path overhead".into(),
                unit: "frac",
                measured: disabled_overhead,
                paper: None,
            },
            Cell {
                config: "flight recorder".into(),
                workload: "recording overhead".into(),
                unit: "frac",
                measured: recording_overhead,
                paper: None,
            },
            Cell {
                config: "telemetry plane".into(),
                workload: "recording events per second".into(),
                unit: "ev/s",
                measured: tele_on_evps,
                paper: None,
            },
            Cell {
                config: "telemetry plane".into(),
                workload: "recording overhead".into(),
                unit: "frac",
                measured: tele_recording_overhead,
                paper: None,
            },
            Cell {
                config: "engine EC write (1 thread)".into(),
                workload: "wall clock".into(),
                unit: "s",
                measured: ec_wall,
                paper: None,
            },
            Cell {
                config: "engine EC write (1 thread)".into(),
                workload: "events per second".into(),
                unit: "ev/s",
                measured: ec_evps,
                paper: None,
            },
        ],
    }
}

/// The side of a [`PERF_FLOORS`] limit a cell must stay on (strictly).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Limit {
    /// The cell must read more than this.
    Above(f64),
    /// The cell must read less than this.
    Below(f64),
}

/// The `harness perf --gate` floors: `(config, workload)` cells of
/// [`perf`] and the limit each must clear.
///
/// The engine floor sits at ~80 % of the committed baseline (2.9M ev/s
/// after the sharded-queue + batched-straw2 work), so a structural
/// regression trips it while run-to-run jitter does not; the rest are
/// conservative sanity bars.  The placement cache must be hitting on
/// the reference workload.  The fused fast path is checked at qd 1,
/// where the completion-pops-next fusion provably fires (the deep-queue
/// cell reads 0.0 by design).  The disabled observer must be free: one
/// branch on `None` per emit site (DESIGN.md §9, §12), measured as
/// interleaved pairs, under 1 % and above the same absolute floor.
/// Recovery + scrub active mid-run is media-bound 4 MiB backfill, so
/// its floor is loose, but a deadlock or pacing livelock reads as ~0.
pub const PERF_FLOORS: [(&str, &str, Limit); 6] = [
    (
        "engine closed loop (1 thread)",
        "events per second",
        Limit::Above(2_300_000.0),
    ),
    ("placement cache", "hit rate", Limit::Above(0.95)),
    (
        "fused fast path",
        "fused event share (qd 1)",
        Limit::Above(0.5),
    ),
    (
        "flight recorder",
        "untraced events per second",
        Limit::Above(50_000.0),
    ),
    (
        "flight recorder",
        "disabled-path overhead",
        Limit::Below(0.01),
    ),
    (
        "engine recovery active (1 thread)",
        "events per second",
        Limit::Above(20_000.0),
    ),
];

/// Check `perf`'s cells against [`PERF_FLOORS`].  Returns one line per
/// floor the run breaks; a cell the run lacks breaks its floor.
pub fn perf_gate(perf: &Experiment) -> Vec<String> {
    PERF_FLOORS
        .iter()
        .filter_map(|&(config, workload, limit)| {
            let measured = perf
                .cells
                .iter()
                .find(|c| c.config == config && c.workload == workload)
                .map(|c| c.measured);
            let holds = match (measured, limit) {
                (Some(m), Limit::Above(floor)) => m > floor,
                (Some(m), Limit::Below(ceiling)) => m < ceiling,
                (None, _) => false,
            };
            (!holds).then(|| format!("{config} / {workload}: {measured:?} breaks {limit:?}"))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Chaos soak (fault plane + resilience policy)
// ---------------------------------------------------------------------

/// The chaos soak: a pinned-seed fault schedule thrown at a
/// write-then-read-back trace, once per redundancy mode.  Every scheduled
/// fault class fires mid-trace — an OSD crash, an OSD flap, a lossy/
/// corrupting link window, a DMA error window, a full card outage with
/// FPGA→software failover, and a DFX swap — while the engine's retry/
/// deadline/backoff policy keeps the data flowing.  The acceptance bar is
/// `verify failures == 0` with nonzero retries, timeouts and failovers.
///
/// Deliberately *excluded* from `harness all` (like `perf`): its cells
/// describe the fault plane, not a paper figure, and `harness all` output
/// must stay byte-identical to the fault-free baseline.
pub fn chaos() -> Experiment {
    use deliba_core::TraceOp;
    use deliba_fault::{FaultSchedule, ResiliencePolicy};
    use deliba_net::LinkFaultProfile;
    use deliba_qdma::DmaFaultProfile;
    use deliba_sim::{SimDuration, SimTime};

    const JOBS: u64 = 2;
    const OPS_PER_JOB: u64 = CELL_OPS / JOBS; // writes + read-backs per job
    let ms = |n: u64| SimTime::from_nanos(n * 1_000_000);

    // Each job writes its own extent range, then reads every block back —
    // the read-back half is what turns silent corruption into a verify
    // failure.
    let trace = |job: u64| -> Vec<TraceOp> {
        let half = OPS_PER_JOB / 2;
        let base = job * half * 4096;
        let mut ops = Vec::with_capacity(OPS_PER_JOB as usize);
        for i in 0..half {
            ops.push(TraceOp::write(base + i * 4096, 4096, true));
        }
        for i in 0..half {
            ops.push(TraceOp::read(base + i * 4096, 4096, true));
        }
        ops
    };

    // One instance of every fault class, spread across the soak window.
    let schedule = || {
        FaultSchedule::new()
            .osd_crash(ms(3), 7)
            .osd_flap(ms(10), 19, SimDuration::from_millis(6))
            .link_degrade(ms(6), LinkFaultProfile { drop_p: 0.2, corrupt_p: 0.05 })
            .link_restore(ms(12))
            .dfx_swap(ms(14), RmId::Tree)
            .dma_degrade(
                ms(16),
                DmaFaultProfile { h2c_error_p: 0.1, c2h_error_p: 0.1, exhaust_p: 0.2 },
            )
            .dma_restore(ms(22))
            .card_outage(ms(26), SimDuration::from_millis(6))
    };

    let mut cells = Vec::new();
    for mode in [Mode::Replication, Mode::ErasureCoding] {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, mode)
            .with_resilience(ResiliencePolicy::default());
        let mut e = Engine::new(cfg);
        e.set_fault_schedule(schedule());
        let r = e.run_trace((0..JOBS).map(trace).collect(), 4);
        let res = r.resilience.expect("chaos runs report resilience counters");
        let config = format!("DeLiBA-K chaos {}", mode.label());
        let mut cell = |workload: &str, unit: &'static str, measured: f64, paper: Option<f64>| {
            cells.push(Cell {
                config: config.clone(),
                workload: workload.into(),
                unit,
                measured,
                paper,
            });
        };
        cell("ops completed", "ops", r.ops as f64, None);
        cell("verify failures", "ops", r.verify_failures as f64, Some(0.0));
        cell("retries", "ops", res.retries as f64, None);
        cell("timeouts", "ops", res.timeouts as f64, None);
        cell("failovers", "ops", res.failovers as f64, None);
        cell("retry budget exhausted", "ops", res.exhausted as f64, None);
        cell("degraded reads", "ops", res.degraded_reads as f64, None);
        cell("fpga failovers", "ops", res.fpga_failovers as f64, None);
        cell("sw-path ops (card down)", "ops", res.degraded_path_ops as f64, None);
        cell("osd crashes", "ops", res.osd_crashes as f64, None);
        cell("dfx swaps", "ops", res.dfx_swaps as f64, None);
        cell("dropped frames", "ops", res.dropped_frames as f64, None);
        cell("corrupt frames", "ops", res.corrupt_frames as f64, None);
        cell("dma errors", "ops", res.dma_errors as f64, None);
        cell("availability", "%", 100.0 * res.availability(r.ops), None);
        cell("time to recover", "µs", res.recovery_time_us, None);
    }

    Experiment {
        id: "chaos".into(),
        caption: "chaos soak: pinned-seed fault schedule vs retry/failover policy".into(),
        cells,
    }
}

// ---------------------------------------------------------------------
// Open-loop latency-under-load curves (`harness loadcurve`)
// ---------------------------------------------------------------------

/// Knobs for the open-loop load sweep — `harness loadcurve` maps its
/// `--rate/--arrival/--zipf-s/--admission-cap` flags onto these.
#[derive(Debug, Clone)]
pub struct LoadCurveOpts {
    /// Offered rates to sweep, KIOPS, low → high.
    pub rates_kiops: Vec<f64>,
    /// Arrival process shaping the intended-arrival clock.
    pub arrival: deliba_workload::ArrivalKind,
    /// Zipf skew of block selection (0 = uniform).
    pub zipf_s: f64,
    /// Admission-queue cap: in-flight bound; arrivals beyond it are
    /// dropped (and counted), never silently deferred.
    pub admission_cap: u32,
    /// Intended arrivals per sweep point.
    pub ops_per_point: u64,
}

impl Default for LoadCurveOpts {
    /// Sweep from well below any generation's capacity to well past
    /// DeLiBA-K's, so every curve shows both the flat region and the
    /// saturation knee.
    fn default() -> Self {
        LoadCurveOpts {
            rates_kiops: vec![2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 96.0, 128.0],
            arrival: deliba_workload::ArrivalKind::Poisson,
            zipf_s: 0.9,
            admission_cap: 256,
            ops_per_point: CELL_OPS / 2,
        }
    }
}

/// The open-loop latency-under-load sweep: one [`RunReport`] per
/// generation (D1, D2, DK), each carrying the whole curve in its
/// `load_curve` section, plus the text-table [`Experiment`].
///
/// Every generation replays the *identical* arrival streams (the
/// generator seed is fixed and rate-independent of the op sequence), so
/// the curves differ only in what the datapath does with the traffic.
/// The carrier report's scalar latency/throughput fields describe the
/// final (highest-rate) point; the curve is the `load_curve` section.
pub fn loadcurve_with(opts: &LoadCurveOpts) -> (Experiment, Vec<RunReport>) {
    use deliba_core::{LoadCurve, OpenLoopRun};
    use deliba_workload::OpenLoopSpec;

    assert!(!opts.rates_kiops.is_empty(), "loadcurve needs at least one rate");
    const GENS: [Generation; 3] =
        [Generation::DeLiBA1, Generation::DeLiBA2, Generation::DeLiBAK];
    let combos: Vec<(Generation, f64)> = GENS
        .iter()
        .flat_map(|&g| opts.rates_kiops.iter().map(move |&r| (g, r)))
        .collect();
    let (arrival, zipf_s, cap, ops) =
        (opts.arrival, opts.zipf_s, opts.admission_cap, opts.ops_per_point);
    let runs: Vec<OpenLoopRun> = crate::runner::par_map(combos, move |(g, rate)| {
        let stream = OpenLoopSpec {
            rate_kiops: rate,
            ops,
            zipf_s,
            arrival,
            ..Default::default()
        }
        .generate();
        Engine::new(EngineConfig::new(g, true, Mode::Replication)).run_open_loop(&stream, cap)
    });

    let mut cells = Vec::new();
    let mut reports = Vec::new();
    for (g, gen_runs) in GENS.iter().zip(runs.chunks(opts.rates_kiops.len())) {
        let points: Vec<_> = gen_runs.iter().map(|r| r.point).collect();
        for p in &points {
            let at = format!("@ {:.0} KIOPS offered", p.offered_kiops);
            let mut cell = |metric: &str, unit: &'static str, measured: f64| {
                cells.push(Cell {
                    config: gen_name(*g),
                    workload: format!("{metric} {at}"),
                    unit,
                    measured,
                    paper: None,
                });
            };
            cell("achieved", "KIOPS", p.achieved_kiops);
            cell("p50", "µs", p.p50_us);
            cell("p99", "µs", p.p99_us);
            cell("p99.9", "µs", p.p999_us);
            cell("dropped", "ops", p.dropped as f64);
        }
        let mut report = gen_runs.last().expect("≥ 1 rate").report.clone();
        report.load_curve = Some(LoadCurve {
            arrival: arrival.label().into(),
            zipf_s,
            admission_cap: cap as u64,
            points,
        });
        reports.push(report);
    }
    let exp = Experiment {
        id: "loadcurve".into(),
        caption: format!(
            "open-loop latency under load ({} arrivals, zipf {:.2}, cap {})",
            arrival.label(),
            zipf_s,
            cap
        ),
        cells,
    };
    (exp, reports)
}

/// [`loadcurve_with`] at the default sweep.
pub fn loadcurve() -> (Experiment, Vec<RunReport>) {
    loadcurve_with(&LoadCurveOpts::default())
}

// ---------------------------------------------------------------------
// Cluster dynamics: recovery storm vs client SLO (`harness recovery`)
// ---------------------------------------------------------------------

/// Degraded-mode SLO study: an OSD dies under open-loop client load and
/// the armed scheduler backfills every lost copy as *costed* background
/// traffic through the same OSD service queues and links the clients
/// use.  The sweep walks the aggressiveness knob (the
/// `osd_recovery_max_active` analogue) from fully throttled to a
/// recovery storm, plus a fault-free baseline replaying the identical
/// arrival stream: foreground tail latency grows with aggressiveness
/// while time-to-clean shrinks — the operator trade-off, measured.  The
/// sweep is deterministic (pinned seeds end to end), so the trade-off's
/// direction is asserted here like a test.
///
/// Excluded from `harness all` (like `chaos`): its cells describe the
/// background-traffic plane, not a paper figure, and `harness all`
/// output must stay byte-identical to the recovery-free baseline.
pub fn recovery() -> Experiment {
    use deliba_cluster::RecoveryPolicy;
    use deliba_fault::{FaultSchedule, ResiliencePolicy};
    use deliba_sim::SimTime;
    use deliba_workload::{ArrivalKind, OpenLoopSpec};

    const RATE_KIOPS: f64 = 24.0;
    const OPS: u64 = CELL_OPS; // ≈ 167 ms of offered load at 24 KIOPS
    const CAP: u32 = 256;
    const CRASH_MS: u64 = 20;
    const VICTIM: i32 = 9;

    // One shared arrival stream, replayed by every sweep point: half
    // writes lay objects down (and become the copies the crash costs),
    // half reads probe degraded-mode latency.
    let stream = OpenLoopSpec {
        rate_kiops: RATE_KIOPS,
        ops: OPS,
        write_frac: 0.5,
        arrival: ArrivalKind::Poisson,
        zipf_s: 0.9,
        ..Default::default()
    }
    .generate();

    // `None` = fault-free baseline; `Some(n)` crashes the victim OSD
    // mid-stream and backfills with `max_active` = n.
    let sweep: Vec<Option<u32>> = vec![None, Some(1), Some(4), Some(16)];
    let runs = crate::runner::par_map(sweep.clone(), |max_active| {
        let mut cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
            .with_resilience(ResiliencePolicy::default());
        if let Some(n) = max_active {
            cfg = cfg.with_recovery(RecoveryPolicy::with_max_active(n));
        }
        let mut e = Engine::new(cfg);
        if max_active.is_some() {
            e.set_fault_schedule(
                FaultSchedule::new()
                    .osd_crash(SimTime::from_nanos(CRASH_MS * 1_000_000), VICTIM),
            );
        }
        let run = e.run_open_loop(&stream, CAP);
        assert_eq!(
            run.report.verify_failures, 0,
            "data corruption at max_active {max_active:?}"
        );
        run
    });

    let mut cells = Vec::new();
    for (ma, run) in sweep.iter().zip(&runs) {
        let config = match ma {
            None => "healthy baseline".to_string(),
            Some(n) => format!("crash + max_active {n}"),
        };
        let p = run.point;
        let mut cell = |workload: &str, unit: &'static str, measured: f64, paper: Option<f64>| {
            cells.push(Cell {
                config: config.clone(),
                workload: workload.into(),
                unit,
                measured,
                paper,
            });
        };
        cell("achieved", "KIOPS", p.achieved_kiops, None);
        cell("foreground p50", "µs", p.p50_us, None);
        cell("foreground p99", "µs", p.p99_us, None);
        cell("foreground p99.9", "µs", p.p999_us, None);
        cell("dropped", "ops", p.dropped as f64, None);
        if let Some(rec) = run.report.recovery {
            cell("objects recovered", "ops", rec.objects_recovered as f64, None);
            cell("recovery ops", "ops", rec.recovery_ops as f64, None);
            cell("background bytes", "MB", rec.background_bytes as f64 / 1e6, None);
            cell("degraded reads", "ops", rec.degraded_reads as f64, None);
            cell("unrecoverable objects", "ops", rec.unrecoverable as f64, Some(0.0));
            cell("time to clean", "ms", rec.time_to_clean_us / 1e3, None);
        }
    }

    // Pin the trade-off (the sweep is deterministic, so these hold or
    // the model regressed): tail interference shrinks monotonically as
    // the scheduler throttles, while time-to-clean stretches; a crash
    // with two surviving copies never strands an object.
    let p99 = |i: usize| runs[i].point.p99_us;
    assert!(
        p99(0) <= p99(1) && p99(1) <= p99(2) && p99(2) <= p99(3),
        "foreground p99 must grow with recovery aggressiveness: \
         baseline {:.1} / throttled {:.1} / default {:.1} / storm {:.1} µs",
        p99(0),
        p99(1),
        p99(2),
        p99(3)
    );
    let ttc = |i: usize| runs[i].report.recovery.expect("armed").time_to_clean_us;
    assert!(
        ttc(3) <= ttc(2) && ttc(2) <= ttc(1),
        "time-to-clean must shrink with recovery aggressiveness: \
         throttled {:.0} / default {:.0} / storm {:.0} µs",
        ttc(1),
        ttc(2),
        ttc(3)
    );
    for run in runs.iter().skip(1) {
        let rec = run.report.recovery.expect("armed");
        assert!(rec.objects_recovered > 0, "the crash must cost something: {rec:?}");
        assert_eq!(rec.unrecoverable, 0, "two copies survive every crash: {rec:?}");
        assert!(rec.time_to_clean_us > 0.0, "every episode closes: {rec:?}");
    }

    Experiment {
        id: "recovery".into(),
        caption: format!(
            "degraded-mode SLO: OSD crash at {CRASH_MS} ms under {RATE_KIOPS:.0} KIOPS \
             open-loop load, recovery aggressiveness sweep"
        ),
        cells,
    }
}

// ---------------------------------------------------------------------
// Telemetry timeline: burn-rate alerting under a mid-run crash
// (`harness timeline`)
// ---------------------------------------------------------------------

/// Knobs of the timeline experiment the harness maps `--window-us` /
/// `--slo-p99-us` onto.
#[derive(Debug, Clone, Copy)]
pub struct TimelineOpts {
    /// Telemetry window width, µs of virtual time.
    pub window_us: u64,
    /// SLO latency target, µs.
    pub slo_p99_us: u64,
}

impl Default for TimelineOpts {
    fn default() -> Self {
        TimelineOpts { window_us: 500, slo_p99_us: 400 }
    }
}

/// Exported artifacts of one timeline run: the carrier report plus the
/// telemetry plane's timeline document, ready to write to disk.
#[derive(Debug, Clone)]
pub struct TimelineArtifacts {
    /// The run's report (carries the `slo` section).
    pub report: RunReport,
    /// Machine-checked timeline document (CI re-derives the alert
    /// invariants from this).
    pub timeline_json: String,
}

/// The telemetry-plane showcase: an open-loop ramp that ends past
/// DeLiBA-K's ≈60 KIOPS saturation knee, with an OSD crash and a
/// recovery storm in the low-rate phase.  The windowed series shows the
/// whole trajectory — degrade, storm, clean, ramp, saturation — and the
/// SLO monitor must fire a burn-rate alert within a bounded number of
/// windows of the crash annotation and clear it once the cluster is
/// clean again.  Deterministic end to end (pinned seeds, virtual-time
/// alerting), so the correlation is asserted here like a test.
///
/// Excluded from `harness all` (like `chaos` and `recovery`): its cells
/// describe the observability plane, not a paper figure.
pub fn timeline_with(opts: &TimelineOpts) -> (Experiment, TimelineArtifacts) {
    use deliba_cluster::RecoveryPolicy;
    use deliba_core::ArrivalOp;
    use deliba_fault::{FaultSchedule, ResiliencePolicy};
    use deliba_sim::{InstantKind, SimDuration, SimTime, TelemetryConfig};
    use deliba_workload::{ArrivalKind, OpenLoopSpec};

    const CAP: u32 = 256;
    const CRASH_MS: u64 = 20;
    const VICTIM: i32 = 9;
    // The alert must fire within this much virtual time of the crash.
    // The client-visible degrade lags the crash itself: in-flight ops to
    // the dead OSD ride out their deadline first, and the storm's
    // latency cost lands at op *completion* times — measured ≈ 10 ms.
    // A time bound (not a window count) keeps the assert meaningful at
    // any `--window-us`.
    const ALERT_WITHIN_US: u64 = 12_000;
    // Hold 24 KIOPS while the crash, storm and clean-up play out, then
    // step across the knee: 48 KIOPS is still under it, 72 is past it.
    const RAMP: [(f64, u64); 3] = [(24.0, 2_400), (48.0, 1_200), (72.0, 1_800)];

    // One concatenated arrival stream: each segment is its own pinned
    // generator, shifted to start where the previous one ended.
    let mut stream: Vec<ArrivalOp> = Vec::new();
    let mut base_ns = 0u64;
    for (i, &(rate, ops)) in RAMP.iter().enumerate() {
        let seg = OpenLoopSpec {
            rate_kiops: rate,
            ops,
            write_frac: 0.5,
            arrival: ArrivalKind::Poisson,
            zipf_s: 0.9,
            seed: 0xD1BA + i as u64,
            ..Default::default()
        }
        .generate();
        let last = seg.last().map(|a| a.at.as_nanos()).unwrap_or(0);
        stream.extend(seg.into_iter().map(|a| ArrivalOp {
            at: SimTime::from_nanos(base_ns + a.at.as_nanos()),
            op: a.op,
        }));
        base_ns += last + 1_000;
    }

    let tcfg = TelemetryConfig::default()
        .with_window(SimDuration::from_micros(opts.window_us))
        .with_slo_p99(SimDuration::from_micros(opts.slo_p99_us));
    let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication)
        .with_resilience(ResiliencePolicy::default())
        .with_recovery(RecoveryPolicy::with_max_active(16))
        .with_telemetry(tcfg);
    let mut e = Engine::new(cfg);
    e.set_fault_schedule(
        FaultSchedule::new().osd_crash(SimTime::from_nanos(CRASH_MS * 1_000_000), VICTIM),
    );
    let run = e.run_open_loop(&stream, CAP);
    assert_eq!(run.report.verify_failures, 0, "data corruption under the timeline schedule");

    // The in-run invariants CI re-derives from the exported JSON.
    let slo = run.report.slo.clone().expect("telemetry was armed");
    let width_ns = e.observer().telemetry(|r| r.width_ns()).expect("recording");
    let anns = e.observer().telemetry(|r| r.annotations()).expect("recording");
    let crash = anns
        .iter()
        .find(|a| a.kind == InstantKind::OsdCrash)
        .expect("the crash lands as a window annotation");
    let crash_window = crash.at.as_nanos() / width_ns;
    assert!(!slo.alerts.is_empty(), "the recovery storm must fire a burn-rate alert");
    let first = &slo.alerts[0];
    let alert_within_windows = (ALERT_WITHIN_US * 1_000).div_ceil(width_ns);
    assert!(
        first.fired_window >= crash_window
            && first.fired_window <= crash_window + alert_within_windows,
        "alert must fire within {ALERT_WITHIN_US} µs ({alert_within_windows} windows) \
         of the crash: crash in window {crash_window}, fired in {}",
        first.fired_window
    );
    let rec = run.report.recovery.expect("armed");
    assert!(rec.time_to_clean_us > 0.0, "the degraded episode must close: {rec:?}");
    let cleared_us = first
        .cleared_us
        .expect("the alert must clear once the storm subsides");
    let crash_us = crash.at.as_nanos() as f64 / 1e3;
    let window_us_f = width_ns as f64 / 1e3;
    // The episode is real (≥ one window long) and bounded by the
    // recovery: burn recovers no later than the cluster's clean instant
    // plus the short rolling window's lag.  (Clearing *before* the
    // official clean is legitimate — the monitor tracks client burn,
    // and the storm's latency pressure subsides while the final
    // rescan/drain still runs.)
    assert!(
        cleared_us >= first.fired_us + window_us_f,
        "the alert episode must span at least one window: \
         fired {:.0} µs, cleared {cleared_us:.0} µs",
        first.fired_us
    );
    let lag = (tcfg.short_windows as f64 + 2.0) * window_us_f;
    assert!(
        cleared_us <= crash_us + rec.time_to_clean_us + lag,
        "the alert must clear once the cluster is clean again: \
         cleared {cleared_us:.0} µs, crash {crash_us:.0} µs + time-to-clean {:.0} µs + lag {lag:.0} µs",
        rec.time_to_clean_us
    );
    assert!(slo.attainment < 1.0, "the storm must burn budget: {slo:?}");

    let p = run.point;
    let alert_latency_windows = (first.fired_window - crash_window) as f64;
    let config = "DeLiBA-K crash + ramp (telemetry)".to_string();
    let mut cells = Vec::new();
    {
        let mut cell = |workload: &str, unit: &'static str, measured: f64| {
            cells.push(Cell {
                config: config.clone(),
                workload: workload.into(),
                unit,
                measured,
                paper: None,
            });
        };
        cell("achieved", "KIOPS", p.achieved_kiops);
        cell("foreground p99", "µs", p.p99_us);
        cell("dropped", "ops", p.dropped as f64);
        cell("windows", "win", slo.windows as f64);
        cell("attainment", "frac", slo.attainment);
        cell("alerts", "win", slo.alerts.len() as f64);
        cell("alert latency", "win", alert_latency_windows);
        cell("alert fired", "ms", first.fired_us / 1e3);
        cell("alert cleared", "ms", cleared_us / 1e3);
        cell("time to clean", "ms", rec.time_to_clean_us / 1e3);
    }

    let artifacts = e
        .observer()
        .telemetry(|r| TimelineArtifacts {
            report: run.report.clone(),
            timeline_json: r.timeline_json(),
        })
        .expect("recording");

    let exp = Experiment {
        id: "timeline".into(),
        caption: format!(
            "telemetry timeline: OSD crash at {CRASH_MS} ms + recovery storm under an \
             open-loop ramp to 72 KIOPS ({} µs windows, {} µs SLO target)",
            opts.window_us, opts.slo_p99_us
        ),
        cells,
    };
    (exp, artifacts)
}

/// [`timeline_with`] at the default window/SLO knobs.
pub fn timeline() -> (Experiment, TimelineArtifacts) {
    timeline_with(&TimelineOpts::default())
}

// ---------------------------------------------------------------------
// Deep-scrub cadence vs bit-rot (`harness scrub`)
// ---------------------------------------------------------------------

/// Scrub-rate overhead study with injected silent corruption: write-once
/// traces (no overwrite ever masks a flip) in both redundancy modes, a
/// seeded bit-rot burst mid-run, and a cadence sweep from aggressive to
/// lazy deep scrub plus a scrub-off reference.  Scrub walks the object
/// space at the configured rate, byte/parity-compares every readable
/// copy with costed media reads, and repairs mismatches with costed
/// writes.  The cadence knob controls how much of the object space each
/// run window scans; the foreground-overhead cells quantify what that
/// scanning costs the clients (≈ 0 at lab scale — the host path, not
/// the media, is the bottleneck).  Every armed cadence must find and
/// repair 100 % of the injected rot (the end-of-run drain pass
/// guarantees it); asserted here like a test.
///
/// Excluded from `harness all` for the same reason as `chaos` and
/// `recovery`.
pub fn scrub() -> Experiment {
    use deliba_cluster::RecoveryPolicy;
    use deliba_core::TraceOp;
    use deliba_fault::FaultSchedule;
    use deliba_sim::{SimDuration, SimTime};

    // High foreground concurrency on purpose: each OSD models 8 service
    // threads, so a lightly loaded cluster absorbs scrub into idle
    // threads and shows no interference at all.  4 jobs × qd 16 keeps
    // the service queues occupied, which is the regime where the scrub
    // cadence actually costs foreground latency.
    const JOBS: u64 = 4;
    const QD: u32 = 16;
    const OBJECTS_PER_JOB: u64 = 24;
    const BLOCK: u32 = 131_072; // heavy objects: scrub reads cost real media time
    const ROT_COPIES: u32 = 12;
    const ROT_AT_US: u64 = 2_000; // mid-writes: objects exist, run still live

    // Each job writes its own run of distinct 4 MiB-aligned objects
    // once, then reads every block back — write-once, so an injected
    // flip persists until scrub repairs it (and the read path must keep
    // serving clean bytes from the surviving copies meanwhile).
    let trace = |job: u64| -> Vec<TraceOp> {
        let obj = |i: u64| (job * OBJECTS_PER_JOB + i) * (4 << 20);
        let mut ops = Vec::with_capacity(2 * OBJECTS_PER_JOB as usize);
        for i in 0..OBJECTS_PER_JOB {
            ops.push(TraceOp::write(obj(i), BLOCK, true));
        }
        for i in 0..OBJECTS_PER_JOB {
            ops.push(TraceOp::read(obj(i), BLOCK, true));
        }
        ops
    };

    // `None` = scrub off (foreground reference; the rot stays latent),
    // `Some(µs)` = deep-scrub period.
    let cadences: Vec<Option<u64>> = vec![None, Some(50), Some(400), Some(1_600)];
    let mut combos = Vec::new();
    for mode in [Mode::Replication, Mode::ErasureCoding] {
        for &iv in &cadences {
            combos.push((mode, iv));
        }
    }
    let runs = crate::runner::par_map(combos.clone(), |(mode, iv)| {
        let policy = match iv {
            None => RecoveryPolicy::default(),
            Some(us) => {
                RecoveryPolicy::default().with_scrub(SimDuration::from_micros(us), 8)
            }
        };
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, mode).with_recovery(policy);
        let mut e = Engine::new(cfg);
        e.set_fault_schedule(
            FaultSchedule::new().bit_rot(SimTime::from_nanos(ROT_AT_US * 1_000), ROT_COPIES),
        );
        let r = e.run_trace((0..JOBS).map(trace).collect(), QD);
        assert_eq!(
            r.verify_failures, 0,
            "reads must never consume a corrupt copy ({} scrub {iv:?} µs)",
            mode.label()
        );
        r
    });

    let mut cells = Vec::new();
    for ((mode, iv), r) in combos.iter().zip(&runs) {
        let rec = r.recovery.expect("armed runs report recovery counters");
        let config = match iv {
            None => format!("{} scrub off", mode.label()),
            Some(us) => format!("{} scrub {us} µs", mode.label()),
        };
        let mut cell = |workload: &str, unit: &'static str, measured: f64, paper: Option<f64>| {
            cells.push(Cell {
                config: config.clone(),
                workload: workload.into(),
                unit,
                measured,
                paper,
            });
        };
        cell("foreground mean latency", "µs", r.mean_latency_us, None);
        // Overhead vs this mode's scrub-off reference.  The lab-scale
        // finding is that it is ≈ 0: the host path is the bottleneck
        // (the paper's whole premise) and the OSD thread banks have
        // headroom, so scrub rides in otherwise-idle media time.
        let base = runs[combos
            .iter()
            .position(|&(m, i)| m == *mode && i.is_none())
            .expect("reference row exists")]
        .mean_latency_us;
        cell(
            "foreground latency overhead",
            "%",
            100.0 * (r.mean_latency_us - base) / base,
            None,
        );
        cell("bitrot injected", "ops", rec.bitrot_injected as f64, None);
        if iv.is_some() {
            cell("scrub objects examined", "ops", rec.scrub_objects as f64, None);
            cell("scrub rate", "obj/s", rec.scrub_objects as f64 / r.window_s.max(1e-12), None);
            cell(
                "bitrot detected",
                "ops",
                rec.bitrot_detected as f64,
                Some(rec.bitrot_injected as f64),
            );
            cell(
                "bitrot repaired",
                "ops",
                rec.bitrot_repaired as f64,
                Some(rec.bitrot_injected as f64),
            );
            cell("repair writes", "ops", rec.objects_repaired as f64, None);
        }
        // 100 % detection and repair on every armed cadence — the
        // end-of-run drain pass closes whatever the periodic ticks
        // missed.  Deterministic, so asserted like a test.
        if iv.is_some() {
            assert_eq!(
                rec.bitrot_injected, ROT_COPIES as u64,
                "{config}: the burst must land in full"
            );
            assert_eq!(
                rec.bitrot_detected, rec.bitrot_injected,
                "{config}: every flip found: {rec:?}"
            );
            assert_eq!(
                rec.bitrot_repaired, rec.bitrot_injected,
                "{config}: every flip fixed: {rec:?}"
            );
        }
    }

    // Per mode: the cadence knob must actually control the scan rate —
    // a more aggressive period examines at least as many objects over
    // the same run (the drain pass puts a shared floor under all of
    // them, so the relation is ≥, not >).
    for (m, mode) in [Mode::Replication, Mode::ErasureCoding].iter().enumerate() {
        let scanned = |i: usize| {
            runs[m * cadences.len() + i].recovery.expect("armed").scrub_objects
        };
        assert!(
            scanned(1) >= scanned(2) && scanned(2) >= scanned(3),
            "{}: scan volume must grow with cadence: 50 µs {} / 400 µs {} / 1600 µs {}",
            mode.label(),
            scanned(1),
            scanned(2),
            scanned(3)
        );
        assert!(
            scanned(3) >= JOBS * OBJECTS_PER_JOB,
            "{}: even the laziest cadence completes at least one full pass",
            mode.label()
        );
    }

    Experiment {
        id: "scrub".into(),
        caption: format!(
            "deep-scrub cadence sweep vs {ROT_COPIES} injected bit-rot flips \
             (write-once traces, both redundancy modes)"
        ),
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A perf experiment whose floor cells read `value(limit)`.
    fn perf_cells(value: impl Fn(Limit) -> f64) -> Experiment {
        let cells = PERF_FLOORS
            .iter()
            .map(|&(config, workload, limit)| Cell {
                config: config.into(),
                workload: workload.into(),
                unit: "",
                measured: value(limit),
                paper: None,
            })
            .collect();
        Experiment {
            id: "perf".into(),
            caption: String::new(),
            cells,
        }
    }

    /// Every floor passes clear of its limit, and fails at it (the
    /// limits are strict) and past it; a missing cell fails too.
    #[test]
    fn perf_gate_fails_each_floor_at_or_past_its_limit() {
        let clear = |limit| match limit {
            Limit::Above(x) => 2.0 * x,
            Limit::Below(_) => 0.0,
        };
        assert_eq!(perf_gate(&perf_cells(clear)), Vec::<String>::new());
        for (i, &(config, workload, _)) in PERF_FLOORS.iter().enumerate() {
            let limit_of = |l| match l {
                Limit::Above(x) | Limit::Below(x) => x,
            };
            let past = |l| match l {
                Limit::Above(x) => x / 2.0,
                Limit::Below(x) => 2.0 * x,
            };
            for broken in [limit_of, past] {
                let mut exp = perf_cells(clear);
                exp.cells[i].measured = broken(PERF_FLOORS[i].2);
                let failures = perf_gate(&exp);
                assert_eq!(failures.len(), 1, "{config} / {workload}: {failures:?}");
                assert!(failures[0].starts_with(&format!("{config} / {workload}:")));
            }
            let mut exp = perf_cells(clear);
            exp.cells.remove(i);
            assert_eq!(perf_gate(&exp).len(), 1, "missing {config} / {workload}");
        }
    }
}

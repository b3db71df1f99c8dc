//! Shape assertions for every reproduced table and figure — the
//! DESIGN.md criteria: who wins, by roughly what factor, with anchor
//! cells within tight tolerance.

use deliba_bench as bench;

fn within(measured: f64, paper: f64, tol: f64) -> bool {
    (measured - paper).abs() / paper <= tol
}

/// Per-cell Table II ceilings on |error| in %, in the column order of
/// [`TABLE2_WORKLOADS`]: each cell's error when the ceilings were set,
/// rounded up to 0.5 %.  A ceiling may only move down.
const TABLE2_CEILINGS_PCT: [(&str, [f64; 4]); 5] = [
    ("D1 (replication)", [9.5, 0.5, 1.0, 1.0]),
    ("D2 (replication)", [5.5, 1.5, 1.0, 2.5]),
    ("DeLiBA-K (replication)", [1.5, 1.5, 0.5, 1.0]),
    ("D2 (erasure-coding)", [15.0, 4.0, 4.0, 7.0]),
    ("DeLiBA-K (erasure-coding)", [1.0, 3.0, 8.0, 6.0]),
];
const TABLE2_WORKLOADS: [&str; 4] =
    ["seq-read 4k", "seq-write 4k", "rand-read 4k", "rand-write 4k"];

#[test]
fn table2_anchor_cells_within_tolerance() {
    let t2 = bench::table2();
    assert_eq!(t2.cells.len(), 20, "Table II has 20 cells");
    for cell in &t2.cells {
        let p = cell.paper.expect("every Table II cell has a paper anchor");
        let (_, row) = TABLE2_CEILINGS_PCT
            .iter()
            .find(|(config, _)| *config == cell.config)
            .unwrap_or_else(|| panic!("no ceiling row for {}", cell.config));
        let col = TABLE2_WORKLOADS
            .iter()
            .position(|w| *w == cell.workload)
            .unwrap_or_else(|| panic!("no ceiling column for {}", cell.workload));
        assert!(
            within(cell.measured, p, row[col] / 100.0),
            "{} {}: measured {:.1} vs paper {:.1}, ceiling {} %",
            cell.config,
            cell.workload,
            cell.measured,
            p,
            row[col]
        );
    }
}

#[test]
fn fig6_throughput_shape() {
    let f6 = bench::fig6();
    // DeLiBA-K beats D2 beats D1 on every cell.
    for workload in [
        "rand-write 4k",
        "rand-write 8k",
        "seq-write 64k",
        "seq-write 128k",
        "rand-read 4k",
    ] {
        let dk = f6.get("DeLiBA-K", workload).unwrap();
        let d2 = f6.get("D2", workload).unwrap();
        let d1 = f6.get("D1", workload).unwrap();
        assert!(dk > d2, "{workload}: DK {dk} > D2 {d2}");
        assert!(d2 >= d1 * 0.95, "{workload}: D2 {d2} vs D1 {d1}");
    }
    // Headline factors roughly hold where the paper quotes them.
    let speedup_4k = f6.get("DeLiBA-K", "rand-write 4k").unwrap()
        / f6.get("D2", "rand-write 4k").unwrap();
    assert!(
        (2.2..4.5).contains(&speedup_4k),
        "4 kB random-write speedup {speedup_4k} (paper 3.45×)"
    );
    let speedup_128k = f6.get("DeLiBA-K", "seq-write 128k").unwrap()
        / f6.get("D2", "seq-write 128k").unwrap();
    assert!(
        (1.5..3.2).contains(&speedup_128k),
        "128 kB seq-write speedup {speedup_128k} (paper 2.0×)"
    );
    // Largest relative gains at small random writes (the paper's
    // emphasis).
    assert!(speedup_4k > speedup_128k);
}

#[test]
fn fig7_kiops_peak_near_59k() {
    let f7 = bench::fig7();
    let dk = f7.get("DeLiBA-K", "rand-read 4k").unwrap();
    assert!(within(dk, 59.0, 0.15), "DeLiBA-K peak KIOPS {dk}");
    // IOPS falls with block size for every generation.
    for cfg in ["D1", "D2", "DeLiBA-K"] {
        let small = f7.get(cfg, "rand-read 4k").unwrap();
        let large = f7.get(cfg, "rand-read 128k").unwrap();
        assert!(small > large, "{cfg}: {small} vs {large}");
    }
}

#[test]
fn fig8_fig9_ec_shape() {
    let f8 = bench::fig8();
    let f9 = bench::fig9();
    for workload in ["rand-write 4k", "seq-write 128k", "rand-read 4k"] {
        assert!(
            f8.get("DeLiBA-K", workload).unwrap() > f8.get("D2", workload).unwrap(),
            "fig8 {workload}"
        );
        assert!(
            f9.get("DeLiBA-K", workload).unwrap() > f9.get("D2", workload).unwrap(),
            "fig9 {workload}"
        );
    }
}

#[test]
fn fig3_fig4_software_baseline_shape() {
    for exp in [bench::fig3(), bench::fig4()] {
        // DeLiBA-K's software stack beats DeLiBA-2's on latency and
        // throughput at 4 kB random.
        let dk_lat = exp.get("DeLiBA-K-SW", "rand-read 4k").unwrap();
        let d2_lat = exp.get("D2-SW", "rand-read 4k").unwrap();
        assert!(dk_lat < d2_lat, "{}: {dk_lat} < {d2_lat}", exp.id);
        let cells: Vec<_> = exp
            .cells
            .iter()
            .filter(|c| c.unit == "MB/s" && c.workload == "rand-write 4k")
            .collect();
        assert_eq!(cells.len(), 2);
        let d2 = cells.iter().find(|c| c.config.contains("D2")).unwrap();
        let dk = cells.iter().find(|c| c.config.contains("DeLiBA-K")).unwrap();
        let ratio = dk.measured / d2.measured;
        assert!(
            ratio > 1.5,
            "{}: SW write throughput gain {ratio} (paper ≈2.88×)",
            exp.id
        );
    }
}

#[test]
fn table3_within_one_percentage_point() {
    for cell in bench::table3().cells {
        if let (Some(p), "%") = (cell.paper, cell.unit) {
            assert!(
                (cell.measured - p).abs() < 1.0,
                "{} {}: {:.2} vs {:.2}",
                cell.config,
                cell.workload,
                cell.measured,
                p
            );
        }
    }
}

#[test]
fn power_exact() {
    for cell in bench::power().cells {
        if let Some(p) = cell.paper {
            assert!(within(cell.measured, p, 0.01), "{}", cell.config);
        }
    }
}

#[test]
fn headline_factors() {
    let h = bench::headline();
    let iops = h.get("DeLiBA-K / D2", "peak IOPS speedup").unwrap();
    let tput = h.get("DeLiBA-K / D2", "peak throughput speedup").unwrap();
    assert!((2.5..4.2).contains(&iops), "IOPS speedup {iops} (paper 3.2×)");
    assert!((2.5..4.2).contains(&tput), "throughput speedup {tput} (paper 3.45×)");
}

#[test]
fn realworld_reduction_near_thirty_percent() {
    let r = bench::realworld();
    for name in ["OLAP time reduction", "OLTP time reduction"] {
        let v = r.get("DeLiBA-K vs D2", name).unwrap();
        assert!(
            (15.0..50.0).contains(&v),
            "{name}: {v} % (paper ≈30 %)"
        );
    }
}

#[test]
fn dfx_swap_is_safe_and_fast() {
    let d = bench::dfx();
    let swap_ms = d.get("partial bitstream load", "RM Uniform → Tree").unwrap();
    assert!((5.0..100.0).contains(&swap_ms), "swap {swap_ms} ms");
    assert_eq!(
        d.get("I/O during swap", "integrity failures").unwrap(),
        0.0
    );
    assert!(
        d.get("Straw2 fallback placements", "during reconfiguration")
            .unwrap()
            > 0.0
    );
}

#[test]
fn ablation_improves_monotonically() {
    let a = bench::ablation();
    let tputs: Vec<f64> = a
        .cells
        .iter()
        .filter(|c| c.unit == "MB/s")
        .map(|c| c.measured)
        .collect();
    let lats: Vec<f64> = a
        .cells
        .iter()
        .filter(|c| c.unit == "µs")
        .map(|c| c.measured)
        .collect();
    assert_eq!(tputs.len(), 7, "baseline + six optimizations");
    for w in tputs.windows(2) {
        assert!(w[1] >= w[0] * 0.99, "throughput regressed: {w:?}");
    }
    for w in lats.windows(2) {
        assert!(w[1] <= w[0] * 1.01, "latency regressed: {w:?}");
    }
    // io_uring (step ①) is the single largest contributor — the paper's
    // central thesis.
    let io_uring_gain = tputs[1] - tputs[0];
    let rest_gain = tputs[6] - tputs[1];
    assert!(io_uring_gain > rest_gain, "io_uring must dominate the ablation");
    // End state ≈ DeLiBA-K.
    assert!((tputs[6] - 144.0).abs() / 144.0 < 0.1);
}

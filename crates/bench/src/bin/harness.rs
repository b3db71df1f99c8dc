//! The experiment harness: regenerate every table and figure of the
//! DeLiBA-K paper.
//!
//! ```text
//! harness [experiment ...] [--json] [--out <path>] [--serial]
//!         [--baseline <file>] [--gate]
//! harness trace [--trace-depth <off|stages|spans|full>] [--out <dir>]
//! harness loadcurve [--rate <kiops,...>] [--arrival <poisson|bursty|diurnal>]
//!                   [--zipf-s <s>] [--admission-cap <n>] [--json] [--out <path>]
//! harness timeline [--window-us <n>] [--slo-p99-us <n>] [--out <dir>]
//!
//! experiments: fig3 fig4 fig6 fig7 fig8 fig9
//!              table1 table2 table3 power realworld headline dfx
//!              ablation mtu breakdown
//!              perf (wall-clock gate; never part of `all`)
//!              chaos (fault-plane soak; never part of `all`)
//!              recovery (degraded-mode SLO sweep; never part of `all`)
//!              scrub (deep-scrub cadence vs bit-rot; never part of `all`)
//!              trace (flight-recorder export; never part of `all`)
//!              loadcurve (open-loop latency-under-load sweep; never
//!                         part of `all`)
//!              timeline (telemetry-plane timeline + burn-rate alert
//!                        experiment; never part of `all`)
//!              all (default)
//!
//! --json           emit the results as JSON instead of text tables
//! --out <path>     write the JSON to <path> (implies --json)
//! --baseline <f>   diff every cell of this run against a previously
//!                  saved harness JSON (e.g. BENCH_harness.json) and
//!                  exit nonzero when any ev/s cell lost more than 20 %
//!                  or a cell exists on only one side — the CI
//!                  perf-ratchet (pairs with `perf`)
//! --gate           check `perf`'s cells against the floors in
//!                  `PERF_FLOORS` and exit nonzero when one breaks
//! --serial         run every sweep on one thread (also: DELIBA_JOBS=n)
//! --trace-depth    recorder depth for `trace` (default: full)
//! --rate           loadcurve offered rates, comma-separated KIOPS
//!                  (default: 2,4,8,16,32,64,96,128)
//! --arrival        loadcurve arrival process (default: poisson)
//! --zipf-s         loadcurve Zipf skew of block selection (default: 0.9)
//! --admission-cap  loadcurve in-flight bound; arrivals past it are
//!                  dropped and counted (default: 256)
//! --window-us      timeline telemetry window width in µs of virtual
//!                  time (default: 500)
//! --slo-p99-us     timeline SLO latency target in µs (default: 400)
//! ```
//!
//! `loadcurve` runs alone: its JSON output is one `RunReport` per
//! generation, each carrying the sweep in its `load_curve` section —
//! not the figure-cell array the other experiments emit.  Latency is
//! measured from each op's *intended* arrival instant, so the curves
//! are coordinated-omission-safe by construction.
//!
//! `trace` runs alone (it is a file-emitting export, not a figure): it
//! writes `trace-<cell>.trace.json` (Chrome trace-event JSON — load in
//! Perfetto or `chrome://tracing`) and `trace-<cell>.report.json` (the
//! cell's `RunReport`) per cell into the `--out` directory (default
//! `.`), and prints each cell's ring counts (events held and dropped)
//! and worst-K tail-latency attribution table.
//!
//! `timeline` also runs alone: it runs the telemetry-plane experiment
//! (open-loop ramp + mid-run OSD crash with recovery armed, asserting
//! the burn-rate alert correlates with the degrade onset) and, when
//! `--out <dir>` is given, writes `timeline.json` (the machine-checked
//! timeline document: SLO verdict, annotations and every window's
//! series) and `timeline.report.json` (the carrier `RunReport` with its
//! `slo` section) into the directory.
//!
//! Each engine run is serial.  Multi-core use comes from the sweeps:
//! they run cells on `DELIBA_JOBS` worker threads (default: all
//! cores), and output is byte-identical to a serial run either way.

use deliba_bench::*;

/// Everything `all` expands to.  `perf` is deliberately absent: its
/// wall-clock cells are nondeterministic and `harness all` output must
/// stay bit-reproducible run to run.  `chaos` is absent for a different
/// reason: it describes the fault plane, not a paper figure, and keeping
/// it out preserves the fault-free baseline byte for byte.
const ALL: &[&str] = &[
    "table1", "table2", "table3", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
    "power", "realworld", "headline", "dfx", "ablation", "mtu", "breakdown",
];

const KNOWN: &[&str] = &[
    "all", "table1", "table2", "table3", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9",
    "power", "realworld", "headline", "dfx", "ablation", "mtu", "breakdown", "perf",
    "chaos", "recovery", "scrub", "trace", "loadcurve", "timeline",
];

/// The `--baseline` comparison: diff this run's cells against a
/// previously saved harness JSON (the committed `BENCH_harness.json`),
/// print per-cell deltas, and report failure when any events-per-second
/// cell regressed by more than 20 % — the tolerance wide enough for a
/// shared CI box, tight enough to catch a real structural slowdown.
///
/// Cells are matched on `(experiment id, config, workload)`.  A cell on
/// only one side also fails the comparison: a baseline cell the run no
/// longer produces, or a run cell the baseline never recorded, means the
/// ratchet no longer covers it — regenerate the baseline instead.
/// Deltas go to stderr so `--json` stdout stays machine-parseable.
fn compare_baseline(path: &str, results: &[Experiment]) -> bool {
    let body = match std::fs::read_to_string(path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read baseline {path}: {e}");
            std::process::exit(1);
        }
    };
    let base: serde::Value = match serde_json::from_str(&body) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("baseline {path} is not harness JSON: {e}");
            std::process::exit(1);
        }
    };
    fn as_str(v: Option<&serde::Value>) -> &str {
        match v {
            Some(serde::Value::Str(s)) => s,
            _ => "",
        }
    }
    fn as_f64(v: Option<&serde::Value>) -> Option<f64> {
        match v {
            Some(serde::Value::Float(f)) => Some(*f),
            Some(serde::Value::UInt(u)) => Some(*u as f64),
            Some(serde::Value::Int(i)) => Some(*i as f64),
            _ => None,
        }
    }
    let serde::Value::Array(exps) = &base else {
        eprintln!("baseline {path} is not a harness experiment array");
        std::process::exit(1);
    };
    let mut old: std::collections::BTreeMap<(String, String, String), f64> =
        std::collections::BTreeMap::new();
    for exp in exps {
        let id = as_str(exp.get("id"));
        let Some(serde::Value::Array(cells)) = exp.get("cells") else { continue };
        for cell in cells {
            if let Some(m) = as_f64(cell.get("measured")) {
                old.insert(
                    (
                        id.to_string(),
                        as_str(cell.get("config")).to_string(),
                        as_str(cell.get("workload")).to_string(),
                    ),
                    m,
                );
            }
        }
    }
    const TOLERANCE: f64 = 0.20;
    let mut regressed = false;
    let mut unmatched = false;
    eprintln!("== baseline comparison vs {path}");
    for exp in results {
        for c in &exp.cells {
            let key = (exp.id.clone(), c.config.clone(), c.workload.clone());
            match old.remove(&key) {
                None => {
                    unmatched = true;
                    eprintln!(
                        "  {:28} {:38} (no baseline cell: {:.3} {})  UNMATCHED",
                        c.config, c.workload, c.measured, c.unit
                    );
                }
                Some(was) if was != 0.0 => {
                    let delta = (c.measured - was) / was;
                    // Only throughput cells gate: wall-clock and ratio
                    // cells have their own dedicated CI assertions.
                    let bad = c.unit == "ev/s" && delta < -TOLERANCE;
                    regressed |= bad;
                    eprintln!(
                        "  {:28} {:38} {:>14.1} -> {:>14.1} {:>+8.1}% {}{}",
                        c.config,
                        c.workload,
                        was,
                        c.measured,
                        delta * 100.0,
                        c.unit,
                        if bad { "  REGRESSION" } else { "" }
                    );
                }
                Some(_) => eprintln!(
                    "  {:28} {:38} (zero baseline: {:.3} {})",
                    c.config, c.workload, c.measured, c.unit
                ),
            }
        }
    }
    for (_, config, workload) in old.keys() {
        unmatched = true;
        eprintln!("  {config:28} {workload:38} (missing from this run)  UNMATCHED");
    }
    if regressed {
        eprintln!("baseline comparison FAILED: an ev/s cell regressed more than 20%");
    }
    if unmatched {
        eprintln!(
            "baseline comparison FAILED: cells present on only one side \
             (regenerate the baseline)"
        );
    }
    if !regressed && !unmatched {
        eprintln!("baseline comparison passed (ev/s tolerance 20%)");
    }
    regressed || unmatched
}

fn usage() -> ! {
    eprintln!(
        "usage: harness [experiment ...] [--json] [--out <path>] [--serial] [--baseline <file>] \
         [--gate]"
    );
    eprintln!("       harness trace [--trace-depth <off|stages|spans|full>] [--out <dir>]");
    eprintln!(
        "       harness loadcurve [--rate <kiops,...>] [--arrival <kind>] \
         [--zipf-s <s>] [--admission-cap <n>]"
    );
    eprintln!("       harness timeline [--window-us <n>] [--slo-p99-us <n>] [--out <dir>]");
    eprintln!("experiments: {}", KNOWN.join(" "));
    std::process::exit(2);
}

/// Write `body` to `path`, or exit 1 naming the path.
fn write_or_exit(path: &std::path::Path, body: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// The pretty JSON of `report` plus a newline, as the file exports
/// write it.
fn report_json(report: &deliba_core::RunReport) -> String {
    serde_json::to_string_pretty(report).expect("serializable") + "\n"
}

/// The `trace` subcommand: run the flight-recorder cells and write each
/// one's Chrome trace + run report into `out_dir`.
fn run_trace(depth_flag: Option<String>, out_dir: Option<String>) {
    let depth_str = depth_flag.unwrap_or_else(|| "full".into());
    let Some(depth) = deliba_sim::TraceDepth::parse(&depth_str) else {
        eprintln!("bad trace depth: {depth_str} (use off, stages, spans or full)");
        std::process::exit(2);
    };
    if !depth.has_ring() {
        eprintln!(
            "trace depth is {} — nothing to record (use --trace-depth spans|full)",
            depth.label()
        );
        std::process::exit(2);
    }
    let dir = std::path::PathBuf::from(out_dir.unwrap_or_else(|| ".".into()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    println!("== trace — flight-recorder export (depth {})", depth.label());
    for cell in run_trace_cells(depth) {
        let chrome_path = dir.join(format!("trace-{}.trace.json", cell.name));
        let report_path = dir.join(format!("trace-{}.report.json", cell.name));
        write_or_exit(&chrome_path, &cell.chrome);
        write_or_exit(&report_path, &report_json(&cell.report));
        println!(
            "  {} → {} ({} events held, {} dropped) + {}",
            cell.name,
            chrome_path.display(),
            cell.stats.held,
            cell.stats.dropped,
            report_path.display()
        );
        print!("{}", worst_k_table(&cell));
    }
}

/// The `timeline` subcommand: run the telemetry-plane experiment (the
/// in-run alert asserts fire inside `timeline_with`) and write the
/// timeline document plus the carrier report into `out_dir` when given.
fn run_timeline(opts: TimelineOpts, out_dir: Option<String>) {
    let (exp, art) = timeline_with(&opts);
    exp.print();
    let Some(dir) = out_dir else { return };
    let dir = std::path::PathBuf::from(dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        std::process::exit(1);
    }
    let files = [
        ("timeline.json", art.timeline_json),
        ("timeline.report.json", report_json(&art.report)),
    ];
    for (name, body) in files {
        let path = dir.join(name);
        write_or_exit(&path, &body);
        println!("  wrote {}", path.display());
    }
}

/// The `loadcurve` subcommand: run the open-loop sweep, print the text
/// table or emit one `RunReport` per generation (curve in `load_curve`).
fn run_loadcurve(opts: LoadCurveOpts, json: bool, out: Option<String>) {
    let (exp, reports) = loadcurve_with(&opts);
    if !json {
        exp.print();
        return;
    }
    let body = serde_json::to_string_pretty(&reports).expect("serializable");
    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, body + "\n") {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
        None => println!("{body}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json = false;
    let mut serial = false;
    let mut out: Option<String> = None;
    let mut baseline: Option<String> = None;
    let mut gate = false;
    let mut trace_depth: Option<String> = None;
    let mut lc = LoadCurveOpts::default();
    let mut lc_flag_seen = false;
    let mut tl = TimelineOpts::default();
    let mut tl_flag_seen = false;
    let mut wanted: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--serial" => serial = true,
            "--gate" => gate = true,
            "--out" => match it.next() {
                Some(p) => {
                    json = true; // --out without --json still means JSON
                    out = Some(p);
                }
                None => {
                    eprintln!("--out requires a path");
                    usage();
                }
            },
            "--baseline" => match it.next() {
                Some(p) => baseline = Some(p),
                None => {
                    eprintln!("--baseline requires a harness JSON path");
                    usage();
                }
            },
            "--trace-depth" => match it.next() {
                Some(d) => trace_depth = Some(d),
                None => {
                    eprintln!("--trace-depth requires off, stages, spans or full");
                    usage();
                }
            },
            "--rate" => {
                let Some(list) = it.next() else {
                    eprintln!("--rate requires a comma-separated KIOPS list");
                    usage();
                };
                let rates: Option<Vec<f64>> = list
                    .split(',')
                    .map(|r| {
                        r.trim()
                            .parse::<f64>()
                            .ok()
                            .filter(|v| v.is_finite() && *v > 0.0)
                    })
                    .collect();
                match rates {
                    Some(r) if !r.is_empty() => lc.rates_kiops = r,
                    _ => {
                        eprintln!("bad --rate list: {list} (want e.g. 2,8,32,128)");
                        usage();
                    }
                }
                lc_flag_seen = true;
            }
            "--arrival" => {
                let Some(kind) = it.next() else {
                    eprintln!("--arrival requires poisson, bursty or diurnal");
                    usage();
                };
                match deliba_workload::ArrivalKind::parse(&kind) {
                    Some(k) => lc.arrival = k,
                    None => {
                        eprintln!("bad --arrival: {kind} (use poisson, bursty or diurnal)");
                        usage();
                    }
                }
                lc_flag_seen = true;
            }
            "--zipf-s" => {
                let zipf_s = it.next().and_then(|s| s.parse::<f64>().ok());
                match zipf_s.filter(|s| s.is_finite() && *s >= 0.0) {
                    Some(s) => lc.zipf_s = s,
                    None => {
                        eprintln!("--zipf-s requires a finite nonnegative number");
                        usage();
                    }
                }
                lc_flag_seen = true;
            }
            "--admission-cap" => {
                match it.next().and_then(|s| s.parse::<u32>().ok()).filter(|c| *c > 0) {
                    Some(c) => lc.admission_cap = c,
                    None => {
                        eprintln!("--admission-cap requires a positive integer");
                        usage();
                    }
                }
                lc_flag_seen = true;
            }
            "--window-us" => {
                match it.next().and_then(|s| s.parse::<u64>().ok()).filter(|w| *w > 0) {
                    Some(w) => tl.window_us = w,
                    None => {
                        eprintln!("--window-us requires a positive integer (µs)");
                        usage();
                    }
                }
                tl_flag_seen = true;
            }
            "--slo-p99-us" => {
                match it.next().and_then(|s| s.parse::<u64>().ok()).filter(|t| *t > 0) {
                    Some(t) => tl.slo_p99_us = t,
                    None => {
                        eprintln!("--slo-p99-us requires a positive integer (µs)");
                        usage();
                    }
                }
                tl_flag_seen = true;
            }
            "--help" | "-h" => usage(),
            other if other.starts_with('-') => {
                eprintln!("unknown flag: {other}");
                usage();
            }
            name => wanted.push(name.to_string()),
        }
    }

    // Validate *every* name before running anything: a typo after three
    // valid experiments must not exit mid-run with partial output.
    let unknown: Vec<&String> = wanted.iter().filter(|w| !KNOWN.contains(&w.as_str())).collect();
    if !unknown.is_empty() {
        for u in unknown {
            eprintln!("unknown experiment: {u}");
        }
        usage();
    }

    // Expand `all` in place, then dedupe preserving first occurrence, so
    // `harness fig6 all fig6` runs each experiment exactly once.
    if wanted.is_empty() {
        wanted.push("all".into());
    }
    let mut expanded: Vec<String> = Vec::new();
    for w in wanted {
        if w == "all" {
            expanded.extend(ALL.iter().map(|s| s.to_string()));
        } else {
            expanded.push(w);
        }
    }
    let mut seen = std::collections::BTreeSet::new();
    expanded.retain(|w| seen.insert(w.clone()));

    // `trace` is a file-emitting export with its own flags (`--out` is a
    // directory, not a JSON path), so it must run alone.
    if expanded.iter().any(|w| w == "trace" || w == "loadcurve" || w == "timeline")
        && baseline.is_some()
    {
        eprintln!(
            "--baseline applies to figure-cell experiments (e.g. perf), not \
             trace/loadcurve/timeline"
        );
        usage();
    }
    if gate && !expanded.iter().any(|w| w == "perf") {
        eprintln!("--gate checks the `perf` experiment's cells; run it with `perf`");
        usage();
    }
    if expanded.iter().any(|w| w == "trace") {
        if expanded.len() != 1 {
            eprintln!("`trace` runs alone (its --out is a directory, not a JSON path)");
            usage();
        }
        run_trace(trace_depth, out);
        return;
    }
    if trace_depth.is_some() {
        eprintln!("--trace-depth only applies to the `trace` experiment");
        usage();
    }

    runner::set_serial(serial);

    // `loadcurve` also runs alone: its JSON is per-generation
    // `RunReport`s (curve in `load_curve`), not the figure-cell array.
    if expanded.iter().any(|w| w == "loadcurve") {
        if expanded.len() != 1 {
            eprintln!("`loadcurve` runs alone (its JSON schema is RunReports, not figure cells)");
            usage();
        }
        run_loadcurve(lc, json, out);
        return;
    }
    if lc_flag_seen {
        eprintln!("--rate/--arrival/--zipf-s/--admission-cap only apply to `loadcurve`");
        usage();
    }

    // `timeline` runs alone too: its `--out` is a directory, not a JSON
    // path.
    if expanded.iter().any(|w| w == "timeline") {
        if expanded.len() != 1 {
            eprintln!("`timeline` runs alone (its --out is a directory, not a JSON path)");
            usage();
        }
        run_timeline(tl, out);
        return;
    }
    if tl_flag_seen {
        eprintln!("--window-us/--slo-p99-us only apply to `timeline`");
        usage();
    }

    let mut results: Vec<Experiment> = Vec::new();
    for w in &expanded {
        let exp = match w.as_str() {
            "fig3" => fig3(),
            "fig4" => fig4(),
            "fig6" => fig6(),
            "fig7" => fig7(),
            "fig8" => fig8(),
            "fig9" => fig9(),
            "table1" => table1(),
            "table2" => table2(),
            "table3" => table3(),
            "power" => power(),
            "realworld" => realworld(),
            "headline" => headline(),
            "dfx" => dfx(),
            "ablation" => ablation(),
            "mtu" => mtu(),
            "breakdown" => breakdown(),
            "perf" => perf(),
            "chaos" => chaos(),
            "recovery" => recovery(),
            "scrub" => scrub(),
            other => unreachable!("validated above: {other}"),
        };
        if !json {
            exp.print();
        }
        results.push(exp);
    }
    if json {
        let body = serde_json::to_string_pretty(&results).expect("serializable");
        match &out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, body + "\n") {
                    eprintln!("cannot write {path}: {e}");
                    std::process::exit(1);
                }
            }
            None => println!("{body}"),
        }
    }
    let mut failed = baseline.is_some_and(|path| compare_baseline(&path, &results));
    if gate {
        let perf = results
            .iter()
            .find(|e| e.id == "perf")
            .expect("--gate requires perf");
        let broken = perf_gate(perf);
        for line in &broken {
            eprintln!("perf gate FAILED: {line}");
        }
        if broken.is_empty() {
            eprintln!("perf gate passed ({} floors)", PERF_FLOORS.len());
        }
        failed |= !broken.is_empty();
    }
    if failed {
        std::process::exit(1);
    }
}

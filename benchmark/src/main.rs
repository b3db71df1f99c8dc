//! The benchmark command.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload W [--seed N] [--seconds S] [--trace 0|1] [--scale F] [--out DIR]
//! ```
//!
//! Prints a run manifest as the first line of standard output and the
//! result as the last: `{"correct", "attempted", "failed", "metrics"}`,
//! with the end-to-end metrics, or the per-layer ones under `--trace 1`.
//! A table goes to standard error.  Exits 1 when a correctness check
//! fails and 2 on bad arguments or a perturbing environment.

use deliba_benchmark::alloc::CountingAlloc;
use deliba_benchmark::bench::{self, Options};
use deliba_benchmark::workloads::Workload;
use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Environment switches that change what the engine executes; a run
/// under any of them would not measure the default configuration.
const PERTURBING_ENV: [&str; 4] = [
    "DELIBA_NO_SHARDED_QUEUE",
    "DELIBA_NO_PLACEMENT_CACHE",
    "DELIBA_TELEMETRY",
    "DELIBA_TRACE",
];

const USAGE: &str =
    "usage: deliba-benchmark --workload <engine-randread|ec-randwrite|oltp-open|degraded-scrub> \
[--seed N] [--seconds S] [--trace 0|1] [--scale F] [--out DIR]";

fn main() -> ExitCode {
    let (opts, out) = match parse(std::env::args().skip(1)) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(msg) = check_env() {
        eprintln!("{msg}");
        return ExitCode::from(2);
    }
    println!("{}", json(&manifest(&opts)));

    let outcome = bench::run(&opts);

    if let (Some(dir), Some(spans)) = (&out, &outcome.spans) {
        let path = dir.join(format!("{}.trace.json", opts.workload.name()));
        let written =
            std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, spans.chrome_json()));
        match written {
            Ok(()) => eprintln!("spans: {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    eprintln!(
        "{} seed {} scale {} — {} repetitions, digest {:016x}",
        opts.workload.name(),
        opts.seed,
        opts.scale,
        outcome.reps,
        outcome.digest
    );
    for m in &outcome.metrics {
        eprintln!("  {:<32} {:>16.4} {}", m.name, m.value, m.unit);
    }
    for f in &outcome.failures {
        eprintln!("  CHECK FAILED: {f}");
    }

    let correct = outcome.failures.is_empty();
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let v = Value::Object(vec![
                ("value".into(), Value::Float(m.value)),
                ("unit".into(), Value::Str(m.unit.into())),
            ]);
            (m.name.to_string(), v)
        })
        .collect();
    let result = Value::Object(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(outcome.attempted)),
        ("failed".into(), Value::UInt(outcome.failed)),
        ("metrics".into(), Value::Object(metrics)),
    ]);
    println!("{}", json(&result));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<(Options, Option<PathBuf>), String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::EngineRandread,
        seed: 1,
        seconds: 10.0,
        trace: false,
        scale: 1.0,
    };
    let mut out = None;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| bad("want an integer"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("want a number"))?;
                if !(0.0..=3600.0).contains(&opts.seconds) {
                    return Err(bad("want 0 to 3600"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("want 0 or 1")),
                }
            }
            "--scale" => {
                opts.scale = value.parse().map_err(|_| bad("want a number"))?;
                if !(opts.scale > 0.0 && opts.scale <= 10.0) {
                    return Err(bad("want a number in (0, 10]"));
                }
            }
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok((opts, out))
}

fn check_env() -> Result<(), String> {
    if let Ok(v) = std::env::var("DELIBA_SIM_THREADS") {
        if v.trim() != "1" {
            return Err(format!(
                "DELIBA_SIM_THREADS={v}: the benchmark measures the serial engine; unset it"
            ));
        }
    }
    match PERTURBING_ENV
        .iter()
        .find(|k| std::env::var_os(k).is_some())
    {
        Some(k) => Err(format!(
            "{k} is set: it changes what the engine executes; unset it"
        )),
        None => Ok(()),
    }
}

fn manifest(opts: &Options) -> Value {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    Value::Object(vec![(
        "manifest".into(),
        Value::Object(vec![
            (
                "benchmark".into(),
                Value::Str(env!("CARGO_PKG_NAME").into()),
            ),
            (
                "version".into(),
                Value::Str(env!("CARGO_PKG_VERSION").into()),
            ),
            ("workload".into(), Value::Str(opts.workload.name().into())),
            ("seed".into(), Value::UInt(opts.seed)),
            ("seconds".into(), Value::Float(opts.seconds)),
            ("scale".into(), Value::Float(opts.scale)),
            ("trace".into(), Value::Bool(opts.trace)),
            ("nproc".into(), Value::UInt(nproc as u64)),
            ("threads".into(), Value::UInt(1)),
            ("params".into(), opts.workload.params(opts.scale)),
        ]),
    )])
}

fn json(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value always serializes")
}

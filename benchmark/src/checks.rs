//! The correctness gate.  Each check returns the failures it found, as
//! messages naming the counter; an empty list means it passed.

use crate::measure::RunOutcome;
use crate::model::{ModelProbe, MAX_DRIFT};
use crate::replay::ReplayOutcome;

/// Largest relative difference the replay may show against the engine.
pub const FIDELITY_TOLERANCE: f64 = 0.02;

/// Invariants of one engine run.
pub fn run(o: &RunOutcome) -> Vec<String> {
    let r = &o.report;
    let mut failures = Vec::new();
    if r.verify_failures != 0 {
        failures.push(format!("verify_failures = {} (want 0)", r.verify_failures));
    }
    // No op is lost: every offered op was admitted or dropped, and every
    // admitted op settled (served, or abandoned after its retries).
    if o.admitted + o.dropped != o.offered {
        failures.push(format!(
            "admitted {} + dropped {} != offered {}",
            o.admitted, o.dropped, o.offered
        ));
    }
    if r.ops != o.admitted {
        failures.push(format!("completed {} != admitted {}", r.ops, o.admitted));
    }
    if let Some(rec) = r.recovery {
        if rec.unrecoverable != 0 {
            failures.push(format!("unrecoverable = {} (want 0)", rec.unrecoverable));
        }
        if rec.bitrot_repaired != rec.bitrot_injected {
            failures.push(format!(
                "bitrot_repaired {} != bitrot_injected {}",
                rec.bitrot_repaired, rec.bitrot_injected
            ));
        }
        // The final scrub pass came back clean.
        if o.corrupted_copies != 0 {
            failures.push(format!(
                "{} copies still corrupt after the final scrub pass (want 0)",
                o.corrupted_copies
            ));
        }
    }
    failures
}

/// The Table II probes stay within [`MAX_DRIFT`] of their reference.
pub fn model(p: &ModelProbe) -> Vec<String> {
    if p.drift > MAX_DRIFT {
        vec![format!(
            "model_drift = {:.4} > {MAX_DRIFT} (probes {:?} µs)",
            p.drift, p.latency_us
        )]
    } else {
        Vec::new()
    }
}

/// Repetitions of one seed must agree exactly.
pub fn repeatable(digests: &[u64]) -> Vec<String> {
    if digests.windows(2).all(|w| w[0] == w[1]) {
        Vec::new()
    } else {
        vec![format!(
            "repetitions of one seed disagree: digests {digests:x?}"
        )]
    }
}

/// The layer replay reproduces the engine's public counters within
/// [`FIDELITY_TOLERANCE`].
pub fn fidelity(engine: &RunOutcome, replay: &ReplayOutcome) -> Vec<String> {
    let r = &engine.report;
    let cache = r.counters.expect("engine reports carry counters");
    let rec = r.recovery.unwrap_or_default();
    let pairs = [
        ("ops completed", r.ops as f64, replay.ops as f64),
        ("mean latency", r.mean_latency_us, replay.mean_latency_us),
        (
            "placement lookups",
            (cache.cache_hits + cache.cache_misses) as f64,
            replay.placement_lookups as f64,
        ),
        ("osd ops", engine.osd_ops as f64, replay.osd_ops as f64),
        (
            "arrivals dropped",
            engine.dropped as f64,
            replay.dropped as f64,
        ),
        (
            "verify failures",
            r.verify_failures as f64,
            replay.verify_failures as f64,
        ),
        (
            "objects recovered",
            rec.objects_recovered as f64,
            replay.objects_recovered as f64,
        ),
        (
            "scrub objects",
            rec.scrub_objects as f64,
            replay.scrub_objects as f64,
        ),
        (
            "bit rot repaired",
            rec.bitrot_repaired as f64,
            replay.bitrot_repaired as f64,
        ),
    ];
    pairs
        .iter()
        .filter(|(_, want, got)| {
            (want - got).abs() > FIDELITY_TOLERANCE * want.abs().max(got.abs())
        })
        .map(|(name, want, got)| format!("replay fidelity: {name} {got} vs engine {want}"))
        .collect()
}

//! Determinism gate for the placement cache: running with the cache
//! off must not change a single modeled result.  The cache memoizes a
//! pure function keyed by the map epoch, so it can only change
//! wall-clock time, never results.  Each pair of runs differs only in
//! `OsdMap::set_placement_cache_enabled(false)` on the second engine;
//! the diagnostic counters (which legitimately differ) are stripped
//! before comparing, and they prove which mode ran.

use deliba_bench::PROBE_OPS;
use deliba_core::{Engine, EngineConfig, FioSpec, Generation, Mode, Pattern, RunReport, RwMode};

/// Run `spec` on a fresh engine, with the placement cache on or off.
fn run(cfg: EngineConfig, spec: &FioSpec, cache: bool) -> RunReport {
    let mut e = Engine::new(cfg);
    if !cache {
        e.cluster_mut().map().set_placement_cache_enabled(false);
    }
    e.run_fio(spec)
}

/// Assert the cached and uncached reports agree everywhere but the
/// counters, and that the uncached run served no hits; returns the
/// cached run's hit count.
fn assert_cache_invariant(cfg: EngineConfig, spec: &FioSpec) -> u64 {
    let mut on = run(cfg, spec, true);
    let mut off = run(cfg, spec, false);
    let on_counters = on.counters.take().expect("engine reports carry counters");
    let off_counters = off.counters.take().expect("engine reports carry counters");
    assert_eq!(off_counters.cache_hits, 0, "cache was off: {off_counters:?}");
    assert_eq!(on, off, "modeled results must not depend on the cache ({})", spec.label());
    on_counters.cache_hits
}

#[test]
fn experiment_json_is_identical_with_cache_disabled() {
    // Every Table II cell: generation × mode × (rw, pattern).
    let rows = [
        (Generation::DeLiBA1, Mode::Replication),
        (Generation::DeLiBA2, Mode::Replication),
        (Generation::DeLiBAK, Mode::Replication),
        (Generation::DeLiBA2, Mode::ErasureCoding),
        (Generation::DeLiBAK, Mode::ErasureCoding),
    ];
    for (g, mode) in rows {
        for rw in [RwMode::Read, RwMode::Write] {
            for pat in [Pattern::Seq, Pattern::Rand] {
                let spec = FioSpec::latency_probe(rw, pat, 4096, PROBE_OPS);
                assert_cache_invariant(EngineConfig::new(g, true, mode), &spec);
            }
        }
    }
}

#[test]
fn modeled_timing_is_identical_with_cache_disabled() {
    // The Fig. 7 peak cell at queue depth: the cache must have been live.
    let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
    let spec = FioSpec::paper(RwMode::Read, Pattern::Rand, 4096, 2_000);
    let hits = assert_cache_invariant(cfg, &spec);
    assert!(hits > 0, "cache was live");
}

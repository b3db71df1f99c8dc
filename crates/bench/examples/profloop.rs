//! Profiling target: the reference perf workload in a long loop so a
//! sampling profiler (gprofng) gets enough samples.  Not part of the
//! harness; `cargo run --release --example profloop [iters]`.

use deliba_core::{Engine, EngineConfig, FioSpec, Generation, Mode, Pattern, RwMode};

fn main() {
    let iters: u32 = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(50);
    let spec = FioSpec::paper(RwMode::Read, Pattern::Rand, 4096, 5 * 4_000);
    let t0 = std::time::Instant::now();
    let mut events = 0u64;
    for _ in 0..iters {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        let mut e = Engine::new(cfg);
        let r = e.run_fio(&spec);
        assert_eq!(r.verify_failures, 0);
        events += r.counters.expect("engine reports carry counters").events;
    }
    let wall = t0.elapsed().as_secs_f64();
    println!("{} events in {:.3} s = {:.0} ev/s", events, wall, events as f64 / wall);
    {
        let cfg = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
        let mut e = Engine::new(cfg);
        e.run_fio(&spec);
        println!("cache: {:?}", e.placement_cache_stats());
    }
}

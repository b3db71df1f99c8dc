//! End-to-end integration: every generation × mode moves real data
//! through the full stack with bit-exact read-back, deterministically.

use deliba_k::core::engine::TraceOp;
use deliba_k::core::{Engine, EngineConfig, FioSpec, Generation, Mode, Pattern, RwMode};

const ALL_GENS: [Generation; 3] = [
    Generation::DeLiBA1,
    Generation::DeLiBA2,
    Generation::DeLiBAK,
];

fn write_then_read(cfg: EngineConfig, n: u64, bs: u32) {
    let mut e = Engine::new(cfg);
    let mut ops = Vec::new();
    for i in 0..n {
        ops.push(TraceOp::write(i * bs as u64, bs, true));
    }
    for i in 0..n {
        ops.push(TraceOp::read(i * bs as u64, bs, true));
    }
    let r = e.run_trace(vec![ops], 4);
    assert_eq!(r.ops, 2 * n);
    assert_eq!(
        e.verify_failures(),
        0,
        "read-back mismatch for {:?}",
        cfg.label()
    );
    assert_eq!(r.degraded_ops, 0);
}

#[test]
fn integrity_every_generation_every_mode() {
    for g in ALL_GENS {
        for fpga in [false, true] {
            for mode in [Mode::Replication, Mode::ErasureCoding] {
                write_then_read(EngineConfig::new(g, fpga, mode), 40, 4096);
            }
        }
    }
}

#[test]
fn integrity_across_block_sizes() {
    for bs in [4096u32, 8192, 65536, 131072, 524288] {
        write_then_read(
            EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication),
            20,
            bs,
        );
    }
}

#[test]
fn overwrites_return_latest_data() {
    let mut e = Engine::new(EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication));
    let mut ops = Vec::new();
    // Write each block three times, then read: the extent record
    // keeps the last version, so verify_failures == 0 proves the cluster
    // serves the latest write.
    for round in 0..3 {
        let _ = round;
        for i in 0..15u64 {
            ops.push(TraceOp::write(i * 8192, 8192, true));
        }
    }
    for i in 0..15u64 {
        ops.push(TraceOp::read(i * 8192, 8192, true));
    }
    let r = e.run_trace(vec![ops], 1);
    assert_eq!(r.ops, 60);
    assert_eq!(e.verify_failures(), 0);
}

#[test]
fn deterministic_reports_across_runs() {
    for g in ALL_GENS {
        let cfg = EngineConfig::new(g, true, Mode::Replication);
        let spec = FioSpec::paper(RwMode::Write, Pattern::Rand, 4096, 600);
        let a = Engine::new(cfg).run_fio(&spec);
        let b = Engine::new(cfg).run_fio(&spec);
        assert_eq!(a, b, "{g:?} must be bit-reproducible");
    }
}

#[test]
fn different_seeds_differ() {
    let mut c1 = EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication);
    let mut c2 = c1;
    c1.seed = 1;
    c2.seed = 2;
    let spec = FioSpec::paper(RwMode::Read, Pattern::Rand, 4096, 600);
    let a = Engine::new(c1).run_fio(&spec);
    let b = Engine::new(c2).run_fio(&spec);
    assert_ne!(
        a.mean_latency_us, b.mean_latency_us,
        "seeds must actually perturb the run"
    );
}

#[test]
fn latency_ordering_holds_everywhere() {
    // The paper's core claim: D1 > D2 > DeLiBA-K latency, in every
    // pattern/direction at 4 kB.
    for (rw, pat) in [
        (RwMode::Read, Pattern::Seq),
        (RwMode::Write, Pattern::Seq),
        (RwMode::Read, Pattern::Rand),
        (RwMode::Write, Pattern::Rand),
    ] {
        let lat = |g| {
            Engine::new(EngineConfig::new(g, true, Mode::Replication))
                .run_fio(&FioSpec::latency_probe(rw, pat, 4096, 250))
                .mean_latency_us
        };
        let d1 = lat(Generation::DeLiBA1);
        let d2 = lat(Generation::DeLiBA2);
        let dk = lat(Generation::DeLiBAK);
        assert!(d1 > d2 && d2 > dk, "{rw:?}/{pat:?}: {d1} > {d2} > {dk}");
    }
}

#[test]
fn ec_mode_cheaper_on_the_wire_for_reads() {
    // EC reads fetch k small shards in parallel; replication reads one
    // full object — at 4 kB both land in the same latency regime and
    // neither should be pathologically slower.
    let rep = Engine::new(EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication))
        .run_fio(&FioSpec::latency_probe(RwMode::Read, Pattern::Rand, 4096, 250))
        .mean_latency_us;
    let ec = Engine::new(EngineConfig::new(Generation::DeLiBAK, true, Mode::ErasureCoding))
        .run_fio(&FioSpec::latency_probe(RwMode::Read, Pattern::Rand, 4096, 250))
        .mean_latency_us;
    assert!((ec - rep).abs() / rep < 0.25, "rep {rep} vs ec {ec}");
}

#[test]
fn mixed_workload_through_engine() {
    use deliba_k::workload::MixedSpec;
    let jobs = MixedSpec::rw70_30(3_000).generate();
    let mut e = Engine::new(EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication));
    let r = e.run_trace(jobs, 16);
    assert_eq!(r.ops, 3_000, "1000 ops × 3 jobs");
    assert_eq!(e.verify_failures(), 0);
    assert!(r.kiops > 1.0);
}

//! Failure injection through the full engine: OSD deaths mid-workload
//! must degrade gracefully, never corrupt, and EC must tolerate exactly
//! `m` failures.

use deliba_k::cluster::{Cluster, ObjectId, RecoveryPolicy, RecoveryScheduler};
use deliba_k::core::engine::TraceOp;
use deliba_k::core::{Engine, EngineConfig, Generation, Mode};
use deliba_k::ec::ReedSolomon;
use deliba_k::sim::{SimDuration, SimTime};

#[test]
fn reads_survive_osd_failure_mid_workload() {
    let mut e = Engine::new(EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication));
    // Phase 1: write a working set.
    let writes: Vec<TraceOp> = (0..60u64)
        .map(|i| TraceOp::write(i * 4096, 4096, true))
        .collect();
    e.run_trace(vec![writes], 8);
    assert_eq!(e.verify_failures(), 0);

    // Kill three OSDs.
    for osd in [3, 17, 25] {
        e.cluster_mut().fail_osd(osd);
    }

    // Phase 2: read everything back — degraded where the dead OSDs held
    // copies, but always bit-correct.
    let reads: Vec<TraceOp> = (0..60u64)
        .map(|i| TraceOp::read(i * 4096, 4096, true))
        .collect();
    let r = e.run_trace(vec![reads], 8);
    assert_eq!(r.ops, 60);
    assert_eq!(e.verify_failures(), 0, "degraded reads must stay correct");
}

#[test]
fn writes_continue_degraded_after_failures() {
    let mut e = Engine::new(EngineConfig::new(Generation::DeLiBAK, true, Mode::Replication));
    e.cluster_mut().fail_osd(0);
    e.cluster_mut().fail_osd(16);
    let ops: Vec<TraceOp> = (0..40u64)
        .flat_map(|i| {
            [
                TraceOp::write(i * 8192, 8192, true),
                TraceOp::read(i * 8192, 8192, true),
            ]
        })
        .collect();
    let r = e.run_trace(vec![ops], 4);
    assert_eq!(r.ops, 80);
    assert_eq!(e.verify_failures(), 0);
}

#[test]
fn ec_tolerates_m_but_not_m_plus_one() {
    let mut cluster = Cluster::paper_testbed(5);
    let oid = ObjectId::new(2, 99);
    let data = vec![0x5Au8; 32 * 1024];
    let shards = ReedSolomon::new(4, 2).encode(&data);
    let w = cluster
        .write_ec_shards(SimTime::ZERO, oid, data.len(), shards, true)
        .unwrap();

    let acting = cluster
        .map()
        .acting_set(cluster.map().pool(2).unwrap().pg_of(oid));
    // m = 2 failures: recoverable.
    cluster.fail_osd(acting[0]);
    cluster.fail_osd(acting[4]);
    let mut read = Vec::new();
    let out = cluster
        .read_ec_into(w.complete, oid, true, &mut read)
        .expect("recoverable");
    assert_eq!(read, data);
    assert!(out.degraded);
    // m + 1 = 3 failures: unreadable.
    cluster.fail_osd(acting[2]);
    assert!(cluster
        .read_ec_into(w.complete, oid, true, &mut read)
        .is_none());
    // Revive one holder: readable again.
    cluster.revive_osd(acting[0]);
    cluster
        .read_ec_into(w.complete, oid, true, &mut read)
        .expect("recovered");
    assert_eq!(read, data);
}

#[test]
fn remap_after_failure_is_bounded_and_correct() {
    let mut cluster = Cluster::paper_testbed(6);
    let before = cluster.map().clone();
    cluster.fail_osd(9);
    let frac = before.remapped_fraction(cluster.map(), 1);
    // One of 32 OSDs holds ~3/32 of PG positions.
    assert!(frac > 0.01 && frac < 0.35, "remap fraction {frac}");
    // Placements never name the dead OSD.
    for seq in 0..128 {
        let set = cluster
            .map()
            .acting_set(deliba_k::cluster::PgId { pool: 1, seq });
        assert!(!set.contains(&9));
        assert_eq!(set.len(), 3, "full width restored from survivors");
    }
}

/// A scheduler whose scrub chunk covers every object these tests write,
/// so each `scrub_tick` is one full costed deep-scrub pass.
fn full_pass_scrubber() -> RecoveryScheduler {
    RecoveryScheduler::new(RecoveryPolicy::default().with_scrub(SimDuration::from_micros(100), 64))
}

#[test]
fn scrub_finds_every_injected_corruption() {
    let mut cluster = Cluster::paper_testbed(7);
    for i in 0..30u64 {
        cluster
            .write_replicated_at(
                SimTime::ZERO,
                ObjectId::new(1, i),
                0,
                &[(i % 251) as u8; 1024],
                true,
            )
            .unwrap();
    }
    let mut scrubber = full_pass_scrubber();
    let clean = cluster.scrub_tick(&mut scrubber, SimTime::ZERO);
    assert!(clean.wrapped);
    assert_eq!(clean.detected, 0);
    // Corrupt 4 distinct replicas.
    let mut expected = 0;
    for i in [2u64, 9, 15, 28] {
        let oid = ObjectId::new(1, i);
        let holders = cluster
            .map()
            .acting_set(cluster.map().pool(1).unwrap().pg_of(oid));
        if cluster.corrupt_object(holders[1], oid) {
            expected += 1;
        }
    }
    let dirty = cluster.scrub_tick(&mut scrubber, clean.finish);
    assert_eq!(dirty.detected, expected);
    assert_eq!(expected, 4);
}

#[test]
fn repair_heals_scrub_inconsistencies() {
    let mut cluster = Cluster::paper_testbed(8);
    for i in 0..20u64 {
        cluster
            .write_replicated_at(
                SimTime::ZERO,
                ObjectId::new(1, i),
                0,
                &[(i % 201) as u8; 2048],
                true,
            )
            .unwrap();
    }
    // Corrupt two replicas of different objects.
    for i in [4u64, 13] {
        let oid = ObjectId::new(1, i);
        let holders = cluster
            .map()
            .acting_set(cluster.map().pool(1).unwrap().pg_of(oid));
        cluster.corrupt_object(holders[1], oid);
    }
    // Deep scrub detects and repairs in the same pass.
    let mut scrubber = full_pass_scrubber();
    let pass = cluster.scrub_tick(&mut scrubber, SimTime::ZERO);
    assert_eq!(pass.detected, 2);
    assert_eq!(pass.repaired, 2, "both copies rewritten");
    let again = cluster.scrub_tick(&mut scrubber, pass.finish);
    assert_eq!(again.detected, 0, "clean after repair");
    // Data still correct (the corrupted copies were minorities).
    let mut data = Vec::new();
    for i in [4u64, 13] {
        cluster
            .read_replicated_into(again.finish, ObjectId::new(1, i), 0, 2048, true, &mut data)
            .unwrap();
        assert_eq!(data, [(i % 201) as u8; 2048]);
    }
}

#[test]
fn repair_heals_ec_parity() {
    let mut cluster = Cluster::paper_testbed(9);
    let data = vec![0x42u8; 8192];
    let shards = ReedSolomon::new(4, 2).encode(&data);
    let oid = ObjectId::new(2, 50);
    cluster
        .write_ec_shards(SimTime::ZERO, oid, data.len(), shards, true)
        .unwrap();
    // Corrupt a parity shard.
    let acting = cluster
        .map()
        .acting_set(cluster.map().pool(2).unwrap().pg_of(oid));
    cluster.corrupt_object(acting[5], oid);
    let mut scrubber = full_pass_scrubber();
    let pass = cluster.scrub_tick(&mut scrubber, SimTime::ZERO);
    assert_eq!(pass.detected, 1);
    assert_eq!(pass.repaired, 1);
    let again = cluster.scrub_tick(&mut scrubber, pass.finish);
    assert_eq!(again.detected, 0);
    let mut read = Vec::new();
    let out = cluster
        .read_ec_into(again.finish, oid, true, &mut read)
        .unwrap();
    assert_eq!(read, data);
    assert!(!out.degraded);
}

#[test]
fn degraded_ops_are_reported() {
    let mut e = Engine::new(EngineConfig::new(Generation::DeLiBAK, true, Mode::ErasureCoding));
    let writes: Vec<TraceOp> = (0..30u64)
        .map(|i| TraceOp::write(i * 4096, 4096, true))
        .collect();
    e.run_trace(vec![writes], 4);
    // Kill two OSDs, then read: EC reads that lose shards are degraded.
    e.cluster_mut().fail_osd(1);
    e.cluster_mut().fail_osd(20);
    let reads: Vec<TraceOp> = (0..30u64)
        .map(|i| TraceOp::read(i * 4096, 4096, true))
        .collect();
    let r = e.run_trace(vec![reads], 4);
    assert_eq!(e.verify_failures(), 0);
    // Some reads should have had to reconstruct.
    assert!(r.degraded_ops > 0, "no degraded op observed");
}

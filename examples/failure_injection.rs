//! Failure injection: degraded reads, EC reconstruction and scrub.
//!
//! ```text
//! cargo run --release --example failure_injection
//! ```
//!
//! Demonstrates that the cluster substrate stores *real* data: replicas
//! survive a primary failure, erasure-coded objects reconstruct from any
//! k of k+m shards, and a costed deep scrub finds and repairs injected
//! corruption.

use deliba_k::cluster::{Cluster, ObjectId, RecoveryPolicy, RecoveryScheduler};
use deliba_k::ec::ReedSolomon;
use deliba_k::sim::{SimDuration, SimTime};

fn main() {
    let mut cluster = Cluster::paper_testbed(2026);
    println!(
        "cluster: {} OSDs across 2 servers, pools: replicated(size 3) + EC(4, 2)\n",
        cluster.num_osds()
    );

    // --- Replication: survive a primary failure ------------------------
    let oid = ObjectId::new(1, 0xCAFE);
    let payload: Vec<u8> = (0..8192u32).map(|i| (i % 251) as u8).collect();
    let w = cluster
        .write_replicated_at(SimTime::ZERO, oid, 0, &payload, true)
        .expect("write succeeds");
    println!("replicated write committed at {} (3 copies)", w.complete);

    let pg = cluster.map().pool(1).unwrap().pg_of(oid);
    let primary = cluster.map().primary(pg).unwrap();
    println!("killing primary osd.{primary} ...");
    cluster.fail_osd(primary);

    let mut data = Vec::new();
    let r = cluster
        .read_replicated_into(w.complete, oid, 0, 8192, true, &mut data)
        .expect("degraded read succeeds");
    assert_eq!(data, payload, "degraded read returned the correct bytes");
    println!(
        "degraded read OK at {} (degraded = {})\n",
        r.complete, r.degraded
    );
    cluster.revive_osd(primary);

    // --- Erasure coding: reconstruct after two failures -----------------
    let ec_oid = ObjectId::new(2, 0xBEEF);
    let ec_data: Vec<u8> = (0..16384u32).map(|i| (i % 241) as u8).collect();
    let shards = ReedSolomon::new(4, 2).encode(&ec_data);
    let w = cluster
        .write_ec_shards(SimTime::ZERO, ec_oid, ec_data.len(), shards, true)
        .expect("EC write succeeds");
    println!("EC write committed at {} (4 data + 2 parity shards)", w.complete);

    let acting = cluster.map().acting_set(cluster.map().pool(2).unwrap().pg_of(ec_oid));
    println!("killing osd.{} and osd.{} ...", acting[0], acting[1]);
    cluster.fail_osd(acting[0]);
    cluster.fail_osd(acting[1]);

    let r = cluster
        .read_ec_into(w.complete, ec_oid, true, &mut data)
        .expect("reconstruction succeeds with k surviving shards");
    assert_eq!(data, ec_data, "reconstructed object is bit-exact");
    println!("EC reconstruction OK at {} (degraded = {})\n", r.complete, r.degraded);
    cluster.revive_osd(acting[0]);
    cluster.revive_osd(acting[1]);

    // --- Scrub: find and repair injected corruption ---------------------
    let mut t = SimTime::ZERO;
    for i in 0..20u64 {
        t = t.max(
            cluster
                .write_replicated_at(
                    SimTime::ZERO,
                    ObjectId::new(1, 1000 + i),
                    0,
                    &[i as u8; 2048],
                    true,
                )
                .unwrap()
                .complete,
        );
    }
    // One costed deep-scrub pass: every copy is read and compared on the
    // OSD timelines, and mismatches are rewritten from the majority.  A
    // chunk this large covers every object in a single tick.
    let policy = RecoveryPolicy::default().with_scrub(SimDuration::from_micros(100), 64);
    let mut sched = RecoveryScheduler::new(policy);
    let clean = cluster.scrub_tick(&mut sched, t);
    assert!(clean.wrapped, "one tick is a full pass");
    println!(
        "scrub before corruption: {} objects, {} corrupt copies",
        clean.objects, clean.detected
    );

    // Flip a bit in one replica of one object.
    let victim = ObjectId::new(1, 1007);
    let holders = cluster.map().acting_set(cluster.map().pool(1).unwrap().pg_of(victim));
    cluster.corrupt_object(holders[2], victim);
    let dirty = cluster.scrub_tick(&mut sched, clean.finish);
    println!(
        "scrub after corrupting osd.{}: {} detected, {} repaired by {}",
        holders[2], dirty.detected, dirty.repaired, dirty.finish
    );
    assert_eq!((dirty.detected, dirty.repaired), (1, 1));
    cluster
        .read_replicated_into(dirty.finish, victim, 0, 2048, true, &mut data)
        .expect("repaired object reads");
    assert_eq!(data, [7u8; 2048], "repair restored the bytes");
    println!("\nAll failure-injection checks passed.");
}

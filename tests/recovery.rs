//! Recovery / backfill integration: after failures and map changes, the
//! costed recovery path — `recovery_scan`, then backfill waves until a
//! rescan finds nothing left — restores full redundancy and
//! non-degraded reads.

use deliba_k::cluster::{Cluster, ObjectId, RecoveryPolicy, RecoveryScheduler};
use deliba_k::ec::ReedSolomon;
use deliba_k::sim::{SimDuration, SimTime};

fn payload(len: usize, tag: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(tag))
        .collect()
}

/// Recover to quiescence: rescan, dispatch one costed backfill wave,
/// repeat until a rescan finds no work (or no wave can dispatch).
/// Returns the scheduler and the time the last wave committed.
fn recover(c: &mut Cluster, now: SimTime) -> (RecoveryScheduler, SimTime) {
    let mut sched = RecoveryScheduler::new(RecoveryPolicy::default());
    let mut t = now;
    while c.recovery_scan(&mut sched, t) {
        match c.backfill_wave(&mut sched, t) {
            Some(fin) => t = t.max(fin),
            None => break,
        }
    }
    (sched, t)
}

#[test]
fn replicated_backfill_restores_redundancy() {
    let mut c = Cluster::paper_testbed(100);
    let mut oids = Vec::new();
    for i in 0..40u64 {
        let oid = ObjectId::new(1, i);
        c.write_replicated_at(SimTime::ZERO, oid, 0, &payload(4096, i as u8), true)
            .unwrap();
        oids.push(oid);
    }
    // Fail an OSD: some objects lose a copy and remap.
    c.fail_osd(5);
    let t = SimTime::from_nanos(1_000_000);
    let (sched, done) = recover(&mut c, t);
    let recovered = sched.stats.objects_recovered;
    assert!(recovered > 0, "osd.5 held some copies");
    assert!(sched.stats.background_bytes >= recovered * 4096);
    assert_eq!(sched.unrecoverable_objects(), 0);
    assert!(done > t, "backfill charges virtual time");

    // Every object now reads non-degraded from the current acting set.
    let mut data = Vec::new();
    for (i, &oid) in oids.iter().enumerate() {
        let out = c
            .read_replicated_into(done, oid, 0, 4096, true, &mut data)
            .unwrap();
        assert_eq!(data, payload(4096, i as u8));
        assert!(!out.degraded, "object {i} still degraded after recovery");
    }
    // A full deep-scrub pass examines all 40 objects and finds every
    // copy consistent.
    let policy = RecoveryPolicy::default().with_scrub(SimDuration::from_micros(100), 64);
    let scrub = c.scrub_tick(&mut RecoveryScheduler::new(policy), done);
    assert!(scrub.wrapped);
    assert_eq!(scrub.objects, 40);
    assert_eq!(scrub.detected, 0);
}

#[test]
fn recovery_is_idempotent() {
    let mut c = Cluster::paper_testbed(101);
    for i in 0..20u64 {
        c.write_replicated_at(
            SimTime::ZERO,
            ObjectId::new(1, i),
            0,
            &payload(2048, i as u8),
            true,
        )
        .unwrap();
    }
    c.fail_osd(7);
    let (_, done) = recover(&mut c, SimTime::from_nanos(1));
    let (second, again) = recover(&mut c, done);
    assert_eq!(second.stats.objects_recovered, 0, "nothing left to heal");
    assert_eq!(second.stats.background_bytes, 0);
    assert_eq!(again, done, "an idle pass charges no time");
}

#[test]
fn ec_recovery_reconstructs_missing_shards() {
    let mut c = Cluster::paper_testbed(102);
    let rs = ReedSolomon::new(4, 2);
    let mut datas = Vec::new();
    for i in 0..25u64 {
        let data = payload(8192, i as u8);
        let shards = rs.encode(&data);
        c.write_ec_shards(SimTime::ZERO, ObjectId::new(2, i), data.len(), shards, true)
            .unwrap();
        datas.push(data);
    }
    // Two failures: every affected object is still readable but
    // degraded.
    c.fail_osd(3);
    c.fail_osd(19);
    let (sched, done) = recover(&mut c, SimTime::from_nanos(1));
    assert!(sched.stats.objects_recovered > 0);

    // Revive nothing; reads must now be whole again (shards re-placed on
    // healthy OSDs).
    let mut read = Vec::new();
    for (i, data) in datas.iter().enumerate() {
        let oid = ObjectId::new(2, i as u64);
        let out = c.read_ec_into(done, oid, true, &mut read).unwrap();
        assert_eq!(&read, data, "object {i}");
        assert!(!out.degraded, "object {i} still degraded after recovery");
    }
    // Parity consistency after reconstruction: one full deep-scrub pass
    // (a chunk this large covers every object in one tick) finds nothing.
    let policy = RecoveryPolicy::default().with_scrub(SimDuration::from_micros(100), 64);
    let scrub = c.scrub_tick(&mut RecoveryScheduler::new(policy), done);
    assert!(scrub.wrapped);
    assert_eq!(scrub.objects, 25);
    assert_eq!(scrub.detected, 0);
}

#[test]
fn recovery_after_revive_heals_stale_osd() {
    let mut c = Cluster::paper_testbed(103);
    c.fail_osd(11);
    // Writes happen while osd.11 is down.
    for i in 0..30u64 {
        c.write_replicated_at(
            SimTime::ZERO,
            ObjectId::new(1, 200 + i),
            0,
            &payload(1024, i as u8),
            true,
        )
        .unwrap();
    }
    c.revive_osd(11);
    // The revived OSD rejoins acting sets but lacks the objects written
    // while it was out; recovery backfills it.
    let (sched, done) = recover(&mut c, SimTime::from_nanos(1));
    assert!(sched.stats.objects_recovered > 0, "osd.11 needed backfill");
    let mut data = Vec::new();
    for i in 0..30u64 {
        let oid = ObjectId::new(1, 200 + i);
        let out = c
            .read_replicated_into(done, oid, 0, 1024, true, &mut data)
            .unwrap();
        assert_eq!(data, payload(1024, i as u8), "object {i}");
        assert!(!out.degraded, "object {i}");
    }
}

#[test]
fn unrecoverable_objects_are_skipped_not_corrupted() {
    let mut c = Cluster::paper_testbed(104);
    let oid = ObjectId::new(2, 77);
    let data = payload(4096, 9);
    let shards = ReedSolomon::new(4, 2).encode(&data);
    c.write_ec_shards(SimTime::ZERO, oid, data.len(), shards, true)
        .unwrap();
    // Kill more than m shard holders → unrecoverable.
    let pg = c.map().pool(2).unwrap().pg_of(oid);
    let acting = c.map().acting_set(pg);
    for &o in acting.iter().take(3) {
        c.fail_osd(o);
    }
    let (sched, done) = recover(&mut c, SimTime::from_nanos(1));
    assert_eq!(sched.stats.objects_recovered, 0);
    assert_eq!(sched.unrecoverable_objects(), 1);
    assert!(c.read_ec_into(done, oid, true, &mut Vec::new()).is_none());
}

//! Property test: the epoch-keyed placement cache is invisible.
//!
//! For any sequence of map mutations — reweights, item removal and
//! re-addition, OSDs going down and coming back — a cached
//! `acting_set` must equal a fresh CRUSH walk at every
//! step.  This is the output-invariance contract the engine's fast path
//! relies on: if this holds, enabling the cache cannot change a single
//! simulated byte.

use deliba_cluster::{OsdMap, PgId, PoolConfig};
use deliba_crush::{MapBuilder, WEIGHT_ONE};
use proptest::prelude::*;

const HOSTS: usize = 8;
const PER_HOST: usize = 4;

/// One step of map churn, interpreted over the fixed testbed layout.
#[derive(Debug, Clone)]
enum Churn {
    /// Reweight OSD `osd` inside its host to `weight`.
    Reweight { osd: i32, weight: u32 },
    /// Remove OSD `osd` from its host, then add it back at full weight
    /// (decommission + replacement — two epoch bumps).
    RemoveAdd { osd: i32 },
    /// Mark an OSD down, or back up.
    DownUp { osd: i32, up: bool },
}

fn churn_step() -> impl Strategy<Value = Churn> {
    let osd = 0i32..(HOSTS * PER_HOST) as i32;
    prop_oneof![
        (osd.clone(), 1u32..=2 * WEIGHT_ONE)
            .prop_map(|(osd, weight)| Churn::Reweight { osd, weight }),
        osd.clone().prop_map(|osd| Churn::RemoveAdd { osd }),
        (osd, any::<bool>()).prop_map(|(osd, up)| Churn::DownUp { osd, up }),
    ]
}

fn testbed() -> OsdMap {
    let mut m = OsdMap::new(MapBuilder::new().build(HOSTS, PER_HOST));
    m.add_pool(PoolConfig::replicated(1, "rbd", 3, 64, 0));
    m.add_pool(PoolConfig::erasure(2, "ec", 4, 2, 64, 1));
    m
}

/// The host bucket (type 1) holding `osd`.
fn host_of(m: &OsdMap, osd: i32) -> i32 {
    m.crush().domain_of(osd, 1).expect("every osd has a host")
}

fn check_all_pgs(m: &OsdMap) {
    for pool in [1u32, 2] {
        let p = m.pool(pool).unwrap();
        for seq in 0..64 {
            let pg = PgId { pool, seq };
            let cold = m.acting_set(pg); // miss (or refill) at this epoch
            let warm = m.acting_set(pg); // guaranteed same-epoch hit
            let fresh = m.crush().do_rule(p.crush_rule, p.pg_seed(pg), p.kind.width());
            assert_eq!(cold, fresh, "pool {pool} pg {seq} epoch {}", m.epoch);
            assert_eq!(warm, fresh, "hit path, pool {pool} pg {seq} epoch {}", m.epoch);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_placement_matches_uncached_through_epoch_churn(
        steps in proptest::collection::vec(churn_step(), 1..12),
    ) {
        let mut m = testbed();
        m.set_placement_cache_enabled(true);
        // Warm the cache, then churn: every mutation must invalidate
        // exactly the entries whose answers could have changed.
        check_all_pgs(&m);
        for step in steps {
            match step {
                Churn::Reweight { osd, weight } => {
                    let host = host_of(&m, osd);
                    prop_assert!(m.reweight(host, osd, weight).is_some());
                }
                Churn::RemoveAdd { osd } => {
                    let host = host_of(&m, osd);
                    prop_assert!(m.remove_item(host, osd).is_some());
                    prop_assert!(m.add_item(host, osd, WEIGHT_ONE).is_some());
                }
                Churn::DownUp { osd, up } => {
                    if up {
                        m.mark_osd_up(osd);
                    } else {
                        m.mark_osd_down(osd);
                    }
                }
            }
            check_all_pgs(&m);
        }
        // The churn above must actually have exercised the cache.
        let stats = m.placement_cache_stats();
        prop_assert!(stats.hits > 0, "{:?}", stats);
        prop_assert!(stats.misses > 0, "{:?}", stats);
    }

    /// The fault-plane contract: once an OSD dies mid-run, the cache
    /// must never serve a pre-failure acting set again.  `mark_osd_down`
    /// bumps the epoch, so every subsequent lookup either misses (and
    /// re-walks CRUSH, which rejects out devices) or hits an entry
    /// refilled at the post-failure epoch — the victim can appear in no
    /// served set, no matter how warm the cache was before the crash.
    #[test]
    fn dead_osd_never_served_from_cache(
        victim in 0i32..(HOSTS * PER_HOST) as i32,
        lookups_before in 1usize..4,
    ) {
        let mut m = testbed();
        m.set_placement_cache_enabled(true);
        // Warm the cache hard: every PG cached at the healthy epoch,
        // several times over.
        for _ in 0..lookups_before {
            for pool in [1u32, 2] {
                for seq in 0..64 {
                    m.acting_set(PgId { pool, seq });
                }
            }
        }
        let invalidations_before = m.placement_cache_stats().invalidations;
        m.mark_osd_down(victim);
        for pool in [1u32, 2] {
            for seq in 0..64 {
                let pg = PgId { pool, seq };
                let acting = m.acting_set(pg);
                prop_assert!(
                    !acting.contains(&victim),
                    "pool {} pg {} served dead osd {} in {:?}",
                    pool, seq, victim, acting
                );
                // And the served set is exactly the post-failure walk.
                let p = m.pool(pool).unwrap();
                let fresh = m.crush().do_rule(p.crush_rule, p.pg_seed(pg), p.kind.width());
                prop_assert_eq!(acting, fresh);
            }
        }
        prop_assert!(
            m.placement_cache_stats().invalidations > invalidations_before,
            "the death epoch must have flushed the cache"
        );
        // Revival restores the victim's eligibility through the same path.
        m.mark_osd_up(victim);
        check_all_pgs(&m);
    }

    #[test]
    fn disabled_cache_is_equivalent(
        osd in 0i32..(HOSTS * PER_HOST) as i32,
        weight in 1u32..=WEIGHT_ONE,
    ) {
        let mut on = testbed();
        let mut off = testbed();
        on.set_placement_cache_enabled(true);
        off.set_placement_cache_enabled(false);
        for m in [&mut on, &mut off] {
            let host = host_of(m, osd);
            m.reweight(host, osd, weight).unwrap();
        }
        for pool in [1u32, 2] {
            for seq in 0..64 {
                let pg = PgId { pool, seq };
                prop_assert_eq!(on.acting_set(pg), off.acting_set(pg));
            }
        }
        prop_assert_eq!(off.placement_cache_stats().hits, 0, "disabled cache must not hit");
    }
}

//! The OSDMap: cluster map epochs, CRUSH, pool table and OSD states.

use crate::pool::{PgId, PoolConfig};
use deliba_crush::{BucketId, CacheStats, CrushMap, DeviceId, PlacementCache};
use std::cell::RefCell;
use std::collections::BTreeMap;

/// Slots in the per-map placement cache.  Two pools × 128 PGs is the
/// paper testbed's whole working set; 1024 direct-mapped slots keep the
/// collision rate negligible.
const PLACEMENT_CACHE_SLOTS: usize = 1024;

/// The authoritative cluster map (what Ceph monitors distribute).
#[derive(Debug, Clone)]
pub struct OsdMap {
    /// Map epoch, bumped on every mutation.
    pub epoch: u64,
    crush: CrushMap,
    pools: BTreeMap<u32, PoolConfig>,
    /// Epoch-keyed CRUSH memo table.  Interior mutability because
    /// placement queries (`acting_set`, `remapped_fraction`) take
    /// `&self`; the engine owns its map exclusively, so a `RefCell`
    /// (not a lock) is the right tool.
    cache: RefCell<PlacementCache>,
}

impl OsdMap {
    /// Wrap a CRUSH map at epoch 1.
    pub fn new(crush: CrushMap) -> Self {
        OsdMap {
            epoch: 1,
            crush,
            pools: BTreeMap::new(),
            cache: RefCell::new(PlacementCache::new(PLACEMENT_CACHE_SLOTS)),
        }
    }

    /// The CRUSH map.
    pub fn crush(&self) -> &CrushMap {
        &self.crush
    }

    /// Register a pool.
    pub fn add_pool(&mut self, pool: PoolConfig) {
        self.pools.insert(pool.id, pool);
        self.epoch += 1;
    }

    /// Look up a pool.
    pub fn pool(&self, id: u32) -> Option<&PoolConfig> {
        self.pools.get(&id)
    }

    /// Mark an OSD down/out: placement immediately avoids it.
    pub fn mark_osd_down(&mut self, osd: DeviceId) {
        self.crush.mark_out(osd);
        self.epoch += 1;
    }

    /// Return an OSD to service.
    pub fn mark_osd_up(&mut self, osd: DeviceId) {
        self.crush.mark_in(osd);
        self.epoch += 1;
    }

    /// Reweight `item` inside `bucket` (operator rebalance).
    pub fn reweight(&mut self, bucket: BucketId, item: i32, weight: u32) -> Option<u32> {
        let old = self.crush.bucket_mut(bucket)?.reweight_item(item, weight);
        self.epoch += 1;
        old
    }

    /// Add `item` to `bucket` (cluster growth).
    pub fn add_item(&mut self, bucket: BucketId, item: i32, weight: u32) -> Option<()> {
        self.crush.bucket_mut(bucket)?.add_item(item, weight);
        self.epoch += 1;
        Some(())
    }

    /// Remove `item` from `bucket` (decommission).
    pub fn remove_item(&mut self, bucket: BucketId, item: i32) -> Option<u32> {
        let w = self.crush.bucket_mut(bucket)?.remove_item(item);
        self.epoch += 1;
        w
    }

    /// The acting set of a PG: the OSDs serving it, primary first.
    pub fn acting_set(&self, pg: PgId) -> Vec<DeviceId> {
        let mut out = Vec::new();
        self.acting_set_into(pg, &mut out);
        out
    }

    /// [`acting_set`](Self::acting_set) into caller scratch: `out` is
    /// cleared and filled, no allocation on a warm cache.
    pub(crate) fn acting_set_into(&self, pg: PgId, out: &mut Vec<DeviceId>) {
        let Some(pool) = self.pools.get(&pg.pool) else {
            out.clear();
            return;
        };
        let seed = pool.pg_seed(pg);
        self.do_rule_cached(pool.crush_rule, seed, pool.kind.width(), out);
    }

    /// Run `rule` for input `x` through the epoch-keyed placement cache.
    /// Output-invariant versus `crush().do_rule(..)`: `do_rule` is a pure
    /// function of the key and the map contents, and every map mutation
    /// bumps the epoch in the key.
    pub fn do_rule_cached(&self, rule: u32, x: u32, num: usize, out: &mut Vec<DeviceId>) {
        self.cache
            .borrow_mut()
            .get_or_compute(rule, x, num, self.epoch, out, || {
                self.crush.do_rule(rule, x, num)
            });
    }

    /// Placement-cache counter snapshot.
    pub fn placement_cache_stats(&self) -> CacheStats {
        self.cache.borrow().stats()
    }

    /// Force the placement cache on or off.  Off is the uncached
    /// reference the determinism tests compare against; the cache is on
    /// by default.
    pub fn set_placement_cache_enabled(&self, enabled: bool) {
        self.cache.borrow_mut().set_enabled(enabled);
    }

    /// Primary OSD of a PG.
    pub fn primary(&self, pg: PgId) -> Option<DeviceId> {
        self.acting_set(pg).first().copied()
    }

    /// Fraction of PGs of `pool` whose acting set changed between this
    /// map and `other` — the rebalance measure DFX reacts to.
    pub fn remapped_fraction(&self, other: &OsdMap, pool: u32) -> f64 {
        let Some(p) = self.pools.get(&pool) else {
            return 0.0;
        };
        let total = p.pg_num;
        let mut moved = 0;
        for seq in 0..total {
            let pg = PgId { pool, seq };
            if self.acting_set(pg) != other.acting_set(pg) {
                moved += 1;
            }
        }
        moved as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deliba_crush::MapBuilder;

    fn map() -> OsdMap {
        let mut m = OsdMap::new(MapBuilder::new().build(8, 4));
        m.add_pool(PoolConfig::replicated(1, "rbd", 3, 128, 0));
        m.add_pool(PoolConfig::erasure(2, "ec", 4, 2, 128, 1));
        m
    }

    #[test]
    fn epochs_bump_on_mutation() {
        let mut m = map();
        let e = m.epoch;
        m.mark_osd_down(3);
        assert_eq!(m.epoch, e + 1);
        m.mark_osd_up(3);
        assert_eq!(m.epoch, e + 2);
    }

    #[test]
    fn acting_sets_match_pool_width() {
        let m = map();
        for seq in 0..128 {
            let rep = m.acting_set(PgId { pool: 1, seq });
            assert_eq!(rep.len(), 3, "pg {seq}");
            let ec = m.acting_set(PgId { pool: 2, seq });
            assert_eq!(ec.len(), 6, "pg {seq}");
        }
    }

    #[test]
    fn primary_is_first() {
        let m = map();
        let pg = PgId { pool: 1, seq: 5 };
        assert_eq!(m.primary(pg), Some(m.acting_set(pg)[0]));
    }

    #[test]
    fn down_osd_leaves_acting_sets() {
        let mut m = map();
        let victim = m.primary(PgId { pool: 1, seq: 0 }).unwrap();
        m.mark_osd_down(victim);
        for seq in 0..128 {
            let set = m.acting_set(PgId { pool: 1, seq });
            assert!(!set.contains(&victim), "pg {seq}");
        }
        assert!(m.crush().is_out(victim));
    }

    #[test]
    fn failure_remaps_bounded_fraction() {
        let before = map();
        let mut after = before.clone();
        after.mark_osd_down(7);
        let frac = before.remapped_fraction(&after, 1);
        // osd.7 holds ~3/32 of PG positions; remapped PGs ≈ 9 %.
        assert!(frac > 0.02, "{frac}");
        assert!(frac < 0.25, "{frac}");
    }

    #[test]
    fn unknown_pool_is_empty() {
        let m = map();
        assert!(m.acting_set(PgId { pool: 9, seq: 0 }).is_empty());
        assert_eq!(m.remapped_fraction(&m.clone(), 9), 0.0);
    }

    #[test]
    fn mutation_api_bumps_epoch() {
        let mut m = map();
        let host = -2; // first host bucket from MapBuilder
        let osd = m.crush().bucket(host).unwrap().items()[0];
        let e = m.epoch;
        assert!(m.reweight(host, osd, deliba_crush::WEIGHT_ONE / 2).is_some());
        assert_eq!(m.epoch, e + 1);
        assert!(m.remove_item(host, osd).is_some());
        assert_eq!(m.epoch, e + 2);
        assert!(m.add_item(host, osd, deliba_crush::WEIGHT_ONE).is_some());
        assert_eq!(m.epoch, e + 3);
    }

    #[test]
    fn cached_acting_set_matches_uncached_through_churn() {
        let mut m = map();
        let check = |m: &OsdMap| {
            for pool in [1u32, 2] {
                for seq in 0..128 {
                    let pg = PgId { pool, seq };
                    let cached = m.acting_set(pg);
                    let p = m.pool(pool).unwrap();
                    let fresh = m.crush().do_rule(p.crush_rule, p.pg_seed(pg), p.kind.width());
                    assert_eq!(cached, fresh, "pool {pool} pg {seq}");
                }
            }
        };
        check(&m); // cold
        check(&m); // warm (hits)
        m.reweight(
            -2,
            m.crush().bucket(-2).unwrap().items()[0],
            deliba_crush::WEIGHT_ONE / 4,
        );
        check(&m); // after invalidation
        let s = m.placement_cache_stats();
        assert!(s.hits > 0 && s.misses > 0, "{s:?}");
    }

    #[test]
    fn cache_counters_report_hits() {
        let m = map();
        let pg = PgId { pool: 1, seq: 3 };
        let a = m.acting_set(pg);
        let b = m.acting_set(pg);
        assert_eq!(a, b);
        let s = m.placement_cache_stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }
}

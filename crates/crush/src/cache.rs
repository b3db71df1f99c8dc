//! Epoch-keyed placement cache.
//!
//! [`CrushMap::do_rule`](crate::CrushMap::do_rule) is a pure function of
//! `(rule, x, num)` and the map contents: rjenkins hashing and straw2
//! ln-draws, no RNG, no hidden state.  That purity makes memoization
//! provably output-invariant — as long as the cache key also captures
//! *which* map contents were in force.  The epoch plays that role: the
//! owner (`OsdMap` in `deliba-cluster`) bumps a monotonically increasing
//! epoch on every mutation (reweight, item add/remove, rule change, OSD
//! in/out, DFX bucket-algorithm swap), and a cached entry is only served
//! while its recorded epoch matches the live one.
//!
//! The table is open-addressed and 2-way set-associative: each hashed
//! key owns a set of two ways, filled LRU on a miss.  Placement
//! workloads have a tiny working set (a pool has `pg_num` placement
//! groups, so at most `pg_num` distinct `(rule, x)` keys), but a
//! direct-mapped table left a handful of colliding key pairs
//! alternate-evicting each other forever — and at ~15 µs per straw2
//! re-walk those few hundred conflict misses per run dominated the
//! closed-loop wall clock.  Two ways absorb every pairwise conflict at
//! the cost of one extra compare on the probe path.

use crate::map::DeviceId;

/// Counters exported to `RunReport` / `harness perf`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the table.
    pub hits: u64,
    /// Lookups that had to run the full CRUSH selection.
    pub misses: u64,
    /// Misses caused by an epoch bump (same key, stale epoch) — the
    /// transparent-recompute path taken after map churn.
    pub invalidations: u64,
}

#[derive(Debug, Clone)]
struct Slot {
    rule: u32,
    x: u32,
    num: u32,
    epoch: u64,
    devices: Vec<DeviceId>,
}

/// A 2-way set-associative memo table for CRUSH rule executions, keyed
/// by `(rule, x, num, epoch)`.
#[derive(Debug, Clone)]
pub struct PlacementCache {
    /// Set `i` occupies `slots[2*i]` and `slots[2*i + 1]`.
    slots: Vec<Option<Slot>>,
    /// Per-set LRU way (the victim of the next fill in that set).
    lru: Vec<u8>,
    mask: usize,
    enabled: bool,
    stats: CacheStats,
}

impl PlacementCache {
    /// A cache with `capacity` slots (rounded up to a power of two,
    /// minimum 16), organized as `capacity / 2` two-way sets.  Starts
    /// enabled.
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(16).next_power_of_two();
        PlacementCache {
            slots: vec![None; cap],
            lru: vec![0; cap / 2],
            mask: cap / 2 - 1,
            enabled: true,
            stats: CacheStats::default(),
        }
    }

    /// Force the cache on or off (dropping any stored entries when
    /// disabling, so a later re-enable starts cold).
    pub fn set_enabled(&mut self, enabled: bool) {
        if !enabled {
            for s in &mut self.slots {
                *s = None;
            }
        }
        self.enabled = enabled;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_of(&self, rule: u32, x: u32, num: u32) -> usize {
        // Fibonacci-style mix of the three key words; the epoch is
        // deliberately not hashed so a bump lands on the same set and is
        // observable as an invalidation rather than a plain miss.
        let mut h = (x as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= (rule as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
        h ^= (num as u64).wrapping_mul(0x1656_67B1_9E37_79F9);
        h ^= h >> 29;
        (h as usize) & self.mask
    }

    /// Serve `(rule, x, num)` at `epoch` from the table, or run
    /// `compute` and remember its result.  `out` is cleared first and
    /// receives the devices either way.
    pub fn get_or_compute<F>(
        &mut self,
        rule: u32,
        x: u32,
        num: usize,
        epoch: u64,
        out: &mut Vec<DeviceId>,
        compute: F,
    ) where
        F: FnOnce() -> Vec<DeviceId>,
    {
        out.clear();
        if !self.enabled {
            out.extend_from_slice(&compute());
            return;
        }
        let num32 = num as u32;
        let set = self.set_of(rule, x, num32);
        // Probe both ways; a key match (hit or stale) claims its way, so
        // a refill after an epoch bump overwrites in place instead of
        // evicting the set's other resident.
        let mut victim = None;
        for way in 0..2 {
            let i = 2 * set + way;
            if let Some(slot) = &self.slots[i] {
                if slot.rule == rule && slot.x == x && slot.num == num32 {
                    if slot.epoch == epoch {
                        self.stats.hits += 1;
                        out.extend_from_slice(&slot.devices);
                        self.lru[set] = (way ^ 1) as u8;
                        return;
                    }
                    self.stats.invalidations += 1;
                    victim = Some(way);
                    break;
                }
            } else if victim.is_none() {
                victim = Some(way);
            }
        }
        self.stats.misses += 1;
        let devices = compute();
        out.extend_from_slice(&devices);
        let way = victim.unwrap_or(self.lru[set] as usize);
        self.lru[set] = (way ^ 1) as u8;
        self.slots[2 * set + way] = Some(Slot {
            rule,
            x,
            num: num32,
            epoch,
            devices,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(rule: u32, x: u32, num: usize) -> Vec<DeviceId> {
        (0..num).map(|r| (rule + x + r as u32) as DeviceId).collect()
    }

    fn run(c: &mut PlacementCache, rule: u32, x: u32, num: usize, epoch: u64) -> Vec<DeviceId> {
        let mut out = Vec::new();
        c.get_or_compute(rule, x, num, epoch, &mut out, || fake(rule, x, num));
        out
    }

    #[test]
    fn hit_after_miss_returns_same_devices() {
        let mut c = PlacementCache::new(64);
        c.set_enabled(true);
        let a = run(&mut c, 0, 42, 3, 1);
        let b = run(&mut c, 0, 42, 3, 1);
        assert_eq!(a, b);
        assert_eq!(c.stats().misses, 1);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn epoch_bump_counts_as_invalidation_and_recomputes() {
        let mut c = PlacementCache::new(64);
        c.set_enabled(true);
        run(&mut c, 0, 42, 3, 1);
        run(&mut c, 0, 42, 3, 2);
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.stats().misses, 2);
        // And the new epoch is now cached.
        run(&mut c, 0, 42, 3, 2);
        assert_eq!(c.stats().hits, 1);
    }

    #[test]
    fn distinct_keys_do_not_alias() {
        let mut c = PlacementCache::new(1024);
        c.set_enabled(true);
        for x in 0..200u32 {
            assert_eq!(run(&mut c, 1, x, 3, 7), fake(1, x, 3), "x={x}");
        }
        // Second pass: every result still correct whether hit or miss.
        for x in 0..200u32 {
            assert_eq!(run(&mut c, 1, x, 3, 7), fake(1, x, 3), "x={x}");
        }
    }

    #[test]
    fn collision_overwrites_and_stays_correct() {
        // A 16-slot table with 500 keys forces constant collisions; the
        // cache must degrade to recomputation, never to wrong answers.
        let mut c = PlacementCache::new(16);
        c.set_enabled(true);
        for x in 0..500u32 {
            assert_eq!(run(&mut c, 0, x, 4, 1), fake(0, x, 4));
        }
        let s = c.stats();
        assert_eq!(s.hits + s.misses, 500);
    }

    #[test]
    fn any_conflicting_pair_reaches_steady_state_hits() {
        // The failure mode the associativity exists to kill: two keys
        // hashing to the same set must not alternate-evict each other.
        // With two ways, any pair settles into all-hits after warmup —
        // for every pair, including the ones that do collide.
        for x in 1..64u32 {
            let mut c = PlacementCache::new(16);
            c.set_enabled(true);
            for _ in 0..4 {
                run(&mut c, 0, 0, 3, 1);
                run(&mut c, 0, x, 3, 1);
            }
            let before = c.stats();
            for _ in 0..8 {
                run(&mut c, 0, 0, 3, 1);
                run(&mut c, 0, x, 3, 1);
            }
            let after = c.stats();
            assert_eq!(after.misses, before.misses, "pair (0, {x}) thrashes");
            assert_eq!(after.hits, before.hits + 16);
        }
    }

    #[test]
    fn disabled_cache_always_computes() {
        let mut c = PlacementCache::new(64);
        c.set_enabled(false);
        run(&mut c, 0, 1, 3, 1);
        run(&mut c, 0, 1, 3, 1);
        assert_eq!(c.stats(), CacheStats::default());
    }
}

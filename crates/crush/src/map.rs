//! The CRUSH map: hierarchy, device states, and rule execution.
//!
//! `CrushMap::do_rule` is the function DeLiBA-K accelerates in hardware.
//! Its four key operations — rule evaluation, hash computation, data
//! mapping and replication — are precisely the ones whose clock cycles
//! the paper counts for the RTL accelerators (§IV-B).  The software path
//! here is the baseline whose per-kernel execution times appear in
//! column 2 of Table I.

use crate::bucket::{Bucket, BucketAlg, BucketId};
use crate::rule::{Rule, RuleStep};
use std::collections::BTreeMap;

/// Non-negative device (OSD) identifier.
pub type DeviceId = i32;

/// Maximum total descent attempts per replica slot before giving up
/// (Ceph tunable `choose_total_tries`).
pub(crate) const CHOOSE_TOTAL_TRIES: u32 = 50;

/// A CRUSH map: the bucket hierarchy plus device health state.
#[derive(Debug, Clone, Default)]
pub struct CrushMap {
    buckets: BTreeMap<BucketId, Bucket>,
    /// Devices marked failed/out: excluded from placement.
    out: BTreeMap<DeviceId, bool>,
    rules: BTreeMap<u32, Rule>,
}

impl CrushMap {
    /// Empty map.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Insert or replace a bucket.
    pub fn add_bucket(&mut self, bucket: Bucket) {
        self.buckets.insert(bucket.id, bucket);
    }

    /// Look up a bucket.
    pub fn bucket(&self, id: BucketId) -> Option<&Bucket> {
        self.buckets.get(&id)
    }

    /// Mutable bucket access (for reweighting).
    pub fn bucket_mut(&mut self, id: BucketId) -> Option<&mut Bucket> {
        self.buckets.get_mut(&id)
    }

    /// Register a rule.
    pub fn add_rule(&mut self, rule: Rule) {
        rule.validate().expect("invalid rule");
        self.rules.insert(rule.id, rule);
    }

    /// Mark a device out (failed): it will not be selected.
    pub fn mark_out(&mut self, dev: DeviceId) {
        self.out.insert(dev, true);
    }

    /// Return a device to service.
    pub fn mark_in(&mut self, dev: DeviceId) {
        self.out.remove(&dev);
    }

    /// Is this device excluded?
    pub fn is_out(&self, dev: DeviceId) -> bool {
        self.out.get(&dev).copied().unwrap_or(false)
    }

    /// Devices in the subtree rooted at `id` (a device id returns itself).
    pub(crate) fn subtree_devices(&self, id: i32) -> Vec<DeviceId> {
        if id >= 0 {
            return vec![id];
        }
        let mut out = Vec::new();
        if let Some(b) = self.buckets.get(&id) {
            for &item in b.items() {
                out.extend(self.subtree_devices(item));
            }
        }
        out
    }

    /// Descend from `start` to a child of `target_type`, then on from
    /// that subtree down to a device.  `x` is the input, `r` the
    /// (retry-adjusted) replica rank.
    fn descend(&self, start: i32, x: u32, r: u32, target_type: u16) -> Option<i32> {
        let mut cur = start;
        let mut depth = 0;
        loop {
            depth += 1;
            if depth > 64 {
                return None; // cycle guard
            }
            if cur >= 0 {
                // Reached a device.
                return if self.is_out(cur) { None } else { Some(cur) };
            }
            let bucket = self.buckets.get(&cur)?;
            let next = bucket.select(x, r)?;
            if next >= 0 {
                return if self.is_out(next) { None } else { Some(next) };
            }
            let nb = self.buckets.get(&next)?;
            if nb.bucket_type == target_type {
                // Continue to a device inside this failure domain,
                // re-keyed on the rank so different replicas pick
                // different leaves of identical domains.
                let mut leaf_r = r;
                let mut tries = 0;
                loop {
                    match self.descend_to_device(next, x, leaf_r) {
                        Some(dev) => return Some(dev),
                        None => {
                            tries += 1;
                            if tries >= CHOOSE_TOTAL_TRIES {
                                return None;
                            }
                            leaf_r += 97; // decorrelate retry draws
                        }
                    }
                }
            }
            cur = next;
        }
    }

    fn descend_to_device(&self, start: BucketId, x: u32, r: u32) -> Option<DeviceId> {
        let mut cur: i32 = start;
        let mut depth = 0;
        loop {
            depth += 1;
            if depth > 64 {
                return None;
            }
            if cur >= 0 {
                return if self.is_out(cur) { None } else { Some(cur) };
            }
            let b = self.buckets.get(&cur)?;
            cur = b.select(x, r)?;
        }
    }

    /// Execute a rule for input `x`, requesting `num` positions.
    ///
    /// Returns the selected devices in rank order.  Fewer than `num`
    /// devices may be returned if the map cannot satisfy the request
    /// (e.g. more replicas than failure domains).
    pub fn do_rule(&self, rule_id: u32, x: u32, num: usize) -> Vec<DeviceId> {
        let Some(rule) = self.rules.get(&rule_id) else {
            return Vec::new();
        };
        let mut working: Vec<i32> = Vec::new();
        let mut result: Vec<DeviceId> = Vec::new();

        for step in &rule.steps {
            match *step {
                RuleStep::Take(id) => {
                    working = vec![id];
                }
                RuleStep::ChooseLeaf { num: n, bucket_type } => {
                    let want = if n == 0 { num } else { n as usize };
                    working = self.choose_from(&working, x, want, bucket_type, &result);
                }
                RuleStep::Emit => {
                    result.extend(working.iter().copied().filter(|&i| i >= 0));
                    working = Vec::new();
                }
            }
        }
        result
    }

    fn choose_from(
        &self,
        parents: &[i32],
        x: u32,
        want: usize,
        bucket_type: u16,
        already: &[DeviceId],
    ) -> Vec<i32> {
        // CRUSH semantics: `chooseleaf n type t` selects n leaves *per
        // item* of the working vector.
        let mut chosen: Vec<i32> = Vec::with_capacity(want * parents.len());
        let mut chosen_domains: Vec<i32> = Vec::new();
        for &parent in parents {
            for _rep in 0..want {
                let rank = chosen.len() as u32;
                let mut picked = None;
                for attempt in 0..CHOOSE_TOTAL_TRIES {
                    // Rank perturbation: each retry shifts r by the
                    // requested width so draws stay decorrelated across
                    // slots (Ceph's firstn r' = r + attempt).
                    let r = rank + attempt * (want as u32).max(1);
                    if let Some(item) = self.descend(parent, x, r, bucket_type) {
                        let collides = chosen.contains(&item) || already.contains(&item);
                        // Also reject two devices from the same failure
                        // domain.
                        let domain_collision = self
                            .domain_of(item, bucket_type)
                            .map(|d| chosen_domains.contains(&d))
                            .unwrap_or(false);
                        if !collides && !domain_collision {
                            picked = Some(item);
                            break;
                        }
                    }
                }
                if let Some(item) = picked {
                    if let Some(d) = self.domain_of(item, bucket_type) {
                        chosen_domains.push(d);
                    }
                    chosen.push(item);
                }
            }
        }
        chosen
    }

    /// Render the hierarchy as a `ceph osd crush tree`-style text dump:
    /// one line per node with id, type, algorithm, weight and children
    /// indented beneath their parent.  Roots are buckets no other bucket
    /// references.
    pub fn dump(&self) -> String {
        let referenced: Vec<i32> = self
            .buckets
            .values()
            .flat_map(|b| b.items().iter().copied())
            .filter(|&i| i < 0)
            .collect();
        let mut out = String::new();
        let mut roots: Vec<i32> = self
            .buckets
            .keys()
            .copied()
            .filter(|id| !referenced.contains(id))
            .collect();
        roots.sort_unstable();
        for root in roots {
            self.dump_node(root, 0, &mut out);
        }
        out
    }

    fn dump_node(&self, id: i32, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        if id >= 0 {
            let state = if self.is_out(id) { " (out)" } else { "" };
            out.push_str(&format!("{pad}osd.{id}{state}\n"));
            return;
        }
        if let Some(b) = self.buckets.get(&id) {
            out.push_str(&format!(
                "{pad}bucket {id} type {} alg {} weight {:.3}\n",
                b.bucket_type,
                b.alg.name(),
                b.total_weight() as f64 / crate::WEIGHT_ONE as f64,
            ));
            for (&item, &w) in b.items().iter().zip(b.weights()) {
                if item >= 0 {
                    let state = if self.is_out(item) { " (out)" } else { "" };
                    out.push_str(&format!(
                        "{}osd.{item} weight {:.3}{state}\n",
                        "  ".repeat(depth + 1),
                        w as f64 / crate::WEIGHT_ONE as f64,
                    ));
                } else {
                    self.dump_node(item, depth + 1, out);
                }
            }
        }
    }

    /// The failure-domain bucket of type `t` containing device `dev`.
    pub fn domain_of(&self, dev: DeviceId, t: u16) -> Option<BucketId> {
        for (&id, b) in &self.buckets {
            if b.bucket_type == t && self.subtree_devices(id).contains(&dev) {
                return Some(id);
            }
        }
        None
    }
}

/// Convenience builder for the hierarchies used throughout the
/// reproduction (and in the paper's testbed: one root, two storage
/// servers, 16 OSDs each).
#[derive(Debug)]
pub struct MapBuilder {
    alg: BucketAlg,
}

impl Default for MapBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl MapBuilder {
    /// Builder with straw2 buckets and unit device weights.
    pub fn new() -> Self {
        MapBuilder {
            alg: BucketAlg::Straw2,
        }
    }

    /// Use a different bucket algorithm for *host* buckets (the root stays
    /// straw2, mirroring the paper's static-region Straw2 + DFX-swappable
    /// host-level accelerators).
    pub fn host_alg(mut self, alg: BucketAlg) -> Self {
        self.alg = alg;
        self
    }

    /// Build `hosts × per_host` devices under one root.
    ///
    /// Bucket types: 0 = osd (devices), 1 = host, 2 = root.
    /// Bucket ids: root = -1, host h = -(2 + h).
    /// Device ids: 0..hosts*per_host.
    ///
    /// Rule 0 (replicated, domain = host) and rule 1 (erasure, domain =
    /// host) are pre-registered.
    pub fn build(self, hosts: usize, per_host: usize) -> CrushMap {
        assert!(hosts > 0 && per_host > 0);
        let mut map = CrushMap::new();
        let mut host_ids = Vec::with_capacity(hosts);
        let mut host_weights = Vec::with_capacity(hosts);
        for h in 0..hosts {
            let id = -(2 + h as i32);
            let devs: Vec<i32> = (0..per_host).map(|d| (h * per_host + d) as i32).collect();
            let weights = vec![crate::WEIGHT_ONE; per_host];
            map.add_bucket(Bucket::new(id, self.alg, 1, devs, weights));
            host_ids.push(id);
            host_weights.push(crate::WEIGHT_ONE * per_host as u32);
        }
        map.add_bucket(Bucket::new(-1, BucketAlg::Straw2, 2, host_ids, host_weights));
        map.add_rule(Rule::replicated(0, -1, 1));
        map.add_rule(Rule::erasure(1, -1, 1));
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The paper's testbed: 2 servers × 16 OSDs = 32 OSDs.
    fn paper_map() -> CrushMap {
        MapBuilder::new().build(2, 16)
    }

    /// A larger map so 3-replica placement has ≥3 failure domains.
    fn wide_map() -> CrushMap {
        MapBuilder::new().build(8, 4)
    }

    #[test]
    fn builder_shape() {
        let m = paper_map();
        assert_eq!(m.subtree_devices(-1).len(), 32);
        assert_eq!(m.subtree_devices(-2).len(), 16);
        assert!(m.rules.contains_key(&0));
        assert!(m.rules.contains_key(&1));
    }

    #[test]
    fn do_rule_deterministic() {
        let m = wide_map();
        for x in 0..200 {
            assert_eq!(m.do_rule(0, x, 3), m.do_rule(0, x, 3));
        }
    }

    #[test]
    fn replicas_are_distinct_devices_and_domains() {
        let m = wide_map();
        for x in 0..2_000u32 {
            let devs = m.do_rule(0, x, 3);
            assert_eq!(devs.len(), 3, "x={x}: {devs:?}");
            let mut d = devs.clone();
            d.sort_unstable();
            d.dedup();
            assert_eq!(d.len(), 3, "duplicate devices for x={x}: {devs:?}");
            // Distinct hosts (failure domains).
            let hosts: Vec<_> = devs.iter().map(|&dev| m.domain_of(dev, 1).unwrap()).collect();
            let mut h = hosts.clone();
            h.sort_unstable();
            h.dedup();
            assert_eq!(h.len(), 3, "replicas share a host for x={x}: {hosts:?}");
        }
    }

    #[test]
    fn two_domains_cap_replica_count() {
        // The paper's own 2-server cluster can host at most 2
        // host-disjoint replicas; CRUSH must degrade gracefully.
        let m = paper_map();
        for x in 0..200u32 {
            let devs = m.do_rule(0, x, 3);
            assert!(devs.len() <= 2, "x={x}: {devs:?}");
            assert_eq!(devs.len(), 2, "should place 2 of 3 replicas");
        }
    }

    #[test]
    fn ec_rule_places_k_plus_m() {
        let m = wide_map();
        for x in 0..500u32 {
            let devs = m.do_rule(1, x, 6); // k=4, m=2
            assert_eq!(devs.len(), 6, "x={x}: {devs:?}");
        }
    }

    #[test]
    fn placement_balances_across_devices() {
        let m = wide_map();
        let mut counts: HashMap<i32, u32> = HashMap::new();
        let trials = 4_000u32;
        for x in 0..trials {
            for d in m.do_rule(0, x, 3) {
                *counts.entry(d).or_insert(0) += 1;
            }
        }
        let expect = (trials * 3) as f64 / 32.0;
        for (&dev, &c) in &counts {
            let dev_frac = (c as f64 - expect) / expect;
            assert!(
                dev_frac.abs() < 0.30,
                "device {dev}: {c} vs expected {expect:.0}"
            );
        }
        assert_eq!(counts.len(), 32, "all devices used");
    }

    #[test]
    fn failed_device_excluded_and_placement_stable() {
        let mut m = wide_map();
        let before: Vec<_> = (0..2_000u32).map(|x| m.do_rule(0, x, 3)).collect();
        m.mark_out(5);
        let after: Vec<_> = (0..2_000u32).map(|x| m.do_rule(0, x, 3)).collect();
        let mut remapped = 0;
        for (b, a) in before.iter().zip(after.iter()) {
            assert!(!a.contains(&5), "failed device still selected");
            if b != a {
                remapped += 1;
                assert!(b.contains(&5), "mapping changed without involving osd.5");
            }
        }
        // Roughly 3/32 of inputs should touch osd.5.
        let frac = remapped as f64 / 2_000.0;
        assert!((0.02..0.2).contains(&frac), "remap fraction {frac}");
    }

    #[test]
    fn mark_in_restores_original_placement() {
        let mut m = wide_map();
        let before: Vec<_> = (0..500u32).map(|x| m.do_rule(0, x, 3)).collect();
        m.mark_out(9);
        m.mark_in(9);
        let after: Vec<_> = (0..500u32).map(|x| m.do_rule(0, x, 3)).collect();
        assert_eq!(before, after);
    }

    #[test]
    fn each_host_alg_yields_valid_placement() {
        for alg in [
            BucketAlg::Uniform,
            BucketAlg::List,
            BucketAlg::Tree,
            BucketAlg::Straw,
            BucketAlg::Straw2,
        ] {
            let m = MapBuilder::new().host_alg(alg).build(8, 4);
            for x in 0..300u32 {
                let devs = m.do_rule(0, x, 3);
                assert_eq!(devs.len(), 3, "{alg:?} x={x}");
            }
        }
    }

    #[test]
    fn cluster_expansion_moves_limited_data() {
        // Adding a host to the root (straw2) should move roughly
        // new/total share of placements — the property DFX exploits when
        // swapping accelerators as the cluster grows.
        let m8 = MapBuilder::new().build(8, 4);
        let mut m9 = MapBuilder::new().build(8, 4);
        // Add host -10 with 4 devices 32..36.
        let devs: Vec<i32> = (32..36).collect();
        m9.add_bucket(Bucket::new(
            -10,
            BucketAlg::Straw2,
            1,
            devs,
            vec![crate::WEIGHT_ONE; 4],
        ));
        m9.bucket_mut(-1)
            .unwrap()
            .add_item(-10, crate::WEIGHT_ONE * 4);

        let trials = 2_000u32;
        let mut moved = 0;
        for x in 0..trials {
            let a = m8.do_rule(0, x, 3);
            let b = m9.do_rule(0, x, 3);
            let same = a.iter().filter(|d| b.contains(d)).count();
            moved += 3 - same;
        }
        let frac = moved as f64 / (3.0 * trials as f64);
        // Ideal movement = 1/9 ≈ 0.11; allow generous slack for the
        // domain-collision rejection cascades.
        assert!(frac < 0.30, "moved fraction {frac}");
        assert!(frac > 0.03, "expansion moved nothing? {frac}");
    }

    #[test]
    fn domain_of_finds_host() {
        let m = paper_map();
        assert_eq!(m.domain_of(0, 1), Some(-2));
        assert_eq!(m.domain_of(16, 1), Some(-3));
        assert_eq!(m.domain_of(99, 1), None);
    }

    #[test]
    fn dump_renders_whole_hierarchy() {
        let mut m = paper_map();
        m.mark_out(5);
        let d = m.dump();
        assert!(d.contains("bucket -1 type 2 alg straw2"));
        assert!(d.contains("bucket -2 type 1"));
        assert!(d.contains("osd.0 weight 1.000"));
        assert!(d.contains("osd.31"));
        assert!(d.contains("osd.5 weight 1.000 (out)"));
        // 32 OSD lines + 3 bucket lines.
        assert_eq!(d.lines().count(), 35);
    }

    #[test]
    fn unknown_rule_returns_empty() {
        let m = paper_map();
        assert!(m.do_rule(42, 1, 3).is_empty());
    }
}

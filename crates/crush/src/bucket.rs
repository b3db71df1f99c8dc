//! The five CRUSH bucket algorithms.
//!
//! A *bucket* is an interior node of the CRUSH hierarchy (a host, a rack,
//! a root…) holding child items (devices or further buckets), each with a
//! 16.16 fixed-point weight.  `select(x, r)` deterministically picks one
//! child for input `x` and replica rank `r`.  The five algorithms trade
//! selection cost against data movement on reorganization — exactly the
//! trade-off the paper exploits with DFX partial reconfiguration (§IV-C):
//!
//! * **Uniform** — O(1), all weights equal; "ideal for uniform hardware
//!   configurations" (RM 3 in the paper's SLR0 partition);
//! * **List** — O(n), optimal for *expanding* clusters (RM 1);
//! * **Tree** — O(log n) binary search tree, for large/nested clusters
//!   (RM 2);
//! * **Straw** / **Straw2** — O(n) draw-the-longest-straw, optimal data
//!   movement on any weight change; implemented in the *static* FPGA
//!   region because every Ceph pool uses them by default.

use crate::fixed::ln_table;
use crate::hash::{hash32_3, hash32_4};

/// Bucket identifiers are negative, device ids non-negative (Ceph
/// convention); `i32` throughout.
pub type BucketId = i32;

/// Selection algorithm of a bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BucketAlg {
    /// O(1) selection, uniform weights.
    Uniform,
    /// O(n), cheap insertion at the head.
    List,
    /// O(log n) weighted binary tree.
    Tree,
    /// Original straw draw (approximate weighting).
    Straw,
    /// Straw2: exact weighting, minimal movement (Ceph default).
    Straw2,
}

impl BucketAlg {
    /// Short lowercase name as used in CRUSH map dumps.
    pub fn name(self) -> &'static str {
        match self {
            BucketAlg::Uniform => "uniform",
            BucketAlg::List => "list",
            BucketAlg::Tree => "tree",
            BucketAlg::Straw => "straw",
            BucketAlg::Straw2 => "straw2",
        }
    }
}

/// An interior node of the CRUSH hierarchy.
#[derive(Debug, Clone)]
pub struct Bucket {
    /// Negative id.
    pub id: BucketId,
    /// Selection algorithm.
    pub(crate) alg: BucketAlg,
    /// Hierarchy type (0 = osd, 1 = host, 2 = rack, …).
    pub(crate) bucket_type: u16,
    items: Vec<i32>,
    weights: Vec<u32>,
    /// Straw lengths (straw alg only), scaled by 0x10000.
    straws: Vec<u64>,
    /// Suffix weight sums (list alg only): `suffix[i] = Σ weights[i..]`.
    suffix: Vec<u64>,
    /// Flat complete binary tree of node weights (tree alg only); leaves
    /// are padded to a power of two.
    tree: Vec<u64>,
    tree_leaves: usize,
    /// Straw2 SoA batch (straw2 alg only): the nonzero-weight items and
    /// their weights packed into contiguous parallel arrays, preserving
    /// original item order so the first-max tie-break is unchanged.  The
    /// batched walk streams these instead of skip-testing `weights`.
    s2_items: Vec<i32>,
    s2_weights: Vec<u32>,
    total_weight: u64,
}

impl Bucket {
    /// Build a bucket from parallel `(item, weight)` lists.
    ///
    /// # Panics
    /// Panics if `id` is non-negative, the lists are empty or of unequal
    /// length, or (for `Uniform`) the weights are not all identical.
    pub fn new(id: BucketId, alg: BucketAlg, bucket_type: u16, items: Vec<i32>, weights: Vec<u32>) -> Self {
        assert!(id < 0, "bucket ids must be negative, got {id}");
        assert!(!items.is_empty(), "bucket {id} has no items");
        assert_eq!(items.len(), weights.len(), "items/weights length mismatch");
        if alg == BucketAlg::Uniform {
            assert!(
                weights.windows(2).all(|w| w[0] == w[1]),
                "uniform bucket requires identical weights"
            );
        }
        let mut b = Bucket {
            id,
            alg,
            bucket_type,
            items,
            weights,
            straws: Vec::new(),
            suffix: Vec::new(),
            tree: Vec::new(),
            tree_leaves: 0,
            s2_items: Vec::new(),
            s2_weights: Vec::new(),
            total_weight: 0,
        };
        b.rebuild();
        b
    }

    /// Child items.
    pub fn items(&self) -> &[i32] {
        &self.items
    }

    /// Per-item weights (16.16 fixed point).
    pub(crate) fn weights(&self) -> &[u32] {
        &self.weights
    }

    /// Sum of item weights (16.16 fixed point).
    pub(crate) fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Change the weight of `item`; derived tables are recomputed.
    /// Returns the old weight, or `None` if the item is not present.
    pub fn reweight_item(&mut self, item: i32, weight: u32) -> Option<u32> {
        let pos = self.items.iter().position(|&i| i == item)?;
        let old = self.weights[pos];
        self.weights[pos] = weight;
        self.rebuild();
        Some(old)
    }

    /// Add an item (at the *head* for list buckets, matching the "most
    /// recently added first" semantics that make list buckets cheap for
    /// growing clusters).
    pub fn add_item(&mut self, item: i32, weight: u32) {
        assert!(
            !self.items.contains(&item),
            "item {item} already in bucket {}",
            self.id
        );
        if self.alg == BucketAlg::Uniform && !self.weights.is_empty() {
            assert_eq!(weight, self.weights[0], "uniform bucket weight mismatch");
        }
        match self.alg {
            BucketAlg::List => {
                self.items.insert(0, item);
                self.weights.insert(0, weight);
            }
            _ => {
                self.items.push(item);
                self.weights.push(weight);
            }
        }
        self.rebuild();
    }

    /// Remove an item; returns its weight if present.
    pub fn remove_item(&mut self, item: i32) -> Option<u32> {
        let pos = self.items.iter().position(|&i| i == item)?;
        self.items.remove(pos);
        let w = self.weights.remove(pos);
        if !self.items.is_empty() {
            self.rebuild();
        }
        Some(w)
    }

    fn rebuild(&mut self) {
        self.total_weight = self.weights.iter().map(|&w| w as u64).sum();
        match self.alg {
            BucketAlg::Straw => self.calc_straws(),
            BucketAlg::List => self.calc_suffix(),
            BucketAlg::Tree => self.calc_tree(),
            BucketAlg::Straw2 => self.calc_straw2_soa(),
            BucketAlg::Uniform => {}
        }
    }

    /// Pack the nonzero-weight items into the SoA batch arrays (and warm
    /// the shared ln table, so the first timed walk never pays its
    /// one-time build).  Membership and weight mutations land here via
    /// [`Bucket::rebuild`], so the batch can never serve a stale view.
    fn calc_straw2_soa(&mut self) {
        self.s2_items.clear();
        self.s2_weights.clear();
        for (i, &item) in self.items.iter().enumerate() {
            if self.weights[i] != 0 {
                self.s2_items.push(item);
                self.s2_weights.push(self.weights[i]);
            }
        }
        ln_table();
    }

    /// Straw-length computation (Ceph `crush_calc_straw`): items sorted by
    /// ascending weight get successively longer straws so that the
    /// probability of drawing the longest scaled straw is ∝ weight.
    fn calc_straws(&mut self) {
        let n = self.items.len();
        self.straws = vec![0; n];
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (self.weights[i], i));

        let mut straw = 1.0f64;
        let mut wbelow = 0.0f64;
        let mut lastw = 0.0f64;
        let mut i = 0;
        while i < n {
            let idx = order[i];
            if self.weights[idx] == 0 {
                self.straws[idx] = 0;
                i += 1;
                continue;
            }
            self.straws[idx] = (straw * 65_536.0) as u64;
            i += 1;
            if i == n {
                break;
            }
            if self.weights[order[i]] == self.weights[order[i - 1]] {
                continue;
            }
            let numleft = (n - i) as f64;
            wbelow += (self.weights[order[i - 1]] as f64 - lastw) * (numleft + 1.0);
            let wnext = numleft * (self.weights[order[i]] - self.weights[order[i - 1]]) as f64;
            let pbelow = wbelow / (wbelow + wnext);
            straw *= (1.0 / pbelow).powf(1.0 / numleft);
            lastw = self.weights[order[i - 1]] as f64;
        }
    }

    fn calc_suffix(&mut self) {
        let n = self.items.len();
        self.suffix = vec![0; n];
        let mut acc = 0u64;
        for i in (0..n).rev() {
            acc += self.weights[i] as u64;
            self.suffix[i] = acc;
        }
    }

    fn calc_tree(&mut self) {
        let n = self.items.len();
        let leaves = n.next_power_of_two();
        self.tree_leaves = leaves;
        self.tree = vec![0; 2 * leaves];
        for i in 0..n {
            self.tree[leaves + i] = self.weights[i] as u64;
        }
        for i in (1..leaves).rev() {
            self.tree[i] = self.tree[2 * i] + self.tree[2 * i + 1];
        }
    }

    /// Deterministically select one child for input `x` and replica rank
    /// `r`.  Returns `None` only when every item has weight zero (callers
    /// treat this as a failed attempt and retry with a new `r'`).
    pub fn select(&self, x: u32, r: u32) -> Option<i32> {
        if self.total_weight == 0 {
            return None;
        }
        match self.alg {
            BucketAlg::Uniform => self.select_uniform(x, r),
            BucketAlg::List => self.select_list(x, r),
            BucketAlg::Tree => self.select_tree(x, r),
            BucketAlg::Straw => self.select_straw(x, r),
            BucketAlg::Straw2 => self.select_straw2(x, r),
        }
    }

    fn select_uniform(&self, x: u32, r: u32) -> Option<i32> {
        let h = hash32_3(x, self.id as u32, r);
        Some(self.items[(h as usize) % self.items.len()])
    }

    fn select_list(&self, x: u32, r: u32) -> Option<i32> {
        // Walk from the head (most recently added): choose item i with
        // probability w_i / Σ_{j ≥ i} w_j, conditioned on not having
        // chosen an earlier item — yields exact weighting.
        for i in 0..self.items.len() {
            if self.weights[i] == 0 {
                continue;
            }
            let h = (hash32_4(x, self.items[i] as u32, r, self.id as u32) & 0xffff) as u64;
            let w = (h * self.suffix[i]) >> 16;
            if w < self.weights[i] as u64 {
                return Some(self.items[i]);
            }
        }
        // Numerically the last non-zero item should absorb the remainder;
        // fall back to it explicitly.
        self.items
            .iter()
            .zip(&self.weights)
            .rev()
            .find(|(_, &w)| w > 0)
            .map(|(&it, _)| it)
    }

    fn select_tree(&self, x: u32, r: u32) -> Option<i32> {
        let mut node = 1usize;
        while node < self.tree_leaves {
            let left = self.tree[2 * node];
            let total = self.tree[node];
            if total == 0 {
                return None;
            }
            let h = hash32_4(x, node as u32, r, self.id as u32) as u64;
            // Scale the 32-bit hash onto [0, total).
            let draw = (h * total) >> 32;
            node = if draw < left { 2 * node } else { 2 * node + 1 };
        }
        let leaf = node - self.tree_leaves;
        if leaf < self.items.len() && self.weights[leaf] > 0 {
            Some(self.items[leaf])
        } else {
            None
        }
    }

    fn select_straw(&self, x: u32, r: u32) -> Option<i32> {
        let mut best: Option<(u64, i32)> = None;
        for (i, &item) in self.items.iter().enumerate() {
            if self.straws[i] == 0 {
                continue;
            }
            let draw = ((hash32_3(x, item as u32, r) & 0xffff) as u64) * self.straws[i];
            if best.map(|(b, _)| draw > b).unwrap_or(true) {
                best = Some((draw, item));
            }
        }
        best.map(|(_, item)| item)
    }

    /// Batched Straw2 walk: one pass over the SoA batch computes every
    /// candidate key — table-looked-up ln, contiguous weights, no
    /// per-item zero-weight test — and keeps the running max.  The key
    /// arithmetic and the strictly-greater first-max tie-break are the
    /// scalar walk's, so the selection is item-for-item identical
    /// (pinned by `prop_straw2_batch`).
    fn select_straw2(&self, x: u32, r: u32) -> Option<i32> {
        let ln = ln_table();
        let mut best: Option<(i64, i32)> = None;
        for (&item, &w) in self.s2_items.iter().zip(&self.s2_weights) {
            let u = (hash32_3(x, item as u32, r) & 0xffff) as usize;
            // key = ln(u / 2^16) / weight — both sides ≤ 0; maximizing the
            // key favours heavier items.  u = 0 → effectively -∞.
            let key = if u == 0 {
                i64::MIN / 2
            } else {
                (((ln[u] as i128) << 16) / w as i128) as i64
            };
            if best.map(|(b, _)| key > b).unwrap_or(true) {
                best = Some((key, item));
            }
        }
        best.map(|(_, item)| item)
    }

    /// The pre-batch scalar Straw2 walk, kept verbatim as the reference
    /// the batched SoA walk is property-tested against.  Not part of the
    /// selection path.
    #[cfg(test)]
    fn select_straw2_scalar(&self, x: u32, r: u32) -> Option<i32> {
        let mut best: Option<(i64, i32)> = None;
        for (i, &item) in self.items.iter().enumerate() {
            let w = self.weights[i];
            if w == 0 {
                continue;
            }
            let u = (hash32_3(x, item as u32, r) & 0xffff) as u64;
            let key = if u == 0 {
                i64::MIN / 2
            } else {
                let ln = crate::fixed::ln_frac16_q24(u); // Q24, ≤ 0
                (((ln as i128) << 16) / w as i128) as i64
            };
            if best.map(|(b, _)| key > b).unwrap_or(true) {
                best = Some((key, item));
            }
        }
        best.map(|(_, item)| item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WEIGHT_ONE;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn count_selections(b: &Bucket, trials: u32) -> HashMap<i32, u32> {
        let mut counts = HashMap::new();
        for x in 0..trials {
            let item = b.select(x, 0).expect("non-empty bucket selects");
            *counts.entry(item).or_insert(0) += 1;
        }
        counts
    }

    fn assert_proportional(counts: &HashMap<i32, u32>, weights: &[(i32, u32)], tol: f64) {
        let total_w: u64 = weights.iter().map(|&(_, w)| w as u64).sum();
        let total_c: u64 = counts.values().map(|&c| c as u64).sum();
        for &(item, w) in weights {
            let expect = w as f64 / total_w as f64;
            let got = *counts.get(&item).unwrap_or(&0) as f64 / total_c as f64;
            assert!(
                (got - expect).abs() < tol,
                "item {item}: got {got:.4}, expect {expect:.4}"
            );
        }
    }

    fn equal_weight_bucket(alg: BucketAlg, n: i32) -> Bucket {
        Bucket::new(
            -1,
            alg,
            1,
            (0..n).collect(),
            vec![WEIGHT_ONE; n as usize],
        )
    }

    #[test]
    fn all_algorithms_deterministic() {
        for alg in [
            BucketAlg::Uniform,
            BucketAlg::List,
            BucketAlg::Tree,
            BucketAlg::Straw,
            BucketAlg::Straw2,
        ] {
            let b = equal_weight_bucket(alg, 8);
            for x in 0..100 {
                for r in 0..3 {
                    assert_eq!(b.select(x, r), b.select(x, r), "{alg:?}");
                }
            }
        }
    }

    #[test]
    fn equal_weights_give_uniform_distribution() {
        for alg in [
            BucketAlg::Uniform,
            BucketAlg::List,
            BucketAlg::Tree,
            BucketAlg::Straw,
            BucketAlg::Straw2,
        ] {
            let b = equal_weight_bucket(alg, 8);
            let counts = count_selections(&b, 40_000);
            let weights: Vec<(i32, u32)> = (0..8).map(|i| (i, WEIGHT_ONE)).collect();
            assert_proportional(&counts, &weights, 0.02);
        }
    }

    #[test]
    fn straw2_respects_unequal_weights() {
        let weights = vec![WEIGHT_ONE, 2 * WEIGHT_ONE, 3 * WEIGHT_ONE, 2 * WEIGHT_ONE];
        let b = Bucket::new(-1, BucketAlg::Straw2, 1, vec![0, 1, 2, 3], weights.clone());
        let counts = count_selections(&b, 80_000);
        let expect: Vec<(i32, u32)> = (0..4).map(|i| (i, weights[i as usize])).collect();
        assert_proportional(&counts, &expect, 0.02);
    }

    #[test]
    fn list_respects_unequal_weights() {
        let weights = vec![3 * WEIGHT_ONE, WEIGHT_ONE, 2 * WEIGHT_ONE];
        let b = Bucket::new(-1, BucketAlg::List, 1, vec![10, 11, 12], weights.clone());
        let counts = count_selections(&b, 60_000);
        let expect = vec![
            (10, weights[0]),
            (11, weights[1]),
            (12, weights[2]),
        ];
        assert_proportional(&counts, &expect, 0.02);
    }

    #[test]
    fn tree_respects_unequal_weights() {
        let weights = vec![WEIGHT_ONE, 4 * WEIGHT_ONE, WEIGHT_ONE, 2 * WEIGHT_ONE];
        let b = Bucket::new(-1, BucketAlg::Tree, 1, vec![0, 1, 2, 3], weights.clone());
        let counts = count_selections(&b, 80_000);
        let expect: Vec<(i32, u32)> = (0..4).map(|i| (i, weights[i as usize])).collect();
        assert_proportional(&counts, &expect, 0.02);
    }

    #[test]
    fn straw_roughly_respects_weights() {
        // Classic straw is only approximately weighted — that is the whole
        // motivation for straw2 — so tolerance is looser.
        let weights = vec![WEIGHT_ONE, 2 * WEIGHT_ONE];
        let b = Bucket::new(-1, BucketAlg::Straw, 1, vec![0, 1], weights.clone());
        let counts = count_selections(&b, 60_000);
        let expect = vec![(0, weights[0]), (1, weights[1])];
        assert_proportional(&counts, &expect, 0.06);
    }

    #[test]
    fn zero_weight_items_never_selected() {
        for alg in [BucketAlg::List, BucketAlg::Straw, BucketAlg::Straw2] {
            let b = Bucket::new(
                -1,
                alg,
                1,
                vec![0, 1, 2],
                vec![WEIGHT_ONE, 0, WEIGHT_ONE],
            );
            for x in 0..5_000 {
                assert_ne!(b.select(x, 0), Some(1), "{alg:?} picked weight-0 item");
            }
        }
    }

    #[test]
    fn all_zero_weight_returns_none() {
        let b = Bucket::new(-1, BucketAlg::Straw2, 1, vec![0, 1], vec![1, 1]);
        let mut b = b;
        b.reweight_item(0, 0);
        b.reweight_item(1, 0);
        assert_eq!(b.select(123, 0), None);
    }

    #[test]
    fn straw2_stability_under_weight_increase() {
        // The defining property of straw2: when one item's weight grows,
        // inputs may move *to* that item, but never *between* other items.
        let items = vec![0, 1, 2, 3, 4];
        let w0 = vec![WEIGHT_ONE; 5];
        let before = Bucket::new(-1, BucketAlg::Straw2, 1, items.clone(), w0);
        let mut after = before.clone();
        after.reweight_item(2, 3 * WEIGHT_ONE);

        for x in 0..20_000u32 {
            let a = before.select(x, 0).unwrap();
            let b = after.select(x, 0).unwrap();
            if a != b {
                assert_eq!(b, 2, "input {x} moved {a}→{b}, not to the grown item");
            }
        }
    }

    #[test]
    fn straw2_stability_under_item_removal_equiv() {
        // Setting a weight to zero only moves inputs off that item.
        let items = vec![0, 1, 2, 3];
        let before = Bucket::new(-1, BucketAlg::Straw2, 1, items.clone(), vec![WEIGHT_ONE; 4]);
        let mut after = before.clone();
        after.reweight_item(3, 0);
        for x in 0..20_000u32 {
            let a = before.select(x, 0).unwrap();
            let b = after.select(x, 0).unwrap();
            if a != 3 {
                assert_eq!(a, b, "input {x} moved needlessly");
            } else {
                assert_ne!(b, 3);
            }
        }
    }

    #[test]
    fn replica_ranks_decorrelated() {
        let b = equal_weight_bucket(BucketAlg::Straw2, 8);
        // For a fixed x, different r should often give different items.
        let mut same = 0;
        for x in 0..1_000 {
            if b.select(x, 0) == b.select(x, 1) {
                same += 1;
            }
        }
        // P(same) ≈ 1/8 → expect ~125; allow wide margin.
        assert!(same < 250, "ranks too correlated: {same}/1000");
    }

    #[test]
    fn add_remove_item_roundtrip() {
        let mut b = equal_weight_bucket(BucketAlg::Straw2, 4);
        b.add_item(99, WEIGHT_ONE);
        assert_eq!(b.items().len(), 5);
        assert_eq!(b.total_weight(), 5 * WEIGHT_ONE as u64);
        assert_eq!(b.remove_item(99), Some(WEIGHT_ONE));
        assert_eq!(b.items().len(), 4);
        assert_eq!(b.remove_item(99), None);
    }

    #[test]
    fn list_bucket_adds_at_head() {
        let mut b = Bucket::new(-1, BucketAlg::List, 1, vec![0, 1], vec![WEIGHT_ONE; 2]);
        b.add_item(2, WEIGHT_ONE);
        assert_eq!(b.items()[0], 2, "list bucket inserts at head");
    }

    #[test]
    fn list_bucket_movement_on_add_bounded() {
        // Adding an item to a list bucket should only move ~1/(n+1) of
        // inputs (they move to the new head item).
        let before = Bucket::new(-1, BucketAlg::List, 1, vec![0, 1, 2], vec![WEIGHT_ONE; 3]);
        let mut after = before.clone();
        after.add_item(3, WEIGHT_ONE);
        let trials = 20_000u32;
        let mut moved_elsewhere = 0;
        let mut moved_to_new = 0;
        for x in 0..trials {
            let a = before.select(x, 0).unwrap();
            let b = after.select(x, 0).unwrap();
            if a != b {
                if b == 3 {
                    moved_to_new += 1;
                } else {
                    moved_elsewhere += 1;
                }
            }
        }
        assert_eq!(moved_elsewhere, 0, "list add must only move items to the new head");
        let frac = moved_to_new as f64 / trials as f64;
        assert!((frac - 0.25).abs() < 0.02, "moved {frac}");
    }

    #[test]
    #[should_panic(expected = "identical weights")]
    fn uniform_rejects_unequal_weights() {
        Bucket::new(-1, BucketAlg::Uniform, 1, vec![0, 1], vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn positive_bucket_id_rejected() {
        Bucket::new(1, BucketAlg::Straw2, 1, vec![0], vec![WEIGHT_ONE]);
    }

    #[test]
    fn batched_straw2_matches_scalar_reference() {
        let mut b = Bucket::new(-1, BucketAlg::Straw2, 1, (0..9).collect(), vec![WEIGHT_ONE; 9]);
        b.reweight_item(3, 0);
        b.reweight_item(7, 5 * WEIGHT_ONE / 2);
        for x in 0..5_000u32 {
            for r in 0..6 {
                assert_eq!(b.select(x, r), b.select_straw2_scalar(x, r), "x={x} r={r}");
            }
        }
    }

    #[test]
    fn tree_pads_to_power_of_two() {
        // 5 items → 8 leaves; padding leaves have zero weight and are
        // never selected.
        let b = Bucket::new(-1, BucketAlg::Tree, 1, (0..5).collect(), vec![WEIGHT_ONE; 5]);
        let counts = count_selections(&b, 40_000);
        assert_eq!(counts.len(), 5);
        let weights: Vec<(i32, u32)> = (0..5).map(|i| (i, WEIGHT_ONE)).collect();
        assert_proportional(&counts, &weights, 0.02);
    }

    // Property tests: the batched SoA Straw2 walk is invisible.
    //
    // `Bucket::select` (Straw2) streams a packed nonzero-weight SoA batch
    // with a table-looked-up ln; `Bucket::select_straw2_scalar` is the
    // original skip-tested scalar walk kept verbatim as the reference.
    // For any bucket shape, any weight assignment (zeros included), and
    // any churn sequence — reweights, item removal and re-addition — the
    // two walks must agree item-for-item on every `(x, r)` draw.  This is
    // the contract that lets the engine's placement path use the batch
    // without changing a single simulated byte.

    const MAX_ITEMS: usize = 24;

    /// One step of bucket churn.
    #[derive(Debug, Clone)]
    enum Churn {
        /// Reweight the item in `slot` (zero allowed — the batch must drop
        /// it, the scalar walk must skip it).
        Reweight { slot: usize, weight: u32 },
        /// Remove the item in `slot`, then append it back at `weight`
        /// (membership churn moves the item to the tail, shifting the
        /// first-max tie-break order identically for both walks).
        RemoveAdd { slot: usize, weight: u32 },
    }

    fn churn_step() -> impl Strategy<Value = Churn> {
        prop_oneof![
            (0..MAX_ITEMS, 0u32..=2 * WEIGHT_ONE)
                .prop_map(|(slot, weight)| Churn::Reweight { slot, weight }),
            (0..MAX_ITEMS, 1u32..=2 * WEIGHT_ONE)
                .prop_map(|(slot, weight)| Churn::RemoveAdd { slot, weight }),
        ]
    }

    /// Every draw in a deterministic grid of inputs must agree.
    fn check_walks_agree(b: &Bucket, xs: &[u32]) {
        for &x in xs {
            for r in 0..6 {
                assert_eq!(
                    b.select(x, r),
                    b.select_straw2_scalar(x, r),
                    "x={x} r={r} items={:?} weights={:?}",
                    b.items(),
                    b.weights()
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn batched_straw2_matches_scalar_through_churn(
            weights in proptest::collection::vec(0u32..=2 * WEIGHT_ONE, 1..MAX_ITEMS + 1),
            steps in proptest::collection::vec(churn_step(), 0..10),
            xs in proptest::collection::vec(any::<u32>(), 4..8),
        ) {
            let items: Vec<i32> = (0..weights.len() as i32).collect();
            let mut b = Bucket::new(-1, BucketAlg::Straw2, 1, items, weights);
            check_walks_agree(&b, &xs);
            for step in steps {
                match step {
                    Churn::Reweight { slot, weight } => {
                        let item = b.items()[slot % b.items().len()];
                        prop_assert!(b.reweight_item(item, weight).is_some());
                    }
                    Churn::RemoveAdd { slot, weight } => {
                        // Never empty the bucket: a one-item bucket keeps
                        // its member and only the weight changes.
                        let item = b.items()[slot % b.items().len()];
                        if b.items().len() > 1 {
                            prop_assert!(b.remove_item(item).is_some());
                            b.add_item(item, weight);
                        } else {
                            prop_assert!(b.reweight_item(item, weight).is_some());
                        }
                    }
                }
                check_walks_agree(&b, &xs);
            }
        }

        /// All weights zero: `select` bails on zero total weight, and the
        /// scalar walk skips every item — both must answer `None` for every
        /// draw, before and after the weights come back.
        #[test]
        fn zero_weight_bucket_agrees(
            n in 1usize..=MAX_ITEMS,
            x in any::<u32>(),
            revive in 1u32..=WEIGHT_ONE,
        ) {
            let items: Vec<i32> = (0..n as i32).collect();
            let mut b = Bucket::new(-1, BucketAlg::Straw2, 1, items, vec![0; n]);
            for r in 0..4 {
                prop_assert_eq!(b.select(x, r), None);
                prop_assert_eq!(b.select_straw2_scalar(x, r), None);
            }
            prop_assert!(b.reweight_item(0, revive).is_some());
            for r in 0..4 {
                prop_assert_eq!(b.select(x, r), Some(0));
                prop_assert_eq!(b.select(x, r), b.select_straw2_scalar(x, r));
            }
        }
    }
}

//! Histogram edge cases and merge/percentile properties.
//!
//! The stage tracer leans on two behaviours the unit tests did not
//! pin: merging (per-stage histograms combined across runs) and
//! percentile readout at bucket boundaries.  These tests cover the
//! degenerate shapes — empty merges, all mass in one bucket, samples
//! straddling a bucket edge — plus a property test that merging two
//! histograms is indistinguishable from recording the concatenated
//! sample stream.

use deliba_sim::{Histogram, SimDuration};
use proptest::prelude::*;

fn filled(samples: &[u64]) -> Histogram {
    let mut h = Histogram::new();
    for &s in samples {
        h.record(SimDuration::from_nanos(s));
    }
    h
}

#[test]
fn merging_empties_is_identity() {
    let mut empty = Histogram::new();
    empty.merge(&Histogram::new());
    assert_eq!(empty, Histogram::new());
    assert_eq!(empty.count(), 0);
    assert_eq!(empty.mean_ns(), 0.0);
    assert_eq!(empty.quantile_ns(0.99), 0);

    // Empty into full: no change.  Full into empty: equals the full one.
    let full = filled(&[10, 20, 30]);
    let mut a = full.clone();
    a.merge(&Histogram::new());
    assert_eq!(a, full);
    let mut b = Histogram::new();
    b.merge(&full);
    assert_eq!(b, full);
}

#[test]
fn single_bucket_saturation() {
    // All mass on one log-segment bucket: every quantile answers with
    // that bucket's representative value, and the relative error of the
    // representative is bounded by the 1/32 sub-bucket width.
    let v = 1_000_000u64; // well past the linear region
    let h = filled(&vec![v; 1000]);
    assert_eq!(
        h.quantile(0.0),
        v as f64,
        "interpolation clamps to the exact min"
    );
    assert_eq!(
        h.quantile(1.0),
        v as f64,
        "interpolation clamps to the exact max"
    );
    let q_low = h.quantile_ns(0.01);
    let q_hi = h.quantile_ns(1.0);
    assert_eq!(q_low, q_hi, "one bucket ⇒ one answer at every quantile");
    let err = (q_low as f64 - v as f64).abs() / v as f64;
    assert!(err <= 1.0 / 32.0, "bucket error {err} exceeds 1/32");

    // The extreme value clamps into the last bucket instead of
    // panicking, and exact stats still use the true value.
    let top = filled(&[u64::MAX]);
    assert_eq!(top.quantile(1.0), u64::MAX as f64);
    assert_eq!(top.count(), 1);
    assert!(top.quantile_ns(0.5) > 0);
}

#[test]
fn percentiles_across_buckets() {
    // 90 small + 10 large samples: p50 must answer from the small
    // cluster, p99 from the large one, with log-bucket accuracy.
    let mut samples = vec![100u64; 90];
    samples.extend(vec![1_000_000u64; 10]);
    let h = filled(&samples);
    let p50 = h.quantile_ns(0.50) as f64;
    let p99 = h.quantile_ns(0.99) as f64;
    assert!((p50 - 100.0).abs() / 100.0 <= 1.0 / 32.0, "p50 {p50}");
    assert!((p99 - 1_000_000.0).abs() / 1_000_000.0 <= 1.0 / 32.0, "p99 {p99}");
    // Exactly at the cluster boundary: 90 of 100 samples are small, so
    // q = 0.90 still lands on the small cluster's bucket.
    let p90 = h.quantile_ns(0.90) as f64;
    assert!((p90 - 100.0).abs() / 100.0 <= 1.0 / 32.0, "p90 {p90}");
    // Quantiles are monotone in q.
    let mut prev = 0;
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        let v = h.quantile_ns(q);
        assert!(v >= prev, "quantile must not decrease ({q}: {v} < {prev})");
        prev = v;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// merge(record(a), record(b)) behaves exactly like record(a ++ b).
    #[test]
    fn merge_equals_concatenated_recording(
        a in proptest::collection::vec(0u64..10_000_000, 0..200),
        b in proptest::collection::vec(0u64..10_000_000, 0..200),
    ) {
        let mut merged = filled(&a);
        merged.merge(&filled(&b));
        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        let direct = filled(&concat);
        prop_assert_eq!(&merged, &direct);
        // And the derived statistics agree on every readout.
        prop_assert_eq!(merged.count(), direct.count());
        prop_assert_eq!(merged.mean_ns(), direct.mean_ns());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(merged.quantile_ns(q), direct.quantile_ns(q));
            prop_assert_eq!(merged.quantile(q), direct.quantile(q));
        }
    }
}

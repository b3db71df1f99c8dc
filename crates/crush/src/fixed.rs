//! Integer fixed-point logarithms for the Straw2 bucket.
//!
//! Straw2 draws, for each item, `ln(u / 2^16) / weight` where `u` is a
//! 16-bit hash, and selects the maximum.  Ceph computes the logarithm in
//! pure integer arithmetic (`crush_ln`) so that every client and every
//! OSD — and, in DeLiBA-K, the FPGA RTL — agree bit-for-bit on placement.
//! We reproduce that property with an integer base-2 logarithm computed by
//! the classic iterated-squaring method, returning Q24 fixed point.

/// ln(2) in Q24 fixed point: round(ln 2 · 2^24).
pub(crate) const LN2_Q24: i64 = 11_629_080;

/// Number of fractional bits produced by [`log2_q24`].
pub(crate) const FRAC_BITS: u32 = 24;

/// Fixed-point `log2(x)` for integer `x ≥ 1`, in Q24.
///
/// Uses iterated squaring on a Q32 mantissa: after normalizing
/// `x = 2^e · m` with `m ∈ [1, 2)`, each squaring of `m` extracts one
/// fractional bit of `log2 m`.  Entirely integer, hence
/// platform-independent.
pub(crate) fn log2_q24(x: u64) -> i64 {
    assert!(x >= 1, "log2 of zero");
    let e = 63 - x.leading_zeros() as i64; // integer part
    // Normalize mantissa to Q32 in [1·2^32, 2·2^32).
    let mut m: u64 = if e >= 32 {
        x >> (e - 32)
    } else {
        x << (32 - e)
    };
    let mut frac: i64 = 0;
    for _ in 0..FRAC_BITS {
        // Square the mantissa: (m/2^32)^2 in Q64, renormalized to Q32.
        let sq = ((m as u128) * (m as u128)) >> 32; // Q32 again, in [1,4)
        frac <<= 1;
        if sq >= (2u128 << 32) {
            frac |= 1;
            m = (sq >> 1) as u64;
        } else {
            m = sq as u64;
        }
    }
    (e << FRAC_BITS) | frac
}

/// Fixed-point natural logarithm of `x / 2^16`, in Q24 (always ≤ 0 for
/// `x ≤ 2^16`).  This is the quantity Straw2 divides by the item weight.
pub(crate) fn ln_frac16_q24(x: u64) -> i64 {
    debug_assert!((1..=1 << 16).contains(&x));
    let log2 = log2_q24(x) - ((16i64) << FRAC_BITS); // log2(x/2^16) ≤ 0
    // ln = log2 · ln2;  Q24 · Q24 → shift back by 24.
    ((log2 as i128 * LN2_Q24 as i128) >> FRAC_BITS) as i64
}

/// The full [`ln_frac16_q24`] domain, tabulated: `LN_TABLE[x] ==
/// ln_frac16_q24(x)` for `x ∈ 1..=2^16` (index 0 is unused padding).
///
/// The iterated-squaring logarithm costs ~24 sequential 128-bit
/// multiplies per call and a Straw2 walk evaluates it once per bucket
/// item per replica per retry — profiling puts it at over a quarter of
/// the closed-loop wall clock.  The domain is only 2^16 values, so the
/// batched walk reads this 512 KiB table instead.  Entries are produced
/// by the function itself, so the amortized path is bit-identical by
/// construction (pinned by `ln_table_matches_function`).
pub(crate) fn ln_table() -> &'static [i64; 65_537] {
    static TABLE: std::sync::OnceLock<Box<[i64; 65_537]>> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = vec![0i64; 65_537].into_boxed_slice();
        for x in 1..=65_536u64 {
            t[x as usize] = ln_frac16_q24(x);
        }
        t.try_into().expect("exact length")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q24_to_f64(v: i64) -> f64 {
        v as f64 / (1u64 << FRAC_BITS) as f64
    }

    #[test]
    fn log2_exact_powers() {
        for e in 0..60u32 {
            assert_eq!(log2_q24(1u64 << e), (e as i64) << FRAC_BITS);
        }
    }

    #[test]
    fn log2_matches_float() {
        for &x in &[3u64, 5, 7, 10, 100, 1000, 65_535, 123_456_789] {
            let got = q24_to_f64(log2_q24(x));
            let want = (x as f64).log2();
            assert!(
                (got - want).abs() < 1e-6,
                "log2({x}) got {got} want {want}"
            );
        }
    }

    #[test]
    fn ln_frac_matches_float() {
        for &x in &[1u64, 2, 100, 32_768, 65_535, 65_536] {
            let got = q24_to_f64(ln_frac16_q24(x));
            let want = (x as f64 / 65_536.0).ln();
            assert!(
                (got - want).abs() < 1e-5,
                "ln({x}/2^16) got {got} want {want}"
            );
        }
    }

    #[test]
    fn ln_frac_is_monotonic() {
        let mut last = i64::MIN;
        for x in (1..=65_536u64).step_by(97) {
            let v = ln_frac16_q24(x);
            assert!(v >= last, "monotonicity broke at {x}");
            last = v;
        }
    }

    #[test]
    fn ln_frac_sign() {
        assert!(ln_frac16_q24(1) < 0);
        assert_eq!(ln_frac16_q24(65_536), 0);
    }

    #[test]
    #[should_panic(expected = "log2 of zero")]
    fn log2_zero_panics() {
        log2_q24(0);
    }

    #[test]
    fn ln_table_matches_function() {
        let t = ln_table();
        for x in 1..=65_536u64 {
            assert_eq!(t[x as usize], ln_frac16_q24(x), "table diverges at {x}");
        }
    }
}

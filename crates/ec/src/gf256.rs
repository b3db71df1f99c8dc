//! GF(2^8) arithmetic with the primitive polynomial
//! x^8 + x^4 + x^3 + x^2 + 1 (0x11D), generator α = 2.
//!
//! Multiplication goes through log/exp tables — the same structure the
//! paper's RTL encoder implements as BRAM lookups — built once at first
//! use and shared process-wide.  The slice multiply at the heart of the
//! codec, `mul_rows` (and its one-row form `mul_slice_xor`), has
//! two SIMD kernels, chosen at run time, fastest first:
//!
//! * GFNI, where the CPU has GFNI and AVX2: multiplying by a constant
//!   is linear over GF(2), so one `vgf2p8affineqb` applies the
//!   constant's 8×8 bit matrix to 32 bytes at once;
//! * split nibbles (Plank, Greenan & Miller, FAST 2013), where it has
//!   AVX2: each byte splits into two 4-bit nibbles, each nibble indexes
//!   a 16-entry per-constant product table with one byte shuffle, and
//!   the two products XOR together.
//!
//! The log/exp loop covers other hosts and the last `len % 32` bytes.

use std::sync::OnceLock;

/// The field polynomial (reduced modulo x^8).
pub(crate) const POLY: u16 = 0x11D;

/// Order of the multiplicative group.
pub(crate) const GROUP_ORDER: usize = 255;

struct Tables {
    exp: [u8; 512], // doubled so exp[log a + log b] needs no modulo
    log: [u8; 256],
    /// Split-nibble products: `nib[c][x] = c·x` and `nib[c][16 + x] =
    /// c·(x << 4)` for every nibble `x < 16`.
    nib: [[u8; 32]; 256],
    /// GFNI bit matrices: `affine[c]` is the 8×8 matrix over GF(2) of
    /// x ↦ c·x, laid out as `vgf2p8affineqb` reads it — byte `7 − i`
    /// is the row of output bit `i`, whose bit `j` is bit `i` of
    /// c·2^j.
    affine: [u64; 256],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut exp = [0u8; 512];
        let mut log = [0u8; 256];
        let mut x: u16 = 1;
        for (i, e) in exp.iter_mut().enumerate().take(GROUP_ORDER) {
            *e = x as u8;
            log[x as usize] = i as u8;
            x <<= 1;
            if x & 0x100 != 0 {
                x ^= POLY;
            }
        }
        for i in GROUP_ORDER..512 {
            exp[i] = exp[i - GROUP_ORDER];
        }
        let mul = |a: usize, b: usize| match (a, b) {
            (0, _) | (_, 0) => 0,
            _ => exp[log[a] as usize + log[b] as usize],
        };
        let mut nib = [[0u8; 32]; 256];
        for (c, row) in nib.iter_mut().enumerate() {
            for x in 0..16 {
                row[x] = mul(c, x);
                row[16 + x] = mul(c, x << 4);
            }
        }
        let mut affine = [0u64; 256];
        for (c, m) in affine.iter_mut().enumerate() {
            for i in 0..8 {
                let row = (0..8).fold(0u64, |row, j| {
                    row | (((mul(c, 1 << j) >> i) & 1) as u64) << j
                });
                *m |= row << (8 * (7 - i));
            }
        }
        Tables {
            exp,
            log,
            nib,
            affine,
        }
    })
}

/// An element of GF(2^8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub(crate) struct Gf256(pub u8);

#[allow(clippy::should_implement_trait)] // explicit names make the GF(2^8)
// semantics visible at call sites (add == xor, etc.); operator overloads
// would hide them.
impl Gf256 {
    /// Additive identity.
    pub(crate) const ZERO: Gf256 = Gf256(0);
    /// Multiplicative identity.
    pub(crate) const ONE: Gf256 = Gf256(1);

    /// Addition = XOR (characteristic 2).
    #[inline]
    pub(crate) fn add(self, other: Gf256) -> Gf256 {
        Gf256(self.0 ^ other.0)
    }

    /// Field multiplication via log/exp tables.
    #[inline]
    pub(crate) fn mul(self, other: Gf256) -> Gf256 {
        if self.0 == 0 || other.0 == 0 {
            return Gf256::ZERO;
        }
        let t = tables();
        Gf256(t.exp[t.log[self.0 as usize] as usize + t.log[other.0 as usize] as usize])
    }

    /// Multiplicative inverse.
    ///
    /// # Panics
    /// Panics on zero.
    #[inline]
    pub(crate) fn inv(self) -> Gf256 {
        assert_ne!(self.0, 0, "inverse of zero in GF(256)");
        let t = tables();
        Gf256(t.exp[GROUP_ORDER - t.log[self.0 as usize] as usize])
    }

    /// α^n — the `n`-th power of the generator.
    pub(crate) fn alpha_pow(n: u32) -> Gf256 {
        let t = tables();
        Gf256(t.exp[(n as usize) % GROUP_ORDER])
    }
}

/// Multiply a byte slice by a scalar, XOR-accumulating into `dst`:
/// `dst[i] ^= c · src[i]`.
///
/// The RTL implementation streams 32 bytes/cycle through the equivalent
/// multiplier array (256-bit datapath, §IV-A); the SIMD kernels do the
/// same 32 bytes per step.
pub(crate) fn mul_slice_xor(c: Gf256, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "slice length mismatch");
    mul_rows(Kernel::detect(), &[c], &[src], dst, true);
}

/// The slice-multiply kernels, fastest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Kernel {
    /// GFNI: one `vgf2p8affineqb` multiplies 32 bytes by a constant's
    /// 8×8 bit matrix (x86-64 with GFNI and AVX2).
    Gfni,
    /// Split nibbles: two AVX2 byte shuffles per 32 bytes look both
    /// nibbles up in the constant's 16-entry product tables.
    Nibble,
    /// Log/exp tables, one byte at a time: any CPU, and every tail.
    Scalar,
}

impl Kernel {
    /// The fastest kernel this CPU runs.
    pub(crate) fn detect() -> Kernel {
        [Kernel::Gfni, Kernel::Nibble]
            .into_iter()
            .find(|k| k.available())
            .unwrap_or(Kernel::Scalar)
    }

    /// Does this CPU run the kernel?
    pub(crate) fn available(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        let (avx2, gfni) = (
            std::arch::is_x86_feature_detected!("avx2"),
            std::arch::is_x86_feature_detected!("gfni"),
        );
        #[cfg(not(target_arch = "x86_64"))]
        let (avx2, gfni) = (false, false);
        match self {
            Kernel::Gfni => avx2 && gfni,
            Kernel::Nibble => avx2,
            Kernel::Scalar => true,
        }
    }
}

/// Most source slices one [`mul_rows`] pass reads.
pub(crate) const MAX_SRCS: usize = 8;

/// Most output rows one [`mul_rows`] pass keeps in registers.
pub(crate) const MAX_ROWS: usize = 4;

/// Fused multiply-accumulate of several rows: with `n = srcs.len()`
/// sources of length `len` and `out` holding `rows` rows of `len` bytes
/// back to back, row `r` becomes `Σ_c coefs[r·n + c] · srcs[c]`, XORed
/// onto its old bytes when `accumulate` is set and replacing them
/// otherwise.
///
/// The SIMD kernels read each source once per 32-byte column and keep
/// every row's sum in a register, so no row is read back until the
/// next pass; the log/exp loop covers the last `len % 32` bytes.
///
/// # Panics
/// Unless `1 ≤ n ≤ MAX_SRCS`, `coefs` holds `rows · n` constants with
/// `1 ≤ rows ≤ MAX_ROWS`, the sources share one length, `out` holds
/// `rows` rows of it, and this CPU runs `kernel`.
pub(crate) fn mul_rows(
    kernel: Kernel,
    coefs: &[Gf256],
    srcs: &[&[u8]],
    out: &mut [u8],
    accumulate: bool,
) {
    let n = srcs.len();
    assert!((1..=MAX_SRCS).contains(&n), "{n} sources per pass");
    let rows = coefs.len() / n;
    assert!(
        coefs.len() == rows * n && (1..=MAX_ROWS).contains(&rows),
        "{} constants for {n} sources",
        coefs.len()
    );
    let len = srcs[0].len();
    assert!(
        srcs.iter().all(|s| s.len() == len),
        "sources differ in length"
    );
    assert_eq!(
        out.len(),
        rows * len,
        "output is not {rows} rows of {len} bytes"
    );
    assert!(kernel.available(), "{kernel:?} kernel on a CPU without it");
    if len == 0 {
        return;
    }
    let body = match kernel {
        Kernel::Scalar => 0,
        Kernel::Gfni | Kernel::Nibble => len - len % 32,
    };
    #[cfg(target_arch = "x86_64")]
    if body > 0 {
        match rows {
            1 => simd_rows::<1>(kernel, coefs, srcs, out, accumulate),
            2 => simd_rows::<2>(kernel, coefs, srcs, out, accumulate),
            3 => simd_rows::<3>(kernel, coefs, srcs, out, accumulate),
            _ => simd_rows::<4>(kernel, coefs, srcs, out, accumulate),
        }
    }
    for (row, coefs) in out.chunks_exact_mut(len).zip(coefs.chunks_exact(n)) {
        let tail = &mut row[body..];
        if !accumulate {
            tail.fill(0);
        }
        for (&c, src) in coefs.iter().zip(srcs) {
            mul_slice_xor_scalar(c, &src[body..], tail);
        }
    }
}

/// The log/exp form of [`mul_slice_xor`], for any length and any CPU.
fn mul_slice_xor_scalar(c: Gf256, src: &[u8], dst: &mut [u8]) {
    if c.0 == 0 {
        return;
    }
    if c.0 == 1 {
        for (d, s) in dst.iter_mut().zip(src) {
            *d ^= s;
        }
        return;
    }
    let t = tables();
    let log_c = t.log[c.0 as usize] as usize;
    for (d, &s) in dst.iter_mut().zip(src) {
        if s != 0 {
            *d ^= t.exp[log_c + t.log[s as usize] as usize];
        }
    }
}

/// Run a SIMD kernel of [`mul_rows`], already checked, on every whole
/// 32-byte column.
#[cfg(target_arch = "x86_64")]
fn simd_rows<const R: usize>(
    kernel: Kernel,
    coefs: &[Gf256],
    srcs: &[&[u8]],
    out: &mut [u8],
    accumulate: bool,
) {
    let len = srcs[0].len();
    let mut rows = out.chunks_exact_mut(len);
    let rows: [&mut [u8]; R] = std::array::from_fn(|_| rows.next().expect("R rows"));
    match kernel {
        // SAFETY: `mul_rows` asserted that the CPU runs GFNI and AVX2.
        Kernel::Gfni => unsafe { rows_gfni(coefs, srcs, rows, accumulate) },
        // SAFETY: `mul_rows` asserted that the CPU runs AVX2.
        Kernel::Nibble => unsafe { rows_nibble(coefs, srcs, rows, accumulate) },
        Kernel::Scalar => unreachable!("the scalar kernel has no SIMD body"),
    }
}

/// Unaligned 32-byte load.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn load32(b: &[u8; 32]) -> std::arch::x86_64::__m256i {
    // SAFETY: `b` is 32 readable bytes, and the unaligned load has no
    // alignment requirement.
    unsafe { std::arch::x86_64::_mm256_loadu_si256(b.as_ptr().cast()) }
}

/// Unaligned 32-byte store.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
fn store32(b: &mut [u8; 32], v: std::arch::x86_64::__m256i) {
    // SAFETY: `b` is 32 writable bytes, and the unaligned store has no
    // alignment requirement.
    unsafe { std::arch::x86_64::_mm256_storeu_si256(b.as_mut_ptr().cast(), v) }
}

/// The GFNI kernel of [`mul_rows`]: each product is one
/// `vgf2p8affineqb` of the source bytes by the constant's bit matrix
/// from [`Tables::affine`].  Bytes past the last whole column are left
/// alone.
///
/// # Safety
/// The CPU must support GFNI and AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "gfni,avx2")]
unsafe fn rows_gfni<const R: usize>(
    coefs: &[Gf256],
    srcs: &[&[u8]],
    rows: [&mut [u8]; R],
    accumulate: bool,
) {
    use std::arch::x86_64::*;
    let n = srcs.len();
    let affine = &tables().affine;
    let mut mat = [[_mm256_setzero_si256(); MAX_SRCS]; R];
    for (r, row) in mat.iter_mut().enumerate() {
        for (c, m) in row.iter_mut().take(n).enumerate() {
            *m = _mm256_set1_epi64x(affine[coefs[r * n + c].0 as usize] as i64);
        }
    }
    let cols = srcs[0].len() / 32;
    let srcs: [&[[u8; 32]]; MAX_SRCS] =
        std::array::from_fn(|c| srcs.get(c).map_or(&[][..], |s| &s.as_chunks().0[..cols]));
    let mut rows = rows.map(|row| &mut row.as_chunks_mut().0[..cols]);
    for col in 0..cols {
        let mut acc = [_mm256_setzero_si256(); R];
        if accumulate {
            for (a, row) in acc.iter_mut().zip(&rows) {
                *a = load32(&row[col]);
            }
        }
        for (c, src) in srcs.iter().take(n).enumerate() {
            let x = load32(&src[col]);
            for (a, m) in acc.iter_mut().zip(&mat) {
                *a = _mm256_xor_si256(*a, _mm256_gf2p8affine_epi64_epi8::<0>(x, m[c]));
            }
        }
        for (a, row) in acc.iter().zip(rows.iter_mut()) {
            store32(&mut row[col], *a);
        }
    }
}

/// The split-nibble kernel of [`mul_rows`]: each product is
/// `shuffle(lo, x & 0xF) ^ shuffle(hi, x >> 4)`, where `lo` and `hi`
/// are the constant's two 16-entry tables from [`Tables::nib`].  Bytes
/// past the last whole column are left alone.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rows_nibble<const R: usize>(
    coefs: &[Gf256],
    srcs: &[&[u8]],
    rows: [&mut [u8]; R],
    accumulate: bool,
) {
    use std::arch::x86_64::*;
    let n = srcs.len();
    let nib = &tables().nib;
    // vpshufb looks up within each 128-bit lane, so each lane needs the
    // whole 16-entry table.
    let mut lo = [[_mm256_setzero_si256(); MAX_SRCS]; R];
    let mut hi = lo;
    for (r, (lo, hi)) in lo.iter_mut().zip(&mut hi).enumerate() {
        for (c, (lo, hi)) in lo.iter_mut().zip(hi).take(n).enumerate() {
            let both = load32(&nib[coefs[r * n + c].0 as usize]);
            *lo = _mm256_permute2x128_si256::<0x00>(both, both);
            *hi = _mm256_permute2x128_si256::<0x11>(both, both);
        }
    }
    let mask = _mm256_set1_epi8(0x0F);
    let cols = srcs[0].len() / 32;
    let srcs: [&[[u8; 32]]; MAX_SRCS] =
        std::array::from_fn(|c| srcs.get(c).map_or(&[][..], |s| &s.as_chunks().0[..cols]));
    let mut rows = rows.map(|row| &mut row.as_chunks_mut().0[..cols]);
    for col in 0..cols {
        let mut acc = [_mm256_setzero_si256(); R];
        if accumulate {
            for (a, row) in acc.iter_mut().zip(&rows) {
                *a = load32(&row[col]);
            }
        }
        for (c, src) in srcs.iter().take(n).enumerate() {
            let x = load32(&src[col]);
            let x_lo = _mm256_and_si256(x, mask);
            let x_hi = _mm256_and_si256(_mm256_srli_epi64::<4>(x), mask);
            for ((a, lo), hi) in acc.iter_mut().zip(&lo).zip(&hi) {
                let p = _mm256_xor_si256(
                    _mm256_shuffle_epi8(lo[c], x_lo),
                    _mm256_shuffle_epi8(hi[c], x_hi),
                );
                *a = _mm256_xor_si256(*a, p);
            }
        }
        for (a, row) in acc.iter().zip(rows.iter_mut()) {
            store32(&mut row[col], *a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_xor_and_self_inverse() {
        let a = Gf256(0x53);
        let b = Gf256(0xCA);
        assert_eq!(a.add(b).0, 0x53 ^ 0xCA);
        assert_eq!(a.add(a), Gf256::ZERO);
    }

    #[test]
    fn mul_identities() {
        for v in 0..=255u8 {
            let x = Gf256(v);
            assert_eq!(x.mul(Gf256::ONE), x);
            assert_eq!(x.mul(Gf256::ZERO), Gf256::ZERO);
        }
    }

    #[test]
    fn known_product() {
        // 2 · 0x80 = 0x100 ≡ 0x100 ⊕ 0x11D = 0x1D in this field —
        // a hand-checkable reduction by the 0x11D polynomial.
        assert_eq!(Gf256(0x02).mul(Gf256(0x80)), Gf256(0x1D));
        // And α^8 reduces the same way.
        assert_eq!(Gf256::alpha_pow(8), Gf256(0x1D));
    }

    #[test]
    fn mul_commutative_associative_distributive() {
        // Spot-check field axioms over a pseudo-random sample.
        let mut x: u32 = 0x12345678;
        let mut next = || {
            x = x.wrapping_mul(1664525).wrapping_add(1013904223);
            Gf256((x >> 24) as u8)
        };
        for _ in 0..2_000 {
            let (a, b, c) = (next(), next(), next());
            assert_eq!(a.mul(b), b.mul(a));
            assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
            assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
        }
    }

    #[test]
    fn every_nonzero_element_has_inverse() {
        for v in 1..=255u8 {
            let x = Gf256(v);
            assert_eq!(x.mul(x.inv()), Gf256::ONE, "inv({v})");
        }
    }

    #[test]
    #[should_panic(expected = "inverse of zero")]
    fn zero_inverse_panics() {
        Gf256::ZERO.inv();
    }

    #[test]
    fn alpha_generates_group() {
        let mut seen = [false; 256];
        for n in 0..GROUP_ORDER as u32 {
            seen[Gf256::alpha_pow(n).0 as usize] = true;
        }
        let count = seen.iter().filter(|&&s| s).count();
        assert_eq!(count, 255, "α must generate all nonzero elements");
        assert!(!seen[0]);
    }

    #[test]
    fn mul_slice_xor_matches_scalar() {
        let src: Vec<u8> = (0..=255).collect();
        let mut dst = vec![0u8; 256];
        let c = Gf256(0x1D);
        mul_slice_xor(c, &src, &mut dst);
        for (i, &d) in dst.iter().enumerate() {
            assert_eq!(d, c.mul(Gf256(i as u8)).0);
        }
        // XOR-accumulate again → zero.
        let mut dst2 = dst.clone();
        mul_slice_xor(c, &src, &mut dst2);
        assert!(dst2.iter().all(|&b| b == 0));
    }

    /// Run `kernel` against the per-byte `Gf256::mul` oracle for every
    /// constant, lengths around the 32-byte block edge, and unaligned
    /// source and destination starts, accumulating into a non-zero `dst`.
    fn check_kernel(kernel: impl Fn(Gf256, &[u8], &mut [u8])) {
        const LENS: [usize; 11] = [0, 1, 31, 32, 33, 63, 64, 65, 4095, 4096, 4097];
        const MAX: usize = 4097 + 3;
        let src_buf: Vec<u8> = (0..MAX).map(|i| (i * 167 + 13) as u8).collect();
        let dst_buf: Vec<u8> = (0..MAX).map(|i| (i * 89 + 101) as u8).collect();
        let mut dst = vec![0u8; MAX];
        for c in (0..=255u8).map(Gf256) {
            let product: Vec<u8> = (0..=255u8).map(|x| c.mul(Gf256(x)).0).collect();
            for len in LENS {
                for s_off in 0..4 {
                    for d_off in 0..4 {
                        let src = &src_buf[s_off..s_off + len];
                        let init = &dst_buf[d_off..d_off + len];
                        let out = &mut dst[d_off..d_off + len];
                        out.copy_from_slice(init);
                        kernel(c, src, out);
                        for i in 0..len {
                            assert_eq!(
                                out[i],
                                init[i] ^ product[src[i] as usize],
                                "c={:#04x} len={len} src+{s_off} dst+{d_off} byte {i}",
                                c.0
                            );
                        }
                    }
                }
            }
        }
    }

    /// [`check_kernel`] on `kernel`'s one-row form, with the scalar
    /// tail; a kernel this CPU lacks is skipped with a note.
    fn check_named(kernel: Kernel) {
        if !kernel.available() {
            eprintln!("note: this CPU lacks the {kernel:?} kernel, so its test is skipped");
            return;
        }
        check_kernel(|c, src, dst| mul_rows(kernel, &[c], &[src], dst, true));
    }

    #[test]
    fn scalar_kernel_matches_oracle() {
        check_kernel(mul_slice_xor_scalar);
        check_named(Kernel::Scalar);
    }

    #[test]
    fn nibble_kernel_matches_oracle() {
        check_named(Kernel::Nibble);
    }

    #[test]
    fn gfni_kernel_matches_oracle() {
        check_named(Kernel::Gfni);
    }

    /// Whichever kernel this CPU picks.
    #[test]
    fn dispatched_kernel_matches_oracle() {
        check_kernel(mul_slice_xor);
    }
}

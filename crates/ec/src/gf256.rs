//! GF(2^8) arithmetic with the primitive polynomial
//! x^8 + x^4 + x^3 + x^2 + 1 (0x11D), generator α = 2.
//!
//! Multiplication goes through log/exp tables — the same structure the
//! paper's RTL encoder implements as BRAM lookups — built once at first
//! use and shared process-wide.  The slice multiply at the heart of the
//! encoder, [`mul_slice_xor`], also has a SIMD split-nibble kernel
//! (Plank, Greenan & Miller, FAST 2013): each byte splits into two 4-bit
//! nibbles, each nibble indexes a 16-entry per-constant product table
//! with one AVX2 byte shuffle, and the two products XOR together.  It is
//! chosen at run time where the CPU has AVX2; the log/exp loop covers
//! other hosts and the last `len % 32` bytes.

use std::sync::OnceLock;

/// The field polynomial (reduced modulo x^8).
pub const POLY: u16 = 0x11D;

/// Order of the multiplicative group.
pub const GROUP_ORDER: usize = 255;

struct Tables {
    exp: [u8; 512], // doubled so exp[log a + log b] needs no modulo
    log: [u8; 256],
    /// Split-nibble products: `nib[c][x] = c·x` and `nib[c][16 + x] =
    /// c·(x << 4)` for every nibble `x < 16`.
    nib: [[u8; 32]; 256],
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
        Tables { exp, log, nib }
    })
}

/// An element of GF(2^8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Gf256(pub u8);

#[allow(clippy::should_implement_trait)] // explicit names make the GF(2^8)
// semantics visible at call sites (add == xor, etc.); operator overloads
// would hide them.
impl Gf256 {
    /// Additive identity.
    pub const ZERO: Gf256 = Gf256(0);
    /// Multiplicative identity.
    pub const ONE: Gf256 = Gf256(1);
    /// The generator α = 2.
    pub const ALPHA: Gf256 = Gf256(2);

    /// Addition = XOR (characteristic 2).
    #[inline]
    pub fn add(self, other: Gf256) -> Gf256 {
        Gf256(self.0 ^ other.0)
    }

    /// Subtraction is identical to addition.
    #[inline]
    pub fn sub(self, other: Gf256) -> Gf256 {
        self.add(other)
    }

    /// Field multiplication via log/exp tables.
    #[inline]
    pub fn mul(self, other: Gf256) -> Gf256 {
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
    pub fn inv(self) -> Gf256 {
        assert_ne!(self.0, 0, "inverse of zero in GF(256)");
        let t = tables();
        Gf256(t.exp[GROUP_ORDER - t.log[self.0 as usize] as usize])
    }

    /// Division: `self / other`.
    #[inline]
    pub fn div(self, other: Gf256) -> Gf256 {
        self.mul(other.inv())
    }

    /// `self` raised to the `n`-th power.
    pub fn pow(self, mut n: u32) -> Gf256 {
        let mut base = self;
        let mut acc = Gf256::ONE;
        while n > 0 {
            if n & 1 == 1 {
                acc = acc.mul(base);
            }
            base = base.mul(base);
            n >>= 1;
        }
        acc
    }

    /// α^n — the `n`-th power of the generator.
    pub fn alpha_pow(n: u32) -> Gf256 {
        let t = tables();
        Gf256(t.exp[(n as usize) % GROUP_ORDER])
    }
}

/// Multiply a byte slice by a scalar, XOR-accumulating into `dst`:
/// `dst[i] ^= c · src[i]`.
///
/// This is the inner loop of the encoder; the RTL implementation streams
/// 32 bytes/cycle through the equivalent multiplier array (256-bit
/// datapath, §IV-A).  On AVX2 hosts the split-nibble kernel does the
/// same 32 bytes per step.
pub fn mul_slice_xor(c: Gf256, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "slice length mismatch");
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        let body = src.len() - src.len() % 32;
        // SAFETY: the CPU supports AVX2, checked just above.
        unsafe { mul_slice_xor_avx2(c, &src[..body], &mut dst[..body]) };
        mul_slice_xor_scalar(c, &src[body..], &mut dst[body..]);
        return;
    }
    mul_slice_xor_scalar(c, src, dst);
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

/// The split-nibble form of [`mul_slice_xor`] over whole 32-byte blocks:
/// `dst ^= shuffle(lo, s & 0xF) ^ shuffle(hi, s >> 4)`, where `lo` and
/// `hi` are `c`'s two 16-entry nibble tables.  Bytes past the last whole
/// block are left alone.
///
/// # Safety
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mul_slice_xor_avx2(c: Gf256, src: &[u8], dst: &mut [u8]) {
    use std::arch::x86_64::*;
    let load = |b: &[u8]| -> __m256i {
        debug_assert_eq!(b.len(), 32);
        // SAFETY: `b` holds 32 readable bytes, and the unaligned load
        // has no alignment requirement.
        unsafe { _mm256_loadu_si256(b.as_ptr().cast()) }
    };
    let both = load(&tables().nib[c.0 as usize]);
    // vpshufb looks up within each 128-bit lane, so each lane needs the
    // whole 16-entry table.
    let lo = _mm256_permute2x128_si256::<0x00>(both, both);
    let hi = _mm256_permute2x128_si256::<0x11>(both, both);
    let mask = _mm256_set1_epi8(0x0F);
    for (s, d) in src.chunks_exact(32).zip(dst.chunks_exact_mut(32)) {
        let x = load(s);
        let lo_x = _mm256_shuffle_epi8(lo, _mm256_and_si256(x, mask));
        let hi_x = _mm256_shuffle_epi8(hi, _mm256_and_si256(_mm256_srli_epi64::<4>(x), mask));
        let out = _mm256_xor_si256(load(d), _mm256_xor_si256(lo_x, hi_x));
        // SAFETY: `d` is 32 writable bytes, and the unaligned store has
        // no alignment requirement.
        unsafe { _mm256_storeu_si256(d.as_mut_ptr().cast(), out) };
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
        assert_eq!(a.sub(b), a.add(b));
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
        // And multiplication by α matches alpha_pow chaining.
        assert_eq!(Gf256::ALPHA.pow(8), Gf256(0x1D).mul(Gf256::ONE));
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
    fn pow_matches_repeated_mul() {
        let a = Gf256(7);
        let mut acc = Gf256::ONE;
        for n in 0..20u32 {
            assert_eq!(a.pow(n), acc);
            acc = acc.mul(a);
        }
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

    #[test]
    fn scalar_kernel_matches_oracle() {
        check_kernel(mul_slice_xor_scalar);
    }

    /// The AVX2 kernel plus the scalar tail on AVX2 hosts.
    #[test]
    fn dispatched_kernel_matches_oracle() {
        check_kernel(mul_slice_xor);
    }
}

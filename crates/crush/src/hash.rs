//! rjenkins1 — the hash family used by CRUSH.
//!
//! These are the `crush_hash32_*` functions from the CRUSH paper /
//! Ceph source: Robert Jenkins' 96-bit mix applied to 1–5 32-bit inputs
//! together with a golden-ratio seed.  The FPGA Straw/Straw2 accelerators
//! in the paper implement exactly this mix as combinational stages — the
//! "hash computation" step of the four key operations whose clock cycles
//! Table I counts.

/// Golden ratio constant used as an arbitrary initial value.
const CRUSH_HASH_SEED: u32 = 1315423911;

/// Robert Jenkins' 96-bit mix.
#[inline]
fn mix(mut a: u32, mut b: u32, mut c: u32) -> (u32, u32, u32) {
    a = a.wrapping_sub(b).wrapping_sub(c) ^ (c >> 13);
    b = b.wrapping_sub(c).wrapping_sub(a) ^ (a << 8);
    c = c.wrapping_sub(a).wrapping_sub(b) ^ (b >> 13);
    a = a.wrapping_sub(b).wrapping_sub(c) ^ (c >> 12);
    b = b.wrapping_sub(c).wrapping_sub(a) ^ (a << 16);
    c = c.wrapping_sub(a).wrapping_sub(b) ^ (b >> 5);
    a = a.wrapping_sub(b).wrapping_sub(c) ^ (c >> 3);
    b = b.wrapping_sub(c).wrapping_sub(a) ^ (a << 10);
    c = c.wrapping_sub(a).wrapping_sub(b) ^ (b >> 15);
    (a, b, c)
}

/// Hash two 32-bit inputs.
pub fn hash32_2(a: u32, b: u32) -> u32 {
    let mut hash = CRUSH_HASH_SEED ^ a ^ b;
    let x = 231232u32;
    let y = 1232u32;
    let (a2, b2, mut h) = mix(a, b, hash);
    hash = h;
    let (_, _, h2) = mix(x, a2, hash);
    h = h2;
    let (_, _, h3) = mix(b2, y, h);
    hash = h3;
    hash
}

/// Hash three 32-bit inputs.
pub(crate) fn hash32_3(a: u32, b: u32, c: u32) -> u32 {
    let mut hash = CRUSH_HASH_SEED ^ a ^ b ^ c;
    let x = 231232u32;
    let y = 1232u32;
    let (a2, b2, h) = mix(a, b, hash);
    hash = h;
    let (c2, x2, h2) = mix(c, x, hash);
    hash = h2;
    let (y2, a3, h3) = mix(y, a2, hash);
    hash = h3;
    let (b3, x3, h4) = mix(b2, x2, hash);
    hash = h4;
    let (_, _, h5) = mix(y2, c2, hash);
    let _ = (a3, b3, x3);
    h5
}

/// Hash four 32-bit inputs.
pub(crate) fn hash32_4(a: u32, b: u32, c: u32, d: u32) -> u32 {
    let mut hash = CRUSH_HASH_SEED ^ a ^ b ^ c ^ d;
    let x = 231232u32;
    let y = 1232u32;
    let (a2, b2, h) = mix(a, b, hash);
    hash = h;
    let (c2, d2, h2) = mix(c, d, hash);
    hash = h2;
    let (a3, x2, h3) = mix(a2, x, hash);
    hash = h3;
    let (y2, b3, h4) = mix(y, b2, hash);
    hash = h4;
    let (c3, x3, h5) = mix(c2, x2, hash);
    hash = h5;
    let (y3, d3, h6) = mix(y2, d2, hash);
    let _ = (a3, b3, c3, d3, x3, y3);
    h6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        assert_eq!(hash32_2(1, 2), hash32_2(1, 2));
        assert_eq!(hash32_3(1, 2, 3), hash32_3(1, 2, 3));
        assert_eq!(hash32_4(1, 2, 3, 4), hash32_4(1, 2, 3, 4));
    }

    #[test]
    fn input_sensitivity() {
        assert_ne!(hash32_2(1, 2), hash32_2(2, 1), "argument order matters");
        assert_ne!(hash32_3(1, 2, 3), hash32_3(1, 2, 4));
        assert_ne!(hash32_4(1, 2, 3, 4), hash32_4(0, 2, 3, 4));
    }

    #[test]
    fn arity_separation() {
        // Hashing (a, b, 0) must not collide trivially with hashing (a, b).
        assert_ne!(hash32_2(7, 0), hash32_3(7, 0, 0));
    }

    #[test]
    fn avalanche_rough() {
        // Flipping one input bit should flip roughly half the output bits.
        let mut total = 0u32;
        let n = 256;
        for i in 0..n {
            let h1 = hash32_2(i, 99);
            let h2 = hash32_2(i ^ 1, 99);
            total += (h1 ^ h2).count_ones();
        }
        let avg = total as f64 / n as f64;
        assert!((10.0..22.0).contains(&avg), "avalanche avg {avg}");
    }

    #[test]
    fn low_16_bits_roughly_uniform() {
        // Straw2 uses `hash & 0xffff`; check coarse uniformity over 16
        // buckets of the low 16 bits.
        let mut buckets = [0u32; 16];
        let n = 64_000;
        for x in 0..n {
            let h = hash32_3(x, 12345, 0) & 0xffff;
            buckets[(h >> 12) as usize] += 1;
        }
        let expect = n / 16;
        for (i, &c) in buckets.iter().enumerate() {
            let dev = (c as f64 - expect as f64).abs() / expect as f64;
            assert!(dev < 0.10, "bucket {i}: {c} vs {expect}");
        }
    }
}

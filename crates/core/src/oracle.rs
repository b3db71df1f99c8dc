//! The integrity oracle: write payloads and the read verify.
//!
//! Every write payload is a pure function of one `u64` key.  The oracle
//! records each committed write as an [`Extent`] of its RBD object,
//! keyed by logical address in both pool modes, and verifies a read by
//! regenerating the bytes each overlapped extent should hold from its
//! key and comparing them with the read buffer in the same pass, with
//! zeros in every hole.

use deliba_cluster::{ObjectId, OidMap};
use deliba_sim::{SimRng, SplitMix64};

/// The four xorshift128+ lanes of one payload key, seeded through
/// [`SplitMix64`] (every lane's first state word, then every lane's
/// second).
struct Lanes {
    a: [u64; 4],
    b: [u64; 4],
}

impl Lanes {
    #[inline(always)]
    fn new(key: u64) -> Self {
        let mut seed = SplitMix64::new(key);
        // SplitMix64 maps distinct states to distinct outputs, so a
        // lane's two state words are never both zero, xorshift's fixed
        // point.
        let a = std::array::from_fn(|_| seed.next_u64());
        let b = std::array::from_fn(|_| seed.next_u64());
        Lanes { a, b }
    }

    /// The next 32-byte block: word `j` from lane `j`, each lane then
    /// stepped once, so no dependency chain is longer than one step.
    #[inline(always)]
    fn step(&mut self) -> [u64; 4] {
        let mut words = [0u64; 4];
        for (j, w) in words.iter_mut().enumerate() {
            let (mut x, y) = (self.a[j], self.b[j]);
            *w = x.wrapping_add(y);
            x ^= x << 23;
            self.a[j] = y;
            self.b[j] = x ^ y ^ (x >> 17) ^ (y >> 26);
        }
        words
    }

    /// [`Lanes::step`] as 32 little-endian bytes.
    #[inline(always)]
    fn block(&mut self) -> [u8; 32] {
        let mut block = [0u8; 32];
        for (out, w) in block.chunks_exact_mut(8).zip(self.step()) {
            out.copy_from_slice(&w.to_le_bytes());
        }
        block
    }
}

/// Fill `out` with the payload bytes of `key`: [`Lanes`] blocks, a
/// `< 32`-byte tail cut from one more.
pub(crate) fn fill_payload(key: u64, out: &mut [u8]) {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU runs AVX2, checked just above.
        return unsafe { fill_payload_avx2(key, out) };
    }
    fill_payload_lanes(key, out);
}

/// [`fill_payload`] compiled for AVX2, which steps the four lanes in
/// one 256-bit register; the shared body makes its bytes the portable
/// version's, as `deliba-ec::gf256` chooses its kernels.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn fill_payload_avx2(key: u64, out: &mut [u8]) {
    fill_payload_lanes(key, out);
}

/// The body of [`fill_payload`].
#[inline(always)]
pub(crate) fn fill_payload_lanes(key: u64, out: &mut [u8]) {
    let mut lanes = Lanes::new(key);
    let mut blocks = out.chunks_exact_mut(32);
    for block in blocks.by_ref() {
        block.copy_from_slice(&lanes.block());
    }
    let tail = blocks.into_remainder();
    let n = tail.len();
    if n > 0 {
        tail.copy_from_slice(&lanes.block()[..n]);
    }
}

/// Does `buf` hold exactly the bytes `extents` record over `[off, off +
/// buf.len())`: each overlapped extent's payload, and zeros in every
/// hole?  Dispatched as [`fill_payload`] is.
fn window_matches(extents: &[Extent], off: u32, buf: &[u8]) -> bool {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        // SAFETY: the CPU runs AVX2, checked just above.
        return unsafe { window_matches_avx2(extents, off, buf) };
    }
    window_matches_lanes(extents, off, buf)
}

/// [`window_matches`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn window_matches_avx2(extents: &[Extent], off: u32, buf: &[u8]) -> bool {
    window_matches_lanes(extents, off, buf)
}

/// The body of [`window_matches`]: every difference is ORed into one
/// word.
#[inline(always)]
fn window_matches_lanes(extents: &[Extent], off: u32, buf: &[u8]) -> bool {
    let end = off.saturating_add(buf.len() as u32);
    let mut diff = 0;
    let mut at = 0;
    for i in extents.partition_point(|e| e.end() <= off)..extents.len() {
        let (e, from) = (extents[i], start(extents, i).max(off));
        if from >= end {
            break;
        }
        let (lo, hi) = ((from - off) as usize, (e.end().min(end) - off) as usize);
        let skip = (from - e.off) as usize;
        diff |= zero_diff(&buf[at..lo]) | payload_diff(e.key, skip, &buf[lo..hi]);
        at = hi;
    }
    diff | zero_diff(&buf[at..]) == 0
}

/// The OR of `payload ^ read` over every 64-bit word of `buf` against
/// `key`'s payload from byte `start` on: zero exactly when they are
/// equal.  The lanes step from the payload's start; only the `< 32`-byte
/// edges of the window are compared byte by byte.
#[inline(always)]
fn payload_diff(key: u64, start: usize, buf: &[u8]) -> u64 {
    let mut lanes = Lanes::new(key);
    for _ in 0..start / 32 {
        lanes.step();
    }
    let (head, mut diff) = match start % 32 {
        0 => (0, 0),
        skip => {
            let n = (32 - skip).min(buf.len());
            (n, bytes_diff(&lanes.block()[skip..][..n], &buf[..n]))
        }
    };
    // One accumulator per lane keeps the loop in the lanes' register.
    let mut lane_diff = [0u64; 4];
    let mut blocks = buf[head..].chunks_exact(32);
    for block in blocks.by_ref() {
        let words = lanes.step();
        for (j, d) in lane_diff.iter_mut().enumerate() {
            *d |= words[j] ^ u64::from_le_bytes(block[8 * j..][..8].try_into().expect("8 bytes"));
        }
    }
    diff |= lane_diff.iter().fold(0, |d, w| d | w);
    let tail = blocks.remainder();
    if !tail.is_empty() {
        diff |= bytes_diff(&lanes.block()[..tail.len()], tail);
    }
    diff
}

/// The OR of every byte of `buf`, a hole: a `u8` fold vectorises as
/// well as a word loop does.
#[inline(always)]
fn zero_diff(buf: &[u8]) -> u64 {
    u64::from(buf.iter().fold(0, |d, &b| d | b))
}

/// The OR of `a[i] ^ b[i]` over the shorter of the two.
#[inline(always)]
fn bytes_diff(a: &[u8], b: &[u8]) -> u64 {
    a.iter().zip(b).fold(0, |d, (x, y)| d | u64::from(x ^ y))
}

/// What a committed write still holds of one RBD object: the bytes of
/// `[off, off + len)` of its payload (the payload's first byte is at
/// `off`) from where the extent before it ends, if that is past `off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Extent {
    pub(crate) off: u32,
    pub(crate) len: u32,
    pub(crate) key: u64,
}

impl Extent {
    pub(crate) fn end(&self) -> u32 {
        self.off.saturating_add(self.len)
    }
}

/// Where extent `i` of `extents` starts: a later write that covered the
/// front of it ends where it now starts, and stays the extent before it
/// or hands that end on to its own survivor.
pub(crate) fn start(extents: &[Extent], i: usize) -> u32 {
    let before = i.checked_sub(1).map_or(0, |j| extents[j].end());
    extents[i].off.max(before)
}

/// Record `new` (non-empty) over an object's extents, which are
/// non-empty, disjoint and sorted by end.  The extents between its first
/// and last byte go; the first keeps the part before `new` (cut short,
/// its payload unchanged) and the last the part after it, which needs
/// no change: `new` becomes the extent before it, and `new`'s end is
/// where it now starts.
fn record(extents: &mut Vec<Extent>, new: Extent) {
    let lo = extents.partition_point(|e| e.end() <= new.off);
    let hi = extents.partition_point(|e| e.end() <= new.end());
    let front = (lo < extents.len() && start(extents, lo) < new.off).then(|| Extent {
        len: new.off - extents[lo].off,
        ..extents[lo]
    });
    match (front, &mut extents[lo..hi]) {
        (None, [old]) => *old = new,
        _ => drop(extents.splice(lo..hi, front.into_iter().chain([new]))),
    }
}

/// The committed extents of every written RBD object.  A write cuts the
/// extents it overlaps down to what it left of them, so each recorded
/// extent still describes the bytes its object holds there.
#[derive(Default)]
pub(crate) struct Oracle {
    pub(crate) written: OidMap<Vec<Extent>>,
    /// Read bytes compared against the record (holes included).
    #[cfg(test)]
    pub(crate) compared: u64,
}

impl Oracle {
    /// Record a committed write of `new` to `obj`; an empty write
    /// changes no byte.
    pub(crate) fn record(&mut self, obj: ObjectId, new: Extent) {
        if new.len > 0 {
            record(self.written.entry(obj).or_default(), new);
        }
    }

    /// Does `buf`, read at `off` of `obj`, hold the committed bytes?  A
    /// read the cluster served as `sparse` (never written) passes unread
    /// when no extent overlaps its window; every other read is compared
    /// byte for byte, holes included.
    #[inline]
    pub(crate) fn verify(&mut self, obj: ObjectId, off: u32, buf: &[u8], sparse: bool) -> bool {
        // This first check inlines into the read path: most sparse reads
        // address an object the record does not hold.
        (sparse && !self.written.contains_key(&obj)) || self.verify_recorded(obj, off, buf, sparse)
    }

    /// [`Oracle::verify`] past its first check.
    fn verify_recorded(&mut self, obj: ObjectId, off: u32, buf: &[u8], sparse: bool) -> bool {
        let extents = self.written.get(&obj).map_or(&[][..], Vec::as_slice);
        let i = extents.partition_point(|e| e.end() <= off);
        let end = off.saturating_add(buf.len() as u32);
        if sparse && (i == extents.len() || start(extents, i) >= end) {
            return true;
        }
        #[cfg(test)]
        {
            self.compared += buf.len() as u64;
        }
        window_matches(extents, off, buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Writes over one 2 KiB object (adjacent extents, a hole, an older
    /// extent a later write splits, unaligned edges): the oracle, the
    /// object and the bytes it holds.
    fn written() -> (Oracle, ObjectId, Vec<u8>) {
        let obj = ObjectId::new(1, 1);
        let mut oracle = Oracle::default();
        let mut image = vec![0u8; 2048];
        let writes = [(0, 100), (100, 900), (1200, 700), (1250, 61), (1400, 3)];
        for (key, (off, len)) in (0x5EED..).zip(writes) {
            fill_payload(key, &mut image[off..off + len]);
            oracle.record(
                obj,
                Extent {
                    off: off as u32,
                    len: len as u32,
                    key,
                },
            );
        }
        (oracle, obj, image)
    }

    /// The dispatched and the portable compare agree.
    fn matches(oracle: &Oracle, obj: ObjectId, off: usize, buf: &[u8]) -> bool {
        let extents = &oracle.written[&obj];
        let got = window_matches(extents, off as u32, buf);
        assert_eq!(got, window_matches_lanes(extents, off as u32, buf));
        got
    }

    /// Untouched bytes verify over a grid of windows (unaligned starts,
    /// `< 32`-byte tails, across adjacent extents, into the holes at
    /// 1000 and 1900), and every single-bit flip fails, a flip in a hole
    /// included.
    #[test]
    fn verify_catches_every_bit_flip_in_payload_and_hole() {
        let (oracle, obj, mut image) = written();
        let mut windows = 0;
        for start in [
            0, 1, 7, 31, 33, 95, 100, 101, 990, 1195, 1240, 1300, 1311, 1399, 1890, 2000,
        ] {
            for len in [1, 5, 31, 32, 33, 64, 250] {
                let end = (start + len).min(image.len());
                assert!(
                    matches(&oracle, obj, start, &image[start..end]),
                    "{start}+{len}"
                );
                for bit in start * 8..end * 8 {
                    image[bit / 8] ^= 1 << (bit % 8);
                    assert!(
                        !matches(&oracle, obj, start, &image[start..end]),
                        "{start}+{len} bit {bit}"
                    );
                    image[bit / 8] ^= 1 << (bit % 8);
                }
                windows += 1;
            }
        }
        assert_eq!(windows, 112);
        assert!(matches(&oracle, obj, 0, &image));
    }

    /// A sub-window regenerated from the middle of a payload equals the
    /// same slice of the whole payload.
    #[test]
    fn a_regenerated_sub_window_is_a_slice_of_the_fill() {
        let mut full = vec![0u8; 1000];
        fill_payload(0xC0DE, &mut full);
        for start in (0..1000).step_by(7) {
            for len in [0, 1, 8, 31, 32, 33, 100, 1000] {
                let window = &full[start..(start + len).min(1000)];
                assert_eq!(payload_diff(0xC0DE, start, window), 0, "{start}+{len}");
            }
        }
    }

    /// A read the cluster served as sparse passes uncompared unless it
    /// overlaps a recorded extent; every other read is compared whole.
    #[test]
    fn sparse_reads_skip_the_compare_only_where_nothing_was_written() {
        let (mut oracle, obj, image) = written();
        let other = ObjectId::new(1, 2);
        assert!(oracle.verify(other, 0, &[0; 4096], true));
        assert!(oracle.verify(obj, 1000, &image[1000..1200], true));
        assert_eq!(oracle.compared, 0);
        assert!(!oracle.verify(obj, 900, &[0; 200], true));
        assert!(oracle.verify(other, 0, &[0; 64], false));
        assert!(!oracle.verify(other, 0, &[0, 1], false));
        assert_eq!(oracle.compared, 200 + 64 + 2);
        assert_eq!(std::mem::size_of::<Extent>(), 16);
    }
}

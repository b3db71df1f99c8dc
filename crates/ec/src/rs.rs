//! Systematic Reed-Solomon erasure codes: RS(k, m).
//!
//! The DeLiBA-K evaluation uses Ceph's default-style EC profile with
//! k = 4 data chunks and m = 2 parity chunks (the reproduction's default;
//! any `k + m ≤ 255` works).  Encoding multiplies the data-chunk vector
//! by the systematic encoding matrix; reconstruction inverts the rows
//! corresponding to the surviving chunks.

use crate::gf256::{mul_rows, mul_slice_xor, Gf256, Kernel, MAX_ROWS, MAX_SRCS};
use crate::matrix::Matrix;

/// Erasure-coding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EcError {
    /// Fewer than `k` chunks survive — reconstruction impossible.
    TooFewChunks {
        /// Surviving chunk count.
        have: usize,
        /// Required chunk count (k).
        need: usize,
    },
    /// Chunk length mismatch between provided shards.
    ShardSizeMismatch,
    /// Wrong number of shard slots supplied.
    WrongShardCount {
        /// Slots provided.
        got: usize,
        /// Slots expected (k + m).
        want: usize,
    },
}

impl std::fmt::Display for EcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EcError::TooFewChunks { have, need } => {
                write!(f, "too few chunks: have {have}, need {need}")
            }
            EcError::ShardSizeMismatch => write!(f, "shard size mismatch"),
            EcError::WrongShardCount { got, want } => {
                write!(f, "wrong shard count: got {got}, want {want}")
            }
        }
    }
}

impl std::error::Error for EcError {}

/// A systematic RS(k, m) codec.
#[derive(Debug, Clone)]
pub struct ReedSolomon {
    k: usize,
    m: usize,
    encoding: Matrix,
}

impl ReedSolomon {
    /// Create a codec for `k` data and `m` parity chunks.
    ///
    /// # Panics
    /// Panics unless `k ≥ 1`, `m ≥ 1`, `k + m ≤ 255`.
    pub fn new(k: usize, m: usize) -> Self {
        let encoding = Matrix::systematic_encoding(k, m);
        ReedSolomon { k, m, encoding }
    }

    /// Data chunk count.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Parity chunk count.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Total shards (k + m).
    pub fn shards(&self) -> usize {
        self.k + self.m
    }

    /// Storage expansion factor (k + m) / k.
    pub fn overhead(&self) -> f64 {
        (self.k + self.m) as f64 / self.k as f64
    }

    /// Split `data` into `k` equal chunks (zero-padding the tail) and
    /// append `m` parity chunks.  Returns `k + m` shards of equal length.
    pub fn encode(&self, data: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        self.encode_into(data, &mut out);
        self.shards_of(data, &out).map(<[u8]>::to_vec).collect()
    }

    /// [`ReedSolomon::encode`] without copying the data: the chunks
    /// that lie whole inside `data` stay there, and `out` receives the
    /// rest — the zero-padded chunks holding the last `data.len() %
    /// chunk` bytes, then the `m` parity chunks.  `out` is overwritten
    /// in place, so a caller's recycled buffer keeps its allocation;
    /// [`ReedSolomon::shards_of`] lists the `k + m` shards.
    pub fn encode_into(&self, data: &[u8], out: &mut Vec<u8>) {
        let (chunk, whole) = self.split(data.len());
        let pad_len = (self.k - whole) * chunk;
        out.resize(pad_len + self.m * chunk, 0);
        let (pad, parity) = out.split_at_mut(pad_len);
        let rest = &data[whole * chunk..];
        pad[..rest.len()].copy_from_slice(rest);
        pad[rest.len()..].fill(0);
        let shard = |c: usize| match c.checked_sub(whole) {
            None => &data[c * chunk..][..chunk],
            Some(p) => &pad[p * chunk..][..chunk],
        };
        self.parity_with(Kernel::detect(), shard, parity);
    }

    /// The `k + m` shards, in order, of `data` encoded into `out` by
    /// [`ReedSolomon::encode_into`], all borrowed.
    ///
    /// # Panics
    /// Panics if `out` is not the length `encode_into` gives it.
    pub fn shards_of<'a>(&self, data: &'a [u8], out: &'a [u8]) -> impl Iterator<Item = &'a [u8]> {
        let (chunk, whole) = self.split(data.len());
        assert_eq!(
            out.len(),
            (self.shards() - whole) * chunk,
            "not an encoding of {} bytes",
            data.len()
        );
        data.chunks_exact(chunk).chain(out.chunks_exact(chunk))
    }

    /// The chunk length for `len` bytes of data, and how many chunks
    /// lie whole inside the data.
    fn split(&self, len: usize) -> (usize, usize) {
        let chunk = len.div_ceil(self.k).max(1);
        (chunk, len / chunk)
    }

    /// Compute the `m` parity rows for `k` equal-length data shards,
    /// owned (`&[Vec<u8>]`) or borrowed (`&[&[u8]]`), into one buffer:
    /// the rows back to back.  `parity` is overwritten in place, so a
    /// caller's recycled buffer keeps its allocation.
    pub fn encode_parity_into<S: AsRef<[u8]>>(&self, data: &[S], parity: &mut Vec<u8>) {
        assert_eq!(data.len(), self.k, "need exactly k data shards");
        parity.resize(self.m * data[0].as_ref().len(), 0);
        self.parity_with(Kernel::detect(), |c| data[c].as_ref(), parity);
    }

    /// The one encoder: fill `parity` with the `m` parity rows of data
    /// shards `shard(0..k)`, on `kernel`.  Each [`mul_rows`] pass fuses
    /// up to `MAX_ROWS` parity rows over up to `MAX_SRCS` data shards,
    /// so RS(k ≤ 8, m ≤ 4) reads every data byte once.
    fn parity_with<'a>(
        &self,
        kernel: Kernel,
        shard: impl Fn(usize) -> &'a [u8],
        parity: &mut [u8],
    ) {
        let len = shard(0).len();
        assert!(
            (0..self.k).all(|c| shard(c).len() == len),
            "data shards must be equal length"
        );
        assert_eq!(parity.len(), self.m * len, "parity is not m rows");
        if len == 0 {
            return;
        }
        let mut coefs = [Gf256::ZERO; MAX_ROWS * MAX_SRCS];
        for (g, rows) in parity.chunks_mut(MAX_ROWS * len).enumerate() {
            let (row0, n_rows) = (self.k + g * MAX_ROWS, rows.len() / len);
            for c0 in (0..self.k).step_by(MAX_SRCS) {
                let n = MAX_SRCS.min(self.k - c0);
                let srcs: [&[u8]; MAX_SRCS] =
                    std::array::from_fn(|i| if i < n { shard(c0 + i) } else { &[] });
                for (i, coef) in coefs[..n_rows * n].iter_mut().enumerate() {
                    *coef = self.encoding.get(row0 + i / n, c0 + i % n);
                }
                mul_rows(kernel, &coefs[..n_rows * n], &srcs[..n], rows, c0 > 0);
            }
        }
    }

    /// Reconstruct the original data shards from any `k` surviving
    /// shards.  `shards[i] = None` marks an erasure.  On success, the
    /// erased *data* shards are filled in (parity shards are left as
    /// provided; call [`ReedSolomon::encode_parity_into`] to rebuild
    /// them).
    pub fn reconstruct(&self, shards: &mut [Option<Vec<u8>>]) -> Result<(), EcError> {
        if shards.len() != self.shards() {
            return Err(EcError::WrongShardCount {
                got: shards.len(),
                want: self.shards(),
            });
        }
        let present: Vec<usize> = shards
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|_| i))
            .collect();
        if present.len() < self.k {
            return Err(EcError::TooFewChunks {
                have: present.len(),
                need: self.k,
            });
        }
        let len = shards[present[0]].as_ref().unwrap().len();
        if present
            .iter()
            .any(|&i| shards[i].as_ref().unwrap().len() != len)
        {
            return Err(EcError::ShardSizeMismatch);
        }
        // Fast path: all data shards already present.
        if (0..self.k).all(|i| shards[i].is_some()) {
            return Ok(());
        }
        // Build the decode matrix from the first k surviving rows.
        let rows: Vec<usize> = present.iter().take(self.k).copied().collect();
        let sub = self.encoding.select_rows(&rows);
        let inv = sub
            .invert()
            .expect("MDS property: any k encoding rows are invertible");

        // data[c] = Σ inv[c][j] · shard[rows[j]]
        let mut recovered: Vec<(usize, Vec<u8>)> = Vec::new();
        for c in 0..self.k {
            if shards[c].is_some() {
                continue;
            }
            let mut out = vec![0u8; len];
            for (j, &r) in rows.iter().enumerate() {
                let coef = inv.get(c, j);
                mul_slice_xor(coef, shards[r].as_ref().unwrap(), &mut out);
            }
            recovered.push((c, out));
        }
        for (c, data) in recovered {
            shards[c] = Some(data);
        }
        Ok(())
    }

    /// Join `k` data shards back into `out`: its first `original_len`
    /// bytes, the padding dropped.  `out` is overwritten in place, so a
    /// caller's recycled buffer keeps its allocation.
    pub fn join(&self, shards: &[Option<Vec<u8>>], original_len: usize, out: &mut Vec<u8>) {
        out.clear();
        out.reserve(original_len);
        for shard in shards.iter().take(self.k) {
            let s = shard.as_ref().expect("data shard missing after reconstruct");
            let take = s.len().min(original_len - out.len());
            out.extend_from_slice(&s[..take]);
        }
    }

    /// Coefficient of the encoding matrix (exposed for the FPGA model's
    /// verification of its BRAM coefficient store).
    pub fn coefficient(&self, row: usize, col: usize) -> Gf256 {
        self.encoding.get(row, col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 31 + 7) as u8).collect()
    }

    fn joined(rs: &ReedSolomon, shards: &[Option<Vec<u8>>], len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        rs.join(shards, len, &mut out);
        out
    }

    #[test]
    fn encode_shapes() {
        let rs = ReedSolomon::new(4, 2);
        let shards = rs.encode(&sample_data(4096));
        assert_eq!(shards.len(), 6);
        assert!(shards.iter().all(|s| s.len() == 1024));
        assert_eq!(rs.overhead(), 1.5);
    }

    #[test]
    fn encode_pads_uneven_data() {
        let rs = ReedSolomon::new(4, 2);
        let shards = rs.encode(&sample_data(1000)); // not divisible by 4
        assert_eq!(shards[0].len(), 250);
        let mut opt: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        rs.reconstruct(&mut opt).unwrap();
        assert_eq!(joined(&rs, &opt, 1000), sample_data(1000));
    }

    #[test]
    fn round_trip_no_erasures() {
        let rs = ReedSolomon::new(4, 2);
        let data = sample_data(8192);
        let shards = rs.encode(&data);
        let mut opt: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        rs.reconstruct(&mut opt).unwrap();
        assert_eq!(joined(&rs, &opt, data.len()), data);
    }

    #[test]
    fn recovers_from_any_m_erasures() {
        let (k, m) = (4usize, 2usize);
        let rs = ReedSolomon::new(k, m);
        let data = sample_data(4096);
        let shards = rs.encode(&data);
        // All C(6,2) = 15 double-erasure patterns.
        for a in 0..k + m {
            for b in (a + 1)..k + m {
                let mut opt: Vec<Option<Vec<u8>>> =
                    shards.iter().cloned().map(Some).collect();
                opt[a] = None;
                opt[b] = None;
                rs.reconstruct(&mut opt)
                    .unwrap_or_else(|e| panic!("erasures ({a},{b}): {e}"));
                assert_eq!(joined(&rs, &opt, data.len()), data, "erasures ({a},{b})");
            }
        }
    }

    #[test]
    fn m_plus_one_erasures_fail() {
        let rs = ReedSolomon::new(4, 2);
        let shards = rs.encode(&sample_data(4096));
        let mut opt: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
        opt[0] = None;
        opt[2] = None;
        opt[5] = None;
        assert_eq!(
            rs.reconstruct(&mut opt),
            Err(EcError::TooFewChunks { have: 3, need: 4 })
        );
    }

    #[test]
    fn wrong_shard_count_rejected() {
        let rs = ReedSolomon::new(4, 2);
        let mut opt: Vec<Option<Vec<u8>>> = vec![Some(vec![0u8; 8]); 5];
        assert_eq!(
            rs.reconstruct(&mut opt),
            Err(EcError::WrongShardCount { got: 5, want: 6 })
        );
    }

    #[test]
    fn mismatched_shard_sizes_rejected() {
        let rs = ReedSolomon::new(2, 1);
        let mut opt = vec![Some(vec![0u8; 8]), Some(vec![0u8; 9]), None];
        assert_eq!(rs.reconstruct(&mut opt), Err(EcError::ShardSizeMismatch));
    }

    #[test]
    fn parity_rebuild_after_data_recovery() {
        let rs = ReedSolomon::new(4, 2);
        let data = sample_data(2048);
        let shards = rs.encode(&data);
        let mut opt: Vec<Option<Vec<u8>>> = shards.iter().cloned().map(Some).collect();
        opt[1] = None; // lose a data shard
        opt[4] = None; // and a parity shard
        rs.reconstruct(&mut opt).unwrap();
        // Rebuild parity from recovered data and compare with original.
        let data_shards: Vec<Vec<u8>> =
            (0..4).map(|i| opt[i].clone().unwrap()).collect();
        let mut parity = Vec::new();
        rs.encode_parity_into(&data_shards, &mut parity);
        assert_eq!(parity, [&shards[4][..], &shards[5][..]].concat());
        // Borrowed shards encode to the same parity.
        let borrowed: Vec<&[u8]> = opt[..4].iter().map(|s| s.as_deref().unwrap()).collect();
        let mut again = Vec::new();
        rs.encode_parity_into(&borrowed, &mut again);
        assert_eq!(again, parity);
    }

    #[test]
    fn various_k_m_profiles() {
        for (k, m) in [(2, 1), (3, 2), (6, 3), (8, 4), (10, 4)] {
            let rs = ReedSolomon::new(k, m);
            let data = sample_data(997); // prime length exercises padding
            let shards = rs.encode(&data);
            let mut opt: Vec<Option<Vec<u8>>> = shards.into_iter().map(Some).collect();
            // Erase the first m shards.
            for s in opt.iter_mut().take(m) {
                *s = None;
            }
            rs.reconstruct(&mut opt).unwrap();
            assert_eq!(joined(&rs, &opt, data.len()), data, "RS({k},{m})");
        }
    }

    /// FNV-1a over a byte stream.
    fn fnv(bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// A xorshift byte stream: every byte value, in no regular pattern.
    fn noise(len: usize) -> Vec<u8> {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 32) as u8
            })
            .collect()
    }

    /// Every kernel this CPU runs; the others are skipped with a note.
    fn kernels() -> Vec<Kernel> {
        [Kernel::Gfni, Kernel::Nibble, Kernel::Scalar]
            .into_iter()
            .filter(|k| {
                let ok = k.available();
                if !ok {
                    eprintln!("note: this CPU lacks the {k:?} kernel, so it is skipped");
                }
                ok
            })
            .collect()
    }

    #[test]
    fn parity_matches_pinned_digests() {
        // Recorded with the log/exp multiply alone, so a wrong SIMD
        // product table fails here even where the SIMD and scalar
        // kernels agree with each other.
        let rs = ReedSolomon::new(4, 2);
        for (len, want) in [
            (16384, 0xe948_6d1b_0793_1134),
            (1000, 0xde2b_48da_903e_ce94),
        ] {
            let data = noise(len);
            let shards = rs.encode(&data);
            assert_eq!(
                fnv(shards[4..].iter().flatten().copied()),
                want,
                "encode, {len} B"
            );
            let mut out = vec![0x5A; 3];
            rs.encode_into(&data, &mut out);
            let parity = rs.shards_of(&data, &out).skip(4).flatten();
            assert_eq!(fnv(parity.copied()), want, "encode_into, {len} B");
            let mut parity = Vec::new();
            rs.encode_parity_into(&shards[..4], &mut parity);
            assert_eq!(
                fnv(parity.iter().copied()),
                want,
                "encode_parity_into, {len} B"
            );
            for kernel in kernels() {
                parity.fill(0x5A);
                rs.parity_with(kernel, |c| &shards[c], &mut parity);
                assert_eq!(fnv(parity.iter().copied()), want, "{kernel:?}, {len} B");
            }
        }
    }

    /// The `m` parity rows of `data`, back to back, by the per-byte
    /// `Gf256::mul` alone.
    fn oracle_parity(rs: &ReedSolomon, data: &[&[u8]]) -> Vec<u8> {
        let len = data[0].len();
        let mut out = vec![0u8; rs.m() * len];
        for (p, row) in out.chunks_exact_mut(len).enumerate() {
            for (c, shard) in data.iter().enumerate() {
                let coef = rs.coefficient(rs.k() + p, c);
                for (o, &b) in row.iter_mut().zip(*shard) {
                    *o ^= coef.mul(Gf256(b)).0;
                }
            }
        }
        out
    }

    const PROFILES: [(usize, usize); 4] = [(1, 1), (4, 2), (10, 4), (16, 4)];
    const LENS: [usize; 7] = [1, 31, 32, 33, 1001, 4096, 16384];

    #[test]
    fn encode_parity_into_matches_oracle() {
        for (k, m) in PROFILES {
            let rs = ReedSolomon::new(k, m);
            for len in LENS {
                let bytes = noise(k * len);
                let data: Vec<&[u8]> = bytes.chunks_exact(len).collect();
                let want = oracle_parity(&rs, &data);
                // A dirty buffer with room to spare keeps its allocation.
                let mut parity = Vec::with_capacity(m * len + 64);
                parity.resize(m * len + 7, 0xA5);
                let cap = parity.capacity();
                rs.encode_parity_into(&data, &mut parity);
                assert_eq!(parity, want, "RS({k},{m}) shard {len} B");
                assert_eq!(
                    parity.capacity(),
                    cap,
                    "RS({k},{m}) shard {len} B reallocated"
                );
                for kernel in kernels() {
                    parity.fill(0xA5);
                    rs.parity_with(kernel, |c| data[c], &mut parity);
                    assert_eq!(parity, want, "RS({k},{m}) shard {len} B, {kernel:?}");
                }
            }
        }
    }

    #[test]
    fn encode_into_lends_the_data_and_pads_the_tail() {
        for (k, m) in PROFILES {
            let rs = ReedSolomon::new(k, m);
            for len in LENS.into_iter().chain([0, 5]) {
                let data = noise(len);
                let chunk = len.div_ceil(k).max(1);
                // The shards `encode` has always made: the data cut into
                // k chunks, zero-padded, then the oracle's parity.
                let mut padded = data.clone();
                padded.resize(k * chunk, 0);
                let chunks: Vec<&[u8]> = padded.chunks_exact(chunk).collect();
                let parity = oracle_parity(&rs, &chunks);
                let want: Vec<&[u8]> = chunks
                    .iter()
                    .copied()
                    .chain(parity.chunks_exact(chunk))
                    .collect();
                let mut out = vec![0xA5; 2 * len + 3];
                rs.encode_into(&data, &mut out);
                let got: Vec<&[u8]> = rs.shards_of(&data, &out).collect();
                assert_eq!(got, want, "RS({k},{m}) payload {len} B");
                // Only the tail is copied.
                let whole = len / chunk;
                assert_eq!(
                    out.len(),
                    (k + m - whole) * chunk,
                    "RS({k},{m}) payload {len} B"
                );
                assert_eq!(
                    rs.encode(&data),
                    want,
                    "RS({k},{m}) payload {len} B, encode"
                );
            }
        }
    }

    #[test]
    fn empty_data_encodes() {
        let rs = ReedSolomon::new(4, 2);
        let shards = rs.encode(&[]);
        assert_eq!(shards.len(), 6);
        assert!(shards.iter().all(|s| s.len() == 1));
    }
}

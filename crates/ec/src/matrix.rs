//! Dense matrices over GF(2^8) — construction, multiplication, Gaussian
//! inversion, and the Vandermonde-derived systematic encoding matrix.

use crate::gf256::Gf256;

/// A row-major dense matrix over GF(2^8).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<u8>,
}

impl Matrix {
    /// Zero matrix.
    pub(crate) fn zero(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0);
        Matrix {
            rows,
            cols,
            data: vec![0; rows * cols],
        }
    }

    /// Identity matrix.
    pub(crate) fn identity(n: usize) -> Self {
        let mut m = Matrix::zero(n, n);
        for i in 0..n {
            m.set(i, i, Gf256::ONE);
        }
        m
    }

    /// Build from a closure over (row, col).
    pub(crate) fn from_fn(rows: usize, cols: usize, f: impl Fn(usize, usize) -> Gf256) -> Self {
        let mut m = Matrix::zero(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.set(r, c, f(r, c));
            }
        }
        m
    }

    /// A `(rows × cols)` Vandermonde matrix with element `α^(r·c)` — full
    /// rank for any subset of rows when rows ≤ 255.
    pub(crate) fn vandermonde(rows: usize, cols: usize) -> Self {
        Matrix::from_fn(rows, cols, |r, c| Gf256::alpha_pow((r as u32) * (c as u32)))
    }

    /// Element access.
    #[inline]
    pub(crate) fn get(&self, r: usize, c: usize) -> Gf256 {
        Gf256(self.data[r * self.cols + c])
    }

    /// Element assignment.
    #[inline]
    pub(crate) fn set(&mut self, r: usize, c: usize, v: Gf256) {
        self.data[r * self.cols + c] = v.0;
    }

    /// Matrix product `self · other`.
    pub(crate) fn mul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "dimension mismatch");
        let mut out = Matrix::zero(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(r, k);
                if a == Gf256::ZERO {
                    continue;
                }
                for c in 0..other.cols {
                    let v = out.get(r, c).add(a.mul(other.get(k, c)));
                    out.set(r, c, v);
                }
            }
        }
        out
    }

    /// Extract a sub-matrix from the given rows.
    pub(crate) fn select_rows(&self, rows: &[usize]) -> Matrix {
        let mut out = Matrix::zero(rows.len(), self.cols);
        for (i, &r) in rows.iter().enumerate() {
            assert!(r < self.rows, "row {r} out of range");
            for c in 0..self.cols {
                out.set(i, c, self.get(r, c));
            }
        }
        out
    }

    /// Invert a square matrix by Gauss–Jordan elimination.
    /// Returns `None` when singular.
    pub(crate) fn invert(&self) -> Option<Matrix> {
        assert_eq!(self.rows, self.cols, "inversion needs a square matrix");
        let n = self.rows;
        let mut a = self.clone();
        let mut inv = Matrix::identity(n);
        for col in 0..n {
            // Find a pivot.
            let pivot = (col..n).find(|&r| a.get(r, col) != Gf256::ZERO)?;
            if pivot != col {
                a.swap_rows(pivot, col);
                inv.swap_rows(pivot, col);
            }
            // Normalize the pivot row.
            let p = a.get(col, col).inv();
            a.scale_row(col, p);
            inv.scale_row(col, p);
            // Eliminate the column everywhere else.
            for r in 0..n {
                if r != col {
                    let f = a.get(r, col);
                    if f != Gf256::ZERO {
                        a.add_scaled_row(col, r, f);
                        inv.add_scaled_row(col, r, f);
                    }
                }
            }
        }
        Some(inv)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for c in 0..self.cols {
            self.data.swap(a * self.cols + c, b * self.cols + c);
        }
    }

    fn scale_row(&mut self, r: usize, f: Gf256) {
        for c in 0..self.cols {
            let v = self.get(r, c).mul(f);
            self.set(r, c, v);
        }
    }

    /// row[dst] ^= f · row[src]
    fn add_scaled_row(&mut self, src: usize, dst: usize, f: Gf256) {
        for c in 0..self.cols {
            let v = self.get(dst, c).add(f.mul(self.get(src, c)));
            self.set(dst, c, v);
        }
    }

    /// The systematic encoding matrix for an RS(k, m) code: the top k×k
    /// block is the identity (data chunks pass through), the bottom m×k
    /// block generates parity.  Built by normalizing a (k+m)×k
    /// Vandermonde matrix so its top block becomes I — this preserves the
    /// MDS property (any k rows invertible).
    pub(crate) fn systematic_encoding(k: usize, m: usize) -> Matrix {
        assert!(k >= 1 && m >= 1 && k + m <= 255, "invalid RS parameters");
        let v = Matrix::vandermonde(k + m, k);
        let top = v.select_rows(&(0..k).collect::<Vec<_>>());
        let top_inv = top
            .invert()
            .expect("Vandermonde top block is always invertible");
        v.mul(&top_inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_multiplicative_identity() {
        let m = Matrix::vandermonde(4, 4);
        let i = Matrix::identity(4);
        assert_eq!(m.mul(&i), m);
        assert_eq!(i.mul(&m), m);
    }

    #[test]
    fn inverse_round_trip() {
        let m = Matrix::vandermonde(5, 5);
        let inv = m.invert().expect("vandermonde is invertible");
        assert_eq!(m.mul(&inv), Matrix::identity(5));
        assert_eq!(inv.mul(&m), Matrix::identity(5));
    }

    #[test]
    fn singular_matrix_rejected() {
        let mut m = Matrix::zero(3, 3);
        // Two identical rows → singular.
        for c in 0..3 {
            m.set(0, c, Gf256(c as u8 + 1));
            m.set(1, c, Gf256(c as u8 + 1));
            m.set(2, c, Gf256(c as u8 + 7));
        }
        assert!(m.invert().is_none());
    }

    #[test]
    fn systematic_top_block_is_identity() {
        for (k, m) in [(2, 1), (4, 2), (6, 3), (10, 4)] {
            let enc = Matrix::systematic_encoding(k, m);
            assert_eq!(enc.rows, k + m);
            assert_eq!(enc.cols, k);
            for r in 0..k {
                for c in 0..k {
                    let want = if r == c { Gf256::ONE } else { Gf256::ZERO };
                    assert_eq!(enc.get(r, c), want, "({k},{m}) at ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn systematic_any_k_rows_invertible() {
        // The MDS property: every k-subset of encoding rows must be
        // invertible.  Exhaustive for (4, 2): C(6,4) = 15 subsets.
        let (k, m) = (4usize, 2usize);
        let enc = Matrix::systematic_encoding(k, m);
        let n = k + m;
        let mut subset = vec![0usize; k];
        fn check(enc: &Matrix, subset: &mut Vec<usize>, start: usize, depth: usize, k: usize, n: usize) {
            if depth == k {
                let sub = enc.select_rows(subset);
                assert!(
                    sub.invert().is_some(),
                    "rows {subset:?} not invertible"
                );
                return;
            }
            for r in start..n {
                subset[depth] = r;
                check(enc, subset, r + 1, depth + 1, k, n);
            }
        }
        check(&enc, &mut subset, 0, 0, k, n);
    }

    #[test]
    fn select_rows_extracts() {
        let m = Matrix::vandermonde(4, 3);
        let s = m.select_rows(&[3, 1]);
        assert_eq!(s.rows, 2);
        for c in 0..3 {
            assert_eq!(s.get(0, c), m.get(3, c));
            assert_eq!(s.get(1, c), m.get(1, c));
        }
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mul_dimension_checked() {
        let a = Matrix::zero(2, 3);
        let b = Matrix::zero(2, 3);
        let _ = a.mul(&b);
    }
}

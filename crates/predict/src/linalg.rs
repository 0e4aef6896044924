//! A small dense row-major matrix with exactly the operations the OLS
//! solver needs: transpose products and Gaussian elimination with partial
//! pivoting.

use std::fmt;

/// A dense row-major matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A zero matrix of the given shape.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    #[must_use]
    fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be positive");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Builds a matrix from nested rows.
    ///
    /// # Panics
    ///
    /// Panics on empty input or ragged rows.
    #[must_use]
    pub(crate) fn from_rows(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "matrix needs at least one row");
        let cols = rows[0].len();
        assert!(cols > 0, "matrix needs at least one column");
        let mut m = Matrix::zeros(rows.len(), cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), cols, "ragged row {i}");
            m.data[i * cols..(i + 1) * cols].copy_from_slice(row);
        }
        m
    }

    /// The Gram matrix `AᵀA` (symmetric, `cols × cols`).
    #[must_use]
    pub(crate) fn gram(&self) -> Matrix {
        let mut g = Matrix::zeros(self.cols, self.cols);
        for i in 0..self.cols {
            for j in i..self.cols {
                let mut sum = 0.0;
                for r in 0..self.rows {
                    sum += self[(r, i)] * self[(r, j)];
                }
                g[(i, j)] = sum;
                g[(j, i)] = sum;
            }
        }
        g
    }

    /// The product `Aᵀv` for a vector `v` with one entry per row.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != rows`.
    #[must_use]
    pub(crate) fn transpose_mul_vec(&self, v: &[f64]) -> Vec<f64> {
        assert_eq!(v.len(), self.rows, "vector length must equal row count");
        let mut out = vec![0.0; self.cols];
        for r in 0..self.rows {
            let vr = v[r];
            for c in 0..self.cols {
                out[c] += self[(r, c)] * vr;
            }
        }
        out
    }

    /// Adds `lambda` to every diagonal entry (ridge regularization).
    pub(crate) fn add_diagonal(&mut self, lambda: f64) {
        let n = self.rows.min(self.cols);
        for i in 0..n {
            self[(i, i)] += lambda;
        }
    }

    /// Solves `A·x = b` for square `A` by Gaussian elimination with partial
    /// pivoting. Returns `None` when the system is numerically singular.
    ///
    /// # Panics
    ///
    /// Panics if `A` is not square or `b` has the wrong length.
    #[must_use]
    pub(crate) fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.rows, self.cols, "solve requires a square matrix");
        assert_eq!(b.len(), self.rows, "rhs length must equal matrix order");
        let n = self.rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();

        for col in 0..n {
            // Partial pivot.
            let mut pivot_row = col;
            let mut pivot_val = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < 1e-300 {
                return None;
            }
            if pivot_row != col {
                for c in 0..n {
                    a.swap(col * n + c, pivot_row * n + c);
                }
                x.swap(col, pivot_row);
            }
            // Eliminate below.
            let pivot = a[col * n + col];
            for r in (col + 1)..n {
                let factor = a[r * n + col] / pivot;
                // Exact-zero elimination is a no-op; an epsilon band would
                // wrongly skip small-but-real factors.
                if factor == 0.0 {
                    continue;
                }
                for c in col..n {
                    a[r * n + c] -= factor * a[col * n + c];
                }
                x[r] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for c in (col + 1)..n {
                sum -= a[col * n + c] * x[c];
            }
            let v = sum / a[col * n + col];
            if !v.is_finite() {
                return None;
            }
            x[col] = v;
        }
        Some(x)
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    f.write_str(" ")?;
                }
                write!(f, "{:10.4}", self[(r, c)])?;
            }
            f.write_str("\n")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solve_is_identity() {
        let rows: Vec<Vec<f64>> = (0..4)
            .map(|i| (0..4).map(|j| if i == j { 1.0 } else { 0.0 }).collect())
            .collect();
        let a = Matrix::from_rows(&rows);
        let b = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(a.solve(&b).unwrap(), b);
    }

    #[test]
    fn solves_a_known_system() {
        // 2x + y = 5 ; x + 3y = 10  → x = 1, y = 3.
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert!((x[0] - 3.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn singular_matrix_returns_none() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn gram_matrix_is_symmetric_psd_diagonal() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let g = a.gram();
        assert_eq!(g.rows, 2);
        assert_eq!(g[(0, 1)], g[(1, 0)]);
        assert_eq!(g[(0, 0)], 1.0 + 9.0 + 25.0);
        assert_eq!(g[(1, 1)], 4.0 + 16.0 + 36.0);
    }

    #[test]
    fn transpose_mul_vec_matches_manual() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let out = a.transpose_mul_vec(&[1.0, 1.0, 1.0]);
        assert_eq!(out, vec![9.0, 12.0]);
    }

    #[test]
    fn ridge_diagonal_makes_singular_solvable() {
        let mut g = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]).gram();
        // The unridged gram matrix is singular; solving it may fail (the
        // result is unspecified — only that it must not panic).
        let _ = g.solve(&[1.0, 2.0]);
        g.add_diagonal(1e-6);
        assert!(g.solve(&[1.0, 2.0]).is_some());
    }

    #[test]
    #[should_panic(expected = "square")]
    fn solve_rejects_non_square() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0]]);
        let _ = a.solve(&[1.0]);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }
}

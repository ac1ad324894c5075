//! Dense linear algebra for the statistical baselines.
//!
//! GLS and EM need regularised least squares. We implement Gaussian
//! elimination with partial pivoting and ridge regression through the
//! normal equations — the problem sizes here (N_od up to ~100) make a
//! dense O(n^3) solve entirely adequate, and keeping it in-crate avoids an
//! external LAPACK dependency (see DESIGN.md's dependency policy).

use neural::Matrix;

/// Solves `A x = b` for square `A` by Gaussian elimination with partial
/// pivoting. Returns `None` when `A` is (numerically) singular.
pub fn solve(a: &Matrix, b: &[f64]) -> Option<Vec<f64>> {
    let n = a.rows();
    assert_eq!(a.cols(), n, "solve requires a square matrix");
    assert_eq!(b.len(), n, "rhs length mismatch");
    // Augmented working copy.
    let mut m: Vec<Vec<f64>> = (0..n)
        .map(|r| {
            let mut row = a.row(r).to_vec();
            row.push(b[r]);
            row
        })
        .collect();

    for col in 0..n {
        // Partial pivot.
        let pivot = (col..n).max_by(|&i, &j| {
            m[i][col]
                .abs()
                .partial_cmp(&m[j][col].abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        })?;
        if m[pivot][col].abs() < 1e-12 {
            return None;
        }
        m.swap(col, pivot);
        let pivot_val = m[col][col];
        for r in (col + 1)..n {
            let factor = m[r][col] / pivot_val;
            if factor == 0.0 {
                continue;
            }
            // Two rows of `m` are read and written in lockstep; an index
            // loop sidesteps the aliasing dance.
            #[allow(clippy::needless_range_loop)]
            for c in col..=n {
                let sub = factor * m[col][c];
                m[r][c] -= sub;
            }
        }
    }
    // Back substitution.
    let mut x = vec![0.0; n];
    for r in (0..n).rev() {
        let mut acc = m[r][n];
        for c in (r + 1)..n {
            acc -= m[r][c] * x[c];
        }
        x[r] = acc / m[r][r];
    }
    Some(x)
}

/// Ridge regression: finds `W` (`(p, q)`) minimising
/// `||X W - Y||^2 + lambda ||W||^2` via the normal equations
/// `(X^T X + lambda I) W = X^T Y`. `X` is `(n, p)`, `Y` is `(n, q)`.
pub fn ridge(x: &Matrix, y: &Matrix, lambda: f64) -> Option<Matrix> {
    assert_eq!(x.rows(), y.rows(), "sample counts must match");
    let p = x.cols();
    let mut xtx = x.matmul_at_b(x);
    for i in 0..p {
        let v = xtx.get(i, i);
        xtx.set(i, i, v + lambda);
    }
    let xty = x.matmul_at_b(y); // (p, q)
    let mut w = Matrix::zeros(p, y.cols());
    // Solve one column at a time.
    for c in 0..y.cols() {
        let rhs: Vec<f64> = (0..p).map(|r| xty.get(r, c)).collect();
        let col = solve(&xtx, &rhs)?;
        for (r, v) in col.into_iter().enumerate() {
            w.set(r, c, v);
        }
    }
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solve_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]).unwrap();
        let x = solve(&a, &[3.0, -4.0]).unwrap();
        assert_eq!(x, vec![3.0, -4.0]);
    }

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 3.0]).unwrap();
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn solve_needs_pivoting() {
        // Leading zero forces a row swap.
        let a = Matrix::from_vec(2, 2, vec![0.0, 1.0, 1.0, 0.0]).unwrap();
        let x = solve(&a, &[2.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_detects_singular() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]).unwrap();
        assert!(solve(&a, &[1.0, 2.0]).is_none());
    }

    #[test]
    fn ridge_recovers_exact_linear_map() {
        // y = x @ w_true with more samples than features.
        let x = Matrix::from_fn(10, 3, |r, c| ((r * 3 + c) % 7) as f64 - 3.0);
        let w_true = Matrix::from_vec(3, 2, vec![1.0, -2.0, 0.5, 3.0, 2.0, -1.0]).unwrap();
        let y = x.matmul(&w_true);
        let w = ridge(&x, &y, 1e-9).unwrap();
        for (a, b) in w.as_slice().iter().zip(w_true.as_slice()) {
            assert!((a - b).abs() < 1e-6, "{a} vs {b}");
        }
    }

    #[test]
    fn ridge_shrinks_with_lambda() {
        let x = Matrix::from_fn(8, 2, |r, c| (r + c) as f64);
        let y = x.matmul(&Matrix::from_vec(2, 1, vec![2.0, -1.0]).unwrap());
        let w_small = ridge(&x, &y, 1e-9).unwrap();
        let w_big = ridge(&x, &y, 1e6).unwrap();
        let sq_norm = |w: &Matrix| w.as_slice().iter().map(|v| v * v).sum::<f64>();
        assert!(sq_norm(&w_big) < sq_norm(&w_small));
    }

    #[test]
    fn ridge_handles_underdetermined_via_regularisation() {
        // Fewer samples than features: plain normal equations are
        // singular, ridge is not.
        let x = Matrix::from_fn(2, 5, |r, c| (r * 5 + c) as f64);
        let y = Matrix::from_vec(2, 1, vec![1.0, 2.0]).unwrap();
        assert!(ridge(&x, &y, 1e-3).is_some());
    }
}

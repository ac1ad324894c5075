//! Property-based tests for the dense linear-algebra kernels.

use neural::matrix::{softmax_rows, Matrix};
use proptest::prelude::*;

fn mat(rows: usize, cols: usize, vals: &[f64]) -> Matrix {
    Matrix::from_vec(rows, cols, vals.to_vec()).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (A B) C == A (B C) within numerical tolerance.
    #[test]
    fn matmul_is_associative(
        a in proptest::collection::vec(-3.0f64..3.0, 2 * 3),
        b in proptest::collection::vec(-3.0f64..3.0, 3 * 4),
        c in proptest::collection::vec(-3.0f64..3.0, 4 * 2),
    ) {
        let a = mat(2, 3, &a);
        let b = mat(3, 4, &b);
        let c = mat(4, 2, &c);
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    /// (A B)^T == B^T A^T.
    #[test]
    fn transpose_reverses_products(
        a in proptest::collection::vec(-3.0f64..3.0, 2 * 3),
        b in proptest::collection::vec(-3.0f64..3.0, 3 * 2),
    ) {
        let a = mat(2, 3, &a);
        let b = mat(3, 2, &b);
        let left = a.matmul(&b).transpose();
        let right = b.transpose().matmul(&a.transpose());
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
    }

    /// The fused transpose kernels agree with explicit transposition.
    #[test]
    fn fused_kernels_agree(
        a in proptest::collection::vec(-3.0f64..3.0, 3 * 2),
        b in proptest::collection::vec(-3.0f64..3.0, 3 * 4),
    ) {
        let a = mat(3, 2, &a);
        let b = mat(3, 4, &b);
        let fused = a.matmul_at_b(&b);
        let explicit = a.transpose().matmul(&b);
        for (x, y) in fused.as_slice().iter().zip(explicit.as_slice()) {
            prop_assert!((x - y).abs() < 1e-12);
        }
        let c = mat(3, 2, a.as_slice());
        let fused2 = b.transpose().matmul_a_bt(&c.transpose());
        let explicit2 = b.transpose().matmul(&c);
        for (x, y) in fused2.as_slice().iter().zip(explicit2.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    /// Row sums and broadcasts are inverse-compatible: subtracting the
    /// broadcast of the row-sum of a one-row matrix yields zero.
    #[test]
    fn broadcast_roundtrip(vals in proptest::collection::vec(-5.0f64..5.0, 4)) {
        let bias = Matrix::from_vec(1, vals.len(), vals.clone()).unwrap();
        let mut m = Matrix::zeros(3, 4);
        m.add_row_broadcast(&bias);
        let mut sums = Matrix::zeros(1, vals.len());
        m.sum_rows_into(&mut sums);
        for (s, &v) in sums.as_slice().iter().zip(&vals) {
            prop_assert!((s - 3.0 * v).abs() < 1e-12);
        }
    }

    /// Softmax output is invariant under per-row constant shifts.
    #[test]
    fn softmax_shift_invariance(
        vals in proptest::collection::vec(-20.0f64..20.0, 2 * 4),
        shift in -100.0f64..100.0,
    ) {
        let a = mat(2, 4, &vals);
        let mut sa = a.clone();
        softmax_rows(&mut sa);
        let mut sb = a.clone();
        sb.map_inplace(|v| v + shift);
        softmax_rows(&mut sb);
        for (x, y) in sa.as_slice().iter().zip(sb.as_slice()) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }
}

//! Row-wise softmax as a [`Layer`].
//!
//! Wraps [`crate::matrix::softmax_rows`] /
//! [`crate::matrix::softmax_rows_backward`] so the normalisation can sit
//! inside a [`crate::layers::Sequential`] stack (e.g. as the head of an
//! attention-weight branch) and take part in the standard gradcheck
//! battery. Parameter-free: `visit_params` visits nothing.

use super::Layer;
use crate::matrix::{softmax_rows, softmax_rows_backward_into, Matrix};
use crate::workspace::Workspace;

/// Row-wise softmax layer: each row of the input is normalised to a
/// probability distribution.
#[derive(Debug, Clone, Default)]
pub struct Softmax {
    /// Cached forward output; the softmax Jacobian is a function of the
    /// output alone.
    y: Option<Matrix>,
}

impl Softmax {
    /// Creates the layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Softmax {
    fn forward_ws(&mut self, x: &Matrix, _train: bool, ws: &mut Workspace) -> Matrix {
        let mut y = ws.take(x.rows(), x.cols());
        y.copy_from(x);
        softmax_rows(&mut y);
        match &mut self.y {
            Some(c) if c.shape() == y.shape() => c.copy_from(&y),
            // lint: allow(alloc) — cache warm-up only: first step or shape change; steady-state steps hit the copy branch above.
            slot => *slot = Some(y.clone()),
        }
        y
    }

    fn backward_ws(&mut self, dy: &Matrix, ws: &mut Workspace) -> Matrix {
        let y = self
            .y
            .as_ref()
            // lint: allow(panic) — precondition: backward requires a prior forward
            .expect("Softmax::backward called before forward");
        let mut dx = ws.take(dy.rows(), dy.cols());
        softmax_rows_backward_into(y, dy, &mut dx);
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_sum_to_one() {
        let mut layer = Softmax::new();
        let x = Matrix::from_fn(3, 4, |r, c| (r as f64 - c as f64) * 0.7);
        let y = layer.forward(&x, false);
        for r in 0..3 {
            let s: f64 = y.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-12, "row {r} sums to {s}");
            assert!(y.row(r).iter().all(|&v| v > 0.0));
        }
    }

    #[test]
    fn is_parameter_free() {
        let mut layer = Softmax::new();
        assert_eq!(layer.param_count(), 0);
    }

    #[test]
    fn invariant_to_row_shift() {
        let mut layer = Softmax::new();
        let x = Matrix::from_fn(2, 3, |r, c| (r + c) as f64);
        let shifted = x.map(|v| v + 100.0);
        let a = layer.forward(&x, false);
        let b = layer.forward(&shifted, false);
        for (u, v) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((u - v).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "before forward")]
    fn backward_requires_forward() {
        let mut layer = Softmax::new();
        layer.backward(&Matrix::zeros(1, 1));
    }
}

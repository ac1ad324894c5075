//! Fully-connected layer.

use super::{xavier, Layer};
use crate::matrix::Matrix;
use crate::rng::Rng64;
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};

/// `y = x @ W + b` with `W: (in, out)`, `b: (1, out)`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    w: Matrix,
    b: Matrix,
    dw: Matrix,
    db: Matrix,
    #[serde(skip)]
    cache_x: Option<Matrix>,
}

impl Dense {
    /// Creates a Xavier-initialised layer.
    pub fn new(input: usize, output: usize, rng: &mut Rng64) -> Self {
        Self {
            w: xavier(input, output, rng),
            b: Matrix::zeros(1, output),
            dw: Matrix::zeros(input, output),
            db: Matrix::zeros(1, output),
            cache_x: None,
        }
    }

    /// Input width.
    pub fn input_size(&self) -> usize {
        self.w.rows()
    }

    /// Output width.
    pub fn output_size(&self) -> usize {
        self.w.cols()
    }

    /// Immutable access to the weight (testing / inspection).
    pub fn weight(&self) -> &Matrix {
        &self.w
    }

    /// Immutable access to the bias.
    pub fn bias(&self) -> &Matrix {
        &self.b
    }
}

impl Layer for Dense {
    fn forward_ws(&mut self, x: &Matrix, _train: bool, ws: &mut Workspace) -> Matrix {
        let mut y = ws.take(x.rows(), self.w.cols());
        x.matmul_into(&self.w, &mut y);
        y.add_row_broadcast(&self.b);
        // Reuse the cached-input buffer across steps when the batch shape
        // is stable (the common case in training loops).
        match &mut self.cache_x {
            Some(c) if c.shape() == x.shape() => c.copy_from(x),
            // lint: allow(alloc) — cache warm-up only: first step or shape change; steady-state steps hit the copy branch above.
            slot => *slot = Some(x.clone()),
        }
        y
    }

    fn backward_ws(&mut self, dy: &Matrix, ws: &mut Workspace) -> Matrix {
        let x = self
            .cache_x
            .as_ref()
            // lint: allow(panic) — precondition: backward requires a prior forward
            .expect("backward called before forward");
        // Gradients accumulate via an explicit temporary + add_assign:
        // each step's product is summed whole into the running gradient.
        let mut dw_t = ws.take(self.w.rows(), self.w.cols());
        x.matmul_at_b_into(dy, &mut dw_t);
        self.dw.add_assign(&dw_t);
        ws.give(dw_t);
        let mut db_t = ws.take(1, self.w.cols());
        dy.sum_rows_into(&mut db_t);
        self.db.add_assign(&db_t);
        ws.give(db_t);
        // dy @ W^T via an explicit transpose: the plain matmul kernel is
        // about twice as fast and sums the same terms in the same order.
        let mut wt = ws.take(self.w.cols(), self.w.rows());
        self.w.transpose_into(&mut wt);
        let mut dx = ws.take(dy.rows(), self.w.rows());
        dy.matmul_into(&wt, &mut dx);
        ws.give(wt);
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.w, &mut self.dw);
        f(&mut self.b, &mut self.db);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_input, check_layer_params};

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = Rng64::new(0);
        let mut d = Dense::new(3, 2, &mut rng);
        let x = Matrix::zeros(4, 3);
        let y = d.forward(&x, true);
        assert_eq!(y.shape(), (4, 2));
        // zero input -> output equals bias (zero at init)
        assert_eq!(y, Matrix::zeros(4, 2));
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = Rng64::new(1);
        let mut d = Dense::new(4, 3, &mut rng);
        let mut x = Matrix::zeros(5, 4);
        rng.fill_normal(x.as_mut_slice());
        assert!(check_layer_input(&mut d, &x, 1e-6, 1e-6));
        assert!(check_layer_params(&mut d, &x, 1e-6, 1e-6));
    }

    #[test]
    fn backward_accumulates_across_calls() {
        let mut rng = Rng64::new(2);
        let mut d = Dense::new(2, 2, &mut rng);
        let x = Matrix::filled(1, 2, 1.0);
        let dy = Matrix::filled(1, 2, 1.0);
        d.forward(&x, true);
        d.backward(&dy);
        let mut first = Matrix::zeros(0, 0);
        d.visit_params(&mut |p, g| {
            if p.rows() == 2 {
                first = g.clone();
            }
        });
        d.forward(&x, true);
        d.backward(&dy);
        d.visit_params(&mut |p, g| {
            if p.rows() == 2 {
                for (a, b) in g.as_slice().iter().zip(first.as_slice()) {
                    assert!((a - 2.0 * b).abs() < 1e-12, "grads must accumulate");
                }
            }
        });
        d.zero_grad();
        d.visit_params(&mut |_, g| assert_eq!(g.norm(), 0.0));
    }

    #[test]
    fn serde_round_trip_preserves_weights() {
        let mut rng = Rng64::new(3);
        let d = Dense::new(3, 3, &mut rng);
        let json = serde_json::to_string(&d).unwrap();
        let back: Dense = serde_json::from_str(&json).unwrap();
        assert_eq!(back.weight(), d.weight());
        assert_eq!(back.bias(), d.bias());
    }
}

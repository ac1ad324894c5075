//! Inverted dropout.

use super::Layer;
use crate::matrix::Matrix;
use crate::rng::Rng64;
use crate::workspace::Workspace;

/// Inverted dropout: during training each unit is zeroed with probability
/// `rate` and survivors are scaled by `1/(1-rate)`; at evaluation time the
/// layer is the identity. The paper trains with dropout 0.3 (Table V).
#[derive(Debug)]
pub struct Dropout {
    rate: f64,
    rng: Rng64,
    /// The last train-mode mask, kept across calls and refilled in place
    /// while the shape holds; drawn from the workspace on a shape change.
    mask: Matrix,
    /// True when the last forward applied `mask` (train mode, rate > 0).
    masked: bool,
}

impl Dropout {
    /// Creates a dropout layer; `rate` is clamped into `[0, 0.95]`.
    pub fn new(rate: f64, seed: u64) -> Self {
        Self {
            rate: rate.clamp(0.0, 0.95),
            rng: Rng64::new(seed),
            mask: Matrix::zeros(0, 0),
            masked: false,
        }
    }

    /// The drop probability.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl Layer for Dropout {
    fn forward_ws(&mut self, x: &Matrix, train: bool, ws: &mut Workspace) -> Matrix {
        let mut y = ws.take(x.rows(), x.cols());
        y.copy_from(x);
        self.masked = train && self.rate != 0.0;
        if !self.masked {
            return y;
        }
        if self.mask.shape() != x.shape() {
            let fresh = ws.take(x.rows(), x.cols());
            ws.give(std::mem::replace(&mut self.mask, fresh));
        }
        // One uniform draw per unit, in row-major order.
        let keep = 1.0 - self.rate;
        for m in self.mask.as_mut_slice() {
            *m = if self.rng.uniform() < keep {
                1.0 / keep
            } else {
                0.0
            };
        }
        y.hadamard_assign(&self.mask);
        y
    }

    fn backward_ws(&mut self, dy: &Matrix, ws: &mut Workspace) -> Matrix {
        let mut dx = ws.take(dy.rows(), dy.cols());
        dx.copy_from(dy);
        if self.masked {
            dx.hadamard_assign(&self.mask);
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_mode_is_identity() {
        let mut d = Dropout::new(0.5, 0);
        let x = Matrix::filled(4, 4, 2.0);
        assert_eq!(d.forward(&x, false), x);
        assert_eq!(d.backward(&x), x);
    }

    #[test]
    fn rate_zero_is_identity_even_in_train() {
        let mut d = Dropout::new(0.0, 0);
        let x = Matrix::filled(4, 4, 2.0);
        assert_eq!(d.forward(&x, true), x);
    }

    #[test]
    fn train_mode_preserves_expectation() {
        let mut d = Dropout::new(0.3, 1);
        let x = Matrix::filled(100, 100, 1.0);
        let y = d.forward(&x, true);
        let mean = y.mean();
        assert!((mean - 1.0).abs() < 0.05, "inverted scaling, mean {mean}");
        // some units dropped
        assert!(y.as_slice().contains(&0.0));
    }

    #[test]
    fn backward_uses_same_mask() {
        let mut d = Dropout::new(0.5, 2);
        let x = Matrix::filled(10, 10, 1.0);
        let y = d.forward(&x, true);
        let dx = d.backward(&Matrix::filled(10, 10, 1.0));
        // gradient flows exactly where activations survived
        for (a, b) in y.as_slice().iter().zip(dx.as_slice()) {
            assert_eq!(*a == 0.0, *b == 0.0);
        }
    }

    #[test]
    fn rate_is_clamped() {
        assert_eq!(Dropout::new(2.0, 0).rate(), 0.95);
        assert_eq!(Dropout::new(-1.0, 0).rate(), 0.0);
    }
}

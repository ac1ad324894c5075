//! Finite-difference gradient checking.
//!
//! Every layer in this crate ships a test that compares its analytic
//! backward pass against central finite differences of the scalar loss
//! `L(y) = 0.5 * ||y||^2` (whose upstream gradient is simply `y`). A layer
//! that passes these checks computes exact gradients, which is what makes
//! the training results in `ovs-core` meaningful.

use crate::layers::{Layer, SeqLayer};
use crate::matrix::Matrix;
use crate::tensor3::Tensor3;

/// Relative/absolute comparison used by all checks.
fn close(analytic: f64, numeric: f64, tol: f64) -> bool {
    let denom = analytic.abs().max(numeric.abs()).max(1.0);
    (analytic - numeric).abs() / denom <= tol
}

fn half_sq_matrix(y: &Matrix) -> f64 {
    0.5 * y.as_slice().iter().map(|v| v * v).sum::<f64>()
}

fn half_sq_tensor(y: &Tensor3) -> f64 {
    0.5 * y.as_slice().iter().map(|v| v * v).sum::<f64>()
}

/// Adds `delta` to parameter `pi`'s element `idx` of a flat layer.
fn perturb_flat(layer: &mut dyn Layer, pi: usize, idx: usize, delta: f64) {
    let mut seen = 0usize;
    layer.visit_params(&mut |p, _| {
        if seen == pi {
            p.as_mut_slice()[idx] += delta;
        }
        seen += 1;
    });
}

/// Adds `delta` to parameter `pi`'s element `idx` of a sequence layer.
fn perturb_seq(layer: &mut dyn SeqLayer, pi: usize, idx: usize, delta: f64) {
    let mut seen = 0usize;
    layer.visit_params(&mut |p, _| {
        if seen == pi {
            p.as_mut_slice()[idx] += delta;
        }
        seen += 1;
    });
}

/// Checks `d loss / d input` of a flat layer. Returns true when every
/// component agrees within `tol`.
pub fn check_layer_input(layer: &mut dyn Layer, x: &Matrix, eps: f64, tol: f64) -> bool {
    let y = layer.forward(x, false);
    let dx = layer.backward(&y);
    for idx in 0..x.len() {
        let mut xp = x.clone();
        xp.as_mut_slice()[idx] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[idx] -= eps;
        let lp = half_sq_matrix(&layer.forward(&xp, false));
        let lm = half_sq_matrix(&layer.forward(&xm, false));
        let numeric = (lp - lm) / (2.0 * eps);
        if !close(dx.as_slice()[idx], numeric, tol) {
            eprintln!(
                "input grad mismatch at {idx}: analytic {} vs numeric {numeric}",
                dx.as_slice()[idx]
            );
            return false;
        }
    }
    true
}

/// Checks `d loss / d params` of a flat layer.
pub fn check_layer_params(layer: &mut dyn Layer, x: &Matrix, eps: f64, tol: f64) -> bool {
    layer.zero_grad();
    let y = layer.forward(x, false);
    layer.backward(&y);
    // Snapshot analytic gradients.
    let mut grads: Vec<Matrix> = Vec::new();
    layer.visit_params(&mut |_, g| grads.push(g.clone()));

    let mut ok = true;
    for (pi, grad) in grads.iter().enumerate() {
        for idx in 0..grad.len() {
            perturb_flat(layer, pi, idx, eps);
            let lp = half_sq_matrix(&layer.forward(x, false));
            perturb_flat(layer, pi, idx, -2.0 * eps);
            let lm = half_sq_matrix(&layer.forward(x, false));
            perturb_flat(layer, pi, idx, eps); // restore
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad.as_slice()[idx];
            if !close(analytic, numeric, tol) {
                eprintln!("param {pi}[{idx}] mismatch: analytic {analytic} vs numeric {numeric}");
                ok = false;
            }
        }
    }
    ok
}

/// Checks `d loss / d input` of a sequence layer.
pub fn check_seq_layer_input(layer: &mut dyn SeqLayer, x: &Tensor3, eps: f64, tol: f64) -> bool {
    let y = layer.forward(x, false);
    let dx = layer.backward(&y);
    for idx in 0..x.as_slice().len() {
        let mut xp = x.clone();
        xp.as_mut_slice()[idx] += eps;
        let mut xm = x.clone();
        xm.as_mut_slice()[idx] -= eps;
        let lp = half_sq_tensor(&layer.forward(&xp, false));
        let lm = half_sq_tensor(&layer.forward(&xm, false));
        let numeric = (lp - lm) / (2.0 * eps);
        if !close(dx.as_slice()[idx], numeric, tol) {
            eprintln!(
                "seq input grad mismatch at {idx}: analytic {} vs numeric {numeric}",
                dx.as_slice()[idx]
            );
            return false;
        }
    }
    true
}

/// Checks `d loss / d params` of a sequence layer.
pub fn check_seq_layer_params(layer: &mut dyn SeqLayer, x: &Tensor3, eps: f64, tol: f64) -> bool {
    layer.zero_grad();
    let y = layer.forward(x, false);
    layer.backward(&y);
    let mut grads: Vec<Matrix> = Vec::new();
    layer.visit_params(&mut |_, g| grads.push(g.clone()));

    let mut ok = true;
    for (pi, grad) in grads.iter().enumerate() {
        for idx in 0..grad.len() {
            perturb_seq(layer, pi, idx, eps);
            let lp = half_sq_tensor(&layer.forward(x, false));
            perturb_seq(layer, pi, idx, -2.0 * eps);
            let lm = half_sq_tensor(&layer.forward(x, false));
            perturb_seq(layer, pi, idx, eps);
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grad.as_slice()[idx];
            if !close(analytic, numeric, tol) {
                eprintln!(
                    "seq param {pi}[{idx}] mismatch: analytic {analytic} vs numeric {numeric}"
                );
                ok = false;
            }
        }
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Dense;
    use crate::rng::Rng64;
    use crate::workspace::Workspace;

    /// A deliberately wrong layer: backward scales the true gradient.
    struct Broken(Dense);

    impl Layer for Broken {
        fn forward_ws(&mut self, x: &Matrix, train: bool, ws: &mut Workspace) -> Matrix {
            self.0.forward_ws(x, train, ws)
        }
        fn backward_ws(&mut self, dy: &Matrix, ws: &mut Workspace) -> Matrix {
            let mut dx = self.0.backward_ws(dy, ws);
            dx.scale(1.5); // wrong on purpose
            dx
        }
        fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
            self.0.visit_params(f);
        }
    }

    #[test]
    fn detects_correct_gradients() {
        let mut rng = Rng64::new(0);
        let mut d = Dense::new(3, 2, &mut rng);
        let mut x = Matrix::zeros(2, 3);
        rng.fill_normal(x.as_mut_slice());
        assert!(check_layer_input(&mut d, &x, 1e-6, 1e-6));
    }

    #[test]
    fn detects_broken_gradients() {
        let mut rng = Rng64::new(0);
        let mut b = Broken(Dense::new(3, 2, &mut rng));
        let mut x = Matrix::zeros(2, 3);
        rng.fill_normal(x.as_mut_slice());
        assert!(!check_layer_input(&mut b, &x, 1e-6, 1e-6));
    }

    #[test]
    fn close_uses_relative_tolerance() {
        assert!(close(1000.0, 1000.0001, 1e-6));
        assert!(!close(1.0, 1.1, 1e-6));
        assert!(close(0.0, 1e-9, 1e-6));
    }
}

//! Element-wise activation layers.

use super::{Layer, SeqLayer};
use crate::matrix::Matrix;
use crate::tensor3::Tensor3;
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};

/// Supported activation functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ActKind {
    /// Logistic sigmoid — the paper's choice for the TOD generation stack
    /// (Eqs. 1-2) and the volume-speed head (Table IV).
    Sigmoid,
    /// Rectified linear unit — used by the Route-e convolution stack.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
}

impl ActKind {
    /// Applies the function to a scalar.
    #[inline]
    pub fn apply(self, x: f64) -> f64 {
        match self {
            ActKind::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            ActKind::Relu => x.max(0.0),
            ActKind::Tanh => x.tanh(),
        }
    }

    /// Derivative expressed through the *output* value `y = f(x)`.
    #[inline]
    pub fn derivative_from_output(self, y: f64) -> f64 {
        match self {
            ActKind::Sigmoid => y * (1.0 - y),
            ActKind::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActKind::Tanh => 1.0 - y * y,
        }
    }
}

/// Activation over `(batch, features)` matrices.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Activation {
    kind: ActKind,
    #[serde(skip)]
    cache_y: Option<Matrix>,
}

impl Activation {
    /// Creates an activation layer.
    pub fn new(kind: ActKind) -> Self {
        Self {
            kind,
            cache_y: None,
        }
    }
}

impl Layer for Activation {
    fn forward_ws(&mut self, x: &Matrix, _train: bool, ws: &mut Workspace) -> Matrix {
        let mut y = ws.take(x.rows(), x.cols());
        for (o, &v) in y.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *o = self.kind.apply(v);
        }
        match &mut self.cache_y {
            Some(c) if c.shape() == y.shape() => c.copy_from(&y),
            // lint: allow(alloc) — cache warm-up only: first step or shape change; steady-state steps hit the copy branch above.
            slot => *slot = Some(y.clone()),
        }
        y
    }

    fn backward_ws(&mut self, dy: &Matrix, ws: &mut Workspace) -> Matrix {
        let y = self
            .cache_y
            .as_ref()
            // lint: allow(panic) — precondition: backward requires a prior forward
            .expect("backward called before forward");
        let mut dx = ws.take(dy.rows(), dy.cols());
        for (o, (&d, &yv)) in dx
            .as_mut_slice()
            .iter_mut()
            .zip(dy.as_slice().iter().zip(y.as_slice()))
        {
            *o = d * self.kind.derivative_from_output(yv);
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {}
}

/// Activation over `(batch, time, features)` tensors.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeqActivation {
    kind: ActKind,
    #[serde(skip)]
    cache_y: Option<Tensor3>,
}

impl SeqActivation {
    /// Creates a sequence activation layer.
    pub fn new(kind: ActKind) -> Self {
        Self {
            kind,
            cache_y: None,
        }
    }
}

impl SeqLayer for SeqActivation {
    fn forward_ws(&mut self, x: &Tensor3, _train: bool, ws: &mut Workspace) -> Tensor3 {
        let (b, t, f) = x.shape();
        let mut y = ws.take3(b, t, f);
        for (o, &v) in y.as_mut_slice().iter_mut().zip(x.as_slice()) {
            *o = self.kind.apply(v);
        }
        match &mut self.cache_y {
            Some(c) if c.shape() == y.shape() => c.as_mut_slice().copy_from_slice(y.as_slice()),
            // lint: allow(alloc) — cache warm-up only: first step or shape change; steady-state steps hit the copy branch above.
            slot => *slot = Some(y.clone()),
        }
        y
    }

    fn backward_ws(&mut self, dy: &Tensor3, ws: &mut Workspace) -> Tensor3 {
        let y = self
            .cache_y
            .as_ref()
            // lint: allow(panic) — precondition: backward requires a prior forward
            .expect("backward called before forward");
        let (b, t, f) = dy.shape();
        let mut dx = ws.take3(b, t, f);
        for (o, (&d, &yv)) in dx
            .as_mut_slice()
            .iter_mut()
            .zip(dy.as_slice().iter().zip(y.as_slice()))
        {
            *o = d * self.kind.derivative_from_output(yv);
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::check_layer_input;
    use crate::rng::Rng64;

    #[test]
    fn known_values() {
        assert!((ActKind::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert_eq!(ActKind::Relu.apply(-3.0), 0.0);
        assert_eq!(ActKind::Relu.apply(2.0), 2.0);
        assert!((ActKind::Tanh.apply(0.0)).abs() < 1e-12);
    }

    #[test]
    fn sigmoid_range() {
        for x in [-50.0, -1.0, 0.0, 1.0, 50.0] {
            let y = ActKind::Sigmoid.apply(x);
            assert!((0.0..=1.0).contains(&y));
        }
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = Rng64::new(0);
        let mut x = Matrix::zeros(3, 4);
        rng.fill_normal(x.as_mut_slice());
        // shift relu inputs away from the kink
        let x_relu = x.map(|v| if v.abs() < 0.1 { v + 0.5 } else { v });
        for kind in [ActKind::Sigmoid, ActKind::Tanh] {
            let mut layer = Activation::new(kind);
            assert!(check_layer_input(&mut layer, &x, 1e-6, 1e-7), "{kind:?}");
        }
        let mut relu = Activation::new(ActKind::Relu);
        assert!(check_layer_input(&mut relu, &x_relu, 1e-6, 1e-7));
    }

    #[test]
    fn seq_activation_matches_flat() {
        let mut rng = Rng64::new(1);
        let mut t = Tensor3::zeros(2, 3, 2);
        rng.fill_normal(t.as_mut_slice());
        let mut seq = SeqActivation::new(ActKind::Sigmoid);
        let y = seq.forward(&t, true);
        for (o, i) in y.as_slice().iter().zip(t.as_slice()) {
            assert!((o - ActKind::Sigmoid.apply(*i)).abs() < 1e-12);
        }
        // backward against flat version
        let dy = Tensor3::from_vec(2, 3, 2, vec![1.0; 12]).unwrap();
        let dx = seq.backward(&dy);
        let mut flat = Activation::new(ActKind::Sigmoid);
        let xm = Matrix::from_vec(6, 2, t.as_slice().to_vec()).unwrap();
        flat.forward(&xm, true);
        let dxm = flat.backward(&Matrix::filled(6, 2, 1.0));
        for (a, b) in dx.as_slice().iter().zip(dxm.as_slice()) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}

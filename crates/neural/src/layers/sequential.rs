//! Layer containers: flat stacks, sequence stacks and the bridge between
//! them.

use super::{Layer, SeqLayer};
use crate::matrix::Matrix;
use crate::tensor3::Tensor3;
use crate::workspace::Workspace;

/// A stack of [`Layer`]s applied in order.
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates a stack from boxed layers.
    pub fn new(layers: Vec<Box<dyn Layer>>) -> Self {
        Self { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Layer for Sequential {
    fn forward_ws(&mut self, x: &Matrix, ws: &mut Workspace) -> Matrix {
        match self.layers.split_first_mut() {
            None => {
                let mut out = ws.take(x.rows(), x.cols());
                out.copy_from(x);
                out
            }
            Some((first, rest)) => {
                let mut cur = first.forward_ws(x, ws);
                for l in rest {
                    let next = l.forward_ws(&cur, ws);
                    ws.give(cur);
                    cur = next;
                }
                cur
            }
        }
    }

    fn backward_ws(&mut self, dy: &Matrix, ws: &mut Workspace) -> Matrix {
        match self.layers.split_last_mut() {
            None => {
                let mut out = ws.take(dy.rows(), dy.cols());
                out.copy_from(dy);
                out
            }
            Some((last, front)) => {
                let mut cur = last.backward_ws(dy, ws);
                for l in front.iter_mut().rev() {
                    let next = l.backward_ws(&cur, ws);
                    ws.give(cur);
                    cur = next;
                }
                cur
            }
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }
}

/// A stack of [`SeqLayer`]s applied in order.
pub struct SeqSequential {
    layers: Vec<Box<dyn SeqLayer>>,
}

impl SeqSequential {
    /// Creates a stack from boxed sequence layers.
    pub fn new(layers: Vec<Box<dyn SeqLayer>>) -> Self {
        Self { layers }
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the stack is empty.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl SeqLayer for SeqSequential {
    fn forward_ws(&mut self, x: &Tensor3, ws: &mut Workspace) -> Tensor3 {
        match self.layers.split_first_mut() {
            None => {
                let (b, t, f) = x.shape();
                let mut out = ws.take3(b, t, f);
                out.as_mut_slice().copy_from_slice(x.as_slice());
                out
            }
            Some((first, rest)) => {
                let mut cur = first.forward_ws(x, ws);
                for l in rest {
                    let next = l.forward_ws(&cur, ws);
                    ws.give3(cur);
                    cur = next;
                }
                cur
            }
        }
    }

    fn backward_ws(&mut self, dy: &Tensor3, ws: &mut Workspace) -> Tensor3 {
        match self.layers.split_last_mut() {
            None => {
                let (b, t, f) = dy.shape();
                let mut out = ws.take3(b, t, f);
                out.as_mut_slice().copy_from_slice(dy.as_slice());
                out
            }
            Some((last, front)) => {
                let mut cur = last.backward_ws(dy, ws);
                for l in front.iter_mut().rev() {
                    let next = l.backward_ws(&cur, ws);
                    ws.give3(cur);
                    cur = next;
                }
                cur
            }
        }
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        for l in &mut self.layers {
            l.visit_params(f);
        }
    }
}

/// Applies a flat [`Layer`] independently at every time step by reshaping
/// `(b, t, f)` to `(b*t, f)` — e.g. the fully connected head after the
/// LSTM stack in the Volume-Speed mapping (Eq. 11).
pub struct TimeDistributed<L: Layer> {
    inner: L,
    shape: Option<(usize, usize)>,
}

impl<L: Layer> TimeDistributed<L> {
    /// Wraps a flat layer.
    pub fn new(inner: L) -> Self {
        Self { inner, shape: None }
    }

    /// The wrapped layer.
    pub fn inner(&self) -> &L {
        &self.inner
    }
}

impl<L: Layer> SeqLayer for TimeDistributed<L> {
    fn forward_ws(&mut self, x: &Tensor3, ws: &mut Workspace) -> Tensor3 {
        let (b, t, f) = x.shape();
        self.shape = Some((b, t));
        // The inner layer sees `x` as a `(b*t, f)` matrix: one copy in,
        // and its output moves back out as the `(b, t, _)` tensor.
        let mut flat = ws.take(b * t, f);
        flat.as_mut_slice().copy_from_slice(x.as_slice());
        let y = self.inner.forward_ws(&flat, ws);
        ws.give(flat);
        Tensor3::from_flat(b, t, y)
    }

    fn backward_ws(&mut self, dy: &Tensor3, ws: &mut Workspace) -> Tensor3 {
        // lint: allow(panic) — precondition: backward requires a prior forward
        let (b, t) = self.shape.expect("backward called before forward");
        let mut flat = ws.take(b * t, dy.features());
        flat.as_mut_slice().copy_from_slice(dy.as_slice());
        let dx = self.inner.backward_ws(&flat, ws);
        ws.give(flat);
        Tensor3::from_flat(b, t, dx)
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.inner.visit_params(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_layer_input, check_seq_layer_input};
    use crate::layers::{ActKind, Activation, Dense};
    use crate::rng::Rng64;

    #[test]
    fn sequential_composes() {
        let mut rng = Rng64::new(0);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(3, 4, &mut rng)),
            Box::new(Activation::new(ActKind::Tanh)),
            Box::new(Dense::new(4, 2, &mut rng)),
        ]);
        let x = Matrix::filled(5, 3, 0.3);
        let y = net.forward(&x);
        assert_eq!(y.shape(), (5, 2));
        assert_eq!(net.len(), 3);
        assert_eq!(Layer::param_count(&mut net), 3 * 4 + 4 + 4 * 2 + 2);
    }

    #[test]
    fn sequential_gradcheck() {
        let mut rng = Rng64::new(1);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(3, 4, &mut rng)),
            Box::new(Activation::new(ActKind::Sigmoid)),
            Box::new(Dense::new(4, 2, &mut rng)),
        ]);
        let mut x = Matrix::zeros(4, 3);
        rng.fill_normal(x.as_mut_slice());
        assert!(check_layer_input(&mut net, &x, 1e-6, 1e-6));
    }

    #[test]
    fn time_distributed_matches_flat_application() {
        let mut rng = Rng64::new(2);
        let dense = Dense::new(2, 3, &mut rng);
        let mut td = TimeDistributed::new(dense.clone());
        let mut flat = dense;
        let mut x = Tensor3::zeros(2, 4, 2);
        rng.fill_normal(x.as_mut_slice());
        let y = td.forward(&x, true);
        let x_flat = Matrix::from_vec(8, 2, x.as_slice().to_vec()).unwrap();
        let y_flat = flat.forward(&x_flat);
        assert_eq!(y.as_slice(), y_flat.as_slice());
    }

    #[test]
    fn time_distributed_gradcheck() {
        let mut rng = Rng64::new(3);
        let mut td = TimeDistributed::new(Dense::new(2, 2, &mut rng));
        let mut x = Tensor3::zeros(2, 3, 2);
        rng.fill_normal(x.as_mut_slice());
        assert!(check_seq_layer_input(&mut td, &x, 1e-6, 1e-6));
    }

    #[test]
    fn seq_sequential_composes() {
        let mut rng = Rng64::new(4);
        let mut net = SeqSequential::new(vec![
            Box::new(crate::layers::Conv1d::new(1, 2, 3, &mut rng)),
            Box::new(crate::layers::SeqActivation::new(ActKind::Relu)),
            Box::new(TimeDistributed::new(Dense::new(2, 1, &mut rng))),
        ]);
        let x = Tensor3::zeros(2, 5, 1);
        let y = net.forward(&x, true);
        assert_eq!(y.shape(), (2, 5, 1));
        assert_eq!(net.len(), 3);
    }
}

//! Neural-network layers with exact hand-derived backpropagation.
//!
//! Two layer families:
//!
//! * [`Layer`] — operates on `(batch, features)` matrices (dense stacks);
//! * [`SeqLayer`] — operates on `(batch, time, features)` tensors
//!   (convolutions, recurrent layers).
//!
//! The contract for both: `forward_ws` caches whatever `backward_ws`
//! needs; `backward_ws` consumes the most recent forward's cache,
//! **accumulates** parameter gradients (so several backward passes sum,
//! enabling composite losses like the paper's main + auxiliary loss of
//! Eq. 13), and returns the gradient with respect to the layer's input.
//! `visit_params` exposes `(param, grad)` pairs in a deterministic order;
//! as a [`ParamVisitor`] that one walk is how the optimiser steps and
//! clips a module and how checkpoints export and import it.
//!
//! Each layer has exactly one implementation: the [`Workspace`] pair
//! `forward_ws`/`backward_ws`, which draws outputs and temporaries from a
//! reusable pool so steady-state training steps never touch the heap.
//! `forward`/`backward` are provided one-line wrappers that run it against
//! a fresh workspace, so the gradchecks, the trainer and one-off callers
//! all execute the same code. No layer has a training mode, so a forward
//! takes no `train` flag; only [`SeqLayer::forward`] still accepts (and
//! ignores) one, for the benchmark harness built against it.

mod activation;
mod conv1d;
mod dense;
mod lstm;
mod sequential;

pub use activation::{ActKind, Activation, SeqActivation};
pub use conv1d::Conv1d;
pub use dense::Dense;
pub use lstm::Lstm;
pub use sequential::{SeqSequential, Sequential, TimeDistributed};

use crate::matrix::Matrix;
use crate::tensor3::Tensor3;
use crate::workspace::Workspace;

/// A module's `visit_params` walk as a closure: called with a slot
/// visitor, it hands that visitor every `(parameter, gradient)` pair in
/// the module's fixed slot order. Any trainable module — a [`Layer`], a
/// [`SeqLayer`] or a composite such as an OVS stage — becomes one with
/// `&mut |f| module.visit_params(f)`.
pub type ParamVisitor<'v> = dyn FnMut(&mut dyn FnMut(&mut Matrix, &mut Matrix)) + 'v;

/// A differentiable transformation of `(batch, features)` matrices.
pub trait Layer {
    /// Computes the layer output, caching intermediates for the backward
    /// pass. The output and internal temporaries come from `ws`; callers
    /// should `ws.give` the returned matrix back once done.
    fn forward_ws(&mut self, x: &Matrix, ws: &mut Workspace) -> Matrix;

    /// Backpropagates `dy` (gradient w.r.t. the last forward's output),
    /// accumulating parameter gradients, and returns the gradient w.r.t.
    /// the input, drawing buffers from `ws`.
    fn backward_ws(&mut self, dy: &Matrix, ws: &mut Workspace) -> Matrix;

    /// [`Self::forward_ws`] against a fresh workspace.
    fn forward(&mut self, x: &Matrix) -> Matrix {
        self.forward_ws(x, &mut Workspace::new())
    }

    /// [`Self::backward_ws`] against a fresh workspace.
    fn backward(&mut self, dy: &Matrix) -> Matrix {
        self.backward_ws(dy, &mut Workspace::new())
    }

    /// Visits `(parameter, gradient)` pairs in a fixed order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix));

    /// Clears accumulated gradients.
    // lint: hot — runs every training step between backward and the next forward
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.fill_zero());
    }

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.len());
        n
    }
}

/// A differentiable transformation of `(batch, time, features)` tensors.
pub trait SeqLayer {
    /// Computes the layer output, caching intermediates for the backward
    /// pass. The output tensor comes from `ws`; callers should `ws.give3`
    /// it back once done.
    fn forward_ws(&mut self, x: &Tensor3, ws: &mut Workspace) -> Tensor3;

    /// Backpropagates through the last forward, accumulating parameter
    /// gradients; returns the gradient w.r.t. the input tensor, drawing
    /// buffers from `ws`.
    fn backward_ws(&mut self, dy: &Tensor3, ws: &mut Workspace) -> Tensor3;

    /// [`Self::forward_ws`] against a fresh workspace. The flag is ignored:
    /// no layer has a training mode. It stays only because the benchmark
    /// harness (`citybench/src/layers.rs`) times `forward(&x, true)` and is
    /// built against this signature.
    fn forward(&mut self, x: &Tensor3, _train: bool) -> Tensor3 {
        self.forward_ws(x, &mut Workspace::new())
    }

    /// [`Self::backward_ws`] against a fresh workspace.
    fn backward(&mut self, dy: &Tensor3) -> Tensor3 {
        self.backward_ws(dy, &mut Workspace::new())
    }

    /// Visits `(parameter, gradient)` pairs in a fixed order.
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix));

    /// Clears accumulated gradients.
    // lint: hot — runs every training step between backward and the next forward
    fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.fill_zero());
    }

    /// Total number of scalar parameters.
    fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.len());
        n
    }
}

/// Xavier/Glorot uniform initialisation for a `(fan_in, fan_out)` weight.
pub fn xavier(fan_in: usize, fan_out: usize, rng: &mut crate::rng::Rng64) -> Matrix {
    let limit = (6.0 / (fan_in + fan_out) as f64).sqrt();
    let mut m = Matrix::zeros(fan_in, fan_out);
    rng.fill_uniform(m.as_mut_slice(), -limit, limit);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    #[test]
    fn xavier_respects_limit() {
        let mut rng = Rng64::new(0);
        let w = xavier(30, 20, &mut rng);
        let limit = (6.0f64 / 50.0).sqrt();
        assert!(w.as_slice().iter().all(|v| v.abs() <= limit));
        // not all zero
        assert!(w.as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn param_count_via_visit() {
        let mut rng = Rng64::new(0);
        let mut d = Dense::new(3, 5, &mut rng);
        assert_eq!(Layer::param_count(&mut d), 3 * 5 + 5);
    }
}

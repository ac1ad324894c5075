//! 1-D convolution over the time axis.
//!
//! The paper's Route-e sub-module applies two 1x3 convolutions to the route
//! trip-count series (Eqs. 5-6, Table IV): "The convolution layers are
//! configured with 1x3 filters, and stride of 1." We implement stride-1,
//! zero-padded ("same") convolution via im2col so forward and backward are
//! plain matrix products.

use super::{xavier, SeqLayer};
use crate::matrix::Matrix;
use crate::rng::Rng64;
use crate::tensor3::Tensor3;
use crate::workspace::Workspace;

/// 1-D convolution over the time axis.
///
/// Two padding modes:
/// - [`Conv1d::new`]: stride-1, zero-padded ("same") — `(b, t, c_in) ->
///   (b, t, c_out)`, the paper's configuration.
/// - [`Conv1d::strided`]: unpadded ("valid") with stride `s` —
///   `(b, t, c_in) -> (b, (t - k)/s + 1, c_out)`, for temporal
///   downsampling.
#[derive(Debug, Clone)]
pub struct Conv1d {
    c_in: usize,
    c_out: usize,
    k: usize,
    stride: usize,
    same_pad: bool,
    /// Weight laid out `(c_in * k, c_out)`: column-major over output
    /// channels so forward is `im2col @ w`.
    w: Matrix,
    b: Matrix,
    dw: Matrix,
    db: Matrix,
    cache: Option<ConvCache>,
}

/// Forward cache, kept across calls and refilled in place while the input
/// `(batch, time)` shape holds; its buffer comes from (and on a shape
/// change returns to) the workspace.
#[derive(Debug, Clone)]
struct ConvCache {
    im2col: Matrix,
    batch: usize,
    /// Input sequence length (backward rebuilds `dx` at this length).
    time: usize,
}

impl Conv1d {
    /// Creates a Xavier-initialised convolution with odd kernel size `k`.
    pub fn new(c_in: usize, c_out: usize, k: usize, rng: &mut Rng64) -> Self {
        assert!(k % 2 == 1, "same-padding requires an odd kernel, got {k}");
        Self::build(c_in, c_out, k, 1, true, rng)
    }

    /// Creates an unpadded ("valid") convolution with stride `stride`:
    /// a sequence of length `t` shrinks to `(t - k) / stride + 1` steps.
    /// Any kernel size (odd or even) is accepted; `stride` must be
    /// positive.
    // lint: allow(dead_api) — downsampling form whose bits `ws_equivalence` pins
    pub fn strided(c_in: usize, c_out: usize, k: usize, stride: usize, rng: &mut Rng64) -> Self {
        assert!(k >= 1, "kernel must be at least 1");
        assert!(stride >= 1, "stride must be at least 1, got {stride}");
        Self::build(c_in, c_out, k, stride, false, rng)
    }

    fn build(
        c_in: usize,
        c_out: usize,
        k: usize,
        stride: usize,
        same_pad: bool,
        rng: &mut Rng64,
    ) -> Self {
        Self {
            c_in,
            c_out,
            k,
            stride,
            same_pad,
            w: xavier(c_in * k, c_out, rng),
            b: Matrix::zeros(1, c_out),
            dw: Matrix::zeros(c_in * k, c_out),
            db: Matrix::zeros(1, c_out),
            cache: None,
        }
    }

    /// Output sequence length for an input of `t` steps.
    ///
    /// Same padding preserves `t`; valid padding yields
    /// `(t - k) / stride + 1` and panics when the kernel no longer fits —
    /// the static shape analyzer (cityod-lint rule S) flags annotated
    /// stacks that would reach this at build time.
    pub fn out_time(&self, t: usize) -> usize {
        if self.same_pad {
            t
        } else {
            assert!(
                t >= self.k,
                "valid convolution needs sequence length {t} >= kernel {}",
                self.k
            );
            (t - self.k) / self.stride + 1
        }
    }

    /// Offset of input step read by output step `ti`, tap `ki` — negative
    /// or `>= t` means the tap falls in the zero padding.
    fn src_step(&self, ti: usize, ki: usize) -> isize {
        let pad = if self.same_pad { self.k / 2 } else { 0 };
        (ti * self.stride + ki) as isize - pad as isize
    }

    /// Fills the `(b * out_t, c_in * k)` im2col matrix, overwriting every
    /// element (padding taps are written as zero).
    fn im2col_into(&self, x: &Tensor3, out: &mut Matrix) {
        let (b, t, f) = x.shape();
        debug_assert_eq!(f, self.c_in);
        let out_t = self.out_time(t);
        for bi in 0..b {
            for ti in 0..out_t {
                let row = out.row_mut(bi * out_t + ti);
                for (ki, tap) in row.chunks_exact_mut(self.c_in).enumerate() {
                    let src_t = self.src_step(ti, ki);
                    if src_t < 0 || src_t >= t as isize {
                        tap.fill(0.0); // zero padding
                    } else {
                        tap.copy_from_slice(x.step(bi, src_t as usize));
                    }
                }
            }
        }
    }
}

impl SeqLayer for Conv1d {
    fn forward_ws(&mut self, x: &Tensor3, ws: &mut Workspace) -> Tensor3 {
        let (b, t, _) = x.shape();
        let out_t = self.out_time(t);
        let mut cache = match self.cache.take() {
            Some(c) if (c.batch, c.time) == (b, t) => c,
            stale => {
                if let Some(c) = stale {
                    ws.give(c.im2col);
                }
                ConvCache {
                    im2col: ws.take(b * out_t, self.c_in * self.k),
                    batch: b,
                    time: t,
                }
            }
        };
        self.im2col_into(x, &mut cache.im2col);
        let mut y = ws.take(b * out_t, self.c_out);
        cache.im2col.matmul_into(&self.w, &mut y);
        y.add_row_broadcast(&self.b);
        self.cache = Some(cache);
        Tensor3::from_flat(b, out_t, y)
    }

    fn backward_ws(&mut self, dy: &Tensor3, ws: &mut Workspace) -> Tensor3 {
        let cache = self
            .cache
            .as_ref()
            // lint: allow(panic) — precondition: backward requires a prior forward
            .expect("backward called before forward");
        let (b, t) = (cache.batch, cache.time);
        let out_t = self.out_time(t);
        debug_assert_eq!(dy.time(), out_t, "upstream gradient length mismatch");
        let (dyb, dyt, dyf) = dy.shape();
        let mut dy_flat = ws.take(dyb * dyt, dyf); // (b*out_t, c_out)
        dy_flat.as_mut_slice().copy_from_slice(dy.as_slice());
        let mut dw_t = ws.take(self.w.rows(), self.w.cols());
        cache.im2col.matmul_at_b_into(&dy_flat, &mut dw_t);
        self.dw.add_assign(&dw_t);
        ws.give(dw_t);
        let mut db_t = ws.take(1, self.c_out);
        dy_flat.sum_rows_into(&mut db_t);
        self.db.add_assign(&db_t);
        ws.give(db_t);

        // d(im2col) = dy @ w^T, then scatter-add back through the padding.
        let mut dcols = ws.take(dy_flat.rows(), self.w.rows()); // (b*out_t, c_in*k)
        dy_flat.matmul_a_bt_into(&self.w, &mut dcols);
        ws.give(dy_flat);
        let mut dx = ws.take3(b, t, self.c_in);
        for bi in 0..b {
            for ti in 0..out_t {
                let row = dcols.row(bi * out_t + ti);
                for (ki, tap) in row.chunks_exact(self.c_in).enumerate() {
                    let src_t = self.src_step(ti, ki);
                    if src_t < 0 || src_t >= t as isize {
                        continue;
                    }
                    let dst = dx.step_mut(bi, src_t as usize);
                    for (d, &g) in dst.iter_mut().zip(tap) {
                        *d += g;
                    }
                }
            }
        }
        ws.give(dcols);
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
    use crate::gradcheck::{check_seq_layer_input, check_seq_layer_params};

    #[test]
    fn output_shape() {
        let mut rng = Rng64::new(0);
        let mut c = Conv1d::new(2, 3, 3, &mut rng);
        let x = Tensor3::zeros(4, 7, 2);
        let y = c.forward(&x, true);
        assert_eq!(y.shape(), (4, 7, 3));
    }

    #[test]
    fn identity_kernel_reproduces_input() {
        let mut rng = Rng64::new(0);
        let mut c = Conv1d::new(1, 1, 3, &mut rng);
        // kernel [0, 1, 0] -> identity
        c.w.fill_zero();
        c.w.set(1, 0, 1.0);
        let x = Tensor3::from_vec(1, 5, 1, vec![1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        let y = c.forward(&x, true);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn shift_kernel_pads_with_zero() {
        let mut rng = Rng64::new(0);
        let mut c = Conv1d::new(1, 1, 3, &mut rng);
        // kernel [1, 0, 0]: output_t = input_{t-1}
        c.w.fill_zero();
        c.w.set(0, 0, 1.0);
        let x = Tensor3::from_vec(1, 4, 1, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let y = c.forward(&x, true);
        assert_eq!(y.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn averaging_kernel() {
        let mut rng = Rng64::new(0);
        let mut c = Conv1d::new(1, 1, 3, &mut rng);
        for i in 0..3 {
            c.w.set(i, 0, 1.0 / 3.0);
        }
        c.b.set(0, 0, 0.0);
        let x = Tensor3::from_vec(1, 3, 1, vec![3.0, 3.0, 3.0]).unwrap();
        let y = c.forward(&x, true);
        // middle element sees all three
        assert!((y.get(0, 1, 0) - 3.0).abs() < 1e-12);
        // edges see two values + zero pad
        assert!((y.get(0, 0, 0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = Rng64::new(1);
        let mut c = Conv1d::new(2, 3, 3, &mut rng);
        let mut x = Tensor3::zeros(2, 5, 2);
        rng.fill_normal(x.as_mut_slice());
        assert!(check_seq_layer_input(&mut c, &x, 1e-6, 1e-6));
        assert!(check_seq_layer_params(&mut c, &x, 1e-6, 1e-6));
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn even_kernel_rejected() {
        let mut rng = Rng64::new(0);
        // lint: allow(shape) — the even kernel is the point: this test
        // asserts the constructor panic the analyzer statically predicts.
        let _ = Conv1d::new(1, 1, 4, &mut rng);
    }

    #[test]
    fn strided_output_shape() {
        let mut rng = Rng64::new(0);
        // t' = (t - k)/s + 1 = (9 - 3)/2 + 1 = 4
        let mut c = Conv1d::strided(2, 3, 3, 2, &mut rng);
        let x = Tensor3::zeros(4, 9, 2);
        let y = c.forward(&x, true);
        assert_eq!(y.shape(), (4, 4, 3));
        // A stride of 2 drops every other window start.
        for (t, out) in [(9, 4), (10, 4), (11, 5), (3, 1)] {
            assert_eq!(c.out_time(t), out, "t = {t}");
        }
    }

    #[test]
    fn strided_pick_kernel_downsamples() {
        let mut rng = Rng64::new(0);
        // kernel [1, 0] with stride 2 picks every even-indexed element.
        let mut c = Conv1d::strided(1, 1, 2, 2, &mut rng);
        c.w.fill_zero();
        c.w.set(0, 0, 1.0);
        let x = Tensor3::from_vec(1, 6, 1, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let y = c.forward(&x, true);
        assert_eq!(y.as_slice(), &[1.0, 3.0, 5.0]);
    }

    #[test]
    fn strided_gradients_match_finite_difference() {
        let mut rng = Rng64::new(1);
        let mut c = Conv1d::strided(2, 3, 3, 2, &mut rng);
        let mut x = Tensor3::zeros(2, 7, 2);
        rng.fill_normal(x.as_mut_slice());
        assert!(check_seq_layer_input(&mut c, &x, 1e-6, 1e-6));
        assert!(check_seq_layer_params(&mut c, &x, 1e-6, 1e-6));
    }

    #[test]
    #[should_panic(expected = "sequence length")]
    fn strided_kernel_longer_than_sequence_panics() {
        let mut rng = Rng64::new(0);
        let mut c = Conv1d::strided(1, 1, 5, 1, &mut rng);
        let _ = c.forward(&Tensor3::zeros(1, 3, 1), true);
    }
}

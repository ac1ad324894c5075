//! Rank-3 tensors `(batch, time, features)` for sequence layers.

use crate::matrix::{Matrix, ShapeError};
use serde::{Deserialize, Serialize};

/// A dense `(batch, time, features)` tensor, row-major with `features`
/// fastest.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor3 {
    b: usize,
    t: usize,
    f: usize,
    data: Vec<f64>,
}

impl Tensor3 {
    /// Zero tensor of shape `(b, t, f)`.
    pub fn zeros(b: usize, t: usize, f: usize) -> Self {
        Self {
            b,
            t,
            f,
            data: vec![0.0; b * t * f],
        }
    }

    /// Wraps a flat buffer in `(b, t, f)` order.
    pub fn from_vec(b: usize, t: usize, f: usize, data: Vec<f64>) -> Result<Self, ShapeError> {
        if data.len() != b * t * f {
            return Err(ShapeError(format!(
                "expected {b}x{t}x{f}={} values, got {}",
                b * t * f,
                data.len()
            )));
        }
        Ok(Self { b, t, f, data })
    }

    /// Lifts a `(batch, time)` matrix into a single-feature sequence
    /// tensor — how per-link volume series enter the LSTM stack.
    pub fn from_matrix_single_feature(m: &Matrix) -> Self {
        Self {
            b: m.rows(),
            t: m.cols(),
            f: 1,
            data: m.as_slice().to_vec(),
        }
    }

    /// Collapses a single-feature tensor back into a `(batch, time)` matrix.
    pub fn to_matrix_single_feature(&self) -> Result<Matrix, ShapeError> {
        if self.f != 1 {
            return Err(ShapeError(format!(
                "expected 1 feature, tensor has {}",
                self.f
            )));
        }
        Matrix::from_vec(self.b, self.t, self.data.clone())
    }

    /// Batch size.
    #[inline]
    pub fn batch(&self) -> usize {
        self.b
    }

    /// Sequence length.
    #[inline]
    pub fn time(&self) -> usize {
        self.t
    }

    /// Feature width.
    #[inline]
    pub fn features(&self) -> usize {
        self.f
    }

    /// `(batch, time, features)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.b, self.t, self.f)
    }

    /// Element access.
    #[inline]
    pub fn get(&self, b: usize, t: usize, f: usize) -> f64 {
        debug_assert!(b < self.b && t < self.t && f < self.f);
        // lint: allow(panic) — bounds checked by the debug_assert above
        self.data[(b * self.t + t) * self.f + f]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, b: usize, t: usize, f: usize, v: f64) {
        debug_assert!(b < self.b && t < self.t && f < self.f);
        // lint: allow(panic) — bounds checked by the debug_assert above
        self.data[(b * self.t + t) * self.f + f] = v;
    }

    /// The feature vector at `(b, t)`.
    #[inline]
    pub fn step(&self, b: usize, t: usize) -> &[f64] {
        debug_assert!(b < self.b && t < self.t);
        let base = (b * self.t + t) * self.f;
        // lint: allow(panic) — bounds checked by the debug_assert above
        &self.data[base..base + self.f]
    }

    /// Mutable feature vector at `(b, t)`.
    #[inline]
    pub fn step_mut(&mut self, b: usize, t: usize) -> &mut [f64] {
        debug_assert!(b < self.b && t < self.t);
        let base = (b * self.t + t) * self.f;
        // lint: allow(panic) — bounds checked by the debug_assert above
        &mut self.data[base..base + self.f]
    }

    /// Copies time step `t` for all batches into a caller-owned
    /// `(batch, features)` matrix (overwritten).
    pub fn read_time_slice(&self, t: usize, out: &mut Matrix) {
        assert_eq!(out.rows(), self.b, "time slice batch mismatch");
        assert_eq!(out.cols(), self.f, "time slice feature mismatch");
        for b in 0..self.b {
            out.row_mut(b).copy_from_slice(self.step(b, t));
        }
    }

    /// Writes a `(batch, features)` matrix into time step `t`.
    pub fn set_time_slice(&mut self, t: usize, m: &Matrix) {
        assert_eq!(m.rows(), self.b, "time slice batch mismatch");
        assert_eq!(m.cols(), self.f, "time slice feature mismatch");
        for b in 0..self.b {
            self.step_mut(b, t).copy_from_slice(m.row(b));
        }
    }

    /// Reinterprets a `(b * t, f)` matrix as a `(b, t, f)` tensor by
    /// moving its buffer: the time-distributed view, without a copy.
    pub(crate) fn from_flat(b: usize, t: usize, m: Matrix) -> Tensor3 {
        assert_eq!(m.rows(), b * t, "flat matrix row count mismatch");
        let f = m.cols();
        Tensor3 {
            b,
            t,
            f,
            data: m.into_raw(),
        }
    }

    /// Flat view of the data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable view of the data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// True when every element is finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Consumes the tensor, returning its backing buffer (for the
    /// workspace pool).
    pub(crate) fn into_raw(self) -> Vec<f64> {
        self.data
    }

    /// Builds a `(b, t, f)` zero tensor on top of a recycled buffer,
    /// reusing its capacity.
    pub(crate) fn from_raw(b: usize, t: usize, f: usize, mut buf: Vec<f64>) -> Tensor3 {
        buf.clear();
        buf.resize(b * t * f, 0.0);
        Tensor3 { b, t, f, data: buf }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_access() {
        let mut t = Tensor3::zeros(2, 3, 4);
        assert_eq!(t.shape(), (2, 3, 4));
        t.set(1, 2, 3, 7.0);
        assert_eq!(t.get(1, 2, 3), 7.0);
        assert_eq!(t.step(1, 2)[3], 7.0);
        assert!(Tensor3::from_vec(2, 2, 2, vec![0.0; 7]).is_err());
    }

    #[test]
    fn matrix_roundtrip_single_feature() {
        let m = Matrix::from_fn(3, 4, |r, c| (r * 4 + c) as f64);
        let t = Tensor3::from_matrix_single_feature(&m);
        assert_eq!(t.shape(), (3, 4, 1));
        assert_eq!(t.get(2, 1, 0), 9.0);
        assert_eq!(t.to_matrix_single_feature().unwrap(), m);
    }

    #[test]
    fn to_matrix_rejects_multi_feature() {
        let t = Tensor3::zeros(1, 2, 3);
        assert!(t.to_matrix_single_feature().is_err());
    }

    #[test]
    fn time_slice_roundtrip() {
        let mut t = Tensor3::zeros(2, 3, 2);
        let m = Matrix::from_fn(2, 2, |r, c| (10 * r + c) as f64 + 1.0);
        t.set_time_slice(1, &m);
        let mut back = Matrix::filled(2, 2, 5.0);
        t.read_time_slice(1, &mut back);
        assert_eq!(back, m);
        t.read_time_slice(0, &mut back);
        assert_eq!(back, Matrix::zeros(2, 2));
        assert_eq!(t.get(1, 1, 0), 11.0);
    }

    #[test]
    fn from_flat_keeps_row_major_order() {
        let m = Matrix::from_fn(4, 3, |r, c| (3 * r + c) as f64);
        let t = Tensor3::from_flat(2, 2, m);
        assert_eq!(t.shape(), (2, 2, 3));
        assert_eq!(t.step(1, 1), &[9.0, 10.0, 11.0]);
    }

    #[test]
    fn finiteness() {
        let mut t = Tensor3::zeros(1, 1, 2);
        assert!(t.is_finite());
        t.set(0, 0, 1, f64::INFINITY);
        assert!(!t.is_finite());
    }
}

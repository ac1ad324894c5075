//! Traffic tensors.
//!
//! The paper manipulates two tensor shapes:
//!
//! * the 2-D temporal origin-destination tensor `G` with `G[i, t]` = trip
//!   count of OD pair `i` departing during time interval `t`
//!   ([`TodTensor`], shape `N_od x T`);
//! * per-link observation tensors holding volume `q_{j,t}` or average speed
//!   `v_{j,t}` ([`LinkTensor`], shape `M x T`).
//!
//! Both are dense row-major `f64` matrices with strong shape checking; rows
//! are indexed by the corresponding typed id.

use crate::error::{Result, RoadnetError};
use crate::ids::{LinkId, OdPairId};
use serde::{Deserialize, Serialize};

macro_rules! series_tensor {
    ($(#[$doc:meta])* $name:ident, $row_id:ident, $rows_doc:literal) => {
        $(#[$doc])*
        #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
        pub struct $name {
            rows: usize,
            t: usize,
            data: Vec<f64>,
        }

        impl $name {
            /// Creates a zero-filled tensor with the given shape.
            pub fn zeros(rows: usize, t: usize) -> Self {
                Self { rows, t, data: vec![0.0; rows * t] }
            }

            /// Creates a tensor filled with `value`.
            pub fn filled(rows: usize, t: usize, value: f64) -> Self {
                Self { rows, t, data: vec![value; rows * t] }
            }

            /// Wraps row-major data, checking the shape.
            pub fn from_data(rows: usize, t: usize, data: Vec<f64>) -> Result<Self> {
                if data.len() != rows * t {
                    return Err(RoadnetError::ShapeMismatch {
                        expected: format!("{rows} x {t} = {}", rows * t),
                        actual: format!("{} values", data.len()),
                    });
                }
                Ok(Self { rows, t, data })
            }

            #[doc = $rows_doc]
            #[inline]
            pub fn rows(&self) -> usize {
                self.rows
            }

            /// Number of time intervals `T`.
            #[inline]
            pub fn num_intervals(&self) -> usize {
                self.t
            }

            /// Value at `(row, t)`; panics on out-of-range indices.
            #[inline]
            pub fn get(&self, row: $row_id, t: usize) -> f64 {
                debug_assert!(row.index() < self.rows && t < self.t);
                // lint: allow(panic) — hot-path accessor with a documented
                // out-of-range panic; callers index by typed id.
                self.data[row.index() * self.t + t]
            }

            /// Sets the value at `(row, t)`; panics on out-of-range indices.
            #[inline]
            pub fn set(&mut self, row: $row_id, t: usize, value: f64) {
                debug_assert!(row.index() < self.rows && t < self.t);
                // lint: allow(panic) — hot-path accessor with a documented
                // out-of-range panic; callers index by typed id.
                self.data[row.index() * self.t + t] = value;
            }

            /// Adds `delta` to the value at `(row, t)`.
            #[inline]
            pub fn add_at(&mut self, row: $row_id, t: usize, delta: f64) {
                debug_assert!(row.index() < self.rows && t < self.t);
                // lint: allow(panic) — hot-path accessor with a documented
                // out-of-range panic; callers index by typed id.
                self.data[row.index() * self.t + t] += delta;
            }

            /// The time series of one row.
            #[inline]
            pub fn row(&self, row: $row_id) -> &[f64] {
                let start = row.index() * self.t;
                // lint: allow(panic) — hot-path accessor with a documented
                // out-of-range panic; callers index by typed id.
                &self.data[start..start + self.t]
            }

            /// Mutable access to one row's time series.
            #[inline]
            pub fn row_mut(&mut self, row: $row_id) -> &mut [f64] {
                let start = row.index() * self.t;
                // lint: allow(panic) — hot-path accessor with a documented
                // out-of-range panic; callers index by typed id.
                &mut self.data[start..start + self.t]
            }

            /// Flat row-major view of all values.
            #[inline]
            pub fn as_slice(&self) -> &[f64] {
                &self.data
            }

            /// Flat mutable row-major view of all values.
            #[inline]
            pub fn as_mut_slice(&mut self) -> &mut [f64] {
                &mut self.data
            }

            /// Sum over the whole tensor.
            pub fn total(&self) -> f64 {
                self.data.iter().sum()
            }

            /// Sum of one row across all intervals (the paper's
            /// `sum_t g_{i,t}`, constrained by LEHD census data in the
            /// auxiliary loss of §IV-E).
            pub fn row_total(&self, row: $row_id) -> f64 {
                self.row(row).iter().sum()
            }

            /// Applies `f` to every value in place.
            pub fn map_inplace(&mut self, mut f: impl FnMut(f64) -> f64) {
                for v in &mut self.data {
                    *v = f(*v);
                }
            }

            /// Multiplies every value by `factor` (the paper's taxi-to-fleet
            /// scaling of §V-B uses this).
            pub fn scale(&mut self, factor: f64) {
                self.map_inplace(|v| v * factor);
            }

            /// Clamps every value into `[lo, hi]`.
            pub fn clamp(&mut self, lo: f64, hi: f64) {
                self.map_inplace(|v| v.clamp(lo, hi));
            }

            /// Element-wise sum with a same-shaped tensor.
            pub fn add(&mut self, other: &Self) -> Result<()> {
                self.check_same_shape(other)?;
                for (a, b) in self.data.iter_mut().zip(&other.data) {
                    *a += b;
                }
                Ok(())
            }

            /// The paper's RMSE metric (§V-G): mean over intervals of the
            /// per-interval root-mean-square error across rows.
            pub fn rmse(&self, other: &Self) -> Result<f64> {
                self.check_same_shape(other)?;
                if self.t == 0 || self.rows == 0 {
                    return Ok(0.0);
                }
                let mut acc = 0.0;
                for t in 0..self.t {
                    let mut sq = 0.0;
                    for (a, b) in self
                        .data
                        .iter()
                        .skip(t)
                        .step_by(self.t)
                        .zip(other.data.iter().skip(t).step_by(self.t))
                    {
                        let d = a - b;
                        sq += d * d;
                    }
                    acc += (sq / self.rows as f64).sqrt();
                }
                Ok(acc / self.t as f64)
            }

            /// True when every value is finite.
            pub fn is_finite(&self) -> bool {
                self.data.iter().all(|v| v.is_finite())
            }

            /// True when every value is >= 0.
            // lint: allow(dead_api) — invariant checker the tensor-producing tests assert
            pub fn is_non_negative(&self) -> bool {
                self.data.iter().all(|&v| v >= 0.0)
            }

            fn check_same_shape(&self, other: &Self) -> Result<()> {
                if self.rows != other.rows || self.t != other.t {
                    return Err(RoadnetError::ShapeMismatch {
                        expected: format!("{} x {}", self.rows, self.t),
                        actual: format!("{} x {}", other.rows, other.t),
                    });
                }
                Ok(())
            }
        }
    };
}

series_tensor!(
    /// The temporal origin-destination tensor `G` (`N_od x T`): trip counts
    /// per OD pair and departure interval.
    TodTensor,
    OdPairId,
    "Number of OD pairs `N`."
);

series_tensor!(
    /// A per-link observation tensor (`M x T`): volume `q` or speed `v`
    /// per link and time interval.
    LinkTensor,
    LinkId,
    "Number of links `M`."
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_shape_and_total() {
        let t = TodTensor::zeros(3, 4);
        assert_eq!(t.rows(), 3);
        assert_eq!(t.num_intervals(), 4);
        assert_eq!(t.total(), 0.0);
        assert!(t.is_finite());
        assert!(t.is_non_negative());
    }

    #[test]
    fn from_data_checks_shape() {
        assert!(TodTensor::from_data(2, 3, vec![0.0; 6]).is_ok());
        assert!(TodTensor::from_data(2, 3, vec![0.0; 5]).is_err());
    }

    #[test]
    fn get_set_row_roundtrip() {
        let mut t = TodTensor::zeros(2, 3);
        t.set(OdPairId(1), 2, 5.5);
        t.add_at(OdPairId(1), 2, 0.5);
        assert_eq!(t.get(OdPairId(1), 2), 6.0);
        assert_eq!(t.row(OdPairId(1)), &[0.0, 0.0, 6.0]);
        assert_eq!(t.row_total(OdPairId(1)), 6.0);
        t.row_mut(OdPairId(0)).copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(t.row_total(OdPairId(0)), 6.0);
        assert_eq!(t.total(), 12.0);
    }

    #[test]
    fn scale_and_clamp() {
        let mut t = LinkTensor::from_data(1, 4, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        t.scale(2.0);
        assert_eq!(t.as_slice(), &[2.0, 4.0, 6.0, 8.0]);
        t.clamp(3.0, 7.0);
        assert_eq!(t.as_slice(), &[3.0, 4.0, 6.0, 7.0]);
    }

    #[test]
    fn add_requires_same_shape() {
        let mut a = TodTensor::zeros(2, 2);
        let b = TodTensor::filled(2, 2, 1.5);
        a.add(&b).unwrap();
        assert_eq!(a.total(), 6.0);
        let c = TodTensor::zeros(2, 3);
        assert!(a.add(&c).is_err());
    }

    #[test]
    fn rmse_zero_on_identical() {
        let a = TodTensor::from_data(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.rmse(&a).unwrap(), 0.0);
    }

    #[test]
    fn rmse_matches_hand_computation() {
        // rows=2, t=2; diffs: t0 -> (1, 2), t1 -> (0, 2)
        let a = TodTensor::from_data(2, 2, vec![1.0, 0.0, 0.0, 0.0]).unwrap();
        let b = TodTensor::from_data(2, 2, vec![0.0, 0.0, 2.0, 2.0]).unwrap();
        // t0: sqrt((1 + 4)/2); t1: sqrt((0 + 4)/2); mean of the two
        let expected = ((5.0f64 / 2.0).sqrt() + 2.0f64.sqrt()) / 2.0;
        assert!((a.rmse(&b).unwrap() - expected).abs() < 1e-12);
        // symmetric
        assert!((a.rmse(&b).unwrap() - b.rmse(&a).unwrap()).abs() < 1e-15);
    }

    #[test]
    fn rmse_shape_mismatch_is_error() {
        let a = TodTensor::zeros(2, 2);
        let b = TodTensor::zeros(2, 3);
        assert!(a.rmse(&b).is_err());
    }

    #[test]
    fn finiteness_checks() {
        let mut t = TodTensor::zeros(1, 2);
        t.set(OdPairId(0), 0, f64::NAN);
        assert!(!t.is_finite());
        let mut t = TodTensor::zeros(1, 2);
        t.set(OdPairId(0), 1, -0.5);
        assert!(!t.is_non_negative());
    }

    #[test]
    fn serde_round_trip() {
        let t = TodTensor::from_data(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let json = serde_json::to_string(&t).unwrap();
        let back: TodTensor = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}

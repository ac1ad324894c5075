//! The GLS baseline (§V-F).
//!
//! "These methods assume a linear assignment matrix that maps TOD to link
//! volume. A neural net is stacked behind to predict the speed."
//!
//! The classic generalised-least-squares pipeline (Cascetta 1984; Bell
//! 1991), adapted to speed observations:
//!
//! 1. the **assignment matrix** `A` (`q_t = A^T g_t`) is fitted by ridge
//!    least squares over all per-interval snapshots of the corpus;
//! 2. a per-link **volume-speed regression** (the stacked speed predictor;
//!    we keep it linear per link, which is what makes the method GLS and
//!    not OVS) is fitted on the corpus and *inverted* to turn the observed
//!    speeds into volume estimates;
//! 3. each interval's TOD is the regularised least-squares solution of
//!    `A^T g = q_est`, clamped to non-negative trip counts.
//!
//! Everything is a linear solve — deterministic, fast, and exactly as
//! brittle as the paper argues: the linear assignment cannot express
//! congestion-dependent delays, which is why OVS's dynamic attention
//! beats it.

use crate::linalg::{ridge, solve};
use neural::Matrix;
use ovs_core::estimator::{link_to_matrix, tod_to_matrix};
use ovs_core::{EstimatorInput, TodEstimator};
use roadnet::{OdPairId, Result, RoadnetError, TodTensor};

/// The GLS estimator.
#[derive(Debug)]
pub struct GlsEstimator {
    /// Ridge regularisation for the assignment matrix.
    pub lambda_a: f64,
    /// Relative regularisation of the per-interval TOD solve.
    pub lambda_g: f64,
}

impl GlsEstimator {
    /// Creates the estimator. The `seed` parameter is kept for interface
    /// symmetry with the stochastic baselines; GLS itself is
    /// deterministic.
    pub fn new(_seed: u64) -> Self {
        Self {
            lambda_a: 1e-2,
            lambda_g: 0.05,
        }
    }
}

/// Stacks per-interval snapshots: rows = (sample, interval).
fn snapshots(input: &EstimatorInput<'_>) -> (Matrix, Matrix, Matrix) {
    let n = input.n_od();
    let m = input.n_links();
    let t = input.n_intervals();
    let rows = input.train.len() * t;
    let mut g = Matrix::zeros(rows, n);
    let mut q = Matrix::zeros(rows, m);
    let mut v = Matrix::zeros(rows, m);
    for (s, sample) in input.train.iter().enumerate() {
        let gm = tod_to_matrix(&sample.tod);
        let qm = link_to_matrix(&sample.volume);
        let vm = link_to_matrix(&sample.speed);
        for ti in 0..t {
            let r = s * t + ti;
            for i in 0..n {
                g.set(r, i, gm.get(i, ti));
            }
            for j in 0..m {
                q.set(r, j, qm.get(j, ti));
                v.set(r, j, vm.get(j, ti));
            }
        }
    }
    (g, q, v)
}

/// Per-link 1-D least squares `q = a + b v`; returns `(a, b)` per link.
fn fit_speed_inverse(q: &Matrix, v: &Matrix) -> Vec<(f64, f64)> {
    let rows = q.rows();
    let m = q.cols();
    (0..m)
        .map(|j| {
            let (mut sv, mut sq, mut svv, mut svq) = (0.0, 0.0, 0.0, 0.0);
            for r in 0..rows {
                let vv = v.get(r, j);
                let qv = q.get(r, j);
                sv += vv;
                sq += qv;
                svv += vv * vv;
                svq += vv * qv;
            }
            let nf = rows as f64;
            let denom = nf * svv - sv * sv;
            if denom.abs() < 1e-9 {
                (sq / nf.max(1.0), 0.0)
            } else {
                let b = (nf * svq - sv * sq) / denom;
                let a = (sq - b * sv) / nf;
                (a, b)
            }
        })
        .collect()
}

impl TodEstimator for GlsEstimator {
    fn name(&self) -> &str {
        "GLS"
    }

    fn estimate(&mut self, input: &EstimatorInput<'_>) -> Result<TodTensor> {
        ovs_core::estimator::validate_input(input)?;
        if input.train.is_empty() {
            return Err(RoadnetError::InvalidSpec(
                "GLS requires a training corpus".into(),
            ));
        }
        let n = input.n_od();
        let m = input.n_links();
        let t = input.n_intervals();

        // 1. assignment matrix: q_row = g_row @ A, A is (n, m).
        let (g_snap, q_snap, v_snap) = snapshots(input);
        let a = ridge(&g_snap, &q_snap, self.lambda_a)
            .ok_or_else(|| RoadnetError::InvalidSpec("assignment-matrix solve failed".into()))?;

        // 2. invert the observed speeds into volume estimates.
        let inv = fit_speed_inverse(&q_snap, &v_snap);
        let v_obs = link_to_matrix(input.observed_speed); // (m, t)
        let mut q_est = Matrix::zeros(t, m);
        for ti in 0..t {
            for (j, &(c0, c1)) in inv.iter().enumerate() {
                q_est.set(ti, j, (c0 + c1 * v_obs.get(j, ti)).max(0.0));
            }
        }

        // 3. per-interval regularised solve: (A A^T + lam I) g = A q_est.
        let mut aat = a.matmul_a_bt(&a); // (n, n)
        let trace: f64 = (0..n).map(|i| aat.get(i, i)).sum();
        let lam = self.lambda_g * trace / n.max(1) as f64 + 1e-9;
        for i in 0..n {
            let v = aat.get(i, i);
            aat.set(i, i, v + lam);
        }
        // Regularise toward the corpus mean rather than zero: the
        // classical GLS target matrix.
        let g_prior = g_snap.mean();

        let mut tod = TodTensor::zeros(n, t);
        for ti in 0..t {
            let rhs: Vec<f64> = (0..n)
                .map(|i| {
                    let mut acc = lam * g_prior;
                    for j in 0..m {
                        acc += a.get(i, j) * q_est.get(ti, j);
                    }
                    acc
                })
                .collect();
            let sol = solve(&aat, &rhs)
                .ok_or_else(|| RoadnetError::InvalidSpec("per-interval TOD solve failed".into()))?;
            for (i, g) in sol.into_iter().enumerate() {
                tod.set(OdPairId(i), ti, g.max(0.0));
            }
        }
        Ok(tod)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_matches() {
        assert_eq!(GlsEstimator::new(0).name(), "GLS");
    }

    #[test]
    fn speed_inverse_recovers_linear_law() {
        // q = 10 - 2 v exactly.
        let rows = 8;
        let v = Matrix::from_fn(rows, 1, |r, _| r as f64 * 0.5);
        let q = Matrix::from_fn(rows, 1, |r, _| 10.0 - 2.0 * v.get(r, 0));
        let fit = fit_speed_inverse(&q, &v);
        assert!((fit[0].0 - 10.0).abs() < 1e-9);
        assert!((fit[0].1 + 2.0).abs() < 1e-9);
    }

    #[test]
    fn speed_inverse_handles_constant_speed() {
        let v = Matrix::filled(5, 1, 3.0);
        let q = Matrix::from_fn(5, 1, |r, _| r as f64);
        let fit = fit_speed_inverse(&q, &v);
        assert_eq!(fit[0].1, 0.0);
        assert!((fit[0].0 - 2.0).abs() < 1e-9, "falls back to mean volume");
    }
}

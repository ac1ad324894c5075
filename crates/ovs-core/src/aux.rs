//! Auxiliary losses (paper §IV-E, Table II, Eq. 13).
//!
//! The inverse problem is ill-posed: many TOD tensors explain the same
//! speed field (§I, challenge 3). Auxiliary data prunes the solution set:
//!
//! * **census (LEHD)** constrains each OD's *daily total*:
//!   `l_aux = mean_i (sum_t g_{i,t} - c_i)^2` — the exact form given in
//!   §IV-E;
//! * **cameras** constrain the volume series of a few instrumented links:
//!   `l_aux = mean over instrumented cells (q_{j,t} - obs_{j,t})^2`.
//!
//! Each writes its gradient into a caller-owned buffer (every cell
//! overwritten) and returns the loss, so the test-time fit folds them into
//! the overall objective `l = l_main + w_g l_g + w_q l_q` (Eq. 13) without
//! allocating.

use neural::Matrix;
use roadnet::LinkId;

/// Census constraint on daily OD totals. `g` is the generated TOD
/// `(N, T)`; `totals` the LEHD daily counts per OD. Writes `d loss / d g`
/// into `grad` (same shape as `g`) and returns the loss.
// lint: hot — the zero-alloc test-time fit's census term
pub fn census_loss_into(g: &Matrix, totals: &[f64], grad: &mut Matrix) -> f64 {
    assert_eq!(g.rows(), totals.len(), "census totals must cover every OD");
    assert_eq!(grad.shape(), g.shape(), "census gradient shape mismatch");
    let n = g.rows().max(1) as f64;
    let mut loss = 0.0;
    for (i, &target) in totals.iter().enumerate() {
        let row_sum: f64 = g.row(i).iter().sum();
        let diff = row_sum - target;
        loss += diff * diff;
        let dv = 2.0 * diff / n;
        for v in grad.row_mut(i) {
            *v = dv;
        }
    }
    loss / n
}

/// Camera constraint on instrumented link volumes. `q` is the predicted
/// volume `(M, T)`; `links`/`observations` the instrumented links and
/// their observed series. Writes `d loss / d q` into `grad` (same shape as
/// `q`; zero on uninstrumented links) and returns the loss.
// lint: hot — the zero-alloc test-time fit's camera term
pub fn camera_loss_into(
    q: &Matrix,
    links: &[LinkId],
    observations: &[Vec<f64>],
    grad: &mut Matrix,
) -> f64 {
    assert_eq!(
        links.len(),
        observations.len(),
        "one observation series per instrumented link"
    );
    assert_eq!(grad.shape(), q.shape(), "camera gradient shape mismatch");
    grad.fill_zero();
    if links.is_empty() {
        return 0.0;
    }
    let cells = (links.len() * q.cols()).max(1) as f64;
    let mut loss = 0.0;
    for (l, obs) in links.iter().zip(observations) {
        assert_eq!(obs.len(), q.cols(), "observation horizon mismatch");
        for (t, &o) in obs.iter().enumerate() {
            let diff = q.get(l.index(), t) - o;
            loss += diff * diff;
            grad.set(l.index(), t, 2.0 * diff / cells);
        }
    }
    loss / cells
}

/// Speed-limit constraint (Table II's static speed-level data): predicted
/// speeds must not exceed the legal limits. Writes the gradient of
/// `mean over cells of max(0, v - limit)^2` into `grad` (same shape as
/// `v`) and returns the loss. Zero loss whenever predictions are physical,
/// so the term only activates when the learned V2S extrapolates badly.
// lint: hot — the zero-alloc test-time fit's speed-limit term
pub fn speed_limit_loss_into(v: &Matrix, limits: &[f64], grad: &mut Matrix) -> f64 {
    assert_eq!(v.rows(), limits.len(), "one speed limit per link required");
    assert_eq!(
        grad.shape(),
        v.shape(),
        "speed-limit gradient shape mismatch"
    );
    let cells = v.len().max(1) as f64;
    let mut loss = 0.0;
    for (j, &limit) in limits.iter().enumerate() {
        for t in 0..v.cols() {
            let excess = v.get(j, t) - limit;
            let d = if excess > 0.0 {
                loss += excess * excess;
                2.0 * excess / cells
            } else {
                0.0
            };
            grad.set(j, t, d);
        }
    }
    loss / cells
}

#[cfg(test)]
mod tests {
    use super::*;

    // Fresh-buffer forms of the three losses, as the tests read them.
    fn census_loss(g: &Matrix, totals: &[f64]) -> (f64, Matrix) {
        let mut grad = Matrix::zeros(g.rows(), g.cols());
        (census_loss_into(g, totals, &mut grad), grad)
    }

    fn camera_loss(q: &Matrix, links: &[LinkId], obs: &[Vec<f64>]) -> (f64, Matrix) {
        let mut grad = Matrix::zeros(q.rows(), q.cols());
        (camera_loss_into(q, links, obs, &mut grad), grad)
    }

    fn speed_limit_loss(v: &Matrix, limits: &[f64]) -> (f64, Matrix) {
        let mut grad = Matrix::zeros(v.rows(), v.cols());
        (speed_limit_loss_into(v, limits, &mut grad), grad)
    }

    /// A buffer left over from an unrelated step: every cell non-zero.
    fn dirty(rows: usize, cols: usize) -> Matrix {
        Matrix::filled(rows, cols, f64::NAN)
    }

    fn same_bits(a: &Matrix, b: &Matrix) -> bool {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn census_overwrites_a_dirty_buffer() {
        let g = Matrix::from_vec(2, 3, vec![1.0, 2.0, 0.5, 4.0, 1.0, 2.0]).unwrap();
        let totals = [5.0, 6.0];
        let (loss, fresh) = census_loss(&g, &totals);
        let mut grad = dirty(2, 3);
        let l = census_loss_into(&g, &totals, &mut grad);
        assert_eq!(l.to_bits(), loss.to_bits());
        assert!(same_bits(&grad, &fresh));
    }

    #[test]
    fn camera_overwrites_a_dirty_buffer() {
        let q = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let links = [LinkId(1)];
        let obs = vec![vec![3.0, 0.0]];
        let (loss, fresh) = camera_loss(&q, &links, &obs);
        let mut grad = dirty(3, 2);
        let l = camera_loss_into(&q, &links, &obs, &mut grad);
        assert_eq!(l.to_bits(), loss.to_bits());
        assert!(same_bits(&grad, &fresh));
        // No cameras at all still clears the buffer.
        let mut grad = dirty(3, 2);
        assert_eq!(camera_loss_into(&q, &[], &[], &mut grad), 0.0);
        assert!(grad.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn speed_limit_overwrites_a_dirty_buffer() {
        let v = Matrix::from_vec(2, 2, vec![10.0, 8.0, 10.0, 14.0]).unwrap();
        let limits = [9.0, 12.0];
        let (loss, fresh) = speed_limit_loss(&v, &limits);
        let mut grad = dirty(2, 2);
        let l = speed_limit_loss_into(&v, &limits, &mut grad);
        assert_eq!(l.to_bits(), loss.to_bits());
        assert!(same_bits(&grad, &fresh));
    }

    #[test]
    fn census_zero_when_totals_match() {
        let g = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let (loss, grad) = census_loss(&g, &[3.0, 7.0]);
        assert_eq!(loss, 0.0);
        assert!(grad.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn census_gradient_pushes_toward_total() {
        let g = Matrix::from_vec(1, 2, vec![1.0, 1.0]).unwrap();
        // total 2, target 6: gradient must be negative (increase g)
        let (loss, grad) = census_loss(&g, &[6.0]);
        assert!(loss > 0.0);
        assert!(grad.as_slice().iter().all(|&v| v < 0.0));
        // both intervals share the same gradient (d row-sum / d cell = 1)
        assert_eq!(grad.get(0, 0), grad.get(0, 1));
    }

    #[test]
    fn census_gradient_matches_finite_difference() {
        let g = Matrix::from_vec(2, 3, vec![1.0, 2.0, 0.5, 4.0, 1.0, 2.0]).unwrap();
        let totals = [5.0, 6.0];
        let (_, grad) = census_loss(&g, &totals);
        let eps = 1e-6;
        for idx in 0..6 {
            let mut gp = g.clone();
            gp.as_mut_slice()[idx] += eps;
            let mut gm = g.clone();
            gm.as_mut_slice()[idx] -= eps;
            let num = (census_loss(&gp, &totals).0 - census_loss(&gm, &totals).0) / (2.0 * eps);
            assert!((num - grad.as_slice()[idx]).abs() < 1e-6);
        }
    }

    #[test]
    fn camera_loss_only_touches_instrumented_links() {
        let q = Matrix::from_vec(3, 2, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let links = [LinkId(1)];
        let obs = vec![vec![3.0, 0.0]];
        let (loss, grad) = camera_loss(&q, &links, &obs);
        assert!(loss > 0.0);
        // rows 0 and 2 untouched
        assert_eq!(grad.row(0), &[0.0, 0.0]);
        assert_eq!(grad.row(2), &[0.0, 0.0]);
        assert_eq!(grad.get(1, 0), 0.0); // matches observation
        assert!(grad.get(1, 1) > 0.0); // predicted 4 > observed 0
    }

    #[test]
    fn camera_empty_is_zero() {
        let q = Matrix::filled(2, 2, 1.0);
        let (loss, grad) = camera_loss(&q, &[], &[]);
        assert_eq!(loss, 0.0);
        assert!(grad.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn speed_limit_loss_zero_when_physical() {
        let v = Matrix::from_vec(2, 2, vec![5.0, 8.0, 10.0, 11.0]).unwrap();
        let (loss, grad) = speed_limit_loss(&v, &[9.0, 12.0]);
        // only cell (0,0)? no: row 0 limit 9 -> 5,8 ok; row 1 limit 12 -> ok
        assert_eq!(loss, 0.0);
        assert!(grad.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn speed_limit_loss_penalises_excess_only() {
        let v = Matrix::from_vec(2, 2, vec![10.0, 8.0, 10.0, 14.0]).unwrap();
        let (loss, grad) = speed_limit_loss(&v, &[9.0, 12.0]);
        assert!(loss > 0.0);
        assert!(grad.get(0, 0) > 0.0); // 10 > 9
        assert_eq!(grad.get(0, 1), 0.0); // 8 < 9
        assert!(grad.get(1, 1) > 0.0); // 14 > 12
    }

    #[test]
    fn speed_limit_gradient_matches_finite_difference() {
        let v = Matrix::from_vec(1, 3, vec![9.5, 8.0, 12.0]).unwrap();
        let limits = [9.0];
        let (_, grad) = speed_limit_loss(&v, &limits);
        let eps = 1e-6;
        for i in 0..3 {
            let mut vp = v.clone();
            vp.as_mut_slice()[i] += eps;
            let mut vm = v.clone();
            vm.as_mut_slice()[i] -= eps;
            let num =
                (speed_limit_loss(&vp, &limits).0 - speed_limit_loss(&vm, &limits).0) / (2.0 * eps);
            assert!((num - grad.as_slice()[i]).abs() < 1e-6);
        }
    }

    #[test]
    fn camera_gradient_matches_finite_difference() {
        let q = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let links = [LinkId(0), LinkId(1)];
        let obs = vec![vec![0.5, 1.5], vec![2.0, 5.0]];
        let (_, grad) = camera_loss(&q, &links, &obs);
        let eps = 1e-6;
        for idx in 0..4 {
            let mut qp = q.clone();
            qp.as_mut_slice()[idx] += eps;
            let mut qm = q.clone();
            qm.as_mut_slice()[idx] -= eps;
            let num =
                (camera_loss(&qp, &links, &obs).0 - camera_loss(&qm, &links, &obs).0) / (2.0 * eps);
            assert!((num - grad.as_slice()[idx]).abs() < 1e-6);
        }
    }
}

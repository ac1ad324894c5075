//! Gated recurrent unit with full backpropagation through time.
//!
//! Provided as a drop-in alternative to [`super::Lstm`] for the
//! Volume-Speed mapping and the sequence baselines (fewer parameters, a
//! common ablation choice). Formulation (Cho et al. 2014):
//!
//! ```text
//! z_t = sigmoid(x_t Wxz + h_{t-1} Whz + bz)      (update gate)
//! r_t = sigmoid(x_t Wxr + h_{t-1} Whr + br)      (reset gate)
//! n_t = tanh(x_t Wxn + (r_t .* h_{t-1}) Whn + bn)
//! h_t = (1 - z_t) .* n_t + z_t .* h_{t-1}
//! ```

use super::{xavier, SeqLayer};
use crate::matrix::Matrix;
use crate::rng::Rng64;
use crate::tensor3::Tensor3;
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};

/// A standard GRU: `(b, t, in) -> (b, t, hidden)`, zero initial state.
/// Gate blocks are ordered `[z, r, n]` inside the stacked weights.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Gru {
    input: usize,
    hidden: usize,
    /// `(in, 3H)`
    wx: Matrix,
    /// `(H, 3H)`
    wh: Matrix,
    /// `(1, 3H)`
    b: Matrix,
    dwx: Matrix,
    dwh: Matrix,
    db: Matrix,
    #[serde(skip)]
    state: Option<GruState>,
}

/// Forward cache, kept across calls and overwritten in place while the
/// `(batch, time)` shape holds; per-pass scratch comes from the workspace.
#[derive(Debug, Clone)]
struct GruState {
    batch: usize,
    time: usize,
    /// Per time step: x_t.
    xs: Vec<Matrix>,
    /// h_{t-1} entering each step (h_0 = 0 first).
    h_prevs: Vec<Matrix>,
    /// Gate activations per step: (z, r, n).
    gates: Vec<(Matrix, Matrix, Matrix)>,
}

impl GruState {
    // lint: cold — state is (re)built only when the batch/time shape changes, never in the steady-state loop
    fn new(batch: usize, time: usize, input: usize, hidden: usize) -> Self {
        let m = |cols| Matrix::zeros(batch, cols);
        Self {
            batch,
            time,
            xs: (0..time).map(|_| m(input)).collect(),
            h_prevs: (0..time).map(|_| m(hidden)).collect(),
            gates: (0..time)
                .map(|_| (m(hidden), m(hidden), m(hidden)))
                .collect(),
        }
    }
}

impl Gru {
    /// Creates a Xavier-initialised GRU.
    pub fn new(input: usize, hidden: usize, rng: &mut Rng64) -> Self {
        Self {
            input,
            hidden,
            wx: xavier(input, 3 * hidden, rng),
            wh: xavier(hidden, 3 * hidden, rng),
            b: Matrix::zeros(1, 3 * hidden),
            dwx: Matrix::zeros(input, 3 * hidden),
            dwh: Matrix::zeros(hidden, 3 * hidden),
            db: Matrix::zeros(1, 3 * hidden),
            state: None,
        }
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl SeqLayer for Gru {
    fn forward_ws(&mut self, x: &Tensor3, _train: bool, ws: &mut Workspace) -> Tensor3 {
        let (batch, time, feat) = x.shape();
        assert_eq!(feat, self.input, "GRU input width mismatch");
        let h = self.hidden;
        let fits = self
            .state
            .as_ref()
            .is_some_and(|s| s.batch == batch && s.time == time);
        if !fits {
            self.state = None;
        }
        let Self {
            input,
            wx,
            wh,
            b,
            state,
            ..
        } = self;
        let GruState {
            xs, h_prevs, gates, ..
        } = state.get_or_insert_with(|| GruState::new(batch, time, *input, h));
        let mut out = ws.take3(batch, time, h);
        let [mut a, mut hw] = [(); 2].map(|_| ws.take(batch, 3 * h));
        let [mut rh, mut nh, mut h_cur] = [(); 3].map(|_| ws.take(batch, h));
        let mut whn = ws.take(h, h);
        copy_cols(wh, 2 * h, &mut whn);
        let steps = xs.iter_mut().zip(h_prevs.iter_mut()).zip(gates.iter_mut());
        for (t, ((x_t, h_prev), (z_g, r_g, n_g))) in steps.enumerate() {
            x.read_time_slice(t, x_t);
            h_prev.copy_from(&h_cur);
            // Pre-activations: x-part for all gates, h-part for z and r
            // directly; the n-block's h-part needs the reset gate first.
            x_t.matmul_into(wx, &mut a);
            a.add_row_broadcast(b);
            h_prev.matmul_into(wh, &mut hw); // (b, 3H), h-parts of z|r|n
            let rows = a
                .as_slice()
                .chunks_exact(3 * h)
                .zip(hw.as_slice().chunks_exact(3 * h))
                .zip(z_g.as_mut_slice().chunks_exact_mut(h))
                .zip(r_g.as_mut_slice().chunks_exact_mut(h));
            for (((a_row, hw_row), zr), rr) in rows {
                let (a_z, a_r) = a_row.split_at(h);
                let (hw_z, hw_r) = hw_row.split_at(h);
                let cells = zr
                    .iter_mut()
                    .zip(rr.iter_mut())
                    .zip(a_z.iter().zip(hw_z).zip(a_r.iter().zip(hw_r)));
                for ((zv, rv), ((&az, &hz), (&ar, &hr))) in cells {
                    *zv = sigmoid(az + hz);
                    *rv = sigmoid(ar + hr);
                }
            }
            // n pre-activation: a_n + (r .* h) Whn. Computing (r.*h) @ Whn
            // directly keeps the backward simple.
            for ((o, &rv), &hv) in rh
                .as_mut_slice()
                .iter_mut()
                .zip(r_g.as_slice())
                .zip(h_prev.as_slice())
            {
                *o = rv * hv;
            }
            rh.matmul_into(&whn, &mut nh);
            let rows = a
                .as_slice()
                .chunks_exact(3 * h)
                .zip(nh.as_slice().chunks_exact(h))
                .zip(n_g.as_mut_slice().chunks_exact_mut(h));
            for ((a_row, nh_row), nr) in rows {
                let a_n = a_row.split_at(2 * h).1;
                for ((nv, &an), &nhv) in nr.iter_mut().zip(a_n).zip(nh_row) {
                    *nv = (an + nhv).tanh();
                }
            }
            // h' = (1 - z) .* n + z .* h
            for ((hv, &hp), (&zv, &nv)) in h_cur
                .as_mut_slice()
                .iter_mut()
                .zip(h_prev.as_slice())
                .zip(z_g.as_slice().iter().zip(n_g.as_slice()))
            {
                *hv = (1.0 - zv) * nv + zv * hp;
            }
            out.set_time_slice(t, &h_cur);
        }
        for m in [a, hw, rh, nh, h_cur, whn] {
            ws.give(m);
        }
        out
    }

    fn backward_ws(&mut self, dy: &Tensor3, ws: &mut Workspace) -> Tensor3 {
        let h = self.hidden;
        assert_eq!(dy.features(), h, "GRU upstream gradient width mismatch");
        let Self {
            input,
            wx,
            wh,
            dwx,
            dwh,
            db,
            state,
            ..
        } = self;
        let GruState {
            batch,
            time,
            xs,
            h_prevs,
            gates,
            // lint: allow(panic) — precondition: backward requires a prior forward
        } = state.as_ref().expect("backward called before forward");
        let (b, i) = (*batch, *input);
        let mut dx = ws.take3(b, *time, i);
        let [mut dh, mut da_z, mut da_r, mut da_n, mut drh, mut rh, mut dh_zr, mut dh_next] =
            [(); 8].map(|_| ws.take(b, h));
        let (mut da_zr, mut da, mut dxa) = (ws.take(b, 2 * h), ws.take(b, 3 * h), ws.take(b, i));
        let (mut dwx_t, mut db_t) = (ws.take(i, 3 * h), ws.take(1, 3 * h));
        let [mut dwh_zr, mut wh_zr] = [(); 2].map(|_| ws.take(h, 2 * h));
        let [mut dwh_n, mut whn] = [(); 2].map(|_| ws.take(h, h));
        copy_cols(wh, 0, &mut wh_zr);
        copy_cols(wh, 2 * h, &mut whn);

        let steps = xs.iter().zip(h_prevs).zip(gates);
        for (t, ((x_t, h_prev), (z_g, r_g, n_g))) in steps.enumerate().rev() {
            dy.read_time_slice(t, &mut dh);
            dh.add_assign(&dh_next);

            // h' = (1-z) n + z h_prev and n = tanh(a_n + (r.*h_prev) Whn):
            // dh_prev (carried in `dh_next`) starts as dh * z, and the z and
            // n pre-activation gradients follow from dz = dh (h_prev - n)
            // and dn = dh (1 - z).
            for ((((dhp, daz), dan), (&d, &hp)), (&z, &n)) in dh_next
                .as_mut_slice()
                .iter_mut()
                .zip(da_z.as_mut_slice())
                .zip(da_n.as_mut_slice())
                .zip(dh.as_slice().iter().zip(h_prev.as_slice()))
                .zip(z_g.as_slice().iter().zip(n_g.as_slice()))
            {
                *dhp = d * z;
                *dan = (d * (1.0 - z)) * (1.0 - n * n);
                *daz = (d * (hp - n)) * (z * (1.0 - z));
            }
            // Through (r .* h_prev) @ Whn.
            da_n.matmul_a_bt_into(&whn, &mut drh);
            for (((dar, dhp), rhv), ((&g, &hp), &r)) in da_r
                .as_mut_slice()
                .iter_mut()
                .zip(dh_next.as_mut_slice())
                .zip(rh.as_mut_slice())
                .zip(
                    drh.as_slice()
                        .iter()
                        .zip(h_prev.as_slice())
                        .zip(r_g.as_slice()),
                )
            {
                *dar = (g * hp) * (r * (1.0 - r));
                *dhp += g * r;
                *rhv = r * hp;
            }
            // Stack [da_z | da_r] and [da_z | da_r | da_n].
            zip_cols(&mut da_zr, 0, &da_z, |o, v| *o = v);
            zip_cols(&mut da_zr, h, &da_r, |o, v| *o = v);
            zip_cols(&mut da, 0, &da_zr, |o, v| *o = v);
            zip_cols(&mut da, 2 * h, &da_n, |o, v| *o = v);

            // Parameter gradients. wx/b take the stacked form directly;
            // wh's z|r blocks see h_prev, the n block sees (r .* h_prev).
            x_t.matmul_at_b_into(&da, &mut dwx_t);
            dwx.add_assign(&dwx_t);
            da.sum_rows_into(&mut db_t);
            db.add_assign(&db_t);
            h_prev.matmul_at_b_into(&da_zr, &mut dwh_zr); // (H, 2H)
            rh.matmul_at_b_into(&da_n, &mut dwh_n); // (H, H)
            zip_cols(dwh, 0, &dwh_zr, |o, g| *o += g);
            zip_cols(dwh, 2 * h, &dwh_n, |o, g| *o += g);

            // Input and recurrent gradients.
            da.matmul_a_bt_into(wx, &mut dxa);
            dx.set_time_slice(t, &dxa);
            da_zr.matmul_a_bt_into(&wh_zr, &mut dh_zr);
            dh_next.add_assign(&dh_zr);
        }
        let scratch = [
            dh, da_z, da_r, da_n, drh, rh, dh_zr, dh_next, da_zr, da, dxa,
        ];
        for m in scratch
            .into_iter()
            .chain([dwx_t, db_t, dwh_zr, wh_zr, dwh_n, whn])
        {
            ws.give(m);
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.wx, &mut self.dwx);
        f(&mut self.wh, &mut self.dwh);
        f(&mut self.b, &mut self.db);
    }
}

/// Copies columns `[c0, c0 + out.cols())` of `src` into `out`.
fn copy_cols(src: &Matrix, c0: usize, out: &mut Matrix) {
    let w = out.cols();
    let rows = src.as_slice().chunks_exact(src.cols());
    for (o, row) in out.as_mut_slice().chunks_exact_mut(w).zip(rows) {
        o.copy_from_slice(row.split_at(c0).1.split_at(w).0);
    }
}

/// Applies `f(wide, narrow)` element-wise over columns
/// `[c0, c0 + narrow.cols())` of `wide` and the same rows of `narrow`.
fn zip_cols(wide: &mut Matrix, c0: usize, narrow: &Matrix, f: impl Fn(&mut f64, f64)) {
    let wc = wide.cols();
    let rows = narrow.as_slice().chunks_exact(narrow.cols());
    for (w, n) in wide.as_mut_slice().chunks_exact_mut(wc).zip(rows) {
        for (o, &v) in w.split_at_mut(c0).1.iter_mut().zip(n) {
            f(o, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_seq_layer_input, check_seq_layer_params};
    use crate::layers::SeqLayer;

    #[test]
    fn output_shape_and_range() {
        let mut rng = Rng64::new(0);
        let mut g = Gru::new(2, 5, &mut rng);
        let mut x = Tensor3::zeros(3, 6, 2);
        rng.fill_normal(x.as_mut_slice());
        let y = g.forward(&x, true);
        assert_eq!(y.shape(), (3, 6, 5));
        assert!(y.is_finite());
        // h is a convex mix of tanh values and previous h: stays in (-1, 1)
        assert!(y.as_slice().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = Rng64::new(1);
        let mut g = Gru::new(2, 3, &mut rng);
        let mut x = Tensor3::zeros(2, 4, 2);
        rng.fill_normal(x.as_mut_slice());
        assert!(check_seq_layer_input(&mut g, &x, 1e-6, 1e-5));
        assert!(check_seq_layer_params(&mut g, &x, 1e-6, 1e-5));
    }

    #[test]
    fn memory_carries_information_forward() {
        let mut rng = Rng64::new(2);
        let mut g = Gru::new(1, 4, &mut rng);
        let mut x0 = Tensor3::zeros(1, 6, 1);
        let x1 = Tensor3::zeros(1, 6, 1);
        x0.set(0, 0, 0, 5.0);
        let y0 = g.forward(&x0, true);
        let y1 = g.forward(&x1, true);
        let diff_late: f64 = (0..4)
            .map(|hh| (y0.get(0, 5, hh) - y1.get(0, 5, hh)).abs())
            .sum();
        assert!(diff_late > 1e-6, "impulse must persist through memory");
    }

    #[test]
    fn fewer_params_than_lstm() {
        let mut rng = Rng64::new(3);
        let mut gru = Gru::new(4, 8, &mut rng);
        let mut lstm = crate::layers::Lstm::new(4, 8, &mut rng);
        assert!(SeqLayer::param_count(&mut gru) < SeqLayer::param_count(&mut lstm));
    }
}

//! Long short-term memory layer with full backpropagation through time.
//!
//! The paper's Volume-Speed mapping stacks two LSTMs and a fully connected
//! head, shared across all links (§IV-D, Eqs. 9-11). The LSTM baseline of
//! §V-F reuses this layer as well.

use super::{xavier, SeqLayer};
use crate::matrix::Matrix;
use crate::rng::Rng64;
use crate::tensor3::Tensor3;
use crate::workspace::Workspace;
use serde::{Deserialize, Serialize};

/// A standard LSTM: `(b, t, in) -> (b, t, hidden)`, zero initial state,
/// gate order `[input, forget, cell, output]`, forget-gate bias
/// initialised to +1.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lstm {
    input: usize,
    hidden: usize,
    /// `(in, 4H)`
    wx: Matrix,
    /// `(H, 4H)`
    wh: Matrix,
    /// `(1, 4H)`
    b: Matrix,
    dwx: Matrix,
    dwh: Matrix,
    db: Matrix,
    #[serde(skip)]
    state: Option<LstmState>,
}

/// Forward cache plus scratch buffers, kept across calls and reused in
/// place whenever the `(batch, time)` shape repeats — so steady-state
/// training steps never allocate. Every field is fully overwritten by
/// each forward/backward pass, making reuse numerically invisible.
#[derive(Debug, Clone)]
struct LstmState {
    batch: usize,
    time: usize,
    /// Per time step: x_t.
    xs: Vec<Matrix>,
    /// h_{t-1} entering each step (h_0 = 0 first).
    h_prevs: Vec<Matrix>,
    /// c_{t-1} entering each step.
    c_prevs: Vec<Matrix>,
    /// Gate activations per step: (i, f, g, o).
    gates: Vec<(Matrix, Matrix, Matrix, Matrix)>,
    /// tanh(c_t) per step.
    tanh_cs: Vec<Matrix>,
    /// Pre-activation scratch `(batch, 4H)`.
    a: Matrix,
    /// Scratch for `h_{t-1} @ wh`.
    ah: Matrix,
    /// Running hidden state.
    h_cur: Matrix,
    /// Running cell state.
    c_cur: Matrix,
    /// Backward scratch: dh, dc, gate pre-activation gradient, gradient
    /// temporaries, per-step input gradient, and the carried dh/dc.
    dh: Matrix,
    dc: Matrix,
    da: Matrix,
    dwx_t: Matrix,
    dwh_t: Matrix,
    db_t: Matrix,
    dxa: Matrix,
    dh_next: Matrix,
    dc_next: Matrix,
    /// `wx^T`, refreshed at each backward entry: `da @ wx^T` runs as the
    /// fast `matmul(da, wx^T)` kernel with bit-identical results.
    wxt: Matrix,
    /// `wh^T`, same role for the hidden-to-hidden weights.
    wht: Matrix,
}

impl LstmState {
    // lint: cold — state is (re)built only when the batch/time shape changes, never in the steady-state loop
    fn new(batch: usize, time: usize, input: usize, hidden: usize) -> Self {
        let m = |r, c| Matrix::zeros(r, c);
        Self {
            batch,
            time,
            xs: (0..time).map(|_| m(batch, input)).collect(),
            h_prevs: (0..time).map(|_| m(batch, hidden)).collect(),
            c_prevs: (0..time).map(|_| m(batch, hidden)).collect(),
            gates: (0..time)
                .map(|_| {
                    (
                        m(batch, hidden),
                        m(batch, hidden),
                        m(batch, hidden),
                        m(batch, hidden),
                    )
                })
                .collect(),
            tanh_cs: (0..time).map(|_| m(batch, hidden)).collect(),
            a: m(batch, 4 * hidden),
            ah: m(batch, 4 * hidden),
            h_cur: m(batch, hidden),
            c_cur: m(batch, hidden),
            dh: m(batch, hidden),
            dc: m(batch, hidden),
            da: m(batch, 4 * hidden),
            dwx_t: m(input, 4 * hidden),
            dwh_t: m(hidden, 4 * hidden),
            db_t: m(1, 4 * hidden),
            dxa: m(batch, input),
            dh_next: m(batch, hidden),
            dc_next: m(batch, hidden),
            wxt: m(4 * hidden, input),
            wht: m(4 * hidden, hidden),
        }
    }
}

impl Lstm {
    /// Creates a Xavier-initialised LSTM.
    pub fn new(input: usize, hidden: usize, rng: &mut Rng64) -> Self {
        let mut b = Matrix::zeros(1, 4 * hidden);
        // Forget-gate bias +1: standard initialisation that avoids
        // vanishing memory early in training.
        for h in 0..hidden {
            b.set(0, hidden + h, 1.0);
        }
        Self {
            input,
            hidden,
            wx: xavier(input, 4 * hidden, rng),
            wh: xavier(hidden, 4 * hidden, rng),
            b,
            dwx: Matrix::zeros(input, 4 * hidden),
            dwh: Matrix::zeros(hidden, 4 * hidden),
            db: Matrix::zeros(1, 4 * hidden),
            state: None,
        }
    }

    /// Hidden width.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// Returns the cached state, rebuilding it when the shape changed.
    fn ensure_state(
        state: &mut Option<LstmState>,
        batch: usize,
        time: usize,
        input: usize,
        hidden: usize,
    ) -> &mut LstmState {
        let fits = state
            .as_ref()
            .is_some_and(|s| s.batch == batch && s.time == time);
        if !fits {
            *state = None;
        }
        state.get_or_insert_with(|| LstmState::new(batch, time, input, hidden))
    }
}

fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

impl SeqLayer for Lstm {
    fn forward_ws(&mut self, x: &Tensor3, _train: bool, ws: &mut Workspace) -> Tensor3 {
        let (batch, time, feat) = x.shape();
        assert_eq!(feat, self.input, "LSTM input width mismatch");
        let h = self.hidden;
        let mut out = ws.take3(batch, time, h);
        let Self {
            input,
            hidden,
            wx,
            wh,
            b,
            state,
            ..
        } = self;
        let LstmState {
            xs,
            h_prevs,
            c_prevs,
            gates,
            tanh_cs,
            a,
            ah,
            h_cur,
            c_cur,
            ..
        } = Self::ensure_state(state, batch, time, *input, *hidden);
        h_cur.fill_zero();
        c_cur.fill_zero();
        let steps = xs
            .iter_mut()
            .zip(h_prevs.iter_mut())
            .zip(c_prevs.iter_mut())
            .zip(gates.iter_mut())
            .zip(tanh_cs.iter_mut())
            .enumerate();
        for (t, ((((x_t, h_prev), c_prev), gates_t), tanh_c)) in steps {
            x.read_time_slice(t, x_t);
            // a = x_t @ wx + h_{t-1} @ wh + b.
            x_t.matmul_into(wx, a);
            h_cur.matmul_into(wh, ah);
            a.add_assign(ah);
            a.add_row_broadcast(b);

            let (i_g, f_g, g_g, o_g) = gates_t;
            let rows = a
                .as_slice()
                .chunks_exact(4 * h)
                .zip(i_g.as_mut_slice().chunks_exact_mut(h))
                .zip(f_g.as_mut_slice().chunks_exact_mut(h))
                .zip(g_g.as_mut_slice().chunks_exact_mut(h))
                .zip(o_g.as_mut_slice().chunks_exact_mut(h));
            for ((((a_row, ir), fr), gr), or) in rows {
                // The pre-activation row is laid out [i | f | g | o], each
                // block `h` wide; split it so each gate reads its own slice.
                let (a_i, rest) = a_row.split_at(h);
                let (a_f, rest) = rest.split_at(h);
                let (a_g, a_o) = rest.split_at(h);
                let cells = a_i
                    .iter()
                    .zip(ir.iter_mut())
                    .zip(a_f.iter().zip(fr.iter_mut()))
                    .zip(a_g.iter().zip(gr.iter_mut()))
                    .zip(a_o.iter().zip(or.iter_mut()));
                for ((((&vi, ig), (&vf, fg)), (&vg, gg)), (&vo, og)) in cells {
                    *ig = sigmoid(vi);
                    *fg = sigmoid(vf);
                    *gg = vg.tanh();
                    *og = sigmoid(vo);
                }
            }

            h_prev.copy_from(h_cur);
            c_prev.copy_from(c_cur);

            // c_t = f * c_{t-1} + i * g, in place: c_{t-1} was saved above
            // and each element is (f*c) + (i*g), the exact op order of the
            // hadamard + add_assign formulation.
            for ((cv, &fv), (&iv, &gv)) in c_cur
                .as_mut_slice()
                .iter_mut()
                .zip(f_g.as_slice())
                .zip(i_g.as_slice().iter().zip(g_g.as_slice()))
            {
                *cv = fv * *cv + iv * gv;
            }
            for (tc, &cv) in tanh_c.as_mut_slice().iter_mut().zip(c_cur.as_slice()) {
                *tc = cv.tanh();
            }
            // h_t = o * tanh(c_t)
            for ((hv, &ov), &tc) in h_cur
                .as_mut_slice()
                .iter_mut()
                .zip(o_g.as_slice())
                .zip(tanh_c.as_slice())
            {
                *hv = ov * tc;
            }
            out.set_time_slice(t, h_cur);
        }
        out
    }

    fn backward_ws(&mut self, dy: &Tensor3, ws: &mut Workspace) -> Tensor3 {
        let h = self.hidden;
        assert_eq!(dy.features(), h, "LSTM upstream gradient width mismatch");
        let Self {
            wx,
            wh,
            dwx,
            dwh,
            db,
            state,
            ..
        } = self;
        let LstmState {
            batch,
            time,
            xs,
            h_prevs,
            c_prevs,
            gates,
            tanh_cs,
            dh,
            dc,
            da,
            dwx_t,
            dwh_t,
            db_t,
            dxa,
            dh_next,
            dc_next,
            wxt,
            wht,
            ..
            // lint: allow(panic) — precondition: backward requires a prior forward
        } = state.as_mut().expect("backward called before forward");
        let (batch, time) = (*batch, *time);
        // Weight transposes once per backward call (they're step-constant):
        // `matmul(da, w^T)` below replaces `matmul_a_bt(da, w)` — identical
        // terms in identical order, roughly double the throughput.
        wx.transpose_into(wxt);
        wh.transpose_into(wht);
        assert_eq!(dy.batch(), batch, "LSTM upstream gradient batch mismatch");
        let mut dx = ws.take3(batch, time, wx.rows());
        dh_next.fill_zero();
        dc_next.fill_zero();
        let steps = xs
            .iter()
            .zip(h_prevs.iter())
            .zip(c_prevs.iter())
            .zip(gates.iter())
            .zip(tanh_cs.iter())
            .enumerate()
            .rev();
        for (t, ((((x_t, h_prev), c_prev), gates_t), tanh_c)) in steps {
            let (i_g, f_g, g_g, o_g) = gates_t;

            // dh = dy_t + dh carried from t+1
            dy.read_time_slice(t, dh);
            dh.add_assign(dh_next);

            // dc = dh * o * (1 - tanh_c^2) + dc carried — fused, but each
            // element follows the identical ((dh*o)*(1-tc^2))+carry chain.
            for ((dcv, (&dhv, &ov)), (&tc, &dnv)) in dc
                .as_mut_slice()
                .iter_mut()
                .zip(dh.as_slice().iter().zip(o_g.as_slice()))
                .zip(tanh_c.as_slice().iter().zip(dc_next.as_slice()))
            {
                *dcv = ((dhv * ov) * (1.0 - tc * tc)) + dnv;
            }

            // Gate pre-activation gradients; every column of `da` is
            // rewritten so the scratch needs no zeroing.
            let rows = dh
                .as_slice()
                .chunks_exact(h)
                .zip(dc.as_slice().chunks_exact(h))
                .zip(
                    i_g.as_slice()
                        .chunks_exact(h)
                        .zip(f_g.as_slice().chunks_exact(h)),
                )
                .zip(
                    g_g.as_slice()
                        .chunks_exact(h)
                        .zip(o_g.as_slice().chunks_exact(h)),
                )
                .zip(
                    tanh_c
                        .as_slice()
                        .chunks_exact(h)
                        .zip(c_prev.as_slice().chunks_exact(h)),
                )
                .zip(da.as_mut_slice().chunks_exact_mut(4 * h));
            for (((((dhr, dcr), (ir, fr)), (gr, or)), (tcr, cpr)), dar) in rows {
                let (da_i, rest) = dar.split_at_mut(h);
                let (da_f, rest) = rest.split_at_mut(h);
                let (da_g, da_o) = rest.split_at_mut(h);
                let cells = dhr
                    .iter()
                    .zip(dcr)
                    .zip(ir.iter().zip(fr))
                    .zip(gr.iter().zip(or))
                    .zip(tcr.iter().zip(cpr))
                    .zip(da_i.iter_mut().zip(da_f.iter_mut()))
                    .zip(da_g.iter_mut().zip(da_o.iter_mut()));
                for (
                    (((((&dhv, &dcv), (&iv, &fv)), (&gv, &ov)), (&tcv, &cpv)), (dai, daf)),
                    (dag, dao),
                ) in cells
                {
                    *dao = dhv * tcv * ov * (1.0 - ov);
                    *dai = dcv * gv * iv * (1.0 - iv);
                    *daf = dcv * cpv * fv * (1.0 - fv);
                    *dag = dcv * iv * (1.0 - gv * gv);
                }
            }

            // Accumulate via scratch + add_assign: each step's product is
            // summed whole into the running gradient.
            x_t.matmul_at_b_into(da, dwx_t);
            dwx.add_assign(dwx_t);
            h_prev.matmul_at_b_into(da, dwh_t);
            dwh.add_assign(dwh_t);
            da.sum_rows_into(db_t);
            db.add_assign(db_t);

            da.matmul_into(wxt, dxa);
            dx.set_time_slice(t, dxa);
            da.matmul_into(wht, dh_next);
            // dc carried to t-1: dc * f
            for ((dnv, &dcv), &fv) in dc_next
                .as_mut_slice()
                .iter_mut()
                .zip(dc.as_slice())
                .zip(f_g.as_slice())
            {
                *dnv = dcv * fv;
            }
        }
        dx
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        f(&mut self.wx, &mut self.dwx);
        f(&mut self.wh, &mut self.dwh);
        f(&mut self.b, &mut self.db);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::{check_seq_layer_input, check_seq_layer_params};
    use crate::layers::SeqLayer;

    #[test]
    fn output_shape_and_finiteness() {
        let mut rng = Rng64::new(0);
        let mut l = Lstm::new(2, 5, &mut rng);
        let mut x = Tensor3::zeros(3, 7, 2);
        rng.fill_normal(x.as_mut_slice());
        let y = l.forward(&x, true);
        assert_eq!(y.shape(), (3, 7, 5));
        assert!(y.is_finite());
        // hidden states stay in (-1, 1): h = o * tanh(c)
        assert!(y.as_slice().iter().all(|v| v.abs() < 1.0));
    }

    #[test]
    fn zero_input_zero_bias_gives_near_zero_output() {
        let mut rng = Rng64::new(0);
        let mut l = Lstm::new(1, 3, &mut rng);
        l.b.fill_zero(); // remove forget bias for this test
        let x = Tensor3::zeros(2, 4, 1);
        let y = l.forward(&x, true);
        // gates are sigmoid(0)=0.5, tanh(0)=0 -> c stays 0 -> h stays 0
        assert!(y.as_slice().iter().all(|v| v.abs() < 1e-12));
    }

    #[test]
    fn gradients_match_finite_difference() {
        let mut rng = Rng64::new(1);
        let mut l = Lstm::new(2, 4, &mut rng);
        let mut x = Tensor3::zeros(2, 5, 2);
        rng.fill_normal(x.as_mut_slice());
        assert!(check_seq_layer_input(&mut l, &x, 1e-6, 1e-6));
        assert!(check_seq_layer_params(&mut l, &x, 1e-6, 1e-6));
    }

    #[test]
    fn memory_carries_information_forward() {
        // An impulse at t=0 must influence the output at later steps.
        let mut rng = Rng64::new(2);
        let mut l = Lstm::new(1, 4, &mut rng);
        let mut x0 = Tensor3::zeros(1, 6, 1);
        let x1 = Tensor3::zeros(1, 6, 1);
        x0.set(0, 0, 0, 5.0);
        let y0 = l.forward(&x0, true);
        let y1 = l.forward(&x1, true);
        let diff_late: f64 = (0..4)
            .map(|h| (y0.get(0, 5, h) - y1.get(0, 5, h)).abs())
            .sum();
        assert!(diff_late > 1e-6, "impulse must persist through memory");
    }

    #[test]
    fn forget_bias_initialised_to_one() {
        let mut rng = Rng64::new(0);
        let l = Lstm::new(1, 3, &mut rng);
        for h in 0..3 {
            assert_eq!(l.b.get(0, 3 + h), 1.0);
            assert_eq!(l.b.get(0, h), 0.0);
        }
    }
}

//! TOD-Volume mapping (paper §IV-C, Figures 4-5, Eqs. 3-8).
//!
//! Three sub-modules, matching Table IV:
//!
//! * **OD-Route** (Eq. 3): an FC stack mapping each OD's trip-count series
//!   to its route trip-count series `p_i`;
//! * **Route-e** (Eqs. 5-7): two 1x3 convolutions over each route's
//!   series, aggregated over routes into a global traffic embedding `e`
//!   ("an overall representation of the system");
//! * **e-alpha** (Eq. 8): a fully connected layer + softmax producing the
//!   *dynamic attention* `alpha` over lookback lags.
//!
//! The attention realises Figure 4's physics: the volume `q_{j,t}` of link
//! `l_j` collects the trip counts of the routes containing it, **delayed**
//! by however long upstream congestion makes vehicles take to arrive. For
//! every incidence (route `i` crossing link `j`, free-flow offset `delta`)
//! and time `t`, we softmax over lags `tau in 0..W`:
//!
//! ```text
//! logit_tau = (e_window_t @ U + b_u)_tau + beta[tau - delta + W]
//! q_{j,t}  += sum_tau softmax(logit)_tau * p_{i, t - tau}
//! ```
//!
//! `U` makes the lag profile depend on current traffic (`e`), `beta` is a
//! learned prior over lags *relative to the free-flow offset*. Because the
//! softmax normalises per route, each route contributes its full trip mass
//! to the links it crosses — smeared in time, never lost.
//!
//! The Table IX ablation [`OvsVariant::NoTod2V`] keeps `beta` but removes
//! the traffic-dependent term: attention becomes static, which is exactly
//! the "linear assignment matrix" world of the GLS-style baselines.

use crate::config::{OvsConfig, OvsVariant};
use crate::routes::RouteTable;
use neural::layers::{
    ActKind, Activation, Conv1d, Dense, Layer, SeqActivation, SeqLayer, SeqSequential, Sequential,
};
use neural::matrix::Matrix;
use neural::rng::Rng64;
use neural::tensor3::Tensor3;

/// The TOD -> volume module.
pub struct TodVolumeMapping {
    variant: OvsVariant,
    w: usize,
    /// Eq. 3 FC enabled; otherwise OD-Route is the identity (single-route
    /// simplification of SS IV-C).
    use_od_route_fc: bool,
    g_max: f64,
    n_od: usize,
    n_links: usize,
    t: usize,
    routes: RouteTable,

    od_route: Sequential,
    conv: SeqSequential,
    /// `(W, W)`: maps the embedding window to per-lag scores.
    u: Matrix,
    du: Matrix,
    /// `(1, W)` bias of the dynamic scores.
    b_u: Matrix,
    db_u: Matrix,
    /// `(1, 2W+1)` static lag-prior relative to the free-flow offset.
    beta: Matrix,
    dbeta: Matrix,
    /// `(N, K)` route-share logits; softmax per row splits each OD's trip
    /// counts over its candidate routes (multi-route mode only).
    share_logits: Matrix,
    dshare: Matrix,
    k_routes: usize,
    /// `(1, 2)` "not-yet-arrived" sink: logit = sink[0] + sink[1] * delta.
    /// Trips the softmax routes here contribute no volume — they are still
    /// upstream of the link (or queued), which is exactly what happens in
    /// the simulator for long routes and late departures.
    sink: Matrix,
    dsink: Matrix,

    cache: Option<Tod2vCache>,
}

struct Tod2vCache {
    /// Route trip counts `p` (N, T), trip scale.
    p: Matrix,
    /// Route shares (N, K), rows softmax-normalised (empty when K == 1).
    shares: Matrix,
    /// Embedding windows per t (T, W); zeros for the static variant.
    e_windows: Matrix,
    /// Attention weights, flattened in iteration order
    /// (link-major, then t, then incidence, then lag).
    alphas: Vec<f64>,
}

impl TodVolumeMapping {
    /// Builds the module over a precomputed route table.
    pub fn new(routes: RouteTable, t: usize, cfg: &OvsConfig, rng: &mut Rng64) -> Self {
        let w = cfg.attention_window.max(1);
        let n_od = routes.n_routes();
        let n_links = routes.n_links();
        let od_route = Sequential::new(vec![
            Box::new(Dense::new(t, cfg.route_hidden, rng)),
            Box::new(Activation::new(ActKind::Sigmoid)),
            Box::new(Dense::new(cfg.route_hidden, t, rng)),
            Box::new(Activation::new(ActKind::Sigmoid)),
        ]);
        let conv = SeqSequential::new(vec![
            Box::new(Conv1d::new(1, cfg.conv_channels, 3, rng)),
            Box::new(SeqActivation::new(ActKind::Relu)),
            Box::new(Conv1d::new(cfg.conv_channels, 1, 3, rng)),
            Box::new(SeqActivation::new(ActKind::Relu)),
        ]);
        let mut beta = Matrix::zeros(1, 2 * w + 1);
        // Initialise the lag prior to peak at the free-flow offset
        // (tau == delta), decaying for earlier/later lags.
        for k in 0..(2 * w + 1) {
            let rel = k as f64 - w as f64;
            beta.set(0, k, 1.0 - 0.5 * rel.abs());
        }
        Self {
            variant: cfg.variant,
            w,
            use_od_route_fc: cfg.od_route_fc,
            g_max: cfg.g_max,
            n_od,
            n_links,
            t,
            routes,
            od_route,
            conv,
            u: neural::layers::xavier(w, w, rng),
            du: Matrix::zeros(w, w),
            b_u: Matrix::zeros(1, w),
            db_u: Matrix::zeros(1, w),
            share_logits: Matrix::zeros(n_od, cfg.k_routes.max(1)),
            dshare: Matrix::zeros(n_od, cfg.k_routes.max(1)),
            k_routes: cfg.k_routes.max(1),
            beta,
            dbeta: Matrix::zeros(1, 2 * w + 1),
            sink: Matrix::from_vec(1, 2, vec![-2.0, 0.8]).expect("static shape"),
            dsink: Matrix::zeros(1, 2),
            cache: None,
        }
    }

    /// The route table backing this module.
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    fn dynamic(&self) -> bool {
        self.variant != OvsVariant::NoTod2V
    }

    /// Index into `beta` for lag `tau` relative to free-flow offset
    /// `delta`.
    #[inline]
    fn beta_index(&self, tau: usize, delta: usize) -> usize {
        (tau as isize - delta as isize + self.w as isize).clamp(0, 2 * self.w as isize) as usize
    }

    /// Maps a TOD matrix `(N, T)` to link volumes `(M, T)`.
    pub fn forward(&mut self, g: &Matrix, train: bool) -> Matrix {
        assert_eq!(g.shape(), (self.n_od, self.t), "TOD shape mismatch");
        let w = self.w;

        // --- OD-Route (Eq. 3, or identity under the single-route
        // simplification) --------------------------------------------------
        let p = if self.use_od_route_fc {
            let mut g_norm = g.clone();
            g_norm.scale(1.0 / self.g_max);
            let mut p = self.od_route.forward(&g_norm, train);
            p.scale(self.g_max);
            p
        } else {
            g.clone()
        };

        // --- Route-e (Eqs. 5-7) ----------------------------------------
        let (s, e_windows) = if self.dynamic() {
            let mut p_norm = p.clone();
            p_norm.scale(1.0 / self.g_max);
            let x = Tensor3::from_matrix_single_feature(&p_norm);
            let e3 = self.conv.forward(&x, train);
            // e_t = mean over routes (sum in the paper; mean keeps the
            // scale independent of N).
            let mut e = vec![0.0; self.t];
            for (ti, ev) in e.iter_mut().enumerate() {
                for k in 0..self.n_od {
                    *ev += e3.get(k, ti, 0);
                }
                *ev /= self.n_od.max(1) as f64;
            }
            // Windows and dynamic scores s_t = e_window_t @ U + b_u.
            let mut e_windows = Matrix::zeros(self.t, w);
            for ti in 0..self.t {
                for lag in 0..w {
                    if ti >= lag {
                        e_windows.set(ti, lag, e[ti - lag]);
                    }
                }
            }
            let mut s = e_windows.matmul(&self.u);
            s.add_row_broadcast(&self.b_u);
            (s, e_windows)
        } else {
            (Matrix::zeros(self.t, w), Matrix::zeros(self.t, w))
        };

        // Route shares: softmax over each OD's candidate routes.
        let shares = if self.k_routes > 1 {
            let mut sh = self.share_logits.clone();
            neural::matrix::softmax_rows(&mut sh);
            sh
        } else {
            Matrix::zeros(0, 0)
        };

        // --- Attention assembly (Eqs. 4, 8) -----------------------------
        // Slots 0..w are lookback lags; slot w is the not-yet-arrived sink.
        let mut q = Matrix::zeros(self.n_links, self.t);
        let mut alphas = Vec::new();
        let mut logits = vec![0.0; w + 1];
        for j in 0..self.n_links {
            let incident = self.routes.incident(roadnet::LinkId(j));
            for ti in 0..self.t {
                for inc in incident {
                    let delta = inc.delay_intervals;
                    for (tau, l) in logits.iter_mut().enumerate().take(w) {
                        *l = s.get(ti, tau) + self.beta.get(0, self.beta_index(tau, delta));
                    }
                    logits[w] = self.sink.get(0, 0) + self.sink.get(0, 1) * delta as f64;
                    let alpha = softmax_vec(&logits);
                    let share = if self.k_routes > 1 {
                        shares.get(inc.od.index(), inc.route_idx)
                    } else {
                        1.0
                    };
                    let mut acc = 0.0;
                    for (tau, &a) in alpha.iter().enumerate().take(w) {
                        if ti >= tau {
                            acc += a * p.get(inc.od.index(), ti - tau);
                        }
                    }
                    q.set(j, ti, q.get(j, ti) + share * acc);
                    alphas.extend_from_slice(&alpha);
                }
            }
        }

        self.cache = Some(Tod2vCache {
            p,
            shares,
            e_windows,
            alphas,
        });
        q
    }

    /// Backpropagates `d loss / d q` and returns `d loss / d g`.
    pub fn backward(&mut self, dq: &Matrix) -> Matrix {
        let cache = self.cache.take().expect("backward called before forward");
        assert_eq!(dq.shape(), (self.n_links, self.t), "dq shape mismatch");
        let w = self.w;

        let mut dp = Matrix::zeros(self.n_od, self.t);
        let mut ds = Matrix::zeros(self.t, w);
        let mut dbeta_local = Matrix::zeros(1, 2 * w + 1);
        let mut dsink_local = Matrix::zeros(1, 2);
        let mut dshare_pre = Matrix::zeros(
            if self.k_routes > 1 { self.n_od } else { 0 },
            if self.k_routes > 1 { self.k_routes } else { 0 },
        );
        let dynamic = self.dynamic();
        let beta_index = |tau: usize, delta: usize| -> usize {
            (tau as isize - delta as isize + w as isize).clamp(0, 2 * w as isize) as usize
        };
        let slots = w + 1;
        let mut alpha_idx = 0usize;
        let mut dalpha = vec![0.0; slots];
        for j in 0..self.n_links {
            let incident = self.routes.incident(roadnet::LinkId(j));
            for ti in 0..self.t {
                let dqv = dq.get(j, ti);
                for inc in incident {
                    let alpha = &cache.alphas[alpha_idx..alpha_idx + slots];
                    alpha_idx += slots;
                    if dqv == 0.0 {
                        continue;
                    }
                    let share = if self.k_routes > 1 {
                        cache.shares.get(inc.od.index(), inc.route_idx)
                    } else {
                        1.0
                    };
                    // Multi-route: d q / d share = sum_tau alpha * p.
                    if self.k_routes > 1 {
                        let mut acc = 0.0;
                        for (tau, &a) in alpha.iter().enumerate().take(w) {
                            if ti >= tau {
                                acc += a * cache.p.get(inc.od.index(), ti - tau);
                            }
                        }
                        dshare_pre.add_at_rc(inc.od.index(), inc.route_idx, dqv * acc);
                    }
                    // dq/dalpha_tau = share * p_{i, t - tau} for lag slots;
                    // the sink slot contributes no volume, so dalpha is 0.
                    for (tau, d) in dalpha.iter_mut().enumerate().take(w) {
                        *d = if ti >= tau {
                            let pv = cache.p.get(inc.od.index(), ti - tau);
                            dp.add_at_rc(inc.od.index(), ti - tau, dqv * share * alpha[tau]);
                            dqv * share * pv
                        } else {
                            0.0
                        };
                    }
                    dalpha[w] = 0.0;
                    // Softmax backward: dlogit = a * (da - sum(a*da)).
                    let dot: f64 = alpha.iter().zip(&dalpha).map(|(a, d)| a * d).sum();
                    let delta = inc.delay_intervals;
                    for tau in 0..w {
                        let dlogit = alpha[tau] * (dalpha[tau] - dot);
                        if dynamic {
                            ds.add_at_rc(ti, tau, dlogit);
                        }
                        let bi = beta_index(tau, delta);
                        dbeta_local.add_at_rc(0, bi, dlogit);
                    }
                    let dlogit_sink = alpha[w] * (dalpha[w] - dot);
                    dsink_local.add_at_rc(0, 0, dlogit_sink);
                    dsink_local.add_at_rc(0, 1, dlogit_sink * delta as f64);
                }
            }
        }
        self.dbeta.add_assign(&dbeta_local);
        self.dsink.add_assign(&dsink_local);
        // Route-share softmax backward per OD row.
        if self.k_routes > 1 {
            let dlogits = neural::matrix::softmax_rows_backward(&cache.shares, &dshare_pre);
            self.dshare.add_assign(&dlogits);
        }

        // --- through the dynamic score path ------------------------------
        if self.dynamic() {
            // s = e_windows @ U + b_u
            self.du.add_assign(&cache.e_windows.matmul_at_b(&ds));
            self.db_u.add_assign(&ds.sum_rows());
            let de_windows = ds.matmul_a_bt(&self.u);
            // e_windows[t, lag] = e[t - lag] -> scatter back to de.
            let mut de = vec![0.0; self.t];
            for ti in 0..self.t {
                for lag in 0..w {
                    if ti >= lag {
                        de[ti - lag] += de_windows.get(ti, lag);
                    }
                }
            }
            // e_t = mean_k e3[k, t, 0]
            let mut de3 = Tensor3::zeros(self.n_od, self.t, 1);
            let inv_n = 1.0 / self.n_od.max(1) as f64;
            for k in 0..self.n_od {
                for (ti, &dev) in de.iter().enumerate() {
                    de3.set(k, ti, 0, dev * inv_n);
                }
            }
            let dp_norm3 = self.conv.backward(&de3);
            let dp_norm = dp_norm3
                .to_matrix_single_feature()
                .expect("conv stack outputs one feature");
            dp.axpy(1.0 / self.g_max, &dp_norm);
        }

        // --- through OD-Route --------------------------------------------
        if self.use_od_route_fc {
            // p = g_max * net(g / g_max)
            let mut d_net_out = dp;
            d_net_out.scale(self.g_max);
            let mut dg = self.od_route.backward(&d_net_out);
            dg.scale(1.0 / self.g_max);
            dg
        } else {
            dp
        }
    }

    /// Visits `(param, grad)` pairs of this module.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        if self.use_od_route_fc {
            self.od_route.visit_params(f);
        }
        if self.variant != OvsVariant::NoTod2V {
            self.conv.visit_params(f);
            f(&mut self.u, &mut self.du);
            f(&mut self.b_u, &mut self.db_u);
        }
        f(&mut self.beta, &mut self.dbeta);
        f(&mut self.sink, &mut self.dsink);
        if self.k_routes > 1 {
            f(&mut self.share_logits, &mut self.dshare);
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.fill_zero());
    }
}

/// Numerically stable softmax of a small vector.
fn softmax_vec(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut out: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let sum: f64 = out.iter().sum();
    if sum > 0.0 {
        for v in &mut out {
            *v /= sum;
        }
    }
    out
}

/// Small extension: add at `(row, col)` without constructing ids.
trait AddAt {
    fn add_at_rc(&mut self, r: usize, c: usize, v: f64);
}

impl AddAt for Matrix {
    #[inline]
    fn add_at_rc(&mut self, r: usize, c: usize, v: f64) {
        let cur = self.get(r, c);
        self.set(r, c, cur + v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::presets::synthetic_grid;
    use roadnet::OdSet;

    fn module(variant: OvsVariant) -> (TodVolumeMapping, usize, usize) {
        let net = synthetic_grid();
        let ods = OdSet::all_pairs(&net);
        let cfg = OvsConfig::tiny().with_variant(variant);
        let routes = RouteTable::build(&net, &ods, 600.0).unwrap();
        let n_od = ods.len();
        let m = net.num_links();
        let mut rng = Rng64::new(0);
        (TodVolumeMapping::new(routes, 6, &cfg, &mut rng), n_od, m)
    }

    #[test]
    fn forward_shape_and_nonnegativity() {
        let (mut m, n_od, n_links) = module(OvsVariant::Full);
        let g = Matrix::filled(n_od, 6, 5.0);
        let q = m.forward(&g, false);
        assert_eq!(q.shape(), (n_links, 6));
        assert!(q.as_slice().iter().all(|&v| v >= 0.0));
        assert!(q.is_finite());
    }

    #[test]
    fn mass_is_conserved_onto_first_links() {
        // Attention is a softmax per route: each route's departures at all
        // lags sum to at most its trip counts; links crossed by more
        // routes accumulate more volume.
        let (mut m, n_od, _) = module(OvsVariant::Full);
        let g_small = Matrix::filled(n_od, 6, 1.0);
        let g_big = Matrix::filled(n_od, 6, 30.0);
        let q_small = m.forward(&g_small, false);
        let q_big = m.forward(&g_big, false);
        assert!(
            q_big.sum() > q_small.sum(),
            "more demand must map to more volume"
        );
    }

    #[test]
    fn softmax_vec_properties() {
        let a = softmax_vec(&[1.0, 2.0, 3.0]);
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(a[2] > a[1] && a[1] > a[0]);
        let b = softmax_vec(&[1000.0, -1000.0]);
        assert!(b[0] > 0.999);
    }

    /// End-to-end gradient check of the whole module (input gradient).
    fn gradcheck_variant(variant: OvsVariant) {
        let (mut m, n_od, _) = module(variant);
        let mut rng = Rng64::new(3);
        let mut g = Matrix::filled(n_od, 6, 8.0);
        for v in g.as_mut_slice() {
            *v += rng.uniform_in(-2.0, 2.0);
        }
        let q = m.forward(&g, false);
        let dg = m.backward(&q); // loss = 0.5||q||^2
        let eps = 1e-5;
        // check a sample of coordinates (full check is slow)
        for &idx in &[0usize, 7, 13, 29, n_od * 6 - 1] {
            let mut gp = g.clone();
            gp.as_mut_slice()[idx] += eps;
            let mut gm = g.clone();
            gm.as_mut_slice()[idx] -= eps;
            let lp = 0.5
                * m.forward(&gp, false)
                    .as_slice()
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>();
            let lm = 0.5
                * m.forward(&gm, false)
                    .as_slice()
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = dg.as_slice()[idx];
            let denom = analytic.abs().max(numeric.abs()).max(1.0);
            assert!(
                ((analytic - numeric) / denom).abs() < 1e-4,
                "{variant:?} idx {idx}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn full_variant_gradcheck() {
        gradcheck_variant(OvsVariant::Full);
    }

    #[test]
    fn static_variant_gradcheck() {
        gradcheck_variant(OvsVariant::NoTod2V);
    }

    /// Parameter gradient check on the attention parameters.
    #[test]
    fn attention_param_gradcheck() {
        let (mut m, n_od, _) = module(OvsVariant::Full);
        let g = Matrix::filled(n_od, 6, 10.0);
        m.zero_grad();
        let q = m.forward(&g, false);
        m.backward(&q);
        // snapshot analytic grads for u and beta
        let (mut du, mut dbeta) = (None, None);
        let (w, _) = (m.w, 0);
        m.visit_params(&mut |p, gr| {
            if p.shape() == (w, w) {
                du = Some(gr.clone());
            }
            if p.shape() == (1, 2 * w + 1) {
                dbeta = Some(gr.clone());
            }
        });
        let du = du.unwrap();
        let dbeta = dbeta.unwrap();
        let eps = 1e-5;
        // perturb u[0,0]
        let loss = |m: &mut TodVolumeMapping, g: &Matrix| {
            0.5 * m
                .forward(g, false)
                .as_slice()
                .iter()
                .map(|v| v * v)
                .sum::<f64>()
        };
        m.u.set(0, 0, m.u.get(0, 0) + eps);
        let lp = loss(&mut m, &g);
        m.u.set(0, 0, m.u.get(0, 0) - 2.0 * eps);
        let lm = loss(&mut m, &g);
        m.u.set(0, 0, m.u.get(0, 0) + eps);
        let numeric = (lp - lm) / (2.0 * eps);
        let denom = numeric.abs().max(du.get(0, 0).abs()).max(1.0);
        assert!(
            ((du.get(0, 0) - numeric) / denom).abs() < 1e-4,
            "dU analytic {} vs numeric {numeric}",
            du.get(0, 0)
        );
        // perturb beta[0, w] (center)
        m.beta.set(0, w, m.beta.get(0, w) + eps);
        let lp = loss(&mut m, &g);
        m.beta.set(0, w, m.beta.get(0, w) - 2.0 * eps);
        let lm = loss(&mut m, &g);
        m.beta.set(0, w, m.beta.get(0, w) + eps);
        let numeric = (lp - lm) / (2.0 * eps);
        let denom = numeric.abs().max(dbeta.get(0, w).abs()).max(1.0);
        assert!(
            ((dbeta.get(0, w) - numeric) / denom).abs() < 1e-4,
            "dbeta analytic {} vs numeric {numeric}",
            dbeta.get(0, w)
        );
    }

    #[test]
    fn multi_route_shapes_and_gradcheck() {
        let net = synthetic_grid();
        let ods = OdSet::all_pairs(&net);
        let mut cfg = OvsConfig::tiny();
        cfg.k_routes = 2;
        let routes = RouteTable::build_with_k(&net, &ods, 600.0, 2).unwrap();
        assert!(routes.max_routes() == 2);
        // At least some ODs on a grid have two distinct routes.
        assert!(ods.iter().any(|(id, _)| routes.routes_of(id).len() == 2));
        let mut rng = Rng64::new(5);
        let mut m = TodVolumeMapping::new(routes, 6, &cfg, &mut rng);
        let mut g = Matrix::filled(ods.len(), 6, 8.0);
        for v in g.as_mut_slice() {
            *v += rng.uniform_in(-2.0, 2.0);
        }
        let q = m.forward(&g, false);
        assert_eq!(q.shape(), (net.num_links(), 6));
        assert!(q.as_slice().iter().all(|&v| v >= 0.0));
        // End-to-end input gradient check at a sample of coordinates.
        let q = m.forward(&g, false);
        let dg = m.backward(&q);
        let eps = 1e-5;
        for &idx in &[0usize, 11, 40] {
            let mut gp = g.clone();
            gp.as_mut_slice()[idx] += eps;
            let mut gm = g.clone();
            gm.as_mut_slice()[idx] -= eps;
            let lp = 0.5
                * m.forward(&gp, false)
                    .as_slice()
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>();
            let lm = 0.5
                * m.forward(&gm, false)
                    .as_slice()
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = dg.as_slice()[idx];
            let denom = analytic.abs().max(numeric.abs()).max(1.0);
            assert!(
                ((analytic - numeric) / denom).abs() < 1e-4,
                "multi-route idx {idx}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn multi_route_share_param_gradcheck() {
        let net = synthetic_grid();
        let ods = OdSet::all_pairs(&net);
        let mut cfg = OvsConfig::tiny();
        cfg.k_routes = 2;
        let routes = RouteTable::build_with_k(&net, &ods, 600.0, 2).unwrap();
        let mut rng = Rng64::new(6);
        let mut m = TodVolumeMapping::new(routes, 6, &cfg, &mut rng);
        let g = Matrix::filled(ods.len(), 6, 10.0);
        m.zero_grad();
        let q = m.forward(&g, false);
        m.backward(&q);
        let n_od = ods.len();
        let mut dshare = None;
        m.visit_params(&mut |p, gr| {
            if p.shape() == (n_od, 2) {
                dshare = Some(gr.clone());
            }
        });
        let dshare = dshare.expect("share logits are visited in multi-route mode");
        let loss = |m: &mut TodVolumeMapping, g: &Matrix| {
            0.5 * m
                .forward(g, false)
                .as_slice()
                .iter()
                .map(|v| v * v)
                .sum::<f64>()
        };
        let eps = 1e-5;
        // check the first OD with two routes
        let od = ods
            .iter()
            .find(|(id, _)| m.routes().routes_of(*id).len() == 2)
            .unwrap()
            .0;
        let r = od.index();
        m.share_logits.set(r, 0, m.share_logits.get(r, 0) + eps);
        let lp = loss(&mut m, &g);
        m.share_logits
            .set(r, 0, m.share_logits.get(r, 0) - 2.0 * eps);
        let lm = loss(&mut m, &g);
        m.share_logits.set(r, 0, m.share_logits.get(r, 0) + eps);
        let numeric = (lp - lm) / (2.0 * eps);
        let analytic = dshare.get(r, 0);
        let denom = analytic.abs().max(numeric.abs()).max(1.0);
        assert!(
            ((analytic - numeric) / denom).abs() < 1e-4,
            "dshare analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn static_variant_has_fewer_params() {
        let (mut full, ..) = module(OvsVariant::Full);
        let (mut stat, ..) = module(OvsVariant::NoTod2V);
        let count = |m: &mut TodVolumeMapping| {
            let mut n = 0;
            m.visit_params(&mut |p, _| n += p.len());
            n
        };
        assert!(count(&mut stat) < count(&mut full));
    }
}

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
use neural::matrix::{softmax_in_place, softmax_rows, softmax_rows_backward, Matrix};
use neural::rng::Rng64;
use neural::workspace::Workspace;

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
    /// Attention weights of the last forward, flattened in iteration order
    /// (link-major, then t, then incidence, then slot). Module-owned, so
    /// its capacity carries over from step to step.
    alphas: Vec<f64>,
}

/// What backward needs from the last forward, in pooled buffers that
/// backward returns to the workspace.
struct Tod2vCache {
    /// Route trip counts `p` (N, T), trip scale.
    p: Matrix,
    /// Route shares (N, K), rows softmax-normalised (multi-route only).
    shares: Option<Matrix>,
    /// Embedding windows per t (T, W); zeros for the static variant.
    e_windows: Matrix,
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
            alphas: Vec::new(),
        }
    }

    /// The route table backing this module.
    pub fn routes(&self) -> &RouteTable {
        &self.routes
    }

    fn dynamic(&self) -> bool {
        self.variant != OvsVariant::NoTod2V
    }

    /// Maps a TOD matrix `(N, T)` to link volumes `(M, T)` through pooled
    /// buffers: no steady-state allocation. Return the result to `ws`.
    pub fn forward_ws(&mut self, g: &Matrix, ws: &mut Workspace) -> Matrix {
        assert_eq!(g.shape(), (self.n_od, self.t), "TOD shape mismatch");
        let (w, n, t) = (self.w, self.n_od, self.t);

        // --- OD-Route (Eq. 3, or identity under the single-route
        // simplification) --------------------------------------------------
        let p = if self.use_od_route_fc {
            let mut g_norm = ws.take(n, t);
            g_norm.copy_from(g);
            g_norm.scale(1.0 / self.g_max);
            let mut p = self.od_route.forward_ws(&g_norm, ws);
            ws.give(g_norm);
            p.scale(self.g_max);
            p
        } else {
            let mut p = ws.take(n, t);
            p.copy_from(g);
            p
        };

        // --- Route-e (Eqs. 5-7) ----------------------------------------
        // Dynamic scores s_t = e_window_t @ U + b_u; zeros for the static
        // variant.
        let mut s = ws.take(t, w);
        let mut e_windows = ws.take(t, w);
        if self.dynamic() {
            // (N, T) and (N, T, 1) share one row-major layout.
            let inv_g = 1.0 / self.g_max;
            let mut x = ws.take3(n, t, 1);
            for (o, &v) in x.as_mut_slice().iter_mut().zip(p.as_slice()) {
                *o = v * inv_g;
            }
            let e3 = self.conv.forward_ws(&x, ws);
            ws.give3(x);
            // e_t = mean over routes (sum in the paper; mean keeps the
            // scale independent of N).
            let mut e = ws.take(1, t);
            for (ti, ev) in e.as_mut_slice().iter_mut().enumerate() {
                for k in 0..n {
                    *ev += e3.get(k, ti, 0);
                }
                *ev /= n.max(1) as f64;
            }
            ws.give3(e3);
            for ti in 0..t {
                for lag in 0..w {
                    if ti >= lag {
                        e_windows.set(ti, lag, e.get(0, ti - lag));
                    }
                }
            }
            ws.give(e);
            e_windows.matmul_into(&self.u, &mut s);
            s.add_row_broadcast(&self.b_u);
        }

        // Route shares: softmax over each OD's candidate routes.
        let shares = (self.k_routes > 1).then(|| {
            let mut sh = ws.take(n, self.k_routes);
            sh.copy_from(&self.share_logits);
            softmax_rows(&mut sh);
            sh
        });

        // --- Attention assembly (Eqs. 4, 8) -----------------------------
        // Slots 0..w are lookback lags; slot w is the not-yet-arrived sink.
        // Each incidence's logits are written into its own slots of
        // `alphas` and turned into attention weights there.
        let mut q = ws.take(self.n_links, t);
        let alphas = &mut self.alphas;
        alphas.clear();
        for j in 0..self.n_links {
            let incident = self.routes.incident(roadnet::LinkId(j));
            for ti in 0..t {
                for inc in incident {
                    let delta = inc.delay_intervals;
                    let at = alphas.len();
                    alphas.resize(at + w + 1, 0.0);
                    let alpha = &mut alphas[at..];
                    for (tau, l) in alpha.iter_mut().enumerate().take(w) {
                        *l = s.get(ti, tau) + self.beta.get(0, beta_index(w, tau, delta));
                    }
                    alpha[w] = self.sink.get(0, 0) + self.sink.get(0, 1) * delta as f64;
                    softmax_in_place(alpha);
                    let share = shares
                        .as_ref()
                        .map_or(1.0, |sh| sh.get(inc.od.index(), inc.route_idx));
                    let mut acc = 0.0;
                    for (tau, &a) in alpha.iter().enumerate().take(w) {
                        if ti >= tau {
                            acc += a * p.get(inc.od.index(), ti - tau);
                        }
                    }
                    q.set(j, ti, q.get(j, ti) + share * acc);
                }
            }
        }
        ws.give(s);

        self.cache = Some(Tod2vCache {
            p,
            shares,
            e_windows,
        });
        q
    }

    /// Backpropagates `d loss / d q` and returns `d loss / d g`, drawing
    /// buffers from `ws` and returning the forward's cache to it. Return
    /// the result to `ws`.
    pub fn backward_ws(&mut self, dq: &Matrix, ws: &mut Workspace) -> Matrix {
        // lint: allow(panic) — precondition: backward requires a prior forward
        let cache = self.cache.take().expect("backward called before forward");
        assert_eq!(dq.shape(), (self.n_links, self.t), "dq shape mismatch");
        let (w, n, t) = (self.w, self.n_od, self.t);

        let mut dp = ws.take(n, t);
        let mut ds = ws.take(t, w);
        let mut dbeta_local = ws.take(1, 2 * w + 1);
        let mut dsink_local = ws.take(1, 2);
        let mut dshare_pre = cache.shares.as_ref().map(|_| ws.take(n, self.k_routes));
        let dynamic = self.dynamic();
        let slots = w + 1;
        let mut alpha_idx = 0usize;
        let mut dalpha_buf = ws.take(1, slots);
        let dalpha = dalpha_buf.as_mut_slice();
        for j in 0..self.n_links {
            let incident = self.routes.incident(roadnet::LinkId(j));
            for ti in 0..t {
                let dqv = dq.get(j, ti);
                for inc in incident {
                    let alpha = &self.alphas[alpha_idx..alpha_idx + slots];
                    alpha_idx += slots;
                    if dqv == 0.0 {
                        continue;
                    }
                    let share = cache
                        .shares
                        .as_ref()
                        .map_or(1.0, |sh| sh.get(inc.od.index(), inc.route_idx));
                    // Multi-route: d q / d share = sum_tau alpha * p.
                    if let Some(dsh) = dshare_pre.as_mut() {
                        let mut acc = 0.0;
                        for (tau, &a) in alpha.iter().enumerate().take(w) {
                            if ti >= tau {
                                acc += a * cache.p.get(inc.od.index(), ti - tau);
                            }
                        }
                        dsh.add_at_rc(inc.od.index(), inc.route_idx, dqv * acc);
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
                    let dot: f64 = alpha.iter().zip(&*dalpha).map(|(a, d)| a * d).sum();
                    let delta = inc.delay_intervals;
                    for tau in 0..w {
                        let dlogit = alpha[tau] * (dalpha[tau] - dot);
                        if dynamic {
                            ds.add_at_rc(ti, tau, dlogit);
                        }
                        dbeta_local.add_at_rc(0, beta_index(w, tau, delta), dlogit);
                    }
                    let dlogit_sink = alpha[w] * (dalpha[w] - dot);
                    dsink_local.add_at_rc(0, 0, dlogit_sink);
                    dsink_local.add_at_rc(0, 1, dlogit_sink * delta as f64);
                }
            }
        }
        ws.give(dalpha_buf);
        self.dbeta.add_assign(&dbeta_local);
        self.dsink.add_assign(&dsink_local);
        ws.give(dbeta_local);
        ws.give(dsink_local);
        // Route-share softmax backward per OD row.
        if let (Some(shares), Some(dsh)) = (cache.shares, dshare_pre) {
            let mut dlogits = ws.take(n, self.k_routes);
            softmax_rows_backward(&shares, &dsh, &mut dlogits);
            self.dshare.add_assign(&dlogits);
            ws.give(dlogits);
            ws.give(dsh);
            ws.give(shares);
        }

        // --- through the dynamic score path ------------------------------
        if dynamic {
            // s = e_windows @ U + b_u
            let mut du = ws.take(w, w);
            cache.e_windows.matmul_at_b_into(&ds, &mut du);
            self.du.add_assign(&du);
            ws.give(du);
            let mut db_u = ws.take(1, w);
            ds.sum_rows_into(&mut db_u);
            self.db_u.add_assign(&db_u);
            ws.give(db_u);
            let mut de_windows = ws.take(t, w);
            ds.matmul_a_bt_into(&self.u, &mut de_windows);
            // e_windows[t, lag] = e[t - lag] -> scatter back to de.
            let mut de = ws.take(1, t);
            for ti in 0..t {
                for lag in 0..w {
                    if ti >= lag {
                        de.add_at_rc(0, ti - lag, de_windows.get(ti, lag));
                    }
                }
            }
            ws.give(de_windows);
            // e_t = mean_k e3[k, t, 0]
            let mut de3 = ws.take3(n, t, 1);
            let inv_n = 1.0 / n.max(1) as f64;
            for k in 0..n {
                for (ti, &dev) in de.as_slice().iter().enumerate() {
                    de3.set(k, ti, 0, dev * inv_n);
                }
            }
            ws.give(de);
            let dp_norm = self.conv.backward_ws(&de3, ws);
            ws.give3(de3);
            // dp += dp_norm / g_max; (N, T, 1) and (N, T) share one layout.
            let inv_g = 1.0 / self.g_max;
            for (d, &v) in dp.as_mut_slice().iter_mut().zip(dp_norm.as_slice()) {
                *d += inv_g * v;
            }
            ws.give3(dp_norm);
        }
        ws.give(ds);
        ws.give(cache.p);
        ws.give(cache.e_windows);

        // --- through OD-Route --------------------------------------------
        if self.use_od_route_fc {
            // p = g_max * net(g / g_max)
            dp.scale(self.g_max);
            let mut dg = self.od_route.backward_ws(&dp, ws);
            ws.give(dp);
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

/// Index into `beta` for lag `tau` relative to free-flow offset `delta`
/// in a window of `w` lags.
#[inline]
fn beta_index(w: usize, tau: usize, delta: usize) -> usize {
    (tau as isize - delta as isize + w as isize).clamp(0, 2 * w as isize) as usize
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
    use roadnet::{LinkId, OdPairId, OdSet};

    /// True when some link carries `od`'s second route.
    fn has_second_route(routes: &RouteTable, od: OdPairId) -> bool {
        (0..routes.n_links()).any(|l| {
            (routes.incident(LinkId(l)).iter()).any(|inc| inc.od == od && inc.route_idx == 1)
        })
    }

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

    /// `0.5 * ||q||^2` of the module's volumes for `g`: the test loss
    /// whose gradient with respect to `q` is `q` itself.
    fn loss(m: &mut TodVolumeMapping, g: &Matrix, ws: &mut Workspace) -> f64 {
        let q = m.forward_ws(g, ws);
        let l = 0.5 * q.as_slice().iter().map(|v| v * v).sum::<f64>();
        ws.give(q);
        l
    }

    /// Central difference of [`loss`] in `g[idx]` against `analytic`.
    fn assert_input_gradient(
        m: &mut TodVolumeMapping,
        g: &Matrix,
        idx: usize,
        analytic: f64,
        what: &str,
    ) {
        let mut ws = Workspace::new();
        let eps = 1e-5;
        let mut gp = g.clone();
        gp.as_mut_slice()[idx] += eps;
        let mut gm = g.clone();
        gm.as_mut_slice()[idx] -= eps;
        let numeric = (loss(m, &gp, &mut ws) - loss(m, &gm, &mut ws)) / (2.0 * eps);
        let denom = analytic.abs().max(numeric.abs()).max(1.0);
        assert!(
            ((analytic - numeric) / denom).abs() < 1e-4,
            "{what} idx {idx}: analytic {analytic} vs numeric {numeric}"
        );
    }

    #[test]
    fn forward_shape_and_nonnegativity() {
        let (mut m, n_od, n_links) = module(OvsVariant::Full);
        let g = Matrix::filled(n_od, 6, 5.0);
        let q = m.forward_ws(&g, &mut Workspace::new());
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
        let mut ws = Workspace::new();
        let q_small = m.forward_ws(&Matrix::filled(n_od, 6, 1.0), &mut ws);
        let q_big = m.forward_ws(&Matrix::filled(n_od, 6, 30.0), &mut ws);
        assert!(
            q_big.sum() > q_small.sum(),
            "more demand must map to more volume"
        );
    }

    #[test]
    fn softmax_vec_properties() {
        // Each incidence's logits are softmaxed in place in `alphas`.
        let mut a = vec![1.0, 2.0, 3.0];
        softmax_in_place(&mut a);
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(a[2] > a[1] && a[1] > a[0]);
        let mut b = vec![1000.0, -1000.0];
        softmax_in_place(&mut b);
        assert!(b[0] > 0.999);
    }

    #[test]
    fn attention_weights_are_one_softmax_per_incidence() {
        let (mut m, n_od, _) = module(OvsVariant::Full);
        let q = m.forward_ws(&Matrix::filled(n_od, 6, 5.0), &mut Workspace::new());
        let incidences: usize = (0..m.n_links)
            .map(|j| m.routes.incident(LinkId(j)).len() * m.t)
            .sum();
        assert_eq!(m.alphas.len(), incidences * (m.w + 1));
        for alpha in m.alphas.chunks_exact(m.w + 1) {
            assert!((alpha.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            assert!(alpha.iter().all(|&a| a >= 0.0));
        }
        assert!(q.is_finite());
    }

    /// End-to-end gradient check of the whole module (input gradient).
    fn gradcheck_variant(variant: OvsVariant) {
        let (mut m, n_od, _) = module(variant);
        let mut rng = Rng64::new(3);
        let mut g = Matrix::filled(n_od, 6, 8.0);
        for v in g.as_mut_slice() {
            *v += rng.uniform_in(-2.0, 2.0);
        }
        let mut ws = Workspace::new();
        let q = m.forward_ws(&g, &mut ws);
        let dg = m.backward_ws(&q, &mut ws); // loss = 0.5||q||^2
                                             // check a sample of coordinates (full check is slow)
        for &idx in &[0usize, 7, 13, 29, n_od * 6 - 1] {
            assert_input_gradient(&mut m, &g, idx, dg.as_slice()[idx], &format!("{variant:?}"));
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
        let mut ws = Workspace::new();
        m.zero_grad();
        let q = m.forward_ws(&g, &mut ws);
        m.backward_ws(&q, &mut ws);
        // snapshot analytic grads for u and beta
        let (mut du, mut dbeta) = (None, None);
        let w = m.w;
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
        m.u.set(0, 0, m.u.get(0, 0) + eps);
        let lp = loss(&mut m, &g, &mut ws);
        m.u.set(0, 0, m.u.get(0, 0) - 2.0 * eps);
        let lm = loss(&mut m, &g, &mut ws);
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
        let lp = loss(&mut m, &g, &mut ws);
        m.beta.set(0, w, m.beta.get(0, w) - 2.0 * eps);
        let lm = loss(&mut m, &g, &mut ws);
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
        // At least some ODs on a grid have two distinct routes, none more.
        assert!(ods.iter().any(|(id, _)| has_second_route(&routes, id)));
        assert!((0..routes.n_links())
            .all(|l| (routes.incident(LinkId(l)).iter()).all(|inc| inc.route_idx < 2)));
        let mut rng = Rng64::new(5);
        let mut m = TodVolumeMapping::new(routes, 6, &cfg, &mut rng);
        let mut g = Matrix::filled(ods.len(), 6, 8.0);
        for v in g.as_mut_slice() {
            *v += rng.uniform_in(-2.0, 2.0);
        }
        let mut ws = Workspace::new();
        let q = m.forward_ws(&g, &mut ws);
        assert_eq!(q.shape(), (net.num_links(), 6));
        assert!(q.as_slice().iter().all(|&v| v >= 0.0));
        // End-to-end input gradient check at a sample of coordinates.
        let dg = m.backward_ws(&q, &mut ws);
        for &idx in &[0usize, 11, 40] {
            assert_input_gradient(&mut m, &g, idx, dg.as_slice()[idx], "multi-route");
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
        let mut ws = Workspace::new();
        m.zero_grad();
        let q = m.forward_ws(&g, &mut ws);
        m.backward_ws(&q, &mut ws);
        let n_od = ods.len();
        let mut dshare = None;
        m.visit_params(&mut |p, gr| {
            if p.shape() == (n_od, 2) {
                dshare = Some(gr.clone());
            }
        });
        let dshare = dshare.expect("share logits are visited in multi-route mode");
        let eps = 1e-5;
        // check the first OD with two routes
        let od = ods
            .iter()
            .find(|(id, _)| has_second_route(m.routes(), *id))
            .unwrap()
            .0;
        let r = od.index();
        m.share_logits.set(r, 0, m.share_logits.get(r, 0) + eps);
        let lp = loss(&mut m, &g, &mut ws);
        m.share_logits
            .set(r, 0, m.share_logits.get(r, 0) - 2.0 * eps);
        let lm = loss(&mut m, &g, &mut ws);
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

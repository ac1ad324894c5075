//! TOD Generation module (paper §IV-B, Eqs. 1-2).
//!
//! "Following the convention in the literature, we assume the TOD are
//! generated from Gaussian priors": a fixed Gaussian seed `z_i` per OD
//! pair is pushed through two sigmoid FC layers,
//!
//! ```text
//! h_i = sigmoid(W1 z_i + b1)
//! g_i = sigmoid(W2 h_i + b2)
//! ```
//!
//! and scaled by `g_max` to trip-count range. The sigmoid bounding plus
//! the low-rank seed mapping act as a smoothness prior over the recovered
//! TOD — this is what the Table IX ablation removes ([`OvsVariant::NoTodGen`]
//! replaces the module with a free unconstrained tensor).

use crate::config::{OvsConfig, OvsVariant};
use neural::layers::{ActKind, Activation, Dense, Layer, Sequential};
use neural::rng::Rng64;
use neural::{Matrix, Workspace};

/// The TOD generator: produces an `(N, T)` trip-count matrix.
pub struct TodGeneration {
    inner: TodGenInner,
    g_max: f64,
    n_od: usize,
    t: usize,
}

enum TodGenInner {
    /// Full model: fixed Gaussian seeds through a sigmoid FC stack.
    Structured { seeds: Matrix, net: Sequential },
    /// Ablation: a free parameter tensor (sigmoid-squashed so outputs stay
    /// bounded, but with no shared structure across ODs). `y` holds the
    /// last forward's sigmoid outputs for backward.
    Free {
        logits: Matrix,
        grad: Matrix,
        y: Matrix,
    },
}

impl TodGeneration {
    /// Builds the generator for `n_od` OD pairs over `t` intervals.
    pub fn new(n_od: usize, t: usize, cfg: &OvsConfig, rng: &mut Rng64) -> Self {
        let inner = if cfg.variant == OvsVariant::NoTodGen {
            TodGenInner::Free {
                logits: Matrix::zeros(n_od, t),
                grad: Matrix::zeros(n_od, t),
                y: Matrix::zeros(n_od, t),
            }
        } else {
            let mut seeds = Matrix::zeros(n_od, t);
            rng.fill_normal(seeds.as_mut_slice());
            let net = Sequential::new(vec![
                Box::new(Dense::new(t, cfg.tod_hidden, rng)),
                Box::new(Activation::new(ActKind::Sigmoid)),
                Box::new(Dense::new(cfg.tod_hidden, t, rng)),
                Box::new(Activation::new(ActKind::Sigmoid)),
            ]);
            TodGenInner::Structured { seeds, net }
        };
        Self {
            inner,
            g_max: cfg.g_max,
            n_od,
            t,
        }
    }

    /// Output shape `(N, T)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.n_od, self.t)
    }

    /// Generates the TOD matrix (trip counts, in `[0, g_max]`) through
    /// pooled buffers: no steady-state allocation. Return the result to
    /// `ws`.
    pub fn forward_ws(&mut self, ws: &mut Workspace) -> Matrix {
        let mut g = match &mut self.inner {
            TodGenInner::Structured { seeds, net } => net.forward_ws(seeds, ws),
            TodGenInner::Free { logits, y, .. } => {
                for (yv, &l) in y.as_mut_slice().iter_mut().zip(logits.as_slice()) {
                    *yv = neural::activation::sigmoid(l);
                }
                let mut g = ws.take(self.n_od, self.t);
                g.copy_from(y);
                g
            }
        };
        g.scale(self.g_max);
        g
    }

    /// Backpropagates `d loss / d TOD` into the generator parameters,
    /// drawing buffers from `ws`.
    pub fn backward_ws(&mut self, d_tod: &Matrix, ws: &mut Workspace) {
        let mut d = ws.take(self.n_od, self.t);
        d.copy_from(d_tod);
        d.scale(self.g_max);
        match &mut self.inner {
            TodGenInner::Structured { net, .. } => {
                let dx = net.backward_ws(&d, ws);
                ws.give(dx);
            }
            TodGenInner::Free { grad, y, .. } => {
                for ((g, dv), &yv) in grad
                    .as_mut_slice()
                    .iter_mut()
                    .zip(d.as_slice())
                    .zip(y.as_slice())
                {
                    *g += dv * yv * (1.0 - yv);
                }
            }
        }
        ws.give(d);
    }

    /// Visits `(param, grad)` pairs.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        match &mut self.inner {
            TodGenInner::Structured { net, .. } => net.visit_params(f),
            TodGenInner::Free { logits, grad, .. } => f(logits, grad),
        }
    }

    /// Clears accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.visit_params(&mut |_, g| g.fill_zero());
    }

    /// Prepares the generator for the test-time fit: the output starts
    /// *flat* at `fraction * g_max` (the corpus demand level) by setting
    /// the final bias to the corresponding logit and shrinking the final
    /// weights. The fit then only introduces per-OD variation that the
    /// speed evidence actually demands — the Gaussian-prior smoothing the
    /// paper's TOD-generation design is meant to provide. Without this,
    /// the randomly initialised stack starts with arbitrary cross-OD
    /// structure the underdetermined speed loss cannot remove.
    pub fn set_output_level(&mut self, fraction: f64) {
        let f = fraction.clamp(1e-3, 1.0 - 1e-3);
        let logit = (f / (1.0 - f)).ln();
        match &mut self.inner {
            TodGenInner::Structured { net, .. } => {
                // Parameter visit order is W1, b1, W2, b2; the final pair
                // belongs to the output Dense layer.
                let mut count = 0usize;
                net.visit_params(&mut |_, _| count += 1);
                let mut idx = 0usize;
                net.visit_params(&mut |p, _| {
                    if idx == count - 2 {
                        p.scale(0.05); // flatten the output weights
                    } else if idx == count - 1 {
                        p.map_inplace(|_| logit);
                    }
                    idx += 1;
                });
            }
            TodGenInner::Free { logits, .. } => {
                logits.map_inplace(|_| logit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> OvsConfig {
        OvsConfig::tiny()
    }

    #[test]
    fn output_bounded_by_g_max() {
        let mut rng = Rng64::new(0);
        let mut gen = TodGeneration::new(6, 4, &cfg(), &mut rng);
        let g = gen.forward_ws(&mut Workspace::new());
        assert_eq!(g.shape(), (6, 4));
        assert!(g.as_slice().iter().all(|&v| v >= 0.0 && v <= cfg().g_max));
    }

    #[test]
    fn free_variant_bounded_too() {
        let mut rng = Rng64::new(0);
        let c = cfg().with_variant(OvsVariant::NoTodGen);
        let mut gen = TodGeneration::new(6, 4, &c, &mut rng);
        let g = gen.forward_ws(&mut Workspace::new());
        assert!(g.as_slice().iter().all(|&v| v >= 0.0 && v <= c.g_max));
        // at zero logits, output is g_max / 2
        assert!((g.get(0, 0) - c.g_max / 2.0).abs() < 1e-9);
    }

    /// Fitting the generator to a target TOD must reduce the loss — this is
    /// exactly the paper's test-time procedure.
    fn fit(variant: OvsVariant) -> (f64, f64) {
        use neural::loss::mse_into;
        use neural::optim::Adam;
        let c = cfg().with_variant(variant);
        let mut rng = Rng64::new(1);
        let mut gen = TodGeneration::new(5, 4, &c, &mut rng);
        let target = Matrix::from_fn(5, 4, |r, t| 3.0 + (r as f64) + (t as f64));
        let mut opt = Adam::new(0.05);
        let mut ws = Workspace::new();
        let mut grad = Matrix::zeros(5, 4);
        let first = mse_into(&gen.forward_ws(&mut ws), &target, &mut grad);
        let mut last = first;
        for _ in 0..300 {
            let g = gen.forward_ws(&mut ws);
            let loss = mse_into(&g, &target, &mut grad);
            ws.give(g);
            gen.backward_ws(&grad, &mut ws);
            opt.step(&mut |f| gen.visit_params(f));
            gen.zero_grad();
            last = loss;
        }
        (first, last)
    }

    #[test]
    fn structured_generator_fits_target() {
        let (first, last) = fit(OvsVariant::Full);
        assert!(last < first * 0.1, "loss {first} -> {last}");
    }

    #[test]
    fn free_generator_fits_target() {
        let (first, last) = fit(OvsVariant::NoTodGen);
        assert!(last < first * 0.1, "loss {first} -> {last}");
    }

    /// The free variant's backward against central differences of
    /// `0.5 * ||g||^2` in each logit.
    #[test]
    fn free_variant_gradient_matches_finite_differences() {
        let c = cfg().with_variant(OvsVariant::NoTodGen);
        let mut gen = TodGeneration::new(2, 3, &c, &mut Rng64::new(4));
        let mut k = 0.0;
        gen.visit_params(&mut |p, _| {
            p.map_inplace(|_| {
                k += 0.7;
                k - 2.0
            })
        });
        let mut ws = Workspace::new();
        let mut loss = |gen: &mut TodGeneration| {
            let g = gen.forward_ws(&mut ws);
            let l = 0.5 * g.as_slice().iter().map(|v| v * v).sum::<f64>();
            (l, g)
        };
        let (_, g) = loss(&mut gen);
        gen.backward_ws(&g, &mut Workspace::new());
        let mut analytic = Vec::new();
        gen.visit_params(&mut |_, gr| analytic.extend_from_slice(gr.as_slice()));
        let eps = 1e-6;
        for (idx, &a) in analytic.iter().enumerate() {
            let mut nudge = |gen: &mut TodGeneration, by: f64| {
                gen.visit_params(&mut |p, _| p.as_mut_slice()[idx] += by);
                loss(gen).0
            };
            let lp = nudge(&mut gen, eps);
            let lm = nudge(&mut gen, -2.0 * eps);
            nudge(&mut gen, eps);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (a - numeric).abs() < 1e-5 * a.abs().max(1.0),
                "logit {idx}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn gradients_flow_to_all_params() {
        let mut rng = Rng64::new(2);
        let mut gen = TodGeneration::new(4, 3, &cfg(), &mut rng);
        let mut ws = Workspace::new();
        let g = gen.forward_ws(&mut ws);
        gen.backward_ws(&g, &mut ws); // d loss = g itself
        let mut any_zero = false;
        gen.visit_params(&mut |_, gr| {
            if gr.as_slice().iter().all(|&v| v == 0.0) {
                any_zero = true;
            }
        });
        assert!(!any_zero, "every parameter must receive gradient");
    }
}

//! The optimiser: Adam, the one every model in the workspace trains with.
//!
//! The paper trains with learning rate 1e-3 (Table V). Optimiser state
//! (the moment estimates) is kept per parameter *slot*, identified by the
//! deterministic order a module's `visit_params` walk yields — so an
//! optimiser must be paired with one model for its lifetime. Every module
//! is stepped and clipped through that walk as a [`ParamVisitor`]:
//! `opt.step(&mut |f| net.visit_params(f))`.

use crate::layers::ParamVisitor;
use crate::matrix::Matrix;
use obs::Counter;

/// Global counter of completed [`Adam`] steps (all instances).
pub const ADAM_STEPS_METRIC: &str = "optim_adam_steps_total";

/// Grows `states` so `slot` exists, lazily sizes a fresh slot to the
/// parameter, and returns the slot's state. A slot that already carries
/// state of a *different* shape means the optimiser is being applied to
/// a model it was not paired with — refuse loudly instead of silently
/// mis-pairing state.
// lint: cold — sizes optimiser state on the first step only; steady-state calls return the live slot
fn slot_state<'s>(states: &'s mut Vec<Matrix>, slot: usize, p: &Matrix) -> &'s mut Matrix {
    if states.len() <= slot {
        states.resize_with(slot + 1, || Matrix::zeros(0, 0));
    }
    // lint: allow(panic) — the resize above guarantees the slot exists
    let s = &mut states[slot];
    if s.shape() != p.shape() {
        assert!(
            s.is_empty(),
            "Adam slot {slot} shape mismatch: optimiser state is {:?} but the \
             parameter is {:?}; an optimiser must stay paired with one model for \
             its lifetime (create a fresh optimiser after editing the model)",
            s.shape(),
            p.shape()
        );
        *s = Matrix::zeros(p.rows(), p.cols());
    }
    s
}

/// Adam (Kingma & Ba 2015) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    t: u64,
    m: Vec<Matrix>,
    v: Vec<Matrix>,
    // Cached handle: registry lookups allocate a key String per call,
    // which would put a heap allocation in every training step.
    steps: Counter,
}

/// The complete state of an [`Adam`] optimiser — hyperparameters, step
/// counter, and both moment estimates per slot. Restoring a snapshot with
/// [`Adam::from_snapshot`] resumes training **bit-exactly**: the next
/// update is identical to the one an uninterrupted optimiser would take.
#[derive(Debug, Clone, PartialEq)]
pub struct AdamSnapshot {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Denominator stabiliser.
    pub eps: f64,
    /// Completed optimisation steps (drives bias correction).
    pub t: u64,
    /// First-moment estimate per parameter slot.
    pub m: Vec<Matrix>,
    /// Second-moment estimate per parameter slot.
    pub v: Vec<Matrix>,
}

impl Adam {
    /// Adam with standard betas (0.9, 0.999).
    pub fn new(lr: f64) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
            steps: obs::global().counter(ADAM_STEPS_METRIC),
        }
    }

    /// Current learning rate.
    pub fn lr(&self) -> f64 {
        self.lr
    }

    /// Adjusts the learning rate (the trainer's non-finite backoff).
    pub fn set_lr(&mut self, lr: f64) {
        self.lr = lr;
    }

    /// Takes one optimisation step over every `(param, grad)` slot the
    /// module's `visit_params` walk yields.
    ///
    /// # Panics
    ///
    /// Panics if a slot's shape differs from the moment state it holds, or
    /// if the walk yields fewer slots than the optimiser holds state for:
    /// either way the optimiser was bound to a different model and would
    /// silently mis-pair state otherwise.
    // lint: hot — the update of every zero-alloc training step
    pub fn step(&mut self, visit: &mut ParamVisitor<'_>) {
        self.t += 1;
        self.steps.inc();
        // The bias corrections depend on `t` alone, so they are the same
        // for every slot of this step.
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let (beta1, beta2, lr, eps) = (self.beta1, self.beta2, self.lr, self.eps);
        let mut slot = 0usize;
        visit(&mut |p, g| {
            let m = slot_state(&mut self.m, slot, p);
            let v = slot_state(&mut self.v, slot, p);
            for ((pv, gv), (mv, vv)) in p
                .as_mut_slice()
                .iter_mut()
                .zip(g.as_slice())
                .zip(m.as_mut_slice().iter_mut().zip(v.as_mut_slice().iter_mut()))
            {
                *mv = beta1 * *mv + (1.0 - beta1) * gv;
                *vv = beta2 * *vv + (1.0 - beta2) * gv * gv;
                let m_hat = *mv / bc1;
                let v_hat = *vv / bc2;
                *pv -= lr * m_hat / (v_hat.sqrt() + eps);
            }
            slot += 1;
        });
        let bound = self.m.len();
        assert!(
            slot >= bound,
            "optimiser/model mismatch: optimiser holds state for {bound} parameter \
             slots but the model exposes only {slot}; an optimiser must stay \
             paired with one model for its lifetime (create a fresh optimiser \
             after editing the model)"
        );
    }

    /// Captures the full optimiser state for checkpointing.
    pub fn snapshot(&self) -> AdamSnapshot {
        AdamSnapshot {
            lr: self.lr,
            beta1: self.beta1,
            beta2: self.beta2,
            eps: self.eps,
            t: self.t,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Rebuilds an optimiser from a [`snapshot`](Adam::snapshot), resuming
    /// the moment estimates and step counter bit-exactly.
    pub fn from_snapshot(s: AdamSnapshot) -> Self {
        assert_eq!(
            s.m.len(),
            s.v.len(),
            "Adam snapshot is inconsistent: {} first-moment vs {} second-moment slots",
            s.m.len(),
            s.v.len()
        );
        Self {
            lr: s.lr,
            beta1: s.beta1,
            beta2: s.beta2,
            eps: s.eps,
            t: s.t,
            m: s.m,
            v: s.v,
            steps: obs::global().counter(ADAM_STEPS_METRIC),
        }
    }
}

/// Scales every gradient the walk yields so their global L2 norm is at
/// most `max_norm`. Returns the pre-clip norm.
pub fn clip_grad_norm(visit: &mut ParamVisitor<'_>, max_norm: f64) -> f64 {
    let mut sq = 0.0;
    visit(&mut |_, g| sq += g.as_slice().iter().map(|v| v * v).sum::<f64>());
    let norm = sq.sqrt();
    if norm > max_norm && norm > 0.0 {
        let scale = max_norm / norm;
        visit(&mut |_, g| g.scale(scale));
    }
    norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{ActKind, Activation, Dense, Layer, Sequential};
    use crate::loss::mse;
    use crate::rng::Rng64;

    /// A convex quadratic fit: y = 2x - 1 learned by a linear layer.
    fn train_linear(opt: &mut Adam, steps: usize) -> f64 {
        let mut rng = Rng64::new(0);
        let mut net = Dense::new(1, 1, &mut rng);
        let x = Matrix::from_vec(8, 1, (0..8).map(|i| i as f64 / 4.0).collect()).unwrap();
        let mut y = x.clone();
        y.map_inplace(|v| 2.0 * v - 1.0);
        let mut last = f64::INFINITY;
        for _ in 0..steps {
            let pred = net.forward(&x);
            let (loss, grad) = mse(&pred, &y);
            net.backward(&grad);
            opt.step(&mut |f| net.visit_params(f));
            net.zero_grad();
            last = loss;
        }
        last
    }

    /// Steps `opt` over one bare `(param, grad)` slot.
    fn step_one(opt: &mut Adam, p: &mut Matrix, g: &mut Matrix) {
        opt.step(&mut |f| f(p, g));
    }

    #[test]
    fn adam_converges_on_linear_fit() {
        let mut opt = Adam::new(0.05);
        assert!(train_linear(&mut opt, 400) < 1e-3);
    }

    #[test]
    fn adam_first_step_is_lr_sized() {
        // With bias correction, the very first Adam update has magnitude
        // ~lr regardless of gradient scale.
        let mut opt = Adam::new(0.1);
        let mut p = Matrix::filled(1, 1, 0.0);
        let mut g = Matrix::filled(1, 1, 1234.0);
        step_one(&mut opt, &mut p, &mut g);
        assert!((p.get(0, 0).abs() - 0.1).abs() < 1e-6, "{}", p.get(0, 0));
    }

    #[test]
    fn optimiser_steps_are_counted_globally() {
        // Other parallel tests also step optimisers, so only a lower
        // bound on the global counter is checkable.
        let before = obs::global().counter(ADAM_STEPS_METRIC).get();
        let mut opt = Adam::new(0.05);
        train_linear(&mut opt, 10);
        let after = obs::global().counter(ADAM_STEPS_METRIC).get();
        assert!(after >= before + 10, "{before} -> {after}");
    }

    #[test]
    fn clip_grad_norm_caps_and_reports() {
        let mut rng = Rng64::new(1);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(2, 2, &mut rng)),
            Box::new(Activation::new(ActKind::Tanh)),
        ]);
        let x = Matrix::filled(4, 2, 1.0);
        let y = net.forward(&x);
        net.backward(&y);
        let pre = clip_grad_norm(&mut |f| net.visit_params(f), 1e-3);
        assert!(pre > 1e-3);
        let mut sq = 0.0;
        net.visit_params(&mut |_, g| sq += g.as_slice().iter().map(|v| v * v).sum::<f64>());
        assert!((sq.sqrt() - 1e-3).abs() < 1e-9);
    }

    #[test]
    fn adam_snapshot_resume_is_bit_exact() {
        // Train 2N steps in one go vs N steps, snapshot/restore, N more:
        // both the parameters and every intermediate loss must match.
        let mut rng = Rng64::new(7);
        let mut a = Dense::new(2, 3, &mut rng);
        let mut rng = Rng64::new(7);
        let mut b = Dense::new(2, 3, &mut rng);
        let x = Matrix::from_fn(4, 2, |r, c| (r + c) as f64 * 0.25);
        let y = Matrix::from_fn(4, 3, |r, c| ((r * 3 + c) % 5) as f64 * 0.2);
        let step = |net: &mut Dense, opt: &mut Adam| -> f64 {
            let pred = net.forward(&x);
            let (loss, grad) = mse(&pred, &y);
            net.backward(&grad);
            opt.step(&mut |f| net.visit_params(f));
            net.zero_grad();
            loss
        };
        let mut opt_a = Adam::new(0.05);
        let straight: Vec<f64> = (0..20).map(|_| step(&mut a, &mut opt_a)).collect();
        let mut opt_b = Adam::new(0.05);
        let mut resumed: Vec<f64> = (0..10).map(|_| step(&mut b, &mut opt_b)).collect();
        let snap = opt_b.snapshot();
        assert_eq!(snap.t, 10);
        assert_eq!(snap.m.len(), 2, "one moment slot per Dense weight and bias");
        drop(opt_b);
        let mut opt_b = Adam::from_snapshot(snap);
        resumed.extend((0..10).map(|_| step(&mut b, &mut opt_b)));
        assert_eq!(straight, resumed);
        let mut wa = Vec::new();
        a.visit_params(&mut |p, _| wa.push(p.clone()));
        let mut wb = Vec::new();
        b.visit_params(&mut |p, _| wb.push(p.clone()));
        assert_eq!(wa, wb);
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn adam_panics_on_repaired_model_shape() {
        let mut opt = Adam::new(0.1);
        let mut p = Matrix::filled(2, 2, 0.0);
        let mut g = Matrix::filled(2, 2, 1.0);
        step_one(&mut opt, &mut p, &mut g);
        // Same slot, different shape: the optimiser was bound to another
        // model — must refuse instead of silently resetting state.
        let mut p2 = Matrix::filled(3, 1, 0.0);
        let mut g2 = Matrix::filled(3, 1, 1.0);
        step_one(&mut opt, &mut p2, &mut g2);
    }

    #[test]
    #[should_panic(expected = "optimiser/model mismatch")]
    fn adam_panics_when_model_shrinks() {
        let mut rng = Rng64::new(0);
        let mut big = Sequential::new(vec![
            Box::new(Dense::new(2, 2, &mut rng)),
            Box::new(Dense::new(2, 2, &mut rng)),
        ]);
        let mut small = Dense::new(2, 2, &mut rng);
        let x = Matrix::filled(1, 2, 1.0);
        let mut opt = Adam::new(0.1);
        let y = big.forward(&x);
        big.backward(&y);
        opt.step(&mut |f| big.visit_params(f));
        assert_eq!(opt.snapshot().m.len(), 4);
        let y = small.forward(&x);
        small.backward(&y);
        opt.step(&mut |f| small.visit_params(f)); // 2 slots < 4 bound slots
    }

    #[test]
    fn adam_matches_the_update_with_per_slot_bias_correction() {
        // Reference: Kingma & Ba's update written out per slot, the bias
        // corrections recomputed inside every slot's loop.
        let (lr, b1, b2, eps) = (0.01, 0.9, 0.999, 1e-8);
        let mut opt = Adam::new(lr);
        let mut ps = vec![Matrix::filled(2, 3, 0.5), Matrix::filled(1, 4, -0.25)];
        let mut want = ps.clone();
        let mut ms: Vec<Matrix> = ps
            .iter()
            .map(|p| Matrix::zeros(p.rows(), p.cols()))
            .collect();
        let mut vs = ms.clone();
        for t in 1..=6i32 {
            let mut gs: Vec<Matrix> = ps
                .iter()
                .enumerate()
                .map(|(s, p)| {
                    Matrix::from_fn(p.rows(), p.cols(), |r, c| {
                        ((s + 1) as f64 * (r + 2 * c) as f64 - t as f64).sin()
                    })
                })
                .collect();
            for ((w, g), (m, v)) in want
                .iter_mut()
                .zip(&gs)
                .zip(ms.iter_mut().zip(vs.iter_mut()))
            {
                for i in 0..w.len() {
                    let gv = g.as_slice()[i];
                    let mv = b1 * m.as_slice()[i] + (1.0 - b1) * gv;
                    let vv = b2 * v.as_slice()[i] + (1.0 - b2) * gv * gv;
                    m.as_mut_slice()[i] = mv;
                    v.as_mut_slice()[i] = vv;
                    let m_hat = mv / (1.0 - b1.powi(t));
                    let v_hat = vv / (1.0 - b2.powi(t));
                    w.as_mut_slice()[i] -= lr * m_hat / (v_hat.sqrt() + eps);
                }
            }
            opt.step(&mut |f| {
                for (p, g) in ps.iter_mut().zip(gs.iter_mut()) {
                    f(p, g);
                }
            });
        }
        assert_eq!(ps, want);
        let snap = opt.snapshot();
        assert_eq!((snap.m, snap.v), (ms, vs));
    }

    #[test]
    fn adam_reads_gradients_without_changing_them() {
        let mut opt = Adam::new(0.1);
        let mut p = Matrix::filled(2, 2, 1.0);
        let mut g = Matrix::from_fn(2, 2, |r, c| (r * 2 + c) as f64 - 1.5);
        let before = g.clone();
        step_one(&mut opt, &mut p, &mut g);
        assert_eq!(g, before);
    }

    #[test]
    fn adam_sizes_moment_state_to_the_model_on_the_first_step() {
        let mut rng = Rng64::new(2);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(3, 4, &mut rng)),
            Box::new(Activation::new(ActKind::Relu)),
            Box::new(Dense::new(4, 2, &mut rng)),
        ]);
        let mut opt = Adam::new(0.1);
        assert_eq!(opt.snapshot().m.len(), 0);
        opt.step(&mut |f| net.visit_params(f));
        let mut shapes = Vec::new();
        net.visit_params(&mut |p, _| shapes.push(p.shape()));
        let snap = opt.snapshot();
        assert_eq!(opt.snapshot().m.len(), shapes.len());
        assert_eq!(snap.m.iter().map(Matrix::shape).collect::<Vec<_>>(), shapes);
        assert_eq!(snap.v.iter().map(Matrix::shape).collect::<Vec<_>>(), shapes);
    }

    #[test]
    fn adam_trains_a_sequence_layer_through_its_walk() {
        use crate::layers::{Lstm, SeqLayer};
        use crate::tensor3::Tensor3;
        let mut rng = Rng64::new(4);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let x =
            Tensor3::from_vec(2, 4, 2, (0..16).map(|i| (i as f64 * 0.3).cos()).collect()).unwrap();
        let half_sq = |y: &Tensor3| 0.5 * y.as_slice().iter().map(|v| v * v).sum::<f64>();
        let mut opt = Adam::new(0.05);
        let first = half_sq(&lstm.forward(&x, true));
        for _ in 0..30 {
            let y = lstm.forward(&x, true);
            lstm.backward(&y);
            opt.step(&mut |f| lstm.visit_params(f));
            lstm.zero_grad();
        }
        let last = half_sq(&lstm.forward(&x, false));
        assert!(last < 0.5 * first, "{first} -> {last}");
    }

    #[test]
    fn clip_grad_norm_leaves_gradients_within_the_bound_alone() {
        let mut p = Matrix::zeros(1, 2);
        let mut g = Matrix::from_vec(1, 2, vec![0.3, -0.4]).unwrap();
        let norm = clip_grad_norm(&mut |f| f(&mut p, &mut g), 1.0);
        assert!((norm - 0.5).abs() < 1e-15, "{norm}");
        assert_eq!(g.as_slice(), &[0.3, -0.4]);
    }

    #[test]
    fn clip_grad_norm_scales_every_slot_by_one_global_factor() {
        // Each slot alone is within the bound; together their norm is 5.
        let (mut pa, mut pb) = (Matrix::zeros(1, 1), Matrix::zeros(1, 1));
        let mut ga = Matrix::filled(1, 1, 3.0);
        let mut gb = Matrix::filled(1, 1, -4.0);
        let norm = clip_grad_norm(
            &mut |f| {
                f(&mut pa, &mut ga);
                f(&mut pb, &mut gb);
            },
            4.5,
        );
        assert_eq!(norm, 5.0);
        assert!((ga.get(0, 0) - 2.7).abs() < 1e-12, "{}", ga.get(0, 0));
        assert!((gb.get(0, 0) + 3.6).abs() < 1e-12, "{}", gb.get(0, 0));
    }

    #[test]
    fn clip_grad_norm_of_zero_gradients_stays_zero() {
        let mut p = Matrix::zeros(2, 2);
        let mut g = Matrix::zeros(2, 2);
        assert_eq!(clip_grad_norm(&mut |f| f(&mut p, &mut g), 0.0), 0.0);
        assert!(g.as_slice().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn lr_setters() {
        let mut a = Adam::new(0.1);
        a.set_lr(0.5);
        assert_eq!(a.lr(), 0.5);
    }
}

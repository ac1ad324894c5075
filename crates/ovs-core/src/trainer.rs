//! Training and testing pipeline (paper §V-E, Figure 8).
//!
//! 1. **Stage 1** — fit the Volume-Speed mapping on generated
//!    `(volume, speed)` pairs.
//! 2. **Stage 2** — freeze V2S; fit the TOD-Volume mapping by pushing
//!    generated TOD tensors through both mappings and comparing *speeds*
//!    (the paper deliberately uses only the speed loss here: "we only use
//!    the main loss ... the hardest case").
//! 3. **Test-time fit** — freeze both mappings; optimise the TOD
//!    generator against the *observed* speed tensor, optionally with the
//!    census/camera auxiliary losses of Eq. 13. The generator's output is
//!    the recovered TOD.
//!
//! "Epochs" here are gradient steps; stages 1-2 cycle through the training
//! corpus one sample per step.

use crate::aux::{camera_loss, census_loss, speed_limit_loss};
use crate::config::OvsConfig;
use crate::estimator::{
    link_to_matrix, matrix_to_tod, tod_to_matrix, validate_input, EstimatorInput, TodEstimator,
};
use crate::model::OvsModel;
use neural::layers::ParamVisitor;
use neural::loss::{huber_into, mse_into};
use neural::optim::{clip_grad_norm, Adam, AdamSnapshot};
use neural::{Matrix, Workspace};
use roadnet::{Result, RoadnetError, TodTensor};
// lint: allow(determinism) — wall clock feeds the trainer's Timing-class
// gauges (seconds, steps_per_sec) only; losses and weights never see it.
use std::time::Instant;

/// Timing histogram: checkpoint-hook latency, shared by all stages.
pub const CHECKPOINT_WRITE_SECONDS: &str = "trainer_checkpoint_write_seconds";

/// Typed training failure: either the recovery budget ran out on
/// persistent non-finite losses/gradients, or an underlying substrate
/// error surfaced.
#[derive(Debug)]
pub enum TrainError {
    /// The non-finite guard tripped more than the retry budget allows:
    /// rollback + learning-rate backoff could not get the stage past a
    /// persistently divergent step.
    Diverged {
        /// The stage that diverged.
        stage: Stage,
        /// The step whose loss/gradient was non-finite on the final try.
        step: usize,
        /// Rollback attempts consumed before giving up.
        retries: u32,
    },
    /// A substrate error (invalid input, shape mismatch, ...).
    Net(RoadnetError),
}

impl std::fmt::Display for TrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Diverged {
                stage,
                step,
                retries,
            } => write!(
                f,
                "stage '{}' diverged at step {step}: loss/gradient stayed non-finite \
                 through {retries} rollback retries",
                stage.tag()
            ),
            Self::Net(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Net(e) => Some(e),
            Self::Diverged { .. } => None,
        }
    }
}

impl From<RoadnetError> for TrainError {
    fn from(e: RoadnetError) -> Self {
        Self::Net(e)
    }
}

impl From<TrainError> for RoadnetError {
    fn from(e: TrainError) -> Self {
        match e {
            TrainError::Net(inner) => inner,
            diverged => RoadnetError::Internal(diverged.to_string()),
        }
    }
}

/// Result alias for trainer entry points.
pub type TrainResult<T> = std::result::Result<T, TrainError>;

/// How a stage recovers from non-finite losses or gradients: roll back to
/// the last good state, optionally shrink the learning rate, and retry a
/// bounded number of times before declaring [`TrainError::Diverged`].
///
/// The first retry replays at the *original* learning rate — a transient
/// injected fault therefore recovers onto the exact uninjected
/// trajectory, bit for bit. Only from the second consecutive failure does
/// the backoff multiplier kick in, trading bit-exactness for survival.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryPolicy {
    /// Rollback attempts per stretch between good checkpoints before the
    /// stage gives up.
    pub max_retries: u32,
    /// Learning-rate multiplier applied from the second consecutive
    /// retry onwards.
    pub lr_backoff: f64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            lr_backoff: 0.5,
        }
    }
}

/// Per-stage metric handles, resolved once so the step loop stays cheap.
///
/// Names are `trainer_{tag}_*` with the [`Stage::tag`] interpolated:
/// `steps_total` (counter), `loss` / `grad_norm` (histograms),
/// `final_loss` (stable gauge, one writer per stage), and the timing-class
/// `seconds` / `steps_per_sec` gauges.
struct StageMetrics {
    steps: obs::Counter,
    loss: obs::Histogram,
    grad_norm: obs::Histogram,
    final_loss: obs::Gauge,
    seconds: obs::Gauge,
    steps_per_sec: obs::Gauge,
    ckpt_seconds: obs::Histogram,
    nonfinite: obs::Counter,
    rollbacks: obs::Counter,
    lr_backoffs: obs::Counter,
    diverged: obs::Counter,
    ckpt_failures: obs::Counter,
    // lint: allow(determinism) — Timing-class stage stopwatch.
    start: Instant,
}

impl StageMetrics {
    fn new(reg: &obs::Registry, stage: Stage) -> Self {
        let tag = stage.tag();
        // Bound separately from the stable-instrument registrations below
        // so the Timing-class stopwatch never shares a statement with them.
        // lint: allow(determinism) — Timing-class stage stopwatch.
        let start = Instant::now();
        Self {
            steps: reg.counter(&format!("trainer_{tag}_steps_total")),
            loss: reg.histogram(&format!("trainer_{tag}_loss"), obs::LOSS_BUCKETS),
            grad_norm: reg.histogram(&format!("trainer_{tag}_grad_norm"), obs::NORM_BUCKETS),
            final_loss: reg.gauge(&format!("trainer_{tag}_final_loss")),
            seconds: reg.timing_gauge(&format!("trainer_{tag}_seconds")),
            steps_per_sec: reg.timing_gauge(&format!("trainer_{tag}_steps_per_sec")),
            ckpt_seconds: reg.timing_histogram(CHECKPOINT_WRITE_SECONDS, obs::DURATION_BUCKETS),
            nonfinite: reg.counter(&format!("trainer_{tag}_nonfinite_total")),
            rollbacks: reg.counter(&format!("trainer_{tag}_rollbacks_total")),
            lr_backoffs: reg.counter(&format!("trainer_{tag}_lr_backoffs_total")),
            diverged: reg.counter(&format!("trainer_{tag}_diverged_total")),
            ckpt_failures: reg.counter(&format!("trainer_{tag}_ckpt_failures_total")),
            start,
        }
    }

    fn record_step(&self, loss: f64, grad_norm: f64) {
        self.steps.inc();
        self.loss.observe(loss);
        self.grad_norm.observe(grad_norm);
    }

    /// Runs a checkpoint hook, timing the write.
    fn record_checkpoint<T>(&self, write: impl FnOnce() -> Result<T>) -> Result<T> {
        // lint: allow(determinism) — write latency goes to a Timing histogram.
        let t0 = Instant::now();
        let r = write();
        self.ckpt_seconds.observe(t0.elapsed().as_secs_f64());
        r
    }

    /// Publishes the stage's end-of-run summary. `steps_taken` counts only
    /// the steps of this call (a resumed stage reports its own share).
    fn finish(&self, losses: &[f64], steps_taken: usize) {
        if let Some(&last) = losses.last() {
            self.final_loss.set(last);
        }
        let elapsed = self.start.elapsed().as_secs_f64();
        self.seconds.set(elapsed);
        if elapsed > 0.0 {
            self.steps_per_sec.set(steps_taken as f64 / elapsed);
        }
    }
}

/// Loss traces of a full train + fit run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Stage-1 loss per step.
    pub v2s_losses: Vec<f64>,
    /// Stage-2 loss per step.
    pub tod2v_losses: Vec<f64>,
    /// Test-time fit loss per step (main + weighted auxiliary).
    pub fit_losses: Vec<f64>,
}

impl TrainReport {
    /// Final test-time fit loss.
    pub fn final_fit(&self) -> Option<f64> {
        self.fit_losses.last().copied()
    }
}

/// One stage of the training pipeline (§V-E, Figure 8).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Stage 1: Volume-Speed fit.
    V2s,
    /// Stage 2: TOD-Volume fit through the frozen V2S.
    Tod2v,
    /// Test-time TOD-generator fit.
    Fit,
}

impl Stage {
    /// Stable identifier used in checkpoint artifacts.
    pub fn tag(self) -> &'static str {
        match self {
            Stage::V2s => "v2s",
            Stage::Tod2v => "tod2v",
            Stage::Fit => "fit",
        }
    }

    /// Inverse of [`Stage::tag`].
    pub fn from_tag(tag: &str) -> Option<Self> {
        match tag {
            "v2s" => Some(Stage::V2s),
            "tod2v" => Some(Stage::Tod2v),
            "fit" => Some(Stage::Fit),
            _ => None,
        }
    }
}

/// Everything needed to resume one training stage bit-exactly: the
/// stage's module weights, the full Adam moment state, the loss trace so
/// far, and the early-stopping counters. Restoring this mid-stage and
/// finishing the remaining steps reproduces the uninterrupted loss trace
/// exactly.
#[derive(Debug, Clone)]
pub struct StageState {
    /// Which stage this state belongs to.
    pub stage: Stage,
    /// Gradient steps already taken.
    pub step: usize,
    /// The stage's module weights at `step` (in `visit_params` order).
    pub weights: Vec<Matrix>,
    /// The stage optimiser's full state at `step`.
    pub opt: AdamSnapshot,
    /// Per-step losses up to `step`.
    pub losses: Vec<f64>,
    /// Best early-stopping loss seen so far (`Fit` stage only).
    pub best: f64,
    /// Steps since `best` improved (`Fit` stage only).
    pub since_best: usize,
}

/// Checkpoint hook of a pipeline run: called with every whole-pipeline
/// snapshot. A failing hook does **not** abort training: the failure is
/// counted (`trainer_{tag}_ckpt_failures_total`) and the stage keeps its
/// previous rollback anchor, exactly as if the write never happened.
pub type CheckpointHook<'a> = dyn FnMut(&PipelineCheckpoint) -> Result<()> + 'a;

/// Fault-injection tap: called with `(stage, step, &mut loss, &mut
/// grad_norm)` after the backward pass and gradient clip, right before the
/// non-finite guard scans those two values. Tests poison them here to
/// exercise the recovery path.
pub type Tamper<'a> = dyn FnMut(Stage, usize, &mut f64, &mut f64) + 'a;

/// Where [`OvsTrainer::run`] starts.
#[derive(Default)]
pub enum Start<'a> {
    /// A freshly initialised model: all three stages.
    #[default]
    Cold,
    /// Import the weights of a model already trained on another scenario
    /// (same network topology and shapes), re-level the generator to this
    /// input's calibrated demand and run only the test-time fit, so only
    /// the fine structure has to be re-learned — the step-count saving
    /// `examples/warm_start.rs` measures.
    Warm(&'a [Matrix]),
    /// Continue bit-exactly from a snapshot an earlier run's
    /// [`RunOptions::on_checkpoint`] received. Completed stages are not
    /// re-run; their traces travel in the checkpoint.
    Resume(Box<PipelineCheckpoint>),
}

/// Options of [`OvsTrainer::run`]. The default is a plain cold run: no
/// checkpoints, the default [`RecoveryPolicy`], no tamper tap.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Cold, warm or resumed start.
    pub start: Start<'a>,
    /// Emit a checkpoint every this many steps of whichever stage is
    /// running (0 = never).
    pub checkpoint_every: usize,
    /// Receives each checkpoint; see [`CheckpointHook`].
    pub on_checkpoint: Option<&'a mut CheckpointHook<'a>>,
    /// Non-finite recovery policy (rollback + LR backoff + bounded
    /// retries) every stage runs under.
    pub recovery: RecoveryPolicy,
    /// Fault-injection tap; see [`Tamper`].
    pub tamper: Option<&'a mut Tamper<'a>>,
}

/// A whole-pipeline snapshot: the full model weights plus the in-flight
/// stage's state and the traces of any completed stages. This is what
/// [`RunOptions::on_checkpoint`] receives and [`Start::Resume`] accepts.
#[derive(Debug, Clone)]
pub struct PipelineCheckpoint {
    /// Full model weights ([`OvsModel::export_weights`] order) at the
    /// moment of the snapshot.
    pub model_weights: Vec<Matrix>,
    /// State of the stage that was running.
    pub state: StageState,
    /// Completed stage-1 loss trace (empty while stage 1 runs).
    pub v2s_losses: Vec<f64>,
    /// Completed stage-2 loss trace (empty until stage 2 finishes).
    pub tod2v_losses: Vec<f64>,
}

/// Visits the `(param, grad)` pairs of the module a stage trains.
type StageVisit = fn(&mut OvsModel, &mut dyn FnMut(&mut Matrix, &mut Matrix));

/// One gradient step's forward and backward pass: leaves the stage
/// module's gradients accumulated and returns the step's loss.
type StepFn<'p> = Box<dyn FnMut(&mut OvsModel, &mut Workspace) -> f64 + 'p>;

/// What a stage supplies to the shared driver ([`OvsTrainer::drive`]);
/// everything else — resume, metrics, the non-finite guard, Adam,
/// checkpoints — is the driver's.
struct StagePlan<'p> {
    stage: Stage,
    visit: StageVisit,
    /// Stage learning rate as a multiple of `OvsConfig::lr`.
    lr_mult: f64,
    /// Gradient-step budget.
    epochs: usize,
    /// Early-stopping patience; `None` runs the whole budget.
    patience: Option<usize>,
    step: StepFn<'p>,
}

/// The loop state of a running stage: a [`StageState`] minus the module
/// weights, which live in the model.
struct Progress {
    step: usize,
    opt: Adam,
    losses: Vec<f64>,
    best: f64,
    since_best: usize,
}

impl Progress {
    /// Captures the full stage state (module weights + loop state) for a
    /// later bit-exact resume.
    fn capture(&self, visit: &mut ParamVisitor<'_>, stage: Stage) -> StageState {
        StageState {
            stage,
            step: self.step,
            weights: checkpoint::module::export_visit(visit),
            opt: self.opt.snapshot(),
            losses: self.losses.clone(),
            best: self.best,
            since_best: self.since_best,
        }
    }
}

/// Rewinds a stage to `state`: validates the stage tag, every weight shape
/// and every Adam moment shape, then imports the weights and returns the
/// loop state to continue from, its loss trace reserved for `epochs`
/// steps so the step loop never grows it.
fn load_stage(
    visit: &mut ParamVisitor<'_>,
    state: &StageState,
    expected: Stage,
    epochs: usize,
) -> Result<Progress> {
    use checkpoint::module::{check_signature, import_visit, signature_visit};
    if state.stage != expected {
        return Err(RoadnetError::InvalidSpec(format!(
            "resume state is for stage '{}' but stage '{}' is running",
            state.stage.tag(),
            expected.tag()
        )));
    }
    let reject = |e| RoadnetError::InvalidSpec(format!("resume state rejected: {e}"));
    // A step-0 capture carries no moments yet; any other snapshot must
    // pair one moment matrix with each parameter, shape for shape.
    let opt = &state.opt;
    if !(opt.m.is_empty() && opt.v.is_empty()) {
        let sig = signature_visit(visit);
        check_signature(&sig, &opt.m)
            .and_then(|()| check_signature(&sig, &opt.v))
            .map_err(reject)?;
    }
    import_visit(visit, &state.weights).map_err(reject)?;
    let mut losses = Vec::with_capacity(epochs.max(state.losses.len()));
    losses.extend_from_slice(&state.losses);
    Ok(Progress {
        step: state.step,
        opt: Adam::from_snapshot(opt.clone()),
        losses,
        best: state.best,
        since_best: state.since_best,
    })
}

/// Per-stage non-finite recovery bookkeeping: the rollback anchor plus
/// the retry/backoff state of the stretch since that anchor.
///
/// `retries` deliberately does **not** reset on successful steps — only
/// when the anchor itself moves forward ([`StageGuard::refresh`]). A
/// persistent fault replays deterministically, so per-step resets would
/// loop forever; per-stretch budgets guarantee termination.
struct StageGuard {
    policy: RecoveryPolicy,
    base_lr: f64,
    lr_scale: f64,
    retries: u32,
    last_good: StageState,
}

impl StageGuard {
    fn new(policy: RecoveryPolicy, base_lr: f64, last_good: StageState) -> Self {
        Self {
            policy,
            base_lr,
            lr_scale: 1.0,
            retries: 0,
            last_good,
        }
    }

    /// Registers one non-finite step. Returns the learning rate to run at
    /// after the rollback, or [`TrainError::Diverged`] once the retry
    /// budget is spent. The first retry keeps the original rate so a
    /// transient fault replays the uninjected trajectory bit-exactly.
    fn trip(&mut self, mx: &StageMetrics, stage: Stage, step: usize) -> TrainResult<f64> {
        mx.nonfinite.inc();
        self.retries += 1;
        if self.retries > self.policy.max_retries {
            mx.diverged.inc();
            return Err(TrainError::Diverged {
                stage,
                step,
                retries: self.retries - 1,
            });
        }
        if self.retries >= 2 {
            self.lr_scale *= self.policy.lr_backoff;
            mx.lr_backoffs.inc();
        }
        mx.rollbacks.inc();
        Ok(self.base_lr * self.lr_scale)
    }

    /// Moves the rollback anchor to a freshly captured good state and
    /// resets the retry budget for the next stretch.
    fn refresh(&mut self, state: StageState) {
        self.last_good = state;
        self.retries = 0;
    }
}

/// Estimates the per-cell demand level of the hidden scenario by
/// interpolating the corpus (total demand -> city mean speed) curve at the
/// observed mean speed.
pub fn calibrate_demand_level(input: &EstimatorInput<'_>) -> f64 {
    // Robust city-speed statistic: the *median* link's time-mean speed.
    // Demand level moves every link; localised disruptions (road work,
    // incidents — RQ3) move only a few, so the median barely shifts while
    // the mean would mis-calibrate the prior under such scenarios.
    fn median_link_speed(t: &roadnet::LinkTensor) -> f64 {
        let t_len = t.num_intervals().max(1) as f64;
        let mut means: Vec<f64> = (0..t.rows())
            .map(|j| t.row(roadnet::LinkId(j)).iter().sum::<f64>() / t_len)
            .collect();
        means.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        means.get(means.len() / 2).copied().unwrap_or(0.0)
    }
    let mut points: Vec<(f64, f64)> = input
        .train
        .iter()
        .map(|s| (s.tod.total(), median_link_speed(&s.speed)))
        .collect();
    points.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let (Some(&first), Some(&last)) = (points.first(), points.last()) else {
        return 0.0;
    };
    let obs = median_link_speed(input.observed_speed);
    // Scan a fine demand grid, predict mean speed by piecewise-linear
    // interpolation, keep the best-matching total.
    let max_total = last.0.max(1.0);
    let speed_at = |d: f64| -> f64 {
        if d <= first.0 {
            return first.1;
        }
        for w in points.windows(2) {
            if let &[(d0, s0), (d1, s1)] = w {
                if d <= d1 {
                    let f = if d1 > d0 { (d - d0) / (d1 - d0) } else { 0.0 };
                    return s0 + f * (s1 - s0);
                }
            }
        }
        last.1
    };
    let mut best = (f64::INFINITY, max_total * 0.5);
    for k in 1..=120 {
        let total = max_total * 1.5 * k as f64 / 120.0;
        let err = (speed_at(total) - obs).abs();
        if err < best.0 {
            best = (err, total);
        }
    }
    let cells = input.n_od() * input.n_intervals();
    best.1 / cells.max(1) as f64
}

/// Points the TOD generator's output at `level` (a per-cell demand).
fn set_generator_level(model: &mut OvsModel, level: f64) {
    let g_max = model.config().g_max.max(1e-9);
    model.tod_gen.set_output_level(level / g_max);
}

/// The two-stage trainer plus test-time fitter.
pub struct OvsTrainer {
    cfg: OvsConfig,
    obs: obs::Registry,
}

impl OvsTrainer {
    /// Creates a trainer with the model's configuration.
    pub fn new(cfg: OvsConfig) -> Self {
        Self {
            cfg,
            obs: obs::global().clone(),
        }
    }

    /// Redirects metrics to `registry` instead of the process-global one.
    pub fn with_registry(mut self, registry: obs::Registry) -> Self {
        self.obs = registry;
        self
    }

    /// Stage 1: fit V2S on the generated corpus. Returns per-step losses.
    pub fn train_v2s(
        &self,
        model: &mut OvsModel,
        train: &[crate::estimator::TrainTriple],
    ) -> TrainResult<Vec<f64>> {
        self.drive_plain(model, self.v2s_plan(train)?)
    }

    /// Stage 2: freeze V2S, fit TOD2V through it using the speed loss.
    pub fn train_tod2v(
        &self,
        model: &mut OvsModel,
        train: &[crate::estimator::TrainTriple],
    ) -> TrainResult<Vec<f64>> {
        self.drive_plain(model, self.tod2v_plan(train)?)
    }

    /// Test-time fit of the TOD generator against the observed speed
    /// (plus auxiliary losses when enabled and available).
    pub fn fit_tod_gen(
        &self,
        model: &mut OvsModel,
        input: &EstimatorInput<'_>,
    ) -> TrainResult<Vec<f64>> {
        self.drive_plain(model, self.fit_plan(input, calibrate_demand_level(input)))
    }

    /// Stage 1's plan. Full-batch training: the V2S weights are shared
    /// across links, so every link of every sample is just another batch
    /// row. One big `(M * S, T)` matrix keeps the loss surface smooth.
    fn v2s_plan(&self, train: &[crate::estimator::TrainTriple]) -> TrainResult<StagePlan<'_>> {
        let Some(head) = train.first() else {
            return Err(RoadnetError::InvalidSpec(
                "stage 1 requires at least one training triple".into(),
            )
            .into());
        };
        let m = head.volume.rows();
        let t = head.volume.num_intervals();
        let rows = m * train.len();
        let mut q_all = Matrix::zeros(rows, t);
        let mut v_all = Matrix::zeros(rows, t);
        for (s, sample) in train.iter().enumerate() {
            let q_src = link_to_matrix(&sample.volume);
            let v_src = link_to_matrix(&sample.speed);
            for j in 0..m {
                for (dst, src) in q_all.row_mut(s * m + j).iter_mut().zip(q_src.row(j)) {
                    *dst = *src;
                }
                for (dst, src) in v_all.row_mut(s * m + j).iter_mut().zip(v_src.row(j)) {
                    *dst = *src;
                }
            }
        }
        let mut grad = Matrix::zeros(rows, t);
        Ok(StagePlan {
            stage: Stage::V2s,
            visit: |m, f| m.v2s.visit_params(f),
            lr_mult: 10.0,
            epochs: self.cfg.epochs_v2s,
            patience: None,
            step: Box::new(move |model, ws| {
                let v_pred = model.v2s.forward_ws(&q_all, ws);
                let loss = mse_into(&v_pred, &v_all, &mut grad);
                ws.give(v_pred);
                let dq = model.v2s.backward_ws(&grad, ws);
                ws.give(dq);
                loss
            }),
        })
    }

    /// Stage 2's plan. Full-batch epochs: gradients accumulate over every
    /// sample before one optimiser step; per-sample cycling oscillates
    /// because the five TOD patterns pull the mapping in different
    /// directions.
    fn tod2v_plan(&self, train: &[crate::estimator::TrainTriple]) -> TrainResult<StagePlan<'_>> {
        if train.is_empty() {
            return Err(RoadnetError::InvalidSpec(
                "stage 2 requires at least one training triple".into(),
            )
            .into());
        }
        // The (TOD, speed, volume) matrices are epoch-invariant; converting
        // them once keeps the epoch loop free of per-sample allocation.
        let samples: Vec<(Matrix, Matrix, Matrix)> = train
            .iter()
            .map(|s| {
                (
                    tod_to_matrix(&s.tod),
                    link_to_matrix(&s.speed),
                    link_to_matrix(&s.volume),
                )
            })
            .collect();
        let (vm, vt) = samples.first().map(|(_, v, _)| v.shape()).unwrap_or((0, 0));
        let mut dv = Matrix::zeros(vm, vt);
        let mut dq_vol = Matrix::zeros(vm, vt);
        let cfg = &self.cfg;
        Ok(StagePlan {
            stage: Stage::Tod2v,
            visit: |m, f| m.tod2v.visit_params(f),
            lr_mult: 30.0,
            epochs: cfg.epochs_tod2v,
            patience: None,
            step: Box::new(move |model, ws| {
                let mut epoch_loss = 0.0;
                for (g, v_target, q_target) in &samples {
                    let q_pred = model.tod2v.forward_ws(g, ws);
                    let v_pred = model.v2s.forward_ws(&q_pred, ws);
                    let speed_loss = mse_into(&v_pred, v_target, &mut dv);
                    ws.give(v_pred);
                    let mut dq = model.v2s.backward_ws(&dv, ws);
                    // Volume anchoring (Fig 8: the TOD-Volume mapping is
                    // trained with generated TOD, volume AND speed).
                    // Normalised by the volume scale so the weight is
                    // unit-free.
                    let mut loss = speed_loss;
                    if cfg.w_volume_stage2 > 0.0 {
                        let vol_loss = mse_into(&q_pred, q_target, &mut dq_vol);
                        let scale = cfg.w_volume_stage2 * (cfg.v_max / cfg.q_norm).powi(2);
                        loss += scale * vol_loss;
                        dq_vol.scale(scale);
                        dq.add_assign(&dq_vol);
                    }
                    ws.give(q_pred);
                    let dg = model.tod2v.backward_ws(&dq, ws);
                    ws.give(dg);
                    ws.give(dq);
                    // Only the TOD2V parameters move; V2S gradients are
                    // discarded.
                    model.v2s.zero_grad();
                    epoch_loss += loss;
                }
                epoch_loss / samples.len() as f64
            }),
        })
    }

    /// The test-time fit's plan, with the Gaussian prior (SS IV-B) centred
    /// on `prior_mu`: the demand *level* implied by the observation itself
    /// — the corpus demand->mean-speed curve inverted at the observed mean
    /// speed. Using the raw corpus mean instead would bias the fit
    /// whenever the hidden scenario is much lighter or heavier than the
    /// average generated tensor.
    fn fit_plan<'p>(&'p self, input: &'p EstimatorInput<'_>, prior_mu: f64) -> StagePlan<'p> {
        let cfg = &self.cfg;
        let v_obs = link_to_matrix(input.observed_speed);
        let mut dv = Matrix::zeros(v_obs.rows(), v_obs.cols());
        let prior_scale = cfg.w_prior * (cfg.v_max / cfg.g_max.max(1e-9)).powi(2);
        let limits: Vec<f64> = input
            .net
            .links()
            .iter()
            .map(|l| l.speed_limit_mps)
            .collect();
        StagePlan {
            stage: Stage::Fit,
            visit: |m, f| m.tod_gen.visit_params(f),
            lr_mult: 30.0,
            epochs: cfg.epochs_fit,
            // Early stopping: once the speed evidence stops improving the
            // fit, further steps only chase forward-model bias (the
            // multiple-solution problem of SS I). Patience scales with the
            // budget.
            patience: Some((cfg.epochs_fit / 8).max(50)),
            step: Box::new(move |model, ws| {
                let (g, q, v) = model.forward_full(ws);
                let mut total = if cfg.fit_huber_delta > 0.0 {
                    huber_into(&v, &v_obs, cfg.fit_huber_delta, &mut dv)
                } else {
                    mse_into(&v, &v_obs, &mut dv)
                };

                // Speed-limit constraint (Eq. 13's w_v term): folded into
                // the speed gradient before it enters V2S.
                if cfg.w_speed_limit > 0.0 {
                    let (l_lim, mut d_lim) = speed_limit_loss(&v, &limits);
                    total += cfg.w_speed_limit * l_lim;
                    d_lim.scale(cfg.w_speed_limit);
                    dv.add_assign(&d_lim);
                }
                ws.give(v);

                // d loss / d q: through V2S plus the camera constraint.
                let mut dq = model.v2s.backward_ws(&dv, ws);
                if cfg.w_camera > 0.0 {
                    if let Some((links, obs)) = input.cameras {
                        let (l_cam, mut d_cam) = camera_loss(&q, links, obs);
                        total += cfg.w_camera * l_cam;
                        d_cam.scale(cfg.w_camera);
                        dq.add_assign(&d_cam);
                    }
                }
                ws.give(q);

                // d loss / d g: through TOD2V plus the census constraint.
                let mut dg = model.tod2v.backward_ws(&dq, ws);
                ws.give(dq);
                if cfg.w_census > 0.0 {
                    if let Some(totals) = input.census_totals {
                        let (l_cen, mut d_cen) = census_loss(&g, totals);
                        total += cfg.w_census * l_cen;
                        d_cen.scale(cfg.w_census);
                        dg.add_assign(&d_cen);
                    }
                }

                // Gaussian prior on the generated TOD.
                if prior_scale > 0.0 {
                    let n = g.len().max(1) as f64;
                    let mut prior_loss = 0.0;
                    for (dgv, &gv) in dg.as_mut_slice().iter_mut().zip(g.as_slice()) {
                        let diff = gv - prior_mu;
                        prior_loss += diff * diff;
                        *dgv += prior_scale * 2.0 * diff / n;
                    }
                    total += prior_scale * prior_loss / n;
                }
                ws.give(g);

                model.tod_gen.backward_ws(&dg, ws);
                ws.give(dg);
                // Frozen mappings: discard their gradients.
                model.v2s.zero_grad();
                model.tod2v.zero_grad();
                total
            }),
        }
    }

    /// [`OvsTrainer::drive`] with no resume, no checkpoints, the default
    /// recovery policy and no tamper tap.
    fn drive_plain(&self, model: &mut OvsModel, plan: StagePlan<'_>) -> TrainResult<Vec<f64>> {
        let done = TrainReport::default();
        self.drive(model, plan, None, &mut RunOptions::default(), &done)
    }

    /// The one stage loop every stage runs through: resume, per-stage
    /// metrics, gradient clipping, the tamper tap, the non-finite rollback
    /// guard, the Adam step, early stopping (when the plan has a
    /// patience) and periodic checkpoints. `done` holds the traces of the
    /// stages that completed before this one; they ride along in every
    /// [`PipelineCheckpoint`] so a resume need not re-run them.
    fn drive(
        &self,
        model: &mut OvsModel,
        mut plan: StagePlan<'_>,
        resume: Option<StageState>,
        opts: &mut RunOptions<'_>,
        done: &TrainReport,
    ) -> TrainResult<Vec<f64>> {
        let (stage, visit, epochs) = (plan.stage, plan.visit, plan.epochs);
        // A stage starts the way a rollback resumes: by rewinding to its
        // anchor — the resume state, or a fresh step-0 capture.
        let anchor = match resume {
            Some(state) => state,
            None => Progress {
                step: 0,
                opt: Adam::new(self.cfg.lr * plan.lr_mult),
                losses: Vec::new(),
                best: f64::INFINITY,
                since_best: 0,
            }
            .capture(&mut |f| visit(model, f), stage),
        };
        let mut p = load_stage(&mut |f| visit(model, f), &anchor, stage, epochs)?;
        let mx = StageMetrics::new(&self.obs, stage);
        let mut guard = StageGuard::new(opts.recovery, p.opt.lr(), anchor);
        // Pooled buffers make the steady-state loop allocation-free; reuse
        // is numerically invisible (locked in by neural's ws_equivalence
        // suite).
        let mut ws = Workspace::new();
        let mut steps_taken = 0usize;
        while p.step < epochs {
            let mut loss = (plan.step)(model, &mut ws);
            let mut norm = clip_grad_norm(&mut |f| visit(model, f), self.cfg.grad_clip);
            if let Some(tamper) = opts.tamper.as_mut() {
                tamper(stage, p.step, &mut loss, &mut norm);
            }
            if !loss.is_finite() || !norm.is_finite() {
                let lr = guard.trip(&mx, stage, p.step)?;
                p = load_stage(&mut |f| visit(model, f), &guard.last_good, stage, epochs)?;
                p.opt.set_lr(lr);
                visit(model, &mut |_, g| g.fill_zero());
                continue;
            }
            p.opt.step(&mut |f| visit(model, f));
            visit(model, &mut |_, g| g.fill_zero());
            p.losses.push(loss);
            p.step += 1;
            mx.record_step(loss, norm);
            steps_taken += 1;
            let mut stop = false;
            if let Some(patience) = plan.patience {
                if loss < p.best * 0.995 {
                    p.best = loss;
                    p.since_best = 0;
                } else {
                    p.since_best += 1;
                    stop = p.since_best >= patience;
                }
            }
            if opts.checkpoint_every > 0 && p.step % opts.checkpoint_every == 0 && !stop {
                let state = p.capture(&mut |f| visit(model, f), stage);
                let written = match opts.on_checkpoint.as_mut() {
                    Some(hook) => mx.record_checkpoint(|| {
                        let cp = PipelineCheckpoint {
                            model_weights: model.export_weights(),
                            state,
                            v2s_losses: done.v2s_losses.clone(),
                            tod2v_losses: done.tod2v_losses.clone(),
                        };
                        hook(&cp).map(|()| cp.state)
                    }),
                    None => Ok(state),
                };
                match written {
                    Ok(state) => guard.refresh(state),
                    Err(_) => mx.ckpt_failures.inc(),
                }
            }
            if stop {
                break;
            }
        }
        mx.finish(&p.losses, steps_taken);
        Ok(p.losses)
    }

    /// Builds the corpus-adapted trainer and the freshly initialised model
    /// a run starts from — demand-levelled for a cold start, carrying the
    /// imported weights for a warm start or resume — plus the calibrated
    /// demand level the test-time fit's prior is centred on.
    fn prepare(
        &self,
        input: &EstimatorInput<'_>,
        start: &Start<'_>,
    ) -> Result<(OvsTrainer, OvsModel, f64)> {
        validate_input(input)?;
        // Adapt the sigmoid scales to the corpus so the generator starts
        // inside the data range instead of saturating.
        let cfg = self.cfg.clone().adapted_to_corpus(input.train);
        let trainer = OvsTrainer::new(cfg.clone()).with_registry(self.obs.clone());
        let mut model = OvsModel::new(
            input.net,
            input.ods,
            input.n_intervals(),
            input.interval_s,
            cfg,
        )?;
        let level = calibrate_demand_level(input);
        // The import overwrites every parameter, so a resume keeps its
        // checkpointed generator as is; a warm start re-levels the
        // imported one to this input's demand.
        match start {
            Start::Cold => set_generator_level(&mut model, level),
            Start::Warm(weights) => {
                model.import_weights(weights)?;
                set_generator_level(&mut model, level);
            }
            Start::Resume(cp) => model.import_weights(&cp.model_weights)?,
        }
        Ok((trainer, model, level))
    }

    /// The training pipeline: stages 1-2 on the corpus, then the test-time
    /// fit, from the start `opts` names (see [`Start`]). Every stage runs
    /// under `opts.recovery` and the optional tamper tap, and emits a
    /// [`PipelineCheckpoint`] every `opts.checkpoint_every` steps that,
    /// passed back as [`Start::Resume`], continues the run bit-exactly
    /// from that step. A transiently poisoned step rolls back to the last
    /// good checkpoint and replays onto the uninjected trajectory
    /// bit-exactly; a persistently poisoned one exhausts the budget and
    /// surfaces as [`TrainError::Diverged`]. Returns the trained model and
    /// the loss traces (a warm run's stage-1/2 traces are empty).
    pub fn run(
        &self,
        input: &EstimatorInput<'_>,
        mut opts: RunOptions<'_>,
    ) -> TrainResult<(OvsModel, TrainReport)> {
        let start = std::mem::take(&mut opts.start);
        let (trainer, mut model, level) = self.prepare(input, &start)?;
        let mut report = TrainReport::default();
        let (first, mut resume) = match start {
            Start::Cold => (Stage::V2s, None),
            Start::Warm(_) => (Stage::Fit, None),
            Start::Resume(cp) => {
                let stage = cp.state.stage;
                if stage != Stage::V2s {
                    report.v2s_losses = cp.v2s_losses;
                }
                if stage == Stage::Fit {
                    report.tod2v_losses = cp.tod2v_losses;
                }
                (stage, Some(cp.state))
            }
        };
        for stage in [Stage::V2s, Stage::Tod2v, Stage::Fit]
            .into_iter()
            .skip_while(|&s| s != first)
        {
            let plan = match stage {
                Stage::V2s => trainer.v2s_plan(input.train)?,
                Stage::Tod2v => trainer.tod2v_plan(input.train)?,
                Stage::Fit => trainer.fit_plan(input, level),
            };
            let losses = trainer.drive(&mut model, plan, resume.take(), &mut opts, &report)?;
            match stage {
                Stage::V2s => report.v2s_losses = losses,
                Stage::Tod2v => report.tod2v_losses = losses,
                Stage::Fit => report.fit_losses = losses,
            }
        }
        Ok((model, report))
    }

    /// [`OvsTrainer::run`] from `start`, then the fit ensemble: the
    /// recovered TOD is averaged over `fit_restarts` test-time fits, each
    /// restart from a re-seeded generator. The restarts fit under the
    /// trainer's own (not corpus-adapted) configuration. Returns the model
    /// as the last restart left it, and the averaged TOD.
    pub fn run_ensemble(
        &self,
        input: &EstimatorInput<'_>,
        start: Start<'_>,
    ) -> TrainResult<(OvsModel, Matrix)> {
        let opts = RunOptions {
            start,
            ..RunOptions::default()
        };
        let (mut model, _) = self.run(input, opts)?;
        let restarts = self.cfg.fit_restarts.max(1);
        let mut mean = model.recovered_tod();
        let level = calibrate_demand_level(input);
        for r in 1..restarts {
            model.reset_generator(self.cfg.seed.wrapping_add(r as u64 * 7919));
            set_generator_level(&mut model, level);
            self.drive_plain(&mut model, self.fit_plan(input, level))?;
            mean.add_assign(&model.recovered_tod());
        }
        mean.scale(1.0 / restarts as f64);
        Ok((model, mean))
    }

    /// A guarded warm run. Kept only for the benchmark harness in
    /// `citybench/`, which is built against this signature; workspace code
    /// calls [`OvsTrainer::run`] with [`Start::Warm`].
    pub fn run_warm_guarded(
        &self,
        input: &EstimatorInput<'_>,
        source_weights: &[Matrix],
        recovery: RecoveryPolicy,
        tamper: Option<&mut Tamper<'_>>,
    ) -> TrainResult<(OvsModel, TrainReport)> {
        self.run(
            input,
            RunOptions {
                start: Start::Warm(source_weights),
                recovery,
                tamper: tamper.map(|t| t as &mut Tamper),
                ..RunOptions::default()
            },
        )
    }
}

/// OVS as a [`TodEstimator`] — the form the evaluation harness consumes.
pub struct OvsEstimator {
    cfg: OvsConfig,
    obs: obs::Registry,
}

impl OvsEstimator {
    /// Creates the estimator.
    pub fn new(cfg: OvsConfig) -> Self {
        Self {
            cfg,
            obs: obs::global().clone(),
        }
    }

    /// Redirects training metrics to `registry`.
    pub fn with_registry(mut self, registry: obs::Registry) -> Self {
        self.obs = registry;
        self
    }
}

impl TodEstimator for OvsEstimator {
    fn name(&self) -> &str {
        self.cfg.variant.name()
    }

    /// A cold [`OvsTrainer::run_ensemble`].
    fn estimate(&mut self, input: &EstimatorInput<'_>) -> Result<TodTensor> {
        let trainer = OvsTrainer::new(self.cfg.clone()).with_registry(self.obs.clone());
        let (_, mean) = trainer.run_ensemble(input, Start::Cold)?;
        Ok(matrix_to_tod(&mean))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OvsVariant;
    use crate::estimator::TrainTriple;
    use datagen::{Dataset, TodPattern};

    fn tiny_dataset() -> Dataset {
        let spec = datagen::dataset::DatasetSpec {
            t: 4,
            interval_s: 120.0,
            train_samples: 4,
            demand_scale: 0.05,
            seed: 3,
        };
        Dataset::synthetic(TodPattern::Gaussian, &spec).unwrap()
    }

    fn to_input<'a>(
        ds: &'a Dataset,
        triples: &'a [TrainTriple],
        census: Option<&'a [f64]>,
    ) -> EstimatorInput<'a> {
        let mut b = EstimatorInput::builder(&ds.net, &ds.ods)
            .interval_s(ds.sim_config.interval_s)
            .sim_seed(ds.sim_config.seed)
            .train(triples)
            .observed_speed(&ds.observed_speed);
        if let Some(c) = census {
            b = b.census(c);
        }
        b.build()
    }

    #[test]
    fn stage1_reduces_v2s_loss() {
        let ds = tiny_dataset();
        let input = to_input(&ds, &ds.train, None);
        let cfg = OvsConfig::tiny();
        let mut model = OvsModel::new(&ds.net, &ds.ods, 4, input.interval_s, cfg.clone()).unwrap();
        let trainer = OvsTrainer::new(cfg);
        let losses = trainer.train_v2s(&mut model, &ds.train).unwrap();
        let head: f64 = losses[..5].iter().sum::<f64>() / 5.0;
        let tail: f64 = losses[losses.len() - 5..].iter().sum::<f64>() / 5.0;
        assert!(tail < head, "stage 1: {head} -> {tail}");
    }

    /// A NaN weight inside the V2S LSTM must reach the loss through the
    /// gate activations and trip the stage's rollback guard; an
    /// activation that clamped its input would turn the NaN into a
    /// saturated gate and let the stage finish with finite losses.
    #[test]
    fn nan_v2s_lstm_weight_trips_the_rollback_guard() {
        let ds = tiny_dataset();
        let cfg = OvsConfig::tiny();
        let mut model = OvsModel::new(&ds.net, &ds.ods, 4, 120.0, cfg.clone()).unwrap();
        // The first V2S parameter is the first LSTM's input weights.
        let mut poisoned = false;
        model.v2s.visit_params(&mut |w, _| {
            if !poisoned {
                w.as_mut_slice()[0] = f64::NAN;
                poisoned = true;
            }
        });
        assert!(poisoned);
        let reg = obs::Registry::new();
        let trainer = OvsTrainer::new(cfg).with_registry(reg.clone());
        let err = trainer.train_v2s(&mut model, &ds.train).unwrap_err();
        let budget = RecoveryPolicy::default().max_retries;
        assert!(
            matches!(err, TrainError::Diverged { stage: Stage::V2s, retries, .. } if retries == budget),
            "{err}"
        );
        assert_eq!(
            reg.counter("trainer_v2s_nonfinite_total").get(),
            u64::from(budget) + 1
        );
    }

    #[test]
    fn full_pipeline_runs_and_fit_loss_drops() {
        let ds = tiny_dataset();
        let input = to_input(&ds, &ds.train, None);
        let trainer = OvsTrainer::new(OvsConfig::tiny());
        let (mut model, report) = trainer.run(&input, RunOptions::default()).unwrap();
        let fit = &report.fit_losses;
        assert!(fit.last().unwrap() < fit.first().unwrap(), "{fit:?}");
        let tod = model.recovered_tod();
        assert_eq!(tod.shape(), (ds.n_od(), 4));
        assert!(tod.is_finite());
    }

    #[test]
    fn estimator_interface_produces_valid_tod() {
        let ds = tiny_dataset();
        let input = to_input(&ds, &ds.train, None);
        let mut est = OvsEstimator::new(OvsConfig::tiny());
        assert_eq!(est.name(), "OVS");
        let tod = est.estimate(&input).unwrap();
        assert_eq!(tod.rows(), ds.n_od());
        assert!(tod.is_non_negative());
        assert!(tod.is_finite());
    }

    #[test]
    fn trainer_records_per_stage_metrics() {
        let ds = tiny_dataset();
        let input = to_input(&ds, &ds.train, None);
        let reg = obs::Registry::new();
        let trainer = OvsTrainer::new(OvsConfig::tiny()).with_registry(reg.clone());
        let (_, report) = trainer.run(&input, RunOptions::default()).unwrap();
        assert_eq!(
            reg.counter("trainer_v2s_steps_total").get() as usize,
            report.v2s_losses.len()
        );
        assert_eq!(
            reg.counter("trainer_tod2v_steps_total").get() as usize,
            report.tod2v_losses.len()
        );
        assert_eq!(
            reg.counter("trainer_fit_steps_total").get() as usize,
            report.fit_losses.len()
        );
        assert_eq!(
            reg.gauge("trainer_fit_final_loss").get(),
            *report.fit_losses.last().unwrap()
        );
        let hist = reg.histogram("trainer_v2s_loss", obs::LOSS_BUCKETS);
        assert_eq!(hist.count() as usize, report.v2s_losses.len());
        let norms = reg.histogram("trainer_fit_grad_norm", obs::NORM_BUCKETS);
        assert_eq!(norms.count() as usize, report.fit_losses.len());
        // Wall-clock gauges exist but stay out of the stable snapshot.
        let stable = reg.to_json_stable();
        assert!(stable.contains("trainer_v2s_final_loss"));
        assert!(!stable.contains("trainer_v2s_seconds"));
    }

    #[test]
    fn census_loss_pushes_daily_totals_toward_census() {
        let ds = tiny_dataset();
        let census: Vec<f64> = ds.census.as_slice().to_vec();

        // Without the constraint:
        let input_plain = to_input(&ds, &ds.train, None);
        let mut est = OvsEstimator::new(OvsConfig::tiny().with_seed(5));
        let tod_plain = est.estimate(&input_plain).unwrap();

        // With the constraint:
        let input_census = to_input(&ds, &ds.train, Some(&census));
        let mut est = OvsEstimator::new(OvsConfig::tiny().with_seed(5).with_aux_weights(0.05, 0.0));
        let tod_census = est.estimate(&input_census).unwrap();

        let err = |tod: &TodTensor| -> f64 {
            (0..tod.rows())
                .map(|i| {
                    let s = tod.row_total(roadnet::OdPairId(i));
                    (s - census[i]).powi(2)
                })
                .sum::<f64>()
                / tod.rows() as f64
        };
        assert!(
            err(&tod_census) < err(&tod_plain),
            "census-constrained totals must sit closer to census: {} vs {}",
            err(&tod_census),
            err(&tod_plain)
        );
    }

    #[test]
    fn demand_calibration_tracks_observed_speed() {
        // Build two observations from the same corpus: a light scenario
        // and a heavy one. The calibrated level must be larger for the
        // heavy (slower) observation.
        let ds = tiny_dataset();
        let (mut light_idx, mut heavy_idx) = (0usize, 0usize);
        for (k, s) in ds.train.iter().enumerate() {
            if s.tod.total() < ds.train[light_idx].tod.total() {
                light_idx = k;
            }
            if s.tod.total() > ds.train[heavy_idx].tod.total() {
                heavy_idx = k;
            }
        }
        let mut input_l = to_input(&ds, &ds.train, None);
        input_l.observed_speed = &ds.train[light_idx].speed;
        let mut input_h = to_input(&ds, &ds.train, None);
        input_h.observed_speed = &ds.train[heavy_idx].speed;
        let level_l = calibrate_demand_level(&input_l);
        let level_h = calibrate_demand_level(&input_h);
        assert!(
            level_h > level_l,
            "heavier scenario must calibrate higher: {level_h} vs {level_l}"
        );
        // And the levels bracket the corresponding true mean cells
        // loosely (within the corpus range).
        let cells = (ds.n_od() * ds.n_intervals()) as f64;
        let mean_l = ds.train[light_idx].tod.total() / cells;
        let mean_h = ds.train[heavy_idx].tod.total() / cells;
        assert!(level_l < mean_h && level_h > mean_l);
    }

    #[test]
    fn huber_fit_configuration_runs() {
        let ds = tiny_dataset();
        let input = to_input(&ds, &ds.train, None);
        let mut cfg = OvsConfig::tiny();
        cfg.fit_huber_delta = 0.0; // plain MSE path
        let (mut m0, _) = OvsTrainer::new(cfg.clone())
            .run(&input, RunOptions::default())
            .unwrap();
        cfg.fit_huber_delta = 1.0;
        let (mut m1, _) = OvsTrainer::new(cfg)
            .run(&input, RunOptions::default())
            .unwrap();
        assert!(m0.recovered_tod().is_finite());
        assert!(m1.recovered_tod().is_finite());
        // The two losses optimise different objectives; outputs differ.
        assert_ne!(m0.recovered_tod(), m1.recovered_tod());
    }

    #[test]
    fn speed_limit_aux_keeps_fit_physical() {
        let ds = tiny_dataset();
        let input = to_input(&ds, &ds.train, None);
        let cfg = OvsConfig {
            w_speed_limit: 1.0,
            ..OvsConfig::tiny()
        };
        let trainer = OvsTrainer::new(cfg);
        let (mut model, report) = trainer.run(&input, RunOptions::default()).unwrap();
        assert!(report.final_fit().unwrap().is_finite());
        let (_, _, v) = model.forward_full(&mut Workspace::new());
        // Sigmoid-bounded output cannot exceed v_max anyway; the aux loss
        // must at least not destabilise anything.
        assert!(v.is_finite());
    }

    #[test]
    fn empty_corpus_is_an_error() {
        let ds = tiny_dataset();
        let input = to_input(&ds, &[], None);
        let trainer = OvsTrainer::new(OvsConfig::tiny());
        assert!(trainer.run(&input, RunOptions::default()).is_err());
    }

    #[test]
    fn ablated_variants_run_end_to_end() {
        let ds = tiny_dataset();
        let input = to_input(&ds, &ds.train, None);
        for variant in [OvsVariant::NoTodGen, OvsVariant::NoTod2V, OvsVariant::NoV2S] {
            let mut est = OvsEstimator::new(OvsConfig::tiny().with_variant(variant));
            let tod = est.estimate(&input).unwrap();
            assert!(tod.is_finite(), "{variant:?}");
        }
    }
}

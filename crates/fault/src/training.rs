//! Training-layer fault injection: poisoned losses and interrupted
//! checkpoint writes.
//!
//! [`TrainingFaultInjector`] plugs into the trainer's tamper tap
//! (`RunOptions::tamper` of `OvsTrainer::run`) and forces the loss
//! to `NaN` at the planned steps; [`CkptInterrupter`] wraps a
//! checkpoint-write hook and fails it at the planned steps. Both are
//! transient by default — a fault fires once per `(stage, step)`, so the
//! trainer's rollback-and-retry path replays cleanly past it — and
//! persistent on request, which must exhaust the retry budget and
//! surface as `TrainError::Diverged`.

use crate::plan::{StageSel, TrainingFaults};
use obs::global;
use ovs_core::{PipelineCheckpoint, Stage};
use std::collections::BTreeSet;

/// Stable counter: losses poisoned to `NaN` by the injector.
pub const TRAIN_POISONED: &str = "fault_train_poisoned_losses_total";
/// Stable counter: checkpoint writes failed by the interrupter.
pub const TRAIN_CKPT_INTERRUPTS: &str = "fault_train_ckpt_interrupts_total";

fn stage_idx(stage: Stage) -> u8 {
    match stage {
        Stage::V2s => 0,
        Stage::Tod2v => 1,
        Stage::Fit => 2,
    }
}

/// Forces non-finite losses at planned steps via the trainer's tamper tap.
#[derive(Debug, Clone)]
pub struct TrainingFaultInjector {
    stage: StageSel,
    steps: BTreeSet<usize>,
    persistent: bool,
    fired: BTreeSet<(u8, usize)>,
    injected: usize,
}

impl TrainingFaultInjector {
    /// Builds an injector from the plan's training section (only the
    /// `nonfinite_steps` part — checkpoint faults are
    /// [`CkptInterrupter`]'s job).
    pub fn new(faults: &TrainingFaults) -> Self {
        Self {
            stage: faults.stage.unwrap_or(StageSel::Any),
            steps: faults.nonfinite_steps.iter().copied().collect(),
            persistent: faults.persistent,
            fired: BTreeSet::new(),
            injected: 0,
        }
    }

    /// How many losses were poisoned so far.
    pub fn injected(&self) -> usize {
        self.injected
    }

    /// The tamper-tap entry point: pass
    /// `&mut |s, st, l, n| injector.tamper(s, st, l, n)` as
    /// `RunOptions::tamper`. The gradient norm is left untouched — a
    /// non-finite loss alone must trip the guard.
    pub fn tamper(&mut self, stage: Stage, step: usize, loss: &mut f64, _norm: &mut f64) {
        if !self.stage.matches(stage) || !self.steps.contains(&step) {
            return;
        }
        if !self.persistent && !self.fired.insert((stage_idx(stage), step)) {
            return;
        }
        *loss = f64::NAN;
        self.injected += 1;
        global().counter(TRAIN_POISONED).inc();
    }
}

/// Fails checkpoint writes at planned steps, simulating an interrupted
/// write. Wrap the real hook and pass it as `RunOptions::on_checkpoint`:
///
/// ```ignore
/// let mut interrupter = CkptInterrupter::new(&plan.training);
/// let mut hook = |cp: &PipelineCheckpoint| {
///     interrupter.intercept(cp)?;
///     real_store_write(cp)
/// };
/// ```
#[derive(Debug, Clone)]
pub struct CkptInterrupter {
    stage: StageSel,
    steps: BTreeSet<usize>,
    persistent: bool,
    fired: BTreeSet<(u8, usize)>,
    interrupted: usize,
}

impl CkptInterrupter {
    /// Builds an interrupter from the plan's `ckpt_fail_steps`.
    pub fn new(faults: &TrainingFaults) -> Self {
        Self {
            stage: faults.stage.unwrap_or(StageSel::Any),
            steps: faults.ckpt_fail_steps.iter().copied().collect(),
            persistent: faults.persistent,
            fired: BTreeSet::new(),
            interrupted: 0,
        }
    }

    /// How many writes were interrupted so far.
    // lint: allow(dead_api) — the probe of a fault injector: tests read it to check the injected write fault fired
    pub fn interrupted(&self) -> usize {
        self.interrupted
    }

    /// Returns `Err` when the plan says this write must fail. Call it
    /// before the real write so the simulated interruption prevents the
    /// artifact from landing, exactly like a crash mid-write would.
    // lint: allow(dead_api) — fault-injection hook the self-healing suite interrupts writes through
    pub fn intercept(&mut self, cp: &PipelineCheckpoint) -> roadnet::Result<()> {
        let (stage, step) = (cp.state.stage, cp.state.step);
        if !self.stage.matches(stage) || !self.steps.contains(&step) {
            return Ok(());
        }
        if !self.persistent && !self.fired.insert((stage_idx(stage), step)) {
            return Ok(());
        }
        self.interrupted += 1;
        global().counter(TRAIN_CKPT_INTERRUPTS).inc();
        Err(roadnet::RoadnetError::Internal(format!(
            "injected checkpoint-write interruption at {} step {step}",
            stage.tag()
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn faults(steps: Vec<usize>, persistent: bool) -> TrainingFaults {
        TrainingFaults {
            stage: Some(StageSel::Fit),
            nonfinite_steps: steps.clone(),
            ckpt_fail_steps: steps,
            persistent,
        }
    }

    #[test]
    fn transient_fault_fires_once_per_step() {
        let mut inj = TrainingFaultInjector::new(&faults(vec![3], false));
        let (mut loss, mut norm) = (0.5, 1.0);
        inj.tamper(Stage::Fit, 3, &mut loss, &mut norm);
        assert!(loss.is_nan());
        assert_eq!(norm, 1.0, "gradient norm stays untouched");
        // The rollback replay revisits step 3: the fault must not re-fire.
        loss = 0.5;
        inj.tamper(Stage::Fit, 3, &mut loss, &mut norm);
        assert_eq!(loss, 0.5);
        assert_eq!(inj.injected(), 1);
    }

    #[test]
    fn persistent_fault_fires_every_visit() {
        let mut inj = TrainingFaultInjector::new(&faults(vec![3], true));
        for _ in 0..4 {
            let (mut loss, mut norm) = (0.5, 1.0);
            inj.tamper(Stage::Fit, 3, &mut loss, &mut norm);
            assert!(loss.is_nan());
        }
        assert_eq!(inj.injected(), 4);
    }

    #[test]
    fn stage_and_step_filters_apply() {
        let mut inj = TrainingFaultInjector::new(&faults(vec![3], false));
        let (mut loss, mut norm) = (0.5, 1.0);
        inj.tamper(Stage::V2s, 3, &mut loss, &mut norm);
        inj.tamper(Stage::Fit, 4, &mut loss, &mut norm);
        assert_eq!(loss, 0.5);
        assert_eq!(inj.injected(), 0);
    }
}

//! Resume-equivalence integration tests: training for 2N steps must be
//! indistinguishable — loss trace and weights, bit for bit — from
//! training N steps, checkpointing, and resuming for the remaining N.
//! Also covers the warm-start path (skip stages 1-2 entirely) and the
//! pipeline artifact round trip.

use checkpoint::format::Artifact;
use datagen::{Dataset, TodPattern};
use neural::Matrix;
use ovs_core::trainer::{OvsTrainer, PipelineCheckpoint, Stage};
use ovs_core::{
    artifact, EstimatorInput, OvsConfig, RecoveryPolicy, RunOptions, Start, TrainError,
};

fn tiny_dataset() -> Dataset {
    let spec = datagen::dataset::DatasetSpec {
        t: 3,
        interval_s: 120.0,
        train_samples: 3,
        demand_scale: 0.2,
        seed: 9,
    };
    Dataset::synthetic(TodPattern::Gaussian, &spec).unwrap()
}

fn input(ds: &Dataset) -> EstimatorInput<'_> {
    EstimatorInput::builder(&ds.net, &ds.ods)
        .interval_s(ds.sim_config.interval_s)
        .sim_seed(ds.sim_config.seed)
        .train(&ds.train)
        .observed_speed(&ds.observed_speed)
        .build()
}

/// The tiny config; no OVS module carries RNG state outside the
/// checkpoint, so every run is deterministic.
fn cfg() -> OvsConfig {
    OvsConfig::tiny()
}

fn resume_from(cp: PipelineCheckpoint) -> RunOptions<'static> {
    RunOptions {
        start: Start::Resume(Box::new(cp)),
        ..RunOptions::default()
    }
}

/// Runs the pipeline once, collecting a checkpoint every `every` steps.
fn capture_every(
    trainer: &OvsTrainer,
    inp: &EstimatorInput<'_>,
    every: usize,
) -> Vec<PipelineCheckpoint> {
    let mut caps = Vec::new();
    let mut capture = |cp: &PipelineCheckpoint| {
        caps.push(cp.clone());
        Ok(())
    };
    trainer
        .run(
            inp,
            RunOptions {
                checkpoint_every: every,
                on_checkpoint: Some(&mut capture),
                ..RunOptions::default()
            },
        )
        .unwrap();
    caps
}

#[test]
fn resume_reproduces_uninterrupted_training_bit_exactly() {
    let ds = tiny_dataset();
    let inp = input(&ds);
    let trainer = OvsTrainer::new(cfg());

    // Reference: one uninterrupted run.
    let (mut ref_model, ref_report) = trainer.run(&inp, RunOptions::default()).unwrap();
    let ref_weights = ref_model.export_weights();

    // Same run with periodic checkpoint capture — the hook must not
    // perturb training.
    let mut caps: Vec<PipelineCheckpoint> = Vec::new();
    let mut capture = |cp: &PipelineCheckpoint| {
        caps.push(cp.clone());
        Ok(())
    };
    let (_, hooked_report) = trainer
        .run(
            &inp,
            RunOptions {
                checkpoint_every: 7,
                on_checkpoint: Some(&mut capture),
                ..RunOptions::default()
            },
        )
        .unwrap();
    assert_eq!(hooked_report.v2s_losses, ref_report.v2s_losses);
    assert_eq!(hooked_report.tod2v_losses, ref_report.tod2v_losses);
    assert_eq!(hooked_report.fit_losses, ref_report.fit_losses);
    assert!(
        caps.len() >= 3,
        "expected several checkpoints, got {}",
        caps.len()
    );
    // All three stages should have produced at least one snapshot.
    for stage in [Stage::V2s, Stage::Tod2v, Stage::Fit] {
        assert!(
            caps.iter().any(|cp| cp.state.stage == stage),
            "no checkpoint captured during {stage:?}"
        );
    }

    // Resume from the first and the last snapshot of every stage (the
    // last ones sit just before the V2s->Tod2v and Tod2v->Fit hand-offs):
    // each resumed run must land on the exact same traces and weights.
    let mut picks = Vec::new();
    for stage in [Stage::V2s, Stage::Tod2v, Stage::Fit] {
        let of_stage = |cp: &PipelineCheckpoint| cp.state.stage == stage;
        picks.extend(caps.iter().position(of_stage));
        picks.extend(caps.iter().rposition(of_stage));
    }
    assert_eq!(picks.len(), 6);
    for idx in picks {
        let cp = caps[idx].clone();
        let stage = cp.state.stage;
        let step = cp.state.step;
        let (mut res_model, res_report) = trainer.run(&inp, resume_from(cp)).unwrap();
        assert_eq!(
            res_report.v2s_losses, ref_report.v2s_losses,
            "v2s trace diverged resuming from {stage:?} step {step}"
        );
        assert_eq!(
            res_report.tod2v_losses, ref_report.tod2v_losses,
            "tod2v trace diverged resuming from {stage:?} step {step}"
        );
        assert_eq!(
            res_report.fit_losses, ref_report.fit_losses,
            "fit trace diverged resuming from {stage:?} step {step}"
        );
        assert_eq!(
            res_model.export_weights(),
            ref_weights,
            "weights diverged resuming from {stage:?} step {step}"
        );
    }
}

#[test]
fn pipeline_checkpoint_survives_the_artifact_format() {
    let ds = tiny_dataset();
    let inp = input(&ds);
    let trainer = OvsTrainer::new(cfg());

    let caps = capture_every(&trainer, &inp, 11);
    let cp = caps[caps.len() / 2].clone();

    let bytes = artifact::save_pipeline(&cp, &cfg()).unwrap().to_bytes();
    let parsed = Artifact::from_bytes(&bytes).unwrap();
    let back = artifact::load_pipeline(&parsed, &cfg()).unwrap();

    assert_eq!(back.state.stage, cp.state.stage);
    assert_eq!(back.state.step, cp.state.step);
    assert_eq!(back.state.losses, cp.state.losses);
    assert_eq!(back.state.weights, cp.state.weights);
    assert_eq!(back.state.opt.t, cp.state.opt.t);
    assert_eq!(back.state.opt.m, cp.state.opt.m);
    assert_eq!(back.state.opt.v, cp.state.opt.v);
    assert_eq!(back.model_weights, cp.model_weights);
    assert_eq!(back.v2s_losses, cp.v2s_losses);
    assert_eq!(back.tod2v_losses, cp.tod2v_losses);

    // And a resume from the decoded snapshot matches a resume from the
    // in-memory one.
    let (_, rep_mem) = trainer.run(&inp, resume_from(cp)).unwrap();
    let (_, rep_disk) = trainer.run(&inp, resume_from(back)).unwrap();
    assert_eq!(rep_mem.fit_losses, rep_disk.fit_losses);
}

/// Fault-injection extension of the resume-equivalence property: a loss
/// transiently poisoned to `NaN` mid-stage trips the non-finite guard,
/// which rolls back to the last good checkpoint and replays — and the
/// replayed trajectory is bit-identical to a run that was never poisoned.
#[test]
fn transiently_poisoned_run_heals_bit_exactly() {
    let ds = tiny_dataset();
    let inp = input(&ds);
    let trainer = OvsTrainer::new(cfg());

    let (mut ref_model, ref_report) = trainer.run(&inp, RunOptions::default()).unwrap();
    let ref_weights = ref_model.export_weights();

    // Poison one step in every stage, once each; all steps sit past the
    // first checkpoint anchor (every 7 steps) so each rollback replays a
    // short stretch rather than the whole stage.
    let mut poisoned: Vec<(Stage, usize)> = Vec::new();
    let mut tamper = |stage: Stage, step: usize, loss: &mut f64, _norm: &mut f64| {
        let plan = [(Stage::V2s, 9), (Stage::Tod2v, 8), (Stage::Fit, 10)];
        if plan.contains(&(stage, step)) && !poisoned.contains(&(stage, step)) {
            poisoned.push((stage, step));
            *loss = f64::NAN;
        }
    };
    let (mut healed_model, healed_report) = trainer
        .run(
            &inp,
            RunOptions {
                checkpoint_every: 7,
                tamper: Some(&mut tamper),
                ..RunOptions::default()
            },
        )
        .expect("a transient non-finite loss must heal, not abort");

    assert_eq!(
        poisoned.len(),
        3,
        "all three stage faults fired: {poisoned:?}"
    );
    assert_eq!(healed_report.v2s_losses, ref_report.v2s_losses);
    assert_eq!(healed_report.tod2v_losses, ref_report.tod2v_losses);
    assert_eq!(healed_report.fit_losses, ref_report.fit_losses);
    assert_eq!(
        healed_model.export_weights(),
        ref_weights,
        "healed weights must be bit-identical to the uninjected run"
    );
}

/// The retry budget is finite: a fault that re-fires on every replay of
/// the same step ends in the typed divergence error.
#[test]
fn persistent_poison_is_a_typed_divergence() {
    let ds = tiny_dataset();
    let inp = input(&ds);
    let trainer = OvsTrainer::new(cfg());

    let mut tamper = |stage: Stage, step: usize, loss: &mut f64, _norm: &mut f64| {
        if stage == Stage::Tod2v && step == 2 {
            *loss = f64::INFINITY;
        }
    };
    let outcome = trainer.run(
        &inp,
        RunOptions {
            recovery: RecoveryPolicy {
                max_retries: 2,
                lr_backoff: 0.5,
            },
            tamper: Some(&mut tamper),
            ..RunOptions::default()
        },
    );
    let Err(err) = outcome else {
        panic!("a persistent fault must not heal");
    };
    match err {
        TrainError::Diverged {
            stage,
            step,
            retries,
        } => {
            assert_eq!((stage, step, retries), (Stage::Tod2v, 2, 2));
        }
        other => panic!("expected TrainError::Diverged, got {other}"),
    }
}

#[test]
fn warm_start_skips_stages_and_converges() {
    let ds = tiny_dataset();
    let inp = input(&ds);
    let trainer = OvsTrainer::new(cfg());

    let (mut cold_model, cold_report) = trainer.run(&inp, RunOptions::default()).unwrap();
    assert!(cold_report.final_tod2v().is_some());
    let weights = cold_model.export_weights();

    let warm = RunOptions {
        start: Start::Warm(&weights),
        ..RunOptions::default()
    };
    let (_, warm_report) = trainer.run(&inp, warm).unwrap();
    assert!(warm_report.v2s_losses.is_empty());
    assert!(warm_report.tod2v_losses.is_empty());
    assert!(!warm_report.fit_losses.is_empty());
    assert!(warm_report.final_fit().unwrap().is_finite());

    let cold_steps = cold_report.v2s_losses.len()
        + cold_report.tod2v_losses.len()
        + cold_report.fit_losses.len();
    let warm_steps = warm_report.fit_losses.len();
    assert!(
        warm_steps < cold_steps,
        "warm start must save steps: {warm_steps} vs {cold_steps}"
    );
}

/// Adam moments that do not match the stage's parameter shapes are a
/// typed resume error, not a panic on the first step after resuming.
#[test]
fn resume_with_mismatched_optimiser_state_is_an_error() {
    let ds = tiny_dataset();
    let inp = input(&ds);
    let trainer = OvsTrainer::new(cfg());
    let caps = capture_every(&trainer, &inp, 7);
    let cp = caps
        .iter()
        .find(|cp| cp.state.stage == Stage::Tod2v)
        .expect("a stage-2 checkpoint")
        .clone();
    assert!(
        !cp.state.opt.m.is_empty(),
        "a mid-stage capture has moments"
    );

    // One slot one row too tall: in the first `m` slot, then in the last
    // `v` slot.
    let taller = |m: &Matrix| Matrix::zeros(m.rows() + 1, m.cols());
    let mut bad_m = cp.clone();
    bad_m.state.opt.m[0] = taller(&cp.state.opt.m[0]);
    let mut bad_v = cp;
    if let Some(slot) = bad_v.state.opt.v.last_mut() {
        *slot = taller(slot);
    }
    for bad in [bad_m, bad_v] {
        let outcome = trainer.run(&inp, resume_from(bad));
        assert!(
            matches!(outcome, Err(TrainError::Net(_))),
            "mismatched moments must be rejected"
        );
    }
}

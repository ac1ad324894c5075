//! The acceptance scenario of the fault harness: a plan that poisons a
//! training loss at step `k`, interrupts a checkpoint write, AND corrupts
//! a checkpoint artifact on disk — and the pipeline still completes,
//! producing a final model bit-identical to a clean run with the same
//! seed.

use checkpoint::store::{ArtifactStore, Provenance};
use checkpoint::{RecordingClock, RetryPolicy};
use datagen::dataset::DatasetSpec;
use datagen::{Dataset, TodPattern};
use fault::{
    CkptInterrupter, FaultPlan, StageSel, StorageFaults, TrainingFaultInjector, TrainingFaults,
};
use ovs_core::{
    artifact, EstimatorInput, OvsConfig, OvsTrainer, RecoveryPolicy, RunOptions, Stage, Start,
    TrainError,
};

fn tiny_dataset() -> Dataset {
    let spec = DatasetSpec {
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

fn cfg() -> OvsConfig {
    OvsConfig::tiny()
}

fn temp_store(tag: &str) -> (std::path::PathBuf, ArtifactStore) {
    let dir =
        std::env::temp_dir().join(format!("cityod-self-healing-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ArtifactStore::open(&dir).unwrap();
    (dir, store)
}

/// Non-finite loss at a fit step + one interrupted checkpoint write + a
/// bit-flipped artifact on disk: the guarded run completes via rollback
/// and retry, every surviving artifact is recoverable, and the final
/// model is bit-identical to the uninjected run.
#[test]
fn combined_faults_heal_to_a_bit_identical_model() {
    let ds = tiny_dataset();
    let inp = input(&ds);
    let trainer = OvsTrainer::new(cfg());

    // Reference: clean, uninjected run.
    let (mut ref_model, ref_report) = trainer.run(&inp, RunOptions::default()).unwrap();
    let ref_weights = ref_model.export_weights();

    // Faulted run: the plan poisons fit step 9 and fails the checkpoint
    // write at fit step 7 (transient, once each).
    let plan = FaultPlan {
        seed: 5,
        training: TrainingFaults {
            stage: Some(StageSel::Fit),
            nonfinite_steps: vec![9],
            ckpt_fail_steps: vec![7],
            persistent: false,
        },
        storage: StorageFaults {
            bit_flips: 3,
            truncate_bytes: 0,
        },
        ..Default::default()
    };
    let (dir, store) = temp_store("combined");
    let prov = Provenance::new("ovs-pipeline", "{}", plan.seed);

    let mut injector = TrainingFaultInjector::new(&plan.training);
    let mut interrupter = CkptInterrupter::new(&plan.training);
    let mut tamper = |stage: Stage, step: usize, loss: &mut f64, norm: &mut f64| {
        injector.tamper(stage, step, loss, norm);
    };
    let mut hook = |cp: &ovs_core::PipelineCheckpoint| {
        interrupter.intercept(cp)?;
        let b = artifact::save_pipeline(cp, &cfg())
            .map_err(|e| roadnet::RoadnetError::Internal(e.to_string()))?;
        store
            .save_versioned("pipe", &b, &prov)
            .map_err(|e| roadnet::RoadnetError::Internal(e.to_string()))?;
        Ok(())
    };
    let (mut healed_model, healed_report) = trainer
        .run(
            &inp,
            RunOptions {
                checkpoint_every: 7,
                on_checkpoint: Some(&mut hook),
                tamper: Some(&mut tamper),
                ..RunOptions::default()
            },
        )
        .expect("transient faults must heal");

    assert_eq!(injector.injected(), 1, "the loss fault fired once");
    assert_eq!(interrupter.interrupted(), 1, "the write fault fired once");
    // Bit-identical outcome: traces and weights match the clean run.
    assert_eq!(healed_report.v2s_losses, ref_report.v2s_losses);
    assert_eq!(healed_report.tod2v_losses, ref_report.tod2v_losses);
    assert_eq!(healed_report.fit_losses, ref_report.fit_losses);
    assert_eq!(healed_model.export_weights(), ref_weights);

    // Storage layer: corrupt the newest saved pipeline artifact on disk;
    // the recovery walk quarantines it and falls back to the previous
    // version, which still resumes onto the reference trajectory.
    let names = store.names().unwrap();
    let newest = names.iter().max().unwrap().clone();
    assert!(names.len() >= 2, "expected several versions, got {names:?}");
    assert!(
        fault::corrupt_artifact_file(&store.artifact_path(&newest), &plan.storage, plan.seed)
            .unwrap()
    );
    let clock = RecordingClock::new();
    let good = store
        .latest_good("pipe", &RetryPolicy::default(), &clock)
        .unwrap()
        .expect("an older good version must survive");
    assert_ne!(
        good.name(),
        newest,
        "the corrupt newest version was skipped"
    );
    assert!(!store.names().unwrap().contains(&newest), "quarantined");

    let cp = artifact::load_pipeline(good.artifact(), &cfg()).unwrap();
    let resume = RunOptions {
        start: Start::Resume(Box::new(cp)),
        ..RunOptions::default()
    };
    let (mut resumed_model, resumed_report) = trainer.run(&inp, resume).unwrap();
    assert_eq!(resumed_report.fit_losses, ref_report.fit_losses);
    assert_eq!(resumed_model.export_weights(), ref_weights);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A persistent fault — the same step poisoned on every visit — must
/// exhaust the retry budget and surface as the typed divergence error,
/// not hang or panic.
#[test]
fn persistent_poison_exhausts_retries_and_diverges() {
    let ds = tiny_dataset();
    let inp = input(&ds);
    let trainer = OvsTrainer::new(cfg());

    let mut injector = TrainingFaultInjector::new(&TrainingFaults {
        stage: Some(StageSel::Fit),
        nonfinite_steps: vec![4],
        ckpt_fail_steps: vec![],
        persistent: true,
    });
    let mut tamper = |stage: Stage, step: usize, loss: &mut f64, norm: &mut f64| {
        injector.tamper(stage, step, loss, norm);
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
            assert_eq!(stage, Stage::Fit);
            assert_eq!(step, 4);
            assert_eq!(retries, 2);
        }
        other => panic!("expected Diverged, got {other}"),
    }
    assert!(injector.injected() >= 3, "initial hit + every retry");
}

//! The recovery-event half of the fault harness's determinism contract:
//! one faulted pipeline pass moves every fault and recovery counter by
//! the same amount on one worker thread as on four.
//!
//! The counters live in the process-global `obs` registry, so this test
//! has a binary of its own: any other test running in the same process
//! (the corruption proptest in `determinism.rs` bumps the same
//! `fault_obs_*` counters) would leak into the measured deltas.

use datagen::dataset::DatasetSpec;
use datagen::{Dataset, TodPattern};
use fault::observation::{OBS_DROPPED, OBS_NOISY, OBS_NONFINITE, OBS_STUCK};
use fault::training::TRAIN_POISONED;
use fault::{corrupt_observation, ObservationFaults, TrainingFaultInjector, TrainingFaults};
use ovs_core::{EstimatorInput, OvsConfig, OvsTrainer, RunOptions, Stage};
use roadnet::parallel::Parallelism;

fn counter_names() -> Vec<&'static str> {
    vec![
        OBS_DROPPED,
        OBS_STUCK,
        OBS_NONFINITE,
        OBS_NOISY,
        TRAIN_POISONED,
        "trainer_fit_nonfinite_total",
        "trainer_fit_rollbacks_total",
        "trainer_fit_lr_backoffs_total",
        "trainer_fit_diverged_total",
    ]
}

fn snapshot(names: &[&str]) -> Vec<u64> {
    names
        .iter()
        .map(|n| obs::global().counter(n).get())
        .collect()
}

/// One full faulted pipeline pass under the given parallelism: corrupt
/// the observation, impute, train guarded with a poisoned fit step, and
/// return the deltas of every fault/recovery counter.
fn faulted_run_deltas(par: Parallelism) -> Vec<u64> {
    let names = counter_names();
    let before = snapshot(&names);
    par.run(|| {
        let spec = DatasetSpec {
            t: 3,
            interval_s: 120.0,
            train_samples: 3,
            demand_scale: 0.2,
            seed: 9,
        };
        let ds = Dataset::synthetic(TodPattern::Gaussian, &spec).unwrap();
        let faults = ObservationFaults {
            dropout: 0.3,
            noise_std: 0.2,
            stuck: 0.1,
            nonfinite: 0.02,
        };
        let corrupted = corrupt_observation(&ds.observed_speed, &faults, 21);
        let imputed = corrupted.imputed();
        let input = EstimatorInput::builder(&ds.net, &ds.ods)
            .interval_s(ds.sim_config.interval_s)
            .sim_seed(ds.sim_config.seed)
            .train(&ds.train)
            .observed_speed(&imputed)
            .build();
        let cfg = OvsConfig::tiny();
        let mut injector = TrainingFaultInjector::new(&TrainingFaults {
            stage: Some(fault::StageSel::Fit),
            nonfinite_steps: vec![3],
            ckpt_fail_steps: vec![],
            persistent: false,
        });
        let mut tamper = |stage: Stage, step: usize, loss: &mut f64, norm: &mut f64| {
            injector.tamper(stage, step, loss, norm);
        };
        OvsTrainer::new(cfg)
            .run(
                &input,
                RunOptions {
                    checkpoint_every: 7,
                    tamper: Some(&mut tamper),
                    ..RunOptions::default()
                },
            )
            .expect("transient fault must heal");
        assert_eq!(injector.injected(), 1);
    });
    let after = snapshot(&names);
    after.iter().zip(&before).map(|(a, b)| a - b).collect()
}

#[test]
fn recovery_counters_are_thread_count_invariant() {
    let serial = faulted_run_deltas(Parallelism::Serial);
    let par = faulted_run_deltas(Parallelism::Threads(4));
    let names = counter_names();
    for (i, name) in names.iter().enumerate() {
        assert_eq!(
            serial[i], par[i],
            "counter {name} differs between 1 and 4 threads"
        );
    }
    // The scenario actually exercised the counters it claims to compare.
    let idx = |n: &str| names.iter().position(|&x| x == n).unwrap();
    assert!(serial[idx(OBS_DROPPED)] > 0);
    assert_eq!(serial[idx(TRAIN_POISONED)], 1);
    assert_eq!(serial[idx("trainer_fit_nonfinite_total")], 1);
    assert_eq!(serial[idx("trainer_fit_rollbacks_total")], 1);
    assert_eq!(serial[idx("trainer_fit_diverged_total")], 0);
}

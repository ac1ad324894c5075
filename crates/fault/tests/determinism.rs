//! The determinism contract of the fault harness: the same `FaultPlan`
//! seed yields byte-identical corrupted observation tensors and identical
//! recovery-event counters whether the work runs on one worker thread or
//! four (the programmatic equivalent of `CITYOD_THREADS=1` vs `4`).

use datagen::dataset::DatasetSpec;
use datagen::{Dataset, TodPattern};
use fault::observation::{OBS_DROPPED, OBS_NOISY, OBS_NONFINITE, OBS_STUCK};
use fault::training::TRAIN_POISONED;
use fault::{corrupt_observation, ObservationFaults, TrainingFaultInjector, TrainingFaults};
use ovs_core::{EstimatorInput, OvsConfig, OvsTrainer, RunOptions, Stage};
use proptest::prelude::*;
use roadnet::parallel::Parallelism;
use roadnet::LinkTensor;

fn synthetic_speed(seed: u64, rows: usize, t: usize) -> LinkTensor {
    let mut rng = neural::rng::Rng64::new(seed);
    let data: Vec<f64> = (0..rows * t).map(|_| rng.uniform_in(2.0, 16.0)).collect();
    LinkTensor::from_data(rows, t, data).unwrap()
}

fn bits(t: &LinkTensor) -> Vec<u64> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Corruption is a pure function of `(tensor, faults, seed)` — the
    /// worker-thread count never changes a byte of the output.
    fn corruption_is_thread_count_invariant(
        seed in 0u64..10_000,
        dropout in 0.0f64..0.6,
        noise_std in 0.0f64..2.0,
    ) {
        let clean = synthetic_speed(seed ^ 0xABCD, 40, 6);
        let faults = ObservationFaults {
            dropout,
            noise_std,
            stuck: 0.2,
            nonfinite: 0.05,
        };
        let serial = Parallelism::Serial.run(|| corrupt_observation(&clean, &faults, seed));
        let par = Parallelism::Threads(4).run(|| corrupt_observation(&clean, &faults, seed));
        prop_assert_eq!(bits(&serial.speed), bits(&par.speed));
        prop_assert_eq!(&serial.mask, &par.mask);
        prop_assert_eq!(serial.stats, par.stats);
        // And the imputation built on top is equally invariant.
        prop_assert_eq!(bits(&serial.imputed()), bits(&par.imputed()));
    }
}

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
        let cfg = OvsConfig {
            dropout: 0.0,
            ..OvsConfig::tiny()
        };
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

//! The determinism contract of the fault harness: the same `FaultPlan`
//! seed yields byte-identical corrupted observation tensors whether the
//! work runs on one worker thread or four (the programmatic equivalent of
//! `CITYOD_THREADS=1` vs `4`). The matching check on recovery-event
//! counters lives in `recovery_counters.rs`.

use fault::{corrupt_observation, ObservationFaults};
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

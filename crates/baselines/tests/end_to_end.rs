//! End-to-end checks: every baseline recovers *something* sane on a tiny
//! synthetic dataset, and the better-suited methods beat trivial guesses.

use baselines::all_baselines;
use datagen::{Dataset, TodPattern};
use ovs_core::estimator::TrainTriple;
use ovs_core::{EstimatorInput, TodEstimator};
use roadnet::TodTensor;

fn tiny_dataset() -> Dataset {
    let spec = datagen::dataset::DatasetSpec {
        t: 4,
        interval_s: 120.0,
        train_samples: 5,
        demand_scale: 0.3,
        seed: 11,
    };
    Dataset::synthetic(TodPattern::Gaussian, &spec).unwrap()
}

fn input<'a>(ds: &'a Dataset, tr: &'a [TrainTriple]) -> EstimatorInput<'a> {
    EstimatorInput::builder(&ds.net, &ds.ods)
        .interval_s(ds.sim_config.interval_s)
        .sim_seed(ds.sim_config.seed)
        .train(tr)
        .observed_speed(&ds.observed_speed)
        .build()
}

#[test]
fn every_baseline_produces_valid_tod() {
    let ds = tiny_dataset();
    let inp = input(&ds, &ds.train);
    for mut b in all_baselines(3) {
        let tod = b
            .estimate(&inp)
            .unwrap_or_else(|e| panic!("{} failed: {e}", b.name()));
        assert_eq!(tod.rows(), ds.n_od(), "{}", b.name());
        assert_eq!(tod.num_intervals(), 4, "{}", b.name());
        assert!(tod.is_finite(), "{}", b.name());
        assert!(tod.is_non_negative(), "{}", b.name());
        assert!(
            tod.total() > 0.0,
            "{} must not predict zero demand",
            b.name()
        );
    }
}

#[test]
fn learned_baselines_beat_zero_guess() {
    let ds = tiny_dataset();
    let inp = input(&ds, &ds.train);
    let zero = TodTensor::zeros(ds.n_od(), 4);
    let zero_err = ds.groundtruth_tod.rmse(&zero).unwrap();
    // The regression baselines (NN, LSTM, EM, GLS) should comfortably
    // beat predicting nothing.
    for mut b in all_baselines(3) {
        let name = b.name().to_string();
        if name == "Gravity" || name == "Genetic" {
            continue; // structural methods; checked elsewhere
        }
        let tod = b.estimate(&inp).unwrap();
        let err = ds.groundtruth_tod.rmse(&tod).unwrap();
        assert!(
            err < zero_err,
            "{name}: RMSE {err} should beat the zero guess {zero_err}"
        );
    }
}

#[test]
fn baselines_without_corpus_fail_cleanly() {
    let ds = tiny_dataset();
    let inp = input(&ds, &[]);
    for mut b in all_baselines(0) {
        let name = b.name().to_string();
        if name == "Gravity" || name == "Genetic" {
            continue; // these tolerate an empty corpus
        }
        assert!(b.estimate(&inp).is_err(), "{name} must reject empty corpus");
    }
}

#[test]
fn gravity_reflects_population_structure() {
    // On a city dataset with populations set, Gravity's recovered TOD must
    // correlate with p_o * p_d / d^2 across ODs (it is the model).
    let spec = datagen::dataset::DatasetSpec {
        t: 3,
        interval_s: 120.0,
        train_samples: 3,
        demand_scale: 0.2,
        seed: 4,
    };
    let ds = Dataset::city(roadnet::presets::state_college(), &spec).unwrap();
    let inp = input(&ds, &ds.train);
    let mut grav = baselines::GravityEstimator::new();
    let tod = grav.estimate(&inp).unwrap();
    // Constant over time.
    for (id, _) in ds.ods.iter() {
        let row = tod.row(id);
        for w in row.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-12, "gravity TOD is static in t");
        }
    }
    // Row totals ordered like the gravity weights: spot-check extremes.
    let totals: Vec<f64> = ds.ods.iter().map(|(id, _)| tod.row_total(id)).collect();
    let max = totals.iter().cloned().fold(f64::MIN, f64::max);
    let min = totals.iter().cloned().fold(f64::MAX, f64::min);
    assert!(max > min, "gravity must differentiate OD pairs");
}

#[test]
fn genetic_final_candidate_fits_speed_well() {
    // The GA's winner must fit the observed speed better than an average
    // corpus tensor does.
    let ds = tiny_dataset();
    let inp = input(&ds, &ds.train);
    let mut gen = baselines::GeneticEstimator::new(3);
    let tod = gen.estimate(&inp).unwrap();
    let fit = |t: &TodTensor| {
        datagen::dataset::simulate(&ds.net, &ds.ods, &ds.sim_config, t)
            .unwrap()
            .speed
            .rmse(&ds.observed_speed)
            .unwrap()
    };
    let winner = fit(&tod);
    let corpus_avg: f64 = ds.train.iter().map(|s| fit(&s.tod)).sum::<f64>() / ds.train.len() as f64;
    assert!(
        winner <= corpus_avg + 1e-9,
        "GA winner {winner} must beat the corpus average {corpus_avg}"
    );
}

#[test]
fn nn_and_lstm_fit_training_distribution() {
    // Applied to a *training* sample's speed, the learned inverses should
    // recover that sample's TOD far better than the zero guess.
    let ds = tiny_dataset();
    let sample = &ds.train[0];
    let mut inp = input(&ds, &ds.train);
    inp.observed_speed = &sample.speed;
    for name in ["NN", "LSTM"] {
        let mut m: Box<dyn ovs_core::TodEstimator> = if name == "NN" {
            Box::new(baselines::NnEstimator::new(3))
        } else {
            Box::new(baselines::LstmEstimator::new(3))
        };
        let tod = m.estimate(&inp).unwrap();
        let err = sample.tod.rmse(&tod).unwrap();
        let zero = sample
            .tod
            .rmse(&TodTensor::zeros(ds.n_od(), ds.n_intervals()))
            .unwrap();
        assert!(
            err < zero * 0.8,
            "{name} on in-distribution data: {err} vs zero {zero}"
        );
    }
}

#[test]
fn em_recovers_scaled_training_scenario() {
    // EM's linear model should track demand level: feeding the speed of a
    // heavy corpus sample yields a heavier TOD estimate than feeding the
    // speed of a light one.
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
    let mut est_light = baselines::EmEstimator::new();
    let mut inp_l = input(&ds, &ds.train);
    inp_l.observed_speed = &ds.train[light_idx].speed;
    let tod_l = est_light.estimate(&inp_l).unwrap();

    let mut est_heavy = baselines::EmEstimator::new();
    let mut inp_h = input(&ds, &ds.train);
    inp_h.observed_speed = &ds.train[heavy_idx].speed;
    let tod_h = est_heavy.estimate(&inp_h).unwrap();

    assert!(
        tod_h.total() > tod_l.total(),
        "EM: heavy scenario {} must out-total light {}",
        tod_h.total(),
        tod_l.total()
    );
}

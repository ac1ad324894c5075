//! Warm start: train OVS on one city, checkpoint it, and fine-tune the
//! saved model on a *different* demand draw of the same network — paying
//! only the test-time fit instead of the full three-stage pipeline.
//!
//! Prints the gradient-step and wall-clock reduction, and shows that the
//! warm-started recovery stays competitive with the cold one.
//!
//! Run: `cargo run --release --example warm_start`

use city_od::checkpoint::format::Artifact;
use city_od::datagen::dataset::DatasetSpec;
use city_od::datagen::{Dataset, TodPattern};
use city_od::eval::harness::DatasetInput;
use city_od::eval::metrics::evaluate_tod;
use city_od::ovs_core::estimator::matrix_to_tod;
use city_od::ovs_core::trainer::{OvsTrainer, RunOptions, Start};
use city_od::ovs_core::{artifact, OvsConfig};
use std::time::Instant;

fn main() {
    let cfg = OvsConfig {
        lstm_hidden: 16,
        ..OvsConfig::default()
    };
    let spec = DatasetSpec {
        t: 6,
        interval_s: 300.0,
        train_samples: 6,
        demand_scale: 0.15,
        seed: 42,
    };

    // 1. Cold run on the source dataset: all three stages.
    let source = Dataset::synthetic(TodPattern::Gaussian, &spec).expect("source dataset");
    let source_owned = DatasetInput::new(&source);
    let source_input = source_owned.input(&source, false);
    let trainer = OvsTrainer::new(cfg.clone());
    let t0 = Instant::now();
    let (mut model, cold_report) = trainer
        .run(&source_input, RunOptions::default())
        .expect("cold training");
    let cold_secs = t0.elapsed().as_secs_f64();
    let cold_steps = cold_report.v2s_losses.len()
        + cold_report.tod2v_losses.len()
        + cold_report.fit_losses.len();
    println!(
        "cold run   : {} steps ({} v2s + {} tod2v + {} fit) in {:.1}s",
        cold_steps,
        cold_report.v2s_losses.len(),
        cold_report.tod2v_losses.len(),
        cold_report.fit_losses.len(),
        cold_secs
    );

    // 2. Persist the trained model as a checkpoint artifact (in memory
    //    here; `cityod checkpoint save` writes the same bytes to a store).
    let bytes = artifact::save_model(&mut model, None)
        .expect("model serialises")
        .to_bytes();
    println!("checkpoint : {} bytes, CRC-checked sections", bytes.len());

    // 3. A new problem on the same network: different demand draw, so the
    //    learned physics (V2S, TOD2V) transfer but the TOD must be re-fit.
    let target = Dataset::synthetic(TodPattern::Gaussian, &DatasetSpec { seed: 1042, ..spec })
        .expect("target dataset");
    let target_owned = DatasetInput::new(&target);
    let target_input = target_owned.input(&target, false);

    // 4. Warm start: load the artifact, run only the test-time fit.
    let parsed = Artifact::from_bytes(&bytes).expect("artifact parses");
    let weights = artifact::model_weights(&parsed, &cfg).expect("structure matches");
    let t1 = Instant::now();
    let warm = RunOptions {
        start: Start::Warm(&weights),
        ..RunOptions::default()
    };
    let (mut warm_model, warm_report) = trainer.run(&target_input, warm).expect("warm training");
    let warm_secs = t1.elapsed().as_secs_f64();
    let warm_steps = warm_report.fit_losses.len();
    println!(
        "warm run   : {} steps (fit only) in {:.1}s",
        warm_steps, warm_secs
    );
    println!(
        "saved      : {:.0}% of gradient steps, {:.1}x wall-clock",
        100.0 * (1.0 - warm_steps as f64 / cold_steps as f64),
        cold_secs / warm_secs.max(1e-9)
    );

    // 5. The warm-started recovery is still a real recovery.
    let recovered = matrix_to_tod(&warm_model.recovered_tod());
    let rmse = evaluate_tod(&target, &recovered).expect("evaluates");
    println!(
        "warm RMSE  : tod {:.2} | volume {:.2} | speed {:.3}",
        rmse.tod, rmse.volume, rmse.speed
    );
}

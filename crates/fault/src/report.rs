//! The degradation report: accuracy as a function of injected damage.
//!
//! [`degradation_report`] evaluates the full OVS pipeline at every point
//! of the plan's sweep grid (dropout fraction x noise sigma). Each point
//! corrupts the observed speed tensor under its own derived seed
//! (`Rng64::stream_seed(plan.seed, point_index)`), fits OVS against the
//! *imputed* tensor — the pipeline never sees a `NaN` — and scores the
//! recovered TOD with the masked metrics, so dropped sensors are
//! excluded from the speed RMSE instead of entering as zero readings.
//! Training faults in the plan are injected into every point's run
//! through the trainer's guarded entry point, exercising the
//! rollback-and-retry path while the sweep measures accuracy.

use crate::observation::corrupt_observation;
use crate::plan::{FaultPlan, ObservationFaults};
use crate::training::TrainingFaultInjector;
use datagen::Dataset;
use eval::{evaluate_tod_masked, RmseTriple};
use neural::rng::Rng64;
use ovs_core::estimator::matrix_to_tod;
use ovs_core::{EstimatorInput, OvsConfig, OvsTrainer, RunOptions, Stage, TrainError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Steps between checkpoint anchors inside each sweep run: frequent
/// enough that an injected non-finite loss replays only a short stretch.
const SWEEP_CHECKPOINT_EVERY: usize = 25;

/// One evaluated point of the sweep grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DegradationPoint {
    /// Dropout fraction of this point.
    pub dropout: f64,
    /// Noise sigma (m/s) of this point.
    pub noise_std: f64,
    /// Fraction of speed cells that survived corruption.
    pub observed_fraction: f64,
    /// Masked evaluation of the recovered TOD (`speed` is computed only
    /// over observed cells).
    pub rmse: RmseTriple,
    /// Losses poisoned by training faults during this point's run.
    pub poisoned_losses: usize,
    /// `true` when the run exhausted the retry budget and diverged; the
    /// RMSE fields then hold `NaN`.
    pub diverged: bool,
}

/// The full sweep result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DegradationReport {
    /// Dataset the sweep ran on.
    pub dataset: String,
    /// Master seed of the plan.
    pub seed: u64,
    /// One entry per grid point, dropout-major order.
    pub points: Vec<DegradationPoint>,
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "degradation of {} (seed {}): {} grid point(s)",
            self.dataset,
            self.seed,
            self.points.len()
        )?;
        writeln!(
            f,
            "{:>8} {:>10} {:>9} {:>10} {:>10} {:>10} {:>7}",
            "dropout", "noise_std", "observed", "rmse_tod", "rmse_vol", "rmse_spd", "status"
        )?;
        for p in &self.points {
            let status = if p.diverged {
                "DIVERGED"
            } else if p.poisoned_losses > 0 {
                "healed"
            } else {
                "ok"
            };
            writeln!(
                f,
                "{:>8.2} {:>10.2} {:>8.1}% {:>10.4} {:>10.4} {:>10.4} {:>7}",
                p.dropout,
                p.noise_std,
                100.0 * p.observed_fraction,
                p.rmse.tod,
                p.rmse.volume,
                p.rmse.speed,
                status
            )?;
        }
        Ok(())
    }
}

/// Runs the sweep. Points are evaluated in deterministic grid order;
/// each point derives its corruption stream from
/// `Rng64::stream_seed(plan.seed, point_index)`, so the report is a pure
/// function of `(dataset, cfg, plan)`.
pub fn degradation_report(
    ds: &Dataset,
    cfg: &OvsConfig,
    plan: &FaultPlan,
) -> roadnet::Result<DegradationReport> {
    let mut points = Vec::new();
    for (idx, (dropout, noise_std)) in grid(plan).into_iter().enumerate() {
        let faults = ObservationFaults {
            dropout,
            noise_std,
            ..plan.observation.clone()
        };
        let point_seed = Rng64::stream_seed(plan.seed, idx as u64);
        let corrupted = corrupt_observation(&ds.observed_speed, &faults, point_seed);
        let imputed = corrupted.imputed();
        let input = EstimatorInput::builder(&ds.net, &ds.ods)
            .interval_s(ds.sim_config.interval_s)
            .sim_seed(ds.sim_config.seed)
            .train(&ds.train)
            .observed_speed(&imputed)
            .build();
        let trainer = OvsTrainer::new(cfg.clone());
        let mut injector = TrainingFaultInjector::new(&plan.training);
        let mut tamper = |stage: Stage, step: usize, loss: &mut f64, norm: &mut f64| {
            injector.tamper(stage, step, loss, norm);
        };
        let run = trainer.run(
            &input,
            RunOptions {
                checkpoint_every: SWEEP_CHECKPOINT_EVERY,
                tamper: Some(&mut tamper),
                ..RunOptions::default()
            },
        );
        let (rmse, diverged) = match run {
            Ok((mut model, _report)) => {
                let tod = matrix_to_tod(&model.recovered_tod());
                (evaluate_tod_masked(ds, &tod, &corrupted.mask)?, false)
            }
            Err(TrainError::Diverged { .. }) => (
                RmseTriple {
                    tod: f64::NAN,
                    volume: f64::NAN,
                    speed: f64::NAN,
                },
                true,
            ),
            Err(TrainError::Net(e)) => return Err(e),
        };
        points.push(DegradationPoint {
            dropout,
            noise_std,
            observed_fraction: corrupted.observed_fraction(),
            rmse,
            poisoned_losses: injector.injected(),
            diverged,
        });
    }
    Ok(DegradationReport {
        dataset: ds.name.clone(),
        seed: plan.seed,
        points,
    })
}

/// The sweep grid in evaluation order: dropout-major, noise-minor.
fn grid(plan: &FaultPlan) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    for &d in &plan.sweep.dropouts {
        for &n in &plan.sweep.noise_stds {
            out.push((d, n));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::SweepGrid;
    use datagen::dataset::DatasetSpec;
    use datagen::TodPattern;

    fn tiny_ds() -> Dataset {
        let spec = DatasetSpec {
            t: 3,
            interval_s: 120.0,
            train_samples: 3,
            demand_scale: 0.2,
            seed: 9,
        };
        Dataset::synthetic(TodPattern::Gaussian, &spec).unwrap()
    }

    #[test]
    fn sweep_covers_the_grid_and_masks_speed() {
        let ds = tiny_ds();
        let cfg = OvsConfig {
            dropout: 0.0,
            ..OvsConfig::tiny()
        };
        let plan = FaultPlan {
            seed: 4,
            sweep: SweepGrid {
                dropouts: vec![0.0, 0.3],
                noise_stds: vec![0.0],
            },
            ..Default::default()
        };
        let report = degradation_report(&ds, &cfg, &plan).unwrap();
        assert_eq!(report.points.len(), 2);
        let clean = &report.points[0];
        let dropped = &report.points[1];
        assert_eq!(clean.observed_fraction, 1.0);
        assert!(dropped.observed_fraction < 1.0);
        assert!(!clean.diverged && !dropped.diverged);
        assert!(clean.rmse.is_finite() && dropped.rmse.is_finite());
        // The table renders every point.
        let text = report.to_string();
        assert!(text.contains("rmse_spd"), "{text}");
        assert_eq!(text.lines().count(), 2 + report.points.len());
    }

    #[test]
    fn same_plan_reproduces_the_report_bit_exactly() {
        let ds = tiny_ds();
        let cfg = OvsConfig {
            dropout: 0.0,
            ..OvsConfig::tiny()
        };
        let plan = FaultPlan {
            seed: 11,
            sweep: SweepGrid {
                dropouts: vec![0.3],
                noise_stds: vec![0.5],
            },
            ..Default::default()
        };
        let a = degradation_report(&ds, &cfg, &plan).unwrap();
        let b = degradation_report(&ds, &cfg, &plan).unwrap();
        assert_eq!(
            a.points[0].rmse.tod.to_bits(),
            b.points[0].rmse.tod.to_bits()
        );
        assert_eq!(
            a.points[0].rmse.speed.to_bits(),
            b.points[0].rmse.speed.to_bits()
        );
        assert_eq!(a.points[0].observed_fraction, b.points[0].observed_fraction);
    }
}

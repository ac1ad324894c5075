//! Dataset assembly: the paper's data-preprocess pipeline (§V-D, Fig 7).
//!
//! For every dataset we produce
//!
//! * a **training corpus**: randomly generated TOD tensors (mixed over the
//!   five patterns of §V-B) run through the simulator to obtain matched
//!   `(TOD, volume, speed)` triples — no real TOD is ever trained on;
//! * a **test observation**: the hidden ground-truth TOD run through the
//!   simulator; only its *speed* tensor is exposed to estimators, while
//!   TOD and volume are kept for metrics;
//! * **auxiliary data**: synthetic census totals and camera observations
//!   derived (noisily) from the ground truth.

use crate::aux::{CameraObservations, CensusOdTotals};
use crate::city::{city_groundtruth_tod, synthesize_populations, CityDemandSpec};
use crate::patterns::TodPattern;
use neural::rng::Rng64;
use rayon::prelude::*;
use roadnet::presets::CityPreset;
use roadnet::{LinkTensor, OdSet, Result, RoadNetwork, TodTensor};
use simulator::{SimConfig, SimOutput, Simulation};

/// One matched training triple.
///
/// Re-export of the shared [`roadnet::TrainTriple`]; `ovs_core::estimator`
/// re-exports the same type, so datasets feed estimators without a
/// clone-and-convert step.
pub use roadnet::TrainTriple as TrainingSample;

/// RNG stream index reserved for census noise (cannot collide with a
/// training-sample index: corpora are far smaller than `u64::MAX`).
const CENSUS_STREAM: u64 = u64::MAX;
/// RNG stream index reserved for camera sampling.
const CAMERA_STREAM: u64 = u64::MAX - 1;

/// Generation parameters for a dataset.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Number of observation intervals `T`.
    pub t: usize,
    /// Interval length in seconds (paper: 600).
    pub interval_s: f64,
    /// Number of training triples to generate.
    pub train_samples: usize,
    /// Demand scale applied to the synthetic patterns (1.0 = the paper's
    /// vehicles/minute magnitudes; smaller keeps small grids uncongested).
    pub demand_scale: f64,
    /// Master seed.
    pub seed: u64,
}

impl Default for DatasetSpec {
    fn default() -> Self {
        Self {
            t: 12,
            interval_s: 600.0,
            train_samples: 20,
            demand_scale: 0.05,
            seed: 7,
        }
    }
}

impl DatasetSpec {
    /// The simulator configuration induced by this spec.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::default()
            .with_intervals(self.t)
            .with_interval_s(self.interval_s)
            .with_seed(self.seed)
    }
}

/// A fully assembled dataset, ready for the evaluation pipeline.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name ("Hangzhou", "synthetic/Random", ...).
    pub name: String,
    /// Road network.
    pub net: RoadNetwork,
    /// The chosen OD pairs.
    pub ods: OdSet,
    /// Simulator configuration used throughout.
    pub sim_config: SimConfig,
    /// Hidden ground-truth TOD (metrics only).
    pub groundtruth_tod: TodTensor,
    /// Ground-truth link volumes (metrics only).
    pub groundtruth_volume: LinkTensor,
    /// Observed link speeds — the estimators' only mandatory input.
    pub observed_speed: LinkTensor,
    /// Training triples from generated TOD tensors.
    pub train: Vec<TrainingSample>,
    /// Synthetic census (LEHD) daily OD totals.
    pub census: CensusOdTotals,
    /// Synthetic camera volumes on a few links.
    pub cameras: CameraObservations,
}

/// Runs the simulator once for `tod` over `(net, ods, cfg)`.
pub fn simulate(
    net: &RoadNetwork,
    ods: &OdSet,
    cfg: &SimConfig,
    tod: &TodTensor,
) -> Result<SimOutput> {
    Simulation::new(net, ods, cfg.clone())?.run(tod)
}

impl Dataset {
    /// Builds a dataset from an explicit network and ground-truth TOD.
    pub fn assemble(
        name: impl Into<String>,
        net: RoadNetwork,
        ods: OdSet,
        groundtruth_tod: TodTensor,
        spec: &DatasetSpec,
    ) -> Result<Self> {
        let cfg = spec.sim_config();
        let corpus_seed = spec.seed ^ 0x9E3779B97F4A7C15;

        // Training corpus, generated in parallel. Every sample `k` draws
        // from its own RNG stream `Rng64::for_index(corpus_seed, k)` and
        // runs its own clone of one cold template simulation, so the
        // result is a pure function of `k` — bit-identical for any thread
        // count, including fully serial execution. Patterns cycle in the
        // paper's order ("every 20% of TOD tensors has a specific
        // pattern", §V-D).
        let template = Simulation::new(&net, &ods, cfg.clone())?;
        let train: Vec<TrainingSample> = (0..spec.train_samples)
            .into_par_iter()
            .map(|k| {
                let mut rng = Rng64::for_index(corpus_seed, k as u64);
                let pattern = TodPattern::ALL[k % TodPattern::ALL.len()];
                let tod = pattern.generate(
                    ods.len(),
                    spec.t,
                    spec.interval_s / 60.0,
                    spec.demand_scale,
                    &mut rng,
                );
                let mut sim = template.clone();
                let out = sim.run(&tod)?;
                Ok(TrainingSample {
                    tod,
                    volume: out.volume,
                    speed: out.speed,
                })
            })
            .collect::<Result<_>>()?;

        // Test observation from the hidden ground truth.
        let mut sim = template;
        let observed = sim.run(&groundtruth_tod)?;

        // Auxiliary data draw from reserved streams so their noise is
        // independent of the corpus size.
        let mut census_rng = Rng64::for_index(corpus_seed, CENSUS_STREAM);
        let census = CensusOdTotals::from_groundtruth(&groundtruth_tod, 0.05, &mut census_rng);
        let mut camera_rng = Rng64::for_index(corpus_seed, CAMERA_STREAM);
        let cameras = CameraObservations::sample(&observed.volume, 10, 0.05, &mut camera_rng);

        Ok(Self {
            name: name.into(),
            net,
            ods,
            sim_config: cfg,
            groundtruth_tod,
            groundtruth_volume: observed.volume,
            observed_speed: observed.speed,
            train,
            census,
            cameras,
        })
    }

    /// The §V-B synthetic dataset: a 3x3 grid whose ground truth follows
    /// one of the five patterns.
    pub fn synthetic(pattern: TodPattern, spec: &DatasetSpec) -> Result<Self> {
        let net = roadnet::presets::synthetic_grid();
        let ods = OdSet::all_pairs(&net);
        let mut rng = Rng64::new(spec.seed);
        let groundtruth = pattern.generate(
            ods.len(),
            spec.t,
            spec.interval_s / 60.0,
            spec.demand_scale,
            &mut rng,
        );
        Self::assemble(
            format!("synthetic/{}", pattern.name()),
            net,
            ods,
            groundtruth,
            spec,
        )
    }

    /// A city dataset from one of the Table III presets: taxi-like ground
    /// truth with commuter structure, scaled by the preset's taxi factor.
    pub fn city(preset: CityPreset, spec: &DatasetSpec) -> Result<Self> {
        let mut net = preset.network;
        let mut rng = Rng64::new(spec.seed);
        synthesize_populations(&mut net, &mut rng);
        let ods = OdSet::all_pairs(&net);
        // Peak demand tracks the synthetic corpus scale (whose cells reach
        // ~20 veh/min * interval * demand_scale) but sits below it: real
        // city TOD is sparser and differently shaped than the generated
        // corpus — the distribution shift the paper's test setting has by
        // construction.
        let demand = CityDemandSpec {
            peak_trips_per_interval: 60.0 * spec.demand_scale,
            seed: spec.seed,
            ..CityDemandSpec::default()
        };
        let groundtruth = city_groundtruth_tod(&net, &ods, spec.t, &demand);
        Self::assemble(preset.name, net, ods, groundtruth, spec)
    }

    /// Number of OD pairs `N`.
    pub fn n_od(&self) -> usize {
        self.ods.len()
    }

    /// Number of links `M`.
    pub fn n_links(&self) -> usize {
        self.net.num_links()
    }

    /// Number of intervals `T`.
    pub fn n_intervals(&self) -> usize {
        self.groundtruth_tod.num_intervals()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> DatasetSpec {
        DatasetSpec {
            t: 4,
            interval_s: 120.0,
            train_samples: 3,
            demand_scale: 0.05,
            seed: 1,
        }
    }

    #[test]
    fn synthetic_dataset_assembles() {
        let ds = Dataset::synthetic(TodPattern::Random, &small_spec()).unwrap();
        assert_eq!(ds.name, "synthetic/Random");
        assert_eq!(ds.train.len(), 3);
        assert_eq!(ds.n_intervals(), 4);
        assert_eq!(ds.observed_speed.rows(), ds.n_links());
        assert_eq!(ds.groundtruth_tod.rows(), ds.n_od());
        assert_eq!(ds.census.len(), ds.n_od());
        assert!(!ds.cameras.is_empty());
        // training triples have consistent shapes
        for s in &ds.train {
            assert_eq!(s.tod.rows(), ds.n_od());
            assert_eq!(s.volume.rows(), ds.n_links());
            assert_eq!(s.speed.rows(), ds.n_links());
            assert!(s.speed.is_finite());
        }
    }

    #[test]
    fn city_dataset_assembles() {
        let ds = Dataset::city(roadnet::presets::state_college(), &small_spec()).unwrap();
        assert_eq!(ds.name, "State College");
        assert!(ds.groundtruth_tod.total() > 0.0);
        assert!(ds.observed_speed.is_finite());
        assert!(ds.net.regions().iter().all(|r| r.population > 0.0));
    }

    #[test]
    fn observed_speed_is_reproducible_from_groundtruth() {
        let ds = Dataset::synthetic(TodPattern::Gaussian, &small_spec()).unwrap();
        let out = simulate(&ds.net, &ds.ods, &ds.sim_config, &ds.groundtruth_tod).unwrap();
        assert_eq!(out.speed, ds.observed_speed);
        assert_eq!(out.volume, ds.groundtruth_volume);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = Dataset::synthetic(TodPattern::Poisson, &small_spec()).unwrap();
        let b = Dataset::synthetic(TodPattern::Poisson, &small_spec()).unwrap();
        assert_eq!(a.groundtruth_tod, b.groundtruth_tod);
        assert_eq!(a.observed_speed, b.observed_speed);
    }
}

//! # bench — experiment binaries and micro-benchmarks
//!
//! One binary per paper table/figure (see DESIGN.md §3 for the index) and
//! Criterion micro-benchmarks for the hot paths. This library holds the
//! shared experiment profile machinery.
//!
//! Profiles are selected with the `CITYOD_PROFILE` environment variable:
//!
//! * `quick` — minutes-scale smoke profile (small horizons, few epochs);
//! * `standard` (default) — the profile EXPERIMENTS.md numbers were
//!   recorded with; tens of minutes for the full suite;
//! * `full` — the paper's hyperparameters (LSTM(128), 10 000 epochs);
//!   hours. Provided for completeness.

#![warn(missing_docs)]

use checkpoint::Snapshot;
use datagen::dataset::DatasetSpec;
use ovs_core::estimator::matrix_to_tod;
use ovs_core::trainer::{OvsTrainer, RunOptions, Start};
use ovs_core::{EstimatorInput, OvsConfig, TodEstimator};
use roadnet::{Result, RoadnetError, TodTensor};
use std::path::PathBuf;

/// A named experiment profile.
#[derive(Debug, Clone)]
pub struct Profile {
    /// Profile name.
    pub name: &'static str,
    /// Dataset generation parameters.
    pub spec: DatasetSpec,
    /// OVS hyperparameters.
    pub ovs: OvsConfig,
    /// Seed shared by stochastic estimators.
    pub seed: u64,
}

impl Profile {
    /// The minutes-scale profile.
    pub fn quick() -> Self {
        Self {
            name: "quick",
            spec: DatasetSpec {
                t: 6,
                interval_s: 300.0,
                train_samples: 6,
                demand_scale: 0.15,
                seed: 7,
            },
            ovs: OvsConfig {
                lstm_hidden: 16,
                ..OvsConfig::default()
            },
            seed: 7,
        }
    }

    /// The default profile used for the recorded EXPERIMENTS.md numbers.
    pub fn standard() -> Self {
        Self {
            name: "standard",
            spec: DatasetSpec {
                t: 12,
                interval_s: 600.0,
                train_samples: 10,
                demand_scale: 0.15,
                seed: 7,
            },
            ovs: OvsConfig {
                epochs_v2s: 900,
                epochs_tod2v: 400,
                epochs_fit: 2000,
                ..OvsConfig::default()
            },
            seed: 7,
        }
    }

    /// The paper's hyperparameters (slow).
    pub fn full() -> Self {
        Self {
            name: "full",
            spec: DatasetSpec {
                t: 12,
                interval_s: 600.0,
                train_samples: 20,
                demand_scale: 0.15,
                seed: 7,
            },
            ovs: OvsConfig::paper(),
            seed: 7,
        }
    }

    /// Reads `CITYOD_PROFILE` (quick | standard | full); defaults to
    /// standard, panics on unknown values so typos do not silently run
    /// the wrong experiment.
    pub fn from_env() -> Self {
        match std::env::var("CITYOD_PROFILE").as_deref() {
            Ok("quick") => Self::quick(),
            Ok("full") => Self::full(),
            Ok("standard") | Err(_) => Self::standard(),
            Ok(other) => panic!("unknown CITYOD_PROFILE '{other}' (quick|standard|full)"),
        }
    }
}

/// Pre-trained model caching for the experiment binaries: `--save-model
/// <path>` persists the trained OVS pipeline as a checkpoint artifact
/// after a run, `--load-model <path>` warm-starts from one instead of
/// retraining stages 1-2 — so a table binary re-run (different aux
/// settings, different render) pays only the test-time fit.
#[derive(Debug, Clone, Default)]
pub struct ModelCache {
    /// Write the trained model here after the run (`--save-model`).
    pub save: Option<PathBuf>,
    /// Warm-start from this artifact instead of cold-training
    /// (`--load-model`).
    pub load: Option<PathBuf>,
    /// Also drop a `<save>.metrics.json` sidecar — the full process
    /// metrics export — next to the saved artifact (`--metrics`).
    pub metrics: bool,
}

impl ModelCache {
    /// Parses `--save-model <path>`, `--load-model <path>` and the
    /// `--metrics` switch from the process arguments (all optional; other
    /// arguments ignored).
    pub fn from_args() -> Self {
        let mut cache = Self::default();
        let mut it = std::env::args().skip(1);
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--save-model" => cache.save = it.next().map(PathBuf::from),
                "--load-model" => cache.load = it.next().map(PathBuf::from),
                "--metrics" => cache.metrics = true,
                _ => {}
            }
        }
        cache
    }

    /// True when either direction is configured.
    pub fn is_active(&self) -> bool {
        self.save.is_some() || self.load.is_some()
    }

    /// Derives a per-dataset cache: `models/t6.ckpt` becomes
    /// `models/t6-hangzhou.ckpt` — so one `--save-model` flag serves a
    /// binary that sweeps several datasets without collisions.
    pub fn for_dataset(&self, dataset_name: &str) -> Self {
        let slug: String = dataset_name
            .to_lowercase()
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
            .collect();
        let retag = |p: &PathBuf| {
            let stem = p.file_stem().and_then(|s| s.to_str()).unwrap_or("model");
            let ext = p.extension().and_then(|s| s.to_str()).unwrap_or("ckpt");
            p.with_file_name(format!("{stem}-{slug}.{ext}"))
        };
        Self {
            save: self.save.as_ref().map(retag),
            load: self.load.as_ref().map(retag),
            metrics: self.metrics,
        }
    }

    /// Wraps an OVS config into the estimator honouring this cache.
    pub fn ovs(&self, cfg: OvsConfig) -> CachedOvsEstimator {
        CachedOvsEstimator {
            cfg,
            cache: self.clone(),
        }
    }
}

fn ckpt_err(e: checkpoint::CheckpointError) -> RoadnetError {
    RoadnetError::InvalidSpec(format!("model cache: {e}"))
}

/// [`ovs_core::trainer::OvsEstimator`] with [`ModelCache`] semantics:
/// loads a checkpoint artifact to skip stages 1-2 (warm start), and/or
/// saves the trained pipeline after estimating. Without cache paths it
/// behaves exactly like the plain estimator.
pub struct CachedOvsEstimator {
    cfg: OvsConfig,
    cache: ModelCache,
}

impl TodEstimator for CachedOvsEstimator {
    fn name(&self) -> &str {
        self.cfg.variant.name()
    }

    fn estimate(&mut self, input: &EstimatorInput<'_>) -> Result<TodTensor> {
        let trainer = OvsTrainer::new(self.cfg.clone());
        let (mut model, _report) = match &self.cache.load {
            Some(path) => {
                // Snapshot is the one validated read path: full checksum
                // verification plus the content fingerprint the serving
                // layer reports as its ETag.
                let snapshot = Snapshot::read_from(path).map_err(ckpt_err)?;
                let weights = ovs_core::artifact::model_weights(snapshot.artifact(), &self.cfg)
                    .map_err(ckpt_err)?;
                let warm = RunOptions {
                    start: Start::Warm(&weights),
                    ..RunOptions::default()
                };
                trainer.run(input, warm)?
            }
            None => trainer.run(input, RunOptions::default())?,
        };
        let tod = matrix_to_tod(&model.recovered_tod());
        if let Some(path) = &self.cache.save {
            if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
                std::fs::create_dir_all(dir)
                    .map_err(|e| RoadnetError::InvalidSpec(format!("model cache: {e}")))?;
            }
            ovs_core::artifact::save_model(&mut model, Some(&tod))
                .and_then(|b| b.write_to(path))
                .map_err(ckpt_err)?;
            if self.cache.metrics {
                // Metrics sidecar rides along with the artifact: the full
                // export (timings included) of everything the run
                // recorded, for provenance alongside the checkpoint.
                let sidecar = PathBuf::from(format!("{}.metrics.json", path.display()));
                std::fs::write(&sidecar, obs::global().to_json(true))
                    .map_err(|e| RoadnetError::InvalidSpec(format!("metrics sidecar: {e}")))?;
            }
        }
        Ok(tod)
    }
}

/// Runs the default seven-method panel over several datasets, honouring
/// the process-level [`ModelCache`] flags: with `--save-model` /
/// `--load-model` present, the plain OVS estimator is swapped for a
/// [`CachedOvsEstimator`] with a per-dataset artifact path; without them
/// this is exactly [`eval::harness::compare_datasets_parallel`].
pub fn compare_datasets(
    datasets: &[datagen::Dataset],
    ovs_cfg: &OvsConfig,
    seed: u64,
    with_aux: bool,
) -> Result<Vec<(String, Vec<eval::harness::MethodResult>)>> {
    let cache = ModelCache::from_args();
    if !cache.is_active() {
        return eval::harness::compare_datasets_parallel(datasets, ovs_cfg, seed, with_aux);
    }
    datasets
        .iter()
        .map(|ds| {
            let mut methods = baselines::all_baselines(seed);
            methods.push(Box::new(cache.for_dataset(&ds.name).ovs(ovs_cfg.clone())));
            let results = eval::harness::compare_methods(ds, methods, with_aux)?;
            Ok((ds.name.clone(), results))
        })
        .collect()
}

/// Directory the experiment binaries drop their JSON reports into.
pub fn results_dir() -> PathBuf {
    std::env::var("CITYOD_RESULTS")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Standard preamble: pins the worker-thread count (`CITYOD_THREADS`,
/// defaulting to the machine's core count), prints the experiment header
/// and returns the profile.
pub fn start(id: &str, title: &str) -> Profile {
    let workers = roadnet::parallel::init_global(None);
    let profile = Profile::from_env();
    println!("# {id}: {title}");
    println!("# threads = {workers}");
    println!(
        "# profile = {} (t={}, interval={}s, train={}, demand={}, ovs epochs {}/{}/{})",
        profile.name,
        profile.spec.t,
        profile.spec.interval_s,
        profile.spec.train_samples,
        profile.spec.demand_scale,
        profile.ovs.epochs_v2s,
        profile.ovs.epochs_tod2v,
        profile.ovs.epochs_fit,
    );
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profiles_are_ordered_by_cost() {
        let q = Profile::quick();
        let s = Profile::standard();
        let f = Profile::full();
        assert!(q.spec.t <= s.spec.t);
        assert!(s.ovs.epochs_v2s <= f.ovs.epochs_v2s);
        assert_eq!(f.ovs.lstm_hidden, 128);
    }

    #[test]
    fn model_cache_paths_get_dataset_suffix() {
        let cache = ModelCache {
            save: Some(PathBuf::from("models/t6.ckpt")),
            load: Some(PathBuf::from("base")),
            metrics: false,
        };
        let per = cache.for_dataset("synthetic/Gaussian");
        assert_eq!(
            per.save.unwrap(),
            PathBuf::from("models/t6-synthetic-gaussian.ckpt")
        );
        assert_eq!(
            per.load.unwrap(),
            PathBuf::from("base-synthetic-gaussian.ckpt")
        );
        assert!(!ModelCache::default().is_active());
    }

    #[test]
    fn cached_estimator_saves_then_warm_loads() {
        use datagen::{Dataset, TodPattern};
        let spec = DatasetSpec {
            t: 3,
            interval_s: 120.0,
            train_samples: 3,
            demand_scale: 0.1,
            seed: 4,
        };
        let ds = Dataset::synthetic(TodPattern::Gaussian, &spec).unwrap();
        let input = EstimatorInput::builder(&ds.net, &ds.ods)
            .interval_s(ds.sim_config.interval_s)
            .sim_seed(ds.sim_config.seed)
            .train(&ds.train)
            .observed_speed(&ds.observed_speed)
            .build();
        let dir = std::env::temp_dir().join("cityod-model-cache-test");
        let path = dir.join("m.ckpt");
        let _ = std::fs::remove_file(&path);
        let cfg = OvsConfig::tiny();

        let mut cold = ModelCache {
            save: Some(path.clone()),
            load: None,
            metrics: true,
        }
        .ovs(cfg.clone());
        let tod_cold = cold.estimate(&input).unwrap();
        assert!(path.exists(), "--save-model must write the artifact");
        let sidecar = PathBuf::from(format!("{}.metrics.json", path.display()));
        assert!(sidecar.exists(), "--metrics must write the sidecar");
        let json = std::fs::read_to_string(&sidecar).unwrap();
        assert!(json.contains("trainer_fit_steps_total"), "{json}");
        let _ = std::fs::remove_file(&sidecar);

        let mut warm = ModelCache {
            save: None,
            load: Some(path.clone()),
            metrics: false,
        }
        .ovs(cfg);
        let tod_warm = warm.estimate(&input).unwrap();
        assert_eq!(tod_warm.rows(), tod_cold.rows());
        assert_eq!(tod_warm.num_intervals(), tod_cold.num_intervals());
        assert!(tod_warm.is_finite());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn results_dir_defaults_to_results() {
        // Only check the default path shape (env may be set in CI).
        if std::env::var("CITYOD_RESULTS").is_err() {
            assert_eq!(results_dir(), PathBuf::from("results"));
        }
    }
}

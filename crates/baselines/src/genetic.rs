//! The Genetic baseline (§V-F).
//!
//! "Genetic algorithm searches TOD trip counts that match speed
//! observation best. This method iteratively picks the best several
//! candidates and mutate until convergence."
//!
//! Candidates are full TOD tensors; fitness is the RMSE between the
//! observed speed tensor and the speed the *simulator* produces for the
//! candidate (the paper evaluates candidates in its simulator too — this
//! is what makes the method accurate-but-slow). Standard generational GA:
//! elitism, uniform crossover, Gaussian mutation.

use neural::rng::Rng64;
use ovs_core::{EstimatorInput, TodEstimator};
use roadnet::{Result, TodTensor};
use simulator::{SimConfig, Simulation};

/// The Genetic estimator.
#[derive(Debug)]
pub struct GeneticEstimator {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Survivors kept per generation (elitism).
    pub elite: usize,
    /// Std-dev of Gaussian mutation, relative to the demand scale.
    pub mutation_sigma: f64,
    seed: u64,
}

impl GeneticEstimator {
    /// Creates the estimator with a budget small enough for the
    /// experiment binaries (the paper's GA is equally budget-bound —
    /// it is the slowest baseline there as well).
    pub fn new(seed: u64) -> Self {
        Self {
            population: 10,
            generations: 8,
            elite: 3,
            mutation_sigma: 0.25,
            seed,
        }
    }
}

impl TodEstimator for GeneticEstimator {
    fn name(&self) -> &str {
        "Genetic"
    }

    fn estimate(&mut self, input: &EstimatorInput<'_>) -> Result<TodTensor> {
        ovs_core::estimator::validate_input(input)?;
        let n = input.n_od();
        let t = input.n_intervals();
        let mut rng = Rng64::new(self.seed);

        // Demand scale from the corpus: mean cell value across samples.
        let cells: f64 = input
            .train
            .iter()
            .map(|s| s.tod.total())
            .sum::<f64>()
            .max(1.0);
        let mean_cell = cells / (input.train.len().max(1) * n * t) as f64;

        let cfg = SimConfig::default()
            .with_intervals(t)
            .with_interval_s(input.interval_s)
            .with_seed(input.sim_seed);
        let mut sim = Simulation::new(input.net, input.ods, cfg)?;

        let fitness = |tod: &TodTensor, sim: &mut Simulation<'_>| -> Result<f64> {
            let out = sim.run(tod)?;
            out.speed.rmse(input.observed_speed)
        };

        // Seed population: corpus samples plus random perturbations.
        let mut pop: Vec<TodTensor> = Vec::with_capacity(self.population);
        for k in 0..self.population {
            let mut cand = if !input.train.is_empty() {
                input.train[k % input.train.len()].tod.clone()
            } else {
                TodTensor::filled(n, t, mean_cell)
            };
            if k >= input.train.len() {
                cand.map_inplace(|v| (v + rng.normal_with(0.0, mean_cell * 0.5)).max(0.0));
            }
            pop.push(cand);
        }

        let mut scored: Vec<(f64, TodTensor)> = Vec::with_capacity(pop.len());
        for cand in pop {
            let f = fitness(&cand, &mut sim)?;
            scored.push((f, cand));
        }
        scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));

        for _gen in 0..self.generations {
            let elite = self.elite.min(scored.len());
            let mut next: Vec<TodTensor> =
                scored.iter().take(elite).map(|(_, c)| c.clone()).collect();
            while next.len() < self.population {
                // Uniform crossover of two elite parents + mutation.
                let a = &scored[rng.index(elite)].1;
                let b = &scored[rng.index(elite)].1;
                let mut child = TodTensor::zeros(n, t);
                for (k, c) in child.as_mut_slice().iter_mut().enumerate() {
                    let gene = if rng.uniform() < 0.5 {
                        a.as_slice()[k]
                    } else {
                        b.as_slice()[k]
                    };
                    let noise = rng.normal_with(0.0, self.mutation_sigma * mean_cell);
                    *c = (gene + noise).max(0.0);
                }
                next.push(child);
            }
            scored = next
                .into_iter()
                .map(|cand| -> Result<(f64, TodTensor)> {
                    let f = fitness(&cand, &mut sim)?;
                    Ok((f, cand))
                })
                .collect::<Result<Vec<_>>>()?;
            scored.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        }

        Ok(scored.remove(0).1)
    }
}

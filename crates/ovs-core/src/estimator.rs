//! The common estimator interface (Problem 1 of the paper).
//!
//! Every method evaluated in the paper — OVS and the six baselines of
//! §V-F — consumes the same information: the road network, the chosen OD
//! pairs, a corpus of generated `(TOD, volume, speed)` training triples
//! (Fig 7), and the *observed speed tensor* of the hidden scenario. It
//! must produce a recovered TOD tensor. [`TodEstimator`] captures exactly
//! that contract so the evaluation harness can treat all methods
//! uniformly.

use neural::Matrix;
use roadnet::{LinkId, LinkTensor, OdSet, Result, RoadNetwork, TodTensor};

pub use roadnet::TrainTriple;

/// Everything an estimator may look at.
///
/// Construct instances with [`EstimatorInput::builder`]; the struct is
/// `#[non_exhaustive]` so fields can be added without breaking callers.
#[derive(Clone)]
#[non_exhaustive]
pub struct EstimatorInput<'a> {
    /// The road network.
    pub net: &'a RoadNetwork,
    /// The OD pairs whose TOD is sought.
    pub ods: &'a OdSet,
    /// Interval length in seconds.
    pub interval_s: f64,
    /// Seed of the simulator run that produced the observation; estimators
    /// that evaluate candidate TODs in a simulator (Genetic) use it so
    /// their forward model matches the data-generating process.
    pub sim_seed: u64,
    /// Generated training triples (no real TOD among them).
    pub train: &'a [TrainTriple],
    /// The observed speed tensor — the only mandatory test-time signal.
    pub observed_speed: &'a LinkTensor,
    /// Optional LEHD/census daily totals per OD (auxiliary, §IV-E).
    pub census_totals: Option<&'a [f64]>,
    /// Optional camera observations: instrumented links and their volume
    /// series (auxiliary, §IV-E).
    pub cameras: Option<(&'a [LinkId], &'a [Vec<f64>])>,
}

impl<'a> EstimatorInput<'a> {
    /// Starts building an input over `net` and `ods`. The observed speed
    /// tensor is the only other mandatory piece; everything else has a
    /// sensible default (600 s intervals, seed 0, empty corpus, no aux).
    pub fn builder(net: &'a RoadNetwork, ods: &'a OdSet) -> EstimatorInputBuilder<'a> {
        EstimatorInputBuilder {
            net,
            ods,
            interval_s: 600.0,
            sim_seed: 0,
            train: &[],
            observed_speed: None,
            census_totals: None,
            cameras: None,
        }
    }

    /// Number of OD pairs.
    pub fn n_od(&self) -> usize {
        self.ods.len()
    }

    /// Number of links.
    pub fn n_links(&self) -> usize {
        self.net.num_links()
    }

    /// Number of intervals.
    pub fn n_intervals(&self) -> usize {
        self.observed_speed.num_intervals()
    }
}

/// Builder for [`EstimatorInput`] (see [`EstimatorInput::builder`]).
#[derive(Clone)]
pub struct EstimatorInputBuilder<'a> {
    net: &'a RoadNetwork,
    ods: &'a OdSet,
    interval_s: f64,
    sim_seed: u64,
    train: &'a [TrainTriple],
    observed_speed: Option<&'a LinkTensor>,
    census_totals: Option<&'a [f64]>,
    cameras: Option<(&'a [LinkId], &'a [Vec<f64>])>,
}

impl<'a> EstimatorInputBuilder<'a> {
    /// Sets the interval length in seconds (default 600).
    pub fn interval_s(mut self, interval_s: f64) -> Self {
        self.interval_s = interval_s;
        self
    }

    /// Sets the simulator seed of the observed scenario (default 0).
    pub fn sim_seed(mut self, sim_seed: u64) -> Self {
        self.sim_seed = sim_seed;
        self
    }

    /// Sets the generated training corpus (default empty).
    pub fn train(mut self, train: &'a [TrainTriple]) -> Self {
        self.train = train;
        self
    }

    /// Sets the observed speed tensor (mandatory).
    pub fn observed_speed(mut self, observed_speed: &'a LinkTensor) -> Self {
        self.observed_speed = Some(observed_speed);
        self
    }

    /// Exposes census daily OD totals (default none).
    pub fn census(mut self, census_totals: &'a [f64]) -> Self {
        self.census_totals = Some(census_totals);
        self
    }

    /// Exposes camera observations (default none).
    pub fn cameras(mut self, links: &'a [LinkId], volumes: &'a [Vec<f64>]) -> Self {
        self.cameras = Some((links, volumes));
        self
    }

    /// Finishes the input.
    ///
    /// # Panics
    ///
    /// Panics if [`observed_speed`](Self::observed_speed) was never set —
    /// the observed speed tensor is the one signal every estimator needs.
    pub fn build(self) -> EstimatorInput<'a> {
        EstimatorInput {
            net: self.net,
            ods: self.ods,
            interval_s: self.interval_s,
            sim_seed: self.sim_seed,
            train: self.train,
            // lint: allow(panic) — documented builder contract (see the
            // `# Panics` section above); misuse is a programming error.
            observed_speed: self.observed_speed.expect(
                "EstimatorInput requires observed_speed; call .observed_speed(..) before .build()",
            ),
            census_totals: self.census_totals,
            cameras: self.cameras,
        }
    }
}

/// A method that recovers a TOD tensor from speed observations.
///
/// `Send` is a supertrait so boxed estimators can cross thread boundaries:
/// the evaluation harness runs its method panel in parallel.
pub trait TodEstimator: Send {
    /// Method name as printed in the paper's tables.
    fn name(&self) -> &str;

    /// Recovers the TOD tensor for `input`.
    fn estimate(&mut self, input: &EstimatorInput<'_>) -> Result<TodTensor>;
}

// --- tensor <-> matrix bridges -------------------------------------------
// `roadnet` tensors and `neural` matrices are both row-major f64; these
// helpers move data between the two worlds.

/// Copies a TOD tensor into a `(N, T)` matrix.
pub fn tod_to_matrix(t: &TodTensor) -> Matrix {
    // lint: allow(panic) — shape and data length come from one tensor, cannot mismatch
    Matrix::from_vec(t.rows(), t.num_intervals(), t.as_slice().to_vec())
        .expect("tensor is internally consistent")
}

/// Copies a `(N, T)` matrix into a TOD tensor, clamping negatives to zero
/// (trip counts are physical quantities).
pub fn matrix_to_tod(m: &Matrix) -> TodTensor {
    // lint: allow(panic) — shape and data length come from one matrix, cannot mismatch
    let mut t = TodTensor::from_data(m.rows(), m.cols(), m.as_slice().to_vec())
        .expect("matrix is internally consistent");
    t.clamp(0.0, f64::INFINITY);
    t
}

/// Copies a link tensor into a `(M, T)` matrix.
pub fn link_to_matrix(t: &LinkTensor) -> Matrix {
    // lint: allow(panic) — shape and data length come from one tensor, cannot mismatch
    Matrix::from_vec(t.rows(), t.num_intervals(), t.as_slice().to_vec())
        .expect("tensor is internally consistent")
}

/// Helper shared by learned estimators: validates that input shapes are
/// mutually consistent.
pub fn validate_input(input: &EstimatorInput<'_>) -> Result<()> {
    use roadnet::RoadnetError;
    input.ods.validate(input.net)?;
    let m = input.net.num_links();
    let t = input.observed_speed.num_intervals();
    if input.observed_speed.rows() != m {
        return Err(RoadnetError::ShapeMismatch {
            expected: format!("{m} link rows"),
            actual: format!("{} rows", input.observed_speed.rows()),
        });
    }
    for (k, s) in input.train.iter().enumerate() {
        if s.tod.rows() != input.ods.len()
            || s.tod.num_intervals() != t
            || s.volume.rows() != m
            || s.speed.rows() != m
        {
            return Err(RoadnetError::ShapeMismatch {
                expected: format!("triple shapes ({}, {t}) / ({m}, {t})", input.ods.len()),
                actual: format!("training sample {k} is inconsistent"),
            });
        }
    }
    if let Some(c) = input.census_totals {
        if c.len() != input.ods.len() {
            return Err(RoadnetError::ShapeMismatch {
                expected: format!("{} census totals", input.ods.len()),
                actual: format!("{}", c.len()),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::OdPairId;

    #[test]
    fn tod_matrix_roundtrip() {
        let t = TodTensor::from_data(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let m = tod_to_matrix(&t);
        assert_eq!(m.shape(), (2, 3));
        let back = matrix_to_tod(&m);
        assert_eq!(back, t);
    }

    #[test]
    fn matrix_to_tod_clamps_negatives() {
        let m = Matrix::from_vec(1, 2, vec![-1.0, 2.0]).unwrap();
        let t = matrix_to_tod(&m);
        assert_eq!(t.get(OdPairId(0), 0), 0.0);
        assert_eq!(t.get(OdPairId(0), 1), 2.0);
    }

    #[test]
    fn link_matrix_roundtrip() {
        let t = LinkTensor::from_data(2, 2, vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let m = link_to_matrix(&t);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.as_slice(), t.as_slice());
    }
}

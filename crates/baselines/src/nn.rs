//! The NN baseline (§V-F).
//!
//! "This method uses a neural network to predict the TOD, given the speed
//! data on each road segment. This network contains two fully connected
//! layers."
//!
//! A direct inverse regression: per interval, the speed vector over all
//! links is mapped to the TOD vector over all OD pairs by
//! `Dense(M -> H) -> Sigmoid -> Dense(H -> N)`. Trained on the
//! per-interval snapshots of the corpus; applied to the observed speed
//! column by column. No temporal structure — that is the LSTM baseline's
//! job.

use neural::layers::{ActKind, Activation, Dense, Layer, Sequential};
use neural::loss::mse;
use neural::optim::Adam;
use neural::rng::Rng64;
use neural::Matrix;
use ovs_core::estimator::{link_to_matrix, tod_to_matrix};
use ovs_core::{EstimatorInput, TodEstimator};
use roadnet::{LinkTensor, OdPairId, Result, RoadnetError, TodTensor};

/// A fitted NN baseline: the trained two-layer net plus the corpus
/// normalisation scales — everything inference needs, detached from the
/// training corpus.
pub struct TrainedNn {
    net: Sequential,
    m: usize,
    n: usize,
    v_scale: f64,
    g_scale: f64,
}

impl TrainedNn {
    /// Predicts the TOD tensor for an observed speed tensor, interval by
    /// interval.
    pub fn predict(&mut self, observed_speed: &LinkTensor) -> TodTensor {
        let v_obs = link_to_matrix(observed_speed); // (m, t)
        let t = v_obs.cols();
        let mut x_obs = Matrix::zeros(t, self.m);
        for ti in 0..t {
            for j in 0..self.m {
                x_obs.set(ti, j, v_obs.get(j, ti) * self.v_scale);
            }
        }
        let pred = self.net.forward(&x_obs); // (t, n), normalised
        let mut tod = TodTensor::zeros(self.n, t);
        for ti in 0..t {
            for i in 0..self.n {
                tod.set(OdPairId(i), ti, (pred.get(ti, i) * self.g_scale).max(0.0));
            }
        }
        tod
    }
}

/// The NN estimator.
#[derive(Debug)]
pub struct NnEstimator {
    /// Hidden width.
    pub hidden: usize,
    /// Training steps.
    pub steps: usize,
    /// Learning rate.
    pub lr: f64,
    seed: u64,
}

impl NnEstimator {
    /// Creates the estimator.
    pub fn new(seed: u64) -> Self {
        Self {
            hidden: 64,
            steps: 400,
            lr: 0.01,
            seed,
        }
    }
}

impl NnEstimator {
    /// Trains the network on the input's corpus, returning the fitted
    /// model (use [`TrainedNn::predict`] for inference).
    pub fn fit(&self, input: &EstimatorInput<'_>) -> Result<TrainedNn> {
        ovs_core::estimator::validate_input(input)?;
        if input.train.is_empty() {
            return Err(RoadnetError::InvalidSpec(
                "NN requires a training corpus".into(),
            ));
        }
        let n = input.n_od();
        let m = input.n_links();
        let t = input.n_intervals();
        let mut rng = Rng64::new(self.seed);

        // Per-interval snapshots: x (samples*t, m) speed, y (samples*t, n) TOD.
        let rows = input.train.len() * t;
        let mut x = Matrix::zeros(rows, m);
        let mut y = Matrix::zeros(rows, n);
        for (s, sample) in input.train.iter().enumerate() {
            let vm = link_to_matrix(&sample.speed);
            let gm = tod_to_matrix(&sample.tod);
            for ti in 0..t {
                let r = s * t + ti;
                for j in 0..m {
                    x.set(r, j, vm.get(j, ti));
                }
                for i in 0..n {
                    y.set(r, i, gm.get(i, ti));
                }
            }
        }
        // Normalise both sides for stable training.
        let v_scale = 1.0 / x.as_slice().iter().cloned().fold(1.0, f64::max);
        let g_scale = y.as_slice().iter().cloned().fold(1.0, f64::max);
        x.scale(v_scale);
        y.scale(1.0 / g_scale);

        let mut net = Sequential::new(vec![
            Box::new(Dense::new(m, self.hidden, &mut rng)),
            Box::new(Activation::new(ActKind::Sigmoid)),
            Box::new(Dense::new(self.hidden, n, &mut rng)),
        ]);
        let mut opt = Adam::new(self.lr);
        for _ in 0..self.steps {
            let pred = net.forward(&x);
            let (_, grad) = mse(&pred, &y);
            net.backward(&grad);
            opt.step(&mut |f| net.visit_params(f));
            net.zero_grad();
        }
        Ok(TrainedNn {
            net,
            m,
            n,
            v_scale,
            g_scale,
        })
    }
}

impl TodEstimator for NnEstimator {
    fn name(&self) -> &str {
        "NN"
    }

    fn estimate(&mut self, input: &EstimatorInput<'_>) -> Result<TodTensor> {
        let mut trained = self.fit(input)?;
        Ok(trained.predict(input.observed_speed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_matches() {
        assert_eq!(NnEstimator::new(0).name(), "NN");
    }
}

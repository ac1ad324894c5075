//! The LSTM baseline (§V-F).
//!
//! "This method regards speed data and TOD as sequential data. It uses
//! two LSTM layers to predict TOD sequences based on speed sequences."
//!
//! Each training sample is one sequence: at step `t` the input is the
//! speed vector over all links, the target the TOD vector over all OD
//! pairs. Two LSTMs plus a time-distributed FC head. At test time the
//! observed speed sequence is pushed through once.

use neural::layers::{Dense, Lstm, SeqLayer, SeqSequential, TimeDistributed};
use neural::loss::mse_seq;
use neural::optim::Adam;
use neural::rng::Rng64;
use neural::{Matrix, Tensor3};
use ovs_core::estimator::{link_to_matrix, tod_to_matrix};
use ovs_core::{EstimatorInput, TodEstimator};
use roadnet::{LinkTensor, OdPairId, Result, RoadnetError, TodTensor};

/// A fitted LSTM baseline: the trained recurrent stack plus the corpus
/// normalisation scales.
pub struct TrainedLstm {
    net: SeqSequential,
    n: usize,
    v_scale: f64,
    g_max: f64,
}

impl TrainedLstm {
    /// Predicts the TOD tensor for an observed speed tensor.
    pub fn predict(&mut self, observed_speed: &LinkTensor) -> TodTensor {
        let x_obs = speed_to_seq(&link_to_matrix(observed_speed), self.v_scale);
        let (_, t, _) = x_obs.shape();
        let pred = self.net.forward(&x_obs, false); // (1, t, n)
        let mut tod = TodTensor::zeros(self.n, t);
        for ti in 0..t {
            for i in 0..self.n {
                tod.set(OdPairId(i), ti, (pred.get(0, ti, i) * self.g_max).max(0.0));
            }
        }
        tod
    }
}

/// The LSTM estimator.
#[derive(Debug)]
pub struct LstmEstimator {
    /// LSTM hidden width.
    pub hidden: usize,
    /// Training steps (one sample per step, cycling).
    pub steps: usize,
    /// Learning rate.
    pub lr: f64,
    seed: u64,
}

impl LstmEstimator {
    /// Creates the estimator.
    pub fn new(seed: u64) -> Self {
        Self {
            hidden: 32,
            steps: 300,
            lr: 0.01,
            seed,
        }
    }
}

/// Packs a speed matrix `(m, t)` into a `(1, t, m)` sequence tensor.
fn speed_to_seq(v: &Matrix, scale: f64) -> Tensor3 {
    let (m, t) = v.shape();
    let mut x = Tensor3::zeros(1, t, m);
    for ti in 0..t {
        for j in 0..m {
            x.set(0, ti, j, v.get(j, ti) * scale);
        }
    }
    x
}

/// Packs a TOD matrix `(n, t)` into a `(1, t, n)` sequence tensor.
fn tod_to_seq(g: &Matrix, scale: f64) -> Tensor3 {
    let (n, t) = g.shape();
    let mut y = Tensor3::zeros(1, t, n);
    for ti in 0..t {
        for i in 0..n {
            y.set(0, ti, i, g.get(i, ti) * scale);
        }
    }
    y
}

impl LstmEstimator {
    /// Trains the stack on the input's corpus, returning the fitted
    /// model (use [`TrainedLstm::predict`] for inference).
    pub fn fit(&self, input: &EstimatorInput<'_>) -> Result<TrainedLstm> {
        ovs_core::estimator::validate_input(input)?;
        if input.train.is_empty() {
            return Err(RoadnetError::InvalidSpec(
                "LSTM requires a training corpus".into(),
            ));
        }
        let n = input.n_od();
        let m = input.n_links();
        let mut rng = Rng64::new(self.seed);

        // Scales from the corpus.
        let mut v_max = 1.0f64;
        let mut g_max = 1.0f64;
        for s in input.train {
            v_max = s.speed.as_slice().iter().cloned().fold(v_max, f64::max);
            g_max = s.tod.as_slice().iter().cloned().fold(g_max, f64::max);
        }
        let v_scale = 1.0 / v_max;

        let mut net = SeqSequential::new(vec![
            Box::new(Lstm::new(m, self.hidden, &mut rng)),
            Box::new(Lstm::new(self.hidden, self.hidden, &mut rng)),
            Box::new(TimeDistributed::new(Dense::new(self.hidden, n, &mut rng))),
        ]);
        let mut opt = Adam::new(self.lr);
        for step in 0..self.steps {
            let sample = &input.train[step % input.train.len()];
            let x = speed_to_seq(&link_to_matrix(&sample.speed), v_scale);
            let y = tod_to_seq(&tod_to_matrix(&sample.tod), 1.0 / g_max);
            let pred = net.forward(&x, true);
            let (_, grad) = mse_seq(&pred, &y);
            net.backward(&grad);
            opt.step(&mut |f| net.visit_params(f));
            net.zero_grad();
        }
        Ok(TrainedLstm {
            net,
            n,
            v_scale,
            g_max,
        })
    }
}

impl TodEstimator for LstmEstimator {
    fn name(&self) -> &str {
        "LSTM"
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
        assert_eq!(LstmEstimator::new(0).name(), "LSTM");
    }

    #[test]
    fn packing_helpers_transpose_correctly() {
        let v = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let seq = speed_to_seq(&v, 1.0);
        assert_eq!(seq.shape(), (1, 3, 2));
        assert_eq!(seq.get(0, 0, 0), 1.0); // link 0 at t0
        assert_eq!(seq.get(0, 0, 1), 4.0); // link 1 at t0
        assert_eq!(seq.get(0, 2, 0), 3.0);
        let g = tod_to_seq(&v, 0.5);
        assert_eq!(g.get(0, 1, 1), 2.5);
    }
}

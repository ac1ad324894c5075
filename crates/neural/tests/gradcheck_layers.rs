//! Integration-level gradient checks for the pieces the OVS model relies
//! on most: `Conv1d` (speed-pattern feature extraction), `Lstm` (temporal
//! encoder), and the row-wise softmax behind TOD2V's route shares. Each
//! analytic backward pass is compared against central finite differences
//! of the scalar loss `L(y) = 0.5 * ||y||^2`.

use neural::gradcheck::{check_seq_layer_input, check_seq_layer_params};
use neural::layers::{Conv1d, Lstm};
use neural::matrix::{softmax_rows, softmax_rows_backward};
use neural::rng::Rng64;
use neural::{Matrix, Tensor3};

const EPS: f64 = 1e-5;
const TOL: f64 = 1e-6;

/// `Conv1d` `(kernel, sequence length)` cases: kernels 1, 3 and 5 pad 0,
/// 1 and 2 steps at each end, and at t = 3 every 5-tap window spills
/// past both ends of the sequence.
const CONV_CASES: &[(usize, usize)] = &[(3, 6), (1, 5), (5, 7), (5, 3)];

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = Rng64::new(seed);
    let mut m = Matrix::zeros(rows, cols);
    rng.fill_normal(m.as_mut_slice());
    m
}

fn random_tensor(b: usize, t: usize, f: usize, seed: u64) -> Tensor3 {
    let mut rng = Rng64::new(seed);
    let mut x = Tensor3::zeros(b, t, f);
    rng.fill_normal(x.as_mut_slice());
    x
}

fn softmax(x: &Matrix) -> Matrix {
    let mut y = x.clone();
    softmax_rows(&mut y);
    y
}

/// Checks `softmax_rows_backward` against central differences of
/// `0.5 * ||softmax(x)||^2`, whose upstream gradient is `y` itself, with
/// the same relative/absolute comparison as `neural::gradcheck`.
fn softmax_backward_matches_finite_differences(x: &Matrix, tol: f64) {
    let y = softmax(x);
    let mut dx = Matrix::zeros(y.rows(), y.cols());
    softmax_rows_backward(&y, &y, &mut dx);
    let half_sq = |m: &Matrix| 0.5 * softmax(m).as_slice().iter().map(|v| v * v).sum::<f64>();
    for idx in 0..x.len() {
        let mut xp = x.clone();
        xp.as_mut_slice()[idx] += EPS;
        let mut xm = x.clone();
        xm.as_mut_slice()[idx] -= EPS;
        let numeric = (half_sq(&xp) - half_sq(&xm)) / (2.0 * EPS);
        let analytic = dx.as_slice()[idx];
        let denom = analytic.abs().max(numeric.abs()).max(1.0);
        assert!(
            (analytic - numeric).abs() / denom <= tol,
            "softmax grad mismatch at {idx}: analytic {analytic} vs numeric {numeric}"
        );
    }
}

#[test]
fn softmax_input_gradient_matches_finite_differences() {
    softmax_backward_matches_finite_differences(&random_matrix(4, 6, 11), TOL);
}

#[test]
fn softmax_input_gradient_survives_large_logits() {
    // Shifted logits exercise the max-subtraction stabilisation path.
    let mut x = random_matrix(3, 5, 12);
    x.map_inplace(|v| v * 4.0 + 50.0);
    softmax_backward_matches_finite_differences(&x, 1e-5);
}

#[test]
fn conv1d_input_gradient_matches_finite_differences() {
    let mut rng = Rng64::new(21);
    for &(k, t) in CONV_CASES {
        let mut layer = Conv1d::new(2, 3, k, &mut rng);
        let x = random_tensor(2, t, 2, 22);
        assert!(
            check_seq_layer_input(&mut layer, &x, EPS, TOL),
            "k = {k}, t = {t}"
        );
    }
}

#[test]
fn conv1d_param_gradients_match_finite_differences() {
    let mut rng = Rng64::new(23);
    for &(k, t) in CONV_CASES {
        let mut layer = Conv1d::new(2, 3, k, &mut rng);
        let x = random_tensor(2, t, 2, 24);
        assert!(
            check_seq_layer_params(&mut layer, &x, EPS, TOL),
            "k = {k}, t = {t}"
        );
    }
}

#[test]
fn lstm_input_gradient_matches_finite_differences() {
    let mut rng = Rng64::new(31);
    let mut layer = Lstm::new(3, 4, &mut rng);
    let x = random_tensor(2, 5, 3, 32);
    assert!(check_seq_layer_input(&mut layer, &x, EPS, TOL));
}

#[test]
fn lstm_param_gradients_match_finite_differences() {
    let mut rng = Rng64::new(33);
    let mut layer = Lstm::new(3, 4, &mut rng);
    let x = random_tensor(2, 5, 3, 34);
    assert!(check_seq_layer_params(&mut layer, &x, EPS, TOL));
}

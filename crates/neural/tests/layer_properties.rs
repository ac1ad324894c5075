//! Property-based tests for the neural library: gradient checks on random
//! shapes and inputs, softmax invariants, optimiser descent.

use neural::gradcheck::{
    check_layer_input, check_layer_params, check_seq_layer_input, check_seq_layer_params,
};
use neural::layers::{ActKind, Activation, Conv1d, Dense, Layer, Lstm, Sequential};
use neural::loss::mse;
use neural::matrix::softmax_rows;
use neural::optim::Adam;
use neural::rng::Rng64;
use neural::{Matrix, Tensor3};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Dense layers pass input & parameter gradient checks at arbitrary
    /// shapes.
    #[test]
    fn dense_gradcheck_random_shapes(seed in 0u64..1000, rows in 1usize..5, inp in 1usize..6, out in 1usize..6) {
        let mut rng = Rng64::new(seed);
        let mut d = Dense::new(inp, out, &mut rng);
        let mut x = Matrix::zeros(rows, inp);
        rng.fill_normal(x.as_mut_slice());
        prop_assert!(check_layer_input(&mut d, &x, 1e-6, 1e-6));
        prop_assert!(check_layer_params(&mut d, &x, 1e-6, 1e-6));
    }

    /// LSTMs pass gradient checks at arbitrary small shapes.
    #[test]
    fn lstm_gradcheck_random_shapes(seed in 0u64..1000, batch in 1usize..3, time in 1usize..5, hidden in 1usize..4) {
        let mut rng = Rng64::new(seed);
        let mut l = Lstm::new(2, hidden, &mut rng);
        let mut x = Tensor3::zeros(batch, time, 2);
        rng.fill_normal(x.as_mut_slice());
        prop_assert!(check_seq_layer_input(&mut l, &x, 1e-6, 1e-5));
        prop_assert!(check_seq_layer_params(&mut l, &x, 1e-6, 1e-5));
    }

    /// Convolutions pass gradient checks at arbitrary small shapes.
    #[test]
    fn conv_gradcheck_random_shapes(seed in 0u64..1000, batch in 1usize..3, time in 1usize..6, cin in 1usize..3, cout in 1usize..3) {
        let mut rng = Rng64::new(seed);
        let mut c = Conv1d::new(cin, cout, 3, &mut rng);
        let mut x = Tensor3::zeros(batch, time, cin);
        rng.fill_normal(x.as_mut_slice());
        prop_assert!(check_seq_layer_input(&mut c, &x, 1e-6, 1e-6));
        prop_assert!(check_seq_layer_params(&mut c, &x, 1e-6, 1e-6));
    }

    /// Softmax rows always form a probability distribution and preserve
    /// the argmax of the logits.
    #[test]
    fn softmax_rows_invariants(logits in proptest::collection::vec(-50.0f64..50.0, 3 * 5)) {
        let m = Matrix::from_vec(3, 5, logits).unwrap();
        let mut p = m.clone();
        softmax_rows(&mut p);
        for r in 0..3 {
            let row: f64 = p.row(r).iter().sum();
            prop_assert!((row - 1.0).abs() < 1e-9);
            prop_assert!(p.row(r).iter().all(|&v| (0.0..=1.0).contains(&v)));
            let argmax_logits = m.row(r)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            let argmax_probs = p.row(r)
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap()
                .0;
            prop_assert_eq!(argmax_logits, argmax_probs);
        }
    }

    /// One gradient-descent step along the analytic gradient reduces the loss of
    /// a smooth network (small enough learning rate).
    #[test]
    fn gradient_step_descends(seed in 0u64..500) {
        let mut rng = Rng64::new(seed);
        let mut net = Sequential::new(vec![
            Box::new(Dense::new(3, 6, &mut rng)),
            Box::new(Activation::new(ActKind::Tanh)),
            Box::new(Dense::new(6, 2, &mut rng)),
        ]);
        let mut x = Matrix::zeros(4, 3);
        rng.fill_normal(x.as_mut_slice());
        let mut y = Matrix::zeros(4, 2);
        rng.fill_normal(y.as_mut_slice());

        let before = mse(&net.forward(&x), &y).0;
        let (_, grad) = mse(&net.forward(&x), &y);
        net.backward(&grad);
        // Plain SGD: p -= 1e-3 * g.
        net.visit_params(&mut |p, g| {
            for (pv, gv) in p.as_mut_slice().iter_mut().zip(g.as_slice()) {
                *pv -= 1e-3 * gv;
            }
        });
        net.zero_grad();
        let after = mse(&net.forward(&x), &y).0;
        prop_assert!(after <= before + 1e-12, "{after} vs {before}");
    }
}

/// Adam fits a random linear regression to near-zero loss.
#[test]
fn adam_solves_random_linear_regression() {
    let mut rng = Rng64::new(3);
    let mut w_true = Matrix::zeros(4, 2);
    rng.fill_normal(w_true.as_mut_slice());
    let mut x = Matrix::zeros(32, 4);
    rng.fill_normal(x.as_mut_slice());
    let y = x.matmul(&w_true);

    let mut net = Dense::new(4, 2, &mut rng);
    let mut opt = Adam::new(0.05);
    let mut last = f64::INFINITY;
    for _ in 0..500 {
        let pred = net.forward(&x);
        let (loss, grad) = mse(&pred, &y);
        net.backward(&grad);
        opt.step(&mut |f| net.visit_params(f));
        net.zero_grad();
        last = loss;
    }
    assert!(last < 1e-6, "final loss {last}");
}

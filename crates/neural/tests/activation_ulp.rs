//! Accuracy and special-value pins for `neural::activation` against the
//! host libm: a dense sweep bounds the distance in ulps, and the special
//! values (NaN, infinities, saturation, signed zero) are pinned exactly.

use neural::activation::{exp, sigmoid, tanh};

/// Points per sweep over `[-40, 40]`.
const SWEEP: usize = 1_000_000;

/// Distance in units in the last place between two finite values of the
/// same sign (or zeros): the number of representable doubles between them.
fn ulps(a: f64, b: f64) -> u64 {
    fn key(x: f64) -> i64 {
        let bits = x.to_bits() as i64;
        if bits < 0 {
            i64::MIN - bits
        } else {
            bits
        }
    }
    key(a).abs_diff(key(b))
}

/// The sweep: a uniform grid over `[-40, 40]`, offset by a fraction of a
/// step so no point lands on a round number, then the same grid scaled
/// by `1e-6` and `1e-12` to cover the neighbourhood of 0.
fn sweep() -> impl Iterator<Item = f64> {
    let step = 80.0 / SWEEP as f64;
    [1.0, 1e-6, 1e-12].into_iter().flat_map(move |scale| {
        (0..=SWEEP).map(move |i| (-40.0 + (i as f64 + 0.381_966) * step) * scale)
    })
}

fn max_ulps(f: impl Fn(f64) -> f64, reference: impl Fn(f64) -> f64) -> (u64, f64) {
    let mut worst = (0, f64::NAN);
    for x in sweep() {
        let d = ulps(f(x), reference(x));
        if d > worst.0 {
            worst = (d, x);
        }
    }
    worst
}

#[test]
fn exp_is_within_one_ulp_of_libm() {
    let (d, x) = max_ulps(exp, f64::exp);
    assert!(d <= 1, "exp: {d} ulp at x = {x:e}");
}

#[test]
fn exp_is_within_one_ulp_over_its_whole_normal_range() {
    // exp(x) is normal for x in [-708.39, 709.78].
    let (lo, hi) = (-708.39, 709.78);
    let n = 200_000;
    for i in 0..=n {
        let x = lo + (hi - lo) * (i as f64 + 0.5) / (n + 1) as f64;
        let d = ulps(exp(x), x.exp());
        assert!(d <= 1, "exp: {d} ulp at x = {x:e}");
    }
}

#[test]
fn sigmoid_is_within_four_ulp_of_the_libm_formula() {
    let (d, x) = max_ulps(sigmoid, |x| 1.0 / (1.0 + (-x).exp()));
    assert!(d <= 4, "sigmoid: {d} ulp at x = {x:e}");
}

#[test]
fn tanh_is_within_four_ulp_of_libm() {
    let (d, x) = max_ulps(tanh, f64::tanh);
    assert!(d <= 4, "tanh: {d} ulp at x = {x:e}");
}

#[test]
fn nan_in_gives_nan_out() {
    for nan in [f64::NAN, -f64::NAN, f64::from_bits(0x7ff0_0000_0000_0001)] {
        assert!(exp(nan).is_nan(), "exp({nan})");
        assert!(sigmoid(nan).is_nan(), "sigmoid({nan})");
        assert!(tanh(nan).is_nan(), "tanh({nan})");
    }
}

#[test]
fn exp_overflows_to_inf_and_underflows_to_zero() {
    assert_eq!(exp(f64::INFINITY), f64::INFINITY);
    assert_eq!(exp(f64::NEG_INFINITY).to_bits(), 0.0f64.to_bits());
    assert_eq!(exp(f64::MAX), f64::INFINITY);
    assert_eq!(exp(f64::MIN).to_bits(), 0.0f64.to_bits());
    // The largest finite result is at ln(f64::MAX) = 709.782712893384.
    assert!(exp(709.78).is_finite());
    for x in [709.79, 709.8, 710.0, 800.0, 1e10] {
        assert_eq!(exp(x), f64::INFINITY, "exp({x})");
    }
    for x in [-746.0, -800.0, -1e10] {
        assert_eq!(exp(x).to_bits(), 0.0f64.to_bits(), "exp({x})");
    }
    // Subnormal results stay positive down to the smallest subnormal.
    assert!(exp(-740.0) > 0.0);
    assert!(exp(-745.0) > 0.0);
}

#[test]
fn sigmoid_and_tanh_saturate_exactly_far_out() {
    for x in [40.0, 100.0, 1e10, f64::MAX, f64::INFINITY] {
        assert_eq!(sigmoid(x), 1.0, "sigmoid({x})");
        assert_eq!(tanh(x), 1.0, "tanh({x})");
        assert_eq!(tanh(-x), -1.0, "tanh(-{x})");
    }
    // sigmoid(-x) is exactly +0 once e^x overflows.
    for x in [710.0, 800.0, 1e10, f64::MAX, f64::INFINITY] {
        assert_eq!(sigmoid(-x).to_bits(), 0.0f64.to_bits(), "sigmoid(-{x})");
    }
}

#[test]
fn tanh_is_odd_bit_for_bit_and_keeps_the_sign_of_zero() {
    assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
    assert_eq!(tanh(-0.0).to_bits(), (-0.0f64).to_bits());
    for x in sweep().step_by(97) {
        assert_eq!(tanh(-x).to_bits(), (-tanh(x)).to_bits(), "tanh(-{x:e})");
    }
    // Subnormal arguments: tanh(x) = x.
    let tiny = f64::from_bits(1);
    assert_eq!(tanh(tiny), tiny);
    assert_eq!(tanh(-tiny), -tiny);
}

//! Repo-owned `exp`, `sigmoid` and `tanh`: every model activation goes
//! through these instead of the host's libm.
//!
//! They use only `+ - * /` on `f64` and `to_bits`/`from_bits`, with no
//! data-dependent branch, so:
//!
//! * the bits are the same on every platform and at every `target-cpu`
//!   (rustc never contracts or reassociates floating-point operations, so
//!   wider vectors change instruction selection, never results);
//! * a loop over a slice vectorises: the slice forms below are the flat
//!   passes the LSTM gates and the activation layers run.
//!
//! `exp` is within 1 ulp of libm's wherever the result is normal, and
//! `sigmoid` and `tanh` within 4 ulp (`tests/activation_ulp.rs` sweeps
//! both bounds). NaN propagates,
//! `exp(±inf)` is `inf`/`0`, and `sigmoid`/`tanh` saturate to exact `0`,
//! `±1` far out.

/// `1.5 * 2^52`: adding it rounds a value below `2^51` in magnitude to the
/// nearest integer, which then sits in the low mantissa bits.
const ROUND_SHIFT: f64 = 6_755_399_441_055_744.0;
/// `ln 2` split Cody–Waite style: `LN2_HI` has 21 trailing zero bits, so
/// `n * LN2_HI` is exact for every `n` the reduction produces.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);
/// `exp` of anything above overflows and of anything below rounds to `0`;
/// clamping there keeps the exponent arithmetic in range.
const EXP_HI: f64 = 710.0;
const EXP_LO: f64 = -746.0;
/// `tanh(x)` rounds to exactly `±1` beyond about 19.1.
const TANH_SAT: f64 = 20.0;
const SIGN: u64 = 1 << 63;

/// `2^n` for `-1022 <= n <= 1023`, built from its exponent bits.
#[inline(always)]
fn pow2(n: i64) -> f64 {
    f64::from_bits((n.wrapping_add(1023) as u64) << 52)
}

/// Splits `x = n ln2 + r` with `|r| <= ln2 / 2` and returns
/// `(n, r_hi, q)` with `expm1(r) = r_hi + q`: `r_hi` is exact and `q` is
/// small, so callers can add the two with a single rounding where it
/// matters. Valid for `|x| < 1000`; NaN gives a NaN `r_hi`.
#[inline(always)]
fn reduce(x: f64) -> (i64, f64, f64) {
    let k = x * std::f64::consts::LOG2_E + ROUND_SHIFT;
    let n = (k.to_bits() as i64).wrapping_sub(ROUND_SHIFT.to_bits() as i64);
    let nf = k - ROUND_SHIFT;
    let r_hi = x - nf * LN2_HI;
    let c = nf * LN2_LO;
    let r = r_hi - c;
    // expm1(r) = r + r^2 (1/2! + r/3! + ... + r^11/13!): the Taylor tail
    // past r^13 is below 2^-57 relative on |r| <= ln2 / 2.
    let mut p = 1.0 / 6_227_020_800.0;
    p = p * r + 1.0 / 479_001_600.0;
    p = p * r + 1.0 / 39_916_800.0;
    p = p * r + 1.0 / 3_628_800.0;
    p = p * r + 1.0 / 362_880.0;
    p = p * r + 1.0 / 40_320.0;
    p = p * r + 1.0 / 5_040.0;
    p = p * r + 1.0 / 720.0;
    p = p * r + 1.0 / 120.0;
    p = p * r + 1.0 / 24.0;
    p = p * r + 1.0 / 6.0;
    p = p * r + 0.5;
    (n, r_hi, (r * r) * p - c)
}

/// `e^x`.
#[inline]
pub fn exp(x: f64) -> f64 {
    // `clamp` compares and selects, so NaN passes it unchanged.
    let (n, r_hi, q) = reduce(x.clamp(EXP_LO, EXP_HI));
    // 1 + expm1(r) with a single significant rounding: `lo` is the exact
    // error of `1 + r_hi`, added back with the small `q`.
    let one_r = 1.0 + r_hi;
    let lo = (1.0 - one_r) + r_hi;
    let m = one_r + (lo + q);
    // Two factors keep each one normal from 2^-538 to 2^512, so results
    // near overflow and in the subnormal range are scaled exactly until
    // the last product rounds once.
    let half = n >> 1;
    m * pow2(half) * pow2(n - half)
}

/// The logistic function `1 / (1 + e^-x)`.
#[inline]
pub fn sigmoid(x: f64) -> f64 {
    1.0 / (1.0 + exp(-x))
}

/// The hyperbolic tangent.
#[inline]
pub fn tanh(x: f64) -> f64 {
    let bits = x.to_bits();
    let a = f64::from_bits(bits & !SIGN);
    // Not `a.min(TANH_SAT)`, which would turn NaN into `TANH_SAT`.
    let a = if a > TANH_SAT { TANH_SAT } else { a };
    // tanh|x| = e / (e + 2) with e = expm1(2|x|). Unlike (e^2x - 1) /
    // (e^2x + 1) it keeps full relative precision near 0, where e is
    // `r_hi + q` itself (n = 0), so no small-argument branch is needed.
    let (n, r_hi, q) = reduce(a + a);
    let scale = pow2(n);
    let e = (scale - 1.0) + scale * (r_hi + q);
    let t = e / (e + 2.0);
    f64::from_bits(t.to_bits() | (bits & SIGN))
}

/// `dst[i] = sigmoid(src[i])`.
///
/// # Panics
/// If the slices differ in length.
pub fn sigmoid_into(src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "sigmoid_into length mismatch");
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = sigmoid(x);
    }
}

/// `dst[i] = tanh(src[i])`.
///
/// # Panics
/// If the slices differ in length.
pub fn tanh_into(src: &[f64], dst: &mut [f64]) {
    assert_eq!(src.len(), dst.len(), "tanh_into length mismatch");
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = tanh(x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_at_the_anchors() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(-0.0), 1.0);
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(tanh(0.0).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn slice_forms_match_the_scalar_functions() {
        let src: Vec<f64> = (0..37).map(|i| (i as f64 - 18.0) * 0.731).collect();
        let mut s = vec![0.0; src.len()];
        let mut t = vec![0.0; src.len()];
        sigmoid_into(&src, &mut s);
        tanh_into(&src, &mut t);
        for ((&x, &sv), &tv) in src.iter().zip(&s).zip(&t) {
            assert_eq!(sv.to_bits(), sigmoid(x).to_bits());
            assert_eq!(tv.to_bits(), tanh(x).to_bits());
        }
    }
}

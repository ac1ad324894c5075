//! OK fixture: a libm call in a model crate that is not a model
//! activation, justified by an allow annotation with a reason; the
//! activations themselves go through the repo-owned functions, and test
//! code may compare against libm freely.

use neural::activation::{sigmoid, tanh};

pub fn poisson_threshold(lambda: f64) -> f64 {
    // lint: allow(determinism) — sampling constant, not a model activation
    (-lambda).exp()
}

pub fn gates(x: f64) -> (f64, f64) {
    (sigmoid(x), tanh(x))
}

#[cfg(test)]
mod tests {
    #[test]
    fn tanh_is_close_to_libm() {
        assert!((super::tanh(0.5) - 0.5f64.tanh()).abs() < 1e-15);
    }
}

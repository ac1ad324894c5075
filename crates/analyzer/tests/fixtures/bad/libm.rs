//! BAD fixture: model activations computed with the host libm in a model
//! crate, plus an allow annotation with no reason (which must NOT
//! suppress).

pub fn gate(x: f64) -> f64 {
    1.0 / (1.0 + (-x).exp())
}

// lint: allow(determinism)
pub fn cell(c: f64) -> f64 {
    c.tanh()
}

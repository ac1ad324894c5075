//! OK fixture: a layer stack whose declared dimensions chain, including a
//! symbolic hidden size and shape-preserving layers in between.

pub fn build(m: usize, hidden: usize, n: usize, rng: &mut Rng) -> Sequential {
    Sequential::new(vec![
        Box::new(Dense::new(m, hidden, rng)),
        Box::new(Activation::new(ActKind::Relu)),
        Box::new(Dense::new(hidden, hidden, rng)),
        Box::new(Activation::new(ActKind::Tanh)),
        Box::new(Dense::new(hidden, n, rng)),
        Box::new(Activation::new(ActKind::Sigmoid)),
    ])
}

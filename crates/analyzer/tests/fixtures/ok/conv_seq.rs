//! OK fixture: same-padded convolutions with odd kernels, chained by
//! channel with a length-preserving activation in between.

pub fn build(rng: &mut Rng) -> SeqSequential {
    SeqSequential::new(vec![
        Box::new(Conv1d::new(1, 4, 3, rng)),
        Box::new(Conv1d::new(4, 4, 5, rng)),
        Box::new(SeqActivation::new(ActKind::Relu)),
        Box::new(Conv1d::new(4, 1, 1, rng)),
    ])
}

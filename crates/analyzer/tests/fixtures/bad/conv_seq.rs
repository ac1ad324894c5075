//! BAD fixture: Conv1d kernel misuse — an even kernel in the same-padded
//! constructor panics on its odd-kernel assert, in or out of a stack.

pub fn build(rng: &mut Rng) -> SeqSequential {
    let _panics = Conv1d::new(1, 1, 4, rng);
    SeqSequential::new(vec![
        Box::new(Conv1d::new(1, 4, 3, rng)),
        Box::new(Conv1d::new(4, 1, 3, rng)),
    ])
}

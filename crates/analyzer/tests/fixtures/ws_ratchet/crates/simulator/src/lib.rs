//! Ratchet fixture workspace: exactly two `unwrap` findings and nothing
//! else, so the integration tests can pin the budget arithmetic.

fn first_two(xs: &[u64]) -> (u64, u64) {
    let a = xs.first().copied().unwrap();
    let b = xs.get(1).copied().unwrap();
    (a, b)
}

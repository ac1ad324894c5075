//! Dead-API fixture crate: one public item per case rule X must get right.

/// Called only from this file's test module and an integration test.
pub fn only_tested() -> u32 {
    1
}

/// Called from the `beta` crate.
pub fn used_by_beta() -> u32 {
    2
}

/// Called from the benchmark harness under `citybench/`.
pub fn used_by_bench() -> u32 {
    3
}

/// Called from an example.
pub fn used_by_example() -> u32 {
    4
}

// lint: allow(dead_api) — public on purpose: the annotated case
pub fn annotated() -> u32 {
    5
}

/// Named elsewhere only in doc comments, e.g. [`only_in_docs`].
pub fn only_in_docs() -> u32 {
    6
}

pub(crate) fn crate_visible() -> u32 {
    7
}

pub struct Unit;

pub trait Speak {
    fn speak(&self) -> u32;
}

impl Speak for Unit {
    fn speak(&self) -> u32 {
        8
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn calls_the_tested_fn() {
        assert_eq!(super::only_tested(), 1);
    }
}

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

/// Live code reads and writes its `stride` field; only this file's tests
/// call its `stride()` method.
pub struct Strided {
    stride: usize,
}

impl Strided {
    /// Called from the `beta` crate; `stride:` is a struct-literal key.
    pub fn with_stride(n: usize) -> Self {
        let step = n.max(1);
        Self { stride: step }
    }

    /// Called from the `beta` crate; `.stride` is a field read.
    pub fn steps(&self, len: usize) -> usize {
        len / self.stride
    }

    /// Shares its name with the field; nothing but a test calls it.
    pub fn stride(&self) -> usize {
        self.stride
    }
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

    #[test]
    fn calls_the_method_named_like_a_field() {
        assert_eq!(super::Strided::with_stride(2).stride(), 2);
    }
}

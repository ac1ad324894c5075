//! Benchmark-harness fixture: its calls are uses; its own items are never
//! reported.

pub fn bench_only() -> u32 {
    9
}

fn main() {
    println!("{}", alpha::used_by_bench());
}

//! Property tests for per-index RNG stream splitting: parallel data
//! generation derives one independent `Rng64` per work item, so stream
//! seeds must never collide across the index range a corpus can use.

use neural::rng::Rng64;
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// For any master seed, 10_000 consecutive indices map to 10_000
    /// distinct stream seeds (and none equals the master itself).
    #[test]
    fn stream_seeds_never_collide_across_10k_indices(master in 0u64..u64::MAX) {
        let mut seen = HashSet::with_capacity(10_000);
        for index in 0..10_000u64 {
            let seed = Rng64::stream_seed(master, index);
            prop_assert!(seen.insert(seed), "collision at index {index}");
            prop_assert!(seed != master, "index {index} collapsed onto the master seed");
        }
    }

    /// Randomly scattered (not just consecutive) indices stay collision
    /// free, and streams for a fixed index differ across master seeds.
    #[test]
    fn scattered_indices_stay_distinct(
        master in 0u64..u64::MAX,
        indices in proptest::collection::vec(0u64..1_000_000_000, 200),
    ) {
        let unique_in: HashSet<u64> = indices.iter().copied().collect();
        let unique_out: HashSet<u64> = indices
            .iter()
            .map(|&i| Rng64::stream_seed(master, i))
            .collect();
        prop_assert_eq!(unique_in.len(), unique_out.len());
        prop_assert!(Rng64::stream_seed(master, 0) != Rng64::stream_seed(master ^ 1, 0));
    }
}

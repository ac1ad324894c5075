//! Seeded random sources for initialisation and sampling.
//!
//! Wraps `rand::StdRng` and adds the two distributions the workspace needs
//! that `rand` 0.8 does not ship without `rand_distr`: Gaussian samples
//! (Box-Muller) and Poisson counts (Knuth's method), both used by the
//! paper's TOD priors (§IV-B assumes Gaussian priors; §V-B's synthetic
//! patterns include Gaussian and Poisson TOD).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random source.
#[derive(Debug, Clone)]
pub struct Rng64 {
    inner: StdRng,
    /// Spare normal sample from the last Box-Muller pair.
    spare: Option<f64>,
}

impl Rng64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            inner: StdRng::seed_from_u64(seed),
            spare: None,
        }
    }

    /// Derives the seed of the `index`-th independent stream of `master`.
    ///
    /// Used for deterministic parallel generation: work item `k` draws
    /// from `Rng64::for_index(master, k)`, so results do not depend on
    /// the order (or thread) in which items run. For a fixed `master` the
    /// map `index -> seed` is injective — it composes bijections on `u64`
    /// (odd-constant multiply, constant add, SplitMix64 finalizer) — so
    /// distinct indices can never collapse onto one stream.
    pub fn stream_seed(master: u64, index: u64) -> u64 {
        fn mix(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        }
        // Decorrelate the index before folding in the master seed so that
        // nearby (master, index) pairs land far apart.
        let spread = mix(index
            .wrapping_mul(0xA24BAED4963EE407)
            .wrapping_add(0x9E3779B97F4A7C15));
        mix(master.wrapping_add(spread))
    }

    /// Creates the generator for the `index`-th independent stream of
    /// `master` (see [`Rng64::stream_seed`]).
    pub fn for_index(master: u64, index: u64) -> Self {
        Self::new(Self::stream_seed(master, index))
    }

    /// Uniform sample in `[0, 1)`.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform sample in `[lo, hi)`.
    #[inline]
    pub fn uniform_in(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(hi > lo);
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[0, n)`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n)
    }

    /// Standard normal sample via Box-Muller.
    pub fn normal(&mut self) -> f64 {
        if let Some(z) = self.spare.take() {
            return z;
        }
        // u1 in (0, 1] so ln is finite.
        let u1 = 1.0 - self.uniform();
        let u2 = self.uniform();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    #[inline]
    pub fn normal_with(&mut self, mean: f64, std: f64) -> f64 {
        mean + std * self.normal()
    }

    /// Poisson sample with rate `lambda` (Knuth's multiplication method;
    /// adequate for the small rates of the synthetic TOD patterns).
    pub fn poisson(&mut self, lambda: f64) -> u64 {
        if lambda <= 0.0 {
            return 0;
        }
        // For large lambda fall back to a rounded normal approximation to
        // avoid O(lambda) work and underflow of exp(-lambda).
        if lambda > 30.0 {
            let s = self.normal_with(lambda, lambda.sqrt());
            return s.round().max(0.0) as u64;
        }
        // lint: allow(determinism) — datagen's Poisson draws stay on libm; no model activation
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= self.uniform();
            if p <= l {
                return k;
            }
            k += 1;
        }
    }

    /// Fills `out` with i.i.d. uniform samples in `[lo, hi)`.
    pub fn fill_uniform(&mut self, out: &mut [f64], lo: f64, hi: f64) {
        for v in out {
            *v = self.uniform_in(lo, hi);
        }
    }

    /// Fills `out` with i.i.d. standard normal samples.
    pub fn fill_normal(&mut self, out: &mut [f64]) {
        for v in out {
            *v = self.normal();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = Rng64::new(5);
        let mut b = Rng64::new(5);
        for _ in 0..100 {
            assert_eq!(a.uniform(), b.uniform());
            assert_eq!(a.normal(), b.normal());
        }
        let mut c = Rng64::new(6);
        assert_ne!(Rng64::new(5).uniform(), c.uniform());
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut r = Rng64::new(1);
        for _ in 0..1000 {
            let v = r.uniform_in(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut r = Rng64::new(2);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn normal_with_shifts_and_scales() {
        let mut r = Rng64::new(3);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal_with(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn poisson_mean_matches_rate() {
        let mut r = Rng64::new(4);
        for &lambda in &[0.5, 3.0, 12.0, 50.0] {
            let n = 20_000;
            let mean = (0..n).map(|_| r.poisson(lambda)).sum::<u64>() as f64 / n as f64;
            assert!(
                (mean - lambda).abs() < lambda.sqrt() * 0.1 + 0.05,
                "lambda {lambda}: mean {mean}"
            );
        }
    }

    #[test]
    fn poisson_degenerate_rates() {
        let mut r = Rng64::new(5);
        assert_eq!(r.poisson(0.0), 0);
        assert_eq!(r.poisson(-3.0), 0);
    }

    #[test]
    fn stream_seeds_are_distinct_and_reproducible() {
        assert_eq!(Rng64::stream_seed(7, 3), Rng64::stream_seed(7, 3));
        assert_ne!(Rng64::stream_seed(7, 3), Rng64::stream_seed(7, 4));
        assert_ne!(Rng64::stream_seed(7, 3), Rng64::stream_seed(8, 3));
        // Index streams differ from the master's own stream.
        let mut base = Rng64::new(7);
        let mut s0 = Rng64::for_index(7, 0);
        assert_ne!(base.uniform(), s0.uniform());
    }

    #[test]
    fn for_index_matches_stream_seed() {
        let mut a = Rng64::for_index(11, 5);
        let mut b = Rng64::new(Rng64::stream_seed(11, 5));
        for _ in 0..10 {
            assert_eq!(a.uniform(), b.uniform());
        }
    }

    #[test]
    fn fill_helpers() {
        let mut r = Rng64::new(6);
        let mut buf = [0.0; 16];
        r.fill_uniform(&mut buf, 1.0, 2.0);
        assert!(buf.iter().all(|v| (1.0..2.0).contains(v)));
        r.fill_normal(&mut buf);
        assert!(buf.iter().any(|&v| v != 0.0));
    }
}

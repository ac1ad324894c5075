//! The five synthetic TOD patterns of §V-B.
//!
//! | Pattern    | Definition (per paper)                                      |
//! |------------|-------------------------------------------------------------|
//! | Random     | values uniform in [1, 20] vehicles/min                      |
//! | Increasing | start at 5 vehicles/min, +2 per 10-minute interval, + noise |
//! | Decreasing | start at 20 vehicles/min, -2 per interval, + noise          |
//! | Gaussian   | N(mean 10, variance 4) vehicles/min                         |
//! | Poisson    | Poisson(lambda = 3) vehicles/min                            |
//!
//! The paper expresses rates in vehicles/minute over 10-minute intervals;
//! our TOD tensors store *trips per interval*, so each rate is multiplied
//! by the interval length in minutes.

use neural::rng::Rng64;
use roadnet::{OdPairId, TodTensor};

/// One of the paper's five synthetic TOD patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TodPattern {
    /// Uniform random rates in [1, 20] veh/min.
    Random,
    /// Linearly increasing rates with additive noise.
    Increasing,
    /// Linearly decreasing rates with additive noise.
    Decreasing,
    /// Gaussian rates, mean 10 veh/min, variance 4.
    Gaussian,
    /// Poisson rates, lambda = 3 veh/min.
    Poisson,
}

impl TodPattern {
    /// All five patterns in the paper's order.
    pub const ALL: [TodPattern; 5] = [
        TodPattern::Random,
        TodPattern::Increasing,
        TodPattern::Decreasing,
        TodPattern::Gaussian,
        TodPattern::Poisson,
    ];

    /// Display name used in Table VIII.
    pub fn name(self) -> &'static str {
        match self {
            TodPattern::Random => "Random",
            TodPattern::Increasing => "Increasing",
            TodPattern::Decreasing => "Decreasing",
            TodPattern::Gaussian => "Gaussian",
            TodPattern::Poisson => "Poisson",
        }
    }

    /// Generates one TOD tensor of shape `(n_od, t)`. `interval_min` is
    /// the interval length in minutes (the paper uses 10); `demand_scale`
    /// uniformly scales all rates so experiments can trade congestion
    /// level against runtime (1.0 reproduces the paper's magnitudes).
    pub fn generate(
        self,
        n_od: usize,
        t: usize,
        interval_min: f64,
        demand_scale: f64,
        rng: &mut Rng64,
    ) -> TodTensor {
        let mut tod = TodTensor::zeros(n_od, t);
        let to_trips = interval_min * demand_scale;
        for i in 0..n_od {
            for ti in 0..t {
                let rate_per_min = match self {
                    TodPattern::Random => rng.uniform_in(1.0, 20.0),
                    TodPattern::Increasing => {
                        let base = 5.0 + 2.0 * ti as f64;
                        (base + rng.normal_with(0.0, 1.0)).max(0.0)
                    }
                    TodPattern::Decreasing => {
                        let base = 20.0 - 2.0 * ti as f64;
                        (base + rng.normal_with(0.0, 1.0)).max(0.0)
                    }
                    TodPattern::Gaussian => rng.normal_with(10.0, 2.0).max(0.0),
                    TodPattern::Poisson => rng.poisson(3.0) as f64,
                };
                tod.set(OdPairId(i), ti, rate_per_min * to_trips);
            }
        }
        tod
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rates(tod: &TodTensor, interval_min: f64) -> Vec<f64> {
        tod.as_slice().iter().map(|v| v / interval_min).collect()
    }

    /// Trips in interval `t`, summed over every OD pair.
    fn interval_total(tod: &TodTensor, t: usize) -> f64 {
        (0..tod.rows()).map(|i| tod.get(OdPairId(i), t)).sum()
    }

    #[test]
    fn random_pattern_within_bounds() {
        let mut rng = Rng64::new(0);
        let tod = TodPattern::Random.generate(10, 12, 10.0, 1.0, &mut rng);
        for r in rates(&tod, 10.0) {
            assert!((1.0..20.0).contains(&r), "rate {r}");
        }
    }

    #[test]
    fn increasing_pattern_trends_up() {
        let mut rng = Rng64::new(1);
        let tod = TodPattern::Increasing.generate(50, 12, 10.0, 1.0, &mut rng);
        let first = interval_total(&tod, 0);
        let last = interval_total(&tod, 11);
        assert!(last > first * 2.0, "ends {first} -> {last}");
    }

    #[test]
    fn decreasing_pattern_trends_down() {
        let mut rng = Rng64::new(2);
        let tod = TodPattern::Decreasing.generate(50, 10, 10.0, 1.0, &mut rng);
        assert!(interval_total(&tod, 9) < interval_total(&tod, 0) / 2.0);
    }

    #[test]
    fn gaussian_pattern_has_right_mean() {
        let mut rng = Rng64::new(3);
        let tod = TodPattern::Gaussian.generate(200, 12, 10.0, 1.0, &mut rng);
        let mean_rate = tod.total() / (200.0 * 12.0) / 10.0;
        assert!((mean_rate - 10.0).abs() < 0.3, "mean rate {mean_rate}");
    }

    #[test]
    fn poisson_pattern_has_right_mean() {
        let mut rng = Rng64::new(4);
        let tod = TodPattern::Poisson.generate(200, 12, 10.0, 1.0, &mut rng);
        let mean_rate = tod.total() / (200.0 * 12.0) / 10.0;
        assert!((mean_rate - 3.0).abs() < 0.2, "mean rate {mean_rate}");
    }

    #[test]
    fn all_patterns_non_negative_and_finite() {
        let mut rng = Rng64::new(5);
        for p in TodPattern::ALL {
            let tod = p.generate(20, 12, 10.0, 1.0, &mut rng);
            assert!(tod.is_non_negative(), "{p:?}");
            assert!(tod.is_finite(), "{p:?}");
        }
    }

    #[test]
    fn demand_scale_scales_linearly() {
        let tod_full = TodPattern::Gaussian.generate(50, 6, 10.0, 1.0, &mut Rng64::new(6));
        let tod_half = TodPattern::Gaussian.generate(50, 6, 10.0, 0.5, &mut Rng64::new(6));
        assert!((tod_full.total() * 0.5 - tod_half.total()).abs() < 1e-9);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = TodPattern::Random.generate(5, 5, 10.0, 1.0, &mut Rng64::new(9));
        let b = TodPattern::Random.generate(5, 5, 10.0, 1.0, &mut Rng64::new(9));
        assert_eq!(a, b);
    }
}

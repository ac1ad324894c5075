//! Synthetic auxiliary data (the paper's Table II).
//!
//! | Level  | Static (here)              | Dynamic (here)          |
//! |--------|----------------------------|-------------------------|
//! | TOD    | census / LEHD commuters    | (taxi TOD samples)      |
//! | Volume | road network attributes    | surveillance cameras    |
//! | Speed  | speed limits               | (road work scenarios)   |
//!
//! §IV-E uses LEHD to constrain each OD's *daily total* trip count and
//! camera observations to constrain selected links' volumes. We synthesise
//! both from the hidden ground truth plus noise — exactly the situation
//! the paper faces, where auxiliary data is consistent with reality but
//! not exact.

use neural::rng::Rng64;
use roadnet::{LinkId, LinkTensor, OdPairId, TodTensor};

/// LEHD-style census constraint: for OD pair `i`, the expected total
/// number of daily trips (`sum_t g_{i,t}` in the auxiliary loss of §IV-E).
#[derive(Debug, Clone, PartialEq)]
pub struct CensusOdTotals {
    totals: Vec<f64>,
}

impl CensusOdTotals {
    /// Derives noisy daily totals from a ground-truth TOD tensor.
    /// `noise_sigma` is the relative noise level (0 = exact).
    pub fn from_groundtruth(tod: &TodTensor, noise_sigma: f64, rng: &mut Rng64) -> Self {
        let totals = (0..tod.rows())
            .map(|i| {
                let t = tod.row_total(OdPairId(i));
                (t * (1.0 + rng.normal_with(0.0, noise_sigma))).max(0.0)
            })
            .collect();
        Self { totals }
    }

    /// The daily total for OD `i`.
    pub fn total(&self, od: OdPairId) -> f64 {
        self.totals[od.index()]
    }

    /// All totals in OD order.
    pub fn as_slice(&self) -> &[f64] {
        &self.totals
    }

    /// Number of OD pairs covered.
    pub fn len(&self) -> usize {
        self.totals.len()
    }

    /// True when no OD pairs are covered.
    pub fn is_empty(&self) -> bool {
        self.totals.is_empty()
    }
}

/// Sparse surveillance-camera observations: exact (noisy) volume series
/// for a small set of instrumented links ("we may only have surveillance
/// camera data for 10 intersections in a city", §IV-E).
#[derive(Debug, Clone, PartialEq)]
pub struct CameraObservations {
    /// Instrumented links.
    pub links: Vec<LinkId>,
    /// Observed volume series, one row per instrumented link, aligned with
    /// `links`.
    pub volumes: Vec<Vec<f64>>,
}

impl CameraObservations {
    /// Instruments `count` links spread evenly over the network and reads
    /// their (noisy) volumes off the ground-truth volume tensor.
    pub fn sample(
        groundtruth_volume: &LinkTensor,
        count: usize,
        noise_sigma: f64,
        rng: &mut Rng64,
    ) -> Self {
        let m = groundtruth_volume.rows();
        let count = count.min(m);
        let stride = m.checked_div(count).map_or(1, |s| s.max(1));
        let links: Vec<LinkId> = (0..m).step_by(stride).take(count).map(LinkId).collect();
        let volumes = links
            .iter()
            .map(|&l| {
                groundtruth_volume
                    .row(l)
                    .iter()
                    .map(|&v| (v * (1.0 + rng.normal_with(0.0, noise_sigma))).max(0.0))
                    .collect()
            })
            .collect();
        Self { links, volumes }
    }

    /// Number of instrumented links.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True when no links are instrumented.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tod() -> TodTensor {
        TodTensor::from_data(3, 4, (0..12).map(|v| v as f64).collect()).unwrap()
    }

    #[test]
    fn exact_totals_match_row_sums() {
        let t = tod();
        let c = CensusOdTotals::from_groundtruth(&t, 0.0, &mut Rng64::new(0));
        assert_eq!(c.as_slice(), &[6.0, 22.0, 38.0]);
        assert_eq!(c.total(OdPairId(1)), 22.0);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn noisy_totals_stay_close_and_non_negative() {
        let t = tod();
        let mut rng = Rng64::new(0);
        let c = CensusOdTotals::from_groundtruth(&t, 0.05, &mut rng);
        for (i, n) in c.as_slice().iter().enumerate() {
            let e = t.row_total(OdPairId(i));
            assert!(*n >= 0.0);
            if e > 0.0 {
                assert!((n - e).abs() / e < 0.3, "noisy {n} vs exact {e}");
            }
        }
    }

    #[test]
    fn zero_noise_is_exact() {
        let t = tod();
        let a = CensusOdTotals::from_groundtruth(&t, 0.0, &mut Rng64::new(1));
        let b = CensusOdTotals::from_groundtruth(&t, 0.0, &mut Rng64::new(2));
        assert_eq!(a, b, "without noise the seed cannot matter");
    }

    #[test]
    fn camera_sampling_spreads_and_respects_count() {
        let vol = LinkTensor::filled(20, 3, 10.0);
        let mut rng = Rng64::new(2);
        let cams = CameraObservations::sample(&vol, 5, 0.0, &mut rng);
        assert_eq!(cams.len(), 5);
        // spread: strides of 4
        assert_eq!(
            cams.links,
            vec![LinkId(0), LinkId(4), LinkId(8), LinkId(12), LinkId(16)]
        );
        for v in &cams.volumes {
            assert_eq!(v, &vec![10.0; 3]);
        }
    }

    #[test]
    fn camera_count_capped_at_links() {
        let vol = LinkTensor::filled(3, 2, 1.0);
        let mut rng = Rng64::new(3);
        let cams = CameraObservations::sample(&vol, 10, 0.0, &mut rng);
        assert_eq!(cams.len(), 3);
    }
}

//! Property-based tests over the cross-crate invariants listed in
//! DESIGN.md §6.

use city_od::roadnet::{OdPairId, OdSet, TodTensor};
use city_od::simulator::{SimConfig, Simulation};
use proptest::prelude::*;

fn grid_net() -> city_od::roadnet::RoadNetwork {
    city_od::roadnet::presets::synthetic_grid()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Simulator conservation: spawned = arrived + still active; volumes
    /// non-negative; speeds within [0, limit].
    #[test]
    fn simulator_invariants(cells in proptest::collection::vec(0.0f64..6.0, 72 * 2), seed in 0u64..50) {
        let net = grid_net();
        let ods = OdSet::all_pairs(&net);
        let tod = TodTensor::from_data(ods.len(), 2, cells).unwrap();
        let cfg = SimConfig::default()
            .with_intervals(2)
            .with_interval_s(120.0)
            .with_seed(seed);
        let out = Simulation::new(&net, &ods, cfg).unwrap().run(&tod).unwrap();
        prop_assert!(out.stats.is_conserved());
        prop_assert!(out.volume.is_non_negative());
        for l in net.links() {
            for t in 0..2 {
                let v = out.speed.get(l.id, t);
                prop_assert!(v >= 0.0 && v <= l.speed_limit_mps + 1e-9);
            }
        }
    }

    /// RMSE is a metric-like score: zero iff identical inputs (here:
    /// identity), symmetric, and monotone under growing perturbation.
    #[test]
    fn rmse_properties(cells in proptest::collection::vec(0.0f64..20.0, 8 * 3), eps in 0.1f64..5.0) {
        let a = TodTensor::from_data(8, 3, cells).unwrap();
        prop_assert_eq!(a.rmse(&a).unwrap(), 0.0);
        let mut b = a.clone();
        b.map_inplace(|v| v + eps);
        let mut c = a.clone();
        c.map_inplace(|v| v + 2.0 * eps);
        let ab = a.rmse(&b).unwrap();
        let ba = b.rmse(&a).unwrap();
        let ac = a.rmse(&c).unwrap();
        prop_assert!((ab - ba).abs() < 1e-12);
        prop_assert!((ab - eps).abs() < 1e-9, "uniform shift: rmse == shift");
        prop_assert!(ac > ab);
    }

    /// Tensor row accounting: the row totals sum to the whole.
    #[test]
    fn tensor_totals_decompose(cells in proptest::collection::vec(0.0f64..50.0, 6 * 4)) {
        let t = TodTensor::from_data(6, 4, cells).unwrap();
        let row_sum: f64 = (0..6).map(|i| t.row_total(OdPairId(i))).sum();
        prop_assert!((row_sum - t.total()).abs() < 1e-9);
    }
}

/// Doubling demand cannot raise the network-wide mean speed (statistical
/// congestion monotonicity; deterministic seeds make this exact here).
#[test]
fn congestion_monotonicity() {
    let net = grid_net();
    let ods = OdSet::all_pairs(&net);
    let cfg = SimConfig::default()
        .with_intervals(3)
        .with_interval_s(300.0);
    let mean_link_speed = |scale: f64| {
        let tod = TodTensor::filled(ods.len(), 3, scale);
        let out = Simulation::new(&net, &ods, cfg.clone())
            .unwrap()
            .run(&tod)
            .unwrap();
        out.speed.total() / out.speed.as_slice().len() as f64
    };
    let light = mean_link_speed(1.0);
    let medium = mean_link_speed(8.0);
    let heavy = mean_link_speed(25.0);
    assert!(medium <= light + 1e-9, "{medium} vs {light}");
    assert!(heavy < medium, "{heavy} vs {medium}");
}

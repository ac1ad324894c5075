//! Integration coverage of the substrate extensions: taxi sampling,
//! vehicle classes, actuated signals, exports, multi-route OVS.

use city_od::datagen::dataset::DatasetSpec;
use city_od::datagen::taxi::{record_all_trips, trips_to_tod};
use city_od::datagen::{Dataset, TodPattern};
use city_od::eval::harness::{run_method, DatasetInput};
use city_od::ovs_core::trainer::OvsEstimator;
use city_od::ovs_core::OvsConfig;
use city_od::roadnet::export::to_geojson_fields;
use city_od::roadnet::presets::synthetic_grid;
use city_od::roadnet::{OdSet, TodTensor};
use city_od::simulator::{SignalControl, SimConfig, Simulation};

fn spec() -> DatasetSpec {
    DatasetSpec {
        t: 4,
        interval_s: 120.0,
        train_samples: 4,
        demand_scale: 0.15,
        seed: 6,
    }
}

#[test]
fn taxi_pipeline_reconstructs_demand_from_trips() {
    let ds = Dataset::synthetic(TodPattern::Gaussian, &spec()).unwrap();
    let trips = record_all_trips(&ds.net, &ds.ods, &ds.sim_config, &ds.groundtruth_tod).unwrap();
    let rebuilt = trips_to_tod(
        &trips,
        ds.n_od(),
        ds.n_intervals(),
        ds.sim_config.ticks_per_interval(),
        1.0,
    )
    .unwrap();
    let err = ds.groundtruth_tod.rmse(&rebuilt).unwrap();
    let zero_err = ds
        .groundtruth_tod
        .rmse(&TodTensor::zeros(ds.n_od(), ds.n_intervals()))
        .unwrap();
    assert!(err < zero_err * 0.3, "trip records carry the demand: {err}");
}

#[test]
fn mixed_fleet_and_actuated_signals_compose() {
    let net = synthetic_grid();
    let ods = OdSet::all_pairs(&net);
    let tod = TodTensor::filled(ods.len(), 2, 3.0);
    let cfg = SimConfig {
        truck_fraction: 0.3,
        signal_control: SignalControl::Actuated,
        ..SimConfig::default()
            .with_intervals(2)
            .with_interval_s(120.0)
    };
    let out = Simulation::new(&net, &ods, cfg).unwrap().run(&tod).unwrap();
    assert!(out.stats.is_conserved());
    assert!(out.speed.is_finite());
    assert!(out.occupancy.is_non_negative());
}

#[test]
fn geojson_export_agrees_with_the_network() {
    let net = synthetic_grid();
    let geo = to_geojson_fields(&net, None, None);
    let parsed: serde_json::Value = serde_json::from_str(&geo).unwrap();
    assert_eq!(
        parsed["features"].as_array().unwrap().len(),
        net.num_links()
    );
}

#[test]
fn multi_route_ovs_estimates_end_to_end() {
    let ds = Dataset::synthetic(TodPattern::Gaussian, &spec()).unwrap();
    let owned = DatasetInput::new(&ds);
    let input = owned.input(&ds, false);
    let mut cfg = OvsConfig::tiny();
    cfg.k_routes = 2;
    let mut est = OvsEstimator::new(cfg);
    let (res, tod) = run_method(&mut est, &ds, &input).unwrap();
    assert!(res.rmse.is_finite());
    assert!(tod.is_non_negative());
}

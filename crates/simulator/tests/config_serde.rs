//! Serde round-trips of the simulator's configuration surface — configs
//! are the deployment artifact users version-control.

use simulator::{LinkDisruption, Scenario, SimConfig};

#[test]
fn sim_config_round_trips() {
    let cfg = SimConfig {
        record_trips: true,
        ..SimConfig::default()
            .with_intervals(7)
            .with_interval_s(450.0)
            .with_seed(99)
    };
    let json = serde_json::to_string(&cfg).unwrap();
    let back: SimConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(back.intervals, 7);
    assert_eq!(back.interval_s, 450.0);
    assert_eq!(back.seed, 99);
    assert!(back.record_trips);
}

#[test]
fn scenario_round_trips() {
    let s = Scenario::with_disruptions(vec![
        LinkDisruption::road_work(roadnet::LinkId(3)),
        LinkDisruption::incident(roadnet::LinkId(7)),
    ]);
    let json = serde_json::to_string(&s).unwrap();
    let back: Scenario = serde_json::from_str(&json).unwrap();
    // The two disrupted links, and only those, keep their factors.
    for l in 0..10 {
        let link = roadnet::LinkId(l);
        assert_eq!(back.factors(link) != (1.0, 1.0, 1.0), l == 3 || l == 7);
    }
    assert_eq!(
        back.factors(roadnet::LinkId(3)),
        s.factors(roadnet::LinkId(3))
    );
    assert_eq!(
        back.factors(roadnet::LinkId(7)),
        s.factors(roadnet::LinkId(7))
    );
}

#[test]
fn configs_affect_runs_but_serde_does_not() {
    use roadnet::presets::synthetic_grid;
    use roadnet::{OdSet, TodTensor};
    use simulator::Simulation;
    let net = synthetic_grid();
    let ods = OdSet::all_pairs(&net);
    let tod = TodTensor::filled(ods.len(), 2, 2.0);
    let cfg = SimConfig::default()
        .with_intervals(2)
        .with_interval_s(120.0);
    let json = serde_json::to_string(&cfg).unwrap();
    let cfg2: SimConfig = serde_json::from_str(&json).unwrap();
    let a = Simulation::new(&net, &ods, cfg).unwrap().run(&tod).unwrap();
    let b = Simulation::new(&net, &ods, cfg2)
        .unwrap()
        .run(&tod)
        .unwrap();
    assert_eq!(a.speed, b.speed);
    assert_eq!(a.volume, b.volume);
}

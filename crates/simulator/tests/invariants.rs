//! Physical-invariant battery for the engine, driven by the obs layer.
//!
//! Each test injects a local [`obs::Registry`] so the assertions see only
//! the counters of its own runs. The engine re-checks its conservation
//! laws *every tick* and counts breaches into `*_violations_total`
//! counters — these tests assert that those monitors exist, fire on the
//! right metrics, and read zero across light, saturated, and disrupted
//! traffic regimes.

use obs::Registry;
use roadnet::presets::synthetic_grid;
use roadnet::{OdSet, RoadNetwork, TodTensor};
use simulator::metrics as m;
use simulator::{RoutingPolicy, SimConfig, SimOutput, Simulation};

fn setup() -> (RoadNetwork, OdSet) {
    let net = synthetic_grid();
    let ods = OdSet::all_pairs(&net);
    (net, ods)
}

/// Runs one simulation against a fresh local registry.
fn run_with_registry(cfg: SimConfig, demand: f64, t: usize) -> (Registry, SimOutput) {
    let (net, ods) = setup();
    let tod = TodTensor::filled(ods.len(), t, demand);
    let reg = Registry::new();
    let out = Simulation::new(&net, &ods, cfg)
        .unwrap()
        .with_registry(reg.clone())
        .run(&tod)
        .unwrap();
    (reg, out)
}

fn counter(reg: &Registry, name: &str) -> u64 {
    reg.counter(name).get()
}

#[test]
fn conservation_law_holds_at_every_step() {
    for demand in [0.5, 3.0, 20.0] {
        let cfg = SimConfig::default()
            .with_intervals(2)
            .with_interval_s(120.0);
        let (reg, out) = run_with_registry(cfg, demand, 2);
        assert_eq!(
            counter(&reg, m::CONSERVATION_VIOLATIONS),
            0,
            "spawned == arrived + in_network must hold every tick (demand {demand})"
        );
        assert_eq!(
            counter(&reg, m::LINK_CONSERVATION_VIOLATIONS),
            0,
            "per-link transfer bookkeeping must balance (demand {demand})"
        );
        assert!(out.stats.is_conserved());
    }
}

#[test]
fn conservation_holds_under_dynamic_routing() {
    let cfg = SimConfig {
        routing: RoutingPolicy::TimeDependent,
        ..SimConfig::default()
            .with_intervals(2)
            .with_interval_s(120.0)
    };
    let (reg, _) = run_with_registry(cfg, 4.0, 2);
    assert_eq!(counter(&reg, m::CONSERVATION_VIOLATIONS), 0);
    assert_eq!(counter(&reg, m::LINK_CONSERVATION_VIOLATIONS), 0);
}

#[test]
fn obs_counters_agree_with_run_stats() {
    let cfg = SimConfig::default()
        .with_intervals(2)
        .with_interval_s(120.0);
    let (reg, out) = run_with_registry(cfg, 3.0, 2);
    assert_eq!(counter(&reg, m::RUNS), 1);
    assert_eq!(counter(&reg, m::SPAWNED), out.stats.spawned);
    assert_eq!(counter(&reg, m::ARRIVED), out.stats.arrived);
    assert_eq!(counter(&reg, m::UNROUTABLE), out.stats.unroutable);
    assert_eq!(counter(&reg, m::ACTIVE_AT_END), out.stats.active_at_end);
    assert_eq!(counter(&reg, m::QUEUED_AT_END), out.stats.queued_at_end);
    // Every arrival and every crossing passes a stop line.
    assert!(counter(&reg, m::TRANSFER_CROSSINGS) >= out.stats.arrived);
    assert!(counter(&reg, m::SIGNAL_GREEN_TICKS) >= counter(&reg, m::TRANSFER_CROSSINGS));
}

#[test]
fn speeds_clamped_and_volumes_non_negative() {
    let cfg = SimConfig::default()
        .with_intervals(3)
        .with_interval_s(120.0);
    let (reg, out) = run_with_registry(cfg, 10.0, 3);
    assert_eq!(
        counter(&reg, m::SPEED_CLAMP_VIOLATIONS),
        0,
        "finalized speeds must stay in [0, v_max]"
    );
    assert_eq!(
        counter(&reg, m::NEGATIVE_VOLUME_VIOLATIONS),
        0,
        "finalized volumes must be non-negative"
    );
    // Cross-check the monitors against the tensors themselves.
    let (net, _) = setup();
    for l in net.links() {
        for t in 0..3 {
            let v = out.speed.get(l.id, t);
            assert!((0.0..=l.speed_limit_mps + 1e-9).contains(&v));
            assert!(out.volume.get(l.id, t) >= 0.0);
        }
    }
}

#[test]
fn spillback_grows_monotonically_with_demand() {
    let spillback_at = |demand: f64| {
        let cfg = SimConfig::default()
            .with_intervals(2)
            .with_interval_s(180.0);
        let (reg, _) = run_with_registry(cfg, demand, 2);
        counter(&reg, m::SPILLBACK_BLOCKED_TICKS)
    };
    let light = spillback_at(0.5);
    let medium = spillback_at(8.0);
    let heavy = spillback_at(40.0);
    assert!(
        heavy > 0,
        "saturating demand must produce spillback-blocked transfers"
    );
    assert!(
        light <= medium && medium <= heavy,
        "spillback must grow with demand: {light} <= {medium} <= {heavy}"
    );
}

#[test]
fn step_histogram_covers_every_tick() {
    let cfg = SimConfig::default()
        .with_intervals(2)
        .with_interval_s(120.0);
    let (reg, _) = run_with_registry(cfg, 2.0, 2);
    let hist = reg.histogram(m::STEP_IN_NETWORK, obs::COUNT_BUCKETS);
    assert_eq!(hist.count(), counter(&reg, m::TICKS));
    assert!(hist.count() > 0);
}

#[test]
fn metrics_snapshot_is_deterministic_across_identical_runs() {
    let run = || {
        let cfg = SimConfig::default()
            .with_intervals(2)
            .with_interval_s(120.0)
            .with_seed(17);
        let (reg, _) = run_with_registry(cfg, 3.0, 2);
        reg.to_json_stable()
    };
    assert_eq!(run(), run(), "same seed must give byte-identical metrics");
}

#[test]
fn local_registry_does_not_leak_into_global() {
    let before = obs::global().counter(m::RUNS).get();
    let cfg = SimConfig::default().with_intervals(1).with_interval_s(60.0);
    let (_reg, _) = run_with_registry(cfg, 1.0, 1);
    assert_eq!(
        obs::global().counter(m::RUNS).get(),
        before,
        "injected registry must fully replace the global sink"
    );
}

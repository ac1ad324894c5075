//! Behavioural tests of the traffic model: the macroscopic phenomena the
//! OVS attention network is designed to learn must actually emerge from
//! the microscopic rules.

use roadnet::network::NetworkBuilder;
use roadnet::{LinkId, NodeId, OdPair, OdSet, Point, RegionId, TodTensor};
use simulator::{LinkDisruption, Scenario, SimConfig, Simulation};

/// A corridor of `n` links in a row (one-way), one region per node, with
/// unsignalised intermediate nodes so only car-following dynamics act.
fn corridor(n: usize) -> (roadnet::RoadNetwork, OdSet) {
    let mut b = NetworkBuilder::new();
    let nodes: Vec<NodeId> = (0..=n)
        .map(|i| b.add_node(Point::new(i as f64 * 300.0, 0.0)))
        .collect();
    for w in nodes.windows(2) {
        b.add_link(w[0], w[1], 1, 10.0).unwrap();
    }
    for &nd in &nodes {
        b.set_signalized(nd, false).unwrap();
    }
    let net = b.assign_regions_grid(1, n + 1).build().unwrap();
    let ods = one_od(0, net.num_regions() - 1);
    (net, ods)
}

/// The one-pair OD set `RegionId(o) -> RegionId(d)`.
fn one_od(o: usize, d: usize) -> OdSet {
    let mut ods = OdSet::new();
    ods.push(OdPair::new(RegionId(o), RegionId(d)).unwrap())
        .unwrap();
    ods
}

fn cfg(t: usize) -> SimConfig {
    SimConfig::default()
        .with_intervals(t)
        .with_interval_s(300.0)
}

#[test]
fn platoon_travels_downstream_with_delay() {
    let (net, ods) = corridor(6);
    // One burst of demand in the first interval only.
    let mut tod = TodTensor::zeros(1, 4);
    tod.set(roadnet::OdPairId(0), 0, 30.0);
    let out = Simulation::new(&net, &ods, cfg(4))
        .unwrap()
        .run(&tod)
        .unwrap();
    // The first link sees its volume in interval 0; the last link sees a
    // nonzero share later (free-flow crossing of 6 x 300 m at 10 m/s is
    // 180 s < 300 s, but departures spread over the whole interval).
    let first = LinkId(0);
    let last = LinkId(net.num_links() - 1);
    assert!(out.volume.get(first, 0) > 0.0);
    let last_total: f64 = out.volume.row(last).iter().sum();
    assert!(last_total > 0.0, "platoon must reach the end");
    // No volume before it could physically arrive: link 5 starts 1500 m
    // downstream; the earliest arrival is 150 s into interval 0, so all
    // of it lands in intervals 0-1; interval 3 must be empty.
    assert_eq!(out.volume.get(last, 3), 0.0);
}

#[test]
fn bottleneck_spills_back_upstream() {
    let (net, ods) = corridor(4);
    let t = 3;
    let tod = TodTensor::filled(1, t, 80.0);
    let free = Simulation::new(&net, &ods, cfg(t))
        .unwrap()
        .run(&tod)
        .unwrap();
    // Choke the third link hard.
    let choke = LinkId(2);
    let scenario = Scenario::with_disruptions(vec![LinkDisruption {
        link: choke,
        speed_factor: 0.1,
        flow_factor: 0.1,
        capacity_factor: 0.3,
    }]);
    let jam = Simulation::with_scenario(&net, &ods, cfg(t), scenario)
        .unwrap()
        .run(&tod)
        .unwrap();
    // The *upstream* links must also slow down (spillback), even though
    // they are not disrupted themselves.
    let upstream = LinkId(1);
    let mean = |o: &simulator::SimOutput, l: LinkId| o.speed.row(l).iter().sum::<f64>() / t as f64;
    assert!(
        mean(&jam, upstream) < mean(&free, upstream) - 0.5,
        "spillback: upstream {:.2} (jam) vs {:.2} (free)",
        mean(&jam, upstream),
        mean(&free, upstream)
    );
}

#[test]
fn signals_reduce_throughput() {
    // Same corridor, but with signalised intermediate nodes: mean speed
    // must drop relative to the unsignalised version.
    let build = |signals: bool| {
        let mut b = NetworkBuilder::new();
        let nodes: Vec<NodeId> = (0..=5)
            .map(|i| b.add_node(Point::new(i as f64 * 300.0, 0.0)))
            .collect();
        for w in nodes.windows(2) {
            b.add_link(w[0], w[1], 1, 10.0).unwrap();
        }
        if !signals {
            for &nd in &nodes {
                b.set_signalized(nd, false).unwrap();
            }
        }
        let net = b.assign_regions_grid(1, 6).build().unwrap();
        let ods = one_od(0, net.num_regions() - 1);
        let tod = TodTensor::filled(1, 2, 20.0);
        let out = Simulation::new(&net, &ods, cfg(2))
            .unwrap()
            .run(&tod)
            .unwrap();
        out.speed.total() / out.speed.as_slice().len() as f64
    };
    let free_flow = build(false);
    let signalised = build(true);
    assert!(
        signalised < free_flow,
        "signals must slow traffic: {signalised} vs {free_flow}"
    );
}

#[test]
fn storage_capacity_limits_entries() {
    // A single 150 m link holds at most 20 vehicles; pushing far more
    // demand must leave trips queued at the end of a short horizon.
    let mut b = NetworkBuilder::new();
    let a = b.add_node(Point::new(0.0, 0.0));
    let c = b.add_node(Point::new(150.0, 0.0));
    b.add_link(a, c, 1, 10.0).unwrap();
    let net = b.assign_regions_grid(1, 2).build().unwrap();
    let ods = one_od(0, 1);
    let tod = TodTensor::filled(1, 1, 500.0);
    let cfg = SimConfig {
        cooldown_s: 0.0,
        ..SimConfig::default().with_intervals(1).with_interval_s(60.0)
    };
    let out = Simulation::new(&net, &ods, cfg).unwrap().run(&tod).unwrap();
    assert!(out.stats.queued_at_end > 0, "{:?}", out.stats);
    assert!(out.stats.is_conserved());
    // Entries cannot exceed what physically fits + discharges.
    assert!(out.volume.get(LinkId(0), 0) < 100.0);
}

#[test]
fn cooldown_lets_late_vehicles_finish() {
    let (net, ods) = corridor(4);
    // Demand only in the last interval; without cooldown most trips are
    // still en route.
    let mut tod = TodTensor::zeros(1, 2);
    tod.set(roadnet::OdPairId(0), 1, 20.0);
    let no_cool = SimConfig {
        cooldown_s: 0.0,
        ..cfg(2)
    };
    let with_cool = SimConfig {
        cooldown_s: 600.0,
        ..cfg(2)
    };
    let a = Simulation::new(&net, &ods, no_cool)
        .unwrap()
        .run(&tod)
        .unwrap();
    let b = Simulation::new(&net, &ods, with_cool)
        .unwrap()
        .run(&tod)
        .unwrap();
    assert!(b.stats.arrived > a.stats.arrived);
    // Observations must be identical: cooldown ticks are not recorded.
    assert_eq!(a.volume, b.volume);
    assert_eq!(a.speed, b.speed);
}

#[test]
fn time_dependent_routing_avoids_disruption() {
    // Diamond network: a -> {b | c} -> d, equal free-flow costs. Road work
    // on the north branch should shift time-dependent traffic south after
    // the first interval.
    let mut b = NetworkBuilder::new();
    let na = b.add_node(Point::new(0.0, 0.0));
    let nb = b.add_node(Point::new(500.0, 400.0));
    let nc = b.add_node(Point::new(500.0, -400.0));
    let nd = b.add_node(Point::new(1000.0, 0.0));
    b.add_road(na, nb, 1, 10.0).unwrap();
    b.add_road(nb, nd, 1, 10.0).unwrap();
    b.add_road(na, nc, 1, 10.0).unwrap();
    b.add_road(nc, nd, 1, 10.0).unwrap();
    let net = b.assign_regions_grid(1, 2).build().unwrap();
    // region 0 holds a & (one of b/c), region 1 the rest; use node-based
    // OD via regions at the two extremes.
    let ods = OdSet::all_pairs(&net);
    let tod = TodTensor::filled(ods.len(), 3, 10.0);
    let north_out = net.out_links(na)[0];

    let scenario = Scenario::with_disruptions(vec![LinkDisruption::incident(north_out)]);
    let cfg_td = SimConfig {
        routing: simulator::RoutingPolicy::TimeDependent,
        ..SimConfig::default()
            .with_intervals(3)
            .with_interval_s(300.0)
    };
    let out = Simulation::with_scenario(&net, &ods, cfg_td, scenario.clone())
        .unwrap()
        .run(&tod)
        .unwrap();
    // With time-dependent routing, later intervals put less volume on the
    // incident link than the first (drivers re-route around it).
    let v0 = out.volume.get(north_out, 0);
    let v2 = out.volume.get(north_out, 2);
    assert!(
        v2 <= v0,
        "rerouting should not increase incident-link volume: {v0} -> {v2}"
    );
}

#[test]
fn trucks_slow_the_network() {
    let (net, ods) = corridor(5);
    let t = 3;
    let tod = TodTensor::filled(1, t, 60.0);
    let mean_speed = |truck_fraction: f64| {
        let cfg = SimConfig {
            truck_fraction,
            ..cfg(t)
        };
        let out = Simulation::new(&net, &ods, cfg).unwrap().run(&tod).unwrap();
        out.speed.total() / out.speed.as_slice().len() as f64
    };
    let cars_only = mean_speed(0.0);
    let mixed = mean_speed(0.5);
    assert!(
        mixed < cars_only,
        "trucks must reduce mean speed: {mixed} vs {cars_only}"
    );
}

#[test]
fn truck_fraction_zero_is_bit_identical_to_default() {
    let (net, ods) = corridor(4);
    let tod = TodTensor::filled(1, 2, 10.0);
    let a = Simulation::new(&net, &ods, cfg(2))
        .unwrap()
        .run(&tod)
        .unwrap();
    let b = Simulation::new(
        &net,
        &ods,
        SimConfig {
            truck_fraction: 0.0,
            ..cfg(2)
        },
    )
    .unwrap()
    .run(&tod)
    .unwrap();
    assert_eq!(a.speed, b.speed);
    assert_eq!(a.volume, b.volume);
}

#[test]
fn actuated_signals_beat_fixed_time_on_asymmetric_demand() {
    // A one-way corridor with signalised nodes carries all the demand;
    // the cross streets are empty. Fixed-time control wastes half of every
    // cycle on the empty phase; actuation should hold green for the
    // corridor and move traffic faster.
    use simulator::SignalControl;
    let mut b = NetworkBuilder::new();
    let nodes: Vec<NodeId> = (0..=5)
        .map(|i| b.add_node(Point::new(i as f64 * 300.0, 0.0)))
        .collect();
    for w in nodes.windows(2) {
        b.add_link(w[0], w[1], 1, 10.0).unwrap();
    }
    let net = b.assign_regions_grid(1, 6).build().unwrap();
    let ods = one_od(0, net.num_regions() - 1);
    let tod = TodTensor::filled(1, 2, 25.0);
    let run = |control: SignalControl| {
        let cfg = SimConfig {
            signal_control: control,
            ..cfg(2)
        };
        let out = Simulation::new(&net, &ods, cfg).unwrap().run(&tod).unwrap();
        out.speed.total() / out.speed.as_slice().len() as f64
    };
    let fixed = run(SignalControl::FixedTime);
    let actuated = run(SignalControl::Actuated);
    assert!(
        actuated > fixed,
        "actuation must help one-sided demand: {actuated} vs fixed {fixed}"
    );
}

#[test]
fn fundamental_diagram_emerges() {
    // Across demand levels, per-link (occupancy, speed) samples must show
    // the fundamental-diagram shape: speed decreases as occupancy rises.
    let (net, ods) = corridor(4);
    let mut samples: Vec<(f64, f64)> = Vec::new();
    for &demand in &[5.0, 20.0, 40.0, 80.0] {
        let tod = TodTensor::filled(1, 2, demand);
        let out = Simulation::new(&net, &ods, cfg(2))
            .unwrap()
            .run(&tod)
            .unwrap();
        for j in 0..net.num_links() {
            for t in 0..2 {
                let l = LinkId(j);
                samples.push((out.occupancy.get(l, t), out.speed.get(l, t)));
            }
        }
    }
    // Spearman-like check: split by median occupancy; the dense half must
    // be slower on average.
    let mut occs: Vec<f64> = samples.iter().map(|s| s.0).collect();
    occs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = occs[occs.len() / 2];
    let mean_speed = |pred: &dyn Fn(f64) -> bool| {
        let sel: Vec<f64> = samples
            .iter()
            .filter(|(o, _)| pred(*o))
            .map(|(_, v)| *v)
            .collect();
        sel.iter().sum::<f64>() / sel.len().max(1) as f64
    };
    let sparse = mean_speed(&|o| o <= median);
    let dense = mean_speed(&|o| o > median);
    assert!(
        dense < sparse,
        "dense links must be slower: {dense} vs {sparse}"
    );
}

//! Behavioural tests of the traffic model: the macroscopic phenomena the
//! OVS attention network is designed to learn must actually emerge from
//! the microscopic rules.

use roadnet::network::NetworkBuilder;
use roadnet::{LinkId, NodeId, OdPair, OdSet, Point, RegionId, TodTensor};
use simulator::{
    metrics, IncidentKind, IncidentSchedule, IncidentTarget, LinkDisruption, Scenario,
    ScheduledIncident, SimConfig, Simulation,
};

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
fn closure_reroutes_free_flow_traffic_around_the_diamond() {
    // Diamond a -> {north | south} -> d with a shorter north arm, so every
    // a -> d trip takes it at free flow. Closing the north arm's first link
    // for interval 1 must push that interval's trips south, and only that
    // interval's.
    let mut b = NetworkBuilder::new();
    let na = b.add_node(Point::new(0.0, 0.0));
    let north = b.add_node(Point::new(500.0, 300.0));
    let south = b.add_node(Point::new(500.0, -400.0));
    let nd = b.add_node(Point::new(1000.0, 0.0));
    b.add_road(na, north, 1, 10.0).unwrap();
    b.add_road(north, nd, 1, 10.0).unwrap();
    b.add_road(na, south, 1, 10.0).unwrap();
    b.add_road(south, nd, 1, 10.0).unwrap();
    // One region per column: {a}, {north, south}, {d}.
    let net = b.assign_regions_grid(1, 3).build().unwrap();
    let ods = one_od(0, 2);
    let link = |from: NodeId, to: NodeId| {
        *net.out_links(from)
            .iter()
            .find(|&&l| net.links()[l.index()].to == to)
            .unwrap()
    };
    let (north_arm, south_arm) = (link(na, north), link(na, south));
    let t = 3;
    let tod = TodTensor::filled(1, t, 10.0);
    let cfg = cfg(t);
    let tpi = cfg.ticks_per_interval();

    let clean = Simulation::new(&net, &ods, cfg.clone())
        .unwrap()
        .run(&tod)
        .unwrap();
    assert!(clean.volume.get(north_arm, 1) > 0.0);
    assert!(clean.volume.row(south_arm).iter().all(|&v| v == 0.0));

    let reg = obs::Registry::new();
    let closed = Simulation::new(&net, &ods, cfg)
        .unwrap()
        .with_registry(reg.clone())
        .with_incidents(IncidentSchedule::new(vec![ScheduledIncident {
            kind: IncidentKind::Closure,
            target: IncidentTarget::Link(north_arm),
            onset_tick: tpi,
            duration_ticks: tpi,
            severity: 1.0,
        }]))
        .unwrap()
        .run(&tod)
        .unwrap();
    assert_eq!(closed.volume.get(north_arm, 1), 0.0);
    assert!(
        closed.volume.get(south_arm, 1) > 0.0,
        "trips re-route south"
    );
    assert_eq!(closed.volume.get(south_arm, 0), 0.0);
    assert_eq!(closed.volume.get(south_arm, 2), 0.0, "and return north");
    assert_eq!(closed.stats.unroutable, 0);
    assert!(closed.stats.is_conserved(), "{:?}", closed.stats);
    assert_eq!(reg.counter(metrics::CONSERVATION_VIOLATIONS).get(), 0);
    assert_eq!(reg.counter(metrics::LINK_CONSERVATION_VIOLATIONS).get(), 0);
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
    let mean_link_speed = |pred: &dyn Fn(f64) -> bool| {
        let sel: Vec<f64> = samples
            .iter()
            .filter(|(o, _)| pred(*o))
            .map(|(_, v)| *v)
            .collect();
        sel.iter().sum::<f64>() / sel.len().max(1) as f64
    };
    let sparse = mean_link_speed(&|o| o <= median);
    let dense = mean_link_speed(&|o| o > median);
    assert!(
        dense < sparse,
        "dense links must be slower: {dense} vs {sparse}"
    );
}

//! Pinned checksums of whole Manhattan runs under every routing policy.
//!
//! The route cache is an optimisation only: whichever way routes are
//! searched and stored, every run must produce the same observation
//! tensors and statistics, bit for bit. These checksums were recorded
//! with the per-pair route cache (one early-exit Dijkstra per new
//! `(from, to)` pair) and pin the per-source route trees that replaced it.

use roadnet::presets::manhattan;
use roadnet::{LinkId, NodeId, OdPairId, OdSet, RoadNetwork, TodTensor};
use simulator::{
    IncidentKind, IncidentSchedule, IncidentTarget, RoutingPolicy, ScheduledIncident, SimConfig,
    SimOutput, Simulation,
};

const T: usize = 4;

fn setup() -> (RoadNetwork, OdSet, TodTensor) {
    let net = manhattan().network;
    let ods = OdSet::all_pairs(&net);
    // Uneven demand, heavy enough to congest arterials, so the observed
    // speeds (and with them time-dependent routes) differ by interval.
    let mut tod = TodTensor::zeros(ods.len(), T);
    for i in 0..ods.len() {
        for t in 0..T {
            let trips = ((i * 7 + t * 3) % 5) as f64 * 1.5 + 0.4;
            tod.set(OdPairId(i), t, trips);
        }
    }
    (net, ods, tod)
}

fn cfg(routing: RoutingPolicy) -> SimConfig {
    SimConfig {
        routing,
        ..SimConfig::default()
            .with_intervals(T)
            .with_interval_s(300.0)
            .with_seed(17)
    }
}

/// Closures that open and clear mid-interval plus a signal outage, so the
/// route caches are cleared and re-derived several times in one run.
fn incidents(tpi: u64) -> IncidentSchedule {
    IncidentSchedule::new(vec![
        ScheduledIncident {
            kind: IncidentKind::Closure,
            target: IncidentTarget::Link(LinkId(3)),
            onset_tick: tpi / 2,
            duration_ticks: tpi,
            severity: 1.0,
        },
        ScheduledIncident {
            kind: IncidentKind::Closure,
            target: IncidentTarget::Node(NodeId(44)),
            onset_tick: tpi + 40,
            duration_ticks: tpi / 3,
            severity: 0.9,
        },
        ScheduledIncident {
            kind: IncidentKind::SignalOutage,
            target: IncidentTarget::Node(NodeId(55)),
            onset_tick: 2 * tpi,
            duration_ticks: tpi / 2,
            severity: 0.8,
        },
    ])
}

/// FNV-1a over the bits of every output tensor and statistic.
fn checksum(out: &SimOutput) -> u64 {
    let s = &out.stats;
    let tensors = [
        out.volume.as_slice(),
        out.speed.as_slice(),
        out.occupancy.as_slice(),
    ];
    let words = tensors
        .iter()
        .flat_map(|t| t.iter().map(|x| x.to_bits()))
        .chain([
            s.spawned,
            s.arrived,
            s.active_at_end,
            s.queued_at_end,
            s.unroutable,
            s.total_travel_time_s.to_bits(),
        ]);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Runs the same simulation twice (the second run starts from the route
/// cache the first one left) and checks both against `expected`.
fn assert_pinned(routing: RoutingPolicy, with_incidents: bool, expected: u64) {
    let (net, ods, tod) = setup();
    let cfg = cfg(routing);
    let tpi = cfg.ticks_per_interval();
    let mut sim = Simulation::new(&net, &ods, cfg)
        .unwrap()
        .with_registry(obs::Registry::new());
    if with_incidents {
        sim = sim.with_incidents(incidents(tpi)).unwrap();
    }
    let first = sim.run(&tod).unwrap();
    assert!(first.stats.spawned > 0);
    assert!(first.stats.is_conserved(), "{:?}", first.stats);
    let second = sim.run(&tod).unwrap();
    assert_eq!(
        (checksum(&first), checksum(&second)),
        (expected, expected),
        "{routing:?} (incidents: {with_incidents}) changed its output bits"
    );
}

#[test]
fn free_flow_fastest_is_pinned() {
    assert_pinned(RoutingPolicy::FreeFlowFastest, false, 0xcfd4_1ad2_b319_6f85);
}

#[test]
fn shortest_is_pinned() {
    assert_pinned(RoutingPolicy::Shortest, false, 0xa2f1_0952_688b_6f53);
}

#[test]
fn time_dependent_is_pinned() {
    assert_pinned(RoutingPolicy::TimeDependent, false, 0x4eca_86c7_640c_d47f);
}

#[test]
fn free_flow_fastest_with_incidents_is_pinned() {
    assert_pinned(RoutingPolicy::FreeFlowFastest, true, 0x4f3f_2cdf_715f_c468);
}

#[test]
fn time_dependent_with_incidents_is_pinned() {
    assert_pinned(RoutingPolicy::TimeDependent, true, 0xa769_6486_17ab_7f80);
}

#[test]
fn shortest_with_incidents_is_pinned() {
    assert_pinned(RoutingPolicy::Shortest, true, 0x6d89_515e_93af_07dc);
}

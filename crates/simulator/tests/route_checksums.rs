//! Pinned checksums of whole Manhattan runs through the simulator's one
//! routing path (free-flow-fastest), alone and under each overlay the
//! pipelines apply to it.
//!
//! The route cache is an optimisation only: whichever way routes are
//! searched and stored, every run must produce the same observation
//! tensors, statistics and trip records, bit for bit. The first two
//! checksums were recorded with the per-pair route cache (one early-exit
//! Dijkstra per new `(from, to)` pair) and pin the per-source route trees
//! that replaced it.

use roadnet::presets::manhattan;
use roadnet::{LinkId, NodeId, OdPairId, OdSet, RoadNetwork, TodTensor};
use simulator::{
    IncidentKind, IncidentSchedule, IncidentTarget, Scenario, ScheduledIncident, SimConfig,
    SimOutput, Simulation,
};

const T: usize = 4;

fn setup() -> (RoadNetwork, OdSet, TodTensor) {
    let net = manhattan().network;
    let ods = OdSet::all_pairs(&net);
    // Uneven demand, heavy enough to congest arterials, so the observed
    // speeds differ by interval.
    let mut tod = TodTensor::zeros(ods.len(), T);
    for i in 0..ods.len() {
        for t in 0..T {
            let trips = ((i * 7 + t * 3) % 5) as f64 * 1.5 + 0.4;
            tod.set(OdPairId(i), t, trips);
        }
    }
    (net, ods, tod)
}

fn cfg() -> SimConfig {
    SimConfig::default()
        .with_intervals(T)
        .with_interval_s(300.0)
        .with_seed(17)
}

/// Closures that open and clear mid-interval plus a signal outage, so the
/// route cache is cleared and re-derived several times in one run.
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

/// FNV-1a over the bits of every output tensor, statistic and trip record.
fn checksum(out: &SimOutput) -> u64 {
    let s = &out.stats;
    let tensors = [
        out.volume.as_slice(),
        out.speed.as_slice(),
        out.occupancy.as_slice(),
    ];
    let trips = out.trips.iter().flat_map(|r| {
        [
            r.od.0 as u64,
            r.from.0 as u64,
            r.to.0 as u64,
            r.depart_tick,
            r.arrive_tick.unwrap_or(u64::MAX),
        ]
    });
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
        ])
        .chain(trips);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        h = (h ^ w).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Runs `sim` twice (the second run starts from the route cache the first
/// one left) and checks both against `expected`.
fn assert_pinned(mut sim: Simulation<'_>, tod: &TodTensor, what: &str, expected: u64) {
    let first = sim.run(tod).unwrap();
    assert!(first.stats.spawned > 0);
    assert!(first.stats.is_conserved(), "{:?}", first.stats);
    let second = sim.run(tod).unwrap();
    assert_eq!(
        (checksum(&first), checksum(&second)),
        (expected, expected),
        "{what} changed its output bits"
    );
}

#[test]
fn free_flow_fastest_is_pinned() {
    let (net, ods, tod) = setup();
    let sim = Simulation::new(&net, &ods, cfg())
        .unwrap()
        .with_registry(obs::Registry::new());
    assert_pinned(sim, &tod, "plain run", 0xcfd4_1ad2_b319_6f85);
}

#[test]
fn free_flow_fastest_with_incidents_is_pinned() {
    let (net, ods, tod) = setup();
    let cfg = cfg();
    let tpi = cfg.ticks_per_interval();
    let sim = Simulation::new(&net, &ods, cfg)
        .unwrap()
        .with_registry(obs::Registry::new())
        .with_incidents(incidents(tpi))
        .unwrap();
    assert_pinned(sim, &tod, "incident run", 0x4f3f_2cdf_715f_c468);
}

/// The RQ3 path: road work on an eighth of the links, as the Figure 11
/// experiment samples it.
#[test]
fn road_work_scenario_is_pinned() {
    let (net, ods, tod) = setup();
    let scenario = Scenario::sample_road_work(&net, net.num_links() / 8);
    let sim = Simulation::with_scenario(&net, &ods, cfg(), scenario)
        .unwrap()
        .with_registry(obs::Registry::new());
    assert_pinned(sim, &tod, "road-work run", 0x4508_2ab3_6b97_2666);
}

/// The taxi pipeline's path: one trip record per spawned vehicle, hashed
/// along with the tensors.
#[test]
fn recorded_trips_are_pinned() {
    let (net, ods, tod) = setup();
    let cfg = SimConfig {
        record_trips: true,
        ..cfg()
    };
    let sim = Simulation::new(&net, &ods, cfg)
        .unwrap()
        .with_registry(obs::Registry::new());
    assert_pinned(sim, &tod, "trip-recording run", 0x6acc_72d5_0310_bb4d);
}

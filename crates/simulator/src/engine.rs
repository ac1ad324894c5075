//! The simulation engine.
//!
//! A discrete-time (1 s tick) microscopic simulation. Each tick:
//!
//! 1. **Spawn** — trips demanded by the TOD tensor are admitted onto the
//!    first link of their route when its entrance is clear; otherwise they
//!    wait in a FIFO queue (driveway queueing).
//! 2. **Move** — vehicles advance under the car-following rule
//!    ([`crate::vehicle::follow`]), front-to-back per link, respecting the
//!    scenario-adjusted attainable speed.
//! 3. **Transfer** — vehicles stopped at a link's end cross the
//!    intersection when the signal is green, the link's saturation-flow
//!    budget allows, and the downstream link has space. A full downstream
//!    link blocks the transfer — congestion spills back, which is the
//!    upstream-delay effect the paper's attention module models (Fig 4).
//! 4. **Observe** — per-link volume (entries) and space-mean speed are
//!    accumulated into the interval tensors.
//!
//! The run is fully deterministic given `SimConfig::seed`.

use crate::config::{RoutingPolicy, SignalControl, SimConfig};
use crate::demand::{DemandSpawner, SpawnRequest};
use crate::incident::{IncidentKind, IncidentSchedule, IncidentTarget};
use crate::observe::Observer;
use crate::scenario::Scenario;
use crate::signal::{ActuatedPlan, SignalPlan};
use crate::vehicle::{follow, Vehicle, VehicleClass, VehicleId};
use roadnet::routing::{shortest_path_tree, ShortestPathTree};
use roadnet::{LinkId, LinkTensor, NodeId, OdSet, Result, RoadNetwork, RoadnetError, TodTensor};
use std::collections::VecDeque;
use std::sync::Arc;

/// A route as vehicles hold it: shared, because every trip between the
/// same two nodes drives the same links.
type SharedRoute = Arc<Vec<LinkId>>;

/// Routes out of one source node: its shortest-path tree, and each
/// destination's route read off the tree the first time a trip asks.
#[derive(Clone)]
struct SourceRoutes {
    tree: ShortestPathTree,
    /// Indexed by destination node; `None` until first read, and for
    /// unroutable destinations, which the tree rejects without a walk.
    routes: Vec<Option<SharedRoute>>,
}

/// Route cache indexed by source node, holding one shortest-path tree per
/// source. A tree answers every destination with exactly the route an
/// early-exit search for that pair finds (see [`ShortestPathTree`]), so
/// the cache decides only how often Dijkstra runs, never which route a
/// trip takes. It is valid while link costs and closures stay fixed: the
/// run clears it at every incident boundary, and the time-dependent
/// policy's cache also at every interval boundary.
#[derive(Clone, Default)]
struct RouteCache {
    sources: Vec<Option<SourceRoutes>>,
}

impl RouteCache {
    fn clear(&mut self) {
        self.sources.clear();
    }

    /// The route from `from` to `to`, growing `from`'s tree with `grow`
    /// on its first use. `None` when no non-empty route exists.
    fn route(
        &mut self,
        net: &RoadNetwork,
        from: NodeId,
        to: NodeId,
        grow: impl FnOnce() -> Result<ShortestPathTree>,
    ) -> Option<SharedRoute> {
        let n = net.num_nodes();
        if self.sources.len() < n {
            self.sources.resize_with(n, || None);
        }
        let slot = self.sources.get_mut(from.index())?;
        if slot.is_none() {
            *slot = Some(SourceRoutes {
                tree: grow().ok()?,
                routes: vec![None; n],
            });
        }
        let SourceRoutes { tree, routes } = slot.as_mut()?;
        let cached = routes.get_mut(to.index())?;
        if cached.is_none() {
            *cached = tree
                .route_to(net, to)
                .ok()
                .filter(|r| !r.links.is_empty())
                .map(|r| Arc::new(r.links));
        }
        cached.clone()
    }
}

/// Summary counters of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Vehicles that entered the network.
    pub spawned: u64,
    /// Vehicles that reached their destination.
    pub arrived: u64,
    /// Vehicles still en route when the run ended.
    pub active_at_end: u64,
    /// Trips still waiting to enter when the run ended.
    pub queued_at_end: u64,
    /// Trips dropped because no route existed.
    pub unroutable: u64,
    /// Sum of completed-trip travel times, seconds.
    pub total_travel_time_s: f64,
}

impl SimStats {
    /// Mean travel time of completed trips, seconds.
    pub fn mean_travel_time_s(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            self.total_travel_time_s / self.arrived as f64
        }
    }

    /// Every spawned vehicle must be accounted for.
    // lint: allow(dead_api) — invariant checker every simulator test asserts
    pub fn is_conserved(&self) -> bool {
        self.spawned == self.arrived + self.active_at_end
    }
}

/// One completed or in-progress trip (recorded when
/// [`crate::SimConfig::record_trips`] is set) — the simulator-side
/// equivalent of one taxi-trajectory record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TripRecord {
    /// OD pair the trip belongs to.
    pub od: roadnet::OdPairId,
    /// Concrete origin node.
    pub from: NodeId,
    /// Concrete destination node.
    pub to: NodeId,
    /// Tick the vehicle entered the network.
    pub depart_tick: u64,
    /// Tick the vehicle arrived, if it finished within the run.
    pub arrive_tick: Option<u64>,
}

/// Output of one run: the paper's observation tensors plus run statistics.
#[derive(Debug, Clone)]
pub struct SimOutput {
    /// `q_{j,t}`: vehicles entering link `j` during interval `t`.
    pub volume: LinkTensor,
    /// `v_{j,t}`: average speed on link `j` during interval `t` (m/s).
    pub speed: LinkTensor,
    /// Time-mean vehicle count on link `j` during interval `t` (the
    /// density axis of a macroscopic fundamental diagram).
    pub occupancy: LinkTensor,
    /// Run statistics.
    pub stats: SimStats,
    /// Per-trip records, in spawn order (empty unless
    /// [`crate::SimConfig::record_trips`] is set).
    pub trips: Vec<TripRecord>,
}

/// A configured simulation, reusable across TOD tensors (route caches for
/// static policies persist between runs).
///
/// `Clone` is cheap relative to a run (at most one tree per source node,
/// with the routes themselves shared via `Arc`), which lets parallel data
/// generation hand each worker its own simulation cloned from one
/// template. The template is never run, so its caches are empty and each
/// clone builds its own trees.
#[derive(Clone)]
pub struct Simulation<'a> {
    net: &'a RoadNetwork,
    ods: &'a OdSet,
    cfg: SimConfig,
    scenario: Scenario,
    plan: SignalPlan,
    // Scenario-adjusted static link attributes, indexed by LinkId.
    len_m: Vec<f64>,
    desired_mps: Vec<f64>,
    capacity: Vec<usize>,
    sat_flow_per_tick: Vec<f64>,
    lanes: Vec<f64>,
    /// Route cache for the static routing policies.
    static_routes: RouteCache,
    /// Scheduled mid-run perturbations; empty means the machinery is
    /// skipped entirely.
    incidents: IncidentSchedule,
    /// Metrics sink; defaults to the process-global registry.
    obs: obs::Registry,
}

/// Time-varying link state derived from the incident schedule, recomputed
/// only at schedule boundaries. With an empty schedule these are exact
/// copies of the static per-link vectors and never touched again.
struct IncidentState {
    desired_mps: Vec<f64>,
    capacity: Vec<usize>,
    sat_flow_per_tick: Vec<f64>,
    closed: Vec<bool>,
    all_red: Vec<bool>,
    /// Signal frozen in the phase it held at this tick (stuck-phase
    /// outage).
    stuck_at: Vec<Option<u64>>,
    /// Any link currently closed (routing must mask).
    any_closed: bool,
}

/// Per-run event tallies, flushed to the registry once at the end of
/// [`Simulation::run`] so the hot loop never touches an atomic.
#[derive(Default)]
struct RunTally {
    crossings: u64,
    green_checks: u64,
    red_checks: u64,
    spillback_blocked: u64,
    satflow_blocked: u64,
    conservation_violations: u64,
    link_conservation_violations: u64,
    speed_clamp_violations: u64,
    negative_volume_violations: u64,
}

impl<'a> Simulation<'a> {
    /// Creates a simulation with the regular (no disruption) scenario.
    pub fn new(net: &'a RoadNetwork, ods: &'a OdSet, cfg: SimConfig) -> Result<Self> {
        Self::with_scenario(net, ods, cfg, Scenario::regular())
    }

    /// Creates a simulation with a disruption scenario (RQ3).
    pub fn with_scenario(
        net: &'a RoadNetwork,
        ods: &'a OdSet,
        cfg: SimConfig,
        scenario: Scenario,
    ) -> Result<Self> {
        ods.validate(net)?;
        if cfg.tick_s <= 0.0 || cfg.interval_s <= 0.0 {
            return Err(RoadnetError::InvalidAttribute(
                "tick and interval lengths must be positive".into(),
            ));
        }
        let cycle_ticks = (cfg.signal_cycle_s / cfg.tick_s).round().max(2.0) as u64;
        let plan = SignalPlan::new(net, cycle_ticks);
        let m = net.num_links();
        let mut len_m = Vec::with_capacity(m);
        let mut desired_mps = Vec::with_capacity(m);
        let mut capacity = Vec::with_capacity(m);
        let mut sat_flow = Vec::with_capacity(m);
        let mut lanes = Vec::with_capacity(m);
        for l in net.links() {
            let (sf, ff, cf) = scenario.factors(l.id);
            len_m.push(l.length_m);
            desired_mps.push(l.speed_limit_mps * sf);
            capacity.push(((l.storage_capacity() as f64 * cf).floor() as usize).max(1));
            sat_flow.push(l.lanes as f64 * cfg.saturation_flow_per_lane * ff * cfg.tick_s);
            lanes.push(l.lanes as f64);
        }
        Ok(Self {
            net,
            ods,
            cfg,
            scenario,
            plan,
            len_m,
            desired_mps,
            capacity,
            sat_flow_per_tick: sat_flow,
            lanes,
            static_routes: RouteCache::default(),
            incidents: IncidentSchedule::default(),
            obs: obs::global().clone(),
        })
    }

    /// Installs a scheduled-incident timeline. The engine applies each
    /// incident's effect deterministically over its tick range and
    /// restores the link when it clears; route caches are invalidated at
    /// every onset/clearance boundary so route sets re-derive against the
    /// perturbed network.
    pub fn with_incidents(mut self, incidents: IncidentSchedule) -> Result<Self> {
        incidents
            .validate(self.net.num_links(), self.net.num_nodes())
            .map_err(RoadnetError::InvalidAttribute)?;
        self.incidents = incidents;
        Ok(self)
    }

    /// The incident schedule in force.
    pub fn incidents(&self) -> &IncidentSchedule {
        &self.incidents
    }

    /// Redirects metrics to `registry` instead of the process-global one.
    /// Tests inject a local registry here so assertions see only their own
    /// run's counters.
    pub fn with_registry(mut self, registry: obs::Registry) -> Self {
        self.obs = registry;
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The scenario in use.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// Runs the simulation for `tod` and returns observation tensors.
    pub fn run(&mut self, tod: &TodTensor) -> Result<SimOutput> {
        if tod.rows() != self.ods.len() {
            return Err(RoadnetError::ShapeMismatch {
                expected: format!("{} OD rows", self.ods.len()),
                actual: format!("{} rows", tod.rows()),
            });
        }
        if tod.num_intervals() != self.cfg.intervals {
            return Err(RoadnetError::ShapeMismatch {
                expected: format!("{} intervals", self.cfg.intervals),
                actual: format!("{} intervals", tod.num_intervals()),
            });
        }

        let m = self.net.num_links();
        let t_obs = self.cfg.intervals;
        let tpi = self.cfg.ticks_per_interval();
        let dt = self.cfg.tick_s;

        let run_span = self.obs.timer(crate::metrics::RUN_SECONDS);
        let step_hist = self
            .obs
            .histogram(crate::metrics::STEP_IN_NETWORK, obs::COUNT_BUCKETS);
        let mut tally = RunTally::default();
        // Transfer-phase bookkeeping buffers for the per-link conservation
        // check, reused across ticks.
        let mut len_before = vec![0usize; m];
        let mut entries = vec![0u64; m];
        let mut exits = vec![0u64; m];

        let mut spawner = DemandSpawner::new(self.net, self.ods, self.cfg.seed)?;
        let mut observer = Observer::new(m, t_obs, tpi);
        let mut links: Vec<VecDeque<Vehicle>> = vec![VecDeque::new(); m];
        let mut exit_budget = vec![0.0f64; m];
        let mut pending: VecDeque<SpawnRequest> = VecDeque::new();
        // Requests that could not enter this tick; swapped with `pending`
        // at the end of the demand phase, so neither queue reallocates.
        let mut still_pending: VecDeque<SpawnRequest> = VecDeque::new();
        let mut actuated = match self.cfg.signal_control {
            SignalControl::Actuated => Some(ActuatedPlan::new(self.net)),
            SignalControl::FixedTime => None,
        };
        let mut stats = SimStats::default();
        let mut next_vid = 0u64;
        let mut trips: Vec<TripRecord> = Vec::new();
        // Dedicated stream for class assignment keeps spawn-node choices
        // identical whether or not trucks are enabled.
        use rand::{Rng as _, SeedableRng as _};
        let mut class_rng = rand::rngs::StdRng::seed_from_u64(self.cfg.seed ^ 0x5EED_70C5);
        // Route cache for the time-dependent policy, cleared whenever a
        // new interval starts.
        let mut dyn_routes = RouteCache::default();
        // Incident machinery: effective per-link state starts as a copy of
        // the static vectors and is only recomputed when the schedule's
        // active set changes (onset/clearance boundaries).
        let has_incidents = !self.incidents.is_empty();
        let mut inc_state = IncidentState {
            desired_mps: self.desired_mps.clone(),
            capacity: self.capacity.clone(),
            sat_flow_per_tick: self.sat_flow_per_tick.clone(),
            closed: vec![false; m],
            all_red: vec![false; m],
            stuck_at: vec![None; m],
            any_closed: false,
        };
        let boundary_ticks = self.incidents.boundaries();
        let mut next_boundary = 0usize;

        for tick in 0..self.cfg.total_ticks() {
            let interval = (tick / tpi) as usize;
            if tick % tpi == 0 {
                // Time-dependent costs read the previous interval's mean
                // speeds, which are final once this interval starts.
                dyn_routes.clear();
            }

            if has_incidents {
                // Tick 0 applies incidents already active at the start;
                // later refreshes happen only when a boundary is crossed.
                let mut crossed = tick == 0;
                while boundary_ticks
                    .get(next_boundary)
                    .is_some_and(|&b| b <= tick)
                {
                    next_boundary += 1;
                    crossed = true;
                }
                if crossed {
                    self.refresh_incident_state(tick, &mut inc_state);
                    // Routes derived under the previous network state are
                    // stale the moment the active set changes: re-derive
                    // against the perturbed (or restored) network.
                    self.static_routes.clear();
                    dyn_routes.clear();
                }
            }

            // --- 1. demand -------------------------------------------------
            if interval < t_obs {
                spawner.tick(tod, interval, tpi, &mut pending)?;
            }
            while let Some(req) = pending.pop_front() {
                let route = self.route_for(
                    req,
                    interval,
                    &observer,
                    &mut dyn_routes,
                    &inc_state.closed,
                    inc_state.any_closed,
                );
                let Some(route) = route else {
                    stats.unroutable += 1;
                    continue;
                };
                let Some(&first) = route.first() else {
                    // route_for filters empty routes; count rather than panic.
                    stats.unroutable += 1;
                    continue;
                };
                let cap = inc_state.capacity.get(first.index()).copied().unwrap_or(0);
                match links.get_mut(first.index()) {
                    Some(deque) if entrance_clear(deque, cap) => {
                        let class = if self.cfg.truck_fraction > 0.0
                            && class_rng.gen::<f64>() < self.cfg.truck_fraction
                        {
                            VehicleClass::Truck
                        } else {
                            VehicleClass::Car
                        };
                        let veh = Vehicle {
                            id: VehicleId(next_vid),
                            route,
                            leg: 0,
                            pos_m: 0.0,
                            speed_mps: 0.0,
                            spawn_tick: tick,
                            class,
                        };
                        next_vid += 1;
                        deque.push_back(veh);
                        observer.record_entry(first, interval);
                        stats.spawned += 1;
                        if self.cfg.record_trips {
                            trips.push(TripRecord {
                                od: req.od,
                                from: req.from,
                                to: req.to,
                                depart_tick: tick,
                                arrive_tick: None,
                            });
                        }
                    }
                    _ => still_pending.push_back(req),
                }
            }
            std::mem::swap(&mut pending, &mut still_pending);

            // --- 2. movement ----------------------------------------------
            let link_rows = links
                .iter_mut()
                .zip(self.len_m.iter())
                .zip(inc_state.desired_mps.iter())
                .enumerate();
            for (li, ((deque, &len), &desired)) in link_rows {
                let mut speed_sum = 0.0;
                let mut count = 0usize;
                // (position, footprint) of the vehicle ahead.
                let mut leader: Option<(f64, f64)> = None;
                for veh in deque.iter_mut() {
                    let headroom = match leader {
                        None => len - veh.pos_m,
                        Some((lp, lf)) => (lp - lf - veh.pos_m).max(0.0),
                    };
                    let (v, dx) = follow(
                        veh.speed_mps,
                        desired,
                        headroom,
                        self.cfg.max_accel * veh.class.accel_factor(),
                        self.cfg.max_decel,
                        dt,
                    );
                    veh.speed_mps = v;
                    veh.pos_m = (veh.pos_m + dx).min(len);
                    leader = Some((veh.pos_m, veh.class.footprint_m()));
                    speed_sum += v;
                    count += 1;
                }
                observer.record_tick(LinkId(li), interval, speed_sum, count, desired);
            }

            // --- 3. transfers ----------------------------------------------
            // Actuated control: detect queues within 30 m of each stop
            // line, then advance the controllers one tick.
            if let Some(plan) = actuated.as_mut() {
                let len_m = &self.len_m;
                plan.update(&|lid: LinkId| {
                    let li = lid.index();
                    match (links.get(li).and_then(|d| d.front()), len_m.get(li)) {
                        (Some(v), Some(&len)) => v.pos_m >= len - 30.0,
                        _ => false,
                    }
                });
            }
            let resets = len_before
                .iter_mut()
                .zip(entries.iter_mut())
                .zip(exits.iter_mut())
                .zip(links.iter());
            for (((before, entered), exited), deque) in resets {
                *before = deque.len();
                *entered = 0;
                *exited = 0;
            }
            // Refill exit budgets up front: each link's budget is only
            // touched by its own transfer iteration, so batching the
            // refills ahead of the loop is behaviour-identical.
            let refills = exit_budget
                .iter_mut()
                .zip(inc_state.sat_flow_per_tick.iter())
                .zip(self.lanes.iter());
            for ((budget, &sat), &lanes) in refills {
                *budget = (*budget + sat).min(lanes.max(1.0));
            }
            for li in 0..m {
                let stop_m = self.len_m.get(li).copied().unwrap_or(0.0);
                // Pop-then-decide keeps this loop panic-free: the front
                // vehicle is re-queued when it cannot cross this tick.
                while let Some(front) = links.get_mut(li).and_then(|d| d.pop_front()) {
                    if front.pos_m < stop_m - 1e-9 {
                        requeue(&mut links, li, front);
                        break;
                    }
                    if front.on_last_leg() {
                        // Arrival consumes no intersection capacity.
                        stats.arrived += 1;
                        bump(&mut exits, li);
                        stats.total_travel_time_s += (tick - front.spawn_tick) as f64 * dt;
                        if self.cfg.record_trips {
                            if let Some(trip) = trips.get_mut(front.id.0 as usize) {
                                trip.arrive_tick = Some(tick);
                            }
                        }
                        continue;
                    }
                    let green = if inc_state.all_red.get(li).copied().unwrap_or(false) {
                        // Severe signal outage: the approach shows red for
                        // the whole incident.
                        false
                    } else if let Some(frozen) = inc_state.stuck_at.get(li).copied().flatten() {
                        // Mild outage: the controller is frozen in the
                        // phase it held at onset (actuated control loses
                        // its detectors too, so the fixed plan decides).
                        self.plan.is_green(LinkId(li), frozen)
                    } else {
                        match &actuated {
                            Some(plan) => plan.is_green(LinkId(li)),
                            None => self.plan.is_green(LinkId(li), tick),
                        }
                    };
                    if !green {
                        tally.red_checks += 1;
                        requeue(&mut links, li, front);
                        break;
                    }
                    tally.green_checks += 1;
                    if exit_budget.get(li).is_none_or(|b| *b < 1.0) {
                        tally.satflow_blocked += 1;
                        requeue(&mut links, li, front);
                        break;
                    }
                    let Some(next) = front.next_link() else {
                        // Unreachable (`on_last_leg` handled above), but a
                        // re-queue is strictly safer than a panic here.
                        requeue(&mut links, li, front);
                        break;
                    };
                    let ni = next.index();
                    let cap = inc_state.capacity.get(ni).copied().unwrap_or(0);
                    if !links.get(ni).is_some_and(|d| entrance_clear(d, cap)) {
                        tally.spillback_blocked += 1;
                        requeue(&mut links, li, front);
                        break; // spillback
                    }
                    if let Some(budget) = exit_budget.get_mut(li) {
                        *budget -= 1.0;
                    }
                    let mut veh = front;
                    veh.leg += 1;
                    veh.pos_m = 0.0;
                    if let Some(&v_cap) = inc_state.desired_mps.get(ni) {
                        veh.speed_mps = veh.speed_mps.min(v_cap);
                    }
                    if let Some(d) = links.get_mut(ni) {
                        d.push_back(veh);
                    }
                    observer.record_entry(next, interval);
                    tally.crossings += 1;
                    bump(&mut exits, li);
                    bump(&mut entries, ni);
                }
            }

            // --- invariant monitors ----------------------------------------
            // Per-link transfer bookkeeping: a link's population changes
            // exactly by its entries minus its exits.
            let mut in_network = 0u64;
            let ledgers = len_before
                .iter()
                .zip(entries.iter())
                .zip(exits.iter())
                .zip(links.iter());
            for (((&before, &entered), &exited), deque) in ledgers {
                let expected = before as u64 + entered - exited;
                if deque.len() as u64 != expected {
                    tally.link_conservation_violations += 1;
                }
                in_network += deque.len() as u64;
            }
            // Global conservation: every spawned vehicle is either still on
            // some link or has arrived.
            if stats.spawned != stats.arrived + in_network {
                tally.conservation_violations += 1;
            }
            step_hist.observe(in_network as f64);
        }

        stats.active_at_end = links.iter().map(|d| d.len() as u64).sum();
        stats.queued_at_end = pending.len() as u64;
        let (volume, speed, occupancy) = observer.finalize();

        // Finalized tensors must respect the physical ranges the paper's
        // observation model assumes: speeds in [0, v_max], volumes >= 0.
        let occ_hist = self
            .obs
            .histogram(crate::metrics::LINK_OCCUPANCY, obs::COUNT_BUCKETS);
        for (li, &v_max) in self.desired_mps.iter().enumerate() {
            for t in 0..t_obs {
                let v = speed.get(LinkId(li), t);
                if !(0.0..=v_max + 1e-9).contains(&v) {
                    tally.speed_clamp_violations += 1;
                }
                if volume.get(LinkId(li), t) < 0.0 {
                    tally.negative_volume_violations += 1;
                }
                occ_hist.observe(occupancy.get(LinkId(li), t));
            }
        }
        self.flush_metrics(&stats, &tally);
        drop(run_span); // records wall-clock to the timing gauge

        Ok(SimOutput {
            volume,
            speed,
            occupancy,
            stats,
            trips,
        })
    }

    /// Recomputes the effective link state for `tick` from the static
    /// vectors and the incidents active at `tick`. Called only at
    /// schedule boundaries; a pure function of `(schedule, tick)`, which
    /// is what keeps incident runs bit-identical across thread counts.
    fn refresh_incident_state(&self, tick: u64, st: &mut IncidentState) {
        st.desired_mps.copy_from_slice(&self.desired_mps);
        st.capacity.copy_from_slice(&self.capacity);
        st.sat_flow_per_tick
            .copy_from_slice(&self.sat_flow_per_tick);
        st.closed.fill(false);
        st.all_red.fill(false);
        st.stuck_at.fill(None);
        st.any_closed = false;
        for inc in self.incidents.incidents() {
            if !inc.active_at(tick) {
                continue;
            }
            // Severity 1.0 leaves a 5% floor so closures drain instead of
            // freezing traffic on the link forever.
            let factor = (1.0 - inc.severity).clamp(0.05, 1.0);
            let single;
            let targets: &[LinkId] = match inc.target {
                IncidentTarget::Link(l) => {
                    single = [l];
                    &single
                }
                IncidentTarget::Node(n) => self.net.in_links(n),
            };
            for &lid in targets {
                let li = lid.index();
                match inc.kind {
                    IncidentKind::Closure => {
                        if let Some(c) = st.closed.get_mut(li) {
                            *c = true;
                        }
                        st.any_closed = true;
                        // No entry at all; traffic already on the link
                        // crawls off at the severity-scaled speed.
                        if let Some(c) = st.capacity.get_mut(li) {
                            *c = 0;
                        }
                        if let Some(d) = st.desired_mps.get_mut(li) {
                            *d *= factor;
                        }
                    }
                    IncidentKind::CapacityDrop => {
                        if let Some(s) = st.sat_flow_per_tick.get_mut(li) {
                            *s *= factor;
                        }
                    }
                    IncidentKind::SignalOutage => {
                        if inc.severity >= 0.5 {
                            if let Some(r) = st.all_red.get_mut(li) {
                                *r = true;
                            }
                        } else if let Some(s) = st.stuck_at.get_mut(li) {
                            *s = Some(inc.onset_tick);
                        }
                    }
                }
            }
        }
    }

    /// Publishes one run's stats and event tallies to the registry.
    fn flush_metrics(&self, stats: &SimStats, tally: &RunTally) {
        use crate::metrics as m;
        let reg = &self.obs;
        reg.counter(m::RUNS).inc();
        reg.counter(m::TICKS).add(self.cfg.total_ticks());
        reg.counter(m::SPAWNED).add(stats.spawned);
        reg.counter(m::ARRIVED).add(stats.arrived);
        reg.counter(m::UNROUTABLE).add(stats.unroutable);
        reg.counter(m::ACTIVE_AT_END).add(stats.active_at_end);
        reg.counter(m::QUEUED_AT_END).add(stats.queued_at_end);
        reg.counter(m::TRANSFER_CROSSINGS).add(tally.crossings);
        reg.counter(m::SIGNAL_GREEN_TICKS).add(tally.green_checks);
        reg.counter(m::SIGNAL_RED_TICKS).add(tally.red_checks);
        reg.counter(m::SPILLBACK_BLOCKED_TICKS)
            .add(tally.spillback_blocked);
        reg.counter(m::SATFLOW_BLOCKED_TICKS)
            .add(tally.satflow_blocked);
        reg.counter(m::CONSERVATION_VIOLATIONS)
            .add(tally.conservation_violations);
        reg.counter(m::LINK_CONSERVATION_VIOLATIONS)
            .add(tally.link_conservation_violations);
        reg.counter(m::SPEED_CLAMP_VIOLATIONS)
            .add(tally.speed_clamp_violations);
        reg.counter(m::NEGATIVE_VOLUME_VIOLATIONS)
            .add(tally.negative_volume_violations);
        // Incident metrics only exist when a schedule is in force, so
        // incident-free pipelines keep their golden metric snapshots.
        if !self.incidents.is_empty() {
            let total = self.cfg.total_ticks();
            let incident_ticks: u64 = self
                .incidents
                .incidents()
                .iter()
                .map(|i| i.end_tick().min(total) - i.onset_tick.min(total))
                .sum();
            reg.counter(m::INCIDENT_TICKS).add(incident_ticks);
            reg.gauge(m::INCIDENTS_ACTIVE)
                .set(self.incidents.active_count(total.saturating_sub(1)) as f64);
        }
    }

    /// Resolves the route for a spawn request under the configured policy.
    /// Links closed by an active incident are masked out of every search;
    /// caches are only consulted within one closure regime (the run loop
    /// clears them at every schedule boundary).
    fn route_for(
        &mut self,
        req: SpawnRequest,
        interval: usize,
        observer: &Observer,
        dyn_routes: &mut RouteCache,
        closed: &[bool],
        any_closed: bool,
    ) -> Option<SharedRoute> {
        let masked = |l: LinkId| any_closed && closed.get(l.index()).copied().unwrap_or(false);
        let net = self.net;
        let free_flow = |l: &roadnet::Link| l.free_flow_time_s();
        match self.cfg.routing {
            RoutingPolicy::Shortest => self.static_routes.route(net, req.from, req.to, || {
                shortest_path_tree(net, req.from, &|l| l.length_m, &masked)
            }),
            RoutingPolicy::FreeFlowFastest => {
                self.static_routes.route(net, req.from, req.to, || {
                    shortest_path_tree(net, req.from, &free_flow, &masked)
                })
            }
            RoutingPolicy::TimeDependent => dyn_routes.route(net, req.from, req.to, || {
                if interval == 0 {
                    return shortest_path_tree(net, req.from, &free_flow, &masked);
                }
                let prev = (interval - 1).min(self.cfg.intervals.saturating_sub(1));
                let desired = &self.desired_mps;
                let cost = |l: &roadnet::Link| {
                    // The 0.5 m/s floor also covers the (unreachable)
                    // out-of-range link id, keeping the cost finite.
                    let v_max = desired
                        .get(l.id.index())
                        .copied()
                        .unwrap_or(MIN_ROUTING_SPEED_MPS);
                    observed_travel_time_s(l.length_m, observer.mean_speed(l.id, prev), v_max)
                };
                shortest_path_tree(net, req.from, &cost, &masked)
            }),
        }
    }
}

/// Slowest speed (m/s) the time-dependent policy routes with, so a link
/// observed as fully stopped keeps a finite travel time.
const MIN_ROUTING_SPEED_MPS: f64 = 0.5;

/// Travel time (s) of a `length_m` link under the time-dependent policy:
/// the observed mean speed, capped at the link's desired speed `v_max`
/// and floored at [`MIN_ROUTING_SPEED_MPS`]. A missing observation (not
/// finite, or not positive) falls back to `v_max`.
fn observed_travel_time_s(length_m: f64, observed_mps: f64, v_max: f64) -> f64 {
    let v = if observed_mps.is_finite() && observed_mps > 0.0 {
        observed_mps.min(v_max).max(MIN_ROUTING_SPEED_MPS)
    } else {
        v_max
    };
    length_m / v
}

/// Re-queues a vehicle at the head of `links[li]`; a no-op when `li` is
/// out of range (unreachable — transfer loops iterate `0..links.len()`).
fn requeue(links: &mut [VecDeque<Vehicle>], li: usize, veh: Vehicle) {
    if let Some(deque) = links.get_mut(li) {
        deque.push_front(veh);
    }
}

/// Checked `counts[i] += 1`; a no-op when `i` is out of range.
fn bump(counts: &mut [u64], i: usize) {
    if let Some(c) = counts.get_mut(i) {
        *c += 1;
    }
}

/// True when a new vehicle fits at the link's entrance: the link is under
/// capacity and the most recently entered vehicle has cleared the stop bar
/// by its own footprint.
fn entrance_clear(deque: &VecDeque<Vehicle>, capacity: usize) -> bool {
    if deque.len() >= capacity {
        return false;
    }
    match deque.back() {
        None => true,
        Some(last) => last.pos_m >= last.class.footprint_m(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::incident::ScheduledIncident;
    use roadnet::presets::synthetic_grid;

    fn setup() -> (RoadNetwork, OdSet) {
        let net = synthetic_grid();
        let ods = OdSet::all_pairs(&net);
        (net, ods)
    }

    fn quick_cfg(t: usize) -> SimConfig {
        SimConfig::default()
            .with_intervals(t)
            .with_interval_s(120.0)
    }

    #[test]
    fn shapes_match_network_and_config() {
        let (net, ods) = setup();
        let tod = TodTensor::filled(ods.len(), 3, 1.0);
        let out = Simulation::new(&net, &ods, quick_cfg(3))
            .unwrap()
            .run(&tod)
            .unwrap();
        assert_eq!(out.volume.rows(), net.num_links());
        assert_eq!(out.volume.num_intervals(), 3);
        assert_eq!(out.speed.rows(), net.num_links());
        assert!(out.volume.is_non_negative());
        assert!(out.speed.is_finite());
    }

    #[test]
    fn vehicles_are_conserved() {
        let (net, ods) = setup();
        let tod = TodTensor::filled(ods.len(), 2, 3.0);
        let out = Simulation::new(&net, &ods, quick_cfg(2))
            .unwrap()
            .run(&tod)
            .unwrap();
        assert!(out.stats.is_conserved(), "{:?}", out.stats);
        assert!(out.stats.spawned > 0);
        assert!(out.stats.arrived > 0, "light traffic should mostly clear");
    }

    #[test]
    fn zero_demand_reports_free_flow() {
        let (net, ods) = setup();
        let tod = TodTensor::zeros(ods.len(), 2);
        let out = Simulation::new(&net, &ods, quick_cfg(2))
            .unwrap()
            .run(&tod)
            .unwrap();
        assert_eq!(out.stats.spawned, 0);
        assert_eq!(out.volume.total(), 0.0);
        for l in net.links() {
            for t in 0..2 {
                assert!(
                    (out.speed.get(l.id, t) - l.speed_limit_mps).abs() < 1e-9,
                    "empty link reports its speed limit"
                );
            }
        }
    }

    #[test]
    fn determinism_same_seed() {
        let (net, ods) = setup();
        let tod = TodTensor::filled(ods.len(), 2, 4.0);
        let run = |seed: u64| {
            Simulation::new(&net, &ods, quick_cfg(2).with_seed(seed))
                .unwrap()
                .run(&tod)
                .unwrap()
        };
        let a = run(11);
        let b = run(11);
        assert_eq!(a.volume, b.volume);
        assert_eq!(a.speed, b.speed);
        assert_eq!(a.stats, b.stats);
    }

    #[test]
    fn heavier_demand_slows_network() {
        let (net, ods) = setup();
        let light = TodTensor::filled(ods.len(), 3, 0.5);
        let heavy = TodTensor::filled(ods.len(), 3, 30.0);
        let cfg = SimConfig::default()
            .with_intervals(3)
            .with_interval_s(300.0);
        let out_l = Simulation::new(&net, &ods, cfg.clone())
            .unwrap()
            .run(&light)
            .unwrap();
        let out_h = Simulation::new(&net, &ods, cfg)
            .unwrap()
            .run(&heavy)
            .unwrap();
        let mean = |t: &LinkTensor| t.total() / t.as_slice().len() as f64;
        assert!(
            mean(&out_h.speed) < mean(&out_l.speed),
            "heavy {} vs light {}",
            mean(&out_h.speed),
            mean(&out_l.speed)
        );
        assert!(out_h.volume.total() > out_l.volume.total());
    }

    #[test]
    fn road_work_slows_affected_link() {
        let (net, ods) = setup();
        let tod = TodTensor::filled(ods.len(), 2, 2.0);
        let cfg = quick_cfg(2);
        let target = LinkId(0);
        let regular = Simulation::new(&net, &ods, cfg.clone())
            .unwrap()
            .run(&tod)
            .unwrap();
        let scenario =
            Scenario::with_disruptions(vec![crate::scenario::LinkDisruption::road_work(target)]);
        let disrupted = Simulation::with_scenario(&net, &ods, cfg, scenario)
            .unwrap()
            .run(&tod)
            .unwrap();
        let mean_reg: f64 = regular.speed.row(target).iter().sum::<f64>() / 2.0;
        let mean_dis: f64 = disrupted.speed.row(target).iter().sum::<f64>() / 2.0;
        assert!(
            mean_dis < mean_reg,
            "disrupted link must be slower: {mean_dis} vs {mean_reg}"
        );
    }

    #[test]
    fn tod_shape_validated() {
        let (net, ods) = setup();
        let mut sim = Simulation::new(&net, &ods, quick_cfg(2)).unwrap();
        assert!(sim.run(&TodTensor::zeros(3, 2)).is_err());
        assert!(sim.run(&TodTensor::zeros(ods.len(), 5)).is_err());
    }

    #[test]
    fn time_dependent_routing_runs() {
        let (net, ods) = setup();
        let tod = TodTensor::filled(ods.len(), 2, 2.0);
        let out = Simulation::new(
            &net,
            &ods,
            SimConfig {
                routing: RoutingPolicy::TimeDependent,
                ..quick_cfg(2)
            },
        )
        .unwrap()
        .run(&tod)
        .unwrap();
        assert!(out.stats.spawned > 0);
        assert!(out.stats.is_conserved());
    }

    #[test]
    fn speeds_never_exceed_limits() {
        let (net, ods) = setup();
        let tod = TodTensor::filled(ods.len(), 2, 5.0);
        let out = Simulation::new(&net, &ods, quick_cfg(2))
            .unwrap()
            .run(&tod)
            .unwrap();
        for l in net.links() {
            for t in 0..2 {
                assert!(out.speed.get(l.id, t) <= l.speed_limit_mps + 1e-9);
                assert!(out.speed.get(l.id, t) >= 0.0);
            }
        }
    }

    #[test]
    fn reusing_simulation_is_consistent() {
        let (net, ods) = setup();
        let tod = TodTensor::filled(ods.len(), 2, 2.0);
        let mut sim = Simulation::new(&net, &ods, quick_cfg(2)).unwrap();
        let a = sim.run(&tod).unwrap();
        let b = sim.run(&tod).unwrap();
        assert_eq!(a.volume, b.volume, "route cache must not change results");
        assert_eq!(a.speed, b.speed);
    }

    #[test]
    fn closure_degrades_link_and_recovery_restores_it() {
        let (net, ods) = setup();
        let t = 3;
        let tod = TodTensor::filled(ods.len(), t, 2.0);
        let cfg = quick_cfg(t);
        let tpi = cfg.ticks_per_interval();
        let target = LinkId(0);
        let clean = Simulation::new(&net, &ods, cfg.clone())
            .unwrap()
            .run(&tod)
            .unwrap();
        // Closed for exactly interval 1; intervals 0 and 2 are clean.
        let schedule = IncidentSchedule::new(vec![ScheduledIncident {
            kind: IncidentKind::Closure,
            target: IncidentTarget::Link(target),
            onset_tick: tpi,
            duration_ticks: tpi,
            severity: 1.0,
        }]);
        let hit = Simulation::new(&net, &ods, cfg)
            .unwrap()
            .with_incidents(schedule)
            .unwrap()
            .run(&tod)
            .unwrap();
        // During the closure the link reports its crawl speed; before and
        // after it behaves like the clean run's regime.
        assert!(
            hit.speed.get(target, 1) < 0.3 * clean.speed.get(target, 1),
            "closed link must collapse: {} vs clean {}",
            hit.speed.get(target, 1),
            clean.speed.get(target, 1)
        );
        assert!(
            hit.speed.get(target, 2) > 0.5 * clean.speed.get(target, 2),
            "cleared link must recover: {} vs clean {}",
            hit.speed.get(target, 2),
            clean.speed.get(target, 2)
        );
        // No vehicle may be stranded: closures drain, they don't trap.
        assert!(hit.stats.is_conserved(), "{:?}", hit.stats);
        // The grid is redundant, so closing one link reroutes rather than
        // dropping demand.
        assert_eq!(hit.stats.unroutable, 0);
        // Nothing entered the closed link while it was closed.
        assert_eq!(hit.volume.get(target, 1), 0.0);
    }

    #[test]
    fn incident_runs_are_deterministic_and_replayable() {
        let (net, ods) = setup();
        let tod = TodTensor::filled(ods.len(), 2, 3.0);
        let cfg = quick_cfg(2).with_seed(9);
        let tpi = cfg.ticks_per_interval();
        let schedule = || {
            IncidentSchedule::new(vec![
                ScheduledIncident {
                    kind: IncidentKind::Closure,
                    target: IncidentTarget::Link(LinkId(2)),
                    onset_tick: tpi / 2,
                    duration_ticks: tpi,
                    severity: 0.9,
                },
                ScheduledIncident {
                    kind: IncidentKind::SignalOutage,
                    target: IncidentTarget::Node(NodeId(4)),
                    onset_tick: 0,
                    duration_ticks: tpi / 2,
                    severity: 0.8,
                },
            ])
        };
        let run = || {
            Simulation::new(&net, &ods, cfg.clone())
                .unwrap()
                .with_incidents(schedule())
                .unwrap()
                .run(&tod)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.volume, b.volume);
        assert_eq!(a.speed, b.speed);
        assert_eq!(a.stats, b.stats);
        // And the perturbation is real: it differs from the clean run.
        let clean = Simulation::new(&net, &ods, cfg.clone())
            .unwrap()
            .run(&tod)
            .unwrap();
        assert_ne!(a.speed, clean.speed);
    }

    fn counter_value(reg: &obs::Registry, name: &str) -> u64 {
        reg.snapshot(false)
            .iter()
            .find(|m| m.name == name)
            .map(|m| match m.value {
                obs::SnapshotValue::Counter(v) => v,
                _ => 0,
            })
            .unwrap_or(0)
    }

    #[test]
    fn capacity_drop_slows_discharge() {
        let (net, ods) = setup();
        let t = 2;
        let tod = TodTensor::filled(ods.len(), t, 6.0);
        let cfg = SimConfig::default()
            .with_intervals(t)
            .with_interval_s(300.0);
        let clean_reg = obs::Registry::new();
        Simulation::new(&net, &ods, cfg.clone())
            .unwrap()
            .with_registry(clean_reg.clone())
            .run(&tod)
            .unwrap();
        // 90% of the saturation flow gone network-wide for the entire run
        // (cooldown included, so queues cannot quietly drain at the end).
        let schedule = IncidentSchedule::new(
            (0..net.num_links())
                .map(|l| ScheduledIncident {
                    kind: IncidentKind::CapacityDrop,
                    target: IncidentTarget::Link(LinkId(l)),
                    onset_tick: 0,
                    duration_ticks: cfg.total_ticks(),
                    severity: 0.9,
                })
                .collect(),
        );
        let hit_reg = obs::Registry::new();
        let hit = Simulation::new(&net, &ods, cfg)
            .unwrap()
            .with_registry(hit_reg.clone())
            .with_incidents(schedule)
            .unwrap()
            .run(&tod)
            .unwrap();
        let clean_blocked = counter_value(&clean_reg, crate::metrics::SATFLOW_BLOCKED_TICKS);
        let hit_blocked = counter_value(&hit_reg, crate::metrics::SATFLOW_BLOCKED_TICKS);
        assert!(
            hit_blocked > clean_blocked,
            "throttled saturation flow must block more transfers: {hit_blocked} vs {clean_blocked}"
        );
        assert!(hit.stats.is_conserved());
    }

    #[test]
    fn signal_outage_all_red_blocks_approaches() {
        let (net, ods) = setup();
        let t = 2;
        let tod = TodTensor::filled(ods.len(), t, 2.0);
        let cfg = quick_cfg(t);
        // All-red every approach of every node for the whole run: nothing
        // can ever cross an intersection.
        let outages: Vec<ScheduledIncident> = (0..net.num_nodes())
            .map(|n| ScheduledIncident {
                kind: IncidentKind::SignalOutage,
                target: IncidentTarget::Node(NodeId(n)),
                onset_tick: 0,
                duration_ticks: cfg.total_ticks() * 2,
                severity: 1.0,
            })
            .collect();
        let reg = obs::Registry::new();
        let hit = Simulation::new(&net, &ods, cfg)
            .unwrap()
            .with_registry(reg.clone())
            .with_incidents(IncidentSchedule::new(outages))
            .unwrap()
            .run(&tod)
            .unwrap();
        // Single-link trips still arrive (arrival consumes no intersection
        // capacity), but not one vehicle crossed a stop line.
        assert!(hit.stats.is_conserved());
        assert_eq!(
            counter_value(&reg, crate::metrics::TRANSFER_CROSSINGS),
            0,
            "all-red outage must freeze every crossing"
        );
        assert!(counter_value(&reg, crate::metrics::SIGNAL_RED_TICKS) > 0);
    }

    #[test]
    fn incident_schedule_is_validated() {
        let (net, ods) = setup();
        let bad = IncidentSchedule::new(vec![ScheduledIncident {
            kind: IncidentKind::Closure,
            target: IncidentTarget::Link(LinkId(9999)),
            onset_tick: 0,
            duration_ticks: 10,
            severity: 1.0,
        }]);
        assert!(Simulation::new(&net, &ods, quick_cfg(2))
            .unwrap()
            .with_incidents(bad)
            .is_err());
    }

    #[test]
    fn incident_metrics_only_appear_with_a_schedule() {
        let (net, ods) = setup();
        let tod = TodTensor::filled(ods.len(), 2, 1.0);
        let cfg = quick_cfg(2);
        let tpi = cfg.ticks_per_interval();
        let clean_reg = obs::Registry::new();
        Simulation::new(&net, &ods, cfg.clone())
            .unwrap()
            .with_registry(clean_reg.clone())
            .run(&tod)
            .unwrap();
        let json = clean_reg.to_json(false);
        assert!(!json.contains(crate::metrics::INCIDENT_TICKS));
        let reg = obs::Registry::new();
        let schedule = IncidentSchedule::new(vec![ScheduledIncident {
            kind: IncidentKind::CapacityDrop,
            target: IncidentTarget::Link(LinkId(1)),
            onset_tick: 0,
            duration_ticks: tpi,
            severity: 0.5,
        }]);
        Simulation::new(&net, &ods, cfg)
            .unwrap()
            .with_registry(reg.clone())
            .with_incidents(schedule)
            .unwrap()
            .run(&tod)
            .unwrap();
        let snap = reg.snapshot(false);
        let ticks = snap
            .iter()
            .find(|m| m.name == crate::metrics::INCIDENT_TICKS)
            .expect("incident tick counter published");
        assert_eq!(ticks.value, obs::SnapshotValue::Counter(tpi));
    }

    #[test]
    fn stats_travel_time_sane() {
        let (net, ods) = setup();
        let tod = TodTensor::filled(ods.len(), 2, 1.0);
        let out = Simulation::new(&net, &ods, quick_cfg(2))
            .unwrap()
            .run(&tod)
            .unwrap();
        if out.stats.arrived > 0 {
            let mtt = out.stats.mean_travel_time_s();
            assert!(mtt > 0.0 && mtt < 3600.0, "mean travel time {mtt}");
        }
    }

    #[test]
    fn missing_observation_routes_at_the_desired_speed() {
        for missing in [0.0, -3.0, f64::NAN, f64::INFINITY] {
            assert_eq!(
                observed_travel_time_s(300.0, missing, 15.0),
                20.0,
                "{missing}"
            );
        }
    }

    #[test]
    fn observed_speed_cannot_exceed_the_desired_speed() {
        assert_eq!(observed_travel_time_s(300.0, 100.0, 15.0), 20.0);
        assert_eq!(observed_travel_time_s(300.0, 10.0, 15.0), 30.0);
    }

    #[test]
    fn stopped_link_keeps_a_finite_travel_time() {
        let t = observed_travel_time_s(300.0, 1e-12, 15.0);
        assert_eq!(t, 300.0 / MIN_ROUTING_SPEED_MPS);
    }

    #[test]
    fn congestion_redirects_the_time_dependent_route() {
        use roadnet::network::NetworkBuilder;
        use roadnet::Point;
        // Diamond a -> {b, c} -> d with equal arms.
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let north = b.add_node(Point::new(100.0, 100.0));
        let south = b.add_node(Point::new(100.0, -100.0));
        let d = b.add_node(Point::new(200.0, 0.0));
        for (x, y) in [(a, north), (north, d), (a, south), (south, d)] {
            b.add_road(x, y, 1, 15.0).unwrap();
        }
        let net = b.build().unwrap();
        let (north_arm, south_arm) = (net.out_links(a)[0], net.out_links(a)[1]);
        let route_with_jam = |jammed: LinkId| {
            let cost = |l: &roadnet::Link| {
                let observed = if l.id == jammed { 1.0 } else { 15.0 };
                observed_travel_time_s(l.length_m, observed, l.speed_limit_mps)
            };
            shortest_path_tree(&net, a, &cost, &|_| false)
                .unwrap()
                .route_to(&net, d)
                .unwrap()
        };
        let r = route_with_jam(north_arm);
        assert!(r.links.contains(&south_arm) && !r.links.contains(&north_arm));
        let r = route_with_jam(south_arm);
        assert!(r.links.contains(&north_arm) && !r.links.contains(&south_arm));
    }
}

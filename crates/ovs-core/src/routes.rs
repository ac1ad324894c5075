//! The route table: the static routing structure the TOD-Volume mapping
//! is built on.
//!
//! Following the paper's simplification (§IV-C: "people will choose the
//! shortest or fastest route ... one OD will only correspond to one
//! route"), each OD pair is assigned its free-flow fastest route between
//! region anchor nodes. For every link we precompute the set of routes
//! passing through it — the paper's "OD i contains link l_j" relation —
//! together with the *free-flow delay offset*: how many whole intervals a
//! vehicle needs at free flow to reach the link from its origin. The
//! dynamic attention then learns congestion-dependent deviations around
//! these physical offsets.

use roadnet::routing::{fastest_path, k_shortest_paths};
use roadnet::{LinkId, OdPairId, OdSet, Result, RoadNetwork};

/// One incidence: route `od` crosses the link, entering it roughly
/// `delay_intervals` after departure under free flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Incidence {
    /// The OD pair the route belongs to.
    pub od: OdPairId,
    /// Which of the OD's routes this is (0 under the one-route
    /// simplification; up to `k-1` in multi-route mode).
    pub route_idx: usize,
    /// Free-flow arrival offset in whole intervals.
    pub delay_intervals: usize,
}

/// Static routing structure shared by the model.
#[derive(Debug, Clone)]
pub struct RouteTable {
    /// Routes (link sequences) per OD pair; inner vector has one entry
    /// under the one-route simplification, up to `k` in multi-route mode.
    routes: Vec<Vec<Vec<LinkId>>>,
    /// Routes crossing each link, indexed by `LinkId`.
    incident: Vec<Vec<Incidence>>,
    n_links: usize,
}

impl RouteTable {
    /// Builds the table for `(net, ods)` with `interval_s`-second
    /// intervals under the paper's one-route simplification (§IV-C).
    pub fn build(net: &RoadNetwork, ods: &OdSet, interval_s: f64) -> Result<Self> {
        Self::build_with_k(net, ods, interval_s, 1)
    }

    /// Multi-route variant (the paper's future-work direction): up to `k`
    /// loopless fastest routes per OD (Yen's algorithm), each indexed by
    /// `route_idx` so the OD-Route layer can learn a split over them.
    pub fn build_with_k(net: &RoadNetwork, ods: &OdSet, interval_s: f64, k: usize) -> Result<Self> {
        ods.validate(net)?;
        let k = k.max(1);
        let m = net.num_links();
        let mut routes = Vec::with_capacity(ods.len());
        let mut incident: Vec<Vec<Incidence>> = vec![Vec::new(); m];
        for (id, pair) in ods.iter() {
            let from = net.region_anchor(pair.origin)?;
            let to = net.region_anchor(pair.destination)?;
            let od_routes: Vec<Vec<LinkId>> = if from == to {
                Vec::new()
            } else if k == 1 {
                vec![fastest_path(net, from, to)?.links]
            } else {
                k_shortest_paths(net, from, to, k, &|l| l.free_flow_time_s())?
                    .into_iter()
                    .map(|r| r.links)
                    .collect()
            };
            for (route_idx, route) in od_routes.iter().enumerate() {
                let mut elapsed_s = 0.0;
                for &lid in route {
                    let delay = (elapsed_s / interval_s).floor() as usize;
                    incident[lid.index()].push(Incidence {
                        od: id,
                        route_idx,
                        delay_intervals: delay,
                    });
                    elapsed_s += net.links()[lid.index()].free_flow_time_s();
                }
            }
            routes.push(od_routes);
        }
        Ok(Self {
            routes,
            incident,
            n_links: m,
        })
    }

    /// Number of OD pairs / routes.
    pub fn n_routes(&self) -> usize {
        self.routes.len()
    }

    /// Number of links.
    pub fn n_links(&self) -> usize {
        self.n_links
    }

    /// The primary (fastest) route of `od`; empty when the OD's region
    /// anchors coincide.
    pub fn route(&self, od: OdPairId) -> &[LinkId] {
        self.routes[od.index()]
            .first()
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Routes crossing `link`, with free-flow offsets.
    pub fn incident(&self, link: LinkId) -> &[Incidence] {
        &self.incident[link.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::presets::synthetic_grid;

    fn table() -> (RoadNetwork, OdSet, RouteTable) {
        let net = synthetic_grid();
        let ods = OdSet::all_pairs(&net);
        let table = RouteTable::build(&net, &ods, 600.0).unwrap();
        (net, ods, table)
    }

    #[test]
    fn every_od_gets_a_route() {
        let (_, ods, table) = table();
        assert_eq!(table.n_routes(), ods.len());
        for (id, _) in ods.iter() {
            assert!(!table.route(id).is_empty(), "route for {id}");
        }
    }

    #[test]
    fn incidence_is_consistent_with_routes() {
        let (net, ods, table) = table();
        // forward: every route link lists the route as incident
        for (id, _) in ods.iter() {
            for &lid in table.route(id) {
                assert!(
                    table.incident(lid).iter().any(|inc| inc.od == id),
                    "link {lid} must list route {id}"
                );
            }
        }
        // backward: every incidence points to a route containing the link
        for l in net.links() {
            for inc in table.incident(l.id) {
                assert!(table.route(inc.od).contains(&l.id));
            }
        }
    }

    #[test]
    fn delays_monotone_along_route() {
        let (_, ods, table) = table();
        for (id, _) in ods.iter() {
            let mut last = 0usize;
            for &lid in table.route(id) {
                let inc = table.incident(lid).iter().find(|inc| inc.od == id).unwrap();
                assert!(inc.delay_intervals >= last);
                last = inc.delay_intervals;
            }
        }
    }

    #[test]
    fn first_link_has_zero_delay() {
        let (_, ods, table) = table();
        for (id, _) in ods.iter() {
            let first = table.route(id)[0];
            let inc = table
                .incident(first)
                .iter()
                .find(|inc| inc.od == id)
                .unwrap();
            assert_eq!(inc.delay_intervals, 0);
        }
    }

    #[test]
    fn short_intervals_produce_positive_delays() {
        let net = synthetic_grid();
        let ods = OdSet::all_pairs(&net);
        // 10-second intervals: crossing one 300 m link takes ~27 s, so
        // later links must have delay >= 2.
        let table = RouteTable::build(&net, &ods, 10.0).unwrap();
        let has_delay = ods.iter().any(|(id, _)| {
            table.route(id).iter().any(|&lid| {
                table
                    .incident(lid)
                    .iter()
                    .any(|inc| inc.od == id && inc.delay_intervals > 0)
            })
        });
        assert!(has_delay);
    }
}

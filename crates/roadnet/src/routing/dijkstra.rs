//! Dijkstra shortest-path search with pluggable link costs.

use super::path::Route;
use crate::error::{Result, RoadnetError};
use crate::ids::{LinkId, NodeId};
use crate::network::{Link, RoadNetwork};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A per-link cost function. Costs must be positive and finite; a
/// non-finite cost marks the link as unusable (e.g. fully blocked by road
/// work).
pub type CostFn<'a> = &'a dyn Fn(&Link) -> f64;

/// Min-heap entry ordered by cost.
#[derive(PartialEq)]
struct HeapEntry {
    cost: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse order for a min-heap; costs are finite by construction.
        other
            .cost
            .partial_cmp(&self.cost)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.index().cmp(&self.node.index()))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A shortest-path tree out of one source node: each reached node's cost
/// and the link the search last reached it through.
///
/// [`shortest_path_tree`] grows it over the whole network, so one tree
/// answers a route to every destination; [`dijkstra_with_bans`] grows the
/// same tree only until its target settles. With non-negative costs a
/// settled node's cost and predecessor never change afterwards, so a route
/// read off the full tree is the early-exit route, link for link and bit
/// for bit.
#[derive(Debug, Clone)]
pub struct ShortestPathTree {
    from: NodeId,
    dist: Vec<f64>,
    prev_link: Vec<Option<LinkId>>,
}

impl ShortestPathTree {
    /// The route from the source to `to`: [`RoadnetError::NoPath`] when
    /// `to` is unreachable, the empty route when `to` is the source.
    pub fn route_to(&self, net: &RoadNetwork, to: NodeId) -> Result<Route> {
        net.node(to)?;
        let from = self.from;
        if from != to && self.prev_link.get(to.index()).copied().flatten().is_none() {
            return Err(RoadnetError::NoPath { from, to });
        }

        // Reconstruct the link sequence by walking predecessors. The chain
        // is complete whenever the reachability check above passed; a hole
        // here is a bug, surfaced as an error instead of a panic.
        let mut links = Vec::new();
        let mut cur = to;
        while cur != from {
            let Some(lid) = self.prev_link.get(cur.index()).copied().flatten() else {
                return Err(RoadnetError::Internal(format!(
                    "predecessor chain broken at {cur} while reconstructing {from}->{to}"
                )));
            };
            links.push(lid);
            let Some(link) = net.links().get(lid.index()) else {
                return Err(RoadnetError::Internal(format!(
                    "unknown link {lid} on the predecessor chain of {from}->{to}"
                )));
            };
            cur = link.from;
        }
        links.reverse();
        Ok(Route {
            links,
            cost: self.dist.get(to.index()).copied().unwrap_or(f64::INFINITY),
        })
    }
}

/// Grows the shortest-path tree out of `from`: nodes settle in (cost, then
/// node index) order until `target` settles, or until every reachable node
/// has when there is no target. Links for which `link_banned` is true are
/// skipped, and so are links into nodes for which `node_banned` is true,
/// unless that node is the target.
fn grow(
    net: &RoadNetwork,
    from: NodeId,
    target: Option<NodeId>,
    cost: CostFn<'_>,
    link_banned: &dyn Fn(LinkId) -> bool,
    node_banned: &dyn Fn(NodeId) -> bool,
) -> ShortestPathTree {
    let n = net.num_nodes();
    let mut dist = vec![f64::INFINITY; n];
    let mut prev_link: Vec<Option<LinkId>> = vec![None; n];
    let mut done = vec![false; n];

    if let Some(d) = dist.get_mut(from.index()) {
        *d = 0.0;
    }
    let mut heap = BinaryHeap::new();
    heap.push(HeapEntry {
        cost: 0.0,
        node: from,
    });

    // Node and link ids come out of the validated network, so every index
    // below is in range; checked access keeps that a local fact instead of
    // a cross-module invariant, and an out-of-range id degrades into
    // "unreachable" rather than a panic.
    while let Some(HeapEntry { cost: d, node }) = heap.pop() {
        if done.get(node.index()).copied().unwrap_or(true) {
            continue;
        }
        if let Some(flag) = done.get_mut(node.index()) {
            *flag = true;
        }
        if Some(node) == target {
            break;
        }
        for &lid in net.out_links(node) {
            if link_banned(lid) {
                continue;
            }
            let Some(link) = net.links().get(lid.index()) else {
                continue;
            };
            if node_banned(link.to) && Some(link.to) != target {
                continue;
            }
            let c = cost(link);
            if !c.is_finite() || c < 0.0 {
                continue;
            }
            let nd = d + c;
            if nd
                < dist
                    .get(link.to.index())
                    .copied()
                    .unwrap_or(f64::NEG_INFINITY)
            {
                if let Some(slot) = dist.get_mut(link.to.index()) {
                    *slot = nd;
                }
                if let Some(slot) = prev_link.get_mut(link.to.index()) {
                    *slot = Some(lid);
                }
                heap.push(HeapEntry {
                    cost: nd,
                    node: link.to,
                });
            }
        }
    }
    ShortestPathTree {
        from,
        dist,
        prev_link,
    }
}

/// The shortest-path tree out of `from` over the whole network under an
/// arbitrary positive link-cost function, avoiding every link for which
/// `masked` returns true. One tree serves every destination.
pub fn shortest_path_tree(
    net: &RoadNetwork,
    from: NodeId,
    cost: CostFn<'_>,
    masked: &dyn Fn(LinkId) -> bool,
) -> Result<ShortestPathTree> {
    net.node(from)?;
    Ok(grow(net, from, None, cost, masked, &|_| false))
}

/// Runs Dijkstra from `from` to `to` under an arbitrary positive link-cost
/// function. Returns [`RoadnetError::NoPath`] when `to` is unreachable.
///
/// The `banned` predicates support Yen's algorithm: links or nodes for
/// which they return true are skipped.
pub fn dijkstra_with_bans(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
    cost: CostFn<'_>,
    link_banned: &dyn Fn(LinkId) -> bool,
    node_banned: &dyn Fn(NodeId) -> bool,
) -> Result<Route> {
    net.node(from)?;
    net.node(to)?;
    grow(net, from, Some(to), cost, link_banned, node_banned).route_to(net, to)
}

/// Dijkstra under an arbitrary positive link-cost function.
pub fn dijkstra(net: &RoadNetwork, from: NodeId, to: NodeId, cost: CostFn<'_>) -> Result<Route> {
    dijkstra_with_bans(net, from, to, cost, &|_| false, &|_| false)
}

/// Fastest path by free-flow travel time (seconds).
pub fn fastest_path(net: &RoadNetwork, from: NodeId, to: NodeId) -> Result<Route> {
    dijkstra(net, from, to, &|l| l.free_flow_time_s())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use crate::Point;

    /// Triangle where the direct edge is longer than the detour but faster.
    ///   a --(1000 m, 30 m/s)--> c
    ///   a --(300 m, 5 m/s)--> b --(300 m, 5 m/s)--> c
    fn triangle() -> (RoadNetwork, NodeId, NodeId, NodeId) {
        let mut b = NetworkBuilder::new();
        let na = b.add_node(Point::new(0.0, 0.0));
        let nb = b.add_node(Point::new(300.0, 0.0));
        let nc = b.add_node(Point::new(300.0, 300.0));
        // direct long edge a->c: we cheat geometry by placing c so that
        // a->c is ~424 m; use per-link speeds to control fastest path.
        b.add_road(na, nc, 1, 30.0).unwrap();
        b.add_road(na, nb, 1, 5.0).unwrap();
        b.add_road(nb, nc, 1, 5.0).unwrap();
        (b.build().unwrap(), na, nb, nc)
    }

    #[test]
    fn shortest_prefers_direct_edge() {
        let (net, a, _b, c) = triangle();
        let r = dijkstra(&net, a, c, &|l| l.length_m).unwrap();
        assert_eq!(r.links.len(), 1);
        assert!(r.is_connected(&net));
        assert!(r.is_simple(&net));
        let length_m: f64 = r
            .links
            .iter()
            .map(|l| net.links()[l.index()].length_m)
            .sum();
        assert!((r.cost - length_m).abs() < 1e-9);
    }

    #[test]
    fn fastest_respects_speed_limits() {
        let (net, a, _b, c) = triangle();
        let r = fastest_path(&net, a, c).unwrap();
        // direct: ~424 m / 30 = ~14 s; detour: 600 m / 5 = 120 s
        assert_eq!(r.links.len(), 1);
        assert!(r.cost < 20.0);
    }

    #[test]
    fn trivial_path_to_self_is_empty() {
        let (net, a, ..) = triangle();
        let r = dijkstra(&net, a, a, &|l| l.length_m).unwrap();
        assert!(r.links.is_empty());
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn unreachable_is_no_path_error() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        b.add_link(c, a, 1, 10.0).unwrap(); // only c->a
        let net = b.build().unwrap();
        assert!(matches!(
            dijkstra(&net, a, c, &|l| l.length_m),
            Err(RoadnetError::NoPath { .. })
        ));
    }

    #[test]
    fn banned_link_forces_detour() {
        let (net, a, _b, c) = triangle();
        let direct = dijkstra(&net, a, c, &|l| l.length_m).unwrap().links[0];
        let r = dijkstra_with_bans(&net, a, c, &|l| l.length_m, &|lid| lid == direct, &|_| {
            false
        })
        .unwrap();
        assert_eq!(r.links.len(), 2);
        assert!(!r.links.contains(&direct));
    }

    #[test]
    fn masked_routes_detour_and_restore() {
        let (net, a, _b, c) = triangle();
        let direct = dijkstra(&net, a, c, &|l| l.length_m).unwrap().links[0];
        let route = |cost: &dyn Fn(&Link) -> f64, masked: &dyn Fn(LinkId) -> bool| {
            shortest_path_tree(&net, a, cost, masked)
                .unwrap()
                .route_to(&net, c)
                .unwrap()
        };
        let length = |l: &Link| l.length_m;
        let free_flow = |l: &Link| l.free_flow_time_s();
        // Mask in force: the closed direct edge is avoided under either cost.
        let r = route(&length, &|l| l == direct);
        assert_eq!(r.links.len(), 2);
        assert!(!r.links.contains(&direct));
        assert!(!route(&free_flow, &|l| l == direct).links.contains(&direct));
        // Mask cleared: routing restores the original choice.
        assert_eq!(route(&length, &|_| false).links, vec![direct]);
    }

    #[test]
    fn mask_disconnecting_the_pair_is_no_path() {
        let (net, a, _b, c) = triangle();
        let tree = shortest_path_tree(&net, a, &|l| l.length_m, &|_| true).unwrap();
        assert!(matches!(
            tree.route_to(&net, c),
            Err(RoadnetError::NoPath { .. })
        ));
        // The source itself stays reachable, by the empty route.
        assert!(tree.route_to(&net, a).unwrap().links.is_empty());
    }

    #[test]
    fn tree_rejects_unknown_nodes() {
        let (net, a, ..) = triangle();
        assert!(shortest_path_tree(&net, NodeId(99), &|l| l.length_m, &|_| false).is_err());
        let tree = shortest_path_tree(&net, a, &|l| l.length_m, &|_| false).unwrap();
        assert!(tree.route_to(&net, NodeId(99)).is_err());
    }

    #[test]
    fn non_finite_cost_blocks_link() {
        let (net, a, _b, c) = triangle();
        // Block the direct edge by pricing it at infinity.
        let direct = dijkstra(&net, a, c, &|l| l.length_m).unwrap().links[0];
        let r = dijkstra(&net, a, c, &|l| {
            if l.id == direct {
                f64::INFINITY
            } else {
                l.length_m
            }
        })
        .unwrap();
        assert_eq!(r.links.len(), 2);
    }

    #[test]
    fn unknown_endpoints_are_errors() {
        let (net, a, ..) = triangle();
        assert!(dijkstra(&net, a, NodeId(99), &|l| l.length_m).is_err());
        assert!(dijkstra(&net, NodeId(99), a, &|l| l.length_m).is_err());
    }

    #[test]
    fn dijkstra_cost_is_optimal_on_grid() {
        // 4x4 grid, uniform speeds: shortest a->p must equal Manhattan
        // distance in metres.
        let mut b = NetworkBuilder::new();
        let mut ids = Vec::new();
        for y in 0..4 {
            for x in 0..4 {
                ids.push(b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0)));
            }
        }
        for y in 0..4 {
            for x in 0..4 {
                let i = y * 4 + x;
                if x + 1 < 4 {
                    b.add_road(ids[i], ids[i + 1], 1, 10.0).unwrap();
                }
                if y + 1 < 4 {
                    b.add_road(ids[i], ids[i + 4], 1, 10.0).unwrap();
                }
            }
        }
        let net = b.build().unwrap();
        let r = dijkstra(&net, ids[0], ids[15], &|l| l.length_m).unwrap();
        assert!((r.cost - 600.0).abs() < 1e-9);
        assert_eq!(r.links.len(), 6);
    }
}

//! Yen's k-shortest loopless paths.
//!
//! Supports the multi-route form of the paper's TOD-Volume mapping (Eq. 3):
//! an OD pair may correspond to several plausible routes, and the OD-Route
//! layer distributes trip counts over them.

use super::dijkstra::{dijkstra_with_bans, CostFn};
use super::path::Route;
use crate::error::{Result, RoadnetError};
use crate::ids::{LinkId, NodeId};
use crate::network::RoadNetwork;
use std::collections::BTreeSet;

/// Returns up to `k` loopless paths from `from` to `to` in non-decreasing
/// cost order. Returns an error only when *no* path exists at all; fewer
/// than `k` paths is not an error.
pub fn k_shortest_paths(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
    k: usize,
    cost: CostFn<'_>,
) -> Result<Vec<Route>> {
    k_shortest_paths_masked(net, from, to, k, cost, &|_| false)
}

/// [`k_shortest_paths`] under a link mask: every route avoids links for
/// which `masked` returns true. This is how route sets re-derive when an
/// incident closes links — the mask changes, the same machinery reruns.
pub fn k_shortest_paths_masked(
    net: &RoadNetwork,
    from: NodeId,
    to: NodeId,
    k: usize,
    cost: CostFn<'_>,
    masked: &dyn Fn(LinkId) -> bool,
) -> Result<Vec<Route>> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let first = dijkstra_with_bans(net, from, to, cost, masked, &|_| false)?;
    let mut accepted: Vec<Route> = vec![first];
    let mut candidates: Vec<Route> = Vec::new();

    while accepted.len() < k {
        // `accepted` starts with one route and only grows; popping the
        // guard rather than `expect`ing keeps this loop panic-free.
        let Some(last) = accepted.last().cloned() else {
            break;
        };
        let last_nodes = last.nodes(net);

        // Deviate at every spur node of the previous accepted path.
        for spur_idx in 0..last.links.len() {
            let spur_node = if spur_idx == 0 {
                from
            } else {
                match last_nodes.get(spur_idx) {
                    Some(&n) => n,
                    None => continue,
                }
            };
            let Some(root_links) = last.links.get(..spur_idx) else {
                continue;
            };

            // Ban links that would recreate an already-accepted path with
            // the same root.
            let mut banned_links = BTreeSet::new();
            for p in &accepted {
                if p.links.get(..spur_idx) == Some(root_links) {
                    if let Some(&spur_link) = p.links.get(spur_idx) {
                        banned_links.insert(spur_link);
                    }
                }
            }
            // Ban root nodes (except the spur node) to keep paths loopless.
            let banned_nodes: BTreeSet<NodeId> = match last_nodes.get(..spur_idx) {
                Some(prefix) => prefix.iter().copied().collect(),
                None => continue,
            };

            let spur = match dijkstra_with_bans(
                net,
                spur_node,
                to,
                cost,
                &|l| masked(l) || banned_links.contains(&l),
                &|n| banned_nodes.contains(&n),
            ) {
                Ok(p) => p,
                Err(RoadnetError::NoPath { .. }) => continue,
                Err(e) => return Err(e),
            };

            let mut links = root_links.to_vec();
            links.extend_from_slice(&spur.links);
            let total_cost: f64 = links
                .iter()
                .filter_map(|&l| net.links().get(l.index()))
                .map(cost)
                .sum();
            let candidate = Route {
                links,
                cost: total_cost,
            };
            if !candidate.is_simple(net) {
                continue;
            }
            if !accepted.iter().any(|p| p.links == candidate.links)
                && !candidates.iter().any(|p| p.links == candidate.links)
            {
                candidates.push(candidate);
            }
        }

        if candidates.is_empty() {
            break;
        }
        // Pop the cheapest candidate. A plain scan avoids both the
        // `partial_cmp` NaN footgun and a non-emptiness `expect`.
        let mut best = 0usize;
        let mut best_cost = f64::INFINITY;
        for (i, c) in candidates.iter().enumerate() {
            if c.cost < best_cost {
                best_cost = c.cost;
                best = i;
            }
        }
        accepted.push(candidates.swap_remove(best));
    }

    Ok(accepted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use crate::routing::dijkstra;
    use crate::Point;

    /// 3x3 grid with uniform attributes; many equal-length alternatives.
    fn grid3() -> (RoadNetwork, NodeId, NodeId) {
        let mut b = NetworkBuilder::new();
        let mut ids = Vec::new();
        for y in 0..3 {
            for x in 0..3 {
                ids.push(b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0)));
            }
        }
        for y in 0..3usize {
            for x in 0..3usize {
                let i = y * 3 + x;
                if x + 1 < 3 {
                    b.add_road(ids[i], ids[i + 1], 1, 10.0).unwrap();
                }
                if y + 1 < 3 {
                    b.add_road(ids[i], ids[i + 3], 1, 10.0).unwrap();
                }
            }
        }
        (b.build().unwrap(), ids[0], ids[8])
    }

    #[test]
    fn k1_matches_dijkstra() {
        let (net, a, z) = grid3();
        let ks = k_shortest_paths(&net, a, z, 1, &|l| l.length_m).unwrap();
        let d = dijkstra(&net, a, z, &|l| l.length_m).unwrap();
        assert_eq!(ks.len(), 1);
        assert!((ks[0].cost - d.cost).abs() < 1e-9);
    }

    #[test]
    fn paths_are_sorted_unique_simple_connected() {
        let (net, a, z) = grid3();
        let ks = k_shortest_paths(&net, a, z, 6, &|l| l.length_m).unwrap();
        assert_eq!(ks.len(), 6, "3x3 grid has 6 monotone corner paths");
        for w in ks.windows(2) {
            assert!(w[0].cost <= w[1].cost + 1e-9);
            assert_ne!(w[0].links, w[1].links);
        }
        for p in &ks {
            assert!(p.is_connected(&net));
            assert!(p.is_simple(&net));
            // all corner-to-corner monotone paths are 400 m
            assert!((p.cost - 400.0).abs() < 1e-9);
        }
    }

    #[test]
    fn k_larger_than_path_count_returns_all() {
        // Two nodes, one road: exactly one simple path.
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        b.add_road(a, c, 1, 10.0).unwrap();
        let net = b.build().unwrap();
        let ks = k_shortest_paths(&net, a, c, 5, &|l| l.length_m).unwrap();
        assert_eq!(ks.len(), 1);
    }

    #[test]
    fn k_zero_is_empty() {
        let (net, a, z) = grid3();
        assert!(k_shortest_paths(&net, a, z, 0, &|l| l.length_m)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn masked_route_sets_avoid_closed_links() {
        let (net, a, z) = grid3();
        let open = k_shortest_paths(&net, a, z, 6, &|l| l.length_m).unwrap();
        // Close every link the best route uses; the remaining set must
        // avoid them all and shrink accordingly.
        let closed: BTreeSet<LinkId> = open[0].links.iter().copied().collect();
        let masked =
            k_shortest_paths_masked(&net, a, z, 6, &|l| l.length_m, &|l| closed.contains(&l))
                .unwrap();
        assert!(!masked.is_empty());
        assert!(masked.len() < open.len());
        for p in &masked {
            assert!(p.is_simple(&net));
            assert!(p.links.iter().all(|l| !closed.contains(l)));
        }
    }

    #[test]
    fn no_path_is_error() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        b.add_link(c, a, 1, 10.0).unwrap();
        let net = b.build().unwrap();
        assert!(k_shortest_paths(&net, a, c, 3, &|l| l.length_m).is_err());
    }
}

//! The road-network graph: intersections (nodes), directed road segments
//! (links) and city regions.
//!
//! Terminology follows the paper (§III): each direction of a physical road
//! segment is a separate *link* `l_j`; the city is divided into a set of
//! *regions* `R = {r}` between which trips (OD pairs) are defined. Volume and
//! speed live on links, TOD lives on region pairs.

use crate::error::{Result, RoadnetError};
use crate::geometry::Point;
use crate::ids::{LinkId, NodeId, RegionId};
use serde::{Deserialize, Serialize};

/// An intersection of the road network.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// Dense identifier of this node.
    pub id: NodeId,
    /// Planar position in metres.
    pub point: Point,
    /// Region this node belongs to.
    pub region: RegionId,
    /// Whether a traffic signal controls this intersection.
    pub signalized: bool,
}

/// A directed road segment ("link" in the paper's sense).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    /// Dense identifier of this link.
    pub id: LinkId,
    /// Upstream node.
    pub from: NodeId,
    /// Downstream node.
    pub to: NodeId,
    /// Length in metres.
    pub length_m: f64,
    /// Number of lanes in this direction.
    pub lanes: u8,
    /// Legal speed limit in metres per second.
    pub speed_limit_mps: f64,
}

impl Link {
    /// Average vehicle footprint used to derive jam capacity: effective
    /// vehicle length plus minimum standstill gap, in metres.
    pub const VEHICLE_FOOTPRINT_M: f64 = 7.5;

    /// Maximum number of vehicles the link can physically hold (jam density).
    #[inline]
    pub fn storage_capacity(&self) -> usize {
        let per_lane = (self.length_m / Self::VEHICLE_FOOTPRINT_M).floor() as usize;
        (per_lane * self.lanes as usize).max(1)
    }

    /// Travel time in seconds at the speed limit.
    #[inline]
    pub fn free_flow_time_s(&self) -> f64 {
        self.length_m / self.speed_limit_mps
    }
}

/// A city region (the paper's `r`): a group of intersections, optionally
/// carrying census information used by auxiliary losses.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Region {
    /// Dense identifier of this region.
    pub id: RegionId,
    /// Human-readable label (e.g. "residential A").
    pub name: String,
    /// Nodes contained in this region.
    pub nodes: Vec<NodeId>,
    /// Population count (synthetic census; see `datagen`).
    pub population: f64,
}

impl Region {
    /// Centroid of the region's nodes within `net`, if the region is
    /// non-empty.
    pub fn centroid(&self, net: &RoadNetwork) -> Option<Point> {
        let pts: Vec<Point> = self
            .nodes
            .iter()
            .filter_map(|&n| net.nodes.get(n.index()))
            .map(|n| n.point)
            .collect();
        crate::geometry::centroid(&pts)
    }
}

/// A directed road-network graph with region structure and adjacency
/// indices. Construct one through [`NetworkBuilder`] or the generators in
/// [`crate::generators`] / [`crate::presets`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoadNetwork {
    nodes: Vec<Node>,
    links: Vec<Link>,
    regions: Vec<Region>,
    /// Outgoing links per node, indexed by `NodeId`.
    out_links: Vec<Vec<LinkId>>,
    /// Incoming links per node, indexed by `NodeId`.
    in_links: Vec<Vec<LinkId>>,
}

impl RoadNetwork {
    /// Number of intersections.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links (the paper's `M`).
    #[inline]
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of physical (bidirectional) roads. Two opposite links over the
    /// same node pair count as one road; one-way links count individually.
    pub fn num_roads(&self) -> usize {
        let mut pairs: Vec<(usize, usize)> = self
            .links
            .iter()
            .map(|l| {
                let (a, b) = (l.from.index(), l.to.index());
                if a <= b {
                    (a, b)
                } else {
                    (b, a)
                }
            })
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        pairs.len()
    }

    /// Number of regions (the paper's `K`).
    #[inline]
    pub fn num_regions(&self) -> usize {
        self.regions.len()
    }

    /// All nodes, indexable by `NodeId`.
    #[inline]
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// All links, indexable by `LinkId`.
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// All regions, indexable by `RegionId`.
    #[inline]
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Looks up a node, reporting an error for out-of-range ids.
    pub fn node(&self, id: NodeId) -> Result<&Node> {
        self.nodes
            .get(id.index())
            .ok_or(RoadnetError::UnknownNode(id))
    }

    /// Looks up a link, reporting an error for out-of-range ids.
    pub fn link(&self, id: LinkId) -> Result<&Link> {
        self.links
            .get(id.index())
            .ok_or(RoadnetError::UnknownLink(id))
    }

    /// Looks up a region, reporting an error for out-of-range ids.
    pub fn region(&self, id: RegionId) -> Result<&Region> {
        self.regions
            .get(id.index())
            .ok_or(RoadnetError::UnknownRegion(id))
    }

    /// Links leaving `node`.
    pub fn out_links(&self, node: NodeId) -> &[LinkId] {
        self.out_links
            .get(node.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Links arriving at `node`.
    pub fn in_links(&self, node: NodeId) -> &[LinkId] {
        self.in_links
            .get(node.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// A representative node for a region (the first one), used when trips
    /// need a concrete spawn point.
    pub fn region_anchor(&self, region: RegionId) -> Result<NodeId> {
        let r = self.region(region)?;
        r.nodes
            .first()
            .copied()
            .ok_or_else(|| RoadnetError::InvalidSpec(format!("region {region} has no nodes")))
    }

    /// True when every node can reach every other node along directed links.
    // lint: allow(dead_api) — invariant checker the generator and preset tests assert
    pub fn is_strongly_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let start = NodeId(0);
        let fwd = self.reachable_from(start, false);
        let bwd = self.reachable_from(start, true);
        fwd.iter().all(|&v| v) && bwd.iter().all(|&v| v)
    }

    /// BFS reachability from `start`, following links backwards when
    /// `reversed` is set.
    fn reachable_from(&self, start: NodeId, reversed: bool) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        if let Some(s) = seen.get_mut(start.index()) {
            *s = true;
            queue.push_back(start);
        }
        while let Some(n) = queue.pop_front() {
            let edges = if reversed {
                self.in_links(n)
            } else {
                self.out_links(n)
            };
            for &lid in edges {
                let Some(l) = self.links.get(lid.index()) else {
                    continue;
                };
                let next = if reversed { l.from } else { l.to };
                if let Some(s) = seen.get_mut(next.index()) {
                    if !*s {
                        *s = true;
                        queue.push_back(next);
                    }
                }
            }
        }
        seen
    }

    /// Mutable access to a region's population (used by synthetic census
    /// generation in `datagen`).
    pub fn set_region_population(&mut self, region: RegionId, population: f64) -> Result<()> {
        let r = self
            .regions
            .get_mut(region.index())
            .ok_or(RoadnetError::UnknownRegion(region))?;
        if population < 0.0 || !population.is_finite() {
            return Err(RoadnetError::InvalidAttribute(format!(
                "population must be finite and non-negative, got {population}"
            )));
        }
        r.population = population;
        Ok(())
    }
}

/// Incremental builder for [`RoadNetwork`].
///
/// ```
/// use roadnet::network::NetworkBuilder;
/// use roadnet::Point;
///
/// let mut b = NetworkBuilder::new();
/// let a = b.add_node(Point::new(0.0, 0.0));
/// let c = b.add_node(Point::new(300.0, 0.0));
/// b.add_road(a, c, 1, 13.9).unwrap();
/// let net = b.assign_regions_grid(1, 2).build().unwrap();
/// assert_eq!(net.num_links(), 2);
/// assert_eq!(net.num_roads(), 1);
/// ```
#[derive(Debug, Default)]
pub struct NetworkBuilder {
    points: Vec<Point>,
    signalized: Vec<bool>,
    links: Vec<Link>,
    region_grid: Option<(usize, usize)>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an intersection at `point`; signalised by default.
    pub fn add_node(&mut self, point: Point) -> NodeId {
        let id = NodeId(self.points.len());
        self.points.push(point);
        self.signalized.push(true);
        id
    }

    /// Marks a node as unsignalised (e.g. a boundary stub).
    // lint: allow(dead_api) — no preset has unsignalised nodes; the signal and car-following tests build them
    pub fn set_signalized(&mut self, node: NodeId, signalized: bool) -> Result<()> {
        let slot = self
            .signalized
            .get_mut(node.index())
            .ok_or(RoadnetError::UnknownNode(node))?;
        *slot = signalized;
        Ok(())
    }

    /// Number of nodes added so far.
    pub fn num_nodes(&self) -> usize {
        self.points.len()
    }

    /// Adds a single directed link; length is the Euclidean node distance.
    pub fn add_link(
        &mut self,
        from: NodeId,
        to: NodeId,
        lanes: u8,
        speed_mps: f64,
    ) -> Result<LinkId> {
        let pf = *self
            .points
            .get(from.index())
            .ok_or(RoadnetError::UnknownNode(from))?;
        let pt = *self
            .points
            .get(to.index())
            .ok_or(RoadnetError::UnknownNode(to))?;
        if from == to {
            return Err(RoadnetError::InvalidSpec(format!(
                "self-loop link at {from}"
            )));
        }
        if lanes == 0 {
            return Err(RoadnetError::InvalidAttribute("lanes must be >= 1".into()));
        }
        if speed_mps.is_nan() || speed_mps <= 0.0 {
            return Err(RoadnetError::InvalidAttribute(format!(
                "speed limit must be positive, got {speed_mps}"
            )));
        }
        let length = pf.distance(&pt).max(1.0);
        let id = LinkId(self.links.len());
        self.links.push(Link {
            id,
            from,
            to,
            length_m: length,
            lanes,
            speed_limit_mps: speed_mps,
        });
        Ok(id)
    }

    /// Adds a bidirectional road: two opposite links with identical
    /// attributes. Returns `(forward, backward)` link ids.
    pub fn add_road(
        &mut self,
        a: NodeId,
        b: NodeId,
        lanes: u8,
        speed_mps: f64,
    ) -> Result<(LinkId, LinkId)> {
        let f = self.add_link(a, b, lanes, speed_mps)?;
        let r = self.add_link(b, a, lanes, speed_mps)?;
        Ok((f, r))
    }

    /// Clusters nodes into a `rows x cols` spatial grid of regions based on
    /// node coordinates. Empty cells are dropped, so the final region count
    /// may be below `rows * cols`.
    pub fn assign_regions_grid(mut self, rows: usize, cols: usize) -> Self {
        self.region_grid = Some((rows.max(1), cols.max(1)));
        self
    }

    /// Finalises the network, building adjacency and region structure.
    pub fn build(self) -> Result<RoadNetwork> {
        if self.points.is_empty() {
            return Err(RoadnetError::InvalidSpec("network has no nodes".into()));
        }
        let (rows, cols) = self.region_grid.unwrap_or((1, 1));

        // Bounding box for spatial region assignment.
        let (mut min_x, mut max_x) = (f64::INFINITY, f64::NEG_INFINITY);
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for p in &self.points {
            min_x = min_x.min(p.x);
            max_x = max_x.max(p.x);
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        let span_x = (max_x - min_x).max(1e-9);
        let span_y = (max_y - min_y).max(1e-9);

        // Map every node to a provisional grid cell, then compact non-empty
        // cells into dense region ids.
        let cell_of = |p: &Point| -> usize {
            let cx = (((p.x - min_x) / span_x) * cols as f64).min(cols as f64 - 1.0) as usize;
            let cy = (((p.y - min_y) / span_y) * rows as f64).min(rows as f64 - 1.0) as usize;
            cy * cols + cx
        };
        let mut cell_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); rows * cols];
        for (i, p) in self.points.iter().enumerate() {
            if let Some(cell) = cell_nodes.get_mut(cell_of(p)) {
                cell.push(NodeId(i));
            }
        }
        let mut regions = Vec::new();
        let mut node_region = vec![RegionId(0); self.points.len()];
        for nodes in cell_nodes.into_iter().filter(|c| !c.is_empty()) {
            let rid = RegionId(regions.len());
            for &n in &nodes {
                if let Some(slot) = node_region.get_mut(n.index()) {
                    *slot = rid;
                }
            }
            regions.push(Region {
                id: rid,
                name: format!("region-{}", rid.index()),
                nodes,
                population: 0.0,
            });
        }

        let nodes: Vec<Node> = self
            .points
            .iter()
            .enumerate()
            .map(|(i, &point)| Node {
                id: NodeId(i),
                point,
                region: node_region.get(i).copied().unwrap_or(RegionId(0)),
                signalized: self.signalized.get(i).copied().unwrap_or(false),
            })
            .collect();

        let mut out_links = vec![Vec::new(); nodes.len()];
        let mut in_links = vec![Vec::new(); nodes.len()];
        for l in &self.links {
            if let Some(out) = out_links.get_mut(l.from.index()) {
                out.push(l.id);
            }
            if let Some(inl) = in_links.get_mut(l.to.index()) {
                inl.push(l.id);
            }
        }

        Ok(RoadNetwork {
            nodes,
            links: self.links,
            regions,
            out_links,
            in_links,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node_net() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(500.0, 0.0));
        b.add_road(a, c, 2, 14.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn build_counts_nodes_links_roads() {
        let net = two_node_net();
        assert_eq!(net.num_nodes(), 2);
        assert_eq!(net.num_links(), 2);
        assert_eq!(net.num_roads(), 1);
        assert_eq!(net.num_regions(), 1);
    }

    #[test]
    fn adjacency_matches_links() {
        let net = two_node_net();
        assert_eq!(net.out_links(NodeId(0)).len(), 1);
        assert_eq!(net.in_links(NodeId(0)).len(), 1);
        let out = net.out_links(NodeId(0))[0];
        assert_eq!(net.link(out).unwrap().to, NodeId(1));
    }

    #[test]
    fn link_capacity_scales_with_lanes_and_length() {
        let net = two_node_net();
        let l = net.link(LinkId(0)).unwrap();
        // 500 m / 7.5 m = 66 per lane, times 2 lanes.
        assert_eq!(l.storage_capacity(), 132);
        assert!((l.free_flow_time_s() - 500.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        assert!(matches!(
            b.add_link(a, a, 1, 10.0),
            Err(RoadnetError::InvalidSpec(_))
        ));
    }

    #[test]
    fn bad_attributes_rejected() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(10.0, 0.0));
        assert!(b.add_link(a, c, 0, 10.0).is_err());
        assert!(b.add_link(a, c, 1, 0.0).is_err());
        assert!(b.add_link(a, c, 1, -3.0).is_err());
    }

    #[test]
    fn empty_network_rejected() {
        assert!(NetworkBuilder::new().build().is_err());
    }

    #[test]
    fn region_grid_partitions_all_nodes() {
        let mut b = NetworkBuilder::new();
        for i in 0..4 {
            for j in 0..4 {
                b.add_node(Point::new(i as f64 * 100.0, j as f64 * 100.0));
            }
        }
        // connect a chain so the builder is happy later if routed
        for i in 0..15usize {
            b.add_road(NodeId(i), NodeId(i + 1), 1, 10.0).unwrap();
        }
        let net = b.assign_regions_grid(2, 2).build().unwrap();
        assert_eq!(net.num_regions(), 4);
        let total: usize = net.regions().iter().map(|r| r.nodes.len()).sum();
        assert_eq!(total, 16);
        // every node's region back-reference is consistent
        for r in net.regions() {
            for &n in &r.nodes {
                assert_eq!(net.node(n).unwrap().region, r.id);
            }
        }
    }

    #[test]
    fn strong_connectivity_detected() {
        let net = two_node_net();
        assert!(net.is_strongly_connected());

        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        b.add_link(a, c, 1, 10.0).unwrap(); // one-way only
        let net = b.build().unwrap();
        assert!(!net.is_strongly_connected());
    }

    #[test]
    fn population_validation() {
        let mut net = two_node_net();
        assert!(net.set_region_population(RegionId(0), 1000.0).is_ok());
        assert!(net.set_region_population(RegionId(0), -1.0).is_err());
        assert!(net.set_region_population(RegionId(0), f64::NAN).is_err());
        assert!(net.set_region_population(RegionId(9), 1.0).is_err());
        assert_eq!(net.region(RegionId(0)).unwrap().population, 1000.0);
    }

    #[test]
    fn lookup_errors_name_the_id() {
        let net = two_node_net();
        assert_eq!(
            net.node(NodeId(99)).unwrap_err(),
            RoadnetError::UnknownNode(NodeId(99))
        );
        assert_eq!(
            net.link(LinkId(99)).unwrap_err(),
            RoadnetError::UnknownLink(LinkId(99))
        );
    }

    #[test]
    fn serde_round_trip() {
        let net = two_node_net();
        let json = serde_json::to_string(&net).unwrap();
        let back: RoadNetwork = serde_json::from_str(&json).unwrap();
        assert_eq!(back.num_nodes(), net.num_nodes());
        assert_eq!(back.num_links(), net.num_links());
        assert_eq!(back.out_links(NodeId(0)), net.out_links(NodeId(0)));
    }
}

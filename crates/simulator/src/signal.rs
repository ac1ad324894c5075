//! Fixed-time traffic signals.
//!
//! Every signalised intersection runs a two-phase fixed-time plan: incoming
//! links are grouped by approach axis (east-west vs north-south), each
//! group gets half of the cycle. Unsignalised nodes are permanently green.
//! This mirrors the default signal plans CityFlow ships for synthetic
//! grids, and is exactly the stop-and-go source that makes link speed a
//! nonlinear function of volume.

use roadnet::{LinkId, RoadNetwork};

/// Phase index within the two-phase plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    /// Mostly east-west approaches.
    Horizontal,
    /// Mostly north-south approaches.
    Vertical,
}

/// Precomputed signal plan for a network.
#[derive(Debug, Clone)]
pub struct SignalPlan {
    /// Per-link phase assignment; `None` means never gated (unsignalised
    /// downstream node).
    link_axis: Vec<Option<Axis>>,
    cycle_ticks: u64,
}

impl SignalPlan {
    /// Builds the plan for `net` with the given cycle length in ticks.
    pub fn new(net: &RoadNetwork, cycle_ticks: u64) -> Self {
        let cycle_ticks = cycle_ticks.max(2);
        Self {
            link_axis: axis_per_link(net),
            cycle_ticks,
        }
    }

    /// True when vehicles may leave `link` into its downstream intersection
    /// at `tick`.
    #[inline]
    pub fn is_green(&self, link: LinkId, tick: u64) -> bool {
        match self.link_axis.get(link.index()).copied().flatten() {
            None => true,
            Some(axis) => {
                let half = self.cycle_ticks / 2;
                let phase = tick % self.cycle_ticks;
                match axis {
                    Axis::Horizontal => phase < half,
                    Axis::Vertical => phase >= half,
                }
            }
        }
    }
}

/// Per-link approach axis: `None` for links into unsignalised nodes,
/// otherwise the dominant geometric direction of the approach.
fn axis_per_link(net: &RoadNetwork) -> Vec<Option<Axis>> {
    net.links()
        .iter()
        .map(|l| {
            let to = net.nodes().get(l.to.index())?;
            if !to.signalized {
                return None;
            }
            let from = net.nodes().get(l.from.index())?;
            let dx = (to.point.x - from.point.x).abs();
            let dy = (to.point.y - from.point.y).abs();
            Some(if dx >= dy {
                Axis::Horizontal
            } else {
                Axis::Vertical
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::generators::GridSpec;
    use roadnet::network::NetworkBuilder;
    use roadnet::{NodeId, Point};

    #[test]
    fn opposite_axes_alternate() {
        let net = GridSpec::new(3, 3).build(0);
        let plan = SignalPlan::new(&net, 30);
        // Find one horizontal and one vertical link into the same node.
        let center = net
            .nodes()
            .iter()
            .find(|n| net.in_links(n.id).len() == 4)
            .expect("grid center has 4 approaches")
            .id;
        let ins = net.in_links(center);
        let mut horizontal = None;
        let mut vertical = None;
        for &lid in ins {
            let l = &net.links()[lid.index()];
            let dx =
                (net.nodes()[l.to.index()].point.x - net.nodes()[l.from.index()].point.x).abs();
            let dy =
                (net.nodes()[l.to.index()].point.y - net.nodes()[l.from.index()].point.y).abs();
            if dx >= dy {
                horizontal = Some(lid);
            } else {
                vertical = Some(lid);
            }
        }
        let (h, v) = (horizontal.unwrap(), vertical.unwrap());
        for tick in 0..60 {
            assert_ne!(
                plan.is_green(h, tick),
                plan.is_green(v, tick),
                "conflicting approaches must never be green together"
            );
        }
    }

    #[test]
    fn green_ratio_is_half_for_signalised() {
        let net = GridSpec::new(2, 2).build(0);
        let plan = SignalPlan::new(&net, 30);
        for l in net.links() {
            let green = (0..30).filter(|&t| plan.is_green(l.id, t)).count();
            assert_eq!(green, 15, "link {:?}", l.id);
        }
    }

    #[test]
    fn unsignalised_node_always_green() {
        let mut b = NetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        b.add_road(a, c, 1, 10.0).unwrap();
        b.set_signalized(NodeId(1), false).unwrap();
        let net = b.build().unwrap();
        let plan = SignalPlan::new(&net, 30);
        let into_c = net.in_links(NodeId(1))[0];
        assert!((0..100).all(|t| plan.is_green(into_c, t)));
    }

    #[test]
    fn cycle_repeats() {
        let net = GridSpec::new(2, 2).build(0);
        let plan = SignalPlan::new(&net, 20);
        let l = net.links()[0].id;
        for t in 0..20 {
            assert_eq!(plan.is_green(l, t), plan.is_green(l, t + 20));
        }
    }

    #[test]
    fn tiny_cycle_clamped() {
        let net = GridSpec::new(2, 2).build(0);
        let plan = SignalPlan::new(&net, 0);
        // must not panic / divide by zero
        let l = net.links()[0].id;
        let _ = plan.is_green(l, 0);
    }
}

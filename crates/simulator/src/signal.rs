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

/// Vehicle-actuated two-phase controller state for one intersection.
///
/// The classic gap-actuation rule: a phase holds green while vehicles keep
/// arriving on its approaches (any queue within the detection zone resets
/// the gap timer), switching after `gap_out_ticks` of no demand or at
/// `max_green_ticks`, whichever comes first. When the competing phase has
/// no demand either, the current phase simply holds.
#[derive(Debug, Clone)]
pub struct ActuatedNode {
    /// Phase currently green (0 = horizontal, 1 = vertical).
    green_phase: u8,
    /// Ticks the current phase has been green.
    elapsed: u64,
    /// Ticks since a vehicle was last detected on the green approaches.
    idle: u64,
}

/// Actuated control for a whole network: falls back to "always green" at
/// unsignalised nodes, two-phase gap actuation elsewhere.
#[derive(Debug, Clone)]
pub struct ActuatedPlan {
    /// Per-link phase assignment (None = unsignalised downstream node).
    link_axis: Vec<Option<Axis>>,
    /// Downstream node per link.
    link_node: Vec<usize>,
    /// Controller state per node (unused slots for unsignalised nodes).
    nodes: Vec<ActuatedNode>,
    /// Minimum green before a switch is allowed.
    pub min_green_ticks: u64,
    /// Upper bound on green duration.
    pub max_green_ticks: u64,
    /// Demand gap that triggers a switch.
    pub gap_out_ticks: u64,
}

impl ActuatedPlan {
    /// Builds the controller with common defaults (min 5 s, max 40 s,
    /// gap-out 3 s at 1 s ticks).
    pub fn new(net: &RoadNetwork) -> Self {
        let link_axis = axis_per_link(net);
        let link_node = net.links().iter().map(|l| l.to.index()).collect();
        let nodes = vec![
            ActuatedNode {
                green_phase: 0,
                elapsed: 0,
                idle: 0,
            };
            net.num_nodes()
        ];
        Self {
            link_axis,
            link_node,
            nodes,
            min_green_ticks: 5,
            max_green_ticks: 40,
            gap_out_ticks: 3,
        }
    }

    /// Advances one tick. `demand(link) -> bool` reports whether vehicles
    /// are waiting near the stop line of `link`.
    pub fn update(&mut self, demand: &dyn Fn(LinkId) -> bool) {
        // Gather per-node demand per phase.
        let n_nodes = self.nodes.len();
        let mut phase_demand = vec![[false; 2]; n_nodes];
        for (li, axis) in self.link_axis.iter().enumerate() {
            if let Some(axis) = axis {
                if demand(LinkId(li)) {
                    let p = match axis {
                        Axis::Horizontal => 0,
                        Axis::Vertical => 1,
                    };
                    let Some(&node) = self.link_node.get(li) else {
                        continue;
                    };
                    if let Some(flag) = phase_demand.get_mut(node).and_then(|d| d.get_mut(p)) {
                        *flag = true;
                    }
                }
            }
        }
        for (node, state) in self.nodes.iter_mut().enumerate() {
            state.elapsed += 1;
            let green = state.green_phase as usize;
            let red = 1 - green;
            let node_demand = phase_demand.get(node).copied().unwrap_or([false; 2]);
            if node_demand.get(green).copied().unwrap_or(false) {
                state.idle = 0;
            } else {
                state.idle += 1;
            }
            let gap_out = state.idle >= self.gap_out_ticks;
            let maxed = state.elapsed >= self.max_green_ticks;
            let competing = node_demand.get(red).copied().unwrap_or(false);
            if state.elapsed >= self.min_green_ticks && competing && (gap_out || maxed) {
                state.green_phase = red as u8;
                state.elapsed = 0;
                state.idle = 0;
            }
        }
    }

    /// True when vehicles may leave `link` into its downstream node.
    #[inline]
    pub fn is_green(&self, link: LinkId) -> bool {
        match self.link_axis.get(link.index()).copied().flatten() {
            None => true,
            Some(axis) => {
                let phase = match axis {
                    Axis::Horizontal => 0u8,
                    Axis::Vertical => 1,
                };
                self.link_node
                    .get(link.index())
                    .and_then(|&n| self.nodes.get(n))
                    .map(|s| s.green_phase == phase)
                    .unwrap_or(true)
            }
        }
    }
}

/// Per-link approach axis: `None` for links into unsignalised nodes,
/// otherwise the dominant geometric direction of the approach. Shared by
/// the fixed-time and actuated controllers so both gate the same way.
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
    fn actuated_holds_green_without_competition() {
        let net = GridSpec::new(3, 3).build(0);
        let mut plan = ActuatedPlan::new(&net);
        let center = net
            .nodes()
            .iter()
            .find(|n| net.in_links(n.id).len() == 4)
            .unwrap()
            .id;
        let ins = net.in_links(center).to_vec();
        let green_link = *ins
            .iter()
            .find(|&&l| plan.is_green(l))
            .expect("one approach starts green");
        // Demand only on the already-green approach: no switch, ever.
        for _ in 0..100 {
            plan.update(&|l| l == green_link);
            assert!(plan.is_green(green_link));
        }
    }

    #[test]
    fn actuated_switches_on_gap_out() {
        let net = GridSpec::new(3, 3).build(0);
        let mut plan = ActuatedPlan::new(&net);
        let center = net
            .nodes()
            .iter()
            .find(|n| net.in_links(n.id).len() == 4)
            .unwrap()
            .id;
        let ins = net.in_links(center).to_vec();
        let red_link = *ins
            .iter()
            .find(|&&l| !plan.is_green(l))
            .expect("one approach starts red");
        // Demand only on the red approach: after min green + gap-out the
        // controller must serve it.
        for _ in 0..30 {
            plan.update(&|l| l == red_link);
        }
        assert!(plan.is_green(red_link), "red approach must be served");
    }

    #[test]
    fn actuated_respects_max_green() {
        let net = GridSpec::new(3, 3).build(0);
        let mut plan = ActuatedPlan::new(&net);
        let center = net
            .nodes()
            .iter()
            .find(|n| net.in_links(n.id).len() == 4)
            .unwrap()
            .id;
        let ins = net.in_links(center).to_vec();
        let green_link = *ins.iter().find(|&&l| plan.is_green(l)).unwrap();
        let red_link = *ins.iter().find(|&&l| !plan.is_green(l)).unwrap();
        // Constant demand on both: the green phase may hold at most
        // max_green ticks.
        let mut switched_at = None;
        for tick in 0..200u64 {
            plan.update(&|l| l == green_link || l == red_link);
            if !plan.is_green(green_link) {
                switched_at = Some(tick);
                break;
            }
        }
        let t = switched_at.expect("must eventually switch");
        assert!(t <= plan.max_green_ticks + 1, "switched at {t}");
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

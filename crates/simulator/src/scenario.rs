//! Scenario overlays: road work, accidents, special events.
//!
//! RQ3 of the paper (Figure 11) compares TOD recovery when "some roads are
//! under maintenance, occurring traffic accidents, or other special
//! cases" — i.e. when the volume->speed mapping of selected links changes
//! while the underlying TOD does not. A [`Scenario`] expresses that: a set
//! of per-link disruptions that scale the link's attainable speed,
//! saturation flow and storage capacity without touching demand.

use roadnet::{LinkId, RoadNetwork};
use serde::{Deserialize, Serialize};

/// Degradation applied to one link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkDisruption {
    /// The affected link.
    pub link: LinkId,
    /// Multiplier on the attainable speed, in (0, 1].
    pub speed_factor: f64,
    /// Multiplier on saturation flow (discharge rate), in (0, 1].
    pub flow_factor: f64,
    /// Multiplier on storage capacity (e.g. a closed lane), in (0, 1].
    pub capacity_factor: f64,
}

impl LinkDisruption {
    /// Road work: speed halved, one effective lane lost.
    pub fn road_work(link: LinkId) -> Self {
        Self {
            link,
            speed_factor: 0.5,
            flow_factor: 0.5,
            capacity_factor: 0.6,
        }
    }

    /// A blocking incident: the link is almost impassable.
    pub fn incident(link: LinkId) -> Self {
        Self {
            link,
            speed_factor: 0.15,
            flow_factor: 0.2,
            capacity_factor: 0.5,
        }
    }
}

/// A set of link disruptions; the "simulator 2" of §V-J.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Scenario {
    disruptions: Vec<LinkDisruption>,
}

impl Scenario {
    /// The regular scenario with no disruptions ("simulator 1").
    pub fn regular() -> Self {
        Self::default()
    }

    /// Builds a scenario from disruptions; later entries override earlier
    /// ones for the same link.
    pub fn with_disruptions(disruptions: Vec<LinkDisruption>) -> Self {
        Self { disruptions }
    }

    /// Adds one disruption.
    pub fn add(&mut self, d: LinkDisruption) {
        self.disruptions.push(d);
    }

    /// Effective factors for `link`: `(speed, flow, capacity)`.
    pub fn factors(&self, link: LinkId) -> (f64, f64, f64) {
        self.disruptions
            .iter()
            .rev()
            .find(|d| d.link == link)
            .map(|d| {
                (
                    d.speed_factor.clamp(1e-3, 1.0),
                    d.flow_factor.clamp(1e-3, 1.0),
                    d.capacity_factor.clamp(1e-3, 1.0),
                )
            })
            .unwrap_or((1.0, 1.0, 1.0))
    }

    /// Convenience: road work on a deterministic sample of `count` links,
    /// spread evenly over the network.
    pub fn sample_road_work(net: &RoadNetwork, count: usize) -> Self {
        let m = net.num_links();
        if m == 0 || count == 0 {
            return Self::regular();
        }
        let stride = (m / count.min(m)).max(1);
        let disruptions = (0..m)
            .step_by(stride)
            .take(count)
            .map(|i| LinkDisruption::road_work(LinkId(i)))
            .collect();
        Self { disruptions }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::generators::GridSpec;

    #[test]
    fn regular_scenario_is_identity() {
        let s = Scenario::regular();
        for l in 0..8 {
            assert_eq!(s.factors(LinkId(l)), (1.0, 1.0, 1.0));
        }
    }

    #[test]
    fn disruption_applies_to_its_link_only() {
        let s = Scenario::with_disruptions(vec![LinkDisruption::road_work(LinkId(2))]);
        assert_eq!(s.factors(LinkId(2)), (0.5, 0.5, 0.6));
        assert_eq!(s.factors(LinkId(3)), (1.0, 1.0, 1.0));
    }

    #[test]
    fn later_disruption_wins() {
        let mut s = Scenario::regular();
        s.add(LinkDisruption::road_work(LinkId(1)));
        s.add(LinkDisruption::incident(LinkId(1)));
        assert_eq!(s.factors(LinkId(1)).0, 0.15);
    }

    #[test]
    fn factors_are_clamped() {
        let s = Scenario::with_disruptions(vec![LinkDisruption {
            link: LinkId(0),
            speed_factor: 0.0,
            flow_factor: 7.0,
            capacity_factor: -1.0,
        }]);
        let (sp, fl, cap) = s.factors(LinkId(0));
        assert!(sp > 0.0);
        assert!(fl <= 1.0);
        assert!(cap > 0.0);
    }

    #[test]
    fn sample_spreads_over_network() {
        let net = GridSpec::new(3, 3).build(0);
        let s = Scenario::sample_road_work(&net, 4);
        let disrupted = (0..net.num_links())
            .filter(|&l| s.factors(LinkId(l)) != (1.0, 1.0, 1.0))
            .count();
        assert_eq!(disrupted, 4, "four distinct links");
    }

    #[test]
    fn sample_zero_is_regular() {
        let net = GridSpec::new(2, 2).build(0);
        let s = Scenario::sample_road_work(&net, 0);
        assert!((0..net.num_links()).all(|l| s.factors(LinkId(l)) == (1.0, 1.0, 1.0)));
    }
}

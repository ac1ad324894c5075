//! Route representation.

use crate::ids::{LinkId, NodeId};
use crate::network::RoadNetwork;
use serde::{Deserialize, Serialize};

/// A route: a connected sequence of links from an origin node to a
/// destination node, with its total cost under the metric that produced it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Route {
    /// Links in traversal order.
    pub links: Vec<LinkId>,
    /// Total cost (metres for shortest, seconds for fastest).
    pub cost: f64,
}

impl Route {
    /// Node sequence of the route including both endpoints; empty routes
    /// yield an empty sequence.
    pub fn nodes(&self, net: &RoadNetwork) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.links.len() + 1);
        for (i, &lid) in self.links.iter().enumerate() {
            let Some(l) = net.links().get(lid.index()) else {
                continue;
            };
            if i == 0 {
                out.push(l.from);
            }
            out.push(l.to);
        }
        out
    }

    /// True when consecutive links share endpoints (the route is connected).
    // lint: allow(dead_api) — invariant checker the routing tests assert on every route
    pub fn is_connected(&self, net: &RoadNetwork) -> bool {
        self.links.windows(2).all(|w| {
            let (Some(&a), Some(&b)) = (w.first(), w.last()) else {
                return false;
            };
            match (net.links().get(a.index()), net.links().get(b.index())) {
                (Some(a), Some(b)) => a.to == b.from,
                _ => false,
            }
        })
    }

    /// True when the route visits no node twice (simple path).
    pub fn is_simple(&self, net: &RoadNetwork) -> bool {
        let nodes = self.nodes(net);
        // BTreeSet: membership-only today, but an ordered set keeps any
        // future iteration deterministic (lint rule D).
        let mut seen = std::collections::BTreeSet::new();
        nodes.iter().all(|n| seen.insert(*n))
    }
}

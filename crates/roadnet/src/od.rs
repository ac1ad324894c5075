//! Origin-destination pairs.
//!
//! The paper's problem statement (§III, Problem 1) is parameterised by `N`
//! chosen OD pairs — not the full `K x (K-1)` product — because "the choice
//! of OD pairs is based on domain knowledge" (§V-D). [`OdSet`] is that
//! ordered collection, mapping the paper's OD index `i` to a concrete
//! `(origin region, destination region)` pair.

use crate::error::{Result, RoadnetError};
use crate::ids::{OdPairId, RegionId};
use crate::network::RoadNetwork;
use serde::{Deserialize, Serialize};

/// A single origin-destination pair between two regions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OdPair {
    /// Origin region `o`.
    pub origin: RegionId,
    /// Destination region `d`.
    pub destination: RegionId,
}

impl OdPair {
    /// Creates an OD pair. Origin and destination may not coincide: the
    /// paper defines a trip as movement between two distinct regions.
    pub fn new(origin: RegionId, destination: RegionId) -> Result<Self> {
        if origin == destination {
            return Err(RoadnetError::InvalidSpec(format!(
                "OD pair must connect distinct regions, got {origin} -> {destination}"
            )));
        }
        Ok(Self {
            origin,
            destination,
        })
    }
}

/// An ordered set of OD pairs; the index of a pair is the paper's OD index
/// `i` and doubles as the row index of [`crate::tensor::TodTensor`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OdSet {
    pairs: Vec<OdPair>,
}

impl OdSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// The full bipartite product of all distinct region pairs of `net`.
    pub fn all_pairs(net: &RoadNetwork) -> Self {
        let k = net.num_regions();
        let mut pairs = Vec::with_capacity(k * k.saturating_sub(1));
        for o in 0..k {
            for d in 0..k {
                if o != d {
                    pairs.push(OdPair {
                        origin: RegionId(o),
                        destination: RegionId(d),
                    });
                }
            }
        }
        Self { pairs }
    }

    /// Appends a pair, rejecting duplicates.
    pub fn push(&mut self, pair: OdPair) -> Result<OdPairId> {
        if self.pairs.contains(&pair) {
            return Err(RoadnetError::InvalidSpec(format!(
                "duplicate OD pair {} -> {}",
                pair.origin, pair.destination
            )));
        }
        let id = OdPairId(self.pairs.len());
        self.pairs.push(pair);
        Ok(id)
    }

    /// Number of pairs (the paper's `N`).
    #[inline]
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when the set holds no pairs.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// All pairs in index order.
    #[inline]
    pub fn pairs(&self) -> &[OdPair] {
        &self.pairs
    }

    /// Looks up a pair by OD index.
    pub fn pair(&self, id: OdPairId) -> Result<OdPair> {
        self.pairs
            .get(id.index())
            .copied()
            .ok_or(RoadnetError::UnknownOdPair(id))
    }

    /// Finds the index of a pair, if present.
    pub fn index_of(&self, pair: OdPair) -> Option<OdPairId> {
        self.pairs.iter().position(|&p| p == pair).map(OdPairId)
    }

    /// Iterates `(id, pair)`.
    pub fn iter(&self) -> impl Iterator<Item = (OdPairId, OdPair)> + '_ {
        self.pairs
            .iter()
            .enumerate()
            .map(|(i, &p)| (OdPairId(i), p))
    }

    /// Validates that every referenced region exists in `net`.
    pub fn validate(&self, net: &RoadNetwork) -> Result<()> {
        for &p in &self.pairs {
            net.region(p.origin)?;
            net.region(p.destination)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use crate::Point;

    fn three_region_net() -> RoadNetwork {
        let mut b = NetworkBuilder::new();
        let n0 = b.add_node(Point::new(0.0, 0.0));
        let n1 = b.add_node(Point::new(1000.0, 0.0));
        let n2 = b.add_node(Point::new(2000.0, 0.0));
        b.add_road(n0, n1, 1, 10.0).unwrap();
        b.add_road(n1, n2, 1, 10.0).unwrap();
        b.assign_regions_grid(1, 3).build().unwrap()
    }

    #[test]
    fn od_pair_rejects_same_region() {
        assert!(OdPair::new(RegionId(1), RegionId(1)).is_err());
        assert!(OdPair::new(RegionId(0), RegionId(1)).is_ok());
    }

    #[test]
    fn all_pairs_has_k_times_k_minus_one() {
        let net = three_region_net();
        let set = OdSet::all_pairs(&net);
        assert_eq!(set.len(), 3 * 2);
        assert!(set.validate(&net).is_ok());
        // no self pairs
        assert!(set.pairs().iter().all(|p| p.origin != p.destination));
    }

    #[test]
    fn duplicates_rejected() {
        let p = OdPair::new(RegionId(0), RegionId(1)).unwrap();
        let mut set = OdSet::new();
        set.push(p).unwrap();
        assert!(set.push(p).is_err());
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn index_of_round_trips() {
        let net = three_region_net();
        let set = OdSet::all_pairs(&net);
        for (id, pair) in set.iter() {
            assert_eq!(set.index_of(pair), Some(id));
            assert_eq!(set.pair(id).unwrap(), pair);
        }
        assert!(set.pair(OdPairId(set.len())).is_err());
    }

    #[test]
    fn validate_rejects_unknown_regions() {
        let net = three_region_net();
        let mut set = OdSet::new();
        set.push(OdPair::new(RegionId(0), RegionId(9)).unwrap())
            .unwrap();
        assert!(set.validate(&net).is_err());
    }
}

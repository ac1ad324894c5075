//! Demand generation from a TOD tensor.
//!
//! The TOD tensor's cell `G[i, t]` gives the number of trips of OD pair `i`
//! departing during interval `t` (§III). The spawner spreads that count
//! uniformly over the interval's ticks with a fractional accumulator, so
//! non-integer trip counts (which the learned TOD generation module
//! produces) are honoured in expectation and the whole process stays
//! deterministic. Origin and destination nodes are drawn uniformly from the
//! corresponding regions with a seeded RNG.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use roadnet::{NodeId, OdPair, OdPairId, OdSet, Result, RoadNetwork, RoadnetError, TodTensor};
use std::collections::VecDeque;

/// A trip ready to enter the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpawnRequest {
    /// OD pair index the trip belongs to.
    pub od: OdPairId,
    /// Concrete origin node inside the origin region.
    pub from: NodeId,
    /// Concrete destination node inside the destination region.
    pub to: NodeId,
}

/// Deterministic trip spawner.
#[derive(Debug)]
pub struct DemandSpawner {
    /// Fractional trips owed per OD pair.
    accumulators: Vec<f64>,
    /// Node choices per region, cloned from the network.
    region_nodes: Vec<Vec<NodeId>>,
    pairs: Vec<OdPair>,
    rng: StdRng,
}

impl DemandSpawner {
    /// Creates a spawner for `ods` over `net`.
    pub fn new(net: &RoadNetwork, ods: &OdSet, seed: u64) -> Result<Self> {
        ods.validate(net)?;
        let region_nodes = net.regions().iter().map(|r| r.nodes.clone()).collect();
        Ok(Self {
            accumulators: vec![0.0; ods.len()],
            region_nodes,
            pairs: ods.pairs().to_vec(),
            rng: StdRng::seed_from_u64(seed),
        })
    }

    /// Advances one tick within interval `t` of `tod` and appends the trips
    /// that depart this tick to `out`. `ticks_per_interval` scales the
    /// rate.
    pub fn tick(
        &mut self,
        tod: &TodTensor,
        t: usize,
        ticks_per_interval: u64,
        out: &mut VecDeque<SpawnRequest>,
    ) -> Result<()> {
        if tod.rows() != self.pairs.len() {
            return Err(RoadnetError::ShapeMismatch {
                expected: format!("{} OD rows", self.pairs.len()),
                actual: format!("{} rows", tod.rows()),
            });
        }
        if t >= tod.num_intervals() {
            return Err(RoadnetError::ShapeMismatch {
                expected: format!("interval < {}", tod.num_intervals()),
                actual: format!("interval {t}"),
            });
        }
        let regions = &self.region_nodes;
        for (i, (acc, pair)) in self.accumulators.iter_mut().zip(&self.pairs).enumerate() {
            let count = tod.get(OdPairId(i), t).max(0.0);
            *acc += count / ticks_per_interval as f64;
            while *acc >= 1.0 {
                *acc -= 1.0;
                let from = pick(region_of(regions, pair.origin.index()), &mut self.rng);
                let to = pick(region_of(regions, pair.destination.index()), &mut self.rng);
                if let (Some(from), Some(to)) = (from, to) {
                    if from != to {
                        out.push_back(SpawnRequest {
                            od: OdPairId(i),
                            from,
                            to,
                        });
                    }
                }
            }
        }
        Ok(())
    }
}

fn region_of(regions: &[Vec<NodeId>], r: usize) -> &[NodeId] {
    regions.get(r).map(Vec::as_slice).unwrap_or(&[])
}

fn pick(nodes: &[NodeId], rng: &mut StdRng) -> Option<NodeId> {
    if nodes.is_empty() {
        None
    } else {
        nodes.get(rng.gen_range(0..nodes.len())).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use roadnet::presets::synthetic_grid;

    fn setup() -> (RoadNetwork, OdSet) {
        let net = synthetic_grid();
        let ods = OdSet::all_pairs(&net);
        (net, ods)
    }

    /// The trips one tick departs, in a fresh buffer.
    fn tick(
        spawner: &mut DemandSpawner,
        tod: &TodTensor,
        t: usize,
    ) -> Result<VecDeque<SpawnRequest>> {
        let mut out = VecDeque::new();
        spawner.tick(tod, t, 10, &mut out)?;
        Ok(out)
    }

    #[test]
    fn spawn_counts_match_tod_in_expectation() {
        let (net, ods) = setup();
        let tod = TodTensor::filled(ods.len(), 2, 5.0);
        let mut spawner = DemandSpawner::new(&net, &ods, 1).unwrap();
        let mut total = 0usize;
        for t in 0..2 {
            for _ in 0..10 {
                total += tick(&mut spawner, &tod, t).unwrap().len();
            }
        }
        // 5 trips x 2 intervals x N ods, minus at most N fractional carry
        let expect = 5.0 * 2.0 * ods.len() as f64;
        assert!((total as f64 - expect).abs() <= ods.len() as f64);
    }

    #[test]
    fn fractional_counts_accumulate() {
        let (net, ods) = setup();
        // 0.5 trips per interval: after 4 intervals each OD spawned 2.
        let tod = TodTensor::filled(ods.len(), 4, 0.5);
        let mut spawner = DemandSpawner::new(&net, &ods, 1).unwrap();
        let mut total = 0usize;
        for t in 0..4 {
            for _ in 0..10 {
                total += tick(&mut spawner, &tod, t).unwrap().len();
            }
        }
        assert_eq!(total, 2 * ods.len());
    }

    #[test]
    fn zero_and_negative_counts_spawn_nothing() {
        let (net, ods) = setup();
        let mut tod = TodTensor::zeros(ods.len(), 1);
        tod.set(OdPairId(0), 0, -5.0);
        let mut spawner = DemandSpawner::new(&net, &ods, 1).unwrap();
        for _ in 0..10 {
            assert!(tick(&mut spawner, &tod, 0).unwrap().is_empty());
        }
    }

    #[test]
    fn spawns_respect_regions() {
        let (net, ods) = setup();
        let tod = TodTensor::filled(ods.len(), 1, 10.0);
        let mut spawner = DemandSpawner::new(&net, &ods, 3).unwrap();
        for _ in 0..10 {
            for req in tick(&mut spawner, &tod, 0).unwrap() {
                let pair = ods.pair(req.od).unwrap();
                assert_eq!(net.node(req.from).unwrap().region, pair.origin);
                assert_eq!(net.node(req.to).unwrap().region, pair.destination);
            }
        }
    }

    #[test]
    fn deterministic_per_seed() {
        // A 4x4 grid with 2x2 regions: each region holds 4 nodes, so the
        // seed actually influences which node a trip starts from.
        let net = roadnet::generators::GridSpec::new(4, 4)
            .with_regions(2, 2)
            .build(0);
        let ods = OdSet::all_pairs(&net);
        let tod = TodTensor::filled(ods.len(), 1, 3.0);
        let run = |seed| {
            let mut s = DemandSpawner::new(&net, &ods, seed).unwrap();
            let mut all = Vec::new();
            for _ in 0..10 {
                all.extend(tick(&mut s, &tod, 0).unwrap());
            }
            all
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn shape_errors_reported() {
        let (net, ods) = setup();
        let mut spawner = DemandSpawner::new(&net, &ods, 0).unwrap();
        let bad = TodTensor::zeros(3, 1);
        assert!(tick(&mut spawner, &bad, 0).is_err());
        let tod = TodTensor::zeros(ods.len(), 1);
        assert!(tick(&mut spawner, &tod, 5).is_err());
    }
}

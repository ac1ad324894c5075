//! # roadnet — road-network substrate for the `city-od` workspace
//!
//! This crate provides the domain model shared by every other crate in the
//! reproduction of *Rebuilding City-Wide Traffic Origin Destination from Road
//! Speed Data* (ICDE 2021):
//!
//! * typed identifiers for nodes, links, regions and OD pairs ([`ids`]),
//! * a directed road-network graph with per-link attributes ([`network`]),
//! * parameterised network generators and the four city presets of the
//!   paper's Table III ([`generators`], [`presets`]),
//! * fastest and k-shortest routing ([`routing`]),
//! * the traffic tensors the paper manipulates: the temporal
//!   origin-destination tensor `G` (N_od x T) and per-link observation
//!   tensors (M x T) ([`tensor`]).
//!
//! The paper's notation is kept where practical: `K` regions, `M` links,
//! `T` time intervals, `N` OD pairs.
//!
//! ```
//! use roadnet::generators::GridSpec;
//! use roadnet::routing::fastest_path;
//!
//! let net = GridSpec::new(3, 3).build(7);
//! assert_eq!(net.num_nodes(), 9);
//! let path = fastest_path(&net, net.nodes()[0].id, net.nodes()[8].id).unwrap();
//! assert!(!path.links.is_empty());
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod export;
pub mod generators;
pub mod geometry;
pub mod ids;
pub mod network;
pub mod od;
pub mod parallel;
pub mod presets;
pub mod routing;
pub mod sample;
pub mod tensor;

pub use error::{Result, RoadnetError};
pub use geometry::Point;
pub use ids::{LinkId, NodeId, OdPairId, RegionId};
pub use network::{Link, Node, Region, RoadNetwork};
pub use od::{OdPair, OdSet};
pub use parallel::Parallelism;
pub use sample::TrainTriple;
pub use tensor::{LinkTensor, TodTensor};

//! # simulator — a deterministic microscopic traffic simulator
//!
//! This crate is the workspace's substitute for CityFlow [Zhang et al.,
//! WWW'19], the micro-simulator the paper uses as its forward map
//! `TOD -> (volume, speed)` (§V-B). It simulates individual vehicles:
//!
//! * car-following with bounded acceleration and safe-gap constraints
//!   ([`vehicle`]),
//! * signalised intersections with fixed-time two-phase plans ([`signal`]),
//! * finite link storage with spillback — congestion propagates upstream,
//!   which is exactly the delayed-influence phenomenon the paper's dynamic
//!   attention network (§IV-C) is designed to learn,
//! * demand spawned from a [`roadnet::TodTensor`] ([`demand`]),
//! * per-link per-interval volume and mean-speed observation ([`observe`]),
//! * scenario overlays (road work / accidents) that degrade selected links
//!   (RQ3, Figure 11) ([`scenario`]).
//!
//! Everything is deterministic given the config seed: identical inputs
//! produce bit-identical observation tensors.
//!
//! ```
//! use roadnet::presets::synthetic_grid;
//! use roadnet::{OdSet, TodTensor};
//! use simulator::{SimConfig, Simulation};
//!
//! let net = synthetic_grid();
//! let ods = OdSet::all_pairs(&net);
//! // 2 vehicles/interval on every OD pair, 4 intervals
//! let tod = TodTensor::filled(ods.len(), 4, 2.0);
//! let cfg = SimConfig::default().with_intervals(4);
//! let out = Simulation::new(&net, &ods, cfg).unwrap().run(&tod).unwrap();
//! assert_eq!(out.volume.rows(), net.num_links());
//! assert!(out.stats.spawned > 0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod demand;
pub mod engine;
pub mod incident;
pub mod metrics;
pub mod observe;
pub mod scenario;
pub mod signal;
pub mod vehicle;

pub use config::SimConfig;
pub use engine::{SimOutput, SimStats, Simulation};
pub use incident::{IncidentKind, IncidentSchedule, IncidentTarget, ScheduledIncident};
pub use scenario::{LinkDisruption, Scenario};

//! Routing over road networks.
//!
//! The paper's TOD-Volume module assumes a routing policy `pi` that maps
//! each OD pair to one or more routes (§IV-C): "people will choose the
//! shortest or fastest route based on real-time traffic conditions". This
//! module provides:
//!
//! * [`dijkstra`] / [`fastest_path`] — static Dijkstra under any
//!   [`CostFn`] or by free-flow travel time;
//! * [`shortest_path_tree`] — the same search run to completion under any
//!   [`CostFn`] and a closure mask, one [`ShortestPathTree`] answering a
//!   route to every destination of its source (the simulator's route
//!   cache), so route sets re-derive when incidents remove links and
//!   restore when they clear. The simulator's "based on real-time traffic
//!   conditions" policy passes its own per-interval travel-time cost;
//! * [`k_shortest_paths`] — Yen's algorithm for the multi-route variant
//!   (Eq. 3 allows several routes per OD);
//! * [`k_shortest_paths_masked`] — Yen's algorithm under a closure mask.

mod dijkstra;
mod ksp;
mod path;

pub use dijkstra::{
    dijkstra, dijkstra_with_bans, fastest_path, shortest_path_tree, CostFn, ShortestPathTree,
};
pub use ksp::{k_shortest_paths, k_shortest_paths_masked};
pub use path::Route;

//! The serving layer's request mix.
//!
//! [`PATHS`] is the fixed request cycle that the repository benchmark
//! (`citybench --workload serve`, see `BENCHMARK.json`) replays open-loop
//! against a live server, and that the keep-alive integration test sends
//! over one connection. It mixes cheap (`/healthz`) and heavy
//! (`/map/geojson`) endpoints so latency percentiles reflect the real
//! spread.

/// The fixed request cycle, one entry per served endpoint.
pub const PATHS: &[&str] = &[
    "/kpis",
    "/links",
    "/od?origin=0&dest=1",
    "/map/geojson",
    "/version",
    "/links/0",
    "/healthz",
];

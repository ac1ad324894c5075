//! # stream — rolling-window online TOD re-estimation
//!
//! The paper's OVS pipeline recovers a TOD tensor from one *batch* of
//! speed observations. This crate closes the loop a live deployment
//! needs — ingest → re-estimate → checkpoint → serve, continuously —
//! in three layers (DESIGN.md §12):
//!
//! 1. **Ingestion** ([`log`], [`window`], [`source`]) — an append-only,
//!    arrival-ordered [`ObservationLog`] of per-link speed readings,
//!    sliced into overlapping rolling windows by a [`WindowSlicer`]
//!    driven by a [`WindowSpec`] `{ length, stride, watermark }`.
//!    Observations whose every containing window has already closed are
//!    counted and dropped (`stream_late_drops_total`), never silently
//!    absorbed. Window assembly is invariant under arrival-order
//!    permutations within the watermark: each cell averages the
//!    *multiset* of its readings in a canonical order.
//! 2. **Online estimator driver** ([`driver`]) — each closed window
//!    becomes an `EstimatorInput`; stage 3 is warm-started from the
//!    previous window's parameters via `OvsTrainer::run` from `Start::Warm`
//!    (cold start on the first window or after divergence), runs under
//!    the non-finite guard so a poisoned window rolls back instead of
//!    corrupting the stream, and the result is published as the next
//!    version of the `stream-<run-id>` artifact family with window
//!    provenance (interval range, observation count, masked RMSE).
//! 3. **Serving handoff** — `cityod-serve`'s `SnapshotWatcher` follows
//!    the same family via `SnapshotSource::Family`, hot-swapping
//!    readers onto window *N*'s view while window *N+1* trains.
//!
//! The streaming invariant that makes this a *system* and not a script:
//! processing N windows in one process is **bit-identical** — final
//! model parameters and artifact fingerprints — to processing the same
//! N windows across a kill/restart at any window boundary, because the
//! warm-start weights round-trip bit-exactly through the artifact store
//! and every source replays deterministically from its seed.

#![warn(missing_docs)]

pub mod driver;
pub mod incidents;
pub mod log;
pub mod report;
pub mod source;
pub mod window;

pub use driver::{StreamConfig, StreamDriver};
pub use incidents::{incident_sweep, IncidentSweepPoint, IncidentSweepReport};
pub use log::{Observation, ObservationLog};
pub use report::{StreamReport, WindowOutcome, WindowStatus};
pub use source::{LogSource, ObservationSource, SimSource, SimSourceConfig};
pub use window::{ClosedWindow, WindowSlicer, WindowSpec};

use std::fmt;

/// Typed failure modes of the streaming subsystem.
#[derive(Debug)]
pub enum StreamError {
    /// Invalid window/stream configuration.
    Config(String),
    /// Ingestion file could not be parsed.
    Parse {
        /// 1-based line number of the offending line.
        line: usize,
        /// What was wrong with it.
        message: String,
    },
    /// Artifact store / checkpoint failure.
    Checkpoint(checkpoint::CheckpointError),
    /// Simulator / tensor / training failure.
    Roadnet(roadnet::RoadnetError),
    /// Underlying filesystem failure.
    Io(std::io::Error),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Config(msg) => write!(f, "stream configuration error: {msg}"),
            Self::Parse { line, message } => {
                write!(f, "observation log parse error at line {line}: {message}")
            }
            Self::Checkpoint(e) => write!(f, "checkpoint error: {e}"),
            Self::Roadnet(e) => write!(f, "{e}"),
            Self::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Checkpoint(e) => Some(e),
            Self::Roadnet(e) => Some(e),
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<checkpoint::CheckpointError> for StreamError {
    fn from(e: checkpoint::CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

impl From<roadnet::RoadnetError> for StreamError {
    fn from(e: roadnet::RoadnetError) -> Self {
        Self::Roadnet(e)
    }
}

impl From<std::io::Error> for StreamError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StreamError>;

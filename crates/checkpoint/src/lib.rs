//! # checkpoint — versioned model checkpoints and the artifact registry
//!
//! The persistence layer that turns the workspace from a batch of
//! retrain-everything scripts into a train-once / serve-many stack (the
//! reuse pattern production OD-estimation systems are built around — see
//! DESIGN.md §7). Three layers, bottom-up:
//!
//! 1. **[`format`]** — a versioned, checksummed, endianness-stable binary
//!    container: magic + format version + named section table + CRC32 per
//!    section. Serialisation is byte-deterministic: `save -> load -> save`
//!    reproduces the identical byte string, and every load verifies every
//!    checksum, so a corrupted artifact fails with a typed
//!    [`CheckpointError`] — never a garbage model.
//! 2. **[`codec`] / [`module`]** — encoders for the payloads that matter
//!    here: `f64` matrices (bit-exact, including the full Adam moment
//!    state via [`neural::optim::AdamSnapshot`]) and whole trainable
//!    modules reached through the deterministic `visit_params` slot
//!    ordering of `crates/neural`.
//! 3. **[`store`] / [`snapshot`]** — the [`store::ArtifactStore`]
//!    registry: names, lists, verifies and garbage-collects artifacts
//!    under a workspace directory, and records provenance metadata
//!    (config JSON, seed, git describe, loss traces) with every save.
//!    Every read by name is an [`ArtifactStore::snapshot`]: one read,
//!    every checksum verified, frozen behind an `Arc`.
//!
//! Model-specific glue (saving an `OvsModel`, warm-starting a trainer)
//! lives next to the models themselves in `ovs-core` and `baselines`;
//! this crate only knows about matrices, optimiser snapshots and bytes.
//!
//! ```
//! use checkpoint::format::{Artifact, ArtifactBuilder};
//! use neural::Matrix;
//!
//! let mut b = ArtifactBuilder::new("example");
//! b.add_matrices("weights", &[Matrix::filled(2, 3, 0.5)]);
//! let bytes = b.to_bytes();
//! let a = Artifact::from_bytes(&bytes).unwrap();
//! assert_eq!(a.kind(), "example");
//! assert_eq!(a.matrices("weights").unwrap()[0].shape(), (2, 3));
//! assert_eq!(a.to_bytes(), bytes); // byte-deterministic round trip
//! ```

#![warn(missing_docs)]

pub mod codec;
pub mod format;
pub mod module;
pub mod retry;
pub mod snapshot;
pub mod store;

pub use format::{audit_bytes, Artifact, ArtifactAudit, ArtifactBuilder, FORMAT_VERSION, MAGIC};
pub use retry::{Clock, RecordingClock, RetryPolicy, SystemClock};
pub use snapshot::{
    default_watch_interval_ms, Snapshot, SnapshotSource, SnapshotWatcher,
    DEFAULT_WATCH_INTERVAL_MS, WATCH_BACKOFF_CAP, WATCH_INTERVAL_ENV,
};
pub use store::{ArtifactStore, Provenance};

use std::fmt;

/// Typed failure modes of checkpoint parsing, verification and storage.
#[derive(Debug)]
pub enum CheckpointError {
    /// The file does not start with the checkpoint magic — it is not an
    /// artifact at all (or an artifact of a foreign tool).
    BadMagic {
        /// The first bytes actually found (up to 8).
        found: Vec<u8>,
    },
    /// The artifact was written by an incompatible format version.
    UnsupportedVersion {
        /// Version recorded in the file.
        found: u32,
        /// Highest version this build understands.
        supported: u32,
    },
    /// The byte stream ended before a structure was complete.
    Truncated {
        /// What was being read when the bytes ran out.
        context: String,
    },
    /// A section's stored CRC32 does not match its payload.
    ChecksumMismatch {
        /// Section name.
        section: String,
        /// CRC recorded in the section table.
        stored: u32,
        /// CRC computed over the payload actually present.
        computed: u32,
    },
    /// A required section is absent from the artifact.
    MissingSection {
        /// The missing section's name.
        name: String,
    },
    /// The container parsed but a payload or field is inconsistent.
    Malformed(String),
    /// A tensor shape recorded in the artifact does not match the
    /// requesting model.
    ShapeMismatch {
        /// What the loader expected.
        expected: String,
        /// What the artifact holds.
        actual: String,
    },
    /// Artifact kind mismatch: the artifact exists and verifies, but it
    /// is not the kind of object the caller asked to load.
    WrongKind {
        /// Kind the caller expected.
        expected: String,
        /// Kind recorded in the artifact.
        actual: String,
    },
    /// Underlying filesystem failure.
    Io(std::io::Error),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic { found } => {
                write!(f, "bad magic: not a checkpoint artifact (found {found:02x?})")
            }
            Self::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported checkpoint format version {found} (this build supports <= {supported})"
            ),
            Self::Truncated { context } => {
                write!(f, "truncated artifact: bytes ran out while reading {context}")
            }
            Self::ChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "checksum mismatch in section '{section}': stored {stored:#010x}, computed {computed:#010x}"
            ),
            Self::MissingSection { name } => write!(f, "missing section '{name}'"),
            Self::Malformed(msg) => write!(f, "malformed artifact: {msg}"),
            Self::ShapeMismatch { expected, actual } => {
                write!(f, "shape mismatch: expected {expected}, artifact holds {actual}")
            }
            Self::WrongKind { expected, actual } => {
                write!(f, "wrong artifact kind: expected '{expected}', found '{actual}'")
            }
            Self::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CheckpointError>;

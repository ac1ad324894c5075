//! `serve` — read-side query layer over recovered traffic OD artifacts.
//!
//! The training side of the workspace writes verified model/TOD artifacts
//! into an [`checkpoint::store::ArtifactStore`]; this crate is the
//! read side. It hosts a zero-dependency HTTP/1.1 server that answers
//! city-KPI, per-link, per-OD-pair and GeoJSON map queries out of an
//! immutable [`checkpoint::Snapshot`], hot-swapping to newer good
//! artifact versions as the trainer lands them.
//!
//! Layering (each module pure with respect to the ones above it):
//!
//! * [`http`] — request parsing, deterministic response framing, JSON
//!   primitives.
//! * [`view`] — [`view::ModelView`]: per-snapshot prerendered bodies.
//! * [`router`] — pure `(view, request) -> response` dispatch with
//!   conditional-GET (`ETag` / `If-None-Match` / `304`).
//! * [`server`] — sockets, worker threads, the snapshot watcher loop.
//! * [`load`] — [`load::PATHS`], the request mix the repository
//!   benchmark replays against a live server.
//!
//! Responses are byte-identical across thread counts because all
//! rendering happens once per snapshot in [`view::ModelView::build`];
//! request handling is lookup plus fixed-order header serialisation.

#![warn(missing_docs)]

pub mod error;
pub mod http;
pub mod load;
pub mod router;
pub mod server;
pub mod view;

pub use error::{Result, ServeError};
pub use server::{ServeOptions, Server};
pub use view::ModelView;

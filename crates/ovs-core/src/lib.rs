//! # ovs-core — the OVS model (the paper's contribution)
//!
//! OVS (Origin-destination-Volume-Speed) recovers the city-wide temporal
//! origin-destination tensor from road-segment speed observations by
//! modelling the generation chain `TOD -> volume -> speed` with three
//! learned modules (paper §IV, Figure 3):
//!
//! 1. [`tod_gen::TodGeneration`] — maps fixed Gaussian seeds through two
//!    sigmoid FC layers to a TOD tensor (Eqs. 1-2);
//! 2. [`tod2v::TodVolumeMapping`] — maps TOD to link volumes: an OD-Route
//!    FC stack (Eq. 3), a two-layer 1x3 convolution producing a traffic
//!    embedding (Eqs. 5-7), and a **dynamic attention** over lookback lags
//!    that smears each route's departures onto each downstream link
//!    according to current congestion (Eqs. 4, 8, Figure 5);
//! 3. [`v2s::VolumeSpeedMapping`] — two LSTMs plus an FC head, shared
//!    across links (Eqs. 9-11).
//!
//! Training follows the paper's pipeline (§V-E, Figure 8): stage 1 fits
//! V2S on generated (volume, speed) pairs; stage 2 fits TOD2V through the
//! frozen V2S using only the speed loss; at test time the TOD generator is
//! fitted against the *observed* speed (plus optional auxiliary losses,
//! §IV-E) and its output is the recovered TOD.
//!
//! [`TodEstimator`] is the interface every method in this workspace
//! implements — OVS here, the six baselines in the `baselines` crate.

#![warn(missing_docs)]

pub mod artifact;
pub mod aux;
pub mod config;
pub mod estimator;
pub mod model;
pub mod routes;
pub mod tod2v;
pub mod tod_gen;
pub mod trainer;
pub mod v2s;

pub use config::{OvsConfig, OvsVariant};
pub use estimator::{EstimatorInput, TodEstimator};
pub use model::OvsModel;
pub use trainer::{
    OvsTrainer, PipelineCheckpoint, RecoveryPolicy, RunOptions, Stage, StageState, Start,
    TrainError, TrainReport, TrainResult,
};

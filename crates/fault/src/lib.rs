//! # fault — deterministic fault injection for the OVS pipeline
//!
//! The paper's pipeline assumes clean inputs: every sensor reports,
//! every loss is finite, every checkpoint byte survives. This crate is
//! the adversary that removes those assumptions — *reproducibly*. A
//! seeded [`FaultPlan`] describes an outage scenario at three layers:
//!
//! * **observation** ([`observation`]) — per-link sensor dropout, additive
//!   Gaussian noise, stuck/stale readings and `NaN`/`Inf` corruption of
//!   the observed speed tensor, applied before fitting;
//! * **training** ([`training`]) — forced non-finite losses and
//!   interrupted checkpoint writes at chosen steps, driven through the
//!   trainer's tamper tap and exercising its rollback-and-retry guard;
//! * **storage** ([`storage`]) — seeded bit-flips and truncation of
//!   checkpoint artifacts at rest, exercising the store's audit, retry
//!   and quarantine paths;
//! * **network** ([`network`]) — a declarative incident timeline (road
//!   closures, capacity-cutting incidents, signal outages) replayed
//!   deterministically by the simulator mid-run, plus a severity ×
//!   duration sweep template for degradation/recovery grids.
//!
//! Everything derives from [`FaultPlan::seed`] through per-index RNG
//! streams ([`neural::rng::Rng64::for_index`]), so any scenario —
//! including the damage pattern of a 30% sensor outage over a
//! 10 000-link network — replays bit-identically at any worker-thread
//! count. [`report::degradation_report`] turns a plan into the paper-style
//! robustness artifact: recovered-TOD accuracy as a function of dropout
//! fraction and noise level, with the speed RMSE masked to surviving
//! sensors. Every injection and recovery event lands in stable `obs`
//! counters (`fault_*`, `trainer_*`, `store_*`), so a fault run's
//! `to_json_stable()` export is itself a deterministic artifact.

#![warn(missing_docs)]

pub mod network;
pub mod observation;
pub mod plan;
pub mod report;
pub mod storage;
pub mod training;

pub use network::{IncidentSpec, IncidentSweep, NetworkFaults};
pub use observation::{corrupt_observation, CorruptedObservation, ObservationStats};
pub use plan::{
    FaultPlan, ObservationFaults, PlanError, StageSel, StorageFaults, SweepGrid, TrainingFaults,
};
pub use report::{degradation_report, DegradationPoint, DegradationReport};
pub use storage::{corrupt_artifact_bytes, corrupt_artifact_file};
pub use training::{CkptInterrupter, TrainingFaultInjector};

//! The online estimator driver: closed windows in, artifact versions out.
//!
//! For every closed window the driver assembles an `EstimatorInput` and
//! re-runs the paper's stage 3 (the test-time TOD-generator fit). Stages
//! 1-2 are *never* re-trained online — the V2S and TOD2V mappings encode
//! road physics, which does not drift window to window; what drifts is
//! demand, and demand lives entirely in the generator the fit optimises.
//!
//! Three ideas make the loop production-shaped:
//!
//! * **Warm starts.** Window `w+1` imports window `w`'s full model and
//!   re-fits only the generator (`OvsTrainer::run` from `Start::Warm`), cutting
//!   convergence to a fraction of a cold start's steps. The first window
//!   — and any window after a failure — runs the full cold pipeline.
//! * **Guarded fits.** Every fit runs under the non-finite guard: a
//!   poisoned window rolls back and retries with a reduced learning rate,
//!   and if it still diverges the warm attempt falls back to a cold
//!   start; if *that* diverges too the window is marked failed and the
//!   stream carries on — a bad window never corrupts the family.
//! * **Versioned publishing.** Each successful window is saved as the
//!   next version of the `stream-<run-id>` family with window provenance
//!   (interval range, observation count, masked RMSE) in a dedicated
//!   artifact section, so the serving layer's `SnapshotWatcher` — and a
//!   restarted driver — can pick up exactly where the stream left off.
//!
//! **Restart equivalence.** Running N windows in one process is
//! bit-identical (final weights *and* per-version artifact fingerprints)
//! to killing the driver at any window boundary and starting a fresh one:
//! the replacement replays the deterministic source, skips estimation for
//! windows at or below the newest published version, imports that
//! version's weights (the codec round-trips them bit-exactly) and
//! continues warm — the property `tests/restart_equivalence.rs` proves at
//! 1 and 4 threads.

use crate::report::{StreamReport, WindowOutcome, WindowStatus};
use crate::source::ObservationSource;
use crate::window::{ClosedWindow, WindowSlicer, WindowSpec};
use crate::{Result, StreamError};
use checkpoint::{ArtifactStore, RetryPolicy, SystemClock};
use datagen::{dataset::simulate, Dataset};
use eval::metrics::masked_speed_rmse;
use neural::Matrix;
use ovs_core::artifact::{model_provenance, model_weights, save_model, INCIDENTS_SECTION};
use ovs_core::config::OvsConfig;
use ovs_core::estimator::{matrix_to_tod, EstimatorInput};
use ovs_core::trainer::{OvsTrainer, RecoveryPolicy, RunOptions, Stage, Start, Tamper, TrainError};
// lint: allow(determinism) — wall clock feeds the per-window timing
// histogram only; estimation and artifacts never see it.
use std::time::Instant;

/// Artifact section holding per-window provenance:
/// `[window, start, end, observations, masked_rmse, warm, fit_steps]`.
pub const STREAM_WINDOW_SECTION: &str = "stream_window";

/// Fraction of the first-to-final loss gap a fit step must close for
/// [`steps_to_tol`]: step `s` qualifies once
/// `loss[s] <= final + TOL_FRACTION * (first - final)`.
const TOL_FRACTION: f64 = 0.05;

/// Per-window fault-injection tap: `(window, stage, step, loss, grad)`,
/// mirroring `RunOptions::tamper` with the window index prepended.
pub type WindowTamper<'a> = Box<dyn FnMut(usize, Stage, usize, &mut f64, &mut f64) + 'a>;

/// Configuration of one streaming run.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Identifies the artifact family (`stream-<run_id>`) all windows
    /// publish into; a restarted driver with the same id resumes it.
    pub run_id: String,
    /// How many windows to process before returning.
    pub windows: usize,
    /// Window geometry; `spec.length` must equal the dataset's interval
    /// count (the model geometry estimation runs at).
    pub spec: WindowSpec,
    /// Model/trainer configuration shared by every window.
    pub ovs: OvsConfig,
    /// Versions to keep when garbage-collecting after each publish
    /// (0 = never collect).
    pub keep_versions: usize,
    /// Non-finite recovery policy every fit runs under.
    pub recovery: RecoveryPolicy,
    /// Network-incident timeline the stream runs under, in stream ticks
    /// (tick 0 = start of interval 0). The same schedule must be
    /// installed on the [`crate::SimSource`] via
    /// [`crate::SimSource::with_incidents`]; the driver records it as
    /// per-version provenance so the serving layer can report which
    /// incidents a published model was estimated under.
    pub incidents: simulator::IncidentSchedule,
}

impl StreamConfig {
    /// The artifact family this run publishes into.
    pub fn family(&self) -> String {
        format!("stream-{}", self.run_id)
    }
}

/// First fit step whose loss closed `1 - TOL_FRACTION` of the gap between
/// the first and final loss — a convergence-speed measure that, unlike
/// the raw step count, is independent of the early-stopping budget, so
/// warm and cold fits compare fairly.
pub fn steps_to_tol(losses: &[f64]) -> Option<usize> {
    let first = *losses.first()?;
    let last = *losses.last()?;
    if !first.is_finite() || !last.is_finite() {
        return None;
    }
    let threshold = last + TOL_FRACTION * (first - last);
    losses.iter().position(|&l| l <= threshold)
}

/// The rolling-window re-estimation loop. See the module docs.
pub struct StreamDriver<'a> {
    ds: &'a Dataset,
    cfg: StreamConfig,
    trainer: OvsTrainer,
    tamper: Option<WindowTamper<'a>>,
    prev_weights: Option<Vec<Matrix>>,
}

impl<'a> StreamDriver<'a> {
    /// A driver re-estimating `ds`'s demand window by window.
    pub fn new(ds: &'a Dataset, cfg: StreamConfig) -> Result<Self> {
        if cfg.windows == 0 {
            return Err(StreamError::Config("windows must be >= 1".into()));
        }
        if cfg.spec.length != ds.n_intervals() {
            return Err(StreamError::Config(format!(
                "window length ({}) must equal the dataset's interval count ({}): \
                 estimation runs at the dataset's model geometry",
                cfg.spec.length,
                ds.n_intervals()
            )));
        }
        ArtifactStore::validate_name(&cfg.family())?;
        cfg.incidents
            .validate(ds.n_links(), ds.net.num_nodes())
            .map_err(StreamError::Config)?;
        let trainer = OvsTrainer::new(cfg.ovs.clone());
        Ok(Self {
            ds,
            cfg,
            trainer,
            tamper: None,
            prev_weights: None,
        })
    }

    /// Installs a fault-injection tap forwarded into every window's fit
    /// (the deterministic poisoning hook the divergence tests drive).
    // lint: allow(dead_api) — fault-injection hook the stream divergence tests drive
    pub fn with_tamper(mut self, tamper: WindowTamper<'a>) -> Self {
        self.tamper = Some(tamper);
        self
    }

    /// The run configuration.
    pub fn config(&self) -> &StreamConfig {
        &self.cfg
    }

    /// Consumes `source` until [`StreamConfig::windows`] windows have
    /// closed (or the source is exhausted), estimating and publishing
    /// each one. If the family already holds published versions, windows
    /// at or below the newest published index are replayed without
    /// estimation and the newest version's weights seed the first warm
    /// start — the restart path.
    pub fn run(
        &mut self,
        store: &ArtifactStore,
        source: &mut dyn ObservationSource,
    ) -> Result<StreamReport> {
        let family = self.cfg.family();
        let mut resumed_from = None;
        let mut resume_after = None;
        if let Some(snapshot) = store.latest_good(&family, &RetryPolicy::default(), &SystemClock)? {
            let section = snapshot.artifact().f64s(STREAM_WINDOW_SECTION)?;
            let last = *section.first().ok_or_else(|| {
                StreamError::Config(format!(
                    "artifact '{}' has an empty {STREAM_WINDOW_SECTION} section",
                    snapshot.name()
                ))
            })? as usize;
            self.prev_weights = Some(model_weights(snapshot.artifact(), &self.cfg.ovs)?);
            resumed_from = Some(last);
            resume_after = Some(last);
            obs::global().counter("stream_resumes_total").inc();
        }

        let mut slicer = WindowSlicer::new(self.cfg.spec, self.ds.n_links());
        let mut outcomes: Vec<WindowOutcome> = Vec::with_capacity(self.cfg.windows);
        'ingest: loop {
            let batch = source.next_batch()?;
            // An empty batch is end-of-stream: drain the started windows
            // and stop (a SimSource never gets here; a LogSource does).
            let end_of_stream = batch.is_empty();
            let closed = if end_of_stream {
                slicer.flush()
            } else {
                let mut closed = Vec::new();
                for obs in batch {
                    closed.extend(slicer.push(obs));
                }
                closed
            };
            for window in closed {
                if window.index >= self.cfg.windows {
                    break 'ingest;
                }
                let outcome = self.process(store, &family, window, resume_after)?;
                outcomes.push(outcome);
                if outcomes.len() >= self.cfg.windows {
                    break 'ingest;
                }
            }
            if end_of_stream {
                break;
            }
        }

        Ok(StreamReport {
            run_id: self.cfg.run_id.clone(),
            family,
            windows: outcomes,
            late_drops: slicer.late_drops(),
            invalid_drops: slicer.invalid_drops(),
            resumed_from,
        })
    }

    /// Handles one closed window: skip (restart replay), empty, or
    /// estimate-and-publish.
    fn process(
        &mut self,
        store: &ArtifactStore,
        family: &str,
        window: ClosedWindow,
        resume_after: Option<usize>,
    ) -> Result<WindowOutcome> {
        let mut outcome = WindowOutcome {
            window: window.index,
            start: window.start,
            end: window.end,
            observations: window.observations,
            warm: false,
            fit_steps: 0,
            steps_to_tol: None,
            final_fit_loss: None,
            masked_rmse: None,
            artifact: None,
            fingerprint: None,
            status: WindowStatus::Empty,
            train_seconds: 0.0,
        };

        // Restart replay: this window's result is already published (it
        // is at or below the version the resume loaded), so the replay
        // only has to reconstruct ingestion state, not re-estimate.
        if resume_after.is_some_and(|last| window.index <= last) {
            outcome.status = WindowStatus::Skipped;
            return Ok(outcome);
        }

        // A window with no observations has nothing to fit against:
        // publish nothing, carry the previous model to the next window.
        if window.is_empty() {
            return Ok(outcome);
        }

        let input = EstimatorInput::builder(&self.ds.net, &self.ds.ods)
            .interval_s(self.ds.sim_config.interval_s)
            .sim_seed(self.ds.sim_config.seed)
            .train(&self.ds.train)
            .observed_speed(&window.observed)
            .build();

        let reg = obs::global();
        let recovery = self.cfg.recovery;
        // lint: allow(determinism) — wall clock feeds the timing histogram
        // only.
        let started = Instant::now();

        // Warm attempt from the previous window's model; on divergence,
        // fall back to a full cold pipeline before giving up on the
        // window.
        let wi = window.index;
        let mut bound = self.tamper.as_mut().map(|h| {
            move |stage: Stage, step: usize, loss: &mut f64, grad: &mut f64| {
                h(wi, stage, step, loss, grad)
            }
        });
        let mut attempt = |start: Start<'_>| {
            self.trainer.run(
                &input,
                RunOptions {
                    start,
                    recovery,
                    tamper: bound.as_mut().map(|c| c as &mut Tamper),
                    ..RunOptions::default()
                },
            )
        };
        let mut warm = self.prev_weights.is_some();
        let trained = match self
            .prev_weights
            .as_deref()
            .map(|w| attempt(Start::Warm(w)))
        {
            Some(Err(TrainError::Diverged { .. })) | None => {
                if warm {
                    warm = false;
                    reg.counter("stream_divergences_total").inc();
                }
                attempt(Start::Cold)
            }
            Some(other) => other,
        };

        let (mut model, report) = match trained {
            Ok(ok) => ok,
            Err(TrainError::Diverged { .. }) => {
                // Even the cold fallback diverged: mark the window failed
                // and restart cold on the next one. Nothing is published,
                // so readers keep the last good window.
                reg.counter("stream_divergences_total").inc();
                reg.counter("stream_windows_failed_total").inc();
                self.prev_weights = None;
                outcome.status = WindowStatus::Failed;
                outcome.warm = warm;
                outcome.train_seconds = started.elapsed().as_secs_f64();
                return Ok(outcome);
            }
            Err(e) => return Err(StreamError::Roadnet(e.into())),
        };
        reg.counter(if warm {
            "stream_warm_starts_total"
        } else {
            "stream_cold_starts_total"
        })
        .inc();

        // Score the recovered demand against what was actually observed:
        // simulate it and compare speeds on observed cells only.
        let tod = matrix_to_tod(&model.recovered_tod());
        let sim = simulate(&self.ds.net, &self.ds.ods, &self.ds.sim_config, &tod)?;
        let rmse = masked_speed_rmse(&window.observed, &sim.speed, &window.mask)?;

        // Publish as the family's next version, window provenance inside
        // the artifact (it must survive independently of the sidecar and
        // feed the restart path).
        let mut builder = save_model(&mut model, Some(&tod))?;
        builder.add_f64s(
            STREAM_WINDOW_SECTION,
            &[
                window.index as f64,
                window.start as f64,
                window.end as f64,
                window.observations as f64,
                rmse,
                if warm { 1.0 } else { 0.0 },
                report.fit_losses.len() as f64,
            ],
        );
        // Record the incident timeline this window was estimated under,
        // with each incident's status relative to the window's tick range.
        if !self.cfg.incidents.is_empty() {
            let tpi = self.ds.sim_config.ticks_per_interval();
            let (ws, we) = (window.start * tpi, window.end * tpi);
            let mut rows = Vec::with_capacity(self.cfg.incidents.len() * 7);
            for inc in self.cfg.incidents.incidents() {
                let status = if inc.end_tick() <= ws {
                    0.0 // cleared before this window
                } else if inc.onset_tick >= we {
                    2.0 // scheduled after it
                } else {
                    1.0 // active during it
                };
                rows.extend_from_slice(&[
                    inc.kind.code() as f64,
                    inc.target.code() as f64,
                    inc.target.index() as f64,
                    inc.onset_tick as f64,
                    inc.duration_ticks as f64,
                    inc.severity,
                    status,
                ]);
            }
            builder.add_f64s(INCIDENTS_SECTION, &rows);
        }
        let mut provenance = model_provenance(&mut model, &report)?;
        provenance.note = format!(
            "stream window {} [{},{}) obs={} {} rmse={rmse:.4}",
            window.index,
            window.start,
            window.end,
            window.observations,
            if warm { "warm" } else { "cold" },
        );
        let name = store.save_versioned(family, &builder, &provenance)?;
        let snapshot = store.snapshot(&name)?;
        if self.cfg.keep_versions > 0 {
            store.gc(family, self.cfg.keep_versions)?;
        }

        let train_seconds = started.elapsed().as_secs_f64();
        reg.counter("stream_published_total").inc();
        reg.timing_histogram("stream_window_train_seconds", obs::DURATION_BUCKETS)
            .observe(train_seconds);
        reg.histogram("stream_window_masked_rmse", obs::LOSS_BUCKETS)
            .observe(rmse);

        self.prev_weights = Some(model.export_weights());
        outcome.warm = warm;
        outcome.fit_steps = report.fit_losses.len();
        outcome.steps_to_tol = steps_to_tol(&report.fit_losses);
        outcome.final_fit_loss = report.fit_losses.last().copied();
        outcome.masked_rmse = Some(rmse);
        outcome.fingerprint = Some(snapshot.fingerprint().to_string());
        outcome.artifact = Some(name);
        outcome.status = WindowStatus::Published;
        outcome.train_seconds = train_seconds;
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_to_tol_measures_gap_closure() {
        // Gap 10 -> 0; threshold 0 + 0.05*10 = 0.5; first step <= 0.5 is
        // index 3.
        let losses = [10.0, 4.0, 1.0, 0.4, 0.1, 0.0];
        assert_eq!(steps_to_tol(&losses), Some(3));
        // Flat trace converges immediately.
        assert_eq!(steps_to_tol(&[2.0, 2.0]), Some(0));
        assert_eq!(steps_to_tol(&[]), None);
        assert_eq!(steps_to_tol(&[f64::NAN, 1.0]), None);
    }

    #[test]
    fn stream_config_family_and_validation() {
        let cfg = StreamConfig {
            run_id: "demo".into(),
            windows: 3,
            spec: WindowSpec::new(4, 2, 1).unwrap(),
            ovs: OvsConfig::tiny(),
            keep_versions: 0,
            recovery: RecoveryPolicy::default(),
            incidents: simulator::IncidentSchedule::default(),
        };
        assert_eq!(cfg.family(), "stream-demo");
    }
}

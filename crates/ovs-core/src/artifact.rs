//! Checkpoint-artifact glue for the OVS model (see `crates/checkpoint`).
//!
//! Two artifact kinds live here:
//!
//! * `"ovs-model"` — a whole trained pipeline: the full config, every
//!   parameter matrix of the three modules, and (optionally) the
//!   recovered TOD tensor. [`load_model`] rebuilds the model from the
//!   *recorded* config — including the RNG seed, so the generator's
//!   Gaussian seeds regenerate identically and the reloaded model
//!   reproduces the recovered TOD bit-exactly.
//! * `"ovs-pipeline"` — an in-flight training snapshot
//!   ([`crate::trainer::PipelineCheckpoint`]): full model weights, the
//!   running stage's state (weights, Adam moments, loss trace,
//!   early-stopping counters) and the traces of completed stages.
//!
//! Every loader validates the artifact's recorded structural
//! configuration against the requesting one and refuses on mismatch
//! *before* touching any weights — a checkpoint can never be silently
//! grafted onto a differently-shaped model.

use crate::config::OvsConfig;
use crate::estimator::{matrix_to_tod, tod_to_matrix};
use crate::model::OvsModel;
use crate::trainer::{PipelineCheckpoint, Stage, StageState, TrainReport};
use checkpoint::format::{Artifact, ArtifactBuilder};
use checkpoint::store::Provenance;
use checkpoint::CheckpointError;
use roadnet::{OdSet, RoadNetwork, TodTensor};

/// Artifact kind of a trained OVS model.
pub const OVS_MODEL_KIND: &str = "ovs-model";

/// Artifact kind of an in-flight pipeline snapshot.
pub const PIPELINE_KIND: &str = "ovs-pipeline";

/// Artifact section recording the network-incident timeline a model
/// version was estimated under: rows of 7 f64s per incident,
/// `[kind_code, target_code, target_index, onset_tick, duration_ticks,
/// severity, status]` with status 0 = cleared before the window,
/// 1 = active during it, 2 = scheduled after it. The constant lives here
/// (not in the stream crate that writes it) so the serving layer can read
/// the section without depending on streaming internals.
pub const INCIDENTS_SECTION: &str = "network_incidents";

/// JSON of only the *structural* configuration fields — the ones that
/// determine parameter shapes and data flow. Two configs with equal
/// structural JSON build weight-compatible models; training
/// hyperparameters (learning rate, epochs, loss weights, scales) are
/// deliberately excluded so a checkpoint can be fine-tuned under
/// different training settings.
pub fn structural_config_json(cfg: &OvsConfig) -> String {
    format!(
        concat!(
            "{{\"tod_hidden\":{},\"route_hidden\":{},\"k_routes\":{},",
            "\"od_route_fc\":{},\"conv_channels\":{},\"attention_window\":{},",
            "\"lstm_hidden\":{},\"variant\":\"{:?}\"}}"
        ),
        cfg.tod_hidden,
        cfg.route_hidden,
        cfg.k_routes,
        cfg.od_route_fc,
        cfg.conv_channels,
        cfg.attention_window,
        cfg.lstm_hidden,
        cfg.variant,
    )
}

fn config_json(cfg: &OvsConfig) -> checkpoint::Result<String> {
    serde_json::to_string(cfg)
        .map_err(|e| CheckpointError::Malformed(format!("config encode: {e}")))
}

fn config_from_artifact(artifact: &Artifact) -> checkpoint::Result<OvsConfig> {
    let json = artifact.str_section("config")?;
    serde_json::from_str(&json)
        .map_err(|e| CheckpointError::Malformed(format!("recorded config: {e}")))
}

/// Refuses an artifact whose recorded structural config differs from the
/// requesting one.
fn check_structure(recorded: &OvsConfig, requesting: &OvsConfig) -> checkpoint::Result<()> {
    let rec = structural_config_json(recorded);
    let req = structural_config_json(requesting);
    if rec != req {
        return Err(CheckpointError::ShapeMismatch {
            expected: req,
            actual: rec,
        });
    }
    Ok(())
}

/// Serialises a trained model (and optionally its recovered TOD) into an
/// `"ovs-model"` artifact.
pub fn save_model(
    model: &mut OvsModel,
    recovered: Option<&TodTensor>,
) -> checkpoint::Result<ArtifactBuilder> {
    let mut b = ArtifactBuilder::new(OVS_MODEL_KIND);
    b.add_str("config", &config_json(model.config())?);
    b.add_f64s("geometry", &[model.intervals() as f64, model.interval_s()]);
    b.add_matrices("weights", &model.export_weights());
    if let Some(tod) = recovered {
        b.add_matrix("recovered_tod", &tod_to_matrix(tod));
    }
    Ok(b)
}

/// Rebuilds a full model from an `"ovs-model"` artifact: the recorded
/// config (seed included, so the generator's Gaussian seeds regenerate
/// identically) plus the recorded weights. The reloaded model's
/// `recovered_tod()` is bit-identical to the saved model's.
///
/// The geometry is checked before anything is built: the interval count
/// must be a whole number no larger than the number of stored weight
/// values (every variant's generator owns at least one weight per
/// interval), and the interval length finite and positive.
pub fn load_model(
    net: &RoadNetwork,
    ods: &OdSet,
    artifact: &Artifact,
) -> checkpoint::Result<OvsModel> {
    artifact.expect_kind(OVS_MODEL_KIND)?;
    let cfg = config_from_artifact(artifact)?;
    let weights = artifact.matrices("weights")?;
    let n_values = weights.iter().map(neural::Matrix::len).sum::<usize>();
    let geom = artifact.f64s("geometry")?;
    let (intervals, interval_s) = match geom.as_slice() {
        &[n, s]
            if n.fract() == 0.0
                && (1.0..=n_values as f64).contains(&n)
                && s.is_finite()
                && s > 0.0 =>
        {
            (n as usize, s)
        }
        _ => {
            return Err(CheckpointError::Malformed(format!(
                "geometry section must be [intervals, interval_s] with a whole interval \
                 count in 1..={n_values} and a finite interval length > 0, got {geom:?}"
            )))
        }
    };
    let mut model = OvsModel::new(net, ods, intervals, interval_s, cfg)
        .map_err(|e| CheckpointError::Malformed(format!("model rebuild: {e}")))?;
    model
        .import_weights(&weights)
        .map_err(|e| CheckpointError::ShapeMismatch {
            expected: "weights matching the model's parameter slots".into(),
            actual: e.to_string(),
        })?;
    Ok(model)
}

/// Extracts an `"ovs-model"` artifact's weight matrices after validating
/// its recorded structural config against `cfg` — the warm-start path:
/// feed the result to [`crate::trainer::OvsTrainer::run`] as
/// [`crate::trainer::Start::Warm`].
pub fn model_weights(
    artifact: &Artifact,
    cfg: &OvsConfig,
) -> checkpoint::Result<Vec<neural::Matrix>> {
    artifact.expect_kind(OVS_MODEL_KIND)?;
    let recorded = config_from_artifact(artifact)?;
    check_structure(&recorded, cfg)?;
    artifact.matrices("weights")
}

/// The recovered TOD stored in an `"ovs-model"` artifact, if any.
pub fn recovered_tod(artifact: &Artifact) -> checkpoint::Result<Option<TodTensor>> {
    if !artifact.has("recovered_tod") {
        return Ok(None);
    }
    Ok(Some(matrix_to_tod(&artifact.matrix("recovered_tod")?)))
}

/// Builds the provenance record for a trained model: config JSON, seed,
/// parameter shape signature, and the loss traces of every stage.
pub fn model_provenance(
    model: &mut OvsModel,
    report: &TrainReport,
) -> checkpoint::Result<Provenance> {
    let mut p = Provenance::new(
        OVS_MODEL_KIND,
        &config_json(model.config())?,
        model.config().seed,
    );
    p.shape_sig = model.shape_signature();
    p.v2s_losses = report.v2s_losses.clone();
    p.tod2v_losses = report.tod2v_losses.clone();
    p.fit_losses = report.fit_losses.clone();
    Ok(p)
}

/// Serialises a whole-pipeline training snapshot into an
/// `"ovs-pipeline"` artifact.
// lint: allow(dead_api) — on-disk form of `PipelineCheckpoint` the self-healing suite corrupts and heals
pub fn save_pipeline(
    cp: &PipelineCheckpoint,
    cfg: &OvsConfig,
) -> checkpoint::Result<ArtifactBuilder> {
    let mut b = ArtifactBuilder::new(PIPELINE_KIND);
    b.add_str("config", &config_json(cfg)?);
    b.add_matrices("model_weights", &cp.model_weights);
    b.add_str("stage", cp.state.stage.tag());
    b.add_matrices("stage_weights", &cp.state.weights);
    b.add_adam("stage_opt", &cp.state.opt);
    b.add_f64s("stage_losses", &cp.state.losses);
    // f64 holds every usize this loop could reach exactly (< 2^53), and
    // `best` may be +inf, which the bit-pattern codec round-trips.
    b.add_f64s(
        "stage_scalars",
        &[
            cp.state.step as f64,
            cp.state.best,
            cp.state.since_best as f64,
        ],
    );
    b.add_f64s("v2s_losses", &cp.v2s_losses);
    b.add_f64s("tod2v_losses", &cp.tod2v_losses);
    Ok(b)
}

/// Reconstructs a pipeline snapshot from an `"ovs-pipeline"` artifact,
/// refusing if its recorded structural config mismatches `cfg` (the
/// config of the run being resumed).
// lint: allow(dead_api) — on-disk form of `PipelineCheckpoint` the self-healing suite corrupts and heals
pub fn load_pipeline(
    artifact: &Artifact,
    cfg: &OvsConfig,
) -> checkpoint::Result<PipelineCheckpoint> {
    artifact.expect_kind(PIPELINE_KIND)?;
    let recorded = config_from_artifact(artifact)?;
    check_structure(&recorded, cfg)?;
    let tag = artifact.str_section("stage")?;
    let stage = Stage::from_tag(&tag)
        .ok_or_else(|| CheckpointError::Malformed(format!("unknown stage tag '{tag}'")))?;
    let scalars = artifact.f64s("stage_scalars")?;
    let (step, best, since_best) = match scalars.as_slice() {
        &[step, best, since] if step >= 0.0 && since >= 0.0 => (step, best, since),
        _ => {
            return Err(CheckpointError::Malformed(format!(
                "stage_scalars must be [step, best, since_best], got {scalars:?}"
            )))
        }
    };
    Ok(PipelineCheckpoint {
        model_weights: artifact.matrices("model_weights")?,
        state: StageState {
            stage,
            step: step as usize,
            weights: artifact.matrices("stage_weights")?,
            opt: artifact.adam("stage_opt")?,
            losses: artifact.f64s("stage_losses")?,
            best,
            since_best: since_best as usize,
        },
        v2s_losses: artifact.f64s("v2s_losses")?,
        tod2v_losses: artifact.f64s("tod2v_losses")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OvsVariant;
    use roadnet::presets::synthetic_grid;

    fn model_with(cfg: OvsConfig) -> (RoadNetwork, OdSet, OvsModel) {
        let net = synthetic_grid();
        let ods = OdSet::all_pairs(&net);
        let model = OvsModel::new(&net, &ods, 6, 600.0, cfg).unwrap();
        (net, ods, model)
    }

    #[test]
    fn model_artifact_round_trip_is_bit_exact() {
        let (net, ods, mut a) = model_with(OvsConfig::tiny().with_seed(11));
        let tod = matrix_to_tod(&a.recovered_tod());
        let bytes = save_model(&mut a, Some(&tod)).unwrap().to_bytes();
        let artifact = Artifact::from_bytes(&bytes).unwrap();
        let mut b = load_model(&net, &ods, &artifact).unwrap();
        // Same weights, same Gaussian seeds -> identical recovered TOD.
        assert_eq!(a.export_weights(), b.export_weights());
        assert_eq!(a.recovered_tod(), b.recovered_tod());
        let stored = recovered_tod(&artifact).unwrap().unwrap();
        assert_eq!(tod_to_matrix(&stored), a.recovered_tod());
        // And saving the reloaded model reproduces the identical bytes.
        let bytes2 = save_model(&mut b, Some(&stored)).unwrap().to_bytes();
        assert_eq!(bytes2, bytes);
    }

    #[test]
    fn mismatched_structure_is_refused_before_weights() {
        let (net, ods, mut a) = model_with(OvsConfig::tiny());
        let bytes = save_model(&mut a, None).unwrap().to_bytes();
        let artifact = Artifact::from_bytes(&bytes).unwrap();
        // Different hidden width.
        let mut wide = OvsConfig::tiny();
        wide.lstm_hidden *= 2;
        assert!(matches!(
            model_weights(&artifact, &wide),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
        // Different variant.
        let no_v2s = OvsConfig::tiny().with_variant(OvsVariant::NoV2S);
        assert!(matches!(
            model_weights(&artifact, &no_v2s),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
        // Wrong kind.
        let other = Artifact::from_bytes(&ArtifactBuilder::new("baseline-nn").to_bytes()).unwrap();
        assert!(matches!(
            model_weights(&other, a.config()),
            Err(CheckpointError::WrongKind { .. })
        ));
        assert!(matches!(
            load_model(&net, &ods, &other),
            Err(CheckpointError::WrongKind { .. })
        ));
    }

    /// A copy of an `"ovs-model"` artifact with its config, geometry and
    /// weights replaced — the form an older or foreign writer leaves.
    fn rewritten(
        artifact: &Artifact,
        config: &str,
        geometry: &[f64],
        weights: &[neural::Matrix],
    ) -> Artifact {
        let mut b = ArtifactBuilder::new(OVS_MODEL_KIND);
        b.add_str("config", config);
        b.add_f64s("geometry", geometry);
        b.add_matrices("weights", weights);
        b.add_matrix("recovered_tod", &artifact.matrix("recovered_tod").unwrap());
        Artifact::from_bytes(&b.to_bytes()).unwrap()
    }

    /// The saved model's config JSON with the `rnn_kind` field that
    /// `OvsConfig` carried (between `lstm_hidden` and `lr`) before the
    /// recurrent cell became fixed.
    fn config_with_rnn_kind(artifact: &Artifact, kind: &str) -> String {
        let json = artifact.str_section("config").unwrap();
        assert!(!json.contains("rnn_kind"));
        json.replacen("\"lr\":", &format!("\"rnn_kind\":\"{kind}\",\"lr\":"), 1)
    }

    fn saved(model: &mut OvsModel) -> Artifact {
        let tod = matrix_to_tod(&model.recovered_tod());
        Artifact::from_bytes(&save_model(model, Some(&tod)).unwrap().to_bytes()).unwrap()
    }

    #[test]
    fn load_model_refuses_implausible_geometry_before_building() {
        let (net, ods, mut a) = model_with(OvsConfig::tiny().with_seed(3));
        let artifact = saved(&mut a);
        let config = artifact.str_section("config").unwrap();
        let weights = artifact.matrices("weights").unwrap();
        for geometry in [
            [1e300, 600.0],
            [2f64.powi(40), 600.0],
            [2.5, 600.0],
            [0.0, 600.0],
            [f64::NAN, 600.0],
            [6.0, 0.0],
            [6.0, -600.0],
            [6.0, f64::INFINITY],
        ] {
            let bad = rewritten(&artifact, &config, &geometry, &weights);
            assert!(
                matches!(
                    load_model(&net, &ods, &bad),
                    Err(CheckpointError::Malformed(_))
                ),
                "geometry {geometry:?} must be refused as malformed"
            );
        }
        let good = rewritten(&artifact, &config, &[6.0, 600.0], &weights);
        let mut b = load_model(&net, &ods, &good).unwrap();
        assert_eq!(b.recovered_tod(), a.recovered_tod());
    }

    #[test]
    fn artifacts_recording_an_lstm_rnn_kind_still_load() {
        let (net, ods, mut a) = model_with(OvsConfig::tiny().with_seed(5));
        let artifact = saved(&mut a);
        let weights = artifact.matrices("weights").unwrap();
        let config = config_with_rnn_kind(&artifact, "Lstm");
        let old = rewritten(&artifact, &config, &[6.0, 600.0], &weights);
        let mut b = load_model(&net, &ods, &old).unwrap();
        assert_eq!(b.recovered_tod(), a.recovered_tod());
        assert_eq!(model_weights(&old, a.config()).unwrap(), weights);
    }

    #[test]
    fn artifacts_recording_a_gru_are_refused_as_shape_mismatches() {
        let (net, ods, mut a) = model_with(OvsConfig::tiny());
        let artifact = saved(&mut a);
        let h = a.config().lstm_hidden;
        // The GRU's slots were the LSTM's with three gates instead of
        // four: each V2S recurrent weight and bias had `3h` columns.
        let mut weights = artifact.matrices("weights").unwrap();
        let recurrent = weights.len() - 8..weights.len() - 2;
        for w in &mut weights[recurrent] {
            assert_eq!(w.cols(), 4 * h);
            *w = neural::Matrix::from_fn(w.rows(), 3 * h, |r, c| w.get(r, c));
        }
        let config = config_with_rnn_kind(&artifact, "Gru");
        let gru = rewritten(&artifact, &config, &[6.0, 600.0], &weights);
        assert!(matches!(
            load_model(&net, &ods, &gru),
            Err(CheckpointError::ShapeMismatch { .. })
        ));
        // The recorded config parses (the stale `rnn_kind` is ignored), so
        // the warm-start path hands the weights over and the model's own
        // slot check refuses them, leaving it untouched.
        let stale = model_weights(&gru, a.config()).unwrap();
        let (_, _, mut b) = model_with(OvsConfig::tiny());
        let before = b.export_weights();
        assert!(matches!(
            b.import_weights(&stale),
            Err(roadnet::RoadnetError::ShapeMismatch { .. })
        ));
        assert_eq!(b.export_weights(), before);
    }

    #[test]
    fn structural_json_ignores_training_hyperparameters() {
        let a = OvsConfig::tiny();
        let mut b = OvsConfig::tiny().with_seed(999);
        b.lr *= 10.0;
        b.epochs_fit += 100;
        assert_eq!(structural_config_json(&a), structural_config_json(&b));
        let mut c = OvsConfig::tiny();
        c.attention_window += 1;
        assert_ne!(structural_config_json(&a), structural_config_json(&c));
    }
}

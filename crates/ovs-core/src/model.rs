//! The assembled OVS model (paper Figure 3).

use crate::config::OvsConfig;
use crate::routes::RouteTable;
use crate::tod2v::TodVolumeMapping;
use crate::tod_gen::TodGeneration;
use crate::v2s::VolumeSpeedMapping;
use checkpoint::{module, CheckpointError};
use neural::rng::Rng64;
use neural::{Matrix, Workspace};
use roadnet::{OdSet, Result, RoadNetwork, RoadnetError};

/// The three-module OVS model. Modules are exposed individually because
/// the training pipeline (§V-E) trains them in separate stages with
/// different parts frozen.
pub struct OvsModel {
    /// TOD Generation (§IV-B).
    pub tod_gen: TodGeneration,
    /// TOD-Volume mapping (§IV-C).
    pub tod2v: TodVolumeMapping,
    /// Volume-Speed mapping (§IV-D).
    pub v2s: VolumeSpeedMapping,
    cfg: OvsConfig,
    t: usize,
    interval_s: f64,
}

impl OvsModel {
    /// Builds the model for `(net, ods)` over `t` intervals of
    /// `interval_s` seconds.
    pub fn new(
        net: &RoadNetwork,
        ods: &OdSet,
        t: usize,
        interval_s: f64,
        cfg: OvsConfig,
    ) -> Result<Self> {
        let mut rng = Rng64::new(cfg.seed);
        let routes = RouteTable::build_with_k(net, ods, interval_s, cfg.k_routes.max(1))?;
        Ok(Self {
            tod_gen: TodGeneration::new(ods.len(), t, &cfg, &mut rng),
            tod2v: TodVolumeMapping::new(routes, t, &cfg, &mut rng),
            v2s: VolumeSpeedMapping::new(&cfg, &mut rng),
            cfg,
            t,
            interval_s,
        })
    }

    /// The configuration the model was built with.
    pub fn config(&self) -> &OvsConfig {
        &self.cfg
    }

    /// Number of intervals `T`.
    pub fn intervals(&self) -> usize {
        self.t
    }

    /// Interval length in seconds.
    pub fn interval_s(&self) -> f64 {
        self.interval_s
    }

    /// Full generative pass: seeds -> TOD -> volume -> speed, through
    /// pooled buffers. Returns `(tod, volume, speed)` matrices; return
    /// them to `ws` when done.
    pub fn forward_full(&mut self, ws: &mut Workspace) -> (Matrix, Matrix, Matrix) {
        let g = self.tod_gen.forward_ws(ws);
        let q = self.tod2v.forward_ws(&g, ws);
        let v = self.v2s.forward_ws(&q, ws);
        (g, q, v)
    }

    /// The currently recovered TOD: the generator's output.
    pub fn recovered_tod(&mut self) -> Matrix {
        self.tod_gen.forward_ws(&mut Workspace::new())
    }

    /// Replaces the TOD generator with a freshly initialised one (new
    /// Gaussian seeds and weights) for an independent test-time fit.
    pub fn reset_generator(&mut self, seed: u64) {
        let mut rng = neural::rng::Rng64::new(seed);
        let (n_od, t) = self.tod_gen.shape();
        self.tod_gen = crate::tod_gen::TodGeneration::new(n_od, t, &self.cfg, &mut rng);
    }

    /// Visits every `(param, grad)` pair of the three modules in the
    /// deterministic slot order TOD generation, TOD-Volume, Volume-Speed:
    /// the order of [`OvsModel::export_weights`], of the shape signature
    /// and of every checkpoint's weight list.
    pub fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.tod_gen.visit_params(f);
        self.tod2v.visit_params(f);
        self.v2s.visit_params(f);
    }

    /// Total scalar parameter count over all modules.
    pub fn param_count(&mut self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p, _| n += p.len());
        n
    }

    /// The `(rows, cols)` of every parameter slot in the deterministic
    /// traversal order — the shape signature recorded in artifact
    /// provenance and checked before a checkpoint is imported.
    pub fn shape_signature(&mut self) -> Vec<(usize, usize)> {
        module::signature_visit(&mut |f| self.visit_params(f))
    }

    /// Exports every parameter matrix in [`OvsModel::visit_params`]
    /// order — a checkpoint that can be restored into a model built with
    /// the same configuration.
    pub fn export_weights(&mut self) -> Vec<Matrix> {
        module::export_visit(&mut |f| self.visit_params(f))
    }

    /// Restores a checkpoint produced by [`OvsModel::export_weights`] on a
    /// model with the same configuration. Fails on any count or shape
    /// mismatch without modifying the model.
    pub fn import_weights(&mut self, weights: &[Matrix]) -> Result<()> {
        module::import_visit(&mut |f| self.visit_params(f), weights).map_err(|e| match e {
            CheckpointError::ShapeMismatch { expected, actual } => {
                RoadnetError::ShapeMismatch { expected, actual }
            }
            other => RoadnetError::InvalidSpec(other.to_string()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OvsVariant;
    use roadnet::presets::synthetic_grid;

    fn model(variant: OvsVariant) -> OvsModel {
        let net = synthetic_grid();
        let ods = OdSet::all_pairs(&net);
        OvsModel::new(
            &net,
            &ods,
            6,
            600.0,
            OvsConfig::tiny().with_variant(variant),
        )
        .unwrap()
    }

    #[test]
    fn full_forward_shapes() {
        let mut m = model(OvsVariant::Full);
        let (g, q, v) = m.forward_full(&mut Workspace::new());
        assert_eq!(g.shape(), (72, 6));
        assert_eq!(q.shape(), (24, 6));
        assert_eq!(v.shape(), (24, 6));
        assert!(g.is_finite() && q.is_finite() && v.is_finite());
    }

    #[test]
    fn all_variants_build_and_run() {
        for variant in [
            OvsVariant::Full,
            OvsVariant::NoTodGen,
            OvsVariant::NoTod2V,
            OvsVariant::NoV2S,
        ] {
            let mut m = model(variant);
            let (_, _, v) = m.forward_full(&mut Workspace::new());
            assert!(v.is_finite(), "{variant:?}");
        }
    }

    #[test]
    fn checkpoint_round_trip_preserves_outputs() {
        let mut ws = Workspace::new();
        let mut a = model(OvsVariant::Full);
        let (_, _, v_a) = a.forward_full(&mut ws);
        let weights = a.export_weights();
        // A differently-seeded model produces different outputs...
        let net = synthetic_grid();
        let ods = OdSet::all_pairs(&net);
        let mut b = OvsModel::new(&net, &ods, 6, 600.0, OvsConfig::tiny().with_seed(99)).unwrap();
        let (_, _, v_b) = b.forward_full(&mut ws);
        assert_ne!(v_a, v_b);
        // ...until the checkpoint is restored. (The generator's Gaussian
        // seeds are parameters of the data flow, not weights, so we
        // compare the deterministic mappings instead.)
        b.import_weights(&weights).unwrap();
        let g = a.recovered_tod();
        let (qa, qb) = (
            a.tod2v.forward_ws(&g, &mut ws),
            b.tod2v.forward_ws(&g, &mut ws),
        );
        assert_eq!(qa, qb);
        assert_eq!(
            a.v2s.forward_ws(&qa, &mut ws),
            b.v2s.forward_ws(&qb, &mut ws)
        );
    }

    #[test]
    fn checkpoint_rejects_wrong_shapes() {
        let mut a = model(OvsVariant::Full);
        let mut w = a.export_weights();
        w.pop();
        assert!(a.import_weights(&w).is_err());
        let mut w = a.export_weights();
        w[0] = Matrix::zeros(1, 1);
        assert!(a.import_weights(&w).is_err());
    }

    #[test]
    fn param_count_positive_and_variant_dependent() {
        let mut full = model(OvsVariant::Full);
        let mut ablated = model(OvsVariant::NoTod2V);
        assert!(full.param_count() > 0);
        assert_ne!(full.param_count(), ablated.param_count());
    }
}

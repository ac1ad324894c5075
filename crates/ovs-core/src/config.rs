//! OVS configuration (the paper's Tables IV and V).

use serde::{Deserialize, Serialize};

/// Which modules run in their full form — the ablation axis of Table IX.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OvsVariant {
    /// The full model.
    Full,
    /// "OVS - TOD": the structured sigmoid TOD generator is replaced by an
    /// unconstrained free tensor (plain parameters, no Gaussian-seed FC
    /// stack).
    NoTodGen,
    /// "OVS - TOD2V": the dynamic attention is replaced by *static*
    /// learned lag weights — no congestion-dependent re-weighting.
    NoTod2V,
    /// "OVS - V2S": the LSTM stack is replaced by a time-distributed FC
    /// network (no recurrence).
    NoV2S,
}

impl OvsVariant {
    /// Display name as printed in Table IX.
    pub fn name(self) -> &'static str {
        match self {
            OvsVariant::Full => "OVS",
            OvsVariant::NoTodGen => "OVS - TOD",
            OvsVariant::NoTod2V => "OVS - TOD2V",
            OvsVariant::NoV2S => "OVS - V2S",
        }
    }
}

/// Hyperparameters of the OVS model and its training pipeline.
///
/// Defaults are the *fast* profile used by the experiment binaries;
/// [`OvsConfig::paper`] reproduces Tables IV/V verbatim (LSTM(128),
/// 10 000 epochs) for users with time to spare.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OvsConfig {
    /// Hidden width of the TOD-generation FC stack (paper: 16).
    pub tod_hidden: usize,
    /// Hidden width of the OD-Route FC (paper: 16). Only used when
    /// `od_route_fc` is set.
    pub route_hidden: usize,
    /// Number of candidate routes per OD pair (1 = the paper's
    /// single-route simplification; >1 enables the multi-route extension:
    /// Yen's k-shortest routes with a learned softmax split per OD —
    /// the paper's stated future-work direction).
    pub k_routes: usize,
    /// Use the Eq. 3 FC stack to map OD counts to route counts. Off by
    /// default: under the paper's own single-route simplification
    /// ("one OD will only correspond to one route, and they will share
    /// the index i", SS IV-C) route counts equal OD counts.
    pub od_route_fc: bool,
    /// Channels of the Route-e convolution stack (paper: two 1x3 convs).
    pub conv_channels: usize,
    /// Lookback window `W` of the dynamic attention, in intervals.
    pub attention_window: usize,
    /// Hidden width of the Volume-Speed LSTMs (paper: 128).
    pub lstm_hidden: usize,
    /// Learning rate (paper: 1e-3).
    pub lr: f64,
    /// Epochs for stage 1 (V2S fit).
    pub epochs_v2s: usize,
    /// Epochs for stage 2 (TOD2V fit through frozen V2S).
    pub epochs_tod2v: usize,
    /// Epochs for the test-time TOD-generation fit.
    pub epochs_fit: usize,
    /// Number of independent test-time fits (fresh Gaussian seeds) whose
    /// recovered TODs are averaged. The inverse problem has multiple
    /// solutions (SS I, challenge 3); averaging independent fits keeps the
    /// evidence-supported structure and cancels seed-dependent noise.
    pub fit_restarts: usize,
    /// Upper bound on trips per OD per interval; scales the sigmoid output
    /// of the TOD generator.
    pub g_max: f64,
    /// Upper bound on link speed (m/s); scales the sigmoid V2S output.
    pub v_max: f64,
    /// Volume normalisation divisor for the V2S input.
    pub q_norm: f64,
    /// Gradient-norm clip for the recurrent stack.
    pub grad_clip: f64,
    /// Weight of the generated-volume loss during stage 2 (Fig 8 trains
    /// the TOD-Volume mapping with "generated TOD, volume, and speed";
    /// this term anchors the intermediate volumes). 0 recovers the
    /// speed-only variant discussed in SS V-E.
    pub w_volume_stage2: f64,
    /// Huber transition point (m/s) for the test-time speed residuals; 0
    /// falls back to plain squared error. Links whose observed speed the
    /// learned volume-speed mapping cannot represent (road work,
    /// incidents — RQ3) otherwise distort the recovered TOD: beyond the
    /// delta their gradient saturates instead of growing linearly.
    pub fit_huber_delta: f64,
    /// Weight of the Gaussian prior on the generated TOD during the
    /// test-time fit (SS IV-B: "we assume the TOD are generated from
    /// Gaussian priors"). Shrinks cells toward the corpus demand level
    /// except where the speed evidence disagrees; 0 disables.
    pub w_prior: f64,
    /// Weight of the census auxiliary loss (`w_g` in Eq. 13); 0 disables.
    pub w_census: f64,
    /// Weight of the camera auxiliary loss (`w_q` in Eq. 13); 0 disables.
    pub w_camera: f64,
    /// Weight of the speed-limit auxiliary loss (`w_v` in Eq. 13, Table
    /// II's static speed data); 0 disables.
    pub w_speed_limit: f64,
    /// RNG seed for initialisation and Gaussian seeds.
    pub seed: u64,
    /// Ablation variant.
    pub variant: OvsVariant,
}

impl Default for OvsConfig {
    fn default() -> Self {
        Self {
            tod_hidden: 16,
            route_hidden: 16,
            k_routes: 1,
            od_route_fc: false,
            conv_channels: 4,
            attention_window: 4,
            lstm_hidden: 32,
            lr: 1e-3,
            epochs_v2s: 600,
            epochs_tod2v: 300,
            epochs_fit: 1500,
            fit_restarts: 3,
            g_max: 40.0,
            v_max: 20.0,
            q_norm: 50.0,
            grad_clip: 5.0,
            w_volume_stage2: 0.5,
            fit_huber_delta: 1.2,
            w_prior: 0.3,
            w_census: 0.0,
            w_camera: 0.0,
            w_speed_limit: 0.0,
            seed: 0,
            variant: OvsVariant::Full,
        }
    }
}

impl OvsConfig {
    /// The paper's hyperparameters (Tables IV-V): LSTM(128), learning
    /// rate 1e-3, 10 000 epochs. The paper's dropout 0.3 is not
    /// modelled: no OVS module has a dropout layer. Slow; provided for
    /// completeness.
    pub fn paper() -> Self {
        Self {
            lstm_hidden: 128,
            epochs_v2s: 10_000,
            epochs_tod2v: 10_000,
            epochs_fit: 10_000,
            ..Self::default()
        }
    }

    /// A reduced profile for tests (tiny widths, few epochs).
    pub fn tiny() -> Self {
        Self {
            tod_hidden: 8,
            route_hidden: 8,
            conv_channels: 2,
            attention_window: 3,
            lstm_hidden: 8,
            epochs_v2s: 40,
            epochs_tod2v: 30,
            epochs_fit: 60,
            ..Self::default()
        }
    }

    /// Sets the ablation variant.
    pub fn with_variant(mut self, variant: OvsVariant) -> Self {
        self.variant = variant;
        self
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables the auxiliary losses with the given weights.
    pub fn with_aux_weights(mut self, w_census: f64, w_camera: f64) -> Self {
        self.w_census = w_census;
        self.w_camera = w_camera;
        self
    }

    /// Adapts the scale parameters (`g_max`, `v_max`, `q_norm`) to a
    /// training corpus so the sigmoid-bounded modules start near the data
    /// range instead of saturating. The structural hyperparameters are
    /// untouched.
    pub fn adapted_to_corpus(mut self, train: &[crate::estimator::TrainTriple]) -> Self {
        let mut g_max = 0.0f64;
        let mut v_max = 0.0f64;
        let mut q_max = 0.0f64;
        for s in train {
            g_max = s.tod.as_slice().iter().fold(g_max, |a, &b| a.max(b));
            v_max = s.speed.as_slice().iter().fold(v_max, |a, &b| a.max(b));
            q_max = s.volume.as_slice().iter().fold(q_max, |a, &b| a.max(b));
        }
        if g_max > 0.0 {
            self.g_max = g_max * 1.3;
        }
        if v_max > 0.0 {
            self.v_max = v_max * 1.1;
        }
        if q_max > 0.0 {
            self.q_norm = q_max;
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_profile_matches_tables() {
        let c = OvsConfig::paper();
        assert_eq!(c.tod_hidden, 16);
        assert_eq!(c.route_hidden, 16);
        assert_eq!(c.lstm_hidden, 128);
        assert_eq!(c.lr, 1e-3);
        assert_eq!(c.epochs_v2s, 10_000);
    }

    #[test]
    fn variant_names_match_table_ix() {
        assert_eq!(OvsVariant::Full.name(), "OVS");
        assert_eq!(OvsVariant::NoTodGen.name(), "OVS - TOD");
        assert_eq!(OvsVariant::NoTod2V.name(), "OVS - TOD2V");
        assert_eq!(OvsVariant::NoV2S.name(), "OVS - V2S");
    }

    #[test]
    fn builders_compose() {
        let c = OvsConfig::tiny()
            .with_variant(OvsVariant::NoV2S)
            .with_seed(9)
            .with_aux_weights(0.1, 0.2);
        assert_eq!(c.variant, OvsVariant::NoV2S);
        assert_eq!(c.seed, 9);
        assert_eq!(c.w_census, 0.1);
        assert_eq!(c.w_camera, 0.2);
    }
}

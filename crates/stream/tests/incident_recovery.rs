//! The incident robustness acceptance tests: a closure must measurably
//! degrade online estimation while active, the estimator must recover to
//! within 10% of the pre-incident baseline after clearance, and the
//! whole arc — including a kill/restart while the incident is live —
//! must replay bit-identically from the plan seed. CI runs this binary
//! under `CITYOD_THREADS=1` and `CITYOD_THREADS=4` to prove the arc is
//! also thread-count independent.

use checkpoint::store::ArtifactStore;
use checkpoint::{RetryPolicy, SystemClock};
use datagen::dataset::DatasetSpec;
use datagen::{Dataset, TodPattern};
use fault::IncidentSweep;
use neural::Matrix;
use ovs_core::artifact::model_weights;
use ovs_core::config::OvsConfig;
use ovs_core::trainer::RecoveryPolicy;
use simulator::{IncidentKind, IncidentSchedule, IncidentTarget, ScheduledIncident};
use std::path::{Path, PathBuf};
use stream::incidents::RECOVERED_FACTOR;
use stream::{
    incident_sweep, IncidentSweepReport, SimSource, SimSourceConfig, StreamConfig, StreamDriver,
    WindowSpec,
};

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir =
            std::env::temp_dir().join(format!("stream-incident-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The same grid + demand the CLI's `faults run grid3x3` smoke uses:
/// strong enough that severing one link visibly bends link speeds.
fn dataset() -> Dataset {
    Dataset::synthetic(
        TodPattern::Gaussian,
        &DatasetSpec {
            t: 3,
            interval_s: 300.0,
            train_samples: 6,
            demand_scale: 0.15,
            seed: 7,
        },
    )
    .unwrap()
}

/// One-point severity x duration grid: a full closure of link 0 lasting
/// two thirds of the degradation window.
fn sweep() -> IncidentSweep {
    IncidentSweep {
        kind: IncidentKind::Closure,
        target_link: 0,
        onset_tick: 0,
        severities: vec![1.0],
        duration_ticks: vec![600],
    }
}

fn run_sweep(tag: &str) -> IncidentSweepReport {
    let tmp = TempDir::new(tag);
    incident_sweep(
        &dataset(),
        &OvsConfig::tiny().with_seed(7),
        &sweep(),
        7,
        tmp.path(),
    )
    .unwrap()
}

#[test]
fn closure_degrades_then_recovers_within_ten_percent() {
    roadnet::parallel::init_global(None);
    let report = run_sweep("arc");
    assert_eq!(report.points.len(), 1);
    let point = &report.points[0];
    let (pre, during, post) = (
        point.pre_rmse.expect("baseline window published"),
        point.during_rmse.expect("degradation window published"),
        point.post_rmse.expect("recovery window published"),
    );
    assert!(
        point.degraded && during > pre,
        "closure must raise masked RMSE while active: pre {pre:.4}, during {during:.4}"
    );
    assert!(
        point.recovered && post <= pre * RECOVERED_FACTOR,
        "post-clearance window must be within 10% of the pre-incident \
         baseline: pre {pre:.4}, post {post:.4}"
    );
    assert!(!point.diverged, "no window may exhaust the retry budget");
    assert_eq!(report.diverged_unhealed_count(), 0);
}

#[test]
fn sweep_replays_bit_identically_from_plan_seed() {
    let threads = roadnet::parallel::init_global(None);
    let one = run_sweep("replay-a");
    let two = run_sweep("replay-b");
    let (a, b) = (
        serde_json::to_string(&one).unwrap(),
        serde_json::to_string(&two).unwrap(),
    );
    assert_eq!(
        a, b,
        "threads={threads}: the sweep report (every per-window masked RMSE \
         included) must replay bit-identically from (dataset, sweep, seed)"
    );
}

// --- restart equivalence with an incident straddling the boundary -----

const T: usize = 4;
const WINDOWS: usize = 4;

fn restart_dataset() -> Dataset {
    Dataset::synthetic(
        TodPattern::Gaussian,
        &DatasetSpec {
            t: T,
            interval_s: 120.0,
            train_samples: 3,
            demand_scale: 0.05,
            seed: 3,
        },
    )
    .unwrap()
}

/// A closure straddling every kill boundary the test exercises: with
/// window length 4 and stride 2 (ticks-per-interval 120), windows 1..3
/// all overlap the active range `[300, 900)`.
fn straddling_incidents() -> IncidentSchedule {
    IncidentSchedule::new(vec![ScheduledIncident {
        kind: IncidentKind::Closure,
        target: IncidentTarget::Link(roadnet::LinkId(1)),
        onset_tick: 300,
        duration_ticks: 600,
        severity: 0.8,
    }])
}

fn restart_config(windows: usize) -> StreamConfig {
    StreamConfig {
        run_id: "incident-restart".into(),
        windows,
        spec: WindowSpec::new(T, 2, 1).unwrap(),
        ovs: OvsConfig::tiny().with_seed(17),
        keep_versions: 0,
        recovery: RecoveryPolicy::default(),
        incidents: straddling_incidents(),
    }
}

fn restart_source(ds: &Dataset) -> SimSource {
    SimSource::new(
        ds.clone(),
        restart_config(WINDOWS).spec,
        SimSourceConfig {
            seed: 41,
            drift: 0.2,
            late_frac: 0.1,
            late_delay_frames: 1,
        },
    )
    .unwrap()
    .with_incidents(straddling_incidents())
}

fn family_state(store: &ArtifactStore) -> (Vec<(String, String)>, Vec<Matrix>) {
    let mut versions: Vec<String> = store
        .names()
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("stream-incident-restart-"))
        .collect();
    versions.sort();
    let fingerprints = versions
        .iter()
        .map(|name| {
            let snap = store.snapshot(name).unwrap();
            (name.clone(), snap.fingerprint().to_string())
        })
        .collect();
    let latest = store
        .latest_good(
            "stream-incident-restart",
            &RetryPolicy::default(),
            &SystemClock,
        )
        .unwrap()
        .unwrap();
    let weights = model_weights(latest.artifact(), &restart_config(WINDOWS).ovs).unwrap();
    (fingerprints, weights)
}

#[test]
fn restart_while_incident_active_is_bit_identical() {
    let threads = roadnet::parallel::init_global(None);
    let ds = restart_dataset();

    let tmp = TempDir::new("straight");
    let store = ArtifactStore::open(tmp.path()).unwrap();
    {
        let mut src = restart_source(&ds);
        let mut driver = StreamDriver::new(&ds, restart_config(WINDOWS)).unwrap();
        let report = driver.run(&store, &mut src).unwrap();
        assert_eq!(report.published(), WINDOWS);
    }
    let (reference_versions, reference_weights) = family_state(&store);
    assert_eq!(reference_versions.len(), WINDOWS);

    // Kill at every boundary — including mid-incident — and restart.
    for kill_after in 1..WINDOWS {
        let tmp = TempDir::new(&format!("kill{kill_after}"));
        let store = ArtifactStore::open(tmp.path()).unwrap();
        {
            let mut src = restart_source(&ds);
            let mut driver = StreamDriver::new(&ds, restart_config(kill_after)).unwrap();
            let report = driver.run(&store, &mut src).unwrap();
            assert_eq!(report.published(), kill_after);
        }
        let mut src = restart_source(&ds);
        let mut driver = StreamDriver::new(&ds, restart_config(WINDOWS)).unwrap();
        let report = driver.run(&store, &mut src).unwrap();
        assert_eq!(report.resumed_from, Some(kill_after - 1));
        assert_eq!(report.published() + kill_after, WINDOWS);

        let (versions, weights) = family_state(&store);
        assert_eq!(
            versions, reference_versions,
            "threads={threads}: version names + fingerprints must match after \
             a restart at window boundary {kill_after} with the incident live"
        );
        assert_eq!(
            weights, reference_weights,
            "threads={threads}: final model weights must be bit-identical after \
             a mid-incident restart at boundary {kill_after}"
        );
    }
}

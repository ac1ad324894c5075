//! `stream`: one `StreamDriver::run` over many windows of drifting
//! Manhattan demand.
//!
//! Short warm-start fits instead of cold three-stage training, plus a
//! checkpoint write and garbage collection after every window. The
//! first, cold window is set-up; each op is one warm window, from the
//! ingest of the frame that closes it to the driver asking for the next
//! frame after publishing it.

use crate::stats::{median, tail};
use crate::trace::{self, Tracer};
use crate::{
    manhattan, timed, Ctx, Outcome, Res, CITY_SEED, DEMAND_SCALE, INTERVAL_S, SETUP_SPREAD,
};
use checkpoint::{ArtifactStore, RetryPolicy, SystemClock};
use datagen::dataset::{simulate, DatasetSpec};
use datagen::Dataset;
use eval::metrics::masked_speed_rmse;
use neural::Matrix;
use ovs_core::artifact::{load_model, model_provenance, save_model};
use ovs_core::estimator::matrix_to_tod;
use ovs_core::trainer::{OvsTrainer, RecoveryPolicy};
use ovs_core::{EstimatorInput, OvsConfig};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Instant;
use stream::driver::STREAM_WINDOW_SECTION;
use stream::{
    ClosedWindow, Observation, ObservationSource, SimSource, SimSourceConfig, StreamConfig,
    StreamDriver, StreamReport, WindowSlicer, WindowSpec, WindowStatus,
};

/// Window length in intervals; every window re-estimates a T-interval TOD.
const T: usize = 4;
const TRAIN_SAMPLES: usize = 4;
/// Versions kept by the garbage collection after every publish.
const KEEP: usize = 2;

/// Fewest warm windows timed in a run, however slow the host: `op_ms`,
/// their p90, needs 100 for ten samples beyond it.
const MIN_TIMED: usize = 110;
/// `masked_rmse` is the mean over this many first windows, so it does
/// not depend on how many windows fit in the run. Consecutive windows
/// share all but one frame, so their scores move together; across seeds
/// the mean of 48 windows spread about 0.04 of its median, of 110 about
/// 0.02.
const SCORED_WINDOWS: usize = MIN_TIMED;
/// Highest mean masked speed RMSE of the scored windows, in m/s: the
/// accuracy guard, so that a speed-up cannot trade accuracy unseen.
/// Across seeds the mean reads 0.47 to 0.50.
const MASKED_RMSE_CEILING: f64 = 0.53;
/// Upper bound on windows in one run; the deadline ends it far sooner.
const MAX_WINDOWS: usize = 10_000;
/// Warm windows in the traced run.
const TRACED_WARM: usize = 24;
/// How far ingest plus the replayed layers may exceed the driver's warm
/// window (the replica runs at other moments than the window it copies).
const ATTRIBUTION_TOLERANCE: f64 = 0.15;
/// Seed purpose of the source's drift and simulator runs.
const SOURCE: u64 = 3;

fn dataset() -> Res<Dataset> {
    let (net, ods, gt) = manhattan(T);
    let spec = DatasetSpec {
        t: T,
        interval_s: INTERVAL_S,
        train_samples: TRAIN_SAMPLES,
        demand_scale: DEMAND_SCALE,
        seed: CITY_SEED,
    };
    Ok(Dataset::assemble("Manhattan", net, ods, gt, &spec)?)
}

fn window_spec() -> Res<WindowSpec> {
    // Stride 1: every frame closes exactly one window.
    Ok(WindowSpec::new(T, 1, 0)?)
}

fn stream_config(windows: usize) -> Res<StreamConfig> {
    Ok(StreamConfig {
        run_id: "citybench".into(),
        windows,
        spec: window_spec()?,
        ovs: OvsConfig::tiny(),
        keep_versions: KEEP,
        recovery: RecoveryPolicy::default(),
        incidents: Default::default(),
    })
}

/// Passes the source's frames through, recording when the driver asked
/// for each one and when its ingest began. In the measured stream the
/// measured phase starts once the cold window is published. After each
/// `1/SETUP_SPREAD` of the warm windows' time it runs one set-up of its
/// own between two frames, outside the windows, and it ends the stream
/// once the windows have taken `seconds`, but not before `MIN_TIMED`
/// warm windows.
struct Clocked<'a> {
    inner: SimSource,
    /// When the driver asked for frame `b`.
    asked: Vec<Instant>,
    /// When frame `b`'s ingest began.
    began: Vec<Instant>,
    /// Set only in the measured stream.
    measured: Option<&'a Ctx>,
    /// When the measured phase started.
    start: Option<Instant>,
    /// Set-up time spent inside the measured phase, s.
    paused: f64,
    /// Wall time of each set-up run inside the measured phase, s.
    setups: Vec<f64>,
}

impl<'a> Clocked<'a> {
    fn new(ctx: &'a Ctx, ds: &Dataset, measured: bool) -> Res<Self> {
        let cfg = SimSourceConfig {
            seed: ctx.derive(SOURCE),
            drift: 0.2,
            late_frac: 0.0,
            late_delay_frames: 1,
        };
        Ok(Self {
            inner: SimSource::new(ds.clone(), window_spec()?, cfg)?,
            asked: Vec::new(),
            began: Vec::new(),
            measured: measured.then_some(ctx),
            start: None,
            paused: 0.0,
            setups: Vec::new(),
        })
    }

    /// Window `w` closes with frame `w + T` and is published before the
    /// driver asks for frame `w + T + 1`.
    fn window_span(&self, w: usize) -> Option<(Instant, Instant)> {
        Some((*self.began.get(w + T)?, *self.asked.get(w + T + 1)?))
    }

    /// Runs the set-ups due by now; returns whether the stream should end.
    fn pace(&mut self, ctx: &Ctx, now: Instant) -> Res<bool> {
        if self.asked.len() == T + 2 {
            // Window 0 (cold) is published: the measured phase starts.
            self.start = Some(now);
        }
        let Some(start) = self.start else {
            return Ok(false);
        };
        let busy = (now - start).as_secs_f64() - self.paused;
        while self.setups.len() < SETUP_SPREAD
            && busy >= ctx.seconds * (self.setups.len() + 1) as f64 / SETUP_SPREAD as f64
        {
            let s = one_window(ctx, self.setups.len() + 1)?;
            self.paused += s;
            self.setups.push(s);
        }
        Ok(self.asked.len() - (T + 2) >= MIN_TIMED && busy >= ctx.seconds)
    }
}

impl ObservationSource for Clocked<'_> {
    fn next_batch(&mut self) -> stream::Result<Vec<Observation>> {
        self.asked.push(Instant::now());
        if let Some(ctx) = self.measured {
            let now = *self.asked.last().expect("just pushed");
            let end = self
                .pace(ctx, now)
                .map_err(|e| stream::StreamError::Config(format!("set-up: {e}")))?;
            if end {
                // End of stream: the driver drains the windows already
                // started and returns.
                return Ok(Vec::new());
            }
        }
        self.began.push(Instant::now());
        self.inner.next_batch()
    }
}

fn fresh_store(dir: &Path) -> Res<ArtifactStore> {
    let _ = std::fs::remove_dir_all(dir);
    Ok(ArtifactStore::open(dir)?)
}

fn store_dir(ctx: &Ctx, tag: &str) -> PathBuf {
    ctx.out_dir
        .join(format!("stream-{}-{tag}", std::process::id()))
}

/// Checks shared by both runs: every window published, none failed,
/// every fingerprint distinct.
fn check_report(o: &mut Outcome, report: &StreamReport) {
    let published = report.count(WindowStatus::Published);
    let failed = report.count(WindowStatus::Failed);
    o.attempted = report.windows.len() as u64;
    o.failed = failed as u64;
    o.check(published == report.windows.len() && failed == 0, || {
        format!(
            "{} windows attempted, {published} published, {failed} failed",
            report.windows.len()
        )
    });
    let prints: BTreeSet<_> = report
        .windows
        .iter()
        .filter_map(|w| w.fingerprint.as_ref())
        .collect();
    o.check(prints.len() == published, || {
        format!(
            "{published} windows published but only {} distinct fingerprints",
            prints.len()
        )
    });
}

/// One set-up of its own: a one-window stream, which runs the cold
/// first window. Returns its wall time in seconds.
fn one_window(ctx: &Ctx, rep: usize) -> Res<f64> {
    let dir = store_dir(ctx, &format!("setup{rep}"));
    let (s, report) = timed(|| -> Res<StreamReport> {
        let ds = dataset()?;
        let mut source = Clocked::new(ctx, &ds, false)?;
        let store = fresh_store(&dir)?;
        let report = StreamDriver::new(&ds, stream_config(1)?)?.run(&store, &mut source)?;
        Ok(report)
    });
    let _ = std::fs::remove_dir_all(&dir);
    if report?.count(WindowStatus::Published) != 1 {
        return Err(format!("set-up stream {rep} did not publish its window").into());
    }
    Ok(s)
}

pub fn run(ctx: &Ctx, o: &mut Outcome) -> Res<()> {
    let started = Instant::now();
    let dir = store_dir(ctx, "run");
    let ds = dataset()?;
    let mut source = Clocked::new(ctx, &ds, true)?;
    let store = fresh_store(&dir)?;
    let report = StreamDriver::new(&ds, stream_config(MAX_WINDOWS)?)?.run(&store, &mut source);
    let _ = std::fs::remove_dir_all(&dir);
    let report = report?;
    // Set-up: the dataset, the store and the cold window, up to the
    // driver asking for the frame that starts the first warm window.
    let first_op = *source
        .asked
        .get(T + 1)
        .ok_or("the cold window never completed")?;
    let mut setups = vec![(first_op - started).as_secs_f64()];
    setups.extend(&source.setups);

    check_report(o, &report);
    // Windows the deadline cut short were drained partially filled:
    // they count as attempted but are neither timed nor scored.
    let ops: Vec<f64> = (1..report.windows.len())
        .map_while(|w| source.window_span(w))
        .map(|(a, b)| (b - a).as_secs_f64() * 1e3)
        .collect();
    let scored: Vec<f64> = report
        .windows
        .iter()
        .take(SCORED_WINDOWS)
        .filter_map(|w| w.masked_rmse)
        .collect();
    o.check(
        scored.len() == SCORED_WINDOWS && ops.len() >= SCORED_WINDOWS,
        || {
            format!(
                "only {} warm windows completed; {SCORED_WINDOWS} are scored",
                ops.len()
            )
        },
    );
    o.check(report.windows.iter().skip(1).all(|w| w.warm), || {
        "a window after the first ran cold".into()
    });
    o.metric("setup_s", median(&setups).unwrap_or(f64::NAN), "s");
    // The op time of this workload is the p90 warm window, not the
    // median. The host switches between a fast and a slow speed in
    // stretches of seconds, longer than a window, so warm windows fall
    // into two groups about 100 and 155 ms long, and the median jumps
    // between them with the share of the run spent in each. The p90 sits
    // in the slow group in every run. The traced run reports the median
    // as `stream.window_ms`.
    match tail(&ops, 90.0) {
        Ok(v) => o.metric("op_ms", v, "ms"),
        Err(e) => o.check(false, || format!("op_ms: {e}")),
    }
    let masked_rmse = scored.iter().sum::<f64>() / scored.len().max(1) as f64;
    o.check(masked_rmse <= MASKED_RMSE_CEILING, || {
        format!("masked_rmse {masked_rmse} is above the accuracy guard {MASKED_RMSE_CEILING}")
    });
    let steps: usize = report.windows.iter().skip(1).map(|w| w.fit_steps).sum();
    eprintln!(
        "stream: {} warm windows timed, p50 {:.1} ms, {} windows in all, masked_rmse \
         {masked_rmse}, {:.2} fit steps per warm window, setups {setups:?} s, {:.1} s total",
        ops.len(),
        median(&ops).unwrap_or(f64::NAN),
        report.windows.len(),
        steps as f64 / report.windows.len().saturating_sub(1).max(1) as f64,
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

/// The traced run's source. Between two frames, after the driver has
/// published window `w`, it re-runs the driver's estimate-and-publish of
/// that window from the same inputs through the layers' public calls,
/// each under its own span: the warm fit from window `w - 1`'s published
/// weights, the scoring simulation and RMSE, the publish, and garbage
/// collection. It records when the driver asked for each frame and when
/// that frame's ingest began and ended, so the replica's time stays out
/// of the driver's windows.
struct Replayed<'a> {
    inner: SimSource,
    /// The source's own slicer, fed the same frames as the driver's.
    slicer: WindowSlicer,
    /// The window the last frame closed, published by the time the
    /// driver asks for the next frame.
    pending: Option<ClosedWindow>,
    /// Weights the driver published for the window before `pending`.
    weights: Option<Vec<Matrix>>,
    ds: &'a Dataset,
    cfg: &'a StreamConfig,
    trainer: OvsTrainer,
    /// The driver's store, read for each window's published weights.
    driven: &'a ArtifactStore,
    /// The replica's own store, written and collected like the driver's.
    store: ArtifactStore,
    tr: &'a Tracer,
    asked: Vec<Instant>,
    began: Vec<Instant>,
    ingested: Vec<Instant>,
    /// Per replayed window: its index, root span and masked RMSE.
    replicas: Vec<(usize, u64, f64, usize)>,
}

impl Replayed<'_> {
    /// Driver window `w`, without the replica that ran before its
    /// closing frame: from the start of that frame's ingest to the
    /// driver asking for the next frame.
    fn window_span(&self, w: usize) -> Option<(Instant, Instant)> {
        Some((*self.began.get(w + T)?, *self.asked.get(w + T + 1)?))
    }

    fn newest_weights(&self) -> Res<Vec<Matrix>> {
        let snapshot = self
            .driven
            .latest_good(&self.cfg.family(), &RetryPolicy::default(), &SystemClock)?
            .ok_or("the driver has published nothing")?;
        Ok(load_model(&self.ds.net, &self.ds.ods, snapshot.artifact())?.export_weights())
    }

    /// The driver's estimate-and-publish of `window`, warm from
    /// `weights`; returns the root span, masked RMSE and fit steps.
    fn replay(&self, window: &ClosedWindow, weights: &[Matrix]) -> Res<(u64, f64, usize)> {
        let (ds, cfg, tr) = (self.ds, self.cfg, self.tr);
        let family = cfg.family();
        tr.span("stream.replica", None, |root| {
            let input = EstimatorInput::builder(&ds.net, &ds.ods)
                .interval_s(ds.sim_config.interval_s)
                .sim_seed(ds.sim_config.seed)
                .train(&ds.train)
                .observed_speed(&window.observed)
                .build();
            let (mut model, report, tod) = tr.span("ovs.fit", Some(root), |_| -> Res<_> {
                let (mut model, report) =
                    self.trainer
                        .run_warm_guarded(&input, weights, cfg.recovery, None)?;
                let tod = matrix_to_tod(&model.recovered_tod());
                Ok((model, report, tod))
            })?;
            let sim = tr.span("simulator.run", Some(root), |_| {
                simulate(&ds.net, &ds.ods, &ds.sim_config, &tod)
            })?;
            let rmse = tr.span("eval.masked_rmse", Some(root), |_| {
                masked_speed_rmse(&window.observed, &sim.speed, &window.mask)
            })?;
            tr.span("checkpoint.publish", Some(root), |_| -> Res<()> {
                let mut builder = save_model(&mut model, Some(&tod))?;
                builder.add_f64s(
                    STREAM_WINDOW_SECTION,
                    &[
                        window.index as f64,
                        window.start as f64,
                        window.end as f64,
                        window.observations as f64,
                        rmse,
                        1.0,
                        report.fit_losses.len() as f64,
                    ],
                );
                let mut prov = model_provenance(&mut model, &report)?;
                prov.note = format!("replica of stream window {}", window.index);
                let name = self.store.save_versioned(&family, &builder, &prov)?;
                self.store.snapshot(&name)?;
                Ok(())
            })?;
            tr.span("checkpoint.gc", Some(root), |_| {
                self.store.gc(&family, KEEP)
            })?;
            tr.span("ovs.export", Some(root), |_| model.export_weights());
            Ok((root, rmse, report.fit_losses.len()))
        })
    }
}

impl ObservationSource for Replayed<'_> {
    fn next_batch(&mut self) -> stream::Result<Vec<Observation>> {
        self.asked.push(Instant::now());
        if let Some(window) = self.pending.take() {
            let replayed = (|| -> Res<()> {
                let published = self.newest_weights()?;
                if let Some(weights) = self.weights.take() {
                    let (root, rmse, steps) = self.replay(&window, &weights)?;
                    self.replicas.push((window.index, root, rmse, steps));
                }
                self.weights = Some(published);
                Ok(())
            })();
            replayed.map_err(|e| stream::StreamError::Config(format!("replica: {e}")))?;
        }
        self.began.push(Instant::now());
        let batch = self.inner.next_batch()?;
        self.ingested.push(Instant::now());
        for &obs in &batch {
            // Stride 1: each frame closes at most one window.
            self.pending = self.slicer.push(obs).pop().or(self.pending.take());
        }
        Ok(batch)
    }
}

pub fn traced(ctx: &Ctx, o: &mut Outcome) -> Res<()> {
    let ds = dataset()?;
    let windows = 1 + TRACED_WARM;
    let cfg = stream_config(windows)?;

    // Untraced baseline for the tracing overhead.
    let dir = store_dir(ctx, "untraced");
    let mut plain = Clocked::new(ctx, &ds, false)?;
    StreamDriver::new(&ds, cfg.clone())?.run(&fresh_store(&dir)?, &mut plain)?;
    let _ = std::fs::remove_dir_all(&dir);
    let untraced: Vec<f64> = (1..windows)
        .filter_map(|w| plain.window_span(w))
        .map(|(a, b)| (b - a).as_secs_f64() * 1e3)
        .collect();

    let tr = Tracer::new();
    let dir = store_dir(ctx, "traced");
    let replica_dir = store_dir(ctx, "replica");
    let store = fresh_store(&dir)?;
    let mut source = Replayed {
        inner: Clocked::new(ctx, &ds, false)?.inner,
        slicer: WindowSlicer::new(window_spec()?, ds.n_links()),
        pending: None,
        weights: None,
        ds: &ds,
        cfg: &cfg,
        trainer: OvsTrainer::new(cfg.ovs.clone()),
        driven: &store,
        store: fresh_store(&replica_dir)?,
        tr: &tr,
        asked: Vec::new(),
        began: Vec::new(),
        ingested: Vec::new(),
        replicas: Vec::new(),
    };
    let report = StreamDriver::new(&ds, cfg.clone())?.run(&store, &mut source);
    let bytes = std::fs::read_dir(&replica_dir)?
        .filter_map(|e| e.ok()?.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .max()
        .unwrap_or(0);
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&replica_dir);
    let report = report?;
    check_report(o, &report);

    // Each replica must be the driver's computation: same RMSE to the
    // bit, same number of fit steps.
    for &(w, _, rmse, steps) in &source.replicas {
        let driver = report.windows.get(w);
        o.check(
            driver.is_some_and(|d| {
                d.masked_rmse.map(f64::to_bits) == Some(rmse.to_bits()) && d.fit_steps == steps
            }),
            || format!("the replica of window {w} differs from the driver's estimate"),
        );
    }
    o.check(source.replicas.len() + 2 >= TRACED_WARM, || {
        format!("only {} windows were replayed", source.replicas.len())
    });

    // Driver windows, split at the end of ingest, each next to the
    // replica of its estimate-and-publish that ran right after it.
    let mut pairs = Vec::new();
    for &(w, root, _, _) in &source.replicas {
        let (Some((start, end)), Some(&ingested)) =
            (source.window_span(w), source.ingested.get(w + T))
        else {
            continue;
        };
        // Into the span file, next to the replicas.
        let window = tr.record_between("stream.window", None, start, end);
        tr.record_between("stream.ingest", Some(window), start, ingested);
        let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
        pairs.push((ms(end - start), ms(ingested - start), root));
    }
    let spans = tr.spans();
    let selfs = trace::self_times(&spans);
    let mut split: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    let (mut window_ms, mut ingest_ms) = (Vec::new(), Vec::new());
    let (mut covers, mut replica_ms, mut shares) = (Vec::new(), Vec::new(), Vec::new());
    for &(window, ingest, root) in &pairs {
        let layers = trace::layer_self_ms(&spans, root);
        // The named layers: ingest plus the replica's children (its
        // root's self time is the glue between them, not a layer).
        let named = ingest
            + layers
                .iter()
                .filter(|(k, _)| k.as_str() != "stream.replica")
                .map(|(_, v)| v)
                .sum::<f64>();
        // Per pair: the host's speed changes over seconds, so a window
        // and the replica run right after it see the same speed, while
        // two medians over all windows need not.
        shares.push(named / window);
        for (name, ms) in layers {
            split.entry(name).or_default().push(ms);
        }
        if let Some(span) = spans.iter().find(|s| s.id == root) {
            covers.push(trace::coverage(span, &selfs));
            replica_ms.push(span.dur_ns() as f64 / 1e6);
        }
        window_ms.push(window);
        ingest_ms.push(ingest);
    }
    let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);
    let window = med(&window_ms);
    let ingest = med(&ingest_ms);
    let mut layers: std::collections::BTreeMap<String, f64> =
        split.iter().map(|(k, v)| (k.clone(), med(v))).collect();
    layers.insert("stream.ingest".into(), ingest);
    let overhead = window - med(&untraced);
    let attributed = med(&shares);
    trace::print_table("stream warm window (medians)", &layers, window, overhead);
    let replica_cover = med(&covers);
    o.check(replica_cover >= 0.9, || {
        format!("layer spans cover {replica_cover:.3} of a replayed window; need 0.9")
    });
    o.check(
        (0.9..=1.0 + ATTRIBUTION_TOLERANCE).contains(&attributed),
        || {
            format!(
            "ingest plus the replayed layers make {attributed:.3} of the driver's warm window; \
             need 0.9 to {:.2}",
            1.0 + ATTRIBUTION_TOLERANCE
        )
        },
    );
    o.metric("stream.window_ms", window, "ms");
    o.metric("stream.ingest_ms", ingest, "ms");
    o.metric("stream.estimate_publish_ms", window - ingest, "ms");
    o.metric("stream.replica_ms", med(&replica_ms), "ms");
    o.metric("stream.replica_coverage", replica_cover, "share");
    o.metric("stream.span_coverage", attributed, "share");
    o.metric("stream.trace_overhead_ms", overhead, "ms");
    let warm = report.warm_count();
    o.metric("stream.warm_windows", warm as f64, "count");
    o.metric("stream.cold_windows", report.cold_count() as f64, "count");
    o.metric(
        "stream.warm_share",
        warm as f64 / report.windows.len().max(1) as f64,
        "share",
    );
    let scores: Vec<f64> = report
        .windows
        .iter()
        .filter_map(|w| w.masked_rmse)
        .collect();
    o.metric(
        "eval.window_masked_rmse",
        scores.iter().sum::<f64>() / scores.len().max(1) as f64,
        "m/s",
    );
    let layer = |name: &str| layers.get(name).copied().unwrap_or(f64::NAN);
    o.metric("ovs.fit_ms", layer("ovs.fit"), "ms");
    // The scoring run of a T-interval window; `simulator.run_ms` is the
    // corpus's longer run.
    o.metric("simulator.scoring_run_ms", layer("simulator.run"), "ms");
    o.metric("checkpoint.publish_ms", layer("checkpoint.publish"), "ms");
    o.metric("checkpoint.gc_ms", layer("checkpoint.gc"), "ms");
    o.metric("checkpoint.artifact_bytes", bytes as f64, "B");

    tr.write_json(&ctx.out_dir.join("spans-stream.json"))?;
    Ok(())
}

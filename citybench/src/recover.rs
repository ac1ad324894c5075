//! `recover`: repeated cold OVS recoveries on Manhattan.
//!
//! The training-dominated path (three-stage OVS training plus the
//! test-time fit) that kernel and trainer work must move. One op is
//! `OvsEstimator::estimate` followed by `evaluate_tod`.

use crate::layers::{self, StepShape};
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{manhattan, measure, timed, Ctx, Outcome, Res, CITY_SEED, DEMAND_SCALE, INTERVAL_S};
use datagen::dataset::{simulate, DatasetSpec};
use datagen::Dataset;
use eval::metrics::{evaluate_tod, RmseTriple};
use neural::Matrix;
use ovs_core::estimator::{matrix_to_tod, validate_input, TodEstimator};
use ovs_core::trainer::{calibrate_demand_level, OvsEstimator, OvsTrainer};
use ovs_core::{EstimatorInput, OvsConfig, OvsModel};
use roadnet::parallel::Parallelism;
use roadnet::routing::{fastest_path, k_shortest_paths};
use roadnet::{OdSet, RoadNetwork, TodTensor};

const T: usize = 6;
const TRAIN_SAMPLES: usize = 4;
/// Fewest ops in a run, however slow the host.
const MIN_OPS: usize = 9;
/// Seed purpose of the observation's simulator run.
const OBSERVATION: u64 = 1;
/// Highest TOD RMSE a recovery may reach, in trips: the accuracy guard,
/// so that a speed-up cannot trade accuracy unseen. Across observation
/// seeds the recovered TOD scores 2.086, moving in the fourth digit.
const TOD_RMSE_CEILING: f64 = 2.11;

/// `OvsConfig::tiny()` with a single test-time fit.
pub fn config() -> OvsConfig {
    OvsConfig {
        fit_restarts: 1,
        ..OvsConfig::tiny()
    }
}

/// The input: the fixed city's training corpus, observed through this
/// seed's simulator run of the ground truth.
fn build(ctx: &Ctx) -> Res<Dataset> {
    let (net, ods, gt) = manhattan(T);
    let spec = DatasetSpec {
        t: T,
        interval_s: INTERVAL_S,
        train_samples: TRAIN_SAMPLES,
        demand_scale: DEMAND_SCALE,
        seed: CITY_SEED,
    };
    let mut ds = Dataset::assemble("Manhattan", net, ods, gt, &spec)?;
    ds.sim_config = ds.sim_config.clone().with_seed(ctx.derive(OBSERVATION));
    let observed = simulate(&ds.net, &ds.ods, &ds.sim_config, &ds.groundtruth_tod)?;
    ds.observed_speed = observed.speed;
    ds.groundtruth_volume = observed.volume;
    Ok(ds)
}

fn input(ds: &Dataset) -> EstimatorInput<'_> {
    EstimatorInput::builder(&ds.net, &ds.ods)
        .interval_s(ds.sim_config.interval_s)
        .sim_seed(ds.sim_config.seed)
        .train(&ds.train)
        .observed_speed(&ds.observed_speed)
        .build()
}

/// One op, untraced: a cold recovery and its evaluation.
fn recover_once(ds: &Dataset) -> Res<(TodTensor, RmseTriple)> {
    let tod = OvsEstimator::new(config()).estimate(&input(ds))?;
    let rmse = evaluate_tod(ds, &tod)?;
    Ok((tod, rmse))
}

fn bits(t: &TodTensor) -> Vec<u64> {
    t.as_slice().iter().map(|v| v.to_bits()).collect()
}

pub fn run(ctx: &Ctx, o: &mut Outcome) -> Res<()> {
    let mut setups = Vec::new();
    let mut setup = || -> Res<Dataset> {
        let (s, built) = timed(|| build(ctx));
        setups.push(s);
        built
    };
    let ds = setup()?;

    let mut first: Option<(Vec<u64>, f64)> = None;
    let mut bad = 0u64;
    let ops = || {
        let (tod, rmse) = recover_once(&ds)?;
        let same = match &first {
            None => {
                first = Some((bits(&tod), rmse.tod));
                true
            }
            Some((b, r)) => *b == bits(&tod) && r.to_bits() == rmse.tod.to_bits(),
        };
        if !(same && tod.is_finite() && rmse.is_finite()) {
            bad += 1;
        }
        Ok(())
    };
    let times = measure(ctx.seconds, MIN_OPS, ops, || setup().map(drop))?;
    o.attempted = times.len() as u64;
    o.failed = bad;
    o.check(bad == 0, || {
        format!("{bad} recoveries were non-finite or differed from the first")
    });
    let (_, rmse) = first.ok_or("no recovery ran")?;
    o.metric("setup_s", median(&setups).unwrap_or(f64::NAN), "s");
    // The op time of this workload is the median recovery.
    o.metric("op_ms", median(&times).unwrap_or(f64::NAN), "ms");
    o.check(rmse <= TOD_RMSE_CEILING, || {
        format!("tod_rmse {rmse} is above the accuracy guard {TOD_RMSE_CEILING}")
    });
    let steps: u64 = ["v2s", "tod2v", "fit"]
        .iter()
        .map(|s| {
            obs::global()
                .counter(&format!("trainer_{s}_steps_total"))
                .get()
        })
        .sum();
    eprintln!(
        "recover: {} ops, tod_rmse {rmse}, {:.1} training steps per op, setups {setups:?} s",
        times.len(),
        steps as f64 / times.len().max(1) as f64
    );
    Ok(())
}

/// Routes for every OD pair, as the model's route table searches them.
fn route_probe(o: &mut Outcome, net: &RoadNetwork, ods: &OdSet, k: usize) -> Res<()> {
    let (s, paths) = timed(|| -> Res<usize> {
        let mut paths = 0;
        for (_, pair) in ods.iter() {
            let from = net.region_anchor(pair.origin)?;
            let to = net.region_anchor(pair.destination)?;
            if from == to {
                continue;
            }
            paths += if k <= 1 {
                fastest_path(net, from, to).map(|_| 1)?
            } else {
                k_shortest_paths(net, from, to, k, &|l| l.free_flow_time_s())?.len()
            };
        }
        Ok(paths)
    });
    o.metric("roadnet.ksp_ms", s * 1e3, "ms");
    o.metric("roadnet.paths", paths? as f64, "count");
    Ok(())
}

/// Stage steps taken by one recovery.
struct Steps {
    v2s: usize,
    tod2v: usize,
    fit: usize,
}

/// One recovery composed from the trainer's public pieces, in the order
/// `OvsEstimator::estimate` runs them, with a span around each stage.
fn traced_op(tr: &Tracer, ds: &Dataset) -> Res<(u64, TodTensor, Steps)> {
    let base = config();
    tr.span("recover.op", None, |root| {
        let input = input(ds);
        let (trainer, mut model) = tr.span("ovs.prepare", Some(root), |_| -> Res<_> {
            validate_input(&input)?;
            let cfg = base.clone().adapted_to_corpus(input.train);
            let trainer = OvsTrainer::new(cfg.clone());
            let mut model = OvsModel::new(
                input.net,
                input.ods,
                input.n_intervals(),
                input.interval_s,
                cfg,
            )?;
            let level = calibrate_demand_level(&input);
            model
                .tod_gen
                .set_output_level(level / model.config().g_max.max(1e-9));
            Ok((trainer, model))
        })?;
        let v2s = tr.span("ovs.v2s", Some(root), |_| {
            trainer.train_v2s(&mut model, input.train)
        })?;
        let tod2v = tr.span("ovs.tod2v", Some(root), |_| {
            trainer.train_tod2v(&mut model, input.train)
        })?;
        let fit = tr.span("ovs.fit", Some(root), |_| {
            trainer.fit_tod_gen(&mut model, &input)
        })?;
        let mean = tr.span("ovs.ensemble", Some(root), |_| -> Res<Matrix> {
            // The restart fits run on the un-adapted configuration, as
            // in `OvsTrainer::run_ensembled`.
            let outer = OvsTrainer::new(base.clone());
            let restarts = base.fit_restarts.max(1);
            let level = calibrate_demand_level(&input);
            let mut mean = model.recovered_tod();
            for r in 1..restarts {
                model.reset_generator(base.seed.wrapping_add(r as u64 * 7919));
                model
                    .tod_gen
                    .set_output_level(level / model.config().g_max.max(1e-9));
                outer.fit_tod_gen(&mut model, &input)?;
                mean.add_assign(&model.recovered_tod());
            }
            mean.scale(1.0 / restarts as f64);
            Ok(mean)
        })?;
        let tod = matrix_to_tod(&mean);
        tr.span("eval.evaluate", Some(root), |_| evaluate_tod(ds, &tod))?;
        Ok((
            root,
            tod,
            Steps {
                v2s: v2s.len(),
                tod2v: tod2v.len(),
                fit: fit.len(),
            },
        ))
    })
}

pub fn traced(ctx: &Ctx, o: &mut Outcome) -> Res<()> {
    let (gt_s, (net, ods, _)) = timed(|| manhattan(T));
    o.metric("datagen.groundtruth_ms", gt_s * 1e3, "ms");
    route_probe(o, &net, &ods, config().k_routes)?;
    let ds = build(ctx)?;

    // Untraced reference ops, interleaved with the traced ones at the
    // same thread count: the result the composition must reproduce bit
    // for bit, and the baseline for the tracing overhead.
    let tr = Tracer::new();
    let mut steps = None;
    let mut tod_rmse = f64::NAN;
    for (tag, par, reps) in [
        ("tn", Parallelism::Threads(ctx.threads), 2),
        ("t1", Parallelism::Serial, 1),
    ] {
        let mut roots = Vec::new();
        let mut untraced = Vec::new();
        for _ in 0..reps {
            let (s, out) = par.run(|| timed(|| recover_once(&ds)));
            let (tod, rmse) = out?;
            let reference = bits(&tod);
            if tag == "tn" {
                tod_rmse = rmse.tod;
            }
            untraced.push(s * 1e3);
            let (root, tod, st) = par.run(|| traced_op(&tr, &ds))?;
            o.check(bits(&tod) == reference, || {
                format!("traced recovery at {tag} differs from the untraced one")
            });
            o.attempted += 2;
            roots.push(root);
            steps = Some(st);
        }
        let spans = tr.spans();
        let selfs = trace::self_times(&spans);
        let mut layers = std::collections::BTreeMap::new();
        let mut op_ms = Vec::new();
        let mut cover = f64::INFINITY;
        for root in spans.iter().filter(|s| roots.contains(&s.id)) {
            for (name, ms) in trace::layer_self_ms(&spans, root.id) {
                *layers.entry(name).or_insert(0.0) += ms / roots.len() as f64;
            }
            op_ms.push(root.dur_ns() as f64 / 1e6);
            cover = cover.min(trace::coverage(root, &selfs));
        }
        let op = median(&op_ms).unwrap_or(f64::NAN);
        let untraced = median(&untraced).unwrap_or(f64::NAN);
        trace::print_table(&format!("recover at {tag}"), &layers, op, op - untraced);
        for name in [
            "ovs.prepare",
            "ovs.v2s",
            "ovs.tod2v",
            "ovs.fit",
            "ovs.ensemble",
            "eval.evaluate",
        ] {
            o.metric(
                format!("{name}_ms.{tag}"),
                layers.get(name).copied().unwrap_or(0.0),
                "ms",
            );
        }
        o.metric(format!("recover.op_ms.{tag}"), op, "ms");
        o.metric(format!("recover.untraced_op_ms.{tag}"), untraced, "ms");
        o.metric(
            format!("recover.trace_overhead_ms.{tag}"),
            op - untraced,
            "ms",
        );
        o.metric(format!("recover.span_coverage.{tag}"), cover, "share");
        o.check(cover >= 0.9, || {
            format!("stage spans cover {cover:.3} of the recover op at {tag}; need 0.9")
        });
    }
    let steps = steps.expect("traced ops ran");
    o.metric("ovs.v2s_steps", steps.v2s as f64, "count");
    o.metric("ovs.tod2v_steps", steps.tod2v as f64, "count");
    o.metric("ovs.fit_steps", steps.fit as f64, "count");
    o.metric("eval.tod_rmse", tod_rmse, "trips");
    let cfg = config();
    layers::probe(
        o,
        StepShape {
            batch: ds.n_links() * ds.train.len(),
            t: T,
            hidden: cfg.lstm_hidden,
            od_pairs: ds.n_od(),
            route_hidden: cfg.route_hidden,
        },
        ctx.threads,
    );
    tr.write_json(&ctx.out_dir.join("spans-recover.json"))?;
    Ok(())
}

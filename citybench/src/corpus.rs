//! `corpus`: repeated `Dataset::assemble` of a Manhattan training corpus.
//!
//! All simulator and datagen fan-out, no neural work: a kernel change
//! should show no effect here and a simulator change should.

use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{manhattan, measure, timed, Ctx, Outcome, Res, DEMAND_SCALE, INTERVAL_S};
use datagen::dataset::DatasetSpec;
use datagen::{Dataset, TodPattern};
use neural::rng::Rng64;
use roadnet::parallel::Parallelism;
use roadnet::{OdSet, RoadNetwork, TodTensor};
use simulator::metrics::{CONSERVATION_VIOLATIONS, LINK_CONSERVATION_VIOLATIONS, TICKS};
use simulator::Simulation;

const T: usize = 12;
const SAMPLES: usize = 32;
/// Fewest ops in a run, however slow the host.
const MIN_OPS: usize = 7;
/// Seed purpose of the corpus (pattern draws and simulator runs).
const CORPUS: u64 = 2;
/// Seed purpose of the traced run's layer replay.
const REPLAY: u64 = 5;

struct City {
    net: RoadNetwork,
    ods: OdSet,
    gt: TodTensor,
    spec: DatasetSpec,
}

impl City {
    fn new(ctx: &Ctx) -> Self {
        let (net, ods, gt) = manhattan(T);
        let spec = DatasetSpec {
            t: T,
            interval_s: INTERVAL_S,
            train_samples: SAMPLES,
            demand_scale: DEMAND_SCALE,
            seed: ctx.derive(CORPUS),
        };
        Self { net, ods, gt, spec }
    }

    /// One op: the whole dataset build.
    fn assemble(&self) -> Res<Dataset> {
        Ok(Dataset::assemble(
            "Manhattan",
            self.net.clone(),
            self.ods.clone(),
            self.gt.clone(),
            &self.spec,
        )?)
    }
}

fn counter(name: &str) -> u64 {
    obs::global().counter(name).get()
}

fn violations() -> u64 {
    counter(CONSERVATION_VIOLATIONS) + counter(LINK_CONSERVATION_VIOLATIONS)
}

/// FNV-1a over the bits of `tensors`.
fn fnv(tensors: &[&[f64]]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for x in tensors.iter().flat_map(|t| t.iter()) {
        h = (h ^ x.to_bits()).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Checksum of every corpus tensor and the observation.
fn checksum(ds: &Dataset) -> u64 {
    let mut tensors: Vec<&[f64]> = ds
        .train
        .iter()
        .flat_map(|s| [s.tod.as_slice(), s.volume.as_slice(), s.speed.as_slice()])
        .collect();
    tensors.push(ds.observed_speed.as_slice());
    fnv(&tensors)
}

fn finite(ds: &Dataset) -> bool {
    ds.train.len() == SAMPLES
        && ds.observed_speed.is_finite()
        && ds
            .train
            .iter()
            .all(|s| s.tod.is_finite() && s.volume.is_finite() && s.speed.is_finite())
}

pub fn run(ctx: &Ctx, o: &mut Outcome) -> Res<()> {
    // Set-up: the city and one untimed warm-up build.
    let mut setups = Vec::new();
    let mut setup = || -> Res<(City, u64)> {
        let (s, built) = timed(|| -> Res<_> {
            let city = City::new(ctx);
            let sum = checksum(&city.assemble()?);
            Ok((city, sum))
        });
        setups.push(s);
        built
    };
    let (city, expected) = setup()?;

    let mut bad = 0u64;
    let ops = || {
        let before = violations();
        let ds = city.assemble()?;
        if !(finite(&ds) && checksum(&ds) == expected && violations() == before) {
            bad += 1;
        }
        Ok(())
    };
    let times = measure(ctx.seconds, MIN_OPS, ops, || match setup()? {
        (_, sum) if sum == expected => Ok(()),
        _ => Err("a set-up build changed checksum".into()),
    })?;
    o.attempted = times.len() as u64;
    o.failed = bad;
    o.check(bad == 0, || {
        format!("{bad} corpus builds were non-finite, violated conservation, or changed checksum")
    });
    o.check(violations() == 0, || {
        "the simulator counted conservation violations".into()
    });
    o.metric("setup_s", median(&setups).unwrap_or(f64::NAN), "s");
    // The op time of this workload is the median build.
    o.metric("op_ms", median(&times).unwrap_or(f64::NAN), "ms");
    eprintln!("corpus: {} ops, setups {setups:?} s", times.len());
    Ok(())
}

/// The corpus's layers run one by one through their public calls: a
/// pattern draw and a simulator run per sample, then a run of the ground
/// truth, each under its own span. The draws use the benchmark's own
/// seeds, so the replay has the corpus's shape, not its exact values.
fn replay(tr: &Tracer, ctx: &Ctx, city: &City) -> Res<u64> {
    let spec = &city.spec;
    let cfg = spec.sim_config();
    tr.span("corpus.replay", None, |root| {
        let mut runs = Vec::with_capacity(SAMPLES + 1);
        for k in 0..SAMPLES {
            let tod = tr.span("datagen.pattern", Some(root), |_| {
                let mut rng = Rng64::for_index(ctx.derive(REPLAY), k as u64);
                TodPattern::ALL[k % TodPattern::ALL.len()].generate(
                    city.ods.len(),
                    spec.t,
                    spec.interval_s / 60.0,
                    spec.demand_scale,
                    &mut rng,
                )
            });
            runs.push(tod);
        }
        runs.push(city.gt.clone());
        for tod in &runs {
            let out = tr.span("simulator.run", Some(root), |_| {
                Simulation::new(&city.net, &city.ods, cfg.clone())?.run(tod)
            })?;
            if !(out.speed.is_finite() && out.volume.is_finite()) {
                return Err("a replayed simulator run is not finite".into());
            }
        }
        Ok(root)
    })
}

pub fn traced(ctx: &Ctx, o: &mut Outcome) -> Res<()> {
    let city = City::new(ctx);
    let expected = checksum(&city.assemble()?);

    let ticks_before = counter(TICKS);
    let mut untraced = Vec::new();
    for _ in 0..2 {
        untraced.push(timed(|| city.assemble()).0 * 1e3);
    }
    let ticks = (counter(TICKS) - ticks_before) / 2;
    let tn = median(&untraced).unwrap_or(f64::NAN);
    let (t1_s, _) = timed(|| Parallelism::Serial.run(|| city.assemble()));
    let t1 = t1_s * 1e3;
    o.metric("datagen.assemble_ms.tn", tn, "ms");
    o.metric("datagen.assemble_ms.t1", t1, "ms");
    o.metric(
        "datagen.parallel_eff",
        t1 / (ctx.threads as f64 * tn),
        "share",
    );
    o.metric("simulator.ticks", ticks as f64, "count");

    // The op itself under a span, at N threads and at 1 thread.
    let tr = Tracer::new();
    for (tag, par, untraced_op) in [
        ("tn", Parallelism::Threads(ctx.threads), tn),
        ("t1", Parallelism::Serial, t1),
    ] {
        let (root, sum) = tr.span("corpus.op", None, |root| -> Res<_> {
            let ds = tr.span("datagen.assemble", Some(root), |_| {
                par.run(|| city.assemble())
            })?;
            Ok((root, checksum(&ds)))
        })?;
        o.check(sum == expected, || {
            format!("the traced corpus build at {tag} changed checksum")
        });
        let spans = tr.spans();
        let op = spans
            .iter()
            .find(|s| s.id == root)
            .map_or(f64::NAN, |s| s.dur_ns() as f64 / 1e6);
        o.metric(format!("corpus.op_ms.{tag}"), op, "ms");
        o.metric(
            format!("corpus.trace_overhead_ms.{tag}"),
            op - untraced_op,
            "ms",
        );
    }

    // Layer split, serial: pattern draws and simulator runs.
    let before = violations();
    let root = replay(&tr, ctx, &city)?;
    o.check(violations() == before, || {
        "the replayed simulator runs counted conservation violations".into()
    });
    let spans = tr.spans();
    let layers = trace::layer_self_ms(&spans, root);
    let replay_ms = layers.values().sum::<f64>();
    trace::print_table(
        &format!("corpus layers at t1 (serial replay; the t1 build took {t1:.1} ms)"),
        &layers,
        replay_ms,
        0.0,
    );
    let per = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && s.parent == Some(root))
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    };
    let run_ms = median(&per("simulator.run")).unwrap_or(f64::NAN);
    o.metric("simulator.run_ms", run_ms, "ms");
    o.metric(
        "simulator.ticks_per_s",
        ticks as f64 / (SAMPLES + 1) as f64 / (run_ms / 1e3),
        "1/s",
    );
    o.metric(
        "datagen.pattern_ms",
        median(&per("datagen.pattern")).unwrap_or(f64::NAN),
        "ms",
    );
    // How much of the serial build the layer replay accounts for.
    o.metric("corpus.replay_share.t1", replay_ms / t1, "share");
    // The reference, two untraced and one serial build, two traced ones.
    o.attempted = 6;
    tr.write_json(&ctx.out_dir.join("spans-corpus.json"))?;
    Ok(())
}
